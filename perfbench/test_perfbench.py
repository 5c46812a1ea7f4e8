"""Self-tests of the benchmark.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _tree():
    """cli.main -> run_experiment -> (evolve, build); cli.main -> csv -> atomic."""
    def span(name, parent, start, end, **info):
        return spans.Span(name, name.split(".")[0], parent, start, end, info)

    return [
        span("cli.main", -1, 0.0, 10.0),
        span("protocols.run_experiment", 0, 1.0, 7.0),
        span("dynamics.evolve_rk4", 1, 2.0, 6.0, samples=21, site_samples=21 * 301,
             detail=["rk4"]),
        span("lattice.build_chain_hamiltonian", 1, 6.0, 6.5, dim=301),
        span("configio.write_trajectory_csv", 0, 7.5, 9.0, suffix=".csv", bytes=3_000_000),
        span("configio.write_text_atomic", 4, 8.0, 9.0, suffix=".csv", bytes=3_000_000),
    ]


def test_self_time_is_duration_minus_child_coverage():
    assert spans.self_times(_tree()) == pytest.approx([2.5, 1.5, 4.0, 0.5, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [spans.Span("cli.main", "cli", -1, 0.0, 10.0),
            spans.Span("protocols.a", "protocols", 0, 1.0, 4.0),
            spans.Span("protocols.b", "protocols", 0, 3.0, 6.0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_layer_metrics_of_a_synthetic_tree():
    hot = {"matvec": spans.HotStat(84, 3.0, 0), "to_dense": spans.HotStat(2, 0.1, 2 * 301**2 * 16)}
    m = spans.layer_metrics(_tree(), hot)
    assert set(m) == set(spans.LAYER_UNITS)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["protocols.self_s"] == pytest.approx(1.5)
    assert m["dynamics.self_s"] == pytest.approx(4.0)
    assert (m["dynamics.calls"], m["dynamics.samples"]) == (1, 21)
    assert m["dynamics.matvecs_per_sample"] == pytest.approx(4.0)
    assert (m["lattice.build_calls"], m["lattice.dim_built"]) == (1, 301)
    assert m["lattice.build_s"] == pytest.approx(0.5)
    assert m["lattice.dense_bytes"] == 2 * 301**2 * 16
    # the nested atomic write is part of the CSV write, not counted twice
    assert m["configio.csv_write_s"] == pytest.approx(1.5)
    assert m["configio.csv_bytes"] == 3_000_000
    assert m["configio.csv_write_MBps"] == pytest.approx(2.0)
    assert m["configio.self_s"] == pytest.approx(1.5)


def test_oracle_accepts_itself_and_rejects_a_1e6_perturbation():
    chain = workloads.LongChain(seed=3)
    check = next(op.check for op in chain.ops(Path(".")) if op.name == "n301")
    reference = chain.reference(301)

    def result(amplitudes):
        return SimpleNamespace(trajectory=SimpleNamespace(amplitudes=amplitudes, times=chain.times))

    assert check(result(reference.copy())) is None
    bad = reference.copy()
    bad[len(bad) // 2, 150] += 1e-6 * np.max(np.abs(reference))
    assert check(result(bad)).startswith("check:oracle")


def test_package_run_passes_the_oracle():
    chain = workloads.LongChain(seed=5)
    op = next(op for op in chain.ops(Path(".")) if op.name == "n301")
    assert op.check(op.run({})) is None
    assert chain.max_error < 1e-12


def test_hermitian_single_site_matches_the_general_propagator():
    labels = np.arange(-40, 41)
    times = np.arange(41) * 0.25
    exact = oracle.single_site_hermitian(2, labels, times, kappa=1.0)
    c0 = np.zeros(len(labels), dtype=complex)
    c0[42] = 1.0
    general = oracle.propagate(c0, times, kappa=1.0, beta=0.0, gamma=0.0, phi=0.0)
    assert oracle.relative_error(general, exact) < 1e-13
    assert np.all((exact.real == 0.0) | (exact.imag == 0.0))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = workloads.WORKLOADS[name]
    assert make(7).fingerprint() == make(7).fingerprint()
    if name != "figures":  # a permutation of a short list may repeat
        assert make(7).fingerprint() != make(8).fingerprint()


def test_tracer_replaces_every_copy_and_restores_it():
    import nhlattice
    from nhlattice import dynamics, protocols

    original = dynamics.evolve_exact
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = dynamics.evolve_exact
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert protocols.evolve_exact is wrapped and nhlattice.evolve_exact is wrapped
        config = workloads.LongChain(seed=1).configs[301]
        protocols.run_experiment(config)
    finally:
        tracer.uninstall()
    assert dynamics.evolve_exact is original and protocols.evolve_exact is original
    m = spans.layer_metrics(tracer.spans, tracer.hot)
    assert m["dynamics.calls"] == 1 and m["dynamics.samples"] == 21
    assert m["lattice.matvec_calls"] > 0 and m["protocols.resolve_s"] > 0


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {**spans.LAYER_UNITS,
                                                                 **run.TRACE_UNITS}


def test_pass_time_sums_each_ops_median_over_the_run():
    def op(name, seconds):
        return {"name": name, "scaled_s": seconds}

    passes = [{"ops": [op("a", 1.0), op("a", 3.0), op("b", 10.0)]},
              {"ops": [op("a", 2.0), op("a", 2.0), op("b", 20.0)]}]
    assert run.median_pass(passes) == pytest.approx(2.0 + 2.0 + 15.0)
