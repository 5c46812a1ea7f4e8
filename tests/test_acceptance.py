"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 5a (full sawtooth vs effective chain at the u_b = +i*j^2/beta
working point) is expected to FAIL: that operating point puts the
auxiliary band at Im(eigenvalue) ~ +|u_b|, so the full model is linearly
unstable and no transport-scale comparison exists; see the README and
the test's own docstring.  The same physics passes at the stable lossy
working point (test_protocols.test_reduction_loss_variant_converges).
"""

import math
import sys

import numpy as np
import scipy.optimize

import nhlattice as nh
from nhlattice import (
    ChainSpec,
    ExcitationSpec,
    ExperimentConfig,
    GainRunawayError,
    ReductionParams,
    SawtoothSpec,
    Timing,
    adiabatic_reduce,
    build_chain_hamiltonian,
    centroid_series,
    centroid_velocity,
    dispersion,
    evolve_exact,
    make_excitation,
    measure_reflection,
    preset_config,
)
from nhlattice.cli import EXPERIMENT_SUBCOMMAND, main as cli_main
from nhlattice.configio import read_metrics, read_table_csv, read_trajectory_csv

import reference

NH = dict(kappa=1.0, beta=0.4, gamma=0.8)


def _report(tag: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status} - {detail}", file=sys.stderr)
    assert ok, f"{tag}: {detail}"


# ------------------------------------------------------------------ 1


def test_c1_dispersion_vs_brute_force_eigenvalues():
    import time

    t0 = time.perf_counter()
    n = 256
    worst = 0.0
    for phi in (0.0, math.pi / 4, math.pi / 2):
        spec = ChainSpec(phi=phi, n_sites=n, boundary="periodic", **NH)
        h = build_chain_hamiltonian(spec)
        eigs = np.linalg.eigvals(reference.csr(h).toarray())
        qs = np.array([2.0 * math.pi * k / n for k in range(n)])
        qs = np.where(qs > math.pi, qs - 2.0 * math.pi, qs)
        analytic = dispersion(1.0, 0.4, 0.8, spec.phi, qs)
        cost = np.abs(analytic[:, None] - eigs[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        rel = cost[rows, cols] / np.maximum(1.0, np.abs(analytic[rows]))
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    _report("criterion 1", worst <= 1e-10 and elapsed < 5.0,
            f"closed form vs 256-site ring eigenvalues: worst rel err {worst:.2e}, "
            f"{elapsed:.2f}s")


# ------------------------------------------------------------------ 2


def test_c2_lossless_mode_selection(preset_results):
    result, _ = preset_results("fig2")
    header, rows = result.table
    ok = True
    details = []
    for phi in (0.0, math.pi / 4, math.pi / 2):
        sub = rows[rows[:, 0] == phi]
        arg = int(np.argmax(sub[:, 3]))
        q_star = sub[arg, 1]
        max_im = sub[arg, 3]
        ok = ok and (q_star == -phi) and (abs(max_im) <= 1e-12)
        details.append(f"phi={phi:.3f}: argmax q={q_star:.3f}, max Im={max_im:.1e}")
    _report("criterion 2", ok, "; ".join(details))


# ------------------------------------------------------------------ 3


def test_c3_transport_velocity_and_localization(preset_results):
    beam, elapsed = preset_results("fig3d")
    v = centroid_velocity(beam.trajectory, (10.0, 30.0))
    sites = beam.config.chain_length
    localized, _ = preset_results("fig3b")
    cents = centroid_series(localized.trajectory)
    mask = localized.trajectory.times <= 30.0 + 1e-9
    drift = float(np.max(np.abs(cents[mask] - cents[0])))
    ok = (abs(v - 2.0) <= 0.05 * 2.0) and (drift < 1.0) and elapsed < 30.0 \
        and 250 <= sites <= 350
    _report("criterion 3", ok,
            f"phi=pi/2 velocity {v:.4f} (target 2 +/- 5%), phi=0 drift {drift:.2e} sites, "
            f"{sites}-site chain in {elapsed:.1f}s")


# ------------------------------------------------------------------ 4


def test_c4_defect_robustness(preset_results):
    herm_s, _ = preset_results("fig3e")
    nonh_s, _ = preset_results("fig3f")
    r_h3 = measure_reflection(herm_s.trajectory, 10, 30.0)
    r_n3 = measure_reflection(nonh_s.trajectory, 10, 30.0)
    ratio3 = r_h3 / max(r_n3, 1e-300)

    herm_g, _ = preset_results("fig4a")
    nonh_g, _ = preset_results("fig4d")
    r_h4 = measure_reflection(herm_g.trajectory, -5, 25.0)
    r_n4 = measure_reflection(nonh_g.trajectory, -5, 25.0)
    ratio4 = r_h4 / max(r_n4, 1e-300)

    v_before = centroid_velocity(nonh_g.trajectory, (2.0, 9.0))
    v_after = centroid_velocity(nonh_g.trajectory, (22.0, 29.0))
    v_change = abs(v_after - v_before) / abs(v_before)

    ok = ratio3 >= 10.0 and ratio4 >= 10.0 and v_change <= 0.05
    _report("criterion 4", ok,
            f"reflection ratios: single-site {ratio3:.1e}, packet {ratio4:.1e} (>= 10); "
            f"velocity before/after defects {v_before:.3f}/{v_after:.3f} "
            f"({100 * v_change:.1f}% change)")


# ------------------------------------------------------------------ 5


def test_c5a_reduction_convergence_at_specified_working_point():
    """Full sawtooth vs effective chain with u_b = +i*j^2/beta.

    Expected to FAIL: the auxiliary band of this working point is amplified
    at rate |u_b| (verified spectrally: half the eigenvalues sit at
    Im ~ +|u_b|), so the slaved-b initial state blows up around
    t ~ ln(1/eps)/|u_b| << 1/kappa and no transport-scale profile
    comparison exists, in exact arithmetic or otherwise.  The stable
    lossy-auxiliary variant demonstrates the same convergence physics
    (test_protocols.test_reduction_loss_variant_converges).
    """
    cfg = ExperimentConfig(
        experiment="reduction_check", phi=math.pi / 2,
        excitation=ExcitationSpec(kind="gaussian", n0=-25, w0=5.0, q0=-math.pi / 2),
        timing=Timing(t_final=20.0),
        reduction=ReductionParams(j_values=(4.0, 8.0), aux_sign="gain"),
        **NH,
    )
    try:
        result = nh.run_reduction_check(cfg)
    except GainRunawayError as exc:
        _report("criterion 5a", False,
                f"full model diverged before any comparison window: {exc}")
        return
    errors = result.table[1][:, 3]
    ok = bool(errors[1] < errors[0]) and errors[1] < 0.05
    _report("criterion 5a", ok,
            f"profile errors at j/kappa=(4, 8): {errors[0]:.3g}, {errors[1]:.3g}")


def test_c5b_reduction_algebraic_identities():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(200):
        kappa = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(0.05, 1.5))
        theta = float(rng.uniform(-1.5, 1.5))
        j = float(rng.uniform(0.5, 8.0))
        gamma_a = float(rng.uniform(0.0, 3.0))
        saw = SawtoothSpec(kappa=kappa, j=j, theta=theta, gamma_a=gamma_a,
                           u_b=1j * j * j / beta, n_cells=3)
        red = adiabatic_reduce(saw)
        j1_err = abs(red.j1 - (kappa + 1j * beta * np.exp(2j * theta)))
        j2_err = abs(red.j2 - (kappa + 1j * beta * np.exp(-2j * theta)))
        gamma_err = abs(-np.imag(red.u_eff) - (gamma_a - 2.0 * beta))
        worst = max(worst, j1_err / max(1.0, abs(red.j1)),
                    j2_err / max(1.0, abs(red.j2)), gamma_err / max(1.0, abs(gamma_a)))
    _report("criterion 5b", worst <= 1e-12,
            f"j1 = kappa + i*beta*e^(2i*theta) and gamma = Gamma - 2*beta over 200 "
            f"random parameter sets: worst rel err {worst:.2e}")


# ------------------------------------------------------------------ 6


def test_c6_storage_and_reversal(preset_results):
    fwd, _ = preset_results("fig6a")
    rev, _ = preset_results("fig6b")
    mf, mr = fwd.metrics, rev.metrics
    ok = (
        mf["release_direction"] == "forward"
        and mf["shape_fidelity"] >= 0.9
        and abs(mf["release_velocity"] - 2.0) <= 0.1
        and mr["release_direction"] == "reversed"
        and mr["shape_fidelity"] >= 0.9
        and abs(mr["release_velocity"] + 2.0) <= 0.1
        and mf["capture_confinement_min"] >= 0.8
        and mr["capture_confinement_min"] >= 0.8
    )
    _report("criterion 6", ok,
            f"forward: v={mf['release_velocity']:.3f}, fidelity={mf['shape_fidelity']:.3f}; "
            f"reversed: v={mr['release_velocity']:.3f}, fidelity={mr['shape_fidelity']:.3f}; "
            f"capture confinement {mf['capture_confinement_min']:.3f}")


# ------------------------------------------------------------------ 7


def test_c7_efficiency_increases_with_offset(preset_results):
    result, _ = preset_results("fig7")
    header, rows = result.table
    xis = rows[:, 0]
    effs = rows[:, 1]
    ok = np.allclose(xis, [0.4, 0.6, 0.8]) and bool(np.all(np.diff(effs) > 0))
    _report("criterion 7", ok,
            "efficiency vs xi: " + ", ".join(f"{x:.1f}->{e:.4f}" for x, e in zip(xis, effs)))


# ------------------------------------------------------------------ 8


def _reference_rk4(cfg, traj, defects=()):
    # independent dense operator and fixed-step RK4 from tests/reference.py
    h = reference.dense_chain(cfg.kappa, cfg.beta, cfg.gamma, cfg.phi, traj.site_labels,
                              defects=defects)
    t = cfg.timing
    return reference.rk4([(0.0, h)], traj.amplitudes[0], t.t_final, 1e-3, t.sample_dt)


def test_c8_integrator_cross_check(preset_results):
    checked = []
    worst = 0.0
    for name in ("fig4a", "fig4b", "fig4c", "fig4d"):
        result, _ = preset_results(name)
        cfg = result.config
        if cfg.chain_length > 200:
            continue
        defects = [(d.site, d.v_real, d.xi_imag) for d in cfg.defects]
        diff = float(np.max(np.abs(result.trajectory.amplitudes
                                   - _reference_rk4(cfg, result.trajectory, defects))))
        worst = max(worst, diff)
        checked.append(f"{name}({cfg.chain_length}): {diff:.1e}")
    # reduction preset: its chain-side evolution is also within the dim cap
    red, _ = preset_results("reduction")
    assert red.config.chain_length <= 200
    diff = float(np.max(np.abs(red.trajectory.amplitudes
                               - _reference_rk4(red.config, red.trajectory))))
    worst = max(worst, diff)
    checked.append(f"reduction-chain({red.config.chain_length}): {diff:.1e}")
    _report("criterion 8a", worst < 1e-8,
            "propagator vs reference rk4 on every preset with dim <= 200: "
            + "; ".join(checked))


def test_c8_hermitian_drift_and_dissipative_monotonicity(preset_results):
    spec = ChainSpec(kappa=1.0, beta=0.0, gamma=0.0, phi=0.0, n_sites=101,
                     index_origin=-50)
    h = build_chain_hamiltonian(spec)
    c0 = make_excitation(ExcitationSpec(kind="single_site", n0=0), spec.site_labels)
    traj = evolve_exact(h, c0, 50.0, 1.0)
    drift = abs(traj.norm_series[-1] / traj.norm_series[0] - 1.0)

    monotone_ok = True
    names = ("fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f",
             "fig4a", "fig4b", "fig4c", "fig4d")
    for name in names:
        result, _ = preset_results(name)
        s = result.trajectory.norm_series
        monotone_ok = monotone_ok and bool(np.all(s[1:] <= s[:-1] * (1 + 1e-12)))
    ok = drift < 1e-6 and monotone_ok
    _report("criterion 8b", ok,
            f"Hermitian norm drift {drift:.2e} over t*kappa=50; "
            f"S(t) non-increasing on all {len(names)} purely dissipative presets: {monotone_ok}")


# ------------------------------------------------------------------ 9


def test_c9_cli_round_trip_every_preset(tmp_path):
    failures = []
    for name in nh.PRESETS:
        cfg = preset_config(name)
        sub = EXPERIMENT_SUBCOMMAND[cfg.experiment]
        out1 = tmp_path / name / "run1"
        out2 = tmp_path / name / "run2"
        code = cli_main([sub, "--preset", name, "--out", str(out1), "--format", "csv+svg"])
        if code != 0:
            failures.append(f"{name}: first run exit {code}")
            continue
        # artifacts must be parseable
        metrics = read_metrics(out1 / "metrics.txt")
        if metrics.get("preset") != name:
            failures.append(f"{name}: metrics missing preset tag")
        if name == "fig6a" and metrics.get("release_direction") != "forward":
            failures.append(f"{name}: expected a forward release in metrics")
        if name == "fig6a" and not (out1 / "heatmap.svg").exists():
            failures.append(f"{name}: missing heatmap.svg")
        if (out1 / "trajectory.csv").exists():
            read_trajectory_csv(out1 / "trajectory.csv")
        if (out1 / "scan.csv").exists():
            read_table_csv(out1 / "scan.csv")
        code = cli_main([sub, "--config", str(out1 / "manifest.cfg"),
                         "--out", str(out2), "--format", "csv+svg"])
        if code != 0:
            failures.append(f"{name}: manifest re-run exit {code}")
            continue
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        if names1 != names2:
            failures.append(f"{name}: artifact sets differ")
            continue
        for fname in names1:
            if (out1 / fname).read_bytes() != (out2 / fname).read_bytes():
                failures.append(f"{name}: {fname} not byte-identical on re-run")
    _report("criterion 9", not failures,
            f"all {len(nh.PRESETS)} presets ran via CLI with bit-identical manifest "
            f"re-runs" + ("" if not failures else "; failures: " + "; ".join(failures)))
