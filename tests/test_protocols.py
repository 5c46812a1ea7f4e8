import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

import nhlattice as nh
import reference
from nhlattice import (
    DispersionParams,
    ExcitationSpec,
    ExperimentConfig,
    GainRunawayError,
    PRESETS,
    ReductionParams,
    StorageParams,
    Timing,
    preset_config,
    resolve_config,
    run_experiment,
    run_reduction_check,
    run_storage,
    run_transport,
)
from nhlattice.configio import ConfigError
from nhlattice.dynamics import _TIME_EPS
from nhlattice.protocols import EDGE_FRACTION_LIMIT

#: the physical memory that resolve_config's memory checks compare against
_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

FAST_GAUSS = ExperimentConfig(
    experiment="transport_gaussian", kappa=1.0, beta=0.4, gamma=0.8, phi=math.pi / 2,
    excitation=ExcitationSpec(kind="gaussian", n0=-15, w0=3.0, q0=-math.pi / 2),
    timing=Timing(t_final=8.0),
)


# ---------------------------------------------------------------- resolution


def test_auto_sizing_covers_spec_floor():
    cfg = resolve_config(FAST_GAUSS)
    exc = FAST_GAUSS.excitation
    travel = 2.0 * cfg.kappa * cfg.timing.t_final
    floor_lo = exc.n0 - 4 * exc.w0 - travel - 10
    floor_hi = exc.n0 + 4 * exc.w0 + travel + 10
    assert cfg.index_origin <= floor_lo
    assert cfg.index_origin + cfg.chain_length - 1 >= floor_hi


def test_auto_sizing_keeps_edges_quiet():
    result = run_transport(FAST_GAUSS)
    assert result.metrics["edge_fraction_max"] < EDGE_FRACTION_LIMIT
    assert result.metrics["edge_fraction_ok"] is True


def test_resolution_materializes_every_auto_field():
    cfg = resolve_config(FAST_GAUSS)
    assert cfg.chain_length is not None and cfg.index_origin is not None
    assert "auto" not in nh.configio.render_config(cfg)


def test_resolution_validates_sites():
    bad = replace(FAST_GAUSS, chain_length=11, index_origin=0)
    with pytest.raises(ConfigError, match="n0"):
        resolve_config(bad)
    bad2 = replace(FAST_GAUSS, chain_length=151, index_origin=-75,
                   defects=(nh.DefectSpec(200, 1.0, 0.0),))
    with pytest.raises(ValueError, match="200"):
        resolve_config(bad2)


def test_storage_requires_switch_time():
    cfg = ExperimentConfig(
        experiment="storage", beta=0.4, gamma=0.8, phi=math.pi / 2,
        excitation=ExcitationSpec(kind="gaussian", n0=-10, w0=2.0, q0=-math.pi / 2),
        timing=Timing(t_final=10.0),
    )
    with pytest.raises(ConfigError, match="t_prime"):
        resolve_config(cfg)


def test_experiment_excitation_mismatch():
    cfg = replace(FAST_GAUSS, experiment="transport_single_site")
    with pytest.raises(ConfigError, match="single_site"):
        resolve_config(cfg)


# ---------------------------------------------------------------- presets


def test_preset_registry_complete():
    expected = {"fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f",
                "fig4a", "fig4b", "fig4c", "fig4d", "fig6a", "fig6b", "fig7",
                "reduction"}
    assert set(PRESETS) == expected
    for name, cfg in PRESETS.items():
        assert cfg.preset == name


def test_preset_configs_are_immutable_values():
    first = preset_config("fig3d")
    second = preset_config("fig3d")
    assert first == second
    with pytest.raises(Exception):
        first.phi = 0.0


def test_unknown_preset_raises_config_error():
    with pytest.raises(ConfigError, match="fig0"):
        preset_config("fig0")


def test_fig3_presets_match_panel_parameters():
    fig3e = preset_config("fig3e")
    assert fig3e.beta == 0.0 and fig3e.gamma == 0.0
    assert {(d.site, d.v_real) for d in fig3e.defects} == {(10, 2.0), (20, 2.0)}
    fig4d = preset_config("fig4d")
    assert fig4d.phi == math.pi / 2
    assert {(d.site, d.v_real) for d in fig4d.defects} == {(-5, 2.0), (5, 2.0)}
    exc = fig4d.excitation
    assert (exc.n0, exc.w0, exc.q0) == (-30, 5.0, -math.pi / 2)
    fig6a = preset_config("fig6a")
    assert fig6a.storage.n_half == 3 and fig6a.storage.v_c == 1.0
    assert fig6a.storage.xi == 0.4 and fig6a.timing.t_prime == 30.0


# ---------------------------------------------------------------- determinism


def test_rerun_is_bit_identical():
    a = run_transport(FAST_GAUSS)
    b = run_transport(FAST_GAUSS)
    assert a.manifest == b.manifest
    assert np.array_equal(a.trajectory.amplitudes, b.trajectory.amplitudes)
    assert a.metrics == b.metrics


def test_manifest_reparse_reproduces_run():
    a = run_transport(FAST_GAUSS)
    cfg_back = nh.configio.parse_config_text(a.manifest)
    b = run_transport(cfg_back)
    assert b.manifest == a.manifest
    assert np.array_equal(a.trajectory.amplitudes, b.trajectory.amplitudes)


# ---------------------------------------------------------------- dispersion


def test_dispersion_scan_table_structure():
    cfg = ExperimentConfig(experiment="dispersion_scan", beta=0.4, gamma=0.8,
                           dispersion=DispersionParams(phi_values=(0.0, math.pi / 2),
                                                       q_points=129))
    result = run_experiment(cfg)
    header, rows = result.table
    assert header == ("phi", "q", "reE", "imE", "vg")
    assert rows.shape == (2 * 129, 5)
    # Re E identical across phi values on the same q grid
    re0 = rows[:129, 2]
    re1 = rows[129:, 2]
    assert np.array_equal(re0, re1)
    # v_g column matches the closed form
    assert np.allclose(rows[:129, 4], -2.0 * np.sin(rows[:129, 1]), atol=1e-15)


def test_dispersion_scan_argmax_metrics():
    result = nh.run_dispersion_scan(preset_config("fig2"))
    for i, phi in enumerate((0.0, math.pi / 4, math.pi / 2)):
        assert result.metrics[f"phi[{i}].q_max_im"] == -phi
        assert abs(result.metrics[f"phi[{i}].max_im"]) <= 1e-12


@pytest.mark.parametrize("q_points, phi_values", [
    (10**10, ()), (10**10, (0.0,)), (10**8, tuple(np.linspace(0.0, 1.0, 200))), (10**40, (0.0,)),
    # the table's 40 bytes a row fit; with 72 a q point for the arrays beside it they do not
    pytest.param(_MEMORY // 60, (0.0,), id="past-memory-with-the-grid-arrays"),
])
def test_dispersion_table_past_memory_is_rejected_naming_q_points(q_points, phi_values):
    # resolved only: the scan itself would build arrays of q_points floats
    cfg = ExperimentConfig(experiment="dispersion_scan",
                           dispersion=DispersionParams(phi_values=phi_values, q_points=q_points))
    with pytest.raises(ConfigError, match=r"^dispersion\.q_points: \d+ table rows do not fit"):
        resolve_config(cfg)
    assert resolve_config(replace(cfg, dispersion=replace(cfg.dispersion, q_points=10**6)))


@pytest.mark.parametrize("p", [3, 4, 257, 1001])
def test_dispersion_grid_bytes_equal_the_per_point_rule(p):
    cfg = ExperimentConfig(experiment="dispersion_scan", beta=0.4, gamma=0.8,
                           dispersion=DispersionParams(phi_values=(0.0, 1.0), q_points=p))
    rows = nh.run_dispersion_scan(cfg).table[1]
    half, step = (p - 1) // 2, 2.0 * math.pi / (p - 1)
    want = np.array([(k - half) * step for k in range(p)]).tobytes()
    assert rows[:p, 1].tobytes() == want
    assert rows[p:, 1].tobytes() == want


def test_dispersion_scan_peak_memory_under_twice_its_table():
    cfg = ExperimentConfig(experiment="dispersion_scan", beta=0.4, gamma=0.8,
                           dispersion=DispersionParams(q_points=200001))
    tracemalloc.start()
    try:
        result = nh.run_dispersion_scan(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = result.table[1]
    assert table.shape == (3 * 200001, 5)
    assert peak < 2 * table.nbytes, f"peak {peak / table.nbytes:.2f} times the table"


def _traced_peak(config):
    """The tracemalloc peak of one run_experiment of config, in bytes."""
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("config, message", [
    (replace(preset_config("fig3a"), chain_length=201, index_origin=-100,
             timing=Timing(t_final=20.0, sample_dt=0.05)), r"timing\.\w+: .* samples of 201 "),
    (replace(preset_config("fig7"), storage=replace(preset_config("fig7").storage,
                                                    xi_sweep=(0.4, 0.8))),
     r"timing\.\w+: .* samples of 231 "),  # a sweep: one member's trajectory alive at once
    (replace(preset_config("reduction"), timing=Timing(t_final=10.0)),
     r"timing\.\w+: .* samples of \d+ "),  # the chain's and one sawtooth's trajectory alive
    (ExperimentConfig(experiment="dispersion_scan", beta=0.4, gamma=0.8,
                      dispersion=DispersionParams(q_points=100001)),
     r"dispersion\.q_points: 300003 table rows "),
], ids=["transport", "storage", "reduction", "scan"])
def test_memory_check_counts_at_least_the_traced_peak(config, message, monkeypatch):
    # on a machine with one byte less than the run's traced peak the run is
    # rejected before any work; with twice the peak it is not.  Each config is
    # large enough that its arrays, not the run's fixed objects, set the peak
    cfg = resolve_config(config)
    peak = _traced_peak(cfg)
    for memory in (peak - 1, 2 * peak):
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}.get)
        if memory < peak:
            with pytest.raises(ConfigError, match="^" + message):
                resolve_config(cfg)
        else:
            assert resolve_config(cfg) == cfg


_FIG7, _REDUCTION = preset_config("fig7"), preset_config("reduction")


@pytest.mark.parametrize("one, more", [
    (replace(_FIG7, storage=replace(_FIG7.storage, xi_sweep=())),
     replace(_FIG7, storage=replace(_FIG7.storage, xi_sweep=(0.4, 0.8)))),
    (replace(_REDUCTION, reduction=replace(_REDUCTION.reduction, j_values=(4.0,))),
     replace(_REDUCTION, reduction=replace(_REDUCTION.reduction, j_values=(4.0, 8.0)))),
], ids=["storage sweep", "reduction j values"])
def test_a_run_holds_one_propagated_trajectory_at_a_time(one, more):
    # a later sweep member or j propagates after the earlier one's trajectory
    # is dropped, so it adds no trajectory to the traced peak; a runner that
    # holds the earlier one reads 1.47x (storage) and 1.43x (reduction)
    assert _traced_peak(more) <= 1.15 * _traced_peak(one)


# ---------------------------------------------------------------- storage


def _fast_storage(sign="forward", xi=0.4, xi_sweep=()):
    return ExperimentConfig(
        experiment="storage", beta=0.4, gamma=0.8, phi=math.pi / 2,
        excitation=ExcitationSpec(kind="gaussian", n0=-16, w0=3.0, q0=-math.pi / 2),
        timing=Timing(t_final=24.0, t_prime=12.0),
        storage=StorageParams(n_half=3, v_c=1.0, xi=xi,
                              retrieval_phase_sign=sign, xi_sweep=xi_sweep),
    )


def test_storage_forward_release():
    result = run_storage(_fast_storage("forward"))
    m = result.metrics
    assert m["release_direction"] == "forward"
    assert m["release_velocity"] == pytest.approx(2.0, rel=0.08)
    assert m["incident_velocity"] == pytest.approx(2.0)
    assert 0.0 < m["efficiency"] < 1.0


def test_storage_reversed_release():
    result = run_storage(_fast_storage("reversed"))
    m = result.metrics
    assert m["release_direction"] == "reversed"
    assert m["release_velocity"] < 0


def test_storage_sweep_table():
    result = run_storage(_fast_storage("forward", xi_sweep=(0.4, 0.8)))
    header, rows = result.table
    assert header == ("xi", "efficiency", "shape_fidelity", "release_velocity")
    assert rows.shape == (2, 4)
    assert rows[1, 1] > rows[0, 1]  # more boundary gain, more throughput
    assert result.metrics["sweep[0].xi"] == 0.4
    assert result.metrics["sweep[1].efficiency"] == rows[1, 1]


def test_capture_confinement_is_the_least_inside_share_over_half_t_prime_to_t_prime():
    cfg = _fast_storage()
    result = run_storage(cfg)
    tr, t_prime = result.trajectory, cfg.timing.t_prime
    rho2 = nh.normalized_profile(tr.amplitudes) ** 2
    inside = rho2[:, np.abs(tr.site_labels) <= cfg.storage.n_half + 2].sum(axis=1)
    window = (tr.times >= t_prime / 2) & (tr.times <= t_prime)  # both ends are samples
    want = float(np.min(inside[window]))
    assert result.metrics["capture_confinement_min"] == pytest.approx(want, rel=1e-12)
    assert want < 0.99 * float(np.min(inside[window][1:]))  # the first sample counts


def _storage_at(t_final, t_prime):
    return replace(_fast_storage(), timing=Timing(t_final=t_final, t_prime=t_prime))


@pytest.mark.parametrize("key, config", [
    # transport's velocity window [2, 0.95 t_final]: its fifth sample is 3
    pytest.param("timing.t_final",
                 lambda x: replace(FAST_GAUSS, timing=Timing(t_final=(3.0 - x) / 0.95)),
                 id="velocity-upper-end"),
    # storage's velocity window [t_prime + 5, t_final - 2] = [17 + x, 18] needs the sample 17
    pytest.param("timing.t_final", lambda x: _storage_at(20.0, 12.0 + x), id="velocity-lower-end"),
    # the capture window [t_prime/2, t_prime] holds the sample 0 or none
    pytest.param("timing.t_prime", lambda x: _storage_at(24.0, 2.0 * x), id="capture-lower-end"),
    # the capture window [t_prime/2, t_prime] holds the sample 0.25 or none
    pytest.param("timing.t_prime", lambda x: _storage_at(24.0, 0.25 - x), id="capture-upper-end"),
])
def test_a_window_selects_a_sample_within_time_eps_of_its_end(key, config):
    # x is how far outside the window's end the sample lies
    resolve_config(config(0.5 * _TIME_EPS))
    with pytest.raises(ConfigError, match=rf"^{key}: (velocity|capture) window .* (selects 4 "
                                          rf"samples; need >= 5|holds no sample)"):
        resolve_config(config(2.0 * _TIME_EPS))


def test_preset_label_with_a_newline_rejected_naming_the_key():
    with pytest.raises(ConfigError, match=r"^preset: "):
        resolve_config(replace(PRESETS["fig2"], preset="a\nb"))


def test_storage_quench_switch_matches_capture_stage():
    cfg = resolve_config(_fast_storage("forward"))
    result = run_storage(cfg)
    tr = result.trajectory
    k = tr.index_at_time(cfg.timing.t_prime)
    assert tr.times[k] == cfg.timing.t_prime
    from nhlattice.protocols import _chain_spec, _storage_schedule, _storage_specs

    schedule = _storage_schedule(cfg, _storage_specs(cfg, _chain_spec(cfg), cfg.storage.xi))
    capture_only = nh.evolve_exact(
        schedule[0][1],
        nh.make_excitation(cfg.excitation, tr.site_labels),
        cfg.timing.t_prime, cfg.timing.sample_dt)
    assert np.array_equal(tr.amplitudes[k], capture_only.amplitudes[-1])


# ---------------------------------------------------------------- reduction


def test_reduction_loss_variant_converges():
    cfg = ExperimentConfig(
        experiment="reduction_check", beta=0.4, gamma=0.8, phi=math.pi / 2,
        excitation=ExcitationSpec(kind="gaussian", n0=-12, w0=3.0, q0=-math.pi / 2),
        timing=Timing(t_final=10.0),
        reduction=ReductionParams(j_values=(4.0, 8.0), aux_sign="loss"),
    )
    result = run_reduction_check(cfg)
    header, rows = result.table
    assert header == ("j", "u_b_abs", "adiabaticity_ratio", "profile_error", "warned")
    errors = rows[:, 3]
    assert errors[1] < errors[0] < 0.05
    assert result.metrics["monotone_decreasing"] is True
    assert result.metrics["reduction[0].warned"] is False


def test_reduction_gain_variant_blows_up():
    cfg = ExperimentConfig(
        experiment="reduction_check", beta=0.4, gamma=0.8, phi=math.pi / 2,
        excitation=ExcitationSpec(kind="gaussian", n0=-12, w0=3.0, q0=-math.pi / 2),
        timing=Timing(t_final=10.0),
        reduction=ReductionParams(j_values=(4.0,), aux_sign="gain"),
    )
    with pytest.raises(GainRunawayError):
        run_reduction_check(cfg)


def test_reduction_zero_b_init_also_converges():
    cfg = ExperimentConfig(
        experiment="reduction_check", beta=0.4, gamma=0.8, phi=math.pi / 2,
        excitation=ExcitationSpec(kind="gaussian", n0=-12, w0=3.0, q0=-math.pi / 2),
        timing=Timing(t_final=10.0),
        reduction=ReductionParams(j_values=(4.0, 8.0), aux_sign="loss", b_init="zero"),
    )
    result = run_reduction_check(cfg)
    errors = result.table[1][:, 3]
    assert errors[1] < errors[0] < 0.1


def test_transport_fractions_partition_unity():
    result = run_transport(replace(FAST_GAUSS, defects=(nh.DefectSpec(-5, 2.0, 0.0),)))
    m = result.metrics
    total = m["reflection_fraction"] + m["transmission_fraction"] + m["interior_fraction"]
    assert total == pytest.approx(1.0, abs=1e-10)


def test_reduction_hermitian_limit_real_detuning():
    # real far-detuned auxiliary level: reciprocal effective hoppings, and
    # the full model tracks the reduced chain built from j1/j2/u_eff
    j, u_b, m = 2.0, 60.0, 81
    saw = nh.SawtoothSpec(kappa=1.0, j=j, theta=0.0, gamma_a=0.0, u_b=u_b, n_cells=m)
    j1, j2, u_eff = reference.reduced_chain(saw)
    assert j1 == j2
    labels = np.arange(m) - m // 2
    eff = reference.operator(scipy.sparse.diags_array(
        (np.full(m - 1, j2), np.full(m, u_eff), np.full(m - 1, j1)),
        offsets=(-1, 0, 1), format="csr"), labels)
    exc = nh.make_excitation(
        ExcitationSpec(kind="gaussian", n0=0, w0=4.0, q0=-math.pi / 2), labels)
    eff_traj = nh.evolve_exact(eff, exc, 8.0, 0.5)

    h_full = nh.build_sawtooth_hamiltonian(saw)
    psi0 = np.zeros(2 * m, dtype=complex)
    psi0[0::2] = exc.amplitudes
    psi0[1::2] = -j * (np.concatenate([exc.amplitudes[1:], [0.0]]) + exc.amplitudes) / u_b
    full_traj = nh.evolve_exact(h_full, nh.StateVector(psi0, h_full.site_labels), 8.0, 0.5)
    a_amps = full_traj.amplitudes[:, 0::2]
    rho_a = np.abs(a_amps) / np.sqrt(np.sum(np.abs(a_amps) ** 2, axis=1))[:, None]
    rho_eff = nh.normalized_profile(eff_traj.amplitudes)
    assert float(np.max(np.abs(rho_a - rho_eff))) < 0.02


def test_reduction_requires_positive_beta():
    cfg = ExperimentConfig(
        experiment="reduction_check", beta=0.0, gamma=0.8,
        excitation=ExcitationSpec(kind="gaussian", n0=0, w0=3.0, q0=-math.pi / 2),
    )
    with pytest.raises(ConfigError, match="beta"):
        resolve_config(cfg)


# ---------------------------------------------------------------- cached presets


def test_fig3d_beam_stripe_slope(preset_results):
    result, _ = preset_results("fig3d")
    tr = result.trajectory
    rho = nh.normalized_profile(tr.amplitudes)
    mask = tr.times >= 10.0
    brightest = tr.site_labels[np.argmax(rho[mask], axis=1)]
    slope = np.polyfit(tr.times[mask], brightest, 1)[0]
    assert slope == pytest.approx(2.0, rel=0.05)


def test_storage_baseline_offset_leaves_weak_release(preset_results):
    # at xi = beta the boundary gain only offsets the per-bounce attenuation;
    # finite packet width still costs most of the intensity
    result, _ = preset_results("fig6a")
    assert result.metrics["efficiency"] < 0.5


def test_storage_confinement_invariant(preset_results):
    result, _ = preset_results("fig6a")
    tr = result.trajectory
    rho2 = nh.normalized_profile(tr.amplitudes) ** 2
    inside = np.abs(tr.site_labels) <= 5  # n_half + 2
    frac_inside = rho2[:, inside].sum(axis=1)
    cents = nh.centroid_series(tr)
    arrival = tr.times[int(np.argmax(cents >= 0.0))]  # packet centered in the core
    window = (tr.times >= arrival) & (tr.times <= 30.0)
    assert float(np.min(frac_inside[window])) > 0.9


def test_norm_final_recorded(preset_results):
    result, _ = preset_results("fig4d")
    assert 0.0 < result.metrics["norm_final"] <= 1.0
