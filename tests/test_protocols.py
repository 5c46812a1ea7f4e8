import math
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
from nhlattice.protocols import EDGE_FRACTION_LIMIT

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


def test_preset_label_with_a_newline_rejected_naming_the_key():
    with pytest.raises(ConfigError, match=r"^preset: "):
        resolve_config(replace(PRESETS["fig2"], preset="a\nb"))


def test_storage_quench_switch_matches_capture_stage():
    cfg = resolve_config(_fast_storage("forward"))
    result = run_storage(cfg)
    tr = result.trajectory
    k = tr.index_at_time(cfg.timing.t_prime)
    assert tr.times[k] == cfg.timing.t_prime
    from nhlattice.protocols import _storage_schedule, _storage_specs

    schedule = _storage_schedule(cfg, _storage_specs(cfg, cfg.storage.xi))
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
    red = nh.adiabatic_reduce(saw)
    assert red.j1 == red.j2
    labels = np.arange(m) - m // 2
    eff = reference.operator(scipy.sparse.diags_array(
        (np.full(m - 1, red.j2), np.full(m, red.u_eff), np.full(m - 1, red.j1)),
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
