import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhlattice import (
    ChainSpec,
    DefectSpec,
    ExcitationSpec,
    ExperimentConfig,
    StateVector,
    StorageParams,
    Timing,
    Trajectory,
    build_chain_hamiltonian,
    centroid,
    centroid_series,
    centroid_velocity,
    evolve_exact,
    fit_gaussian,
    group_velocity,
    make_excitation,
    measure_reflection,
    normalized_profile,
    preset_config,
    region_fractions,
    resolve_config,
    run_experiment,
    storage_efficiency,
)
from nhlattice import analysis

import reference

NH = dict(kappa=1.0, beta=0.4, gamma=0.8)
FIG4_PACKET = ExcitationSpec(kind="gaussian", n0=-30, w0=5.0, q0=-math.pi / 2)


# ---------------------------------------------------------------- excitations


def test_single_site_excitation():
    labels = np.arange(-5, 6)
    c = make_excitation(ExcitationSpec(kind="single_site", n0=0), labels)
    expected = np.zeros(11)
    expected[5] = 1.0
    assert np.array_equal(c.amplitudes, expected)


def test_gaussian_excitation_normalized_and_shaped():
    labels = np.arange(-80, 21)
    c = make_excitation(FIG4_PACKET, labels)
    assert c.norm == pytest.approx(1.0, abs=1e-12)
    # envelope follows exp(-(n-n0)^2/w0^2) with carrier q0*n
    mags = np.abs(c.amplitudes)
    envelope = np.exp(-((labels + 30.0) / 5.0) ** 2)
    envelope /= math.sqrt(np.sum(envelope**2))
    assert np.allclose(mags, envelope, atol=1e-12)


def test_gaussian_zero_carrier_real_symmetric():
    labels = np.arange(-40, 41)
    c = make_excitation(ExcitationSpec(kind="gaussian", n0=0, w0=5.0, q0=0.0), labels)
    assert np.allclose(c.amplitudes.imag, 0.0)
    assert np.all(c.amplitudes.real > 0)
    assert np.allclose(c.amplitudes, c.amplitudes[::-1])


def test_gaussian_unnormalized_matches_formula():
    labels = np.arange(-60, 11)
    spec = ExcitationSpec(kind="gaussian", n0=-30, w0=5.0, q0=-math.pi / 2, normalize=False)
    c = make_excitation(spec, labels)
    direct = np.exp(-((labels + 30.0) / 5.0) ** 2 + 1j * spec.q0 * labels)
    assert np.array_equal(c.amplitudes, direct)


def test_excitation_clearance_warning():
    labels = np.arange(-10, 11)
    with pytest.warns(UserWarning, match="clearance"):
        make_excitation(ExcitationSpec(kind="gaussian", n0=0, w0=5.0, q0=0.0), labels)


def test_excitation_out_of_range():
    with pytest.raises(ValueError):
        make_excitation(ExcitationSpec(kind="single_site", n0=99), np.arange(-5, 6))


# ---------------------------------------------------------------- centroid


def test_centroid_delta():
    labels = np.arange(0, 11)
    amps = np.zeros(11, dtype=complex)
    amps[7] = 2.0j
    assert centroid(StateVector(amps, labels)) == pytest.approx(7.0)


def test_centroid_symmetric_gaussian():
    labels = np.arange(-80, 21)
    c = make_excitation(ExcitationSpec(kind="gaussian", n0=-30, w0=5.0, q0=1.0), labels)
    assert centroid(c) == pytest.approx(-30.0, abs=1e-6)


def test_centroid_two_site_balance():
    c = StateVector(np.array([1.0, 0.0, 1.0j]), np.array([-1, 0, 1]))
    assert centroid(c) == pytest.approx(0.0)


@given(st.integers(0, 9))
def test_centroid_within_label_range(seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=13) + 1j * rng.normal(size=13)
    labels = np.arange(-6, 7)
    value = centroid(StateVector(amps, labels))
    assert labels[0] <= value <= labels[-1]


def test_centroid_velocity_stationary():
    h = build_chain_hamiltonian(ChainSpec(kappa=1, beta=0, gamma=0, phi=0, n_sites=9))
    zero_h = reference.operator(0 * reference.csr(h), h.site_labels)
    c0 = make_excitation(ExcitationSpec(kind="single_site", n0=4), h.site_labels)
    traj = evolve_exact(zero_h, c0, 3.0, 0.5)
    assert centroid_velocity(traj, (0.0, 3.0)) == pytest.approx(0.0, abs=1e-6)


def test_centroid_velocity_needs_enough_samples():
    h = build_chain_hamiltonian(ChainSpec(kappa=1, beta=0, gamma=0, phi=0, n_sites=9))
    c0 = make_excitation(ExcitationSpec(kind="single_site", n0=4), h.site_labels)
    traj = evolve_exact(h, c0, 3.0, 0.5)
    with pytest.raises(ValueError, match="need >= 5"):
        centroid_velocity(traj, (0.0, 1.0))


def _gaussian_run(phi, beta, gamma, defects=(), t_final=15.0):
    spec = ChainSpec(kappa=1.0, beta=beta, gamma=gamma, phi=phi, n_sites=133,
                     index_origin=-91, defects=defects)
    h = build_chain_hamiltonian(spec)
    exc = ExcitationSpec(kind="gaussian", n0=-25, w0=5.0, q0=-math.pi / 2)
    c0 = make_excitation(exc, spec.site_labels)
    return evolve_exact(h, c0, t_final, 0.25)


def test_packet_velocity_tracks_group_velocity():
    traj = _gaussian_run(math.pi / 2, 0.4, 0.8)
    v = centroid_velocity(traj, (2.0, 14.0))
    assert v == pytest.approx(group_velocity(1.0, -math.pi / 2), rel=0.05)


def test_packet_velocity_mirror_run():
    spec = ChainSpec(kappa=1.0, beta=0.4, gamma=0.8, phi=-math.pi / 2, n_sites=133,
                     index_origin=-41)
    h = build_chain_hamiltonian(spec)
    exc = ExcitationSpec(kind="gaussian", n0=25, w0=5.0, q0=math.pi / 2)
    traj = evolve_exact(h, make_excitation(exc, spec.site_labels), 15.0, 0.25)
    v = centroid_velocity(traj, (2.0, 14.0))
    assert v == pytest.approx(-2.0, rel=0.05)


# ---------------------------------------------------------------- regions


def test_region_fraction_full_range():
    labels = np.arange(-4, 5)
    rng = np.random.default_rng(0)
    c = StateVector(rng.normal(size=9) + 1j * rng.normal(size=9), labels)
    assert sum(region_fractions(c, 0, 0)) == pytest.approx(1.0)


def test_region_fraction_disjoint_delta():
    labels = np.arange(-4, 12)
    amps = np.zeros(16, dtype=complex)
    amps[4] = 1.0
    c = StateVector(amps, labels)
    assert region_fractions(c, 5, 5) == (1.0, 0.0, 0.0)  # site 0 lies 5 below the barrier
    assert region_fractions(c, -3, -3) == (0.0, 1.0, 0.0)
    assert region_fractions(c, -2, 2) == (0.0, 0.0, 1.0)


def test_region_fraction_half_split():
    # packet symmetric about the midpoint between sites -1 and 0, as is the barrier [-1, 0]
    labels = np.arange(-60, 60)
    amps = np.exp(-(((labels + 0.5) / 6.0) ** 2) + 0.4j * labels)
    c = StateVector(amps, labels)
    reflected, transmitted, interior = region_fractions(c, -1, 0)
    assert reflected == pytest.approx(transmitted, rel=1e-12)
    assert interior > 0.0
    assert reflected == pytest.approx(0.5 * (1.0 - interior), rel=1e-12)


def test_fraction_partition_sums_to_one():
    labels = np.arange(-20, 21)
    rng = np.random.default_rng(5)
    c = StateVector(rng.normal(size=41) + 1j * rng.normal(size=41), labels)
    assert sum(region_fractions(c, -5, 5)) == pytest.approx(1.0, abs=1e-10)


def _fractions_by_loop(state, barrier_lo, barrier_hi):
    """Reflected, transmitted and interior shares, one site at a time, 3 sites of margin."""
    weights = [abs(complex(a)) ** 2 for a in state.amplitudes.tolist()]
    total = math.fsum(weights)
    parts = ([], [], [])
    for n, weight in zip(state.site_labels.tolist(), weights):
        side = 0 if n <= barrier_lo - 3 else 1 if n >= barrier_hi + 3 else 2
        parts[side].append(weight / total)
    return tuple(math.fsum(part) for part in parts)


@pytest.mark.parametrize("barrier", [
    (-20, -20), (-19, -19), (-18, -18), (-17, -17),  # lower end: empty and one-site sides
    (20, 20), (19, 19), (17, 17),  # upper end
    (0, 0), (-1, 0),  # middle
    (-5, 5), (10, 20),  # a defect pair
], ids=str)
def test_region_fractions_match_a_per_site_loop(barrier):
    labels = np.arange(-20, 21)
    rng = np.random.default_rng(17)
    for scale in (1.0, 1e-150, 3e120):
        c = StateVector(scale * (rng.normal(size=41) + 1j * rng.normal(size=41)), labels)
        got = region_fractions(c, *barrier)
        want = _fractions_by_loop(c, *barrier)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        assert all(isinstance(part, float) for part in got)


def test_normalized_profile_rows_equal_one_state_calls_bitwise():
    rng = np.random.default_rng(23)
    scales = 10.0 ** rng.uniform(-150, 150, size=(7, 1))
    amps = scales * (rng.normal(size=(7, 33)) + 1j * rng.normal(size=(7, 33)))
    rho = normalized_profile(amps)
    assert rho.shape == amps.shape
    for k in range(len(amps)):
        assert rho[k].tobytes() == normalized_profile(amps[k]).tobytes()


def test_normalized_profile_of_a_strided_slice_equals_its_contiguous_copy():
    rng = np.random.default_rng(29)
    amps = rng.normal(size=(9, 62)) + 1j * rng.normal(size=(9, 62))
    for strided in (amps[:, 0::2], amps[:, 1::2], amps[::2, ::-3], amps[4, 0::2]):
        assert not strided.flags.c_contiguous
        copy = np.ascontiguousarray(strided)
        assert normalized_profile(strided).tobytes() == normalized_profile(copy).tobytes()


def test_normalized_profile_where_the_squares_leave_the_normal_range():
    # squares that overflow, underflow to 0, or turn subnormal and lose digits;
    # the rows in between keep the plain arithmetic
    rows = np.array([[1e200, 1e199], [1e-170, 1e-171], [1e-160, 3e-160], [1.0, 3.0]])
    want = [[10.0 / math.sqrt(101.0), 1.0 / math.sqrt(101.0)]] * 2 + [
        [1.0 / math.sqrt(10.0), 3.0 / math.sqrt(10.0)]] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = normalized_profile(rows)
        for k, row in enumerate(rows):
            assert rho[k].tobytes() == normalized_profile(row).tobytes()
    np.testing.assert_allclose(rho, want, rtol=4e-16, atol=0.0)
    assert rho[3].tobytes() == (rows[3] / math.sqrt(10.0)).tobytes()
    with pytest.raises(ValueError, match="zero-norm"):
        normalized_profile(np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_centroid_and_fractions_where_the_squares_leave_the_normal_range():
    # the rows of the normalized_profile test above, each read as the same state at unit
    # scale; a row of squares that overflow, underflow to 0 or turn subnormal included
    rows = np.array([[1e200, 1e199], [1e-170, 1e-171], [1e-160, 3e-160], [1.0, 3.0]])
    unit = np.array([[10.0, 1.0]] * 2 + [[1.0, 3.0]] * 2)
    labels = np.array([-3, 4])  # each side of a barrier at 0, clear of its margin
    traj = Trajectory(times=np.arange(4.0), amplitudes=rows.astype(complex), site_labels=labels,
                      norm_series=np.ones(4), method_tag="exact")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = centroid_series(traj)
        for k, (row, want) in enumerate(zip(rows, unit)):
            weights = want**2 / np.sum(want**2)
            c = StateVector(row, labels)
            assert centroid(c) == pytest.approx(float(labels @ weights), rel=4e-16, abs=0.0)
            assert series[k] == pytest.approx(float(labels @ weights), rel=4e-16, abs=0.0)
            assert region_fractions(c, 0, 0) == pytest.approx((*weights, 0.0), rel=4e-16, abs=0.0)
    zero = StateVector(np.zeros(2), labels)
    for observe in (centroid, lambda c: region_fractions(c, 0, 0)):
        with pytest.raises(ValueError, match="zero-norm"):
            observe(zero)


# ---------------------------------------------------------------- reflection


def test_reflection_defect_free_hermitian_passage():
    traj = _gaussian_run(0.0, 0.0, 0.0)
    # packet has fully crossed the barrier position by the end of the run
    assert measure_reflection(traj, -5, 14.0) < 0.01


def test_reflection_hermitian_defects_substantial_vs_nonhermitian():
    defects = (DefectSpec(-5, 2.0, 0.0), DefectSpec(5, 2.0, 0.0))
    hermitian = _gaussian_run(0.0, 0.0, 0.0, defects=defects, t_final=22.0)
    nonherm = _gaussian_run(math.pi / 2, 0.4, 0.8, defects=defects, t_final=22.0)
    r_h = measure_reflection(hermitian, -5, 21.0)
    r_n = measure_reflection(nonherm, -5, 21.0)
    assert r_h > 0.1
    assert 0.0 <= r_n <= 1.0
    assert r_h / max(r_n, 1e-300) > 10.0


def test_reflection_bounds_and_time_window():
    traj = _gaussian_run(0.0, 0.0, 0.0, t_final=5.0)
    value = measure_reflection(traj, 0, 5.0)
    assert 0.0 <= value <= 1.0
    with pytest.raises(ValueError):
        measure_reflection(traj, 0, 99.0)


# ---------------------------------------------------------------- gaussian fit


def test_fit_recovers_exact_gaussian():
    labels = np.arange(-60, 61)
    c = make_excitation(ExcitationSpec(kind="gaussian", n0=7, w0=5.0, q0=-1.0), labels)
    fit = fit_gaussian(c)
    assert not fit.degenerate
    assert fit.width == pytest.approx(5.0, abs=1e-3)
    assert fit.center == pytest.approx(7.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(float(np.max(np.abs(c.amplitudes))), rel=1e-6)
    assert fit.fidelity > 0.999


def test_fit_delta_is_degenerate():
    amps = np.zeros(41, dtype=complex)
    amps[20] = 1.0
    fit = fit_gaussian(StateVector(amps, np.arange(-20, 21)))
    assert fit.degenerate
    assert fit.fidelity == 0.0


def test_fit_flat_profile_degenerate():
    c = StateVector(np.full(31, 0.3 + 0.1j), np.arange(31))
    fit = fit_gaussian(c)
    assert fit.degenerate
    assert fit.fidelity == 0.0


def test_fit_with_additive_noise():
    labels = np.arange(-60, 61).astype(float)
    rng = np.random.default_rng(42)
    clean = np.exp(-((labels - 3.0) / 6.0) ** 2)
    noisy = clean + 0.01 * rng.normal(size=len(labels))
    c = StateVector(np.abs(noisy).astype(complex), np.arange(-60, 61))
    fit = fit_gaussian(c)
    assert fit.width == pytest.approx(6.0, rel=0.05)
    assert 0.0 <= fit.fidelity <= 1.0


@given(w0=st.floats(2.0, 9.5), n0=st.integers(-20, 20))
@settings(max_examples=15)
def test_fit_fidelity_bounds(w0, n0):
    labels = np.arange(-60, 61)
    c = make_excitation(ExcitationSpec(kind="gaussian", n0=n0, w0=w0, q0=0.7), labels)
    fit = fit_gaussian(c)
    assert 0.0 <= fit.fidelity <= 1.0


def test_fit_fewer_than_four_sites_degenerate():
    fit = fit_gaussian(StateVector(np.array([0.2, 1.0, 0.3], dtype=complex), np.arange(5, 8)))
    assert fit == analysis.GaussianFit(6.0, 0.0, 0.0, 0.0, True)


def test_fit_sub_site_width_degenerate():
    # a Gaussian half a site wide, centred between sites: the fit finds it, but
    # the grid cannot resolve it
    labels = np.arange(-20, 21)
    fit = fit_gaussian(StateVector(np.exp(-((labels - 0.3) / 0.5) ** 2).astype(complex), labels))
    assert fit.degenerate
    assert fit.fidelity == 0.0
    assert fit.width == pytest.approx(0.5, rel=1e-6)
    assert fit.center == pytest.approx(0.3, rel=1e-6)


def _noisy_gaussian():
    labels = np.arange(-60, 61)
    rng = np.random.default_rng(7)
    values = np.abs(np.exp(-((labels - 3.4) / 6.0) ** 2) + 0.01 * rng.normal(size=labels.size))
    return labels, values


@pytest.mark.parametrize("scale", [1e-30, 1e30])
def test_fit_does_not_depend_on_the_scale(scale):
    labels, values = _noisy_gaussian()
    fit = fit_gaussian(StateVector(values.astype(complex), labels))
    scaled = fit_gaussian(StateVector((scale * values).astype(complex), labels))
    assert not scaled.degenerate
    assert scaled.amplitude == pytest.approx(scale * fit.amplitude, rel=1e-9)
    for name in ("center", "width", "fidelity"):
        assert getattr(scaled, name) == pytest.approx(getattr(fit, name), rel=1e-9), name


def test_fit_iteration_cap_reached_degenerate(monkeypatch):
    labels, values = _noisy_gaussian()
    c = StateVector(values.astype(complex), labels)
    assert not fit_gaussian(c).degenerate
    monkeypatch.setattr(analysis, "FIT_MAX_ITERATIONS", 2)
    peak = float(labels[np.argmax(values)])
    assert fit_gaussian(c) == analysis.GaussianFit(peak, 0.0, 0.0, 0.0, True)


def _final_state(config):
    traj = run_experiment(config).trajectory
    return traj.state(len(traj.times) - 1)


def _fidelity_against_curve_fit(state, rel):
    fit = fit_gaussian(state)
    (_, _, width), fidelity = reference.curve_fit_gaussian(state.site_labels,
                                                           np.abs(state.amplitudes))
    assert not fit.degenerate and width >= 1.0
    assert fit.fidelity == pytest.approx(fidelity, rel=rel)


@pytest.mark.parametrize("preset,xi", [("fig6a", None), ("fig6b", None),
                                       ("fig7", 0.4), ("fig7", 0.6), ("fig7", 0.8)])
def test_fit_matches_curve_fit_on_storage_presets(preset, xi):
    config = resolve_config(preset_config(preset))
    if xi is not None:  # the one sweep member, on the sweep's chain
        config = replace(config, storage=replace(config.storage, xi=xi, xi_sweep=()))
    _fidelity_against_curve_fit(_final_state(config), rel=1e-10)


def test_fit_matches_curve_fit_on_leaking_store():
    # the packet starts in the core with q0 = pi/2 and leaks through the lower
    # boundary: what is released is not one Gaussian
    config = ExperimentConfig(
        experiment="storage", beta=0.4, gamma=0.8, phi=math.pi / 2,
        excitation=ExcitationSpec(kind="gaussian", n0=0, w0=5.0, q0=math.pi / 2),
        timing=Timing(t_final=60.0, t_prime=30.0), storage=StorageParams(n_half=3))
    _fidelity_against_curve_fit(_final_state(config), rel=1e-7)


@given(n_sites=st.integers(4, 200), center=st.floats(-0.1, 1.1), width=st.floats(0.3, 2.0),
       amp=st.floats(0.01, 10.0), extra=st.sampled_from(["none", "noise", "hump"]),
       seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=60)
def test_fit_stays_in_its_box_and_reaches_curve_fit(n_sites, center, width, amp, extra, seed):
    """center and width are in units of the chain's span; curve_fit is the
    reference for one hump, where it resolves a width of a site or more."""
    labels = np.arange(n_sites) - n_sites // 2
    span = float(n_sites - 1)
    x = (labels - labels[0]) / span
    values = np.exp(-((x - center) / width) ** 2)
    rng = np.random.default_rng(seed)
    if extra == "noise":
        values = np.abs(values + rng.uniform(0.0, 0.1) * rng.normal(size=n_sites))
    elif extra == "hump":
        hump_center, hump_width = rng.uniform(), rng.uniform(0.01, 1.0)
        values = values + rng.uniform(0.0, 1.0) * np.exp(-((x - hump_center) / hump_width) ** 2)
    values = amp * values
    if float(np.ptp(values)) == 0.0:
        return
    fit = fit_gaussian(StateVector(values.astype(complex), labels))
    assert 0.0 <= fit.fidelity <= 1.0
    if fit.width > 0.0:  # a fit stopped by the iteration cap reports no parameters
        assert fit.amplitude >= 0.0
        assert labels[0] - 1.0 <= fit.center <= labels[-1] + 1.0
        assert 1e-6 <= fit.width <= 4.0 * span
    ref = reference.curve_fit_gaussian(labels, values)
    if extra == "hump" or ref is None or ref[0][2] < 1.1:
        return  # two humps can hold two local fits; a sub-site width has no fidelity
    assert not fit.degenerate
    # curve_fit stops once its sum of squares changes by less than 1e-8 of
    # itself, so it can stop short of the minimum, never below it
    assert ref[1] - 1e-12 <= fit.fidelity <= ref[1] + 1e-6


# ---------------------------------------------------------------- efficiency


def _hermitian_traj():
    spec = ChainSpec(kappa=1.0, beta=0.0, gamma=0.0, phi=0.0, n_sites=81, index_origin=-40)
    h = build_chain_hamiltonian(spec)
    c0 = make_excitation(ExcitationSpec(kind="gaussian", n0=0, w0=4.0, q0=0.3), spec.site_labels)
    return evolve_exact(h, c0, 4.0, 0.5)


def test_efficiency_identity_case():
    traj = _hermitian_traj()
    full = (int(traj.site_labels[0]), int(traj.site_labels[-1]))
    assert storage_efficiency(traj, 0.0, 0.0, full, full) == pytest.approx(1.0)
    # lossless evolution keeps the full-range intensity
    assert storage_efficiency(traj, 0.0, 4.0, full, full) == pytest.approx(1.0, abs=1e-10)


def test_efficiency_phase_invariance_exact():
    traj = _hermitian_traj()
    full = (int(traj.site_labels[0]), int(traj.site_labels[-1]))
    base = storage_efficiency(traj, 0.0, 4.0, full, (2, 30))
    rotated = type(traj)(times=traj.times, amplitudes=1j * traj.amplitudes,
                         site_labels=traj.site_labels, norm_series=traj.norm_series,
                         method_tag=traj.method_tag)
    assert storage_efficiency(rotated, 0.0, 4.0, full, (2, 30)) == base


def test_efficiency_scaling_behaviour():
    traj = _hermitian_traj()
    full = (int(traj.site_labels[0]), int(traj.site_labels[-1]))
    out = (2, 30)
    base = storage_efficiency(traj, 0.0, 4.0, full, out)
    scaled = type(traj)(times=traj.times, amplitudes=3.0 * traj.amplitudes,
                        site_labels=traj.site_labels,
                        norm_series=9.0 * traj.norm_series,
                        method_tag=traj.method_tag)
    # the ratio is scale-free while the raw out-region intensity is quadratic
    assert storage_efficiency(scaled, 0.0, 4.0, full, out) == pytest.approx(base, rel=1e-12)
    raw_base = np.sum(np.abs(traj.amplitudes[-1]) ** 2)
    raw_scaled = np.sum(np.abs(scaled.amplitudes[-1]) ** 2)
    assert raw_scaled == pytest.approx(9.0 * raw_base, rel=1e-12)


def test_efficiency_zero_input_rejected():
    spec = ChainSpec(kappa=1.0, beta=0.0, gamma=0.0, phi=0.0, n_sites=21, index_origin=-10)
    h = build_chain_hamiltonian(spec)
    c0 = make_excitation(ExcitationSpec(kind="single_site", n0=0), spec.site_labels)
    traj = evolve_exact(h, c0, 1.0, 0.5)
    with pytest.raises(ValueError):
        # the initial state is exactly zero away from the kick site
        storage_efficiency(traj, 0.0, 1.0, (-10, -9), (0, 1))
