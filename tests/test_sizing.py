"""Auto sizing by the band's reach (_sizing.reach, _sizing.auto_extent).

Each end of an auto-sized chain sits past the sites where the normalized
intensity can exceed ``SIZE_INTENSITY_FLOOR`` (plus a pad), or, where the
ballistic front caps that reach, past the sites where it can exceed half of
``EDGE_FRACTION_LIMIT``.  Non-reciprocal chains are non-normal, so an open
end is not assumed harmless: these tests check the reach against the
closed-form propagator of the infinite chain, and run auto-sized chains
again on wider ones: every preset at the extent the symmetric ballistic rule
gave it, n0 +/- (4 w0 + 2 kappa t_final) plus the same pad, and further
configs with strong loss, long runs and far defects on chains wider still.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from nhlattice import (DefectSpec, ExcitationSpec, ExperimentConfig, StorageParams, Timing,
                       normalized_profile, preset_config, run_experiment)
from nhlattice._sizing import EDGE_FRACTION_LIMIT, SIZE_INTENSITY_FLOOR, reach

import reference

#: [lo, hi] of each preset with a chain under the symmetric ballistic rule
BALLISTIC_EXTENTS = {
    **{f"fig3{panel}": (-150, 150) for panel in "abcdef"},
    **{f"fig4{panel}": (-126, 66) for panel in "abcd"},
    "fig6a": (-186, 126),
    "fig6b": (-186, 126),
    "fig7": (-186, 126),
    "reduction": (-101, 51),
}

#: largest relative change of a preset's metric between the auto and the wider run
METRIC_REL_TOL = 1e-12

#: metrics compared only where the auto or the wider run reads at least this
METRIC_FLOORS = {
    # the light a one-way chain sends upstream (fig3d, fig3f: 1e-40 to 1e-31)
    # is a sum of intensities below SIZE_INTENSITY_FLOOR, the ones the rule
    # leaves out; the new upstream end reflects them
    "reflection_fraction": 1e-25,
    "interior_fraction": 1e-25,
}

#: the closed-form propagator's limit, as the benchmark's long_chain check
ORACLE_REL_TOL = 1e-8


def _auto_run(preset_results, name):
    """The preset with its extent left to auto sizing (fig3d fixes its own)."""
    config = replace(preset_config(name), chain_length=None, index_origin=None)
    if config == preset_config(name):
        return preset_results(name)[0]
    return run_experiment(config)


def _metric_close(new, wide, floor, tol, scale):
    if isinstance(wide, tuple):
        return len(new) == len(wide) and all(_metric_close(a, b, floor, tol, scale)
                                             for a, b in zip(new, wide))
    if isinstance(wide, float):
        return (max(abs(new), abs(wide)) < floor
                or abs(new - wide) <= tol * max(abs(wide), scale))
    return new == wide


def _check_against_wider_run(result, config, wide_lo, wide_hi, tol=METRIC_REL_TOL, scale=0.0,
                             lit=True, skip=()):
    """Run config again on [wide_lo, wide_hi]: outside the auto extent it stays
    below half the edge limit, every site it lights beyond SIZE_INTENSITY_FLOOR
    lies inside the auto extent (if ``lit``), and no metric moves."""
    lo, hi = result.config.index_origin, result.config.index_origin + result.config.chain_length - 1
    assert result.metrics["edge_fraction_ok"]
    wide_lo, wide_hi = min(wide_lo, lo), max(wide_hi, hi)
    if (lo, hi) == (wide_lo, wide_hi):  # a Hermitian kick keeps 2*kappa*t_final both ways
        assert result.config.beta == 0.0
        return
    wide = run_experiment(replace(config, chain_length=wide_hi - wide_lo + 1, index_origin=wide_lo))
    labels = wide.trajectory.site_labels
    peak = np.max(normalized_profile(wide.trajectory.amplitudes) ** 2, axis=0)
    outside = (labels < lo) | (labels > hi)
    assert float(np.max(peak[outside])) <= 0.5 * EDGE_FRACTION_LIMIT, (lo, hi)
    if lit:
        assert not np.any(peak[outside] > SIZE_INTENSITY_FLOOR), (lo, hi)
    assert result.metrics.keys() == wide.metrics.keys()
    for key, value in result.metrics.items():
        if key in ("config_hash", "edge_fraction_max", "edge_fraction_ok") or key in skip:
            continue  # these read the extent or its end sites; the quiet check bounds the ends
        assert _metric_close(value, wide.metrics[key], METRIC_FLOORS.get(key, 0.0), tol, scale), \
            (key, value, wide.metrics[key])


@pytest.mark.parametrize("name", sorted(BALLISTIC_EXTENTS))
def test_auto_extent_covers_every_lit_site_and_keeps_every_metric(preset_results, name):
    config = replace(preset_config(name), chain_length=None, index_origin=None)
    _check_against_wider_run(_auto_run(preset_results, name), config, *BALLISTIC_EXTENTS[name])


_KICK = ExcitationSpec(kind="single_site", n0=0)


def _kick(beta, phi, t_final, sample_dt=0.25, defects=()):
    return ExperimentConfig(experiment="transport_single_site", beta=beta, gamma=2.0 * beta,
                            phi=phi, excitation=_KICK, defects=defects,
                            timing=Timing(t_final=t_final, sample_dt=sample_dt))


def _storage(beta, q0, n0, t_prime, t_final, sign="forward", n_half=3):
    return ExperimentConfig(
        experiment="storage", beta=beta, gamma=2.0 * beta, phi=math.pi / 2,
        excitation=ExcitationSpec(kind="gaussian", n0=n0, w0=5.0, q0=q0),
        timing=Timing(t_final=t_final, t_prime=t_prime),
        storage=StorageParams(n_half=n_half, retrieval_phase_sign=sign))


def _random_configs(seed, count):
    """Seeded transport and storage runs: loss up to 3 kappa, runs up to 150/kappa,
    defects up to 60 sites upstream.  Packets sit near their band's lossless mode,
    since a normalized profile whose norm falls by 1e-8 is rounding noise, and
    stored ones move the way the leads capture (see EXTENT_BOUND_METRICS)."""
    rng = random.Random(seed)
    configs = {}
    for i in range(count):
        beta = rng.choice([rng.uniform(0.05, 0.5), rng.uniform(0.5, 3.0)])
        phi = rng.uniform(-math.pi, math.pi)
        t_final = min(rng.uniform(10.0, 150.0), 100.0 / beta)
        timing = Timing(t_final=t_final, sample_dt=t_final / 120.0)
        defects = (DefectSpec(-rng.randint(10, 60), 2.0, 0.0),) if rng.random() < 0.5 else ()
        if i % 3 == 2:
            config = _storage(beta, -rng.uniform(1.0, 2.0),
                              rng.choice([-30, 0]), 30.0, 30.0 + rng.uniform(20.0, 60.0),
                              rng.choice(["forward", "reversed"]))
        elif i % 3 == 1:
            config = ExperimentConfig(
                experiment="transport_gaussian", beta=beta, gamma=2.0 * beta, phi=phi,
                excitation=ExcitationSpec(kind="gaussian", n0=0, w0=rng.uniform(2.0, 8.0),
                                          q0=-phi + rng.uniform(-0.5, 0.5)),
                defects=defects, timing=timing)
        else:
            config = replace(_kick(beta, phi, t_final), defects=defects, timing=timing)
        configs[f"random {seed}.{i}"] = config
    return configs


#: runs no preset makes: strong loss, where the band's decay spreads light
#: diffusively (fig3b's chain at beta = 3), and at phi = pi/2 ahead of the
#: ballistic front; a long Hermitian kick, whose ends the edge reach sets;
#: a defect inside a Hermitian packet's envelope, whose reflection sets the
#: lower end; a packet stored from inside the core, which reaches the leads
#: only through the core's boundary sites, once with q0 = +pi/2, which leaks
#: through the lower boundary; and seeded random runs
OTHER_CONFIGS = {
    "fig3b, beta = 3": _kick(3.0, 0.0, 60.0),
    "fig3d, beta = 3": _kick(3.0, math.pi / 2, 60.0),
    "fig3d, defect at -10": replace(preset_config("fig3d"), chain_length=None, index_origin=None,
                                    defects=(DefectSpec(-10, 2.0, 0.0),)),
    "Hermitian kick, t_final = 300": _kick(0.0, 0.0, 300.0, sample_dt=2.0),
    "Hermitian packet, defect at 20": ExperimentConfig(
        experiment="transport_gaussian", excitation=ExcitationSpec(
            kind="gaussian", n0=0, w0=5.0, q0=-math.pi / 2),
        defects=(DefectSpec(20, 2.0, 0.0),), timing=Timing(t_final=80.0, sample_dt=0.5)),
    "fig6a, packet in the core": _storage(0.4, -math.pi / 2, 0, 30.0, 60.0),
    "fig6a, packet in the core, q0 = pi/2": _storage(0.4, math.pi / 2, 0, 30.0, 60.0),
    **_random_configs(7, 6),
}


#: metrics of a config that depend on its extent: a packet that leaked out of
#: the core leaves no Gaussian to fit, and the least-squares objective sums
#: over every site.  The fitted width is about 41.5, so on the auto extent the
#: model still holds 5.1e-3 at the lower end site, and the sites a wider chain
#: adds add residual (0.64021 against 0.63997, with or without the fit's box)
EXTENT_BOUND_METRICS = {"fig6a, packet in the core, q0 = pi/2": ("shape_fidelity",)}


@pytest.mark.parametrize("name", sorted(OTHER_CONFIGS))
def test_auto_extent_covers_other_configs(name):
    """The ends stay quiet; the lit sites are checked against reach itself
    below, since where a ballistic front caps the reach the pad covers its
    tail only to the edge limit."""
    config = OTHER_CONFIGS[name]
    result = run_experiment(config)
    lo = result.config.index_origin
    # the ends hold up to half the edge limit, which moves a metric by about
    # that much of its size, or of 1 for one that is 0 by symmetry
    _check_against_wider_run(result, config, lo - 60, lo + result.config.chain_length + 59,
                             tol=EDGE_FRACTION_LIMIT, scale=1.0, lit=False,
                             skip=EXTENT_BOUND_METRICS.get(name, ()))


#: (beta, phi, t_final, w0, q0): w0 None for a site kick; strong loss, long
#: runs, every quarter of phi, and packets on either side of the lossless mode
REACH_CASES = [
    (0.4, 0.0, 60.0, None, 0.0),  # fig3b
    (0.4, math.pi / 4, 60.0, None, 0.0),  # fig3c
    (0.4, math.pi / 2, 60.0, None, 0.0),  # fig3d
    (3.0, 0.0, 60.0, None, 0.0),  # fig3b at beta = 3: decay spreads light diffusively
    (3.0, math.pi / 2, 60.0, None, 0.0),  # and ahead of the ballistic front
    (1.0, -2.0, 90.0, None, 0.0),  # beta = kappa
    (0.0, 0.0, 300.0, None, 0.0),  # a long Hermitian kick
    (0.05, 3 * math.pi / 4, 150.0, None, 0.0),
    (0.0, 0.0, 30.0, 5.0, -math.pi / 2),  # fig4a
    (0.4, 0.0, 30.0, 5.0, -math.pi / 2),  # fig4b: the packet on lossy modes
    (0.4, math.pi / 2, 30.0, 5.0, -math.pi / 2),  # fig4d
    (2.0, 1.0, 40.0, 3.0, -0.6),
    (0.2, -2.5, 120.0, 8.0, 2.9),
]


@pytest.mark.parametrize("beta,phi,t_final,w0,q0", REACH_CASES)
def test_reach_bounds_the_closed_form_propagator(beta, phi, t_final, w0, q0):
    reaches = {sign: reach(1.0, beta, phi, t_final, sign, *(() if w0 is None else (w0, q0)))
               for sign in (-1, 1)}
    half = math.ceil(max(max(r) for r in reaches.values()) + 2.0 * t_final) + 40
    labels = np.arange(-half, half + 1)
    if w0 is None:
        c0 = (labels == 0).astype(complex)
    else:
        c0 = np.exp(-(labels / w0) ** 2 + 1j * q0 * labels)
    amplitudes = reference.bessel_chain(c0, np.linspace(0.0, t_final, 61), 1.0, beta,
                                        2.0 * beta, phi)
    weights = np.abs(amplitudes) ** 2
    norms = weights.sum(axis=1)
    # rounding noise, about 1e-15 a site, stays below SIZE_INTENSITY_FLOOR
    assert norms.min() >= 1e-9 * norms[0]
    peak = np.max(weights / norms[:, None], axis=0)
    for sign, (lit, edge) in reaches.items():
        assert float(np.max(peak[sign * labels > lit])) <= SIZE_INTENSITY_FLOOR
        assert float(np.max(peak[sign * labels > edge])) <= 0.5 * EDGE_FRACTION_LIMIT


#: whether the oracle models the upper end: a one-way chain keeps its
#: downstream end near where the ballistic rule put it, 30 sites past the
#: lossless mode's 2*kappa*t_final, and the kick's front tail reaches it
#: (4.9e-8 of a sample's largest amplitude for fig3c, 1e-4 for fig3d); one
#: image gives that end exactly, so only the moved ends are left out of the
#: oracle
OPEN_ABOVE = {"fig3b": False, "fig3c": True, "fig3d": True}


@pytest.mark.parametrize("name", sorted(OPEN_ABOVE))
def test_auto_extent_ends_do_not_act(preset_results, name):
    result = _auto_run(preset_results, name)
    cfg, traj = result.config, result.trajectory
    ref = reference.bessel_chain(traj.amplitudes[0], traj.times, cfg.kappa, cfg.beta, cfg.gamma,
                                 cfg.phi, open_above=OPEN_ABOVE[name])
    error = np.max(np.abs(traj.amplitudes - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert float(np.max(error)) <= ORACLE_REL_TOL
