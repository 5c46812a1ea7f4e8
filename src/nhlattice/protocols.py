"""Named experiment runners: dispersion scans, transport, storage,
and the adiabatic-elimination cross-check.

Every runner takes an ExperimentConfig, resolves all defaulted/automatic
fields (chain extent in particular), evolves, and returns an
ExperimentResult bundling the trajectory and/or scan table, a flat
metrics mapping, and a self-contained manifest whose re-run reproduces
the result bit-identically on the same platform.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import configio
from ._sizing import EDGE_FRACTION_LIMIT, _release_phase, auto_extent
from .analysis import (
    ExcitationSpec,
    centroid_series,
    centroid_velocity,
    fit_gaussian,
    make_excitation,
    normalized_profile,
    region_fractions,
    storage_efficiency,
    window_mask,
)
from .dynamics import (
    METHOD_TAG,
    StateVector,
    Trajectory,
    evolve_exact,
    evolve_schedule,
    sample_times,
)
from .lattice import (
    ChainSpec,
    DefectSpec,
    SandwichSpec,
    SawtoothSpec,
    _check_options,
    build_chain_hamiltonian,
    build_sandwich_hamiltonian,
    build_sawtooth_hamiltonian,
    dispersion,
    group_velocity,
    reduce_phase,
)

__all__ = [
    "Timing",
    "StorageParams",
    "ReductionParams",
    "DispersionParams",
    "ExperimentConfig",
    "ExperimentResult",
    "EXPERIMENTS",
    "PRESETS",
    "preset_config",
    "resolve_config",
    "resolve_specs",
    "run_experiment",
    "run_dispersion_scan",
    "run_transport",
    "run_storage",
    "run_reduction_check",
]

EXPERIMENTS = (
    "dispersion_scan",
    "transport_single_site",
    "transport_gaussian",
    "storage",
    "reduction_check",
)

#: a sawtooth whose adiabaticity_ratio exceeds this is flagged as unreliably reduced
ADIABATICITY_WARN_THRESHOLD = 0.2


@dataclass(frozen=True)
class Timing:
    t_final: float = 60.0
    sample_dt: float = 0.25
    t_prime: float = field(default=None, metadata={"none": "none"})


@dataclass(frozen=True)
class StorageParams:
    n_half: int = 3
    v_c: float = 1.0
    xi: float = 0.4
    retrieval_phase_sign: str = field(default="forward",
                                      metadata={"options": ("forward", "reversed")})
    xi_sweep: tuple[float, ...] = field(default=(), metadata={"none": "none"})

    def __post_init__(self):
        _check_options(self)
        object.__setattr__(self, "xi_sweep", tuple(float(x) for x in self.xi_sweep))


@dataclass(frozen=True)
class ReductionParams:
    """Parameters of the sawtooth-vs-chain comparison.

    aux_sign picks the auxiliary-level potential realizing the target
    chain: 'gain' is u_b = +i*j^2/beta with theta = phi/2 (the textbook
    working point, whose auxiliary band is amplified at rate |u_b| and
    makes the full model blow up); 'loss' is u_b = -i*j^2/beta with
    theta = phi/2 - pi/2 and gamma_a = gamma - 2*beta, which realizes the
    identical chain with a decaying auxiliary band and supports
    transport-scale comparisons.
    """

    j_values: tuple[float, ...] = (4.0, 8.0)
    theta: float = field(default=None, metadata={"phase": True, "none": "none"})
    b_init: str = field(default="slaved", metadata={"options": ("slaved", "zero")})
    aux_sign: str = field(default="gain", metadata={"options": ("gain", "loss")})

    def __post_init__(self):
        _check_options(self)
        object.__setattr__(self, "j_values", tuple(float(j) for j in self.j_values))
        _require(len(self.j_values) > 0, "j_values: needs at least one j")


@dataclass(frozen=True)
class DispersionParams:
    phi_values: tuple[float, ...] = field(default=(0.0, math.pi / 4, math.pi / 2),
                                          metadata={"phase": True})
    q_points: int = 257

    def __post_init__(self):
        if self.q_points < 3:
            raise ValueError(f"q_points: must be >= 3, got {self.q_points}")
        object.__setattr__(self, "phi_values", tuple(float(p) for p in self.phi_values))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameterization of one experiment run.

    chain_length/index_origin of None mean "auto": the chain is sized so
    that less than 1e-6 of the normalized intensity ever reaches the ends
    (excitation extent + the band's reach on each side + padding; see
    _sizing.auto_extent).

    The fields of this dataclass and of those nested in it are the keys of
    a config document; see configio for how their metadata tags them.
    """

    experiment: str = field(metadata={"options": EXPERIMENTS})
    preset: str = ""
    kappa: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    phi: float = field(default=0.0, metadata={"phase": True})
    boundary: str = field(default="open", metadata={"options": ("open", "periodic")})
    chain_length: int = field(default=None, metadata={"none": "auto"})
    index_origin: int = field(default=None, metadata={"none": "auto"})
    defects: tuple[DefectSpec, ...] = field(default=(), metadata={"none": "none"})
    excitation: ExcitationSpec = field(default=None, metadata={"none": "none"})
    timing: Timing = field(default_factory=Timing)
    storage: StorageParams = field(default_factory=StorageParams)
    reduction: ReductionParams = field(default_factory=ReductionParams)
    dispersion: DispersionParams = field(default_factory=DispersionParams)

    def __post_init__(self):
        _check_options(self)
        object.__setattr__(self, "phi", reduce_phase(self.phi))
        object.__setattr__(self, "defects", tuple(self.defects))


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Run output: resolved config, trajectory and/or table, metrics, manifest."""

    config: ExperimentConfig
    trajectory: Trajectory = None
    table: tuple = None  # (column names, 2D float array)
    metrics: dict = None
    manifest: str = None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise configio.ConfigError(message)


#: the config key of each spec field that is not itself a key
_SPEC_KEYS = {"n_sites": "chain_length", "n_half": "storage.n_half", "j": "reduction.j_values",
              "u_b": "reduction.j_values", "gamma_a": "gamma"}


@contextlib.contextmanager
def _named(message: str = ""):
    """Raise a ValueError as a ConfigError: ``message``, the error put in its {} if it has
    one, else the error led by its spec field's key."""
    try:
        yield
    except ValueError as err:
        field, _, rest = str(err).partition(": ")
        raise configio.ConfigError(message.format(err) if message else
                                   f"{_SPEC_KEYS.get(field, field)}: {rest}") from None


def resolve_config(config: ExperimentConfig) -> ExperimentConfig:
    """Materialize every automatic field so manifests are self-contained (resolve_specs)."""
    return resolve_specs(config)[0]


def resolve_specs(config: ExperimentConfig) -> tuple:
    """The resolved config and the lattice specs its run builds: none for a dispersion
    scan, else the ChainSpec, then a (SandwichSpec, release ChainSpec) per storage sweep
    member or a SawtoothSpec per reduction j.  Also rejects, each naming its key and
    before any of the run's work, what the run would reject only partway through or by
    no key; building the specs runs their own checks (_named)."""
    cfg = config
    _require(not any(c in (cfg.preset or "") for c in "=,\n"),
             f"preset: {cfg.preset!r} holds '=', ',' or a newline, which metrics.txt cannot hold")
    _require(cfg.kappa > 0.0, f"kappa: must be > 0, got {cfg.kappa!r}")
    _require(cfg.beta >= 0.0, f"beta: must be >= 0, got {cfg.beta!r}")
    if cfg.experiment == "dispersion_scan":  # the one experiment without a chain
        terms = {"kappa": 2.0 * cfg.kappa, "beta": 2.0 * cfg.beta, "gamma": abs(cfg.gamma)}
        _require(math.isfinite(sum(terms.values())), f"{max(terms, key=terms.get)}: the band "
                 "bound 2*kappa + 2*beta + |gamma| of the scan is not finite")
        _check_fits(cfg)
        return cfg, ()
    t, exc = cfg.timing, cfg.excitation
    _require(t.sample_dt > 0.0, f"timing.sample_dt: must be > 0, got {t.sample_dt!r}")
    _require(t.t_final >= 0.0, f"timing.t_final: must be >= 0, got {t.t_final!r}")
    _require(exc is not None, "excitation.kind: experiment needs an excitation")
    want = "single_site" if cfg.experiment == "transport_single_site" else "gaussian"
    _require(exc.kind == want, f"excitation.kind: must be {want} for this experiment")
    if cfg.experiment in ("storage", "reduction_check"):  # each builds its own chains
        _require(cfg.boundary == "open",
                 f"boundary: {cfg.experiment} runs on an open chain, got {cfg.boundary!r}")
        _require(not cfg.defects, f"defects: {cfg.experiment} runs on a chain without defects")
    if cfg.experiment == "storage":
        _require(t.t_prime is not None, "timing.t_prime: storage needs a switch time")
        _require(0.0 < t.t_prime < t.t_final, "timing.t_prime: must lie inside (0, t_final)")
    if cfg.experiment == "reduction_check":
        _require(cfg.beta > 0.0, "beta: reduction check needs beta > 0 (u_b = i*j^2/beta)")
        gain = cfg.reduction.aux_sign == "gain"
        theta = cfg.reduction.theta
        if theta is None:
            theta = cfg.phi / 2.0 if gain else cfg.phi / 2.0 - math.pi / 2.0
        with _named("reduction.theta: as phi = 2*theta, the {}"):
            phi = reduce_phase(2.0 * theta) if gain else reduce_phase(2.0 * theta + math.pi)
        cfg = replace(cfg, phi=phi, reduction=replace(cfg.reduction, theta=theta))
    if cfg.chain_length is None or cfg.index_origin is None:
        key = "chain_length" if cfg.index_origin is None else "index_origin"
        _require(cfg.chain_length is None and cfg.index_origin is None,
                 f"{key}: set both chain_length and index_origin, or neither (auto)")
        lo, hi = auto_extent(cfg)
        cfg = replace(cfg, chain_length=hi - lo + 1, index_origin=lo)
    with _named():
        chain = _chain_spec(cfg)  # the chain keys' checks, for every experiment's chain
        specs = [chain]
        if cfg.experiment == "storage":
            specs += [_storage_specs(cfg, chain, xi)
                      for xi in cfg.storage.xi_sweep or (cfg.storage.xi,)]
        if cfg.experiment == "reduction_check":
            specs += [_sawtooth_spec(cfg, j) for j in cfg.reduction.j_values]
    _check_fits(cfg)
    times = sample_times(t.t_final, t.sample_dt)
    if cfg.experiment != "reduction_check":  # the runs that fit a velocity
        with _named("timing.t_final: velocity {}"):
            window_mask(times, _velocity_window(cfg))
    if cfg.experiment == "storage":
        capture = _capture_window(cfg)
        with _named(f"timing.t_prime: capture window [{capture[0]!r}, {capture[1]!r}] holds "
                    f"no sample (sample_dt {t.sample_dt!r})"):
            window_mask(times, capture, 1)
    lo, hi = chain.site_range
    _require(lo <= exc.n0 <= hi, f"excitation.n0: {exc.n0} outside chain [{lo}, {hi}]")
    if cfg.experiment == "storage":
        out_lo, out_hi = _out_region(cfg, chain)
        _require(out_lo <= out_hi,
                 f"{'chain_length' if out_hi == hi else 'index_origin'}: chain [{lo}, {hi}] "
                 f"holds no site of the release's out region [{out_lo}, {out_hi}]")
    return cfg, tuple(specs)


def _check_fits(cfg: ExperimentConfig) -> None:
    """Reject a run whose traced peak would not fit in memory: a scan at 40 bytes a table row
    and 72 a q point, else 40 bytes a site and sample over the sites of the trajectories alive
    at once (the chain's N, and a sawtooth's 2N beside it) and 8 more samples."""
    try:
        memory = float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):  # no sysconf: what numpy can index
        memory = float(np.iinfo(np.intp).max)
    if cfg.experiment == "dispersion_scan":
        p = cfg.dispersion.q_points
        rows = p * len(cfg.dispersion.phi_values)
        _require(40 * rows + 72 * p <= memory, f"dispersion.q_points: {rows} table rows do not "
                 f"fit in memory beside a {p}-point grid ({memory:.3g} bytes)")
        return
    sites = cfg.chain_length * (2 if cfg.experiment == "reduction_check" else 1)  # sawtooth
    _require(sites <= memory / 16,  # compared exactly, however large the int
             f"chain_length: {cfg.chain_length} sites do not fit in memory ({memory:.3g} bytes)")
    t, default = cfg.timing, Timing()
    samples = t.t_final / t.sample_dt + 1.0  # inf when the quotient overflows
    # name whichever of the two keys lies further from its default
    key = ("timing.t_final" if t.t_final / default.t_final > default.sample_dt / t.sample_dt
           else "timing.sample_dt")
    alive = 3 * cfg.chain_length if cfg.experiment == "reduction_check" else sites
    _require(40 * alive * (samples + 8) <= memory,
             f"{key}: {samples:.3g} samples of {sites} sites do not fit in memory "
             f"({memory:.3g} bytes)")


def _velocity_window(cfg: ExperimentConfig) -> tuple:
    """The times a transport or storage run fits its centroid velocity over."""
    t = cfg.timing
    if cfg.experiment == "storage":  # the released packet, clear of the switch
        return (t.t_prime + 5.0, t.t_final - 2.0)
    return (max(2.0, 0.1 * t.t_final), 0.95 * t.t_final)


def _chain_spec(config: ExperimentConfig) -> ChainSpec:
    return ChainSpec(
        kappa=config.kappa,
        beta=config.beta,
        gamma=config.gamma,
        phi=config.phi,
        n_sites=config.chain_length,
        index_origin=config.index_origin,
        boundary=config.boundary,
        defects=config.defects,
    )


def _sawtooth_spec(cfg: ExperimentConfig, j: float) -> SawtoothSpec:
    """The sawtooth of one j realizing the resolved chain (see ReductionParams)."""
    gain = cfg.reduction.aux_sign == "gain"
    return SawtoothSpec(kappa=cfg.kappa, j=j, theta=cfg.reduction.theta,
                        gamma_a=cfg.gamma + 2.0 * cfg.beta if gain else cfg.gamma - 2.0 * cfg.beta,
                        u_b=(1j if gain else -1j) * j * j / cfg.beta, n_cells=cfg.chain_length)


def _start(config: ExperimentConfig, method_tag: str = METHOD_TAG) -> tuple:
    """The resolved config, its specs, its manifest and the metrics every run leads with."""
    cfg, specs = resolve_specs(config)
    manifest = configio.render_manifest(cfg, method_tag=method_tag)
    metrics = {
        "preset": cfg.preset if cfg.preset else "custom",
        "config_hash": configio.config_hash(manifest),
        "experiment": cfg.experiment,
        "method_tag": method_tag,
    }
    return cfg, specs, manifest, metrics


def _chain_result(cfg: ExperimentConfig, manifest: str, metrics: dict, traj: Trajectory,
                  table=None) -> ExperimentResult:
    """Record the most intensity the two end sites ever hold, and bundle the run."""
    rho = normalized_profile(traj.amplitudes)
    edge = float(np.max(rho[:, 0] ** 2 + rho[:, -1] ** 2))
    metrics["edge_fraction_max"] = edge
    metrics["edge_fraction_ok"] = cfg.boundary != "open" or not edge > EDGE_FRACTION_LIMIT
    return ExperimentResult(config=cfg, trajectory=traj, table=table, metrics=metrics,
                            manifest=manifest)


def run_dispersion_scan(config: ExperimentConfig) -> ExperimentResult:
    """Tabulate (phi, q, Re E, Im E, v_g) on a symmetric q grid.

    The grid is (k - (P-1)//2) * (2*pi/(P-1)) for k < P so that for the
    default P=257 the values 0, +/-pi/4, +/-pi/2, +/-pi are grid points
    exactly, making argmax comparisons exact.
    """
    cfg, _, manifest, metrics = _start(config, "closed_form")
    p, phis = cfg.dispersion.q_points, cfg.dispersion.phi_values
    q_grid = (np.arange(p) - (p - 1) // 2) * (2.0 * math.pi / (p - 1))
    vg = group_velocity(cfg.kappa, q_grid)
    table = np.empty((len(phis) * p, 5))  # no phi: no row
    for i, phi in enumerate(phis):
        e = dispersion(cfg.kappa, cfg.beta, cfg.gamma, phi, q_grid)
        np.stack((np.full(p, phi), q_grid, e.real, e.imag, vg), axis=1,
                 out=table[i * p:(i + 1) * p])
        arg = int(np.argmax(e.imag))
        metrics[f"phi[{i}].value"] = phi
        metrics[f"phi[{i}].q_max_im"] = float(q_grid[arg])
        metrics[f"phi[{i}].max_im"] = float(e.imag[arg])
    return ExperimentResult(config=cfg, table=(("phi", "q", "reE", "imE", "vg"), table),
                            metrics=metrics, manifest=manifest)


def run_transport(config: ExperimentConfig) -> ExperimentResult:
    """Evolve one excitation through the (possibly defective) chain.

    The three region fractions come from one normalized snapshot, so they
    sum to 1.
    """
    cfg, (spec,), manifest, metrics = _start(config)
    t_final = cfg.timing.t_final
    state0 = make_excitation(cfg.excitation, spec.site_labels)
    traj = evolve_exact(build_chain_hamiltonian(spec), state0, t_final, cfg.timing.sample_dt)
    window = _velocity_window(cfg)
    barrier = [d.site for d in cfg.defects] or [cfg.excitation.n0]
    barrier_lo, barrier_hi = min(barrier), max(barrier)
    t_eval = 0.9 * t_final
    reflected, transmitted, interior = region_fractions(
        traj.state(traj.index_at_time(t_eval)), barrier_lo, barrier_hi)
    metrics.update(
        velocity_estimate=centroid_velocity(traj, window),
        reflection_fraction=reflected,
        transmission_fraction=transmitted,
        interior_fraction=interior,
        centroid_series=tuple(float(x) for x in centroid_series(traj)),
        velocity_window_start=window[0],
        velocity_window_end=window[1],
        fractions_t_eval=t_eval,
        barrier_lo=barrier_lo,
        barrier_hi=barrier_hi,
        norm_final=float(traj.norm_series[-1]),
    )
    return _chain_result(cfg, manifest, metrics, traj)


def _storage_specs(cfg: ExperimentConfig, chain: ChainSpec, xi: float) -> tuple:
    """The capture sandwich over the run's chain and the release chain of one offset value."""
    sp, q0 = cfg.storage, cfg.excitation.q0
    sandwich = SandwichSpec(chain=chain, n_half=sp.n_half, q0=q0, v_c=sp.v_c, xi=xi)
    return sandwich, replace(chain, phi=_release_phase(sp, q0), defects=(
        DefectSpec(-sp.n_half, sp.v_c, 0.0), DefectSpec(sp.n_half, sp.v_c, 0.0)))


def _storage_schedule(cfg: ExperimentConfig, specs: tuple) -> list:
    """The (t_start, operator) pairs of a member's specs: capture from 0, release from t_prime."""
    return [(0.0, build_sandwich_hamiltonian(specs[0])),
            (cfg.timing.t_prime, build_chain_hamiltonian(specs[1]))]


def _capture_window(cfg: ExperimentConfig) -> tuple:
    """The times a storage run takes its capture confinement over: [t_prime/2, t_prime]."""
    return (0.5 * cfg.timing.t_prime, cfg.timing.t_prime)


def _out_region(cfg: ExperimentConfig, chain: ChainSpec) -> tuple:
    """The sites of ``chain`` past the core, downstream of the release, that count as retrieved."""
    sp = cfg.storage
    lo, hi = chain.site_range
    # a forward release keeps the incident direction of travel
    moving_right = ((group_velocity(cfg.kappa, cfg.excitation.q0) > 0)
                    == (sp.retrieval_phase_sign == "forward"))
    return (sp.n_half + 3, hi) if moving_right else (lo, -sp.n_half - 3)


def _storage_single(cfg: ExperimentConfig, specs: tuple) -> tuple:
    """One capture/release cycle of a member's specs; returns (trajectory, its metrics)."""
    t = cfg.timing
    schedule = _storage_schedule(cfg, specs)
    state0 = make_excitation(cfg.excitation, schedule[0][1].site_labels)
    traj = evolve_schedule(schedule, state0, t.t_final, t.sample_dt)

    exc = cfg.excitation
    sp = cfg.storage
    half_w = int(round(4.0 * exc.w0))
    in_region = (exc.n0 - half_w, exc.n0 + half_w)
    incident_v = group_velocity(cfg.kappa, exc.q0)
    t_out = float(traj.times[-1])
    efficiency = storage_efficiency(traj, 0.0, t_out, in_region, _out_region(cfg, specs[1]))
    fit = fit_gaussian(traj.state(traj.index_at_time(t_out)))
    release_v = centroid_velocity(traj, _velocity_window(cfg))
    direction = "forward" if (release_v > 0) == (incident_v > 0) else "reversed"

    rho = normalized_profile(traj.amplitudes[window_mask(traj.times, _capture_window(cfg), 1)])
    inside = np.abs(traj.site_labels) <= sp.n_half + 2
    confinement = float(np.min(np.sum(rho[:, inside] ** 2, axis=1)))

    return traj, {
        "efficiency": efficiency,
        "shape_fidelity": fit.fidelity,
        "release_velocity": release_v,
        "release_direction": direction,
        "incident_velocity": incident_v,
        "capture_confinement_min": confinement,
    }


def run_storage(config: ExperimentConfig) -> ExperimentResult:
    """Two-stage capture/release run; sweeps the boundary offset if asked.

    Stage 1 (t < t_prime) is the sandwich structure with capture phase
    -q0; stage 2 is the homogeneous chain with real defects v_c at the old
    boundary sites and the retrieval phase (-q0 forward, +q0 reversed).
    A sweep's members run in order; only the last one's trajectory is kept.
    """
    cfg, (_, *specs), manifest, metrics = _start(config)
    members = [_storage_single(cfg, member)[1] for member in specs[:-1]]
    traj, last = _storage_single(cfg, specs[-1])
    table = None
    if cfg.storage.xi_sweep:
        columns = ("xi", "efficiency", "shape_fidelity", "release_velocity")
        rows = [(xi, *(member[c] for c in columns[1:]))
                for xi, member in zip(cfg.storage.xi_sweep, members + [last])]
        for i, row in enumerate(rows):  # each column but release_velocity is a metric too
            metrics.update((f"sweep[{i}].{c}", v) for c, v in zip(columns[:3], row))
        table = (columns, np.asarray(rows, dtype=float))
    metrics.update(last, t_prime=cfg.timing.t_prime, norm_final=float(traj.norm_series[-1]))
    return _chain_result(cfg, manifest, metrics, traj, table)


def _slaved_b(a: np.ndarray, spec: SawtoothSpec) -> np.ndarray:
    """b_n from the instantaneous a amplitudes (last coupling dropped)."""
    phase = np.exp(1j * spec.theta)
    a_next = np.zeros_like(a)
    a_next[:-1] = a[1:]
    return -spec.j * (phase * a_next + np.conj(phase) * a) / spec.u_b


def run_reduction_check(config: ExperimentConfig) -> ExperimentResult:
    """Compare the full two-sublattice model against the effective chain.

    For each j in the sweep, u_b = i*j^2/beta so the effective chain is
    the same while |u_b| grows; the error is the max over sampled times of
    the max-norm difference between the normalized main-sublattice profile
    and the normalized chain profile.
    """
    cfg, (chain, *saws), manifest, metrics = _start(config)
    t = cfg.timing
    state0 = make_excitation(cfg.excitation, chain.site_labels)
    chain_traj = evolve_exact(build_chain_hamiltonian(chain), state0, t.t_final, t.sample_dt)
    rho_chain = normalized_profile(chain_traj.amplitudes)

    columns = ("j", "u_b_abs", "adiabaticity_ratio", "profile_error", "warned")
    rows = []
    for i, saw in enumerate(saws):
        h_saw = build_sawtooth_hamiltonian(saw)
        psi0 = np.zeros(2 * cfg.chain_length, dtype=complex)
        psi0[0::2] = state0.amplitudes
        if cfg.reduction.b_init == "slaved":
            psi0[1::2] = _slaved_b(state0.amplitudes, saw)
        saw_traj = evolve_exact(h_saw, StateVector(psi0, h_saw.site_labels),
                                t.t_final, t.sample_dt)
        error = float(np.max(np.abs(normalized_profile(saw_traj.amplitudes[:, 0::2]) - rho_chain)))
        del saw_traj  # one sawtooth trajectory alive at a time
        ratio = saw.adiabaticity_ratio
        rows.append((saw.j, abs(saw.u_b), ratio, error, ratio > ADIABATICITY_WARN_THRESHOLD))
        metrics.update((f"reduction[{i}].{name}", v) for name, v in zip(columns, rows[-1]))
    metrics["monotone_decreasing"] = all(b[3] < a[3] for a, b in zip(rows, rows[1:]))
    table = (columns, np.asarray(rows, dtype=float))
    return _chain_result(cfg, manifest, metrics, chain_traj, table)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run ``config`` with the runner of its experiment kind."""
    return {
        "dispersion_scan": run_dispersion_scan,
        "transport_single_site": run_transport,
        "transport_gaussian": run_transport,
        "storage": run_storage,
        "reduction_check": run_reduction_check,
    }[config.experiment](config)


# --------------------------------------------------------------------------
# Preset configurations: dispersion scans, transport panels with and
# without defects, storage cycles, and the adiabatic-elimination
# cross-check.  All rates are in units of kappa, times in 1/kappa.

_NH = dict(beta=0.4, gamma=0.8)
_HERMITIAN = dict(beta=0.0, gamma=0.0)
_GAUSS = ExcitationSpec(kind="gaussian", n0=-30, w0=5.0, q0=-math.pi / 2)
_SINGLE = ExcitationSpec(kind="single_site", n0=0)
_DEFECTS_1020 = (DefectSpec(10, 2.0, 0.0), DefectSpec(20, 2.0, 0.0))
_DEFECTS_PM5 = (DefectSpec(-5, 2.0, 0.0), DefectSpec(5, 2.0, 0.0))


def _transport_single(preset, phi, herm=False, defects=()):
    pars = _HERMITIAN if herm else _NH
    return ExperimentConfig(
        experiment="transport_single_site", preset=preset, phi=phi,
        defects=defects, excitation=_SINGLE, timing=Timing(t_final=60.0), **pars,
    )


def _transport_gauss(preset, phi, herm=False):
    pars = _HERMITIAN if herm else _NH
    return ExperimentConfig(
        experiment="transport_gaussian", preset=preset, phi=phi,
        defects=_DEFECTS_PM5, excitation=_GAUSS, timing=Timing(t_final=30.0), **pars,
    )


def _storage_preset(preset, sign, xi_sweep=()):
    return ExperimentConfig(
        experiment="storage", preset=preset, phi=math.pi / 2, excitation=_GAUSS,
        timing=Timing(t_final=60.0, t_prime=30.0),
        storage=StorageParams(n_half=3, v_c=1.0, xi=0.4,
                              retrieval_phase_sign=sign, xi_sweep=xi_sweep),
        **_NH,
    )


PRESETS = {
    "fig2": ExperimentConfig(experiment="dispersion_scan", preset="fig2", **_NH),
    "fig3a": _transport_single("fig3a", 0.0, herm=True),
    "fig3b": _transport_single("fig3b", 0.0),
    "fig3c": _transport_single("fig3c", math.pi / 4),
    # acceptance criterion 3 times this panel on a chain of 250-350 sites;
    # auto sizing would give it 210, so it keeps the extent it always had
    "fig3d": replace(_transport_single("fig3d", math.pi / 2), chain_length=301,
                     index_origin=-150),
    "fig3e": _transport_single("fig3e", 0.0, herm=True, defects=_DEFECTS_1020),
    "fig3f": _transport_single("fig3f", math.pi / 2, defects=_DEFECTS_1020),
    "fig4a": _transport_gauss("fig4a", 0.0, herm=True),
    "fig4b": _transport_gauss("fig4b", 0.0),
    "fig4c": _transport_gauss("fig4c", math.pi / 4),
    "fig4d": _transport_gauss("fig4d", math.pi / 2),
    "fig6a": _storage_preset("fig6a", "forward"),
    "fig6b": _storage_preset("fig6b", "reversed"),
    "fig7": _storage_preset("fig7", "forward", xi_sweep=(0.4, 0.6, 0.8)),
    # the preset uses the lossy auxiliary level: the textbook gain
    # working point u_b = +i*j^2/beta has an amplified auxiliary band
    # (growth rate |u_b|) and cannot run a transport-scale comparison
    "reduction": ExperimentConfig(
        experiment="reduction_check", preset="reduction", phi=math.pi / 2,
        excitation=ExcitationSpec(kind="gaussian", n0=-25, w0=5.0, q0=-math.pi / 2),
        timing=Timing(t_final=20.0),
        reduction=ReductionParams(j_values=(4.0, 8.0), aux_sign="loss"),
        **_NH,
    ),
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        known = ", ".join(PRESETS)
        raise configio.ConfigError(f"unknown preset {name!r} (known: {known})")
    return PRESETS[name]
