"""Initial excitations and transport/storage observables.

Excitations are either a single-site kick (all Bloch components at once)
or a Gaussian packet ``exp[-(n-n0)^2/w0^2 + i*q0*n]`` carrying a narrow
band of wave numbers around ``q0``.  The observables deliberately work on
normalized quantities where overall dissipation would otherwise mask the
effect being measured (reflection), and on raw amplitudes where the point
is the absolute throughput (storage efficiency).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import StateVector, Trajectory
from .lattice import _check_options, reduce_phase

__all__ = [
    "ExcitationSpec",
    "GaussianFit",
    "make_excitation",
    "centroid",
    "centroid_series",
    "centroid_velocity",
    "region_fractions",
    "measure_reflection",
    "fit_gaussian",
    "storage_efficiency",
    "normalized_profile",
]

#: sites left out next to a barrier on each side of region_fractions' partition
REFLECTION_MARGIN = 3

#: steps the Gaussian fit may take before it reports the profile degenerate
FIT_MAX_ITERATIONS = 500


def _moduli_and_sums(amplitudes) -> tuple:
    """(|c_n|, sum_m |c_m|^2) along the last axis, the sums kept as an axis.  A row
    whose sum is not a finite normal double is first divided by its largest
    modulus (>= 2^-1022), which leaves every ratio |c_n|^2 / sum unchanged."""
    mags = np.abs(amplitudes)
    with np.errstate(over="ignore"):  # an overflowing row is rescaled below
        sums = np.sum(mags**2, axis=-1, keepdims=True)
    off = ~((sums >= 2.0**-1022) & (sums < np.inf))  # not a finite normal double
    if np.any(off):
        mags = np.where(off, mags / np.max(mags, axis=-1, keepdims=True, initial=2.0**-1022), mags)
        sums = np.where(off, np.sum(mags**2, axis=-1, keepdims=True), sums)
    if np.any(sums <= 0.0):
        raise ValueError("cannot normalize a zero-norm state")
    return mags, sums


def normalized_profile(amplitudes) -> np.ndarray:
    """rho_n = |c_n| / sqrt(sum_m |c_m|^2) along the last axis: one state, or one row a sample."""
    mags, sums = _moduli_and_sums(amplitudes)
    return mags / np.sqrt(sums)


@dataclass(frozen=True)
class ExcitationSpec:
    """Initial condition: kind is 'single_site' or 'gaussian'."""

    kind: str = field(metadata={"options": ("single_site", "gaussian")})
    n0: int = 0
    # a config document writes an unset w0/q0 as 5 and 0
    w0: float = field(default=None, metadata={"unset": 5.0})
    q0: float = field(default=None, metadata={"phase": True, "unset": 0.0})
    normalize: bool = True

    def __post_init__(self):
        _check_options(self)
        if self.kind == "single_site":  # a site kick has no width or wavenumber
            object.__setattr__(self, "w0", None)
            object.__setattr__(self, "q0", None)
        else:
            if self.w0 is None or not (math.isfinite(self.w0) and self.w0 > 0):
                raise ValueError(f"w0: a gaussian excitation needs w0 > 0, got {self.w0!r}")
            if self.q0 is None or not math.isfinite(self.q0):
                raise ValueError(f"q0: a gaussian excitation needs a finite q0, got {self.q0!r}")
            object.__setattr__(self, "q0", reduce_phase(self.q0))


def make_excitation(spec: ExcitationSpec, site_labels) -> StateVector:
    """Build the initial state on the given site labels (normalized to S=1
    by default)."""
    labels = np.asarray(site_labels, dtype=int)
    if not (labels[0] <= spec.n0 <= labels[-1]):
        raise ValueError(f"n0={spec.n0} outside site range [{labels[0]}, {labels[-1]}]")
    if spec.kind == "single_site":
        amps = np.zeros(len(labels), dtype=complex)
        amps[int(np.searchsorted(labels, spec.n0))] = 1.0
    else:
        clearance = min(spec.n0 - labels[0], labels[-1] - spec.n0)
        if clearance < 4.0 * spec.w0:
            warnings.warn(
                f"gaussian packet at n0={spec.n0}, w0={spec.w0} has only {clearance} "
                f"sites of clearance to a chain end (want >= {4.0 * spec.w0:g})",
                stacklevel=2,
            )
        with np.errstate(over="ignore"):  # far off a narrow packet's centre, exp(-inf) = 0
            delta = (labels - spec.n0) / spec.w0
            amps = np.exp(-delta**2 + 1j * spec.q0 * labels)
    if spec.normalize:
        amps = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return StateVector(amps, labels)


def centroid(c: StateVector) -> float:
    """Intensity-weighted mean site label."""
    mags, sums = _moduli_and_sums(c.amplitudes)
    return float(np.dot(c.site_labels, mags**2) / sums[0])


def centroid_series(traj: Trajectory) -> np.ndarray:
    """Centroid at every sample of a trajectory."""
    mags, sums = _moduli_and_sums(traj.amplitudes)
    return (mags**2 @ traj.site_labels) / sums[:, 0]


def window_mask(times: np.ndarray, t_window) -> np.ndarray:
    """The sample times in [t_a, t_b]; a velocity fit needs 5 or more."""
    t_a, t_b = t_window
    mask = (times >= t_a - 1e-9) & (times <= t_b + 1e-9)
    count = int(np.count_nonzero(mask))
    if count < 5:
        raise ValueError(f"window [{t_a}, {t_b}] selects {count} samples; need >= 5")
    return mask


def centroid_velocity(traj: Trajectory, t_window) -> float:
    """Least-squares slope of centroid vs time over [t_a, t_b]."""
    mask = window_mask(traj.times, t_window)
    cents = centroid_series(traj)[mask]
    return float(np.polyfit(traj.times[mask], cents, 1)[0])


def region_fractions(c: StateVector, barrier_lo: int, barrier_hi: int) -> tuple:
    """(reflected, transmitted, interior) shares of the weights |c_n|^2/S around a barrier.

    Normalized, so global decay cannot mask relative backscatter.  The sides
    are the sites at least REFLECTION_MARGIN below barrier_lo and above
    barrier_hi, clear of the barrier's evanescent tail; an empty side reads 0.0.
    """
    mags, sums = _moduli_and_sums(c.amplitudes)
    weights = mags**2 / sums
    left = c.site_labels <= barrier_lo - REFLECTION_MARGIN
    right = c.site_labels >= barrier_hi + REFLECTION_MARGIN
    return (float(np.sum(weights[left])), float(np.sum(weights[right])),
            float(np.sum(weights[~(left | right)])))


def measure_reflection(traj: Trajectory, barrier_site: int, t_eval: float) -> float:
    """region_fractions' reflected share around barrier_site at the sample nearest t_eval."""
    return region_fractions(traj.state(traj.index_at_time(t_eval)), barrier_site, barrier_site)[0]


@dataclass(frozen=True)
class GaussianFit:
    """Least-squares fit of |c_n| to amplitude*exp(-(n-center)^2/width^2)."""

    center: float
    width: float
    amplitude: float
    fidelity: float
    degenerate: bool


def fit_gaussian(c: StateVector) -> GaussianFit:
    """Fit the modulus profile to a Gaussian: fidelity = 1 - RSS/TSS with TSS = sum |c_n|^2.

    Least squares over every site with amplitude >= 0, center within a site
    of the chain and width in [1e-6, 4*span]: Levenberg-Marquardt (Marquardt,
    J. SIAM 11, 431, 1963) with Nielsen's damping update, each step clipped
    to that box, until a step lowers RSS/TSS by at most 1e-14.  Profiles that
    are flat, span fewer than 4 sites, take over FIT_MAX_ITERATIONS steps, or
    fit to a sub-site width (< 1 lattice spacing, unresolvable on the grid)
    are reported degenerate with zero fidelity.
    """
    if not np.any(c.amplitudes):
        raise ValueError("cannot fit a zero-norm state")
    labels = c.site_labels.astype(float)
    values = np.abs(c.amplitudes)
    if len(labels) < 4 or float(np.ptp(values)) == 0.0:
        return GaussianFit(float(labels[len(labels) // 2]), 0.0, 0.0, 0.0, True)

    peak = int(np.argmax(values))
    height = float(values[peak])
    values = values / height  # so that no step depends on the profile's scale
    tss = float(values @ values)
    second = float(np.dot((labels - labels[peak]) ** 2, values**2) / tss)
    p = np.array((1.0, labels[peak], max(1.0, 2.0 * math.sqrt(second))))
    lower = np.array((0.0, labels[0] - 1.0, 1e-6))
    upper = np.array((np.inf, labels[-1] + 1.0, 4.0 * (labels[-1] - labels[0])))

    def residual_and_jacobian(q):
        u = (labels - q[1]) / q[2]
        e = np.exp(-u * u)
        d_center = (2.0 * q[0] / q[2]) * e * u
        return q[0] * e - values, np.stack((e, d_center, d_center * u), axis=1)

    damping, growth = 1e-3, 2.0
    for _ in range(FIT_MAX_ITERATIONS):
        r, jac = residual_and_jacobian(p)
        normal, grad = jac.T @ jac, jac.T @ r
        # a parameter on the box that the slope pushes out of it stays put
        free = ~(((p <= lower) & (grad > 0)) | ((p >= upper) & (grad < 0)))
        damped = (normal + np.diag(damping * np.diag(normal))) * np.outer(free, free)
        # lstsq, not solve: amp = 0 or a collapsed width leaves zero or dependent columns
        trial = np.clip(p + np.linalg.lstsq(damped, -grad * free)[0], lower, upper)
        r_trial = residual_and_jacobian(trial)[0]
        gain = float(r @ r - r_trial @ r_trial)
        if gain > 0.0:  # damp less the closer the gain comes to the linearized fit's
            ratio = gain / max(gain, -(2.0 * grad + normal @ (trial - p)) @ (trial - p))
            damping, growth = damping * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 2.0
            p = trial
        else:
            damping, growth = damping * growth, 2.0 * growth
        if 0.0 <= gain <= 1e-14 * tss:
            break
    else:
        return GaussianFit(float(labels[peak]), 0.0, 0.0, 0.0, True)
    amp, center, width = (float(x) for x in p)
    fidelity = 0.0 if width < 1.0 else min(1.0, max(0.0, 1.0 - float(r_trial @ r_trial) / tss))
    return GaussianFit(center, width, amp * height, fidelity, width < 1.0)


def storage_efficiency(traj: Trajectory, t_in: float, t_out: float,
                       in_region, out_region) -> float:
    """Raw intensity in out_region at t_out over raw intensity in in_region
    at t_in.

    Uses actual amplitudes (no per-snapshot normalization): the point is
    absolute throughput of the capture/release cycle.
    """
    k_in = traj.index_at_time(t_in)
    k_out = traj.index_at_time(t_out)

    def region_sum(k, lo, hi):
        mask = (traj.site_labels >= lo) & (traj.site_labels <= hi)
        if not np.any(mask):
            raise ValueError(f"region [{lo}, {hi}] contains no sites")
        return float(np.sum(np.abs(traj.amplitudes[k, mask]) ** 2))

    denom = region_sum(k_in, *in_region)
    if denom <= 0.0:
        raise ValueError("input region holds zero norm at t_in")
    return region_sum(k_out, *out_region) / denom
