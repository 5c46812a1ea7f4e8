"""Time evolution under constant and scheduled (quenched) operators: one
propagator, algorithm 3.2 of Al-Mohy & Higham (SIAM J. Sci. Comput. 33(2),
2011) on the sparse operator, one sample gap at a time.  A schedule is a
sequence of (t_start, operator) pairs; evolve_exact is its one-pair form.

It is the arithmetic of ``scipy.sparse.linalg.expm_multiply``, so states are
bit-identical to calling it gap by gap, but the set-up scipy redoes on every
call (trace shift, shifted matrix, 1-norm, Taylor degree and scaling) is done
once per operator and gap length and kept in _Stepper, by the sparse kernels
scipy's own set-up calls (_trace_shift) and a copy of scipy's theta_m table
for the Taylor degree, so no scipy package is imported.

Each Taylor term costs a product through scipy's CSR kernel (see
Operator.matvec) and one max|b|.  max|f| enters only scipy's stop test,
so it is computed only when that test could pass against a running upper
bound on it; the bound is never below the computed max|f| (proof in
_Stepper.__call__), so the loop breaks on the same term as scipy's."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Operator, _sparsetools

__all__ = ["StateVector", "Trajectory", "GainRunawayError", "NormUnderflowError", "evolve_exact",
           "evolve_schedule"]

#: any |c_n| beyond this aborts the run as gain runaway
OVERFLOW_LIMIT = 1e150
#: method_tag of every propagated trajectory
METHOD_TAG = "expm_multiply"
#: largest 1-norm of one trace-shifted step operator.  Condition (3.13) of
#: Al-Mohy & Higham with scipy's m_max = 55, ell = 2 allows 63.36 for one
#: vector; within it scipy sizes the step from the exact norm and never
#: calls its randomized onenormest, so runs are deterministic.
STEP_NORM_LIMIT = 60.0
#: most sub-steps one sample gap may take (each preset takes 1, each up to 385 products)
MAX_SUB_STEPS = 1000

_TIME_EPS = 1e-9
#: scipy's Taylor truncation tolerance, the double-precision unit roundoff
_TAYLOR_TOL = 2.0**-53
#: growth factor of the running bound on max|f| in _Stepper, 1 + 32 * 2^-53
_BOUND_GROWTH = 1.0 + 2.0**-48
#: smallest normal double; below it tol * bound is no longer trusted
_NORMAL_MIN = 2.0**-1022
#: theta_m, the largest 1-norm for which degree m meets _TAYLOR_TOL: m <= 30
#: from table A.3 of Higham, "Functions of Matrices" (2008), the rest from
#: table 3.1 of Al-Mohy & Higham.  Copied, in order, from scipy 1.17.1's private
#: scipy.sparse.linalg._expm_multiply._theta; importing that would load
#: scipy.sparse.linalg and scipy.linalg.  A test checks the copy against the
#: installed scipy.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


class GainRunawayError(RuntimeError):
    """Raised when amplitudes overflow (net gain exceeding attenuation)."""


class NormUnderflowError(RuntimeError):
    """Raised when a sample's intensity underflows to 0 (attenuation so strong
    that no normalized observable of that sample exists)."""


class StepCountError(RuntimeError):
    """Raised for a sample gap that would take more than MAX_SUB_STEPS sub-steps."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes on labeled lattice sites."""

    amplitudes: np.ndarray
    site_labels: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        labels = np.ascontiguousarray(self.site_labels, dtype=int)
        if amps.ndim != 1 or labels.shape != amps.shape:
            raise ValueError("amplitudes and site_labels must be 1D arrays of equal length")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        for name, arr in (("amplitudes", amps), ("site_labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def norm(self) -> float:
        """Total intensity S = sum |c_n|^2."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled states, every amplitude finite, plus the derived intensity series."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n_samples, dim)
    site_labels: np.ndarray
    norm_series: np.ndarray
    method_tag: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("a trajectory cannot hold a non-finite amplitude")
        for name in ("times", "amplitudes", "norm_series", "site_labels"):
            getattr(self, name).setflags(write=False)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def state(self, k: int) -> StateVector:
        return StateVector(self.amplitudes[k], self.site_labels)

    def index_at_time(self, t: float) -> int:
        """Index of the sample nearest to t (t must lie inside the span)."""
        if t < self.times[0] - _TIME_EPS or t > self.times[-1] + _TIME_EPS:
            raise ValueError(f"time {t} outside trajectory span [{self.times[0]}, {self.times[-1]}]")
        return int(np.argmin(np.abs(self.times - t)))


def _trace_shift(a: Operator) -> tuple:
    """scipy's trace shift of a, call for call as expm_multiply sets it up:
    mu = a.trace()/n, the CSR arrays of a - mu*eye_array(n) (csr_minus_csr,
    then pruned) and the exact 1-norm of that, its abs(...).sum(axis=0).max()."""
    n, index_dtype = a.dim, a.indptr.dtype
    diag = np.empty(n, dtype=complex)
    _sparsetools.csr_diagonal(0, n, n, a.indptr, a.indices, a.data, diag)
    mu = diag.sum() / float(n)
    eye = np.arange(n + 1, dtype=index_dtype)  # the identity's indptr; its indices are eye[:n]
    indptr = np.empty(n + 1, dtype=index_dtype)
    indices = np.empty(a.data.size + n, dtype=index_dtype)
    data = np.empty(a.data.size + n, dtype=complex)
    _sparsetools.csr_minus_csr(n, n, a.indptr, a.indices, a.data, eye, eye[:n],
                               np.ones(n, dtype=complex) * mu, indptr, indices, data)
    data, indices = data[:indptr[-1]], indices[:indptr[-1]]  # prune: exact zeros were dropped
    # ones @ |a - mu*I| sums each column from 0 in row order, as bincount does
    norm = float(np.bincount(indices, np.abs(data), minlength=n).max())
    return mu, (data, indices, indptr), norm


class _Stepper:
    """exp(-iH*gap) @ c in the fewest n equal sub-steps a = -iH*gap/n whose
    trace-shifted 1-norms stay within STEP_NORM_LIMIT, each one call of
    scipy's expm_multiply (algorithm 3.2 of Al-Mohy & Higham).  Kept per gap
    length: n, a - mu*I, the degree m_star and scaling s of fragment 3.1, the
    Taylor coefficients and eta = exp(mu/s).  scipy starts each call with
    f = b and ends each scaling step with f = eta*f; b = f, so n calls are one
    loop of n*s scaling steps.  Non-finite amplitudes are carried on (_checked)."""

    def __init__(self, h):
        self.h = h
        self.shifted_norm = _trace_shift(h)[2]
        self.steps = {}

    def __call__(self, gap: float, b: np.ndarray) -> np.ndarray:
        if gap not in self.steps:
            n = gap * self.shifted_norm / STEP_NORM_LIMIT
            if not n <= MAX_SUB_STEPS:  # NaN included
                raise StepCountError(f"a sample gap of {gap!r} needs {n:.3g} sub-steps (limit "
                                     f"{MAX_SUB_STEPS}): the rates are too large to finish")
            n, h = max(1, math.ceil(n)), self.h
            # scipy's csr * scalar: each entry times it, the structure kept
            mu, shifted, norm = _trace_shift(Operator(h.data * (-1j * gap / n), h.indices,
                                                      h.indptr, h.site_labels))
            # norm <= STEP_NORM_LIMIT keeps fragment 3.1 in its condition (3.13)
            # branch: the first theta-table degree m minimising m*ceil(norm/theta_m)
            if norm == 0.0:
                m_star, s = 0, 1
            else:
                m_star = min(_THETA, key=lambda m: m * math.ceil(norm / _THETA[m]))
                s = math.ceil(norm / _THETA[m_star])
            self.steps[gap] = (Operator(*shifted, h.site_labels), n * s,
                               [1.0 / float(s * (j + 1)) for j in range(m_star)],
                               np.exp(1.0 * mu / float(s)))  # scipy's exp(t*mu/s) at t = 1
        op, steps, coeffs, eta = self.steps[gap]
        # scipy breaks when c1 + c2 <= tol * max|f|, with max|f| computed as
        # np.abs(f).max().  `bound` is kept >= that computed max|f|.  Rounding
        # is monotone, underflow included, so then tol * bound >= tol * max|f|
        # and, while c1 + c2 > tol * bound, scipy's test is false without
        # computing max|f|.  Otherwise max|f| is computed, scipy's test is
        # applied as it stands and bound restarts from max|f|.  The breaks,
        # and so the states, are scipy's.
        #
        # bound >= max|f| by induction over the terms of a sub-step, with
        # u = 2^-53 and d = 2^-1074, the smallest subnormal:
        # - at the start f = b and bound = c1 is the computed max|f|.
        # - f + b rounds each part with relative error <= u (subnormal sums
        #   are exact), so |f_k[i]| <= (1 + u)(|f_{k-1}[i]| + |b_k[i]|).
        # - numpy's complex abs is within e = 2^-50 = 8u of the modulus,
        #   relative, plus d absolute where it is subnormal; a test checks
        #   this.  So the computed |f_k[i]| <= g (bound_{k-1} + c2) + 4d,
        #   with g = (1 + e)(1 + u) / (1 - e) < 1 + 18u.
        # - the update rounds a sum and, while bound_k is normal, a product,
        #   each within u: bound_k >= (1 - u)^2 (1 + 32u)(bound_{k-1} + c2)
        #   >= (1 + 29u)(bound_{k-1} + c2).
        # - the lead 11u (bound_{k-1} + c2) exceeds 4d once bound_{k-1} + c2
        #   >= 2^-1022, which holds when tol * bound_k is normal, i.e.
        #   bound_k >= 2^-969.  Below that, max|f| is computed.
        # - if a part of f_k overflows, the same lead carries bound_k to inf.
        #   inf and NaN fail `>`, so they take the exact path too.
        f = b
        for _ in range(steps):
            c1 = bound = np.abs(b).max()
            for coeff in coeffs:
                b = coeff * op.matvec(b)
                c2 = np.abs(b).max()
                f = f + b
                bound = (bound + c2) * _BOUND_GROWTH
                if not (c1 + c2 > _TAYLOR_TOL * bound >= _NORMAL_MIN):
                    bound = np.abs(f).max()
                    if c1 + c2 <= _TAYLOR_TOL * bound:
                        break
                c1 = c2
            f = eta * f
            b = f
        return f


def _checked(state: np.ndarray) -> np.ndarray:
    """state, unless an amplitude is non-finite or beyond OVERFLOW_LIMIT (GainRunawayError)."""
    peak = float(np.max(np.abs(state)))
    if not math.isfinite(peak) or peak > OVERFLOW_LIMIT:
        raise GainRunawayError(f"amplitude magnitude {peak!r} exceeds {OVERFLOW_LIMIT:g}; "
                               "gain outruns attenuation")
    return state


def sample_times(t_final: float, sample_dt: float) -> np.ndarray:
    """The times evolve_schedule samples: k*sample_dt up to t_final."""
    return np.arange(math.floor(t_final / sample_dt + _TIME_EPS) + 1) * sample_dt


def evolve_exact(h, c0: StateVector, t_final: float, sample_dt: float) -> Trajectory:
    """Snapshots exp(-iH t_k) @ c0 at t_k = k*sample_dt under one operator."""
    return evolve_schedule([(0.0, h)], c0, t_final, sample_dt)


def evolve_schedule(segments, c0: StateVector, t_final: float, sample_dt: float) -> Trajectory:
    """Evolve under a piecewise-constant schedule, sampled every sample_dt.

    segments is a sequence of (t_start, operator) pairs, the first starting
    at 0 and the starts strictly increasing; each operator acts on
    [t_start_k, t_start_{k+1}) and must share c0's dimension and site labels.
    A sample gap that contains a switch is split there, so switch times are
    exact.  Amplitudes that turn non-finite or exceed 1e150 raise
    GainRunawayError; a sample whose intensity underflows to 0 raises
    NormUnderflowError; a gap that would take more than MAX_SUB_STEPS
    sub-steps raises StepCountError.
    """
    starts = [t_start for t_start, _ in segments]
    if not starts or starts[0] != 0.0:
        raise ValueError("a schedule needs at least one segment, the first starting at t = 0")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("segment start times must be strictly increasing")
    if sample_dt <= 0.0:
        raise ValueError(f"sample_dt must be > 0, got {sample_dt}")
    if not (starts[-1] <= t_final < math.inf):
        raise ValueError(f"t_final must be finite and >= the last segment start, got {t_final}")
    if any(c0.amplitudes.shape != (h.dim,) or not np.array_equal(c0.site_labels, h.site_labels)
           for _, h in segments):
        raise ValueError("state and operator dimension or site labels differ")
    if not np.any(c0.amplitudes):
        raise ValueError("initial state must have a nonzero amplitude")
    if c0.norm <= 0.0:
        raise NormUnderflowError("intensity sum |c_n|^2 of the initial state underflows to 0")
    times = sample_times(t_final, sample_dt)
    states = np.empty((len(times), c0.amplitudes.size), dtype=complex)
    states[0] = state = c0.amplitudes
    switches, seg = starts[1:], 0
    with np.errstate(over="ignore", invalid="ignore"):  # StepCountError reports a norm overflow
        steppers = [_Stepper(h) for _, h in segments]
        for k in range(1, len(times)):
            t = times[k - 1]
            # a switch within _TIME_EPS of a sample time acts at that sample
            while seg < len(switches) and switches[seg] < times[k] - _TIME_EPS:
                if switches[seg] > t + _TIME_EPS:
                    state = _checked(steppers[seg](switches[seg] - t, state))
                    t = switches[seg]
                seg += 1
            gap = sample_dt if t == times[k - 1] else times[k] - t
            states[k] = state = _checked(steppers[seg](gap, state))
    norm_series = np.sum(np.abs(states) ** 2, axis=1)
    if not norm_series.all():
        t = float(times[np.argmin(norm_series)])  # the first zero
        raise NormUnderflowError(f"intensity sum |c_n|^2 underflows to 0 at t = {t!r}; "
                                 "attenuation outruns the double-precision range")
    return Trajectory(times=times, amplitudes=states, site_labels=segments[0][1].site_labels,
                      norm_series=norm_series, method_tag=METHOD_TAG)
