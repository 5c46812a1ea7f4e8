import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, example, given, settings, strategies as st

from nhlattice import (
    ChainSpec,
    DefectSpec,
    GainRunawayError,
    NormUnderflowError,
    Operator,
    SandwichSpec,
    SawtoothSpec,
    StateVector,
    Trajectory,
    build_chain_hamiltonian,
    build_sandwich_hamiltonian,
    build_sawtooth_hamiltonian,
    dispersion,
    evolve_exact,
    evolve_schedule,
    make_excitation,
    ExcitationSpec,
    normalized_profile,
)

import reference
from nhlattice.dynamics import (_THETA, STEP_NORM_LIMIT, StepCountError, _checked, _Stepper,
                                _trace_shift)

NH = dict(kappa=1.0, beta=0.4, gamma=0.8)


def _single_site_h(value):
    return reference.operator(np.array([[value]]), np.array([0]))


def _chain(n=41, phi=math.pi / 2, origin=None, **overrides):
    pars = {**NH, **overrides}
    origin = -(n // 2) if origin is None else origin
    return build_chain_hamiltonian(ChainSpec(phi=phi, n_sites=n, index_origin=origin, **pars))


def _delta(h, n0=0):
    return make_excitation(ExcitationSpec(kind="single_site", n0=n0), h.site_labels)


# ---------------------------------------------------------------- exact


def test_exact_zero_hamiltonian_is_identity():
    h = reference.operator(scipy.sparse.csr_array((3, 3), dtype=complex), np.arange(3))
    c0 = StateVector(np.array([0.2 + 0.1j, -0.5j, 1.0]), np.arange(3))
    traj = evolve_exact(h, c0, 2.0, 0.5)
    for k in range(traj.n_samples):
        assert np.allclose(traj.amplitudes[k], c0.amplitudes, atol=1e-14)


def test_exact_scalar_decay():
    gamma = 0.7
    h = _single_site_h(-1j * gamma)
    c0 = StateVector(np.array([1.0 + 0j]), np.array([0]))
    traj = evolve_exact(h, c0, 5.0, 0.25)
    expected = np.exp(-gamma * traj.times)
    assert np.allclose(traj.amplitudes[:, 0], expected, atol=1e-12)


def test_exact_ring_eigenmode_oracle():
    n = 24
    spec = ChainSpec(phi=math.pi / 2, n_sites=n, boundary="periodic", **NH)
    h = build_chain_hamiltonian(spec)
    q = 2 * math.pi * 5 / n
    mode = np.exp(1j * q * spec.site_labels) / math.sqrt(n)
    traj = evolve_exact(h, StateVector(mode, spec.site_labels), 8.0, 0.5)
    energy = dispersion(1, 0.4, 0.8, spec.phi, q)
    expected = np.exp(-1j * energy * traj.times)[:, None] * mode
    err = np.max(np.abs(traj.amplitudes - expected))
    assert err <= 1e-10


def test_exact_records_method_tag():
    # the asymmetric open chain whose eigenvector matrix is ill-conditioned
    h = _chain(n=61)
    traj = evolve_exact(h, _delta(h), 1.0, 0.25)
    assert traj.method_tag == "expm_multiply"


def test_exact_rejects_zero_initial_state():
    h = _chain(n=5)
    with pytest.raises(ValueError):
        evolve_exact(h, StateVector(np.zeros(5, dtype=complex), h.site_labels), 1.0, 0.5)


def test_exact_matches_dense_expm_for_non_dyadic_sample_dt():
    h = _chain(n=41)
    c0 = _delta(h)
    traj = evolve_exact(h, c0, 3.0, 0.3)
    assert traj.n_samples == 11
    want = reference.expm_schedule([(0.0, reference.csr(h).toarray())], c0.amplitudes, traj.times)
    assert np.max(np.abs(traj.amplitudes - want)) < 1e-10


def test_stiff_step_is_split_and_leaves_global_rng_alone():
    # |u_b| = j^2/beta = 160: one sample_dt = 1 step has a shifted 1-norm
    # far above scipy's 63.36, where it would size the step with the
    # randomized onenormest; the propagator splits the step instead
    saw = SawtoothSpec(kappa=1.0, j=8.0, theta=-math.pi / 4, gamma_a=0.0,
                       u_b=-1j * 64.0 / 0.4, n_cells=40)
    h = build_sawtooth_hamiltonian(saw)
    rng = np.random.default_rng(5)
    c0 = StateVector(rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim), h.site_labels)
    runs = []
    for seed in (1, 2):
        np.random.seed(seed)
        before = np.random.get_state()
        runs.append(evolve_exact(h, c0, 6.0, 1.0).amplitudes)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
    assert runs[0].tobytes() == runs[1].tobytes()
    dense = reference.dense_sawtooth(1.0, 8.0, -math.pi / 4, 0.0, -1j * 64.0 / 0.4, 40)
    want = reference.expm_schedule([(0.0, dense)], c0.amplitudes, [6.0])[0]
    assert np.max(np.abs(runs[0][-1] - want)) <= 1e-10 * np.max(np.abs(want))


def _saw(theta=-math.pi / 4, u_b=-40.0j, j=2.0, n_cells=12):
    return build_sawtooth_hamiltonian(SawtoothSpec(kappa=1.0, j=j, theta=theta, gamma_a=0.0,
                                                   u_b=u_b, n_cells=n_cells))


def _sandwich(xi):
    chain = ChainSpec(phi=0.0, n_sites=31, index_origin=-15, **NH)
    return build_sandwich_hamiltonian(SandwichSpec(chain=chain, n_half=4, q0=-math.pi / 2,
                                                   v_c=1.0, xi=xi))


_ZERO = reference.operator(scipy.sparse.csr_array((5, 5), dtype=complex), np.arange(5))
# a unit gap has shifted 1-norm 29.85, where degrees 40 and 50 tie in cost
_TIE = reference.operator(np.array([[0.0, 29.85], [29.85, 0.0]]), np.arange(2))


@pytest.mark.parametrize("before,after,sample_dt", [
    pytest.param(lambda: _chain(phi=math.pi / 2), lambda: _chain(phi=-math.pi / 2), 0.25,
                 id="open_chain"),
    pytest.param(lambda: _chain(n=24, boundary="periodic"),
                 lambda: _chain(n=24, phi=0.3, boundary="periodic"), 0.25, id="periodic_chain"),
    pytest.param(lambda: _saw(), lambda: _saw(theta=math.pi / 4), 0.25, id="sawtooth"),
    pytest.param(lambda: _sandwich(0.4), lambda: _sandwich(-0.4), 0.25, id="sandwich"),
    pytest.param(lambda: _ZERO, lambda: _ZERO, 0.25, id="zero"),
    pytest.param(lambda: _TIE, lambda: _TIE, 1.0, id="theta_tie"),
    pytest.param(lambda: _saw(j=8.0, u_b=-1j * 64.0 / 0.4, n_cells=40),
                 lambda: _saw(j=8.0, u_b=-1j * 64.0 / 0.4, n_cells=40, theta=math.pi / 4), 1.0,
                 id="stiff_split"),
])
def test_propagator_bitwise_equals_gap_by_gap_expm_multiply(before, after, sample_dt):
    # the off-grid switch at 3.1 adds gaps 0.1 and 0.15 (or 0.1 and 0.9) to
    # sample_dt; every state must match scipy's expm_multiply bit for bit,
    # which also guards the scipy theta table the propagator sizes steps from
    h1, h2 = before(), after()
    rng = np.random.default_rng(3)
    amps = rng.normal(size=h1.dim) + 1j * rng.normal(size=h1.dim)
    amps[::3] = complex(-0.0, -0.0)  # signed zeros that the final eta * f must keep
    c0 = StateVector(amps, h1.site_labels)
    traj = evolve_schedule([(0.0, h1), (3.1, h2)], c0, 5.0, sample_dt)
    want = reference.expm_multiply_schedule([(0.0, reference.csr(h1)), (3.1, reference.csr(h2))],
                                            c0.amplitudes, 5.0, sample_dt, STEP_NORM_LIMIT)
    assert traj.amplitudes.shape == want.shape
    assert traj.amplitudes.tobytes() == want.tobytes()


def test_gain_runaway_guard_catches_non_finite_amplitudes():
    # growth e^{4000 t} overflows to inf inside the first sample gap
    h = _single_site_h(4000j)
    c0 = StateVector(np.array([1.0 + 0j]), np.array([0]))
    with pytest.raises(GainRunawayError, match="inf"):
        evolve_exact(h, c0, 1.0, 0.25)


def test_exact_gain_runaway_guard():
    h = _single_site_h(40j)
    c0 = StateVector(np.array([1.0 + 0j]), np.array([0]))
    with pytest.raises(GainRunawayError):
        evolve_exact(h, c0, 10.0, 0.25)


@pytest.mark.parametrize("n", [1, 17, 240, 30001])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf, complex(0.0, -np.inf),
                                 1.5e150])
def test_checked_finds_a_runaway_amplitude_at_any_site(n, where, bad):
    # its max is the modulus at argmax, which returns the first NaN
    state = np.full(n, 1e150 * (0.6 + 0.8j))  # modulus 1e150: at the limit, not beyond
    assert _checked(state) is state
    state[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = bad
    with pytest.raises(GainRunawayError, match="exceeds 1e\\+150"):
        _checked(state)


def test_checked_accepts_an_all_zero_state():
    state = np.zeros(240, dtype=complex)
    assert _checked(state) is state


@pytest.mark.parametrize("peak", [1e200, 1e152, complex(1e308, 1e308)])
def test_initial_state_beyond_the_overflow_limit_is_a_gain_runaway(peak):
    # |c|^2 of 1e200 overflows in StateVector.norm, |1e308 + 1e308j| in abs;
    # 1e152 decays below the limit by the first sample, yet would have been
    # returned as sample 0
    lossy = reference.operator(-40j * np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1), np.arange(5))
    c0 = StateVector(np.array([0.0, 0.5, peak, 0.5, 0.0], dtype=complex), np.arange(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GainRunawayError, match="amplitude magnitude"):
            evolve_exact(lossy, c0, 1.0, 0.25)


@pytest.mark.parametrize("gap", [512.0, 4096.0])
@pytest.mark.parametrize("diagonal, hop", [(2.0**1016, 0.0), (2.0**1017, 1.0)],
                         ids=["entries overflow", "trace overflows"])
def test_a_sub_step_past_the_double_range_is_a_step_count_error(gap, diagonal, hop):
    # the trace-shifted norm is small, so 1 to 137 sub-steps suffice, but each
    # scaled diagonal entry (diagonal * gap / n), or only their sum, overflows:
    # a NaN norm, which the Taylor-degree choice cannot take
    m = diagonal * np.eye(8) + hop * (np.eye(8, k=1) + np.eye(8, k=-1))
    h = reference.operator(m, np.arange(8))
    c0 = StateVector(np.eye(8, dtype=complex)[3], np.arange(8))
    with pytest.raises(StepCountError, match=rf"^a sample gap of {gap!r} in \d+ sub-steps "
                                             r"\(limit 1000\) overflows the double range$"):
        evolve_exact(h, c0, gap, gap)


def test_norm_underflow_names_first_zero_intensity_sample():
    # S(t) = e^{-40 t} rounds to 0 below 2^-1075, i.e. for t > 18.63:
    # S(18.5) ~ 4e-322 is still subnormal, S(18.75) ~ 5e-326 is 0
    h = _single_site_h(-20j)
    c0 = StateVector(np.array([1.0 + 0j]), np.array([0]))
    assert evolve_exact(h, c0, 18.5, 0.25).norm_series[-1] > 0.0
    with pytest.raises(NormUnderflowError, match=r"at t = 18\.75;"):
        evolve_exact(h, c0, 30.0, 0.25)


def test_initial_check_tells_a_zero_state_from_an_underflowing_one():
    # Sum |c|^2 of [1e-170, 1e-171] underflows to 0, yet the state is not zero
    h = reference.operator(np.zeros((2, 2), dtype=complex), np.arange(2))
    tiny = StateVector(np.array([1e-170, 1e-171], dtype=complex), np.arange(2))
    with pytest.raises(NormUnderflowError, match="of the initial state underflows"):
        evolve_exact(h, tiny, 1.0, 0.5)
    with pytest.raises(ValueError, match="nonzero amplitude"):
        evolve_exact(h, StateVector(np.zeros(2, dtype=complex), np.arange(2)), 1.0, 0.5)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_trajectory_rejects_a_non_finite_amplitude(bad):
    # as StateVector does; analysis.centroid_series of such a trajectory read NaN
    amps = np.array([[1.0, 0.5], [1.0, bad]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite amplitude"):
        Trajectory(times=np.array([0.0, 0.5]), amplitudes=amps, site_labels=np.arange(2),
                   norm_series=np.ones(2), method_tag="exact")


def test_vendored_theta_table_equals_installed_scipy():
    # the one import of this private name; the package holds a copy of it
    try:
        from scipy.sparse.linalg._expm_multiply import _theta
    except ImportError:
        pytest.skip(f"scipy {scipy.__version__} has no "
                    "scipy.sparse.linalg._expm_multiply._theta")
    # order matters: the degree choice takes the first minimum
    assert list(_THETA.items()) == list(_theta.items())


# ---------------------------------------------------------------- trace shift


#: entry values with exact zeros and signed-zero parts, dyadic values whose
#: sums are exact, and values that round
_ENTRY_VALUES = st.sampled_from([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                                 complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.8),
                                 1.0, -2.0, 0.25j, complex(1.0, -0.5), 0.1 + 0.3j, -1 / 3])


@st.composite
def _random_banded_operators(draw):
    """A CSR operator on n sites with columns within a drawn bandwidth of
    the diagonal, each row keeping a drawn subset of them, holding values
    from _ENTRY_VALUES, explicit zeros included.  The diagonal is drawn the
    same way (so parts may be absent), or is full with every real part -0.0,
    or is full with its mean one of its own entries, exactly, so that those
    entries cancel against mu."""
    n = draw(st.integers(1, 9))
    band = draw(st.integers(0, n - 1))
    diagonal = draw(st.sampled_from(("drawn", "negative zero", "cancel")))
    if diagonal == "negative zero":  # the trace's 0 + a_ii turns each -0.0 into +0.0
        diag = [complex(-0.0, draw(st.sampled_from([0.5, -0.8, 0.0, -0.0]))) for _ in range(n)]
    elif diagonal == "cancel":  # m + d, m - d and m about a dyadic m: sum n*m, so mu = m
        m = draw(st.sampled_from([0.5j, complex(-0.0, -0.75), 1.0, complex(0.25, -1.5)]))
        diag = [m + 0.5, m - 0.5][:n] + [m] * (n - 2)
    rows = []
    for i in range(n):
        cols = [j for j in range(max(0, i - band), min(n, i + band + 1))
                if (diagonal != "drawn" and j == i) or draw(st.booleans())]
        rows.append([(j, diag[i] if j == i and diagonal != "drawn" else draw(_ENTRY_VALUES))
                     for j in cols])
    data = np.array([v for row in rows for _, v in row], dtype=complex)
    indices = np.array([j for row in rows for j, _ in row], dtype=np.int32)
    indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows]))).astype(np.int32)
    return Operator(data, indices, indptr, np.arange(n))


@st.composite
def _trace_shift_cases(draw):
    kind = draw(st.sampled_from(("chain", "periodic_chain", "hermitian_chain", "sawtooth",
                                 "sandwich", "random")))
    phase = draw(st.floats(-math.pi, math.pi))
    if kind == "random":
        return draw(_random_banded_operators())
    if kind == "sawtooth":
        return _saw(theta=phase, u_b=complex(draw(st.sampled_from([0.0, -0.0, 2.0])),
                                             -draw(st.floats(0.5, 40.0))),
                    n_cells=draw(st.integers(2, 12)))
    if kind == "sandwich":  # core diagonal absent, boundaries and leads present
        return _sandwich(draw(st.floats(-1.0, 1.0)))
    n = draw(st.integers(3, 24))
    defects = [DefectSpec(site, draw(st.sampled_from([0.0, -0.0, 1.0])),
                          draw(st.sampled_from([0.0, -0.0, 0.8, -0.4])))
               for site in draw(st.sets(st.integers(0, n - 1), max_size=3))]
    hermitian = kind == "hermitian_chain"  # the whole diagonal absent, mu = 0
    return build_chain_hamiltonian(ChainSpec(
        kappa=1.0, beta=0.0 if hermitian else 0.4, gamma=0.0 if hermitian else
        draw(st.sampled_from([0.8, -0.3, 0.0])), phi=phase, n_sites=n, defects=defects,
        boundary="periodic" if kind == "periodic_chain" else "open"))


@given(h=_trace_shift_cases())
@settings(derandomize=True, max_examples=300)
def test_trace_shift_bitwise_equals_scipy(h):
    """mu, the CSR arrays of a - mu*I and its 1-norm are the bytes scipy
    gives: -0.0 diagonal parts turned +0.0 in the trace, mu subtracted where
    the diagonal is absent, exact zeros dropped and columns summed in row
    order."""
    want_mu, want, want_norm = reference.trace_shift(reference.csr(h))
    mu, arrays, norm = _trace_shift(h.dim, h.data, h.indices, h.indptr)
    assert np.complex128(mu).tobytes() == np.complex128(want_mu).tobytes()
    for name, got in zip(("data", "indices", "indptr"), arrays):
        expected = getattr(want, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
    assert norm.hex() == want_norm.hex()


# ---------------------------------------------------------------- Taylor stop decisions


@st.composite
def _stop_cases(draw):
    """An operator scaled so that its trace-shifted 1-norm lies anywhere
    from 1e-3 to STEP_NORM_LIMIT, where one sample gap of 1 takes every
    Taylor degree of the theta table from 5 up, and a state whose entries
    mix magnitudes from about 1e300 down to subnormal, with signed zeros."""
    kind = draw(st.sampled_from(("chain", "periodic_chain", "sawtooth", "sandwich")))
    phase = draw(st.floats(-math.pi, math.pi))
    if kind == "sawtooth":
        h = _saw(theta=phase, u_b=complex(draw(st.floats(-5.0, 5.0)), -draw(st.floats(0.5, 40.0))),
                 n_cells=draw(st.integers(2, 12)))
    elif kind == "sandwich":
        h = _sandwich(draw(st.floats(-1.0, 1.0)))
    else:
        h = _chain(n=draw(st.integers(3, 24)), phi=phase, gamma=draw(st.floats(-1.0, 1.0)),
                   boundary="periodic" if kind == "periodic_chain" else "open")
    target = STEP_NORM_LIMIT * 10.0 ** draw(st.floats(math.log10(1e-3 / STEP_NORM_LIMIT), 0.0))
    matrix = reference.csr(h) * (target / reference.trace_shift(reference.csr(h))[2])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.integers(-1074, 996))  # 2**996 ~ 7e299
    spread = draw(st.integers(0, 2100))
    parts = np.ldexp(rng.uniform(1.0, 2.0, (2, h.dim)) * rng.choice([-1.0, 1.0], (2, h.dim)),
                     np.maximum(top - rng.integers(0, spread + 1, (2, h.dim)), -1074))
    parts[rng.random((2, h.dim)) < 0.2] = -0.0
    parts[rng.random((2, h.dim)) < 0.1] = 0.0
    state = np.empty(h.dim, dtype=complex)
    state.real, state.imag = parts
    return reference.operator(matrix, h.site_labels), state


# gain that overflows 1e300 amplitudes to inf, then NaN, within the step
_OVERFLOW_CASE = (reference.operator(np.array([[60j, 1.0], [1.0, 0.0]]), np.arange(2)),
                  np.array([1e300, -1e300j]))
# max|f| swings across 2^-969: terms are skipped with tol * bound just above
# 2^-1022, and refused the skip below it
_GATE_CASE = (reference.operator(np.array([[0.0, 4.0], [4.0, 1.0]]), np.arange(2)),
              np.array([2.0**-973, -1j * 2.0**-974]))
# the first term's growth bound r * max|b| overflows, and so does the product
# on site 1, where scipy breaks; coeff * r * max|b| in the other order would
# not overflow, and site 0, which never mixes with site 1, would show a skip
_BOUND_OVERFLOW_CASE = (reference.operator(np.diag([0.0, 100.0]), np.arange(2)),
                        np.array([1.0, 1e307]))
# r, set by the far site 2's row, is about twice the growth of the pair that
# holds max|b|, so c1 + coeff * r * c1 exceeds tol * bound on a term where
# scipy breaks: only c1 alone may decide a skip
_LOOSE_BOUND_CASE = (reference.operator(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                                  [0.0, 0.0, 15.5]]), np.arange(3)),
                     np.array([1.0, -0.5j, 2.0**-24]))

# _GATE_CASE's operator and a 3-site gain chain on states at 1e-300 and below,
# subnormal parts included: tol * bound lies under 2^-1022 on every term, so
# each skip and each unchecked bound of the normal range is refused
_TINY_GAIN = reference.operator(np.array([[1.5j, 3.0, 0.0], [3.0, 0.0, 3.0], [0.0, 3.0, -1.5j]]),
                                np.arange(3))
_TINY_CASES = ((_GATE_CASE[0], np.array([1e-300, -1e-300j])),
               (_GATE_CASE[0], np.array([1e-310, -1e-310j])),
               (_TINY_GAIN, np.array([1e-315, 1e-315 + 1e-315j, 0.0])),
               (_TINY_GAIN, np.array([1e-300, 5e-324j, -1e-320])))


@given(case=_stop_cases())
@example(case=_OVERFLOW_CASE)
@example(case=_GATE_CASE)
@example(case=_BOUND_OVERFLOW_CASE)
@example(case=_LOOSE_BOUND_CASE)
@example(case=_TINY_CASES[0])
@example(case=_TINY_CASES[1])
@example(case=_TINY_CASES[2])
@example(case=_TINY_CASES[3])
@settings(derandomize=True, max_examples=120)
def test_step_stop_decisions_bitwise_equal_expm_multiply(case):
    # _Stepper computes max|f| and max|b| only where scipy's stop test might
    # pass; every break must still fall on scipy's term, so the bytes are scipy's
    h, c0 = case
    assume(reference.trace_shift(reference.csr(h))[2] <= STEP_NORM_LIMIT)  # one expm_multiply call
    with np.errstate(all="ignore"):
        got = _Stepper(h)(1.0, c0)
        want = reference.expm_multiply_schedule([(0.0, reference.csr(h))], c0, 1.0, 1.0,
                                                STEP_NORM_LIMIT)[-1]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", _TINY_CASES, ids=range(len(_TINY_CASES)))
def test_below_the_normal_range_every_term_takes_scipy_maxima(case, monkeypatch):
    # where tol * bound is under 2^-1022 the running bound is not trusted (the
    # two >= _NORMAL_MIN gates of _Stepper): no term's max|b| is skipped and
    # max|f| is taken on every term, as in scipy's loop (reference.taylor_loop),
    # whose maxima are counted here on the same set-up: one max|b| at each
    # scaling step, then max|b| and max|f| on each term up to the break
    h, c0 = case
    stepper = _Stepper(h)
    stepper(1.0, c0)  # the set-up's own np.abs calls are done
    op, steps, coeffs, eta = stepper.steps[1.0][:4]
    calls = []
    real_abs = np.abs
    monkeypatch.setattr(np, "abs", lambda *args: calls.append(1) or real_abs(*args))
    with np.errstate(all="ignore"):
        got = stepper(1.0, c0)
        taken = len(calls)
        f = reference.taylor_loop(op.matvec, steps, coeffs, eta, np.array(c0, dtype=complex))
    assert taken > 0 and taken == len(calls) - taken
    assert got.tobytes() == f.tobytes()


def test_step_leaves_its_input_and_returns_a_fresh_array():
    h = _chain(n=9)
    stepper, c0 = _Stepper(h), _delta(h).amplitudes.copy()
    kept = c0.tobytes()
    first, second = stepper(0.5, c0), stepper(0.5, c0)
    assert c0.tobytes() == kept
    assert first.tobytes() == second.tobytes()
    for a, b in ((first, second), (first, c0), (second, c0)):
        assert not np.shares_memory(a, b)


def test_complex_abs_error_within_step_bound_assumption():
    # _Stepper's running bound on max|f| assumes numpy's complex abs on arrays
    # (where numpy may use a SIMD loop) is within 2^-50 of the modulus,
    # relative, plus 2^-1074 absolute; checked here in exact rationals
    rng = np.random.default_rng(9)
    n = 2000
    exps = rng.integers(-1074, 997, n)
    z = np.empty(n, dtype=complex)
    z.real = np.ldexp(rng.uniform(1.0, 2.0, n), exps) * rng.choice([-1.0, 1.0], n)
    z.imag = np.ldexp(rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n),
                      np.clip(exps + rng.integers(-30, 31, n), -1074, 996))
    e, d = Fraction(2) ** -50, Fraction(2) ** -1074
    for x, y, r in zip(z.real.tolist(), z.imag.tolist(), np.abs(z).tolist()):
        mod2 = Fraction(x) ** 2 + Fraction(y) ** 2
        r = Fraction(r)
        # (1 - e)|z| - d <= r <= (1 + e)|z| + d, squared
        assert r <= d or (r - d) ** 2 <= (1 + e) ** 2 * mod2
        assert (r + d) ** 2 >= (1 - e) ** 2 * mod2


#: moduli with NaN, inf and overflow (|1e308 + 1e308i|), subnormals, signed
#: zeros and values whose moduli tie (1, -1, 1j; 3.5 and 3.5 + 0i)
_MAX_VALUES = st.sampled_from([np.nan, complex(np.nan, 1.0), complex(0.0, -np.nan), np.inf,
                               -np.inf, complex(np.nan, np.inf), 5e-324, 2.0**-1070,
                               complex(5e-324, 5e-324), 0.0, -0.0, complex(-0.0, -0.0), 1.0,
                               -1.0, 1j, 3.5, complex(3.5, 0.0), complex(1e308, 1e308)])


@given(values=st.lists(_MAX_VALUES, min_size=1, max_size=300),
       spread=st.sampled_from([0, 1, 40]))
@settings(derandomize=True, max_examples=300)
def test_loop_max_equals_numpy_max_bitwise(values, spread):
    # _Stepper and _checked take max|x| as the modulus at argmax, which
    # returns the first NaN; spread sets the drawn values among that many
    # ordinary ones each, so that numpy's SIMD loops see long arrays
    x = np.linspace(0.0, 2.0, (spread + 1) * len(values)) * (1 - 1j)
    x[::spread + 1] = values
    mag = np.empty(x.size)
    with np.errstate(over="ignore"):
        got = float(np.abs(x, mag)[mag.argmax()])
        want = float(np.abs(x).max())
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------- reference rk4


@pytest.mark.parametrize("phi,beta,gamma", [
    (math.pi / 2, 0.4, 0.8),
    (0.0, 0.4, 0.8),
    (0.0, 0.0, 0.0),
])
def test_rk4_matches_exact(phi, beta, gamma):
    h = _chain(n=61, phi=phi, beta=beta, gamma=gamma)
    c0 = _delta(h)
    tr_e = evolve_exact(h, c0, 12.0, 0.25)
    tr_r = reference.rk4([(0.0, reference.csr(h).toarray())], c0.amplitudes, 12.0, 1e-3, 0.25)
    assert np.max(np.abs(tr_e.amplitudes - tr_r)) < 1e-8


def test_rk4_hermitian_norm_conservation():
    # small Hermitian chain over t*kappa = 50: the reference RK4 at dt = 1e-3
    # and the package propagator both keep the norm
    h = _chain(n=21, beta=0.0, gamma=0.0, phi=0.0)
    c0 = _delta(h)
    states = reference.rk4([(0.0, reference.csr(h).toarray())], c0.amplitudes, 50.0, 1e-3, 1.0)
    rk4_norms = np.sum(np.abs(states) ** 2, axis=1)
    for norms in (rk4_norms, evolve_exact(h, c0, 50.0, 1.0).norm_series):
        drift = norms[-1] / norms[0]
        assert 1 - 1e-6 <= drift <= 1 + 1e-6


def test_long_chain_matches_closed_form_propagator():
    # N = 3001, past any dense oracle: a wide non-reciprocal packet against the
    # infinite chain's Bessel propagator, at the benchmark's long_chain limit
    n = 3001
    spec = ChainSpec(n_sites=n, phi=math.pi / 2, index_origin=-(n // 2), **NH)
    c0 = make_excitation(ExcitationSpec(kind="gaussian", n0=2, w0=n / 16, q0=-math.pi / 2),
                         spec.site_labels)
    traj = evolve_exact(build_chain_hamiltonian(spec), c0, 5.0, 0.25)
    ref = reference.bessel_chain(c0.amplitudes, traj.times, phi=math.pi / 2, **NH)
    error = np.max(np.abs(traj.amplitudes - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert float(np.max(error)) <= 1e-8


# ---------------------------------------------------------------- schedules


def test_single_segment_schedule_equals_exact_bitwise():
    h = _chain(n=41)
    c0 = _delta(h)
    direct = evolve_exact(h, c0, 6.0, 0.5)
    sched = evolve_schedule([(0.0, h)], c0, 6.0, 0.5)
    assert np.array_equal(direct.amplitudes, sched.amplitudes)


def test_identical_segments_splice_identity():
    h = _chain(n=41)
    c0 = _delta(h)
    one = evolve_exact(h, c0, 6.0, 0.5)
    two = evolve_schedule([(0.0, h), (3.0, h)], c0, 6.0, 0.5)
    assert np.array_equal(one.amplitudes, two.amplitudes)


def test_quench_continuity_state_unchanged_at_switch():
    h1 = _chain(n=41, phi=math.pi / 2)
    h2 = _chain(n=41, phi=-math.pi / 2)
    c0 = _delta(h1)
    sched = [(0.0, h1), (3.0, h2)]
    spliced = evolve_schedule(sched, c0, 6.0, 0.5)
    first_leg = evolve_exact(h1, c0, 3.0, 0.5)
    k_switch = spliced.index_at_time(3.0)
    assert np.array_equal(spliced.amplitudes[k_switch], first_leg.amplitudes[-1])


def test_schedule_exact_matches_rk4():
    h1 = _chain(n=41, phi=math.pi / 2)
    h2 = _chain(n=41, phi=-math.pi / 2)
    c0 = _delta(h1)
    sched = [(0.0, h1), (3.0, h2)]
    tr_e = evolve_schedule(sched, c0, 6.0, 0.5)
    tr_r = reference.rk4([(0.0, reference.csr(h1).toarray()), (3.0, reference.csr(h2).toarray())],
                         c0.amplitudes, 6.0, 1e-3, 0.5)
    assert np.max(np.abs(tr_r - tr_e.amplitudes)) < 1e-8


def test_schedule_off_grid_switch_matches_dense_expm():
    h1 = _chain(n=41, phi=math.pi / 2)
    h2 = _chain(n=41, phi=-math.pi / 2)
    c0 = _delta(h1)
    # 3.1 lies between the samples 3.0 and 3.25 and is kept exactly
    sched = [(0.0, h1), (3.1, h2)]
    traj = evolve_schedule(sched, c0, 6.0, 0.25)
    d1, d2 = reference.csr(h1).toarray(), reference.csr(h2).toarray()
    want = reference.expm_schedule([(0.0, d1), (3.1, d2)], c0.amplitudes, traj.times)
    assert np.max(np.abs(traj.amplitudes - want)) < 1e-10


def test_schedule_three_segments():
    h1 = _chain(n=41, phi=math.pi / 2)
    h2 = _chain(n=41, phi=-math.pi / 2)
    c0 = _delta(h1)
    sched = [(0.0, h1), (2.0, h2), (4.0, h1)]
    tr_e = evolve_schedule(sched, c0, 6.0, 0.5)
    d1, d2 = reference.csr(h1).toarray(), reference.csr(h2).toarray()
    tr_r = reference.rk4([(0.0, d1), (2.0, d2), (4.0, d1)], c0.amplitudes, 6.0, 1e-3, 0.5)
    assert np.max(np.abs(tr_r - tr_e.amplitudes)) < 1e-8


def test_schedule_validation():
    h = _chain(n=11)
    c0 = _delta(h, n0=-5)
    with pytest.raises(ValueError):
        evolve_schedule([], c0, 2.0, 0.5)
    with pytest.raises(ValueError):
        evolve_schedule([(1.0, h)], c0, 2.0, 0.5)
    with pytest.raises(ValueError):
        evolve_schedule([(0.0, h), (0.0, h)], c0, 2.0, 0.5)
    other = _chain(n=13)
    with pytest.raises(ValueError):
        evolve_schedule([(0.0, h), (1.0, other)], c0, 2.0, 0.5)
    with pytest.raises(ValueError):
        evolve_schedule([(0.0, h), (5.0, h)], c0, 2.0, 0.5)


#: switch offsets from a sample time: inside the 1e-9 snap window, and just outside it
_NEAR_SAMPLE = st.sampled_from([-9e-10, -1e-10, 0.0, 1e-10, 9e-10, -3e-9, 2e-9])
#: shifted 1-norms of a full gap's step: any, one where degrees 40 and 50 tie in
#: cost (29.7 < norm <= 30), and ones past STEP_NORM_LIMIT, split in 2 to 3 sub-steps
_GAP_NORMS = st.one_of(st.none(), st.floats(29.75, 29.98), st.floats(61.0, 170.0))


@st.composite
def _schedule_cases(draw):
    """1-3 (t_start, operator) pairs on one set of sites, a state whose entries
    include signed zeros, and a non-dyadic sample_dt.  The operators are open
    or periodic chains with defects and sandwiches on up to 40 sites, or
    sawtooths on up to 20 cells, all scaled so that a full gap under the
    first has a drawn shifted 1-norm (_GAP_NORMS).  Switch times fall between
    samples or within a few 1e-9 of one."""
    phase = st.floats(-math.pi, math.pi)
    if draw(st.booleans()):
        n_cells = draw(st.integers(2, 20))

        def operator():
            return _saw(theta=draw(phase), j=draw(st.floats(0.5, 8.0)), n_cells=n_cells,
                        u_b=complex(draw(st.floats(-5.0, 5.0)), -draw(st.floats(0.5, 40.0))))
    else:
        n = draw(st.integers(9, 40))
        origin = -(n // 2)

        def operator():
            kind = draw(st.sampled_from(("open", "periodic", "sandwich")))
            chain = ChainSpec(kappa=1.0, beta=0.4, gamma=draw(st.floats(-0.3, 1.0)),
                              phi=draw(phase), n_sites=n, index_origin=origin,
                              boundary="periodic" if kind == "periodic" else "open",
                              defects=[DefectSpec(site, draw(st.floats(-1.0, 1.0)),
                                                  draw(st.floats(-0.5, 0.5)))
                                       for site in draw(st.sets(st.integers(origin, origin + n - 1),
                                                                max_size=3))])
            if kind != "sandwich":
                return build_chain_hamiltonian(chain)
            return build_sandwich_hamiltonian(SandwichSpec(
                chain=replace(chain, defects=()), n_half=draw(st.integers(1, (n - 1) // 2 - 1)),
                q0=draw(phase), v_c=draw(st.floats(-1.0, 1.0)), xi=draw(st.floats(-1.0, 0.5))))
    sample_dt = draw(st.floats(0.05, 1.0))
    gap_norm = draw(_GAP_NORMS)
    samples = draw(st.integers(1, 8 if gap_norm is None else 3))
    t_final = (samples + draw(st.sampled_from([0.0, 0.37]))) * sample_dt
    starts = [0.0]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):  # off the sample grid
            starts.append((draw(st.integers(0, samples - 1)) + draw(st.floats(0.01, 0.99)))
                          * sample_dt)
        else:
            starts.append(draw(st.integers(1, samples)) * sample_dt + draw(_NEAR_SAMPLE))
    starts = sorted(set(starts))
    ops = [operator() for _ in starts]
    scale = (1.0 if gap_norm is None else
             gap_norm / sample_dt / reference.trace_shift(reference.csr(ops[0]))[2])
    segments = [(t_start, reference.operator(reference.csr(h) * scale, h.site_labels))
                for t_start, h in zip(starts, ops)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = ops[0].dim
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps[rng.random(dim) < 0.3] = draw(st.sampled_from(
        [complex(-0.0, -0.0), complex(-0.0, 0.5), complex(0.25, -0.0)]))
    return segments, StateVector(amps, ops[0].site_labels), max(t_final, starts[-1]), sample_dt


@given(case=_schedule_cases())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_drawn_schedules_bitwise_equal_gap_by_gap_expm_multiply(case):
    """Every sample is scipy's expm_multiply carried gap by gap, bit for bit,
    and lies within 1e-10 (2-norm, relative) of dense expm where the growth
    bound e^(omega t) stays below 1e6, omega being the largest numerical
    abscissa (top eigenvalue of (H - H^+)/2i) of the schedule's operators."""
    segments, c0, t_final, sample_dt = case
    dense = [(t_start, reference.csr(h).toarray()) for t_start, h in segments]
    spread = [np.linalg.eigvalsh((d - d.conj().T) / 2j) for _, d in dense]
    omega, floor = max(e[-1] for e in spread), min(e[0] for e in spread)
    # |c(t)| lies within e^(floor t) and e^(omega t) of |c0|: no run-away, no underflow
    assume(-300.0 < floor * t_final and omega * t_final < 300.0)
    traj = evolve_schedule(segments, c0, t_final, sample_dt)
    sparse = [(t_start, reference.csr(h)) for t_start, h in segments]
    want = reference.expm_multiply_schedule(sparse, c0.amplitudes, t_final, sample_dt,
                                            STEP_NORM_LIMIT)
    assert traj.amplitudes.tobytes() == want.tobytes()
    if omega * t_final < math.log(1e6):
        # a switch within 1e-9 of a sample acts at it: give dense expm that time too
        snapped = [(float(traj.times[np.argmin(np.abs(traj.times - t))])
                    if np.min(np.abs(traj.times - t)) <= 1e-9 else t, d) for t, d in dense]
        exact = reference.expm_schedule(snapped, c0.amplitudes, traj.times)
        error = np.linalg.norm(traj.amplitudes - exact, axis=1)
        assert np.all(error <= 1e-10 * np.linalg.norm(exact, axis=1))


# ---------------------------------------------------------------- invariants


def test_propagator_linearity():
    h = _chain(n=31)
    labels = h.site_labels
    rng = np.random.default_rng(7)
    a = rng.normal(size=31) + 1j * rng.normal(size=31)
    b = rng.normal(size=31) + 1j * rng.normal(size=31)
    alpha, mu = 0.3 - 0.2j, -1.1 + 0.4j
    run = lambda v: evolve_exact(h, StateVector(v, labels), 5.0, 1.0).amplitudes
    combined = run(alpha * a + mu * b)
    separate = alpha * run(a) + mu * run(b)
    assert np.max(np.abs(combined - separate)) < 1e-9


def test_norm_monotone_purely_dissipative():
    spec = ChainSpec(phi=math.pi / 2, n_sites=61, index_origin=-30, **NH)
    assert spec.gamma >= 2.0 * spec.beta  # no Bloch mode is net-amplified
    h = build_chain_hamiltonian(spec)
    traj = evolve_exact(h, _delta(h), 15.0, 0.25)
    s = traj.norm_series
    assert np.all(s[1:] <= s[:-1] * (1 + 1e-12))


def test_global_phase_covariance_exact_for_quarter_turn():
    h = _chain(n=31)
    labels = h.site_labels
    rng = np.random.default_rng(3)
    v = rng.normal(size=31) + 1j * rng.normal(size=31)
    base = evolve_exact(h, StateVector(v, labels), 4.0, 0.5)
    rotated = evolve_exact(h, StateVector(1j * v, labels), 4.0, 0.5)
    assert np.array_equal(rotated.amplitudes, 1j * base.amplitudes)


@given(alpha=st.floats(-math.pi, math.pi))
@settings(max_examples=8)
def test_global_phase_covariance_general(alpha):
    h = _chain(n=21)
    labels = h.site_labels
    v = np.exp(-np.linspace(-2, 2, 21) ** 2) + 0j
    phase = np.exp(1j * alpha)
    base = evolve_exact(h, StateVector(v, labels), 2.0, 0.5)
    rotated = evolve_exact(h, StateVector(phase * v, labels), 2.0, 0.5)
    assert np.max(np.abs(rotated.amplitudes - phase * base.amplitudes)) < 1e-13


def test_trajectory_norm_series_consistent():
    h = _chain(n=31)
    traj = evolve_exact(h, _delta(h), 5.0, 0.5)
    for k in range(traj.n_samples):
        recomputed = float(np.sum(np.abs(traj.amplitudes[k]) ** 2))
        assert traj.norm_series[k] == pytest.approx(recomputed, rel=1e-12)


# ---------------------------------------------------------------- profile


def test_profile_delta():
    c = StateVector(np.array([0, 1.0, 0], dtype=complex), np.arange(3))
    assert np.array_equal(normalized_profile(c.amplitudes), [0, 1.0, 0])


def test_profile_equal_moduli():
    c = StateVector(np.array([3.0, 3.0j]), np.array([0, 1]))
    assert np.allclose(normalized_profile(c.amplitudes), [1 / math.sqrt(2)] * 2)


def test_profile_scale_invariance():
    rng = np.random.default_rng(11)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    c = StateVector(v, np.arange(9))
    scaled = StateVector(v * (0.02 - 1.7j), np.arange(9))
    assert np.allclose(normalized_profile(c.amplitudes), normalized_profile(scaled.amplitudes),
                       atol=1e-12)
    rotated = StateVector(1j * v, np.arange(9))
    assert np.array_equal(normalized_profile(c.amplitudes), normalized_profile(rotated.amplitudes))


def test_profile_rejects_zero_state():
    c = StateVector(np.zeros(4, dtype=complex), np.arange(4))
    with pytest.raises(ValueError):
        normalized_profile(c.amplitudes)
    rows = np.ones((3, 4), dtype=complex)
    rows[1] = 0.0  # one zero-norm sample among the rows
    with pytest.raises(ValueError, match="zero-norm"):
        normalized_profile(rows)
