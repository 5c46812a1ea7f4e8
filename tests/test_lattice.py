import cmath
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from nhlattice import (
    ChainSpec,
    DefectSpec,
    Operator,
    SandwichSpec,
    SawtoothSpec,
    adiabatic_reduce,
    build_chain_hamiltonian,
    build_sandwich_hamiltonian,
    build_sawtooth_hamiltonian,
    dispersion,
    group_velocity,
    reduce_phase,
)
from nhlattice.lattice import _banded_csr
from nhlattice.protocols import ADIABATICITY_WARN_THRESHOLD

import reference
from reference import dense_chain, dense_sandwich, dense_sawtooth

NH = dict(kappa=1.0, beta=0.4, gamma=0.8)

finite_phases = st.floats(-math.pi, math.pi)
small_rates = st.floats(0.0, 2.0)


# ---------------------------------------------------------------- operator


@pytest.mark.parametrize("matrix, labels", [
    # CSR arrays hold no shape: a matrix shows itself non-square by an entry past the last column
    (scipy.sparse.csr_array(([1.0], [2], [0, 1, 1]), shape=(2, 3)), np.arange(2)),
    (scipy.sparse.eye_array(3, format="csr"), np.arange(2)),
    (scipy.sparse.csr_array(np.array([[1.0, math.nan], [0.0, 1.0]])), np.arange(2)),
    (scipy.sparse.csr_array(np.array([[1.0, 0.0], [math.inf, 1.0]])), np.arange(2)),
], ids=["non_square", "label_count", "nan_entry", "inf_entry"])
def test_operator_rejects_bad_inputs(matrix, labels):
    with pytest.raises(ValueError):
        reference.operator(matrix, labels)


#: a valid 3-site operator's CSR arrays; each case below breaks one of them
_CSR = dict(data=[1.0, 2.0, 3.0, 4.0], indices=[0, 1, 1, 2], indptr=[0, 2, 3, 4],
            site_labels=[0, 1, 2])


@pytest.mark.parametrize("change, message", [
    ({"indices": [0, 1, 1]}, "equal length"),
    ({"data": [[1.0, 2.0], [3.0, 4.0]]}, "equal length"),
    ({"indices": [0.0, 1.0, 1.0, 2.0]}, "integer arrays"),
    ({"indptr": [0, 2, 4]}, r"len\(site_labels\) \+ 1 = 4"),
    ({"site_labels": [[0, 1, 2]]}, "1-D"),
    ({"indptr": [1, 2, 3, 4]}, "rise from 0"),
    ({"indptr": [0, 3, 2, 4]}, "rise from 0"),
    ({"indptr": [0, 2, 3, 3]}, "rise from 0 to the entry count 4"),
    ({"indices": [0, 1, -1, 2]}, r"lie in \[0, 3\)"),
    ({"indices": [0, 1, 1, 3]}, r"lie in \[0, 3\)"),
    ({"indices": [1, 0, 1, 2]}, "strictly ascend"),
    ({"indices": [0, 0, 1, 2]}, "strictly ascend"),
    ({"indptr": [0, 0, 2, 4], "indices": [0, 1, 2, 1]}, "strictly ascend"),
], ids=["indices_length", "data_2d", "float_indices", "indptr_length", "labels_2d",
        "indptr_start", "indptr_decreases", "indptr_end", "negative_index", "index_past_n",
        "unsorted_row", "repeated_column", "unsorted_last_row_after_an_empty_row"])
def test_operator_checks_its_csr_arrays(change, message):
    # the kernel reads without bounds checks: the constructor raises before any
    # product (test_operator_rejects_bad_inputs has the label count and non-finite entries)
    assert Operator(**_CSR).matvec(np.ones(3)).tolist() == [3.0, 3.0, 4.0]
    with pytest.raises(ValueError, match=message):
        Operator(**{**_CSR, **change})


def test_operator_is_read_only():
    h = reference.operator(scipy.sparse.eye_array(3, format="csr"), [4, 5, 6])
    assert h.dim == 3
    assert h.data.dtype == complex
    for arr in (h.data, h.indices, h.indptr, h.site_labels):
        with pytest.raises(ValueError):
            arr[0] = 7


_MATVEC_OPERATORS = {
    "chain": lambda: build_chain_hamiltonian(ChainSpec(phi=0.7, n_sites=31, **NH)),
    "periodic_chain": lambda: build_chain_hamiltonian(
        ChainSpec(phi=0.7, n_sites=31, boundary="periodic", **NH)),
    "sawtooth": lambda: build_sawtooth_hamiltonian(
        SawtoothSpec(kappa=1.0, j=2.0, theta=0.4, gamma_a=0.1, u_b=-40j, n_cells=16)),
    "sandwich": lambda: build_sandwich_hamiltonian(SandwichSpec(
        chain=ChainSpec(phi=0.0, n_sites=31, index_origin=-15, **NH),
        n_half=4, q0=-math.pi / 2, v_c=1.0, xi=0.4)),
}


@pytest.mark.parametrize("kind", sorted(_MATVEC_OPERATORS))
def test_matvec_bytes_equal_sparse_matmul(kind):
    h = _MATVEC_OPERATORS[kind]()
    n = h.dim
    rng = np.random.default_rng(4)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z[::4] = complex(-0.0, -0.0)
    z[1::5] = complex(0.0, -0.0)
    wide = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    inputs = {
        "complex128": z,
        "float64": rng.normal(size=n),
        "complex64": z.astype(np.complex64),
        "strided": wide[::2],
        "negative_zeros": np.full(n, -0.0),
    }
    for name, x in inputs.items():
        got, want = h.matvec(x), reference.csr(h) @ x
        assert got.dtype == want.dtype == complex, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("shape", [(30,), (32,), (31, 1), (1, 31), ()], ids=str)
def test_matvec_rejects_wrong_shape(shape):
    h = _MATVEC_OPERATORS["chain"]()
    with pytest.raises(ValueError, match=r"shape \(31,\)"):
        h.matvec(np.ones(shape, dtype=complex))


def _assert_csr_equal_diags_array(got, bands, offsets):
    want = scipy.sparse.diags_array(bands, offsets=offsets, format="csr")
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, a, b)


_BAND_VALUES = st.sampled_from([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), 0.4j,
                                complex(-0.0, -0.8), 1.0, complex(1.0, 0.4)])


@given(n=st.integers(3, 12), layout=st.sampled_from(["tridiagonal", "ring", "pentadiagonal"]),
       data=st.data())
@settings(derandomize=True, max_examples=80)
def test_banded_csr_equals_diags_array(n, layout, data):
    """Bands drawn as one value or an array of values with exact zeros of
    either sign, in the builders' layouts: the three CSR arrays are the bytes
    diags_array gives, zeros dropped and columns ascending in the ring's
    wrapped rows too."""
    offsets = {"tridiagonal": [-1, 0, 1], "ring": [1 - n, -1, 0, 1, n - 1],
               "pentadiagonal": [-2, -1, 0, 1, 2]}[layout]
    bands = []
    for k in offsets:
        cells = st.lists(_BAND_VALUES, min_size=n - abs(k), max_size=n - abs(k))
        one_value = data.draw(st.booleans())
        bands.append(data.draw(_BAND_VALUES) if one_value else data.draw(cells))
    arrays = [np.broadcast_to(np.asarray(band, dtype=complex), (n - abs(k),))
              for band, k in zip(bands, offsets)]
    got = reference.csr(Operator(*_banded_csr(bands, offsets, n), np.arange(n)))
    _assert_csr_equal_diags_array(got, arrays, offsets)


@given(kind=st.sampled_from(["chain", "hermitian_chain", "ring", "sawtooth", "sandwich"]),
       n=st.integers(3, 14), phase=finite_phases, rate=st.floats(0.0, 1.0))
@settings(derandomize=True, max_examples=100)
def test_builders_csr_equal_diags_array_of_their_diagonals(kind, n, phase, rate):
    """Each builder's CSR arrays are the bytes diags_array gives for the
    diagonals of its own matrix: all-zero Hermitian diagonals, the sawtooth's
    zeros on b rows, periodic rings from n = 3 and sandwiches."""
    if kind == "sawtooth":
        h = build_sawtooth_hamiltonian(SawtoothSpec(kappa=1.0, j=0.5 + rate, theta=phase,
                                                    gamma_a=rate, u_b=-40j, n_cells=n))
    elif kind == "sandwich":
        h = build_sandwich_hamiltonian(SandwichSpec(
            chain=ChainSpec(phi=0.0, n_sites=2 * n + 3, index_origin=-(n + 1), **NH),
            n_half=n, q0=phase, v_c=rate, xi=0.4))
    else:
        hermitian = kind == "hermitian_chain"
        h = build_chain_hamiltonian(ChainSpec(
            kappa=1.0, beta=0.0 if hermitian else rate, gamma=0.0 if hermitian else 2 * rate,
            phi=phase, n_sites=n, boundary="periodic" if kind == "ring" else "open"))
    m = reference.csr(h)
    dense = np.zeros(m.shape, dtype=complex)  # toarray() would sum -0.0 into +0.0
    dense[np.repeat(np.arange(h.dim), np.diff(m.indptr)), m.indices] = m.data
    offsets = list(range(1 - h.dim, h.dim))
    _assert_csr_equal_diags_array(m, [np.diagonal(dense, k) for k in offsets], offsets)


# ---------------------------------------------------------------- chain


def test_chain_example_nonhermitian():
    h = build_chain_hamiltonian(ChainSpec(phi=math.pi / 2, n_sites=3, **NH))
    assert np.allclose(reference.csr(h).diagonal(), [-0.8j, -0.8j, -0.8j], atol=1e-15)
    assert np.allclose(reference.csr(h).diagonal(1), [0.6, 0.6], atol=1e-15)
    assert np.allclose(reference.csr(h).diagonal(-1), [1.4, 1.4], atol=1e-15)


def test_chain_example_hermitian_limit():
    h = build_chain_hamiltonian(ChainSpec(kappa=1, beta=0, gamma=0, phi=1.3, n_sites=4))
    dense = reference.csr(h).toarray()
    assert np.array_equal(dense, dense.conj().T)
    assert np.allclose(np.diag(dense), 0)
    assert np.allclose(np.diag(dense, 1), 1.0)


def test_chain_example_defect_site():
    spec = ChainSpec(phi=math.pi / 2, n_sites=31, index_origin=0,
                     defects=(DefectSpec(10, 2.0, 0.0),), **NH)
    h = build_chain_hamiltonian(spec)
    assert reference.csr(h).diagonal()[10] == pytest.approx(2.0 - 0.8j)
    assert np.allclose(np.delete(reference.csr(h).diagonal(), 10), -0.8j)


def test_chain_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ChainSpec(kappa=0.0, beta=0, gamma=0, phi=0, n_sites=4)
    with pytest.raises(ValueError):
        ChainSpec(kappa=1, beta=-0.1, gamma=0, phi=0, n_sites=4)
    with pytest.raises(ValueError):
        ChainSpec(kappa=1, beta=0, gamma=math.nan, phi=0, n_sites=4)
    with pytest.raises(ValueError):
        ChainSpec(kappa=1, beta=0, gamma=0, phi=0, n_sites=4,
                  defects=(DefectSpec(99, 1.0, 0.0),))
    with pytest.raises(ValueError):
        ChainSpec(kappa=1, beta=0, gamma=0, phi=0, n_sites=4,
                  defects=(DefectSpec(1, 1.0, 0.0), DefectSpec(1, 2.0, 0.0)))


def test_phase_stored_reduced():
    spec = ChainSpec(kappa=1, beta=0.2, gamma=0, phi=2 * math.pi + 0.3, n_sites=4)
    assert spec.phi == pytest.approx(0.3)
    assert reduce_phase(-math.pi) == math.pi
    assert reduce_phase(math.pi) == math.pi


@given(
    beta=small_rates,
    gamma=st.floats(-1.0, 2.0),
    phi=finite_phases,
    n=st.integers(2, 12),
    periodic=st.booleans(),
)
def test_chain_matches_reference_dense(beta, gamma, phi, n, periodic):
    if periodic and n < 3:
        n = 3
    spec = ChainSpec(kappa=1.0, beta=beta, gamma=gamma, phi=phi, n_sites=n,
                     index_origin=-2, boundary="periodic" if periodic else "open")
    h = build_chain_hamiltonian(spec)
    want = dense_chain(1.0, beta, gamma, spec.phi, list(spec.site_labels), periodic=periodic)
    assert np.array_equal(reference.csr(h).toarray(), want)


def test_chain_defects_match_reference_dense():
    defects = ((3, 2.0, 0.0), (-1, -0.5, 0.3))
    spec = ChainSpec(phi=math.pi / 4, n_sites=9, index_origin=-4,
                     defects=tuple(DefectSpec(*d) for d in defects), **NH)
    got = reference.csr(build_chain_hamiltonian(spec)).toarray()
    want = dense_chain(1.0, 0.4, 0.8, spec.phi, list(spec.site_labels), defects=defects)
    assert np.array_equal(got, want)


def test_hermitian_detection_iff():
    def is_hermitian(spec):
        dense = reference.csr(build_chain_hamiltonian(spec)).toarray()
        return np.array_equal(dense, dense.conj().T)

    base = dict(kappa=1.0, phi=0.7, n_sites=6)
    assert is_hermitian(ChainSpec(beta=0.0, gamma=0.0, **base))
    assert not is_hermitian(ChainSpec(beta=0.1, gamma=0.0, **base))
    assert not is_hermitian(ChainSpec(beta=0.0, gamma=0.1, **base))
    assert not is_hermitian(ChainSpec(beta=0.0, gamma=0.0,
                                      defects=(DefectSpec(2, 0.0, 0.2),), **base))
    assert is_hermitian(ChainSpec(beta=0.0, gamma=0.0,
                                  defects=(DefectSpec(2, 1.5, 0.0),), **base))


@given(k=st.integers(0, 15), phi=finite_phases)
def test_ring_eigenmodes(k, phi):
    n = 16
    spec = ChainSpec(phi=phi, n_sites=n, boundary="periodic", **NH)
    h = build_chain_hamiltonian(spec)
    q = 2.0 * math.pi * k / n
    mode = np.exp(1j * q * spec.site_labels)
    energy = dispersion(1.0, 0.4, 0.8, spec.phi, q)
    residual = reference.csr(h) @ mode - energy * mode
    assert np.max(np.abs(residual)) <= 1e-12 * max(1.0, abs(energy))


def test_periodic_two_sites_rejected():
    with pytest.raises(ValueError):
        ChainSpec(kappa=1, beta=0, gamma=0, phi=0, n_sites=2, boundary="periodic")


# ---------------------------------------------------------------- sawtooth


def test_sawtooth_dense_theta_zero():
    saw = SawtoothSpec(kappa=1, j=1, theta=0.0, gamma_a=0.0, u_b=5.0, n_cells=2)
    dense = reference.csr(build_sawtooth_hamiltonian(saw)).toarray()
    # interleaved order (a1, b1, a2, b2)
    expected = np.array([
        [0, 1, 1, 0],
        [1, 5, 1, 0],
        [1, 1, 0, 1],
        [0, 0, 1, 5],
    ], dtype=complex)
    assert np.array_equal(dense, expected)


def test_sawtooth_phase_factors():
    saw = SawtoothSpec(kappa=1, j=1, theta=math.pi / 4, gamma_a=0.0, u_b=5.0, n_cells=3)
    dense = reference.csr(build_sawtooth_hamiltonian(saw)).toarray()
    a, b = (lambda m: 2 * m), (lambda m: 2 * m + 1)
    assert dense[b(0), a(1)] == pytest.approx(cmath.exp(1j * math.pi / 4))
    assert dense[b(0), a(0)] == pytest.approx(cmath.exp(-1j * math.pi / 4))


@given(
    theta=finite_phases,
    j=st.floats(0.1, 3.0),
    gamma_a=st.floats(0.0, 2.0),
    ub_re=st.floats(-20.0, 20.0),
    ub_im=st.floats(-20.0, 20.0),
    m=st.integers(2, 8),
)
def test_sawtooth_matches_reference_dense(theta, j, gamma_a, ub_re, ub_im, m):
    u_b = complex(ub_re, ub_im)
    if abs(u_b) == 0.0:
        u_b = 5.0
    saw = SawtoothSpec(kappa=1.0, j=j, theta=theta, gamma_a=gamma_a, u_b=u_b, n_cells=m)
    h = build_sawtooth_hamiltonian(saw)
    got = reference.csr(h).toarray()
    want = dense_sawtooth(1.0, j, theta, gamma_a, u_b, m)
    assert np.array_equal(got, want)
    # bandwidth <= 2 in the interleaved layout
    for k in range(3, 2 * m):
        assert np.all(np.diag(got, k) == 0)


def test_sawtooth_rejects_single_cell():
    with pytest.raises(ValueError):
        SawtoothSpec(kappa=1, j=1, theta=0.0, gamma_a=0.0, u_b=5.0, n_cells=1)


# ---------------------------------------------------------------- sandwich


def _sandwich(n_sites=13, origin=-6, q0=-math.pi / 2, v_c=1.0, xi=0.4, n_half=3):
    chain = ChainSpec(phi=0.0, n_sites=n_sites, index_origin=origin, **NH)
    return SandwichSpec(chain=chain, n_half=n_half, q0=q0, v_c=v_c, xi=xi)


def test_sandwich_example_rows():
    h = build_sandwich_hamiltonian(_sandwich())
    d = reference.csr(h).toarray()
    idx = lambda n: n + 6
    assert d[idx(0), idx(0)] == 0
    assert d[idx(0), idx(1)] == pytest.approx(1.0)
    assert d[idx(0), idx(-1)] == pytest.approx(1.0)
    assert d[idx(3), idx(3)] == pytest.approx(1.0 + 0.4j)
    assert d[idx(3), idx(4)] == pytest.approx(1.4)
    assert d[idx(3), idx(2)] == pytest.approx(1.0)
    assert d[idx(5), idx(5)] == pytest.approx(-0.8j)
    assert d[idx(5), idx(6)] == pytest.approx(1.4)
    assert d[idx(5), idx(4)] == pytest.approx(0.6)


def test_sandwich_phase_zero_degenerates():
    h = build_sandwich_hamiltonian(_sandwich(q0=0.0))
    d = reference.csr(h).toarray()
    outer = [i for i, lab in enumerate(h.site_labels) if abs(lab) > 3]
    for i in outer:
        if i + 1 < h.dim and abs(h.site_labels[i + 1]) > 3:
            assert d[i, i + 1] == pytest.approx(1 + 0.4j)
            assert d[i + 1, i] == pytest.approx(1 + 0.4j)


def test_sandwich_interior_rows_hermitian():
    h = build_sandwich_hamiltonian(_sandwich())
    d = reference.csr(h).toarray()
    core = [i for i, lab in enumerate(h.site_labels) if -3 < lab < 3]
    sub = d[np.ix_(core, core)]
    assert np.array_equal(sub, sub.conj().T)
    assert np.all(sub.diagonal() == 0)


@given(q0=finite_phases, xi=st.floats(-1.0, 1.0), v_c=st.floats(-2.0, 2.0),
       n_half=st.integers(1, 5), left=st.integers(1, 8), right=st.integers(1, 8))
@settings(derandomize=True, max_examples=100)
def test_sandwich_matches_reference_dense(q0, xi, v_c, n_half, left, right):
    # the two leads' lengths are drawn independently, so the extent is asymmetric
    spec = _sandwich(n_sites=left + 2 * n_half + 1 + right, origin=-(n_half + left),
                     q0=q0, v_c=v_c, xi=xi, n_half=n_half)
    h = build_sandwich_hamiltonian(spec)
    want = dense_sandwich(1.0, 0.4, 0.8, spec.q0, n_half, v_c, xi,
                          list(spec.chain.site_labels))
    assert np.array_equal(reference.csr(h).toarray(), want)


def test_sandwich_requires_containing_range():
    chain = ChainSpec(phi=0.0, n_sites=7, index_origin=-3, **NH)
    with pytest.raises(ValueError):
        SandwichSpec(chain=chain, n_half=3, q0=0.0, v_c=1.0, xi=0.0)


# ---------------------------------------------------------------- dispersion


def test_dispersion_examples():
    assert dispersion(1, 0.4, 0.8, math.pi / 2, -math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    e0 = dispersion(1, 0.4, 0.8, 0.0, 0.0)
    assert e0 == pytest.approx(2.0 + 0.0j, abs=1e-15)
    qs = np.linspace(-math.pi, math.pi, 401)
    im = dispersion(1, 0.4, 0.8, 0.0, qs).imag
    assert np.all(im[np.abs(qs) > 1e-9] < 0)
    assert dispersion(1, 0.4, 0.8, math.pi / 4, -math.pi / 4) == pytest.approx(math.sqrt(2))


def test_group_velocity_examples():
    assert group_velocity(1.0, 0.0) == 0.0
    assert group_velocity(1.0, -math.pi / 2) == pytest.approx(2.0)
    assert group_velocity(1.0, math.pi / 2) == pytest.approx(-2.0)


@given(q=finite_phases, phi=finite_phases)
def test_dispersion_symmetries(q, phi):
    e_plus = dispersion(1.0, 0.4, 0.8, phi, q)
    e_minus = dispersion(1.0, 0.4, 0.8, phi, -q)
    assert e_plus.real == pytest.approx(e_minus.real, abs=1e-12)
    mirrored = dispersion(1.0, 0.4, 0.8, -phi, -q)
    assert e_plus.imag == pytest.approx(mirrored.imag, abs=1e-12)
    assert group_velocity(1.0, q) == pytest.approx(-group_velocity(1.0, -q), abs=1e-12)


# ---------------------------------------------------------------- reduction


def test_reduce_example_hoppings():
    saw = SawtoothSpec(kappa=1, j=1, theta=math.pi / 4, gamma_a=1.6, u_b=2.5j, n_cells=4)
    red = adiabatic_reduce(saw)
    assert red.j1 == pytest.approx(0.6, abs=1e-15)
    assert red.j2 == pytest.approx(1.4, abs=1e-15)
    chain = red.to_chain_spec()
    assert chain.beta == pytest.approx(0.4)
    assert chain.phi == pytest.approx(math.pi / 2)
    got = reference.csr(build_chain_hamiltonian(chain)).toarray()
    want = reference.csr(build_chain_hamiltonian(
        ChainSpec(kappa=1, beta=0.4, gamma=0.8, phi=math.pi / 2, n_sites=4))).toarray()
    assert np.allclose(got, want, atol=1e-14)


def test_reduce_example_effective_loss():
    saw = SawtoothSpec(kappa=1, j=1, theta=0.0, gamma_a=1.6, u_b=2.5j, n_cells=5)
    red = adiabatic_reduce(saw)
    assert np.allclose(red.u_eff, -0.8j, atol=1e-15)


def test_reduce_example_real_ub_reciprocal():
    saw = SawtoothSpec(kappa=1, j=1.3, theta=0.0, gamma_a=0.0, u_b=50.0, n_cells=4)
    red = adiabatic_reduce(saw)
    assert red.j1 == red.j2
    assert red.j1.imag == pytest.approx(0.0, abs=1e-16)
    with pytest.raises(ValueError):
        red.to_chain_spec()  # reciprocal real shift is not of the chain's hopping form


def test_reduce_warning_flag():
    ok = SawtoothSpec(kappa=1, j=4, theta=0.3, gamma_a=0.0, u_b=40j, n_cells=3)
    assert ok.adiabaticity_ratio == pytest.approx(0.1)
    assert not ok.adiabaticity_ratio > ADIABATICITY_WARN_THRESHOLD
    bad = SawtoothSpec(kappa=1, j=4, theta=0.3, gamma_a=0.0, u_b=10j, n_cells=3)
    assert bad.adiabaticity_ratio > ADIABATICITY_WARN_THRESHOLD


@given(
    beta=st.floats(0.05, 1.5),
    theta=st.floats(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
    j=st.floats(0.5, 6.0),
    gamma_a=st.floats(0.0, 3.0),
    kappa=st.floats(0.2, 2.0),
)
def test_reduction_consistency(beta, theta, j, gamma_a, kappa):
    u_b = 1j * j * j / beta
    saw = SawtoothSpec(kappa=kappa, j=j, theta=theta, gamma_a=gamma_a, u_b=u_b, n_cells=5)
    chain = adiabatic_reduce(saw).to_chain_spec(index_origin=-2)
    direct = ChainSpec(kappa=kappa, beta=beta, gamma=gamma_a - 2 * beta,
                       phi=2 * theta, n_sites=5, index_origin=-2)
    got = reference.csr(build_chain_hamiltonian(chain)).toarray()
    want = reference.csr(build_chain_hamiltonian(direct)).toarray()
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_reduce_rejects_zero_ub():
    with pytest.raises(ValueError):
        SawtoothSpec(kappa=1, j=1, theta=0.0, gamma_a=0.0, u_b=0.0, n_cells=3)
