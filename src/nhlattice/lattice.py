"""Lattice parameterizations and sparse Hamiltonian builders.

Models one-dimensional tight-binding chains whose nearest-neighbour
couplings are complex, ``kappa + i*beta*exp(+/- i*phi)``, so the imaginary
part of the dispersion relation can be steered by the phase ``phi`` while
the real part (and hence the group velocity) stays fixed.  Also covered:
the quasi-1D sawtooth two-sublattice model that realizes those couplings
physically, the heterogeneous capture structure (two phase-opposed
non-Hermitian leads around a finite Hermitian segment with boundary
defects ``V_c + i*xi``), and the adiabatic elimination of the far-detuned
auxiliary sublattice.

Convention throughout::

    i dc/dt = H c

with row n of H holding the coefficients of the evolution equation of
site n.  All builders are pure functions of their specs; every value is
immutable after construction and safe to share between workers.

An Operator holds H as its CSR arrays.  scipy's compiled sparse kernels, loaded
as ``nhlattice._sparsetools`` (_load_kernel), check and multiply them with no
scipy package imported, which would be most of a run's start-up.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "DefectSpec",
    "ChainSpec",
    "SawtoothSpec",
    "SandwichSpec",
    "Operator",
    "ReducedChain",
    "build_chain_hamiltonian",
    "build_sawtooth_hamiltonian",
    "build_sandwich_hamiltonian",
    "dispersion",
    "group_velocity",
    "adiabatic_reduce",
    "reduce_phase",
]

def reduce_phase(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi!r}")
    r = math.remainder(phi, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


def _check_options(spec) -> None:
    """Reject a value outside the options its field's metadata declares."""
    for f in fields(spec):
        options = f.metadata.get("options")
        if options and getattr(spec, f.name) not in options:
            raise ValueError(f"{f.name}: {getattr(spec, f.name)!r} is not one of "
                             f"{', '.join(options)}")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name}: must be finite, got {value!r}")


@dataclass(frozen=True)
class DefectSpec:
    """On-site defect: real potential plus imaginary offset (positive = gain)."""

    site: int
    v_real: float = 0.0
    xi_imag: float = 0.0

    def __post_init__(self):
        _require_finite("v_real", self.v_real)
        _require_finite("xi_imag", self.xi_imag)


@dataclass(frozen=True)
class ChainSpec:
    """Homogeneous chain with complex hoppings kappa + i*beta*e^{+/-i*phi}.

    Sites are labeled ``index_origin .. index_origin + n_sites - 1``.
    ``gamma`` is the uniform on-site loss (may be negative for net gain);
    defects add ``v_real + i*xi_imag`` to the diagonal of their site.
    """

    kappa: float
    beta: float
    gamma: float
    phi: float
    n_sites: int
    index_origin: int = 0
    boundary: str = field(default="open", metadata={"options": ("open", "periodic")})
    defects: tuple = ()

    def __post_init__(self):
        _check_options(self)
        for name in ("kappa", "beta", "gamma"):
            _require_finite(name, getattr(self, name))
        if self.kappa <= 0:
            raise ValueError(f"kappa: must be > 0, got {self.kappa}")
        if self.beta < 0:
            raise ValueError(f"beta: must be >= 0, got {self.beta}")
        least = 3 if self.boundary == "periodic" else 2  # a 2-ring double-couples one pair
        if self.n_sites < least:
            raise ValueError(f"n_sites: must be >= {least} with boundary = {self.boundary}, "
                             f"got {self.n_sites}")
        object.__setattr__(self, "phi", reduce_phase(self.phi))
        object.__setattr__(self, "defects", tuple(self.defects))
        lo, hi = self.site_range
        seen = set()
        for d in self.defects:
            if not isinstance(d, DefectSpec):
                raise TypeError("defects must be DefectSpec instances")
            if not (lo <= d.site <= hi):
                raise ValueError(f"defects: site {d.site} outside chain [{lo}, {hi}]")
            if d.site in seen:
                raise ValueError(f"defects: duplicate site {d.site}")
            seen.add(d.site)

    @property
    def site_range(self) -> tuple:
        return (self.index_origin, self.index_origin + self.n_sites - 1)

    @property
    def site_labels(self) -> np.ndarray:
        return np.arange(self.index_origin, self.index_origin + self.n_sites)


@dataclass(frozen=True)
class SawtoothSpec:
    """Two-sublattice sawtooth model: main chain A, auxiliary sites B.

    Row a_n carries diagonal ``-i*gamma_a``, couplings ``kappa`` to
    a_{n+/-1}, ``j*e^{i*theta}`` to b_n and ``j*e^{-i*theta}`` to b_{n-1};
    row b_n carries diagonal ``u_b``, couplings ``j*e^{i*theta}`` to a_{n+1}
    and ``j*e^{-i*theta}`` to a_n.  Both sublattices have ``n_cells`` sites;
    couplings to missing neighbours at the open ends are dropped.  The
    adiabatic reduction holds while ``adiabaticity_ratio`` << 1.
    """

    kappa: float
    j: float
    theta: float
    gamma_a: float
    u_b: complex
    n_cells: int

    def __post_init__(self):
        for name in ("kappa", "j", "theta", "gamma_a"):
            _require_finite(name, getattr(self, name))
        if self.kappa <= 0:
            raise ValueError(f"kappa: must be > 0, got {self.kappa}")
        if self.j <= 0:
            raise ValueError(f"j: must be > 0, got {self.j}")
        if self.gamma_a < 0:
            raise ValueError(f"gamma_a: sublattice loss gamma_a must be >= 0, got {self.gamma_a}")
        if self.n_cells < 2:
            raise ValueError(f"n_cells: must be >= 2, got {self.n_cells}")
        u_b = complex(self.u_b)
        if not (math.isfinite(u_b.real) and math.isfinite(u_b.imag)):
            raise ValueError(f"u_b: auxiliary potential u_b must be finite, got {u_b!r}")
        if abs(u_b) == 0.0:
            raise ValueError("u_b: auxiliary potential u_b must be nonzero")
        object.__setattr__(self, "u_b", u_b)

    @property
    def adiabaticity_ratio(self) -> float:
        """max(j, 2*kappa) / |u_b|; must be << 1 for the reduction to hold."""
        return max(self.j, 2.0 * self.kappa) / abs(self.u_b)


@dataclass(frozen=True)
class SandwichSpec:
    """Capture structure: NH lead | boundary | Hermitian core | boundary | NH lead.

    The Hermitian core occupies ``-n_half < n < n_half``; the boundary sites
    at ``n = +/-n_half`` carry ``v_c + i*xi``.  The left lead uses hoppings
    for phase ``-q0`` so a packet with central wave number ``q0`` enters
    losslessly, the right lead uses the opposite phase so transmission out
    of the core is evanescent.  Only kappa, beta, gamma and the site range
    are read from ``chain``; its own phi/defects are not consulted.
    """

    chain: ChainSpec
    n_half: int
    q0: float
    v_c: float
    xi: float

    def __post_init__(self):
        if self.n_half < 1:
            raise ValueError(f"n_half: must be a positive integer, got {self.n_half}")
        _require_finite("v_c", self.v_c)
        _require_finite("xi", self.xi)
        object.__setattr__(self, "q0", reduce_phase(self.q0))
        if self.chain.boundary != "open":
            raise ValueError("chain: the sandwich structure needs an open-boundary chain")
        lo, hi = self.chain.site_range
        if not (lo < -self.n_half and hi > self.n_half):
            raise ValueError(f"n_half: chain [{lo}, {hi}] must strictly contain "
                             f"[-{self.n_half}, {self.n_half}]")


def _load_kernel():
    """scipy's C++ sparse kernels, loaded from their extension file as ``nhlattice._sparsetools``
    so that neither ``scipy/__init__`` nor ``scipy.sparse`` runs and scipy's own module name
    stays free; only where no such file exists are they imported through ``scipy.sparse``."""
    scipy_spec = importlib.util.find_spec("scipy")  # locates scipy without running it
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if scipy_spec else ():
        path = os.path.join(scipy_spec.submodule_search_locations[0], "sparse",
                            "_sparsetools" + suffix)
        if os.path.isfile(path):  # PyInit__sparsetools reads only the name's last part
            spec = importlib.util.spec_from_file_location("nhlattice._sparsetools", path)
            kernel = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(kernel)
            return kernel
    from scipy.sparse import _sparsetools
    return _sparsetools


_sparsetools = _load_kernel()


@dataclass(frozen=True, eq=False)
class Operator:
    """Sparse complex operator H on labeled sites, as CSR arrays: row n holds
    the coefficients of the evolution equation of site n, in ``data`` at the
    places ``indptr[n]:indptr[n + 1]``, at the columns ``indices`` there."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    site_labels: np.ndarray

    def __post_init__(self):
        # the kernels (the order check's too) read without bounds checks: inputs are checked first
        data = np.ascontiguousarray(self.data, dtype=complex)
        indices, indptr = np.ascontiguousarray(self.indices), np.ascontiguousarray(self.indptr)
        labels = np.ascontiguousarray(self.site_labels, dtype=int)
        if indices.dtype.kind != "i" or indptr.dtype.kind != "i":
            raise ValueError("indices and indptr must be integer arrays")
        index_dtype = np.result_type(np.int32, indices, indptr)  # one the kernel takes
        indices, indptr = (a.astype(index_dtype, copy=False) for a in (indices, indptr))
        n = labels.size
        if labels.ndim != 1:
            raise ValueError(f"site_labels must be a 1-D array, got shape {labels.shape}")
        if data.ndim != 1 or indices.shape != data.shape:
            raise ValueError(f"data and indices must be 1-D arrays of equal length, got shapes "
                             f"{data.shape} and {indices.shape}")
        if indptr.shape != (n + 1,):
            raise ValueError(f"indptr must have len(site_labels) + 1 = {n + 1} entries, "
                             f"got shape {indptr.shape}")
        if indptr[0] != 0 or indptr[-1] != data.size or np.any(np.diff(indptr) < 0):
            raise ValueError(f"indptr must rise from 0 to the entry count {data.size}")
        if data.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(f"column indices must lie in [0, {n})")
        if not _sparsetools.csr_has_canonical_format(n, indptr, indices):
            raise ValueError("each row's column indices must strictly ascend")
        if not np.all(np.isfinite(data)):
            raise ValueError("operator entries must be finite")
        for name, arr in (("data", data), ("indices", indices), ("indptr", indptr),
                          ("site_labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.site_labels.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H @ x for an array x of shape (dim,), as complex128.

        Calls the kernel that scipy's ``csr_array @ x`` ends in, with the same
        zeroed complex output, so the bytes are the same; it skips scipy's
        dispatch, which costs as much as the product on a few hundred sites.
        The kernel reads x without bounds checks, hence the shape check."""
        n = self.dim
        if x.shape != (n,):
            raise ValueError(f"matvec needs an array of shape ({n},), got {x.shape}")
        out = np.zeros(n, dtype=complex)
        _sparsetools.csr_matvec(n, n, self.indptr, self.indices, self.data, x, out)
        return out


def _banded_csr(bands, offsets, n: int) -> tuple:
    """The CSR arrays (data, indices, indptr) of the n x n matrix with
    bands[k] (one value, or one per cell) along diagonal offsets[k]: the
    arrays scipy's ``diags_array`` gives, filled in place.  Offsets ascend,
    so each row's columns do."""
    rows = [slice(max(0, -k), n - max(0, k)) for k in offsets]
    bands = [np.broadcast_to(band, (r.stop - r.start,)) for band, r in zip(bands, rows)]
    keep = np.zeros((n, len(offsets)), dtype=bool)  # exact zeros and cells off the matrix drop
    for j, (r, band) in enumerate(zip(rows, bands)):
        keep[r, j] = band != 0
    index_dtype = np.int32 if keep.size <= np.iinfo(np.int32).max else np.int64
    slot = np.cumsum(keep, dtype=index_dtype).reshape(keep.shape)  # 1 + place in data
    data = np.empty(slot[-1, -1], dtype=complex)
    for j, (r, band) in enumerate(zip(rows, bands)):
        data[slot[r, j][keep[r, j]] - 1] = band[keep[r, j]]
    indices = (np.arange(n, dtype=index_dtype)[:, None] + np.array(offsets, index_dtype))[keep]
    indptr = np.concatenate((np.zeros(1, dtype=index_dtype), slot[:, -1]))
    return data, indices, indptr


def build_chain_hamiltonian(spec: ChainSpec) -> Operator:
    """Assemble the homogeneous chain operator.

    diag[n] = -i*gamma + v_real(n) + i*xi_imag(n),
    H[n, n+1] = kappa + i*beta*e^{+i*phi},
    H[n+1, n] = kappa + i*beta*e^{-i*phi},
    with the same convention continued around the wrap for periodic chains.
    """
    n = spec.n_sites
    hop_up = spec.kappa + 1j * spec.beta * cmath.exp(1j * spec.phi)
    hop_dn = spec.kappa + 1j * spec.beta * cmath.exp(-1j * spec.phi)
    diag = np.full(n, -1j * spec.gamma, dtype=complex)
    for d in spec.defects:
        diag[d.site - spec.index_origin] += d.v_real + 1j * d.xi_imag
    bands, offsets = [hop_dn, diag, hop_up], [-1, 0, 1]
    if spec.boundary == "periodic":
        # last row to its wrapped right neighbour, row 0 to its wrapped left one
        bands, offsets = [hop_up, *bands, hop_dn], [1 - n, *offsets, n - 1]
    return Operator(*_banded_csr(bands, offsets, n), spec.site_labels)


def build_sawtooth_hamiltonian(spec: SawtoothSpec) -> Operator:
    """Assemble the two-sublattice operator on the interleaved basis.

    State ordering is (a_1, b_1, a_2, b_2, ...), which keeps the bandwidth
    at 2: the a-a couplings sit on offsets +/-2 (zero on b rows) and every
    offset +/-1 entry is j*e^{+/-i*theta}.
    """
    dim = 2 * spec.n_cells
    phase = cmath.exp(1j * spec.theta)
    diag = np.empty(dim, dtype=complex)
    diag[0::2] = 0.0 - 1j * spec.gamma_a  # not -1j * gamma_a, whose real part is -0.0
    diag[1::2] = spec.u_b
    band_2 = np.zeros(dim - 2, dtype=complex)
    band_2[0::2] = spec.kappa  # a_n <-> a_{n+1}; b rows have no second-neighbour coupling
    bands = (band_2, spec.j * phase.conjugate(), diag, spec.j * phase, band_2)
    return Operator(*_banded_csr(bands, (-2, -1, 0, 1, 2), dim), np.arange(dim))


def build_sandwich_hamiltonian(spec: SandwichSpec) -> Operator:
    """Assemble the five-region capture operator.

    Outer rows carry -i*gamma with phase -q0 hoppings on the left lead and
    +q0 on the right; boundary rows at +/-n_half carry v_c + i*xi with the
    mixed hoppings (plain kappa toward the core); core rows are Hermitian.
    """
    ch, m, n = spec.chain, spec.n_half, spec.chain.site_labels
    hop_q_plus = ch.kappa + 1j * ch.beta * cmath.exp(1j * spec.q0)
    hop_q_minus = ch.kappa + 1j * ch.beta * cmath.exp(-1j * spec.q0)
    kap, defect = complex(ch.kappa), spec.v_c + 1j * spec.xi
    to_next = np.select([n < -m, n < m], [hop_q_minus, kap], hop_q_plus)  # coefficient of c_{n+1}
    to_prev = np.select([n <= -m, n <= m], [hop_q_plus, kap], hop_q_minus)  # of c_{n-1}
    diag = np.select([np.abs(n) < m, np.abs(n) == m], [0j, defect], -1j * ch.gamma)
    return Operator(*_banded_csr((to_prev[1:], diag, to_next[:-1]), (-1, 0, 1), len(n)), n)


def dispersion(kappa: float, beta: float, gamma: float, phi: float, q):
    """Bloch-band energy 2*kappa*cos(q) + 2i*beta*cos(q+phi) - i*gamma."""
    q = np.asarray(q)
    e = 2.0 * kappa * np.cos(q) + 2.0j * beta * np.cos(q + phi) - 1j * gamma
    return complex(e) if e.ndim == 0 else e


def group_velocity(kappa: float, q):
    """Packet transport speed -2*kappa*sin(q); independent of beta, gamma, phi."""
    q = np.asarray(q)
    v = -2.0 * kappa * np.sin(q)
    return float(v) if v.ndim == 0 else v


@dataclass(frozen=True)
class ReducedChain:
    """Effective chain produced by eliminating the auxiliary sublattice.

    ``j1``/``j2`` are the forward/backward effective hoppings and ``u_eff``
    the effective potential, the same on every site.  How well it stands for
    its sawtooth is that SawtoothSpec's ``adiabaticity_ratio``.
    """

    kappa: float
    j1: complex
    j2: complex
    u_eff: complex
    n_sites: int

    def to_chain_spec(self, index_origin: int = 0) -> ChainSpec:
        """Map onto an open ChainSpec with hoppings kappa + i*beta*e^{+/-i*phi}.

        Only possible when the hopping asymmetry has that exact form (the
        u_b = i*j^2/beta working point), to 1e-12 relative; otherwise raises
        ValueError.
        """
        d1, d2 = self.j1 - self.kappa, self.j2 - self.kappa
        beta = abs(d1)
        phi = cmath.phase(d1 / (1j * beta)) if beta else 0.0
        # at beta = 0 this asks |d2| <= 1e-12, as max(1, |d2|) > 1 only when |d2| > 1
        if abs(d2 - 1j * beta * cmath.exp(-1j * phi)) > 1e-12 * max(1.0, abs(d2)):
            raise ValueError("hoppings do not have the kappa + i*beta*e^{+/-i*phi} form")
        if abs(self.u_eff.real) > 1e-12 * max(1.0, abs(self.u_eff)):
            raise ValueError("effective potential has a real part; no ChainSpec equivalent")
        return ChainSpec(
            kappa=self.kappa,
            beta=beta,
            gamma=-self.u_eff.imag,
            phi=phi,
            n_sites=self.n_sites,
            index_origin=index_origin,
        )


def adiabatic_reduce(spec: SawtoothSpec) -> ReducedChain:
    """Eliminate the auxiliary sublattice, slaving b_n to its a neighbours.

    j1 = kappa - j^2*e^{+2i*theta}/u_b, j2 = kappa - j^2*e^{-2i*theta}/u_b,
    u_eff = -i*gamma_a - 2*j^2/u_b.  At u_b = i*j^2/beta this is the chain
    with phi = 2*theta and gamma = gamma_a - 2*beta, valid while
    ``spec.adiabaticity_ratio`` << 1 (not checked here).
    """
    j_sq = spec.j * spec.j
    return ReducedChain(
        kappa=spec.kappa,
        j1=spec.kappa - j_sq * cmath.exp(2j * spec.theta) / spec.u_b,
        j2=spec.kappa - j_sq * cmath.exp(-2j * spec.theta) / spec.u_b,
        u_eff=0.0 - 1j * spec.gamma_a - 2.0 * j_sq / spec.u_b,
        n_sites=spec.n_cells,
    )
