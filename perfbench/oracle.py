"""Closed-form propagator of the infinite homogeneous chain.

For i dc_n/dt = -i*gamma*c_n + u*c_{n+1} + l*c_{n-1} with the hoppings
u = kappa + i*beta*e^{+i*phi} and l = kappa + i*beta*e^{-i*phi}, the
substitution c_n = r^n d_n with r = s/u and s = sqrt(u*l) turns the
equation into the symmetric chain, whose propagator is (-i)^k J_k(2*s*t).
Hence

    c_n(t) = sum_m e^{-gamma t} r^k (-i)^k J_k(2 s t) c_m(0),   k = n - m.

This module shares no code with nhlattice: it checks the long_chain
workload and generates the artifacts workload's inputs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import jv

#: largest relative error the long_chain check accepts
MAX_REL_ERROR = 1e-8
#: kernel taps whose bound (|r| s t e / k)^k stays under this are dropped
TAIL_TOLERANCE = 1e-30


def hoppings(kappa: float, beta: float, phi: float) -> tuple:
    """(u, l): coefficients of c_{n+1} and c_{n-1} in row n."""
    return (kappa + 1j * beta * cmath.exp(1j * phi),
            kappa + 1j * beta * cmath.exp(-1j * phi))


def kernel_reach(kappa: float, beta: float, phi: float, t: float) -> int:
    """Smallest K beyond which every kernel tap is below TAIL_TOLERANCE.

    |J_k(z)| <= (|z|/2)^k / k! <= (e|z|/2k)^k for k >= 1, and |r|^k or
    |1/r|^k multiplies it; the bound falls below the tolerance for all
    larger k once it does for one k past e*|z*r|/2.
    """
    if t == 0.0:
        return 0
    u, l = hoppings(kappa, beta, phi)
    s = cmath.sqrt(u * l)
    r = s / u
    x = math.e * abs(s) * t * max(abs(r), 1.0 / abs(r))  # e |z| / 2 * growth, z = 2 s t
    k = math.ceil(x) + 1
    while k * math.log(x / k) > math.log(TAIL_TOLERANCE):
        k += 1
    return k


def kernel(kappa: float, beta: float, gamma: float, phi: float, t: float,
           reach: int) -> np.ndarray:
    """Taps G_k(t) for k = -reach .. reach."""
    u, l = hoppings(kappa, beta, phi)
    s = cmath.sqrt(u * l)
    r = s / u
    k = np.arange(-reach, reach + 1)
    phase = np.array([1, -1j, -1, 1j])[k % 4]  # (-i)^k, exact
    j = jv(np.arange(reach + 1), 2.0 * s * t)
    bessel = np.concatenate([(np.where(k[reach + 1:] % 2, -1.0, 1.0) * j[1:])[::-1], j])  # J_-k = (-1)^k J_k
    return math.exp(-gamma * t) * r ** k.astype(float) * phase * bessel


def propagate(c0: np.ndarray, times, kappa: float, beta: float, gamma: float,
              phi: float) -> np.ndarray:
    """States c(t) for every t in times, shape (len(times), len(c0)).

    The sites are a window of the infinite chain: amplitude outside it is
    zero at t = 0, and no boundary acts on the evolution.  The taps cover
    the window, or the kernel's own reach if that is shorter.
    """
    c0 = np.asarray(c0, dtype=complex)
    dim = len(c0)
    out = np.empty((len(times), dim), dtype=complex)
    for i, t in enumerate(times):
        k_max = min(dim - 1, kernel_reach(kappa, beta, phi, t))
        taps = kernel(kappa, beta, gamma, phi, t, k_max)
        full = np.convolve(c0, taps)
        out[i] = full[k_max:k_max + dim]
    return out


def single_site_hermitian(n0: int, labels: np.ndarray, times, kappa: float) -> np.ndarray:
    """c_n(t) = (-i)^k J_k(2 kappa t), k = n - n0, built part by part.

    Each amplitude is purely real or purely imaginary by the parity of
    k, and the other part is an exact zero, as in a real run at phi = 0.
    """
    k = np.asarray(labels) - n0
    orders = np.arange(np.max(np.abs(k)) + 1)
    j = jv(orders[None, :], 2.0 * kappa * np.asarray(times, dtype=float)[:, None])
    bessel = j[:, np.abs(k)] * np.where((k < 0) & (k % 2 == 1), -1.0, 1.0)  # J_-k = (-1)^k J_k
    out = np.zeros(bessel.shape, dtype=complex)
    quarter = k % 4
    out.real[:, quarter == 0] = bessel[:, quarter == 0]
    out.imag[:, quarter == 1] = -bessel[:, quarter == 1]
    out.real[:, quarter == 2] = -bessel[:, quarter == 2]
    out.imag[:, quarter == 3] = bessel[:, quarter == 3]
    return out


def gaussian(labels: np.ndarray, n0: int, w0: float, q0: float) -> np.ndarray:
    """Unit-norm packet exp[-(n-n0)^2/w0^2 + i q0 n]."""
    labels = np.asarray(labels, dtype=float)
    amps = np.exp(-((labels - n0) / w0) ** 2 + 1j * q0 * labels)
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))


def relative_error(states: np.ndarray, reference: np.ndarray) -> float:
    """max |states - reference| / max |reference|."""
    return float(np.max(np.abs(states - reference)) / np.max(np.abs(reference)))
