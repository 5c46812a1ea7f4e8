"""Auto sizing: how far a run's light reaches, and the chain it needs.

resolve_config sizes a chain whose chain_length and index_origin are auto
with auto_extent, from a bound on the infinite chain's propagator (reach).
"""

import math

import numpy as np

from .configio import ConfigError

#: auto-sizing pad beyond the lit reach (see auto_extent); where the
#: ballistic front caps that reach, the front's own tail runs past it, and
#: a broadband single-site kick's tail is the longer one
SIZE_PAD_GAUSSIAN = 16
SIZE_PAD_SINGLE_SITE = 30
#: auto-sizing: a site counts as lit while its normalized intensity can
#: exceed this (see reach)
SIZE_INTENSITY_FLOOR = 1e-20
#: max tolerated normalized intensity on the two end sites of a sized chain
EDGE_FRACTION_LIMIT = 1e-6

#: contour shifts reach tries, with their sinh and cosh (each shift gives
#: a bound, so the grid only rounds outward)
_SHIFTS = np.array([(eta, math.sinh(eta), math.cosh(eta))
                    for eta in (2.0 ** (j / 2.0) for j in range(-14, 7))]).T
#: cos and sin of the wave numbers d = q - q0 at which reach takes a
#: packet's largest mode, the d themselves (step h = pi/8)
_SPECTRUM = np.array([(math.cos(d), math.sin(d), d)
                      for d in (math.pi * (i / 8.0 - 1.0) for i in range(17))]).T


def reach(kappa: float, beta: float, phi: float, t: float, sign: int, w0: float = 0.0,
          q0: float = 0.0) -> tuple:
    """How far light from one site, or a Gaussian packet centred on it, reaches
    toward ``sign`` (+1 up, -1 down) at any time up to t: (lit, edge) in sites.

    Up to e^{-gamma t}, the infinite chain holds c_n(t) = (1/2pi) int C(q)
    e^{iqn - iE(q)t} dq with E(q) = u e^{iq} + l e^{-iq}.  Moving the contour
    to q + i*eta (eta of the sign of k) bounds |c_(n0+k)| by e^{-eta k} times
    max_q |C(q + i*eta)| e^{t Im E(q + i*eta)}, and Im E(q + i*eta) is a
    sinusoid in q whose amplitude A(eta) is closed form.  The best eta is the
    saddle point of the exact propagator J_k(2 sqrt(ul) t) (u/l)^(k/2), so
    the bound follows its decay, the |u/l|^(k/2) of phi != 0 included.  A
    site kick has |C| = 1.  The packet exp(-(n-n0)^2/w0^2) has
    |C(q + i*eta)| ~ e^{a (eta^2 - d^2)}, a = w0^2/4, d = q - q0 in
    [-pi, pi]; its max over q is taken on the grid _SPECTRUM plus the most
    the curvature allows between two grid points, (2a + tA) h^2/8.  The norm
    grows at least as fast as the packet's modes on the arc from q0 to the
    lossless mode q = -phi.  Against each such mode the exponent is convex
    in time, so over each of six time cells its largest value comes at a
    cell end, and each cell takes its own best eta.  The reach is where the
    bound on the normalized intensity falls below SIZE_INTENSITY_FLOOR (lit)
    or half of EDGE_FRACTION_LIMIT (edge, for two ends); the prefactor
    counts the norm's spread over the spectrum, 1/sqrt(1 + 4pi(w0^2 +
    2 beta t/kappa)).  Sines and cosines come from ``math``, and numpy does
    only IEEE arithmetic (add, multiply, divide, square root, compare), so a
    resolved extent does not depend on the CPU's vector units.
    """
    b, tau, a = beta / kappa, kappa * t, 0.25 * w0 * w0
    prefactor = 0.5 * math.log1p(4.0 * math.pi * (w0 * w0 + 2.0 * b * tau))
    budgets = np.array([[[0.5 * (math.log(1.0 / f) + prefactor)]]
                        for f in (SIZE_INTENSITY_FLOOR, 0.5 * EDGE_FRACTION_LIMIT)])
    eta, sinh, cosh = _SHIFTS
    with np.errstate(all="ignore"):  # an overflow makes its reach inf
        times = tau * np.arange(7) / 6.0  # six time cells, each bounded on its own
        # Im E(q + i*eta) = c cos q + s sin q, of amplitude A
        c, s = 2.0 * b * math.cos(phi) * cosh, -2.0 * (sign * sinh + b * math.sin(phi) * cosh)
        amp = np.sqrt(c * c + s * s)[:, None]
        if a > 0.0:
            arc = math.remainder(-phi - q0, 2.0 * math.pi) * np.arange(5) / 4.0
            # (log amplitude at t = 0, growth rate) of the norm's modes on the arc
            start = -a * arc * arc
            rate = 2.0 * b * np.array([math.cos(q0 + x + phi) for x in arc])
            cos_d, sin_d, d = _SPECTRUM  # Im E at q = q0 + d, by the angle sum
            grow = (np.outer(c * math.cos(q0) + s * math.sin(q0), cos_d)
                    + np.outer(s * math.cos(q0) - c * math.sin(q0), sin_d))
            top = (np.max(-a * d * d + times[:, None, None] * grow, axis=2).T
                   + (2.0 * a + times * amp) * (math.pi / 8.0) ** 2 / 8.0)
            ends = top[:, :, None] - start - times[:, None] * rate
            excess = np.min(np.maximum(ends[:, :-1], ends[:, 1:]), axis=2)
        else:  # against the lossless mode, linear in time: largest at a cell end
            slope = amp - 2.0 * b
            excess = np.maximum(times[:-1] * slope, times[1:] * slope)
        bound = (a * eta[:, None] * eta[:, None] + excess + budgets) / eta[:, None]
    bound[np.isnan(bound)] = math.inf
    lit, edge = np.max(np.min(bound, axis=1), axis=1)
    return float(lit), float(edge)


def _release_phase(storage, q0: float) -> float:
    """The phase of a storage run's release chain: -q0 for a forward release, else +q0."""
    return -q0 if storage.retrieval_phase_sign == "forward" else q0


def auto_extent(config) -> tuple:
    """The sites an ExperimentConfig's light reaches (reach), padded, and never
    short of the edge bound.

    A transport packet spreads from n0.  A defect scatters into every mode
    from the time the ballistic front (2*kappa) can first reach it.  A
    storage run carries the reached sites through its schedule: in the
    capture stage the boundary sites +/-n_half scatter into the leads (phase
    -q0 below the core, +q0 above it), and from the release on every site
    reached so far may hold any mode.  The lit reach stops at the ballistic
    front, 2*kappa*t past a packet's 4*w0 envelope, and the pad covers the
    front's own tail; the end lies at least as far out as the edge reach.
    Past the edge reach at the release, light starts below the edge bound,
    so there only the lit reach carries it on.
    """
    exc, kappa, beta, t_final = config.excitation, config.kappa, config.beta, config.timing.t_final
    n0 = exc.n0
    w0, q0 = (exc.w0, exc.q0) if exc.kind == "gaussian" else (0.0, 0.0)
    pad = SIZE_PAD_GAUSSIAN if exc.kind == "gaussian" else SIZE_PAD_SINGLE_SITE
    half = 4.0 * w0
    lit, edge = [n0 - half, n0 + half], [n0 - half, n0 + half]  # [lo, hi] reached

    def reaches(phi: float, t: float, packet: bool = False) -> tuple:
        """(lit down, lit up, edge down, edge up) in sites."""
        envelope = half if packet else 0.0
        (lit_down, edge_down), (lit_up, edge_up) = (
            reach(kappa, beta, phi, t, sign, *((w0, q0) if packet else ())) for sign in (-1, 1))
        front = 2.0 * kappa * t
        return (envelope + min(front, lit_down), envelope + min(front, lit_up),
                edge_down, edge_up)

    def spread(lo: float, hi: float, phi: float, t: float, packet: bool = False) -> None:
        lit_down, lit_up, edge_down, edge_up = reaches(phi, t, packet)
        lit[:] = min(lit[0], lo - lit_down), max(lit[1], hi + lit_up)
        edge[:] = min(edge[0], lo - edge_down), max(edge[1], hi + edge_up)

    def lit_from(site: int, t: float) -> float:  # time left once the front reaches site
        return max(0.0, t - max(0.0, abs(site - n0) - half) / (2.0 * kappa))

    if config.experiment == "storage":
        n_half, t_prime = config.storage.n_half, config.timing.t_prime
        # an infinite end spreads nothing: each source here spreads away from the core
        spread(-n_half, -math.inf, -q0, lit_from(-n_half, t_prime))
        spread(math.inf, n_half, q0, lit_from(n_half, t_prime))
        if n0 < -n_half:
            spread(n0, -math.inf, -q0, t_prime, packet=True)
        if n0 > n_half:
            spread(math.inf, n0, q0, t_prime, packet=True)
        phi = _release_phase(config.storage, q0)
        lit_down, lit_up, edge_down, edge_up = reaches(phi, t_final - t_prime)
        # the run needs both leads, however little light reaches them
        lit[:] = min(lit[0], -n_half - 1) - lit_down, max(lit[1], n_half + 1) + lit_up
        edge[:] = min(edge[0], -n_half - 1) - edge_down, max(edge[1], n_half + 1) + edge_up
    else:
        spread(n0, n0, config.phi, t_final, packet=True)
        for d in config.defects:
            spread(d.site, d.site, config.phi, lit_from(d.site, t_final))
    lo, hi = min(lit[0] - pad, edge[0]), max(lit[1] + pad, edge[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"chain_length: auto extent [{lo!r}, {hi!r}] is not finite")
    return math.floor(lo), math.ceil(hi)
