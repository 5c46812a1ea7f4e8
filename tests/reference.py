"""Independent dense constructions, written directly from the evolution
equations site by site.  These are the oracles the sparse Hamiltonian
builders are checked against, plus a fixed-step RK4, a dense-expm schedule
propagator, a gap-by-gap ``scipy.sparse.linalg.expm_multiply`` propagator
and the closed-form Bessel propagator of the infinite homogeneous chain for
the dynamics, a per-element trajectory CSV writer, a per-cell heatmap SVG
renderer, and scipy's ``curve_fit`` for the Gaussian fit; they share no code
with the package.  The tests reach
scipy's sparse arrays through the two adapters ``operator`` and ``csr``.
Only ``scipy.sparse`` loads with this module; each oracle imports the rest of
scipy it needs, so a test child that wants only ``csr`` starts quicker."""

import cmath
import math
import warnings

import numpy as np
import scipy.sparse

from nhlattice.lattice import Operator


def operator(matrix, site_labels):
    """The package's Operator holding the CSR arrays of a scipy sparse matrix."""
    m = scipy.sparse.csr_array(matrix, dtype=complex)
    return Operator(m.data, m.indices, m.indptr, site_labels)


def csr(op):
    """The scipy csr_array on an Operator's CSR arrays."""
    return scipy.sparse.csr_array((op.data, op.indices, op.indptr), shape=(op.dim, op.dim))


def dense_chain(kappa, beta, gamma, phi, labels, defects=(), periodic=False):
    """i dc_n/dt = -i*g*c_n + (k+i*b*e^{i*phi}) c_{n+1} + (k+i*b*e^{-i*phi}) c_{n-1} (+defects)."""
    n = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    defect_map = {site: v + 1j * xi for site, v, xi in defects}
    fwd = kappa + 1j * beta * np.exp(1j * phi)
    bwd = kappa + 1j * beta * np.exp(-1j * phi)
    h = np.zeros((n, n), dtype=complex)
    for i, lab in enumerate(labels):
        h[i, i] = -1j * gamma + defect_map.get(lab, 0.0)
        if i + 1 < n:
            h[i, i + 1] += fwd
        elif periodic:
            h[i, 0] += fwd
        if i - 1 >= 0:
            h[i, i - 1] += bwd
        elif periodic:
            h[i, n - 1] += bwd
    return h


def dense_sawtooth(kappa, j, theta, gamma_a, u_b, n_cells, v_a=None):
    """Two coupled rows per cell, interleaved (a_1, b_1, a_2, b_2, ...):

    i da_n/dt = (v_a[n]-i*gamma_a) a_n + kappa*(a_{n+1}+a_{n-1})
                + j*(e^{i*theta} b_n + e^{-i*theta} b_{n-1})
    i db_n/dt = u_b*b_n + j*(e^{i*theta} a_{n+1} + e^{-i*theta} a_n)
    """
    if v_a is None:
        v_a = [0.0] * n_cells
    dim = 2 * n_cells
    a = lambda m: 2 * m
    b = lambda m: 2 * m + 1
    ph = np.exp(1j * theta)
    h = np.zeros((dim, dim), dtype=complex)
    for m in range(n_cells):
        h[a(m), a(m)] = v_a[m] - 1j * gamma_a
        if m + 1 < n_cells:
            h[a(m), a(m + 1)] += kappa
        if m - 1 >= 0:
            h[a(m), a(m - 1)] += kappa
        h[a(m), b(m)] += j * ph
        if m - 1 >= 0:
            h[a(m), b(m - 1)] += j * np.conj(ph)
        h[b(m), b(m)] = u_b
        if m + 1 < n_cells:
            h[b(m), a(m + 1)] += j * ph
        h[b(m), a(m)] += j * np.conj(ph)
    return h


def dense_sandwich(kappa, beta, gamma, q0, n_half, v_c, xi, labels):
    """Five-branch heterogeneous structure with boundary rows at +/-n_half."""
    n = len(labels)
    h = np.zeros((n, n), dtype=complex)
    e_plus = np.exp(1j * q0)
    e_minus = np.exp(-1j * q0)
    for i, lab in enumerate(labels):
        if lab < -n_half:
            diag = -1j * gamma
            fwd = kappa + 1j * beta * e_minus
            bwd = kappa + 1j * beta * e_plus
        elif lab == -n_half:
            diag = v_c + 1j * xi
            fwd = kappa
            bwd = kappa + 1j * beta * e_plus
        elif lab < n_half:
            diag = 0.0
            fwd = kappa
            bwd = kappa
        elif lab == n_half:
            diag = v_c + 1j * xi
            fwd = kappa + 1j * beta * e_plus
            bwd = kappa
        else:
            diag = -1j * gamma
            fwd = kappa + 1j * beta * e_plus
            bwd = kappa + 1j * beta * e_minus
        h[i, i] = diag
        if i + 1 < n:
            h[i, i + 1] = fwd
        if i - 1 >= 0:
            h[i, i - 1] = bwd
    return h


def _increment_power(d, m):
    """D_m with (I + d)^m = I + D_m, by binary powering kept in increment
    form: near I, a rounded I + d would lose the low bits of d every step."""
    acc = None
    while m:
        if m & 1:
            acc = d if acc is None else acc + d + acc @ d
        m >>= 1
        if m:
            d = 2.0 * d + d @ d
    return acc


def rk4(segments, c0, t_final, dt, sample_dt):
    """Classical fixed-step RK4 for i dc/dt = H c, sampled every sample_dt.

    ``segments`` is [(t_start, dense H), ...]; switch times and sample_dt
    must be multiples of dt.  Returns the states, shape (samples, dim).
    On a linear ODE one RK4 step multiplies by the stability polynomial
    I + D, D = X + X^2/2 + X^3/6 + X^4/24 with X = -i*dt*H, so each segment
    builds D once and a run of m steps inside one sample gap applies
    (I + D)^m.
    """
    increments = []
    for _, h in segments:
        x = -1j * dt * np.asarray(h, dtype=complex)
        d = x / 4.0
        for k in (3.0, 2.0, 1.0):  # Horner: X(I + X/2(I + X/3(I + X/4)))
            d = (x + x @ d) / k
        increments.append(d)
    starts = [round(t0 / dt) for t0, _ in segments]
    ends = starts[1:] + [math.inf]
    per_sample = round(sample_dt / dt)
    powers = {}
    c = np.array(c0, dtype=complex)
    out = [c]
    for gap in range(round(t_final / sample_dt)):
        step, gap_end = gap * per_sample, (gap + 1) * per_sample
        while step < gap_end:  # split the gap at a switch inside it
            s = max(i for i, start in enumerate(starts) if start <= step)
            m = min(gap_end, ends[s]) - step
            if (s, m) not in powers:
                powers[s, m] = _increment_power(increments[s], m)
            c = c + powers[s, m] @ c
            step += m
        out.append(c)
    return np.array(out)


def expm_schedule(segments, c0, times):
    """States at ``times`` under [(t_start, dense H), ...] by dense expm,
    restarting from the state at every switch time."""
    import scipy.linalg

    out = []
    for t in times:
        c = np.array(c0, dtype=complex)
        bounds = [t0 for t0, _ in segments[1:]] + [np.inf]
        for (t0, h), t1 in zip(segments, bounds):
            if t <= t0:
                break
            c = scipy.linalg.expm(-1j * h * (min(t, t1) - t0)) @ c
        out.append(c)
    return np.array(out)


def expm_multiply_schedule(segments, c0, t_final, sample_dt, norm_limit):
    """Samples every sample_dt under [(t_start, sparse H), ...], each sample
    gap (split at a switch inside it) carried by scipy's expm_multiply in the
    fewest equal sub-steps whose trace-shifted 1-norm is within norm_limit."""
    import scipy.sparse.linalg

    def carry(h, gap, c):
        n = h.shape[0]
        shifted = h - h.trace() / n * scipy.sparse.eye_array(n, format="csr")
        steps = max(1, math.ceil(gap * float(abs(shifted).sum(axis=0).max()) / norm_limit))
        for _ in range(steps):
            c = scipy.sparse.linalg.expm_multiply(h * (-1j * gap / steps), c)
        return c

    times = np.arange(math.floor(t_final / sample_dt + 1e-9) + 1) * sample_dt
    pending = list(segments[1:])
    h = segments[0][1]
    c = np.array(c0, dtype=complex)
    out = [c]
    for k in range(1, len(times)):
        t = times[k - 1]
        while pending and pending[0][0] < times[k] - 1e-9:
            t_switch, h_next = pending.pop(0)
            if t_switch > t + 1e-9:
                c = carry(h, t_switch - t, c)
                t = t_switch
            h = h_next
        c = carry(h, sample_dt if t == times[k - 1] else times[k] - t, c)
        out.append(c)
    return np.array(out)


def trajectory_csv_text(times, amplitudes, labels):
    """The trajectory CSV with one ``%.17g`` per number, row by row."""
    lines = ["t,site,re,im"]
    for t, row in zip(times, amplitudes):
        for label, a in zip(labels, row):
            lines.append("%.17g,%d,%.17g,%.17g" % (float(t), int(label),
                                                   float(a.real), float(a.imag)))
    return "\n".join(lines) + "\n"


#: the heatmap's dark-to-bright color ramp, (R, G, B) anchors
HEATMAP_ANCHORS = ((0, 0, 4), (45, 17, 90), (114, 31, 129), (183, 55, 121),
                   (241, 96, 93), (253, 163, 74), (252, 227, 110), (252, 255, 220))


def heatmap_svg(times, amplitudes, labels, title=""):
    """The heatmap SVG of |c_n| / sqrt(sum |c_m|^2), one <rect> string per lit cell.

    Rows must have a finite normal sum |c|^2.  Cells are 3 px (samples across,
    sites down, the top label at the top); margins 46 left, 12 top, 30 bottom
    and 72 right, where a 32-step color bar 14 px wide sits 16 px off the grid.
    """
    ramp = np.asarray(HEATMAP_ANCHORS, dtype=float)
    xs, pos = np.linspace(0.0, 1.0, 256), np.linspace(0.0, 1.0, len(ramp))
    rgb = np.rint([np.interp(xs, pos, ramp[:, c]) for c in range(3)]).astype(int).T
    fills = ["#%02x%02x%02x" % tuple(row) for row in rgb.tolist()]
    mags = np.abs(np.asarray(amplitudes, dtype=complex))
    rho = mags / np.sqrt(np.sum(mags**2, axis=-1, keepdims=True))
    vmax = float(np.max(rho))
    levels = np.rint(rho / vmax * 255.0).astype(int).tolist()
    labels = [int(n) for n in labels]

    def fmt(x):
        return "%.6g" % x

    def text(x, y, size, body, anchor="", extra=""):
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        return (f'<text x="{x}" y="{y}" font-family="monospace" font-size="{size}"{anchor} '
                f'fill="#000000"{extra}>{body}</text>')

    def rect(x, y, w, h, fill):
        return f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}"/>'

    def line(x1, y1, x2, y2):
        return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#000000" stroke-width="1"/>'

    x0, y0 = 46, 12
    grid_w, grid_h = 3 * len(levels), 3 * len(labels)
    width, height = x0 + grid_w + 72, y0 + grid_h + 30
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">', rect(0, 0, width, height, "#ffffff")]
    if title:
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(text(x0, 10, 10, title))
    out.append(rect(x0, y0, grid_w, grid_h, fills[0]))
    for k, row in enumerate(levels):
        for n, level in zip(labels, row):
            if level:
                out.append(rect(x0 + 3 * k, y0 + 3 * (labels[-1] - n), 3, 3, fills[level]))
    axis_y = y0 + grid_h
    out += [line(x0, axis_y, x0 + grid_w, axis_y), line(x0, y0, x0, axis_y)]
    for frac in (0.0, 0.5, 1.0):
        tx = fmt(x0 + frac * grid_w)
        out.append(line(tx, axis_y, tx, axis_y + 4))
        out.append(text(tx, axis_y + 14, 9, fmt(times[0] + frac * (times[-1] - times[0])), "middle"))
        n_val = labels[0] + frac * (labels[-1] - labels[0])
        out.append(text(x0 - 4, fmt(axis_y - frac * grid_h + 3), 9, fmt(n_val), "end"))
    out.append(text(x0 + grid_w // 2, axis_y + 26, 10, "time t (1/kappa)", "middle"))
    mid_y = y0 + grid_h // 2
    out.append(text(12, mid_y, 10, "site n", "middle", f' transform="rotate(-90 12 {mid_y})"'))
    bar_x, step_h = x0 + grid_w + 16, grid_h / 32
    for s in range(32):
        fill = fills[int(round((31 - s) / 31 * 255))]
        out.append(rect(bar_x, fmt(y0 + s * step_h), 14, fmt(step_h + 0.5), fill))
    for y, body in ((y0 + 8, fmt(vmax)), (axis_y, "0"), (mid_y, "rho")):
        out.append(text(bar_x + 18, y, 9, body))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def bessel_chain(c0, times, kappa, beta, gamma, phi, open_above=False, tail=1e-30):
    """States c(t) of the infinite homogeneous chain, shape (len(times), len(c0)).

    For i dc_n/dt = -i*gamma*c_n + u*c_{n+1} + l*c_{n-1} with the hoppings
    u = kappa + i*beta*e^{+i*phi} and l = kappa + i*beta*e^{-i*phi}, the
    substitution c_n = r^n d_n with r = s/u and s = sqrt(u*l) gives the
    symmetric chain, whose propagator is g_k = (-i)^k J_k(2*s*t), so

        c_n(t) = sum_m e^{-gamma t} r^(n-m) g_(n-m) c_m(0).

    ``c0`` is a window of the chain with nothing outside it at t = 0.  No
    boundary acts, unless ``open_above``: then the chain ends with the
    window's last site, which one image gives exactly, since d vanishes on
    the missing site E = len(c0) when g_(n-m) becomes g_(n-m) - g_(2E-n-m).
    Taps whose bound (e |s t| max(|r|, 1/|r|) / k)^k, from
    |J_k(z)| <= (|z|/2)^k / k!, is below ``tail`` are dropped; for the image
    that bound covers |r^(n-m)| too, as |n-m| < 2E-n-m.
    """
    from scipy.special import jv

    u = kappa + 1j * beta * cmath.exp(1j * phi)
    l = kappa + 1j * beta * cmath.exp(-1j * phi)
    s = cmath.sqrt(u * l)
    r = s / u
    c0 = np.asarray(c0, dtype=complex)
    dim = len(c0)
    out = np.empty((len(times), dim), dtype=complex)
    quarter = np.array([1, -1j, -1, 1j])  # (-i)^k by k mod 4, exact
    for i, t in enumerate(times):
        x = math.e * abs(s) * t * max(abs(r), 1.0 / abs(r))
        reach = 0
        if t > 0.0:
            reach = math.ceil(x) + 1
            while reach * math.log(x / reach) > math.log(tail):
                reach += 1
        reach = min(dim - 1, reach)
        j = jv(np.arange(reach + 1), 2.0 * s * t)
        k = np.arange(-reach, reach + 1)
        signs = np.where((k < 0) & (k % 2 == 1), -1.0, 1.0)  # J_-k = (-1)^k J_k
        taps = math.exp(-gamma * t) * r ** k.astype(float) * quarter[k % 4] * signs * j[np.abs(k)]
        out[i] = np.convolve(c0, taps)[reach:reach + dim]
        if open_above:  # only the last `reach` sites have image orders within reach
            near = np.arange(dim - reach, dim)
            image = 2 * dim - near[:, None] - near[None, :]
            g = np.where(image <= reach, quarter[image % 4] * j[np.minimum(image, reach)], 0.0)
            r_near = r ** near.astype(float)
            out[i, near] -= math.exp(-gamma * t) * r_near * (g @ (c0[near] / r_near))
    return out


def curve_fit_gaussian(labels, values):
    """scipy's bounded least-squares fit of amp*exp(-((n-center)/width)^2) to
    values from the peak's guess, with amp >= 0, center within a site of the
    labels and width in [1e-6, 4*span]: ((amp, center, width), 1 - RSS/TSS
    clipped to [0, 1]), or None where it does not converge in 10000 calls."""
    import scipy.optimize

    labels = np.asarray(labels, dtype=float)
    tss = float(np.sum(values**2))
    peak = int(np.argmax(values))
    second = float(np.dot((labels - labels[peak]) ** 2, values**2) / tss)
    guess = (float(values[peak]), float(labels[peak]), max(1.0, 2.0 * math.sqrt(second)))
    span = float(labels[-1] - labels[0])

    def model(n, amp, center, width):
        return amp * np.exp(-(((n - center) / width) ** 2))

    try:
        with warnings.catch_warnings():  # no covariance where the fit is flat
            warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)
            popt, _ = scipy.optimize.curve_fit(
                model, labels, values, p0=guess, maxfev=10000,
                bounds=([0.0, labels[0] - 1.0, 1e-6], [np.inf, labels[-1] + 1.0, 4.0 * span]))
    except RuntimeError:
        return None
    rss = float(np.sum((values - model(labels, *popt)) ** 2))
    return tuple(float(x) for x in popt), min(1.0, max(0.0, 1.0 - rss / tss))
