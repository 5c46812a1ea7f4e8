"""SVG space-time heatmaps of the normalized amplitude profile.

Renders |rho_n(t)| as a site-vs-time grid of colored cells.  The color
map is the fixed 256-entry lookup table COLOR_TABLE, interpolated from
the anchor ramp below; its luminance rises monotonically from dark to
bright, so cell brightness is a monotone function of the profile value.
The lit cells go in fixed byte columns, compacted a block at a time as the
trajectory CSV is (configio._byte_columns); render_heatmap_file streams the
bytes that render_heatmap returns as a string.  Output is byte-deterministic.
"""

from __future__ import annotations

import numpy as np

from . import configio
from .analysis import normalized_profile
from .configio import _byte_columns
from .dynamics import Trajectory

__all__ = ["COLOR_TABLE", "COLOR_ANCHORS", "luminance", "render_heatmap", "render_heatmap_file"]

# Dark-to-bright ramp anchors (R, G, B); luminance increases along the list.
COLOR_ANCHORS = (
    (0, 0, 4),
    (45, 17, 90),
    (114, 31, 129),
    (183, 55, 121),
    (241, 96, 93),
    (253, 163, 74),
    (252, 227, 110),
    (252, 255, 220),
)


def _build_table() -> tuple:
    anchors = np.asarray(COLOR_ANCHORS, dtype=float)
    pos, xs = np.linspace(0.0, 1.0, len(anchors)), np.linspace(0.0, 1.0, 256)
    rgb = np.rint([np.interp(xs, pos, anchors[:, c]) for c in range(3)]).astype(int)
    return tuple(map(tuple, rgb.T.tolist()))  # half-way values round to even, as round() does


COLOR_TABLE = _build_table()


def luminance(rgb) -> float:
    """Rec. 709 relative luminance of an (R, G, B) triple in 0..255."""
    r, g, b = rgb
    return 0.2126 * r + 0.7152 * g + 0.0722 * b


_CELL = 3  # pixels per (site, sample) cell
_MARGIN_LEFT = 46
_MARGIN_BOTTOM = 30
_MARGIN_TOP = 12
_BAR_WIDTH = 14
_BAR_GAP = 16
_MARGIN_RIGHT = _BAR_GAP + _BAR_WIDTH + 42


def _hex(rgb) -> str:
    return "#%02x%02x%02x" % rgb


def _fmt(x: float) -> str:
    return "%.6g" % x


#: the end of a heatmap cell's <rect>, one row of byte columns per color level
_CELL_TAILS = _byte_columns([f'" width="{_CELL}" height="{_CELL}" fill="{_hex(rgb)}"/>'.encode()
                             for rgb in COLOR_TABLE])


def _text(x, y, size: int, body: str, anchor: str = "", extra: str = "") -> str:
    """A black monospace <text>; ``extra`` holds any trailing attributes."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}" font-family="monospace" font-size="{size}"{anchor} '
            f'fill="#000000"{extra}>{body}</text>')


def _rect(x, y, w, h, fill: str) -> str:
    return f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}"/>'


def _line(x1, y1, x2, y2) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#000000" stroke-width="1"/>'


def render_heatmap(traj: Trajectory, title: str = "") -> str:
    """Render the trajectory's profile as an SVG document string."""
    return b"".join(_svg_pieces(traj, title)).decode("utf-8")


def render_heatmap_file(traj: Trajectory, path, title: str = "") -> None:
    """Write render_heatmap's document to ``path`` as it is rendered, atomically."""
    with configio._atomic(path) as fh:
        fh.writelines(_svg_pieces(traj, title))


def _svg_pieces(traj: Trajectory, title: str):
    """The SVG document in UTF-8 pieces: the head, the cells a block at a time, the axes."""
    if traj.n_samples < 1 or len(traj.site_labels) < 1:
        raise ValueError("cannot render an empty trajectory")
    rho = normalized_profile(traj.amplitudes)  # (n_samples, n_sites); no row is all zero
    vmax = float(np.max(rho))
    levels = np.rint(rho / vmax * 255.0).astype(np.uint8)

    grid_w, grid_h = (n * _CELL for n in rho.shape)  # samples across, sites down
    width = _MARGIN_LEFT + grid_w + _MARGIN_RIGHT
    height = _MARGIN_TOP + grid_h + _MARGIN_BOTTOM
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP
    labels = traj.site_labels
    n_max = int(labels[-1])

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">', _rect(0, 0, width, height, "#ffffff")]
    if title:
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(_text(x0, _MARGIN_TOP - 2, 10, title))
    # background = color of zero, individual cells drawn only above it
    out.append(_rect(x0, y0, grid_w, grid_h, _hex(COLOR_TABLE[0])))
    yield "\n".join(out).encode("utf-8")
    # each lit cell is '\n<rect x="col" y="row" width=.. height=.. fill=../>' in byte columns
    heads = _byte_columns([b'\n<rect x="%d' % (x0 + k * _CELL) for k in range(len(levels))])
    row_ys = _byte_columns([b'" y="%d' % (y0 + (n_max - n) * _CELL) for n in labels.tolist()])
    step = max(1, configio._CSV_CHUNK // len(labels))  # samples a block
    for k in range(0, len(levels), step):
        ks, ns = np.nonzero(levels[k:k + step])
        cells = np.concatenate((heads[k + ks], row_ys[ns], _CELL_TAILS[levels[k + ks, ns]]), axis=1)
        yield cells.tobytes().translate(None, b"\0")

    # axes, from a new line after the last cell
    axis_y = y0 + grid_h
    out = ["", _line(x0, axis_y, x0 + grid_w, axis_y), _line(x0, y0, x0, axis_y)]
    for frac in (0.0, 0.5, 1.0):
        t_val = traj.times[0] + frac * (traj.times[-1] - traj.times[0])
        tx = _fmt(x0 + frac * grid_w)
        out.append(_line(tx, axis_y, tx, axis_y + 4))
        out.append(_text(tx, axis_y + 14, 9, _fmt(t_val), "middle"))
        n_val = labels[0] + frac * (labels[-1] - labels[0])
        out.append(_text(x0 - 4, _fmt(axis_y - frac * grid_h + 3), 9, _fmt(n_val), "end"))
    out.append(_text(x0 + grid_w // 2, axis_y + 26, 10, "time t (1/kappa)", "middle"))
    mid_y = y0 + grid_h // 2
    out.append(_text(12, mid_y, 10, "site n", "middle", f' transform="rotate(-90 12 {mid_y})"'))

    # color scale: vertical bar, bright (vmax) on top
    bar_x = x0 + grid_w + _BAR_GAP
    steps = 32
    step_h = grid_h / steps
    for s in range(steps):
        level = int(round((steps - 1 - s) / (steps - 1) * 255))
        out.append(_rect(bar_x, _fmt(y0 + s * step_h), _BAR_WIDTH, _fmt(step_h + 0.5),
                         _hex(COLOR_TABLE[level])))
    for y, body in ((y0 + 8, _fmt(vmax)), (axis_y, "0"), (mid_y, "rho")):
        out.append(_text(bar_x + _BAR_WIDTH + 4, y, 9, body))
    out.append("</svg>\n")
    yield "\n".join(out).encode("utf-8")
