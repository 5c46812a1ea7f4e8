import hashlib
import math

import numpy as np
import pytest

from nhlattice import Trajectory
from nhlattice.configio import read_trajectory_csv
from nhlattice.heatmap import COLOR_TABLE, luminance, render_heatmap


def _trajectory(amplitudes, times=None):
    amplitudes = np.asarray(amplitudes, dtype=complex)
    n_samples, dim = amplitudes.shape
    times = np.arange(n_samples) * 0.5 if times is None else np.asarray(times, float)
    norms = np.sum(np.abs(amplitudes) ** 2, axis=1)
    return Trajectory(times=times, amplitudes=amplitudes,
                      site_labels=np.arange(dim), norm_series=norms,
                      method_tag="exact")


def test_color_table_luminance_monotone():
    assert len(COLOR_TABLE) == 256
    lums = [luminance(rgb) for rgb in COLOR_TABLE]
    assert all(b >= a for a, b in zip(lums, lums[1:]))
    assert lums[-1] > lums[0] + 100  # dark to bright, not a flat ramp


def test_color_table_digest():
    # pins all 256 levels; the golden SVGs hold only the levels their presets reach
    digest = hashlib.sha256(repr(COLOR_TABLE).encode()).hexdigest()
    assert digest == "07519e6fae9e9bde3fa18c248f0e9fba50d6362b68760b53505daba398f11c9b"


def test_render_deterministic():
    rng = np.random.default_rng(1)
    amps = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
    traj = _trajectory(amps)
    assert render_heatmap(traj, title="x") == render_heatmap(traj, title="x")


def test_single_snapshot_single_column():
    amps = np.linspace(0.1, 1.0, 7)[None, :].astype(complex)
    svg = render_heatmap(_trajectory(amps, times=[0.0]))
    assert svg.startswith("<svg ")
    # cells live in one 3px column at the grid origin x=46
    cell_lines = [l for l in svg.splitlines()
                  if l.startswith('<rect x="46"') and 'height="3"' in l]
    assert len(cell_lines) >= 6


def test_uniform_state_uniform_luminance():
    amps = np.full((1, 8), 0.5 + 0.5j)
    svg = render_heatmap(_trajectory(amps, times=[0.0]))
    bright = "#%02x%02x%02x" % COLOR_TABLE[255]
    cells = [l for l in svg.splitlines() if f'fill="{bright}"' in l and 'width="3"' in l]
    assert len(cells) == 8


def test_luminance_tracks_profile_value():
    amps = np.array([[0.0, 0.25, 0.5, 1.0]], dtype=complex)
    svg = render_heatmap(_trajectory(amps, times=[0.0]))
    rho = np.array([0.0, 0.25, 0.5, 1.0]) / math.sqrt(1.3125)
    levels = np.rint(rho / rho.max() * 255).astype(int)
    lums = [luminance(COLOR_TABLE[k]) for k in levels]
    assert all(b > a for a, b in zip(lums, lums[1:]))


def test_empty_profile_rejected():
    amps = np.zeros((2, 5), dtype=complex)
    with pytest.raises(ValueError):
        render_heatmap(_trajectory(amps))


def test_read_back_trajectory_beyond_the_range_of_squares_renders(tmp_path):
    # |c|^2 overflows on every site; the profile is the one of the same state at 1e-199 scale
    path = tmp_path / "trajectory.csv"
    path.write_text("t,site,re,im\n0,0,1e200,0\n0,1,0,1e199\n0.5,0,3e199,0\n0.5,1,0,4e199\n")
    traj = read_trajectory_csv(path)  # its norm series reads inf, with no numpy warning
    assert np.all(np.isinf(traj.norm_series))
    small = _trajectory([[10.0, 1.0j], [3.0, 4.0j]])
    assert render_heatmap(traj, title="x") == render_heatmap(small, title="x")


def test_dimensions_scale_with_input():
    small = render_heatmap(_trajectory(np.ones((2, 4), dtype=complex)))
    large = render_heatmap(_trajectory(np.ones((20, 4), dtype=complex)))
    def width(svg):
        return int(svg.split('width="')[1].split('"')[0])
    assert width(large) - width(small) == (20 - 2) * 3


def test_untitled_render_bytes_pinned():
    # integer amplitudes keep every cell level exact; covers the axes, tick
    # labels and color-bar markup of a render without a title
    times = np.arange(5) * 0.25
    amps = ((3 * np.arange(5)[:, None] + 2 * np.arange(7)[None, :]) % 5).astype(complex)
    traj = Trajectory(times=times, amplitudes=amps, site_labels=np.arange(-3, 4),
                      norm_series=np.sum(np.abs(amps) ** 2, axis=1), method_tag="exact")
    svg = render_heatmap(traj)
    assert '<text x="46" y="10"' not in svg  # no title line
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "3bb2bafd9ce01d49feb7f0d2014451dc845dde48609ecf5fb62e99fb21c1c660")
