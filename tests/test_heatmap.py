import hashlib
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from nhlattice import Trajectory, cli
from nhlattice.configio import _CSV_CHUNK, read_trajectory_csv
from nhlattice.heatmap import COLOR_TABLE, luminance, render_heatmap, render_heatmap_file


def _trajectory(amplitudes, times=None, labels=None):
    amplitudes = np.asarray(amplitudes, dtype=complex)
    n_samples, dim = amplitudes.shape
    times = np.arange(n_samples) * 0.5 if times is None else np.asarray(times, float)
    labels = np.arange(dim) if labels is None else np.asarray(labels)
    norms = np.sum(np.abs(amplitudes) ** 2, axis=1)
    return Trajectory(times=times, amplitudes=amplitudes,
                      site_labels=labels, norm_series=norms,
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


def test_non_finite_profile_rejected_before_the_levels():
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            render_heatmap(_trajectory([[1.0, 0.5], [1.0, bad]]))


def _same_bytes_as_the_oracle(traj, title):
    """render_heatmap and render_heatmap_file both give the per-cell oracle's bytes."""
    expected = reference.heatmap_svg(traj.times, traj.amplitudes, traj.site_labels,
                                     title).encode("utf-8")
    assert render_heatmap(traj, title).encode("utf-8") == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "heatmap.svg"
        render_heatmap_file(traj, path, title)
        assert path.read_bytes() == expected


@st.composite
def _heatmap_cases(draw):
    """A trajectory and a title: one site or many, sample counts at and around a
    multiple of the cells compacted at a time, offset or negative site labels, dark
    sites and samples lit on one site, row scales from 1e-100 to 1e100."""
    n_sites = draw(st.one_of(st.just(1), st.integers(2, 9), st.integers(10, 300)))
    step = max(1, _CSV_CHUNK // n_sites)  # samples a block
    n_samples = draw(st.one_of(st.just(1), st.integers(2, 5),
                               st.sampled_from([step - 1, step, step + 1, 2 * step + 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=(n_samples, n_sites)) + 1j * rng.normal(size=(n_samples, n_sites))
    amps *= rng.random((n_samples, n_sites)) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    amps[np.arange(n_samples), rng.integers(0, n_sites, n_samples)] += 1.0  # no zero row
    amps *= 10.0 ** rng.uniform(-100, 100, size=(n_samples, 1))
    origin = draw(st.one_of(st.just(0), st.integers(-10**6, 10**6)))
    t0 = draw(st.floats(-1e3, 1e3))
    times = t0 + np.arange(n_samples) * draw(st.floats(1e-3, 10.0))
    title = draw(st.one_of(st.text(st.sampled_from("ab &<>;\"'\u00e9\u03ba\u4e2d\U0001f600"),
                                   max_size=12), st.text(max_size=8)))
    return _trajectory(amps, times, origin + np.arange(n_sites)), title


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_heatmap_cases())
def test_drawn_heatmaps_bitwise_equal_the_per_cell_oracle(case):
    _same_bytes_as_the_oracle(*case)


def test_dark_samples_bitwise_equal_the_per_cell_oracle():
    # every level of a uniform row over 510^2 + 1 sites rounds to 0 against a lit
    # site's 1: a sample, and so a whole block, with no lit cell
    n = 510**2 + 1
    amps = np.zeros((3, n), dtype=complex)
    amps[0, 5] = amps[2, -1] = 1.0
    amps[1] = 1.0
    traj = _trajectory(amps, labels=np.arange(n) - n // 2)
    assert render_heatmap(traj).count('<rect x="49"') == 0  # the middle sample is dark
    _same_bytes_as_the_oracle(traj, "dark")


def test_cli_streams_the_bytes_render_heatmap_returns(tmp_path, preset_results):
    assert cli.main(["transport", "--preset", "fig3a", "--out", str(tmp_path / "o"),
                     "--format", "csv+svg"]) == 0
    svg = (tmp_path / "o" / "heatmap.svg").read_bytes()
    fig3a, _ = preset_results("fig3a")
    assert svg == render_heatmap(fig3a.trajectory, title="fig3a").encode("utf-8")


def test_cli_artifact_write_holds_no_whole_heatmap(tmp_path, preset_results):
    # fig3a's SVG is 1.98 MB over about 60k lit cells; the writes held 9.0 MB
    # at their peak while the SVG was built as one string of one str per cell
    fig3a, _ = preset_results("fig3a")
    tracemalloc.start()
    try:
        cli._write_artifacts(fig3a, tmp_path / "o", "csv+svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "o" / "heatmap.svg").stat().st_size > 1.9e6
    assert peak < 3e6, f"traced peak {peak / 1e6:.2f} MB"
