import math

import numpy as np
import pytest

from nhlattice import (
    ChainSpec,
    ConfigError,
    ExcitationSpec,
    Trajectory,
    build_chain_hamiltonian,
    evolve_exact,
    make_excitation,
    preset_config,
    resolve_config,
)
from nhlattice.configio import (
    config_hash,
    parse_config_text,
    parse_phase,
    read_config,
    read_metrics,
    read_table_csv,
    read_trajectory_csv,
    render_config,
    render_manifest,
    write_metrics,
    write_table_csv,
    write_text_atomic,
    write_trajectory_csv,
)

import reference


# ---------------------------------------------------------------- phases


@pytest.mark.parametrize("token,value", [
    ("pi", math.pi),
    ("-pi", -math.pi),
    ("pi/2", math.pi / 2),
    ("-pi/4", -math.pi / 4),
    ("3*pi/4", 3 * math.pi / 4),
    ("2pi/3", 2 * math.pi / 3),
    ("0.5", 0.5),
    ("-1.25e-1", -0.125),
])
def test_parse_phase_tokens(token, value):
    assert parse_phase(token) == pytest.approx(value, abs=0)


def test_parse_phase_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_phase("two pies")
    with pytest.raises(ConfigError):
        parse_phase("pi/0")


# ---------------------------------------------------------------- config docs


def test_config_roundtrip_for_all_presets():
    from nhlattice import PRESETS

    for name in PRESETS:
        config = resolve_config(preset_config(name))
        text = render_config(config)
        assert parse_config_text(text) == config


def test_minimal_config_uses_defaults():
    config = parse_config_text("experiment = dispersion_scan\n")
    assert config.kappa == 1.0
    assert config.dispersion.q_points == 257
    assert config.excitation is None


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="wibble"):
        parse_config_text("experiment = storage\nwibble = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("experiment = storage\nkappa = 1\nkappa = 2\n")


def test_missing_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config_text("kappa = 1\n")


def test_bad_enum_value_names_key():
    with pytest.raises(ConfigError, match="boundary"):
        parse_config_text("experiment = storage\nboundary = moebius\n")


def test_defect_parsing():
    config = parse_config_text(
        "experiment = transport_gaussian\ndefects = 10:2:0, -5:1.5:0.25\n")
    sites = [(d.site, d.v_real, d.xi_imag) for d in config.defects]
    assert sites == [(10, 2.0, 0.0), (-5, 1.5, 0.25)]
    with pytest.raises(ConfigError, match="defect"):
        parse_config_text("experiment = storage\ndefects = 10:2\n")


def test_read_config_missing_file_names_it(tmp_path):
    with pytest.raises(ConfigError, match="nowhere.cfg"):
        read_config(tmp_path / "nowhere.cfg")


def test_manifest_hash_ignores_comments():
    config = resolve_config(preset_config("fig2"))
    a = render_manifest(config, method_tag="closed_form")
    b = render_manifest(config, method_tag="something_else")
    assert a != b
    assert config_hash(a) == config_hash(b)


# ---------------------------------------------------------------- trajectory csv


def _small_trajectory():
    spec = ChainSpec(kappa=1.0, beta=0.4, gamma=0.8, phi=math.pi / 2,
                     n_sites=21, index_origin=-10)
    h = build_chain_hamiltonian(spec)
    c0 = make_excitation(ExcitationSpec(kind="single_site", n0=0), spec.site_labels)
    return evolve_exact(h, c0, 2.0, 0.5)


def test_trajectory_csv_roundtrip_bit_exact(tmp_path):
    traj = _small_trajectory()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,site,re,im"
    assert len(lines) - 1 == traj.n_samples * len(traj.site_labels)
    back = read_trajectory_csv(path, method_tag=traj.method_tag)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.site_labels, traj.site_labels)
    assert np.array_equal(back.amplitudes, traj.amplitudes)
    assert np.array_equal(back.norm_series, traj.norm_series)


def test_trajectory_csv_row_order_time_major(tmp_path):
    traj = _small_trajectory()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    times = [float(r[0]) for r in rows]
    assert times == sorted(times)
    first_block = [int(r[1]) for r in rows[: len(traj.site_labels)]]
    assert first_block == sorted(first_block)


def test_trajectory_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="header"):
        read_trajectory_csv(path)


def test_trajectory_csv_bytes_match_per_element_writer_and_read_back_bitwise(tmp_path):
    specials = np.array([-0.0, 0.0, 5e-324, 1e-300, 1e300, -1e300, -5e-324, 1 / 3])
    amps = np.array([specials[:4] + 1j * specials[4:], specials[::-1][:4] + 1j * specials[:4],
                     specials[2:6] - 1j * specials[1:5]])
    amps[0, 1] = complex(-0.0, -0.0)
    labels = np.array([-3, -2, 0, 7])
    times = np.array([0.0, 0.1, 0.30000000000000004])
    traj = Trajectory(times=times, amplitudes=amps, site_labels=labels,
                      norm_series=np.zeros(3), method_tag="expm_multiply")
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == reference.trajectory_csv_text(times, amps, labels).encode()
    with np.errstate(over="ignore"):  # the 1e300 entries overflow the norm series
        back = read_trajectory_csv(path)
    assert back.amplitudes.tobytes() == amps.tobytes()
    assert back.times.tobytes() == times.tobytes()
    assert np.array_equal(back.site_labels, labels)


@pytest.mark.parametrize("body,match", [
    ("", "no data rows"),
    ("0,0,1,0\n0,1,oops,0\n", "malformed row"),
    ("0,0,1,0\n0,1,1\n", "malformed row"),
    ("0,0,1,0\n0,1,1,0\n0.5,0,1,0\n", "row count 3 is not a multiple"),
], ids=["no_rows", "bad_number", "short_row", "bad_row_count"])
def test_trajectory_csv_reader_errors_name_the_path(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("t,site,re,im\n" + body)
    with pytest.raises(ConfigError, match=match) as err:
        read_trajectory_csv(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------- tables, metrics


def test_table_roundtrip(tmp_path):
    header = ("phi", "q", "reE")
    rows = np.array([[0.0, -math.pi, -2.0], [0.5, 0.125, 1.75]])
    path = tmp_path / "scan.csv"
    write_table_csv((header, rows), path)
    back_header, back_rows = read_table_csv(path)
    assert back_header == header
    assert np.array_equal(back_rows, rows)


def test_metrics_roundtrip(tmp_path):
    metrics = {
        "preset": "fig6a",
        "config_hash": "sha256:00ff",
        "efficiency": 0.03188,
        "release_direction": "forward",
        "monotone": True,
        "warned": False,
        "barrier_lo": -5,
        "centroid_series": (0.0, 0.5, 1.0000000000000002),
    }
    path = tmp_path / "metrics.txt"
    write_metrics(metrics, path)
    assert read_metrics(path) == metrics


def test_metrics_keys_for_transport_and_storage(preset_results):
    transport, _ = preset_results("fig4d")
    assert "reflection_fraction" in transport.metrics
    assert "velocity_estimate" in transport.metrics
    storage, _ = preset_results("fig6a")
    for key in ("efficiency", "shape_fidelity", "release_direction"):
        assert key in storage.metrics


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(target, "hello\n")
    assert target.read_text() == "hello\n"
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []
