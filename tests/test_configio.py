import contextlib
import errno
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from nhlattice import (
    ChainSpec,
    ConfigError,
    ExcitationSpec,
    GainRunawayError,
    Operator,
    StateVector,
    Trajectory,
    build_chain_hamiltonian,
    evolve_exact,
    make_excitation,
    preset_config,
    resolve_config,
)
from nhlattice import configio
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


_FLOAT_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1 / 3]),
).map(repr)
_PI_TOKENS = st.builds("{}{}pi{}".format, st.sampled_from(["", "-", "+"]),
                       st.sampled_from(["", "3*", "2", "0.5*"]),
                       st.sampled_from(["", "/2", "/4", "/3"]))
_PHASE_TOKENS = st.one_of(_FLOAT_TOKENS, _PI_TOKENS)
_INT_TOKENS = st.integers(-10**6, 10**6).map(str)
_DEFECT_TOKENS = st.builds("{}:{}:{}".format, _INT_TOKENS, _FLOAT_TOKENS, _FLOAT_TOKENS)


def _lists(tokens):
    return st.lists(tokens, max_size=4).map(", ".join)


def _token_or(token, tokens):
    return st.one_of(st.just(token), tokens)


#: every config key in canonical order, with tokens drawn from its kind
_KEY_TOKENS = {
    "experiment": st.sampled_from(["dispersion_scan", "transport_single_site",
                                   "transport_gaussian", "storage", "reduction_check"]),
    "preset": st.from_regex(r"[A-Za-z0-9_.-]*", fullmatch=True),
    "kappa": _FLOAT_TOKENS,
    "beta": _FLOAT_TOKENS,
    "gamma": _FLOAT_TOKENS,
    "phi": _PHASE_TOKENS,
    "boundary": st.sampled_from(["open", "periodic"]),
    "chain_length": _token_or("auto", _INT_TOKENS),
    "index_origin": _token_or("auto", _INT_TOKENS),
    "defects": _token_or("none", _lists(_DEFECT_TOKENS)),
    "excitation.kind": st.sampled_from(["none", "single_site", "gaussian"]),
    "excitation.n0": _INT_TOKENS,
    "excitation.w0": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    "excitation.q0": _PHASE_TOKENS,
    "excitation.normalize": st.sampled_from(["true", "false"]),
    "timing.t_final": _FLOAT_TOKENS,
    "timing.sample_dt": _FLOAT_TOKENS,
    "timing.t_prime": _token_or("none", _FLOAT_TOKENS),
    "storage.n_half": _INT_TOKENS,
    "storage.v_c": _FLOAT_TOKENS,
    "storage.xi": _FLOAT_TOKENS,
    "storage.retrieval_phase_sign": st.sampled_from(["forward", "reversed"]),
    "storage.xi_sweep": _token_or("none", _lists(_FLOAT_TOKENS)),
    "reduction.j_values": _lists(_FLOAT_TOKENS),
    "reduction.theta": _token_or("none", _PHASE_TOKENS),
    "reduction.b_init": st.sampled_from(["slaved", "zero"]),
    "reduction.aux_sign": st.sampled_from(["gain", "loss"]),
    "dispersion.phi_values": _lists(_PHASE_TOKENS),
    "dispersion.q_points": st.integers(3, 10**6).map(str),
}


@st.composite
def _config_documents(draw):
    optional = {key: tokens for key, tokens in _KEY_TOKENS.items() if key != "experiment"}
    tokens = draw(st.fixed_dictionaries({"experiment": _KEY_TOKENS["experiment"]},
                                        optional=optional))
    lines = draw(st.permutations([f"{key} = {token}" for key, token in tokens.items()]))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=100)
@given(document=_config_documents())
def test_render_parse_round_trip_over_generated_configs(document):
    config = parse_config_text(document)
    text = render_config(config)
    assert [line.split(" = ")[0] for line in text.splitlines()[1:]] == list(_KEY_TOKENS)
    back = parse_config_text(text)
    assert back == config
    assert render_config(back) == text


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


_SPECIALS = np.array([-0.0, 0.0, 5e-324, 1e-300, 1e300, -1e300, -5e-324, 1 / 3])


def _special_trajectory(n_samples):
    labels = np.array([-3, -2, 0, 7])
    cells = np.resize(_SPECIALS, 2 * n_samples * len(labels)).reshape(n_samples, len(labels), 2)
    amps = cells[:, :, 0] + 1j * cells[:, :, 1]
    amps[0, 1] = complex(-0.0, -0.0)
    times = np.arange(n_samples) * 0.1
    return Trajectory(times=times, amplitudes=amps, site_labels=labels,
                      norm_series=np.zeros(n_samples), method_tag="expm_multiply")


def _reference_bytes(traj):
    return reference.trajectory_csv_text(traj.times, traj.amplitudes, traj.site_labels).encode()


@pytest.fixture
def two_cpus(monkeypatch):
    """Take the forked path whatever the CPU count; count the forks."""
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is not available")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []  # the pids of the helpers forked
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("n_samples", [1, 2, 3, 241])
def test_two_process_csv_bytes_match_reference(tmp_path, two_cpus, n_samples):
    traj = _special_trajectory(n_samples)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == _reference_bytes(traj)
    assert len(two_cpus) == (n_samples >= 2)
    # the helper's side file is unlinked and the temp file renamed; no child is left
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_bytes_same_when_fork_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def failing_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork, raising=False)
    traj = _special_trajectory(241)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == _reference_bytes(traj)
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]


def test_csv_bytes_same_when_helper_fails(tmp_path, monkeypatch, two_cpus):
    parent = os.getpid()
    real_format = configio._format_samples

    def failing_in_helper(fh, times, values, rows):
        if os.getpid() != parent:
            fh.write(b"partial garbage\n")
            fh.flush()
            raise RuntimeError("helper failed")
        real_format(fh, times, values, rows)

    monkeypatch.setattr(configio, "_format_samples", failing_in_helper)
    traj = _special_trajectory(241)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    assert len(two_cpus) == 1
    assert path.read_bytes() == _reference_bytes(traj)
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stream(path, t_final=12.0, before_finish=lambda: None):
    """Evolve a small chain into a TrajectorySink on ``path`` and finish it."""
    spec = ChainSpec(kappa=1.0, beta=0.4, gamma=0.8, phi=math.pi / 2,
                     n_sites=21, index_origin=-10)
    h = build_chain_hamiltonian(spec)
    c0 = make_excitation(ExcitationSpec(kind="single_site", n0=0), spec.site_labels)
    with configio.TrajectorySink(path) as sink:
        traj = evolve_exact(h, c0, t_final, 0.25, sink=sink)
        before_finish()
        write_trajectory_csv(traj, path, sink)
    assert traj.amplitudes.tobytes() == evolve_exact(h, c0, t_final, 0.25).amplitudes.tobytes()
    return traj


@pytest.mark.parametrize("cpus", [1, 2])
def test_streamed_csv_bytes_match_reference(tmp_path, two_cpus, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    path = tmp_path / "trajectory.csv"
    traj = _stream(path)
    assert path.read_bytes() == _reference_bytes(traj)
    assert len(two_cpus) == (cpus == 2)
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]


def test_streamed_csv_bytes_same_when_fork_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def failing_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork, raising=False)
    path = tmp_path / "trajectory.csv"
    traj = _stream(path)
    assert path.read_bytes() == _reference_bytes(traj)
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]


@pytest.mark.parametrize("death", ["exits_1", "killed"])
def test_streamed_csv_bytes_same_when_helper_dies_mid_stream(tmp_path, monkeypatch, two_cpus,
                                                            death):
    parent = os.getpid()
    if death == "exits_1":
        real_format = configio._format_samples

        def failing_in_helper(fh, times, values, rows):
            if os.getpid() != parent and len(times) and times[0] >= 2.0:
                fh.write(b"partial garbage\n")
                fh.flush()
                raise RuntimeError("helper failed")
            real_format(fh, times, values, rows)

        monkeypatch.setattr(configio, "_format_samples", failing_in_helper)
    else:
        real_publish = configio.TrajectorySink.publish

        def killing_publish(sink, count):
            if count == 10:
                os.kill(two_cpus[0], signal.SIGKILL)
            real_publish(sink, count)

        monkeypatch.setattr(configio.TrajectorySink, "publish", killing_publish)
    path = tmp_path / "trajectory.csv"

    def wait_for_death():  # so that it falls before finish; WNOWAIT leaves the helper unreaped
        with contextlib.suppress(ChildProcessError):  # publish already reaped it
            os.waitid(os.P_PID, two_cpus[0], os.WEXITED | os.WNOWAIT)

    traj = _stream(path, before_finish=wait_for_death)
    # the streaming helper died; finish forked a second one with every sample published
    assert len(two_cpus) == 2
    assert path.read_bytes() == _reference_bytes(traj)
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]


def test_streamed_csv_abort_when_the_run_raises_mid_propagation(tmp_path, two_cpus):
    h = Operator(scipy.sparse.csr_array(40j * np.eye(3)), np.arange(3))
    c0 = StateVector(np.ones(3, dtype=complex), np.arange(3))
    with pytest.raises(GainRunawayError):
        with configio.TrajectorySink(tmp_path / "trajectory.csv") as sink:
            evolve_exact(h, c0, 10.0, 0.25, sink=sink)
    assert len(two_cpus) == 1
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sink_finished_with_another_trajectory_writes_that_one(tmp_path, two_cpus):
    spec = ChainSpec(kappa=1.0, beta=0.4, gamma=0.8, phi=math.pi / 2,
                     n_sites=21, index_origin=-10)
    h = build_chain_hamiltonian(spec)
    c0 = make_excitation(ExcitationSpec(kind="single_site", n0=0), spec.site_labels)
    other = _special_trajectory(30)
    path = tmp_path / "trajectory.csv"
    with configio.TrajectorySink(path) as sink:
        evolve_exact(h, c0, 12.0, 0.25, sink=sink)
        write_trajectory_csv(other, path, sink)
    assert len(two_cpus) == 2
    assert path.read_bytes() == _reference_bytes(other)


def test_csv_helper_does_not_flush_parent_stdout(tmp_path):
    # stdout is a pipe, so the marker sits unflushed in the buffer across the fork
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is not available")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import os, sys, numpy as np\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from nhlattice import Trajectory\n"
        "from nhlattice.configio import write_trajectory_csv\n"
        "sys.stdout.write('unflushed marker\\n')\n"
        "traj = Trajectory(times=np.arange(8.0), amplitudes=np.ones((8, 3), complex),\n"
        "                  site_labels=np.arange(3), norm_series=np.ones(8), method_tag='x')\n"
        "write_trajectory_csv(traj, sys.argv[1])\n"
    )
    path = tmp_path / "trajectory.csv"
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "unflushed marker\n"
    assert path.read_text().count("\n") == 1 + 8 * 3


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
