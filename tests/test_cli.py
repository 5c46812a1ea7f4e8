import contextlib
import io
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhlattice import PRESETS, protocols
from nhlattice.cli import main
from nhlattice.configio import (_schema, read_metrics, read_table_csv, read_trajectory_csv,
                                render_config)


FAST_TRANSPORT_CFG = """\
experiment = transport_gaussian
kappa = 1
beta = 0.4
gamma = 0.8
phi = pi/2
excitation.kind = gaussian
excitation.n0 = -15
excitation.w0 = 3
excitation.q0 = -pi/2
timing.t_final = 6
timing.sample_dt = 0.25
"""

RUNAWAY_STORAGE_CFG = """\
experiment = storage
kappa = 1
beta = 0.4
gamma = 0.8
phi = pi/2
chain_length = 41
index_origin = -20
excitation.kind = gaussian
excitation.n0 = -10
excitation.w0 = 2
excitation.q0 = -pi/2
timing.t_final = 20
timing.t_prime = 11
timing.sample_dt = 0.25
storage.n_half = 3
storage.v_c = 1
storage.xi = 40
"""


def test_dispersion_preset_artifacts(tmp_path, capsys):
    out = tmp_path / "fig2"
    assert main(["dispersion", "--preset", "fig2", "--out", str(out)]) == 0
    header, rows = read_table_csv(out / "scan.csv")
    assert header == ("phi", "q", "reE", "imE", "vg")
    assert set(np.unique(rows[:, 0]).round(6)) == {0.0, round(3.14159265 / 4, 6),
                                                   round(3.14159265 / 2, 6)}
    metrics = read_metrics(out / "metrics.txt")
    assert metrics["preset"] == "fig2"
    assert (out / "manifest.cfg").exists()


def test_dispersion_with_no_phi_reads_back_an_empty_scan(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = dispersion_scan\ndispersion.phi_values =\n")
    out = tmp_path / "out"
    assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_table_csv(out / "scan.csv")
    assert header == ("phi", "q", "reE", "imE", "vg")
    assert rows.shape == (0, 5)


#: a kick in the middle of a fixed 41-site chain; a test adds the defect
EDGE_BARRIER_CFG = """\
experiment = transport_single_site
kappa = 1
beta = 0.4
gamma = 0.8
phi = pi/2
chain_length = 41
index_origin = -20
excitation.kind = single_site
excitation.n0 = 0
timing.t_final = 6
timing.sample_dt = 0.25
"""


@pytest.mark.parametrize("site,empty", [(-19, "reflection_fraction"),
                                        (19, "transmission_fraction")],
                         ids=["lower end", "upper end"])
def test_barrier_next_to_a_chain_end_reads_0_on_its_empty_side(tmp_path, site, empty):
    # the side within REFLECTION_MARGIN = 3 sites of the barrier holds no site
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EDGE_BARRIER_CFG + f"defects = {site}:2:0\n")
    out = tmp_path / "out"
    assert main(["transport", "--config", str(cfg), "--out", str(out)]) == 0
    assert f"{empty} = 0" in (out / "metrics.txt").read_text().splitlines()
    metrics = read_metrics(out / "metrics.txt")
    assert (metrics["barrier_lo"], metrics["barrier_hi"]) == (site, site)
    parts = [metrics[f"{side}_fraction"] for side in ("reflection", "transmission", "interior")]
    assert math.fsum(parts) == pytest.approx(1.0, abs=1e-12)


def test_transport_config_run_and_artifacts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_TRANSPORT_CFG)
    out = tmp_path / "out"
    assert main(["transport", "--config", str(cfg), "--out", str(out),
                 "--format", "csv+svg"]) == 0
    traj = read_trajectory_csv(out / "trajectory.csv")
    assert traj.n_samples == 25
    svg = (out / "heatmap.svg").read_text()
    assert svg.startswith("<svg ")
    metrics = read_metrics(out / "metrics.txt")
    assert 0.0 <= metrics["reflection_fraction"] <= 1.0


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["transport", "--config", str(tmp_path / "gone.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "gone.cfg" in err


def test_unknown_preset_exits_2(tmp_path, capsys):
    code = main(["storage", "--preset", "fig99", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "fig99" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = transport_gaussian\nfrobnicate = 1\n")
    code = main(["transport", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize("line,key", [
    ("method = rk4", "method"),
    ("timing.dt = 0.001", "timing.dt"),
])
def test_removed_integrator_keys_exit_2(tmp_path, capsys, line, key):
    # manifests written before the single propagator carried these keys
    cfg = tmp_path / "old.cfg"
    cfg.write_text(FAST_TRANSPORT_CFG + line + "\n")
    code = main(["transport", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert f"unknown key {key!r}" in err


def _write_config_with(tmp_path, line, base=FAST_TRANSPORT_CFG):
    """Write ``base`` with each line of ``line`` replacing or adding its key."""
    keys = {l.split(" = ")[0] for l in line.splitlines()}
    kept = [l for l in base.splitlines() if l.split(" = ")[0] not in keys]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(kept + [line]) + "\n")
    return cfg


def _run_fast_transport_with(tmp_path, line, *extra):
    """Run FAST_TRANSPORT_CFG with each line of ``line`` replacing or adding its key."""
    cfg = _write_config_with(tmp_path, line)
    return main(["transport", "--config", str(cfg), "--out", str(tmp_path / "o"), *extra])


#: the environment of a ``python -m nhlattice`` child that imports this checkout
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}


def _cli_child(*args):
    """Start ``python -m nhlattice args`` in a child process."""
    return subprocess.Popen([sys.executable, "-m", "nhlattice", *map(str, args)],
                            env=_CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _single_config_error(capsys, key):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: config: {key}: "), lines[0]
    return lines[0]


@pytest.mark.parametrize("line", [
    "kappa = inf",
    "kappa = nan",
    "timing.t_final = -inf",
    "timing.sample_dt = nan",
    "defects = 3:nan:0",
    "storage.xi_sweep = 0.4, inf",
    "dispersion.phi_values = 0, 1e999",
])
def test_non_finite_number_exits_2_naming_the_key(tmp_path, capsys, line):
    assert _run_fast_transport_with(tmp_path, line) == 2
    assert "not a finite number" in _single_config_error(capsys, line.split(" = ")[0])


@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e999"])
def test_non_finite_t_final_flag_fails_like_the_key(tmp_path, capsys, value):
    code = main(["transport", "--preset", "fig3a", f"--t-final={value}",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not a finite number" in _single_config_error(capsys, "timing.t_final")
    assert not (tmp_path / "o").exists()


def test_bad_phase_list_item_names_the_key(tmp_path, capsys):
    assert _run_fast_transport_with(tmp_path, "dispersion.phi_values = 0, foo") == 2
    assert "'foo'" in _single_config_error(capsys, "dispersion.phi_values")


@pytest.mark.parametrize("line", [
    "chain_length = 41", "chain_length = 0", "chain_length = -5", "index_origin = -20",
])
def test_half_set_chain_extent_exits_2_naming_the_key(tmp_path, capsys, line):
    assert _run_fast_transport_with(tmp_path, line) == 2
    assert "set both" in _single_config_error(capsys, line.split(" = ")[0])
    assert not (tmp_path / "o").exists()


#: a fixed 41-site chain, which leaves the sample count to the timing keys
FIXED_41 = "chain_length = 41\nindex_origin = -20"


@pytest.mark.parametrize("line,key", [
    ("timing.sample_dt = 0", "timing.sample_dt"),
    ("timing.sample_dt = -1", "timing.sample_dt"),
    ("timing.t_final = -5", "timing.t_final"),
    ("kappa = 1e308", "chain_length"),  # the auto extent overflows to inf
    ("kappa = 1e300", "chain_length"),  # finite, but past what numpy can size, too
    ("kappa = 1e12", "chain_length"),  # 2.4e13 sites: past any machine's memory
    # more samples than memory holds, or than a float can count
    pytest.param(f"{FIXED_41}\ntiming.t_final = 1e300", "timing.t_final",
                 id="timing.t_final = 1e300-timing.t_final"),
    pytest.param(f"{FIXED_41}\ntiming.sample_dt = 1e-300", "timing.sample_dt",
                 id="timing.sample_dt = 1e-300-timing.sample_dt"),
    pytest.param(f"{FIXED_41}\ntiming.sample_dt = 5e-324", "timing.sample_dt",
                 id="timing.sample_dt = 5e-324-timing.sample_dt"),
    # checks the chain and the velocity fit would make, made before any write
    ("kappa = -1", "kappa"),
    ("beta = -1", "beta"),
    ("defects = 3:1:0, 3:1:0", "defects"),
    ("timing.t_final = 2", "timing.t_final"),  # its velocity window holds no sample
])
def test_bad_timing_or_auto_extent_exits_2_naming_the_key(tmp_path, capsys, line, key):
    assert _run_fast_transport_with(tmp_path, line) == 2
    _single_config_error(capsys, key)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line,key", [
    ("excitation.w0 = -1", "excitation.w0"),
    ("dispersion.q_points = 2", "dispersion.q_points"),
    pytest.param("boundary = periodic\nchain_length = 2\nindex_origin = -15", "chain_length",
                 id="periodic two-site chain"),
])
def test_config_dataclass_check_exits_2_naming_the_key(tmp_path, capsys, line, key):
    # the checks of ExcitationSpec, DispersionParams and ExperimentConfig themselves
    assert _run_fast_transport_with(tmp_path, line) == 2
    _single_config_error(capsys, key)
    assert not (tmp_path / "o").exists()


def test_narrow_packet_run_prints_nothing_on_stderr(tmp_path):
    # |n - n0| / w0 squares past the double range off the centre site: exp(-inf) = 0
    cfg = _write_config_with(tmp_path, "excitation.w0 = 1e-300")
    proc = subprocess.run([sys.executable, "-m", "nhlattice", "transport", "--config", str(cfg),
                           "--out", str(tmp_path / "o")], env=_CHILD_ENV, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("command,preset,line,key", [
    ("storage", "fig6a", "storage.n_half = 0", "storage.n_half"),
    ("reduce-check", "reduction", "reduction.j_values = 0", "reduction.j_values"),
    ("reduce-check", "reduction", "reduction.j_values = 4, -8", "reduction.j_values"),
    # a capture window [t_prime/2, t_prime] between two samples
    pytest.param("storage", "fig6a", "timing.t_prime = 0.2\ntiming.t_final = 20",
                 "timing.t_prime", id="storage-fig6a-timing.t_prime = 0.2"),
    # a fixed chain whose release out region, past n_half + 2, holds no site
    pytest.param("storage", "fig6a", "chain_length = 80\nindex_origin = -75", "chain_length",
                 id="storage-fig6a-chain ends at 4"),
    pytest.param("storage", "fig6b", "chain_length = 80\nindex_origin = -5\nexcitation.n0 = 20",
                 "index_origin", id="storage-fig6b-chain starts at -5"),
    # the sandwich and the sawtooth are open chains
    pytest.param("storage", "fig6a", "boundary = periodic\nchain_length = 80\nindex_origin = -45",
                 "boundary", id="storage-fig6a-boundary = periodic"),
    ("reduce-check", "reduction", "boundary = periodic", "boundary"),
    # the sawtooth's own checks: sublattice loss gamma_a = gamma + 2*beta < 0, u_b = i*j^2/beta
    # past the double range or 0, and a phase phi = 2*theta that is not finite
    pytest.param("reduce-check", "reduction", "reduction.aux_sign = gain\ngamma = -1", "gamma",
                 id="reduce-check-reduction-gain with gamma = -1"),
    ("reduce-check", "reduction", "reduction.j_values = 4, 1e200", "reduction.j_values"),
    ("reduce-check", "reduction", "reduction.j_values = 4, 1e-200", "reduction.j_values"),
    ("reduce-check", "reduction", "reduction.theta = 1e308", "reduction.theta"),
])
def test_bad_storage_or_reduction_key_exits_2_before_any_write(tmp_path, capsys, command,
                                                               preset, line, key):
    cfg = _write_config_with(tmp_path, line, render_config(PRESETS[preset]))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    _single_config_error(capsys, key)
    _assert_left_nothing(tmp_path, tmp_path / "o")


#: short runs on a fixed 41-site chain, one per subcommand with a chain, for drawn configs
_CENTRED = FAST_TRANSPORT_CFG.replace("excitation.n0 = -15", "excitation.n0 = 0") + FIXED_41
DRAWN_BASES = {
    "transport": _CENTRED + "\n",
    "storage": RUNAWAY_STORAGE_CFG.replace("storage.xi = 40", "storage.xi = 0.4"),
    "reduce-check": _CENTRED.replace("transport_gaussian", "reduction_check").replace(
        "timing.t_final = 6", "timing.t_final = 2") + "\nreduction.aux_sign = loss\n",
}
#: the keys drawn on each base
DRAWN_KEYS = {
    "transport": ("kappa", "beta", "gamma", "phi", "chain_length", "index_origin", "defects"),
    "storage": ("storage.n_half", "storage.v_c", "storage.xi", "storage.xi_sweep",
                "timing.t_prime", "chain_length", "index_origin", "defects"),
    "reduce-check": ("reduction.j_values", "reduction.theta", "reduction.aux_sign", "beta",
                     "gamma", "chain_length", "defects"),
}
#: the magnitudes drawn, each with either sign
DRAWN_MAGNITUDES = (0.0, 1.0, 5e-324, 1e-200, 1e200, 1e308)


@st.composite
def _drawn_runs(draw):
    """(subcommand, config lines): one or two keys of a base set to a drawn extreme."""
    command = draw(st.sampled_from(sorted(DRAWN_BASES)))
    lines = []
    for key in draw(st.lists(st.sampled_from(DRAWN_KEYS[command]), min_size=1, max_size=2,
                             unique=True)):
        x = draw(st.sampled_from(DRAWN_MAGNITUDES)) * draw(st.sampled_from((1.0, -1.0)))
        if key == "defects":  # the site, the real potential or the gain of one defect
            token = draw(st.sampled_from((f"{int(x)}:1:0", f"3:{x!r}:0", f"3:1:{x!r}")))
        else:
            token = {"chain_length": str(int(x)), "index_origin": str(int(x)),
                     "storage.n_half": str(int(x)), "reduction.j_values": f"4, {x!r}",
                     "storage.xi_sweep": f"0.4, {x!r}", "reduction.aux_sign": "gain",
                     }.get(key, repr(x))
        lines.append(f"{key} = {token}")
    return command, "\n".join(lines)


def _counted(calls, fn):
    def count(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return count


@given(run=_drawn_runs())
@example(run=("reduce-check", "reduction.aux_sign = gain\ngamma = -1"))
@example(run=("reduce-check", "reduction.j_values = 4, 1e200"))
@example(run=("reduce-check", "reduction.j_values = 4, 1e-200"))
@example(run=("reduce-check", "reduction.theta = 1e308"))
@settings(derandomize=True, max_examples=60)
def test_drawn_extreme_keys_exit_2_naming_a_key_before_any_propagation(run):
    command, lines = run
    calls = []
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(protocols, "evolve_exact", _counted(calls, protocols.evolve_exact)), \
            mock.patch.object(protocols, "evolve_schedule",
                              _counted(calls, protocols.evolve_schedule)), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        cfg = _write_config_with(Path(tmp), lines, DRAWN_BASES[command])
        code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3), err.getvalue()
    if code == 2:
        printed = err.getvalue().splitlines()
        assert len(printed) == 1, printed
        key = printed[0].removeprefix("error: config: ").split(": ")[0]
        assert printed[0].startswith("error: config: ") and key in _schema(), printed[0]
        assert calls == [], printed[0]


def test_packet_near_a_chain_end_warns_of_its_clearance_once(tmp_path):
    # 6 sites from the lower end, where a w0 = 3 packet wants 12
    cfg = _write_config_with(tmp_path, f"{FIXED_41}\nexcitation.n0 = -14")
    proc = subprocess.run([sys.executable, "-m", "nhlattice", "transport", "--config", str(cfg),
                           "--out", str(tmp_path / "o")], env=_CHILD_ENV, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("sites of clearance to a chain end") == 1, proc.stderr


@pytest.mark.parametrize("command,base", [
    pytest.param("transport", FAST_TRANSPORT_CFG, id="transport"),
    # the experiment without a chain
    pytest.param("dispersion", render_config(PRESETS["fig2"]), id="dispersion"),
])
def test_preset_label_metrics_cannot_hold_exits_2_before_any_write(tmp_path, capsys, command,
                                                                   base):
    cfg = _write_config_with(tmp_path, "preset = a=b", base)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    _single_config_error(capsys, "preset")
    _assert_left_nothing(tmp_path, tmp_path / "o")


def test_heatmap_of_a_title_with_markup_characters_parses(tmp_path):
    from xml.dom import minidom

    assert _run_fast_transport_with(tmp_path, "preset = a<b&c>d", "--format", "csv+svg") == 0
    svg = minidom.parse(str(tmp_path / "o" / "heatmap.svg"))
    assert svg.getElementsByTagName("text")[0].firstChild.data == "a<b&c>d"


@pytest.mark.parametrize("command,preset,t_final", [
    ("storage", "fig6a", "36"),  # ends inside the release velocity window
    ("transport", "fig3d", "2"),  # too short for a velocity window
])
def test_t_final_without_a_velocity_window_exits_2_before_any_write(tmp_path, capsys, command,
                                                                    preset, t_final):
    code = main([command, "--preset", preset, "--t-final", t_final,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "selects 0 samples; need >= 5" in _single_config_error(capsys, "timing.t_final")
    _assert_left_nothing(tmp_path, tmp_path / "o")


@pytest.mark.parametrize("line", [
    "gamma = 1e40",
    "gamma = 1e100",
    "gamma = 1e308",  # the trace shift overflows: a NaN sub-step count
    "defects = 0:1e100:0",
    "kappa = 1e15",
    pytest.param("timing.t_final = 1e15\ntiming.sample_dt = 1e13",
                 id="timing.t_final = 1e15, timing.sample_dt = 1e13"),
])
def test_too_many_sub_steps_exits_3_at_once(tmp_path, line):
    # each case would plan 1e12 or more sub-steps for its first gap; a
    # regression times out instead of hanging the suite
    cfg = _write_config_with(tmp_path, f"{FIXED_41}\nexcitation.n0 = 0\n{line}")
    out = tmp_path / "o" / "nested"
    proc = _cli_child("transport", "--config", cfg, "--out", out)
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 3, err
    lines = err.splitlines()
    assert len(lines) == 1, lines  # no RuntimeWarning either
    assert lines[0].startswith("error: numerical: a sample gap of "), lines[0]
    assert "sub-steps (limit 1000)" in lines[0]
    _assert_left_nothing(tmp_path, tmp_path / "o")


#: the CLI in a child that, at a stage argv[1] names, prints "paused" on
#: stderr and sleeps until a signal ends it; an artifact's name pauses it
#: just before that artifact's write begins
PAUSING_CLI = """\
import sys, time
from nhlattice import cli, configio, dynamics

owner, name, at = {"propagation": (dynamics._Stepper, "__call__", 10),
                   "csv_write": (configio, "_format_values", 1),
                   "heatmap": (cli, "render_heatmap_file", 1),
                   "trajectory.csv": (configio, "_atomic", 1),
                   "manifest.cfg": (configio, "_atomic", 2),
                   "metrics.txt": (configio, "_atomic", 3),
                   "heatmap.svg": (configio, "_atomic", 4)}[sys.argv.pop(1)]
real, calls = getattr(owner, name), []

def paused(*args, **kwargs):
    calls.append(None)
    if len(calls) == at:
        print("paused", file=sys.stderr, flush=True)
        while True:
            time.sleep(60)
    return real(*args, **kwargs)

setattr(owner, name, paused)
sys.exit(cli.main())
"""


def _files(root):
    """Each file under ``root`` with its bytes, leaving out a run's stage; None: no ``root``."""
    if not root.exists():
        return None
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and ".nhlattice-" not in p.relative_to(root).as_posix()}


def _sigterm_when_paused(tmp_path, stage, *extra):
    """Run FAST_TRANSPORT_CFG into tmp_path/o/nested, paused at ``stage``; SIGTERM it there.

    It must exit 143, and tmp_path/o must hold the same files at the pause
    and after the exit as before the run.  Returns the files the run's stage
    held at the pause (None: no stage yet).
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_TRANSPORT_CFG)
    before = _files(tmp_path / "o")
    proc = subprocess.Popen([sys.executable, "-c", PAUSING_CLI, stage, "transport",
                             "--config", str(cfg), "--out", str(tmp_path / "o" / "nested"),
                             *extra], env=_CHILD_ENV, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stderr.readline() == "paused\n"
        assert _files(tmp_path / "o") == before
        stages = list(tmp_path.rglob(".nhlattice-*"))
        staged = sorted(p.name for p in stages[0].rglob("*") if p.is_file()) if stages else None
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 143, err
    _assert_left_nothing(tmp_path, tmp_path / "o", before)
    return staged


@pytest.mark.skipif(sys.platform == "win32", reason="SIGTERM is TerminateProcess there")
def test_sigterm_exits_143_and_leaves_nothing(tmp_path):
    # stopped in the CSV write: its temp file is in the stage, and --out is not made yet
    [staged] = _sigterm_when_paused(tmp_path, "csv_write")
    assert staged.startswith("trajectory.csv") and staged.endswith(".tmp")


@pytest.mark.skipif(sys.platform == "win32", reason="SIGTERM is TerminateProcess there")
def test_sigterm_during_propagation_exits_143_and_leaves_nothing(tmp_path):
    assert _sigterm_when_paused(tmp_path, "propagation") is None  # before the stage is made


@pytest.mark.skipif(sys.platform == "win32", reason="SIGTERM is TerminateProcess there")
def test_sigterm_during_heatmap_exits_143_and_leaves_nothing(tmp_path):
    # stopped after the CSV, manifest and metrics are whole in the stage, not in --out
    staged = _sigterm_when_paused(tmp_path, "heatmap", "--format", "csv+svg")
    assert staged == ["manifest.cfg", "metrics.txt", "trajectory.csv"]


_CSV_SVG = ("trajectory.csv", "manifest.cfg", "metrics.txt", "heatmap.svg")  # in write order


def _existing_out(tmp_path, out):
    """Fill ``out`` with a complete csv+svg artifact set of another run, and a notes.txt."""
    cfg = _write_config_with(tmp_path, "timing.t_final = 4")
    assert main(["transport", "--config", str(cfg), "--out", str(out),
                 "--format", "csv+svg"]) == 0
    (out / "notes.txt").write_text("kept")
    assert sorted(_files(out)) == sorted([*_CSV_SVG, "notes.txt"])


@pytest.mark.skipif(sys.platform == "win32", reason="SIGTERM is TerminateProcess there")
@pytest.mark.parametrize("existing", [False, True], ids=["made out", "existing out"])
@pytest.mark.parametrize("artifact", _CSV_SVG)
def test_sigterm_at_each_artifact_write_leaves_out_as_it_was(tmp_path, artifact, existing):
    if existing:
        _existing_out(tmp_path, tmp_path / "o" / "nested")
    staged = _sigterm_when_paused(tmp_path, artifact, "--format", "csv+svg")
    assert staged == sorted(_CSV_SVG[:_CSV_SVG.index(artifact)])


def test_run_into_an_existing_out_replaces_its_artifacts_and_keeps_other_files(tmp_path):
    _existing_out(tmp_path, tmp_path / "o")
    assert _run_fast_transport_with(tmp_path, "", "--format", "csv+svg") == 0
    assert main(["transport", "--config", str(tmp_path / "run.cfg"),
                 "--out", str(tmp_path / "fresh"), "--format", "csv+svg"]) == 0
    after = _files(tmp_path / "o")
    assert after.pop("notes.txt") == b"kept"
    assert after == _files(tmp_path / "fresh")
    assert list(tmp_path.rglob(".nhlattice-*")) == []


@pytest.mark.parametrize("existing", [False, True], ids=["made out", "existing out"])
def test_failed_heatmap_removes_only_what_the_run_wrote_into_an_out_it_made(tmp_path, monkeypatch,
                                                                            existing):
    def broken(*args, **kwargs):
        raise RuntimeError("render failed")

    monkeypatch.setattr("nhlattice.cli.render_heatmap_file", broken)
    out = tmp_path / "o"
    if existing:  # it keeps exactly its own files; the run's finished artifacts never reach it
        out.mkdir()
        (out / "notes.txt").write_text("kept")
    with pytest.raises(RuntimeError, match="render failed"):
        _run_fast_transport_with(tmp_path, "", "--format", "csv+svg")
    _assert_left_nothing(tmp_path, out, {"notes.txt": b"kept"} if existing else None)


def test_sigterm_handler_restored_and_main_runs_off_the_main_thread(capsys):
    before = signal.getsignal(signal.SIGTERM)
    assert main(["preset"]) == 0
    assert signal.getsignal(signal.SIGTERM) is before
    codes = []
    worker = threading.Thread(target=lambda: codes.append(main(["preset"])))
    worker.start()
    worker.join()
    assert codes == [0]
    assert signal.getsignal(signal.SIGTERM) is before


def _assert_left_nothing(tmp_path, out, before=None):
    """After a failed run: no --out, or one holding just the files ``before`` names; no temp
    file, no stage and no child process."""
    assert _files(out) == before
    assert list(tmp_path.rglob("*.tmp")) == []
    assert list(tmp_path.rglob(".nhlattice-*")) == []
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


#: the CLI in a child whose experiment runner exits 9 at once: a run that
#: exits 2 under it never started the experiment
NO_RUN_CLI = """\
import sys
from nhlattice import cli, protocols

protocols.run_experiment = lambda config: sys.exit(9)
sys.exit(cli.main())
"""


@pytest.mark.parametrize("under", ["", "sub"], ids=["out_is_a_file", "out_under_a_file"])
def test_out_naming_a_file_exits_2_before_the_run(tmp_path, under):
    (tmp_path / "F").write_text("kept")
    out = tmp_path / "F" / under if under else tmp_path / "F"
    proc = subprocess.run([sys.executable, "-c", NO_RUN_CLI, "dispersion", "--preset", "fig2",
                           "--out", str(out)], env=_CHILD_ENV, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: config: --out: {str(tmp_path / 'F')!r} is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]  # no stage, no temp file
    assert (tmp_path / "F").read_text() == "kept"
    # the preset command's --out is checked the same way
    proc = subprocess.run([sys.executable, "-m", "nhlattice", "preset", "fig2", "--out", str(out)],
                          env=_CHILD_ENV, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: config: --out: {str(tmp_path / 'F')!r} is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


@pytest.mark.skipif(sys.platform == "win32", reason="no POSIX modes")
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_artifacts_get_the_mode_open_gives_under_the_umask(tmp_path, umask):
    # in a child, so this process's umask stays; set before any thread starts
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_TRANSPORT_CFG)
    code = ("import os, sys; os.umask(int(sys.argv.pop(1))); from nhlattice import cli; "
            "sys.exit(cli.main())")
    proc = subprocess.run([sys.executable, "-c", code, str(umask), "transport", "--config",
                           str(cfg), "--out", str(tmp_path / "o"), "--format", "csv+svg"],
                          env=_CHILD_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modes = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / "o").iterdir()}
    assert modes == {name: 0o666 & ~umask for name in _CSV_SVG}
    assert (tmp_path / "o").stat().st_mode & 0o777 == 0o777 & ~umask


def test_subcommand_experiment_mismatch_exits_2(tmp_path, capsys):
    code = main(["storage", "--preset", "fig3d", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "transport_single_site" in capsys.readouterr().err


def test_gain_runaway_exits_3(tmp_path, capsys):
    cfg = tmp_path / "runaway.cfg"
    cfg.write_text(RUNAWAY_STORAGE_CFG)
    out = tmp_path / "o" / "nested"
    code = main(["storage", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: numerical:")
    _assert_left_nothing(tmp_path, tmp_path / "o")


UNDERFLOW_TRANSPORT_CFG = """\
experiment = transport_single_site
kappa = 1
beta = 0.4
gamma = 20
phi = pi/2
excitation.kind = single_site
timing.t_final = 60
"""


def test_norm_underflow_exits_3_naming_the_time(tmp_path, capsys):
    cfg = tmp_path / "underflow.cfg"
    cfg.write_text(UNDERFLOW_TRANSPORT_CFG)
    code = main(["transport", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical:")
    assert "at t = 19.5;" in err
    _assert_left_nothing(tmp_path, tmp_path / "o")
    # 19.5 is the first such sample: the run up to the one before succeeds
    assert main(["transport", "--config", str(cfg), "--out", str(tmp_path / "p"),
                 "--t-final", "19.25"]) == 0


def test_preset_listing_and_dump(tmp_path, capsys):
    assert main(["preset"]) == 0
    listing = capsys.readouterr().out
    for name in ("fig2", "fig3d", "fig6a", "fig7", "reduction"):
        assert name in listing
    assert main(["preset", "fig3d"]) == 0
    dump = capsys.readouterr().out
    assert "experiment = transport_single_site" in dump
    assert "chain_length = 301" in dump  # resolved, self-contained
    assert "index_origin = -150" in dump
    assert main(["preset", "fig3f"]) == 0  # fig3d's chain and defects, sized by the band
    dump = capsys.readouterr().out
    assert "chain_length = 218" in dump
    assert "index_origin = -61" in dump


def test_writes_stay_inside_out_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "artifacts"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_TRANSPORT_CFG)
    assert main(["transport", "--config", str(cfg), "--out", str(out)]) == 0
    assert list(workdir.iterdir()) == []
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.cfg", "metrics.txt", "trajectory.csv"]


def test_dt_and_tfinal_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_TRANSPORT_CFG)
    out = tmp_path / "out"
    assert main(["transport", "--config", str(cfg), "--out", str(out),
                 "--t-final", "4"]) == 0
    manifest = (out / "manifest.cfg").read_text()
    assert "timing.t_final = 4" in manifest
    assert "timing.dt" not in manifest
    # the propagator has no integration step to override
    with pytest.raises(SystemExit) as exc:
        main(["transport", "--config", str(cfg), "--out", str(out), "--dt", "0.002"])
    assert exc.value.code == 2
    assert "--dt" in capsys.readouterr().err


#: the scipy modules a child has loaded, printed as one line
_PRINT_SCIPY = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_import_leaves_out_optimize_and_linalg():
    # a fresh interpreter, since other tests load scipy into this one; the CSV
    # writer's tables are built on its first write, not on import.  No scipy
    # module is loaded: the sparse kernels come from their file as nhlattice._sparsetools
    code = ("import sys, nhlattice.cli, nhlattice; "
            "print(nhlattice.configio._csv_tables.cache_info().currsize); " + _PRINT_SCIPY)
    proc = subprocess.run([sys.executable, "-c", code], env=_CHILD_ENV, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", ""]


def test_storage_run_leaves_out_optimize_and_linalg(tmp_path):
    # a fresh interpreter, as above; a storage run fits the released packet's Gaussian
    code = ("import sys; from nhlattice.cli import main; "
            f"code = main(['storage', '--preset', 'fig6a', '--out', {str(tmp_path / 'out')!r}]); "
            "print(code); " + _PRINT_SCIPY)
    proc = subprocess.run([sys.executable, "-c", code], env=_CHILD_ENV, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["0", ""]
    assert (tmp_path / "out" / "metrics.txt").is_file()


#: a child that loads the package with scipy.sparse imported after it, before
#: it, or with no kernel file to find (argv[1]), prints the scipy modules the
#: package import left loaded, then, of storage and builder operators, how
#: many products on seeded vectors equal csr_array @ x bytewise and how many
#: trace shifts equal scipy's (mu, the CSR arrays of a - mu*I, the 1-norm), of
#: how many.  scipy.sparse, imported after the package, still has its kernels
KERNEL_CHILD = """\
import importlib.machinery, sys
mode = sys.argv[1]
if mode == "scipy first":
    import scipy.sparse
elif mode == "no kernel file":
    importlib.machinery.EXTENSION_SUFFIXES.clear()
import numpy as np
import nhlattice as nh
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import reference
import scipy.sparse
assert callable(scipy.sparse._sparsetools.csr_matvec)
ops = []
for name in ("fig6a", "fig7"):
    cfg = nh.protocols.resolve_config(nh.preset_config(name))
    specs = nh.protocols._storage_specs(cfg, cfg.storage.xi)
    ops += [h for _, h in nh.protocols._storage_schedule(cfg, specs)]
ops.append(nh.build_chain_hamiltonian(nh.ChainSpec(
    kappa=1.0, beta=0.4, gamma=0.8, phi=0.7, n_sites=31, boundary="periodic",
    defects=(nh.DefectSpec(3, 1.0, 0.4),))))
ops.append(nh.build_sawtooth_hamiltonian(nh.SawtoothSpec(
    kappa=1.0, j=2.0, theta=0.4, gamma_a=0.1, u_b=-40j, n_cells=16)))
rng = np.random.default_rng(12)
same = shifts = 0
for h in ops:
    a, n = reference.csr(h), h.dim
    for _ in range(4):
        x = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))
        x = x[0] + 1j * x[1]
        same += h.matvec(x).tobytes() == (a @ x).tobytes()
    mu = a.trace() / float(n)
    want = a - mu * scipy.sparse.eye_array(n, format="csr")
    want = (np.complex128(mu), want.data, want.indices, want.indptr,
            np.float64(abs(want).sum(axis=0).max()))
    got_mu, arrays, got_norm = nh.dynamics._trace_shift(h)
    shifts += all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in
                  zip((np.complex128(got_mu), *arrays, np.float64(got_norm)), want))
print(*loaded)
print(same, 4 * len(ops), shifts, len(ops))
"""


@pytest.mark.parametrize("mode", ["scipy after", "scipy first", "no kernel file"])
def test_kernel_products_equal_csr_matmul_whatever_loaded_scipy(mode):
    env = {**_CHILD_ENV, "PYTHONPATH": os.pathsep.join((str(Path(__file__).parent),
                                                        _CHILD_ENV["PYTHONPATH"]))}
    proc = subprocess.run([sys.executable, "-c", KERNEL_CHILD, mode], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, counts = proc.stdout.splitlines()
    if mode == "scipy after":  # the kernels came from their file, under the package's name
        assert loaded == ""
    else:  # the package import, made before the package or by its fallback
        assert "scipy.sparse" in loaded.split()
    same, total, shifts, ops = map(int, counts.split())
    assert same == total == 4 * 6 and shifts == ops == 6


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "nhlattice", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "nhlattice" in proc.stdout
