"""Config documents, trajectory/table CSV, and metrics serialization.

The config format is flat ``key = value`` text with ``#`` comments, a
strict schema read off the config dataclasses (unknown keys are rejected
by name, non-finite numbers by key), and pi-literal phases
("pi/2", "-pi/4", "3*pi/4").  Floats are printed with 17 significant
digits so every double round-trips exactly; a manifest is just a config
document with every default materialized, which makes re-runs
bit-reproducible.  All writes go through write-temp-then-rename.

The trajectory CSV is written by a TrajectorySink, which can take the
states of a run as they are computed: a forked helper formats samples
from 0 up while the run propagates, analyses and renders, and the run
formats the part of the rest that the helper leaves to it (see
TrajectorySink).  The bytes are the same on every path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import math
import mmap
import os
import re
import select
import shutil
import signal
import struct
import tempfile
import typing
from pathlib import Path

import numpy as np

from .dynamics import METHOD_TAG, Trajectory

__all__ = [
    "ConfigError",
    "parse_phase",
    "parse_value",
    "parse_config_text",
    "read_config",
    "render_config",
    "render_manifest",
    "config_hash",
    "write_text_atomic",
    "TrajectorySink",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_table_csv",
    "read_table_csv",
    "write_metrics",
    "read_metrics",
]

UNITS_HEADER = "units: rates in kappa, time in 1/kappa, phases in radians (pi literals accepted)"


class ConfigError(ValueError):
    """Invalid configuration input; the message names the offending key."""


def _fmt_float(x: float) -> str:
    return "%.17g" % float(x)


_PI_RE = re.compile(r"^([+-]?)(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?$", re.IGNORECASE)


def parse_phase(token: str) -> float:
    """Parse a phase: plain float or a pi literal like 'pi/2' or '-3*pi/4'."""
    token = token.strip()
    m = _PI_RE.match(token)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0.0:
            raise ConfigError(f"cannot parse phase value {token!r} (division by zero)")
        return sign * coef * math.pi / div
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"cannot parse phase value {token!r}") from None


def _split_list(token: str) -> list:
    return [part.strip() for part in token.split(",") if part.strip()]


# The schema is declared once, on the config dataclasses: each field of
# protocols.ExperimentConfig is a key, the fields of a nested dataclass are
# keys ``outer.inner``, field order is the render order, and the annotation
# gives the kind (``tuple[X, ...]`` is a comma list; a dataclass list item
# is written ``a:b:c``).  Field metadata adds what an annotation cannot say:
#   phase    the value is a phase (pi literals accepted);
#   options  the strings an enum allows;
#   none     the token for None or for an empty list; on a nested dataclass,
#            the token of its first key that makes the whole of it None;
#   unset    the value written in place of a None that has no token.

_PARSERS = {float: float, int: int, str: str, "phase": parse_phase,
            bool: {"true": True, "false": False}.__getitem__}
_KIND_NAMES = {float: "a number", int: "an integer", bool: "true/false", "phase": "a phase"}


@functools.cache
def _fields(cls) -> tuple:
    """(field, kind, many, nested) for each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        kind, many = hints[f.name], False
        if typing.get_origin(kind) is tuple:
            kind, many = typing.get_args(kind)[0], True
        if f.metadata.get("phase"):
            kind = "phase"
        out.append((f, kind, many, dataclasses.is_dataclass(kind) and not many))
    return tuple(out)


@functools.cache
def _schema() -> dict:
    """key -> (kind, many, tags) for every config key, in canonical order."""
    from .protocols import ExperimentConfig

    schema = {}

    def walk(cls, prefix, none):
        for i, (f, kind, many, nested) in enumerate(_fields(cls)):
            if nested:
                walk(kind, f"{prefix}{f.name}.", f.metadata.get("none"))
            else:
                tags = {**f.metadata, "none": none} if i == 0 and none else f.metadata
                schema[prefix + f.name] = (kind, many, tags)

    walk(ExperimentConfig, "", None)
    return schema


def _flatten(cls, obj, prefix: str = "", out: dict = None) -> dict:
    """{key: value} of a config; a None nested config reads as its defaults."""
    out = {} if out is None else out
    for f, kind, _, nested in _fields(cls):
        if obj is not None:
            value = getattr(obj, f.name)
        else:
            value = None if f.default is dataclasses.MISSING else f.default
        if nested:
            _flatten(kind, value, f"{prefix}{f.name}.", out)
        else:
            out[prefix + f.name] = f.metadata.get("unset") if value is None else value
    return out


def _build(cls, values: dict, prefix: str = ""):
    """The inverse of _flatten: a nested config whose first key is None is None."""
    kwargs = {}
    for f, kind, _, nested in _fields(cls):
        key = prefix + f.name
        if nested:
            first = f"{key}.{_fields(kind)[0][0].name}"
            kwargs[f.name] = None if values[first] is None else _build(kind, values, key + ".")
        else:
            kwargs[f.name] = values[key]
    return cls(**kwargs)


@functools.cache
def _defaults() -> dict:
    """Values of a probe config: what an omitted key reads as."""
    from .protocols import ExperimentConfig

    return _flatten(ExperimentConfig, ExperimentConfig(experiment="dispersion_scan"))


def _parse_scalar(key: str, kind, tags, token: str):
    options = tags.get("options")
    if options:
        if token not in options:
            shown = ([tags["none"]] if "none" in tags else []) + list(options)
            raise ConfigError(f"{key}: {token!r} is not one of {', '.join(shown)}")
        return token
    if kind not in _PARSERS:  # a dataclass list item, written a:b:c
        fields = _fields(kind)
        parts = token.split(":")
        if len(parts) != len(fields):
            names = ":".join(f.name for f, *_ in fields)
            raise ConfigError(f"{key}: {token!r} must be {names}")
        return kind(*(_parse_scalar(key, k, f.metadata, part)
                      for (f, k, *_), part in zip(fields, parts)))
    try:
        value = _PARSERS[kind](token)
    except (ValueError, KeyError):
        raise ConfigError(f"{key}: cannot parse {token!r} as {_KIND_NAMES[kind]}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: {token!r} is not a finite number")
    return value


def parse_value(key: str, token: str):
    """Parse one value token of a schema key, as a config document would."""
    kind, many, tags = _schema()[key]
    if token == tags.get("none"):
        return () if many else None
    if many:
        return tuple(_parse_scalar(key, kind, tags, item) for item in _split_list(token))
    return _parse_scalar(key, kind, tags, token)


def _render_scalar(kind, value) -> str:
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(int(value))
    if kind is str:
        return str(value)
    if kind is float or kind == "phase":
        return _fmt_float(value)
    return ":".join(_render_scalar(k, getattr(value, f.name)) for f, k, *_ in _fields(kind))


def _render_value(kind, many, tags, value) -> str:
    if "none" in tags and (value is None or many and not value):
        return tags["none"]
    if many:
        return ", ".join(_render_scalar(kind, v) for v in value)
    return _render_scalar(kind, value)


def parse_config_text(text: str):
    """Parse a config document; unknown or duplicate keys are rejected."""
    from .protocols import ExperimentConfig

    schema = _schema()
    tokens = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, token = line.partition("=")
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        if key in tokens:
            raise ConfigError(f"duplicate key {key!r} (line {lineno})")
        tokens[key] = token.strip()
    if "experiment" not in tokens:
        raise ConfigError("missing required key 'experiment'")
    values = _defaults() | {key: parse_value(key, token) for key, token in tokens.items()}
    try:
        return _build(ExperimentConfig, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def read_config(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    return parse_config_text(text)


def render_config(config) -> str:
    """Render every schema key (defaults materialized) in canonical order."""
    schema = _schema()
    lines = [f"# {UNITS_HEADER}"]
    for key, value in _flatten(type(config), config).items():
        lines.append(f"{key} = {_render_value(*schema[key], value)}")
    return "\n".join(lines) + "\n"


def render_manifest(config, method_tag: str) -> str:
    from . import __version__

    header = [f"# nhlattice manifest (version {__version__})",
              f"# method_tag = {method_tag}"]
    return "\n".join(header) + "\n" + render_config(config)


def config_hash(manifest_text: str) -> str:
    """Stable hash of the non-comment body of a config/manifest document."""
    body = "\n".join(
        line for line in manifest_text.splitlines() if line.strip() and not line.startswith("#")
    )
    return "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def _temp_beside(path: Path):
    """A binary temp file in ``path``'s directory (made if missing), and its name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    return os.fdopen(fd, "wb"), tmp


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    fh, tmp = _temp_beside(path)
    try:
        with fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


_CSV_HEADER = b"t,site,re,im\n"
#: one message on a helper pipe: a count of samples, or _FINISH
_MSG = struct.Struct("q")
#: asks the streaming helper how far it got; it replies with that count
_FINISH = -1


def _second_cpu() -> bool:
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _rows(site_labels) -> list:
    return [f",{label},%.17g,%.17g\n" for label in site_labels]


def _format_samples(fh, times, values, rows) -> None:
    for t, row in zip(times, values):
        t_str = _fmt_float(t)
        fh.write(((t_str + t_str.join(rows)) % tuple(row.tolist())).encode())


def _split(done: int, n: int) -> int:
    """Where the helper stops: it takes the larger half of what is left."""
    return done + (n - done + 1) // 2


def _helper(fd, inbox, outbox, times, values, rows, ready) -> None:
    """Append samples to ``fd`` from sample 0 up, in a forked helper.

    Samples up to ``ready`` are in ``values``; each message on ``inbox`` is
    a larger ``ready`` (a run that streams), or _FINISH.  _FINISH is
    answered on ``outbox`` with the samples done so far, from which both
    sides take the stop by _split; the helper returns once it reaches it.
    """
    n, stop = len(times), None
    inbox_ready = select.poll()
    inbox_ready.register(inbox, select.POLLIN)
    with open(fd, "wb", closefd=False) as out:
        k = 0
        while stop is None or k < stop:
            if stop is None and (k == ready or inbox_ready.poll(0)):
                data = os.read(inbox, 1 << 16)  # whole messages: each write is one
                if not data:
                    raise EOFError("the run closed the pipe")
                for (msg,) in _MSG.iter_unpack(data):
                    if msg == _FINISH:
                        os.write(outbox, _MSG.pack(k))
                        stop = _split(k, n)
                    else:
                        ready = msg
            else:
                _format_samples(out, times[k:k + 1], values[k:k + 1], rows)
                k += 1


class TrajectorySink:
    """``trajectory.csv`` formatted while its trajectory is computed.

    The file is opened (as a temp file beside ``path``, header written) on
    construction.  ``evolve_schedule(..., sink=sink)`` takes its states
    buffer from ``states``, a shared anonymous mmap, and calls ``publish``
    after each sample.  With a second CPU, ``states`` forks a helper that
    formats samples from 0 up as they are published.  ``finish`` asks the
    helper how far it got, lets it format half of what is left, formats
    the other half itself, appends it after the helper's rows and renames
    the file onto ``path``.  A trajectory with no live streaming helper
    (none streamed, another did, or it died) gets a helper forked at finish
    with every sample published, and is split the same way.  If the fork
    fails or the helper dies, this process formats the helper's part
    itself; the bytes are the same on every path.  ``abort`` (also on
    leaving a ``with`` block) kills the helper and removes the temp file.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._out, self._tmp = _temp_beside(self.path)
        self._buffer = None
        self._pid = 0  # the helper; 0 while none runs
        self._to_helper = self._from_helper = -1
        try:
            self._out.write(_CSV_HEADER)
            self._out.flush()
        except BaseException:
            self.abort()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.abort()

    def states(self, times, site_labels) -> np.ndarray:
        """The (len(times), len(site_labels)) complex buffer to fill, in shared memory."""
        if self._buffer is not None:
            raise ValueError("a TrajectorySink takes one trajectory")
        n, dim = len(times), len(site_labels)
        self._buffer = np.frombuffer(mmap.mmap(-1, 16 * n * dim), dtype=complex).reshape(n, dim)
        self._fork(times, self._buffer.view(float), _rows(site_labels), 0)
        return self._buffer

    def publish(self, count: int) -> None:
        """Samples [0, count) of the states buffer are final."""
        if self._pid:
            try:
                os.write(self._to_helper, _MSG.pack(count))
            except OSError:  # the helper is gone; its part is formatted again
                self._drop_helper()

    def finish(self, traj) -> None:
        """Write ``traj`` (the streamed trajectory or any other) and rename onto path."""
        try:
            values = np.ascontiguousarray(traj.amplitudes, dtype=complex).view(float)
            times, rows, n = traj.times, _rows(traj.site_labels), len(traj.times)
            if self._pid and traj.amplitudes is not self._buffer:
                self._drop_helper()
            stop = self._ask_stop(n) if self._pid else None
            if stop is None and self._fork(times, values, rows, n):
                stop = self._ask_stop(n)
            if stop is None:
                _format_samples(self._out, times, values, rows)
            else:
                with tempfile.TemporaryFile(dir=self.path.parent) as tail:
                    _format_samples(tail, times[stop:], values[stop:], rows)
                    if self._reap():
                        self._out.seek(0, os.SEEK_END)
                    else:
                        self._restart()
                        _format_samples(self._out, times[:stop], values[:stop], rows)
                    tail.seek(0)
                    shutil.copyfileobj(tail, self._out)
            self._out.close()
            os.replace(self._tmp, self.path)
            self._tmp = None
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        """Kill the helper and remove the temp file; ``path`` is left as it was."""
        self._reap(kill=True)
        self._out.close()
        if self._tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._tmp)
            self._tmp = None

    def _fork(self, times, values, rows, ready) -> bool:
        """Fork the helper with samples [0, ready) published; False if none could start.

        The helper leaves through ``os._exit``, so it never flushes the
        parent's stdio buffers or runs its atexit handlers.
        """
        if len(times) < 2 or not _second_cpu():
            return False
        self._out.flush()  # the helper appends at the shared file offset
        to_helper, from_helper = os.pipe(), os.pipe()
        # SIGTERM waits until the helper is on record: an exception its handler
        # raises (see cli.main) inside fork's own hooks would be ignored
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            pid = os.fork()
        except OSError:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            for fd in (*to_helper, *from_helper):
                os.close(fd)
            return False
        if pid == 0:
            code = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
                os.close(to_helper[1])  # so that a run that dies leaves the helper EOF
                os.close(from_helper[0])
                _helper(self._out.fileno(), to_helper[0], from_helper[1],
                        times, values, rows, ready)
                code = 0
            finally:
                os._exit(code)
        os.close(to_helper[0])
        os.close(from_helper[1])
        self._pid, self._to_helper, self._from_helper = pid, to_helper[1], from_helper[0]
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        return True

    def _ask_stop(self, n: int):
        """Where the streaming helper stops; None, with it dropped, if it is gone."""
        try:
            os.write(self._to_helper, _MSG.pack(_FINISH))
            reply = os.read(self._from_helper, _MSG.size)
        except OSError:
            reply = b""
        if len(reply) == _MSG.size:
            return _split(_MSG.unpack(reply)[0], n)
        self._drop_helper()
        return None

    def _reap(self, kill: bool = False) -> bool:
        """Wait for the helper, killing it first if asked; True if it exited 0."""
        if not self._pid:
            return False
        if kill:
            with contextlib.suppress(OSError):
                os.kill(self._pid, signal.SIGKILL)
        status = os.waitpid(self._pid, 0)[1]  # interrupted, abort() kills and reaps it
        self._pid = 0
        os.close(self._to_helper)
        os.close(self._from_helper)
        return os.waitstatus_to_exitcode(status) == 0 and not kill

    def _restart(self) -> None:
        """Drop every row after the header."""
        self._out.seek(len(_CSV_HEADER))
        self._out.truncate()

    def _drop_helper(self) -> None:
        self._reap(kill=True)
        self._restart()


def write_trajectory_csv(traj, path, sink=None) -> None:
    """One row per (sample time, site), time-major, 17 significant digits.

    ``sink``, if given, is the TrajectorySink on ``path`` that streamed
    ``traj`` while it was computed; without one, ``traj`` is written by a
    new sink.
    """
    if sink is None:
        sink = TrajectorySink(path)
    elif sink.path != Path(path):
        raise ValueError(f"sink writes {sink.path}, not {path}")
    sink.finish(traj)


def read_trajectory_csv(path, method_tag: str = METHOD_TAG):
    """Rebuild a Trajectory from its CSV; bit-exact for doubles."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "t,site,re,im":
            raise ConfigError(f"{path}: missing 't,site,re,im' header")
        start = fh.tell()
        if not fh.readline().strip():
            raise ConfigError(f"{path}: no data rows")
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row: {exc}") from exc
    if data.shape[1] != 4:
        raise ConfigError(f"{path}: malformed rows of {data.shape[1]} columns, expected 4")
    n_sites = int(np.argmax(data[:, 0] != data[0, 0])) or len(data)
    if len(data) % n_sites != 0:
        raise ConfigError(f"{path}: row count {len(data)} is not a multiple of the site count")
    data = data.reshape(-1, n_sites, 4)
    amps = np.empty(data.shape[:2], dtype=complex)
    amps.real = data[:, :, 2]
    amps.imag = data[:, :, 3]
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    return Trajectory(times=data[:, 0, 0].copy(), amplitudes=amps,
                      site_labels=data[0, :, 1].astype(int), norm_series=norms,
                      method_tag=method_tag)


def write_table_csv(table, path) -> None:
    """Write a (header, rows) scan table."""
    header, rows = table
    lines = [",".join(header)]
    for row in np.asarray(rows):
        lines.append(",".join(_fmt_float(x) for x in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_table_csv(path) -> tuple:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty table")
    header = tuple(lines[0].split(","))
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def _render_metric(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt_float(v) for v in value)
    value = str(value)
    if "\n" in value or "=" in value:
        raise ValueError(f"metric value {value!r} cannot be serialized")
    return value


_INT_RE = re.compile(r"^-?\d+$")
_FLOAT_RE = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^[-+]?(inf|nan)$")


def _parse_metric(token: str):
    if token == "true":
        return True
    if token == "false":
        return False
    if "," in token:
        return tuple(float(part) for part in _split_list(token))
    if _INT_RE.match(token):
        return int(token)
    if _FLOAT_RE.match(token):
        return float(token)
    return token


def write_metrics(metrics: dict, path) -> None:
    """Flat 'key = value' metrics file; insertion order preserved."""
    lines = [f"{key} = {_render_metric(value)}" for key, value in metrics.items()]
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_metrics(path) -> dict:
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, token = line.partition("=")
        out[key.strip()] = _parse_metric(token.strip())
    return out
