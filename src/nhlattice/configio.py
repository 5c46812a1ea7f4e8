"""Config documents, trajectory/table CSV, and metrics serialization.

The config format is flat ``key = value`` text with ``#`` comments, a
strict schema (unknown keys are rejected by name), and pi-literal phases
("pi/2", "-pi/4", "3*pi/4").  Floats are printed with 17 significant
digits so every double round-trips exactly; a manifest is just a config
document with every default materialized, which makes re-runs
bit-reproducible.  All writes go through write-temp-then-rename.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import re
import shutil
import signal
import tempfile
from pathlib import Path

import numpy as np

from .dynamics import METHOD_TAG, Trajectory

__all__ = [
    "ConfigError",
    "parse_phase",
    "parse_config_text",
    "read_config",
    "render_config",
    "render_manifest",
    "config_hash",
    "write_text_atomic",
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


def _parse_float(key: str, token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {token!r} as a number") from None


def _parse_int(key: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {token!r} as an integer") from None


def _parse_bool(key: str, token: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ConfigError(f"{key}: expected true/false, got {token!r}")


def _split_list(token: str) -> list:
    return [part.strip() for part in token.split(",") if part.strip()]


# Schema: (key, kind).  Order is the canonical render order.
_SCHEMA = (
    ("experiment", "experiment"),
    ("preset", "str"),
    ("kappa", "float"),
    ("beta", "float"),
    ("gamma", "float"),
    ("phi", "phase"),
    ("boundary", "enum:open,periodic"),
    ("chain_length", "int_or_auto"),
    ("index_origin", "int_or_auto"),
    ("defects", "defects"),
    ("excitation.kind", "enum:none,single_site,gaussian"),
    ("excitation.n0", "int"),
    ("excitation.w0", "float"),
    ("excitation.q0", "phase"),
    ("excitation.normalize", "bool"),
    ("timing.t_final", "float"),
    ("timing.sample_dt", "float"),
    ("timing.t_prime", "float_or_none"),
    ("storage.n_half", "int"),
    ("storage.v_c", "float"),
    ("storage.xi", "float"),
    ("storage.retrieval_phase_sign", "enum:forward,reversed"),
    ("storage.xi_sweep", "float_list_or_none"),
    ("reduction.j_values", "float_list"),
    ("reduction.theta", "phase_or_none"),
    ("reduction.b_init", "enum:slaved,zero"),
    ("reduction.aux_sign", "enum:gain,loss"),
    ("dispersion.phi_values", "phase_list"),
    ("dispersion.q_points", "int"),
)

_SCHEMA_KEYS = {key for key, _ in _SCHEMA}


def _parse_value(key: str, kind: str, token: str):
    if kind == "str":
        return token
    if kind == "experiment" or kind.startswith("enum:"):
        options = kind.split(":", 1)[1].split(",") if ":" in kind else None
        if kind == "experiment":
            from .protocols import EXPERIMENTS

            options = list(EXPERIMENTS)
        if token not in options:
            raise ConfigError(f"{key}: {token!r} is not one of {', '.join(options)}")
        return token
    if kind == "float":
        return _parse_float(key, token)
    if kind == "int":
        return _parse_int(key, token)
    if kind == "bool":
        return _parse_bool(key, token)
    if kind == "phase":
        try:
            return parse_phase(token)
        except ConfigError:
            raise ConfigError(f"{key}: cannot parse {token!r} as a phase") from None
    if kind == "int_or_auto":
        return None if token == "auto" else _parse_int(key, token)
    if kind == "float_or_none":
        return None if token == "none" else _parse_float(key, token)
    if kind == "phase_or_none":
        if token == "none":
            return None
        try:
            return parse_phase(token)
        except ConfigError:
            raise ConfigError(f"{key}: cannot parse {token!r} as a phase") from None
    if kind == "defects":
        if token == "none":
            return ()
        out = []
        for item in _split_list(token):
            parts = item.split(":")
            if len(parts) != 3:
                raise ConfigError(f"{key}: defect {item!r} must be site:v_real:xi_imag")
            out.append((_parse_int(key, parts[0]), _parse_float(key, parts[1]),
                        _parse_float(key, parts[2])))
        return tuple(out)
    if kind == "float_list" or kind == "float_list_or_none":
        if token == "none" and kind.endswith("_or_none"):
            return ()
        return tuple(_parse_float(key, item) for item in _split_list(token))
    if kind == "phase_list":
        return tuple(parse_phase(item) for item in _split_list(token))
    raise AssertionError(f"unhandled kind {kind}")


def _render_value(kind: str, value) -> str:
    if kind == "str":
        return str(value)
    if kind == "experiment" or kind.startswith("enum:"):
        return str(value)
    if kind in ("float", "phase"):
        return _fmt_float(value)
    if kind == "int":
        return str(int(value))
    if kind == "bool":
        return "true" if value else "false"
    if kind == "int_or_auto":
        return "auto" if value is None else str(int(value))
    if kind in ("float_or_none", "phase_or_none"):
        return "none" if value is None else _fmt_float(value)
    if kind == "defects":
        if not value:
            return "none"
        return ", ".join(f"{site}:{_fmt_float(v)}:{_fmt_float(xi)}" for site, v, xi in value)
    if kind == "float_list_or_none":
        if not value:
            return "none"
        return ", ".join(_fmt_float(v) for v in value)
    if kind in ("float_list", "phase_list"):
        return ", ".join(_fmt_float(v) for v in value)
    raise AssertionError(f"unhandled kind {kind}")


def _config_to_values(config) -> dict:
    exc = config.excitation
    return {
        "experiment": config.experiment,
        "preset": config.preset,
        "kappa": config.kappa,
        "beta": config.beta,
        "gamma": config.gamma,
        "phi": config.phi,
        "boundary": config.boundary,
        "chain_length": config.chain_length,
        "index_origin": config.index_origin,
        "defects": tuple((d.site, d.v_real, d.xi_imag) for d in config.defects),
        "excitation.kind": exc.kind if exc is not None else "none",
        "excitation.n0": exc.n0 if exc is not None else 0,
        "excitation.w0": exc.w0 if exc is not None and exc.w0 is not None else 5.0,
        "excitation.q0": exc.q0 if exc is not None and exc.q0 is not None else 0.0,
        "excitation.normalize": exc.normalize if exc is not None else True,
        "timing.t_final": config.timing.t_final,
        "timing.sample_dt": config.timing.sample_dt,
        "timing.t_prime": config.timing.t_prime,
        "storage.n_half": config.storage.n_half,
        "storage.v_c": config.storage.v_c,
        "storage.xi": config.storage.xi,
        "storage.retrieval_phase_sign": config.storage.retrieval_phase_sign,
        "storage.xi_sweep": config.storage.xi_sweep,
        "reduction.j_values": config.reduction.j_values,
        "reduction.theta": config.reduction.theta,
        "reduction.b_init": config.reduction.b_init,
        "reduction.aux_sign": config.reduction.aux_sign,
        "dispersion.phi_values": config.dispersion.phi_values,
        "dispersion.q_points": config.dispersion.q_points,
    }


def _values_to_config(values: dict):
    from .analysis import ExcitationSpec
    from .lattice import DefectSpec
    from .protocols import (
        DispersionParams,
        ExperimentConfig,
        ReductionParams,
        StorageParams,
        Timing,
    )

    kind = values["excitation.kind"]
    if kind == "none":
        excitation = None
    elif kind == "single_site":
        excitation = ExcitationSpec(kind="single_site", n0=values["excitation.n0"],
                                    normalize=values["excitation.normalize"])
    else:
        excitation = ExcitationSpec(kind="gaussian", n0=values["excitation.n0"],
                                    w0=values["excitation.w0"], q0=values["excitation.q0"],
                                    normalize=values["excitation.normalize"])
    try:
        return ExperimentConfig(
            experiment=values["experiment"],
            preset=values["preset"],
            kappa=values["kappa"],
            beta=values["beta"],
            gamma=values["gamma"],
            phi=values["phi"],
            boundary=values["boundary"],
            chain_length=values["chain_length"],
            index_origin=values["index_origin"],
            defects=tuple(DefectSpec(site, v, xi) for site, v, xi in values["defects"]),
            excitation=excitation,
            timing=Timing(
                t_final=values["timing.t_final"],
                sample_dt=values["timing.sample_dt"],
                t_prime=values["timing.t_prime"],
            ),
            storage=StorageParams(
                n_half=values["storage.n_half"],
                v_c=values["storage.v_c"],
                xi=values["storage.xi"],
                retrieval_phase_sign=values["storage.retrieval_phase_sign"],
                xi_sweep=values["storage.xi_sweep"],
            ),
            reduction=ReductionParams(
                j_values=values["reduction.j_values"],
                theta=values["reduction.theta"],
                b_init=values["reduction.b_init"],
                aux_sign=values["reduction.aux_sign"],
            ),
            dispersion=DispersionParams(
                phi_values=values["dispersion.phi_values"],
                q_points=values["dispersion.q_points"],
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config_text(text: str):
    """Parse a config document; unknown or duplicate keys are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, token = line.partition("=")
        key = key.strip()
        token = token.strip()
        if key not in _SCHEMA_KEYS:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        if key in values:
            raise ConfigError(f"duplicate key {key!r} (line {lineno})")
        values[key] = token
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    defaults = _default_tokens()
    parsed = {}
    for key, kind in _SCHEMA:
        token = values.get(key, defaults[key])
        parsed[key] = _parse_value(key, kind, token)
    return _values_to_config(parsed)


def read_config(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    return parse_config_text(text)


def render_config(config) -> str:
    """Render every schema key (defaults materialized) in canonical order."""
    values = _config_to_values(config)
    lines = [f"# {UNITS_HEADER}"]
    for key, kind in _SCHEMA:
        lines.append(f"{key} = {_render_value(kind, values[key])}")
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


_DEFAULT_TOKEN_CACHE = {}


def _default_tokens() -> dict:
    """Default tokens exactly as they would be rendered; parsing them yields
    the schema defaults, so partial config files are legal input while
    manifests stay fully materialized."""
    if not _DEFAULT_TOKEN_CACHE:
        from .protocols import ExperimentConfig

        probe = ExperimentConfig(experiment="dispersion_scan")
        values = _config_to_values(probe)
        for key, kind in _SCHEMA:
            _DEFAULT_TOKEN_CACHE[key] = _render_value(kind, values[key])
    return _DEFAULT_TOKEN_CACHE


@contextlib.contextmanager
def _atomic_file(path: Path):
    """Yield a binary temp file beside ``path``; rename it onto ``path`` on success."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    with _atomic_file(Path(path)) as fh:
        fh.write(text.encode("utf-8"))


def _second_cpu() -> bool:
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _format_samples(fh, times, values, rows) -> None:
    for t, row in zip(times, values):
        t_str = _fmt_float(t)
        fh.write(((t_str + t_str.join(rows)) % tuple(row.tolist())).encode())


def _fork_formatter(side, times, values, rows) -> int:
    """Fork a helper that formats the samples into ``side``; 0 if fork fails.

    The helper leaves through ``os._exit``, so it never flushes the
    parent's stdio buffers or runs its atexit handlers.
    """
    try:
        pid = os.fork()
    except OSError:
        return 0
    if pid == 0:
        code = 1
        try:
            _format_samples(side, times, values, rows)
            side.flush()
            code = 0
        finally:
            os._exit(code)
    return pid


def write_trajectory_csv(traj, path) -> None:
    """One row per (sample time, site), time-major, 17 significant digits.

    With a second CPU, a forked helper formats the second half of the
    samples into an unlinked side file while this process formats the
    first half; if the helper cannot start or fails, this process formats
    that half itself.  The bytes are the same on every path.
    """
    path = Path(path)
    rows = [f",{label},%.17g,%.17g\n" for label in traj.site_labels]
    values = np.ascontiguousarray(traj.amplitudes, dtype=complex).view(float)  # re, im interleaved
    times, n = traj.times, len(values)
    half = n // 2 if n >= 2 and _second_cpu() else n
    with _atomic_file(path) as out, tempfile.TemporaryFile(dir=path.parent) as side:
        pid = _fork_formatter(side, times[half:], values[half:], rows) if half < n else 0
        try:
            out.write(b"t,site,re,im\n")
            _format_samples(out, times[:half], values[:half], rows)
            helper_ok = pid and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        except BaseException:
            if pid:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            raise
        if helper_ok:
            side.seek(0)
            shutil.copyfileobj(side, out)
        else:
            _format_samples(out, times[half:], values[half:], rows)


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
