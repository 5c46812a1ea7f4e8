"""Config documents, trajectory/table CSV, and metrics serialization.

The config format is flat ``key = value`` text with ``#`` comments, a
strict schema read off the config dataclasses (unknown keys are rejected
by name, non-finite numbers by key), and pi-literal phases
("pi/2", "-pi/4", "3*pi/4").  Floats are printed with 17 significant
digits so every double round-trips exactly; a manifest is just a config
document with every default materialized, which makes re-runs
bit-reproducible.  All writes go through write-temp-then-rename.

The trajectory CSV prints the same bytes as ``'%.17g' %`` on every value,
formatted a chunk at a time by numpy (see _format_values).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import math
import os
import re
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
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_table_csv",
    "write_metrics",
    "read_metrics",
]

UNITS_HEADER = "units: rates in kappa, time in 1/kappa, phases in radians (pi literals accepted)"


class ConfigError(ValueError):
    """Invalid configuration input; the message names the offending key."""


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


def _walk(cls, obj, prefix: str = "", none=None):
    """(key, kind, many, tags, value) of each key of a config, in canonical
    order; a None nested config reads as its defaults, and a None with an
    ``unset`` tag as that value."""
    for i, (f, kind, many, nested) in enumerate(_fields(cls)):
        if obj is not None:
            value = getattr(obj, f.name)
        else:
            value = None if f.default is dataclasses.MISSING else f.default
        if nested:
            yield from _walk(kind, value, f"{prefix}{f.name}.", f.metadata.get("none"))
        else:
            tags = {**f.metadata, "none": none} if i == 0 and none else f.metadata
            yield prefix + f.name, kind, many, tags, tags.get("unset") if value is None else value


@functools.cache
def _schema() -> dict:
    """key -> (kind, many, tags, default) for every config key, in canonical order;
    the default is what an omitted key reads as."""
    from .protocols import ExperimentConfig

    return {key: tuple(rest) for key, *rest in _walk(ExperimentConfig, None)}


def _build(cls, values: dict, prefix: str = ""):
    """The inverse of _walk: a nested config whose first key is None is None.
    A config dataclass's checks name their field first; the ValueError of one
    gains the prefix that turns that field into its key."""
    kwargs = {}
    for f, kind, _, nested in _fields(cls):
        key = prefix + f.name
        if nested:
            first = f"{key}.{_fields(kind)[0][0].name}"
            kwargs[f.name] = None if values[first] is None else _build(kind, values, key + ".")
        else:
            kwargs[f.name] = values[key]
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _parse_scalar(key: str, kind, token: str):
    if kind not in _PARSERS:  # a dataclass list item, written a:b:c
        fields = _fields(kind)
        parts = token.split(":")
        if len(parts) != len(fields):
            names = ":".join(f.name for f, *_ in fields)
            raise ConfigError(f"{key}: {token!r} must be {names}")
        return kind(*(_parse_scalar(key, k, part) for (_, k, *_), part in zip(fields, parts)))
    try:
        value = _PARSERS[kind](token)
    except (ValueError, KeyError):
        raise ConfigError(f"{key}: cannot parse {token!r} as {_KIND_NAMES[kind]}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: {token!r} is not a finite number")
    return value


def parse_value(key: str, token: str):
    """Parse one value token of a schema key, as a config document would."""
    kind, many, tags, _ = _schema()[key]
    if token == tags.get("none"):
        return () if many else None
    if many:
        return tuple(_parse_scalar(key, kind, item) for item in _split_list(token))
    return _parse_scalar(key, kind, token)


def _render_scalar(value) -> str:
    """The token of one value of a config document or metrics.txt, by its type."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if dataclasses.is_dataclass(value):  # a config dataclass list item, written a:b:c
        return ":".join(_render_scalar(getattr(value, f.name)) for f in dataclasses.fields(value))
    return str(value)


def _render_value(many, tags, value) -> str:
    if "none" in tags and (value is None or many and not value):
        return tags["none"]
    return ", ".join(map(_render_scalar, value)) if many else _render_scalar(value)


def _pairs(text: str):
    """(line number, key, token) per ``key = value`` line, skipping blank and # comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, token = line.partition("=")
        yield lineno, key.strip(), token.strip()


def parse_config_text(text: str):
    """Parse a config document; unknown or duplicate keys are rejected."""
    from .protocols import ExperimentConfig

    schema = _schema()
    tokens = {}
    for lineno, key, token in _pairs(text):
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        if key in tokens:
            raise ConfigError(f"duplicate key {key!r} (line {lineno})")
        tokens[key] = token
    if "experiment" not in tokens:
        raise ConfigError("missing required key 'experiment'")
    values = ({key: default for key, (*_, default) in schema.items()}
              | {key: parse_value(key, token) for key, token in tokens.items()})
    return _build(ExperimentConfig, values)


def read_config(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    return parse_config_text(text)


def render_config(config) -> str:
    """Render every schema key (defaults materialized) in canonical order."""
    lines = [f"# {UNITS_HEADER}"]
    for key, _, many, tags, value in _walk(type(config), config):
        lines.append(f"{key} = {_render_value(many, tags, value)}")
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


@contextlib.contextmanager
def _atomic(path):
    """A binary file that replaces ``path`` once written whole; a temp file until then.

    The temp file is created new and exclusive, as by mkstemp, but with mode
    0o666 less the umask, as by ``open()``: mkstemp's 0o600 would hide every
    artifact from the other users of a shared directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    with _atomic(path) as fh:
        fh.write(text.encode("utf-8"))


# The trajectory CSV prints each amplitude part as '%.17g' would, a numpy
# pass per chunk of values.  For 0 < |x| < 1 with k = floor(log10|x|), the
# 17 digits are |x|*10^(16-k) rounded to an integer.  |x|*2^600 times the
# double-double 10^(16-k)*2^-600 gives that product to about 2^-100
# relative (Dekker's exact product, Numer. Math. 18, 1971), far inside the
# 2^-30 margin kept from a tie.  The digits go eight to an int64 word
# (SWAR division by 10^4, 10^2, 10), and each value fills four words of
# fixed byte columns, 0 where a column holds no character:
#   word 0: sign, '0.' and zeros (-4 <= k <= -1) or 'd.', first digit;
#   words 1-2: the other 16 digits, trailing zeros blanked;
#   word 3: 'e-XX[X]' (k < -4), then the separator in the last byte.
# A value that is not finite, is >= 1 (rare in a trajectory), lies near a
# tie, or whose unrounded integer lacks 17 digits (log10's k off by one) or
# rounds to 18 is printed by '%.17g' itself.

_CSV_HEADER = b"t,site,re,im\n"
#: values formatted per numpy pass; on a 2-vCPU Xeon, 4096 (temporaries of
#: 32 KiB) took half the time per value of 16384
_CSV_CHUNK = 4096
#: Veltkamp's splitter: a double into two halves whose products are exact
_SPLIT = 2.0 ** 27 + 1
_ZEROS = 0x3030303030303030  # eight ASCII '0's


def _words(texts) -> np.ndarray:
    """int64 words holding texts of up to 8 bytes; a space is a blank (0)."""
    return np.frombuffer(b"".join(t.replace(b" ", b"\0").ljust(8, b"\0") for t in texts), "<i8")


@functools.cache
def _csv_tables() -> tuple:
    """The scales 10^(16+j)*2^-600 (j = -k) split three ways, and the word tables."""
    hi, lo = np.empty(325), np.empty(325)
    for j in range(325):
        power = 10 ** (16 + j)
        hi[j] = power / (1 << 600)  # int / int: correctly rounded
        num, den = hi[j].as_integer_ratio()
        lo[j] = (power - num * ((1 << 600) // den)) / (1 << 600)
    hi_h = _SPLIT * hi - (_SPLIT * hi - hi)
    # word 0 by [layout][first digit][rest == 0]: a zero, 0.d ... 0.000d (k = -1 ... -4), d.
    lead = [b" 0"] * 20 + [b" 0." + b"0" * (j - 1) + b" " * (4 - j) + b"%d" % d
                           for j in range(1, 5) for d in range(10) for _ in (0, 1)]
    lead += [b" %d%s" % (d, dot) for d in range(10) for dot in (b".", b"")]
    exponent = _words(b"e-%02d" % j if j > 4 else b"" for j in range(325))
    # bytes a digit word keeps, by the bit length of its digit values
    keep = _words(b"\xff" * (e and e // 8 + 1) for e in range(61))
    return hi, hi_h, hi - hi_h, lo, _words(lead), exponent, keep


def _digits8(n: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each n < 10^8 as byte values, the first in the low byte."""
    high = n // 10000
    w = high | (n - high * 10000) << 32
    t = (w * 10486 >> 20) & 0x0000007F0000007F  # // 100 in each 32-bit lane
    w = t | (w - 100 * t) << 16
    t = (w * 103 >> 10) & 0x000F000F000F000F  # // 10 in each 16-bit lane
    return t | (w - 10 * t) << 8


def _format_values(v: np.ndarray) -> np.ndarray:
    """'%.17g' % v[i] in the 32 byte columns of row i of a (len(v), 4) int64 array."""
    hi, hi_h, hi_l, lo, lead, exponent, keep = _csv_tables()
    zero = v == 0.0
    small = np.abs(v) < 1.0
    x = np.where(small, np.abs(v), 0.0)
    with np.errstate(divide="ignore"):
        j = np.clip(-np.floor(np.log10(x)), 1, 324).astype(np.intp)
    x *= 2.0 ** 600
    x_h = _SPLIT * x - (_SPLIT * x - x)
    x_l = x - x_h
    s_h, s_l = hi_h[j], hi_l[j]
    p = x * hi[j]
    q = (x_h * s_h - p + x_h * s_l + x_l * s_h) + x_l * s_l + x * lo[j]  # x * scale - p
    whole = np.floor(q)
    frac = q - whole
    n = p.astype(np.int64) + whole.astype(np.int64)  # the product's integer part
    d = n + (frac > 0.5)
    # a wrong k shows as n outside 17 digits; d = 10^17 (k one higher) would
    # take a double within 5e-18 below a power of ten, which log10 rounds up
    near_tie = np.abs(frac - 0.5) < 2.0 ** -30
    printf = ~small | ~zero & ((n < 10 ** 16) | (d >= 10 ** 17) | near_tie)
    d = np.where(printf | zero, 0, d)
    j[zero] = 0  # no exponent, and layout 0
    first = d // 10 ** 16
    rest = d - first * 10 ** 16
    mid = rest // 10 ** 8
    low = rest - mid * 10 ** 8
    layout = np.minimum(j, 5)
    words = np.empty((len(v), 4), dtype=np.int64)
    words[:, 0] = lead[(layout * 10 + first) * 2 + (rest == 0)] | np.signbit(v) * ord("-")
    digits = _digits8(mid)
    tail = keep[np.frexp(digits.astype(float))[1]]
    words[:, 1] = (digits | _ZEROS) & np.where(low == 0, tail, -1)
    digits = _digits8(low)
    words[:, 2] = (digits | _ZEROS) & keep[np.frexp(digits.astype(float))[1]]
    words[:, 3] = exponent[j]
    at = np.flatnonzero(printf)
    if len(at):
        fields = np.array([b"%.17g" % x for x in v[at].tolist()], dtype="S32")
        words[at] = fields.view(np.int64).reshape(-1, 4)
    return words


def _byte_columns(texts: list) -> np.ndarray:
    """(len(texts), the longest) uint8 columns, 0 past each text's end."""
    width = max(map(len, texts))
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


def write_trajectory_csv(traj, path) -> None:
    """One row per (sample time, site), time-major, 17 significant digits.

    A chunk of rows is laid out in fixed byte columns (time, site, the
    two parts; see _format_values), and one compaction drops the blanks.
    """
    values = np.ascontiguousarray(traj.amplitudes, dtype=complex).view(float)
    times = _byte_columns([b"%.17g," % t for t in traj.times.tolist()])
    sites = _byte_columns([b"%d," % s for s in traj.site_labels.tolist()])
    lead = times.shape[1] + sites.shape[1]
    step = max(1, _CSV_CHUNK // values.shape[1])
    with _atomic(path) as fh:
        fh.write(_CSV_HEADER)
        for k in range(0, len(values), step):
            chunk = values[k:k + step]
            rows = np.empty((len(chunk), len(sites), lead + 64), dtype=np.uint8)
            rows[:, :, :times.shape[1]] = times[k:k + step, None]
            rows[:, :, times.shape[1]:lead] = sites
            rows[:, :, lead:] = _format_values(chunk.reshape(-1)).view(np.uint8).reshape(
                len(chunk), len(sites), 64)
            rows[:, :, lead + 31] = ord(",")
            rows[:, :, -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0"))


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
    if not np.all(np.isfinite(data[:, [0, 2, 3]])):
        raise ConfigError(f"{path}: a time or amplitude is not finite")
    n_sites = int(np.argmax(data[:, 0] != data[0, 0])) or len(data)
    if len(data) % n_sites != 0:
        raise ConfigError(f"{path}: row count {len(data)} is not a multiple of the site count")
    data = data.reshape(-1, n_sites, 4)
    if np.any(data[:, :, 1] != data[0, :, 1]):
        raise ConfigError(f"{path}: a sample lists other sites than the first sample's")
    if np.any(data[:, :, 0] != data[:, :1, 0]):
        raise ConfigError(f"{path}: the time changes within a sample's {n_sites} rows")
    sites = data[0, :, 1]
    if not (np.all(np.abs(sites) < 2.0**53) and np.all(sites == np.round(sites))
            and np.all(np.diff(sites) > 0)):
        raise ConfigError(f"{path}: the site labels are not increasing integers")
    amps = np.empty(data.shape[:2], dtype=complex)
    amps.real = data[:, :, 2]
    amps.imag = data[:, :, 3]
    with np.errstate(over="ignore"):  # a sum past the double range reads inf
        norms = np.sum(np.abs(amps) ** 2, axis=1)
    return Trajectory(times=data[:, 0, 0].copy(), amplitudes=amps,
                      site_labels=sites.astype(int), norm_series=norms,
                      method_tag=method_tag)


def write_table_csv(table, path) -> None:
    """Write a (header, rows) scan table."""
    header, rows = table
    lines = [",".join(header)]
    for row in np.asarray(rows):
        lines.append(",".join("%.17g" % x for x in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


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
    """Flat 'key = value' metrics file; insertion order preserved.  A tuple or list is a
    float list; a value whose token holds a newline, '=' or ',' is refused, as
    read_metrics could not read it back."""
    lines = []
    for key, value in metrics.items():
        if isinstance(value, (tuple, list)):
            token = ", ".join("%.17g" % v for v in value)
        else:
            token = _render_scalar(value)
            if any(c in token for c in "\n=,"):
                raise ValueError(f"metric value {value!r} cannot be serialized")
        lines.append(f"{key} = {token}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_metrics(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    return {key: _parse_metric(token) for _, key, token in _pairs(text)}
