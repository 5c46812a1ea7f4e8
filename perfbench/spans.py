"""In-memory span tracing of nhlattice, installed from outside the package.

Every function named in a layer module's ``__all__`` (for ``cli``, which
has none, its public functions) is wrapped in a span recorder.  The
wrapper replaces the name in every ``nhlattice`` module that holds the
same function object, so calls made through ``from .x import f`` copies
are traced too, whatever the function is called.  Hot operator methods
(``matvec``, ``to_dense``) on the layers' classes only count calls and
sum their time, because a span per call would cost more than the call.

Spans stay in memory; the caller writes them out when the run ends.  A
span's self time is its duration minus the part of it that its child
spans cover.  Hot-method time is not a span, so it stays inside the self
time of the caller (dynamics, for ``matvec``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "nhlattice"
LAYERS = ("cli", "protocols", "lattice", "dynamics", "analysis", "configio", "heatmap")
HOT_METHODS = ("matvec", "to_dense")
#: configio spans are split by the file they touch, or else by name
_CONFIGIO_SUFFIX = {".csv": "csv", ".txt": "metrics", ".cfg": "manifest"}
_MANIFEST_NAMES = ("render_manifest", "render_config", "parse_config_text",
                   "config_hash", "parse_phase")

#: the per-layer metrics every traced run reports, with their units
LAYER_UNITS = {
    "cli.self_s": "s",
    "protocols.resolve_s": "s",
    "protocols.self_s": "s",
    "lattice.self_s": "s",
    "lattice.build_s": "s",
    "lattice.build_calls": "count",
    "lattice.dim_built": "count",
    "lattice.matvec_calls": "count",
    "lattice.matvec_s": "s",
    "lattice.to_dense_calls": "count",
    "lattice.dense_bytes": "bytes",
    "dynamics.self_s": "s",
    "dynamics.calls": "count",
    "dynamics.samples": "count",
    "dynamics.site_samples": "count",
    "dynamics.matvecs_per_sample": "ratio",
    "dynamics.exact_segments": "count",
    "dynamics.exact_fallbacks": "count",
    "analysis.self_s": "s",
    "analysis.calls": "count",
    "configio.self_s": "s",
    "configio.csv_write_s": "s",
    "configio.csv_bytes": "bytes",
    "configio.csv_write_MBps": "MB/s",
    "configio.csv_read_s": "s",
    "configio.csv_read_MBps": "MB/s",
    "configio.manifest_s": "s",
    "configio.metrics_s": "s",
    "heatmap.self_s": "s",
    "heatmap.render_s": "s",
    "heatmap.svg_bytes": "bytes",
}
#: deterministic work counts: equal inputs must give equal values
COUNT_KEYS = tuple(k for k, unit in LAYER_UNITS.items() if unit in ("count", "bytes"))


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    layer: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def function(self) -> str:
        return self.name.split(".", 1)[1]


@dataclass
class HotStat:
    calls: int = 0
    seconds: float = 0.0
    nbytes: int = 0


def _path_arg(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.splitext(value)[1]:
            return os.fspath(value)
    return None


def _observe(layer: str, function: str, args, kwargs, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if layer == "lattice" and function.startswith("build"):
        return {"dim": int(getattr(result, "dim", 0))}
    if layer == "dynamics" and hasattr(result, "times") and hasattr(result, "amplitudes"):
        return {"samples": len(result.times), "site_samples": int(result.amplitudes.size),
                "detail": list(getattr(result, "method_detail", ()))}
    if layer == "configio":
        path = _path_arg(args, kwargs)
        if path is not None and os.path.isfile(path):
            return {"suffix": os.path.splitext(path)[1], "bytes": os.path.getsize(path)}
        return {}
    if layer == "heatmap" and isinstance(result, str):
        return {"bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Installs span wrappers into the loaded nhlattice modules."""

    def __init__(self):
        self.spans: list = []
        self.hot = {name: HotStat() for name in HOT_METHODS}
        self.active = True
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.hot = {name: HotStat() for name in HOT_METHODS}

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        hot_classes = set()
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            names = getattr(module, "__all__", None)
            if names is None:
                names = [n for n, v in vars(module).items() if not n.startswith("_")
                         and inspect.isfunction(v) and v.__module__ == module.__name__]
            for name in names:
                obj = getattr(module, name, None)
                if inspect.isfunction(obj) and id(obj) not in wrappers:
                    wrappers[id(obj)] = self._span_wrapper(obj, layer)
                elif inspect.isclass(obj) and obj not in hot_classes:
                    hot_classes.add(obj)
                    for method in HOT_METHODS:
                        original = vars(obj).get(method)
                        if inspect.isfunction(original):
                            self._patch(obj, method, self._hot_wrapper(original, method))
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _span_wrapper(self, fn, layer: str):
        tracer = self
        span_name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = Span(span_name, layer, tracer._stack[-1] if tracer._stack else -1,
                        time.perf_counter())
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"error": type(exc).__name__}
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.info = _observe(layer, fn.__name__, args, kwargs, result)
            return result

        return wrapper

    def _hot_wrapper(self, fn, method: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            stat = tracer.hot[method]
            stat.seconds += time.perf_counter() - t0
            stat.calls += 1
            stat.nbytes += getattr(result, "nbytes", 0)
            return result

        return wrapper


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for j in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[j].start, reach)
            hi = min(spans[j].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _has_ancestor(spans, i: int, match) -> bool:
    j = spans[i].parent
    while j >= 0:
        if match(spans[j]):
            return True
        j = spans[j].parent
    return False


def _configio_kind(span: Span) -> str:
    kind = _CONFIGIO_SUFFIX.get(span.info.get("suffix"))
    if kind == "csv":
        return "csv_read" if span.function.startswith("read") else "csv_write"
    if kind is not None:
        return kind
    if span.function in _MANIFEST_NAMES:
        return "manifest"
    if "metrics" in span.function:
        return "metrics"
    return "other"


def layer_metrics(spans, hot) -> dict:
    """Every LAYER_UNITS metric of one traced pass."""
    selfs = self_times(spans)
    m = dict.fromkeys(LAYER_UNITS, 0)
    read_bytes = 0
    for span, own in zip(spans, selfs):
        m[f"{span.layer}.self_s"] += own
    for i, span in enumerate(spans):
        fn = span.function
        duration = span.end - span.start
        if span.layer == "protocols" and fn.startswith("resolve"):
            if not _has_ancestor(spans, i, lambda s: s.layer == "protocols"
                                 and s.function.startswith("resolve")):
                m["protocols.resolve_s"] += duration
        elif span.layer == "lattice" and fn.startswith("build"):
            m["lattice.build_calls"] += 1
            m["lattice.dim_built"] += span.info.get("dim", 0)
            if not _has_ancestor(spans, i, lambda s: s.layer == "lattice"
                                 and s.function.startswith("build")):
                m["lattice.build_s"] += duration
        elif span.layer == "dynamics" and "samples" in span.info:
            if not _has_ancestor(spans, i, lambda s: "samples" in s.info):
                m["dynamics.calls"] += 1
                m["dynamics.samples"] += span.info["samples"]
                m["dynamics.site_samples"] += span.info["site_samples"]
                detail = span.info["detail"]
                m["dynamics.exact_segments"] += sum(d in ("eig", "expm") for d in detail)
                m["dynamics.exact_fallbacks"] += sum(d == "expm" for d in detail)
        elif span.layer == "analysis":
            m["analysis.calls"] += 1
        elif span.layer == "configio":
            if _has_ancestor(spans, i, lambda s: s.layer == "configio"):
                continue
            kind = _configio_kind(span)
            if kind in ("csv_write", "csv_read", "manifest", "metrics"):
                m[f"configio.{kind}_s"] += duration
            if kind == "csv_write":
                m["configio.csv_bytes"] += span.info.get("bytes", 0)
            elif kind == "csv_read":
                read_bytes += span.info.get("bytes", 0)
        elif span.layer == "heatmap" and fn.startswith("render"):
            m["heatmap.render_s"] += duration
            m["heatmap.svg_bytes"] += span.info.get("bytes", 0)
    m["lattice.matvec_calls"] = hot["matvec"].calls
    m["lattice.matvec_s"] = hot["matvec"].seconds
    m["lattice.to_dense_calls"] = hot["to_dense"].calls
    m["lattice.dense_bytes"] = hot["to_dense"].nbytes
    if m["dynamics.samples"]:
        m["dynamics.matvecs_per_sample"] = m["lattice.matvec_calls"] / m["dynamics.samples"]
    if m["configio.csv_write_s"] > 0:
        m["configio.csv_write_MBps"] = m["configio.csv_bytes"] / m["configio.csv_write_s"] / 1e6
    if m["configio.csv_read_s"] > 0:
        m["configio.csv_read_MBps"] = read_bytes / m["configio.csv_read_s"] / 1e6
    return m
