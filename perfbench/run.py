#!/usr/bin/env python3
"""Benchmark of nhlattice: end-to-end timings, or a traced per-layer breakdown.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 32 --trace 0

Workloads (see workloads.py): figures, long_chain, artifacts.  A run sets
up its inputs from the seed, then runs passes over the workload's ops
until another pass would overrun --seconds (at least one pass).  Every
op is attempted and checked; a failure is counted, named and the run
goes on.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when
every check passed.

--trace 0 reports the end-to-end metrics with tracing off: setup_s (the
median of this process's set-up and SETUP_REPEATS fresh ones), pass_s,
peak_rss_mb and ok_frac.  Each workload's own split (figure families,
chain lengths, write and read) and the plain wall time of a pass are
printed above them.

pass_s is each op's median time over the run's passes, summed over one
pass.  On a shared VM the whole machine runs up to half slower for
minutes at a time, longer than a run, so wall times of runs an hour
apart differ by more than any change worth measuring.  For a workload
whose reference_scaled is set, a fixed reference kernel of benchmark
code is therefore timed just before and just after every op, and the
op's wall time is scaled by REF_NOMINAL_S over the mean of the two: its
pass_s is in seconds at the machine's quiet-phase speed.

--trace 1 alternates traced and untraced passes and reports the
per-layer metrics of the median traced pass (spans.py), its wall time
trace.pass_s, and the tracing overhead: pass_s of the traced passes over
that of the untraced ones, minus 1.
Spans, the environment and the results are written under .perfbench_out/
when the run ends.

The package is imported from src/ of the checkout and nowhere else; with
no src/nhlattice the run exits 2 without a result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: one BLAS/OpenMP thread: the machine has few cores and shares them
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: fresh interpreters that repeat the set-up, for a median set-up time
SETUP_REPEATS = 4

#: the reference kernel's time in a quiet phase of the 2-vCPU Intel Xeon VM
#: (2 MiB L2 per core) the bounds were set on
REF_NOMINAL_S = 1.4e-3
_REF_FLOATS = [i * 0.1234567 for i in range(1000)]

#: end-to-end metrics of an untraced run, with their units
E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
#: metrics a traced run reports beside the per-layer ones of spans.py
TRACE_UNITS = {"trace.pass_s": "s", "trace.overhead_frac": "fraction"}


def _import_package():
    """Import nhlattice from the checkout's src/, or exit 2."""
    if not (SRC / "nhlattice" / "__init__.py").is_file():
        print(f"error: no nhlattice package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nhlattice

    if Path(nhlattice.__file__).resolve().parent != (SRC / "nhlattice").resolve():
        print(f"error: nhlattice imported from {nhlattice.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Machine, library and source facts recorded with every run."""
    import numpy
    import scipy

    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(index / "size")
    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": _source_hash(),
    }


def reference_s() -> float:
    """Fastest of three timings of a fixed mix of float formatting and of
    numpy work on 48 KB and 480 KB arrays, none of it nhlattice code."""
    import numpy as np

    small, big = np.arange(3001, dtype=complex), np.arange(30001, dtype=complex)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        ",".join(repr(v) for v in _REF_FLOATS)
        for _ in range(40):
            small * 0.999 + 1e-3 * small
        for _ in range(8):
            big * 0.999 + 1e-3 * big
        best = min(best, time.perf_counter() - t0)
    return best


def run_op(op, tracer=None, scaled=False) -> dict:
    """Time op.run, then check it untimed; a failure is named, never raised."""
    parts = {}
    failure = None
    before = reference_s() if scaled else None
    t0 = time.perf_counter()
    try:
        value = op.run(parts)
    except Exception as exc:  # every op is attempted: record and go on
        failure = type(exc).__name__
        traceback.print_exc(file=sys.stderr)
    seconds = time.perf_counter() - t0
    scale = 2.0 * REF_NOMINAL_S / (before + reference_s()) if scaled else 1.0
    if failure is None:
        if tracer is not None:
            tracer.active = False
        try:
            failure = op.check(value)
        except Exception as exc:
            failure = f"check:{type(exc).__name__}"
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.active = True
    return {"name": op.name, "group": op.group, "seconds": seconds, "scaled_s": seconds * scale,
            "parts": {k: v * scale for k, v in parts.items()}, "failure": failure}


def run_pass(workload, tracer=None) -> dict:
    """One pass over the workload's ops in a fresh directory under OUT."""
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with tempfile.TemporaryDirectory(dir=OUT, prefix="pass-") as workdir:
            ops = [run_op(op, tracer, workload.reference_scaled)
                   for op in workload.ops(Path(workdir))]
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"ops": ops, "pass_s": sum(op["seconds"] for op in ops)}
    if tracer is not None:
        import spans

        result["layers"] = spans.layer_metrics(tracer.spans, tracer.hot)
        result["spans"] = [vars(s) for s in tracer.spans]
    return result


def measure(workload, seconds: float, traced: bool) -> list:
    """Passes until one more would end past `seconds`; traced runs alternate."""
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
    for _ in range(20 if workload.reference_scaled else 0):  # first calls allocate
        reference_s()
    start = time.perf_counter()
    passes, lengths = [], []
    while True:
        t0 = time.perf_counter()
        if traced:
            # alternate which side runs first, so warm-up favours neither
            order = (tracer, None) if len(lengths) % 2 == 0 else (None, tracer)
            passes += [run_pass(workload, t) for t in order]
        else:
            passes.append(run_pass(workload))
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return passes


def setup_times(args, own: float) -> tuple:
    """Own set-up time plus SETUP_REPEATS fresh interpreters doing the same."""
    times, failures = [own], []
    for _ in range(SETUP_REPEATS):
        try:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"],
                capture_output=True, text=True, timeout=120, check=True)
            times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
        except (subprocess.SubprocessError, IndexError, KeyError, ValueError) as exc:
            failures.append(f"setup child: {exc!r}"[:300])
    return times, failures


def median_pass(passes, seconds=lambda op: op["scaled_s"], keep=lambda op: True) -> float:
    """Each kept op's median of seconds(op) over the run, summed over one pass.

    Ops of one name do the same work, so a pass is timed from the medians
    of all of them: a run of few passes still gets many samples per op.
    """
    samples = {}
    for p in passes:
        for op in p["ops"]:
            samples.setdefault(op["name"], []).append(seconds(op))
    return sum(statistics.median(samples[op["name"]]) for op in passes[0]["ops"] if keep(op))


def e2e_metrics(passes, setup_s: float, attempted: int, failed: int) -> tuple:
    """The end-to-end metrics, and the workload-specific breakdown."""
    metrics = {
        "setup_s": setup_s,
        "pass_s": median_pass(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    breakdown = {"wall_pass_s": median_pass(passes, lambda op: op["seconds"])}
    for group in dict.fromkeys(op["group"] for op in passes[0]["ops"]):
        breakdown[group] = median_pass(passes, keep=lambda op: op["group"] == group)
    for part in dict.fromkeys(k for op in passes[0]["ops"] for k in op["parts"]):
        breakdown[part] = median_pass(passes, lambda op: op["parts"].get(part, 0.0))
    return metrics, breakdown


def counts_check(workload: str, seed: int, traced_passes, source: str) -> list:
    """Deterministic counts must repeat across passes and across runs."""
    import spans

    counts = [{k: p["layers"][k] for k in spans.COUNT_KEYS} for p in traced_passes]
    failures = [f"counts differ between passes: {k}" for k in spans.COUNT_KEYS
                if len({c[k] for c in counts}) > 1]
    record = OUT / "counts" / f"{workload}-seed{seed}-{source[:16]}.json"
    if record.is_file():
        before = json.loads(record.read_text())
        failures += [f"counts differ from an earlier run: {k}" for k in spans.COUNT_KEYS
                     if before.get(k) != counts[0][k]]
    elif not failures:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts[0], sort_keys=True))
        os.replace(tmp, record)
    return failures


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit")
    args = parser.parse_args(argv)

    _import_package()
    workload = WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    setups, failures = setup_times(args, own_setup)
    passes = measure(workload, args.seconds, traced=bool(args.trace))
    ops = [op for p in passes for op in p["ops"]]
    failures += [f"{op['name']}: {op['failure']}" for op in ops if op["failure"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if op["failure"])
    env = environment()

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_samples": setups,
              "passes": len(passes)}
    if args.trace:
        import spans

        traced = [p for p in passes if "layers" in p]
        plain = [p for p in passes if "layers" not in p]
        failures += counts_check(args.workload, args.seed, traced, env["source_sha256"])
        median = sorted(traced, key=lambda p: p["pass_s"])[(len(traced) - 1) // 2]
        metrics = dict(median["layers"])
        metrics["trace.pass_s"] = median["pass_s"]  # wall time, as the layer times are
        metrics["trace.overhead_frac"] = median_pass(traced) / median_pass(plain) - 1.0
        units = {**spans.LAYER_UNITS, **TRACE_UNITS}
        report["spans"] = [p["spans"] for p in traced]
    else:
        metrics, breakdown = e2e_metrics(passes, statistics.median(setups), attempted, failed)
        units = E2E_UNITS
        report["breakdown_s"] = breakdown
        for group, seconds in breakdown.items():
            print(f"  {args.workload}.{group} = {seconds:.6g} s")
    if hasattr(workload, "max_error"):
        report["oracle_max_rel_error"] = workload.max_error
        print(f"  oracle max relative error = {workload.max_error:.3g}")

    correct = not failures
    report.update(failures=failures, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, default=str) + "\n")
    print("env " + json.dumps(env))
    for failure in failures:
        print(f"FAILED {failure}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
