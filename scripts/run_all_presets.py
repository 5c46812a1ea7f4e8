#!/usr/bin/env python3
"""Run every named preset and write its artifact set under one root.

Prints each preset's wall time and the process's peak RSS after it, so the
memory high-water mark of the figures traffic reads off the last line.

Usage: python scripts/run_all_presets.py [--out runs] [--format csv+svg]
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from nhlattice import PRESETS
from nhlattice.cli import EXPERIMENT_SUBCOMMAND, main as cli_main


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB (ru_maxrss: KiB, bytes on macOS)."""
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 2**20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs", help="output root (default: runs/)")
    parser.add_argument("--format", default="csv+svg", choices=("csv", "csv+svg"))
    args = parser.parse_args()

    root = Path(args.out)
    failures = 0
    start = time.perf_counter()
    for name, config in PRESETS.items():
        sub = EXPERIMENT_SUBCOMMAND[config.experiment]
        out_dir = root / name
        t0 = time.perf_counter()
        code = cli_main([sub, "--preset", name, "--out", str(out_dir),
                         "--format", args.format])
        elapsed = time.perf_counter() - t0
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{name:10s} {config.experiment:22s} {elapsed:6.1f}s {peak_rss_mb():7.1f} MB  {status}")
        failures += code != 0
    status = "ok" if not failures else f"{failures} failed"
    print(f"{'total':33s} {time.perf_counter() - start:6.1f}s {peak_rss_mb():7.1f} MB  {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
