"""Command-line front end.

Subcommands: dispersion, transport, storage, reduce-check (run one
experiment into --out) and preset (list or print the named preset
configs).  Exit codes: 0 success, 2 config error, 3 numerical failure,
143 SIGTERM; errors and warnings print one machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import signal
import sys
import tempfile
import threading
import warnings
from dataclasses import replace
from pathlib import Path

from . import __version__, configio, protocols
from .configio import ConfigError
from .dynamics import GainRunawayError, NormUnderflowError, StepCountError
from .heatmap import render_heatmap_file

SUBCOMMAND_EXPERIMENTS = {
    "dispersion": ("dispersion_scan",),
    "transport": ("transport_single_site", "transport_gaussian"),
    "storage": ("storage",),
    "reduce-check": ("reduction_check",),
}
#: the subcommand that runs each experiment kind
EXPERIMENT_SUBCOMMAND = {exp: sub for sub, exps in SUBCOMMAND_EXPERIMENTS.items() for exp in exps}


@functools.cache  # parsing leaves the parser as it was, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhlattice",
        description="Simulate 1D lattices with phase-modulated complex hopping rates.",
    )
    parser.add_argument("--version", action="version", version=f"nhlattice {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="config document to run")
        p.add_argument("--preset", metavar="NAME", help="named preset to run")
        p.add_argument("--out", metavar="DIR", required=True, help="output directory")
        p.add_argument("--t-final", metavar="T", help="override timing.t_final")
        p.add_argument("--format", choices=("csv", "csv+svg"), default="csv",
                       help="artifact set to emit (default: csv)")
        return p

    add_run_command("dispersion", "closed-form dispersion scan over phi and q")
    add_run_command("transport", "single-site or Gaussian transport run")
    add_run_command("storage", "capture/release run in the switchable structure")
    add_run_command("reduce-check", "full sawtooth vs effective chain comparison")

    p = sub.add_parser("preset", help="list presets or print one as a config document")
    p.add_argument("name", nargs="?", help="preset name (omit to list all)")
    p.add_argument("--out", metavar="DIR", help="write <name>.cfg here instead of stdout")
    return parser


def _load_config(args) -> protocols.ExperimentConfig:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("give exactly one of --config or --preset")
    if args.preset is not None:
        config = protocols.preset_config(args.preset)
    else:
        config = configio.read_config(args.config)
    allowed = SUBCOMMAND_EXPERIMENTS[args.command]
    if config.experiment not in allowed:
        raise ConfigError(
            f"experiment: {config.experiment!r} cannot run under '{args.command}' "
            f"(expected one of: {', '.join(allowed)})"
        )
    if args.t_final is not None:
        t_final = configio.parse_value("timing.t_final", args.t_final)
        config = replace(config, timing=replace(config.timing, t_final=t_final))
    return config


#: the files a run writes into --out, in the order it writes them
_ARTIFACTS = ("trajectory.csv", "manifest.cfg", "metrics.txt", "scan.csv", "heatmap.svg")


def _write_artifacts(result, out_dir: Path, fmt: str) -> None:
    """Write the result's artifacts into ``out_dir``, making it if need be."""
    csv, manifest, metrics, scan, svg = (out_dir / name for name in _ARTIFACTS)
    if result.trajectory is not None:
        configio.write_trajectory_csv(result.trajectory, csv)
    configio.write_text_atomic(manifest, result.manifest)
    configio.write_metrics(result.metrics, metrics)
    if result.table is not None:
        configio.write_table_csv(result.table, scan)
    if result.trajectory is not None and fmt == "csv+svg":
        title = result.config.preset or result.config.experiment
        render_heatmap_file(result.trajectory, svg, title=title)


def _deepest_existing(out_dir: Path) -> Path:
    """The deepest existing of out_dir and its parents: a directory out_dir leaves by no '..'."""
    base = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    if not base.is_dir():
        raise ConfigError(f"--out: {str(base)!r} is not a directory")
    if ".." in out_dir.relative_to(base).parts:  # the OS resolves no '..' below a missing one
        raise ConfigError(f"--out: {str(out_dir)!r} has a '..' under a missing directory")
    return base


def _run(args) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    # one stage on --out's filesystem: a failed or stopped run leaves --out as it was
    base = _deepest_existing(out_dir)  # checked, as the config is, before the run and any write
    result = protocols.run_experiment(config)
    rel = out_dir.relative_to(base)
    stage = Path(tempfile.mkdtemp(prefix=".nhlattice-", dir=base))
    try:
        _write_artifacts(result, stage / rel, args.format)
        if rel.parts:  # a missing --out arrives whole, with its first missing parent
            os.rename(stage / rel.parts[0], base / rel.parts[0])
        else:  # an existing --out: replace the artifacts one by one; other files stay
            for path in stage.iterdir():
                os.replace(path, out_dir / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    print(f"wrote {args.out} ({result.metrics['experiment']}, preset={result.metrics['preset']})")
    return 0


def _preset_command(args) -> int:
    if args.name is None:
        for name, cfg in protocols.PRESETS.items():
            print(f"{name}\t{cfg.experiment}")
        return 0
    config = protocols.resolve_config(protocols.preset_config(args.name))
    text = configio.render_config(config)
    if args.out:
        out = Path(args.out)
        _deepest_existing(out)
        configio.write_text_atomic(out / f"{args.name}.cfg", text)
        print(f"wrote {out / (args.name + '.cfg')}")
    else:
        sys.stdout.write(text)
    return 0


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # SIGTERM exits 143 through SystemExit, so a killed run removes its stage
    # as a failed one does; only the main thread may set a handler
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        with warnings.catch_warnings():  # restores showwarning; each command warns afresh
            warnings.showwarning = _print_warning
            if args.command == "preset":
                return _preset_command(args)
            return _run(args)
    except (GainRunawayError, NormUnderflowError, StepCountError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError among them
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)  # None: set outside Python


if __name__ == "__main__":
    sys.exit(main())
