#!/usr/bin/env python3
"""Replay every preset's propagation steps through the package's Taylor loop
and through scipy's plain one, and compare their bytes and their time.

Runs each named preset once through ``run_experiment`` with
``dynamics._Stepper.__call__`` wrapped so that it records each call: the
stepper, its sample gap and its input state.  Each recorded call is then
replayed, once through ``_Stepper`` (its per-gap set-up already kept) and
once through ``taylor_loop`` of ``tests/reference.py``, the loop of scipy's
``_expm_multiply_simple_core``, on the same set-up with its products through
the same ``Operator.matvec``; the two alternate call by call, each going
first on every other call, so that a slow phase of the machine falls on
both.  Every pair of outputs must be equal to the byte.  Prints, per
preset and in total, the calls, the mismatches and the ratio of the summed
loop times (package / plain).  Exits 1 on any mismatch.

Besides the presets, replays one Gaussian packet on 30001 sites with the
physics of perfbench's long_chain workload: there the moduli outgrow the
caches and the loop's max costs what numpy's reduce does, so a loss of the
small-chain gains shows.

Usage: python scripts/stepper_ab.py [--rounds N]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from nhlattice import (PRESETS, ExcitationSpec, ExperimentConfig, Timing, dynamics,
                       preset_config, run_experiment)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import reference  # noqa: E402  (after the package, so that it loads its kernels as a run does)

#: the N = 30001 run of perfbench's long_chain workload, its packet centred
LONG_CHAIN = ExperimentConfig(
    experiment="transport_gaussian", beta=0.4, gamma=0.8, phi=math.pi / 2, kappa=1.0,
    chain_length=30001, index_origin=-15000,
    excitation=ExcitationSpec(kind="gaussian", n0=0, w0=30001 / 16.0, q0=-math.pi / 2),
    timing=Timing(t_final=5.0, sample_dt=0.25))


def record(config):
    """The (stepper, gap, state) of each _Stepper call of one run of config."""
    calls, real = [], dynamics._Stepper.__call__

    def recording(self, gap, b):
        calls.append((self, gap, np.array(b)))
        return real(self, gap, b)

    dynamics._Stepper.__call__ = recording
    try:
        run_experiment(config)
    finally:
        dynamics._Stepper.__call__ = real
    return calls


def replay(calls, rounds):
    """(mismatches, package seconds, plain seconds) over `rounds` passes of the calls."""
    bad, secs, out = 0, [0.0, 0.0], [None, None]
    for r in range(rounds):
        for i, (stepper, gap, b) in enumerate(calls):
            op, *setup = stepper.steps[gap][:4]  # op, steps, coeffs (floats), eta
            runs = [(0, lambda: stepper(gap, b)),
                    (1, lambda: reference.taylor_loop(op.matvec, *setup, b))]
            for k, run in runs if (i + r) % 2 == 0 else runs[::-1]:
                t0 = time.perf_counter()
                out[k] = run()
                secs[k] += time.perf_counter() - t0
            bad += out[0].tobytes() != out[1].tobytes()
    return bad, *secs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=1, help="replays of each call (default 1)")
    args = parser.parse_args()
    total = [0, 0, 0.0, 0.0]
    print(f"{'preset':10s} {'calls':>6s} {'bad':>4s} {'ratio':>7s}")
    with np.errstate(over="ignore", invalid="ignore"):  # as in evolve_schedule
        runs = [(name, preset_config(name)) for name in PRESETS] + [("n30001", LONG_CHAIN)]
        for name, config in runs:
            calls = record(config)
            bad, t_new, t_plain = replay(calls, args.rounds)
            for k, v in enumerate((len(calls), bad, t_new, t_plain)):
                total[k] += v
            if calls:
                print(f"{name:10s} {len(calls):6d} {bad:4d} {t_new / t_plain:7.3f}")
    n, bad, t_new, t_plain = total
    print(f"{'total':10s} {n:6d} {bad:4d} {t_new / t_plain:7.3f}  "
          f"({t_new * 1e3:.0f} ms package, {t_plain * 1e3:.0f} ms plain)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
