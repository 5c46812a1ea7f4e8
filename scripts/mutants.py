#!/usr/bin/env python3
"""Run the table of mutants: one-place changes of the package that named tests must catch.

Each row of MUTANTS gives a name, a file under src/, an exact old text, its
replacement, and the pytest ids that must fail.  For each row, src/ is copied to
a temporary directory, the old text (which must occur there exactly once) is
replaced, and only the named tests run against the copy, through PYTHONPATH.
A mutant is killed when every named test fails; an id without brackets names
all the cases of a parametrized test, and fails when one of them does.  The
named tests of every row first run once against src/ itself, where all
must pass, so that a kill means the change was caught.

Prints one line per mutant and exits 1 if a mutant survives, an old text does
not occur exactly once, a named test is not found, or the unchanged run fails.

Usage: python scripts/mutants.py [NAME ...]
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

C5B = "tests/test_acceptance.py::test_c5b_reduction_algebraic_identities"
STOP = "tests/test_dynamics.py::test_step_stop_decisions_bitwise_equal_expm_multiply"
FALLBACK = "tests/test_dynamics.py::test_below_the_normal_range_every_term_takes_scipy_maxima"
TRACE = "tests/test_dynamics.py::test_trace_shift_bitwise_equals_scipy"
DRAWN = "tests/test_dynamics.py::test_drawn_schedules_bitwise_equal_gap_by_gap_expm_multiply"
PROPAGATOR = "tests/test_dynamics.py::test_propagator_bitwise_equals_gap_by_gap_expm_multiply"
WINDOW = "tests/test_protocols.py::test_a_window_selects_a_sample_within_time_eps_of_its_end"
CONFINEMENT = ("tests/test_protocols.py::"
               "test_capture_confinement_is_the_least_inside_share_over_half_t_prime_to_t_prime")
GRID = "tests/test_protocols.py::test_dispersion_grid_bytes_equal_the_per_point_rule"
ARGMAX = "tests/test_protocols.py::test_dispersion_scan_argmax_metrics"
OVERFLOW = "tests/test_dynamics.py::test_a_sub_step_past_the_double_range_is_a_step_count_error"
PEAK = "tests/test_protocols.py::test_memory_check_counts_at_least_the_traced_peak"
HELD = "tests/test_protocols.py::test_a_run_holds_one_propagated_trajectory_at_a_time"
GOLDEN = "tests/test_golden.py::test_preset_artifacts_match_golden_digests"
DRAWN_METRICS = "tests/test_configio.py::test_drawn_metrics_read_back"
PRESET_METRICS = "tests/test_configio.py::test_every_preset_metric_reads_back"
PRESET_LABEL = "tests/test_cli.py::test_preset_label_metrics_cannot_hold_exits_2_before_any_write"
SCAN_RATE = "tests/test_cli.py::test_dispersion_scan_bad_rate_exits_2_before_any_write"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


#: the sawtooth <-> chain rule of protocols, the Taylor loop of dynamics._Stepper, the
#: trace shift, the step set-up and the switch split of dynamics, the sampling rules (the
#: time-window tolerance, the capture window and the dispersion scan's q grid), the memory
#: check's one count put back to an undercount, once per run kind, the storage and
#: reduction runners holding an earlier trajectory while the next one propagates, and then
#: the token rule of metrics.txt and the checks a dispersion scan makes up front
MUTANTS = (
    Mutant("gain gamma_a = gamma - 2*beta", "protocols.py",
           "gamma_a=cfg.gamma + 2.0 * cfg.beta if gain else",
           "gamma_a=cfg.gamma - 2.0 * cfg.beta if gain else", (C5B,)),
    Mutant("gain theta = phi/2 + pi/2", "protocols.py",
           "theta = cfg.phi / 2.0 if gain else",
           "theta = cfg.phi / 2.0 + math.pi / 2.0 if gain else", (C5B,)),
    Mutant("loss gamma_a = gamma + 2*beta", "protocols.py",
           "if gain else cfg.gamma - 2.0 * cfg.beta,",
           "if gain else cfg.gamma + 2.0 * cfg.beta,", (C5B,)),
    Mutant("u_b * (1 + 1e-9)", "protocols.py",
           "u_b=(1j if gain else -1j) * j * j / cfg.beta,",
           "u_b=(1j if gain else -1j) * j * j / cfg.beta * (1 + 1e-9),", (C5B,)),
    Mutant("skip with a non-exact c1", "dynamics.py",
           "bound, c1 = grown, None", "bound = grown", (STOP,)),
    Mutant("ub as c2's lower bound", "dynamics.py",
           "if c1 > _TAYLOR_TOL * grown >= _NORMAL_MIN:",
           "if c1 + coeff * (r * c1) > _TAYLOR_TOL * grown >= _NORMAL_MIN:", (STOP,)),
    Mutant("np.multiply(f, eta) operand order", "dynamics.py",
           "multiply(eta, f, f)", "multiply(f, eta, f)", (STOP,)),
    Mutant("coeff * r * c1", "dynamics.py",
           "grown = (bound + coeff * (r * c1)) * _BOUND_GROWTH",
           "grown = (bound + coeff * r * c1) * _BOUND_GROWTH", (STOP,)),
    Mutant("skip-test gate dropped", "dynamics.py",
           "if c1 > _TAYLOR_TOL * grown >= _NORMAL_MIN:",
           "if c1 > _TAYLOR_TOL * grown:", (FALLBACK,)),
    Mutant("exact-path gate dropped", "dynamics.py",
           "if not (c1 + c2 > _TAYLOR_TOL * bound >= _NORMAL_MIN):",
           "if not c1 + c2 > _TAYLOR_TOL * bound:", (FALLBACK,)),
    Mutant("trace shift keeps a cancelled diagonal entry", "dynamics.py",
           "    data, indices = data[:indptr[-1]], indices[:indptr[-1]]  # prune: exact zeros",
           "    data, indices = data[:indptr[-1]], indices[:indptr[-1]]\n"
           "    rows = np.flatnonzero(diag == mu)  # each a_ii - mu == 0 kept as an explicit 0\n"
           "    at = [indptr[i] + int(np.count_nonzero(indices[indptr[i]:indptr[i + 1]] < i))\n"
           "          for i in rows]\n"
           "    data, indices = np.insert(data, at, 0), np.insert(indices, at, rows)\n"
           "    indptr = indptr + np.searchsorted(rows, np.arange(n + 1)).astype(index_dtype)\n"
           "    # was: exact zeros", (TRACE,)),
    Mutant("trace shift sums each column in reverse row order", "dynamics.py",
           "np.bincount(indices, np.abs(data), minlength=n)",
           "np.bincount(indices[::-1], np.abs(data)[::-1], minlength=n)", (TRACE,)),
    Mutant("trace shift by csr_plus_csr", "dynamics.py",
           "_sparsetools.csr_minus_csr(", "_sparsetools.csr_plus_csr(", (TRACE,)),
    Mutant("trace shift without the trim to indptr[-1]", "dynamics.py",
           "data, indices = data[:indptr[-1]], indices[:indptr[-1]]", "", (TRACE,)),
    Mutant("last theta-table minimum", "dynamics.py",
           "m_star = min(_THETA, key=", "m_star = min(reversed(list(_THETA)), key=",
           (DRAWN, PROPAGATOR + "[theta_tie]")),
    Mutant("one sub-step per gap", "dynamics.py",
           "n, h = max(1, math.ceil(n)), self.h", "n, h = 1, self.h",
           (DRAWN, PROPAGATOR + "[stiff_split]")),
    Mutant("sub-step overflow unchecked", "dynamics.py",
           "if not math.isfinite(norm):", "if False:", (OVERFLOW,)),
    Mutant("no switch split", "dynamics.py",
           "if switches[seg] > t + _TIME_EPS:", "if False:", (DRAWN,)),
    Mutant("time windows without _TIME_EPS", "analysis.py",
           "mask = (times >= t_a - _TIME_EPS) & (times <= t_b + _TIME_EPS)",
           "mask = (times >= t_a) & (times <= t_b)", (WINDOW,)),
    Mutant("capture window from 0.6 t_prime", "protocols.py",
           "return (0.5 * cfg.timing.t_prime, cfg.timing.t_prime)",
           "return (0.6 * cfg.timing.t_prime, cfg.timing.t_prime)", (CONFINEMENT,)),
    Mutant("q grid step 2*pi/p", "protocols.py",
           "(2.0 * math.pi / (p - 1))", "(2.0 * math.pi / p)", (GRID, ARGMAX)),
    Mutant("transport peak at 16 bytes a site-sample", "protocols.py",
           "40 * alive * (samples + 8)", "16 * alive * (samples + 8)", (PEAK + "[transport]",)),
    Mutant("storage peak at 16 bytes a site-sample", "protocols.py",
           "40 * alive * (samples + 8)", "16 * alive * (samples + 8)", (PEAK + "[storage]",)),
    Mutant("reduction peak at 16 bytes a site-sample", "protocols.py",
           "40 * alive * (samples + 8)", "16 * alive * (samples + 8)", (PEAK + "[reduction]",)),
    Mutant("reduction peak over the sawtooth's sites alone", "protocols.py",
           "alive = 3 * cfg.chain_length if", "alive = sites if", (PEAK + "[reduction]",)),
    Mutant("scan peak at 40 bytes a q point beside the table", "protocols.py",
           "40 * rows + 72 * p", "40 * rows + 40 * p", (PEAK + "[scan]",)),
    Mutant("storage runs the last member first and holds its trajectory", "protocols.py",
           "    members = [_storage_single(cfg, member)[1] for member in specs[:-1]]\n"
           "    traj, last = _storage_single(cfg, specs[-1])\n",
           "    traj, last = _storage_single(cfg, specs[-1])\n"
           "    members = [_storage_single(cfg, member)[1] for member in specs[:-1]]\n",
           (HELD + "[storage sweep]",)),
    Mutant("reduction holds each sawtooth trajectory into the next j", "protocols.py",
           "        del saw_traj  # one sawtooth trajectory alive at a time\n", "",
           (HELD + "[reduction j values]",)),
    Mutant("int branch before the bool branch: true renders as 1", "configio.py",
           "    if isinstance(value, (bool, np.bool_)):\n"
           '        return "true" if value else "false"\n'
           "    if isinstance(value, (int, np.integer)):\n"
           "        return str(int(value))\n",
           "    if isinstance(value, (int, np.integer)):\n"
           "        return str(int(value))\n"
           "    if isinstance(value, (bool, np.bool_)):\n"
           '        return "true" if value else "false"\n', (GOLDEN, DRAWN_METRICS)),
    Mutant("metrics.txt takes a string holding ','", "configio.py",
           'for c in "\\n=,"):', 'for c in "\\n="):', (DRAWN_METRICS, PRESET_METRICS)),
    Mutant("preset tag may hold ','", "protocols.py",
           'for c in "=,\\n"),', 'for c in "=\\n"),',
           (PRESET_LABEL + "[transport-comma]", PRESET_LABEL + "[dispersion-comma]")),
    Mutant("scan skips the kappa sign check", "protocols.py",
           "_require(cfg.kappa > 0.0,",
           '_require(cfg.kappa > 0.0 or cfg.experiment == "dispersion_scan",',
           (SCAN_RATE + "[kappa = -1-kappa]", SCAN_RATE + "[kappa = 0-kappa]")),
    Mutant("scan skips the beta sign check", "protocols.py",
           "_require(cfg.beta >= 0.0,",
           '_require(cfg.beta >= 0.0 or cfg.experiment == "dispersion_scan",',
           (SCAN_RATE + "[beta = -0.4-beta]",)),
    Mutant("scan without the band bound check", "protocols.py",
           "_require(math.isfinite(sum(terms.values())),", "_require(True,",
           (SCAN_RATE + "[beta = 1e308-beta]", SCAN_RATE + "[kappa = 1e308-kappa]")),
)


def run_tests(src: Path, tests, report: Path) -> dict:
    """{named id: True if it failed} after running ``tests`` against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    report.unlink(missing_ok=True)
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    f"--junitxml={report}", *tests], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    outcome = {}
    if report.is_file():
        for case in ET.parse(report).getroot().iter("testcase"):
            node = case.get("classname").replace(".", "/") + ".py::" + case.get("name")
            failed = any(c.tag in ("failure", "error") for c in case)
            for test in tests:
                if node == test or node.startswith(test + "["):
                    outcome[test] = outcome.get(test, False) or failed
    return outcome


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    rows = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tests = sorted({t for m in rows for t in m.tests})
        clean = run_tests(ROOT / "src", tests, tmp / "clean.xml")
        for test in tests:
            if clean.get(test) is not False:
                print(f"unchanged: {test} {'not found' if test not in clean else 'fails'}")
                bad += 1
        for m in rows:
            src = tmp / "src"
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            path = src / "nhlattice" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: old text occurs {text.count(m.old)} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            outcome = run_tests(src, m.tests, tmp / "mutant.xml")
            wall = time.perf_counter() - start
            missing = [t for t in m.tests if t not in outcome]
            alive = [t for t in m.tests if outcome.get(t) is False]
            verdict = "killed" if not missing and not alive else "SURVIVED"
            print(f"{verdict:9} {m.name} ({wall:.1f} s)"
                  + "".join(f"\n  not found: {t}" for t in missing)
                  + "".join(f"\n  passed: {t}" for t in alive))
            bad += verdict != "killed"
    print(f"{len(rows)} mutants, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
