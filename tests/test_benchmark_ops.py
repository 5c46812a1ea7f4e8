"""The calls the benchmark makes into the package, through the benchmark's own checks.

perfbench drives the package as its users do: the CLI, ``run_experiment``
and the artifact writers and readers.  One op of each workload runs here,
so a change that drops or breaks a name the benchmark calls fails this
suite, not only a later benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]

import workloads  # noqa: E402


@pytest.mark.parametrize("workload,op_name", [
    ("figures", "fig2"),
    ("figures", "reduction"),
    ("figures", "fig6a"),  # a storage run: the sandwich and the metrics reader
    ("artifacts", "reduction"),
    ("long_chain", "n301"),
])
def test_benchmark_op_passes_its_check(tmp_path, workload, op_name):
    ops = workloads.WORKLOADS[workload](seed=1).ops(tmp_path)
    op = next(op for op in ops if op.name == op_name)
    assert op.check(op.run({})) is None
