"""Self-checks of the benchmark: ``python -m pytest perfbench``.

Each workload runs in its small mode (a few rounds on small inputs, with
every oracle on) through the real command line, untraced and traced; the
metric names and units it prints must be exactly those declared in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _invoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_declared_metrics_match_the_command():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_mode_is_correct_and_prints_declared_metrics(workload, trace):
    proc = _invoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_plan_follows_the_seed(workload):
    first, again, other = (WORKLOADS[workload](seed, small=True).plan(2)
                           for seed in (3, 3, 4))
    assert first and first == again
    assert [op.params for op in first] != [op.params for op in other]


def test_a_wrong_answer_is_counted_as_failed():
    workload = WORKLOADS["oltp"](5, small=True)
    workload.build()
    ops = workload.plan(1)
    index = next(i for i, op in enumerate(ops) if op.kind == "read")
    op = ops[index]
    (ident, name, value), = op.expected
    ops[index] = op._replace(expected=[(ident, name, value + 1)])
    outcomes, __, __ = run._run_ops(workload, ops)
    assert run._judge(ops, outcomes) == (1, 1)


def test_refuses_to_run_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = _invoke("oltp", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
