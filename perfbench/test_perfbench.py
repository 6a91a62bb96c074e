"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = workloads.load_reference(HERE / "reference.json")


def run_tiny(workload, trace, tmp_path, reference=REFERENCE, seed=3):
    run = workloads.Run(workload, seed, 0.2, trace, size="tiny", reference=reference,
                        src=SRC, work_dir=tmp_path, run_id="test")
    return run, run.execute()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_metric_with_its_unit(workload, trace, tmp_path):
    run, result = run_tiny(workload, trace, tmp_path)
    assert run.problems == []
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_stage_times_account_for_the_traced_unit(tmp_path):
    run, result = run_tiny("pipeline-rank6", True, tmp_path)
    values = {m: v["value"] for m, v in result["metrics"].items()}
    stages = sum(v for m, v in values.items() if m.endswith("_s") and m != "trace.overhead_s")
    untraced = run.samples["untraced_s"]
    assert stages == pytest.approx(untraced + values["trace.overhead_s"], abs=1e-3)
    # The checks recompute both reductions, and the trace shows it.
    names = [s["name"] for s in run.tracer.spans]
    assert names.count("reduction.reduce_irreducible") == 3


@pytest.mark.parametrize(
    "workload, key",
    [
        ("pipeline-rank6", "pipeline/sym_induced_table(6)"),
        ("verify-oracle", "verify/" + workloads.op_key(workloads.verify_argv(3))),
        ("cli-cache", "cli/table --group sym --n 4 --kind irreducible --format latex"),
    ],
)
def test_altered_digest_counts_as_failed_op(workload, key, tmp_path):
    reference = copy.deepcopy(REFERENCE)
    assert key in reference["digests"]
    reference["digests"][key] = "0" * 64
    run, result = run_tiny(workload, False, tmp_path, reference)
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert any(key in p for p in run.problems)


def test_differing_exact_count_is_reported_broken(tmp_path):
    reference = copy.deepcopy(REFERENCE)
    reference["counts"]["cli-cache/tiny"]["serialize.cache_rejections"] += 1
    run, result = run_tiny("cli-cache", True, tmp_path, reference)
    assert result["failed"] == 0
    assert result["correct"] is False
    assert any(p.startswith("BROKEN") for p in run.problems)


def test_counts_repeat_across_seeds(tmp_path):
    counts = []
    for seed in (1, 2):
        _, result = run_tiny("cli-cache", True, tmp_path, seed=seed)
        counts.append({m: result["metrics"][m]["value"] for m in workloads.tracing.EXACT_COUNTS})
    assert counts[0] == counts[1] == REFERENCE["counts"]["cli-cache/tiny"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cache", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
