#!/usr/bin/env python3
"""Record the digests and exact counts that the benchmark's gate compares
against, into ``reference.json`` beside this file.

Run it only at a commit whose tables are trusted, from the root of the
checkout:

    python3 perfbench/record_reference.py

Re-recording at a commit that changed any integer would hide that change,
which the gate exists to catch.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def record_digests() -> dict:
    hc, cli = workloads.import_package(SRC)
    digests = {}
    for size in workloads.SIZES.values():
        hc.clear_caches()
        n = size["pipeline-rank6"]
        for name, obj in workloads.pipeline_products(hc, n).items():
            digests[f"pipeline/{name}"] = workloads.digest(obj)
        argv = workloads.verify_argv(size["verify-oracle"])
        code, text, _, _ = workloads.call_cli(cli, argv)
        assert code == 0, argv
        digests[f"verify/{workloads.op_key(argv)}"] = workloads.digest(text)
        for argv, _ in workloads.cli_ops(*size["cli-cache"]):
            code, text, _, _ = workloads.call_cli(cli, argv + ["--no-cache"])
            assert code == 0, argv
            digests[f"cli/{workloads.op_key(argv)}"] = workloads.digest(text)
    return digests


def record_counts(digests: dict) -> dict:
    counts = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=HERE.parent) as work_dir:
                run = workloads.Run(workload, 0, 0, True, size=size,
                                    reference={"digests": digests}, src=SRC,
                                    work_dir=work_dir, run_id="record")
                result = run.execute()
            assert result["correct"], run.problems
            counts[f"{workload}/{size}"] = {
                m: result["metrics"][m]["value"] for m in workloads.tracing.EXACT_COUNTS
            }
            print(workload, size, counts[f"{workload}/{size}"], file=sys.stderr)
    return counts


def main():
    digests = record_digests()
    reference = {"digests": dict(sorted(digests.items())), "counts": record_counts(digests)}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
