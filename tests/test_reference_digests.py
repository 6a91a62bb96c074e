"""The benchmark's tiny-size products match the digests recorded in
``perfbench/reference.json``: every table, matrix and report of the
rank-3 pipeline, the ``verify --check all`` report over ranks 1-3, and
the 120 CLI outputs of ``table``, ``fchar`` and ``classes``.  The digests
and the argument lists are read from ``perfbench/``; nothing there is
written."""

import sys
from pathlib import Path

import hobchar
from hobchar import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

DIGESTS = workloads.load_reference(PERFBENCH / "reference.json")["digests"]
TINY = workloads.SIZES["tiny"]


def mismatches(products):
    """Keys whose digest differs from the recorded one (or was never
    recorded)."""
    return [key for key, obj in products.items() if workloads.digest(obj) != DIGESTS.get(key)]


def cli_output(argv):
    code, text, _, _ = workloads.call_cli(cli, argv)
    assert code == 0, argv
    return text


def test_pipeline_products():
    products = workloads.pipeline_products(hobchar, TINY["pipeline-rank6"])
    assert len(products) == 10
    assert mismatches({f"pipeline/{name}": obj for name, obj in products.items()}) == []


def test_verify_report():
    argv = workloads.verify_argv(TINY["verify-oracle"])
    assert mismatches({f"verify/{workloads.op_key(argv)}": cli_output(argv)}) == []


def test_cli_outputs():
    ops = workloads.cli_ops(*TINY["cli-cache"])
    assert len(ops) == 120
    products = {
        f"cli/{workloads.op_key(argv)}": cli_output(argv + ["--no-cache"]) for argv, _ in ops
    }
    assert mismatches(products) == []
