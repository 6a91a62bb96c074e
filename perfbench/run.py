#!/usr/bin/env python3
"""Run one workload of the hobchar benchmark and print its result.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline-rank6 --seed 1 --seconds 10 --trace 0

The package is imported from the checkout's ``src`` directory; nothing is
installed.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it repeats a fixed amount of the workload's work
untraced and then traced and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run metadata, the samples and,
for a traced run, every span are written to ``.perfbench_runs/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (lives beside this file)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package's source files, which identifies the code
    measured when the checkout is not a git work tree."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(root: Path, src: Path, hc, loadavg) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src / "hobchar"),
        # Read with a fallback: the compiled backend switch is due to go.
        "backend": getattr(hc, "BACKEND", "none"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    loadavg = os.getloadavg()
    src = ROOT / "src"
    if not (src / "hobchar" / "__init__.py").is_file():
        print(f"error: no hobchar sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    out_dir = ROOT / ".perfbench_runs"
    work_dir = out_dir / run_id
    work_dir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        size="full",
        reference=workloads.load_reference(HERE / "reference.json"),
        src=src,
        work_dir=work_dir,
        run_id=run_id,
    )
    try:
        result = run.execute()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(ROOT, src, run.hc, loadavg),
        "samples": run.samples,
        "failed_ratio": result["failed"] / result["attempted"],
        "problems": run.problems,
        "result": result,
    }
    (out_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer is not None:
        (out_dir / f"{run_id}.spans.json").write_text(json.dumps(run.tracer.spans) + "\n")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("# meta " + json.dumps(record["meta"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
