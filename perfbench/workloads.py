"""The three workloads of the hobchar benchmark and their correctness gate.

Every workload runs in one process and one thread as a closed loop: the
next unit of work starts only when the previous one has finished.  Each
drives the package only through its public functions and
``hobchar.cli.run``.

* ``pipeline-rank6``: one cold-cache run of the criterion-8 pipeline at
  rank 6 (S_12).  Nearly all of its time is the induced-table kernel and
  the exact linear algebra; none is oracle or serialization.
* ``verify-oracle``: one cold-cache ``hobchar verify --check all`` over
  ranks 1-5.  About two thirds of its time is brute force in the oracle,
  so it shows oracle changes and stays nearly flat under kernel changes.
* ``cli-cache``: ``table``, ``fchar`` and ``classes`` in all four formats
  over degrees 1-10 and ranks 1-5, against a table cache that starts empty,
  with a few cache files truncated after every pass.  It is the only
  workload dominated by ``serialize`` and ``cli``.

The gate: every table, matrix and report a unit produces, and the bytes of
every CLI output, are digested and compared with digests recorded once at
a trusted commit (``reference.json``).  A unit or op fails on a wrong exit
code, a failed check, a missing or unexpected cache warning, or a digest
that differs.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import tracing

WORKLOADS = ("pipeline-rank6", "verify-oracle", "cli-cache")

# Problem sizes: "full" is the benchmark; "tiny" is for the smoke tests.
SIZES = {
    "full": {"pipeline-rank6": 6, "verify-oracle": 5, "cli-cache": (10, 5)},
    "tiny": {"pipeline-rank6": 3, "verify-oracle": 3, "cli-cache": (4, 2)},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

# Set-up is repeated at least this many times and for at least this long,
# and its median is reported.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
# Units of a solve workload last seconds, so a run measures at least this
# many of them even when --seconds has already passed.
MIN_UNITS = {"pipeline-rank6": 2, "verify-oracle": 3}
# A traced cli-cache run repeats this many whole passes untraced and then
# traced, so that its counts are exact and its overhead is a difference of
# equal work.
TRACE_PASSES = 3
# Cache files truncated between two passes of cli-cache.
TRUNCATED_PER_PASS = 4
FORMATS = ("json", "csv", "latex", "pretty")


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "serialize.bytes_written":
        return "bytes"
    return "count"


# ---------------------------------------------------------------- gate


def _plain(value):
    return value if isinstance(value, int) else str(value)


def _canonical(obj):
    kind = type(obj).__name__
    if hasattr(obj, "to_dict"):  # CheckReport
        return [kind, obj.to_dict()]
    if hasattr(obj, "labels"):  # TransitionMatrix
        labels = [str(v) for v in obj.labels]
        return [kind, labels, [[_plain(v) for v in row] for row in obj.entries]]
    orders = getattr(obj, "col_class_orders", None)
    return [
        kind,
        [str(v) for v in obj.row_labels],
        [str(v) for v in obj.col_labels],
        None if orders is None else [_plain(v) for v in orders],
        getattr(obj, "group_order", None),
        [[_plain(v) for v in row] for row in obj.entries],
    ]


def digest(obj) -> str:
    """SHA-256 of the bytes of a CLI output, or of the labels and entries of
    a table, matrix or report."""
    if not isinstance(obj, str):
        obj = json.dumps(_canonical(obj), separators=(",", ":"))
    return hashlib.sha256(obj.encode()).hexdigest()


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------- the package


def forget_package():
    """Drop every hobchar module, and the memory they hold, so that the next
    import starts from the sources."""
    for name in [m for m in sys.modules if m == "hobchar" or m.startswith("hobchar.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    gc.collect()


def import_package(src: Path):
    """Import hobchar from ``src`` and return (package, cli module)."""
    hc = importlib.import_module("hobchar")
    cli = importlib.import_module("hobchar.cli")
    if not Path(hc.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"hobchar was imported from {hc.__file__}, not from {src}")
    return hc, cli


def call_cli(cli, argv):
    """Run ``cli.run(argv)`` with its output captured; returns (exit code,
    stdout text, cache warnings, seconds spent in the call)."""
    from hobchar.serialize import CacheWarning

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - t0
    n_warn = sum(1 for w in caught if issubclass(w.category, CacheWarning))
    return code, out.getvalue(), n_warn, elapsed


# ----------------------------------------------------------- workloads


def pipeline_products(hc, n: int) -> dict:
    """The criterion-8 pipeline at rank ``n``: every table, matrix and
    check report it produces, by name, in the order they are computed."""
    out = {}
    out[f"sym_induced_table({2 * n})"] = hc.sym_induced_table(2 * n)
    x, delta = hc.sym_irreducible_table(2 * n)
    out[f"sym_irreducible_table({2 * n})"] = x
    out[f"sym_transition({2 * n})"] = delta
    out[f"hob_induced_table({n})"] = hc.hob_induced_table(n)
    y, t_b = hc.hob_irreducible_table(n)
    out[f"hob_irreducible_table({n})"] = y
    out[f"hob_transition({n})"] = t_b
    out[f"reduce_irreducible({n})"] = hc.reduce_irreducible(n)
    out[f"reduce_induced({n})"] = hc.reduce_induced(n)
    out[f"verify_consistency({n})"] = hc.verify_consistency(n)
    out[f"method_b_verify({n})"] = hc.method_b_verify(n)
    return out


def verify_argv(max_n: int) -> list[str]:
    return ["verify", "--check", "all", "--n", "1", "--max-n", str(max_n),
            "--allow-slow", "--format", "json"]


def cli_ops(max_degree: int, max_rank: int) -> list[tuple[list[str], tuple | None]]:
    """(argv, cache key) for every op of cli-cache; the key is the
    (group, n, kind) the table cache stores the op's result under, or None
    for ``classes``, which the cache does not hold."""
    ops = []
    for fmt in FORMATS:
        tail = ["--format", fmt]
        for n in range(1, max_degree + 1):
            ops.append((["classes", "--group", "sym", "--n", str(n)] + tail, None))
            kinds = ["induced", "irreducible", "transition"]
            if n % 2 == 0:
                kinds += ["modified-induced", "modified-irreducible"]
            for kind in kinds:
                argv = ["table", "--group", "sym", "--n", str(n), "--kind", kind]
                ops.append((argv + tail, ("sym", n, kind)))
        for n in range(1, max_rank + 1):
            ops.append((["classes", "--group", "hyperoct", "--n", str(n)] + tail, None))
            for kind in ("induced", "irreducible", "transition"):
                argv = ["table", "--group", "hyperoct", "--n", str(n), "--kind", kind]
                ops.append((argv + tail, ("hyperoct", n, kind)))
            ops.append((["fchar", "--n", str(n)] + tail, ("sym", 2 * n, "fchar")))
    return ops


def op_key(argv) -> str:
    return " ".join(argv)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Run:
    """One benchmark run of one workload: set-up, measurement and gate."""

    def __init__(self, workload, seed, seconds, trace, *, size, reference, src, work_dir,
                 run_id):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.param = SIZES[size][workload]
        self.digests = reference["digests"]
        self.expected_counts = reference.get("counts", {}).get(f"{workload}/{size}")
        self.src = src
        self.work_dir = Path(work_dir)
        self.run_id = run_id
        self.tracer = None  # a tracing.Tracer while the traced work runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # the first few, for the record
        self.n_problems = 0
        self.hc = self.cli = None
        self.samples: dict = {}

    # -- gate

    def _check(self, key: str, value: str, what: str) -> bool:
        expected = self.digests.get(key)
        if expected == value:
            return True
        self._problem(f"{what}: digest of {key} is {value}, recorded {expected}")
        return False

    def _problem(self, text: str):
        self.n_problems += 1
        if len(self.problems) < 20:
            self.problems.append(text)

    def _record(self, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1

    # -- set-up

    def setup(self):
        """Import the package afresh, build the inputs, and for cli-cache
        warm the in-memory tables; returns its wall time."""
        self.hc = self.cli = None
        forget_package()
        t0 = time.perf_counter()
        self.hc, self.cli = import_package(self.src)
        self.hc.clear_caches()
        if self.workload == "cli-cache":
            max_degree, max_rank = self.param
            self.ops = cli_ops(max_degree, max_rank)
            for n in range(1, max_degree + 1):
                self.hc.sym_induced_table(n)
                self.hc.sym_irreducible_table(n)
            for n in range(1, max_rank + 1):
                self.hc.hob_induced_table(n)
                self.hc.hob_irreducible_table(n)
        return time.perf_counter() - t0

    def _root_span(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(tracing.ROOT_SPAN)

    # -- units of the solve workloads

    def _unit(self):
        """One cold unit of pipeline-rank6 or verify-oracle, gated; returns
        its wall time."""
        self.hc.clear_caches()
        if self.workload == "pipeline-rank6":
            n = self.param
            t0 = time.perf_counter()
            with self._root_span():
                products = pipeline_products(self.hc, n)
            elapsed = time.perf_counter() - t0
            ok = True
            for name, obj in products.items():
                ok &= self._check(f"pipeline/{name}", digest(obj), "pipeline")
                if hasattr(obj, "passed") and not obj.passed:
                    self._problem(f"pipeline: check {name} failed")
                    ok = False
        else:
            argv = verify_argv(self.param)
            with self._root_span():
                code, text, _, elapsed = call_cli(self.cli, argv)
            ok = self._check(f"verify/{op_key(argv)}", digest(text), "verify-oracle")
            if code != 0:
                self._problem(f"verify-oracle: exit code {code}")
                ok = False
        self._record(ok)
        return elapsed

    def measure_solve(self):
        """Units until --seconds have passed; an op is a unit here."""
        times = []
        t0 = time.perf_counter()
        while len(times) < MIN_UNITS[self.workload] or time.perf_counter() - t0 < self.seconds:
            times.append(self._unit())
        loop = time.perf_counter() - t0
        return times, times, loop

    # -- cli-cache

    def _cli_passes(self, cache_dir: Path, rng: random.Random, *, deadline=None,
                    passes=None):
        """Run shuffled passes over the ops against ``cache_dir`` until the
        deadline or the pass count; returns (op latencies, complete pass
        times)."""
        from hobchar.serialize import TableCache

        cache = TableCache(cache_dir)
        keys = sorted({key for _, key in self.ops if key is not None})
        pending: set = set()  # truncated keys not read since
        latencies, pass_times = [], []
        done = 0
        while passes is None or done < passes:
            order = list(self.ops)
            rng.shuffle(order)
            t_pass = time.perf_counter()
            for argv, key in order:
                full = argv + ["--cache-dir", str(cache_dir)]
                with self._root_span():
                    code, text, n_warn, elapsed = call_cli(self.cli, full)
                latencies.append(elapsed)
                ok = self._check(f"cli/{op_key(argv)}", digest(text), "cli-cache")
                expected_warn = int(key in pending)
                pending.discard(key)
                if code != 0 or n_warn != expected_warn:
                    self._problem(
                        f"cli-cache: {op_key(argv)} exited {code} with {n_warn} cache "
                        f"warnings, expected 0 and {expected_warn}"
                    )
                    ok = False
                self._record(ok)
                if deadline is not None and time.perf_counter() >= deadline and pass_times:
                    return latencies, pass_times
            pass_times.append(time.perf_counter() - t_pass)
            done += 1
            if deadline is not None and time.perf_counter() >= deadline:
                break
            present = [k for k in keys if cache.path(*k).exists()]
            for key in rng.sample(present, min(TRUNCATED_PER_PASS, len(present))):
                path = cache.path(*key)
                data = path.read_bytes()
                path.write_bytes(data[: len(data) // 2])
                pending.add(key)
        return latencies, pass_times

    def _fresh_cache_dir(self, tag: str) -> Path:
        path = self.work_dir / f"cache-{tag}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def measure_cli(self):
        cache_dir = self._fresh_cache_dir("measure")
        t0 = time.perf_counter()
        latencies, pass_times = self._cli_passes(
            cache_dir, random.Random(self.seed), deadline=t0 + self.seconds
        )
        loop = time.perf_counter() - t0
        shutil.rmtree(cache_dir, ignore_errors=True)
        return latencies, pass_times, loop

    # -- the two kinds of run

    def _setups(self):
        times = []
        t0 = time.perf_counter()
        while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - t0 < SETUP_MIN_SECONDS:
            times.append(self.setup())
        return times

    def end_to_end(self) -> dict:
        setups = self._setups()
        if self.workload == "cli-cache":
            latencies, solves, loop = self.measure_cli()
        else:
            latencies, solves, loop = self.measure_solve()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.samples = {"setup": len(setups), "ops": len(latencies), "solves": len(solves)}
        return {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(solves),
            "ops_per_s": len(latencies) / loop,
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p99_ms": 1000 * percentile(latencies, 0.99),
            "peak_rss_mib": rss_kib / 1024,
        }

    def _equal_work(self, traced: bool) -> float:
        """The fixed work a traced run repeats with and without tracing;
        returns its wall time."""
        if self.workload != "cli-cache":
            return self._unit()
        cache_dir = self._fresh_cache_dir("traced" if traced else "untraced")
        t0 = time.perf_counter()
        self._cli_passes(cache_dir, random.Random(self.seed), passes=TRACE_PASSES)
        elapsed = time.perf_counter() - t0
        shutil.rmtree(cache_dir, ignore_errors=True)
        return elapsed

    def per_layer(self) -> dict:
        self.setup()
        untraced = self._equal_work(traced=False)
        self.tracer = tracing.Tracer(self.run_id)
        with tracing.instrument(self.tracer):
            traced = self._equal_work(traced=True)
        metrics = self.tracer.layer_metrics()
        metrics["trace.overhead_s"] = traced - untraced
        self.samples = {"untraced_s": untraced, "traced_s": traced,
                        "spans": len(self.tracer.spans)}
        counts = {m: metrics[m] for m in tracing.EXACT_COUNTS}
        if self.expected_counts is not None and counts != self.expected_counts:
            self._problem(
                f"BROKEN: exact counts {counts} differ from the recorded "
                f"{self.expected_counts}; counts repeat exactly, so this is not noise"
            )
        return metrics

    def execute(self) -> dict:
        """Run the workload and return the result line's fields."""
        if self.trace:
            values = self.per_layer()
            units = {m: layer_unit(m) for m in values}
        else:
            values = self.end_to_end()
            units = END_TO_END_UNITS
        return {
            "correct": self.failed == 0 and self.n_problems == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        }
