"""Spans and counts recorded around calls into hobchar's public functions.

The benchmark changes no source file of the package.  For a traced run it
rebinds each instrumented function, wherever a hobchar module holds a
reference to it, to a wrapper that records a span (name, start, end,
parent, run id) and the layer's exact counts, and it restores the
original bindings afterwards.  Untraced runs leave the package untouched.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time

# Span name -> per-layer metric name; every span name not listed here is
# still written out and still counted in the accounting of a unit.
SPAN_METRICS = {
    "symmetric.induced_table": "symmetric.induced_table_s",
    "hyperoct.induced_table": "hyperoct.induced_table_s",
    "symmetric.irreducible_table": "symmetric.irreducible_table_s",
    "hyperoct.irreducible_table": "hyperoct.irreducible_table_s",
    "reduction.reduce_irreducible": "reduction.reduce_irreducible_s",
    "reduction.reduce_induced": "reduction.reduce_induced_s",
    "reduction.verify_consistency": "reduction.verify_consistency_s",
    "chains.hob_chain": "chains.hob_chain_s",
    "chains.method_b_verify": "chains.method_b_verify_s",
    "tables.orthogonality": "tables.orthogonality_s",
    "embedding.modified_tables": "embedding.modified_tables_s",
    "embedding.fusion_map": "embedding.fusion_map_s",
    "embedding.permutation_character": "embedding.permutation_character_s",
    "oracle.class_data": "oracle.class_data_s",
    "oracle.agreement": "oracle.agreement_s",
    "serialize.cache_lookup": "serialize.cache_lookup_s",
    "serialize.cache_store": "serialize.cache_store_s",
    "serialize.render.json": "serialize.render.json_s",
    "serialize.render.csv": "serialize.render.csv_s",
    "serialize.render.latex": "serialize.render.latex_s",
    "serialize.render.pretty": "serialize.render.pretty_s",
    "cli.run": "cli.run_s",
    "cli.table": "cli.table_s",
    "cli.classes": "cli.classes_s",
    "cli.fchar": "cli.fchar_s",
    "cli.verify": "cli.verify_s",
}

# Counts that a workload's fixed traced work reproduces exactly at any seed.
EXACT_COUNTS = (
    "symmetric.induced_cells",
    "hyperoct.induced_cells",
    "oracle.elements",
    "serialize.cache_hits",
    "serialize.cache_misses",
    "serialize.cache_rejections",
)
# Exact at a fixed seed only: the seed picks which cache files are truncated
# and so rewritten.
COUNT_METRICS = EXACT_COUNTS + ("serialize.bytes_written",)

# The harness opens one root span of this name around every unit or op;
# its self time is the part of the op that no instrumented call covers.
ROOT_SPAN = "op"


class Tracer:
    """Spans and counts of one run, kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it that its child spans cover."""
        child = collections.defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = collections.defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        times = self.self_times()
        metrics = {m: times.get(name, 0.0) for name, m in SPAN_METRICS.items()}
        metrics.update({m: self.counts.get(m, 0) for m in COUNT_METRICS})
        metrics["trace.unattributed_s"] = times.get(ROOT_SPAN, 0.0)
        return metrics


def _hobchar_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "hobchar" or name.startswith("hobchar."))
    ]


def _traced(tracer, name, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``name`` may be a function of the arguments,
    or None for a wrapper that only runs the hooks.
    ``before`` runs ahead of the span and its result goes to ``after``,
    which runs once the span has closed, so neither is timed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(*args, **kwargs) if before else None
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name(*args, **kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
        if after:
            after(token, result, *args, **kwargs)
        return result

    for attr in ("cache_clear", "cache_info"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _counted_misses(tracer, metric, fn, size):
    """Count ``size(result)`` each time ``fn`` computes instead of answering
    from its cache; a function without a cache computes on every call."""
    cache_info = getattr(fn, "cache_info", None)

    def before(*args, **kwargs):
        return cache_info().misses if cache_info else None

    def after(misses, result, *args, **kwargs):
        if misses is None or cache_info().misses > misses:
            tracer.counts[metric] += size(result)

    return before, after


def _table_cells(table):
    return table.nrows * table.ncols


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind hobchar's public functions to traced wrappers for the
    duration of the block."""
    from hobchar import (
        chains,
        cli,
        embedding,
        hyperoct,
        oracle,
        reduction,
        serialize,
        symmetric,
        tables,
    )

    # (module, function, span name or None, (count metric, size of a result)
    # or None)
    functions = [
        (symmetric, "sym_induced_table", "symmetric.induced_table",
         ("symmetric.induced_cells", _table_cells)),
        (symmetric, "sym_irreducible_table", "symmetric.irreducible_table", None),
        (hyperoct, "hob_induced_table", "hyperoct.induced_table",
         ("hyperoct.induced_cells", _table_cells)),
        (hyperoct, "hob_irreducible_table", "hyperoct.irreducible_table", None),
        (reduction, "reduce_irreducible", "reduction.reduce_irreducible", None),
        (reduction, "reduce_induced", "reduction.reduce_induced", None),
        (reduction, "verify_consistency", "reduction.verify_consistency", None),
        (chains, "hob_chain", "chains.hob_chain", None),
        (chains, "method_b_verify", "chains.method_b_verify", None),
        (tables, "first_orthogonality_failure", "tables.orthogonality", None),
        (tables, "first_column_orthogonality_failure", "tables.orthogonality", None),
        (embedding, "modified_tables", "embedding.modified_tables", None),
        (embedding, "fusion_map", "embedding.fusion_map", None),
        (embedding, "permutation_character_F", "embedding.permutation_character", None),
        # Enumerating group elements is timed inside its callers; only the
        # number of elements it builds is counted.
        (oracle, "enumerate_group", None, ("oracle.elements", len)),
        (oracle, "oracle_class_data", "oracle.class_data", None),
        (oracle, "oracle_agreement", "oracle.agreement", None),
        (serialize, "render", lambda doc, fmt: f"serialize.render.{fmt}", None),
        (cli, "run", "cli.run", None),
        (cli, "cmd_table", "cli.table", None),
        (cli, "cmd_classes", "cli.classes", None),
        (cli, "cmd_fchar", "cli.fchar", None),
        (cli, "cmd_verify", "cli.verify", None),
    ]
    wrappers = {}
    for module, attr, name, cells in functions:
        fn = getattr(module, attr)
        hooks = _counted_misses(tracer, cells[0], fn, cells[1]) if cells else (None, None)
        wrappers[id(fn)] = (fn, _traced(tracer, name, fn, *hooks))

    cache_cls = serialize.TableCache
    methods = {
        "lookup": (cache_cls.lookup,
                   _traced(tracer, "serialize.cache_lookup", cache_cls.lookup,
                           *_lookup_hooks(tracer))),
        "store": (cache_cls.store,
                  _traced(tracer, "serialize.cache_store", cache_cls.store,
                          after=_store_after(tracer))),
    }

    rebound = []
    for module in _hobchar_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(module, attr, wrappers[id(value)][1])
                rebound.append((module, attr, value))
    for attr, (fn, wrapped) in methods.items():
        setattr(cache_cls, attr, wrapped)
    try:
        yield tracer
    finally:
        for module, attr, value in rebound:
            setattr(module, attr, value)
        for attr, (fn, _) in methods.items():
            setattr(cache_cls, attr, fn)


def _lookup_hooks(tracer):
    """A lookup that returns a document is a hit; one that returns nothing
    although the file exists is a rejection; anything else is a miss."""

    def before(cache, group, n, kind):
        return cache.path(group, n, kind).exists()

    def after(existed, doc, *args):
        if doc is not None:
            tracer.counts["serialize.cache_hits"] += 1
        elif existed:
            tracer.counts["serialize.cache_rejections"] += 1
        else:
            tracer.counts["serialize.cache_misses"] += 1

    return before, after


def _store_after(tracer):
    def after(token, result, cache, doc):
        path = cache.path(doc.group, doc.n, doc.kind)
        if path.exists():
            tracer.counts["serialize.bytes_written"] += path.stat().st_size

    return after
