"""The benchmark's tracer (``perfbench/tracing.py``) rebinds hobchar's
public functions by name at every module that holds them, and puts them
back afterwards.  Entering and leaving it once here makes a renamed or
deleted function fail the tests, not only a benchmark run."""

import sys
from pathlib import Path

import hobchar.cli
from hobchar import oracle, serialize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "hobchar" or name.startswith("hobchar."))
        for attr, value in vars(module).items()
    }


def test_tracer_rebinds_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = bindings()
    methods = (serialize.TableCache.lookup, serialize.TableCache.store)
    tracer = tracing.Tracer("t")
    with tracing.instrument(tracer):
        during = bindings()
        assert hobchar.cli.run(["classes", "--group", "sym", "--n", "2"]) == 0
    after = bindings()

    rebound = {key for key, value in before.items() if during[key] is not value}
    for key in rebound:
        assert during[key].__wrapped__ is before[key]
    for key in [
        ("hobchar.chains", "hob_chain"),
        ("hobchar.cli", "cmd_classes"),
        ("hobchar.cli", "cmd_verify"),
        ("hobchar.embedding", "fusion_map"),
        ("hobchar.serialize", "render"),
    ]:
        assert key in rebound
    assert {s["name"] for s in tracer.spans} >= {
        "cli.run", "cli.classes", "serialize.render.pretty"
    }

    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert (serialize.TableCache.lookup, serialize.TableCache.store) == methods


def test_clear_caches_empties_traced_caches(monkeypatch):
    # inside the tracer the modules hold wrappers that forward cache_clear,
    # cache_info and __module__; clearing through them empties every cache
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.instrument(tracing.Tracer("t")):
        hobchar.method_b_verify(2)
        hobchar.verify_consistency(2)
        assert oracle.oracle_agreement(2).passed
        cached = {key: fn for key, fn in bindings().items() if hasattr(fn, "cache_info")}
        assert any(hasattr(fn, "__wrapped__") for fn in cached.values())
        assert any(fn.cache_info().currsize for fn in cached.values())
        hobchar.clear_caches()
        assert [key for key, fn in cached.items() if fn.cache_info().currsize] == []
