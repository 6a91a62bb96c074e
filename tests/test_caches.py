"""``clear_caches`` must reach every memoized function of the package, or a
timing run that calls it first is not cold."""

import importlib
import pkgutil

import hobchar


def cached_functions():
    out = []
    for info in pkgutil.iter_modules(hobchar.__path__, "hobchar."):
        module = importlib.import_module(info.name)
        for name, value in sorted(vars(module).items()):
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == info.name:
                out.append((f"{info.name}.{name}", value))
    return out


def test_clear_caches_empties_every_cache():
    functions = cached_functions()
    assert any(name == "hobchar.oracle.oracle_class_data" for name, _ in functions)
    # populate every cache through the public entry points
    hobchar.method_b_verify(2)
    hobchar.verify_consistency(2)
    from hobchar.oracle import oracle_agreement

    assert oracle_agreement(2).passed
    assert [name for name, fn in functions if fn.cache_info().currsize == 0] == []
    hobchar.clear_caches()
    assert [name for name, fn in functions if fn.cache_info().currsize != 0] == []
