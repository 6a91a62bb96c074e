"""``clear_caches`` must reach every memoized function of the package, or a
timing run that calls it first is not cold."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

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


def test_clear_caches_loads_no_module():
    # a fresh interpreter: ``import hobchar`` does not load the oracle, and
    # clearing the caches must not load it either.  Neither import, of the
    # package or of the CLI, fills a cache: a fresh import is the set-up
    # of every benchmark run, and a table built there would be timed in it
    code = textwrap.dedent(
        """\
        import sys

        def filled():
            return [
                f"{name}.{attr}"
                for name, module in list(sys.modules.items())
                if name.split(".")[0] == "hobchar"
                for attr, value in vars(module).items()
                if hasattr(value, "cache_info") and value.cache_info().currsize
            ]

        import hobchar
        print(filled())
        before = set(sys.modules)
        hobchar.clear_caches()
        print(sorted(set(sys.modules) - before), "hobchar.oracle" in sys.modules)
        import hobchar.cli
        print(filled())
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[] False\n[]\n"
