"""The benchmark's tracer (perfbench/spans.py) wraps library functions and
methods by name. A rename in the library must fail here, not only in a
traced benchmark run."""
import importlib
import sys
from pathlib import Path

import wienercub

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))

from spans import CALLBACKS, METHOD_SPANS, MODULES, Tracer  # noqa: E402


def _hooked_attributes():
    """Every attribute the tracer may replace: the package's and its modules'
    globals and the traced classes' methods, by identity."""
    modules = {m: importlib.import_module(f"wienercub.{m}") for m in MODULES}
    owners = [wienercub, *modules.values()]
    owners += [getattr(modules[m], c) for m, c, *_ in METHOD_SPANS + CALLBACKS]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_installs_on_the_library_and_uninstalls_cleanly():
    before = _hooked_attributes()
    original = wienercub.klv_full
    tracer = Tracer()
    try:
        tracer.install(wienercub)
        assert wienercub.klv_full is not original
        assert wienercub.klv_full.__wrapped__ is original
    finally:
        tracer.uninstall()
    after = _hooked_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
