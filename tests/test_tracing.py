"""The benchmark's traced names must exist in the program, and tracing
must leave the program as it found it.

perfbench/tracing.py is loaded from the repository by path, as the
benchmark worker uses it; a name missing from the program would otherwise
show only as a crashed traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_function(name: str):
    """The program function a TRACED name refers to, or None."""
    mod_name, func_name = name.split(".")
    return getattr(importlib.import_module("ctctiming." + mod_name), func_name, None)


def test_every_traced_name_resolves(tracing):
    missing = [name for name in tracing.TRACED if not callable(traced_function(name))]
    assert not missing


def test_install_then_uninstall_restores_every_attribute(tracing):
    modules = [importlib.import_module(m) for m in tracing.MODULES]
    before = [dict(vars(module)) for module in modules]
    originals = {name: traced_function(name) for name in tracing.TRACED}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        unwrapped = [name for name in tracing.TRACED if traced_function(name) is originals[name]]
        assert not unwrapped
    finally:
        tracer.uninstall()
    for module, attrs in zip(modules, before):
        now = vars(module)
        assert set(now) == set(attrs), module.__name__
        changed = [attr for attr, value in attrs.items() if now[attr] is not value]
        assert not changed, (module.__name__, changed)
