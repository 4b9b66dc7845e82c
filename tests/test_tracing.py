"""The benchmark's traced names must exist in the program, and tracing
must leave the program as it found it.

perfbench/tracing.py is loaded from the repository by path, as the
benchmark worker uses it; a name missing from the program would otherwise
show only as a crashed traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ctctiming import ctc, dataio, metrics

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


def test_work_counters_read_the_call_arguments(tracing, tmp_path):
    """Each counted name, called once through an installed tracer, adds the
    work its counter promises: S*T lattice cells, n*m edit cells, file bytes."""
    log_probs = np.log(np.full((5, 4), 0.25))
    labels = ctc.LabelSequence((1, 2, 2))
    logits = tmp_path / "logits.jsonl"
    dataio.write_logits_jsonl(logits, [ctc.LogitMatrix("u1", np.zeros((3, 4)), 10.0)])
    calls = {
        "ctc.ctc_loss": (lambda: ctc.ctc_loss(log_probs, labels), 7 * 5),
        "ctc.forced_align": (lambda: ctc.forced_align(log_probs, labels), 7 * 5),
        "metrics.edit_align": (lambda: metrics.edit_align(["a", "b"], ["a", "c", "b"]), 2 * 3),
        "dataio.iter_logits_jsonl": (
            lambda: list(dataio.iter_logits_jsonl(logits)), logits.stat().st_size
        ),
    }
    assert set(calls) == {name for name, counter in tracing.TRACED.items() if counter}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for call, _ in calls.values():
            call()
    finally:
        tracer.uninstall()
    assert dict(tracer.work) == {name: work for name, (_, work) in calls.items()}
