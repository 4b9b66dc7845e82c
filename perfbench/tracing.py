"""Spans around calls into the program's public functions.

A `Tracer` replaces a function in every `ctctiming` module namespace that
holds it, so calls are caught where the caller looks the name up (for
example `synth.ctc_grad`, `ctc.ctc_loss` or `cli.forced_align`). Nothing in
the program changes. Each span records its name, start, end and parent span;
spans stay in memory until `dump` writes them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("ctctiming", "ctctiming.ctc", "ctctiming.boundary", "ctctiming.metrics",
           "ctctiming.pfr", "ctctiming.dataio", "ctctiming.synth", "ctctiming.cli")


def lattice_cells(log_probs, labels, *_, **__):
    """S * T of one CTC lattice, S = 2U + 1 states over T frames."""
    return len(log_probs) * (2 * len(labels) + 1)


def edit_cells(hyp_words, ref_words, *_, **__):
    """n * m of one word edit-distance table."""
    return len(hyp_words) * len(ref_words)


def file_bytes(path, *_, **__):
    return os.path.getsize(path)


# "<module>.<function>": work counter computed from the call's arguments
TRACED = {
    "ctc.ctc_loss": lattice_cells,
    "ctc.ctc_grad": None,
    "ctc.prior_ctc_grad": None,
    "ctc.apply_label_prior": None,
    "ctc.log_softmax_rows": None,
    "ctc.forced_align": lattice_cells,
    "ctc.token_spans": None,
    "synth.model_forward": None,
    "synth.model_backward": None,
    "synth.cetc_targets": None,
    "synth.predict_timings": None,
    "synth.corpus_blank_occupancy": None,
    "pfr.pfr_loss_grad": None,
    "boundary.guided_ce_grad": None,
    "boundary.words_from_spans": None,
    "boundary.gridsearch_offset": None,
    "metrics.edit_align": edit_cells,
    "metrics.timing_metrics": None,
    "dataio.iter_logits_jsonl": file_bytes,
    "dataio.read_timings_jsonl": None,
    "cli.cmd_align": None,
    "cli.cmd_metrics": None,
    "cli.cmd_gridsearch": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # a generator runs only inside next(); one span per resumption
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if counter is not None:
                    tracer.work[name] += counter(*args, **kwargs)
                it = fn(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.work[name] += counter(*args, **kwargs)
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, counter in TRACED.items():
            mod_name, func_name = name.split(".")
            fn = getattr(importlib.import_module("ctctiming." + mod_name), func_name)
            wrapper = self._wrap(name, fn, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def mark(self) -> int:
        """Span index to pass to `self_times` for the spans opened after now."""
        return len(self.spans)

    def self_times(self, since: int = 0) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (span minus its direct children) and span count."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child = defaultdict(float)
        for name, start, end, parent in self.spans[since:]:
            if parent >= since:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans[since:], start=since):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "work": self.work}, handle)
