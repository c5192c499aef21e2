"""Layer spans for the traced run, recorded from outside the package.

Each layer's entry point is replaced, for the duration of a traced run, by a
wrapper installed under the name its caller imported it as (for example
``releff.simulate.moments_from_values``).  Spans nest on one stack, so a
layer's self time is its span's duration minus the spans it caused.  Only
per-layer totals are kept in memory; the traced run runs at --threads 1, so
every span is recorded in this process.

An entry point (or module) that a later version of the package no longer
has is skipped and listed in ``Tracer.missing``; its metrics then read 0.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict


def _one(args, result):
    return 1


def _rows(args, result):
    return len(result.p_hat)


# (module, attribute, span name, (counter, amount) or None).  A span name of
# None only counts calls; it is used for the chunk loop, whose time belongs
# to run_scenario's self time.
ENTRY_POINTS = [
    ("releff.cli", "build_table", "tables.build_table.self_s", None),
    ("releff.tables", "run_scenario", "simulate.run_scenario.self_s", None),
    ("releff.simulate", "_simulate_chunk", None, ("simulate.chunks", _one)),
    ("releff.simulate", "replication_stream", "rng.replication_stream.s",
     ("rng.replication_stream.calls", _one)),
    ("releff.simulate", "sample", "distributions.sample.s",
     ("distributions.sample.values", lambda a, r: len(r))),
    ("releff.simulate", "moments_from_values", "batch.moments_from_values.s",
     ("batch.moments_from_values.rows", _rows)),
    ("releff.simulate", "stat_arrays", "batch.stat_arrays.s", None),
    ("releff.simulate", "p_value_arrays", "batch.p_value_arrays.s", None),
    ("releff.simulate", "tally_draws", "permutation.tally.self_s", None),
    ("releff.permutation", "tally_draws", "permutation.tally.self_s", None),
    ("releff.permutation", "perm_uniforms", "rng.perm_uniforms.s",
     ("rng.perm_uniforms.doubles", lambda a, r: r.size)),
    ("releff.permutation", "_batch_permutations", "permutation.relabel.s",
     ("permutation.relabel.swaps", lambda a, r: r.shape[0] * (r.shape[1] - 1))),
    ("releff.permutation", "moments_from_perm", "batch.moments_from_perm.s",
     ("batch.moments_from_perm.rows", _rows)),
    ("releff.permutation", "run_test", "stat_tests.run_test.self_s", None),
    ("releff.stat_tests", "estimate_effect", "effect.estimate_effect.s",
     ("effect.estimate_effect.calls", _one)),
    ("releff.stat_tests", "var_wmw", "variance.s", None),
    ("releff.stat_tests", "var_unbiased", "variance.s", None),
    ("releff.stat_tests", "var_bm", "variance.s", None),
    ("releff.stat_tests", "var_pm", "variance.s", None),
    ("releff.stat_tests", "degrees_of_freedom", "dof.s", None),
]


def _module(name):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[float] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.self_s[name] += dt - self._stack.pop()
            if self._stack:
                self._stack[-1] += dt

    def _wrap(self, name, fn, count, rank_threshold):
        def wrapper(*args, **kwargs):
            span = name
            if name == "effect.estimate_effect.s":
                # the pairwise and rank paths differ by pooled size
                pooled = args[0].n1 + args[0].n2
                span += ".ranks" if pooled > rank_threshold else ".pairwise"
            if span is None:
                result = fn(*args, **kwargs)
            else:
                result = self.call(span, fn, *args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original names on exit."""
        threshold = getattr(_module("releff.effect"), "RANK_PATH_THRESHOLD", 2000)
        saved = []
        try:
            for module_name, attr, name, count in ENTRY_POINTS:
                module = _module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count, threshold))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
