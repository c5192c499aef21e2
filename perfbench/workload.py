"""One workload of a benchmark run, in a fresh interpreter.

    python3 perfbench/workload.py --workload tiefree|tied --seed N \
        --budget SECONDS --threads T --trace 0|1

run.py starts this child with PYTHONPATH pointing at the checkout's src/.
It prints one JSON line: operations attempted and failed, per-operation
wall times, the work in one table build, its peak RSS and, with --trace 1,
the per-layer totals.

Seven kinds of operation, from one caller in a closed loop:

* ``mc``   -- ``releff tables t1|t2`` through ``releff.cli.main`` at MC_SCALE
  and --threads T;
* ``perm`` -- ``releff tables perm1|perm2`` at PERM_SCALE, n_perm 10_000,
  --threads 1;
* ``battery_ms.*`` and ``perm_test_ms.*`` -- ``run_test`` over
  DEFAULT_BATTERY and ``permutation_test(pm)`` on datasets generated here.

Without tracing, the next operation is always the kind furthest below its
share of the time spent so far.  The kinds are interleaved across the
whole budget that way, so a slow spell of the machine hits every metric
alike instead of the one that happened to be running.

With --trace 1 each kind runs a fixed plan.  Every operation runs first
untraced and then with the layer wrappers installed, on the same inputs;
the two walls give the tracing overhead.  The mc table also runs at
--threads T, and its CSV bytes must equal those of both --threads 1 runs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
import traceback
from collections import defaultdict

import numpy as np

from releff import DEFAULT_BATTERY, TestKind, TwoSamples, cli, permutation_test, run_test

from checks import (
    TABLE_LAYOUT,
    CheckFailed,
    check_permutation,
    check_result,
    check_table,
    expected_reps,
    oracle,
    p_hat_sorted,
)
from layers import Tracer

WORKLOADS = {
    "tiefree": {"mc": "t1", "perm": "perm1", "data": "continuous"},
    "tied": {"mc": "t2", "perm": "perm2", "data": "levels5"},
}

# 2000 replications per row: two 1024-replication chunks, so --threads 2
# crosses the process pool on every row.
MC_SCALE = 0.02
# 2 replications per row, each with 10_000 permutation draws.
PERM_SCALE = 0.0002
N_PERM = 10_000
WARMUP_SCALE = 1e-5  # one replication per row

LEVEL_PROBS = [0.1, 0.2, 0.4, 0.2, 0.1]
ORACLE_MAX_N = 1000
PM = TestKind.parse("pm")

# (metric stem, operation, n per arm, datasets, share of the budget,
#  minimum operations, operations in the traced plan)
USER_CASES = [
    ("battery_ms.n15", "battery", 15, 64, 0.08, 2000, 300),
    ("battery_ms.n1k", "battery", 1_000, 8, 0.06, 5, 5),
    ("battery_ms.n100k", "battery", 100_000, 3, 0.14, 3, 1),
    ("perm_test_ms.n15", "perm", 15, 16, 0.04, 5, 5),
    ("perm_test_ms.n200", "perm", 200, 3, 0.08, 3, 1),
]
TABLE_SHARE = {"mc": 0.40, "perm": 0.20}


def op_seed(seed: int, i: int) -> int:
    return (seed % 2**32) * 1000 + i


class Ledger:
    """Operations attempted and failed, and the wall time of each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples = defaultdict(list)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {''.join(traceback.format_exception_only(exc)).strip()}")

    def attempt(self, key, call, check):
        """Time call(); then check(result).  Returns (result or None, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            dt = time.perf_counter() - t0
            self.samples[key].append(dt)
            self.fail(key, exc)
            return None, dt
        dt = time.perf_counter() - t0
        self.samples[key].append(dt)
        try:
            check(out)
        except Exception as exc:  # includes CheckFailed and unparsable output
            self.fail(key, exc)
            return None, dt
        return out, dt


def spanned(tracer, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"releff {' '.join(argv)} exited with {code}")
    return buf.getvalue()


class TableOp:
    """One table build through the CLI."""

    def __init__(self, stem, table_id, scale, threads, work_per_rep, seed, share):
        self.stem, self.table_id, self.scale, self.threads = stem, table_id, scale, threads
        self.share, self.min_ops, self.seed = share, 1, seed
        self.work = TABLE_LAYOUT[table_id][0] * expected_reps(table_id, scale) * work_per_rep

    def run(self, ledger, key, i, tracer=None, threads=None, scale=None):
        scale = scale or self.scale
        argv = ["tables", self.table_id, "--scale", repr(scale), "--seed", str(op_seed(self.seed, i)),
                "--threads", str(threads or self.threads)]
        if self.table_id.startswith("perm"):
            argv += ["--n-perm", str(N_PERM)]
        return ledger.attempt(key, lambda: spanned(tracer, "cli.self_s", run_cli, argv),
                              lambda out: check_table(out, self.table_id, scale))


def make_data(kind: str, n: int, rng: np.random.Generator):
    if kind == "continuous":
        return rng.standard_normal(n), rng.standard_normal(n)
    return (rng.choice(5, size=n, p=LEVEL_PROBS) + 1.0, rng.choice(5, size=n, p=LEVEL_PROBS) + 1.0)


class UserCase:
    """run_test over the battery, or permutation_test, on one dataset size."""

    def __init__(self, stem, op, n, n_data, share, min_ops, kind, seed):
        self.stem, self.op, self.n, self.share, self.min_ops = stem, op, n, share, min_ops
        rng = np.random.default_rng([seed % 2**32, n, 0 if kind == "continuous" else 1])
        self.arms = [make_data(kind, n, rng) for _ in range(n_data)]
        self.data = [TwoSamples(x1, x2) for x1, x2 in self.arms]
        self.expected = [None] * n_data
        self.seed = seed

    def _expected(self, j):
        if self.expected[j] is None:
            x1, x2 = self.arms[j]
            self.expected[j] = (p_hat_sorted(x1, x2), oracle(x1, x2) if self.n <= ORACLE_MAX_N else None)
        return self.expected[j]

    def run(self, ledger, key, i, tracer=None):
        j = i % len(self.data)
        data = self.data[j]
        if self.op == "battery":
            def call():
                return [spanned(tracer, "stat_tests.run_test.self_s", run_test, data, k)
                        for k in DEFAULT_BATTERY]

            def check(results):
                p_hat, expected = self._expected(j)
                for k, r in zip(DEFAULT_BATTERY, results):
                    check_result(k.label(), r.statistic, r.df, r.p_value, r.effect.p_hat, p_hat, expected)
        else:
            seed = op_seed(self.seed, j)

            def call():
                return spanned(tracer, "permutation.permutation_test.self_s", permutation_test,
                               data, PM, n_perm=N_PERM, seed=seed)

            def check(res):
                if res.n_perm != N_PERM:
                    raise CheckFailed(f"permutation: n_perm {res.n_perm}")
                check_permutation(res.p1, res.p2, res.p_value, res.observed.statistic)
        return ledger.attempt(key, call, check)


def measure(ledger, kinds, budget) -> None:
    """Run the kind furthest below its share until the budget is spent."""
    spent = {k.stem: 0.0 for k in kinds}
    count = {k.stem: 0 for k in kinds}
    start = time.perf_counter()
    while True:
        pending = [k for k in kinds if count[k.stem] < k.min_ops]
        over = time.perf_counter() - start >= budget
        if over and not pending:
            return
        kind = min(pending if over else kinds, key=lambda k: spent[k.stem] / k.share)
        spent[kind.stem] += kind.run(ledger, kind.stem, count[kind.stem])[1]
        count[kind.stem] += 1


def trace_plan(ledger, tracer, mc, perm, cases, threads) -> dict:
    """Each operation untraced, then traced on the same inputs."""
    walls = {"untraced": 0.0, "traced": 0.0}
    tables = defaultdict(set)  # table id -> distinct CSV outputs
    battery_calls = batteries = 0
    if threads > 1:
        text, wall_threads = mc.run(ledger, "pool", 0)
        tables[mc.table_id].add(text)
    plans = [(mc, 1, {"threads": 1}), (perm, 1, {})]
    plans += [(case, spec[-1], {}) for case, spec in zip(cases, USER_CASES)]
    for kind, plan, opts in plans:
        for i in range(plan):
            out, untraced = kind.run(ledger, "untraced", i, **opts)
            calls = tracer.counts["effect.estimate_effect.calls"]
            with tracer.installed():
                traced_out, traced = kind.run(ledger, "traced", i, tracer, **opts)
            walls["untraced"] += untraced
            walls["traced"] += traced
            if kind is mc:
                wall_mc = untraced
            if isinstance(kind, TableOp):
                tables[kind.table_id] |= {out, traced_out}
            elif kind.op == "battery":
                battery_calls += tracer.counts["effect.estimate_effect.calls"] - calls
                batteries += 1

    def same_bytes(_):
        for table_id, texts in tables.items():
            if len(texts) != 1:
                raise CheckFailed(f"{table_id}: CSV differs across --threads or tracing")

    ledger.attempt("bytes", lambda: None, same_bytes)
    return {
        "wall_untraced": walls["untraced"],
        "wall_traced": walls["traced"],
        "pool_speedup": wall_mc / wall_threads if threads > 1 else 1.0,
        "calls_per_battery": battery_calls / batteries,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    ledger, tracer = Ledger(), Tracer()
    mc = TableOp("mc", w["mc"], MC_SCALE, args.threads, 1, args.seed, TABLE_SHARE["mc"])
    perm = TableOp("perm", w["perm"], PERM_SCALE, 1, N_PERM, args.seed, TABLE_SHARE["perm"])
    cases = [UserCase(*spec[:6], w["data"], args.seed) for spec in USER_CASES]
    # lazy set-up (first calls, population variances) is not timed
    mc.run(ledger, "warmup", 999, scale=WARMUP_SCALE)
    perm.run(ledger, "warmup", 999, scale=WARMUP_SCALE)
    for case in cases:
        case.run(ledger, "warmup", 0)
    extra = {}
    if args.trace:
        extra = trace_plan(ledger, tracer, mc, perm, cases, args.threads)
    else:
        measure(ledger, [mc, perm, *cases], args.budget)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "samples": {k: v for k, v in ledger.samples.items() if k != "warmup"},
        "work_per_build": {"mc": mc.work, "perm": perm.work},
        "peak_rss_mb": peak_kb / 1024.0,
        "extra": extra,
        "self_s": tracer.self_s,
        "counts": tracer.counts,
        "missing": sorted(tracer.missing),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
