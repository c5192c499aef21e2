"""releff benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload tiefree|tied --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory (nothing is installed).  With --trace 0 the last line of
standard output is a JSON object with every end-to-end metric; with
--trace 1 it holds every per-layer metric.  Lines before it are a readable
report: the run manifest, each timing's median, its highest percentile with
at least ten samples beyond it and its sample count, the error rate and,
with --trace 1, the traced-run table.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("tiefree", "tied")
SETUP_RUNS = 5
DEADLINE_S = 170.0

# Time from interpreter start until `import releff` returns, read from the
# monotonic clock, which is shared by every process on the machine.
SETUP_CODE = """\
import time
import releff
t = time.monotonic()
import json, platform, numpy, scipy
print(json.dumps({"t": t, "file": releff.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""

# Per-layer metrics read from the tracer: self times ("s") and counts.
LAYER_METRICS = [
    ("rng.replication_stream.s", "s"), ("rng.replication_stream.calls", "count"),
    ("distributions.sample.s", "s"), ("distributions.sample.values", "count"),
    ("batch.moments_from_values.s", "s"), ("batch.moments_from_values.rows", "count"),
    ("batch.stat_arrays.s", "s"), ("batch.p_value_arrays.s", "s"),
    ("simulate.run_scenario.self_s", "s"), ("simulate.chunks", "count"),
    ("rng.perm_uniforms.s", "s"), ("rng.perm_uniforms.doubles", "count"),
    ("permutation.relabel.s", "s"), ("permutation.relabel.swaps", "count"),
    ("batch.moments_from_perm.s", "s"), ("batch.moments_from_perm.rows", "count"),
    ("permutation.tally.self_s", "s"), ("permutation.permutation_test.self_s", "s"),
    ("effect.estimate_effect.s.pairwise", "s"), ("effect.estimate_effect.s.ranks", "s"),
    ("variance.s", "s"), ("dof.s", "s"), ("stat_tests.run_test.self_s", "s"),
    ("tables.build_table.self_s", "s"), ("cli.self_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Children:
    """Starts child interpreters against the checkout and stops them all."""

    def __init__(self):
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str]) -> str:
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError("out of time before starting a child")
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child timed out: {' '.join(argv[1:3])}") from None
        finally:
            # pool workers of a child share its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise BenchError(f"child failed ({proc.returncode}): {' '.join(argv[1:4])}\n{err[-2000:]}")
        return out.strip().splitlines()[-1]

    def setup_sample(self) -> tuple[float, dict]:
        t0 = time.monotonic()
        info = json.loads(self.run([sys.executable, "-c", SETUP_CODE]))
        if Path(info["file"]).resolve().parent != SRC / "releff":
            raise BenchError(f"imported releff from {info['file']}, not from {SRC}")
        return info["t"] - t0, info

    def workload(self, workload, seed, seconds, threads, trace) -> dict:
        line = self.run([sys.executable, str(HERE / "workload.py"), "--workload", workload,
                         "--seed", str(seed), "--budget", repr(seconds), "--threads", str(threads),
                         "--trace", str(trace)])
        return json.loads(line)


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def describe(values: list[float]) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} n={n}"
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - q / 100) >= 10:
            return text + f" p{q:g} {percentile(values, q):.6g}"
    return text + " (fewer than 20 samples: no tail percentile)"


def manifest(args, threads, info) -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "releff").rglob("*.py")))
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": threads, "python": info["python"], "numpy": info["numpy"],
        "scipy": info["scipy"], "git_sha": sha, "src_releff_lines": lines,
    }


def end_to_end(setup: list[float], result: dict, report: list[str]) -> dict:
    samples = result["samples"]
    report.append(f"setup_s: {describe(setup)}")
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name, key, unit in (("mc_reps_per_s", "mc", "reps/s"), ("perm_draws_per_s", "perm", "draws/s")):
        metrics[name] = (result["work_per_build"][key] / statistics.median(samples[key]), unit)
        report.append(f"{name}: per-build seconds {describe(samples[key])}")
    for stem, values in samples.items():
        if stem in ("mc", "perm"):
            continue
        ms = [1000.0 * s for s in values]
        report.append(f"{stem}: ms {describe(ms)}")
        metrics[f"{stem}.p50"] = (statistics.median(ms), "ms")
    n15 = [1000.0 * s for s in samples["battery_ms.n15"]]
    metrics["battery_ms.n15.p99"] = (percentile(n15, 99.0), "ms")
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    return metrics


def per_layer(result: dict, report: list[str]) -> dict:
    self_s, counts, extra = result["self_s"], result["counts"], result["extra"]
    traced, untraced = extra["wall_traced"], extra["wall_untraced"]
    metrics = {}
    for name, unit in LAYER_METRICS:
        metrics[name] = (self_s.get(name, 0.0), unit) if unit == "s" else (counts.get(name, 0), unit)
    metrics["simulate.pool_speedup"] = (extra["pool_speedup"], "ratio")
    metrics["effect.estimate_effect.calls_per_battery"] = (extra["calls_per_battery"], "count")
    coverage = sum(self_s.values()) / traced
    metrics["trace.coverage"] = (coverage, "ratio")
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    report.append(f"traced wall {traced:.4f} s, untraced wall {untraced:.4f} s on the same inputs")
    for name, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
        report.append(f"  {name:40s} {v:10.4f} s  {100.0 * v / traced:6.2f}% of traced wall")
    report.append(f"layers cover {100.0 * coverage:.2f}% of the traced wall; "
                  f"tracing overhead x{traced / untraced:.4f}")
    if result["missing"]:
        report.append(f"entry points not found (their metrics read 0): {', '.join(result['missing'])}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "releff" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'releff'}", file=sys.stderr)
        return 2
    # never more workers than usable cores, and at most 2
    threads = min(2, len(os.sched_getaffinity(0)), os.cpu_count() or 1)
    children = Children()
    try:
        _, info = children.setup_sample()  # also fills the bytecode cache
        setup = [] if args.trace else [children.setup_sample()[0] for _ in range(SETUP_RUNS)]
        result = children.workload(args.workload, args.seed, args.seconds, threads, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = [f"manifest {json.dumps(manifest(args, threads, info))}"]
    metrics = per_layer(result, report) if args.trace else end_to_end(setup, result, report)
    attempted, failed = result["attempted"], result["failed"]
    report.append(f"error_rate: {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    report += [f"failure: {e}" for e in result["errors"]]
    for line in report:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
