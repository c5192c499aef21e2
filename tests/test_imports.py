"""Start-up cost: the heavy scipy modules load only where they are used.

Testing user data and simulating discrete pairs need numpy and
`scipy.special` alone; `scipy.integrate` and `scipy.optimize` load on first
use, and the Monte Carlo engine loads them before its pool forks so no
worker imports them.  No package path loads `scipy.stats`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from releff import DEFAULT_BATTERY, BetaLatent, Binomial, Normal, Scenario, run_scenarios
from releff import TestKind as TK
from releff import simulate

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.stats", "scipy.integrate", "scipy.optimize")

REPORT = f"print(json.dumps(sorted(m for m in {DEFERRED!r} if m in sys.modules)))"

USER_DATA_RUN = """
import json, sys
import numpy as np
import releff
from releff import DEFAULT_BATTERY, TwoSamples, permutation_test, run_test
from releff import TestKind
from releff.cli import main

rng = np.random.default_rng(4)
data = TwoSamples(rng.normal(size=15), rng.normal(1.0, 2.0, size=15))
for kind in DEFAULT_BATTERY:
    run_test(data, kind)
permutation_test(data, TestKind.parse("pm"), n_perm=500)
csv_path, out_path = sys.argv[1], sys.argv[2]
assert main(["test", csv_path, "--n-perm", "500", "--output", out_path]) == 0
"""

BINOMIAL_RUN = """
import json, sys
from releff import Binomial, Scenario, run_scenarios

run_scenarios([Scenario(Binomial(5, 0.6), Binomial(5, 0.43129), 7, 7, n_reps=50)])
"""


def loaded_after(code: str, *args: str) -> list[str]:
    """The deferred modules a fresh interpreter holds after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + "\n" + REPORT, *args],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_user_data_paths_load_no_deferred_scipy_module(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("group,value\n"
                        + "".join(f"1,{v}\n" for v in range(15))
                        + "".join(f"2,{v / 2 + 3}\n" for v in range(15)))
    # a module numpy and scipy.special load by themselves cannot be deferred
    baseline = set(loaded_after("import json, sys, numpy, scipy.special"))
    loaded = loaded_after(USER_DATA_RUN, str(csv_path), str(tmp_path / "out.csv"))
    assert (tmp_path / "out.csv").read_text().count("\n") == 1 + len(DEFAULT_BATTERY)
    assert set(loaded) <= baseline


def test_binomial_scenario_loads_no_scipy_stats():
    assert "scipy.stats" not in loaded_after(BINOMIAL_RUN)


def test_true_variances_come_before_the_pool(monkeypatch):
    population_variance, map_tasks = simulate.population_variance, simulate.map_tasks
    events = []

    def variance_spy(d1, d2, n1, n2):
        events.append(("variance", d1, d2))
        return population_variance(d1, d2, n1, n2)

    def map_spy(fn, tasks, threads):
        events.append(("map", len(tasks)))
        return map_tasks(fn, tasks, threads)

    monkeypatch.setattr(simulate, "population_variance", variance_spy)
    monkeypatch.setattr(simulate, "map_tasks", map_spy)
    pairs = [(Binomial(5, 0.6), Binomial(5, 0.6)), (Normal(0, 1), Normal(0, 3)),
             (BetaLatent(5, 4, 5), BetaLatent(5, 4, 5))]
    scenarios = [Scenario(d1, d2, 6, 7, n_reps=20, tests=(TK.parse("pm:df2"),), master_seed=2)
                 for d1, d2 in pairs]
    summaries = run_scenarios(scenarios)
    assert events == [("variance", d1, d2) for d1, d2 in pairs] + [("map", 3)]
    assert all(s.true_variance > 0 for s in summaries)
