"""Monte Carlo engine for type-I-error, power and mean-variance studies.

A scenario fixes the two generating distributions, the arm sizes, the test
battery and a master seed.  Replication r draws its data from a stream keyed
by (master_seed, r) and the replications are processed in fixed-size chunks,
reduced in chunk order, so results are bit-identical for any number of
worker processes.

Rejection uses p <= alpha.  Mean variance estimates accumulate the *raw*
(unfloored) estimator values, matching the way the reproduction tables
report them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._batch import moments_from_values
from ._pool import map_tasks
from .distributions import DistSpec, dist_label, parse_dist, population_variance, sample
from .dof import MIN_ARM_SIZE
from .errors import ConfigError, InvalidKind, SizeTooSmall, UnsupportedPair
from .permutation import PermContext, tally_draws
from .rng import DEFAULT_SEED, rep_permutation_seed, replication_stream
from .stat_tests import DEFAULT_BATTERY, TestKind, p_value_arrays, stat_arrays
from .variance import VarianceKind, variance_raw

__all__ = ["Scenario", "SimulationSummary", "run_scenario", "load_scenarios", "CHUNK_REPS"]

CHUNK_REPS = 1024

_MEAN_VARIANCE_KINDS = (VarianceKind.N, VarianceKind.WMW, VarianceKind.BM, VarianceKind.PM)


@dataclass(frozen=True)
class Scenario:
    dist1: DistSpec
    dist2: DistSpec
    n1: int
    n2: int
    n_reps: int
    tests: tuple[TestKind, ...] = DEFAULT_BATTERY
    alpha: float = 0.05
    n_perm: int | None = None
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "tests", tuple(self.tests))
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.n_perm is not None and self.n_perm < 1:
            raise ValueError("n_perm must be >= 1")
        if min(self.n1, self.n2) < 2:
            raise SizeTooSmall("scenarios need at least 2 observations per arm")
        for kind in self.tests:
            if kind.uses_t and min(self.n1, self.n2) < MIN_ARM_SIZE[kind.df_kind]:
                raise SizeTooSmall(
                    f"{kind.label()} needs {MIN_ARM_SIZE[kind.df_kind]} per arm"
                )
            if self.n_perm is not None and kind.family == "wmw":
                raise InvalidKind("permutation scenarios cannot include the wmw statistic")


@dataclass
class SimulationSummary:
    rejection_rate: dict[str, float]
    mean_variance: dict[str, float]
    true_variance: float | None
    separation_frequency: float
    mc_standard_error: float
    n_reps: int


@dataclass
class _Tally:
    rejections: np.ndarray
    var_sums: np.ndarray
    sep: int = 0
    n: int = 0

    def add(self, other: "_Tally") -> None:
        self.rejections += other.rejections
        self.var_sums += other.var_sums
        self.sep += other.sep
        self.n += other.n


def _draw_chunk(sc: Scenario, start: int, stop: int):
    x1 = np.empty((stop - start, sc.n1))
    x2 = np.empty((stop - start, sc.n2))
    for i, r in enumerate(range(start, stop)):
        g = replication_stream(sc.master_seed, r)
        x1[i] = sample(sc.dist1, sc.n1, g)
        x2[i] = sample(sc.dist2, sc.n2, g)
    return x1, x2


def _simulate_chunk(sc: Scenario, start: int, stop: int) -> _Tally:
    x1, x2 = _draw_chunk(sc, start, stop)
    m = moments_from_values(x1, x2)
    tally = _Tally(
        rejections=np.zeros(len(sc.tests), dtype=np.int64),
        var_sums=np.array([variance_raw(m, k).sum() for k in _MEAN_VARIANCE_KINDS]),
        sep=int(np.count_nonzero(m.separated)),
        n=stop - start,
    )
    scored = [stat_arrays(m, kind) for kind in sc.tests]
    if sc.n_perm is None:
        for idx, (stat, df) in enumerate(scored):
            p = p_value_arrays(stat, df)
            tally.rejections[idx] += int(np.count_nonzero(p <= sc.alpha))
        return tally
    # each replication's observed statistics are its row of the batch
    observed_all = np.array([stat for stat, _ in scored])
    for i, r in enumerate(range(start, stop)):
        ctx = PermContext.from_pooled(np.concatenate([x1[i], x2[i]]), sc.n1)
        observed = observed_all[:, i]
        seed_r = rep_permutation_seed(sc.master_seed, r)
        n_le, n_ge = tally_draws(ctx, sc.tests, observed, seed_r, 0, sc.n_perm)
        p = np.minimum(1.0, 2.0 * np.minimum(n_le, n_ge) / sc.n_perm)
        tally.rejections += (p <= sc.alpha).astype(np.int64)
    return tally


def _chunk_worker(args) -> _Tally:
    return _simulate_chunk(*args)


def run_scenario(sc: Scenario, threads: int = 1) -> SimulationSummary:
    """Run every replication of a scenario and aggregate the tallies.

    `threads` (>= 1) only changes wall-clock time: chunk boundaries and the
    reduction order are fixed, so the summary is identical for any value.
    The pool never has more workers than chunks or CPUs.
    """
    bounds = list(range(0, sc.n_reps, CHUNK_REPS)) + [sc.n_reps]
    tasks = [(sc, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    total = _Tally(
        rejections=np.zeros(len(sc.tests), dtype=np.int64),
        var_sums=np.zeros(len(_MEAN_VARIANCE_KINDS)),
    )
    for part in map_tasks(_chunk_worker, tasks, threads):
        total.add(part)
    try:
        true_var = population_variance(sc.dist1, sc.dist2, sc.n1, sc.n2)
    except UnsupportedPair:
        true_var = None
    return SimulationSummary(
        rejection_rate={
            kind.label(): float(total.rejections[i]) / sc.n_reps
            for i, kind in enumerate(sc.tests)
        },
        mean_variance={
            k.value: float(total.var_sums[i]) / sc.n_reps
            for i, k in enumerate(_MEAN_VARIANCE_KINDS)
        },
        true_variance=true_var,
        separation_frequency=total.sep / sc.n_reps,
        mc_standard_error=float(np.sqrt(sc.alpha * (1.0 - sc.alpha) / sc.n_reps)),
        n_reps=sc.n_reps,
    )


def scenario_from_dict(entry: dict, seed_override: int | None = None) -> Scenario:
    """Build a Scenario from one scenario-file entry."""
    try:
        tests = entry.get("tests")
        kinds = (
            DEFAULT_BATTERY
            if tests is None
            else tuple(TestKind.parse(t) for t in tests)
        )
        seed = entry.get("seed", DEFAULT_SEED)
        if seed_override is not None:
            seed = seed_override
        return Scenario(
            dist1=parse_dist(entry["dist1"]),
            dist2=parse_dist(entry["dist2"]),
            n1=int(entry["n1"]),
            n2=int(entry["n2"]),
            n_reps=int(entry["n_reps"]),
            tests=kinds,
            alpha=float(entry.get("alpha", 0.05)),
            n_perm=None if entry.get("n_perm") is None else int(entry["n_perm"]),
            master_seed=int(seed),
        )
    except KeyError as exc:
        raise ConfigError(f"scenario entry is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario entry: {exc}") from exc


def load_scenarios(path: str | Path, seed_override: int | None = None) -> list[Scenario]:
    """Read a JSON scenario file: a list of entries or {"scenarios": [...]}."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    entries = payload.get("scenarios") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise ConfigError("scenario file must contain a non-empty list of scenarios")
    return [scenario_from_dict(e, seed_override) for e in entries]


def scenario_row_meta(sc: Scenario) -> dict:
    return {
        "n1": sc.n1,
        "n2": sc.n2,
        "dist1": dist_label(sc.dist1),
        "dist2": dist_label(sc.dist2),
        "n_reps": sc.n_reps,
        "seed": sc.master_seed,
    }
