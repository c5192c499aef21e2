"""Monte Carlo engine for type-I-error, power and mean-variance studies.

A scenario fixes the two generating distributions, the arm sizes, the test
battery and a master seed.  Replication r's data is row r of the uniform
matrix keyed by the master seed (`rng.uniforms`, n1 + n2 columns, arm 1
first), mapped through each arm's inverse CDF, so a chunk of replications
is drawn in one call.  When both arms are discrete and their sorted union
support has no more values than the pooled sample, a chunk keeps each
observation's index on that support (`distributions.index`) and never
builds its value: the support values are the tie runs, known before a
value is drawn, so `moments_from_codes` counts each arm's members per
support value where the values would be sorted into tie runs.  Counting
costs one pass per support value and sorting N log N per row, so a wider
support, or a pair with a continuous arm, is scored from its values; the
moments are the same bits either way.  The union support and each arm's
map onto it are found once per pair (`_support_codes`).  Values are
sampled in place over the chunk's uniform block and scored by
`moments_from_values`: a tie-free chunk from one in-place sort of integer
keys in buffers each thread reuses (`_batch._moments_from_keys`), so a warm
chunk faults in almost no fresh pages, and a chunk whose first rows already
repeat a value, as a pair with a discrete arm nearly always does, without
that sort, labelled by tie run (`_batch.tie_runs`) as a permutation chunk is.
The replications are processed in fixed-size chunks, reduced in chunk
order, so results are bit-identical for any number of worker processes.  A chunk holds 1024 replications, or as many as fit in
2**20 pooled values (at least one), so its memory stays near 42 MiB while
n1 + n2 < 2**20.  `run_scenarios` hands the chunks of many scenarios to
`_pool.map_tasks` in one call, which batches them across the process's one
worker pool: made at the first call that needs it, kept warm for later
calls and joined at exit.

Rejection uses p <= alpha.  An asymptotic chunk computes p-values only
where the decision is open: P(|T_df| >= x) >= P(|Z| >= x) for every df > 0
(Jensen's inequality, as the normal tail at x*sqrt(s) is convex in s), so a
row with |stat| below z* = -ndtri(alpha / 2) cannot reach p <= alpha under
either reference and is not scored (`_screen_bound`, which keeps a relative
margin of 1e-6 below z* against rounding).  A permutation p-value
min(1, 2c / n_perm), with c the smaller of a test's two tallies, only grows
with c, so a chunk turns alpha into one integer threshold c*
(`_reject_threshold`) and a test rejects exactly when c <= c*.  A
permutation chunk records the tie runs of all its replications (values or
support indices, which sort alike) with one batched `tie_runs` call, reads
its observed moments off that record (`moments_from_counts`), and tallies
all its replications in one `permutation.tally_streams` call with
settle_above=c*: each replication draws from its own seed's stream and
closes once no test's decision can change, and the open replications'
steps share blocks; a scenario with no tests draws none.  A replication of
few runs (`permutation._counts_drawn`: at most 16, at most n2 / 3, so five
levels from 15 arm-2 values) draws its per-run counts from their exact
law, and any other relabels its pooled sample.  A scenario with draws is
refused at 2**21 or more pooled values (`permutation.check_pooled_size`),
where a draw's int64 sums could overflow.  Mean variance
estimates accumulate the *raw* (unfloored) estimator values, matching the
way the reproduction tables report them; `variance_raw` keeps each on the
chunk's summary, so the statistics read the same computation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from ._batch import (BUFFER_VALUES, moments_from_codes, moments_from_counts, moments_from_values,
                     tie_runs)
from ._pool import map_tasks
from .distributions import (DistSpec, discrete_masses, index, is_continuous, parse_dist,
                            population_variance, sample)
from .dof import MIN_ARM_SIZE
from .errors import ConfigError, InvalidKind, SizeTooSmall, UnsupportedPair
from .permutation import check_pooled_size, tally_streams
from .rng import DEFAULT_SEED, data_key, rep_permutation_seed, uniforms
from .stat_tests import DEFAULT_BATTERY, TestKind, p_value_arrays, stat_arrays, statistics
from .variance import VarianceKind, variance_raw

__all__ = ["Scenario", "SimulationSummary", "run_scenario", "run_scenarios", "load_scenarios",
           "CHUNK_REPS"]

CHUNK_REPS = 1024
# pooled values per chunk, as many as the scorer's per-thread buffers keep:
# a chunk's traced peak is about 42 bytes per value, 42 MiB
_CHUNK_VALUES = BUFFER_VALUES

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
        if self.n_perm is not None:
            if self.n_perm < 1:
                raise ValueError("n_perm must be >= 1")
            check_pooled_size(self.n1 + self.n2)
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

    def add(self, other: "_Tally") -> None:
        self.rejections += other.rejections
        self.var_sums += other.var_sums
        self.sep += other.sep


def _chunk_uniforms(sc: Scenario, start: int, stop: int):
    u = uniforms(data_key(sc.master_seed), start, stop - start, sc.n1 + sc.n2)
    return u[:, : sc.n1], u[:, sc.n1 :]


def _draw_chunk(sc: Scenario, start: int, stop: int):
    """A chunk's two arms as values, each sampled in place over its slice of the uniform block."""
    u1, u2 = _chunk_uniforms(sc, start, stop)
    return sample(sc.dist1, u1, out=u1), sample(sc.dist2, u2, out=u2)


@lru_cache(maxsize=256)
def _support_codes(dist1: DistSpec, dist2: DistSpec):
    """A discrete pair's union support size and each arm's map onto that sorted support.

    None when either arm is continuous.  Computed once per pair (specs are
    frozen, hence hashable), so the maps are read-only.
    """
    if is_continuous(dist1) or is_continuous(dist2):
        return None
    v1, v2 = discrete_masses(dist1)[0], discrete_masses(dist2)[0]
    support = np.union1d(v1, v2)
    maps = np.searchsorted(support, v1), np.searchsorted(support, v2)
    for a in maps:
        a.flags.writeable = False
    return support.size, *maps


def _chunk_arms(sc: Scenario, start: int, stop: int):
    """A chunk's two arms, (reps, n1) and (reps, n2), and the size of their support or None.

    A discrete pair whose union support is no wider than the pooled sample
    has its arms as indices on that sorted support, which sort as the values
    do; any other pair's arms are values, and the size is None.
    """
    codes = _support_codes(sc.dist1, sc.dist2)
    if codes is not None and codes[0] <= sc.n1 + sc.n2:
        n_values, map1, map2 = codes
        u1, u2 = _chunk_uniforms(sc, start, stop)
        return map1[index(sc.dist1, u1)], map2[index(sc.dist2, u2)], n_values
    return *_draw_chunk(sc, start, stop), None


def _score_chunk(sc: Scenario, start: int, stop: int):
    """A chunk's moments, from its arms (`_chunk_arms`).

    Indices on a support are scored by counting members per support value,
    values by `moments_from_values`, which picks their route itself.
    """
    arm1, arm2, n_values = _chunk_arms(sc, start, stop)
    if n_values is not None:
        return moments_from_codes(arm1, arm2, n_values)
    return moments_from_values(arm1, arm2)


def _simulate_chunk(sc: Scenario, start: int, stop: int) -> _Tally:
    permuted = sc.n_perm is not None and bool(sc.tests)
    if permuted:
        # one labelling gives both the lanes their runs and the observed moments
        labels, sizes, a = tie_runs(*_chunk_arms(sc, start, stop)[:2])
        m = moments_from_counts(a, sizes, sc.n1, sc.n2)
    else:
        m = _score_chunk(sc, start, stop)
    tally = _Tally(
        rejections=np.zeros(len(sc.tests), dtype=np.int64),
        var_sums=np.array([variance_raw(m, k).sum() for k in _MEAN_VARIANCE_KINDS]),
        sep=int(np.count_nonzero(m.separated)),
    )
    if not permuted:
        z_lo = _screen_bound(sc.alpha)
        tally.rejections[:] = [_rejections(stat, df, sc.alpha, z_lo)
                               for stat, df in stat_arrays(m, sc.tests)]
        return tally
    # each replication's observed statistics are its column of the batch
    c_star = _reject_threshold(sc.n_perm, sc.alpha)
    seeds = [rep_permutation_seed(sc.master_seed, r) for r in range(start, stop)]
    n_le, n_ge = tally_streams(labels, sizes, sc.n1, sc.tests, np.array(statistics(m, sc.tests)),
                               seeds, 0, sc.n_perm, settle_above=c_star)
    tally.rejections += np.count_nonzero(np.minimum(n_le, n_ge) <= c_star, axis=1)
    return tally


def _screen_bound(alpha: float) -> float | None:
    """A |statistic| below which no reference gives p <= alpha, or None for no screen.

    The bound is z* = -ndtri(alpha / 2), less a relative 1e-6.  For every
    df > 0, P(|T_df| >= x) >= P(|Z| >= x), so a row with |stat| below it
    fails under the t reference as under the normal one.  The margin this
    leaves in p must dwarf the p-values' rounding (stdtr at df >= 1e16 falls
    up to 1.1e-16 below ndtr); it does not as alpha nears 1, or when
    alpha / 2 underflows to 0, and then every row is scored.
    """
    z_lo = -ndtri(alpha / 2) * (1 - 1e-6)
    if math.isfinite(z_lo) and 2 * ndtr(-z_lo) > alpha * (1 + 1e-12):
        return float(z_lo)
    return None


def _rejections(stat: np.ndarray, df, alpha: float, z_lo: float | None) -> int:
    """count_nonzero(p_value_arrays(stat, df) <= alpha), scoring only rows with |stat| >= z_lo."""
    if z_lo is not None:
        open_rows = np.abs(stat) >= z_lo
        stat = stat[open_rows]
        if df is not None:
            df = df[open_rows]
    return int(np.count_nonzero(p_value_arrays(stat, df) <= alpha))


def _reject_threshold(n_perm: int, alpha: float) -> int:
    """The largest tally c in 0..n_perm with min(1, 2c / n_perm) <= alpha.

    The expression only grows with c, so the tallies that reject are
    0..c*, and c = 0 always rejects for alpha > 0.  Found in constant time
    and memory: the guess floor(alpha * n_perm / 2) is stepped to the exact
    boundary of the float test 2.0 * c / n_perm <= alpha, which for
    alpha < 1 the cap at 1 never decides.
    """
    c = min(n_perm, math.floor(alpha * n_perm / 2))
    while c < n_perm and 2.0 * (c + 1) / n_perm <= alpha:
        c += 1
    while c > 0 and 2.0 * c / n_perm > alpha:
        c -= 1
    return c


def run_scenarios(scenarios: list[Scenario], threads: int = 1) -> list[SimulationSummary]:
    """Run every replication of every scenario; one summary per scenario.

    All chunks of all scenarios go through one `map_tasks` call.  `threads`
    (>= 1) only changes wall-clock time: chunk boundaries and the reduction
    order are fixed, so the summaries are identical for any value.  The pool
    never has more workers than chunks or CPUs.
    """
    # before any chunk is handed out, so a pool this call makes forks with
    # whatever scipy module the exact variance loads (`scipy.integrate` for an
    # unequal continuous pair) already imported
    true_vars = [_true_variance(sc) for sc in scenarios]
    tasks, owner = [], []
    for i, sc in enumerate(scenarios):
        chunks = _chunk_bounds(sc)
        tasks += [(sc, a, b) for a, b in chunks]
        owner += [i] * len(chunks)
    totals = [_Tally(np.zeros(len(sc.tests), dtype=np.int64), np.zeros(len(_MEAN_VARIANCE_KINDS)))
              for sc in scenarios]
    for i, part in zip(owner, map_tasks(_simulate_chunk, tasks, threads)):
        totals[i].add(part)
    return [_summary(sc, total, var) for sc, total, var in zip(scenarios, totals, true_vars)]


def _chunk_bounds(sc: Scenario) -> list[tuple[int, int]]:
    """(start, stop) of each chunk: CHUNK_REPS replications, fewer past 2**20 pooled values."""
    rows = min(CHUNK_REPS, max(1, _CHUNK_VALUES // (sc.n1 + sc.n2)))
    bounds = list(range(0, sc.n_reps, rows)) + [sc.n_reps]
    return list(zip(bounds[:-1], bounds[1:]))


def run_scenario(sc: Scenario, threads: int = 1) -> SimulationSummary:
    """Run every replication of one scenario; see `run_scenarios`."""
    return run_scenarios([sc], threads)[0]


def _true_variance(sc: Scenario) -> float | None:
    try:
        return population_variance(sc.dist1, sc.dist2, sc.n1, sc.n2)
    except UnsupportedPair:
        return None


def _summary(sc: Scenario, total: _Tally, true_var: float | None) -> SimulationSummary:
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


def _int_field(value, field: str) -> int:
    """A count or seed field: a JSON integer, never a float or a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"scenario field {field!r} must be an integer, got {value!r}")
    return value


def _alpha_field(value) -> float:
    """The alpha field: a JSON number, never a string or a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"scenario field 'alpha' must be a number, got {value!r}")
    return float(value)


# every field a scenario-file entry may hold
_SCENARIO_FIELDS = {"dist1", "dist2", "n1", "n2", "n_reps", "tests", "alpha", "n_perm", "seed"}


def scenario_from_dict(entry: dict, seed_override: int | None = None) -> Scenario:
    """Build a Scenario from one scenario-file entry; a field it does not read is an error."""
    if not isinstance(entry, dict):
        raise ConfigError(f"scenario entry must be an object, got {entry!r}")
    unknown = sorted(entry.keys() - _SCENARIO_FIELDS)
    if unknown:
        raise ConfigError(f"unknown scenario field {unknown[0]!r}")
    try:
        tests = entry.get("tests")
        if tests is not None and not isinstance(tests, list):
            raise ConfigError(f"scenario field 'tests' must be a list, got {tests!r}")
        kinds = DEFAULT_BATTERY if tests is None else tuple(TestKind.parse(t) for t in tests)
        seed = entry.get("seed", DEFAULT_SEED)
        if seed_override is not None:
            seed = seed_override
        n_perm = entry.get("n_perm")
        return Scenario(
            dist1=parse_dist(entry["dist1"]),
            dist2=parse_dist(entry["dist2"]),
            n1=_int_field(entry["n1"], "n1"),
            n2=_int_field(entry["n2"], "n2"),
            n_reps=_int_field(entry["n_reps"], "n_reps"),
            tests=kinds,
            alpha=_alpha_field(entry.get("alpha", 0.05)),
            n_perm=None if n_perm is None else _int_field(n_perm, "n_perm"),
            master_seed=_int_field(seed, "seed"),
        )
    except KeyError as exc:
        raise ConfigError(f"scenario entry is missing field {exc}") from exc
    except SizeTooSmall:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
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
