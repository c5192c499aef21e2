"""Command-line front end.

Three subcommands:

* ``releff test data.csv``      -- run the test battery on a two-group CSV
  (columns ``group`` in {1,2} and ``value``);
* ``releff simulate file.cfg``  -- run the scenarios of a JSON scenario file
  and emit one CSV row per scenario and test;
* ``releff tables t1``          -- reproduce a published table layout at a
  chosen scale.

Exit codes: 0 success, 2 malformed input (CSV/scenario file/table id),
3 samples too small for the requested estimators.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import os
import sys

from .distributions import dist_label
from .dof import DfKind
from .errors import ConfigError, SizeTooSmall
from .permutation import permutation_tests
from .ranks import TwoSamples
from .rng import DEFAULT_SEED
from .simulate import load_scenarios, run_scenarios
from .stat_tests import DEFAULT_BATTERY, T_FAMILIES, TestKind, run_test
from .tables import TABLE_IDS, build_table

__all__ = ["main"]


def _emit(header: list[str], rows: list[list[str]], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|"]
        lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_output(out_path: str) -> None:
    """Refuse an --output whose directory is missing or not writable, before any work."""
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--output {out_path}: {parent} is not an existing directory")
    if os.path.isdir(out_path):
        raise ConfigError(f"--output {out_path} is a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ConfigError(f"--output {out_path}: directory {parent} is not writable")


def _parse_test_list(spec: str, default_df: str) -> tuple[TestKind, ...]:
    kinds = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            kind = TestKind(token, default_df) if token in T_FAMILIES else TestKind.parse(token)
            kinds.append(kind)
        except ValueError as exc:
            raise ConfigError(f"bad test label {token!r}: {exc}") from None
    if not kinds:
        raise ConfigError("empty test list")
    return tuple(kinds)


def _read_two_group_csv(path: str) -> TwoSamples:
    groups: dict[int, list[float]] = {1: [], 2: []}
    try:
        # utf-8-sig also reads the byte-order mark that Excel and many editors write
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        cols = [c.strip().lower() for c in header]
        if "group" not in cols or "value" not in cols:
            raise ConfigError(f"{path} line 1: need columns 'group' and 'value'")
        gi, vi = cols.index("group"), cols.index("value")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= max(gi, vi):
                raise ConfigError(f"{path} line {lineno}: too few fields")
            g_raw, v_raw = row[gi].strip(), row[vi].strip()
            if g_raw not in ("1", "2"):
                raise ConfigError(f"{path} line {lineno}: group must be 1 or 2, got {g_raw!r}")
            try:
                value = float(v_raw)
            except ValueError:
                raise ConfigError(
                    f"{path} line {lineno}: value is not a number: {v_raw!r}"
                ) from None
            if not math.isfinite(value):
                raise ConfigError(f"{path} line {lineno}: value must be finite, got {v_raw!r}")
            groups[int(g_raw)].append(value)
    if min(len(groups[1]), len(groups[2])) < 2:
        raise SizeTooSmall(
            f"need at least 2 rows per group, got ({len(groups[1])}, {len(groups[2])})"
        )
    return TwoSamples(groups[1], groups[2])


def _cmd_test(args) -> int:
    data = _read_two_group_csv(args.data)
    kinds = _parse_test_list(args.tests, args.df)
    header = ["test", "statistic", "df", "p_value", "degenerate"]
    if args.n_perm:
        # before the rows, which then read the moments off the tie runs it records, so the
        # data is sorted once; one pass over the draws tallies every non-wmw kind
        tallied = [kind for kind in kinds if kind.family != "wmw"]
        perms = dict(zip(tallied, permutation_tests(data, tallied, n_perm=args.n_perm,
                                                    seed=args.seed, threads=args.threads)))
    results = [run_test(data, kind, alternative=args.alternative) for kind in kinds]
    rows = [
        [
            kind.label(),
            format(res.statistic, ".12g"),
            "" if res.df is None else format(res.df, ".12g"),
            format(res.p_value, ".12g"),
            res.degenerate.value,
        ]
        for kind, res in zip(kinds, results)
    ]
    if args.n_perm:
        header.append("perm_p_value")
        tail = {"two-sided": "p_value", "greater": "p2", "less": "p1"}[args.alternative]
        for kind, row in zip(kinds, rows):
            row.append(format(getattr(perms[kind], tail), ".12g") if kind in perms else "")
    _emit(header, rows, args.format, args.output)
    return 0


def _cmd_simulate(args) -> int:
    scenarios = load_scenarios(args.config, seed_override=args.seed)
    header = ["n1", "n2", "dist1", "dist2", "test", "df_kind",
              "rejection_rate", "mc_se", "n_reps", "seed"]
    if args.alpha is not None:
        scenarios = [dataclasses.replace(sc, alpha=args.alpha) for sc in scenarios]
    rows = []
    for sc, summary in zip(scenarios, run_scenarios(scenarios, threads=args.threads)):
        for kind in sc.tests:
            rows.append([
                str(sc.n1), str(sc.n2), dist_label(sc.dist1), dist_label(sc.dist2),
                kind.family,
                kind.df_kind.value if kind.df_kind is not None else "",
                f"{summary.rejection_rate[kind.label()]:.5f}",
                f"{summary.mc_standard_error:.6f}",
                str(sc.n_reps), str(sc.master_seed),
            ])
    _emit(header, rows, args.format, args.output)
    return 0


def _cmd_tables(args) -> int:
    header, rows = build_table(
        args.table, scale=args.scale, seed=args.seed, n_perm=args.n_perm, threads=args.threads
    )
    _emit(header, rows, args.format, args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="releff",
        description="Relative-effect tests, variance estimators and the reproduction harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run tests on a two-group CSV (columns group,value)")
    p_test.add_argument("data", help="CSV file with columns group (1/2) and value")
    p_test.add_argument("--tests", default=",".join(k.label() for k in DEFAULT_BATTERY),
                        help="comma list, e.g. wmw,pm:df2,bm_logit")
    p_test.add_argument("--df", default="df2", choices=[d.value for d in DfKind],
                        help="degrees of freedom for t-kinds given without one")
    p_test.add_argument("--alternative", default="two-sided",
                        choices=["two-sided", "greater", "less"])
    p_test.add_argument("--n-perm", type=int, default=None,
                        help="also report studentized-permutation p-values "
                             "(non-WMW kinds, same tail as --alternative) "
                             "from this many draws")
    p_test.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_test.add_argument("--threads", type=int, default=1)
    p_test.add_argument("--format", default="csv", choices=["csv", "markdown"])
    p_test.add_argument("--output", default=None)

    p_sim = sub.add_parser("simulate", help="run the scenarios of a JSON scenario file")
    p_sim.add_argument("config", help="scenario file (JSON)")
    p_sim.add_argument("--seed", type=int, default=None, help="override every scenario seed")
    p_sim.add_argument("--alpha", type=float, default=None, help="override the nominal level")
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--format", default="csv", choices=["csv", "markdown"])
    p_sim.add_argument("--output", default=None)

    p_tab = sub.add_parser("tables", help="reproduce a published table layout")
    p_tab.add_argument("table", help=f"one of: {', '.join(TABLE_IDS)}")
    p_tab.add_argument("--scale", type=float, default=1.0,
                       help="replication-count multiplier in (0, 1]")
    p_tab.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_tab.add_argument("--n-perm", type=int, default=None,
                       help="override the per-replication permutation count "
                            "(t1, t2 and app_var draw no permutations and ignore it)")
    p_tab.add_argument("--threads", type=int, default=1)
    p_tab.add_argument("--format", default="csv", choices=["csv", "markdown"])
    p_tab.add_argument("--output", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if getattr(args, "n_perm", None) is not None and args.n_perm < 1:
            raise ConfigError(f"--n-perm must be >= 1, got {args.n_perm}")
        if getattr(args, "alpha", None) is not None and not 0.0 < args.alpha < 1.0:
            raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
        if args.output:
            _check_output(args.output)
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_tables(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
