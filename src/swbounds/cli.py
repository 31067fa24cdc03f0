"""Command-line front end: bound reports, soundness verification, benchmarks.

Subcommands: bounds (full report for one graph), verify (invariant suite over
a corpus), bench (tightness CSV over family sweeps), gen (emit an edge list).
Exit codes: 0 ok, 1 parse/input error, 2 numerical failure, 3 verification
violation (from verify, or from the sandwich check that bounds and bench run
on their own reports).
"""

from __future__ import annotations

import argparse
import json  # noqa: F401 -- perfbench's tracer patches `cli.json` to time dumps
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from .graph import GraphError, generate, parse_edge_list, serialize_edge_list
from .report import (
    CSV_HEADER,
    DEFAULT_J_SETS,
    DEFAULT_K_MAX,
    DEFAULT_S_MAX,
    DEFAULT_SEED,
    DEFAULT_TOL,
    MEASURES,
    CorpusEntry,
    build_report,
    er_corpus,
    family_corpus,
    format_table,
    report_csv_rows,
    report_json,
    run_verification,
)
from .walks import DEFAULT_MAX_LENGTH


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _entry_from_args(args: argparse.Namespace) -> CorpusEntry:
    if args.file:
        text = Path(args.file).read_text(encoding="utf-8-sig")   # a leading BOM is dropped
        g = parse_edge_list(text)
        return CorpusEntry(Path(args.file).stem, "file", g)
    g = generate(args.gen, seed=args.seed)
    return CorpusEntry(args.gen.replace(":", "_"), args.gen.split(":")[0], g)


def _parse_j_sets(values: Optional[Sequence[str]]) -> tuple[tuple[int, ...], ...]:
    if not values:
        return DEFAULT_J_SETS
    out = []
    for text in values:
        try:
            out.append(tuple(int(t) for t in text.split(",") if t))
        except ValueError:
            raise GraphError(f"bad index set {text!r}: expected comma-separated integers")
    return tuple(out)


def _require_tol(tol: float) -> None:
    """Reject a sandwich-check margin that would hide or invent violations."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be a finite number >= 0, got {tol!r}")


def cmd_bounds(args: argparse.Namespace) -> int:
    _require_tol(args.tol)
    entry = _entry_from_args(args)
    report = build_report(
        entry,
        max_length=args.K,
        measures=tuple(args.measures),
        s_max=args.s_max,
        k_max=args.k_max,
        j_sets=_parse_j_sets(args.J),
        tol=args.tol,
        omega=args.omega,
        vertex_mode="all" if args.per_vertex else "aggregate",
        with_timing=not args.no_timing,
    )
    if args.format == "json":
        _write_output(report_json(report) + "\n", args.out)
    elif args.format == "csv":
        _write_output("\n".join([CSV_HEADER, *report_csv_rows(report)]) + "\n", args.out)
    else:
        _write_output(format_table(report), args.out)
    return 3 if report.violations else 0


def _verify_corpus(args: argparse.Namespace) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    if args.families_max > 0:
        entries.extend(family_corpus(args.families_max))
    if args.er_count > 0:
        entries.extend(er_corpus(args.er_count, args.er_n, args.er_p, args.seed))
    if not entries:
        raise GraphError("empty corpus: enable families or ER samples")
    return entries


def cmd_verify(args: argparse.Namespace) -> int:
    _require_tol(args.tol)
    entries = _verify_corpus(args)
    outcome = run_verification(entries, max_length=args.K, tol=args.tol)
    print(f"graphs checked: {len(entries)}")
    print(f"checks run:     {outcome.checks}")
    print(f"violations:     {len(outcome.violations)}")
    print(f"worst lower margin: {outcome.worst_lower_margin:.3e}")
    print(f"worst upper margin: {outcome.worst_upper_margin:.3e}")
    if outcome.violations:
        for line in outcome.violations:
            print(f"VIOLATION: {line}")
        dump_dir = Path(args.dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for entry in outcome.offenders:
            path = dump_dir / f"violation_{entry.name}.edges"
            path.write_text(serialize_edge_list(entry.graph), encoding="ascii")
            print(f"offending graph written to {path}")
        return 3
    return 0


# Bench families (one-size `graph.generate` specs) and their smallest size.
BENCH_MIN_SIZES = {"path": 1, "cycle": 3, "complete": 2, "star": 1}


def _bench_entries(args: argparse.Namespace) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for family in args.families.split(","):
        family = family.strip()
        if not family:
            continue
        if family not in BENCH_MIN_SIZES:
            raise GraphError(f"unknown bench family {family!r}")
        for n in range(max(args.min, BENCH_MIN_SIZES[family]), args.max + 1):
            entries.append(CorpusEntry(f"{family}_{n}", family, generate(f"{family}:{n}")))
    if args.er_count > 0:
        entries.extend(er_corpus(args.er_count, args.er_n, args.er_p, args.seed))
    if not entries:
        raise GraphError("empty bench sweep")
    return entries


def cmd_bench(args: argparse.Namespace) -> int:
    _require_tol(args.tol)
    lines = [CSV_HEADER]
    violations = []
    for entry in _bench_entries(args):
        report = build_report(
            entry,
            max_length=args.K,
            s_max=args.s_max,
            k_max=args.k_max,
            tol=args.tol,
            with_timing=not args.no_timing,
        )
        lines.extend(report_csv_rows(report))
        violations.extend(f"{entry.name}: {v}" for v in report.violations)
    _write_output("\n".join(lines) + "\n", args.out)
    for line in violations:
        print(f"VIOLATION: {line}", file=sys.stderr)
    return 3 if violations else 0


def cmd_gen(args: argparse.Namespace) -> int:
    g = generate(args.spec, seed=args.seed)
    _write_output(serialize_edge_list(g), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swb",
        description="Walk-count moment sequences and spectral-radius bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="full bound report for one graph")
    source = bounds.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="edge-list file")
    source.add_argument("--gen", help="generator spec, e.g. star:4 or erdos_renyi:10:0.5")
    bounds.add_argument("--K", type=int, default=DEFAULT_MAX_LENGTH,
                        help="moment horizon (default 12)")
    bounds.add_argument("--measures", nargs="+", default=MEASURES, choices=MEASURES)
    bounds.add_argument("--J", action="append",
                        help="index set like 1,2,3 (repeatable; default 1,2 and 1,2,3)")
    bounds.add_argument("--s-max", type=int, default=DEFAULT_S_MAX)
    bounds.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    bounds.add_argument("--format", choices=["table", "json", "csv"], default="table")
    bounds.add_argument("--seed", type=int, default=0, help="seed for random generators")
    bounds.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="verification margin (never added to bound values)")
    bounds.add_argument("--omega", type=int, default=None,
                        help="externally supplied clique number for large graphs")
    bounds.add_argument("--per-vertex", action="store_true",
                        help="report every vertex measure instead of the best vertex")
    bounds.add_argument("--no-timing", action="store_true",
                        help="zero out timing fields for byte-stable output")
    bounds.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="invariant suite over a corpus")
    verify.add_argument("--families-max", type=int, default=12,
                        help="largest family size (0 disables families)")
    verify.add_argument("--er-count", type=int, default=100)
    verify.add_argument("--er-n", type=int, default=15)
    verify.add_argument("--er-p", type=float, default=0.3)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--K", type=int, default=DEFAULT_MAX_LENGTH)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("--dump-dir", default=".",
                        help="where to write offending graphs on violation")

    bench = sub.add_parser("bench", help="tightness CSV over family sweeps")
    bench.add_argument("--families", default="path,cycle,complete,star")
    bench.add_argument("--min", type=int, default=3)
    bench.add_argument("--max", type=int, default=10)
    bench.add_argument("--er-count", type=int, default=0)
    bench.add_argument("--er-n", type=int, default=15)
    bench.add_argument("--er-p", type=float, default=0.3)
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--K", type=int, default=DEFAULT_MAX_LENGTH)
    bench.add_argument("--s-max", type=int, default=DEFAULT_S_MAX)
    bench.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    bench.add_argument("--tol", type=float, default=DEFAULT_TOL)
    bench.add_argument("--no-timing", action="store_true")
    bench.add_argument("--out", default=None)

    gen = sub.add_parser("gen", help="emit an edge list for a generator spec")
    gen.add_argument("spec")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)

    return parser


# The `swb` parser, built by the first `main` call and reused by later ones.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one `swb` command and return its exit code.

    The parser is built on the first call, not at import, and reused; its
    defaults are immutable, so a call cannot change the next one's. The
    subcommand runs as this module's `cmd_<name>`, looked up at each call,
    so a function patched in after the first call is the one that runs.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (GraphError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
