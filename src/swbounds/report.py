"""Bound sweeps, reports, corpora, and the soundness verification engine."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bounds_lower import (
    BoundResult,
    WALK_RATIO_BASELINES,
    Dead,
    baseline_lower_bounds,
    det_block_columns,
    det_ratio_columns,
    det_ratio_row,
    local_triangle_lower_bound,
    moment_matrix,
    quadratic_root_columns,
    quadratic_root_row,
    ratio_columns,
    ratio_row,
    reported_vertex,
    sdp_row,
    sdp_value,
    sqrt_max_degree_lower_bound,
    triangle_edge_lower_bound,
)
from .bounds_upper import (
    atom_weight_for,
    baseline_upper_bounds,
    bipartite_columns,
    bipartite_row,
    clique_root_upper_bound,
    eigvec_degree_upper_bound,
    even_moment_columns,
    even_moment_row,
    hankel_root_row,
    hankel_root_value,
    nikiforov_clique_value,
    stieltjes_root_row,
    stieltjes_root_value,
    two_point_columns,
    two_point_row,
)
from .graph import (
    CLIQUE_SEARCH_LIMIT,
    Graph,
    clique_number,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degrees,
    erdos_renyi_graph,
    is_bipartite,
    is_connected,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
    star_graph,
    triangle_counts,
)
from .moments import _validated_indices, hankel_table, stieltjes_prefix
from .spectrum import (
    SpectralSummary,
    adjacency_array,
    component_decompose,
    eigen_decompose,
    moment_identity_deviations,
)
from .walks import (
    DEFAULT_MAX_LENGTH,
    KIND_CLOSED,
    KIND_CLOSED_AT,
    KIND_WALKS,
    MomentSequence,
    all_rooted_closed_counts,
    closed_from_rooted,
    closed_walk_counts_at,
    enumerate_walks_bruteforce,
    walk_counts,
)

DEFAULT_SEED = 1729
# The default bound grid of `sweep_bounds`: moment shifts s <= DEFAULT_S_MAX,
# strides k <= DEFAULT_K_MAX, the Hankel index sets J and the SDP orders of a
# report. `swb verify` sweeps the same grid with the SDP orders VERIFY_SDP_ORDERS.
DEFAULT_S_MAX = 3
DEFAULT_K_MAX = 4
DEFAULT_J_SETS: tuple[tuple[int, ...], ...] = ((1, 2), (1, 2, 3))
DEFAULT_SDP_ORDERS = (1, 2)
VERIFY_SDP_ORDERS = (0, 1, 2)
MEASURES = ("walks", "closed", "vertex")
# Sandwich-check margin; compared against rho, never added to a bound.
DEFAULT_TOL = 1e-7
CSV_HEADER = "graph,family,n,e,bound,measure,s,k,J,value,rho,gap,applicable,oracle_assisted,ms"


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    family: str
    graph: Graph


@dataclass(frozen=True)
class PreparedGraph:
    """One graph with every ingredient the bound sweep needs, computed once."""

    entry: CorpusEntry
    walks_seq: MomentSequence
    closed_seq: MomentSequence
    rooted_seqs: tuple[MomentSequence, ...]
    summary: SpectralSummary
    omega: Optional[int]
    max_degree: int
    bipartite: bool
    connected: bool
    triangles: int


@dataclass(frozen=True)
class GraphInfo:
    name: str
    family: str
    n: int
    e: int
    max_degree: int
    triangles: int
    clique: Optional[int]
    bipartite: bool
    connected: bool


@dataclass(frozen=True)
class Report:
    graph: GraphInfo
    rho: float
    bounds: tuple[BoundResult, ...]
    bound_ms: tuple[float, ...]
    violations: tuple[str, ...]
    stage_ms: dict = field(default_factory=dict)


def prepare_graph(entry: CorpusEntry, max_length: int = DEFAULT_MAX_LENGTH,
                  omega: Optional[int] = None) -> PreparedGraph:
    g = entry.graph
    total_triangles, _ = triangle_counts(g)
    if omega is None:
        if g.n <= CLIQUE_SEARCH_LIMIT:
            omega = clique_number(g)
    elif not (3 if total_triangles else 2 if g.edge_count else 1) <= omega <= g.n:
        raise ValueError(f"clique number {omega} is impossible on a graph with {g.n} vertices, "
                         f"{g.edge_count} edges and {total_triangles} triangles")
    _, max_degree = degrees(g)
    flag, _ = is_bipartite(g)
    rooted = tuple(all_rooted_closed_counts(g, max_length))
    return PreparedGraph(
        entry=entry,
        walks_seq=walk_counts(g, max_length),
        closed_seq=closed_from_rooted(rooted),
        rooted_seqs=rooted,
        summary=eigen_decompose(g),
        omega=omega,
        max_degree=max_degree,
        bipartite=flag,
        connected=is_connected(g),
        triangles=total_triangles,
    )


class Classes(NamedTuple):
    """One measure's vertices in a matrix of twin classes: the head of each
    vertex's records ((m,) or (m, alpha_1)), the first vertex of each class
    (increasing), the class of each vertex, and the matrix rows of the
    classes."""

    heads: list
    firsts: list[int]
    of: list[int]
    rows: slice


def _twin_classes(heads: list, keys: Iterable, stacked: list) -> Classes:
    """The `Classes` of one measure's vertices, which have `heads` and are
    twins when their `keys` are equal; the head of each class's first
    vertex is appended to the `stacked` heads, one per matrix row."""
    classes: dict = {}
    firsts: list[int] = []
    of = []
    for i, key in enumerate(keys):
        c = classes.setdefault(key, len(firsts))
        if c == len(firsts):
            firsts.append(i)
        of.append(c)
    stacked += [heads[i] for i in firsts]
    return Classes(heads, firsts, of, slice(len(stacked) - len(firsts), len(stacked)))


def sweep_bounds(prep: PreparedGraph, s_max: int = DEFAULT_S_MAX, k_max: int = DEFAULT_K_MAX,
                 j_sets: Sequence[tuple[int, ...]] = DEFAULT_J_SETS,
                 sdp_orders: Sequence[int] = DEFAULT_SDP_ORDERS,
                 measures: Sequence[str] = MEASURES,
                 vertex_mode: str = "aggregate") -> list[tuple[BoundResult, float]]:
    """Evaluate every applicable bound for one graph.

    This is the one place that decides which (bound, parameters) rows exist:
    a combination that needs moments beyond the computed horizon is skipped,
    the classical rows (`triangle_edge`, `baseline_*`, ...) included, and a
    labelled row needs its measure in `measures` (`closed` for
    `triangle_edge`, `vertex` for the rooted rows, `walks` for the rest). An
    unknown measure or vertex mode raises ValueError, and each J set's
    positions are checked (MomentError) before one beyond the horizon is
    skipped. The (result, milliseconds) pairs are built in report order, not
    sorted: by family (kind, name), measure (closed_walks, closed_walks_at,
    walks), vertex (every one, or the reported ones), then column ((s, k) as
    built, k and the `sdp` order ascending, J by `str(list(J))`); a labelled
    family's rows, and equal keys, in the order they were evaluated.

    Each family is one table of outcomes, a row per twin class of every
    measure (vertices with identical `values` and, for an upper bound,
    `atom_weight_for` float), stacked in report order and filled by one
    timed pass: an array routine (`ratio_columns`, ...) or, for `sdp`,
    `stieltjes_root` and `hankel_root`, `root_table`. `table_pass` makes
    the records of every vertex ("all") or of the first vertex of the class
    `reported_vertex` picks in each column (aggregate), which share the
    pass's time; the labelled rows read the swept cells they label, and
    evaluate only the columns not swept.

    In aggregate mode a root pass gives each class after a positive live
    one of its measure, in each column, a cutoff one float beyond the best
    value b so far (nextafter(b, inf) for a lower bound, nextafter(b, 0)
    for an upper one); a routine that proves exactly that its value is no
    better than b returns it inapplicable without a root search, which
    leaves the reported row unchanged. The `sdp` Hankel tables are built
    once per class, timed with the `sdp` pass.
    """
    if s_max < 0 or k_max < 0:
        raise ValueError(f"s_max and k_max must be non-negative, got {s_max} and {k_max}")
    if isinstance(measures, str) or not set(measures) <= set(MEASURES):
        raise ValueError(f"measures must be a collection of {MEASURES}, got {measures!r}")
    if vertex_mode not in ("aggregate", "all"):
        raise ValueError(f"vertex_mode must be 'aggregate' or 'all', got {vertex_mode!r}")
    horizon = prep.walks_seq.max_index
    summary = prep.summary
    families: dict = {}  # the (result, ms) pairs of each (kind, name) family, in report order

    def emit(fn, *args) -> None:
        """One timed call; the rows of a list result share its time."""
        t0 = time.perf_counter()
        res = fn(*args)
        ms = (time.perf_counter() - t0) * 1000.0
        batch = res if isinstance(res, list) else [res]
        for r in batch:
            families.setdefault((r.kind, r.name), []).append((r, ms / len(batch)))

    swept: dict = {}  # (params, Classes, table) of each table family, by its row and measure

    def table_pass(kind, routine, row, params, parts, *args,
                   start: Optional[float] = None) -> None:
        """One timed call of `routine(*args)`, counted from `start` if given,
        for each (stacked class, column `p` of `params`) cell of the measures'
        `parts`, which are in report order. The records `row(*head, *p,
        outcome)` are built in report order, not sorted: every vertex's by
        column, or each column's pick, ordered by class (so by vertex)."""
        t0 = time.perf_counter() if start is None else start
        table = routine(*args)
        records = []
        for heads, firsts, of, rows_of in parts:
            if vertex_mode == "all":
                outcomes = table[rows_of].tolist()
                records += [row(*head, *p, o) for head, c in zip(heads, of)
                            for p, o in zip(params, outcomes[c])]
            else:
                columns = table[rows_of].T.tolist()
                picks = [reported_vertex(col, kind) if len(col) > 1 else 0 for col in columns]
                records += [row(*heads[firsts[c]], *p, col[c]) for c, p, col
                            in sorted(zip(picks, params, columns), key=lambda cell: cell[0])]
        ms = (time.perf_counter() - t0) * 1000.0 / len(records)
        families[kind, records[0].name] = [(r, ms) for r in records]
        for part in parts:
            swept[row, part.heads[0][0].kind] = (params, part, table)

    def swept_column(row, measure, *p) -> Optional[list]:
        """One outcome per `measure` sequence of a swept column, else None."""
        params, part, table = swept.get((row, measure), ((), None, None))
        return table[part.rows, params.index(p)][part.of].tolist() if p in params else None

    def root_table(kind, value, heads, parts, params) -> np.ndarray:
        """The table of `value(*head, *p)` at the stacked class `heads` of the
        measures' `parts` and each column `p` of `params`. In aggregate mode
        the cutoff restarts at each measure's first class, in every column."""
        toward = math.inf if kind == "lower" else 0.0
        table = np.empty((len(heads), len(params)), dtype=object)
        for j, p in enumerate(params):
            for part in parts:
                cutoff = None
                for i in range(part.rows.start, part.rows.stop):
                    table[i, j] = res = value(*heads[i], *p, cutoff=cutoff)
                    if vertex_mode != "all" and not isinstance(res, Dead) and res > 0.0:
                        # not ruled out, so better than the best so far
                        cutoff = math.nextafter(res, toward)
        return table

    # the measures in report order: closed_walks, closed_walks_at, walks
    by_measure = {"closed": [prep.closed_seq], "vertex": list(prep.rooted_seqs),
                  "walks": [prep.walks_seq]}
    sequences = [seqs for m, seqs in by_measure.items() if m in measures]
    # one check (MomentError) of each J's positions covers its columns of every
    # measure; a J beyond the horizon is checked too, then skipped
    j_positions = sorted({j for j in {_validated_indices(None, j_set, 0) for j_set in j_sets}
                          if 2 * j[-1] - 1 <= horizon}, key=lambda j: str(list(j)))
    if not sequences:
        return []

    lower_parts, upper_parts, lower_heads, upper_heads = [], [], [], []
    for seqs in sequences:
        weights = [atom_weight_for(s, summary) for s in seqs]
        lower = _twin_classes([(s,) for s in seqs], [s.values for s in seqs], lower_heads)
        lower_parts.append(lower)
        upper_parts.append(_twin_classes(list(zip(seqs, weights)), zip(lower.of, weights),
                                         upper_heads))

    orders = [(order,) for order in sorted(set(sdp_orders)) if 2 * order + 1 <= horizon]
    if orders:
        start = time.perf_counter()
        sdp_heads = [(m, hankel_table(m, orders[-1][0])) for (m,) in lower_heads]
        table_pass("lower", root_table, sdp_row, orders, lower_parts,
                   "lower", sdp_value, sdp_heads, lower_parts, orders, start=start)
    for value, row, params in (
            (stieltjes_root_value, stieltjes_root_row,
             [(k,) for k in range(1, k_max + 1) if 2 * k + 1 <= horizon]),
            (hankel_root_value, hankel_root_row, [(indices,) for indices in j_positions])):
        if params:
            table_pass("upper", root_table, row, params, upper_parts,
                       "upper", value, upper_heads, upper_parts, params)

    ratios = [(s, k) for s in range(s_max + 1) for k in range(1, k_max + 1) if 2 * s + k <= horizon]
    blocks = [(s, k) for s, k in ratios if 2 * s + 3 * k <= horizon]
    ks = [k for k in range(1, k_max + 1) if 2 * k <= horizon]
    if ratios:
        moments = moment_matrix([m for (m,) in lower_heads])
        table_pass("lower", ratio_columns, ratio_row, ratios, lower_parts, moments, ratios)
        if blocks:
            start = time.perf_counter()
            dets = det_block_columns(moments, blocks)
            table_pass("lower", det_ratio_columns, det_ratio_row, blocks, lower_parts, dets,
                       blocks, start=start)
            table_pass("lower", quadratic_root_columns, quadratic_root_row, blocks, lower_parts,
                       dets, blocks)
    if ks:
        moments = moment_matrix([m for m, _ in upper_heads])
        alphas = [alpha for _, alpha in upper_heads]
        columns = [(k,) for k in ks]
        table_pass("upper", even_moment_columns, even_moment_row, columns, upper_parts, moments,
                   alphas, ks)
        table_pass("upper", two_point_columns, two_point_row, columns, upper_parts, moments,
                   alphas, ks)
        closed_parts = [p for p in upper_parts if p.heads[0][0].kind != KIND_WALKS]
        if closed_parts:
            table_pass("upper", bipartite_columns, bipartite_row, columns, closed_parts,
                       moments, alphas, ks, prep.bipartite)

    if "closed" in measures and 3 <= horizon:
        closed = swept_column(quadratic_root_row, KIND_CLOSED, 0, 1)
        emit(triangle_edge_lower_bound, prep.closed_seq, closed and closed[0])
    rooted = prep.rooted_seqs if "vertex" in measures else ()
    if rooted and 2 <= horizon:
        if 3 <= horizon:
            emit(local_triangle_lower_bound, rooted,
                 swept_column(quadratic_root_row, KIND_CLOSED_AT, 0, 1))
        emit(sqrt_max_degree_lower_bound, rooted, swept_column(ratio_row, KIND_CLOSED_AT, 0, 2))
        emit(eigvec_degree_upper_bound, rooted, summary,
             swept_column(two_point_row, KIND_CLOSED_AT, 1))
    if "walks" in measures:
        walk_ratios = {(s, k): column[0] for _, s, k in WALK_RATIO_BASELINES
                       if (column := swept_column(ratio_row, KIND_WALKS, s, k))}
        emit(baseline_lower_bounds, prep.walks_seq, walk_ratios)
        if prep.omega is not None:
            for k in range(0, k_max + 1):
                if 2 * k + 1 <= horizon:
                    emit(clique_root_upper_bound, prep.walks_seq, prep.omega, k)
        ks = tuple(k for k in range(1, k_max + 1) if k <= horizon)
        emit(baseline_upper_bounds, prep.walks_seq, summary, prep.omega, prep.connected, ks)
    return [pair for key in sorted(families) for pair in families[key]]


def _gap(r: BoundResult, rho: float) -> Optional[float]:
    """How far an applicable, finite bound sits on its side of rho (None
    for the others); negative means the bound crosses rho."""
    if not r.applicable or not math.isfinite(r.value):
        return None
    return rho - r.value if r.kind == "lower" else r.value - rho


def _crossing(r: BoundResult, rho: float) -> str:
    verb = "exceeds" if r.kind == "lower" else "undercuts"
    return f"{r.kind} bound {r.name} {r.params} = {r.value!r} {verb} rho = {rho!r}"


def find_violations(bounds: Iterable[BoundResult], rho: float, tol: float = DEFAULT_TOL) -> list[str]:
    """The sandwich check: a message for each row whose `_gap` is below
    -tol. `_verify_sandwich` applies the same test in its own loop."""
    return [_crossing(r, rho) for r in bounds
            if (gap := _gap(r, rho)) is not None and gap < -tol]


def build_report(entry: CorpusEntry, max_length: int = DEFAULT_MAX_LENGTH,
                 measures: Sequence[str] = MEASURES,
                 s_max: int = DEFAULT_S_MAX, k_max: int = DEFAULT_K_MAX,
                 j_sets: Sequence[tuple[int, ...]] = DEFAULT_J_SETS, tol: float = DEFAULT_TOL,
                 omega: Optional[int] = None, vertex_mode: str = "aggregate",
                 with_timing: bool = True) -> Report:
    stage_ms: dict = {}
    t0 = time.perf_counter()
    prep = prepare_graph(entry, max_length, omega)
    stage_ms["prepare"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    rows = sweep_bounds(prep, s_max, k_max, j_sets, measures=measures,
                        vertex_mode=vertex_mode)
    stage_ms["bounds"] = (time.perf_counter() - t0) * 1000.0

    rho = float(prep.summary.rho)
    bounds = tuple(r for r, _ in rows)
    bound_ms = tuple(ms for _, ms in rows)
    if not with_timing:
        stage_ms = {k: 0.0 for k in stage_ms}
        bound_ms = tuple(0.0 for _ in bound_ms)
    info = GraphInfo(name=entry.name, family=entry.family, n=entry.graph.n,
                     e=entry.graph.edge_count, max_degree=prep.max_degree,
                     triangles=prep.triangles, clique=prep.omega,
                     bipartite=prep.bipartite, connected=prep.connected)
    return Report(info, rho, bounds, bound_ms, tuple(find_violations(bounds, rho, tol)),
                  stage_ms)


def _field_values(obj) -> dict:
    """Shallow {field: value} of a dataclass, in declaration order."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def report_to_dict(report: Report) -> dict:
    """The report as plain data, non-finite bound values as None.

    `json.dumps(report_to_dict(r), indent=2)` is the reference layout that
    `report_json` writes byte for byte; the tests compare against it, and
    perfbench's `report.serialize` span wraps this function.
    """
    rows = []
    for r, ms in zip(report.bounds, report.bound_ms):
        row = {**_field_values(r), "ms": ms}
        if not math.isfinite(r.value):
            row["value"] = None
        rows.append(row)
    return {
        "graph": _field_values(report.graph),
        "rho_exact": report.rho,
        "bounds": rows,
        "violations": list(report.violations),
        "timing_ms": dict(report.stage_ms),
    }


_JSON_FLAG = {True: "true", False: "false"}


def _json_text(obj, pad: str) -> str:
    """`json.dumps(obj, indent=2)` of a value whose first line starts with
    `pad`: a finite float, an int, a str, a bool, None or a list of ints
    directly, anything else through the standard library, re-indented (an
    encoded string never holds a raw newline, so every newline in the text
    starts a line)."""
    t = type(obj)
    if t is float and obj - obj == 0.0:
        return float.__repr__(obj)
    if t is int:
        return int.__repr__(obj)
    if t is list and obj and all(type(x) is int for x in obj):
        return "[\n" + ",\n".join([f"{pad}  {int.__repr__(x)}" for x in obj]) + f"\n{pad}]"
    if t is str:
        return encode_basestring_ascii(obj)
    if t is bool:
        return _JSON_FLAG[obj]
    if obj is None:
        return "null"
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def _json_fields(obj: dict) -> str:
    """`_json_text` of a dict with str keys at the second level of a report."""
    if not obj:
        return "{}"
    return "{\n" + ",\n".join([f"    {encode_basestring_ascii(k)}: {_json_text(v, '    ')}"
                               for k, v in obj.items()]) + "\n  }"


def report_json(report: Report) -> str:
    """`json.dumps(report_to_dict(report), indent=2)`, byte for byte.

    With an indent the standard library drops its C encoder, so each bound
    row is one f-string here, in the fixed field order of `BoundResult` and
    "ms", with its flags looked up, a non-finite value as null and every
    other value written by `_json_text`. Dict keys are strs, as in every
    report the program builds.
    """
    flag = _JSON_FLAG
    encode = encode_basestring_ascii
    text = _json_text
    rows = []
    for r, ms in zip(report.bounds, report.bound_ms):
        name, kind, value, p, reason = r.name, r.kind, r.value, r.params, r.reason
        params = "{}"
        if p:
            items = []
            for k, v in p.items():
                t = type(v)
                v = int.__repr__(v) if t is int else encode(v) if t is str else text(v, " " * 8)
                items.append(f"        {encode(k)}: {v}")
            params = "{\n" + ",\n".join(items) + "\n      }"
        if type(value) is float and value - value == 0.0:
            value = float.__repr__(value)
        else:
            value = text(value, "      ") if math.isfinite(value) else "null"
        ms = float.__repr__(ms) if type(ms) is float and ms - ms == 0.0 else text(ms, "      ")
        rows.append(
            f'{{\n      "name": {encode(name) if type(name) is str else text(name, "      ")},\n'
            f'      "kind": {encode(kind) if type(kind) is str else text(kind, "      ")},\n'
            f'      "value": {value},\n'
            f'      "params": {params},\n'
            f'      "applicable": {flag[r.applicable]},\n'
            f'      "reason": {"null" if reason is None else text(reason, "      ")},\n'
            f'      "trivial": {flag[r.trivial]},\n'
            f'      "oracle_assisted": {flag[r.oracle_assisted]},\n'
            f'      "ms": {ms}\n    }}')
    bounds = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    return ("{\n"
            f'  "graph": {_json_fields(_field_values(report.graph))},\n'
            f'  "rho_exact": {text(report.rho, "  ")},\n'
            f'  "bounds": {bounds},\n'
            f'  "violations": {text(list(report.violations), "  ")},\n'
            f'  "timing_ms": {_json_fields(report.stage_ms)}\n}}')


def _csv_quote(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def report_csv_rows(report: Report) -> list[str]:
    rows = []
    for r, ms in zip(report.bounds, report.bound_ms):
        p = r.params
        measure = str(p.get("measure", ""))
        if measure == KIND_CLOSED_AT and p.get("vertex") is not None:
            measure = f"{measure}:{p['vertex']}"
        if "J" in p:
            j_text = "+".join(str(j) for j in p["J"])
        elif "n" in p:
            j_text = "+".join(str(j) for j in range(1, p["n"] + 2))
        else:
            j_text = ""
        gap = _gap(r, report.rho)
        rows.append(",".join([
            _csv_quote(report.graph.name),
            _csv_quote(report.graph.family),
            str(report.graph.n),
            str(report.graph.e),
            r.name,
            measure,
            str(p.get("s", "")),
            str(p.get("k", "")),
            j_text,
            "" if gap is None else repr(r.value),
            repr(report.rho),
            "" if gap is None else repr(gap),
            "true" if r.applicable else "false",
            "true" if r.oracle_assisted else "false",
            f"{ms:.3f}",
        ]))
    return rows


def format_table(report: Report) -> str:
    lines = []
    info = report.graph
    omega_text = "?" if info.clique is None else str(info.clique)
    lines.append(
        f"graph {info.name} (family={info.family}, n={info.n}, e={info.e}, "
        f"max_degree={info.max_degree}, triangles={info.triangles}, "
        f"clique={omega_text}, bipartite={info.bipartite}, connected={info.connected})"
    )
    lines.append(f"rho_exact = {report.rho:.12g}")
    lines.append(f"{'kind':<6} {'bound':<26} {'value':>16} {'gap':>12}  params")
    for r in report.bounds:
        gap = _gap(r, report.rho)
        if gap is not None:
            value_text = f"{r.value:16.10f}"
            gap_text = f"{gap:12.3e}"
        else:
            value_text = f"{'-':>16}"
            gap_text = f"{'(' + (r.reason or 'n/a') + ')':>12}"
        p = {k: v for k, v in r.params.items() if k != "measure"}
        measure = r.params.get("measure", "")
        tag = " [oracle]" if r.oracle_assisted else ""
        tag += " [trivial]" if r.trivial else ""
        lines.append(f"{r.kind:<6} {r.name:<26} {value_text} {gap_text}  {measure} {p}{tag}")
    if report.violations:
        lines.append("VIOLATIONS:")
        lines.extend(f"  {v}" for v in report.violations)
    else:
        lines.append("violations: none")
    return "\n".join(lines) + "\n"


def family_corpus(max_n: int = 12) -> list[CorpusEntry]:
    """Deterministic family sweep: paths, cycles, complete, stars, bicliques."""
    entries = []
    for n in range(1, max_n + 1):
        entries.append(CorpusEntry(f"path_{n}", "path", path_graph(n)))
    for n in range(3, max_n + 1):
        entries.append(CorpusEntry(f"cycle_{n}", "cycle", cycle_graph(n)))
    for n in range(2, max_n + 1):
        entries.append(CorpusEntry(f"complete_{n}", "complete", complete_graph(n)))
    for leaves in range(2, max_n):
        entries.append(CorpusEntry(f"star_{leaves}", "star", star_graph(leaves)))
    for a in range(2, max_n // 2 + 1):
        for b in range(a, max_n - a + 1):
            entries.append(CorpusEntry(
                f"complete_bipartite_{a}_{b}", "complete_bipartite",
                complete_bipartite_graph(a, b)))
    return entries


def er_corpus(count: int = 100, n: int = 15, p: float = 0.3,
              seed: int = DEFAULT_SEED) -> list[CorpusEntry]:
    return [
        CorpusEntry(f"er_{n}_{p:g}_{seed + i}", "erdos_renyi",
                    erdos_renyi_graph(n, p, seed + i))
        for i in range(count)
    ]


def standard_corpus() -> list[CorpusEntry]:
    """The default `swb verify` corpus: families up to 12 vertices and 100 G(15, 0.3)."""
    return family_corpus() + er_corpus()


@dataclass
class VerificationOutcome:
    checks: int = 0
    violations: list = field(default_factory=list)
    offenders: list = field(default_factory=list)
    worst_lower_margin: float = -math.inf   # max over (value - rho): should be <= tol
    worst_upper_margin: float = -math.inf   # max over (rho - value): should be <= tol

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.fail(message)


def _verify_structure(out: VerificationOutcome, prep: PreparedGraph) -> None:
    g = prep.entry.graph
    name = prep.entry.name
    d, _ = degrees(g)
    out.check(sum(d) == 2 * g.edge_count, f"{name}: degree sum != 2e")
    out.check(parse_edge_list(serialize_edge_list(g)) == g,
              f"{name}: edge-list round trip changed the graph")
    if prep.bipartite and prep.omega is not None:
        out.check(prep.omega <= 2, f"{name}: bipartite graph with clique > 2")


def _verify_walks(out: VerificationOutcome, prep: PreparedGraph) -> None:
    g = prep.entry.graph
    name = prep.entry.name
    phi = prep.closed_seq
    w = prep.walks_seq
    d, _ = degrees(g)
    _, per_triangles = triangle_counts(g)
    horizon = phi.max_index
    identities = ((1, 0, "closed walks of length 1 exist"),
                  (2, 2 * g.edge_count, "phi_2 != 2e"),
                  (3, 6 * prep.triangles, "phi_3 != 6T"))
    for k, value, what in identities[:horizon]:
        out.check(phi[k] == value, f"{name}: {what}")
    for i, rooted in enumerate(prep.rooted_seqs):
        if horizon >= 2:
            out.check(rooted[2] == d[i], f"{name}: phi_2({i}) != degree")
        if horizon >= 3:
            out.check(rooted[3] == 2 * per_triangles[i], f"{name}: phi_3({i}) != 2 T_i")
    out.check(closed_walk_counts_at(g, 0, horizon) == prep.rooted_seqs[0],
              f"{name}: rooted counts at vertex 0 differ from the vector iteration")
    for k in range(horizon + 1):
        out.check(0 <= phi[k] <= w[k], f"{name}: ordering w_k >= phi_k >= 0 broken at k={k}")
        if prep.bipartite and k % 2 == 1:
            out.check(phi[k] == 0, f"{name}: odd closed walks on a bipartite graph (k={k})")
    if g.n <= 6:
        for k in range(min(6, horizon) + 1):
            bw, bphi, bper = enumerate_walks_bruteforce(g, k)
            out.check(bw == w[k], f"{name}: brute-force w_{k} mismatch")
            out.check(bphi == phi[k], f"{name}: brute-force phi_{k} mismatch")
            out.check(bper == [seq[k] for seq in prep.rooted_seqs],
                      f"{name}: brute-force rooted counts mismatch at k={k}")


def _verify_spectrum(out: VerificationOutcome, prep: PreparedGraph) -> None:
    g = prep.entry.graph
    name = prep.entry.name
    summary = prep.summary
    lam = summary.eigenvalues
    vectors = summary.eigenvectors
    out.check(abs(float(lam.sum())) <= 1e-9 * g.n, f"{name}: eigenvalue sum != trace 0")
    e2 = 2.0 * g.edge_count
    out.check(abs(float((lam ** 2).sum()) - e2) <= 1e-9 * max(1.0, e2),
              f"{name}: eigenvalue square sum != 2e")
    out.check(float(np.max(np.abs(summary.vertex_weights.sum(axis=1) - 1.0))) <= 1e-9,
              f"{name}: vertex weights do not sum to 1")
    out.check(abs(float(summary.weight_sums.sum()) - g.n) <= 1e-9 * max(1, g.n),
              f"{name}: weight sums do not add to n")
    out.check(summary.rho >= abs(float(lam[-1])) - 1e-9,
              f"{name}: top eigenvalue below the bottom magnitude")
    recon = vectors @ np.diag(lam) @ vectors.T
    out.check(float(np.max(np.abs(recon - adjacency_array(g)))) <= 1e-9,
              f"{name}: eigendecomposition does not reconstruct the adjacency")
    if prep.connected:
        out.check(float(np.min(vectors[:, 0])) >= -1e-9,
                  f"{name}: leading eigenvector not non-negative")
    spectra = summary if prep.connected else component_decompose(g)
    identities = moment_identity_deviations(spectra, prep.walks_seq, prep.closed_seq,
                                            prep.rooted_seqs, tol=1e-8)
    out.check(identities["passed"],
              f"{name}: walk/eigenvalue identities off by {identities}")


def _verify_moment_machinery(out: VerificationOutcome, prep: PreparedGraph,
                             tol: float) -> None:
    """Check every Hamburger order up to K//2 and the support conditions at
    rho + tol for each tested J, on the walk, closed-walk and rooted
    sequences. Every tested J is a prefix (1, ..., r) of the longest, so
    each distinct sequence is decided once, by one `hankel_table` and one
    `stieltjes_prefix`, and its checks are counted once for every sequence
    that has it."""
    name = prep.entry.name
    horizon = prep.closed_seq.max_index
    rho = prep.summary.rho
    tested_sets = list(DEFAULT_J_SETS)
    full = tuple(range(1, horizon // 2 + 1))
    if full and full not in tested_sets:
        tested_sets.append(full)
    tested_sets = [j_set for j_set in tested_sets if 2 * max(j_set) - 1 <= horizon]
    longest = max(tested_sets, key=len, default=None)
    decided: dict = {}  # (psd, feasible) by sequence values
    for m in [prep.walks_seq, prep.closed_seq, *prep.rooted_seqs]:
        if m.values not in decided:
            decided[m.values] = (hankel_table(m, horizon // 2)[1],
                                 stieltjes_prefix(m, longest, rho + tol) if longest else 0)
        psd, feasible = decided[m.values]
        for order in range(horizon // 2 + 1):
            out.check(order < psd,
                      f"{name}: Hankel matrix of {m.kind} not PSD at order {order}")
        for j_set in tested_sets:
            out.check(len(j_set) <= feasible,
                      f"{name}: support conditions fail for {m.kind} at J={j_set}")


def _verify_sandwich(out: VerificationOutcome, prep: PreparedGraph,
                     tol: float) -> list[BoundResult]:
    """Check every swept bound (every vertex kept) against rho; return the rows."""
    rho = prep.summary.rho
    bounds = [r for r, _ in sweep_bounds(prep, sdp_orders=VERIFY_SDP_ORDERS,
                                         vertex_mode="all")]
    for r in bounds:
        gap = _gap(r, rho)
        if gap is None:
            continue
        out.checks += 1
        if r.kind == "lower":
            out.worst_lower_margin = max(out.worst_lower_margin, -gap)
        else:
            out.worst_upper_margin = max(out.worst_upper_margin, -gap)
        if gap < -tol:
            out.fail(f"{prep.entry.name}: {_crossing(r, rho)}")
    return bounds


_BELOW_EVEN_MOMENT = {
    "two_point": "two-point bound",
    "stieltjes_root": "odd-moment root",
    "bipartite_half": "halved bound",
}


def _verify_dominance(out: VerificationOutcome, prep: PreparedGraph,
                      rows: Sequence[BoundResult]) -> None:
    """Check the orderings of the bound hierarchy on one sweep's rows.

    Per sequence: the two-point, Stieltjes and halved bounds lie below the
    even-moment bound, which on walks lies below both the clique hierarchy
    and `baseline_eigvec_walk`; each quadratic root is at least its vertex
    value and, to four units in the last place, at least its determinant
    ratio; and `sdp` does not decrease with the order and is, to one unit
    in the last place, at least the ratio seeds m_{2s+1}/m_{2s} its blocks
    contain. Per graph: `local_triangle` is at least
    `baseline_sqrt_max_degree`. Only applicable rows are compared, and no
    bound is evaluated again.
    """
    name = prep.entry.name
    index: dict = {}
    for r in rows:
        p = r.params
        if r.applicable:
            index.setdefault((p.get("measure"), p.get("vertex")), {})[
                (r.name, p.get("s"), p.get("k"), p.get("n"))] = r
    classical = {r.name: r.value for r in rows if r.applicable}
    if {"local_triangle", "baseline_sqrt_max_degree"} <= classical.keys():
        out.check(classical["local_triangle"] >= classical["baseline_sqrt_max_degree"] - 1e-9,
                  f"{name}: local triangle bound below sqrt(max degree)")
    hierarchy = prep.connected and prep.omega is not None and prep.omega >= 2
    baselines = index.get((None, None), {})
    seqs = [prep.walks_seq, prep.closed_seq, *prep.rooted_seqs]
    blocks = sorted({(r.params["s"], r.params["k"]) for r in rows if r.name == "quadratic_root"})
    det_h, _, det_f = det_block_columns(moment_matrix(seqs), blocks)
    for i, m in enumerate(seqs):
        found = index.get((m.kind, m.vertex), {})
        sdp = sorted((n, r.value) for (bound, _, _, n), r in found.items() if bound == "sdp")
        for (o1, v1), (o2, v2) in zip(sdp, sdp[1:]):
            out.check(v2 >= v1,
                      f"{name}: support bound decreased from order {o1} to {o2} ({m.kind})")
        for (bound, s, k, _), r in found.items():
            if bound == "even_moment":
                for other, label in _BELOW_EVEN_MOMENT.items():
                    below = found.get((other, None, k, None))
                    if below is not None:
                        out.check(below.value <= r.value + 1e-9,
                                  f"{name}: {label} above even-moment bound ({m.kind}, k={k})")
                if hierarchy and m.kind == KIND_WALKS:
                    out.check(r.value <= nikiforov_clique_value(m, prep.omega, 2 * k) + 1e-9,
                              f"{name}: fundamental-weight bound above clique hierarchy (k={k})")
                eigvec_walk = baselines.get(("baseline_eigvec_walk", None, k, None))
                if eigvec_walk is not None and m.kind == KIND_WALKS:
                    # its weight floor 1/umax^2 is at most the fundamental weight
                    out.check(eigvec_walk.value >= r.value - 1e-9,
                              f"{name}: eigenvector walk bound below even-moment bound (k={k})")
            elif bound == "quadratic_root":
                j = blocks.index((s, k))
                floor = (abs(det_f[i, j]) / (2 * det_h[i, j])) ** (1.0 / k)
                out.check(r.value >= floor - 1e-9,
                          f"{name}: quadratic root below its vertex value ({m.kind}, s={s}, k={k})")
                det = found.get(("det_ratio", s, k, None))
                if det is not None and not det.trivial:
                    # the larger root is at least the geometric mean of both roots
                    out.check(det.value <= r.value + 4 * math.ulp(r.value),
                              f"{name}: determinant ratio above its quadratic root "
                              f"({m.kind}, s={s}, k={k})")
            elif bound == "ratio" and k == 1 and sdp and s <= sdp[-1][0]:
                # sdp is the largest float at or below a root that is at least
                # the exact m_{2s+1}/m_{2s}, whose correct rounding is the ratio
                out.check(math.nextafter(sdp[-1][1], math.inf) >= r.value,
                          f"{name}: support bound below ratio seed ({m.kind}, s={s})")


def run_verification(entries: Sequence[CorpusEntry], max_length: int = DEFAULT_MAX_LENGTH,
                     tol: float = DEFAULT_TOL) -> VerificationOutcome:
    """Run every module invariant over a corpus; collect violations."""
    out = VerificationOutcome()
    for entry in entries:
        before = len(out.violations)
        prep = prepare_graph(entry, max_length)
        _verify_structure(out, prep)
        _verify_walks(out, prep)
        _verify_spectrum(out, prep)
        _verify_moment_machinery(out, prep, tol)
        rows = _verify_sandwich(out, prep, tol)
        _verify_dominance(out, prep, rows)
        if len(out.violations) > before:
            out.offenders.append(entry)
    return out
