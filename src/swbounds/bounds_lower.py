"""Lower bounds on the spectral radius from walk-count moment sequences.

The closed-form bounds work on exact integer moments (2x2 determinants in
big-int arithmetic, rooted only at the final step); the classical
triangle/edge, vertex-local, walk-ratio and sqrt(max degree) bounds are
labelled quadratic-root and ratio rows of them. The semidefinite bound,
the smallest u with both u*H_n - S_n and u*H_n + S_n PSD, is the largest
|zero| of the measure's orthogonal polynomial det(x*H_r - S_r), whose
coefficients are exact integers. Each top zero is reported as the lower
end of its certified bracket, at which an exact Descartes/Sturm test finds
a real root at or above it, so the bound never exceeds rho; no float matrix
or tolerance is involved.

Each closed-form family has one implementation, its array routine
(`ratio_columns`, ...): every (twin class, column) cell of a dtype=object
matrix of distinct sequences at once, in exact int arithmetic up to a
Python `**` per cell. A sweep fills every cell in one pass; a kernel
(`ratio_lower_bound`, ...) reads its one cell from a one-row matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .moments import hankel_table, orthogonal_polynomial
from .roots import largest_real_root_bracket, no_real_root_above, sign_at
from .walks import KIND_CLOSED, KIND_CLOSED_AT, KIND_WALKS, MomentSequence

# Per-vertex values within this relative distance of the best one tie, and
# the lowest tied vertex is reported, so vertices that agree up to rounding
# on a symmetric graph do not make the label depend on the last bits.
VERTEX_TIE_TOL = 1e-12


def reported_vertex(outcomes: Sequence, kind: str) -> int:
    """The vertex whose row is reported, from per-vertex outcomes (floats or
    `Dead`), in vertex order.

    The best live value (never NaN) is the max for a lower bound and the
    min for an upper one. The lowest vertex within VERTEX_TIE_TOL relative
    of the best (or equal to an infinite best) is reported; its value is
    still a valid bound. A vertex no better than a lower vertex is never
    reported: when it is within the tolerance, so is that vertex. With no
    live row, the first trivial row is reported, or else vertex 0's.

    One pass keeps the best value so far and the lowest vertex tied with
    it. A better value only narrows the tie, so when it leaves that vertex
    out, the search for the lowest one still tied resumes from it: no
    outcome is read more than twice.
    """
    lower = kind == "lower"
    best = pick = None
    for i, v in enumerate(outcomes):
        if isinstance(v, Dead):
            continue
        if best is None:
            if v == v:  # a NaN is never live
                best, pick = v, i
        elif v > best if lower else v < best:
            best = v
            slack = VERTEX_TIE_TOL * abs(v) if math.isfinite(v) else 0.0
            while isinstance(o := outcomes[pick], Dead) or not (o == v or abs(o - v) <= slack):
                pick += 1
    if best is None:
        return next((i for i, o in enumerate(outcomes) if isinstance(o, Dead) and o.trivial), 0)
    return pick


@dataclass(slots=True)
class BoundResult:
    """One evaluated bound: a named value with its parameters and status.

    `applicable` is False when a precondition failed (reason says why);
    `trivial` marks vacuous results reported as 0 so sweeps stay total.
    `oracle_assisted` flags bounds whose inputs came from an eigensolver.

    A sweep builds one record per reported row: for a rooted family it
    picks among the outcomes of the twin classes and builds the record of
    the vertex it reports only. The record is slotted and not frozen, since a
    frozen `__init__` costs several times the arithmetic of a closed-form
    bound. Callers treat it as read-only and derive variants with
    `dataclasses.replace`.
    """

    name: str
    kind: str
    value: float
    params: dict = field(default_factory=dict)
    applicable: bool = True
    reason: str | None = None
    trivial: bool = False
    oracle_assisted: bool = False


class Dead(NamedTuple):
    """The outcome of a row that is not live: inapplicable for `reason`, or,
    when `trivial`, vacuous and reported as 0 for that reason."""

    reason: str
    trivial: bool = False


# The outcomes of dead rows, built once: a sweep meets them at every vertex.
_ZERO_EVEN_MOMENT = Dead("zero even moment m_{2s}")
_SINGULAR_BLOCK = Dead("singular Hankel block")
_BLOCK_NOT_PSD = Dead("Hankel block not PSD")
_VACUOUS_DET_RATIO = Dead("non-positive shifted determinant", trivial=True)
_BLOCK_NOT_PD = Dead("Hankel block not positive definite")
_HANKEL_NOT_PSD = Dead("Hankel matrix not PSD")
_ZEROS_BELOW_CUTOFF = Dead("every zero below the cutoff")


def outcome_row(name: str, kind: str, params: dict, outcome: float | Dead,
                oracle_assisted: bool = False) -> BoundResult:
    """The record of one row from its outcome: a live float value, or a Dead.

    The array and value routines (`ratio_columns`, `sdp_value`, ...) return
    outcomes, so a sweep can pick among them and build the record of the
    vertex it reports; only live rows carry `oracle_assisted`.
    """
    if not isinstance(outcome, Dead):
        # positional: this is the per-row path of a sweep that keeps every vertex
        return BoundResult(name, kind, outcome, params, True, None, False, oracle_assisted)
    # a trivial row is applicable and reported as 0; any other dead row is not
    return BoundResult(name, kind, 0.0 if outcome.trivial else math.nan, params,
                       applicable=outcome.trivial, reason=outcome.reason, trivial=outcome.trivial)


def outcome_table(live: np.ndarray, values: np.ndarray,
                  deads: Sequence[tuple[np.ndarray, Dead]]) -> np.ndarray:
    """The result of an array routine: the dtype=object table of outcomes,
    `values` (Python floats, in the row-major order of the `live` cells)
    and the Dead of each disjoint mask of `deads`."""
    table = np.empty(live.shape, dtype=object)
    table[live] = values
    for mask, dead in deads:
        held = np.empty((), dtype=object)
        held[()] = dead  # a 0-d array, so the tuple fills each cell whole
        table[mask] = held
    return table


def spread(items: Sequence, mask: np.ndarray, per_row: bool = False) -> np.ndarray:
    """One Python object per column (or per row), repeated over the `mask`
    cells in their row-major order; a dtype=object array, so no element
    becomes a numpy scalar (whose `**` is numpy's pow, not Python's)."""
    items = np.array(items, dtype=object)
    return np.broadcast_to(items[:, None] if per_row else items, mask.shape)[mask]


def moment_matrix(seqs: Sequence[MomentSequence], length: int | None = None) -> np.ndarray:
    """The first `length` moments (all when None) of each sequence, as the
    rows of the dtype=object matrix the array routines read."""
    return np.array([m.values[:length] for m in seqs], dtype=object)


def _require_range(m: MomentSequence, s: int, k: int, top: int) -> None:
    if s < 0 or k < 1:
        raise ValueError("need s >= 0 and k >= 1")
    if top > m.max_index:
        raise ValueError(f"need m_{top}, have up to m_{m.max_index}")


def ratio_lower_bound(m: MomentSequence, s: int, k: int) -> BoundResult:
    """Moment-ratio bound: rho**k >= m_{2s+k} / m_{2s}.

    The ratio is taken on exact integers and rooted at the end, so regular
    graphs come out exact.
    """
    _require_range(m, s, k, 2 * s + k)
    return ratio_row(m, s, k, ratio_columns(moment_matrix([m]), [(s, k)])[0, 0])


def ratio_columns(moments: np.ndarray, params: Sequence[tuple[int, int]]) -> np.ndarray:
    """(m_{2s+k} / m_{2s}) ** (1/k) of each row of `moments` (a dtype=object
    matrix of distinct sequences) at each (s, k) column of `params`, where
    m_{2s} != 0: the int/int division and Python `**` in one object pass."""
    den = moments[:, [2 * s for s, _ in params]]
    num = moments[:, [2 * s + k for s, k in params]]
    live = den != 0
    values = (num[live] / den[live]) ** spread([1.0 / k for _, k in params], live)
    return outcome_table(live, values, [(~live, _ZERO_EVEN_MOMENT)])


def ratio_row(m: MomentSequence, s: int, k: int, outcome: float | Dead) -> BoundResult:
    return outcome_row("ratio", "lower", {**m.params_head, "s": s, "k": k}, outcome)


def det_block_columns(moments: np.ndarray, params: Sequence[tuple[int, int]]) -> tuple:
    """The exact determinants (det H, det S, det F) of the strided 2x2 blocks
    of m_{2s+ik}, i = 0..3, of each row of `moments` (a dtype=object matrix
    of distinct sequences) at each (s, k) column of `params`: three matrices,
    which `det_ratio_columns` and `quadratic_root_columns` share."""
    m0, m1, m2, m3 = (moments[:, [2 * s + i * k for s, k in params]] for i in range(4))
    return m0 * m2 - m1 * m1, m1 * m3 - m2 * m2, m1 * m2 - m3 * m0


def _block_column(routine, seqs: Sequence[MomentSequence], s: int, k: int) -> list:
    """The outcome of each sequence at one (s, k) column of a `routine` that
    reads the `det_block_columns`."""
    params = [(s, k)]
    moments = moment_matrix(seqs, 2 * s + 3 * k + 1)
    return routine(det_block_columns(moments, params), params)[:, 0].tolist()


def det_ratio_lower_bound(m: MomentSequence, s: int, k: int) -> BoundResult:
    """Determinant-ratio bound: rho**(2k) >= det(S block) / det(H block).

    Vacuous (det S <= 0) cases return 0 flagged trivial, since rho >= 0
    always holds; an H block whose exact determinant is not positive makes
    the bound inapplicable.
    """
    _require_range(m, s, k, 2 * s + 3 * k)
    return det_ratio_row(m, s, k, _block_column(det_ratio_columns, [m], s, k)[0])


def det_ratio_columns(blocks: tuple, params: Sequence[tuple[int, int]]) -> np.ndarray:
    """(det S / det H) ** (1/(2k)) at each (s, k) column from the
    `det_block_columns`, as `ratio_columns`: inapplicable where det H is not
    positive, and vacuous where det S is not."""
    det_h, det_s, _ = blocks
    positive = det_h > 0
    live = positive & (det_s > 0)
    values = (det_s[live] / det_h[live]) ** spread([1.0 / (2 * k) for _, k in params], live)
    deads = [(det_h == 0, _SINGULAR_BLOCK), (det_h < 0, _BLOCK_NOT_PSD),
             (positive & ~live, _VACUOUS_DET_RATIO)]
    return outcome_table(live, values, deads)


def det_ratio_row(m: MomentSequence, s: int, k: int, outcome: float | Dead) -> BoundResult:
    return outcome_row("det_ratio", "lower", {**m.params_head, "s": s, "k": k}, outcome)


def quadratic_root_lower_bound(m: MomentSequence, s: int, k: int) -> BoundResult:
    """Largest-root bound from the strided 2x2 feasibility quadratic.

    rho**k is at least the largest root of
    det(H) r^2 - |det(F)| r + det(S), all determinants exact integers. That
    is det(r*H - S) or its mirror r -> -r, whose zeros are real for a
    positive measure, so the exact discriminant is negative only for a
    sequence that is no moment sequence, passed to this kernel. It is then
    clamped to zero, which falls back to the vertex value |det F| / (2 det H).
    """
    _require_range(m, s, k, 2 * s + 3 * k)
    return quadratic_root_row(m, s, k, _block_column(quadratic_root_columns, [m], s, k)[0])


def quadratic_root_columns(blocks: tuple, params: Sequence[tuple[int, int]]) -> np.ndarray:
    """(|det F| / (2 det H) + sqrt(disc / (4 det H^2))) ** (1/k), the exact
    disc = det F^2 - 4 det H det S clamped at zero, at each (s, k) column
    from the `det_block_columns`, as `ratio_columns`, where det H > 0; the
    float sum and square root are IEEE-exact in float64, so equal Python's."""
    det_h, det_s, det_f = blocks
    live = det_h > 0
    h, f = det_h[live], det_f[live]
    h4 = 4 * h
    disc = f * f - h4 * det_s[live]
    disc[disc < 0] = 0
    root_k = (np.abs(f) / (2 * h)).astype(float) + np.sqrt((disc / (h4 * h)).astype(float))
    values = root_k.astype(object) ** spread([1.0 / k for _, k in params], live)
    return outcome_table(live, values, [(~live, _BLOCK_NOT_PD)])


def quadratic_root_row(m: MomentSequence, s: int, k: int,
                       outcome: float | Dead) -> BoundResult:
    return outcome_row("quadratic_root", "lower", {**m.params_head, "s": s, "k": k}, outcome)


def triangle_edge_lower_bound(m: MomentSequence,
                              outcome: float | Dead | None = None) -> BoundResult:
    """Triangle/edge bound rho >= 3T/2e + sqrt((3T/2e)^2 + 2e/n): the row
    `triangle_edge`, the (s=0, k=1) quadratic root of the closed-walk
    sequence m = (n, 0, 2e, 6T). `outcome` is that quadratic root, when the
    caller has it."""
    if m.kind != KIND_CLOSED:
        raise ValueError("the triangle/edge bound needs the closed-walk sequence")
    _require_range(m, 0, 1, 3)
    if outcome is None:
        outcome = _block_column(quadratic_root_columns, [m], 0, 1)[0]
    return outcome_row("triangle_edge", "lower", {"triangles": m[3] // 6, "edges": m[2] // 2},
                       outcome)


def local_triangle_lower_bound(rooted: Sequence[MomentSequence],
                               outcomes: Sequence | None = None) -> BoundResult:
    """Vertex-local bound rho >= (T_i + sqrt(T_i^2 + d_i^3)) / d_i: the row
    `local_triangle`, the (s=0, k=1) quadratic root of each rooted sequence
    m = (1, 0, d_i, 2T_i) (inapplicable at an isolated vertex), at the vertex
    `reported_vertex` picks, with the sqrt(max degree) it always dominates.
    `outcomes` are those quadratic roots, when the caller has them."""
    if any(m.kind != KIND_CLOSED_AT or m.max_index < 3 for m in rooted):
        raise ValueError("the local triangle bound needs the rooted sequences up to m_3")
    if outcomes is None:
        outcomes = _block_column(quadratic_root_columns, rooted, 0, 1)
    i = reported_vertex(outcomes, "lower")
    sqrt_delta = math.sqrt(max(m.values[2] for m in rooted))
    return outcome_row("local_triangle", "lower",
                       {"vertex": rooted[i].vertex, "sqrt_max_degree": sqrt_delta}, outcomes[i])


def sqrt_max_degree_lower_bound(rooted: Sequence[MomentSequence],
                                outcomes: Sequence | None = None) -> BoundResult:
    """Max-degree bound rho >= sqrt(d_i): the row `baseline_sqrt_max_degree`,
    the (s=0, k=2) ratio of each rooted sequence m = (1, 0, d_i, ...) at the
    vertex `reported_vertex` picks. `outcomes` are those ratios, when the
    caller has them."""
    if any(m.kind != KIND_CLOSED_AT or m.max_index < 2 for m in rooted):
        raise ValueError("the sqrt(max degree) bound needs the rooted sequences up to m_2")
    if outcomes is None:
        outcomes = ratio_columns(moment_matrix(rooted, 3), [(0, 2)])[:, 0].tolist()
    return outcome_row("baseline_sqrt_max_degree", "lower", {},
                       outcomes[reported_vertex(outcomes, "lower")])


def sdp_lower_bound(m: MomentSequence, order: int) -> BoundResult:
    """Minimal u with u*H_order +/- S_order both PSD, certified from below.

    The blocks use positions 1..order+1. With r + 1 the number of positive
    leading minors of H_order (all of them when it is definite; fewer when
    the measure has at most r + 1 atoms, and then order r already gives the
    optimum), that u is the largest |zero| of the Gauss-node polynomial
    c(x) = det(x*H_r - S_r), whose integer coefficients come from
    `orthogonal_polynomial`. The value is the largest of 0 and the top
    zeros of c(x) and (-1)**(r+1) c(-x), each the lower end of its bracket
    from `largest_real_root_bracket`, so it never exceeds that u, which is
    at most rho.
    """
    return sdp_row(m, order, sdp_value(m, hankel_table(m, order), order))


def _zeros_below(poly: list[int], u: float) -> bool:
    """Whether every real zero of an integer polynomial with a positive
    leading coefficient and a negative lower one lies below the float u > 0."""
    if sign_at(poly, u) <= 0:
        return False  # positive at infinity, so a zero at or above u
    signs = [x > 0 for x in poly if x]
    if sum(a != b for a, b in zip(signs, signs[1:])) == 1:
        return True  # the one positive zero lies below u
    return no_real_root_above(poly, u)  # exact, since u is no zero


def sdp_value(m: MomentSequence, table: tuple, order: int, *,
              cutoff: float | None = None) -> float | Dead:
    """The outcome of `sdp_lower_bound`, read from m's `hankel_table` at any top >= order.

    With a cutoff u > 0 the row is ruled out, without a bracket, when every
    zero of both polynomials lies below u: then the value is below u too.
    The polynomials are tested in turn until one has a zero at or above u,
    and from there on bracketed. A polynomial is negative on (0, z) and
    positive beyond its top zero z when its coefficients change sign once
    (Descartes' rule), so its exact sign at u (`sign_at`) decides; with
    more changes a negative or zero value still shows a zero at or above u,
    and a positive one leaves the question to `no_real_root_above`. Given
    u = nextafter(b, inf) for a running best b, exactly the vertices whose
    value would be no more than b are ruled out.
    """
    c = orthogonal_polynomial(table, order)
    if c is None:
        return _HANKEL_NOT_PSD
    degree = len(c) - 1
    mirrored = [-x if (degree - j) % 2 else x for j, x in enumerate(c)]
    value = 0.0
    ruled_out = cutoff is not None  # no polynomial so far has a zero at or above it
    for poly in (c, mirrored):
        # real zeros and a positive leading coefficient: by Descartes' rule
        # a positive zero exists exactly when a lower coefficient is negative
        if any(x < 0 for x in poly[:-1]):
            if ruled_out and _zeros_below(poly, cutoff):
                continue
            ruled_out = False
            value = max(value, largest_real_root_bracket(poly)[0])
    if ruled_out:
        return _ZEROS_BELOW_CUTOFF
    return value


def sdp_row(m: MomentSequence, order: int, outcome: float | Dead) -> BoundResult:
    return outcome_row("sdp", "lower", {**m.params_head, "n": order}, outcome)


# The classical walk-ratio baselines (w_{2s+k} / w_{2s}) ** (1/k): ratio(walks, s, k).
WALK_RATIO_BASELINES = (("baseline_w1_w0", 0, 1), ("baseline_sqrt_w2_w0", 0, 2),
                        ("baseline_sqrt_w4_w2", 1, 2), ("baseline_sqrt_w6_w4", 2, 2))


def baseline_lower_bounds(m_w: MomentSequence,
                          walk_ratios: dict | None = None) -> list[BoundResult]:
    """The classical walk-ratio bounds as labelled ratio rows: the four
    ratio(walks, s, k) within the horizon. `walk_ratios` ({(s, k): outcome})
    are those outcomes, when the caller has them all; else one
    `ratio_columns` call gives them."""
    if m_w.kind != KIND_WALKS:
        raise ValueError("baselines need the total-walk sequence")
    reached = [(s, k) for _, s, k in WALK_RATIO_BASELINES if 2 * s + k <= m_w.max_index]
    if walk_ratios is None or not all(p in walk_ratios for p in reached):
        walk_ratios = dict(zip(reached, ratio_columns(moment_matrix([m_w]), reached)[0].tolist()))
    return [outcome_row(name, "lower", {}, walk_ratios[s, k])
            for name, s, k in WALK_RATIO_BASELINES if (s, k) in reached]
