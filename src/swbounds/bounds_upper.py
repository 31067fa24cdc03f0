"""Upper bounds on the spectral radius from moment sequences with a known
leading-atom weight.

Every bound here removes the mass alpha_1 sitting at the top eigenvalue from
a walk measure and applies positivity of the remaining Hankel blocks. For
closed walks alpha_1 = 1 needs no spectral data; the walks and per-vertex
variants take their weight from the eigensolver and are flagged
oracle-assisted.

The Hankel, Stieltjes and clique root bounds are the largest real roots of
polynomials with exact integer coefficients (the weight enters as the exact
ratio of its float). Each is the upper end of the bracket from
`roots.largest_real_root_bracket`: the polynomial is provably negative
beyond the reported value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .bounds_lower import VERTEX_TIE_TOL, BoundResult, _not_applicable
from .graph import Graph, degrees, is_bipartite, is_connected
from .moments import _validated_indices, exact_determinant
from .roots import largest_real_root_bracket, no_real_root_above
from .spectrum import SpectralSummary
from .walks import KIND_CLOSED, KIND_CLOSED_AT, KIND_WALKS, MomentSequence

MIN_ATOM_WEIGHT = 1e-12


@dataclass(frozen=True)
class AtomWeight:
    """Mass alpha_1 that a walk measure places on the top eigenvalue.

    source records which measure kind produced it: 1 for closed walks, the
    squared leading-eigenvector entry for a rooted measure, the squared
    eigenvector sum for total walks.
    """

    alpha1: float
    source: str


def atom_weight_for(m: MomentSequence, summary: Optional[SpectralSummary] = None) -> AtomWeight:
    """The leading-atom weight matching a moment sequence's kind."""
    if m.kind == KIND_CLOSED:
        return AtomWeight(1.0, KIND_CLOSED)
    if summary is None:
        raise ValueError("walks and rooted measures need an eigendecomposition")
    if m.kind == KIND_CLOSED_AT:
        return AtomWeight(float(summary.vertex_weights[m.vertex, 0]), KIND_CLOSED_AT)
    return AtomWeight(float(summary.weight_sums[0]), KIND_WALKS)


def _oracle_assisted(weight: AtomWeight) -> bool:
    return weight.source != KIND_CLOSED


def _sqrt_big(x: int) -> float:
    """Float square root of a non-negative int, safe beyond float range."""
    if x.bit_length() <= 1022:
        return math.sqrt(x)
    shift = (x.bit_length() - 1000 + 1) // 2 * 2
    return math.ldexp(math.sqrt(x >> shift), shift // 2)


def _ratio_root(num: int, den: float, inv_exp: float) -> float:
    """(num / den) ** inv_exp for a big non-negative int numerator."""
    if num == 0:
        return 0.0
    if num.bit_length() <= 1020:
        return (num / den) ** inv_exp
    return math.exp((math.log(num) - math.log(den)) * inv_exp)


def even_moment_upper_bound(m: MomentSequence, weight: AtomWeight, k: int) -> BoundResult:
    """Single-position bound: rho <= (m_{2k} / alpha_1) ** (1/2k)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if 2 * k > m.max_index:
        raise ValueError(f"need m_{2 * k}, have up to m_{m.max_index}")
    params = {**m.params_head, "k": k, "alpha1": weight.alpha1}
    if weight.alpha1 <= MIN_ATOM_WEIGHT:
        return _not_applicable("even_moment", "upper", "vanishing leading-atom weight", params)
    value = _ratio_root(m.values[2 * k], weight.alpha1, 1.0 / (2 * k))
    return BoundResult("even_moment", "upper", value, params,
                       oracle_assisted=_oracle_assisted(weight))


def two_point_upper_bound(m: MomentSequence, weight: AtomWeight, k: int) -> BoundResult:
    """Two-position refinement of the even-moment bound.

    rho**k <= (m_k + sqrt((m_0/alpha_1 - 1)(m_0 m_{2k} - m_k^2))) / m_0.
    The Gram determinant is computed exactly; tiny negative excursions of the
    weight factor (rounded eigenvector data) are clamped to zero.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if 2 * k > m.max_index:
        raise ValueError(f"need m_{2 * k}, have up to m_{m.max_index}")
    m0, mk, m2k = m.values[0], m.values[k], m.values[2 * k]
    if m0 <= 0:
        raise ValueError("zero total mass")
    params = {**m.params_head, "k": k, "alpha1": weight.alpha1}
    if weight.alpha1 <= MIN_ATOM_WEIGHT:
        return _not_applicable("two_point", "upper", "vanishing leading-atom weight", params)
    if weight.alpha1 > m0 * (1.0 + 1e-9):
        raise ValueError("atom weight exceeds the measure's total mass")
    factor = max(0.0, m0 / weight.alpha1 - 1.0)
    gram = m0 * m2k - mk * mk
    if gram < 0:
        gram = 0
    root_k = mk / m0 + math.sqrt(factor) * _sqrt_big(gram) / m0
    return BoundResult("two_point", "upper", root_k ** (1.0 / k), params,
                       oracle_assisted=_oracle_assisted(weight))


def eigvec_degree_upper_bound(g: Graph, summary: SpectralSummary) -> BoundResult:
    """Tightest vertex bound rho <= sqrt((1/x_i^2 - 1) d_i) over all vertices.

    x is the leading eigenvector of a connected graph, so every entry is
    positive; vertices with an entry below 1e-12 are skipped and counted.
    Also sanity-checks the equivalent eigenvector-entry inequality
    x_i <= 1 / sqrt(1 + rho^2/d_i). The reported vertex is the lowest index
    within VERTEX_TIE_TOL relative of the minimum, so vertices that tie up
    to rounding on symmetric graphs do not make the label depend on the
    eigensolver.
    """
    if not is_connected(g):
        return _not_applicable("eigvec_degree", "upper", "graph is not connected", {})
    d, _ = degrees(g)
    x = summary.eigenvectors[:, 0]
    rho = summary.rho
    values: dict[int, float] = {}
    skipped = 0
    rearranged_ok = True
    for i in range(g.n):
        xi = float(x[i])
        if xi <= 1e-12:
            skipped += 1
            continue
        values[i] = math.sqrt(max(0.0, (1.0 / (xi * xi) - 1.0)) * d[i])
        if d[i] > 0 and xi > 1.0 / math.sqrt(1.0 + rho * rho / d[i]) + 1e-9:
            rearranged_ok = False
    if not values:
        return _not_applicable("eigvec_degree", "upper", "all eigenvector entries vanish",
                               {"skipped": skipped})
    best = min(values.values())
    best_vertex = next(i for i, v in values.items() if v <= best * (1.0 + VERTEX_TIE_TOL))
    return BoundResult("eigvec_degree", "upper", best,
                       {"vertex": best_vertex, "skipped": skipped,
                        "rearranged_ok": rearranged_ok},
                       oracle_assisted=True)


def bipartite_upper_bound(m: MomentSequence, weight: AtomWeight, k: int,
                          g: Graph | bool) -> BoundResult:
    """Halved even-moment bound on bipartite graphs.

    Eigenvalues of a bipartite graph come in +/- pairs, so the even moments
    double-count the top atom: rho <= (m_{2k} / (2 alpha_1)) ** (1/2k).
    Only closed-walk measures (total or rooted) qualify. `g` is the graph,
    or whether it is bipartite when the caller has decided that once per
    graph already (as `report.prepare_graph` does).
    """
    if m.kind == KIND_WALKS:
        raise ValueError("the halved bound applies to closed-walk measures only")
    if k < 1:
        raise ValueError("need k >= 1")
    if 2 * k > m.max_index:
        raise ValueError(f"need m_{2 * k}, have up to m_{m.max_index}")
    params = {**m.params_head, "k": k, "alpha1": weight.alpha1}
    flag = g if isinstance(g, bool) else is_bipartite(g)[0]
    if not flag:
        return _not_applicable("bipartite_half", "upper", "graph is not bipartite", params)
    if weight.alpha1 <= MIN_ATOM_WEIGHT:
        return _not_applicable("bipartite_half", "upper", "vanishing leading-atom weight", params)
    value = _ratio_root(m.values[2 * k], 2.0 * weight.alpha1, 1.0 / (2 * k))
    return BoundResult("bipartite_half", "upper", value, params,
                       oracle_assisted=_oracle_assisted(weight))


def _adjugate(h: list[list[int]]) -> list[list[int]]:
    """Exact adjugate of a symmetric integer matrix: hand cofactors up to 3x3,
    Bareiss minors beyond."""
    size = len(h)
    if size == 2:
        return [[h[1][1], -h[0][1]], [-h[0][1], h[0][0]]]
    if size == 3:
        (a, b, c), (_, d, e), (_, _, f) = h
        return [[d * f - e * e, c * e - b * f, b * e - c * d],
                [c * e - b * f, a * f - c * c, b * c - a * e],
                [b * e - c * d, b * c - a * e, a * d - b * b]]
    adj = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(h) if k != j]
            adj[i][j] = adj[j][i] = (-1) ** (i + j) * exact_determinant(minor)
    return adj


def hankel_root_upper_bound(m: MomentSequence, weight: AtomWeight,
                            index_set: Iterable[int], *,
                            cutoff: float | None = None) -> BoundResult:
    """Largest root of det(H_J - alpha_1 * R_J(r)) as an upper bound.

    R_J(r) = v v^T with v = (r**(j-1) for j in J), so by the matrix
    determinant lemma the determinant is det H_J - alpha_1 v^T adj(H_J) v,
    which with alpha_1 = num/den times den is a polynomial in r with exact
    integer coefficients. Its leading coefficient is -num det(H_{J'}) with
    J' = J minus its largest index (the last diagonal entry of the
    adjugate), so det(H_{J'}) > 0 guarantees a negative tail; the largest
    real root is then bracketed by `largest_real_root_bracket`. When
    det H_J = 0 the polynomial is a negative multiple of a square and
    touches zero at its top root, which is found as a simple root of the
    square's base.

    With a cutoff > 0, a polynomial that one exact test
    (`no_real_root_above`) shows has a real root at or above the cutoff
    gets no bracket: the bound would be at least the cutoff, and the row
    comes back inapplicable.
    """
    indices = tuple(sorted(set(int(j) for j in index_set)))
    params = {**m.params_head, "J": list(indices), "alpha1": weight.alpha1}
    if len(indices) < 2:
        return _not_applicable("hankel_root", "upper",
                               "needs at least two positions (constant polynomial)", params)
    if weight.alpha1 <= MIN_ATOM_WEIGHT:
        return _not_applicable("hankel_root", "upper", "vanishing leading-atom weight", params)
    _validated_indices(m, indices, 0)
    v = m.values
    h = [[v[ja + jb - 2] for jb in indices] for ja in indices]
    adj = _adjugate(h)
    if adj[-1][-1] <= 0:
        return _not_applicable("hankel_root", "upper",
                               "leading Hankel block not positive definite", params)
    det_h = sum(h[0][b] * adj[b][0] for b in range(len(indices)))
    if det_h:
        num, den = weight.alpha1.as_integer_ratio()
        coeffs = [0] * (2 * indices[-1] - 1)
        coeffs[0] = den * det_h
        for a, ja in enumerate(indices):
            for b, jb in enumerate(indices):
                coeffs[ja + jb - 2] -= num * adj[a][b]
    else:
        # H_J has rank |J| - 1, so adj(H_J) has rank one and the polynomial
        # is -num p(r)**2 / det(H_{J'}) with p = (last row of adj(H_J)) . v
        coeffs = [0] * indices[-1]
        for b, jb in enumerate(indices):
            coeffs[jb - 1] = adj[-1][b]
    if cutoff is not None and not no_real_root_above(coeffs, cutoff):
        return _not_applicable("hankel_root", "upper", "a root at or above the cutoff", params)
    return BoundResult("hankel_root", "upper", largest_real_root_bracket(coeffs)[1], params,
                       oracle_assisted=_oracle_assisted(weight))


def stieltjes_root_upper_bound(m: MomentSequence, weight: AtomWeight, k: int, *,
                               cutoff: float | None = None) -> BoundResult:
    """Largest root of m_{2k} r + m_{2k+1} - 2 alpha_1 r**(2k+1).

    On the positive axis this polynomial rises from m_{2k+1} >= 0 to a single
    maximum and then falls, so the largest root is unique and never exceeds
    the even-moment bound. For k = 0 the polynomial is linear and only has
    the right shape when m_0 < 2 alpha_1.

    With a cutoff > 0, a polynomial that one exact test
    (`no_real_root_above`) shows has its root at or above the cutoff gets
    no bracket, and the row comes back inapplicable; a second test still
    checks that the root is below the even-moment bound.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if 2 * k + 1 > m.max_index:
        raise ValueError(f"need m_{2 * k + 1}, have up to m_{m.max_index}")
    params = {**m.params_head, "k": k, "alpha1": weight.alpha1}
    alpha = weight.alpha1
    if alpha <= MIN_ATOM_WEIGHT:
        return _not_applicable("stieltjes_root", "upper", "vanishing leading-atom weight", params)
    m2k = m.values[2 * k]
    m2k1 = m.values[2 * k + 1]
    assisted = _oracle_assisted(weight)
    if m2k == 0 and m2k1 == 0:
        # all mass at the origin: the spectral radius is zero
        return BoundResult("stieltjes_root", "upper", 0.0, params, oracle_assisted=assisted)
    if m2k == 0:
        return _not_applicable("stieltjes_root", "upper",
                               "zero even moment with non-zero odd moment", params)
    num, den = alpha.as_integer_ratio()
    coeffs = [0] * (2 * k + 2)
    coeffs[0] = den * m2k1
    coeffs[1] = den * m2k
    coeffs[2 * k + 1] -= 2 * num  # for k = 0 it joins the linear term
    if k == 0 and coeffs[1] >= 0:
        return _not_applicable("stieltjes_root", "upper",
                               "degenerate linear case: non-negative leading coefficient",
                               params)
    # the even-moment bound, which the root never exceeds
    ceiling = _ratio_root(m2k, alpha, 1.0 / (2 * k)) * (1.0 + 1e-12) + 1e-9 if k else None
    if cutoff is not None and not no_real_root_above(coeffs, cutoff):
        assert ceiling is None or no_real_root_above(coeffs, ceiling)
        return _not_applicable("stieltjes_root", "upper", "a root at or above the cutoff",
                               params)
    root = largest_real_root_bracket(coeffs)[1]
    assert ceiling is None or root <= ceiling
    return BoundResult("stieltjes_root", "upper", root, params, oracle_assisted=assisted)


def clique_root_upper_bound(m_w: MomentSequence, omega: int, k: int) -> BoundResult:
    """Largest root of w_{2k} r + w_{2k+1} - 2 (omega/(omega-1)) r**(2k+2).

    Replaces the fundamental-weight mass with the clique-number bound on it,
    so no spectral data is needed. Always at least as tight as
    ((1 - 1/omega) w_{2k}) ** (1/(2k+1)).
    """
    if m_w.kind != KIND_WALKS:
        raise ValueError("clique-based bound needs the total-walk sequence")
    if k < 0:
        raise ValueError("need k >= 0")
    if 2 * k + 1 > m_w.max_index:
        raise ValueError(f"need w_{2 * k + 1}, have up to w_{m_w.max_index}")
    params = {"measure": m_w.kind, "k": k, "omega": omega}
    if omega < 2:
        return _not_applicable("clique_root", "upper", "edgeless graph (clique number < 2)",
                               params)
    w2k = m_w.values[2 * k]
    w2k1 = m_w.values[2 * k + 1]
    if w2k == 0 and w2k1 == 0:
        return BoundResult("clique_root", "upper", 0.0, params)
    coeffs = [0] * (2 * k + 3)
    coeffs[0] = (omega - 1) * w2k1
    coeffs[1] = (omega - 1) * w2k
    coeffs[2 * k + 2] = -2 * omega
    root = largest_real_root_bracket(coeffs)[1]
    reference = _ratio_root(w2k, omega / (omega - 1.0), 1.0 / (2 * k + 1))
    assert root <= reference * (1.0 + 1e-12) + 1e-9
    return BoundResult("clique_root", "upper", root, params)


def baseline_upper_bounds(g: Graph, m_w: MomentSequence, summary: SpectralSummary,
                          omega: int, ks: tuple[int, ...] = (1, 2, 3)) -> list[BoundResult]:
    """Classical comparison bounds: clique-number hierarchy, the
    fundamental-weight bound, and the two eigenvector-entry bounds.

    The eigenvector-based ones assume a connected graph (entrywise positive
    leading eigenvector) and are marked inapplicable otherwise.
    """
    if m_w.kind != KIND_WALKS:
        raise ValueError("baselines need the total-walk sequence")
    w = m_w.values
    out: list[BoundResult] = []
    connected = is_connected(g)

    for k in ks:
        if k > m_w.max_index:
            raise ValueError(f"need w_{k}, have up to w_{m_w.max_index}")
        if omega < 2:
            value = 0.0
        else:
            value = _ratio_root(w[k], omega / (omega - 1.0), 1.0 / (k + 1))
        out.append(BoundResult("baseline_nikiforov_clique", "upper", value,
                               {"k": k, "omega": omega}))

    if not connected:
        reason = "graph is not connected"
        out.append(_not_applicable("baseline_wilf", "upper", reason, {"omega": omega}))
        for k in ks:
            out.append(_not_applicable("baseline_eigvec_walk", "upper", reason, {"k": k}))
            out.append(_not_applicable("baseline_van_mieghem", "upper", reason, {"k": k}))
        return out

    fundamental = float(summary.weight_sums[0])
    wilf = 0.0 if omega < 2 else (1.0 - 1.0 / omega) * fundamental
    out.append(BoundResult("baseline_wilf", "upper", wilf, {"omega": omega},
                           oracle_assisted=True))

    x = summary.eigenvectors[:, 0]
    umax = float(np.max(x))
    usum = float(np.sum(x))
    for k in ks:
        if 2 * k <= m_w.max_index:
            value = _ratio_root(w[2 * k], 1.0, 1.0 / (2 * k)) * umax ** (1.0 / k)
            out.append(BoundResult("baseline_eigvec_walk", "upper", value, {"k": k},
                                   oracle_assisted=True))
        if usum > 1e-12:
            value = _ratio_root(w[k], usum / umax, 1.0 / k)
            out.append(BoundResult("baseline_van_mieghem", "upper", value, {"k": k},
                                   oracle_assisted=True))
    return out
