"""Upper bounds on the spectral radius from moment sequences with a known
leading-atom weight.

Every bound here removes the mass alpha_1 sitting at the top eigenvalue from
a walk measure and applies positivity of the remaining Hankel blocks. For
closed walks alpha_1 = 1 needs no spectral data; the walks and per-vertex
variants take their weight from the eigensolver and are flagged
oracle-assisted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .bounds_lower import BoundResult, _measure_params, _not_applicable
from .graph import Graph, degrees, is_bipartite, is_connected
from .moments import exact_determinant, hankel_matrix, hankel_pair_exact
from .spectrum import SpectralSummary
from .walks import KIND_CLOSED, KIND_CLOSED_AT, KIND_WALKS, MomentSequence

MIN_ATOM_WEIGHT = 1e-12

_ROOT_BISECT_TOL = 1e-10
_ROOT_FLOOR = 1e-12
_DET_NOISE_TOL = 1e-9


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


def _poly_tail(c_lin: int, c_const: int, lead: float, degree: int) -> Callable[[float], float]:
    """q(r) = c_lin*r + c_const - lead*r**degree, rescaled into float range."""
    shift = max(0, max(c_lin.bit_length(), c_const.bit_length()) - 900)
    a1 = float(c_lin >> shift)
    a0 = float(c_const >> shift)
    lead_scaled = math.ldexp(lead, -shift)

    def q(r: float) -> float:
        return a1 * r + a0 - lead_scaled * r ** degree

    return q


def _bisect_largest(q: Callable[[float], float], lo: float, hi: float,
                    tol: float = _ROOT_BISECT_TOL) -> float:
    """Shrink [lo, hi] with q(lo) >= 0 > q(hi); return the upper endpoint."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if q(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _largest_root(q: Callable[[float], float], start: float,
                  certify: float = 0.0) -> Optional[float]:
    """Largest real root of q, exploiting q < 0 strictly beyond that root.

    Expands upward from `start` until the negative tail is reached, then
    scans down geometrically: the first certified-positive value brackets the
    largest root regardless of sign wiggles further down. With `certify` > 0
    a bracket endpoint only counts when |q| clears that margin, so evaluation
    noise around a touching root is flagged (None) instead of mislocated;
    uncertain points are scanned past without moving the top anchor.
    """
    hi = max(start, 1.0)
    anchored = False
    for _ in range(600):
        if q(hi) < -certify:
            anchored = True
            break
        hi *= 1.5
    if not anchored:
        if certify > 0.0:
            return None
        raise ArithmeticError("polynomial never became negative during scan")
    lo = hi / 1.5
    while True:
        value = q(lo)
        if value > certify:
            break
        if value < -certify:
            hi = lo
        lo /= 1.5
        if lo < _ROOT_FLOOR:
            return None
    return _bisect_largest(q, lo, hi)


def even_moment_upper_bound(m: MomentSequence, weight: AtomWeight, k: int) -> BoundResult:
    """Single-position bound: rho <= (m_{2k} / alpha_1) ** (1/2k)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if 2 * k > m.max_index:
        raise ValueError(f"need m_{2 * k}, have up to m_{m.max_index}")
    params = _measure_params(m, k=k, alpha1=weight.alpha1)
    if weight.alpha1 <= MIN_ATOM_WEIGHT:
        return _not_applicable("even_moment", "upper", "vanishing leading-atom weight", params)
    value = _ratio_root(m[2 * k], weight.alpha1, 1.0 / (2 * k))
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
    if m[0] <= 0:
        raise ValueError("zero total mass")
    params = _measure_params(m, k=k, alpha1=weight.alpha1)
    if weight.alpha1 <= MIN_ATOM_WEIGHT:
        return _not_applicable("two_point", "upper", "vanishing leading-atom weight", params)
    if weight.alpha1 > m[0] * (1.0 + 1e-9):
        raise ValueError("atom weight exceeds the measure's total mass")
    factor = max(0.0, m[0] / weight.alpha1 - 1.0)
    gram = m[0] * m[2 * k] - m[k] * m[k]
    if gram < 0:
        gram = 0
    root_k = m[k] / m[0] + math.sqrt(factor) * _sqrt_big(gram) / m[0]
    return BoundResult("two_point", "upper", root_k ** (1.0 / k), params,
                       oracle_assisted=_oracle_assisted(weight))


def eigvec_degree_upper_bound(g: Graph, summary: SpectralSummary) -> BoundResult:
    """Tightest vertex bound rho <= sqrt((1/x_i^2 - 1) d_i) over all vertices.

    x is the leading eigenvector of a connected graph, so every entry is
    positive; vertices with an entry below 1e-12 are skipped and counted.
    Also sanity-checks the equivalent eigenvector-entry inequality
    x_i <= 1 / sqrt(1 + rho^2/d_i). The reported vertex is the lowest index
    within 1e-12 relative of the minimum, so vertices that tie up to rounding
    on symmetric graphs do not make the label depend on the eigensolver.
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
    best_vertex = next(i for i, v in values.items() if v <= best * (1.0 + 1e-12))
    return BoundResult("eigvec_degree", "upper", best,
                       {"vertex": best_vertex, "skipped": skipped,
                        "rearranged_ok": rearranged_ok},
                       oracle_assisted=True)


def bipartite_upper_bound(m: MomentSequence, weight: AtomWeight, k: int, g: Graph) -> BoundResult:
    """Halved even-moment bound on bipartite graphs.

    Eigenvalues of a bipartite graph come in +/- pairs, so the even moments
    double-count the top atom: rho <= (m_{2k} / (2 alpha_1)) ** (1/2k).
    Only closed-walk measures (total or rooted) qualify.
    """
    if m.kind == KIND_WALKS:
        raise ValueError("the halved bound applies to closed-walk measures only")
    if k < 1:
        raise ValueError("need k >= 1")
    if 2 * k > m.max_index:
        raise ValueError(f"need m_{2 * k}, have up to m_{m.max_index}")
    params = _measure_params(m, k=k, alpha1=weight.alpha1)
    flag, _ = is_bipartite(g)
    if not flag:
        return _not_applicable("bipartite_half", "upper", "graph is not bipartite", params)
    if weight.alpha1 <= MIN_ATOM_WEIGHT:
        return _not_applicable("bipartite_half", "upper", "vanishing leading-atom weight", params)
    value = _ratio_root(m[2 * k], 2.0 * weight.alpha1, 1.0 / (2 * k))
    return BoundResult("bipartite_half", "upper", value, params,
                       oracle_assisted=_oracle_assisted(weight))


def hankel_root_upper_bound(m: MomentSequence, weight: AtomWeight,
                            index_set: Iterable[int],
                            scan_hint: Optional[float] = None) -> BoundResult:
    """Largest root of det(H_J - alpha_1 * R_J(r)) as an upper bound.

    R_J(r) has entries r**(j_a + j_b - 2). The polynomial's leading
    coefficient is -alpha_1 det(H_{J'}) with J' = J minus its largest index,
    so requiring det(H_{J'}) > 0, decided on the exact integer moments,
    guarantees a negative tail; the largest real root is then located by a
    descending scan plus bisection.
    `scan_hint` seeds the scan (any value near a known upper bound helps,
    e.g. max degree + 1) but correctness does not depend on it.
    """
    indices = tuple(sorted(set(int(j) for j in index_set)))
    params = _measure_params(m, J=list(indices), alpha1=weight.alpha1)
    if len(indices) < 2:
        return _not_applicable("hankel_root", "upper",
                               "needs at least two positions (constant polynomial)", params)
    if weight.alpha1 <= MIN_ATOM_WEIGHT:
        return _not_applicable("hankel_root", "upper", "vanishing leading-atom weight", params)
    h, sigma = hankel_matrix(m, indices)
    if exact_determinant(hankel_pair_exact(m, indices[:-1])[0]) <= 0:
        return _not_applicable("hankel_root", "upper",
                               "leading Hankel block not positive definite", params)
    exponents = np.array([j - 1 for j in indices], dtype=float)
    powers = exponents[:, None] + exponents[None, :]
    alpha = weight.alpha1
    size = len(indices)

    # Work in the rescaled radius variable r/sigma, where the Hankel entries
    # are m_k / sigma**k; the root transfers back by one multiplication.
    # The determinant is normalized by the matrix scale so that rounding
    # noise in near-singular cases (a measure whose bulk vanishes makes the
    # polynomial a perfect square touching zero) stays comparable across r,
    # and the certified scan flags such cases instead of misrooting them.
    def q(scaled_r: float) -> float:
        mat = h - alpha * scaled_r ** powers
        scale_r = max(1.0, float(np.max(np.abs(mat))))
        return float(np.linalg.det(mat)) / scale_r ** size

    root = _largest_root(q, (scan_hint or 1.0) / sigma, certify=_DET_NOISE_TOL)
    if root is None:
        return _not_applicable("hankel_root", "upper", "degenerate: no positive root located",
                               params)
    return BoundResult("hankel_root", "upper", root * sigma, params,
                       oracle_assisted=_oracle_assisted(weight))


def stieltjes_root_upper_bound(m: MomentSequence, weight: AtomWeight, k: int) -> BoundResult:
    """Largest root of m_{2k} r + m_{2k+1} - 2 alpha_1 r**(2k+1).

    On the positive axis this polynomial rises from m_{2k+1} >= 0 to a single
    maximum and then falls, so the largest root is unique and never exceeds
    the even-moment bound. For k = 0 the polynomial is linear and only has
    the right shape when m_0 < 2 alpha_1.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if 2 * k + 1 > m.max_index:
        raise ValueError(f"need m_{2 * k + 1}, have up to m_{m.max_index}")
    params = _measure_params(m, k=k, alpha1=weight.alpha1)
    alpha = weight.alpha1
    if alpha <= MIN_ATOM_WEIGHT:
        return _not_applicable("stieltjes_root", "upper", "vanishing leading-atom weight", params)
    m2k = m[2 * k]
    m2k1 = m[2 * k + 1]
    assisted = _oracle_assisted(weight)
    if m2k == 0 and m2k1 == 0:
        # all mass at the origin: the spectral radius is zero
        return BoundResult("stieltjes_root", "upper", 0.0, params, oracle_assisted=assisted)
    if m2k == 0:
        return _not_applicable("stieltjes_root", "upper",
                               "zero even moment with non-zero odd moment", params)
    if k == 0:
        slope = m[0] - 2.0 * alpha
        if slope >= -1e-12:
            return _not_applicable("stieltjes_root", "upper",
                                   "degenerate linear case: non-negative leading coefficient",
                                   params)
        value = _ratio_root(m2k1, -slope, 1.0)
        return BoundResult("stieltjes_root", "upper", value, params, oracle_assisted=assisted)
    q = _poly_tail(m2k, m2k1, 2.0 * alpha, 2 * k + 1)
    even = _ratio_root(m2k, alpha, 1.0 / (2 * k))
    root = _largest_root(q, even + 1.0)
    if root is None:
        return _not_applicable("stieltjes_root", "upper", "degenerate: no positive root located",
                               params)
    assert root <= even * (1.0 + 1e-12) + 1e-9
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
    w2k = m_w[2 * k]
    w2k1 = m_w[2 * k + 1]
    if w2k == 0 and w2k1 == 0:
        return BoundResult("clique_root", "upper", 0.0, params)
    coeff = 2.0 * omega / (omega - 1.0)
    q = _poly_tail(w2k, w2k1, coeff, 2 * k + 2)
    reference = _ratio_root(w2k, omega / (omega - 1.0), 1.0 / (2 * k + 1))
    root = _largest_root(q, reference)
    if root is None:
        return _not_applicable("clique_root", "upper", "degenerate: no positive root located",
                               params)
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
    out: list[BoundResult] = []
    connected = is_connected(g)

    for k in ks:
        if k > m_w.max_index:
            raise ValueError(f"need w_{k}, have up to w_{m_w.max_index}")
        if omega < 2:
            value = 0.0
        else:
            value = _ratio_root(m_w[k], omega / (omega - 1.0), 1.0 / (k + 1))
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
            value = _ratio_root(m_w[2 * k], 1.0, 1.0 / (2 * k)) * umax ** (1.0 / k)
            out.append(BoundResult("baseline_eigvec_walk", "upper", value, {"k": k},
                                   oracle_assisted=True))
        if usum > 1e-12:
            value = _ratio_root(m_w[k], usum / umax, 1.0 / k)
            out.append(BoundResult("baseline_van_mieghem", "upper", value, {"k": k},
                                   oracle_assisted=True))
    return out
