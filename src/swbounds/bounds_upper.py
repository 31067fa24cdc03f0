"""Upper bounds on the spectral radius from moment sequences with a known
leading-atom weight.

Every bound here removes the mass alpha_1 sitting at the top eigenvalue from
a walk measure and applies positivity of the remaining Hankel blocks. For
closed walks alpha_1 = 1 needs no spectral data; the walks and per-vertex
variants read it from the eigensolver (`atom_weight_for`, a plain float),
so their rows are flagged oracle-assisted. No bound reads a graph:
`eigvec_degree` is the rooted `two_point` row at k = 1, and
`baseline_eigvec_walk` the walk `even_moment` row with the weight floor
1/umax^2.

The Hankel, Stieltjes and clique root bounds are the largest real roots of
polynomials with exact integer coefficients (the weight enters as the exact
ratio of its float). Each is the upper end of the bracket from
`roots.largest_real_root_bracket`, or for the three-term Stieltjes and
clique polynomials from `roots.three_term_root_bracket`: the polynomial is
provably negative beyond the reported value.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds_lower import (BoundResult, Dead, moment_matrix, outcome_row, outcome_table,
                           reported_vertex, spread)
from .moments import _adjugate, _validated_indices, hankel_block
from .roots import (largest_real_root_bracket, no_real_root_above, sign_at,
                    three_term_root_bracket, three_term_sign)
from .spectrum import SpectralSummary
from .walks import KIND_CLOSED, KIND_CLOSED_AT, KIND_WALKS, MomentSequence

MIN_ATOM_WEIGHT = 1e-12


# The outcomes of dead rows, built once: a sweep meets them at every vertex.
_VANISHING_WEIGHT = Dead("vanishing leading-atom weight")
_NOT_BIPARTITE = Dead("graph is not bipartite")
_ONE_POSITION = Dead("needs at least two positions (constant polynomial)")
_LEADING_BLOCK_NOT_PD = Dead("leading Hankel block not positive definite")
_ROOT_ABOVE_CUTOFF = Dead("a root above the cutoff")
_ZERO_EVEN_NONZERO_ODD = Dead("zero even moment with non-zero odd moment")
_RISING_LINEAR = Dead("degenerate linear case: non-negative leading coefficient")
_EDGELESS = Dead("edgeless graph (clique number < 2)")
_NOT_CONNECTED = Dead("graph is not connected")


def atom_weight_for(m: MomentSequence, summary: Optional[SpectralSummary] = None) -> float:
    """The leading-atom weight alpha_1 matching a moment sequence's kind: 1
    for closed walks, the squared leading-eigenvector entry for a rooted
    measure, the squared eigenvector sum for total walks."""
    if m.kind == KIND_CLOSED:
        return 1.0
    if summary is None:
        raise ValueError("walks and rooted measures need an eigendecomposition")
    if m.kind == KIND_CLOSED_AT:
        return float(summary.vertex_weights[m.vertex, 0])
    return float(summary.weight_sums[0])


def _sqrt_big(x: int) -> float:
    """Float square root of a non-negative int, safe beyond float range."""
    if x.bit_length() <= 1022:
        return math.sqrt(x)
    shift = (x.bit_length() - 1000 + 1) // 2 * 2
    return math.ldexp(math.sqrt(x >> shift), shift // 2)


def _sqrt_big_cells(x: np.ndarray) -> np.ndarray:
    """`_sqrt_big` of each cell of a dtype=object int array, as float64:
    `np.sqrt` (IEEE-exact, so equal to `math.sqrt`) up to 1022 bits, and the
    shifted branch cell by cell beyond."""
    big = x >= 1 << 1022
    out = np.empty(x.shape)
    out[~big] = np.sqrt(x[~big].astype(float))
    out[big] = [_sqrt_big(v) for v in x[big]]
    return out


def _ratio_root(num: int, den: float, inv_exp: float) -> float:
    """(num / den) ** inv_exp for a big non-negative int numerator."""
    if num == 0:
        return 0.0
    if num.bit_length() <= 1020:
        return (num / den) ** inv_exp
    return math.exp((math.log(num) - math.log(den)) * inv_exp)


def _require_even_moment(m: MomentSequence, k: int) -> None:
    if k < 1:
        raise ValueError("need k >= 1")
    if 2 * k > m.max_index:
        raise ValueError(f"need m_{2 * k}, have up to m_{m.max_index}")


def even_moment_upper_bound(m: MomentSequence, alpha: float, k: int) -> BoundResult:
    """Single-position bound: rho <= (m_{2k} / alpha_1) ** (1/2k)."""
    _require_even_moment(m, k)
    return even_moment_row(m, alpha, k, even_moment_columns(moment_matrix([m]), [alpha], [k])[0, 0])


def _ratio_root_columns(moments: np.ndarray, alphas: Sequence[float], dens: Sequence[float],
                        ks: Sequence[int]) -> np.ndarray:
    """`_ratio_root(m_{2k}, den, 1/(2k))` at each k column for the rows whose
    alpha_1 does not vanish: the int/float division and Python `**` in one
    object pass below 2**1020, and the log/exp branch cell by cell above."""
    weighted = np.array([a > MIN_ATOM_WEIGHT for a in alphas])[:, None]
    live = np.broadcast_to(weighted, (len(alphas), len(ks)))
    num = moments[:, [2 * k for k in ks]][live]
    den = spread(dens, live, per_row=True)
    inv = spread([1.0 / (2 * k) for k in ks], live)
    small = num < 1 << 1020
    values = np.empty(num.shape, dtype=object)
    with np.errstate(all="ignore"):  # an int/float quotient past the float range is inf
        values[small] = (num[small] / den[small]) ** inv[small]
    values[~small] = [_ratio_root(*cell) for cell in zip(num[~small], den[~small], inv[~small])]
    return outcome_table(live, values, [(~live, _VANISHING_WEIGHT)])


def even_moment_columns(moments: np.ndarray, alphas: Sequence[float],
                        ks: Sequence[int]) -> np.ndarray:
    """(m_{2k} / alpha_1) ** (1/2k) of each row of `moments` (a dtype=object
    matrix, one row per distinct (sequence, alpha_1)) with its Python float
    `alphas` entry at each k of `ks`, dead where alpha_1 vanishes."""
    return _ratio_root_columns(moments, alphas, alphas, ks)


def even_moment_row(m: MomentSequence, alpha: float, k: int, outcome: float | Dead) -> BoundResult:
    params = {**m.params_head, "k": k, "alpha1": alpha}
    return outcome_row("even_moment", "upper", params, outcome, m.kind != KIND_CLOSED)


def two_point_upper_bound(m: MomentSequence, alpha: float, k: int) -> BoundResult:
    """Two-position refinement of the even-moment bound.

    rho**k <= (m_k + sqrt((m_0/alpha_1 - 1)(m_0 m_{2k} - m_k^2))) / m_0.
    The Gram determinant is computed exactly; tiny negative excursions of the
    weight factor (rounded eigenvector data) are clamped to zero.
    """
    _require_even_moment(m, k)
    return two_point_row(m, alpha, k, two_point_columns(moment_matrix([m]), [alpha], [k])[0, 0])


def two_point_columns(moments: np.ndarray, alphas: Sequence[float],
                      ks: Sequence[int]) -> np.ndarray:
    """((m_k + sqrt((m_0/alpha_1 - 1)(m_0 m_{2k} - m_k^2))) / m_0) ** (1/k),
    both factors clamped at zero, at each k column, as `even_moment_columns`;
    raises ValueError for the first row with no mass or a live alpha_1 above
    m_0. The ints are divided as objects; the product, quotient by m_0 and
    sum are IEEE-exact, so equal Python's in float64."""
    for m0, alpha in zip(moments[:, 0], alphas):
        if m0 <= 0:
            raise ValueError("zero total mass")
        if MIN_ATOM_WEIGHT < alpha and alpha > m0 * (1.0 + 1e-9):
            raise ValueError("atom weight exceeds the measure's total mass")
    weighted = [a > MIN_ATOM_WEIGHT for a in alphas]
    live = np.broadcast_to(np.array(weighted)[:, None], (len(alphas), len(ks)))
    m0 = spread(moments[:, 0], live, per_row=True)
    mk, m2k = (moments[:, [j * k for k in ks]][live] for j in (1, 2))
    factor = [math.sqrt(max(0.0, m / a - 1.0)) if w else 0.0
              for m, a, w in zip(moments[:, 0], alphas, weighted)]
    gram = m0 * m2k - mk * mk
    gram[gram < 0] = 0
    with np.errstate(all="ignore"):  # Python's float arithmetic does not warn
        root_k = ((mk / m0).astype(float)
                  + spread(factor, live, per_row=True).astype(float) * _sqrt_big_cells(gram)
                  / m0.astype(float))
    values = root_k.astype(object) ** spread([1.0 / k for k in ks], live)
    return outcome_table(live, values, [(~live, _VANISHING_WEIGHT)])


def two_point_row(m: MomentSequence, alpha: float, k: int, outcome: float | Dead) -> BoundResult:
    params = {**m.params_head, "k": k, "alpha1": alpha}
    return outcome_row("two_point", "upper", params, outcome, m.kind != KIND_CLOSED)


def eigvec_degree_upper_bound(rooted: Sequence[MomentSequence], summary: SpectralSummary,
                              outcomes: Sequence | None = None) -> BoundResult:
    """rho <= sqrt((1/x_i^2 - 1) d_i) at the vertex `reported_vertex` picks:
    the k = 1 `two_point` row of the rooted sequence (1, 0, d_i, ...).
    `outcomes` are those rows' outcomes, when the caller has them.

    x_i^2 is at most the rooted mass at rho (Bessel's inequality) and the
    bound falls as the weight grows, so it holds on any graph. Vertices
    with a vanishing weight are skipped and counted.
    """
    if any(m.kind != KIND_CLOSED_AT or m.max_index < 2 for m in rooted):
        raise ValueError("the eigenvector-degree bound needs rooted sequences up to m_2")
    if outcomes is None:
        weights = [atom_weight_for(m, summary) for m in rooted]
        outcomes = two_point_columns(moment_matrix(rooted, 3), weights, [1])[:, 0].tolist()
    i = reported_vertex(outcomes, "upper")
    params = {"vertex": rooted[i].vertex, "skipped": sum(isinstance(o, Dead) for o in outcomes)}
    return outcome_row("eigvec_degree", "upper", params, outcomes[i], oracle_assisted=True)


def bipartite_upper_bound(m: MomentSequence, alpha: float, k: int, bipartite: bool) -> BoundResult:
    """Halved even-moment bound on bipartite graphs.

    Eigenvalues of a bipartite graph come in +/- pairs, so the even moments
    double-count the top atom: rho <= (m_{2k} / (2 alpha_1)) ** (1/2k).
    Only closed-walk measures (total or rooted) qualify; on a graph that is
    not `bipartite` the row is inapplicable.
    """
    if m.kind == KIND_WALKS:
        raise ValueError("the halved bound applies to closed-walk measures only")
    _require_even_moment(m, k)
    outcome = bipartite_columns(moment_matrix([m]), [alpha], [k], bipartite)[0, 0]
    return bipartite_row(m, alpha, k, outcome)


def bipartite_columns(moments: np.ndarray, alphas: Sequence[float], ks: Sequence[int],
                      bipartite: bool) -> np.ndarray:
    """(m_{2k} / (2 alpha_1)) ** (1/2k) at each k column on a `bipartite`
    graph (inapplicable on others), as `even_moment_columns`."""
    if not bipartite:
        dead = np.ones((len(alphas), len(ks)), dtype=bool)
        return outcome_table(~dead, np.empty(0), [(dead, _NOT_BIPARTITE)])
    return _ratio_root_columns(moments, alphas, [2.0 * a for a in alphas], ks)


def bipartite_row(m: MomentSequence, alpha: float, k: int, outcome: float | Dead) -> BoundResult:
    params = {**m.params_head, "k": k, "alpha1": alpha}
    return outcome_row("bipartite_half", "upper", params, outcome, m.kind != KIND_CLOSED)


def hankel_root_upper_bound(m: MomentSequence, alpha: float,
                            index_set: Iterable[int]) -> BoundResult:
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
    """
    indices = _validated_indices(m, index_set, 0)
    return hankel_root_row(m, alpha, indices, hankel_root_value(m, alpha, indices))


def hankel_root_value(m: MomentSequence, alpha: float, indices: tuple[int, ...], *,
                      cutoff: float | None = None) -> float | Dead:
    """The outcome of `hankel_root_upper_bound` for the sorted positions
    `indices`, already checked against m's horizon (`_validated_indices`).
    H_J comes from `moments.hankel_block`, and adj(H_J) from
    `moments._adjugate`, whose exact back substitution beyond 3x3 is the
    one `orthogonal_polynomial` uses (`_back_substitute`).

    With a cutoff u > 0, a polynomial with a real root above u gets no
    bracket: the bound would exceed u, and the row comes back inapplicable.
    A positive sign at u (`sign_at`) shows such a root, as the polynomial is
    negative at infinity; otherwise, and always when det H_J = 0, one exact
    test (`no_real_root_above`) decides. Given u = nextafter(b, 0) for a
    running best b, exactly the vertices whose bound would be no less than
    b are ruled out.
    """
    if len(indices) < 2:
        return _ONE_POSITION
    if alpha <= MIN_ATOM_WEIGHT:
        return _VANISHING_WEIGHT
    h = hankel_block(m.values, indices)
    adj = _adjugate(h)
    if adj is None or adj[-1][-1] <= 0:
        return _LEADING_BLOCK_NOT_PD
    det_h = sum(h[0][b] * adj[b][0] for b in range(len(indices)))
    num, den = alpha.as_integer_ratio()
    if det_h:
        coeffs = [0] * (2 * indices[-1] - 1)
        coeffs[0] = den * det_h
        for a, ja in enumerate(indices):
            for b, jb in enumerate(indices):
                coeffs[ja + jb - 2] -= num * adj[a][b]
        if cutoff is not None and sign_at(coeffs, cutoff) > 0:
            return _ROOT_ABOVE_CUTOFF
    else:
        # H_J has rank |J| - 1, so adj(H_J) has rank one and the polynomial
        # is -num p(r)**2 / det(H_{J'}) with p = (last row of adj(H_J)) . v
        coeffs = [0] * indices[-1]
        for b, jb in enumerate(indices):
            coeffs[jb - 1] = adj[-1][b]
    if cutoff is not None and not no_real_root_above(coeffs, cutoff):
        return _ROOT_ABOVE_CUTOFF
    return largest_real_root_bracket(coeffs)[1]


def hankel_root_row(m: MomentSequence, alpha: float, indices: tuple[int, ...],
                    outcome: float | Dead) -> BoundResult:
    params = {**m.params_head, "J": list(indices), "alpha1": alpha}
    return outcome_row("hankel_root", "upper", params, outcome, m.kind != KIND_CLOSED)


def stieltjes_root_upper_bound(m: MomentSequence, alpha: float, k: int) -> BoundResult:
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
    return stieltjes_root_row(m, alpha, k, stieltjes_root_value(m, alpha, k))


def stieltjes_root_value(m: MomentSequence, alpha: float, k: int, *,
                         cutoff: float | None = None) -> float | Dead:
    """The outcome of `stieltjes_root_upper_bound` (no range check).

    The polynomial is a + b r - c r**n with a = den m_{2k+1},
    b = den m_{2k}, c = 2 num and n = 2k + 1, for alpha_1 = num/den. For
    k >= 1 its bracket comes from `roots.three_term_root_bracket`, with no
    coefficient list; at k = 0 it is linear.

    With a cutoff u > 0, a polynomial whose root lies above u gets no
    bracket, and the row comes back inapplicable. Its coefficients change
    sign once, so it is positive exactly below its one positive root, and
    its exact sign at u (`roots.three_term_sign`) decides; the same sign at
    the even-moment bound checks that the root lies below that. Given
    u = nextafter(b, 0) for a running best b, exactly the vertices whose
    bound would be no less than b are ruled out.
    """
    if alpha <= MIN_ATOM_WEIGHT:
        return _VANISHING_WEIGHT
    m2k = m.values[2 * k]
    m2k1 = m.values[2 * k + 1]
    if m2k == 0 and m2k1 == 0:
        # all mass at the origin: the spectral radius is zero
        return 0.0
    if m2k == 0:
        return _ZERO_EVEN_NONZERO_ODD
    num, den = alpha.as_integer_ratio()
    if k == 0 and den * m2k >= 2 * num:
        return _RISING_LINEAR
    a, b, c, n = den * m2k1, den * m2k, 2 * num, 2 * k + 1
    # the even-moment bound, which the root never exceeds
    ceiling = _ratio_root(m2k, alpha, 1.0 / (2 * k)) * (1.0 + 1e-12) + 1e-9 if k else None
    if cutoff is not None and three_term_sign(a, b, c, n, cutoff) > 0:
        assert ceiling is None or three_term_sign(a, b, c, n, ceiling) <= 0
        return _ROOT_ABOVE_CUTOFF
    if k:
        root = three_term_root_bracket(a, b, c, n)[1]
    else:
        root = largest_real_root_bracket([a, b - c])[1]
    assert ceiling is None or root <= ceiling
    return root


def stieltjes_root_row(m: MomentSequence, alpha: float, k: int,
                       outcome: float | Dead) -> BoundResult:
    params = {**m.params_head, "k": k, "alpha1": alpha}
    return outcome_row("stieltjes_root", "upper", params, outcome, m.kind != KIND_CLOSED)


def clique_root_upper_bound(m_w: MomentSequence, omega: int, k: int) -> BoundResult:
    """Largest root of w_{2k} r + w_{2k+1} - 2 (omega/(omega-1)) r**(2k+2).

    Replaces the fundamental-weight mass with the clique-number bound on it,
    so no spectral data is needed. The polynomial is concave on r > 0 and
    equals w_{2k+1} - w_{2k} N at N = ((1 - 1/omega) w_{2k}) ** (1/(2k+1)),
    so the root is at most N exactly when
    omega w_{2k+1}^{2k+1} <= (omega - 1) w_{2k}^{2k+2}. The true clique
    number passes this integer test (w_{2k+1}/w_{2k} <= rho <= N, by
    Nikiforov's bound; at k = 0 it is Turan's); an omega that fails it is too
    small, and raises ValueError. Times omega - 1 the polynomial is
    a + b r - c r**n with a = (omega - 1) w_{2k+1}, b = (omega - 1) w_{2k},
    c = 2 omega and n = 2k + 2, bracketed by `roots.three_term_root_bracket`
    with no coefficient list.
    """
    if m_w.kind != KIND_WALKS:
        raise ValueError("clique-based bound needs the total-walk sequence")
    if k < 0:
        raise ValueError("need k >= 0")
    if 2 * k + 1 > m_w.max_index:
        raise ValueError(f"need w_{2 * k + 1}, have up to w_{m_w.max_index}")
    w2k = m_w.values[2 * k]
    w2k1 = m_w.values[2 * k + 1]
    if omega < 2:
        outcome = _EDGELESS
    elif w2k == 0 and w2k1 == 0:
        outcome = 0.0
    elif omega * w2k1 ** (2 * k + 1) > (omega - 1) * w2k ** (2 * k + 2):
        raise ValueError(f"clique number {omega} is too small for the walk counts "
                         f"w_{2 * k} and w_{2 * k + 1}")
    else:
        outcome = three_term_root_bracket((omega - 1) * w2k1, (omega - 1) * w2k, 2 * omega,
                                          2 * k + 2)[1]
    return outcome_row("clique_root", "upper", {"measure": m_w.kind, "k": k, "omega": omega},
                       outcome)


def nikiforov_clique_value(m_w: MomentSequence, omega: int, j: int) -> float:
    """The clique-number hierarchy rho <= ((1 - 1/omega) w_j) ** (1/(j+1)),
    which needs no spectral data; 0 on an edgeless graph (omega < 2)."""
    if omega < 2:
        return 0.0
    return _ratio_root(m_w.values[j], omega / (omega - 1.0), 1.0 / (j + 1))


def baseline_upper_bounds(m_w: MomentSequence, summary: SpectralSummary, omega: int | None,
                          connected: bool, ks: tuple[int, ...] = (1, 2, 3)) -> list[BoundResult]:
    """Classical comparison bounds: the clique-number hierarchy, the
    fundamental-weight bound, and two leading-eigenvector bounds. With the
    clique number `omega` unknown (None), only the last two, which need no
    omega.

    The weight floor 1/umax^2 of `baseline_eigvec_walk` holds since
    1'x >= sum(x_i^2)/umax = 1/umax for x >= 0: the eigenvector rows assume
    a `connected` graph and are marked inapplicable otherwise.
    """
    if m_w.kind != KIND_WALKS:
        raise ValueError("baselines need the total-walk sequence")
    if ks and max(ks) > m_w.max_index:
        raise ValueError(f"need w_{max(ks)}, have up to w_{m_w.max_index}")
    rows = [] if omega is None else [("baseline_nikiforov_clique", {"k": k, "omega": omega},
                                      nikiforov_clique_value(m_w, omega, k)) for k in ks]
    # the largest-magnitude entry of x is positive, so umax > 0; on a connected
    # graph x > 0 with sum(x_i^2) = 1, so 1'x >= 1 and neither weight vanishes
    x = summary.eigenvectors[:, 0]
    umax = float(x.max())
    floor, fundamental = 1.0 / (umax * umax), float(x.sum()) / umax
    if omega is not None:
        wilf = 0.0 if omega < 2 else (1.0 - 1.0 / omega) * atom_weight_for(m_w, summary)
        rows.append(("baseline_wilf", {"omega": omega}, wilf if connected else _NOT_CONNECTED))
    for k in ks:
        if 2 * k <= m_w.max_index:
            rows.append(("baseline_eigvec_walk", {"k": k},
                         _ratio_root(m_w.values[2 * k], floor, 1.0 / (2 * k))
                         if connected else _NOT_CONNECTED))
        rows.append(("baseline_van_mieghem", {"k": k},
                     _ratio_root(m_w.values[k], fundamental, 1.0 / k)
                     if connected else _NOT_CONNECTED))
    return [outcome_row(name, "upper", params, outcome, name != "baseline_nikiforov_clique")
            for name, params, outcome in rows]
