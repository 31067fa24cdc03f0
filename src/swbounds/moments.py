"""Hankel machinery of the moment problem: pair assembly and feasibility tests.

Every Hankel block is built by `hankel_block`. Every positivity question on
walk-count Hankel blocks is decided exactly, by fraction-free elimination on
the integer matrices (`_eliminate`), and solved on its rows by
`_back_substitute`; one elimination of H_top (`hankel_table`) gives the
Hamburger check and the semidefinite bound's orthogonal polynomial at every
order up to top. The float blocks (`hankel_pair`, `hankel_matrix`) and the
spectral `is_psd` are on no bound's path; they stay for float callers and
`perfbench/tracing.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .spectrum import symmetric_eigenvalues
from .walks import MomentSequence

PSD_TOL = 1e-9

# exact float conversion threshold: ints beyond 2**53 lose bits
_FLOAT_EXACT_BITS = 53


class MomentError(ValueError):
    """Bad index sets or not enough moments for the requested matrices."""


@dataclass(frozen=True)
class HankelPair:
    """The plain and shifted Hankel blocks of a moment sequence.

    `indices` is the 1-based position set J; entry (a, b) of `h` holds
    m[j_a + j_b - 2] and of `s` holds m[j_a + j_b - 1]. When the raw moments
    exceed exact float range, every m_k is divided by scale**k before
    conversion (a congruence plus support rescale, so definiteness tests and
    root locations transfer back by multiplying with `scale`).
    """

    indices: tuple[int, ...]
    h: np.ndarray
    s: np.ndarray
    scale: int


def _validated_indices(m: MomentSequence | None, index_set: Iterable[int],
                       top_offset: int) -> tuple[int, ...]:
    """The distinct positions of J in increasing order, checked to be 1-based
    and, given m, to need no moment beyond m_{2*max(J) - 2 + top_offset}."""
    indices = tuple(sorted(set(int(j) for j in index_set)))
    if not indices:
        raise MomentError("empty index set")
    if indices[0] < 1:
        raise MomentError("indices are 1-based and must be >= 1")
    top = 2 * indices[-1] - 2 + top_offset
    if m is not None and top > m.max_index:
        raise MomentError(
            f"insufficient moments: need m_0..m_{top}, have up to m_{m.max_index}"
        )
    return indices


def hankel_block(values: Sequence, rows: Iterable[int],
                 columns: Optional[Iterable[int]] = None) -> list[list]:
    """Entry (a, b) is values[r_a + c_b - 2] on 1-based positions, the
    columns being the rows unless given: H_J of m is the block of m.values
    on J, and S_J that of m.values[1:]."""
    columns = rows if columns is None else columns
    return [[values[r + c - 2] for c in columns] for r in rows]


def _scaled_moments(m: MomentSequence, top_index: int) -> tuple[list[float], int]:
    """m_k / 2**(b*k) for k <= top_index, and 2**b, with b the smallest
    shift that puts every such m_k, k >= 1, in exact float range."""
    values = m.values[:top_index + 1]
    shift = 0
    for k in range(1, top_index + 1):
        excess = values[k].bit_length() - _FLOAT_EXACT_BITS
        if excess > 0:
            shift = max(shift, -(-excess // k))
    return [v / (1 << (shift * k)) for k, v in enumerate(values)], 1 << shift


def hankel_matrix(m: MomentSequence, index_set: Iterable[int]) -> tuple[np.ndarray, int]:
    """The plain Hankel block H_J alone (needs moments through 2*max(J) - 2).

    Returns (matrix, scale) with the same geometric scaling convention as
    hankel_pair.
    """
    indices = _validated_indices(m, index_set, 0)
    scaled, scale = _scaled_moments(m, 2 * indices[-1] - 2)
    return np.array(hankel_block(scaled, indices)), scale


def hankel_pair(m: MomentSequence, index_set: Iterable[int]) -> HankelPair:
    """Assemble H_J and S_J for the 1-based position set J.

    Needs moments through 2*max(J) - 1 (the bottom-right entry of S_J).
    """
    indices = _validated_indices(m, index_set, 1)
    scaled, scale = _scaled_moments(m, 2 * indices[-1] - 1)
    return HankelPair(indices=indices, h=np.array(hankel_block(scaled, indices)),
                      s=np.array(hankel_block(scaled[1:], indices)), scale=scale)


def hankel_pair_exact(m: MomentSequence, index_set: Iterable[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Integer-valued H_J and S_J (no scaling, no rounding)."""
    indices = _validated_indices(m, index_set, 1)
    return hankel_block(m.values, indices), hankel_block(m.values[1:], indices)


def _eliminate(a: list[list[int]], size: int) -> tuple[int, int]:
    """Fraction-free symmetric elimination of the leading size x size block of a.

    Works in place on the upper triangle (a[i][j] with j >= i), pivoting in
    natural order; columns of a past `size` are carried along like the
    others. Row i holds minors on rows 0..i only, so one elimination decides
    every leading block. A negative pivot k fails the blocks that hold it; a
    zero pivot k whose row first turns nonzero at column j fails those that
    reach j and drops index k from the smaller ones, where the last nonzero
    pivot stays the divisor (Sylvester's identity). Returns (psd, leading):
    the s x s block is PSD exactly when s <= psd, and then min(s, leading)
    of its leading minors are positive. For i below that count, a[i][i] is
    the (i+1)-th leading minor and a[i][j] the minor on rows 0..i and
    columns 0..i-1, j, so those rows form the Bareiss triangular system.
    """
    previous = 1
    psd = size
    for k in range(size):
        if k >= psd:
            break
        row = a[k]
        pivot = row[k]
        if pivot <= 0:
            psd = k if pivot < 0 else next((j for j in range(k + 1, psd) if row[j]), psd)
            continue
        for i in range(k + 1, psd):
            factor = row[i]
            target = a[i]
            for j in range(i, len(target)):
                target[j] = (target[j] * pivot - factor * row[j]) // previous
        previous = pivot
    return psd, next((k for k in range(psd) if not a[k][k]), psd)


def is_psd(matrix: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Spectral positive-semidefiniteness test of a float matrix, with a
    relative tolerance.

    True iff the smallest eigenvalue is >= -tol * max(1, largest |entry|).
    Input must be symmetric within the same tolerance. Integer Hankel
    blocks go through `_eliminate` instead.
    """
    a = np.asarray(matrix, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if float(np.max(np.abs(a - a.T))) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    values = symmetric_eigenvalues(a)
    return float(values[-1]) >= -tol * scale


def _require_order(m: MomentSequence, order: int, top: int) -> None:
    if order < 0:
        raise MomentError("order must be non-negative")
    if top > m.max_index:
        raise MomentError(f"insufficient moments for order {order}: need m_{top}, "
                          f"have up to m_{m.max_index}")


def hankel_table(m: MomentSequence, top: int) -> tuple[list[list[int]], int, int]:
    """(rows, psd, leading) of `_eliminate` on H_top, which answer every order
    up to top: H_order is PSD exactly when order < psd. The rows carry column
    top + 1 (m_{top+1}, ..., m_{2*top+1}) when the moments reach it."""
    _require_order(m, top, 2 * top)
    a = hankel_block(m.values, range(1, top + 2), range(1, min(top + 3, m.max_index - top + 2)))
    return (a, *_eliminate(a, top + 1))


def hamburger_check(m: MomentSequence, order: int) -> bool:
    """Necessary moment-sequence condition: H_order is positive semidefinite,
    decided exactly."""
    return order < hankel_table(m, order)[1]


def stieltjes_feasible(m: MomentSequence, index_set: Iterable[int], u: float) -> bool:
    """Support-interval condition: both u*H_J - S_J and u*H_J + S_J are PSD.

    Decided exactly: with u = p/q, the tests run on the integer matrices
    p*H_J -/+ q*S_J.
    """
    indices = _validated_indices(m, index_set, 1)
    return stieltjes_prefix(m, indices, u) == len(indices)


def stieltjes_prefix(m: MomentSequence, index_set: Iterable[int], u: float) -> int:
    """The largest r for which `stieltjes_feasible` holds on the first r
    positions of J, from one `_eliminate` per sign of p*H_J -/+ q*S_J, with
    u = p/q: the blocks of those prefixes are the leading blocks of J's.
    p*H_J -/+ q*S_J is the H_J of the sequence p*m_k -/+ q*m_{k+1}."""
    indices = _validated_indices(m, index_set, 1)
    p, q = u.as_integer_ratio()
    v = m.values[:2 * indices[-1]]
    ph, qs = [p * x for x in v[:-1]], [q * x for x in v[1:]]
    return min(_eliminate(hankel_block(w, indices), len(indices))[0]
               for w in ([x - y for x, y in zip(ph, qs)], [x + y for x, y in zip(ph, qs)]))


def _back_substitute(a: list[list[int]], size: int, columns: Sequence[int]) -> list[list[int]]:
    """adj(H) C in exact integers, where `a` is `_eliminate`d with its first
    size - 1 pivots positive, H is its leading size x size block and C its
    `columns`. Its first rows are M [H | C] with M H = U triangular and
    det(H) = a[size-1][size-1], so U adj(H) C = det(H) M C, solved upward
    with exact divisions; the last row is M C's, as det(H) may be 0."""
    det = a[size - 1][size - 1]
    x = [[]] * (size - 1) + [[a[size - 1][c] for c in columns]]
    for i in range(size - 2, -1, -1):
        row = a[i]
        x[i] = [(det * row[c] - sum(row[j] * x[j][t] for j in range(i + 1, size))) // row[i]
                for t, c in enumerate(columns)]
    return x


def _adjugate(h: list[list[int]]) -> list[list[int]] | None:
    """Exact adjugate of a symmetric integer matrix H: hand cofactors up to
    3x3 (20 to 30 times faster there than the elimination); beyond,
    `_back_substitute` on [H | I], or None when `_eliminate` finds fewer
    than size - 1 positive leading minors."""
    size = len(h)
    if size == 2:
        return [[h[1][1], -h[0][1]], [-h[0][1], h[0][0]]]
    if size == 3:
        (a, b, c), (_, d, e), (_, _, f) = h
        return [[d * f - e * e, c * e - b * f, b * e - c * d],
                [c * e - b * f, a * f - c * c, b * c - a * e],
                [b * e - c * d, b * c - a * e, a * d - b * b]]
    a = [row + [int(i == j) for j in range(size)] for i, row in enumerate(h)]
    if _eliminate(a, size)[1] < size - 1:
        return None
    return _back_substitute(a, size, range(size, 2 * size))


def orthogonal_polynomial(table: tuple, order: int) -> Optional[list[int]]:
    """The Gauss-node polynomial of H_order on exact integers, read from a
    `hankel_table` of any top >= order, or None when H_order is not PSD.

    With r + 1 the number of positive leading principal minors of H_order,
    the result holds the ascending coefficients of
    c(x) = det(x*H_r - S_r) = det(H_r) * P_{r+1}(x), where P_{r+1} is the
    monic degree-(r+1) orthogonal polynomial of the measure:
    c(x) = det(H_r) x^(r+1) - sum_j det(H_r) y_j x^j with H_r y = b,
    b = (m_{r+1}, ..., m_{2r+1}). Its zeros are real and simple. The table's
    top r + 1 rows are that system triangularized (their column r + 1 is b);
    `_back_substitute` gives det(H_r) * y, whose entries are integers by
    Cramer's rule. Needs moments through m_{2*order+1}.
    """
    a, psd, leading = table
    if not 0 <= order < len(a[0]) - 1:
        raise MomentError(f"insufficient moments for order {order}")
    if order >= psd:
        return None
    size = min(leading, order + 1)
    if size == 0:
        return [1]
    return [-row[0] for row in _back_substitute(a, size, (size,))] + [a[size - 1][size - 1]]
