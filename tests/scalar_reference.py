"""Scalar reference implementations: one cell of each closed-form bound
family at a time, in plain Python, and Bareiss's determinant.

The library evaluates each closed-form family only through its array
routine (`ratio_columns`, ...); the tests hold these routines to be equal
to the one-cell arithmetic below bit for bit, the float rounding and the
exceptions included. `exact_determinant` checks the library's exact
eliminations against an independent one.
"""

from __future__ import annotations

import math
from typing import Sequence

from swbounds.bounds_lower import (
    _BLOCK_NOT_PD,
    _BLOCK_NOT_PSD,
    _SINGULAR_BLOCK,
    _VACUOUS_DET_RATIO,
    _ZERO_EVEN_MOMENT,
    Dead,
)
from swbounds.bounds_upper import (
    _NOT_BIPARTITE,
    _VANISHING_WEIGHT,
    MIN_ATOM_WEIGHT,
    _ratio_root,
    _sqrt_big,
)
from swbounds.walks import MomentSequence


def _det_blocks(m: MomentSequence, s: int, k: int) -> tuple[int, int, int]:
    """Exact determinants (det H, det S, det F) of the strided 2x2 blocks."""
    v = m.values
    m0, m1, m2, m3 = (v[2 * s], v[2 * s + k], v[2 * s + 2 * k], v[2 * s + 3 * k])
    return m0 * m2 - m1 * m1, m1 * m3 - m2 * m2, m1 * m2 - m3 * m0


def ratio_value(m: MomentSequence, s: int, k: int) -> float | Dead:
    """(m_{2s+k} / m_{2s}) ** (1/k)."""
    v = m.values
    if v[2 * s] == 0:
        return _ZERO_EVEN_MOMENT
    return (v[2 * s + k] / v[2 * s]) ** (1.0 / k)


def det_ratio_value(m: MomentSequence, s: int, k: int) -> float | Dead:
    """(det S / det H) ** (1/(2k))."""
    det_h, det_s, _ = _det_blocks(m, s, k)
    if det_h <= 0:
        return _SINGULAR_BLOCK if det_h == 0 else _BLOCK_NOT_PSD
    if det_s <= 0:
        return _VACUOUS_DET_RATIO
    return (det_s / det_h) ** (1.0 / (2 * k))


def quadratic_root_value(m: MomentSequence, s: int, k: int) -> float | Dead:
    """The k-th root of the largest root of det(H) r^2 - |det F| r + det S."""
    det_h, det_s, det_f = _det_blocks(m, s, k)
    if det_h <= 0:
        return _BLOCK_NOT_PD
    disc = det_f * det_f - 4 * det_h * det_s
    if disc < 0:
        disc = 0
    root_k = abs(det_f) / (2 * det_h) + math.sqrt(disc / (4 * det_h * det_h))
    return root_k ** (1.0 / k)


def even_moment_value(m: MomentSequence, alpha: float, k: int) -> float | Dead:
    """(m_{2k} / alpha_1) ** (1/2k)."""
    if alpha <= MIN_ATOM_WEIGHT:
        return _VANISHING_WEIGHT
    return _ratio_root(m.values[2 * k], alpha, 1.0 / (2 * k))


def two_point_value(m: MomentSequence, alpha: float, k: int) -> float | Dead:
    """(m_k + sqrt((m_0/alpha_1 - 1)(m_0 m_{2k} - m_k^2))) / m_0, to the
    power 1/k; raises ValueError on a measure with no mass or less mass than
    its atom."""
    m0, mk, m2k = m.values[0], m.values[k], m.values[2 * k]
    if m0 <= 0:
        raise ValueError("zero total mass")
    if alpha <= MIN_ATOM_WEIGHT:
        return _VANISHING_WEIGHT
    if alpha > m0 * (1.0 + 1e-9):
        raise ValueError("atom weight exceeds the measure's total mass")
    factor = max(0.0, m0 / alpha - 1.0)
    gram = m0 * m2k - mk * mk
    if gram < 0:
        gram = 0
    root_k = mk / m0 + math.sqrt(factor) * _sqrt_big(gram) / m0
    return root_k ** (1.0 / k)


def bipartite_value(m: MomentSequence, alpha: float, k: int, bipartite: bool) -> float | Dead:
    """(m_{2k} / (2 alpha_1)) ** (1/2k) on a `bipartite` graph."""
    if not bipartite:
        return _NOT_BIPARTITE
    if alpha <= MIN_ATOM_WEIGHT:
        return _VANISHING_WEIGHT
    return _ratio_root(m.values[2 * k], 2.0 * alpha, 1.0 / (2 * k))


def exact_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free elimination.

    Every division is exact, so the result is the true determinant with no
    rounding; the empty matrix has determinant 1.
    """
    a = [list(row) for row in matrix]
    size = len(a)
    sign = 1
    previous = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if size else 1
