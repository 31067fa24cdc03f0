"""Hankel machinery of the moment problem: pair assembly and feasibility tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _validated_indices(m: MomentSequence, index_set: Iterable[int],
                       top_offset: int) -> tuple[int, ...]:
    """Sorted 1-based J, checked to need no moment beyond m_{2*max(J) - 2 + top_offset}."""
    indices = tuple(sorted(set(int(j) for j in index_set)))
    if not indices:
        raise MomentError("empty index set")
    if indices[0] < 1:
        raise MomentError("indices are 1-based and must be >= 1")
    top = 2 * indices[-1] - 2 + top_offset
    if top > m.max_index:
        raise MomentError(
            f"insufficient moments: need m_0..m_{top}, have up to m_{m.max_index}"
        )
    return indices


def _scale_exponent(values: Sequence[int], top_index: int) -> int:
    """Smallest b such that m_k / 2**(b*k) fits exact float range for all k."""
    b = 0
    for k in range(1, top_index + 1):
        excess = values[k].bit_length() - _FLOAT_EXACT_BITS
        if excess > 0:
            b = max(b, -(-excess // k))
    return b


def _scaled_entry(value: int, index: int, shift: int) -> float:
    if shift == 0:
        return float(value)
    return value / (1 << (shift * index))


def _float_block(m: MomentSequence, indices: tuple[int, ...], offset: int,
                 shift: int) -> np.ndarray:
    """Entry (a, b) is m[j_a + j_b - 2 + offset] / 2**(shift * that index)."""
    return np.array([[_scaled_entry(m[ja + jb - 2 + offset], ja + jb - 2 + offset, shift)
                      for jb in indices] for ja in indices])


def hankel_matrix(m: MomentSequence, index_set: Iterable[int]) -> tuple[np.ndarray, int]:
    """The plain Hankel block H_J alone (needs moments through 2*max(J) - 2).

    Returns (matrix, scale) with the same geometric scaling convention as
    hankel_pair.
    """
    indices = _validated_indices(m, index_set, 0)
    shift = _scale_exponent(m.values, 2 * indices[-1] - 2)
    return _float_block(m, indices, 0, shift), 1 << shift


def hankel_pair(m: MomentSequence, index_set: Iterable[int]) -> HankelPair:
    """Assemble H_J and S_J for the 1-based position set J.

    Needs moments through 2*max(J) - 1 (the bottom-right entry of S_J).
    """
    indices = _validated_indices(m, index_set, 1)
    shift = _scale_exponent(m.values, 2 * indices[-1] - 1)
    return HankelPair(indices=indices, h=_float_block(m, indices, 0, shift),
                      s=_float_block(m, indices, 1, shift), scale=1 << shift)


def hankel_pair_exact(m: MomentSequence, index_set: Iterable[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Integer-valued H_J and S_J (no scaling, no rounding)."""
    indices = _validated_indices(m, index_set, 1)
    h = [[m[ja + jb - 2] for jb in indices] for ja in indices]
    s = [[m[ja + jb - 1] for jb in indices] for ja in indices]
    return h, s


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


def shifted_subsequence(m: MomentSequence, q: int, k: int, count: int) -> tuple[int, ...]:
    """Strided slice (m_q, m_{q+k}, ..., m_{q+(count-1)k}).

    These are the moments of the measure obtained by weighting atoms with
    their q-th power and raising atom positions to the k-th power; q must be
    even so the reweighting stays non-negative.
    """
    if q < 0 or q % 2 != 0:
        raise MomentError(f"offset q must be even and non-negative, got {q}")
    if k < 1:
        raise MomentError("stride k must be >= 1")
    if count < 1:
        raise MomentError("count must be >= 1")
    top = q + (count - 1) * k
    if top > m.max_index:
        raise MomentError(f"range exceeded: need m_{top}, have up to m_{m.max_index}")
    return tuple(m[q + i * k] for i in range(count))


def is_psd(matrix: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Spectral positive-semidefiniteness test with a relative tolerance.

    True iff the smallest eigenvalue is >= -tol * max(1, largest |entry|).
    Input must be symmetric within the same tolerance.
    """
    a = np.asarray(matrix, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if float(np.max(np.abs(a - a.T))) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    values = symmetric_eigenvalues(a)
    return float(values[-1]) >= -tol * scale


def hamburger_check(m: MomentSequence, order: int, tol: float = PSD_TOL) -> bool:
    """Necessary moment-sequence condition: H_order is positive semidefinite."""
    if order < 0:
        raise MomentError("order must be non-negative")
    if 2 * order > m.max_index:
        raise MomentError(f"insufficient moments for order {order}")
    h, _ = hankel_matrix(m, range(1, order + 2))
    return is_psd(h, tol)


def stieltjes_feasible(m: MomentSequence, index_set: Iterable[int], u: float,
                       tol: float = PSD_TOL) -> bool:
    """Support-interval condition: both u*H_J - S_J and u*H_J + S_J are PSD."""
    pair = hankel_pair(m, index_set)
    t = u / pair.scale
    return is_psd(t * pair.h - pair.s, tol) and is_psd(t * pair.h + pair.s, tol)
