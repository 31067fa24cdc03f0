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


def _validated_indices(index_set: Iterable[int]) -> tuple[int, ...]:
    indices = tuple(sorted(set(int(j) for j in index_set)))
    if not indices:
        raise MomentError("empty index set")
    if indices[0] < 1:
        raise MomentError("indices are 1-based and must be >= 1")
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


def hankel_matrix(m: MomentSequence, index_set: Iterable[int]) -> tuple[np.ndarray, int]:
    """The plain Hankel block H_J alone (needs moments through 2*max(J) - 2).

    Returns (matrix, scale) with the same geometric scaling convention as
    hankel_pair.
    """
    indices = _validated_indices(index_set)
    top = 2 * indices[-1] - 2
    if top > m.max_index:
        raise MomentError(
            f"insufficient moments: need m_0..m_{top}, have up to m_{m.max_index}"
        )
    shift = _scale_exponent(m.values, top)
    size = len(indices)
    h = np.empty((size, size))
    for a, ja in enumerate(indices):
        for b, jb in enumerate(indices):
            h[a, b] = _scaled_entry(m[ja + jb - 2], ja + jb - 2, shift)
    return h, 1 << shift


def hankel_pair(m: MomentSequence, index_set: Iterable[int]) -> HankelPair:
    """Assemble H_J and S_J for the 1-based position set J.

    Needs moments through 2*max(J) - 1 (the bottom-right entry of S_J).
    """
    indices = _validated_indices(index_set)
    top = 2 * indices[-1] - 1
    if top > m.max_index:
        raise MomentError(
            f"insufficient moments: need m_0..m_{top}, have up to m_{m.max_index}"
        )
    shift = _scale_exponent(m.values, top)
    size = len(indices)
    h = np.empty((size, size))
    s = np.empty((size, size))
    for a, ja in enumerate(indices):
        for b, jb in enumerate(indices):
            h[a, b] = _scaled_entry(m[ja + jb - 2], ja + jb - 2, shift)
            s[a, b] = _scaled_entry(m[ja + jb - 1], ja + jb - 1, shift)
    return HankelPair(indices=indices, h=h, s=s, scale=1 << shift)


def hankel_pair_exact(m: MomentSequence, index_set: Iterable[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Integer-valued H_J and S_J (no scaling, no rounding)."""
    indices = _validated_indices(index_set)
    top = 2 * indices[-1] - 1
    if top > m.max_index:
        raise MomentError(
            f"insufficient moments: need m_0..m_{top}, have up to m_{m.max_index}"
        )
    h = [[m[ja + jb - 2] for jb in indices] for ja in indices]
    s = [[m[ja + jb - 1] for jb in indices] for ja in indices]
    return h, s


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
    return _support_feasible(hankel_pair(m, index_set), u, tol)


def _support_feasible(pair: HankelPair, u: float, tol: float) -> bool:
    """The support-interval test on a prebuilt pair; u is in unscaled units."""
    t = u / pair.scale
    return is_psd(t * pair.h - pair.s, tol) and is_psd(t * pair.h + pair.s, tol)
