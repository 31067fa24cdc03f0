"""Adjacency eigendecomposition (numpy's LAPACK) and spectral weights.

This is the exact oracle the bound machinery is tested against: adjacency
eigenvalues, the spectral radius, the leading eigenvector, and the weights
obtained from squared eigenvector sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, connected_components
from .walks import MomentSequence, all_rooted_closed_counts, closed_from_rooted, walk_counts


@dataclass(frozen=True)
class SpectralSummary:
    """Eigendecomposition of an adjacency matrix plus derived weights.

    eigenvalues are sorted descending; eigenvectors holds the matching
    orthonormal columns. weight_sums[l] is the squared entry-sum of column l
    and vertex_weights[i, l] the squared (i, l) entry, so column 0 of each
    gives the leading-atom masses of the walk measures.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rho: float
    weight_sums: np.ndarray
    vertex_weights: np.ndarray


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix."""
    return np.linalg.eigvalsh(matrix)[::-1]


def adjacency_array(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def eigen_decompose(g: Graph) -> SpectralSummary:
    """Full spectral summary of a graph's adjacency matrix.

    Each eigenvector column is sign-normalized so its largest-magnitude entry
    is positive. The weights are squares and do not depend on the signs;
    column 0 does, and `baseline_upper_bounds` (umax, usum) and the
    non-negativity check of `swb verify` read it.
    """
    return _summary(*np.linalg.eigh(adjacency_array(g)))


def component_decompose(g: Graph) -> SpectralSummary:
    """`eigen_decompose` by one eigensolve per connected component, so that no
    vertex gets rounding-size weights on another component's eigenvalues.
    On a connected g it is `eigen_decompose`, bit for bit."""
    a = adjacency_array(g)
    values, vectors = np.empty(0), np.zeros((g.n, g.n))
    for vertices in connected_components(g):
        part_values, part_vectors = np.linalg.eigh(a[np.ix_(vertices, vertices)])
        vectors[np.ix_(vertices, range(len(values), len(values) + len(vertices)))] = part_vectors
        values = np.concatenate([values, part_values])
    return _summary(values, vectors)


def _summary(values: np.ndarray, vectors: np.ndarray) -> SpectralSummary:
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    pivots = np.argmax(np.abs(vectors), axis=0)
    vectors[:, vectors[pivots, np.arange(len(values))] < 0.0] *= -1.0
    return SpectralSummary(eigenvalues=values, eigenvectors=vectors, rho=float(values[0]),
                           weight_sums=vectors.sum(axis=0) ** 2, vertex_weights=vectors ** 2)


def verify_moment_identities(g: Graph, max_length: int, tol: float = 1e-8) -> dict:
    """Cross-check exact walk counts against eigenvalue power sums.

    Builds `component_decompose(g)` and the three walk-count sequences of g
    for k = 0..max_length and hands them to `moment_identity_deviations`.
    """
    rooted = all_rooted_closed_counts(g, max_length)
    return moment_identity_deviations(component_decompose(g), walk_counts(g, max_length),
                                      closed_from_rooted(rooted), rooted, tol)


def moment_identity_deviations(summary: SpectralSummary, total: MomentSequence,
                               closed: MomentSequence, rooted: Sequence[MomentSequence],
                               tol: float = 1e-8) -> dict:
    """Compare walk counts with the weighted eigenvalue power sums of summary.

    Each count is sum_l c_l lambda_l**k, for k = 0..max index, with its own
    weights c stacked in one matrix: ones for closed walks, `weight_sums`
    for walks and a row of `vertex_weights` per rooted measure. Deviations
    are relative to the absolute-term magnitude of each sum (so cancellation
    to an exact zero does not blow up the metric). At a k whose walk count
    (the largest count) reaches 2**1000, both sides are compared in units of
    2**(t*k), with 2**t the power of two nearest the spectral radius: the
    eigenvalues scale exactly, each count by one correctly rounded int
    division, and no count or power leaves the float range. Failures are
    reported in the returned dict, never raised. On a disconnected graph,
    pass the `component_decompose` summary.
    """
    lam = summary.eigenvalues
    abs_lam = np.abs(lam)
    weights = np.vstack([np.ones_like(lam), summary.weight_sums, summary.vertex_weights])
    sequences = [closed, total, *rooted]
    t = max(0, round(math.log2(abs_lam.max()))) if abs_lam.any() else 0
    dev = np.zeros(len(sequences))
    for k in range(total.max_index + 1):
        shift = t if total[k].bit_length() > 1000 else 0  # w_k >= phi_k >= each rooted count
        exact = np.array([seq[k] / (1 << (shift * k)) for seq in sequences])
        scale = np.maximum(max(math.ldexp(1.0, -shift * k), 5e-324),
                           weights @ np.ldexp(abs_lam, -shift) ** k)
        dev = np.maximum(dev, np.abs(weights @ np.ldexp(lam, -shift) ** k - exact) / scale)
    found = {"closed_walks": float(dev[0]), "closed_walks_at": float(dev[2:].max()),
             "walks": float(dev[1])}
    return {**found, "tol": tol, "passed": max(found.values()) <= tol}
