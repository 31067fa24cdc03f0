"""Exact integer walk counting: totals, closed walks, and rooted closed walks.

The three families are the moments of three measures on the adjacency
spectrum, all read from the powers of A: w_k = 1ᵀA^k1, φ_k = tr A^k and
φ_k^(i) = (A^k)_ii. The rooted and closed counts come from one table of
matrix powers per graph. The table works in int64 only where every entry
and partial sum is provably below 2^63 (entries of A^k are at most Δ^k), and
in Python ints past that. Every returned count is a Python `int`, exact no
matter how fast the sequence grows; nothing here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graph import Graph

DEFAULT_MAX_LENGTH = 12
BRUTE_FORCE_VERTEX_LIMIT = 8
BRUTE_FORCE_LENGTH_LIMIT = 8

KIND_WALKS = "walks"
KIND_CLOSED = "closed_walks"
KIND_CLOSED_AT = "closed_walks_at"
KINDS = (KIND_WALKS, KIND_CLOSED, KIND_CLOSED_AT)

_INT64_MAX = 2 ** 63 - 1
# Most entries one sparse step gathers at once (32 MiB of int64).
_GATHER_LIMIT = 1 << 22


@dataclass(frozen=True)
class MomentSequence:
    """Counts m_0..m_K for one walk family, tagged with its kind.

    For `closed_walks_at` the rooted vertex is recorded; other kinds leave
    it as None. `params_head` is the {"measure", "vertex"} head of the
    params of every bound taken from this sequence, built once; the bound
    kernels copy it into each row's params and never change it.
    """

    kind: str
    values: tuple[int, ...]
    vertex: Optional[int] = None
    params_head: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown moment kind {self.kind!r}")
        if (self.vertex is not None) != (self.kind == KIND_CLOSED_AT):
            raise ValueError("vertex must be set exactly for rooted sequences")
        if not self.values:
            raise ValueError("moment sequence needs at least m_0")
        if any(type(v) is not int for v in self.values):
            raise ValueError("walk counts must be Python ints")
        if any(v < 0 for v in self.values):
            raise ValueError("walk counts cannot be negative")
        head = {"measure": self.kind}
        if self.vertex is not None:
            head["vertex"] = self.vertex
        object.__setattr__(self, "params_head", head)

    @property
    def max_index(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def _apply_adjacency(g: Graph, v: list[int]) -> list[int]:
    return [sum(v[j] for j in nb) for nb in g.neighbors]


def walk_counts(g: Graph, max_length: int = DEFAULT_MAX_LENGTH) -> MomentSequence:
    """Total k-walk counts w_0..w_K via repeated vector products.

    w_k is the sum of all entries of the k-th adjacency power, obtained by
    applying the adjacency map k times to the all-ones vector; cost O(K*e).
    """
    if max_length < 0:
        raise ValueError("walk length must be non-negative")
    v = [1] * g.n
    values = [g.n]
    for _ in range(max_length):
        v = _apply_adjacency(g, v)
        values.append(sum(v))
    return MomentSequence(KIND_WALKS, tuple(values))


def _neighbour_blocks(g: Graph) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Runs of non-isolated vertices, each with its concatenated neighbour
    lists and their segment starts, cut so one run gathers at most
    _GATHER_LIMIT entries (or holds a single vertex)."""
    blocks = []
    rows: list[int] = []
    cols: list[int] = []
    starts: list[int] = []
    for v, nb in enumerate(g.neighbors):
        if not nb:
            continue
        if rows and (len(cols) + len(nb)) * g.n > _GATHER_LIMIT:
            blocks.append((np.array(rows), np.array(cols), np.array(starts)))
            rows, cols, starts = [], [], []
        rows.append(v)
        starts.append(len(cols))
        cols.extend(nb)
    if rows:
        blocks.append((np.array(rows), np.array(cols), np.array(starts)))
    return blocks


def _times_adjacency(p: np.ndarray, blocks) -> np.ndarray:
    """A·P: row v is the sum of the rows of P at v's neighbours."""
    out = np.zeros_like(p)
    for rows, cols, starts in blocks:
        out[rows] = np.add.reduceat(p[cols], starts, axis=0)
    return out


def _rooted_closed_table(g: Graph, max_length: int) -> list[tuple[int, ...]]:
    """rows[i][k] = number of closed k-walks from vertex i (diagonal of A^k).

    Builds P_j = A^j for j <= ceil(K/2) by sparse steps, then reads diag(A^k)
    as the row sums of P_ceil(k/2) ∘ P_floor(k/2), since A is symmetric. Every
    entry of A^j is at most Δ^j and the sums forming it have non-negative
    terms, so a power or product is formed in int64 while Δ^j <= 2^63 - 1 and
    in object dtype (exact Python ints) past that.
    """
    if max_length < 0:
        raise ValueError("walk length must be non-negative")
    delta = max(map(len, g.neighbors))
    blocks = _neighbour_blocks(g)
    powers = [np.eye(g.n, dtype=np.int64)]
    for j in range(1, (max_length + 1) // 2 + 1):
        prev = powers[-1]
        if delta ** j > _INT64_MAX:
            prev = prev.astype(object, copy=False)
        powers.append(_times_adjacency(prev, blocks))
    diagonals = [[1] * g.n]
    for k in range(1, max_length + 1):
        if delta ** k > _INT64_MAX and powers[0].dtype != object:
            powers = [p.astype(object) for p in powers]
        diagonals.append((powers[(k + 1) // 2] * powers[k // 2]).sum(axis=1).tolist())
    return list(zip(*diagonals))


def closed_from_rooted(rooted: Sequence[MomentSequence]) -> MomentSequence:
    """Closed k-walk totals as the sums of the rooted counts: tr A^k = Σ_i (A^k)_ii."""
    return MomentSequence(KIND_CLOSED, tuple(map(sum, zip(*(s.values for s in rooted)))))


def closed_walk_counts(g: Graph, max_length: int = DEFAULT_MAX_LENGTH) -> MomentSequence:
    """Closed k-walk totals (adjacency-power traces) for k = 0..K."""
    return closed_from_rooted(all_rooted_closed_counts(g, max_length))


def closed_walk_counts_at(g: Graph, vertex: int, max_length: int = DEFAULT_MAX_LENGTH) -> MomentSequence:
    """Closed k-walk counts rooted at one vertex."""
    if max_length < 0:
        raise ValueError("walk length must be non-negative")
    if not (0 <= vertex < g.n):
        raise ValueError(f"vertex {vertex} out of range [0, {g.n})")
    v = [0] * g.n
    v[vertex] = 1
    values = [1]
    for _ in range(max_length):
        v = _apply_adjacency(g, v)
        values.append(v[vertex])
    return MomentSequence(KIND_CLOSED_AT, tuple(values), vertex=vertex)


def all_rooted_closed_counts(g: Graph, max_length: int = DEFAULT_MAX_LENGTH) -> list[MomentSequence]:
    """Rooted sequences for every vertex, from one table pass."""
    return [
        MomentSequence(KIND_CLOSED_AT, row, vertex=i)
        for i, row in enumerate(_rooted_closed_table(g, max_length))
    ]


def enumerate_walks_bruteforce(g: Graph, length: int) -> tuple[int, int, list[int]]:
    """Count walks of one exact length by enumerating every vertex sequence.

    Returns (total walks, total closed walks, closed walks per start vertex).
    This is the independent oracle for the matrix-power counters and is
    deliberately exponential, so it refuses large inputs. The walks from one
    start are extended level by level: a list holds the end vertex of each
    walk so far, and every step replaces each end by its neighbours.
    """
    if g.n > BRUTE_FORCE_VERTEX_LIMIT or length > BRUTE_FORCE_LENGTH_LIMIT:
        raise ValueError(
            f"brute-force enumeration limited to n <= {BRUTE_FORCE_VERTEX_LIMIT}"
            f" and k <= {BRUTE_FORCE_LENGTH_LIMIT}"
        )
    if length < 0:
        raise ValueError("walk length must be non-negative")
    neighbors = g.neighbors
    closed_at = [0] * g.n
    total = 0
    for start in range(g.n):
        ends = [start]
        for _ in range(length):
            ends = [w for u in ends for w in neighbors[u]]
        total += len(ends)
        closed_at[start] = ends.count(start)
    return total, sum(closed_at), closed_at
