"""Simple undirected graphs: parsing, generators, and structural counts."""

from __future__ import annotations

import random
from typing import Iterable, Optional

Edge = tuple[int, int]

CLIQUE_SEARCH_LIMIT = 64


class GraphError(ValueError):
    """Invalid graph input: parse errors, bad edges, bad generator parameters."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Edges are normalized to (u, v) with u < v; duplicates are merged and
    self-loops rejected. The neighbor lists are sorted, so every traversal
    over the graph is deterministic.
    """

    __slots__ = ("n", "edges", "neighbors")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 1:
            raise GraphError("vertex count must be positive")
        seen: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(seen)
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in seen:
            lists[u].append(v)
            lists[v].append(u)
        self.neighbors = tuple(tuple(sorted(nb)) for nb in lists)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count})"


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Lines hold two whitespace-separated vertex indices; '#' starts a comment
    line; an optional leading header line "n <count>" fixes the vertex count.
    Without a header the count is 1 + the largest index seen. Duplicate edges
    are merged silently; malformed lines raise GraphError with line numbers.
    """
    declared: Optional[int] = None
    edges: list[Edge] = []
    max_index = -1
    saw_edges = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if saw_edges or declared is not None:
                raise GraphError(f"line {lineno}: unexpected header")
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: malformed header {line!r}")
            try:
                declared = int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: malformed vertex count {parts[1]!r}") from None
            if declared < 1:
                raise GraphError(f"line {lineno}: vertex count must be positive")
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: malformed token in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex index")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        if declared is not None and (u >= declared or v >= declared):
            raise GraphError(f"line {lineno}: vertex index beyond declared count {declared}")
        saw_edges = True
        edges.append((u, v))
        max_index = max(max_index, u, v)
    if declared is None:
        if max_index < 0:
            raise GraphError("no vertices: empty input without a header")
        declared = max_index + 1
    return Graph(declared, edges)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list: header line, then sorted 'u v' lines."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least 1 vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with one hub (vertex 0) and `leaves` pendant vertices."""
    if leaves < 1:
        raise GraphError("star needs at least 1 leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("bipartite sides must be positive")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) sample, deterministic for a fixed (n, p, seed)."""
    if n < 1:
        raise GraphError("vertex count must be positive")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def generate(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a generator spec string.

    Accepted forms: path:n, cycle:n, complete:n, star:leaves,
    complete_bipartite:a:b, erdos_renyi:n:p (seed taken from the argument).
    """
    parts = spec.split(":")
    family, args = parts[0], parts[1:]
    try:
        if family == "path":
            (n,) = args
            return path_graph(int(n))
        if family == "cycle":
            (n,) = args
            return cycle_graph(int(n))
        if family == "complete":
            (n,) = args
            return complete_graph(int(n))
        if family == "star":
            (leaves,) = args
            return star_graph(int(leaves))
        if family == "complete_bipartite":
            a, b = args
            return complete_bipartite_graph(int(a), int(b))
        if family == "erdos_renyi":
            n, p = args
            return erdos_renyi_graph(int(n), float(p), seed)
    except GraphError:
        raise
    except ValueError as exc:
        raise GraphError(f"bad generator spec {spec!r}: {exc}") from None
    raise GraphError(f"unknown graph family {family!r}")


def degrees(g: Graph) -> tuple[list[int], int]:
    """Per-vertex degrees and the maximum degree."""
    d = [len(nb) for nb in g.neighbors]
    return d, max(d) if d else 0


def triangle_counts(g: Graph) -> tuple[int, list[int]]:
    """Total triangle count T and the per-vertex counts T_i.

    For each edge (u, v), every common neighbor w closes a triangle; crediting
    w at that edge visits each triangle exactly once per corner.
    """
    per = [0] * g.n
    adj = [set(nb) for nb in g.neighbors]
    for u, v in g.edges:
        for w in adj[u] & adj[v]:
            per[w] += 1
    total = sum(per)
    assert total % 3 == 0
    return total // 3, per


def is_bipartite(g: Graph) -> tuple[bool, Optional[list[int]]]:
    """Breadth-first 2-coloring; returns (flag, colors) with colors in {0, 1}."""
    colors: list[Optional[int]] = [None] * g.n
    for start in range(g.n):
        if colors[start] is not None:
            continue
        colors[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in g.neighbors[u]:
                if colors[v] is None:
                    colors[v] = 1 - colors[u]  # type: ignore[operator]
                    queue.append(v)
                elif colors[v] == colors[u]:
                    return False, None
    return True, [c for c in colors if c is not None]


def connected_components(g: Graph) -> list[list[int]]:
    """The sorted vertex lists of g's connected components, by least vertex."""
    seen = [False] * g.n
    components = []
    for root in range(g.n):
        if not seen[root]:
            seen[root] = True
            component = [root]
            for u in component:  # the list grows while it is read
                for v in g.neighbors[u]:
                    if not seen[v]:
                        seen[v] = True
                        component.append(v)
            components.append(sorted(component))
    return components


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def clique_number(g: Graph, limit: int = CLIQUE_SEARCH_LIMIT) -> int:
    """Exact maximum-clique size via branch-and-bound with pivoting.

    Exponential in the worst case; refuses graphs beyond `limit` vertices so
    callers must supply the clique number externally for larger inputs.
    """
    if g.n > limit:
        raise GraphError(f"exact clique search limited to {limit} vertices (got {g.n})")
    adj = [set(nb) for nb in g.neighbors]
    best = 1

    def expand(size: int, candidates: set[int], excluded: set[int]) -> None:
        nonlocal best
        if not candidates and not excluded:
            best = max(best, size)
            return
        if size + len(candidates) <= best:
            return
        pivot = max(candidates | excluded, key=lambda u: len(adj[u] & candidates))
        for v in sorted(candidates - adj[pivot]):
            expand(size + 1, candidates & adj[v], excluded & adj[v])
            candidates.remove(v)
            excluded.add(v)

    expand(0, set(range(g.n)), set())
    return best
