import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swbounds import report, spectrum, walks
from swbounds.graph import Graph, complete_graph, cycle_graph, degrees, is_bipartite, path_graph, star_graph, triangle_counts
from swbounds.walks import (
    MomentSequence,
    all_rooted_closed_counts,
    closed_walk_counts,
    closed_walk_counts_at,
    enumerate_walks_bruteforce,
    walk_counts,
)


def random_small_graph(min_n=2, max_n=6):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.builds(
            Graph,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=n * (n - 1) // 2,
            ),
        )
    )


class TestBruteForceOracle:
    """The enumerator is the ground truth; pin it on hand-checkable cases."""

    def test_k3(self):
        w, phi, per = enumerate_walks_bruteforce(complete_graph(3), 2)
        assert (w, phi, per) == (12, 6, [2, 2, 2])

    def test_single_edge_odd_closed(self):
        w, phi, _ = enumerate_walks_bruteforce(path_graph(2), 3)
        assert w == 2 and phi == 0

    def test_c4_length2(self):
        _, phi, _ = enumerate_walks_bruteforce(cycle_graph(4), 2)
        assert phi == 8  # twice the edge count

    def test_limits(self):
        with pytest.raises(ValueError, match="limited"):
            enumerate_walks_bruteforce(complete_graph(9), 2)
        with pytest.raises(ValueError, match="limited"):
            enumerate_walks_bruteforce(complete_graph(3), 9)


class TestCountsAgainstOracle:
    def test_walks_k3(self):
        assert walk_counts(complete_graph(3), 2).values == (3, 6, 12)

    def test_walks_p3(self):
        assert walk_counts(path_graph(3), 2).values == (3, 4, 6)

    def test_walks_single_edge_constant(self):
        assert walk_counts(path_graph(2), 9).values == tuple([2] * 10)

    def test_closed_k3(self):
        assert closed_walk_counts(complete_graph(3), 3).values == (3, 0, 6, 6)

    def test_closed_p3(self):
        assert closed_walk_counts(path_graph(3), 4).values == (3, 0, 4, 0, 8)

    def test_rooted_k3(self):
        assert closed_walk_counts_at(complete_graph(3), 0, 3).values == (1, 0, 2, 2)

    def test_rooted_star_center(self):
        assert closed_walk_counts_at(star_graph(4), 0, 2).values == (1, 0, 4)

    def test_rooted_p3_leaf(self):
        assert closed_walk_counts_at(path_graph(3), 0, 4).values == (1, 0, 1, 0, 2)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            closed_walk_counts_at(path_graph(3), 3, 2)

    @given(random_small_graph(), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_matrix_powers_match_enumeration(self, g, k):
        w, phi, per = enumerate_walks_bruteforce(g, k)
        assert walk_counts(g, k)[k] == w
        assert closed_walk_counts(g, k)[k] == phi
        assert [closed_walk_counts_at(g, i, k)[k] for i in range(g.n)] == per


class TestStructuralIdentities:
    @given(random_small_graph())
    @settings(max_examples=60, deadline=None)
    def test_low_order_counts(self, g):
        phi = closed_walk_counts(g, 3)
        d, _ = degrees(g)
        total_triangles, per_triangles = triangle_counts(g)
        assert phi[1] == 0
        assert phi[2] == 2 * g.edge_count
        assert phi[3] == 6 * total_triangles
        for i, rooted in enumerate(all_rooted_closed_counts(g, 3)):
            assert rooted[2] == d[i]
            assert rooted[3] == 2 * per_triangles[i]

    @given(random_small_graph(), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_rooted_counts_sum_to_total(self, g, K):
        phi = closed_walk_counts(g, K)
        rooted = all_rooted_closed_counts(g, K)
        w = walk_counts(g, K)
        for k in range(K + 1):
            assert phi[k] == sum(seq[k] for seq in rooted)
            assert 0 <= phi[k] <= w[k]

    @given(random_small_graph())
    @settings(max_examples=60, deadline=None)
    def test_bipartite_odd_closed_walks_vanish(self, g):
        flag, _ = is_bipartite(g)
        if flag:
            phi = closed_walk_counts(g, 7)
            assert phi[1] == phi[3] == phi[5] == phi[7] == 0

    def test_counts_exceed_word_size(self):
        # rho(K_12) = 11, so w_40 ~ 12 * 11**40 >> 2**63
        w = walk_counts(complete_graph(12), 40)
        assert w[40] == 12 * 11**40


class TestMomentSequenceType:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown moment kind"):
            MomentSequence("open_walks", (1,))
        with pytest.raises(ValueError, match="vertex"):
            MomentSequence("closed_walks", (1,), vertex=0)


def reference_counts(g, max_length):
    """(w, φ, [φ^(i)]) from plain Python-int powers of the adjacency matrix."""
    n = g.n
    a = [[int(j in g.neighbors[i]) for j in range(n)] for i in range(n)]
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    w, phi, rooted = [], [], [[] for _ in range(n)]
    for _ in range(max_length + 1):
        w.append(sum(map(sum, p)))
        phi.append(sum(p[i][i] for i in range(n)))
        for i in range(n):
            rooted[i].append(p[i][i])
        p = [[sum(p[i][l] * a[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    return tuple(w), tuple(phi), [tuple(r) for r in rooted]


def counts(g, max_length):
    """(w, φ, [φ^(i)]) from the library, every value checked to be a Python int."""
    w = walk_counts(g, max_length).values
    phi = closed_walk_counts(g, max_length).values
    rooted = [seq.values for seq in all_rooted_closed_counts(g, max_length)]
    for values in (w, phi, *rooted):
        assert all(type(v) is int for v in values)
    return w, phi, rooted


class TestExactTable:
    """The matrix-power table against a plain Python-int iteration."""

    @given(random_small_graph(1, 10), st.integers(0, 14))
    @settings(max_examples=60, deadline=None)
    def test_matches_python_int_reference(self, g, K):
        assert counts(g, K) == reference_counts(g, K)

    @pytest.mark.parametrize("g", [Graph(5, [(0, 1)]), Graph(1), star_graph(3)],
                             ids=["isolated", "n1", "star3"])
    @pytest.mark.parametrize("K", [0, 1, 6])
    def test_edge_cases(self, g, K):
        assert counts(g, K) == reference_counts(g, K)

    def test_star_60_crosses_int64_in_products(self):
        # 60**11 > 2**63: the products for k = 11, 12 are formed in Python ints
        leaves, K = 60, 12
        w, phi, rooted = counts(star_graph(leaves), K)
        center = tuple(leaves ** (k // 2) if k % 2 == 0 else 0 for k in range(K + 1))
        leaf = tuple(1 if k == 0 else leaves ** (k // 2 - 1) if k % 2 == 0 else 0
                     for k in range(K + 1))
        assert rooted[0] == center
        assert all(r == leaf for r in rooted[1:])
        assert phi == tuple(c + leaves * l for c, l in zip(center, leaf))
        assert w == reference_counts(star_graph(leaves), K)[0]

    @pytest.mark.parametrize("K", [30, 40])
    def test_complete_20_crosses_int64_in_values(self, K):
        # phi_k = 19**k + 19*(-1)**k passes 2**63 at k = 15; at K = 40 the
        # entries of the powers A^16..A^20 themselves pass it
        n = 20
        w, phi, rooted = counts(complete_graph(n), K)
        closed = tuple((n - 1) ** k + (n - 1) * (-1) ** k for k in range(K + 1))
        assert phi == closed
        assert max(closed) > 2 ** 63
        assert all(r == tuple(c // n for c in closed) for r in rooted)
        assert w == tuple(n * (n - 1) ** k for k in range(K + 1))

    def test_star_200_powers_in_python_ints(self):
        # 200**9 > 2**63, so the powers A^9..A^12 themselves leave int64
        leaves, K = 200, 24
        g = star_graph(leaves)
        _, phi, rooted = counts(g, K)
        center = tuple(leaves ** (k // 2) if k % 2 == 0 else 0 for k in range(K + 1))
        assert rooted[0] == center == closed_walk_counts_at(g, 0, K).values
        assert rooted[7] == closed_walk_counts_at(g, 7, K).values
        assert phi == tuple(c + sum(r[k] for r in rooted[1:]) for k, c in enumerate(center))
        assert phi[K] == 2 * leaves ** (K // 2)

    def test_chunked_steps_agree(self, monkeypatch):
        g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (0, 5), (6, 7), (2, 7), (1, 6)])
        whole = counts(g, 14)
        for limit in (1, 40):
            monkeypatch.setattr(walks, "_GATHER_LIMIT", limit)
            assert counts(g, 14) == whole == reference_counts(g, 14)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            all_rooted_closed_counts(path_graph(3), -1)


class TestSingleTablePass:
    """Closed and rooted counts of one graph share one table pass."""

    @pytest.fixture
    def table_calls(self, monkeypatch):
        calls = []
        table = walks._rooted_closed_table

        def counting(*args):
            calls.append(args)
            return table(*args)

        monkeypatch.setattr(walks, "_rooted_closed_table", counting)
        return calls

    def test_prepare_graph(self, table_calls):
        entry = report.CorpusEntry("c5", "cycle", cycle_graph(5))
        prep = report.prepare_graph(entry, 8)
        assert len(table_calls) == 1
        assert prep.closed_seq == closed_walk_counts(cycle_graph(5), 8)

    def test_verify_moment_identities(self, table_calls):
        assert spectrum.verify_moment_identities(complete_graph(4), 8)["passed"]
        assert len(table_calls) == 1


class TestMomentSequenceValues:
    @pytest.mark.parametrize("bad", [np.int64(3), 3.0])
    def test_rejects_non_int(self, bad):
        with pytest.raises(ValueError, match="Python ints"):
            MomentSequence("closed_walks", (1, 0, bad))
