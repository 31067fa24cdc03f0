import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swbounds.graph import (
    Graph,
    GraphError,
    clique_number,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    degrees,
    erdos_renyi_graph,
    generate,
    is_bipartite,
    is_connected,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
    star_graph,
    triangle_counts,
)


def small_graphs(max_n=6):
    return st.integers(2, max_n).flatmap(
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


class TestParsing:
    def test_k3_with_header(self):
        g = parse_edge_list("n 3\n0 1\n1 2\n0 2")
        assert g.n == 3 and g.edge_count == 3

    def test_path_without_header(self):
        g = parse_edge_list("0 1\n1 2")
        assert g == path_graph(3)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="line 1.*self-loop"):
            parse_edge_list("0 0")

    def test_malformed_token(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("0 1\n1 x")

    def test_negative_index(self):
        with pytest.raises(GraphError, match="negative"):
            parse_edge_list("-1 2")

    def test_index_beyond_declared(self):
        with pytest.raises(GraphError, match="line 2.*declared"):
            parse_edge_list("n 3\n0 3")

    def test_comments_and_duplicates(self):
        g = parse_edge_list("# triangle\n0 1\n1 0\n1 2\n0 2\n")
        assert g.edge_count == 3

    def test_empty_input_rejected(self):
        with pytest.raises(GraphError, match="no vertices"):
            parse_edge_list("# nothing\n")

    def test_serialize_format(self):
        text = serialize_edge_list(path_graph(3))
        assert text == "n 3\n0 1\n1 2\n"

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g


class TestGenerators:
    def test_star_degrees(self):
        d, max_d = degrees(star_graph(4))
        assert sorted(d, reverse=True) == [4, 1, 1, 1, 1] and max_d == 4

    def test_cycle_degrees(self):
        d, max_d = degrees(cycle_graph(4))
        assert d == [2, 2, 2, 2] and max_d == 2

    def test_path_degrees(self):
        d, max_d = degrees(path_graph(3))
        assert d == [1, 2, 1] and max_d == 2

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi_graph(10, 0.5, seed=7)
        b = erdos_renyi_graph(10, 0.5, seed=7)
        assert a == b

    def test_erdos_renyi_seed_sensitivity(self):
        assert erdos_renyi_graph(12, 0.5, seed=1) != erdos_renyi_graph(12, 0.5, seed=2)

    def test_bad_probability(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(5, 1.5, seed=0)

    def test_generate_specs(self):
        assert generate("star:4") == star_graph(4)
        assert generate("complete_bipartite:2:3") == complete_bipartite_graph(2, 3)
        assert generate("erdos_renyi:10:0.5", seed=7) == erdos_renyi_graph(10, 0.5, 7)
        with pytest.raises(GraphError):
            generate("petersen:10")

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, g):
        d, _ = degrees(g)
        assert sum(d) == 2 * g.edge_count


class TestTriangles:
    def test_k3(self):
        total, per = triangle_counts(complete_graph(3))
        assert total == 1 and per == [1, 1, 1]

    def test_path_has_none(self):
        total, per = triangle_counts(path_graph(3))
        assert total == 0 and per == [0, 0, 0]

    def test_k4_against_enumeration(self):
        g = complete_graph(4)
        adj = [set(nb) for nb in g.neighbors]
        expected = sum(
            1
            for a, b, c in itertools.combinations(range(4), 3)
            if b in adj[a] and c in adj[a] and c in adj[b]
        )
        total, per = triangle_counts(g)
        assert total == expected == 4
        assert per == [3, 3, 3, 3]


class TestBipartite:
    def test_even_cycle(self):
        flag, coloring = is_bipartite(cycle_graph(4))
        assert flag and coloring is not None

    def test_odd_cycle(self):
        assert is_bipartite(complete_graph(3)) == (False, None)

    def test_path_coloring(self):
        flag, coloring = is_bipartite(path_graph(3))
        assert flag
        sides = {frozenset(i for i, c in enumerate(coloring) if c == 0),
                 frozenset(i for i, c in enumerate(coloring) if c == 1)}
        assert sides == {frozenset({0, 2}), frozenset({1})}

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_coloring_has_no_monochromatic_edge(self, g):
        flag, coloring = is_bipartite(g)
        if flag:
            for u, v in g.edges:
                assert coloring[u] != coloring[v]


def brute_force_clique(g):
    best = 1
    adj = [set(nb) for nb in g.neighbors]
    for size in range(2, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            if all(b in adj[a] for a, b in itertools.combinations(subset, 2)):
                best = max(best, size)
    return best


class TestClique:
    def test_complete(self):
        assert clique_number(complete_graph(4)) == 4

    def test_triangle_free(self):
        assert clique_number(cycle_graph(4)) == 2

    def test_triangle_with_pendant(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert clique_number(g) == brute_force_clique(g) == 3

    def test_size_limit(self):
        with pytest.raises(GraphError, match="limited"):
            clique_number(complete_graph(5), limit=4)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, g):
        assert clique_number(g) == brute_force_clique(g)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_bipartite_implies_triangle_free(self, g):
        flag, _ = is_bipartite(g)
        if flag:
            assert clique_number(g) <= 2


def test_is_connected():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1))


def test_connected_components():
    assert connected_components(path_graph(5)) == [[0, 1, 2, 3, 4]]
    assert connected_components(Graph(6, [(4, 1), (2, 5), (5, 0)])) == [[0, 2, 5], [1, 4], [3]]
    assert connected_components(Graph(1)) == [[0]]
