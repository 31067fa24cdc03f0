import math

import numpy as np
import pytest

from swbounds.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    connected_components,
    generate,
    is_connected,
    path_graph,
    star_graph,
)
from swbounds.spectrum import (
    adjacency_array,
    component_decompose,
    eigen_decompose,
    moment_identity_deviations,
    symmetric_eigenvalues,
    verify_moment_identities,
)
from swbounds.walks import MomentSequence, all_rooted_closed_counts, closed_from_rooted, walk_counts


class TestJacobi:
    def test_k3_eigenvalues(self):
        values = eigen_decompose(complete_graph(3)).eigenvalues
        assert np.allclose(values, [2.0, -1.0, -1.0], atol=1e-10)

    def test_p3_eigenvalues(self):
        values = eigen_decompose(path_graph(3)).eigenvalues
        assert np.allclose(values, [math.sqrt(2), 0.0, -math.sqrt(2)], atol=1e-10)

    def test_star_radius_is_sqrt_degree(self):
        assert eigen_decompose(star_graph(4)).rho == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_complete_graph_spectrum(self, n):
        values = eigen_decompose(complete_graph(n)).eigenvalues
        expected = [n - 1.0] + [-1.0] * (n - 1)
        assert np.allclose(values, expected, atol=1e-9)

    def test_reconstruction(self):
        g = cycle_graph(7)
        summary = eigen_decompose(g)
        recon = summary.eigenvectors @ np.diag(summary.eigenvalues) @ summary.eigenvectors.T
        assert np.max(np.abs(recon - adjacency_array(g))) < 1e-9

    def test_orthonormal_columns(self):
        summary = eigen_decompose(cycle_graph(6))
        gram = summary.eigenvectors.T @ summary.eigenvectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_single_vertex(self):
        summary = eigen_decompose(path_graph(1))
        assert summary.rho == 0.0
        assert summary.weight_sums[0] == pytest.approx(1.0)

    def test_matches_library_eigensolver(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8))
        a = a + a.T
        ours = symmetric_eigenvalues(a)
        theirs = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(ours, theirs, atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.ones((2, 3)))

    def test_leading_eigenvector_nonnegative(self):
        summary = eigen_decompose(star_graph(5))
        assert float(np.min(summary.eigenvectors[:, 0])) >= -1e-12

    @pytest.mark.parametrize("spec", ["path:1", "path:7", "cycle:12", "star:9", "complete:6",
                                      "complete_bipartite:3:5", "erdos_renyi:40:0.1"])
    def test_signs_match_the_per_column_reference(self, spec):
        # each column flipped so its largest-magnitude entry is positive, as
        # a loop over the columns would do it: negation is exact, so the
        # vectors are bit-identical
        g = generate(spec, 3)
        values, vectors = np.linalg.eigh(adjacency_array(g))
        vectors = vectors[:, np.argsort(-values, kind="stable")]
        for col in range(g.n):
            pivot = int(np.argmax(np.abs(vectors[:, col])))
            if vectors[pivot, col] < 0.0:
                vectors[:, col] = -vectors[:, col]
        assert eigen_decompose(g).eigenvectors.tobytes() == vectors.tobytes()


class TestWeights:
    def test_k3_fundamental_weight(self):
        summary = eigen_decompose(complete_graph(3))
        assert summary.weight_sums[0] == pytest.approx(3.0, abs=1e-10)

    def test_star_vertex_weights(self):
        # hub weight solves a = 2b with a^2 + 4 b^2 = 1
        per_vertex = eigen_decompose(star_graph(4)).vertex_weights[:, 0]
        assert per_vertex[0] == pytest.approx(0.5, abs=1e-10)
        assert np.allclose(per_vertex[1:], 0.125, atol=1e-10)

    def test_c4_uniform_weights(self):
        summary = eigen_decompose(cycle_graph(4))
        assert summary.weight_sums[0] == pytest.approx(4.0, abs=1e-10)
        assert np.allclose(summary.vertex_weights[:, 0], 0.25, atol=1e-10)

    def test_vertex_weights_sum_to_one(self):
        summary = eigen_decompose(cycle_graph(5))
        assert np.allclose(summary.vertex_weights.sum(axis=1), 1.0, atol=1e-10)

    def test_weight_sums_total_n(self):
        summary = eigen_decompose(star_graph(3))
        assert float(summary.weight_sums.sum()) == pytest.approx(4.0, abs=1e-9)


class TestMomentIdentities:
    def test_k3(self):
        report = verify_moment_identities(complete_graph(3), 3, tol=1e-9)
        assert report["passed"], report

    def test_p3_odd_moments(self):
        report = verify_moment_identities(path_graph(3), 4, tol=1e-9)
        assert report["passed"], report

    def test_single_edge(self):
        report = verify_moment_identities(path_graph(2), 2, tol=1e-12)
        assert report["passed"], report

    def test_large_horizon(self):
        report = verify_moment_identities(complete_graph(10), 12, tol=1e-8)
        assert report["passed"], report


def _identity_reference(summary, total, closed, rooted, tol):
    """The identity written out once per weight set: ones for closed walks,
    the weight sums for walks and the vertex weights for rooted measures."""
    lam = summary.eigenvalues
    abs_lam = np.abs(lam)
    dev_closed = dev_total = dev_rooted = 0.0
    for k in range(total.max_index + 1):
        pk, apk = lam ** k, abs_lam ** k
        dev_closed = max(dev_closed, abs(float(pk.sum()) - float(closed[k]))
                         / max(1.0, float(apk.sum())))
        dev_total = max(dev_total, abs(float(summary.weight_sums @ pk) - float(total[k]))
                        / max(1.0, float(summary.weight_sums @ apk)))
        exact = np.array([float(seq[k]) for seq in rooted])
        scale = np.maximum(1.0, summary.vertex_weights @ apk)
        dev_rooted = max(dev_rooted, float(np.max(
            np.abs(summary.vertex_weights @ pk - exact) / scale)))
    return {"closed_walks": dev_closed, "closed_walks_at": dev_rooted, "walks": dev_total,
            "tol": tol, "passed": max(dev_closed, dev_rooted, dev_total) <= tol}


def _sequences(g, horizon):
    rooted = all_rooted_closed_counts(g, horizon)
    return eigen_decompose(g), walk_counts(g, horizon), closed_from_rooted(rooted), rooted


_IDENTITY_GRAPHS = {
    "complete_6": complete_graph(6),
    "cycle_7": cycle_graph(7),
    "star_5": star_graph(5),
    "biclique_3_4": complete_bipartite_graph(3, 4),
    "edgeless_4": Graph(4),
    "er_12_0.15_1729": erdos_renyi_graph(12, 0.15, 1729),
}


class TestStackedIdentity:
    """`moment_identity_deviations` stacks the three weight sets into one
    matrix; it must agree with the identity written out per weight set."""

    def test_the_disconnected_graph_is_disconnected(self):
        assert not is_connected(_IDENTITY_GRAPHS["er_12_0.15_1729"])

    @pytest.mark.parametrize("name", sorted(_IDENTITY_GRAPHS))
    @pytest.mark.parametrize("tol", [1e-8, 0.0])
    def test_matches_the_three_loops(self, name, tol):
        args = _sequences(_IDENTITY_GRAPHS[name], 10)
        got = moment_identity_deviations(*args, tol=tol)
        want = _identity_reference(*args, tol)
        assert list(got) == list(want)
        for key in ("closed_walks", "closed_walks_at", "walks"):
            assert got[key] == pytest.approx(want[key], abs=1e-12), key
        assert got["tol"] == tol
        assert got["passed"] is want["passed"]

    @pytest.mark.parametrize("name", sorted(_IDENTITY_GRAPHS))
    def test_one_count_off_in_one_rooted_sequence_fails(self, name):
        summary, total, closed, rooted = _sequences(_IDENTITY_GRAPHS[name], 6)
        assert moment_identity_deviations(summary, total, closed, rooted)["passed"]
        i = len(rooted) // 2
        values = list(rooted[i].values)
        values[2] += 1
        bad = [*rooted[:i], MomentSequence(rooted[i].kind, tuple(values), rooted[i].vertex),
               *rooted[i + 1:]]
        got = moment_identity_deviations(summary, total, closed, bad)
        assert not got["passed"]
        assert got["closed_walks_at"] > 0.1
        assert got["closed_walks"] == moment_identity_deviations(
            summary, total, closed, rooted)["closed_walks"]

    def test_counts_past_the_float_range(self):
        # on K_12 the walk count w_k = 12 * 11**k passes 1.8e308 at k = 295;
        # past 2**1000 both sides are compared in units of 2**(3k)
        g = complete_graph(12)
        assert walk_counts(g, 300)[300] > 2 ** 1024
        got = verify_moment_identities(g, 300)
        assert got["passed"], got
        assert max(got[key] for key in ("closed_walks", "closed_walks_at", "walks")) < 1e-12
        # a doubled top walk count still fails the check
        summary, total, closed, rooted = _sequences(g, 300)
        off = MomentSequence(total.kind, total.values[:-1] + (2 * total.values[-1],))
        assert not moment_identity_deviations(summary, off, closed, rooted)["passed"]


class TestComponentIdentity:
    """On a disconnected graph the identities are checked against one
    eigensolve per component, whose eigenvectors each vanish off one
    component."""

    # four components, two of them isolated vertices
    GRAPH = erdos_renyi_graph(12, 0.15, 1732)

    def test_the_graph_has_four_components(self):
        assert len(connected_components(self.GRAPH)) == 4

    def test_the_deep_horizon_passes(self):
        # on the whole graph's eigenvectors an isolated vertex carries
        # rounding-size weights on the other components' eigenvalues, which
        # at k = 80 made its deviation 1.0
        got = verify_moment_identities(self.GRAPH, 80)
        assert got["passed"], got
        assert got["closed_walks_at"] < 1e-12, got

    def test_one_count_off_fails(self):
        _, total, closed, rooted = _sequences(self.GRAPH, 80)
        summary = component_decompose(self.GRAPH)
        assert moment_identity_deviations(summary, total, closed, rooted)["passed"]
        vertices = max(connected_components(self.GRAPH), key=len)
        i = vertices[len(vertices) // 2]
        values = list(rooted[i].values)
        values[2] += 1
        bad = [*rooted[:i], MomentSequence(rooted[i].kind, tuple(values), i), *rooted[i + 1:]]
        got = moment_identity_deviations(summary, total, closed, bad)
        assert not got["passed"] and got["closed_walks_at"] > 0.1, got

    def test_each_eigenvector_vanishes_off_one_component(self):
        g = Graph(5, [(0, 3), (3, 4)])
        summary = component_decompose(g)
        assert np.allclose(summary.eigenvalues, [math.sqrt(2), 0.0, 0.0, 0.0, -math.sqrt(2)])
        recon = summary.eigenvectors @ np.diag(summary.eigenvalues) @ summary.eigenvectors.T
        assert np.allclose(recon, adjacency_array(g))
        # the isolated vertices 1 and 2 each hold one whole eigenvector
        assert sorted(summary.vertex_weights[[1, 2]].ravel()) == [0.0] * 8 + [1.0, 1.0]

    @pytest.mark.parametrize("name", sorted(
        name for name, g in _IDENTITY_GRAPHS.items() if is_connected(g)))
    def test_a_connected_graph_takes_the_same_arithmetic(self, name):
        g = _IDENTITY_GRAPHS[name]
        one, per_component = eigen_decompose(g), component_decompose(g)
        for field in ("eigenvalues", "eigenvectors", "weight_sums", "vertex_weights"):
            assert np.array_equal(getattr(one, field), getattr(per_component, field)), field
