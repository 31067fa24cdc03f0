import math

import numpy as np
import pytest

from swbounds.graph import complete_graph, cycle_graph, generate, path_graph, star_graph
from swbounds.spectrum import (
    adjacency_array,
    eigen_decompose,
    symmetric_eigenvalues,
    verify_moment_identities,
)


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
