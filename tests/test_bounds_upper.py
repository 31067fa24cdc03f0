import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swbounds.bounds_lower import Dead
from swbounds.bounds_upper import (
    _LEADING_BLOCK_NOT_PD,
    MIN_ATOM_WEIGHT,
    atom_weight_for,
    baseline_upper_bounds,
    bipartite_upper_bound,
    clique_root_upper_bound,
    eigvec_degree_upper_bound,
    even_moment_upper_bound,
    hankel_root_upper_bound,
    hankel_root_value,
    nikiforov_clique_value,
    stieltjes_root_upper_bound,
    stieltjes_root_value,
    two_point_upper_bound,
)
from swbounds.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degrees,
    generate,
    is_bipartite,
    is_connected,
    path_graph,
    star_graph,
)
from swbounds.moments import _adjugate
from swbounds.report import CorpusEntry, prepare_graph, sweep_bounds
from swbounds.roots import largest_real_root_bracket, no_real_root_above
from swbounds.spectrum import eigen_decompose
from swbounds.walks import (
    KIND_CLOSED,
    KIND_WALKS,
    MomentSequence,
    all_rooted_closed_counts,
    closed_walk_counts,
    closed_walk_counts_at,
    walk_counts,
)

K3 = complete_graph(3)
P3 = path_graph(3)
C4 = cycle_graph(4)
UNIT = 1.0


class TestAtomWeight:
    def test_closed_is_one(self):
        assert atom_weight_for(closed_walk_counts(K3, 2)) == 1.0

    def test_walks_uses_fundamental_weight(self):
        w = atom_weight_for(walk_counts(K3, 2), eigen_decompose(K3))
        assert w == pytest.approx(3.0, abs=1e-10)

    def test_rooted_uses_vertex_weight(self):
        summary = eigen_decompose(star_graph(4))
        w = atom_weight_for(closed_walk_counts_at(star_graph(4), 0, 2), summary)
        assert w == pytest.approx(0.5, abs=1e-10)

    def test_needs_summary(self):
        with pytest.raises(ValueError):
            atom_weight_for(walk_counts(K3, 2))


class TestEvenMoment:
    def test_phi_k3(self):
        res = even_moment_upper_bound(closed_walk_counts(K3, 2), UNIT, 1)
        assert res.value == pytest.approx(math.sqrt(6.0), abs=1e-12)
        assert not res.oracle_assisted

    def test_walks_k3_exact(self):
        m = walk_counts(K3, 2)
        res = even_moment_upper_bound(m, atom_weight_for(m, eigen_decompose(K3)), 1)
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert res.oracle_assisted

    def test_single_edge(self):
        res = even_moment_upper_bound(closed_walk_counts(path_graph(2), 2), UNIT, 1)
        assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_vanishing_weight(self):
        res = even_moment_upper_bound(walk_counts(K3, 2), 0.0, 1)
        assert not res.applicable


class TestTwoPoint:
    def test_phi_k3_k2(self):
        res = two_point_upper_bound(closed_walk_counts(K3, 4), UNIT, 2)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_phi_k3_k1(self):
        res = two_point_upper_bound(closed_walk_counts(K3, 2), UNIT, 1)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_walks_c4_uniform_weight(self):
        m = walk_counts(C4, 2)
        res = two_point_upper_bound(m, atom_weight_for(m, eigen_decompose(C4)), 1)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_excessive_weight_rejected(self):
        with pytest.raises(ValueError, match="total mass"):
            two_point_upper_bound(closed_walk_counts(K3, 2), 4.0, 1)

    def test_dominates_even_moment(self):
        for g in (K3, P3, C4, star_graph(5), complete_graph(6)):
            m = closed_walk_counts(g, 8)
            for k in (1, 2, 3):
                two = two_point_upper_bound(m, UNIT, k)
                even = even_moment_upper_bound(m, UNIT, k)
                assert two.value <= even.value + 1e-9


def _eigvec_degree(g, horizon=2):
    return eigvec_degree_upper_bound(all_rooted_closed_counts(g, horizon), eigen_decompose(g))


def _baselines(g, omega, horizon=6, **kwargs):
    return baseline_upper_bounds(walk_counts(g, horizon), eigen_decompose(g), omega,
                                 is_connected(g), **kwargs)


class TestEigvecDegree:
    def test_star(self):
        res = _eigvec_degree(star_graph(4))
        # hub attains the minimum: sqrt((2 - 1) * 4) = 2
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert res.params["vertex"] == 0

    def test_reports_the_vertex_not_its_position(self):
        # the centre of the star is vertex 0, passed second
        g = star_graph(4)
        rooted = [closed_walk_counts_at(g, v, 2) for v in (2, 0)]
        res = eigvec_degree_upper_bound(rooted, eigen_decompose(g))
        assert res.params["vertex"] == 0
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_star_leaf_value(self):
        g = star_graph(4)
        summary = eigen_decompose(g)
        x_leaf = float(summary.eigenvectors[1, 0])
        leaf_bound = math.sqrt((1.0 / x_leaf**2 - 1.0) * 1)
        assert leaf_bound == pytest.approx(math.sqrt(7.0), abs=1e-9)

    def test_k3(self):
        res = _eigvec_degree(K3)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_disconnected_applicable(self):
        # any unit eigenvector of rho has x_i^2 at most the rooted mass at rho
        # (Bessel), so the bound holds without connectivity, also where rho
        # is a double eigenvalue (two disjoint triangles)
        two_edges = Graph(4, [(0, 1), (2, 3)])
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        for g in (two_edges, two_triangles):
            res = _eigvec_degree(g)
            assert res.applicable
            assert res.value >= eigen_decompose(g).rho - 1e-9

    @pytest.mark.parametrize("n", range(3, 13))
    def test_vertex_transitive_reports_vertex_zero(self, n):
        # every vertex ties up to rounding; the label must not depend on it
        for g in (cycle_graph(n), complete_graph(n)):
            res = _eigvec_degree(g)
            assert res.params["vertex"] == 0

    def test_is_the_rooted_two_point_row(self, prepared_corpus):
        for prep in prepared_corpus:
            res = eigvec_degree_upper_bound(prep.rooted_seqs, prep.summary)
            m = prep.rooted_seqs[res.params["vertex"]]
            two = two_point_upper_bound(m, atom_weight_for(m, prep.summary), 1)
            assert (res.value, res.applicable) == (two.value, two.applicable)

    def test_matches_the_aggregate_sweep(self, prepared_corpus):
        # the reported vertex and value of the sweep's rooted two_point k = 1 row
        for prep in prepared_corpus:
            rows = [r for r, _ in sweep_bounds(prep, measures=("vertex",), j_sets=(),
                                               sdp_orders=())]
            eig = next(r for r in rows if r.name == "eigvec_degree")
            two = next(r for r in rows if r.name == "two_point" and r.params["k"] == 1)
            assert (eig.value, eig.params["vertex"]) == (two.value, two.params["vertex"])

    def test_old_entry_formula_within_four_ulps(self, prepared_corpus):
        # the former per-vertex sqrt((1/x_i^2 - 1) d_i) on connected graphs
        for prep in prepared_corpus:
            if not prep.connected:
                continue
            res = eigvec_degree_upper_bound(prep.rooted_seqs, prep.summary)
            i = res.params["vertex"]
            xi = float(prep.summary.eigenvectors[i, 0])
            reference = math.sqrt((1.0 / (xi * xi) - 1.0) * degrees(prep.entry.graph)[0][i])
            assert abs(res.value - reference) <= 4 * math.ulp(reference)

    def test_params_and_skipped_vertices(self):
        # the isolated vertex has no mass at rho and is skipped
        g = Graph(3, [(0, 1)])
        res = _eigvec_degree(g)
        assert res.params == {"vertex": 0, "skipped": 1}
        assert res.value == pytest.approx(1.0, abs=1e-12) and res.oracle_assisted

    def test_needs_rooted_sequences_up_to_m2(self):
        summary = eigen_decompose(K3)
        with pytest.raises(ValueError, match="rooted"):
            eigvec_degree_upper_bound(all_rooted_closed_counts(K3, 1), summary)
        with pytest.raises(ValueError, match="rooted"):
            eigvec_degree_upper_bound([closed_walk_counts(K3, 2)], summary)


class TestBipartiteHalving:
    def test_c4_exact(self):
        res = bipartite_upper_bound(closed_walk_counts(C4, 2), UNIT, 1, True)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_single_edge(self):
        g = path_graph(2)
        res = bipartite_upper_bound(closed_walk_counts(g, 2), UNIT, 1, is_bipartite(g)[0])
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_non_bipartite_inapplicable(self):
        res = bipartite_upper_bound(closed_walk_counts(K3, 2), UNIT, 1, is_bipartite(K3)[0])
        assert not res.applicable and "bipartite" in res.reason

    def test_walks_measure_rejected(self):
        with pytest.raises(ValueError):
            bipartite_upper_bound(walk_counts(C4, 2), UNIT, 1, True)

    def test_tighter_than_even_moment(self):
        for g in (C4, path_graph(5), star_graph(6)):
            m = closed_walk_counts(g, 6)
            for k in (1, 2, 3):
                half = bipartite_upper_bound(m, UNIT, k, True)
                even = even_moment_upper_bound(m, UNIT, k)
                assert half.value <= even.value


class TestHankelRoot:
    def test_k3_quadratic(self):
        # det [[2, -r], [-r, 6 - r^2]] = 12 - 3 r^2, largest root 2
        res = hankel_root_upper_bound(closed_walk_counts(K3, 2), UNIT, (1, 2))
        assert res.value == pytest.approx(2.0, abs=1e-8)

    def test_p3_quadratic(self):
        res = hankel_root_upper_bound(closed_walk_counts(P3, 2), UNIT, (1, 2))
        assert res.value == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-8)

    def test_singleton_degenerate(self):
        res = hankel_root_upper_bound(closed_walk_counts(K3, 2), UNIT, (1,))
        assert not res.applicable

    def test_three_positions_sound(self):
        for g in (K3, C4, complete_graph(5), star_graph(5)):
            m = closed_walk_counts(g, 6)
            res = hankel_root_upper_bound(m, UNIT, (1, 2, 3))
            if res.applicable:
                assert res.value >= eigen_decompose(g).rho - 1e-8

    @pytest.mark.parametrize("n, rho", [(4, (1 + math.sqrt(5)) / 2), (5, math.sqrt(3))])
    def test_exact_when_the_bulk_has_one_atom_fewer_than_positions(self, n, rho):
        # P_n has n simple eigenvalues: with J = 1..n the closed-walk bulk
        # (n - 1 atoms) makes the determinant vanish at rho itself; |J| >= 4
        # takes the adjugate from Bareiss minors
        m = closed_walk_counts(path_graph(n), 2 * n)
        res = hankel_root_upper_bound(m, UNIT, range(1, n + 1))
        assert rho * (1 - 1e-15) <= res.value <= rho * (1 + 1e-12)

    def test_vanishing_bulk_is_flagged_not_misrooted(self):
        # walks on a regular graph put all mass on the top atom, so the
        # polynomial is a perfect square touching zero at rho; even with deep
        # positions and moments past 2**53 the touching root comes back as rho
        g = complete_graph(12)
        m = walk_counts(g, 24)
        assert m[22] > 2**53
        weight = atom_weight_for(m, eigen_decompose(g))
        res = hankel_root_upper_bound(m, weight, (11, 12))
        assert res.applicable
        assert 11.0 <= res.value <= 11.0 * (1.0 + 1e-12)

    def test_singular_leading_block_inapplicable(self):
        # walks on K_4 sit on one atom, so det H_{(1,2)} is exactly 0
        g = complete_graph(4)
        m = walk_counts(g, 6)
        res = hankel_root_upper_bound(m, atom_weight_for(m, eigen_decompose(g)), (1, 2, 3))
        assert not res.applicable and "leading Hankel block" in res.reason

    def test_vanishing_bulk_flagged_at_small_scale_too(self):
        # same touching root without any rescaling
        g = cycle_graph(4)
        m = walk_counts(g, 8)
        weight = atom_weight_for(m, eigen_decompose(g))
        res = hankel_root_upper_bound(m, weight, (3, 4))
        assert res.applicable
        assert 2.0 <= res.value <= 2.0 * (1.0 + 1e-12)

    def test_five_positions_on_a_biclique_are_inapplicable_without_error(self):
        # every measure of K_{4,6} sits on at most three atoms (0 and
        # +-sqrt(24)), so H_{J'} of J = (1, ..., 5) is singular; the
        # elimination in `_adjugate` stops before its back substitution
        # would divide by a zero pivot
        prep = prepare_graph(CorpusEntry("k46", "complete_bipartite",
                                         complete_bipartite_graph(4, 6)))
        for m in [prep.walks_seq, prep.closed_seq, *prep.rooted_seqs]:
            outcome = hankel_root_value(m, atom_weight_for(m, prep.summary), (1, 2, 3, 4, 5))
            assert outcome == _LEADING_BLOCK_NOT_PD

    def test_an_indefinite_leading_block_is_inapplicable_beyond_three_positions(self):
        # no moment sequence: det H_{(1,2)} = -6 while det H_{(1,2,3)} = 33 > 0;
        # four positions need |J| - 1 = 3 positive leading minors
        m = MomentSequence(KIND_CLOSED, (1, 3, 3, 6, 2, 3, 2))
        res = hankel_root_upper_bound(m, 0.5, (1, 2, 3, 4))
        assert not res.applicable
        assert res.reason == _LEADING_BLOCK_NOT_PD.reason


def _fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


class TestAdjugate:
    @settings(max_examples=300, deadline=None)
    @given(atoms=st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1,
                          max_size=6),
           perturb=st.lists(st.tuples(st.integers(0, 12), st.integers(-3, 3)), max_size=1),
           indices=st.sets(st.integers(1, 7), min_size=2, max_size=6).map(sorted))
    @example(atoms=[(1, 1), (2, 1)], perturb=[], indices=[1, 2, 3, 4, 5])
    @example(atoms=[(0, 1), (1, 1), (2, 1)], perturb=[], indices=[1, 2, 3, 4])
    def test_matches_the_cofactors(self, atoms, perturb, indices):
        # Hankel blocks of atomic measures: singular with fewer atoms than
        # positions, and with a singular H_{J'} with fewer than |J| - 1; a
        # perturbed moment gives blocks that are not PSD
        m = [sum(w * x ** j for x, w in atoms) for j in range(13)]
        for index, delta in perturb:
            m[index] += delta
        h = [[m[a + b - 2] for b in indices] for a in indices]
        size = len(h)
        cofactors = [[(-1) ** (i + j) * _fraction_det([r[:i] + r[i + 1:]
                                                       for k, r in enumerate(h) if k != j])
                      for j in range(size)] for i in range(size)]
        minors = [_fraction_det([r[:k] for r in h[:k]]) for k in range(1, size)]
        adj = _adjugate(h)
        if size > 3 and not all(d > 0 for d in minors):
            assert adj is None
        else:
            assert adj == cofactors


class TestStieltjesRoot:
    def test_walks_k3_linear(self):
        m = walk_counts(K3, 1)
        res = stieltjes_root_upper_bound(m, atom_weight_for(m, eigen_decompose(K3)), 0)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_phi_k3_cubic(self):
        res = stieltjes_root_upper_bound(closed_walk_counts(K3, 3), UNIT, 1)
        # largest root of 6r + 6 - 2r^3 (reference: numpy.roots)
        assert res.value == pytest.approx(2.1038034027355357, abs=1e-9)

    def test_single_edge_exact(self):
        res = stieltjes_root_upper_bound(closed_walk_counts(path_graph(2), 3), UNIT, 1)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_linear_case(self):
        # closed walks with n >= 3 make the k=0 polynomial non-decreasing
        res = stieltjes_root_upper_bound(closed_walk_counts(K3, 1), UNIT, 0)
        assert not res.applicable

    def test_dominates_even_moment(self):
        for g in (K3, P3, C4, complete_graph(5)):
            m = closed_walk_counts(g, 8)
            for k in (1, 2, 3):
                root = stieltjes_root_upper_bound(m, UNIT, k)
                even = even_moment_upper_bound(m, UNIT, k)
                assert root.value <= even.value + 1e-9


class TestCliqueRoot:
    def test_k3(self):
        res = clique_root_upper_bound(walk_counts(K3, 1), 3, 0)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_p3(self):
        res = clique_root_upper_bound(walk_counts(P3, 1), 2, 0)
        assert res.value == pytest.approx((3.0 + math.sqrt(73.0)) / 8.0, abs=1e-9)

    def test_c4(self):
        res = clique_root_upper_bound(walk_counts(C4, 1), 2, 0)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_edgeless_inapplicable(self):
        res = clique_root_upper_bound(walk_counts(path_graph(1), 1), 1, 0)
        assert not res.applicable

    def test_improves_clique_hierarchy(self):
        for g, omega in ((K3, 3), (P3, 2), (C4, 2), (complete_graph(5), 5)):
            m = walk_counts(g, 8)
            for k in (0, 1, 2):
                res = clique_root_upper_bound(m, omega, k)
                reference = ((1.0 - 1.0 / omega) * m[2 * k]) ** (1.0 / (2 * k + 1))
                assert res.value <= reference + 1e-9
                assert nikiforov_clique_value(m, omega, 2 * k) == pytest.approx(
                    reference, rel=1e-14)


class TestThreeTermRoute:
    """The Stieltjes (k >= 1) and clique rows bracket a + b r - c r**n with
    no coefficient list, by the same search as the coefficient list."""

    def test_every_class_matches_the_coefficient_list_bit_for_bit(self):
        g = generate("erdos_renyi:20:0.3", 16)
        prep = prepare_graph(CorpusEntry("er", "erdos_renyi", g), 20)
        checked = 0
        for m in (prep.walks_seq, prep.closed_seq, *prep.rooted_seqs):
            alpha = atom_weight_for(m, prep.summary)
            assert alpha > MIN_ATOM_WEIGHT
            num, den = alpha.as_integer_ratio()
            for k in range(1, 10):
                coeffs = [den * m[2 * k + 1], den * m[2 * k]] + [0] * (2 * k - 1) + [-2 * num]
                lo, hi = largest_real_root_bracket(coeffs)
                assert stieltjes_root_value(m, alpha, k) == hi
                for u in (math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, math.inf)):
                    out = stieltjes_root_value(m, alpha, k, cutoff=u)
                    if no_real_root_above(coeffs, u):
                        assert out == hi
                    else:
                        assert isinstance(out, Dead)
                checked += 1
        w, omega = prep.walks_seq, prep.omega
        for k in range(10):
            coeffs = [(omega - 1) * w[2 * k + 1], (omega - 1) * w[2 * k]] + [0] * (2 * k)
            coeffs.append(-2 * omega)
            assert clique_root_upper_bound(w, omega, k).value == largest_real_root_bracket(coeffs)[1]
            checked += 1
        assert checked == 22 * 9 + 10


class TestBaselines:
    def test_k3_wilf(self):
        results = {r.name: r for r in _baselines(K3, 3)}
        assert results["baseline_wilf"].value == pytest.approx(2.0, abs=1e-9)

    def test_k3_eigvec_walk(self):
        results = [r for r in _baselines(K3, 3)
                   if r.name == "baseline_eigvec_walk" and r.params["k"] == 1]
        assert results[0].value == pytest.approx(2.0, abs=1e-9)

    def test_k3_van_mieghem(self):
        results = [r for r in _baselines(K3, 3)
                   if r.name == "baseline_van_mieghem" and r.params["k"] == 1]
        assert results[0].value == pytest.approx(2.0, abs=1e-9)

    def test_disconnected_eigvec_bounds_flagged(self):
        g = Graph(4, [(0, 1), (2, 3)])
        results = _baselines(g, 2)
        by_name = {}
        for r in results:
            by_name.setdefault(r.name, []).append(r)
        assert all(not r.applicable for r in by_name["baseline_wilf"])
        assert all(not r.applicable for r in by_name["baseline_eigvec_walk"])
        assert all(not r.applicable for r in by_name["baseline_van_mieghem"])
        # the clique hierarchy needs no eigenvector and stays applicable
        assert all(r.applicable for r in by_name["baseline_nikiforov_clique"])

    def test_disconnected_rows_are_the_connected_rows_dead(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        m_w, summary = walk_counts(g, 6), eigen_decompose(g)
        dead = baseline_upper_bounds(m_w, summary, 2, False)
        assert [(r.name, r.params) for r in dead] == [
            (r.name, r.params) for r in baseline_upper_bounds(m_w, summary, 2, True)]
        eigvec = [r for r in dead if r.name != "baseline_nikiforov_clique"]
        assert len(eigvec) == 7
        for r in eigvec:
            assert (r.applicable, r.reason, r.oracle_assisted) == (
                False, "graph is not connected", False)

    def test_only_the_eigenvector_rows_are_oracle_assisted(self):
        flags = {(r.name, r.oracle_assisted) for r in _baselines(P3, 2)}
        assert flags == {("baseline_nikiforov_clique", False), ("baseline_wilf", True),
                         ("baseline_eigvec_walk", True), ("baseline_van_mieghem", True)}

    def test_all_sound_on_small_family(self):
        for g, omega in ((K3, 3), (C4, 2), (star_graph(5), 2), (complete_graph(6), 6)):
            for r in _baselines(g, omega, horizon=8):
                if r.applicable:
                    assert r.value >= eigen_decompose(g).rho - 1e-9

    def test_eigvec_walk_is_the_even_moment_row_at_the_weight_floor(self, prepared_corpus):
        checked = 0
        for prep in prepared_corpus:
            if not prep.connected or prep.omega is None:
                continue
            m_w = prep.walks_seq
            umax = float(prep.summary.eigenvectors[:, 0].max())
            floor = 1.0 / (umax * umax)
            for r in baseline_upper_bounds(m_w, prep.summary, prep.omega, True, (1, 2, 3, 4)):
                if r.name == "baseline_eigvec_walk":
                    even = even_moment_upper_bound(m_w, floor, r.params["k"])
                    assert (r.value, r.oracle_assisted) == (even.value, True)
                    checked += 1
        assert checked > 0

    def test_nikiforov_clique_rows(self):
        m = walk_counts(P3, 4)
        rows = [r for r in baseline_upper_bounds(m, eigen_decompose(P3), 2, True, (1, 2, 3))
                if r.name == "baseline_nikiforov_clique"]
        assert [r.value for r in rows] == [nikiforov_clique_value(m, 2, k) for k in (1, 2, 3)]
        assert nikiforov_clique_value(walk_counts(path_graph(1), 2), 1, 1) == 0.0

    def test_unknown_omega_keeps_the_omega_free_rows(self, prepared_corpus):
        free = {"baseline_eigvec_walk", "baseline_van_mieghem"}
        for prep in prepared_corpus[:20]:
            if prep.omega is None:
                continue
            ks = (1, 2, 3)
            known = baseline_upper_bounds(prep.walks_seq, prep.summary, prep.omega,
                                          prep.connected, ks)
            unknown = baseline_upper_bounds(prep.walks_seq, prep.summary, None,
                                            prep.connected, ks)
            assert unknown == [r for r in known if r.name in free]


def _cutoffs(coeffs, extra):
    """Floats u > 0 at and next to the ends of the top root's bracket, and `extra`."""
    lo, hi = largest_real_root_bracket(coeffs)
    near = [math.nextafter(x, d) for x in (lo, hi) for d in (0.0, math.inf)]
    return sorted(u for u in {lo, hi, *near, *extra} if u > 0.0)


def _assert_rules_out_a_root_above(value, coeffs, extra):
    """The routine's cutoff outcome is the exact test's: ruled out when a
    root lies above u, and otherwise the upper end of the bracket."""
    hi = largest_real_root_bracket(coeffs)[1]
    for u in _cutoffs(coeffs, extra):
        out = value(u)
        if not no_real_root_above(coeffs, u):
            assert isinstance(out, Dead), u
        else:
            assert out == hi, u


_DYADIC = st.tuples(st.integers(1, 2 ** 12), st.integers(0, 12)).map(
    lambda t: math.ldexp(t[0], -t[1]))
_EXTRA = st.lists(st.floats(1e-3, 1e3), max_size=3)


class TestCutoffSign:
    """The upper root families decide a cutoff u = p / 2**e by their
    polynomial's exact sign there, falling back on `no_real_root_above`."""

    @st.composite
    def stieltjes_data(draw):
        k = draw(st.integers(0, 4))
        if draw(st.booleans()):
            # an integer root r: m_{2k+1} = 2 alpha r**(2k+1) - m_{2k} r >= 0,
            # and r at most the even-moment bound (m_{2k} / alpha) ** (1/2k)
            alpha = draw(st.sampled_from((0.5, 1.0)))
            r = draw(st.integers(1, 9))
            scale = alpha * r ** (2 * k)
            m2k = draw(st.integers(math.ceil(scale), math.floor(2 * scale)))
            m2k1 = round(2 * scale * r) - m2k * r
        else:
            alpha = draw(_DYADIC)
            m2k = draw(st.integers(1, 10 ** 9))
            top = 10 ** 6 if k == 0 else int(0.999 * m2k * (m2k / alpha) ** (1 / (2 * k)))
            m2k1 = draw(st.integers(0, top))
        return k, alpha, m2k, m2k1

    @settings(max_examples=150, deadline=None)
    @given(data=stieltjes_data(), extra=_EXTRA)
    @example(data=(0, 1.0, 1, 0), extra=[0.5])  # m_0 r - 2 r: linear, its root at 0
    def test_stieltjes_root_sign_matches_the_exact_test(self, data, extra):
        k, alpha, m2k, m2k1 = data
        num, den = alpha.as_integer_ratio()
        coeffs = [den * m2k1, den * m2k] + [0] * (2 * k)
        coeffs[2 * k + 1] -= 2 * num
        if coeffs[-1] >= 0:
            return  # k = 0 with m_0 >= 2 alpha: inapplicable before any cutoff
        m = MomentSequence(KIND_WALKS, (1,) * (2 * k) + (m2k, m2k1))
        _assert_rules_out_a_root_above(
            lambda u: stieltjes_root_value(m, alpha, k, cutoff=u), coeffs, extra)

    @settings(max_examples=150, deadline=None)
    @given(atoms=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 30)), min_size=2,
                          max_size=5, unique_by=lambda a: a[0]),
           indices=st.sampled_from(((1, 2), (1, 2, 3), (1, 2, 3, 4))), share=_DYADIC,
           extra=_EXTRA)
    @example(atoms=[(2, 3), (5, 1)], indices=(1, 2, 3), share=1.0, extra=[3.0])
    def test_hankel_root_sign_matches_the_exact_test(self, atoms, indices, share, extra):
        # moments of a measure with at least |J| - 1 atoms, so H_{J'} is
        # definite, and alpha at most the top atom's weight, so a real root
        # exists; |J| - 1 atoms make H_J singular, and the polynomial a
        # negative multiple of the square of p = (last row of adj(H_J)) . v,
        # whose simple roots are the atoms; four positions take the
        # elimination of `_adjugate`
        if len(atoms) < len(indices) - 1:
            return
        m = MomentSequence(KIND_WALKS, tuple(sum(w * x ** j for x, w in atoms)
                                             for j in range(7)))
        alpha = max(atoms)[1] * min(share, 1.0)
        h = [[m[a + b - 2] for b in indices] for a in indices]
        adj = _adjugate(h)
        num, den = alpha.as_integer_ratio()
        det_h = sum(h[0][b] * adj[b][0] for b in range(len(indices)))
        assert (det_h == 0) == (len(atoms) < len(indices))
        if det_h:
            coeffs = [0] * (2 * indices[-1] - 1)
            coeffs[0] = den * det_h
            for a, ja in enumerate(indices):
                for b, jb in enumerate(indices):
                    coeffs[ja + jb - 2] -= num * adj[a][b]
        else:
            coeffs = adj[-1]  # p's coefficients: J = (1, ..., r) puts r**(j - 1) at j - 1
        _assert_rules_out_a_root_above(
            lambda u: hankel_root_value(m, alpha, indices, cutoff=u), coeffs, extra)
