import dataclasses
import math

import pytest

from swbounds.bounds_lower import (
    BoundResult,
    baseline_lower_bounds,
    det_ratio_lower_bound,
    local_triangle_lower_bound,
    quadratic_root_lower_bound,
    ratio_lower_bound,
    sdp_lower_bound,
    triangle_edge_lower_bound,
)
from swbounds.graph import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from swbounds.moments import exact_psd, orthogonal_polynomial
from swbounds.report import er_corpus, family_corpus, find_violations, prepare_graph
from swbounds.spectrum import eigen_decompose
from swbounds.walks import (
    KIND_CLOSED,
    MomentSequence,
    closed_walk_counts,
    closed_walk_counts_at,
    walk_counts,
)

K3 = complete_graph(3)
P3 = path_graph(3)
C4 = cycle_graph(4)
SQRT2 = math.sqrt(2.0)


class TestBoundResult:
    def test_record_is_slotted_unfrozen_and_replaceable(self):
        # a sweep builds one record per evaluated row: a per-instance dict or
        # a frozen __init__ would cost more than most bounds' arithmetic
        res = ratio_lower_bound(walk_counts(P3, 3), 0, 2)
        assert not hasattr(res, "__dict__")
        raised = dataclasses.replace(res, value=res.value + 1.0)
        assert type(raised) is BoundResult and raised.value == res.value + 1.0
        assert dataclasses.replace(raised, value=res.value) == res
        raised.value = res.value
        assert raised == res


class TestRatio:
    def test_phi_k3(self):
        res = ratio_lower_bound(closed_walk_counts(K3, 3), 1, 1)
        assert res.value == pytest.approx(1.0) and res.value <= 2.0

    def test_walks_k3_exact_on_regular(self):
        res = ratio_lower_bound(walk_counts(K3, 3), 0, 1)
        assert res.value == 2.0  # exact big-integer ratio

    def test_walks_p3_matches_oracle(self):
        res = ratio_lower_bound(walk_counts(P3, 3), 0, 2)
        assert res.value == pytest.approx(eigen_decompose(P3).rho, abs=1e-12)

    def test_zero_mass_inapplicable(self):
        m = closed_walk_counts(path_graph(1), 4)  # (1, 0, 0, 0, 0)
        res = ratio_lower_bound(m, 1, 1)
        assert not res.applicable and "zero" in res.reason

    def test_range_error(self):
        with pytest.raises(ValueError):
            ratio_lower_bound(walk_counts(K3, 3), 2, 1)


class TestDetRatio:
    def test_k3_vacuous(self):
        res = det_ratio_lower_bound(closed_walk_counts(K3, 3), 0, 1)
        assert res.trivial and res.value == 0.0

    def test_p3_vacuous(self):
        res = det_ratio_lower_bound(closed_walk_counts(P3, 3), 0, 1)
        assert res.trivial and res.value == 0.0

    def test_star_center_singular(self):
        m = closed_walk_counts_at(star_graph(4), 0, 6)
        assert m.values == (1, 0, 4, 0, 16, 0, 64)
        res = det_ratio_lower_bound(m, 0, 2)
        assert not res.applicable and "singular" in res.reason

    def test_nontrivial_case_is_sound(self):
        g = complete_graph(5)
        m = closed_walk_counts(g, 12)
        res = det_ratio_lower_bound(m, 1, 1)
        if res.applicable and not res.trivial:
            assert res.value <= eigen_decompose(g).rho + 1e-9

    def test_negative_hankel_determinant_inapplicable(self):
        # m = (1, 2, 1, ...) is no moment sequence: det H = 1*1 - 2*2 = -3
        m = MomentSequence(KIND_CLOSED, tuple(1 if i % 2 == 0 else 2 for i in range(13)))
        res = det_ratio_lower_bound(m, 0, 1)
        assert not res.applicable and math.isnan(res.value)
        assert find_violations([res], 1.0) == []


class TestQuadraticRoot:
    def test_k3_exact(self):
        res = quadratic_root_lower_bound(closed_walk_counts(K3, 3), 0, 1)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_p3(self):
        res = quadratic_root_lower_bound(closed_walk_counts(P3, 3), 0, 1)
        assert res.value == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
        assert res.value <= SQRT2

    def test_c4(self):
        res = quadratic_root_lower_bound(closed_walk_counts(C4, 3), 0, 1)
        assert res.value == pytest.approx(SQRT2, abs=1e-12)

    def test_dominates_vertex_value(self):
        # the closed form is at least |det F| / (2 det H), pointwise
        for g in (K3, P3, C4, complete_graph(5), star_graph(5)):
            m = closed_walk_counts(g, 12)
            for s in range(3):
                for k in (1, 2):
                    if 2 * s + 3 * k > m.max_index:
                        continue
                    res = quadratic_root_lower_bound(m, s, k)
                    if not res.applicable:
                        continue
                    m0, m1, m2, m3 = m[2 * s], m[2 * s + k], m[2 * s + 2 * k], m[2 * s + 3 * k]
                    det_h = m0 * m2 - m1 * m1
                    det_f = m1 * m2 - m3 * m0
                    floor = (abs(det_f) / (2 * det_h)) ** (1.0 / k)
                    assert res.value >= floor - 1e-12


class TestTriangleEdge:
    def test_k3_exact(self):
        assert triangle_edge_lower_bound(K3).value == pytest.approx(2.0, abs=1e-12)

    def test_p3(self):
        assert triangle_edge_lower_bound(P3).value == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-12)

    def test_c4(self):
        assert triangle_edge_lower_bound(C4).value == pytest.approx(SQRT2, abs=1e-12)

    def test_edgeless(self):
        assert not triangle_edge_lower_bound(path_graph(1)).applicable

    def test_matches_quadratic_root_specialisation(self):
        # same algebra as the (s=0, k=1) closed-walk quadratic root
        for g in (K3, C4, complete_graph(5)):
            direct = triangle_edge_lower_bound(g).value
            via_roots = quadratic_root_lower_bound(closed_walk_counts(g, 3), 0, 1).value
            assert direct == pytest.approx(via_roots, abs=1e-12)


class TestLocalTriangle:
    def test_p3_center_exact(self):
        res = local_triangle_lower_bound(P3)
        assert res.value == pytest.approx(SQRT2, abs=1e-12)
        assert res.params["vertex"] == 1

    def test_star_center(self):
        res = local_triangle_lower_bound(star_graph(4))
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.params["sqrt_max_degree"] == pytest.approx(2.0)

    def test_k3(self):
        assert local_triangle_lower_bound(K3).value == pytest.approx(2.0, abs=1e-12)

    def test_edgeless(self):
        assert not local_triangle_lower_bound(path_graph(1)).applicable


class TestSdp:
    def test_k3_binding(self):
        res = sdp_lower_bound(closed_walk_counts(K3, 3), 1)
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_p3(self):
        res = sdp_lower_bound(closed_walk_counts(P3, 3), 1)
        assert res.value == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-6)

    def test_p2_order_zero(self):
        res = sdp_lower_bound(closed_walk_counts(path_graph(2), 1), 0)
        assert res.value == 0.0

    def test_monotone_in_order(self):
        m = closed_walk_counts(path_graph(7), 12)
        values = [sdp_lower_bound(m, order).value for order in (0, 1, 2)]
        assert values[0] <= values[1] + 1e-7 and values[1] <= values[2] + 1e-7

    def test_subsumes_ratio_seeds(self):
        m = walk_counts(path_graph(6), 12)
        res = sdp_lower_bound(m, 2)
        for s in range(3):
            assert res.value >= ratio_lower_bound(m, s, 1).value - 1e-7

    def test_insufficient_moments(self):
        with pytest.raises(ValueError):
            sdp_lower_bound(closed_walk_counts(K3, 3), 2)

    def test_rescaled_moments_stay_calibrated(self):
        # big-count regime: Hankel assembly rescales, the bound must not
        g = complete_graph(12)
        m = walk_counts(g, 24)
        assert m[22] > 2**53
        res = sdp_lower_bound(m, 11)
        assert res.value == pytest.approx(11.0, abs=1e-6)

    def test_never_above_rho(self):
        g = complete_bipartite_graph(2, 3)
        rho = eigen_decompose(g).rho
        assert sdp_lower_bound(walk_counts(g, 6), 1).value <= rho * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_two_atoms_exact(self, n):
        # closed walks on K_n sit on {n-1, -1}: H_2 is singular, order 1 is optimal
        res = sdp_lower_bound(closed_walk_counts(complete_graph(n), 6), 2)
        assert res.value == pytest.approx(n - 1.0, rel=1e-12)

    @pytest.mark.parametrize("g", [cycle_graph(6), complete_graph(4)])
    def test_one_atom_exact(self, g):
        # walks on a d-regular graph put all their mass on d
        res = sdp_lower_bound(walk_counts(g, 6), 2)
        assert res.value == pytest.approx(g.degree(0), rel=1e-12)


def _at_most_rho(g, v):
    """Exactly v <= rho(A): with v = p/q, p*I - q*A is not positive definite."""
    p, q = v.as_integer_ratio()
    shifted = [[p if i == j else 0 for j in range(g.n)] for i in range(g.n)]
    for a, b in g.edges:
        shifted[a][b] = shifted[b][a] = -q
    return exact_psd(shifted) != g.n


class TestSdpExactSandwich:
    def test_every_value_at_most_rho(self):
        checked = 0
        for entry in family_corpus(8) + er_corpus(10):
            prep = prepare_graph(entry)
            for m in (prep.walks_seq, prep.closed_seq, *prep.rooted_seqs):
                for order in (0, 1, 2, 3):
                    res = sdp_lower_bound(m, order)
                    if res.applicable:
                        checked += 1
                        assert _at_most_rho(entry.graph, res.value), (entry.name, m.kind, order)
        assert checked > 1000

    def test_exact_check_sees_a_value_one_ulp_above_rho(self):
        # K_4: rho = 3 is a float, so the next float up is strictly above it
        assert _at_most_rho(complete_graph(4), 3.0)
        assert not _at_most_rho(complete_graph(4), math.nextafter(3.0, 4.0))

    @pytest.mark.parametrize("seed", [1748, 1814])
    def test_order_eleven_on_ill_conditioned_hankel_blocks(self, seed):
        # K = 24 walk counts whose order-11 Hankel blocks are exactly definite
        # but too ill-conditioned for a float Cholesky factorisation
        entry = next(e for e in er_corpus() if e.name == f"er_15_0.3_{seed}")
        m = walk_counts(entry.graph, 24)
        assert len(orthogonal_polynomial(m, 11)) == 13  # degree 12: no order dropped
        res = sdp_lower_bound(m, 11)
        assert res.applicable and res.params["n"] == 11
        assert _at_most_rho(entry.graph, res.value)
        assert res.value >= eigen_decompose(entry.graph).rho * (1 - 1e-13)

    @pytest.mark.parametrize("seed", [1748, 1814])
    def test_non_decreasing_in_the_order(self, seed):
        # the Gauss nodes rise with the order, and each value is the largest
        # float at or below its node, so the values cannot swap order
        entry = next(e for e in er_corpus() if e.name == f"er_15_0.3_{seed}")
        m = walk_counts(entry.graph, 24)
        values = [sdp_lower_bound(m, order).value for order in range(12)]
        assert values == sorted(values)


class TestBaselines:
    def test_k3_all_ratios_exact(self):
        results = {r.name: r for r in baseline_lower_bounds(K3, walk_counts(K3, 6))}
        for name in ("baseline_w1_w0", "baseline_sqrt_w2_w0",
                     "baseline_sqrt_w4_w2", "baseline_sqrt_w6_w4"):
            assert results[name].value == pytest.approx(2.0, abs=1e-12)

    def test_p3_ordering(self):
        results = {r.name: r for r in baseline_lower_bounds(P3, walk_counts(P3, 6))}
        assert results["baseline_w1_w0"].value == pytest.approx(4.0 / 3.0)
        assert results["baseline_sqrt_w2_w0"].value == pytest.approx(SQRT2, abs=1e-12)
        assert results["baseline_w1_w0"].value <= results["baseline_sqrt_w2_w0"].value

    def test_star_sqrt_degree(self):
        g = star_graph(4)
        results = {r.name: r for r in baseline_lower_bounds(g, walk_counts(g, 6))}
        assert results["baseline_sqrt_max_degree"].value == pytest.approx(2.0)
