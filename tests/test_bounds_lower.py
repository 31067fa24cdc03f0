import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swbounds.bounds_lower import (
    VERTEX_TIE_TOL,
    BoundResult,
    Dead,
    _zeros_below,
    baseline_lower_bounds,
    det_ratio_lower_bound,
    local_triangle_lower_bound,
    quadratic_root_lower_bound,
    ratio_lower_bound,
    reported_vertex,
    sdp_lower_bound,
    sqrt_max_degree_lower_bound,
    triangle_edge_lower_bound,
)
from swbounds.graph import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degrees,
    path_graph,
    star_graph,
    triangle_counts,
)
from swbounds.moments import _eliminate, hankel_table, orthogonal_polynomial
from swbounds.report import er_corpus, family_corpus, find_violations, prepare_graph
from swbounds.roots import largest_real_root_bracket, no_real_root_above, sign_at
from swbounds.spectrum import eigen_decompose
from swbounds.walks import (
    KIND_CLOSED,
    MomentSequence,
    all_rooted_closed_counts,
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


def _closed3(g):
    return closed_walk_counts(g, 3)


def _rooted3(g):
    return all_rooted_closed_counts(g, 3)


def _within_ulps(value, reference, ulps=4):
    return abs(value - reference) <= ulps * math.ulp(reference)


class TestTriangleEdge:
    def test_k3_exact(self):
        assert triangle_edge_lower_bound(_closed3(K3)).value == pytest.approx(2.0, abs=1e-12)

    def test_p3(self):
        assert triangle_edge_lower_bound(_closed3(P3)).value == pytest.approx(
            math.sqrt(4.0 / 3.0), abs=1e-12)

    def test_c4(self):
        res = triangle_edge_lower_bound(_closed3(C4))
        assert res.value == pytest.approx(SQRT2, abs=1e-12)
        assert res.params == {"triangles": 0, "edges": 4}

    def test_edgeless(self):
        res = triangle_edge_lower_bound(_closed3(path_graph(1)))
        assert not res.applicable
        assert res.reason == "Hankel block not positive definite"
        assert res.params == {"triangles": 0, "edges": 0}

    def test_matches_quadratic_root_specialisation(self):
        for entry in family_corpus(8) + er_corpus(10):
            m = closed_walk_counts(entry.graph, 3)
            res = triangle_edge_lower_bound(m)
            root = quadratic_root_lower_bound(m, 0, 1)
            assert (res.applicable, res.reason) == (root.applicable, root.reason)
            assert not root.applicable or res.value == root.value

    def test_matches_the_graph_formula(self, corpus):
        # 3T/2e + sqrt((3T/2e)^2 + 2e/n) in graph terms, within 4 ulps
        for entry in corpus:
            g = entry.graph
            if g.edge_count == 0:
                continue
            total, _ = triangle_counts(g)
            x = 3.0 * total / (2.0 * g.edge_count)
            reference = x + math.sqrt(x * x + 2.0 * g.edge_count / g.n)
            value = triangle_edge_lower_bound(_closed3(g)).value
            assert _within_ulps(value, reference), entry.name

    def test_needs_the_closed_sequence_up_to_m3(self):
        with pytest.raises(ValueError):
            triangle_edge_lower_bound(walk_counts(K3, 3))
        with pytest.raises(ValueError):
            triangle_edge_lower_bound(closed_walk_counts(K3, 2))


class TestLocalTriangle:
    def test_p3_center_exact(self):
        res = local_triangle_lower_bound(_rooted3(P3))
        assert res.value == pytest.approx(SQRT2, abs=1e-12)
        assert res.params["vertex"] == 1

    def test_star_center(self):
        res = local_triangle_lower_bound(_rooted3(star_graph(4)))
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.params["sqrt_max_degree"] == pytest.approx(2.0)

    def test_k3(self):
        res = local_triangle_lower_bound(_rooted3(K3))
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.params["vertex"] == 0  # the lowest of the tied vertices

    def test_edgeless(self):
        res = local_triangle_lower_bound(_rooted3(path_graph(1)))
        assert not res.applicable
        assert res.reason == "Hankel block not positive definite"
        assert res.params == {"vertex": 0, "sqrt_max_degree": 0.0}

    def test_is_the_best_rooted_quadratic_root(self):
        for entry in family_corpus(8) + er_corpus(10):
            rooted = _rooted3(entry.graph)
            res = local_triangle_lower_bound(rooted)
            if not res.applicable:
                continue
            root = quadratic_root_lower_bound(rooted[res.params["vertex"]], 0, 1)
            assert root.value == res.value
            assert all(not r.applicable or r.value <= res.value
                       for r in (quadratic_root_lower_bound(m, 0, 1) for m in rooted))

    def test_matches_the_graph_formula(self, corpus):
        # max_i (T_i + sqrt(T_i^2 + d_i^3)) / d_i over non-isolated vertices, within 4 ulps
        for entry in corpus:
            g = entry.graph
            d, max_degree = degrees(g)
            _, per_vertex = triangle_counts(g)
            values = [(t + math.sqrt(t * t + di ** 3)) / di for di, t in zip(d, per_vertex) if di]
            if not values:
                continue
            res = local_triangle_lower_bound(_rooted3(g))
            assert _within_ulps(res.value, max(values)), entry.name
            assert res.params["sqrt_max_degree"] == math.sqrt(max_degree)

    def test_needs_the_rooted_sequences_up_to_m3(self):
        with pytest.raises(ValueError):
            local_triangle_lower_bound([closed_walk_counts(K3, 3)])
        with pytest.raises(ValueError):
            local_triangle_lower_bound(all_rooted_closed_counts(K3, 2))


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


def _product(*factors):
    """Ascending integer coefficients of the product of ascending factors."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


@st.composite
def _sdp_polynomials(draw):
    """Integer polynomials with a positive leading coefficient and a negative
    lower one: one sign change, or real-rooted with integer (float) zeros."""
    if draw(st.booleans()):
        low = draw(st.lists(st.integers(-10 ** 6, 0), min_size=1, max_size=4))
        high = draw(st.lists(st.integers(0, 10 ** 6), max_size=3))
        low[draw(st.integers(0, len(low) - 1))] = -draw(st.integers(1, 10 ** 6))
        return low + high + [draw(st.integers(1, 10 ** 6))]
    zeros = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4, unique=True))
    return _product(*([-z, 1] for z in zeros + [draw(st.integers(1, 9))]))


class TestSdpCutoffSign:
    """`sdp` rules a polynomial out at u when every zero lies below u: by
    its exact sign at u after one sign change, else by `no_real_root_above`."""

    @settings(max_examples=200, deadline=None)
    @given(poly=_sdp_polynomials(), extra=st.lists(st.floats(1e-3, 1e3), max_size=3))
    def test_sign_matches_the_exact_test(self, poly, extra):
        lo, hi = largest_real_root_bracket(poly)
        near = [math.nextafter(x, d) for x in (lo, hi) for d in (0.0, math.inf)]
        for u in {lo, hi, *near, *extra}:
            if u > 0.0:
                at_u = sum(c * Fraction(u) ** i for i, c in enumerate(poly))
                assert _zeros_below(poly, u) == (at_u != 0 and no_real_root_above(poly, u)), u

    @settings(max_examples=200, deadline=None)
    @given(poly=_sdp_polynomials(), extra=st.lists(st.floats(-1e3, 1e3), max_size=3))
    def test_sign_at_matches_fractions(self, poly, extra):
        lo, hi = largest_real_root_bracket(poly)
        near = [math.nextafter(x, d) for x in (lo, hi) for d in (-math.inf, math.inf)]
        for u in {lo, hi, *near, *extra, 0.0, -lo, 2.0 ** -60, 2.0 ** 60}:
            at_u = sum(c * Fraction(u) ** i for i, c in enumerate(poly))
            assert sign_at(poly, u) == (at_u > 0) - (at_u < 0), u


def _reported_vertex_reference(outcomes, kind):
    live = [(i, v) for i, v in enumerate(outcomes) if not isinstance(v, Dead) and v == v]
    if live:
        best = (max if kind == "lower" else min)(v for _, v in live)
        slack = VERTEX_TIE_TOL * abs(best) if math.isfinite(best) else 0.0
        return next(i for i, v in live if v == best or abs(v - best) <= slack)
    return next((i for i, o in enumerate(outcomes) if isinstance(o, Dead) and o.trivial), 0)


_NEAR_TIES = st.integers(-8, 8).map(lambda j: 2.0 * (1.0 + j * 0.4 * VERTEX_TIE_TOL))


class TestReportedVertex:
    @settings(max_examples=300, deadline=None)
    @given(outcomes=st.lists(st.one_of(
        # values a fraction of the tie tolerance apart, so ties chain
        _NEAR_TIES, _NEAR_TIES, _NEAR_TIES, st.floats(0.0, 4.0),
        st.sampled_from((math.inf, math.nan)),
        st.sampled_from((Dead("inapplicable"), Dead("vacuous", trivial=True)))),
        min_size=1, max_size=12), kind=st.sampled_from(("lower", "upper")))
    @example(outcomes=[2.0 * (1.0 + j * 0.8 * VERTEX_TIE_TOL) for j in (0, 1, 2)], kind="lower")
    def test_one_pass_matches_the_reference(self, outcomes, kind):
        assert reported_vertex(outcomes, kind) == _reported_vertex_reference(outcomes, kind)

    @pytest.mark.parametrize("outcomes, kind, expected", [
        # a NaN is never live, so it is neither the best nor tied with it
        ([1.0, math.nan, 3.0], "lower", 2),
        ([math.nan, 1.0], "upper", 1),
        ([math.nan, Dead("vacuous", trivial=True)], "lower", 1),
        # an infinite best ties only with an equal value
        ([0.0, 2.0, math.inf], "lower", 2),
        ([5.0, math.inf, math.inf], "lower", 1),
        ([math.inf, math.inf, 3.0], "upper", 2),
    ])
    def test_non_finite_values_follow_the_rule(self, outcomes, kind, expected):
        assert reported_vertex(outcomes, kind) == expected


def _at_most_rho(g, v):
    """Exactly v <= rho(A): with v = p/q, p*I - q*A is not positive definite."""
    p, q = v.as_integer_ratio()
    shifted = [[p if i == j else 0 for j in range(g.n)] for i in range(g.n)]
    for a, b in g.edges:
        shifted[a][b] = shifted[b][a] = -q
    return _eliminate(shifted, g.n) != (g.n, g.n)


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
        # degree 12: no order dropped
        assert len(orthogonal_polynomial(hankel_table(m, 11), 11)) == 13
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


def _baselines(g, horizon=6):
    rows = baseline_lower_bounds(walk_counts(g, horizon))
    if horizon >= 2:
        rows.append(sqrt_max_degree_lower_bound(all_rooted_closed_counts(g, horizon)))
    return {r.name: r for r in rows}


class TestBaselines:
    def test_k3_all_ratios_exact(self):
        results = _baselines(K3)
        for name in ("baseline_w1_w0", "baseline_sqrt_w2_w0",
                     "baseline_sqrt_w4_w2", "baseline_sqrt_w6_w4"):
            assert results[name].value == pytest.approx(2.0, abs=1e-12)

    def test_p3_ordering(self):
        results = _baselines(P3)
        assert results["baseline_w1_w0"].value == pytest.approx(4.0 / 3.0)
        assert results["baseline_sqrt_w2_w0"].value == pytest.approx(SQRT2, abs=1e-12)
        assert results["baseline_w1_w0"].value <= results["baseline_sqrt_w2_w0"].value

    def test_star_sqrt_degree(self):
        res = sqrt_max_degree_lower_bound(all_rooted_closed_counts(star_graph(4), 2))
        assert res.name == "baseline_sqrt_max_degree"
        assert res.value == pytest.approx(2.0)
        with pytest.raises(ValueError, match="up to m_2"):
            sqrt_max_degree_lower_bound(all_rooted_closed_counts(star_graph(4), 1))

    def test_are_ratio_rows(self, corpus):
        # each walk ratio is ratio(walks, s, k), sqrt(max degree) the best
        # rooted ratio(s=0, k=2), and both equal their graph-term forms
        for entry in corpus:
            g = entry.graph
            m = walk_counts(g, 6)
            results = _baselines(g)
            for name, s, k in (("baseline_w1_w0", 0, 1), ("baseline_sqrt_w2_w0", 0, 2),
                               ("baseline_sqrt_w4_w2", 1, 2), ("baseline_sqrt_w6_w4", 2, 2)):
                row = ratio_lower_bound(m, s, k)
                assert (results[name].applicable, results[name].reason) == (
                    row.applicable, row.reason)
                if row.applicable:
                    assert results[name].value == row.value
                    assert _within_ulps(row.value, (m[2 * s + k] / m[2 * s]) ** (1.0 / k))
            best = max(ratio_lower_bound(r, 0, 2).value
                       for r in all_rooted_closed_counts(g, 2))
            assert results["baseline_sqrt_max_degree"].value == best
            assert _within_ulps(best, math.sqrt(degrees(g)[1])), entry.name

    def test_edgeless_rows(self):
        results = _baselines(path_graph(1))
        assert results["baseline_w1_w0"].value == 0.0
        for name in ("baseline_sqrt_w4_w2", "baseline_sqrt_w6_w4"):
            assert not results[name].applicable
            assert (results[name].reason, results[name].params) == (
                "zero even moment m_{2s}", {})
        assert results["baseline_sqrt_max_degree"].value == 0.0

    @pytest.mark.parametrize("horizon, names", [
        (0, set()),
        (1, {"baseline_w1_w0"}),
        (2, {"baseline_w1_w0", "baseline_sqrt_w2_w0", "baseline_sqrt_max_degree"}),
        (4, {"baseline_w1_w0", "baseline_sqrt_w2_w0", "baseline_sqrt_w4_w2",
             "baseline_sqrt_max_degree"}),
    ])
    def test_rows_within_the_horizon(self, horizon, names):
        assert set(_baselines(P3, horizon)) == names
