import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import exact_determinant
from swbounds.graph import Graph, complete_graph, path_graph
from swbounds.moments import (
    MomentError,
    _eliminate,
    hamburger_check,
    hankel_matrix,
    hankel_pair,
    hankel_pair_exact,
    hankel_table,
    is_psd,
    orthogonal_polynomial,
    stieltjes_feasible,
    stieltjes_prefix,
)
from swbounds.spectrum import eigen_decompose
from swbounds.walks import KIND_CLOSED, MomentSequence, closed_walk_counts, walk_counts


def seq(*values, kind=KIND_CLOSED):
    return MomentSequence(kind, tuple(values))


class TestHankelPair:
    def test_k3_pair(self):
        pair = hankel_pair(closed_walk_counts(complete_graph(3), 3), (1, 2))
        assert pair.h.tolist() == [[3.0, 0.0], [0.0, 6.0]]
        assert pair.s.tolist() == [[0.0, 6.0], [6.0, 6.0]]
        assert pair.scale == 1

    def test_p3_pair(self):
        pair = hankel_pair(closed_walk_counts(path_graph(3), 3), (1, 2))
        assert pair.h.tolist() == [[3.0, 0.0], [0.0, 4.0]]
        assert pair.s.tolist() == [[0.0, 4.0], [4.0, 0.0]]

    def test_singleton(self):
        pair = hankel_pair(seq(3, 5), (1,))
        assert pair.h.tolist() == [[3.0]]
        assert pair.s.tolist() == [[5.0]]

    def test_full_matrix_matches_definition(self):
        m = walk_counts(complete_graph(4), 8)
        pair = hankel_pair(m, range(1, 5))
        for a in range(4):
            for b in range(4):
                assert pair.h[a, b] == float(m[a + b])
                assert pair.s[a, b] == float(m[a + b + 1])

    def test_insufficient_moments(self):
        with pytest.raises(MomentError, match="insufficient"):
            hankel_pair(seq(3, 0, 6), (1, 2))

    def test_bad_indices(self):
        with pytest.raises(MomentError, match="1-based"):
            hankel_pair(seq(3, 0, 6, 6), (0, 1))

    def test_exact_variant(self):
        h, s = hankel_pair_exact(closed_walk_counts(complete_graph(3), 3), (1, 2))
        assert h == [[3, 0], [0, 6]]
        assert s == [[0, 6], [6, 6]]

    def test_overflow_rescaling(self):
        # growth ~ 11**k exceeds 2**53 well before k = 24
        m = walk_counts(complete_graph(12), 24)
        pair = hankel_pair(m, range(1, 13))
        assert pair.scale > 1
        assert np.all(np.isfinite(pair.h))
        # scaled entries are m_k / scale**k exactly
        k = 20
        assert pair.h[10, 10] == pytest.approx(m[k] / pair.scale**k, rel=1e-12)
        # the scaled Hankel matrix is a congruence of the raw one: still PSD
        assert is_psd(pair.h)

    @pytest.mark.parametrize("m, index_set, rescaled", [
        (walk_counts(complete_graph(12), 40), range(1, 21), True),
        (walk_counts(complete_graph(12), 40), (2, 5, 11, 20), True),
        (closed_walk_counts(path_graph(5), 9), (3, 1, 5), False),
        (seq(1, 1, 1, 2 ** 80), (1, 2), True),  # the scale set by the top moment alone
    ])
    def test_blocks_match_a_per_entry_reference_bit_for_bit(self, m, index_set, rescaled):
        indices = sorted(index_set)

        def reference(top, offset):
            # the smallest b with every m_k / 2**(b*k), 1 <= k <= top, exact in a float
            b = max(0, *(math.ceil((m[k].bit_length() - 53) / k) for k in range(1, top + 1)))
            return np.array([[float(m[ja + jb - 2 + offset]) if b == 0 else
                              m[ja + jb - 2 + offset] / 2 ** (b * (ja + jb - 2 + offset))
                              for jb in indices] for ja in indices]), 2 ** b

        pair = hankel_pair(m, index_set)
        h, scale = hankel_matrix(m, index_set)
        top = 2 * indices[-1] - 1
        (ref_h, ref_scale), (ref_s, _) = reference(top, 0), reference(top, 1)
        assert pair.h.tobytes() == ref_h.tobytes() and pair.s.tobytes() == ref_s.tobytes()
        assert pair.scale == ref_scale and pair.h.shape == (len(indices),) * 2
        ref_h, ref_scale = reference(top - 1, 0)
        assert h.tobytes() == ref_h.tobytes() and scale == ref_scale
        assert (pair.scale > 1) == rescaled

    def test_hankel_matrix_needs_one_less_moment(self):
        m = seq(3, 0, 6)
        h, scale = hankel_matrix(m, (1, 2))
        assert h.tolist() == [[3.0, 0.0], [0.0, 6.0]] and scale == 1
        with pytest.raises(MomentError):
            hankel_pair(m, (1, 2))


class TestExactDeterminant:
    def test_small_cases(self):
        assert exact_determinant([]) == 1
        assert exact_determinant([[7]]) == 7
        assert exact_determinant([[1, 2], [2, 1]]) == -3
        # zero pivot forces a row swap
        assert exact_determinant([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2

    def test_singular_hankel_is_exactly_zero(self):
        # walks on a regular graph have one atom: every 2x2 block is singular
        h, _ = hankel_pair_exact(walk_counts(complete_graph(12), 24), (1, 2, 3))
        assert exact_determinant(h) == 0

    @given(st.lists(st.integers(-50, 50), min_size=16, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_matches_float_determinant(self, entries):
        rows = [entries[i:i + 4] for i in range(0, 16, 4)]
        assert exact_determinant(rows) == round(np.linalg.det(np.array(rows, dtype=float)))


class TestPsd:
    def test_diagonal(self):
        assert is_psd(np.array([[3.0, 0.0], [0.0, 6.0]]))

    def test_indefinite(self):
        # eigenvalues 3 +/- sqrt(45): one negative
        assert not is_psd(np.array([[0.0, 6.0], [6.0, 6.0]]))

    def test_zero_matrix(self):
        assert is_psd(np.zeros((3, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            is_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_tolerance_is_relative(self):
        big = 1e12
        m = np.array([[big, 0.0], [0.0, -1e-3]])
        assert is_psd(m)  # -1e-3 is tiny next to 1e12
        assert not is_psd(np.array([[1.0, 0.0], [0.0, -1e-3]]))


def _psd_leading(matrix) -> tuple[int, int]:
    """(psd, leading) of `_eliminate` on a copy of a square integer matrix:
    its s x s leading block is PSD exactly when s <= psd, and then
    min(s, leading) of that block's leading minors are positive."""
    a = [list(row) for row in matrix]
    return _eliminate(a, len(a))


class TestExactPsd:
    def test_definite_counts_every_leading_minor(self):
        assert _psd_leading([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == (3, 3)
        assert _psd_leading([[7]]) == (1, 1)
        assert _psd_leading([]) == (0, 0)

    def test_semidefinite_stops_the_count_at_the_first_zero_minor(self):
        # rank one: every leading minor past the first is zero
        assert _psd_leading([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == (3, 1)
        assert _psd_leading([[0, 0], [0, 0]]) == (2, 0)

    def test_negative_pivot(self):
        assert _psd_leading([[-1]]) == (0, 0)
        # leading pivot fine, Schur complement 1 - 4 < 0
        assert _psd_leading([[1, 2], [2, 1]]) == (1, 1)

    def test_zero_pivot_with_nonzero_row_is_not_psd(self):
        assert _psd_leading([[0, 1], [1, 5]]) == (1, 0)
        assert _psd_leading([[1, 1, 1], [1, 1, 2], [1, 2, 9]]) == (2, 1)

    def test_zero_row_is_skipped(self):
        # index 1 drops out; the rest, [[4, 2], [2, 3]], is definite
        assert _psd_leading([[4, 0, 2], [0, 0, 0], [2, 0, 3]]) == (3, 1)
        # ... and an indefinite rest is still caught after the skip
        assert _psd_leading([[4, 0, 2], [0, 0, 0], [2, 0, 0]]) == (2, 1)

    def test_entries_beyond_float_range(self):
        big = 2 ** 200 + 1
        # det = big * (big + 1) - big**2 = big > 0, far below float resolution
        assert _psd_leading([[big, big], [big, big + 1]]) == (2, 2)
        assert _psd_leading([[big, big], [big, big - 1]]) == (1, 1)
        assert _psd_leading([[big, big], [big, big]]) == (2, 1)

    @given(st.lists(st.integers(-6, 6), min_size=9, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_gram_matrices_are_psd_with_rank_many_positive_minors(self, entries):
        rows = [entries[i:i + 3] for i in range(0, 9, 3)]
        gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
        psd, count = _psd_leading(gram)
        assert psd == 3
        minors = [exact_determinant([r[:k] for r in gram[:k]]) for k in range(1, 4)]
        assert count == next((k for k, d in enumerate(minors) if d == 0), 3)


class TestOrthogonalPolynomial:
    def test_k3_closed_walks(self):
        # atoms 2 (weight 1) and -1 (weight 2): 18 (x - 2)(x + 1)
        m = closed_walk_counts(complete_graph(3), 3)
        assert orthogonal_polynomial(hankel_table(m, 1), 1) == [-36, -18, 18]

    def test_degree_drops_with_the_atom_count(self):
        # walks on K_4 sit on the single atom 3: 4 x - 12 at every order
        m = walk_counts(complete_graph(4), 7)
        assert orthogonal_polynomial(hankel_table(m, 3), 3) == [-12, 4]

    def test_not_psd(self):
        assert orthogonal_polynomial(hankel_table(seq(1, 2, 1, 0), 1), 1) is None

    def test_insufficient(self):
        with pytest.raises(MomentError):
            orthogonal_polynomial(hankel_table(seq(3, 0, 6), 1), 1)


def _atomic_moments(atoms, perturb, length):
    """m_0..m_{length-1} of the integer atoms (value, weight), then m_index += delta,
    with negative moments raised to 0."""
    values = [sum(w * x ** k for x, w in atoms) for k in range(length)]
    for index, delta in perturb:
        values[index % length] += delta
    return MomentSequence(KIND_CLOSED, tuple(max(v, 0) for v in values))


class TestHankelTable:
    """One elimination of H_top answers every order up to top."""

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 13), st.integers(-3, 3)), max_size=2),
           st.integers(0, 6), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_every_order_agrees_with_its_own_block(self, atoms, perturb, top, odd):
        # few atoms give singular PSD blocks (zero pivots); perturbed moments
        # give zero pivots with nonzero rows and negative pivots
        m = _atomic_moments(atoms, perturb, 2 * top + 1 + odd)
        table = hankel_table(m, top)
        _, psd, leading = table
        for order in range(top + 1):
            block_psd, count = _psd_leading([[m[i + j] for j in range(order + 1)]
                                             for i in range(order + 1)])
            assert (order < psd) == (block_psd == order + 1), (m, order)
            if block_psd == order + 1:
                assert min(leading, order + 1) == count
            if 2 * order + 1 > m.max_index:
                continue
            c = orthogonal_polynomial(table, order)
            assert c == orthogonal_polynomial(hankel_table(m, order), order)
            if c is not None:
                # det(H_r) x^(r+1) + ...: orthogonal to 1, x, ..., x^r
                size = len(c) - 1
                assert c[-1] == exact_determinant([[m[i + j] for j in range(size)]
                                                   for i in range(size)])
                assert all(sum(cj * m[i + j] for j, cj in enumerate(c)) == 0
                           for i in range(size))

    def test_zero_pivot_fails_from_the_column_where_its_row_turns_nonzero(self):
        # H_3 of (1, 0, 0, 0, 1, 0, 1): pivot 1 is zero and its row
        # (m_1, ..., m_4) is zero up to column 2, so index 1 drops from
        # H_0..H_2, which are PSD, and H_3 is not
        m = seq(1, 0, 0, 0, 1, 0, 1)
        assert hankel_table(m, 3)[1:] == (3, 1)
        assert [hamburger_check(m, order) for order in range(4)] == [True, True, True, False]
        assert orthogonal_polynomial(hankel_table(m, 2), 2) == [0, 1]

    def test_negative_pivot_fails_every_larger_order(self):
        m = seq(1, 2, 1, 0, 5)
        assert hankel_table(m, 2)[1:] == (1, 1)
        assert orthogonal_polynomial(hankel_table(m, 1), 0) == [-2, 1]
        assert orthogonal_polynomial(hankel_table(m, 1), 1) is None


class TestHamburger:
    def test_k3_order1(self):
        assert hamburger_check(closed_walk_counts(complete_graph(3), 3), 1)

    def test_p3_walks_order1(self):
        assert hamburger_check(walk_counts(path_graph(3), 2), 1)

    def test_negative_even_moment_fails(self):
        # a sequence with m_0 m_2 < m_1^2 cannot be a moment sequence
        assert not hamburger_check(seq(1, 2, 1), 1)

    def test_insufficient(self):
        with pytest.raises(MomentError):
            hamburger_check(seq(1, 2), 1)

    @given(st.integers(2, 7))
    @settings(max_examples=20, deadline=None)
    def test_walk_sequences_always_pass(self, n):
        m = walk_counts(complete_graph(n), 12)
        for order in range(7):
            assert hamburger_check(m, order)


class TestStieltjesFeasibility:
    def test_holds_at_rho(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        rho = eigen_decompose(g).rho
        for m in (walk_counts(g, 12), closed_walk_counts(g, 12)):
            for j_set in ((1, 2), (1, 2, 3), (1, 2, 3, 4)):
                assert stieltjes_feasible(m, j_set, rho + 1e-7)

    def test_fails_well_below_rho(self):
        g = complete_graph(4)
        m = closed_walk_counts(g, 12)
        assert not stieltjes_feasible(m, (1, 2), 1.0)  # rho = 3

    def test_exact_at_the_support_edge(self):
        # closed walks on K_4 sit on {3, -1}: feasible from u = 3 on, exactly
        m = closed_walk_counts(complete_graph(4), 12)
        assert stieltjes_feasible(m, (1, 2, 3), 3.0)
        assert not stieltjes_feasible(m, (1, 2, 3), 3.0 - 2.0 ** -50)
        assert stieltjes_prefix(m, (1, 2, 3), 3.0) == 3
        assert stieltjes_prefix(m, (1, 2, 3), 3.0 - 2.0 ** -50) < 3

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 12), st.integers(-3, 3)), max_size=2),
           st.integers(1, 6), st.floats(-6.0, 6.0))
    @settings(max_examples=300, deadline=None)
    def test_prefix_agrees_with_each_prefix_test(self, atoms, perturb, size, u):
        # few atoms give singular blocks, perturbed moments and cutoffs
        # inside the support give blocks that are not PSD
        m = _atomic_moments(atoms, perturb, 2 * size)
        count = stieltjes_prefix(m, range(1, size + 1), u)
        h, s = hankel_pair_exact(m, range(1, size + 1))
        p, q = u.as_integer_ratio()
        for r in range(1, size + 1):
            feasible = all(_psd_leading([[p * h[a][b] + sign * q * s[a][b] for b in range(r)]
                                         for a in range(r)])[0] == r for sign in (-1, 1))
            assert (r <= count) == feasible == stieltjes_feasible(m, range(1, r + 1), u), \
                (m, r, u)

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 13), st.integers(-3, 3)), max_size=2),
           st.lists(st.integers(1, 7), min_size=1, max_size=5), st.floats(-6.0, 6.0))
    @example([(1, 1), (2, 1), (3, 2)], [], [7, 2, 3, 5], 3.0)
    @example([(1, 1), (2, 1), (3, 2)], [], [7, 2, 3, 5], 3.0 - 2.0 ** -50)
    @settings(max_examples=300, deadline=None)
    def test_any_index_set_agrees_with_the_principal_minors(self, atoms, perturb, j_set, u):
        # J unsorted, with repeats and gaps: each prefix of its sorted
        # positions is feasible exactly when every principal minor of
        # p*H -/+ q*S on that prefix is non-negative
        indices = sorted(set(j_set))
        m = _atomic_moments(atoms, perturb, 2 * indices[-1])
        count = stieltjes_prefix(m, j_set, u)
        h, s = hankel_pair_exact(m, j_set)
        p, q = u.as_integer_ratio()
        for r in range(1, len(indices) + 1):
            feasible = all(
                exact_determinant([[p * h[a][b] + sign * q * s[a][b] for b in rows]
                                   for a in rows]) >= 0
                for sign in (-1, 1) for size in range(1, r + 1)
                for rows in itertools.combinations(range(r), size))
            assert (r <= count) == feasible == stieltjes_feasible(m, indices[:r], u), \
                (m, indices, r, u)
        assert stieltjes_feasible(m, j_set, u) == (count == len(indices))
