"""The array routines of the six closed-form families against the scalar
reference routines of `scalar_reference`, cell by cell, and the pick among
twin classes against the pick among vertices."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import (
    bipartite_value,
    det_ratio_value,
    even_moment_value,
    quadratic_root_value,
    ratio_value,
    two_point_value,
)
from swbounds.bounds_lower import (
    VERTEX_TIE_TOL,
    Dead,
    det_block_columns,
    det_ratio_columns,
    det_ratio_lower_bound,
    quadratic_root_columns,
    quadratic_root_lower_bound,
    ratio_columns,
    ratio_lower_bound,
    reported_vertex,
)
from swbounds.bounds_upper import (
    MIN_ATOM_WEIGHT,
    atom_weight_for,
    bipartite_columns,
    bipartite_upper_bound,
    even_moment_columns,
    even_moment_upper_bound,
    two_point_columns,
    two_point_upper_bound,
)
from swbounds.graph import generate
from swbounds.spectrum import eigen_decompose
from swbounds.walks import KIND_CLOSED, MomentSequence, all_rooted_closed_counts, walk_counts


def _same(got, expected) -> bool:
    """Bitwise-equal Python floats, or equal Dead outcomes."""
    if isinstance(expected, Dead):
        return type(got) is Dead and got == expected
    return type(got) is float and got.hex() == expected.hex()


def _columns(length: int):
    """The (s, k) columns of the lower families and the k columns of the
    upper ones that a sequence m_0..m_{length-1} reaches."""
    top = length - 1
    ratios = [(s, k) for s in range(4) for k in range(1, 7) if 2 * s + k <= top]
    blocks = [(s, k) for s, k in ratios if 2 * s + 3 * k <= top]
    ks = [k for k in range(1, 7) if 2 * k <= top]
    return ratios, blocks, ks


def _scalar(value, row, *args):
    """The scalar outcome, or the exception it raises."""
    try:
        return value(row, *args)
    except (ValueError, OverflowError) as exc:
        return exc


def _routines(seqs, alphas, bipartite):
    """(name, array call, scalar outcome of a row and column, columns) of
    each family on one stacked matrix."""
    moments = np.array([m.values for m in seqs], dtype=object)
    ratios, blocks, ks = _columns(len(seqs[0]))
    dets = det_block_columns(moments, blocks)
    return [
        ("ratio", lambda: ratio_columns(moments, ratios),
         lambda m, a, c: _scalar(ratio_value, m, *c), ratios),
        ("det_ratio", lambda: det_ratio_columns(dets, blocks),
         lambda m, a, c: _scalar(det_ratio_value, m, *c), blocks),
        ("quadratic_root", lambda: quadratic_root_columns(dets, blocks),
         lambda m, a, c: _scalar(quadratic_root_value, m, *c), blocks),
        ("even_moment", lambda: even_moment_columns(moments, alphas, ks),
         lambda m, a, k: _scalar(even_moment_value, m, a, k), ks),
        ("two_point", lambda: two_point_columns(moments, alphas, ks),
         lambda m, a, k: _scalar(two_point_value, m, a, k), ks),
        ("bipartite_half", lambda: bipartite_columns(moments, alphas, ks, bipartite),
         lambda m, a, k: _scalar(bipartite_value, m, a, k, bipartite), ks),
    ]


def _assert_matches_the_scalar_routines(seqs, alphas, bipartite):
    for name, call, scalar, columns in _routines(seqs, alphas, bipartite):
        if not columns:
            continue
        expected = [[scalar(m, a, c) for c in columns] for m, a in zip(seqs, alphas)]
        raised = [e for row in expected for e in row if isinstance(e, Exception)]
        if raised:
            # the exception of some cell, with its message
            with pytest.raises((ValueError, OverflowError)) as info:
                call()
            assert (type(info.value), str(info.value)) in {(type(e), str(e)) for e in raised}
            continue
        table = call()
        assert table.shape == (len(seqs), len(columns)), name
        for i, row in enumerate(expected):
            for j, outcome in enumerate(row):
                assert _same(table[i, j], outcome), (name, i, columns[j], table[i, j], outcome)


def _outcome(record):
    """The outcome a kernel's record was built from."""
    if record.trivial or not record.applicable:
        return Dead(record.reason, record.trivial)
    return record.value


def _graph_rows(spec: str, seed: int, length: int):
    """The walk and rooted sequences m_0..m_{length-1} of a generated graph,
    each with the atom weight a sweep gives it."""
    g = generate(spec, seed)
    summary = eigen_decompose(g)
    rooted = all_rooted_closed_counts(g, length - 1)
    seqs = [walk_counts(g, length - 1), *rooted]
    return [(m, atom_weight_for(m, summary)) for m in seqs]


# Sequences of small graphs, bipartite or not.
_GRAPH_ROWS = [row for spec, seed, length in [
    ("erdos_renyi:9:0.4", 3, 13), ("erdos_renyi:9:0.4", 4, 13), ("star:5", 0, 13),
    ("complete_bipartite:2:3", 0, 13), ("path:5", 0, 13), ("complete:12", 0, 13),
    ("cycle:7", 0, 13)] for row in _graph_rows(spec, seed, length)]

_ALPHAS = st.one_of(
    st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0),
    # vanishing: at or below MIN_ATOM_WEIGHT, or just above it
    st.sampled_from([0.0, 1e-13, MIN_ATOM_WEIGHT, math.nextafter(MIN_ATOM_WEIGHT, 1.0), 2e-12]),
    # oversized: more than a rooted measure's mass of 1
    st.floats(1.0, 1e3),
)


@st.composite
def _synthetic_rows(draw, length: int):
    """Sequences with zero moments (every atom at 0), moments of integer
    atoms scaled past 2**1020, and arbitrary counts that are no moment
    sequence, each with a drawn atom weight."""
    shape = draw(st.sampled_from(["atoms", "atoms", "zero", "any"]))
    if shape == "zero":
        values = (draw(st.integers(0, 3)),) + (0,) * (length - 1)
    elif shape == "atoms":
        atoms = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 9)),
                              min_size=1, max_size=3))
        scale = draw(st.sampled_from([1, 1, 2 ** 1000, 3 ** 700]))
        values = tuple(scale * sum(w * x ** j for w, x in atoms) for j in range(length))
    else:
        values = tuple(draw(st.lists(st.integers(0, 2 ** 80), min_size=length,
                                     max_size=length)))
    return MomentSequence(KIND_CLOSED, values), draw(_ALPHAS)


@st.composite
def _tables(draw):
    """Rows of one length from both sources, twins included, and whether the
    graph is bipartite."""
    length = draw(st.integers(2, 13))
    rows = draw(st.lists(st.one_of(
        _synthetic_rows(length),
        st.sampled_from(_GRAPH_ROWS).map(
            lambda r: (MomentSequence(KIND_CLOSED, r[0].values[:length]), r[1]))),
        min_size=1, max_size=6))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))  # twins
    return [m for m, _ in rows], [a for _, a in rows], draw(st.booleans())


class TestArrayRoutines:
    @settings(max_examples=300, deadline=None)
    @given(table=_tables())
    def test_each_cell_equals_the_scalar_routine(self, table):
        _assert_matches_the_scalar_routines(*table)

    @settings(max_examples=200, deadline=None)
    @given(table=_tables())
    def test_each_kernel_equals_the_scalar_routine(self, table):
        # a kernel reads its one cell from its family's array routine
        seqs, alphas, bipartite = table
        ratios, blocks, ks = _columns(len(seqs[0]))
        for m, alpha in zip(seqs, alphas):
            cells = [(ratio_lower_bound, ratio_value, (m, *c)) for c in ratios]
            cells += [(kernel, value, (m, *c)) for c in blocks for kernel, value in (
                (det_ratio_lower_bound, det_ratio_value),
                (quadratic_root_lower_bound, quadratic_root_value))]
            cells += [(kernel, value, (m, alpha, k, *flag)) for k in ks for kernel, value, flag in (
                (even_moment_upper_bound, even_moment_value, ()),
                (two_point_upper_bound, two_point_value, ()),
                (bipartite_upper_bound, bipartite_value, (bipartite,)))]
            for kernel, value, args in cells:
                expected = _scalar(value, *args)
                if isinstance(expected, Exception):
                    with pytest.raises(type(expected), match=re.escape(str(expected))):
                        kernel(*args)
                else:
                    assert _same(_outcome(kernel(*args)), expected), (kernel.__name__, args)

    def test_the_big_number_branches(self):
        # K_12 at K = 300: walk counts 12 * 11**k pass 2**1020 near k = 295,
        # so even_moment takes the log/exp branch and two_point the shifted
        # square root in its top columns
        k_max = 150
        rows = _graph_rows("complete:12", 0, 2 * k_max + 1)
        seqs = [m for m, _ in rows[:3]]
        alphas = [a for _, a in rows[:3]]
        moments = np.array([m.values for m in seqs], dtype=object)
        ks = list(range(1, k_max + 1))
        assert max(moments[:, 2 * k_max]).bit_length() > 1022
        for call, value in ((even_moment_columns, even_moment_value),
                            (two_point_columns, two_point_value)):
            table = call(moments, alphas, ks)
            for i, (m, a) in enumerate(zip(seqs, alphas)):
                for j, k in enumerate(ks):
                    assert _same(table[i, j], value(m, a, k)), (call.__name__, i, k)

    def test_the_python_pow_on_many_cells(self):
        # float64's np.power can differ from Python's ** in the last bit on a
        # few inputs in a hundred at exponent 1/3, so thousands of cells per
        # family show a root that is not taken by Python's **
        rng = random.Random(7)
        seqs = []
        for _ in range(200):
            atoms = [(rng.randint(1, 9), rng.randint(0, 40)) for _ in range(3)]
            seqs.append(MomentSequence(KIND_CLOSED, tuple(
                sum(w * x ** j for w, x in atoms) for j in range(13))))
        alphas = [rng.uniform(1e-3, 1.0) for _ in seqs]
        _assert_matches_the_scalar_routines(seqs, alphas, True)

    def test_two_point_raises_the_scalar_errors(self):
        ok = MomentSequence(KIND_CLOSED, (1, 0, 2, 0, 6))
        empty = MomentSequence(KIND_CLOSED, (0, 0, 0, 0, 0))
        for seqs, alphas, message in (([ok, empty], [0.5, 0.5], "zero total mass"),
                                      ([ok, ok], [0.5, 1.5], "atom weight exceeds")):
            moments = np.array([m.values for m in seqs], dtype=object)
            with pytest.raises(ValueError, match=message):
                two_point_columns(moments, alphas, [1, 2])
        # a vanishing weight is dead before the mass test, as in two_point_value
        moments = np.array([ok.values], dtype=object)
        table = two_point_columns(moments, [0.0], [1])
        assert _same(table[0, 0], two_point_value(ok, 0.0, 1))
        # the kernel raises them too
        for m, alpha, message in ((empty, 0.5, "zero total mass"),
                                  (ok, 1.5, "atom weight exceeds")):
            with pytest.raises(ValueError, match=message):
                two_point_upper_bound(m, alpha, 1)

    def test_an_int_division_past_the_float_range_raises(self):
        m = MomentSequence(KIND_CLOSED, (1, 2 ** 1100, 4))
        moments = np.array([m.values], dtype=object)
        with pytest.raises(OverflowError):
            ratio_value(m, 0, 1)
        with pytest.raises(OverflowError):
            ratio_columns(moments, [(0, 1)])


# Values a fraction of the tie tolerance apart, so ties chain, and values just
# inside and just outside the tolerance of 2.0.
_NEAR_TIES = st.integers(-8, 8).map(lambda j: 2.0 * (1.0 + j * 0.4 * VERTEX_TIE_TOL))
_EDGE = st.sampled_from([
    x for d in (2.0 * VERTEX_TIE_TOL, -2.0 * VERTEX_TIE_TOL)
    for x in (2.0 + d, math.nextafter(2.0 + d, 0.0), math.nextafter(2.0 + d, 4.0))])
_OUTCOMES = st.one_of(
    _NEAR_TIES, _NEAR_TIES, _EDGE, st.just(2.0), st.floats(0.0, 4.0),
    # a best of 0 or of inf ties only to equal values, and a NaN is never live
    st.sampled_from([0.0, math.inf, math.nan]),
    st.sampled_from((Dead("inapplicable"), Dead("vacuous", trivial=True))))


@st.composite
def _twin_columns(draw):
    """One outcome per twin class, and the class of each vertex: every class
    first appears in class order, and its twins anywhere after that."""
    outcomes = draw(st.lists(_OUTCOMES, min_size=1, max_size=6))
    of = list(range(len(outcomes)))
    for c in draw(st.lists(st.integers(0, len(outcomes) - 1), max_size=8)):
        of.insert(draw(st.integers(of.index(c) + 1, len(of))), c)
    return outcomes, of


class TestTwinPick:
    @settings(max_examples=1000, deadline=None)
    @given(column=_twin_columns(), kind=st.sampled_from(("lower", "upper")))
    @example(column=([0.0, 2.0, math.inf], [0, 1, 0, 2]), kind="lower")
    @example(column=([0.0, 2.0, math.inf], [0, 1, 2]), kind="lower")
    @example(column=([1.0, math.nan, 3.0], [0, 1, 2]), kind="lower")
    @example(column=([Dead("inapplicable"), Dead("vacuous", trivial=True)], [0, 1, 0]),
             kind="lower")
    @example(column=([Dead("inapplicable"), Dead("inapplicable")], [0, 0, 1]), kind="upper")
    def test_the_pick_among_classes_is_the_pick_among_vertices(self, column, kind):
        # a sweep calls reported_vertex on a column's class outcomes and
        # reports the first vertex of the picked class: the vertex that
        # reported_vertex picks from the outcomes of every vertex
        outcomes, of = column
        firsts = [of.index(c) for c in range(len(outcomes))]
        assert firsts[reported_vertex(outcomes, kind)] == reported_vertex(
            [outcomes[c] for c in of], kind)
