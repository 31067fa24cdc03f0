"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
The corpus fixtures (families up to 12 vertices plus 100 ER(15, 0.3) samples)
are shared session-wide, so criteria reuse the same prepared data.
"""

import itertools
import math

import numpy as np
import pytest

from swbounds.bounds_lower import (
    local_triangle_lower_bound,
    sdp_lower_bound,
    triangle_edge_lower_bound,
)
from swbounds.bounds_upper import (
    atom_weight_for,
    bipartite_upper_bound,
    even_moment_upper_bound,
    hankel_root_upper_bound,
    stieltjes_root_upper_bound,
    two_point_upper_bound,
)
from swbounds.graph import Graph, complete_graph, path_graph, star_graph
from swbounds.moments import hamburger_check
from swbounds.report import sweep_bounds
from swbounds.spectrum import eigen_decompose, verify_moment_identities
from swbounds.walks import (
    all_rooted_closed_counts,
    closed_walk_counts,
    enumerate_walks_bruteforce,
    walk_counts,
)

UNIT = 1.0

# connected graphs on 1..6 unlabeled vertices (classic counts)
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def _line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _connected_representatives(n):
    """One representative per isomorphism class of connected n-vertex graphs.

    Enumerates all edge subsets, keeps the connected ones, and reduces each
    mask to the minimum over all vertex permutations (exact canonical form).
    """
    pairs = list(itertools.combinations(range(n), 2))
    n_edges = len(pairs)
    index_of = {pair: i for i, pair in enumerate(pairs)}

    connected = []
    for mask in range(1 << n_edges):
        adj = [0] * n
        for j in range(n_edges):
            if mask >> j & 1:
                u, v = pairs[j]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen = 1
        stack = [0]
        while stack:
            u = stack.pop()
            rest = adj[u] & ~seen
            while rest:
                v = (rest & -rest).bit_length() - 1
                seen |= 1 << v
                stack.append(v)
                rest &= rest - 1
        if seen == (1 << n) - 1:
            connected.append(mask)

    masks = np.array(connected, dtype=np.int64)
    if n_edges:
        bits = (masks[:, None] >> np.arange(n_edges)) & 1
        canon = masks.copy()
        for perm in itertools.permutations(range(n)):
            weights = np.zeros(n_edges, dtype=np.int64)
            for j, (u, v) in enumerate(pairs):
                a, b = perm[u], perm[v]
                weights[j] = 1 << index_of[(a, b) if a < b else (b, a)]
            np.minimum(canon, bits @ weights, out=canon)
        masks = np.unique(canon)

    graphs = []
    for mask in masks.tolist():
        edges = [pairs[j] for j in range(n_edges) if mask >> j & 1]
        graphs.append(Graph(n, edges))
    return graphs


def test_criterion_1_oracle_equivalence():
    """Matrix-power counts equal brute-force enumeration on all small
    connected graphs, for every walk kind and every k <= 6, exactly."""
    checked = 0
    for n in range(1, 7):
        reps = _connected_representatives(n)
        assert len(reps) == CONNECTED_CLASS_COUNTS[n], (
            f"expected {CONNECTED_CLASS_COUNTS[n]} classes on {n} vertices, "
            f"got {len(reps)}"
        )
        for g in reps:
            w = walk_counts(g, 6)
            phi = closed_walk_counts(g, 6)
            rooted = [[0] * 7 for _ in range(g.n)]
            for k in range(7):
                bw, bphi, bper = enumerate_walks_bruteforce(g, k)
                assert w[k] == bw
                assert phi[k] == bphi
                for i in range(g.n):
                    rooted[i][k] = bper[i]
            for i, seq in enumerate(all_rooted_closed_counts(g, 6)):
                assert list(seq.values) == rooted[i]
            checked += 1
    _line(1, checked == sum(CONNECTED_CLASS_COUNTS.values()),
          f"{checked} connected graphs (112 on six vertices), k <= 6, exact equality")


def test_criterion_2_moment_identities(corpus):
    worst = 0.0
    for entry in corpus:
        report = verify_moment_identities(entry.graph, 12, tol=1e-8)
        worst = max(worst, report["closed_walks"], report["closed_walks_at"],
                    report["walks"])
        assert report["passed"], f"{entry.name}: {report}"
    _line(2, worst <= 1e-8, f"max relative deviation {worst:.3e} over {len(corpus)} graphs")


def test_criterion_3_sandwich_soundness(prepared_corpus):
    tol = 1e-7
    violations = []
    checked = 0
    for prep in prepared_corpus:
        rho = prep.summary.rho
        rows = sweep_bounds(prep, s_max=3, k_max=4, j_sets=((1, 2), (1, 2, 3)),
                            sdp_orders=(), vertex_mode="all")
        for r, _ in rows:
            if not r.applicable or not math.isfinite(r.value):
                continue
            checked += 1
            if r.kind == "lower" and r.value > rho + tol:
                violations.append((prep.entry.name, r))
            elif r.kind == "upper" and r.value < rho - tol:
                violations.append((prep.entry.name, r))
    _line(3, not violations,
          f"{checked} applicable bounds on {len(prepared_corpus)} graphs, "
          f"{len(violations)} violations")


def test_criterion_4_exactness_cases():
    k3 = complete_graph(3)
    t_e = triangle_edge_lower_bound(closed_walk_counts(k3, 3)).value
    assert t_e == pytest.approx(2.0, abs=1e-9)

    for delta in range(2, 11):
        value = local_triangle_lower_bound(all_rooted_closed_counts(star_graph(delta), 3)).value
        assert value == pytest.approx(math.sqrt(delta), abs=1e-9)
    p3_value = local_triangle_lower_bound(all_rooted_closed_counts(path_graph(3), 3)).value
    assert p3_value == pytest.approx(math.sqrt(2.0), abs=1e-9)

    sdp = sdp_lower_bound(closed_walk_counts(k3, 3), 1).value
    assert sdp == pytest.approx(2.0, abs=1e-6)

    hankel = hankel_root_upper_bound(closed_walk_counts(k3, 2), UNIT, (1, 2)).value
    assert hankel == pytest.approx(2.0, abs=1e-8)
    _line(4, True, "triangle-edge, local-triangle, SDP, and Hankel-root exact cases")


def _dominance_sweep(prepared_corpus, upper_fn, label):
    worst = -math.inf
    checked = 0
    for prep in prepared_corpus:
        seqs = [prep.walks_seq, prep.closed_seq, *prep.rooted_seqs]
        for m in seqs:
            weight = atom_weight_for(m, prep.summary)
            for k in (1, 2, 3):
                if 2 * k + 1 > m.max_index:
                    continue
                even = even_moment_upper_bound(m, weight, k)
                if not even.applicable:
                    continue
                other = upper_fn(m, weight, k)
                if not other.applicable:
                    continue
                checked += 1
                worst = max(worst, other.value - even.value)
                assert other.value <= even.value + 1e-9, (
                    f"{prep.entry.name} {m.kind} k={k}: {label} {other.value!r} "
                    f"above even-moment {even.value!r}"
                )
    return checked, worst


def test_criterion_5_two_point_dominance(prepared_corpus):
    checked, worst = _dominance_sweep(prepared_corpus, two_point_upper_bound, "two-point")
    _line(5, worst <= 1e-9, f"{checked} comparisons, worst excess {worst:.3e}")


def test_criterion_6_stieltjes_dominance(prepared_corpus):
    checked, worst = _dominance_sweep(prepared_corpus, stieltjes_root_upper_bound,
                                      "odd-moment root")
    _line(6, worst <= 1e-9, f"{checked} comparisons, worst excess {worst:.3e}")


def test_criterion_7_clique_hierarchy_dominance(prepared_corpus):
    worst = -math.inf
    checked = 0
    for prep in prepared_corpus:
        if not prep.connected or prep.omega is None or prep.omega < 2:
            continue
        weight = atom_weight_for(prep.walks_seq, prep.summary)
        for k in (1, 2, 3):
            if 2 * k > prep.walks_seq.max_index:
                continue
            even = even_moment_upper_bound(prep.walks_seq, weight, k)
            if not even.applicable:
                continue
            reference = ((1.0 - 1.0 / prep.omega) * prep.walks_seq[2 * k]) ** (1.0 / (2 * k + 1))
            checked += 1
            worst = max(worst, even.value - reference)
            assert even.value <= reference + 1e-9, (
                f"{prep.entry.name} k={k}: fundamental-weight bound above clique hierarchy"
            )
    _line(7, worst <= 1e-9, f"{checked} comparisons, worst excess {worst:.3e}")


def test_criterion_8_sdp_monotonicity(prepared_corpus):
    checked = 0
    for prep in prepared_corpus:
        rho = prep.summary.rho
        degrees_ = [len(nb) for nb in prep.entry.graph.neighbors]
        pick = max(range(prep.entry.graph.n), key=lambda i: degrees_[i])
        for m in (prep.walks_seq, prep.closed_seq, prep.rooted_seqs[pick]):
            previous = None
            for order in (0, 1, 2, 3):
                if 2 * order + 1 > m.max_index:
                    continue
                res = sdp_lower_bound(m, order)
                if not res.applicable:
                    continue
                assert res.value <= rho + 1e-12 * max(1.0, rho), (
                    f"{prep.entry.name} {m.kind}: SDP value above rho"
                )
                if previous is not None:
                    checked += 1
                    assert res.value >= previous, (
                        f"{prep.entry.name} {m.kind}: SDP decreased at order {order}"
                    )
                previous = res.value
    _line(8, True, f"{checked} consecutive-order comparisons, none decreasing")


def test_criterion_9_bipartite_halving(prepared_corpus):
    c4_phi = None
    worst = math.inf
    checked = 0
    for prep in prepared_corpus:
        if not prep.bipartite:
            continue
        rho = prep.summary.rho
        for m in (prep.closed_seq, *prep.rooted_seqs):
            weight = atom_weight_for(m, prep.summary)
            for k in (1, 2, 3, 4):
                if 2 * k > m.max_index:
                    continue
                res = bipartite_upper_bound(m, weight, k, prep.bipartite)
                if not res.applicable:
                    continue
                checked += 1
                worst = min(worst, res.value - rho)
                assert res.value >= rho - 1e-7, (
                    f"{prep.entry.name} {m.kind} k={k}: halved bound undercuts rho"
                )
        if prep.entry.name == "cycle_4":
            c4_phi = bipartite_upper_bound(prep.closed_seq, UNIT, 1, prep.bipartite).value
    assert c4_phi == pytest.approx(2.0, abs=1e-9)
    _line(9, True, f"C4 exact; {checked} bipartite bounds, worst margin {worst:.3e}")


def test_criterion_10_hamburger_validity(prepared_corpus):
    checked = 0
    for prep in prepared_corpus:
        for m in (prep.walks_seq, prep.closed_seq, *prep.rooted_seqs):
            for order in range(m.max_index // 2 + 1):
                checked += 1
                assert hamburger_check(m, order), (
                    f"{prep.entry.name} {m.kind}: Hankel order {order} not PSD"
                )
    _line(10, True, f"{checked} Hankel matrices PSD, decided exactly")


def test_criterion_11_eigensolver_sanity():
    for n in range(2, 21):
        values = eigen_decompose(complete_graph(n)).eigenvalues
        expected = np.array([n - 1.0] + [-1.0] * (n - 1))
        assert np.max(np.abs(values - expected)) <= 1e-9
    p3 = eigen_decompose(path_graph(3)).eigenvalues
    expected = np.array([math.sqrt(2.0), 0.0, -math.sqrt(2.0)])
    assert np.max(np.abs(p3 - expected)) <= 1e-10
    _line(11, True, "complete-graph spectra to 1e-9 (n <= 20), path spectrum to 1e-10")
