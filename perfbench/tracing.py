"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` replaces each traced public function with a timing wrapper
under every name that binds it in a `swbounds` module (for example
`swbounds.moments.is_psd` and `swbounds.bounds_lower.is_psd` get the same
wrapper), so calls are caught where the calling module looks them up.
`uninstall` restores the originals. Spans live in memory only.

A span's time counts once per metric even when the same metric nests (only
the outermost call adds time); `self` time is a span's duration minus the
time of its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

MODULES = ("graph", "walks", "moments", "spectrum", "bounds_lower", "bounds_upper",
           "report", "cli")

# (defining module, function) -> span name
SPANS = {
    ("graph", "parse_edge_list"): "graph.parse",
    ("graph", "clique_number"): "graph.clique",
    ("graph", "triangle_counts"): "graph.triangles",
    ("graph", "degrees"): "graph.structure",
    ("graph", "is_bipartite"): "graph.structure",
    ("graph", "is_connected"): "graph.structure",
    ("walks", "walk_counts"): "walks.walk_counts",
    ("walks", "closed_walk_counts"): "walks.closed",
    ("walks", "_rooted_closed_table"): "walks.rooted",
    ("spectrum", "eigen_decompose"): "spectrum.eigen_decompose",
    ("spectrum", "symmetric_eigenvalues"): "spectrum.eigvals",
    ("spectrum", "verify_moment_identities"): "spectrum.identities",
    ("moments", "is_psd"): "moments.is_psd",
    ("moments", "hankel_matrix"): "moments.hankel",
    ("moments", "hankel_pair"): "moments.hankel",
    ("moments", "hankel_pair_exact"): "moments.hankel",
    ("moments", "hamburger_check"): "moments.hamburger",
    ("moments", "stieltjes_feasible"): "moments.stieltjes_feasible",
    ("bounds_lower", "sdp_lower_bound"): "bounds_lower.sdp",
    ("bounds_lower", "ratio_lower_bound"): "bounds_lower.closed_form",
    ("bounds_lower", "det_ratio_lower_bound"): "bounds_lower.closed_form",
    ("bounds_lower", "quadratic_root_lower_bound"): "bounds_lower.closed_form",
    ("bounds_lower", "triangle_edge_lower_bound"): "bounds_lower.closed_form",
    ("bounds_lower", "local_triangle_lower_bound"): "bounds_lower.closed_form",
    ("bounds_lower", "baseline_lower_bounds"): "bounds_lower.closed_form",
    ("bounds_upper", "hankel_root_upper_bound"): "bounds_upper.hankel_root",
    ("bounds_upper", "stieltjes_root_upper_bound"): "bounds_upper.stieltjes_root",
    ("bounds_upper", "clique_root_upper_bound"): "bounds_upper.clique_root",
    ("bounds_upper", "even_moment_upper_bound"): "bounds_upper.moment",
    ("bounds_upper", "two_point_upper_bound"): "bounds_upper.moment",
    ("bounds_upper", "bipartite_upper_bound"): "bounds_upper.moment",
    ("bounds_upper", "eigvec_degree_upper_bound"): "bounds_upper.moment",
    ("report", "prepare_graph"): "report.prepare",
    ("report", "sweep_bounds"): "report.sweep",
    ("report", "report_to_dict"): "report.serialize",
    ("report", "run_verification"): "report.verify",
    ("cli", "main"): "cli",
}

class _JsonProxy:
    """Stands in for the `json` module inside `swbounds.cli` to time dumps."""

    def __init__(self, dumps: Callable) -> None:
        self.dumps = dumps

    def __getattr__(self, name: str):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_moment_bits = 0
        self._depth: Counter[str] = Counter()
        self._stack: list[list] = []          # [span name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, span: str, on_result: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            self._stack.append(frame)
            self._depth[span] += 1
            self._on_enter(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._stack.pop()
                self._depth[span] -= 1
                if not self._depth[span]:
                    self.total_s[span] += elapsed
                self.self_s[span] += elapsed - frame[1]
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_enter(self, span: str) -> None:
        if span == "moments.is_psd" and self._depth["bounds_lower.sdp"]:
            self.counts["psd_in_sdp"] += 1

    def _on_hankel(self, result) -> None:
        scale = getattr(result, "scale", None)
        if scale is None and isinstance(result, tuple) and isinstance(result[1], int):
            scale = result[1]
        self.counts["hankel_blocks"] += 1
        if scale is not None and scale > 1:
            self.counts["hankel_rescaled"] += 1

    def _on_bound(self, layer: str) -> Callable:
        def count(result) -> None:
            for r in result if isinstance(result, list) else [result]:
                self.counts[f"{layer}.evaluated"] += 1
                if r.applicable and not r.trivial:
                    self.counts[f"{layer}.useful"] += 1
        return count

    def _on_walks(self, seq) -> None:
        self.max_moment_bits = max(self.max_moment_bits, max(v.bit_length() for v in seq.values))

    def _on_verify(self, outcome) -> None:
        self.counts["verify_checks"] += outcome.checks

    def _hook(self, module: str, span: str) -> Optional[Callable]:
        if span == "moments.hankel":
            return self._on_hankel
        if module in ("bounds_lower", "bounds_upper"):
            return self._on_bound(module)
        if span == "walks.walk_counts":
            return self._on_walks
        if span == "report.verify":
            return self._on_verify
        return None

    def install(self) -> None:
        modules = {name: importlib.import_module(f"swbounds.{name}") for name in MODULES}
        for (home, fname), span in SPANS.items():
            original = getattr(modules[home], fname)
            wrapper = self.wrap(original, span, self._hook(home, span))
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        cli = modules["cli"]
        self._patch(cli, "json", _JsonProxy(self.wrap(json.dumps, "report.serialize")))

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def metrics(self, graphs: int, traced_s: float, completed: int,
                overhead_per_call_s: float, slowdown: float = 1.0) -> dict[str, float]:
        """Per-layer metric values for `graphs` traced graph executions.

        "_ms" and "_calls" are per traced graph. Times are divided by the host
        slowdown, as the end-to-end ones are.
        """
        per = 1.0 / max(1, graphs)

        def ms(*spans: str) -> float:
            return 1000.0 * per * sum(self.total_s[s] for s in spans) / slowdown

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        return {
            "graph.parse_ms": ms("graph.parse"),
            "graph.clique_ms": ms("graph.clique"),
            "graph.triangles_ms": ms("graph.triangles"),
            "graph.structure_ms": ms("graph.structure"),
            "walks.walk_counts_ms": ms("walks.walk_counts"),
            "walks.closed_ms": ms("walks.closed"),
            "walks.rooted_ms": ms("walks.rooted"),
            "walks.rooted_calls": per * self.calls["walks.rooted"],
            "walks.max_moment_bits": float(self.max_moment_bits),
            "spectrum.eigen_decompose_ms": ms("spectrum.eigen_decompose"),
            "spectrum.eigen_decompose_calls": per * self.calls["spectrum.eigen_decompose"],
            "spectrum.eigvals_ms": ms("spectrum.eigvals"),
            "spectrum.eigvals_calls": per * self.calls["spectrum.eigvals"],
            "spectrum.identities_ms": ms("spectrum.identities"),
            "moments.is_psd_ms": ms("moments.is_psd"),
            "moments.is_psd_calls": per * self.calls["moments.is_psd"],
            "moments.hankel_calls": per * self.calls["moments.hankel"],
            "moments.rescaled_frac": frac(c["hankel_rescaled"], c["hankel_blocks"]),
            "moments.hamburger_ms": ms("moments.hamburger"),
            "moments.stieltjes_feasible_ms": ms("moments.stieltjes_feasible"),
            "bounds_lower.sdp_ms": ms("bounds_lower.sdp"),
            "bounds_lower.sdp_calls": per * self.calls["bounds_lower.sdp"],
            "bounds_lower.psd_tests_per_sdp": frac(c["psd_in_sdp"],
                                                   self.calls["bounds_lower.sdp"]),
            "bounds_lower.closed_form_ms": ms("bounds_lower.closed_form"),
            "bounds_lower.useful_frac": frac(c["bounds_lower.useful"],
                                             c["bounds_lower.evaluated"]),
            "bounds_upper.hankel_root_ms": ms("bounds_upper.hankel_root"),
            "bounds_upper.stieltjes_root_ms": ms("bounds_upper.stieltjes_root"),
            "bounds_upper.clique_root_ms": ms("bounds_upper.clique_root"),
            "bounds_upper.moment_ms": ms("bounds_upper.moment"),
            "bounds_upper.useful_frac": frac(c["bounds_upper.useful"],
                                             c["bounds_upper.evaluated"]),
            "report.prepare_ms": ms("report.prepare"),
            "report.sweep_ms": ms("report.sweep"),
            "report.verify_checks": per * c["verify_checks"],
            "report.serialize_ms": ms("report.serialize"),
            "cli.self_ms": 1000.0 * per * self.self_s["cli"] / slowdown,
            "trace.graphs_per_s": frac(completed * slowdown, traced_s),
            "trace.overhead_frac": frac(sum(self.calls.values()) * overhead_per_call_s,
                                        traced_s),
        }


def overhead_per_call(samples: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured on a no-op."""
    def noop(*args, **kwargs):
        return None

    traced = Tracer().wrap(noop, "calibration")
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        start = clock()
        for _ in range(samples):
            noop(1)
        direct = clock() - start
        start = clock()
        for _ in range(samples):
            traced(1)
        best = min(best, (clock() - start - direct) / samples)
    return max(0.0, best)
