"""Smoke runs and oracle negative controls for the benchmark.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import pytest

import oracle
import run

NINE = ("setup_s", "graphs_per_s", "graph_ms_p50", "graph_ms_tail", "failed_frac",
        "wrong_frac", "lower_gap_median", "upper_gap_median", "peak_rss_mb")


@pytest.mark.parametrize("workload", [w["name"] for w in run.BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(workload, trace):
    result = run.run(workload, seed=1, seconds=0, trace=trace, max_graphs=3)
    summary = result["summary"]
    assert summary["correct"] and summary["attempted"] == 3
    assert set(NINE) <= set(result["end_to_end"])
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in summary["metrics"].values())
    assert result["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert result["per_layer"]["trace.graphs_per_s"] > 0


def test_failing_probes_are_listed_with_exit_code_and_exception():
    # the ladder's probes start with star:30 and star:60, which overflow today
    result = run.run("bounds_ladder", seed=1, seconds=0, trace=False, max_graphs=2)
    failures = {f["graph"]: f for f in result["failures"]}
    if not failures:
        pytest.skip("star graphs no longer fail")
    assert result["probes"] == 2 and result["summary"]["failed"] == 0
    for f in failures.values():
        assert f["probe"] and f["exit_code"] == 2 and f["exception"] == "OverflowError"
    assert result["end_to_end"]["failed_frac"] == len(failures) / 4


def _nudge_lower(doc: dict) -> dict:
    for b in doc["bounds"]:
        if b["kind"] == "lower" and b["applicable"] and b["value"] is not None:
            b["value"] = doc["rho_exact"] * (1 + 1e-5) + 1e-5
            return doc
    raise AssertionError("no applicable lower bound to nudge")


def test_nudged_lower_bound_is_caught(monkeypatch):
    parse = run.Runner.parse_report
    monkeypatch.setattr(run.Runner, "parse_report",
                        staticmethod(lambda text: _nudge_lower(parse(text))))
    result = run.run("deep_horizon", seed=1, seconds=0, trace=False, max_graphs=1)
    assert result["end_to_end"]["wrong_frac"] > 0
    assert not result["summary"]["correct"]


def test_verification_outcome_above_rho_is_caught(monkeypatch):
    verify = run.Runner.verify

    def nudged(self, entry):
        outcome = verify(self, entry)
        outcome.worst_lower_margin = max(outcome.worst_lower_margin, 0.0) + 1e-3
        return outcome

    monkeypatch.setattr(run.Runner, "verify", nudged)
    result = run.run("verify_small", seed=1, seconds=0, trace=False, max_graphs=3)
    assert result["end_to_end"]["wrong_frac"] > 0
    assert not result["summary"]["correct"]


def test_sandwich_check_direction():
    doc = {"graph": {"n": 3, "e": 3}, "rho_exact": 2.0, "bounds": [
        {"name": "a", "kind": "lower", "value": 1.5, "applicable": True, "params": {}},
        {"name": "b", "kind": "upper", "value": 2.5, "applicable": True, "params": {}},
        {"name": "c", "kind": "upper", "value": 1.0, "applicable": False, "params": {}},
    ]}
    assert oracle.check_report(doc, 3, 3, 2.0) == []
    doc["bounds"][1]["value"] = 1.99
    assert len(oracle.check_report(doc, 3, 3, 2.0)) == 1
    assert len(oracle.check_report(doc, 3, 2, 2.0)) == 2


def test_gaps_skip_oracle_assisted_bounds_and_see_a_minority_loosen():
    bounds = [
        {"kind": "lower", "value": 1.9, "applicable": True, "oracle_assisted": False},
        {"kind": "upper", "value": 2.0, "applicable": True, "oracle_assisted": True},
        {"kind": "upper", "value": 2.1, "applicable": True, "oracle_assisted": False},
        {"kind": "upper", "value": 2.05, "applicable": False, "oracle_assisted": False},
    ]
    assert oracle.best_bounds(bounds) == (1.9, 2.1)
    tight = [0.0] * 45
    assert run.gap_mean(tight + [0.0]) == run.GAP_FLOOR
    assert run.gap_mean(tight + [0.05]) > 1.15 * run.GAP_FLOOR


def test_oracle_radius_matches_closed_forms():
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert oracle.spectral_radius(3, triangle) == pytest.approx(2.0)
    star = [(0, i) for i in range(1, 5)]
    assert oracle.spectral_radius(5, star) == pytest.approx(2.0)
    assert oracle.spectral_radius(1, []) == 0.0
