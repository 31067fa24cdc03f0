import dataclasses
import functools
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swbounds import bounds_lower, bounds_upper, moments, report, roots
from swbounds.bounds_lower import VERTEX_TIE_TOL, BoundResult, Dead
from swbounds.cli import main
from swbounds.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    generate,
    parse_edge_list,
    serialize_edge_list,
)
from swbounds.report import (
    CSV_HEADER,
    CorpusEntry,
    VerificationOutcome,
    _verify_dominance,
    _verify_moment_machinery,
    _verify_spectrum,
    _verify_walks,
    build_report,
    er_corpus,
    find_violations,
    prepare_graph,
    report_csv_rows,
    run_verification,
    sweep_bounds,
)
from swbounds.walks import (
    DEFAULT_MAX_LENGTH,
    KIND_CLOSED,
    KIND_CLOSED_AT,
    KIND_WALKS,
    MomentSequence,
    walk_counts,
)


def _reduce_vertex_results(results: list[BoundResult], kind: str) -> BoundResult:
    """The reference reduction of one rooted row's per-vertex records: the
    lowest vertex within VERTEX_TIE_TOL relative of the best live value
    (max for lower, min for upper), else the first applicable (trivial)
    row, else vertex 0's."""
    live = [r for r in results if r.applicable and not r.trivial]
    if live:
        pick = max if kind == "lower" else min
        best = pick(r.value for r in live)
        return next(r for r in live if abs(r.value - best) <= VERTEX_TIE_TOL * abs(best))
    trivial = [r for r in results if r.applicable]
    if trivial:
        return trivial[0]
    return results[0]


# Graphs whose vertices fall into classes of twins: vertices with identical
# rooted closed-walk counts, hence identical rooted measures.
_TWIN_SPECS = ["star:6", "cycle:8", "complete_bipartite:3:4", "path:6"]


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(serialize_edge_list(complete_graph(3)), encoding="ascii")
    return path


class TestReportSerialization:
    def test_no_violations_on_k3(self):
        report = build_report(CorpusEntry("k3", "complete", complete_graph(3)))
        assert report.violations == ()
        assert report.rho == pytest.approx(2.0, abs=1e-10)

    def test_csv_schema(self):
        report = build_report(CorpusEntry("k3", "complete", complete_graph(3)))
        assert CSV_HEADER == "graph,family,n,e,bound,measure,s,k,J,value,rho,gap,applicable,oracle_assisted,ms"
        for row in report_csv_rows(report):
            assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_bounds_sorted_deterministically(self):
        entry = CorpusEntry("k3", "complete", complete_graph(3))
        a = build_report(entry, with_timing=False)
        b = build_report(entry, with_timing=False)
        assert a == b


_JSON_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7féß€\U0001d11e'),
                                  st.characters()), max_size=8)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.nan,
                     math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    _JSON_STRINGS,
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


class _TaggedInt(int):
    def __repr__(self) -> str:
        return "tagged"


_JSON_NUMBERS = st.one_of(
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.sampled_from([0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


class TestJsonWriter:
    """`report_json` must give the bytes of `json.dumps(..., indent=2)`."""

    # a real report, short enough (51 rows) to write hundreds of times
    _K3 = build_report(CorpusEntry("k3", "complete", complete_graph(3)), max_length=3)

    def _with_row(self, row: BoundResult, ms):
        """The k3 report with `row` appended, timed `ms`."""
        return dataclasses.replace(self._K3, bounds=(*self._K3.bounds, row),
                                   bound_ms=(*self._K3.bound_ms, ms))

    @settings(max_examples=300, deadline=None)
    @given(name=_JSON_STRINGS, kind=_JSON_STRINGS, value=_JSON_NUMBERS,
           params=st.dictionaries(_JSON_STRINGS, _JSON_TREES, max_size=3),
           flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           reason=st.none() | _JSON_STRINGS, ms=_JSON_NUMBERS)
    @example(name="hankel_root", kind="upper", value=1.5, params={"J": [1, 2, 3], "k": [7]},
             flags=(True, False, True), reason=None, ms=0.25)
    @example(name="r", kind="lower", value=1.0, params={"J": [], "n": [[1, 2], [True, 3], [-4]]},
             flags=(False, False, False), reason="x", ms=0.0)
    def test_writer_matches_json_dumps(self, name, kind, value, params, flags, reason, ms):
        applicable, trivial, oracle_assisted = flags
        row = BoundResult(name, kind, value, params, applicable, reason, trivial,
                          oracle_assisted)
        self._assert_writes_like_json_dumps(self._with_row(row, ms))

    @pytest.mark.parametrize("value, text", [
        (np.float64(1.0), "1.0"),
        (np.float64(0.0), "0.0"),
        (True, "true"),
        (1, "1"),
        (False, "false"),
        (0, "0"),
        (_TaggedInt(5), "5"),
    ])
    def test_numbers_print_through_the_base_repr(self, value, text):
        # as a params value, bare and in a list, as the bound value and as ms
        row = BoundResult("ratio", "lower", value, {"s": value, "J": [value]})
        r = self._with_row(row, value)
        self._assert_writes_like_json_dumps(r)
        assert f'"value": {text},\n      "params": {{\n        "s": {text},\n' in report.report_json(r)

    @pytest.mark.parametrize("value", [np.int64(3), {1, 2}, object()])
    def test_unserializable_values_raise(self, value):
        rows = [(BoundResult("ratio", "lower", 1.0, {"k": obj}), 0.0)
                for obj in (value, [value], {"key": value})]
        rows += [(BoundResult("ratio", "lower", value, {}), 0.0),
                 (BoundResult("ratio", "lower", 1.0, {}), value)]
        for row, ms in rows:
            r = self._with_row(row, ms)
            with pytest.raises(TypeError):
                json.dumps(report.report_to_dict(r), indent=2)
            with pytest.raises(TypeError):
                report.report_json(r)

    @staticmethod
    def _assert_writes_like_json_dumps(r) -> None:
        text = report.report_json(r)
        expected = json.dumps(report.report_to_dict(r), indent=2)
        if text != expected:   # name the first differing line, not a full diff
            line = next(i for i, pair in enumerate(zip(text.splitlines() + [""],
                                                       expected.splitlines() + [""]))
                        if pair[0] != pair[1])
            pytest.fail(f"line {line}: {text.splitlines()[line:line + 1]} != "
                        f"{expected.splitlines()[line:line + 1]}")

    # Rows the writer passes partly to `json.dumps`, with their ms: values
    # that are not a plain float, non-finite params floats, params of other
    # types (bools, lists, tuples, dicts, None), a Dead row with its reason,
    # "%" and non-ASCII text, and ms that are not a finite float.
    _FALLBACK_ROWS = [
        (BoundResult("ratio", "lower", np.float64(1.5), {"measure": "walks", "s": 0, "k": 1}),
         0.25),
        (BoundResult("ratio", "lower", 3, {"measure": "walks", "s": 0, "k": 1}), 0.5),
        (BoundResult("ratio", "lower", np.float64(math.nan), {"measure": "walks"}), 1.0),
        (BoundResult("ratio", "lower", -math.inf, {"measure": "walks"}), 1.0),
        *[(BoundResult("even_moment", "upper", 2.0, {"measure": "walks", "k": 1, "alpha1": a},
                       oracle_assisted=True), 0.125)
          for a in (math.nan, math.inf, -math.inf)],
        (bounds_lower.outcome_row("sdp", "lower", {"measure": "closed_walks", "order": 1},
                                  bounds_lower._BLOCK_NOT_PSD), 0.0),
        (bounds_lower.outcome_row("det_ratio", "lower", {"measure": "walks", "s": 0, "k": 1},
                                  bounds_lower._VACUOUS_DET_RATIO), 0.0),
        (BoundResult("odd%name", "up%sper", -0.0,
                     {"%s": None, "flag": True, "off": False, "J": [1, [2, 3.5]], "x": 5e-324},
                     applicable=False, reason='50% "quoted" \u00e9'), 2.0),
        (BoundResult("tuple_and_dict", "lower", 1.0, {"J": (1, 2), "d": {"a": [1]}}), 3.0),
        (BoundResult("ratio", "lower", 1.0, {}), np.float64(0.75)),
        (BoundResult("ratio", "lower", 1.0, {}), 7),
        (BoundResult("ratio", "lower", 1.0, {}), math.nan),
        (BoundResult("ratio", "lower", 1.0, {}), math.inf),
    ]

    @pytest.mark.parametrize("spec, seed, max_length, k_max, vertex_mode", [
        ("erdos_renyi:20:0.3", 16, 20, 9, "aggregate"),
        ("erdos_renyi:20:0.3", 16, 20, 9, "all"),
        ("cycle:70", 0, DEFAULT_MAX_LENGTH, report.DEFAULT_K_MAX, "aggregate"),
        ("complete_bipartite:4:6", 0, DEFAULT_MAX_LENGTH, report.DEFAULT_K_MAX, "all"),
        ("path:1", 0, 2, report.DEFAULT_K_MAX, "all"),
        ("erdos_renyi:12:0.15", 1729, 3, report.DEFAULT_K_MAX, "all"),
    ])
    def test_report_json_matches_json_dumps(self, spec, seed, max_length, k_max, vertex_mode):
        entry = CorpusEntry(spec, spec.split(":")[0], generate(spec, seed))
        r = build_report(entry, max_length=max_length, k_max=k_max,
                         vertex_mode=vertex_mode, with_timing=True)
        assert any(ms > 0.0 for ms in r.bound_ms)
        self._assert_writes_like_json_dumps(r)
        if spec == "cycle:70":   # past the clique-search limit
            assert '"clique": null' in report.report_json(r)
        if spec.startswith("erdos_renyi:12"):
            assert not r.graph.connected
        # the same report with every fallback row, each next to a common one
        rows = [pair for odd in self._FALLBACK_ROWS for pair in (odd, (r.bounds[0], 0.0))]
        odd = dataclasses.replace(r, bounds=(*r.bounds, *[b for b, _ in rows]),
                                  bound_ms=(*r.bound_ms, *[ms for _, ms in rows]))
        self._assert_writes_like_json_dumps(odd)

    def test_report_json_of_a_report_without_rows(self):
        r = build_report(CorpusEntry("k3", "complete", complete_graph(3)))
        empty = dataclasses.replace(r, bounds=(), bound_ms=())
        self._assert_writes_like_json_dumps(empty)
        assert '"bounds": [],' in report.report_json(empty)
        untimed = dataclasses.replace(empty, stage_ms={})
        self._assert_writes_like_json_dumps(untimed)
        assert report.report_json(untimed).endswith('"timing_ms": {}\n}')

    def test_unserializable_params_raise(self):
        r = build_report(CorpusEntry("k3", "complete", complete_graph(3)))
        bad = BoundResult("ratio", "lower", 1.0, {"k": np.int64(1)})
        with pytest.raises(TypeError):
            report.report_json(dataclasses.replace(r, bounds=(bad,), bound_ms=(0.0,)))

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["bounds", "--gen", "erdos_renyi:20:0.3", "--seed", "16", "--K", "12",
                "--format", "json", "--no-timing"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == stdout


class TestMain:
    def test_runs_the_subcommand_patched_in_after_the_first_call(self, monkeypatch, capsys):
        from swbounds import cli

        assert main(["gen", "path:2"]) == 0
        ran = []
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: ran.append(args.gen) or 0)
        assert main(["bounds", "--gen", "star:3"]) == 0
        assert ran == ["star:3"]
        capsys.readouterr()

    def test_repeated_calls_write_the_bytes_of_first_calls(self, monkeypatch, capsys):
        from swbounds import cli

        argvs = [
            ["bounds", "--gen", "star:5", "--format", "json", "--no-timing",
             "--measures", "walks", "--J", "1,2"],
            ["bounds", "--gen", "star:5", "--format", "json", "--no-timing"],
            ["bounds", "--gen", "star:5", "--format", "csv", "--no-timing",
             "--measures", "closed", "vertex", "--J", "1,2,3", "--J", "1,2"],
            ["bounds", "--gen", "star:5", "--format", "csv", "--no-timing"],
            ["bounds", "--gen", "cycle:6", "--format", "table", "--no-timing", "--per-vertex",
             "--measures", "vertex"],
            ["bounds", "--gen", "cycle:6", "--format", "table", "--no-timing"],
        ]

        def output(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        first = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_PARSER", None)
            first.append(output(argv))
        assert len(set(first)) == len(first)
        assert [output(argv) for argv in argvs] == first
        assert [output(argv) for argv in reversed(argvs)] == first[::-1]


class TestCommands:
    def test_bounds_star_table(self, capsys):
        assert main(["bounds", "--gen", "star:4", "--K", "8"]) == 0
        out = capsys.readouterr().out
        assert "rho_exact = 2" in out
        assert "local_triangle" in out
        assert "violations: none" in out

    def test_bounds_json_from_file(self, k3_file, capsys):
        assert main(["bounds", "--file", str(k3_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["rho_exact"] == pytest.approx(2.0, abs=1e-10)
        names = {b["name"] for b in payload["bounds"]}
        assert {"ratio", "sdp", "even_moment", "hankel_root"} <= names

    def test_measure_filter(self, capsys):
        assert main(["bounds", "--gen", "path:3", "--measures", "closed",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        measures = {b["params"].get("measure") for b in payload["bounds"]
                    if "measure" in b["params"]}
        assert measures == {"closed_walks"}
        # the labelled rows of an unswept measure stay out too
        assert not any("vertex" in b["params"] for b in payload["bounds"])
        names = {b["name"] for b in payload["bounds"]}
        assert not names & {"local_triangle", "baseline_sqrt_max_degree", "eigvec_degree"}
        assert "triangle_edge" in names

    def test_walk_measure_filter_keeps_closed_and_rooted_rows_out(self, capsys):
        code, doc = _bounds_json(capsys, "--gen", "path:3", "--measures", "walks")
        assert code == 0
        names = {b["name"] for b in doc["bounds"]}
        assert "baseline_sqrt_w2_w0" in names
        assert not names & {"triangle_edge", "local_triangle", "baseline_sqrt_max_degree",
                            "eigvec_degree"}

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_out_file_of_a_non_ascii_stem_matches_stdout(self, capsys, tmp_path, fmt):
        # the file stem names the graph, so the report holds it verbatim
        path = tmp_path / "grafo_\u00f1.edges"
        path.write_text(serialize_edge_list(complete_graph(3)), encoding="utf-8")
        argv = ["bounds", "--file", str(path), "--format", fmt, "--no-timing"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "grafo_\u00f1" in stdout
        out = tmp_path / "report.txt"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == stdout

    def test_edge_lists_are_read_as_utf8(self, capsys, tmp_path):
        # a comment in any script, and a byte-order mark, leave the graph as it is
        text = serialize_edge_list(generate("path:3"))
        outputs = []
        for folder, comment in (("plain", ""), ("commented", "# camino de tres v\u00e9rtices\n"),
                                ("marked", "\ufeff# camino\n")):
            (tmp_path / folder).mkdir()
            path = tmp_path / folder / "camino.edges"
            path.write_text(comment + text, encoding="utf-8")
            assert main(["bounds", "--file", str(path), "--format", "json", "--no-timing"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[2] == outputs[0]
        assert json.loads(outputs[0])["graph"]["e"] == 2

    @pytest.mark.parametrize("repeated, once", [
        (["1,2", "1,2"], ["1,2"]),
        (["1,1,2", "1,2"], ["1,2"]),
        (["1,2,3", "2,1", "3,2,1", "1,2"], ["1,2,3", "1,2"]),
        (["2,1,1"], ["1,2"]),
    ])
    def test_a_repeated_index_set_is_swept_once(self, capsys, repeated, once):
        def output(j_sets):
            argv = ["bounds", "--gen", "cycle:5", "--format", "csv", "--no-timing"]
            assert main(argv + [arg for j_set in j_sets for arg in ("--J", j_set)]) == 0
            return capsys.readouterr().out

        out = output(repeated)
        assert out == output(once)
        # one row per measure of each distinct set: walks, closed walks and vertex 0
        assert sum(",hankel_root," in line for line in out.splitlines()) == 3 * len(once)

    @pytest.mark.parametrize("j_set, message", [
        (",,", "empty index set"),
        ("0,1", "indices are 1-based and must be >= 1"),
        ("1,x", "bad index set '1,x': expected comma-separated integers"),
    ])
    def test_a_bad_index_set_exits_1_with_its_reason(self, capsys, j_set, message):
        assert main(["bounds", "--gen", "cycle:5", "--J", j_set]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_gen_round_trip(self, capsys):
        assert main(["gen", "erdos_renyi:10:0.5", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "erdos_renyi:10:0.5", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        g = parse_edge_list(first)
        assert g.n == 10

    def test_byte_identical_without_timing(self, capsys, tmp_path):
        args = ["bench", "--families", "star,cycle", "--min", "3", "--max", "6",
                "--K", "8", "--no-timing"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[0] == CSV_HEADER

    def test_bench_to_file(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--families", "star", "--min", "2", "--max", "6",
                     "--K", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # stars are exact for the local triangle bound: gap column all ~0
        rows = [line.split(",") for line in lines[1:] if ",local_triangle," in line]
        assert rows
        for row in rows:
            assert abs(float(row[11])) < 1e-9

    def test_bounds_violation_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr("swbounds.report.triangle_edge_lower_bound",
                            lambda g, outcome=None: BoundResult("triangle_edge", "lower",
                                                                100.0, {}))
        assert main(["bounds", "--gen", "complete:3", "--K", "8"]) == 3
        out = capsys.readouterr().out
        assert "VIOLATIONS:" in out
        assert "triangle_edge" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 0\n", encoding="ascii")
        assert main(["bounds", "--file", str(bad)]) == 1
        assert "self-loop" in capsys.readouterr().err

    def test_unknown_family_exit_code(self, capsys):
        assert main(["bounds", "--gen", "moebius:5"]) == 1

    def test_verify_small_clean(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--families-max", "5", "--er-count", "2",
                     "--er-n", "7", "--K", "8"]) == 0
        out = capsys.readouterr().out
        assert "violations:     0" in out

    def test_verify_negative_control(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("swbounds.report.triangle_edge_lower_bound",
                            lambda g, outcome=None: BoundResult("triangle_edge", "lower",
                                                                100.0, {}))
        code = main(["verify", "--families-max", "3", "--er-count", "0", "--K", "8"])
        out = capsys.readouterr().out
        assert code == 3
        assert "VIOLATION: path_1: lower bound triangle_edge" in out
        assert (tmp_path / "violation_path_1.edges").exists()

    def test_verify_creates_a_missing_dump_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("swbounds.report.triangle_edge_lower_bound",
                            lambda g, outcome=None: BoundResult("triangle_edge", "lower",
                                                                100.0, {}))
        dump_dir = tmp_path / "not" / "yet"
        code = main(["verify", "--families-max", "3", "--er-count", "0", "--K", "8",
                     "--dump-dir", str(dump_dir)])
        assert code == 3
        assert f"offending graph written to {dump_dir / 'violation_path_1.edges'}" in (
            capsys.readouterr().out)
        assert (dump_dir / "violation_path_1.edges").exists()

    def test_bench_violation_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr("swbounds.report.triangle_edge_lower_bound",
                            lambda g, outcome=None: BoundResult("triangle_edge", "lower",
                                                                100.0, {}))
        code = main(["bench", "--families", "path", "--min", "4", "--max", "4",
                     "--K", "8", "--no-timing"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.splitlines()[0] == CSV_HEADER
        assert "VIOLATION: path_4: lower bound triangle_edge" in captured.err

    @pytest.mark.parametrize("command", [("bounds", "--gen", "path:3"),
                                         ("verify", "--families-max", "3", "--er-count", "0"),
                                         ("bench", "--max", "3")])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
    def test_tol_must_be_finite_and_non_negative(self, capsys, tmp_path, monkeypatch,
                                                 command, tol):
        monkeypatch.chdir(tmp_path)
        assert main([*command, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol must be a finite number >= 0" in captured.err

    @pytest.mark.parametrize("command", [("bounds", "--gen", "path:3"),
                                         ("bench", "--max", "3")])
    def test_tol_zero_is_accepted(self, capsys, command):
        # rho is a rounded eigenvalue, so with no margin exact bounds may
        # cross it by an ulp and exit 3; what matters is that tol is taken
        assert main([*command, "--no-timing", "--tol", "0"]) in (0, 3)
        assert "--tol" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--gen", "star:3", "--omega", "1"),
        ("--gen", "path:3", "--omega", "0"),
        ("--gen", "path:3", "--omega", "4"),
        ("--gen", "path:1", "--omega", "0"),
        # Turan's bound (clique_root at k = 0) rules these out
        ("--gen", "complete:5", "--omega", "3"),
        ("--gen", "complete:5", "--omega", "4"),
        # 15 triangles
        ("--gen", "erdos_renyi:30:0.15", "--seed", "1", "--omega", "2"),
    ])
    def test_impossible_clique_number_exit_code(self, capsys, argv):
        assert main(["bounds", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "clique number" in captured.err
        assert "Traceback" not in captured.err

    def test_true_clique_number_given_changes_nothing(self, capsys):
        argv = ["bounds", "--gen", "complete:5", "--no-timing", "--format", "json"]
        assert main(argv) == 0
        found = capsys.readouterr().out
        assert main([*argv, "--omega", "5"]) == 0
        assert capsys.readouterr().out == found

    @pytest.mark.parametrize("omega", [3, 4])
    def test_clique_root_rejects_a_clique_number_below_the_walk_counts(self, omega):
        m = walk_counts(complete_graph(5), 3)
        with pytest.raises(ValueError, match="too small"):
            bounds_upper.clique_root_upper_bound(m, omega, 0)
        assert bounds_upper.clique_root_upper_bound(m, 5, 1).applicable

    @pytest.mark.parametrize("argv", [("--gen", "cycle:30", "--omega", "2"),
                                      ("--gen", "path:1", "--omega", "1")])
    def test_possible_clique_number(self, capsys, argv):
        code, doc = _bounds_json(capsys, *argv)
        assert code == 0 and doc["violations"] == []
        assert doc["graph"]["clique"] == int(argv[-1])

    @pytest.mark.parametrize("command", [("bounds", "--gen", "path:3"),
                                         ("bench", "--max", "3")])
    @pytest.mark.parametrize("flag", ["--s-max", "--k-max"])
    def test_negative_sweep_limit_exit_code(self, capsys, command, flag):
        assert main([*command, flag, "-1"]) == 1
        assert "must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("k", range(6))
    def test_bounds_at_a_short_horizon(self, capsys, k):
        code, doc = _bounds_json(capsys, "--gen", "star:4", "--K", str(k))
        assert code == 0 and doc["violations"] == []
        baselines = {b["name"] for b in doc["bounds"] if b["name"].startswith("baseline_sqrt_w")}
        assert baselines == {f"baseline_sqrt_w{2 * j}_w{2 * j - 2}"
                             for j in (1, 2, 3) if 2 * j <= k}
        names = {b["name"] for b in doc["bounds"]}
        # the labelled classical rows need m_3 (triangles) and m_2 (degrees)
        triangles = {"triangle_edge", "local_triangle"}
        assert names & triangles == (triangles if k >= 3 else set())
        assert ("baseline_sqrt_max_degree" in names) == (k >= 2)
        # eigvec_degree is the rooted two-point row at k = 1, which needs m_2
        assert ("eigvec_degree" in names) == (k >= 2)

    def test_disconnected_graph_gets_no_eigvec_walk_row_past_the_horizon(self, capsys):
        # baseline_eigvec_walk at k needs w_{2k}: at K = 3 only k = 1 exists,
        # connected or not
        code, doc = _bounds_json(capsys, "--gen", "erdos_renyi:12:0.15", "--seed", "1729",
                                 "--K", "3")
        assert code == 0 and not doc["graph"]["connected"]
        ks = [b["params"]["k"] for b in doc["bounds"] if b["name"] == "baseline_eigvec_walk"]
        assert ks == [1]

    def test_verify_at_a_short_horizon(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--families-max", "6", "--er-count", "3", "--K", "3"]) == 0
        assert "violations:     0" in capsys.readouterr().out


def _sandwich_rows(rho, tol):
    """Rows at the edge rho + tol (lower) or rho - tol (upper) and at the
    float either side of it."""
    rows = []
    for kind, edge in (("lower", rho + tol), ("upper", rho - tol)):
        for value in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
            rows.append(BoundResult("sandwich_probe", kind, value, {"at": value}))
    return rows


class TestSandwichRule:
    """`find_violations`, the CSV gap column and `run_verification` decide
    each row by the one test `_gap(row, rho) < -tol`."""

    @pytest.mark.parametrize("tol", [0.0, 1e-7])
    def test_every_view_agrees_at_the_edge(self, monkeypatch, tol):
        entry = CorpusEntry("p3", "path", generate("path:3"))
        base = build_report(entry, tol=tol, with_timing=False)
        rho = base.rho
        decided = []
        for row in _sandwich_rows(rho, tol):
            violations = find_violations([row], rho, tol)
            single = dataclasses.replace(base, bounds=(row,), bound_ms=(0.0,))
            gap = float(report_csv_rows(single)[0].split(",")[11])
            monkeypatch.setattr(report, "sweep_bounds", lambda *a, **k: [(row, 0.0)])
            outcome = run_verification([entry], max_length=DEFAULT_MAX_LENGTH, tol=tol)
            lower = row.kind == "lower"
            assert gap == (rho - row.value if lower else row.value - rho)
            assert (lower and outcome.worst_lower_margin == -gap
                    or not lower and outcome.worst_upper_margin == -gap)
            crossed = gap < -tol
            assert len(violations) == crossed
            # at tol = 0 the support conditions at rho fail too, since rho is
            # the float below sqrt(2); only the probe row's messages are compared
            probed = [v for v in outcome.violations if "sandwich_probe" in v]
            assert probed == [f"p3: {v}" for v in violations]
            if crossed:
                verb = "exceeds" if lower else "undercuts"
                assert violations[0] == (f"{row.kind} bound sandwich_probe {row.params} = "
                                         f"{row.value!r} {verb} rho = {rho!r}")
            if tol == 0.0:
                # float subtraction keeps its sign, so this is the plain comparison
                assert crossed == (row.value > rho if lower else row.value < rho)
            decided.append(crossed)
        assert decided[0] is False and decided[2] is True  # lower rows, below and above
        assert decided[3] is True and decided[5] is False  # upper rows, below and above

    def test_inapplicable_and_non_finite_rows_are_not_checked(self):
        rows = [BoundResult("sandwich_probe", "lower", math.inf),
                BoundResult("sandwich_probe", "upper", math.nan),
                BoundResult("sandwich_probe", "lower", 9.0, applicable=False)]
        assert find_violations(rows, 1.0, 0.0) == []

    def test_path3_at_zero_tolerance_names_its_one_ulp_excesses(self, capsys):
        # rho is LAPACK's float just below sqrt(2), and the exact sqrt(2)
        # bounds round to the float above it
        code = main(["bounds", "--gen", "path:3", "--no-timing", "--tol", "0",
                     "--format", "json"])
        assert code == 3
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert len(violations) == 47
        assert all(v.startswith("lower bound ") and " = 1.4142135623730951 exceeds rho = "
                   "1.414213562373095" in v for v in violations)


class TestVerificationEngine:
    def test_a_rooted_two_point_row_below_rho_is_flagged(self, monkeypatch):
        # the rooted two_point k = 1 row is sqrt((1/x_i^2 - 1) d_i), which
        # eigvec_degree reports: the sandwich check holds it above rho
        sweep = report.sweep_bounds
        entry = CorpusEntry("star", "star", generate("star:4"))
        rho = prepare_graph(entry).summary.rho

        def target(r):
            return (r.name == "two_point" and r.params["measure"] == KIND_CLOSED_AT
                    and r.params["vertex"] == 2 and r.params["k"] == 1)

        def lowered(*args, **kwargs):
            return [(dataclasses.replace(r, value=rho - 1e-3) if target(r) else r, ms)
                    for r, ms in sweep(*args, **kwargs)]
        assert run_verification([entry]).violations == []
        monkeypatch.setattr(report, "sweep_bounds", lowered)
        outcome = run_verification([entry])
        assert len(outcome.violations) == 1
        assert outcome.violations[0].startswith("star: upper bound two_point {'measure': "
                                                "'closed_walks_at', 'vertex': 2, 'k': 1")
        assert outcome.offenders == [entry]

    def test_clean_corpus(self):
        entries = [CorpusEntry("k3", "complete", complete_graph(3))]
        outcome = run_verification(entries, max_length=8)
        assert outcome.violations == []
        assert outcome.checks > 100
        assert outcome.worst_lower_margin <= 1e-7
        assert outcome.worst_upper_margin <= 1e-7

    def test_corruption_is_detected(self):
        # 1, 2, 1, 2, ... is no moment sequence: det [[1, 2], [2, 1]] = -3
        prep = prepare_graph(CorpusEntry("k3", "complete", complete_graph(3)), 8)
        bad = MomentSequence(KIND_CLOSED, tuple(1 if i % 2 == 0 else 2 for i in range(9)))
        clean = VerificationOutcome()
        _verify_moment_machinery(clean, prep, 1e-7)
        assert clean.violations == []
        out = VerificationOutcome()
        _verify_moment_machinery(out, dataclasses.replace(prep, closed_seq=bad), 1e-7)
        assert "k3: Hankel matrix of closed_walks not PSD at order 1" in out.violations

    def test_the_identities_of_a_disconnected_graph_hold_at_a_deep_horizon(self):
        # four components: each rooted measure is compared with its own
        # component's spectrum, not with the whole graph's eigenvectors
        entry = er_corpus(10, 12, 0.15)[3]
        assert entry.name == "er_12_0.15_1732"
        prep = prepare_graph(entry, 80)
        assert not prep.connected
        out = VerificationOutcome()
        _verify_spectrum(out, prep)
        assert out.violations == [] and out.checks > 0

    def test_rooted_counts_checked_against_the_vector_iteration(self):
        prep = prepare_graph(CorpusEntry("k4", "complete", complete_graph(4)), 8)
        first = prep.rooted_seqs[0]
        wrong = MomentSequence(first.kind, first.values[:-1] + (first.values[-1] + 1,),
                               vertex=first.vertex)
        out = VerificationOutcome()
        _verify_walks(out, dataclasses.replace(prep, rooted_seqs=(wrong, *prep.rooted_seqs[1:])))
        assert any("vector iteration" in v for v in out.violations)

    def test_dominance_sees_a_two_point_row_above_its_even_moment_row(self):
        prep = prepare_graph(CorpusEntry("k4", "complete", complete_graph(4)), 8)
        rows = [r for r, _ in sweep_bounds(prep, vertex_mode="all")]
        clean = VerificationOutcome()
        _verify_dominance(clean, prep, rows)
        assert clean.checks > 0 and clean.violations == []

        def closed_k1(r, name):
            return r.name == name and r.params["measure"] == KIND_CLOSED and r.params["k"] == 1

        even = next(r for r in rows if closed_k1(r, "even_moment"))
        assert any(closed_k1(r, "two_point") and r.applicable for r in rows)
        raised = [dataclasses.replace(r, value=even.value + 1.0) if closed_k1(r, "two_point")
                  else r for r in rows]
        out = VerificationOutcome()
        _verify_dominance(out, prep, raised)
        assert out.checks == clean.checks
        assert out.violations == [
            "k4: two-point bound above even-moment bound (closed_walks, k=1)"]

    def test_dominance_sees_a_local_triangle_row_below_sqrt_max_degree(self):
        prep = prepare_graph(CorpusEntry("star", "star", generate("star:4")), 8)
        rows = [r for r, _ in sweep_bounds(prep, vertex_mode="all")]
        clean = VerificationOutcome()
        _verify_dominance(clean, prep, rows)
        assert clean.violations == []
        sqrt_delta = next(r for r in rows if r.name == "baseline_sqrt_max_degree").value
        lowered = [dataclasses.replace(r, value=sqrt_delta - 1e-6)
                   if r.name == "local_triangle" else r for r in rows]
        out = VerificationOutcome()
        _verify_dominance(out, prep, lowered)
        assert out.checks == clean.checks
        assert out.violations == ["star: local triangle bound below sqrt(max degree)"]

    def test_dominance_sees_an_eigvec_walk_row_below_the_walk_even_moment(self):
        prep = prepare_graph(CorpusEntry("star", "star", generate("star:4")), 8)
        rows = [r for r, _ in sweep_bounds(prep, vertex_mode="all")]
        clean = VerificationOutcome()
        _verify_dominance(clean, prep, rows)
        assert clean.violations == []

        def walks_k2(r, name):
            # the baseline row carries no measure: it is a walk row
            return r.name == name and r.params.get("measure", KIND_WALKS) == KIND_WALKS and (
                r.params["k"] == 2)

        even = next(r for r in rows if walks_k2(r, "even_moment")).value
        assert any(walks_k2(r, "baseline_eigvec_walk") and r.applicable for r in rows)
        lowered = [dataclasses.replace(r, value=even - 1e-6)
                   if walks_k2(r, "baseline_eigvec_walk") else r for r in rows]
        out = VerificationOutcome()
        _verify_dominance(out, prep, lowered)
        assert out.checks == clean.checks
        assert out.violations == ["star: eigenvector walk bound below even-moment bound (k=2)"]

    @pytest.mark.parametrize("ulps, flagged", [(4, False), (5, True)])
    def test_dominance_sees_a_det_ratio_row_above_its_quadratic_root(self, ulps, flagged):
        prep = prepare_graph(er_corpus(1)[0], 8)
        rows = [r for r, _ in sweep_bounds(prep, vertex_mode="all")]
        clean = VerificationOutcome()
        _verify_dominance(clean, prep, rows)
        assert clean.violations == []

        def closed_02(r, name):
            # at k = 1 the shifted determinant is often negative: a trivial row
            return r.name == name and r.params["measure"] == KIND_CLOSED and (
                r.params["s"], r.params["k"]) == (0, 2)

        root = next(r for r in rows if closed_02(r, "quadratic_root")).value
        assert any(closed_02(r, "det_ratio") and r.applicable and not r.trivial for r in rows)
        raised = [dataclasses.replace(r, value=root + ulps * math.ulp(root))
                  if closed_02(r, "det_ratio") else r for r in rows]
        out = VerificationOutcome()
        _verify_dominance(out, prep, raised)
        assert out.checks == clean.checks
        expected = [f"{prep.entry.name}: determinant ratio above its quadratic root "
                    "(closed_walks, s=0, k=2)"]
        assert out.violations == (expected if flagged else [])

    def test_dominance_sees_a_quadratic_root_row_below_its_vertex_value(self):
        # each row's floor |det F| / (2 det H) ** (1/k) comes from its own
        # sequence and (s, k) column: at the floor no row is flagged, and
        # 2e-9 below it, past the 1e-9 slack, every row is
        prep = prepare_graph(CorpusEntry("path_6_chord", "test", Graph(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 4)])), 8)
        seqs = {(m.kind, m.vertex): m for m in (prep.walks_seq, prep.closed_seq,
                                                *prep.rooted_seqs)}
        assert len({m.values for m in seqs.values()}) == len(seqs)
        rows = [r for r, _ in sweep_bounds(prep, vertex_mode="all")]

        def floor(r):
            p = r.params
            v = seqs[p["measure"], p.get("vertex")].values
            s, k = p["s"], p["k"]
            m0, m1, m2, m3 = (v[2 * s + i * k] for i in range(4))
            return (abs(m1 * m2 - m3 * m0) / (2 * (m0 * m2 - m1 * m1))) ** (1.0 / k)

        roots = [r for r in rows if r.name == "quadratic_root" and r.applicable]
        assert len({floor(r) for r in roots}) > len(roots) // 2
        assert len({(r.params["s"], r.params["k"]) for r in roots}) > 1
        message = "quadratic root below its vertex value"
        for shift, flagged in ((0.0, 0), (-2e-9, len(roots))):
            out = VerificationOutcome()
            _verify_dominance(out, prep, [
                dataclasses.replace(r, value=floor(r) + shift) if r in roots else r
                for r in rows])
            assert sum(message in v for v in out.violations) == flagged, shift
        lowered = next(r for r in roots if r.params["measure"] == KIND_CLOSED_AT)
        out = VerificationOutcome()
        _verify_dominance(out, prep, [dataclasses.replace(r, value=floor(r) - 2e-9)
                                      if r is lowered else r for r in rows])
        p = lowered.params
        assert out.violations == [f"path_6_chord: {message} (closed_walks_at, "
                                  f"s={p['s']}, k={p['k']})"]

    def test_dominance_sees_an_sdp_row_one_ulp_below_the_previous_order(self):
        prep = prepare_graph(CorpusEntry("k4", "complete", complete_graph(4)), 8)
        rows = [r for r, _ in sweep_bounds(prep, vertex_mode="all")]

        def closed_sdp(r, n):
            return r.name == "sdp" and r.params["measure"] == KIND_CLOSED and r.params["n"] == n

        previous = next(r for r in rows if closed_sdp(r, 1))
        assert any(closed_sdp(r, 2) and r.applicable for r in rows)
        lowered = [dataclasses.replace(r, value=math.nextafter(previous.value, -math.inf))
                   if closed_sdp(r, 2) else r for r in rows]
        out = VerificationOutcome()
        _verify_dominance(out, prep, lowered)
        assert out.violations == [
            "k4: support bound decreased from order 1 to 2 (closed_walks)"]

    @pytest.mark.parametrize("ulps, flagged", [(1, False), (2, True)])
    def test_dominance_sees_a_ratio_seed_two_ulps_above_its_sdp_row(self, ulps, flagged):
        prep = prepare_graph(CorpusEntry("k4", "complete", complete_graph(4)), 8)
        rows = [r for r, _ in sweep_bounds(prep, vertex_mode="all")]
        top = max((r for r in rows if r.name == "sdp" and r.applicable
                   and r.params["measure"] == KIND_CLOSED), key=lambda r: r.params["n"])
        raised = top.value
        for _ in range(ulps):
            raised = math.nextafter(raised, math.inf)

        def seed(r):
            return r.name == "ratio" and r.params["measure"] == KIND_CLOSED and (
                r.params["s"], r.params["k"]) == (0, 1)

        assert sum(seed(r) for r in rows) == 1
        out = VerificationOutcome()
        _verify_dominance(out, prep, [dataclasses.replace(r, value=raised) if seed(r) else r
                                      for r in rows])
        expected = ["k4: support bound below ratio seed (closed_walks, s=0)"]
        assert out.violations == (expected if flagged else [])

    def test_each_bound_is_evaluated_once_per_row(self, monkeypatch):
        calls = {}

        def counted(name):
            fn = getattr(report, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(report, name, wrapper)

        counted("stieltjes_root_value")
        counted("sdp_value")
        entries = [CorpusEntry("k4", "complete", complete_graph(4)), er_corpus(1)[0]]
        outcome = run_verification(entries)
        assert outcome.violations == []
        # walks, closed and one rooted class per distinct sequence (and atom
        # weight, for an upper bound); at K = 12 the sweep takes k = 1..4
        # (k_max) and SDP orders 0, 1 and 2
        sequences = weighted = 0
        for entry in entries:
            prep = prepare_graph(entry)
            sequences += 2 + len({m.values for m in prep.rooted_seqs})
            weighted += 2 + len({(m.values, bounds_upper.atom_weight_for(m, prep.summary))
                                 for m in prep.rooted_seqs})
        assert sequences < sum(2 + entry.graph.n for entry in entries)
        assert calls == {"stieltjes_root_value": 4 * weighted, "sdp_value": 3 * sequences}

    def test_one_hankel_elimination_per_sequence(self, monkeypatch):
        # one table decides every Hamburger order and one serves every sdp
        # order; one support test per sequence eliminates u*H_J - S_J and
        # u*H_J + S_J on its longest J
        calls = {"_eliminate": 0, "stieltjes_prefix": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(moments, "_eliminate")
        counted(report, "stieltjes_prefix")
        entries = [CorpusEntry("k4", "complete", complete_graph(4)), er_corpus(1)[0]]
        assert run_verification(entries).violations == []
        # one Hamburger and one sdp table per distinct sequence
        sequences = sum(len({m.values for m in (prep.walks_seq, prep.closed_seq,
                                                *prep.rooted_seqs)})
                        for prep in map(prepare_graph, entries))
        assert calls["stieltjes_prefix"] == sequences
        assert calls["_eliminate"] == 4 * sequences

    @pytest.mark.parametrize("spec", _TWIN_SPECS)
    def test_each_support_test_runs_once_per_distinct_sequence(self, monkeypatch, spec):
        calls = []

        def counted(m, j_set, u):
            calls.append((m.values, tuple(j_set)))
            return moments.stieltjes_prefix(m, j_set, u)
        monkeypatch.setattr(report, "stieltjes_prefix", counted)
        entry = CorpusEntry("g", "test", generate(spec))
        outcome = run_verification([entry])
        assert outcome.violations == []
        prep = prepare_graph(entry)
        distinct = {m.values for m in (prep.walks_seq, prep.closed_seq, *prep.rooted_seqs)}
        # at K = 12: J = (1, 2), (1, 2, 3) and (1, ..., 6), all decided at the longest
        j_sets = [(1, 2), (1, 2, 3), tuple(range(1, 7))]
        assert sorted(calls) == sorted((values, j_sets[-1]) for values in distinct)
        # every sequence's checks are still counted: Hamburger orders 0..6
        # and the three J
        machinery = VerificationOutcome()
        _verify_moment_machinery(machinery, prep, 1e-7)
        assert machinery.checks == (2 + entry.graph.n) * (7 + len(j_sets))

    def test_support_checks_match_one_test_per_j(self):
        # each J's check is the outcome of `stieltjes_feasible` at that J; a
        # cutoff below rho fails the walk measures' longer sets
        prep = prepare_graph(CorpusEntry("g", "test", generate("erdos_renyi:12:0.4", 3)))
        for shift in (1e-7, -0.5, -1e-3):
            expected = []
            for m in (prep.walks_seq, prep.closed_seq, *prep.rooted_seqs):
                for j_set in [(1, 2), (1, 2, 3), tuple(range(1, 7))]:
                    if not moments.stieltjes_feasible(m, j_set, prep.summary.rho + shift):
                        expected.append(f"g: support conditions fail for {m.kind} at J={j_set}")
            machinery = VerificationOutcome()
            _verify_moment_machinery(machinery, prep, shift)
            failures = [v for v in machinery.violations if "support" in v]
            assert failures == expected
            if shift < 0:
                assert failures


class TestVertexReduction:
    def test_vertex_transitive_tie_reports_the_lowest_vertex(self):
        # every vertex of C_60 gives the same value up to the rounding of its
        # eigenvector entry; the reported vertex must not depend on those bits
        report = build_report(CorpusEntry("cycle_60", "cycle", cycle_graph(60)), omega=2)
        rows = [r for r in report.bounds if r.name == "hankel_root"
                and r.params["measure"] == "closed_walks_at" and r.params["J"] == [1, 2, 3]]
        assert len(rows) == 1 and rows[0].params["vertex"] == 0

    @staticmethod
    def _key(r: BoundResult) -> tuple:
        p = r.params
        return (r.name, p.get("measure"), p.get("s"), p.get("k"), p.get("n"), str(p.get("J")))

    @pytest.mark.parametrize("name, graph, max_length, k_max", [
        # every vertex ties
        ("cycle_30", generate("cycle:30"), 12, 4),
        # the leaves tie
        ("star_12", generate("star:12"), 12, 4),
        # G(40, 80), the median rung of the benchmark's size ladder
        ("gnm_40_80", Graph(40, random.Random(5).sample(
            [(i, j) for i in range(40) for j in range(i + 1, 40)], 80)), 12, 4),
        # vertex 0 is isolated: its atom weight is zero and its rows inapplicable
        ("isolated_0", Graph(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]), 12, 4),
        ("er_20_0.3_16", generate("erdos_renyi:20:0.3", 16), 20, 9),
        # identical rooted sequences: every vertex's exact root is the same
        ("cycle_120", generate("cycle:120"), 12, 4),
        ("complete_bipartite_5_7", generate("complete_bipartite:5:7"), 20, 9),
    ])
    def test_aggregate_rows_reduce_the_per_vertex_rows(self, name, graph, max_length, k_max):
        # losing vertices are ruled out by a cutoff in aggregate mode; the
        # row reported must still be the reduction of every vertex's row
        prep = prepare_graph(CorpusEntry(name, "test", graph), max_length)
        groups: dict = {}
        for r, _ in sweep_bounds(prep, k_max=k_max, vertex_mode="all"):
            groups.setdefault(self._key(r), []).append(r)
        aggregate = [r for r, _ in sweep_bounds(prep, k_max=k_max)]
        by_key = {self._key(r): r for r in aggregate}
        assert len(by_key) == len(aggregate)
        assert by_key.keys() == groups.keys()
        for key, rows in groups.items():
            assert by_key[key] == _reduce_vertex_results(rows, rows[0].kind), key
        if name == "isolated_0":
            rooted = groups[("hankel_root", "closed_walks_at", None, None, None, "[1, 2]")]
            assert rooted[0].params["vertex"] == 0 and not rooted[0].applicable

    @pytest.mark.parametrize("name, kind, values", [
        # the best is vertex 2, and vertices 1 and 3 are within the tie
        # tolerance of it, but vertices 0, 4 and 5 are not: vertex 1 is reported
        ("sdp", "lower", (1.0, 1.0 + 6e-13, 1.0 + 1.2e-12, 1.0 + 3e-13, 1.0, 1.0)),
        ("hankel_root", "upper", (1.0 + 1.2e-12, 1.0 + 6e-13, 1.0, 1.0 + 9e-13,
                                  1.0 + 1.2e-12, 1.0 + 1.2e-12)),
    ])
    def test_cutoff_keeps_the_lowest_tied_vertex(self, monkeypatch, name, kind, values):
        def value_of(m, *args, cutoff=None):
            value = values[m.vertex] if m.vertex is not None else 1.0
            if cutoff is not None and (value < cutoff if kind == "lower" else value > cutoff):
                return Dead("ruled out by the cutoff")
            return value
        monkeypatch.setattr(report, f"{name}_value", value_of)
        # the path 0-1-2-3-4-5 with the chord (2, 4): no two rooted sequences
        # are equal, so each vertex may have a value of its own
        graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 4)])
        prep = prepare_graph(CorpusEntry("path_6_chord", "test", graph))
        assert len({m.values for m in prep.rooted_seqs}) == 6
        for mode in ("aggregate", "all"):
            rows = [r for r, _ in sweep_bounds(prep, measures=("vertex",), vertex_mode=mode)
                    if r.name == name]
            assert _reduce_vertex_results(rows, kind).params["vertex"] == 1

    # Each value routine the sweep still calls once per class, with the length
    # of the head it takes from a sequence ((m, table) or (m, weight)), and
    # whether the atom weight is part of what it depends on.
    _VALUE_ROUTINES = {"sdp_value": (2, False), "stieltjes_root_value": (2, True),
                       "hankel_root_value": (2, True)}
    # The array routine of each closed-form family, and whether a row of its
    # matrix stands for a distinct (sequence, alpha_1) rather than a sequence.
    _ARRAY_ROUTINES = {
        "ratio_columns": False, "det_ratio_columns": False, "quadratic_root_columns": False,
        "even_moment_columns": True, "two_point_columns": True, "bipartite_columns": True,
    }

    @pytest.mark.parametrize("vertex_mode", ["aggregate", "all"])
    @pytest.mark.parametrize("spec", _TWIN_SPECS)
    def test_each_value_routine_runs_once_per_distinct_measure(self, monkeypatch, spec,
                                                               vertex_mode):
        # twins share every outcome: a lower column evaluates each distinct
        # sequence once, an upper one each distinct (sequence, alpha_1), and
        # an array routine, called once, gets one matrix row for each, with
        # the measures stacked in report order
        calls: dict = {}

        def counted(name, head, weighted):
            fn = getattr(report, name)

            def wrapper(*args, **kwargs):
                m = args[0]
                key = (m.values, args[1]) if weighted else m.values
                calls.setdefault((name, m.kind, *args[head:]), []).append(key)
                return fn(*args, **kwargs)
            monkeypatch.setattr(report, name, wrapper)

        for name, (head, weighted) in self._VALUE_ROUTINES.items():
            counted(name, head, weighted)
        arrays: dict = {}
        for name in self._ARRAY_ROUTINES:
            def recorded(*args, name=name, fn=getattr(report, name)):
                arrays.setdefault(name, []).append(args)
                return fn(*args)
            monkeypatch.setattr(report, name, recorded)
        prep = prepare_graph(CorpusEntry("g", "test", generate(spec)))
        sweep_bounds(prep, vertex_mode=vertex_mode)
        distinct = {}
        for m in (prep.walks_seq, prep.closed_seq, *prep.rooted_seqs):
            alpha1 = bounds_upper.atom_weight_for(m, prep.summary)
            distinct.setdefault((m.kind, False), set()).add(m.values)
            distinct.setdefault((m.kind, True), set()).add((m.values, alpha1))
        assert len(distinct[(KIND_CLOSED_AT, False)]) < prep.entry.graph.n
        assert {name for name, *_ in calls} == self._VALUE_ROUTINES.keys()
        for (name, kind, *_), keys in calls.items():
            expected = distinct[(kind, self._VALUE_ROUTINES[name][1])]
            assert sorted(keys) == sorted(expected), (name, kind)

        assert arrays.keys() == self._ARRAY_ROUTINES.keys()
        assert all(len(passes) == 1 for passes in arrays.values()), arrays.keys()
        moments = arrays["ratio_columns"][0][0]
        for name, weighted in self._ARRAY_ROUTINES.items():
            (args,) = arrays[name]
            if name in ("det_ratio_columns", "quadratic_root_columns"):
                # the 2x2 blocks of the ratio pass's matrix, whose rows are checked there
                blocks = bounds_lower.det_block_columns(moments, args[1])
                assert all((a == b).all() for a, b in zip(args[0], blocks)), name
                continue
            keys = [tuple(row) for row in args[0]]
            if weighted:
                keys = list(zip(keys, args[1]))
            # the rows of each measure in report order, one per distinct key
            start = 0
            for kind in (KIND_CLOSED, KIND_CLOSED_AT, KIND_WALKS):
                expected = distinct[(kind, weighted)]
                assert sorted(keys[start:start + len(expected)]) == sorted(expected), (name, kind)
                start += len(expected)
            assert start == len(keys), name

    @pytest.mark.parametrize("vertex_mode", ["aggregate", "all"])
    @pytest.mark.parametrize("spec, seed, max_length, k_max", [
        # counts past 2**63, whose 2x2 determinants would wrap in int64
        ("complete:12", 0, 20, 9),
        ("erdos_renyi:20:0.3", 16, 20, 9),
        # twins on both sides, every odd closed count zero
        ("complete_bipartite:3:5", 0, 20, 9),
    ])
    def test_closed_form_rows_match_the_kernels_on_every_measure(self, spec, seed, max_length,
                                                               k_max, vertex_mode):
        prep = prepare_graph(CorpusEntry("g", "test", generate(spec, seed)), max_length)
        rows = [r for r, _ in sweep_bounds(prep, k_max=k_max, vertex_mode=vertex_mode)
                if r.name in self._CLOSED_FORMS]
        groups: dict = {}
        for r in rows:
            groups.setdefault(self._key(r), []).append(r)
        assert len(groups) == len(rows) if vertex_mode == "aggregate" else len(groups) < len(rows)
        for key, found in groups.items():
            p = found[0].params
            seqs = {KIND_WALKS: [prep.walks_seq], KIND_CLOSED: [prep.closed_seq],
                    KIND_CLOSED_AT: prep.rooted_seqs}[p["measure"]]
            expected = [self._KERNELS[key[0]](m, bounds_upper.atom_weight_for(m, prep.summary),
                                              p, prep) for m in seqs]
            if vertex_mode == "all":
                assert found == expected, key
            else:
                assert found == [_reduce_vertex_results(expected, found[0].kind)], key

    # The public kernel of each swept family, on one sequence, its atom weight
    # and the params of a swept row, with no cutoff.
    _KERNELS = {
        "ratio": lambda m, w, p, prep: bounds_lower.ratio_lower_bound(m, p["s"], p["k"]),
        "det_ratio": lambda m, w, p, prep: bounds_lower.det_ratio_lower_bound(m, p["s"], p["k"]),
        "quadratic_root": lambda m, w, p, prep: bounds_lower.quadratic_root_lower_bound(
            m, p["s"], p["k"]),
        "sdp": lambda m, w, p, prep: bounds_lower.sdp_lower_bound(m, p["n"]),
        "even_moment": lambda m, w, p, prep: bounds_upper.even_moment_upper_bound(m, w, p["k"]),
        "two_point": lambda m, w, p, prep: bounds_upper.two_point_upper_bound(m, w, p["k"]),
        "bipartite_half": lambda m, w, p, prep: bounds_upper.bipartite_upper_bound(
            m, w, p["k"], prep.bipartite),
        "stieltjes_root": lambda m, w, p, prep: bounds_upper.stieltjes_root_upper_bound(
            m, w, p["k"]),
        "hankel_root": lambda m, w, p, prep: bounds_upper.hankel_root_upper_bound(
            m, w, p["J"]),
    }

    _CLOSED_FORMS = ("ratio", "det_ratio", "quadratic_root", "even_moment", "two_point",
                     "bipartite_half")

    @pytest.mark.parametrize("name, graph", [
        *((spec, generate(spec)) for spec in _TWIN_SPECS),
        ("complete_5", complete_graph(5)),
        ("cycle_30", cycle_graph(30)),
        # vertices 0 and 6 are isolated twins: zero atom weight, inapplicable rows
        ("isolated_0_6", Graph(7, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])),
    ])
    def test_rooted_rows_match_the_kernels_vertex_by_vertex(self, name, graph):
        prep = prepare_graph(CorpusEntry(name, "test", graph))
        weights = [bounds_upper.atom_weight_for(m, prep.summary) for m in prep.rooted_seqs]
        groups: dict = {}
        for r, _ in sweep_bounds(prep, vertex_mode="all"):
            if r.params.get("measure") == KIND_CLOSED_AT and r.name in self._KERNELS:
                groups.setdefault(self._key(r), []).append(r)
        assert groups
        aggregate = {self._key(r): r for r, _ in sweep_bounds(prep)
                     if r.params.get("measure") == KIND_CLOSED_AT and r.name in self._KERNELS}
        assert aggregate.keys() == groups.keys()
        for key, rows in groups.items():
            kernel = self._KERNELS[key[0]]
            expected = [kernel(m, w, rows[0].params, prep)
                        for m, w in zip(prep.rooted_seqs, weights)]
            assert rows == expected, key
            assert aggregate[key] == _reduce_vertex_results(expected, rows[0].kind), key

    @pytest.mark.parametrize("vertex_mode", ["aggregate", "all"])
    def test_the_hankel_tables_are_timed_with_the_first_sdp_column(self, monkeypatch,
                                                                   vertex_mode):
        built = []
        sleep_ms = 20.0

        def slow_table(m, top):
            time.sleep(sleep_ms / 1000.0)
            built.append(m.kind)
            return moments.hankel_table(m, top)
        monkeypatch.setattr(report, "hankel_table", slow_table)
        prep = prepare_graph(CorpusEntry("g", "test", generate("star:6")))
        first_order = min(report.DEFAULT_SDP_ORDERS)
        rows = [(r, ms) for r, ms in sweep_bounds(prep, vertex_mode=vertex_mode)
                if r.name == "sdp"]
        shares = [ms for _, ms in rows]
        # one table for walks and closed walks, one per class of the rooted
        assert sorted(built) == sorted([KIND_WALKS, KIND_CLOSED] + [KIND_CLOSED_AT] * 2)
        # the family's one pass over every measure and order builds them all,
        # and its records, the first column's among them, share its time evenly
        per_order = 2 + prep.entry.graph.n if vertex_mode == "all" else 3
        assert len(shares) == per_order * len(report.DEFAULT_SDP_ORDERS)
        assert sum(r.params["n"] == first_order for r, _ in rows) == per_order
        assert len(set(shares)) == 1
        assert sum(shares) >= sleep_ms * len(built) - 1e-9

    @pytest.mark.parametrize("vertex_mode", ["aggregate", "all"])
    def test_the_cutoff_restarts_at_each_measure(self, monkeypatch, vertex_mode):
        # in each column, a root family's pass runs over the stacked classes
        # of every measure in turn, in report order; in aggregate mode only a
        # class after the first of its own measure gets a cutoff, and in
        # "all" mode none does
        calls: dict = {}

        def recorded(name):
            fn = getattr(report, name)

            def wrapper(m, *args, cutoff=None):
                calls.setdefault((name, args[1:]), []).append((m.kind, cutoff))
                return fn(m, *args, cutoff=cutoff)
            monkeypatch.setattr(report, name, wrapper)

        for name in self._VALUE_ROUTINES:
            recorded(name)
        prep = prepare_graph(CorpusEntry("g", "test", generate("erdos_renyi:12:0.4", 1)))
        sweep_bounds(prep, vertex_mode=vertex_mode)
        order = [KIND_CLOSED, KIND_CLOSED_AT, KIND_WALKS]
        assert {name for name, _ in calls} == set(self._VALUE_ROUTINES)
        for key, column in calls.items():
            kinds = [kind for kind, _ in column]
            assert kinds == sorted(kinds, key=order.index) and set(kinds) == set(order), key
            for (kind, cutoff), before in zip(column, [None, *kinds]):
                if kind != before or vertex_mode == "all":
                    assert cutoff is None, (key, kind)
        cut = [cutoff for column in calls.values() for _, cutoff in column if cutoff is not None]
        assert bool(cut) == (vertex_mode == "aggregate")

    @pytest.mark.parametrize("vertex_mode", ["aggregate", "all"])
    def test_every_row_of_a_table_family_shares_one_pass_time(self, vertex_mode):
        # each of the nine table families is one timed pass over all its
        # columns and measures: every row it reports carries the same share
        prep = prepare_graph(CorpusEntry("g", "test", generate("erdos_renyi:12:0.4", 1)))
        times: dict = {}
        for r, ms in sweep_bounds(prep, vertex_mode=vertex_mode):
            times.setdefault(r.name, []).append(ms)
        assert set(self._KERNELS) <= times.keys()
        for name in self._KERNELS:
            assert len(times[name]) > 3 and len(set(times[name])) == 1, name

    @pytest.mark.parametrize("spec", ["star:6", "erdos_renyi:12:0.4"])
    def test_per_vertex_rows_share_their_column_time(self, spec):
        # one timed pass per column: its rows carry equal shares of its time
        prep = prepare_graph(CorpusEntry("g", "test", generate(spec, 1)))
        times: dict = {}
        for r, ms in sweep_bounds(prep, vertex_mode="all"):
            if r.params.get("measure") == KIND_CLOSED_AT:
                times.setdefault(self._key(r), []).append(ms)
        assert times
        for key, shares in times.items():
            assert len(shares) == prep.entry.graph.n and len(set(shares)) == 1, key

    @pytest.mark.parametrize("vertex_mode", ["aggregate", "all"])
    def test_each_index_set_is_checked_once(self, monkeypatch, vertex_mode):
        calls = []

        def counted(*args):
            calls.append(args[1:])
            return moments._validated_indices(*args)
        monkeypatch.setattr(report, "_validated_indices", counted, raising=False)
        monkeypatch.setattr(bounds_upper, "_validated_indices", counted)
        prep = prepare_graph(CorpusEntry("g", "test", generate("erdos_renyi:12:0.4", 1)))
        sweep_bounds(prep, vertex_mode=vertex_mode)
        # one check covers the walk, closed-walk and rooted columns of a J
        assert sorted(calls) == [((1, 2), 0), ((1, 2, 3), 0)]
        with pytest.raises(moments.MomentError, match="1-based"):
            sweep_bounds(prep, j_sets=((0, 1),), vertex_mode=vertex_mode)

    @pytest.mark.parametrize("vertex_mode", ["aggregate", "all"])
    def test_a_repeated_sdp_order_gives_one_column(self, vertex_mode):
        prep = prepare_graph(CorpusEntry("c", "cycle", cycle_graph(5)))

        def sdp_rows(orders):
            return [repr(r) for r, _ in sweep_bounds(prep, sdp_orders=orders,
                                                     vertex_mode=vertex_mode)
                    if r.name == "sdp"]
        once = sdp_rows([1, 2])
        assert len(once) == 2 * (3 if vertex_mode == "aggregate" else 2 + prep.entry.graph.n)
        assert sdp_rows([1, 1, 2]) == once
        assert sdp_rows([2, 1, 2, 1]) == once

    @pytest.mark.parametrize("vertex_mode", ["aggregate", "all"])
    def test_index_sets_with_equal_positions_give_one_column(self, vertex_mode):
        # (2, 1) and (1, 1, 2) are the positions (1, 2) again
        prep = prepare_graph(CorpusEntry("c", "cycle", cycle_graph(5)))

        def hankel_rows(j_sets):
            return [repr(r) for r, _ in sweep_bounds(prep, j_sets=j_sets, vertex_mode=vertex_mode)
                    if r.name == "hankel_root"]
        once = hankel_rows([(1, 2)])
        assert len(once) == (3 if vertex_mode == "aggregate" else 2 + prep.entry.graph.n)
        assert hankel_rows([(1, 2), (2, 1), (1, 1, 2)]) == once

    @pytest.mark.parametrize("spec, s_max, k_max, measures", [
        *(pytest.param(spec, s_max, k_max, report.MEASURES, id=f"{spec}-{s_max}-{k_max}")
          for spec, s_max, k_max in (
              ("erdos_renyi:15:0.3", 3, 4), ("erdos_renyi:15:0.3", 0, 2),
              ("erdos_renyi:15:0.3", 0, 0), ("complete_bipartite:3:4", 1, 1), ("star:6", 3, 4))),
        ("erdos_renyi:15:0.3", 3, 4, ("vertex",)), ("star:6", 0, 1, ("closed", "vertex"))])
    def test_labelled_rows_equal_their_kernels(self, spec, s_max, k_max, measures):
        # a sweep's labelled rows read the swept cells they label, or
        # evaluate the columns it did not sweep; the kernels called alone
        # evaluate every cell themselves; each needs its measure swept
        prep = prepare_graph(CorpusEntry("g", "test", generate(spec, 2)))
        rooted = prep.rooted_seqs
        kernels = {"closed": [bounds_lower.triangle_edge_lower_bound(prep.closed_seq)],
                   "vertex": [bounds_lower.local_triangle_lower_bound(rooted),
                              bounds_lower.sqrt_max_degree_lower_bound(rooted),
                              bounds_upper.eigvec_degree_upper_bound(rooted, prep.summary)],
                   "walks": bounds_lower.baseline_lower_bounds(prep.walks_seq)}
        names = {r.name for rows in kernels.values() for r in rows}
        expected = [r for m in measures for r in kernels[m]]
        rows = [r for r, _ in sweep_bounds(prep, s_max, k_max, measures=measures)
                if r.name in names]
        assert sorted(map(repr, rows)) == sorted(map(repr, expected))

    @pytest.mark.parametrize("measures", [("vertex",), ("vertex", "closed")])
    def test_sqrt_max_degree_needs_only_the_vertex_measure(self, measures):
        prep = prepare_graph(CorpusEntry("g", "test", generate("erdos_renyi:15:0.3", 2)))

        def sqrt_rows(**kwargs):
            return [repr(r) for r, _ in sweep_bounds(prep, **kwargs)
                    if r.name == "baseline_sqrt_max_degree"]
        full = sqrt_rows()
        assert len(full) == 1
        assert sqrt_rows(measures=measures) == full
        assert sqrt_rows(measures=("walks", "closed")) == []

    @pytest.mark.parametrize("kwargs", [
        {"measures": ("walk",)}, {"measures": "closed"}, {"measures": "vertex"},
        {"measures": ("walks", "closed_walks")}, {"vertex_mode": "bogus"},
        {"vertex_mode": "per-vertex"}])
    def test_unknown_measures_and_vertex_modes_raise(self, kwargs):
        prep = prepare_graph(CorpusEntry("c", "cycle", cycle_graph(5)))
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            sweep_bounds(prep, **kwargs)

    @pytest.mark.parametrize("vertex_mode", ["aggregate", "all"])
    @pytest.mark.parametrize("j_set, message", [((0, 50), "1-based"), ((), "empty index set")])
    def test_every_index_set_is_checked_beyond_the_horizon(self, vertex_mode, j_set, message):
        prep = prepare_graph(CorpusEntry("c", "cycle", cycle_graph(5)))
        with pytest.raises(moments.MomentError, match=message):
            sweep_bounds(prep, j_sets=[(1, 2), j_set], vertex_mode=vertex_mode)
        # a valid J beyond the horizon is still skipped
        rows = [repr(r) for r, _ in sweep_bounds(prep, vertex_mode=vertex_mode)]
        assert [repr(r) for r, _ in sweep_bounds(
            prep, j_sets=[*report.DEFAULT_J_SETS, (1, 50)], vertex_mode=vertex_mode)] == rows

    @pytest.mark.parametrize("spec, seed", [("erdos_renyi:60:0.1", 3), ("cycle:60", 0)])
    def test_aggregate_mode_builds_only_the_reported_rooted_rows(self, monkeypatch, spec, seed):
        built = []
        init = BoundResult.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)
        prep = prepare_graph(CorpusEntry("g", "test", generate(spec, seed)))
        monkeypatch.setattr(BoundResult, "__init__", counted)
        rows = [r for r, _ in sweep_bounds(prep)]

        def rooted(results):
            return [r for r in results if r.params.get("measure") == KIND_CLOSED_AT]
        assert rooted(rows)
        assert sorted(map(id, rooted(built))) == sorted(map(id, rooted(rows)))

    def test_losing_vertices_get_no_root_search(self, monkeypatch):
        calls = []

        def counted(coeffs):
            calls.append(coeffs)
            return roots.largest_real_root_bracket(coeffs)

        def counted_three_terms(*terms):
            calls.append(terms)
            return roots.three_term_root_bracket(*terms)
        monkeypatch.setattr(bounds_lower, "largest_real_root_bracket", counted)
        monkeypatch.setattr(bounds_upper, "largest_real_root_bracket", counted)
        monkeypatch.setattr(bounds_upper, "three_term_root_bracket", counted_three_terms)
        prep = prepare_graph(CorpusEntry("er", "erdos_renyi", generate("erdos_renyi:60:0.1", 3)))
        sweep_bounds(prep)
        # a root search per vertex and root-based row would be 625
        assert len(calls) <= 100

    def test_identical_roots_get_one_bracket(self, monkeypatch):
        # the cutoff one float past the running best rules out every vertex
        # whose root equals the best exactly: C_120 brackets 486 sdp vertices
        # with a cutoff at the best itself
        calls = []

        def counted(coeffs):
            calls.append(coeffs)
            return roots.largest_real_root_bracket(coeffs)
        monkeypatch.setattr(bounds_lower, "largest_real_root_bracket", counted)
        sweep_bounds(prepare_graph(CorpusEntry("c", "cycle", cycle_graph(120)), omega=2))
        assert len(calls) <= 12

    @pytest.mark.parametrize("spec", ["cycle:12", "complete:5", "complete_bipartite:3:4",
                                      "star:6", "erdos_renyi:12:0.4"])
    def test_cutoff_rules_out_exactly_the_values_no_better(self, spec):
        # at u = v and its float neighbours, v the value without a cutoff, the
        # row is ruled out exactly when v < u (lower) or v > u (upper)
        prep = prepare_graph(CorpusEntry("g", "test", generate(spec, 1)))
        families = [("lower", bounds_lower.sdp_value, order) for order in (1, 2)]
        families += [("upper", bounds_upper.stieltjes_root_value, k) for k in (1, 2, 3, 4)]
        families += [("upper", bounds_upper.hankel_root_value, j) for j in ((1, 2), (1, 2, 3))]
        checked = 0
        for m in (prep.walks_seq, prep.closed_seq, *prep.rooted_seqs):
            weight = bounds_upper.atom_weight_for(m, prep.summary)
            table = moments.hankel_table(m, 2)  # one table serves both sdp orders
            for kind, value, arg in families:
                args = (m, table, arg) if kind == "lower" else (m, weight, arg)
                v = value(*args)
                if isinstance(v, Dead) or v <= 0.0:
                    continue
                for u in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)):
                    out = value(*args, cutoff=u)
                    if v < u if kind == "lower" else v > u:
                        assert isinstance(out, Dead), (m, value, arg, u)
                    else:
                        assert out == v, (m, value, arg, u)
                checked += 1
        assert checked > 0


def _sort_key(r: BoundResult) -> tuple:
    """The reference report order of one row: `sweep_bounds` returns its
    rows with these keys non-decreasing, and equal keys in the order they
    were evaluated."""
    p = r.params
    return (r.kind, r.name, str(p.get("measure", "")), p.get("vertex", -1), p.get("s", -1),
            p.get("k", -1), p.get("n", -1), str(p.get("J", "")), p.get("omega", -1))


@functools.cache
def _prepared_for_order(spec: str, max_length: int):
    return prepare_graph(CorpusEntry(spec, "test", generate(spec, 1732)), max_length)


class TestReportOrder:
    """`sweep_bounds` builds its rows in report order, rather than sorting them."""

    @settings(max_examples=60, deadline=None)
    @given(spec=st.sampled_from(["path:4", "star:5", "cycle:6", "complete_bipartite:2:3",
                                 # at seed 1732, disconnected: vertices 3, 6 and 10 are isolated
                                 "erdos_renyi:12:0.15"]),
           max_length=st.integers(0, 20), s_max=st.integers(0, 4), k_max=st.integers(0, 7),
           j_sets=st.lists(st.lists(st.sampled_from([1, 2, 3, 10]), min_size=1,
                                    max_size=4).map(tuple), max_size=4),
           sdp_orders=st.lists(st.integers(0, 4), max_size=4),
           measures=st.lists(st.sampled_from(report.MEASURES), unique=True),
           with_omega=st.booleans(), vertex_mode=st.sampled_from(["aggregate", "all"]))
    @example(spec="erdos_renyi:12:0.15", max_length=20, s_max=3, k_max=7,
             j_sets=[(1, 2, 10), (1, 2, 3), (2, 1), (1, 2, 10), (1, 2)],
             sdp_orders=[3, 0, 2, 3], measures=list(report.MEASURES), with_omega=True,
             vertex_mode="all")
    @example(spec="erdos_renyi:12:0.15", max_length=20, s_max=3, k_max=7,
             j_sets=[(1, 2, 10), (1, 2, 3), (2, 1), (1, 2, 10), (1, 2)],
             sdp_orders=[3, 0, 2, 3], measures=list(report.MEASURES), with_omega=False,
             vertex_mode="aggregate")
    def test_the_rows_equal_their_own_stable_sort(self, spec, max_length, s_max, k_max,
                                                  j_sets, sdp_orders, measures, with_omega,
                                                  vertex_mode):
        prep = _prepared_for_order(spec, max_length)
        if not with_omega:
            prep = dataclasses.replace(prep, omega=None)
        rows = [r for r, _ in sweep_bounds(prep, s_max, k_max, j_sets, sdp_orders, measures,
                                           vertex_mode)]
        ordered = sorted(rows, key=_sort_key)
        assert all(a is b for a, b in zip(rows, ordered)), [
            (_sort_key(a), _sort_key(b)) for a, b in zip(rows, ordered) if a is not b][:3]


def _bounds_json(capsys, *argv) -> tuple[int, dict]:
    code = main(["bounds", *argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


class TestRootFinding:
    """Graphs on which the float root scan crashed or returned roots below rho."""

    def test_hankel_root_not_below_rho(self, capsys):
        code, doc = _bounds_json(capsys, "--gen", "erdos_renyi:16:0.5", "--seed", "912792483")
        assert code == 0
        rows = [b for b in doc["bounds"] if b["name"] == "hankel_root" and b["applicable"]]
        assert rows
        assert all(b["value"] >= doc["rho_exact"] for b in rows)

    @pytest.mark.parametrize("spec, seed", [("erdos_renyi:16:0.5", "3"),
                                            ("erdos_renyi:20:0.3", "4")])
    @pytest.mark.parametrize("j_set", ["9,10", "1,2,3,4,5"])
    def test_deep_and_wide_index_sets(self, capsys, spec, seed, j_set):
        code, doc = _bounds_json(capsys, "--gen", spec, "--seed", seed, "--K", "20",
                                 "--J", j_set)
        assert code == 0 and doc["violations"] == []

    def test_deep_k_max(self, capsys):
        code, doc = _bounds_json(capsys, "--gen", "erdos_renyi:16:0.5", "--seed", "9",
                                 "--K", "20", "--k-max", "9")
        assert code == 0 and doc["violations"] == []

    @pytest.mark.parametrize("argv", [
        ("--gen", "star:60", "--omega", "2"),
        ("--gen", "cycle:120", "--omega", "2"),
        ("--gen", "erdos_renyi:30:0.3", "--seed", "1"),
        ("--gen", "erdos_renyi:60:0.3", "--seed", "1"),
        ("--gen", "erdos_renyi:120:0.3", "--seed", "1"),
    ])
    def test_ladder_graphs_keep_the_sandwich(self, capsys, argv):
        code, doc = _bounds_json(capsys, *argv)
        assert code == 0 and doc["violations"] == []
        rho = doc["rho_exact"]
        live = [b for b in doc["bounds"] if b["applicable"]]
        assert any(b["name"] == "hankel_root" for b in live)
        for b in live:
            if b["kind"] == "lower":
                assert b["value"] <= rho * (1 + 1e-12)
            else:
                assert b["value"] >= rho * (1 - 1e-12)
