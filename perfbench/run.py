"""swbounds benchmark: closed-loop graph workloads timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify_small --seed 1 --seconds 30 --trace 0

One client, one graph at a time, in this single process with BLAS/OpenMP
pinned to one thread. A run repeats whole passes over the workload's seeded
corpus while the next pass is expected to end within `--seconds` (at least
one pass). A workload's probes, fixed graphs on which the current code is
known to fail, run once before the loop, untimed. Every output is checked
against an independent oracle. With
`--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics; the full result, environment and failure
list go to `perfbench/out/`. See perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 31
# About the median reference_seconds() on the 2-core VM the first
# baselines were taken on; time metrics are reported at this host speed.
REFERENCE_NOMINAL_S = 0.020
GAP_FLOOR = 5e-3

# Metric names and units are declared once, in BENCHMARK.json.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# Reported with the declared metrics but not gated. The failure and error
# shares are 0 on a healthy workload; the gap medians sit at tight bounds.
REPORTED = {"failed_frac": "ratio", "wrong_frac": "ratio",
            "lower_gap_median": "ratio", "upper_gap_median": "ratio"}


@functools.cache
def load_program() -> float:
    """Put this checkout's src/ first on the import path and import numpy.

    Returns the seconds numpy's import took. Exits non-zero when the sources
    are missing or swbounds resolves to another copy.
    """
    src = ROOT / "src"
    if not (src / "swbounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no swbounds sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401
    elapsed = time.perf_counter() - start
    import swbounds
    if Path(swbounds.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: swbounds imported from {swbounds.__file__}, not {src}")
    return elapsed


def import_swbounds() -> None:
    """A fresh import of the package (numpy stays imported)."""
    for name in [m for m in sys.modules if m == "swbounds" or m.startswith("swbounds.")]:
        del sys.modules[name]
    import swbounds.cli  # noqa: F401


def reference_seconds() -> float:
    """Time of a fixed piece of work of the same kind as the program's hot loops.

    Tiny numpy slices and norms, float math and small sets, 10-20 ms. It
    never calls swbounds, so its time tracks only the host's current speed,
    which on a shared machine drifts by tens of percent within seconds.
    """
    import numpy

    start = time.perf_counter()

    a = numpy.arange(9.0).reshape(3, 3)
    acc = 0.0
    for i in range(1500):
        col = a[:, i % 3].copy()
        a[:, (i + 1) % 3] = 0.5 * col + 0.25 * a[:, (i + 1) % 3]
        acc += float(numpy.linalg.norm(a))
        acc += math.sqrt(len({j * i % 97 for j in range(30)}) + i)
    return time.perf_counter() - start


@dataclass
class Visit:
    item: int
    seconds: float
    exit_code: Optional[int]        # None when the call raised
    error: Optional[str]            # exception class of a failed call
    problems: list
    slowdown: float = 1.0           # host speed during the call, relative to nominal

    @property
    def completed(self) -> bool:
        return self.exit_code == 0


class Recorder:
    """Keeps what the program drops on its way out, while installed.

    `cli.main` turns numerical failures into exit code 2 and drops the
    exception; the recorder keeps the class of one leaving
    `swbounds.cli.cmd_bounds`. `run_verification` reduces the bounds it
    evaluates to worst margins; the recorder keeps the rows that
    `swbounds.report.sweep_bounds` returned, so the gaps can leave out the
    oracle-assisted bounds.
    """

    def __init__(self, cli, report) -> None:
        self.exception: Optional[str] = None
        self.rows: Optional[list] = None
        self._patches = [(cli, "cmd_bounds", cli.cmd_bounds),
                         (report, "sweep_bounds", report.sweep_bounds)]
        cmd_bounds, sweep_bounds = cli.cmd_bounds, report.sweep_bounds

        def recording_cmd_bounds(args):
            try:
                return cmd_bounds(args)
            except Exception as exc:
                self.exception = type(exc).__name__
                raise

        def recording_sweep_bounds(*args, **kwargs):
            self.rows = sweep_bounds(*args, **kwargs)
            return self.rows

        cli.cmd_bounds = recording_cmd_bounds
        report.sweep_bounds = recording_sweep_bounds

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in self._patches:
            setattr(module, attr, value)


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def setup(workload, seed: int, edge_dir: Path, max_graphs: Optional[int]):
    """Import swbounds afresh and build the corpus, SETUP_REPEATS times.

    Returns the last build (graphs and probes) and the median seconds of one
    import plus build, host-corrected like the graph calls, and as measured.
    """
    import corpus

    raw, corrected = [], []
    built = ([], [])
    samples = [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(edge_dir, ignore_errors=True)
        edge_dir.mkdir(parents=True)
        start = time.perf_counter()
        import_swbounds()
        built = corpus.build(workload, seed, edge_dir, max_graphs)
        raw.append(time.perf_counter() - start)
        samples.append(reference_seconds())
        corrected.append(raw[-1] * 2 * REFERENCE_NOMINAL_S / (samples[-2] + samples[-1]))
    return built, statistics.median(corrected), statistics.median(raw)


class Runner:
    """Closed loop over one workload's graphs, checking every output.

    `items` holds the timed graphs first, then the probes.
    """

    def __init__(self, workload, graphs, probes) -> None:
        import oracle
        import swbounds.cli
        import swbounds.report
        from swbounds.spectrum import eigen_decompose

        self.workload = workload
        self.items = graphs + probes
        self.timed = range(len(graphs))
        self.probes = range(len(graphs), len(self.items))
        self.cli = swbounds.cli
        self.report = swbounds.report
        self.rho = [oracle.spectral_radius(it.graph.n, it.graph.edges) for it in self.items]
        # run_verification reports margins against its own rho; it is computed
        # here, before any tracing, so the oracle adds nothing to the spans.
        self.program_rho = ([] if workload.uses_cli else
                            [float(eigen_decompose(it.graph).rho) for it in self.items])
        self.gaps: dict[int, tuple] = {}

    def visit(self, index: int, recorder: Recorder) -> Visit:
        if self.workload.uses_cli:
            return self._visit_cli(index, recorder)
        return self._visit_verify(index, recorder)

    def _visit_cli(self, index: int, recorder: Recorder) -> Visit:
        import oracle

        item = self.items[index]
        out, err = io.StringIO(), io.StringIO()
        recorder.exception = None
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(item.argv))
        except Exception as exc:  # any escape is a failed graph, recorded below
            code, error = None, type(exc).__name__
        seconds = time.perf_counter() - start
        if code != 0:
            return self._failed(index, seconds, code, error or recorder.exception)
        try:
            doc = self.parse_report(out.getvalue())
            problems = oracle.check_report(doc, item.graph.n, item.graph.edge_count,
                                           self.rho[index])
            bounds = doc["bounds"]
        except (ValueError, KeyError, TypeError) as exc:
            problems, bounds = [f"unreadable report: {exc!r}"], []
        if index not in self.gaps:
            self._set_gaps(index, *oracle.best_bounds(bounds))
        return Visit(index, seconds, 0, None, problems)

    def _set_gaps(self, index: int, lower: Optional[float], upper: Optional[float]) -> None:
        """A missing bound is replaced by the trivial one: 0 <= rho <= max degree."""
        import oracle

        max_degree = max(len(nb) for nb in self.items[index].graph.neighbors)
        lower = 0.0 if lower is None else lower
        upper = float(max_degree) if upper is None else upper
        self.gaps[index] = oracle.gaps(lower, upper, self.rho[index])

    def _failed(self, index: int, seconds: float, code: Optional[int],
                error: Optional[str]) -> Visit:
        """A failed graph is left with the trivial bounds."""
        self._set_gaps(index, None, None)
        return Visit(index, seconds, code, error, [])

    @staticmethod
    def parse_report(text: str) -> dict:
        return json.loads(text)

    def verify(self, entry):
        return self.report.run_verification([entry])

    def _visit_verify(self, index: int, recorder: Recorder) -> Visit:
        import oracle

        entry = self.items[index].entry()
        recorder.rows = None
        start = time.perf_counter()
        try:
            outcome = self.verify(entry)
        except Exception as exc:  # any escape is a failed graph, recorded below
            return self._failed(index, time.perf_counter() - start, None, type(exc).__name__)
        seconds = time.perf_counter() - start
        rho, program_rho = self.rho[index], self.program_rho[index]
        problems = oracle.check_verification(outcome, program_rho, rho)
        if index not in self.gaps:
            rows = [oracle.bound_fields(r) for r, _ in recorder.rows or []]
            self._set_gaps(index, *oracle.best_bounds(rows))
        return Visit(index, seconds, 0, None, problems)

    def run_probes(self) -> list[Visit]:
        """Each probe once, untimed and untraced."""
        with Recorder(self.cli, self.report) as recorder:
            return [self.visit(index, recorder) for index in self.probes]

    def run(self, seconds: float) -> tuple[list[Visit], int]:
        """Whole passes over the timed graphs while the next one is expected
        to fit; at least one.

        A host-speed sample is taken before the first graph and after every
        graph; each call's slowdown is the mean of the samples around it.
        """
        visits: list[Visit] = []
        samples = [reference_seconds()]
        passes = 0
        with Recorder(self.cli, self.report) as recorder:
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                for index in self.timed:
                    visits.append(self.visit(index, recorder))
                    samples.append(reference_seconds())
                passes += 1
                now = time.perf_counter()
                if now - start + (now - pass_start) > seconds:
                    break
        for visit, before, after in zip(visits, samples, samples[1:]):
            visit.slowdown = (before + after) / (2 * REFERENCE_NOMINAL_S)
        return visits, passes


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def gap_mean(values: list) -> float:
    """Mean relative gap, each gap raised to GAP_FLOOR first.

    The metric guards against bounds that a change loosens or loses, also on
    a few graphs only: one graph of 46 whose gap grows from below the floor
    to 5% raises it by about a sixth, one that loses its bounds by far more.
    Below the floor (0.5%) a bound counts as tight, which keeps the
    seed-to-seed spread of the gaps of random graphs small.
    """
    values = [max(v, GAP_FLOOR) for v in values if v is not None]
    return statistics.mean(values) if values else GAP_FLOOR


def gap_median(values: list) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def host_slowdown(visits: list[Visit]) -> float:
    """Time-weighted host slowdown over the whole run (1 = nominal speed)."""
    return sum(v.seconds for v in visits) / sum(v.seconds / v.slowdown for v in visits)


def end_to_end(runner: Runner, visits: list[Visit], probe_visits: list[Visit],
               setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, plus details on the tail and the failures.

    Time metrics count the timed calls only, each graph time divided by the
    host slowdown during that call; the raw figures go into the details.
    The failure and error shares count the probes too, and the gaps cover
    the timed graphs.
    """
    completed = [v for v in visits if v.completed]
    raw_latencies = [1000.0 * v.seconds for v in completed]
    latencies = [1000.0 * v.seconds / v.slowdown for v in completed]
    raw_busy = sum(v.seconds for v in visits)
    busy = sum(v.seconds / v.slowdown for v in visits)
    checked = completed + [v for v in probe_visits if v.completed]
    wrong = [v for v in checked if v.problems]
    failed_graphs = {v.item for v in visits + probe_visits if not v.completed}
    gaps = [runner.gaps[i] for i in runner.timed if i in runner.gaps]
    pct = runner.workload.tail_percentile
    tail = percentile(latencies, pct) if latencies else 0.0
    metrics = {
        "setup_s": setup_s,
        "graphs_per_s": len(completed) / busy if busy else 0.0,
        "graph_ms_p50": statistics.median(latencies) if latencies else 0.0,
        "graph_ms_tail": tail,
        "lower_gap_mean": gap_mean([g[0] for g in gaps]),
        "upper_gap_mean": gap_mean([g[1] for g in gaps]),
        "lower_gap_median": gap_median([g[0] for g in gaps]),
        "upper_gap_median": gap_median([g[1] for g in gaps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": len(failed_graphs) / len(runner.items),
        "wrong_frac": len(wrong) / len(checked) if checked else 0.0,
    }
    rows = []
    for index, item in enumerate(runner.items):
        mine = [v for v in visits + probe_visits if v.item == index]
        failed = [v for v in mine if not v.completed]
        lower, upper = runner.gaps.get(index, (None, None))
        rows.append({
            "graph": item.name, "probe": index in runner.probes,
            "n": item.graph.n, "e": item.graph.edge_count,
            "visits": len(mine), "failed": len(failed),
            "exit_code": failed[0].exit_code if failed else 0,
            "exception": failed[0].error if failed else None,
            "median_ms": statistics.median(1000.0 * v.seconds for v in mine) if mine else None,
            "lower_gap": lower, "upper_gap": upper,
        })
    details = {
        "host": {"slowdown": host_slowdown(visits), "reference_nominal_s": REFERENCE_NOMINAL_S},
        "raw": {
            "graphs_per_s": len(completed) / raw_busy if raw_busy else 0.0,
            "graph_ms_p50": statistics.median(raw_latencies) if raw_latencies else 0.0,
            "graph_ms_tail": percentile(raw_latencies, pct) if raw_latencies else 0.0,
        },
        "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for x in latencies if x > tail),
        "latency_samples": len(latencies),
        "graphs": rows,
        "failures": sorted(({k: r[k] for k in ("graph", "probe", "exit_code", "exception",
                                                "failed")}
                            for r in rows if r["failed"]), key=lambda r: r["graph"]),
        "wrong": [{"graph": runner.items[v.item].name, "probe": v.item in runner.probes,
                   "problems": v.problems[:5]}
                  for v in wrong[:20]],
        # every call in order: [graph index, seconds, exit code, host slowdown]
        "visits": [[v.item, v.seconds, v.exit_code, v.slowdown] for v in visits],
    }
    return metrics, details


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        max_graphs: Optional[int] = None) -> dict:
    """One benchmark run; returns the full result (see README.md)."""
    numpy_import_s = load_program()
    import corpus
    import tracing

    workload = corpus.WORKLOADS[workload_name]
    edge_dir = OUT_DIR / f"edges-{workload_name}-{seed}-{os.getpid()}"
    try:
        (graphs, probes), setup_s, raw_setup_s = setup(workload, seed, edge_dir, max_graphs)
        runner = Runner(workload, graphs, probes)
        probe_visits = runner.run_probes()
        tracer = None
        if trace:
            per_call = tracing.overhead_per_call()
            tracer = tracing.Tracer()
            tracer.install()
        try:
            visits, passes = runner.run(seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(edge_dir, ignore_errors=True)

    metrics, details = end_to_end(runner, visits, probe_visits, setup_s)
    result = {
        "workload": workload_name,
        "trace": int(trace),
        "environment": environment(seed),
        "passes": passes,
        "graphs_per_pass": len(graphs),
        "probes": len(probes),
        "setup": {"numpy_import_s": numpy_import_s, "repeats": SETUP_REPEATS,
                  "raw_median_s": raw_setup_s},
        "end_to_end": metrics,
        **details,
    }
    # `attempted` and `failed` count the timed calls; the probes' failures
    # are in failed_frac and the failure list.
    correct = not any(v.problems for v in visits + probe_visits)
    attempted = len(visits)
    failed = sum(1 for v in visits if not v.completed)
    if tracer is not None:
        busy = sum(v.seconds for v in visits)
        completed = attempted - failed
        layer = tracer.metrics(attempted, busy, completed, per_call, host_slowdown(visits))
        result["per_layer"] = layer
        result["trace_overhead_per_call_s"] = per_call
        chosen = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}
    else:
        chosen = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
    result["summary"] = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['environment']['seed']}  "
          f"trace {result['trace']}  passes {result['passes']}  "
          f"graphs/pass {result['graphs_per_pass']}  probes {result['probes']}")
    units = {**END_TO_END, **REPORTED}
    for name, value in result["end_to_end"].items():
        print(f"  {name:<18} {value:>14.6g} {units[name]}")
    print(f"  tail = p{result['tail_percentile']} over {result['latency_samples']} samples, "
          f"{result['tail_samples_beyond']} beyond it")
    raw = result["raw"]
    print(f"  host slowdown {result['host']['slowdown']:.3f}; as measured: "
          f"{raw['graphs_per_s']:.4g} graphs/s, p50 {raw['graph_ms_p50']:.4g} ms, "
          f"tail {raw['graph_ms_tail']:.4g} ms")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<32} {value:>14.6g}")
    for f in result["failures"]:
        kind = "probe" if f["probe"] else "graph"
        print(f"  failed {kind}: {f['graph']} exit={f['exit_code']} {f['exception']} "
              f"x{f['failed']}")
    for w in result["wrong"]:
        print(f"  WRONG: {w['graph']}: {'; '.join(w['problems'])}")


def main(argv: Optional[list[str]] = None) -> int:
    load_program()
    import corpus

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="ascii")
    print_report(result)
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
