"""pergraph benchmark: three workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bands-deep --seed 1 --seconds 60 --trace 0

One client runs a closed loop for --seconds: each operation starts when the
previous one has finished, on a fresh potential drawn from the seed. After
the loop every output is checked against an independent reference
(reference.py); a disagreement, an exception or an unexpected exit code
counts as a failed operation.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same loop with
the span recorder of spans.py installed and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Workloads, metrics and the layer
each metric belongs to are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import spans
from worker import WORKLOADS, write_json

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 7  # fresh interpreters per run; setup_s is their median
# op_tail_s is the highest of these percentiles that has at least
# TAIL_BEYOND samples above it, else the median.
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("grid_points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: those of one operation are medians over the traced
# operations, those of set-up are medians over the traced set-ups.
OP_LAYER = (
    ("fiber_linalg.eigen_batch_s", "s"),
    ("fiber_linalg.eigen_batch_calls", "count"),
    ("fiber_linalg.eigen_batch_matrices", "count"),
    ("fiber_linalg.fiber_bytes", "B"),
    ("fiber_linalg.eigen_scalar_s", "s"),
    ("fiber_linalg.eigen_scalar_calls", "count"),
    ("fiber_linalg.assemble_scalar_s", "s"),
    ("fiber_linalg.assemble_scalar_calls", "count"),
    ("band_analysis.sweeps", "count"),
    ("band_analysis.sweep_s", "s"),
    ("band_analysis.table_bytes", "B"),
    ("band_analysis.sweep_self_s", "s"),
    ("band_analysis.reduce_self_s", "s"),
    ("band_analysis.effective_mass_s", "s"),
    ("band_analysis.threads_seen", "count"),
    ("estimates.report_self_s", "s"),
    ("estimates.measure_bound_s", "s"),
    ("estimates.gap_sum_s", "s"),
    ("estimates.first_band_s", "s"),
    ("estimates.effective_mass_bound_s", "s"),
    ("estimates.loop_graph_s", "s"),
    ("estimates.bipartite_s", "s"),
    ("estimates.perron_s", "s"),
    ("cli_io.main_s", "s"),
    ("cli_io.main_self_s", "s"),
)
SETUP_LAYER = (
    ("graph_core.busy_s", "s"),
    ("catalog.generate_s", "s"),
    ("cli_io.read_s", "s"),
)
TRACE_QUALITY = (
    ("trace.overhead_frac", "1"),
    ("trace.coverage_frac", "1"),
)
PER_LAYER = OP_LAYER + SETUP_LAYER + TRACE_QUALITY


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, cwd: Path, log: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run argv to completion; return (exit code, wall seconds, max RSS in KiB)."""
    with open(log, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv],
            cwd=cwd,
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _log_tail(log: Path) -> str:
    return log.read_text(errors="replace")[-2000:]


def _worker(mode: str, *args) -> list:
    return [sys.executable, BENCH / "worker.py", mode, *args]


def run_setups(name: str, graph_path: Path, trace: bool, work: Path) -> list[dict]:
    """SETUPS fresh interpreters that import pergraph and build the graph."""
    workload = WORKLOADS[name]
    expected = len(reference.FAMILIES[workload.family](**workload.params).vertices)
    results = []
    for i in range(SETUPS):
        out, log = work / f"setup{i}.json", work / f"setup{i}.log"
        argv = _worker(
            "setup", "--workload", name, "--graph", graph_path, "--out", out
        )
        code, wall, _ = run_child(argv + (["--trace"] if trace else []), work, log)
        if code != 0:
            raise BenchError(f"set-up exited with {code}:\n{_log_tail(log)}")
        result = json.loads(out.read_text())
        if not Path(result["module"]).is_relative_to(ROOT / "src"):
            raise BenchError(f"set-up imported pergraph from {result['module']}")
        if result["order"] != expected or result["problems"]:
            raise BenchError(f"set-up built a wrong graph: {result}")
        result["wall_s"] = wall
        results.append(result)
    return results


def run_bands_loop(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    out, log = work / "bands.json", work / "bands.log"
    argv = _worker(
        "bands", "--workload", name, "--seed", seed, "--seconds", seconds, "--out", out
    )
    code, _, _ = run_child(
        argv + (["--trace"] if trace else []), work, log, seconds + CHILD_TIMEOUT_S
    )
    if code != 0:
        raise BenchError(f"band loop exited with {code}:\n{_log_tail(log)}")
    result = json.loads(out.read_text())
    by_id = result["vertex_ids"]
    for op in result["ops"]:
        op["q"] = dict(zip(by_id, op["q"]))
    return result


def run_cli_loop(
    name: str, seed: int, seconds: float, trace: bool, work: Path, graph_path: Path
) -> dict:
    """One `pergraph report` process per operation, each on a new potential."""
    workload = WORKLOADS[name]
    graph = reference.FAMILIES[workload.family](**workload.params)
    rng = np.random.default_rng(seed)
    ops = []
    maxrss = 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        i = len(ops)
        q = dict(zip(graph.vertices, rng.uniform(-1.0, 1.0, len(graph.vertices))))
        q_path, report_path = work / f"q{i}.json", work / f"report{i}.json"
        write_json(q_path, {str(v): x for v, x in q.items()})
        report = [
            "report", graph_path, "-q", q_path,
            "-k", workload.points_per_axis, "--json", report_path,
        ]
        if trace:
            argv = _worker("cli", "--out", work / f"spans{i}.json", "--", *report)
        else:
            argv = [sys.executable, "-m", "pergraph.cli_io", *report]
        code, wall, rss = run_child(argv, work, work / f"op{i}.log")
        maxrss = max(maxrss, rss)
        ops.append({"seconds": wall, "q": q, "code": code, "report": report_path})
        if perf_counter() >= deadline:
            break
    loop_s = perf_counter() - start
    for i, op in enumerate(ops):
        op["report"] = _load_json(op["report"])
        if trace:
            op.update(_load_json(work / f"spans{i}.json") or {})
    return {"ops": ops, "loop_s": loop_s, "maxrss_kb": maxrss}


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def failures(name: str, ops: list[dict], shift: float = 0.0) -> list[bool]:
    """Per operation: True when it raised, exited badly or missed the reference.

    shift is added to every reference value; the benchmark's own tests use
    it to show that a disagreement of 1e-6 is caught.
    """
    return [reason is not None for reason in failure_reasons(name, ops, shift)]


def failure_reasons(name: str, ops: list[dict], shift: float = 0.0) -> list[str | None]:
    """Per operation: None when it is correct, else why it failed."""
    workload = WORKLOADS[name]
    graph = reference.FAMILIES[workload.family](**workload.params)
    two_zeta = reference.two_zeta(graph) + shift
    result = []
    for op in ops:
        q = np.array([op["q"][v] for v in graph.vertices])
        if workload.family == "lattice":
            lo, hi = reference.lattice_band_edges(q)
        else:
            lo, hi = reference.band_edges(graph, q, workload.points_per_axis)
        lo, hi = lo + shift, hi + shift
        if workload.kind == "bands":
            if op["error"] is not None:
                reason = f"raised {op['error']}"
            elif not reference.bands_agree(op, lo, hi):
                reason = "bands or union disagree with the reference"
            else:
                reason = None
        else:
            reason = _report_disagreement(op["report"], lo, hi, two_zeta)
            if op["code"] != 0:
                reason = f"exit code {op['code']}" + (f"; {reason}" if reason else "")
        result.append(reason)
    return result


def _report_disagreement(report, lo, hi, two_zeta: float) -> str | None:
    """Report JSON check; a missing or malformed field is a disagreement."""
    try:
        false = sorted(k for k, v in report["verdicts"].items() if v not in (True, None))
        if false:
            return "verdict not true: " + ", ".join(false)
        if abs(report["two_zeta"] - two_zeta) > reference.TOL:
            return "two_zeta disagrees with the reference"
        observed = {
            "bands": [
                [b["lambda_min"], b["lambda_max"], b["flat"]]
                for b in report["bands"]["bands"]
            ],
            "components": report["union"],
        }
        if not reference.bands_agree(observed, lo, hi):
            return "bands or union disagree with the reference"
        return None
    except (KeyError, TypeError, ValueError, AttributeError):
        return "report missing or malformed"


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set-ups plus the timed loop; returns the raw measurements."""
    workload = WORKLOADS[name]
    graph_path = work / "graph.json"
    graph = reference.FAMILIES[workload.family](**workload.params)
    write_json(graph_path, graph.payload())
    setups = run_setups(name, graph_path, trace, work)
    if workload.kind == "bands":
        loop = run_bands_loop(name, seed, seconds, trace, work)
    else:
        loop = run_cli_loop(name, seed, seconds, trace, work, graph_path)
    loop["setups"] = setups
    return loop


def end_to_end(name: str, run: dict) -> tuple[dict, list[str]]:
    """End-to-end metric values and the note printed beside each."""
    workload = WORKLOADS[name]
    times = sorted(op["seconds"] for op in run["ops"])
    n = len(times)
    tail_pct, tail_s = 50.0, statistics.median(times)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)  # nearest rank
        if n - rank >= TAIL_BEYOND:
            tail_pct, tail_s = pct, times[rank - 1]
            break
    values = {
        "setup_s": statistics.median(s["wall_s"] for s in run["setups"]),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "grid_points_per_s": n * workload.grid_points / run["loop_s"],
        "peak_rss_mb": run["maxrss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(run['setups'])} fresh interpreters",
        "op_p50_s": f"median of {n} operations",
        "op_tail_s": (
            f"p{tail_pct:g}: {sum(t > tail_s for t in times)} of {n} "
            "operations took longer"
        ),
        "grid_points_per_s": f"{n} x {workload.grid_points} points in {run['loop_s']:.3f} s",
        "peak_rss_mb": "max RSS of the process doing the work",
    }
    lines = [
        f"{key:<20} {values[key]:<14.6g} {unit:<6} {notes[key]}"
        for key, unit in END_TO_END
    ]
    return values, lines


def per_layer(name: str, run: dict) -> tuple[dict, list[str]]:
    ops = [op for op in run["ops"] if op.get("layers")]
    setups = [s["layers"] for s in run["setups"]]
    if not ops:
        raise BenchError("no traced operation returned its spans")
    values = {
        key: statistics.median(op["layers"][key] for op in ops) for key, _ in OP_LAYER
    }
    values["band_analysis.threads_seen"] = max(
        op["layers"]["band_analysis.threads_seen"] for op in ops
    )
    for key, _ in SETUP_LAYER:
        values[key] = statistics.median(s[key] for s in setups)
    # An operation of a CLI workload includes starting an interpreter and
    # importing pergraph: the part of set-up spent outside traced calls.
    startup = 0.0
    if WORKLOADS[name].kind == "cli":
        startup = statistics.median(
            s["wall_s"] - s["layers"]["covered_s"] for s in run["setups"]
        )
    op_s = statistics.median(op["seconds"] for op in ops)
    values["trace.overhead_frac"] = (
        statistics.median(op["layers"]["spans"] for op in ops)
        * spans.calibrate()
        / op_s
    )
    values["trace.coverage_frac"] = statistics.median(
        (op["layers"]["covered_s"] + startup) / op["seconds"] for op in ops
    )
    absent = sorted({a for item in [*ops, *run["setups"]] for a in item.get("absent", ())})
    lines = [f"{key:<40} {values[key]:<14.6g} {unit}" for key, unit in PER_LAYER]
    lines.append(f"traced operations: {len(ops)}, median {op_s:.6g} s each")
    lines.append("absent: " + (", ".join(absent) if absent else "none"))
    return values, lines


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _linalg_libraries() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {
        kind: f"{deps[kind].get('name')} {deps[kind].get('version')}"
        for kind in ("blas", "lapack")
        if kind in deps
    }


def provenance(seed: int) -> dict:
    commit = _git("rev-parse", "HEAD")
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_linalg_libraries(),
        "PERGRAPH_THREADS": os.environ.get("PERGRAPH_THREADS"),
        "git_commit": commit,
        "git_dirty": None if commit is None else bool(_git("status", "--porcelain")),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pergraph" / "__init__.py").is_file():
        print(f"error: no pergraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        reasons = failure_reasons(args.workload, run["ops"])
        failed = sum(reason is not None for reason in reasons)
        if args.trace:
            values, lines = per_layer(args.workload, run)
            units = dict(PER_LAYER)
        else:
            values, lines = end_to_end(args.workload, run)
            units = dict(END_TO_END)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = len(run["ops"])
    for i, reason in enumerate(reasons):
        if reason is not None:
            q = [float(run["ops"][i]["q"][v]) for v in sorted(run["ops"][i]["q"])]
            print(f"operation {i} failed: {reason}; q = {q!r}", file=sys.stderr)
    lines.append(
        f"{'failed_frac':<20} {failed / attempted:<14.6g} {'1':<6} "
        f"{failed} of {attempted} operations failed"
    )
    print(
        f"workload {args.workload}: {workload.family} {workload.params}, "
        f"K={workload.points_per_axis} ({workload.grid_points} grid points), "
        f"closed loop, 1 client, {args.seconds:g} s"
        + (", traced" if args.trace else "")
    )
    print("provenance " + json.dumps(provenance(args.seed)))
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": units[key]}
                    for key, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
