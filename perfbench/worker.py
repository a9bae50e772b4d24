"""Child processes of the benchmark: set-up, in-process band loops, traced CLI.

Each mode runs in a fresh interpreter whose PYTHONPATH holds only the
checkout's `src`, and writes what it measured to a JSON file named by --out.

  setup  imports pergraph and builds the workload's graph (generate and
         validate a catalog graph, or read the graph file), once
  bands  a closed loop of compute_bands + spectrum_union, one client, each
         operation on a fresh potential drawn from U(-1, 1)^nu
  cli    `pergraph.cli_io.main(argv)` with the span recorder installed

With --trace the span recorder is installed before any pergraph call.

Only the standard library is imported at module level, so the set-up time
measured around `setup` is that of importing pergraph, not of this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Workload:
    kind: str  # "bands": library calls in one process; "cli": a process per op
    family: str
    params: dict
    points_per_axis: int

    @property
    def dimension(self) -> int:
        return self.params["d"]

    @property
    def grid_points(self) -> int:
        return self.points_per_axis ** self.dimension


# Why these three: see README.md. bands-deep is eigensolver-bound,
# bands-dense is assembly- and memory-bound, report-cli repeats sweeps and
# runs the estimates and the JSON I/O.
WORKLOADS = {
    "bands-deep": Workload("bands", "subdivided", {"d": 3, "n": 4}, 12),
    "bands-dense": Workload("bands", "lattice", {"d": 3}, 96),
    "report-cli": Workload("cli", "star_decorated", {"d": 2, "nu": 8}, 32),
}


def _recorder():
    from spans import Recorder

    recorder = Recorder()
    recorder.install()
    return recorder


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def run_setup(workload: Workload, graph_path: str, trace: bool, out: str) -> int:
    recorder = _recorder() if trace else None
    import pergraph

    if workload.kind == "bands":
        graph = pergraph.generate(workload.family, **workload.params)
        problems = pergraph.validate(graph)
    else:
        import pergraph.cli_io

        graph = pergraph.cli_io.read_graph(graph_path).graph
        problems = []
    payload = {"order": graph.order, "problems": problems, "module": pergraph.__file__}
    if recorder is not None:
        from spans import setup_metrics

        payload["layers"] = setup_metrics(recorder.spans)
        payload["absent"] = recorder.absent
    write_json(out, payload)
    return 0


def run_bands(workload: Workload, seed: int, seconds: float, trace: bool, out: str) -> int:
    recorder = _recorder() if trace else None
    import numpy as np
    import pergraph

    if recorder is not None:
        from spans import op_metrics

    graph = pergraph.generate(workload.family, **workload.params)
    grid = pergraph.BZGrid(workload.dimension, workload.points_per_axis)
    rng = np.random.default_rng(seed)
    ops = []
    start = perf_counter()
    deadline = start + seconds
    while True:
        q = rng.uniform(-1.0, 1.0, graph.order)
        if recorder is not None:
            recorder.spans.clear()
        t0 = perf_counter()
        try:
            structure = pergraph.compute_bands(graph, q, grid)
            union = pergraph.spectrum_union(structure)
            error = None
        except Exception as err:  # a raising operation is a failed operation
            error = repr(err)
        t1 = perf_counter()
        op = {"seconds": t1 - t0, "q": q.tolist(), "error": error}
        if error is None:
            op["bands"] = [
                [b.lambda_min, b.lambda_max, b.flat] for b in structure.bands
            ]
            op["components"] = [list(c) for c in union.components]
        if recorder is not None:
            op["layers"] = op_metrics(recorder.spans)
        ops.append(op)
        if t1 >= deadline:
            break
    payload = {
        "ops": ops,
        "loop_s": t1 - start,
        "vertex_ids": list(graph.vertex_ids),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        payload["absent"] = recorder.absent
    write_json(out, payload)
    return 0


def run_cli(argv: list[str], out: str) -> int:
    recorder = _recorder()
    import pergraph.cli_io

    from spans import op_metrics

    try:
        code = pergraph.cli_io.main(argv)
    except SystemExit as stop:  # argparse rejects bad arguments this way
        code = stop.code if isinstance(stop.code, int) else 2
    write_json(out, {"layers": op_metrics(recorder.spans), "absent": recorder.absent})
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cli_argv: list[str] = []
    if "--" in argv:  # cli mode: what follows "--" is pergraph's argv
        split = argv.index("--")
        argv, cli_argv = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "bands", "cli"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--graph", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        return run_cli(cli_argv, args.out)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        return run_setup(workload, args.graph, args.trace, args.out)
    return run_bands(workload, args.seed, args.seconds, args.trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
