"""File formats and the command-line interface.

Graph files are JSON with explicit integer edge indices or, alternatively,
raw bonds whose indices are derived from a spanning tree. Reports and band
tables are emitted as JSON (floats at 15 significant digits) or CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .band_analysis import (
    BandStructure,
    BZGrid,
    EffectiveMassError,
    bands_from_table,
    compute_bands,
    effective_mass,
    gaps,
    grid_eigenvalues,
    spectrum_union,
)
from .catalog import FAMILIES, generate
from .estimates import (
    _first_band,
    _ground_contrast,
    build_report,
    perron_ground_state,
)
from .fiber_linalg import (
    assemble_laplacian,
    assemble_nabla,
    assemble_schrodinger,
    fibers,
    hermitian_eigen_batch,
    potential_vector,
)
from .graph_core import (
    Bond,
    Edge,
    FundamentalGraph,
    GraphError,
    PeriodicDescription,
    Vertex,
    assign_indices,
    validate,
)


class InputError(Exception):
    """Malformed file or argument; maps to exit code 2."""


@dataclass(frozen=True)
class GraphFile:
    """Parsed graph file plus the description it came from, if any."""

    graph: FundamentalGraph
    description: PeriodicDescription | None


def _round15(x: float) -> float | None:
    # strict JSON has no token for inf or nan, so they are written as null
    return float(format(float(x), ".15g")) if math.isfinite(x) else None


def _jsonable(x):
    if isinstance(x, bool):
        return x
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, (float, np.floating)):
        return _round15(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {
            f.name: _jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)
        }
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _expect_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def _vertex_id(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"vertex id in {where} must be an integer or string")
    return value


def _int_tuple(value, length: int, name: str, where: str) -> tuple:
    if not isinstance(value, list) or len(value) != length:
        raise InputError(
            f"{name} in {where} must be a list of {length} integers"
        )
    out = []
    for c in value:
        if isinstance(c, bool) or not isinstance(c, int):
            raise InputError(f"{name} in {where} must contain integers only")
        out.append(c)
    return tuple(out)


def _potential(value, vertex, where: str) -> float:
    # the bound keeps q**2, and with it the Frobenius norm of H, finite
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= 1e150):
        raise InputError(
            f"potential {value!r} of vertex {vertex!r} in {where} must be a "
            "finite number of magnitude at most 1e150"
        )
    return float(value)


def read_graph(path: str) -> GraphFile:
    """Load a graph file, deriving indices from bonds when given."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise InputError(f"{path} must contain a JSON object")
    _expect_keys(data, {"dimension", "vertices", "edges", "bonds"}, path)
    dimension = data.get("dimension")
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise InputError(f"dimension in {path} must be an integer")
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InputError(f"vertices in {path} must be a non-empty list")
    vertices = []
    for entry in raw_vertices:
        if not isinstance(entry, dict):
            raise InputError(f"each vertex in {path} must be an object")
        _expect_keys(entry, {"id", "potential"}, f"{path} vertices")
        vertex = _vertex_id(entry.get("id"), path)
        potential = _potential(entry.get("potential", 0.0), vertex, path)
        vertices.append(Vertex(vertex, potential))

    has_edges = "edges" in data
    has_bonds = "bonds" in data
    if has_edges == has_bonds:
        raise InputError(f"{path} must contain exactly one of edges or bonds")

    if has_edges:
        raw_edges = data["edges"]
        if not isinstance(raw_edges, list):
            raise InputError(f"edges in {path} must be a list")
        edges = []
        for entry in raw_edges:
            if not isinstance(entry, dict):
                raise InputError(f"each edge in {path} must be an object")
            _expect_keys(entry, {"u", "v", "index"}, f"{path} edges")
            edges.append(
                Edge(
                    _vertex_id(entry.get("u"), path),
                    _vertex_id(entry.get("v"), path),
                    _int_tuple(entry.get("index"), dimension, "index", path),
                )
            )
        graph = FundamentalGraph(dimension, tuple(vertices), tuple(edges))
        description = None
    else:
        raw_bonds = data["bonds"]
        if not isinstance(raw_bonds, list):
            raise InputError(f"bonds in {path} must be a list")
        bonds = []
        for entry in raw_bonds:
            if not isinstance(entry, dict):
                raise InputError(f"each bond in {path} must be an object")
            _expect_keys(entry, {"u", "v", "shift"}, f"{path} bonds")
            bonds.append(
                Bond(
                    _vertex_id(entry.get("u"), path),
                    _vertex_id(entry.get("v"), path),
                    _int_tuple(entry.get("shift"), dimension, "shift", path),
                )
            )
        description = PeriodicDescription(dimension, tuple(vertices), tuple(bonds))
        try:
            graph, _ = assign_indices(description)
        except GraphError as err:
            raise InputError(f"{path}: {err}") from err

    problems = validate(graph)
    if problems:
        raise InputError(f"{path}: {problems[0]}")
    return GraphFile(graph, description)


def graph_payload(graph: FundamentalGraph) -> dict:
    return {
        "dimension": graph.dimension,
        "vertices": [
            {"id": v.id, "potential": v.potential} for v in graph.vertices
        ],
        "edges": [
            {"u": e.tail, "v": e.head, "index": list(e.index)}
            for e in graph.edges
        ],
    }


def write_graph(graph: FundamentalGraph, out) -> None:
    json.dump(graph_payload(graph), out, indent=2)
    out.write("\n")


def read_potential(path: str, graph: FundamentalGraph) -> np.ndarray:
    """Potential file: JSON object keyed by vertex id, absent entries are 0."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise InputError(f"{path} must map vertex ids to numbers")
    known = {str(v.id) for v in graph.vertices}
    for key in data:
        if key not in known:
            raise InputError(f"{path} names unknown vertex {key!r}")
        _potential(data[key], key, path)
    return np.array(
        [float(data.get(str(v.id), 0.0)) for v in graph.vertices], dtype=float
    )


def _flat_multiplicity(structure: BandStructure, value: float, tol: float) -> int:
    for flat in structure.flats:
        if abs(flat.value - value) <= tol:
            return flat.multiplicity
    return 0


def band_rows(structure: BandStructure) -> list[dict]:
    rows = []
    for n, band in enumerate(structure.bands, start=1):
        rows.append(
            {
                "band_index": n,
                "lambda_min": band.lambda_min,
                "lambda_max": band.lambda_max,
                "flat": band.flat,
                "multiplicity": (
                    _flat_multiplicity(structure, band.lambda_min, 1e-8)
                    if band.flat
                    else None
                ),
            }
        )
    return rows


def write_band_csv(structure: BandStructure, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["band_index", "lambda_min", "lambda_max", "flat", "multiplicity"]
    )
    for row in band_rows(structure):
        writer.writerow(
            [
                row["band_index"],
                format(row["lambda_min"], ".15g"),
                format(row["lambda_max"], ".15g"),
                "true" if row["flat"] else "false",
                "" if row["multiplicity"] is None else row["multiplicity"],
            ]
        )


def bands_payload(structure: BandStructure) -> dict:
    union = spectrum_union(structure)
    return {
        "points_per_axis": structure.grid.points_per_axis,
        "bands": band_rows(structure),
        "flats": [
            {"value": f.value, "multiplicity": f.multiplicity}
            for f in structure.flats
        ],
        "components": [list(c) for c in union.components],
        "isolated": list(union.isolated),
        "measure": union.measure,
        "gaps": [list(g) for g in gaps(structure)],
    }


def _parse_angle(token: str) -> float:
    """Angle literal: a float, or a rational multiple of pi like -3pi/4."""
    text = token.strip().replace(" ", "")
    if not text:
        raise InputError("empty angle in path")
    if "pi" in text:
        left, _, right = text.partition("pi")
        factor = 1.0
        if left in ("", "+"):
            pass
        elif left == "-":
            factor = -1.0
        else:
            left = left.rstrip("*")
            try:
                factor = float(left)
            except ValueError as err:
                raise InputError(f"bad angle {token!r} in path") from err
        if right:
            if not right.startswith("/"):
                raise InputError(f"bad angle {token!r} in path")
            try:
                factor /= float(right[1:])
            except (ValueError, ZeroDivisionError) as err:
                raise InputError(f"bad angle {token!r} in path") from err
        return factor * math.pi
    try:
        return float(text)
    except ValueError as err:
        raise InputError(f"bad angle {token!r} in path") from err


def parse_path(text: str, dimension: int) -> np.ndarray:
    """Path "a1,..,ad..b1,..,bd:N": N samples from point a to point b."""
    body, sep, count_text = text.rpartition(":")
    if not sep:
        raise InputError("path must end with :count")
    try:
        count = int(count_text)
    except ValueError as err:
        raise InputError(f"bad sample count {count_text!r} in path") from err
    if count < 2:
        raise InputError("path needs at least 2 samples")
    start_text, sep, end_text = body.partition("..")
    if not sep:
        raise InputError("path must contain '..' between endpoints")
    start = [_parse_angle(t) for t in start_text.split(",")]
    end = [_parse_angle(t) for t in end_text.split(",")]
    if not np.all(np.isfinite(start + end)):
        raise InputError(f"path angles in {text!r} must be finite")
    if len(start) != dimension or len(end) != dimension:
        raise InputError(f"path endpoints must have {dimension} components")
    steps = np.linspace(0.0, 1.0, count)[:, None]
    return np.array(start) + steps * (np.array(end) - np.array(start))


def write_path_csv(graph: FundamentalGraph, q, thetas: np.ndarray, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [f"theta_{j + 1}" for j in range(graph.dimension)]
        + [f"lambda_{n + 1}" for n in range(graph.order)]
    )
    table = hermitian_eigen_batch(fibers(graph, thetas, 1.0 + q))
    for theta, values in zip(thetas, table):
        writer.writerow(
            [format(c, ".15g") for c in theta]
            + [format(v, ".15g") for v in values]
        )


def _write_json(payload, path: str | None) -> None:
    text = json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load(args) -> tuple[FundamentalGraph, np.ndarray]:
    loaded = read_graph(args.graph)
    if getattr(args, "potential", None):
        q = read_potential(args.potential, loaded.graph)
    else:
        q = potential_vector(loaded.graph, None)
    return loaded.graph, q


def _grid(args, dimension: int) -> BZGrid:
    try:
        return BZGrid(dimension, args.grid)
    except ValueError as err:
        raise InputError(str(err)) from err


def _cmd_generate(args) -> int:
    try:
        graph = generate(args.family, d=args.dimension, nu=args.nu, n=args.n)
    except ValueError as err:
        raise InputError(str(err)) from err
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            write_graph(graph, handle)
    else:
        write_graph(graph, sys.stdout)
    return 0


def _cmd_bands(args) -> int:
    graph, q = _load(args)
    if args.path:
        thetas = parse_path(args.path, graph.dimension)
        if args.csv and args.csv != "-":
            with open(args.csv, "w", encoding="utf-8") as handle:
                write_path_csv(graph, q, thetas, handle)
        else:
            write_path_csv(graph, q, thetas, sys.stdout)
        return 0
    structure = compute_bands(graph, q, _grid(args, graph.dimension))
    if args.json:
        _write_json(bands_payload(structure), args.json)
    if args.csv and args.csv != "-":
        with open(args.csv, "w", encoding="utf-8") as handle:
            write_band_csv(structure, handle)
    elif not args.json:
        write_band_csv(structure, sys.stdout)
    return 0


def _cmd_report(args) -> int:
    graph, q = _load(args)
    report = build_report(graph, q, _grid(args, graph.dimension))
    if args.json:
        _write_json(report, args.json)
    for name, verdict in report.verdicts.items():
        if verdict is None:
            status = "not applicable"
        else:
            status = "pass" if verdict else "FAIL"
        print(f"{name}: {status}")
    print(f"zeta: {report.zeta:.15g}")
    print(f"measure: {report.measure:.15g} <= 2*zeta: {report.two_zeta:.15g}")
    print(f"gap_sum: {report.gap_sum:.15g} >= {report.gap_floor:.15g}")
    failed = [v for v in report.verdicts.values() if v is False]
    return 1 if failed else 0


def _factorization_defect(graph: FundamentalGraph, theta: np.ndarray) -> float:
    nabla = assemble_nabla(graph, theta)
    rebuilt = nabla.conj().T @ nabla
    return float(np.max(np.abs(rebuilt - assemble_laplacian(graph, theta))))


def _directed(graph: FundamentalGraph):
    for e in graph.edges:
        yield e.tail, e.head, e.index
        yield e.head, e.tail, tuple(-c for c in e.index)


def _quadratic_form_defect(
    graph: FundamentalGraph, theta: np.ndarray, f: np.ndarray
) -> float:
    matrix = assemble_laplacian(graph, theta)
    direct = float(np.real(np.vdot(f, matrix @ f)))
    deg = graph.degrees
    pos = graph.position
    total = 0.0
    # the phase sign pairs with the assembled entry convention: the
    # (tail, head) entry carries exp(-i <index, theta>)
    for tail, head, index in _directed(graph):
        phase = np.exp(-1j * float(np.dot(index, theta)))
        term = f[pos[tail]] / math.sqrt(deg[tail]) - phase * f[
            pos[head]
        ] / math.sqrt(deg[head])
        total += 0.5 * float(abs(term) ** 2)
    return abs(direct - total)


def _ground_form_defect(
    graph: FundamentalGraph, q: np.ndarray, theta: np.ndarray, f: np.ndarray
) -> float:
    floor, psi = perron_ground_state(graph, q)
    matrix = assemble_schrodinger(graph, q, theta)
    weighted = psi * f
    direct = float(
        np.real(np.vdot(weighted, matrix @ weighted))
    ) - floor * float(np.real(np.vdot(weighted, weighted)))
    deg = graph.degrees
    pos = graph.position
    total = 0.0
    for tail, head, index in _directed(graph):
        c = (
            psi[pos[tail]]
            * psi[pos[head]]
            / math.sqrt(deg[tail] * deg[head])
        )
        phase = np.exp(-1j * float(np.dot(index, theta)))
        term = f[pos[tail]] - phase * f[pos[head]]
        total += 0.5 * c * float(abs(term) ** 2)
    return abs(direct - total)


def _cmd_check(args) -> int:
    graph, q = _load(args)
    grid = _grid(args, graph.dimension)
    rng = np.random.default_rng(args.seed)
    failures = 0

    indices = np.array(
        [e.index for e in graph.edges if e.is_bridge], dtype=float
    )
    rank = int(np.linalg.matrix_rank(indices)) if indices.size else 0
    if rank < graph.dimension:
        print(
            f"warning: bridge indices span rank {rank} of "
            f"{graph.dimension} directions"
        )

    tol = 1e-10
    worst_fact = 0.0
    worst_quad = 0.0
    worst_ground = 0.0
    for _ in range(args.trials):
        theta = rng.uniform(-math.pi, math.pi, graph.dimension)
        f = rng.normal(size=graph.order) + 1j * rng.normal(size=graph.order)
        worst_fact = max(worst_fact, _factorization_defect(graph, theta))
        worst_quad = max(worst_quad, _quadratic_form_defect(graph, theta, f))
        worst_ground = max(
            worst_ground, _ground_form_defect(graph, q, theta, f)
        )
    for label, worst in (
        ("factorization identity", worst_fact),
        ("quadratic form identity", worst_quad),
        ("ground form identity", worst_ground),
    ):
        if worst <= tol:
            print(f"ok: {label} (max defect {worst:.2e})")
        else:
            print(f"FAIL: {label} (max defect {worst:.2e})")
            failures += 1

    table = grid_eigenvalues(graph, np.zeros(graph.order), grid)
    low = float(table.min())
    high = float(table.max())
    if low >= -1e-9 and high <= 2.0 + 1e-9:
        print(f"ok: Laplacian range [{low:.2e}, {high:.6f}] inside [0, 2]")
    else:
        print(f"FAIL: Laplacian range [{low:.6f}, {high:.6f}] outside [0, 2]")
        failures += 1

    laplacian_bands = bands_from_table(table, grid)
    band_failures = 0
    for _ in range(args.trials):
        trial_q = rng.uniform(-1.0, 1.0, graph.order)
        bands = compute_bands(graph, trial_q, grid)
        c0 = _ground_contrast(graph, trial_q)
        if not _first_band(bands, laplacian_bands, c0)["passed"]:
            band_failures += 1
    if band_failures == 0:
        print(f"ok: first band estimate ({args.trials} random potentials)")
    else:
        print(f"FAIL: first band estimate ({band_failures} of {args.trials})")
        failures += 1

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _cmd_mass(args) -> int:
    graph, q = _load(args)
    try:
        result = effective_mass(graph, q, args.step)
    except EffectiveMassError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        _write_json(
            {"hessian": result.hessian, "mass": result.mass}, args.json
        )
    for name, matrix in (("hessian", result.hessian), ("mass", result.mass)):
        print(name)
        for row in matrix:
            print("  " + "  ".join(format(v, ".15g") for v in row))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pergraph",
        description="Band structures of periodic discrete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser(
        "generate", help="write a catalog graph as a JSON file"
    )
    p_generate.add_argument("family", choices=list(FAMILIES))
    p_generate.add_argument("-d", "--dimension", type=int, default=None)
    p_generate.add_argument("--nu", type=int, default=None)
    p_generate.add_argument("-n", type=int, default=None)
    p_generate.add_argument("-o", "--output", default=None)
    p_generate.set_defaults(func=_cmd_generate)

    def add_common(p, with_grid=True):
        p.add_argument("graph", help="graph JSON file")
        p.add_argument("-q", "--potential", default=None)
        if with_grid:
            p.add_argument("-k", "--grid", type=int, default=16)

    p_bands = sub.add_parser("bands", help="band table over a grid or a path")
    add_common(p_bands)
    p_bands.add_argument("--csv", default=None)
    p_bands.add_argument("--json", default=None)
    p_bands.add_argument(
        "--path",
        default=None,
        help="sample a segment instead: a1,..,ad..b1,..,bd:count",
    )
    p_bands.set_defaults(func=_cmd_bands)

    p_report = sub.add_parser(
        "report", help="run every estimate checker and print verdicts"
    )
    add_common(p_report)
    p_report.add_argument("--json", default=None)
    p_report.set_defaults(func=_cmd_report)

    p_check = sub.add_parser(
        "check", help="internal identity and invariant checks"
    )
    add_common(p_check)
    p_check.add_argument("--trials", type=int, default=8)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    p_mass = sub.add_parser("mass", help="effective mass at the band bottom")
    add_common(p_mass, with_grid=False)
    p_mass.add_argument("--step", type=float, default=1e-3, help="ignored")
    p_mass.add_argument("--json", default=None)
    p_mass.set_defaults(func=_cmd_mass)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GraphError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
