import csv
import io
import json
import math

import numpy as np
import pytest

from pergraph import BZGrid, assemble_schrodinger, generate, grid_eigenvalues
from pergraph.cli_io import (
    graph_payload,
    main,
    parse_path,
    read_graph,
    write_graph,
    write_path_csv,
)

from conftest import single_loop_plane
from oracles import FCC_EDGES, bcc_band_edges, bisect_eigenvalues


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _generate(tmp_path, family, *extra):
    path = tmp_path / f"{family}.json"
    assert main(["generate", family, "-o", str(path), *extra]) == 0
    return str(path)


def test_generate_round_trip(tmp_path):
    path = _generate(tmp_path, "bcc")
    loaded = read_graph(path)
    reference = generate("bcc")
    assert loaded.graph.dimension == reference.dimension
    assert loaded.graph.vertices == reference.vertices
    assert loaded.graph.edges == reference.edges
    assert loaded.description is None


def test_generate_to_stdout(capsys):
    assert main(["generate", "lattice", "-d", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimension"] == 2
    assert data["edges"] == [
        {"u": 1, "v": 1, "index": [1, 0]},
        {"u": 1, "v": 1, "index": [0, 1]},
    ]


def test_generate_rejects_bad_parameters(capsys):
    assert main(["generate", "bcc", "-d", "2"]) == 2
    assert "fixed at d = 3" in capsys.readouterr().err


def test_unknown_key_is_rejected(tmp_path, capsys):
    path = _write(
        tmp_path,
        "bad.json",
        {
            "dimension": 1,
            "vertices": [{"id": 1}],
            "edges": [{"u": 1, "v": 1, "index": [1]}],
            "comment": "nope",
        },
    )
    assert main(["bands", path]) == 2
    assert "unknown key 'comment'" in capsys.readouterr().err


def test_edges_and_bonds_are_exclusive(tmp_path, capsys):
    path = _write(
        tmp_path,
        "both.json",
        {
            "dimension": 1,
            "vertices": [{"id": 1}],
            "edges": [{"u": 1, "v": 1, "index": [1]}],
            "bonds": [{"u": 1, "v": 1, "shift": [1]}],
        },
    )
    assert main(["bands", path]) == 2
    assert "exactly one of edges or bonds" in capsys.readouterr().err


def test_bonds_get_indices_from_spanning_tree(tmp_path):
    path = _write(
        tmp_path,
        "chain.json",
        {
            "dimension": 1,
            "vertices": [{"id": 1}, {"id": 2}],
            "bonds": [
                {"u": 1, "v": 2, "shift": [0]},
                {"u": 2, "v": 1, "shift": [1]},
            ],
        },
    )
    loaded = read_graph(path)
    assert loaded.description is not None
    indices = sorted(e.index for e in loaded.graph.edges)
    assert indices == [(0,), (1,)]


def test_dangling_bond_endpoint(tmp_path, capsys):
    path = _write(
        tmp_path,
        "dangling.json",
        {
            "dimension": 1,
            "vertices": [{"id": 1}],
            "bonds": [{"u": 1, "v": 7, "shift": [0]}],
        },
    )
    assert main(["bands", path]) == 2
    assert "dangling bond endpoint" in capsys.readouterr().err


def test_string_vertex_ids(tmp_path):
    path = _write(
        tmp_path,
        "named.json",
        {
            "dimension": 1,
            "vertices": [{"id": "a"}, {"id": "b"}],
            "edges": [
                {"u": "a", "v": "b", "index": [0]},
                {"u": "b", "v": "a", "index": [1]},
            ],
        },
    )
    assert read_graph(path).graph.order == 2


def test_odd_grid_is_rejected(tmp_path, capsys):
    path = _generate(tmp_path, "bcc")
    assert main(["bands", path, "-k", "3"]) == 2
    assert "grid must be even to include" in capsys.readouterr().err


def test_empty_grid_is_rejected(tmp_path, capsys):
    path = _generate(tmp_path, "bcc")
    assert main(["bands", path, "-k", "0"]) == 2
    assert "at least 2 points per axis, got 0" in capsys.readouterr().err


def test_band_csv_for_fcc(tmp_path):
    path = _generate(tmp_path, "fcc")
    out = tmp_path / "bands.csv"
    assert main(["bands", path, "-k", "8", "--csv", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["band_index"] for r in rows] == ["1", "2", "3", "4"]
    assert abs(float(rows[0]["lambda_min"]) - FCC_EDGES[0]) < 1e-9
    assert abs(float(rows[0]["lambda_max"]) - FCC_EDGES[1]) < 1e-9
    assert rows[1]["flat"] == "true" and rows[2]["flat"] == "true"
    assert rows[1]["multiplicity"] == "2"
    assert rows[0]["flat"] == "false" and rows[0]["multiplicity"] == ""
    assert abs(float(rows[3]["lambda_min"]) - FCC_EDGES[2]) < 1e-9
    assert abs(float(rows[3]["lambda_max"]) - FCC_EDGES[3]) < 1e-9


def test_band_json_for_fcc(tmp_path):
    path = _generate(tmp_path, "fcc")
    out = tmp_path / "bands.json"
    assert main(["bands", path, "-k", "8", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["points_per_axis"] == 8
    assert data["flats"] == [{"value": 1.0, "multiplicity": 2}]
    assert len(data["components"]) == 2
    assert abs(data["components"][1][0] - 10.0 / 9.0) < 1e-9
    assert data["isolated"] == []
    assert abs(data["measure"] - 14.0 / 9.0) < 1e-9
    assert len(data["gaps"]) == 1
    assert abs(data["gaps"][0][0] - 1.0) < 1e-9
    # floats in the file are rounded to 15 significant digits
    text = out.read_text()
    assert format(data["components"][1][0], ".15g") in text


def test_band_json_and_csv_together(tmp_path, capsys):
    path = _generate(tmp_path, "fcc")
    jout = tmp_path / "bands.json"
    cout = tmp_path / "bands.csv"
    code = main(
        ["bands", path, "-k", "8", "--json", str(jout), "--csv", str(cout)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    data = json.loads(jout.read_text())
    rows = list(csv.DictReader(cout.open()))
    assert len(rows) == len(data["bands"])
    for row, band in zip(rows, data["bands"]):
        assert float(row["lambda_min"]) == band["lambda_min"]
        assert float(row["lambda_max"]) == band["lambda_max"]


def test_potential_file_opens_bcc_gap(tmp_path):
    path = _generate(tmp_path, "bcc")
    qpath = _write(tmp_path, "q.json", {"1": 1.0})
    out = tmp_path / "bands.json"
    assert main(["bands", path, "-q", qpath, "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    expected = bcc_band_edges(1.0)["gap"]
    assert len(data["gaps"]) == 1
    assert abs(data["gaps"][0][0] - expected[0]) < 1e-9
    assert abs(data["gaps"][0][1] - expected[1]) < 1e-9


def test_potential_file_with_unknown_vertex(tmp_path, capsys):
    path = _generate(tmp_path, "bcc")
    qpath = _write(tmp_path, "q.json", {"9": 1.0})
    assert main(["bands", path, "-q", qpath]) == 2
    assert "names unknown vertex '9'" in capsys.readouterr().err


def test_path_samples_lattice_dispersion(tmp_path, capsys):
    path = _generate(tmp_path, "lattice", "-d", "2")
    assert main(["bands", path, "--path", "0,0..pi,pi:9"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 9
    assert set(rows[0]) == {"theta_1", "theta_2", "lambda_1"}
    for k, row in enumerate(rows):
        t = math.pi * k / 8.0
        assert abs(float(row["theta_1"]) - t) < 1e-12
        assert abs(float(row["lambda_1"]) - (1.0 - math.cos(t))) < 1e-12


def test_path_accepts_pi_fractions():
    thetas = parse_path("-pi/2,0..3pi/4,2*pi:3", 2)
    assert np.allclose(
        thetas,
        [
            [-math.pi / 2, 0.0],
            [math.pi / 8, math.pi],
            [3 * math.pi / 4, 2 * math.pi],
        ],
    )


def test_path_errors(tmp_path, capsys):
    path = _generate(tmp_path, "lattice", "-d", "2")
    for text, message in (
        ("0,0..pi,pi", "path must end with :count"),
        ("0,0..pi,pi:1", "at least 2 samples"),
        ("0,0:4", "'..' between endpoints"),
        ("0..pi:4", "must have 2 components"),
        ("0,x..pi,pi:4", "bad angle 'x'"),
    ):
        assert main(["bands", path, "--path", text]) == 2
        assert message in capsys.readouterr().err


def test_report_star(tmp_path, capsys):
    path = _generate(tmp_path, "star_decorated", "-d", "2", "--nu", "3")
    out = tmp_path / "report.json"
    assert main(["report", path, "-k", "8", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "measure_bound: pass" in text
    assert "loop_graph: pass" in text
    assert "bipartite: not applicable" in text
    assert "zeta: " in text
    data = json.loads(out.read_text())
    assert data["verdicts"]["measure_bound"] is True
    assert data["verdicts"]["bipartite"] is None
    assert abs(data["measure"] - 2.0 * data["zeta"]) < 1e-9
    assert len(data["bands"]["bands"]) == 3


def test_check_passes_on_catalog_graph(tmp_path, capsys):
    path = _generate(tmp_path, "bcc")
    assert main(["check", path, "-k", "8", "--trials", "4"]) == 0
    text = capsys.readouterr().out
    assert "ok: factorization identity" in text
    assert "ok: quadratic form identity" in text
    assert "ok: ground form identity" in text
    assert "ok: Laplacian range" in text
    assert "all checks passed" in text
    assert "warning" not in text


def test_check_warns_on_rank_deficient_bridges(tmp_path, capsys):
    path = tmp_path / "halfline.json"
    with path.open("w", encoding="utf-8") as handle:
        write_graph(single_loop_plane(), handle)
    assert main(["check", str(path), "-k", "4", "--trials", "4"]) == 0
    text = capsys.readouterr().out
    assert "warning: bridge indices span rank 1 of 2 directions" in text
    assert "all checks passed" in text


def test_mass_json_for_lattice(tmp_path, capsys):
    path = _generate(tmp_path, "lattice", "-d", "2")
    out = tmp_path / "mass.json"
    assert main(["mass", path, "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert np.allclose(data["hessian"], 0.5 * np.eye(2), atol=1e-7)
    assert np.allclose(data["mass"], 2.0 * np.eye(2), atol=1e-6)
    text = capsys.readouterr().out
    assert "hessian" in text and "mass" in text


def test_mass_fails_on_singular_hessian(tmp_path, capsys):
    path = tmp_path / "halfline.json"
    with path.open("w", encoding="utf-8") as handle:
        write_graph(single_loop_plane(), handle)
    assert main(["mass", str(path)]) == 1
    assert "effective mass undefined" in capsys.readouterr().err


def test_report_passes_with_constant_potential(tmp_path, capsys):
    path = _generate(tmp_path, "subdivided", "-d", "2", "-n", "2")
    qpath = _write(tmp_path, "q.json", {str(v): 0.7 for v in range(1, 6)})
    assert main(["report", path, "-q", qpath]) == 0
    assert "effective_mass_bound: pass" in capsys.readouterr().out


def test_report_json_is_strict_when_c0_overflows(tmp_path):
    path = _generate(tmp_path, "bcc")
    qpath = _write(tmp_path, "q.json", {"1": 1e100})
    out = tmp_path / "report.json"
    # the exit code is not the point here: gap_sum fails at this potential
    main(["report", path, "-q", qpath, "-k", "8", "--json", str(out)])

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    data = json.loads(out.read_text(), parse_constant=refuse)
    assert data["c0"] is None
    assert data["first_band"]["c0"] is None
    assert data["first_band"]["upper"] is None


def test_missing_graph_file(capsys):
    assert main(["bands", "/nonexistent/graph.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308])
@pytest.mark.parametrize("source", ["potential file", "graph file"])
@pytest.mark.parametrize("command", ["bands", "report"])
def test_unbounded_potential_exits_2(tmp_path, capsys, command, source, value):
    payload = graph_payload(generate("bcc"))
    if source == "graph file":
        payload["vertices"][1]["potential"] = value
        args = [_write(tmp_path, "g.json", payload)]
    else:
        qpath = _write(tmp_path, "q.json", {"2": value})
        args = [_write(tmp_path, "g.json", payload), "-q", qpath]
    assert main([command, *args, "-k", "4"]) == 2
    vertex = "2" if source == "graph file" else "'2'"
    assert f"potential {value!r} of vertex {vertex} in " in capsys.readouterr().err


def test_path_refuses_non_finite_angle(tmp_path, capsys):
    path = _generate(tmp_path, "lattice", "-d", "2")
    for text in ("nan,0..pi,pi:4", "0,0..inf,pi:4", "0,0..1e308pi,0:4"):
        assert main(["bands", path, "--path", text]) == 2
        assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, kw, text",
    [
        ("bcc", {}, "0,0,0..pi,pi,pi:9"),
        ("star_decorated", dict(d=2, nu=3), "0,0..pi,pi:9"),
    ],
)
def test_path_samples_match_grid_table_and_oracle(rng, family, kw, text):
    g = generate(family, **kw)
    q = rng.uniform(-1.0, 1.0, g.order)
    thetas = parse_path(text, g.dimension)
    out = io.StringIO()
    write_path_csv(g, q, thetas, out)
    rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
    samples = np.array(rows, dtype=float)[:, g.dimension :]
    k = 8
    table = grid_eigenvalues(g, q, BZGrid(g.dimension, k))
    for step, (theta, values) in enumerate(zip(thetas, samples)):
        oracle = bisect_eigenvalues(assemble_schrodinger(g, q, theta))
        assert np.allclose(values, oracle, rtol=0.0, atol=1e-9)
        if step % 2 == 0:
            # theta = (step/8) pi (1, .., 1) is grid point j = step/2 on
            # every axis of the K = 8 grid
            j = step // 2
            row = sum(j * k**p for p in range(g.dimension))
            assert np.allclose(values, table[row], rtol=0.0, atol=1e-12)
