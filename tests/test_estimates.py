import math
import warnings

import numpy as np
import pytest

from pergraph import (
    BZGrid,
    Edge,
    FundamentalGraph,
    GraphError,
    Vertex,
    assemble_schrodinger,
    build_report,
    check_bipartite,
    check_effective_mass_bound,
    check_first_band,
    check_gap_sum,
    check_loop_graph,
    check_measure_bound,
    exact_quasimomentum,
    generate,
    grid_eigenvalues,
    hermitian_eigen,
    is_loop_graph,
    perron_contrast,
    perron_ground_state,
    zeta,
)
from pergraph import band_analysis, estimates

from conftest import (
    CATALOG_SAMPLE,
    diagonal_loop_plane,
    even_loop_line,
    single_loop_plane,
)


def test_perron_ground_state_lattice():
    g = generate("lattice", d=2)
    value, psi = perron_ground_state(g, np.array([0.25]))
    assert abs(value - 0.25) < 1e-12
    assert np.allclose(psi, [1.0], atol=1e-12)


def test_perron_ground_state_without_potential_follows_degrees():
    g = generate("bcc")
    value, psi = perron_ground_state(g, None)
    assert abs(value) < 1e-10
    roots = np.sqrt([8.0, 14.0])
    assert np.allclose(psi, roots / np.linalg.norm(roots), atol=1e-9)
    assert abs(perron_contrast(g, psi) - 1.0) < 1e-9


def test_perron_contrast_grows_with_potential():
    g = generate("bcc")
    _, psi = perron_ground_state(g, np.array([0.8, 0.0]))
    assert perron_contrast(g, psi) > 1.0 + 1e-6


def test_measure_bound_equalities_on_star(rng):
    g = generate("star_decorated", d=2, nu=5)
    q = rng.uniform(-1, 1, g.order)
    result = check_measure_bound(g, q, BZGrid(2, 4))
    assert result["passed"]
    two_zeta = 2.0 * zeta(g).value
    assert abs(result["measure"] - two_zeta) < 1e-9
    assert abs(result["band_length_sum"] - two_zeta) < 1e-9
    assert abs(result["trace_bound"] - two_zeta) < 1e-12


def test_measure_bound_chain_on_bcc():
    result = check_measure_bound(
        generate("bcc"), np.array([0.3, 0.0]), BZGrid(3, 8)
    )
    assert result["passed"]
    assert result["measure"] <= result["band_length_sum"] + 1e-12
    assert result["band_length_sum"] < result["trace_bound"]
    assert result["trace_bound"] < result["two_zeta"]
    assert abs(result["trace_bound"] - (math.sqrt(7.0) + 6.0 / 7.0)) < 1e-12
    assert abs(result["two_zeta"] - 101.0 / 28.0) < 1e-12


def test_gap_sum_equality_on_star(rng):
    g = generate("star_decorated", d=2, nu=3)
    q = rng.uniform(-1, 1, g.order)
    result = check_gap_sum(g, q, BZGrid(2, 4))
    assert result["passed"]
    assert abs(result["gap_sum"] - result["gap_floor"]) < 1e-9


def test_gap_sum_on_bcc_with_gap():
    result = check_gap_sum(generate("bcc"), np.array([1.0, 0.0]), BZGrid(3, 8))
    assert result["passed"]
    assert abs(result["gap_sum"] - 4.0 / 7.0) < 1e-9
    assert abs(result["span_floor"] - 4.0 / 7.0) < 1e-12
    assert result["span"] >= result["span_floor"]


def test_first_band_equality_without_potential():
    result = check_first_band(generate("bcc"), np.zeros(2), BZGrid(3, 8))
    assert result["passed"]
    assert abs(result["c0"] - 1.0) < 1e-9
    assert abs(result["sigma1_schrodinger"] - result["sigma1_laplacian"]) < 1e-12


def test_first_band_two_sided_bound(rng):
    g = generate("star_decorated", d=2, nu=4)
    for _ in range(10):
        q = rng.uniform(-1, 1, g.order)
        result = check_first_band(g, q, BZGrid(2, 4))
        assert result["passed"]
        assert result["lower"] <= result["sigma1_schrodinger"] + 1e-9
        assert result["sigma1_schrodinger"] <= result["upper"] + 1e-9


def test_effective_mass_bound_on_bcc():
    for q1 in (0.0, 0.5):
        result = check_effective_mass_bound(
            generate("bcc"), np.array([q1, 0.0])
        )
        assert not result["skipped"]
        assert result["passed"]
        assert result["upper_margin"] >= -1e-6
        assert result["lower_margin"] >= -1e-6


def test_effective_mass_bound_skips_singular_mass():
    result = check_effective_mass_bound(single_loop_plane(), np.zeros(1))
    assert result["passed"] is None
    assert result["skipped"]
    assert "M singular" in result["reason"]


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_effective_mass_bound_skips_when_contrast_overflows():
    # the ground state's weight on the 1e100 vertex reads as 0, so c0 = inf
    # and c0^2 m0 is no finite matrix to diagonalize
    result = check_effective_mass_bound(generate("bcc"), np.array([1e100, 0.0]))
    assert result["passed"] is None
    assert result["skipped"]
    assert "c0 = inf is too large" in result["reason"]


def test_perron_contrast_is_infinite_without_a_warning():
    g = generate("bcc")
    q = np.array([1e100, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, psi = perron_ground_state(g, q)
        assert perron_contrast(g, psi) == math.inf
        assert check_effective_mass_bound(g, q)["skipped"]


@pytest.mark.parametrize("name, kw", CATALOG_SAMPLE)
def test_effective_mass_bound_is_tight_for_constant_potential(name, kw):
    # Q = c only shifts every fiber by c, so m = m0 and c0 = 1 exactly
    g = generate(name, **kw)
    result = check_effective_mass_bound(g, np.full(g.order, 0.7))
    assert result["passed"]
    assert np.max(np.abs(result["mass"] - result["laplacian_mass"])) <= 1e-12
    assert result["upper_margin"] >= -1e-12
    assert result["lower_margin"] >= -1e-12


def test_effective_mass_bound_skips_band_constant_along_a_direction():
    result = check_effective_mass_bound(diagonal_loop_plane(), np.zeros(2))
    assert result["passed"] is None
    assert result["skipped"]
    assert "M singular" in result["reason"]


def test_loop_graph_endpoints_on_star(rng):
    g = generate("star_decorated", d=2, nu=4)
    q = rng.uniform(-1, 1, g.order)
    result = check_loop_graph(g, q, BZGrid(2, 4))
    assert result["passed"]
    assert result["exact"]
    assert result["single_vertex_bridges"]
    assert result["left_defect"] < 1e-9
    assert result["right_defect"] < 1e-9
    assert result["sum_defect"] < 1e-9
    assert result["measure_defect"] < 1e-9
    assert abs(result["band_length_sum"] - result["two_zeta"]) < 1e-9


def test_loop_graph_measure_ignores_near_flat_band():
    # Pendant potentials 0.030044 and 0.029973 make one band 5e-9 wide, below
    # FLAT_TOL: the union drops it, so the measure matches only the non-flat
    # widths, while the band lengths including it still sum to 2 zeta.
    g = generate("star_decorated", d=2, nu=8)
    draws = np.random.default_rng(877946993)
    for _ in range(16):
        q = draws.uniform(-1, 1, 8)
    result = check_loop_graph(g, q, BZGrid(2, 32))
    assert result["passed"]
    assert result["measure_defect"] <= 1e-12
    assert result["sum_defect"] < 1e-9
    assert result["band_length_sum"] - result["nonflat_length_sum"] > 1e-9


def test_loop_graph_on_lattice():
    result = check_loop_graph(generate("lattice", d=3), np.zeros(1), BZGrid(3, 4))
    assert result["passed"]
    assert result["theta0"] == (math.pi, math.pi, math.pi)
    assert abs(result["band_length_sum"] - 2.0) < 1e-12


def test_loop_graph_without_exact_quasimomentum():
    result = check_loop_graph(even_loop_line(), np.zeros(1), BZGrid(1, 4))
    assert result["passed"]
    assert not result["exact"]
    assert result["right_defect"] is None
    assert result["sum_defect"] is None
    assert result["left_defect"] < 1e-12


def test_loop_graph_endpoints_stay_exact_under_a_large_potential():
    # the endpoints are rows of the sweep table itself, so a potential of
    # 1e7 leaves no solver-to-solver rounding in the defects
    g = generate("star_decorated", d=2, nu=3)
    q = np.array([1e7, 0.0, 0.0])
    grid = BZGrid(2, 4)
    result = check_loop_graph(g, q, grid)
    assert result["passed"]
    assert result["left_defect"] <= 1e-12 * 1e7
    assert result["right_defect"] <= 1e-12 * 1e7
    assert build_report(g, q, grid).verdicts["loop_graph"]


def _mixed_turn_plane():
    # loops of index (1, 0) and (1, 1): theta0 = (pi, 0), not on the diagonal
    return FundamentalGraph(
        dimension=2,
        vertices=(Vertex(1),),
        edges=(Edge(1, 1, (1, 0)), Edge(1, 1, (1, 1))),
    )


LOOP_GRAPHS = {
    "-".join([name, *map(str, kw.values())]): g
    for name, kw in CATALOG_SAMPLE
    if is_loop_graph(g := generate(name, **kw))
}
LOOP_GRAPHS["mixed_turn_plane"] = _mixed_turn_plane()


@pytest.mark.parametrize("k", (2, 4, 8))
@pytest.mark.parametrize("g", list(LOOP_GRAPHS.values()), ids=list(LOOP_GRAPHS))
def test_loop_graph_reads_the_theta0_row_of_the_sweep(rng, g, k):
    q = rng.uniform(-1, 1, g.order)
    grid = BZGrid(g.dimension, k)
    theta0 = exact_quasimomentum(g)
    (row,) = np.flatnonzero(np.all(grid.thetas() == theta0, axis=1))
    table = grid_eigenvalues(g, q, grid)
    fiber = assemble_schrodinger(g, q, np.array(theta0))
    lapack = hermitian_eigen(fiber, with_vectors=False).values
    scale = max(1.0, float(np.linalg.norm(fiber)))
    assert np.max(np.abs(table[row] - lapack)) <= 1e-12 * scale
    result = check_loop_graph(g, q, grid)
    assert result["right_defect"] == np.max(np.abs(table.max(axis=0) - table[row]))
    assert result["left_defect"] == np.max(np.abs(table.min(axis=0) - table[0]))


def test_loop_graph_rejects_other_graphs():
    with pytest.raises(GraphError, match="loop graph"):
        check_loop_graph(generate("bcc"), np.zeros(2), BZGrid(3, 4))


def test_bipartite_checks_on_odd_subdivision():
    g = generate("subdivided", d=3, n=1)
    result = check_bipartite(g, np.zeros(g.order), BZGrid(3, 8))
    assert result["applicable"]
    assert result["passed"]
    assert result["bipartite"]
    assert result["symmetry_defect"] < 1e-9
    assert result["part_difference"] == 2
    assert result["flat_multiplicity"] >= 2
    assert result["gap_sum"] >= result["gap_floor"] - 1e-9


def test_bipartite_gap_floor_is_tight_for_two_vertex_chain():
    # nu = 2 with a single bridge: zeta = 1/2 + 1/2 ... the chain quotient
    # of the one-dimensional line has gap floor 2(1 - zeta) = 0.
    g = generate("subdivided", d=1, n=1)
    result = check_bipartite(g, np.zeros(2), BZGrid(1, 8))
    assert result["applicable"]
    assert result["passed"]
    assert abs(result["gap_floor"]) < 1e-12


def test_bipartite_lattice_cover_endpoints():
    result = check_bipartite(generate("lattice", d=2), np.zeros(1), BZGrid(2, 8))
    assert result["applicable"]
    assert not result["bipartite"]
    assert result["passed"]
    assert result["endpoint_defect"] < 1e-9


def test_bipartite_not_applicable_for_bcc():
    result = check_bipartite(generate("bcc"), np.zeros(2), BZGrid(3, 4))
    assert not result["applicable"]
    assert result["passed"]
    assert not result["bipartite"]


def test_build_report_star(rng):
    g = generate("star_decorated", d=2, nu=3)
    q = rng.uniform(-1, 1, g.order)
    report = build_report(g, q, BZGrid(2, 4))
    assert report.loop and report.exact
    assert report.verdicts["measure_bound"]
    assert report.verdicts["gap_sum"]
    assert report.verdicts["first_band"]
    assert report.verdicts["effective_mass_bound"]
    assert report.verdicts["loop_graph"]
    assert report.verdicts["bipartite"] is None
    assert abs(report.measure - report.two_zeta) < 1e-9
    assert len(report.bands.bands) == 3


def test_build_report_fcc():
    g = generate("fcc")
    report = build_report(g, np.zeros(4), BZGrid(3, 8))
    assert not report.loop and not report.exact and not report.bipartite
    assert report.verdicts["loop_graph"] is None
    assert report.verdicts["bipartite"] is None
    assert report.verdicts["measure_bound"]
    assert report.verdicts["gap_sum"]


# build_report hands each checker body the tables it sweeps once; the public
# check_* sweep their own.
CHECKER_BODIES = {
    "_measure_bound": check_measure_bound,
    "_gap_sum": check_gap_sum,
    "_first_band": check_first_band,
    "_loop_graph": check_loop_graph,
    "_bipartite": check_bipartite,
}


def _report_grid(g):
    return BZGrid(g.dimension, 4 if g.dimension == 3 else 8)


@pytest.mark.parametrize("name, kw", CATALOG_SAMPLE)
def test_build_report_checkers_match_public_checks(monkeypatch, rng, name, kw):
    g = generate(name, **kw)
    q = rng.uniform(-1, 1, g.order)
    grid = _report_grid(g)
    seen = {}
    for body in CHECKER_BODIES:
        original = getattr(estimates, body)

        def record(*args, _body=body, _original=original):
            seen[_body] = _original(*args)
            return seen[_body]

        monkeypatch.setattr(estimates, body, record)
    build_report(g, q, grid)
    monkeypatch.undo()
    skipped = set() if is_loop_graph(g) else {"_loop_graph"}
    assert set(seen) == set(CHECKER_BODIES) - skipped
    for body, result in seen.items():
        # repr spells floats exactly, so equal text means equal bits
        assert repr(result) == repr(CHECKER_BODIES[body](g, q, grid))


@pytest.mark.parametrize("name, kw", CATALOG_SAMPLE)
def test_build_report_sweeps_each_operator_once(monkeypatch, rng, name, kw):
    g = generate(name, **kw)
    calls = []
    original = band_analysis.grid_eigenvalues

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(band_analysis, "grid_eigenvalues", counted)
    monkeypatch.setattr(estimates, "grid_eigenvalues", counted)
    build_report(g, rng.uniform(-1, 1, g.order), _report_grid(g))
    assert len(calls) == 2


@pytest.mark.parametrize(
    "name, kw", [("star_decorated", dict(d=2, nu=8)), ("lattice", dict(d=2))]
)
def test_build_report_makes_seven_scalar_solves(monkeypatch, rng, name, kw):
    # one for the ground state, two per effective mass, two for the margins;
    # band endpoints come from the sweep tables
    g = generate(name, **kw)
    calls = []
    original = estimates.hermitian_eigen

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimates, "hermitian_eigen", counted)
    monkeypatch.setattr(band_analysis, "hermitian_eigen", counted)
    build_report(g, rng.uniform(-1, 1, g.order), _report_grid(g))
    assert len(calls) == 7


@pytest.mark.parametrize("name, kw", CATALOG_SAMPLE)
def test_build_report_computes_the_ground_state_once(monkeypatch, rng, name, kw):
    g = generate(name, **kw)
    calls = []
    original = estimates.perron_ground_state

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(estimates, "perron_ground_state", counted)
    build_report(g, rng.uniform(-1, 1, g.order), _report_grid(g))
    assert len(calls) == 1
