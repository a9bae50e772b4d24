import itertools
import math

import numpy as np
import pytest

import pergraph.band_analysis as band_analysis
from pergraph.fiber_linalg import fibers
from pergraph.graph_core import sign_flip_classes
from pergraph import (
    Band,
    BandStructure,
    BZGrid,
    EffectiveMassError,
    FlatBand,
    assemble_schrodinger,
    compute_bands,
    effective_mass,
    gaps,
    generate,
    grid_eigenvalues,
    spectrum_union,
)

from conftest import (
    CATALOG_SAMPLE,
    mixed_class_space,
    random_periodic_graph,
    single_loop_plane,
)
from oracles import (
    FCC_EDGES,
    bcc_band_edges,
    lowest_band_hessian,
    star_components,
    subdivided_flats,
)


def test_grid_rejects_odd_and_tiny_sizes():
    with pytest.raises(ValueError, match="grid must be even to include"):
        BZGrid(2, 7)
    with pytest.raises(ValueError, match="grid must be even to include"):
        BZGrid(2, 1)
    with pytest.raises(ValueError, match="dimension must be positive"):
        BZGrid(0, 8)


def test_grid_contains_zero_and_pi():
    grid = BZGrid(2, 8)
    thetas = grid.thetas()
    assert thetas.shape == (64, 2)
    assert grid.count == 64
    rows = {tuple(np.round(t, 12)) for t in thetas}
    assert (0.0, 0.0) in rows
    assert tuple(np.round([math.pi, math.pi], 12)) in rows


def test_lattice_band_is_zero_to_two():
    bands = compute_bands(generate("lattice", d=2), np.zeros(1), BZGrid(2, 16))
    band = bands.bands[0]
    assert abs(band.lambda_min) < 1e-12
    assert abs(band.lambda_max - 2.0) < 1e-12
    assert not band.flat


def test_bcc_band_edges_match_closed_form():
    bands = compute_bands(generate("bcc"), np.zeros(2), BZGrid(3, 8))
    edges = bcc_band_edges(0.0)
    got = [(b.lambda_min, b.lambda_max) for b in bands.bands]
    assert np.allclose(got[0], edges["lower"], atol=1e-10)
    assert np.allclose(got[1], edges["upper"], atol=1e-10)
    assert abs(got[1][1] - 11.0 / 7.0) < 1e-10


def test_star_bands_flat_and_union():
    g = generate("star_decorated", d=2, nu=3)
    bands = compute_bands(g, np.zeros(3), BZGrid(2, 4))
    assert bands.flats == (FlatBand(value=pytest.approx(1.0, abs=1e-12), multiplicity=1),)
    union = spectrum_union(bands)
    want = star_components(2, 3)
    assert np.allclose(union.components, want, atol=1e-10)
    assert union.isolated == (pytest.approx(1.0, abs=1e-12),)
    assert abs(union.measure - 4.0 / 3.0) < 1e-10


def test_star_flat_multiplicity_grows_with_order():
    g = generate("star_decorated", d=3, nu=4)
    bands = compute_bands(g, np.zeros(4), BZGrid(3, 4))
    assert len(bands.flats) == 1
    assert bands.flats[0].multiplicity == 2
    assert abs(bands.flats[0].value - 1.0) < 1e-12


def test_fcc_band_edges_and_flat():
    bands = compute_bands(generate("fcc"), np.zeros(4), BZGrid(3, 8))
    lo1, hi1, lo4, hi4 = FCC_EDGES
    assert abs(bands.bands[0].lambda_min - lo1) < 1e-9
    assert abs(bands.bands[0].lambda_max - hi1) < 1e-9
    assert abs(bands.bands[3].lambda_min - lo4) < 1e-9
    assert abs(bands.bands[3].lambda_max - hi4) < 1e-9
    assert len(bands.flats) == 1
    assert bands.flats[0].multiplicity == 2


def test_subdivided_flats_and_full_union():
    g = generate("subdivided", d=2, n=2)
    bands = compute_bands(g, np.zeros(5), BZGrid(2, 8))
    values = sorted(f.value for f in bands.flats)
    assert np.allclose(values, subdivided_flats(2), atol=1e-10)
    assert all(f.multiplicity == 1 for f in bands.flats)
    union = spectrum_union(bands)
    assert np.allclose(union.components, [(0.0, 2.0)], atol=1e-10)


def test_gap_for_large_bcc_potential():
    bands = compute_bands(
        generate("bcc"), np.array([1.0, 0.0]), BZGrid(3, 8)
    )
    openings = gaps(bands)
    assert len(openings) == 1
    assert np.allclose(openings[0], (10.0 / 7.0, 2.0), atol=1e-9)


def test_bcc_top_edge_saturates_for_negative_potential():
    # at theta = (pi, pi, pi) the fiber decouples into (1 + q1, 10/7), so
    # the top edge never drops below 10/7 however negative q1 gets
    bands = compute_bands(
        generate("bcc"), np.array([-1.0, 0.0]), BZGrid(3, 8)
    )
    edges = bcc_band_edges(-1.0)
    assert abs(bands.bands[1].lambda_max - 10.0 / 7.0) < 1e-9
    assert abs(bands.bands[1].lambda_max - edges["upper"][1]) < 1e-9
    openings = gaps(bands)
    assert len(openings) == 1
    assert np.allclose(openings[0], (0.0, 6.0 / 7.0), atol=1e-9)


def test_no_gap_in_middle_regime():
    bands = compute_bands(
        generate("bcc"), np.array([0.2, 0.0]), BZGrid(3, 8)
    )
    assert gaps(bands) == ()


def test_flat_band_does_not_split_a_gap():
    g = generate("star_decorated", d=2, nu=3)
    bands = compute_bands(g, np.zeros(3), BZGrid(2, 4))
    openings = gaps(bands)
    assert len(openings) == 1
    assert np.allclose(openings[0], (2.0 / 3.0, 4.0 / 3.0), atol=1e-10)


def test_union_merge_tolerance():
    grid = BZGrid(1, 4)
    touching = BandStructure(
        (Band(0.0, 1.0, False), Band(1.0 + 5e-10, 2.0, False)), (), grid
    )
    assert len(spectrum_union(touching).components) == 1
    separated = BandStructure(
        (Band(0.0, 1.0, False), Band(1.0 + 1e-8, 2.0, False)), (), grid
    )
    assert len(spectrum_union(separated).components) == 2


def test_union_measure_sums_components():
    grid = BZGrid(1, 4)
    structure = BandStructure(
        (Band(0.0, 0.25, False), Band(0.5, 1.0, False), Band(0.75, 1.5, False)),
        (),
        grid,
    )
    union = spectrum_union(structure)
    assert np.allclose(union.components, [(0.0, 0.25), (0.5, 1.5)], atol=0)
    assert abs(union.measure - 1.25) < 1e-15


def test_effective_mass_of_lattices():
    for d in (1, 2, 3):
        g = generate("lattice", d=d)
        result = effective_mass(g, np.zeros(1))
        assert np.allclose(result.hessian, np.eye(d) / d, atol=1e-8)
        assert np.allclose(result.mass, d * np.eye(d), atol=1e-7)


def test_effective_mass_step_stability():
    g = generate("bcc")
    a = effective_mass(g, np.zeros(2), step=1e-3).mass
    b = effective_mass(g, np.zeros(2), step=2e-3).mass
    assert np.allclose(a, b, atol=1e-6)
    assert np.allclose(a, a.T, atol=1e-10)


def test_effective_mass_singular_direction_is_an_error():
    with pytest.raises(EffectiveMassError, match="M singular"):
        effective_mass(single_loop_plane(), np.zeros(1))


@pytest.mark.parametrize("name, kw", CATALOG_SAMPLE)
def test_effective_mass_matches_finite_difference_oracle(name, kw):
    g = generate(name, **kw)
    potentials = [np.zeros(g.order)] + [
        np.random.default_rng(seed).uniform(-1, 1, g.order) for seed in (1, 2)
    ]
    for q in potentials:
        hessian = effective_mass(g, q).hessian
        reference = lowest_band_hessian(
            lambda t: assemble_schrodinger(g, q, t), g.dimension
        )
        scale = np.max(np.abs(hessian))
        assert np.max(np.abs(hessian - reference)) <= 1e-5 * scale


def test_grid_eigenvalues_shape_and_range():
    g = generate("bcc")
    table = grid_eigenvalues(g, np.zeros(2), BZGrid(3, 4))
    assert table.shape == (64, 2)
    assert float(table.min()) > -1e-10
    assert float(table.max()) < 2.0 + 1e-10
    assert np.all(np.diff(table, axis=1) > -1e-12)


def test_thread_and_chunk_settings_do_not_change_results(monkeypatch):
    g = generate("star_decorated", d=2, nu=4)
    grid = BZGrid(2, 8)
    base = grid_eigenvalues(g, np.zeros(4), grid)
    monkeypatch.setattr(band_analysis, "_CHUNK", 16)
    monkeypatch.setenv("PERGRAPH_THREADS", "3")
    chunked = grid_eigenvalues(g, np.zeros(4), grid)
    assert np.array_equal(base, chunked)
    monkeypatch.setenv("PERGRAPH_THREADS", "1")
    serial = grid_eigenvalues(g, np.zeros(4), grid)
    assert np.array_equal(base, serial)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_mirror_is_an_involution_fixing_the_half_turn_points(d, k):
    grid = BZGrid(d, k)
    mirror = band_analysis._mirror(grid)
    index = np.arange(grid.count)
    assert np.array_equal(mirror[mirror], index)
    steps = np.indices((k,) * d).reshape(d, -1).T
    half_turns = np.all(2 * steps % k == 0, axis=1)
    assert np.array_equal(mirror == index, half_turns)
    assert np.count_nonzero(mirror == index) == 2**d
    assert np.array_equal(steps[mirror], -steps % k)


def _count_solves(monkeypatch) -> list[int]:
    """Record the stack size of every batched solve made by a sweep."""
    seen: list[int] = []
    original = band_analysis.hermitian_eigen_batch

    def counted(matrices):
        seen.append(len(matrices))
        return original(matrices)

    monkeypatch.setattr(band_analysis, "hermitian_eigen_batch", counted)
    return seen


@pytest.mark.parametrize("d, k", [(1, 8), (2, 4), (2, 8), (3, 2), (3, 4)])
def test_grid_sweep_solves_one_point_per_mirror_pair(monkeypatch, d, k):
    g = generate("lattice", d=d)
    seen = _count_solves(monkeypatch)
    table = grid_eigenvalues(g, np.zeros(1), BZGrid(d, k))
    assert table.shape == (k**d, 1)
    # every axis of the lattice is its own sign-flip class
    assert sum(seen) == (k // 2 + 1) ** d


@pytest.mark.parametrize("name", ["bcc", "fcc"])
@pytest.mark.parametrize("k", [4, 8])
def test_grid_sweep_keeps_the_half_sweep_on_one_class(monkeypatch, name, k):
    g = generate(name)
    seen = _count_solves(monkeypatch)
    table = grid_eigenvalues(g, np.zeros(g.order), BZGrid(3, k))
    assert table.shape == (k**3, g.order)
    assert sum(seen) == (k**3 + 8) // 2


def test_grid_sweep_solves_one_point_per_sign_flip_orbit(monkeypatch):
    g = generate("subdivided", d=3, n=4)
    seen = _count_solves(monkeypatch)
    table = grid_eigenvalues(g, np.zeros(g.order), BZGrid(3, 12))
    assert table.shape == (12**3, 13)
    assert sum(seen) == 7**3


def test_mixed_classes_sweep_matches_the_full_sweep(monkeypatch, rng):
    g = mixed_class_space()
    q = rng.uniform(-2.0, 2.0, g.order)
    grid = BZGrid(3, 4)
    seen = _count_solves(monkeypatch)
    table = grid_eigenvalues(g, q, grid)
    assert sum(seen) == 3 * 10
    full = np.linalg.eigvalsh(fibers(g, grid.thetas(), 1.0 + q))
    scale = max(1.0, float(np.max(np.abs(full))))
    assert np.max(np.abs(table - full)) <= 1e-13 * scale


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_partial_mirror_negates_only_its_axes(d, k):
    grid = BZGrid(d, k)
    steps = np.indices((k,) * d).reshape(d, -1).T
    for axes in itertools.chain.from_iterable(
        itertools.combinations(range(d), r) for r in range(d + 1)
    ):
        mirror = band_analysis._mirror(grid, axes)
        want = steps.copy()
        want[:, list(axes)] = -want[:, list(axes)] % k
        assert np.array_equal(steps[mirror], want)
    assert np.array_equal(
        band_analysis._mirror(grid, range(d)), band_analysis._mirror(grid)
    )


def test_grid_dimension_must_match_the_graph():
    with pytest.raises(ValueError, match="grid dimension 2 differs"):
        grid_eigenvalues(generate("bcc"), np.zeros(2), BZGrid(2, 4))


def _certified_flips(graph):
    """Every nonempty union of sign-flip classes, as a list of axes."""
    classes = sign_flip_classes(graph)
    for chosen in itertools.product((False, True), repeat=len(classes)):
        axes = [j for axes, on in zip(classes, chosen) if on for j in axes]
        if axes:
            yield axes


def _check_random_graphs(seed: int, count: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 4))
        g = random_periodic_graph(rng, d, int(rng.integers(1, 6)))
        diagonal = 1.0 + np.array(g.potentials)
        thetas = rng.uniform(-math.pi, math.pi, (6, d))
        values = np.linalg.eigvalsh(fibers(g, thetas, diagonal))
        tol = 1e-13 * max(1.0, float(np.max(np.abs(values))))
        for axes in _certified_flips(g):
            flipped = thetas.copy()
            flipped[:, axes] *= -1.0
            moved = np.linalg.eigvalsh(fibers(g, flipped, diagonal))
            assert np.max(np.abs(moved - values)) <= tol, (g, axes)
        grid = BZGrid(d, 4 if d == 3 else 6)
        table = grid_eigenvalues(g, None, grid)
        full = band_analysis.hermitian_eigen_batch(
            fibers(g, grid.thetas(), diagonal)
        )
        tol = 1e-13 * max(1.0, float(np.max(np.abs(full))))
        assert np.max(np.abs(table - full)) <= tol, g


def test_certified_flips_keep_the_spectrum_of_random_graphs():
    _check_random_graphs(seed=1, count=100)


@pytest.mark.slow
def test_certified_flips_keep_the_spectrum_of_many_random_graphs():
    _check_random_graphs(seed=2, count=1000)


@pytest.mark.parametrize("name, kw", CATALOG_SAMPLE)
def test_half_sweep_matches_the_full_sweep(rng, name, kw):
    g = generate(name, **kw)
    q = rng.uniform(-1.0, 1.0, g.order)
    grid = BZGrid(g.dimension, 4 if g.dimension == 3 else 8)
    table = grid_eigenvalues(g, q, grid)
    full = band_analysis.hermitian_eigen_batch(
        fibers(g, grid.thetas(), 1.0 + q)
    )
    scale = max(1.0, float(np.max(np.abs(full))))
    assert table.shape == full.shape
    assert np.max(np.abs(table - full)) <= 1e-13 * scale


@pytest.mark.parametrize("q1", [-0.6, -0.1, 0.3, 0.8])
def test_half_sweep_bcc_edges_match_closed_form(q1):
    bands = compute_bands(generate("bcc"), np.array([q1, 0.0]), BZGrid(3, 8))
    edges = bcc_band_edges(q1)
    got = [(b.lambda_min, b.lambda_max) for b in bands.bands]
    assert np.allclose(got[0], edges["lower"], atol=1e-10)
    assert np.allclose(got[1], edges["upper"], atol=1e-10)


def test_grid_rejects_fewer_than_two_points():
    with pytest.raises(ValueError, match="at least 2 points per axis, got 0"):
        BZGrid(2, 0)
