"""Executable checkers for the spectral estimates and classifications.

Every checker returns a plain dict whose "passed" entry is recomputable from
the other reported numbers. Inequalities are tested with an additive slack
(default 1e-9) that absorbs eigensolver rounding; the grids used by the
acceptance suite place band extrema exactly on grid points, so the slack is
never load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf

import numpy as np

from .band_analysis import (
    FLAT_TOL,
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
from .fiber_linalg import (
    _degree_roots,
    assemble_laplacian,
    assemble_schrodinger,
    fiber_offset,
    hermitian_eigen,
    potential_vector,
)
from .graph_core import (
    FundamentalGraph,
    GraphError,
    bridges,
    exact_quasimomentum,
    is_bipartite,
    is_loop_graph,
    zeta,
)

SLACK = 1e-9


class EstimateError(RuntimeError):
    """A structural guarantee failed numerically."""


def perron_ground_state(
    graph: FundamentalGraph, Q=None
) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue of H(0) and its positive unit eigenvector.

    The lowest eigenvalue of the zero-fiber operator on a connected graph is
    simple with a sign-definite eigenvector; the vector is rotated to be
    real and positive, and both facts are verified.
    """
    q = potential_vector(graph, Q)
    fiber = assemble_schrodinger(graph, q, np.zeros(graph.dimension))
    decomposition = hermitian_eigen(fiber)
    values = decomposition.values
    if graph.order > 1 and values[1] - values[0] <= 1e-8:
        raise EstimateError("lowest eigenvalue of H(0) is not simple")
    psi = decomposition.vectors[:, 0]
    k = int(np.argmax(np.abs(psi)))
    psi = np.real(psi * np.conj(psi[k]) / abs(psi[k]))
    if float(np.min(psi)) <= -1e-12:
        raise EstimateError("ground state of H(0) has a non-positive component")
    return float(values[0]), psi / np.linalg.norm(psi)


def perron_contrast(graph: FundamentalGraph, psi: np.ndarray) -> float:
    """Constant c0: spread of the ground state relative to sqrt(degree)."""
    ratios = psi / _degree_roots(graph)
    smallest = float(np.min(ratios))
    return inf if smallest == 0.0 else float(np.max(ratios)) / smallest


def check_measure_bound(
    graph: FundamentalGraph, Q, grid: BZGrid, slack: float = SLACK
) -> dict:
    """Chain |sigma(H)| <= sum of band lengths <= 2 Tr B(0) <= 2 zeta."""
    q = potential_vector(graph, Q)
    return _measure_bound(graph, q, compute_bands(graph, q, grid), slack)


def _measure_bound(
    graph: FundamentalGraph, q: np.ndarray, bands: BandStructure, slack: float = SLACK
) -> dict:
    union = spectrum_union(bands)
    band_sum = fsum(b.width for b in bands.bands)
    bridge_at_zero, _ = fiber_offset(graph, np.zeros(graph.dimension), q)
    trace_bound = 2.0 * float(np.abs(bridge_at_zero).sum())
    two_zeta = 2.0 * zeta(graph).value
    passed = (
        union.measure <= band_sum + slack
        and band_sum <= trace_bound + slack
        and trace_bound <= two_zeta + slack
    )
    return {
        "passed": passed,
        "measure": union.measure,
        "band_length_sum": band_sum,
        "trace_bound": trace_bound,
        "two_zeta": two_zeta,
    }


def check_gap_sum(
    graph: FundamentalGraph, Q, grid: BZGrid, slack: float = SLACK
) -> dict:
    """Total gap length against its two lower bounds.

    The gap sum must reach span - 2 zeta, where span is the full spectral
    width of H, and the span itself must reach the potential-independent
    floor |top of sigma(Laplacian) - (max Q - min Q)|.
    """
    q = potential_vector(graph, Q)
    laplacian_bands = compute_bands(graph, np.zeros(graph.order), grid)
    return _gap_sum(graph, q, compute_bands(graph, q, grid), laplacian_bands, slack)


def _gap_sum(
    graph: FundamentalGraph,
    q: np.ndarray,
    bands: BandStructure,
    laplacian_bands: BandStructure,
    slack: float = SLACK,
) -> dict:
    gap_list = gaps(bands)
    gap_sum = fsum(hi - lo for lo, hi in gap_list)
    span = bands.bands[-1].lambda_max - bands.bands[0].lambda_min
    two_zeta = 2.0 * zeta(graph).value
    laplacian_top = laplacian_bands.bands[-1].lambda_max
    span_floor = abs(laplacian_top - (float(q.max()) - float(q.min())))
    passed = gap_sum >= span - two_zeta - slack and span >= span_floor - slack
    return {
        "passed": passed,
        "gap_sum": gap_sum,
        "gaps": gap_list,
        "span": span,
        "gap_floor": span - two_zeta,
        "span_floor": span_floor,
        "two_zeta": two_zeta,
    }


def check_first_band(
    graph: FundamentalGraph, Q, grid: BZGrid, slack: float = SLACK
) -> dict:
    """Two-sided first-band estimate through the ground-state contrast.

    The first band of H must have a width between c0^-2 and c0^2 times the
    width of the first Laplacian band, and must not collapse to a point.
    """
    q = potential_vector(graph, Q)
    laplacian_bands = compute_bands(graph, np.zeros(graph.order), grid)
    bands = compute_bands(graph, q, grid)
    return _first_band(bands, laplacian_bands, _ground_contrast(graph, q), slack)


def _ground_contrast(graph: FundamentalGraph, q: np.ndarray) -> float:
    """c0 of the ground state of H(0) with potential q."""
    return perron_contrast(graph, perron_ground_state(graph, q)[1])


def _first_band(
    bands: BandStructure,
    laplacian_bands: BandStructure,
    c0: float,
    slack: float = SLACK,
) -> dict:
    width_h = bands.bands[0].width
    width_d = laplacian_bands.bands[0].width
    lower = width_d / (c0 * c0)
    upper = width_d * (c0 * c0)
    passed = (
        lower - slack <= width_h <= upper + slack and width_h > slack
    )
    return {
        "passed": passed,
        "c0": c0,
        "sigma1_laplacian": width_d,
        "sigma1_schrodinger": width_h,
        "lower": lower,
        "upper": upper,
    }


def check_effective_mass_bound(
    graph: FundamentalGraph, Q, step: float = 1e-3, tol: float = 1e-6
) -> dict:
    """Matrix-order sandwich of the effective mass between scaled copies.

    Both c0^2 m0 - m and m - c0^-2 m0 must be positive semidefinite within
    tol, where m0 belongs to the Laplacian and m to H. When either mass is
    undefined, or c0^2 overflows, the check is skipped with a reason.
    """
    return _effective_mass_bound(graph, potential_vector(graph, Q), None, step, tol)


def _effective_mass_bound(
    graph: FundamentalGraph,
    q: np.ndarray,
    c0: float | None,
    step: float = 1e-3,
    tol: float = 1e-6,
) -> dict:
    # c0 = None computes the contrast after the masses, so a degenerate H(0)
    # is skipped by effective_mass instead of raised by perron_ground_state
    try:
        m0 = effective_mass(graph, np.zeros(graph.order), step).mass
        m = effective_mass(graph, q, step).mass
    except EffectiveMassError as err:
        return {"passed": None, "skipped": True, "reason": str(err)}
    if c0 is None:
        c0 = _ground_contrast(graph, q)
    if not np.isfinite(c0 * c0):
        reason = f"ground-state contrast c0 = {c0:g} is too large"
        return {"passed": None, "skipped": True, "reason": reason}
    upper_gap = c0 * c0 * m0 - m
    lower_gap = m - m0 / (c0 * c0)
    upper_margin = float(
        hermitian_eigen(upper_gap.astype(complex), with_vectors=False).values[0]
    )
    lower_margin = float(
        hermitian_eigen(lower_gap.astype(complex), with_vectors=False).values[0]
    )
    return {
        "passed": upper_margin >= -tol and lower_margin >= -tol,
        "skipped": False,
        "c0": c0,
        "mass": m,
        "laplacian_mass": m0,
        "upper_margin": upper_margin,
        "lower_margin": lower_margin,
    }


def check_loop_graph(
    graph: FundamentalGraph, Q, grid: BZGrid, slack: float = SLACK
) -> dict:
    """Band-endpoint formulas available on loop graphs.

    Left endpoints must equal the eigenvalues at theta = 0. When an exact
    quasimomentum theta0 exists, right endpoints must equal the eigenvalues at
    theta0 and the band lengths must sum to 2 zeta; if additionally all
    bridges sit at one vertex, the spectrum measure equals the summed length
    of the non-flat bands (flat bands carry no measure, however narrow).
    """
    if not is_loop_graph(graph):
        raise GraphError("check_loop_graph requires a loop graph")
    q = potential_vector(graph, Q)
    return _loop_graph(graph, q, compute_bands(graph, q, grid), slack)


def _loop_graph(
    graph: FundamentalGraph, q: np.ndarray, bands: BandStructure, slack: float = SLACK
) -> dict:
    at_zero = hermitian_eigen(
        assemble_schrodinger(graph, q, np.zeros(graph.dimension)),
        with_vectors=False,
    ).values
    left_defect = max(
        abs(band.lambda_min - at_zero[n]) for n, band in enumerate(bands.bands)
    )

    theta0 = exact_quasimomentum(graph)
    band_sum = fsum(b.width for b in bands.bands)
    nonflat_sum = fsum(b.width for b in bands.bands if not b.flat)
    two_zeta = 2.0 * zeta(graph).value
    right_defect = None
    sum_defect = None
    if theta0 is not None:
        at_theta0 = hermitian_eigen(
            assemble_schrodinger(graph, q, np.array(theta0)), with_vectors=False
        ).values
        right_defect = max(
            abs(band.lambda_max - at_theta0[n])
            for n, band in enumerate(bands.bands)
        )
        sum_defect = abs(band_sum - two_zeta)

    bridge_tails = {e.tail for e in bridges(graph).directed}
    single_vertex = len(bridge_tails) <= 1
    measure_defect = None
    if single_vertex:
        measure_defect = abs(spectrum_union(bands).measure - nonflat_sum)

    defects = [left_defect, right_defect, sum_defect, measure_defect]
    passed = all(d is None or d <= slack for d in defects)
    return {
        "passed": passed,
        "exact": theta0 is not None,
        "theta0": theta0,
        "single_vertex_bridges": single_vertex,
        "left_defect": left_defect,
        "right_defect": right_defect,
        "band_length_sum": band_sum,
        "nonflat_length_sum": nonflat_sum,
        "two_zeta": two_zeta,
        "sum_defect": sum_defect,
        "measure_defect": measure_defect,
    }


def _lattice_like(graph: FundamentalGraph) -> bool:
    # Single vertex whose loops realize each coordinate direction exactly once.
    if graph.order != 1:
        return False
    seen = sorted(tuple(abs(c) for c in e.index) for e in graph.edges)
    expected = sorted(
        tuple(1 if k == j else 0 for k in range(graph.dimension))
        for j in range(graph.dimension)
    )
    return seen == expected


def check_bipartite(
    graph: FundamentalGraph,
    Q,
    grid: BZGrid,
    slack: float = SLACK,
    flat_tol: float = FLAT_TOL,
) -> dict:
    """Spectral consequences of bipartiteness for the Laplacian.

    On a bipartite quotient: fiber spectra are symmetric about 1, a part-size
    difference of m forces a flat band at 1 of multiplicity at least m, and
    the gap lengths sum to at least 2(1 - zeta). A single-vertex graph whose
    loops realize the coordinate directions covers a bipartite periodic graph
    even though its quotient is not bipartite; its band endpoints must then be
    the eigenvalues of the zero fiber and of its reflection about 1.
    """
    table = grid_eigenvalues(graph, np.zeros(graph.order), grid)
    laplacian_bands = bands_from_table(table, grid, flat_tol)
    return _bipartite(graph, table, laplacian_bands, slack, flat_tol)


def _bipartite(
    graph: FundamentalGraph,
    table: np.ndarray,
    laplacian_bands: BandStructure,
    slack: float = SLACK,
    flat_tol: float = FLAT_TOL,
) -> dict:
    parts = is_bipartite(graph)
    result: dict = {
        "bipartite": parts is not None,
        "parts": parts,
        "applicable": False,
        "passed": True,
    }
    checks: list[bool] = []
    if parts is not None:
        result["applicable"] = True
        symmetry_defect = float(
            np.max(np.abs(table + table[:, ::-1] - 2.0))
        )
        result["symmetry_defect"] = symmetry_defect
        checks.append(symmetry_defect <= slack)

        difference = abs(len(parts[0]) - len(parts[1]))
        result["part_difference"] = difference
        if difference > 0:
            multiplicity = sum(
                f.multiplicity
                for f in laplacian_bands.flats
                if abs(f.value - 1.0) <= flat_tol
            )
            result["flat_multiplicity"] = multiplicity
            checks.append(multiplicity >= difference)

        gap_sum = fsum(hi - lo for lo, hi in gaps(laplacian_bands))
        gap_floor = 2.0 * (1.0 - zeta(graph).value)
        result["gap_sum"] = gap_sum
        result["gap_floor"] = gap_floor
        checks.append(gap_sum >= gap_floor - slack)

    if _lattice_like(graph):
        result["applicable"] = True
        mu = hermitian_eigen(
            assemble_laplacian(graph, np.zeros(graph.dimension)),
            with_vectors=False,
        ).values
        mirrored = (2.0 - mu)[::-1]
        endpoint_defect = max(
            max(abs(band.lambda_min - mu[n]), abs(band.lambda_max - mirrored[n]))
            for n, band in enumerate(laplacian_bands.bands)
        )
        result["endpoint_defect"] = endpoint_defect
        checks.append(endpoint_defect <= slack)

    result["passed"] = all(checks) if checks else True
    return result


@dataclass(frozen=True)
class SpectralReport:
    """All numbers behind the checker verdicts for one (graph, Q, grid)."""

    dimension: int
    order: int
    zeta: float
    two_zeta: float
    trace_bound: float
    measure: float
    band_length_sum: float
    gap_list: tuple[tuple[float, float], ...]
    gap_sum: float
    gap_floor: float
    span_floor: float
    c0: float
    first_band: dict
    effective_mass_bound: dict
    loop: bool
    exact: bool
    bipartite: bool
    bands: BandStructure
    union: tuple[tuple[float, float], ...]
    isolated: tuple[float, ...]
    verdicts: dict


def build_report(graph: FundamentalGraph, Q, grid: BZGrid) -> SpectralReport:
    """Run every applicable checker and collect the numbers.

    H and the Laplacian are each swept once, and the ground state of H(0) is
    computed once; every checker reads those results.
    """
    q = potential_vector(graph, Q)
    bands = compute_bands(graph, q, grid)
    laplacian_table = grid_eigenvalues(graph, np.zeros(graph.order), grid)
    laplacian_bands = bands_from_table(laplacian_table, grid)
    union = spectrum_union(bands)
    measure = _measure_bound(graph, q, bands)
    gap = _gap_sum(graph, q, bands, laplacian_bands)
    c0 = _ground_contrast(graph, q)
    first = _first_band(bands, laplacian_bands, c0)
    mass = _effective_mass_bound(graph, q, c0)
    loop = is_loop_graph(graph)
    loop_result = _loop_graph(graph, q, bands) if loop else None
    bipartite_result = _bipartite(graph, laplacian_table, laplacian_bands)
    verdicts = {
        "measure_bound": measure["passed"],
        "gap_sum": gap["passed"],
        "first_band": first["passed"],
        "effective_mass_bound": mass["passed"],
        "loop_graph": None if loop_result is None else loop_result["passed"],
        "bipartite": (
            bipartite_result["passed"] if bipartite_result["applicable"] else None
        ),
    }
    return SpectralReport(
        dimension=graph.dimension,
        order=graph.order,
        zeta=zeta(graph).value,
        two_zeta=measure["two_zeta"],
        trace_bound=measure["trace_bound"],
        measure=union.measure,
        band_length_sum=measure["band_length_sum"],
        gap_list=gap["gaps"],
        gap_sum=gap["gap_sum"],
        gap_floor=gap["gap_floor"],
        span_floor=gap["span_floor"],
        c0=first["c0"],
        first_band=first,
        effective_mass_bound=mass,
        loop=loop,
        exact=loop and exact_quasimomentum(graph) is not None,
        bipartite=bipartite_result["bipartite"],
        bands=bands,
        union=union.components,
        isolated=union.isolated,
        verdicts=verdicts,
    )
