"""Brillouin-zone sampling: bands, flat bands, spectrum union, effective mass.

Band endpoints are grid minima and maxima of the sorted fiber eigenvalues.
The grid always contains both 0 and the half-turn point, where the extrema of
all catalog families are attained, so endpoints there are exact up to solver
rounding. Grid evaluation runs in deterministic grid-index order, so results
are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .fiber_linalg import (
    assemble_schrodinger,
    fibers,
    hermitian_eigen,
    hermitian_eigen_batch,
    potential_vector,
)
from .graph_core import FundamentalGraph

FLAT_TOL = 1e-8
MERGE_TOL = 1e-9
_CHUNK = 4096


class EffectiveMassError(RuntimeError):
    """The effective-mass tensor is not defined for this input."""


@dataclass(frozen=True)
class BZGrid:
    """Uniform grid 2*pi*k/K per axis; K must be even so pi is a grid point."""

    dimension: int
    points_per_axis: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("grid dimension must be positive")
        if self.points_per_axis < 2 or self.points_per_axis % 2 != 0:
            raise ValueError("grid must be even to include π")

    @property
    def count(self) -> int:
        return self.points_per_axis ** self.dimension

    def thetas(self) -> np.ndarray:
        """All grid points as an array of shape (count, dimension)."""
        k = self.points_per_axis
        grids = np.indices((k,) * self.dimension).reshape(self.dimension, -1).T
        return grids * (2.0 * np.pi / k)


@dataclass(frozen=True)
class Band:
    lambda_min: float
    lambda_max: float
    flat: bool

    @property
    def width(self) -> float:
        return self.lambda_max - self.lambda_min


@dataclass(frozen=True)
class FlatBand:
    value: float
    multiplicity: int


@dataclass(frozen=True)
class BandStructure:
    bands: tuple[Band, ...]
    flats: tuple[FlatBand, ...]
    grid: BZGrid


@dataclass(frozen=True)
class SpectrumUnion:
    """Disjoint closed components of the non-flat bands, plus isolated flats."""

    components: tuple[tuple[float, float], ...]
    isolated: tuple[float, ...]
    measure: float


@dataclass(frozen=True)
class EffectiveMass:
    """Hessian M of the lowest band at theta = 0 and its inverse m."""

    hessian: np.ndarray
    mass: np.ndarray


def grid_eigenvalues(graph: FundamentalGraph, Q, grid: BZGrid) -> np.ndarray:
    """Sorted fiber eigenvalues at every grid point, in grid index order."""
    diagonal = 1.0 + potential_vector(graph, Q)
    thetas = grid.thetas()
    return np.vstack(
        [
            hermitian_eigen_batch(fibers(graph, thetas[i : i + _CHUNK], diagonal))
            for i in range(0, len(thetas), _CHUNK)
        ]
    )


def compute_bands(
    graph: FundamentalGraph, Q, grid: BZGrid, flat_tol: float = FLAT_TOL
) -> BandStructure:
    """Grid extrema of every sorted eigenvalue branch, with flat-band grouping.

    A band is flagged flat when its grid width is below flat_tol; coincident
    flat bands (values within flat_tol on consecutive branches) are grouped
    into one flat band with a multiplicity.
    """
    return bands_from_table(grid_eigenvalues(graph, Q, grid), grid, flat_tol)


def bands_from_table(
    table: np.ndarray, grid: BZGrid, flat_tol: float = FLAT_TOL
) -> BandStructure:
    """Band structure of a grid_eigenvalues table, as in compute_bands."""
    lo = table.min(axis=0)
    hi = table.max(axis=0)
    bands = tuple(
        Band(float(l), float(h), bool(h - l < flat_tol))
        for l, h in zip(lo, hi)
    )
    return BandStructure(bands, _group_flats(bands, flat_tol), grid)


def _group_flats(
    bands: tuple[Band, ...], flat_tol: float
) -> tuple[FlatBand, ...]:
    flats: list[FlatBand] = []
    anchor: float | None = None
    previous = -2
    for n, band in enumerate(bands):
        if not band.flat:
            continue
        value = 0.5 * (band.lambda_min + band.lambda_max)
        if anchor is not None and n == previous + 1 and abs(value - anchor) <= flat_tol:
            last = flats[-1]
            flats[-1] = FlatBand(last.value, last.multiplicity + 1)
        else:
            flats.append(FlatBand(value, 1))
            anchor = value
        previous = n
    return tuple(flats)


def spectrum_union(
    bands: BandStructure, merge_tol: float = MERGE_TOL
) -> SpectrumUnion:
    """Merge non-flat bands into disjoint closed intervals.

    Flat-band values lying outside every component are reported as isolated
    points; they contribute no measure either way.
    """
    intervals = sorted(
        (b.lambda_min, b.lambda_max) for b in bands.bands if not b.flat
    )
    merged: list[list[float]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1] + merge_tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    components = tuple((lo, hi) for lo, hi in merged)
    isolated = tuple(
        f.value
        for f in bands.flats
        if not any(
            lo - merge_tol <= f.value <= hi + merge_tol for lo, hi in components
        )
    )
    measure = fsum(hi - lo for lo, hi in components)
    return SpectrumUnion(components, isolated, measure)


def gaps(
    bands: BandStructure, merge_tol: float = MERGE_TOL
) -> tuple[tuple[float, float], ...]:
    """Open intervals between consecutive components of the non-flat union.

    Isolated flat points inside a gap do not split it.
    """
    components = spectrum_union(bands, merge_tol).components
    return tuple(
        (components[k][1], components[k + 1][0])
        for k in range(len(components) - 1)
    )


def effective_mass(
    graph: FundamentalGraph, Q, step: float = 1e-3
) -> EffectiveMass:
    """Effective-mass tensor at the bottom of the lowest band.

    The Hessian of the lowest eigenvalue branch at theta = 0 is estimated by
    central second differences with one Richardson extrapolation level
    (steps h and h/2), then symmetrized and inverted.
    """
    q = potential_vector(graph, Q)
    d = graph.dimension

    def lowest(theta: np.ndarray) -> float:
        fiber = assemble_schrodinger(graph, q, theta)
        return float(hermitian_eigen(fiber, with_vectors=False).values[0])

    at_zero = hermitian_eigen(
        assemble_schrodinger(graph, q, np.zeros(d)), with_vectors=False
    ).values
    if graph.order > 1 and at_zero[1] - at_zero[0] <= 1e-8:
        raise EffectiveMassError("lowest eigenvalue at theta = 0 is degenerate")
    base = float(at_zero[0])

    coarse = _hessian(lowest, d, step, base)
    fine = _hessian(lowest, d, 0.5 * step, base)
    hessian = (4.0 * fine - coarse) / 3.0
    hessian = 0.5 * (hessian + hessian.T)

    spectrum = hermitian_eigen(
        hessian.astype(complex), with_vectors=False
    ).values
    smallest = float(np.min(np.abs(spectrum)))
    largest = float(np.max(np.abs(spectrum)))
    if smallest == 0.0 or largest / smallest > 1e12:
        raise EffectiveMassError("effective mass undefined (M singular)")
    return EffectiveMass(hessian, np.linalg.inv(hessian))


def _hessian(f, d: int, h: float, base: float) -> np.ndarray:
    m = np.empty((d, d))
    for i in range(d):
        e_i = np.zeros(d)
        e_i[i] = h
        m[i, i] = (f(e_i) - 2.0 * base + f(-e_i)) / (h * h)
    for i in range(d):
        for j in range(i + 1, d):
            shift = np.zeros(d)
            shift[i] = h
            shift[j] = h
            opposite = np.zeros(d)
            opposite[i] = h
            opposite[j] = -h
            cross = (
                f(shift) - f(opposite) - f(-opposite) + f(-shift)
            ) / (4.0 * h * h)
            m[i, j] = cross
            m[j, i] = cross
    return m
