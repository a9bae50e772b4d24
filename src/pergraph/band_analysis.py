"""Brillouin-zone sampling: bands, flat bands, spectrum union, effective mass.

Band endpoints are grid minima and maxima of the sorted fiber eigenvalues.
The grid always contains both 0 and the half-turn point, where the extrema of
all catalog families are attained, so endpoints there are exact up to solver
rounding. The potential is real, so time reversal gives H(-theta) =
conj H(theta), an exact certificate that both points share one spectrum:
sweeps diagonalize one point of each {theta, -theta} pair, in grid-index
order, and copy its row to the mirror point, so results are bit-stable and
the table stays complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .fiber_linalg import (
    assemble_schrodinger,
    fiber_derivatives,
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
        if self.points_per_axis % 2 != 0:
            raise ValueError("grid must be even to include π")
        if self.points_per_axis < 2:
            raise ValueError(
                "grid needs at least 2 points per axis, "
                f"got {self.points_per_axis}"
            )

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
    """Sorted fiber eigenvalues at every grid point, in grid index order.

    The potential is real, so H(-theta) = conj H(theta) and both have the
    same spectrum. Of each pair {k, -k mod K} of grid indices only the one
    with the smaller flat index is diagonalized, and its row is copied to
    the other: (K^d + 2^d) / 2 solves instead of K^d.
    """
    diagonal = 1.0 + potential_vector(graph, Q)
    keep, row = np.unique(
        np.minimum(np.arange(grid.count), _mirror(grid)), return_inverse=True
    )
    thetas = grid.thetas()[keep]
    solved = np.vstack(
        [
            hermitian_eigen_batch(fibers(graph, thetas[i : i + _CHUNK], diagonal))
            for i in range(0, len(thetas), _CHUNK)
        ]
    )
    return solved[row]


def _mirror(grid: BZGrid) -> np.ndarray:
    """Flat index of the grid point -k mod K, for every grid index k."""
    shape = (grid.points_per_axis,) * grid.dimension
    return np.ravel_multi_index(
        (-np.indices(shape)) % grid.points_per_axis, shape
    ).reshape(-1)


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

    The Hessian M of the lowest branch at theta = 0 comes from one
    eigendecomposition H(0) phi_n = lambda_n phi_n, with lambda_0 simple, by
    second-order perturbation theory (Kato, Perturbation Theory for Linear
    Operators, II.2): M_kl = <phi_0, d_k d_l H phi_0> - 2 Re sum_{n>=1}
    <phi_0, d_k H phi_n> <phi_n, d_l H phi_0> / (lambda_n - lambda_0).
    M is symmetrized and inverted. `step` is ignored, kept for compatibility.
    """
    fiber = assemble_schrodinger(graph, Q, np.zeros(graph.dimension))
    decomposition = hermitian_eigen(fiber)
    values, vectors = decomposition.values, decomposition.vectors
    if graph.order > 1 and values[1] - values[0] <= 1e-8:
        raise EffectiveMassError("lowest eigenvalue at theta = 0 is degenerate")
    first, second = fiber_derivatives(graph)
    phi = vectors[:, 0]
    # coupling[k, n] = <phi_n, d_k H phi_0>
    coupling = (first @ phi) @ vectors.conj()
    excited = coupling[:, 1:].conj() / (values[1:] - values[0])
    hessian = ((second @ phi) @ phi.conj()).real
    hessian -= 2.0 * (excited @ coupling[:, 1:].T).real
    hessian = 0.5 * (hessian + hessian.T)
    spectrum = hermitian_eigen(
        hessian.astype(complex), with_vectors=False
    ).values
    smallest = float(np.min(np.abs(spectrum)))
    largest = float(np.max(np.abs(spectrum)))
    if smallest == 0.0 or largest / smallest > 1e12:
        raise EffectiveMassError("effective mass undefined (M singular)")
    return EffectiveMass(hessian, np.linalg.inv(hessian))
