"""Independent reference spectra for checking pergraph's outputs.

Nothing here imports pergraph. The catalog graphs are rebuilt from their
definitions, the Floquet fibers are assembled with numpy, and every fiber is
diagonalized by LAPACK through numpy.linalg.eigvalsh.

A fiber of the normalized Schrodinger operator H = Delta + Q at
quasimomentum theta has 1 + Q_u on the diagonal and, for every edge
representative (u, v, index), -exp(-i <index, theta>) / sqrt(kappa_u kappa_v)
at (u, v) plus the conjugate at (v, u); a loop therefore contributes
-2 cos(<index, theta>) / kappa_u to the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

# Agreement required between the program and the reference: the package's
# own estimate slack, so a disagreement here would also move a verdict.
TOL = 1e-9
FLAT_TOL = 1e-8
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class Graph:
    """Quotient graph: vertex ids in order and (tail, head, index) edges."""

    dimension: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]

    def degrees(self) -> np.ndarray:
        pos = {v: k for k, v in enumerate(self.vertices)}
        deg = np.zeros(len(self.vertices))
        for u, v, _ in self.edges:
            deg[pos[u]] += 1
            deg[pos[v]] += 1
        return deg

    def payload(self) -> dict:
        """The graph-file JSON object read by `pergraph ... graph.json`."""
        return {
            "dimension": self.dimension,
            "vertices": [{"id": v} for v in self.vertices],
            "edges": [
                {"u": u, "v": v, "index": list(index)}
                for u, v, index in self.edges
            ],
        }


def _unit(d: int, j: int) -> tuple[int, ...]:
    return tuple(int(k == j) for k in range(d))


def lattice(d: int) -> Graph:
    """One vertex with one loop per coordinate direction."""
    return Graph(d, (1,), tuple((1, 1, _unit(d, j)) for j in range(d)))


def star_decorated(d: int, nu: int) -> Graph:
    """Vertex nu carries the d lattice loops and nu - 1 pendant spokes."""
    zero = (0,) * d
    spokes = tuple((j, nu, zero) for j in range(1, nu))
    loops = tuple((nu, nu, _unit(d, j)) for j in range(d))
    return Graph(d, tuple(range(1, nu + 1)), spokes + loops)


def subdivided(d: int, n: int) -> Graph:
    """Each lattice edge replaced by a chain of n midpoints; center is last."""
    center = d * n + 1
    zero = (0,) * d
    edges = []
    for j in range(d):
        chain = [center, *range(j * n + 1, j * n + n + 1), center]
        for a, b in zip(chain[:-2], chain[1:-1]):
            edges.append((a, b, zero))
        edges.append((chain[-2], center, _unit(d, j)))
    return Graph(d, tuple(range(1, center + 1)), tuple(edges))


FAMILIES = {
    "lattice": lattice,
    "star_decorated": star_decorated,
    "subdivided": subdivided,
}


def grid(d: int, k: int) -> np.ndarray:
    """All points 2 pi (k_1, .., k_d) / K of the torus grid, shape (K^d, d)."""
    axes = np.meshgrid(*([np.arange(k) * (2.0 * np.pi / k)] * d), indexing="ij")
    return np.stack([a.reshape(-1) for a in axes], axis=1)


def fibers(graph: Graph, q: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """H(theta) for every row of thetas, shape (m, nu, nu)."""
    pos = {v: k for k, v in enumerate(graph.vertices)}
    roots = np.sqrt(graph.degrees())
    nu = len(graph.vertices)
    h = np.zeros((thetas.shape[0], nu, nu), dtype=complex)
    h[:, np.arange(nu), np.arange(nu)] = 1.0 + np.asarray(q, dtype=float)
    for u, v, index in graph.edges:
        i, j = pos[u], pos[v]
        w = np.exp(-1j * (thetas @ np.array(index, dtype=float)))
        w /= roots[i] * roots[j]
        h[:, i, j] -= w
        h[:, j, i] -= w.conj()
    return h


def band_edges(graph: Graph, q, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid minimum and maximum of every sorted eigenvalue branch."""
    table = np.linalg.eigvalsh(fibers(graph, q, grid(graph.dimension, k)))
    return table.min(axis=0), table.max(axis=0)


def lattice_band_edges(q) -> tuple[np.ndarray, np.ndarray]:
    """Closed form for the lattice: 1 + Q - mean(cos theta_j) spans [Q, Q + 2]."""
    q = np.asarray(q, dtype=float)
    return q.copy(), q + 2.0


def two_zeta(graph: Graph) -> float:
    """Twice the weighted bridge count: each bridge adds 1/kappa at both ends."""
    pos = {v: k for k, v in enumerate(graph.vertices)}
    deg = graph.degrees()
    return 2.0 * fsum(
        1.0 / deg[pos[u]] + 1.0 / deg[pos[v]]
        for u, v, index in graph.edges
        if any(index)
    )


def union(lo: np.ndarray, hi: np.ndarray) -> list[tuple[float, float]]:
    """Disjoint closed components of the non-flat bands."""
    merged: list[list[float]] = []
    for a, b in sorted(
        (float(a), float(b)) for a, b in zip(lo, hi) if b - a >= FLAT_TOL
    ):
        if merged and a <= merged[-1][1] + MERGE_TOL:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def bands_agree(observed: dict, lo: np.ndarray, hi: np.ndarray) -> bool:
    """True when observed bands, flat flags and union match the reference.

    observed holds "bands" as [lambda_min, lambda_max, flat] rows and
    "components" as [lo, hi] pairs.
    """
    rows = observed["bands"]
    if len(rows) != len(lo):
        return False
    for (a, b, flat), ref_a, ref_b in zip(rows, lo, hi):
        if abs(a - ref_a) > TOL or abs(b - ref_b) > TOL:
            return False
        if bool(flat) != bool(ref_b - ref_a < FLAT_TOL):
            return False
    components = union(lo, hi)
    if len(observed["components"]) != len(components):
        return False
    return all(
        abs(a - ref_a) <= TOL and abs(b - ref_b) <= TOL
        for (a, b), (ref_a, ref_b) in zip(observed["components"], components)
    )
