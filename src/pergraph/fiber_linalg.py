"""Fiber operators over the quasimomentum torus and a Hermitian eigensolver.

`fibers` is the single assembler of the fiber matrices, for grid sweeps and
single points alike. It starts from a diagonal (1 + Q for H) and subtracts, per
edge, 2 cos(<index, theta>) / kappa_u on the diagonal for a loop at u, or
exp(-i <index, theta>) / sqrt(kappa_u kappa_v) at (u, v) and its conjugate at
(v, u) for a representative between u and v, so the result is exactly
Hermitian.

The eigensolver is a cyclic Jacobi iteration with complex rotations,
implemented here rather than delegated: fiber matrices are tiny and the
iteration is deterministic across platforms. A batched variant diagonalizes
many same-size matrices at once for grid sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import FundamentalGraph

SWEEP_LIMIT = 100
OFF_DIAGONAL_TARGET = 1e-13
RESIDUAL_LIMIT = 1e-10
HERMITICITY_TOL = 1e-12


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class ConvergenceError(RuntimeError):
    """Sweep limit reached before the off-diagonal target, or bad residual."""


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray
    vectors: np.ndarray


def _theta_vector(graph: FundamentalGraph, theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float).reshape(-1)
    if t.size != graph.dimension:
        raise ValueError(
            f"quasimomentum has {t.size} components, graph dimension is "
            f"{graph.dimension}"
        )
    return t


def _degree_roots(graph: FundamentalGraph) -> np.ndarray:
    deg = graph.degrees
    return np.sqrt(np.array([deg[v.id] for v in graph.vertices], dtype=float))


def potential_vector(graph: FundamentalGraph, Q) -> np.ndarray:
    """Per-vertex potential in vertex order; None selects the stored values."""
    if Q is None:
        return np.array(graph.potentials, dtype=float)
    q = np.asarray(Q, dtype=float).reshape(-1)
    if q.size != graph.order:
        raise ValueError(
            f"potential has {q.size} entries, graph has {graph.order} vertices"
        )
    return q


def fibers(graph: FundamentalGraph, thetas, diagonal, edges=None) -> np.ndarray:
    """Fiber matrices for every row of thetas, shape (m, nu, nu).

    `diagonal` is a scalar or one value per vertex; `edges` defaults to every
    edge, and edges are subtracted in the order given.
    """
    thetas = np.asarray(thetas, dtype=float)
    pos = graph.position
    roots = _degree_roots(graph)
    a = np.zeros((thetas.shape[0], graph.order, graph.order), dtype=complex)
    idx = np.arange(graph.order)
    a[:, idx, idx] = diagonal
    for e in graph.edges if edges is None else edges:
        i, j = pos[e.tail], pos[e.head]
        angles = thetas @ np.asarray(e.index, dtype=float)
        if i == j:
            a[:, i, i] -= 2.0 * np.cos(angles) / (roots[i] * roots[i])
        else:
            w = np.exp(-1j * angles) / (roots[i] * roots[j])
            a[:, i, j] -= w
            a[:, j, i] -= w.conjugate()
    return a


def assemble_laplacian(graph: FundamentalGraph, theta) -> np.ndarray:
    """Hermitian Laplacian fiber matrix at quasimomentum theta."""
    return fibers(graph, [_theta_vector(graph, theta)], 1.0)[0]


def assemble_schrodinger(graph: FundamentalGraph, Q, theta) -> np.ndarray:
    """Laplacian fiber plus the diagonal potential."""
    t = _theta_vector(graph, theta)
    return fibers(graph, [t], 1.0 + potential_vector(graph, Q))[0]


def assemble_nabla(graph: FundamentalGraph, theta) -> np.ndarray:
    """Factor of the Laplacian fiber, one row per edge representative.

    Row for representative (v, u, index): exp(+i <index, theta> / 2) / sqrt(kappa_v)
    at column v and -exp(-i <index, theta> / 2) / sqrt(kappa_u) at column u; a
    loop row combines both terms in one column. The conjugate-transpose product
    reproduces the Laplacian fiber entrywise.
    """
    t = _theta_vector(graph, theta)
    pos = graph.position
    roots = _degree_roots(graph)
    n = np.zeros((len(graph.edges), graph.order), dtype=complex)
    for r, e in enumerate(graph.edges):
        i, j = pos[e.tail], pos[e.head]
        half = 0.5 * float(np.dot(e.index, t))
        n[r, i] += complex(math.cos(half), math.sin(half)) / roots[i]
        n[r, j] -= complex(math.cos(half), -math.sin(half)) / roots[j]
    return n


def fiber_offset(
    graph: FundamentalGraph, theta, Q=None
) -> tuple[np.ndarray, np.ndarray]:
    """Split H(theta) into the bridge part h(theta) and a constant part H0.

    h(theta) collects only bridge contributions, so H0 = H(theta) - h(theta)
    does not depend on theta. On a loop graph h(theta) is diagonal.
    """
    zero = np.zeros(graph.dimension)
    bridge_edges = [e for e in graph.edges if e.is_bridge]
    h, h_at_zero = fibers(graph, [_theta_vector(graph, theta), zero], 0.0, bridge_edges)
    return h, assemble_schrodinger(graph, Q, zero) - h_at_zero


def _offdiagonal_max(a: np.ndarray) -> float:
    mags = np.abs(a).copy()
    np.fill_diagonal(mags, 0.0)
    return float(mags.max()) if mags.size else 0.0


def hermitian_eigen(matrix, with_vectors: bool = True) -> EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors, by cyclic Jacobi.

    Sweeps run until the largest off-diagonal magnitude drops below
    1e-13 times the Frobenius norm, up to 100 sweeps. Each converged pair is
    residual-checked against the input. With with_vectors=False only the
    eigenvalues are accumulated and the residual check is skipped.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n == 0:
        return EigenDecomposition(np.empty(0), np.empty((0, 0), dtype=complex))
    defect = float(np.max(np.abs(a - a.conj().T)))
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if defect > HERMITICITY_TOL * max(1.0, scale):
        raise NonHermitianError(f"Hermiticity defect {defect:.3e}")
    a = 0.5 * (a + a.conj().T)
    original = a.copy()
    v = np.eye(n, dtype=complex) if with_vectors else None

    fro = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    target = OFF_DIAGONAL_TARGET * fro
    # entries below the convergence target never need zeroing; skipping them
    # also keeps denormal pivots out of the divisions
    skip = 0.01 * target
    sweeps = 0
    while _offdiagonal_max(a) > target:
        if sweeps >= SWEEP_LIMIT:
            raise ConvergenceError(
                f"no convergence in {SWEEP_LIMIT} sweeps; "
                f"off-diagonal residual {_offdiagonal_max(a):.3e}"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = a[p, q]
                beta = abs(b)
                if beta <= skip:
                    continue
                u = b / beta
                tau = (a[q, q].real - a[p, p].real) / (2.0 * beta)
                # smaller-magnitude root of t^2 - 2*tau*t - 1 = 0
                t = (-1.0 if tau >= 0.0 else 1.0) / (
                    abs(tau) + math.hypot(1.0, tau)
                )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                g = np.array([[c, -s * u], [s * u.conjugate(), c]])
                a[:, [p, q]] = a[:, [p, q]] @ g
                a[[p, q], :] = g.conj().T @ a[[p, q], :]
                if v is not None:
                    v[:, [p, q]] = v[:, [p, q]] @ g
        sweeps += 1

    diag = np.real(np.diag(a))
    order = np.argsort(diag, kind="stable")
    values = diag[order]
    if v is None:
        return EigenDecomposition(values, np.empty((0, 0), dtype=complex))
    vectors = v[:, order]
    residuals = original @ vectors - vectors * values[np.newaxis, :]
    worst = float(np.max(np.sqrt(np.sum(np.abs(residuals) ** 2, axis=0))))
    if worst > RESIDUAL_LIMIT * max(1.0, fro):
        raise ConvergenceError(f"eigenpair residual {worst:.3e}")
    return EigenDecomposition(values, vectors)


def hermitian_eigen_batch(matrices) -> np.ndarray:
    """Ascending eigenvalues for a stack of same-size Hermitian matrices.

    Same rotation sequence as hermitian_eigen, applied to every matrix in the
    stack simultaneously; matrices whose pivot entry is already zero receive
    the identity rotation. Returns an array of shape (batch, n).
    """
    a = np.array(matrices, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a stack of square matrices")
    m, n = a.shape[0], a.shape[1]
    if m == 0 or n == 1:
        return np.ascontiguousarray(a[:, 0, 0].real.reshape(m, n))
    defect = float(np.max(np.abs(a - a.conj().transpose(0, 2, 1))))
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if defect > HERMITICITY_TOL * max(1.0, scale):
        raise NonHermitianError(f"Hermiticity defect {defect:.3e}")
    a = 0.5 * (a + a.conj().transpose(0, 2, 1))

    fro = np.sqrt(np.sum(np.abs(a) ** 2, axis=(1, 2)))
    targets = OFF_DIAGONAL_TARGET * fro
    diag_mask = np.eye(n, dtype=bool)

    def off_max(stack: np.ndarray) -> np.ndarray:
        mags = np.abs(stack).copy()
        mags[:, diag_mask] = 0.0
        return mags.max(axis=(1, 2))

    sweeps = 0
    while np.any(off_max(a) > targets):
        if sweeps >= SWEEP_LIMIT:
            worst = float(np.max(off_max(a)))
            raise ConvergenceError(
                f"no convergence in {SWEEP_LIMIT} sweeps; "
                f"off-diagonal residual {worst:.3e}"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = a[:, p, q]
                beta = np.abs(b)
                active = beta > 0.01 * targets
                safe = np.where(active, beta, 1.0)
                u = np.where(active, b / safe, 1.0)
                tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * safe)
                # smaller-magnitude root of t^2 - 2*tau*t - 1 = 0
                t = np.where(
                    active,
                    np.where(tau >= 0.0, -1.0, 1.0)
                    / (np.abs(tau) + np.hypot(1.0, tau)),
                    0.0,
                )
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                g = np.empty((m, 2, 2), dtype=complex)
                g[:, 0, 0] = c
                g[:, 0, 1] = -s * u
                g[:, 1, 0] = s * u.conjugate()
                g[:, 1, 1] = c
                a[:, :, [p, q]] = np.einsum(
                    "mik,mkl->mil", a[:, :, [p, q]], g
                )
                a[:, [p, q], :] = np.einsum(
                    "mlk,mln->mkn", g.conj(), a[:, [p, q], :]
                )
        sweeps += 1

    diag = np.real(a[:, np.arange(n), np.arange(n)])
    return np.sort(diag, axis=1)
