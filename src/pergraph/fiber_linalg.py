"""Fiber operators over the quasimomentum torus and a Hermitian eigensolver.

`fibers` is the single assembler of the fiber matrices, for grid sweeps and
single points alike. It starts from a diagonal (1 + Q for H) and subtracts, per
edge, 2 cos(<index, theta>) / kappa_u on the diagonal for a loop at u, or
exp(-i <index, theta>) / sqrt(kappa_u kappa_v) at (u, v) and its conjugate at
(v, u) for a representative between u and v, so the result is exactly
Hermitian. With a real diagonal, every entry at -theta is the conjugate of
the entry at theta, so H(-theta) = conj H(theta) and both share one spectrum.

Single matrices are diagonalized by LAPACK (`numpy.linalg.eigh`). Grid sweeps
use an in-repo batched cyclic Jacobi iteration with complex rotations, which
diagonalizes a whole stack of same-size fibers at once. Both are bit-stable on
one platform; across platforms they agree within the test tolerances.
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
    """Sweep limit reached, LAPACK failure, or bad eigenpair residual."""


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


def fiber_derivatives(graph: FundamentalGraph) -> tuple[np.ndarray, np.ndarray]:
    """d_k H and d_k d_l H at theta = 0, shapes (d, nu, nu) and (d, d, nu, nu).

    An edge with w = 1/sqrt(kappa_u kappa_v) and index a adds i a_k w at
    (u, v) and -i a_k w at (v, u) to d_k H, and a_k a_l w at both to
    d_k d_l H; a loop therefore adds 0 and 2 a_k a_l / kappa_u.
    """
    pos = graph.position
    roots = _degree_roots(graph)
    d, n = graph.dimension, graph.order
    first = np.zeros((d, n, n), dtype=complex)
    second = np.zeros((d, d, n, n), dtype=complex)
    for e in graph.edges:
        i, j = pos[e.tail], pos[e.head]
        w = 1.0 / (roots[i] * roots[j])
        index = np.asarray(e.index, dtype=float)
        first[:, i, j] += 1j * w * index
        first[:, j, i] -= 1j * w * index
        second[:, :, i, j] += w * np.multiply.outer(index, index)
        second[:, :, j, i] += w * np.multiply.outer(index, index)
    return first, second


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


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """0.5 (a + a^H), after checking that a is finite and Hermitian."""
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    # the adjoint is formed twice so that no copy outlives its expression
    defect = float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)), initial=0.0))
    scale = float(np.max(np.abs(a), initial=0.0))
    if defect > HERMITICITY_TOL * max(1.0, scale):
        raise NonHermitianError(f"Hermiticity defect {defect:.3e}")
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def hermitian_eigen(matrix, with_vectors: bool = True) -> EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors, by LAPACK.

    Each eigenpair is residual-checked against the symmetrised input. With
    with_vectors=False only the eigenvalues are computed and the residual
    check is skipped.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    a = _hermitian_part(a)
    try:
        if not with_vectors:
            return EigenDecomposition(np.linalg.eigvalsh(a), np.empty((0, 0), complex))
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"LAPACK eigensolver failed: {err}") from err
    residuals = a @ vectors - vectors * values[np.newaxis, :]
    worst = float(np.max(np.linalg.norm(residuals, axis=0), initial=0.0))
    if worst > RESIDUAL_LIMIT * max(1.0, float(np.linalg.norm(a))):
        raise ConvergenceError(f"eigenpair residual {worst:.3e}")
    return EigenDecomposition(values, vectors)


def hermitian_eigen_batch(matrices) -> np.ndarray:
    """Ascending eigenvalues for a stack of same-size Hermitian matrices.

    Cyclic Jacobi with complex rotations, applied to every matrix in the
    stack simultaneously until each off-diagonal part is below
    OFF_DIAGONAL_TARGET times the matrix's Frobenius norm, for at most
    SWEEP_LIMIT sweeps; matrices whose pivot entry is already zero receive
    the identity rotation. Returns an array of shape (batch, n).
    """
    a = np.array(matrices, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a stack of square matrices")
    m, n = a.shape[0], a.shape[1]
    a = _hermitian_part(a)
    if m == 0 or n == 1:
        return np.ascontiguousarray(a[:, 0, 0].real.reshape(m, n))

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
                # skipping entries far below the target keeps denormals out
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
