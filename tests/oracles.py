"""Independent reference computations used only by the tests.

The eigenvalue oracle never calls the package solver: it counts eigenvalues
below a shift through the inertia of the eliminated matrix and bisects. The
closed-form band edges are frozen values recomputed by hand from the 2x2
reductions of the crystal fiber matrices.
"""

from __future__ import annotations

import math

import numpy as np


def count_below(matrix: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each shift.

    Gaussian elimination on (A - xI) keeps the inertia of the Hermitian
    input, so the negative real pivots count the eigenvalues below x. Tiny
    pivots are nudged to keep the elimination finite; the bisection driver
    tolerates the resulting off-by-one counts near an exact eigenvalue.
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    stack = a[None, :, :] - shifts[:, None, None] * np.eye(n)
    jitter = 1e-13 * max(1.0, float(np.linalg.norm(a)))
    negatives = np.zeros(len(shifts), dtype=int)
    for k in range(n):
        pivot = np.real(stack[:, k, k]).copy()
        small = np.abs(pivot) < jitter
        pivot[small] = np.where(pivot[small] >= 0.0, jitter, -jitter)
        negatives += pivot < 0.0
        if k + 1 < n:
            factors = stack[:, k + 1 :, k] / pivot[:, None]
            stack[:, k + 1 :, k + 1 :] -= (
                factors[:, :, None] * stack[:, k, k + 1 :][:, None, :]
            )
    return negatives


def bisect_eigenvalues(matrix: np.ndarray, iterations: int = 80) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix by inertia bisection."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    diag = np.real(np.diag(a))
    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    lows = np.full(n, float(np.min(diag - radii)) - 1.0)
    highs = np.full(n, float(np.max(diag + radii)) + 1.0)
    targets = np.arange(1, n + 1)
    for _ in range(iterations):
        mids = 0.5 * (lows + highs)
        reached = count_below(a, mids) >= targets
        highs = np.where(reached, mids, highs)
        lows = np.where(reached, lows, mids)
    return 0.5 * (lows + highs)


def central_hessian(f, d: int, step: float = 1e-3) -> np.ndarray:
    """Hessian of f at 0 by central differences and one Richardson level.

    f maps a length-d vector to a scalar or an array; the result has shape
    (d, d) + shape of f(0). Second differences at steps h and h/2 are
    combined as (4 fine - coarse) / 3, which cancels the O(h^2) term.
    """

    def at(h: float) -> np.ndarray:
        base = np.asarray(f(np.zeros(d)))
        e = h * np.eye(d)
        m = np.empty((d, d) + base.shape, dtype=base.dtype)
        for i in range(d):
            m[i, i] = (f(e[i]) - 2.0 * base + f(-e[i])) / (h * h)
            for j in range(i + 1, d):
                m[i, j] = m[j, i] = (
                    f(e[i] + e[j]) - f(e[i] - e[j]) - f(e[j] - e[i]) + f(-e[i] - e[j])
                ) / (4.0 * h * h)
        return m

    return (4.0 * at(0.5 * step) - at(step)) / 3.0


def lowest_band_hessian(fiber, d: int, step: float = 1e-3) -> np.ndarray:
    """Finite-difference Hessian of the lowest eigenvalue of fiber(theta) at 0.

    Each point is one numpy eigvalsh call; the result is symmetrized.
    """
    m = central_hessian(lambda t: np.linalg.eigvalsh(fiber(t))[0], d, step)
    return 0.5 * (m + m.T)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (raw + raw.conj().T)


def bcc_fiber(q1: float, theta) -> np.ndarray:
    """2x2 fiber matrix of the body-centered cubic graph, built by hand."""
    t1, t2, t3 = theta
    c0 = math.cos(t1) + math.cos(t2) + math.cos(t3)
    cross = 1.0
    for t in theta:
        cross *= 1.0 + np.exp(-1j * t)
    off = -cross / math.sqrt(8.0 * 14.0)
    return np.array(
        [
            [1.0 + q1, off],
            [np.conj(off), 1.0 - c0 / 7.0],
        ]
    )


def bcc_band_edges(q1: float) -> dict:
    """Frozen closed forms for the body-centered cubic band edges.

    Derived from the 2x2 fiber: at theta = 0 the eigenvalues are
    11/14 + q1/2 -+ D with D = sqrt((3/7 + q1)^2 + 16/7)/2; the inner edges
    come from the decoupled values 1 + q1 and the loop-only diagonal. The
    top edge saturates at 10/7: at theta = (pi, pi, pi) the fiber is
    diagonal with entries 1 + q1 and 10/7, so for q1 < -5/21 (where the
    theta = 0 value drops below 10/7) the maximum moves there.
    """
    disc = 0.5 * math.sqrt((3.0 / 7.0 + q1) ** 2 + 16.0 / 7.0)
    mean = 11.0 / 14.0 + 0.5 * q1
    lower_min = mean - disc
    upper_max = max(mean + disc, 10.0 / 7.0)
    lower_max = 1.0 + q1 if q1 <= 3.0 / 7.0 else 10.0 / 7.0
    upper_min = 1.0 + q1 if q1 >= -1.0 / 7.0 else 6.0 / 7.0
    if q1 > 3.0 / 7.0:
        gap = (10.0 / 7.0, 1.0 + q1)
    elif q1 < -1.0 / 7.0:
        gap = (1.0 + q1, 6.0 / 7.0)
    else:
        gap = None
    return {
        "lower": (lower_min, lower_max),
        "upper": (upper_min, upper_max),
        "gap": gap,
    }


def fcc_nonflat(theta) -> tuple:
    """Outer eigenvalue pair of the face-centered cubic fiber at theta."""
    c1, c2, c3 = (math.cos(t) for t in theta)
    c0 = c1 + c2 + c3
    eps = c1 * c2 + c1 * c3 + c2 * c3
    root = 0.5 * math.sqrt(
        (c0 / 9.0) ** 2 + 4.0 * c0 / 9.0 + 2.0 / 3.0 + 2.0 * eps / 9.0
    )
    return (1.0 - c0 / 18.0 - root, 1.0 - c0 / 18.0 + root)


# Band edges of the face-centered cubic Laplacian. The top band's lower edge
# is 10/9, attained at (pi, pi, 0): minimizing 1 - c0/18 + root reduces to
# 16*c0 + 9*eps + 25 >= 0 over the torus, tight exactly when two angles are
# pi and one is 0.
FCC_EDGES = (0.0, 1.0, 10.0 / 9.0, 5.0 / 3.0)


def star_components(d: int, nu: int) -> tuple:
    """Non-flat spectrum components of the star-decorated Laplacian."""
    xi = nu - 1 + 2 * d
    return ((0.0, 2.0 * d / xi), (2.0 - 2.0 * d / xi, 2.0))


def subdivided_flats(n: int) -> list:
    return sorted(1.0 + math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1))
