import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pergraph import (
    ConvergenceError,
    NonHermitianError,
    assemble_laplacian,
    assemble_nabla,
    assemble_schrodinger,
    assign_indices,
    fiber_offset,
    generate,
    hermitian_eigen,
    hermitian_eigen_batch,
    potential_vector,
)
import pergraph.fiber_linalg as fiber_linalg
from pergraph.fiber_linalg import fiber_derivatives, fibers

from conftest import CATALOG_SAMPLE, chain_description
from oracles import bisect_eigenvalues, central_hessian, random_hermitian

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


def all_sample_graphs():
    return [generate(name, **kw) for name, kw in CATALOG_SAMPLE]


def test_lattice_fiber_is_one_minus_mean_cosine():
    g = generate("lattice", d=2)
    theta = np.array([0.7, -1.3])
    m = assemble_laplacian(g, theta)
    want = 1.0 - 0.5 * (math.cos(0.7) + math.cos(-1.3))
    assert m.shape == (1, 1)
    assert abs(m[0, 0] - want) < 1e-15


def test_bcc_zero_fiber_eigenvalues():
    g = generate("bcc")
    values = hermitian_eigen(
        assemble_laplacian(g, np.zeros(3)), with_vectors=False
    ).values
    assert np.allclose(values, [0.0, 11.0 / 7.0], atol=1e-10)


def test_fiber_matrices_are_exactly_hermitian(rng):
    for g in all_sample_graphs():
        theta = rng.uniform(-math.pi, math.pi, g.dimension)
        m = assemble_laplacian(g, theta)
        assert np.array_equal(m, m.conj().T)


def test_fiber_conjugate_symmetry(rng):
    for g in all_sample_graphs():
        theta = rng.uniform(-math.pi, math.pi, g.dimension)
        assert np.allclose(
            assemble_laplacian(g, -theta),
            assemble_laplacian(g, theta).conj(),
            atol=1e-15,
        )


def test_schrodinger_adds_potential_on_diagonal(rng):
    g = generate("bcc")
    theta = rng.uniform(-math.pi, math.pi, 3)
    q = np.array([0.5, -0.25])
    assert np.allclose(
        assemble_schrodinger(g, q, theta),
        assemble_laplacian(g, theta) + np.diag(q),
        atol=0,
    )


def test_potential_vector_defaults_to_stored_values():
    g = generate("bcc")
    assert np.array_equal(potential_vector(g, None), np.zeros(2))
    with pytest.raises(ValueError, match="potential"):
        potential_vector(g, np.zeros(3))


def test_factorization_identity(rng):
    for g in all_sample_graphs():
        for _ in range(5):
            theta = rng.uniform(-math.pi, math.pi, g.dimension)
            nabla = assemble_nabla(g, theta)
            assert nabla.shape == (len(g.edges), g.order)
            defect = np.max(
                np.abs(nabla.conj().T @ nabla - assemble_laplacian(g, theta))
            )
            assert defect < 1e-12


def test_fiber_offset_splits_bridge_part(rng):
    for g in all_sample_graphs():
        q = rng.uniform(-1, 1, g.order)
        theta = rng.uniform(-math.pi, math.pi, g.dimension)
        moving, frozen = fiber_offset(g, theta, q)
        assert np.allclose(
            moving + frozen, assemble_schrodinger(g, q, theta), atol=1e-14
        )
        # the frozen part carries no quasimomentum dependence
        moving2, frozen2 = fiber_offset(g, np.zeros(g.dimension), q)
        assert np.array_equal(frozen, frozen2)


def test_fibers_stack_matches_single_points(rng):
    for g in all_sample_graphs():
        q = rng.uniform(-1, 1, g.order)
        thetas = rng.uniform(-math.pi, math.pi, (5, g.dimension))
        stack = fibers(g, thetas, 1.0 + q)
        assert stack.shape == (5, g.order, g.order)
        for theta, fiber in zip(thetas, stack):
            assert np.allclose(
                fiber, assemble_schrodinger(g, q, theta), rtol=0.0, atol=1e-15
            )


def test_gauge_invariance_of_spectrum(rng):
    # Re-deriving indices after reordering the bonds changes the spanning
    # tree and individual indices but never the fiber eigenvalues.
    desc = chain_description()
    flipped = type(desc)(
        desc.dimension, desc.vertices, tuple(reversed(desc.bonds))
    )
    g1, _ = assign_indices(desc)
    g2, _ = assign_indices(flipped)
    for _ in range(10):
        theta = rng.uniform(-math.pi, math.pi, 1)
        v1 = hermitian_eigen(assemble_laplacian(g1, theta), with_vectors=False)
        v2 = hermitian_eigen(assemble_laplacian(g2, theta), with_vectors=False)
        assert np.allclose(v1.values, v2.values, atol=1e-12)


def test_eigen_diagonal_matrix():
    dec = hermitian_eigen(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(dec.values, [1.0, 2.0, 3.0], atol=0)
    assert np.allclose(np.abs(dec.vectors), np.eye(3)[:, [1, 2, 0]], atol=0)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eigen_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        hermitian_eigen(np.zeros((2, 3), dtype=complex))


def test_eigen_without_vectors_returns_empty_matrix():
    dec = hermitian_eigen(np.eye(2, dtype=complex), with_vectors=False)
    assert dec.vectors.size == 0
    assert np.allclose(dec.values, [1.0, 1.0], atol=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_eigen_matches_inertia_oracle(n, seed):
    a = random_hermitian(np.random.default_rng(seed), n)
    dec = hermitian_eigen(a)
    assert np.allclose(dec.values, bisect_eigenvalues(a), atol=1e-8)
    residual = a @ dec.vectors - dec.vectors * dec.values[np.newaxis, :]
    assert np.max(np.abs(residual)) < 1e-9
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-5, max_value=5),
)
def test_eigen_shift_property(n, seed, c):
    a = random_hermitian(np.random.default_rng(seed), n)
    base = hermitian_eigen(a, with_vectors=False).values
    shifted = hermitian_eigen(
        a + c * np.eye(n), with_vectors=False
    ).values
    assert np.max(np.abs(shifted - (base + c))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_eigen_interlacing_property(n, seed):
    a = random_hermitian(np.random.default_rng(seed), n)
    full = hermitian_eigen(a, with_vectors=False).values
    trimmed = hermitian_eigen(a[:-1, :-1], with_vectors=False).values
    for k in range(n - 1):
        assert full[k] <= trimmed[k] + 1e-10
        assert trimmed[k] <= full[k + 1] + 1e-10


def test_batch_matches_scalar_on_fiber_stacks(rng):
    for g in all_sample_graphs():
        thetas = rng.uniform(-math.pi, math.pi, size=(7, g.dimension))
        q = rng.uniform(-1, 1, g.order)
        stack = np.stack(
            [assemble_schrodinger(g, q, theta) for theta in thetas]
        )
        batch = hermitian_eigen_batch(stack)
        for row, matrix in zip(batch, stack):
            scalar = hermitian_eigen(matrix, with_vectors=False).values
            assert np.allclose(row, scalar, atol=1e-10)


def test_batch_handles_one_by_one():
    stack = np.array([[[2.0]], [[-1.0]]], dtype=complex)
    assert np.array_equal(hermitian_eigen_batch(stack), [[2.0], [-1.0]])


def test_batch_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hermitian_eigen_batch(np.zeros((3, 2), dtype=complex))
    with pytest.raises(NonHermitianError):
        hermitian_eigen_batch(
            np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        )


def test_assemble_rejects_wrong_theta_dimension():
    g = generate("lattice", d=2)
    with pytest.raises(ValueError):
        assemble_laplacian(g, np.zeros(3))


def test_eigen_of_empty_matrix():
    dec = hermitian_eigen(np.zeros((0, 0), dtype=complex))
    assert dec.values.shape == (0,)
    assert dec.vectors.shape == (0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "solve",
    [hermitian_eigen, lambda a: hermitian_eigen_batch(a[np.newaxis])],
    ids=["scalar", "batch"],
)
def test_solvers_refuse_non_finite_entries(solve, bad):
    # a NaN Hermiticity defect compares false with any tolerance, so the
    # finiteness check is what stops these
    a = np.eye(2, dtype=complex)
    a[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        solve(a)


def test_residual_check_guards_lapack(monkeypatch):
    real_eigh = np.linalg.eigh

    def perturbed(a):
        values, vectors = real_eigh(a)
        return values, vectors + 1e-6

    monkeypatch.setattr(fiber_linalg.np.linalg, "eigh", perturbed)
    g = generate("bcc")
    with pytest.raises(ConvergenceError, match="residual"):
        hermitian_eigen(assemble_laplacian(g, np.array([0.3, -0.2, 1.1])))


@pytest.mark.parametrize("with_vectors", [True, False])
def test_lapack_failure_is_a_convergence_error(monkeypatch, with_vectors):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(fiber_linalg.np.linalg, "eigh", fail)
    monkeypatch.setattr(fiber_linalg.np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        hermitian_eigen(np.eye(2, dtype=complex), with_vectors=with_vectors)


@pytest.mark.parametrize("name, kw", CATALOG_SAMPLE)
def test_fiber_derivatives_match_central_differences(name, kw):
    g = generate(name, **kw)
    first, second = fiber_derivatives(g)

    def fiber(theta):
        return fibers(g, [theta], 0.0)[0]

    h = 1e-5
    central = np.array(
        [(fiber(s) - fiber(-s)) / (2.0 * h) for s in h * np.eye(g.dimension)]
    )
    assert np.max(np.abs(first - central)) <= 1e-8
    assert np.max(np.abs(second - central_hessian(fiber, g.dimension))) <= 1e-8
