import numpy as np
import pytest

from pergraph import Bond, Edge, FundamentalGraph, PeriodicDescription, Vertex, generate

# One representative per catalog family and parameter regime; the suites that
# quantify over "every catalog graph" run over this list.
CATALOG_SAMPLE = (
    ("lattice", dict(d=1)),
    ("lattice", dict(d=2)),
    ("lattice", dict(d=3)),
    ("star_decorated", dict(d=2, nu=3)),
    ("star_decorated", dict(d=3, nu=3)),
    ("subdivided", dict(d=2, n=1)),
    ("subdivided", dict(d=2, n=2)),
    ("subdivided", dict(d=3, n=1)),
    ("bcc", {}),
    ("fcc", {}),
)


def catalog_graphs():
    return [generate(name, **kw) for name, kw in CATALOG_SAMPLE]


def single_loop_plane():
    """One vertex in d=2 with a single loop: rank-deficient bridge set.

    The band function 1 - cos(theta_1) is constant in theta_2, so the
    effective-mass Hessian is singular and the bridge indices span only one
    of the two directions.
    """
    return FundamentalGraph(
        dimension=2,
        vertices=(Vertex(1),),
        edges=(Edge(1, 1, (1, 0)),),
    )


def diagonal_loop_plane():
    """Two vertices in d=2 whose only cycle is a loop of index (1, 1).

    The bands depend on theta_1 + theta_2 alone, so the lowest band is
    constant along (1, -1) and the effective-mass Hessian is singular.
    """
    return FundamentalGraph(
        dimension=2,
        vertices=(Vertex(1), Vertex(2)),
        edges=(Edge(1, 2, (0, 0)), Edge(1, 1, (1, 1))),
    )


def even_loop_line():
    """One vertex in d=1 whose only loop has an even index.

    A loop graph, but cos<tau, theta> = -1 has no solution with
    theta in {0, pi}, so no exact quasimomentum is found.
    """
    return FundamentalGraph(
        dimension=1,
        vertices=(Vertex(1),),
        edges=(Edge(1, 1, (2,)),),
    )


def chain_description():
    """Two-vertex cycle through neighboring cells, given as raw bonds."""
    return PeriodicDescription(
        dimension=1,
        vertices=(Vertex(1), Vertex(2)),
        bonds=(Bond(1, 2, (0,)), Bond(2, 1, (1,))),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
