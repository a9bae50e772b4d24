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


def mixed_class_space():
    """Two vertices in d=3 whose sign-flip classes are {0} and {1, 2}.

    A loop of index (1, 0, 0) at vertex 1 is one block; three edges 1-2 of
    indices 0, (0, 1, 0) and (0, 0, 1) form a second block whose cycles
    carry (0, 1, 0), (0, 0, 1) and (0, 1, -1), so axes 1 and 2 flip only
    together.
    """
    return FundamentalGraph(
        dimension=3,
        vertices=(Vertex(1), Vertex(2)),
        edges=(
            Edge(1, 1, (1, 0, 0)),
            Edge(1, 2, (0, 0, 0)),
            Edge(1, 2, (0, 1, 0)),
            Edge(1, 2, (0, 0, 1)),
        ),
    )


def random_periodic_graph(rng, d: int, nu: int) -> FundamentalGraph:
    """Connected quotient on nu vertices with indices in {-1, 0, 1}^d.

    A random spanning tree plus up to nu + 1 further edges, loops included,
    and a potential drawn from U(-2, 2).
    """
    vertices = tuple(
        Vertex(k, float(rng.uniform(-2.0, 2.0))) for k in range(1, nu + 1)
    )

    def index():
        return tuple(int(c) for c in rng.integers(-1, 2, d))

    edges = [
        Edge(int(rng.integers(1, k)), k, index()) for k in range(2, nu + 1)
    ]
    for _ in range(int(rng.integers(1, nu + 2))):
        tail, head = (int(v) for v in rng.integers(1, nu + 1, 2))
        edges.append(Edge(tail, head, index()))
    return FundamentalGraph(d, vertices, tuple(edges))


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
