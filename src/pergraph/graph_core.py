"""Quotient-level model of Z^d-periodic graphs.

A periodic graph is described here entirely through its finite quotient:
vertices carrying real potentials, and directed edge representatives carrying
integer index vectors that record the lattice cell offset crossed by the edge.
The reverse of every stored edge is implied and carries the negated index.
Edges with nonzero index are called bridges; they carry all inter-cell
connectivity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import fsum, pi

VertexId = int | str


class GraphError(ValueError):
    """Raised when an operation is applied to an unsuitable graph."""


@dataclass(frozen=True)
class Vertex:
    id: VertexId
    potential: float = 0.0


@dataclass(frozen=True)
class Edge:
    """Directed edge representative; (head, tail, -index) is implied."""

    tail: VertexId
    head: VertexId
    index: tuple[int, ...]

    def reverse(self) -> "Edge":
        return Edge(self.head, self.tail, tuple(-c for c in self.index))

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    @property
    def is_bridge(self) -> bool:
        return any(c != 0 for c in self.index)


@dataclass(frozen=True)
class Bond:
    """Directed bond of a periodic description.

    Connects `tail` in the zero cell to `head` in the cell offset by `shift`.
    """

    tail: VertexId
    head: VertexId
    shift: tuple[int, ...]


@dataclass(frozen=True)
class FundamentalGraph:
    dimension: int
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def order(self) -> int:
        return len(self.vertices)

    @cached_property
    def vertex_ids(self) -> tuple[VertexId, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def position(self) -> dict[VertexId, int]:
        return {v.id: k for k, v in enumerate(self.vertices)}

    @cached_property
    def degrees(self) -> dict[VertexId, int]:
        """Count of directed edges starting at each vertex; a loop adds 2."""
        deg: dict[VertexId, int] = {v.id: 0 for v in self.vertices}
        for e in self.edges:
            if e.tail in deg:
                deg[e.tail] += 1
            if e.head in deg:
                deg[e.head] += 1
        return deg

    @cached_property
    def potentials(self) -> tuple[float, ...]:
        return tuple(v.potential for v in self.vertices)


@dataclass(frozen=True)
class PeriodicDescription:
    dimension: int
    vertices: tuple[Vertex, ...]
    bonds: tuple[Bond, ...]


@dataclass(frozen=True)
class SpanningTreeAssignment:
    """Tree bonds and the integer cell coordinates chosen for each vertex."""

    tree: tuple[Bond, ...]
    coordinates: dict[VertexId, tuple[int, ...]]


@dataclass(frozen=True)
class BridgeSet:
    """All directed bridges (both orientations) and per-vertex counts."""

    directed: tuple[Edge, ...]
    counts: dict[VertexId, int]


@dataclass(frozen=True)
class ZetaReport:
    """Weighted bridge count with its structural upper bound."""

    value: float
    bound: float
    within_bound: bool
    warning: str | None = None

    def __float__(self) -> float:
        return self.value


def validate(graph: FundamentalGraph) -> list[str]:
    """Collect invariant violations; an empty list means the graph is valid."""
    violations: list[str] = []
    if graph.dimension < 1:
        violations.append("dimension must be a positive integer")
    ids = [v.id for v in graph.vertices]
    if not ids:
        violations.append("graph has no vertices")
        return violations
    if len(set(ids)) != len(ids):
        violations.append("vertex ids are not distinct")
    known = set(ids)
    dangling = False
    for e in graph.edges:
        if len(e.index) != graph.dimension:
            violations.append(
                f"index dimension mismatch on edge ({e.tail}, {e.head})"
            )
        if not all(isinstance(c, int) for c in e.index):
            violations.append(f"non-integer index on edge ({e.tail}, {e.head})")
        if e.tail not in known or e.head not in known:
            violations.append(f"dangling edge endpoint on ({e.tail}, {e.head})")
            dangling = True
    for v, deg in graph.degrees.items():
        if deg < 1:
            violations.append(f"vertex {v!r} has degree 0")
    if not dangling and not _connected(ids, graph.edges):
        violations.append("disconnected")
    return violations


def _connected(ids: list[VertexId], edges: tuple[Edge, ...]) -> bool:
    adjacency: dict[VertexId, list[VertexId]] = {v: [] for v in ids}
    for e in edges:
        adjacency[e.tail].append(e.head)
        adjacency[e.head].append(e.tail)
    seen = {ids[0]}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(ids)


def assign_indices(
    desc: PeriodicDescription,
) -> tuple[FundamentalGraph, SpanningTreeAssignment]:
    """Build the quotient graph with edge indices from a bond description.

    A spanning tree is grown breadth-first from the smallest vertex id
    (compared as strings), scanning bonds in input order. Crossing a tree
    bond (u, v, m) places v at coordinates [v] = [u] + m. Every bond then
    receives the index m + [u] - [v], so tree bonds carry index 0 and the
    implied reverse of an edge carries the negated index. The coordinates,
    and with them the individual indices, depend on this tree choice; the
    spectrum does not.
    """
    ids = [v.id for v in desc.vertices]
    if not ids:
        raise GraphError("description has no vertices")
    if len(set(ids)) != len(ids):
        raise GraphError("vertex ids are not distinct")
    known = set(ids)
    for b in desc.bonds:
        if b.tail not in known or b.head not in known:
            raise GraphError(f"dangling bond endpoint on ({b.tail}, {b.head})")
        if len(b.shift) != desc.dimension:
            raise GraphError(f"shift dimension mismatch on ({b.tail}, {b.head})")

    incidence: dict[VertexId, list[tuple[Bond, bool]]] = {v: [] for v in ids}
    for b in desc.bonds:
        incidence[b.tail].append((b, True))
        if b.head != b.tail:
            incidence[b.head].append((b, False))

    root = min(ids, key=str)
    zero = (0,) * desc.dimension
    coordinates: dict[VertexId, tuple[int, ...]] = {root: zero}
    tree: list[Bond] = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        base = coordinates[u]
        for bond, forward in incidence[u]:
            w = bond.head if forward else bond.tail
            if w in coordinates:
                continue
            step = bond.shift if forward else tuple(-c for c in bond.shift)
            coordinates[w] = tuple(a + b for a, b in zip(base, step))
            tree.append(bond)
            queue.append(w)
    if len(coordinates) != len(ids):
        raise GraphError("quotient not connected")

    edges = tuple(
        Edge(
            b.tail,
            b.head,
            tuple(
                m + cu - cv
                for m, cu, cv in zip(
                    b.shift, coordinates[b.tail], coordinates[b.head]
                )
            ),
        )
        for b in desc.bonds
    )
    graph = FundamentalGraph(desc.dimension, desc.vertices, edges)
    return graph, SpanningTreeAssignment(tuple(tree), coordinates)


def bridges(graph: FundamentalGraph) -> BridgeSet:
    """All directed edges with nonzero index, in both orientations."""
    directed: list[Edge] = []
    counts: dict[VertexId, int] = {v.id: 0 for v in graph.vertices}
    for e in graph.edges:
        if not e.is_bridge:
            continue
        directed.append(e)
        counts[e.tail] += 1
        directed.append(e.reverse())
        counts[e.head] += 1
    return BridgeSet(tuple(directed), counts)


def zeta(graph: FundamentalGraph) -> ZetaReport:
    """Weighted bridge count: sum over vertices of zeta_v / kappa_v.

    The reported bound is 1 for a single-vertex graph and
    nu - sum(1 / kappa_v) otherwise.
    """
    counts = bridges(graph).counts
    deg = graph.degrees
    value = fsum(counts[v] / deg[v] for v in graph.vertex_ids)
    if graph.order == 1:
        bound = 1.0
    else:
        bound = graph.order - fsum(1.0 / deg[v] for v in graph.vertex_ids)
    warning = None
    if all(c == 0 for c in counts.values()):
        warning = "no bridges: periodic graph cannot be connected"
    return ZetaReport(value, bound, value <= bound + 1e-12, warning)


def is_loop_graph(graph: FundamentalGraph) -> bool:
    """True iff every bridge starts and ends at the same vertex."""
    return all(e.is_loop for e in graph.edges if e.is_bridge)


def exact_quasimomentum(graph: FundamentalGraph) -> tuple[float, ...] | None:
    """Search {0, pi}^d for a point giving every bridge a half-turn phase.

    Returns the first point theta0 with cos(<index, theta0>) = -1 on every
    bridge, or None when no such point exists among the 2^d candidates. This
    search is sufficient but not exhaustive over the torus.
    """
    if not is_loop_graph(graph):
        raise GraphError("exact quasimomentum is defined for loop graphs only")
    indices = [e.index for e in graph.edges if e.is_bridge]
    for mask in product((0, 1), repeat=graph.dimension):
        if all(
            sum(c * m for c, m in zip(idx, mask)) % 2 == 1 for idx in indices
        ):
            return tuple(pi * m for m in mask)
    return None


def is_bipartite(
    graph: FundamentalGraph,
) -> tuple[tuple[VertexId, ...], tuple[VertexId, ...]] | None:
    """Two-color the undirected quotient multigraph, or None if impossible.

    Any loop defeats the coloring. The part containing the first vertex is
    returned first; within each part, vertices keep their input order.
    """
    adjacency: dict[VertexId, list[VertexId]] = {v.id: [] for v in graph.vertices}
    for e in graph.edges:
        if e.is_loop:
            return None
        adjacency[e.tail].append(e.head)
        adjacency[e.head].append(e.tail)
    color: dict[VertexId, int] = {}
    for start in graph.vertex_ids:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    part0 = tuple(v for v in graph.vertex_ids if color[v] == 0)
    part1 = tuple(v for v in graph.vertex_ids if color[v] == 1)
    return part0, part1


def sign_flip_classes(graph: FundamentalGraph) -> tuple[tuple[int, ...], ...]:
    """Axis classes that can be negated jointly without changing any spectrum.

    By Sachs' theorem for gain graphs (Cvetkovic, Doob & Sachs, Spectra of
    Graphs, 1.4), det(lambda - H(theta)) depends on theta only through
    cos <c_C, theta> over the simple cycles C of the quotient, c_C being the
    index sum along C. A simple cycle lies inside one block (2-connected
    component), so c_C is a signed sum of the fundamental-cycle indices c_e
    of that block's non-tree edges. Axes in the support of one block's c_e
    are joined into one class; every c_C is then supported in a single
    class, and negating all axes of any union of classes leaves each
    cos <c_C, theta>, and with it the spectrum of H(theta), unchanged for
    every real potential. Cycle indices do not depend on the cell chosen
    for each vertex, and neither do the classes. An axis on no cycle is a
    class of its own; classes are listed by their smallest axis.
    """
    incidence: dict[VertexId, list] = {v: [] for v in graph.vertex_ids}
    for k, e in enumerate(graph.edges):
        incidence[e.tail].append((k, e.head, e.index))
        incidence[e.head].append((k, e.tail, e.reverse().index))
    # breadth-first spanning forest: cell, depth and (parent, edge) per vertex
    cell: dict[VertexId, tuple[int, ...]] = {}
    depth: dict[VertexId, int] = {}
    parent: dict[VertexId, tuple[VertexId, int]] = {}
    for root in graph.vertex_ids:
        if root in cell:
            continue
        cell[root], depth[root] = (0,) * graph.dimension, 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for k, w, step in incidence[u]:
                if w not in cell:
                    cell[w] = tuple(a + b for a, b in zip(cell[u], step))
                    depth[w], parent[w] = depth[u] + 1, (u, k)
                    queue.append(w)
    tree = {k for _, k in parent.values()}
    # the edges of each fundamental cycle lie in one block
    block = list(range(len(graph.edges)))
    support = []
    for k, e in enumerate(graph.edges):
        if k in tree:
            continue
        u, w = e.tail, e.head
        while u != w:
            if depth[u] < depth[w]:
                u, w = w, u
            u, edge = parent[u]
            block[_find(block, edge)] = _find(block, k)
        c = (i + a - b for i, a, b in zip(e.index, cell[e.tail], cell[e.head]))
        support.append((k, [j for j, cj in enumerate(c) if cj]))
    # the axes of each block's cycle indices lie in one class
    axes = list(range(graph.dimension))
    first_axis: dict[int, int] = {}
    for k, members in support:
        for j in members:
            first = first_axis.setdefault(_find(block, k), j)
            axes[_find(axes, j)] = _find(axes, first)
    classes: dict[int, list[int]] = {}
    for j in range(graph.dimension):
        classes.setdefault(_find(axes, j), []).append(j)
    return tuple(sorted(tuple(members) for members in classes.values()))


def _find(parent: list[int], k: int) -> int:
    """Union-find root of k, halving the path on the way."""
    while parent[k] != k:
        parent[k] = parent[parent[k]]
        k = parent[k]
    return k
