"""Undirected-graph combinatorics and DAG utilities.

Vertices are labelled ``1..m``.  Arcs of a directed graph must respect
the labelling (``i -> j`` implies ``i < j``), which makes every stored
digraph acyclic by construction.  All enumeration functions produce
deterministic, sorted output so that downstream solvers and the CLI are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import IndexOutOfRange, NotTopological


def _check_vertex(v, m: int) -> int:
    i = int(v)
    if i != v or not 1 <= i <= m:
        raise IndexOutOfRange(f"vertex {v!r} outside 1..{m}")
    return i


def _vertex_pairs(m, pairs, what: str) -> list[tuple[int, int]]:
    """The pairs of vertices in 1..m, checked in order along with the
    vertex count; :class:`IndexOutOfRange` for a count below 1, a vertex
    outside 1..m or a loop (``what`` names the pair in the message)."""
    if int(m) != m or m < 1:
        raise IndexOutOfRange(f"vertex count must be >= 1, got {m!r}")
    out = []
    for i, j in pairs:
        i, j = _check_vertex(i, m), _check_vertex(j, m)
        if i == j:
            raise IndexOutOfRange(f"loop {what} ({i}, {j}) not allowed")
        out.append((i, j))
    return out


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..m.

    Edges are stored as a frozenset of pairs ``(i, j)`` with ``i < j``;
    any iterable of pairs (in either orientation) is accepted.
    """

    m: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        pairs = _vertex_pairs(self.m, self.edges, "edge")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "edges",
                           frozenset((min(e), max(e)) for e in pairs))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def is_complete(self) -> bool:
        return len(self.edges) == self.m * (self.m - 1) // 2


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 1..m with arcs ``(i, j)``, ``i < j``.

    The labelling constraint is validated at construction and makes the
    graph acyclic; arcs that run against the labelling raise
    :class:`NotTopological`.
    """

    m: int
    arcs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        pairs = _vertex_pairs(self.m, self.arcs, "arc")
        for i, j in pairs:
            if i > j:
                raise NotTopological(
                    f"arc ({i}, {j}) runs against the vertex labelling")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "arcs", frozenset(pairs))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def parents(self, k: int) -> list[int]:
        _check_vertex(k, self.m)
        return sorted(i for i, j in self.arcs if j == k)

    def children(self, k: int) -> list[int]:
        _check_vertex(k, self.m)
        return sorted(j for i, j in self.arcs if i == k)


@dataclass(frozen=True)
class Decomposition:
    """A split (U, T, W) of a vertex set across a clique separator T."""

    U: tuple[int, ...]
    T: tuple[int, ...]
    W: tuple[int, ...]


def adjacency(G: Graph) -> dict[int, set[int]]:
    """Neighbour sets of every vertex, built in one pass over the edges."""
    adj: dict[int, set[int]] = {v: set() for v in G.vertices}
    for i, j in G.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def maximal_cliques(G: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques, each sorted, listed lexicographically, by
    Bron-Kerbosch search with pivoting (Tomita, Tanaka and Takahashi,
    2006): the clique ``R`` grows by each candidate in ``P`` outside the
    neighbourhood of the pivot, which has the most neighbours in ``P``."""
    adj = adjacency(G)
    cliques = []
    stack = [((), set(G.vertices), set())]   # no recursion-depth limit
    while stack:
        R, P, X = stack.pop()
        if not P and not X:
            cliques.append(tuple(sorted(R)))
            continue
        pivot = max(P | X, key=lambda u: len(P & adj[u]))
        for v in P - adj[pivot]:
            stack.append((R + (v,), P & adj[v], X & adj[v]))
            P = P - {v}
            X = X | {v}
    return sorted(cliques)


def is_chordal(G: Graph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Chordality test via maximum cardinality search.

    Returns ``(True, order)`` where ``order`` is a perfect elimination
    ordering produced by reversing the search, or ``(False, None)``.
    Ties in the search are broken towards the smallest vertex label, so
    the order is deterministic.
    """
    nbrs = adjacency(G)
    weight = {v: 0 for v in G.vertices}
    unpicked = set(G.vertices)
    picked: list[int] = []
    while unpicked:
        z = min(unpicked, key=lambda v: (-weight[v], v))
        picked.append(z)
        unpicked.remove(z)
        for y in nbrs[z] & unpicked:
            weight[y] += 1
    order = tuple(reversed(picked))
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        later = {u for u in nbrs[v] if pos[u] > pos[v]}
        if not later:
            continue
        u0 = min(later, key=pos.__getitem__)
        if not (later - {u0}) <= nbrs[u0]:
            return False, None
    return True, order


def _cliques_of_size(adj: dict[int, set[int]], k: int, pool: list[int]
                     ) -> Iterator[tuple[int, ...]]:
    """The k-cliques inside the sorted vertex list ``pool``, as sorted
    tuples in lexicographic order."""

    def extend(clique: tuple[int, ...], cands: list[int]):
        if len(clique) == k:
            yield clique
            return
        need = k - len(clique)
        for n, v in enumerate(cands):
            if len(cands) - n < need:
                return
            yield from extend(clique + (v,),
                              [u for u in cands[n + 1:] if u in adj[v]])

    yield from extend((), pool)


def _component(adj: dict[int, set[int]], allowed: set[int],
               start: int) -> set[int]:
    """Vertices reachable from ``start`` inside ``allowed``."""
    seen = {start}
    stack = [start]
    while stack:
        new = (adj[stack.pop()] & allowed) - seen
        seen |= new
        stack.extend(new)
    return seen


def find_reducible_decomposition(G: Graph) -> Optional[Decomposition]:
    """Search for a clique separator and split the graph across it.

    Candidate separators are generated lazily by increasing size, each
    size in lexicographic order, so the returned separator is a smallest
    clique separator with the lexicographically least vertex set.  The U
    side is the component of ``G - T`` containing the smallest vertex;
    every remaining component goes to the W side.  Returns ``None`` when
    no clique separator exists (in particular for complete graphs).
    The search stops at the first separating clique, but a graph with
    large cliques and no clique separator still visits all its cliques.
    """
    if G.is_complete():
        return None
    adj = adjacency(G)
    vertices = set(G.vertices)
    # A vertex whose neighbours form a clique is in no smallest clique
    # separator T: its neighbours outside T lie in one component, so T
    # without it would separate as well.
    pool = [v for v in G.vertices
            if not all(adj[v] - {u} <= adj[u] for u in adj[v])]
    for size in range(min(G.m - 2, len(pool)) + 1):   # T leaves >= 2 vertices
        for T in _cliques_of_size(adj, size, pool):
            rest = vertices.difference(T)
            first = _component(adj, rest, min(rest))
            if len(first) < len(rest):
                return Decomposition(U=tuple(sorted(first.union(T))), T=T,
                                     W=tuple(sorted((rest - first).union(T))))
    return None


def induced_subgraph(G: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on ``vertices``, relabelled 1..k in sorted order."""
    vs = sorted({_check_vertex(v, G.m) for v in vertices})
    relabel = {v: k + 1 for k, v in enumerate(vs)}
    edges = {(relabel[i], relabel[j]) for i, j in G.edges
             if i in relabel and j in relabel}
    return Graph(len(vs), frozenset(edges))


class Trek(NamedTuple):
    """A collider-free path between two vertices of a DAG.

    ``up`` is the directed edge list from the top vertex down to the
    first endpoint, ``down`` the edge list from the top to the second
    endpoint; the two directed paths share no vertex besides the top.
    """

    top: int
    up: tuple[tuple[int, int], ...]
    down: tuple[tuple[int, int], ...]


def _directed_paths(children: dict, t: int, x: int) -> list[tuple]:
    """All directed paths t -> ... -> x as tuples of arcs."""
    if t == x:
        return [()]
    out = []
    for c in children[t]:
        for rest in _directed_paths(children, c, x):
            out.append(((t, c),) + rest)
    return out


def _path_vertices(t: int, path: tuple) -> set[int]:
    vs = {t}
    for _, head in path:
        vs.add(head)
    return vs


def list_treks(dag: Digraph, i: int, j: int) -> list[Trek]:
    """Enumerate all treks between vertices i and j.

    A trek is formed by a pair of directed paths out of a common top
    vertex, one ending at ``i`` and one at ``j``, sharing only the top;
    equivalently, a simple collider-free path between the endpoints.
    ``list_treks(dag, i, i)`` is the single trivial trek at ``i``.
    The number of treks grows exponentially with the size of the DAG;
    :func:`logvor.models.trek_covariance` sums them by a recursion
    instead, and this listing serves as its reference.
    """
    _check_vertex(i, dag.m)
    _check_vertex(j, dag.m)
    children = {v: dag.children(v) for v in dag.vertices}
    treks = []
    for t in dag.vertices:
        ups = _directed_paths(children, t, i)
        downs = _directed_paths(children, t, j)
        if not ups or not downs:
            continue
        for up in ups:
            uvs = _path_vertices(t, up)
            for down in downs:
                if uvs & _path_vertices(t, down) == {t}:
                    treks.append(Trek(top=t, up=up, down=down))
    treks.sort()
    return treks


def graph_from_json(obj) -> Graph:
    """Decode ``{"m": ..., "edges": [[i, j], ...]}``."""
    if not isinstance(obj, dict) or "m" not in obj:
        raise IndexOutOfRange('graph JSON needs "m" and "edges"')
    return Graph(obj["m"], frozenset(tuple(e) for e in obj.get("edges", [])))


def graph_to_json(G: Graph) -> dict:
    return {"m": G.m, "edges": [list(e) for e in G.sorted_edges()]}


def digraph_from_json(obj) -> Digraph:
    """Decode ``{"m": ..., "arcs": [[i, j], ...]}``."""
    if not isinstance(obj, dict) or "m" not in obj:
        raise IndexOutOfRange('digraph JSON needs "m" and "arcs"')
    return Digraph(obj["m"], frozenset(tuple(a) for a in obj.get("arcs", [])))


def digraph_to_json(dag: Digraph) -> dict:
    return {"m": dag.m, "arcs": [list(a) for a in dag.sorted_arcs()]}
