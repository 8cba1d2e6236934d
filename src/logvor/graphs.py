"""Undirected-graph combinatorics and DAG utilities.

Vertices are labelled ``1..m``.  Arcs of a directed graph must respect
the labelling (``i -> j`` implies ``i < j``), which makes every stored
digraph acyclic by construction.  All enumeration functions produce
deterministic, sorted output so that downstream solvers and the CLI are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .errors import IndexOutOfRange, InvalidModel, NotTopological, \
    _brief, _integer, _members


def _check_pairs(graph, field: str) -> None:
    """Check ``graph.m`` and the vertex pairs in ``field``, in order, and
    keep them as int pairs ``(i, j)``, ``i < j``: :class:`IndexOutOfRange`
    for a count below 1, a vertex outside 1..m or a loop, NotTopological
    for an arc ``i > j``, InvalidModel for a non-integer or a non-pair."""
    m = _integer(graph.m, "vertex count", 1, error=IndexOutOfRange)
    what, out = field[:-1], set()
    try:
        for i, j in getattr(graph, field):
            i = _integer(i, "vertex", 1, m, IndexOutOfRange)
            j = _integer(j, "vertex", 1, m, IndexOutOfRange)
            if i == j:
                raise IndexOutOfRange(
                    f"loop {what} ({_brief(i)}, {_brief(j)}) not allowed")
            if i > j and what == "arc":
                raise NotTopological(
                    f"arc ({_brief(i)}, {_brief(j)}) runs against the "
                    "vertex labelling")
            out.add((min(i, j), max(i, j)))
    except (TypeError, ValueError):
        raise InvalidModel(f"{what}s must be pairs of vertices") from None
    object.__setattr__(graph, "m", m)
    object.__setattr__(graph, field, frozenset(out))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..m.

    Edges are stored as a frozenset of pairs ``(i, j)`` with ``i < j``;
    any iterable of pairs (in either orientation) is accepted.
    """

    m: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        _check_pairs(self, "edges")

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
        _check_pairs(self, "arcs")

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def parents(self, k: int) -> list[int]:
        _integer(k, "vertex", 1, self.m, IndexOutOfRange)
        return sorted(i for i, j in self.arcs if j == k)

    def children(self, k: int) -> list[int]:
        _integer(k, "vertex", 1, self.m, IndexOutOfRange)
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


def _mcs_m(adj: dict[int, set[int]]
           ) -> tuple[list[int], dict[int, set[int]], bool]:
    """MCS-M (Berry, Blair, Heggernes and Peyton, 2004): maximum
    cardinality search that also raises each unpicked y joined to the
    picked z by a path of unpicked vertices lighter than y, adding the
    fill edge zy of a minimal triangulation.  Paths are swept by weight
    level up to the heaviest unpicked non-neighbour of z; the search
    takes O(n (n + e)).  Ties go to the smallest label.  Returns the
    pick order, the sets madj(x) of vertices picked before x that
    raised x, and whether a fill edge was added.
    """
    weight = dict.fromkeys(adj, 0)
    madj: dict[int, set[int]] = {v: set() for v in adj}
    bucket = [set(adj)]          # bucket[w]: the unpicked vertices of weight w
    order: list[int] = []
    fill = False
    for _ in adj:
        while not bucket[-1]:
            bucket.pop()
        z = min(bucket[-1])
        bucket[-1].remove(z)
        order.append(z)
        top = next((w for w in range(len(bucket) - 1, 0, -1)
                    if not bucket[w] <= adj[z]), 0)
        levels = [[z]] + [[] for _ in bucket]     # levels[w + 1]: weight w
        raised, seen = set(), set(order)
        for level, stack in enumerate(levels[:top + 1], -1):
            while stack:
                for y in adj[stack.pop()] - seen:
                    seen.add(y)
                    if weight[y] <= level:
                        stack.append(y)
                    else:
                        raised.add(y)
                        levels[weight[y] + 1].append(y)
        fill = fill or not raised <= adj[z]
        bucket.append(set())
        for y in raised:
            bucket[weight[y]].remove(y)
            weight[y] += 1
            bucket[weight[y]].add(y)
            madj[y].add(z)
    return order, madj, fill


def is_chordal(G: Graph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Chordality test in O(n e) time (n vertices, e >= n - 1 edges):
    G is chordal exactly when MCS-M (:func:`_mcs_m`) adds no fill edge,
    and then it raises only neighbours, as maximum cardinality search
    does.  Returns ``(True, order)``, with the reversed pick order as a
    perfect elimination ordering, or ``(False, None)``.
    """
    order, _, fill = _mcs_m(adjacency(G))
    return (False, None) if fill else (True, tuple(reversed(order)))


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
    """Split G across its smallest clique separator T, the least by
    vertex set, with U the component of ``G - T`` holding the smallest
    vertex and W the rest; ``None`` when there is no clique separator,
    as in a complete graph.  Each vertex of T has a neighbour in every
    component, or T less it would separate too; so T is a clique minimal
    separator, hence a minimal separator of the MCS-M triangulation
    (Berry, Pogorelcnik and Simonet, 2010) and one of the sets madj(x)
    of :func:`_mcs_m`.  These n sets are tested by size, then
    lexicographically, each in O(n + e), after the search.
    """
    adj = adjacency(G)
    cliques = {tuple(sorted(s)) for s in _mcs_m(adj)[1].values()
               if all(s - {u} <= adj[u] for u in s)}
    for T in sorted(cliques, key=lambda c: (len(c), c)):
        rest = set(G.vertices).difference(T)      # holds x, T = madj(x)
        first = _component(adj, rest, min(rest))
        if len(first) < len(rest):
            return Decomposition(U=tuple(sorted(first.union(T))), T=T,
                                 W=tuple(sorted((rest - first).union(T))))
    return None


def induced_subgraph(G: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on ``vertices``, relabelled 1..k in sorted order."""
    vs = sorted({_integer(v, "vertex", 1, G.m, IndexOutOfRange)
                 for v in _members(vertices, "vertices")})
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
    _integer(i, "vertex", 1, dag.m, IndexOutOfRange)
    _integer(j, "vertex", 1, dag.m, IndexOutOfRange)
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

