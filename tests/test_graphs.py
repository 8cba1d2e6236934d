"""Graph combinatorics: cliques, chordality, separators, treks."""

import itertools
from time import perf_counter

import numpy as np
import networkx as nx
import pytest

from logvor import (
    Decomposition,
    Digraph,
    Graph,
    IndexOutOfRange,
    NotTopological,
    Trek,
    find_reducible_decomposition,
    induced_subgraph,
    is_chordal,
    list_treks,
    maximal_cliques,
)
from logvor.graphs import adjacency

from conftest import random_chordal_graph


def random_graph(m, rng, p=0.5):
    edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
             if rng.uniform() < p]
    return Graph(m, frozenset(edges))


def to_networkx(G):
    """The networkx copy of ``G``, for the oracles below."""
    g = nx.Graph()
    g.add_nodes_from(G.vertices)
    g.add_edges_from(G.edges)
    return g


def exhaustive_decomposition(G):
    """Reference separator search: every clique (the empty one included)
    by size, then lexicographically, tested with networkx components."""
    g = to_networkx(G)
    cliques = [tuple(sorted(c)) for c in nx.enumerate_all_cliques(g)] + [()]
    for T in sorted(cliques, key=lambda c: (len(c), c)):
        rest = set(G.vertices) - set(T)
        if len(rest) < 2:
            continue
        comps = sorted((set(c) for c in nx.connected_components(g.subgraph(rest))),
                       key=min)
        if len(comps) < 2:
            continue
        return Decomposition(U=tuple(sorted(comps[0] | set(T))), T=T,
                             W=tuple(sorted((rest - comps[0]) | set(T))))
    return None


def reference_is_chordal(G):
    """Reference chordality test: maximum cardinality search, ties to the
    smallest label, then a check that its reverse is a perfect
    elimination order (each vertex's earliest later neighbour is
    adjacent to all its other later neighbours)."""
    nbrs = adjacency(G)
    weight = {v: 0 for v in G.vertices}
    unpicked = set(G.vertices)
    picked = []
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


def complete_minus_edge(n, edge=(1, 2)):
    return Graph(n, frozenset(itertools.combinations(range(1, n + 1), 2))
                 - {edge})


class TestGraphConstruction:
    def test_edges_are_normalised(self):
        G = Graph(3, ((2, 1), (3, 2)))
        assert G.sorted_edges() == [(1, 2), (2, 3)]

    def test_rejects_loops_and_bad_vertices(self):
        with pytest.raises(IndexOutOfRange):
            Graph(3, ((1, 1),))
        with pytest.raises(IndexOutOfRange):
            Graph(3, ((1, 4),))
        with pytest.raises(IndexOutOfRange):
            Graph(0)

    def test_neighbors_and_completeness(self):
        G = Graph(4, ((1, 2), (2, 3), (3, 4)))
        assert adjacency(G)[2] == {1, 3}
        assert not G.is_complete()
        assert Graph(3, ((1, 2), (1, 3), (2, 3))).is_complete()

    def test_digraph_requires_increasing_arcs(self):
        Digraph(3, ((1, 3), (2, 3)))      # fine
        with pytest.raises(NotTopological):
            Digraph(3, ((3, 1),))


class TestMaximalCliques:
    def test_path_cliques_are_edges(self, path_graph):
        assert maximal_cliques(path_graph) == [(1, 2), (2, 3), (3, 4)]

    def test_matches_brute_force(self):
        """Compare with direct enumeration of maximal complete subsets."""
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            G = random_graph(m, rng)
            complete = []
            for r in range(1, m + 1):
                for sub in itertools.combinations(range(1, m + 1), r):
                    if all(G.has_edge(i, j)
                           for i, j in itertools.combinations(sub, 2)):
                        complete.append(set(sub))
            maximal = sorted(tuple(sorted(c)) for c in complete
                             if not any(c < d for d in complete))
            assert maximal_cliques(G) == maximal

    def test_matches_networkx(self):
        """networkx's find_cliques as the oracle, up to m = 15 and over
        the whole range of edge densities."""
        rng = np.random.default_rng(23)
        for _ in range(400):
            m = int(rng.integers(1, 16))
            G = random_graph(m, rng, p=rng.uniform(0.05, 0.95))
            expect = sorted(tuple(sorted(c))
                            for c in nx.find_cliques(to_networkx(G)))
            assert maximal_cliques(G) == expect


class TestChordality:
    def test_examples(self, path_graph):
        chordal, order = is_chordal(path_graph)
        assert chordal and order is not None
        four_cycle = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        assert is_chordal(four_cycle) == (False, None)

    def test_order_is_perfect_elimination(self, path_graph):
        """Each vertex's later neighbours must form a clique."""
        chordal, order = is_chordal(path_graph)
        assert chordal
        pos = {v: k for k, v in enumerate(order)}
        for v in order:
            later = [u for u in adjacency(path_graph)[v] if pos[u] > pos[v]]
            for i, j in itertools.combinations(later, 2):
                assert path_graph.has_edge(i, j)

    def test_matches_networkx(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = int(rng.integers(2, 8))
            G = random_graph(m, rng, p=float(rng.uniform(0.2, 0.9)))
            assert is_chordal(G)[0] == nx.is_chordal(to_networkx(G))

    def test_matches_reference_search(self):
        """Verdict and elimination order equal those of maximum
        cardinality search with its order check, on random graphs and
        on random chordal graphs, where the order must agree bit for
        bit."""
        rng = np.random.default_rng(25)
        chordal = 0
        for _ in range(400):
            m = int(rng.integers(1, 15))
            p = float(rng.uniform(0.05, 0.95))
            for G in (random_graph(m, rng, p), random_chordal_graph(m, rng)):
                result = is_chordal(G)
                assert result == reference_is_chordal(G), G
                chordal += result[0]
        assert chordal > 450


class TestDecomposition:
    def test_path_splits_at_vertex_two(self, path_graph):
        assert find_reducible_decomposition(path_graph) == Decomposition(
            U=(1, 2), T=(2,), W=(2, 3, 4))

    def test_complete_graph_has_no_separator(self):
        K3 = Graph(3, ((1, 2), (1, 3), (2, 3)))
        assert find_reducible_decomposition(K3) is None

    def test_four_cycle_has_no_clique_separator(self):
        four_cycle = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        assert find_reducible_decomposition(four_cycle) is None

    def test_disconnected_graph_splits_on_empty_separator(self):
        G = Graph(4, ((1, 2), (3, 4)))
        dec = find_reducible_decomposition(G)
        assert dec == Decomposition(U=(1, 2), T=(), W=(3, 4))

    def test_split_is_valid_and_deterministic(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(300):
            m = int(rng.integers(3, 8))
            G = random_graph(m, rng, p=float(rng.uniform(0.2, 0.8)))
            dec = find_reducible_decomposition(G)
            assert dec == find_reducible_decomposition(G)
            if dec is None:
                continue
            checked += 1
            U, T, W = set(dec.U), set(dec.T), set(dec.W)
            assert U | W == set(G.vertices)
            assert U & W == T
            # T is a clique
            for i, j in itertools.combinations(sorted(T), 2):
                assert G.has_edge(i, j)
            # no edge crosses between U \ T and W \ T
            for i in U - T:
                for j in W - T:
                    assert not G.has_edge(i, j)
        assert checked > 50

    def test_matches_exhaustive_search(self):
        """Smallest separator, least vertex set and the U side all agree
        with the search over every clique."""
        rng = np.random.default_rng(24)
        found = 0
        for _ in range(600):
            m = int(rng.integers(1, 10))
            G = random_graph(m, rng, p=float(rng.uniform(0.1, 0.95)))
            dec = find_reducible_decomposition(G)
            assert dec == exhaustive_decomposition(G), G
            found += dec is not None
        assert found > 200

    def test_matches_exhaustive_search_on_larger_graphs(self):
        """The same agreement on K_n minus an edge, whose cliques outnumber
        the vertices exponentially, and on random graphs with m = 10-13."""
        rng = np.random.default_rng(26)
        for n in range(4, 15):
            edge = tuple(sorted(int(v) for v in rng.choice(n, 2, False) + 1))
            G = complete_minus_edge(n, edge)
            dec = find_reducible_decomposition(G)
            assert dec == exhaustive_decomposition(G), n
            assert dec.T == tuple(v for v in G.vertices if v not in edge)
        for _ in range(200):
            m = int(rng.integers(10, 14))
            G = random_graph(m, rng, p=float(rng.uniform(0.1, 0.95)))
            assert find_reducible_decomposition(G) == \
                exhaustive_decomposition(G), G

    def test_separator_search_is_polynomial(self):
        """K_20 minus an edge has 3 * 2^18 cliques; enumerating them by
        size cannot meet the budget."""
        t0 = perf_counter()
        dec = find_reducible_decomposition(complete_minus_edge(20))
        assert perf_counter() - t0 < 0.25
        assert dec == Decomposition(U=(1,) + tuple(range(3, 21)),
                                    T=tuple(range(3, 21)),
                                    W=tuple(range(2, 21)))

    def test_induced_subgraph_relabels(self, path_graph):
        H = induced_subgraph(path_graph, (2, 3, 4))
        assert H.m == 3
        assert H.sorted_edges() == [(1, 2), (2, 3)]


class TestTreks:
    def test_collider_blocks_treks(self, collider_dag):
        # 1 and 3 only meet at the collider 4, so they share no trek
        assert list_treks(collider_dag, 1, 3) == []

    def test_directed_trek(self, collider_dag):
        assert list_treks(collider_dag, 1, 4) == [
            Trek(top=1, up=(), down=((1, 2), (2, 4)))]

    def test_trivial_trek(self, collider_dag):
        assert list_treks(collider_dag, 2, 2) == [Trek(top=2, up=(), down=())]

    def test_common_ancestor_trek(self):
        dag = Digraph(3, ((1, 2), (1, 3)))
        assert list_treks(dag, 2, 3) == [
            Trek(top=1, up=((1, 2),), down=((1, 3),))]

    def test_paths_share_only_the_top(self):
        """In a diamond, paths that meet again downstream are not treks."""
        dag = Digraph(4, ((1, 2), (1, 3), (2, 4), (3, 4)))
        # between 4 and itself only the trivial trek survives: any pair of
        # paths out of 1 or 2 or 3 would share the endpoint 4 twice
        assert list_treks(dag, 4, 4) == [Trek(top=4, up=(), down=())]
        # between 2 and 4 the chain through 2 is excluded (shares 2), the
        # detour through 3 is not
        assert list_treks(dag, 2, 4) == [
            Trek(top=1, up=((1, 2),), down=((1, 3), (3, 4))),
            Trek(top=2, up=(), down=((2, 4),)),
        ]

