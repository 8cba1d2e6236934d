"""Shared fixtures: the reference matrices and graphs used across the suite.

All matrices are transcribed with exact rational strings through the
JSON decoder, so every test sees bit-identical inputs.
"""

import numpy as np
import pytest

from logvor import Digraph, Graph
from logvor.core import sym_from_json
from logvor.models import DagParams


def _sym(dim, upper):
    return sym_from_json({"dim": dim, "upper": upper})


@pytest.fixture
def path_graph():
    return Graph(4, ((1, 2), (2, 3), (3, 4)))


@pytest.fixture
def path_sigma():
    """4 x 4 covariance whose inverse vanishes off the path 1-2-3-4."""
    return _sym(4, ["6", "1", "1/7", "1/28",
                    "7", "1", "1/4",
                    "8", "2",
                    "9"])


@pytest.fixture
def elliptope_sigma():
    """The 3 x 3 correlation matrix with entries (1/2, 1/3, 1/4)."""
    return _sym(3, ["1", "1/2", "1/4",
                    "1", "1/3",
                    "1"])


@pytest.fixture
def elliptope_s1():
    """Slice sample whose likelihood has three real critical points."""
    return _sym(3, ["1211/4560", "-217/3420", "1/30",
                    "827/2565", "1/9",
                    "1"])


@pytest.fixture
def elliptope_s2():
    """Slice sample with a unique real critical point."""
    return _sym(3, ["813/304", "103/76", "1/2",
                    "85/57", "1/3",
                    "1/3"])


@pytest.fixture
def collider_dag():
    """The DAG 1 -> 2 -> 4 <- 3 (vertex 4 is a collider)."""
    return Digraph(4, ((1, 2), (2, 4), (3, 4)))


@pytest.fixture
def collider_params():
    return DagParams(a=(1.0, 2.0, 3.0, 4.0),
                     lam={(1, 2): 0.5, (2, 4): 1.0, (3, 4): 0.5})


@pytest.fixture
def collider_sigma():
    """Trek-rule covariance of the collider DAG at the fixture parameters."""
    return _sym(4, ["1", "1/2", "0", "1/2",
                    "2", "0", "2",
                    "3", "3/2",
                    "4"])


def random_correlation(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-diagonal positive definite matrix (Gram of unit rows)."""
    while True:
        A = rng.standard_normal((m, m + 2))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        C = A @ A.T
        if np.linalg.eigvalsh(C)[0] > 1e-3:
            return C


def random_pd(m: int, rng: np.random.Generator, *, scale: float = 1.0) -> np.ndarray:
    """Random positive definite matrix (uniform symmetric part shifted PD)."""
    A = rng.uniform(-1.0, 1.0, size=(m, m)) * scale
    A = (A + A.T) / 2.0
    lam = float(np.linalg.eigvalsh(A)[0])
    return A + (abs(lam) + 0.5 * scale) * np.eye(m)


def random_chordal_graph(m, rng):
    """Fill-in of a random graph under a random elimination order."""
    adj = {v: set() for v in range(1, m + 1)}
    p = float(rng.uniform(0.1, 0.6))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if rng.uniform() < p:
                adj[i].add(j)
                adj[j].add(i)
    left = set(adj)
    for v in (int(x) + 1 for x in rng.permutation(m)):
        left.remove(v)
        later = sorted(adj[v] & left)
        for i, u in enumerate(later):
            for w in later[i + 1:]:
                adj[u].add(w)
                adj[w].add(u)
    return Graph(m, frozenset((i, j) for i in adj for j in adj[i] if i < j))
