"""Bit-identity of the bulk paths against the code they replaced.

The tangent frame of a concentration model, the tangent directions of
every family and the log-normal slice solved on them, the chordal fit,
the JSON matrix codec, the CLI emitter and the Jacobians of the
correlation multistart work on whole stacks and lists.  The code below
is what they replaced, kept here as oracles: every result must equal
theirs bit for bit (``==`` and ``array_equal``, no tolerance), which is
what keeps every CLI golden byte-identical.  CI runs this file once
more with one BLAS thread, as the benchmark does.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_chordal_graph, random_correlation, random_pd
from logvor import BivariateCorrelation, CiUnion, DagModel, Digraph, \
    Equicorrelation, Graph, GraphModel, LinearConcentration, SemParams, \
    ShapeMismatch, UnrestrictedCorrelation, equicorrelation_matrix, \
    is_chordal, lognormal_basis, sem_covariance, tangent_basis
from logvor.cli import _json
from logvor.core import _loglik, _parse_entry, _score, _unit_scale, \
    check_symmetric, sym_from_json, sym_to_json
from logvor.graphs import adjacency
from logvor.models import FAMILIES, _sem_fit
from logvor.mle import _CorrChart, _corr_residuals, _decomposable_point, \
    _frame_residual, _newton_directions, _onion_starts, _residual, \
    _tangent_frame

SCALES = (1e-3, 1.0, 1e3)


# ----------------------------------------------------------------------
# the loops, as they were


def basis_loop(G):
    """The diagonal units, then one symmetric unit per sorted edge."""
    def unit(i, j):
        E = np.zeros((G.m, G.m))
        E[i - 1, j - 1] = E[j - 1, i - 1] = 1.0
        return E

    return [unit(i, i) for i in range(1, G.m + 1)] + [
        unit(i, j) for i, j in G.sorted_edges()]


def frame_loop(model, Sg):
    """K and the directions ``-(Sg B Sg)`` of nonzero norm, one by one."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.inv(Sg), [
            (T, nrm) for T in [-(Sg @ B @ Sg) for B in model.basis]
            if (nrm := float(np.linalg.norm(T))) != 0.0]


def frame_residual_loop(frame, Ss):
    K, directions = frame
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        sc = _score(K, Ss)
        for T, nrm in directions:
            x = abs(float(np.sum(sc * T))) / nrm
            if x > worst or x != x:     # a NaN, once found, is kept
                worst = x
    return worst


def diag_unit(i, m):
    E = np.zeros((m, m))
    E[i, i] = 1.0
    return E


def offdiag_unit(i, j, m):
    E = np.zeros((m, m))
    E[i, j] = E[j, i] = 1.0
    return E


def tangent_loop(model, A):
    """The tangent directions of ``model`` at ``A`` as a list, one
    product or unit at a time."""
    m = model.dim
    if isinstance(model, DagModel):
        M = np.linalg.inv(np.eye(m) - _sem_fit(model.dag, A).Lambda)
        out = [M.T @ diag_unit(k, m) @ M for k in range(m)]
        for (u, v) in model.dag.sorted_arcs():
            E = np.zeros((m, m))
            E[u - 1, v - 1] = 1.0
            C = A @ E @ M
            out.append(C + C.T)
        return out
    if isinstance(model, Equicorrelation):
        return [np.ones((m, m)) - np.eye(m)]
    if isinstance(model, UnrestrictedCorrelation):
        return [offdiag_unit(i, j, m)
                for i in range(m) for j in range(i + 1, m)]
    if isinstance(model, CiUnion):
        if CiUnion._side(A) == 1:
            return [diag_unit(0, 3), diag_unit(1, 3),
                    offdiag_unit(1, 2, 3), diag_unit(2, 3)]
        return [diag_unit(0, 3), offdiag_unit(0, 1, 3),
                diag_unit(1, 3), diag_unit(2, 3)]
    return [-(A @ B @ A) for B in model.basis]


def sym_coords(m):
    """Orthonormal coordinates of Sym(m) under the trace inner product."""
    iu = np.triu_indices(m, 1)
    sqrt2 = np.sqrt(2.0)

    def vec(M):
        return np.concatenate([np.diag(M), sqrt2 * M[iu]])

    def unvec(v):
        M = np.zeros((m, m))
        M[np.diag_indices(m)] = v[:m]
        M[iu] = v[m:] / sqrt2
        M[(iu[1], iu[0])] = v[m:] / sqrt2
        return M

    return vec, unvec


def slice_loop(model, Sigma):
    """The directions of the log-normal slice, with one row of the
    system ``tr(K D K T_k) = 0`` per tangent direction."""
    B = _unit_scale(Sigma)[1]
    K = np.linalg.inv(B)
    vec, unvec = sym_coords(B.shape[0])
    rows = np.stack([vec(K @ T @ K) for T in tangent_loop(model, B)])
    _, svals, vh = np.linalg.svd(rows)
    cutoff = max(rows.shape) * np.finfo(float).eps \
        * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > cutoff))
    return [unvec(row) for row in vh[rank:]]


def decomposable_loop(G, A, order):
    """The chordal fit with one inverse and one ``+=`` per block."""
    m = G.m
    adj = adjacency(G)
    pos = {v: k for k, v in enumerate(order)}
    weight = Counter()
    for v in order:
        pa = tuple(sorted(u for u in adj[v] if pos[u] > pos[v]))
        weight[tuple(sorted(pa + (v,)))] += 1
        if pa:
            weight[pa] -= 1
    K = np.zeros((m, m))
    k, B = _unit_scale(A)
    for block, w in weight.items():
        if w:
            idx = np.ix_([v - 1 for v in block], [v - 1 for v in block])
            K[idx] += w * np.linalg.inv(B[idx])
    Sigma = np.ldexp(np.linalg.inv(K), -k)
    return (Sigma + Sigma.T) / 2.0


def newton_directions_stacked(chart, K, W, F):
    """The Newton steps of the correlation multistart from one stacked
    gather of ``K`` and ``W`` at rows ``(i_l then j_l)`` by columns
    ``(i_k then j_k)``, in chunks of 2^15 // (8 p^2) rows."""
    p = chart.p
    iu, ju = np.triu_indices(chart.m, 1)
    pairs = np.concatenate([iu, ju])
    rows = max(1, (1 << 15) // (8 * p * p))
    delta = np.empty_like(F)
    for lo in range(0, len(F), rows):
        sl = slice(lo, lo + rows)
        Z = np.stack((K[sl], W[sl]), axis=1)[:, :, pairs[:, None],
                                             pairs[None, :]]
        Ka, Kb = Z[:, 0, :p], Z[:, 0, p:]   # rows a / rows b; columns i, j
        Wa, Gb = Z[:, 1, :p], Z[:, 1, p:] - Kb
        J = (Ka[..., :p] * Gb[..., p:] + Ka[..., p:] * Gb[..., :p]
             + Wa[..., :p] * Kb[..., p:] + Wa[..., p:] * Kb[..., :p])
        try:
            delta[sl] = np.linalg.solve(J, -F[sl, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for r in range(len(J)):
                delta[lo + r] = np.linalg.lstsq(J[r], -F[lo + r],
                                                rcond=None)[0]
    return delta


def sym_from_json_loop(obj):
    m, upper = obj["dim"], obj["upper"]
    A = np.zeros((m, m))
    pos = 0
    for i in range(m):
        for j in range(i, m):
            A[i, j] = A[j, i] = _parse_entry(upper[pos])
            pos += 1
    return check_symmetric(A)


def round15(x):
    if isinstance(x, float):
        x = float(f"{x:.15g}")
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: round15(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [round15(v) for v in x]
    return x


def emit_oracle(obj):
    return json.dumps(round15(obj), indent=2, allow_nan=False)


# ----------------------------------------------------------------------
# seeded graphs and their points


def path(m, rng):
    return Graph(m, {(i, i + 1) for i in range(1, m)})


def tree(m, rng):
    return Graph(m, {(int(rng.integers(1, v)), v) for v in range(2, m + 1)})


def clique_chain(m, rng):
    """Cliques of 2 to 6 vertices, each sharing 1 to 3 with the last."""
    edges, start = set(), 1
    while True:
        size = int(rng.integers(2, 7))
        block = range(start, min(start + size, m + 1))
        edges |= {(i, j) for i in block for j in block if i < j}
        if block[-1] == m:
            return Graph(m, edges)
        start = max(block[-1] - int(rng.integers(0, 3)), start + 1)


def grid(m, rng):
    c = max(2, m // 4)

    def v(i, j):
        return i * c + j + 1

    edges = {(v(i, j), v(i + 1, j)) for i in range(3) for j in range(c)}
    edges |= {(v(i, j), v(i, j + 1)) for i in range(4) for j in range(c - 1)}
    return Graph(4 * c, edges)


def random_graph(m, rng):
    p = float(rng.uniform(0.05, 0.9))
    return Graph(m, {(i, j) for i in range(1, m + 1)
                     for j in range(i + 1, m + 1) if rng.uniform() < p})


KINDS = {"path": path, "tree": tree, "clique-chain": clique_chain,
         "grid": grid, "random": random_graph,
         "random-chordal": random_chordal_graph}


def graph_point(G, rng):
    """A point of the graph model: the inverse of a diagonally dominant
    concentration supported on the edges."""
    K = np.zeros((G.m, G.m))
    for i, j in G.edges:
        K[i - 1, j - 1] = K[j - 1, i - 1] = rng.uniform(-1.0, 1.0)
    K += np.diag(np.abs(K).sum(axis=1) + rng.uniform(0.5, 2.0, G.m))
    Sigma = np.linalg.inv(K)
    return (Sigma + Sigma.T) / 2.0


def sample(m, rng):
    X = rng.standard_normal((m, m + 3))
    return X @ X.T / (m + 3) + 0.1 * np.eye(m)


def graphs(kind, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(2, 46))
        yield KINDS[kind](m, rng), rng


# ----------------------------------------------------------------------
# tangent frame and residual


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_frame_and_residual_match_the_loop(kind):
    for G, rng in graphs(kind, 16, seed=len(kind)):
        model = GraphModel(G)
        assert np.array_equal(model._stack, basis_loop(G))
        Sigma, S = graph_point(G, rng), sample(G.m, rng)
        for scale in SCALES + (2.0 ** 300,):
            Sg, Ss = scale * Sigma, scale * S
            # the frame and its residual are those of the loops at the
            # point scaled by 2^-e, and the residual is scaled back
            e, K, T, nrm = frame = _tangent_frame(model, Sg)
            assert e == math.frexp(float(Sg.diagonal().max()))[1]
            K0, directions = frame_loop(model, np.ldexp(Sg, -e))
            assert np.array_equal(K, K0)
            assert len(T) == len(nrm) == len(directions)
            for t, n, (t0, n0) in zip(T, nrm, directions):
                assert np.array_equal(t, t0.ravel()) and n == n0
            want = frame_residual_loop((K0, directions), np.ldexp(Ss, -e))
            assert _frame_residual(frame, Ss) == want
            assert _residual(model, Sg, Ss) == math.ldexp(want, -e)
            # a score that overflows: infinite or NaN, as the loop says
            with np.errstate(over="ignore"):
                huge = 1e305 * Ss
                want = frame_residual_loop((K0, directions),
                                           np.ldexp(huge, -e))
            got = _frame_residual(frame, huge)
            assert got == want or (got != got and want != want)


def test_empty_frame_has_residual_zero():
    K = np.eye(2)
    frame = (0, K, np.empty((0, 4)), np.empty(0))
    assert _frame_residual(frame, K) == 0.0 == frame_residual_loop((K, []), K)


def test_nan_component_wins():
    """A NaN score component is the residual, wherever it comes."""
    K = np.eye(2)
    T = np.stack([np.eye(2), np.ones((2, 2)), np.eye(2)])
    nrm = np.array([1.0, np.nan, 1e-300])
    assert math.isnan(_frame_residual((0, K, T.reshape(3, 4), nrm), 2.0 * K))
    directions = list(zip(T, nrm.tolist()))
    assert math.isnan(frame_residual_loop((K, directions), 2.0 * K))


# ----------------------------------------------------------------------
# tangent directions and the log-normal slice of every family


def random_dag(m, rng):
    p = float(rng.uniform(0.0, 1.0))
    return Digraph(m, {(i, j) for i in range(1, m + 1)
                       for j in range(i + 1, m + 1) if rng.uniform() < p})


def dag_point(dag, rng):
    L = np.zeros((dag.m, dag.m))
    for i, j in dag.arcs:
        L[i - 1, j - 1] = rng.uniform(-0.9, 0.9)
    return sem_covariance(dag, SemParams(rng.uniform(0.5, 2.0, dag.m), L))


def ci_union_point(side, rng):
    """A point of component ``side``: the coupling of its free entry
    below the geometric mean of the two diagonal entries."""
    d = rng.uniform(0.5, 3.0, 3)
    c = rng.uniform(-0.9, 0.9) * math.sqrt(d[1] * d[2])
    Sigma = np.diag(d)
    Sigma[1, 2] = Sigma[2, 1] = c
    return Sigma if side == 1 else Sigma[::-1, ::-1].copy()


def family_points(kind, count, seed):
    """``count`` models of the family ``kind`` with a random point each;
    the CI union alternates between its components, and the first DAG
    has no arcs."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        m = int(rng.integers(2, 7))
        if kind == "concentration":
            K = random_pd(m, rng)
            extra = [(A + A.T) / 2.0 for A in rng.standard_normal(
                (int(rng.integers(0, m)), m, m))]
            yield LinearConcentration((K, *extra)), np.linalg.inv(K)
        elif kind == "graph":
            G = random_graph(m, rng)
            yield GraphModel(G), graph_point(G, rng)
        elif kind == "dag":
            dag = Digraph(m) if n == 0 else random_dag(m, rng)
            yield DagModel(dag), dag_point(dag, rng)
        elif kind == "bivariate-correlation":
            yield BivariateCorrelation(), equicorrelation_matrix(
                2, rng.uniform(-0.95, 0.95))
        elif kind == "equicorrelation":
            yield Equicorrelation(m), equicorrelation_matrix(
                m, rng.uniform(-0.9 / (m - 1), 0.95))
        elif kind == "correlation":
            yield UnrestrictedCorrelation(m), random_correlation(m, rng)
        else:
            yield CiUnion(), ci_union_point(1 + n % 2, rng)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_tangent_directions_and_slice_match_the_loop(kind):
    for model, Sigma in family_points(kind, 12, seed=30 + len(kind)):
        Sigma = check_symmetric(Sigma)      # as the public functions see it
        T = model.tangent_basis(Sigma)
        want = tangent_loop(model, Sigma)
        assert T.shape == (len(want), model.dim, model.dim)
        assert all(map(np.array_equal, T, want))
        assert all(map(np.array_equal, tangent_basis(model, Sigma), want))
        got = lognormal_basis(model, Sigma).directions
        want = slice_loop(model, Sigma)
        assert len(got) == len(want)
        assert all(map(np.array_equal, got, want))


# ----------------------------------------------------------------------
# the chordal fit


@pytest.mark.parametrize("kind", ["path", "tree", "clique-chain",
                                  "random-chordal"])
def test_chordal_fit_matches_the_loop(kind):
    fitted = 0
    for G, rng in graphs(kind, 20, seed=10 + len(kind)):
        chordal, order = is_chordal(G)
        if not chordal or G.is_complete():
            continue
        for scale in SCALES + (1e-300,):
            A = scale * sample(G.m, rng)
            point = _decomposable_point(G, A, order)
            Sigma = decomposable_loop(G, A, order)
            assert np.array_equal(point.sigma, Sigma)
            assert point.loglik == _loglik(Sigma, A)
        fitted += 1
    assert fitted >= 3


# ----------------------------------------------------------------------
# the Jacobians of the correlation multistart


def corr_rows(m, n, seed):
    """``K``, ``W`` and ``F`` at ``n`` random elliptope points, for a
    slice-like sample."""
    rng = np.random.default_rng(seed)
    chart = _CorrChart(m)
    A = rng.standard_normal((m, m + 2))
    S = A @ A.T / (m + 2) + 0.1 * np.eye(m)
    return chart, _corr_residuals(chart, S, chart.matrices(
        _onion_starts(chart, n, rng)))


@pytest.mark.parametrize("m", range(2, 8))
def test_newton_directions_match_the_stacked_gather(m):
    """One row, and rows across the chunk boundaries of both chunkings."""
    p = m * (m - 1) // 2
    for n in (1, (1 << 15) // (4 * p * p) + 1):
        chart, (K, W, F) = corr_rows(m, n, seed=m)
        assert np.array_equal(_newton_directions(chart, K, W, F),
                              newton_directions_stacked(chart, K, W, F))


@pytest.mark.parametrize("m", range(2, 8))
def test_singular_jacobian_takes_least_squares_as_before(m):
    """A zero Jacobian sends the rows of its 2^15 // (8 p^2)-row half of
    a chunk to least squares and the other half to the batched solve:
    five rows, one half under both chunkings, with the zero at row 2;
    then one full chunk, two halves, with the zero in its first or its
    last row."""
    p = m * (m - 1) // 2
    half = (1 << 15) // (8 * p * p)
    for n, bad in ((5, 2), (2 * half, 0), (2 * half, 2 * half - 1)):
        chart, (K, W, F) = corr_rows(m, n, seed=20 + m)
        K[bad] = W[bad] = 0.0           # J = 0 at row bad: solve raises
        delta = _newton_directions(chart, K, W, F)
        assert np.array_equal(delta, newton_directions_stacked(chart, K, W, F))
        assert np.array_equal(delta[bad], np.zeros(p))   # least norm
        assert np.isfinite(delta).all()


# ----------------------------------------------------------------------
# the matrix codec


def upper_lists(m, rng):
    """Upper triangles of random symmetric matrices, as floats, with
    -0.0, subnormals and numbers near the largest double among them."""
    n = m * (m + 1) // 2
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[rng.uniform(size=n) < 0.1] = -0.0
    x[rng.uniform(size=n) < 0.05] = 5e-324
    x[rng.uniform(size=n) < 0.05] = np.finfo(float).max
    return x.tolist()


def test_matrix_codec_matches_the_loop():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 46))
        doc = {"dim": m, "upper": upper_lists(m, rng)}
        A = sym_from_json(doc)
        assert np.array_equal(A, sym_from_json_loop(doc))
        assert np.array_equal(np.signbit(A), np.signbit(sym_from_json_loop(doc)))
        upper = sym_to_json(A)["upper"]
        loop = [float(A[i, j]) for i in range(m) for j in range(i, m)]
        assert list(map(repr, upper)) == list(map(repr, loop))
        assert all(type(x) is float for x in upper)


@pytest.mark.parametrize("upper", [
    [1, 0.5, 2], ["1/3", 0.25, "2"], [1.0, True, 2.0], [1.0, "x", None],
    [1.0, 0.5, "1e400"], [np.float64(1.0), 0.5, 2.0], [1.0, 0.5, math.nan],
], ids=["ints", "strings", "bool", "first-bad", "too-large", "numpy",
        "nan"])
def test_matrix_decoder_on_other_entries_matches_the_loop(upper):
    """Entries that are not all plain floats give the loop's matrix, or
    its error with its message."""
    doc = {"dim": 2, "upper": upper}
    try:
        want = sym_from_json_loop(doc)
    except ShapeMismatch as exc:
        with pytest.raises(ShapeMismatch) as info:
            sym_from_json(doc)
        assert str(info.value) == str(exc)
    else:
        assert np.array_equal(sym_from_json(doc), want)


# ----------------------------------------------------------------------
# the CLI emitter

FUZZ = settings(max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

floats = st.floats() | st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 1e15, 1e16, 1e-5, 5e-324,
    123456789012345678.0, np.finfo(float).max, 1.79769313486231e308])
scalars = (floats | st.integers() | st.booleans() | st.none() | st.text()
           | st.builds(np.float64, st.floats()))
reports = st.recursive(
    scalars | st.lists(floats) | st.lists(st.integers()),
    lambda kids: (st.lists(kids, max_size=5)
                  | st.tuples(kids, kids)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=5)),
    max_leaves=40)


@FUZZ
@given(reports)
def test_emitter_writes_the_bytes_of_json_dumps(report):
    assert _json(report) == emit_oracle(report)


@pytest.mark.parametrize("report", [
    {}, [], {"a": []}, {"a": {}}, [[], {}], {"é": "ü☃"},
    {"points": [{"sigma": {"dim": 1, "upper": [math.nan]},
                 "loglik": -math.inf, "source": "unique"}]},
    {"decomposition": {"U": [1, 2], "T": [2], "W": [2, 3]}},
    {"decomposition": None, "best_effort": True, "x": [True, False, 0]},
], ids=["empty-dict", "empty-list", "nested-list", "nested-dict",
        "empties", "non-ascii", "non-finite", "ints", "mixed"])
def test_emitter_on_report_shapes(report):
    assert _json(report) == emit_oracle(report)
