"""Relabelling and scale equivariance.

Permuting the coordinates of a sample, with the model relabelled to
match, permutes its critical points and keeps every cell-membership
verdict.  The oracle needs no second solver.  The unrestricted
correlation family is left out: its multistart is not a complete
enumeration, so two labellings may find different point sets.

Scaling a sample of a cone family (concentration, graph and DAG models
and the union of two CI planes) by 2^k scales its critical points by
2^k, bit for bit; scaling the model point with it scales the
criticality residual by 2^-k, bit for bit, and keeps every
cell-membership verdict.  Scaling a model point keeps its log-normal
slice directions, bit for bit, and the verdict of the model equations,
on the model and off it; the sampler draws 2^k times the samples of the
unscaled point.  A sample far larger than every slice point is off the
spectrahedron at every scale.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logvor import (
    IN_CELL,
    IN_SPECTRAHEDRON_NOT_CELL,
    NOT_IN_SPECTRAHEDRON,
    CiUnion,
    DagModel,
    Digraph,
    Equicorrelation,
    Graph,
    GraphModel,
    LinearConcentration,
    cell_membership,
    criticality_residual,
    critical_points,
    equicorrelation_matrix,
    in_spectrahedron,
    is_chordal,
    lognormal_basis,
    model_contains,
    model_from_json,
    sample_spectrahedron,
)

from conftest import random_pd
from test_cells import ci_union_t_sample, equicorrelation_slice_sample

RNG_SEED = 20221018
CHORDAL = Graph(5, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
NON_CHORDAL = Graph(5, ((1, 2), (2, 3), (3, 4), (1, 4), (4, 5)))
CONCENTRATION = LinearConcentration(
    (np.eye(4), np.ones((4, 4)) - np.eye(4), np.diag([1.0, -1.0, 0.5, 0.0]),
     np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 2.0],
               [0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])))
#: Component one of the union, at (t1, t2, t3, t4) = (1, 2, 1, 3).
CI_SIGMA = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]])
#: Component one of the union at (1, 2, 0.7, 3): its on-slice samples
#: have residuals near 1e-16, so a residual that is not taken at the
#: scale of Sigma leaves CRITICAL_TOL from Sigma * 2^-27 down.
CI_CONE_SIGMA = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.7],
                          [0.0, 0.7, 3.0]])
FAMILIES = ["chordal", "non-chordal", "concentration", "equicorrelation",
            "ci-union"]


def permute(A, perm):
    """The matrix whose entry (perm[i], perm[j]) is A[i, j] (0-based)."""
    inv = np.argsort(perm)
    return A[np.ix_(inv, inv)]


def relabel(model, perm):
    """The model on the coordinates permuted by ``perm``."""
    if isinstance(model, GraphModel):
        return GraphModel(Graph(model.graph.m, {
            (perm[i - 1] + 1, perm[j - 1] + 1) for i, j in model.graph.edges}))
    if isinstance(model, LinearConcentration):
        return LinearConcentration(tuple(permute(B, perm)
                                         for B in model.basis))
    return model        # equicorrelation, and ci-union under reversal


def family(name):
    """The model, its permutations under test, a model point and
    samples: on its log-normal slice, and random ones."""
    rng = np.random.default_rng(RNG_SEED)
    if name == "equicorrelation":
        model, Sigma = Equicorrelation(4), equicorrelation_matrix(4, 0.3)
        perms = list(itertools.permutations(range(4)))
        on_slice = [equicorrelation_slice_sample(4, 0.3, rng)
                    for _ in range(60)]
    elif name == "ci-union":
        model, Sigma, perms = CiUnion(), CI_SIGMA, [(2, 1, 0)]
        on_slice = [ci_union_t_sample((1.0, 2.0, 1.0, 3.0), rng)
                    for _ in range(60)]
    else:
        model = {"chordal": GraphModel(CHORDAL),
                 "non-chordal": GraphModel(NON_CHORDAL),
                 "concentration": CONCENTRATION}[name]
        m = model.dim
        Sigma = critical_points(model, random_pd(m, rng))[0].sigma
        perms = [tuple(rng.permutation(m)) for _ in range(6)]
        on_slice = sample_spectrahedron(model, Sigma, 20, seed=1)
    samples = on_slice + [random_pd(model.dim, rng) for _ in range(5)]
    return model, perms, Sigma, samples


def test_graph_cases_are_chordal_and_not():
    assert is_chordal(CHORDAL)[0] and not is_chordal(NON_CHORDAL)[0]


@pytest.mark.parametrize("name", FAMILIES)
def test_critical_points_permute(name):
    model, perms, _, samples = family(name)
    for S in samples[-5:] + samples[:3]:
        points = critical_points(model, S)
        for perm in perms:
            moved = critical_points(relabel(model, perm), permute(S, perm))
            assert len(moved) == len(points)
            unmatched = list(moved)
            for cp in points:
                want = permute(cp.sigma, perm)
                got = min(unmatched,
                          key=lambda q: float(np.abs(q.sigma - want).max()))
                unmatched.remove(got)
                np.testing.assert_allclose(
                    got.sigma, want, rtol=0,
                    atol=1e-10 * float(np.abs(want).max()))
                assert got.loglik == pytest.approx(cp.loglik, rel=1e-10)


@pytest.mark.parametrize("name", FAMILIES)
def test_cell_verdicts_match(name):
    model, perms, Sigma, samples = family(name)
    verdicts = [cell_membership(model, Sigma, S) for S in samples]
    statuses = {v.status for v in verdicts}
    assert IN_CELL in statuses and len(statuses) > 1
    if not model.degree_one:
        assert IN_SPECTRAHEDRON_NOT_CELL in statuses
    for perm in perms:
        moved_model = relabel(model, perm)
        moved_sigma = permute(Sigma, perm)
        for S, v in zip(samples, verdicts):
            w = cell_membership(moved_model, moved_sigma, permute(S, perm))
            assert w.status == v.status
            if v.margin is None:
                assert w.margin is None
            else:
                assert w.margin == pytest.approx(v.margin, rel=1e-8,
                                                 abs=1e-10)


#: The cone families, one model object each, which every scale shares.
CONES = {"concentration": CONCENTRATION,
         "chordal": GraphModel(CHORDAL),
         "4-cycle": GraphModel(Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))),
         "dag": DagModel(Digraph(4, ((1, 2), (2, 4), (3, 4)))),
         "ci-union": CiUnion()}


@functools.cache
def cone_case(name):
    """Random samples with their critical points, a model point Sigma
    (the first of them, or ``CI_CONE_SIGMA`` for the union), samples
    with their verdicts and residuals at Sigma (three drawn on its slice
    by the sampler at seed 2, two random, and one not PD), the slice
    directions at Sigma, and Sigma with its (1, m) entry moved off the
    model by 1e-3 of its largest diagonal entry.  All are computed at
    scale 1 on a new model object."""
    model = model_from_json(CONES[name].to_json())
    rng = np.random.default_rng(RNG_SEED)
    samples = [random_pd(model.dim, rng) for _ in range(3)]
    points = [[cp.sigma for cp in critical_points(model, S)]
              for S in samples]
    Sigma = CI_CONE_SIGMA if name == "ci-union" else points[0][0]
    queries = sample_spectrahedron(model, Sigma, 3, seed=2) \
        + samples[1:] + [-Sigma]
    verdicts = [cell_membership(model, Sigma, S).status for S in queries]
    residuals = [criticality_residual(model, Sigma, S) for S in queries]
    off = Sigma.copy()
    off[0, -1] = off[-1, 0] = Sigma[0, -1] + 1e-3 * Sigma.diagonal().max()
    return (samples, points, Sigma, queries, verdicts, residuals,
            lognormal_basis(model, Sigma).directions, off)


@pytest.mark.parametrize("name", sorted(CONES))
@settings(max_examples=40, deadline=None, database=None)
@given(k=st.integers(-1000, 1000))
@example(k=-1000)
@example(k=1000)
@example(k=-27)
@example(k=-40)
@example(k=300)
@example(k=48)
def test_critical_points_scale_by_powers_of_two(name, k):
    model = CONES[name]
    samples, points, Sigma, queries, verdicts, residuals, directions, off \
        = cone_case(name)
    for S, P in zip(samples, points):
        got = critical_points(model, np.ldexp(S, k))
        assert len(got) == len(P) == (1 if model.degree_one else 2)
        for cp, want in zip(got, P):
            np.testing.assert_array_equal(cp.sigma, np.ldexp(want, k))
    assert IN_CELL in verdicts \
        and len(set(verdicts)) == (3 if model.degree_one else 4)
    assert [cell_membership(model, np.ldexp(Sigma, k), np.ldexp(S, k)).status
            for S in queries] == verdicts
    assert [criticality_residual(model, np.ldexp(Sigma, k), np.ldexp(S, k))
            for S in queries] == [math.ldexp(r, -k) for r in residuals]
    got = lognormal_basis(model, np.ldexp(Sigma, k)).directions
    assert len(got) == len(directions)
    assert all(map(np.array_equal, got, directions))
    assert model_contains(model, np.ldexp(Sigma, k)) is True
    assert model_contains(model, np.ldexp(off, k)) is False
    drawn = sample_spectrahedron(model, np.ldexp(Sigma, k), 3, seed=2)
    assert len(drawn) == 3
    for got, S in zip(drawn, queries[:3]):
        np.testing.assert_array_equal(got, np.ldexp(S, k))
        assert in_spectrahedron(model, np.ldexp(Sigma, k), got)


@pytest.mark.parametrize(
    "name", sorted(name for name in CONES if CONES[name].degree_one))
def test_huge_samples_are_off_the_spectrahedron(name):
    """No diagonal entry of a slice point of a degree-one family exceeds
    m^2 times the largest of Sigma, so a slice sample or a random PD
    matrix times 2^64 or more is off the spectrahedron.  The residual
    alone says so, with no numpy warning, also where scaling the sample
    by Sigma's 2^-e overflows."""
    model = CONES[name]
    _, _, Sigma, queries, *_ = cone_case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for S, j in itertools.product(queries[:-1], (64, 200, 1020)):
            huge = np.ldexp(S, j)
            assert np.isfinite(huge).all()
            assert cell_membership(model, Sigma, huge).status \
                == NOT_IN_SPECTRAHEDRON
            assert not in_spectrahedron(model, Sigma, huge)


def test_dag_slice_has_dimension_three_at_every_scale():
    """The DAG 1 -> 2 -> 4 <- 3 at the MLE of a fixed sample.  Its slice
    rows mix tangent directions of degree 0 and 1 in Sigma; solved at
    Sigma itself, the SVD cutoff dropped rows from Sigma * 2^48 up."""
    model = DagModel(Digraph(4, ((1, 2), (2, 4), (3, 4))))
    A = np.random.default_rng(1).standard_normal((4, 7))
    Sigma = critical_points(model, A @ A.T / 7 + np.eye(4) / 2)[0].sigma
    for k in range(0, 500, 4):
        assert lognormal_basis(model, np.ldexp(Sigma, k)).dimension == 3, k
