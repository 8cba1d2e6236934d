"""Acceptance suite: one test per shipping criterion.

Each test pins its tolerances and asserts its own runtime budget with
a wall clock, so a plain ``pytest -v`` run shows one pass/fail line
per criterion.
"""

import csv
import itertools
import math
from time import perf_counter

import numpy as np
import pytest

from logvor import (
    IN_CELL,
    IN_SPECTRAHEDRON_NOT_CELL,
    BivariateCorrelation,
    CiUnion,
    DagModel,
    DagParams,
    Decomposition,
    Digraph,
    Equicorrelation,
    Graph,
    GraphModel,
    SolverOptions,
    UnrestrictedCorrelation,
    bivariate_cell,
    bivariate_discriminant,
    cell_membership,
    ci_union_cell,
    compose_cell,
    critical_points,
    cubic_roots_in_interval,
    equicorrelation_cubic,
    equicorrelation_matrix,
    find_reducible_decomposition,
    in_spectrahedron,
    induced_subgraph,
    is_positive_definite,
    log_likelihood,
    lognormal_basis,
    mle_concentration,
    mle_dag,
    mle_graph_decomposable,
    principal_submatrix,
    project_cell,
    sample_spectrahedron,
    score_matrix,
    sem_covariance,
    sem_fit,
    symmetrize,
    trek_covariance,
)
from logvor.cli import main

from conftest import random_pd

_MODULE_T0 = perf_counter()


def _triple(Sigma):
    """Off-diagonal coordinates (s12, s23, s13) of a 3 x 3 correlation."""
    return (Sigma[0, 1], Sigma[1, 2], Sigma[0, 2])


def test_elliptope_sample_has_three_critical_points_and_is_rejected(
        elliptope_sigma, elliptope_s1, elliptope_s2):
    """Three real PD critical points for the first sample, reference
    coordinates and log-likelihoods reproduced, membership rejected;
    the second sample has a unique critical point and is accepted."""
    t0 = perf_counter()
    model = UnrestrictedCorrelation(3)
    opts = SolverOptions(starts=512, seed=0)

    points = critical_points(model, elliptope_s1, opts)
    assert len(points) == 3
    assert all(is_positive_definite(cp.sigma) for cp in points)

    expected = [
        ((0.5, 1.0 / 3.0, 0.25), -1.53844955693696, 1e-8),
        ((-0.73841, 0.213623, -0.0580265), -1.24750351572487, 1e-6),
        ((0.182141, 0.316592, 0.190067), -1.55375020617405, 1e-6),
    ]
    matched = set()
    for coords, loglik, ll_tol in expected:
        dists = [max(abs(p - q) for p, q in zip(_triple(cp.sigma), coords))
                 for cp in points]
        k = int(np.argmin(dists))
        assert k not in matched
        matched.add(k)
        assert dists[k] < 1e-4
        assert abs(points[k].loglik - loglik) < ll_tol

    verdict = cell_membership(model, elliptope_sigma, elliptope_s1, opts)
    assert verdict.status == IN_SPECTRAHEDRON_NOT_CELL

    assert not is_positive_definite(2.0 * elliptope_s2 - elliptope_sigma)
    points2 = critical_points(model, elliptope_s2, opts)
    assert len(points2) == 1
    verdict2 = cell_membership(model, elliptope_sigma, elliptope_s2, opts)
    assert verdict2.status == IN_CELL

    assert perf_counter() - t0 < 10.0


def test_bivariate_sign_rule_matches_cubic_enumeration():
    """For six correlation values and 1000 on-slice samples each, the
    closed-form sign rule equals brute-force root enumeration plus
    log-likelihood comparison; the half-trace rule covers c = 0."""
    t0 = perf_counter()
    rng = np.random.default_rng(80)

    def oracle(c, S, a, b):
        roots = cubic_roots_in_interval(
            *equicorrelation_cubic(2, a, b), -1.0, 1.0)
        best = max(log_likelihood(np.array([[1.0, r], [r, 1.0]]), S)
                   for r in roots)
        return log_likelihood(np.array([[1.0, c], [c, 1.0]]), S) >= best - 1e-9

    for c in (0.9, -0.9, 0.5, -0.5, 0.1, -0.1):
        for _ in range(1000):
            while True:
                b = rng.uniform(-1.5, 1.5)
                a = (b * c * c - c ** 3 + b + c) / (2.0 * c)
                if a > abs(b):
                    break
            half = math.sqrt(a * a - b * b)
            k = a + rng.uniform(-0.999, 0.999) * half
            S = np.array([[k, b], [b, 2.0 * a - k]])
            assert bivariate_cell(c, S) == oracle(c, S, a, b)

    for _ in range(1000):
        a = rng.uniform(0.05, 1.2)
        k = a * (1.0 + rng.uniform(-0.999, 0.999))
        S = np.diag([k, 2.0 * a - k])
        assert bivariate_cell(0.0, S) == oracle(0.0, S, a, 0.0)

    assert perf_counter() - t0 < 5.0


def test_discriminant_sign_predicts_root_count_and_flags_variant():
    """The discriminant with the a^2 coefficient classifies the real
    root count on 1000 draws; the variant with a^4 in that coefficient
    fails the same suite (kept as a negative control)."""
    rng = np.random.default_rng(81)
    checked = 0
    variant_mismatches = 0
    while checked < 1000:
        a = rng.uniform(0.1, 2.5)
        b = rng.uniform(-1.0, 1.0) * (a - 1e-3)
        disc = bivariate_discriminant(a, b)
        if abs(disc) <= 1e-9:
            continue
        roots = np.roots([1.0, -b, 2.0 * a - 1.0, -b])
        n_real = int(np.sum(np.abs(roots.imag) < 1e-8 * (1.0 + np.abs(roots))))
        assert (disc > 0) == (n_real == 3), (a, b)
        assert (disc < 0) == (n_real == 1), (a, b)
        checked += 1
        variant = -4.0 * (b ** 4 - (a ** 4 + 8.0 * a - 11.0) * b * b
                          + (2.0 * a - 1.0) ** 3)
        if abs(variant) > 1e-9 and (variant > 0) != (n_real == 3):
            variant_mismatches += 1
    assert variant_mismatches > 0


def test_path_graph_cell_equals_spectrahedron_and_solvers_agree(
        path_graph, path_sigma):
    """200 spectrahedron samples of the path model are all cell members
    with MLE back at the model point; the Newton and clique-recursion
    solvers agree on 100 unconstrained samples."""
    t0 = perf_counter()
    model = GraphModel(path_graph)

    samples = sample_spectrahedron(model, path_sigma, 200, seed=5)
    for S in samples:
        assert cell_membership(model, path_sigma, S).status == IN_CELL
        cp = mle_concentration(model, S)
        np.testing.assert_allclose(cp.sigma, path_sigma,
                                   rtol=1e-8, atol=1e-8)

    rng = np.random.default_rng(82)
    for _ in range(100):
        S = random_pd(4, rng, scale=2.0)
        newton = mle_concentration(model, S)
        direct = mle_graph_decomposable(path_graph, S)
        np.testing.assert_allclose(newton.sigma, direct.sigma,
                                   rtol=1e-8, atol=1e-8)

    assert perf_counter() - t0 < 5.0


def test_reducible_decomposition_composes_and_round_trips(
        path_graph, path_sigma):
    """200 admissible (S1, S2, M) triples compose into cell members;
    200 cell samples split and reassemble to the original matrix."""
    t0 = perf_counter()
    model = GraphModel(path_graph)
    dec = find_reducible_decomposition(path_graph)
    assert dec.T == (2,)

    S1 = principal_submatrix(path_sigma, dec.U)
    side_w = GraphModel(induced_subgraph(path_graph, dec.W))
    Sigma_w = principal_submatrix(path_sigma, dec.W)
    s2_pool = sample_spectrahedron(side_w, Sigma_w, 200, seed=6)

    rng = np.random.default_rng(83)
    composed = 0
    while composed < 200:
        S2 = s2_pool[composed]
        M = np.zeros((4, 4))
        M[0, 2] = M[2, 0] = rng.uniform(-0.25, 0.25)
        M[0, 3] = M[3, 0] = rng.uniform(-0.25, 0.25)
        S = compose_cell(path_graph, path_sigma, S1, S2, M)
        assert cell_membership(model, path_sigma, S).status == IN_CELL
        composed += 1

    for S in sample_spectrahedron(model, path_sigma, 200, seed=7):
        p1, p2, M = project_cell(path_graph, path_sigma, S)
        back = compose_cell(path_graph, path_sigma, p1, p2, M)
        np.testing.assert_allclose(back, S, rtol=1e-10, atol=1e-10)

    assert perf_counter() - t0 < 5.0


def test_dag_mle_is_unique_and_slice_is_three_dimensional(
        collider_dag, collider_params, collider_sigma):
    """Trek-rule and structural-equation covariances agree to 1e-12;
    200 slice samples all map back to the model point; the log-normal
    slice at that point has dimension 3."""
    t0 = perf_counter()
    Sigma = trek_covariance(collider_dag, collider_params)
    sem = sem_covariance(collider_dag, sem_fit(collider_dag, Sigma))
    assert float(np.abs(Sigma - sem).max()) < 1e-12
    np.testing.assert_allclose(Sigma, collider_sigma, rtol=0, atol=1e-12)

    model = DagModel(collider_dag)
    for S in sample_spectrahedron(model, Sigma, 200, seed=8):
        _, cp = mle_dag(collider_dag, S)
        np.testing.assert_allclose(cp.sigma, Sigma, rtol=1e-8, atol=1e-8)

    assert lognormal_basis(model, Sigma).dimension == 3
    assert perf_counter() - t0 < 2.0


def test_ci_union_strip_matches_direct_comparison_and_figure_boundary(
        tmp_path):
    """The closed-form strip verdict equals a direct two-point
    log-likelihood comparison on 1000 slice samples; the figure grid
    keeps the cell inside the spectrahedron and crosses the strip
    boundary within one grid step of 1/sqrt(3)."""
    t1, t2, t3, t4 = 1.0, 2.0, 1.0, 3.0
    Sigma = np.array([[t1, 0.0, 0.0], [0.0, t2, t3], [0.0, t3, t4]])
    rng = np.random.default_rng(84)
    for _ in range(1000):
        while True:
            x1 = rng.uniform(-1.0, 1.0) * math.sqrt(t1 * t2)
            x2 = rng.uniform(-1.5, 1.5)
            S = np.array([[t1, x1, x2], [x1, t2, t3], [x2, t3, t4]])
            if is_positive_definite(S):
                break
        competitor = np.array([[t1, x1, 0.0], [x1, t2, 0.0],
                               [0.0, 0.0, t4]])
        direct = (log_likelihood(Sigma, S)
                  >= log_likelihood(competitor, S) - 1e-9)
        assert ci_union_cell(Sigma, S) == direct

    out = tmp_path / "ci-union-t.csv"
    assert main(["figure", "ci-union-t", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(float(x1), float(x2), spec == "1", cell == "1")
                for x1, x2, spec, cell in reader]
    assert len(rows) == 201 * 201
    assert all(spec for _, _, spec, cell in rows if cell)

    bound = 1.0 / math.sqrt(3.0)
    step = 3.0 / 200.0
    cell_x1 = [x1 for x1, _, _, cell in rows if cell]
    assert bound - step <= max(cell_x1) <= bound + step
    assert -bound - step <= min(cell_x1) <= -bound + step
    outside = [x1 for x1, _, spec, cell in rows if spec and not cell]
    assert any(bound < x1 <= bound + 2.0 * step for x1 in outside)
    assert any(-bound - 2.0 * step <= x1 < -bound for x1 in outside)


def test_figure_scenes_within_budget(tmp_path):
    """Every figure scene at the default grid of 201 points per axis is
    written within one budget that a Python loop over the grid points
    cannot meet."""
    t0 = perf_counter()
    for name in ("ci-union-t", "ci-union-s", "bivariate", "dag-slice",
                 "path-spectrahedron"):
        assert main(["figure", name, "--out", str(tmp_path / "f.csv"),
                     "--grid", "201", "--z", "0.25"]) == 0
    assert perf_counter() - t0 < 3.0


def test_graph_and_dag_fits_scale_polynomially():
    """Two 14-cliques sharing four vertices are split and fitted, the
    trek rule on the complete DAG with m = 14 matches the structural
    equations, and Newton fits the path with m = 60, all within one
    budget that clique, trek or double-loop enumeration cannot meet."""
    t0 = perf_counter()
    rng = np.random.default_rng(87)

    # two 14-cliques {1..14} and {11..24} meeting in {11, 12, 13, 14}
    edges = [(i, j) for block in (range(1, 15), range(11, 25))
             for i in block for j in block if i < j]
    G = Graph(24, frozenset(edges))
    assert find_reducible_decomposition(G) == Decomposition(
        U=tuple(range(1, 15)), T=(11, 12, 13, 14), W=tuple(range(11, 25)))
    S = random_pd(24, rng)
    Sigma = mle_graph_decomposable(G, S).sigma
    for block in (range(14), range(10, 24)):
        idx = np.ix_(block, block)
        np.testing.assert_allclose(Sigma[idx], S[idx], rtol=1e-10, atol=1e-12)
    K = np.linalg.inv(Sigma)
    assert float(np.abs(K[:10, 14:]).max()) < 1e-10 * float(np.abs(K).max())

    # trek rule on the complete DAG with m = 14
    m = 14
    dag = Digraph(m, frozenset((i, j) for i in range(1, m + 1)
                               for j in range(i + 1, m + 1)))
    params = DagParams(a=tuple(float(x) for x in rng.uniform(1.0, 2.0, m)),
                       lam={arc: float(rng.uniform(-0.3, 0.3))
                            for arc in dag.arcs})
    Sigma = trek_covariance(dag, params)
    assert is_positive_definite(Sigma)
    sem = sem_fit(dag, Sigma)
    for (i, j), w in params.lam.items():
        assert abs(sem.Lambda[i - 1, j - 1] - w) < 1e-10
    np.testing.assert_allclose(sem_covariance(dag, sem), Sigma,
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(np.diag(Sigma), params.a, rtol=1e-12)

    # Newton on the path with m = 60 against the closed form
    m = 60
    path = Graph(m, frozenset((i, i + 1) for i in range(1, m)))
    S = random_pd(m, rng)
    newton = mle_concentration(GraphModel(path), S)
    direct = mle_graph_decomposable(path, S)
    np.testing.assert_allclose(newton.sigma, direct.sigma,
                               rtol=1e-8, atol=1e-10)

    assert perf_counter() - t0 < 3.0


def test_property_suites_convexity_containment_gradient_symmetry(
        path_graph, path_sigma, collider_dag, collider_params,
        elliptope_sigma):
    """Cells are convex along 200 random segments per family and sit
    inside their spectrahedra; the dominated-sample condition never
    misclassifies; the score matches finite differences; symmetrize
    equals the full permutation average."""
    t0 = perf_counter()
    rng = np.random.default_rng(85)
    reduced = SolverOptions(starts=192, seed=0)

    c_biv, c_equi = 0.5, 0.4
    families = [
        (GraphModel(path_graph), path_sigma, None, 40),
        (DagModel(collider_dag),
         trek_covariance(collider_dag, collider_params), None, 40),
        (BivariateCorrelation(),
         np.array([[1.0, c_biv], [c_biv, 1.0]]), None, 60),
        (Equicorrelation(3), equicorrelation_matrix(3, c_equi), None, 60),
        (UnrestrictedCorrelation(3), elliptope_sigma, reduced, 48),
        (CiUnion(),
         np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]]),
         None, 60),
    ]

    dominated_pool = []
    for fam_seed, (model, Sigma, opts, pool) in enumerate(families):
        samples = sample_spectrahedron(model, Sigma, pool, seed=100 + fam_seed)
        verdicts = [cell_membership(model, Sigma, S, opts) for S in samples]
        members = [S for S, v in zip(samples, verdicts)
                   if v.status == IN_CELL]
        assert len(members) >= 2, type(model).__name__

        # containment: every cell member lies on the spectrahedron
        for S in members:
            assert in_spectrahedron(model, Sigma, S), type(model).__name__

        # convexity: midpoints of 200 random member pairs stay members
        pairs = rng.integers(0, len(members), size=(200, 2))
        for i, j in pairs:
            mid = (members[i] + members[j]) / 2.0
            v = cell_membership(model, Sigma, mid, opts)
            assert v.status == IN_CELL, type(model).__name__

        if isinstance(model, (BivariateCorrelation, Equicorrelation,
                              UnrestrictedCorrelation)):
            dominated_pool.append((model, Sigma, opts, samples, verdicts))

    # sufficient condition: a spectrahedron sample dominating the model
    # point (Sigma strictly below 2S) is always a cell member
    covered = 0
    for model, Sigma, opts, samples, verdicts in dominated_pool:
        for S, v in zip(samples, verdicts):
            if is_positive_definite(2.0 * S - Sigma):
                covered += 1
                assert v.status == IN_CELL, type(model).__name__
    assert covered >= 100

    # score matrix vs central finite differences of the log-likelihood
    h = 1e-6
    for _ in range(100):
        Sigma = random_pd(3, rng)
        S = random_pd(3, rng)
        D = rng.standard_normal((3, 3))
        D = (D + D.T) / 2.0
        D /= float(np.abs(D).max())
        fd = (log_likelihood(Sigma + h * D, S)
              - log_likelihood(Sigma - h * D, S)) / (2.0 * h)
        inner = float(np.sum(score_matrix(Sigma, S) * D))
        np.testing.assert_allclose(fd, inner, rtol=1e-6, atol=1e-6)

    # symmetrize equals the average over all simultaneous permutations
    for m in (1, 2, 3, 4):
        S = random_pd(m, rng)
        total = np.zeros((m, m))
        for perm in itertools.permutations(range(m)):
            P = np.eye(m)[list(perm)]
            total += P @ S @ P.T
        _, _, Sbar = symmetrize(S)
        np.testing.assert_allclose(Sbar, total / math.factorial(m),
                                   atol=1e-14)

    assert perf_counter() - t0 < 30.0
    assert perf_counter() - _MODULE_T0 < 55.0
