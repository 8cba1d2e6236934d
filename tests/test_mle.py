"""Estimators and critical-point enumeration for every model family."""

import dataclasses
import math

import networkx as nx
import numpy as np
import pytest

from logvor import (
    BivariateCorrelation,
    CiUnion,
    DagModel,
    DegenerateLeadingCoefficient,
    Equicorrelation,
    GraphModel,
    Graph,
    InvalidModel,
    LinearConcentration,
    NotChordal,
    NotPD,
    OutOfRange,
    SolverOptions,
    UnrestrictedCorrelation,
    bivariate_discriminant,
    critical_points,
    criticality_residual,
    cubic_roots_in_interval,
    equicorrelation_cubic,
    equicorrelation_matrix,
    is_chordal,
    log_likelihood,
    mle_concentration,
    mle_dag,
    mle_graph_decomposable,
    options_from_json,
    symmetrize,
)
from logvor.core import pd_mask
from logvor.mle import MULTISTART_MAX_ITER, MULTISTART_TOL, _CorrChart, \
    _corr_candidates, _corr_residuals, _correlation_multistart, \
    _line_search, _newton_directions, _onion_starts

from conftest import random_chordal_graph, random_correlation, random_pd

# the three real elliptope critical points, as (sigma_12, sigma_23, sigma_13)
ELLIPTOPE_TRIPLES = [
    (-0.73841, 0.213623, -0.0580265),
    (0.5, 1.0 / 3.0, 0.25),
    (0.182141, 0.316592, 0.190067),
]
ELLIPTOPE_LOGLIKS = [-1.24750351572487, -1.53844955693696, -1.55375020617405]


def triple(Sigma):
    return (Sigma[0, 1], Sigma[1, 2], Sigma[0, 2])


class TestCubicRoots:
    def test_three_roots(self):
        # x^3 - x/4 = x (x - 1/2) (x + 1/2)
        roots = cubic_roots_in_interval(1.0, 0.0, -0.25, 0.0, -1.0, 1.0)
        np.testing.assert_allclose(roots, [-0.5, 0.0, 0.5], atol=1e-12)

    def test_interval_is_open(self):
        # (x - 1)(x^2 + 1) has its only real root on the boundary
        assert cubic_roots_in_interval(1.0, -1.0, 1.0, -1.0, -1.0, 1.0) == []

    def test_complex_pair_is_filtered(self):
        roots = cubic_roots_in_interval(1.0, 0.0, 1.0, 0.0, -2.0, 2.0)
        np.testing.assert_allclose(roots, [0.0], atol=1e-12)

    def test_triple_root_is_deduplicated(self):
        roots = cubic_roots_in_interval(1.0, 0.0, 0.0, 0.0, -1.0, 1.0)
        assert len(roots) == 1
        np.testing.assert_allclose(roots, [0.0], atol=1e-7)

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            cubic_roots_in_interval(0.0, 1.0, 0.0, -1.0, -2.0, 2.0)

    def test_matches_polished_evaluation(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            c = rng.uniform(-2.0, 2.0, size=4)
            if abs(c[0]) < 1e-3:
                continue
            for r in cubic_roots_in_interval(*c, -5.0, 5.0):
                val = ((c[0] * r + c[1]) * r + c[2]) * r + c[3]
                assert abs(val) < 1e-7 * (1.0 + np.abs(c).max())


class TestBivariateCubic:
    def test_stats(self):
        a, b, _ = symmetrize(np.array([[3.0, 0.5], [0.5, 1.0]]))
        assert a == 2.0 and b == 0.5

    def test_cubic_for_m_two(self):
        # x^3 - b x^2 - (1 - 2a) x - b at a = 3/8, b = 0  ->  x^3 - x/4
        assert equicorrelation_cubic(2, 0.375, 0.0) == (1.0, 0.0, -0.25, 0.0)

    def test_discriminant_values(self):
        assert bivariate_discriminant(0.375, 0.0) == 0.0625
        assert bivariate_discriminant(0.5, 0.0) == 0.0

    def test_discriminant_sign_matches_root_count(self):
        """Positive discriminant iff the critical cubic has three distinct
        real roots (interval-free statement, so roots are counted on R)."""
        rng = np.random.default_rng(42)
        for _ in range(400):
            b = rng.uniform(-2.0, 2.0)
            a = abs(b) + rng.uniform(0.01, 2.0)
            disc = bivariate_discriminant(a, b)
            if abs(disc) < 1e-9:
                continue
            roots = np.roots([1.0, -b, 2.0 * a - 1.0, -b])
            n_real = int(np.sum(np.abs(roots.imag) < 1e-9))
            assert (disc > 0) == (n_real == 3), (a, b)

    def test_closed_form_roots_on_slice(self):
        """With the slice relation tying a to (b, c), the two companion
        roots have explicit square-root expressions."""
        rng = np.random.default_rng(43)
        for _ in range(300):
            c = rng.uniform(-0.95, 0.95)
            if abs(c) < 1e-3:
                continue
            b = rng.uniform(-1.5, 1.5)
            a = (b * c * c - c ** 3 + b + c) / (2.0 * c)
            roots = cubic_roots_in_interval(
                *equicorrelation_cubic(2, a, b), -1.0, 1.0)
            assert any(abs(r - c) < 1e-8 for r in roots)
            disc = b * b * c * c - 2.0 * b * c ** 3 + c ** 4 - 4.0 * b * c
            if disc < 0:
                continue
            for sign in (-1.0, 1.0):
                r = (b * c - c * c + sign * np.sqrt(disc)) / (2.0 * c)
                if -1.0 < r < 1.0:
                    assert min(abs(r - q) for q in roots) < 1e-8

    def test_on_slice_discriminant_factorisation(self):
        """On the slice the discriminant factors through the same radicand
        as the closed-form roots."""
        rng = np.random.default_rng(44)
        for _ in range(200):
            c = rng.uniform(-0.9, 0.9)
            if abs(c) < 0.05:
                continue
            b = rng.uniform(-1.0, 1.0)
            a = (b * c * c - c ** 3 + b + c) / (2.0 * c)
            lhs = bivariate_discriminant(a, b)
            rhs = ((b * b * c - 2.0 * b * c * c - 4.0 * b + c ** 3)
                   * (b * c * c - 2.0 * c ** 3 - b) ** 2 / c ** 3)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


class TestConcentrationNewton:
    def test_saturated_model_returns_sample(self):
        rng = np.random.default_rng(45)
        m = 3
        basis = []
        for i in range(m):
            E = np.zeros((m, m))
            E[i, i] = 1.0
            basis.append(E)
        for i in range(m):
            for j in range(i + 1, m):
                E = np.zeros((m, m))
                E[i, j] = E[j, i] = 1.0
                basis.append(E)
        model = LinearConcentration(tuple(basis))
        S = random_pd(m, rng)
        cp = mle_concentration(model, S)
        np.testing.assert_allclose(cp.sigma, S, rtol=1e-9, atol=1e-11)
        assert cp.source == "unique"

    def test_scalar_span(self):
        """For K restricted to multiples of the identity the optimum is
        (tr S / m) I."""
        rng = np.random.default_rng(46)
        S = random_pd(4, rng)
        model = LinearConcentration((np.eye(4),))
        cp = mle_concentration(model, S)
        np.testing.assert_allclose(cp.sigma,
                                   np.trace(S) / 4.0 * np.eye(4), rtol=1e-10)

    def test_agrees_with_decomposable_recursion(self, path_graph):
        rng = np.random.default_rng(47)
        for _ in range(30):
            S = random_pd(4, rng)
            newton = mle_concentration(GraphModel(path_graph), S)
            direct = mle_graph_decomposable(path_graph, S)
            np.testing.assert_allclose(newton.sigma, direct.sigma,
                                       rtol=1e-8, atol=1e-10)
            assert criticality_residual(GraphModel(path_graph),
                                        newton.sigma, S) < 1e-9

    def test_rejects_non_pd_sample(self, path_graph):
        with pytest.raises(NotPD):
            mle_concentration(GraphModel(path_graph), -np.eye(4))

    def test_rejects_other_families(self, collider_dag, collider_sigma):
        with pytest.raises(InvalidModel, match="concentration model"):
            mle_concentration(DagModel(collider_dag), collider_sigma)


def ips_fit(G, S, sweeps=20000):
    """Iterative proportional scaling (Speed and Kiiveri, 1986), the
    reference fit of a graph model: over each maximal clique C, from
    networkx, set the fitted block to S_CC by adding
    inv(S_CC) - inv(Sigma_CC) to K, until a sweep changes K by less
    than 1e-14 relative to its size."""
    g = nx.Graph(G.edges)
    g.add_nodes_from(G.vertices)
    cliques = [np.ix_(c, c) for c in
               (sorted(v - 1 for v in q) for q in nx.find_cliques(g))]
    K = np.diag(1.0 / np.diag(S))
    for _ in range(sweeps):
        before = K.copy()
        for idx in cliques:
            Sigma = np.linalg.inv(K)
            K[idx] += np.linalg.inv(S[idx]) - np.linalg.inv(Sigma[idx])
        if np.abs(K - before).max() < 1e-14 * np.abs(K).max():
            return np.linalg.inv(K)
    raise AssertionError("IPS did not converge")


class TestNonChordalNewton:
    """Newton's fit of a graph model that is not chordal against IPS."""

    @staticmethod
    def assert_matches_ips(G, S):
        points = critical_points(GraphModel(G), S)
        assert len(points) == 1
        np.testing.assert_allclose(points[0].sigma, ips_fit(G, S),
                                   rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("edges", [
        [(1, 2), (2, 3), (3, 4), (1, 4)],
        [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
        [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
         (1, 4), (4, 7), (2, 5), (5, 8), (3, 6), (6, 9)],
    ], ids=["4-cycle", "5-cycle", "3x3-grid"])
    def test_named_graphs(self, edges):
        G = Graph(max(map(max, edges)), frozenset(edges))
        assert not is_chordal(G)[0]
        rng = np.random.default_rng(54)
        for _ in range(3):
            self.assert_matches_ips(G, random_pd(G.m, rng))

    def test_random_graphs(self):
        rng = np.random.default_rng(55)
        fitted = 0
        while fitted < 30:
            m = int(rng.integers(4, 9))
            G = Graph(m, frozenset(
                (i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                if rng.uniform() < 0.5))
            if is_chordal(G)[0]:
                continue
            self.assert_matches_ips(G, random_pd(m, rng))
            fitted += 1


class TestDecomposableRecursion:
    def test_reproduces_pattern_equations(self, path_graph):
        """The estimate matches the sample on edges and the diagonal and
        has zero concentration off the pattern."""
        rng = np.random.default_rng(48)
        S = random_pd(4, rng)
        cp = mle_graph_decomposable(path_graph, S)
        for i, j in ((1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 3), (3, 4)):
            np.testing.assert_allclose(cp.sigma[i - 1, j - 1], S[i - 1, j - 1],
                                       rtol=1e-12, atol=1e-12)
        K = np.linalg.inv(cp.sigma)
        for i, j in ((1, 3), (1, 4), (2, 4)):
            assert abs(K[i - 1, j - 1]) < 1e-10

    def test_complete_graph_returns_sample(self):
        K3 = Graph(3, ((1, 2), (1, 3), (2, 3)))
        S = random_pd(3, np.random.default_rng(49))
        np.testing.assert_allclose(mle_graph_decomposable(K3, S).sigma, S)

    def test_non_chordal_is_rejected(self):
        four_cycle = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        with pytest.raises(NotChordal):
            mle_graph_decomposable(four_cycle, np.eye(4))

    def test_fixed_point_at_model_matrix(self, path_graph, path_sigma):
        cp = mle_graph_decomposable(path_graph, path_sigma)
        np.testing.assert_allclose(cp.sigma, path_sigma, rtol=1e-12, atol=1e-14)

    @staticmethod
    def assert_agrees_with_newton(G, S):
        direct = mle_graph_decomposable(G, S)
        newton = mle_concentration(GraphModel(G), S)
        np.testing.assert_allclose(direct.sigma, newton.sigma,
                                   rtol=1e-8, atol=1e-10)
        assert direct.loglik == pytest.approx(newton.loglik, rel=1e-10)

    def test_agrees_with_newton_on_random_chordal_graphs(self):
        rng = np.random.default_rng(51)
        sizes = set()
        for _ in range(60):
            m = int(rng.integers(2, 13))
            G = random_chordal_graph(m, rng)
            assert is_chordal(G)[0]
            self.assert_agrees_with_newton(G, random_pd(m, rng))
            sizes.add(m)
        assert 12 in sizes

    def test_agrees_with_newton_on_overlapping_cliques(self):
        # cliques {1..6} and {4..9} meet in the separator {4, 5, 6}
        edges = [(i, j) for block in (range(1, 7), range(4, 10))
                 for i in block for j in block if i < j]
        G = Graph(9, frozenset(edges))
        rng = np.random.default_rng(52)
        for _ in range(5):
            self.assert_agrees_with_newton(G, random_pd(9, rng))

    def test_agrees_with_newton_on_disconnected_graph(self):
        # a triangle, a single edge and an isolated vertex
        G = Graph(6, ((1, 2), (2, 3), (1, 3), (4, 5)))
        rng = np.random.default_rng(53)
        for _ in range(5):
            S = random_pd(6, rng)
            self.assert_agrees_with_newton(G, S)
            K = np.linalg.inv(mle_graph_decomposable(G, S).sigma)
            assert float(np.abs(K[:3, 3:]).max()) < 1e-12


class TestDagMle:
    def test_model_point_is_fixed(self, collider_dag, collider_sigma):
        params, cp = mle_dag(collider_dag, collider_sigma)
        np.testing.assert_allclose(cp.sigma, collider_sigma,
                                   rtol=1e-12, atol=1e-14)

    def test_estimate_is_critical(self, collider_dag):
        rng = np.random.default_rng(50)
        model = DagModel(collider_dag)
        for _ in range(30):
            S = random_pd(4, rng)
            _, cp = mle_dag(collider_dag, S)
            assert criticality_residual(model, cp.sigma, S) < 1e-9

    def test_likelihood_dominates_other_model_points(self, collider_dag):
        from logvor import log_likelihood, sem_covariance, sem_fit

        rng = np.random.default_rng(51)
        S = random_pd(4, rng)
        _, cp = mle_dag(collider_dag, S)
        for _ in range(20):
            other = sem_covariance(collider_dag,
                                   sem_fit(collider_dag, random_pd(4, rng)))
            assert log_likelihood(other, S) <= cp.loglik + 1e-10


class TestCriticalPoints:
    def test_bivariate_enumeration(self):
        # a = 3/8, b = 0 gives correlations -1/2, 0, 1/2
        S = np.diag([0.375, 0.375])
        pts = critical_points(BivariateCorrelation(), S)
        assert len(pts) == 3
        got = sorted(cp.sigma[0, 1] for cp in pts)
        np.testing.assert_allclose(got, [-0.5, 0.0, 0.5], atol=1e-10)
        assert all(cp.source == "cubic-root" for cp in pts)
        lls = [cp.loglik for cp in pts]
        assert lls == sorted(lls, reverse=True)

    def test_equicorrelation_identity_point(self):
        # symmetrised stats a = 1, b = 0 leave the single root 0
        S = np.diag([0.5, 1.0, 1.5])
        pts = critical_points(Equicorrelation(3), S)
        assert len(pts) == 1
        np.testing.assert_allclose(pts[0].sigma, np.eye(3), atol=1e-12)

    def test_equicorrelation_points_are_critical(self):
        rng = np.random.default_rng(52)
        model = Equicorrelation(4)
        for _ in range(20):
            S = random_pd(4, rng)
            for cp in critical_points(model, S):
                assert criticality_residual(model, cp.sigma, S) < 1e-8

    def test_ci_union_closed_form(self):
        S = np.array([[1.0, 0.3, 0.2], [0.3, 2.0, 1.0], [0.2, 1.0, 3.0]])
        pts = critical_points(CiUnion(), S)
        assert len(pts) == 2
        assert all(cp.source == "closed-form" for cp in pts)
        for cp in pts:
            assert cp.sigma[0, 2] == 0.0
            assert cp.sigma[0, 1] == 0.0 or cp.sigma[1, 2] == 0.0

    def test_ci_union_coincident_points_are_merged(self):
        # with both off-diagonal couplings zero the two projections agree
        S = np.diag([1.0, 2.0, 3.0])
        pts = critical_points(CiUnion(), S)
        assert len(pts) == 1

    def test_degree_one_families_give_single_point(self, path_graph,
                                                   collider_dag):
        rng = np.random.default_rng(53)
        S = random_pd(4, rng)
        assert len(critical_points(GraphModel(path_graph), S)) == 1
        assert len(critical_points(DagModel(collider_dag), S)) == 1

    def test_rejects_non_pd(self):
        with pytest.raises(NotPD):
            critical_points(BivariateCorrelation(), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("scale", [2.0 ** -30, 1e-200, 1e-310,
                                       1e160, 1e300])
    @pytest.mark.parametrize("family", ["four-cycle", "path", "dag",
                                        "concentration"])
    def test_degree_one_fits_are_scale_equivariant(self, family, scale,
                                                    path_graph,
                                                    collider_dag):
        """The MLE of t S is t times that of S, with log-likelihood
        shifted by -m log t, from subnormal t S up to t S near 1e300;
        numpy warns of nothing on the way."""
        model = {"four-cycle": GraphModel(Graph(4, ((1, 2), (2, 3), (3, 4),
                                                    (1, 4)))),
                 "path": GraphModel(path_graph),
                 "dag": DagModel(collider_dag),
                 "concentration": LinearConcentration(
                     (np.eye(4), np.ones((4, 4)) - np.eye(4)))}[family]
        S = random_pd(4, np.random.default_rng(54))
        ref = critical_points(model, S)[0]
        got = critical_points(model, scale * S)[0]
        # Newton stops at 1e-10 relative; subnormal entries lose bits
        np.testing.assert_allclose(got.sigma / scale, ref.sigma, rtol=1e-8,
                                   atol=1e-8 * np.abs(ref.sigma).max())
        assert got.loglik == pytest.approx(ref.loglik - 4 * math.log(scale),
                                           rel=1e-12)


class TestElliptopeMultistart:
    def test_reference_points(self, elliptope_s1):
        pts = critical_points(UnrestrictedCorrelation(3), elliptope_s1)
        assert len(pts) == 3
        assert all(cp.source == "multistart" for cp in pts)
        for expect_t, expect_ll in zip(ELLIPTOPE_TRIPLES, ELLIPTOPE_LOGLIKS):
            best = min(pts, key=lambda cp: max(
                abs(g - e) for g, e in zip(triple(cp.sigma), expect_t)))
            np.testing.assert_allclose(triple(best.sigma), expect_t, atol=1e-4)
            np.testing.assert_allclose(best.loglik, expect_ll, atol=1e-6)

    def test_unique_point(self, elliptope_s2, elliptope_sigma):
        pts = critical_points(UnrestrictedCorrelation(3), elliptope_s2)
        assert len(pts) == 1
        np.testing.assert_allclose(pts[0].sigma, elliptope_sigma, atol=1e-8)

    def test_deterministic_per_seed(self, elliptope_s1):
        model = UnrestrictedCorrelation(3)
        a = critical_points(model, elliptope_s1, SolverOptions(seed=7))
        b = critical_points(model, elliptope_s1, SolverOptions(seed=7))
        assert len(a) == len(b)
        for p, q in zip(a, b):
            np.testing.assert_allclose(p.sigma, q.sigma, rtol=0, atol=0)

    def test_point_set_stable_under_more_starts(self):
        """Default 512 starts find the same point set as 4x as many."""
        rng = np.random.default_rng(54)
        model = UnrestrictedCorrelation(3)
        for _ in range(12):
            S = random_correlation(3, rng) + np.diag(rng.uniform(0, 1, 3))
            small = critical_points(model, S, SolverOptions(starts=512))
            large = critical_points(model, S, SolverOptions(starts=2048,
                                                            seed=1))
            assert len(small) == len(large)
            for p, q in zip(small, large):
                np.testing.assert_allclose(p.sigma, q.sigma, atol=1e-5)

    def test_all_points_are_critical(self, elliptope_s1):
        model = UnrestrictedCorrelation(3)
        for cp in critical_points(model, elliptope_s1):
            assert criticality_residual(model, cp.sigma, elliptope_s1) < 1e-8


# The correlation multistart as it was before the batched kernel, kept
# as the oracle of the rebuilt one: starts drawn from the box (-1, 1)^p
# with rejection on the smallest eigenvalue, a Jacobian built column by
# column, and a line search that halves each row's step one at a time.

def _box_corr(X, m):
    iu = np.triu_indices(m, 1)
    Sig = np.zeros((X.shape[0], m, m))
    Sig[:, iu[0], iu[1]] = X
    Sig = Sig + np.transpose(Sig, (0, 2, 1))
    Sig[:, np.arange(m), np.arange(m)] = 1.0
    return Sig


def _sequential_line_search(x, delta, rnorm, residual_norm, halvings=30):
    t = np.ones(len(x))
    xa = x.copy()
    accepted = np.zeros(len(x), dtype=bool)
    for _ in range(halvings):
        rem = np.where(~accepted)[0]
        if rem.size == 0:
            break
        cand = xa[rem] + t[rem, None] * delta[rem]
        good = residual_norm(cand) <= (1.0 - 1e-4 * t[rem]) * rnorm[rem]
        xa[rem[good]] = cand[good]
        accepted[rem[good]] = True
        t[rem[~good]] *= 0.5
    return np.where(accepted, t, 0.0), xa


def _column_jacobian(K, W, m):
    """Jacobian of upper(K - K S K), column l the derivative along D_l."""
    p = m * (m - 1) // 2
    iu = np.triu_indices(m, 1)
    D = np.zeros((p, m, m))
    D[np.arange(p), iu[0], iu[1]] = 1.0
    D[np.arange(p), iu[1], iu[0]] = 1.0
    J = np.empty((len(K), p, p))
    for l in range(p):
        KD = K @ D[l]
        J[:, :, l] = (-KD @ K + KD @ W + W @ D[l] @ K)[:, iu[0], iu[1]]
    return J


def _box_multistart(m, S, opts):
    """Deduplicated converged parameter rows of the old solver."""
    p = m * (m - 1) // 2
    iu = np.triu_indices(m, 1)
    rng = np.random.default_rng(opts.seed)
    chunks, have = [], 0
    while have < opts.starts:
        n = max(2 * (opts.starts - have), 64)
        draw = rng.uniform(-1.0, 1.0, size=(n, p))
        ok = np.linalg.eigvalsh(_box_corr(draw, m))[:, 0] > 1e-10
        chunks.append(draw[ok])
        have += int(ok.sum())
    x = np.concatenate(chunks)[:opts.starts]

    def residuals(xa):
        K = np.linalg.inv(_box_corr(xa, m))
        W = K @ S @ K
        return K, W, (K - W)[:, iu[0], iu[1]]

    def residual_norm(cand):
        rc = np.full(len(cand), np.inf)
        ok = np.linalg.eigvalsh(_box_corr(cand, m))[:, 0] > 1e-12
        if ok.any():
            rc[ok] = np.abs(residuals(cand[ok])[2]).max(axis=1)
        return rc

    active = np.ones(len(x), dtype=bool)
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(MULTISTART_MAX_ITER):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        K, W, F = residuals(x[idx])
        rnorm = np.abs(F).max(axis=1)
        done = rnorm < MULTISTART_TOL
        converged[idx[done]] = True
        active[idx[done]] = False
        idx, K, W, F, rnorm = (a[~done] for a in (idx, K, W, F, rnorm))
        if idx.size == 0:
            break
        J = _column_jacobian(K, W, m)
        try:
            delta = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            delta = np.stack([np.linalg.lstsq(Jr, -Fr, rcond=None)[0]
                              for Jr, Fr in zip(J, F)])
        t, x[idx] = _sequential_line_search(x[idx], delta, rnorm,
                                            residual_norm)
        active[idx[t == 0.0]] = False
    kept = []
    sols = x[converged]
    for row in sols[np.lexsort(np.round(sols, 8).T[::-1])]:
        if all(float(np.abs(row - q).max()) > 1e-6 for q in kept):
            kept.append(row)
    return kept


def _twice_evaluated_multistart(m, S, opts):
    """Deduplicated converged parameter rows of the multistart loop that
    evaluated each accepted iterate twice: once in the line search, and
    again at the top of the next Newton step.  It converges at the
    absolute ``MULTISTART_TOL``, and its line search is the sequential
    one cut at 2^-14."""
    chart = _CorrChart(m)
    x = _onion_starts(chart, opts.starts, np.random.default_rng(opts.seed))

    def residual_norm(X):
        rc = np.full(len(X), np.inf)
        Sig = _box_corr(X, m)
        ok = pd_mask(Sig)
        if ok.any():
            rc[ok] = np.abs(_corr_residuals(chart, S, Sig[ok])[2]).max(axis=1)
        return rc

    active = np.ones(len(x), dtype=bool)
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(MULTISTART_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        K, W, F = _corr_residuals(chart, S, _box_corr(x[idx], m))
        rnorm = np.abs(F).max(axis=1)
        done = rnorm < MULTISTART_TOL
        converged[idx[done]] = True
        active[idx[done]] = False
        idx, K, W, F, rnorm = (a[~done] for a in (idx, K, W, F, rnorm))
        if idx.size == 0:
            break
        delta = _newton_directions(chart, K, W, F)
        t, x[idx] = _sequential_line_search(x[idx], delta, rnorm,
                                            residual_norm, halvings=15)
        active[idx[t == 0.0]] = False
    kept = []
    sols = x[converged]
    for row in sols[np.lexsort(np.round(sols, 8).T[::-1])]:
        if all(float(np.abs(row - q).max()) > 1e-6 for q in kept):
            kept.append(row)
    return kept


class TestBatchedMultistart:
    def test_onion_starts_have_the_uniform_elliptope_marginal(self):
        """Each coordinate is 2 Beta(m/2, m/2) - 1: mean 0, variance
        1/(m+1), and the Beta(2, 2) distribution function at m = 4."""
        m = 4
        X = _onion_starts(_CorrChart(m), 20000, np.random.default_rng(8))
        assert X.shape == (20000, 6)
        assert pd_mask(_box_corr(X, m)).all()
        np.testing.assert_allclose(X.mean(axis=0), 0.0, atol=0.015)
        np.testing.assert_allclose(X.var(axis=0), 1.0 / (m + 1), atol=0.01)
        for r in (-0.6, -0.2, 0.3, 0.7):
            u = (r + 1.0) / 2.0
            np.testing.assert_allclose((X <= r).mean(axis=0),
                                       3 * u ** 2 - 2 * u ** 3, atol=0.015)

    @pytest.mark.parametrize("m", [6, 7])
    def test_enumerates_beyond_five(self, m):
        rng = np.random.default_rng(60 + m)
        S = random_correlation(m, rng) + np.diag(rng.uniform(0.0, 1.0, m))
        model = UnrestrictedCorrelation(m)
        pts = critical_points(model, S)
        assert any(criticality_residual(model, cp.sigma, S) < 1e-8
                   for cp in pts)

    @pytest.mark.parametrize("m, count", [(3, 40), (4, 10)])
    def test_same_points_as_the_old_solver(self, m, count):
        rng = np.random.default_rng(70 + m)
        model = UnrestrictedCorrelation(m)
        opts = SolverOptions()
        iu = np.triu_indices(m, 1)
        for _ in range(count):
            S = random_correlation(m, rng) + np.diag(rng.uniform(0.0, 1.0, m))
            old = _box_multistart(m, S, opts)
            new = critical_points(model, S, opts)
            assert len(new) == len(old)
            for row in old:
                assert min(np.abs(cp.sigma[iu] - row).max()
                           for cp in new) < 1e-6
            best_old = max(log_likelihood(P, S)
                           for P in _box_corr(np.array(old), m))
            assert abs(new[0].loglik - best_old) <= 1e-10

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_newton_directions_solve_the_column_jacobian(self, m):
        rng = np.random.default_rng(80 + m)
        chart = _CorrChart(m)
        S = random_correlation(m, rng) + np.diag(rng.uniform(0.0, 1.0, m))
        K, W, F = _corr_residuals(chart, S, chart.matrices(
            _onion_starts(chart, 300, rng)))
        delta = _newton_directions(chart, K, W, F)
        J = _column_jacobian(K, W, m)
        np.testing.assert_allclose(np.einsum("nij,nj->ni", J, delta), -F,
                                   rtol=0, atol=1e-9 * np.abs(F).max())

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_blocked_line_search_takes_the_sequential_step(self, m):
        """Newton directions from random starts, and random directions
        scaled over six decades so that every block and outright failure
        occur; each row's last step is drawn from all fifteen, so that
        rows flagged deep (last step at most 2^-7) pass at t = 1, pass
        deep and stall, and some rows start from an infinite residual.
        The steps are those of the sequential search whatever the last
        steps, and the flagged rows test all their steps in the first
        call."""
        rng = np.random.default_rng(90 + m)
        chart = _CorrChart(m)
        S = random_correlation(m, rng) + np.diag(rng.uniform(0.0, 1.0, m))

        def residual_norm(X):
            rc = np.full(len(X), np.inf)
            Sig = chart.matrices(X)
            ok = pd_mask(Sig)
            rc[ok] = np.abs(_corr_residuals(chart, S, Sig[ok])[2]).max(axis=1)
            return rc

        x = _onion_starts(chart, 600, rng)
        K, W, F = _corr_residuals(chart, S, chart.matrices(x))
        rnorm = np.abs(F).max(axis=1)
        rnorm[rng.uniform(size=len(x)) < 0.05] = np.inf
        newton = _newton_directions(chart, K, W, F)
        scaled = rng.standard_normal(x.shape) \
            * 10.0 ** rng.uniform(-3.0, 3.0, size=(len(x), 1))
        delta = np.where(rng.uniform(size=(len(x), 1)) < 0.5, newton, scaled)
        t_seq, x_seq = _sequential_line_search(x, delta, rnorm, residual_norm,
                                               halvings=15)
        last = np.ldexp(1.0, -rng.integers(0, 15, size=len(x)))
        deep = last <= 2.0 ** -7
        assert (deep & (t_seq == 1.0)).any() and (deep & (t_seq == 0.0)).any()
        assert (deep & (t_seq > 0.0) & (t_seq < 1.0)).any()
        calls = []

        def evaluate(X):
            calls.append(len(X))
            return _corr_candidates(chart, S, X)

        for lasts in (np.ones(len(x)), last):
            calls.clear()
            t_blk, x_blk, (K, W, F) = _line_search(x, delta, rnorm, lasts,
                                                   evaluate)
            np.testing.assert_array_equal(t_blk, t_seq)
            np.testing.assert_array_equal(x_blk, x_seq)
            # the carried arrays are those of the new rows, bit for bit;
            # from an infinite residual the full step is taken also to a
            # matrix that is not positive definite, which carries NaN
            live = (t_blk > 0) & pd_mask(chart.matrices(x_blk))
            np.testing.assert_array_equal(
                (t_blk > 0) & ~live, (t_blk == 1.0) & (rnorm == np.inf)
                & ~pd_mask(chart.matrices(x + delta)))
            for got, want in zip((K, W, F), _corr_residuals(
                    chart, S, chart.matrices(x_blk[live]))):
                np.testing.assert_array_equal(got[live], want)
                assert np.isnan(got[~live]).all()
            assert len(calls) == 4
        k = np.full(len(x), 15)             # 15: no step passed
        k[t_seq > 0] = -np.log2(t_seq[t_seq > 0]).astype(int)
        assert set(np.digitize(k[~deep], [1, 3, 7, 15])) == {0, 1, 2, 3, 4}
        # a flagged row tests all fifteen steps in the first call
        assert calls[0] == 15 * deep.sum() + (~deep).sum()

    def test_crawling_row_costs_one_evaluation(self):
        """A row whose last step was 2^-10 tests all fifteen steps in
        one call, whether it passes at the first step, the last or none;
        a row whose last step was 2^-6 searches block by block."""
        chart = _CorrChart(3)
        S = random_correlation(3, np.random.default_rng(96))
        x, delta = np.zeros((1, 3)), np.ones((1, 3))
        for floor, want in ((1.0, 1.0), (2.0 ** -14, 2.0 ** -14),
                            (2.0 ** -15, 0.0)):
            calls = []

            def evaluate(X):
                calls.append(len(X))
                _, *carry = _corr_candidates(chart, S, X)
                return (np.where(X[:, 0] <= floor, 0.0, np.inf), *carry)

            steps, _, _ = _line_search(x, delta, np.ones(1),
                                       np.array([2.0 ** -10]), evaluate)
            np.testing.assert_array_equal(steps, [want])
            assert calls == [15]
            calls.clear()
            steps, _, _ = _line_search(x, delta, np.ones(1),
                                       np.array([2.0 ** -6]), evaluate)
            np.testing.assert_array_equal(steps, [want])
            assert calls == [1] if want == 1.0 else calls == [1, 2, 4, 8]

    def test_line_search_stops_at_two_to_the_minus_fourteen(self):
        """Row 0 passes only at t <= 2^-15 and takes no step; row 1
        passes first at t = 2^-14 and takes it, and carries the K, W
        and F of its new row."""
        x = np.zeros((2, 3))
        delta = np.array([[1.0] * 3, [0.5] * 3])
        chart = _CorrChart(3)
        S = random_correlation(3, np.random.default_rng(95))

        def evaluate(X):
            _, *carry = _corr_candidates(chart, S, X)
            return (np.where(X[:, 0] <= 2.0 ** -15, 0.0, np.inf), *carry)

        steps, x_new, carry = _line_search(x, delta, np.ones(2),
                                           np.ones(2), evaluate)
        np.testing.assert_array_equal(steps, [0.0, 2.0 ** -14])
        np.testing.assert_array_equal(x_new, [[0.0] * 3, [2.0 ** -15] * 3])
        for got, want in zip(carry, _corr_residuals(
                chart, S, chart.matrices(x_new[1:]))):
            assert np.isnan(got[0]).all()
            np.testing.assert_array_equal(got[1:], want)

    def test_non_finite_residual_never_converges(self):
        """With an infinite residual the full step passes even to a
        matrix that is not positive definite (inf <= inf).  The row
        carries a NaN residual, which is not below the tolerance, and
        no step passes from it: the row is dropped, never converged."""
        chart = _CorrChart(3)

        def evaluate(X):
            return _corr_candidates(chart, np.eye(3), X)

        x = np.zeros((1, 3))
        delta = np.full((1, 3), 2.0)        # off-diagonal 2: not PD
        assert not pd_mask(chart.matrices(x + delta))[0]
        steps, x_new, (K, W, F) = _line_search(x, delta, np.array([np.inf]),
                                               np.ones(1), evaluate)
        np.testing.assert_array_equal(steps, [1.0])
        np.testing.assert_array_equal(x_new, x + delta)
        assert np.isnan(K).all() and np.isnan(W).all() and np.isnan(F).all()
        rnorm = np.abs(F).max(axis=1)
        assert not (rnorm < MULTISTART_TOL).any()
        steps, x_next, _ = _line_search(x_new, -delta / 2.0, rnorm,
                                        np.ones(1), evaluate)
        np.testing.assert_array_equal(steps, [0.0])
        np.testing.assert_array_equal(x_next, x_new)

    def test_same_points_as_the_loop_that_evaluated_twice(self, elliptope_s1,
                                                          elliptope_s2):
        """Carrying K, W and F out of the line search changes no bit of
        any point: on S1, S2 scaled to largest entry 1, and slice
        samples Sigma + Sigma D Sigma with D in (-1, 0) at m = 3 to 6.
        No entry exceeds 1 in absolute value, so both loops converge at
        the same threshold."""
        opts = SolverOptions(starts=256)
        rng = np.random.default_rng(140)
        problems = [(3, elliptope_s1),
                    (3, elliptope_s2 / np.abs(elliptope_s2).max())]
        for m in (3, 4, 5, 6) * 4:
            sigma = random_correlation(m, rng)
            S = sigma + sigma @ np.diag(rng.uniform(-1.0, 0.0, m)) @ sigma
            while not pd_mask(S[None])[0]:
                S = sigma + sigma @ np.diag(rng.uniform(-1.0, 0.0, m)) @ sigma
            problems.append((m, S))
        counts = []
        for m, S in problems:
            assert np.abs(S).max() <= 1.0
            old = _box_corr(np.array(_twice_evaluated_multistart(m, S, opts)),
                            m)
            new = np.array([cp.sigma
                            for cp in _correlation_multistart(m, S, opts)])
            np.testing.assert_array_equal(new, old)
            counts.append(len(new))
        assert max(counts) > 1

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_step_floor_against_the_deep_search(self, m, monkeypatch):
        """The line search down to 2^-29, the schedule before the floor,
        as the reference.  A start runs the same under both until it
        needs a step below 2^-14, so every point found is one the deep
        search finds; a point that only such a start reaches is lost.
        On slice samples S = Sigma + Sigma D Sigma with D in (-0.4, 0.8)
        none is; D in (-1, 0) gives samples with more critical points."""
        deep = tuple(np.ldexp(1.0, -np.arange(lo, hi)) for lo, hi in
                     ((0, 1), (1, 3), (3, 7), (7, 15), (15, 30)))
        rng = np.random.default_rng(130 + m)
        iu = np.triu_indices(m, 1)
        model = UnrestrictedCorrelation(m)
        for lo, hi in ((-0.4, 0.8), (-0.4, 0.8), (-1.0, 0.0)):
            sigma = random_correlation(m, rng)
            S = sigma + sigma @ np.diag(rng.uniform(lo, hi, m)) @ sigma
            while not pd_mask(S[None])[0]:
                S = sigma + sigma @ np.diag(rng.uniform(lo, hi, m)) @ sigma
            floor = critical_points(model, S)
            with monkeypatch.context() as mp:
                mp.setattr("logvor.mle._STEP_BLOCKS", deep)
                ref = critical_points(model, S)
            for p in floor:
                assert min(np.abs(p.sigma[iu] - q.sigma[iu]).max()
                           for q in ref) < 1e-6
            if hi > 0.0:
                assert len(floor) == len(ref)
                assert abs(floor[0].loglik - ref[0].loglik) <= 1e-10


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.starts == 512 and opts.seed == 0
        assert MULTISTART_TOL == 1e-12 and MULTISTART_MAX_ITER == 100

    def test_json_round_trip(self):
        opts = SolverOptions(starts=64, seed=5)
        assert options_from_json(dataclasses.asdict(opts)) == opts

    def test_partial_document_fills_defaults(self):
        opts = options_from_json({"seed": 3})
        assert opts == SolverOptions(seed=3)

    def test_none_gives_defaults(self):
        assert options_from_json(None) == SolverOptions()

    @pytest.mark.parametrize("obj", [[], 5, "starts"])
    def test_non_object_is_rejected(self, obj):
        with pytest.raises(InvalidModel, match="JSON object"):
            options_from_json(obj)

    @pytest.mark.parametrize("field, value", [
        ("starts", 0), ("starts", -5), ("seed", -1),
    ])
    def test_out_of_range_values_are_rejected(self, field, value):
        with pytest.raises(OutOfRange, match=field):
            SolverOptions(**{field: value})
        with pytest.raises(OutOfRange, match=field):
            options_from_json({field: value})

    def test_smallest_valid_values(self):
        opts = SolverOptions(starts=1, seed=0)
        assert (opts.starts, opts.seed) == (1, 0)

    @pytest.mark.parametrize("field, value", [
        ("starts", 2.5), ("seed", 1.5), ("seed", "3"), ("starts", True),
    ])
    def test_non_integers_are_rejected(self, field, value):
        """A value that is not an integer, a boolean among them, raises
        :class:`InvalidModel` when the options are made, not a raw
        ``TypeError`` inside the solve."""
        with pytest.raises(InvalidModel, match=f"{field} must be an integer"):
            critical_points(UnrestrictedCorrelation(3), np.eye(3),
                            SolverOptions(**{field: value}))

    def test_numpy_integers_are_accepted(self):
        opts = SolverOptions(starts=np.int64(4), seed=np.uint8(2))
        assert critical_points(UnrestrictedCorrelation(3), np.eye(3), opts)

    @pytest.mark.parametrize("field", ["tol", "max_iter"])
    def test_multistart_constants_are_not_options(self, field):
        """The multistart's tolerance and iteration cap are the module
        constants; as options they are unknown keys."""
        assert field not in SolverOptions.__dataclass_fields__
        with pytest.raises(InvalidModel, match=f'unknown solver option "{field}"'):
            options_from_json({field: 1})
