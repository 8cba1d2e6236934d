"""Spectrahedron slices, cell membership, decomposition and sampling."""

import gc
import itertools
import math

import numpy as np
import pytest

from logvor import (
    IN_CELL,
    IN_SPECTRAHEDRON_NOT_CELL,
    NOT_IN_SPECTRAHEDRON,
    NOT_PD,
    BivariateCorrelation,
    CiUnion,
    DagModel,
    DimensionMismatch,
    Equicorrelation,
    GraphModel,
    Graph,
    LinearConcentration,
    NotOnSlice,
    NotPD,
    OutOfRange,
    PreconditionFailed,
    SamplingExhausted,
    ShapeMismatch,
    SingularPoint,
    UnrestrictedCorrelation,
    bivariate_cell,
    cell_membership,
    ci_union_cell,
    compose_cell,
    critical_points,
    criticality_residual,
    equicorrelation_cell,
    equicorrelation_cubic,
    equicorrelation_matrix,
    find_reducible_decomposition,
    in_spectrahedron,
    is_chordal,
    is_positive_definite,
    log_likelihood,
    lognormal_basis,
    model_from_json,
    mle_concentration,
    mle_dag,
    mle_graph_decomposable,
    model_contains,
    principal_submatrix,
    project_cell,
    sample_spectrahedron,
    score_matrix,
    sem_fit,
    symmetrize,
    tangent_basis,
    verdict_to_json,
)
from logvor.core import _is_pd

from conftest import random_pd


@pytest.fixture
def pd_mask_batches(monkeypatch):
    """The number of matrices in each pd_mask call of the cells module."""
    import logvor.cells
    batches = []
    original = logvor.cells.pd_mask

    def recorded(M):
        batches.append(len(M))
        return original(M)

    monkeypatch.setattr(logvor.cells, "pd_mask", recorded)
    return batches


def bivariate_slice_sample(c, rng):
    """A PD 2 x 2 sample whose critical cubic has the correlation c as a root."""
    while True:
        b = rng.uniform(-1.5, 1.5)
        a = (b * c * c - c ** 3 + b + c) / (2.0 * c)
        if a <= abs(b):
            continue
        half = math.sqrt(a * a - b * b)
        k = a + rng.uniform(-0.999, 0.999) * half
        return np.array([[k, b], [b, 2.0 * a - k]])


def equicorrelation_slice_sample(m, c, rng, spread=0.3):
    """A PD m x m sample whose symmetrised statistics sit on the slice of c."""
    lo = -1.0 / (m - 1)
    denom = c * c * m - 2.0 * c * c + 2.0 * c
    iu = np.triu_indices(m, 1)
    while True:
        b = rng.uniform(lo + 0.05, 0.95)
        a = ((m - 2) * c * c + (m - 1) * b * c * c
             - (m - 1) * c ** 3 + b + c) / denom
        R = rng.uniform(-1.0, 1.0, size=(m, m))
        R = (R + R.T) / 2.0
        R[np.diag_indices(m)] -= np.diag(R).mean()
        shift = R[iu].mean()
        R[iu] -= shift
        R[(iu[1], iu[0])] -= shift
        S = a * np.eye(m) + b * (np.ones((m, m)) - np.eye(m)) + spread * R
        if is_positive_definite(S):
            return S


def ci_union_t_sample(t, rng):
    """A PD sample on the slice of the t-chart point diag-coupled at t."""
    t1, t2, t3, t4 = t
    while True:
        x1 = rng.uniform(-1.0, 1.0) * math.sqrt(t1 * t2)
        x2 = rng.uniform(-1.5, 1.5)
        S = np.array([[t1, x1, x2], [x1, t2, t3], [x2, t3, t4]])
        if is_positive_definite(S):
            return S


class TestLognormalBasis:
    def test_dimensions(self, path_graph, path_sigma, collider_dag,
                        collider_sigma, elliptope_sigma):
        assert lognormal_basis(GraphModel(path_graph),
                               path_sigma).dimension == 3
        assert lognormal_basis(DagModel(collider_dag),
                               collider_sigma).dimension == 3
        assert lognormal_basis(BivariateCorrelation(),
                               np.array([[1.0, 0.5], [0.5, 1.0]])).dimension == 2
        assert lognormal_basis(UnrestrictedCorrelation(3),
                               elliptope_sigma).dimension == 3

    def test_equicorrelation_dimension_formula(self):
        """The slice at a generic equicorrelation point has dimension
        (m + 1 choose 2) - 1."""
        for m in (2, 3, 4, 5):
            slice_ = lognormal_basis(Equicorrelation(m),
                                     equicorrelation_matrix(m, 0.3))
            assert slice_.dimension == m * (m + 1) // 2 - 1

    def test_directions_are_orthonormal(self, path_graph, path_sigma):
        slice_ = lognormal_basis(GraphModel(path_graph), path_sigma)
        for D1, D2 in itertools.product(slice_.directions, repeat=2):
            inner = float(np.sum(D1 * D2))
            expect = 1.0 if D1 is D2 else 0.0
            np.testing.assert_allclose(inner, expect, atol=1e-12)

    def test_base_is_sigma(self, path_graph, path_sigma):
        slice_ = lognormal_basis(GraphModel(path_graph), path_sigma)
        np.testing.assert_allclose(slice_.base, path_sigma)

    def test_steps_stay_on_spectrahedron_slice(self, path_graph, path_sigma):
        model = GraphModel(path_graph)
        slice_ = lognormal_basis(model, path_sigma)
        rng = np.random.default_rng(61)
        for _ in range(20):
            S = path_sigma + sum(
                c * D for c, D in zip(rng.uniform(-0.3, 0.3, 3),
                                      slice_.directions))
            if is_positive_definite(S):
                assert in_spectrahedron(model, path_sigma, S, tol=1e-9)

    def test_singular_union_point_raises(self):
        with pytest.raises(SingularPoint):
            lognormal_basis(CiUnion(), np.diag([1.0, 2.0, 3.0]))


class TestInSpectrahedron:
    def test_reference_samples(self, elliptope_sigma, elliptope_s1,
                               elliptope_s2):
        model = UnrestrictedCorrelation(3)
        assert in_spectrahedron(model, elliptope_sigma, elliptope_s1)
        assert in_spectrahedron(model, elliptope_sigma, elliptope_s2)

    def test_perturbation_leaves_slice(self, elliptope_sigma, elliptope_s1):
        bad = elliptope_s1.copy()
        bad[0, 1] = bad[1, 0] = bad[0, 1] + 0.01
        assert not in_spectrahedron(UnrestrictedCorrelation(3),
                                    elliptope_sigma, bad)

    def test_non_pd_sample_is_outside(self, elliptope_sigma):
        assert not in_spectrahedron(UnrestrictedCorrelation(3),
                                    elliptope_sigma, np.diag([1.0, 1.0, -1.0]))

    def test_sigma_is_always_inside(self, path_graph, path_sigma):
        assert in_spectrahedron(GraphModel(path_graph), path_sigma, path_sigma)


class TestSigmaOffTheModel:
    """Sigma must be a point of the model; the sample S may be anything."""

    MODEL = GraphModel(Graph(3, ((1, 2),)))
    SIGMA = np.array([[2.0, 0.5, 0.3], [0.5, 2.0, 0.5], [0.3, 0.5, 2.0]])

    def test_every_entry_point_refuses(self):
        calls = [lambda: cell_membership(self.MODEL, self.SIGMA, self.SIGMA),
                 lambda: in_spectrahedron(self.MODEL, self.SIGMA, self.SIGMA),
                 lambda: lognormal_basis(self.MODEL, self.SIGMA),
                 lambda: sample_spectrahedron(self.MODEL, self.SIGMA, 2)]
        for call in calls:
            with pytest.raises(PreconditionFailed):
                call()

    def test_model_point_is_accepted(self):
        K = np.linalg.inv(self.SIGMA)
        K[0, 2] = K[2, 0] = K[1, 2] = K[2, 1] = 0.0
        Sigma = np.linalg.inv(K)
        assert cell_membership(self.MODEL, Sigma, Sigma).status == IN_CELL


class TestValidatedOnce:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the symmetry check and of the PD elimination."""
        import logvor
        counts = {"check_symmetric": 0, "_is_pd": 0}
        for name in counts:
            original = getattr(logvor.core, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in (logvor.core, logvor.models, logvor.mle,
                           logvor.cells):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return counts

    def test_membership_checks_each_matrix_once(self, path_graph, path_sigma,
                                                 counts):
        """One symmetry check and one PD elimination for each of Sigma
        and S; nothing downstream validates them again."""
        S = path_sigma.copy()
        S[0, 2] = S[2, 0] = 0.5
        verdict = cell_membership(GraphModel(path_graph), path_sigma, S)
        assert verdict.status == IN_CELL
        assert counts == {"check_symmetric": 2, "_is_pd": 2}

    def test_compose_and_project_check_each_argument_once(
            self, path_graph, path_sigma, counts):
        """compose_cell: one symmetry check per matrix argument, and PD
        eliminations for Sigma_UU, S1, Sigma_WW, S2, the glued
        concentration and the result; project_cell: one symmetry check
        each for Sigma and S, and PD eliminations for both and for the
        glued concentration."""
        S = sample_spectrahedron(GraphModel(path_graph), path_sigma, 1,
                                 seed=3)[0]
        pieces = project_cell(path_graph, path_sigma, S)
        counts.update(check_symmetric=0, _is_pd=0)
        compose_cell(path_graph, path_sigma, *pieces)
        assert counts == {"check_symmetric": 4, "_is_pd": 6}
        counts.update(check_symmetric=0, _is_pd=0)
        project_cell(path_graph, path_sigma, S)
        assert counts == {"check_symmetric": 2, "_is_pd": 3}

    @pytest.fixture
    def public_calls(self, monkeypatch):
        """Calls of the public functions that validate their arguments
        again; no internal path makes them."""
        import logvor
        calls = []
        for name in ("is_positive_definite", "log_likelihood", "sem_fit",
                     "mle_dag", "mle_concentration"):
            for module in (logvor.core, logvor.models, logvor.mle,
                           logvor.cells):
                if hasattr(module, name):
                    original = getattr(module, name)

                    def recorded(*args, _name=name, _original=original,
                                 **kwargs):
                        calls.append(_name)
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, name, recorded)
        return calls

    @pytest.mark.parametrize("family, pd_tests", [
        ("dag", 2), ("four-cycle", 3), ("concentration", 3)])
    def test_critical_points_check_the_sample_once(
            self, family, pd_tests, collider_dag, path_sigma, counts,
            public_calls):
        """One symmetry check and one PD elimination for S; then one PD
        elimination for the fitted point, and for the Newton families
        one for the starting concentration."""
        cycle = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        model = {"dag": DagModel(collider_dag),
                 "four-cycle": GraphModel(cycle),
                 "concentration": LinearConcentration(
                     (np.eye(4), np.ones((4, 4)) - np.eye(4)))}[family]
        counts.update(check_symmetric=0, _is_pd=0)
        points = critical_points(model, path_sigma)
        assert len(points) == 1 and points[0].source == "unique"
        assert counts == {"check_symmetric": 1, "_is_pd": pd_tests}
        assert public_calls == []

    def test_equicorrelation_cell_checks_s_once(self, counts, public_calls):
        """One symmetry check and one PD elimination for S, and one PD
        elimination for the one critical point of the symmetrised
        sample; the point c itself is not tested again."""
        S = equicorrelation_slice_sample(3, 0.4, np.random.default_rng(7))
        counts.update(check_symmetric=0, _is_pd=0)
        assert equicorrelation_cell(3, 0.4, S)
        assert counts == {"check_symmetric": 1, "_is_pd": 2}
        assert public_calls == []

    def test_sampler_tests_a_batch_at_once(self, path_graph, path_sigma,
                                           counts, pd_mask_batches):
        """A 16-sample draw without rejections makes one pd_mask call for
        all its proposals and one PD elimination, for Sigma."""
        samples = sample_spectrahedron(GraphModel(path_graph), path_sigma,
                                       16, seed=3)
        assert len(samples) == 16
        assert pd_mask_batches == [16]
        assert counts["_is_pd"] == 1

    def test_sampler_checks_sigma_once(self, path_graph, path_sigma, counts):
        """The proposals are built from validated arrays, so only Sigma
        is checked for symmetry."""
        samples = sample_spectrahedron(GraphModel(path_graph), path_sigma,
                                       16, seed=3)
        assert len(samples) == 16
        assert counts["check_symmetric"] == 1

    @pytest.mark.parametrize("query", [cell_membership, in_spectrahedron])
    def test_warm_query_checks_only_s(self, query, path_graph, path_sigma,
                                      counts):
        """A second query on the same model object at the same Sigma uses
        the record the model kept: one symmetry check and one PD
        elimination, both for S."""
        model = GraphModel(path_graph)
        S = path_sigma.copy()
        S[0, 2] = S[2, 0] = 0.5
        first = query(model, path_sigma, S)
        assert counts == {"check_symmetric": 2, "_is_pd": 2}
        counts.update(check_symmetric=0, _is_pd=0)
        second = query(model, path_sigma, S)
        assert counts == {"check_symmetric": 1, "_is_pd": 1}
        assert getattr(second, "status", second) \
            == getattr(first, "status", first)

    def test_warm_sampler_checks_nothing_of_sigma(self, path_graph,
                                                  path_sigma, counts):
        """A second draw on the same model object and Sigma makes no
        symmetry check and no PD elimination, and draws the same
        samples."""
        model = GraphModel(path_graph)
        first = sample_spectrahedron(model, path_sigma, 16, seed=3)
        counts.update(check_symmetric=0, _is_pd=0)
        second = sample_spectrahedron(model, path_sigma, 16, seed=3)
        assert counts == {"check_symmetric": 0, "_is_pd": 0}
        for A, B in zip(first, second):
            np.testing.assert_array_equal(A, B)


#: Symmetric, not positive definite, and of the wrong dimension for every
#: call below: each must say DimensionMismatch rather than NotPD.
BAD = -np.eye(3)

#: Every public function with a matrix argument, given ``BAD`` for one
#: of them; the fixtures are the path graph, its point path_sigma and
#: the collider DAG.
WRONG_DIMENSION = {
    "critical_points": lambda G, Sg, D: critical_points(GraphModel(G), BAD),
    "mle_concentration": lambda G, Sg, D: mle_concentration(GraphModel(G),
                                                            BAD),
    "mle_graph_decomposable": lambda G, Sg, D: mle_graph_decomposable(G, BAD),
    "mle_dag": lambda G, Sg, D: mle_dag(D, BAD),
    "sem_fit": lambda G, Sg, D: sem_fit(D, BAD),
    "criticality_residual-Sigma":
        lambda G, Sg, D: criticality_residual(GraphModel(G), BAD, Sg),
    "criticality_residual-S":
        lambda G, Sg, D: criticality_residual(GraphModel(G), Sg, BAD),
    "model_contains": lambda G, Sg, D: model_contains(GraphModel(G), BAD),
    "tangent_basis": lambda G, Sg, D: tangent_basis(GraphModel(G), BAD),
    "lognormal_basis": lambda G, Sg, D: lognormal_basis(GraphModel(G), BAD),
    "sample_spectrahedron":
        lambda G, Sg, D: sample_spectrahedron(GraphModel(G), BAD, 1),
    "in_spectrahedron":
        lambda G, Sg, D: in_spectrahedron(GraphModel(G), Sg, BAD),
    "cell_membership":
        lambda G, Sg, D: cell_membership(GraphModel(G), Sg, BAD),
    "log_likelihood": lambda G, Sg, D: log_likelihood(Sg, BAD),
    "score_matrix": lambda G, Sg, D: score_matrix(Sg, BAD),
    "bivariate_cell": lambda G, Sg, D: bivariate_cell(0.5, BAD),
    "equicorrelation_cell": lambda G, Sg, D: equicorrelation_cell(4, 0.3, BAD),
    "equicorrelation_cell-m-1":
        lambda G, Sg, D: equicorrelation_cell(1, 0.0, np.eye(1)),
    "equicorrelation_cubic-m-1":
        lambda G, Sg, D: equicorrelation_cubic(1, 0.5, 0.0),
    "ci_union_cell-Sigma": lambda G, Sg, D: ci_union_cell(-np.eye(2), BAD),
    "ci_union_cell-S": lambda G, Sg, D: ci_union_cell(np.eye(3), -np.eye(2)),
    "compose_cell": lambda G, Sg, D: compose_cell(G, Sg, BAD, BAD,
                                                  np.zeros((4, 4))),
    "project_cell": lambda G, Sg, D: project_cell(G, Sg, BAD),
}


@pytest.mark.parametrize("call", WRONG_DIMENSION.values(),
                         ids=WRONG_DIMENSION.keys())
def test_wrong_dimension_raises_dimension_mismatch(call, path_graph,
                                                   path_sigma, collider_dag):
    """Every entry point checks each matrix argument's dimension before
    anything else about it, with one error type, a ShapeMismatch."""
    assert issubclass(DimensionMismatch, ShapeMismatch)
    with pytest.raises(DimensionMismatch):
        call(path_graph, path_sigma, collider_dag)


class TestCellMembership:
    def test_degree_one_shortcut(self, path_graph, path_sigma):
        model = GraphModel(path_graph)
        verdict = cell_membership(model, path_sigma, path_sigma)
        assert verdict.status == IN_CELL
        assert not verdict.best_effort

    def test_off_slice_sample(self, path_graph, path_sigma):
        S = random_pd(4, np.random.default_rng(62), scale=2.0)
        verdict = cell_membership(GraphModel(path_graph), path_sigma, S)
        assert verdict.status == NOT_IN_SPECTRAHEDRON

    def test_non_pd_sample(self, path_graph, path_sigma):
        verdict = cell_membership(GraphModel(path_graph), path_sigma,
                                  np.diag([1.0, 1.0, 1.0, -1.0]))
        assert verdict.status == NOT_PD

    def test_elliptope_rejection_with_witness(self, elliptope_sigma,
                                              elliptope_s1):
        verdict = cell_membership(UnrestrictedCorrelation(3),
                                  elliptope_sigma, elliptope_s1)
        assert verdict.status == IN_SPECTRAHEDRON_NOT_CELL
        assert verdict.best_effort
        w = verdict.witness.sigma
        np.testing.assert_allclose(
            (w[0, 1], w[1, 2], w[0, 2]),
            (-0.73841, 0.213623, -0.0580265), atol=1e-4)
        np.testing.assert_allclose(
            verdict.margin,
            log_likelihood(elliptope_sigma, elliptope_s1)
            - verdict.witness.loglik, rtol=1e-12)
        assert verdict.margin < -0.29

    def test_elliptope_acceptance(self, elliptope_sigma, elliptope_s2):
        verdict = cell_membership(UnrestrictedCorrelation(3),
                                  elliptope_sigma, elliptope_s2)
        assert verdict.status == IN_CELL
        assert verdict.best_effort

    def test_sample_at_own_mle_is_in_cell(self):
        """ell(S, S) dominates every competitor, so S sits in the cell of
        its own MLE."""
        S = equicorrelation_matrix(3, 0.35)
        verdict = cell_membership(UnrestrictedCorrelation(3), S, S)
        assert verdict.status == IN_CELL

    def test_graph_queries_build_no_dense_directions(self, path_graph,
                                                     path_sigma, monkeypatch):
        """A graph model's residual is taken in closed form: the
        residual, the spectrahedron test and the membership verdict
        build neither the basis stack nor the tangent directions."""
        def refuse(*args):
            raise AssertionError("dense tangent directions built")

        monkeypatch.setattr(GraphModel, "tangent_basis", refuse)
        S = path_sigma.copy()
        S[0, 2] = S[2, 0] = 0.5
        model = GraphModel(path_graph)
        assert criticality_residual(model, path_sigma, S) < 1e-15
        assert in_spectrahedron(model, path_sigma, S)
        assert cell_membership(model, path_sigma, S).status == IN_CELL
        S[0, 1] = S[1, 0] = 0.5
        assert cell_membership(model, path_sigma, S).status \
            == NOT_IN_SPECTRAHEDRON
        assert "_stack" not in vars(model)

    def test_record_and_model_leave_no_reference_cycle(self, path_graph,
                                                       path_sigma):
        """A model point's record refers to its model weakly, so a model
        built for one query is freed on return with its record, not by
        the cycle collector."""
        S = path_sigma.copy()
        S[0, 2] = S[2, 0] = 0.5
        gc.collect()
        gc.disable()
        try:
            assert cell_membership(GraphModel(path_graph), path_sigma,
                                   S).status == IN_CELL
            lognormal_basis(GraphModel(path_graph), path_sigma)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBivariateCell:
    def test_sign_rule_examples(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            S = bivariate_slice_sample(0.5, rng)
            assert bivariate_cell(0.5, S) == (S[0, 1] >= 0.0)
        for _ in range(50):
            S = bivariate_slice_sample(-0.5, rng)
            assert bivariate_cell(-0.5, S) == (S[0, 1] <= 0.0)

    def test_agrees_with_enumeration(self):
        """Closed form vs critical-point comparison through cell_membership."""
        rng = np.random.default_rng(64)
        model = BivariateCorrelation()
        for c in (0.7, -0.3):
            Sigma = np.array([[1.0, c], [c, 1.0]])
            for _ in range(150):
                S = bivariate_slice_sample(c, rng)
                verdict = cell_membership(model, Sigma, S)
                assert verdict.status in (IN_CELL, IN_SPECTRAHEDRON_NOT_CELL)
                assert bivariate_cell(c, S) == (verdict.status == IN_CELL)

    def test_diagonal_point_rule(self):
        assert bivariate_cell(0.0, np.diag([0.4, 0.8]))       # a = 0.6
        assert not bivariate_cell(0.0, np.diag([0.4, 0.5]))   # a = 0.45
        with pytest.raises(NotOnSlice):
            bivariate_cell(0.0, np.array([[1.0, 0.2], [0.2, 1.0]]))

    def test_out_of_range_c(self):
        with pytest.raises(OutOfRange):
            bivariate_cell(1.0, np.eye(2))

    def test_off_slice_sample_raises(self):
        with pytest.raises(NotOnSlice):
            bivariate_cell(0.5, np.array([[1.0, 0.1], [0.1, 1.0]]))

    def test_non_pd_on_slice_raises(self):
        # relation satisfied but k outside (0, 2a)
        c, b = 0.5, 0.5
        a = (b * c * c - c ** 3 + b + c) / (2.0 * c)
        S = np.array([[-0.1, b], [b, 2 * a + 0.1]])
        with pytest.raises(NotOnSlice):
            bivariate_cell(c, S)


class TestSymmetrize:
    def test_matches_full_group_average(self):
        """Brute-force average over all m! simultaneous permutations."""
        rng = np.random.default_rng(65)
        for m in (1, 2, 3, 4):
            S = random_pd(m, rng)
            total = np.zeros((m, m))
            for perm in itertools.permutations(range(m)):
                P = np.eye(m)[list(perm)]
                total += P @ S @ P.T
            expect = total / math.factorial(m)
            a, b, Sbar = symmetrize(S)
            np.testing.assert_allclose(Sbar, expect, atol=1e-14)

    def test_structure(self):
        a, b, Sbar = symmetrize(np.array([[2.0, 0.5], [0.5, 4.0]]))
        assert a == 3.0 and b == 0.5
        np.testing.assert_allclose(Sbar, np.array([[3.0, 0.5], [0.5, 3.0]]))


class TestEquicorrelationCell:
    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(66)
        for c in (0.4, -0.3):
            Sigma = equicorrelation_matrix(3, c)
            model = Equicorrelation(3)
            for _ in range(150):
                S = equicorrelation_slice_sample(3, c, rng)
                verdict = cell_membership(model, Sigma, S)
                assert verdict.status in (IN_CELL, IN_SPECTRAHEDRON_NOT_CELL)
                assert equicorrelation_cell(3, c, S) == \
                    (verdict.status == IN_CELL)

    def test_m_two_reduces_to_bivariate(self):
        rng = np.random.default_rng(67)
        for c in (0.6, -0.45):
            for _ in range(100):
                S = bivariate_slice_sample(c, rng)
                assert equicorrelation_cell(2, c, S) == bivariate_cell(c, S)

    def test_own_point_is_in_cell(self):
        S = equicorrelation_matrix(4, 0.25)
        assert equicorrelation_cell(4, 0.25, S)

    def test_off_slice_raises(self):
        with pytest.raises(NotOnSlice):
            equicorrelation_cell(3, 0.4, np.eye(3))

    def test_out_of_range_c(self):
        with pytest.raises(OutOfRange):
            equicorrelation_cell(3, -0.5, np.eye(3))

    def test_diagonal_point_and_non_pd_sample(self):
        """At c = 0 the slice asks for a zero mean off-diagonal and the
        cell for a half-trace of at least 1/2; a sample on the slice that
        is not positive definite is outside the cell."""
        assert equicorrelation_cell(3, 0.0, 0.6 * np.eye(3))
        assert not equicorrelation_cell(3, 0.0, 0.4 * np.eye(3))
        S = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.0], [-0.9, 0.0, 1.0]])
        assert not is_positive_definite(S)
        assert not equicorrelation_cell(3, 0.0, S)


class TestCiUnionCell:
    T = (1.0, 2.0, 1.0, 3.0)

    def sigma_t(self):
        t1, t2, t3, t4 = self.T
        return np.array([[t1, 0.0, 0.0], [0.0, t2, t3], [0.0, t3, t4]])

    def test_strip_boundary(self):
        Sigma = self.sigma_t()
        bound = 1.0 / math.sqrt(3.0)
        S_in = Sigma.copy()
        S_in[0, 1] = S_in[1, 0] = 0.5
        assert ci_union_cell(Sigma, S_in)
        S_out = Sigma.copy()
        S_out[0, 1] = S_out[1, 0] = 0.6
        assert not ci_union_cell(Sigma, S_out)
        assert abs(bound - 0.57735) < 1e-5

    def test_agrees_with_two_point_comparison(self):
        """The strip rule must match a direct log-likelihood comparison
        against the competitor critical point."""
        rng = np.random.default_rng(68)
        Sigma = self.sigma_t()
        for _ in range(300):
            S = ci_union_t_sample(self.T, rng)
            competitor = np.array([[S[0, 0], S[0, 1], 0.0],
                                   [S[0, 1], S[1, 1], 0.0],
                                   [0.0, 0.0, S[2, 2]]])
            direct = (log_likelihood(Sigma, S)
                      >= log_likelihood(competitor, S) - 1e-9)
            assert ci_union_cell(Sigma, S) == direct

    def test_s_chart_mirror(self):
        s1, s2, s3, s4 = 2.0, 1.0, 3.0, 4.0
        Sigma = np.array([[s1, s2, 0.0], [s2, s3, 0.0], [0.0, 0.0, s4]])
        bound = s2 * math.sqrt(s4 / s1)
        rng = np.random.default_rng(69)
        hits = 0
        for _ in range(300):
            y1 = rng.uniform(-2.0, 2.0)
            y2 = rng.uniform(-2.5, 2.5)
            S = np.array([[s1, s2, y1], [s2, s3, y2], [y1, y2, s4]])
            if not is_positive_definite(S):
                continue
            hits += 1
            competitor = np.array([[S[0, 0], 0.0, 0.0],
                                   [0.0, S[1, 1], S[1, 2]],
                                   [0.0, S[1, 2], S[2, 2]]])
            direct = (log_likelihood(Sigma, S)
                      >= log_likelihood(competitor, S) - 1e-9)
            assert ci_union_cell(Sigma, S) == direct
            assert ci_union_cell(Sigma, S) == (abs(y2) <= bound)
        assert hits > 100

    def test_singular_point_pair_rule(self):
        Sigma = np.diag([1.0, 1.0, 1.0])
        S = np.eye(3)
        S[0, 1] = S[1, 0] = 0.4
        S[1, 2] = S[2, 1] = 0.3
        S[0, 2] = S[2, 0] = 0.2
        assert ci_union_cell(Sigma, S)
        # large coupling in the zeroed-out pattern breaks the first check
        S_bad = np.eye(3)
        S_bad[0, 1] = S_bad[1, 0] = 0.99
        S_bad[0, 2] = S_bad[2, 0] = 0.99
        assert not ci_union_cell(Sigma, S_bad)

    def test_singular_point_requires_pd_sample(self):
        """Both displayed conditions can hold while the sample itself is
        indefinite; such samples are not cell members."""
        Sigma = np.diag([1.0, 1.0, 1.0])
        S = np.eye(3)
        S[0, 1] = S[1, 0] = 0.9
        S[1, 2] = S[2, 1] = 0.9
        M1 = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        M2 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.9], [0.0, 0.9, 1.0]])
        assert is_positive_definite(M1) and is_positive_definite(M2)
        assert not is_positive_definite(S)
        assert not ci_union_cell(Sigma, S)

    def test_pinned_entries_are_checked(self):
        Sigma = self.sigma_t()
        S = Sigma.copy()
        S[1, 1] = 5.0          # t2 must stay pinned
        with pytest.raises(NotOnSlice):
            ci_union_cell(Sigma, S)

    @pytest.mark.parametrize("tiny", [2e-10, 5e-9])
    @pytest.mark.parametrize("pinned, free", [((0, 1), (1, 2)),
                                              ((1, 2), (0, 1))])
    def test_agrees_with_membership_at_small_couplings(self, tiny, pinned,
                                                       free):
        """Sigma_12 (or Sigma_23) just above SINGULAR_TOL makes Sigma a
        nonsingular point for both rules, so the closed form and the
        enumeration in cell_membership give the same verdict."""
        Sigma = np.diag([1.0, 2.0, 3.0])
        Sigma[pinned] = Sigma[pinned[::-1]] = tiny
        for value in (0.0, 0.5):
            S = Sigma.copy()
            S[free] = S[free[::-1]] = value
            verdict = cell_membership(CiUnion(), Sigma, S)
            assert ci_union_cell(Sigma, S) == (verdict.status == IN_CELL)

    def test_non_model_sigma_raises(self):
        bad = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 3.0]])
        with pytest.raises(NotOnSlice):
            ci_union_cell(bad, bad)
        with pytest.raises(NotOnSlice):
            off = np.eye(3)
            off[0, 2] = off[2, 0] = 0.5
            ci_union_cell(off, off)


class TestComposeProject:
    def admissible_triple(self, path_graph, path_sigma, rng, m_scale=0.2):
        dec = find_reducible_decomposition(path_graph)
        S1 = principal_submatrix(path_sigma, dec.U)
        side_w = GraphModel(Graph(3, ((1, 2), (2, 3))))
        Sigma_w = principal_submatrix(path_sigma, dec.W)
        S2 = sample_spectrahedron(side_w, Sigma_w, 1,
                                  seed=int(rng.integers(1 << 30)))[0]
        M = np.zeros((4, 4))
        M[0, 2] = M[2, 0] = rng.uniform(-m_scale, m_scale)
        M[0, 3] = M[3, 0] = rng.uniform(-m_scale, m_scale)
        return S1, S2, M

    def test_pieces_leave_no_reference_cycle(self, path_graph, path_sigma):
        """The models that compose_cell and project_cell build for one
        call are freed on return with their records, not by the cycle
        collector."""
        S = compose_cell(path_graph, path_sigma, *self.admissible_triple(
            path_graph, path_sigma, np.random.default_rng(5)))
        gc.collect()
        gc.disable()
        try:
            compose_cell(path_graph, path_sigma,
                         *project_cell(path_graph, path_sigma, S))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_trivial_collapse(self, path_graph, path_sigma):
        dec = find_reducible_decomposition(path_graph)
        S = compose_cell(path_graph, path_sigma,
                         principal_submatrix(path_sigma, dec.U),
                         principal_submatrix(path_sigma, dec.W),
                         np.zeros((4, 4)))
        np.testing.assert_allclose(S, path_sigma, rtol=1e-12, atol=1e-12)

    def test_blocks_are_recovered(self, path_graph, path_sigma):
        rng = np.random.default_rng(70)
        dec = find_reducible_decomposition(path_graph)
        for _ in range(20):
            S1, S2, M = self.admissible_triple(path_graph, path_sigma, rng)
            try:
                S = compose_cell(path_graph, path_sigma, S1, S2, M)
            except NotPD:
                continue
            np.testing.assert_allclose(principal_submatrix(S, dec.U), S1,
                                       rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(principal_submatrix(S, dec.W), S2,
                                       rtol=1e-10, atol=1e-10)
            verdict = cell_membership(GraphModel(path_graph), path_sigma, S)
            assert verdict.status == IN_CELL

    def test_round_trip_from_cell_samples(self, path_graph, path_sigma):
        model = GraphModel(path_graph)
        samples = sample_spectrahedron(model, path_sigma, 30, seed=71)
        for S in samples:
            S1, S2, M = project_cell(path_graph, path_sigma, S)
            back = compose_cell(path_graph, path_sigma, S1, S2, M)
            np.testing.assert_allclose(back, S, rtol=1e-10, atol=1e-10)

    def test_round_trip_on_random_chordal_graphs(self):
        """Same identity on bigger chordal graphs with nontrivial
        separators."""
        rng = np.random.default_rng(72)
        done = 0
        while done < 2:
            m = int(rng.integers(5, 7))
            edges = [(i, j) for i in range(1, m + 1)
                     for j in range(i + 1, m + 1) if rng.uniform() < 0.45]
            G = Graph(m, frozenset(edges))
            if not is_chordal(G)[0] or G.is_complete():
                continue
            if find_reducible_decomposition(G) is None:
                continue
            Sigma = mle_concentration(GraphModel(G), random_pd(m, rng)).sigma
            for S in sample_spectrahedron(GraphModel(G), Sigma, 10,
                                          seed=int(rng.integers(1 << 30))):
                S1, S2, M = project_cell(G, Sigma, S)
                back = compose_cell(G, Sigma, S1, S2, M)
                np.testing.assert_allclose(back, S, rtol=1e-10, atol=1e-10)
            done += 1

    def test_invalid_pieces_are_rejected(self, path_graph, path_sigma):
        dec = find_reducible_decomposition(path_graph)
        S1 = principal_submatrix(path_sigma, dec.U)
        S2 = principal_submatrix(path_sigma, dec.W)
        with pytest.raises(PreconditionFailed):
            compose_cell(path_graph, path_sigma, S1 + 0.3 * np.eye(2), S2,
                         np.zeros((4, 4)))
        bad_m = np.zeros((4, 4))
        bad_m[0, 1] = bad_m[1, 0] = 0.1      # inside the U x U block
        with pytest.raises(PreconditionFailed):
            compose_cell(path_graph, path_sigma, S1, S2, bad_m)
        huge_m = np.zeros((4, 4))
        huge_m[0, 3] = huge_m[3, 0] = 100.0   # off both blocks, too large
        with pytest.raises(NotPD, match="composed sample"):
            compose_cell(path_graph, path_sigma, S1, S2, huge_m)

    @pytest.mark.parametrize("t", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_block_test_is_relative_to_sigma(self, t):
        """``M`` must vanish on the blocks to 1e-12 of Sigma's largest
        diagonal entry, at every scale: a U x U entry of 1.16e-3 t is
        rejected (an absolute floor let it through at small t), and a
        cell member splits and reassembles at that scale."""
        G = Graph(3, ((1, 2), (2, 3)))
        A = np.random.default_rng(0).standard_normal((3, 6))
        S = A @ A.T / 6 + np.eye(3) / 2
        Sigma = critical_points(GraphModel(G), S)[0].sigma
        S1, S2, M = project_cell(G, Sigma, S)
        M[0, 0] += 1.16e-3
        with pytest.raises(PreconditionFailed, match="must vanish"):
            compose_cell(G, t * Sigma, t * S1, t * S2, t * M)
        back = compose_cell(G, t * Sigma, *project_cell(G, t * Sigma, t * S))
        np.testing.assert_allclose(back, t * S, rtol=1e-10, atol=1e-10 * t)

    def test_sample_off_the_slice_is_not_split(self, path_graph, path_sigma):
        S = path_sigma.copy()
        S[0, 1] = S[1, 0] = S[0, 1] + 0.3     # an edge entry is pinned
        with pytest.raises(PreconditionFailed, match="not in the cell"):
            project_cell(path_graph, path_sigma, S)

    def test_non_decomposable_graph_rejected(self, path_sigma):
        four_cycle = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        with pytest.raises(PreconditionFailed):
            project_cell(four_cycle, path_sigma, path_sigma)
        with pytest.raises(PreconditionFailed, match="clique-separator"):
            compose_cell(four_cycle, path_sigma, np.eye(3), np.eye(3),
                         np.zeros((4, 4)))


class TestSampling:
    def test_count_zero(self, path_graph, path_sigma):
        assert sample_spectrahedron(GraphModel(path_graph),
                                    path_sigma, 0) == []

    def test_samples_are_on_spectrahedron(self, path_graph, path_sigma):
        model = GraphModel(path_graph)
        for S in sample_spectrahedron(model, path_sigma, 40, seed=3):
            assert is_positive_definite(S)
            assert in_spectrahedron(model, path_sigma, S, tol=1e-9)

    def test_bivariate_samples_satisfy_slice_relation(self):
        c = 0.5
        Sigma = np.array([[1.0, c], [c, 1.0]])
        for S in sample_spectrahedron(BivariateCorrelation(), Sigma, 100,
                                      seed=4):
            assert is_positive_definite(S)
            a = (S[0, 0] + S[1, 1]) / 2.0
            b = S[0, 1]
            expect = (b * c * c - c ** 3 + b + c) / (2.0 * c)
            assert abs(a - expect) < 1e-9 * (1.0 + abs(expect))

    def test_deterministic_per_seed(self, path_graph, path_sigma):
        model = GraphModel(path_graph)
        first = sample_spectrahedron(model, path_sigma, 5, seed=9)
        second = sample_spectrahedron(model, path_sigma, 5, seed=9)
        for A, B in zip(first, second):
            np.testing.assert_allclose(A, B, rtol=0, atol=0)
        third = sample_spectrahedron(model, path_sigma, 5, seed=10)
        assert any(float(np.abs(A - B).max()) > 1e-12
                   for A, B in zip(first, third))

    def test_negative_count_rejected(self, path_graph, path_sigma):
        with pytest.raises(OutOfRange):
            sample_spectrahedron(GraphModel(path_graph), path_sigma, -1)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf,
                                        -math.inf])
    def test_nonpositive_radius_rejected(self, path_graph, path_sigma,
                                         radius):
        """A radius must be positive and finite; NaN is neither."""
        with pytest.raises(OutOfRange, match="radius"):
            sample_spectrahedron(GraphModel(path_graph), path_sigma, 1,
                                 radius=radius)

    @pytest.mark.parametrize("radius", [1e308, 1.7976931348623157e308])
    def test_overflowing_proposals_are_rejected(self, path_graph,
                                                path_sigma, radius):
        """Proposals at a radius near the largest double overflow; they
        are rejected as not PD, with no numpy warning (an error here)."""
        with pytest.raises(SamplingExhausted):
            sample_spectrahedron(GraphModel(path_graph), path_sigma, 2,
                                 radius=radius)


def sequential_sample(model, Sigma, count, seed=0, radius=None):
    """Reference sampler: one proposal at a time, each tested with the
    single-matrix PD test.  sample_spectrahedron must match it bit for
    bit."""
    slice_ = lognormal_basis(model, Sigma)
    base = slice_.base
    if radius is None:
        radius = 0.5 * float(np.linalg.eigvalsh(base)[0])
    rng = np.random.default_rng(seed)
    dirs = slice_.directions
    out = []
    for _ in range(count):
        r = float(radius)
        for _ in range(200):
            S = base.copy()
            if dirs:
                coeff = rng.standard_normal(len(dirs)) * r
                for c, D in zip(coeff, dirs):
                    S = S + c * D
            if _is_pd(S):
                out.append(S)
                break
            r *= 0.5
        else:
            raise SamplingExhausted("the sequential sampler exhausted")
    return out


@pytest.fixture
def sampler_families(path_graph, path_sigma, collider_dag, collider_sigma,
                     elliptope_sigma):
    """One model point of every family in the suite."""
    J = np.ones((4, 4)) - np.eye(4)
    return {
        "path": (GraphModel(path_graph), path_sigma),
        "dag": (DagModel(collider_dag), collider_sigma),
        "concentration": (LinearConcentration((np.eye(4), J)),
                          np.linalg.inv(2.0 * np.eye(4) + 0.3 * J)),
        "bivariate": (BivariateCorrelation(),
                      np.array([[1.0, 0.5], [0.5, 1.0]])),
        "equicorrelation": (Equicorrelation(4),
                            equicorrelation_matrix(4, 0.3)),
        "correlation": (UnrestrictedCorrelation(3), elliptope_sigma),
        "ci-union": (CiUnion(), np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.0],
                                          [0.0, 0.0, 1.8]])),
    }


@pytest.fixture
def generators(monkeypatch):
    """Every generator made by np.random.default_rng, in order."""
    made = []
    original = np.random.default_rng

    def recording(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


FAMILY_NAMES = ["path", "dag", "concentration", "bivariate",
                "equicorrelation", "correlation", "ci-union"]


class TestBatchedSampler:
    """The batched sampler returns the sequential sampler's arrays, bit
    for bit, and leaves the random stream where it leaves it."""

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_equals_sequential_sampler(self, name, sampler_families,
                                       generators):
        model, Sigma = sampler_families[name]
        for seed, count, radius in itertools.product(
                (0, 5, 77), (0, 1, 16), (None, 2.0, 10.0)):
            expect = sequential_sample(model, Sigma, count, seed, radius)
            got = sample_spectrahedron(model, Sigma, count, seed, radius)
            assert len(got) == len(expect) == count
            for A, B in zip(got, expect):
                np.testing.assert_array_equal(A, B)
            before, after = generators[-2:]
            assert after.bit_generator.state == before.bit_generator.state

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_exhaustion_after_the_same_draws(self, name, sampler_families,
                                             generators):
        """At radius 1e62 every proposal of five of the families fails
        (200 halvings leave the radius far above the slice's width), and
        both samplers raise with the same normals drawn; the other two
        families draw the same samples."""
        model, Sigma = sampler_families[name]
        outcomes = []
        for sampler in (sequential_sample, sample_spectrahedron):
            try:
                outcomes.append(sampler(model, Sigma, 16, 3, 1e62))
            except SamplingExhausted:
                outcomes.append(None)
        assert generators[0].bit_generator.state \
            == generators[1].bit_generator.state
        expect, got = outcomes
        if name in ("bivariate", "correlation"):
            assert len(got) == len(expect) == 16
            for A, B in zip(got, expect):
                np.testing.assert_array_equal(A, B)
        else:
            assert expect is None and got is None

    def test_rejections_are_retried_at_half_radius(self, path_graph,
                                                   path_sigma,
                                                   pd_mask_batches):
        """At radius 10 the path model rejects proposals, and each batch
        after a rejection starts with the rejected sample's retry."""
        model = GraphModel(path_graph)
        got = sample_spectrahedron(model, path_sigma, 16, 5, 10.0)
        assert len(pd_mask_batches) > 1 and pd_mask_batches[0] == 16
        expect = sequential_sample(model, path_sigma, 16, 5, 10.0)
        for A, B in zip(got, expect):
            np.testing.assert_array_equal(A, B)

    def test_a_retry_alone_is_tested_again(self, path_graph, path_sigma,
                                           pd_mask_batches, monkeypatch):
        """After a rejection only the retry is built and tested again; the
        verdicts of the later proposals of its batch stand.  So pd_mask
        sees at most one row per proposal plus one per rejection, counted
        by the sequential sampler's PD tests."""
        tests = []

        def counted(A, _original=_is_pd):
            tests.append(_original(A))
            return tests[-1]

        model = GraphModel(path_graph)
        got = sample_spectrahedron(model, path_sigma, 16, 5, 10.0)
        monkeypatch.setitem(globals(), "_is_pd", counted)
        expect = sequential_sample(model, path_sigma, 16, 5, 10.0)
        rejections = tests.count(False)
        assert rejections > 1 and len(tests) == 16 + rejections
        assert sum(pd_mask_batches) <= len(tests) + rejections
        for A, B in zip(got, expect):
            np.testing.assert_array_equal(A, B)


class TestKeptPoint:
    """Each model object keeps the record of the last Sigma it was asked
    about.  Every test runs on a cold model and on a warm one, which has
    answered queries before."""

    @pytest.fixture(params=["cold", "warm"])
    def warm(self, request):
        return request.param == "warm"

    def test_non_pd_sample_at_a_singular_union_point(self, warm):
        """The union has no tangent space at a diagonal point, but a
        sample that is not PD is refused before it is needed."""
        model, Sigma = CiUnion(), np.diag([1.0, 2.0, 3.0])
        S = np.diag([1.0, -2.0, 3.0])
        if warm:
            with pytest.raises(SingularPoint):
                cell_membership(model, Sigma, Sigma)
        assert cell_membership(model, Sigma, S).status == NOT_PD
        assert in_spectrahedron(model, Sigma, S) is False
        with pytest.raises(SingularPoint):
            in_spectrahedron(model, Sigma, Sigma)
        assert cell_membership(model, Sigma, S).status == NOT_PD

    def test_off_model_sigma_is_refused_every_time(self, warm):
        model = TestSigmaOffTheModel.MODEL
        off = TestSigmaOffTheModel.SIGMA
        on = np.diag([1.0, 2.0, 3.0])
        if warm:
            assert in_spectrahedron(model, on, on)
        for _ in range(2):
            for call in (lambda: cell_membership(model, off, off),
                         lambda: in_spectrahedron(model, off, off),
                         lambda: lognormal_basis(model, off),
                         lambda: sample_spectrahedron(model, off, 2)):
                with pytest.raises(PreconditionFailed):
                    call()
        assert cell_membership(model, on, on).status == IN_CELL

    def test_sigma_changed_in_place(self, warm, path_graph, path_sigma):
        """The caller's Sigma array is read again on every call."""
        model = GraphModel(path_graph)
        Sigma = path_sigma.copy()
        S = path_sigma.copy()
        S[0, 2] = S[2, 0] = 0.5
        if warm:
            assert cell_membership(model, Sigma, S).status == IN_CELL
            assert len(sample_spectrahedron(model, Sigma, 2)) == 2
        Sigma *= 2.0
        assert cell_membership(model, Sigma, S).status == NOT_IN_SPECTRAHEDRON
        assert not in_spectrahedron(model, Sigma, S)
        np.testing.assert_array_equal(lognormal_basis(model, Sigma).base,
                                      Sigma)
        for A, B in zip(sample_spectrahedron(model, Sigma, 4, seed=2),
                        sample_spectrahedron(GraphModel(path_graph),
                                             Sigma.copy(), 4, seed=2)):
            np.testing.assert_array_equal(A, B)
        Sigma[0, 2] = Sigma[2, 0] = 0.0     # now off the model
        with pytest.raises(PreconditionFailed):
            in_spectrahedron(model, Sigma, S)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_alternating_points(self, name, warm, sampler_families):
        """Asking one model object about two points in turn gives the
        verdicts of new model objects."""
        model, first = sampler_families[name]

        def new():
            return model_from_json(model.to_json())

        shift = np.diag(np.random.default_rng(11).uniform(0.0, 0.1, model.dim))
        second = critical_points(new(), first + shift)[0].sigma
        samples = [S for Sigma in (first, second)
                   for S in sample_spectrahedron(new(), Sigma, 3, seed=4)]
        samples.append(-first)
        if warm:
            cell_membership(model, second, second)
        for Sigma in (first, second, first, second):
            for S in samples:
                got = cell_membership(model, Sigma, S)
                want = cell_membership(new(), Sigma, S)
                assert (got.status, got.margin) == (want.status, want.margin)
                assert in_spectrahedron(model, Sigma, S) \
                    == in_spectrahedron(new(), Sigma, S)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_returned_arrays_are_not_kept(self, name, warm,
                                          sampler_families):
        """Writing to every array that a query returns changes no later
        answer: none of them is an array of the kept record."""
        model, Sigma = sampler_families[name]

        def answers(model):
            slice_ = lognormal_basis(model, Sigma)
            samples = sample_spectrahedron(model, Sigma, 4, seed=6)
            verdicts = [cell_membership(model, Sigma, S)
                        for S in samples + [Sigma]]
            arrays = [slice_.base, *slice_.directions, *samples,
                      *tangent_basis(model, Sigma)]
            arrays += [v.witness.sigma for v in verdicts if v.witness]
            return arrays, [(v.status, v.margin) for v in verdicts]

        if warm:
            in_spectrahedron(model, Sigma, Sigma)
        arrays, _ = answers(model)
        for A in arrays:
            A[...] = 7.0
        expect = answers(model_from_json(model.to_json()))
        got = answers(model)
        assert got[1] == expect[1]
        assert len(got[0]) == len(expect[0])
        for A, B in zip(got[0], expect[0]):
            np.testing.assert_array_equal(A, B)


class TestScaledModelPoints:
    """Model points far from unit scale are tested, sliced and sampled
    exactly, at a power-of-two scale."""

    @pytest.mark.parametrize("t", [1e-310, 1e160])
    def test_path_model_at_scale(self, path_graph, t):
        model = GraphModel(path_graph)
        Sigma = t * np.eye(4)
        assert model_contains(model, Sigma)
        assert cell_membership(model, Sigma, Sigma).status == IN_CELL
        assert in_spectrahedron(model, Sigma, Sigma)
        assert lognormal_basis(model, Sigma).dimension == 3
        samples = sample_spectrahedron(model, Sigma, 4, seed=1)
        assert len(samples) == 4
        assert all(is_positive_definite(S) for S in samples)

    @pytest.mark.parametrize("t", [1e-310, 1e160])
    def test_concentration_model_contains(self, t):
        J = np.ones((3, 3)) - np.eye(3)
        model = LinearConcentration((np.eye(3), J))
        assert model_contains(model, t * np.linalg.inv(2.0 * np.eye(3) + J))
        assert not model_contains(model, t * np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("t", [1e-300, 1e-9, 1e6, 1e8, 2.0 ** 300])
    @pytest.mark.parametrize("family", ["path", "dag", "concentration"])
    def test_verdicts_do_not_depend_on_units(self, family, t, path_graph,
                                             path_sigma, collider_dag,
                                             collider_sigma):
        """At the point t Sigma, the sample t (Sigma + D) with D along the
        slice is in the cell, and the sample that moves the pinned entry
        S_12 by 0.3 t is off the slice, as at t = 1; so is 1e300 Sigma,
        although scaling it with t Sigma overflows at small t."""
        def sym(i, j, m):
            E = np.zeros((m, m))
            E[i, j] = E[j, i] = 1.0
            return E

        J = np.ones((3, 3)) - np.eye(3)
        model, Sigma, D = {
            "path": (GraphModel(path_graph), path_sigma, 0.3 * sym(0, 2, 4)),
            "dag": (DagModel(collider_dag), collider_sigma,
                    0.3 * sym(0, 3, 4)),
            "concentration": (LinearConcentration((np.eye(3), J)),
                              np.linalg.inv(2.0 * np.eye(3) + J),
                              0.1 * (sym(0, 1, 3) - sym(0, 2, 3))),
        }[family]
        off = Sigma + 0.3 * sym(0, 1, len(Sigma))
        assert cell_membership(model, t * Sigma, t * (Sigma + D)).status \
            == IN_CELL
        assert in_spectrahedron(model, t * Sigma, t * (Sigma + D))
        assert cell_membership(model, t * Sigma, t * off).status \
            == NOT_IN_SPECTRAHEDRON
        assert not in_spectrahedron(model, t * Sigma, t * off)
        assert cell_membership(model, t * Sigma, 1e300 * Sigma).status \
            == NOT_IN_SPECTRAHEDRON

    @pytest.mark.parametrize("t", [1e-300, 1e-9, 1e-6, 1.0, 1e300])
    def test_ci_union_cell_pins_at_the_scale_of_sigma(self, t):
        """A sample whose S_11 is 1.5 Sigma_11, or whose S_23 is off
        Sigma_23, is off the slice at every scale, and a sample on it
        keeps its verdict."""
        Sigma = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.7], [0.0, 0.7, 3.0]])
        for (i, j), x in (((0, 0), 1.5), ((1, 2), 0.6)):
            off = Sigma.copy()
            off[i, j] = off[j, i] = x
            with pytest.raises(NotOnSlice,
                               match=rf"S\[{i + 1},{j + 1}\] is not pinned"):
                ci_union_cell(t * Sigma, t * off)
        on = Sigma.copy()
        on[0, 1] = on[1, 0] = 0.3
        assert ci_union_cell(t * Sigma, t * on) == ci_union_cell(Sigma, on)

    def test_overflowing_score_is_off_the_slice(self):
        """At a nearly singular union point the score of S = 1e300 I
        overflows to NaN in some entries; its (1,1) component S_11 -
        Sigma_11 is not zero, so S is off the slice.  The residual keeps
        the NaN instead of folding it away, with no numpy warning."""
        a = 1.0 - 1e-11
        Sigma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, a], [0.0, a, 1.0]])
        S = 1e300 * np.eye(3)
        assert not criticality_residual(CiUnion(), Sigma, S) < 1.0
        assert not in_spectrahedron(CiUnion(), Sigma, S)
        assert cell_membership(CiUnion(), Sigma, S).status \
            == NOT_IN_SPECTRAHEDRON


class TestCellConvexity:
    """Every logarithmic Voronoi cell is convex: a random point on the
    segment between two samples in the cell of Sigma is in it too.  The
    samples are drawn on the log-normal slice, some of them past the
    cell, so that segments run near its boundary."""

    @pytest.mark.parametrize("name", ["correlation", "equicorrelation",
                                      "ci-union"])
    def test_segment_between_cell_points_is_in_the_cell(self, name,
                                                        elliptope_sigma):
        rng = np.random.default_rng(20221020)
        P = elliptope_sigma
        model, Sigma, draw = {
            # the slice of a correlation point: S = P + P D P, D diagonal
            "correlation": (UnrestrictedCorrelation(3), P, lambda: (
                P + P @ np.diag(rng.uniform(-1.5, 3.0, 3)) @ P)),
            "equicorrelation": (
                Equicorrelation(4), equicorrelation_matrix(4, 0.3),
                lambda: equicorrelation_slice_sample(4, 0.3, rng)),
            "ci-union": (CiUnion(), TestCiUnionCell().sigma_t(),
                         lambda: ci_union_t_sample(TestCiUnionCell.T, rng)),
        }[name]
        draws = [draw() for _ in range(24)]
        statuses = [cell_membership(model, Sigma, S).status for S in draws]
        assert IN_SPECTRAHEDRON_NOT_CELL in statuses
        kept = [S for S, status in zip(draws, statuses) if status == IN_CELL]
        for _ in range(40):
            i, j = rng.choice(len(kept), 2, replace=False)
            u = rng.uniform()
            S = (1.0 - u) * kept[i] + u * kept[j]
            assert cell_membership(model, Sigma, S).status == IN_CELL


class TestVerdictJson:
    def test_in_cell_shape(self, path_graph, path_sigma):
        verdict = cell_membership(GraphModel(path_graph), path_sigma,
                                  path_sigma)
        doc = verdict_to_json(verdict)
        assert doc == {"status": "InCell", "margin": None, "witness": None}

    def test_witness_shape(self, elliptope_sigma, elliptope_s1):
        verdict = cell_membership(UnrestrictedCorrelation(3),
                                  elliptope_sigma, elliptope_s1)
        doc = verdict_to_json(verdict)
        assert doc["status"] == "InSpectrahedronNotCell"
        assert doc["best_effort"] is True
        assert doc["margin"] < 0
        assert doc["witness"]["point"]["dim"] == 3
        assert doc["witness"]["loglik"] == verdict.witness.loglik
