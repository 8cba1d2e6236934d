"""Model families: containment equations, tangent spaces, DAG parametrisations."""

import numpy as np
import pytest

from logvor import (
    BivariateCorrelation,
    CiUnion,
    DagModel,
    DagParams,
    Digraph,
    DimensionMismatch,
    Equicorrelation,
    GraphModel,
    Graph,
    InvalidModel,
    LinearConcentration,
    NotPD,
    OutOfRange,
    SemParams,
    ShapeMismatch,
    SingularParents,
    SingularPoint,
    UnrestrictedCorrelation,
    concentration_basis,
    equicorrelation_matrix,
    model_contains,
    model_from_json,
    sem_covariance,
    sem_fit,
    critical_points,
    list_treks,
    lognormal_basis,
    mle_concentration,
    tangent_basis,
    trek_covariance,
)
from logvor.models import FAMILIES

from conftest import random_correlation, random_pd


def random_dag(m, rng, p=0.5):
    arcs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
            if rng.uniform() < p]
    return Digraph(m, frozenset(arcs))


def random_dag_params(dag, rng):
    a = tuple(float(x) for x in rng.uniform(0.5, 2.0, size=dag.m))
    lam = {arc: float(rng.uniform(-0.9, 0.9)) for arc in dag.arcs}
    return DagParams(a=a, lam=lam)


class TestModelConstruction:
    def test_concentration_rejects_dependent_basis(self):
        with pytest.raises(InvalidModel):
            LinearConcentration((np.eye(2), 2.0 * np.eye(2)))

    def test_concentration_rejects_empty_basis(self):
        with pytest.raises(InvalidModel):
            LinearConcentration(())

    def test_concentration_rejects_mixed_sizes(self):
        with pytest.raises(ShapeMismatch, match="one dimension"):
            LinearConcentration((np.eye(2), np.eye(3)))

    def test_concentration_basis_near_the_float_limit(self):
        """The rank check works on the basis scaled by a power of two, so
        an independent basis with entries near the largest float is
        accepted, with no overflow in the SVD."""
        big = np.finfo(float).max
        model = LinearConcentration((big * np.eye(2),
                                     big * np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert model.basis[0][0, 0] == big
        with pytest.raises(InvalidModel, match="dependent"):
            LinearConcentration((big * np.eye(2), -big * np.eye(2)))

    def test_dimensions(self, path_graph, collider_dag):
        assert GraphModel(path_graph).dim == 4
        assert DagModel(collider_dag).dim == 4
        assert BivariateCorrelation().dim == 2
        assert Equicorrelation(5).dim == 5
        assert UnrestrictedCorrelation(3).dim == 3
        assert CiUnion().dim == 3

    def test_small_m_rejected(self):
        with pytest.raises(DimensionMismatch):
            Equicorrelation(1)
        with pytest.raises(DimensionMismatch):
            UnrestrictedCorrelation(1)

    def test_graph_basis_size(self, path_graph):
        basis = concentration_basis(path_graph)
        assert len(basis) == path_graph.m + len(path_graph.edges)
        assert len(GraphModel(path_graph).basis) == len(basis)

    def test_graph_basis_skips_the_rank_check(self, path_graph, monkeypatch):
        """A graph's basis is independent by construction; a basis given
        by the user is still checked."""
        def no_rank(*args, **kwargs):
            raise AssertionError("rank check")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_rank)
        model = GraphModel(path_graph)
        for K, E in zip(model.basis, concentration_basis(path_graph)):
            np.testing.assert_array_equal(K, E)
        with pytest.raises(AssertionError, match="rank check"):
            LinearConcentration((np.eye(2),))

    def test_basis_arrays_are_read_only(self, path_graph):
        """A model's basis is a read-only copy, kept as one stack whose
        slices are ``basis``: the caller's arrays stay writable, and
        writing to a slice or to the stack raises ValueError."""
        given = [np.eye(3), np.ones((3, 3)) - np.eye(3)]
        for model in (LinearConcentration(tuple(given)),
                      GraphModel(path_graph)):
            for K in model.basis:
                assert np.shares_memory(K, model._stack)
                with pytest.raises(ValueError):
                    K[0, 0] = 5.0
            with pytest.raises(ValueError):
                model._stack[0, 0, 0] = 5.0
        given[0][0, 0] = 5.0

    def test_graph_basis_is_built_once_on_first_use(self, path_graph,
                                                    path_sigma, monkeypatch):
        """Constructing a graph model, testing a point against its edges
        or fitting a chordal graph builds no basis; the first method that
        needs one builds it, and every later call reuses it."""
        import logvor.models
        calls = []

        def counted(G):
            calls.append(G)
            return concentration_basis(G)

        monkeypatch.setattr(logvor.models, "concentration_basis", counted)
        model = GraphModel(path_graph)
        assert model_contains(model, path_sigma)
        critical_points(model, path_sigma)
        assert calls == []
        first = tangent_basis(model, path_sigma)
        assert calls == [path_graph]
        second = tangent_basis(model, path_sigma)
        mle_concentration(model, path_sigma)
        assert calls == [path_graph]
        for A, B in zip(first, second):
            np.testing.assert_array_equal(A, B)


class TestModelContains:
    def test_path_sigma_in_graph_model(self, path_graph, path_sigma):
        assert model_contains(GraphModel(path_graph), path_sigma)

    def test_perturbed_sigma_leaves_graph_model(self, path_graph, path_sigma):
        bad = path_sigma.copy()
        bad[0, 2] = bad[2, 0] = bad[0, 2] + 0.05
        assert not model_contains(GraphModel(path_graph), bad)

    def test_graph_model_as_concentration_agrees(self, path_graph, path_sigma):
        model = LinearConcentration(concentration_basis(path_graph))
        assert model_contains(model, path_sigma)

    def test_trek_covariance_in_dag_model(self, collider_dag, collider_sigma):
        assert model_contains(DagModel(collider_dag), collider_sigma)

    def test_generic_matrix_not_in_dag_model(self, collider_dag):
        S = random_pd(4, np.random.default_rng(31))
        assert not model_contains(DagModel(collider_dag), S)

    def test_correlation_kinds(self):
        C = equicorrelation_matrix(3, 0.4)
        assert model_contains(Equicorrelation(3), C)
        assert model_contains(UnrestrictedCorrelation(3), C)
        C2 = random_correlation(3, np.random.default_rng(32))
        assert model_contains(UnrestrictedCorrelation(3), C2)
        assert not model_contains(Equicorrelation(3), C2)
        assert not model_contains(BivariateCorrelation(), np.diag([1.0, 2.0]))

    def test_ci_union(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.7], [0.0, 0.7, 3.0]])
        B = np.array([[1.0, 0.7, 0.0], [0.7, 2.0, 0.0], [0.0, 0.0, 3.0]])
        assert model_contains(CiUnion(), A)
        assert model_contains(CiUnion(), B)
        C = A.copy()
        C[0, 1] = C[1, 0] = 0.5          # both off-diagonals now nonzero
        assert not model_contains(CiUnion(), C)
        D = np.eye(3)
        D[0, 2] = D[2, 0] = 0.5          # sigma_13 must vanish
        assert not model_contains(CiUnion(), D)

    @pytest.mark.parametrize("t", [1e-300, 1e-9, 1.0, 1e300])
    def test_ci_union_equations_are_relative(self, t):
        """The zero tests are relative to the diagonal, so a point in
        neither component stays out, and a point of component one keeps
        its chart, at every scale."""
        P = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
        A = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.7], [0.0, 0.7, 3.0]])
        assert model_contains(CiUnion(), t * P) is False
        assert model_contains(CiUnion(), t * A) is True
        assert np.array_equal(tangent_basis(CiUnion(), t * A),
                              tangent_basis(CiUnion(), A))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            model_contains(BivariateCorrelation(), np.eye(3))


class TestTangentBasis:
    def test_counts(self, path_graph, collider_dag, elliptope_sigma):
        Sg = equicorrelation_matrix(4, 0.2)
        assert len(tangent_basis(GraphModel(path_graph), Sg)) == 7
        assert len(tangent_basis(DagModel(collider_dag), Sg)) == 7
        assert len(tangent_basis(BivariateCorrelation(), np.eye(2))) == 1
        assert len(tangent_basis(Equicorrelation(4), Sg)) == 1
        assert len(tangent_basis(UnrestrictedCorrelation(3),
                                 elliptope_sigma)) == 3

    def test_concentration_basis_is_a_list_of_matrices(self, path_graph,
                                                       path_sigma):
        """The family keeps its tangent directions as one stack; the
        public function still returns a list of m x m arrays."""
        for model in (GraphModel(path_graph),
                      LinearConcentration(concentration_basis(path_graph))):
            basis = tangent_basis(model, path_sigma)
            assert type(basis) is list and len(basis) == 7
            assert all(T.shape == (4, 4) for T in basis)

    def test_correlation_directions(self, elliptope_sigma):
        T = tangent_basis(BivariateCorrelation(), np.eye(2))[0]
        np.testing.assert_allclose(T, np.array([[0.0, 1.0], [1.0, 0.0]]))
        E = tangent_basis(Equicorrelation(3), equicorrelation_matrix(3, 0.1))[0]
        np.testing.assert_allclose(E, np.ones((3, 3)) - np.eye(3))

    def test_concentration_tangents_by_finite_difference(self, path_graph,
                                                         path_sigma):
        """Perturbing the concentration by t K_j moves the covariance by
        -t Sigma K_j Sigma to first order."""
        model = GraphModel(path_graph)
        tangents = tangent_basis(model, path_sigma)
        K = np.linalg.inv(path_sigma)
        h = 1e-6
        for Kj, Tj in zip(model.basis, tangents):
            fd = (np.linalg.inv(K + h * Kj) - np.linalg.inv(K - h * Kj)) / (2 * h)
            np.testing.assert_allclose(Tj, fd, rtol=1e-5, atol=1e-5)

    def test_dag_tangents_by_finite_difference(self, collider_dag,
                                               collider_sigma):
        """The structural-equation chart derivatives must match finite
        differences of the parametrisation."""
        dag = collider_dag
        params = sem_fit(dag, collider_sigma)
        tangents = tangent_basis(DagModel(dag), collider_sigma)
        h = 1e-6
        m = dag.m
        for k in range(m):
            om = params.omega.copy()
            om_p, om_m = om.copy(), om.copy()
            om_p[k] += h
            om_m[k] -= h
            fd = (sem_covariance(dag, SemParams(om_p, params.Lambda))
                  - sem_covariance(dag, SemParams(om_m, params.Lambda))) / (2 * h)
            np.testing.assert_allclose(tangents[k], fd, rtol=1e-6, atol=1e-6)
        for idx, (u, v) in enumerate(dag.sorted_arcs()):
            Lp, Lm = params.Lambda.copy(), params.Lambda.copy()
            Lp[u - 1, v - 1] += h
            Lm[u - 1, v - 1] -= h
            fd = (sem_covariance(dag, SemParams(params.omega, Lp))
                  - sem_covariance(dag, SemParams(params.omega, Lm))) / (2 * h)
            np.testing.assert_allclose(tangents[m + idx], fd,
                                       rtol=1e-6, atol=1e-6)

    def test_dag_tangents_span_has_full_rank(self, collider_dag,
                                             collider_sigma):
        tangents = tangent_basis(DagModel(collider_dag), collider_sigma)
        stack = np.stack([T.ravel() for T in tangents])
        assert np.linalg.matrix_rank(stack) == len(tangents)

    def test_ci_union_charts(self):
        """On each component the tangent units are the diagonal and that
        component's free entry, in row-major order, and its plane of a
        sample zeroes exactly the other off-diagonal entries."""
        S = np.array([[4.0, 1.0, 2.0], [1.0, 5.0, 3.0], [2.0, 3.0, 6.0]])
        for side, free, Sigma in [
                (1, (1, 2), [[1.0, 0.0, 0.0], [0.0, 2.0, 1.0],
                             [0.0, 1.0, 3.0]]),
                (2, (0, 1), [[1.0, 0.5, 0.0], [0.5, 2.0, 0.0],
                             [0.0, 0.0, 3.0]])]:
            entries = sorted([(0, 0), (1, 1), (2, 2), free])
            keep = np.zeros((3, 3), dtype=bool)
            for T, (i, j) in zip(tangent_basis(CiUnion(), Sigma), entries,
                                 strict=True):
                E = np.zeros((3, 3))
                E[i, j] = E[j, i] = 1.0
                assert np.array_equal(T, E)
                keep |= E == 1.0
            plane = CiUnion._planes(S)[side - 1]
            assert np.array_equal(plane, np.where(keep, S, 0.0))

    def test_ci_union_singular_point_raises(self):
        with pytest.raises(SingularPoint):
            tangent_basis(CiUnion(), np.diag([1.0, 2.0, 3.0]))

    def test_ci_union_off_model_raises(self):
        bad = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 3.0]])
        with pytest.raises(InvalidModel):
            tangent_basis(CiUnion(), bad)


class TestTrekRule:
    def test_reference_covariance(self, collider_dag, collider_params,
                                  collider_sigma):
        np.testing.assert_allclose(
            trek_covariance(collider_dag, collider_params), collider_sigma,
            rtol=0, atol=0)

    def test_trek_equals_structural_equations(self):
        """The trek rule and the (I - Lambda)^{-T} Omega (I - Lambda)^{-1}
        form must produce the same covariance.

        Only parameter draws whose trek matrix is positive definite are
        valid model points; the rest are skipped.
        """
        from logvor import is_positive_definite

        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(200):
            m = int(rng.integers(2, 7))
            dag = random_dag(m, rng)
            params = random_dag_params(dag, rng)
            trek = trek_covariance(dag, params)
            if not is_positive_definite(trek):
                continue
            checked += 1
            sem = sem_covariance(dag, sem_fit(dag, trek))
            np.testing.assert_allclose(trek, sem, rtol=1e-10, atol=1e-12)
        assert checked >= 100

    def test_recursion_matches_trek_listing(self):
        """The recursion equals the sum over every listed trek, also for
        parameters whose matrix is not positive definite."""
        from logvor import is_positive_definite

        rng = np.random.default_rng(34)
        not_pd = 0
        for _ in range(150):
            m = int(rng.integers(1, 8))
            dag = random_dag(m, rng, p=float(rng.uniform(0.2, 0.9)))
            params = DagParams(
                a=tuple(float(x) for x in rng.uniform(0.5, 2.0, size=m)),
                lam={arc: float(rng.uniform(-2.0, 2.0)) for arc in dag.arcs})
            expected = np.zeros((m, m))
            for i in range(1, m + 1):
                for j in range(i, m + 1):
                    for trek in list_treks(dag, i, j):
                        w = params.a[trek.top - 1]
                        for arc in trek.up + trek.down:
                            w *= params.lam[arc]
                        expected[i - 1, j - 1] += w
                        if i != j:
                            expected[j - 1, i - 1] += w
            got = trek_covariance(dag, params)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
            not_pd += not is_positive_definite(got)
        assert not_pd >= 20

    def test_weights_must_cover_arcs(self, collider_dag):
        with pytest.raises(ShapeMismatch):
            trek_covariance(collider_dag,
                            DagParams(a=(1.0, 1.0, 1.0, 1.0), lam={}))

    def test_diagonal_must_be_positive(self, collider_dag, collider_params):
        bad = DagParams(a=(1.0, -2.0, 3.0, 4.0), lam=dict(collider_params.lam))
        with pytest.raises(OutOfRange):
            trek_covariance(collider_dag, bad)
        short = DagParams(a=(1.0, 2.0, 3.0), lam=dict(collider_params.lam))
        with pytest.raises(ShapeMismatch, match="expected 4 diagonal"):
            trek_covariance(collider_dag, short)


class TestSemFit:
    def test_inverts_parametrisation(self, collider_dag, collider_params,
                                     collider_sigma):
        fitted = sem_fit(collider_dag, collider_sigma)
        expect = sem_fit(collider_dag,
                         trek_covariance(collider_dag, collider_params))
        np.testing.assert_allclose(fitted.omega, expect.omega, rtol=1e-12)
        np.testing.assert_allclose(fitted.Lambda, expect.Lambda, rtol=1e-12,
                                   atol=1e-14)

    def test_fit_of_model_point_round_trips(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            dag = random_dag(m, rng)
            Sigma = sem_covariance(dag, sem_fit(dag, random_pd(m, rng)))
            back = sem_covariance(dag, sem_fit(dag, Sigma))
            np.testing.assert_allclose(back, Sigma, rtol=1e-10, atol=1e-12)

    def test_sem_params_validation(self):
        with pytest.raises(OutOfRange):
            SemParams(omega=np.array([1.0, -1.0]), Lambda=np.zeros((2, 2)))
        with pytest.raises(ShapeMismatch):
            SemParams(omega=np.array([1.0, 1.0]),
                      Lambda=np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ShapeMismatch, match="does not match"):
            SemParams(omega=np.array([1.0, 1.0]), Lambda=np.zeros((3, 3)))

    def test_sem_covariance_validation(self):
        dag = Digraph(3, ((1, 3),))
        with pytest.raises(ShapeMismatch, match="expected 3 error"):
            sem_covariance(dag, SemParams(omega=np.ones(2),
                                          Lambda=np.zeros((2, 2))))
        off_arcs = np.zeros((3, 3))
        off_arcs[0, 1] = 0.5                  # 1 -> 2 is not an arc
        with pytest.raises(ShapeMismatch, match="off the arcs"):
            sem_covariance(dag, SemParams(omega=np.ones(3), Lambda=off_arcs))

    def test_singular_parents(self):
        collider = Digraph(3, ((1, 3), (2, 3)))
        S = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 2.0]])
        with pytest.raises(SingularParents, match="singular"):
            sem_fit(collider, S)
        edge = Digraph(2, ((1, 2),))
        with pytest.raises(SingularParents, match="residual variance"):
            sem_fit(edge, np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestEquicorrelationMatrix:
    def test_values(self):
        M = equicorrelation_matrix(3, 0.25)
        np.testing.assert_allclose(np.diag(M), np.ones(3))
        assert M[0, 1] == M[0, 2] == M[1, 2] == 0.25

    def test_pd_interval_is_open(self):
        equicorrelation_matrix(3, -0.499)     # inside
        with pytest.raises(OutOfRange):
            equicorrelation_matrix(3, -0.5)
        with pytest.raises(OutOfRange):
            equicorrelation_matrix(3, 1.0)


def one_model_per_kind(path_graph, collider_dag) -> dict:
    return {model.kind: model for model in [
        GraphModel(path_graph),
        DagModel(collider_dag),
        BivariateCorrelation(),
        Equicorrelation(4),
        UnrestrictedCorrelation(3),
        CiUnion(),
        LinearConcentration(concentration_basis(path_graph)),
    ]}


def one_point_per_kind(path_sigma, collider_sigma, elliptope_sigma) -> dict:
    """A point of each model of :func:`one_model_per_kind`."""
    return {
        "concentration": path_sigma, "graph": path_sigma,
        "dag": collider_sigma,
        "bivariate-correlation": equicorrelation_matrix(2, 0.5),
        "equicorrelation": equicorrelation_matrix(4, 0.2),
        "correlation": elliptope_sigma,
        "ci-union": np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.7],
                              [0.0, 0.7, 3.0]])}


class TestFamilyProtocol:
    def test_every_kind_rejects_non_pd(self, path_graph, collider_dag):
        """The PD test runs at the boundary, whatever the family."""
        for kind, model in one_model_per_kind(path_graph,
                                              collider_dag).items():
            m = model.dim
            bad = np.eye(m)
            bad[m - 2, m - 1] = bad[m - 1, m - 2] = 2.0
            with pytest.raises(NotPD):
                model_contains(model, bad)
            with pytest.raises(NotPD):
                tangent_basis(model, bad)

    def test_bivariate_is_equicorrelation_of_two(self):
        model = BivariateCorrelation()
        assert isinstance(model, Equicorrelation) and model.m == 2
        assert model == BivariateCorrelation() != Equicorrelation(2)
        S = np.array([[0.4, -0.05], [-0.05, 0.225]])
        for got, want in zip(critical_points(model, S),
                             critical_points(Equicorrelation(2), S),
                             strict=True):
            assert np.array_equal(got.sigma, want.sigma)
            assert got.loglik == want.loglik

    def test_tangent_contract(self, path_graph, collider_dag, path_sigma,
                              collider_sigma, elliptope_sigma):
        """Every family hands over its tangent directions as one float
        ``(d, m, m)`` array.  The public functions hand back arrays that
        the caller owns: writing into them changes no later result."""
        points = one_point_per_kind(path_sigma, collider_sigma,
                                    elliptope_sigma)
        models = one_model_per_kind(path_graph, collider_dag)
        assert points.keys() == models.keys() == FAMILIES.keys()
        for kind, model in models.items():
            Sigma, m = points[kind], model.dim
            T = model.tangent_basis(Sigma)
            assert type(T) is np.ndarray and T.dtype == np.float64
            assert T.ndim == 3 and T.shape[1:] == (m, m)
            for get in (lambda: tangent_basis(model, Sigma),
                        lambda: [lognormal_basis(model, Sigma).base,
                                 *lognormal_basis(model, Sigma).directions]):
                first = get()
                want = [A.copy() for A in first]
                for A in first:
                    assert A.flags.writeable
                    A += 1.0
                assert all(np.array_equal(A, B)
                           for A, B in zip(get(), want, strict=True))
            assert np.array_equal(model.tangent_basis(Sigma), T)

    def test_contains_answers_a_python_bool(self, path_graph, collider_dag,
                                            path_sigma, collider_sigma,
                                            elliptope_sigma):
        """On the model and off it, every family answers True or False,
        not a numpy bool."""
        points = one_point_per_kind(path_sigma, collider_sigma,
                                    elliptope_sigma)
        rng = np.random.default_rng(11)
        for kind, model in one_model_per_kind(path_graph,
                                              collider_dag).items():
            on, off = points[kind], random_pd(model.dim, rng)
            assert model_contains(model, on) is True, kind
            assert model_contains(model, off) is False, kind

    def test_flags(self, path_graph, collider_dag):
        models = one_model_per_kind(path_graph, collider_dag)
        assert {k for k, f in models.items() if f.degree_one} == \
            {"concentration", "graph", "dag"}
        assert {k for k, f in models.items() if f.best_effort} == \
            {"correlation"}


class TestModelSerialization:
    def test_round_trips(self, path_graph, collider_dag):
        models = one_model_per_kind(path_graph, collider_dag)
        assert models.keys() == FAMILIES.keys()
        for kind, family in FAMILIES.items():
            model = models[kind]
            assert type(model) is family
            back = model_from_json(model.to_json())
            assert back.kind == model.kind
            assert back.dim == model.dim
            if isinstance(model, LinearConcentration):
                for B1, B2 in zip(model.basis, back.basis):
                    np.testing.assert_allclose(B1, B2)
            else:
                assert back == model

    def test_bivariate_kind_alias(self):
        assert BivariateCorrelation().to_json() == \
            {"kind": "bivariate-correlation"}
        assert model_from_json({"kind": "bivariate-correlation"}) == \
            BivariateCorrelation()

    def test_unknown_kind(self):
        with pytest.raises(InvalidModel):
            model_from_json({"kind": "mystery"})
        for obj in ([{"kind": "graph"}], "graph", None):
            with pytest.raises(InvalidModel, match='"kind"'):
                model_from_json(obj)

    @pytest.mark.parametrize("obj, field", [
        ({"kind": "equicorrelation"}, '"m"'),
        ({"kind": "correlation", "m": "3"}, '"m"'),
        ({"kind": "correlation", "m": True}, '"m"'),
        ({"kind": "concentration"}, '"basis"'),
        ({"kind": "concentration", "basis": 5}, '"basis"'),
        ({"kind": "graph", "edges": []}, '"m"'),
        ({"kind": "graph", "m": 3, "edges": 5}, '"edges"'),
        ({"kind": "graph", "m": 3, "edges": [[1]]}, '"edges"'),
        ({"kind": "dag", "m": 3, "arcs": [[1, "2"]]}, '"arcs"'),
    ])
    def test_missing_or_ill_typed_field(self, obj, field):
        with pytest.raises(InvalidModel, match=field):
            model_from_json(obj)
