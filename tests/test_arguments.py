"""Property tests of the integer and real arguments: every value either
gives a result or raises a typed :class:`LogvorError`.

Each integer argument (counts, sizes, indices, vertices and seeds) goes
through one check, and so does each real and each positive real one;
they are called
here with ints, bools, floats (NaN and +-inf among them), strings and
None.  Small ints keep the work of a call small; the huge int is past
Python's limit for printing one.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logvor import CiUnion, DagParams, Digraph, DimensionMismatch, \
    Equicorrelation, Graph, GraphModel, IndexOutOfRange, InputError, \
    InvalidModel, LogvorError, OutOfRange, SemParams, ShapeMismatch, \
    SolverOptions, UnrestrictedCorrelation, bivariate_cell, \
    bivariate_discriminant, cell_membership, check_symmetric, \
    ci_union_cell, cubic_roots_in_interval, embed, equicorrelation_cell, \
    equicorrelation_cubic, equicorrelation_matrix, in_spectrahedron, \
    induced_subgraph, log_likelihood, lognormal_basis, model_contains, \
    principal_submatrix, sample_spectrahedron, sem_covariance, symmetrize, \
    trek_covariance

FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

HUGE = 10 ** 5000
MAX = np.finfo(float).max
values = (st.integers(-3, 8) | st.booleans() | st.floats()
          | st.sampled_from([math.nan, math.inf, -math.inf, 3.0, -0.0])
          | st.text(max_size=3) | st.none())
# indices and seeds also draw an int of any size; nothing is allocated by it
big_values = values | st.integers() | st.just(HUGE)
pairs = st.lists(st.lists(big_values, min_size=0, max_size=3)
                 | big_values, max_size=4)

PATH3 = GraphModel(Graph(3, ((1, 2), (2, 3))))
# a point of the path model: its inverse vanishes off the path
SIGMA3 = np.linalg.inv([[2.0, -0.5, 0.0], [-0.5, 2.0, -0.5], [0.0, -0.5, 2.0]])


def result_or_typed_error(f, *args, **kwargs):
    try:
        f(*args, **kwargs)
    except LogvorError:
        pass


@FUZZ
@given(big_values, pairs, st.booleans())
def test_graphs(m, edges, directed):
    result_or_typed_error(Digraph if directed else Graph, m, edges)


@FUZZ
@given(big_values, st.booleans())
def test_correlation_models(m, equi):
    result_or_typed_error(Equicorrelation if equi else UnrestrictedCorrelation,
                          m)


@FUZZ
@given(big_values, big_values)
def test_solver_options(starts, seed):
    result_or_typed_error(SolverOptions, starts, seed)


@FUZZ
@given(st.lists(big_values, max_size=4), st.lists(big_values, max_size=4),
       values)
def test_indices(rows, cols, m):
    result_or_typed_error(principal_submatrix, np.eye(4), rows)
    result_or_typed_error(embed, np.ones((len(rows), len(cols))), rows, cols,
                          m)
    result_or_typed_error(induced_subgraph, PATH3.graph, rows)


@FUZZ
@given(big_values, big_values)
def test_reals(x, c):
    result_or_typed_error(equicorrelation_matrix, 3, x)
    result_or_typed_error(bivariate_cell, c, np.eye(2))
    result_or_typed_error(equicorrelation_cell, 3, c, np.eye(3))
    result_or_typed_error(cubic_roots_in_interval, 1.0, x, c, 0.5, -1.0, 1.0)
    result_or_typed_error(cubic_roots_in_interval, x, 1.0, 1.0, 1.0, c, 1.0)
    result_or_typed_error(bivariate_discriminant, x, c)
    result_or_typed_error(equicorrelation_cubic, 3, x, c)
    result_or_typed_error(trek_covariance, Digraph(2, [(1, 2)]),
                          DagParams(a=(1.0, 1.0), lam={(1, 2): x}))


@FUZZ
@given(st.lists(st.lists(big_values | st.complex_numbers(), max_size=3),
                max_size=3) | big_values,
       st.sampled_from([(1.0, 1.0), 1.0, None, "ab", [1.0, "x"]]),
       st.sampled_from([{(1, 2): 0.5}, None, {1: 0.5}, [((1, 2), 0.5)]]))
def test_matrices_and_dag_params(M, a, lam):
    """Matrix entries of any type, and trek-rule parameters that are no
    collection or no mapping."""
    result_or_typed_error(check_symmetric, M)
    result_or_typed_error(log_likelihood, M, M)
    result_or_typed_error(embed, M, [1], [1], 2)
    result_or_typed_error(trek_covariance, Digraph(2, [(1, 2)]),
                          DagParams(a=a, lam=lam))


@FUZZ
@given(values, big_values, values)
def test_sampler_count_seed_and_radius(count, seed, radius):
    result_or_typed_error(sample_spectrahedron, PATH3, SIGMA3, count,
                          seed=seed, radius=radius)


@pytest.mark.parametrize("call", [
    lambda: Graph(float("nan")), lambda: Graph(math.inf), lambda: Graph(True),
    lambda: Graph(3.0), lambda: Graph("3"), lambda: Digraph(3, [(1, 2.0)]),
    lambda: UnrestrictedCorrelation(math.inf), lambda: Equicorrelation(True),
    lambda: principal_submatrix(np.eye(2), [1.0]),
    lambda: sample_spectrahedron(PATH3, SIGMA3, 2.5),
    lambda: sample_spectrahedron(PATH3, SIGMA3, True),
    lambda: sample_spectrahedron(PATH3, SIGMA3, 1, seed=1.0),
], ids=["nan", "inf", "bool", "integral-float", "string", "vertex-float",
        "correlation-inf", "equicorrelation-bool", "index-float",
        "count-float", "count-bool", "seed-float"])
def test_non_integers_raise_invalid_model(call):
    with pytest.raises(InvalidModel, match="must be an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: Digraph(3, [(1,)]), lambda: Graph(3, 5), lambda: Graph(3, [1]),
    lambda: Graph(3, [(1, 2, 3)]),
], ids=["one-vertex", "not-iterable", "not-a-pair", "three-vertices"])
def test_a_pair_that_is_not_two_vertices_raises_invalid_model(call):
    with pytest.raises(InvalidModel, match="pairs of vertices"):
        call()


def test_ranges_keep_their_class_and_message():
    with pytest.raises(OutOfRange, match="seed must be a non-negative"):
        sample_spectrahedron(PATH3, SIGMA3, 1, seed=-1)
    with pytest.raises(OutOfRange, match="count must be a non-negative"):
        sample_spectrahedron(PATH3, SIGMA3, -1)
    with pytest.raises(OutOfRange, match="starts must be at least 1"):
        SolverOptions(starts=0)
    with pytest.raises(DimensionMismatch, match="m >= 2"):
        Equicorrelation(1)
    with pytest.raises(IndexOutOfRange, match=r"vertex 4 outside 1\.\.3"):
        Graph(3, [(1, 4)])
    with pytest.raises(IndexOutOfRange, match="vertex count must be at least"):
        Digraph(0)
    assert Graph(np.int64(3), [(np.int64(1), 2)]).m == 3


@pytest.mark.parametrize("call, error", [
    (lambda: trek_covariance(Digraph(2, [(1, 2)]),
                             DagParams(a=(math.nan, 1.0), lam={(1, 2): 0.5})),
     OutOfRange),
    (lambda: trek_covariance(Digraph(2, [(1, 2)]),
                             DagParams(a=(1.0, 1.0), lam={(1, 2): math.inf})),
     ShapeMismatch),
    (lambda: SemParams(omega=[math.nan, 1.0], Lambda=np.zeros((2, 2))),
     OutOfRange),
    (lambda: SemParams(omega=[1.0, 1.0], Lambda=[[0.0, math.nan], [0.0, 0.0]]),
     ShapeMismatch),
    (lambda: sem_covariance(Digraph(2, [(1, 2)]), SemParams(
        omega=[1.0, 1.0], Lambda=[[0.0, math.inf], [0.0, 0.0]])),
     ShapeMismatch),
    (lambda: cubic_roots_in_interval(math.nan, 1.0, 1.0, 1.0, -1.0, 1.0),
     OutOfRange),
    (lambda: sample_spectrahedron(PATH3, SIGMA3, 1, radius="a"), OutOfRange),
    (lambda: in_spectrahedron(PATH3, SIGMA3, SIGMA3, tol=math.nan),
     OutOfRange),
], ids=["trek-nan-a", "trek-inf-lambda", "sem-nan-omega", "sem-nan-lambda",
        "sem-covariance-inf-lambda", "cubic-nan", "radius-string", "tol-nan"])
def test_non_finite_reals_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: principal_submatrix(np.eye(3), 3), "I"),
    (lambda: embed(np.eye(1), 1, [1], 2), "rows"),
    (lambda: induced_subgraph(PATH3.graph, 3), "vertices"),
    (lambda: bivariate_cell("a", np.eye(2)), "c"),
    (lambda: equicorrelation_cell(3, None, np.eye(3)), "c"),
    (lambda: equicorrelation_matrix(3, "x"), "x"),
    (lambda: trek_covariance(Digraph(2, [(1, 2)]),
                             DagParams(a=(1.0, 1.0), lam={(1, 2): "0.5"})),
     "arc weight"),
    (lambda: cubic_roots_in_interval(1.0, "0", 1.0, 1.0, -1.0, 1.0), "c2"),
    (lambda: bivariate_discriminant(True, 0.5), "a"),
    (lambda: log_likelihood("a", np.eye(2)), "an entry of Sigma"),
    # a ComplexWarning, which would drop the imaginary part, is an error here
    (lambda: check_symmetric([[1, 2j], [2j, 1]]), "an entry of the matrix"),
    (lambda: embed([[True]], [1], [1], 2), "an entry of B"),
    (lambda: trek_covariance(Digraph(2, [(1, 2)]),
                             DagParams(a=1.0, lam={(1, 2): 0.5})), "params.a"),
    (lambda: trek_covariance(Digraph(2, [(1, 2)]),
                             DagParams(a=(1.0, 1.0), lam=None)), "params.lam"),
], ids=["index-int", "rows-int", "vertices-int", "bivariate-c", "equi-c",
        "equi-x", "arc-weight", "cubic-c2", "discriminant-bool",
        "matrix-string", "matrix-complex", "block-bool", "dag-params-a",
        "dag-params-lam"])
def test_wrong_types_raise_input_errors_naming_the_argument(call, name):
    with pytest.raises(InputError, match=f"^{name} must be a "):
        call()


def test_matrix_entries_are_real_numbers():
    """Ragged rows and numbers beyond a double raise typed errors; real
    numbers of other types, such as fractions, are converted."""
    with pytest.raises(ShapeMismatch, match="^S has rows of different"):
        log_likelihood(np.eye(2), [[1.0, 0.0], [0.0]])
    with pytest.raises(OutOfRange, match="^an entry of Sigma is beyond"):
        log_likelihood([[10 ** 400]], [[1.0]])
    assert check_symmetric([[Fraction(1, 3)]])[0, 0] == 1 / 3


@pytest.mark.parametrize("call, name", [
    (lambda: trek_covariance(Digraph(2, [(1, 2)]), DagParams(
        a=(1e200, 1.0), lam={(1, 2): 1e200})), "params"),
    (lambda: sem_covariance(Digraph(2, [(1, 2)]), SemParams(
        omega=[1e308, 1.0], Lambda=[[0.0, 1e308], [0.0, 0.0]])), "params"),
    (lambda: cubic_roots_in_interval(1e-308, 1e308, 1e308, 1e308, -1.0, 1.0),
     "c3"),
    (lambda: equicorrelation_matrix(3, HUGE), "x"),
    (lambda: bivariate_discriminant(0.0, 1e100), "a and b"),
    (lambda: sample_spectrahedron(PATH3, SIGMA3, 1, radius=HUGE), "radius"),
    (lambda: symmetrize([[MAX, -0.05], [-0.05, MAX]]), "^S "),
    (lambda: equicorrelation_cell(3, 0.3, np.full((3, 3), MAX)), "^S "),
    (lambda: bivariate_cell(0.5, [[MAX, -0.05], [-0.05, MAX]]), "^S "),
], ids=["trek", "sem", "cubic", "huge-int", "discriminant", "huge-radius",
        "symmetrize", "equicorrelation-cell", "bivariate-cell"])
def test_overflow_raises_out_of_range(call, name):
    """Not a numpy warning (an error here), a raw OverflowError or an
    infinite entry."""
    with pytest.raises(OutOfRange, match=name):
        call()


# the golden ci-union point, with S_12 = 0.9 so that the sample is on the
# spectrahedron but not in the cell
CI_SIGMA = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.7], [0.0, 0.7, 3.0]])
CI_SAMPLE = np.array([[1.0, 0.9, 0.2], [0.9, 2.0, 0.7], [0.2, 0.7, 3.0]])


@pytest.mark.parametrize("t", [1.0, 1e-4, 1e-6, 1e-8])
def test_ci_union_verdict_does_not_depend_on_units(t):
    verdict = cell_membership(CiUnion(), t * CI_SIGMA, t * CI_SAMPLE)
    assert verdict.status == "InSpectrahedronNotCell"
    assert not ci_union_cell(t * CI_SIGMA, t * CI_SAMPLE)


def test_ci_union_point_near_both_components_has_one():
    """Both coupling entries are above SINGULAR_TOL and within the model
    tolerance: the point is in component one, for every function."""
    Sigma = np.array([[1.0, 2e-10, 0.0], [2e-10, 2.0, 3e-10],
                      [0.0, 3e-10, 3.0]])
    assert model_contains(CiUnion(), Sigma)
    assert cell_membership(CiUnion(), Sigma, Sigma).status == "InCell"
    assert in_spectrahedron(CiUnion(), Sigma, Sigma)
    assert lognormal_basis(CiUnion(), Sigma).dimension == 2


def test_ci_union_rule_and_enumeration_agree_at_a_near_singular_point():
    """S = Sigma, whose coupling entries are both within 1e-6 of its
    scale: the other component's critical point of S counts as Sigma
    itself, for the closed-form rule as for the enumeration."""
    Sigma = np.array([[1.0, 2e-10, 0.0], [2e-10, 2.0, 3e-10],
                      [0.0, 3e-10, 3.0]])
    assert cell_membership(CiUnion(), Sigma, Sigma).status == "InCell"
    assert ci_union_cell(Sigma, Sigma)
    mirrored = Sigma[::-1, ::-1]            # a point of component two
    assert cell_membership(CiUnion(), mirrored, mirrored).status == "InCell"
    assert ci_union_cell(mirrored, mirrored)
