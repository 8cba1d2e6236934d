"""Gaussian maximum likelihood, log-normal spectrahedra and logarithmic
Voronoi cells.

The package computes maximum likelihood estimates and likelihood
critical points for several families of Gaussian covariance models, and
decides membership of a sample in the log-normal spectrahedron and the
logarithmic Voronoi cell of a model point.
"""

__version__ = "0.1.0"

from .cells import (
    IN_CELL,
    IN_SPECTRAHEDRON_NOT_CELL,
    NOT_IN_SPECTRAHEDRON,
    NOT_PD,
    AffineSlice,
    MembershipVerdict,
    bivariate_cell,
    cell_membership,
    ci_union_cell,
    compose_cell,
    equicorrelation_cell,
    in_spectrahedron,
    lognormal_basis,
    project_cell,
    sample_spectrahedron,
    verdict_to_json,
)
from .core import (
    check_symmetric,
    embed,
    is_positive_definite,
    log_likelihood,
    pd_mask,
    principal_submatrix,
    score_matrix,
    sym_from_json,
    sym_to_json,
)
from .errors import (
    DegenerateLeadingCoefficient,
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    InvalidModel,
    LogvorError,
    NoConvergence,
    NoInteriorPoint,
    NotChordal,
    NotOnSlice,
    NotPD,
    NotTopological,
    OutOfRange,
    PreconditionFailed,
    SamplingExhausted,
    ShapeMismatch,
    SingularParents,
    SingularPoint,
    UnknownFigure,
)
from .graphs import (
    Decomposition,
    Digraph,
    Graph,
    Trek,
    find_reducible_decomposition,
    induced_subgraph,
    is_chordal,
    list_treks,
    maximal_cliques,
)
from .mle import (
    CriticalPoint,
    SolverOptions,
    bivariate_discriminant,
    critical_points,
    criticality_residual,
    cubic_roots_in_interval,
    equicorrelation_cubic,
    mle_concentration,
    mle_dag,
    mle_graph_decomposable,
    options_from_json,
)
from .models import (
    BivariateCorrelation,
    CiUnion,
    DagModel,
    DagParams,
    Equicorrelation,
    GraphModel,
    LinearConcentration,
    SemParams,
    UnrestrictedCorrelation,
    concentration_basis,
    equicorrelation_matrix,
    model_contains,
    model_from_json,
    sem_covariance,
    sem_fit,
    symmetrize,
    tangent_basis,
    trek_covariance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
