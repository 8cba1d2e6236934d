"""Model families: definitions, parametrisations and tangent bases.

Every model fixes an ambient dimension ``m`` and describes a set of
positive definite ``m x m`` covariance matrices: linear concentration
models (the inverse covariance lies in a fixed span), undirected
graphical models, DAG models, and several unit-diagonal correlation
families.  The module knows how to test membership, produce tangent
bases at smooth points, and evaluate the DAG parametrisations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import check_symmetric, is_positive_definite
from .errors import (
    DimensionMismatch,
    InvalidModel,
    NotPD,
    OutOfRange,
    ShapeMismatch,
    SingularParents,
    SingularPoint,
)
from .graphs import Digraph, Graph, digraph_from_json, digraph_to_json, \
    graph_from_json, graph_to_json

#: Off-diagonal entries below this are treated as exact zeros when
#: deciding which chart of a union model a point belongs to.
SINGULAR_TOL = 1e-10


def _diag_unit(i: int, m: int) -> np.ndarray:
    E = np.zeros((m, m))
    E[i, i] = 1.0
    return E


def _offdiag_unit(i: int, j: int, m: int) -> np.ndarray:
    E = np.zeros((m, m))
    E[i, j] = E[j, i] = 1.0
    return E


@dataclass(frozen=True, eq=False)
class LinearConcentration:
    """Covariances whose inverse lies in the span of a fixed symmetric basis."""

    kind = "concentration"
    basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(check_symmetric(K) for K in self.basis)
        if not mats:
            raise InvalidModel("concentration model needs at least one basis matrix")
        m = mats[0].shape[0]
        if any(K.shape != (m, m) for K in mats):
            raise ShapeMismatch("basis matrices must share one dimension")
        stack = np.stack([K.ravel() for K in mats])
        if np.linalg.matrix_rank(stack) < len(mats):
            raise InvalidModel("basis matrices are linearly dependent")
        object.__setattr__(self, "basis", mats)

    @property
    def dim(self) -> int:
        return self.basis[0].shape[0]


@dataclass(frozen=True)
class GraphModel:
    """Undirected graphical model: zeros of the concentration off the edges."""

    kind = "graph"
    graph: Graph

    @property
    def dim(self) -> int:
        return self.graph.m


@dataclass(frozen=True)
class DagModel:
    """Gaussian DAG model in its trek-rule / structural-equation form."""

    kind = "dag"
    dag: Digraph

    @property
    def dim(self) -> int:
        return self.dag.m


@dataclass(frozen=True)
class BivariateCorrelation:
    """2 x 2 correlation matrices (unit diagonal)."""

    kind = "bivariate-correlation"

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class Equicorrelation:
    """Unit-diagonal matrices with one common off-diagonal value."""

    kind = "equicorrelation"
    m: int

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise DimensionMismatch("equicorrelation needs m >= 2")
        object.__setattr__(self, "m", int(self.m))

    @property
    def dim(self) -> int:
        return self.m


@dataclass(frozen=True)
class UnrestrictedCorrelation:
    """All positive definite unit-diagonal m x m matrices."""

    kind = "correlation"
    m: int

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise DimensionMismatch("correlation model needs m >= 2")
        object.__setattr__(self, "m", int(self.m))

    @property
    def dim(self) -> int:
        return self.m


@dataclass(frozen=True)
class CiUnion:
    """Union of two conditional-independence planes in 3 x 3 covariances.

    Component one fixes ``sigma_12 = sigma_13 = 0`` (free parameters at
    positions 11, 22, 23, 33); component two fixes ``sigma_13 =
    sigma_23 = 0`` (free parameters at 11, 12, 22, 33).  The components
    meet in the diagonal matrices, which are singular points of the
    union.
    """

    kind = "ci-union"

    @property
    def dim(self) -> int:
        return 3


Model = (LinearConcentration | GraphModel | DagModel | BivariateCorrelation
         | Equicorrelation | UnrestrictedCorrelation | CiUnion)


@dataclass(frozen=True)
class DagParams:
    """Trek-rule parameters: diagonal values ``a`` and arc weights ``lam``."""

    a: tuple[float, ...]
    lam: Mapping[tuple[int, int], float] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class SemParams:
    """Structural-equation parameters: error variances and arc coefficients."""

    omega: np.ndarray
    Lambda: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float).reshape(-1)
        L = np.asarray(self.Lambda, dtype=float)
        m = om.shape[0]
        if L.shape != (m, m):
            raise ShapeMismatch(
                f"Lambda shape {L.shape} does not match omega length {m}")
        if np.any(om <= 0):
            raise OutOfRange("error variances must be positive")
        if np.abs(np.tril(L)).max() > 0:
            raise ShapeMismatch("Lambda must be strictly upper triangular")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "Lambda", L)


def concentration_basis(G: Graph) -> list[np.ndarray]:
    """Concentration span of a graph: diagonal units plus one unit per edge."""
    m = G.m
    basis = [_diag_unit(i, m) for i in range(m)]
    basis += [_offdiag_unit(i - 1, j - 1, m) for i, j in G.sorted_edges()]
    return basis


def as_concentration(model: GraphModel) -> LinearConcentration:
    """The linear concentration model of an undirected graph."""
    return LinearConcentration(tuple(concentration_basis(model.graph)))


def _check_model_matrix(model, Sigma) -> np.ndarray:
    A = check_symmetric(Sigma)
    if A.shape[0] != model.dim:
        raise DimensionMismatch(
            f"model has dimension {model.dim}, matrix has {A.shape[0]}")
    return A


def model_contains(model, Sigma, tol: float = 1e-8) -> bool:
    """Does the positive definite matrix ``Sigma`` satisfy the model equations?

    Residuals are compared against ``tol`` scaled by ``max(1, |.|)`` of
    the quantity being tested (concentration entries for inverse-based
    families, covariance entries for the rest).
    """
    A = _check_model_matrix(model, Sigma)

    if isinstance(model, (LinearConcentration, GraphModel)):
        if not is_positive_definite(A):
            raise NotPD("Sigma is not positive definite")
        K = np.linalg.inv(A)
        scale = max(1.0, float(np.abs(K).max()))
        if isinstance(model, GraphModel):
            G = model.graph
            off = [abs(K[i - 1, j - 1])
                   for i in range(1, G.m + 1) for j in range(i + 1, G.m + 1)
                   if not G.has_edge(i, j)]
            return max(off, default=0.0) <= tol * scale
        stack = np.stack([B.ravel() for B in model.basis]).T
        coeff, *_ = np.linalg.lstsq(stack, K.ravel(), rcond=None)
        resid = float(np.abs(stack @ coeff - K.ravel()).max())
        return resid <= tol * scale

    scale = max(1.0, float(np.abs(A).max()))

    if isinstance(model, DagModel):
        if not is_positive_definite(A):
            raise NotPD("Sigma is not positive definite")
        fitted = sem_covariance(model.dag, sem_fit(model.dag, A))
        return float(np.abs(fitted - A).max()) <= tol * scale

    if isinstance(model, BivariateCorrelation):
        return float(np.abs(np.diag(A) - 1.0).max()) <= tol

    if isinstance(model, Equicorrelation):
        if float(np.abs(np.diag(A) - 1.0).max()) > tol:
            return False
        iu = np.triu_indices(model.m, 1)
        off = A[iu]
        return float(np.abs(off - off.mean()).max()) <= tol

    if isinstance(model, UnrestrictedCorrelation):
        return float(np.abs(np.diag(A) - 1.0).max()) <= tol

    if isinstance(model, CiUnion):
        return (abs(A[0, 2]) <= tol
                and min(abs(A[0, 1]), abs(A[1, 2])) <= tol)

    raise InvalidModel(f"unknown model {model!r}")


def tangent_basis(model, Sigma) -> list[np.ndarray]:
    """Basis of the tangent space of the model at the point ``Sigma``.

    For concentration-type families the basis is the pushforward
    ``-Sigma K_j Sigma`` of the concentration span; for DAG models the
    partial derivatives of the parametrisation at ``Sigma`` (evaluated
    in the structural-equation chart, which spans the same space); for
    the correlation families the fixed coordinate directions.  At a
    singular point of a union model :class:`SingularPoint` is raised.
    """
    A = _check_model_matrix(model, Sigma)
    m = model.dim

    if isinstance(model, (LinearConcentration, GraphModel)):
        basis = (model.basis if isinstance(model, LinearConcentration)
                 else concentration_basis(model.graph))
        return [-(A @ K @ A) for K in basis]

    if isinstance(model, DagModel):
        if not is_positive_definite(A):
            raise NotPD("Sigma is not positive definite")
        params = sem_fit(model.dag, A)
        M = np.linalg.inv(np.eye(m) - params.Lambda)
        out = []
        for k in range(m):
            out.append(M.T @ _diag_unit(k, m) @ M)
        for (u, v) in model.dag.sorted_arcs():
            E = np.zeros((m, m))
            E[u - 1, v - 1] = 1.0
            C = A @ E @ M
            out.append(C + C.T)
        return out

    if isinstance(model, BivariateCorrelation):
        return [_offdiag_unit(0, 1, 2)]

    if isinstance(model, Equicorrelation):
        return [np.ones((m, m)) - np.eye(m)]

    if isinstance(model, UnrestrictedCorrelation):
        return [_offdiag_unit(i, j, m)
                for i in range(m) for j in range(i + 1, m)]

    if isinstance(model, CiUnion):
        in_one = abs(A[0, 1]) <= SINGULAR_TOL   # sigma_12 = 0
        in_two = abs(A[1, 2]) <= SINGULAR_TOL   # sigma_23 = 0
        if in_one and in_two:
            raise SingularPoint(
                "diagonal covariances are singular points of the union")
        if in_one:
            return [_diag_unit(0, 3), _diag_unit(1, 3),
                    _offdiag_unit(1, 2, 3), _diag_unit(2, 3)]
        if in_two:
            return [_diag_unit(0, 3), _offdiag_unit(0, 1, 3),
                    _diag_unit(1, 3), _diag_unit(2, 3)]
        raise InvalidModel("Sigma lies in neither component of the union")

    raise InvalidModel(f"unknown model {model!r}")


def trek_covariance(dag: Digraph, params: DagParams) -> np.ndarray:
    """Covariance matrix from the simple trek rule.

    Diagonal entries are the parameters ``a_i``; the entry ``(i, j)``
    sums, over all simple treks between ``i`` and ``j``, the top's ``a``
    value times the product of the arc weights along the trek.  Each
    such trek with ``i < j`` ends in one arc ``p -> j``, so the sum is
    computed column by column in the vertex order as
    ``sigma_ij = sum_{p in pa(j)} lam_pj sigma_ip`` (Sullivant, Talaska
    and Draisma, *Trek separation*, 2010), without listing treks.
    """
    m = dag.m
    a = tuple(float(x) for x in params.a)
    if len(a) != m:
        raise ShapeMismatch(f"expected {m} diagonal parameters, got {len(a)}")
    if any(x <= 0 for x in a):
        raise OutOfRange("diagonal parameters must be positive")
    lam = {tuple(k): float(v) for k, v in params.lam.items()}
    if set(lam) != set(dag.arcs):
        raise ShapeMismatch("arc weights must cover exactly the arcs of the DAG")
    S = np.diag(a)
    for j in range(1, m + 1):
        pa = dag.parents(j)
        if pa:
            col = S[:j - 1, [p - 1 for p in pa]] @ [lam[p, j] for p in pa]
            S[:j - 1, j - 1] = S[j - 1, :j - 1] = col
    return S


def sem_covariance(dag: Digraph, params: SemParams) -> np.ndarray:
    """Covariance of the structural equation model
    ``(I - Lambda)^{-T} Omega (I - Lambda)^{-1}``."""
    m = dag.m
    if params.omega.shape[0] != m:
        raise ShapeMismatch(
            f"expected {m} error variances, got {params.omega.shape[0]}")
    L = params.Lambda
    support = {(i + 1, j + 1) for i, j in zip(*np.nonzero(L))}
    if not support <= set(dag.arcs):
        raise ShapeMismatch("Lambda has entries off the arcs of the DAG")
    M = np.linalg.inv(np.eye(m) - L)
    S = M.T @ np.diag(params.omega) @ M
    return (S + S.T) / 2.0


def sem_fit(dag: Digraph, S) -> SemParams:
    """Per-vertex regressions of ``S`` onto parent blocks.

    For each vertex ``k`` with parents ``pa``, solves
    ``S[pa, pa] lam = S[pa, k]`` and sets the error variance to the
    Schur complement ``S[k, k] - S[k, pa] lam``.  Applied to a matrix
    inside the DAG model this inverts the parametrisation; applied to an
    arbitrary positive definite matrix it computes the (unique) maximum
    likelihood critical point.
    """
    A = check_symmetric(S)
    m = dag.m
    if A.shape[0] != m:
        raise DimensionMismatch(
            f"DAG has {m} vertices, matrix has dimension {A.shape[0]}")
    Lambda = np.zeros((m, m))
    omega = np.zeros(m)
    for k in range(1, m + 1):
        pa = dag.parents(k)
        if pa:
            idx = [p - 1 for p in pa]
            block = A[np.ix_(idx, idx)]
            rhs = A[idx, k - 1]
            try:
                coef = np.linalg.solve(block, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularParents(
                    f"parent block of vertex {k} is singular") from exc
            Lambda[idx, k - 1] = coef
            omega[k - 1] = A[k - 1, k - 1] - float(rhs @ coef)
        else:
            omega[k - 1] = A[k - 1, k - 1]
        if omega[k - 1] <= 0:
            raise SingularParents(
                f"regression at vertex {k} leaves no positive residual variance")
    return SemParams(omega=omega, Lambda=Lambda)


def dag_params_to_sem(dag: Digraph, params: DagParams) -> SemParams:
    """Convert trek-rule parameters to structural-equation parameters.

    The arc weights carry over unchanged; the error variances are the
    Schur complements of the trek covariance against the parent blocks.
    """
    Sigma = trek_covariance(dag, params)
    fitted = sem_fit(dag, Sigma)
    return fitted


def equicorrelation_matrix(m: int, x: float) -> np.ndarray:
    """The matrix ``(1 - x) I + x J`` (unit diagonal, constant off-diagonal).

    Positive definite exactly for ``-1/(m-1) < x < 1``; values outside
    that open interval raise :class:`OutOfRange`.
    """
    if int(m) != m or m < 2:
        raise DimensionMismatch("equicorrelation needs m >= 2")
    x = float(x)
    if not -1.0 / (m - 1) < x < 1.0:
        raise OutOfRange(
            f"{x} outside the positive definite interval "
            f"({-1.0 / (m - 1)}, 1)")
    return (1.0 - x) * np.eye(m) + x * np.ones((m, m))


def model_from_json(obj) -> Model:
    """Decode a model description ``{"kind": ..., ...}``."""
    from .core import sym_from_json

    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidModel('model JSON needs a "kind" field')
    kind = obj["kind"]
    if kind == "concentration":
        return LinearConcentration(
            tuple(sym_from_json(b) for b in obj["basis"]))
    if kind == "graph":
        return GraphModel(graph_from_json(obj))
    if kind == "dag":
        return DagModel(digraph_from_json(obj))
    if kind == "bivariate-correlation":
        return BivariateCorrelation()
    if kind == "equicorrelation":
        return Equicorrelation(obj["m"])
    if kind == "correlation":
        return UnrestrictedCorrelation(obj["m"])
    if kind == "ci-union":
        return CiUnion()
    raise InvalidModel(f"unknown model kind {kind!r}")


def model_to_json(model) -> dict:
    from .core import sym_to_json

    if isinstance(model, LinearConcentration):
        return {"kind": model.kind,
                "basis": [sym_to_json(K) for K in model.basis]}
    if isinstance(model, GraphModel):
        return {"kind": model.kind, **graph_to_json(model.graph)}
    if isinstance(model, DagModel):
        return {"kind": model.kind, **digraph_to_json(model.dag)}
    if isinstance(model, (Equicorrelation, UnrestrictedCorrelation)):
        return {"kind": model.kind, "m": model.m}
    if isinstance(model, (BivariateCorrelation, CiUnion)):
        return {"kind": model.kind}
    raise InvalidModel(f"unknown model {model!r}")
