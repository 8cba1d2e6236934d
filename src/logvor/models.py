"""Model families: definitions, parametrisations and tangent bases.

Every model fixes an ambient dimension ``m`` and describes a set of
positive definite ``m x m`` covariance matrices: linear concentration
models (the inverse covariance lies in a fixed span), undirected
graphical models, DAG models, and several unit-diagonal correlation
families.  Each family is one subclass of :class:`Model`, registered by
its JSON kind in :data:`FAMILIES`; the public functions here and in
:mod:`logvor.mle` and :mod:`logvor.cells` validate their matrices once
and then call the family's methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Mapping

import numpy as np

from .core import _is_pd, _loglik, _matrix, _unit_scale, \
    check_symmetric, sym_from_json, sym_to_json
from .errors import (
    DimensionMismatch,
    InvalidModel,
    OutOfRange,
    ShapeMismatch,
    SingularParents,
    SingularPoint,
    _brief,
    _integer,
    _is_integer,
    _positive,
    _real,
)
from .graphs import Digraph, Graph, is_chordal

#: Off-diagonal entries below this are treated as exact zeros when
#: deciding which chart of a union model a point belongs to.
SINGULAR_TOL = 1e-10
#: Tolerance of the model equations, as tested by :func:`model_contains`.
MODEL_TOL = 1e-8


def _diag_unit(i: int, m: int) -> np.ndarray:
    E = np.zeros((m, m))
    E[i, i] = 1.0
    return E


def _offdiag_unit(i: int, j: int, m: int) -> np.ndarray:
    E = np.zeros((m, m))
    E[i, j] = E[j, i] = 1.0
    return E


def _read_only(mats) -> tuple[np.ndarray, ...]:
    """The arrays ``mats``, which the caller owns, made read-only."""
    for M in mats:
        M.setflags(write=False)
    return tuple(mats)


def _is_pairs(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_integer, e)) for e in x)


def _json_field(obj: dict, name: str, what: str, ok, default=None):
    """The field ``name`` of a model's JSON object; :class:`InvalidModel`
    naming the field unless ``ok`` accepts its value."""
    value = obj.get(name, default)
    if not ok(value):
        raise InvalidModel(f'{obj["kind"]} model JSON: "{name}" must be '
                           f"{what}, got {_brief(value)}")
    return value


class Model:
    """A model family: a set of positive definite ``dim x dim`` matrices.

    A family sets ``kind`` (its JSON tag), ``dim`` and the two flags, and
    implements ``contains(A, tol)`` (does ``A`` satisfy the model
    equations within ``tol``?), ``tangent_basis(A)`` at a model point,
    ``critical_points(A, opts)`` of a sample, best first, and, where it
    has fields, ``to_json`` and ``from_json``.  The methods take arrays
    that the public functions have validated: symmetric, finite, of
    dimension ``dim`` and positive definite.
    """

    kind: ClassVar[str]
    #: Every sample has exactly one critical point, so the logarithmic
    #: Voronoi cell of a point equals its log-normal spectrahedron.
    degree_one: ClassVar[bool] = False
    #: Critical points come from the heuristic multistart search.
    best_effort: ClassVar[bool] = False

    def to_json(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, obj: dict) -> "Model":
        return cls()


class _Concentration(Model):
    """Shared part of the families whose concentration lies in the span
    of ``basis``: linear concentration and undirected graphical models."""

    degree_one = True

    def contains(self, A, tol):
        K = np.linalg.inv(_unit_scale(A)[1])
        scale = max(1.0, float(np.abs(K).max()))
        stack = np.stack([B.ravel() for B in self.basis]).T
        coeff, *_ = np.linalg.lstsq(stack, K.ravel(), rcond=None)
        resid = float(np.abs(stack @ coeff - K.ravel()).max())
        return resid <= tol * scale

    def tangent_basis(self, A):
        return [-(A @ K @ A) for K in self.basis]

    def critical_points(self, A, opts):
        from .mle import _concentration_point
        return [_concentration_point(self, A)]


@dataclass(frozen=True, eq=False)
class LinearConcentration(_Concentration):
    """Covariances whose inverse lies in the span of a fixed symmetric
    basis, kept as read-only copies: a model hashes by identity, and
    what is known of it must not change."""

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
        # exact scaling to a largest entry in [1/2, 1) keeps the SVD finite
        stack = np.ldexp(stack, -np.frexp(np.abs(stack).max())[1])
        if np.linalg.matrix_rank(stack) < len(mats):
            raise InvalidModel("basis matrices are linearly dependent")
        object.__setattr__(self, "basis", _read_only(mats))

    @property
    def dim(self) -> int:
        return self.basis[0].shape[0]

    def to_json(self):
        return {"kind": self.kind,
                "basis": [sym_to_json(K) for K in self.basis]}

    @classmethod
    def from_json(cls, obj):
        basis = _json_field(obj, "basis", "a list of symmetric matrices",
                            lambda v: isinstance(v, list))
        return cls(tuple(sym_from_json(b) for b in basis))


@dataclass(frozen=True)
class GraphModel(_Concentration):
    """Undirected graphical model: zeros of the concentration off the
    edges, the span of :func:`concentration_basis` (built on first use,
    read-only; its supports are disjoint, so it needs no rank check)."""

    kind = "graph"
    graph: Graph

    @property
    def dim(self) -> int:
        return self.graph.m

    @cached_property
    def basis(self) -> tuple[np.ndarray, ...]:
        return _read_only(concentration_basis(self.graph))

    def contains(self, A, tol):
        K = np.linalg.inv(_unit_scale(A)[1])
        scale = max(1.0, float(np.abs(K).max()))
        G = self.graph
        off = [abs(K[i - 1, j - 1])
               for i in range(1, G.m + 1) for j in range(i + 1, G.m + 1)
               if not G.has_edge(i, j)]
        return max(off, default=0.0) <= tol * scale

    def critical_points(self, A, opts):
        from .mle import _decomposable_point
        chordal, order = is_chordal(self.graph)
        if chordal:
            return [_decomposable_point(self.graph, A, order)]
        return super().critical_points(A, opts)

    def to_json(self):
        return {"kind": self.kind, "m": self.graph.m,
                "edges": [list(e) for e in self.graph.sorted_edges()]}

    @classmethod
    def from_json(cls, obj):
        m = _json_field(obj, "m", "an integer", _is_integer)
        edges = _json_field(obj, "edges", "a list of pairs [i, j]",
                            _is_pairs, [])
        return cls(Graph(m, frozenset(map(tuple, edges))))


@dataclass(frozen=True)
class DagModel(Model):
    """Gaussian DAG model in its trek-rule / structural-equation form."""

    kind = "dag"
    degree_one = True
    dag: Digraph

    @property
    def dim(self) -> int:
        return self.dag.m

    def contains(self, A, tol):
        scale = max(1.0, float(np.abs(A).max()))
        fitted = sem_covariance(self.dag, _sem_fit(self.dag, A))
        return float(np.abs(fitted - A).max()) <= tol * scale

    def tangent_basis(self, A):
        m = self.dim
        params = _sem_fit(self.dag, A)
        M = np.linalg.inv(np.eye(m) - params.Lambda)
        out = []
        for k in range(m):
            out.append(M.T @ _diag_unit(k, m) @ M)
        for (u, v) in self.dag.sorted_arcs():
            E = np.zeros((m, m))
            E[u - 1, v - 1] = 1.0
            C = A @ E @ M
            out.append(C + C.T)
        return out

    def critical_points(self, A, opts):
        from .mle import _critical_point
        fitted = sem_covariance(self.dag, _sem_fit(self.dag, A))
        return [_critical_point(fitted, A, "unique")]

    def to_json(self):
        return {"kind": self.kind, "m": self.dag.m,
                "arcs": [list(a) for a in self.dag.sorted_arcs()]}

    @classmethod
    def from_json(cls, obj):
        m = _json_field(obj, "m", "an integer", _is_integer)
        arcs = _json_field(obj, "arcs", "a list of pairs [i, j]",
                           _is_pairs, [])
        return cls(Digraph(m, frozenset(map(tuple, arcs))))


@dataclass(frozen=True)
class _UnitDiagonal(Model):
    """Shared part of the correlation families on ``m x m`` matrices."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(
            self.m, "m", 2, error=DimensionMismatch,
            say=f"{self.kind} model needs m >= 2, got {{x}}"))

    @property
    def dim(self) -> int:
        return self.m

    def contains(self, A, tol):
        return float(np.abs(np.diag(A) - 1.0).max()) <= tol

    def to_json(self):
        return {"kind": self.kind, "m": self.m}

    @classmethod
    def from_json(cls, obj):
        return cls(_json_field(obj, "m", "an integer", _is_integer))


@dataclass(frozen=True)
class Equicorrelation(_UnitDiagonal):
    """Unit-diagonal matrices with one common off-diagonal value."""

    kind = "equicorrelation"

    def contains(self, A, tol):
        if not super().contains(A, tol):
            return False
        off = A[np.triu_indices(self.m, 1)]
        return float(np.abs(off - off.mean()).max()) <= tol

    def tangent_basis(self, A):
        return [np.ones((self.m, self.m)) - np.eye(self.m)]

    def critical_points(self, A, opts):
        from .mle import _critical_point, _sorted_points, \
            cubic_roots_in_interval, equicorrelation_cubic
        m = self.m
        a, b, _ = _symmetrize(A)
        roots = cubic_roots_in_interval(
            *equicorrelation_cubic(m, a, b), -1.0 / (m - 1), 1.0)
        return _sorted_points([
            _critical_point(equicorrelation_matrix(m, r), A, "cubic-root")
            for r in roots])


@dataclass(frozen=True)
class BivariateCorrelation(Equicorrelation):
    """2 x 2 correlation matrices: :class:`Equicorrelation` with ``m = 2``,
    under its own JSON kind."""

    kind = "bivariate-correlation"
    m: int = field(default=2, init=False)
    # the JSON of a family without fields: the kind alone
    to_json = Model.to_json
    from_json = classmethod(Model.from_json.__func__)


@dataclass(frozen=True)
class UnrestrictedCorrelation(_UnitDiagonal):
    """All positive definite unit-diagonal m x m matrices."""

    kind = "correlation"
    best_effort = True

    def tangent_basis(self, A):
        return [_offdiag_unit(i, j, self.m)
                for i in range(self.m) for j in range(i + 1, self.m)]

    def critical_points(self, A, opts):
        from .mle import _correlation_multistart, _sorted_points
        return _sorted_points(_correlation_multistart(self.m, A, opts))


@dataclass(frozen=True)
class CiUnion(Model):
    """Union of two conditional-independence planes in 3 x 3 covariances.

    Component one fixes ``sigma_12 = sigma_13 = 0`` (free parameters at
    positions 11, 22, 23, 33); component two fixes ``sigma_13 =
    sigma_23 = 0`` (free parameters at 11, 12, 22, 33).  The components
    meet in the diagonal matrices, which are singular points of the
    union.
    """

    kind = "ci-union"
    dim = 3

    def contains(self, A, tol):
        return (abs(A[0, 2]) <= tol
                and min(abs(A[0, 1]), abs(A[1, 2])) <= tol)

    @staticmethod
    def _side(A) -> int:
        """The component of ``A``, decided here alone: 1 if |sigma_12| <=
        |sigma_23|, else 2; 0 if both are at most ``SINGULAR_TOL``."""
        x, z = abs(A[0, 1]), abs(A[1, 2])
        if min(x, z) > MODEL_TOL * max(1.0, float(A.diagonal().max())):
            raise InvalidModel("Sigma lies in neither component of the union")
        return 0 if max(x, z) <= SINGULAR_TOL else 1 if x <= z else 2

    def tangent_basis(self, A):
        side = self._side(A)
        if not side:
            raise SingularPoint(
                "diagonal covariances are singular points of the union")
        if side == 1:
            return [_diag_unit(0, 3), _diag_unit(1, 3),
                    _offdiag_unit(1, 2, 3), _diag_unit(2, 3)]
        return [_diag_unit(0, 3), _offdiag_unit(0, 1, 3),
                _diag_unit(1, 3), _diag_unit(2, 3)]

    @staticmethod
    def _planes(A) -> tuple:
        """The critical points of ``A`` on components one and two, PD
        or not: ``A`` with the entries off the component set to zero."""
        one = np.array([[A[0, 0], 0.0, 0.0],
                        [0.0, A[1, 1], A[1, 2]],
                        [0.0, A[1, 2], A[2, 2]]])
        two = np.array([[A[0, 0], A[0, 1], 0.0],
                        [A[0, 1], A[1, 1], 0.0],
                        [0.0, 0.0, A[2, 2]]])
        return one, two

    def critical_points(self, A, opts):
        from .mle import CriticalPoint, _sorted_points
        pts = [CriticalPoint(sigma=Sigma, loglik=_loglik(Sigma, A),
                             source="closed-form")
               for Sigma in self._planes(A) if _is_pd(Sigma)]
        # the two planes meet in the diagonals; drop duplicates there
        gap = 1e-12 * float(A.diagonal().max())
        if len(pts) == 2 and np.abs(pts[0].sigma - pts[1].sigma).max() <= gap:
            pts = pts[:1]
        return _sorted_points(pts)


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
        if not np.all((om > 0) & (om < np.inf)):
            raise OutOfRange("error variances must be positive and finite")
        if not np.isfinite(L).all() or np.abs(np.tril(L)).max() > 0:
            raise ShapeMismatch(
                "Lambda must be finite and strictly upper triangular")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "Lambda", L)


def concentration_basis(G: Graph) -> list[np.ndarray]:
    """Concentration span of a graph: diagonal units plus one unit per edge."""
    m = G.m
    basis = [_diag_unit(i, m) for i in range(m)]
    basis += [_offdiag_unit(i - 1, j - 1, m) for i, j in G.sorted_edges()]
    return basis


def model_contains(model, Sigma) -> bool:
    """Does the positive definite matrix ``Sigma`` satisfy the model equations?

    Residuals are compared against ``MODEL_TOL`` scaled by
    ``max(1, |.|)`` of the quantity being tested (concentration entries
    for inverse-based families, covariance entries for the DAG family);
    the correlation and union families compare unscaled entries.
    """
    return model.contains(_matrix(Sigma, "Sigma", model.dim, pd=True),
                          MODEL_TOL)


def tangent_basis(model, Sigma) -> list[np.ndarray]:
    """Basis of the tangent space of the model at the point ``Sigma``.

    For concentration-type families the basis is the pushforward
    ``-Sigma K_j Sigma`` of the concentration span; for DAG models the
    partial derivatives of the parametrisation at ``Sigma`` (evaluated
    in the structural-equation chart, which spans the same space); for
    the correlation families the fixed coordinate directions.  At a
    singular point of a union model :class:`SingularPoint` is raised.
    """
    return model.tangent_basis(_matrix(Sigma, "Sigma", model.dim, pd=True))


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
    a = tuple(_positive(x, "diagonal parameters") for x in params.a)
    if len(a) != m:
        raise ShapeMismatch(f"expected {m} diagonal parameters, got {len(a)}")
    lam = {tuple(k): _real(v, "arc weight") for k, v in params.lam.items()}
    if set(lam) != set(dag.arcs) or not np.isfinite([*lam.values()]).all():
        raise ShapeMismatch("arc weights must be finite, one per DAG arc")
    S = np.diag(a)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, m + 1):
            pa = dag.parents(j)
            if pa:
                col = S[:j - 1, [p - 1 for p in pa]] @ [lam[p, j] for p in pa]
                S[:j - 1, j - 1] = S[j - 1, :j - 1] = col
    return _finite(S)


def _finite(S: np.ndarray) -> np.ndarray:
    """The covariance ``S`` built from ``params``; :class:`OutOfRange`
    when an entry overflowed (in :func:`sem_covariance` also one of
    2^1023 or more, which the symmetrisation doubles)."""
    if not np.isfinite(S).all():
        raise OutOfRange("params give a covariance too large for a double")
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
    with np.errstate(over="ignore", invalid="ignore"):
        M = np.linalg.inv(np.eye(m) - L)
        S = M.T @ np.diag(params.omega) @ M
        return _finite((S + S.T) / 2.0)


def sem_fit(dag: Digraph, S) -> SemParams:
    """Per-vertex regressions of ``S`` onto parent blocks.

    For each vertex ``k`` with parents ``pa``, solves
    ``S[pa, pa] lam = S[pa, k]`` and sets the error variance to the
    Schur complement ``S[k, k] - S[k, pa] lam``.  Applied to a matrix
    inside the DAG model this inverts the parametrisation; applied to an
    arbitrary positive definite matrix it computes the (unique) maximum
    likelihood critical point.
    """
    return _sem_fit(dag, _matrix(S, "S", dag.m))


def _sem_fit(dag: Digraph, S: np.ndarray) -> SemParams:
    """:func:`sem_fit` of a validated symmetric matrix of the DAG's
    dimension, at the exact scale of :func:`_unit_scale`."""
    m = dag.m
    e, A = _unit_scale(S)
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
    return SemParams(omega=np.ldexp(omega, -e), Lambda=Lambda)


def equicorrelation_matrix(m: int, x: float) -> np.ndarray:
    """The matrix ``(1 - x) I + x J``: diagonal exactly 1, off-diagonal ``x``.

    Positive definite exactly for ``-1/(m-1) < x < 1``; values outside
    that open interval raise :class:`OutOfRange`.
    """
    m = Equicorrelation(m).m            # checks m >= 2
    x = _real(x, "x")
    if not -1.0 / (m - 1) < x < 1.0:
        raise OutOfRange(
            f"{x} outside the positive definite interval "
            f"({-1.0 / (m - 1)}, 1)")
    M = np.full((m, m), x)
    np.fill_diagonal(M, 1.0)
    return M


def symmetrize(S) -> tuple[float, float, np.ndarray]:
    """Average over simultaneous row/column permutations.

    Returns the mean diagonal value ``a``, the mean off-diagonal value
    ``b`` and the averaged matrix ``a I + b (J - I)``, which is what a
    full average over the symmetric group produces.  These are the
    statistics of the equicorrelation critical cubic.
    """
    return _symmetrize(check_symmetric(S))


def _symmetrize(A: np.ndarray) -> tuple[float, float, np.ndarray]:
    """:func:`symmetrize` of a validated matrix."""
    m = A.shape[0]
    a = float(np.trace(A)) / m
    if m == 1:
        b = 0.0
    else:
        iu = np.triu_indices(m, 1)
        b = float(A[iu].mean())
    Sbar = a * np.eye(m) + b * (np.ones((m, m)) - np.eye(m))
    return a, b, Sbar


#: The model families by JSON kind.
FAMILIES = {cls.kind: cls for cls in (
    LinearConcentration, GraphModel, DagModel, BivariateCorrelation,
    Equicorrelation, UnrestrictedCorrelation, CiUnion)}


def model_from_json(obj) -> Model:
    """Decode a model description ``{"kind": ..., ...}``.

    A missing or ill-typed field raises :class:`InvalidModel` naming it.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidModel('model JSON needs a "kind" field')
    kind = obj["kind"]
    family = FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise InvalidModel(f"unknown model kind {_brief(kind)}")
    return family.from_json(obj)
