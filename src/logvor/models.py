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

from .core import _is_pd, _loglik, _matrix, _reals, _unit_scale, \
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
    _members,
    _positive,
    _real,
)
from .graphs import Digraph, Graph, is_chordal

#: Off-diagonal entries below this, relative to the smallest diagonal
#: entry, are treated as exact zeros when deciding which chart of a
#: union model a point belongs to.
SINGULAR_TOL = 1e-10
#: Tolerance of the model equations, as tested by :func:`model_contains`.
MODEL_TOL = 1e-8


def _units(m: int, pairs) -> np.ndarray:
    """One symmetric unit of Sym(m) per 0-based pair ``(i, j)``, with ones
    at ``(i, j)`` and ``(j, i)``, as one ``(d, m, m)`` array."""
    i, j = np.array(pairs).T
    k = np.arange(len(pairs))
    B = np.zeros((len(pairs), m, m))
    B[k, i, j] = B[k, j, i] = 1.0
    return B


def _read_only(B: np.ndarray) -> np.ndarray:
    """The array ``B``, which the caller owns, made read-only: so are the
    slices taken of it."""
    B.setflags(write=False)
    return B


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
    equations within ``tol``?), ``tangent_basis(A)`` at a model point (the
    d directions as one float ``(d, m, m)`` array, which the caller does
    not write to), ``critical_points(A, opts)`` of a sample, best first,
    and, where it has fields, ``to_json`` and ``from_json``.  The methods
    take arrays that the public functions have validated: symmetric,
    finite, of dimension ``dim`` and positive definite.
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
    of ``basis``: linear concentration and undirected graphical models.
    A family keeps its basis as one read-only ``(d, dim, dim)`` array,
    ``_stack``, built once; ``basis`` is the tuple of its slices."""

    degree_one = True

    def contains(self, A, tol):
        K = np.linalg.inv(_unit_scale(A)[1])
        stack = self._stack.reshape(len(self._stack), -1).T
        coeff, *_ = np.linalg.lstsq(stack, K.ravel(), rcond=None)
        resid = float(np.abs(stack @ coeff - K.ravel()).max())
        return resid <= tol * float(np.abs(K).max())

    def tangent_basis(self, A):
        """The directions ``-(A B A)``, B in the basis, as one ``(d, m, m)``
        array: one gemm per product, as for a single matrix, taken for a
        few directions at a time, so that the temporary ``A B`` stays
        within 2^14 entries."""
        B = self._stack
        T = np.empty(B.shape)
        step = max(1, 2 ** 14 // A.size)
        for s in range(0, len(B), step):
            np.matmul(A @ B[s:s + step], A, out=T[s:s + step])
        return np.negative(T, out=T)

    def critical_points(self, A, opts):
        from .mle import _concentration_point
        return [_concentration_point(self, A)]

    def _chart(self) -> tuple:
        """The four maps that the Newton fit of
        :func:`~logvor.mle._concentration_point` reads, in the coordinates
        ``lam`` of the basis: ``lam -> K = sum_k lam_k B_k``, the traces
        ``tr(M B_k)`` of a matrix, the trace projection of a matrix onto
        the span, and the Hessian ``tr(Sigma B_k Sigma B_l)``, here on the
        dense ``(d, m, m)`` basis."""
        B = self._stack
        d = len(B)
        Bf = B.reshape(d, -1)
        gram = Bf @ Bf.T

        def concentration(lam):
            return np.tensordot(lam, B, 1)

        def traces(M):
            return Bf @ M.ravel()

        def project(M):
            return np.linalg.solve(gram, traces(M))

        def hessian(Sigma):
            P = Sigma @ B
            return P.reshape(d, -1) @ P.transpose(0, 2, 1).reshape(d, -1).T

        return concentration, traces, project, hessian


@dataclass(frozen=True, eq=False)
class LinearConcentration(_Concentration):
    """Covariances whose inverse lies in the span of a fixed symmetric
    basis, kept as read-only copies: a model hashes by identity, and
    what is known of it must not change."""

    kind = "concentration"
    basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(check_symmetric(_reals(K, "basis"))
                     for K in self.basis)
        if not mats:
            raise InvalidModel("concentration model needs at least one basis matrix")
        m = mats[0].shape[0]
        if any(K.shape != (m, m) for K in mats):
            raise ShapeMismatch("basis matrices must share one dimension")
        stack = np.stack(mats)
        flat = stack.reshape(len(mats), -1)
        # exact scaling to a largest entry in [1/2, 1) keeps the SVD finite
        flat = np.ldexp(flat, -np.frexp(np.abs(flat).max())[1])
        if np.linalg.matrix_rank(flat) < len(mats):
            raise InvalidModel("basis matrices are linearly dependent")
        object.__setattr__(self, "_stack", _read_only(stack))
        object.__setattr__(self, "basis", tuple(self._stack))

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
    edges, the span of :func:`concentration_basis`.  The fit of a
    non-chordal graph and the criticality residual work in the edge
    coordinates of ``_pairs``; only ``basis``, the tangent directions
    and the log-normal slice build the dense basis (on first use,
    read-only; its supports are disjoint, so it needs no rank check)."""

    kind = "graph"
    graph: Graph

    @property
    def dim(self) -> int:
        return self.graph.m

    @cached_property
    def _stack(self) -> np.ndarray:
        return _read_only(concentration_basis(self.graph))

    @cached_property
    def basis(self) -> tuple[np.ndarray, ...]:
        return tuple(self._stack)

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0-based pairs ``(a_k, b_k)`` of the units of
        :func:`concentration_basis`, as two read-only int arrays: the
        vertices ``(v, v)``, then the edges ``i < j`` in sorted order.
        Built once, for the Newton chart and the closed-form frame."""
        m = self.graph.m
        i, j = np.array(self.graph.sorted_edges(),
                        dtype=int).reshape(-1, 2).T - 1
        return (_read_only(np.concatenate([np.arange(m), i])),
                _read_only(np.concatenate([np.arange(m), j])))

    def _chart(self) -> tuple:
        """The Newton chart of :class:`_Concentration` in edge
        coordinates, with no dense basis.  The unit ``k`` has ones at the
        flat positions ``a_k m + b_k`` and ``b_k m + a_k`` (one position
        on the diagonal) and squared norm ``c_k``, 1 on the diagonal and
        2 on an edge.  So ``K`` is a scatter of ``lam``, a trace is
        ``M_ab + M_ba`` (``M_aa`` on the diagonal), the projection is the
        trace over ``c``, and the Hessian is
        ``(c_k c_l / 2) (Sigma_aa' Sigma_bb' + Sigma_ab' Sigma_ba')``,
        four gathers from ``Sigma``: exactly symmetric when ``Sigma`` is."""
        m = self.graph.m
        a, b = self._pairs
        at, mirror = a * m + b, b * m + a
        c = np.where(a == b, 1.0, 2.0)
        w = np.outer(c, c / 2.0)
        am, bm = (a * m)[:, None], (b * m)[:, None]
        aa, bb, ab, ba = am + a, bm + b, am + b, bm + a

        def concentration(lam):
            K = np.zeros(m * m)
            K[at] = lam
            K[mirror] = lam
            return K.reshape(m, m)

        def traces(M):
            t = M.take(at)
            t[m:] += M.take(mirror[m:])
            return t

        def project(M):
            return traces(M) / c

        def hessian(Sigma):
            H = Sigma.take(aa) * Sigma.take(bb)
            H += Sigma.take(ab) * Sigma.take(ba)
            return np.multiply(H, w, out=H)

        return concentration, traces, project, hessian

    def contains(self, A, tol):
        K = np.linalg.inv(_unit_scale(A)[1])
        G = self.graph
        off = [abs(K[i - 1, j - 1])
               for i in range(1, G.m + 1) for j in range(i + 1, G.m + 1)
               if not G.has_edge(i, j)]
        return bool(max(off, default=0.0) <= tol * float(np.abs(K).max()))

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
        B = _unit_scale(A)[1]
        resid = sem_covariance(self.dag, _sem_fit(self.dag, B)) - B
        return float(np.abs(resid).max()) <= tol * float(B.diagonal().max())

    def tangent_basis(self, A):
        """The derivatives ``M^T E_kk M``, k a vertex, then ``C + C^T``
        with ``C = A E_uv M``, u -> v an arc in sorted order, where ``M =
        (I - Lambda)^{-1}``: as outer products of row k of M, and of
        column u of A with row v of M."""
        M = np.linalg.inv(np.eye(self.dim) - _sem_fit(self.dag, A).Lambda)
        u, v = np.array(self.dag.sorted_arcs(), dtype=int).reshape(-1, 2).T - 1
        C = A.T[u, :, None] * M[v, None, :]
        return np.concatenate([M[:, :, None] * M[:, None, :],
                               C + C.transpose(0, 2, 1)])

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
        return (np.ones((self.m, self.m)) - np.eye(self.m))[None]

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
        return _units(self.m, np.transpose(np.triu_indices(self.m, 1)))

    def critical_points(self, A, opts):
        from .mle import _correlation_multistart, _sorted_points
        return _sorted_points(_correlation_multistart(self.m, A, opts))


@dataclass(frozen=True)
class CiUnion(Model):
    """Union of two conditional-independence planes in 3 x 3 covariances.

    Each component frees the diagonal and the one off-diagonal entry
    that ``_FREE`` gives it (0-based), and fixes the other two at zero.
    The components meet in the diagonal matrices, which are singular
    points of the union.
    """

    kind = "ci-union"
    dim = 3
    _FREE: ClassVar[dict] = {1: (1, 2), 2: (0, 1)}

    def contains(self, A, tol):
        return bool(max(abs(A[0, 2]), min(abs(A[0, 1]), abs(A[1, 2])))
                    <= tol * A.diagonal().max())

    @staticmethod
    def _side(A) -> int:
        """The component of ``A``, decided here alone: 1 if |sigma_12| <=
        |sigma_23|, else 2; 0 if both are at most ``SINGULAR_TOL`` times
        the smallest diagonal entry, so ``2^k A`` is in the same chart."""
        x, z, d = abs(A[0, 1]), abs(A[1, 2]), A.diagonal()
        if min(x, z) > MODEL_TOL * d.max():
            raise InvalidModel("Sigma lies in neither component of the union")
        return 0 if max(x, z) <= SINGULAR_TOL * d.min() else 1 if x <= z else 2

    def tangent_basis(self, A):
        side = self._side(A)
        if not side:
            raise SingularPoint(
                "diagonal covariances are singular points of the union")
        return _units(3, sorted([(0, 0), (1, 1), (2, 2), self._FREE[side]]))

    @classmethod
    def _planes(cls, A) -> tuple:
        """The critical points of ``A`` on components one and two, PD
        or not: ``A`` with the entries off the component set to zero."""
        planes = []
        for i, j in cls._FREE.values():
            P = np.diag(A.diagonal())
            P[i, j] = P[j, i] = A[i, j]
            planes.append(P)
        return tuple(planes)

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
        om = _reals(self.omega, "omega").reshape(-1)
        L = _reals(self.Lambda, "Lambda")
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


def concentration_basis(G: Graph) -> np.ndarray:
    """Concentration span of a graph as one ``(d, m, m)`` array: the
    diagonal units, then one symmetric unit per edge in sorted order."""
    return _units(G.m, [(v, v) for v in range(G.m)]
                  + [(i - 1, j - 1) for i, j in G.sorted_edges()])


def model_contains(model, Sigma) -> bool:
    """Does the positive definite matrix ``Sigma`` satisfy the model equations?

    Residuals are compared against ``MODEL_TOL`` times the largest
    |entry| of ``inv(Sigma 2^-e)`` for the inverse-based families, of
    ``Sigma 2^-e`` for the DAG family (the scale of :func:`_unit_scale`)
    and of ``Sigma`` for the union; the correlation families compare
    unscaled entries.  So the cone families judge ``2^k Sigma`` as ``Sigma``.
    """
    return model.contains(_matrix(Sigma, "Sigma", model.dim, pd=True),
                          MODEL_TOL)


def tangent_basis(model, Sigma) -> list[np.ndarray]:
    """Basis of the tangent space of the model at the point ``Sigma``, as
    a list of ``m x m`` arrays, each a copy that the caller owns.

    For concentration-type families the basis is the pushforward
    ``-Sigma K_j Sigma`` of the concentration span; for DAG models the
    partial derivatives of the parametrisation at ``Sigma`` (evaluated
    in the structural-equation chart, which spans the same space); for
    the correlation families the fixed coordinate directions.  At a
    singular point of a union model :class:`SingularPoint` is raised.
    """
    return [T.copy() for T in model.tangent_basis(
        _matrix(Sigma, "Sigma", model.dim, pd=True))]


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
    a = tuple(_positive(x, "diagonal parameters")
              for x in _members(params.a, "params.a", "positive reals"))
    if len(a) != m:
        raise ShapeMismatch(f"expected {m} diagonal parameters, got {len(a)}")
    if not isinstance(params.lam, Mapping):
        raise InvalidModel("params.lam must be a mapping from arcs to "
                           f"weights, got {_brief(params.lam)}")
    lam = {k: _real(v, "arc weight") for k, v in params.lam.items()}
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
    dimension, at the scale of :func:`_unit_scale`: ``2^k S`` gives the
    same ``Lambda`` and ``2^k`` times ``omega``, bit for bit."""
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
    return _symmetrize(_matrix(S, "S"))


def _symmetrize(A: np.ndarray) -> tuple[float, float, np.ndarray]:
    """:func:`symmetrize` of a validated matrix; :class:`OutOfRange` when
    a sum of its entries overflows, so that ``a`` or ``b`` is not finite."""
    m = A.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        a = float(np.trace(A)) / m
        b = float(A[np.triu_indices(m, 1)].mean()) if m > 1 else 0.0
    if not np.isfinite([a, b]).all():
        raise OutOfRange("S is too large: the mean of its diagonal or of "
                         "its off-diagonal entries overflows")
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
