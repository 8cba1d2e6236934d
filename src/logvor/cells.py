"""Log-normal spectrahedra and logarithmic Voronoi cells.

For a model point ``Sigma``, the log-normal matrix space is the affine
set of symmetric ``S`` whose score at ``Sigma`` is trace-orthogonal to
the model's tangent space; intersecting with the positive definite cone
gives the log-normal spectrahedron.  The logarithmic Voronoi cell of
``Sigma`` is the convex subset of samples whose maximum likelihood
estimate is ``Sigma``.  The two sets coincide for linear concentration
and DAG models; for the closed-form families here the cell is cut out
of the spectrahedron by explicit inequalities, and for unrestricted
correlation matrices membership is decided against the multistart
critical points (best effort).

The spectrahedron depends on ``Sigma`` alone, so a model object keeps
the record of the last ``Sigma`` it was asked about (:func:`_point`):
testing many samples against one ``Sigma`` validates only the samples.
The record refers to its model weakly, so the two form no reference
cycle and a model is freed as soon as its last user lets it go.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import _fits, _is_pd, _loglik, _matrix, _reals, _unit_scale, \
    check_symmetric, embed, pd_mask, principal_submatrix, sym_to_json
from .errors import NotOnSlice, NotPD, PreconditionFailed, \
    SamplingExhausted, _integer, _positive, _real
from .graphs import Graph, find_reducible_decomposition, induced_subgraph
from .mle import SolverOptions, CriticalPoint, _frame_residual, \
    _tangent_directions, _tangent_frame
from .models import MODEL_TOL, CiUnion, Equicorrelation, \
    GraphModel, _symmetrize, equicorrelation_matrix

IN_CELL = "InCell"
IN_SPECTRAHEDRON_NOT_CELL = "InSpectrahedronNotCell"
NOT_IN_SPECTRAHEDRON = "NotInSpectrahedron"
NOT_PD = "NotPD"

#: Largest score component along the tangent space on the spectrahedron.
CRITICAL_TOL = 1e-8
#: Log-likelihood deficit to the best competitor that still counts as a tie.
TIE_TOL = 1e-9
#: Relative tolerance of the slice relations of the closed-form rules.
SLICE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class AffineSlice:
    """Affine subspace ``base + span(directions)`` of symmetric matrices.

    Directions are orthonormal in the trace inner product.
    """

    base: np.ndarray
    directions: tuple[np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return len(self.directions)


@dataclass(frozen=True, eq=False)
class MembershipVerdict:
    """Outcome of a cell membership query.

    ``margin`` is the log-likelihood gap to the best competing critical
    point (``None`` when no competitor exists or the query failed
    earlier); ``witness`` is the strictly better competitor for
    ``InSpectrahedronNotCell`` verdicts.  ``best_effort`` marks
    verdicts whose critical points come from the heuristic multistart
    search.
    """

    status: str
    witness: Optional[CriticalPoint] = None
    margin: Optional[float] = None
    best_effort: bool = False


class _Point:
    """One point ``Sigma`` of a model: what the cell queries need of it.

    Made at once: the check that the validated ``Sigma`` is a point of
    ``model`` (:class:`PreconditionFailed` otherwise).  Made on first
    need, so each error comes where it came when nothing was kept: the
    :func:`_tangent_frame` at ``Sigma 2^-e``, the log-normal slice and
    the default sampling radius.  No array of the record is handed out.
    The record holds its model by a weak reference: whoever builds one
    keeps the model alive for as long as the record is used.
    """

    def __init__(self, model, A: np.ndarray, key=None):
        if not model.contains(_fits(A, "Sigma", model.dim, pd=True),
                              MODEL_TOL):
            raise PreconditionFailed("Sigma is not a point of the model")
        self.model, self.key, self.sigma = weakref.ref(model), key, A

    def status(self, Ss: np.ndarray, tol: float):
        """Place the validated ``Ss`` against the spectrahedron:
        ``NOT_PD``, ``NOT_IN_SPECTRAHEDRON``, or ``None`` inside, by the
        residual at the frame's scale."""
        if not _is_pd(Ss):
            return NOT_PD
        if not _frame_residual(self.frame, Ss) < tol:
            return NOT_IN_SPECTRAHEDRON
        return None

    @cached_property
    def frame(self) -> tuple:
        """The :func:`_tangent_frame` of ``Sigma``."""
        return _tangent_frame(self.model(), self.sigma)

    @cached_property
    def slice(self) -> AffineSlice:
        """The log-normal matrix space: the system ``tr(K D K T_k) = 0``
        over symmetric ``D``, on ``K`` and ``T`` of
        :func:`_tangent_directions` at ``Sigma 2^-e``, with ``Sigma`` as
        its base."""
        K, T, _ = _tangent_directions(self.model(),
                                      _unit_scale(self.sigma)[1])
        # orthonormal coordinates of Sym(m): the diagonal, then the
        # upper entries times sqrt(2)
        m = len(K)
        i, j = np.concatenate([np.diag_indices(m), np.triu_indices(m, 1)],
                              axis=1)
        w = np.where(i == j, 1.0, np.sqrt(2.0))
        rows = (K @ T.reshape(-1, m, m) @ K)[:, i, j] * w
        _, svals, vh = np.linalg.svd(rows)
        cutoff = max(rows.shape) * np.finfo(float).eps \
            * (svals[0] if svals.size else 0.0)
        rank = int(np.sum(svals > cutoff))
        D = np.zeros((len(vh) - rank, m, m))
        D[:, i, j] = D[:, j, i] = vh[rank:] / w
        return AffineSlice(base=self.sigma, directions=tuple(D))

    @cached_property
    def radius(self) -> float:
        """Half the smallest eigenvalue of ``Sigma``, taken at the
        frame's scale ``Sigma 2^-e``, so ``2^k Sigma`` has 2^k times it."""
        k, A = _unit_scale(self.sigma)
        return math.ldexp(0.5 * float(np.linalg.eigvalsh(A)[0]), -k)


def _point(model, Sigma) -> _Point:
    """The record of ``model`` at ``Sigma``: the one the model keeps when
    ``Sigma`` as a float array has the shape and bytes of the
    last point it was asked about, else a new one, which it then keeps.
    A ``Sigma`` that fails a check leaves the kept record as it was."""
    A = _reals(Sigma, "Sigma")
    key = (A.shape, A.tobytes())
    point = vars(model).get("_last_point")
    if point is None or point.key != key:
        point = _Point(model, check_symmetric(A), key)
        vars(model)["_last_point"] = point
    return point


def lognormal_basis(model, Sigma) -> AffineSlice:
    """The log-normal matrix space of the model at ``Sigma``.

    Solves the linear system ``tr(K D K T_k) = 0`` over symmetric
    directions ``D`` (with ``K = Sigma^{-1}`` and ``T_k`` the tangent
    basis) and returns ``Sigma`` plus an orthonormal basis of the
    solution space.  ``Sigma`` must be a point of the model; the system
    is solved at the scale of :func:`_unit_scale`, so ``2^k Sigma`` has
    the directions of ``Sigma``.
    """
    slice_ = _point(model, Sigma).slice
    return AffineSlice(base=slice_.base.copy(),
                       directions=tuple(D.copy() for D in slice_.directions))


def in_spectrahedron(model, Sigma, S, tol: float = CRITICAL_TOL) -> bool:
    """Is ``S`` in the log-normal spectrahedron of the model at ``Sigma``?

    True when ``S`` is positive definite and the score of ``S`` at
    ``Sigma`` is trace-orthogonal to the tangent space within ``tol``
    (largest normalised component) at ``(Sigma, S) 2^-e``, with the
    largest diagonal entry of ``Sigma 2^-e`` in [1/2, 1): for a
    correlation family, ``e = 1``.  A residual that is not finite, as
    when ``S 2^-e`` overflows, is outside.  ``Sigma`` must be a point of
    the model.
    """
    return _point(model, Sigma).status(_matrix(S, "S", model.dim),
                                       _positive(tol, "tol")) is None


def cell_membership(model, Sigma, S, opts: Optional[SolverOptions] = None
                    ) -> MembershipVerdict:
    """Decide whether ``S`` lies in the logarithmic Voronoi cell of ``Sigma``.

    The sample is first tested for positive definiteness and
    spectrahedron membership (at ``CRITICAL_TOL``).  For
    the ``degree_one`` families the cell equals the spectrahedron and
    the verdict is immediate.  Otherwise all critical points of ``S``
    on the model are enumerated and the log-likelihood of ``Sigma`` is
    compared against the best competitor; ties within ``TIE_TOL`` count
    as membership.  ``Sigma`` must be a nonsingular model point; one
    off the model raises :class:`PreconditionFailed`.
    """
    point = _point(model, Sigma)
    Sg, Ss = point.sigma, _matrix(S, "S", model.dim)
    status = point.status(Ss, CRITICAL_TOL)
    if status is not None:
        return MembershipVerdict(status=status)
    if model.degree_one:
        return MembershipVerdict(status=IN_CELL)

    best_effort = model.best_effort
    points = model.critical_points(Ss, opts or SolverOptions())
    base_ll = _loglik(Sg, Ss)
    others = [cp for cp in points if not _same_point(cp.sigma, Sg)]
    if not others:
        return MembershipVerdict(status=IN_CELL, best_effort=best_effort)
    best = others[0]          # points are sorted by descending log-likelihood
    margin = base_ll - best.loglik
    if margin >= -TIE_TOL:
        return MembershipVerdict(status=IN_CELL, margin=margin,
                                 best_effort=best_effort)
    return MembershipVerdict(status=IN_SPECTRAHEDRON_NOT_CELL, witness=best,
                             margin=margin, best_effort=best_effort)


def _same_point(P: np.ndarray, Sg: np.ndarray) -> bool:
    """Is the critical point ``P`` the point ``Sg`` itself, up to 1e-6
    of the largest diagonal entry of ``Sg``?"""
    return bool(np.abs(P - Sg).max() <= 1e-6 * Sg.diagonal().max())


def _equi_half_trace(m: int, c: float, b):
    """The half-trace ``a`` that the log-normal slice of the m x m
    equicorrelation point with off-diagonal ``c != 0`` ties to the mean
    off-diagonal ``b`` of a sample; ``b`` may be an array."""
    return (((m - 2) * c * c + (m - 1) * b * c * c - (m - 1) * c ** 3 + b + c)
            / (c * c * m - 2.0 * c * c + 2.0 * c))


def _equi_slice(m: int, c: float, S) -> tuple:
    """The validated m x m sample ``S`` and its statistics ``(a, b, Sbar)``
    (:func:`_symmetrize`); :class:`OutOfRange` unless ``c`` is in the
    positive definite interval, :class:`NotOnSlice` unless ``(a, b)`` is
    on the slice of the equicorrelation point ``c``."""
    A = _matrix(S, "S", m)
    a, b, Sbar = _symmetrize(A)
    equicorrelation_matrix(m, c)            # checks the interval of c
    if c == 0.0 and abs(b) > SLICE_TOL * (1.0 + abs(a)):
        raise NotOnSlice("slice of c = 0 needs mean off-diagonal zero")
    # the slice of c = 0 pins only b; any other c ties a to b
    a_expect = _equi_half_trace(m, c, b) if c else a
    if abs(a - a_expect) > SLICE_TOL * (1.0 + abs(a_expect)):
        raise NotOnSlice(f"half-trace {a} is off the slice value {a_expect}")
    return A, a, b, Sbar


def bivariate_cell(c: float, S) -> bool:
    """Closed-form cell membership for the 2 x 2 correlation family.

    ``S`` must be positive definite and lie on the log-normal slice of
    the correlation matrix with off-diagonal ``c`` (both checked; the
    slice ties the half-trace ``a`` to ``b = S_12``).  On the slice the
    cell is decided by the sign of ``b`` alone -- ``b >= 0`` for
    ``c > 0``, ``b <= 0`` for ``c < 0`` -- and by ``a >= 1/2`` for the
    diagonal point ``c = 0``.
    """
    c = _real(c, "c")
    A, a, b, _ = _equi_slice(2, c, S)
    if not _is_pd(A):
        raise NotOnSlice("S is not positive definite")
    return a >= 0.5 if c == 0.0 else _bivariate_side(c, b)


def _bivariate_side(c: float, b):
    """The bivariate cell on the slice of ``c != 0``: ``b`` has its sign."""
    return b >= 0.0 if c > 0.0 else b <= 0.0


def equicorrelation_cell(m: int, c: float, S) -> bool:
    """Cell membership for the equicorrelation family.

    The symmetrised statistics ``(a, b)`` of ``S`` must satisfy the
    slice relation of the value ``c`` (checked; :class:`NotOnSlice`
    otherwise).  Membership then reduces to comparing the
    log-likelihood of ``c`` with that of the best critical point of
    the symmetrised sample, a root of the critical cubic; ``S`` itself
    must also be positive definite.  For ``m = 2`` this reproduces
    :func:`bivariate_cell`.
    """
    model = Equicorrelation(m)
    c = _real(c, "c")
    A, a, _, Sbar = _equi_slice(model.m, c, S)
    if not _is_pd(A):
        return False
    if c == 0.0:
        return a >= 0.5
    best = model.critical_points(Sbar, None)[0]
    return _loglik(equicorrelation_matrix(model.m, c), Sbar) \
        >= best.loglik - TIE_TOL


def _ci_union_strip(Sigma: np.ndarray, S):
    """The strip condition of :func:`ci_union_cell` at the nonsingular
    point ``Sigma``, for one 3 x 3 ``S`` or an ``(N, 3, 3)`` stack.
    Component two is the mirror image of component one under reversing
    the vertex order."""
    if CiUnion._side(Sigma) == 2:
        Sigma, S = Sigma[::-1, ::-1], S[..., ::-1, ::-1]
    return np.abs(S[..., 0, 1]) <= (abs(Sigma[1, 2])
                                    * np.sqrt(Sigma[0, 0] / Sigma[2, 2]))


def ci_union_cell(Sigma, S) -> bool:
    """Closed-form cell membership for the union of two CI planes.

    At a nonsingular model point the slice frees exactly two entries of
    ``S`` and the cell is a strip inside the spectrahedron ellipse:
    with component-one data ``(t1, t2, t3, t4)`` the condition is
    ``S positive definite and |S_12| <= |t3| sqrt(t1 / t4)``; the
    component-two rule mirrors it with ``|S_23| <= |s2| sqrt(s4 / s1)``.
    At a singular (diagonal) point the three off-diagonal entries of
    ``S`` are free, and membership asks that ``S`` be positive definite
    along with the two matrices obtained by zeroing ``S_23``
    respectively ``S_12``.
    """
    Sg = _matrix(Sigma, "Sigma", 3, pd=True)
    Ss = _matrix(S, "S", 3)
    if not CiUnion().contains(Sg, SLICE_TOL):
        raise NotOnSlice("Sigma is not a union-model point")
    # the slice pins the diagonal and the free entry of Sigma's component
    side = CiUnion._side(Sg)
    pinned = [(0, 0), (1, 1), (2, 2)]
    if side:
        pinned.append(CiUnion._FREE[side])
    tol = SLICE_TOL * float(Sg.diagonal().max())
    for (i, j) in sorted(pinned):
        if abs(Ss[i, j] - Sg[i, j]) > tol:
            raise NotOnSlice(
                f"S[{i + 1},{j + 1}] is not pinned to Sigma on the slice")
    if side:
        # outside the strip the other component's critical point of S
        # wins, unless it is Sigma itself, as cell_membership counts it
        return _is_pd(Ss) and (_ci_union_strip(Sg, Ss) or _same_point(
            CiUnion._planes(Ss)[2 - side], Sg))
    # singular (diagonal) point: x = S_12, y = S_13, z = S_23 free.
    # The pair of conditions does not imply that S itself is positive
    # definite (e.g. x = z = 0.9, y = 0 on the identity), so the
    # ambient condition is checked separately.
    x, y, z = Ss[0, 1], Ss[0, 2], Ss[1, 2]
    d1, d2, d3 = Sg[0, 0], Sg[1, 1], Sg[2, 2]
    M1 = np.array([[d1, x, y], [x, d2, 0.0], [y, 0.0, d3]])
    M2 = np.array([[d1, 0.0, y], [0.0, d2, z], [y, z, d3]])
    return _is_pd(Ss) and _is_pd(M1) and _is_pd(M2)


def _glue(dec, m: int, Sg, A1, A2) -> np.ndarray:
    """``inv([inv(A1)] + [inv(A2)] - [inv(Sigma_TT)])``, symmetrised, on
    the decomposition ``dec`` of an m-vertex graph; :class:`NotPD` when
    the glued concentration is not positive definite."""
    U, T, W = dec.U, dec.T, dec.W
    L = embed(np.linalg.inv(A1), U, U, m) + embed(np.linalg.inv(A2), W, W, m)
    if T:
        L -= embed(np.linalg.inv(principal_submatrix(Sg, T)), T, T, m)
    if not _is_pd((L + L.T) / 2.0):
        raise NotPD("glued concentration is not positive definite")
    S = np.linalg.inv(L)
    return (S + S.T) / 2.0


def compose_cell(G: Graph, Sigma, S1, S2, M) -> np.ndarray:
    """Assemble a cell member of a reducible graph model from its pieces.

    Given the separator decomposition ``(U, T, W)`` of ``G``, cell
    members ``S1`` (for the U side at ``Sigma_UU``) and ``S2`` (for the
    W side at ``Sigma_WW``), and a symmetric ``M`` vanishing on the
    ``U x U`` and ``W x W`` blocks (to 1e-12 of Sigma's largest diagonal
    entry), returns ``inv([inv(S1)] + [inv(S2)] - [inv(Sigma_TT)]) + M``.
    Invalid pieces raise :class:`PreconditionFailed`; a result outside
    the positive definite cone raises :class:`NotPD`.
    """
    Sg = _matrix(Sigma, "Sigma", G.m)
    dec = find_reducible_decomposition(G)
    if dec is None:
        raise PreconditionFailed("graph admits no clique-separator decomposition")
    U, W = dec.U, dec.W

    A1 = _matrix(S1, "S1", len(U))
    A2 = _matrix(S2, "S2", len(W))
    Mk = _matrix(M, "M", G.m)

    for name, side, block, piece in (("S1", "U", U, A1), ("S2", "W", W, A2)):
        sub = GraphModel(induced_subgraph(G, block))
        status = _Point(sub, principal_submatrix(Sg, block)).status(
            piece, CRITICAL_TOL)
        if status is not None:
            raise PreconditionFailed(
                f"{name} is not in the {side}-side cell ({status})")
    tol = 1e-12 * float(Sg.diagonal().max())
    for block in (U, W):
        if float(np.abs(principal_submatrix(Mk, block)).max()) > tol:
            raise PreconditionFailed(
                "M must vanish on the U x U and W x W blocks")

    S = _glue(dec, G.m, Sg, A1, A2) + Mk
    if not _is_pd(S):
        raise NotPD("composed sample is not positive definite")
    return S


def project_cell(G: Graph, Sigma, S) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a cell member of a reducible graph model into its pieces.

    Returns ``(S_UU, S_WW, M)`` where ``M`` is the off-block remainder
    ``S - inv([inv(S_UU)] + [inv(S_WW)] - [inv(Sigma_TT)])``;
    :func:`compose_cell` reassembles ``S`` from the triple.  ``S`` must
    be in the cell of ``Sigma``.
    """
    model = GraphModel(G)           # alive while its record is used
    point = _point(model, Sigma)
    Ss = _matrix(S, "S", G.m)
    dec = find_reducible_decomposition(G)
    if dec is None:
        raise PreconditionFailed("graph admits no clique-separator decomposition")
    status = point.status(Ss, CRITICAL_TOL)
    if status is not None:
        raise PreconditionFailed(f"S is not in the cell of Sigma ({status})")
    A1 = principal_submatrix(Ss, dec.U)
    A2 = principal_submatrix(Ss, dec.W)
    return A1, A2, Ss - _glue(dec, G.m, point.sigma, A1, A2)


def sample_spectrahedron(model, Sigma, count: int, seed: int = 0,
                         radius: Optional[float] = None) -> list[np.ndarray]:
    """Draw positive definite samples from the log-normal spectrahedron.

    Proposals are Gaussian steps along the slice directions with the
    given ``radius`` (default: half the smallest eigenvalue of
    ``Sigma``, taken at ``Sigma 2^-e`` as the slice is, so ``2^k Sigma``
    draws 2^k times the samples of ``Sigma``); a rejected (non-PD)
    proposal halves the radius for that sample and redraws, up to 200
    proposals per sample.  Deterministic for a fixed seed.  Proposals
    are built and tested as a stack, with one :func:`pd_mask` call per
    batch; after a rejection only the next proposal, the retry, is built
    and tested again, so the random stream and the samples are those of
    testing one proposal at a time.
    """
    count, seed = _integer(count, "count", 0), _integer(seed, "seed", 0)
    point = _point(model, Sigma)
    slice_ = point.slice
    radius = _positive(point.radius if radius is None else radius, "radius")
    rng = np.random.default_rng(seed)
    base, dirs = slice_.base, slice_.directions

    def proposals(coeff):
        S = np.repeat(base[None], len(coeff), axis=0)
        for i, D in enumerate(dirs):
            S += coeff[:, i, None, None] * D
        return S

    out: list[np.ndarray] = []
    r, tries = radius, 0            # radius and proposals of the next sample
    # a proposal that overflows is not finite, and pd_mask rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        while len(out) < count:
            if tries == 200:
                raise SamplingExhausted(
                    "none of 200 proposals was positive definite, at radius "
                    f"{radius:.6g} first and {2 * r:.6g} last")
            # draw only normals that will be used: one row per sample still
            # wanted, and no more rows than the next sample has proposals left
            Z = rng.standard_normal((min(count - len(out), 200 - tries),
                                     len(dirs)))
            coeff = Z * radius
            coeff[0] = Z[0] * r
            S = proposals(coeff)
            ok = pd_mask(S)
            for i in range(len(Z)):
                if i and tries:             # a retry: only this row changes
                    S[i] = proposals(Z[i:i + 1] * r)[0]
                    ok[i] = pd_mask(S[i:i + 1])[0]
                if ok[i]:
                    out.append(S[i])
                    r, tries = radius, 0
                else:
                    r, tries = r * 0.5, tries + 1
    return out


def verdict_to_json(v: MembershipVerdict) -> dict:
    """Encode a membership verdict (status, margin, optional witness)."""
    out: dict = {"status": v.status,
                 "margin": None if v.margin is None else float(v.margin)}
    if v.witness is not None:
        out["witness"] = {"point": sym_to_json(v.witness.sigma),
                          "loglik": float(v.witness.loglik)}
    else:
        out["witness"] = None
    if v.best_effort:
        out["best_effort"] = True
    return out
