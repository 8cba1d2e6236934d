"""Maximum likelihood solvers and critical point enumeration.

Each model family's ``critical_points`` method calls the solver its
geometry calls for: Newton iteration on the concentration coefficients
for linear concentration models, the closed-form clique formula along a
perfect elimination order for decomposable graphs, exact per-vertex
regressions for DAGs, closed-form cubics for the equicorrelation family
(the bivariate family is its m = 2 case), and seeded multistart
root-finding on the tangential score equations for unrestricted
correlation matrices.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _fits, _is_pd, _logdet, _loglik, _matrix, _score, \
    _unit_scale, pd_mask
from .errors import (
    DegenerateLeadingCoefficient,
    InvalidModel,
    NoConvergence,
    NoInteriorPoint,
    NotChordal,
    OutOfRange,
)
from .graphs import Graph, adjacency, is_chordal
from .models import Equicorrelation, GraphModel, LinearConcentration, \
    SemParams, _sem_fit, as_concentration, sem_covariance

#: Newton steps that :func:`mle_concentration` takes before it gives up.
NEWTON_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """A real positive definite critical point of the likelihood.

    ``source`` records how the point was obtained: ``"unique"`` for the
    strictly concave / degree-one solvers, ``"cubic-root"`` for the
    closed-form cubic families, ``"closed-form"`` for the union model
    and ``"multistart"`` for the correlation search.
    """

    sigma: np.ndarray
    loglik: float
    source: str


@dataclass(frozen=True)
class SolverOptions:
    """Options of the multistart search (and seeds elsewhere)."""

    starts: int = 512
    seed: int = 0
    tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        if not self.starts >= 1:
            raise OutOfRange(f"starts must be at least 1, got {self.starts!r}")
        if not self.seed >= 0:
            raise OutOfRange(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.max_iter >= 1:
            raise OutOfRange(
                f"max_iter must be at least 1, got {self.max_iter!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise OutOfRange(
                f"tol must be finite and positive, got {self.tol!r}")


def options_from_json(obj) -> SolverOptions:
    """Decode solver options, falling back to the defaults field by field.

    Each value must have its field's JSON type (:func:`_option_value`),
    and an unknown key raises :class:`InvalidModel` naming it; ranges are
    checked by :class:`SolverOptions`.  Every error names the field as
    ``options.<field>``.
    """
    if obj is None:
        return SolverOptions()
    if not isinstance(obj, dict):
        raise InvalidModel("solver options must be a JSON object")
    try:
        return SolverOptions(**{name: _option_value(name, value)
                                for name, value in obj.items()})
    except OutOfRange as exc:
        raise OutOfRange(f"options.{exc}") from None


def _option_value(name: str, value):
    """The JSON value of the solver option ``name``: an integer for
    ``starts``, ``seed`` and ``max_iter``, a number for ``tol`` (a
    boolean is neither).  :class:`InvalidModel` names an unknown option
    or the field of a wrong type; :class:`OutOfRange` a ``tol`` too
    large for a float."""
    if name not in ("starts", "seed", "tol", "max_iter"):
        raise InvalidModel(f'unknown solver option "{name}"; expected '
                           "starts, seed, tol or max_iter")
    kinds, what = ((int, float), "a number") if name == "tol" \
        else (int, "an integer")
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InvalidModel(
            f"options.{name} must be {what}, got {json.dumps(value)}")
    if name != "tol":
        return value
    try:
        return float(value)
    except OverflowError:
        raise OutOfRange("tol must be finite, got an integer too large "
                         "for a float") from None


def equicorrelation_cubic(m: int, a: float, b: float) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the equicorrelation critical cubic.

    The critical equicorrelation values for symmetrised statistics
    ``(a, b)`` are the roots of

        (m-1) x^3 + ((m-2)(a-1) - (m-1) b) x^2 + (2a-1) x - b

    in the positive definite interval.  For ``m = 2`` this is the
    bivariate critical cubic ``x^3 - b x^2 - (1-2a) x - b``.
    """
    m = Equicorrelation(m).m            # checks m >= 2
    return (float(m - 1),
            float((m - 2) * (a - 1.0) - (m - 1) * b),
            float(2.0 * a - 1.0),
            float(-b))


def bivariate_discriminant(a: float, b: float) -> float:
    """Discriminant of the bivariate critical cubic.

    Evaluates ``-4 (b^4 - (a^2 + 8a - 11) b^2 + (2a - 1)^3)``, the
    standard cubic discriminant of ``x^3 - b x^2 - (1-2a) x - b``.  The
    sign determines the number of real critical correlation values:
    positive means three distinct real roots, negative means one.
    """
    a = float(a)
    b = float(b)
    return -4.0 * (b ** 4 - (a * a + 8.0 * a - 11.0) * b ** 2
                   + (2.0 * a - 1.0) ** 3)


def cubic_roots_in_interval(c3: float, c2: float, c1: float, c0: float,
                            lo: float, hi: float) -> list[float]:
    """Real roots of ``c3 x^3 + c2 x^2 + c1 x + c0`` strictly inside (lo, hi).

    Roots are the eigenvalues of the companion matrix, polished by one
    Newton step, deduplicated at 1e-10 and returned sorted ascending.
    """
    if c3 == 0.0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")

    def p(x):
        return ((c3 * x + c2) * x + c1) * x + c0

    def dp(x):
        return (3.0 * c3 * x + 2.0 * c2) * x + c1

    out = []
    for z in np.roots([c3, c2, c1, c0]):
        if abs(z.imag) > 1e-7 * (1.0 + abs(z)):
            continue
        x = float(z.real)
        d = dp(x)
        if d != 0.0:
            step = p(x) / d
            if abs(step) < 1e-2:    # skip the polish near double roots
                x -= step
        if lo < x < hi:
            out.append(x)
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or x - dedup[-1] > 1e-10:
            dedup.append(x)
    return dedup


def mle_concentration(model: LinearConcentration, S) -> CriticalPoint:
    """Newton MLE for a linear concentration model.

    Maximises ``log det K - tr(S K)`` over positive definite
    ``K = sum_j lam_j K_j``.  The iteration starts from the trace
    projection of ``S^{-1}`` onto the span (falling back to the
    projection of the identity, rescaled); steps are halved until the
    iterate stays positive definite and the strictly concave objective
    increases.  Once the predicted gain falls below the floating-point
    resolution of the objective, feasible steps are accepted without a
    measured increase so the final Newton steps are not rejected as
    noise.  Converged when every fitted trace matches its sample trace
    to 1e-10 relative accuracy within ``NEWTON_MAX_ITER`` steps.
    """
    if isinstance(model, GraphModel):
        model = as_concentration(model)
    if not isinstance(model, LinearConcentration):
        raise InvalidModel("mle_concentration needs a concentration model")
    return _concentration_point(model, _matrix(S, "S", model.dim, pd=True))


def _concentration_point(model, S: np.ndarray) -> CriticalPoint:
    """:func:`mle_concentration` of a validated sample, fitted at the scale
    of :func:`_unit_scale`, where the stopping test is relative."""
    k, A = _unit_scale(S)
    m = model.dim
    B = np.stack(model.basis)               # (d, m, m)
    d = B.shape[0]
    Bf = B.reshape(d, -1)
    gram = Bf @ Bf.T
    target = Bf @ A.ravel()

    def project(Mat):
        return np.linalg.solve(gram, Bf @ Mat.ravel())

    lam = project(np.linalg.inv(A))
    K = np.tensordot(lam, B, 1)
    if not _is_pd(K):
        lam = project(np.eye(m))
        K = np.tensordot(lam, B, 1)
        if not _is_pd(K):
            raise NoInteriorPoint(
                "no positive definite matrix found in the span")
        # rescale so the fitted trace against S matches its optimum value
        lam = lam * (m / float(np.vdot(A, K)))
        K = np.tensordot(lam, B, 1)

    def phi(K):
        return _logdet(K) - float(np.vdot(A, K))

    val = phi(K)
    for _ in range(NEWTON_MAX_ITER):
        Sigma = np.linalg.inv(K)
        Sigma = (Sigma + Sigma.T) / 2.0
        fitted = Bf @ Sigma.ravel()
        grad = fitted - target
        if np.all(np.abs(grad) < 1e-10 * (1.0 + np.abs(target))):
            return _critical_point(np.ldexp(Sigma, -k), S, "unique")
        # H_ij = tr(Sigma B_i Sigma B_j)
        P = Sigma @ B
        H = P.reshape(d, -1) @ P.transpose(0, 2, 1).reshape(d, -1).T
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular Newton system") from exc
        slope = float(grad @ step)
        # Below this, objective differences drown in rounding noise and
        # the sufficient-increase test cannot certify progress; accept
        # any feasible step that does not measurably decrease the value
        # (the terminal Newton steps live entirely in this regime).
        noise = 16.0 * np.finfo(float).eps * (1.0 + abs(val))
        t = 1.0
        for _ in range(60):
            cand = lam + t * step
            Kc = np.tensordot(cand, B, 1)
            try:
                cand_val = phi(Kc)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            needed = 1e-4 * t * slope
            if cand_val >= val + needed or (needed <= noise
                                            and cand_val >= val - noise):
                lam, K, val = cand, Kc, cand_val
                break
            t *= 0.5
        else:
            raise NoConvergence("line search failed to make progress")
    raise NoConvergence(
        f"no convergence after {NEWTON_MAX_ITER} Newton steps")


def mle_graph_decomposable(G: Graph, S) -> CriticalPoint:
    """Closed-form MLE for a chordal graph (Lauritzen, *Graphical
    Models*, 1996).

    Along the perfect elimination order of :func:`is_chordal`, let
    ``pa(v)`` be the neighbours of ``v`` that come later (a clique) and
    ``fa(v) = pa(v) + {v}``.  The fitted concentration is
    ``K = sum_v [inv(S_fa(v))] - [inv(S_pa(v))]``, each block embedded
    into the full dimension; equal blocks cancel before they are
    inverted, which leaves the cliques minus the separators.  ``K`` is
    inverted once.  Complete graphs return the sample itself;
    non-chordal graphs raise :class:`NotChordal`.
    """
    A = _matrix(S, "S", G.m, pd=True)
    chordal, order = is_chordal(G)
    if not chordal:
        raise NotChordal("decomposable MLE needs a chordal graph")
    return _decomposable_point(G, A, order)


def _decomposable_point(G: Graph, A: np.ndarray, order) -> CriticalPoint:
    """:func:`mle_graph_decomposable` on a validated sample and a perfect
    elimination order of ``G``, at the scale of :func:`_unit_scale`."""
    m = G.m
    if G.is_complete():
        Sigma = A.copy()
    else:
        adj = adjacency(G)
        pos = {v: k for k, v in enumerate(order)}
        weight: Counter = Counter()
        for v in order:
            pa = tuple(sorted(u for u in adj[v] if pos[u] > pos[v]))
            weight[tuple(sorted(pa + (v,)))] += 1
            if pa:
                weight[pa] -= 1
        K = np.zeros((m, m))
        k, B = _unit_scale(A)
        for block, w in weight.items():
            if w:
                idx = np.ix_([v - 1 for v in block], [v - 1 for v in block])
                K[idx] += w * np.linalg.inv(B[idx])
        Sigma = np.ldexp(np.linalg.inv(K), -k)
        Sigma = (Sigma + Sigma.T) / 2.0
    return _critical_point(Sigma, A, "unique")


def mle_dag(dag, S) -> tuple[SemParams, CriticalPoint]:
    """Exact MLE of a DAG model via per-vertex regressions."""
    A = _matrix(S, "S", dag.m, pd=True)
    params = _sem_fit(dag, A)
    return params, _critical_point(sem_covariance(dag, params), A, "unique")


def criticality_residual(model, Sigma, S) -> float:
    """Largest score component along the model's tangent directions.

    Tangent matrices are normalised to unit Frobenius norm, so the
    residual is scale-invariant in the tangent basis.  Zero residual
    means ``Sigma`` is a critical point of the likelihood of ``S``
    restricted to the model.
    """
    return _residual(model, _matrix(Sigma, "Sigma", model.dim, pd=True),
                     _matrix(S, "S", model.dim))


def _residual(model, Sg: np.ndarray, Ss: np.ndarray) -> float:
    """:func:`criticality_residual` of validated matrices, taken for the
    scale-invariant degree-one families at :func:`_unit_scale`."""
    k, Sg, Ss = _unit_scale(Sg, Ss) if model.degree_one else (0, Sg, Ss)
    sc = _score(Sg, Ss)
    worst = 0.0
    for T in model.tangent_basis(Sg):
        nrm = float(np.linalg.norm(T))
        if nrm == 0.0:
            continue
        worst = max(worst, abs(float(np.sum(sc * T))) / nrm)
    return math.ldexp(worst, k)


def _critical_point(Sigma: np.ndarray, A: np.ndarray,
                    source: str) -> CriticalPoint:
    """The critical point ``Sigma`` of the validated sample ``A``, with
    its log-likelihood; :class:`NotPD` when ``Sigma`` fails the PD test."""
    return CriticalPoint(sigma=_fits(Sigma, "Sigma", pd=True),
                         loglik=_loglik(Sigma, A), source=source)


class _CorrChart:
    """Off-diagonal coordinates of m x m unit-diagonal matrices.

    Parameter ``l`` is the ``l``-th entry ``(i_l, j_l)`` of the strict
    upper triangle in row-major order.  The index arrays are built once
    per problem and shared by every batched call of the multistart.
    """

    def __init__(self, m: int):
        iu, ju = np.triu_indices(m, 1)
        self.m = m
        self.p = iu.size
        self.upper = iu * m + ju            # flat positions of the parameters
        self.lower = ju * m + iu
        self.eye = np.eye(m).ravel()
        # Jacobian gather: rows (i_l then j_l) by columns (i_l then j_l)
        pairs = np.concatenate([iu, ju])
        self.rows = pairs[:, None]
        self.cols = pairs[None, :]

    def matrices(self, X: np.ndarray) -> np.ndarray:
        """(N, p) parameter rows -> (N, m, m) unit-diagonal matrices."""
        Sig = np.tile(self.eye, (X.shape[0], 1))
        Sig[:, self.upper] = X
        Sig[:, self.lower] = X
        return Sig.reshape(-1, self.m, self.m)

    def params(self, M: np.ndarray) -> np.ndarray:
        """(N, m, m) matrices -> (N, p) strict upper triangles."""
        return M.reshape(len(M), self.m * self.m)[:, self.upper]


#: Backtracking steps 2^-k (k = 0..14) of the multistart line search,
#: grouped into the blocks that are tested together.  Nearly every row
#: takes the full step, and a row that backtracks deep reaches its step
#: in four batched evaluations instead of up to fifteen sequential ones.
#: A row that needs a step below 2^-14 is dropped as stalled.  A row
#: that keeps needing such steps covers under 0.3 % of its Newton step
#: in the default 100 iterations, and each of them cost a full deep
#: backtrack: at m = 4 to 6 the rows that stalled anyway caused 65 to
#: 77 % of all candidate evaluations.  The few rows that would converge
#: after a step that small are dropped with them.
_STEP_BLOCKS = tuple(np.ldexp(1.0, -np.arange(lo, hi))
                     for lo, hi in ((0, 1), (1, 3), (3, 7), (7, 15)))

#: Float entries per batched temporary of the Jacobian gathers and the
#: line-search candidate evaluations, which run in row chunks of this
#: size.  The starts themselves and the residuals at the top of each
#: Newton iteration are (starts, m, m) arrays built unchunked, so memory
#: still grows linearly with the number of starts.
_CHUNK_ENTRIES = 1 << 15


def _onion_starts(chart: _CorrChart, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """``n`` parameter rows drawn uniformly from the open elliptope.

    The onion method of Lewandowski, Kurowicka and Joe (2009) at
    ``eta = 1``: row ``k`` of the Cholesky factor is
    ``(sqrt(y) u, sqrt(1 - y))`` with ``y ~ Beta(k/2, (m+1-k)/2)`` and
    ``u`` uniform on the unit sphere of R^k.  Each off-diagonal entry is
    distributed as ``2 Beta(m/2, m/2) - 1``.  Rows whose unit-diagonal
    matrix fails :func:`pd_mask` are drawn again.
    """
    m = chart.m
    chunks, have = [], 0
    for _ in range(100):
        if have >= n:
            return np.concatenate(chunks)[:n]
        L = np.zeros((n - have, m, m))
        L[:, 0, 0] = 1.0
        for k in range(1, m):
            y = rng.beta(k / 2.0, (m + 1 - k) / 2.0, size=n - have)
            u = rng.standard_normal((n - have, k))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            L[:, k, :k] = np.sqrt(y)[:, None] * u
            L[:, k, k] = np.sqrt(1.0 - y)
        X = chart.params(L @ np.transpose(L, (0, 2, 1)))
        X = X[pd_mask(chart.matrices(X))]
        chunks.append(X)
        have += len(X)
    raise NoConvergence("could not draw positive definite starting points")


def _corr_residuals(chart: _CorrChart, S: np.ndarray, Sig: np.ndarray):
    """``K = inv(Sig)``, ``W = K S K`` and the residual rows
    ``F = upper(K - W)`` of a stack of positive definite matrices."""
    K = np.linalg.inv(Sig)
    W = K @ S @ K
    return K, W, chart.params(K - W)


def _newton_directions(chart: _CorrChart, K: np.ndarray, W: np.ndarray,
                       F: np.ndarray) -> np.ndarray:
    """Newton steps ``delta`` with ``J delta = -F`` for every row.

    ``J`` is the exact Jacobian of ``F = upper(K - K S K)`` in the
    parameters.  Along ``E_ij + E_ji`` the derivative of ``K`` is
    ``-K (E_ij + E_ji) K``, so

        J[(a,b),(i,j)] = -(K_ai K_jb + K_aj K_ib)
                         + K_ai W_jb + K_aj W_ib + W_ai K_jb + W_aj K_ib,

    read off one gather of ``K`` and ``W`` at rows ``(a, b)`` and
    columns ``(i, j)``, in row chunks.  A chunk holding a singular
    Jacobian falls back to least squares row by row.
    """
    p = chart.p
    rows = max(1, _CHUNK_ENTRIES // (8 * p * p))
    delta = np.empty_like(F)
    for lo in range(0, len(F), rows):
        sl = slice(lo, lo + rows)
        Z = np.stack((K[sl], W[sl]), axis=1)[:, :, chart.rows, chart.cols]
        Ka, Kb = Z[:, 0, :p], Z[:, 0, p:]   # rows a / rows b; columns i, j
        Wa, Gb = Z[:, 1, :p], Z[:, 1, p:] - Kb
        J = (Ka[..., :p] * Gb[..., p:] + Ka[..., p:] * Gb[..., :p]
             + Wa[..., :p] * Kb[..., p:] + Wa[..., p:] * Kb[..., :p])
        try:
            delta[sl] = np.linalg.solve(J, -F[sl, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for r in range(len(J)):
                delta[lo + r] = np.linalg.lstsq(J[r], -F[lo + r],
                                                rcond=None)[0]
    return delta


def _line_search(x: np.ndarray, delta: np.ndarray, rnorm: np.ndarray,
                 residual_norm) -> tuple[np.ndarray, np.ndarray]:
    """Backtracking along each row's Newton step.

    Row ``r`` takes the first ``t = 2^-k``, ``k = 0..14``, with
    ``residual_norm(x_r + t delta_r) <= (1 - 1e-4 t) rnorm_r``, exactly
    as a loop that halves ``t`` fifteen times would.  The steps are
    tested in the blocks of ``_STEP_BLOCKS``: every row still searching
    evaluates all steps of the next block in one batched call.  Returns
    the steps taken (0 where none of at least 2^-14 passed) and the new
    rows (unchanged where none passed).  The 2^-14 floor ends the search
    for rows that crawl; see ``_STEP_BLOCKS``.
    """
    n, p = x.shape
    steps = np.zeros(n)
    x_new = x.copy()
    rem = np.arange(n)
    for ts in _STEP_BLOCKS:
        if rem.size == 0:
            break
        cand = x[rem, None, :] + ts[:, None] * delta[rem, None, :]
        rc = residual_norm(cand.reshape(-1, p)).reshape(rem.size, ts.size)
        good = rc <= (1.0 - 1e-4 * ts) * rnorm[rem, None]
        hit = good.any(axis=1)
        first = good[hit].argmax(axis=1)
        x_new[rem[hit]] = cand[hit, first]
        steps[rem[hit]] = ts[first]
        rem = rem[~hit]
    return steps, x_new


def _correlation_multistart(m: int, S: np.ndarray,
                            opts: SolverOptions) -> list[CriticalPoint]:
    """Damped-Newton multistart on the tangential score equations.

    For a unit-diagonal model the score must be diagonal at a critical
    point, so the residual is the strict upper triangle of
    ``K - K S K`` with ``K`` the inverse of the candidate.  The
    ``opts.starts`` starting points are drawn uniformly from the
    elliptope by the onion method (:func:`_onion_starts`), which works
    in every dimension.  All starts iterate in one batch: each Newton
    iteration computes the residuals, the exact Jacobians and their
    solves with a few batched calls, then runs the blocked backtracking
    of :func:`_line_search`, in which a candidate must pass
    :func:`pd_mask` and reduce the largest residual.  Starts whose line
    search finds no step of at least 2^-14 are dropped as stalled (see
    ``_STEP_BLOCKS``): nearly all of them would stall later anyway, and
    backtracking deeper spent most of the search's evaluations on them.
    Up to that step a start runs as under a deeper search, so the points
    found are a subset of those a search down to 2^-29 finds.  Starts
    whose largest residual falls below ``opts.tol`` within
    ``opts.max_iter`` iterations have converged.  Converged solutions
    are deduplicated at 1e-6 in parameter space.
    The search is exhaustive only heuristically: with the default 512
    starts it is stable on 3 x 3 problems, but for larger ``m`` some
    real critical points may be missed.
    """
    chart = _CorrChart(m)
    x = _onion_starts(chart, opts.starts, np.random.default_rng(opts.seed))

    rows = max(1, _CHUNK_ENTRIES // (m * m))

    def residual_norm(X: np.ndarray) -> np.ndarray:
        out = np.full(len(X), np.inf)
        for lo in range(0, len(X), rows):
            Sig = chart.matrices(X[lo:lo + rows])
            ok = pd_mask(Sig)
            if ok.any():
                F = _corr_residuals(chart, S, Sig[ok])[2]
                out[lo + np.flatnonzero(ok)] = np.abs(F).max(axis=1)
        return out

    active = np.ones(len(x), dtype=bool)
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(opts.max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        K, W, F = _corr_residuals(chart, S, chart.matrices(x[idx]))
        rnorm = np.abs(F).max(axis=1)
        done = rnorm < opts.tol
        converged[idx[done]] = True
        active[idx[done]] = False
        keep = ~done
        idx = idx[keep]
        if idx.size == 0:
            break
        delta = _newton_directions(chart, K[keep], W[keep], F[keep])
        steps, x[idx] = _line_search(x[idx], delta, rnorm[keep], residual_norm)
        active[idx[steps == 0.0]] = False   # stalled starts are dropped

    sols = x[converged]
    if sols.size:
        # deterministic dedup: scan in lexicographic order
        order = np.lexsort(np.round(sols, 8).T[::-1])
        kept: list[np.ndarray] = []
        for row in sols[order]:
            if all(float(np.abs(row - q).max()) > 1e-6 for q in kept):
                kept.append(row)
    else:
        kept = []
    points = [_critical_point(Sigma, S, "multistart")
              for Sigma in chart.matrices(np.array(kept).reshape(-1, chart.p))]
    if not points:
        raise NoConvergence("multistart found no critical point")
    return points


def _sorted_points(points: list[CriticalPoint]) -> list[CriticalPoint]:
    return sorted(points,
                  key=lambda cp: (-cp.loglik, tuple(np.round(cp.sigma, 12).ravel())))


def critical_points(model, S, opts: Optional[SolverOptions] = None
                    ) -> list[CriticalPoint]:
    """All real positive definite critical points of the likelihood of ``S``
    restricted to the model, sorted by descending log-likelihood.

    Enumeration is exact for every family except those flagged
    ``best_effort`` (:class:`UnrestrictedCorrelation`), which use the
    seeded multistart search.  Graph models on chordal graphs use the
    closed-form :func:`mle_graph_decomposable`, other graphs Newton's
    method.
    """
    return model.critical_points(_matrix(S, "S", model.dim, pd=True),
                                 opts or SolverOptions())
