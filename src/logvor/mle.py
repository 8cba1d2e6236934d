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
    _integer,
    _real,
)
from .graphs import Graph, adjacency, is_chordal
from .models import Equicorrelation, SemParams, _Concentration, _sem_fit, \
    sem_covariance

#: Newton steps that :func:`mle_concentration` takes before it gives up.
NEWTON_MAX_ITER = 200
#: Residual, per unit of max(1, max |S_ij|), below which a start of the
#: correlation multistart has converged.
MULTISTART_TOL = 1e-12
#: Newton iterations of each start of the correlation multistart.
MULTISTART_MAX_ITER = 100


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
    """Options of the multistart search (and seeds elsewhere), integers."""

    starts: int = 512
    seed: int = 0

    def __post_init__(self):
        _integer(self.starts, "starts", 1)
        _integer(self.seed, "seed", 0)


def options_from_json(obj) -> SolverOptions:
    """Decode solver options, falling back to the defaults field by field.

    An unknown key raises :class:`InvalidModel` naming it; the values are
    checked by :class:`SolverOptions`.  Every error names the field as
    ``options.<field>``.
    """
    if obj is None:
        return SolverOptions()
    if not isinstance(obj, dict):
        raise InvalidModel("solver options must be a JSON object")
    for name in obj:
        if name not in ("starts", "seed"):
            raise InvalidModel(f'unknown solver option "{name}"; expected '
                               "starts or seed")
    try:
        return SolverOptions(**obj)
    except (InvalidModel, OutOfRange) as exc:
        raise type(exc)(f"options.{exc}") from None


def equicorrelation_cubic(m: int, a: float, b: float) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the equicorrelation critical cubic.

    The critical equicorrelation values for symmetrised statistics
    ``(a, b)`` are the roots of

        (m-1) x^3 + ((m-2)(a-1) - (m-1) b) x^2 + (2a-1) x - b

    in the positive definite interval.  For ``m = 2`` this is the
    bivariate critical cubic ``x^3 - b x^2 - (1-2a) x - b``.
    """
    m = Equicorrelation(m).m            # checks m >= 2
    a, b = _real(a, "a"), _real(b, "b")
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
    a, b = _real(a, "a"), _real(b, "b")
    try:
        return -4.0 * (b ** 4 - (a * a + 8.0 * a - 11.0) * b ** 2
                       + (2.0 * a - 1.0) ** 3)
    except OverflowError:               # a float power beyond the largest double
        raise OutOfRange("a and b give a discriminant too large for a "
                         "double") from None


def cubic_roots_in_interval(c3: float, c2: float, c1: float, c0: float,
                            lo: float, hi: float) -> list[float]:
    """Real roots of ``c3 x^3 + c2 x^2 + c1 x + c0`` strictly inside (lo, hi).

    Roots are the eigenvalues of the companion matrix, polished by one
    Newton step, deduplicated at 1e-10 and returned sorted ascending.
    The companion matrix holds ``c2 / c3``, ``c1 / c3`` and ``c0 / c3``;
    unless ``c3`` and these are finite, :class:`OutOfRange` is raised.
    """
    c3, c2, c1, c0, lo, hi = map(_real, (c3, c2, c1, c0, lo, hi),
                                 ("c3", "c2", "c1", "c0", "lo", "hi"))
    if c3 == 0.0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if not (math.isfinite(c3)
            and all(math.isfinite(c / c3) for c in (c2, c1, c0))):
        raise OutOfRange("cubic coefficients must be finite, and c2 / c3, "
                         "c1 / c3 and c0 / c3 within the largest double")

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


def mle_concentration(model, S) -> CriticalPoint:
    """Newton MLE for a linear concentration or undirected graphical model.

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
    if not isinstance(model, _Concentration):
        raise InvalidModel("mle_concentration needs a concentration model")
    return _concentration_point(model, _matrix(S, "S", model.dim, pd=True))


def _concentration_point(model, S: np.ndarray) -> CriticalPoint:
    """:func:`mle_concentration` of a validated sample, fitted at the
    scale of :func:`_unit_scale`: there the stopping test is relative,
    and the samples ``2^k S`` take the same steps."""
    k, A = _unit_scale(S)
    m = model.dim
    B = model._stack                        # (d, m, m)
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
    elimination order of ``G``, at the scale of :func:`_unit_scale`, so
    bit for bit homogeneous.  The blocks of one size are inverted in one
    call (one LAPACK solve per block, as for a single matrix), and every
    ``w inv(S_block)`` is added into ``K`` in one call, block after block
    in the order of the weights: each entry gets the sums of a loop."""
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
        blocks = [(b, w) for b, w in weight.items() if w]
        k, B = _unit_scale(A)
        at, terms = [None] * len(blocks), [None] * len(blocks)
        for size in {len(b) for b, _ in blocks}:
            ns = [n for n, (b, _) in enumerate(blocks) if len(b) == size]
            idx = np.array([blocks[n][0] for n in ns]) - 1  # (nb, size)
            w = np.array([blocks[n][1] for n in ns], dtype=float)
            inv = np.linalg.inv(B[idx[:, :, None], idx[:, None, :]])
            flat = idx[:, :, None] * m + idx[:, None, :]
            for n, f, t in zip(ns, flat, w[:, None, None] * inv):
                at[n], terms[n] = f.ravel(), t.ravel()
        K = np.zeros(m * m)
        np.add.at(K, np.concatenate(at), np.concatenate(terms))
        Sigma = np.ldexp(np.linalg.inv(K.reshape(m, m)), -k)
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
    restricted to the model.  It is taken at the scale of
    :func:`_tangent_frame` and scaled back.
    """
    return _residual(model, _matrix(Sigma, "Sigma", model.dim, pd=True),
                     _matrix(S, "S", model.dim))


def _residual(model, Sg: np.ndarray, Ss: np.ndarray) -> float:
    """:func:`criticality_residual` of validated matrices."""
    frame = _tangent_frame(model, Sg)
    try:
        return math.ldexp(_frame_residual(frame, Ss), -frame[0])
    except OverflowError:               # a residual beyond the largest double
        return math.inf


def _tangent_frame(model, Sg: np.ndarray) -> tuple:
    """``(e, K, T, nrm)`` of the model point ``Sg``, built at ``Sg 2^-e``,
    the scale of :func:`_unit_scale`: ``K = Sigma^{-1}``, the
    tangent directions of nonzero Frobenius norm as the rows of one
    ``(d, m * m)`` array ``T``, and their norms ``nrm``.  Each norm is
    the square root of one dot product of the row with itself, as
    :func:`numpy.linalg.norm` takes it.  The scaling is exact, so the
    frame of ``2^k Sg`` differs only in ``e``."""
    k, Sg = _unit_scale(Sg)
    with np.errstate(over="ignore", invalid="ignore"):
        K = np.linalg.inv(Sg)
        T = model.tangent_basis(Sg)
        T = T.reshape(len(T), -1)
        nrm = np.sqrt(T[:, None, :] @ T[:, :, None]).ravel()
    if np.count_nonzero(nrm) < len(nrm):
        keep = nrm != 0.0
        T, nrm = T[keep], nrm[keep]
    return -k, K, T, nrm


def _frame_residual(frame: tuple, Ss: np.ndarray) -> float:
    """The largest normalised score component ``|tr(score T)| / nrm`` of
    the validated ``Ss 2^-e`` over the directions of a :func:`_tangent_frame`,
    0.0 when it has none.  Each trace is the sum of one contiguous row
    of ``score * T``, the pairwise sum that :func:`numpy.sum` takes of an
    ``m x m`` array, formed for a few directions at a time to bound the
    temporary.  A score that overflows gives an infinite or NaN
    residual, with no warning; a NaN component wins over any other."""
    e, K, T, nrm = frame
    if not len(T):
        return 0.0
    step = max(1, 2 ** 14 // K.size)
    with np.errstate(over="ignore", invalid="ignore"):
        sc = _score(K, np.ldexp(Ss, -e) if e else Ss).ravel()
        sums = [np.add.reduce(sc * T[s:s + step], axis=1)
                for s in range(0, len(T), step)]
        x = np.abs(np.concatenate(sums) if len(sums) > 1 else sums[0]) / nrm
        return float(np.maximum.reduce(x))


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
    per problem and shared by every batched call of the multistart, the
    four ``(p, p)`` ones of :func:`_newton_directions` among them: ``ai``
    holds the flat position of ``(i_l, i_k)`` at ``[l, k]``, and so on.
    """

    def __init__(self, m: int):
        iu, ju = np.triu_indices(m, 1)
        self.m = m
        self.p = iu.size
        self.upper = iu * m + ju            # flat positions of the parameters
        self.lower = ju * m + iu
        a, b = iu[:, None] * m, ju[:, None] * m
        self.ai, self.aj, self.bi, self.bj = a + iu, a + ju, b + iu, b + ju

    def matrices(self, X: np.ndarray) -> np.ndarray:
        """(N, p) parameter rows -> (N, m, m) unit-diagonal matrices."""
        Sig = np.ones((X.shape[0], self.m * self.m))
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
#: A row whose last step came from the last block (at most 2^-7) is
#: crawling and will most likely backtrack as deep again: it tests all
#: fifteen steps in the first evaluation, beside the other rows' full
#: steps, so it costs one evaluation rather than four.
#: A row that needs a step below 2^-14 is dropped as stalled.  A row
#: that keeps needing such steps covers under 0.3 % of its Newton step
#: in the default 100 iterations, and each of them cost a full deep
#: backtrack: at m = 4 to 6 the rows that stalled anyway caused 65 to
#: 77 % of all candidate evaluations.  The few rows that would converge
#: after a step that small are dropped with them.
_STEP_BLOCKS = tuple(np.ldexp(1.0, -np.arange(lo, hi))
                     for lo, hi in ((0, 1), (1, 3), (3, 7), (7, 15)))

#: Float entries held by a row chunk of the Jacobians (four (rows, p, p)
#: arrays live at once) and of the line-search candidate evaluations,
#: which bounds their temporaries.  The ``K``, ``W`` and ``F``
#: carried from one Newton iteration to the next are kept for every
#: candidate of a line-search call, so memory grows linearly with the
#: number of starts: 2 m^2 + p floats per candidate.
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


def _corr_candidates(chart: _CorrChart, S: np.ndarray, X: np.ndarray):
    """The largest absolute residual of each parameter row of ``X`` and
    its ``K``, ``W`` and ``F`` of :func:`_corr_residuals`, in row chunks.
    A row that fails :func:`pd_mask` has residual inf and NaN arrays.
    When ``X`` is one chunk and every row passes, the arrays of
    :func:`_corr_residuals` are returned as they are."""
    n, m = len(X), chart.m
    rows = max(1, _CHUNK_ENTRIES // (m * m))
    for lo in range(0, n, rows):
        Sig = chart.matrices(X[lo:lo + rows])
        ok = pd_mask(Sig)
        if lo == 0:
            if len(Sig) == n and ok.all():
                K, W, F = _corr_residuals(chart, S, Sig)
                return np.abs(F).max(axis=1), K, W, F
            rc = np.full(n, np.inf)
            K, W = np.full((2, n, m, m), np.nan)
            F = np.full((n, chart.p), np.nan)
        ok = lo + np.flatnonzero(ok)
        if ok.size:
            res = _corr_residuals(chart, S, Sig[ok - lo])
            K[ok], W[ok], F[ok] = res
            rc[ok] = np.abs(res[2]).max(axis=1)
    return rc, K, W, F


def _newton_directions(chart: _CorrChart, K: np.ndarray, W: np.ndarray,
                       F: np.ndarray) -> np.ndarray:
    """Newton steps ``delta`` with ``J delta = -F`` for every row.

    ``J`` is the exact Jacobian of ``F = upper(K - K S K)`` in the
    parameters.  Along ``E_ij + E_ji`` the derivative of ``K`` is
    ``-K (E_ij + E_ji) K``, so with ``G = W - K``

        J[(a,b),(i,j)] = K_ai G_jb + K_aj G_ib + W_ai K_jb + W_aj K_ib,

    each term the product of two :func:`numpy.take` gathers of the flat
    ``(n, m^2)`` rows at the positions of :class:`_CorrChart`, summed in
    place in this order, in row chunks (four ``(rows, p, p)`` temporaries).
    Each half of a chunk, ``_CHUNK_ENTRIES // (8 p^2)`` rows, is solved
    in one call, and a half holding a singular Jacobian by least squares
    row by row.
    """
    n, p = F.shape
    K, W = K.reshape(n, -1), W.reshape(n, -1)
    half = max(1, _CHUNK_ENTRIES // (8 * p * p))
    delta = np.empty_like(F)
    for lo in range(0, n, 2 * half):
        Kc, Wc = K[lo:lo + 2 * half], W[lo:lo + 2 * half]
        Gc = Wc - Kc
        J = Kc.take(chart.ai, axis=1)
        J *= Gc.take(chart.bj, axis=1)
        t = Kc.take(chart.aj, axis=1)
        t *= Gc.take(chart.bi, axis=1)
        J += t
        for u, v in ((chart.ai, chart.bj), (chart.aj, chart.bi)):
            np.multiply(Wc.take(u, axis=1), Kc.take(v, axis=1), out=t)
            J += t
        for h in range(0, len(J), half):
            Jh, Fh = J[h:h + half], F[lo + h:lo + h + half]
            try:
                delta[lo + h:lo + h + half] = np.linalg.solve(
                    Jh, -Fh[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                for r in range(len(Jh)):
                    delta[lo + h + r] = np.linalg.lstsq(Jh[r], -Fh[r],
                                                        rcond=None)[0]
    return delta


def _line_search(x: np.ndarray, delta: np.ndarray, rnorm: np.ndarray,
                 last: np.ndarray, evaluate
                 ) -> tuple[np.ndarray, np.ndarray, list]:
    """Backtracking along each row's Newton step.

    ``evaluate(X)`` returns the residual norms ``rc`` of the rows of
    ``X``, then any arrays of per-row values.  Row ``r`` takes the first
    ``t = 2^-k``, ``k = 0..14``, with
    ``rc(x_r + t delta_r) <= (1 - 1e-4 t) rnorm_r``, exactly as a loop
    that halves ``t`` fifteen times would.  The steps are tested in the
    blocks of ``_STEP_BLOCKS``, read at each call: every row still
    searching evaluates all steps of the next block in one batched call.
    A row whose ``last`` step was at most 2^-7 tests all fifteen steps in
    the first call, beside the other rows' full steps.  With no such row
    the first call evaluates ``x + delta``, and the rows and the arrays
    of ``evaluate`` it made are kept as the result.  Returns the steps
    taken (0 where none of at least 2^-14 passed), the new rows
    (unchanged where none passed) and the values of ``evaluate`` at them
    (NaN where none passed).  The 2^-14 floor ends the search for rows
    that crawl; see ``_STEP_BLOCKS``.
    """
    n, p = x.shape
    deep = last <= _STEP_BLOCKS[-1][0]
    rem = np.flatnonzero(~deep)
    steps = np.zeros(n)
    if deep.any():
        crawl = [(np.flatnonzero(deep), np.concatenate(_STEP_BLOCKS))]
        x_new, carry, blocks = x.copy(), None, _STEP_BLOCKS
    else:
        x_new = x + delta
        rc, *carry = evaluate(x_new)
        good = rc <= (1.0 - 1e-4) * rnorm
        if good.all():
            return np.ones(n), x_new, carry
        steps[good] = 1.0                   # the others search on from 1/2
        rem = rem[~good]
        x_new[rem] = x[rem]
        for c in carry:
            c[rem] = np.nan
        crawl, blocks = [], _STEP_BLOCKS[1:]
    for ts in blocks:
        # the (rows, steps) of this call, each row tested at each step
        groups = [(r, t) for r, t in crawl + [(rem, ts)] if r.size]
        if not groups:
            break
        cands = [x[r, None, :] + t[:, None] * delta[r, None, :]
                 for r, t in groups]
        rc, *values = evaluate(np.concatenate(
            [c.reshape(-1, p) for c in cands]))
        if carry is None:
            carry = [np.full((n,) + v.shape[1:], np.nan) for v in values]
        off = 0
        for (r, t), cand in zip(groups, cands):
            good = (rc[off:off + r.size * t.size].reshape(r.size, t.size)
                    <= (1.0 - 1e-4 * t) * rnorm[r, None])
            hit = good.any(axis=1)
            first = good[hit].argmax(axis=1)
            pick = off + np.flatnonzero(hit) * t.size + first
            for c, v in zip(carry, values):
                c[r[hit]] = v[pick]
            x_new[r[hit]] = cand[hit, first]
            steps[r[hit]] = t[first]
            off += good.size
        rem = rem[steps[rem] == 0.0]
        crawl = []
        del values                          # free before the next evaluation
    return steps, x_new, carry


# a row whose residual overflows never converges: from a NaN residual no
# step passes and the row is dropped; from an infinite one the full step
# passes (inf <= inf), also to a non-PD matrix, whose carried residual is NaN
@np.errstate(over="ignore", invalid="ignore")
def _correlation_multistart(m: int, S: np.ndarray,
                            opts: SolverOptions) -> list[CriticalPoint]:
    """Damped-Newton multistart on the tangential score equations.

    For a unit-diagonal model the score must be diagonal at a critical
    point, so the residual is the strict upper triangle of
    ``K - K S K`` with ``K`` the inverse of the candidate.  The
    ``opts.starts`` starting points are drawn uniformly from the
    elliptope by the onion method (:func:`_onion_starts`), which works
    in every dimension.  All starts iterate in one batch: each Newton
    iteration computes the exact Jacobians and their solves with a few
    batched calls, then runs the blocked backtracking of
    :func:`_line_search`, in which a candidate must pass :func:`pd_mask`
    and reduce the largest residual.  Each start's last step is kept, so
    a start that crawled at its last iteration (a step of at most 2^-7)
    tests all of its steps in the first batched call of the next line
    search, and takes the same step.  Each iterate is evaluated once:
    the line search keeps ``K``, ``W = K S K`` and the residual of the
    candidates it tests (memory: see ``_CHUNK_ENTRIES``), and those of
    the accepted one feed the next Newton step.  Starts whose line
    search finds no step of at least 2^-14 are dropped as stalled (see
    ``_STEP_BLOCKS``), so the points found are a subset of those a
    search down to 2^-29 finds.  Starts whose largest residual falls
    below ``MULTISTART_TOL`` times ``max(1, max |S_ij|)`` within
    ``MULTISTART_MAX_ITER`` iterations have converged.  Converged
    solutions are deduplicated at 1e-6 in parameter space.
    The search is exhaustive only heuristically: with the default 512
    starts it is stable on 3 x 3 problems, but for larger ``m`` some
    real critical points may be missed.
    """
    chart = _CorrChart(m)
    x = _onion_starts(chart, opts.starts, np.random.default_rng(opts.seed))
    # the residual scales with S, and so does the rounding of K S K
    tol = MULTISTART_TOL * max(1.0, float(np.abs(S).max()))

    # the indices, rows and last steps of the starts still iterating
    idx, xa, steps = np.arange(len(x)), x, np.ones(len(x))
    K, W, F = _corr_residuals(chart, S, chart.matrices(x))
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(MULTISTART_MAX_ITER):
        rnorm = np.abs(F).max(axis=1)
        done = rnorm < tol
        if done.any():
            converged[idx[done]] = True
            x[idx[done]] = xa[done]
            idx, xa, K, W, F, rnorm, steps = (
                a[~done] for a in (idx, xa, K, W, F, rnorm, steps))
        if idx.size == 0:
            break
        delta = _newton_directions(chart, K, W, F)
        del K, W, F                         # the line search makes new ones
        steps, xa, (K, W, F) = _line_search(
            xa, delta, rnorm, steps, lambda X: _corr_candidates(chart, S, X))
        moved = steps != 0.0                # stalled starts are dropped
        if not moved.all():
            idx, xa, K, W, F, steps = (
                a[moved] for a in (idx, xa, K, W, F, steps))

    # dedup in lexicographic order: keep the first row, drop all within 1e-6
    sols = x[converged]
    rest = sols[np.lexsort(np.round(sols, 8).T[::-1])]
    kept = []
    while len(rest):
        kept.append(rest[0])
        rest = rest[np.abs(rest - rest[0]).max(axis=1) > 1e-6]
    points = [_critical_point(Sigma, S, "multistart")
              for Sigma in chart.matrices(np.array(kept).reshape(-1, chart.p))]
    if not points:
        raise NoConvergence("multistart found no critical point")
    return points


def _sorted_points(points: list[CriticalPoint]) -> list[CriticalPoint]:
    # entries beyond about 1e296 round to +-inf, which ties them
    with np.errstate(over="ignore"):
        return sorted(points, key=lambda cp: (
            -cp.loglik, tuple(np.round(cp.sigma, 12).ravel())))


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
