"""Maximum likelihood solvers and critical point enumeration.

Each model family gets the solver its geometry calls for: Newton
iteration on the concentration coefficients for linear concentration
models, the closed-form clique formula along a perfect elimination
order for decomposable graphs, exact per-vertex regressions for DAGs,
closed-form cubics for the bivariate and equicorrelation families, and
seeded multistart root-finding on the tangential score equations for
unrestricted correlation matrices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import check_symmetric, is_positive_definite, log_likelihood, \
    score_matrix
from .errors import (
    DegenerateLeadingCoefficient,
    InvalidModel,
    NoConvergence,
    NoInteriorPoint,
    NotChordal,
    NotPD,
    OutOfRange,
    ShapeMismatch,
)
from .graphs import Graph, adjacency, is_chordal
from .models import (
    BivariateCorrelation,
    CiUnion,
    DagModel,
    Equicorrelation,
    GraphModel,
    LinearConcentration,
    SemParams,
    UnrestrictedCorrelation,
    as_concentration,
    equicorrelation_matrix,
    sem_covariance,
    sem_fit,
    tangent_basis,
)


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
class CubicCoeffs:
    """Sufficient statistics of a 2 x 2 sample: half-trace and off-diagonal."""

    a: float
    b: float


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
        if not self.max_iter >= 1:
            raise OutOfRange(
                f"max_iter must be at least 1, got {self.max_iter!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise OutOfRange(
                f"tol must be finite and positive, got {self.tol!r}")


def options_from_json(obj) -> SolverOptions:
    """Decode solver options, falling back to the defaults field by field."""
    if obj is None:
        return SolverOptions()
    if not isinstance(obj, dict):
        raise InvalidModel("solver options must be a JSON object")
    base = SolverOptions()
    return SolverOptions(
        starts=int(obj.get("starts", base.starts)),
        seed=int(obj.get("seed", base.seed)),
        tol=float(obj.get("tol", base.tol)),
        max_iter=int(obj.get("max_iter", base.max_iter)),
    )


def options_to_json(opts: SolverOptions) -> dict:
    return {"starts": opts.starts, "seed": opts.seed,
            "tol": opts.tol, "max_iter": opts.max_iter}


def bivariate_stats(S) -> CubicCoeffs:
    """Half-trace and off-diagonal entry of a 2 x 2 symmetric matrix."""
    A = check_symmetric(S)
    if A.shape != (2, 2):
        raise ShapeMismatch(f"expected a 2 x 2 matrix, got {A.shape}")
    return CubicCoeffs(a=float((A[0, 0] + A[1, 1]) / 2.0), b=float(A[0, 1]))


def equicorrelation_cubic(m: int, a: float, b: float) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the equicorrelation critical cubic.

    The critical equicorrelation values for symmetrised statistics
    ``(a, b)`` are the roots of

        (m-1) x^3 + ((m-2)(a-1) - (m-1) b) x^2 + (2a-1) x - b

    in the positive definite interval.  For ``m = 2`` this is the
    bivariate critical cubic ``x^3 - b x^2 - (1-2a) x - b``.
    """
    if int(m) != m or m < 2:
        raise ShapeMismatch("equicorrelation cubic needs m >= 2")
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


def _logdet_chol(K) -> float:
    """log det of a PD matrix; raises np.linalg.LinAlgError when not PD."""
    L = np.linalg.cholesky(K)
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def mle_concentration(model: LinearConcentration, S, *,
                      max_iter: int = 200) -> CriticalPoint:
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
    to 1e-10 relative accuracy.
    """
    if isinstance(model, GraphModel):
        model = as_concentration(model)
    if not isinstance(model, LinearConcentration):
        raise InvalidModel("mle_concentration needs a concentration model")
    A = check_symmetric(S)
    m = model.dim
    if A.shape[0] != m:
        raise ShapeMismatch(
            f"model dimension {m} does not match sample dimension {A.shape[0]}")
    if not is_positive_definite(A):
        raise NotPD("sample matrix is not positive definite")

    B = np.stack(model.basis)               # (d, m, m)
    d = B.shape[0]
    Bf = B.reshape(d, -1)
    gram = Bf @ Bf.T
    target = Bf @ A.ravel()

    def project(Mat):
        return np.linalg.solve(gram, Bf @ Mat.ravel())

    lam = project(np.linalg.inv(A))
    K = np.tensordot(lam, B, 1)
    if not is_positive_definite(K):
        lam = project(np.eye(m))
        K = np.tensordot(lam, B, 1)
        if not is_positive_definite(K):
            raise NoInteriorPoint(
                "no positive definite matrix found in the span")
        # rescale so the fitted trace against S matches its optimum value
        lam = lam * (m / float(np.vdot(A, K)))
        K = np.tensordot(lam, B, 1)

    def phi(K):
        return _logdet_chol(K) - float(np.vdot(A, K))

    val = phi(K)
    for _ in range(max_iter):
        Sigma = np.linalg.inv(K)
        Sigma = (Sigma + Sigma.T) / 2.0
        fitted = Bf @ Sigma.ravel()
        grad = fitted - target
        if np.all(np.abs(grad) < 1e-10 * (1.0 + np.abs(target))):
            ll = log_likelihood(Sigma, A)
            return CriticalPoint(sigma=Sigma, loglik=ll, source="unique")
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
    raise NoConvergence(f"no convergence after {max_iter} Newton steps")


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
    A = check_symmetric(S)
    m = G.m
    if A.shape[0] != m:
        raise ShapeMismatch(
            f"graph has {m} vertices, sample dimension is {A.shape[0]}")
    if not is_positive_definite(A):
        raise NotPD("sample matrix is not positive definite")
    chordal, order = is_chordal(G)
    if not chordal:
        raise NotChordal("decomposable MLE needs a chordal graph")

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
        for block, w in weight.items():
            if w:
                idx = np.ix_([v - 1 for v in block], [v - 1 for v in block])
                K[idx] += w * np.linalg.inv(A[idx])
        Sigma = np.linalg.inv(K)
        Sigma = (Sigma + Sigma.T) / 2.0
    return CriticalPoint(sigma=Sigma, loglik=log_likelihood(Sigma, A),
                         source="unique")


def mle_dag(dag, S) -> tuple[SemParams, CriticalPoint]:
    """Exact MLE of a DAG model via per-vertex regressions."""
    A = check_symmetric(S)
    if not is_positive_definite(A):
        raise NotPD("sample matrix is not positive definite")
    params = sem_fit(dag, A)
    Sigma = sem_covariance(dag, params)
    point = CriticalPoint(sigma=Sigma, loglik=log_likelihood(Sigma, A),
                          source="unique")
    return params, point


def criticality_residual(model, Sigma, S) -> float:
    """Largest score component along the model's tangent directions.

    Tangent matrices are normalised to unit Frobenius norm, so the
    residual is scale-invariant in the tangent basis.  Zero residual
    means ``Sigma`` is a critical point of the likelihood of ``S``
    restricted to the model.
    """
    sc = score_matrix(Sigma, S)
    worst = 0.0
    for T in tangent_basis(model, Sigma):
        nrm = float(np.linalg.norm(T))
        if nrm == 0.0:
            continue
        worst = max(worst, abs(float(np.sum(sc * T))) / nrm)
    return worst


def _equi_stats(A: np.ndarray) -> tuple[float, float]:
    """Mean diagonal and mean off-diagonal entry."""
    m = A.shape[0]
    a = float(np.trace(A)) / m
    if m == 1:
        return a, 0.0
    iu = np.triu_indices(m, 1)
    return a, float(A[iu].mean())


def _corr_from_params(X: np.ndarray, m: int) -> np.ndarray:
    """(N, p) off-diagonal parameter rows -> (N, m, m) unit-diagonal matrices."""
    iu = np.triu_indices(m, 1)
    N = X.shape[0]
    Sig = np.zeros((N, m, m))
    Sig[:, iu[0], iu[1]] = X
    Sig = Sig + np.transpose(Sig, (0, 2, 1))
    Sig[:, np.arange(m), np.arange(m)] = 1.0
    return Sig


def _correlation_multistart(m: int, S: np.ndarray,
                            opts: SolverOptions) -> list[CriticalPoint]:
    """Damped-Newton multistart on the tangential score equations.

    For a unit-diagonal model the score must be diagonal at a critical
    point, so the residual is the strict upper triangle of
    ``K - K S K`` with ``K`` the inverse of the candidate.  Starting
    points are drawn uniformly from the off-diagonal box ``(-1, 1)^p``
    with rejection on positive definiteness; all starts iterate in one
    vectorised batch.  Converged solutions are deduplicated at 1e-6 in
    parameter space.  The search is exhaustive only heuristically: with
    the default 512 starts it is stable on 3 x 3 problems, but for
    larger ``m`` some real critical points may be missed.
    """
    p = m * (m - 1) // 2
    iu = np.triu_indices(m, 1)
    rng = np.random.default_rng(opts.seed)

    chunks = []
    have = 0
    for _ in range(500):
        if have >= opts.starts:
            break
        n = max(2 * (opts.starts - have), 64)
        draw = rng.uniform(-1.0, 1.0, size=(n, p))
        ok = np.linalg.eigvalsh(_corr_from_params(draw, m))[:, 0] > 1e-10
        chunks.append(draw[ok])
        have += int(ok.sum())
    if have < opts.starts:
        raise NoConvergence("could not draw positive definite starting points")
    x = np.concatenate(chunks)[:opts.starts]

    D = np.zeros((p, m, m))
    D[np.arange(p), iu[0], iu[1]] = 1.0
    D[np.arange(p), iu[1], iu[0]] = 1.0

    def residuals(xa: np.ndarray):
        Sig = _corr_from_params(xa, m)
        K = np.linalg.inv(Sig)
        W = K @ S @ K
        F = (K - W)[:, iu[0], iu[1]]
        return K, W, F

    active = np.ones(len(x), dtype=bool)
    converged = np.zeros(len(x), dtype=bool)

    for _ in range(opts.max_iter):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        K, W, F = residuals(x[idx])
        rnorm = np.abs(F).max(axis=1)
        done = rnorm < opts.tol
        converged[idx[done]] = True
        active[idx[done]] = False
        keep = ~done
        idx = idx[keep]
        if idx.size == 0:
            break
        K, W, F, rnorm = K[keep], W[keep], F[keep], rnorm[keep]

        # exact Jacobian of F: column l is the upper triangle of
        # -K D_l K + K D_l W + W D_l K
        J = np.empty((idx.size, p, p))
        for l in range(p):
            KD = K @ D[l]
            T = -KD @ K + KD @ W + W @ D[l] @ K
            J[:, :, l] = T[:, iu[0], iu[1]]
        try:
            delta = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            delta = np.empty_like(F)
            for r in range(idx.size):
                delta[r] = np.linalg.lstsq(J[r], -F[r], rcond=None)[0]

        xa = x[idx].copy()
        t = np.ones(idx.size)
        accepted = np.zeros(idx.size, dtype=bool)
        for _ in range(30):
            rem = np.where(~accepted)[0]
            if rem.size == 0:
                break
            cand = xa[rem] + t[rem, None] * delta[rem]
            lam = np.linalg.eigvalsh(_corr_from_params(cand, m))[:, 0]
            rc = np.full(rem.size, np.inf)
            pd_ok = lam > 1e-12
            if pd_ok.any():
                _, _, Fc = residuals(cand[pd_ok])
                rc[pd_ok] = np.abs(Fc).max(axis=1)
            good = rc <= (1.0 - 1e-4 * t[rem]) * rnorm[rem]
            hit = rem[good]
            xa[hit] = cand[good]
            accepted[hit] = True
            t[rem[~good]] *= 0.5
        x[idx[accepted]] = xa[accepted]
        active[idx[~accepted]] = False      # stalled starts are dropped

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
    points = []
    for row in kept:
        Sigma = _corr_from_params(row[None, :], m)[0]
        points.append(CriticalPoint(sigma=Sigma,
                                    loglik=log_likelihood(Sigma, S),
                                    source="multistart"))
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

    Enumeration is exact for every family except
    :class:`UnrestrictedCorrelation`, which uses the seeded multistart
    search.
    """
    opts = opts or SolverOptions()
    A = check_symmetric(S)
    if A.shape[0] != model.dim:
        raise ShapeMismatch(
            f"model dimension {model.dim} vs sample dimension {A.shape[0]}")
    if not is_positive_definite(A):
        raise NotPD("sample matrix is not positive definite")

    if isinstance(model, (LinearConcentration, GraphModel)):
        return [mle_concentration(model, A)]

    if isinstance(model, DagModel):
        return [mle_dag(model.dag, A)[1]]

    if isinstance(model, BivariateCorrelation):
        stats = bivariate_stats(A)
        roots = cubic_roots_in_interval(
            *equicorrelation_cubic(2, stats.a, stats.b), -1.0, 1.0)
        pts = []
        for r in roots:
            Sigma = np.array([[1.0, r], [r, 1.0]])
            pts.append(CriticalPoint(sigma=Sigma,
                                     loglik=log_likelihood(Sigma, A),
                                     source="cubic-root"))
        return _sorted_points(pts)

    if isinstance(model, Equicorrelation):
        a, b = _equi_stats(A)
        m = model.m
        roots = cubic_roots_in_interval(
            *equicorrelation_cubic(m, a, b), -1.0 / (m - 1), 1.0)
        pts = []
        for r in roots:
            Sigma = equicorrelation_matrix(m, r)
            pts.append(CriticalPoint(sigma=Sigma,
                                     loglik=log_likelihood(Sigma, A),
                                     source="cubic-root"))
        return _sorted_points(pts)

    if isinstance(model, UnrestrictedCorrelation):
        return _sorted_points(_correlation_multistart(model.m, A, opts))

    if isinstance(model, CiUnion):
        one = np.array([[A[0, 0], 0.0, 0.0],
                        [0.0, A[1, 1], A[1, 2]],
                        [0.0, A[1, 2], A[2, 2]]])
        two = np.array([[A[0, 0], A[0, 1], 0.0],
                        [A[0, 1], A[1, 1], 0.0],
                        [0.0, 0.0, A[2, 2]]])
        pts = []
        for Sigma in (one, two):
            if is_positive_definite(Sigma):
                pts.append(CriticalPoint(sigma=Sigma,
                                         loglik=log_likelihood(Sigma, A),
                                         source="closed-form"))
        # the two planes meet in the diagonals; drop duplicates there
        if len(pts) == 2 and float(np.abs(pts[0].sigma - pts[1].sigma).max()) <= 1e-12:
            pts = pts[:1]
        return _sorted_points(pts)

    raise InvalidModel(f"unknown model {model!r}")
