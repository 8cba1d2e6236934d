"""Symmetric-matrix primitives and the Gaussian log-likelihood.

Covariance-like objects are plain float ndarrays of shape ``(m, m)``,
symmetric with finite entries.  Matrix and vertex indices in the public
API are 1-based, matching the JSON serializer.  Only the covariance part
of the Gaussian likelihood is modelled; the mean is profiled out, and
the likelihood is normalised so that

    log_likelihood(Sigma, S) = -log det(Sigma) - tr(S Sigma^{-1}).

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NotPD, \
    ShapeMismatch, _brief, _integer, _is_integer, _members

#: Pivot tolerance of the positive-definiteness test, relative to the
#: largest diagonal entry.
PD_PIVOT_RTOL = 1e-12
#: Asymmetry averaged away by :func:`check_symmetric`, relative to the
#: largest entry (at least 1).
SYMMETRY_RTOL = 1e-8
#: Largest diagonal entry from which the PD tests and :func:`_unit_scale`
#: scale a matrix down by a power of two, so products of entries stay
#: finite; the PD tests also scale one below ``1 / _HUGE`` up.
_HUGE = 2.0 ** 500


def check_symmetric(M) -> np.ndarray:
    """Validate and return a square, finite, symmetric float matrix.

    Asymmetries up to ``SYMMETRY_RTOL`` times the largest entry are
    averaged away; anything larger raises :class:`ShapeMismatch`.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise ShapeMismatch("matrix must have positive dimension")
    if not np.all(np.isfinite(A)):
        raise ShapeMismatch("matrix entries must be finite")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > SYMMETRY_RTOL * scale:
        raise ShapeMismatch("matrix is not symmetric")
    if scale >= 2.0 ** 1022:        # A + A.T could overflow; halve first
        return A / 2.0 + A.T / 2.0
    return (A + A.T) / 2.0


def is_positive_definite(M) -> bool:
    """Strict positive definiteness via symmetric elimination.

    Runs an in-place Cholesky-style elimination and returns ``False`` as
    soon as a pivot drops to or below ``PD_PIVOT_RTOL`` times the
    largest diagonal entry of the input.  Semidefinite boundary matrices
    are therefore classified as not positive definite; so is, before any
    elimination, a matrix with an |a_ij| above its largest diagonal entry.
    """
    return _is_pd(check_symmetric(M))


def _is_pd(A: np.ndarray) -> bool:
    """:func:`is_positive_definite` of a validated symmetric array, which
    is left unchanged."""
    dmax = float(A.diagonal().max())
    if not (dmax > 0.0 and float(np.abs(A).max()) <= dmax):   # NaN fails
        return False
    if not 1.0 / _HUGE <= dmax < _HUGE:
        e = math.frexp(dmax)[1]
        A, dmax = np.ldexp(A, -e), math.ldexp(dmax, -e)
    else:
        A = A.copy()
    thresh = PD_PIVOT_RTOL * dmax
    for k in range(A.shape[0]):
        piv = A[k, k]
        if not piv > thresh:
            return False
        v = A[k + 1:, k]
        A[k + 1:, k + 1:] -= v[:, None] * v / piv
    return True


def pd_mask(M) -> np.ndarray:
    """Batched strict positive definiteness of an ``(N, m, m)`` stack.

    Row ``n`` is ``True`` exactly when :func:`is_positive_definite`
    accepts ``M[n]``: the same elimination and ``PD_PIVOT_RTOL`` pivot
    rule, run on all matrices at once.  Rows with a non-finite entry,
    or with an entry larger in magnitude than their largest diagonal
    entry, are ``False``.  The input is trusted to be symmetric and is not
    validated.  All rows are eliminated in one pass, rejected ones too:
    a row's pivots and updates touch no other row, and a row that has
    failed stays failed whatever its later pivots (zero, infinite or
    NaN, silently), so every verdict is the single-matrix one.
    """
    # entry (i, j) of every row in one contiguous vector, for the
    # elementwise steps; the results are those of any other layout
    A = np.array(np.asarray(M, dtype=float).transpose(1, 2, 0), order="C")
    m = len(A)
    dmax = np.diagonal(A).max(axis=1)
    far = (dmax < 1.0 / _HUGE) | (dmax >= _HUGE)
    if far.any():
        e = np.frexp(dmax[far])[1]
        A[:, :, far] = np.ldexp(A[:, :, far], -e)
        dmax[far] = np.ldexp(dmax[far], -e)
    ok = (np.abs(A).max(axis=(0, 1)) <= dmax) & (0.0 < dmax) & (dmax < np.inf)
    thresh = PD_PIVOT_RTOL * dmax
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(m - 1):
            ok &= A[k, k] > thresh
            v = A[k + 1:, k]
            A[k + 1:, k + 1:] -= v[:, None] * v / A[k, k]
    return ok & (A[m - 1, m - 1] > thresh)


def log_likelihood(Sigma, S) -> float:
    """Normalised Gaussian log-likelihood ``-log det(Sigma) - tr(S Sigma^{-1})``.

    Both arguments must be positive definite matrices of the same size.
    """
    Sg = _matrix(Sigma, "Sigma", pd=True)
    return _loglik(Sg, _matrix(S, "S", len(Sg), pd=True))


def _matrix(M, name: str, dim: Optional[int] = None,
            pd: bool = False) -> np.ndarray:
    """:func:`_fits` of ``check_symmetric(M)``."""
    return _fits(check_symmetric(M), name, dim, pd)


def _fits(A: np.ndarray, name: str, dim: Optional[int] = None,
          pd: bool = False) -> np.ndarray:
    """The validated argument ``name``, of dimension ``dim`` or else
    :class:`DimensionMismatch`, and if ``pd`` PD or else :class:`NotPD`."""
    if dim is not None and len(A) != dim:
        raise DimensionMismatch(
            f"{name} has dimension {len(A)}, expected {_brief(dim)}")
    if pd and not _is_pd(A):
        raise NotPD(f"{name} is not positive definite")
    return A


def _loglik(Sg: np.ndarray, Ss: np.ndarray) -> float:
    """:func:`log_likelihood` of validated positive definite arrays."""
    _, Sk, Tk = _unit_scale(Sg, Ss)     # the trace is scale-free
    return -_logdet(Sg) - float(np.trace(np.linalg.solve(Sk, Tk)))


def _unit_scale(A: np.ndarray, *others: np.ndarray) -> tuple:
    """The ``k`` that puts the largest diagonal entry of ``2^k A`` in
    [1/2, 1) when it is below 1/2 or at least ``_HUGE``, else 0, then
    ``A`` and ``others`` times ``2^k``.  Scaling by ``2^k`` is exact:
    homogeneous solves and fits keep every bit."""
    dmax = float(A.diagonal().max())
    e = math.frexp(dmax)[1]
    k = -e if e < 0 or dmax >= _HUGE else 0
    if k:
        A, *others = (np.ldexp(M, k) for M in (A, *others))
    return (k, A, *others)


def _logdet(K: np.ndarray) -> float:
    """log det of a PD matrix; raises np.linalg.LinAlgError when not PD."""
    L = np.linalg.cholesky(K)
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def score_matrix(Sigma, S) -> np.ndarray:
    """Gradient of the log-likelihood in Sigma under the trace pairing.

    Returns ``Sigma^{-1} S Sigma^{-1} - Sigma^{-1}``; the directional
    derivative of :func:`log_likelihood` along a symmetric direction
    ``D`` is ``tr(score_matrix(Sigma, S) @ D)``.  ``Sigma`` must be
    positive definite; ``S`` only has to be symmetric.
    """
    Sg = _matrix(Sigma, "Sigma", pd=True)
    return _score(np.linalg.inv(Sg), _matrix(S, "S", len(Sg)))


def _score(K: np.ndarray, Ss: np.ndarray) -> np.ndarray:
    """:func:`score_matrix` of a validated ``S`` at the point whose
    inverse is ``K``."""
    G = K @ Ss @ K - K
    return (G + G.T) / 2.0


def _as_index(I: Iterable[int], m: int, name: str) -> list[int]:
    """1-based index collection ``name`` -> validated 0-based list, order
    preserved.

    Unordered collections (set/frozenset) are sorted ascending.
    """
    out = [_integer(i, "index", 1, m, IndexOutOfRange) - 1
           for i in _members(I, name)]
    if isinstance(I, (set, frozenset)):
        out.sort()
    if len(set(out)) != len(out):
        raise IndexOutOfRange("duplicate index in index set")
    if not out:
        raise IndexOutOfRange("empty index set")
    return out


def embed(B, rows: Iterable[int], cols: Iterable[int], m: int) -> np.ndarray:
    """Place the block ``B`` at positions ``rows x cols`` of an m x m zero matrix.

    Indices are 1-based.  The placement is not symmetrised: callers who
    need a symmetric result must supply a symmetric placement (e.g.
    ``rows == cols`` with symmetric ``B``, or add the transposed
    placement themselves).
    """
    A = np.asarray(B, dtype=float)
    if A.ndim != 2:
        raise ShapeMismatch(f"block must be 2-d, got shape {A.shape}")
    m = _integer(m, "m", 1)
    r, c = _as_index(rows, m, "rows"), _as_index(cols, m, "cols")
    if A.shape != (len(r), len(c)):
        raise ShapeMismatch(
            f"block shape {A.shape} does not match index sets "
            f"({len(r)}, {len(c)})")
    out = np.zeros((m, m))
    out[np.ix_(r, c)] = A
    return out


def principal_submatrix(M, I: Iterable[int]) -> np.ndarray:
    """Submatrix of ``M`` with rows and columns ``I`` (1-based, order preserved)."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {A.shape}")
    idx = _as_index(I, A.shape[0], "I")
    return A[np.ix_(idx, idx)].copy()


def _parse_entry(x) -> float:
    """JSON matrix entry -> float.

    Numbers pass through; strings may be decimals ("0.25"), which
    ``float`` rounds to the nearest double in time bounded by their
    length, or exact rationals ("1211/4560"), which ``Fraction`` parses
    before rounding.  A string whose value is not finite raises
    :class:`ShapeMismatch`.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ShapeMismatch("matrix entries must be numbers or numeric strings")
    try:
        if not isinstance(x, str):
            return float(x)
        value = float(Fraction(x)) if "/" in x else float(x)
        if not math.isfinite(value):
            raise ValueError("too large for a double, or not a number")
        return value
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ShapeMismatch(
            f"cannot parse matrix entry {_brief(x)}: {exc}") from exc


def sym_from_json(obj) -> np.ndarray:
    """Decode ``{"dim": m, "upper": [...]}`` into a symmetric matrix.

    ``upper`` lists the upper triangle (diagonal included) row-major.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "upper" not in obj:
        raise ShapeMismatch('symmetric matrix JSON needs "dim" and "upper"')
    m, upper = obj["dim"], obj["upper"]
    if not _is_integer(m) or m < 1:
        raise ShapeMismatch(
            f'"dim" must be a positive integer, got {_brief(m)}')
    n = m * (m + 1) // 2
    if not (isinstance(upper, list) and len(upper) == n):
        got = len(upper) if isinstance(upper, list) else _brief(upper)
        raise ShapeMismatch(f'"upper" must be a list of {_brief(n)} entries '
                            f"for dim {_brief(m)}, got {got}")
    A = np.zeros((m, m))
    pos = 0
    for i in range(m):
        for j in range(i, m):
            A[i, j] = A[j, i] = _parse_entry(upper[pos])
            pos += 1
    return check_symmetric(A)


def sym_to_json(M) -> dict:
    """Encode a symmetric matrix as ``{"dim": m, "upper": [...]}``."""
    A = check_symmetric(M)
    m = A.shape[0]
    upper = [float(A[i, j]) for i in range(m) for j in range(i, m)]
    return {"dim": m, "upper": upper}

