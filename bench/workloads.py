"""The three benchmark workloads: seeded inputs, operations and oracles.

Every input is generated here, from the workload seed, with the
benchmark's own numpy code and the known pinned coordinates and slice
relations of each model family; no logvor sampler is used, so a change
to the library's random-number use cannot change a workload.  Every
operation carries an oracle that checks its answer with the benchmark's
own numpy (or against values pinned at the seed commit, in
``pinned.json``) and a ``corrupt`` function that the self-check uses to
prove the oracle rejects a wrong answer.

A workload is a stream of rounds.  Each round holds the workload's
whole operation mix, shuffled by the seed, so every complete round does
the same kind of work.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class WrongAnswer(Exception):
    """An operation raised, exited with the wrong code or gave a wrong answer."""


class SolverFailure(Exception):
    """The solver gave up with its documented failure (CLI exit code 3)."""


@dataclass
class Op:
    """One timed call into logvor with its oracle.

    ``call`` is the timed part.  ``check`` gets its result (or the
    exception it raised) and raises :class:`WrongAnswer` or
    :class:`SolverFailure`.  ``corrupt`` turns a correct result into a
    wrong one for the self-check.  ``may_fail`` marks operations whose
    documented solver failure is expected at the seed commit: it is still
    counted as a failure, but does not make the run incorrect.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    corrupt: Callable[[Any], Any]
    may_fail: bool = False


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(lv, argv: list[str]) -> CliResult:
    """Call ``logvor.cli.main`` in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = lv.cli.main(argv)    # looked up per call, so a tracer sees it
        except SystemExit as exc:       # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


# ----------------------------------------------------------------------
# numpy helpers shared by generators and oracles


def sym(upper_rows) -> np.ndarray:
    """Symmetric matrix from a row-major upper triangle given row by row."""
    m = len(upper_rows)
    A = np.zeros((m, m))
    for i, row in enumerate(upper_rows):
        A[i, i:] = row
    return A + np.triu(A, 1).T


def unit(i: int, j: int, m: int) -> np.ndarray:
    """Symmetric unit matrix at 0-based (i, j)."""
    E = np.zeros((m, m))
    E[i, j] = E[j, i] = 1.0
    return E


def min_eig(M) -> float:
    return float(np.linalg.eigvalsh(M)[0])


def is_pd(M, rel: float = 1e-10) -> bool:
    return min_eig(M) > rel * max(1.0, float(np.abs(np.diag(M)).max()))


def loglik(Sigma, S) -> float:
    """-log det Sigma - tr(S Sigma^{-1}), computed independently of logvor."""
    sign, logdet = np.linalg.slogdet(Sigma)
    if sign <= 0:
        raise WrongAnswer("point is not positive definite")
    return -logdet - float(np.trace(np.linalg.solve(Sigma, S)))


def make_not_pd(S, rng) -> np.ndarray:
    """Flip the smallest eigenvalue of S to a negative value."""
    w, V = np.linalg.eigh(S)
    w[0] = -rng.uniform(0.1, 1.0)
    M = (V * w) @ V.T
    return (M + M.T) / 2.0


def from_json_sym(obj) -> np.ndarray:
    m = obj["dim"]
    A = np.zeros((m, m))
    A[np.triu_indices(m)] = [float(x) for x in obj["upper"]]
    return A + np.triu(A, 1).T


def to_json_sym(A) -> dict:
    m = A.shape[0]
    return {"dim": m, "upper": [float(x) for x in A[np.triu_indices(m)]]}


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongAnswer(msg)


def expect_no_raise(out) -> None:
    if isinstance(out, BaseException):
        raise WrongAnswer(f"raised {type(out).__name__}: {out}")


def flip_bool(out):
    return out if isinstance(out, BaseException) else not out


def flip_code(res: CliResult) -> CliResult:
    return dataclasses.replace(res, code=1 if res.code == 0 else 0)


def bump_json_number(res: CliResult) -> CliResult:
    """Change one printed number (the first log-likelihood) in the output."""
    doc = json.loads(res.out)
    if doc.get("points"):
        doc["points"][0]["loglik"] += 1e-3
    return dataclasses.replace(res, out=json.dumps(doc))


# ----------------------------------------------------------------------
# membership-mc: Monte Carlo cell membership on small models


@dataclass
class SliceFamily:
    """A model point with its log-normal slice in affine form.

    The slice is ``sigma + span(free)``; ``off`` is a direction that
    leaves it (it moves a pinned coordinate); ``radius`` scales the
    random steps along ``free``; ``cell`` decides, with the benchmark's
    own numpy, whether an on-slice positive definite sample is in the
    logarithmic Voronoi cell (``None``: too close to the boundary).
    """

    name: str
    model: Any
    sigma: np.ndarray
    free: list[np.ndarray]
    off: np.ndarray
    radius: float
    cell: Callable[[np.ndarray], bool | None] = lambda S: True

    def on_slice(self, rng) -> np.ndarray:
        while True:
            x = rng.uniform(-self.radius, self.radius, len(self.free))
            S = self.sigma + sum(c * D for c, D in zip(x, self.free))
            if is_pd(S, 1e-3) and self.cell(S) is not None:
                return S

    def slice_residual(self, S) -> float:
        """Distance of S - sigma from span(free), relative to |S|."""
        F = np.stack([D.ravel() for D in self.free]).T
        d = (S - self.sigma).ravel()
        coef, *_ = np.linalg.lstsq(F, d, rcond=None)
        return float(np.abs(F @ coef - d).max()) / max(1.0, float(np.abs(S).max()))


def _equi_loglik(m: int, x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Log-likelihood of the equicorrelation matrix E(x) at symmetrised stats."""
    total = m * a + m * (m - 1) * b                 # sum of all entries
    tr_inv = (m * a - x / (1 + (m - 1) * x) * total) / (1 - x)
    return -np.log(1 + (m - 1) * x) - (m - 1) * np.log(1 - x) - tr_inv


def equi_cell(m: int, c: float, S) -> bool | None:
    """Is the equicorrelation point c the global likelihood maximiser?

    A 1-d grid search for the local maxima of the likelihood over the
    positive definite interval, refined by golden sections; ``None``
    when the best competitor is within 1e-6 of the value at c.
    """
    a = float(np.trace(S)) / m
    b = float(S[np.triu_indices(m, 1)].mean())
    lo = -1.0 / (m - 1)
    n = 4000
    xs = lo + (1 - lo) * (np.arange(n) + 0.5) / n
    ys = _equi_loglik(m, xs, a, b)
    peaks = [k for k in range(1, n - 1) if ys[k] >= ys[k - 1] and ys[k] >= ys[k + 1]]
    g = (np.sqrt(5) - 1) / 2
    best_other = -np.inf
    for k in peaks:
        u, v = xs[k - 1], xs[k + 1]
        for _ in range(60):
            p, q = v - g * (v - u), u + g * (v - u)
            if _equi_loglik(m, p, a, b) < _equi_loglik(m, q, a, b):
                u = p
            else:
                v = q
        x = (u + v) / 2
        if abs(x - c) > 1e-4:
            best_other = max(best_other, float(_equi_loglik(m, x, a, b)))
    margin = float(_equi_loglik(m, c, a, b)) - best_other
    if abs(margin) < 1e-6:
        return None
    return margin > 0


def membership_families(lv) -> list[SliceFamily]:
    fams = []

    # README path-4 graph model: diagonal and edges pinned.
    sigma = sym([[6, 1, 1 / 7, 1 / 28], [7, 1, 1 / 4], [8, 2], [9]])
    fams.append(SliceFamily(
        "path4", lv.GraphModel(lv.Graph(4, ((1, 2), (2, 3), (3, 4)))), sigma,
        [unit(0, 2, 4), unit(0, 3, 4), unit(1, 3, 4)], unit(0, 0, 4), 2.0))

    # collider DAG 1 -> 2 -> 4 <- 3: the regressions of each vertex on its
    # parents are pinned.  S13 and S14 are free, and S23 may move when S24,
    # S34 and S44 follow it with the regression weights (l24, l34) = (1, 1/2).
    sigma = sym([[1, .5, 0, .5], [2, 0, 2], [3, 1.5], [4]])
    l24, l34 = 1.0, 0.5
    fams.append(SliceFamily(
        "collider", lv.DagModel(lv.Digraph(4, ((1, 2), (2, 4), (3, 4)))), sigma,
        [unit(0, 2, 4), unit(0, 3, 4),
         unit(1, 2, 4) + l34 * unit(1, 3, 4) + l24 * unit(2, 3, 4)
         + 2 * l24 * l34 * unit(3, 3, 4)], unit(1, 3, 4), 0.4))

    # span of I, E12 and E13 + E23: the trace, S12 and S13 + S23 are pinned.
    basis = [np.eye(3), unit(0, 1, 3), unit(0, 2, 3) + unit(1, 2, 3)]
    K = 2.0 * basis[0] + 0.5 * basis[1] - 0.3 * basis[2]
    sigma = np.linalg.inv(K)
    sigma = (sigma + sigma.T) / 2.0
    fams.append(SliceFamily(
        "concentration", lv.LinearConcentration(tuple(basis)), sigma,
        [np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0]),
         unit(0, 2, 3) - unit(1, 2, 3)], unit(0, 1, 3), 0.15))

    # 2 x 2 correlation at c = 1/2: the half-trace is tied to b = S12 by
    # a = 1.25 b + 0.375, and the cell is b >= 0.
    c = 0.5
    da = (c * c + 1) / (2 * c)

    def biv_cell(S):
        b = S[0, 1]
        return None if abs(b) < 0.05 else bool(b >= 0)

    fams.append(SliceFamily(
        "bivariate", lv.BivariateCorrelation(), sym([[1, c], [1]]),
        [np.diag([1.0, -1.0]), unit(0, 1, 2) + da * np.eye(2)],
        np.eye(2), 0.6, biv_cell))

    # equicorrelation(4) at 0.3: the symmetrised half-trace is affine in
    # the mean off-diagonal b; zero-sum moves of the diagonal and of the
    # off-diagonal keep both statistics.
    m, c = 4, 0.3
    denom = c * c * m - 2 * c * c + 2 * c
    da = ((m - 1) * c * c + 1) / denom
    iu = list(zip(*np.triu_indices(m, 1)))
    free = [np.ones((m, m)) - np.eye(m) + da * np.eye(m)]
    free += [np.diag(np.eye(m)[k] - np.eye(m)[k + 1]) for k in range(m - 1)]
    free += [unit(*iu[k], m) - unit(*iu[k + 1], m) for k in range(len(iu) - 1)]
    fams.append(SliceFamily(
        "equi4", lv.Equicorrelation(m), (1 - c) * np.eye(m) + c * np.ones((m, m)),
        free, np.eye(m), 0.25, lambda S: equi_cell(4, 0.3, S)))

    # CI union, component-one point t = (1, 2, 1, 3): S12 and S13 are
    # free, the cell is the strip |S12| <= t3 sqrt(t1 / t4).
    bound = 1.0 * np.sqrt(1.0 / 3.0)

    def ci_cell(S):
        gap = abs(S[0, 1]) - bound
        return None if abs(gap) < 0.02 else bool(gap < 0)

    fams.append(SliceFamily(
        "ciunion", lv.CiUnion(), sym([[1, 0, 0], [2, 1], [3]]),
        [unit(0, 1, 3), unit(0, 2, 3)], unit(1, 2, 3), 0.8, ci_cell))
    return fams


class MembershipMC:
    """Monte Carlo cell membership through the Python API."""

    name = "membership-mc"
    tail_pct = 99

    def __init__(self, lv, seed: int, workdir: str, pinned: dict):
        self.lv = lv
        self.rng = np.random.default_rng(seed)
        self.families = membership_families(lv)

    def _family_ops(self, f: SliceFamily) -> list[Op]:
        lv, rng = self.lv, self.rng
        S_on = f.on_slice(rng)
        in_cell = f.cell(S_on)
        scale = max(1.0, float(np.abs(S_on).max()))
        S_off = S_on + 0.02 * scale * f.off
        S_npd = make_not_pd(S_on, rng)
        expected = {"on": lv.IN_CELL if in_cell else lv.IN_SPECTRAHEDRON_NOT_CELL,
                    "off": lv.NOT_IN_SPECTRAHEDRON, "npd": lv.NOT_PD}
        ops = []
        for tag, S in (("on", S_on), ("off", S_off), ("npd", S_npd)):
            def check_verdict(out, want=expected[tag]):
                expect_no_raise(out)
                expect(out.status == want, f"status {out.status}, expected {want}")

            def flip_verdict(out, want=expected[tag]):
                other = lv.NOT_PD if want != lv.NOT_PD else lv.IN_CELL
                return dataclasses.replace(out, status=other)

            def check_in_spec(out, want=(tag == "on")):
                expect_no_raise(out)
                expect(out is want, f"in_spectrahedron gave {out}, expected {want}")

            ops.append(Op(f"cell_membership/{f.name}/{tag}",
                          lambda S=S: lv.cell_membership(f.model, f.sigma, S),
                          check_verdict, flip_verdict))
            ops.append(Op(f"in_spectrahedron/{f.name}/{tag}",
                          lambda S=S: lv.in_spectrahedron(f.model, f.sigma, S),
                          check_in_spec, flip_bool))

        def check_rule(out, want=in_cell):
            expect_no_raise(out)
            expect(bool(out) == want, f"closed-form rule gave {out}, expected {want}")

        if f.name == "bivariate":
            ops.append(Op("bivariate_cell", lambda: lv.bivariate_cell(0.5, S_on),
                          check_rule, flip_bool))
        elif f.name == "equi4":
            ops.append(Op("equicorrelation_cell",
                          lambda: lv.equicorrelation_cell(4, 0.3, S_on),
                          check_rule, flip_bool))
        elif f.name == "ciunion":
            ops.append(Op("ci_union_cell", lambda: lv.ci_union_cell(f.sigma, S_on),
                          check_rule, flip_bool))

        sample_seed = int(rng.integers(2 ** 31))

        def check_samples(out):
            expect_no_raise(out)
            expect(len(out) == 16, f"{len(out)} samples, expected 16")
            for S in out:
                expect(is_pd(S), "sample is not positive definite")
                expect(f.slice_residual(S) < 1e-8, "sample is off the slice")

        def move_sample(out):
            out = list(out)
            out[0] = out[0] + 1e-3 * f.off
            return out

        ops.append(Op(f"sample_spectrahedron/{f.name}",
                      lambda: lv.sample_spectrahedron(f.model, f.sigma, 16,
                                                      seed=sample_seed),
                      check_samples, move_sample))
        return ops

    def round(self) -> list[Op]:
        ops = [op for f in self.families for op in self._family_ops(f)]
        return [ops[k] for k in self.rng.permutation(len(ops))]

    def warmup(self) -> list[Op]:
        return self.round()


# ----------------------------------------------------------------------
# corr-enum: multistart critical points of correlation models via the CLI


ELLIPTOPE_SIGMA = sym([[1, 1 / 2, 1 / 4], [1, 1 / 3], [1]])
ELLIPTOPE_S1 = sym([[1211 / 4560, -217 / 3420, 1 / 30], [827 / 2565, 1 / 9], [1]])
ELLIPTOPE_S2 = sym([[813 / 304, 103 / 76, 1 / 2], [85 / 57, 1 / 3], [1 / 3]])
#: The acceptance suite's reference critical points of S1 (off-diagonal
#: coordinates 12, 23, 13) with their log-likelihoods and tolerances.
ELLIPTOPE_S1_POINTS = [((0.5, 1 / 3, 0.25), -1.53844955693696, 1e-8),
                       ((-0.73841, 0.213623, -0.0580265), -1.24750351572487, 1e-6),
                       ((0.182141, 0.316592, 0.190067), -1.55375020617405, 1e-6)]


def gram_correlation(m: int, rng) -> np.ndarray:
    """Random correlation matrix: Gram matrix of random unit vectors."""
    while True:
        A = rng.standard_normal((m, m + 2))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        C = A @ A.T
        if min_eig(C) > 0.05:
            return C


def correlation_slice_sample(sigma, rng) -> np.ndarray:
    """S = sigma + sigma D sigma with D diagonal: the score at sigma is diagonal."""
    m = sigma.shape[0]
    while True:
        S = sigma + sigma @ np.diag(rng.uniform(-0.4, 0.8, m)) @ sigma
        S = (S + S.T) / 2.0
        if min_eig(S) > 0.05:
            return S


def correlation_residual(sigma, S) -> float:
    """Largest off-diagonal entry of K - K S K (zero at a critical point)."""
    K = np.linalg.inv(sigma)
    F = K - K @ S @ K
    m = sigma.shape[0]
    return float(np.abs(F[np.triu_indices(m, 1)]).max())


class CorrEnum:
    """critical-points and membership on correlation models through the CLI.

    Each round runs the paper's elliptope samples S1 and S2, six fresh
    m = 3 slice samples drawn from the seed, one m = 4 and one m = 5
    problem and one m = 6 problem.  The m >= 4 problems are fixed, drawn
    once from a constant seed, so that their multistart cost, which
    depends strongly on the sample (about 0.9 to 1.7 s at m = 4), varies
    neither with the seed nor with the number of rounds a run completes.
    """

    name = "corr-enum"
    tail_pct = 90

    def __init__(self, lv, seed: int, workdir: str, pinned: dict):
        self.lv = lv
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.pinned = pinned["corr-enum"]
        fixed = np.random.default_rng(20220303)
        self.fixed = {}
        for m in (4, 5, 6):
            sigma = gram_correlation(m, fixed)
            self.fixed[m] = (sigma, correlation_slice_sample(sigma, fixed))
        self.nfile = 0

    def _problem(self, sigma, S) -> str:
        m = sigma.shape[0]
        self.nfile += 1
        path = os.path.join(self.workdir, f"corr{self.nfile}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": {"kind": "correlation", "m": m},
                       "sigma": to_json_sym(sigma), "sample": to_json_sym(S),
                       "options": {"starts": 512, "seed": 0}}, fh)
        return path

    def _points_check(self, sigma, S, must_contain_sigma: bool, pin=None):
        m = sigma.shape[0]

        def check(res):
            expect_no_raise(res)
            if res.code == 3:
                raise SolverFailure(res.err.strip())
            expect(res.code == 0, f"exit code {res.code}: {res.err.strip()}")
            pts = json.loads(res.out)["points"]
            expect(len(pts) >= 1, "no critical point")
            lls = []
            for p in pts:
                P = from_json_sym(p["sigma"])
                expect(np.abs(np.diag(P) - 1).max() < 1e-12, "diagonal is not 1")
                expect(is_pd(P), "point is not positive definite")
                expect(correlation_residual(P, S) < 1e-8, "point is not critical")
                ll = loglik(P, S)
                expect(abs(ll - p["loglik"]) < 1e-8 * (1 + abs(ll)),
                       f"log-likelihood {p['loglik']} != {ll}")
                lls.append(ll)
            expect(all(x >= y - 1e-12 for x, y in zip(lls, lls[1:])),
                   "points are not sorted by log-likelihood")
            found = [from_json_sym(p["sigma"]) for p in pts]
            if must_contain_sigma:
                expect(any(np.abs(P - sigma).max() < 1e-6 for P in found),
                       "the slice's own point was not found")
            if pin is not None:
                expect(len(pts) >= pin["count"],
                       f"{len(pts)} points, pinned at least {pin['count']}")
                expect(abs(lls[0] - pin["best_loglik"]) < 1e-8,
                       f"best log-likelihood {lls[0]} != pinned {pin['best_loglik']}")
                for coords, ll_ref, tol in pin.get("reference", []):
                    near = [P for P in found
                            if max(abs(P[i, j] - v) for (i, j), v in
                                   zip(((0, 1), (1, 2), (0, 2)), coords)) < 1e-4]
                    expect(len(near) == 1, f"reference point {coords} not found")
                    expect(abs(loglik(near[0], S) - ll_ref) < tol,
                           "reference log-likelihood differs")
        return check

    def _membership_check(self, sigma, S, pin=None):
        def check(res):
            expect_no_raise(res)
            if res.code == 3:
                raise SolverFailure(res.err.strip())
            expect(res.code in (0, 1), f"exit code {res.code}: {res.err.strip()}")
            v = json.loads(res.out)
            status = v["status"]
            expect((res.code == 0) == (status == "InCell"),
                   f"exit code {res.code} with status {status}")
            expect(status in ("InCell", "InSpectrahedronNotCell"),
                   f"slice sample got status {status}")
            if status == "InSpectrahedronNotCell":
                W = from_json_sym(v["witness"]["point"])
                expect(is_pd(W) and correlation_residual(W, S) < 1e-8,
                       "witness is not a critical point")
                gain = loglik(W, S) - loglik(sigma, S)
                expect(gain > 1e-9 and abs(gain + v["margin"]) < 1e-8 * (1 + gain),
                       "witness does not beat sigma by the margin")
            elif v["margin"] is not None:
                expect(v["margin"] >= -1e-9, "InCell with a negative margin")
            if pin is not None:
                expect(res.code == pin["membership_code"],
                       f"exit code {res.code}, pinned {pin['membership_code']}")
        return check

    def _pair(self, tag, sigma, S, pin=None, membership=True) -> list[Op]:
        lv = self.lv
        path = self._problem(sigma, S)
        m = sigma.shape[0]
        ops = [Op(f"critical-points/{tag}",
                  lambda: run_cli(lv, ["critical-points", path]),
                  self._points_check(sigma, S, m == 3, pin),
                  bump_json_number, may_fail=(m == 6))]
        if membership:
            ops.append(Op(f"membership/{tag}",
                          lambda: run_cli(lv, ["membership", path]),
                          self._membership_check(sigma, S, pin), flip_code))
        return ops

    def round(self) -> list[Op]:
        ops = []
        ops += self._pair("elliptope-S1", ELLIPTOPE_SIGMA, ELLIPTOPE_S1,
                          {**self.pinned["S1"], "reference": ELLIPTOPE_S1_POINTS})
        ops += self._pair("elliptope-S2", ELLIPTOPE_SIGMA, ELLIPTOPE_S2,
                          self.pinned["S2"])
        for _ in range(6):
            ops += self._pair("m3", ELLIPTOPE_SIGMA,
                              correlation_slice_sample(ELLIPTOPE_SIGMA, self.rng))
        for m in (4, 5, 6):
            ops += self._pair(f"m{m}", *self.fixed[m], membership=(m < 6))
        return [ops[k] for k in self.rng.permutation(len(ops))]

    def warmup(self) -> list[Op]:
        # A fixed problem, so that the set-up time does not depend on the seed.
        return self._pair("elliptope-S2", ELLIPTOPE_SIGMA, ELLIPTOPE_S2)


# ----------------------------------------------------------------------
# graph-fit: larger graph and DAG models


def path_graph(m: int):
    return m, {(i, i + 1) for i in range(1, m)}


def two_cliques(k: int, overlap: int = 4):
    m = 2 * k - overlap
    groups = (range(1, k + 1), range(k - overlap + 1, m + 1))
    return m, {(i, j) for g in groups for i in g for j in g if i < j}


def grid_graph(r: int, c: int):
    def v(i, j):
        return i * c + j + 1
    edges = {(v(i, j), v(i + 1, j)) for i in range(r - 1) for j in range(c)}
    edges |= {(v(i, j), v(i, j + 1)) for i in range(r) for j in range(c - 1)}
    return r * c, edges


GRAPHS = {f"path{m}": path_graph(m) for m in (10, 20, 30, 40)}
GRAPHS.update({f"cliques{k}": two_cliques(k) for k in (6, 8, 10, 12)})
GRAPHS.update({"grid4x4": grid_graph(4, 4), "grid4x6": grid_graph(4, 6)})
CHORDAL = [name for name in GRAPHS if not name.startswith("grid")]
DAG_SIZES = (6, 8, 10)


def random_sample(m: int, rng) -> np.ndarray:
    A = rng.standard_normal((m, m + 5))
    S = A @ A.T / (m + 5) + 0.5 * np.eye(m)
    return (S + S.T) / 2.0


def check_graph_mle(m, edges, S, P, ll_reported=None) -> None:
    """P is the graph-model MLE of S: PD, matches S on the diagonal and
    the edges, and its inverse vanishes off the edges."""
    expect(is_pd(P), "MLE is not positive definite")
    pinned = [(i, i) for i in range(m)] + [(i - 1, j - 1) for i, j in edges]
    rows, cols = zip(*pinned)
    gap = float(np.abs(P[rows, cols] - S[rows, cols]).max())
    expect(gap < 1e-8 * max(1.0, float(np.abs(S).max())),
           f"fitted covariance misses the sample by {gap:.3g} on the edges")
    K = np.linalg.inv(P)
    non = [(i, j) for i in range(m) for j in range(i + 1, m)
           if (i + 1, j + 1) not in edges]
    if non:
        r, c = zip(*non)
        off = float(np.abs(K[r, c]).max())
        expect(off < 1e-7 * float(np.abs(K).max()),
               f"concentration is {off:.3g} off the edges")
    if ll_reported is not None:
        ll = loglik(P, S)
        expect(abs(ll - ll_reported) < 1e-8 * (1 + abs(ll)),
               f"log-likelihood {ll_reported} != {ll}")


def check_decomposition(m, edges, dec) -> None:
    """(U, T, W) splits the graph across the clique T."""
    U, T, W = set(dec["U"]), set(dec["T"]), set(dec["W"])
    expect(U | W == set(range(1, m + 1)) and U & W == T, "not a vertex split")
    expect(all((i, j) in edges for i in T for j in T if i < j), "T is not a clique")
    expect(not any((min(i, j), max(i, j)) in edges
                   for i in U - T for j in W - T), "T does not separate U and W")


def trek_rule_covariance(m: int, a, lam: dict) -> np.ndarray:
    """Simple trek rule as the recursion sigma_ij = sum_p lam_pj sigma_ip (i < j)."""
    S = np.diag(np.asarray(a, dtype=float))
    for j in range(1, m + 1):
        for i in range(1, j):
            S[i - 1, j - 1] = S[j - 1, i - 1] = sum(
                w * S[i - 1, p - 1] for (p, q), w in lam.items() if q == j)
    return S


class GraphFit:
    """MLE and decomposition of larger graph models; trek rule and DAG MLE."""

    name = "graph-fit"
    tail_pct = 90

    def __init__(self, lv, seed: int, workdir: str, pinned: dict):
        self.lv = lv
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.pinned = pinned["graph-fit"]
        self.nfile = 0

    def _problem(self, name, S) -> str:
        m, edges = GRAPHS[name]
        self.nfile += 1
        path = os.path.join(self.workdir, f"graph{self.nfile}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": {"kind": "graph", "m": m,
                                 "edges": sorted(list(e) for e in edges)},
                       "sample": to_json_sym(S)}, fh)
        return path

    def _cli_ops(self, name) -> list[Op]:
        lv = self.lv
        m, edges = GRAPHS[name]
        S = random_sample(m, self.rng)
        path = self._problem(name, S)

        def check_mle(res):
            expect_no_raise(res)
            expect(res.code == 0, f"exit code {res.code}: {res.err.strip()}")
            pts = json.loads(res.out)["points"]
            expect(len(pts) == 1, "expected exactly one point")
            check_graph_mle(m, edges, S, from_json_sym(pts[0]["sigma"]),
                            pts[0]["loglik"])

        def check_dec(res):
            expect_no_raise(res)
            expect(res.code == 0, f"exit code {res.code}: {res.err.strip()}")
            dec = json.loads(res.out)["decomposition"]
            expect(dec == self.pinned[name], f"decomposition {dec} != pinned")
            if dec is not None:
                check_decomposition(m, edges, dec)

        def move_dec(res):
            doc = json.loads(res.out)
            doc["decomposition"] = {"U": [1], "T": [], "W": [1]}
            return dataclasses.replace(res, out=json.dumps(doc))

        return [Op(f"cli-mle/{name}", lambda: run_cli(lv, ["mle", path]),
                   check_mle, bump_json_number),
                Op(f"cli-decompose/{name}", lambda: run_cli(lv, ["decompose", path]),
                   check_dec, move_dec)]

    def _decomposable_op(self, name) -> Op:
        lv = self.lv
        m, edges = GRAPHS[name]
        G = lv.Graph(m, frozenset(edges))
        S = random_sample(m, self.rng)

        def check(out):
            expect_no_raise(out)
            check_graph_mle(m, edges, S, out.sigma, out.loglik)

        return Op(f"mle_graph_decomposable/{name}",
                  lambda: lv.mle_graph_decomposable(G, S), check,
                  lambda cp: dataclasses.replace(cp, sigma=cp.sigma * 1.001))

    def _round_trip_op(self) -> Op:
        """project_cell then compose_cell on two overlapping 6-cliques."""
        lv, rng = self.lv, self.rng
        m, edges = GRAPHS["cliques6"]
        G = lv.Graph(m, frozenset(edges))
        K = np.zeros((m, m))
        for i, j in edges:
            K[i - 1, j - 1] = K[j - 1, i - 1] = rng.uniform(-1, 1)
        K += np.diag(np.abs(K).sum(axis=1) + 1.0)
        sigma = np.linalg.inv(K)
        sigma = (sigma + sigma.T) / 2.0
        non = [(i, j) for i in range(m) for j in range(i + 1, m)
               if (i + 1, j + 1) not in edges]
        while True:   # cell member: move only the entries off the edges
            S = sigma + sum(rng.uniform(-0.3, 0.3) * min_eig(sigma) * unit(i, j, m)
                            for i, j in non)
            if is_pd(S, 1e-3):
                break
        U = self.pinned["cliques6"]["U"]
        W = self.pinned["cliques6"]["W"]

        def call():
            A1, A2, M = lv.project_cell(G, sigma, S)
            return A1, A2, lv.compose_cell(G, sigma, A1, A2, M)

        def check(out):
            expect_no_raise(out)
            A1, A2, S2 = out
            iu, iw = [u - 1 for u in U], [w - 1 for w in W]
            expect(np.array_equal(A1, S[np.ix_(iu, iu)]), "S_UU is not the U block")
            expect(np.array_equal(A2, S[np.ix_(iw, iw)]), "S_WW is not the W block")
            expect(np.abs(S2 - S).max() < 1e-8 * np.abs(S).max(),
                   "compose(project(S)) != S")

        return Op("project-compose/cliques6", call, check,
                  lambda out: (out[0], out[1], out[2] + 1e-6))

    def _dag_ops(self, m) -> list[Op]:
        lv, rng = self.lv, self.rng
        arcs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
        dag = lv.Digraph(m, frozenset(arcs))
        while True:
            lam = {e: float(rng.uniform(-0.3, 0.3)) for e in arcs}
            a = rng.uniform(1.0, 2.0, m)
            want = trek_rule_covariance(m, a, lam)
            if is_pd(want, 0.05):
                break
        params = lv.DagParams(a=tuple(float(x) for x in a), lam=lam)

        def check_trek(out):
            expect_no_raise(out)
            expect(np.abs(out - want).max() < 1e-10 * np.abs(want).max(),
                   "trek covariance differs from the trek-rule recursion")

        def check_dag(out):
            expect_no_raise(out)
            sem, point = out
            # the complete DAG is saturated: the MLE is the sample itself
            expect(np.abs(point.sigma - want).max() < 1e-9 * np.abs(want).max(),
                   "saturated DAG MLE differs from the sample")
            expect(abs(point.loglik - loglik(want, want)) < 1e-8,
                   "log-likelihood differs")
            for (p, q), w in lam.items():
                expect(abs(sem.Lambda[p - 1, q - 1] - w) < 1e-8,
                       f"arc weight ({p}, {q}) not recovered")

        return [Op(f"trek_covariance/complete{m}",
                   lambda: lv.trek_covariance(dag, params), check_trek,
                   lambda out: out + 1e-6),
                Op(f"mle_dag/complete{m}", lambda: lv.mle_dag(dag, want), check_dag,
                   lambda out: (out[0], dataclasses.replace(
                       out[1], sigma=out[1].sigma * 1.001)))]

    def round(self) -> list[Op]:
        ops = []
        for name in GRAPHS:
            ops += self._cli_ops(name)
        ops += [self._decomposable_op(name) for name in CHORDAL]
        ops += [self._round_trip_op() for _ in range(3)]
        for m in DAG_SIZES:
            ops += self._dag_ops(m)
        return [ops[k] for k in self.rng.permutation(len(ops))]

    def warmup(self) -> list[Op]:
        return (self._cli_ops("path10") + [self._decomposable_op("path10"),
                                            self._round_trip_op()]
                + self._dag_ops(6))


WORKLOADS = {w.name: w for w in (MembershipMC, CorrEnum, GraphFit)}
