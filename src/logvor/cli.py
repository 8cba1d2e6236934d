"""Command line interface.

Problem files are JSON objects with a ``model`` field and, depending on
the command, ``sigma`` (a model point), ``sample`` (a data matrix) and
``options`` (solver options).  All numeric output is printed with 15
significant digits so repeated runs are byte-identical.

Exit codes: 0 success (for ``membership``: the sample is in the cell),
1 membership rejection, 2 malformed input, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from . import __version__
from .cells import cell_membership, sample_spectrahedron, verdict_to_json, \
    IN_CELL, DEGREE_ONE_FAMILIES
from .core import is_positive_definite, sym_from_json, sym_to_json
from .errors import (
    IndexOutOfRange,
    InvalidModel,
    LogvorError,
    NotOnSlice,
    OutOfRange,
    PreconditionFailed,
    ShapeMismatch,
    UnknownFigure,
)
from .graphs import find_reducible_decomposition
from .mle import SolverOptions, critical_points, criticality_residual, \
    options_from_json
from .models import GraphModel, model_from_json

#: Errors that indicate malformed input rather than a failed computation.
_INPUT_ERRORS = (ShapeMismatch, IndexOutOfRange, InvalidModel, OutOfRange,
                 UnknownFigure, NotOnSlice, PreconditionFailed)

_FIGURES = ("ci-union-t", "ci-union-s", "bivariate", "dag-slice",
            "path-spectrahedron")

#: Range of ``figure --grid``, points per axis; a scene has grid^2 rows.
_GRID_RANGE = (2, 1001)


def _round15(x):
    """Round floats (recursively) to 15 significant digits for stable output."""
    if isinstance(x, float):
        return float(f"{x:.15g}")
    if isinstance(x, dict):
        return {k: _round15(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round15(v) for v in x]
    return x


def _emit(obj) -> None:
    print(json.dumps(_round15(obj), indent=2))


def _load_problem(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidModel("problem file must be a JSON object")
    return obj


def _get_model(problem: dict):
    if "model" not in problem:
        raise InvalidModel('problem file needs a "model" field')
    return model_from_json(problem["model"])


def _get_matrix(problem: dict, field: str) -> np.ndarray:
    if field not in problem:
        raise InvalidModel(f'problem file needs a "{field}" field')
    return sym_from_json(problem[field])


def _resolve_seed(flag_seed: Optional[int], problem: dict) -> int:
    """Seed priority: command flag, problem options, LOGVOR_SEED, then 0."""
    if flag_seed is not None:
        return flag_seed
    opts = problem.get("options")
    if isinstance(opts, dict) and "seed" in opts:
        return int(opts["seed"])
    env = os.environ.get("LOGVOR_SEED")
    if env is not None:
        return int(env)
    return 0


def _solver_options(problem: dict, seed: int) -> SolverOptions:
    opts = options_from_json(problem.get("options"))
    return SolverOptions(starts=opts.starts, seed=seed, tol=opts.tol,
                         max_iter=opts.max_iter)


def _point_report(model, cp, sample) -> dict:
    return {"sigma": sym_to_json(cp.sigma),
            "loglik": float(cp.loglik),
            "source": cp.source,
            "residual": float(criticality_residual(model, cp.sigma, sample))}


def _cmd_points(args, all_points: bool) -> int:
    problem = _load_problem(args.file)
    model = _get_model(problem)
    sample = _get_matrix(problem, "sample")
    opts = _solver_options(problem, _resolve_seed(args.seed, problem))
    points = critical_points(model, sample, opts)
    if not all_points:
        points = points[:1]
    report = {"points": [_point_report(model, cp, sample) for cp in points]}
    if isinstance(model, DEGREE_ONE_FAMILIES):
        report["note"] = "ML degree one: the critical point is the unique MLE"
    _emit(report)
    return 0


def _cmd_membership(args) -> int:
    problem = _load_problem(args.file)
    model = _get_model(problem)
    sigma = _get_matrix(problem, "sigma")
    sample = _get_matrix(problem, "sample")
    opts = _solver_options(problem, _resolve_seed(args.seed, problem))
    verdict = cell_membership(model, sigma, sample, opts)
    _emit(verdict_to_json(verdict))
    return 0 if verdict.status == IN_CELL else 1


def _cmd_sample(args) -> int:
    problem = _load_problem(args.file)
    model = _get_model(problem)
    sigma = _get_matrix(problem, "sigma")
    seed = _resolve_seed(args.seed, problem)
    samples = sample_spectrahedron(model, sigma, args.count, seed=seed,
                                  radius=args.radius)
    _emit({"seed": seed, "samples": [sym_to_json(S) for S in samples]})
    return 0


def _cmd_decompose(args) -> int:
    problem = _load_problem(args.file)
    model = _get_model(problem)
    if not isinstance(model, GraphModel):
        raise InvalidModel("decompose needs a graph model")
    dec = find_reducible_decomposition(model.graph)
    if dec is None:
        _emit({"decomposition": None})
    else:
        _emit({"decomposition": {"U": list(dec.U), "T": list(dec.T),
                                 "W": list(dec.W)}})
    return 0


def _figure_rows(name: str, grid: int, z: float):
    """Yield (header, row iterator) for a named figure.

    Figures are fixed scenes over documented plot windows; each row is
    (coordinates..., in_spectrahedron, in_cell).  The two 3-dimensional
    scenes are sliced at a fixed third coordinate ``z``.
    """
    if name == "ci-union-t":
        t1, t2, t3, t4 = 1.0, 2.0, 1.0, 3.0
        bound = t3 * np.sqrt(t1 / t4)
        xs = np.linspace(-1.5, 1.5, grid)
        ys = np.linspace(-2.0, 2.0, grid)

        def rows():
            for x1 in xs:
                for x2 in ys:
                    S = np.array([[t1, x1, x2], [x1, t2, t3], [x2, t3, t4]])
                    spec = is_positive_definite(S)
                    cell = spec and abs(x1) <= bound
                    yield (x1, x2, int(spec), int(cell))

        return ("x1", "x2", "in_spectrahedron", "in_cell"), rows()

    if name == "ci-union-s":
        s1, s2, s3, s4 = 2.0, 1.0, 3.0, 4.0
        bound = s2 * np.sqrt(s4 / s1)
        xs = np.linspace(-3.0, 3.0, grid)
        ys = np.linspace(-4.0, 4.0, grid)

        def rows():
            for y1 in xs:
                for y2 in ys:
                    S = np.array([[s1, s2, y1], [s2, s3, y2], [y1, y2, s4]])
                    spec = is_positive_definite(S)
                    cell = spec and abs(y2) <= bound
                    yield (y1, y2, int(spec), int(cell))

        return ("y1", "y2", "in_spectrahedron", "in_cell"), rows()

    if name == "bivariate":
        c = 0.5
        bs = np.linspace(-0.5, 2.0, grid)
        ks = np.linspace(0.0, 4.0, grid)

        def rows():
            for b in bs:
                a = (b * c * c - c ** 3 + b + c) / (2.0 * c)
                for k in ks:
                    S = np.array([[k, b], [b, 2.0 * a - k]])
                    spec = is_positive_definite(S)
                    cell = spec and b >= 0.0
                    yield (b, k, int(spec), int(cell))

        return ("b", "k", "in_spectrahedron", "in_cell"), rows()

    if name == "dag-slice":
        xs = np.linspace(-2.0, 2.0, grid)
        ys = np.linspace(-2.5, 2.5, grid)

        def rows():
            for x in xs:
                for y in ys:
                    S = np.array([
                        [1.0, 0.5, x, y],
                        [0.5, 2.0, z, 2.0 + 0.5 * z],
                        [x, z, 3.0, 1.5 + z],
                        [y, 2.0 + 0.5 * z, 1.5 + z, 4.0 + z]])
                    spec = is_positive_definite(S)
                    yield (x, y, z, int(spec), int(spec))

        return ("x", "y", "z", "in_spectrahedron", "in_cell"), rows()

    if name == "path-spectrahedron":
        xs = np.linspace(-8.0, 8.0, grid)
        ys = np.linspace(-8.0, 8.0, grid)

        def rows():
            for x in xs:
                for y in ys:
                    S = np.array([
                        [6.0, 1.0, x, y],
                        [1.0, 7.0, 1.0, z],
                        [x, 1.0, 8.0, 2.0],
                        [y, z, 2.0, 9.0]])
                    spec = is_positive_definite(S)
                    yield (x, y, z, int(spec), int(spec))

        return ("x", "y", "z", "in_spectrahedron", "in_cell"), rows()

    raise UnknownFigure(f"unknown figure {name!r}; choose from {_FIGURES}")


def _cmd_figure(args) -> int:
    lo, hi = _GRID_RANGE
    if not lo <= args.grid <= hi:
        raise OutOfRange(f"--grid must be between {lo} and {hi}, "
                         f"got {args.grid}")
    header, rows = _figure_rows(args.name, args.grid, args.z)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{v:.15g}" if isinstance(v, float) else v
                                 for v in row])
        os.replace(tmp_path, args.out)     # single atomic publish
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logvor",
        description="Gaussian MLE, critical points and logarithmic "
                    "Voronoi cell membership.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mle", help="maximum likelihood estimate of a sample")
    p.add_argument("file", help="problem JSON with model and sample")
    p.add_argument("--all", action="store_true",
                   help="print every critical point, not just the best")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=lambda a: _cmd_points(a, all_points=a.all))

    p = sub.add_parser("critical-points", help="all likelihood critical points")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=lambda a: _cmd_points(a, all_points=True))

    p = sub.add_parser("membership",
                       help="is the sample in the cell of sigma?")
    p.add_argument("file", help="problem JSON with model, sigma and sample")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("sample", help="draw spectrahedron samples at sigma")
    p.add_argument("file", help="problem JSON with model and sigma")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decompose",
                       help="clique-separator decomposition of a graph model")
    p.add_argument("file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("figure", help="write a figure grid as CSV")
    p.add_argument("name", help=f"one of {', '.join(_FIGURES)}")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--grid", type=int, default=201,
                   help=f"points per axis, {_GRID_RANGE[0]} to "
                        f"{_GRID_RANGE[1]} (default 201)")
    p.add_argument("--z", type=float, default=0.0,
                   help="fixed third coordinate of the 3-d scenes")
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LogvorError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
