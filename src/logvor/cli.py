"""Command line interface.

Problem files are JSON objects with a ``model`` field and, depending on
the command, ``sigma`` (a model point), ``sample`` (a data matrix) and
``options`` (solver options).  All numeric output is printed with 15
significant digits so repeated runs are byte-identical.

Exit codes: 0 success (for ``membership``: the sample is in the cell),
1 membership rejection, 2 malformed input (an :class:`InputError`, an
unreadable file or bad JSON), 3 solver failure (any other
:class:`LogvorError`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .cells import IN_CELL, _bivariate_side, _ci_union_strip, \
    _equi_half_trace, cell_membership, sample_spectrahedron, verdict_to_json
from .core import pd_mask, sym_from_json, sym_to_json
from .errors import InputError, InvalidModel, LogvorError, OutOfRange, \
    UnknownFigure, _integer
from .graphs import find_reducible_decomposition
from .mle import SolverOptions, _residual, critical_points, \
    options_from_json
from .models import GraphModel, model_from_json

#: Range of ``figure --grid``, points per axis; a scene has grid^2 rows.
_GRID_RANGE = (2, 1001)
#: Largest ``|z|`` that ``figure --z`` accepts.
_Z_MAX = 1e6


def _round15(x):
    """Round floats (recursively) to 15 significant digits for stable
    output, and write a float that is then not finite as None."""
    if isinstance(x, float):
        x = float(f"{x:.15g}")
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _round15(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round15(v) for v in x]
    return x


def _emit(obj) -> None:
    print(json.dumps(_round15(obj), indent=2, allow_nan=False))


def _read(path: str, *fields: str) -> tuple:
    """The problem file at ``path``, then its model and its ``fields``
    matrices, each checked for and decoded in that order."""
    with open(path, "r", encoding="utf-8") as fh:
        problem = json.load(fh)
    if not isinstance(problem, dict):
        raise InvalidModel("problem file must be a JSON object")
    decoded = []
    for field in ("model",) + fields:
        if field not in problem:
            raise InvalidModel(f'problem file needs a "{field}" field')
        decode = sym_from_json if decoded else model_from_json
        decoded.append(decode(problem[field]))
    return (problem, *decoded)


def _solver_options(args, problem: dict) -> SolverOptions:
    """The problem's ``options``, decoded once, with the seed in force:
    the ``--seed`` flag, else ``options.seed``, else 0.  A negative flag
    raises :class:`OutOfRange` naming ``--seed``."""
    opts = options_from_json(problem.get("options"))
    if args.seed is None:
        return opts
    return dataclasses.replace(opts, seed=_integer(args.seed, "--seed", 0))


def _point_report(model, cp, sample) -> dict:
    """The report of a critical point of the validated ``sample``."""
    return {"sigma": sym_to_json(cp.sigma),
            "loglik": float(cp.loglik),
            "source": cp.source,
            "residual": float(_residual(model, cp.sigma, sample))}


def _cmd_points(args, count=None) -> int:
    problem, model, sample = _read(args.file, "sample")
    points = critical_points(model, sample, _solver_options(args, problem))
    report = {"points": [_point_report(model, cp, sample)
                         for cp in points[:count]]}
    if model.degree_one:
        report["note"] = "ML degree one: the critical point is the unique MLE"
    _emit(report)
    return 0


def _cmd_membership(args) -> int:
    problem, model, sigma, sample = _read(args.file, "sigma", "sample")
    verdict = cell_membership(model, sigma, sample,
                              _solver_options(args, problem))
    _emit(verdict_to_json(verdict))
    return 0 if verdict.status == IN_CELL else 1


def _cmd_sample(args) -> int:
    problem, model, sigma = _read(args.file, "sigma")
    seed = _solver_options(args, problem).seed
    samples = sample_spectrahedron(model, sigma, args.count, seed=seed,
                                  radius=args.radius)
    _emit({"seed": seed, "samples": [sym_to_json(S) for S in samples]})
    return 0


def _cmd_decompose(args) -> int:
    _, model = _read(args.file)
    if not isinstance(model, GraphModel):
        raise InvalidModel("decompose needs a graph model")
    dec = find_reducible_decomposition(model.graph)
    if dec is None:
        _emit({"decomposition": None})
    else:
        _emit({"decomposition": {"U": list(dec.U), "T": list(dec.T),
                                 "W": list(dec.W)}})
    return 0


def _stack(rows) -> np.ndarray:
    """The ``(N, m, m)`` stack of the matrix literal ``rows``, whose
    entries are numbers or length-N arrays."""
    flat = np.broadcast_arrays(*[v for row in rows for v in row])
    return np.stack(flat, axis=-1).reshape(-1, len(rows), len(rows))


#: Model points of the two union-model scenes, one per component.
_SIGMA_T = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]])
_SIGMA_S = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 4.0]])

#: Figure scenes: coordinate columns (a third one, z, is the fixed
#: slice), plot window, the scene matrices at one grid column x (a
#: number) and ys (an array) as an (N, m, m) stack, and the cell rule on
#: such a stack (None where the cell is the spectrahedron).
_SCENES = {
    "ci-union-t": (("x1", "x2"), ((-1.5, 1.5), (-2.0, 2.0)),
                   lambda x1, x2, z: _stack([[1.0, x1, x2], [x1, 2.0, 1.0],
                                             [x2, 1.0, 3.0]]),
                   lambda S: _ci_union_strip(_SIGMA_T, S)),
    "ci-union-s": (("y1", "y2"), ((-3.0, 3.0), (-4.0, 4.0)),
                   lambda y1, y2, z: _stack([[2.0, 1.0, y1], [1.0, 3.0, y2],
                                             [y1, y2, 4.0]]),
                   lambda S: _ci_union_strip(_SIGMA_S, S)),
    # correlation 1/2: the slice ties S_22 to b = S_12 and k = S_11
    "bivariate": (("b", "k"), ((-0.5, 2.0), (0.0, 4.0)),
                  lambda b, k, z: _stack(
                      [[k, b], [b, 2.0 * _equi_half_trace(2, 0.5, b) - k]]),
                  lambda S: _bivariate_side(0.5, S[:, 0, 1])),
    "dag-slice": (("x", "y", "z"), ((-2.0, 2.0), (-2.5, 2.5)),
                  lambda x, y, z: _stack([[1.0, 0.5, x, y],
                                          [0.5, 2.0, z, 2.0 + 0.5 * z],
                                          [x, z, 3.0, 1.5 + z],
                                          [y, 2.0 + 0.5 * z, 1.5 + z, 4.0 + z]]),
                  None),
    "path-spectrahedron": (
        ("x", "y", "z"), ((-8.0, 8.0), (-8.0, 8.0)),
        lambda x, y, z: _stack([[6.0, 1.0, x, y], [1.0, 7.0, 1.0, z],
                                [x, 1.0, 8.0, 2.0], [y, z, 2.0, 9.0]]),
        None),
}
_FIGURES = tuple(_SCENES)


def _cmd_figure(args) -> int:
    _integer(args.grid, "--grid", *_GRID_RANGE,
             say="{name} must be between {lo} and {hi}, got {x}")
    if args.name not in _SCENES:
        raise UnknownFigure(
            f"unknown figure {args.name!r}; choose from {_FIGURES}")
    if not (np.isfinite(args.z) and abs(args.z) <= _Z_MAX):
        raise OutOfRange(f"--z must be finite with |z| <= {_Z_MAX:g}, "
                         f"got {args.z}")
    names, ((x0, x1), (y0, y1)), matrix, rule = _SCENES[args.name]
    ys = np.linspace(y0, y1, args.grid)
    ycol = [f"{y:.15g}" for y in ys]
    zcol = f",{args.z:.15g}" if len(names) == 3 else ""
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".csv.tmp")
    try:
        # CSV rows ending in "\r\n"; no field needs quoting
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(names) + ",in_spectrahedron,in_cell\r\n")
            # one grid column at a time keeps the stack at grid matrices
            for x in np.linspace(x0, x1, args.grid):
                S = matrix(x, ys, args.z)
                spec = pd_mask(S)
                cell = spec if rule is None else spec & rule(S)
                xcol = f"{x:.15g},"
                fh.write("".join(
                    f"{xcol}{y}{zcol},{p:d},{c:d}\r\n"
                    for y, p, c in zip(ycol, spec.tolist(), cell.tolist())))
        os.replace(tmp_path, args.out)     # single atomic publish
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return 0


def _build_parser() -> argparse.ArgumentParser:
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("file", help="problem JSON file")
    seeded = argparse.ArgumentParser(add_help=False, parents=[problem])
    seeded.add_argument("--seed", type=int, default=None)
    parser = argparse.ArgumentParser(
        prog="logvor",
        description="Gaussian MLE, critical points and logarithmic "
                    "Voronoi cell membership.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mle", parents=[seeded],
                       help="maximum likelihood estimate of a sample")
    p.set_defaults(func=lambda a: _cmd_points(a, 1))

    p = sub.add_parser("critical-points", parents=[seeded],
                       help="all likelihood critical points")
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("membership", parents=[seeded],
                       help="is the sample in the cell of sigma?")
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("sample", parents=[seeded],
                       help="draw spectrahedron samples at sigma")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--radius", type=float, default=None,
                   help="proposal radius, 0 < radius < inf")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decompose", parents=[problem],
                       help="clique-separator decomposition of a graph model")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("figure", help="write a figure grid as CSV")
    p.add_argument("name", help=f"one of {', '.join(_FIGURES)}")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--grid", type=int, default=201,
                   help=f"points per axis, {_GRID_RANGE[0]} to "
                        f"{_GRID_RANGE[1]} (default 201)")
    p.add_argument("--z", type=float, default=0.0,
                   help="fixed third coordinate of the 3-d scenes, "
                        f"|z| <= {_Z_MAX:g}")
    p.set_defaults(func=_cmd_figure)
    return parser


#: Built once: ``main`` only parses.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LogvorError, MemoryError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
