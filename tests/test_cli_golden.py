"""CLI golden outputs: one problem per model JSON kind, three commands
each, and the SHA-256 of every figure scene's CSV.

Every problem file in ``tests/golden`` holds a model, a model point
``sigma`` and a sample.  For each problem the exit code and the exact
stdout bytes of ``critical-points``, ``membership`` and
``sample --count 3 --seed 1`` are checked in next to it.  Each figure
scene is written at ``--grid 41`` (the 3-d scenes at ``--z 0.25``) and
the digest of its CSV is kept in ``figures.json``.  Regenerate them
(only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py

Run as a script, the file sets ``OPENBLAS_NUM_THREADS=1`` before numpy
is imported, as CI does when it regenerates the goldens and fails on
any diff: so a local regeneration writes the bytes that CI writes.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

if __name__ == "__main__":              # before numpy is imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest  # noqa: E402  (after the thread setting)

from logvor.cli import _FIGURES, main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = sorted(p.stem for p in GOLDEN.glob("*.json")
                  if p.name not in ("exit_codes.json", "figures.json"))
COMMANDS = {"critical-points": ["critical-points"],
            "membership": ["membership"],
            "sample": ["sample", "--count", "3", "--seed", "1"]}
FIGURE_ARGS = {"dag-slice": ["--z", "0.25"],
               "path-spectrahedron": ["--z", "0.25"]}


def run(problem: str, command: str) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(COMMANDS[command] + [str(GOLDEN / f"{problem}.json")])
    return code, out.getvalue().encode("utf-8")


def figure_digest(name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{name}.csv"
        args = ["figure", name, "--out", str(out), "--grid", "41"]
        assert main(args + FIGURE_ARGS.get(name, [])) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_kind_has_a_problem():
    kinds = {json.loads((GOLDEN / f"{p}.json").read_text())["model"]["kind"]
             for p in PROBLEMS}
    assert kinds == {"concentration", "graph", "dag", "bivariate-correlation",
                     "equicorrelation", "correlation", "ci-union"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("problem", PROBLEMS)
def test_golden_output(problem, command):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run(problem, command)
    assert code == codes[f"{problem}.{command}"]
    assert out == (GOLDEN / f"{problem}.{command}.out").read_bytes()


@pytest.mark.parametrize("name", _FIGURES)
def test_figure_digest(name):
    digests = json.loads((GOLDEN / "figures.json").read_text())
    assert figure_digest(name) == digests[name]


if __name__ == "__main__":
    codes = {}
    for problem in PROBLEMS:
        for command in sorted(COMMANDS):
            code, out = run(problem, command)
            codes[f"{problem}.{command}"] = code
            (GOLDEN / f"{problem}.{command}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    (GOLDEN / "figures.json").write_text(
        json.dumps({name: figure_digest(name) for name in _FIGURES},
                   indent=1) + "\n")
