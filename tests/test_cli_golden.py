"""CLI golden outputs: one problem per model JSON kind, three commands each.

Every problem file in ``tests/golden`` holds a model, a model point
``sigma`` and a sample.  For each problem the exit code and the exact
stdout bytes of ``mle --all``, ``membership`` and
``sample --count 3 --seed 1`` are checked in next to it.  Regenerate
them (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from logvor.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = sorted(p.stem for p in GOLDEN.glob("*.json")
                  if p.name != "exit_codes.json")
COMMANDS = {"mle-all": ["mle", "--all"],
            "membership": ["membership"],
            "sample": ["sample", "--count", "3", "--seed", "1"]}


def run(problem: str, command: str) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(COMMANDS[command] + [str(GOLDEN / f"{problem}.json")])
    return code, out.getvalue().encode("utf-8")


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


if __name__ == "__main__":
    codes = {}
    for problem in PROBLEMS:
        for command in sorted(COMMANDS):
            code, out = run(problem, command)
            codes[f"{problem}.{command}"] = code
            (GOLDEN / f"{problem}.{command}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
