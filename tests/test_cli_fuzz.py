"""Property test of the command line, run in process: every problem file
and flag ends in an exit code 0-3, with no traceback and no numpy text.

Problem files come from the decoder strategies of ``test_decoders`` and
from the golden problems with perturbed entries.  Solves stay small:
models have ``m <= 4``, ``starts`` is at most 16 and ``--count`` at
most 3.  No exception may escape ``main`` (numpy RuntimeWarnings are
errors under pytest), and stderr holds no traceback and no numpy text.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from logvor.cli import main
from logvor.models import FAMILIES
from test_decoders import entries, json_values, pairs, sym_docs

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = {p.stem: json.loads(p.read_text())
            for p in sorted(GOLDEN.glob("*.json"))
            if p.name not in ("exit_codes.json", "figures.json")}

# a JSON value that is never an integer, so it cannot make a large solve
misfits = (st.none() | st.booleans() | st.floats() | st.text(max_size=3)
           | st.lists(st.integers(-1, 4), max_size=2))


@st.composite
def model_docs(draw):
    """A model document of a known (or nearly known) kind, with m <= 4."""
    doc = {"kind": draw(st.sampled_from(sorted(FAMILIES)) | misfits)}
    fields = {"m": st.integers(-1, 4) | misfits,
              "edges": pairs, "arcs": pairs,
              "basis": st.lists(sym_docs(), max_size=3) | json_values}
    for name in draw(st.lists(st.sampled_from(sorted(fields)),
                              unique=True, max_size=3)):
        doc[name] = draw(fields[name])
    return doc


# "starts" is always set, since its default (512) is a large solve
options = st.fixed_dictionaries(
    {"starts": st.integers(-2, 16) | misfits},
    optional={"seed": st.integers(-2, 16) | misfits, "tol": st.floats()})


@st.composite
def built_problems(draw):
    """A problem file built from the decoder strategies."""
    doc = {}
    fields = {"model": model_docs(), "sigma": sym_docs(),
              "sample": sym_docs()}
    for name in draw(st.lists(st.sampled_from(sorted(fields)), unique=True,
                              min_size=1, max_size=3)):
        doc[name] = draw(fields[name])
    doc["options"] = draw(options)
    return doc


@st.composite
def perturbed_goldens(draw):
    """A golden problem with some entries of sigma and the sample changed
    and a small multistart."""
    doc = json.loads(json.dumps(PROBLEMS[draw(st.sampled_from(
        sorted(PROBLEMS)))]))
    for name in ("sigma", "sample"):
        upper = doc[name]["upper"]
        scale = draw(st.sampled_from([1.0, 1.0, -1.0, 1e-320, 1e-300, 1e-160,
                                      1e160, 1e300, 1.7e308]))
        upper[:] = [float(Fraction(x)) * scale for x in upper]
        for _ in range(draw(st.integers(0, 2))):
            upper[draw(st.integers(0, len(upper) - 1))] = draw(
                entries | st.floats(-2.0, 2.0))
    doc["options"] = {"starts": draw(st.integers(1, 16)),
                      "seed": draw(st.integers(0, 3))}
    return doc


seeds = st.none() | st.integers(-1, 5).map(str)
radii = st.none() | st.sampled_from(["nan", "inf", "-inf", "1e308", "0",
                                     "-1", "1e-300", "0.25", "4"])


@st.composite
def commands(draw):
    """A command with its flags, the file name left out."""
    command = draw(st.sampled_from(["mle", "critical-points", "membership",
                                    "sample", "decompose"]))
    argv = [command]
    if command == "sample":
        argv += ["--count", str(draw(st.integers(0, 3)))]
        radius = draw(radii)
        if radius is not None:
            argv.append(f"--radius={radius}")
    seed = draw(seeds)
    if command != "decompose" and seed is not None:
        argv.append(f"--seed={seed}")
    return argv


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(built_problems() | perturbed_goldens(), commands())
# a mean diagonal entry beyond the largest double: exit 2
@example({"model": {"kind": "bivariate-correlation"},
          "sample": {"dim": 2, "upper": [1.7976931348623157e+308, -0.05,
                                         1.7976931348623157e+308]},
          "options": {"starts": 1}}, ["mle"])
def test_every_input_exits_zero_to_three(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "problem.json"
        file.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [str(file)])
    assert code in (0, 1, 2, 3)
    for text in ("Traceback", "Warning", "numpy"):
        assert text not in err.getvalue()
    if code in (0, 1):
        assert err.getvalue() == "" and out.getvalue()
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(
            "error: " if code == 2 else "solver error: ")
