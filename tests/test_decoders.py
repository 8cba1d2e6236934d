"""Property tests of the JSON decoders: every input either decodes or
raises a typed :class:`LogvorError`.

The decoders are called on arbitrary JSON values and on documents that
are nearly valid.  Nothing is solved: a decoded ``starts`` of any size
never reaches the multistart.
"""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logvor import DagModel, Digraph, Graph, GraphModel, LogvorError, \
    OutOfRange, ShapeMismatch, model_from_json, options_from_json, \
    sym_from_json
from logvor.models import FAMILIES

FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

# matrix entries: numbers, numeric-looking strings and the odd misfit
entries = (st.integers() | st.floats()
           | st.text(alphabet="0123456789.-+e/ ", max_size=7)
           | st.sampled_from(["1e400", "-1e400", "1/0", "nan", "inf",
                             10 ** 400, 1.7976931348623157e308, -1e308,
                             5e-324])
           | scalars)


@st.composite
def sym_docs(draw):
    """``{"dim": m, "upper": [...]}``, mostly with the entry count of m."""
    m = draw(st.integers(-1, 4) | json_values)
    n = m * (m + 1) // 2 if isinstance(m, int) and 0 <= m <= 4 else 3
    size = draw(st.sampled_from([n, n, n, max(n - 1, 0), n + 1]))
    upper = draw(st.lists(entries, min_size=size, max_size=size)
                 | json_values)
    doc = {"dim": m, "upper": upper}
    for key in draw(st.lists(st.sampled_from(["dim", "upper"]),
                             max_size=1)):
        del doc[key]
    return doc


pairs = st.lists(st.lists(st.integers(-1, 6), min_size=2, max_size=2)
                 | json_values, max_size=5)


@st.composite
def model_docs(draw):
    """A model document of a known (or nearly known) kind."""
    kind = draw(st.sampled_from(sorted(FAMILIES)) | json_values)
    doc = {"kind": kind}
    fields = {"m": st.integers(-1, 6) | json_values,
              "edges": pairs, "arcs": pairs,
              "basis": st.lists(sym_docs(), max_size=3) | json_values}
    for name in draw(st.lists(st.sampled_from(sorted(fields)),
                              unique=True, max_size=3)):
        doc[name] = draw(fields[name])
    return doc


option_docs = st.dictionaries(
    st.sampled_from(["starts", "seed", "tol", "max_iter"]) | st.text(max_size=6),
    st.integers() | json_values, max_size=3)


def decodes_or_raises_typed(decode, doc):
    try:
        decode(doc)
    except LogvorError:
        pass


@FUZZ
@given(json_values | sym_docs())
def test_sym_from_json_raises_only_typed_errors(doc):
    decodes_or_raises_typed(sym_from_json, doc)


@FUZZ
@given(json_values | model_docs())
def test_model_from_json_raises_only_typed_errors(doc):
    decodes_or_raises_typed(model_from_json, doc)


@FUZZ
@given(json_values | option_docs)
def test_options_from_json_raises_only_typed_errors(doc):
    decodes_or_raises_typed(options_from_json, doc)


HUGE = 10 ** 5000       # past Python's 4300-digit limit for printing an int


@pytest.mark.parametrize("decode, doc, error", [
    (options_from_json, {"seed": -HUGE}, OutOfRange),
    (options_from_json, {"starts": -HUGE}, OutOfRange),
    (sym_from_json, {"dim": HUGE, "upper": []}, ShapeMismatch),
    (sym_from_json, {"dim": -HUGE, "upper": []}, ShapeMismatch),
    (sym_from_json, {"dim": 1, "upper": [HUGE]}, ShapeMismatch),
], ids=["seed", "starts", "dim", "negative-dim", "entry"])
def test_huge_integers_raise_typed_errors(decode, doc, error):
    """The message names the value by its type, not by its digits."""
    with pytest.raises(error, match="too long to print") as info:
        decode(doc)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("entry, value", [
    ("1e999999999", None), ("1e-999999999", 0.0), ("0e999999999", 0.0),
    ("1E+99999999999999999999", None), ("2.5e-99999999 ", 0.0),
    ("inf", None), ("nan", None), ("-1e400", None),
])
def test_huge_exponents_decode_in_bounded_time(entry, value):
    """``Fraction`` would build 10**999999999 for some of these strings;
    a string that is not a finite double cannot be parsed."""
    start = time.perf_counter()
    doc = {"dim": 1, "upper": [entry]}
    if value is None:
        with pytest.raises(ShapeMismatch, match="cannot parse"):
            sym_from_json(doc)
    else:
        assert sym_from_json(doc)[0, 0] == value
    assert time.perf_counter() - start < 0.5


@FUZZ
@given(st.from_regex(
    r"\A[-+]?(\d{1,20}|\d{0,20}\.\d{1,20})([eE][-+]?\d{1,3})?\Z")
    | st.from_regex(r"\A[-+]?\d{1,30}/\d{1,30}\Z"))
def test_exponent_strings_decode_as_fractions(entry):
    """Every decimal string, with or without an exponent, and every
    ``p/q`` string decodes to the double nearest its value, as
    ``Fraction`` gives it, or fails in both."""
    try:
        expect = float(Fraction(entry))
    except (OverflowError, ZeroDivisionError):
        with pytest.raises(ShapeMismatch):
            sym_from_json({"dim": 1, "upper": [entry]})
    else:
        assert sym_from_json({"dim": 1, "upper": [entry]})[0, 0] == expect


@st.composite
def graph_models(draw):
    """A graph or DAG model on at most 8 vertices."""
    m = draw(st.integers(1, 8))
    pairs = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, m))))
    pairs = {(i, j) for i, j in pairs if i < j}
    if draw(st.booleans()):
        return GraphModel(Graph(m, pairs))
    return DagModel(Digraph(m, pairs))


@FUZZ
@given(graph_models())
def test_graph_and_dag_models_round_trip(model):
    """``model_from_json`` inverts ``to_json`` on graph and DAG models,
    through the JSON text."""
    assert model_from_json(json.loads(json.dumps(model.to_json()))) == model
