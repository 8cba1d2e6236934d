"""Property tests of the JSON decoders: every input either decodes or
raises a typed :class:`LogvorError`.

The decoders are called on arbitrary JSON values and on documents that
are nearly valid.  Nothing is solved: a decoded ``starts`` of any size
never reaches the multistart.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logvor import LogvorError, model_from_json, options_from_json, \
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
