"""Property-based tests for the predicate algebra.

The routing layer relies on two soundness properties:

* ``intersects(p, q)`` may over-approximate but must never report
  ``False`` when a value satisfying both exists (a false negative
  would silently drop subscriptions from routing paths);
* ``covers(p, q)`` may under-approximate but must never report ``True``
  unless every value matching ``q`` matches ``p`` (an unsound cover
  would suppress live subscriptions under the covering optimization).

Hypothesis hammers both with random numeric predicates and probe
values.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.predicate import Operator, Predicate, covers, intersects

NUMERIC_OPS = (Operator.LT, Operator.LE, Operator.GT, Operator.GE, Operator.EQ)

values = st.integers(min_value=-50, max_value=50).map(float)
numeric_predicates = st.builds(
    lambda op, value: Predicate("x", op, value),
    st.sampled_from(NUMERIC_OPS),
    values,
)
probes = st.one_of(
    st.integers(min_value=-60, max_value=60).map(float),
    st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
)


@given(p=numeric_predicates, q=numeric_predicates, probe=probes)
@settings(max_examples=300)
def test_prop_intersects_has_no_false_negatives(p, q, probe):
    if p.matches(probe) and q.matches(probe):
        assert intersects(p, q), f"{p} and {q} both match {probe}"


@given(p=numeric_predicates, q=numeric_predicates, probe=probes)
@settings(max_examples=300)
def test_prop_covers_is_sound(p, q, probe):
    if covers(p, q) and q.matches(probe):
        assert p.matches(probe), f"{p} claimed to cover {q} but missed {probe}"


@given(p=numeric_predicates, q=numeric_predicates)
@settings(max_examples=200)
def test_prop_intersects_symmetric(p, q):
    assert intersects(p, q) == intersects(q, p)


@given(p=numeric_predicates)
@settings(max_examples=100)
def test_prop_predicate_intersects_itself(p):
    assert intersects(p, p)


@given(p=numeric_predicates)
@settings(max_examples=100)
def test_prop_predicate_covers_itself(p):
    assert covers(p, p)


@given(p=numeric_predicates, q=numeric_predicates)
@settings(max_examples=200)
def test_prop_cover_implies_intersect_when_satisfiable(p, q):
    # If p covers a satisfiable q, the two trivially intersect.
    if covers(p, q):
        # Find a witness value for q among a coarse probe grid.
        witness = next(
            (value for value in range(-55, 56) if q.matches(float(value))), None
        )
        if witness is not None:
            assert intersects(p, q)


@given(
    op=st.sampled_from((Operator.PREFIX, Operator.SUFFIX, Operator.CONTAINS)),
    text=st.text(alphabet="abc", max_size=6),
    fragment=st.text(alphabet="abc", max_size=3),
)
@settings(max_examples=150)
def test_prop_string_predicates_consistent(op, text, fragment):
    predicate = Predicate("s", op, fragment)
    result = predicate.matches(text)
    if op is Operator.PREFIX:
        assert result == text.startswith(fragment)
    elif op is Operator.SUFFIX:
        assert result == text.endswith(fragment)
    else:
        assert result == (fragment in text)


# ----------------------------------------------------------------------
# The per-operator truth table, against a written-out reference
# ----------------------------------------------------------------------
def reference_matches(predicate, value):
    """The language's truth table, spelled out operator by operator."""
    op, wanted = predicate.operator, predicate.value
    if op is Operator.PRESENT:
        return True
    if op is Operator.EQ:
        return value == wanted
    if op is Operator.NEQ:
        return value != wanted
    if op in (Operator.LT, Operator.LE, Operator.GT, Operator.GE):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False  # numeric operator on a non-number or a bool
        return {Operator.LT: value < wanted, Operator.LE: value <= wanted,
                Operator.GT: value > wanted, Operator.GE: value >= wanted}[op]
    if not isinstance(value, str) or not isinstance(wanted, str):
        return False
    return {Operator.PREFIX: value.startswith(wanted),
            Operator.SUFFIX: value.endswith(wanted),
            Operator.CONTAINS: wanted in value}[op]


typed_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.booleans(),
    st.text(alphabet="ab", max_size=3),
)


@given(op=st.sampled_from(list(Operator)), wanted=typed_values,
       value=typed_values | st.none())
@settings(max_examples=600)
def test_prop_compiled_test_is_matches(op, wanted, value):
    """Every operator x value type: the compiled triple the routing
    table evaluates, ``Predicate.matches`` and the reference agree."""
    if op in (Operator.LT, Operator.LE, Operator.GT, Operator.GE) \
            and isinstance(wanted, str):
        wanted = len(wanted)  # the constructor rejects a string bound
    predicate = Predicate("x", op, wanted)
    attribute, test, compiled_value = predicate.compiled()
    expected = reference_matches(predicate, value)
    assert attribute == "x"
    assert test(value, compiled_value) == expected
    assert predicate.matches(value) == expected


def test_compiled_filters_of_equal_predicates_are_equal():
    """What lets a link keep one copy of a filter many entries share."""
    first = Predicate("low", Operator.LT, 20.0).compiled()
    second = Predicate("low", Operator.LT, 20.0).compiled()
    assert first == second and hash(first) == hash(second)
    assert first != Predicate("low", Operator.LE, 20.0).compiled()
