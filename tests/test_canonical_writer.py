"""``formats.canonical_dumps`` against the standard library's writer.

``conftest.canonical_dumps_oracle`` is the ``json.dumps(..., indent=2)``
line the writer replaces. Random JSON values (nested dicts, lists and
tuples, empty containers, non-ASCII, escape-needing and lone-surrogate
strings, ints, bools, ``None``, floats with NaN and infinity, non-string
keys, dict and list subclasses) must give the same text, and circular,
too deep and unserializable values the same exception, from both."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finstream.formats import _canonical, canonical_dumps

from conftest import canonical_dumps_oracle


class DictSub(dict):
    pass


class ListSub(list):
    pass


# few distinct characters, so that keys often share a prefix and differ at
# a character the encoder escapes
TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f Aaz\u00e9\u20ac\u2028\ud800'), st.characters()),
    max_size=5,
)
NON_STRING_KEYS = st.one_of(
    st.dictionaries(st.integers(), st.integers(), max_size=3),
    st.dictionaries(st.booleans(), st.none(), max_size=2),
    st.dictionaries(st.floats(), st.booleans(), max_size=3),
    st.dictionaries(st.one_of(TEXT, st.integers(), st.none()), st.integers(), max_size=3),
)


EXACT = st.recursive(
    st.one_of(TEXT, st.integers(), st.booleans(), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=24,
)
ANY = st.recursive(
    st.one_of(TEXT, st.integers(), st.booleans(), st.none(), st.floats(), NON_STRING_KEYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(ListSub),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4).map(DictSub),
    ),
    max_leaves=24,
)


def outcome(write, obj):
    """The text ``write`` returns, or the class and message it raises."""
    try:
        return write(obj)
    except (TypeError, ValueError, RecursionError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(EXACT)
def test_exact_values_are_written_without_the_fallback(obj):
    assert _canonical(obj, "") + "\n" == canonical_dumps_oracle(obj)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(ANY)
def test_any_value_matches_json_dumps(obj):
    assert outcome(canonical_dumps, obj) == outcome(canonical_dumps_oracle, obj)


def _circular_list():
    loop = [1, "a"]
    loop.append({"again": loop})
    return loop


def _circular_dict():
    loop = {"a": [1]}
    loop["a"].append(loop)
    return loop


def _deep(depth):
    value = []
    for _ in range(depth):
        value = {"a": [value]}
    return value


@pytest.mark.parametrize(
    "obj",
    [
        _circular_list(),
        _circular_dict(),
        _deep(5_000),
        ["a", object()],
        {"a": {1, 2}},
        {"a": b"bytes"},
        {"a": 1j},
        {(1, 2): "tuple key"},
        {1: "a", "b": 2},
        [10**5000],
        {"nan": math.nan, "inf": [math.inf, -math.inf], "x": 0.1},
        ["a", "b", 3, None],
        DictSub(b=1, a=[ListSub(["x"])]),
    ],
    ids=[
        "circular-list", "circular-dict", "deep", "object", "set", "bytes", "complex",
        "tuple-key", "mixed-keys", "huge-int", "floats", "string-list-then-others", "subclasses",
    ],
)
def test_special_value_matches_json_dumps(obj):
    expected = outcome(canonical_dumps_oracle, obj)
    assert outcome(canonical_dumps, obj) == expected
