"""The CLI's report writer against ``json.dumps(obj, indent=2, sort_keys=True)``.

Reports are written by a one-pass writer in ``rigidmono.cli``; it must give
the same text as ``json.dumps`` on every JSON tree of the types reports are
built from, and refuse anything else with ``TypeError``.
"""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidmono import cli


def dumps(obj) -> str:
    return cli._write(obj)


texts = st.one_of(st.text(max_size=8),
                  st.sampled_from(['"', "\\", '\\"', "\x00", "\x1f", "\n\t\r", "\x7f",
                                   "é", "Ω ζ_n", "😀", " ", "a/b", ""]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-2 ** 200, 2 ** 200), texts)
trees = st.recursive(
    scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(texts, kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, derandomize=True)
@given(trees)
def test_writer_equals_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_writer_on_empty_and_nested_containers():
    for obj in ([], {}, (), [[]], {"a": {}}, [{}, [], ()], {"b": [{"c": [[], {}]}], "a": ()}):
        assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [1.5, [0.0], {"a": [1, {"b": 2.5}]}, {1: "a"}, {"a": {None: 1}},
                                 {(1, 2): 3}, {1, 2}, b"x", object()])
def test_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        dumps(obj)


class Text(str):
    pass


class Count(int):
    pass


@pytest.mark.parametrize("obj", [Text("a"), [Count(1)], {"a": Text("b")}, (Count(2),)])
def test_writer_refuses_subclasses(obj):
    # Reports are built from the exact JSON types; anything else is a writer error.
    with pytest.raises(TypeError):
        dumps(obj)


def _shared_trees():
    # The same dict and list objects twice at one depth, and at two depths: the
    # writer renders a shared dict once per indent, so each depth must keep its own text.
    value = {"n": 8, "c": [["1", "1"], ["0", "1"]]}
    row = [value, "x", 3]
    nested = {"b": value, "a": [value, {"z": value}]}
    yield [value, value]
    yield {"p": [value, value], "q": value}
    yield [row, row, [row]]
    yield {"orbit": [{"points": [[value, value], [nested]]}, {"points": [[value], row]}]}
    yield [nested, [nested, [nested]], nested]


@pytest.mark.parametrize("obj", list(_shared_trees()))
def test_writer_on_shared_objects(obj):
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=100, derandomize=True)
@given(st.lists(trees, min_size=1, max_size=3), st.lists(st.integers(0, 2), max_size=6))
def test_writer_on_shared_subtrees_equals_json_dumps(parts, picks):
    # Each pick places one of the drawn subtrees, by reference, at a deeper level.
    obj = list(parts)
    for k in picks:
        obj = [obj, parts[k % len(parts)], {"k": parts[k % len(parts)]}]
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)
