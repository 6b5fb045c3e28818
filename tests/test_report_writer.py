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


digits = st.integers(-10 ** 30, 10 ** 30).map(str)
value_dicts = st.builds(lambda n, c: {"n": n, "c": c}, st.integers(1, 240),
                        st.lists(st.lists(digits, min_size=2, max_size=2), min_size=1, max_size=8))
# Near misses of the value template, each to be written by the generic walk.
near_misses = st.one_of(
    st.builds(lambda n, c: {"n": n, "c": c}, st.integers(1, 240),
              st.lists(st.one_of(st.lists(digits, max_size=3), st.tuples(digits, digits),
                                 st.lists(st.one_of(st.integers(), st.none()),
                                          min_size=2, max_size=2)), min_size=1, max_size=3)),
    st.builds(lambda n, c: {"n": n, "c": c}, st.integers(1, 240),
              st.lists(st.lists(texts, min_size=2, max_size=2), min_size=1, max_size=3)),
    st.builds(lambda v, k, x: {**v, k: x}, value_dicts, texts.filter(lambda k: k not in "cn"),
              scalars),
    st.builds(lambda n: {"n": n, "c": []}, st.integers(1, 240)),
    st.builds(lambda c: {"n": True, "c": c}, st.lists(st.lists(digits, min_size=2, max_size=2),
                                                       min_size=1, max_size=2)),
)


@settings(max_examples=200, derandomize=True)
@given(st.one_of(value_dicts, near_misses, st.dictionaries(texts, trees, max_size=3)), trees,
       st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_one_dict_at_several_depths_equals_json_dumps(shared, tree, depths):
    # The same dict object placed at each drawn depth: rendered once, then
    # re-indented wherever it recurs at another depth.
    obj = [tree]
    for depth in depths:
        item = shared
        for _ in range(depth):
            item = [item] if depth % 2 else {"k": item}
        obj.append(item)
    obj.append({"again": shared, "z": [shared, [shared]]})
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("value, templated", [
    ({"n": 8, "c": [["1", "2"], ["-3", "1"]]}, True),
    ({"n": 1, "c": [["0", "1"]]}, True),
    ({"n": 8, "c": [["1", "2", "3"]]}, False),     # an item that is not a pair
    ({"n": 8, "c": [("1", "2")]}, False),          # a tuple, not a list
    ({"n": 8, "c": [[1, "2"]]}, False),            # a number, not a string
    ({"n": 8, "c": [["1", Text("2")]]}, False),    # a str subclass
    ({"n": 8, "c": [['"1', "2\\"]]}, False),       # strings that need escapes
    ({"n": 8, "c": [["1\n", "2"]]}, False),
    ({"n": 8, "c": [["é", "\x7f"]]}, False),
    ({"n": 8, "c": [["1", "2"]], "d": 1}, False),  # an extra key
    ({"n": 8, "c": []}, False),                    # an empty "c"
    ({"n": True, "c": [["1", "2"]]}, False),       # a bool, not an int
    ({"n": "8", "c": [["1", "2"]]}, False),
    ({"m": 8, "c": [["1", "2"]]}, False),
])
def test_value_dicts_and_near_misses(value, templated):
    # Only a value dict is filled into the template; every near miss takes the
    # generic walk, which writes json.dumps's text or refuses a subclass.
    assert (cli._value_text(value, "  ") is not None) == templated
    for obj in (value, [value, {"a": [value]}]):
        if any(type(x) is Text for pair in value.get("c", []) for x in pair):
            with pytest.raises(TypeError):
                dumps(obj)
        else:
            assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)
