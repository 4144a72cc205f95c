"""JSON report text: ``Report.to_json`` writes exactly ``json.dumps(payload, indent=2)``."""

from __future__ import annotations

import collections
import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artindex import report
from artindex.monotonicity import _Violations
from artindex.report import Report, _indented_json, _Records

SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308]

# quotes, backslashes, control characters, non-ASCII (BMP and astral) and plain text
texts = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t é€ 😀'), st.characters()),
    max_size=12,
)
floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
# lists of floats only, the residual and covariance-row shape, some holding NaN or inf
float_lists = st.one_of(
    st.lists(floats, max_size=8),
    st.lists(floats, min_size=1, max_size=8).flatmap(
        lambda xs: st.sampled_from([float("nan"), float("inf"), float("-inf")]).map(lambda s: [*xs, s])
    ),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(min_value=-(2**70), max_value=-(2**63) + 2),
    floats,
    texts,
)
# json writes int, float, bool and None keys as strings; a report may hold them too
keys = st.one_of(texts, st.integers(), st.sampled_from(SPECIAL_FLOATS), st.floats(), st.booleans(), st.none())
trees = st.recursive(
    st.one_of(scalars, float_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=20,
)
objects = st.dictionaries(keys, trees, max_size=3)

# lists of 2-6 dicts under one tuple of str keys, such as an audit's
# violations; the writer writes those with more dicts than keys column by column
record_keys = st.one_of(st.sampled_from(["%", "%s", "%%d", '"', "\n", "é€😀", "", "a"]), texts)
exact_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    texts,
)
# each column holds values of one kind, so that most columns are ones the
# writer encodes in one call; the mixed kinds and near misses are not
column_kinds = st.sampled_from(
    [
        exact_scalars,
        scalars,
        st.dictionaries(record_keys, exact_scalars, min_size=1, max_size=1),
        st.dictionaries(keys, st.one_of(scalars, float_lists), min_size=1, max_size=1),
        st.dictionaries(record_keys, exact_scalars, max_size=2),
        float_lists,
        trees,
    ]
)
NEAR_MISSES = ["key order", "extra key", "non-str key", "list of the keys", "dict subclass", "scalar"]


@st.composite
def record_lists(draw, near_miss=False):
    """2-6 dicts under one tuple of 1-4 str keys; with ``near_miss``, one record that breaks the shape."""
    names = draw(st.lists(record_keys, min_size=2 if near_miss else 1, max_size=4, unique=True))
    n = draw(st.integers(min_value=2, max_value=6))
    columns = [draw(st.lists(draw(column_kinds), min_size=n, max_size=n)) for _ in names]
    records = [dict(zip(names, row)) for row in zip(*columns)]
    if near_miss:
        i = draw(st.integers(min_value=0, max_value=n - 1))
        miss = draw(st.sampled_from(NEAR_MISSES))
        if miss == "key order":
            records[i] = dict(reversed(records[i].items()))
        elif miss == "extra key":
            records[i]["".join(names) + "+"] = draw(exact_scalars)
        elif miss == "non-str key":
            key = draw(st.sampled_from([1, 1.5, None, True]))
            records[i] = {(key if k == names[0] else k): v for k, v in records[i].items()}
        elif miss == "list of the keys":
            records[i] = list(names)
        elif miss == "dict subclass":
            records[i] = collections.OrderedDict(records[i])
        else:
            records[i] = draw(exact_scalars)
    return records


@settings(max_examples=60, deadline=None)
@given(command=texts, config=objects, body=objects, warnings=st.lists(texts, max_size=3))
def test_to_json_matches_stdlib(command, config, body, warnings):
    report = Report(command=command, config=config, body=body, warnings=warnings)
    payload = {"command": command, "config": config, "body": body, "warnings": warnings}
    assert report.to_json() == json.dumps(payload, indent=2)


@settings(max_examples=150, deadline=None)
@given(tree=trees)
def test_writer_matches_stdlib(tree):
    assert _indented_json(tree) == json.dumps(tree, indent=2)


@settings(max_examples=100, deadline=None)
@given(records=st.one_of(record_lists(), record_lists().map(tuple), record_lists(near_miss=True)))
def test_record_lists_match_stdlib(records):
    tree = {"body": {"violations": records}}
    assert _indented_json(records) == json.dumps(records, indent=2)
    assert _indented_json(tree) == json.dumps(tree, indent=2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "c_make_encoder", None)
        assert _indented_json(tree) == json.dumps(tree, indent=2)


class Name(str):
    pass


class Level(enum.IntEnum):
    LOW = 1


def as_records(o):
    """``json.dumps``'s ``default`` for the expected text: a ``_Records`` as the records it stands for."""
    if isinstance(o, _Records):
        return [{key: column[i] for key, column in zip(o.keys, o.columns)} for i in range(len(o.columns[0]))]
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


# a grid audit's violations: more records than keys, so written column by column
VIOLATIONS = [
    {"description": f"obs {obs} price x{m:g}", "period": "B", "level_before": 100.5, "level_after": 100.5 - m,
     "perturbation": {obs: 1500.25 * m}}
    for obs in ("25", "28", "29")
    for m in (1.1, 2.0)
]
EDGE_TREES = [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}]},
    [1.5, float("nan"), 2.5],
    [float("-inf"), -0.0, 5e-324],
    [np.float64(0.1), 1e16, 1e-7],
    [1.0, True],
    [True, 1.0],
    [1.0, 2],
    [1.0, "1.0"],
    [[1.0, 2.0], [3.0, 4.0]],
    2**64,
    '"\\\x00é😀',
    {1: "a", -(2**70): "b", 1.5: "c", float("nan"): "d", float("-inf"): "e", -0.0: "f"},
    {True: 1, False: 2, None: 3, np.float64(0.1): 4},
    {1: "int", "1": "str"},
    # containers of exact-type scalars, which the C encoder writes, and
    # the same with a subclass or a non-str key, which it does not
    {"a": 1.0, "b": float("nan"), "c": None, "d": True, "e": 2**70, "f": '"\\é😀'},
    ["x", None, False, -(2**70), -0.0, float("inf")],
    {"a": np.float64(1.0), "b": 2.0},
    {"a": 1.0, 2: 2.0},
    {"a": {"b": 1.0}, "c": [[1.0]]},
    {"a": {1.5: [1.0, None]}, "b": {"c": np.float64(2.0)}},
    # record lists, which the C encoder writes column by column, and near misses
    VIOLATIONS,
    tuple(VIOLATIONS),
    {"body": {"violations": VIOLATIONS}},
    [{"%": 1, "%s": "%s", '"\n': None, "é€😀": 2**70, "": float("nan")}, {"%": -0.0, "%s": "%d", '"\n': True, "é€😀": -(2**70), "": float("-inf")}] * 3,
    [{"a": {"x": 1.0}, "b": [1.0]}, {"a": {"y": np.float64(2.0)}, "b": [float("inf")]}, {"a": {"z": 3}, "b": []}],
    [{"a": {1: 1.0}}, {"a": {"1": 2.0}}],
    [{"a": {"x": 1.0}}, {"a": {"y": 2.0, "z": 3.0}}],
    [{"a": {"x": [1.0]}}, {"a": {"y": {}}}],
    [{"a": {}}, {"a": {"x": 1.0}}],
    [{}, {}],
    [{"a": 1, "b": 2}, {"a": 3, "b": 4}],
    [{"a": 1, "b": 2}, {"a": 3, "b": 4}, {"b": 2, "a": 1}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{1: "a"}, {1: "b"}],
    [{"a": 1}, {1: "a"}],
    [{"a": 1, "b": 2}, {"a": 3, "b": 4}, ["a", "b"]],
    [{"a": 1}, collections.OrderedDict(a=2)],
    [{"a": 1}, {Name("a"): 2}],
    [{"a": 1}, None],
    [*VIOLATIONS, {**VIOLATIONS[0], "level_after": np.float64(99.0)}],
    # subclasses and non-str keys inside what the writer writes itself, which
    # json.dumps writes in its place; a _Records that json.dumps meets is
    # written through its default hook
    {"a": Level.LOW, "b": [Level.LOW, 2.0]},
    [{"a": Name("x"), "b": 1.0}, {"a": "y", "b": 2.0}, {"a": Name("z"), "b": 3.0}],
    {"violations": _Records(("a", "b"), ([{1: "x"}, {"y": 2.0}, {None: 3}], [1, 2, 3]))},
    {1: _Violations(["obs 29 price x2"], ["B"], [100.5], [99.5], [{"29": 1500.25}])},
]


@pytest.mark.parametrize("tree", EDGE_TREES)
def test_edge_trees_match_stdlib(tree):
    assert _indented_json(tree) == json.dumps(tree, indent=2, default=as_records)


@pytest.mark.parametrize("tree", EDGE_TREES)
def test_writer_needs_no_c_encoder(tree, monkeypatch):
    # a Python without the _json accelerator writes the whole payload with json.dumps
    monkeypatch.setattr(report, "c_make_encoder", None)
    assert _indented_json(tree) == json.dumps(tree, indent=2, default=as_records)


@pytest.mark.parametrize("value", [{1, 2}, np.bool_(True), np.array([1.0]), object(), b"bytes"])
def test_unsupported_value_is_type_error(value):
    with pytest.raises(TypeError):
        json.dumps([value], indent=2)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _indented_json({"a": [value]})


@pytest.mark.parametrize("key", [("a",), b"a", np.bool_(True), np.int64(7), object()])
def test_unsupported_key_is_type_error(key):
    with pytest.raises(TypeError):
        json.dumps({"a": {key: 1}}, indent=2)
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
        _indented_json({"a": {key: 1}})
