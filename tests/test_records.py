"""The record types against ``dataclasses`` twins built from the same fields.

Each record type once was a ``dataclass``; its twin is one again, with the
parameters, defaults and ``__post_init__`` the type had, so every check
below compares a record with what the standard library does.

No ``from __future__ import annotations`` here: the record defined in
``test_annotations_are_read_as_names`` keeps the lazily evaluated
annotations of Python 3.14+.
"""

import copy
import dataclasses
import importlib
import math
import sys

import numpy as np
import pytest

from artindex import (
    Dataset,
    DecompositionReport,
    DesignSystem,
    IndexMethod,
    IndexSeries,
    InputSchema,
    LevelComparison,
    ModelError,
    ModelSpec,
    MonotonicityReport,
    Perturbation,
    RegressionResult,
    Report,
    SaleObservation,
    Violation,
    load_bundled_dataset,
)
from artindex._record import record
from artindex.replication import ReplicationSummary
from artindex.report import _Records

RENOIR = load_bundled_dataset()
COLUMN = np.array([1.0, 2.0])


def _evaluate(ds):
    return None, None


# each record type: the dataclass parameters it had besides frozen=True, a value for every
# field, and one change
CASES = {
    "SaleObservation": (SaleObservation, {}, ("7", "A", 1e3, 2.0, 0.5, {"z": 1.0}), {"price": 2e3}),
    "Dataset": (
        Dataset, {"eq": False}, tuple(getattr(RENOIR, name) for name in Dataset.__annotations__),
        {"periods": ("X", "Y")},
    ),
    "InputSchema": (
        InputSchema, {}, ("id", "dataset", "price_usd", "area_cm2", None, None, "hw_ratio", ("age",), ".", True),
        {"decimal_separator": ","},
    ),
    "IndexSeries": (IndexSeries, {}, ("npgm", "A", 100.0, {"A": 100.0, "B": 120.0}), {"base_value": 1.0}),
    "IndexMethod": (IndexMethod, {}, (_evaluate,), {"evaluate": len}),
    "DecompositionReport": (DecompositionReport, {}, (1.5, 2.0, 3.0, 3.0, 0.0), {"theta": 2.5}),
    "Report": (Report, {}, ("fit", {"format": "json"}, {"n": 1}, ["w"]), {"command": "index"}),
    "_Records": (_Records, {}, (("a", "b"), [[1, 2], [3.0, None]]), {"keys": ("c", "d")}),
    "ModelSpec": (ModelSpec, {}, ("A", ("area",), (("log_area", 1.0),)), {"reference_period": "B"}),
    "DesignSystem": (DesignSystem, {"eq": False}, (np.eye(2), COLUMN, ("x", "y")), {"column_names": ("u", "v")}),
    "RegressionResult": (
        RegressionResult, {"eq": False}, (("x", "y"), *[COLUMN] * 5, 0.5, np.eye(2), 0.9, 0.8, 3),
        {"sigma2": 0.25},
    ),
    "Perturbation": (Perturbation, {}, ({"29": 1.0},), {"increments": {"28": 2.0}}),
    "LevelComparison": (LevelComparison, {}, ("B", 100.0, 99.0, False), {"compliant": True}),
    "Violation": (Violation, {}, ("obs 29", "B", 100.0, 99.0, Perturbation({"29": 1.0})), {"period": "C"}),
    "MonotonicityReport": (MonotonicityReport, {}, ("hpm", 3, (), 0.5), {"melser_statistic": None}),
    "ReplicationSummary": (
        ReplicationSummary, {}, (_Records(("name", "passed", "detail"), [["a"], [True], ["ok"]]),),
        {"checks": _Records(("name",), [["b"]])},
    ),
}

# every module of the package that defines a type
MODULES = ("cli", "csvio", "domain", "errors", "indexes", "kernels", "monotonicity", "regression", "replication", "report")

# the fields whose default is made fresh for each record
FACTORIES = {SaleObservation: ("extra_characteristics", dict), Report: ("warnings", list)}


def twin(cls, params):
    """The dataclass ``cls`` was: its fields, defaults and ``__post_init__``, under its name."""
    fields = []
    for name in cls.__annotations__:
        if FACTORIES.get(cls, (None,))[0] == name:
            fields.append((name, object, dataclasses.field(default_factory=FACTORIES[cls][1])))
        elif name in vars(cls):
            fields.append((name, object, dataclasses.field(default=vars(cls)[name])))
        else:
            fields.append(name)
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, **{"frozen": True, **params})


def case_of(name: str):
    cls, params, values, change = CASES[name]
    return cls, twin(cls, params), values, change


@pytest.fixture(params=list(CASES))
def case(request):
    return case_of(request.param)


def defaulted(twin_cls) -> set[str]:
    """The fields of ``twin_cls`` that have a default."""
    return {
        f.name for f in dataclasses.fields(twin_cls)
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    }


def hash_kind(obj):
    try:
        value = hash(obj)
    except TypeError:
        return "unhashable"
    return "identity" if value == object.__hash__(obj) else ("fields", value)


def test_every_record_type_has_a_case():
    modules = [importlib.import_module(f"artindex.{name}") for name in MODULES]
    found = {
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__ and "__replace__" in vars(value)
    }
    assert found == {cls for cls, *_ in CASES.values()}
    assert len(found) == 16 and all(cls.__name__ == name for name, (cls, *_) in CASES.items())


def test_repr_and_match_args(case):
    cls, twin_cls, values, _ = case
    rec = cls(*values)
    assert repr(rec) == repr(twin_cls(*values))
    assert cls.__match_args__ == twin_cls.__match_args__ == tuple(cls.__annotations__)
    match rec:
        case cls(first):
            assert first is values[0]
        case _:
            pytest.fail("no match")


def test_every_call_shape_gives_the_twins_record(case):
    cls, twin_cls, values, _ = case
    names = cls.__match_args__
    by_name = dict(zip(names, values))
    required = {name: by_name[name] for name in names if name not in defaulted(twin_cls)}
    shapes = [
        ((), by_name),
        ((), required),
        (values[:1], {name: by_name[name] for name in names[1:]}),
        (tuple(required.values()), {}),
    ]
    for args, kwargs in shapes:
        assert repr(cls(*args, **kwargs)) == repr(twin_cls(*args, **kwargs))


# Dataset keeps its own equality: test_dataset_keeps_its_own_equality
@pytest.mark.parametrize("name", [name for name in CASES if name != "Dataset"])
def test_equality_and_hash(name):
    cls, twin_cls, values, change = case_of(name)
    ours = [cls(*values), cls(*values), cls(*values).replace(**change)]
    theirs = [twin_cls(*values), twin_cls(*values), dataclasses.replace(twin_cls(*values), **change)]

    def outcomes(a, b, c):
        return a == a, a == b, a != b, a == c, a != c, a == values, a != values

    assert outcomes(*ours) == outcomes(*theirs)
    assert hash_kind(ours[0]) == hash_kind(theirs[0])
    assert (cls.__hash__ is None) == (twin_cls.__hash__ is None)
    assert (hash_kind(ours[0]) == "identity") == (not twin_cls.__dataclass_params__.eq)


def test_dataset_keeps_its_own_equality():
    copied = RENOIR.replace()
    assert copied is not RENOIR and copied == RENOIR
    assert RENOIR != RENOIR.replace(periods=("X", "Y")) and RENOIR != 1
    with pytest.raises(TypeError):
        hash(RENOIR)


def test_replace_gives_the_twins_record(case):
    cls, twin_cls, values, change = case
    rec = cls(*values)
    edited = rec.replace(**change)
    assert repr(edited) == repr(dataclasses.replace(twin_cls(*values), **change))
    assert type(edited) is cls and repr(rec) == repr(cls(*values))
    assert repr(rec.replace()) == repr(rec)
    with pytest.raises(TypeError):
        rec.replace(not_a_field=1)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace(case):
    cls, twin_cls, values, change = case
    assert repr(copy.replace(cls(*values), **change)) == repr(copy.replace(twin_cls(*values), **change))


def test_bad_arguments_are_type_errors(case):
    cls, twin_cls, values, _ = case
    first = cls.__match_args__[0]
    calls = [(values, {"not_a_field": 1}), (values, {first: values[0]}), ((*values, None), {})]
    if defaulted(twin_cls) != set(cls.__match_args__):
        calls.append(((), {}))
    for args, kwargs in calls:
        for maker in (cls, twin_cls):
            with pytest.raises(TypeError):
                maker(*args, **kwargs)


def test_fields_refuse_set_and_delete(case):
    cls, twin_cls, values, change = case
    (name, value), = change.items()
    for rec in (cls(*values), twin_cls(*values)):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.not_a_field = 1
        assert getattr(rec, name) is not value


@pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda cls: cls.__name__)
def test_default_factories_are_fresh(cls):
    name, make = FACTORIES[cls]
    values = CASES[cls.__name__][2][:-1]
    required = dict(zip(cls.__match_args__, values))
    made = [cls(*values), cls(*values), cls(**required), cls(**required)]
    assert all(getattr(rec, name) == make() for rec in made)
    assert len({id(getattr(rec, name)) for rec in made}) == len(made)
    assert name not in vars(cls)


def test_post_init_runs():
    writable = {name: np.array(getattr(RENOIR, name)) for name in ("period_codes", "price", "area", "aspect_ratio")}
    for ds in (
        Dataset(RENOIR.ids, RENOIR.periods, **writable, extras={"z": np.ones(len(RENOIR))}),
        RENOIR.replace(price=np.array(RENOIR.price)),
    ):
        columns = [ds.period_codes, ds.price, ds.area, ds.aspect_ratio, *ds.extras.values()]
        assert not any(column.flags.writeable for column in columns)
    series = IndexSeries("npgm", "A", 100.0, {"A": 100.0, "B": 120.0})
    for make in (
        lambda: IndexSeries("npgm", "A", 100.0, {"A": 100.0, "B": math.inf}),
        lambda: series.replace(levels={"A": 100.0, "B": 0.0}),
    ):
        with pytest.raises(ModelError, match="past the float range"):
            make()


def test_annotations_are_read_as_names():
    # neither name is defined: the annotations are never evaluated
    @record
    class Point:
        x: "NotDefinedAnywhere"
        y: "AlsoUndefined" = 0

    assert Point.__match_args__ == ("x", "y")
    assert Point(1) == Point(x=1, y=0) != Point(1, 2)
    assert repr(Point(1).replace(y=2)) == "test_annotations_are_read_as_names.<locals>.Point(x=1, y=2)"
