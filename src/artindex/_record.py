"""Record types: immutable classes whose methods come from their field names.

:func:`record` gives a class its methods from the names of its own
annotated fields, in order, every name a field: ``__init__`` (by
position or keyword, a class-level value as the default, a
:class:`factory` default made fresh per record, then ``__post_init__``
when the class has one), ``__repr__`` (``Name(field=value, ...)``),
``__eq__`` and ``__hash__`` over the field tuple for two records of one
class, ``__match_args__``, a ``__setattr__`` and ``__delattr__`` that
raise ``AttributeError``, and ``replace(**changes)``, also as
``__replace__`` for ``copy.replace``. ``eq=False`` keeps the class's own
equality and hashing. A method the class defines itself is kept.

Each method is one closure over the field names: no source is written
and ``exec``'d, and the annotations are read as names, never evaluated,
so defining a record type costs tens of microseconds, with or without a cached
``.pyc``. A record keeps its fields in its instance ``__dict__``.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from reprlib import recursive_repr


class factory:
    """A field default made fresh for each record by calling ``make()``, such as ``factory(list)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _field_names(cls) -> tuple[str, ...]:
    if "__annotations__" in cls.__dict__ or sys.version_info < (3, 14):
        return tuple(cls.__dict__.get("__annotations__", ()))
    # Python 3.14+ without ``from __future__ import annotations``: the annotations are
    # evaluated lazily, and FORWARDREF reads their names without evaluating them
    import annotationlib

    return tuple(annotationlib.get_annotations(cls, format=annotationlib.Format.FORWARDREF))


def record(cls=None, /, *, eq: bool = True):
    """Give ``cls`` its record methods, as ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = _field_names(cls)
    n, fieldset = len(names), frozenset(names)
    defaults, factories = {}, {}
    for name in names:
        if name in cls.__dict__:
            default = cls.__dict__[name]
            if isinstance(default, factory):
                factories[name] = default.make
                delattr(cls, name)
            else:
                defaults[name] = default
    required = fieldset - defaults.keys() - factories.keys()
    post_init = hasattr(cls, "__post_init__")
    values = attrgetter(*names) if n > 1 else lambda self, get=attrgetter(*names): (get(self),)

    def bind(args: tuple, kwargs: dict) -> dict:
        """Each field's value from ``args`` and ``kwargs``, refused as a function call would be."""
        if len(args) > n:
            raise TypeError(f"{cls.__qualname__}() takes {n} arguments but {len(args)} were given")
        bound = dict(zip(names, args))
        for name in kwargs:
            if name not in fieldset:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if name in bound:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        bound.update(kwargs)
        missing = [name for name in names if name not in bound and name in required]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing arguments: {', '.join(map(repr, missing))}")
        for name in names:
            if name not in bound:
                bound[name] = defaults[name] if name in defaults else factories[name]()
        return bound

    def __init__(self, *args, **kwargs):
        # a fast path for each call shape records are made with: every field by
        # position, or by keyword with any defaulted field left out. The fields go
        # into the empty instance dict as one dict, which it copies whole: on Python
        # 3.11 a record whose fields went in one by one reads them about 3x slower.
        if not kwargs and len(args) == n:
            fields = dict(zip(names, args))
        elif args or not kwargs.keys() <= fieldset:
            fields = bind(args, kwargs)
        elif len(kwargs) < n:
            fields = {**defaults, **kwargs}
            for name, make in factories.items():
                if name not in kwargs:
                    fields[name] = make()
            if len(fields) < n:
                bind((), kwargs)  # raises for the missing fields
        else:
            fields = kwargs
        self.__dict__.update(fields)
        if post_init:
            self.__post_init__()

    @recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy of this record with the fields named in ``changes`` set to their values."""
        return self.__class__(**dict(zip(names, values(self)), **changes))

    methods = {
        "__init__": __init__, "__repr__": __repr__, "__setattr__": __setattr__, "__delattr__": __delattr__,
        "replace": replace, "__replace__": replace,
    }
    if eq:
        methods["__eq__"], methods["__hash__"] = __eq__, __hash__
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__, replace):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    if "__match_args__" not in cls.__dict__:
        cls.__match_args__ = names
    return cls
