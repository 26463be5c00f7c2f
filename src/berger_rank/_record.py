"""Frozen value records: the one base of the package's result types.

A subclass lists its fields as annotations, in order.  A class-level
default makes a field optional, and the default ``DERIVED`` marks a field
that ``__post_init__`` sets instead of ``__init__``.  ``__init__`` takes the
other fields by position or keyword, then runs ``__post_init__`` if the
class has one; after that the record is immutable.  Equality and hashing go
by class and field values, and the repr lists every field.

Records also speak the ``dataclasses`` protocol (``fields``, ``replace``,
``asdict``, ``is_dataclass``): ``__dataclass_fields__`` is built from an
equivalent dataclass on first access, so only a program that uses the
protocol pays for importing ``dataclasses``.
"""

from __future__ import annotations

__all__: list[str] = []

DERIVED = object()  # the default of a field that __post_init__ computes

_set = object.__setattr__


class _DataclassFields:
    """``__dataclass_fields__`` of a record class, built on first access."""

    def __get__(self, instance, owner):
        import dataclasses

        spec = []
        for name, kind in owner._types.items():
            default = owner._defaults.get(name, dataclasses.MISSING)
            if default is DERIVED:
                spec.append((name, kind, dataclasses.field(init=False)))
            else:
                spec.append((name, kind, dataclasses.field(default=default)))
        twin = dataclasses.make_dataclass(owner.__name__, spec, frozen=True)
        owner.__dataclass_fields__ = twin.__dataclass_fields__  # cached
        return twin.__dataclass_fields__


class Record:
    """Base of the frozen records; see the module docstring."""

    _types: dict = {}  # field name -> annotation, in declaration order
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _init: tuple[str, ...] = ()  # the fields that __init__ takes
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = cls.__dict__.get("__annotations__", {})
        cls._types = {**cls._types, **own}  # a subclass extends its base
        cls._fields = tuple(cls._types)
        own_defaults = {n: cls.__dict__[n] for n in own if n in cls.__dict__}
        cls._defaults = {**cls._defaults, **own_defaults}
        cls._init = cls.__match_args__ = tuple(
            n for n in cls._fields if cls._defaults.get(n) is not DERIVED
        )
        for name in own:
            if cls._defaults.get(name) is DERIVED:
                delattr(cls, name)
        # Compiled per class, as collections.namedtuple does, so building a
        # record costs what a hand-written __init__ costs.
        params = "".join(
            f", {n}=_defaults[{n!r}]" if n in cls._defaults else f", {n}"
            for n in cls._init
        )
        lines = [f"def __init__(self{params}):"]
        lines += [f"    _set(self, {n!r}, {n})" for n in cls._init]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {"_set": _set, "_defaults": cls._defaults}
        exec("\n".join(lines) + "\n    pass", namespace)  # pass: no fields
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, n) for n in self._init])
