"""The base of ksum's value types: frozen, slotted records.

A subclass names its fields in `__slots__`, in the order its constructor
takes them.  The base class builds instances from that list: `Value(*values,
**named)` sets the fields from positional arguments in order, then from
keywords by field name, and a missing, extra, unknown or repeated field
raises TypeError.  A subclass that checks or normalises its arguments does
so in its own `__init__`, then calls `super().__init__` with the fields.
Its instances are then equal when of the same class with equal field
tuples, hash as that tuple, and print as `Name(field=value, ...)`.  Every
value type is frozen: assigning or deleting a field raises AttributeError.
A sweep report holds lists and a dict, so hashing one raises TypeError.  A
pickle rebuilds an instance through its constructor, since a frozen one
cannot take its state by assignment; the constructor's checks run again on
the way in.  A slot named `__dict__` makes room for
`functools.cached_property` and is not a field.

The standard library's record generator would give the same methods, but
importing it loads `inspect` and its dependencies, and it compiles each
class's methods from source when the class is made: a cost that every run
of the CLI would pay at start-up.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        get = attrgetter(*fields)
        cls._fields = fields
        # each field's slot store, called as put(self, value); it bypasses
        # the __setattr__ that keeps instances frozen
        cls._setters = tuple(cls.__dict__[name].__set__ for name in fields)
        # the field tuple of an instance, called as self._values(self)
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def __init__(self, *values, **named) -> None:
        setters = self._setters
        if named or len(values) != len(setters):
            values = self._arrange(values, named)
        for i, put in enumerate(setters):
            put(self, values[i])

    def _arrange(self, values: tuple, named: dict) -> list:
        """The field values in slot order, from positional then keyword arguments."""
        fields = self._fields
        given = dict(zip(fields, values))
        if (len(values) > len(fields) or not given.keys().isdisjoint(named)
                or {*given, *named} != set(fields)):
            raise TypeError(
                f"{type(self).__qualname__} takes the fields ({', '.join(fields)}), got "
                f"{len(values)} positional and {', '.join(named) or 'no'} named")
        given.update(named)
        return [given[name] for name in fields]

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
