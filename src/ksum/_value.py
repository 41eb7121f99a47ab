"""The base of ksum's value types: frozen, slotted records.

A subclass names its fields in `__slots__`, in the order its `__init__`
takes them, and sets them there with `object.__setattr__`.  Its instances
are then equal when of the same class with equal field tuples, hash as
that tuple, and print as `Name(field=value, ...)`.  Every value type is
frozen: assigning or deleting a field raises AttributeError.  A sweep
report holds lists and a dict, so hashing one raises TypeError.  A pickle
rebuilds an instance through its constructor, since a frozen one cannot
take its state by assignment; the constructor's checks run again on the
way in.  A slot named `__dict__` makes room for
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

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        get = attrgetter(*fields)
        cls._fields = fields
        # the field tuple of an instance, called as self._values(self)
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

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
