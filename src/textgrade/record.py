"""Frozen value records, built without `dataclasses`.

A record class lists its fields in `__slots__`, in constructor order,
with "__dict__" after them when it caches a property. Its own `__init__`
writes each field with `setfield`, as a frozen dataclass's generated
`__init__` does. `Record` adds the rest of `@dataclass(frozen=True)`:
the `Name(field=value, ...)` repr, equality and hashing by field values
within one type, and AttributeError on assignment or deletion.
Importing `dataclasses` (which imports `inspect`) and generating those
methods took longer than importing the rest of the package.
"""

from __future__ import annotations

setfield = object.__setattr__


class Record:
    """Base of the package's immutable records; fields come from `__slots__`."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__slots__", ())
        cls.__match_args__ += tuple(name for name in own if name != "__dict__")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()
