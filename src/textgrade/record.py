"""Frozen value records, built without `dataclasses`.

A record class lists its fields once, in `__slots__`, in constructor
order, with "__dict__" after them when it caches a property. Its only
`__init__` is generated from them as a frozen dataclass gets one: a
parameter per field, none with a default, each written with `setfield`,
then `self.__post_init__()` if the class defines it.
`Record` adds the rest of `@dataclass(frozen=True)`: the
`Name(field=value, ...)` repr, equality and hashing by field values
within one type, and AttributeError on assignment or deletion.
Importing `dataclasses` (which imports `inspect`) and generating those
methods took longer than importing the rest of the package.
"""

from __future__ import annotations

setfield = object.__setattr__


def _generated_init(cls: type):
    """`__init__(self, <each field of cls>)` writing each field, compiled once."""
    fields = cls.__match_args__
    lines = [f"def __init__(self, {', '.join(fields)}):"]
    lines += [f"    setfield(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace: dict = {}
    exec("\n".join(lines), {"setfield": setfield}, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """Base of the package's immutable records; fields come from `__slots__`."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = tuple(name for name in cls.__dict__.get("__slots__", ()) if name != "__dict__")
        cls.__match_args__ += own
        if own:
            cls.__init__ = _generated_init(cls)

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
