"""Immutable value records: the part of a frozen dataclass this package uses.

A subclass names its fields in `__slots__`, in constructor order, gives the
defaults of trailing fields in `_defaults`, and may check its values in
`__post_init__`.  Instances reject assignment, compare and hash by class and
field values, and show their fields in `repr`, except those in `_hidden`.
The `dataclasses` module is not used because importing it (it pulls in
`inspect`, `ast` and `dis`) costs every command-line process 7-9 ms on a
2-core x86 host.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults: dict = {}
    _hidden: tuple = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        if kwargs or len(args) < len(names):
            values = dict(cls._defaults)
            values.update(zip(names, args))
            for name, value in kwargs.items():
                if name not in names or name in names[:len(args)]:
                    raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                                    f"argument {name!r}")
                values[name] = value
            for name in names:
                if name not in values:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            args = tuple(values[name] for name in names)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                          if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through the constructor, checks included
        return type(self), self._fields()
