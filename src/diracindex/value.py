"""The base class of the package's immutable value types.

A subclass names its constructor arguments, in order, in ``_fields``, and
the values of trailing ones that may be left out in ``_defaults``;
equality reads every field, and so does the hash unless the subclass
defines its own.  ``Value.__init__`` binds its arguments to ``_fields``
as a plain signature would, positionally or by keyword, and stores them,
since assignment is refused; a subclass that checks or normalizes its
arguments ends its own ``__init__`` in ``super().__init__``.  It declares
``__slots__`` unless it caches properties in its ``__dict__``.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Equal when of one class with equal fields; hashed as the tuple of
    the fields; shown as ``Name(field=value, ...)``; rebuilt through
    ``__init__`` by ``replace``, and restored as it was by pickling and
    ``copy``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        # A one-field key is a 1-tuple, so every key hashes as a tuple.
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name = f"{self.__class__.__qualname__}()"
            if len(args) > len(fields):
                raise TypeError(f"{name} takes {len(fields)} arguments but {len(args)} were given")
            bound = {**self._defaults, **dict(zip(fields, args))}
            for key, value in kwargs.items():
                if key not in fields:
                    raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
                if key in fields[:len(args)]:
                    raise TypeError(f"{name} got multiple values for argument {key!r}")
                bound[key] = value
            missing = [key for key in fields if key not in bound]
            if missing:
                raise TypeError(f"{name} missing arguments: {', '.join(missing)}")
            args = [bound[key] for key in fields]
        for key, value in zip(fields, args):
            object.__setattr__(self, key, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Restore what pickling and ``copy`` saved, unchecked: a __dict__,
        or (__dict__ or None, slot values) for a class with slots."""
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)

    def replace(self, **changes):
        """A new value with the given fields changed, checked by __init__."""
        args = {name: getattr(self, name) for name in self._fields}
        args.update(changes)
        return self.__class__(**args)
