"""The base of the library's immutable value records."""

from operator import attrgetter


class Record:
    """An immutable value whose class names its fields in ``_fields``.

    A record equals another of exactly its class whose fields are equal,
    hashes as the tuple of its fields and shows as ``Name(field=value, ...)``;
    a class may override any of the three. Assigning or deleting an
    attribute raises AttributeError, so each ``__init__`` sets its fields
    with ``object.__setattr__``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
