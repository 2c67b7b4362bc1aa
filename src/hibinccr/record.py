"""The base of the few records that are not named tuples.

Most records of the library are ``typing.NamedTuple`` classes.  A record
that holds derived or compiled state, validates its fields, or must not act
as a sequence derives from :class:`Record` instead.  Its fields live in the
instance ``__dict__``, next to what ``cached_property`` derives from them,
and ``_fields`` names the ones that count.
"""

from __future__ import annotations


class Record:
    """Equality, hashing, ``repr`` and ``_replace`` by the fields in
    ``_fields``; assigning or deleting an attribute raises
    ``AttributeError``.  Equality holds only between records of one class,
    and ``repr`` reads ``Name(field=value, ...)``.  A subclass's
    ``__init__`` stores its fields straight into ``__dict__``, as
    ``cached_property`` stores what it derives; derived values are not
    fields, so they stay out of equality, hashing and ``repr``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple(d[f] for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        fields = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes: object):
        """A new record with the given fields changed, built (and checked)
        by the class's own constructor, as ``NamedTuple._replace``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
