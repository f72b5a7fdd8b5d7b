"""The package's frozen record base, and the pass/fail result it checks with.

Checkers return a Verdict instead of raising, so callers can render every
failure with its witnesses (points, index pairs, constraint names) rather
than stopping at the first one.
"""

from __future__ import annotations


# Stores a field from a Record's __init__, past its frozen __setattr__.
# Unlike writing into ``self.__dict__``, it keeps CPython's inline attribute
# values, so reading a field stays as fast as on a plain object.
_set = object.__setattr__


class Record:
    """Base of the package's immutable value types.

    A subclass lists in ``_fields`` the attributes its repr shows, in order,
    and in ``_compared`` those that equality and the hash use (all of
    ``_fields`` unless it says otherwise).  Its __init__ stores every
    attribute with ``_set``; afterwards assigning or deleting any attribute
    raises AttributeError.  A record equals only a record of its own class,
    and it hashes when its compared fields do.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Verdict(Record):
    _fields = ("ok", "failures", "witnesses")
    _compared = ("ok", "failures")

    def __init__(
        self, ok: bool, failures: tuple[str, ...] = (), witnesses: tuple[object, ...] = ()
    ) -> None:
        _set(self, "ok", ok)
        _set(self, "failures", failures)
        _set(self, "witnesses", witnesses)

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "witnesses": [_plain(w) for w in self.witnesses],
        }


def _plain(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return str(value)
