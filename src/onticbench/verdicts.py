"""A small structured pass/fail result shared by the checking routines.

Checkers return a Verdict instead of raising, so callers can render every
failure with its witnesses (points, index pairs, constraint names) rather
than stopping at the first one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple


@dataclass(frozen=True)
class Verdict:
    ok: bool
    failures: Tuple[str, ...] = ()
    witnesses: Tuple[Any, ...] = field(default=(), compare=False)

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
