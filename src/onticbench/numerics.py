"""Exact arithmetic in the ordered field Q(sqrt2).

Every probability and amplitude component in this package is an element
a + b*sqrt2 with rational a and b.  That field is closed under the four
arithmetic operations, totally ordered, and has a decidable sign, so every
comparison made anywhere in the package is exact.  Floating point exists
only for display, via :meth:`QSqrt2.to_float`.

Values render as ``a + b*sqrt2`` with rationals written ``p/q``, e.g.
``1/2``, ``sqrt2/2``, ``3*sqrt2/4``, ``1/3 + sqrt2/7``, ``1 - sqrt2``.
:meth:`QSqrt2.parse` reads the same forms back.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

# Rational scalars are stdlib fractions: always in lowest terms, with a
# positive denominator and arbitrary-precision components.
Rational = Fraction

_SQRT2_FLOAT = math.sqrt(2.0)

_TERM_RE = re.compile(
    r"""
    (?:
        (?:(?P<coef>[0-9]+(?:/[0-9]+)?)\s*\*\s*)?  # optional rational coefficient
        sqrt2
        (?:\s*/\s*(?P<div>[0-9]+))?                # optional divisor
      |
        (?P<rat>[0-9]+(?:/[0-9]+)?)                # plain rational term
    )
    """,
    re.VERBOSE,
)


def _as_rational(value) -> Fraction:
    """Coerce to Fraction, rejecting floats: exactness is the whole point."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int or Fraction), got {type(value).__name__}: {value!r}"
    )


@total_ordering
@dataclass(frozen=True)
class QSqrt2:
    """The field element ``rat + irr*sqrt2``.

    The (rat, irr) pair is a coordinate vector over the basis {1, sqrt2},
    which is linearly independent over the rationals, so representation is
    unique and equality is componentwise.

    Arithmetic accepts ``int`` and ``Fraction`` operands and promotes them.
    Floats are rejected at construction.
    """

    rat: Fraction = Fraction(0)
    irr: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rat", _as_rational(self.rat))
        object.__setattr__(self, "irr", _as_rational(self.irr))

    @classmethod
    def parse(cls, text: str) -> "QSqrt2":
        """Parse the text form: signed sum of rational and sqrt2 terms.

        Accepted terms: ``p``, ``p/q``, ``sqrt2``, ``sqrt2/q``, ``p*sqrt2``,
        ``p/q*sqrt2``, ``p*sqrt2/q``.  Raises ValueError on anything else.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty value")
        total = cls()
        pos = 0
        first = True
        while pos < len(s):
            while pos < len(s) and s[pos].isspace():
                pos += 1
            if pos >= len(s):
                break
            sign = 1
            if s[pos] in "+-":
                if s[pos] == "-":
                    sign = -1
                pos += 1
                while pos < len(s) and s[pos].isspace():
                    pos += 1
            elif not first:
                raise ValueError(f"expected '+' or '-' at offset {pos} in {text!r}")
            match = _TERM_RE.match(s, pos)
            if match is None or match.end() == pos:
                raise ValueError(f"malformed value at offset {pos} in {text!r}")
            try:
                if match.group("rat") is not None:
                    term = cls(Fraction(match.group("rat")))
                else:
                    coef = Fraction(match.group("coef")) if match.group("coef") else Fraction(1)
                    if match.group("div"):
                        coef /= int(match.group("div"))
                    term = cls(Fraction(0), coef)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator at offset {pos} in {text!r}") from None
            total = total + term * sign
            pos = match.end()
            first = False
        return total

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt2(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __sub__(self, other) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt2(self.rat - other.rat, self.irr - other.irr)

    def __rsub__(self, other) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt2(
            self.rat * other.rat + 2 * self.irr * other.irr,
            self.rat * other.irr + self.irr * other.rat,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # Multiply by the conjugate: (c + d*sqrt2)(c - d*sqrt2) = c^2 - 2d^2,
        # which vanishes only at zero because sqrt2 is irrational.
        norm = other.rat * other.rat - 2 * other.irr * other.irr
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        conj = other.conjugate()
        num = self * conj
        return QSqrt2(num.rat / norm, num.irr / norm)

    def __rtruediv__(self, other) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.rat, -self.irr)

    def __pos__(self) -> "QSqrt2":
        return self

    def __abs__(self) -> "QSqrt2":
        return -self if self.sign() < 0 else self

    def conjugate(self) -> "QSqrt2":
        """The field automorphism sqrt2 -> -sqrt2."""
        return QSqrt2(self.rat, -self.irr)

    # ---- order ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1, decided without floating point.

        When the two components disagree in sign the comparison
        |rat| vs |irr|*sqrt2 is settled by squaring; equality of the squares
        is impossible for nonzero components since sqrt2 is irrational.
        """
        a, b = self.rat, self.irr
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sa == 0:
            return sb
        if sb == 0 or sa == sb:
            return sa
        return sa if a * a > 2 * b * b else sb

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.rat == other.rat and self.irr == other.irr

    def __hash__(self) -> int:
        if not self.irr:
            return hash(self.rat)
        return hash((self.rat, self.irr))

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __bool__(self) -> bool:
        return bool(self.rat) or bool(self.irr)

    def __ceil__(self) -> int:
        """The least integer n with self <= n, decided in integers.

        Written as (r + p*sqrt2)/d with d > 0, floor(p*sqrt2) is isqrt(2p^2)
        for p >= 0 and -isqrt(2p^2) - 1 for p < 0; for p != 0 the value is
        irrational, so its ceiling is one more than its floor.
        """
        if not self.irr:
            return math.ceil(self.rat)
        d = self.rat.denominator * self.irr.denominator
        r = self.rat.numerator * self.irr.denominator
        p = self.irr.numerator * self.rat.denominator
        root = math.isqrt(2 * p * p)
        floor_p_sqrt2 = root if p > 0 else -root - 1
        return (r + floor_p_sqrt2) // d + 1

    # ---- display --------------------------------------------------------

    def to_float(self) -> float:
        """Nearest float, for display only: never feeds back into a decision."""
        return float(self.rat) + float(self.irr) * _SQRT2_FLOAT

    __float__ = to_float

    def __str__(self) -> str:
        if not self.irr:
            return str(self.rat)
        irr_part = _sqrt2_term_str(abs(self.irr))
        if not self.rat:
            return irr_part if self.irr > 0 else "-" + irr_part
        op = " + " if self.irr > 0 else " - "
        return str(self.rat) + op + irr_part

    def __repr__(self) -> str:
        return f"QSqrt2({self.rat}, {self.irr})"


def _coerce(value):
    if isinstance(value, QSqrt2):
        return value
    if isinstance(value, (int, Fraction)):
        return QSqrt2(value)
    return None


def as_qsqrt2(value) -> QSqrt2:
    """The field element for a QSqrt2, int or Fraction; anything else raises TypeError."""
    if isinstance(value, QSqrt2):
        return value
    return QSqrt2(value)


def _sqrt2_term_str(coef: Fraction) -> str:
    p, q = coef.numerator, coef.denominator
    if p == 1:
        return "sqrt2" if q == 1 else f"sqrt2/{q}"
    if q == 1:
        return f"{p}*sqrt2"
    return f"{p}*sqrt2/{q}"


ZERO = QSqrt2()
ONE = QSqrt2(1)
HALF = QSqrt2(Fraction(1, 2))
QUARTER = QSqrt2(Fraction(1, 4))
SQRT2 = QSqrt2(0, 1)
INV_SQRT2 = QSqrt2(0, Fraction(1, 2))


def qmin(a: QSqrt2, b: QSqrt2) -> QSqrt2:
    return a if (a - b).sign() <= 0 else b


def qmax(a: QSqrt2, b: QSqrt2) -> QSqrt2:
    return a if (a - b).sign() >= 0 else b


def is_probability(value: QSqrt2) -> bool:
    """True iff the value lies in [0, 1], decided exactly."""
    return value.sign() >= 0 and (ONE - value).sign() >= 0
