"""Exact arithmetic in the ordered field Q(sqrt2).

Every probability and amplitude component in this package is an element
a + b*sqrt2 with rational a and b.  That field is closed under the four
arithmetic operations, totally ordered, and has a decidable sign, so every
comparison made anywhere in the package is exact.  Floating point exists
only for display, via :meth:`QSqrt2.to_float`.

An element is stored in integers, as ``(a + b*sqrt2)/d`` with ``d > 0`` and
``gcd(a, b, d) == 1``.  That form is unique, so equality is componentwise;
the four operations are integer products reduced by one gcd, and the sign
is decided by comparing ``a*a`` with ``2*b*b``.  The rational and sqrt2
parts are available as Fractions through ``rat`` and ``irr``.

Values render as ``a + b*sqrt2`` with rationals written ``p/q``, e.g.
``1/2``, ``sqrt2/2``, ``3*sqrt2/4``, ``1/3 + sqrt2/7``, ``1 - sqrt2``.
:meth:`QSqrt2.parse` reads the same forms back.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd

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

# Python's default int-from-str digit limit (sys.int_info.default_max_str_digits).
# parse() refuses a longer numeral itself, so a value parses or fails the
# same way whatever limit the interpreter runs with.
MAX_NUMERAL_DIGITS = 4300
_LONG_NUMERAL_RE = re.compile(f"[0-9]{{{MAX_NUMERAL_DIGITS + 1},}}")


def _quoted(text: str) -> str:
    """repr(text), cut to its first 40 characters and its length when longer."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; anything else raises TypeError.

    A Fraction is returned as it is.  A float, a str such as "1/3" and a
    Decimal are all refused, though Fraction() would take them: exactness is
    the whole point, and one policy serves QSqrt2 and LP data alike.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int or Fraction), got {type(value).__name__}: {value!r}"
    )


def _sign(a: int, b: int) -> int:
    """The sign of a + b*sqrt2 for integers a and b, decided without floats.

    When a and b disagree in sign, |a| vs |b|*sqrt2 is settled by squaring;
    the squares are never equal for nonzero b since sqrt2 is irrational.
    """
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if not a or (a > 0) == (b > 0):
        return sb
    return -sb if a * a > 2 * b * b else sb


def _ratio(text: str):
    """The (numerator, denominator) ints of a ``p`` or ``p/q`` digit string."""
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


class QSqrt2:
    """The field element ``rat + irr*sqrt2``, stored as ``(a + b*sqrt2)/d``.

    The (rat, irr) pair is a coordinate vector over the basis {1, sqrt2},
    which is linearly independent over the rationals, so representation is
    unique and equality is componentwise.  Instances are immutable.

    Arithmetic accepts ``int`` and ``Fraction`` operands and promotes them.
    Floats are rejected at construction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, rat=0, irr=0) -> "QSqrt2":
        rat = as_rational(rat)
        irr = as_rational(irr)
        q, s = rat.denominator, irr.denominator
        g = gcd(q, s)
        return _make(rat.numerator * (s // g), irr.numerator * (q // g), q // g * s)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"QSqrt2 is immutable: cannot set {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"QSqrt2 is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by setting slots.
        return QSqrt2, (self.rat, self.irr)

    @property
    def rat(self) -> Fraction:
        """The rational part."""
        return Fraction(self._a, self._d)

    @property
    def irr(self) -> Fraction:
        """The coefficient of sqrt2."""
        return Fraction(self._b, self._d)

    @classmethod
    def parse(cls, text: str) -> "QSqrt2":
        """Parse the text form: signed sum of rational and sqrt2 terms.

        Accepted terms: ``p``, ``p/q``, ``sqrt2``, ``sqrt2/q``, ``p*sqrt2``,
        ``p/q*sqrt2``, ``p*sqrt2/q``, each numeral at most MAX_NUMERAL_DIGITS
        digits long.  Raises ValueError on anything else; the message quotes
        at most 40 characters of the text.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty value")
        # The running sum (a + b*sqrt2)/d, reduced once at the end.
        a, b, d = 0, 0, 1
        pos = 0
        first = True
        while pos < len(s):
            while pos < len(s) and s[pos].isspace():
                pos += 1
            sign = 1
            if s[pos] in "+-":
                if s[pos] == "-":
                    sign = -1
                pos += 1
                while pos < len(s) and s[pos].isspace():
                    pos += 1
            elif not first:
                raise ValueError(f"expected '+' or '-' at offset {pos} in {_quoted(text)}")
            match = _TERM_RE.match(s, pos)
            if match is None or match.end() == pos:
                raise ValueError(f"malformed value at offset {pos} in {_quoted(text)}")
            if match.end() - pos > MAX_NUMERAL_DIGITS:
                numeral = _LONG_NUMERAL_RE.search(s, pos, match.end())
                if numeral:
                    raise ValueError(
                        f"numeral of {len(numeral[0])} digits at offset {numeral.start()}; "
                        f"at most {MAX_NUMERAL_DIGITS} digits are allowed"
                    )
            rat, coef, div = match.group("rat", "coef", "div")
            if rat is not None:
                p, q = _ratio(rat)
                ta, tb = sign * p, 0
            else:
                p, q = _ratio(coef) if coef else (1, 1)
                if div:
                    q *= int(div)
                ta, tb = 0, sign * p
            if not q:
                raise ValueError(f"zero denominator at offset {pos} in {_quoted(text)}")
            if q == d:
                a, b = a + ta, b + tb
            else:
                a, b, d = a * q + ta * d, b * q + tb * d, d * q
            pos = match.end()
            first = False
        return _make(a, b, d)

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other) -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._a - other._a, self._b - other._b, d)
        return _make(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _make(a * c + 2 * b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        # Multiply by the conjugate: (c + e*sqrt2)(c - e*sqrt2) = c^2 - 2e^2,
        # which vanishes only at zero because sqrt2 is irrational.
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        norm = c * c - 2 * e * e
        if not norm:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if norm < 0:
            norm, f = -norm, -f
        return _make((a * c - 2 * b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self) -> "QSqrt2":
        return _make(-self._a, -self._b, self._d)

    def __pos__(self) -> "QSqrt2":
        return self

    def __abs__(self) -> "QSqrt2":
        return -self if self.sign() < 0 else self

    # ---- order ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1, decided in integers (d > 0)."""
        return _sign(self._a, self._b)

    def __eq__(self, other) -> bool:
        if type(other) is not QSqrt2:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self.rat, self.irr))

    def _cmp(self, other):
        """The sign of self - other, or None for an operand of another type."""
        if type(other) is not QSqrt2:
            other = _coerce(other)
            if other is None:
                return None
        d, e = self._d, other._d
        return _sign(self._a * e - other._a * d, self._b * e - other._b * d)

    def __lt__(self, other) -> bool:
        s = self._cmp(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other) -> bool:
        s = self._cmp(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other) -> bool:
        s = self._cmp(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other) -> bool:
        s = self._cmp(other)
        return NotImplemented if s is None else s >= 0

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __ceil__(self) -> int:
        """The least integer n with self <= n, decided in integers."""
        return ceil_sqrt2(self._a, self._b, self._d)

    # ---- display --------------------------------------------------------

    def to_float(self) -> float:
        """Nearest float, for display only: never feeds back into a decision."""
        # int / int is correctly rounded, as float(Fraction) is.
        return self._a / self._d + self._b / self._d * _SQRT2_FLOAT

    __float__ = to_float

    def __str__(self) -> str:
        if not self._b:
            return str(self.rat)
        irr = self.irr
        irr_part = _sqrt2_term_str(abs(irr))
        if not self._a:
            return irr_part if irr > 0 else "-" + irr_part
        op = " + " if irr > 0 else " - "
        return str(self.rat) + op + irr_part

    def __repr__(self) -> str:
        return f"QSqrt2({self.rat}, {self.irr})"


_new = object.__new__
_set_a = QSqrt2._a.__set__
_set_b = QSqrt2._b.__set__
_set_d = QSqrt2._d.__set__


def _make(a: int, b: int, d: int) -> QSqrt2:
    """The trusted constructor: (a + b*sqrt2)/d for ints with d > 0, reduced."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    x = _new(QSqrt2)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def ceil_sqrt2(a: int, b: int, d: int) -> int:
    """The least integer n with (a + b*sqrt2)/d <= n, for ints with d > 0.

    floor(b*sqrt2) is isqrt(2b^2) for b >= 0 and -isqrt(2b^2) - 1 for b < 0,
    and floor(x/d) = floor(floor(x)/d), so no reduction is needed; for
    b != 0 the value is irrational, so its ceiling is one more than its floor.
    """
    if not b:
        return -(-a // d)
    root = math.isqrt(2 * b * b)
    floor_b_sqrt2 = root if b > 0 else -root - 1
    return (a + floor_b_sqrt2) // d + 1


def _coerce(value):
    """The QSqrt2 for an int or Fraction operand; None for any other type."""
    if isinstance(value, int):
        return _make(value, 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
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


def is_probability(value: QSqrt2) -> bool:
    """True iff the value lies in [0, 1], decided exactly: 0 <= a + b*sqrt2 <= d."""
    a, b = value._a, value._b
    return _sign(a, b) >= 0 and _sign(value._d - a, -b) >= 0


def is_distribution(values) -> bool:
    """True iff every value lies in [0, 1] and the values sum to exactly 1.

    Decided in integers, with no field element built.  Nonnegative values
    that sum to 1 are each at most 1, so only signs are tested; with L the
    lcm of the denominators, values (a + b*sqrt2)/d sum to 1 exactly when
    the a*L/d sum to L and the b*L/d sum to 0.  An empty collection sums to
    0, so it is not a distribution.
    """
    values = tuple(values)
    den = math.lcm(*[v._d for v in values])
    a_sum = b_sum = 0
    for v in values:
        a, b, d = v._a, v._b, v._d
        if b:
            if _sign(a, b) < 0:
                return False
            b_sum += b * (den // d)
        elif a < 0:
            return False
        a_sum += a if d == den else a * (den // d)
    return a_sum == den and not b_sum


# The package's exact sums scale their terms to the lcm of the denominators,
# add in two integer accumulators and reduce once; the form _make returns is
# canonical, so the result is the QSqrt2 that a running sum gives.


def qsum(values) -> QSqrt2:
    """The exact sum of QSqrt2 values; ZERO for none."""
    values = tuple(values)
    den = math.lcm(*[v._d for v in values])
    a = b = 0
    for v in values:
        scale = den // v._d
        a += v._a * scale
        b += v._b * scale
    return _make(a, b, den)


def qdot(xs, ys) -> QSqrt2:
    """The exact sum of x*y over paired QSqrt2 values; ZERO for none.

    Zero terms are skipped.  Unequal lengths raise ValueError.  A product
    (a + b*sqrt2)(c + e*sqrt2)/(d*f) is (ac + 2be + (ae + bc)*sqrt2)/(d*f).
    """
    terms = [
        (x._a * y._a + 2 * x._b * y._b, x._a * y._b + x._b * y._a, x._d * y._d)
        for x, y in zip(xs, ys, strict=True)
        if (x._a or x._b) and (y._a or y._b)
    ]
    den = math.lcm(*[d for _, _, d in terms])
    a = b = 0
    for ta, tb, d in terms:
        scale = den // d
        a += ta * scale
        b += tb * scale
    return _make(a, b, den)
