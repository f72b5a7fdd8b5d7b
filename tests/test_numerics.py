"""Tests for the exact field arithmetic, and a differential test of its integer form."""

import copy
import math
import operator
import pickle
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticbench.numerics import (
    HALF,
    INV_SQRT2,
    ONE,
    QSqrt2,
    QUARTER,
    SQRT2,
    ZERO,
    is_distribution,
    is_probability,
)


def q(rat, irr=0):
    return QSqrt2(Fraction(rat), Fraction(irr))


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
elements = st.builds(QSqrt2, rationals, rationals)
nonzero = elements.filter(lambda x: x != ZERO)


class TestConstruction:
    def test_default_is_zero(self):
        assert QSqrt2() == ZERO

    def test_int_coercion(self):
        assert QSqrt2(3) == q(3)
        assert QSqrt2(1, 2) == q(1, 2)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QSqrt2(0.5)
        with pytest.raises(TypeError):
            QSqrt2(0, 1.5)

    def test_constants(self):
        assert HALF + HALF == ONE
        assert QUARTER * q(4) == ONE
        assert SQRT2 * SQRT2 == q(2)
        assert INV_SQRT2 * SQRT2 == ONE


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", ZERO),
            ("1/2", HALF),
            ("-1/2", -HALF),
            ("sqrt2", SQRT2),
            ("sqrt2/2", INV_SQRT2),
            ("-sqrt2", -SQRT2),
            ("3*sqrt2/4", q(0, Fraction(3, 4))),
            ("1/3 + sqrt2/7", q(Fraction(1, 3), Fraction(1, 7))),
            ("1 - sqrt2", q(1, -1)),
            ("2", q(2)),
            ("  1/4  ", QUARTER),
            ("1/2 + 1/4", q(Fraction(3, 4))),
        ],
    )
    def test_accepted(self, text, expected):
        assert QSqrt2.parse(text) == expected

    @pytest.mark.parametrize("text", ["", "1.5", "sqrt3", "1 +", "+ +1", "1//2", "sqrt2*3"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            QSqrt2.parse(text)

    def test_non_ascii_digits_rejected(self):
        # Arabic-Indic digits are Unicode decimals; only ASCII digits are values.
        with pytest.raises(ValueError):
            QSqrt2.parse("\u0661/\u0664")

    def test_error_names_offset(self):
        with pytest.raises(ValueError, match="offset"):
            QSqrt2.parse("1/2 + bogus")

    @pytest.mark.parametrize(
        "value",
        [ZERO, ONE, -ONE, HALF, SQRT2, INV_SQRT2, q(1, 1), q(-3, 2),
         q(Fraction(22, 7), Fraction(-5, 3))],
    )
    def test_round_trip(self, value):
        assert QSqrt2.parse(str(value)) == value


class TestArithmetic:
    def test_conjugate_pair_product(self):
        # (1 + sqrt2)(1 - sqrt2) = -1
        assert q(1, 1) * q(1, -1) == -ONE

    def test_division(self):
        assert ONE / q(1, 1) == q(-1, 1)
        assert q(3, 5) / q(3, 5) == ONE
        x = q(Fraction(2, 3), Fraction(-1, 4))
        y = q(Fraction(-7, 2), Fraction(5, 6))
        assert (x / y) * y == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_mixed_with_rationals(self):
        assert HALF + Fraction(1, 2) == ONE
        assert 2 * INV_SQRT2 == SQRT2
        assert SQRT2 - 1 == q(-1, 1)


class TestOrder:
    def test_sign_exact_cases(self):
        # 3 - 2*sqrt2 > 0 because 9 > 8; its float is 0.17 so this is not close
        assert q(3, -2).sign() == 1
        # 7/5 underestimates sqrt2: 49/25 < 2
        assert q(Fraction(-7, 5), 1).sign() == 1
        assert q(Fraction(7, 5), -1).sign() == -1
        # 17/12 overestimates sqrt2: 289/144 > 2
        assert q(Fraction(17, 12), -1).sign() == 1
        assert ZERO.sign() == 0

    def test_ordering_chain(self):
        assert ONE < SQRT2 < q(Fraction(3, 2))
        assert min(SQRT2, q(Fraction(3, 2))) == SQRT2
        assert min(q(Fraction(3, 2)), SQRT2, ONE) == ONE

    def test_comparison_with_rationals(self):
        assert HALF < 1
        assert SQRT2 > Fraction(14, 10)

    def test_to_float(self):
        assert abs(SQRT2.to_float() - 2 ** 0.5) < 1e-12
        assert float(q(3, -2)) == pytest.approx(3 - 2 * 2 ** 0.5)


class TestProbabilityHelpers:
    def test_boundaries_inclusive(self):
        assert is_probability(ZERO)
        assert is_probability(ONE)
        assert is_probability(INV_SQRT2)

    def test_outside(self):
        assert not is_probability(-QUARTER)
        assert not is_probability(ONE + q(0, Fraction(1, 1000)))


def distribution_oracle(row) -> bool:
    """The field-arithmetic decision that is_distribution replaces."""
    return all(is_probability(v) for v in row) and sum(row, ZERO) == ONE


def random_row(rng: random.Random) -> list:
    """A short row, often a distribution, often one spoiled in a single value."""
    size = rng.randint(1, 5)
    den = rng.choice([1, 2, 3, 4, 7, 12, 16])
    cuts = sorted(rng.randint(0, den) for _ in range(size - 1))
    row = [q(Fraction(b - a, den)) for a, b in zip([0] + cuts, cuts + [den])]
    if size > 1 and rng.random() < 0.5:
        # Move c*sqrt2 between two values: the sum holds, a bound may not.
        i, j = rng.sample(range(size), 2)
        moved = q(0, Fraction(rng.randint(1, 3), rng.choice([2, 8, 64, 1024])))
        row[i], row[j] = row[i] - moved, row[j] + moved
    kind = rng.choice(["keep", "keep", "negate", "above", "sqrt2-miss", "rational-miss", "any"])
    i = rng.randrange(size)
    if kind == "negate":
        row[i] = -row[i]
    elif kind == "above":
        row[i] = row[i] + ONE
    elif kind == "sqrt2-miss":
        row[i] = row[i] + q(0, Fraction(1, rng.choice([3, 100, 10**6])))
    elif kind == "rational-miss":
        row[i] = row[i] - q(Fraction(1, rng.choice([5, 16, 10**6])))
    elif kind == "any":
        row[i] = q(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return row


class TestIsDistribution:
    @pytest.mark.parametrize(
        "row, expected",
        [
            ([], False),
            ([ONE], True),
            ([HALF, HALF], True),
            ([QUARTER, HALF, QUARTER, ZERO], True),
            ([INV_SQRT2, ONE - INV_SQRT2], True),
            ([SQRT2, ONE - SQRT2], False),  # sums to 1, both values outside [0, 1]
            ([q(Fraction(3, 2)), -HALF], False),
            ([HALF + q(0, Fraction(1, 10**6)), HALF], False),  # misses by a sqrt2 term
            ([q(Fraction(1, 3)), q(Fraction(1, 3)), q(Fraction(1, 3))], True),
            ([q(Fraction(1, 3)), HALF], False),
        ],
    )
    def test_examples(self, row, expected):
        assert is_distribution(row) is expected
        assert distribution_oracle(row) is expected

    def test_takes_any_iterable(self):
        assert is_distribution(iter([HALF, HALF]))
        assert is_distribution({"a": QUARTER, "b": HALF + QUARTER}.values())

    def test_agrees_with_field_arithmetic_on_seeded_rows(self):
        rng = random.Random("is_distribution")
        rows = [random_row(rng) for _ in range(3000)]
        decided = [is_distribution(row) for row in rows]
        assert decided == [distribution_oracle(row) for row in rows]
        # The generator reaches both answers, with and without sqrt2 parts.
        irrational = [any(v.irr for v in row) for row in rows]
        assert {(d, i) for d, i in zip(decided, irrational)} == {
            (True, True), (True, False), (False, True), (False, False)
        }


class TestHashing:
    def test_rational_values_hash_like_fractions(self):
        assert hash(q(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert q(2) == Fraction(2) == 2

    def test_usable_as_dict_key(self):
        table = {SQRT2: "s", HALF: "h"}
        assert table[q(0, 1)] == "s"


class TestFieldAxioms:
    """Randomized algebraic laws.  The heavier sweep lives in the acceptance suite."""

    @given(elements, elements)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(elements, elements, elements)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(elements)
    def test_identities_and_negation(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a + (-a) == ZERO

    @given(elements, st.integers(min_value=0, max_value=64))
    def test_ceil_brackets_the_value(self, a, bits):
        x = a * (1 << bits)
        n = math.ceil(x)
        assert n - 1 < x <= n

    @given(nonzero)
    def test_multiplicative_inverse(self, a):
        assert a * (ONE / a) == ONE

    @given(elements, elements)
    def test_subtraction_consistent(self, a, b):
        assert (a - b) + b == a

    @given(elements, elements)
    @settings(max_examples=200)
    def test_order_antisymmetric_and_total(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1

    @given(elements, elements, elements)
    def test_order_translation_invariant(self, a, b, c):
        if a < b:
            assert a + c < b + c

    @given(elements, elements, nonzero)
    def test_order_scaling(self, a, b, c):
        if a < b and c.sign() > 0:
            assert a * c < b * c

    @given(elements)
    def test_sign_matches_float(self, a):
        # float(a) is a correctly rounded double of an exact value, so its
        # sign can only disagree with the exact sign near underflow
        approx = a.to_float()
        if abs(approx) > 1e-9:
            assert (approx > 0) == (a.sign() > 0)

    @given(elements)
    def test_string_round_trip(self, a):
        assert QSqrt2.parse(str(a)) == a


# ---- oracle: the Fraction-pair field element ------------------------------------
#
# The element as it was stored before it became integers over one
# denominator: a frozen dataclass of two Fractions, coerced on every
# construction.  The integer form must agree with it value for value.

_ORACLE_TERM_RE = re.compile(
    r"""
    (?:
        (?:(?P<coef>[0-9]+(?:/[0-9]+)?)\s*\*\s*)?
        sqrt2
        (?:\s*/\s*(?P<div>[0-9]+))?
      |
        (?P<rat>[0-9]+(?:/[0-9]+)?)
    )
    """,
    re.VERBOSE,
)


def _oracle_rational(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int or Fraction), got {type(value).__name__}: {value!r}"
    )


def _oracle_quoted(text):
    # Error messages quote at most 40 characters of a longer text, and its length.
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


@total_ordering
@dataclass(frozen=True)
class Oracle:
    rat: Fraction = Fraction(0)
    irr: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "rat", _oracle_rational(self.rat))
        object.__setattr__(self, "irr", _oracle_rational(self.irr))

    @classmethod
    def parse(cls, text):
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
                raise ValueError(f"expected '+' or '-' at offset {pos} in {_oracle_quoted(text)}")
            match = _ORACLE_TERM_RE.match(s, pos)
            if match is None or match.end() == pos:
                raise ValueError(f"malformed value at offset {pos} in {_oracle_quoted(text)}")
            try:
                if match.group("rat") is not None:
                    term = cls(Fraction(match.group("rat")))
                else:
                    coef = Fraction(match.group("coef")) if match.group("coef") else Fraction(1)
                    if match.group("div"):
                        coef /= int(match.group("div"))
                    term = cls(Fraction(0), coef)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator at offset {pos} in {_oracle_quoted(text)}") from None
            total = total + term * sign
            pos = match.end()
            first = False
        return total

    def __add__(self, other):
        other = _oracle_coerce(other)
        if other is None:
            return NotImplemented
        return Oracle(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __sub__(self, other):
        other = _oracle_coerce(other)
        if other is None:
            return NotImplemented
        return Oracle(self.rat - other.rat, self.irr - other.irr)

    def __rsub__(self, other):
        other = _oracle_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _oracle_coerce(other)
        if other is None:
            return NotImplemented
        return Oracle(
            self.rat * other.rat + 2 * self.irr * other.irr,
            self.rat * other.irr + self.irr * other.rat,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _oracle_coerce(other)
        if other is None:
            return NotImplemented
        norm = other.rat * other.rat - 2 * other.irr * other.irr
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        num = self * other.conjugate()
        return Oracle(num.rat / norm, num.irr / norm)

    def __rtruediv__(self, other):
        other = _oracle_coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return Oracle(-self.rat, -self.irr)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def conjugate(self):
        return Oracle(self.rat, -self.irr)

    def sign(self):
        a, b = self.rat, self.irr
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sa == 0:
            return sb
        if sb == 0 or sa == sb:
            return sa
        return sa if a * a > 2 * b * b else sb

    def __eq__(self, other):
        other = _oracle_coerce(other)
        if other is None:
            return NotImplemented
        return self.rat == other.rat and self.irr == other.irr

    def __hash__(self):
        if not self.irr:
            return hash(self.rat)
        return hash((self.rat, self.irr))

    def __lt__(self, other):
        other = _oracle_coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __ceil__(self):
        if not self.irr:
            return math.ceil(self.rat)
        d = self.rat.denominator * self.irr.denominator
        r = self.rat.numerator * self.irr.denominator
        p = self.irr.numerator * self.rat.denominator
        root = math.isqrt(2 * p * p)
        floor_p_sqrt2 = root if p > 0 else -root - 1
        return (r + floor_p_sqrt2) // d + 1

    def to_float(self):
        return float(self.rat) + float(self.irr) * math.sqrt(2.0)

    def __str__(self):
        if not self.irr:
            return str(self.rat)
        irr_part = _oracle_sqrt2_term_str(abs(self.irr))
        if not self.rat:
            return irr_part if self.irr > 0 else "-" + irr_part
        op = " + " if self.irr > 0 else " - "
        return str(self.rat) + op + irr_part

    def __repr__(self):
        return f"QSqrt2({self.rat}, {self.irr})"


def _oracle_coerce(value):
    if isinstance(value, Oracle):
        return value
    if isinstance(value, (int, Fraction)):
        return Oracle(value)
    return None


def _oracle_sqrt2_term_str(coef):
    p, q = coef.numerator, coef.denominator
    if p == 1:
        return "sqrt2" if q == 1 else f"sqrt2/{q}"
    if q == 1:
        return f"{p}*sqrt2"
    return f"{p}*sqrt2/{q}"


# ---- the integer form against the oracle ----------------------------------------

wide_rationals = st.one_of(
    rationals,
    st.fractions(max_denominator=10**12),
    st.integers(min_value=-3, max_value=3).map(Fraction),
)
pairs = st.tuples(wide_rationals, wide_rationals)
scalars = st.one_of(st.integers(min_value=-10**6, max_value=10**6), wide_rationals)


def _outcome(op, *args):
    """An operation's value, or the type and text of what it raised."""
    try:
        return op(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _same(new, old):
    """The integer-form result equals the oracle's, as a value and as a dict key."""
    if isinstance(old, Oracle):
        assert type(new) is QSqrt2
        assert (new.rat, new.irr) == (old.rat, old.irr)
        assert type(new.rat) is Fraction and type(new.irr) is Fraction
        # Equality and hashing are componentwise only on the canonical form.
        canonical = QSqrt2(old.rat, old.irr)
        assert new == canonical and hash(new) == hash(canonical) == hash(old)
        assert {canonical: True}.get(new, False)
    else:
        assert new == old and type(new) is type(old)


_BINARY = [
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne,
]


class TestAgreesWithFractionPair:
    @given(pairs, pairs)
    @settings(max_examples=300)
    def test_binary_operators(self, x, y):
        a, b = QSqrt2(*x), QSqrt2(*y)
        oa, ob = Oracle(*x), Oracle(*y)
        for op in _BINARY:
            _same(_outcome(op, a, b), _outcome(op, oa, ob))

    @given(pairs, scalars)
    @settings(max_examples=300)
    def test_mixed_and_reflected_operators(self, x, c):
        a, oa = QSqrt2(*x), Oracle(*x)
        for op in _BINARY:
            _same(_outcome(op, a, c), _outcome(op, oa, c))
            _same(_outcome(op, c, a), _outcome(op, c, oa))

    @given(pairs, st.integers(min_value=0, max_value=64))
    @settings(max_examples=300)
    def test_unary_operations_and_display(self, x, bits):
        a, oa = QSqrt2(*x) * (1 << bits), Oracle(*x) * (1 << bits)
        assert a.sign() == oa.sign()
        assert bool(a) == bool(oa.rat or oa.irr)
        assert math.ceil(a) == math.ceil(oa)
        _same(-a, -oa)
        _same(abs(a), abs(oa))
        assert str(a) == str(oa)
        assert repr(a) == repr(oa)
        assert a.to_float() == oa.to_float() and float(a) == oa.to_float()
        assert is_probability(a) == (oa.sign() >= 0 and (Oracle(1) - oa).sign() >= 0)
        _same(QSqrt2.parse(str(a)), Oracle.parse(str(oa)))
        assert QSqrt2.parse(str(a)) == a

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["", "+", "-", " - ", "+ "]),
                st.sampled_from(["{p}", "{p}/{q}", "sqrt2", "sqrt2/{q}", "{p}*sqrt2",
                                 "{p}/{q}*sqrt2", "{p}*sqrt2/{q}", "{p}/{q} * sqrt2 / {r}"]),
                st.integers(min_value=0, max_value=10**9),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=12),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=300)
    def test_parse(self, terms):
        text = " ".join(
            sign + form.format(p=p, q=q, r=r) for sign, form, p, q, r in terms
        )
        _same(_outcome(QSqrt2.parse, text), _outcome(Oracle.parse, text))

    @pytest.mark.parametrize(
        "x, expected",
        [
            (QSqrt2(2, 0) / 2, ONE),
            (QSqrt2(6, 4) / 2, q(3, 2)),
            (QSqrt2(Fraction(1, 3), Fraction(2, 3)) * 3, q(1, 2)),
            (QSqrt2.parse("2/4 + 2*sqrt2/4"), HALF + INV_SQRT2),
            (QSqrt2(1, 1) - SQRT2, ONE),
        ],
    )
    def test_results_are_reduced(self, x, expected):
        # Unreduced (a, b, d) would break componentwise equality and dict lookup.
        assert x == expected and hash(x) == hash(expected)
        assert {expected: True}.get(x, False)


class TestImmutableAndSlotted:
    @pytest.mark.parametrize("name", ["rat", "irr", "_a", "_b", "_d", "extra"])
    def test_attribute_assignment_raises(self, name):
        x = QSqrt2(Fraction(1, 2), 3)
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert x == QSqrt2(Fraction(1, 2), 3)

    def test_no_instance_dict(self):
        assert not hasattr(QSqrt2(1, 1), "__dict__")
        assert "__dict__" not in QSqrt2.__dict__

    def test_copy_and_pickle_round_trip(self):
        x = QSqrt2(Fraction(-3, 4), Fraction(5, 6))
        assert copy.copy(x) == copy.deepcopy(x) == pickle.loads(pickle.dumps(x)) == x

    def test_keyword_construction(self):
        assert QSqrt2(rat=Fraction(1, 2), irr=1) == HALF + SQRT2
        assert QSqrt2(irr=Fraction(1, 2)) == INV_SQRT2


class TestErrorWording:
    def test_division_by_zero(self):
        for zero in (0, Fraction(0), ZERO):
            with pytest.raises(ZeroDivisionError, match=r"^division by zero in Q\(sqrt2\)$"):
                ONE / zero
        with pytest.raises(ZeroDivisionError, match=r"^division by zero in Q\(sqrt2\)$"):
            1 / ZERO

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/0", "zero denominator at offset 0 in '1/0'"),
            ("sqrt2/0", "zero denominator at offset 0 in 'sqrt2/0'"),
            ("1 + 3/0*sqrt2", "zero denominator at offset 4 in '1 + 3/0*sqrt2'"),
            ("", "empty value"),
            ("1 2", "expected '+' or '-' at offset 2 in '1 2'"),
            ("1 + x", "malformed value at offset 4 in '1 + x'"),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(ValueError) as new:
            QSqrt2.parse(text)
        with pytest.raises(ValueError) as old:
            Oracle.parse(text)
        assert str(new.value) == str(old.value) == message
