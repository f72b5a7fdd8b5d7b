"""Tests for the exact field arithmetic."""

import math
from fractions import Fraction

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
    is_probability,
    qmax,
    qmin,
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

    def test_conjugate(self):
        x = q(Fraction(3, 4), Fraction(-2, 5))
        assert x.conjugate() == q(Fraction(3, 4), Fraction(2, 5))
        norm = x * x.conjugate()
        assert norm.irr == 0


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
        assert qmin(SQRT2, q(Fraction(3, 2))) == SQRT2
        assert qmax(-ONE, ZERO) == ZERO

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
