"""Tests for exact state vectors, bases, and Born probabilities."""

from fractions import Fraction

import pytest

from onticbench.hilbert import (
    MeasurementBasis,
    StateVector,
    born_probabilities,
    check_orthonormal,
    inner_product,
    ket,
    ket_product,
    tensor_product,
)
from onticbench.numerics import HALF, INV_SQRT2, ONE, QSqrt2, QUARTER, ZERO


def q(rat, irr=0):
    return QSqrt2(Fraction(rat), Fraction(irr))


def real(value) -> QSqrt2:
    return value


# The four antidistinguishing two-qubit states, written out amplitude by
# amplitude in the computational basis 00, 01, 10, 11.
XI_1 = StateVector((real(ZERO), real(INV_SQRT2), real(INV_SQRT2), real(ZERO)))
XI_2 = StateVector((real(HALF), real(-HALF), real(HALF), real(HALF)))
XI_3 = StateVector((real(HALF), real(HALF), real(-HALF), real(HALF)))
XI_4 = StateVector((real(INV_SQRT2), real(ZERO), real(ZERO), real(-INV_SQRT2)))
XI_BASIS = MeasurementBasis((XI_1, XI_2, XI_3, XI_4))

PRODUCT_STATES = [ket_product(name) for name in ("00", "0+", "+0", "++")]

# Born rows of the four product states against XI_BASIS, frozen after
# independent verification with a symbolic solver.
BORN_ROWS = [
    (ZERO, QUARTER, QUARTER, HALF),
    (QUARTER, ZERO, HALF, QUARTER),
    (QUARTER, HALF, ZERO, QUARTER),
    (HALF, QUARTER, QUARTER, ZERO),
]


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector((real(ONE), real(ONE)))

    def test_validate_false_allows_unnormalized(self):
        s = StateVector((real(ONE), real(ONE)), validate=False)
        assert s.norm_squared() == q(2)

    def test_named_kets_normalized(self):
        for name in "01+-":
            assert ket(name).norm_squared() == ONE

    def test_plus_is_equal_superposition(self):
        assert ket("+").amplitudes == (real(INV_SQRT2), real(INV_SQRT2))


class TestInnerProduct:
    def test_plus_zero_overlap(self):
        assert inner_product(ket("+"), ket("0")) == real(INV_SQRT2)

    def test_orthogonal_pair(self):
        assert not inner_product(ket("0"), ket("1"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(ket("0"), ket_product("00"))


class TestTensorProduct:
    def test_first_factor_varies_slowest(self):
        s = tensor_product(ket("0"), ket("1"))
        assert s.amplitudes == (real(ZERO), real(ONE), real(ZERO), real(ZERO))

    def test_matches_ket_product(self):
        assert tensor_product(ket("+"), ket("-")) == ket_product("+-")

    def test_norm_multiplicative(self):
        assert tensor_product(ket("+"), ket("+")).norm_squared() == ONE


class TestOrthonormality:
    def test_xi_basis_is_orthonormal(self):
        assert check_orthonormal(XI_BASIS.outcomes).ok

    def test_duplicate_vector_reported(self):
        verdict = check_orthonormal((ket("0"), ket("0")))
        assert not verdict.ok
        assert (1, 2) in verdict.witnesses

    def test_unnormalized_vector_reported(self):
        long = StateVector((real(ONE), real(ONE)), validate=False)
        verdict = check_orthonormal((long, ket("1")))
        assert not verdict.ok
        assert (1, 1) in verdict.witnesses

    def test_constructor_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            MeasurementBasis((ket("0"), ket("0")))

    def test_outcome_count_must_match_dimension(self):
        with pytest.raises(ValueError):
            MeasurementBasis((ket("0"),))
        with pytest.raises(ValueError):
            MeasurementBasis((ket_product("00"), ket_product("01")))


class TestBornProbabilities:
    def test_plus_in_computational_basis(self):
        basis = MeasurementBasis((ket("0"), ket("1")))
        assert born_probabilities(ket("+"), basis) == [HALF, HALF]

    @pytest.mark.parametrize("row_index", range(4))
    def test_frozen_rows(self, row_index):
        probs = born_probabilities(PRODUCT_STATES[row_index], XI_BASIS)
        assert tuple(probs) == BORN_ROWS[row_index]

    @pytest.mark.parametrize("row_index", range(4))
    def test_rows_normalized(self, row_index):
        probs = born_probabilities(PRODUCT_STATES[row_index], XI_BASIS)
        total = ZERO
        for p in probs:
            total = total + p
        assert total == ONE

    @pytest.mark.parametrize("k", range(4))
    def test_each_state_excluded_by_its_outcome(self, k):
        # outcome k never fires on the k-th product state
        overlap = inner_product(XI_BASIS.outcomes[k], PRODUCT_STATES[k])
        assert not overlap

