"""Tests for exact state vectors, bases, and Born probabilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticbench.hilbert import (
    MeasurementBasis,
    StateVector,
    born_probabilities,
    check_orthonormal,
    inner_product,
    ket,
    ket_product,
)
from onticbench.numerics import HALF, INV_SQRT2, ONE, QSqrt2, QUARTER, ZERO


def real(value) -> QSqrt2:
    return value


# The four antidistinguishing two-qubit states, written out amplitude by
# amplitude in the computational basis 00, 01, 10, 11.
XI_1 = StateVector((real(ZERO), real(INV_SQRT2), real(INV_SQRT2), real(ZERO)))
XI_2 = StateVector((real(HALF), real(-HALF), real(HALF), real(HALF)))
XI_3 = StateVector((real(HALF), real(HALF), real(-HALF), real(HALF)))
XI_4 = StateVector((real(INV_SQRT2), real(ZERO), real(ZERO), real(-INV_SQRT2)))
XI_BASIS = MeasurementBasis((XI_1, XI_2, XI_3, XI_4))

NAMED = {
    "0": (ONE, ZERO),
    "1": (ZERO, ONE),
    "+": (INV_SQRT2, INV_SQRT2),
    "-": (INV_SQRT2, -INV_SQRT2),
}

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


class TestKetProduct:
    def test_first_factor_varies_slowest(self):
        assert ket_product("01").amplitudes == (real(ZERO), real(ONE), real(ZERO), real(ZERO))

    def test_norm_multiplicative(self):
        assert ket_product("++").norm_squared() == ONE

    @settings(max_examples=200, deadline=None)
    @given(names=st.text("01+-", min_size=1, max_size=4))
    def test_same_as_kronecker_fold(self, names):
        # Amplitude i is the product of each factor's amplitude at its bit of
        # i, the first factor's bit the most significant.
        amps = []
        for i in range(2 ** len(names)):
            value = ONE
            for k, name in enumerate(names):
                value = value * NAMED[name][(i >> (len(names) - 1 - k)) & 1]
            amps.append(value)
        state = ket_product(names)
        assert state.amplitudes == tuple(amps)
        assert state.dim == 2 ** len(names)
        assert state.norm_squared() == ONE

    @settings(max_examples=200, deadline=None)
    @given(
        names=st.text("01+-", max_size=3),
        position=st.integers(0, 3),
        letter=st.sampled_from(["x", "2", " ", "\u0661"]),
    )
    def test_unknown_letter_anywhere(self, names, position, letter):
        position = min(position, len(names))
        names = names[:position] + letter + names[position:]
        expected = f"unknown ket name {letter!r}; expected one of 0, 1, +, -"
        with pytest.raises(ValueError) as info:
            ket_product(names)
        assert str(info.value) == expected

    @pytest.mark.parametrize(
        "make, name, message",
        [
            (ket, "", "unknown ket name ''; expected one of 0, 1, +, -"),
            (ket, "01", "unknown ket name '01'; expected one of 0, 1, +, -"),
            (ket, "x", "unknown ket name 'x'; expected one of 0, 1, +, -"),
            (ket_product, "", "empty ket product"),
            (ket_product, "0x", "unknown ket name 'x'; expected one of 0, 1, +, -"),
        ],
    )
    def test_refusal_texts(self, make, name, message):
        with pytest.raises(ValueError) as info:
            make(name)
        assert str(info.value) == message


class TestOrthonormality:
    def test_xi_basis_is_orthonormal(self):
        assert check_orthonormal(XI_BASIS.outcomes).ok

    def test_duplicate_vector_reported(self):
        verdict = check_orthonormal((ket("0"), ket("0")))
        assert not verdict.ok
        assert (1, 2) in verdict.witnesses

    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.text("01+-", min_size=2, max_size=2), max_size=5))
    def test_witnesses_are_the_distinct_nonorthogonal_pairs(self, names):
        vecs = [ket_product(name) for name in names]
        amps = [v.amplitudes for v in vecs]
        pairs = [
            (i + 1, j + 1, sum((x * y for x, y in zip(amps[i], amps[j])), ZERO))
            for i in range(len(vecs))
            for j in range(len(vecs))
            if i < j
        ]
        verdict = check_orthonormal(vecs)
        assert verdict.witnesses == tuple((i, j) for i, j, ip in pairs if ip != ZERO)
        assert verdict.failures == tuple(
            f"<xi_{i}|xi_{j}> = {ip}, expected 0" for i, j, ip in pairs if ip != ZERO
        )
        assert verdict.ok == (not verdict.witnesses)

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

