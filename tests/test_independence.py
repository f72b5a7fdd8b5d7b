"""Tests for marginals, independence checks, and overlap."""

from fractions import Fraction

import pytest

from onticbench.independence import (
    analyze_independence,
    check_full_independence,
    check_local_independence,
    check_preparation_independence,
    classical_overlap,
    marginalize,
    product_state,
    single_factor_marginals,
)
from onticbench.numerics import HALF, ONE, QSqrt2, QUARTER, ZERO
from onticbench.ontology import EpistemicState, Factor, OnticSpace
from onticbench.scenarios import (
    PREP_ORDER,
    SHARED_FACTOR,
    build_toy_nlhv_model,
    subsystem_states,
)


def q(rat, irr=0):
    return QSqrt2(Fraction(rat), Fraction(irr))


SIXTEENTH = q(Fraction(1, 16))
THREE_SIXTEENTHS = q(Fraction(3, 16))

A = OnticSpace((Factor("a", ("a1", "a2")),))
B = OnticSpace((Factor("b", ("b1", "b2")),))


def state_a(w1, w2):
    return EpistemicState(A, {("a1",): w1, ("a2",): w2})


def state_b(w1, w2):
    return EpistemicState(B, {("b1",): w1, ("b2",): w2})


class TestProductAndMarginals:
    def test_product_weights_multiply(self):
        joint = product_state(state_a(HALF, HALF), state_b(QUARTER, HALF + QUARTER))
        assert joint.weight(("a1", "b2")) == HALF * (HALF + QUARTER)
        assert joint.space.factor_names == ("a", "b")

    def test_product_requires_disjoint_factors(self):
        with pytest.raises(ValueError):
            product_state(state_a(ONE, ZERO), state_a(ONE, ZERO))

    def test_marginalize_inverts_product(self):
        mu = state_a(QUARTER, HALF + QUARTER)
        nu = state_b(HALF, HALF)
        joint = product_state(mu, nu)
        assert marginalize(joint, ("a",)) == mu
        assert marginalize(joint, ("b",)) == nu

    def test_marginalize_sums_weights(self):
        space = OnticSpace((Factor("a", ("a1", "a2")), Factor("b", ("b1", "b2"))))
        joint = EpistemicState(
            space, {("a1", "b1"): HALF, ("a1", "b2"): QUARTER, ("a2", "b1"): QUARTER}
        )
        assert marginalize(joint, ("a",)).weight(("a1",)) == HALF + QUARTER

    def test_marginalize_keeps_space_order(self):
        space = OnticSpace(
            (Factor("a", ("a1", "a2")), Factor("b", ("b1",)), Factor("c", ("c1", "c2")))
        )
        weights = {("a1", "c2"): HALF, ("a2", "c1"): QUARTER, ("a2", "c2"): QUARTER}
        joint = EpistemicState(space, {(a, "b1", c): w for (a, c), w in weights.items()})
        reduced = marginalize(joint, ("c", "a"))
        assert reduced.space.factor_names == ("a", "c")
        assert reduced.weights == weights

    def test_marginalize_unknown_factor(self):
        with pytest.raises(ValueError):
            marginalize(state_a(ONE, ZERO), ("c",))


class TestPreparationIndependence:
    def test_product_passes(self):
        mu = state_a(HALF, HALF)
        nu = state_b(QUARTER, HALF + QUARTER)
        assert check_preparation_independence(product_state(mu, nu), mu, nu).ok

    def test_correlated_fails_with_first_counterexample(self):
        space = OnticSpace((Factor("a", ("a1", "a2")), Factor("b", ("b1", "b2"))))
        joint = EpistemicState(space, {("a1", "b1"): HALF, ("a2", "b2"): HALF})
        mu = marginalize(joint, ("a",))
        nu = marginalize(joint, ("b",))
        verdict = check_preparation_independence(joint, mu, nu)
        assert not verdict.ok
        point, joint_w, product_w = verdict.witnesses[0]
        assert point == ("a1", "b1")
        assert (joint_w, product_w) == (HALF, QUARTER)

    def test_factor_order_enforced(self):
        mu = state_a(ONE, ZERO)
        nu = state_b(ONE, ZERO)
        joint = product_state(mu, nu)
        with pytest.raises(ValueError):
            check_preparation_independence(joint, nu, mu)


@pytest.fixture(scope="module")
def preps():
    return build_toy_nlhv_model().preparations


class TestToyModelIndependence:
    """The composite coin states: locally independent, not all fully independent."""

    def test_marginal_identity(self, preps):
        # dropping the shared factor turns each nu_ab into nu_a x nu_b
        subs1 = subsystem_states("lambda1")
        subs2 = subsystem_states("lambda2")
        pairs = {
            "nu00": ("nu0", "nu0"),
            "nu0+": ("nu0", "nu+"),
            "nu+0": ("nu+", "nu0"),
            "nu++": ("nu+", "nu+"),
        }
        for label, (left, right) in pairs.items():
            reduced = marginalize(preps[label], ("lambda1", "lambda2"))
            assert reduced == product_state(subs1[left], subs2[right])

    def test_local_independence_holds_everywhere(self, preps):
        subs1 = subsystem_states("lambda1")
        subs2 = subsystem_states("lambda2")
        pairs = {
            "nu00": ("nu0", "nu0"),
            "nu0+": ("nu0", "nu+"),
            "nu+0": ("nu+", "nu0"),
            "nu++": ("nu+", "nu+"),
        }
        for label, (left, right) in pairs.items():
            verdict = check_local_independence(
                preps[label], subs1[left], subs2[right], (SHARED_FACTOR,)
            )
            assert verdict.ok, label

    def test_full_independence_split(self, preps):
        expected = {"nu00": True, "nu0+": False, "nu+0": False, "nu++": True}
        for label, should_pass in expected.items():
            assert check_full_independence(preps[label]).ok is should_pass, label

    def test_mixed_state_correlation_value(self, preps):
        # at (HH, HH, 2) the joint weight is 1/4 but the marginals multiply to 1/16
        point = ("HH", "HH", "2")
        joint = preps["nu0+"]
        marginals = single_factor_marginals(joint)
        prod = ONE
        for coord, marginal in zip(point, marginals):
            prod = prod * marginal.weight((coord,))
        assert joint.weight(point) == QUARTER
        assert prod == SIXTEENTH
        assert joint.weight(point) != prod

    def test_full_independence_witness_is_first_point(self, preps):
        verdict = check_full_independence(preps["nu0+"])
        point, joint_w, product_w = verdict.witnesses[0]
        assert point == ("HH", "HH", "1")
        assert (joint_w, product_w) == (ZERO, THREE_SIXTEENTHS)

    def test_analyze_report(self, preps):
        report = analyze_independence(preps, (SHARED_FACTOR,))
        for label in PREP_ORDER:
            state = report.states[label]
            # the accessible marginal is a product for every state
            assert state.prep_independent.ok
            assert state.locally_independent.ok
            assert state.fully_independent.ok is (label in ("nu00", "nu++"))
        assert all(v == QUARTER for v in report.overlaps.values())

    def test_analyze_rejects_duplicate_inaccessible(self, preps):
        with pytest.raises(ValueError, match="duplicate"):
            analyze_independence(preps, ("lambda1", "lambda1"))


class TestClassicalOverlap:
    def test_subsystem_overlap(self):
        subs = subsystem_states()
        assert classical_overlap(subs["nu0"], subs["nu+"]) == HALF

    def test_symmetric(self):
        subs = subsystem_states()
        assert classical_overlap(subs["nu+"], subs["nu0"]) == HALF

    def test_self_overlap_is_one(self):
        subs = subsystem_states()
        assert classical_overlap(subs["nu0"], subs["nu0"]) == ONE

    def test_disjoint_supports(self):
        assert classical_overlap(state_a(ONE, ZERO), state_a(ZERO, ONE)) == ZERO

    def test_spaces_must_match(self):
        with pytest.raises(ValueError):
            classical_overlap(state_a(ONE, ZERO), state_b(ONE, ZERO))
