"""Tests for marginals, independence checks, and overlap."""

from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onticbench.independence import (
    analyze_independence,
    check_full_independence,
    check_local_independence,
    classical_overlap,
    marginalize,
    product_state,
)
from onticbench.numerics import HALF, ONE, QSqrt2, QUARTER, ZERO, qsum
from onticbench.ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    OntologicalModel,
    format_point,
)
from onticbench.verdicts import Verdict
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
        assert check_local_independence(product_state(mu, nu), mu, nu).ok

    def test_correlated_fails_with_first_counterexample(self):
        space = OnticSpace((Factor("a", ("a1", "a2")), Factor("b", ("b1", "b2"))))
        joint = EpistemicState(space, {("a1", "b1"): HALF, ("a2", "b2"): HALF})
        mu = marginalize(joint, ("a",))
        nu = marginalize(joint, ("b",))
        verdict = check_local_independence(joint, mu, nu)
        assert not verdict.ok
        point, joint_w, product_w = verdict.witnesses[0]
        assert point == ("a1", "b1")
        assert (joint_w, product_w) == (HALF, QUARTER)

    def test_factor_order_enforced(self):
        mu = state_a(ONE, ZERO)
        nu = state_b(ONE, ZERO)
        joint = product_state(mu, nu)
        with pytest.raises(ValueError):
            check_local_independence(joint, nu, mu)


@pytest.fixture(scope="module")
def model():
    return build_toy_nlhv_model()


@pytest.fixture(scope="module")
def preps(model):
    return model.preparations


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
                marginalize(preps[label], ("lambda1", "lambda2")), subs1[left], subs2[right]
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
        marginals = [marginalize(joint, (name,)) for name in joint.space.factor_names]
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

    def test_analyze_report(self, model):
        report = analyze_independence(model, (SHARED_FACTOR,))
        for label in PREP_ORDER:
            state = report.states[label]
            # the accessible marginal is a product for every state
            assert state.prep_independent.ok
            assert state.locally_independent.ok
            assert state.fully_independent.ok is (label in ("nu00", "nu++"))
        assert all(v == QUARTER for v in report.overlaps.values())

    def test_report_stores_the_local_verdict_once(self, model):
        report = analyze_independence(model, (SHARED_FACTOR,))
        for state in report.states.values():
            assert state.prep_independent is state.locally_independent
        nu0plus = report.states["nu0+"]
        assert nu0plus.witness_points == (("HH", "HH", "1"),)
        assert nu0plus.to_dict()["witness_points"] == ["(HH,HH,1)"]

    def test_nothing_hidden_is_pbr_independence(self, model, preps):
        # PBR's check is the local one with no factor summed out: the shared
        # coin then correlates the two subsystems of nu0+ and nu+0.
        report = analyze_independence(model, ())
        failing = {"nu0+", "nu+0"}
        for label in PREP_ORDER:
            joint = preps[label]
            mu = marginalize(joint, ("lambda1",))
            nu = marginalize(joint, ("lambda2", SHARED_FACTOR))
            for verdict in (report.states[label].locally_independent,
                            check_local_independence(joint, mu, nu)):
                assert verdict.ok is (label not in failing), label
                if label in failing:
                    assert verdict.witnesses[0] == (("HH", "HH", "1"), ZERO, q(Fraction(1, 8)))
                    assert verdict.failures[0] == (
                        "at (HH,HH,1): joint weight 0, product weight 1/8"
                    )

    def test_analyze_rejects_duplicate_inaccessible(self, model):
        with pytest.raises(ValueError, match="duplicate"):
            analyze_independence(model, ("lambda1", "lambda1"))


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


# ---- the two product checks as they were, kept as an oracle -------------------
# Each check wrote its own product closure and handed it to one comparison
# loop over the whole space.  Comparing the joint's weights with one product
# over the supports must give the same verdict, failure text and witness.


def _closure_first_mismatch(joint, product, what):
    for point in joint.space.points:
        joint_w = joint.weight(point)
        product_w = product(point)
        if joint_w != product_w:
            return Verdict(
                False,
                (f"at {format_point(point)}: joint weight {joint_w}, {what} {product_w}",),
                ((point, joint_w, product_w),),
            )
    return Verdict(True)


def _closure_preparation(joint, mu, nu):
    split = len(mu.space.factors)
    return _closure_first_mismatch(
        joint,
        lambda point: mu.weight(point[:split]) * nu.weight(point[split:]),
        "product weight",
    )


def _closure_full(joint):
    marginals = [marginalize(joint, (name,)) for name in joint.space.factor_names]

    def product_w(point):
        value = ONE
        for coord, marginal in zip(point, marginals):
            value = value * marginal.weight((coord,))
        return value

    return _closure_first_mismatch(joint, product_w, "marginal product")


WEIGHTS = st.builds(
    lambda a, b, d: QSqrt2(Fraction(a, d), Fraction(b, 2 * d)),
    st.integers(0, 4),
    st.sampled_from([0, 0, 1, -1]),
    st.sampled_from([1, 2, 4, 8]),
)


def any_state(draw, factors):
    """Drawn weights on ``factors``, normalized unless they sum to zero."""
    space = OnticSpace(tuple(factors))
    weights = {p: draw(WEIGHTS) for p in space.points}
    total = sum(weights.values(), ZERO)
    if total != ZERO:
        weights = {p: w / total for p, w in weights.items()}
    return EpistemicState(space, weights)


@st.composite
def small_joints(draw, max_factors=3):
    """A joint on 2 to ``max_factors`` factors: arbitrary, a product of the
    first factor and the rest, or a product of every factor."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=max_factors))
    factors = [Factor(f"f{i}", tuple(f"v{j}" for j in range(n))) for i, n in enumerate(sizes)]
    kind = draw(st.sampled_from(["any", "split", "product"]))
    if kind == "any":
        return any_state(draw, factors)
    if kind == "split":
        return product_state(any_state(draw, factors[:1]), any_state(draw, factors[1:]))
    return reduce(product_state, [any_state(draw, [f]) for f in factors])


def same_verdict(new, old):
    return (new.ok, new.failures, new.witnesses) == (old.ok, old.failures, old.witnesses)


# f0's marginal weighs a at 1/4 - 1/4 = 0, so the first mismatch, (a,c),
# lies outside the product's support.
CANCELLING = EpistemicState(
    OnticSpace((Factor("f0", ("a", "b")), Factor("f1", ("c", "d")))),
    {("a", "c"): QUARTER, ("a", "d"): -QUARTER, ("b", "c"): HALF, ("b", "d"): HALF},
)
# small_joints draws at least two factors; the full check takes one too.
ONE_FACTOR = EpistemicState(
    OnticSpace((Factor("f0", ("v0", "v1", "v2")),)), {("v0",): QUARTER, ("v2",): HALF + QUARTER}
)


class TestSameAsClosureProducts:
    @settings(max_examples=300, deadline=None)
    @given(joint=small_joints())
    @example(joint=CANCELLING)
    @example(joint=ONE_FACTOR)
    def test_same_verdicts(self, joint):
        names = joint.space.factor_names
        if len(names) > 1:
            mu = marginalize(joint, names[:1])
            nu = marginalize(joint, names[1:])
            assert same_verdict(
                check_local_independence(joint, mu, nu), _closure_preparation(joint, mu, nu)
            )
        assert same_verdict(check_full_independence(joint), _closure_full(joint))


# ---- full independence as it was, kept as an oracle: one marginalize per --------
# factor, each building its subspace and an EpistemicState on it.


def _per_factor_marginal(joint, name):
    space = joint.space.subspace((name,))
    positions = [joint.space.factor_names.index(n) for n in space.factor_names]
    groups = {}
    for point, weight in joint.weights.items():
        groups.setdefault(tuple([point[i] for i in positions]), []).append(weight)
    return EpistemicState(space, {point: qsum(ws) for point, ws in groups.items()})


def _per_factor_full(joint):
    marginals = [_per_factor_marginal(joint, name) for name in joint.space.factor_names]
    weights = marginals[0].weights
    for state in marginals[1:]:
        weights = {p + q: w * v for p, w in weights.items() for q, v in state.weights.items()}
    return _closure_first_mismatch(
        joint, lambda point: weights.get(point, ZERO), "marginal product"
    )


class TestFullSameAsPerFactorMarginals:
    @settings(max_examples=300, deadline=None)
    @given(joint=small_joints(max_factors=4))
    @example(joint=CANCELLING)
    @example(joint=ONE_FACTOR)
    def test_same_verdict(self, joint):
        assert same_verdict(check_full_independence(joint), _per_factor_full(joint))
        for name in joint.space.factor_names:
            assert marginalize(joint, (name,)) == _per_factor_marginal(joint, name)


# ---- overlap as it was, kept as an oracle: a walk over mu's support ------------


def _support_walk_overlap(mu, nu):
    total = ZERO
    for point in mu.support():
        other = nu.weights.get(point)
        if other is not None:
            total = total + min(mu.weights[point], other)
    return total


@st.composite
def state_pairs(draw):
    """Two states on one space of 1-2 factors; weights may be negative or zero."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    space = OnticSpace(
        tuple(Factor(f"f{i}", tuple(f"v{j}" for j in range(n))) for i, n in enumerate(sizes))
    )
    signed = st.builds(lambda w, negate: -w if negate else w, WEIGHTS, st.booleans())
    return tuple(EpistemicState(space, {p: draw(signed) for p in space.points}) for _ in "mn")


class TestOverlapSameAsSupportWalk:
    @settings(max_examples=300, deadline=None)
    @given(pair=state_pairs())
    def test_same_overlap(self, pair):
        mu, nu = pair
        assert classical_overlap(mu, nu) == _support_walk_overlap(mu, nu)
        assert classical_overlap(nu, mu) == _support_walk_overlap(nu, mu)


# ---- the local check as it was, kept as an oracle: the accessible marginal ----
# split into two marginalize'd states, each on a fresh subspace.


def _marginalized_local(joint, hidden):
    accessible = [n for n in joint.space.factor_names if n not in hidden]
    local = marginalize(joint, accessible) if hidden else joint
    mu = marginalize(local, accessible[:1])
    nu = marginalize(local, accessible[1:])
    return check_local_independence(local, mu, nu)


class TestLocalSameAsMarginalizedStates:
    @settings(max_examples=200, deadline=None)
    @given(joint=small_joints(max_factors=4))
    @example(joint=CANCELLING)
    def test_same_verdict(self, joint):
        names = joint.space.factor_names
        model = OntologicalModel(joint.space, {"p": joint}, {})
        for k in range(len(names) - 1):
            for hidden in combinations(names, k):
                local = analyze_independence(model, hidden).states["p"].locally_independent
                assert same_verdict(local, _marginalized_local(joint, hidden))
