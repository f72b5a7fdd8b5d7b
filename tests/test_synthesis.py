"""Tests for the exact LP: feasibility, certificates, and the violation floor."""

import random
from fractions import Fraction
from itertools import product

import pytest

from onticbench.numerics import HALF, INV_SQRT2, ONE, QSqrt2, QUARTER, SQRT2, ZERO
from onticbench.ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    ResponseFunctions,
    predicted_statistics,
    validate_responses,
)
from onticbench.scenarios import (
    MARGINAL_PREP_ORDER,
    MEASUREMENT_LABEL,
    PREP_ORDER,
    build_toy_nlhv_model,
    forbidden_cells,
    lhv_synthesis_spec,
    toy_synthesis_spec,
)
from onticbench.synthesis import (
    Constraint,
    FeasibilityResult,
    LPProblem,
    SynthesisSpec,
    build_min_violation_lp,
    build_synthesis_lp,
    extract_responses,
    min_violation,
    responses_to_witness,
    solve_feasibility,
    solve_min_violation,
    verify_certificate,
)

SIXTEENTH = QSqrt2(Fraction(1, 16))


def small_space(n_points: int) -> OnticSpace:
    return OnticSpace((Factor("p", tuple(f"p{i}" for i in range(n_points))),))


def point_mass(space: OnticSpace, point) -> EpistemicState:
    return EpistemicState(space, {point: ONE})


class TestLpConstruction:
    def test_toy_dimensions(self):
        lp = build_synthesis_lp(toy_synthesis_spec())
        # 4 outcomes x 32 points; 32 normalization rows + 16 rational target rows
        assert len(lp.variables) == 128
        assert len(lp.constraints) == 48

    def test_lhv_dimensions(self):
        lp = build_synthesis_lp(lhv_synthesis_spec())
        assert len(lp.variables) == 64
        assert len(lp.constraints) == 32

    def test_variable_order_is_outcome_major(self):
        lp = build_synthesis_lp(lhv_synthesis_spec())
        assert lp.variables[0] == "x1@(HH,HH)"
        assert lp.variables[16] == "x2@(HH,HH)"

    def test_sqrt2_target_emits_component_row(self):
        space = small_space(1)
        prep = point_mass(space, ("p0",))
        targets = ((INV_SQRT2, ONE - INV_SQRT2),)
        spec = SynthesisSpec(space, (("m", prep),), 2, targets)
        lp = build_synthesis_lp(spec)
        ids = [c.cid for c in lp.constraints]
        assert "born@m#k1:irr" in ids

    def test_row_sum_validation(self):
        space = small_space(1)
        prep = point_mass(space, ("p0",))
        with pytest.raises(ValueError):
            SynthesisSpec(space, (("m", prep),), 2, ((HALF, HALF + QUARTER),))


@pytest.fixture(scope="module")
def lhv_solved():
    lp = build_synthesis_lp(lhv_synthesis_spec())
    return lp, solve_feasibility(lp)


@pytest.fixture(scope="module")
def toy_solved():
    spec = toy_synthesis_spec()
    lp = build_synthesis_lp(spec)
    return spec, lp, solve_feasibility(lp)


class TestLocalObstruction:
    @pytest.fixture
    def solved(self, lhv_solved):
        return lhv_solved

    def test_infeasible(self, solved):
        _, result = solved
        assert not result.feasible
        assert result.certificate is not None

    def test_certificate_verifies(self, solved):
        lp, result = solved
        assert verify_certificate(lp, result).ok

    def test_negated_certificate_rejected(self, solved):
        # negation flips the combined right-hand side below zero
        lp, result = solved
        cert = {cid: -m for cid, m in result.certificate.items()}
        verdict = verify_certificate(lp, FeasibilityResult(False, certificate=cert))
        assert not verdict.ok

    def test_zeroed_certificate_rejected(self, solved):
        lp, result = solved
        cert = {cid: Fraction(0) for cid in result.certificate}
        verdict = verify_certificate(lp, FeasibilityResult(False, certificate=cert))
        assert not verdict.ok

    def test_unknown_constraint_named(self, solved):
        lp, result = solved
        cert = dict(result.certificate)
        cert["born@ghost#k1"] = Fraction(1)
        verdict = verify_certificate(lp, FeasibilityResult(False, certificate=cert))
        assert not verdict.ok
        assert any("ghost" in f for f in verdict.failures)

    def test_violation_floor(self):
        assert min_violation(lhv_synthesis_spec(), forbidden_cells(MARGINAL_PREP_ORDER)) == SIXTEENTH

    def test_prep_permutation_does_not_change_verdict(self):
        # row order is presentation; the cells keep their labels
        spec = lhv_synthesis_spec()
        shuffled = SynthesisSpec(
            spec.space,
            tuple(reversed(spec.preparations)),
            spec.outcome_count,
            tuple(reversed(spec.targets)),
        )
        result = solve_feasibility(build_synthesis_lp(shuffled))
        assert not result.feasible
        assert min_violation(shuffled, forbidden_cells(MARGINAL_PREP_ORDER)) == SIXTEENTH


class TestRelationalWitness:
    @pytest.fixture
    def solved(self, toy_solved):
        return toy_solved

    def test_feasible(self, solved):
        _, _, result = solved
        assert result.feasible
        assert result.witness is not None

    def test_witness_verifies(self, solved):
        _, lp, result = solved
        assert verify_certificate(lp, result).ok

    def test_witness_is_a_valid_response_family(self, solved):
        spec, _, result = solved
        responses = extract_responses(spec, result.witness)
        assert validate_responses(responses).ok

    def test_witness_reproduces_targets(self, solved):
        spec, _, result = solved
        responses = extract_responses(spec, result.witness)
        model = build_toy_nlhv_model()
        patched = type(model)(model.space, model.preparations, {"W": responses})
        for (label, _), row in zip(spec.preparations, spec.targets):
            assert predicted_statistics(patched, label, "W") == list(row)

    def test_corrupted_witness_rejected_by_name(self, solved):
        spec, lp, result = solved
        witness = list(result.witness)
        witness[0] = witness[0] + Fraction(1, 7)
        verdict = verify_certificate(lp, FeasibilityResult(True, witness=tuple(witness)))
        assert not verdict.ok
        # the violated normalization row is named
        assert any("norm@(HH,HH,1)" in f for f in verdict.failures)

    def test_published_tables_are_a_witness(self, solved):
        spec, lp, _ = solved
        model = build_toy_nlhv_model()
        flat = responses_to_witness(spec, model.measurements[MEASUREMENT_LABEL])
        verdict = verify_certificate(lp, FeasibilityResult(True, witness=flat))
        assert verdict.ok

    def test_violation_floor_is_zero(self):
        assert min_violation(toy_synthesis_spec(), forbidden_cells(PREP_ORDER)) == ZERO


class TestIrrationalHandling:
    def test_unreachable_irrational_target_is_infeasible(self):
        # rational variables cannot produce a sqrt2 component from nothing
        space = small_space(1)
        prep = point_mass(space, ("p0",))
        spec = SynthesisSpec(space, (("m", prep),), 2, ((INV_SQRT2, ONE - INV_SQRT2),))
        lp = build_synthesis_lp(spec)
        result = solve_feasibility(lp)
        assert not result.feasible
        assert verify_certificate(lp, result).ok

    def test_sqrt2_weights_can_meet_sqrt2_targets(self):
        space = small_space(2)
        prep = EpistemicState(
            space, {("p0",): SQRT2 - ONE, ("p1",): QSqrt2(2) - SQRT2}
        )
        # deterministic split: outcome 1 on p0, outcome 2 on p1
        targets = ((SQRT2 - ONE, QSqrt2(2) - SQRT2),)
        spec = SynthesisSpec(space, (("m", prep),), 2, targets)
        result = solve_feasibility(build_synthesis_lp(spec))
        assert result.feasible

    def test_inequality_rows_require_rational_weights(self):
        space = small_space(2)
        prep = EpistemicState(
            space, {("p0",): SQRT2 - ONE, ("p1",): QSqrt2(2) - SQRT2}
        )
        spec = SynthesisSpec(space, (("m", prep),), 2, ((ZERO, ONE),))
        with pytest.raises(ValueError, match="rational"):
            build_min_violation_lp(spec, (("m", 1),))

    def test_forbidden_cell_must_have_zero_target(self):
        space = small_space(1)
        prep = point_mass(space, ("p0",))
        spec = SynthesisSpec(space, (("m", prep),), 2, ((HALF, HALF),))
        with pytest.raises(ValueError, match="nonzero target"):
            build_min_violation_lp(spec, (("m", 1),))


class TestMinViolationEdges:
    def test_no_forbidden_cells(self):
        result = solve_min_violation(toy_synthesis_spec(), ())
        assert result.value == ZERO

    def test_no_forbidden_cells_result_verifies(self):
        result = solve_min_violation(toy_synthesis_spec(), ())
        assert verify_certificate(result.lp, result.raw).ok

    def test_point_mass_conflict_floor(self):
        # two preparations on the same single point demand outcome 1 with
        # probability 0 and 1; the best cap on the zero cell is 1/2
        space = small_space(1)
        prep = point_mass(space, ("p0",))
        spec = SynthesisSpec(
            space,
            (("never", prep), ("always", prep)),
            2,
            ((ZERO, ONE), (ONE, ZERO)),
        )
        floor = min_violation(spec, (("never", 1),))
        assert floor == ZERO  # cap only binds the "never" cell; x1(p0)=0 works

    def test_two_sided_conflict(self):
        space = small_space(1)
        prep = point_mass(space, ("p0",))
        spec = SynthesisSpec(
            space,
            (("a", prep), ("b", prep)),
            2,
            ((ZERO, ONE), (ONE, ZERO)),
        )
        floor = min_violation(spec, (("a", 1), ("b", 2)))
        assert floor == HALF


def brute_force_deterministic_feasible(spec: SynthesisSpec) -> bool:
    """Grid search over every deterministic response family."""
    points = spec.space.points
    for assignment in product(range(spec.outcome_count), repeat=len(points)):
        rows = {
            point: tuple(
                ONE if k == assignment[i] else ZERO
                for k in range(spec.outcome_count)
            )
            for i, point in enumerate(points)
        }
        ok = True
        for (label, prep), target_row in zip(spec.preparations, spec.targets):
            for k in range(1, spec.outcome_count + 1):
                total = ZERO
                for point, weight in prep.weights.items():
                    total = total + weight * rows[point][k - 1]
                if total != target_row[k - 1]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def random_small_spec(rng: random.Random):
    """A random spec whose targets come from a random deterministic family."""
    n_points = rng.randint(2, 8)
    n_outcomes = rng.randint(2, 3)
    n_preps = rng.randint(1, 3)
    space = small_space(n_points)
    assignment = [rng.randrange(n_outcomes) for _ in range(n_points)]
    preps = []
    targets = []
    for i in range(n_preps):
        support = rng.sample(space.points, rng.randint(1, n_points))
        cuts = sorted(rng.randint(1, 12) for _ in range(len(support) - 1))
        weights = []
        prev = 0
        for cut in cuts + [12]:
            weights.append(Fraction(cut - prev, 12))
            prev = cut
        state = EpistemicState(
            space,
            {p: QSqrt2(w) for p, w in zip(support, weights) if w},
        )
        preps.append((f"m{i}", state))
        row = [ZERO] * n_outcomes
        for point, weight in state.weights.items():
            k = assignment[space.point_index(point)]
            row[k] = row[k] + weight
        targets.append(tuple(row))
    return SynthesisSpec(space, tuple(preps), n_outcomes, tuple(targets))


class TestRandomizedRoundTrip:
    def test_deterministic_instances_feasible_and_verified(self):
        rng = random.Random(20260817)
        for _ in range(25):
            spec = random_small_spec(rng)
            lp = build_synthesis_lp(spec)
            result = solve_feasibility(lp)
            assert result.feasible
            assert verify_certificate(lp, result).ok
            responses = extract_responses(spec, result.witness)
            assert validate_responses(responses).ok

    def test_verdict_matches_enumeration_on_point_mass_specs(self):
        # point-mass preparations with 0/1 targets: the LP verdict must agree
        # with exhaustive deterministic search in both directions
        rng = random.Random(997)
        agreements = {True: 0, False: 0}
        for _ in range(40):
            n_points = rng.randint(1, 4)
            n_outcomes = rng.randint(2, 3)
            space = small_space(n_points)
            preps = []
            targets = []
            for i in range(rng.randint(1, 4)):
                point = rng.choice(space.points)
                preps.append((f"m{i}", point_mass(space, point)))
                k = rng.randrange(n_outcomes)
                targets.append(
                    tuple(ONE if j == k else ZERO for j in range(n_outcomes))
                )
            spec = SynthesisSpec(space, tuple(preps), n_outcomes, tuple(targets))
            expected = brute_force_deterministic_feasible(spec)
            lp = build_synthesis_lp(spec)
            result = solve_feasibility(lp)
            assert result.feasible is expected
            assert verify_certificate(lp, result).ok
            agreements[expected] += 1
        # the sample must exercise both verdicts to mean anything
        assert agreements[True] > 0 and agreements[False] > 0


class TestSolverCore:
    def test_rejects_field_coefficients(self):
        # LP rows hold plain rationals; field values must be split upstream
        with pytest.raises(TypeError):
            Constraint("c", (INV_SQRT2,), Fraction(1), "le")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Constraint("c", (Fraction(1),), Fraction(1), "ge")

    def test_tiny_feasible_system(self):
        # x + y = 1 with x, y >= 0
        lp = LPProblem(
            ("x", "y"),
            (Constraint("sum", (Fraction(1), Fraction(1)), Fraction(1), "eq"),),
        )
        result = solve_feasibility(lp)
        assert result.feasible
        assert sum(result.witness) == 1

    def test_no_constraints_gives_the_zero_witness(self):
        lp = LPProblem(("x", "y"), ())
        result = solve_feasibility(lp)
        assert result.feasible
        assert result.witness == (0, 0)

    def test_tiny_infeasible_system(self):
        # x = 2 contradicts x <= 1
        lp = LPProblem(
            ("x",),
            (
                Constraint("fix", (Fraction(1),), Fraction(2), "eq"),
                Constraint("cap", (Fraction(1),), Fraction(1), "le"),
            ),
        )
        result = solve_feasibility(lp)
        assert not result.feasible
        assert verify_certificate(lp, result).ok
