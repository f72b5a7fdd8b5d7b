"""Tests for the exact LP: feasibility, certificates, and the violation floor."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Dict, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onticbench.numerics import HALF, INV_SQRT2, ONE, QSqrt2, QUARTER, SQRT2, ZERO
from onticbench.ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    ResponseFunctions,
    format_point,
    predicted_statistics,
    validate_responses,
)
from onticbench.scenarios import (
    MARGINAL_PREP_ORDER,
    MEASUREMENT_LABEL,
    PREP_ORDER,
    build_pbr_quantum_scenario,
    build_toy_nlhv_model,
    forbidden_cells,
    lhv_synthesis_spec,
    pbr_synthesis_spec,
)
from onticbench.synthesis import (
    Constraint,
    FeasibilityResult,
    LPProblem,
    SynthesisSpec,
    build_min_violation_lp,
    build_synthesis_lp,
    extract_responses,
    responses_to_witness,
    solve_feasibility,
    solve_min_violation,
    verify_certificate,
)
from onticbench.verdicts import Verdict

SIXTEENTH = QSqrt2(Fraction(1, 16))


def toy_spec():
    """toy-nlhv's four preparations, in Born-row order, against the Born table."""
    return pbr_synthesis_spec(
        build_toy_nlhv_model(), PREP_ORDER, build_pbr_quantum_scenario().born_table
    )


def small_space(n_points: int) -> OnticSpace:
    return OnticSpace((Factor("p", tuple(f"p{i}" for i in range(n_points))),))


def point_mass(space: OnticSpace, point) -> EpistemicState:
    return EpistemicState(space, {point: ONE})


class TestLpConstruction:
    def test_toy_dimensions(self):
        lp = build_synthesis_lp(toy_spec())
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

    def test_float_outcome_count_refused(self):
        # int() would truncate 2.9 to 2; an outcome count must be an integer.
        space = small_space(1)
        prep = point_mass(space, ("p0",))
        with pytest.raises(TypeError):
            SynthesisSpec(space, (("m", prep),), 2.9, ((HALF, HALF),))

    @pytest.mark.parametrize(
        "preps, outcomes, targets, message",
        [
            ((("m", "p0"),), 2, ((HALF, HALF + QUARTER),), "sums to 5/4, not 1"),
            ((("m", "p0"), ("m", "p1")), 2, ((ONE, ZERO),) * 2, "duplicate preparation labels"),
            ((("m", "p0"),), 2, ((HALF, QUARTER, QUARTER),), "has wrong length"),
            ((("m", "p0"), ("n", "p1")), 2, ((ONE, ZERO),), "one target row per preparation"),
            ((("m", "p0"),), 0, ((),), "at least one outcome"),
            ((("m", "other"),), 2, ((ONE, ZERO),), "lives on a different space"),
        ],
        ids=["row-sum", "duplicate-labels", "row-length", "row-count", "no-outcomes",
             "other-space"],
    )
    def test_spec_rejects(self, preps, outcomes, targets, message):
        space = small_space(2)
        states = {
            "p0": point_mass(space, ("p0",)),
            "p1": point_mass(space, ("p1",)),
            "other": point_mass(small_space(1), ("p0",)),
        }
        with pytest.raises(ValueError, match=message):
            SynthesisSpec(space, tuple((l, states[s]) for l, s in preps), outcomes, targets)


def _padded(spec: SynthesisSpec) -> SynthesisSpec:
    """``spec`` times a uniform two-value factor: every weight halved onto two points."""
    space = OnticSpace(spec.space.factors + (Factor("pad", ("e0", "e1")),))
    half = QSqrt2(Fraction(1, 2))
    preps = tuple(
        (
            label,
            EpistemicState(
                space, {p + (e,): w * half for p, w in st.weights.items() for e in ("e0", "e1")}
            ),
        )
        for label, st in spec.preparations
    )
    return SynthesisSpec(space, preps, spec.outcome_count, spec.targets)


def _sqrt2_shifted(spec: SynthesisSpec) -> SynthesisSpec:
    """``spec`` with sqrt2/128 of the first preparation's weight moved between two points."""
    (label, state), rest = spec.preparations[0], spec.preparations[1:]
    weights = dict(state.weights)
    source, sink = state.support()[:2]
    moved = QSqrt2(0, Fraction(1, 128))
    weights[source] -= moved
    weights[sink] += moved
    preps = ((label, EpistemicState(spec.space, weights)),) + rest
    return SynthesisSpec(spec.space, preps, spec.outcome_count, spec.targets)


def _sqrt2_weights() -> SynthesisSpec:
    """Two points weighted 1 - 1/sqrt2 and 1/sqrt2, so one weight has no rational part."""
    space = small_space(2)
    prep = EpistemicState(space, {("p0",): ONE - INV_SQRT2, ("p1",): INV_SQRT2})
    return SynthesisSpec(space, (("m", prep),), 2, ((INV_SQRT2, ONE - INV_SQRT2),))


def _dense(con: Constraint, width: int) -> list:
    row = [Fraction(0)] * width
    for j, v in con.coeffs:
        row[j] = v
    return row


def _dense_norm_rows(spec: SynthesisSpec, width: int) -> list:
    size = spec.space.size
    rows = []
    for p_idx, point in enumerate(spec.space.points):
        row = [Fraction(0)] * width
        for k in range(spec.outcome_count):
            row[k * size + p_idx] = Fraction(1)
        rows.append((f"norm@{format_point(point)}", row, Fraction(1), "eq"))
    return rows


def _expected_synthesis_rows(spec: SynthesisSpec) -> list:
    """Every row straight from the weights and targets, dense; 0 = 0 rows left out."""
    n, size = spec.variable_count, spec.space.size
    rows = _dense_norm_rows(spec, n)
    for (label, prep), target_row in zip(spec.preparations, spec.targets):
        for k in range(1, spec.outcome_count + 1):
            for part, suffix in (("rat", ""), ("irr", ":irr")):
                row = [Fraction(0)] * n
                for p_idx, point in enumerate(spec.space.points):
                    row[(k - 1) * size + p_idx] = getattr(prep.weight(point), part)
                target = getattr(target_row[k - 1], part)
                if any(row) or target:
                    rows.append((f"born@{label}#k{k}{suffix}", row, target, "eq"))
    return rows


def _expected_min_violation_rows(spec: SynthesisSpec, forbidden) -> list:
    n, size = spec.variable_count, spec.space.size
    rows = _dense_norm_rows(spec, n + 1)
    for label, k in forbidden:
        prep = spec.preparations[spec.prep_index(label)][1]
        row = [Fraction(0)] * (n + 1)
        for p_idx, point in enumerate(spec.space.points):
            row[(k - 1) * size + p_idx] = prep.weight(point).rat
        row[n] = Fraction(-1)
        rows.append((f"cap@{label}#k{k}", row, Fraction(0), "le"))
    return rows


def _assert_rows(lp: LPProblem, expected: list) -> None:
    width = len(lp.variables)
    for con in lp.constraints:
        indices = [j for j, _ in con.coeffs]
        assert indices == sorted(set(indices))
        assert all(type(pair) is tuple and len(pair) == 2 and pair[1] for pair in con.coeffs)
    got = [(con.cid, _dense(con, width), con.rhs, con.kind) for con in lp.constraints]
    assert [row[0] for row in got] == [row[0] for row in expected]
    assert got == expected


_BUILD_CASES = {
    "toy-nlhv": toy_spec,
    "pbr-lhv": lhv_synthesis_spec,
    "padded": lambda: _padded(lhv_synthesis_spec()),
    "sqrt2-shifted": lambda: _sqrt2_shifted(toy_spec()),
    "sqrt2-weights": _sqrt2_weights,
}


class TestSparseRowsMatchDenseBuild:
    @pytest.mark.parametrize("case", sorted(_BUILD_CASES))
    def test_synthesis_lp(self, case):
        spec = _BUILD_CASES[case]()
        lp = build_synthesis_lp(spec)
        outcomes = range(1, spec.outcome_count + 1)
        assert lp.variables == tuple(
            f"x{k}@{format_point(p)}" for k in outcomes for p in spec.space.points
        )
        assert lp.objective is None
        _assert_rows(lp, _expected_synthesis_rows(spec))

    @pytest.mark.parametrize("case", ["toy-nlhv", "pbr-lhv", "padded"])
    def test_min_violation_lp(self, case):
        spec = _BUILD_CASES[case]()
        forbidden = forbidden_cells(tuple(label for label, _ in spec.preparations))
        lp = build_min_violation_lp(spec, forbidden)
        assert lp.variables == build_synthesis_lp(spec).variables + ("t",)
        assert lp.objective == (0,) * spec.variable_count + (1,)
        _assert_rows(lp, _expected_min_violation_rows(spec, forbidden))


@pytest.fixture(scope="module")
def lhv_solved():
    lp = build_synthesis_lp(lhv_synthesis_spec())
    return lp, solve_feasibility(lp)


@pytest.fixture(scope="module")
def toy_solved():
    spec = toy_spec()
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
        assert solve_min_violation(lhv_synthesis_spec(), forbidden_cells(MARGINAL_PREP_ORDER)).value == SIXTEENTH

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
        assert solve_min_violation(shuffled, forbidden_cells(MARGINAL_PREP_ORDER)).value == SIXTEENTH


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
        assert solve_min_violation(toy_spec(), forbidden_cells(PREP_ORDER)).value == ZERO


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
        result = solve_min_violation(toy_spec(), ())
        assert result.value == ZERO

    def test_no_forbidden_cells_result_verifies(self):
        result = solve_min_violation(toy_spec(), ())
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
        floor = solve_min_violation(spec, (("never", 1),)).value
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
        floor = solve_min_violation(spec, (("a", 1), ("b", 2))).value
        assert floor == HALF


@pytest.fixture(scope="module")
def lhv_floor():
    return solve_min_violation(lhv_synthesis_spec(), forbidden_cells(MARGINAL_PREP_ORDER))


class TestReportedObjectiveValue:
    """A feasible result's objective_value must be the witness's objective."""

    def test_solved_value_verifies(self, lhv_floor):
        assert lhv_floor.raw.objective_value == Fraction(1, 16)
        assert verify_certificate(lhv_floor.lp, lhv_floor.raw).ok

    def test_feasibility_minimizes_an_lp_with_an_objective(self, lhv_floor):
        lp = build_min_violation_lp(lhv_synthesis_spec(), forbidden_cells(MARGINAL_PREP_ORDER))
        result = solve_feasibility(lp)
        assert result.objective_value == Fraction(1, 16)
        assert verify_certificate(lp, result).ok
        assert result == lhv_floor.raw

    @pytest.mark.parametrize("claimed", [Fraction(1, 2), 0, Fraction(1, 15)])
    def test_wrong_value_rejected(self, lhv_floor, claimed):
        result = FeasibilityResult(True, witness=lhv_floor.raw.witness, objective_value=claimed)
        failure = f"objective value {claimed} is not the witness's 1/16"
        assert verify_certificate(lhv_floor.lp, result) == Verdict(False, (failure,))

    def test_value_without_objective_rejected(self, lhv_floor):
        lp = LPProblem(lhv_floor.lp.variables, lhv_floor.lp.constraints)
        failure = "objective value 1/16 given for an LP without an objective"
        assert verify_certificate(lp, lhv_floor.raw) == Verdict(False, (failure,))

    def test_inexact_value_named(self, lhv_floor):
        result = FeasibilityResult(True, witness=lhv_floor.raw.witness, objective_value=0.0625)
        failure = "objective value is not an int or Fraction: float 0.0625"
        assert verify_certificate(lhv_floor.lp, result) == Verdict(False, (failure,))

    def test_value_in_dict(self, lhv_floor, toy_solved):
        doc = lhv_floor.raw.to_dict()
        assert (doc["feasible"], doc["objective_value"]) == (True, "1/16")
        # A feasibility LP has no objective, so its result's dict has no value.
        assert "objective_value" not in toy_solved[2].to_dict()

    def test_no_value_checked_as_before(self, lhv_floor):
        result = FeasibilityResult(True, witness=lhv_floor.raw.witness)
        assert verify_certificate(lhv_floor.lp, result).ok
        assert verify_certificate(LPProblem(lhv_floor.lp.variables, lhv_floor.lp.constraints), result).ok


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
            Constraint("c", ((0, INV_SQRT2),), Fraction(1), "le")

    def test_rejects_float_coefficient(self):
        # Fraction(0.1) would be the binary double 3602879701896397/2**55
        with pytest.raises(TypeError, match="float"):
            Constraint("c", ((0, 0.1), (1, 1)), Fraction(3, 10), "eq")

    def test_rejects_float_rhs(self):
        with pytest.raises(TypeError, match="float"):
            Constraint("c", ((0, Fraction(1)),), 0.3, "eq")

    def test_rejects_float_objective(self):
        with pytest.raises(TypeError, match="float"):
            LPProblem(("x",), (), objective=(0.5,))

    def test_rejects_str_coefficient(self):
        # Fraction("1/3") would parse it; LP data takes only int and Fraction
        with pytest.raises(TypeError, match="str"):
            Constraint("c", ((0, "1/3"),), Fraction(1), "eq")

    def test_rejects_str_rhs(self):
        with pytest.raises(TypeError, match="str"):
            Constraint("c", ((0, Fraction(1)),), "1/3", "eq")

    def test_rejects_decimal_coefficient(self):
        with pytest.raises(TypeError, match="Decimal"):
            Constraint("c", ((0, Decimal("0.1")),), Fraction(1), "eq")

    def test_rejects_decimal_objective(self):
        with pytest.raises(TypeError, match="Decimal"):
            LPProblem(("x",), (), objective=(Decimal("0.5"),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Constraint("c", ((0, Fraction(1)),), Fraction(1), "ge")

    @pytest.mark.parametrize(
        "coeffs",
        [
            ((2, Fraction(1)),),
            ((-1, Fraction(1)),),
            ((0, Fraction(1)), (0, Fraction(2))),
            ((1, Fraction(1)), (0, Fraction(1))),
        ],
        ids=["index-past-the-end", "negative-index", "repeated-index", "unsorted"],
    )
    def test_bad_indices_rejected(self, coeffs):
        with pytest.raises(ValueError):
            LPProblem(("x", "y"), (Constraint("c", coeffs, Fraction(1), "eq"),))

    def test_non_integer_index_rejected(self):
        with pytest.raises(TypeError):
            Constraint("c", ((0.0, Fraction(1)),), Fraction(1), "eq")

    def test_zero_coefficient_dropped(self):
        con = Constraint("c", ((0, 0), (1, Fraction(2)), (3, Fraction(0))), 1, "eq")
        assert con.coeffs == ((1, Fraction(2)),)
        assert all(type(pair) is tuple for pair in con.coeffs)
        assert type(con.coeffs[0][1]) is Fraction

    def test_tiny_feasible_system(self):
        # x + y = 1 with x, y >= 0
        lp = LPProblem(
            ("x", "y"),
            (Constraint("sum", ((0, Fraction(1)), (1, Fraction(1))), Fraction(1), "eq"),),
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
                Constraint("fix", ((0, Fraction(1)),), Fraction(2), "eq"),
                Constraint("cap", ((0, Fraction(1)),), Fraction(1), "le"),
            ),
        )
        result = solve_feasibility(lp)
        assert not result.feasible
        assert verify_certificate(lp, result).ok


class TestIntegerRows:
    @staticmethod
    def _check(lp: LPProblem) -> None:
        for con in lp.constraints:
            assert type(con.den) is int and con.den > 0
            assert con.den == lcm(con.rhs.denominator, *(v.denominator for _, v in con.coeffs))
            assert len(con.nums) == len(con.coeffs)
            for (_, v), a in zip(con.coeffs, con.nums):
                assert type(a) is int and Fraction(a, con.den) == v
            assert type(con.rhs_num) is int and Fraction(con.rhs_num, con.den) == con.rhs

    @pytest.mark.parametrize("case", sorted(_BUILD_CASES))
    def test_synthesis_lp_rows(self, case):
        self._check(build_synthesis_lp(_BUILD_CASES[case]()))

    @pytest.mark.parametrize("case", ["toy-nlhv", "pbr-lhv", "padded"])
    def test_min_violation_lp_rows(self, case):
        spec = _BUILD_CASES[case]()
        forbidden = forbidden_cells(tuple(label for label, _ in spec.preparations))
        self._check(build_min_violation_lp(spec, forbidden))

    def test_equal_data_gives_equal_constraints(self):
        a = Constraint("c", ((0, Fraction(2, 4)), (1, 3), (2, 0)), Fraction(1, 6), "le")
        b = Constraint("c", ((0, Fraction(1, 2)), (1, Fraction(3))), Fraction(2, 12), "le")
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert (a.den, a.nums, a.rhs_num) == (6, (3, 18), 1)
        assert "nums" not in repr(a)


# ---- oracle: the Fraction verifier ------------------------------------------------


def _oracle_verify(lp: LPProblem, result: FeasibilityResult) -> Verdict:
    """verify_certificate as it was before rows carried an integer form.

    One Fraction multiply and add per nonzero, straight from ``coeffs`` and
    ``rhs``.  It takes exact values only; the integer verifier must return
    the same Verdict, failure messages included.
    """
    failures: List[str] = []
    if result.feasible:
        x = result.witness
        if x is None:
            return Verdict(False, ("feasible result carries no witness",))
        if len(x) != len(lp.variables):
            return Verdict(False, (f"witness has {len(x)} values, expected {len(lp.variables)}",))
        support = {j: value for j, value in enumerate(x) if value}
        for j, value in support.items():
            if value < 0:
                failures.append(f"variable {lp.variables[j]} is negative: {value}")
        for con in lp.constraints:
            lhs = Fraction(0)
            for j, coeff in con.coeffs:
                value = support.get(j)
                if value is not None:
                    lhs += coeff * value
            if con.kind == "eq" and lhs != con.rhs:
                failures.append(f"constraint {con.cid} violated: lhs {lhs}, rhs {con.rhs}")
            elif con.kind == "le" and lhs > con.rhs:
                failures.append(f"constraint {con.cid} violated: lhs {lhs} > rhs {con.rhs}")
        return Verdict(not failures, tuple(failures))

    cert = result.certificate
    if cert is None:
        return Verdict(False, ("infeasible result carries no certificate",))
    by_cid = {con.cid: con for con in lp.constraints}
    unknown = sorted(set(cert) - set(by_cid))
    if unknown:
        return Verdict(False, (f"certificate references unknown constraints: {unknown}",))
    combo: Dict[int, Fraction] = {}
    total = Fraction(0)
    for cid, mult in cert.items():
        con = by_cid[cid]
        if con.kind == "le" and mult > 0:
            failures.append(f"multiplier for '<=' row {cid} must be <= 0, got {mult}")
        if mult:
            for j, coeff in con.coeffs:
                combo[j] = combo.get(j, Fraction(0)) + mult * coeff
            total += mult * con.rhs
    for j in sorted(combo):
        value = combo[j]
        if value > 0:
            failures.append(
                f"combined coefficient of {lp.variables[j]} is {value}, not <= 0"
            )
    if total <= 0:
        failures.append(f"combined right-hand side is {total}, not > 0")
    return Verdict(not failures, tuple(failures))


_SUM_LP = LPProblem(
    ("x0", "x1"),
    (Constraint("sum", ((0, Fraction(1)), (1, Fraction(1))), Fraction(1), "eq"),),
)


class TestVerifierRefusesInexactValues:
    @pytest.mark.parametrize(
        "result, failures",
        [
            (
                FeasibilityResult(True, witness=(0.1, 0.9)),
                (
                    "variable x0 is not an int or Fraction: float 0.1",
                    "variable x1 is not an int or Fraction: float 0.9",
                ),
            ),
            (
                FeasibilityResult(True, witness=(Fraction(1, 2), "1/2")),
                ("variable x1 is not an int or Fraction: str '1/2'",),
            ),
            (
                FeasibilityResult(False, certificate={"sum": 0.5}),
                ("multiplier for sum is not an int or Fraction: float 0.5",),
            ),
            (
                FeasibilityResult(False, certificate={"sum": "1"}),
                ("multiplier for sum is not an int or Fraction: str '1'",),
            ),
        ],
        ids=["float-witness", "str-witness", "float-multiplier", "str-multiplier"],
    )
    def test_named_failure(self, result, failures):
        assert verify_certificate(_SUM_LP, result) == Verdict(False, failures)


_value = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_nonzero = _value.filter(bool)


def _maybe_int(value: Fraction, ints: bool):
    """``value`` as an int when ``ints`` is set and it is whole: ints are exact too."""
    return int(value) if ints and value.denominator == 1 else value


@st.composite
def verify_cases(draw):
    """A small sparse LP and a witness or certificate to check against it.

    Rows are eq or le.  Some take their rhs at a planted nonnegative point
    (a '<=' row with some slack), so the planted witness meets them; the
    others draw a free rhs, negative ones included.  Witnesses are the
    planted point, the point perturbed at one entry, all zeros, or one value
    short or long; certificates are drawn multipliers (a positive one on a
    '<=' row included), the same plus an unknown cid, or all zeros.
    """
    n = draw(st.integers(1, 5))
    point = draw(
        st.lists(st.fractions(min_value=0, max_value=2, max_denominator=4), min_size=n, max_size=n)
    )
    constraints = []
    for i in range(draw(st.integers(0, 4))):
        cols = sorted(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
        coeffs = tuple((j, draw(_nonzero)) for j in cols)
        kind = draw(st.sampled_from(("eq", "le")))
        if draw(st.booleans()):
            rhs = sum((v * point[j] for j, v in coeffs), Fraction(0))
            if kind == "le":
                rhs += draw(st.fractions(min_value=0, max_value=1, max_denominator=3))
        else:
            rhs = draw(_value)
        constraints.append(Constraint(f"r{i}", coeffs, rhs, kind))
    lp = LPProblem(tuple(f"x{j}" for j in range(n)), tuple(constraints))
    cids = [con.cid for con in constraints]
    shape = draw(
        st.sampled_from(
            ("planted", "perturbed", "zero", "short", "long", "multipliers", "unknown", "zeros")
        )
    )
    if shape == "perturbed":
        point[draw(st.integers(0, n - 1))] += draw(_nonzero)
    ints = draw(st.booleans())
    point = [_maybe_int(v, ints) for v in point]
    witness = {
        "planted": point,
        "perturbed": point,
        "zero": [0] * n,
        "short": point[:-1],
        "long": point + [Fraction(0)],
    }.get(shape)
    if witness is not None:
        return lp, FeasibilityResult(True, witness=tuple(witness))
    if shape == "zeros":
        certificate = {cid: Fraction(0) for cid in cids}
    else:
        chosen = draw(st.lists(st.sampled_from(cids), unique=True)) if cids else []
        certificate = {cid: _maybe_int(draw(_value), ints) for cid in chosen}
        if shape == "unknown":
            certificate["ghost"] = draw(_nonzero)
    return lp, FeasibilityResult(False, certificate=certificate)


_FIX_CAP_LP = LPProblem(
    ("x",),
    (
        Constraint("fix", ((0, Fraction(1)),), Fraction(2), "eq"),
        Constraint("cap", ((0, Fraction(1)),), Fraction(1), "le"),
    ),
)
_NEGATIVE_RHS_LP = LPProblem(
    ("x0", "x1"),
    (Constraint("neg", ((0, Fraction(-1)), (1, Fraction(-2, 3))), Fraction(-1, 2), "eq"),),
)


def _fix_cap(cap):
    """x = 2 against x <= 1; multipliers (1, cap) refute it for -2 < cap <= -1."""
    return _FIX_CAP_LP, FeasibilityResult(False, certificate={"fix": Fraction(1), "cap": cap})


def _negative_rhs(*witness):
    return _NEGATIVE_RHS_LP, FeasibilityResult(True, witness=witness)


@settings(max_examples=400, deadline=None)
@given(verify_cases())
@example(_fix_cap(Fraction(-1)))
@example(_fix_cap(Fraction(1, 3)))
@example(_negative_rhs(Fraction(1, 4), Fraction(3, 8)))
@example(_negative_rhs(Fraction(-1, 4), 0))
def test_same_verdict_as_the_fraction_verifier(case):
    lp, result = case
    assert verify_certificate(lp, result) == _oracle_verify(lp, result)


@pytest.mark.parametrize("case", sorted(_BUILD_CASES))
def test_same_verdict_on_solved_lps(case):
    # Real witnesses and certificates, with large rows and denominators, and
    # each one bent so that it fails.
    spec = _BUILD_CASES[case]()
    lp = build_synthesis_lp(spec)
    solved = [(lp, solve_feasibility(lp))]
    if case in ("toy-nlhv", "pbr-lhv", "padded"):
        floor = solve_min_violation(spec, forbidden_cells(tuple(l for l, _ in spec.preparations)))
        solved.append((floor.lp, floor.raw))
    for lp, result in solved:
        if result.feasible:
            bent = list(result.witness)
            bent[0] -= Fraction(1, 7)
            checked = [result, FeasibilityResult(True, witness=tuple(bent))]
        else:
            cert = result.certificate
            checked = [
                result,
                FeasibilityResult(False, certificate={cid: -y for cid, y in cert.items()}),
                FeasibilityResult(False, certificate={cid: y / 3 for cid, y in cert.items()}),
            ]
        for result in checked:
            assert verify_certificate(lp, result) == _oracle_verify(lp, result)
