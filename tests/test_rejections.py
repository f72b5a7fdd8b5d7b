"""Input rejection across the library: each bad input raises a named error.

One row per raise that the other suites never reach: the exception type and
a fragment of its message are part of the contract, since the CLI prints
the message after ``error:`` and exits 2 on a ValueError.
"""

from fractions import Fraction

import pytest

from onticbench.hilbert import MeasurementBasis, StateVector, born_probabilities, ket, ket_product
from onticbench.independence import analyze_independence, marginalize
from onticbench.modelfile import ModelFormatError, loads
from onticbench.numerics import HALF, ONE, QSqrt2, ZERO
from onticbench.ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    OntologicalModel,
    ResponseFunctions,
    simulate,
)
from onticbench.scenarios import (
    PREP_ORDER, build_pbr_quantum_scenario, build_toy_nlhv_model, pbr_synthesis_spec,
)
from onticbench.synthesis import (
    Constraint,
    FeasibilityResult,
    LPProblem,
    build_min_violation_lp,
    build_synthesis_lp,
    extract_responses,
    responses_to_witness,
    verify_certificate,
)
from onticbench.verdicts import Verdict

SPACE = OnticSpace((Factor("x", ("a", "b")),))
OTHER_SPACE = OnticSpace((Factor("y", ("a", "b")),))
POINT_MASS = EpistemicState(SPACE, {("a",): ONE})
TWO_FACTORS = OnticSpace((Factor("x", ("a", "b")), Factor("y", ("c",))))
HEADER = "onticbench-model 1\n\n"
SPACE_SECTION = "space\n  factor x a b\nend\n"


def toy_spec():
    """toy-nlhv's four preparations, in Born-row order, against the Born table."""
    return pbr_synthesis_spec(
        build_toy_nlhv_model(), PREP_ORDER, build_pbr_quantum_scenario().born_table
    )


def _toy_witness(responses):
    return responses_to_witness(toy_spec(), responses)


def _toy_responses(outcome_count, value):
    space = build_toy_nlhv_model().space
    return ResponseFunctions(space, outcome_count, {p: (value,) * outcome_count for p in space.points})


CASES = [
    # hilbert
    ("empty-state", lambda: StateVector(()), ValueError, "at least one amplitude"),
    ("empty-basis", lambda: MeasurementBasis(()), ValueError, "at least one outcome vector"),
    ("mixed-dimensions", lambda: MeasurementBasis((ket("0"), ket_product("00"))),
     ValueError, "share one dimension"),
    ("born-dimension-mismatch",
     lambda: born_probabilities(ket("0"), MeasurementBasis((ket_product("00"), ket_product("01"),
                                                            ket_product("10"), ket_product("11")))),
     ValueError, "dimension mismatch"),
    ("unknown-ket", lambda: ket("x"), ValueError, "unknown ket name"),
    ("empty-ket-product", lambda: ket_product(""), ValueError, "empty ket product"),
    # ontology
    ("factor-without-labels", lambda: Factor("f", ()), ValueError, "has no labels"),
    ("duplicate-factor-names", lambda: OnticSpace((Factor("f", ("a",)), Factor("f", ("b",)))),
     ValueError, "duplicate factor names"),
    ("zero-outcomes", lambda: ResponseFunctions(SPACE, 0, {}), ValueError, "at least one outcome"),
    ("short-response-row",
     lambda: ResponseFunctions(SPACE, 2, {("a",): (ONE,), ("b",): (ONE, ZERO)}),
     ValueError, "has 1 entries, expected 2"),
    ("preparation-on-other-space",
     lambda: OntologicalModel(OTHER_SPACE, {"p": POINT_MASS}, {}),
     ValueError, "lives on a different space"),
    ("simulate-jobs-0",
     lambda: simulate(build_toy_nlhv_model(), "nu00", "M", 10, 0, jobs=0),
     ValueError, "jobs must be at least 1"),
    ("simulate-invalid-measurement",
     lambda: simulate(
         OntologicalModel(SPACE, {"p": POINT_MASS},
                          {"M": ResponseFunctions(SPACE, 2, {p: (ZERO, ZERO) for p in SPACE.points})}),
         "p", "M", 10, 0),
     ValueError, "measurement 'M' is invalid"),
    # independence
    ("marginalize-no-factors", lambda: marginalize(POINT_MASS, ()), ValueError, "at least one factor"),
    ("marginalize-repeated-factor",
     lambda: marginalize(EpistemicState(TWO_FACTORS, {("a", "c"): ONE}), ("x", "x")),
     ValueError, "duplicate factor names"),
    ("one-accessible-factor",
     lambda: analyze_independence(build_toy_nlhv_model(), ("lambda1", "lambda_s")),
     ValueError, "fewer than two accessible factors"),
    # synthesis
    ("prep-index-unknown", lambda: toy_spec().prep_index("nope"),
     ValueError, "unknown preparation 'nope'"),
    ("duplicate-constraint-ids",
     lambda: LPProblem(("x0",), (Constraint("c", ((0, 1),), 1, "eq"),
                                 Constraint("c", ((0, 1),), 1, "le"))),
     ValueError, "duplicate constraint ids"),
    ("objective-length",
     lambda: LPProblem(("x0", "x1"), (), objective=(1,)),
     ValueError, "objective length"),
    ("forbidden-cell-out-of-range",
     lambda: build_min_violation_lp(toy_spec(), (("nu00", 5),)),
     ValueError, "out of range 1..4"),
    ("forbidden-cell-twice",
     lambda: build_min_violation_lp(toy_spec(), (("nu00", 1), ("nu00", 1))),
     ValueError, "listed twice"),
    ("short-witness", lambda: extract_responses(toy_spec(), (Fraction(0),) * 3),
     ValueError, "witness has 3 values"),
    ("witness-from-other-space",
     lambda: responses_to_witness(toy_spec(), ResponseFunctions(SPACE, 4, {
         p: (ONE, ZERO, ZERO, ZERO) for p in SPACE.points})),
     ValueError, "different space"),
    ("witness-outcome-count", lambda: _toy_witness(_toy_responses(2, HALF)),
     ValueError, "outcome count mismatch"),
    ("witness-irrational-value",
     lambda: _toy_witness(_toy_responses(4, QSqrt2(0, Fraction(1, 8)))),
     ValueError, "is not rational"),
    # modelfile
    ("measurement-without-outcomes",
     lambda: loads(HEADER + SPACE_SECTION + "\nmeasurement M\n  filler 1/2\nend\n"),
     ModelFormatError, "declares no outcome count"),
    ("second-space-section", lambda: loads(HEADER + SPACE_SECTION + "\n" + SPACE_SECTION),
     ModelFormatError, "duplicate space section"),
    ("no-space-section", lambda: loads(HEADER), ModelFormatError, "no space section"),
    ("space-with-argument", lambda: loads(HEADER + SPACE_SECTION.replace("space", "space x")),
     ModelFormatError, "'space' takes no arguments"),
    ("factor-with-duplicate-labels",
     lambda: loads(HEADER + SPACE_SECTION.replace("a b", "a a")),
     ModelFormatError, "duplicate labels"),
    ("filler-without-value",
     lambda: loads(HEADER + SPACE_SECTION + "\nmeasurement M\n  filler\nend\n"),
     ModelFormatError, "expected 'filler VALUE'"),
    # floats are refused wherever a field element is expected
    ("float-weight", lambda: EpistemicState(SPACE, {("a",): 0.5, ("b",): HALF}),
     TypeError, "got float"),
    ("float-response", lambda: ResponseFunctions(SPACE, 1, {("a",): (1.0,), ("b",): (ONE,)}),
     TypeError, "got float"),
    ("float-amplitude", lambda: StateVector((1.0,)), TypeError, "got float"),
    ("float-operand", lambda: QSqrt2(1) + 1.5, TypeError, "unsupported operand"),
]


@pytest.mark.parametrize(
    "call, error, fragment", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_rejected(call, error, fragment):
    with pytest.raises(error) as raised:
        call()
    assert fragment in str(raised.value)


@pytest.mark.parametrize(
    "result, failure",
    [
        (FeasibilityResult(True), "feasible result carries no witness"),
        (FeasibilityResult(False), "infeasible result carries no certificate"),
    ],
    ids=["no-witness", "no-certificate"],
)
def test_result_without_evidence_fails_verification(result, failure):
    lp = build_synthesis_lp(toy_spec())
    verdict = verify_certificate(lp, result)
    assert verdict == Verdict(False, (failure,))
    assert not verdict


def test_false_verdict_is_falsy():
    assert bool(Verdict(False)) is False
    assert bool(Verdict(True)) is True
