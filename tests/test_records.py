"""The public record types behave as frozen values.

Each record compares equal only to a record of its own class with equal
compared fields, hashes where those fields allow it, shows a fixed repr,
rejects assignment and deletion with AttributeError, takes its parameters
by keyword with fixed defaults, and survives copy, deepcopy and pickle.
The repr strings are pinned byte for byte.
"""

import copy
import inspect
import pickle
from fractions import Fraction as F

import pytest

from onticbench import (
    HALF,
    ONE,
    QUARTER,
    ZERO,
    Constraint,
    EpistemicState,
    Factor,
    FeasibilityResult,
    IndependenceReport,
    LPProblem,
    MeasurementBasis,
    MinViolationResult,
    OnticSpace,
    OntologicalModel,
    PbrScenario,
    PredictionCell,
    PredictionReport,
    ResponseFunctions,
    StateIndependence,
    StateVector,
    SynthesisSpec,
    Verdict,
    ket,
)

SPACE_REPR = "OnticSpace(factors=(Factor(name='a', labels=('0', '1')), Factor(name='b', labels=('x',))))"
STATE_REPR = (
    f"EpistemicState(space={SPACE_REPR}, "
    "weights={('0', 'x'): QSqrt2(1/2, 0), ('1', 'x'): QSqrt2(1/2, 0)})"
)
RESPONSES_REPR = (
    f"ResponseFunctions(space={SPACE_REPR}, outcome_count=2, "
    "rows={('0', 'x'): (QSqrt2(1, 0), QSqrt2(0, 0)), ('1', 'x'): (QSqrt2(1/2, 0), QSqrt2(1/2, 0))}, "
    "filler=QSqrt2(0, 0))"
)
KET0_REPR = "StateVector(amplitudes=(QSqrt2(1, 0), QSqrt2(0, 0)))"
KET1_REPR = "StateVector(amplitudes=(QSqrt2(0, 0), QSqrt2(1, 0)))"
BASIS_REPR = f"MeasurementBasis(outcomes=({KET0_REPR}, {KET1_REPR}))"


def space(second=("x",)):
    return OnticSpace((Factor("a", ("0", "1")), Factor("b", second)))


def state(w0=HALF):
    return EpistemicState(space(), {("0", "x"): w0, ("1", "x"): ONE - w0})


def responses(filler=ZERO, top=ONE):
    rows = {("0", "x"): (top, ONE - top), ("1", "x"): (HALF, HALF)}
    return ResponseFunctions(space(), 2, rows, filler)


def basis():
    return MeasurementBasis((ket("0"), ket("1")))


def row(cid="c", rhs=F(3, 4)):
    return Constraint(cid, ((0, F(1, 2)), (2, F(0)), (3, 2)), rhs, "le")


def lp(objective=(0, F(1, 3))):
    return LPProblem(["x", "y"], [Constraint("n", ((0, 1), (1, 1)), 1, "eq")], objective)


def pending(value=F(1, 4)):
    return FeasibilityResult(True, (value,), None, value)


# Each case: (make, twin, other, hashable, repr).  ``twin`` builds a record
# equal to ``make``'s, differing at most in fields that are not compared;
# ``other`` differs from it in a compared field.
CASES = {
    "Verdict": (
        lambda: Verdict(False, ("bad",), (("0", "x"),)),
        lambda: Verdict(False, ("bad",), (("1", "x"), "other")),
        lambda: Verdict(False, ("worse",), (("0", "x"),)),
        True,
        "Verdict(ok=False, failures=('bad',), witnesses=(('0', 'x'),))",
    ),
    "StateVector": (
        lambda: ket("+"),
        lambda: StateVector([HALF * ket("+").amplitudes[0] * 2] * 2),
        lambda: ket("-"),
        True,
        "StateVector(amplitudes=(QSqrt2(0, 1/2), QSqrt2(0, 1/2)))",
    ),
    "MeasurementBasis": (
        basis,
        lambda: MeasurementBasis([ket("0"), ket("1")]),
        lambda: MeasurementBasis((ket("1"), ket("0"))),
        True,
        BASIS_REPR,
    ),
    "Factor": (
        lambda: Factor("a", ("0", "1")),
        lambda: Factor("a", ["0", "1"]),
        lambda: Factor("a", ("1", "0")),
        True,
        "Factor(name='a', labels=('0', '1'))",
    ),
    "OnticSpace": (space, lambda: OnticSpace([*space().factors]), lambda: space(("y",)), True, SPACE_REPR),
    "EpistemicState": (
        state,
        lambda: EpistemicState(space(), {("1", "x"): HALF, ("0", "x"): HALF}),
        lambda: state(QUARTER),
        False,
        STATE_REPR,
    ),
    "ResponseFunctions": (responses, lambda: responses(filler=HALF), lambda: responses(top=ZERO), False, RESPONSES_REPR),
    "OntologicalModel": (
        lambda: OntologicalModel(space(), {"p": state()}, {"M": responses()}),
        lambda: OntologicalModel(space(), {"p": state()}, {"M": responses(filler=ONE)}),
        lambda: OntologicalModel(space(), {"q": state()}, {"M": responses()}),
        False,
        f"OntologicalModel(space={SPACE_REPR}, preparations={{'p': {STATE_REPR}}}, "
        f"measurements={{'M': {RESPONSES_REPR}}})",
    ),
    "PredictionCell": (
        lambda: PredictionCell("p", "M", 1, HALF, HALF),
        lambda: PredictionCell("p", "M", 1, QUARTER * 2, HALF),
        lambda: PredictionCell("p", "M", 2, HALF, HALF),
        True,
        "PredictionCell(prep_label='p', meas_label='M', outcome=1, "
        "predicted=QSqrt2(1/2, 0), target=QSqrt2(1/2, 0))",
    ),
    "PredictionReport": (
        lambda: PredictionReport((PredictionCell("p", "M", 2, ZERO, QUARTER),)),
        lambda: PredictionReport((PredictionCell("p", "M", 2, ZERO, QUARTER),)),
        lambda: PredictionReport(()),
        True,
        "PredictionReport(cells=(PredictionCell(prep_label='p', meas_label='M', outcome=2, "
        "predicted=QSqrt2(0, 0), target=QSqrt2(1/4, 0)),))",
    ),
    "StateIndependence": (
        lambda: StateIndependence(Verdict(True), Verdict(False, ("f",), ((("0",),),))),
        lambda: StateIndependence(Verdict(True), Verdict(False, ("f",))),
        lambda: StateIndependence(Verdict(True), Verdict(True)),
        True,
        "StateIndependence(prep_independent=Verdict(ok=True, failures=(), witnesses=()), "
        "locally_independent=Verdict(ok=True, failures=(), witnesses=()), "
        "fully_independent=Verdict(ok=False, failures=('f',), witnesses=((('0',),),)), "
        "witness_points=(('0',),))",
    ),
    "IndependenceReport": (
        lambda: IndependenceReport({}, {("p", "q"): HALF}),
        lambda: IndependenceReport({}, {("p", "q"): QUARTER + QUARTER}),
        lambda: IndependenceReport({}, {("p", "q"): QUARTER}),
        False,
        "IndependenceReport(states={}, overlaps={('p', 'q'): QSqrt2(1/2, 0)})",
    ),
    "PbrScenario": (
        lambda: PbrScenario({"0": ket("0")}, basis(), ((ONE, ZERO),)),
        lambda: PbrScenario({"0": ket("0")}, basis(), ((ONE, ZERO),)),
        lambda: PbrScenario({"1": ket("0")}, basis(), ((ONE, ZERO),)),
        False,
        f"PbrScenario(product_states={{'0': {KET0_REPR}}}, measurement={BASIS_REPR}, "
        "born_table=((QSqrt2(1, 0), QSqrt2(0, 0)),))",
    ),
    "SynthesisSpec": (
        lambda: SynthesisSpec(space(), [("p", state())], 2, [(HALF, HALF)]),
        lambda: SynthesisSpec(space(), (("p", state()),), 2, ((F(1, 2), 1 - F(1, 2)),)),
        lambda: SynthesisSpec(space(), [("p", state())], 2, [(ONE, ZERO)]),
        False,
        f"SynthesisSpec(space={SPACE_REPR}, preparations=(('p', {STATE_REPR}),), "
        "outcome_count=2, targets=((QSqrt2(1/2, 0), QSqrt2(1/2, 0)),))",
    ),
    "Constraint": (
        row,
        lambda: Constraint("c", [(0, F(2, 4)), (3, F(2))], F(6, 8), "le"),
        lambda: row(rhs=F(1)),
        True,
        "Constraint(cid='c', coeffs=((0, Fraction(1, 2)), (3, Fraction(2, 1))), "
        "rhs=Fraction(3, 4), kind='le')",
    ),
    "LPProblem": (
        lp,
        lambda: LPProblem(("x", "y"), (Constraint("n", ((0, F(1)), (1, 1)), F(1), "eq"),), [F(0), F(1, 3)]),
        lambda: lp(None),
        True,
        "LPProblem(variables=('x', 'y'), constraints=(Constraint(cid='n', coeffs=((0, Fraction(1, 1)), "
        "(1, Fraction(1, 1))), rhs=Fraction(1, 1), kind='eq'),), objective=(Fraction(0, 1), Fraction(1, 3)))",
    ),
    "FeasibilityResult": (
        lambda: FeasibilityResult(False, None, {"n": F(-1, 2)}),
        lambda: FeasibilityResult(False, certificate={"n": F(-2, 4)}),
        lambda: FeasibilityResult(False, None, {"n": F(-1)}),
        False,
        "FeasibilityResult(feasible=False, witness=None, certificate={'n': Fraction(-1, 2)}, objective_value=None)",
    ),
    "MinViolationResult": (
        lambda: MinViolationResult(QUARTER, LPProblem(["t"], []), pending()),
        lambda: MinViolationResult(QUARTER, LPProblem(("t",), ()), pending()),
        lambda: MinViolationResult(QUARTER, LPProblem(["t"], []), pending(F(1, 2))),
        True,
        "MinViolationResult(value=QSqrt2(1/4, 0), lp=LPProblem(variables=('t',), constraints=(), "
        "objective=None), raw=FeasibilityResult(feasible=True, witness=(Fraction(1, 4),), "
        "certificate=None, objective_value=Fraction(1, 4)))",
    ),
}

# Parameter names and defaults, in order; ``REQUIRED`` marks a parameter
# without a default.
REQUIRED = inspect.Parameter.empty
SIGNATURES = {
    "Verdict": [("ok", REQUIRED), ("failures", ()), ("witnesses", ())],
    "StateVector": [("amplitudes", REQUIRED)],
    "MeasurementBasis": [("outcomes", REQUIRED)],
    "Factor": [("name", REQUIRED), ("labels", REQUIRED)],
    "OnticSpace": [("factors", REQUIRED)],
    "EpistemicState": [("space", REQUIRED), ("weights", REQUIRED)],
    "ResponseFunctions": [
        ("space", REQUIRED), ("outcome_count", REQUIRED), ("rows", REQUIRED), ("filler", ZERO)
    ],
    "OntologicalModel": [("space", REQUIRED), ("preparations", REQUIRED), ("measurements", REQUIRED)],
    "PredictionCell": [
        ("prep_label", REQUIRED), ("meas_label", REQUIRED), ("outcome", REQUIRED),
        ("predicted", REQUIRED), ("target", REQUIRED),
    ],
    "PredictionReport": [("cells", REQUIRED)],
    "StateIndependence": [("locally_independent", REQUIRED), ("fully_independent", REQUIRED)],
    "IndependenceReport": [("states", REQUIRED), ("overlaps", REQUIRED)],
    "PbrScenario": [("product_states", REQUIRED), ("measurement", REQUIRED), ("born_table", REQUIRED)],
    "SynthesisSpec": [
        ("space", REQUIRED), ("preparations", REQUIRED), ("outcome_count", REQUIRED), ("targets", REQUIRED)
    ],
    "Constraint": [("cid", REQUIRED), ("coeffs", REQUIRED), ("rhs", REQUIRED), ("kind", REQUIRED)],
    "LPProblem": [("variables", REQUIRED), ("constraints", REQUIRED), ("objective", None)],
    "FeasibilityResult": [
        ("feasible", REQUIRED), ("witness", None), ("certificate", None), ("objective_value", None)
    ],
    "MinViolationResult": [("value", REQUIRED), ("lp", REQUIRED), ("raw", REQUIRED)],
}

NAMES = sorted(CASES)


def test_every_public_record_is_covered():
    import onticbench

    records = {
        name for name in onticbench.__all__
        if isinstance(getattr(onticbench, name), type)
        and not issubclass(getattr(onticbench, name), Exception)
    }
    records.discard("QSqrt2")
    assert records == set(CASES) == set(SIGNATURES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_by_value(name):
    make, twin, other, _, _ = CASES[name]
    a, b, c = make(), twin(), other()
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert type(a) is type(b) is type(c)


@pytest.mark.parametrize("name", NAMES)
def test_unequal_to_other_types(name):
    make, *_ = CASES[name]
    a = make()
    fields = tuple(a.__dict__.values())
    assert a != fields and fields != a
    assert a != None  # noqa: E711
    for other in NAMES:
        if other != name:
            assert a != CASES[other][0]()
    subclass = type("Sub", (type(a),), {})
    twin = copy.copy(a)
    object.__setattr__(twin, "__class__", subclass)
    assert a != twin and twin != a


@pytest.mark.parametrize("name", NAMES)
def test_hash(name):
    make, twin, _, hashable, _ = CASES[name]
    a, b = make(), twin()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_feasibility_result_hashes_without_a_certificate():
    assert hash(FeasibilityResult(True, (F(1),))) == hash(FeasibilityResult(True, (F(1),)))


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    make, _, _, _, text = CASES[name]
    assert repr(make()) == text
    assert str(make()) == text


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    make, *_ = CASES[name]
    a = make()
    before = repr(a)
    for field in [*a.__dict__, "new_attribute"]:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert repr(a) == before


@pytest.mark.parametrize("name", NAMES)
def test_signature(name):
    cls = type(CASES[name][0]())
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[name]


@pytest.mark.parametrize("name", NAMES)
def test_keyword_construction(name):
    make, *_ = CASES[name]
    a = make()
    cls = type(a)
    kwargs = {p: getattr(a, p) for p, _ in SIGNATURES[name] if hasattr(a, p)}
    b = cls(**kwargs)
    assert b == a and repr(b) == repr(a)


def test_defaults():
    assert Verdict(True).failures == () and Verdict(True).witnesses == ()
    result = FeasibilityResult(feasible=True)
    assert (result.witness, result.certificate, result.objective_value) == (None, None, None)
    assert LPProblem(variables=["x"], constraints=[]).objective is None
    assert responses().filler == ZERO
    rows = {p: (ONE, ZERO) for p in space().points}
    assert ResponseFunctions(space=space(), outcome_count=2, rows=rows).filler == ZERO
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(amplitudes=(ONE, ONE))
    with pytest.raises(TypeError):
        Verdict()
    with pytest.raises(TypeError):
        Verdict(True, (), (), "extra")


def test_uncompared_fields_take_no_part():
    a, b = Verdict(True, (), ("w",)), Verdict(True, (), ("v",))
    assert a == b and hash(a) == hash(b)
    assert responses(filler=ZERO) == responses(filler=ONE)
    c, d = row(), row()
    for name, value in (("den", 7), ("nums", (1,)), ("rhs_num", 99)):
        object.__setattr__(d, name, value)
    assert c == d and hash(c) == hash(d) and repr(c) == repr(d)
    assert (c.den, c.nums, c.rhs_num) == (4, (2, 8), 3)
    s, t = space(), space()
    object.__setattr__(t, "_index", {})
    object.__setattr__(t, "_points", ())
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)


@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle(name, roundtrip):
    make, _, _, hashable, text = CASES[name]
    a = make()
    b = roundtrip(a)
    assert type(b) is type(a)
    assert b == a and repr(b) == text
    assert b.__dict__.keys() == a.__dict__.keys()
    if hashable:
        assert hash(b) == hash(a)
    with pytest.raises(AttributeError):
        setattr(b, next(iter(a.__dict__)), None)


def test_copies_keep_derived_attributes():
    c = pickle.loads(pickle.dumps(row()))
    assert (c.den, c.nums, c.rhs_num) == (4, (2, 8), 3)
    s = copy.deepcopy(space())
    assert s.points == space().points and s.point_index(("1", "x")) == 1
