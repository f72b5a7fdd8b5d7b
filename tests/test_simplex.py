"""The sparse integer-row simplex against a dense Fraction simplex, pinned
pivot counts and sequences, and the tableau invariant after every pivot.

The oracle below is the dense Fraction tableau the solver used before its
rows became sparse integers over one denominator each, fed dense rows that
it expands from the sparse constraints itself.  Both run the same Bland
pivots on the same rationals, so every answer must match exactly.
"""

import hashlib
import inspect
import random
from fractions import Fraction
from math import gcd
from typing import List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onticbench import cli, scenarios, synthesis
from onticbench.numerics import QSqrt2
from onticbench.ontology import EpistemicState, Factor, OnticSpace
from onticbench.synthesis import Constraint, FeasibilityResult, LPProblem, SynthesisSpec

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---- oracle: the dense Fraction tableau ----------------------------------------


def _oracle_pivot(T, z, basis, r, col):
    prow = T[r]
    piv = prow[col]
    if piv != _F1:
        inv = _F1 / piv
        T[r] = prow = [v * inv for v in prow]
    nonzero = [j for j, v in enumerate(prow) if v]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[col]
        if f:
            for j in nonzero:
                row[j] -= f * prow[j]
    f = z[col]
    if f:
        for j in nonzero:
            z[j] -= f * prow[j]
    basis[r] = col


def _oracle_bland(T, z, basis, eligible):
    while True:
        enter = -1
        for j in range(eligible):
            if z[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best: Optional[Fraction] = None
        for i, row in enumerate(T):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _oracle_pivot(T, z, basis, leave, enter)


def _oracle_simplex(A, b, c):
    m = len(A)
    n = len(A[0]) if m else 0
    width = n + m + 1

    flips = [(-_F1 if b[i] < 0 else _F1) for i in range(m)]
    T: List[List[Fraction]] = []
    for i in range(m):
        f = flips[i]
        row = [f * v for v in A[i]] + [_F0] * m + [f * b[i]]
        row[n + i] = _F1
        T.append(row)
    basis = list(range(n, n + m))

    z = [_F0] * width
    for row in T:
        for j in range(n):
            if row[j]:
                z[j] -= row[j]
        z[-1] -= row[-1]
    status = _oracle_bland(T, z, basis, n + m)
    if status != "optimal":
        raise AssertionError("phase 1 is always bounded below by zero")
    infeasibility = -z[-1]
    if infeasibility > 0:
        y = [flips[i] * (_F1 - z[n + i]) for i in range(m)]
        return ("infeasible", y)

    if c is None:
        x = [_F0] * n
        for r, var in enumerate(basis):
            if var < n:
                x[var] = T[r][-1]
        return ("optimal", x, _F0)

    keep: List[int] = []
    for r in range(len(T)):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j]), None)
            if col is None:
                continue
            _oracle_pivot(T, z, basis, r, col)
        keep.append(r)
    T = [T[r] for r in keep]
    basis = [basis[r] for r in keep]
    if any(var >= n for var in basis):
        raise AssertionError("artificial variable left in the basis after cleanup")

    z = list(c) + [_F0] * m + [_F0]
    for r, row in enumerate(T):
        cb = c[basis[r]]
        if cb:
            for j in range(width):
                if row[j]:
                    z[j] -= cb * row[j]
    status = _oracle_bland(T, z, basis, n)
    if status == "unbounded":
        raise ValueError("objective is unbounded below")
    x = [_F0] * n
    for r, var in enumerate(basis):
        x[var] = T[r][-1]
    return ("optimal", x, -z[-1])


def _oracle_standard_form(lp: LPProblem):
    """Dense rows of the constraints, with one slack column per '<=' row."""
    n0 = len(lp.variables)
    le_rows = [i for i, con in enumerate(lp.constraints) if con.kind == "le"]
    n = n0 + len(le_rows)
    A: List[List[Fraction]] = []
    for i, con in enumerate(lp.constraints):
        row = [_F0] * n
        for j, v in con.coeffs:
            row[j] = v
        if con.kind == "le":
            row[n0 + le_rows.index(i)] = _F1
        A.append(row)
    return A, [con.rhs for con in lp.constraints], n, n0


def _oracle_solve(lp: LPProblem) -> FeasibilityResult:
    """``synthesis._solve`` on the oracle tableau, without the final re-check."""
    A, b, n, n0 = _oracle_standard_form(lp)
    optimize = lp.objective is not None
    c = list(lp.objective) + [_F0] * (n - n0) if optimize else None
    outcome = _oracle_simplex(A, b, c)
    if outcome[0] == "infeasible":
        y = outcome[1]
        certificate = {lp.constraints[i].cid: y[i] for i in range(len(y)) if y[i]}
        return FeasibilityResult(False, certificate=certificate)
    _, x, value = outcome
    return FeasibilityResult(True, witness=tuple(x[:n0]), objective_value=value if optimize else None)


# ---- small LPs -------------------------------------------------------------------

_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_scale = st.sampled_from([Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(3)])


@st.composite
def small_lps(draw):
    """Up to 4 eq/le rows over up to 6 columns, with and without an objective.

    Half the systems have right-hand sides taken at a nonnegative point, so
    they are feasible and reach phase 2; a row may repeat a scaled earlier
    row, which leaves a redundant row for the artificial cleanup to drop.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    point = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rows = []
    for i in range(m):
        if i and draw(st.booleans()):
            coeffs, rhs, kind = rows[draw(st.integers(0, i - 1))]
            s = draw(_scale)
            if kind == "le" and s < 0:
                s = -s
            rows.append(([s * v for v in coeffs], s * rhs, kind))
            continue
        coeffs = draw(st.lists(_small, min_size=n, max_size=n))
        kind = draw(st.sampled_from(("eq", "le")))
        if point is None:
            rhs = draw(_small)
        else:
            rhs = sum((v * p for v, p in zip(coeffs, point)), _F0)
            if kind == "le":
                rhs += draw(st.integers(0, 2))
        rows.append((coeffs, rhs, kind))
    objective = draw(st.none() | st.lists(_small, min_size=n, max_size=n))
    # Rows go in as (index, coefficient) pairs; sometimes an explicit zero
    # pair is kept, which the Constraint must drop.
    keep_zeros = draw(st.booleans())
    constraints = tuple(
        Constraint(
            f"r{i}",
            tuple((j, v) for j, v in enumerate(coeffs) if v or keep_zeros),
            rhs,
            kind,
        )
        for i, (coeffs, rhs, kind) in enumerate(rows)
    )
    return LPProblem(tuple(f"x{j}" for j in range(n)), constraints, objective)


def _answer(lp: LPProblem, solve):
    try:
        return solve(lp)
    except ValueError as exc:
        return str(exc)


def planted_sqrt2_lp(seed):
    """A feasible LP with sqrt2-split rows: 16 points, 8 preparations of
    support 2 and 4 outcomes, targets made from a planted rational response
    family.  Each preparation moves a sqrt2 multiple of the weight of one
    support point to the other, so every born row has a sqrt2 twin."""
    rng = random.Random(seed)
    space = OnticSpace((Factor("a", tuple(f"a{i}" for i in range(16))),))
    witness = {}
    for point in space.points:
        cuts = sorted(rng.randint(0, 7) for _ in range(3))
        witness[point] = [Fraction(b - a, 7) for a, b in zip([0] + cuts, cuts + [7])]
    preparations, targets = [], []
    for i in range(8):
        source, sink = rng.sample(space.points, 2)
        k = rng.randint(1, 6)
        moved = QSqrt2(0, Fraction(k, 14))
        weights = {source: QSqrt2(Fraction(k, 7)) - moved, sink: QSqrt2(Fraction(7 - k, 7)) + moved}
        preparations.append((f"q{i}", EpistemicState(space, weights)))
        targets.append(tuple(
            sum((w * witness[p][j] for p, w in weights.items()), QSqrt2()) for j in range(4)
        ))
    return synthesis.build_synthesis_lp(SynthesisSpec(space, preparations, 4, targets))


def padded_lhv_floor_lp():
    """The local PBR floor LP on the coin space times a uniform 2-value factor."""
    lhv = scenarios.lhv_synthesis_spec()
    pad = Factor("pad", ("p0", "p1"))
    space = OnticSpace(lhv.space.factors + (pad,))
    half = QSqrt2(Fraction(1, 2))
    preparations = [
        (label, EpistemicState(
            space, {p + (e,): w * half for p, w in state.weights.items() for e in pad.labels}
        ))
        for label, state in lhv.preparations
    ]
    spec = SynthesisSpec(space, preparations, lhv.outcome_count, lhv.targets)
    return synthesis.build_min_violation_lp(
        spec, scenarios.forbidden_cells(scenarios.MARGINAL_PREP_ORDER)
    )


# The builtin LPs, with dozens of pivots each, and two larger LPs whose
# rows gain and lose the entering column over many pivots; the drawn ones
# stay small.
TOY_LP = synthesis.build_synthesis_lp(scenarios.pbr_synthesis_spec(
    scenarios.build_toy_nlhv_model(), scenarios.PREP_ORDER,
    scenarios.build_pbr_quantum_scenario().born_table,
))
LHV_LP = synthesis.build_synthesis_lp(scenarios.lhv_synthesis_spec())
LHV_FLOOR_LP = synthesis.build_min_violation_lp(
    scenarios.lhv_synthesis_spec(), scenarios.forbidden_cells(scenarios.MARGINAL_PREP_ORDER)
)
PLANTED_SQRT2_LP = planted_sqrt2_lp("planted-sqrt2")
PADDED_LHV_FLOOR_LP = padded_lhv_floor_lp()


@settings(max_examples=400, deadline=None)
@given(small_lps())
@example(TOY_LP)
@example(LHV_LP)
@example(LHV_FLOOR_LP)
@example(PLANTED_SQRT2_LP)
@example(PADDED_LHV_FLOOR_LP)
def test_same_answers_as_the_fraction_tableau(lp):
    assert _answer(lp, synthesis._solve) == _answer(lp, _oracle_solve)


# ---- pinned pivot counts and the tableau invariant ------------------------------

BUILTIN_RUNS = [
    (("synthesize", "--builtin", "toy-nlhv"), 54),
    (("synthesize", "--builtin", "pbr-lhv"), 38),
    (("nogo", "--builtin", "pbr-lhv"), 58),
]


def pivot_hook(calls, before=None, after=None):
    """A stand-in for ``synthesis._pivot`` that appends the arguments of
    every pivot to ``calls``, each a dict by ``_pivot``'s parameter names,
    and passes them as keywords to ``before`` just ahead of that pivot and
    to ``after`` once it is done."""
    pivot = synthesis._pivot
    signature = inspect.signature(pivot)

    def counted(*args, **kwargs):
        call = signature.bind(*args, **kwargs).arguments
        calls.append(call)
        if before is not None:
            before(**call)
        pivot(*args, **kwargs)
        if after is not None:
            after(**call)

    return counted


def run_with_pivot_hook(monkeypatch, capsys, argv, before=None, after=None):
    """Run the CLI on ``argv`` under ``pivot_hook``; return every pivot's arguments."""
    calls = []
    monkeypatch.setattr(synthesis, "_pivot", pivot_hook(calls, before, after))
    cli.run(list(argv))
    capsys.readouterr()
    return calls


# SHA-256 of repr() of each run's (row, column) pivot list.
PIVOT_DIGESTS = {
    ("synthesize", "--builtin", "toy-nlhv"):
        "663d5a910f0b139efb7bfbb67a3387aea5f8275edd14258539b2063785bb3b1f",
    ("synthesize", "--builtin", "pbr-lhv"):
        "2e7e9e5c3e834abd20889838630e2713ca554f9081a266a10db79c3c163fd9f5",
    ("nogo", "--builtin", "pbr-lhv"):
        "b042108a823c8ecbd7c945a05d273df1752854ec0d061b4033ed5a9b3db74a17",
}


@pytest.mark.parametrize("argv, pivots", BUILTIN_RUNS)
def test_pivot_counts(monkeypatch, capsys, argv, pivots):
    calls = run_with_pivot_hook(monkeypatch, capsys, argv)
    assert len(calls) == pivots
    sequence = repr([(call["r"], call["col"]) for call in calls])
    assert hashlib.sha256(sequence.encode()).hexdigest() == PIVOT_DIGESTS[argv]


def check_column_rows(T, col, hits, **_):
    """The rows handed to a pivot are exactly the rows of T that hold
    ``col``, in row order, each with its entry."""
    assert hits == [(i, T[i][col]) for i in range(len(T)) if T[i].get(col, 0) != 0]


def check_tableau(T, D, basis, **_):
    """One or two objective rows follow the constraint rows (the cost row
    rides along through phase 1 of an optimizing run), sparse rows store no
    0, each row is reduced over a positive denominator, and a constraint row
    holds its basic entry as D[i]."""
    assert len(T) == len(D)
    assert len(T) - len(basis) in (1, 2)
    for i, (row, d) in enumerate(zip(T, D)):
        assert d > 0
        assert all(row.values()), i
        assert gcd(d, *row.values()) == 1, i
        if i < len(basis):
            assert row[basis[i]] == d, i


@pytest.mark.parametrize("argv, pivots", BUILTIN_RUNS)
def test_tableau_invariant_after_every_pivot(monkeypatch, capsys, argv, pivots):
    calls = run_with_pivot_hook(monkeypatch, capsys, argv, check_column_rows, check_tableau)
    assert len(calls) == pivots


@settings(max_examples=400, deadline=None)
@given(small_lps())
def test_tableau_invariant_on_drawn_lps(lp):
    """Drawn LPs also reach the pivots that drive artificials out after
    phase 1, where the cost row is among the rows that hold the column."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(synthesis, "_pivot", pivot_hook([], check_column_rows, check_tableau))
        _answer(lp, synthesis._solve)
