"""The sparse integer-row simplex against a dense Fraction simplex, pinned
pivot counts and sequences, and the tableau invariant after every pivot.

The oracle below is the dense Fraction tableau the solver used before its
rows became sparse integers over one denominator each, fed dense rows that
it expands from the sparse constraints itself.  Both run the same Bland
pivots on the same rationals, so every answer must match exactly.
"""

import hashlib
from fractions import Fraction
from math import gcd
from typing import List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onticbench import cli, scenarios, synthesis
from onticbench.synthesis import Constraint, FeasibilityResult, LPProblem

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


def _oracle_solve(lp: LPProblem, optimize: bool) -> FeasibilityResult:
    """``synthesis._solve`` on the oracle tableau, without the final re-check."""
    A, b, n, n0 = _oracle_standard_form(lp)
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


def _answer(lp: LPProblem, optimize: bool, solve):
    try:
        return solve(lp, optimize)
    except ValueError as exc:
        return str(exc)


# The builtin LPs, with dozens of pivots each; the drawn ones stay small.
TOY_LP = synthesis.build_synthesis_lp(scenarios.toy_synthesis_spec())
LHV_LP = synthesis.build_synthesis_lp(scenarios.lhv_synthesis_spec())
LHV_FLOOR_LP = synthesis.build_min_violation_lp(
    scenarios.lhv_synthesis_spec(), scenarios.forbidden_cells(scenarios.MARGINAL_PREP_ORDER)
)


@settings(max_examples=400, deadline=None)
@given(small_lps())
@example(TOY_LP)
@example(LHV_LP)
@example(LHV_FLOOR_LP)
def test_same_answers_as_the_fraction_tableau(lp):
    optimize = lp.objective is not None
    assert _answer(lp, optimize, synthesis._solve) == _answer(lp, optimize, _oracle_solve)


# ---- pinned pivot counts and the tableau invariant ------------------------------

BUILTIN_RUNS = [
    (("synthesize", "--builtin", "toy-nlhv"), 54),
    (("synthesize", "--builtin", "pbr-lhv"), 38),
    (("nogo", "--builtin", "pbr-lhv"), 58),
]


def run_with_pivot_hook(monkeypatch, capsys, argv, after=None):
    """Run the CLI on ``argv``; return the arguments of every pivot, each
    passed to ``after`` once that pivot is done."""
    calls = []
    pivot = synthesis._pivot

    def counted(*args):
        calls.append(args)
        pivot(*args)
        if after is not None:
            after(*args)

    monkeypatch.setattr(synthesis, "_pivot", counted)
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
    sequence = repr([(r, col) for _, _, _, r, col in calls])
    assert hashlib.sha256(sequence.encode()).hexdigest() == PIVOT_DIGESTS[argv]


def check_tableau(T, D, basis, r, col):
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
    calls = run_with_pivot_hook(monkeypatch, capsys, argv, check_tableau)
    assert len(calls) == pivots
