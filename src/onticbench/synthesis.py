"""Exact response-function synthesis as rational linear programming.

Given preparations mu_i on a finite ontic space and target outcome rows
t(i, k), the synthesis question is whether response functions x(k, p)
exist with

    x(k, p) >= 0,
    sum_k x(k, p) = 1                      for every point p,
    sum_p mu_i(p) * x(k, p) = t(i, k)      for every preparation and outcome.

Everything is decided in exact rational arithmetic.  Coefficients from
Q(sqrt2) are handled by splitting an equality into its 1-component and
sqrt2-component rows, which is sound because {1, sqrt2} is linearly
independent over the rationals, and solutions are sought over rational
values (probabilities produced by the solver are always rational).
Inequality rows cannot be split that way, because the field order does not
act componentwise, so the violation-minimizing program insists on rational
data; every built-in scenario satisfies that.

So "infeasible" decides exactly this.  With rational weights and targets
the verdict holds over the reals: if Ax = b, x >= 0 with rational A and b
has a real solution, it has a basic one, and a basic solution is rational.
With sqrt2 data the split rows ask for rational response functions only,
so "infeasible" then means that no rational response functions exist; real
ones may (a point mass with target sqrt2/2 is met by the response sqrt2/2).

LP rows are sparse: a Constraint holds only its nonzero coefficients, as
(column index, Fraction) pairs sorted by index, and the builders walk only
those pairs.  Each Constraint also computes its row over integers once:
the lcm of its denominators and the integer numerators over it.  The
tableau fill copies those integers, and the verifier checks every row as
an integer dot product, so neither does Fraction arithmetic.  The working
tableau is sparse too.

The solver is a two-phase primal simplex with Bland's rule, which cannot
cycle, so termination is unconditional.  Each tableau row is a dict from
column to nonzero integer over one positive denominator, kept reduced, so
the simplex holds exactly the rationals a Fraction tableau would while
creating no Fraction per entry.  A pivot finds the rows that hold the
entering column in one pass over the tableau; the ratio test and the
elimination walk only those rows, and the elimination only the nonzeros of
the pivot row.  Results come back as Fractions.  Infeasibility comes
with a Farkas certificate: row multipliers y with

    sum_i y_i * row_i <= 0 componentwise over the variables,
    y_i <= 0 for every '<=' row,
    sum_i y_i * rhs_i > 0,

which makes any nonnegative solution impossible.  Certificates and
witnesses are re-verified against the constraint list before they are
returned; verify_certificate exposes the same check to callers.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import index

from .numerics import ONE, QSqrt2, ZERO, as_qsqrt2, as_rational
from .ontology import (
    EpistemicState,
    OnticSpace,
    Point,
    ResponseFunctions,
    format_point,
)
from .verdicts import Record, Verdict, _set

_F0 = Fraction(0)
_F1 = Fraction(1)


class SynthesisSpec(Record):
    """Preparations plus target outcome rows on one ontic space.

    ``targets[i][k-1]`` is the required probability of outcome k under
    preparation i.  Rows must sum to one.
    """

    _fields = ("space", "preparations", "outcome_count", "targets")

    def __init__(
        self,
        space: OnticSpace,
        preparations: Sequence[tuple[str, EpistemicState]],
        outcome_count: int,
        targets: Sequence[Sequence[QSqrt2]],
    ) -> None:
        _set(self, "space", space)
        _set(self, "preparations", tuple((l, s) for l, s in preparations))
        _set(self, "outcome_count", index(outcome_count))
        _set(self, "targets", tuple(tuple(as_qsqrt2(v) for v in row) for row in targets))
        if self.outcome_count < 1:
            raise ValueError("need at least one outcome")
        labels = [l for l, _ in self.preparations]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate preparation labels: {labels}")
        if len(self.targets) != len(self.preparations):
            raise ValueError("one target row per preparation required")
        for label, state in self.preparations:
            if state.space != self.space:
                raise ValueError(f"preparation {label!r} lives on a different space")
        for (label, _), row in zip(self.preparations, self.targets):
            if len(row) != self.outcome_count:
                raise ValueError(f"target row for {label!r} has wrong length")
            total = sum(row, ZERO)
            if total != ONE:
                raise ValueError(f"target row for {label!r} sums to {total}, not 1")

    @property
    def rational(self) -> bool:
        """No weight or target has a sqrt2 part, so "infeasible" holds over the reals."""
        return not any(v.irr for row in self.targets for v in row) and not any(
            w.irr for _, state in self.preparations for w in state.weights.values()
        )

    def prep_index(self, label: str) -> int:
        for i, (l, _) in enumerate(self.preparations):
            if l == label:
                return i
        raise ValueError(f"unknown preparation {label!r}")

    @property
    def variable_count(self) -> int:
        return self.outcome_count * self.space.size


class Constraint(Record):
    """One row: sum of coeff * x[index] over ``coeffs``, compared with ``rhs``.

    ``coeffs`` holds (index, coefficient) pairs, one per nonzero coefficient,
    with integer indices strictly increasing; a zero coefficient is dropped
    here, and LPProblem checks the indices against its variables.  Each
    coefficient and ``rhs`` must be an int or Fraction (numerics.as_rational).

    The same row over integers is computed here once: ``den`` is the lcm of
    the denominators of the coefficients and ``rhs``, ``nums[t]`` is
    ``coeffs[t][1] * den`` and ``rhs_num`` is ``rhs * den``, all ints.  The
    simplex fills its tableau and verify_certificate checks rows from these,
    with no Fraction arithmetic; they take no part in equality, hashing or
    repr.
    """

    _fields = ("cid", "coeffs", "rhs", "kind")

    def __init__(
        self, cid: str, coeffs: Sequence[tuple[int, Fraction]], rhs: Fraction, kind: str
    ) -> None:
        if kind not in ("eq", "le"):
            raise ValueError(f"unknown constraint kind {kind!r}")
        coeffs = tuple([(index(j), v) for j, c in coeffs if (v := as_rational(c))])
        rhs = as_rational(rhs)
        den = lcm(rhs.denominator, *[v.denominator for _, v in coeffs])
        _set(self, "cid", cid)
        _set(self, "coeffs", coeffs)
        _set(self, "rhs", rhs)
        _set(self, "kind", kind)
        _set(self, "den", den)
        _set(self, "nums", tuple([v.numerator * (den // v.denominator) for _, v in coeffs]))
        _set(self, "rhs_num", rhs.numerator * (den // rhs.denominator))


class LPProblem(Record):
    """A rational LP: named variables, eq/le rows, optional min objective."""

    _fields = ("variables", "constraints", "objective")

    def __init__(
        self,
        variables: Sequence[str],
        constraints: Sequence[Constraint],
        objective: Sequence[Fraction] | None = None,
    ) -> None:
        variables = tuple(variables)
        constraints = tuple(constraints)
        n = len(variables)
        cids = [c.cid for c in constraints]
        if len(set(cids)) != len(cids):
            raise ValueError("duplicate constraint ids")
        for c in constraints:
            last = -1
            for j, _ in c.coeffs:
                if not 0 <= j < n:
                    raise ValueError(f"constraint {c.cid} has index {j}, expected 0..{n - 1}")
                if j <= last:
                    raise ValueError(f"constraint {c.cid} has index {j} after {last}")
                last = j
        if objective is not None:
            objective = tuple(map(as_rational, objective))
            if len(objective) != n:
                raise ValueError("objective length must match the variable count")
        _set(self, "variables", variables)
        _set(self, "constraints", constraints)
        _set(self, "objective", objective)


class FeasibilityResult(Record):
    _fields = ("feasible", "witness", "certificate", "objective_value")

    def __init__(
        self,
        feasible: bool,
        witness: tuple[Fraction, ...] | None = None,
        certificate: Mapping[str, Fraction] | None = None,
        objective_value: Fraction | None = None,
    ) -> None:
        _set(self, "feasible", feasible)
        _set(self, "witness", witness)
        _set(self, "certificate", certificate)
        _set(self, "objective_value", objective_value)

    def to_dict(self) -> dict:
        out: dict = {"feasible": self.feasible}
        if self.witness is not None:
            out["witness"] = [str(v) for v in self.witness]
        if self.certificate is not None:
            out["certificate"] = {cid: str(v) for cid, v in self.certificate.items()}
        if self.objective_value is not None:
            out["objective_value"] = str(self.objective_value)
        return out


def _variable_name(outcome: int, point: Point) -> str:
    return f"x{outcome}@{format_point(point)}"


def _synthesis_variables(spec: SynthesisSpec) -> tuple[str, ...]:
    # k-major: variable (k, p) sits at index (k-1)*|points| + point_index(p).
    return tuple(
        _variable_name(k, p)
        for k in range(1, spec.outcome_count + 1)
        for p in spec.space.points
    )


def _norm_rows(spec: SynthesisSpec) -> list[Constraint]:
    """One equality sum_k x(k, p) = 1 per point."""
    size = spec.space.size
    outcomes = range(spec.outcome_count)
    return [
        Constraint(
            f"norm@{format_point(point)}",
            tuple((k * size + p_idx, _F1) for k in outcomes),
            _F1,
            "eq",
        )
        for p_idx, point in enumerate(spec.space.points)
    ]


def _weight_parts(spec: SynthesisSpec, prep: EpistemicState):
    """(point index, rational part, sqrt2 part) of each weight, by point index."""
    return sorted(
        (spec.space.point_index(point), weight.rat, weight.irr)
        for point, weight in prep.weights.items()
    )


def build_synthesis_lp(spec: SynthesisSpec) -> LPProblem:
    """Encode the synthesis question as a rational feasibility LP.

    Emits one normalization equality per point and, per (preparation,
    outcome) cell, the 1-component row and, when any sqrt2 component is
    present, the sqrt2-component row.  Rows that are identically 0 = 0 are
    dropped.
    """
    size = spec.space.size
    constraints = _norm_rows(spec)
    for (label, prep), target_row in zip(spec.preparations, spec.targets):
        parts = _weight_parts(spec, prep)
        any_irr = any(w_irr for _, _, w_irr in parts)
        for k in range(1, spec.outcome_count + 1):
            base = (k - 1) * size
            rat = tuple((base + p_idx, w_rat) for p_idx, w_rat, _ in parts if w_rat)
            t_rat, t_irr = target_row[k - 1].rat, target_row[k - 1].irr
            if rat or t_rat:
                constraints.append(Constraint(f"born@{label}#k{k}", rat, t_rat, "eq"))
            if any_irr or t_irr:
                irr = tuple((base + p_idx, w_irr) for p_idx, _, w_irr in parts if w_irr)
                constraints.append(Constraint(f"born@{label}#k{k}:irr", irr, t_irr, "eq"))
    return LPProblem(_synthesis_variables(spec), tuple(constraints))


# ---- exact simplex ---------------------------------------------------------


# The tableau T is a list of sparse integer rows: the constraint rows, one
# per basis entry, then the objective rows.  Its columns are the LP's
# variables, one slack per '<=' row in row order, one artificial per row,
# and the rhs under column n + m; a row is a dict from column to nonzero
# int, and a column it lacks holds 0.  The last row is the z row that
# Bland's rule prices.  An optimizing run puts its cost row just before
# the phase-1 z row, so phase 1 has two objective rows; the cost row is
# reduced by every pivot like any other row and becomes phase 2's z row
# once the phase-1 row is popped.  D holds one denominator per row: row i
# stands for the rationals T[i][j] / D[i], with D[i] > 0 and
# gcd(D[i], *T[i].values()) == 1.  A sign test reads the numerator alone,
# and every value is the rational a Fraction tableau would hold, so Bland's
# rule makes the same pivots.  A constraint row also holds its basic entry
# as T[i][basis[i]] == D[i], so its gcd is 1 and scaling the pivot row to a
# unit pivot needs at most a sign flip.  Each pivot reads T once to list
# the rows that hold the entering column, with their entries (_column); the
# ratio test walks the constraint rows of that list, and _pivot updates
# exactly its rows, so the rows without the column are not read again.


def _pivot(
    T: list[dict[int, int]],
    D: list[int],
    basis: list[int],
    r: int,
    col: int,
    hits: list[tuple[int, int]],
) -> None:
    """Pivot on T[r][col]: scale row r to a unit pivot, clear ``col`` from every other row.

    ``hits`` lists ``(i, T[i][col])`` for every row i that holds ``col``, in
    row order and row r included (``_column``); only those rows change.
    """
    prow = T[r]
    pd = prow[col]
    if pd < 0:
        T[r] = prow = {j: -v for j, v in prow.items()}
        pd = -pd
    D[r] = pd
    for i, f in hits:
        if i == r:
            continue
        # N/d - (f/d) * prow/pd == (s*N - f'*prow) / (s*d), s = pd/g, f' = f/g.
        row = T[i]
        g = gcd(f, pd)
        s, f = pd // g, f // g
        d = D[i]
        if s != 1:
            row = {j: s * a for j, a in row.items()}
            d *= s
        for j, b in prow.items():
            a = row.get(j, 0) - f * b
            if a:
                row[j] = a
            else:
                del row[j]
        if d != 1:
            g = gcd(d, *row.values())
            if g != 1:
                row = {j: a // g for j, a in row.items()}
                d //= g
        T[i] = row
        D[i] = d
    basis[r] = col


def _column(T: list[dict[int, int]], col: int) -> list[tuple[int, int]]:
    """``(i, T[i][col])`` for every row i that holds ``col``, in row order."""
    return [(i, row[col]) for i, row in enumerate(T) if col in row]


def _bland(
    T: list[dict[int, int]], D: list[int], basis: list[int], eligible: int, R: int
) -> str:
    """Run Bland's-rule pivots to optimality.

    ``eligible`` bounds the entering columns; ``R`` is the rhs column.  The
    last row is priced.  One pass over T finds the rows that hold the
    entering column; the ratio test walks the constraint rows among them and
    the pivot clears the column from exactly those rows, so a cost row
    riding along in phase 1 is updated but never read.
    """
    m = len(basis)
    while True:
        z = T[-1]
        enter = -1
        for j in range(eligible):
            if z.get(j, 0) < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        hits = _column(T, enter)
        # The ratio of row i is T[i][R] / T[i][enter]: its denominator cancels.
        leave = -1
        for i, a in hits:
            if i >= m:
                break  # the objective rows come last
            if a > 0:
                rhs = T[i].get(R, 0)
                if leave >= 0:
                    lhs, best = rhs * best_a, best_rhs * a
                    if lhs > best or (lhs == best and basis[i] > basis[leave]):
                        continue
                best_rhs, best_a, leave = rhs, a, i
        if leave < 0:
            return "unbounded"
        _pivot(T, D, basis, leave, enter, hits)


def _simplex(lp: LPProblem) -> FeasibilityResult:
    """Decide ``lp`` over x >= 0 exactly; minimize its objective when it has one.

    Returns a witness, with the optimal value of ``lp.objective`` if there is
    one, or a Farkas certificate keyed by constraint id: multipliers y with
    sum_i y_i A_i <= 0 componentwise, y.b > 0 and y_i <= 0 on '<=' rows.
    """
    cons = lp.constraints
    n0 = len(lp.variables)
    m = len(cons)
    n = n0 + sum(con.kind == "le" for con in cons)  # a slack column per '<=' row
    R = n + m  # the rhs column

    flips: list[int] = []
    T: list[dict[int, int]] = []
    D: list[int] = []
    slack = n0
    for i, con in enumerate(cons):
        # The constraint's integer row, sign-flipped so that the rhs is
        # nonnegative; the artificial column holds d.
        d, rhs = con.den, con.rhs_num
        f = -1 if rhs < 0 else 1
        row = {j: f * a for (j, _), a in zip(con.coeffs, con.nums)}
        if con.kind == "le":
            row[slack] = f * d
            slack += 1
        row[n + i] = d
        if rhs:
            row[R] = f * rhs
        flips.append(f)
        T.append(row)
        D.append(d)
    basis = list(range(n, n + m))

    # Phase 1: minimize the artificial total. Initial reduced costs are the
    # negated column sums; the artificial columns start at zero.
    zd = lcm(*D)
    z: dict[int, int] = {}
    for i, (row, d) in enumerate(zip(T, D)):
        s = zd // d
        for j, v in row.items():
            if j != n + i:
                z[j] = z.get(j, 0) - s * v
    if lp.objective is not None:
        # The cost row: its reduced costs against the artificial basis are
        # the objective itself, over the lcm of its denominators.
        cd = lcm(*(v.denominator for v in lp.objective))
        T.append(
            {j: v.numerator * (cd // v.denominator) for j, v in enumerate(lp.objective) if v}
        )
        D.append(cd)
    g = gcd(zd, *z.values())
    T.append({j: v // g for j, v in z.items() if v})
    D.append(zd // g)
    if _bland(T, D, basis, n + m, R) != "optimal":
        raise AssertionError("phase 1 is always bounded below by zero")
    z, zd = T.pop(), D.pop()
    if z.get(R, 0) < 0:
        # The artificial total -z[R] is positive. Simplex multipliers: the
        # reduced cost of artificial i is 1 - y_i.
        certificate = {}
        for i, con in enumerate(cons):
            y = zd - z.get(n + i, 0)
            if y:
                certificate[con.cid] = Fraction(flips[i] * y, zd)
        return FeasibilityResult(False, certificate=certificate)

    value = None
    if lp.objective is not None:
        # Drive artificials out of the basis; rows that cannot pivot are
        # redundant (zero in every original column, zero rhs) and are dropped.
        keep: list[int] = []
        for r in range(m):
            if basis[r] >= n:
                col = min((j for j in T[r] if j < n), default=None)
                if col is None:
                    continue  # redundant row
                _pivot(T, D, basis, r, col, _column(T, col))
            keep.append(r)
        basis = [basis[r] for r in keep]
        if any(var >= n for var in basis):
            raise AssertionError("artificial variable left in the basis after cleanup")
        keep.append(m)  # the cost row, now phase 2's z row
        T = [T[r] for r in keep]
        D = [D[r] for r in keep]
        if _bland(T, D, basis, n, R) == "unbounded":
            raise ValueError("objective is unbounded below")
        value = Fraction(-T[-1].get(R, 0), D[-1])
    x = [_F0] * n0
    for r, var in enumerate(basis):
        if var < n0:
            x[var] = Fraction(T[r].get(R, 0), D[r])
    return FeasibilityResult(True, witness=tuple(x), objective_value=value)


def _solve(lp: LPProblem) -> FeasibilityResult:
    result = _simplex(lp)
    verdict = verify_certificate(lp, result)
    if not verdict.ok:
        raise AssertionError(
            "internal verification failed: " + "; ".join(verdict.failures)
        )
    return result


def solve_feasibility(lp: LPProblem) -> FeasibilityResult:
    """Decide the system exactly: witness if feasible, certificate if not.

    An LP with an objective is minimized: the witness is optimal and
    ``objective_value`` holds its value.  Whatever it returns has already
    passed verify_certificate.
    """
    return _solve(lp)


def _inexact(kind: str, name: str, value) -> str:
    return f"{kind} {name} is not an int or Fraction: {type(value).__name__} {value!r}"


def verify_certificate(lp: LPProblem, result: FeasibilityResult) -> Verdict:
    """Re-check a witness or certificate against the constraint list.

    This is an independent pass over the stated constraints: a witness must
    satisfy every row and be nonnegative; a certificate's multipliers must
    recombine the rows into an impossibility (nonpositive combination with
    positive right-hand side, nonpositive multipliers on '<=' rows).  A
    feasible result's objective_value, when given, must be the witness's
    value of the LP's objective, which must exist.  Every value must be an
    int or Fraction; any other fails by name.

    The check is exact integer arithmetic on each row's integer form
    (Constraint.den, nums, rhs_num).  A witness is put over one common
    denominator L of its nonzero values, and its objective value is checked
    over L too; a certificate over one M, the lcm of multiplier denominator
    times row ``den``.  A Fraction is made only to print a failure.
    """
    if result.feasible:
        x = result.witness
        if x is None:
            return Verdict(False, ("feasible result carries no witness",))
        if len(x) != len(lp.variables):
            return Verdict(False, (f"witness has {len(x)} values, expected {len(lp.variables)}",))
        failures = [
            _inexact("variable", lp.variables[j], value)
            for j, value in enumerate(x)
            if not isinstance(value, (int, Fraction))
        ]
        if failures:
            return Verdict(False, tuple(failures))
        support = [(j, value.numerator, value.denominator) for j, value in enumerate(x) if value]
        # X[j] / L == x[j], so a row's lhs is its integer dot product / (den * L).
        L = lcm(*[d for _, _, d in support])
        X = [0] * len(x)
        for j, a, d in support:
            if a < 0:
                failures.append(f"variable {lp.variables[j]} is negative: {x[j]}")
            X[j] = a * (L // d)
        for con in lp.constraints:
            lhs = 0
            for (j, _), a in zip(con.coeffs, con.nums):
                lhs += a * X[j]
            rhs = con.rhs_num * L
            if con.kind == "eq" and lhs != rhs:
                value = Fraction(lhs, con.den * L)
                failures.append(f"constraint {con.cid} violated: lhs {value}, rhs {con.rhs}")
            elif con.kind == "le" and lhs > rhs:
                value = Fraction(lhs, con.den * L)
                failures.append(f"constraint {con.cid} violated: lhs {value} > rhs {con.rhs}")
        claimed = result.objective_value
        if claimed is not None:
            if lp.objective is None:
                failures.append(f"objective value {claimed} given for an LP without an objective")
            elif not isinstance(claimed, (int, Fraction)):
                failures.append(_inexact("objective", "value", claimed))
            else:
                # sum_j c_j x_j == C / (cd * L), with C an integer dot product.
                cd = lcm(*[c.denominator for c in lp.objective])
                C = sum(c.numerator * (cd // c.denominator) * X[j]
                        for j, c in enumerate(lp.objective) if c)
                if C * claimed.denominator != claimed.numerator * cd * L:
                    failures.append(
                        f"objective value {claimed} is not the witness's {Fraction(C, cd * L)}"
                    )
        return Verdict(not failures, tuple(failures))

    cert = result.certificate
    if cert is None:
        return Verdict(False, ("infeasible result carries no certificate",))
    by_cid = {con.cid: con for con in lp.constraints}
    unknown = sorted(set(cert) - set(by_cid))
    if unknown:
        return Verdict(False, (f"certificate references unknown constraints: {unknown}",))
    failures = [
        _inexact("multiplier for", cid, mult)
        for cid, mult in cert.items()
        if not isinstance(mult, (int, Fraction))
    ]
    if failures:
        return Verdict(False, tuple(failures))
    failures = [
        f"multiplier for '<=' row {cid} must be <= 0, got {mult}"
        for cid, mult in cert.items()
        if mult > 0 and by_cid[cid].kind == "le"
    ]
    used = [(by_cid[cid], mult) for cid, mult in cert.items() if mult]
    # Row i scaled by y_i is s_i * nums / M with s_i = y_i * M / den_i, an integer.
    M = lcm(*(mult.denominator * con.den for con, mult in used))
    combo = [0] * len(lp.variables)
    total = 0
    for con, mult in used:
        s = mult.numerator * (M // (mult.denominator * con.den))
        for (j, _), a in zip(con.coeffs, con.nums):
            combo[j] += s * a
        total += s * con.rhs_num
    for j, value in enumerate(combo):
        if value > 0:
            failures.append(
                f"combined coefficient of {lp.variables[j]} is {Fraction(value, M)}, not <= 0"
            )
    if total <= 0:
        failures.append(f"combined right-hand side is {Fraction(total, M)}, not > 0")
    return Verdict(not failures, tuple(failures))


# ---- violation floor ---------------------------------------------------------


class MinViolationResult(Record):
    _fields = ("value", "lp", "raw")

    def __init__(self, value: QSqrt2, lp: LPProblem, raw: FeasibilityResult) -> None:
        _set(self, "value", value)
        _set(self, "lp", lp)
        _set(self, "raw", raw)


def build_min_violation_lp(
    spec: SynthesisSpec, forbidden: Sequence[tuple[str, int]]
) -> LPProblem:
    """LP for the smallest achievable cap t on the forbidden cells.

    Keeps only normalization and nonnegativity, plus one row per forbidden
    (preparation, outcome) cell bounding its predicted probability by t.
    Requires rational preparation weights (field inequalities do not split
    componentwise) and zero targets on the forbidden cells.
    """
    n = spec.variable_count
    size = spec.space.size
    variables = _synthesis_variables(spec) + ("t",)
    constraints = _norm_rows(spec)
    seen = set()
    for label, k in forbidden:
        if not 1 <= k <= spec.outcome_count:
            raise ValueError(f"outcome {k} out of range 1..{spec.outcome_count}")
        if (label, k) in seen:
            raise ValueError(f"forbidden cell ({label}, {k}) listed twice")
        seen.add((label, k))
        i = spec.prep_index(label)
        if spec.targets[i][k - 1] != ZERO:
            raise ValueError(
                f"forbidden cell ({label}, {k}) has nonzero target {spec.targets[i][k - 1]}"
            )
        prep = spec.preparations[i][1]
        coeffs = []
        for p_idx, w_rat, w_irr in _weight_parts(spec, prep):
            if w_irr:
                point = spec.space.points[p_idx]
                raise ValueError(
                    "violation floor requires rational preparation weights; "
                    f"{label!r} has {prep.weights[point]} at {format_point(point)}"
                )
            coeffs.append(((k - 1) * size + p_idx, w_rat))
        coeffs.append((n, -_F1))
        constraints.append(Constraint(f"cap@{label}#k{k}", tuple(coeffs), _F0, "le"))
    objective = tuple([_F0] * n + [_F1])
    return LPProblem(variables, tuple(constraints), objective)


def solve_min_violation(
    spec: SynthesisSpec, forbidden: Sequence[tuple[str, int]]
) -> MinViolationResult:
    """The exact optimum (``.value``): how badly any response family must violate the zeros."""
    lp = build_min_violation_lp(spec, forbidden)
    result = _solve(lp)
    return MinViolationResult(QSqrt2(result.objective_value), lp, result)


# ---- bridges to response functions -------------------------------------------


def extract_responses(spec: SynthesisSpec, witness: Sequence[Fraction]) -> ResponseFunctions:
    """Turn an LP witness back into a dense response-function family."""
    n = spec.variable_count
    if len(witness) < n:
        raise ValueError(f"witness has {len(witness)} values, expected at least {n}")
    size = spec.space.size
    rows = {
        point: tuple(
            QSqrt2(Fraction(witness[k * size + p_idx]))
            for k in range(spec.outcome_count)
        )
        for p_idx, point in enumerate(spec.space.points)
    }
    return ResponseFunctions(spec.space, spec.outcome_count, rows)


def responses_to_witness(
    spec: SynthesisSpec, responses: ResponseFunctions
) -> tuple[Fraction, ...]:
    """Flatten response functions into LP variable order (rational values only)."""
    if responses.space != spec.space:
        raise ValueError("response functions live on a different space")
    if responses.outcome_count != spec.outcome_count:
        raise ValueError("outcome count mismatch")
    values: list[Fraction] = []
    for k in range(1, spec.outcome_count + 1):
        for point in spec.space.points:
            value = responses.rows[point][k - 1]
            if value.irr:
                raise ValueError(
                    f"response value {value} at {format_point(point)} is not rational"
                )
            values.append(value.rat)
    return tuple(values)
