"""Independence structure of epistemic states and response functions.

Two grades of independence matter for composite preparations:

  * preparation independence: the joint distribution is the product of
    the subsystem distributions over the declared subsystem factors;
  * local independence: the same product condition, demanded only after
    marginalizing out designated inaccessible factors.

A joint distribution can be locally independent while failing to be a
product over its full factor list; the gap is exactly what relational
(shared) ontic variables buy.  Full independence over every factor always
implies local independence over any accessible subset.

The module also hosts the classical overlap of two distributions and a
factorizability check for two-party response tables (parameter
independence plus outcome independence, with the marginals as the unique
candidate factors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from .numerics import ONE, QSqrt2, ZERO, as_qsqrt2, qmin
from .ontology import EpistemicState, OnticSpace, Point, format_point
from .verdicts import Verdict


def product_state(mu: EpistemicState, nu: EpistemicState) -> EpistemicState:
    """The product distribution on the concatenated factor list."""
    shared = set(mu.space.factor_names) & set(nu.space.factor_names)
    if shared:
        raise ValueError(f"factor names must be disjoint, both sides have {sorted(shared)}")
    space = OnticSpace(mu.space.factors + nu.space.factors)
    weights = {
        p + q: wp * wq
        for p, wp in mu.weights.items()
        for q, wq in nu.weights.items()
    }
    return EpistemicState(space, weights)


def marginalize(joint: EpistemicState, keep: Sequence[str]) -> EpistemicState:
    """Sum out every factor not named in ``keep`` (order follows the space)."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one factor")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate factor names in {keep}")
    space = joint.space.subspace(keep)  # validates the names
    totals: Dict[Point, QSqrt2] = {}
    for point, weight in joint.weights.items():
        reduced = joint.space.project(point, keep)
        totals[reduced] = totals.get(reduced, ZERO) + weight
    return EpistemicState(space, totals)


def check_preparation_independence(
    joint: EpistemicState, mu: EpistemicState, nu: EpistemicState
) -> Verdict:
    """Is the joint exactly the product mu (x) nu over its full space?

    The joint's factor list must be mu's factors followed by nu's.  The
    verdict's witnesses carry the first counterexample point in canonical
    order, with the two values.
    """
    expected_factors = mu.space.factors + nu.space.factors
    if joint.space.factors != expected_factors:
        raise ValueError(
            "joint space must be the subsystem spaces in order: "
            f"{[f.name for f in expected_factors]} vs {list(joint.space.factor_names)}"
        )
    split = len(mu.space.factors)
    for point in joint.space.points:
        left, right = point[:split], point[split:]
        joint_w = joint.weight(point)
        product_w = mu.weight(left) * nu.weight(right)
        if joint_w != product_w:
            return Verdict(
                False,
                (
                    f"at {format_point(point)}: joint weight {joint_w}, "
                    f"product weight {product_w}",
                ),
                ((point, joint_w, product_w),),
            )
    return Verdict(True)


def check_local_independence(
    joint: EpistemicState,
    mu: EpistemicState,
    nu: EpistemicState,
    inaccessible: Sequence[str],
) -> Verdict:
    """Preparation independence after marginalizing out inaccessible factors."""
    inaccessible = tuple(inaccessible)
    names = set(joint.space.factor_names)
    unknown = set(inaccessible) - names
    if unknown:
        raise ValueError(f"inaccessible factors {sorted(unknown)} are not in the joint space")
    overlap = set(inaccessible) & (set(mu.space.factor_names) | set(nu.space.factor_names))
    if overlap:
        raise ValueError(f"inaccessible factors {sorted(overlap)} belong to a subsystem")
    accessible = [n for n in joint.space.factor_names if n not in set(inaccessible)]
    reduced = marginalize(joint, accessible) if inaccessible else joint
    return check_preparation_independence(reduced, mu, nu)


def single_factor_marginals(joint: EpistemicState) -> Tuple[EpistemicState, ...]:
    return tuple(marginalize(joint, (name,)) for name in joint.space.factor_names)


def check_full_independence(joint: EpistemicState) -> Verdict:
    """Is the joint the product of all of its single-factor marginals?

    The marginals are the only possible factors, so this decides whether
    any product decomposition over the full factor list exists.
    """
    marginals = single_factor_marginals(joint)
    for point in joint.space.points:
        joint_w = joint.weight(point)
        product_w = ONE
        for coord, marginal in zip(point, marginals):
            product_w = product_w * marginal.weight((coord,))
        if joint_w != product_w:
            return Verdict(
                False,
                (
                    f"at {format_point(point)}: joint weight {joint_w}, "
                    f"marginal product {product_w}",
                ),
                ((point, joint_w, product_w),),
            )
    return Verdict(True)


def classical_overlap(mu: EpistemicState, nu: EpistemicState) -> QSqrt2:
    """sum_p min(mu(p), nu(p)): 1 iff equal, 0 iff disjoint supports."""
    if mu.space != nu.space:
        raise ValueError("overlap requires a shared ontic space")
    total = ZERO
    for point in mu.support():
        other = nu.weights.get(point)
        if other is not None:
            total = total + qmin(mu.weights[point], other)
    return total


# ---- two-party response tables ---------------------------------------------


@dataclass(frozen=True)
class JointResponseTable:
    """Joint outcome probabilities p(a, b | point, setting_a, setting_b).

    Outcomes are 1-based on each side.  The table must contain every key;
    rows (fixed point and settings) must be normalized, which construction
    enforces since an unnormalized row makes factorizability meaningless.
    """

    outcomes_a: int
    outcomes_b: int
    points: Tuple[Point, ...]
    settings_a: Tuple[str, ...]
    settings_b: Tuple[str, ...]
    table: Mapping[Tuple[int, int, Point, str, str], QSqrt2]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        object.__setattr__(self, "settings_a", tuple(self.settings_a))
        object.__setattr__(self, "settings_b", tuple(self.settings_b))
        cleaned = {}
        for (a, b, point, sa, sb), value in self.table.items():
            cleaned[(a, b, tuple(point), sa, sb)] = as_qsqrt2(value)
        object.__setattr__(self, "table", cleaned)
        for point in self.points:
            for sa in self.settings_a:
                for sb in self.settings_b:
                    total = ZERO
                    for a in range(1, self.outcomes_a + 1):
                        for b in range(1, self.outcomes_b + 1):
                            key = (a, b, point, sa, sb)
                            if key not in self.table:
                                raise ValueError(f"missing table entry {key}")
                            total = total + self.table[key]
                    if total != ONE:
                        raise ValueError(
                            f"row at point {format_point(point)}, settings "
                            f"({sa}, {sb}) sums to {total}, not 1"
                        )

    def prob(self, a: int, b: int, point: Point, sa: str, sb: str) -> QSqrt2:
        return self.table[(a, b, tuple(point), sa, sb)]

    def marginal_a(self, a: int, point: Point, sa: str, sb: str) -> QSqrt2:
        total = ZERO
        for b in range(1, self.outcomes_b + 1):
            total = total + self.prob(a, b, point, sa, sb)
        return total

    def marginal_b(self, b: int, point: Point, sa: str, sb: str) -> QSqrt2:
        total = ZERO
        for a in range(1, self.outcomes_a + 1):
            total = total + self.prob(a, b, point, sa, sb)
        return total


def check_factorizability(joint: JointResponseTable) -> Verdict:
    """Does the table factor as xi_A(a | point, s_A) * xi_B(b | point, s_B)?

    Checked in two stages, because the factors are forced: first parameter
    independence (each side's marginal ignores the other side's setting),
    then outcome independence (the joint equals the product of marginals).
    The verdict names the stage and the witness tuple that fails.
    """
    # Stage 1: parameter independence.
    for point in joint.points:
        for a in range(1, joint.outcomes_a + 1):
            for sa in joint.settings_a:
                reference = joint.marginal_a(a, point, sa, joint.settings_b[0])
                for sb in joint.settings_b[1:]:
                    other = joint.marginal_a(a, point, sa, sb)
                    if other != reference:
                        return Verdict(
                            False,
                            (
                                "parameter independence fails on side A: "
                                f"p(a={a} | {format_point(point)}, {sa}) is {reference} "
                                f"under setting {joint.settings_b[0]} but {other} under {sb}",
                            ),
                            (("A", a, point, sa, sb),),
                        )
        for b in range(1, joint.outcomes_b + 1):
            for sb in joint.settings_b:
                reference = joint.marginal_b(b, point, joint.settings_a[0], sb)
                for sa in joint.settings_a[1:]:
                    other = joint.marginal_b(b, point, sa, sb)
                    if other != reference:
                        return Verdict(
                            False,
                            (
                                "parameter independence fails on side B: "
                                f"p(b={b} | {format_point(point)}, {sb}) is {reference} "
                                f"under setting {joint.settings_a[0]} but {other} under {sa}",
                            ),
                            (("B", b, point, sa, sb),),
                        )
    # Stage 2: outcome independence against the (now well-defined) marginals.
    for point in joint.points:
        for sa in joint.settings_a:
            for sb in joint.settings_b:
                for a in range(1, joint.outcomes_a + 1):
                    pa = joint.marginal_a(a, point, sa, sb)
                    for b in range(1, joint.outcomes_b + 1):
                        pb = joint.marginal_b(b, point, sa, sb)
                        pab = joint.prob(a, b, point, sa, sb)
                        if pab != pa * pb:
                            return Verdict(
                                False,
                                (
                                    "outcome independence fails: "
                                    f"p({a},{b} | {format_point(point)}, {sa}, {sb}) = {pab}, "
                                    f"marginal product = {pa * pb}",
                                ),
                                ((a, b, point, sa, sb),),
                            )
    return Verdict(True)


# ---- model-level report ------------------------------------------------------


@dataclass(frozen=True)
class StateIndependence:
    """Independence verdicts for one composite preparation."""

    prep_independent: Verdict
    locally_independent: Verdict
    fully_independent: Verdict
    witness_points: Tuple[Point, ...]

    def to_dict(self) -> dict:
        return {
            "prep_independent": self.prep_independent.to_dict(),
            "locally_independent": self.locally_independent.to_dict(),
            "fully_independent": self.fully_independent.to_dict(),
            "witness_points": [format_point(p) for p in self.witness_points],
        }


@dataclass(frozen=True)
class IndependenceReport:
    """Per-preparation independence verdicts plus pairwise overlaps."""

    states: Mapping[str, StateIndependence]
    overlaps: Mapping[Tuple[str, str], QSqrt2]

    def to_dict(self) -> dict:
        return {
            "states": {label: s.to_dict() for label, s in self.states.items()},
            "overlaps": {
                f"{a}|{b}": str(v) for (a, b), v in self.overlaps.items()
            },
        }


def analyze_independence(
    preparations: Mapping[str, EpistemicState],
    inaccessible: Sequence[str] = (),
) -> IndependenceReport:
    """Run all three independence checks on each preparation.

    Subsystem distributions are taken to be the accessible marginal's own
    single-factor marginals (the unique candidate factors).  Requires at
    least two accessible factors per preparation.
    """
    inaccessible = tuple(inaccessible)
    states: Dict[str, StateIndependence] = {}
    for label in sorted(preparations):
        joint = preparations[label]
        names = joint.space.factor_names
        accessible = [n for n in names if n not in set(inaccessible)]
        if len(accessible) < 2:
            raise ValueError(
                f"preparation {label!r} has fewer than two accessible factors"
            )
        reduced = marginalize(joint, accessible) if inaccessible else joint
        mu = marginalize(reduced, accessible[:1])
        nu = marginalize(reduced, accessible[1:])
        prep_v = check_preparation_independence(reduced, mu, nu)
        local_v = check_local_independence(joint, mu, nu, inaccessible)
        full_v = check_full_independence(joint)
        witnesses = tuple(
            w[0] for v in (prep_v, local_v, full_v) for w in v.witnesses
        )
        states[label] = StateIndependence(prep_v, local_v, full_v, witnesses)
    overlaps: Dict[Tuple[str, str], QSqrt2] = {}
    labels = sorted(preparations)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            overlaps[(a, b)] = classical_overlap(preparations[a], preparations[b])
    return IndependenceReport(states, overlaps)
