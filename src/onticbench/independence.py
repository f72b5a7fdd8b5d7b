"""Independence structure and overlap of epistemic states.

Two grades of independence matter for composite preparations:

  * preparation independence: the joint distribution is the product of
    the subsystem distributions over the declared subsystem factors;
  * local independence: the same product condition, demanded only after
    marginalizing out designated inaccessible factors.

A joint distribution can be locally independent while failing to be a
product over its full factor list; the gap is exactly what relational
(shared) ontic variables buy.  Full independence over every factor always
implies local independence over any accessible subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

from .numerics import ONE, QSqrt2, ZERO, qmin
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
    positions = [joint.space.factor_names.index(name) for name in space.factor_names]
    totals: Dict[Point, QSqrt2] = {}
    for point, weight in joint.weights.items():
        reduced = tuple(point[i] for i in positions)
        totals[reduced] = totals.get(reduced, ZERO) + weight
    return EpistemicState(space, totals)


def _first_mismatch(
    joint: EpistemicState, product: Callable[[Point], QSqrt2], what: str
) -> Verdict:
    """Compare the joint with ``product(point)`` point by point, in canonical order.

    The verdict's witnesses carry the first counterexample point with the
    two values; ``what`` names the product side in the failure text.
    """
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


def check_preparation_independence(
    joint: EpistemicState, mu: EpistemicState, nu: EpistemicState
) -> Verdict:
    """Is the joint exactly the product mu (x) nu over its full space?

    The joint's factor list must be mu's factors followed by nu's.
    """
    expected_factors = mu.space.factors + nu.space.factors
    if joint.space.factors != expected_factors:
        raise ValueError(
            "joint space must be the subsystem spaces in order: "
            f"{[f.name for f in expected_factors]} vs {list(joint.space.factor_names)}"
        )
    split = len(mu.space.factors)
    return _first_mismatch(
        joint,
        lambda point: mu.weight(point[:split]) * nu.weight(point[split:]),
        "product weight",
    )


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

    def product(point: Point) -> QSqrt2:
        product_w = ONE
        for coord, marginal in zip(point, marginals):
            product_w = product_w * marginal.weight((coord,))
        return product_w

    return _first_mismatch(joint, product, "marginal product")


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
    """Report the three independence verdicts for each preparation.

    Subsystem distributions are the joint's marginals on the first
    accessible factor and on the remaining accessible ones (the unique
    candidate factors).  Requires distinct ``inaccessible`` names and at
    least two accessible factors per preparation.

    ``prep_independent`` and ``locally_independent`` are one verdict, the
    product check on the accessible marginal, reported under both names
    (ROADMAP 8(a)); separating them changes golden-pinned report bytes.
    """
    inaccessible = tuple(inaccessible)
    if len(set(inaccessible)) != len(inaccessible):
        raise ValueError(f"duplicate inaccessible factor names in {inaccessible}")
    states: Dict[str, StateIndependence] = {}
    for label in sorted(preparations):
        joint = preparations[label]
        names = joint.space.factor_names
        accessible = [n for n in names if n not in set(inaccessible)]
        if len(accessible) < 2:
            raise ValueError(
                f"preparation {label!r} has fewer than two accessible factors"
            )
        mu = marginalize(joint, accessible[:1])
        nu = marginalize(joint, accessible[1:])
        local_v = check_local_independence(joint, mu, nu, inaccessible)
        full_v = check_full_independence(joint)
        witnesses = tuple(
            w[0] for v in (local_v, local_v, full_v) for w in v.witnesses
        )
        states[label] = StateIndependence(local_v, local_v, full_v, witnesses)
    overlaps: Dict[Tuple[str, str], QSqrt2] = {}
    labels = sorted(preparations)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            overlaps[(a, b)] = classical_overlap(preparations[a], preparations[b])
    return IndependenceReport(states, overlaps)
