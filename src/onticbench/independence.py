"""Independence structure and overlap of epistemic states.

One check, ``check_local_independence``, serves both grades of
independence for composite preparations: the joint distribution must be
the product of the subsystem distributions once the inaccessible factors,
its argument, are summed out.  With none hidden it is PBR's preparation
independence over the full factor list.

A joint distribution can be locally independent while failing to be a
product over its full factor list; the gap is exactly what relational
(shared) ontic variables buy.  Full independence over every factor always
implies local independence over any accessible subset.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .numerics import ONE, QSqrt2, ZERO
from .ontology import EpistemicState, OnticSpace, Point, format_point
from .verdicts import Record, Verdict, _set


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
    totals: dict[Point, QSqrt2] = {}
    for point, weight in joint.weights.items():
        reduced = tuple(point[i] for i in positions)
        totals[reduced] = totals.get(reduced, ZERO) + weight
    return EpistemicState(space, totals)


def _first_mismatch(
    joint: EpistemicState, factors: Sequence[tuple[EpistemicState, slice]], what: str
) -> Verdict:
    """Compare the joint with the product of ``factors`` point by point, in canonical order.

    Each factor is a state and the slice that picks its point out of a joint
    point.  The verdict's witnesses carry the first counterexample point with
    the two values; ``what`` names the product side in the failure text.
    """
    for point in joint.space.points:
        joint_w = joint.weight(point)
        product_w = ONE
        for state, part in factors:
            product_w = product_w * state.weight(point[part])
        if joint_w != product_w:
            return Verdict(
                False,
                (f"at {format_point(point)}: joint weight {joint_w}, {what} {product_w}",),
                ((point, joint_w, product_w),),
            )
    return Verdict(True)


def check_local_independence(
    joint: EpistemicState,
    mu: EpistemicState,
    nu: EpistemicState,
    inaccessible: Sequence[str] = (),
) -> Verdict:
    """Is the joint, with the inaccessible factors summed out, exactly mu (x) nu?

    With nothing inaccessible (the default) this is PBR's preparation
    independence over the full space.  The remaining factor list must be
    mu's factors followed by nu's.
    """
    inaccessible = tuple(inaccessible)
    names = set(joint.space.factor_names)
    unknown = set(inaccessible) - names
    if unknown:
        raise ValueError(f"inaccessible factors {sorted(unknown)} are not in the joint space")
    overlap = set(inaccessible) & (set(mu.space.factor_names) | set(nu.space.factor_names))
    if overlap:
        raise ValueError(f"inaccessible factors {sorted(overlap)} belong to a subsystem")
    if inaccessible:
        joint = marginalize(joint, [n for n in joint.space.factor_names if n not in inaccessible])
    expected_factors = mu.space.factors + nu.space.factors
    if joint.space.factors != expected_factors:
        raise ValueError(
            "joint space must be the subsystem spaces in order: "
            f"{[f.name for f in expected_factors]} vs {list(joint.space.factor_names)}"
        )
    split = len(mu.space.factors)
    return _first_mismatch(
        joint, ((mu, slice(split)), (nu, slice(split, None))), "product weight"
    )


def check_full_independence(joint: EpistemicState) -> Verdict:
    """Is the joint the product of all of its single-factor marginals?

    The marginals are the only possible factors, so this decides whether
    any product decomposition over the full factor list exists.
    """
    factors = [
        (marginalize(joint, (name,)), slice(i, i + 1))
        for i, name in enumerate(joint.space.factor_names)
    ]
    return _first_mismatch(joint, factors, "marginal product")


def classical_overlap(mu: EpistemicState, nu: EpistemicState) -> QSqrt2:
    """sum_p min(mu(p), nu(p)): 1 iff equal, 0 iff disjoint supports."""
    if mu.space != nu.space:
        raise ValueError("overlap requires a shared ontic space")
    total = ZERO
    for point in mu.support():
        other = nu.weights.get(point)
        if other is not None:
            total = total + min(mu.weights[point], other)
    return total


# ---- model-level report ------------------------------------------------------


class StateIndependence(Record):
    """The local and the full independence verdict of one composite preparation."""

    _fields = ("prep_independent", "locally_independent", "fully_independent", "witness_points")
    _compared = ("locally_independent", "fully_independent")

    def __init__(self, locally_independent: Verdict, fully_independent: Verdict) -> None:
        _set(self, "locally_independent", locally_independent)
        _set(self, "fully_independent", fully_independent)

    @property
    def prep_independent(self) -> Verdict:
        """The local verdict under its PBR name."""
        return self.locally_independent

    @property
    def witness_points(self) -> tuple[Point, ...]:
        """Each counterexample point of the two verdicts, once."""
        verdicts = (self.locally_independent, self.fully_independent)
        return tuple(dict.fromkeys(w[0] for v in verdicts for w in v.witnesses))

    def to_dict(self) -> dict:
        return {
            "prep_independent": self.prep_independent.to_dict(),
            "locally_independent": self.locally_independent.to_dict(),
            "fully_independent": self.fully_independent.to_dict(),
            "witness_points": [format_point(p) for p in self.witness_points],
        }


class IndependenceReport(Record):
    """Per-preparation independence verdicts plus pairwise overlaps."""

    _fields = ("states", "overlaps")

    def __init__(
        self,
        states: Mapping[str, StateIndependence],
        overlaps: Mapping[tuple[str, str], QSqrt2],
    ) -> None:
        _set(self, "states", states)
        _set(self, "overlaps", overlaps)

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

    ``prep_independent`` is ``locally_independent``, the product check on
    the accessible marginal, reported under both names; dropping the alias
    changes golden-pinned report bytes (the "Duplicate verdict" re-pin
    under ROADMAP item 1).
    """
    inaccessible = tuple(inaccessible)
    if len(set(inaccessible)) != len(inaccessible):
        raise ValueError(f"duplicate inaccessible factor names in {inaccessible}")
    states: dict[str, StateIndependence] = {}
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
        states[label] = StateIndependence(local_v, check_full_independence(joint))
    overlaps: dict[tuple[str, str], QSqrt2] = {}
    labels = sorted(preparations)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            overlaps[(a, b)] = classical_overlap(preparations[a], preparations[b])
    return IndependenceReport(states, overlaps)
