"""Independence structure and overlap of epistemic states.

``check_local_independence`` is PBR's preparation independence: the joint
distribution must be the product of the subsystem distributions.  The
paper's weaker principle is the same check on the accessible marginal;
``analyze_independence`` sums out the inaccessible factors before it.  Both
checks compare the joint with one product, computed over the supports.

A joint distribution can be locally independent while failing to be a
product over its full factor list; the gap is exactly what relational
(shared) ontic variables buy.  Full independence over every factor always
implies local independence over any accessible subset.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .numerics import QSqrt2, ZERO, qsum
from .ontology import EpistemicState, OnticSpace, OntologicalModel, Point, format_point
from .verdicts import Record, Verdict, _set


def _product(states: Sequence[EpistemicState]) -> dict[Point, QSqrt2]:
    """The product's weights, keyed by the concatenated points, over the supports."""
    first, *rest = states
    weights = first.weights
    for state in rest:
        weights = {p + q: w * v for p, w in weights.items() for q, v in state.weights.items()}
    return weights


def product_state(mu: EpistemicState, nu: EpistemicState) -> EpistemicState:
    """The product distribution on the concatenated factor list."""
    shared = set(mu.space.factor_names) & set(nu.space.factor_names)
    if shared:
        raise ValueError(f"factor names must be disjoint, both sides have {sorted(shared)}")
    return EpistemicState(OnticSpace(mu.space.factors + nu.space.factors), _product((mu, nu)))


def marginalize(joint: EpistemicState, keep: Sequence[str]) -> EpistemicState:
    """Sum out every factor not named in ``keep`` (order follows the space)."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one factor")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate factor names in {keep}")
    space = joint.space.subspace(keep)  # validates the names
    positions = [joint.space.factor_names.index(name) for name in space.factor_names]
    groups: dict[Point, list[QSqrt2]] = {}
    for point, weight in joint.weights.items():
        groups.setdefault(tuple([point[i] for i in positions]), []).append(weight)
    return EpistemicState(space, {point: qsum(ws) for point, ws in groups.items()})


def _first_mismatch(joint: EpistemicState, expected: Mapping[Point, QSqrt2], what: str) -> Verdict:
    """Compare the joint's weights with ``expected``, the product's.

    Neither table holds an exact zero (a product of nonzero field elements
    is nonzero), so they are equal exactly when the distributions are.  The
    witness is the first point in canonical order whose weights differ,
    with the two values; ``what`` names the product side in the failure text.
    """
    weights = joint.weights
    if weights == expected:
        return Verdict(True)
    point = min(
        (p for p in weights.keys() | expected.keys()
         if weights.get(p, ZERO) != expected.get(p, ZERO)),
        key=joint.space.point_index,
    )
    joint_w, product_w = weights.get(point, ZERO), expected.get(point, ZERO)
    return Verdict(
        False,
        (f"at {format_point(point)}: joint weight {joint_w}, {what} {product_w}",),
        ((point, joint_w, product_w),),
    )


def check_local_independence(
    joint: EpistemicState, mu: EpistemicState, nu: EpistemicState
) -> Verdict:
    """Is the joint exactly mu (x) nu?  PBR's preparation independence.

    The joint's factor list must be mu's factors followed by nu's.
    """
    expected_factors = mu.space.factors + nu.space.factors
    if joint.space.factors != expected_factors:
        raise ValueError(
            "joint space must be the subsystem spaces in order: "
            f"{[f.name for f in expected_factors]} vs {list(joint.space.factor_names)}"
        )
    return _first_mismatch(joint, _product((mu, nu)), "product weight")


def check_full_independence(joint: EpistemicState) -> Verdict:
    """Is the joint the product of all of its single-factor marginals?

    The marginals are the only possible factors, so this decides whether
    any product decomposition over the full factor list exists.
    """
    marginals = [marginalize(joint, (name,)) for name in joint.space.factor_names]
    return _first_mismatch(joint, _product(marginals), "marginal product")


def classical_overlap(mu: EpistemicState, nu: EpistemicState) -> QSqrt2:
    """sum_p min(mu(p), nu(p)): 1 iff equal, 0 iff disjoint supports."""
    if mu.space != nu.space:
        raise ValueError("overlap requires a shared ontic space")
    return qsum([min(w, nu.weights[p]) for p, w in mu.weights.items() if p in nu.weights])


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
    model: OntologicalModel,
    inaccessible: Sequence[str] = (),
) -> IndependenceReport:
    """Report the three independence verdicts for each preparation.

    The ``inaccessible`` names must be distinct factors of the model's
    space that leave at least two accessible ones.  Each preparation is
    summed onto the accessible factors, and that marginal is checked
    against its marginals on the first accessible factor and on the rest
    (the unique candidate factors).

    ``prep_independent`` is ``locally_independent``, the product check on
    the accessible marginal, reported under both names; dropping the alias
    changes golden-pinned report bytes (the "Duplicate verdict" re-pin
    under ROADMAP item 1).
    """
    inaccessible = tuple(inaccessible)
    if len(set(inaccessible)) != len(inaccessible):
        raise ValueError(f"duplicate inaccessible factor names in {inaccessible}")
    names = model.space.factor_names
    accessible = [n for n in names if n not in inaccessible]
    if len(accessible) < 2:
        raise ValueError(f"hiding {list(inaccessible)} leaves fewer than two accessible factors")
    unknown = set(inaccessible) - set(names)
    if unknown:
        raise ValueError(f"inaccessible factors {sorted(unknown)} are not in the joint space")
    preparations = model.preparations
    labels = sorted(preparations)
    states: dict[str, StateIndependence] = {}
    for label in labels:
        joint = preparations[label]
        local = marginalize(joint, accessible) if inaccessible else joint
        mu = marginalize(local, accessible[:1])
        nu = marginalize(local, accessible[1:])
        local_v = check_local_independence(local, mu, nu)
        states[label] = StateIndependence(local_v, check_full_independence(joint))
    overlaps: dict[tuple[str, str], QSqrt2] = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            overlaps[(a, b)] = classical_overlap(preparations[a], preparations[b])
    return IndependenceReport(states, overlaps)
