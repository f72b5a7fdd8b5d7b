"""Built-in scenarios: the PBR preparations and the relational coin model.

Every object here is built from the product states |xy> of STATE_ORDER:
|00>, |0+>, |+0>, |++>.  The quantum side measures them in PBR's entangled
basis, whose outcome k is orthogonal to the k-th |xy>, so each outcome
antidistinguishes one preparation (its Born probability is exactly zero).

On the ontological side each subsystem carries a pair of coin flips
(labels HH, HT, TH, TT).  PBR's local model pbr-lhv is preparation
independence: mu_xy is nu_x on lambda1 times nu_y on lambda2.  No response
functions on that space reproduce the Born table, which the synthesis
module proves with an exact infeasibility certificate.  The relational
model toy-nlhv is the same product states with one shared variable
lambda_s appended, 2 exactly when both coin pairs read HH under different
preparations, so summing lambda_s out gives pbr-lhv by construction.  Its
response table, stated point by point, reproduces the Born statistics
exactly, and lambda_s is the only obstruction to full factor-by-factor
independence.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .hilbert import MeasurementBasis, StateVector, born_probabilities, ket_product
from .independence import product_state
from .numerics import HALF, ONE, QSqrt2, QUARTER, ZERO, INV_SQRT2
from .ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    OntologicalModel,
    Point,
    ResponseFunctions,
)
from .synthesis import SynthesisSpec
from .verdicts import Record, _set

COIN_LABELS = ("HH", "HT", "TH", "TT")
STATE_ORDER = ("00", "0+", "+0", "++")
PREP_ORDER = tuple("nu" + xy for xy in STATE_ORDER)
MARGINAL_PREP_ORDER = tuple("mu" + xy for xy in STATE_ORDER)
MEASUREMENT_LABEL = "M"
SHARED_FACTOR = "lambda_s"


class PbrScenario(Record):
    """The quantum data: product states, the basis, and their Born table."""

    _fields = ("product_states", "measurement", "born_table")

    def __init__(
        self,
        product_states: Mapping[str, StateVector],
        measurement: MeasurementBasis,
        born_table: tuple[tuple[QSqrt2, ...], ...],  # row order = STATE_ORDER
    ) -> None:
        _set(self, "product_states", product_states)
        _set(self, "measurement", measurement)
        _set(self, "born_table", born_table)


def build_pbr_quantum_scenario() -> PbrScenario:
    """Construct the two-qubit scenario from its product states |xy>.

    Outcome k is (|x y'> + |x' y>)/sqrt2 for the k-th |xy> in STATE_ORDER,
    with 0' = 1 and +' = -: both terms are orthogonal to |xy>, so outcome k
    antidistinguishes it.  The Born table is computed, not typed in.
    """
    product = {xy: ket_product(xy) for xy in STATE_ORDER}
    flip = {"0": "1", "+": "-"}
    basis = MeasurementBasis(
        tuple(_superpose(ket_product(x + flip[y]), ket_product(flip[x] + y)) for x, y in STATE_ORDER)
    )
    table = tuple(tuple(born_probabilities(product[xy], basis)) for xy in STATE_ORDER)
    return PbrScenario(product, basis, table)


def _superpose(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(tuple((x + y) * INV_SQRT2 for x, y in zip(a.amplitudes, b.amplitudes)))


# ---- ontic spaces -----------------------------------------------------------


def subsystem_states(factor_name: str = "lambda1") -> dict[str, EpistemicState]:
    """The two subsystem epistemic states nu0 and nu+ on a coin-pair space.

    nu0 is uniform on {HH, HT} (second flip unrevealed), nu+ is uniform on
    {HH, TH} (first flip unrevealed); they overlap exactly on HH.
    """
    space = OnticSpace((Factor(factor_name, COIN_LABELS),))
    return {
        "nu0": EpistemicState(space, {("HH",): HALF, ("HT",): HALF}),
        "nu+": EpistemicState(space, {("HH",): HALF, ("TH",): HALF}),
    }


# xi_1..xi_4 on the ten points some nu_xy weights, stated point by point;
# every other point answers 1/4 to each outcome.  Each of the four points in
# a single preparation's support answers the one outcome its Born row needs.
_RESPONSES: dict[Point, tuple[QSqrt2, ...]] = {
    ("HH", "HH", "1"): (ZERO, HALF, HALF, ZERO),
    ("HH", "HH", "2"): (HALF, ZERO, ZERO, HALF),
    ("HH", "HT", "1"): (ZERO, HALF, ZERO, HALF),
    ("HH", "TH", "1"): (HALF, ZERO, HALF, ZERO),
    ("HT", "HH", "1"): (ZERO, ZERO, HALF, HALF),
    ("TH", "HH", "1"): (HALF, HALF, ZERO, ZERO),
    ("HT", "HT", "1"): (ZERO, ZERO, ZERO, ONE),
    ("HT", "TH", "1"): (ZERO, ZERO, ONE, ZERO),
    ("TH", "HT", "1"): (ZERO, ONE, ZERO, ZERO),
    ("TH", "TH", "1"): (ONE, ZERO, ZERO, ZERO),
}


def build_toy_nlhv_model() -> OntologicalModel:
    """The 32-point relational model: pbr-lhv's product states plus lambda_s.

    nu_xy is nu_x on lambda1 times nu_y on lambda2, with lambda_s = 2 where
    x != y and both coin pairs read HH, and 1 elsewhere; summing lambda_s
    out gives pbr-lhv's mu_xy by construction.  Measurement M is the stated
    response table above, which reproduces the Born table.
    """
    # The coin pairs lambda1 and lambda2, then the shared lambda_s in {1, 2}.
    coins = (Factor("lambda1", COIN_LABELS), Factor("lambda2", COIN_LABELS))
    space = OnticSpace(coins + (Factor(SHARED_FACTOR, ("1", "2")),))
    nu = subsystem_states()
    preparations = {
        "nu" + x + y: EpistemicState(
            space,
            {
                (p, q, "2" if x != y and p == q == "HH" else "1"): wp * wq
                for (p,), wp in nu["nu" + x].weights.items()
                for (q,), wq in nu["nu" + y].weights.items()
            },
        )
        for x, y in STATE_ORDER
    }
    rows = {point: _RESPONSES.get(point, (QUARTER,) * 4) for point in space.points}
    measurement = ResponseFunctions(space, 4, rows, filler=QUARTER)
    return OntologicalModel(space, preparations, {MEASUREMENT_LABEL: measurement})


def build_pbr_lhv_model() -> OntologicalModel:
    """PBR's preparation independence: mu_xy = nu_x on lambda1 times nu_y on lambda2.

    Each product state equals the relational state nu_xy with the shared
    factor summed out.  No measurement carries over: response functions
    condition on the full point, and the point of this model is that no
    response functions on the reduced space exist.
    """
    first, second = subsystem_states("lambda1"), subsystem_states("lambda2")
    preparations = {
        "mu" + x + y: product_state(first["nu" + x], second["nu" + y]) for x, y in STATE_ORDER
    }
    return OntologicalModel(preparations["mu00"].space, preparations, {})


# ---- the PBR pairing ---------------------------------------------------------
# Preparations listed in Born-row order pair with the product states in
# STATE_ORDER: the k-th preparation realises the k-th product state, so it
# must reproduce the k-th row of the Born table.  pbr_prep_order is the one
# place that reads that order off a model's labels; Born checks, synthesis
# and the no-go all take it from there.  Measurement M realises the
# antidistinguishing basis.


def pbr_prep_order(model: OntologicalModel) -> tuple[str, ...]:
    """The Born-row order a model's labels give: nu00..nu++ or mu00..mu++."""
    for order in (PREP_ORDER, MARGINAL_PREP_ORDER):
        if all(label in model.preparations for label in order):
            return order
    raise ValueError(
        "the model has neither nu00, nu0+, nu+0, nu++ nor mu00, mu0+, mu+0, mu++; "
        "rename them, or give synthesize and nogo the labels in Born-row order with --preps"
    )


def pbr_synthesis_spec(
    model: OntologicalModel, labels: Sequence[str], born_table: Sequence[Sequence[QSqrt2]]
) -> SynthesisSpec:
    """The preparations named in Born-row order, with the rows of ``born_table`` as targets."""
    if len(labels) != len(born_table):
        raise ValueError(
            f"synthesis against the Born table needs exactly "
            f"{len(born_table)} preparations, got {len(labels)}"
        )
    preps = tuple((label, model.preparation(label)) for label in labels)
    return SynthesisSpec(model.space, preps, len(born_table[0]), born_table)


def toy_synthesis_spec() -> SynthesisSpec:
    """Relational space, four composite preparations, Born-table targets."""
    born = build_pbr_quantum_scenario().born_table
    return pbr_synthesis_spec(build_toy_nlhv_model(), PREP_ORDER, born)


def lhv_synthesis_spec() -> SynthesisSpec:
    """Local coin space, four marginal preparations, Born-table targets."""
    born = build_pbr_quantum_scenario().born_table
    return pbr_synthesis_spec(build_pbr_lhv_model(), MARGINAL_PREP_ORDER, born)


def forbidden_cells(prep_order: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
    """The antidistinguished diagonal: outcome k forbidden under the k-th preparation."""
    return tuple((label, k) for k, label in enumerate(prep_order, start=1))

