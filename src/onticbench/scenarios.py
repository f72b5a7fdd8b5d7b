"""Built-in scenarios: the PBR preparations and the relational coin model.

The quantum side is the standard PBR setup on two qubits: four product
preparations |00>, |0+>, |+0>, |++> measured in an entangled basis whose
outcome k is orthogonal to the k-th preparation, so each outcome
antidistinguishes one preparation (its Born probability is exactly zero).

The ontological side is a coin model in which each subsystem carries a
pair of coin flips (labels HH, HT, TH, TT) and the composite carries one
extra shared relational variable with values 1 and 2.  The four composite
epistemic states each weight four points at 1/4; the shared variable takes
value 2 exactly when both subsystems landed on HH under different
preparations.  With the matching response table the model reproduces the
Born statistics exactly, its composite states marginalize to products of
the subsystem states, and the shared variable is the only obstruction to
full factor-by-factor independence.

Dropping the relational variable leaves the four product marginals on the
local coin pairs; no response functions on that reduced space can
reproduce the Born table, which the synthesis module proves with an exact
infeasibility certificate.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .hilbert import MeasurementBasis, StateVector, born_probabilities, ket_product
from .independence import marginalize
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
PREP_ORDER = ("nu00", "nu0+", "nu+0", "nu++")
MARGINAL_PREP_ORDER = ("mu00", "mu0+", "mu+0", "mu++")
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
    """Construct the two-qubit scenario; the Born table is computed, not typed in."""
    product = {name: ket_product(name) for name in STATE_ORDER}
    s = INV_SQRT2
    # Outcome k is orthogonal to the k-th product state in STATE_ORDER.
    basis = MeasurementBasis(
        (
            _superpose(ket_product("01"), ket_product("10"), s),
            _superpose(ket_product("0-"), ket_product("1+"), s),
            _superpose(ket_product("+1"), ket_product("-0"), s),
            _superpose(ket_product("+-"), ket_product("-+"), s),
        )
    )
    table = tuple(
        tuple(born_probabilities(product[name], basis)) for name in STATE_ORDER
    )
    return PbrScenario(product, basis, table)


def _superpose(a: StateVector, b: StateVector, scale: QSqrt2) -> StateVector:
    return StateVector(tuple((x + y) * scale for x, y in zip(a.amplitudes, b.amplitudes)))


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


def toy_space() -> OnticSpace:
    return OnticSpace(
        (
            Factor("lambda1", COIN_LABELS),
            Factor("lambda2", COIN_LABELS),
            Factor(SHARED_FACTOR, ("1", "2")),
        )
    )


# The composite epistemic states: four points at weight 1/4 each.  The
# shared variable is 2 exactly when both coin pairs landed HH under
# different preparations, and 1 otherwise.
_NU_SUPPORTS: dict[str, tuple[Point, ...]] = {
    "nu00": (("HH", "HH", "1"), ("HT", "HH", "1"), ("HH", "HT", "1"), ("HT", "HT", "1")),
    "nu0+": (("HH", "HH", "2"), ("HT", "HH", "1"), ("HH", "TH", "1"), ("HT", "TH", "1")),
    "nu+0": (("HH", "HH", "2"), ("HH", "HT", "1"), ("TH", "HH", "1"), ("TH", "HT", "1")),
    "nu++": (("HH", "HH", "1"), ("HH", "TH", "1"), ("TH", "HH", "1"), ("TH", "TH", "1")),
}

# Response table entries on the union of the supports above; every point
# of the space outside that union gets the uniform filler 1/4 for every
# outcome, and unlisted entries on the union are zero.
_XI_HALF: dict[int, tuple[Point, ...]] = {
    1: (("HH", "HH", "2"), ("HH", "TH", "1"), ("TH", "HH", "1")),
    2: (("HH", "HH", "1"), ("HH", "HT", "1"), ("TH", "HH", "1")),
    3: (("HH", "HH", "1"), ("HT", "HH", "1"), ("HH", "TH", "1")),
    4: (("HH", "HH", "2"), ("HT", "HH", "1"), ("HH", "HT", "1")),
}
_XI_ONE: dict[int, Point] = {
    1: ("TH", "TH", "1"),
    2: ("TH", "HT", "1"),
    3: ("HT", "TH", "1"),
    4: ("HT", "HT", "1"),
}


def build_toy_nlhv_model() -> OntologicalModel:
    """The 32-point relational model with its Born-reproducing measurement."""
    space = toy_space()
    preparations = {
        label: EpistemicState(space, {p: QUARTER for p in sup})
        for label, sup in _NU_SUPPORTS.items()
    }
    union = {p for sup in _NU_SUPPORTS.values() for p in sup}
    rows: dict[Point, tuple[QSqrt2, ...]] = {}
    for point in space.points:
        if point not in union:
            rows[point] = (QUARTER,) * 4
            continue
        row = []
        for k in range(1, 5):
            if point in _XI_HALF[k]:
                row.append(HALF)
            elif point == _XI_ONE[k]:
                row.append(ONE)
            else:
                row.append(ZERO)
        rows[point] = tuple(row)
    measurement = ResponseFunctions(space, 4, rows, filler=QUARTER)
    return OntologicalModel(space, preparations, {MEASUREMENT_LABEL: measurement})


def build_pbr_lhv_model() -> OntologicalModel:
    """The four local marginals mu00..mu++ on the 16-point coin space.

    Each mu is the matching nu of the relational model with the shared
    factor summed out.  No measurement carries over: response functions
    condition on the full point, and the point of this model is that no
    response functions on the reduced space exist.
    """
    toy = build_toy_nlhv_model()
    local = [name for name in toy.space.factor_names if name != SHARED_FACTOR]
    preparations = {
        new: marginalize(toy.preparations[old], local)
        for old, new in zip(PREP_ORDER, MARGINAL_PREP_ORDER)
    }
    return OntologicalModel(toy.space.subspace(local), preparations, {})


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

