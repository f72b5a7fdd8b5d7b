"""Deterministic inputs for the benchmark, made from its seed.

Every generator takes an explicit ``random.Random`` or seed and touches no
global state, so one seed always yields byte-identical model files and LP
instances (``instance_text`` gives an instance's canonical bytes).  Inputs
are built with the package's own data types; the program under test only
ever sees the finished models, files and specs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

from onticbench import modelfile, scenarios
from onticbench.numerics import QSqrt2
from onticbench.ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    OntologicalModel,
    ResponseFunctions,
)
from onticbench.synthesis import SynthesisSpec

PAD_FACTOR = "lambda_p"
CLI_PAD = 16  # 32-point toy space x 16 = 512 points
# The relational space at m=8 (1024 variables, about 2 s) is left out: it
# took 40% of a pass, and fewer passes per run left the LP figures unsteady.
PBR_PADDINGS = (("local", 4), ("relational", 4))
PLANTED_PAIRS = 16
PLANTED_POINTS = 16
PLANTED_PREPS = 8
PLANTED_SUPPORT = 2
PLANTED_OUTCOMES = 4
WEIGHT_DEN = 7

# sqrt2 shift coefficients c: a shift moves c*sqrt2 of weight between two
# points.  Each list keeps the lighter point nonnegative for the weight it
# is applied to (1/64 in the padded file, 1/4 in the sampling model).
_PADDED_SHIFTS = (Fraction(1, 128), Fraction(1, 256), Fraction(3, 512), Fraction(5, 1024))
_SAMPLING_SHIFTS = (Fraction(1, 8), Fraction(1, 16), Fraction(3, 32), Fraction(1, 12))


def shift(weights: Dict, source, sink, coef: Fraction) -> None:
    """Move coef*sqrt2 of weight from ``source`` to ``sink`` in place."""
    moved = QSqrt2(0, coef)
    weights[source] = weights[source] - moved
    weights[sink] = weights[sink] + moved


def pad_space(space: OnticSpace, m: int) -> OnticSpace:
    return OnticSpace(space.factors + (Factor(PAD_FACTOR, tuple(f"p{i}" for i in range(m))),))


def pad_state(state: EpistemicState, padded: OnticSpace) -> Dict:
    """The product of ``state`` with the uniform distribution on the pad factor."""
    labels = padded.factors[-1].labels
    share = QSqrt2(Fraction(1, len(labels)))
    return {point + (e,): weight * share for point, weight in state.weights.items() for e in labels}


def padded_sqrt2_model(seed: int) -> OntologicalModel:
    """toy-nlhv times a uniform 16-value factor, with sqrt2 preparation weights.

    Each preparation moves a seeded c*sqrt2 between two pad values of one
    support point.  That keeps every marginal over the toy factors, so the
    Born table is still reproduced exactly, while every weight comparison
    and the sampler's thresholds become irrational.
    """
    rng = random.Random(f"padded:{seed}")
    toy = scenarios.build_toy_nlhv_model()
    space = pad_space(toy.space, CLI_PAD)
    labels = space.factors[-1].labels
    preparations = {}
    for label in sorted(toy.preparations):
        state = toy.preparations[label]
        weights = pad_state(state, space)
        base = rng.choice(state.support())
        e_from, e_to = rng.sample(labels, 2)
        shift(weights, base + (e_from,), base + (e_to,), rng.choice(_PADDED_SHIFTS))
        preparations[label] = EpistemicState(space, weights)
    meas = toy.measurements[scenarios.MEASUREMENT_LABEL]
    rows = {point + (e,): row for point, row in meas.rows.items() for e in labels}
    measurement = ResponseFunctions(space, meas.outcome_count, rows, meas.filler)
    return OntologicalModel(space, preparations, {scenarios.MEASUREMENT_LABEL: measurement})


def sqrt2_sampling_model(seed: int) -> OntologicalModel:
    """toy-nlhv with c*sqrt2 of nu00's weight moved between two support points.

    Every point of nu00's support answers outcome 1 with probability 0, so
    that cell stays exactly forbidden whatever the shift.
    """
    rng = random.Random(f"sampling:{seed}")
    toy = scenarios.build_toy_nlhv_model()
    state = toy.preparations["nu00"]
    weights = dict(state.weights)
    source, sink = rng.sample(state.support(), 2)
    shift(weights, source, sink, rng.choice(_SAMPLING_SHIFTS))
    preparations = dict(toy.preparations)
    preparations["nu00"] = EpistemicState(toy.space, weights)
    return OntologicalModel(toy.space, preparations, toy.measurements)


def sqrt2_lhv_model() -> OntologicalModel:
    """pbr-lhv with sqrt2/16 of mu00's weight moved: the input nogo cannot handle."""
    lhv = scenarios.build_pbr_lhv_model()
    state = lhv.preparations["mu00"]
    weights = dict(state.weights)
    source, sink = state.support()[:2]
    shift(weights, source, sink, Fraction(1, 16))
    preparations = dict(lhv.preparations)
    preparations["mu00"] = EpistemicState(lhv.space, weights)
    return OntologicalModel(lhv.space, preparations, {})


def pbr_padded_specs(born_table) -> List[Tuple[str, SynthesisSpec, bool]]:
    """(name, spec, feasible) for the PBR family padded by a uniform factor.

    The local space stays infeasible with violation floor exactly 1/16; the
    relational space stays feasible.  The family does not depend on the seed.
    """
    out = []
    spaces = {
        "local": (scenarios.build_pbr_lhv_model(), scenarios.MARGINAL_PREP_ORDER, False),
        "relational": (scenarios.build_toy_nlhv_model(), scenarios.PREP_ORDER, True),
    }
    for kind, m in PBR_PADDINGS:
        model, order, feasible = spaces[kind]
        space = pad_space(model.space, m)
        preps = tuple(
            (label, EpistemicState(space, pad_state(model.preparations[label], space)))
            for label in order
        )
        out.append((f"pbr-{kind}-m{m}", SynthesisSpec(space, preps, 4, born_table), feasible))
    return out


def _composition(rng: random.Random, total: int, parts: int) -> List[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def planted_spec(rng: random.Random, irrational: bool) -> SynthesisSpec:
    """A random spec with a planted rational witness, so it is feasible.

    Response rows and preparation weights have denominator 7.  With
    ``irrational`` every preparation moves a sqrt2 multiple of weight between
    two of its support points, so the LP carries sqrt2-component rows.
    """
    space = OnticSpace((Factor("a", tuple(f"a{i}" for i in range(PLANTED_POINTS))),))
    points = space.points
    witness = {}
    for point in points:
        cuts = sorted(rng.randint(0, WEIGHT_DEN) for _ in range(PLANTED_OUTCOMES - 1))
        witness[point] = [
            Fraction(b - a, WEIGHT_DEN) for a, b in zip([0] + cuts, cuts + [WEIGHT_DEN])
        ]
    preparations = []
    targets = []
    for i in range(PLANTED_PREPS):
        support = rng.sample(points, PLANTED_SUPPORT)
        parts = _composition(rng, WEIGHT_DEN, PLANTED_SUPPORT)
        weights = {p: QSqrt2(Fraction(k, WEIGHT_DEN)) for p, k in zip(support, parts)}
        if irrational:
            source, sink = support[0], support[1]
            shift(weights, source, sink, weights[source].rat / 2)
        preparations.append((f"q{i}", EpistemicState(space, weights)))
        row = []
        for k in range(PLANTED_OUTCOMES):
            total = QSqrt2()
            for point, weight in weights.items():
                total = total + weight * witness[point][k]
            row.append(total)
        targets.append(tuple(row))
    return SynthesisSpec(space, preparations, PLANTED_OUTCOMES, targets)


def planted_specs(seed: int) -> List[Tuple[str, SynthesisSpec, bool]]:
    """Planted twins: each rational instance, then the same draws with sqrt2 shifts.

    The twins share points, supports, weights and witness, so they differ
    only in the sqrt2 rows that the shift adds.
    """
    out = []
    for i in range(PLANTED_PAIRS):
        for irrational in (False, True):
            rng = random.Random(f"planted:{seed}:{i}")
            name = f"planted-{i}-{'sqrt2' if irrational else 'rational'}"
            out.append((name, planted_spec(rng, irrational), True))
    return out


def instance_text(spec: SynthesisSpec) -> str:
    """Canonical bytes of an LP instance: its preparations as a model file, then targets."""
    model = OntologicalModel(spec.space, dict(spec.preparations), {})
    lines = [modelfile.dumps(model), "targets"]
    for (label, _), row in zip(spec.preparations, spec.targets):
        lines.append(f"  {label} " + " ; ".join(str(v) for v in row))
    return "\n".join(lines) + "\nend\n"


def write_cli_inputs(seed: int, directory: str) -> Dict[str, str]:
    """Write the CLI session's model files and return their paths by role."""
    files = {
        "toy": ("toy-nlhv.model", scenarios.build_toy_nlhv_model()),
        "padded": ("toy-nlhv-pad16-sqrt2.model", padded_sqrt2_model(seed)),
        "lhv_sqrt2": ("pbr-lhv-sqrt2.model", sqrt2_lhv_model()),
    }
    paths = {}
    for role, (name, model) in files.items():
        path = f"{directory}/{name}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(modelfile.dumps(model))
        paths[role] = path
    return paths

