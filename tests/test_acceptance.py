"""Acceptance gate: one test per shipping criterion, each printing a verdict line.

Every exact claim is checked with zero tolerance; the sampling criterion uses
the stated 3-sigma bound with one retry on a second fixed seed.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from conftest import record_criterion

from onticbench.hilbert import born_probabilities
from onticbench.independence import (
    check_full_independence,
    check_local_independence,
    classical_overlap,
    marginalize,
    product_state,
)
from onticbench.modelfile import dumps, loads
from onticbench.numerics import HALF, ONE, QSqrt2, QUARTER, ZERO
from onticbench.ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    predicted_statistics,
    simulate,
    validate_responses,
)
from onticbench.scenarios import (
    MARGINAL_PREP_ORDER,
    MEASUREMENT_LABEL,
    PREP_ORDER,
    STATE_ORDER,
    build_pbr_quantum_scenario,
    build_toy_nlhv_model,
    forbidden_cells,
    lhv_synthesis_spec,
    pbr_synthesis_spec,
    subsystem_states,
)
from onticbench.synthesis import (
    FeasibilityResult,
    SynthesisSpec,
    build_synthesis_lp,
    extract_responses,
    responses_to_witness,
    solve_feasibility,
    solve_min_violation,
    verify_certificate,
)

SIXTEENTH = QSqrt2(Fraction(1, 16))

BORN_ROWS = (
    (ZERO, QUARTER, QUARTER, HALF),
    (QUARTER, ZERO, HALF, QUARTER),
    (QUARTER, HALF, ZERO, QUARTER),
    (HALF, QUARTER, QUARTER, ZERO),
)


def check(criterion: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    record_criterion(f"criterion {criterion}: {status} ({detail})")
    return ok


def test_criterion_1_born_agreement_exact():
    """All four preparations hit the canonical measurement statistics exactly."""
    model = build_toy_nlhv_model()
    scenario = build_pbr_quantum_scenario()
    ok = True
    for label, name, frozen in zip(PREP_ORDER, STATE_ORDER, BORN_ROWS):
        predicted = predicted_statistics(model, label, MEASUREMENT_LABEL)
        oracle = born_probabilities(scenario.product_states[name], scenario.measurement)
        ok = ok and predicted == list(frozen) == oracle
    assert check(
        "1 born-agreement",
        ok,
        "16 cells, exact equality against both the frozen table and the Born oracle",
    )


def test_criterion_2_marginalization_identity():
    """Dropping the shared factor turns each joint state into the product table."""
    model = build_toy_nlhv_model()
    subs1 = subsystem_states("lambda1")
    subs2 = subsystem_states("lambda2")
    pairing = {
        "nu00": ("nu0", "nu0"),
        "nu0+": ("nu0", "nu+"),
        "nu+0": ("nu+", "nu0"),
        "nu++": ("nu+", "nu+"),
    }
    # the four marginal tables: uniform 1/4 on a 4-cell support
    mu_supports = {
        "nu00": (("HH", "HH"), ("HH", "HT"), ("HT", "HH"), ("HT", "HT")),
        "nu0+": (("HH", "HH"), ("HH", "TH"), ("HT", "HH"), ("HT", "TH")),
        "nu+0": (("HH", "HH"), ("HH", "HT"), ("TH", "HH"), ("TH", "HT")),
        "nu++": (("HH", "HH"), ("HH", "TH"), ("TH", "HH"), ("TH", "TH")),
    }
    ok = True
    for label, (left, right) in pairing.items():
        reduced = marginalize(model.preparations[label], ("lambda1", "lambda2"))
        expected = EpistemicState(
            reduced.space, {p: QUARTER for p in mu_supports[label]}
        )
        ok = ok and reduced == expected
        ok = ok and reduced == product_state(subs1[left], subs2[right])
    assert check(
        "2 marginalization-identity",
        ok,
        "each marginal equals its frozen table and the product of subsystem states",
    )


def test_criterion_3_independence_split():
    model = build_toy_nlhv_model()
    subs1 = subsystem_states("lambda1")
    subs2 = subsystem_states("lambda2")
    pairing = {
        "nu00": ("nu0", "nu0"),
        "nu0+": ("nu0", "nu+"),
        "nu+0": ("nu+", "nu0"),
        "nu++": ("nu+", "nu+"),
    }
    local_ok = all(
        check_local_independence(
            marginalize(model.preparations[label], ("lambda1", "lambda2")), subs1[l], subs2[r]
        ).ok
        for label, (l, r) in pairing.items()
    )
    full = {
        label: check_full_independence(model.preparations[label]).ok
        for label in PREP_ORDER
    }
    split_ok = (
        full["nu00"] and full["nu++"] and not full["nu0+"] and not full["nu+0"]
    )
    # the named witness: at (HH,HH,2) the mixed state holds 1/4 but the
    # single-factor marginals multiply to 1/16
    point = ("HH", "HH", "2")
    joint = model.preparations["nu0+"]
    prod = ONE
    for name, coord in zip(joint.space.factor_names, point):
        prod = prod * marginalize(joint, (name,)).weight((coord,))
    witness_ok = joint.weight(point) == QUARTER and prod == SIXTEENTH
    ok = local_ok and split_ok and witness_ok
    assert check(
        "3 independence-split",
        ok,
        "local independence 4/4; full independence passes only for nu00 and nu++; "
        "witness (HH,HH,2): 1/4 vs 1/16",
    )


def test_criterion_4_nogo_certification():
    start = time.perf_counter()
    lhv_spec = lhv_synthesis_spec()
    lhv_lp = build_synthesis_lp(lhv_spec)
    lhv_result = solve_feasibility(lhv_lp)
    lhv_verified = verify_certificate(lhv_lp, lhv_result).ok
    floor = solve_min_violation(lhv_spec, forbidden_cells(MARGINAL_PREP_ORDER)).value

    toy_spec = pbr_synthesis_spec(
        build_toy_nlhv_model(), PREP_ORDER, build_pbr_quantum_scenario().born_table
    )
    toy_lp = build_synthesis_lp(toy_spec)
    toy_result = solve_feasibility(toy_lp)
    tables = build_toy_nlhv_model().measurements[MEASUREMENT_LABEL]
    tables_witness = responses_to_witness(toy_spec, tables)
    tables_verified = verify_certificate(
        toy_lp, FeasibilityResult(True, witness=tables_witness)
    ).ok
    elapsed = time.perf_counter() - start

    ok = (
        not lhv_result.feasible
        and lhv_verified
        and floor == SIXTEENTH
        and toy_result.feasible
        and tables_verified
        and elapsed < 1.0
    )
    assert check(
        "4 nogo-certification",
        ok,
        f"local space infeasible with verified certificate, floor 1/16, "
        f"relational space feasible with the response tables as witness, "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_5_epistemic_overlaps():
    subs = subsystem_states()
    base = classical_overlap(subs["nu0"], subs["nu+"])
    model = build_toy_nlhv_model()
    pairs = [
        (a, b) for i, a in enumerate(PREP_ORDER) for b in PREP_ORDER[i + 1:]
    ]
    composite = [
        classical_overlap(model.preparations[a], model.preparations[b])
        for a, b in pairs
    ]
    ok = (
        base == HALF
        and len(composite) == 6
        and all(v >= QUARTER for v in composite)
        and all(v.sign() > 0 for v in composite)
    )
    assert check(
        "5 epistemic-overlaps",
        ok,
        "subsystem overlap exactly 1/2; all six composite overlaps >= 1/4",
    )


def test_criterion_6_response_normalization():
    model = build_toy_nlhv_model()
    xi = model.measurements[MEASUREMENT_LABEL]
    verdict = validate_responses(xi)
    all_points = len(xi.space.points) == 32
    ok = verdict.ok and all_points
    assert check(
        "6 response-normalization",
        ok,
        "rows sum to 1 with entries in [0,1] at all 32 points, filler included",
    )


SEED_FIRST = 20260817
SEED_SECOND = 414213562


def _sampling_attempt(model, seed):
    n = 100000
    worst = 0.0
    forbidden_clean = True
    for label in PREP_ORDER:
        counts = simulate(model, label, MEASUREMENT_LABEL, n, seed)
        exact = predicted_statistics(model, label, MEASUREMENT_LABEL)
        for count, p in zip(counts, exact):
            if p == ZERO:
                forbidden_clean = forbidden_clean and count == 0
                continue
            pf = p.to_float()
            sigma = math.sqrt(pf * (1.0 - pf) / n)
            deviation = abs(count / n - pf) / sigma
            worst = max(worst, deviation)
    return worst, forbidden_clean


def test_criterion_7_sampling_consistency():
    model = build_toy_nlhv_model()
    start = time.perf_counter()
    worst, forbidden_clean = _sampling_attempt(model, SEED_FIRST)
    retried = False
    if worst > 3.0:
        # stated flake budget: one retry on a second fixed seed
        retried = True
        worst, second_clean = _sampling_attempt(model, SEED_SECOND)
        forbidden_clean = forbidden_clean and second_clean
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and forbidden_clean and elapsed < 5.0
    assert check(
        "7 sampling-consistency",
        ok,
        f"100000 draws per preparation, worst deviation {worst:.2f} sigma "
        f"(bound 3), forbidden cells exactly 0, {elapsed:.2f}s < 5s"
        + (", after one retry" if retried else ""),
    )


def _random_field_element(rng):
    return QSqrt2(
        Fraction(rng.randint(-99, 99), rng.randint(1, 16)),
        Fraction(rng.randint(-99, 99), rng.randint(1, 16)),
    )


def _field_axiom_sweep(cases):
    rng = random.Random(4142)
    for _ in range(cases):
        a = _random_field_element(rng)
        b = _random_field_element(rng)
        c = _random_field_element(rng)
        if a + b != b + a or a * b != b * a:
            return False
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            return False
        if a * (b + c) != a * b + a * c:
            return False
        if a + (-a) != ZERO or a + ZERO != a or a * ONE != a:
            return False
        if a != ZERO and a * (ONE / a) != ONE:
            return False
        if ((a < b) + (a == b) + (b < a)) != 1:
            return False
        if a < b and not a + c < b + c:
            return False
    return True


def _small_space(n_points):
    return OnticSpace((Factor("p", tuple(f"p{i}" for i in range(n_points))),))


def _deterministic_instance(rng):
    n_points = rng.randint(2, 8)
    n_outcomes = rng.randint(2, 3)
    space = _small_space(n_points)
    assignment = [rng.randrange(n_outcomes) for _ in range(n_points)]
    preps = []
    targets = []
    for i in range(rng.randint(1, 3)):
        support = rng.sample(space.points, rng.randint(1, n_points))
        cuts = sorted(rng.randint(1, 12) for _ in range(len(support) - 1))
        weights, prev = [], 0
        for cut in cuts + [12]:
            weights.append(Fraction(cut - prev, 12))
            prev = cut
        state = EpistemicState(
            space, {p: QSqrt2(w) for p, w in zip(support, weights) if w}
        )
        preps.append((f"m{i}", state))
        row = [ZERO] * n_outcomes
        for point, weight in state.weights.items():
            row[assignment[space.point_index(point)]] += weight
        targets.append(tuple(row))
    return SynthesisSpec(space, tuple(preps), n_outcomes, tuple(targets))


def _enumeration_oracle(spec):
    for assignment in product(range(spec.outcome_count), repeat=spec.space.size):
        rows = {
            point: tuple(
                ONE if k == assignment[i] else ZERO
                for k in range(spec.outcome_count)
            )
            for i, point in enumerate(spec.space.points)
        }
        if all(
            sum(
                (w * rows[p][k - 1] for p, w in prep.weights.items()),
                start=ZERO,
            ) == row[k - 1]
            for (label, prep), row in zip(spec.preparations, spec.targets)
            for k in range(1, spec.outcome_count + 1)
        ):
            return True
    return False


def _lp_round_trip_sweep():
    rng = random.Random(1729)
    for _ in range(20):
        spec = _deterministic_instance(rng)
        lp = build_synthesis_lp(spec)
        result = solve_feasibility(lp)
        if not result.feasible:
            return False
        if not verify_certificate(lp, result).ok:
            return False
        if not validate_responses(extract_responses(spec, result.witness)).ok:
            return False
    # degenerate class where the enumeration oracle is sound both ways:
    # point-mass preparations with deterministic target rows
    seen = {True: 0, False: 0}
    for _ in range(30):
        n_points = rng.randint(1, 4)
        n_outcomes = rng.randint(2, 3)
        space = _small_space(n_points)
        preps, targets = [], []
        for i in range(rng.randint(1, 4)):
            point = rng.choice(space.points)
            preps.append((f"m{i}", EpistemicState(space, {point: ONE})))
            hit = rng.randrange(n_outcomes)
            targets.append(
                tuple(ONE if j == hit else ZERO for j in range(n_outcomes))
            )
        spec = SynthesisSpec(space, tuple(preps), n_outcomes, tuple(targets))
        expected = _enumeration_oracle(spec)
        lp = build_synthesis_lp(spec)
        result = solve_feasibility(lp)
        if result.feasible is not expected:
            return False
        if not verify_certificate(lp, result).ok:
            return False
        seen[expected] += 1
    return seen[True] > 0 and seen[False] > 0


def test_criterion_8_property_suites():
    cases = 10000
    axioms_ok = _field_axiom_sweep(cases)
    lp_ok = _lp_round_trip_sweep()
    model = build_toy_nlhv_model()
    text = dumps(model)
    bytes_ok = loads(text) == model and dumps(loads(text)) == text
    ok = axioms_ok and lp_ok and bytes_ok
    assert check(
        "8 property-suites",
        ok,
        f"field axioms over {cases} randomized cases, LP round-trip with "
        "enumeration oracle on 50 small specs, model file byte-stable",
    )
