"""Tests for ontic spaces, epistemic states, response functions, and sampling."""

import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onticbench import ontology
from onticbench.hilbert import MeasurementBasis, born_probabilities, ket
from onticbench.modelfile import loads
from onticbench.numerics import HALF, ONE, QSqrt2, QUARTER, SQRT2, ZERO, is_probability
from onticbench.ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    OntologicalModel,
    ResponseFunctions,
    check_born_agreement,
    format_point,
    predicted_statistics,
    simulate,
    validate_epistemic,
    validate_responses,
)
from onticbench.scenarios import build_toy_nlhv_model


def q(rat, irr=0):
    return QSqrt2(Fraction(rat), Fraction(irr))


TWO = OnticSpace((Factor("x", ("a", "b")),))
GRID = OnticSpace((Factor("row", ("r1", "r2")), Factor("col", ("c1", "c2", "c3"))))


def two_state(wa, wb) -> EpistemicState:
    return EpistemicState(TWO, {("a",): wa, ("b",): wb})


def plus_model() -> OntologicalModel:
    """Two ontic points realizing |+> against the computational basis."""
    prep = two_state(HALF, HALF)
    xi = ResponseFunctions(TWO, 2, {("a",): (ONE, ZERO), ("b",): (ZERO, ONE)})
    return OntologicalModel(TWO, {"plus": prep}, {"Z": xi})


class TestSpace:
    def test_points_first_factor_slowest(self):
        assert GRID.points == (
            ("r1", "c1"), ("r1", "c2"), ("r1", "c3"),
            ("r2", "c1"), ("r2", "c2"), ("r2", "c3"),
        )

    def test_point_index_round_trip(self):
        for i, point in enumerate(GRID.points):
            assert GRID.point_index(point) == i

    def test_axis_and_subspace(self):
        assert GRID.factor_names.index("col") == 1
        assert GRID.factors[1].labels == ("c1", "c2", "c3")
        sub = GRID.subspace(("col",))
        assert sub.points == (("c1",), ("c2",), ("c3",))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            Factor("x", ("a b",))
        with pytest.raises(ValueError):
            Factor("x", ("a,b",))
        with pytest.raises(ValueError):
            Factor("x", ("a", "a"))

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            GRID.point_index(("r1", "nope"))

    def test_format_point(self):
        assert format_point(("r1", "c2")) == "(r1,c2)"


class TestEpistemicState:
    def test_zero_weights_dropped(self):
        explicit = EpistemicState(TWO, {("a",): ONE, ("b",): ZERO})
        implicit = EpistemicState(TWO, {("a",): ONE})
        assert explicit == implicit
        assert explicit.support() == (("a",),)

    def test_weight_defaults_to_zero(self):
        state = two_state(ONE, ZERO)
        assert state.weight(("b",)) == ZERO

    def test_total(self):
        assert two_state(HALF, QUARTER).total() == HALF + QUARTER

    def test_point_membership_enforced(self):
        with pytest.raises(ValueError):
            EpistemicState(TWO, {("c",): ONE})


class TestValidators:
    def test_valid_state(self):
        assert validate_epistemic(two_state(HALF, HALF)).ok

    def test_deficit_reported(self):
        verdict = validate_epistemic(two_state(HALF, q(Fraction(1, 3))))
        assert not verdict.ok
        assert "weights sum to 5/6, deficit 1/6" in verdict.failures

    def test_negative_weight_reported(self):
        verdict = validate_epistemic(two_state(-HALF, ONE + HALF))
        assert not verdict.ok
        assert any("outside [0, 1]" in f for f in verdict.failures)
        assert ("a",) in verdict.witnesses

    def test_valid_responses(self):
        xi = ResponseFunctions(TWO, 2, {("a",): (ONE, ZERO), ("b",): (HALF, HALF)})
        assert validate_responses(xi).ok

    def test_row_sum_failure_names_point(self):
        xi = ResponseFunctions(TWO, 2, {("a",): (HALF, HALF), ("b",): (HALF, QUARTER)})
        verdict = validate_responses(xi)
        assert not verdict.ok
        assert ("b",) in verdict.witnesses
        assert any("sum to 3/4" in f for f in verdict.failures)

    def test_out_of_bounds_response(self):
        xi = ResponseFunctions(TWO, 2, {("a",): (ONE + ONE, -ONE), ("b",): (HALF, HALF)})
        verdict = validate_responses(xi)
        assert not verdict.ok
        assert len([f for f in verdict.failures if "outside" in f]) == 2


# ---- the per-value validators, kept as an oracle ----------------------------
# validate_epistemic and validate_responses as they were before each state or
# row was first decided in integers: on an invalid input the fast path falls
# back to this walk, so failures and witnesses must be the same, in order.


def _walk_epistemic(state):
    failures, witnesses = [], []
    for point in state.support():
        value = state.weights[point]
        if not is_probability(value):
            failures.append(f"weight {value} at {format_point(point)} is outside [0, 1]")
            witnesses.append(point)
    total = state.total()
    if total != ONE:
        failures.append(f"weights sum to {total}, deficit {ONE - total}")
    return not failures, tuple(failures), tuple(witnesses)


def _walk_responses(responses):
    failures, witnesses = [], []
    for point in responses.space.points:
        row = responses.rows[point]
        bad = False
        for k, value in enumerate(row, start=1):
            if not is_probability(value):
                failures.append(
                    f"response for outcome {k} at {format_point(point)} is {value}, outside [0, 1]"
                )
                bad = True
        total = ZERO
        for value in row:
            total = total + value
        if total != ONE:
            failures.append(f"responses at {format_point(point)} sum to {total}, not 1")
            bad = True
        if bad:
            witnesses.append(point)
    return not failures, tuple(failures), tuple(witnesses)


def _random_distribution(rng, size):
    """``size`` values summing to one; some carry sqrt2 parts, some are spoiled."""
    den = rng.choice([1, 3, 4, 16])
    cuts = sorted(rng.randint(0, den) for _ in range(size - 1))
    values = [q(Fraction(b - a, den)) for a, b in zip([0] + cuts, cuts + [den])]
    if size > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(size), 2)
        moved = q(0, Fraction(1, rng.choice([4, 64])))
        values[i], values[j] = values[i] - moved, values[j] + moved
    if rng.random() < 0.3:
        i = rng.randrange(size)
        values[i] = rng.choice([-values[i], values[i] + HALF, values[i] + q(0, Fraction(1, 9))])
    return values


class TestValidatorsAgreeWithPerValueWalk:
    def test_epistemic_states(self):
        rng = random.Random("validate_epistemic")
        invalid = 0
        for _ in range(400):
            points = rng.sample(GRID.points, rng.randint(1, GRID.size))
            state = EpistemicState(GRID, dict(zip(points, _random_distribution(rng, len(points)))))
            verdict = validate_epistemic(state)
            assert (verdict.ok, verdict.failures, verdict.witnesses) == _walk_epistemic(state)
            invalid += not verdict.ok
        assert 100 < invalid < 350
        empty = EpistemicState(GRID, {})
        verdict = validate_epistemic(empty)
        assert (verdict.ok, verdict.failures, verdict.witnesses) == _walk_epistemic(empty)
        assert verdict.failures == ("weights sum to 0, deficit 1",)

    def test_response_families(self):
        rng = random.Random("validate_responses")
        invalid = 0
        for _ in range(200):
            k = rng.randint(1, 4)
            rows = {p: _random_distribution(rng, k) for p in GRID.points}
            xi = ResponseFunctions(GRID, k, rows)
            verdict = validate_responses(xi)
            assert (verdict.ok, verdict.failures, verdict.witnesses) == _walk_responses(xi)
            invalid += not verdict.ok
        assert 100 < invalid < 200


class TestResponseFunctions:
    def test_dense_rows_required(self):
        with pytest.raises(ValueError):
            ResponseFunctions(TWO, 2, {("a",): (ONE, ZERO)})

    def test_float_outcome_count_refused(self):
        with pytest.raises(TypeError):
            ResponseFunctions(TWO, 2.0, {("a",): (ONE, ZERO), ("b",): (ZERO, ONE)})

    def test_from_entries_fills_gaps(self):
        text = (
            "onticbench-model 1\n\nspace\n  factor x a b\nend\n\n"
            "measurement Z\n  outcomes 2\n  filler 1/2\n  1 (a) 1\n  2 (a) 0\nend\n"
        )
        xi = loads(text).measurements["Z"]
        assert xi.space == TWO
        assert xi.rows == {("a",): (ONE, ZERO), ("b",): (HALF, HALF)}
        assert xi.filler == HALF


class _PointSubclass(tuple):
    pass


def _stored(mapping) -> list:
    """Each item with the types of its key, value and (for rows) entries."""
    return [
        (type(key), key, type(value), value,
         [type(v) for v in value] if isinstance(value, tuple) else None)
        for key, value in mapping.items()
    ]


class TestConstructorsBuildAndName:
    """What EpistemicState and ResponseFunctions store, and the first fault
    they name, whether or not a whole mapping passes their bulk test."""

    @pytest.mark.parametrize(
        "build, expected",
        [
            pytest.param(
                lambda: ResponseFunctions(
                    TWO, 2, {("a",): [1, Fraction(0)], ("b",): [Fraction(1, 2), HALF]}
                ).rows,
                [(tuple, ("a",), tuple, (ONE, ZERO), [QSqrt2, QSqrt2]),
                 (tuple, ("b",), tuple, (HALF, HALF), [QSqrt2, QSqrt2])],
                id="list-rows-of-int-and-fraction",
            ),
            pytest.param(
                lambda: ResponseFunctions(
                    TWO, 2, {("a",): iter((ONE, ZERO)), ("b",): iter((ONE, ZERO))}
                ).rows,
                [(tuple, ("a",), tuple, (ONE, ZERO), [QSqrt2, QSqrt2]),
                 (tuple, ("b",), tuple, (ONE, ZERO), [QSqrt2, QSqrt2])],
                id="iterator-rows",
            ),
            pytest.param(
                lambda: ResponseFunctions(
                    TWO, 2, {_PointSubclass(("a",)): (ONE, ZERO), ("b",): (ONE, ZERO)}
                ).rows,
                [(tuple, ("a",), tuple, (ONE, ZERO), [QSqrt2, QSqrt2]),
                 (tuple, ("b",), tuple, (ONE, ZERO), [QSqrt2, QSqrt2])],
                id="rows-tuple-subclass-key",
            ),
            pytest.param(
                lambda: EpistemicState(TWO, {_PointSubclass(("a",)): HALF, ("b",): HALF}).weights,
                [(tuple, ("a",), QSqrt2, HALF, None), (tuple, ("b",), QSqrt2, HALF, None)],
                id="weights-tuple-subclass-key",
            ),
            pytest.param(
                lambda: EpistemicState(TWO, {("a",): ONE, ("b",): ZERO}).weights,
                [(tuple, ("a",), QSqrt2, ONE, None)],
                id="zero-weight-dropped",
            ),
            pytest.param(
                lambda: EpistemicState(TWO, {("a",): 1, ("b",): Fraction(0)}).weights,
                [(tuple, ("a",), QSqrt2, ONE, None)],
                id="zero-weight-dropped-int-and-fraction",
            ),
            pytest.param(
                lambda: ResponseFunctions(TWO, 2, {("a",): (ONE, ZERO), ("b",): (ONE,)}),
                "row at (b) has 1 entries, expected 2",
                id="wrong-length-row",
            ),
            pytest.param(
                lambda: ResponseFunctions(TWO, 2, {("a",): (ONE,), ("c",): (ONE, ZERO)}),
                "row at (a) has 1 entries, expected 2",
                id="wrong-length-before-foreign-point",
            ),
            pytest.param(
                lambda: ResponseFunctions(TWO, 2, {("c",): (ONE, ZERO), ("a",): (ONE,)}),
                "point (c) is not in the space",
                id="foreign-point-before-wrong-length",
            ),
            pytest.param(
                lambda: ResponseFunctions(TWO, 2, {("a",): (ONE, ZERO)}),
                "rows missing for 1 points, first (b)",
                id="missing-point",
            ),
            pytest.param(
                lambda: EpistemicState(TWO, {("a",): HALF, ("c",): HALF}),
                "point (c) is not in the space",
                id="foreign-point-in-state",
            ),
        ],
    )
    def test_stored_or_first_fault(self, build, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == expected
        else:
            assert _stored(build()) == expected


class TestModel:
    def test_component_space_must_match(self):
        prep = two_state(HALF, HALF)
        xi = ResponseFunctions(GRID, 2, {p: (HALF, HALF) for p in GRID.points})
        with pytest.raises(ValueError):
            OntologicalModel(TWO, {"p": prep}, {"M": xi})

    def test_unknown_labels_reported(self):
        model = plus_model()
        with pytest.raises(ValueError, match="plus"):
            model.preparation("minus")
        with pytest.raises(ValueError, match="Z"):
            model.measurement("X")

    def test_predicted_statistics(self):
        assert predicted_statistics(plus_model(), "plus", "Z") == [HALF, HALF]

    def test_skewed_preparation(self):
        model = plus_model()
        skewed = OntologicalModel(
            TWO, {"plus": two_state(QUARTER, HALF + QUARTER)}, model.measurements
        )
        assert predicted_statistics(skewed, "plus", "Z") == [QUARTER, HALF + QUARTER]


def plus_in_z() -> dict:
    """The Born row of |+> in the computational basis, keyed by preparation."""
    return {"plus": born_probabilities(ket("+"), MeasurementBasis((ket("0"), ket("1"))))}


class TestBornAgreement:
    def test_exact_match(self):
        report = check_born_agreement(plus_model(), "Z", plus_in_z())
        assert report.all_match
        assert len(report.cells) == 2

    def test_mismatch_reported_cell_by_cell(self):
        model = plus_model()
        skewed = OntologicalModel(
            TWO, {"plus": two_state(QUARTER, HALF + QUARTER)}, model.measurements
        )
        report = check_born_agreement(skewed, "Z", plus_in_z())
        assert not report.all_match
        mismatches = [cell for cell in report.cells if not cell.match]
        assert len(mismatches) == 2
        cell = mismatches[0]
        assert cell.predicted == QUARTER and cell.target == HALF


class TestSimulate:
    def test_reproducible(self):
        model = plus_model()
        first = simulate(model, "plus", "Z", 2000, seed=42)
        second = simulate(model, "plus", "Z", 2000, seed=42)
        assert first == second

    def test_seed_changes_stream(self):
        model = plus_model()
        assert simulate(model, "plus", "Z", 2000, seed=1) != simulate(
            model, "plus", "Z", 2000, seed=2
        )

    def test_counts_sum_to_samples(self):
        counts = simulate(plus_model(), "plus", "Z", 999, seed=7, jobs=3)
        assert sum(counts) == 999

    def test_jobs_reproducible_per_worker_count(self):
        model = plus_model()
        a = simulate(model, "plus", "Z", 1000, seed=5, jobs=4)
        b = simulate(model, "plus", "Z", 1000, seed=5, jobs=4)
        assert a == b

    def test_forbidden_outcome_never_fires(self):
        # deterministic response: outcome 2 has probability zero under point a
        prep = two_state(ONE, ZERO)
        xi = ResponseFunctions(TWO, 2, {("a",): (ONE, ZERO), ("b",): (ZERO, ONE)})
        model = OntologicalModel(TWO, {"p": prep}, {"M": xi})
        counts = simulate(model, "p", "M", 5000, seed=11)
        assert counts == [5000, 0]

    def test_frequencies_track_probabilities(self):
        counts = simulate(plus_model(), "plus", "Z", 20000, seed=3)
        assert abs(counts[0] - 10000) < 500  # ~7 sigma, loose by design

    def test_invalid_model_rejected(self):
        bad_prep = two_state(HALF, QUARTER)
        xi = ResponseFunctions(TWO, 2, {("a",): (ONE, ZERO), ("b",): (ZERO, ONE)})
        model = OntologicalModel(TWO, {"p": bad_prep}, {"M": xi})
        with pytest.raises(ValueError):
            simulate(model, "p", "M", 10, seed=0)

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            simulate(plus_model(), "plus", "Z", -1, seed=0)

    def test_irrational_weights_sampled_exactly(self):
        # weights (sqrt2 - 1, 2 - sqrt2) give irrational CDF thresholds
        prep = EpistemicState(TWO, {("a",): SQRT2 - ONE, ("b",): q(2) - SQRT2})
        xi = ResponseFunctions(TWO, 2, {("a",): (ONE, ZERO), ("b",): (ZERO, ONE)})
        model = OntologicalModel(TWO, {"p": prep}, {"M": xi})
        counts = simulate(model, "p", "M", 4000, seed=9)
        assert sum(counts) == 4000
        # sqrt2 - 1 = 0.414...; 4000 draws put outcome 1 well inside (1300, 2000)
        assert 1300 < counts[0] < 2000

    def test_words_come_in_bounded_blocks(self, monkeypatch):
        # The stream is read in blocks of at most _BLOCK draws, and consumed
        # exactly as by two getrandbits(64) calls per draw.
        requests = []
        real = ontology._substream

        class Recording(random.Random):
            def getrandbits(self, k):
                requests.append(k)
                return super().getrandbits(k)

        def recording(seed, worker):
            rng = Recording()
            rng.setstate(real(seed, worker).getstate())
            return rng

        monkeypatch.setattr(ontology, "_substream", recording)
        block = ontology._BLOCK
        samples = 10 * block + 7
        counts = simulate(build_toy_nlhv_model(), "nu00", "M", samples, 4)
        assert sum(counts) == samples and counts[0] == 0
        assert max(requests) <= 128 * block
        assert sum(requests) == 128 * samples

    def test_idle_workers_are_not_seeded(self, monkeypatch):
        seeded = []
        real = ontology._substream

        def counting(seed, worker):
            seeded.append(worker)
            return real(seed, worker)

        monkeypatch.setattr(ontology, "_substream", counting)
        counts = simulate(build_toy_nlhv_model(), "nu00", "M", 10, 7, jobs=5000)
        assert counts == [0, 3, 2, 5]
        assert len(seeded) <= 10


class TestCdf:
    # cumulative weights sqrt2 - 1, sqrt2 - 1, sqrt2 - 1/2, 1; item 1 has weight 0
    WEIGHTS = (SQRT2 - ONE, ZERO, HALF, q(Fraction(3, 2)) - SQRT2)
    ZERO_ITEM = 1

    def exact_pick(self, r):
        u = QSqrt2(Fraction(r, 1 << 64))
        running = ZERO
        for i, weight in enumerate(self.WEIGHTS):
            running = running + weight
            if (running - u).sign() > 0:
                return i
        raise AssertionError("u >= 1")

    def test_pick_matches_exact_comparison_at_each_threshold(self):
        thresholds = ontology._thresholds(self.WEIGHTS)
        assert len(thresholds) == len(self.WEIGHTS)
        assert thresholds[-1] == 1 << 64
        picked = set()
        for threshold in thresholds:
            for r in (threshold - 1, threshold):
                if 0 <= r < 1 << 64:
                    pick = bisect_right(thresholds, r)
                    assert pick == self.exact_pick(r)
                    picked.add(pick)
        assert picked == set(range(len(self.WEIGHTS))) - {self.ZERO_ITEM}

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(-20, 20), st.integers(1, 300)),
                    min_size=1, max_size=6))
    def test_thresholds_are_the_ceilings_of_the_running_sums(self, parts):
        weights = [q(Fraction(a, d), Fraction(b, d)) for a, b, d in parts]
        thresholds = ontology._thresholds(weights)
        assert len(thresholds) == len(weights)
        running = ZERO
        for weight, threshold in zip(weights, thresholds):
            running = running + weight
            assert threshold - 1 < running * (1 << 64) <= threshold

    @given(st.lists(st.lists(st.one_of(
        st.integers(0, 1 << 64),
        st.integers(0, 256).map(lambda b: b << 56),
    ), min_size=1, max_size=5), min_size=1, max_size=4))
    def test_guide_decides_every_unsplit_bucket(self, lists):
        lists = [sorted(thresholds) for thresholds in lists]
        guide, split = ontology._guide(lists)
        cut_inside = {t >> 56 for thresholds in lists for t in thresholds if t % (1 << 56)}
        for b in range(256):
            assert bool(split[b]) == (b in cut_inside)
            if split[b]:
                continue
            run_start = guide[b] << 56
            assert guide[b] <= b
            for thresholds in lists:
                index = bisect_right(thresholds, run_start)
                assert bisect_right(thresholds, b << 56) == index
                assert bisect_right(thresholds, ((b + 1) << 56) - 1) == index


def exact_counts(model, prep_label, meas_label, samples, seed, jobs):
    """Oracle for ``simulate``: the same seeded words, compared exactly.

    Worker w seeds random.Random(f"{seed}:{w}") and draws base (+1 for the
    first ``samples % jobs`` workers) samples.  Each sample takes word 1 and
    picks the first support point, in canonical order, whose cumulative weight
    exceeds word / 2^64; word 2 does the same over that point's outcome row.
    """
    prep = model.preparations[prep_label]
    meas = model.measurements[meas_label]

    def cumulative(weights):
        running, out = ZERO, []
        for weight in weights:
            running = running + weight
            out.append(running)
        return out

    def first_above(cdf, word):
        u = QSqrt2(Fraction(word, 1 << 64))
        return next(i for i, c in enumerate(cdf) if c > u)

    support = [p for p in model.space.points if p in prep.weights]
    point_cdf = cumulative(prep.weights[p] for p in support)
    outcome_cdfs = [cumulative(meas.rows[p]) for p in support]
    counts = [0] * meas.outcome_count
    base, extra = divmod(samples, jobs)
    for w in range(jobs):
        rng = random.Random(f"{seed}:{w}")
        for _ in range(base + (w < extra)):
            point = first_above(point_cdf, rng.getrandbits(64))
            counts[first_above(outcome_cdfs[point], rng.getrandbits(64))] += 1
    return counts


def sqrt2_model() -> OntologicalModel:
    """sqrt2 weights on three of six points; outcome 2 is forbidden on the support."""
    half_sqrt2 = q(0, Fraction(1, 2))
    prep = EpistemicState(GRID, {
        ("r1", "c1"): SQRT2 - ONE, ("r1", "c3"): HALF, ("r2", "c2"): q(Fraction(3, 2)) - SQRT2,
    })
    rows = {
        ("r1", "c1"): (SQRT2 - ONE, ZERO, q(2) - SQRT2),
        ("r1", "c2"): (ZERO, ONE, ZERO),
        ("r1", "c3"): (half_sqrt2, ZERO, ONE - half_sqrt2),
        ("r2", "c1"): (QUARTER, HALF, QUARTER),
        ("r2", "c2"): (ONE, ZERO, ZERO),
        ("r2", "c3"): (ZERO, ZERO, ONE),
    }
    return OntologicalModel(GRID, {"p": prep}, {"M": ResponseFunctions(GRID, 3, rows)})


def bucket_edge_model() -> OntologicalModel:
    """Thresholds on bucket boundaries (multiples of 1/256), strictly inside
    buckets (1/3, sqrt2 - 1), and zero entries; outcome 4 is forbidden."""
    space = OnticSpace((Factor("x", ("a", "b", "c", "d", "e", "f")),))
    third = q(Fraction(1, 3))
    prep = EpistemicState(space, {
        ("a",): q(Fraction(1, 256)),
        ("b",): third - q(Fraction(1, 256)),
        ("c",): SQRT2 - ONE - third,
        ("e",): q(Fraction(3, 2)) - SQRT2,
        ("f",): HALF,
    })
    rows = {
        ("a",): (q(Fraction(1, 256)), ZERO, q(Fraction(255, 256)), ZERO),
        ("b",): (third, ZERO, ONE - third, ZERO),
        ("c",): (SQRT2 - ONE, q(2) - SQRT2, ZERO, ZERO),
        ("d",): (ZERO, ZERO, ZERO, ONE),
        ("e",): (ZERO, ZERO, ONE, ZERO),
        ("f",): (HALF, QUARTER, QUARTER, ZERO),
    }
    return OntologicalModel(space, {"p": prep}, {"M": ResponseFunctions(space, 4, rows)})


def many_points_model() -> OntologicalModel:
    """301 equally weighted points: a threshold lies strictly inside every
    support bucket, so each draw takes the exact path.  Outcome 1 is forbidden."""
    space = OnticSpace((Factor("x", tuple(f"p{i}" for i in range(301))),))
    prep = EpistemicState(space, {point: q(Fraction(1, 301)) for point in space.points})
    rows = {
        point: (ZERO, q(Fraction(i % 7, 7)), ONE - q(Fraction(i % 7, 7)))
        for i, point in enumerate(space.points)
    }
    return OntologicalModel(space, {"p": prep}, {"M": ResponseFunctions(space, 3, rows)})


class TestSimulateOracle:
    CASES = (
        (build_toy_nlhv_model(), "nu00", "M", 0),
        (sqrt2_model(), "p", "M", 1),
        (bucket_edge_model(), "p", "M", 3),
    )
    BLOCK = ontology._BLOCK

    @pytest.mark.parametrize("case", range(len(CASES)), ids=["toy-nlhv", "sqrt2", "bucket-edges"])
    @pytest.mark.parametrize("seed", (0, 7, (1 << 64) - 1))
    def test_counts_match_exact_oracle(self, case, seed):
        model, prep_label, meas_label, forbidden = self.CASES[case]
        # jobs 3 and 7 against 0-2 samples leave workers idle.
        for jobs in (1, 2, 3, 7):
            for samples in (0, 1, 2, 999):
                counts = simulate(model, prep_label, meas_label, samples, seed, jobs)
                assert counts == exact_counts(model, prep_label, meas_label, samples, seed, jobs)
                assert counts[forbidden] == 0

    @pytest.mark.parametrize("case", range(len(CASES)), ids=["toy-nlhv", "sqrt2", "bucket-edges"])
    @pytest.mark.parametrize("samples, jobs", [
        (BLOCK - 1, 1), (BLOCK, 1), (BLOCK + 1, 1), (2 * BLOCK + 3, 1), (2 * BLOCK + 3, 2),
    ])
    def test_block_boundaries(self, case, samples, jobs):
        model, prep_label, meas_label, forbidden = self.CASES[case]
        counts = simulate(model, prep_label, meas_label, samples, 5, jobs)
        assert counts == exact_counts(model, prep_label, meas_label, samples, 5, jobs)
        assert counts[forbidden] == 0

    @pytest.mark.parametrize("samples, jobs", [(0, 1), (1, 1), (400, 1), (401, 3), (5, 9)])
    def test_support_past_one_byte(self, samples, jobs):
        model = many_points_model()
        counts = simulate(model, "p", "M", samples, 11, jobs)
        assert counts == exact_counts(model, "p", "M", samples, 11, jobs)
        assert counts[0] == 0
