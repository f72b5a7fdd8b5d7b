"""Tests for ontic spaces, epistemic states, response functions, and sampling."""

from fractions import Fraction

import pytest

from onticbench import ontology
from onticbench.hilbert import MeasurementBasis, born_probabilities, ket
from onticbench.modelfile import loads
from onticbench.numerics import HALF, ONE, QSqrt2, QUARTER, SQRT2, ZERO
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
    # cumulative weights sqrt2 - 1, sqrt2 - 1, sqrt2 - 1/2, 1; item "zero" has weight 0
    ITEMS = ("a", "zero", "b", "c")
    WEIGHTS = (SQRT2 - ONE, ZERO, HALF, q(Fraction(3, 2)) - SQRT2)

    def exact_pick(self, r):
        u = QSqrt2(Fraction(r, 1 << 64))
        running = ZERO
        for item, weight in zip(self.ITEMS, self.WEIGHTS):
            running = running + weight
            if (running - u).sign() > 0:
                return item
        raise AssertionError("u >= 1")

    def test_pick_matches_exact_comparison_at_each_threshold(self):
        cdf = ontology._Cdf(self.ITEMS, self.WEIGHTS)
        assert cdf.thresholds[-1] == 1 << 64
        for threshold in cdf.thresholds:
            for r in (threshold - 1, threshold):
                if 0 <= r < 1 << 64:
                    assert cdf.pick(r) == self.exact_pick(r)
