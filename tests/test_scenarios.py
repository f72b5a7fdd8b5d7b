"""Tests for the built-in quantum scenario and the two coin models."""

from fractions import Fraction

import pytest

from onticbench.hilbert import (
    born_probabilities,
    check_orthonormal,
    inner_product,
    ket_product,
)
from onticbench.numerics import HALF, ONE, QSqrt2, QUARTER, ZERO
from onticbench.ontology import (
    OntologicalModel,
    check_born_agreement,
    predicted_statistics,
    validate_epistemic,
    validate_responses,
)
from onticbench.scenarios import (
    COIN_LABELS,
    MARGINAL_PREP_ORDER,
    MEASUREMENT_LABEL,
    PREP_ORDER,
    SHARED_FACTOR,
    STATE_ORDER,
    build_pbr_lhv_model,
    build_pbr_quantum_scenario,
    build_toy_nlhv_model,
    pbr_prep_order,
    subsystem_states,
    toy_space,
)

BORN_ROWS = (
    (ZERO, QUARTER, QUARTER, HALF),
    (QUARTER, ZERO, HALF, QUARTER),
    (QUARTER, HALF, ZERO, QUARTER),
    (HALF, QUARTER, QUARTER, ZERO),
)


@pytest.fixture(scope="module")
def scenario():
    return build_pbr_quantum_scenario()


@pytest.fixture(scope="module")
def toy():
    return build_toy_nlhv_model()


class TestQuantumScenario:
    def test_product_state_keys(self, scenario):
        assert tuple(scenario.product_states) == STATE_ORDER

    def test_product_states_match_kets(self, scenario):
        for name in STATE_ORDER:
            assert scenario.product_states[name] == ket_product(name)

    def test_measurement_orthonormal(self, scenario):
        assert check_orthonormal(scenario.measurement.outcomes).ok

    def test_each_outcome_excludes_its_state(self, scenario):
        for k, name in enumerate(STATE_ORDER):
            overlap = inner_product(
                scenario.measurement.outcomes[k], scenario.product_states[name]
            )
            assert not overlap

    def test_born_table_frozen(self, scenario):
        assert scenario.born_table == BORN_ROWS


class TestToyModel:
    def test_space_has_32_points(self, toy):
        assert toy.space.size == 32
        assert toy.space.factor_names == ("lambda1", "lambda2", SHARED_FACTOR)
        assert toy.space.factors[0].labels == COIN_LABELS

    def test_preparation_labels(self, toy):
        assert set(toy.preparations) == set(PREP_ORDER)

    def test_all_components_valid(self, toy):
        for state in toy.preparations.values():
            assert validate_epistemic(state).ok
        assert validate_responses(toy.measurements[MEASUREMENT_LABEL]).ok

    def test_preparation_weights(self, toy):
        nu0p = toy.preparations["nu0+"]
        assert nu0p.weight(("HH", "HH", "2")) == QUARTER
        assert nu0p.weight(("HH", "HH", "1")) == ZERO
        assert len(nu0p.support()) == 4

    def test_shared_flag_rule(self, toy):
        # lambda_s reads 2 only where both pairs landed HH under unequal choices
        for label, state in toy.preparations.items():
            expect_two = label in ("nu0+", "nu+0")
            for point in state.support():
                if point[0] == "HH" and point[1] == "HH":
                    assert point[2] == ("2" if expect_two else "1"), label
                else:
                    assert point[2] == "1", label

    def test_support_union(self, toy):
        union = {p for state in toy.preparations.values() for p in state.support()}
        assert len(union) == 10
        assert ("HH", "HH", "1") in union
        assert ("HH", "HH", "2") in union
        assert all(p[2] == "1" for p in union if p != ("HH", "HH", "2"))

    def test_response_values_on_union(self, toy):
        rows = toy.measurements[MEASUREMENT_LABEL].rows
        assert rows[("HH", "HH", "2")][0] == HALF
        assert rows[("HH", "HH", "2")][1] == ZERO
        assert rows[("HH", "HH", "2")][3] == HALF
        assert rows[("HH", "HH", "1")][1] == HALF
        assert rows[("TH", "TH", "1")][0] == ONE
        assert rows[("HT", "HT", "1")][3] == ONE

    def test_filler_outside_union(self, toy):
        xi = toy.measurements[MEASUREMENT_LABEL]
        for point in (("TT", "TT", "1"), ("HH", "HT", "2"), ("TT", "HH", "2")):
            assert xi.rows[point] == (QUARTER,) * 4

    def test_rows_sum_to_one_everywhere(self, toy):
        xi = toy.measurements[MEASUREMENT_LABEL]
        for point in toy.space.points:
            total = ZERO
            for value in xi.rows[point]:
                total = total + value
            assert total == ONE, point

    def test_reproduces_born_rows(self, toy):
        for label, row in zip(PREP_ORDER, BORN_ROWS):
            assert predicted_statistics(toy, label, MEASUREMENT_LABEL) == list(row)

    def test_full_agreement_with_quantum_scenario(self, toy, scenario):
        rows = {
            label: born_probabilities(scenario.product_states[name], scenario.measurement)
            for label, name in zip(PREP_ORDER, STATE_ORDER)
        }
        report = check_born_agreement(toy, MEASUREMENT_LABEL, rows)
        assert report.all_match
        assert len(report.cells) == 16


class TestSubsystemStates:
    def test_supports(self):
        subs = subsystem_states()
        assert subs["nu0"].support() == (("HH",), ("HT",))
        assert subs["nu+"].support() == (("HH",), ("TH",))

    def test_custom_factor_name(self):
        subs = subsystem_states("lambda2")
        assert subs["nu0"].space.factor_names == ("lambda2",)


class TestLhvRestriction:
    def test_marginals_renamed(self):
        model = build_pbr_lhv_model()
        assert set(model.preparations) == set(MARGINAL_PREP_ORDER)
        assert model.space.size == 16
        assert not model.measurements

    def test_marginal_weights(self):
        model = build_pbr_lhv_model()
        mu = model.preparations["mu0+"]
        # the shared flag is integrated out; the four cells keep weight 1/4
        assert mu.weight(("HH", "HH")) == QUARTER
        assert mu.weight(("HT", "TH")) == QUARTER


class TestPrepOrder:
    def test_builtin_orders(self, toy):
        assert pbr_prep_order(toy) == PREP_ORDER
        assert pbr_prep_order(build_pbr_lhv_model()) == MARGINAL_PREP_ORDER

    def test_other_labels_ask_for_preps(self):
        subs = subsystem_states()
        model = OntologicalModel(subs["nu0"].space, subs, {})
        with pytest.raises(ValueError, match="in Born-row order with --preps"):
            pbr_prep_order(model)
