"""Tests for the model file format: parsing, canonical dumps, strict loading."""

from pathlib import Path

import pytest

from onticbench.modelfile import (
    ModelFormatError,
    ModelValidationError,
    dump_model,
    dumps,
    load_model,
    loads,
    read_model,
    validate_model,
)
from onticbench.numerics import HALF, INV_SQRT2, ONE, QSqrt2
from onticbench.scenarios import build_toy_nlhv_model

GOLDEN = Path(__file__).parent / "data" / "toy-nlhv.model"

SMALL = """\
onticbench-model 1

space
  factor x a b
end

preparation p
  (a) 1/2
  (b) 1/2
end

measurement M
  outcomes 2
  1 (a) 1
  2 (b) 1
end
"""


class TestGoldenFile:
    def test_loads_to_builtin_model(self):
        model = loads(GOLDEN.read_text(encoding="utf-8"))
        assert model == build_toy_nlhv_model()

    def test_dump_is_byte_identical(self):
        assert dumps(build_toy_nlhv_model()) == GOLDEN.read_text(encoding="utf-8")

    def test_strict_load(self):
        assert load_model(GOLDEN) == build_toy_nlhv_model()


class TestRoundTrip:
    def test_small_model(self):
        model = loads(SMALL)
        assert loads(dumps(model)) == model

    def test_canonical_dump_stable(self):
        model = loads(SMALL)
        assert dumps(loads(dumps(model))) == dumps(model)

    def test_path_round_trip(self, tmp_path):
        model = loads(SMALL)
        target = tmp_path / "small.model"
        dump_model(model, target)
        assert load_model(target) == model

    def test_comments_and_blank_lines_ignored(self):
        commented = SMALL.replace(
            "space", "# leading comment\nspace"
        ).replace("  (a) 1/2", "  (a) 1/2  # trailing half")
        assert loads(commented) == loads(SMALL)

    def test_field_values_accepted(self):
        text = SMALL.replace("(a) 1/2", "(a) 1/3 + sqrt2/7").replace(
            "(b) 1/2", "(b) 2/3 - sqrt2/7"
        )
        model = loads(text)
        expected = QSqrt2.parse("1/3 + sqrt2/7")
        assert model.preparations["p"].weight(("a",)) == expected
        assert model.preparations["p"].weight(("b",)) == ONE - expected

    def test_sqrt2_values_survive_dump(self):
        text = SMALL.replace("(a) 1/2", "(a) sqrt2/2").replace(
            "(b) 1/2", "(b) 1 - sqrt2/2"
        )
        model = loads(text)
        again = loads(dumps(model))
        assert again.preparations["p"].weight(("a",)) == INV_SQRT2


class TestFormatErrors:
    def test_empty_file(self):
        with pytest.raises(ModelFormatError) as err:
            loads("")
        assert err.value.line == 1

    def test_bad_header(self):
        with pytest.raises(ModelFormatError, match="header"):
            loads("not a model\n")

    def test_unsupported_version(self):
        with pytest.raises(ModelFormatError, match="version"):
            loads("onticbench-model 99\n\nspace\n  factor x a\nend\n")

    def test_error_carries_position(self):
        text = SMALL.replace("(a) 1/2", "(a) bogus")
        with pytest.raises(ModelFormatError) as err:
            loads(text)
        assert err.value.line == 8
        assert err.value.column is not None

    def test_duplicate_factor(self):
        text = SMALL.replace("factor x a b", "factor x a b\n  factor x c d")
        with pytest.raises(ModelFormatError, match="duplicate factor"):
            loads(text)

    def test_duplicate_preparation(self):
        text = SMALL + "\npreparation p\n  (a) 1\nend\n"
        with pytest.raises(ModelFormatError, match="duplicate preparation"):
            loads(text)

    def test_duplicate_point_entry(self):
        text = SMALL.replace("  (b) 1/2", "  (a) 1/2")
        with pytest.raises(ModelFormatError, match="duplicate"):
            loads(text)

    def test_unterminated_section(self):
        with pytest.raises(ModelFormatError, match="unterminated"):
            loads("onticbench-model 1\n\nspace\n  factor x a b\n")

    def test_measurement_needs_outcomes_first(self):
        text = SMALL.replace("  outcomes 2\n", "")
        with pytest.raises(ModelFormatError):
            loads(text)

    def test_space_must_come_first(self):
        text = "onticbench-model 1\n\npreparation p\n  (a) 1\nend\n"
        with pytest.raises(ModelFormatError, match="space section"):
            loads(text)

    def test_unknown_point(self):
        text = SMALL.replace("(a) 1/2", "(zz) 1/2")
        with pytest.raises(ModelFormatError):
            loads(text)

    def test_wrong_arity_point(self):
        text = SMALL.replace("(a) 1/2", "(a,b) 1/2")
        with pytest.raises(ModelFormatError):
            loads(text)

    @pytest.mark.parametrize(
        "old, new", [("outcomes 2", "outcomes \u00b2"), ("  1 (a) 1", "  \u00b9 (a) 1")]
    )
    def test_non_ascii_digits_rejected(self, old, new):
        # str.isdigit accepts superscript digits; int() does not.
        with pytest.raises(ModelFormatError, match="outcome"):
            loads(SMALL.replace(old, new))

    def test_non_utf8_file_is_located(self, tmp_path):
        target = tmp_path / "latin1.model"
        target.write_bytes(SMALL.replace("factor x a b", "factor x a \u00e9").encode("latin-1"))
        with pytest.raises(ModelFormatError, match="UTF-8") as err:
            read_model(target)
        assert (err.value.line, err.value.column) == (4, 14)


class TestValidation:
    def test_structural_load_accepts_bad_weights(self):
        # loads() checks shape only; semantic checks are a separate pass
        text = SMALL.replace("(a) 1/2", "(a) 1/3")
        model = loads(text)
        verdicts = validate_model(model)
        assert not verdicts["preparation p"].ok

    def test_validate_model_keys(self):
        verdicts = validate_model(loads(SMALL))
        assert set(verdicts) == {"preparation p", "measurement M"}
        assert all(v.ok for v in verdicts.values())

    def test_strict_load_rejects_bad_weights(self, tmp_path):
        target = tmp_path / "bad.model"
        target.write_text(SMALL.replace("(a) 1/2", "(a) 1/3"), encoding="utf-8")
        with pytest.raises(ModelValidationError, match="preparation p"):
            load_model(target)

    def test_negative_weight_rejected_strictly(self, tmp_path):
        target = tmp_path / "neg.model"
        target.write_text(
            SMALL.replace("(a) 1/2", "(a) 3/2").replace("(b) 1/2", "(b) -1/2"),
            encoding="utf-8",
        )
        with pytest.raises(ModelValidationError):
            load_model(target)

    def test_measurement_row_sums_checked(self, tmp_path):
        target = tmp_path / "rows.model"
        target.write_text(SMALL.replace("1 (a) 1", "1 (a) 1/2"), encoding="utf-8")
        with pytest.raises(ModelValidationError, match="measurement M"):
            load_model(target)
