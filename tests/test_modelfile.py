"""Tests for the model file format: parsing, canonical dumps, strict loading."""

import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticbench.modelfile import (
    FORMAT_NAME,
    MAX_CELLS,
    MAX_POINTS,
    SCHEMA_VERSION,
    ModelFormatError,
    ModelValidationError,
    dumps,
    load_model,
    loads,
    read_model,
    validate_model,
)
from onticbench.numerics import HALF, INV_SQRT2, ONE, QSqrt2, ZERO, as_qsqrt2
from onticbench.ontology import (
    EpistemicState,
    Factor,
    OnticSpace,
    OntologicalModel,
    Point,
    ResponseFunctions,
    _check_token,
    format_point,
)
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
        target.write_text(dumps(model), encoding="utf-8")
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

    def test_outcome_count_lowered_after_entries(self):
        text = SMALL.replace("  2 (b) 1\n", "  2 (b) 1\n  outcomes 1\n")
        with pytest.raises(ModelFormatError, match="duplicate 'outcomes' line") as err:
            loads(text)
        assert (err.value.line, err.value.column) == (16, 3)

    @pytest.mark.parametrize("repeat", ["outcomes 2", "filler 1/3"])
    def test_repeated_line_is_located(self, repeat):
        text = SMALL.replace("  outcomes 2\n", f"  outcomes 2\n  filler 0\n  {repeat}\n")
        with pytest.raises(ModelFormatError, match=f"duplicate '{repeat.split()[0]}' line") as err:
            loads(text)
        assert (err.value.line, err.value.column) == (15, 3)

    @pytest.mark.parametrize(
        "old, new, line",
        [("preparation p", "preparation p(1", 7), ("measurement M", "measurement M,1", 12)],
        ids=["preparation", "measurement"],
    )
    def test_bad_section_label_is_located(self, old, new, line):
        with pytest.raises(ModelFormatError, match="bad (preparation|measurement) label") as err:
            loads(SMALL.replace(old, new))
        assert (err.value.line, err.value.column) == (line, 1)

    def test_non_utf8_file_is_located(self, tmp_path):
        target = tmp_path / "latin1.model"
        target.write_bytes(SMALL.replace("factor x a b", "factor x a \u00e9").encode("latin-1"))
        with pytest.raises(ModelFormatError, match="UTF-8") as err:
            read_model(target)
        assert (err.value.line, err.value.column) == (4, 14)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("  outcomes 4", "  outcomes " + "9" * 5000,
             "an outcome count of 5000 digits makes more than 262144 response cells in the model"),
            ("  outcomes 4", "  outcomes 1000000",
             "an outcome count of 7 digits makes more than 262144 response cells in the model"),
            ("  1 (HH,HH,2) 1/2", "  " + "1" * 5000 + " (HH,HH,2) 1/2",
             "outcome number of 5000 digits out of range 1..4"),
            ("  1 (HH,HH,2) 1/2", "  0001000000 (HH,HH,2) 1/2",
             "outcome number of 7 digits out of range 1..4"),
        ],
        ids=["outcomes-5000-digits", "outcomes-7-digits", "entry-5000-digits", "entry-7-digits"],
    )
    def test_over_long_count_is_located(self, old, new, message):
        text = GOLDEN.read_text(encoding="utf-8").replace(old, new, 1)
        with pytest.raises(ModelFormatError) as err:
            loads(text)
        line = text.split("\n").index(new) + 1
        assert str(err.value) == f"line {line}, column 3: {message}"
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize(
        "old, new",
        [
            ("outcomes 4", "outcomes 0004"),
            ("outcomes 4", "outcomes " + "0" * 5000 + "4"),
            ("  1 (HH,HH,2) 1/2", "  " + "0" * 5000 + "1 (HH,HH,2) 1/2"),
        ],
        ids=["outcomes-0004", "outcomes-5000-zeros", "entry-5000-zeros"],
    )
    def test_leading_zeros_do_not_count(self, old, new):
        text = GOLDEN.read_text(encoding="utf-8").replace(old, new, 1)
        assert loads(text) == build_toy_nlhv_model()


# Characters at which str.splitlines() breaks a line, besides \n and \r.
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=ascii)
    def test_comment_runs_to_the_newline(self, char):
        lines = GOLDEN.read_text(encoding="utf-8").split("\n")
        assert lines[1] == ""
        lines[1] = f"# page{char}break"
        text = "\n".join(lines)
        assert loads(text) == build_toy_nlhv_model()
        bad = text.replace("outcomes 4", "outcomes x")
        with pytest.raises(ModelFormatError, match="expected 'outcomes K'") as err:
            loads(bad)
        editor_line = bad.count("\n", 0, bad.index("outcomes x")) + 1
        assert (err.value.line, err.value.column) == (editor_line, 3)

    def test_crlf_loads_as_lf(self):
        text = GOLDEN.read_text(encoding="utf-8")
        assert loads(text.replace("\n", "\r\n")) == loads(text)


class TestFieldColumns:
    """An error in a field names the column where that field starts."""

    @pytest.mark.parametrize("gap", ["  ", "\t", " \t "], ids=["two-spaces", "tab", "mixed"])
    @pytest.mark.parametrize(
        "old, new, bad",
        [
            ("  1 (a) 1", "  1{gap}(c) 1", "(c)"),
            ("  1 (a) 1", "  1 (a){gap}0x", "0x"),
            ("  outcomes 2", "  outcomes 2\n  filler{gap}1/4x", "1/4x"),
            ("  (a) 1/2", "  (a){gap}1/2x", "1/2x"),
        ],
        ids=["entry-point", "entry-value", "filler-value", "weight-value"],
    )
    def test_column_of_a_bad_field(self, gap, old, new, bad):
        new = new.format(gap=gap)
        text = SMALL.replace(old, new, 1)
        line = next(l for l in text.split("\n") if bad in l.split())
        with pytest.raises(ModelFormatError) as err:
            loads(text)
        assert (err.value.line, err.value.column) == (
            text.split("\n").index(line) + 1, line.index(bad) + 1
        )

    def test_examples(self):
        text = GOLDEN.read_text(encoding="utf-8")
        for old, new, column in [
            ("  1 (HH,HH,1) 0", "  1  (HH,HH,1) 0x", 16),
            ("  filler 1/4", "  filler   1/4x", 12),
        ]:
            with pytest.raises(ModelFormatError) as err:
                loads(text.replace(old, new, 1))
            assert err.value.column == column


# Values for the toy file's first measurement entry: one with a numeral
# longer than Python's default int() digit limit, one 5002 characters long.
LONG_DENOMINATOR = "1/" + "4" * 5000
LONG_VALUE = "0." + "2" * 5000


class TestLongValues:
    @pytest.mark.parametrize(
        "value, message",
        [
            (LONG_DENOMINATOR, "numeral of 5000 digits at offset 2; at most 4300 digits are allowed"),
            (LONG_VALUE, "expected '+' or '-' at offset 1 in '0." + "2" * 38 + "'... (5002 characters)"),
        ],
        ids=["5000-digit-denominator", "5000-character-value"],
    )
    def test_located_and_short(self, value, message):
        text = GOLDEN.read_text(encoding="utf-8").replace("  1 (HH,HH,1) 0", f"  1 (HH,HH,1) {value}", 1)
        line = text.split("\n").index(f"  1 (HH,HH,1) {value}") + 1
        with pytest.raises(ModelFormatError) as err:
            loads(text)
        assert str(err.value) == f"line {line}, column 15: {message}"
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("digits", ["4300", "0"])
    def test_exit_two_under_any_digit_limit(self, tmp_path, digits):
        model = tmp_path / "long.model"
        text = GOLDEN.read_text(encoding="utf-8")
        model.write_text(text.replace("  1 (HH,HH,1) 0", f"  1 (HH,HH,1) {LONG_DENOMINATOR}", 1))
        result = subprocess.run(
            [sys.executable, "-m", "onticbench.cli", "validate", str(model)],
            capture_output=True, text=True, env={**os.environ, "PYTHONINTMAXSTRDIGITS": digits},
        )
        assert result.returncode == 2
        assert re.match(r"error: line \d+, column 15: numeral of 5000 digits", result.stderr)

    def test_longest_numeral_loads(self):
        value = "1/" + "4" * 4300
        text = GOLDEN.read_text(encoding="utf-8").replace("  (HH,HH,1) 1/4", f"  (HH,HH,1) {value}", 1)
        weights = loads(text).preparations["nu++"].weights
        assert weights[("HH", "HH", "1")] == QSqrt2.parse(value)


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


def space_text(factors: int, labels: int) -> str:
    row = " ".join(f"l{i}" for i in range(labels))
    lines = [f"  factor f{j} {row}" for j in range(factors)]
    return f"{FORMAT_NAME} {SCHEMA_VERSION}\n\nspace\n" + "\n".join(lines) + "\nend\n"


class TestSizeLimits:
    """A file cannot make the loader build more than the limits allow."""

    def test_largest_space_and_table_load(self):
        model = loads(space_text(4, 16) + "\nmeasurement M\n  outcomes 4\n  filler 1/4\nend\n")
        assert model.space.size == MAX_POINTS
        assert model.space.size * model.measurements["M"].outcome_count == MAX_CELLS

    def test_oversize_space_located_at_space_line(self):
        with pytest.raises(ModelFormatError, match="more than 65536 points") as err:
            loads(space_text(9, 8))
        assert (err.value.line, err.value.column) == (3, 1)

    def test_oversize_table_located_at_outcomes_line(self):
        text = GOLDEN.read_text(encoding="utf-8").replace("outcomes 4", "outcomes 8193")
        with pytest.raises(ModelFormatError, match="more than 262144 response cells") as err:
            loads(text)
        line = text.splitlines().index("  outcomes 8193") + 1
        assert (err.value.line, err.value.column) == (line, 3)
        assert loads(text.replace("outcomes 8193", "outcomes 8192")).space.size == 32

    def test_cells_bounded_over_the_whole_model(self):
        # Each table alone fits; the second one takes the model past the limit.
        section = "\nmeasurement M{}\n  outcomes {}\n  filler 1/4\nend\n"
        text = space_text(4, 16) + section.format(1, 3) + section.format(2, 2)
        with pytest.raises(ModelFormatError, match="more than 262144 response cells") as err:
            loads(text)
        line = text.splitlines().index("measurement M2") + 2
        assert (err.value.line, err.value.column) == (line, 3)
        assert "(196608 in earlier measurements)" in str(err.value)
        model = loads(space_text(4, 16) + section.format(1, 3) + section.format(2, 1))
        assert sum(m.outcome_count for m in model.measurements.values()) * MAX_POINTS == MAX_CELLS


HEADER = f"{FORMAT_NAME} {SCHEMA_VERSION}\n\n"
TWO_LABELS = "space\n  factor a x y\nend\n"
NINE_FACTORS = space_text(9, 8)
BAD_LABEL = (
    "bad preparation label: 'p(q' "
    "(tokens must be non-empty, without whitespace or '(', ')', ',', '#')"
)


class TestErrorPrecedence:
    """Which of several faults in a section is reported, and where."""

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("space\n  factor a x y\n  bogus\n", 5, "expected 'factor NAME LABEL...' or 'end'"),
            ("space\n  factor a x y\n  bogus\npreparation p\n", 5,
             "expected 'factor NAME LABEL...' or 'end'"),
            (TWO_LABELS + "measurement M\n", 6, "unterminated measurement section"),
            (TWO_LABELS + "measurement M\nend\n", 6, "measurement 'M' declares no outcome count"),
            ("space\n", 3, "unterminated space section"),
            ("space\nend\n", 3, "an ontic space needs at least one factor"),
            (NINE_FACTORS[len(HEADER):-len("end\n")], 3, "unterminated space section"),
            (NINE_FACTORS[len(HEADER):], 3, "space has more than 65536 points"),
            ("preparation p\n  junk\nend\n", 3, "space section must come first"),
            (TWO_LABELS + "preparation p(q\n  junk\nend\n", 6, BAD_LABEL),
            (TWO_LABELS + "preparation p\n  (x) 1\n", 6, "unterminated preparation section"),
        ],
        ids=[
            "bad-factor-at-eof",
            "bad-factor-before-preparation",
            "measurement-at-eof",
            "measurement-without-outcomes",
            "space-at-eof",
            "space-without-factors",
            "oversize-space-at-eof",
            "oversize-space",
            "preparation-before-space",
            "bad-preparation-label",
            "preparation-at-eof",
        ],
    )
    def test_first_fault_wins(self, body, line, message):
        with pytest.raises(ModelFormatError) as err:
            loads(HEADER + body)
        assert str(err.value) == f"line {line}, column 1: {message}"

    def test_entry_error_wins_over_missing_end(self):
        with pytest.raises(ModelFormatError) as err:
            loads(HEADER + TWO_LABELS + "preparation p\n  (z) 1\n")
        assert str(err.value) == "line 7, column 3: factor 'a' has no label 'z'"


PAD = 16


def padded_toy_text() -> str:
    """toy-nlhv times a uniform 16-label factor (512 points), with one sqrt2 shift."""
    toy = build_toy_nlhv_model()
    pad = Factor("lambda_p", tuple(f"p{i}" for i in range(PAD)))
    space = OnticSpace(toy.space.factors + (pad,))
    share = QSqrt2(Fraction(1, PAD))
    preparations = {}
    for label, state in toy.preparations.items():
        weights = {p + (e,): w * share for p, w in state.weights.items() for e in pad.labels}
        base = state.support()[0]
        moved = QSqrt2(0, Fraction(1, 128))
        weights[base + ("p0",)] -= moved
        weights[base + ("p1",)] += moved
        preparations[label] = EpistemicState(space, weights)
    measurements = {
        label: ResponseFunctions(
            space,
            meas.outcome_count,
            {p + (e,): row for p, row in meas.rows.items() for e in pad.labels},
            meas.filler,
        )
        for label, meas in toy.measurements.items()
    }
    return dumps(OntologicalModel(space, preparations, measurements))


class TestInterning:
    """loads() parses each distinct point and value text once per call."""

    def test_each_value_text_parsed_once(self, monkeypatch):
        text = padded_toy_text()
        parse = QSqrt2.parse
        calls = []

        def counting(value_text):
            calls.append(value_text)
            return parse(value_text)

        monkeypatch.setattr(QSqrt2, "parse", staticmethod(counting))
        model = loads(text)
        assert model.space.size == 32 * PAD
        # Every value field of the file, as dumps wrote it.
        fields = [line.split(None, 2)[-1] if line[2].isdigit() else line.split(None, 1)[1]
                  for line in text.splitlines()
                  if line.startswith("  ") and not line.startswith(("  factor", "  outcomes"))]
        assert len(fields) > 10 * len(set(fields))
        assert sorted(calls) == sorted(set(fields))
        monkeypatch.undo()
        assert dumps(loads(text)) == text

    def test_points_shared_across_sections(self):
        model = loads(padded_toy_text())
        first: Dict[Point, Point] = {}
        for state in model.preparations.values():
            for point in state.weights:
                assert first.setdefault(point, point) is point
        # Some points are in more than one support, so the identity was tested.
        assert sum(len(s.weights) for s in model.preparations.values()) > len(first)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("1/64", "1/0"),  # zero denominator
            ("1/2", "1/2 +"),  # malformed tail
            ("(TH,TH,1,p3)", "(TH,TH,1,p99)"),  # unknown label
            ("(TH,TH,1,p3)", "(TH,TH,p3)"),  # too few coordinates
        ],
    )
    def test_bad_token_after_good_lines_is_located(self, old, new):
        # The good form of each token is parsed on many lines before the bad one.
        lines = padded_toy_text().splitlines()
        at = max(i for i, line in enumerate(lines) if old in line.split())
        assert sum(old in line.split() for line in lines[:at]) >= 3 and at > 100
        column = lines[at].index(old) + 1
        lines[at] = lines[at].replace(old, new)
        with pytest.raises(ModelFormatError) as err:
            loads("\n".join(lines) + "\n")
        assert (err.value.line, err.value.column) == (at + 1, column)


# ---- the previous loader, kept as an oracle ----------------------------------
# loads() as it was when it framed each section kind on its own and built
# measurements through ResponseFunctions.from_entries, with two changes
# since: a bad preparation or measurement label is an error at its header
# line, not at the file's last line, and an error in a field names the
# column where the field starts, not one counted with one space between
# fields.  The one-pass loader must give the same model or the same error
# for every input.


@dataclass
class _ParentLine:
    number: int
    text: str  # comment-stripped, right-trimmed


def _parent_logical_lines(text: str) -> List[_ParentLine]:
    lines = []
    for number, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            lines.append(_ParentLine(number, body))
    return lines


def _parent_parse_point(token: str, space: OnticSpace, line: int, col: int) -> Point:
    if not (token.startswith("(") and token.endswith(")")):
        raise ModelFormatError(f"expected a point like (a,b), got {token!r}", line, col)
    labels = tuple(token[1:-1].split(","))
    if len(labels) != len(space.factors):
        raise ModelFormatError(
            f"point {token} has {len(labels)} coordinates, space has {len(space.factors)}",
            line,
            col,
        )
    for coord, factor in zip(labels, space.factors):
        if coord not in factor.labels:
            raise ModelFormatError(
                f"factor {factor.name!r} has no label {coord!r}", line, col
            )
    return labels


def _parent_is_count(token: str) -> bool:
    # str.isdigit alone also admits non-ASCII digits, such as superscripts,
    # that int() refuses.
    return token.isascii() and token.isdigit()


def _parent_parse_value(text: str, line: int, col: int) -> QSqrt2:
    try:
        return QSqrt2.parse(text)
    except ValueError as exc:
        raise ModelFormatError(str(exc), line, col) from None


def _parent_loads(text: str) -> OntologicalModel:
    """Parse a model file; structural errors raise ModelFormatError."""
    lines = _parent_logical_lines(text)
    if not lines:
        raise ModelFormatError("empty model file", 1)
    header = lines[0].text.strip().split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise ModelFormatError(
            f"expected header '{FORMAT_NAME} {SCHEMA_VERSION}'", lines[0].number
        )
    if header[1] != str(SCHEMA_VERSION):
        raise ModelFormatError(f"unsupported schema version {header[1]}", lines[0].number)

    space: Optional[OnticSpace] = None
    factors: List[Factor] = []
    preparations: Dict[str, EpistemicState] = {}
    measurements: Dict[str, ResponseFunctions] = {}

    i = 1
    while i < len(lines):
        line = lines[i]
        tokens = line.text.split()
        keyword = tokens[0]
        if keyword == "space":
            if len(tokens) != 1:
                raise ModelFormatError("'space' takes no arguments", line.number)
            if space is not None:
                raise ModelFormatError("duplicate space section", line.number)
            i += 1
            while i < len(lines) and lines[i].text.split() != ["end"]:
                entry = lines[i]
                parts = entry.text.split()
                if parts[0] != "factor" or len(parts) < 3:
                    raise ModelFormatError(
                        "expected 'factor NAME LABEL...' or 'end'", entry.number
                    )
                name = parts[1]
                if any(f.name == name for f in factors):
                    raise ModelFormatError(f"duplicate factor {name!r}", entry.number)
                try:
                    factors.append(Factor(name, tuple(parts[2:])))
                except ValueError as exc:
                    raise ModelFormatError(str(exc), entry.number) from None
                i += 1
            if i >= len(lines):
                raise ModelFormatError("unterminated space section", line.number)
            try:
                space = OnticSpace(tuple(factors))
            except ValueError as exc:
                raise ModelFormatError(str(exc), line.number) from None
            i += 1
        elif keyword == "preparation":
            if space is None:
                raise ModelFormatError("space section must come first", line.number)
            if len(tokens) != 2:
                raise ModelFormatError("expected 'preparation LABEL'", line.number)
            label = tokens[1]
            try:
                _check_token(label, "preparation label")
            except ValueError as exc:
                raise ModelFormatError(str(exc), line.number) from None
            if label in preparations:
                raise ModelFormatError(f"duplicate preparation {label!r}", line.number)
            weights: Dict[Point, QSqrt2] = {}
            i += 1
            while i < len(lines) and lines[i].text.split() != ["end"]:
                entry = lines[i]
                stripped = entry.text.strip()
                col = len(entry.text) - len(stripped) + 1
                parts = stripped.split(None, 1)
                if len(parts) != 2:
                    raise ModelFormatError("expected 'POINT VALUE'", entry.number, col)
                point = _parent_parse_point(parts[0], space, entry.number, col)
                if point in weights:
                    raise ModelFormatError(
                        f"duplicate point {format_point(point)}", entry.number, col
                    )
                value_col = col + len(stripped) - len(parts[1])
                weights[point] = _parent_parse_value(parts[1], entry.number, value_col)
                i += 1
            if i >= len(lines):
                raise ModelFormatError("unterminated preparation section", line.number)
            preparations[label] = EpistemicState(space, weights)
            i += 1
        elif keyword == "measurement":
            if space is None:
                raise ModelFormatError("space section must come first", line.number)
            if len(tokens) != 2:
                raise ModelFormatError("expected 'measurement LABEL'", line.number)
            label = tokens[1]
            try:
                _check_token(label, "measurement label")
            except ValueError as exc:
                raise ModelFormatError(str(exc), line.number) from None
            if label in measurements:
                raise ModelFormatError(f"duplicate measurement {label!r}", line.number)
            outcome_count: Optional[int] = None
            filler = ZERO
            entries: Dict[Tuple[int, Point], QSqrt2] = {}
            seen = set()
            i += 1
            while i < len(lines) and lines[i].text.split() != ["end"]:
                entry = lines[i]
                stripped = entry.text.strip()
                col = len(entry.text) - len(stripped) + 1
                parts = stripped.split(None, 2)
                if parts[0] in ("outcomes", "filler"):
                    if parts[0] in seen:
                        raise ModelFormatError(f"duplicate {parts[0]!r} line", entry.number, col)
                    seen.add(parts[0])
                if parts[0] == "outcomes":
                    if len(parts) != 2 or not _parent_is_count(parts[1]) or int(parts[1]) < 1:
                        raise ModelFormatError("expected 'outcomes K'", entry.number, col)
                    outcome_count = int(parts[1])
                elif parts[0] == "filler":
                    if len(parts) < 2:
                        raise ModelFormatError("expected 'filler VALUE'", entry.number, col)
                    value = stripped.split(None, 1)[1]
                    filler = _parent_parse_value(
                        value, entry.number, col + len(stripped) - len(value)
                    )
                else:
                    if outcome_count is None:
                        raise ModelFormatError(
                            "'outcomes K' must precede entries", entry.number, col
                        )
                    if len(parts) != 3:
                        raise ModelFormatError(
                            "expected 'OUTCOME POINT VALUE'", entry.number, col
                        )
                    if not _parent_is_count(parts[0]):
                        raise ModelFormatError(
                            f"expected an outcome number, got {parts[0]!r}", entry.number, col
                        )
                    outcome = int(parts[0])
                    if not 1 <= outcome <= outcome_count:
                        raise ModelFormatError(
                            f"outcome {outcome} out of range 1..{outcome_count}",
                            entry.number,
                            col,
                        )
                    point_col = col + stripped.index(parts[1], len(parts[0]))
                    point = _parent_parse_point(parts[1], space, entry.number, point_col)
                    if (outcome, point) in entries:
                        raise ModelFormatError(
                            f"duplicate entry for outcome {outcome} at {format_point(point)}",
                            entry.number,
                            col,
                        )
                    value_col = col + len(stripped) - len(parts[2])
                    entries[(outcome, point)] = _parent_parse_value(
                        parts[2], entry.number, value_col
                    )
                i += 1
            if i >= len(lines):
                raise ModelFormatError("unterminated measurement section", line.number)
            if outcome_count is None:
                raise ModelFormatError(
                    f"measurement {label!r} declares no outcome count", line.number
                )
            measurements[label] = _parent_from_entries(
                space, outcome_count, entries, filler
            )
            i += 1
        else:
            raise ModelFormatError(
                f"expected 'space', 'preparation', or 'measurement', got {keyword!r}",
                line.number,
            )

    if space is None:
        raise ModelFormatError("model file has no space section", lines[-1].number)
    try:
        return OntologicalModel(space, preparations, measurements)
    except ValueError as exc:
        raise ModelFormatError(str(exc), lines[-1].number) from None


def _parent_from_entries(space, outcome_count, entries, filler=ZERO):
    filler = as_qsqrt2(filler)
    grid: Dict[Point, List[QSqrt2]] = {
        p: [filler] * outcome_count for p in space.points
    }
    for (k, point), value in entries.items():
        point = space.check_point(point)
        if not 1 <= k <= outcome_count:
            raise ValueError(f"outcome {k} out of range 1..{outcome_count}")
        grid[point][k - 1] = as_qsqrt2(value)
    rows = {p: tuple(vals) for p, vals in grid.items()}
    return ResponseFunctions(space, outcome_count, rows, filler)


SECTION_LINES = (
    "space", "end", "space x", "preparation p", "preparation nu00", "preparation",
    "measurement M", "measurement M N", "outcomes 1", "outcomes 2", "outcomes 9",
    "filler 1/2", "filler", "factor x a b", "factor y c", "(a) 1", "1 (a) 1",
    "2 (TH,TH,1) 1/2", "onticbench-model 1", "# comment",
    "measurement N\nend", "measurement M\n  outcomes 1\nend", "preparation nu00\nend",
    "preparation p\nend", "preparation q\n  (a) 1",
)
CHARS = " \t\x0c\u00a0\u2028()#,/-+0123456789abxyHT_sqrt\u00b2\u00e9"


@st.composite
def mutated_model_text(draw):
    """The golden file or SMALL with a few lines after the header deleted,
    duplicated, inserted as section keywords, or with a character changed."""
    header, *lines = draw(st.sampled_from([GOLDEN.read_text(encoding="utf-8"), SMALL])).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["delete", "duplicate", "insert", "change"]))
        if kind == "insert" or not lines:
            indent = draw(st.sampled_from(["", "  "]))
            lines.insert(draw(st.integers(0, len(lines))), indent + draw(st.sampled_from(SECTION_LINES)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i] = lines[i][:j] + draw(st.sampled_from(CHARS)) + lines[i][j + 1:]
    return "\n".join([header, *lines]) + "\n"


def load_outcome(load, text):
    try:
        model = load(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return dumps(model), model


class TestSameAsPreviousLoader:
    @settings(max_examples=600, deadline=None)
    @given(text=mutated_model_text())
    def test_same_model_or_same_error(self, text):
        assert load_outcome(loads, text) == load_outcome(_parent_loads, text)

    def test_oracle_reads_the_golden_file(self):
        text = GOLDEN.read_text(encoding="utf-8")
        assert _parent_loads(text) == loads(text) == build_toy_nlhv_model()
