"""Tests for the command-line interface: verdict exit codes and report shapes."""

import argparse
import hashlib
import io
import json
import os
import re
import socket
import subprocess
import sys
import textwrap
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticbench import cli, hilbert, scenarios, synthesis
from onticbench.cli import run
from onticbench.modelfile import dumps
from onticbench.numerics import QSqrt2
from onticbench.ontology import EpistemicState, OntologicalModel, ResponseFunctions

GOLDEN = Path(__file__).parent / "data" / "toy-nlhv.model"
BENCH_GOLDEN = Path(__file__).parents[1] / "bench" / "golden.json"

DISJOINT = """\
onticbench-model 1

space
  factor x a b
end

preparation left
  (a) 1
end

preparation right
  (b) 1
end
"""

# Correlated on the accessible pair (a, b), so the local and the full
# independence check both fail, at different points.
CORRELATED = """\
onticbench-model 1

space
  factor a a1 a2
  factor b b1 b2
  factor s s1 s2
end

preparation p
  (a1,b1,s1) 1/2
  (a2,b2,s2) 1/2
end
"""

# Four point masses on a 2 x 2 x |c| space; the points with a = 1 are free.
SMALL_SPACE = """\
onticbench-model 1

space
  factor a 0 1
  factor b 0 1
  factor c {c_labels}
end

preparation nu00
  (0,0,0) 1
end

preparation nu0+
  (0,0,1) 1
end

preparation nu+0
  (0,1,0) 1
end

preparation nu++
  (0,1,1) 1
end
"""


def space_only_and_point_mass(names):
    """Model texts on the factors ``names``, each valued 0 or 1: one with no
    preparation, and one with a point mass on the all-zero point."""
    space = "onticbench-model 1\n\nspace\n" + "".join(f"  factor {n} 0 1\n" for n in names) + "end\n"
    point = ",".join("0" for _ in names)
    return space, f"{space}\npreparation p\n  ({point}) 1\nend\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, original):
    """Count calls of ``original`` through every onticbench module that holds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "onticbench":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestValidate:
    def test_builtin_valid(self, capsys):
        code, out, _ = invoke(capsys, "validate", "--builtin", "toy-nlhv")
        assert code == 0
        assert "all components valid" in out

    def test_golden_file_valid(self, capsys):
        code, out, _ = invoke(capsys, "validate", str(GOLDEN))
        assert code == 0

    def test_invalid_model_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text(
            GOLDEN.read_text(encoding="utf-8").replace("1/4", "1/5", 1),
            encoding="utf-8",
        )
        code, out, _ = invoke(capsys, "validate", str(bad))
        assert code == 1
        assert "deficit" in out

    def test_unparsable_model_exits_two(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.model"
        garbage.write_text("not a model\n", encoding="utf-8")
        code, _, err = invoke(capsys, "validate", str(garbage))
        assert code == 2
        assert "header" in err

    def test_empty_model_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.model"
        empty.write_text("", encoding="utf-8")
        code, _, err = invoke(capsys, "validate", str(empty))
        assert code == 2
        assert "empty" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = invoke(capsys, "validate", "/does/not/exist.model")
        assert code == 2

    def test_file_and_builtin_conflict(self, capsys):
        code, _, err = invoke(capsys, "validate", str(GOLDEN), "--builtin", "toy-nlhv")
        assert code == 2
        assert "argument --builtin: not allowed with argument model" in err

    def test_neither_file_nor_builtin(self, capsys):
        code, _, err = invoke(capsys, "validate")
        assert code == 2
        assert "one of the arguments model --builtin is required" in err


class TestPredict:
    def test_exact_row(self, capsys):
        code, out, _ = invoke(
            capsys, "predict", "--builtin", "toy-nlhv", "--prep", "nu00", "--meas", "M"
        )
        assert code == 0
        assert "outcome 1: 0 (~0)" in out
        assert "outcome 4: 1/2 (~0.5)" in out

    def test_unknown_label_exits_two(self, capsys):
        code, _, err = invoke(
            capsys, "predict", "--builtin", "toy-nlhv", "--prep", "nope", "--meas", "M"
        )
        assert code == 2


class TestBornCheck:
    def test_full_agreement(self, capsys):
        code, out, _ = invoke(capsys, "born-check", "--builtin", "toy-nlhv")
        assert code == 0
        assert "agreement: 16/16 cells" in out

    def test_json_document(self, capsys):
        code, out, _ = invoke(
            capsys, "born-check", "--builtin", "toy-nlhv", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["command"] == "born-check"
        assert doc["all_match"] is True
        assert len(doc["cells"]) == 16

    def test_golden_file_agrees(self, capsys):
        code, out, _ = invoke(capsys, "born-check", str(GOLDEN))
        assert code == 0

    def test_model_without_required_labels(self, capsys, tmp_path):
        small = tmp_path / "small.model"
        small.write_text(DISJOINT, encoding="utf-8")
        code, _, err = invoke(capsys, "born-check", str(small))
        assert code == 2
        assert err.startswith("error: ") and "neither nu00" in err

    def test_model_without_measurement_m(self, capsys, tmp_path):
        toy = scenarios.build_toy_nlhv_model()
        path = tmp_path / "no-m.model"
        path.write_text(dumps(OntologicalModel(toy.space, toy.preparations, {})), encoding="utf-8")
        code, _, err = invoke(capsys, "born-check", str(path))
        assert code == 2
        assert err.startswith("error: ") and "'M'" in err

    def test_marginal_labels_pair_like_synthesis(self, capsys, tmp_path):
        lhv = scenarios.build_pbr_lhv_model()
        quarter = QSqrt2.parse("1/4")
        uniform = ResponseFunctions(
            lhv.space, 4, {p: (quarter,) * 4 for p in lhv.space.points}, filler=quarter
        )
        path = tmp_path / "lhv-uniform.model"
        path.write_text(
            dumps(OntologicalModel(lhv.space, lhv.preparations, {"M": uniform})),
            encoding="utf-8",
        )
        code, out, _ = invoke(capsys, "born-check", str(path))
        assert code == 1
        assert "  mu00 / outcome 1: model 1/4 (~0.25), target 0 (~0) [MISMATCH]" in out
        assert out.endswith("agreement: 8/16 cells\n")

    def test_measurement_with_other_outcome_count(self, capsys, tmp_path):
        toy = scenarios.build_toy_nlhv_model()
        third = QSqrt2.parse("1/3")
        three = ResponseFunctions(
            toy.space, 3, {p: (third,) * 3 for p in toy.space.points}, filler=third
        )
        model = OntologicalModel(toy.space, toy.preparations, {"M": three})
        path = tmp_path / "three.model"
        path.write_text(dumps(model), encoding="utf-8")
        code, out, err = invoke(capsys, "born-check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "'M'" in err

    def test_born_table_computed_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, hilbert.born_probabilities)
        assert invoke(capsys, "born-check", "--builtin", "toy-nlhv")[0] == 0
        assert len(calls) == 4


class TestIndependence:
    def test_default_inaccessible_factor(self, capsys):
        code, out, _ = invoke(capsys, "independence", "--builtin", "toy-nlhv")
        assert code == 0
        assert "all preparations locally independent" in out

    def test_explicit_flag(self, capsys):
        code, out, _ = invoke(
            capsys,
            "independence", "--builtin", "toy-nlhv", "--inaccessible", "lambda_s",
        )
        assert code == 0
        assert "full factor independence: no" in out

    def test_json_reports_overlaps(self, capsys):
        code, out, _ = invoke(
            capsys, "independence", "--builtin", "toy-nlhv", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["ok"] is True
        assert any(v == "1/4" for v in doc["overlaps"].values())

    def test_empty_value_names_no_factor(self, capsys):
        code, out, _ = invoke(capsys, "independence", "--builtin", "toy-nlhv", "--inaccessible=")
        assert code == 1
        assert "inaccessible factors: none" in out
        code, out, _ = invoke(
            capsys, "independence", "--builtin", "toy-nlhv", "--inaccessible=", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["inaccessible"] == []

    def test_empty_name_in_list_exits_two(self, capsys):
        code, out, err = invoke(
            capsys, "independence", "--builtin", "toy-nlhv", "--inaccessible", "lambda1,"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "['']" in err

    def test_duplicate_name_exits_two(self, capsys):
        code, out, err = invoke(
            capsys, "independence", "--builtin", "toy-nlhv", "--inaccessible", "lambda1,lambda1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "duplicate" in err

    def test_unknown_name_on_a_space_only_model_exits_two(self, capsys, tmp_path):
        # The names are checked against the space, not per preparation.
        model = tmp_path / "space-only.model"
        model.write_text(space_only_and_point_mass(("a", "b"))[0], encoding="utf-8")
        for names, unknown in (("bogus", "['bogus']"), ("lambda1,", "['', 'lambda1']")):
            code, out, err = invoke(capsys, "independence", str(model), "--inaccessible", names)
            assert code == 2
            assert out == ""
            assert err == f"error: inaccessible factors {unknown} are not in the joint space\n"

    @pytest.mark.parametrize("names", ["a", "b,a", "bogus", "a,a"])
    def test_unusable_list_exits_two_with_or_without_preparations(self, capsys, tmp_path, names):
        results = []
        for i, text in enumerate(space_only_and_point_mass(("a", "b"))):
            model = tmp_path / f"{i}.model"
            model.write_text(text, encoding="utf-8")
            results.append(invoke(capsys, "independence", str(model), f"--inaccessible={names}"))
        (code, out, err), other = results
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert other == results[0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_preparations_do_not_change_the_list_check(self, tmp_path_factory, data):
        names = data.draw(st.lists(st.sampled_from(("a", "b", "c")), min_size=2, max_size=3, unique=True))
        hidden = data.draw(st.lists(st.sampled_from([*names, "bogus", ""]), max_size=4))
        value = ",".join(hidden)
        parsed = value.split(",") if value else []
        usable = (len(set(parsed)) == len(parsed) and set(parsed) <= set(names)
                  and len(names) - len(parsed) >= 2)
        base = tmp_path_factory.getbasetemp()
        results = []
        for i, text in enumerate(space_only_and_point_mass(names)):
            model = base / f"list-check-{i}.model"
            model.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(["independence", str(model), f"--inaccessible={value}"])
            results.append((code, err.getvalue().partition("\n")[0]))
        assert results[0] == results[1], value
        # A point mass is a product, so a usable list passes.
        code, first_line = results[0]
        assert code == (0 if usable else 2), value
        assert first_line.startswith("error: ") is not usable, value

    def test_each_failure_listed_once(self, capsys, tmp_path):
        model = tmp_path / "correlated.model"
        model.write_text(CORRELATED, encoding="utf-8")
        code, out, _ = invoke(capsys, "independence", str(model), "--inaccessible", "s")
        assert code == 1
        local = "      at (a1,b1): joint weight 1/2, product weight 1/4"
        full = "      at (a1,b1,s1): joint weight 1/2, marginal product 1/8"
        assert out.splitlines().count(local) == 1
        assert out.splitlines().count(full) == 1
        code, out, _ = invoke(
            capsys, "independence", str(model), "--inaccessible", "s", "--format", "json"
        )
        state = json.loads(out)["states"]["p"]
        assert state["witness_points"] == ["(a1,b1)", "(a1,b1,s1)"]
        assert state["prep_independent"] == state["locally_independent"]

    def test_shared_witness_point_listed_once(self, capsys, tmp_path):
        # With no factor hidden both checks fail first at the same point.
        model = tmp_path / "correlated.model"
        model.write_text(CORRELATED, encoding="utf-8")
        code, out, _ = invoke(
            capsys, "independence", str(model), "--inaccessible=", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["states"]["p"]["witness_points"] == ["(a1,b1,s1)"]


class TestOverlap:
    def test_subsystem_pair(self, capsys):
        code, out, _ = invoke(
            capsys, "overlap", "--builtin", "toy-nlhv", "--preps", "nu0,nu+"
        )
        assert code == 0
        assert "1/2 (~0.5)" in out

    def test_subsystem_pair_on_lhv_builtin(self, capsys):
        code, out, _ = invoke(capsys, "overlap", "--builtin", "pbr-lhv", "--preps", "nu0,nu+")
        assert code == 0
        assert "1/2 (~0.5)" in out

    def test_subsystem_pair_on_dumped_toy_file(self, capsys, tmp_path):
        path = tmp_path / "toy.model"
        path.write_text(dumps(scenarios.build_toy_nlhv_model()), encoding="utf-8")
        code, out, _ = invoke(capsys, "overlap", str(path), "--preps", "nu0,nu+")
        assert code == 0
        assert "1/2 (~0.5)" in out

    def test_model_preparation_wins_over_subsystem_state(self, capsys, tmp_path):
        path = tmp_path / "nu0.model"
        path.write_text(DISJOINT.replace("preparation left", "preparation nu0"), encoding="utf-8")
        code, out, _ = invoke(capsys, "overlap", str(path), "--preps", "nu0,right")
        assert code == 1
        assert "0 (~0)" in out

    def test_composite_pair(self, capsys):
        code, out, _ = invoke(
            capsys, "overlap", "--builtin", "toy-nlhv", "--preps", "nu00,nu++"
        )
        assert code == 0
        assert "1/4" in out

    def test_zero_overlap_exits_one(self, capsys, tmp_path):
        small = tmp_path / "disjoint.model"
        small.write_text(DISJOINT, encoding="utf-8")
        code, out, _ = invoke(capsys, "overlap", str(small), "--preps", "left,right")
        assert code == 1
        assert "0 (~0)" in out

    def test_unknown_prep_exits_two(self, capsys):
        code, _, err = invoke(
            capsys, "overlap", "--builtin", "toy-nlhv", "--preps", "nu0,ghost"
        )
        assert code == 2
        assert "ghost" in err

    def test_needs_exactly_two(self, capsys):
        code, _, _ = invoke(
            capsys, "overlap", "--builtin", "toy-nlhv", "--preps", "nu0,nu+,nu00"
        )
        assert code == 2


class TestSynthesisCommands:
    def test_synthesize_local_exits_one(self, capsys):
        code, out, _ = invoke(capsys, "synthesize", "--builtin", "pbr-lhv")
        assert code == 1
        assert "infeasible" in out
        assert "verification: passed" in out

    def test_synthesize_relational_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "synthesize", "--builtin", "toy-nlhv")
        assert code == 0
        assert "feasible: response functions exist" in out

    def test_nogo_certified(self, capsys):
        code, out, _ = invoke(capsys, "nogo", "--builtin", "pbr-lhv")
        assert code == 0
        assert "infeasibility certified" in out
        assert "1/16" in out

    def test_nogo_json_carries_certificate(self, capsys):
        code, out, _ = invoke(
            capsys, "nogo", "--builtin", "pbr-lhv", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["feasible"] is False
        assert doc["verified"] is True
        assert doc["min_violation"] == "1/16"
        assert doc["certificate"]

    def test_sqrt2_infeasible_says_rational(self, capsys, tmp_path):
        lhv = scenarios.build_pbr_lhv_model()
        shift = QSqrt2.parse("sqrt2/16")
        weights = dict(lhv.preparations["mu00"].weights)
        weights[("HH", "HH")] = weights[("HH", "HH")] + shift
        weights[("HT", "HH")] = weights[("HT", "HH")] - shift
        preps = {**lhv.preparations, "mu00": EpistemicState(lhv.space, weights)}
        path = tmp_path / "lhv-sqrt2.model"
        path.write_text(dumps(OntologicalModel(lhv.space, preps, {})), encoding="utf-8")
        code, out, _ = invoke(capsys, "synthesize", str(path))
        assert code == 1
        assert "infeasible: no rational response functions exist\n" in out
        code, out, _ = invoke(capsys, "synthesize", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out)["rational_only"] is True

    def test_rational_infeasible_has_no_rational_only_key(self, capsys):
        code, out, _ = invoke(capsys, "synthesize", "--builtin", "pbr-lhv", "--format", "json")
        assert code == 1
        assert "rational_only" not in json.loads(out)
        _, out, _ = invoke(capsys, "synthesize", "--builtin", "pbr-lhv")
        assert "infeasible: no response functions exist\n" in out

    @pytest.mark.parametrize(
        "c_labels, last_row, after",
        [
            ("0 1", "(1,1,1)", "verification: passed"),
            ("0 1 2", "(1,0,1)", "  ... (full witness in --format json)"),
        ],
        ids=["eight-points", "twelve-points"],
    )
    def test_witness_rows_of_the_first_eight_points(
        self, capsys, tmp_path, c_labels, last_row, after
    ):
        path = tmp_path / "small.model"
        path.write_text(SMALL_SPACE.format(c_labels=c_labels), encoding="utf-8")
        code, out, _ = invoke(capsys, "synthesize", str(path))
        lines = out.splitlines()
        rows = [i for i, line in enumerate(lines) if line.startswith("  (")]
        assert code == 0
        assert len(rows) == 8
        assert lines[rows[-1]].startswith(f"  {last_row}: ")
        assert lines[rows[-1] + 1] == after

    def test_nogo_not_blocked_exits_one(self, capsys):
        code, out, _ = invoke(capsys, "nogo", "--builtin", "toy-nlhv")
        assert code == 1
        assert "witness exists" in out

    @pytest.mark.parametrize(
        "argv, checks",
        [
            (("synthesize", "--builtin", "toy-nlhv"), 1),
            # the feasibility LP and the min-violation LP
            (("nogo", "--builtin", "pbr-lhv"), 2),
            # both LPs of the local side, the relational LP, the built-in tables
            (("demo-pbr",), 4),
        ],
    )
    def test_each_lp_answer_verified_once(self, capsys, monkeypatch, argv, checks):
        calls = count_calls(monkeypatch, synthesis.verify_certificate)
        invoke(capsys, *argv)
        assert len(calls) == checks


class TestBornRowOrder:
    def test_dumped_toy_file_pairs_like_the_builtin(self, capsys):
        _, from_file, _ = invoke(capsys, "synthesize", str(GOLDEN), "--format", "json")
        _, builtin, _ = invoke(
            capsys, "synthesize", "--builtin", "toy-nlhv", "--format", "json"
        )
        assert json.loads(from_file)["witness"] == json.loads(builtin)["witness"]

    def test_dumped_lhv_file_takes_marginal_order(self, capsys, tmp_path):
        path = tmp_path / "pbr-lhv.model"
        path.write_text(dumps(scenarios.build_pbr_lhv_model()), encoding="utf-8")
        code, out, _ = invoke(capsys, "nogo", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["preps"] == list(scenarios.MARGINAL_PREP_ORDER)

    def test_other_labels_ask_for_preps(self, capsys, tmp_path):
        path = tmp_path / "renamed.model"
        path.write_text(
            GOLDEN.read_text(encoding="utf-8").replace("preparation nu", "preparation p"),
            encoding="utf-8",
        )
        code, _, err = invoke(capsys, "synthesize", str(path))
        assert code == 2
        assert "--preps" in err


@st.composite
def model_bytes(draw):
    """Arbitrary bytes, or the golden file with one slice replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    golden = GOLDEN.read_bytes()
    start = draw(st.integers(0, len(golden)))
    end = draw(st.integers(start, min(len(golden), start + 40)))
    # Two new bytes hold any two-byte UTF-8 character, yet cannot grow a
    # count such as 'outcomes 4' past a few thousand dense table rows.
    return golden[:start] + draw(st.binary(max_size=2)) + golden[end:]


# Every command that reads a model file, with fixed small arguments.
FILE_COMMANDS = (
    ("validate",),
    ("predict", "--prep", "nu00", "--meas", "M"),
    ("born-check",),
    ("independence",),
    ("overlap", "--preps", "nu00,nu0+"),
    ("synthesize",),
    ("nogo",),
    ("simulate", "--prep", "nu00", "--meas", "M", "--samples", "100"),
)


# Each command with arguments that make it run; a drawn argv may start from
# these, so that the drawn entries also reach the handlers, not only argparse.
RUNNABLE = {
    "validate": ("--builtin", "toy-nlhv"),
    "predict": ("--builtin", "toy-nlhv", "--prep", "nu00", "--meas", "M"),
    "born-check": ("--builtin", "toy-nlhv"),
    "independence": ("--builtin", "toy-nlhv"),
    "overlap": ("--builtin", "toy-nlhv", "--preps", "nu00,nu0+"),
    "synthesize": ("--builtin", "toy-nlhv"),
    "nogo": ("--builtin", "toy-nlhv"),
    "simulate": ("--builtin", "toy-nlhv", "--prep", "nu00", "--meas", "M"),
    "demo-pbr": (),
}

# One entry is a bare token or an option with its value, so that no drawn
# value can reach --samples or --jobs: those stay at most 100 and 4, and no
# draw runs long.
ARGV_VOCABULARY = (
    (str(GOLDEN),),
    (str(GOLDEN.with_name("missing.model")),),
    ("-h",),
    ("--builtin", "toy-nlhv"),
    ("--builtin", "pbr-lhv"),
    ("--builtin", "nope"),
    ("--prep", "nu00"),
    ("--prep", "mu++"),
    ("--prep", "ghost"),
    ("--meas", "M"),
    ("--meas", "ghost"),
    ("--preps", "nu00,nu0+"),
    ("--preps", "mu00,mu0+,mu+0,mu++"),
    ("--preps", "nu00,nu0+,nu+0,nu++"),
    ("--preps", "nu00"),
    ("--preps", "nu00,nu00,nu+0,nu++"),
    ("--preps", "nu00,ghost"),
    ("--inaccessible", "lambda_s"),
    ("--inaccessible", "lambda1,lambda2"),
    ("--inaccessible", "lambda1,lambda1"),
    ("--inaccessible", "ghost"),
    ("--format", "json"),
    ("--format", "text"),
    ("--format", "xml"),
    ("--seed", "0"),
    ("--seed", "-3"),
    ("--seed", str(2**64 - 1)),
    ("--seed", str(2**64)),
    ("--samples", "0"),
    ("--samples", "-1"),
    ("--samples", "100"),
    ("--jobs", "0"),
    ("--jobs", "-2"),
    ("--jobs", "4"),
)


@st.composite
def any_argv(draw):
    """One of the nine commands, maybe its runnable arguments, and up to 7
    vocabulary entries; simulate always gets a --samples entry."""
    command = draw(st.sampled_from(sorted(RUNNABLE)))
    entries = draw(st.lists(st.sampled_from(ARGV_VOCABULARY), max_size=7))
    if command == "simulate":
        samples = draw(st.sampled_from(("0", "1", "100")))
        entries.insert(draw(st.integers(0, len(entries))), ("--samples", samples))
    base = RUNNABLE[command] if draw(st.booleans()) else ()
    return [command, *base, *(token for entry in entries for token in entry)]


class TestExitContract:
    """Unusable input exits 2 with an error line, never 1 with a traceback."""

    def test_non_utf8_model_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.model"
        path.write_bytes(GOLDEN.read_bytes().replace(b"lambda1", b"lambda\xb9"))
        code, _, err = invoke(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("error:") and "UTF-8" in err

    @pytest.mark.parametrize("command", ["synthesize", "nogo"])
    def test_duplicate_preps(self, capsys, command):
        code, _, err = invoke(
            capsys, command, "--builtin", "toy-nlhv", "--preps", "nu00,nu00,nu+0,nu++"
        )
        assert code == 2
        assert err.startswith("error:") and "duplicate" in err

    @pytest.mark.parametrize("command, builtin", [("synthesize", "toy-nlhv"), ("nogo", "pbr-lhv")])
    def test_empty_preps(self, capsys, command, builtin):
        # An empty value is one empty label, not the default Born-row order.
        code, out, err = invoke(capsys, command, "--builtin", builtin, "--preps=")
        assert code == 2
        assert out == ""
        assert "needs exactly 4 preparations, got 1" in err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("outcomes 4", "outcomes \u00b2"),
            ("  1 (HH,HH,2) 1/2", "  \u00b9 (HH,HH,2) 1/2"),
            ("(HH,HH,1) 1/4", "(HH,HH,1) \u0661/\u0664"),
        ],
    )
    def test_non_ascii_digit(self, capsys, tmp_path, old, new):
        path = tmp_path / "digits.model"
        path.write_text(GOLDEN.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        code, _, err = invoke(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (("simulate", "--builtin", "toy-nlhv", "--prep", "nu00", "--meas", "M",
              "--jobs", "0"), "jobs must be at least 1"),
            (("independence", "--builtin", "toy-nlhv", "--inaccessible", "lambda1,lambda_s"),
             "fewer than two accessible factors"),
        ],
        ids=["simulate-jobs-0", "independence-one-accessible"],
    )
    def test_rejected_arguments(self, capsys, argv, fragment):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and fragment in err

    @settings(max_examples=200, deadline=None)
    @given(data=model_bytes())
    def test_any_bytes_validate(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "any.model"
        path.write_bytes(data)
        for command, *args in FILE_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run([command, str(path), *args])
            assert code in (0, 1, 2), command
            assert "Traceback" not in err.getvalue(), command
            assert code != 2 or err.getvalue().startswith("error:"), command

    @settings(max_examples=300, deadline=None)
    @given(argv=any_argv())
    def test_any_argv(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        assert "error: internal error" not in err.getvalue(), argv

    @pytest.mark.parametrize(
        "text",
        [
            "onticbench-model 1\n\nspace\n"
            + "".join(f"  factor f{j} a b c d e f g h\n" for j in range(9))
            + "end\n",
            GOLDEN.read_text(encoding="utf-8").replace("outcomes 4", "outcomes 99999"),
            "onticbench-model 1\n\nspace\n"
            + "".join(f"  factor f{j} {' '.join(map(str, range(16)))}\n" for j in range(4))
            + "end\n"
            + "".join(f"\nmeasurement M{i}\n  outcomes 4\n  filler 1/4\nend\n" for i in range(4)),
            GOLDEN.read_text(encoding="utf-8").replace("outcomes 4", "outcomes " + "9" * 5000),
            GOLDEN.read_text(encoding="utf-8").replace(
                "  1 (HH,HH,2) ", "  " + "1" * 5000 + " (HH,HH,2) ", 1
            ),
        ],
        ids=["nine-factor-space", "outcomes-99999", "four-full-tables",
             "outcomes-5000-digits", "outcome-number-5000-digits"],
    )
    def test_oversize_model_file(self, capsys, tmp_path, text):
        path = tmp_path / "oversize.model"
        path.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        code, _, err = invoke(capsys, "validate", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert re.match(r"error: line \d+, column \d+: ", err)

    def test_exit_codes_under_a_low_digit_limit(self, capsys, tmp_path):
        # Each of nu00's two long weights has a 4300-digit denominator, which
        # loads; their sum's has over 8600, past the default print limit.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int-to-str digit limit")
        head, sep, tail = GOLDEN.read_text(encoding="utf-8").partition("preparation nu00\n")
        tail = tail.replace("(HH,HH,1) 1/4", "(HH,HH,1) 1/" + "9" * 4300, 1)
        tail = tail.replace("(HH,HT,1) 1/4", "(HH,HT,1) 1/" + "7" * 4300, 1)
        path = tmp_path / "long-sum.model"
        path.write_text(head + sep + tail, encoding="utf-8")
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            unlimited = invoke(capsys, "validate", str(path))
            sys.set_int_max_str_digits(640)
            limited = invoke(capsys, "validate", str(path))
            code, out, err = invoke(capsys, "predict", str(path), "--prep", "nu00", "--meas", "M")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(previous)
        assert limited == unlimited
        assert limited[0] == 1
        assert (code, out) == (2, "")
        assert err.startswith("error: preparation nu00: ")

    @pytest.mark.parametrize("command", ["synthesize", "nogo"])
    def test_internal_failure_exits_two(self, capsys, monkeypatch, command):
        def failing(*args, **kwargs):
            raise AssertionError("internal verification failed: forced")

        monkeypatch.setattr(synthesis, "verify_certificate", failing)
        code, _, err = invoke(capsys, command, "--builtin", "toy-nlhv")
        assert code == 2
        assert err == "error: internal error: AssertionError: internal verification failed: forced\n"


class TestSimulate:
    def test_counts_and_determinism(self, capsys):
        args = (
            "simulate", "--builtin", "toy-nlhv",
            "--prep", "nu00", "--meas", "M",
            "--samples", "2000", "--seed", "11",
        )
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "outcome 1:        0" in out1

    def test_seed_out_of_range(self, capsys):
        code, _, _ = invoke(
            capsys,
            "simulate", "--builtin", "toy-nlhv",
            "--prep", "nu00", "--meas", "M", "--seed", "-1",
        )
        assert code == 2

    def test_json_counts_sum(self, capsys):
        code, out, _ = invoke(
            capsys,
            "simulate", "--builtin", "toy-nlhv",
            "--prep", "nu++", "--meas", "M",
            "--samples", "500", "--seed", "3", "--jobs", "2",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert sum(doc["counts"]) == 500


@contextmanager
def int_digit_limit(limit):
    """Run the body under the interpreter's int-to-str digit limit ``limit``,
    "default" for Python's default; skip where Python has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits if limit == "default" else limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# Tokens that int() takes, or takes under some digit limit, and that a model
# file refuses as a count.
NOT_COUNTS = {
    "5000-nines": "9" * 5000,
    "letters": "abc",
    "plus-sign": "+5",
    "space": " 7",
    "underscore": "1_000",
    "arabic-indic-digits": "\u0661\u0660",
    "negative": "-1",
}


class TestSamplesBound:
    """--samples, --seed and --jobs each take a count by the model file's rule
    (ASCII digits only) up to its bound; argparse refuses any other token
    before a draw, with a short message, under any digit limit."""

    ARGV = ("simulate", "--builtin", "toy-nlhv", "--prep", "nu00", "--meas", "M", "--samples")
    BOUNDS = {"--samples": cli.MAX_SAMPLES, "--seed": 2**64 - 1, "--jobs": cli.MAX_SAMPLES}

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []

        def recorder(model, *args):
            calls.append(args)
            return [0] * 4

        monkeypatch.setattr(cli, "simulate", recorder)
        return calls

    def test_one_past_the_bound(self, capsys, draws):
        code, out, err = invoke(capsys, *self.ARGV, str(cli.MAX_SAMPLES + 1))
        assert (code, out, draws) == (2, "", [])
        assert f"sample count must be at most {cli.MAX_SAMPLES}" in err

    @pytest.mark.parametrize("limit", ["default", 0])
    def test_count_of_5000_digits(self, capsys, draws, limit):
        with int_digit_limit(limit):
            code, out, err = invoke(capsys, *self.ARGV, "9" * 5000)
        assert (code, out, draws) == (2, "", [])
        assert "argument --samples" in err

    @pytest.mark.parametrize("limit", ["default", 0])
    @pytest.mark.parametrize("token", [*NOT_COUNTS, "bound+1"])
    @pytest.mark.parametrize("option", BOUNDS)
    def test_refused_before_any_draw(self, capsys, draws, option, token, limit):
        value = str(self.BOUNDS[option] + 1) if token == "bound+1" else NOT_COUNTS[token]
        with int_digit_limit(limit):
            code, out, err = invoke(capsys, *self.ARGV, "10", option, value)
        assert (code, out, draws) == (2, "", [])
        last = err.splitlines()[-1]
        assert f"argument {option}: " in last
        assert len(last) < 300
        assert not re.search(r"(?<!\w)_[A-Za-z]", last), last

    @pytest.mark.parametrize("limit", ["default", 0])
    @pytest.mark.parametrize("option", BOUNDS)
    def test_zero_padded_count(self, capsys, draws, option, limit):
        padded = "0" * 5000
        with int_digit_limit(limit):
            code, out, err = invoke(capsys, *self.ARGV, "10", option, padded + "3")
            assert (code, err) == (0, "")
            code, out, err = invoke(
                capsys, *self.ARGV, "10", option, padded + str(self.BOUNDS[option] + 1)
            )
        assert (code, out) == (2, "")
        assert len(err.splitlines()[-1]) < 300
        # (samples, seed, jobs) of the one call: the padded 3 is read as 3.
        expected = {"--samples": (3, 0, 1), "--seed": (10, 3, 1), "--jobs": (10, 0, 3)}
        assert [args[2:] for args in draws] == [expected[option]]

    def test_the_bound_itself_is_accepted(self, capsys, draws):
        for option, bound in self.BOUNDS.items():
            code, _, err = invoke(capsys, *self.ARGV[:-1], option, str(bound))
            assert (code, err) == (0, "")
        # (prep, meas, samples, seed, jobs) of each call
        assert [args[2:] for args in draws] == [
            (cli.MAX_SAMPLES, 0, 1), (100000, 2**64 - 1, 1), (100000, 0, cli.MAX_SAMPLES),
        ]


class TestDemo:
    def test_exit_zero(self, capsys):
        code, out, _ = invoke(capsys, "demo-pbr")
        assert code == 0
        assert "all checks passed" in out
        assert "1/16" in out

    def test_json_mode(self, capsys):
        code, out, _ = invoke(capsys, "demo-pbr", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["ok"] is True
        assert doc["schema_version"] == 1

    def test_builds_the_quantum_scenario_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, scenarios.build_pbr_quantum_scenario)
        assert invoke(capsys, "demo-pbr")[0] == 0
        assert len(calls) == 1

    def test_builds_each_model_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, scenarios.build_toy_nlhv_model)
        assert invoke(capsys, "demo-pbr")[0] == 0
        assert len(calls) == 1
        # pbr-lhv is built from the subsystem states, not from toy-nlhv.
        assert invoke(capsys, "nogo", "--builtin", "pbr-lhv")[0] == 0
        assert len(calls) == 1

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        # With the shared factor accessible, local independence fails for
        # the relational states nu0+ and nu+0.
        original = cli.analyze_independence
        monkeypatch.setattr(
            cli, "analyze_independence", lambda model, inaccessible: original(model, ())
        )
        code, out, _ = invoke(capsys, "demo-pbr")
        assert code == 1
        assert "overall: CHECKS FAILED" in out.splitlines()
        assert "  nu0+: local no, full no" in out.splitlines()
        code, out, _ = invoke(capsys, "demo-pbr", "--format", "json")
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestUsage:
    def test_no_command(self, capsys):
        assert invoke(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    def test_console_script_installed(self):
        result = subprocess.run(
            [sys.executable, "-m", "onticbench.cli", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "onticbench" in result.stdout
        # A first ``run`` in a fresh interpreter, through ``main``, prints the
        # demo's golden bytes.
        golden = json.loads(BENCH_GOLDEN.read_text())["cli"]
        for fmt, extra in (("text", []), ("json", ["--format", "json"])):
            result = subprocess.run(
                [sys.executable, "-m", "onticbench.cli", "demo-pbr", *extra], capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            expected = golden[f"demo-pbr none {fmt}"]["sha256"]
            assert hashlib.sha256(result.stdout).hexdigest() == expected


class TestClosedStdout:
    """A reader that closes stdout early gets exit 2 and no traceback."""

    FORMATS = ([], ["--format", "json"])

    @staticmethod
    def command(argv, stdout, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen(
            [sys.executable, "-m", "onticbench.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, env=env,
        )

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="relies on Linux socket send-buffer accounting")
    @pytest.mark.parametrize("extra", FORMATS)
    def test_reader_closes_after_one_line(self, extra, tmp_path):
        # The report is one write.  A socket with the smallest send buffer
        # (4608 bytes) holds only part of a longer one, so the command is
        # still writing when the reader has taken one line and closes its
        # end.  300 more preparations make the text report about 8 kB; a
        # report that fits the buffer whole would leave nothing to fail.
        path = tmp_path / "many.model"
        extra_preps = "".join(f"\npreparation p{i}\n  (HH,HH,1) 1\nend\n" for i in range(300))
        path.write_text(GOLDEN.read_text(encoding="utf-8") + extra_preps, encoding="utf-8")
        reader, writer = socket.socketpair()
        writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
        with writer:
            proc = self.command(["validate", str(path), *extra], writer.fileno(), unbuffered=True)
        line = b""
        with reader:
            while not line.endswith(b"\n"):
                byte = reader.recv(1)
                assert byte, f"validate closed its stdout after {line!r}"
                line += byte
        _, err = proc.communicate()
        assert line in (f"model: {path}\n".encode(), b"{\n")
        assert proc.returncode == 2, err
        assert err == b""

    @pytest.mark.parametrize("extra", FORMATS)
    def test_stdout_closed_before_any_output(self, extra):
        # Block buffered, the whole output is one write at the last flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.command(["demo-pbr", *extra], write_end, unbuffered=False)
        finally:
            os.close(write_end)
        _, err = proc.communicate()
        assert proc.returncode == 2, err
        assert err == b""


class TestUnencodableStdout:
    """A report stdout cannot encode exits 2 with nothing written, not 1."""

    @pytest.mark.parametrize("extra, code", [([], 2), (["--format", "json"], 0)])
    def test_ascii_stdout(self, tmp_path, extra, code):
        path = tmp_path / "accent.model"
        text = GOLDEN.read_text(encoding="utf-8").replace("preparation nu00", "preparation nu\u00e9")
        path.write_text(text, encoding="utf-8")
        raw = io.BytesIO()
        stdout = io.TextIOWrapper(raw, encoding="ascii")
        err = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(err):
            assert run(["validate", str(path), *extra]) == code
        stdout.flush()
        if code == 2:
            assert raw.getvalue() == b""
            assert err.getvalue().startswith("error: ")
        else:
            # JSON output is ASCII: the label travels as an escape.
            assert json.loads(raw.getvalue())["components"]["preparation nu\u00e9"]["ok"]
            assert err.getvalue() == ""


class TestSharedParser:
    """``run`` reuses one parser, so repeated calls must not leak state."""

    def test_repeated_calls_print_the_same_bytes(self):
        argvs = (["--help"], ["demo-pbr", "extra"], ["validate", "--builtin", "toy-nlhv"])
        rounds = []
        for _ in range(2):
            results = []
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = run(argv)
                results.append((code, out.getvalue(), err.getvalue()))
            rounds.append(results)
        assert rounds[0] == rounds[1]
        (help_code, help_out, _), (usage_code, _, usage_err), (valid_code, _, _) = rounds[0]
        assert (help_code, usage_code, valid_code) == (0, 2, 0)
        assert help_out.startswith("usage: onticbench")
        assert "unrecognized arguments: extra" in usage_err

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        run(["validate", "--builtin", "toy-nlhv"])
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(["validate", "--builtin", "toy-nlhv"]) == 0
        assert run(["demo-pbr", "extra"]) == 2
        capsys.readouterr()
        assert built == []

    def test_import_builds_no_parser(self):
        script = textwrap.dedent("""\
            import argparse
            built = []
            init = argparse.ArgumentParser.__init__
            def counting(self, *args, **kwargs):
                built.append(None)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            from onticbench.cli import run
            at_import = len(built)
            run(["--help"])
            print(at_import, len(built) > 0)
        """)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 True"
