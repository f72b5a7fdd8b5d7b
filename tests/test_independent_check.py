"""A second check of synthesize and nogo answers that shares no code with the LP builder.

solve_feasibility and verify_certificate both read the LPProblem that
build_synthesis_lp made, so a fault in the builder would pass them both.
The checker here reads a command's ``--format json`` answer, the model and
the Born table, and rebuilds each row of the real system in Q(sqrt2) from
the model's weights, pairing the answer's ``preps`` with the Born rows in
order:

    norm@P       sum_k x(k, P) = 1                          for each point P
    born@L#kK    sum_p mu_L(p) * x(K, p) = target(L, K)     for each L in preps

with x >= 0.  Variable x(k, p) is entry (k - 1) * |points| + (index of p)
of a witness: the k-major order that synthesis._synthesis_variables
documents.  A certificate y is accepted when sum_i y_i * A_i <= 0 in every
variable and y . b > 0, which no x >= 0 can meet; a witness when it is
nonnegative and meets every row.  Any other row id, such as a ``:irr`` row
of a Born row split into its rational and sqrt2 parts, is refused by name.
This module imports nothing from onticbench.synthesis.
"""

import ast
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from onticbench.cli import run
from onticbench.modelfile import dumps, read_model
from onticbench.numerics import ONE, ZERO, QSqrt2
from onticbench.ontology import EpistemicState, OntologicalModel
from onticbench.scenarios import (
    build_pbr_lhv_model,
    build_pbr_quantum_scenario,
    build_toy_nlhv_model,
)

GOLDEN = Path(__file__).parent / "data" / "toy-nlhv.model"
BUILTINS = {"toy-nlhv": build_toy_nlhv_model, "pbr-lhv": build_pbr_lhv_model}
BORN = build_pbr_quantum_scenario().born_table


class Refused(Exception):
    """The answer is not a witness or a certificate of the real system."""


def _name(point) -> str:
    return "(" + ",".join(point) + ")"


def real_rows(model: OntologicalModel, labels, born_table) -> dict:
    """row id -> ({variable index: coefficient}, right-hand side)."""
    points = model.space.points
    size = len(points)
    position = {point: i for i, point in enumerate(points)}
    outcomes = len(born_table[0])
    if len(labels) != len(born_table):
        raise Refused(f"{len(labels)} preparations for {len(born_table)} Born rows")
    rows = {
        "norm@" + _name(point): ({k * size + i: ONE for k in range(outcomes)}, ONE)
        for i, point in enumerate(points)
    }
    for label, targets in zip(labels, born_table):
        weights = model.preparations[label].weights
        for k, target in enumerate(targets):
            coefficients = {k * size + position[p]: w for p, w in weights.items()}
            rows[f"born@{label}#k{k + 1}"] = (coefficients, target)
    return rows


def check_answer(answer: dict, model: OntologicalModel, born_table) -> None:
    """Return if the answer is a witness or a certificate of the real system; else raise Refused."""
    rows = real_rows(model, answer["preps"], born_table)
    variables = [
        f"x{k}@{_name(p)}" for k in range(1, len(born_table[0]) + 1) for p in model.space.points
    ]
    if answer["feasible"]:
        x = [QSqrt2.parse(text) for text in answer["witness"]]
        if len(x) != len(variables):
            raise Refused(f"a witness of {len(x)} values for {len(variables)} variables")
        for name, value in zip(variables, x):
            if value < ZERO:
                raise Refused(f"{name} = {value} is negative")
        for row, (coefficients, rhs) in rows.items():
            total = ZERO
            for i, c in coefficients.items():
                total = total + c * x[i]
            if total != rhs:
                raise Refused(f"{row} sums to {total}, not {rhs}")
        return
    combination = [ZERO] * len(variables)
    bound = ZERO
    for row, text in answer["certificate"].items():
        if row not in rows:
            raise Refused(f"{row!r} is not a row of the real system")
        y = QSqrt2.parse(text)
        coefficients, rhs = rows[row]
        for i, c in coefficients.items():
            combination[i] = combination[i] + y * c
        bound = bound + y * rhs
    for name, value in zip(variables, combination):
        if value > ZERO:
            raise Refused(f"the combination of rows is {value} > 0 at {name}")
    if not bound > ZERO:
        raise Refused(f"y . b = {bound} is not positive")


def answer_of(capsys, command, source):
    """(exit code, JSON answer) of ``command`` on a builtin name or a model path."""
    where = ["--builtin", source] if source in BUILTINS else [str(source)]
    code = run([command, *where, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def model_of(source) -> OntologicalModel:
    return BUILTINS[source]() if source in BUILTINS else read_model(source)


def test_imports_nothing_from_synthesis():
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    assert not [name for name in imported if name.startswith("onticbench.synthesis")]


@pytest.mark.parametrize(
    "command, source, code, kind, size",
    [
        ("synthesize", "toy-nlhv", 0, "witness", 128),
        ("synthesize", "pbr-lhv", 1, "certificate", 25),
        ("nogo", "toy-nlhv", 1, "witness", 128),
        ("nogo", "pbr-lhv", 0, "certificate", 25),
        ("synthesize", GOLDEN, 0, "witness", 128),
        ("nogo", GOLDEN, 1, "witness", 128),
    ],
    ids=lambda v: v.name if isinstance(v, Path) else str(v),
)
def test_accepts_every_printed_answer(capsys, command, source, code, kind, size):
    exit_code, answer = answer_of(capsys, command, source)
    assert (exit_code, len(answer[kind])) == (code, size)
    check_answer(answer, model_of(source), BORN)


def split_lhv_model() -> OntologicalModel:
    """pbr-lhv with sqrt2/16 of mu00's weight moved from its first support point to its second."""
    lhv = build_pbr_lhv_model()
    state = lhv.preparations["mu00"]
    weights = dict(state.weights)
    source, sink = state.support()[:2]
    moved = QSqrt2(0, Fraction(1, 16))
    weights[source] = weights[source] - moved
    weights[sink] = weights[sink] + moved
    preparations = {**lhv.preparations, "mu00": EpistemicState(lhv.space, weights)}
    return OntologicalModel(lhv.space, preparations, {})


def test_split_row_certificate_is_refused(capsys, tmp_path):
    path = tmp_path / "pbr-lhv-sqrt2.model"
    path.write_text(dumps(split_lhv_model()), encoding="utf-8")
    code, answer = answer_of(capsys, "synthesize", path)
    assert (code, answer["rational_only"], len(answer["certificate"])) == (1, True, 29)
    with pytest.raises(Refused, match=r"^'born@mu00#k\d:irr' is not a row of the real system$"):
        check_answer(answer, read_model(path), BORN)


@pytest.mark.parametrize(
    "row", ["born@mu00#k1:irr", "born@mu00#k5", "born@nu00#k1", "norm@(HH,XX)", "cap@mu00#k1"]
)
def test_unknown_row_is_refused_by_name(capsys, row):
    _, answer = answer_of(capsys, "nogo", "pbr-lhv")
    answer["certificate"][row] = "0"
    with pytest.raises(Refused, match=f"^{re.escape(repr(row))} is not a row"):
        check_answer(answer, build_pbr_lhv_model(), BORN)


def test_altered_multiplier_is_refused(capsys):
    _, answer = answer_of(capsys, "nogo", "pbr-lhv")
    assert answer["certificate"]["born@mu00#k1"] == "-7"
    answer["certificate"]["born@mu00#k1"] = "-6"
    with pytest.raises(Refused, match=r"> 0 at x1@"):
        check_answer(answer, build_pbr_lhv_model(), BORN)


def test_altered_witness_value_is_refused(capsys):
    _, answer = answer_of(capsys, "synthesize", "toy-nlhv")
    answer["witness"][0] = str(QSqrt2.parse(answer["witness"][0]) + QSqrt2(Fraction(1, 4)))
    with pytest.raises(Refused, match=r"^norm@\(HH,HH,1\) sums to"):
        check_answer(answer, build_toy_nlhv_model(), BORN)
