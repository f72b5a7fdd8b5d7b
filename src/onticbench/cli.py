"""Command-line front end.

Every command maps onto one library pipeline and follows one exit-code
convention: 0 means success or verdict-true, 1 means verdict-false (an
invalid model, a Born mismatch, an infeasible synthesis, a zero overlap),
and 2 means the invocation or its input could not be used at all, or an
internal check failed.  Reports print exact values with a float
approximation in parentheses; ``--format json`` emits a schema-versioned
document instead.

``run`` can be called repeatedly in one process; it builds its argument
parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Sequence

from .independence import analyze_independence, classical_overlap
from .modelfile import load_model, read_model, validate_model
from .numerics import QSqrt2, ZERO
from .ontology import (
    OntologicalModel,
    check_born_agreement,
    format_point,
    predicted_statistics,
    simulate,
)
from .scenarios import (
    MEASUREMENT_LABEL,
    SHARED_FACTOR,
    STATE_ORDER,
    build_pbr_lhv_model,
    build_pbr_quantum_scenario,
    build_toy_nlhv_model,
    forbidden_cells,
    pbr_prep_order,
    pbr_synthesis_spec,
    subsystem_states,
)
from .synthesis import (
    build_synthesis_lp,
    extract_responses,
    responses_to_witness,
    solve_feasibility,
    solve_min_violation,
    verify_certificate,
    FeasibilityResult,
)

SCHEMA_VERSION = 1

_BUILTINS: dict[str, Callable[[], OntologicalModel]] = {
    "toy-nlhv": build_toy_nlhv_model,
    "pbr-lhv": build_pbr_lhv_model,
}


def fmt(value: QSqrt2) -> str:
    """Exact value with a float approximation for human eyes."""
    approx = value.to_float()
    return f"{value} (~{approx:.6g})"


def _load_any(args, lenient: bool = False) -> tuple[OntologicalModel, str]:
    """Resolve --builtin NAME or a model file path; files are validated unless lenient."""
    if args.builtin:
        return _BUILTINS[args.builtin](), args.builtin
    return (read_model if lenient else load_model)(args.model), args.model


# ---- command handlers --------------------------------------------------------
# Each returns (exit_code, json_payload, text_lines).


def _cmd_validate(args):
    model, source = _load_any(args, lenient=True)
    verdicts = validate_model(model)
    ok = all(verdict.ok for verdict in verdicts.values())
    lines = [f"model: {source}"]
    for name, verdict in verdicts.items():
        status = "valid" if verdict.ok else "INVALID"
        lines.append(f"  {name}: {status}")
        for failure in verdict.failures:
            lines.append(f"    {failure}")
    lines.append("verdict: " + ("all components valid" if ok else "model is invalid"))
    payload = {
        "model": source,
        "ok": ok,
        "components": {name: v.to_dict() for name, v in verdicts.items()},
    }
    return (0 if ok else 1), payload, lines


def _cmd_predict(args):
    model, source = _load_any(args)
    stats = predicted_statistics(model, args.prep, args.meas)
    lines = [f"model: {source}", f"preparation {args.prep}, measurement {args.meas}:"]
    for k, value in enumerate(stats, start=1):
        lines.append(f"  outcome {k}: {fmt(value)}")
    payload = {
        "model": source,
        "prep": args.prep,
        "meas": args.meas,
        "probabilities": [str(v) for v in stats],
    }
    return 0, payload, lines


def _born_report(model: OntologicalModel, born_table: Sequence[Sequence[QSqrt2]]):
    """Measurement M against the Born row of each preparation, in pbr_prep_order."""
    return check_born_agreement(
        model, MEASUREMENT_LABEL, dict(zip(pbr_prep_order(model), born_table))
    )


def _cmd_born_check(args):
    model, source = _load_any(args)
    report = _born_report(model, build_pbr_quantum_scenario().born_table)
    lines = [f"model: {source}"]
    for cell in report.cells:
        mark = "ok" if cell.match else "MISMATCH"
        lines.append(
            f"  {cell.prep_label} / outcome {cell.outcome}: model {fmt(cell.predicted)}, "
            f"target {fmt(cell.target)} [{mark}]"
        )
    matched = sum(1 for c in report.cells if c.match)
    lines.append(f"agreement: {matched}/{len(report.cells)} cells")
    payload = {"model": source, **report.to_dict()}
    return (0 if report.all_match else 1), payload, lines


def _cmd_independence(args):
    model, source = _load_any(args)
    inaccessible: tuple[str, ...] = ()
    if args.inaccessible is not None:
        # An empty value names no factor; an empty name in a list is an error.
        inaccessible = tuple(args.inaccessible.split(",")) if args.inaccessible else ()
    elif SHARED_FACTOR in model.space.factor_names:
        inaccessible = (SHARED_FACTOR,)
    report = analyze_independence(model, inaccessible)
    all_local = all(state.locally_independent.ok for state in report.states.values())
    lines = [f"model: {source}", f"inaccessible factors: {list(inaccessible) or 'none'}"]
    for label, state in report.states.items():
        lines.append(f"  preparation {label}:")
        lines.append(f"    preparation independence (accessible marginal): {_yn(state.prep_independent.ok)}")
        lines.append(f"    local independence: {_yn(state.locally_independent.ok)}")
        lines.append(f"    full factor independence: {_yn(state.fully_independent.ok)}")
        for verdict in (state.locally_independent, state.fully_independent):
            for failure in verdict.failures:
                lines.append(f"      {failure}")
    lines.append("  pairwise overlaps:")
    for (a, b), value in report.overlaps.items():
        lines.append(f"    {a} vs {b}: {fmt(value)}")
    lines.append(
        "verdict: " + ("all preparations locally independent" if all_local else "local independence fails")
    )
    payload = {"model": source, "inaccessible": list(inaccessible), **report.to_dict(), "ok": all_local}
    return (0 if all_local else 1), payload, lines


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_overlap(args):
    model, source = _load_any(args)
    labels = args.preps.split(",")
    if len(labels) != 2:
        raise ValueError("--preps takes exactly two comma-separated labels")
    # A label the model defines wins over the subsystem states nu0 and nu+.
    states = {**subsystem_states(), **model.preparations}
    unknown = [label for label in labels if label not in states]
    if unknown:
        raise ValueError(f"unknown preparation {unknown[0]!r}; have {sorted(states)}")
    first, second = (states[label] for label in labels)
    value = classical_overlap(first, second)
    lines = [f"classical overlap of {labels[0]} and {labels[1]}: {fmt(value)}"]
    payload = {
        "model": source,
        "preps": labels,
        "overlap": str(value),
        "overlap_float": value.to_float(),
    }
    return (0 if value.sign() > 0 else 1), payload, lines


def _certify(
    model: OntologicalModel, labels: Sequence[str], born_table: Sequence[Sequence[QSqrt2]]
):
    """Spec, LP and solver result for labels in Born-row order against ``born_table``.

    solve_feasibility passes its witness or certificate through
    verify_certificate before it returns, so every result here is verified.
    """
    spec = pbr_synthesis_spec(model, labels, born_table)
    lp = build_synthesis_lp(spec)
    return spec, lp, solve_feasibility(lp)


def _synthesis(args):
    """load -> spec -> LP -> solve (verified inside), shared by synthesize and nogo."""
    model, source = _load_any(args)
    labels = args.preps.split(",") if args.preps is not None else pbr_prep_order(model)
    born = build_pbr_quantum_scenario().born_table
    return (source, labels) + _certify(model, labels, born)


def _feasibility_lines(result: FeasibilityResult, spec) -> list[str]:
    lines = []
    if result.feasible:
        lines.append("feasible: response functions exist")
        # A verified witness meets every norm@ row, so no row is all zero.
        rows = extract_responses(spec, result.witness).rows
        points = spec.space.points
        for point in points[:8]:
            lines.append("  " + format_point(point) + ": " + ", ".join(str(v) for v in rows[point]))
        if len(points) > 8:
            lines.append("  ... (full witness in --format json)")
    else:
        kind = "response functions" if spec.rational else "rational response functions"
        lines.append(f"infeasible: no {kind} exist")
        lines.append("Farkas certificate (constraint: multiplier):")
        for cid, mult in result.certificate.items():
            lines.append(f"  {cid}: {mult}")
    return lines


def _cmd_synthesize(args):
    source, labels, spec, lp, result = _synthesis(args)
    lines = [
        f"model: {source}",
        f"LP: {len(lp.variables)} variables, {len(lp.constraints)} constraints",
    ]
    lines += _feasibility_lines(result, spec)
    lines.append("verification: passed")
    payload = {
        "model": source,
        "preps": labels,
        "variables": len(lp.variables),
        "constraints": len(lp.constraints),
        "verified": True,
        **result.to_dict(),
    }
    if not (result.feasible or spec.rational):
        payload["rational_only"] = True
    return (0 if result.feasible else 1), payload, lines


def _cmd_nogo(args):
    source, labels, spec, lp, result = _synthesis(args)
    lines = [
        f"model: {source}",
        "question: can response functions on this space reproduce the Born table?",
        f"LP: {len(lp.variables)} variables, {len(lp.constraints)} constraints",
    ]
    payload = {
        "model": source,
        "preps": labels,
        "verified": True,
        **result.to_dict(),
    }
    if result.feasible:
        lines.append("answer: yes, a witness exists; no obstruction on this space")
        lines += _feasibility_lines(result, spec)
        lines.append("verification: passed")
        return 1, payload, lines
    lines.append("answer: no; infeasibility certified")
    lines += _feasibility_lines(result, spec)
    lines.append("certificate verification: passed")
    floor = solve_min_violation(spec, forbidden_cells(tuple(labels)))
    lines.append(
        "smallest achievable probability cap on the antidistinguished cells: "
        + fmt(floor.value)
    )
    payload["min_violation"] = str(floor.value)
    return 0, payload, lines


def _cmd_simulate(args):
    model, source = _load_any(args)
    counts = simulate(model, args.prep, args.meas, args.samples, args.seed, args.jobs)
    predicted = predicted_statistics(model, args.prep, args.meas)
    total = sum(counts) or 1
    lines = [
        f"model: {source}",
        f"{args.samples} samples of ({args.prep}, {args.meas}), seed {args.seed}, jobs {args.jobs}:",
    ]
    for k, (count, target) in enumerate(zip(counts, predicted), start=1):
        lines.append(
            f"  outcome {k}: {count:>8} ({count / total:.5f} observed, {fmt(target)} predicted)"
        )
    payload = {
        "model": source,
        "prep": args.prep,
        "meas": args.meas,
        "samples": args.samples,
        "seed": args.seed,
        "jobs": args.jobs,
        "counts": counts,
        "predicted": [str(v) for v in predicted],
    }
    return 0, payload, lines


def _cmd_demo(args):
    born = build_pbr_quantum_scenario().born_table
    diag_zero = all(born[i][i] == ZERO for i in range(4))
    model = build_toy_nlhv_model()
    report = _born_report(model, born)
    agreement = f"{sum(1 for c in report.cells if c.match)}/{len(report.cells)}"
    ind = analyze_independence(model, (SHARED_FACTOR,))
    all_local = all(s.locally_independent.ok for s in ind.states.values())
    subs = subsystem_states()
    base_overlap = classical_overlap(subs["nu0"], subs["nu+"])
    lhv = build_pbr_lhv_model()
    lhv_labels = pbr_prep_order(lhv)
    lhv_spec, _, lhv_result = _certify(lhv, lhv_labels, born)
    floor = solve_min_violation(lhv_spec, forbidden_cells(lhv_labels))
    toy_spec, toy_lp, toy_result = _certify(model, pbr_prep_order(model), born)
    tables_witness = responses_to_witness(toy_spec, model.measurements[MEASUREMENT_LABEL])
    tables_check = verify_certificate(
        toy_lp, FeasibilityResult(True, witness=tables_witness)
    )
    ok = (diag_zero and report.all_match and all_local and not lhv_result.feasible
          and toy_result.feasible and tables_check.ok)

    lines = [
        "Born probabilities of the antidistinguishing measurement",
        "  (rows: preparations 00, 0+, +0, ++; columns: outcomes 1..4)",
    ]
    for name, row in zip(STATE_ORDER, born):
        lines.append(f"    {name}:  " + "  ".join(f"{str(v):>4}" for v in row))
    lines += [
        f"  diagonal exactly zero: {_yn(diag_zero)}",
        "",
        "Relational coin model vs quantum predictions",
        f"  exact agreement: {agreement} cells",
        "",
        "Independence structure (shared factor inaccessible)",
    ]
    for label, state in ind.states.items():
        lines.append(
            f"  {label}: local {_yn(state.locally_independent.ok)}, "
            f"full {_yn(state.fully_independent.ok)}"
        )
    lines += ["", "Epistemic overlaps", f"  nu0 vs nu+: {fmt(base_overlap)}"]
    for (a, b), value in ind.overlaps.items():
        lines.append(f"  {a} vs {b}: {fmt(value)}")
    lines += [
        "",
        "Local-variable obstruction (16-point product space)",
        f"  synthesis feasible: {_yn(lhv_result.feasible)}",
        "  Farkas certificate verified: yes",
        f"  smallest achievable cap on forbidden cells: {fmt(floor.value)}",
        "",
        "Relational circumvention (32-point space with shared factor)",
        f"  synthesis feasible: {_yn(toy_result.feasible)}",
        f"  built-in response tables verified as a witness: {_yn(tables_check.ok)}",
        "",
        "overall: " + ("all checks passed" if ok else "CHECKS FAILED"),
    ]

    independence = ind.to_dict()
    payload = {
        "born_table": [[str(v) for v in row] for row in born],
        "agreement_cells": agreement,
        "independence": independence,
        "overlap_nu0_nu+": str(base_overlap),
        "overlaps": independence["overlaps"],
        "lhv": {
            "feasible": lhv_result.feasible,
            "certificate_verified": True,
            "certificate": lhv_result.to_dict().get("certificate", {}),
            "min_violation": str(floor.value),
        },
        "relational": {
            "feasible": toy_result.feasible,
            "tables_are_witness": tables_check.ok,
        },
        "ok": ok,
    }
    return (0 if ok else 1), payload, lines


# ---- parser -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``run`` call and reused.

    An argument that several commands take is declared once, in a parent
    parser: ``--format`` (all nine), ``MODEL | --builtin`` (all but
    demo-pbr), ``--prep``/``--meas`` (predict, simulate) and the Born-row
    ``--preps`` (synthesize, nogo).  The parser holds only constants: the
    sorted builtin names, the ``_cmd_*`` handlers, ``_seed`` and
    ``_samples``.  argparse looks up ``sys.stdout`` and ``sys.stderr`` when
    it prints, so redirected streams still work.
    """
    parser = argparse.ArgumentParser(
        prog="onticbench",
        description="Exact-arithmetic workbench for finite ontological models.",
    )
    sub = parser.add_subparsers(dest="command")

    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--format", choices=("text", "json"), default="text")

    model_parent = argparse.ArgumentParser(add_help=False)
    source = model_parent.add_mutually_exclusive_group(required=True)
    source.add_argument("model", nargs="?", help="path to a model file")
    source.add_argument(
        "--builtin", choices=sorted(_BUILTINS), help="use a built-in model instead of a file"
    )

    pair_parent = argparse.ArgumentParser(add_help=False)
    pair_parent.add_argument("--prep", required=True)
    pair_parent.add_argument("--meas", required=True)

    born_rows_parent = argparse.ArgumentParser(add_help=False)
    born_rows_parent.add_argument(
        "--preps", help="comma-separated preparation labels, in Born-row order"
    )

    def command(name, handler, help, *parents):
        p = sub.add_parser(name, parents=[fmt_parent, *parents], help=help)
        p.set_defaults(handler=handler)
        return p

    command("validate", _cmd_validate, "check normalization and bounds of every component",
            model_parent)
    command("predict", _cmd_predict,
            "exact outcome distribution of one (preparation, measurement) pair",
            model_parent, pair_parent)
    command("born-check", _cmd_born_check,
            "compare model predictions with the built-in quantum scenario", model_parent)
    p = command("independence", _cmd_independence,
                "preparation/local/full independence and pairwise overlaps", model_parent)
    p.add_argument("--inaccessible", help="comma-separated factor names to marginalize out")
    p = command("overlap", _cmd_overlap, "classical overlap of two preparations", model_parent)
    p.add_argument("--preps", required=True, help="two comma-separated preparation labels")
    command("synthesize", _cmd_synthesize,
            "solve for response functions reproducing the Born table",
            model_parent, born_rows_parent)
    command("nogo", _cmd_nogo,
            "certify whether Born-reproducing response functions are impossible",
            model_parent, born_rows_parent)
    p = command("simulate", _cmd_simulate, "draw exact seeded samples and compare frequencies",
                model_parent, pair_parent)
    p.add_argument("--samples", type=_samples, default=100000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="split the draws into JOBS seeded sub-streams 'SEED:w' (w = 0..JOBS-1); "
        "they run one after another in this process, not as parallel workers",
    )
    command("demo-pbr", _cmd_demo, "full walkthrough: Born table, agreement, independence, no-go")

    return parser


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


# At about 120 ns per draw, the largest count runs for about two minutes.
MAX_SAMPLES = 10**9


def _samples(text: str) -> int:
    value = int(text)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"sample count must be at most {MAX_SAMPLES}")
    return value


def run(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except OSError:
        # A write to stdout failed, say because the reader closed it early
        # (``| head -1``): exit 2 like any OSError, not 1.  Pointing fd 1 at
        # devnull keeps the interpreter's own flush at exit from reporting
        # the error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    # Sums of loadable numerals can print with more digits than Python's
    # int-to-str limit, so lift it for the handler and the print; argv is
    # parsed by now, and the loader bounds every numeral it reads.  Python
    # 3.10.0-3.10.6 has neither the limit nor the function.
    previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _report(args)
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def _report(args: argparse.Namespace) -> int:
    """Run the command's handler and print its report; the exit code."""
    try:
        code, payload, lines = args.handler(args)
    except (ValueError, OSError) as exc:
        # Unusable input (an unreadable or malformed file, an invalid model, an
        # unknown label): the library raises ValueError or OSError for each, so
        # none exits 1, which is reserved for a scientific "no".
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A failed internal check is a bug, not a scientific "no".
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        document = {"schema_version": SCHEMA_VERSION, "command": args.command}
        document.update(payload)
        report = json.dumps(document, indent=2, sort_keys=False)
    else:
        report = "\n".join(lines)
    try:
        # Printed whole: the text layer encodes all of the report before it
        # writes any of it, so a report stdout cannot encode leaves stdout
        # empty.
        print(report)
    except UnicodeEncodeError as exc:
        print(f"error: stdout cannot encode the report: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
