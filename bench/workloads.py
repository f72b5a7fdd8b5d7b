"""The benchmark's workloads: what each operation runs and how it is checked.

Every workload is a closed loop with one client: one process, one thread,
the next operation starting when the last one returns.  A workload is a
fixed list of operations (one pass); the runner repeats passes.  Each
operation has a ``call`` that the runner times and a ``check`` that it runs
outside the timed region and that returns the failures it found.

Golden values in ``golden.json`` are the exit codes and stdout SHA-256 of
the CLI operations whose inputs do not depend on the seed, and the count
digests of the sampling anchors (fixed model, fixed simulate seed).
Operations on seeded inputs are checked against the digest of their first
answer in the run, against exact facts that hold for every seed (a valid
model, Born agreement, a forbidden cell at exactly 0), and by golden exit
code.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from onticbench import cli, ontology, scenarios, synthesis
from onticbench.numerics import QSqrt2

import inputs

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
PREP_ROW_ORDER = ",".join(scenarios.PREP_ORDER)
CLI_SIM_SAMPLES = 5000
CLI_PADDED_SIM_SAMPLES = 200
RATIONAL_DRAWS = 20000
SQRT2_DRAWS = 1000
ANCHOR_SIM_SEED = 7
# A sampled count may stray this many standard deviations from its exact
# expectation before the check fails.
SIGMA_BOUND = 6


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], List[str]]
    group: str = ""


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _References:
    """Digest of each operation's first answer; later answers must match it."""

    def __init__(self) -> None:
        self._digests: Dict[str, str] = {}

    def check(self, name: str, digest: str) -> List[str]:
        first = self._digests.setdefault(name, digest)
        if digest != first:
            return [f"{name}: answer changed between repetitions ({digest[:12]} != {first[:12]})"]
        return []


class Workload:
    name = ""
    jobs: Tuple[int, ...] = (1,)
    min_ops = 1

    def __init__(self) -> None:
        self.ops: List[Op] = []
        self.excluded: List[dict] = []

    def named_metrics(self, best: Dict[int, float]) -> Dict[str, Tuple[float, str]]:
        """This workload's named metrics, from each operation's best latency by index."""
        return {}


# ---- cli-session -------------------------------------------------------------


def _run_cli(argv: Sequence[str]) -> Tuple[Optional[int], str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


class CliSession(Workload):
    """Every CLI command, text and JSON, on builtins and on generated files."""

    name = "cli-session"
    min_ops = 200

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()
        golden = load_golden()["cli"]
        paths = inputs.write_cli_inputs(seed, workdir)
        builtin_toy = ["--builtin", "toy-nlhv"]
        builtin_lhv = ["--builtin", "pbr-lhv"]
        toy_file = [paths["toy"]]
        padded = [paths["padded"]]
        sim = ["--prep", "nu00", "--meas", "M", "--samples"]
        # (command, input name, input args, extra args).  LP commands run only
        # on builtin-size inputs; files always get --preps in Born-row order.
        mix = [
            ("validate", "toy-builtin", builtin_toy, []),
            ("validate", "lhv-builtin", builtin_lhv, []),
            ("validate", "toy-file", toy_file, []),
            ("validate", "padded-file", padded, []),
            ("predict", "toy-builtin", builtin_toy, ["--prep", "nu00", "--meas", "M"]),
            ("predict", "toy-file", toy_file, ["--prep", "nu++", "--meas", "M"]),
            ("predict", "padded-file", padded, ["--prep", "nu0+", "--meas", "M"]),
            ("born-check", "toy-builtin", builtin_toy, []),
            ("born-check", "toy-file", toy_file, []),
            ("born-check", "padded-file", padded, []),
            ("independence", "toy-builtin", builtin_toy, []),
            ("independence", "lhv-builtin", builtin_lhv, []),
            ("independence", "toy-file", toy_file, []),
            ("independence", "padded-file", padded, []),
            ("overlap", "toy-builtin", builtin_toy, ["--preps", "nu0,nu+"]),
            ("overlap", "lhv-builtin", builtin_lhv, ["--preps", "mu00,mu0+"]),
            ("overlap", "toy-file", toy_file, ["--preps", "nu00,nu0+"]),
            ("overlap", "padded-file", padded, ["--preps", "nu00,nu0+"]),
            ("synthesize", "toy-builtin", builtin_toy, []),
            ("synthesize", "lhv-builtin", builtin_lhv, []),
            ("synthesize", "toy-file", toy_file, ["--preps", PREP_ROW_ORDER]),
            ("nogo", "lhv-builtin", builtin_lhv, []),
            ("nogo", "toy-builtin", builtin_toy, []),
            ("nogo", "toy-file", toy_file, ["--preps", PREP_ROW_ORDER]),
            ("simulate", "toy-builtin", builtin_toy,
             sim + [str(CLI_SIM_SAMPLES), "--seed", str(ANCHOR_SIM_SEED), "--jobs", "1"]),
            ("simulate", "toy-file", toy_file,
             sim + [str(CLI_SIM_SAMPLES), "--seed", str(ANCHOR_SIM_SEED), "--jobs", "2"]),
            ("simulate", "padded-file", padded,
             sim + [str(CLI_PADDED_SIM_SAMPLES), "--seed", str(seed % 2**64), "--jobs", "1"]),
            ("demo-pbr", "none", [], []),
        ]
        self.references = _References()
        toy = scenarios.build_toy_nlhv_model()
        self._toy_nu0plus = [str(v) for v in ontology.predicted_statistics(toy, "nu0+", "M")]
        for command, source, model_args, extra in mix:
            for fmt in ("text", "json"):
                name = f"{command} {source} {fmt}"
                argv = [command] + model_args + extra + ["--format", fmt]
                expected = golden[name]
                self.ops.append(
                    Op(name, partial(_run_cli, argv), self._checker(name, expected), command)
                )
        # nogo on a file with sqrt2 weights on the local space raises inside
        # the min-violation LP builder instead of answering.  It stays out of
        # the timed mix; one untimed call per run keeps the defect visible.
        probe = ["nogo", paths["lhv_sqrt2"], "--preps", ",".join(scenarios.MARGINAL_PREP_ORDER)]
        self.excluded.append({"argv": probe, "outcome": _probe(probe)})

    def _checker(self, name: str, expected: dict) -> Callable[[object], List[str]]:
        def check(result) -> List[str]:
            code, stdout, _ = result
            failures = []
            if code != expected["exit"]:
                failures.append(f"{name}: exit {code}, expected {expected['exit']}")
            digest = sha256(stdout)
            if "sha256" in expected:
                if digest != expected["sha256"]:
                    failures.append(f"{name}: stdout digest {digest[:12]} is not the golden one")
            else:
                failures += self.references.check(name, digest)
                if name.endswith(" json"):
                    failures += self._seeded_facts(name, stdout)
            return failures

        return check

    def _seeded_facts(self, name: str, stdout: str) -> List[str]:
        """Exact facts of the padded file that hold for every seed."""
        try:
            doc = json.loads(stdout)
        except ValueError:
            return [f"{name}: stdout is not JSON"]
        command = name.split(" ", 1)[0]
        wrong = {
            "validate": lambda: not doc["ok"],
            "predict": lambda: doc["probabilities"] != self._toy_nu0plus,
            "born-check": lambda: not doc["all_match"],
            "overlap": lambda: QSqrt2.parse(doc["overlap"]).sign() <= 0,
            "simulate": lambda: sum(doc["counts"]) != CLI_PADDED_SIM_SAMPLES or doc["counts"][0] != 0,
            "independence": lambda: doc["ok"],
        }[command]
        return [f"{name}: padded-file answer breaks an exact invariant"] if wrong() else []

    def named_metrics(self, best):
        times = list(best.values())
        return {
            "cli.p50_ms": (1000 * statistics.median(times), "ms"),
            "cli.p95_ms": (1000 * statistics.quantiles(times, n=20, method="inclusive")[18], "ms"),
            "cli.ops_per_s": (len(times) / sum(times), "1/s"),
        }


def _probe(argv: List[str]) -> str:
    try:
        code, _, err = _run_cli(argv)
    except Exception as exc:  # the probe exists to record this crash
        return f"raised {type(exc).__name__}: {exc}"
    return f"exit {code}" + (f", stderr {err.strip()[:120]!r}" if err else "")


# ---- lp-certify --------------------------------------------------------------

EXPECTED_FLOOR = Fraction(1, 16)


class LpCertify(Workload):
    """The padded PBR family, one instance per operation, plus seeded planted twins.

    A planted operation certifies one twin pair: a rational instance and
    the same instance with sqrt2 shifts.  Pairing keeps the operations'
    median off the gap between the cheaper rational and the dearer sqrt2
    instances, where it would jump with the seed.
    """

    name = "lp-certify"

    def __init__(self, seed: int, workdir: str = "") -> None:
        super().__init__()
        born = scenarios.build_pbr_quantum_scenario().born_table
        self.references = _References()
        planted = inputs.planted_specs(seed)
        groups = [[instance] for instance in inputs.pbr_padded_specs(born)]
        groups += [planted[i:i + 2] for i in range(0, len(planted), 2)]
        for group in groups:
            items = []
            for name, spec, feasible in group:
                rational = all(
                    not w.irr for _, state in spec.preparations for w in state.weights.values()
                )
                floor_cells = None
                if not feasible and rational:
                    floor_cells = scenarios.forbidden_cells(tuple(l for l, _ in spec.preparations))
                items.append((name, spec, feasible, floor_cells))
            name = group[0][0] if len(group) == 1 else group[0][0].rsplit("-", 1)[0]
            calls = [(spec, floor_cells) for _, spec, _, floor_cells in items]
            self.ops.append(Op(name, partial(certify_all, calls), self._checker(items)))

    def _checker(self, items):
        def check(results) -> List[str]:
            failures = []
            for (name, _, feasible, floor_cells), (lp_result, verdict, floor) in zip(items, results):
                if lp_result.feasible != feasible:
                    failures.append(f"{name}: feasible={lp_result.feasible}, expected {feasible}")
                if not verdict.ok:
                    failures.append(f"{name}: re-check failed: {verdict.failures[:1]}")
                if floor_cells is not None and floor != EXPECTED_FLOOR:
                    failures.append(f"{name}: floor {floor}, expected {EXPECTED_FLOOR}")
                answer = json.dumps(lp_result.to_dict(), sort_keys=True) + f"|{floor}"
                failures += self.references.check(name, sha256(answer))
            return failures

        return check

    def named_metrics(self, best):
        return {
            "lp.total_s": (sum(best.values()), "s"),
            "lp.p50_s": (statistics.median(best.values()), "s"),
        }


def certify_all(calls):
    return [certify(spec, floor_cells) for spec, floor_cells in calls]


def certify(spec, floor_cells):
    """Build, solve, re-check and, for an infeasible rational spec, find the floor."""
    lp = synthesis.build_synthesis_lp(spec)
    result = synthesis.solve_feasibility(lp)
    verdict = synthesis.verify_certificate(lp, result)
    floor = None
    if floor_cells is not None and not result.feasible:
        floor = synthesis.solve_min_violation(spec, floor_cells).value
    return result, verdict, floor


# ---- sampling ----------------------------------------------------------------


class Sampling(Workload):
    """simulate on nu00/M, rational and sqrt2 paths, at jobs 1 and 2.

    Each path has two calls on a fixed model and simulate seed, checked
    against golden count digests, and two on the seeded inputs.  Draw
    counts per call are sized so that the two paths take similar time.
    """

    name = "sampling"
    jobs = (1, 2)
    min_ops = 200

    def __init__(self, seed: int, workdir: str = "") -> None:
        super().__init__()
        golden = load_golden()["sampling"]
        self.references = _References()
        toy = scenarios.build_toy_nlhv_model()
        paths = (
            ("rational", RATIONAL_DRAWS, toy, toy),
            ("sqrt2", SQRT2_DRAWS, inputs.sqrt2_sampling_model(0), inputs.sqrt2_sampling_model(seed)),
        )
        self.draws: Dict[str, int] = {}
        self.path_of: List[str] = []
        for path, draws, anchor_model, seeded_model in paths:
            self.draws[path] = draws
            for kind, model, sim_seed in (("anchor", anchor_model, ANCHOR_SIM_SEED),
                                          ("seeded", seeded_model, seed)):
                probs = [v.to_float() for v in ontology.predicted_statistics(model, "nu00", "M")]
                for jobs in self.jobs:
                    name = f"{path} {kind} jobs={jobs}"
                    call = partial(simulate, model, draws, sim_seed, jobs)
                    check = self._checker(name, draws, probs, golden.get(name))
                    self.ops.append(Op(name, call, check))
                    self.path_of.append(path)

    def _checker(self, name, draws, probs, golden_digest):
        def check(counts) -> List[str]:
            failures = []
            if sum(counts) != draws:
                failures.append(f"{name}: {sum(counts)} draws, expected {draws}")
            if counts[0] != 0:
                failures.append(f"{name}: forbidden outcome 1 drawn {counts[0]} times")
            for k, (count, p) in enumerate(zip(counts, probs), start=1):
                spread = SIGMA_BOUND * math.sqrt(draws * p * (1 - p)) + 1
                if abs(count - draws * p) > spread:
                    failures.append(f"{name}: outcome {k} count {count} is far from {draws * p:.1f}")
            digest = sha256(json.dumps(counts))
            if golden_digest is not None:
                if digest != golden_digest:
                    failures.append(f"{name}: counts digest {digest[:12]} is not the golden one")
            else:
                failures += self.references.check(name, digest)
            return failures

        return check

    def named_metrics(self, best):
        out = {}
        for path, draws in self.draws.items():
            times = [t for i, t in best.items() if self.path_of[i] == path]
            out[f"sample.{path}_draws_per_s"] = (draws * len(times) / sum(times), "1/s")
        return out


def simulate(model, draws: int, seed: int, jobs: int) -> List[int]:
    # Looked up on the module at call time, so a traced run sees the wrapper.
    return ontology.simulate(model, "nu00", "M", draws, seed, jobs)


WORKLOADS = {w.name: w for w in (CliSession, LpCertify, Sampling)}

