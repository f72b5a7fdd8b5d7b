"""onticbench benchmark: one workload per run, every verdict checked.

    python3 bench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``cli-session``, ``lp-certify`` and
``sampling``; ``all`` runs each in turn and prints the workload-named
metrics of every one.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics: ``setup_s`` (median time of ``import onticbench.cli``
in a fresh interpreter), ``p50_ms`` and ``p95_ms``
(latency across the workload's distinct operations), ``ops_per_s``
(distinct operations over the time of one pass) and ``ok_frac``
(operations answered correctly over those attempted).  An operation is one
CLI command, one LP instance or planted twin pair taken to certified
verdicts, or one ``simulate`` call.

On a host whose cores are shared, speed drifts by up to half as much again
over minutes as neighbours load them, and an operation of a few hundred
milliseconds never runs clean.  So every operation is followed by the
reference kernel (reference.py: stdlib Fraction arithmetic, no onticbench
code), and each latency is divided by the mean of the kernel times on
either side of it.  The runner repeats whole passes and takes each
operation's median ratio.  ``p50_ms``, ``p95_ms`` and ``ops_per_s`` are
those ratios scaled to a machine on which the kernel takes ``REF_MS``
milliseconds (units ``ref_ms`` and ``1/ref_s``).  ``setup_s`` is scaled
the same way, against the kernel run in the importing interpreter; its
wall time is ``setup_wall_s`` on the metadata line.

With ``--trace 1`` the run measures half its time untraced and half with
every layer's public functions wrapped from outside (spans.py), then
reports the per-layer metrics listed in layers.json, each with the
end-to-end metric and workload it should move.  Per-layer times are wall
time.

The line before the last carries run metadata (with the run's median
kernel time) and the workload-named metrics in wall time (``cli.p50_ms``,
``lp.total_s``, ``sample.sqrt2_draws_per_s``, ...; best of N per
operation).  Inputs are written under ``.bench_build/onticbench``.  The
run exits 2 without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from reference import REF_MS, timed_reference
from spans import TRACED, Tracer, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(".bench_build", "onticbench")
SETUP_REPEATS = 15
E2E = (
    ("setup_s", "s"),
    ("p50_ms", "ref_ms"),
    ("p95_ms", "ref_ms"),
    ("ops_per_s", "1/ref_s"),
    ("ok_frac", "ratio"),
)

# Times one import of onticbench.cli, then the reference kernel in the same
# interpreter (median of three runs, the first of which warms it up).
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import onticbench.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from reference import timed_reference\n"
    "print(repr(t), repr(sorted(timed_reference() for _ in range(3))[1]))\n"
)


@dataclass
class Sample:
    op_id: int
    index: int
    pass_no: int
    latency: float
    reference: float
    failures: List[str] = field(default_factory=list)


def measure(workload, seconds: float, tracer=None, first_op_id: int = 0) -> List[Sample]:
    """Run whole passes over the workload's operations until time and count are met.

    Passes are never cut short, so every run measures the same operation
    mix.  An operation that raises counts as failed; the run goes on.  The
    reference kernel runs after every operation (and once before the
    first); a sample's ``reference`` is the mean of the two around it.
    """
    clock = time.perf_counter
    samples: List[Sample] = []
    deadline = clock() + seconds
    before = timed_reference()
    pass_no = 0
    while pass_no == 0 or len(samples) < workload.min_ops or clock() < deadline:
        for index, op in enumerate(workload.ops):
            op_id = first_op_id + len(samples)
            if tracer is not None:
                tracer.op = op_id
            start = clock()
            try:
                result = op.call()
            except Exception as exc:  # a crash is a failed operation, not a failed run
                latency = clock() - start
                failures = [f"{op.name}: raised {type(exc).__name__}: {exc}"]
            else:
                latency = clock() - start
                failures = op.check(result)
            after = timed_reference()
            samples.append(Sample(op_id, index, pass_no, latency, (before + after) / 2, failures))
            before = after
        pass_no += 1
    return samples


def setup_seconds() -> Tuple[float, float]:
    """Median import time of onticbench.cli in fresh interpreters: (reference-scaled, wall).

    The reference-scaled time is each import's wall time over the kernel
    time in the same interpreter, scaled to REF_MS.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, SRC, BENCH_DIR],
            check=True, capture_output=True, text=True, timeout=60,
        )
        import_s, kernel_s = map(float, out.stdout.split())
        wall.append(import_s)
        scaled.append(REF_MS / 1000 * import_s / kernel_s)
    # The first import also compiles bytecode.
    return statistics.median(scaled[1:]), statistics.median(wall[1:])


def best_by_op(samples: List[Sample]) -> Dict[int, float]:
    """Each operation's fastest repetition in the run (best of N)."""
    best: Dict[int, float] = {}
    for s in samples:
        best[s.index] = min(s.latency, best.get(s.index, s.latency))
    return best


def relative_by_op(samples: List[Sample]) -> Dict[int, float]:
    """Each operation's median latency over its neighbouring kernel time, in REF_MS units."""
    ratios: Dict[int, List[float]] = defaultdict(list)
    for s in samples:
        ratios[s.index].append(s.latency / s.reference)
    return {index: REF_MS / 1000 * statistics.median(r) for index, r in ratios.items()}


def p95(values: List[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(samples: List[Sample], setup_s: float) -> Dict[str, float]:
    typical = list(relative_by_op(samples).values())
    failed = sum(1 for s in samples if s.failures)
    return {
        "setup_s": setup_s,
        "p50_ms": 1000 * statistics.median(typical),
        "p95_ms": 1000 * p95(typical),
        "ops_per_s": len(typical) / sum(typical),
        "ok_frac": (len(samples) - failed) / len(samples),
    }


# ---- traced run ----------------------------------------------------------------


def observers() -> Dict[str, object]:
    """Counters recorded at span boundaries, keyed by span name."""

    def lp_shape(args, kwargs, result):
        lp = args[0]
        values = list(result.witness) if result.feasible else list(result.certificate.values())
        return {
            "lp_vars": len(lp.variables),
            "lp_rows": len(lp.constraints),
            "lp_nonzeros": sum(1 for con in lp.constraints for c in con.coeffs if c),
            "max_bits": max(
                (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
                default=0,
            ),
        }

    def draws(args, kwargs, result):
        model, prep_label, meas_label = args[:3]
        prep = model.preparations[prep_label]
        meas = model.measurements[meas_label]
        exact = any(w.irr for w in prep.weights.values()) or any(
            v.irr for p in prep.weights for v in meas.rows[p]
        )
        return {f"draws.{'sqrt2' if exact else 'rational'}": sum(result)}

    def loaded(args, kwargs, result):
        return {"bytes": len(args[0].encode("utf-8"))}

    return {
        "synthesis.solve_feasibility": lp_shape,
        "ontology.simulate": draws,
        "modelfile.loads": loaded,
    }


_MAX_KEYS = ("max_bits",)


def _add_span(bucket: Dict[str, int], span) -> None:
    bucket[f"calls.{span.name}"] += 1
    for key, value in span.counts.items():
        bucket[key] = max(bucket[key], value) if key in _MAX_KEYS else bucket[key] + value


def pass_counts(spans, samples: List[Sample]) -> Dict[int, Dict[str, int]]:
    """Exact counts per pass: span calls plus counters, from traced samples."""
    pass_of = {s.op_id: s.pass_no for s in samples}
    counts: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        _add_span(counts[pass_of[span.op]], span)
    return counts


def repeat_failures(spans, samples: List[Sample]) -> Dict[int, List[str]]:
    """Operations whose exact counts differ from the same operation's first traced pass."""
    per_op: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        _add_span(per_op[span.op], span)
    first: Dict[int, Dict[str, int]] = {}
    out: Dict[int, List[str]] = {}
    for s in samples:
        signature = dict(per_op.get(s.op_id, {}))
        reference = first.setdefault(s.index, signature)
        if signature != reference:
            changed = sorted(k for k in set(signature) | set(reference)
                             if signature.get(k) != reference.get(k))
            out[s.op_id] = [f"op {s.index}: exact counts changed between passes: {changed}"]
    return out


def numerics_microbench() -> Dict[str, float]:
    """Per-operation times of QSqrt2 arithmetic on fixed mixed operands."""
    from onticbench.numerics import QSqrt2

    a = QSqrt2(Fraction(3, 7), Fraction(-2, 5))
    b = QSqrt2(Fraction(5, 11), Fraction(1, 3))
    c = QSqrt2(Fraction(1, 4))
    d = QSqrt2(Fraction(2, 9))
    names = {"a": a, "b": b, "c": c, "d": d, "QSqrt2": QSqrt2,
             "fa": a.rat, "fb": b.rat, "fc": c.rat, "fd": d.rat}
    pairs = ("a {0} b", "c {0} d", "a {0} c", "d {0} b")

    def per_op(stmt: str, count: int, number: int) -> float:
        timer = timeit.Timer(stmt, globals=names)
        return min(timer.repeat(repeat=5, number=number)) / (number * count)

    def binary(op: str, number: int) -> float:
        return per_op("; ".join(p.format(op) for p in pairs), len(pairs), number)

    parse = "; ".join(
        f"QSqrt2.parse({text!r})" for text in ("1/3 + sqrt2/7", "3*sqrt2/4", "1 - sqrt2", "5/8")
    )
    return {
        "numerics.add_ns": 1e9 * binary("+", 2000),
        "numerics.mul_ns": 1e9 * binary("*", 2000),
        "numerics.lt_ns": 1e9 * binary("<", 2000),
        "numerics.div_ns": 1e9 * binary("/", 1000),
        "numerics.parse_us": 1e6 * per_op(parse, 4, 500),
        "numerics.fraction_add_ns": 1e9 * per_op("fa + fb; fc + fd; fa + fc; fd + fb", 4, 5000),
    }


def per_layer(workload, tracer, untraced: List[Sample], traced: List[Sample]) -> Dict[str, float]:
    spans = tracer.spans
    ops = len(traced)
    op_time = sum(s.latency for s in traced)
    self_s = self_times(spans)
    out: Dict[str, float] = numerics_microbench()

    inclusive: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    for span in spans:
        inclusive[span.name] += span.duration
        own[span.name] += self_s[span.id]
        layer_self[span.layer] += self_s[span.id]
    first_pass = pass_counts(spans, traced)[traced[0].pass_no]

    for module, functions in TRACED.items():
        for function in functions:
            name = f"{module}.{function}"
            out[f"{name}.s"] = inclusive.get(name, 0.0) / ops
            out[f"{name}.calls"] = first_pass.get(f"calls.{name}", 0)
    out["synthesis.solve_feasibility.self_s"] = own["synthesis.solve_feasibility"] / ops
    for key in ("lp_vars", "lp_rows", "lp_nonzeros", "pivots", "max_bits"):
        out[f"synthesis.{key}"] = first_pass.get(key, 0)
    out["modelfile.loads.bytes"] = first_pass.get("bytes", 0)

    for path in ("rational", "sqrt2"):
        n = sum(s.counts.get(f"draws.{path}", 0) for s in spans if s.name == "ontology.simulate")
        busy = sum(s.duration for s in spans
                   if s.name == "ontology.simulate" and s.counts.get(f"draws.{path}"))
        out[f"ontology.simulate.ns_per_draw.{path}"] = 1e9 * busy / n if n else 0.0

    command_of = {s.op_id: workload.ops[s.index].group for s in traced}
    by_command: Dict[str, List[float]] = defaultdict(list)
    cli_self = 0.0
    for span in spans:
        if span.name == "cli.run":
            by_command[command_of[span.op]].append(span.duration)
            cli_self += self_s[span.id]
    for command in ("validate", "predict", "born-check", "independence", "overlap",
                    "synthesize", "nogo", "simulate", "demo-pbr"):
        durations = by_command.get(command)
        out[f"cli.{command}.ms"] = 1000 * statistics.median(durations) if durations else 0.0
    out["cli.self_s"] = cli_self / ops
    for layer in TRACED:
        out[f"{layer}.share"] = layer_self.get(layer, 0.0) / op_time
    out["trace.overhead_ms"] = 1000 * (
        statistics.median(relative_by_op(traced).values())
        - statistics.median(relative_by_op(untraced).values())
    )
    return out


# ---- driver ------------------------------------------------------------------


def metadata(args, workload) -> dict:
    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        sha = out[1]  # only the checkout's own repository, never an enclosing one
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "jobs": list(workload.jobs),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": sha,
    }


def reference_ms(samples: List[Sample]) -> float:
    return 1000 * statistics.median(s.reference for s in samples)


def run_workload(name: str, args) -> dict:
    from workloads import WORKLOADS

    layers = _load_layers()
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[name](args.seed, WORKDIR)
    setup_s, setup_wall_s = setup_seconds()
    if args.trace:
        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install(observers())
        try:
            traced = measure(workload, args.seconds / 2, tracer, first_op_id=len(untraced))
        finally:
            tracer.uninstall()
        for op_id, failures in repeat_failures(tracer.spans, traced).items():
            traced[op_id - len(untraced)].failures.extend(failures)
        samples = untraced + traced
        values = per_layer(workload, tracer, untraced, traced)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in layers}
        span_log = os.path.join(WORKDIR, f"spans-{name}-{args.seed}.jsonl")
        tracer.write(span_log)
    else:
        untraced = samples = measure(workload, args.seconds)
        values = end_to_end(samples, setup_s)
        metrics = {n: {"value": values[n], "unit": u} for n, u in E2E}
        span_log = None
    named = {k: {"value": v, "unit": u}
             for k, (v, u) in workload.named_metrics(best_by_op(untraced)).items()}
    named["setup_s"] = {"value": setup_s, "unit": "s"}
    named["setup_wall_s"] = {"value": setup_wall_s, "unit": "s"}
    failed = [s for s in samples if s.failures]
    named["failed_frac"] = {"value": len(failed) / len(samples), "unit": "ratio"}
    info = {
        "meta": dict(metadata(args, workload), reference_ms=reference_ms(samples)),
        "operations": len(samples),
        "named": named,
        "excluded": workload.excluded,
        "span_log": span_log,
        "failures": [f for s in failed for f in s.failures][:20],
    }
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
        "named": named,
    }


def _load_layers() -> List[dict]:
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-session", "lp-certify", "sampling", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "onticbench", "cli.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    if args.workload != "all":
        result = run_workload(args.workload, args)
        result.pop("named")
    else:
        results = [run_workload(name, args) for name in ("cli-session", "lp-certify", "sampling")]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        metrics = {k: v for r in results for k, v in r["named"].items()}
        for key in ("setup_s", "setup_wall_s"):
            metrics[key]["value"] = statistics.median(r["named"][key]["value"] for r in results)
        metrics["failed_frac"]["value"] = failed / attempted
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
