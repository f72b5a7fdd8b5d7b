"""Tests of the benchmark itself: input determinism, span arithmetic, exact counts.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from onticbench import cli, modelfile, synthesis  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _all_generated_text(seed):
    born = workloads.scenarios.build_pbr_quantum_scenario().born_table
    texts = [
        modelfile.dumps(inputs.padded_sqrt2_model(seed)),
        modelfile.dumps(inputs.sqrt2_sampling_model(seed)),
        modelfile.dumps(inputs.sqrt2_lhv_model()),
    ]
    for _, spec, _ in inputs.pbr_padded_specs(born) + inputs.planted_specs(seed):
        texts.append(inputs.instance_text(spec))
    return texts


def test_same_seed_gives_byte_identical_inputs():
    for seed in (0, 5, 2**70):
        assert _all_generated_text(seed) == _all_generated_text(seed)


def test_seed_changes_the_seeded_inputs():
    first, second = _all_generated_text(1), _all_generated_text(2)
    assert first[0] != second[0]  # padded CLI file
    assert first[1] != second[1]  # sqrt2 sampling model
    assert first[-1] != second[-1]  # a planted instance


def test_written_files_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    paths_a = inputs.write_cli_inputs(9, str(a))
    paths_b = inputs.write_cli_inputs(9, str(b))
    for role in paths_a:
        with open(paths_a[role], "rb") as fa, open(paths_b[role], "rb") as fb:
            assert fa.read() == fb.read()


def test_generated_models_are_valid():
    for model in (inputs.padded_sqrt2_model(4), inputs.sqrt2_sampling_model(4)):
        assert all(v.ok for v in modelfile.validate_model(model).values())
    assert inputs.padded_sqrt2_model(4).space.size == 512


def _span(sid, start, end, parent=None):
    return spans.Span(sid, 0, "x.y", start, end, parent)


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, 0),
        _span(2, 2.0, 4.0, 0),  # overlaps span 1: counted once
        _span(3, 8.0, 12.0, 0),  # runs past its parent: clipped at 10
        _span(4, 1.5, 2.5, 1),  # grandchild: only its own parent loses it
    ]
    self_s = spans.self_times(tree)
    assert self_s[0] == 10.0 - (3.0 + 2.0)
    assert self_s[1] == 2.0 - 1.0
    assert self_s[4] == 1.0


def test_covered_length_ignores_empty_and_outside_intervals():
    assert spans.covered_length([], 0.0, 1.0) == 0.0
    assert spans.covered_length([(2.0, 3.0), (0.5, 0.5)], 0.0, 1.0) == 0.0
    assert spans.covered_length([(0.0, 0.25), (0.25, 0.5)], 0.0, 1.0) == 0.5


def test_relative_latency_cancels_machine_speed():
    # The same operation on a host running at half speed: latency and
    # neighbouring kernel time both double, the reported latency does not.
    fast = [run.Sample(0, 0, p, 0.020 * (1 + p / 10), 0.010) for p in range(3)]
    slow = [run.Sample(0, 0, p, 2 * s.latency, 2 * s.reference) for p, s in enumerate(fast)]
    expected = reference.REF_MS / 1000 * 2.2
    assert run.relative_by_op(fast)[0] == pytest.approx(expected)
    assert run.relative_by_op(slow)[0] == pytest.approx(expected)


def test_tracer_nests_spans_counts_pivots_and_uninstalls():
    originals = (synthesis.solve_feasibility, synthesis.verify_certificate,
                 cli.solve_feasibility, dict(cli._BUILTINS))
    tracer = spans.Tracer()
    tracer.install(run.observers())
    try:
        assert cli._BUILTINS["toy-nlhv"] is not originals[3]["toy-nlhv"]
        lp = synthesis.build_synthesis_lp(workloads.scenarios.lhv_synthesis_spec())
        synthesis.solve_feasibility(lp)
    finally:
        tracer.uninstall()
    assert (synthesis.solve_feasibility, synthesis.verify_certificate,
            cli.solve_feasibility, dict(cli._BUILTINS)) == originals
    by_name = {s.name: s for s in tracer.spans}
    solve = by_name["synthesis.solve_feasibility"]
    nested = by_name["synthesis.verify_certificate"]
    assert nested.parent == solve.id
    assert solve.counts["pivots"] > 0
    assert solve.counts["lp_vars"] == len(lp.variables)
    assert spans.self_times(tracer.spans)[solve.id] < solve.duration


def _one_traced_pass(workload):
    workload.min_ops = 1
    tracer = spans.Tracer()
    tracer.install(run.observers())
    try:
        samples = run.measure(workload, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert all(not s.failures for s in samples), [s.failures for s in samples if s.failures]
    return tracer, samples


def _cli_session(monkeypatch):
    # Golden stdout digests name the input files by their path under the root.
    monkeypatch.chdir(ROOT)
    os.makedirs(run.WORKDIR, exist_ok=True)
    return workloads.CliSession(3, run.WORKDIR)


def test_exact_counts_repeat_across_runs(monkeypatch):
    for make in (
        lambda: _cli_session(monkeypatch),
        lambda: workloads.Sampling(3),
    ):
        counts = []
        for _ in range(2):
            tracer, samples = _one_traced_pass(make())
            assert not run.repeat_failures(tracer.spans, samples)
            counts.append(dict(run.pass_counts(tracer.spans, samples)[0]))
        assert counts[0] == counts[1]
        assert counts[0]


def test_traced_pass_reports_every_layer_metric(monkeypatch):
    workload = _cli_session(monkeypatch)
    workload.min_ops = 1
    untraced = run.measure(workload, 0.0)
    tracer, traced = _one_traced_pass(workload)
    values = run.per_layer(workload, tracer, untraced, traced)
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)
    missing = [m["name"] for m in layers if m["name"] not in values]
    assert not missing
    assert values["scenarios.build_pbr_quantum_scenario.calls"] > 0
    assert values["synthesis.pivots"] > 0


def test_layer_map_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (m["name"], m["unit"]) for m in layers
    ]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_golden_table_covers_exactly_the_cli_mix(tmp_path):
    workload = workloads.CliSession(3, str(tmp_path))
    assert sorted(op.name for op in workload.ops) == sorted(workloads.load_golden()["cli"])


def test_run_without_package_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    argv = ["--workload", "sampling", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, "bench/run.py"] + argv, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
