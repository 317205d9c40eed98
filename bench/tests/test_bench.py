"""Tests of the benchmark itself: inputs, tracer arithmetic and output checks.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest
import yaml

import checks
import run
import workloads
from tracer import Span, Tracer, layer_times

ROOT = run.ROOT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    from beliefsim import load_scenario

    first = workloads.write_scenario(
        workloads.scenario_document(workload, 7, ROOT), tmp_path / "a.scn"
    )
    second = workloads.write_scenario(
        workloads.scenario_document(workload, 7, ROOT), tmp_path / "b.scn"
    )
    other = workloads.write_scenario(
        workloads.scenario_document(workload, 8, ROOT), tmp_path / "c.scn"
    )
    assert first == second
    assert (tmp_path / "a.scn").read_bytes() == (tmp_path / "b.scn").read_bytes()
    assert other != first
    load_scenario(tmp_path / "a.scn")  # the program accepts what the generator writes


def test_default_seed_inputs_match_references(tmp_path):
    references = checks.load_references()
    for workload in workloads.WORKLOADS:
        doc = workloads.scenario_document(workload, workloads.DEFAULT_SEED, ROOT)
        sha256 = workloads.write_scenario(doc, tmp_path / f"{workload}.scn")
        assert sha256 == references[workload]["scenario_sha256"], workload


def test_self_time_on_synthetic_span_tree():
    # cli [0, 10] holds run [1, 7] and write [7, 9]; run holds two observe
    # spans [2, 3] and [4, 6]; the second observe made 0.5 s of leaf calls.
    spans = [
        Span("cli", None, 0.0, 10.0, 0.0),
        Span("run", 0, 1.0, 7.0, 0.0),
        Span("observe", 1, 2.0, 3.0, 0.0),
        Span("observe", 1, 4.0, 6.0, 0.5),
        Span("write", 0, 7.0, 9.0, 0.25),
    ]
    times = layer_times(spans)
    assert times["cli"] == {"calls": 1, "total_s": 10.0, "self_s": 2.0}
    assert times["run"] == {"calls": 1, "total_s": 6.0, "self_s": 3.0}
    assert times["observe"] == {"calls": 2, "total_s": 3.0, "self_s": 2.5}
    assert times["write"] == {"calls": 1, "total_s": 2.0, "self_s": 1.75}


def test_reentered_layer_counts_inclusive_time_once():
    spans = [Span("build", None, 0.0, 4.0, 0.0), Span("build", 0, 1.0, 2.0, 0.0)]
    assert layer_times(spans)["build"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_tracer_wrappers_record_spans_and_leaf_time():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    draw = tracer.leaf("draw", lambda: None)
    count = tracer.leaf("eval", lambda step: step, timed=False, key=lambda step: step)

    def observe():
        draw()
        count(1)
        count(1)
        count(2)

    outer = tracer.span("run", lambda: tracer.span("observe", observe)())
    outer()
    summary = tracer.summary()
    # Clock reads: run starts 0, observe starts 1, draw 2-3, observe ends 4, run ends 5.
    assert summary["spans"]["run"] == {"calls": 1, "total_s": 5.0, "self_s": 2.0}
    assert summary["spans"]["observe"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert summary["leaves"]["draw"] == {"calls": 1, "busy_s": 1.0}
    assert summary["leaves"]["eval"]["calls"] == 3
    assert summary["distinct"]["eval"] == 2


def _cli(args, out_dir, traced_summary=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    prefix = [sys.executable, "-m", "beliefsim.cli"]
    if traced_summary is not None:
        prefix = [sys.executable, str(run.BENCH / "tracer.py"), str(traced_summary)]
    done = subprocess.run(
        prefix + args, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return done.stdout


def test_traced_run_leaves_outputs_byte_identical(tmp_path):
    doc = workloads.scenario_document("intersection", 5, ROOT)
    doc["trials"] = 40
    scenario = tmp_path / "small.scn"
    workloads.write_scenario(doc, scenario)
    _cli(["run", str(scenario), "--out-dir", str(tmp_path / "plain")], None)
    summary_path = tmp_path / "summary.json"
    _cli(["run", str(scenario), "--out-dir", str(tmp_path / "traced")], None, summary_path)
    for name in checks.DATA_FILES:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    summary = json.loads(summary_path.read_text())
    assert summary["counters"]["records"] == 40 * 3 * 3
    assert summary["leaves"]["beliefs.draw"]["calls"] == 40 * 3 * 4
    assert summary["distinct"]["rules.receiver_eval"] == 3 * 3 * 4
    assert summary["counters"]["trace_bytes"] == (tmp_path / "plain" / "trace.jsonl").stat().st_size
    assert checks.check_run_outputs(tmp_path / "plain", scenario) == []


def test_run_check_detects_a_changed_metrics_file(tmp_path):
    doc = workloads.scenario_document("intersection", 5, ROOT)
    doc["trials"] = 10
    scenario = tmp_path / "small.scn"
    workloads.write_scenario(doc, scenario)
    _cli(["run", str(scenario), "--out-dir", str(tmp_path)], None)
    metrics = tmp_path / "metrics.json"
    metrics.write_text(metrics.read_text().replace('"trials": 10', '"trials": 11'))
    assert checks.check_run_outputs(tmp_path, scenario) == [
        "metrics.json differs from compute_metrics(trace.jsonl)"
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_independent_oracle_matches_enumeration(seed):
    from beliefsim import exact_rule_accuracy, parse_scenario

    doc = workloads.scenario_document("oracle-20", seed, ROOT)
    doc["agents"] = dict(list(doc["agents"].items())[:9])
    exact = exact_rule_accuracy(parse_scenario(yaml.safe_load(yaml.safe_dump(doc))))
    independent = checks.exact_accuracies(doc)
    assert exact.keys() == independent.keys()
    for rule in exact:
        assert abs(exact[rule] - independent[rule]) < 1e-12, rule


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_units = {name: unit for name, (unit, _) in run.LAYER_METRICS.items()}
    layer_units["tracing.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "intersection", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_measuring_process_stays_small():
    # A child's peak-memory record starts from its parent's high-water mark,
    # so the process that spawns the timed commands must not grow.
    code = (
        "import sys, time; sys.path.insert(0, 'bench'); import run; "
        "assert run.prepare() is None; run.WORK.mkdir(exist_ok=True); "
        "runner = run.Runner(time.monotonic()); "
        "sample = runner.spawn([sys.executable, '-c', 'pass']); runner.close(); "
        "print('beliefsim' in sys.modules, sample.peak_rss_mb)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60,
        check=True,
    )
    imported, peak_mb = done.stdout.split()
    assert imported == "False"
    assert float(peak_mb) < 40


def test_host_factor_weights_calibration_parts():
    calibration = {"python": 0.3, "numpy": 0.5}
    python = 0.3 / run.HOST_REFERENCE_S["python"]
    numpy = 0.5 / run.HOST_REFERENCE_S["numpy"]
    assert run.host_factor(calibration, "run") == pytest.approx(python)
    assert run.host_factor(calibration, "oracle") == pytest.approx(0.25 * python + 0.75 * numpy)
    for parts in run.HOST_PARTS.values():
        assert sum(parts.values()) == pytest.approx(1.0)


def test_each_process_is_adjusted_by_the_calibrations_around_it():
    ref = run.HOST_REFERENCE_S["python"]
    # Calibrations: before validate 1, before command 1, before validate 2,
    # before command 2, after command 2; the host ran at factors 1, 2, 2, 1, 3.
    calibrations = [{"python": f * ref} for f in (1, 2, 2, 1, 3)]
    reps = [(0.3, 4.0, 1), (0.3, 4.0, 3)]
    adjusted = run.adjusted_repetitions(reps, calibrations, "run")
    assert adjusted["setup_s"] == pytest.approx([0.2, 0.2])
    assert adjusted["wall_s"] == pytest.approx([2.0, 2.0])
    assert adjusted["after_setup_s"] == pytest.approx([1.8, 1.8])
    assert adjusted["factor"] == pytest.approx([2.0, 2.0])


def test_calibration_prints_the_parts_asked_for():
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "calibrate.py"), "numpy", "python"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    times = [float(t) for t in done.stdout.split()]
    assert len(times) == 2 and all(t > 0 for t in times)
