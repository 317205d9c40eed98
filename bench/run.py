"""Benchmark for beliefsim: times the real CLI on seeded workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it works on the checkout that holds this file. Each
repetition is one fresh, single-threaded ``beliefsim`` process (``--jobs``
left at its default of 1) on a scenario file generated from ``--seed``
(see ``workloads.py``). Every repetition's outputs are checked
(``checks.py``); a repetition with wrong outputs counts as failed.

With ``--trace 0`` the run repeats, for ``--seconds``, the fixed
calibration work (``calibrate.py``), ``beliefsim validate``, the
calibration again and the workload's command (``run`` or ``oracle``),
and reports the end-to-end metrics:

- ``wall_s``: median wall time of the whole command.
- ``setup_s``: median wall time of ``beliefsim validate`` (interpreter
  start, import, parse and validation, which builds every per-step lattice).
- ``outcomes_per_s``: receiver outcomes per second after set-up: outcomes
  divided by the median, over validate/command pairs, of the command's wall
  time minus the validate's.
- ``peak_rss_mb``: median peak resident memory of the command's process.

The three times are given at a fixed reference host speed. A shared host
runs the same code up to 1.6 times faster or slower from one second or
minute to the next, and CPU time moves with wall time, so each timed
process is divided by its host factor: the calibration times just before
and after it over ``HOST_REFERENCE_S``, weighted per command by
``HOST_PARTS`` (``adjusted_repetitions``). The calibration never runs
beliefsim, so the program cannot change it. The printed lines and the
result record also give the raw medians and the factors.

With ``--trace 1`` it alternates untraced and traced runs of the command
(``tracer.py``) and reports the per-layer metrics. The last line of
standard output is the result as one JSON object; the lines before it
print each metric with its unit and sample count, the failure rate and the
sha256 of the generated scenario. The full record, samples included, is
written to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple

import checks
from workloads import DEFAULT_SEED, WORKLOADS, command_of, outcomes, scenario_document, write_scenario

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The whole benchmark command must end within 180 s; stop starting
# repetitions early enough to finish the one under way.
TIME_LIMIT_S = 170.0
MIN_REPS = 5
DEFAULT_SECONDS = 38.0  # run_seconds in BENCHMARK.json
MIN_TRACED_REPS = 3


# Calibration times of the nominal reference host (roughly those of a
# 2 GHz Xeon vCPU on a busy shared host), and how much of each command's
# time is of each kind: ``run`` and ``validate`` are pure Python, while
# about three quarters of ``oracle`` is numpy enumeration.
HOST_REFERENCE_S = {"python": 0.36, "numpy": 0.16}
HOST_PARTS = {
    "validate": {"python": 1.0},
    "run": {"python": 1.0},
    "oracle": {"python": 0.25, "numpy": 0.75},
}


def host_factor(calibration: dict[str, float], command: str) -> float:
    """How much slower than the reference host one calibration found `command`'s kind of work."""
    return sum(
        weight * calibration[part] / HOST_REFERENCE_S[part]
        for part, weight in HOST_PARTS[command].items()
    )


def adjusted_repetitions(
    reps: list[tuple[float, float, int]], calibrations: list[dict[str, float]], command: str
) -> dict[str, list[float]]:
    """Times of validate/command pairs at reference host speed.

    ``reps`` holds (validate wall, command wall, index of the calibration
    just before the command); calibrations alternate with the timed
    processes and one more follows the last of them. Each process's time is
    divided by the mean factor of the calibrations just before and after
    it, because the host's speed changes within seconds.
    """
    def around(i: int, kind: str) -> float:
        return (host_factor(calibrations[i], kind) + host_factor(calibrations[i + 1], kind)) / 2

    adjusted: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "after_setup_s": [], "factor": []}
    for validate_s, command_s, i in reps:
        setup = validate_s / around(i - 1, "validate")
        factor = around(i, command)
        adjusted["setup_s"].append(setup)
        adjusted["wall_s"].append(command_s / factor)
        adjusted["after_setup_s"].append(command_s / factor - setup)
        adjusted["factor"].append(factor)
    return adjusted


class Sample(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


class Runner:
    """Starts one child process at a time; a watchdog kills it at the time limit."""

    def __init__(self, started: float) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.deadline = started + TIME_LIMIT_S
        self._lock = threading.Lock()
        self._child: subprocess.Popen | None = None
        self.expired = False
        self._watchdog = threading.Timer(TIME_LIMIT_S - (time.monotonic() - started), self._expire)
        self._watchdog.daemon = True
        self._watchdog.start()

    def _expire(self) -> None:
        with self._lock:
            self.expired = True
            if self._child is not None:
                self._child.kill()

    def close(self) -> None:
        self._watchdog.cancel()

    def spawn(self, args: list[str]) -> Sample:
        """Run `args` in the checkout; wall time, peak RSS and captured output."""
        stdout_path, stderr_path = WORK / "child.out", WORK / "child.err"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            with self._lock:
                if self.expired:
                    raise TimeoutError("benchmark time limit reached")
                start = time.perf_counter()
                child = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT, env=self.env)
                self._child = child
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            wall = time.perf_counter() - start
            with self._lock:
                self._child = None
            child.returncode = os.waitstatus_to_exitcode(status)
        return Sample(
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            child.returncode,
            stdout_path.read_text(encoding="utf-8", errors="replace"),
            stderr_path.read_text(encoding="utf-8", errors="replace"),
        )


class Verifier:
    """Checks every repetition's outputs against the first, fully checked one."""

    def __init__(
        self, workload: str, doc: dict, scenario: Path, sha256: str, seed: int, runner: Runner
    ) -> None:
        self.command = command_of(workload)
        self.doc = doc
        self.scenario = scenario
        self.runner = runner
        self.expected: object = None
        self.expected_ok = False
        self.setup_problems: list[str] = []
        self.references = checks.load_references()[workload] if seed == DEFAULT_SEED else None
        if self.references and self.references["scenario_sha256"] != sha256:
            self.setup_problems.append(
                f"generated scenario sha256 {sha256} differs from the reference"
            )

    def check_validate(self, sample: Sample) -> list[str]:
        if sample.returncode != 0 or not sample.stdout.startswith("OK:"):
            return [f"validate exited {sample.returncode}: {sample.stderr.strip()[-300:]}"]
        return []

    def check_command(self, sample: Sample, out_dir: Path) -> list[str]:
        if sample.returncode != 0:
            return [f"{self.command} exited {sample.returncode}: {sample.stderr.strip()[-300:]}"]
        try:
            if self.command == "run":
                outputs: object = checks.file_digests(out_dir)
            else:
                outputs = checks.parse_oracle_output(sample.stdout)
        except (OSError, ValueError) as exc:
            return [f"unreadable outputs: {exc}"]
        if self.expected is None:
            problems = self._full_check(outputs, out_dir)
            self.expected, self.expected_ok = outputs, not problems
            return problems
        if outputs != self.expected:
            return ["outputs differ from the first repetition"]
        return [] if self.expected_ok else ["outputs repeat a wrong first repetition"]

    def _full_check(self, outputs, out_dir: Path) -> list[str]:
        if self.command == "run":
            check = self.runner.spawn(
                [sys.executable, str(BENCH / "checks.py"), str(out_dir), str(self.scenario)]
            )
            if check.returncode != 0:
                return [f"output check exited {check.returncode}: {check.stderr.strip()[-300:]}"]
            problems = json.loads(check.stdout)
            want = self.references and self.references["outputs_sha256"]
            if want and outputs != want:
                problems.append(f"outputs differ from the references recorded at seed {DEFAULT_SEED}")
        else:
            problems = checks.check_oracle_outputs(outputs, self.doc)
            if self.references:
                problems += checks.compare_accuracies(outputs, self.references["accuracies"])
        return self.setup_problems + problems


def _ratio(useful: int, attempts: int) -> float:
    # With no attempts nothing was wasted.
    return useful / attempts if attempts else 1.0


def _span(summary: dict, name: str, field: str):
    return summary["spans"].get(name, {}).get(field, 0)


def _leaf(summary: dict, name: str, field: str):
    return summary["leaves"].get(name, {}).get(field, 0)


# name -> (unit, value from one traced run's summary); tracing.overhead_s is
# added separately because it needs the untraced runs too.
LAYER_METRICS: dict[str, tuple[str, Callable[[dict], float]]] = {
    "lattice.build.calls": ("count", lambda s: _span(s, "lattice.build", "calls")),
    "lattice.build.s": ("s", lambda s: _span(s, "lattice.build", "total_s")),
    "lattice.build.useful_ratio": (
        "ratio",
        lambda s: _ratio(s["distinct"].get("step_lattices", 0), _span(s, "lattice.build", "calls")),
    ),
    "features.compare.calls": ("count", lambda s: _leaf(s, "features.compare", "calls")),
    "simulator.validate_scenario.calls": (
        "count",
        lambda s: _span(s, "simulator.validate_scenario", "calls"),
    ),
    "simulator.lattices_by_step.calls": (
        "count",
        lambda s: _span(s, "simulator.lattices_by_step", "calls"),
    ),
    "beliefs.observe.calls": ("count", lambda s: _span(s, "beliefs.observe", "calls")),
    "beliefs.observe.self_s": ("s", lambda s: _span(s, "beliefs.observe", "self_s")),
    "beliefs.draws": ("count", lambda s: _leaf(s, "beliefs.draw", "calls")),
    "beliefs.draw.s": ("s", lambda s: _leaf(s, "beliefs.draw", "busy_s")),
    "rules.apply_rule.calls": ("count", lambda s: _span(s, "rules.apply_rule", "calls")),
    "rules.apply_rule.s": ("s", lambda s: _span(s, "rules.apply_rule", "total_s")),
    "rules.receiver_evals": ("count", lambda s: _leaf(s, "rules.receiver_eval", "calls")),
    "rules.voter_set.useful_ratio": (
        "ratio",
        lambda s: _ratio(
            s["distinct"].get("rules.receiver_eval", 0), _leaf(s, "rules.receiver_eval", "calls")
        ),
    ),
    "lattice.maximal_frontier.calls": (
        "count",
        lambda s: _leaf(s, "lattice.maximal_frontier", "calls"),
    ),
    "lattice.maximal_frontier.s": ("s", lambda s: _leaf(s, "lattice.maximal_frontier", "busy_s")),
    "simulator.run.self_s": ("s", lambda s: _span(s, "simulator.run", "self_s")),
    "simulator.records": ("count", lambda s: s["counters"].get("records", 0)),
    "simulator.compute_metrics.s": ("s", lambda s: _span(s, "simulator.compute_metrics", "total_s")),
    "simulator.trace_to_jsonl.s": ("s", lambda s: _span(s, "simulator.trace_to_jsonl", "total_s")),
    "simulator.trace_bytes": ("bytes", lambda s: s["counters"].get("trace_bytes", 0)),
    "cli.self_s": ("s", lambda s: _span(s, "cli", "self_s")),
    "cli.bytes_written": ("bytes", lambda s: s["counters"].get("bytes_written", 0)),
    "oracle.check_oracle_domain.s": (
        "s",
        lambda s: _span(s, "oracle.check_oracle_domain", "total_s"),
    ),
    "oracle.exact_rule_accuracy.self_s": (
        "s",
        lambda s: _span(s, "oracle.exact_rule_accuracy", "self_s"),
    ),
    "oracle.enumerated_outcomes": ("count", lambda s: s["counters"].get("enumerated_outcomes", 0)),
    "scenario_io.load_scenario.s": ("s", lambda s: _span(s, "scenario_io.load_scenario", "total_s")),
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "outcomes_per_s": "1/s", "peak_rss_mb": "MB"}


def _counts(summary: dict) -> dict:
    """The parts of a traced summary that must repeat exactly between runs."""
    return {
        name: getter(summary)
        for name, (unit, getter) in LAYER_METRICS.items()
        if unit != "s"
    }


def _clear(out_dir: Path) -> None:
    for name in checks.DATA_FILES + ("manifest.json",):
        (out_dir / name).unlink(missing_ok=True)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result record (metrics, samples, verdict)."""
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    doc = scenario_document(workload, seed, ROOT)
    scenario = WORK / f"{workload}.scn"
    sha256 = write_scenario(doc, scenario)
    out_dir = WORK / f"{workload}-out"
    out_dir.mkdir(exist_ok=True)
    relative = str(scenario.relative_to(ROOT))
    command = [command_of(workload), relative]
    if command[0] == "run":
        command += ["--out-dir", str(out_dir.relative_to(ROOT))]
    cli = [sys.executable, "-m", "beliefsim.cli"]
    summary_path = WORK / "trace-summary.json"
    traced_cli = [sys.executable, str(BENCH / "tracer.py"), str(summary_path)]

    runner = Runner(started)
    verifier = Verifier(workload, doc, scenario, sha256, seed, runner)
    problems: list[str] = []
    attempted = failed = 0
    samples: dict[str, list[float]] = {
        "wall_s": [], "setup_s": [], "after_setup_s": [], "cpu_s": [], "peak_rss_mb": [],
        "traced_wall_s": [],
    }
    parts = sorted({*HOST_PARTS["validate"], *HOST_PARTS[command[0]]})
    calibrations: list[dict[str, float]] = []
    reps: list[tuple[float, float, int]] = []  # see adjusted_repetitions
    summaries: list[dict] = []

    def calibrate() -> None:
        sample = runner.spawn([sys.executable, str(BENCH / "calibrate.py"), *parts])
        times = sample.stdout.split()
        if sample.returncode != 0 or len(times) != len(parts):
            raise RuntimeError(f"calibration failed: {sample.stderr.strip()[-300:]}")
        calibrations.append(dict(zip(parts, map(float, times))))

    def keep_summary() -> list[str]:
        try:
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"unreadable trace summary: {exc}"]
        summary["counters"]["bytes_written"] = sum(
            (out_dir / name).stat().st_size for name in checks.DATA_FILES if (out_dir / name).exists()
        )
        if summaries and _counts(summary) != _counts(summaries[0]):
            return ["traced counts differ from the first traced run"]
        summaries.append(summary)
        return []

    def attempt(kind: str) -> Sample | None:
        nonlocal attempted, failed
        attempted += 1
        if kind == "validate":
            sample = runner.spawn(cli + ["validate", relative])
            found = verifier.check_validate(sample)
        else:
            _clear(out_dir)
            summary_path.unlink(missing_ok=True)
            sample = runner.spawn((traced_cli if kind == "traced" else cli) + command)
            found = verifier.check_command(sample, out_dir)
            if kind == "traced" and not found:
                found = keep_summary()
        if found:
            failed += 1
            problems.extend(found)
            return None
        return sample

    pairs: list[float] = []  # durations of the measured repetition pairs

    def room_for_more() -> bool:
        longest = max(pairs, default=0.0)
        return time.monotonic() + 1.5 * longest < runner.deadline

    try:
        # Warm-up, not timed: compiles the bytecode caches and fills the file
        # cache, which users do not pay on every run.
        attempt("validate")
        stop = time.monotonic() + seconds
        while room_for_more():
            if trace:
                enough = len(summaries) >= MIN_TRACED_REPS
            else:
                enough = len(samples["wall_s"]) >= MIN_REPS
            # Stop before a pair that would end past the measuring window;
            # go on past it only to collect the minimum number of samples.
            past = pairs and time.monotonic() + statistics.median(pairs) > stop
            if past and (enough or failed):
                break
            pair_start = time.monotonic()
            # The first command of the run is checked in full; every later
            # one, traced or not, must reproduce its outputs. Untraced, each
            # timed process follows a calibration, so the host is sampled
            # as often as the program.
            if not trace:
                calibrate()
            first = attempt("command" if trace else "validate")
            if not trace:
                calibrate()
            second = attempt("traced" if trace else "command")
            if trace:
                if first:
                    samples["wall_s"].append(first.wall_s)
                if second:
                    samples["traced_wall_s"].append(second.wall_s)
            elif first and second:
                samples["setup_s"].append(first.wall_s)
                samples["wall_s"].append(second.wall_s)
                samples["after_setup_s"].append(second.wall_s - first.wall_s)
                samples["cpu_s"].append(second.cpu_s)
                samples["peak_rss_mb"].append(second.peak_rss_mb)
                reps.append((first.wall_s, second.wall_s, len(calibrations) - 1))
            pairs.append(time.monotonic() - pair_start)
        if not trace:
            calibrate()  # the one after the last command
    except TimeoutError:
        failed += 1
        problems.append(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    except RuntimeError as exc:
        failed += 1
        problems.append(str(exc))
    finally:
        runner.close()

    metrics: dict[str, dict] = {}
    counts: dict[str, int] = {}
    host: dict = {}
    if trace:
        if samples["wall_s"] and summaries:
            traced = statistics.median(samples["traced_wall_s"])
            overhead = traced - statistics.median(samples["wall_s"])
            for name, (unit, getter) in LAYER_METRICS.items():
                values = [getter(s) for s in summaries]
                value = statistics.median(values) if unit == "s" else values[0]
                metrics[name] = {"value": value, "unit": unit}
                counts[name] = len(values)
            metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
            counts["tracing.overhead_s"] = len(samples["traced_wall_s"])
    elif reps and len(calibrations) > reps[-1][2] + 1:
        adjusted = adjusted_repetitions(reps, calibrations, command[0])
        values = {
            "wall_s": statistics.median(adjusted["wall_s"]),
            "setup_s": statistics.median(adjusted["setup_s"]),
            "outcomes_per_s": outcomes(workload, doc) / statistics.median(adjusted["after_setup_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
            counts[name] = len(reps)
        host = {
            "raw_medians_s": {
                name: statistics.median(samples[name])
                for name in ("wall_s", "setup_s", "after_setup_s")
            },
            "median_factor": statistics.median(adjusted["factor"]),
            "adjusted": adjusted,
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "scenario_sha256": sha256,
        "outcomes": outcomes(workload, doc),
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "sample_counts": counts,
        "samples": samples,
        "calibrations_s": calibrations,
        "host": host,
        "elapsed_s": time.monotonic() - started,
    }


def describe(result: dict) -> list[str]:
    """Human-readable lines: each metric with unit and sample count, and the verdict."""
    lines = [
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"scenario sha256 {result['scenario_sha256']}, {result['outcomes']} outcomes per command"
    ]
    for name, metric in result["metrics"].items():
        n = result["sample_counts"][name]
        lines.append(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']:<6} n={n}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    lines.append(
        f"  failure_rate {rate:.4g} ({result['failed']} of {result['attempted']} runs failed); "
        f"correct: {str(result['correct']).lower()}"
    )
    if result["host"]:
        raw = ", ".join(f"{k} {v:.4f} s" for k, v in result["host"]["raw_medians_s"].items())
        lines.append(
            f"  raw medians: {raw}; median host factor of the command "
            f"{result['host']['median_factor']:.4f}"
        )
    lines.extend(f"  problem: {p}" for p in result["problems"][:10])
    return lines


def prepare() -> str | None:
    """Return an error unless the checkout holds the program and its scenarios.

    The benchmark process never imports beliefsim itself: it stays small,
    because each child's peak-memory record starts from it (see checks.py).
    """
    if not (SRC / "beliefsim" / "cli.py").is_file():
        return f"no beliefsim sources under {SRC}"
    if not (ROOT / "scenarios" / "intersection.scn").is_file():
        return f"no scenarios/intersection.scn under {ROOT}"
    return None


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="beliefsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the child
    # under way is killed and waited for on the way out (Runner.spawn).
    signal.signal(signal.SIGTERM, _terminate)
    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print("\n".join(describe(result)))
    if not result["metrics"]:
        print("error: no repetition succeeded; no metrics to report", file=sys.stderr)
        return 1
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
