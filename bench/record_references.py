"""Record the default-seed outputs that every later benchmark run must match.

    python3 bench/record_references.py

Runs each workload's command once at the default seed and writes the
sha256 of the generated scenario and of ``trace.jsonl``, ``metrics.json``
and ``metrics.csv`` (or the oracle's printed accuracies) to
``references.json``. Re-record only when a change is meant to alter the
outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import run
from workloads import DEFAULT_SEED, WORKLOADS, command_of, scenario_document, write_scenario


def main() -> int:
    error = run.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    references = {}
    for workload in WORKLOADS:
        doc = scenario_document(workload, DEFAULT_SEED, run.ROOT)
        scenario = run.WORK / f"{workload}.scn"
        entry = {"scenario_sha256": write_scenario(doc, scenario)}
        out_dir = run.WORK / f"{workload}-out"
        args = [sys.executable, "-m", "beliefsim.cli", command_of(workload), str(scenario)]
        if command_of(workload) == "run":
            args += ["--out-dir", str(out_dir)]
        runner = run.Runner(time.monotonic())
        try:
            sample = runner.spawn(args)
        finally:
            runner.close()
        if sample.returncode != 0:
            print(f"error: {workload}: {sample.stderr}", file=sys.stderr)
            return 1
        if command_of(workload) == "run":
            problems = checks.check_run_outputs(out_dir, scenario)
            entry["outputs_sha256"] = checks.file_digests(out_dir)
        else:
            entry["accuracies"] = checks.parse_oracle_output(sample.stdout)
            problems = checks.check_oracle_outputs(entry["accuracies"], doc)
        if problems:
            print(f"error: {workload}: {problems}", file=sys.stderr)
            return 1
        references[workload] = entry
    checks.REFERENCES.write_text(json.dumps(references, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {checks.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
