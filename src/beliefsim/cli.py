"""Command-line front end: validate, run, inspect, oracle.

Exit codes: 0 success, 1 scenario validation failure (the message names
the offending key) or out-of-domain request, 2 I/O failure. The commands
raise; only `main` turns a ValidationError, an OracleDomainError or an
OSError that names a file into one `error:` line and its exit code, and
anything else propagates. Flags override file values (flag > file >
default), and each command validates its scenario once, after the flags.
Data files written by `run` contain no timestamps; run metadata lives in
a separate manifest so the data outputs are byte-stable across reruns.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import OracleDomainError, ValidationError
from .oracle import exact_rule_accuracy
from .rules import parse_rule
from .scenario_io import load_scenario, read_scenario
from .simulator import Metrics, Scenario, run, trace_blocks, trace_to_jsonl, validate_scenario


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    if getattr(args, "trials", None) is not None:
        scenario = replace(scenario, trials=args.trials)
    if getattr(args, "rule", None):
        scenario = replace(scenario, rules=tuple(parse_rule(text) for text in args.rule))
    return scenario


def _summary(scenario: Scenario, metrics: Metrics) -> str:
    lines = [
        f"scenario: {scenario.name}  trials={metrics.trials} steps={metrics.steps} "
        f"seed={scenario.seed}",
        f"{'rule':<20} {'accuracy':>9} {'95% CI':>19} {'tie_rate':>9}",
    ]
    for name, rm in metrics.rules.items():
        ci = f"[{rm.ci_low:.4f}, {rm.ci_high:.4f}]"
        lines.append(f"{name:<20} {rm.accuracy:>9.4f} {ci:>19} {rm.tie_rate:>9.4f}")
    raw = "  ".join(f"{a}={acc:.4f}" for a, acc in sorted(metrics.agent_accuracy.items()))
    lines.append(f"raw agent accuracy: {raw}")
    for pair, rate in metrics.contradiction_rates.items():
        lines.append(f"contradiction rate {pair}: {rate:.4f}")
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(read_scenario(args.scenario), args)
    trace, metrics = run(scenario)

    out_dir = Path(args.out_dir)
    manifest = {
        "scenario": scenario.name,
        "source": str(args.scenario),
        "seed": scenario.seed,
        "trials": scenario.trials,
        "steps": scenario.steps,
        "rules": [rule.name for rule in scenario.rules],
        "package_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # Block by block, so neither the whole text nor its encoding is ever held.
        trace_bytes = 0
        with open(out_dir / "trace.jsonl", "wb") as handle:
            for block in trace_blocks(trace):
                trace_bytes += handle.write(trace_to_jsonl(block).encode("utf-8"))
        manifest.update(records=len(trace.records), trace_bytes=trace_bytes)
        (out_dir / "metrics.json").write_text(
            json.dumps(metrics.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        (out_dir / "metrics.csv").write_text(metrics.to_csv(), encoding="utf-8")
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        _error(f"cannot write outputs to {out_dir}: {exc}")
        return 2
    print(_summary(scenario, metrics))
    print(f"outputs written to {out_dir}/")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    scenario = read_scenario(args.scenario)
    lattices = validate_scenario(scenario)
    step = args.at_step
    if not 0 <= step < scenario.steps:
        raise ValidationError(f"--at-step {step} out of range for {scenario.steps}-step scenario")
    lattice = lattices[step]
    document = {
        "format": "lattice-inspect/1",
        "scenario": scenario.name,
        "step": step,
        "lattice": json.loads(lattice.snapshot_text()),
        "experts": {a: sorted(lattice.experts_of(a)) for a in lattice.real_ids},
        "less_experts": {a: sorted(lattice.less_experts_of(a)) for a in lattice.real_ids},
    }
    print(json.dumps(document, indent=2))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(read_scenario(args.scenario), args)
    accuracies = exact_rule_accuracy(scenario)
    print(f"exact rule accuracy for {scenario.name} (enumeration over error outcomes)")
    for name, accuracy in accuracies.items():
        print(f"{name:<20} {accuracy!r}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    print(
        f"OK: {scenario.name} ({len(scenario.agents)} agents, "
        f"{len(scenario.rules)} rules, {scenario.steps} steps, {scenario.trials} trials)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefsim",
        description="Deterministic belief-propagation simulator for dominance-ranked agents.",
    )
    parser.add_argument("--version", action="version", version=f"beliefsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write trace/metrics")
    p_run.add_argument("scenario", help="scenario file (YAML)")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument("--trials", type=int, default=None, help="override trial count")
    p_run.add_argument(
        "--rule", action="append", default=None,
        help="rule to test (repeatable): most-expert | majority | subgroup:d=<n>[,self]",
    )
    p_run.add_argument("--out-dir", default="out", help="output directory (default: out)")
    p_run.set_defaults(func=cmd_run)

    p_inspect = sub.add_parser("inspect", help="print the lattice snapshot at a step")
    p_inspect.add_argument("scenario", help="scenario file (YAML)")
    p_inspect.add_argument("--at-step", type=int, default=0, help="step to inspect (default: 0)")
    p_inspect.set_defaults(func=cmd_inspect)

    p_oracle = sub.add_parser("oracle", help="exact rule accuracy by enumeration")
    p_oracle.add_argument("scenario", help="scenario file (YAML)")
    p_oracle.add_argument("--rule", action="append", default=None, help="rule override (repeatable)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_validate = sub.add_parser("validate", help="validate a scenario file")
    p_validate.add_argument("scenario", help="scenario file (YAML)")
    p_validate.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OracleDomainError as exc:
        _error(f"scenario outside oracle domain: {exc}")
    except ValidationError as exc:
        _error(str(exc))
    except OSError as exc:
        if exc.filename is None:  # not a file the command read, e.g. a closed stdout
            raise
        reason = "no such file" if isinstance(exc, FileNotFoundError) else exc
        _error(f"cannot read {exc.filename}: {reason}")
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
