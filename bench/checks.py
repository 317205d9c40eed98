"""Output checks for the beliefsim benchmark.

A benchmark repetition counts as failed when its outputs are wrong:

- ``run``: the first repetition's ``metrics.json`` must equal
  ``compute_metrics(trace_from_jsonl(trace.jsonl))`` byte for byte (and
  ``metrics.csv`` its CSV form), and the trace must hold one record per
  (trial, step, rule). Every later repetition, traced or not, must write
  byte-identical files.
- ``oracle``: the printed accuracies must agree with an independent exact
  computation (a Poisson-binomial dynamic program per receiver, written
  here without beliefsim) to within 1e-9, and repeat exactly.
- At the default seed, the generated scenario and every output must match
  ``references.json``, recorded with the program as it was when the
  benchmark was defined (oracle accuracies to 1e-12).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DATA_FILES = ("trace.jsonl", "metrics.json", "metrics.csv")
REFERENCES = Path(__file__).resolve().parent / "references.json"
ORACLE_TOLERANCE = 1e-9
# The oracle sums with numpy, whose summation order can depend on the CPU's
# vector units, so recorded accuracies are compared to the last few digits.
REFERENCE_TOLERANCE = 1e-12

_SUBGROUP_RE = re.compile(r"subgroup:d=(\d+)(,self)?")
_ORACLE_LINE_RE = re.compile(r"^(\S+)\s+(\S+)$")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def file_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for name in DATA_FILES:
        with open(out_dir / name, "rb") as handle:  # streamed: keeps the caller small
            digests[name] = hashlib.file_digest(handle, "sha256").hexdigest()
    return digests


def parse_oracle_output(stdout: str) -> dict[str, str]:
    """Rule name -> accuracy text, as ``beliefsim oracle`` prints them."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("exact rule accuracy"):
        raise ValueError(f"unexpected oracle output: {stdout[:200]!r}")
    result = {}
    for line in lines[1:]:
        match = _ORACLE_LINE_RE.match(line)
        if match is None:
            raise ValueError(f"unexpected oracle line: {line!r}")
        result[match.group(1)] = match.group(2)
    return result


def check_run_outputs(out_dir: Path, scenario_path: Path) -> list[str]:
    """Full check of one run's outputs; returns the problems found.

    It imports beliefsim and parses the whole trace, so the benchmark runs
    it in a child process (see ``main``): a process's peak-memory record
    starts from its parent's high-water mark at fork.
    """
    from beliefsim import compute_metrics, load_scenario, trace_from_jsonl

    problems = []
    scenario = load_scenario(scenario_path)
    trace_text = (out_dir / "trace.jsonl").read_text(encoding="utf-8")
    records = trace_text.count("\n")
    expected = scenario.trials * scenario.steps * len(scenario.rules)
    if records != expected:
        problems.append(f"trace.jsonl has {records} records, expected {expected}")
    metrics = compute_metrics(trace_from_jsonl(trace_text), scenario)
    derived_json = json.dumps(metrics.to_dict(), indent=2) + "\n"
    if (out_dir / "metrics.json").read_text(encoding="utf-8") != derived_json:
        problems.append("metrics.json differs from compute_metrics(trace.jsonl)")
    if (out_dir / "metrics.csv").read_text(encoding="utf-8") != metrics.to_csv():
        problems.append("metrics.csv differs from compute_metrics(trace.jsonl)")
    return problems


def exact_accuracies(doc: dict) -> dict[str, float]:
    """Exact collective accuracy per rule for a static, full-broadcast,
    quality-mapped scenario with constant truth.

    By linearity of expectation, accuracy is the mean over receivers of
    P(receiver correct), and that depends only on the error rates of the
    receiver's voters: P(strict majority correct) + P(tie) * P(own correct),
    conditioning on the receiver's own draw when it votes.
    """
    if doc.get("drift") or doc["error_model"]["kind"] != "quality_mapped":
        raise ValueError("exact_accuracies needs a static quality-mapped scenario")
    if doc.get("topology", {"mode": "full_broadcast"})["mode"] != "full_broadcast":
        raise ValueError("exact_accuracies needs full broadcast")
    ids = sorted(doc["agents"])
    vectors = [[float(v) for v in doc["agents"][a]] for a in ids]
    smaller = [f["direction"] == "smaller_is_better" for f in doc["schema"]]
    n = len(ids)

    def dominates(u: list[float], v: list[float]) -> bool:
        return u != v and all(
            (a <= b) if s else (a >= b) for a, b, s in zip(u, v, smaller)
        )

    experts = [
        frozenset(j for j in range(n) if dominates(vectors[j], vectors[i])) for i in range(n)
    ]
    p_min = float(doc["error_model"]["p_min"])
    p_max = float(doc["error_model"]["p_max"])
    pool = max(1, n - 1)
    error = [p_min + (p_max - p_min) * (len(experts[i]) / pool) for i in range(n)]

    def frontier(members: set[int]) -> set[int]:
        return {a for a in members if not (experts[a] & members)}

    def voters(rule: str, receiver: int) -> set[int]:
        everyone = set(range(n))
        if rule == "most-expert":
            return frontier(everyone)
        if rule == "majority":
            return everyone
        match = _SUBGROUP_RE.fullmatch(rule)
        if match is None:
            raise ValueError(f"unknown rule {rule!r}")
        remaining = set(experts[receiver])
        if not remaining:
            return {receiver}  # no experts: the receiver keeps its own belief
        chosen: set[int] = set()
        for _ in range(int(match.group(1))):
            if not remaining:
                break
            layer = frontier(remaining)
            chosen |= layer
            remaining -= layer
        if match.group(2):
            chosen.add(receiver)
        return chosen

    def correct_counts(members) -> list[float]:
        dist = [1.0]
        for v in members:
            q = 1.0 - error[v]
            nxt = [0.0] * (len(dist) + 1)
            for k, mass in enumerate(dist):
                nxt[k] += mass * (1.0 - q)
                nxt[k + 1] += mass * q
            dist = nxt
        return dist

    result = {}
    for rule in doc["rules"]:
        total = 0.0
        for r in range(n):
            group = voters(rule, r)
            m = len(group)
            own = 1.0 - error[r]
            if r in group:
                others = correct_counts(v for v in group if v != r)
                total += own * sum(x for k, x in enumerate(others) if 2 * (k + 1) >= m)
                total += (1.0 - own) * sum(x for k, x in enumerate(others) if 2 * k > m)
            else:
                dist = correct_counts(group)
                total += sum(x for k, x in enumerate(dist) if 2 * k > m)
                total += own * sum(x for k, x in enumerate(dist) if 2 * k == m)
        result[rule] = total / n
    return result


def check_oracle_outputs(printed: dict[str, str], doc: dict) -> list[str]:
    """Compare printed oracle accuracies with :func:`exact_accuracies`."""
    problems = []
    expected = exact_accuracies(doc)
    if sorted(printed) != sorted(expected):
        return [f"oracle printed rules {sorted(printed)}, expected {sorted(expected)}"]
    for rule, value in expected.items():
        got = float(printed[rule])
        if abs(got - value) > ORACLE_TOLERANCE:
            problems.append(f"oracle accuracy for {rule}: {got!r}, independent value {value!r}")
    return problems


def compare_accuracies(printed: dict[str, str], recorded: dict[str, str]) -> list[str]:
    """Compare printed oracle accuracies with the recorded references."""
    if sorted(printed) != sorted(recorded):
        return [f"oracle printed rules {sorted(printed)}, references have {sorted(recorded)}"]
    return [
        f"oracle accuracy for {rule}: {printed[rule]}, reference {recorded[rule]}"
        for rule in recorded
        if abs(float(printed[rule]) - float(recorded[rule])) > REFERENCE_TOLERANCE
    ]


def main(argv: list[str]) -> int:
    """``checks.py OUT_DIR SCENARIO``: print the run's problems as a JSON list."""
    import beliefsim

    src = Path(__file__).resolve().parent.parent / "src"
    problems = []
    if Path(beliefsim.__file__).resolve().parent != src / "beliefsim":
        problems.append(f"imported beliefsim from {beliefsim.__file__}, not from {src}")
    problems += check_run_outputs(Path(argv[0]), Path(argv[1]))
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
