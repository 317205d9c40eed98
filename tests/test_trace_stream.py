"""`beliefsim run` writes trace.jsonl in blocks of whole (trial, step) points.

A block may cut a trial between its steps, never a point between its
rules. Every full block holds TRACE_BLOCK_BYTES // (the run's longest
point) points, so a block of more than one point stays within
TRACE_BLOCK_BYTES. The streamed file must equal the whole run rendered
at once and the record path (TraceRecord.to_dict + json.dumps) at every
block boundary, and the manifest must count what was written. The writer
must not hold the whole text, nor more than a block's points of 200-agent
text, and it renders each (step, raw row)'s line tails once and keeps
none after the last block.
"""

import json
import random
import tracemalloc
from dataclasses import replace

import pytest
import yaml

from beliefsim import run, simulator, trace_to_jsonl
from beliefsim.cli import main
from beliefsim.scenario_io import parse_scenario, read_scenario
from beliefsim.simulator import trace_blocks

from test_byte_pins import MIXED_SCENARIO, crowd_scenario


def _mixed_block() -> int:
    """The points in a full block of the mixed scenario's trace, as trace_blocks cuts it."""
    scenario = replace(parse_scenario(yaml.safe_load(MIXED_SCENARIO)), trials=100)
    first = next(trace_blocks(run(scenario)[0]))
    return len(first.records) // len(scenario.rules)


BLOCK = _mixed_block()
STEPS = 4  # the mixed scenario's steps: a trial is STEPS points
TRIALS = BLOCK // STEPS  # the whole trials that fit in a block


@pytest.fixture
def mixed(tmp_path):
    path = tmp_path / "mixed.scn"
    path.write_text(MIXED_SCENARIO, encoding="utf-8")
    return path


def _run_cli(scenario, trials, out, *flags):
    argv = ["run", str(scenario), "--trials", str(trials), *flags, "--out-dir", str(out)]
    assert main(argv) == 0
    return out


# Runs of the whole trials that fit in one block, one trial fewer, one more (its
# last trial cut between two blocks unless BLOCK is a multiple of STEPS), and the
# trials that two blocks' points hold. 33 trials is a fixed many-block case: it
# spans several blocks whatever size trace_blocks cuts, so the run is checked
# past the first two boundaries too. 7, 8, 9 and 17 are the same four cases
# for a block of 34 points; fixed, they keep their ids when block sizing moves.
@pytest.mark.parametrize(
    "trials",
    sorted(
        {1, max(TRIALS - 1, 1), max(TRIALS, 1), TRIALS + 1, 2 * BLOCK // STEPS}
        | {7, 8, 9, 17, 33}
    ),
)
def test_streamed_trace_equals_whole_and_record_renderings(trials, mixed, tmp_path, capsys):
    out = _run_cli(mixed, trials, tmp_path / "out")
    streamed = (out / "trace.jsonl").read_text(encoding="utf-8")

    trace = run(replace(read_scenario(mixed), trials=trials))[0]
    whole = trace_to_jsonl(trace)
    # A second rendering finds the tails of the first dropped and renders them again.
    again = "".join(map(trace_to_jsonl, trace_blocks(trace)))
    reference = "".join(
        json.dumps(record.to_dict(), separators=(",", ":")) + "\n" for record in trace.records
    )
    assert streamed == whole == again == reference
    assert not trace.records._tails


def test_blocks_render_each_row_once_and_keep_no_tail(scenario_dir, monkeypatch):
    # 100 intersection trials repeat raw rows across blocks.
    scenario = replace(read_scenario(scenario_dir / "intersection.scn"), trials=100)
    trace = run(scenario)[0]
    rendered = []
    render = simulator._RunRecords._render

    def counted(self, *key):
        rendered.append(key)
        return render(self, *key)

    monkeypatch.setattr(simulator._RunRecords, "_render", counted)
    for block in trace_blocks(trace):
        trace_to_jsonl(block)
    distinct = {(step, raw) for row in trace.records._rows for step, raw in enumerate(row)}
    assert sorted(rendered) == sorted(distinct) and len(distinct) < 100 * 3
    assert not trace.records._tails


def test_a_partial_rendering_leaves_no_row_to_render_twice(scenario_dir, monkeypatch):
    # A middle block rendered alone stops short of the last trial, so the
    # whole rendering after it must reuse the tails it kept.
    scenario = replace(read_scenario(scenario_dir / "intersection.scn"), trials=100)
    trace = run(scenario)[0]
    rendered = []
    render = simulator._RunRecords._render

    def counted(self, *key):
        rendered.append(key)
        return render(self, *key)

    monkeypatch.setattr(simulator._RunRecords, "_render", counted)
    blocks = list(trace_blocks(trace))
    assert len(blocks) > 2
    trace_to_jsonl(blocks[1])
    records = trace.records
    assert all(records._uses[key] > 1 for key in records._tails)
    rendered.clear()
    whole = trace_to_jsonl(trace)
    reference = "".join(
        json.dumps(record.to_dict(), separators=(",", ":")) + "\n" for record in records
    )
    assert whole == reference
    assert len(rendered) == len(set(rendered))
    assert not records._tails


def test_manifest_counts_the_written_trace(mixed, tmp_path, capsys):
    out = _run_cli(mixed, 2 * BLOCK + 1, tmp_path / "out")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    trace = (out / "trace.jsonl").read_bytes()
    assert manifest["records"] == trace.count(b"\n") == (2 * BLOCK + 1) * 4 * 3
    assert manifest["trace_bytes"] == len(trace)


def test_trials_share_their_step_memo_rows(scenario_dir, tmp_path, capsys):
    # 20,000 intersection trials have 60,000 points but few distinct raw rows.
    # A trial that keeps its own tuple per step holds 60,000 equal tuples, and
    # the run peaks at 4.44 MiB; rows that reference the memo's entries peak
    # at 1.71 MiB.
    tracemalloc.start()
    try:
        _run_cli(scenario_dir / "intersection.scn", 20000, tmp_path / "out", "--seed", "42")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_writing_the_trace_holds_no_whole_copy(scenario_dir, tmp_path, capsys):
    # The 2,000-trial trace is about 7 MB; held whole, with its encoded copy,
    # the peak would be about 14 MB.
    tracemalloc.start()
    try:
        _run_cli(scenario_dir / "intersection.scn", 2000, tmp_path / "out", "--seed", "42")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _peak_of_run(doc, trials, out) -> int:
    """The tracemalloc peak, in bytes, of `beliefsim run` on a scenario document."""
    scenario = out.parent / "scenario.scn"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        _run_cli(scenario, trials, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_block_of_200_agent_trials_is_capped_by_size(tmp_path, capsys):
    # A 200-agent trial here is one point of about 360 kB of text, so blocks of
    # BLOCK points would hold about 12 MB beside its encoded copy. Blocks capped
    # near TRACE_BLOCK_BYTES hold one point each. With each contributors map
    # built into the lines of a point, this peaks at 1.00 MiB; with every
    # (step, rule)'s map kept for the whole rendering, it peaked at 1.27 MiB.
    doc = json.loads(crowd_scenario("full_broadcast"))
    doc.update(steps=1, drift=[])
    assert _peak_of_run(doc, 2 * BLOCK + 1, tmp_path / "out") < 1.15 * 2**20


def test_a_200_agent_drifting_run_holds_one_point_of_text(tmp_path, capsys):
    # The shape of the benchmark's crowd-drift workload: 200 agents, 4 steps
    # with drift on every step after the first, 2 trials, 3 rules. A point
    # renders about 330 kB of text, 290 kB of it majority's contributors map.
    # Blocks of one point peak at 1.67 MiB here; blocks of whole trials, with
    # every (step, rule)'s contributors map kept, peaked at 4.17 MiB.
    doc = json.loads(crowd_scenario("full_broadcast"))
    rng = random.Random("crowd-drift-shape")
    features = [feature["name"] for feature in doc["schema"]]
    doc.update(
        steps=4,
        drift=[
            {"agent": agent, "feature": rng.choice(features), "step": step,
             "value": float(rng.randrange(7))}
            for step in (1, 2, 3)
            for agent in rng.sample(sorted(doc["agents"]), 2)
        ],
        rules=["most-expert", "majority", "subgroup:d=2,self"],
    )
    assert _peak_of_run(doc, 2, tmp_path / "out") < 2.5 * 2**20


# The graph crowd has 200 agents on a graph topology, drifting at steps 1 and 2.
@pytest.mark.parametrize("block_bytes", [1, 512, 2**12, 2**16])
@pytest.mark.parametrize(
    "text, trials",
    [(MIXED_SCENARIO, 20), (crowd_scenario("graph"), 2)],
    ids=["mixed", "graph-crowd"],
)
def test_every_block_size_cuts_at_points(block_bytes, text, trials, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(simulator, "TRACE_BLOCK_BYTES", block_bytes)
    path = tmp_path / "scenario.scn"
    path.write_text(text, encoding="utf-8")
    scenario = replace(read_scenario(path), trials=trials)
    trace = run(scenario)[0]
    records = trace.records
    rendered = []
    render = simulator._RunRecords._render

    def counted(self, *key):
        rendered.append(key)
        return render(self, *key)

    monkeypatch.setattr(simulator._RunRecords, "_render", counted)
    blocks = list(trace_blocks(trace))
    texts = list(map(trace_to_jsonl, blocks))
    distinct = {(step, raw) for row in records._rows for step, raw in enumerate(row)}
    assert sorted(rendered) == sorted(distinct)
    assert not records._tails
    assert all(len(block.records) % len(scenario.rules) == 0 for block in blocks)
    # Only a block of one point may pass the cap.
    assert all(
        len(text.encode("utf-8")) <= block_bytes
        for block, text in zip(blocks, texts)
        if len(block.records) > len(scenario.rules)
    )
    # Every size here cuts some trial between two blocks.
    assert any(block.records._points.start % scenario.steps for block in blocks)

    reference = "".join(
        json.dumps(record.to_dict(), separators=(",", ":")) + "\n" for record in records
    )
    assert "".join(texts) == trace_to_jsonl(trace) == reference
    out = _run_cli(path, trials, tmp_path / "out")
    written = (out / "trace.jsonl").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert written == reference.encode("utf-8")
    assert manifest["records"] == written.count(b"\n") == len(records)
    assert manifest["trace_bytes"] == len(written)


def _worst_point(records) -> int:
    """The longest point's text: each step's lines for an all-false row at the last trial."""
    props, rules = len(records._plan.propositions), len(records._plan.steps[0].rules)
    false = (0,) * props
    head = '{"trial":' + str(len(records._rows) - 1)
    return max(
        sum(len(head) + len(line) for line in records._render(step, (false, ((false, false),) * rules)))
        for step in range(len(records._plan.steps))
    )


@pytest.mark.parametrize("name", ["intersection", "mixed", "graph-crowd"])
def test_a_full_block_holds_the_cap_over_the_worst_point(name, scenario_dir, monkeypatch):
    if name == "intersection":
        scenario = replace(read_scenario(scenario_dir / "intersection.scn"), trials=2000)
    else:
        text, trials = (MIXED_SCENARIO, 20) if name == "mixed" else (crowd_scenario("graph"), 2)
        scenario = replace(parse_scenario(yaml.safe_load(text)), trials=trials)
    trace = run(scenario)[0]
    worst = _worst_point(trace.records)
    # Caps just below and at three worst points pin the bound to the byte.
    for block_bytes in (512, 2**12, 2**16, 3 * worst - 1, 3 * worst):
        monkeypatch.setattr(simulator, "TRACE_BLOCK_BYTES", block_bytes)
        sizes = [len(block.records) // len(scenario.rules) for block in trace_blocks(trace)]
        size = max(1, block_bytes // worst)
        assert sizes[:-1] == [size] * (len(sizes) - 1) and 0 < sizes[-1] <= size
        assert sum(sizes) == scenario.trials * scenario.steps
