"""`beliefsim run` writes trace.jsonl in blocks of whole trials.

The streamed file must equal the whole run rendered at once and the
record path (TraceRecord.to_dict + json.dumps) at every block boundary,
and the manifest must count what was written. The writer must not hold
the whole text, and it renders each (step, raw row)'s line tails once and
keeps none after the last block.
"""

import json
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
    """The trials in a full block of the mixed scenario's trace, as trace_blocks cuts it."""
    scenario = replace(parse_scenario(yaml.safe_load(MIXED_SCENARIO)), trials=100)
    first = next(trace_blocks(run(scenario)[0]))
    return len(first.records) // (scenario.steps * len(scenario.rules))


BLOCK = _mixed_block()


@pytest.fixture
def mixed(tmp_path):
    path = tmp_path / "mixed.scn"
    path.write_text(MIXED_SCENARIO, encoding="utf-8")
    return path


def _run_cli(scenario, trials, out, *flags):
    argv = ["run", str(scenario), "--trials", str(trials), *flags, "--out-dir", str(out)]
    assert main(argv) == 0
    return out


# 33 trials is a fixed many-block case: it spans several blocks whatever size
# trace_blocks cuts, so the run is checked past the first two boundaries too.
@pytest.mark.parametrize(
    "trials",
    sorted({1, max(BLOCK - 1, 1), BLOCK, BLOCK + 1, 2 * BLOCK + 1, 33}),
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


def test_a_block_of_200_agent_trials_is_capped_by_size(tmp_path, capsys):
    # A 200-agent trial here renders about 360 kB, so blocks of BLOCK trials
    # would hold about 2.9 MB of text beside its encoded copy. Blocks capped
    # near TRACE_BLOCK_BYTES hold one trial each.
    doc = json.loads(crowd_scenario("full_broadcast"))
    doc.update(steps=1, drift=[])
    scenario = tmp_path / "crowd.scn"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        _run_cli(scenario, 2 * BLOCK + 1, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
