"""Per-layer tracing for the beliefsim benchmark, from outside the program.

The tracer wraps each layer's public functions where the calling module
binds them (``simulator.observe``, ``lattice.build``, ``cli.trace_to_jsonl``
and so on), so the program's own code is unchanged. Layer boundaries become
spans kept in memory; hot leaf functions (draws, Pareto comparisons,
frontier queries, per-receiver rule evaluations) are kept as counts plus
busy time, because a span per call would cost more than the call.

Run as a script, it executes one beliefsim CLI command under the tracer
and writes the summary as JSON::

    python3 bench/tracer.py SUMMARY.json run scenario.scn --out-dir out

beliefsim must be importable (the benchmark puts the checkout's ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    """One call of a traced layer function; `parent` indexes the enclosing span."""

    name: str
    parent: int | None
    start: float
    end: float
    leaf_s: float  # busy time of leaf calls made directly inside this span


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name.

    A span's self time is its duration minus the time its child spans and
    its leaf calls cover. Inclusive time counts only the outermost span of
    a name, so a layer that re-enters itself is not counted twice.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    result: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for i, span in enumerate(spans):
        duration = span.end - span.start
        entry = result[span.name]
        entry["calls"] += 1
        entry["self_s"] += duration - child_s[i] - span.leaf_s
        if not _inside(spans, span.parent, span.name):
            entry["total_s"] += duration
    return dict(result)


def _inside(spans: list[Span], index: int | None, name: str) -> bool:
    while index is not None:
        if spans[index].name == name:
            return True
        index = spans[index].parent
    return False


class Tracer:
    """Collects spans, leaf counts and busy times, and distinct-key sets."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.leaf_calls: Counter[str] = Counter()
        self.leaf_busy: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self._open: list[list] = []  # [span index, leaf seconds] of each open span

    def span(
        self,
        name: str,
        fn: Callable,
        on_call: Callable[..., None] | None = None,
        on_return: Callable[[Any], None] | None = None,
    ) -> Callable:
        """Wrap `fn` so that each call records a span called `name`."""

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            parent = self._open[-1][0] if self._open else None
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot: children index their parent
            frame = [index, 0.0]
            self._open.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[index] = Span(name, parent, start, end, frame[1])
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def leaf(
        self,
        name: str,
        fn: Callable,
        timed: bool = True,
        key: Callable[..., Any] | None = None,
    ) -> Callable:
        """Wrap a hot function: count its calls and, if `timed`, its busy time."""

        def wrapper(*args, **kwargs):
            self.leaf_calls[name] += 1
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            if not timed:
                return fn(*args, **kwargs)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self.leaf_busy[name] += elapsed
                if self._open:
                    self._open[-1][1] += elapsed

        return wrapper

    def summary(self) -> dict:
        return {
            "spans": layer_times(self.spans),
            "leaves": {
                name: {"calls": calls, "busy_s": self.leaf_busy.get(name, 0.0)}
                for name, calls in self.leaf_calls.items()
            },
            "counters": dict(self.counters),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


def _lattice_key(lattice) -> tuple:
    return tuple((node.id, node.quality.values) for node in lattice.nodes)


def install(tracer: Tracer) -> Callable:
    """Patch beliefsim's layer boundaries; return the traced ``cli.main``."""
    from beliefsim import beliefs, cli, lattice, oracle, rules, scenario_io, simulator

    def bind(wrapper: Callable, *sites: tuple[Any, str]) -> None:
        for module, attr in sites:
            setattr(module, attr, wrapper)

    def count_records(result) -> None:
        tracer.counters["records"] += len(result[0].records)

    def count_trace_bytes(text: str) -> None:
        tracer.counters["trace_bytes"] += len(text.encode("utf-8"))

    def count_enumeration(scenario) -> None:
        n = len(scenario.agents)
        tracer.counters["enumerated_outcomes"] += 2**n * n * len(scenario.rules)

    def note_step_lattices(lattices) -> None:
        tracer.keys["step_lattices"].update(_lattice_key(lat) for lat in lattices)

    bind(
        tracer.span("scenario_io.load_scenario", cli.load_scenario),
        (cli, "load_scenario"),
    )
    bind(
        tracer.span("simulator.run", cli.run, on_return=count_records),
        (cli, "run"),
    )
    bind(
        tracer.span("simulator.trace_to_jsonl", cli.trace_to_jsonl, on_return=count_trace_bytes),
        (cli, "trace_to_jsonl"),
    )
    bind(
        tracer.span("oracle.exact_rule_accuracy", cli.exact_rule_accuracy, on_call=count_enumeration),
        (cli, "exact_rule_accuracy"),
    )
    bind(
        tracer.span("oracle.check_oracle_domain", oracle.check_oracle_domain),
        (oracle, "check_oracle_domain"),
    )
    bind(
        tracer.span("simulator.validate_scenario", simulator.validate_scenario),
        (simulator, "validate_scenario"),
        (scenario_io, "validate_scenario"),
        (oracle, "validate_scenario"),
    )
    bind(
        tracer.span("simulator.lattices_by_step", simulator.lattices_by_step, on_return=note_step_lattices),
        (simulator, "lattices_by_step"),
        (oracle, "lattices_by_step"),
        (cli, "lattices_by_step"),
    )
    # update_quality/insert/remove reach build through the lattice module.
    bind(tracer.span("lattice.build", lattice.build), (simulator, "build"), (lattice, "build"))
    bind(tracer.span("beliefs.observe", simulator.observe), (simulator, "observe"))
    bind(tracer.span("rules.apply_rule", simulator.apply_rule), (simulator, "apply_rule"))
    bind(
        tracer.span("simulator.compute_metrics", simulator.compute_metrics),
        (simulator, "compute_metrics"),
    )

    bind(tracer.leaf("features.compare", lattice.compare, timed=False), (lattice, "compare"))
    bind(tracer.leaf("beliefs.draw", beliefs.RandomStream.uniform), (beliefs.RandomStream, "uniform"))
    bind(
        tracer.leaf("lattice.maximal_frontier", lattice.DominanceLattice.maximal_frontier),
        (lattice.DominanceLattice, "maximal_frontier"),
    )
    # Each per-receiver rule function computes one voter set; its key is
    # (step, rule, receiver), since voters depend only on the step's lattice.
    bind(
        tracer.leaf(
            "rules.receiver_eval",
            rules.apply_most_expert,
            timed=False,
            key=lambda lat, profile, topology, receiver: (profile.step, "most-expert", receiver),
        ),
        (rules, "apply_most_expert"),
    )
    bind(
        tracer.leaf(
            "rules.receiver_eval",
            rules.apply_majority,
            timed=False,
            key=lambda profile, receiver: (profile.step, "majority", receiver),
        ),
        (rules, "apply_majority"),
    )
    bind(
        tracer.leaf(
            "rules.receiver_eval",
            rules.apply_subgroup_expert,
            timed=False,
            key=lambda lat, profile, topology, receiver, depth, include_self: (
                profile.step,
                f"subgroup:{depth},{include_self}",
                receiver,
            ),
        ),
        (rules, "apply_subgroup_expert"),
    )
    return tracer.span("cli", cli.main)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SUMMARY.json CLI-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    traced_main = install(tracer)
    code = traced_main(argv[1:])
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
