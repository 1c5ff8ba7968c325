"""Repo benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload publish-fanout --seed 1 --seconds 30 --trace 0

Workloads: ``publish-fanout``, ``subscription-churn``, ``roaming`` (see
``perfbench/workloads.py`` and ``perfbench/NOTES.md``).  The run is a
closed loop driven by one client from a single thread: each op is
applied and settled before the next is issued, and the two are timed
together.

A run is a warm-up round followed by ``--seconds`` worth of measured
rounds, counted in each workload's nominal round time so that every run
does the same work.  Each round builds the network from scratch (one
``setup_s`` sample; build-only samples are added up to three), runs a
fixed number of freshly generated ops, checks every delivery against
the oracle, and tears the network down.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` alternates
traced and untraced rounds and prints the per-layer metrics of the
traced ones, plus the tracing overhead; it fails when the op's own span
(time no wrapped layer explains) exceeds 10% of op time.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when that line was printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
MIN_SETUPS = 3
MAX_OP_SELF_SHARE = 0.10


class GcMonitor:
    """``gc.callbacks`` hook: pause time and collections per generation.

    Counts only while :attr:`active` (the timed part of ops).
    """

    def __init__(self) -> None:
        self.active = False
        self.pause_ns = 0
        self.collections: Counter = Counter()
        self._started = 0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if not self.active:
            return
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._started
            self.collections[info["generation"]] += 1

    def snapshot(self):
        return self.pause_ns, Counter(self.collections)


@dataclass
class Failure:
    op_index: int
    op: str
    reasons: Counter

    def describe(self) -> str:
        return "op {} ({}): {}".format(
            self.op_index,
            self.op,
            ", ".join("{} x{}".format(reason, n) for reason, n in sorted(self.reasons.items())),
        )


@dataclass
class RoundResult:
    traced: bool
    setup_s: float
    op_ns: List[int]
    deliveries: int
    messages: int
    duplicates: int
    replays: int
    fetches: int
    failures: List[Failure]
    disagreements: List[str]
    gc_pause_ns: int
    gc_collections: Counter
    constraint_evals: int
    cache_hits: int
    cache_lookups: int
    properties: Dict[str, float]

    @property
    def ops(self) -> int:
        return len(self.op_ns)

    @property
    def op_seconds(self) -> float:
        return sum(self.op_ns) / 1e9


def run_round(workload, round_name: str, count: int, gc_monitor: GcMonitor, recorder=None):
    """Build, run *count* ops, verify, tear down."""
    from oracle import DeliveryOracle, cross_check
    from repro.filters.covering_cache import get_covering_cache
    import tracing

    ops = workload.ops(round_name, count)
    uninstall = tracing.install(recorder) if recorder is not None else None
    try:
        gc.collect()
        started = time.perf_counter()
        session = workload.build()
        setup_s = time.perf_counter() - started
        try:
            oracle = DeliveryOracle(session, workload.sample_keys())
            network = session.network
            evals_before = network.data_plane_breakdown()["constraint_evals"]
            cache = get_covering_cache().stats()
            gc_before = gc_monitor.snapshot()
            op_ns: List[int] = []
            failures: List[Failure] = []
            for index, op in enumerate(ops):
                workload.note(session, op)
                error = None
                if recorder is not None:
                    recorder.begin_op()
                gc_monitor.active = True
                started_ns = time.perf_counter_ns()
                try:
                    workload.apply(session, op)
                except Exception as exc:  # an op that raises is a failed op
                    traceback.print_exc()
                    error = "raised {!r}".format(exc)
                elapsed_ns = time.perf_counter_ns() - started_ns
                gc_monitor.active = False
                if recorder is not None:
                    recorder.end_op()
                op_ns.append(elapsed_ns)
                reasons = oracle.check_op(op)
                if error is not None:
                    reasons[error] += 1
                if reasons:
                    failures.append(Failure(index, op.describe(), reasons))
                workload.between_ops(session)
            gc_after = gc_monitor.snapshot()
            cache_after = get_covering_cache().stats()
            evals = network.data_plane_breakdown()["constraint_evals"] - evals_before
            disagreements = cross_check(oracle, session)
        finally:
            session.network.close()
    finally:
        if uninstall is not None:
            uninstall()
    hits = cache_after["hits"] - cache["hits"]
    misses = cache_after["misses"] - cache["misses"]
    return RoundResult(
        traced=recorder is not None,
        setup_s=setup_s,
        op_ns=op_ns,
        deliveries=oracle.deliveries,
        messages=oracle.messages,
        duplicates=oracle.duplicates,
        replays=oracle.replays,
        fetches=oracle.fetches,
        failures=failures,
        disagreements=disagreements,
        gc_pause_ns=gc_after[0] - gc_before[0],
        gc_collections=gc_after[1] - gc_before[1],
        constraint_evals=evals,
        cache_hits=hits,
        cache_lookups=hits + misses,
        properties=workload.input_properties(ops),
    )


def percentile(sorted_values: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(rounds: List[RoundResult], setups: List[float]) -> Dict[str, float]:
    samples = sorted(ns / 1e6 for result in rounds for ns in result.op_ns)
    ops = sum(result.ops for result in rounds)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(result.ops / result.op_seconds for result in rounds),
        "op_ms_p50": percentile(samples, 0.50),
        "op_ms_p99": percentile(samples, 0.99),
        "deliveries_per_s": statistics.median(
            result.deliveries / result.op_seconds for result in rounds
        ),
        "messages_per_op": sum(result.messages for result in rounds) / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


#: The declared end-to-end metrics.  ``failed_share`` is printed too, but
#: it is 0 on two workloads and rides in the result line as
#: ``failed``/``attempted`` instead.
UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "deliveries_per_s": "1/s",
    "messages_per_op": "msg/op",
    "peak_rss_mb": "MB",
}


def per_layer(rounds: List[RoundResult], recorder) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds (times and counts per op)."""
    ops = sum(result.ops for result in rounds)
    op_ns = sum(sum(result.op_ns) for result in rounds)
    self_ns = recorder.self_times()
    layer_ns: Counter = Counter()
    calls: Counter = Counter()
    for index, name in enumerate(recorder.span_name):
        layer_ns[recorder.layers[name]] += self_ns[index]
        calls[recorder.names[name]] += 1
    tally = Counter({recorder.names[name_id]: n for name_id, n in recorder.tally.items()})
    deliveries = sum(result.deliveries for result in rounds)
    evals = sum(result.constraint_evals for result in rounds)
    lookups = sum(result.cache_lookups for result in rounds)
    fetches = sum(result.fetches for result in rounds)
    productive, refreshes = recorder.productive_refreshes()
    gc_collections: Counter = Counter()
    for result in rounds:
        gc_collections.update(result.gc_collections)

    def per_op(value: float) -> float:
        return value / ops

    metrics = {
        "runtime.self_s": per_op(layer_ns["runtime"] / 1e9),
        "runtime.events": per_op(
            calls["Simulator.step"] + calls["Link.send"] + calls["AioChannel.send"]
        ),
        "messages.self_s": per_op(layer_ns["messages"] / 1e9),
        "messages.frames": per_op(calls["encode_frame"]),
        "messages.bytes": per_op(tally["encode_frame"]),
        "dispatch.match.self_s": per_op(layer_ns["dispatch.match"] / 1e9),
        "dispatch.match.calls": per_op(calls["DispatchPlan.match"]),
        "dispatch.constraint_evals": per_op(evals),
        "dispatch.deliveries_per_eval": deliveries / evals if evals else 0.0,
        "dispatch.update.self_s": per_op(layer_ns["dispatch.update"] / 1e9),
        "filters.self_s": per_op(layer_ns["filters"] / 1e9),
        "filters.covering_calls": per_op(calls["filter_covers"]),
        "filters.cache_hit_ratio": (
            sum(result.cache_hits for result in rounds) / lookups if lookups else 0.0
        ),
        "routing.self_s": per_op(layer_ns["routing"] / 1e9),
        "routing.row_changes": per_op(
            tally["RoutingTable.add"]
            + tally["RoutingTable.remove"]
            + tally["RoutingTable.remove_subject"]
        ),
        "broker.receive.self_s": per_op(layer_ns["broker.receive"] / 1e9),
        "broker.refresh.self_s": per_op(layer_ns["broker.refresh"] / 1e9),
        "broker.refresh.calls": per_op(refreshes),
        "broker.refresh.productive_ratio": productive / refreshes if refreshes else 0.0,
        "broker.client.self_s": per_op(layer_ns["broker.client"] / 1e9),
        "broker.deliveries": per_op(calls["Client.deliver"]),
        "core.self_s": per_op(layer_ns["core"] / 1e9),
        "core.replay_amplification": (
            sum(result.replays for result in rounds) / fetches if fetches else 0.0
        ),
        "core.duplicate_ratio": (
            sum(result.duplicates for result in rounds) / deliveries if deliveries else 0.0
        ),
        "runtime.trace.self_s": per_op(layer_ns["runtime.trace"] / 1e9),
        "runtime.trace.records": per_op(
            calls["TraceRecorder.record_link"]
            + calls["TraceRecorder.record_delivery"]
            + calls["TraceRecorder.record_publish"]
        ),
        "gc.pause_s": per_op(sum(result.gc_pause_ns for result in rounds) / 1e9),
        "gc.collections": per_op(sum(gc_collections.values())),
        "gc.collections.gen2": per_op(gc_collections[2]),
        "op.self_s": per_op(layer_ns["op"] / 1e9),
        "op.self_share": layer_ns["op"] / op_ns,
    }
    return metrics


#: Per-layer metric units: times and counts are per traced op.
PER_LAYER_UNITS = {
    "runtime.self_s": "s/op",
    "runtime.events": "1/op",
    "messages.self_s": "s/op",
    "messages.frames": "1/op",
    "messages.bytes": "B/op",
    "dispatch.match.self_s": "s/op",
    "dispatch.match.calls": "1/op",
    "dispatch.constraint_evals": "1/op",
    "dispatch.deliveries_per_eval": "ratio",
    "dispatch.update.self_s": "s/op",
    "filters.self_s": "s/op",
    "filters.covering_calls": "1/op",
    "filters.cache_hit_ratio": "ratio",
    "routing.self_s": "s/op",
    "routing.row_changes": "1/op",
    "broker.receive.self_s": "s/op",
    "broker.refresh.self_s": "s/op",
    "broker.refresh.calls": "1/op",
    "broker.refresh.productive_ratio": "ratio",
    "broker.client.self_s": "s/op",
    "broker.deliveries": "1/op",
    "core.self_s": "s/op",
    "core.replay_amplification": "ratio",
    "core.duplicate_ratio": "ratio",
    "runtime.trace.self_s": "s/op",
    "runtime.trace.records": "1/op",
    "gc.pause_s": "s/op",
    "gc.collections": "1/op",
    "gc.collections.gen2": "1/op",
    "op.self_s": "s/op",
    "op.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at {}".format(SOURCE), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    # Every import happens here, before any timer starts.
    import oracle  # noqa: F401
    import tracing
    from repro.telemetry import active_telemetry_config
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            "perfbench: unknown workload {!r}; choose from {}".format(
                args.workload, ", ".join(WORKLOADS)
            ),
            file=sys.stderr,
        )
        return 2
    if active_telemetry_config() is not None:
        print("perfbench: telemetry must be off", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    gc_monitor = GcMonitor()
    gc.callbacks.append(gc_monitor)
    try:
        warmup = run_round(workload, "warmup", workload.warmup_ops, gc_monitor)
        # The traced run alternates traced and untraced rounds (at least
        # one of each) of a smaller size: spans are kept in memory.
        recorder = tracing.SpanRecorder() if args.trace else None
        if args.trace:
            size = workload.traced_ops_per_round
            count = max(2, int(args.seconds // workload.traced_round_seconds))
        else:
            size = workload.ops_per_round
            count = max(1, int(args.seconds // workload.round_seconds))
        rounds: List[RoundResult] = []
        for index in range(count):
            traced = recorder is not None and index % 2 == 0
            rounds.append(
                run_round(
                    workload,
                    "round-{}".format(index),
                    size,
                    gc_monitor,
                    recorder if traced else None,
                )
            )
        setups = [result.setup_s for result in rounds]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(time_setup(workload))
    finally:
        gc.callbacks.remove(gc_monitor)
    return report(args, workload, warmup, rounds, setups, recorder)


def time_setup(workload) -> float:
    """One extra ``setup_s`` sample: build, settle, tear down."""
    gc.collect()
    started = time.perf_counter()
    session = workload.build()
    elapsed = time.perf_counter() - started
    session.network.close()
    return elapsed


def report(
    args, workload, warmup: RoundResult, rounds: List[RoundResult], setups: List[float], recorder
) -> int:
    attempted = sum(result.ops for result in rounds)
    failures = [
        (index, failure) for index, result in enumerate(rounds) for failure in result.failures
    ]
    print(
        "workload {} seed {} backend {}: {} rounds (+1 warm-up)".format(
            workload.name, args.seed, workload.backend, len(rounds)
        )
    )
    for index, result in enumerate(rounds):
        print(
            "round {}{}: setup {:.4f} s, {} ops at {:.2f} op/s, gc pause {:.4f} s "
            "in {} gen2 collections".format(
                index,
                " (traced)" if result.traced else "",
                result.setup_s,
                result.ops,
                result.ops / result.op_seconds,
                result.gc_pause_ns / 1e9,
                result.gc_collections[2],
            )
        )
    for name in ("burst_share", "covered_share", "revisit_share"):
        value = statistics.mean(result.properties[name] for result in rounds)
        print("input {} {:.4f}".format(name, value))

    disagreements = [item for result in [warmup] + rounds for item in result.disagreements]
    for item in disagreements:
        print("oracle disagreement: {}".format(item))
    correct = not disagreements

    if args.trace:
        traced = [result for result in rounds if result.traced]
        untraced = [result for result in rounds if not result.traced]
        metrics = per_layer(traced, recorder)
        traced_rate = statistics.median(result.ops / result.op_seconds for result in traced)
        untraced_rate = statistics.median(result.ops / result.op_seconds for result in untraced)
        metrics["trace.overhead_ratio"] = untraced_rate / traced_rate
        units = PER_LAYER_UNITS
        for name in sorted(metrics):
            print("layer {} {:.6g} {}".format(name, metrics[name], units[name]))
        print(
            "tracing overhead: ops_per_s untraced {:.2f}, traced {:.2f} (x{:.3f})".format(
                untraced_rate, traced_rate, untraced_rate / traced_rate
            )
        )
        if metrics["op.self_share"] > MAX_OP_SELF_SHARE:
            correct = False
            print(
                "coverage FAILED: op self time is {:.1%} of op time (limit {:.0%})".format(
                    metrics["op.self_share"], MAX_OP_SELF_SHARE
                )
            )
        out = HERE / "out" / "spans-{}-seed{}.tsv.gz".format(workload.name, args.seed)
        recorder.write(out)
        relative = out.relative_to(HERE.parent)
        print("spans {} written to {}".format(len(recorder.span_name), relative))
    else:
        metrics = end_to_end(rounds, setups)
        units = UNITS
        print("setup samples {}".format(", ".join("{:.4f}".format(value) for value in setups)))
        for name, unit in UNITS.items():
            print("metric {} {:.6g} {}".format(name, metrics[name], unit))
        print("metric failed_share {:.6g} ratio".format(len(failures) / attempted))
        print(
            "op samples {} (beyond p99: {})".format(
                attempted, attempted - math.ceil(0.99 * attempted)
            )
        )
        collections: Counter = Counter()
        for result in rounds:
            collections.update(result.gc_collections)
        print(
            "gc pause {:.4f} s in {} ops; collections gen0/gen1/gen2 {}/{}/{}".format(
                sum(result.gc_pause_ns for result in rounds) / 1e9,
                attempted,
                collections[0],
                collections[1],
                collections[2],
            )
        )
        print(
            "relocation: {} FetchRequest and {} Replay link crossings, {} duplicate "
            "deliveries".format(
                sum(result.fetches for result in rounds),
                sum(result.replays for result in rounds),
                sum(result.duplicates for result in rounds),
            )
        )

    reasons: Counter = Counter()
    for _, failure in failures:
        reasons.update(failure.reasons)
    print(
        "failed ops {} of {}; reasons {}".format(
            len(failures), attempted, dict(sorted(reasons.items())) or "none"
        )
    )
    if warmup.failures:
        print("warm-up: failed ops {} of {} (not counted)".format(len(warmup.failures), warmup.ops))
    for round_index, failure in failures:
        print("failed: round {} {}".format(round_index, failure.describe()))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
