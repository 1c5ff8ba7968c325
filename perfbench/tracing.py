"""Span tracing of the program's layers, from outside the program.

:func:`install` wraps each layer's public entry points (listed in
:data:`ENTRY_POINTS`) so that every call made while an op is being
traced records one span: name, start, end, parent span and op id.  The
wrappers are installed before a traced round builds its network and
removed after it closes, so untraced rounds run the program unmodified.
Nothing under ``src/`` changes.

Spans stay in memory (flat ``array`` columns) and are written out when
the run ends.  A span's self time is its duration minus the time its
direct children cover; single-threaded execution nests spans strictly.
Each op's root span (``op``) covers the client call and the settle, so
``op`` self time is the part of an op no wrapped entry point explains.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
import types
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, qualified name, result counter).  ``Class.*`` wraps
#: every public plain method of the class.  A result counter maps the
#: call's return value to an amount added to the entry point's tally.
ENTRY_POINTS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("runtime", "repro.sim.engine", "Simulator.step", None),
    ("runtime", "repro.sim.network", "Link.send", None),
    ("runtime", "repro.runtime.aio", "AioChannel.send", None),
    ("runtime", "repro.runtime.aio", "AioRuntime.settle", None),
    ("messages", "repro.messages.wire", "encode_frame", len),
    ("messages", "repro.messages.wire", "decode_message", None),
    ("dispatch.match", "repro.dispatch.plan", "DispatchPlan.match", None),
    ("dispatch.update", "repro.dispatch.predicate_index", "PredicateIndex.add", None),
    ("dispatch.update", "repro.dispatch.predicate_index", "PredicateIndex.remove", None),
    ("dispatch.update", "repro.dispatch.plan", "DispatchPlan.rebuild", None),
    ("filters", "repro.filters.covering_cache", "minimal_cover_set_cached", None),
    ("filters", "repro.filters.covering_cache", "CoveringCache.covers", None),
    ("filters", "repro.filters.covering", "filter_covers", None),
    ("routing", "repro.routing.table", "RoutingTable.add", int),
    ("routing", "repro.routing.table", "RoutingTable.remove", int),
    ("routing", "repro.routing.table", "RoutingTable.remove_subject", len),
    ("broker.receive", "repro.broker.base", "Broker.receive", None),
    ("broker.receive", "repro.broker.base", "Broker.receive_batch", None),
    ("broker.refresh", "repro.broker.base", "Broker.refresh_forwarding", None),
    ("broker.client", "repro.broker.client", "Client.deliver", None),
    ("broker.client", "repro.broker.client", "Client.publish", None),
    ("core", "repro.core.physical", "VirtualCounterpart.*", None),
    ("core", "repro.core.physical", "RelocationBuffer.*", None),
    ("core", "repro.core.logical", "LogicalSubscriptionState.*", None),
    ("core", "repro.broker.base", "Broker.client_moved_subscribe", None),
    ("core", "repro.broker.base", "Broker.client_set_location", None),
    ("runtime.trace", "repro.runtime.trace", "TraceRecorder.record_link", None),
    ("runtime.trace", "repro.runtime.trace", "TraceRecorder.record_delivery", None),
    ("runtime.trace", "repro.runtime.trace", "TraceRecorder.record_publish", None),
]

ROOT = "op"
SEND_SPANS = ("Link.send", "AioChannel.send")
REFRESH_SPAN = "Broker.refresh_forwarding"


class SpanRecorder:
    """In-memory span store plus per-entry-point result tallies."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT]
        self.layers: List[str] = ["op"]
        self._name_ids: Dict[str, int] = {ROOT: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.tally: Counter = Counter()
        self.stack: List[int] = [-1]
        #: Id of the op being traced; 0 while no op is (spans are skipped).
        self.op = 0
        self._ops = 0

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def begin_op(self) -> None:
        self._ops += 1
        self.op = self._ops
        index = len(self.span_name)
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self.stack.append(index)
        self.span_start.append(time.perf_counter_ns())

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        self.span_end[self.stack.pop()] = end
        self.op = 0

    # -- analysis ---------------------------------------------------------------
    def self_times(self) -> List[int]:
        """Self time (ns) of every span: duration minus direct children's."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [end - start for start, end in zip(starts, ends)]
        children = [0] * len(own)
        for index, parent in enumerate(parents):
            if parent >= 0:
                children[parent] += own[index]
        return [duration - covered for duration, covered in zip(own, children)]

    def productive_refreshes(self) -> Tuple[int, int]:
        """(refreshes that sent at least one message, all refreshes)."""
        refresh_id = self._name_ids.get(REFRESH_SPAN)
        send_ids = {self._name_ids[name] for name in SEND_SPANS if name in self._name_ids}
        if refresh_id is None:
            return 0, 0
        names, parents = self.span_name, self.span_parent
        productive = set()
        for index, name in enumerate(names):
            if name not in send_ids:
                continue
            parent = parents[index]
            while parent >= 0 and names[parent] != refresh_id:
                parent = parents[parent]
            if parent >= 0:
                productive.add(parent)
        total = sum(1 for name in names if name == refresh_id)
        return len(productive), total

    def write(self, path) -> None:
        """Write every span as tab-separated text (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for index, name in enumerate(self.span_name):
                out.write(
                    "{}\t{}\t{}\t{}\t{}\t{}\n".format(
                        self.span_op[index],
                        index,
                        self.span_parent[index],
                        self.names[name],
                        self.span_start[index],
                        self.span_end[index],
                    )
                )


def _wrap(recorder: SpanRecorder, name_id: int, function: Callable, count: Optional[Callable]):
    """A wrapper recording one span per call while an op is traced."""
    perf = time.perf_counter_ns
    stack = recorder.stack
    names, parents, ops = recorder.span_name, recorder.span_parent, recorder.span_op
    starts, ends = recorder.span_start, recorder.span_end
    tally = recorder.tally

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.op:
            return function(*args, **kwargs)
        start = perf()
        index = len(names)
        names.append(name_id)
        parents.append(stack[-1])
        ops.append(recorder.op)
        starts.append(start)
        ends.append(0)
        stack.append(index)
        try:
            result = function(*args, **kwargs)
        finally:
            stack.pop()
            ends[index] = perf()
        if count is not None:
            tally[name_id] += count(result)
        return result

    return wrapper


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every entry point; returns the function that unwraps them all.

    A module-level function is replaced in its defining module and in
    every loaded ``repro`` module that imported it by name.
    """
    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, name: str, layer: str, count) -> None:
        original = owner.__dict__[attribute]
        wrapped = _wrap(recorder, recorder.name_id(name, layer), original, count)
        undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)
        if isinstance(owner, types.ModuleType):
            for module_name, module in list(sys.modules.items()):
                if (
                    module is not owner
                    and module_name.startswith("repro")
                    and getattr(module, attribute, None) is original
                ):
                    undo.append((module, attribute, original))
                    setattr(module, attribute, wrapped)

    for layer, module_name, qualified, count in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." not in qualified:
            patch(module, qualified, qualified, layer, count)
            continue
        class_name, method = qualified.split(".")
        cls = getattr(module, class_name)
        methods = (
            [
                attribute
                for attribute, value in vars(cls).items()
                if isinstance(value, types.FunctionType) and not attribute.startswith("_")
            ]
            if method == "*"
            else [method]
        )
        for attribute in methods:
            patch(cls, attribute, "{}.{}".format(class_name, attribute), layer, count)

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
