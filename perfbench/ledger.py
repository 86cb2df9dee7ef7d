"""The per-layer ledger of a traced run.

A traced run times each layer from outside, by three means:

* wrappers the ledger puts around public functions of the program (in
  this process only, for the length of the traced phase), each of which
  records a benchmark-side span;
* the program's own spans (``parse``, ``cache.lookup``,
  ``termination.analysis``, ``chase.run``, ``homomorphism.search``,
  ``rewrite.search`` and the ``service.<op>`` root), read from the trace
  store in process or from the ``spans`` a response envelope carries
  when its ``trace_context`` asks to ``collect``;
* counts reported to a :class:`CountingProbe`, a
  :class:`repro.obs.probe.Probe` the ledger installs.

For every traced operation the spans are nested by time inside one root
span (the operation as the benchmark timed it) and each instant of the
root is given to the innermost span covering it.  A layer's self time is
what its spans keep after their children are taken out; what no span
covers is ``unattributed``.  The rows therefore add up to the traced
operation time exactly.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import probe as obs_probe
from repro.obs.tracing import get_tracer

perf = time.perf_counter
wall = time.time

#: Layers (named after the modules of ``src/repro``) with a self-time row.
LAYERS = (
    "service.protocol",
    "service.pool",
    "parser",
    "api.fingerprints",
    "api.cache",
    "api.solver",
    "chase.termination",
    "chase",
    "homomorphism",
    "containment",
    "views",
    "chase.instance_chase",
    "containment.finite",
    "dependencies",
    "queries.evaluation",
    "workloads",
)

#: The program's span names and the layer each belongs to.
PROGRAM_SPAN_LAYERS = {
    "parse": "parser",
    "cache.lookup": "api.cache",
    "termination.analysis": "chase.termination",
    "chase.run": "chase",
    "homomorphism.search": "homomorphism",
    "rewrite.search": "views",
}

#: Name of the program-side root span the ledger opens around an
#: in-process operation so that the program records its spans.
TRACE_ROOT = "perfbench.op"


def program_span_layer(name: str) -> Optional[str]:
    if name.startswith("service."):
        return "service.protocol"
    return PROGRAM_SPAN_LAYERS.get(name)


def partition(root_start: float, root_end: float,
              spans: Iterable[Tuple[float, float, str]]) -> Dict[str, float]:
    """Split ``[root_start, root_end)`` among the layers of nested spans.

    ``spans`` are ``(start, end, layer)``.  A span is the child of the
    innermost open span it starts in and is clipped to it, so siblings
    never overlap and the result sums to ``root_end - root_start``.
    """
    shares: Dict[str, float] = defaultdict(float)
    # Each stack entry: [start, end, layer, time covered by children].
    stack: List[list] = [[root_start, root_end, "unattributed", 0.0]]

    def close(node: list) -> None:
        shares[node[2]] += (node[1] - node[0]) - node[3]

    for start, end, layer in sorted(spans, key=lambda s: (s[0], -s[1])):
        while len(stack) > 1 and start >= stack[-1][1]:
            close(stack.pop())
        parent = stack[-1]
        start = max(start, parent[0])
        end = min(end, parent[1])
        if end <= start:
            continue
        parent[3] += end - start
        stack.append([start, end, layer, 0.0])
    while stack:
        close(stack.pop())
    return shares


class CountingProbe(obs_probe.Probe):
    """Counts the end-of-run summaries the program reports."""

    def __init__(self) -> None:
        self.chases = 0
        self.chase_conjuncts = 0
        self.chase_seconds = 0.0
        self.homomorphisms = 0

    def chase(self, engine: str, elapsed_s: float, statistics: Any,
              conjuncts: int, saturated: bool, failed: bool) -> None:
        self.chases += 1
        self.chase_conjuncts += conjuncts
        self.chase_seconds += elapsed_s

    def homomorphism(self, atoms: int, found: int) -> None:
        self.homomorphisms += 1


class Ledger:
    """Benchmark-side spans, call counts and per-layer self times."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.totals: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.traced_seconds = 0.0
        self.traced_ops = 0
        self.probe = CountingProbe()
        self._previous_probe = None
        self._previous_span_limit: Optional[int] = None

    # -- spans -----------------------------------------------------------

    @property
    def spans(self) -> List[Tuple[float, float, str]]:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
        return spans

    def record(self, name: str, start: float, duration: float) -> None:
        self.spans.append((start, duration, name.split(":")[0]))
        self.totals[name] += duration
        self.calls[name] += 1

    def wrap(self, owner: Any, attribute: str, name: str,
             on_result: Optional[Callable[[Any], None]] = None,
             outermost: bool = False) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``.

        The layer is the part of ``name`` before any ``:``.  With
        ``outermost`` a call made while another call recorded under the
        same name is running (a method calling its sibling) is not
        recorded again.
        """
        original = getattr(owner, attribute)
        ledger = self
        local = self._local

        def timed(*args: Any, **kwargs: Any) -> Any:
            if outermost:
                active = local.__dict__.setdefault("active", set())
                if name in active:
                    return original(*args, **kwargs)
                active.add(name)
            start = wall()
            started = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                ledger.record(name, start, perf() - started)
                if outermost:
                    active.discard(name)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attribute, timed)
        self._patches.append((owner, attribute, original))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Install the probe and lift the per-trace span cap."""
        self._previous_probe = obs_probe.uninstall()
        obs_probe.install(self.probe)
        tracer = get_tracer()
        self._previous_span_limit = tracer.max_spans_per_trace
        tracer.max_spans_per_trace = 10_000_000

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        obs_probe.uninstall()
        if self._previous_probe is not None:
            obs_probe.install(self._previous_probe)
        if self._previous_span_limit is not None:
            get_tracer().max_spans_per_trace = self._previous_span_limit

    # -- operations ------------------------------------------------------

    def run_in_process(self, call: Callable[[], Any]) -> Tuple[Any, float]:
        """Run one operation under a program trace; returns (result, seconds)."""
        tracer = get_tracer()
        self.spans.clear()
        start = wall()
        started = perf()
        with tracer.start_trace(TRACE_ROOT) as root:
            result = call()
        duration = perf() - started
        program = [span for span in tracer.store.get(root.trace_id) or ()
                   if span.get("span_id") != root.span_id]
        self.close_op(start, duration, program)
        return result, duration

    def close_op(self, start: float, duration: float,
                 program_spans: Iterable[Dict[str, Any]] = ()) -> None:
        """Attribute one traced operation's time to the layers."""
        # Times relative to the op's start: epoch seconds are too large
        # for sub-microsecond sums.
        spans = [(begin - start, begin - start + length, layer)
                 for begin, length, layer in self.spans]
        self.spans.clear()
        for span in program_spans:
            layer = program_span_layer(span.get("name", ""))
            length = span.get("duration_s")
            if layer is None or length is None:
                continue
            begin = span["start_s"] - start
            spans.append((begin, begin + length, layer))
            self.totals[f"program:{span['name']}"] += length
            self.calls[f"program:{span['name']}"] += 1
        for layer, seconds in partition(0.0, duration, spans).items():
            self.self_seconds[layer] += seconds
        self.traced_seconds += duration
        self.traced_ops += 1

    # -- reporting -------------------------------------------------------

    def per_op_us(self, name: str) -> float:
        return self.totals.get(name, 0.0) / max(self.traced_ops, 1) * 1e6

    def calls_per_op(self, name: str) -> float:
        return self.calls.get(name, 0) / max(self.traced_ops, 1)

    def self_time_rows(self) -> Dict[str, float]:
        """Mean self time per traced op for each layer, in microseconds."""
        ops = max(self.traced_ops, 1)
        rows = {f"self.{layer}_us": self.self_seconds.get(layer, 0.0) / ops * 1e6
                for layer in LAYERS}
        rows["self.unattributed_us"] = (
            self.self_seconds.get("unattributed", 0.0) / ops * 1e6)
        rows["trace.op_us"] = self.traced_seconds / ops * 1e6
        return rows

    def balance_error(self) -> float:
        """|sum of self-time rows - traced time| as a share of traced time."""
        attributed = sum(self.self_seconds.get(layer, 0.0)
                         for layer in LAYERS + ("unattributed",))
        if self.traced_seconds <= 0:
            return 0.0
        return abs(attributed - self.traced_seconds) / self.traced_seconds
