"""Per-layer tracing for the benchmark.

Wraps the package's entry points by patching each name where its caller
looks it up (module globals for functions, class attributes for methods),
records one span per call (name, start, end, parent span, operation id),
and keeps a few exact counts beside the spans. Spans stay in memory and are
written out once, at the end of the run. Nothing is patched outside
``Tracer.installed()``, so untraced rounds run the package unmodified.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (owner attribute path, attribute, span name). Owners are resolved against
# the imported package, e.g. "sim" -> srv6sim.sim, "sim.Simulation" -> the class.
SPANNED = (
    ("scenario", "load_scenario", "scenario.load_scenario"),
    ("sim.Simulation", "run_to_quiescence", "sim.run_to_quiescence"),
    ("bgp.SessionBus", "pending_sessions", "bgp.pending_sessions"),
    ("sim", "encode_safi73", "bgp.encode_safi73"),
    ("agent", "encode_safi73", "bgp.encode_safi73"),
    ("agent", "decode_safi73", "bgp.decode_safi73"),
    ("agent.Agent", "handle_message", "agent.handle_message"),
    ("agent.Agent", "on_configmap_change", "agent.on_configmap_change"),
    ("sim", "parse_configmap_doc", "k8s.parse_configmap_doc"),
    ("scenario", "parse_configmap_doc", "k8s.parse_configmap_doc"),
    ("sim", "render_configmap_doc", "k8s.render_configmap_doc"),
    ("agent", "diff_policies", "k8s.diff_policies"),
    ("sim", "poll", "k8s.poll"),
    ("sim", "compute_routes", "underlay.compute_routes"),
    ("sim", "forward", "underlay.forward"),
    ("dataplane.NodeDataplane", "steer_lookup", "dataplane.steer_lookup"),
    ("dataplane.NodeDataplane", "fib_lookup", "dataplane.fib_lookup"),
    ("dataplane.NodeDataplane", "h_encaps", "dataplane.h_encaps"),
    ("dataplane.NodeDataplane", "process_local", "dataplane.process_local"),
    ("sim", "run_vector", "graph.run_vector"),
    ("dataplane", "decode_inner", "net_types.decode_inner"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in SPANNED))


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.queue_depth_max = 0
        self.op_id = 0
        self.active = False
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _exit(self, name: str, index: int, parent: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op_id)

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; its id tags every child."""
        if not self.active:
            yield
            return
        self.op_id += 1
        index, parent = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(f"op.{kind}", index, parent, start)

    @contextmanager
    def paused(self):
        """Run untimed checks without spans or counts."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _spanned(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index, parent = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, index, parent, start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counts taken at the same boundaries -------------------------------

    def _after_quiescence(self, args, steps) -> None:
        self.counts["sim.steps"] += steps

    def _after_message(self, args, result) -> None:
        message = args[2]
        kind = "safi73" if isinstance(message, tuple) and message[0] == "safi73" else "step1"
        self.counts[f"bgp.messages.{kind}"] += 1

    def _after_poll(self, args, changed) -> None:
        self.counts["k8s.poll.scan_units"] += len(changed)

    def _after_forward(self, args, trace) -> None:
        self.counts["underlay.packets"] += 1
        self.counts["underlay.hops"] += len(trace.hops)

    def _after_vector(self, args, result) -> None:
        self.counts["graph.vectors"] += 1
        self.counts["graph.packets"] += len(args[1])

    def _send_counter(self, fn):
        tracer = self

        def send(bus, src, dst, message):
            fn(bus, src, dst, message)
            if tracer.active:
                depth = len(bus.sessions[(src, dst)])
                if depth > tracer.queue_depth_max:
                    tracer.queue_depth_max = depth

        return send

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        hooks = {
            "sim.run_to_quiescence": self._after_quiescence,
            "agent.handle_message": self._after_message,
            "k8s.poll": self._after_poll,
            "underlay.forward": self._after_forward,
            "graph.run_vector": self._after_vector,
        }
        saved = []
        for owner_path, attr, name in SPANNED:
            owner = _resolve(self.package, owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._spanned(name, original, hooks.get(name)))
        bus = _resolve(self.package, "bgp.SessionBus")
        saved.append((bus, "send", bus.__dict__["send"]))
        bus.send = self._send_counter(bus.__dict__["send"])
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name; self time is a span's
        duration minus the durations of its direct children."""
        child = Counter()
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}


def write_spans(path, tracers: list[Tracer]) -> None:
    """One JSON array per span: round, index, name, start, end, parent, op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        for k, tracer in enumerate(tracers):
            for i, (name, start, end, parent, op) in enumerate(tracer.spans):
                out.write(json.dumps([k, i, name, start, end, parent, op]) + "\n")
