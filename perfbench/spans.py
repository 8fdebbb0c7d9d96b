"""Per-layer host-time attribution by wrapping layer entry points.

A layer is named after its module (``net.queue``, ``tcp.sender``, ...).
Its entry points are the public methods its classes define plus the
private callbacks it hands to the event engine.  They are wrapped
at class level before a scenario builds its topology: ``DropTailQueue`` and
``Pipe`` cache bound methods at construction and most hot classes use
``__slots__``, so patching instances would miss calls.  Module functions
are patched in every ``repro`` module that imported them by name, which is
where they are looked up (``core.mptcp_lia`` and ``fluid.dynamics`` for
``mptcp_increase``).

Spans are folded into per-layer totals as they close, so memory stays
constant however many calls a run makes: a layer's self time is the sum
of its spans' durations minus the parts covered by child spans.  The
wrapper's own cost lands partly in the enclosing span and partly in the
span itself; :func:`calibrate` measures both per span so reports can move
them out of the layers into a ``trace.wrapper_s`` bucket.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from typing import Callable, Dict, List, Tuple

#: (layer, module, class, private callbacks handed to the engine or to
#: other layers).  Public methods the class itself defines are entry points
#: too; properties are not (they are attribute reads, and the invariant
#: monitor reads queue counters millions of times per run).
CLASS_LAYERS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim.engine", "repro.sim.engine", "EventScheduler", ()),
    ("sim.engine", "repro.sim.engine", "EventHandle", ()),
    ("net.queue", "repro.net.queue", "DropTailQueue", ("_complete",)),
    ("net.queue", "repro.net.queue", "VariableRateQueue", ("_complete",)),
    ("net.pipe", "repro.net.pipe", "Pipe", ("_deliver",)),
    ("net.pipe", "repro.net.pipe", "LossyPipe", ()),
    ("tcp.sender", "repro.tcp.sender", "TcpSender",
     ("_begin", "_on_timer_fire")),
    ("tcp.receiver", "repro.tcp.receiver", "TcpReceiver",
     ("_on_delack_timeout",)),
    ("tcp.scoreboard", "repro.tcp.scoreboard", "SackScoreboard", ()),
    ("tcp.rtt", "repro.tcp.rtt", "RttEstimator", ()),
    ("mptcp.subflow", "repro.mptcp.subflow", "MptcpSubflow", ()),
    ("mptcp.connection", "repro.mptcp.connection", "MptcpConnection", ()),
    ("mptcp.connection", "repro.mptcp.connection", "MptcpReceiver",
     ("_on_subflow_deliver", "_on_in_order_data", "_app_read_tick",
      "_ack_extension")),
    ("mptcp.reassembly", "repro.mptcp.reassembly", "DataReassembler", ()),
    ("mptcp.reassembly", "repro.mptcp.reassembly", "SharedReceiveBuffer", ()),
    ("mptcp.scheduler", "repro.mptcp.scheduler", "DsnScheduler", ()),
    ("core.alpha", "repro.core.alpha", "AlphaCache", ()),
    ("hybrid.flowclass", "repro.hybrid.flowclass", "FlowClass", ()),
    ("hybrid.flowclass", "repro.hybrid.flowclass", "ClassPath", ()),
    ("hybrid.links", "repro.hybrid.links", "HybridLink", ()),
    ("hybrid.simulation", "repro.hybrid.simulation", "HybridSimulation",
     ("_step", "_snapshot")),
    ("obs.trace", "repro.obs.trace", "TraceBus", ()),
    ("check.invariants", "repro.check.invariants", "InvariantMonitor", ()),
    ("exp.cache", "repro.exp.cache", "ResultCache", ()),
)

#: (layer, module, public functions), patched wherever imported by name.
FUNCTION_LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("core.alpha", "repro.core.alpha",
     ("mptcp_increase", "rfc6356_alpha", "rfc6356_increase")),
    ("fluid.dynamics", "repro.fluid.dynamics",
     ("window_derivative", "step_windows", "integrate_windows",
      "integrate_rates_coupled")),
)

#: Every congestion controller class in these modules is a ``core.controller``
#: class (found by subclassing, so new controllers are picked up).
CONTROLLER_MODULES = (
    "repro.core.base", "repro.core.balia", "repro.core.coupled",
    "repro.core.cubic", "repro.core.ewtcp", "repro.core.mptcp_lia",
    "repro.core.olia", "repro.core.semicoupled", "repro.core.uncoupled",
    "repro.core.wvegas",
)

#: Layers reported for every workload, in report order.
LAYERS = (
    "sim.engine", "net.queue", "net.pipe", "tcp.sender", "tcp.receiver",
    "tcp.scoreboard", "tcp.rtt", "mptcp.subflow", "mptcp.connection",
    "mptcp.reassembly", "mptcp.scheduler", "core.controller", "core.alpha",
    "fluid.dynamics", "hybrid.flowclass", "hybrid.links",
    "hybrid.simulation", "obs.trace", "check.invariants", "exp.cache",
)


class SpanRecorder:
    """Per-entry-point call counts and per-layer self time of closed spans.

    ``calls`` is keyed by entry point (``"TcpSender.receive"``), ``self_s``
    and ``children`` (child spans opened directly under the layer's spans)
    by layer.  ``root`` holds the seconds and count of spans opened with
    no span open.  :meth:`snapshot` and :func:`delta` cut out one phase of a run.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.layer_of: Dict[str, str] = {}
        self.self_s: Dict[str, float] = {}
        self.children: Dict[str, int] = {}
        self.root = [0.0, 0]          # [root span seconds, root span count]
        self._stack: List[list] = []

    def wrap(self, fn: Callable, layer: str, key: str) -> Callable:
        calls, self_s, children = self.calls, self.self_s, self.children
        stack, root, clock = self._stack, self.root, time.perf_counter
        calls.setdefault(key, 0)
        self.layer_of[key] = layer
        self_s.setdefault(layer, 0.0)
        children.setdefault(layer, 0)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                children[layer] += frame[1]
                calls[key] += 1
                parent = stack[-1] if stack else root
                parent[0] += elapsed
                parent[1] += 1

        span.__perfbench_span__ = True
        return span

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "children": dict(self.children),
            "root": list(self.root),
        }


def delta(after: dict, before: dict) -> dict:
    """What happened between two :meth:`SpanRecorder.snapshot` calls."""
    out = {}
    for part in ("calls", "self_s", "children"):
        out[part] = {
            k: v - before[part].get(k, 0) for k, v in after[part].items()
        }
    out["root"] = [a - b for a, b in zip(after["root"], before["root"])]
    return out


def add(total: dict, part: dict) -> dict:
    """Sum two span deltas (either may be empty)."""
    if not total:
        return {k: (dict(v) if isinstance(v, dict) else list(v))
                for k, v in part.items()}
    for name in ("calls", "self_s", "children"):
        for k, v in part[name].items():
            total[name][k] = total[name].get(k, 0) + v
    total["root"] = [a + b for a, b in zip(total["root"], part["root"])]
    return total


def calibrate(count: int = 200_000) -> Tuple[float, float]:
    """Seconds one span adds to its parent's and to its own self time.

    Times an outer span around ``count`` child spans of a no-op on a
    throwaway recorder, against the same loop calling the no-op directly.
    Returns ``(parent_cost, own_cost)`` per span, medians of five.
    """
    parent_costs, own_costs = [], []
    for _ in range(5):
        rec = SpanRecorder()
        inner = rec.wrap(_noop, "inner", "inner")

        def outer():
            for _ in range(count):
                inner()

        rec.wrap(outer, "outer", "outer")()
        start = time.perf_counter()
        for _ in range(count):
            pass
        empty = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(count):
            _noop()
        plain_call = (time.perf_counter() - start - empty) / count
        parent_costs.append((rec.self_s["outer"] - empty) / count)
        own_costs.append(rec.self_s["inner"] / count - plain_call)
    parent_costs.sort()
    own_costs.sort()
    return max(0.0, parent_costs[2]), max(0.0, own_costs[2])


def _noop():
    return None


class Instrumentation:
    """Installs span wrappers on the layers and removes them again."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> "Instrumentation":
        for layer, module, cls_name, private in CLASS_LAYERS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._wrap_class(cls, layer, private)
        base = importlib.import_module("repro.core.base").CongestionController
        for module in CONTROLLER_MODULES:
            mod = importlib.import_module(module)
            for obj in vars(mod).values():
                if (isinstance(obj, type) and issubclass(obj, base)
                        and obj.__module__ == module):
                    self._wrap_class(obj, "core.controller", ())
        for layer, module, names in FUNCTION_LAYERS:
            mod = importlib.import_module(module)
            for name in names:
                self._wrap_function(mod, name, layer)
        self._hook_closures()
        return self

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer: str, private: Tuple[str, ...]) -> None:
        wrap = self.recorder.wrap
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in private:
                continue
            if isinstance(attr, types.FunctionType):
                self._set(cls, name, wrap(attr, layer, f"{cls.__name__}.{name}"))

    def _wrap_function(self, module, name: str, layer: str) -> None:
        original = getattr(module, name)
        wrapped = self.recorder.wrap(original, layer, name)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and mod is not None and vars(mod).get(name) is original:
                self._set(mod, name, wrapped)

    def _hook_closures(self) -> None:
        """Attribute closures that layers install on other layers' objects.

        The invariant monitor replaces ``controller.on_ack`` with a checking
        closure and the hybrid link chains a drop interceptor onto its
        queue; both run inside the caller's span unless wrapped here.
        """
        from repro.check.invariants import InvariantMonitor
        from repro.hybrid.links import HybridLink

        wrap = self.recorder.wrap
        wrap_controller = InvariantMonitor.__dict__["_wrap_controller"]
        install_intercept = HybridLink.__dict__["_install_intercept"]

        def checked_wrap_controller(monitor, controller):
            wrap_controller(monitor, controller)
            on_ack = vars(controller).get("on_ack")
            if on_ack is not None and not hasattr(on_ack, "__perfbench_span__"):
                controller.on_ack = wrap(
                    on_ack, "check.invariants", "InvariantMonitor.checked_on_ack")

        def spanned_install_intercept(link):
            install_intercept(link)
            link.queue.intercept = wrap(
                link.queue.intercept, "hybrid.links", "HybridLink.intercept")

        self._set(InvariantMonitor, "_wrap_controller", checked_wrap_controller)
        self._set(HybridLink, "_install_intercept", spanned_install_intercept)
