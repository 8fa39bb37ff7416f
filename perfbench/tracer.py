"""Per-layer host-time split, measured from outside the program.

The traced run installs two kinds of instruments, and only for the
duration of one traced op (:meth:`Tracer.installed`):

* **Call spans** — wrappers around public methods and functions of the
  ``repro`` packages (the ``TARGETS`` table). They replace the class or
  module attribute, so they must be installed *before* the world is
  built: components capture bound methods at construction.
* **Event spans** — the public ``Simulator.set_trace`` hook, installed by
  a wrapper around ``Simulator.run``/``run_until``. An event span runs
  from one hook call to the next and is keyed by the ``repro.<layer>``
  module of the event's callback.

A layer's self time is the duration of its spans minus the time covered
by their child spans. The gap between one event's callback returning and
the next hook call (queue pop, predicate check, the hook itself) is the
event loop's own cost; it is measured on no-op events
(:func:`calibrate_dispatch`) and moved from the event's layer to
``sim``. With the op itself as the root span, every second of a traced
op lands in exactly one layer, so the self times add up to the op's
traced wall time; the root's own remainder (benchmark glue) is reported
as ``bench`` and must stay within :data:`SELF_TIME_TOLERANCE`.

Untraced runs never see any of this: :func:`assert_clean` checks, before
every untraced op, that every target is the original object.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Largest share of a traced op's wall time that may fall outside every
#: layer (the benchmark's own glue between calls into the program).
SELF_TIME_TOLERANCE = 0.03

#: Layers reported even when a workload never enters them.
LAYERS = ("sim", "net", "linkem", "transport", "http", "record", "browser",
          "dns", "core", "corpus", "load", "fabric")

#: Event-callback layers with their own ``sim.events.<layer>`` count.
EVENT_LAYERS = ("net", "linkem", "http", "browser", "dns", "load")

# (module, attribute path, layer, counter name or None). The counter
# counts calls; ``None`` means the span is timed but not counted.
TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.net.interface", "Interface.receive", "net", "net.hops"),
    ("repro.net.namespace", "NetworkNamespace.originate", "net",
     "net.originated"),
    ("repro.net.nat", "Nat.translate_outbound", "net",
     "net.nat_translations"),
    ("repro.net.nat", "Nat.translate_inbound", "net",
     "net.nat_translations"),
    ("repro.linkem.tracelink", "TracePipe.send", "linkem",
     "linkem.packets_in"),
    ("repro.linkem.delay", "DelayPipe.send", "linkem", "linkem.packets_in"),
    ("repro.transport.host", "TransportHost.send_packet", "transport",
     "transport.segments_tx"),
    ("repro.transport.host", "TransportHost.receive", "transport",
     "transport.segments_rx"),
    ("repro.transport.host", "TransportHost.connect", "transport",
     "transport.connects"),
    ("repro.transport.host", "TransportHost.listen", "transport", None),
    ("repro.http.client", "HttpClient.request", "http", "http.requests"),
    ("repro.http.parser", "HttpParser.feed", "http", "http.parser_feeds"),
    ("repro.record.matcher", "RequestMatcher.match", "record",
     "record.matches"),
    ("repro.record.store", "RecordedSite.save", "record", None),
    ("repro.record.store", "RecordedSite.load", "record", None),
    ("repro.browser.engine", "Browser.load", "browser", None),
    ("repro.dns.resolver", "StubResolver.resolve", "dns", "dns.queries"),
    ("repro.core.machine", "HostMachine.__init__", "core", None),
    ("repro.core.compose", "ShellStack.add_replay", "core", None),
    ("repro.core.compose", "ShellStack.add_link", "core", None),
    ("repro.core.compose", "ShellStack.add_delay", "core", None),
    ("repro.browser.engine", "Browser.__init__", "core", None),
    ("repro.corpus", "alexa_corpus", "corpus", None),
    ("repro.corpus.alexa", "generate_site", "corpus", None),
    ("repro.corpus", "generate_site", "corpus", None),
    ("repro.load.population", "generate_site", "corpus", None),
    ("repro.fabric.backend", "LocalBackend.start_worker", "fabric", None),
    ("repro.load.runner", "LoadSession.__init__", "load", None),
    ("repro.load.runner", "LoadSession.run", "load", None),
)

#: Span names whose host time is also reported on its own.
_TIMED = {
    "RecordedSite.save": "record.store_save",
    "RecordedSite.load": "record.store_load",
    "LocalBackend.start_worker": "fabric.spawn",
}
#: Call spans that build the world (``core.stack_build_ms``).
_BUILD = {"HostMachine.__init__", "ShellStack.add_replay",
          "ShellStack.add_link", "ShellStack.add_delay", "Browser.__init__"}


def _resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute name, raw attribute) for one target."""
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = owner.__dict__[name] if isinstance(owner, type) else \
        getattr(owner, name)
    return owner, name, raw


#: The original objects, captured at import time (before any wrapper).
_ORIGINALS: Dict[Tuple[str, str], Any] = {
    (module, path): _resolve(module, path)[2]
    for module, path, __, __ in TARGETS
}
_ORIGINALS[("repro.sim.simulator", "Simulator.run")] = _resolve(
    "repro.sim.simulator", "Simulator.run")[2]
_ORIGINALS[("repro.sim.simulator", "Simulator.run_until")] = _resolve(
    "repro.sim.simulator", "Simulator.run_until")[2]


def assert_clean() -> None:
    """Raise unless every instrumented attribute is its original object.

    Called before every untraced op, so a timed figure can never include
    a wrapper left behind by a traced op.
    """
    for (module, path), original in _ORIGINALS.items():
        current = _resolve(module, path)[2]
        if current is not original:
            raise RuntimeError(
                f"tracing wrapper still installed on {module}.{path}")


def _layer_of_module(module: Optional[str]) -> str:
    if module and module.startswith("repro."):
        return module.split(".")[1]
    return "bench"


class Tracer:
    """Span stack plus per-layer self-time and count accumulators."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.span_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.events: Counter = Counter()
        self.stack: List[List[Any]] = []
        self.connections: List[Any] = []
        self.wire_bytes = 0
        self.match_exact = 0
        self.page_results: List[Any] = []
        self.registries: List[Any] = []
        self.peaks: Dict[str, float] = defaultdict(float)
        #: Set in a forked fabric worker (:meth:`restart_in_child`): the
        #: totals are rewritten there after every simulator run, since
        #: workers exit with ``os._exit``.
        self.dump_path: Optional[str] = None
        self._event_open = False
        self._module_layer: Dict[str, str] = {}

    # -- spans -------------------------------------------------------- #

    def enter(self, layer: str) -> None:
        self.stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> float:
        layer, start, child = self.stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def hook(self, time: float, seq: int, callback: Callable) -> None:
        """``Simulator.set_trace`` hook: close the last event span and
        open the next, keyed by the callback's layer."""
        now = perf_counter()
        stack = self.stack
        if self._event_open:
            layer, start, child = stack.pop()
            duration = now - start
            self.self_s[layer] += duration - child
            stack[-1][2] += duration
        target = getattr(callback, "func", callback)  # functools.partial
        module = getattr(target, "__module__", None) or \
            type(target).__module__
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = _layer_of_module(module)
        self.events[layer] += 1
        stack.append([layer, now, 0.0])
        self._event_open = True

    def close_event(self) -> None:
        if self._event_open:
            self._event_open = False
            self.exit()

    # -- installation ------------------------------------------------- #

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper for the duration of the block."""
        patches: List[Tuple[Any, str, Any]] = []
        try:
            for module, path, layer, counter in TARGETS:
                owner, name, raw = _resolve(module, path)
                patches.append((owner, name, raw))
                setattr(owner, name, self._wrap(raw, path, layer, counter))
            from repro.sim.simulator import Simulator

            for name in ("run", "run_until"):
                raw = Simulator.__dict__[name]
                patches.append((Simulator, name, raw))
                setattr(Simulator, name, self._wrap_run(raw))
            yield self
        finally:
            for owner, name, raw in reversed(patches):
                setattr(owner, name, raw)

    def _wrap(self, raw: Any, path: str, layer: str,
              counter: Optional[str]) -> Any:
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        after = self._after_hooks().get(path)
        timed = _TIMED.get(path)
        build = path in _BUILD
        stack = self.stack
        counts = self.counts
        span_s = self.span_s
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                counts[counter] += 1
            if after is not None:
                args, kwargs = after(args, kwargs, None, False)
            stack.append([layer, perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.exit()
                if timed is not None:
                    span_s[timed] += duration
                if build:
                    span_s["core.stack_build"] += duration
            if after is not None:
                after(args, kwargs, result, True)
            return result

        return classmethod(wrapper) if is_classmethod else wrapper

    def _wrap_run(self, raw: Callable) -> Callable:
        tracer = self

        def wrapper(sim: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.enter("sim")
            sim.set_trace(tracer.hook)
            try:
                return raw(sim, *args, **kwargs)
            finally:
                tracer.close_event()
                sim.set_trace(None)
                tracer.exit()
                if tracer.dump_path is not None:
                    tracer.dump()

        return wrapper

    def _after_hooks(self) -> Dict[str, Callable]:
        """Per-target observers of arguments and results (no timing).

        Called twice per call: before (``done`` False; may rewrite the
        arguments) and after (``done`` True, with the result).
        """
        tracer = self

        def send_packet(args, kwargs, result, done):
            if not done:
                tracer.wire_bytes += args[1].size
            return args, kwargs

        def connect(args, kwargs, result, done):
            if done:
                tracer.connections.append(result)
            return args, kwargs

        def capture(accept):
            def on_connection(conn):
                tracer.connections.append(conn)
                accept(conn)

            return on_connection

        def listen(args, kwargs, result, done):
            # Capture passive connections through the accept callback
            # (``listen(self, address, port, on_connection, ...)``).
            if not done and len(args) > 3:
                args = args[:3] + (capture(args[3]),) + args[4:]
            elif not done:
                kwargs = dict(kwargs,
                              on_connection=capture(kwargs["on_connection"]))
            return args, kwargs

        def match(args, kwargs, result, done):
            if done:
                if result.exact:
                    tracer.match_exact += 1
                if result.pair is None:
                    tracer.counts["record.match_misses"] += 1
            return args, kwargs

        def browser_load(args, kwargs, result, done):
            if done:
                tracer.page_results.append(result)
            return args, kwargs

        return {
            "TransportHost.send_packet": send_packet,
            "TransportHost.connect": connect,
            "TransportHost.listen": listen,
            "RequestMatcher.match": match,
            "Browser.load": browser_load,
        }

    # -- results ------------------------------------------------------ #

    def apply_dispatch_cost(self, per_event_s: float) -> None:
        """Move the event loop's measured per-event cost from each
        event's layer to ``sim``."""
        for layer, events in self.events.items():
            moved = min(per_event_s * events, self.self_s[layer])
            self.self_s[layer] -= moved
            self.self_s["sim"] += moved

    def fold(self) -> None:
        """Turn the captured connections and page loads into counts and
        let them go (they hold whole simulated worlds)."""
        counts = self.counts
        for conn in self.connections:
            counts["transport.retransmissions"] += conn.retransmissions
            counts["transport.bytes_delivered"] += conn.bytes_delivered
        for page in self.page_results:
            counts["browser.resources"] += page.resources_loaded
            counts["browser.resources_failed"] += page.resources_failed
        for registry in self.registries:
            for name, counter in registry.counters.items():
                if name.startswith("linkshell"):
                    for kind in ("drops", "bytes_delivered", "bytes_wasted"):
                        if name.endswith("." + kind):
                            counts[f"linkem.{kind}"] += counter.value
            for name, series in registry.series.items():
                if name.startswith("http.server.") and \
                        name.endswith(".backlog") and series.points:
                    peak = max(value for __, value in series.points)
                    self.peaks["http.server_backlog_peak"] = max(
                        self.peaks["http.server_backlog_peak"], peak)
        self.connections.clear()
        self.page_results.clear()
        self.registries.clear()

    def totals(self) -> Dict[str, Any]:
        """JSON-shaped accumulators (what a fabric worker hands back)."""
        self.fold()
        return {
            "self_s": dict(self.self_s),
            "span_s": dict(self.span_s),
            "counts": dict(self.counts),
            "events": dict(self.events),
            "peaks": dict(self.peaks),
            "wire_bytes": self.wire_bytes,
            "match_exact": self.match_exact,
        }

    def restart_in_child(self, dump_path: str) -> None:
        """Start empty in a forked worker: drop the parent's spans and
        totals (in place — the wrappers hold these containers) and dump
        this process's own totals to ``dump_path``."""
        for container in (self.self_s, self.span_s, self.counts,
                          self.events, self.peaks, self.stack,
                          self.connections,
                          self.page_results, self.registries):
            container.clear()
        self.wire_bytes = 0
        self.match_exact = 0
        self._event_open = False
        self.dump_path = dump_path

    def dump(self) -> None:
        tmp = f"{self.dump_path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.totals(), handle)
        os.replace(tmp, self.dump_path)

    def absorb(self, totals: Dict[str, Any]) -> None:
        """Add another tracer's :meth:`totals` into this one."""
        for layer, value in totals["self_s"].items():
            self.self_s[layer] += value
        for name, value in totals["span_s"].items():
            self.span_s[name] += value
        self.counts.update(totals["counts"])
        self.events.update(totals["events"])
        for name, value in totals["peaks"].items():
            self.peaks[name] = max(self.peaks[name], value)
        self.wire_bytes += totals["wire_bytes"]
        self.match_exact += totals["match_exact"]


def calibrate_dispatch(events: int = 20_000, rounds: int = 5) -> float:
    """Seconds the traced event loop spends per event outside callbacks.

    Runs ``events`` no-op events under the same run wrapper and hook the
    traced ops use and takes the per-event time of the fastest round.
    """
    from repro.sim.simulator import Simulator

    def noop() -> None:
        pass

    best = float("inf")
    for __ in range(rounds):
        tracer = Tracer()
        sim = Simulator()
        for i in range(events):
            sim.schedule(i * 1e-6, noop)
        wrapped = tracer._wrap_run(Simulator.__dict__["run"])
        started = perf_counter()
        wrapped(sim)
        best = min(best, (perf_counter() - started) / events)
    return best
