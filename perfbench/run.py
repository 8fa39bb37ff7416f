"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay_corpus --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` sets the workload up several times (reporting the median),
then issues ops in a closed loop for ``--seconds`` and prints the
end-to-end metrics, scaled to reference host speed (see ``timed``).
``--trace 1`` alternates every op untraced and traced (see
``tracer.py``) for ``--seconds`` and prints the per-layer metrics.
``--digest-only`` runs just the digest ops and prints the digest
(``digest_check.py`` compares those across runs and commits).

Output: human-readable lines (the box, the simulated-output digest, every
metric by name and unit), then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit status: 0 when every
output check passed, 1 when one failed (the JSON line says so), 2 when
the program cannot be imported or the arguments are wrong (no JSON
line).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("replay_corpus", "link_bulk", "load_shared_world",
                  "fabric_sweep")
#: An untraced run sets up this many times; ``setup_s`` is the median
#: plus the imports.
SETUP_REPS = 3
#: Steps of the reference kernel, and its time in ms on a host of
#: reference speed: timed figures are scaled to it (see ``timed``).
#: About its median on the 2-core box the bounds were set on.
KERNEL_STEPS = 3000
REFERENCE_MS = 6.5

# Human-readable names the workloads' own metrics go by, as
# (name, unit, generic metric, factor).
ALIASES = {
    "replay_corpus": [
        ("page_loads_per_s", "1/s", "ops_per_s", 1.0),
        ("load_wall_ms_p50", "ms", "op_wall_ms_p50", 1.0),
        ("load_wall_ms_p95", "ms", "op_wall_ms_p95", 1.0),
    ],
    "link_bulk": [
        ("goodput_mb_per_s", "MB/s", "ops_per_s", None),
        ("transfer_wall_ms_p50", "ms", "op_wall_ms_p50", 1.0),
        ("transfer_wall_ms_p95", "ms", "op_wall_ms_p95", 1.0),
    ],
    "load_shared_world": [("clients_per_s", "1/s", "ops_per_s", 1.0)],
    "fabric_sweep": [("trials_per_s", "1/s", "ops_per_s", 1.0)],
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_wall_ms_p50": "ms",
    "op_wall_ms_p95": "ms",
}


def box_info() -> Dict[str, Any]:
    """Where a result was measured: cores, interpreter and code."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    sources = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sources.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    sources.update(handle.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": sources.hexdigest()[:16],
    }


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """Counts, checks and digest lines of one run's ops."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.outputs: List[str] = []

    def count(self, result) -> None:
        self.attempted += result.units
        self.failed += result.failed
        self.errors.extend(result.errors)

    def record(self, index: int, result) -> None:
        self.count(result)
        if index < self.workload.digest_ops:
            self.outputs.append(result.outputs)

    def finish_digest(self, state: Any) -> str:
        """Complete the digest ops the timed loop did not reach, re-run
        op 0 to check it reproduces, and return the digest."""
        from tracer import assert_clean

        for index in range(len(self.outputs), self.workload.digest_ops):
            assert_clean()
            self.record(index, self.workload.op(state, index))
        again = self.workload.op(state, 0).outputs
        if again != self.outputs[0]:
            self.errors.append(
                f"op 0 did not reproduce: {self.outputs[0]!r} then {again!r}")
        return hashlib.sha256(
            "\n".join(self.outputs).encode()).hexdigest()


def set_up(workload, seed: int, workdir: str,
           import_s: float) -> Tuple[Any, float, float]:
    """Set up ``SETUP_REPS`` times; return the last state, ``setup_s``
    and its raw value. ``setup_s`` is at reference host speed like the
    timed figures: the imports are scaled by a kernel run right after
    them, and each set-up by the kernels on either side of it."""
    steps = 3 * KERNEL_STEPS  # a longer kernel: few samples here
    kernel_s = [reference_kernel(steps)]
    raw: List[float] = []
    times: List[float] = []
    state = None
    for rep in range(SETUP_REPS):
        directory = os.path.join(workdir, f"setup{rep}")
        if rep:
            shutil.rmtree(os.path.join(workdir, f"setup{rep - 1}"))
        os.makedirs(directory)
        started = time.perf_counter()
        state = workload.setup(seed, directory)
        elapsed = time.perf_counter() - started
        raw.append(elapsed)
        kernel_s.append(reference_kernel(steps))
        times.append(at_reference_speed(
            elapsed, (kernel_s[-2] + kernel_s[-1]) / 2, steps))
    imports = at_reference_speed(import_s, kernel_s[0], steps)
    return (state, imports + statistics.median(times),
            import_s + statistics.median(raw))


class _Event:
    __slots__ = ("at", "key")

    def __init__(self, at: float, key: str) -> None:
        self.at = at
        self.key = key

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def reference_kernel(steps: int = KERNEL_STEPS) -> float:
    """Run a fixed piece of pure-Python work shaped like the program's
    hot path (an event heap, objects, dict updates) and return its
    seconds. It uses no program code, so it measures only how fast the
    host runs Python at that moment."""
    started = time.perf_counter()
    heap = [_Event(i * 0.37 % 7, str(i)) for i in range(200)]
    heapq.heapify(heap)
    seen: Dict[str, int] = {}
    for i in range(steps):
        event = heapq.heappop(heap)
        seen[event.key] = seen.get(event.key, 0) + 1
        heapq.heappush(heap, _Event(event.at + (i * 7919 % 97) / 50.0,
                                    event.key))
    return time.perf_counter() - started


def at_reference_speed(seconds: float, kernel_s: float,
                       steps: int = KERNEL_STEPS) -> float:
    """``seconds`` measured while a kernel of ``steps`` steps took
    ``kernel_s``, scaled to a host on which it takes the reference
    time."""
    return seconds * REFERENCE_MS * 1e-3 * steps / KERNEL_STEPS / kernel_s


def timed(workload, state, seconds: float) -> Dict[str, Any]:
    """Closed-loop untraced ops for ``seconds``: the end-to-end run.

    The reference kernel runs before the first op and after every op.
    Each op's time is scaled to the host speed the kernels on either
    side of it saw (``REFERENCE_MS`` per kernel), because this host's
    speed drifts by tens of percent over seconds. Both the scaled
    figures (the metrics) and the raw ones are returned.
    """
    from tracer import assert_clean

    run = Run(workload)
    op_s: List[float] = []
    units: List[int] = []
    kernel_s = [reference_kernel()]
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        assert_clean()
        started = time.perf_counter()
        result = workload.op(state, index)
        op_s.append(time.perf_counter() - started)
        kernel_s.append(reference_kernel())
        run.record(index, result)
        units.append(result.units)
        index += 1

    def figures(times: List[float]) -> Dict[str, float]:
        per_unit = [t * 1000.0 / n for t, n in zip(times, units)]
        return {
            "ops_per_s": run.attempted / sum(times),
            "op_wall_ms_p50": quantile(per_unit, 0.50),
            "op_wall_ms_p95": quantile(per_unit, 0.95),
        }

    return {"run": run,
            "metrics": figures([
                at_reference_speed(t, (before + after) / 2)
                for t, before, after in zip(op_s, kernel_s, kernel_s[1:])]),
            "raw": figures(op_s),
            "kernel_ms": statistics.median(kernel_s) * 1000.0,
            "samples": len(op_s)}


def traced(workload, state, seconds: float, workdir: str,
           setup_tracer) -> Dict[str, Any]:
    """Each op untraced, then traced: the per-layer run."""
    from tracer import Tracer, assert_clean, calibrate_dispatch

    dispatch_s = calibrate_dispatch()
    tracer = Tracer()
    workers = Tracer()
    run = Run(workload)
    untraced_s = traced_s = 0.0
    extras: List[Any] = []
    traced_extras: List[Any] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index == 0:
        assert_clean()
        started = time.perf_counter()
        plain = workload.op(state, index)
        untraced_s += time.perf_counter() - started
        extras.append(plain.result)
        with tracer.installed():
            tracer.enter("bench")
            result = workload.op(state, index, tracer)
            traced_s += tracer.exit()
        tracer.fold()
        traced_extras.append(result.result)
        pattern = os.path.join(workdir, "**", "worker-*.json")
        for path in glob.glob(pattern, recursive=True):
            with open(path) as handle:
                workers.absorb(json.load(handle))
            os.remove(path)
        run.record(index, plain)
        run.count(result)
        if result.outputs != plain.outputs:
            run.errors.append(f"op {index}: tracing changed the outputs: "
                              f"{plain.outputs!r} vs {result.outputs!r}")
        index += 1
    tracer.apply_dispatch_cost(dispatch_s)
    workers.apply_dispatch_cost(dispatch_s)
    metrics = layer_metrics(workload, tracer, workers, setup_tracer, extras,
                            traced_extras, untraced_s, traced_s, run)
    return {"run": run, "metrics": metrics, "samples": index}


def layer_metrics(workload, tracer, workers, setup_tracer, extras,
                  traced_extras, untraced_s: float, traced_s: float,
                  run: Run) -> Dict[str, float]:
    """The per-layer metrics, per unit op unless NOTES.md says
    otherwise.

    Host time is reported as each layer's share of the traced op time
    (``<layer>.self_share``) next to the traced time per unit
    (``trace.op_ms``): a bypassed layer then reads as a share of 0, and
    every figure in milliseconds is one that all workloads measure.
    """
    from tracer import EVENT_LAYERS, LAYERS, SELF_TIME_TOLERANCE

    units = run.attempted / 2  # every op ran untraced and traced
    fabric = workload.name == "fabric_sweep"
    # In fabric_sweep the trials run in the workers: the split is over
    # worker-slot time, and the part no trial layer covers is the
    # fabric's own (spawn, protocol, pickling, idle).
    source = workers if fabric else tracer
    total_s = workload.SHARDS * traced_s if fabric else traced_s
    self_s = {layer: source.self_s.get(layer, 0.0) for layer in LAYERS}
    other = sum(v for k, v in source.self_s.items()
                if k not in LAYERS and k != "bench")
    glue = source.self_s.get("bench", 0.0)
    if fabric:
        self_s["fabric"] = total_s - sum(self_s.values()) - other - glue
    accounted = sum(self_s.values()) + other + glue
    if abs(accounted - total_s) > 1e-3 * total_s or min(self_s.values()) < 0:
        run.errors.append(f"layer self times add up to {accounted:.6f}s "
                          f"of {total_s:.6f}s traced")
    if glue > SELF_TIME_TOLERANCE * total_s:
        run.errors.append(f"{glue / total_s:.1%} of traced time is outside "
                          f"every layer (tolerance "
                          f"{SELF_TIME_TOLERANCE:.0%})")

    counts = source.counts
    events = sum(source.events.values())

    def per_op(value: float) -> float:
        return value / units

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, float] = {"trace.op_ms": per_op(total_s * 1000.0)}
    for layer in LAYERS:
        m[f"{layer}.self_share"] = self_s[layer] / total_s
    m["other.self_share"] = other / total_s
    m["trace.unattributed_ratio"] = glue / total_s
    m["trace.overhead_ratio"] = traced_s / untraced_s
    m["sim.events"] = per_op(events)
    for layer in EVENT_LAYERS:
        m[f"sim.events.{layer}"] = per_op(source.events.get(layer, 0))
    m["sim.ns_per_event"] = ratio(self_s["sim"] * 1e9, events)
    m["net.hops"] = per_op(counts["net.hops"])
    m["net.originated"] = per_op(counts["net.originated"])
    m["net.nat_translations"] = per_op(counts["net.nat_translations"])
    # A packet's step through one namespace: received on an interface
    # or originated there.
    m["net.ns_per_hop"] = ratio(self_s["net"] * 1e9,
                                counts["net.hops"] + counts["net.originated"])
    m["linkem.packets_in"] = per_op(counts["linkem.packets_in"])
    m["linkem.drops"] = per_op(counts["linkem.drops"])
    delivered = counts["linkem.bytes_delivered"]
    m["linkem.opportunity_use"] = ratio(
        delivered, delivered + counts["linkem.bytes_wasted"])
    m["transport.segments_tx"] = per_op(counts["transport.segments_tx"])
    m["transport.segments_rx"] = per_op(counts["transport.segments_rx"])
    m["transport.connections"] = per_op(counts["transport.connects"])
    m["transport.segments_per_conn"] = ratio(
        counts["transport.segments_tx"], counts["transport.connects"])
    m["transport.retransmissions"] = per_op(
        counts["transport.retransmissions"])
    m["transport.useful_bytes_ratio"] = ratio(
        counts["transport.bytes_delivered"], source.wire_bytes)
    m["http.requests"] = per_op(counts["http.requests"])
    m["http.parser_feeds"] = per_op(counts["http.parser_feeds"])
    m["http.server_backlog_peak"] = source.peaks.get(
        "http.server_backlog_peak", 0.0)
    m["record.matches"] = per_op(counts["record.matches"])
    m["record.match_exact_ratio"] = ratio(source.match_exact,
                                          counts["record.matches"])
    m["record.match_misses"] = per_op(counts["record.match_misses"])
    m["browser.resources"] = per_op(counts["browser.resources"])
    m["browser.resources_failed"] = per_op(counts["browser.resources_failed"])
    m["dns.queries"] = per_op(counts["dns.queries"])
    m["core.stack_build_ms"] = per_op(
        source.span_s.get("core.stack_build", 0.0) * 1000.0)
    # Set-up figures, from one traced set-up.
    m["corpus.generate_ms"] = setup_tracer.self_s.get("corpus", 0.0) * 1e3
    m["record.store_save_ms"] = setup_tracer.span_s.get(
        "record.store_save", 0.0) * 1000.0
    m["record.store_load_ms"] = setup_tracer.span_s.get(
        "record.store_load", 0.0) * 1000.0

    # Per level. Backlog and occupancy need the metrics registry, so
    # they come from the traced levels.
    load = workload.name == "load_shared_world"
    levels = extras if load else []
    m["load.clients_completed"] = ratio(
        sum(r.completed for r in levels), len(levels))
    m["load.clients_failed"] = ratio(
        sum(r.failed for r in levels), len(levels))
    m["load.peak_backlog"] = max(
        (r.peak_backlog for r in traced_extras if load), default=0.0)
    if load:
        backlogged = ratio(sum(r.peak_backlog > 0 for r in traced_extras),
                           len(traced_extras))
        if backlogged < workload.MIN_BACKLOGGED:
            run.errors.append(f"{backlogged:.0%} of traced levels show a "
                              f"server backlog; the offered rate is not "
                              f"past the knee")
    m["load.peak_occupancy"] = max(
        (r.peak_occupancy for r in traced_extras if load), default=0.0)

    # Per sweep, from the untraced sweeps (spawn: the traced ones).
    sweeps = extras if fabric else []

    def fabric_counter(name: str) -> float:
        return ratio(sum(s["fabric"].metrics.counters[name].value
                         for s in sweeps
                         if name in s["fabric"].metrics.counters),
                     len(sweeps))

    m["fabric.spawn_share"] = ratio(tracer.span_s.get("fabric.spawn", 0.0),
                                    traced_s if fabric else 0.0)
    m["fabric.coordinator_cpu_share"] = ratio(
        sum(s["coordinator_cpu_s"] for s in sweeps), untraced_s)
    m["fabric.worker_busy_ratio"] = ratio(
        sum(s["worker_cpu_s"] for s in sweeps),
        workload.SHARDS * untraced_s if fabric else 0.0)
    for name in ("workers_spawned", "trials_reassigned",
                 "speculative_losses", "heartbeats"):
        m[f"fabric.{name}"] = fabric_counter(f"fabric.{name}")
    return m


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest-only", action="store_true",
                        help="run only the digest ops and print the digest")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        # Never fall back to an installed copy: measure this checkout.
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]
    try:
        import tracer as tracer_mod
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_tmp",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _measure(args, workload, workdir, import_s, tracer_mod)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def _measure(args, workload, workdir: str, import_s: float,
             tracer_mod) -> int:
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("box " + json.dumps(box_info(), sort_keys=True))
    if args.digest_only or args.trace:
        # One set-up; a traced run traces it for the set-up figures.
        setup_tracer = tracer_mod.Tracer()
        directory = os.path.join(workdir, "setup0")
        os.makedirs(directory)
        with setup_tracer.installed() if args.trace else nullcontext():
            state = workload.setup(args.seed, directory)
    if args.digest_only:
        out = {"run": Run(workload), "metrics": None}
    elif args.trace:
        out = traced(workload, state, args.seconds, workdir, setup_tracer)
    else:
        state, setup_s, raw_setup_s = set_up(workload, args.seed, workdir,
                                             import_s)
        out = timed(workload, state, args.seconds)
        out["metrics"]["setup_s"] = setup_s
        out["raw"]["setup_s"] = raw_setup_s
        out["metrics"]["peak_rss_mb"] = peak_rss_mb()
    run: Run = out["run"]
    digest = run.finish_digest(state)
    print(f"digest {workload.name} seed={args.seed} "
          f"ops={workload.digest_ops} {digest}")
    metrics = out["metrics"]
    if metrics is not None:
        print(f"ops {out['samples']} ({workload.unit}: {run.attempted}, "
              f"failed {run.failed})")
        print(f"metric ops_failed_ratio {run.failed / run.attempted!r} "
              f"ratio")
        for name in sorted(metrics):
            print(f"metric {name} {metrics[name]!r} {_unit(name)}")
        if not args.trace:
            print(f"reference_kernel_ms {out['kernel_ms']!r} (median; the "
                  f"metrics are scaled to {REFERENCE_MS} ms)")
            for name in sorted(out["raw"]):
                print(f"raw {name} {out['raw'][name]!r} {_unit(name)}")
            for alias, unit, name, factor in ALIASES[workload.name]:
                if factor is None:  # payload MB per host second
                    factor = workload.TRANSFER_BYTES / 1e6
                print(f"metric {alias} {metrics[name] * factor!r} {unit}")
    for line in run.errors[:20]:
        print(f"check failed: {line}")
    correct = not run.errors
    if metrics is not None:
        print(json.dumps({
            "correct": correct, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": _unit(name)}
                        for name, value in sorted(metrics.items())}}))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.startswith("sim.ns_") or name.startswith("net.ns_"):
        return "ns"
    if name.endswith(("_ratio", "_use", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
