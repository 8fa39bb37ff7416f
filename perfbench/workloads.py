"""The benchmark's four workloads.

Each workload has a set-up, built from the workload seed alone, and an
op that the runner issues in a closed loop (the next op starts when the
last one ends). An op returns how many *units* it completed — the thing
``ops_per_s`` counts: a page load, a transfer, a load client or a fabric
trial — how many of those failed, any failed output checks, and one line
describing its simulated outputs. Those lines feed the run's digest, so
two runs of the same code and seed print the same digest.

Why these four (the table in ``perfbench/NOTES.md`` has the detail):

* ``replay_corpus`` — the paper's unit: one replayed page load of a
  corpus site behind a 14 Mbit/s link and 40 ms delay. Every layer on
  the packet path plus browser, http, record and dns; many short flows.
* ``link_bulk`` — one long TCP download through a cellular-trace link
  with 60-packet drop-tail queues: queue drops and retransmits, with
  http, browser and record idle. The flow shape opposite to the first.
* ``load_shared_world`` — one open-loop ``run_load`` level past the
  knee: many concurrent flows in one simulator, server worker
  queues, a merged multi-site store.
* ``fabric_sweep`` — a ``run_fabric`` sweep over two forked workers:
  the only path through fork, the wire protocol and the merge.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
from typing import Any, Dict, List, NamedTuple, Optional

import repro.corpus as corpus_pkg
from repro.browser import Browser
from repro.core import HostMachine, ShellStack
from repro.fabric.backend import LocalBackend
from repro.fabric.coordinator import run_fabric
from repro.linkem.generators import cellular_trace
from repro.linkem.queues import DropTailQueue
from repro.load import LoadScenario, LoadSession, default_population
from repro.load.arrivals import Poisson
from repro.net.address import Endpoint
from repro.obs import MetricsRegistry
from repro.record.cas import CAS_DIR_NAME, CasStore
from repro.record.store import RecordedSite
from repro.sim import Simulator
from repro.sim.random import stable_seed
from repro.transport.wire import pieces_len

from tracer import Tracer


class OpResult(NamedTuple):
    """What one op did, as the runner counts and checks it."""

    units: int
    failed: int
    errors: List[str]
    outputs: str
    #: The program's own result object, for per-layer figures.
    result: Any = None


def _round_trip(store: RecordedSite, workdir: str) -> RecordedSite:
    """Save ``store`` to a CAS-backed folder under ``workdir`` and load
    it back."""
    cas = CasStore(os.path.join(workdir, CAS_DIR_NAME))
    store.save(os.path.join(workdir, store.name), cas=cas)
    return RecordedSite.load(os.path.join(workdir, store.name))


def _page_errors(name: str, page, result) -> List[str]:
    """Failed checks of one page load: it completed and every resource
    arrived whole. The browser counts any response as loaded, a 404 from
    the replay server included, so the bytes are checked too."""
    if not result.complete:
        return [f"{name}: load did not complete"]
    resources = list(page.resources())
    expected = sum(resource.size for resource in resources)
    if (result.resources_failed or result.bytes_downloaded != expected
            or result.resources_loaded != len(resources)):
        return [f"{name}: {result.resources_loaded} of {len(resources)} "
                f"resources loaded, {result.resources_failed} failed, "
                f"{result.bytes_downloaded} of {expected} bytes: "
                f"{result.errors[:2]}"]
    return []


def _new_sim(seed: int, tracer: Optional[Tracer]) -> Simulator:
    sim = Simulator(seed=seed)
    if tracer is not None:
        tracer.registries.append(MetricsRegistry.install(sim))
    return sim


class Workload:
    """Base class: a set-up plus a closed-loop op."""

    name = ""
    unit = ""
    #: ops whose outputs form the run's digest (run untimed when the
    #: timed loop ends before reaching them).
    digest_ops = 8

    def setup(self, seed: int, workdir: str) -> Any:
        raise NotImplementedError

    def op(self, state: Any, index: int,
           tracer: Optional[Tracer] = None) -> OpResult:
        raise NotImplementedError


class ReplayCorpus(Workload):
    """One page load per op: ReplayShell > LinkShell 14 Mbit/s >
    DelayShell 40 ms, a fresh world per load."""

    name = "replay_corpus"
    unit = "page loads"
    #: Corpus size: a run's ops (250-350 in 30 s) each load a different
    #: site; op ``i`` loads site ``i % SITES`` in a world seeded with
    #: ``i``. The sites are independent draws, so the first ``n`` are a
    #: sample of the corpus however many ops a run makes.
    SITES = 480
    #: Sites saved to a CAS store and loaded back in set-up (the ops
    #: replay the loaded copies). Saving fsyncs every file, so this is
    #: a sample of the corpus, not all of it, to keep set-up short.
    SAVED = 12

    def setup(self, seed: int, workdir: str) -> Any:
        sites = corpus_pkg.alexa_corpus(
            seed=seed, size=self.SITES,
            single_origin_sites=max(1, round(9 * self.SITES / 500)))
        stores = [site.to_recorded_site() for site in sites]
        for k in range(self.SAVED):
            stores[k] = _round_trip(stores[k], workdir)
        return [(site.page, store) for site, store in zip(sites, stores)]

    def op(self, state: Any, index: int,
           tracer: Optional[Tracer] = None) -> OpResult:
        page, store = state[index % len(state)]
        sim = _new_sim(index, tracer)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store)
        stack.add_link(14, 14)
        stack.add_delay(0.040)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        result = browser.load(page)
        sim.run_until(lambda: result.complete, timeout=600)
        errors = _page_errors(store.name, page, result)
        plt = result.page_load_time if result.complete else -1.0
        outputs = (f"{store.name} plt={plt!r} "
                   f"loaded={result.resources_loaded} "
                   f"failed={result.resources_failed} "
                   f"bytes={result.bytes_downloaded} "
                   f"conns={result.connections_opened} "
                   f"dns={result.dns_lookups} events={sim.events_processed}")
        return OpResult(1, 1 if errors else 0, errors, outputs)


class LinkBulk(Workload):
    """One bulk download per op from a server in the replay namespace,
    through a cellular-trace LinkShell (60-packet drop-tail queues) and a
    20 ms DelayShell."""

    name = "link_bulk"
    unit = "transfers"
    TRANSFER_BYTES = 384 * 1024
    #: Distinct traces generated in set-up; op ``i`` uses trace
    #: ``i % TRACES``.
    TRACES = 256
    QUEUE_PACKETS = 60
    PORT = 9000

    def setup(self, seed: int, workdir: str) -> Any:
        site = corpus_pkg.generate_site(f"bulk{seed}.com", seed=seed,
                                        n_origins=1, scale=0.1)
        store = _round_trip(site.to_recorded_site(), workdir)
        traces = [
            cellular_trace(random.Random(stable_seed(seed, f"trace:{k}")),
                           duration_ms=5_000)
            for k in range(self.TRACES)
        ]
        return store, traces

    def op(self, state: Any, index: int,
           tracer: Optional[Tracer] = None) -> OpResult:
        store, traces = state
        trace = traces[index % len(traces)]
        size = self.TRANSFER_BYTES
        sim = _new_sim(index, tracer)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        replay = stack.add_replay(store)
        stack.add_link(trace, trace,
                       uplink_queue=DropTailQueue(self.QUEUE_PACKETS),
                       downlink_queue=DropTailQueue(self.QUEUE_PACKETS))
        stack.add_delay(0.020)

        def on_connection(conn) -> None:
            conn.on_data = lambda pieces: conn.send_virtual(size)

        replay.transport.listen(None, self.PORT, on_connection)
        conn = stack.transport.connect(
            Endpoint(replay.namespace.any_local_address(), self.PORT))
        received = [0]
        conn.on_established = lambda: conn.send(b"GET")

        def on_data(pieces) -> None:
            received[0] += pieces_len(pieces)

        conn.on_data = on_data
        sim.run_until(lambda: received[0] >= size, timeout=600)
        errors = []
        if received[0] != size:
            errors.append(f"transfer {index}: received {received[0]} of "
                          f"{size} bytes")
        outputs = (f"transfer {index} done_at={sim.now!r} "
                   f"bytes={received[0]} events={sim.events_processed}")
        return OpResult(1, 1 if errors else 0, errors, outputs)


class LoadSharedWorld(Workload):
    """One open-loop ``run_load`` level per op: Poisson arrivals, the
    default population mix, two server workers per origin, offered just
    past the knee so the worker queues back up. The op builds the
    ``LoadSession`` itself (all ``run_load`` does) so a traced op can
    reach the session's metrics registry."""

    name = "load_shared_world"
    unit = "clients"
    #: Small levels, so a run has a few hundred per-level samples (its
    #: p95 has at least 10 beyond it).
    CLIENTS = 10
    RATE = 60.0
    #: Populations drawn in set-up; level ``i`` uses population
    #: ``i % POPULATIONS``, so a run's levels each get their own. One
    #: population's sites set most of a level's cost, and a run averages
    #: over all of them.
    POPULATIONS = 320
    #: Share of traced levels that must show a server backlog (offered
    #: past the knee). A level of a few clients can miss every queue by
    #: chance, so this is not all of them.
    MIN_BACKLOGGED = 0.9

    def setup(self, seed: int, workdir: str) -> Any:
        populations = [
            default_population(seed=stable_seed(seed, f"population:{p}")
                               % (1 << 31), n_sites=3, scale=0.2)
            for p in range(self.POPULATIONS)
        ]
        # Each level's session builds its own merged store from its
        # population, so the round trip only measures the store format
        # (and checks that it loses no pair).
        merged = populations[0].merged_store()
        if len(_round_trip(merged, workdir)) != len(merged):
            raise RuntimeError("merged store lost pairs in a round trip")
        return populations, seed

    def op(self, state: Any, index: int,
           tracer: Optional[Tracer] = None) -> OpResult:
        populations, seed = state
        scenario = LoadScenario(population=populations[index % len(populations)],
                                arrivals=Poisson(self.RATE),
                                clients=self.CLIENTS, server_workers=2)
        level_seed = stable_seed(seed, f"level:{index}") % (1 << 31)
        session = LoadSession(scenario, level_seed,
                              instrument=tracer is not None)
        if tracer is not None:
            tracer.registries.append(session.registry)
        result = session.run()
        errors = []
        if result.completed != self.CLIENTS or result.failed:
            errors.append(f"level {index}: {result.completed} of "
                          f"{self.CLIENTS} clients completed, "
                          f"{result.failed} failed")
        records = hashlib.sha256(repr(result.records).encode()).hexdigest()
        outputs = (f"level {index} seed={level_seed} "
                   f"makespan={result.makespan!r} events={result.events} "
                   f"records={records}")
        return OpResult(self.CLIENTS, result.failed, errors, outputs, result)


class FabricSweep(Workload):
    """One ``run_fabric(LocalBackend, shards=2)`` sweep of small replay
    trials per op; the unit is a trial."""

    name = "fabric_sweep"
    unit = "trials"
    digest_ops = 2
    TRIALS = 8
    SHARDS = 2
    #: Wall seconds between worker liveness pulses: shorter than a
    #: sweep, so the heartbeat thread and its frames are part of the op.
    HEARTBEAT_S = 0.05
    #: Sites of ``replay_smoke``'s size drawn in set-up. Each trial of
    #: each sweep draws one (seeded by the sweep and trial index), so a
    #: run covers every site many times in ever-different mixes; one
    #: site's size sets most of a trial's cost.
    SITES = 256
    #: Sites saved to a CAS store and loaded back in set-up (the trials
    #: replay the loaded copies).
    SAVED = 8

    def setup(self, seed: int, workdir: str) -> Any:
        sites = [corpus_pkg.generate_site(f"fabric{k}.com",
                                          seed=stable_seed(seed, f"site:{k}"),
                                          n_origins=3, scale=0.4)
                 for k in range(self.SITES)]
        stores = [site.to_recorded_site() for site in sites]
        for k in range(self.SAVED):
            stores[k] = _round_trip(stores[k], workdir)
        return [(site.page, store) for site, store in zip(sites, stores)], \
            workdir

    def op(self, state: Any, index: int,
           tracer: Optional[Tracer] = None) -> OpResult:
        sites, workdir = state
        draw = random.Random(stable_seed(len(sites), f"sweep:{index}"))
        chosen = [draw.choice(sites) for __ in range(self.TRIALS)]

        def factory(trial: int):
            # replay_smoke's world: ReplayShell only, seeded by the trial.
            page, store = chosen[trial]
            sim = Simulator(seed=trial)
            machine = HostMachine(sim)
            stack = ShellStack(machine)
            stack.add_replay(store)
            browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                              machine=machine)
            return sim, browser.load(page)

        if tracer is not None:
            factory = _traced_factory(factory, tracer, workdir)
        before = _cpu_s()
        result = run_fabric(LocalBackend(factory), trials=self.TRIALS,
                            shards=self.SHARDS, heartbeat=self.HEARTBEAT_S)
        after = _cpu_s()
        errors = [] if result.complete else [f"sweep {index}: incomplete"]
        failed = 0
        lines = []
        for outcome in result.outcomes:
            page, store = chosen[outcome.trial]
            name = f"sweep {index} trial {outcome.trial} ({store.name})"
            loaded = outcome.result
            if outcome.status == "ok":
                trial_errors = _page_errors(name, page, loaded)
                lines.append(f"{outcome.trial}:{loaded.page_load_time!r}:"
                             f"{loaded.resources_loaded}")
            else:
                trial_errors = [f"{name}: {outcome.status}"]
                lines.append(f"{outcome.trial}:{outcome.status}")
            failed += bool(trial_errors)
            errors += trial_errors
        outputs = (f"sweep {index} "
                   + hashlib.sha256(";".join(lines).encode()).hexdigest())
        usage = {"coordinator_cpu_s": after[0] - before[0],
                 "worker_cpu_s": after[1] - before[1],
                 "fabric": result}
        return OpResult(self.TRIALS, failed, errors, outputs, usage)


def _cpu_s():
    """(this process, its reaped children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


def _traced_factory(factory, tracer: Tracer, workdir: str):
    """Wrap a scenario factory so each forked worker traces into its own
    file under ``workdir`` (read back by the runner after the sweep)."""
    parent = os.getpid()
    started: List[int] = []

    def traced(trial: int):
        pid = os.getpid()
        if pid != parent and not started:
            started.append(pid)
            tracer.restart_in_child(
                os.path.join(workdir, f"worker-{pid}.json"))
        return factory(trial)

    return traced


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ReplayCorpus(), LinkBulk(), LoadSharedWorld(),
                        FabricSweep())
}
