"""Workload episodes for the stack benchmark, driven through ``repro.*``.

An *episode* deploys one fresh cluster, loads it with a fixed, seeded
list of commands and tears it down.  A run repeats episodes until its
time is spent, so what one episode measures never depends on how long
the run lasts (per-command costs that grow with history would otherwise
make the number a function of run length).

Everything the benchmark observes comes from public hooks: replicas'
``on_execute``, learners' ``on_deliver``/``on_learn``/``on_adopt``, the
client's ``issue_times``/``completed`` and the roles' public counters.
Completion is counted, never polled: :class:`Observer` bumps a counter
from the execute hooks, so detecting the end of an episode costs O(1)
per event on both backends.
"""

from __future__ import annotations

import asyncio
import random
import resource
import statistics
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.generalized import GenBatchingConfig, build_generalized
from repro.core.liveness import LivenessConfig
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.net.cluster import (
    LoopbackDeployment,
    bootstrap_round,
    wall_clock_liveness,
    wall_clock_retransmit,
)
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.client import Client, PipelinedClient
from repro.smr.instances import (
    BatchingConfig,
    SMRCluster,
    build_smr,
    make_instances_config,
)
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import BroadcastReplica, OrderedReplica

#: one simulated time unit is one injected message delay; the benchmark
#: reports simulated intervals in ms at 1 unit = 1 ms
SIM_MS_PER_UNIT = 1.0
#: how long an episode may take to execute every command (sockets: wall
#: seconds; simulator: time units after the last submit), and then how
#: long the replicas get to converge
SIM_DEADLINE = 2_000.0
NET_DEADLINE_S = 60.0
NET_CONVERGE_S = 10.0
#: latency samples a run collects at least, so p99 has >= 10 beyond it
MIN_SAMPLES = 1000


def ms_per_tick(spec: "Spec") -> float:
    """Milliseconds per unit of the backend clock (sockets: seconds)."""
    return SIM_MS_PER_UNIT if spec.backend == "sim" else 1e3


def pct(values: list[float], q: float) -> float:
    """The *q* quantile of *values* (nearest rank, 0 for no values)."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


class CheckFailed(AssertionError):
    """An episode's outputs failed the correctness check."""

    def __init__(self, message: str, failed: int = 0) -> None:
        super().__init__(message)
        self.failed = failed  # commands of the episode never executed


@dataclass(frozen=True)
class Spec:
    """One workload: engine, backend, cluster shape, faults and load."""

    name: str
    backend: str  # "net" | "sim"
    engine: str  # "instances" | "generalized"
    n_cmds: int  # commands per episode
    window: int = 8  # closed-loop window; 0 means open loop
    n_keys: int = 8
    read_fraction: float = 0.0
    conflict_rate: float = 0.0  # generalized: share of commands on one hot key
    loss: float = 0.0
    jitter: float = 0.0  # sim: extra uniform delay bound (units)
    rate: float = 0.0  # open loop: mean arrivals per unit
    crash_coordinator_at: float | None = None  # sim: virtual time
    inputs: int = 16  # distinct inputs a run cycles through


WORKLOADS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("net-clean", "net", "instances", n_cmds=200, window=8),
        Spec(
            "sim-gen-conflict", "sim", "generalized", n_cmds=500, window=16,
            n_keys=0, read_fraction=0.2, conflict_rate=0.3, jitter=0.5,
            inputs=32,
        ),
        Spec(
            "sim-smr-faults", "sim", "instances", n_cmds=1000, window=0,
            n_keys=16, read_fraction=0.2, loss=0.05, rate=6.0,
            crash_coordinator_at=80.0, inputs=32,
        ),
    )
}


def make_commands(spec: Spec, seed: int) -> list[Command]:
    """The episode's inputs: a pure function of (workload, seed)."""
    rng = random.Random(f"{spec.name}|{seed}")
    cmds = []
    for i in range(spec.n_cmds):
        if spec.n_keys:
            key = f"k{rng.randrange(spec.n_keys)}"
        else:  # conflict-rate mode: a hot key or a key of its own
            key = "hot" if rng.random() < spec.conflict_rate else f"u{i}"
        if rng.random() < spec.read_fraction:
            cmds.append(Command(f"c{i}", "get", key))
        else:
            cmds.append(Command(f"c{i}", "put", key, rng.randrange(1_000_000)))
    return cmds


def arrival_times(spec: Spec, seed: int) -> list[float]:
    """Open-loop due times (Poisson, mean rate ``spec.rate`` per unit)."""
    rng = random.Random(f"{spec.name}|arrivals|{seed}")
    t, out = 0.0, []
    for _ in range(spec.n_cmds):
        t += rng.expovariate(spec.rate)
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# Observation and the output check
# ---------------------------------------------------------------------------


class Observer:
    """Counts executions from the replicas' hooks; checks outputs.

    ``first_exec[cmd]`` is the backend-clock time a command first ran
    at any replica.  ``on_first_done`` fires once, when the last command
    first executes (the end of the measured window); ``on_converged``
    fires once every replica has executed every command.
    """

    def __init__(self, clock: Callable[[], float], cmds, replicas, total_order: bool,
                 wrap: Callable[[Callable], Callable] | None = None):
        wrap = wrap or (lambda fn: fn)
        self.clock = clock
        self.cmds = list(cmds)
        self.replicas = list(replicas)
        self.total_order = total_order
        self.n = len(self.cmds)
        self.first_exec: dict[Command, float] = {}
        self.per_replica: list[dict[Command, int]] = [{} for _ in self.replicas]
        self.executions = 0  # (replica, command) pairs, counted once each
        self.first_done_wall: float | None = None
        self.window_orders_ok: bool | None = None
        self.on_first_done: Callable[[], None] | None = None
        self.on_converged: Callable[[], None] | None = None
        for index, replica in enumerate(self.replicas):
            replica.on_execute(wrap(self._make_execute(index)))
            replica.learner.on_adopt(wrap(self._make_adopt(index)))

    def _make_execute(self, index: int):
        counts = self.per_replica[index]

        def executed(cmd, result) -> None:
            if cmd in counts:
                counts[cmd] += 1  # a second execution: check() reports it
                return
            counts[cmd] = 1
            self._count(cmd)

        return executed

    def _make_adopt(self, index: int):
        counts = self.per_replica[index]

        def adopted(frontier, delivered) -> None:
            # A snapshot install fast-forwards the replica without running
            # its machine: the commands it covers count as executed there.
            for cmd in delivered:
                if cmd not in counts:
                    counts[cmd] = 1
                    self._count(cmd)

        return adopted

    def _count(self, cmd) -> None:
        self.executions += 1
        if cmd not in self.first_exec:
            self.first_exec[cmd] = self.clock()
            if len(self.first_exec) == self.n:
                self.first_done_wall = time.perf_counter()
                self.window_orders_ok = self._orders_compatible(prefix_only=True)
                if self.on_first_done is not None:
                    self.on_first_done()
        if self.executions == self.n * len(self.replicas) and self.on_converged is not None:
            self.on_converged()

    @property
    def first_done(self) -> bool:
        return self.first_done_wall is not None

    @property
    def converged(self) -> bool:
        return self.executions >= self.n * len(self.replicas)

    # -- the output check ----------------------------------------------------

    def _projection(self, seq) -> Any:
        """What must agree across replicas: the whole order (instances),
        or per key the write order and each read's anchor (generalized,
        where commuting commands may interleave differently)."""
        if self.total_order:
            return tuple(seq)
        writes: dict[str, list] = {}
        anchors: dict[Command, int] = {}
        for cmd in seq:
            if cmd.op == "get":
                anchors[cmd] = len(writes.get(cmd.key, ()))
            else:
                writes.setdefault(cmd.key, []).append(cmd)
        return writes, anchors

    def _orders_compatible(self, prefix_only: bool) -> bool:
        views = [self._projection(r.executed) for r in self.replicas]
        if self.total_order:
            longest = max(views, key=len)
            return all(
                v == longest[: len(v)] if prefix_only else v == longest
                for v in views
            )
        base_writes: dict[str, list] = {}
        for writes, _ in views:
            for key, seq in writes.items():
                if len(seq) > len(base_writes.get(key, ())):
                    base_writes[key] = seq
        anchors: dict[Command, int] = {}
        for writes, view_anchors in views:
            for key, seq in writes.items():
                full = base_writes[key]
                if seq != full[: len(seq)] or (not prefix_only and seq != full):
                    return False
            for cmd, anchor in view_anchors.items():
                if anchors.setdefault(cmd, anchor) != anchor:
                    return False
        return True

    def check(self) -> None:
        """Raise :class:`CheckFailed` unless the episode's outputs hold."""
        if not self.first_done:
            missing = self.n - len(self.first_exec)
            raise CheckFailed(f"{missing} of {self.n} commands never executed", missing)
        if not self.window_orders_ok:
            raise CheckFailed("replica orders not prefix-compatible at window end")
        if not self.converged:
            raise CheckFailed("replicas did not converge within the deadline")
        if not self._orders_compatible(prefix_only=False):
            raise CheckFailed("replica orders differ after convergence")
        states = {r.machine.snapshot() for r in self.replicas}
        if len(states) != 1:
            raise CheckFailed("replica states differ")
        wanted = set(self.cmds)
        for index, counts in enumerate(self.per_replica):
            if set(counts) != wanted:
                raise CheckFailed(f"replica {index} executed foreign or missing commands")
            if any(count != 1 for count in counts.values()):
                raise CheckFailed(f"replica {index} executed a command twice")
            if len(self.replicas[index].executed) != len(set(self.replicas[index].executed)):
                raise CheckFailed(f"replica {index} log holds a duplicate")

    def latencies(self, issue_times: dict) -> list[float]:
        return [self.first_exec[c] - issue_times[c] for c in self.cmds]

    def service_gap_max(self, issue_times: dict) -> float:
        """Longest interval with commands outstanding and none executed."""
        events = sorted(
            [(issue_times[c], 1) for c in self.cmds]
            + [(self.first_exec[c], -1) for c in self.cmds]
        )
        outstanding, since, gap = 0, 0.0, 0.0
        for t, delta in events:
            if delta > 0 and outstanding == 0:
                since = t
            if delta < 0:
                gap = max(gap, t - since)
                since = t
            outstanding += delta
        return gap


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    """What one episode measured."""

    setup_s: float
    window_s: float  # first submit -> last first execution, wall
    cpu_s: float
    latencies_ms: list[float]  # backend clock, see ms_per_tick
    service_gap_ms: float
    n_cmds: int
    fingerprint: tuple = ()  # sim: counts and latencies that must replay


@dataclass
class Deployed:
    """A cluster with its round established, replicas and client attached."""

    runtime: Any  # Simulation or the driver NetRuntime
    cluster: Any  # SMRCluster / GeneralizedCluster (a view, on sockets)
    replicas: list
    observer: Observer
    client: Any
    deployment: LoopbackDeployment | None = None


def _round_established(cluster, rnd, engine: str) -> bool:
    schedule = cluster.config.schedule
    for c in cluster.coordinators:
        if not schedule.is_coordinator_of(c.index, rnd):
            continue
        ready = c.phase1_done if engine == "instances" else c.cval is not None
        if c.crnd != rnd or not ready:
            return False
    return True


def _attach(spec, runtime, cluster, cmds, hooks, deployment=None) -> Deployed:
    """Replicas, the benchmark's observer and the client, on a live round."""
    if hooks is not None:  # learn stamps must precede the replicas' hooks
        hooks.watch_learners(spec, runtime, cluster)
    if spec.engine == "generalized":
        replicas = [BroadcastReplica(l, KVStore()) for l in cluster.learners]
    else:
        replicas = [OrderedReplica(l, KVStore()) for l in cluster.learners]
    observer = Observer(
        lambda: runtime.clock, cmds, replicas, spec.engine == "instances",
        wrap=None if hooks is None else hooks.observer_fn,
    )
    target = cluster if deployment is None else deployment.cluster
    if spec.window:
        client = PipelinedClient("c", target, window=spec.window)
    else:
        client = Client("c", target)
    for replica in replicas:
        client.watch_replica(replica)
    deployed = Deployed(runtime, cluster, replicas, observer, client, deployment)
    if hooks is not None:
        hooks.attach(spec, deployed)
    return deployed


def _sim_setup(spec: Spec, seed: int, cmds, hooks=None) -> Deployed:
    network = NetworkConfig(latency=1.0, jitter=spec.jitter)  # 1 unit per hop
    sim = Simulation(seed=seed, network=network, max_events=50_000_000)
    checkpoint = CheckpointConfig(interval=50, gc_quorum=2)
    if spec.engine == "generalized":
        cluster = build_generalized(
            sim,
            bottom=CommandHistory.bottom(kv_conflict()),
            n_coordinators=3,
            n_acceptors=3,
            n_learners=2,
            batching=GenBatchingConfig(max_batch=8),
            retransmit=RetransmitConfig(),
            checkpoint=checkpoint,
        )
    else:
        cluster = build_smr(
            sim,
            n_proposers=2,
            n_coordinators=3,
            n_acceptors=3,
            n_learners=2,
            batching=BatchingConfig(max_batch=8, pipeline_depth=4),
            retransmit=RetransmitConfig(),
            liveness=LivenessConfig(),
            checkpoint=checkpoint,
        )
    rnd = bootstrap_round(cluster.config)
    cluster.start_round(rnd)
    if not sim.run_until(lambda: _round_established(cluster, rnd, spec.engine), timeout=100.0):
        raise CheckFailed("bootstrap round not established")
    # Loss starts with the load: set-up establishes the round loss-free.
    sim.network.config = replace(network, drop_rate=spec.loss)
    return _attach(spec, sim, cluster, cmds, hooks)


def run_sim_episode(spec: Spec, seed: int, hooks=None) -> Episode:
    """One simulator episode; ``hooks`` (a tracer) may watch its layers."""
    cmds = make_commands(spec, seed)
    t0 = time.perf_counter()
    d = _sim_setup(spec, seed, cmds, hooks)
    sim, observer, client = d.runtime, d.observer, d.client
    setup_s = time.perf_counter() - t0

    cpu0, start = time.process_time(), time.perf_counter()
    if spec.window:
        client.submit(cmds)
        horizon = sim.clock + SIM_DEADLINE
    else:
        due = arrival_times(spec, seed)
        for cmd, at in zip(cmds, due):
            client.issue(cmd, delay=at)
        if spec.crash_coordinator_at is not None:
            sim.schedule(spec.crash_coordinator_at, d.cluster.coordinators[0].crash)
        horizon = sim.clock + due[-1] + SIM_DEADLINE
    first_done = lambda: observer.first_done  # noqa: E731 - O(1) per event
    converged = lambda: observer.converged  # noqa: E731
    if hooks is not None:
        first_done, converged = hooks.harness_fn(first_done), hooks.harness_fn(converged)
    sim.run_until(first_done, timeout=horizon)
    window_s = (observer.first_done_wall or time.perf_counter()) - start
    cpu_s = time.process_time() - cpu0
    sim.run_until(converged, timeout=sim.clock + SIM_DEADLINE)
    observer.check()
    latencies = observer.latencies(client.issue_times)
    episode = Episode(
        setup_s=setup_s,
        window_s=window_s,
        cpu_s=cpu_s,
        latencies_ms=[x * SIM_MS_PER_UNIT for x in latencies],
        service_gap_ms=observer.service_gap_max(client.issue_times) * SIM_MS_PER_UNIT,
        n_cmds=len(cmds),
        fingerprint=(sim.events_processed, sim.metrics.total_messages, tuple(latencies)),
    )
    if hooks is not None:
        hooks.finish_episode(episode, d)
    return episode


def net_config():
    return make_instances_config(
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=3,
        n_learners=2,
        retransmit=wall_clock_retransmit(),
        liveness=wall_clock_liveness(),
    )


def cluster_view(deployment: LoopbackDeployment) -> SMRCluster:
    """An ``SMRCluster`` over a loopback deployment's roles, so its public
    counters and ``retained_state()`` read the same on both backends."""
    topology = deployment.config.topology
    roles = deployment.roles
    return SMRCluster(
        sim=deployment.driver,
        config=deployment.config,
        proposers=[roles[p] for p in topology.proposers],
        coordinators=[roles[p] for p in topology.coordinators],
        acceptors=[roles[p] for p in topology.acceptors],
        learners=[roles[p] for p in topology.learners],
    )


async def _net_setup(spec: Spec, seed: int, cmds, hooks=None) -> Deployed:
    deployment = LoopbackDeployment(net_config(), seed=seed)
    await deployment.start()
    view = cluster_view(deployment)
    rnd = bootstrap_round(deployment.config)
    deadline = time.perf_counter() + 10.0
    while not _round_established(view, rnd, spec.engine):
        if time.perf_counter() > deadline:
            raise CheckFailed("bootstrap round not established")
        await asyncio.sleep(0)  # yield to the loop; socket reads still run
    return _attach(spec, deployment.driver, view, cmds, hooks, deployment)


async def _net_teardown(deployment: LoopbackDeployment) -> None:
    for runtime in deployment.runtimes.values():
        for process in runtime.processes.values():
            process.crash()  # cancel role timers before the sockets close
    await deployment.stop()


async def _net_episode(spec: Spec, seed: int, hooks) -> Episode:
    cmds = make_commands(spec, seed)
    t0 = time.perf_counter()
    d = await _net_setup(spec, seed, cmds, hooks)
    observer, client = d.observer, d.client
    loop = asyncio.get_running_loop()
    first_done, converged = loop.create_future(), loop.create_future()
    observer.on_first_done = lambda: first_done.done() or first_done.set_result(None)
    observer.on_converged = lambda: converged.done() or converged.set_result(None)
    setup_s = time.perf_counter() - t0

    cpu0, start = time.process_time(), time.perf_counter()
    client.submit(cmds)
    window_s = cpu_s = 0.0
    try:
        await asyncio.wait_for(first_done, timeout=NET_DEADLINE_S)
        window_s = observer.first_done_wall - start
        cpu_s = time.process_time() - cpu0
        await asyncio.wait_for(converged, timeout=NET_CONVERGE_S)
    except asyncio.TimeoutError:
        pass  # observer.check() names what is missing
    errors = d.deployment.errors()
    if errors:
        raise CheckFailed(f"runtime error: {errors[0]!r}")
    observer.check()
    episode = Episode(
        setup_s=setup_s,
        window_s=window_s,
        cpu_s=cpu_s,
        latencies_ms=[x * 1e3 for x in observer.latencies(client.issue_times)],
        service_gap_ms=observer.service_gap_max(client.issue_times) * 1e3,
        n_cmds=len(cmds),
    )
    if hooks is not None:
        hooks.finish_episode(episode, d)
    await _net_teardown(d.deployment)
    return episode


def episode_seed(spec: Spec, seed: int, index: int) -> int:
    """The seed of a run's *index*-th episode (inputs, loss, jitter).

    A run cycles through ``spec.inputs`` inputs drawn from ``seed``, so
    its numbers do not hang on one draw.  On the simulator an episode is
    a pure function of its seed: a repeat must replay exactly.
    """
    return random.Random(f"{seed}|{index % spec.inputs}").randrange(2**31)


def run_episode(spec: Spec, seed: int, hooks=None) -> Episode:
    if spec.backend == "net":
        return asyncio.run(_net_episode(spec, seed, hooks))
    return run_sim_episode(spec, seed, hooks)


def measure_setup(spec: Spec, seed: int) -> float:
    """Wall seconds from deployment construction to ready-to-submit."""
    cmds = make_commands(spec, seed)
    if spec.backend == "sim":
        t0 = time.perf_counter()
        _sim_setup(spec, seed, cmds)
        return time.perf_counter() - t0

    async def once() -> float:
        t0 = time.perf_counter()
        d = await _net_setup(spec, seed, cmds)
        elapsed = time.perf_counter() - t0
        await _net_teardown(d.deployment)
        return elapsed

    return asyncio.run(once())


# ---------------------------------------------------------------------------
# End-to-end metrics of a run
# ---------------------------------------------------------------------------


def _p99_of_blocks(episodes) -> float:
    """Median over consecutive blocks of >= MIN_SAMPLES latencies of each
    block's 99th percentile: every block has >= 10 samples beyond its
    p99, and one block slowed by a noisy neighbour cannot move it."""
    blocks, block = [], []
    for episode in episodes:
        block.extend(episode.latencies_ms)
        if len(block) >= MIN_SAMPLES:
            blocks.append(pct(block, 0.99))
            block = []
    if not blocks:  # a run that hit MAX_RUN_S first: one short block
        blocks.append(pct(block, 0.99))
    return statistics.median(blocks)


def end_to_end(episodes, setups: list[float], timed: list) -> tuple[dict[str, float], int]:
    """End-to-end metrics; latencies come from the *timed* episodes."""
    latencies = [x for e in timed for x in e.latencies_ms]
    n_cmds = sum(e.n_cmds for e in episodes)
    metrics = {
        "setup_s": statistics.median([e.setup_s for e in episodes] + setups),
        "throughput_cps": n_cmds / sum(e.window_s for e in episodes),
        "latency_p50_ms": pct(latencies, 0.50),
        "latency_p99_ms": _p99_of_blocks(timed),
        "cpu_ms_per_cmd": 1e3 * sum(e.cpu_s for e in episodes) / n_cmds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, len(latencies)
