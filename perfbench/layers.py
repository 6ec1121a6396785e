"""The traced run: spans around calls into each layer, and per-layer metrics.

The benchmark never edits the program.  For a traced run it wraps the
public entry points of each layer -- ``encode``/``decode`` (also the
names bound in ``repro.net.transport``), ``NetRuntime.send``, every
role class's ``Process.deliver``, the ``CommandHistory`` lattice
operations, ``Simulation.step``, the ``StableStorage`` writers and
``KVStore.apply`` -- and restores them afterwards.  Every wrapped call
is a span ``(id, name, start, end, parent, cid)`` kept in memory;
a layer's *self time* is its spans' duration minus the part covered by
child spans.  Counts are read from the roles' public counters.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from repro.core.checker import TraceEvent, TraceRecorder, check_trace
from repro.core.generalized import GenAcceptor, GenCoordinator, GenLearner, GenProposer
from repro.core.runtime import Process
from repro.cstruct.history import CommandHistory
from repro.net import codec, transport
from repro.net.transport import NetRuntime
from repro.sim.scheduler import Simulation
from repro.sim.storage import StableStorage
from repro.smr.instances import (
    Batch,
    SMRAcceptor,
    SMRCoordinator,
    SMRLearner,
    SMRProposer,
)
from repro.smr.machine import KVStore

from harness import ms_per_tick, pct

ROLES = {
    "proposer": (SMRProposer, GenProposer),
    "coordinator": (SMRCoordinator, GenCoordinator),
    "acceptor": (SMRAcceptor, GenAcceptor),
    "learner": (SMRLearner, GenLearner),
}
CSTRUCT_OPS = ("extend", "lub", "glb", "leq", "is_compatible", "stable_split")
STAGES = ("queue", "order", "execute", "reply")
HARNESS = ("harness.observer", "harness.predicate")


class Tracer:
    """Spans at layer boundaries plus the per-command stage stamps."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, cid)
        self.command_spans: list[tuple] = []  # per command: its stages
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self.clock: Callable[[], float] = lambda: 0.0
        self.propose_t: dict[Any, float] = {}
        self.order_t: dict[Any, float] = {}
        self.loop_lag: list[float] = []
        self.sent_2a = 0
        self.cmds_in_2a = 0
        self._last_2a: dict[tuple, int] = {}
        self.recorder: TraceRecorder | None = None
        self.episodes: list[dict] = []
        self._probe = None

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                spans.append((span_id, name, t0, t1, parent, None))

        return wrapped

    def harness_fn(self, fn: Callable) -> Callable:
        return self.span("harness.predicate", fn)

    def observer_fn(self, fn: Callable) -> Callable:
        return self.span("harness.observer", fn)

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, self.span(name, getattr(owner, attr)))

    def install(self) -> None:
        """Wrap every layer's entry points (undone by :meth:`uninstall`)."""
        self._wrap(transport, "encode", "codec.encode")
        self._wrap(transport, "decode", "codec.decode")
        self._wrap(codec, "encode", "codec.encode")
        self._wrap(codec, "decode", "codec.decode")
        self._wrap(NetRuntime, "send", "transport.send")
        for role, classes in ROLES.items():
            for cls in classes:
                self._wrap(cls, "deliver", role)
        for cls in (SMRCoordinator, GenCoordinator):
            self._wrap(cls, "start_round", "mcoord.start_round")
        for op in CSTRUCT_OPS:
            self._wrap(CommandHistory, op, f"cstruct.{op}")
        self._wrap(Simulation, "step", "sim.step")
        self._wrap(StableStorage, "write", "storage.write")
        self._wrap(StableStorage, "write_many", "storage.write")
        self._wrap(KVStore, "apply", "replica.apply")
        self._wrap(TraceRecorder, "record", "trace.recorder")

        tracer = self
        set_timer, set_periodic = Process.set_timer, Process.set_periodic_timer
        timer_span = self.span  # timers run protocol work outside deliver

        def traced_timer(proc, delay, action):
            return set_timer(proc, delay, timer_span("timer", action))

        def traced_periodic(proc, period, action):
            return set_periodic(proc, period, timer_span("timer", action))

        self._patch(Process, "set_timer", traced_timer)
        self._patch(Process, "set_periodic_timer", traced_periodic)
        send = Process.send

        def counted_send(proc, dst, msg):
            tracer._count_2a(proc.pid, dst, msg)
            return send(proc, dst, msg)

        self._patch(Process, "send", counted_send)
        for cls in (SMRProposer, GenProposer):
            propose = cls.propose

            def stamped(proc, cmd, _propose=propose):
                tracer.propose_t.setdefault(cmd, tracer.clock())
                return _propose(proc, cmd)

            self._patch(cls, "propose", stamped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _count_2a(self, src, dst, msg) -> None:
        kind = type(msg).__name__
        if kind == "I2a":
            if not msg.reannounce:
                self.sent_2a += 1
                self.cmds_in_2a += len(msg.val) if isinstance(msg.val, Batch) else 1
        elif kind == "Phase2a":
            size = len(msg.val)
            last = self._last_2a.get((src, dst, msg.rnd), 0)
            self._last_2a[(src, dst, msg.rnd)] = size
            self.sent_2a += 1
            self.cmds_in_2a += max(0, size - last)
        elif kind == "Phase2aDelta" and msg.cmds:
            self.sent_2a += 1
            self.cmds_in_2a += len(msg.cmds)

    # -- per-episode attachment (called by the harness) ----------------------

    def watch_learners(self, spec, runtime, cluster) -> None:
        """Stamp each command's first learn, ahead of the replicas' hooks."""
        self.clock = lambda: runtime.clock
        for learner in cluster.learners:
            if spec.engine == "instances":
                learner.on_deliver(self.span("trace.hook", self._order_instances))
            else:
                learner.on_learn(self.span("trace.hook", self._order_generalized))

    def attach(self, spec, deployed) -> None:
        self._episode = {"t0": time.perf_counter(), "retained": 0}
        self._deployed = deployed
        recorder = TraceRecorder(deployed.runtime)
        self.recorder = recorder
        if spec.engine == "instances":
            recorder.attach_smr(deployed.cluster, replicas=deployed.replicas)
        else:
            recorder.attach_generalized(deployed.cluster, replicas=deployed.replicas)
        for replica in deployed.replicas:
            replica.on_execute(self.span("trace.hook", self._sample_retained))
        if spec.backend == "net":
            self._start_probe()

    def _order_instances(self, instance, cmd) -> None:
        self.order_t.setdefault(cmd, self.clock())

    def _order_generalized(self, new_cmds, learned) -> None:
        now = self.clock()
        for cmd in new_cmds:
            self.order_t.setdefault(cmd, now)

    def _sample_retained(self, cmd, result) -> None:
        if len(self._deployed.observer.first_exec) % 100 == 0:
            self._note_retained()

    def _note_retained(self) -> None:
        e = self._episode
        e["retained"] = max(e["retained"], _retained(self._deployed.cluster))

    def _start_probe(self) -> None:
        loop = asyncio.get_running_loop()
        period = 0.005

        def tick(expected: float) -> None:
            now = loop.time()
            self.loop_lag.append(now - expected)
            self._probe = loop.call_at(now + period, tick, now + period)

        start = loop.time() + period
        self._probe = loop.call_at(start, tick, start)

    def finish_episode(self, episode, deployed) -> None:
        """Fold one finished episode's counters and stage stamps."""
        if self._probe is not None:
            self._probe.cancel()
            self._probe = None
        e = self._episode
        e["wall"] = time.perf_counter() - e["t0"]
        e["window_s"] = episode.window_s
        e["n"] = episode.n_cmds
        e["service_gap_ms"] = episode.service_gap_ms
        self._note_retained()
        e["counts"] = _counts(deployed)
        observer, client = deployed.observer, deployed.client
        stages = {s: [] for s in STAGES}
        for cmd in observer.cmds:
            issued = client.issue_times[cmd]
            executed = observer.first_exec[cmd]
            bounds = (
                issued,
                self.propose_t.get(cmd, issued),
                self.order_t.get(cmd, executed),
                executed,
                client.completed.get(cmd, executed),
            )
            root = self._next_id
            self._next_id += 1 + len(STAGES)
            self.command_spans.append((root, "command", issued, bounds[-1], -1, cmd.cid))
            for offset, stage in enumerate(STAGES):
                start, end = bounds[offset], bounds[offset + 1]
                stages[stage].append(end - start)
                self.command_spans.append(
                    (root + 1 + offset, f"stage.{stage}", start, end, root, cmd.cid)
                )
        e["stages"] = stages
        e["first_exec"] = sorted(observer.first_exec.values())
        e["violations"] = self._audit(observer, client)
        self.episodes.append(e)
        self.propose_t, self.order_t = {}, {}
        self._last_2a.clear()
        self._deployed = None

    def _audit(self, observer, client) -> list[str]:
        """Add the client's intervals to the recorded trace and audit it."""
        events = self.recorder.events
        for cmd in observer.cmds:
            args = dict(cid=cmd.cid, op=cmd.op, key=cmd.key, arg=cmd.arg)
            issued, completed = client.issue_times[cmd], client.completed[cmd]
            events.append(TraceEvent(t=issued, site="client", kind="propose", **args))
            events.append(TraceEvent(t=issued, site="client", kind="invoke", **args))
            events.append(TraceEvent(t=completed, site="client", kind="complete", cid=cmd.cid))
        return audit(events)

    # -- results ---------------------------------------------------------------

    def metrics(self, spec, overhead: float) -> dict[str, float]:
        """Per-layer metrics over the traced episodes; *overhead* is the
        traced over untraced wall time of the same inputs."""
        eps = self.episodes
        n = sum(e["n"] for e in eps)
        wall = sum(e["wall"] for e in eps)
        counts: Counter = Counter()
        for e in eps:
            counts.update(e["counts"])
        calls, self_s = self.calls, self.self_s

        def per_cmd(count: float) -> float:
            return count / n

        def us_per_cmd(name: str) -> float:
            return 1e6 * self_s[name] / n

        def per_call(name: str) -> float:  # µs per wrapped call
            return 1e6 * self_s[name] / calls[name] if calls[name] else 0.0

        out: dict[str, float] = {}
        codec_s = self.self_s["codec.encode"] + self.self_s["codec.decode"]
        out["codec.frames_per_cmd"] = per_cmd(self.calls["codec.encode"])
        out["codec.bytes_per_cmd"] = per_cmd(counts["bytes"])
        out["codec.encode_us"] = per_call("codec.encode")
        out["codec.decode_us"] = per_call("codec.decode")
        out["codec.share"] = codec_s / wall
        out["transport.send_us"] = per_call("transport.send")
        out["transport.tcp_frames_per_cmd"] = per_cmd(counts["tcp_frames"])
        out["transport.drops_per_cmd"] = per_cmd(counts["drops"])
        out["transport.loop_lag_p99_ms"] = 1e3 * pct(self.loop_lag, 0.99)
        for role in ROLES:
            out[f"{role}.us_per_cmd"] = us_per_cmd(role)
            out[f"{role}.msgs_per_cmd"] = per_cmd(self.calls[role])
        out["timer.us_per_cmd"] = us_per_cmd("timer")
        out["coordinator.cmds_per_2a"] = self.cmds_in_2a / self.sent_2a if self.sent_2a else 0.0
        cstruct_calls = sum(self.calls[f"cstruct.{op}"] for op in CSTRUCT_OPS)
        cstruct_s = sum(self.self_s[f"cstruct.{op}"] for op in CSTRUCT_OPS)
        out["cstruct.calls_per_cmd"] = per_cmd(cstruct_calls)
        out["cstruct.us_per_cmd"] = 1e6 * cstruct_s / n
        out["cstruct.stable_split_us_per_cmd"] = us_per_cmd("cstruct.stable_split")
        out["cstruct.share"] = cstruct_s / wall
        out["sim.events_per_cmd"] = per_cmd(counts["sim_events"])
        out["sim.msgs_per_cmd"] = per_cmd(counts["sim_msgs"])
        out["sim.step_us"] = per_call("sim.step")
        out["storage.writes_per_cmd"] = per_cmd(counts["writes"])
        out["storage.acceptor_writes_per_cmd"] = per_cmd(counts["acceptor_writes"])
        out["storage.us_per_cmd"] = us_per_cmd("storage.write")
        kcmd = n / 1000.0
        out["reliability.retransmits_per_kcmd"] = counts["retransmits"] / kcmd
        out["reliability.reannounce_per_kcmd"] = counts["reannounce"] / kcmd
        out["reliability.catchup_per_kcmd"] = counts["catchup"] / kcmd
        out["checkpoint.snapshots_per_kcmd"] = counts["snapshots"] / kcmd
        out["retained.max_state"] = float(max(e["retained"] for e in eps))
        out["mcoord.collisions_per_kcmd"] = counts["collisions"] / kcmd
        out["mcoord.round_changes"] = float(self.calls["mcoord.start_round"] - len(eps))
        out["replica.apply_us"] = per_call("replica.apply")
        stages = {s: [x for e in eps for x in e["stages"][s]] for s in STAGES}
        scale = ms_per_tick(spec)
        for stage in STAGES:
            out[f"stage.{stage}_p50_ms"] = scale * pct(stages[stage], 0.50)
            out[f"stage.{stage}_p99_ms"] = scale * pct(stages[stage], 0.99)
        out["client.cps_tail_ratio"] = statistics.median(
            _tail_ratio(e["first_exec"]) for e in eps
        )
        harness_s = sum(self.self_s[name] for name in HARNESS)
        out["harness.share"] = harness_s / wall
        out["trace.overhead"] = overhead
        out["checker.violations"] = float(sum(len(e["violations"]) for e in eps))
        out["latency.samples"] = float(n)
        out["availability.service_gap_max_ms"] = statistics.median(
            e["service_gap_ms"] for e in eps
        )
        return out

    def write(self, path: str) -> None:
        """Write every span, one JSON array per line, after a header."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "span": ["id", "name", "start", "end", "parent", "cid"],
                "clock": "layer spans: time.perf_counter() s; command and "
                         "stage spans: the backend clock (sockets: s; "
                         "simulator: units of one message delay)",
                "violations": [v for e in self.episodes for v in e["violations"]],
            }) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for span in self.command_spans:
                fh.write(json.dumps(span) + "\n")


def audit(events) -> list[str]:
    """``repro.core.checker``'s violations of a recorded trace, rendered."""
    return [v.render() for v in check_trace(events).violations]


def _tail_ratio(first_exec: list[float]) -> float:
    """Last quarter's throughput over the first quarter's."""
    q = len(first_exec) // 4
    if q < 2:
        return 1.0
    head = first_exec[q - 1] - first_exec[0]
    tail = first_exec[-1] - first_exec[-q]
    return head / tail if tail > 0 else 1.0


def _retained(cluster) -> int:
    stats = getattr(cluster, "retained_state", None) or cluster.retained_history
    return max(stats().values())


def _counts(deployed) -> Counter:
    cluster = deployed.cluster
    c: Counter = Counter()
    if deployed.deployment is not None:
        runtimes = list(deployed.deployment.runtimes.values())
        c["bytes"] = sum(r.metrics.total_bytes for r in runtimes)
        c["tcp_frames"] = sum(r.frames_tcp for r in runtimes)
        c["drops"] = sum(r.metrics.messages_dropped for r in runtimes)
    else:
        sim = deployed.runtime
        c["sim_events"] = sim.events_processed
        c["sim_msgs"] = sim.metrics.total_messages
        c["drops"] = sim.metrics.messages_dropped
    roles = [*cluster.proposers, *cluster.coordinators, *cluster.acceptors, *cluster.learners]
    c["writes"] = sum(p.storage.write_count for p in roles)
    c["acceptor_writes"] = sum(a.storage.write_count for a in cluster.acceptors)
    stats = cluster.retransmission_stats()
    c["retransmits"] = stats["retransmissions"]
    c["reannounce"] = stats["reannounced_2a"]
    c["catchup"] = stats["catchup_requests"]
    c["snapshots"] = cluster.checkpoint_stats()["snapshots"]
    c["collisions"] = sum(a.collisions_detected for a in cluster.acceptors)
    return c
