"""Self-tests of the benchmark: its checks must be able to fail.

Run from the repository root (the file name keeps it out of the
default test collection)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from repro.core.checker import trace_from_json  # noqa: E402
from repro.cstruct.commands import Command  # noqa: E402

FIXTURES = os.path.join(ROOT, "tests", "checker_fixtures")


def _small(name: str, n_cmds: int = 300) -> harness.Spec:
    spec = harness.WORKLOADS[name]
    if spec.crash_coordinator_at is not None:  # keep the crash mid-run
        crash = spec.crash_coordinator_at * n_cmds / spec.n_cmds
        return dataclasses.replace(spec, n_cmds=n_cmds, crash_coordinator_at=crash)
    return dataclasses.replace(spec, n_cmds=n_cmds)


# -- the trace audit ---------------------------------------------------------


def test_audit_is_red_on_the_divergent_fixture():
    with open(os.path.join(FIXTURES, "divergent_trace.json")) as fh:
        events = trace_from_json(fh.read())
    assert layers.audit(events), "the audit must report the planted divergence"


def test_audit_is_green_on_the_clean_fixture():
    with open(os.path.join(FIXTURES, "clean_trace.json")) as fh:
        events = trace_from_json(fh.read())
    assert layers.audit(events) == []


# -- the output check --------------------------------------------------------


class _Replica:
    """Just what :class:`harness.Observer` reads from a replica."""

    class _Learner:
        def on_adopt(self, callback) -> None:
            pass

    class _Machine:
        def __init__(self, state) -> None:
            self.state = state

        def snapshot(self):
            return self.state

    def __init__(self, state=()) -> None:
        self.learner = self._Learner()
        self.machine = self._Machine(state)
        self.executed: list = []
        self._observers: list = []

    def on_execute(self, observer) -> None:
        self._observers.append(observer)

    def run(self, cmd) -> None:
        self.executed.append(cmd)
        for observer in self._observers:
            observer(cmd, None)


def _commands(n: int, key: str = "k") -> list:
    return [Command(f"c{i}", "put", key, i) for i in range(n)]


def _observer(n_replicas: int = 2, total_order: bool = True, states=None):
    cmds = _commands(3)
    states = states or [()] * n_replicas
    replicas = [_Replica(state) for state in states]
    clock = iter(range(1000))
    return cmds, replicas, harness.Observer(lambda: next(clock), cmds, replicas, total_order)


def test_check_passes_when_a_lagging_replica_catches_up():
    cmds, (a, b), observer = _observer()
    for cmd in cmds:
        a.run(cmd)  # b lags: a prefix, not a divergence
    assert observer.first_done and observer.window_orders_ok
    for cmd in cmds:
        b.run(cmd)
    observer.check()


def test_check_is_red_on_divergent_orders():
    cmds, (a, b), observer = _observer()
    for cmd in cmds:
        a.run(cmd)
    for cmd in reversed(cmds):
        b.run(cmd)
    with pytest.raises(harness.CheckFailed):
        observer.check()


def test_check_is_red_on_a_double_execution():
    cmds, (a, b), observer = _observer()
    for cmd in cmds:
        a.run(cmd)
        b.run(cmd)
    a.run(cmds[0])
    with pytest.raises(harness.CheckFailed, match="twice|duplicate|differ"):
        observer.check()


def test_check_is_red_on_differing_states():
    cmds, (a, b), observer = _observer(states=[(("k", 1),), (("k", 2),)])
    for cmd in cmds:
        a.run(cmd)
        b.run(cmd)
    with pytest.raises(harness.CheckFailed, match="states"):
        observer.check()


def test_check_is_red_on_a_missing_command():
    cmds, (a, b), observer = _observer()
    for cmd in cmds[:-1]:
        a.run(cmd)
        b.run(cmd)
    with pytest.raises(harness.CheckFailed) as info:
        observer.check()
    assert info.value.failed == 1


def test_generalized_check_allows_commuting_reorders_only():
    reads = [Command("r0", "get", "k"), Command("r1", "get", "k")]
    _, (a, b), observer = _observer(total_order=False)
    observer.cmds, observer.n = reads, 2
    a.run(reads[0])
    a.run(reads[1])
    b.run(reads[1])
    b.run(reads[0])
    observer.check()  # two reads of one key commute


# -- the harness on the simulator ----------------------------------------------


@pytest.mark.parametrize("name", ["sim-gen-conflict", "sim-smr-faults"])
def test_sim_episode_replays_exactly(name):
    spec = _small(name)
    first = harness.run_episode(spec, 7)
    again = harness.run_episode(spec, 7)
    other = harness.run_episode(spec, 8)
    assert first.fingerprint == again.fingerprint
    assert first.fingerprint != other.fingerprint


@pytest.mark.parametrize("name", ["sim-gen-conflict", "sim-smr-faults"])
def test_harness_share_is_under_five_percent_on_the_simulator(name):
    spec = _small(name)
    untraced = harness.run_episode(spec, 3)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = harness.run_episode(spec, 3, tracer)
    finally:
        tracer.uninstall()
    assert traced.fingerprint == untraced.fingerprint, "tracing changed the run"
    metrics = tracer.metrics(spec, traced.window_s / untraced.window_s)
    assert metrics["harness.share"] < 0.05
    assert metrics["checker.violations"] == 0
    assert metrics["sim.events_per_cmd"] > 0 and metrics["codec.frames_per_cmd"] == 0


def test_open_loop_latency_is_timed_from_the_due_time():
    spec = _small("sim-smr-faults")
    due = harness.arrival_times(spec, 5)
    assert due == sorted(due) and len(due) == spec.n_cmds
    assert harness.arrival_times(spec, 5) == due


# -- the command line ------------------------------------------------------------


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run must fail."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "net-clean", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_names_every_printed_metric():
    spec = compare.load_spec()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    tracer = layers.Tracer()
    small = _small("sim-smr-faults", 200)
    tracer.install()
    try:
        episode = harness.run_episode(small, 1, tracer)
    finally:
        tracer.uninstall()
    assert set(tracer.metrics(small, 1.0)) == per_layer
    metrics, _ = harness.end_to_end([episode], [episode.setup_s], [episode])
    assert set(metrics) == end_to_end
    assert all(value > 0 for value in metrics.values())


# -- the compare script ------------------------------------------------------------


def _set(values: dict[int, float]) -> dict:
    return {"runs": [
        {"workload": "w", "seed": seed, "trace": False,
         "result": {"metrics": {"m": {"value": value, "unit": "1/s"}}}}
        for seed, value in values.items()
    ]}


def _runs(base: float, step: float, period: int = 3) -> dict[int, float]:
    return {seed: base + step * (seed % period) for seed in range(10)}


@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        (_runs(100, 1), _runs(130, 1), "higher", "improved"),
        (_runs(100, 1), _runs(60, 1), "higher", "worse"),
        (_runs(100, 1), _runs(99, 1), "higher", "no worse"),
        (_runs(100, 60, 2), _runs(100, 60, 2), "higher", "unresolved"),
        (_runs(10, 1, 2), _runs(7, 1, 2), "lower", "improved"),
    ],
)
def test_compare_verdicts(base, change, better, expected):
    b = compare._values(_set(base), "w", "m")
    c = compare._values(_set(change), "w", "m")
    assert compare.verdict(b, c, better, 0.25) == expected


def test_benchmark_json_keeps_the_contract():
    spec = compare.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(len(n) <= 64 for n in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    json.dumps(spec)
