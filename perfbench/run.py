"""The stack benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload net-clean --seed 1 --seconds 20 --trace 0

Workloads are defined in :mod:`harness` and described in
``BENCHMARK.json``.  A run repeats fixed-size *episodes* (one fresh
cluster each) until ``--seconds`` have been measured and at least
:data:`harness.MIN_SAMPLES` latencies collected; the first episode is a
warm-up that is checked but not timed.  Every episode's outputs are
checked (see :meth:`harness.Observer.check`); on the simulator every
episode of a run replays the same seed and must reproduce the same
counts and virtual latencies exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
episodes untraced for a third of the time (2 to :data:`MAX_TRACED`
episodes), then the same inputs with the layers wrapped
(:mod:`layers`), audits the recorded trace with ``repro.core.checker``
and prints the per-layer metrics; spans are written to
``.perfbench/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
outputs fail the check prints ``correct: false`` with no metrics and
exits 1; a run in a directory without the program (`src/repro`) exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: a run stops starting episodes after this many wall seconds
MAX_RUN_S = 120.0
#: extra set-ups (build, establish the round, tear down) per untraced run
SETUP_REPS = 15
#: a traced run traces at most this many episodes (spans stay in memory)
MAX_TRACED = 8


def _episodes(harness, spec, seed: int, seconds: float, min_episodes: int,
              min_samples: int = 0, max_episodes: int = 10**9):
    """Run episodes 1, 2, ... until *seconds* are measured and at least
    *min_episodes* and *min_samples* latencies are in."""
    out, start = [], time.perf_counter()
    while len(out) < max_episodes:
        out.append(harness.run_episode(spec, harness.episode_seed(spec, seed, 1 + len(out))))
        elapsed = time.perf_counter() - start
        samples = sum(len(e.latencies_ms) for e in out)
        if elapsed >= MAX_RUN_S:
            break
        if elapsed >= seconds and len(out) >= min_episodes and samples >= min_samples:
            break
    return out


def _check_replay(spec, episodes, inputs: int) -> None:
    """Simulator episodes 0, 1, ... of a run: a repeated input must replay
    exactly (episode *i* runs the input of episode *i* - *inputs*)."""
    if spec.backend != "sim":
        return
    for earlier, later in zip(episodes, episodes[inputs:]):
        if later.fingerprint != earlier.fingerprint:
            raise AssertionError("a simulator episode did not replay exactly")


def _units() -> dict[str, str]:
    """Metric name -> unit, as declared in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import harness

    spec = harness.WORKLOADS[workload]
    units = _units()
    inputs = spec.inputs
    warm = harness.run_episode(spec, harness.episode_seed(spec, seed, 0))
    if not trace:
        setups = [harness.measure_setup(spec, seed) for _ in range(SETUP_REPS)]
        episodes = _episodes(harness, spec, seed, seconds, inputs, harness.MIN_SAMPLES)
        _check_replay(spec, [warm, *episodes], inputs)
        # Simulated latencies are exact per input: take each input once, so
        # they repeat exactly for a seed however many episodes fit the time.
        timed = episodes[:inputs] if spec.backend == "sim" else episodes
        metrics, samples = harness.end_to_end(episodes, setups, timed)
        print(f"{workload}: {len(episodes)} episodes, {samples} latency samples "
              f"({samples // 100} beyond p99)", file=sys.stderr)
    else:
        import layers

        # The same inputs twice: untraced, then traced.  On the simulator
        # tracing must not change a single event.
        untraced = _episodes(harness, spec, seed, seconds / 3, 2, max_episodes=MAX_TRACED)
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = [
                harness.run_episode(spec, harness.episode_seed(spec, seed, 1 + i), tracer)
                for i in range(len(untraced))
            ]
        finally:
            tracer.uninstall()
        _check_replay(spec, [*untraced, *traced], len(untraced))
        episodes = [*untraced, *traced]
        overhead = statistics.median(t.window_s / u.window_s for t, u in zip(traced, untraced))
        metrics = tracer.metrics(spec, overhead)
        tracer.write(os.path.join(os.getcwd(), ".perfbench", f"trace-{workload}.jsonl"))
        if metrics["checker.violations"]:
            raise AssertionError("trace checker reported violations")
    return {
        "correct": True,
        "attempted": sum(e.n_cmds for e in [warm, *episodes]),
        "failed": 0,  # an episode with a command not executed fails its check
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except AssertionError as exc:  # CheckFailed and the replay/audit checks
        print(f"output check failed: {exc}", file=sys.stderr)
        failed = getattr(exc, "failed", 0) or 1
        print(json.dumps({"correct": False, "attempted": max(failed, 1), "failed": failed,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
