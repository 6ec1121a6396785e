"""Collect result sets and compare two of them, metric by metric.

A *result set* is a JSON file ``{"label": ..., "runs": [...]}`` whose
runs are ``{"workload", "seed", "trace", "result"}`` with ``result``
the last line ``run.py`` printed.  Subcommands::

    # ten seeds of every workload, from one checkout
    python3 perfbench/compare.py collect --out base.json --seeds 1-10

    # parent and change interleaved per seed, alternating which runs first
    python3 perfbench/compare.py pair PARENT_DIR CHANGE_DIR \\
        --out-base base.json --out-change change.json --seeds 1-10

    # per workload and end-to-end metric: median, quartiles, spread, verdict
    python3 perfbench/compare.py compare base.json change.json
    python3 perfbench/compare.py compare base.json        # one set: spreads only

Verdicts follow the pairing rule: runs pair by (workload, seed).
``improved`` needs the change to win at least 9 in 10 pairs (ties count
for neither) and the medians to differ by more than the base's
interquartile distance; ``worse`` is a median worse than the base's by
more than the metric's ``bound`` in ``BENCHMARK.json``; a metric whose
spread in either set exceeds its bound is ``unresolved`` unless every
change run beats every base run; anything else is ``no worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: str, spec: dict, workload: str, seed: int, trace: bool) -> dict:
    """One benchmark run in *checkout*; the parsed last line of its output."""
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    if command[0] == "python3":
        command[0] = sys.executable
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def _record(runs: list, workload: str, seed: int, trace: bool, result: dict) -> None:
    runs.append({"workload": workload, "seed": seed, "trace": trace, "result": result})
    shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {int(trace)}: {shown}", file=sys.stderr, flush=True)


def _write(path: str, label: str, runs: list) -> None:
    with open(path, "w") as fh:
        json.dump({"label": label, "runs": runs}, fh, indent=1)
        fh.write("\n")


def collect(args, spec: dict) -> None:
    runs: list = []
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    for workload in workloads:
        for seed, trace in [(s, False) for s in seeds] + [(seeds[0], True)] * args.traced:
            result = run_once(args.checkout, spec, workload, seed, trace)
            _record(runs, workload, seed, trace, result)
    _write(args.out, args.label, runs)


def pair(args, spec: dict) -> None:
    base: list = []
    change: list = []
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for index, seed in enumerate(parse_seeds(args.seeds)):
            sides = [(args.parent, base), (args.change, change)]
            if index % 2:
                sides.reverse()  # alternate which side runs first
            for checkout, runs in sides:
                result = run_once(checkout, spec, workload, seed, False)
                _record(runs, workload, seed, False, result)
    _write(args.out_base, "parent", base)
    _write(args.out_change, "change", change)


def _values(result_set: dict, workload: str, metric: str) -> dict[int, float]:
    return {
        run["seed"]: run["result"]["metrics"][metric]["value"]
        for run in result_set["runs"]
        if run["workload"] == workload and not run["trace"]
        and metric in run["result"]["metrics"]
    }


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(base: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_med, b_q1, b_q3, b_spread = summary(list(base.values()))
    c_med, _, _, c_spread = summary(list(change.values()))
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    if seeds and wins >= 0.9 * len(seeds) and sign * (c_med - b_med) > b_q3 - b_q1:
        return "improved"
    if sign * (b_med - c_med) > bound * abs(b_med):
        return "worse"
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in base.values())
    if max(b_spread, c_spread) > bound and not all_better:
        return "unresolved"
    return "no worse"


def compare(args, spec: dict) -> int:
    sets = []
    for path in args.sets:
        with open(path) as fh:
            sets.append(json.load(fh))
    worse = 0
    header = (f"{'workload':18} {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}")
    print(header + ("  change median  verdict" if len(sets) == 2 else "  steady"))
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = _values(sets[0], workload, name)
            if not base:
                continue
            med, q1, q3, spread = summary(list(base.values()))
            row = (f"{workload:18} {name:16} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                   f"{spread:7.3f} {bound:6.2f}")
            if len(sets) == 1:
                # steady: spread within a third of the bound (setup_s is exempt)
                ok = spread <= bound / 3 or name == "setup_s"
                print(f"{row}  {'yes' if ok else 'NO'}")
                continue
            change = _values(sets[1], workload, name)
            result = verdict(base, change, metric["better"], bound)
            worse += result == "worse"
            print(f"{row}  {summary(list(change.values()))[0]:13.5g}  {result}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run every workload over seeds in one checkout")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--checkout", default=os.path.dirname(HERE))
    c.add_argument("--label", default="")
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--traced", action="store_true", help="add one traced run per workload")
    p = sub.add_parser("pair", help="interleave parent and change runs per seed")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--out-base", required=True)
    p.add_argument("--out-change", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", nargs="*")
    k = sub.add_parser("compare", help="medians, quartiles and verdicts")
    k.add_argument("sets", nargs="+", help="one or two result sets (base first)")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.cmd == "collect":
        collect(args, spec)
        return 0
    if args.cmd == "pair":
        pair(args, spec)
        return 0
    if len(args.sets) > 2:
        parser.error("compare takes one or two result sets")
    return compare(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
