#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarized by the pairs rule.

Run from anywhere:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload desk-comb paper-comb-n400 \\
        --seed 4 --pairs 10 --seconds 30

PARENT and CHANGE are checkout directories, each with its own
``benchmark/run.py`` and ``src/``.  Pair i runs ``benchmark/run.py --trace 0``
once in each checkout, one process at a time; the parent goes first in even
pairs and the change in odd ones, so a drift in machine speed falls on both
sides alike.  With several workloads, each runs all its pairs in turn and
gets its own summary, headed by its name.

For every end-to-end metric in this repository's ``BENCHMARK.json`` it
prints each side's median and quartiles, the pairs the change wins (ties
count for neither side) and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs and the medians
  differ by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: neither, but the parent's interquartile range, relative to
  its median, exceeds the bound, so the runs spread too widely to call the
  metric unchanged; unless every change run reads better than every parent
  run;
- ``-`` otherwise.

A pair whose ``mean_error_px`` differs between the sides, or a run with a
failed check, is flagged, and the exit code is then 1 (for a flag in any
workload).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_side(checkout: Path, workload: str, args, trace: int = 0) -> dict:
    """The result object (last stdout line) of one benchmark run at
    ``args.seed`` and ``args.seconds``, traced if ``trace`` is 1."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"{checkout}: benchmark exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines for (parent, change) result objects, and whether a pair
    disagreed on ``mean_error_px`` or a run failed a check.  ``end_to_end``
    is the ``BENCHMARK.json`` list of {name, better, bound}."""
    lines = [f"{len(pairs)} pairs; median [q1, q3] per side"]
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        wins = sum((n > o) if higher else (n < o) for o, n in zip(old, new))
        worse_by = (om - nm if higher else nm - om) / abs(om) if om else 0.0
        spread = (o3 - o1) / abs(om) if om else 0.0
        all_better = min(new) > max(old) if higher else max(new) < min(old)
        if 10 * wins >= 9 * len(pairs) and abs(nm - om) > o3 - o1:
            verdict = "gain"
        elif worse_by > metric["bound"]:
            verdict = "worse"
        elif spread > metric["bound"] and not all_better:
            verdict = "unresolved"
        else:
            verdict = "-"
        lines.append(
            f"{name:14s} parent {om:.6g} [{o1:.6g}, {o3:.6g}]  change {nm:.6g} [{n1:.6g}, {n3:.6g}]"
            f"  ratio {nm / om if om else float('nan'):.3f}  wins {wins}/{len(pairs)}  {verdict}"
        )
    flagged = False
    for i, (p, c) in enumerate(pairs):
        errors = [r["metrics"]["mean_error_px"]["value"] for r in (p, c)]
        if errors[0] != errors[1]:
            lines.append(f"FLAG pair {i}: mean_error_px {errors[0]!r} (parent) != {errors[1]!r} (change)")
            flagged = True
        for side, r in (("parent", p), ("change", c)):
            if r["failed"] or not r["correct"]:
                lines.append(f"FLAG pair {i}: {side} failed {r['failed']} of {r['attempted']}")
                flagged = True
    return lines, flagged


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must lie in (0, 600]")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    known = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for workload in args.workload:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; BENCHMARK.json has {', '.join(known)}")
    for checkout in (args.parent, args.change):
        if not (checkout / "benchmark" / "run.py").is_file():
            parser.error(f"{checkout}: no benchmark/run.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    any_flagged = False
    for workload in args.workload:
        print(f"workload {workload}", flush=True)
        pairs = []
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)  # the parent first in even pairs
            results = {j: run_side((args.parent, args.change)[j], workload, args) for j in order}
            pairs.append((results[0], results[1]))
            fps = [r["metrics"]["frames_per_s"]["value"] for r in pairs[-1]]
            print(f"pair {i}: frames_per_s parent {fps[0]:.4g} change {fps[1]:.4g}", flush=True)
        lines, flagged = summarize(pairs, end_to_end)
        print("\n".join(lines), flush=True)
        any_flagged |= flagged
    return 1 if any_flagged else 0


if __name__ == "__main__":
    sys.exit(main())
