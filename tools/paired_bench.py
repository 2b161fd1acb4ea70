"""Paired benchmark runs of HEAD against the working tree.

For each workload, runs `perfbench/run.py --trace 0` for the `run_seconds`
of BENCHMARK.json once on each side per pair, at one seed per pair,
alternating which side goes first. HEAD, the parent of an uncommitted
change, is exported with `git archive` into a temporary directory, which is
removed afterwards; perfbench/ is only run, never changed. Prints one line
per run as it finishes (workload, seed, side and its end-to-end metrics),
so a failing run loses nothing already measured. Then prints, per
end-to-end metric of BENCHMARK.json: HEAD's median and quartiles, the
working tree's median, the change of the medians and the number of pairs in
which the working tree was better. A SIGTERM stops the run as an exception
does: the perfbench child is killed and the export removed.

Usage: python tools/paired_bench.py [--pairs N] [--first-seed K] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(folder: Path) -> None:
    """Write the files of HEAD into `folder`."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"],
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(folder)], input=archive, check=True)


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced perfbench run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct") or result.get("failed"):
        raise SystemExit(f"{checkout} {workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(workload: str, seeds: range, runs: dict, better: dict) -> None:
    print(f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
    print(f"  {'metric':<14} {'HEAD median [q1, q3]':<32} {'change':>10} {'delta':>8}  better")
    for name, direction in better.items():
        base = [r[name] for r in runs["base"]]
        work = [r[name] for r in runs["work"]]
        q1, q3 = quartiles(base)
        b, w = statistics.median(base), statistics.median(work)
        sign = -1 if direction == "lower" else 1
        wins = sum(sign * (y - x) > 0 for x, y in zip(base, work))
        delta = f"{(w - b) / b:+.1%}" if b else "n/a"
        span = f"{b:.4g} [{q1:.4g}, {q3:.4g}]"
        print(f"  {name:<14} {span:<32} {w:>10.4g} {delta:>8}  {wins}/{len(seeds)}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help=f"default: all of {', '.join(names)}")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.pairs)

    # Without a handler SIGTERM ends the process at once; SystemExit unwinds
    # it, so `subprocess.run` kills the child it waits on and `finally` runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    folder = Path(tempfile.mkdtemp(prefix="paired-bench-"))
    try:
        export(folder)
        sides = {"base": folder, "work": ROOT}
        for workload in args.workloads or names:
            runs = {"base": [], "work": []}
            for i, seed in enumerate(seeds):
                order = ("base", "work") if i % 2 == 0 else ("work", "base")
                for side in order:
                    run = bench(sides[side], workload, seed, spec["run_seconds"])
                    runs[side].append(run)
                    values = " ".join(f"{name}={run[name]:.6g}" for name in better)
                    print(f"run {workload} seed {seed} {side}: {values}", flush=True)
            report(workload, seeds, runs, better)
    finally:
        shutil.rmtree(folder)
    return 0


if __name__ == "__main__":
    sys.exit(main())
