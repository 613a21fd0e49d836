#!/usr/bin/env python3
"""Compare two revisions on the committed benchmark and write BENCH_<PR>.json.

Usage, from the repository root:

    python3 tools/bench_compare.py --parent 7c33efa --change 6e4f2bf \\
        --workload array_64 --seed 12345 20231017 --pairs 10 --out BENCH_14.json

Each side is checked out with ``git worktree add`` into a temporary directory,
and both worktrees are removed on exit.  ``--change`` defaults to the working
tree: its tracked and staged files, taken with ``git stash create`` (HEAD when
it is clean).  Every side runs its own, unchanged ``benchmarks/run.py`` with
``--trace 0`` for BENCHMARK.json's ``run_seconds``, one run at a time, parent
first in even-numbered pairs (counting from 0) and change first in odd ones,
so both see the same drift in machine load.  Before every run both sides'
``__pycache__`` directories are removed and ``PYTHONDONTWRITEBYTECODE=1`` is
set, so ``setup_s`` always measures an interpreter compiling the sources.

For every workload, seed and end-to-end metric of BENCHMARK.json the summary
gives the pairs the change won (ties count for neither side), the gap between
the medians against the parent's interquartile range, and a verdict: "gain"
when the change won at least 90 % of the pairs and its median is better by
more than the parent's IQR, "loss" when its median is worse by more than
that IQR, "neither" otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
GAIN_PAIR_SHARE = 0.9  # share of pairs a change must win to count as a gain


def quartiles(samples: list[float]) -> dict:
    """Median, quartiles (linear interpolation, as numpy's default) and count."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def compare(pairs: list[tuple[float, float]], better: str) -> dict:
    """Pairs won by the change, the median gap against the parent's IQR, verdict.

    ``pairs`` holds (parent, change) values of one metric; ``gap`` is the
    parent median minus the change median, signed so that a positive gap is a
    gain for the change.
    """
    sign = 1.0 if better == "lower" else -1.0
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    gap = sign * (parent["median"] - change["median"])
    iqr = parent["q3"] - parent["q1"]
    won = sum(sign * (p - c) > 0 for p, c in pairs)
    if won >= GAIN_PAIR_SHARE * len(pairs) and gap > iqr:
        verdict = "gain"
    elif -gap > iqr:
        verdict = "loss"
    else:
        verdict = "neither"
    return {"pairs": len(pairs), "won": won, "gap": gap, "parent_iqr": iqr, "verdict": verdict}


def summary_line(workload: str, seed: int, metric: str, unit: str, cmp: dict,
                 parent_median: float, change_median: float) -> str:
    rel = -cmp["gap"] / parent_median if parent_median else 0.0
    return (f"{workload} seed {seed} {metric}: change won {cmp['won']} of {cmp['pairs']} pairs; "
            f"median {parent_median:.6g} -> {change_median:.6g} {unit} ({rel:+.1%}); "
            f"gap {cmp['gap']:.4g} vs parent IQR {cmp['parent_iqr']:.4g}: {cmp['verdict']}")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def run_side(side: Path, checkouts: list[Path], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``side``, with no checkout holding bytecode; its result."""
    for tree in checkouts:
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=side, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{side}: benchmark exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    results_file = side / ".bench_out" / workload / f"seed{seed}-trace0" / "results.json"
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "failed": result["failed"],
            "environment": json.loads(results_file.read_text())["environment"]}


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", help="revision of the change side (default: working tree)")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", nargs="+", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True, help="alternating pairs, >= 2")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_17.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 to give quartiles")
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    change_label = args.change or f"the working tree on {git('rev-parse', '--short', 'HEAD')}"
    revs = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
            "change": git("rev-parse", "--verify", f"{args.change}^{{commit}}") if args.change
            else git("stash", "create") or git("rev-parse", "HEAD")}

    runs: dict = {}
    host = None
    with tempfile.TemporaryDirectory(prefix="bench_compare_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        try:
            for side in SIDES:
                git("worktree", "add", "--detach", str(trees[side]), revs[side])
            for workload in args.workload:
                for seed in args.seed:
                    got = runs.setdefault(workload, {}).setdefault(seed, [])
                    for i in range(args.pairs):
                        order = SIDES if i % 2 == 0 else SIDES[::-1]
                        pair = {side: run_side(trees[side], list(trees.values()), workload,
                                               seed, seconds) for side in order}
                        host = host or pair["parent"]["environment"]
                        got.append(pair)
                        print(f"{workload} seed {seed} pair {i}: " + ", ".join(
                            f"{side} wall_s {pair[side]['metrics']['wall_s']:.4f}"
                            for side in SIDES), flush=True)
        finally:
            for side in SIDES:
                if trees[side].exists():
                    git("worktree", "remove", "--force", str(trees[side]))
            git("worktree", "prune")

    report = {
        "description": (
            f"Benchmark runs of the parent ({args.parent} = {revs['parent'][:7]}) and of the "
            f"change ({change_label} = {revs['change'][:7]}), made with "
            f"`python3 tools/bench_compare.py`: each side's own `python3 benchmarks/run.py "
            f"--workload W --seed S --seconds {seconds} --trace 0`, one run at a time, "
            f"{args.pairs} pairs per workload and seed, parent first in even-numbered pairs "
            f"(counting from 0). Before every run both checkouts' __pycache__ directories were "
            f"removed and PYTHONDONTWRITEBYTECODE=1 was set. Each entry summarises one "
            f"per-run metric over the runs: median, quartiles (linear interpolation) and run "
            f"count; `failed` is summed over the runs. `pairs` gives, per metric, the pairs "
            f"the change won (ties count for neither) and every (parent, change) value."),
        "host": {k: host[k] for k in ("python", "numpy", "nproc", "cpu_model", "blas_threads")},
        "end_to_end": {f"seconds_{seconds}": {}},
    }
    table = report["end_to_end"][f"seconds_{seconds}"]
    for workload, by_seed in runs.items():
        for seed, pairs in by_seed.items():
            entry = {side: {m["name"]: quartiles([p[side]["metrics"][m["name"]] for p in pairs])
                            for m in metrics} for side in SIDES}
            for side in SIDES:
                entry[side]["failed"] = sum(p[side]["failed"] for p in pairs)
            entry["pairs"] = {"count": len(pairs)}
            for m in metrics:
                name = m["name"]
                values = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                          for p in pairs]
                cmp = compare(values, m["better"])
                entry["pairs"][f"change_{name}_{m['better']}"] = cmp["won"]
                entry["pairs"][f"{name}_parent_change"] = [list(v) for v in values]
                print(summary_line(workload, seed, name, m["unit"], cmp,
                                   entry["parent"][name]["median"],
                                   entry["change"][name]["median"]))
            table.setdefault(workload, {})[str(seed)] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
