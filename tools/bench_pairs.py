"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --parent TREE --change TREE --pr N \\
        --workload NAME [--workload NAME ...] --seed S [--seed S ...] \\
        [--pairs 10] [--seconds 60] [--trace-seed S] [--what TEXT]

A tree is a source checkout holding src/, perfbench/ and BENCHMARK.json.
Every run copies those three into a fresh temporary directory and runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` there,
so no run sees another's files or scratch output.  For each workload and
seed, pair p runs the parent first when p is even and the change first when
p is odd.  With --trace-seed, each workload also gets one --trace 1 run per
side on that seed.  Each side then times `sostar export --family sostar --n 8`
(so*(16)) in three alternating rounds, parent first in the first and third,
as one process each in a fresh copy of its src/ after one untimed warm-up
run there.

The JSON written to BENCH_N.json in the current directory holds: what,
command, protocol, host, summary, export, runs and trace.  For each
workload/seed and end-to-end metric, the summary gives both sides' median
and quartiles over the pairs, the ratio of the medians (change over parent),
the parent's interquartile range, and the number of pairs in which the
change is lower and higher.  `export` holds both sides' export wall times,
the sha256 of each side's output and whether the two are byte-identical.
`runs` and `trace` keep the two JSON lines that every run printed.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
COPIED = ("src", "perfbench", "BENCHMARK.json")
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0|1"
EXPORT_ARGS = ("export", "--family", "sostar", "--n", "8")
EXPORT_ROUNDS = 3


def _round(x: float) -> float:
    return round(x, 4)


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles, rounded to four decimals."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": _round(median), "q1": _round(q1), "q3": _round(q3)}


def pair_summary(parent: list[float], change: list[float]) -> dict:
    """One metric over pairs: parent[p] and change[p] were measured in pair p.
    The ratio and the IQR are taken of the rounded quartiles."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    ps, cs = quartiles(parent), quartiles(change)
    return {"parent": ps, "change": cs,
            "ratio_of_medians": _round(cs["median"] / ps["median"]),
            "parent_iqr": _round(ps["q3"] - ps["q1"]),
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
            "change_higher_in_pairs": sum(c > p for p, c in zip(parent, change))}


def _result(run: dict) -> dict:
    return run["lines"][-1]


def summarise(runs: list[dict]) -> dict:
    """The summary of one workload and seed from its untraced runs, which
    alternate in pairs: the k-th parent run is paired with the k-th change
    run."""
    sides = {side: [r for r in runs if r["side"] == side]
             for side in ("parent", "change")}
    out = {"pairs": min(map(len, sides.values())),
           "fail_frac": {side: [r["lines"][0]["fail_frac"] for r in rs]
                         for side, rs in sides.items()},
           "correct": all(_result(r)["correct"] for r in runs)}
    for name in METRICS:
        values = {side: [_result(r)["metrics"][name]["value"] for r in rs]
                  for side, rs in sides.items()}
        out[name] = pair_summary(values["parent"], values["change"])
    return out


def run_once(tree: Path, side: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run in a fresh copy of `tree`; returns its record."""
    with tempfile.TemporaryDirectory(prefix=f"bench_{side}_") as tmp:
        for name in COPIED:
            src = tree / name
            if src.is_dir():
                shutil.copytree(src, Path(tmp) / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".perfbench_out"))
            else:
                shutil.copy2(src, Path(tmp) / name)
        started = time.strftime("%H:%M:%S")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tmp, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()[-2:]
             if line.startswith("{")]
    if proc.returncode or len(lines) != 2:
        raise RuntimeError(f"{side} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return {"side": side, "workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "started": started, "lines": lines}


def export_summary(parent_s: list[float], change_s: list[float],
                   parent_sha: str, change_sha: str) -> dict:
    """The export section from both sides' wall times, round by round, and
    the sha256 of each side's output."""
    return {
        "command": (f"sostar {' '.join(EXPORT_ARGS)} (python -m sostar.cli in a "
                    "fresh copy of src, wall time of the process)"),
        "protocol": (f"{len(parent_s)} alternating runs per side, parent first "
                     "in the first and third rounds, after one untimed warm-up "
                     "run per side"),
        "parent_s": [round(x, 3) for x in parent_s],
        "change_s": [round(x, 3) for x in change_s],
        "sha256": {"parent": parent_sha, "change": change_sha},
        "byte_identical": parent_sha == change_sha,
    }


def export_once(src: Path) -> tuple[float, str]:
    """Wall time of one `sostar export` process on the sources `src`, and
    the sha256 of the file it writes."""
    with tempfile.TemporaryDirectory(prefix="bench_export_") as tmp:
        out = Path(tmp) / "export.json"
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sostar.cli", *EXPORT_ARGS, "--output", str(out)],
            cwd=tmp, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode:
            raise RuntimeError(f"export on {src} exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        return wall, hashlib.sha256(out.read_bytes()).hexdigest()


def time_export(trees: dict) -> dict:
    """The export section: each side's src/ copied once, warmed up by one
    untimed run, then timed in alternating rounds."""
    times = {side: [] for side in trees}
    shas = {}
    with tempfile.TemporaryDirectory(prefix="bench_export_src_") as tmp:
        srcs = {}
        for side, tree in trees.items():
            srcs[side] = Path(tmp) / side / "src"
            shutil.copytree(tree / "src", srcs[side],
                            ignore=shutil.ignore_patterns("__pycache__"))
            export_once(srcs[side])
        for r in range(EXPORT_ROUNDS):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                wall, shas[side] = export_once(srcs[side])
                times[side].append(wall)
                print(f"export round {r} {side}: {wall:.3f} s", file=sys.stderr)
    return export_summary(times["parent"], times["change"], shas["parent"],
                          shas["change"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds:g}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        missing = [name for name in COPIED if not (tree / name).exists()]
        if missing:
            parser.error(f"{tree} lacks {', '.join(missing)}")

    runs, traces, summary = [], [], {}
    for workload in args.workload:
        for seed in args.seed:
            group = []
            for p in range(args.pairs):
                order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
                for side in order:
                    group.append(run_once(trees[side], side, workload, seed,
                                          args.seconds, 0))
                    print(f"{workload} seed {seed} pair {p} {side}: wall_s "
                          f"{_result(group[-1])['metrics']['wall_s']['value']:.4f}",
                          file=sys.stderr)
            summary[f"{workload}/seed{seed}"] = summarise(group)
            runs += group
        if args.trace_seed is not None:
            for side in ("parent", "change"):
                traces.append(run_once(trees[side], side, workload,
                                       args.trace_seed, args.seconds, 1))
    export = time_export(trees)

    context = runs[0]["lines"][0]["context"]
    doc = {
        "what": args.what,
        "command": COMMAND.format(seconds=args.seconds),
        "protocol": (f"{args.pairs} alternating parent/change pairs per workload "
                     "and seed (parent first in even pairs), each side a fresh "
                     "copy of its source files (src, perfbench, BENCHMARK.json)"
                     + ("" if args.trace_seed is None else
                        f"; one --trace 1 run per side on each workload, seed "
                        f"{args.trace_seed}")),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": context["numpy"],
                 "machine": f"{platform.machine()} {platform.system()}"},
        "summary": summary,
        "export": export,
        "runs": runs,
        "trace": traces,
    }
    Path(f"BENCH_{args.pr}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
