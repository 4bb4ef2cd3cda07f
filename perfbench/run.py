"""Benchmark of the sostar exact verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src/sostar, and scratch files go to ./.perfbench_out.  The workloads are
described in workloads.py.  A run makes its inputs once from --seed, then
repeats one pass over them in this process, on one thread, in a closed loop
(a pass starts when the last one ends), while the next pass is expected to
end within --seconds.

--trace 0 measures the end-to-end metrics: wall and CPU time of a pass
(median over the run's passes; quartiles and sample count are printed too),
set-up time (median over fresh interpreters that import sostar.cli and
numpy) and peak resident memory.  --trace 1 runs untraced passes, then one
traced pass on the same inputs, and reports the per-layer metrics of
layers.py, the scalar microbenchmarks and the tracing overhead (traced minus
median untraced wall time).

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds the run's context (machine, versions,
load average, seed), the pass statistics and fail_frac.  Operations are
sub-checks or generated bases; `failed` counts failed verdicts, reports that
differ from references.json and exceptions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# One thread for BLAS as well: the benchmark measures a single-threaded program.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _import_program():
    """Import sostar from this checkout's src, and nowhere else."""
    if not (SRC / "sostar" / "__init__.py").is_file():
        sys.exit(f"error: no sostar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sostar
    if Path(sostar.__file__).resolve().parent != SRC / "sostar":
        sys.exit(f"error: sostar imported from {sostar.__file__}, not {SRC}")


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter to sostar.cli and numpy
    imported, for SETUP_SAMPLES interpreters after one warm-up."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", "import sostar.cli, numpy"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       timeout=SETUP_TIMEOUT_S)
        if i:
            samples.append(perf_counter() - t0)
    return samples


class Pass(NamedTuple):
    wall: float  # seconds
    cpu: float  # seconds
    attempted: int
    failed: int


def timed_pass(workload, inputs) -> Pass:
    t0, c0 = perf_counter(), process_time()
    try:
        output = workload.run(inputs)
    except Exception as exc:  # an exception fails the pass, not the benchmark
        print(f"pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
        output = None
    wall, cpu = perf_counter() - t0, process_time() - c0
    return Pass(wall, cpu, *workload.check(inputs, output))


def closed_loop(workload, inputs, seconds: float) -> list[Pass]:
    """Passes back to back while the next one should end within `seconds`;
    at least one."""
    start = perf_counter()
    passes = []
    while True:
        passes.append(timed_pass(workload, inputs))
        if perf_counter() - start + max(p.wall for p in passes) > seconds:
            return passes


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def context(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": list(os.getloadavg())}


def run_untraced(workload, args):
    setup = measure_setup()
    passes = closed_loop(workload, workload.prepare(), args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [p.wall for p in passes]
    cpus = [p.cpu for p in passes]
    metrics = {"wall_s": statistics.median(walls),
               "cpu_s": statistics.median(cpus),
               "setup_s": statistics.median(setup), "peak_rss_mb": rss_mb}
    detail = {"wall_s": summary(walls), "cpu_s": summary(cpus),
              "setup_s": summary(setup)}
    return metrics, dict(END_TO_END), detail, passes


def run_traced(workload, args):
    import layers
    import tracer as tracing
    import workloads

    metrics = layers.microbench(workloads.grown_operands())
    inputs = workload.prepare()
    passes = closed_loop(workload, inputs, args.seconds / 2)
    untraced_wall = statistics.median(p.wall for p in passes)
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        passes.append(timed_pass(workload, inputs))
    finally:
        tracer.uninstall()
    traced_wall = passes[-1].wall
    metrics.update(layers.metrics(tracer, traced_wall, untraced_wall))
    tracer.dump(OUT / f"spans_{args.workload}_seed{args.seed}.json")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    detail = {"untraced_passes": len(passes) - 1, "spans": len(tracer.spans),
              "hook_s": tracer.hook_s,
              "tracing_overhead_frac": traced_wall / untraced_wall - 1}
    return {name: metrics[name] for name in units}, units, detail, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_all", "dense_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ.update(THREAD_ENV)
    _import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    run = run_traced if args.trace else run_untraced
    metrics, units, detail, passes = run(workload, args)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print(json.dumps({"context": context(args), "detail": detail,
                      "fail_frac": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
