#!/usr/bin/env python3
"""skinfem benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-b1 --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` beside this directory,
so nothing needs installing. Every repetition runs in a fresh interpreter
(workers started one at a time, BLAS threads capped at the CPUs this process
may use), so each pays the import and the process-wide cache warm-up that
every `skinfem` invocation pays. CLI workloads write into a fresh output
directory under `.perfbench_work/`, removed afterwards.

--trace 0 measures the end-to-end metrics: set-up several times, then the
workload once and again for as long as another repetition is expected to end
within --seconds; it reports medians. --trace 1 repeats the workload traced
(see spans.py) in the same way, reports the median per-layer metrics, then
runs it once untraced for trace.overhead_s.

The last line of standard output is one JSON object: correct, attempted,
failed (output checks, summed over repetitions) and metrics. Lines before it
print each metric by name with its unit, fail_frac, the workload's inputs and
an environment record. See README.md for the workloads and the predictions.
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_RUNS = 3  # set-up-only interpreters per --trace 0 run, besides the repetitions
DEADLINE_S = 170.0  # a run must finish within 180 s
EVAL_POINTS = 1000
# Memory the benchmark faults in just before each repetition; above sweep-b1's
# peak RSS of 1.8 GB.
PREFAULT_BYTES = 2 << 30


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    """A draw in [lo, hi), uniform in log(sigma)."""
    return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * rng.random())


def sweep_inputs(rng: random.Random) -> dict:
    # 400 fixes mesh_for's sigma_max, so the mesh is the same for every seed.
    return {"sigmas": sorted([400.0] + [_log_uniform(rng, 80.0, 400.0) for _ in range(2)])}


def pconv_inputs(rng: random.Random) -> dict:
    return {"sigma": _log_uniform(rng, 5.0, 80.0)}


def eval_inputs(rng: random.Random) -> dict:
    # Uniform in the box [0, 4] x [-2, 2], kept inside the ellipse
    # (r/4)^2 + (z/2)^2 < 1: a batched evaluate raises at the first outside point.
    points = []
    while len(points) < EVAL_POINTS:
        r, z = 4.0 * rng.random(), 4.0 * rng.random() - 2.0
        if (r / 4.0) ** 2 + (z / 2.0) ** 2 < 1.0:
            points.append([r, z])
    return {"points": points}


WORKLOADS = {"sweep-b1": sweep_inputs, "pconv-a": pconv_inputs, "eval-b1": eval_inputs}


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["SKINFEM_DISABLE_NUMBA"] = "1"  # every number is from the numpy kernel path
    return env


def _prefault(nbytes: int):
    """Fault in and release `nbytes` of anonymous memory.

    In a virtual machine that hands freed guest memory back to the host after
    a few seconds, a process's first touch of that memory costs about 1 s/GB
    more than touching recently freed memory, and how much of a repetition's
    memory is cold depends on what ran before it. Faulting in more than the
    workload's peak just before it starts puts every repetition in the same
    state, as on a machine whose free memory stays backed.
    """
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    mmap.mmap(-1, nbytes, flags=flags).close()


class Runner:
    def __init__(self, workload: str, inputs: dict, deadline: float):
        self.workload = workload
        self.inputs = inputs
        self.deadline = deadline
        self.env = _worker_env()
        self.work = os.path.join(WORK, str(os.getpid()))
        self.jobs = 0
        self.worker_failures: list[str] = []
        self.absent: list[str] = []  # per-layer metrics whose layer is gone

    def run(self, trace: bool, setup_only: bool = False):
        """One fresh worker interpreter; its result dict, or None if it failed."""
        self.jobs += 1
        out = os.path.join(self.work, f"out{self.jobs}")
        job = {
            "workload": self.workload, "inputs": self.inputs, "out": out,
            "trace": trace, "setup_only": setup_only,
        }
        if not setup_only:
            _prefault(PREFAULT_BYTES)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py")],
                input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
                env=self.env, timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            self.worker_failures.append("worker timed out")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            self.worker_failures.append(f"worker exit code {proc.returncode}")
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def repeat(self, trace: bool, seconds: float) -> list:
        """At least one repetition, then more while the next is expected to
        end within `seconds` of the first's start (and before the deadline)."""
        reps = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            rep = self.run(trace)
            if rep is None:
                break
            reps.append(rep)
            now = time.monotonic()
            next_end = 2 * now - t0
            if next_end - start > seconds or next_end > self.deadline:
                break
        return reps

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def _median(reps, key):
    return statistics.median(rep[key] for rep in reps)


def measure(runner: Runner, seconds: float) -> tuple[dict, list]:
    setups = [runner.run(trace=False, setup_only=True) for _ in range(SETUP_RUNS)]
    reps = runner.repeat(trace=False, seconds=seconds)
    if not reps:
        return {}, []
    setups = [s for s in setups if s is not None] + reps
    values = {
        "wall_s": _median(reps, "wall_s"),
        "setup_s": _median(setups, "setup_s"),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
    }
    for name in reps[0]["e2e"]:
        values[name] = statistics.median(rep["e2e"][name] for rep in reps)
    return values, reps


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, list]:
    # Traced first: the first repetition of a run tends to be the slowest, so
    # trace.overhead_s errs high rather than low.
    traced = runner.repeat(trace=True, seconds=seconds)
    if not traced:
        return {}, []
    values = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    plain = runner.run(trace=False)
    if plain is not None:
        values["trace.overhead_s"] = _median(traced, "wall_s") - plain["wall_s"]
    runner.absent = sorted(set().union(*(rep["absent"] for rep in traced)))
    return values, traced + [r for r in (plain,) if r]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "skinfem", "__init__.py")):
        print(f"error: no skinfem sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    inputs = WORKLOADS[args.workload](random.Random(args.seed))
    runner = Runner(args.workload, inputs, start + DEADLINE_S)
    try:
        if args.trace:
            values, reps = measure_traced(runner, args.seconds)
        else:
            values, reps = measure(runner, args.seconds)
    finally:
        runner.close()
    if not reps:
        print("error: " + "; ".join(runner.worker_failures or ["no repetition ran"]), file=sys.stderr)
        return 1

    attempted = sum(rep["attempted"] for rep in reps) + len(runner.worker_failures)
    failed = sum(rep["failed"] for rep in reps) + len(runner.worker_failures)
    shown = inputs if args.workload != "eval-b1" else {"points": f"{EVAL_POINTS} seeded"}
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}  inputs {json.dumps(shown)}")
    print("environment " + json.dumps(reps[-1]["env"]))
    for rep in reps:
        for note in rep["notes"]:
            print(f"check failed: {note}")
    for note in runner.worker_failures:
        print(f"check failed: {note}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:32s} {value:.6g} {m['unit']}")
    if not args.trace:
        # Workload-specific end-to-end figures, outside BENCHMARK.json because
        # every listed metric must exist, and be nonzero, on every workload.
        for name, unit in (("map_s", "s"), ("eval_pts_per_s", "1/s")):
            if name in values:
                print(f"{name:32s} {values[name]:.6g} {unit}")
    print(f"{'fail_frac':32s} {failed / attempted:.6g} ({failed} of {attempted} checks)")
    if runner.absent:
        print("absent (reported as 0): " + ", ".join(runner.absent))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
