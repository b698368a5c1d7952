"""fluidq benchmark: time to a checked result per workload, plus a per-layer trace.

Usage, from the root of a fluidq checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh single-threaded worker process (bench/worker.py)
that imports fluidq from ./src, builds the workload's inputs from the seed,
runs one public entry point and checks its outputs. Workers run one at a
time. With --trace 0 the workload repeats until S seconds have passed and
the end-to-end metrics are medians over the repetitions; set-up is also
timed in separate fresh processes. With --trace 1 traced and untraced
repetitions alternate, and the per-layer metrics are medians over the
traced ones, whose counts must repeat exactly.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A full
record (environment, every repetition, spans) goes to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("converge_markov", "fluid_kink", "simulate_large")
SETUP_PROBES = 3     # per repetition
# A run must end within 180 s: no worker starts that could not finish by then.
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Per-layer metrics in these units are counts, or ratios of counts: they must
# repeat exactly between runs of one seed.
COUNT_UNITS = {"count", "B", "B/job", "1/job"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in (("jobs_per_s", "jobs/s"), ("_s", "s"), ("ns_per_variate", "ns"),
                         ("ns_per_job", "ns"), ("us_per_functional", "us"),
                         ("variates_per_job", "1/job"), ("bytes_per_job", "B/job"),
                         ("bytes_written", "B"), ("overhead_ratio", "ratio"),
                         ("fail_rate", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    env = {"platform": platform.platform(), "cores": os.cpu_count(), "cpu": None,
           "llc": None}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), None)
    except OSError:
        pass
    caches = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for index in sorted(os.listdir(caches)):
            if not index.startswith("index"):
                continue
            with open(os.path.join(caches, index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(caches, index, "size")) as fh:
                levels.append((level, fh.read().strip()))
        env["llc"] = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    return env


class Runner:
    """Starts workers one after another and keeps what they report."""

    def __init__(self, root: str, workload: str, seed: int, extra: list[str]):
        self.root, self.workload, self.seed, self.extra = root, workload, seed, extra
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(HERE, "out"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env.update({var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.deadline = time.perf_counter() + DEADLINE_S
        self.longest_s = 0.0

    def has_time(self) -> bool:
        """Whether one more worker, as long as the longest so far, fits."""
        return time.perf_counter() + 1.5 * self.longest_s < self.deadline

    def worker(self, mode: str) -> dict | None:
        workdir = tempfile.mkdtemp(dir=self.work)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.workload,
               str(self.seed), mode, workdir, *self.extra]
        start = time.perf_counter()
        timeout = max(1.0, self.deadline - start)
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self._lost(mode, f"timed out after {timeout:.0f} s")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            self.longest_s = max(self.longest_s, time.perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self._lost(mode, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        report = json.loads(lines[-1])
        if mode != "setup":
            self.attempted += report["attempted"]
            self.failed += report["failed"]
            if report["failed"]:
                self.failures.append(report["failures"])
                print(proc.stderr, file=sys.stderr, end="")
        return report

    def _lost(self, mode: str, why: str) -> None:
        # A worker that died before reporting counts as one failed check.
        self.attempted += 1
        self.failed += 1
        self.failures.append({mode: why})
        print(f"{self.workload} {mode} worker: {why}", file=sys.stderr)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def median(values):
    return statistics.median(values) if values else 0.0


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setups, reps = [], []
    start = time.perf_counter()
    while not reps or (time.perf_counter() - start < seconds and runner.has_time()):
        # Set-up probes sit between the repetitions, so that their median
        # spans the whole run.
        setups += [r["setup_s"] for r in (runner.worker("setup")
                                          for _ in range(SETUP_PROBES)) if r]
        report = runner.worker("run")
        if report is None or "wall_s" not in report:
            break
        reps.append(report)
    setups += [r["setup_s"] for r in reps]
    metrics = {
        "wall_s": median([r["wall_s"] for r in reps]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }
    jobs = [r["jobs"] / r["wall_s"] for r in reps if r.get("jobs")]
    extra = {"jobs_per_s": median(jobs) if jobs else None,
             "repetitions": len(reps), "setup_samples": setups, "reps": reps}
    return metrics, extra


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict]:
    plain, traced = [], []
    start = time.perf_counter()
    while ((not plain or len(traced) < 2 or time.perf_counter() - start < seconds)
           and runner.has_time()):
        want_plain = not plain or len(traced) >= 2 * len(plain)
        report = runner.worker("run" if want_plain else "trace")
        if report is None or "wall_s" not in report:
            break
        (plain if want_plain else traced).append(report)
    layers = [r["layers"] for r in traced if "layers" in r]
    metrics = {}
    if layers:
        counts = [name for name in layers[0] if layer_unit(name) in COUNT_UNITS]
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            metrics[name] = values[0] if name in counts else median(values)
        repeats = all(layer[name] == layers[0][name] for layer in layers for name in counts)
        plain_jobs = {r.get("jobs") for r in plain}
        if plain_jobs != {None}:
            repeats &= plain_jobs == {metrics["simulate.jobs"]}
        runner.attempted += 1
        if not repeats:
            runner.failed += 1
            runner.failures.append({"trace_counts_repeat": [
                {n: layer[n] for n in counts} for layer in layers]})
        plain_wall = median([r["wall_s"] for r in plain])
        metrics["trace.overhead_ratio"] = (
            metrics["trace.wall_s"] / plain_wall - 1.0 if plain_wall else 0.0)
        jobs = [r["jobs"] / r["wall_s"] for r in plain if r.get("jobs")]
        metrics["jobs_per_s"] = median(jobs) if jobs else 0.0
    extra = {"repetitions": len(plain), "traced_repetitions": len(traced),
             "reps": plain, "traced": traced}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one output before it is checked (self-test)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fluidq", "__init__.py")):
        print("bench: run from the root of a fluidq checkout (no src/fluidq here)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    extra = [flag for flag, on in (("--tiny", args.tiny), ("--tamper", args.tamper)) if on]
    runner = Runner(root, args.workload, args.seed, extra)
    try:
        # Untimed first start: compiles bytecode and fills the file cache.
        runner.worker("setup")
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, details = measure(runner, args.seconds)
    finally:
        runner.close()

    fail_rate = runner.failed / runner.attempted if runner.attempted else 1.0
    if args.trace:
        metrics["fail_rate"] = fail_rate
        units = {name: layer_unit(name) for name in metrics}
    else:
        units = END_TO_END_UNITS
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "tamper": args.tamper,
              "machine": environment(), "fail_rate": fail_rate,
              "failures": runner.failures, "metrics": metrics, **details}
    reps = details.get("reps") or details.get("traced") or []
    if reps:
        record["machine"].update(reps[0].get("env", {}))
        record["info"] = reps[0].get("info")
    out_path = os.path.join(HERE, "out",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  repetitions "
          f"{details['repetitions']}  record {os.path.relpath(out_path, root)}")
    print(f"machine {json.dumps(record['machine'])}")
    if record.get("info"):
        print(f"info {json.dumps(record['info'])}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    if not args.trace:
        jobs_per_s = details["jobs_per_s"]
        shown = f"{jobs_per_s:>16.6g}" if jobs_per_s else f"{'n/a':>16}"
        print(f"  {'jobs_per_s':34s} {shown} jobs/s")
        print(f"  {'fail_rate':34s} {fail_rate:>16.6g} ratio")
    for failure in runner.failures:
        print(f"FAILED {json.dumps(failure)[:2000]}")
    print(json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
