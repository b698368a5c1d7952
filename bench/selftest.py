"""Self-test of the benchmark: every workload at tiny size, in about a minute.

Run from the root of a fluidq checkout:

    python3 bench/selftest.py

It checks that each workload prints every metric BENCHMARK.json registers,
by name and with its unit, passes its checks, reports counts that repeat,
and that a deliberately corrupted output raises fail_rate above zero. It
also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only the benchmark.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN = os.path.join("bench", "run.py")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    registered = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                  "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, units in registered.items():
            got = result(bench("--workload", workload, "--seed", "1", "--seconds", "1",
                               "--trace", trace, "--tiny"))
            expect(got["correct"] and got["failed"] == 0 and got["attempted"] > 0,
                   f"{workload} trace {trace}: {got}")
            printed = {name: m["unit"] for name, m in got["metrics"].items()}
            expect(printed == units,
                   f"{workload} trace {trace}: printed {sorted(printed.items())}")
        tampered = result(bench("--workload", workload, "--seed", "1", "--seconds", "0",
                                "--trace", "1", "--tiny", "--tamper"))
        expect(not tampered["correct"] and tampered["failed"] > 0
               and tampered["metrics"]["fail_rate"]["value"] > 0,
               f"{workload}: a corrupted output passed its checks: {tampered}")
        print(f"ok {workload}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "fluid_kink", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"benchmark ran without the program: exit {proc.returncode}, {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
