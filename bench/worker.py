"""One workload in one fresh process: set up, run once, check, report.

Usage: python3 bench/worker.py WORKLOAD SEED MODE WORKDIR [--tiny] [--tamper]

MODE is ``setup`` (time the set-up only), ``run`` (untraced operation) or
``trace`` (operation under the per-layer tracer). The last line of standard
output is one JSON object. Nothing but the standard library is imported
before the set-up clock starts, so ``setup_s`` includes ``import fluidq``.
"""
import time

_START = time.perf_counter()

import json      # noqa: E402
import os        # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys       # noqa: E402
import traceback  # noqa: E402


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    name, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    tiny, tamper = "--tiny" in argv[4:], "--tamper" in argv[4:]
    src = os.path.join(os.getcwd(), "src")

    import fluidq
    import workloads
    if not os.path.abspath(fluidq.__file__).startswith(src + os.sep):
        print(f"fluidq was imported from {fluidq.__file__}, not from {src}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[name]
    inputs = spec.setup(seed, tiny, workdir)
    setup_s = time.perf_counter() - _START
    out = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    names = spec.check_names(inputs)
    tracer = None
    try:
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        result = spec.operate(inputs)
        wall_s = time.perf_counter() - start
        out.update(wall_s=wall_s, peak_rss_mb=_peak_rss_mib(), jobs=result.get("jobs"))
        if tracer is not None:
            tracer.uninstall()
        checks, info = spec.check(inputs, result, tamper)
        if tracer is not None:
            out["layers"] = tracer.metrics(wall_s, inputs.bytes_written())
            out["spans"] = tracer.spans
        missing = [c for c in names if c not in checks]
        failures = {c: str(checks[c][1]) for c in names if c in checks and not checks[c][0]}
        failures.update({c: "check not evaluated" for c in missing})
        out.update(attempted=len(names), failed=len(failures), failures=failures, info=info)
    except Exception:
        if tracer is not None:
            tracer.uninstall()
        traceback.print_exc()
        out.update(attempted=len(names), failed=len(names),
                   failures={"raised": traceback.format_exc(limit=3)})

    import numpy
    import scipy
    out["env"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
