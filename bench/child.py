"""Fresh-process side of the benchmark.

    python bench/child.py probe '<json list of CLI argv lists>'
        Time ``import bellsim.cli`` plus the given warm-up calls and print
        one JSON object: import_s, setup_s and the machine record.
    python bench/child.py trace <bellsim CLI arguments...>
        Run one CLI command like the ``bellsim`` entry point, with the
        tracer installed.  The command's stdout is passed through; the
        trace summary is the last line of stderr, after ``TRACE_MARKER``.

``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import time

import tracer

TRACE_MARKER = "BENCH_TRACE "


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def probe(warmup: list[list[str]]) -> int:
    start = time.perf_counter()
    from bellsim.cli import main
    imported = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv) for argv in warmup]
    done = time.perf_counter()
    if any(codes):
        sys.stderr.write(f"warm-up exit codes {codes}\n")
        return 1
    print(json.dumps({"import_s": imported - start, "setup_s": done - start,
                      "machine": machine()}))
    return 0


def trace(argv: list[str]) -> int:
    start = time.perf_counter()
    from bellsim.cli import main
    import_s = time.perf_counter() - start
    t = tracer.Tracer()
    t.install()
    span = t.open("command")
    try:
        code = main(argv)
    finally:
        t.close(span)
        t.uninstall()
    sys.stdout.flush()
    summary = t.report()
    summary["import_s"] = import_s
    sys.stderr.write("\n" + TRACE_MARKER + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        sys.exit(probe(json.loads(rest[0]) if rest else []))
    sys.exit(trace(rest))
