#!/usr/bin/env python3
"""bellsim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a bellsim source tree; ``src/bellsim`` is imported
from there, nothing is installed.  The workloads are in ``workloads.py``
and README.md explains the metrics.

Load is a closed loop with one client: the next command starts only after
the previous one has finished.  ``cli_cold`` and ``high_cutoff`` start a
fresh ``bellsim`` process per command; ``session_sweep`` calls
``bellsim.cli.main`` in this process.

Set-up first: one untimed fresh process that imports ``bellsim.cli``
(this writes the bytecode cache), then ``probes`` fresh processes that
each time the import plus the workload's warm-up.  Then whole passes over
the command list run while the next pass is expected to end within
``--seconds``; at least one pass runs, two with ``--trace 1``.  With
``--trace 1`` every second pass is traced, and only the per-layer metrics
are printed.

Every command's output is checked against a physics oracle
(``oracles.py``).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer
import workloads
from child import TRACE_MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

#: what the ``bellsim`` console script runs
LAUNCH = "import sys; from bellsim.cli import main; sys.exit(main(sys.argv[1:]))"

#: per-command limit; a command that takes longer counts as failed
COMMAND_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "correlations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "fock.evolve.calls": "count",
    "fock.evolve.self_s": "s",
    "fock.expect_product.calls": "count",
    "fock.expect_product.self_s": "s",
    "experiments.runs_per_correlation": "ratio",
    "experiments.run.calls": "count",
    "experiments.scan.row_overlap": "ratio",
    "experiments.correlation_raw.self_s": "s",
    "experiments.correlation_conditioned.self_s": "s",
    "fock.get_basis.misses": "count",
    "fock.get_basis.self_s": "s",
    "fock.matrix.calls": "count",
    "fock.matrix.self_s": "s",
    "fock.matrix.nnz": "count",
    "cli.import_s": "s",
    "algebra.verify_structure_constants.self_s": "s",
    "algebra.verify_closure.self_s": "s",
    "wick.commutator_reference.misses": "count",
    "adjoint.conjugate.calls": "count",
    "adjoint.conjugate.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def child_env() -> dict:
    """Environment of every fresh process: ``src`` importable, bytecode cache written.

    Installed packages start from cached bytecode, so the benchmark measures
    start-up with the cache filled, whatever the caller's environment says.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child to completion; ``subprocess.run`` kills and reaps it on timeout."""
    return subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)


def probe(warmup: list[list[str]]) -> dict:
    proc = spawn([sys.executable, str(CHILD), "probe", json.dumps(warmup)])
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one command
# ---------------------------------------------------------------------------

class Outcome:
    __slots__ = ("latency", "error", "trace")

    def __init__(self, latency: float, error: str | None, trace: dict | None = None):
        self.latency = latency
        self.error = error
        self.trace = trace


def run_in_child(cmd: workloads.Command, traced: bool) -> Outcome:
    argv = ([sys.executable, str(CHILD), "trace", *cmd.argv] if traced
            else [sys.executable, "-c", LAUNCH, *cmd.argv])
    start = time.perf_counter()
    try:
        proc = spawn(argv)
    except subprocess.TimeoutExpired:
        return Outcome(time.perf_counter() - start, f"timed out after {COMMAND_TIMEOUT_S} s")
    latency = time.perf_counter() - start
    trace = None
    if traced:
        lines = proc.stderr.rstrip().splitlines()
        if lines and lines[-1].startswith(TRACE_MARKER):
            trace = json.loads(lines[-1][len(TRACE_MARKER):])
    if proc.returncode != 0:
        return Outcome(latency, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}", trace)
    return Outcome(latency, cmd.check(proc.stdout), trace)


def run_in_process(cmd: workloads.Command, main) -> Outcome:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        if cmd.call is not None:
            text = cmd.call()
            code = 0
        else:
            with contextlib.redirect_stdout(buf):
                code = main(cmd.argv)
            text = buf.getvalue()
    except Exception as exc:  # a crashing command is counted as failed, the run goes on
        return Outcome(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    if code != 0:
        return Outcome(latency, f"exit {code}")
    return Outcome(latency, cmd.check(text))


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.latencies: list[float] = []
        self.correlations = 0
        self.errors: list[str] = []
        self.layers: dict | None = None


def empty_layers() -> dict:
    return {"calls": Counter(), "self_s": Counter(), "row_s": 0.0, "scan_s": 0.0,
            "nnz": 0, "misses": Counter(), "import_s": []}


def merge_layers(total: dict, summary: dict) -> None:
    total["calls"].update(summary["calls"])
    total["self_s"].update(summary["self_s"])
    total["row_s"] += summary["row_s"]
    total["scan_s"] += summary["scan_s"]
    total["nnz"] += summary["nnz"]
    total["misses"].update(summary["misses"])
    if "import_s" in summary:
        total["import_s"].append(summary["import_s"])


def run_pass(work: workloads.Workload, traced: bool, session) -> Pass:
    p = Pass(traced)
    layers = empty_layers() if traced else None
    if traced and session is not None:
        t = tracer.Tracer()
        t.install()
    start = time.perf_counter()
    for cmd in work.commands:
        if session is not None:
            if traced:
                span = t.open("command")
            outcome = run_in_process(cmd, session)
            if traced:
                t.close(span)
        else:
            outcome = run_in_child(cmd, traced)
            if traced:
                if outcome.trace is None:
                    outcome.error = outcome.error or "traced child printed no trace"
                else:
                    merge_layers(layers, outcome.trace)
        p.latencies.append(outcome.latency)
        if outcome.error:
            p.errors.append(f"{cmd.label}: {outcome.error}")
        else:
            p.correlations += cmd.correlations
    p.wall = time.perf_counter() - start
    if traced and session is not None:
        t.uninstall()
        merge_layers(layers, t.report())
    p.layers = layers
    return p


def pass_layer_metrics(p: Pass) -> dict:
    layers = p.layers
    calls, self_s = layers["calls"], layers["self_s"]
    out = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[layer]
        elif kind == "self_s":
            out[name] = self_s[layer]
        elif kind == "misses":
            out[name] = layers["misses"][layer]
    out["experiments.runs_per_correlation"] = (
        calls["experiments.run"] / p.correlations if p.correlations else 0.0)
    out["experiments.scan.row_overlap"] = (
        layers["row_s"] / layers["scan_s"] if layers["scan_s"] else 0.0)
    out["fock.matrix.nnz"] = layers["nnz"]
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above that rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(work, passes, setup_s, peak_rss_mb, report) -> dict:
    timed = [p for p in passes if not p.traced]
    latencies = [x for p in timed for x in p.latencies]
    pct = workloads.TAIL_PERCENTILE[work.name]
    tail, beyond = percentile(latencies, pct)
    report.append(f"cmd_tail_s is p{pct} over n={len(latencies)} commands "
                  f"({beyond} beyond it{'' if beyond >= 10 else '; fewer than 10'})")
    values = {
        "wall_s": statistics.median(p.wall for p in timed),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": tail,
        "correlations_per_s": sum(p.correlations for p in timed) / sum(p.wall for p in timed),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(passes, import_samples, report) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    rows = [pass_layer_metrics(p) for p in traced]
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    imports = import_samples + [x for p in traced for x in p.layers["import_s"]]
    values["cli.import_s"] = statistics.median(imports)
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    report.append(f"tracing overhead: traced wall_s {traced_wall:.4f} s - untraced wall_s "
                  f"{untraced_wall:.4f} s = {traced_wall - untraced_wall:+.4f} s "
                  f"({len(traced)} traced, {len(untraced)} untraced passes)")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one probe; checks that the benchmark runs")
    return parser.parse_args(argv)


def bench(args: argparse.Namespace) -> int:
    if not (SRC / "bellsim" / "cli.py").is_file():
        raise BenchError(f"no bellsim sources under {SRC}; run from a bellsim checkout")
    size = workloads.SMOKE if args.smoke else workloads.FULL
    traced_run = bool(args.trace)
    work = workloads.build(args.workload, args.seed, size)

    # set-up: fill the bytecode cache, then time fresh-process set-ups
    session = None
    machine = probe([])["machine"]
    probes = [probe(work.warmup) for _ in range(size["probes"])]
    setup_samples = [p["setup_s"] for p in probes]
    import_samples = [p["import_s"] for p in probes]
    if work.in_process:
        sys.path.insert(0, str(SRC))
        start = time.perf_counter()
        from bellsim.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in work.warmup]
        setup_samples.append(time.perf_counter() - start)
        if any(codes):
            raise BenchError(f"in-process warm-up exit codes {codes}")
        session = main

    report = [
        f"bellsim benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}",
        "params: " + json.dumps(work.params),
        "machine: " + json.dumps(machine),
        f"setup samples (s): {', '.join(f'{x:.4f}' for x in setup_samples)}",
    ]

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(work, traced_run and len(passes) % 2 == 1, session))
        elapsed = time.perf_counter() - start
        longest = max(p.wall for p in passes)
        if len(passes) >= 1 + traced_run and elapsed + longest > args.seconds:
            break

    if work.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    attempted = sum(len(p.latencies) for p in passes)
    errors = [e for p in passes for e in p.errors]
    failed = len(errors)
    for e in errors[:20]:
        report.append(f"FAILED {e}")
    report.append(f"passes: {len(passes)}, pass walls (s): "
                  + ", ".join(f"{p.wall:.4f}{'*' if p.traced else ''}" for p in passes)
                  + (" (* traced)" if traced_run else ""))
    report.append(f"failed_frac: {failed / attempted:g} ({failed}/{attempted} commands)")

    if traced_run:
        metrics = per_layer(passes, import_samples, report)
    else:
        metrics = end_to_end(work, passes, statistics.median(setup_samples), peak_rss_mb, report)
    for name, m in metrics.items():
        report.append(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return bench(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
