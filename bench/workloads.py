"""The benchmark's workloads: command lists built from a seed.

The seed draws parameters only (gamma, analyzer angles, phases, grid
offsets).  Cutoffs, grid sizes and batch sizes are fixed, and every drawn
parameter stays in a narrow range, so the cost of a pass does not depend
on the seed.  Every command carries an oracle from :mod:`oracles`.

* ``cli_cold``: every command in a fresh process at the default cutoff.
  Start-up and the exact layer dominate; almost no Fock work.
* ``session_sweep``: one warm process calls ``bellsim.cli.main`` in-process
  after a warm-up at N=16.  Parameter-study traffic where ``fock.evolve``
  dominates and bases and matrices are already cached.
* ``high_cutoff``: fresh processes at N=30 and N=40, where building the
  basis and the sparse matrices outweighs applying them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

#: sizes of a full run and of the smoke run (tiny, no timing value)
FULL = {"session_cutoff": 16, "scan_points": 65, "gamma_span": 0.45, "chsh_batch": 8,
        "xchecks": 4, "high_cutoffs": (30, 40), "conv_cutoffs": (10, 20, 30),
        "conv_gamma": (0.95, 1.05), "probes": 7}
SMOKE = {"session_cutoff": 8, "scan_points": 5, "gamma_span": 0.05, "chsh_batch": 1,
         "xchecks": 1, "high_cutoffs": (8, 10), "conv_cutoffs": (6, 8, 10),
         "conv_gamma": (0.08, 0.12), "probes": 1}

#: fixed percentile reported as cmd_tail_s.  A pass has a fixed mix of slow and
#: fast commands, so a percentile on the boundary between two latency blocks
#: swings between them from run to run; each choice sits inside a block.
#: cli_cold: 8 commands a pass, p60 is inside the 6 start-up-bound ones (p75
#: would be the boundary below the two slowest), >= 10 beyond it.
#: session_sweep: 24 a pass, p90 is inside the 4 scans (the ideal delta scan),
#: >= 10 beyond it.  high_cutoff: 5 a pass and 10-15 in a run, too few for ten
#: beyond any percentile above the median; p90 is the N=40 run.
TAIL_PERCENTILE = {"cli_cold": 60, "session_sweep": 90, "high_cutoff": 90}


@dataclass
class Command:
    label: str
    check: Callable[[str], str | None]
    correlations: int
    argv: list[str] | None = None
    #: in-process call returning the text to check, for commands that are not CLI calls
    call: Callable[[], str] | None = None


@dataclass
class Workload:
    name: str
    in_process: bool
    commands: list[Command]
    params: dict
    #: CLI calls made once before timing (in-process workloads only)
    warmup: list[list[str]] = field(default_factory=list)


def _f(x: float) -> str:
    return repr(float(x))


def _gamma(rng: random.Random) -> float:
    return rng.uniform(0.095, 0.105)


def _angles(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    return rng.uniform(lo, hi), rng.uniform(lo, hi)


def _chsh_batch(rng: random.Random, size: int) -> list[tuple[float, ...]]:
    """Stratified quadruples: position q of call j sits at (perm_q[j] + u) * pi / size.

    The offset u is seeded and alternates with 1 - u between neighbouring
    strata, so every position sees the same sum of angles whatever the
    seed, and the batch's evolution cost does not depend on it.
    """
    columns = []
    for _ in range(4):
        perm = list(range(size))
        rng.shuffle(perm)
        u = rng.uniform(0.05, 0.95)
        columns.append([(k + (u if k % 2 == 0 else 1.0 - u)) * math.pi / size for k in perm])
    return [tuple(col[j] for col in columns) for j in range(size)]


def _run_cmd(label, experiment, gamma, theta_a=0.0, theta_b=0.0, cutoff=None):
    argv = ["run", "-e", experiment, "--gamma", _f(gamma),
            "--theta-a", _f(theta_a), "--theta-b", _f(theta_b)]
    if cutoff is not None:
        argv += ["--cutoff", str(cutoff)]
    return Command(label, oracles.check_run(oracles.conditioned_law(theta_a - theta_b),
                                            "conditioned", oracles.COND_TOL), 1, argv)


def _chsh_cmd(label, experiment, gamma, angles, cutoff=None):
    argv = ["chsh", "-e", experiment, "--gamma", _f(gamma),
            "--angles", ",".join(_f(a) for a in angles)]
    if cutoff is not None:
        argv += ["--cutoff", str(cutoff)]
    return Command(label, oracles.check_chsh(angles), 4, argv)


def _convergence_cmd(label, gamma, cutoffs):
    argv = ["convergence", "--gamma", _f(gamma), "--cutoffs", ",".join(map(str, cutoffs))]
    return Command(label, oracles.check_convergence(gamma, cutoffs), len(cutoffs), argv)


def cli_cold(rng: random.Random, size: dict) -> Workload:
    gamma = _gamma(rng)
    ta, tb = _angles(rng, 0.1, 1.5)
    phi = rng.uniform(0.2, 3.0)
    quad_ideal, quad_om = _chsh_batch(rng, 2)
    commands = [
        Command("verify-algebra", oracles.check_verify, 0, ["verify-algebra"]),
        Command("list-generators", oracles.check_generators, 0, ["list-generators"]),
        Command("run-ideal-raw",
                oracles.check_run(oracles.raw_law(gamma), "raw", oracles.RAW_TOL), 1,
                ["run", "-e", "ideal", "--gamma", _f(gamma), "--estimator", "raw"]),
        _run_cmd("run-ou_mandel", "ou_mandel", gamma, ta, tb),
        Command("run-horne", oracles.check_run(-1.0, "conditioned", oracles.COND_TOL), 1,
                ["run", "-e", "horne", "--gamma", _f(gamma), "--phi", _f(phi)]),
        _chsh_cmd("chsh-ideal", "ideal", gamma, quad_ideal),
        _chsh_cmd("chsh-ou_mandel", "ou_mandel", gamma, quad_om),
        _convergence_cmd("convergence", gamma, (6, 8, 10, 12)),
    ]
    params = {"gamma": gamma, "theta_a": ta, "theta_b": tb, "phi": phi,
              "chsh_ideal": quad_ideal, "chsh_ou_mandel": quad_om}
    return Workload("cli_cold", False, commands, params)


def session_sweep(rng: random.Random, size: dict) -> Workload:
    cutoff = size["session_cutoff"]
    points = size["scan_points"]
    gamma = _gamma(rng)
    delta0 = rng.uniform(0.001, 0.01)
    phi0 = rng.uniform(0.05, 0.06)
    gamma0 = rng.uniform(0.05, 0.055)
    quads = {e: _chsh_batch(rng, size["chsh_batch"]) for e in ("ideal", "ou_mandel")}
    u = rng.uniform(0.05, 0.95)
    xchecks = [(_gamma(rng), 0.2 + (j + (u if j % 2 == 0 else 1.0 - u)) * 2.8 / size["xchecks"])
               for j in range(size["xchecks"])]
    common = ["--cutoff", str(cutoff), "--points", str(points)]

    def delta_scan(experiment):
        argv = ["scan", "--axis", "delta", "-e", experiment, "--gamma", _f(gamma),
                "--start", _f(delta0), "--stop", _f(delta0 + math.pi)] + common
        return Command(f"scan-delta-{experiment}",
                       oracles.check_scan(points, cond=oracles.conditioned_law), points, argv)

    def cross_check(g, phi):
        def call():
            # imported here so that building the workload does not import bellsim
            from bellsim import experiments

            spec = experiments.horne_spec(g, phi, cutoff=cutoff)
            direct = experiments.run(spec)
            return repr(direct.fidelity(experiments.conjugated_pipeline_state(spec)))
        return Command("horne-crosscheck", oracles.check_fidelity, 0, call=call)

    commands = [
        delta_scan("ideal"),
        delta_scan("ou_mandel"),
        Command("scan-phi-horne", oracles.check_scan(points, cond=lambda phi: -1.0), points,
                ["scan", "--axis", "phi", "-e", "horne", "--gamma", _f(gamma),
                 "--start", _f(phi0), "--stop", _f(phi0 + 3.0)] + common),
        Command("scan-gamma-ideal",
                oracles.check_scan(points, cond=lambda g: -1.0, raw=oracles.raw_law), points,
                ["scan", "--axis", "gamma", "-e", "ideal", "--start", _f(gamma0),
                 "--stop", _f(gamma0 + size["gamma_span"])] + common),
    ]
    for experiment, batch in quads.items():
        commands += [_chsh_cmd(f"chsh-{experiment}", experiment, gamma, q, cutoff) for q in batch]
    commands += [cross_check(g, phi) for g, phi in xchecks]
    warmup = [["run", "-e", e, "--cutoff", str(cutoff), "--theta-a", "0.3", "--theta-b", "0.1"]
              for e in ("ideal", "ou_mandel")]
    warmup.append(["run", "-e", "horne", "--cutoff", str(cutoff), "--phi", "0.3"])
    params = {"gamma": gamma, "delta_start": delta0, "phi_start": phi0, "gamma_start": gamma0,
              "chsh": quads, "crosschecks": xchecks}
    return Workload("session_sweep", True, commands, params, warmup)


def high_cutoff(rng: random.Random, size: dict) -> Workload:
    low, high = size["high_cutoffs"]
    gamma = _gamma(rng)
    angles = [_angles(rng, 0.02, 0.08) for _ in range(3)]
    phi = rng.uniform(0.25, 0.35)
    conv_gamma = rng.uniform(*size["conv_gamma"])
    # five commands, so that the median of a run falls inside the block of the
    # three similar N=30 runs rather than on a boundary between two blocks
    commands = [
        _run_cmd(f"run-ideal-N{low}", "ideal", gamma, *angles[0], cutoff=low),
        _run_cmd(f"run-ideal-N{high}", "ideal", gamma, *angles[1], cutoff=high),
        _run_cmd(f"run-ou_mandel-N{low}", "ou_mandel", gamma, *angles[2], cutoff=low),
        Command(f"run-horne-N{low}", oracles.check_run(-1.0, "conditioned", oracles.COND_TOL), 1,
                ["run", "-e", "horne", "--gamma", _f(gamma), "--phi", _f(phi),
                 "--cutoff", str(low)]),
        _convergence_cmd("convergence", conv_gamma, size["conv_cutoffs"]),
    ]
    params = {"gamma": gamma, "angles": angles, "phi": phi, "convergence_gamma": conv_gamma}
    return Workload("high_cutoff", False, commands, params)


BUILDERS = {"cli_cold": cli_cold, "session_sweep": session_sweep, "high_cutoff": high_cutoff}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, size: dict) -> Workload:
    """The workload's commands at ``size`` (``FULL`` or ``SMOKE``), parameters drawn from ``seed``."""
    return BUILDERS[name](random.Random(seed), size)
