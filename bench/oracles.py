"""Physics oracles for the benchmark's commands.

Each check reads what a command printed and compares it with a closed form
computed here from the command's parameters alone; none of them calls into
``bellsim``.  A check returns ``None`` when the output is right and a
one-line reason when it is not.

Tolerances:

* ``COND_TOL`` for the conditioned correlation and for CHSH S.  The
  conditioned law is exact at every cutoff; the tolerance covers the
  12-significant-digit output and Taylor-series round-off (observed
  errors are below 1e-11).
* ``RAW_TOL`` for the raw correlation, which carries a truncation error.
  The benchmark only asks for it where that error is far smaller: the
  gamma scan at N=16 with gamma <= 0.52 (observed <= 4e-9), the default
  cutoff 8 with gamma <= 0.12 (about 1e-9), and N=30 with gamma <= 1.05
  (about 2e-8).  The ``leakage`` value a command prints is not used as the
  tolerance: it is not a bound on the raw error (at gamma=1, N=24 the
  raw error is 1.8e-7 while leakage is 1.1e-7).
* ``FIDELITY_TOL`` for the Horne cross-check.
"""

from __future__ import annotations

import math
import re

COND_TOL = 1e-9
RAW_TOL = 1e-6
FIDELITY_TOL = 1e-12

#: generators every pipeline stage or measurement uses; all must be hermitian
PIPELINE_GENERATORS = ("K", "K_prime", "K_OM", "J_a", "J_b", "J_prime", "J_BS",
                       "sigma_z_a", "sigma_z_b", "sigma_0_a", "sigma_0_b")

_RUN_LINE = re.compile(r"^C = (\S+) \((raw|conditioned)[,)]")
_CHSH_LINE = re.compile(r"^S = (\S+) \(")
_SCAN_LINE = re.compile(r"^scan (\w+): (\d+) rows, (\d+) failed")


def conditioned_law(delta: float) -> float:
    """Conditioned correlation of ideal and ou_mandel at analyzer difference delta."""
    return -math.cos(2.0 * delta)


def raw_law(gamma: float) -> float:
    """Raw correlation of the ideal pipeline at delta = 0, untruncated."""
    return -1.0 / (1.0 + 2.0 * math.tanh(gamma / 2.0) ** 2)


def chsh_law(angles) -> float:
    ta, tap, tb, tbp = angles
    c = conditioned_law
    return abs(c(ta - tb) + c(ta - tbp) + c(tap - tb) - c(tap - tbp))


def _close(actual: float, expected: float, tol: float, what: str):
    if not abs(actual - expected) <= tol:
        return f"{what}: got {actual!r}, expected {expected!r} (tol {tol:g})"
    return None


def check_run(expected: float, estimator: str, tol: float):
    def check(out: str):
        lines = out.strip().splitlines()
        match = _RUN_LINE.match(lines[-1]) if lines else None
        if not match or match.group(2) != estimator:
            return f"unexpected run output {out!r}"
        return _close(float(match.group(1)), expected, tol, f"{estimator} C")
    return check


def check_chsh(angles):
    expected = chsh_law(angles)

    def check(out: str):
        match = _CHSH_LINE.match(out.strip())
        if not match:
            return f"unexpected chsh output {out!r}"
        return _close(float(match.group(1)), expected, COND_TOL, "CHSH S")
    return check


def check_scan(points: int, cond=None, raw=None):
    """Scan CSV: ``cond``/``raw`` map the scanned parameter to the expected value."""
    def check(out: str):
        lines = out.strip().splitlines()
        match = _SCAN_LINE.match(lines[-1]) if lines else None
        if not match or int(match.group(2)) != points or int(match.group(3)) != 0:
            return f"unexpected scan summary {lines[-1:]!r}"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
        if len(rows) != points:
            return f"scan printed {len(rows)} rows, expected {points}"
        for parameter, c_raw, c_cond, *_ in rows:
            for law, value, tol, what in ((cond, c_cond, COND_TOL, "c_cond"),
                                          (raw, c_raw, RAW_TOL, "c_raw")):
                if law is not None:
                    reason = _close(value, law(parameter), tol, f"{what} at {parameter!r}")
                    if reason:
                        return reason
        return None
    return check


def check_convergence(gamma: float, cutoffs):
    """Every row conditions to -1; the raw value at the largest cutoff meets the closed form."""
    def check(out: str):
        rows = [line.split() for line in out.strip().splitlines()[1:1 + len(cutoffs)]]
        if [int(r[0]) for r in rows] != list(cutoffs):
            return f"unexpected convergence rows {rows!r}"
        for r in rows:
            reason = _close(float(r[2]), -1.0, COND_TOL, f"c_cond at cutoff {r[0]}")
            if reason:
                return reason
        return _close(float(rows[-1][1]), raw_law(gamma), RAW_TOL,
                      f"c_raw at cutoff {rows[-1][0]}")
    return check


def check_verify(out: str):
    if out.strip().splitlines()[-1:] != ["overall: PASS"]:
        return "verify-algebra did not print 'overall: PASS'"
    return None


def check_generators(out: str):
    listed = {parts[0]: parts[1] for parts in (line.split() for line in out.splitlines()) if parts}
    for name in PIPELINE_GENERATORS:
        if listed.get(name) != "hermitian":
            return f"generator {name} listed as {listed.get(name)!r}, expected hermitian"
    return None


def check_fidelity(out: str):
    return _close(float(out), 1.0, FIDELITY_TOL, "Horne cross-check fidelity")
