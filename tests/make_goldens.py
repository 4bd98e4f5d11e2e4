#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Every value is produced either by an independent dense-exponential oracle
or by the deterministic maximizer search (both in tests/oracles.py), so the
goldens are reproducible from a clean checkout:

    python tests/make_goldens.py

The files are committed; this script exists so a reviewer can re-derive
them.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
sys.path.insert(0, str(HERE))

from bellsim.experiments import (  # noqa: E402
    ExperimentSpec,
    correlation_conditioned,
    correlation_raw,
)
from bellsim.fock import get_basis, vacuum  # noqa: E402
from bellsim.catalog import catalog  # noqa: E402

import oracles  # noqa: E402


def write(name: str, payload: dict) -> None:
    path = GOLDEN / name
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")
    print(f"wrote {path}")


def chsh_maximizer() -> None:
    # the angles and "s" are reproduced exactly, but "grid_max" is not: with
    # the conditioned tensor read from the four coincidence amplitudes,
    # regenerating gives 2.8284271247461903 in place of the committed
    # 2.8284271247461907, last-digit rounding noise.  The tests read only the
    # angles and gamma, so keep the committed file.
    spec = ExperimentSpec("ideal", gamma=0.1)
    s_max, angles, grid = oracles.chsh_grid_search(spec, 16)
    write("chsh_maximizer.json", {
        "grid_n": 16,
        "gamma": 0.1,
        "cutoff": spec.cutoff,
        "estimator": "conditioned",
        "angles": {
            "theta_a": angles.theta_a,
            "theta_a_prime": angles.theta_a_prime,
            "theta_b": angles.theta_b,
            "theta_b_prime": angles.theta_b_prime,
        },
        "s": s_max,
        "grid_max": float(grid.max()),
    })


def gamma_deviation() -> None:
    # raw-estimator deviation from -1 at equal analyzer angles; the halving
    # ratio of successive rows measures the convergence order in gamma
    rows = []
    previous = None
    for gamma in (0.4, 0.2, 0.1, 0.05, 0.025):
        basis = get_basis(8)
        state = oracles.dense_evolve(vacuum(basis), catalog("K"), gamma)
        c = correlation_raw(state, gamma, 0.0)
        deviation = abs(c.value + 1.0)
        ratio = deviation / previous if previous else None
        rows.append({"gamma": gamma, "c_raw": c.value, "deviation": deviation,
                     "halving_ratio": ratio})
        previous = deviation
    write("gamma_deviation.json", {"cutoff": 8, "delta": 0.0, "rows": rows})


def ideal_baseline() -> None:
    basis = get_basis(12)
    state = oracles.dense_evolve(vacuum(basis), catalog("K"), 0.3)
    c = correlation_raw(state, 0.3, 0.0)
    write("ideal_baseline.json", {
        "gamma": 0.3, "delta": 0.0, "cutoff": 12,
        "c_raw": c.value, "numerator": c.numerator, "denominator": c.denominator,
    })


def horne_fringe() -> None:
    basis = get_basis(10)
    rows = []
    for phi in (0.0, math.pi / 4, math.pi / 2, math.pi):
        state = vacuum(basis)
        for name, par in (("K_prime", 0.1), ("J_prime", phi), ("J_BS", math.pi / 2)):
            state = oracles.dense_evolve(state, catalog(name), par)
        raw = correlation_raw(state, 0.1)
        cond = correlation_conditioned(state, 0.1)
        rows.append({
            "phi": phi,
            "c_raw": raw.value, "raw_degenerate": raw.degenerate,
            "c_cond": cond.value, "cond_degenerate": cond.degenerate,
            "numerator": raw.numerator, "denominator": raw.denominator,
        })
    write("horne_fringe.json", {"gamma": 0.1, "cutoff": 10, "rows": rows})


def scan_csv() -> None:
    # canonical small CLI scan.  No longer reproduced byte-for-byte: since the
    # conditioned estimator became an occupation-weighted sum, regenerating it
    # gives c_cond 4.37e-16 in place of the committed 3.33e-16 in the
    # delta = pi/4 row, rounding noise around an exact 0.  test_scan_csv_golden
    # compares every field at rel 1e-9 / abs 1e-12, so keep the committed file.
    out = GOLDEN / "scan_delta_small.csv"
    subprocess.run(
        [sys.executable, "-m", "bellsim.cli", "scan", "--axis", "delta",
         "--gamma", "0.1", "--cutoff", "6", "--points", "5",
         "--stop", "1.5707963267948966", "--output", str(out)],
        check=True,
        cwd=HERE.parent,
    )
    print(f"wrote {out}")


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    chsh_maximizer()
    gamma_deviation()
    ideal_baseline()
    horne_fringe()
    scan_csv()


if __name__ == "__main__":
    main()
