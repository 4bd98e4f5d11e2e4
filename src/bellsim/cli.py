"""Command-line interface.

Subcommands: verify-algebra, list-generators, run, chsh, scan, convergence.

All computation is deterministic and seedless: there is no RNG anywhere in
the library, reductions use pairwise summation (numpy) in a fixed order,
and floats are printed with 12 significant digits, so identical
invocations produce byte-identical output.

Exit codes: 0 success; 1 algebra verification failure; 2 configuration
error; 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .algebra import commutator, verify_closure, verify_structure_constants
from .catalog import CLOSURE_SUITE, HAMILTONIAN_GENERATORS, catalog, dump_catalog, names
from .experiments import (
    ANALYZER_PIPELINES,
    CHSH_MAXIMIZER,
    ChshAngles,
    ConfigError,
    ESTIMATORS,
    PIPELINES,
    ExperimentSpec,
    chsh,
    measure,
    scan,
)
from .fock import EvolveError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def fmt(x: float) -> str:
    """Fixed 12-significant-digit rendering used for all numeric output."""
    return format(float(x), ".12g")


def _json_ready(value):
    # floats print with 12 digits; JSON has no NaN, so a failed row's fields are null
    if isinstance(value, float):
        return float(fmt(value)) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def emit_json(payload: dict, output: str | None) -> str:
    text = json.dumps(_json_ready(payload), indent=2, allow_nan=False) + "\n"
    if output:
        _write_output(output, text)
    return text


# ---------------------------------------------------------------------------
# verify-algebra
# ---------------------------------------------------------------------------

def _identity_checks():
    """Exact operator identities beyond the closure tables."""
    return [
        ("[K, J_a+J_b] = 0",
         commutator(catalog("K"), catalog("J_a") + catalog("J_b")).is_zero()),
        ("K = K_x", catalog("K") == catalog("K_x")),
        ("J = J_a - J_b", catalog("J") == catalog("J_a") - catalog("J_b")),
        ("J' = J_PS_a - J_PS_b",
         catalog("J_prime") == catalog("J_PS_a") - catalog("J_PS_b")),
        ("K_OM' = K_OM_1 + K_OM_2",
         catalog("K_OM_prime") == catalog("K_OM_1") + catalog("K_OM_2")),
        ("K_x = K_x_14 - K_x_23", catalog("K_x") == catalog("K_x_14") - catalog("K_x_23")),
        ("K_y = K_y_14 - K_y_23", catalog("K_y") == catalog("K_y_14") - catalog("K_y_23")),
        ("K_z = K_z_14 + K_z_23", catalog("K_z") == catalog("K_z_14") + catalog("K_z_23")),
    ]


def cmd_verify_algebra(args) -> int:
    structure = verify_structure_constants()
    closures = [(name, verify_closure([catalog(g) for g in gens], table))
                for name, gens, table in CLOSURE_SUITE]
    closed = sum(1 for _, rep in closures if rep.ok)
    herm_bad = [n for n in HAMILTONIAN_GENERATORS if not catalog(n).is_hermitian()]
    identities = _identity_checks()
    ident_ok = sum(1 for _, ok in identities if ok)

    all_ok = (structure.ok and closed == len(closures)
              and not herm_bad and ident_ok == len(identities))

    payload = {
        "structure_constants": {
            "checked": structure.pairs_checked,
            "mismatches": [
                {"x": x.label, "y": y.label, "table": repr(t), "reference": repr(r)}
                for x, y, t, r in structure.mismatches
            ],
        },
        "closures": [
            {"name": name, "ok": rep.ok,
             "mismatches": [{"row": r, "col": c, "residual": repr(d)}
                            for r, c, d in rep.mismatches]}
            for name, rep in closures
        ],
        "non_hermitian_generators": herm_bad,
        "identities": [{"name": n, "ok": ok} for n, ok in identities],
        "ok": all_ok,
    }
    text = emit_json(payload, args.output)
    if args.json:
        sys.stdout.write(text)
    else:
        lines = [
            f"structure constants: {structure.pairs_checked - len(structure.mismatches)}"
            f"/{structure.pairs_checked} OK",
            f"subalgebra closures: {closed}/{len(closures)} OK",
            f"hermitian generators: {len(HAMILTONIAN_GENERATORS) - len(herm_bad)}"
            f"/{len(HAMILTONIAN_GENERATORS)} OK",
            f"operator identities: {ident_ok}/{len(identities)} OK",
        ]
        for x, y, t, r in structure.mismatches:
            lines.append(f"  MISMATCH [{x.label}, {y.label}]: table {t!r} vs reference {r!r}")
        for name, rep in closures:
            for r, c, d in rep.mismatches:
                lines.append(f"  MISMATCH {name} pair ({r},{c}): residual {d!r}")
        for n in herm_bad:
            lines.append(f"  NON-HERMITIAN generator {n}")
        for n, ok in identities:
            if not ok:
                lines.append(f"  IDENTITY FAILED: {n}")
        lines.append("overall: " + ("PASS" if all_ok else "FAIL"))
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_list_generators(args) -> int:
    if args.json or args.output:
        text = emit_json({"generators": dump_catalog()}, args.output)
        if args.json:
            sys.stdout.write(text)
            return EXIT_OK
    rows = []
    for name in names():
        op = catalog(name)
        herm = "hermitian" if op.is_hermitian() else "non-hermitian"
        rows.append(f"{name:12s} {herm:14s} {len(op.coeffs):2d} terms")
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config document must be a JSON object")
    return payload


#: config keys, and the ExperimentSpec field each one sets; the spec holds the
#: defaults, and the flag of the same name, where there is one, overrides the file
CONFIG_FIELDS = {"experiment": "name", "gamma": "gamma", "theta_a": "theta_a",
                 "theta_b": "theta_b", "phi": "phi", "cutoff": "cutoff", "tol": "tol",
                 "estimator": "estimator", "stages": "custom_stages"}


def _build_spec(args) -> ExperimentSpec:
    settings = {}
    if getattr(args, "config", None):
        payload = _load_config(args.config)
        unknown = payload.keys() - CONFIG_FIELDS.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # JSON writes integral reals as ints; report them as the floats the flags give
        settings.update({k: float(v) if type(v) is int and k != "cutoff" else v
                         for k, v in payload.items()})
    for key in CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return ExperimentSpec(**{CONFIG_FIELDS[k]: v for k, v in settings.items()})


def cmd_run(args) -> int:
    spec = _build_spec(args)
    state, raw, cond = measure(spec)
    chosen = cond if spec.estimator == "conditioned" else raw
    stages = [[n, p] for n, p in spec.stages]
    if spec.name in ANALYZER_PIPELINES:
        # the analyzers end the pipeline; measure contracts them, run never evolves them
        stages += [["J_a", 2.0 * spec.theta_a], ["J_b", 2.0 * spec.theta_b]]
    payload = {
        "experiment": spec.name,
        "estimator": spec.estimator,
        "gamma": spec.gamma,
        "cutoff": spec.cutoff,
        "stages": stages,
        "c": chosen.value,
        "degenerate": chosen.degenerate,
        "raw": asdict(raw),
        "conditioned": asdict(cond),
        "norm": state.norm(),
        "leakage": raw.leakage,
        "state": state.to_records() if args.dump_state else None,
    }
    if payload["state"] is None:
        del payload["state"]
    if args.output:
        emit_json(payload, args.output)
    sys.stdout.write(
        f"C = {fmt(chosen.value)} ({spec.estimator}"
        + (", degenerate" if chosen.degenerate else "")
        + f"), leakage = {fmt(raw.leakage)}\n"
    )
    return EXIT_OK


def cmd_chsh(args) -> int:
    spec = _build_spec(args)
    if args.angles:
        try:
            parts = [float(x) for x in args.angles.split(",")]
        except ValueError:
            raise ConfigError(f"bad --angles list: {args.angles!r}") from None
        if len(parts) != 4:
            raise ConfigError("--angles requires 'theta_a,theta_a_prime,theta_b,theta_b_prime'")
        angles = ChshAngles(*parts)
    else:
        angles = ChshAngles(*CHSH_MAXIMIZER)
    report = chsh(spec, angles)
    if args.output:
        emit_json(report.to_dict(), args.output)
    sys.stdout.write(
        f"S = {fmt(report.s_value)} ({spec.estimator}, gamma = {fmt(spec.gamma)})"
        + (" VIOLATION" if report.violation else " no violation")
        + f", max leakage = {fmt(max(r.leakage for r in report.correlations))}\n"
    )
    return EXIT_OK


def _parse_grid(args) -> list[float]:
    if args.values:
        try:
            return [float(x) for x in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"bad --values list: {args.values!r}") from None
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    if args.points == 1:
        return [args.start]
    step = (args.stop - args.start) / (args.points - 1)
    return [args.start + k * step for k in range(args.points)]


def cmd_scan(args) -> int:
    spec = _build_spec(args)
    grid = _parse_grid(args)
    table = scan(spec, args.axis, grid)
    failed = sum(1 for r in table.rows if r.failed)
    if args.format == "csv":
        lines = [table.CSV_HEADER]
        for row in table.rows:
            lines.append(",".join(fmt(v) for v in (
                row.parameter, row.c_raw, row.c_cond,
                row.numerator, row.denominator, row.leakage)))
        text = "\n".join(lines) + "\n"
        if args.output:
            _write_output(args.output, text)
        else:
            sys.stdout.write(text)
    else:
        text = emit_json(asdict(table), args.output)
        if not args.output:
            sys.stdout.write(text)
    max_leak = max((r.leakage for r in table.rows if not r.failed), default=float("nan"))
    sys.stdout.write(
        f"scan {args.axis}: {len(table.rows)} rows, {failed} failed, "
        f"max leakage = {fmt(max_leak)}\n"
    )
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def cmd_convergence(args) -> int:
    spec = _build_spec(args)
    try:
        cutoffs = [int(x) for x in args.cutoffs.split(",")]
    except ValueError:
        raise ConfigError(f"bad --cutoffs list: {args.cutoffs!r}") from None
    if len(cutoffs) < 2 or cutoffs[0] < 2 or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ConfigError("--cutoffs must be a strictly increasing list of integers >= 2")
    values = []
    for cutoff in cutoffs:
        _, raw, cond = measure(replace(spec, cutoff=cutoff))
        values.append({"cutoff": cutoff, "c_raw": raw.value, "c_cond": cond.value,
                       "leakage": raw.leakage})
    diffs = [abs(values[k + 1]["c_raw"] - values[k]["c_raw"]) for k in range(len(values) - 1)]
    stabilized = int(-math.log10(diffs[-1])) if diffs[-1] > 0 else 15
    if len(diffs) >= 2 and diffs[-2] > 0 and diffs[-1] > 0:
        ratio = diffs[-1] / diffs[-2]
        extrapolated = values[-1]["c_raw"] + (values[-1]["c_raw"] - values[-2]["c_raw"]) * (
            ratio / (1 - ratio)) if ratio < 1 else values[-1]["c_raw"]
    else:
        ratio = 0.0
        extrapolated = values[-1]["c_raw"]
    payload = {
        "experiment": spec.name,
        "gamma": spec.gamma,
        "rows": values,
        "diffs": diffs,
        "contraction_ratio": ratio,
        "stabilized_digits": stabilized,
        "extrapolated_c_raw": extrapolated,
    }
    if args.output:
        emit_json(payload, args.output)
    lines = ["cutoff  c_raw            c_cond           leakage"]
    for v in values:
        lines.append(f"{v['cutoff']:6d}  {fmt(v['c_raw']):16s} {fmt(v['c_cond']):16s} "
                     f"{fmt(v['leakage'])}")
    lines.append(f"stabilized digits: {stabilized}")
    lines.append(f"extrapolated c_raw: {fmt(extrapolated)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override file values)")
    parser.add_argument("--experiment", "-e", choices=PIPELINES, default=None)
    parser.add_argument("--gamma", type=float, default=None, help="squeeze parameter")
    parser.add_argument("--theta-a", dest="theta_a", type=float, default=None,
                        help="analyzer angle for channel a (radians)")
    parser.add_argument("--theta-b", dest="theta_b", type=float, default=None,
                        help="analyzer angle for channel b (radians)")
    parser.add_argument("--phi", type=float, default=None, help="phase difference (horne)")
    parser.add_argument("--cutoff", type=int, default=None, help="total-photon cutoff (>= 2)")
    parser.add_argument("--tol", type=float, default=None, help="evolution tolerance (finite, > 0)")
    parser.add_argument("--estimator", choices=ESTIMATORS, default=None)
    parser.add_argument("--output", "-o", default=None, help="write a JSON/CSV report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Four-mode boson algebra and Bell-test simulator",
    )
    parser.add_argument("--version", action="version", version=f"bellsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="check structure constants and closures")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("list-generators", help="list the generator catalog")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_list_generators)

    p = sub.add_parser("run", help="run one pipeline and print the correlation")
    _add_common(p)
    p.add_argument("--dump-state", action="store_true",
                   help="include the final state in the JSON report (for ideal "
                        "and ou_mandel, the state the analyzers read)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("chsh", help="evaluate the four-setting CHSH figure of merit",
                       description="Evaluate the four-setting CHSH figure of merit. "
                                   "Takes the ideal and ou_mandel pipelines only: horne "
                                   "and custom have no analyzer stages to set.")
    _add_common(p)
    p.add_argument("--angles", default=None,
                   help="theta_a,theta_a_prime,theta_b,theta_b_prime "
                        "(default: the frozen maximizer)")
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("scan", help="sweep a parameter and tabulate both estimators",
                       description="Sweep a parameter and tabulate both estimators. "
                                   "Needs a named pipeline, not custom: --axis delta takes "
                                   "ideal and ou_mandel, --axis phi takes horne, and "
                                   "--axis gamma takes all three.")
    _add_common(p)
    p.add_argument("--axis", choices=("delta", "gamma", "phi"), required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=math.pi)
    p.add_argument("--points", type=int, default=65)
    p.add_argument("--values", default=None, help="explicit comma-separated grid")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("convergence", help="repeat a pipeline at increasing cutoffs")
    _add_common(p)
    p.add_argument("--cutoffs", default="6,8,10,12")
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except EvolveError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
