"""Command-line surface: exit codes, determinism, golden output."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import GOLDEN_DIR

import bellsim.algebra as algebra
import bellsim.experiments as experiments
from bellsim.algebra import QuadOp
from bellsim.cli import (
    CONFIG_FIELDS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    build_parser,
    fmt,
    main,
)
from bellsim.experiments import ESTIMATORS, MAX_CUTOFF, PIPELINES, ExperimentSpec

SCHEMA = GOLDEN_DIR.parent.parent / "docs" / "experiment_config.schema.json"


def invoke(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify-algebra
# ---------------------------------------------------------------------------

def test_verify_algebra_passes(capsys):
    code, out, _ = invoke(capsys, "verify-algebra")
    assert code == EXIT_OK
    assert "structure constants: 1296/1296 OK" in out
    assert "subalgebra closures: 19/19 OK" in out
    assert "overall: PASS" in out


def test_verify_algebra_json(capsys):
    code, out, _ = invoke(capsys, "verify-algebra", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["structure_constants"]["checked"] == 1296
    assert len(payload["closures"]) == 19


def test_verify_algebra_detects_corruption(capsys, monkeypatch):
    """Fault injection: corrupt one tabulated bracket and expect exit 1
    naming the failed pair."""
    real = algebra.basis_commutator.__wrapped__

    def corrupted(x, y):
        result = real(x, y)
        if x.label == "C_12" and y.label == "C_21":
            return result + QuadOp.of(algebra.C(3, 3))
        return result

    monkeypatch.setattr(algebra, "basis_commutator", corrupted)
    code, out, _ = invoke(capsys, "verify-algebra")
    assert code == EXIT_VERIFY_FAILED
    assert "overall: FAIL" in out
    assert "C_12" in out and "C_21" in out


# ---------------------------------------------------------------------------
# list-generators
# ---------------------------------------------------------------------------

def test_list_generators_table(capsys):
    code, out, _ = invoke(capsys, "list-generators")
    assert code == EXIT_OK
    assert "K_prime" in out and "sigma_z_a" in out


def test_list_generators_json_schema(capsys):
    code, out, _ = invoke(capsys, "list-generators", "--json")
    payload = json.loads(out)
    entry = next(e for e in payload["generators"] if e["name"] == "K")
    assert entry["hermitian"] is True
    assert {"kind", "i", "j", "re_num", "re_den", "im_num", "im_den"} <= set(
        entry["coefficients"][0]
    )


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_headline(capsys):
    code, out, _ = invoke(capsys, "run", "--gamma", "0.2", "--theta-a", "0.0")
    assert code == EXIT_OK
    assert out.startswith("C = -1 (conditioned)")


def test_run_degenerate_at_zero_gamma(capsys):
    code, out, _ = invoke(capsys, "run", "--gamma", "0", "--estimator", "raw")
    assert code == EXIT_OK
    assert "degenerate" in out


def test_run_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = invoke(capsys, "run", "--gamma", "0.1", "--theta-a", "0.39269908169872414",
                        "--output", str(out_path))
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["experiment"] == "ideal"
    assert payload["conditioned"]["value"] == pytest.approx(-math.cos(math.pi / 4), abs=1e-9)
    assert payload["raw"]["degenerate"] is False


def test_run_dump_state_records(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = invoke(capsys, "run", "--gamma", "0.2", "--cutoff", "6",
                        "--dump-state", "--output", str(out_path))
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    records = payload["state"]
    assert {"n1", "n2", "n3", "n4", "re", "im"} <= set(records[0])
    vac = next(r for r in records if (r["n1"], r["n2"], r["n3"], r["n4"]) == (0, 0, 0, 0))
    assert vac["re"] == pytest.approx(0.990, abs=1e-2)


def test_run_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "ideal", "gamma": 0.2, "theta_a": 0.0}))
    code, out, _ = invoke(capsys, "run", "--config", str(config), "--theta-a", "0.7853981633974483")
    assert code == EXIT_OK
    assert out.startswith("C = ")
    value = float(out.split()[2])
    assert value == pytest.approx(0.0, abs=1e-9)


def test_run_custom_pipeline_from_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "custom",
        "stages": [["K_OM", 0.2], ["J_a", 1.5707963267948966], ["J_BS", 1.5707963267948966]],
        "estimator": "conditioned",
    }))
    code, out, _ = invoke(capsys, "run", "--config", str(config))
    assert code == EXIT_OK
    assert out.startswith("C = -1 ")


# ---------------------------------------------------------------------------
# config errors (exit 2)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("run", "--cutoff", "1"),
    ("run", "--gamma", "nan"),
    ("run", "-e", "horne", "--phi", "inf"),
    ("chsh", "--experiment", "horne"),
    ("chsh", "--angles", "1,2,3"),
    ("chsh", "--angles", "1,2,x,3"),
    ("scan", "--axis", "delta", "--points", "0"),
    ("scan", "--axis", "delta", "--values", "a,b"),
    ("convergence", "--cutoffs", "8,6"),
    ("convergence", "--cutoffs", "x"),
    ("scan", "--axis", "delta", "--values", "nan"),
    ("scan", "--axis", "delta", "--values", "inf"),
    ("scan", "--axis", "delta", "--start", "nan", "--points", "3"),
    ("convergence", "--cutoffs", "6,6"),
    ("scan", "--axis", "phi", "-e", "ideal", "--points", "3"),
])
def test_config_errors(capsys, argv):
    code, _, err = invoke(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (("scan", "--axis", "delta", "--values", ""), "values"),
    (("chsh", "--angles", ""), "angles"),
    (("convergence", "--cutoffs", ""), "cutoffs"),
])
def test_empty_list_flag_is_config_error(capsys, argv, flag):
    """An empty list is a bad list, not the default grid or angles."""
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (EXIT_CONFIG, "", f"config error: bad --{flag} list: ''\n")


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'\xff\xfe{"gamma": 0.1}')
    code, out, err = invoke(capsys, "run", "--config", str(config))
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith(f"config error: cannot read config {config}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("run",),
    ("scan", "--axis", "delta", "--points", "3"),
    ("scan", "--axis", "delta", "--points", "3", "--format", "json"),
    ("verify-algebra", "--json"),
])
def test_unwritable_output_is_config_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.out"
    code, out, err = invoke(capsys, *argv, "--output", str(target))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"config error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify-algebra",),
    ("list-generators",),
    ("run", "--cutoff", "4"),
    ("chsh", "--cutoff", "4"),
    ("scan", "--axis", "delta", "--points", "2", "--cutoff", "4"),
    ("convergence", "--cutoffs", "4,6"),
], ids=lambda argv: argv[0])
def test_output_file_is_written(tmp_path, capsys, argv):
    target = tmp_path / "report.out"
    code, _, _ = invoke(capsys, *argv, "--output", str(target))
    assert code == EXIT_OK
    assert target.read_text(encoding="utf-8")


def test_output_keeps_text_stdout(tmp_path, capsys):
    """verify-algebra and list-generators print their text tables with
    --output too, and write the --json report to the file."""
    for command in ("verify-algebra", "list-generators"):
        target = tmp_path / f"{command}.json"
        _, text, _ = invoke(capsys, command)
        _, report, _ = invoke(capsys, command, "--json")
        code, out, _ = invoke(capsys, command, "--output", str(target))
        assert code == EXIT_OK
        assert out == text
        assert target.read_text(encoding="utf-8") == report


#: a valid custom pipeline, which chsh and scans do not take
_CUSTOM = {"experiment": "custom", "stages": [["K", 0.1], ["J_a", 0.4]]}


@pytest.mark.parametrize("payload, command", [
    ({"cutoff": "abc"}, ("run",)),
    ({"cutoff": 8.9}, ("run",)),
    ({"tol": "x"}, ("run",)),
    ({"theta_a": True}, ("run",)),
    ({"angles": [0.0, 0.8, 0.4, 2.7]}, ("run",)),
    ({"experiment": "custom", "stages": [["K", float("nan")]]}, ("run",)),
    (_CUSTOM, ("chsh",)),
    (_CUSTOM, ("scan", "--axis", "delta", "--points", "3")),
    (_CUSTOM, ("scan", "--axis", "gamma", "--points", "3")),
    ({"tol": float("inf")}, ("run",)),
    ({"experiment": "ideal", "stages": "x"}, ("run",)),
    ({"experiment": "ideal", "stages": [["nope", 1]]}, ("run",)),
], ids=[*(f"payload{k}" for k in range(6)), "custom-chsh", "custom-scan-delta",
        "custom-scan-gamma", "tol-infinity", "ideal-stages-text", "ideal-stages-list"])
def test_config_file_errors(tmp_path, capsys, payload, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    code, _, err = invoke(capsys, *command, "--config", str(config))
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_config_schema_matches_cli():
    """The documented config keys, defaults and enums are the ones the CLI takes."""
    properties = json.loads(SCHEMA.read_text(encoding="utf-8"))["properties"]
    assert set(properties) == set(CONFIG_FIELDS)
    defaults = ExperimentSpec()
    for key, prop in properties.items():
        if "default" in prop:
            assert prop["default"] == getattr(defaults, CONFIG_FIELDS[key]), key
    assert properties["experiment"]["enum"] == list(PIPELINES)
    assert properties["estimator"]["enum"] == list(ESTIMATORS)
    assert properties["cutoff"]["maximum"] == MAX_CUTOFF


def test_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gamm": 0.2}))
    code, _, err = invoke(capsys, "run", "--config", str(config))
    assert code == EXIT_CONFIG
    assert "gamm" in err


def test_tol_is_not_an_input(capsys):
    """Every stage is exact, so there is no tolerance: ``--tol`` is an unknown
    argument of every experiment command (a ``tol`` config key is an
    unknown key, see ``test_config_file_errors``)."""
    for command in (("run",), ("chsh",), ("scan", "--axis", "delta"), ("convergence",)):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--gamma", "0.5", "--tol", "0.5", "--estimator", "raw"])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --tol 0.5\n")


def test_huge_cutoff_is_a_config_error(capsys):
    """A cutoff whose basis cannot be built is refused before any array is
    allocated."""
    code, out, err = invoke(capsys, "run", "--cutoff", "99999999")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: cutoff must be at most 60, got 99999999\n"


def test_missing_config_file(capsys):
    code, _, err = invoke(capsys, "run", "--config", "/nonexistent/config.json")
    assert code == EXIT_CONFIG


def test_custom_without_stages(capsys):
    code, _, err = invoke(capsys, "run", "--experiment", "custom")
    assert code == EXIT_CONFIG
    assert "stages" in err


@pytest.mark.parametrize("argv", [
    ("run", "--theta-a", "1e308"),
    ("chsh", "--angles", "1e308,0,0,0"),
    ("scan", "--axis", "delta", "--values", "0,1e308"),
], ids=["run", "chsh", "scan_delta"])
def test_overflowing_analyzer_angle_is_a_config_error(capsys, argv):
    """A finite angle whose double 2*theta overflows has no analyzer rotation."""
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: analyzer angle 1e+308 is too large: 2*theta overflows\n"


# ---------------------------------------------------------------------------
# numerical errors (exit 3)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, err_line", [
    (("run", "--gamma", "1e6", "--cutoff", "2"),
     "the phase of a stage is too large for double precision; reduce the stage parameter"),
], ids=["precision"])
def test_numerical_error_names_its_remedy(capsys, argv, err_line):
    """An evolution failure prints one line with its remedy."""
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == f"numerical error: {err_line}\n"


PHASE_TOO_LARGE = ("the phase of a stage is too large for double precision; "
                   "reduce the stage parameter")


@pytest.mark.parametrize("argv", [
    ("run", "--gamma", "1e308"),
    ("run", "-e", "horne", "--phi", "1e308"),
    ("convergence", "--gamma", "1e308"),
], ids=["gamma", "phi", "convergence"])
def test_overflowing_stage_parameter_is_a_numerical_error(capsys, argv):
    """One rule for pair sources and passive stages: a stage fails when the
    rounding of its phases, eps times |theta| times its largest eigenvalue
    or phase weight on the kets, exceeds ``fock.ACCURACY``, an overflow
    included."""
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == f"numerical error: {PHASE_TOO_LARGE}\n"


@pytest.mark.parametrize("theta, code, err", [
    (1e3, EXIT_OK, ""), (1e20, EXIT_NUMERIC, f"numerical error: {PHASE_TOO_LARGE}\n"),
    (1e308, EXIT_NUMERIC, f"numerical error: {PHASE_TOO_LARGE}\n"),
], ids=["finite", "precision", "overflow"])
def test_passive_stage_at_huge_angle(tmp_path, capsys, theta, code, err):
    """A splitter stage runs while its phases keep ``fock.ACCURACY``: its
    eigenvalues on the source's kets reach 2 at cutoff 4, so theta = 1e3
    runs and 1e20, whose phases are all rounding, fails as 1e308 does."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "custom",
                                  "stages": [["K", 0.1], ["J_BS", theta]]}))
    result = invoke(capsys, "run", "--config", str(config), "--cutoff", "4")
    assert result[0] == code and result[2] == err
    assert result[1].startswith("C = ") == (code == EXIT_OK)


def test_oversized_pair_source_fails_before_eigh(tmp_path, capsys, monkeypatch):
    """``K_OM_prime`` pairs across all four a-b mode pairs, so from the vacuum
    it is one component of sum_{k <= N/2} (k+1)^2 kets: 2109 at cutoff 34,
    whose 4.4e6 dense entries exceed ``fock.MAX_DENSE``.  The run ends with
    one line before any dense block is diagonalized."""
    def no_eigh(*_):
        raise AssertionError("eigh ran on an oversized source")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "custom", "stages": [["K_OM_prime", 0.1]]}))
    code, out, err = invoke(capsys, "run", "--config", str(config), "--cutoff", "34")
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err == ("numerical error: a pair source needs 4447881 dense entries on its 2109 "
                   "kets (limit 4194304); lower the cutoff\n")


def test_pair_source_phase_fails_before_its_set_up(tmp_path, capsys, monkeypatch):
    """A pair source whose phases cannot keep ``fock.ACCURACY`` fails on a
    column norm at its support, a lower bound of its largest eigenvalue,
    before any set-up: ``K_OM_prime`` at 1e308 and cutoff 30 (one
    1496-ket component) exits 3 with no eigh and no set-up kept."""
    def no_eigh(*_):
        raise AssertionError("eigh ran on a failing source")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    experiments._stage_operator.cache_clear()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "custom", "stages": [["K_OM_prime", 1e308]]}))
    code, out, err = invoke(capsys, "run", "--config", str(config), "--cutoff", "30")
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err == ("numerical error: the phase of a stage is too large for double precision; "
                   "reduce the stage parameter\n")
    assert experiments._stage_operator("K_OM_prime", 30)._supports == {}


def test_scan_fails_only_the_overflowing_row(capsys):
    code, out, err = invoke(capsys, "scan", "--axis", "gamma", "--values", "0.1,1e308")
    assert code == EXIT_NUMERIC
    assert err == ""
    header, good, failed, summary = out.splitlines()
    assert "nan" not in good
    assert failed == "1e+308,nan,nan,nan,nan,nan"
    assert summary.startswith("scan gamma: 2 rows, 1 failed, ")


ANALYZER_OVERFLOW = "config error: analyzer angle 1e+308 is too large: 2*theta overflows\n"


@pytest.mark.parametrize("axis, argv, stderr, failed", [
    ("delta", ("--values", "0,1e308"), ANALYZER_OVERFLOW, None),
    ("delta", ("--gamma", "1e9", "--cutoff", "4", "--values", "0,0.5"), "", 2),
    ("gamma", ("--theta-a", "1e308", "--values", "0.1,0.2"), ANALYZER_OVERFLOW, None),
    ("gamma", ("--values", "0.1,1e308"), "", 1),
    ("phi", ("-e", "horne", "--values", "0,inf"),
     "config error: scan grid values must be finite numbers\n", None),
    ("phi", ("-e", "horne", "--values", "0.1,1e308"), "", 1),
], ids=["delta-config", "delta-numeric", "gamma-config", "gamma-numeric",
        "phi-config", "phi-numeric"])
def test_scan_fails_rows_only_on_numerical_errors(capsys, axis, argv, stderr, failed):
    """One rule for every axis: a config error ends the scan with exit 2, one
    stderr line and no rows; an evolution error fails rows and exits 3.  Phi
    rows read no analyzer angle, so their config error is the grid's."""
    code, out, err = invoke(capsys, "scan", "--axis", axis, *argv)
    assert err == stderr
    if failed is None:
        assert (code, out) == (EXIT_CONFIG, "")
    else:
        assert code == EXIT_NUMERIC
        *rows, summary = out.splitlines()[1:]
        assert sum(row.endswith(",nan,nan,nan,nan,nan") for row in rows) == failed
        assert summary.startswith(f"scan {axis}: 2 rows, {failed} failed, ")


def test_run_at_huge_angle(capsys):
    """The analyzers are contracted from the source state, never evolved, so
    any finite angle runs."""
    code, out, _ = invoke(capsys, "run", "--theta-a", "1e6")
    assert code == EXIT_OK
    assert float(out.split()[2]) == pytest.approx(-math.cos(2e6), abs=1e-9)


def test_run_setting_keeps_relative_accuracy(capsys):
    """At gamma = 1e-6 the pair amplitudes are ~1e-6, so an error bound
    absolute in the state would cost digits; the contracted setting prints
    -cos 0.6 exactly, and the leakage is the su(1,1) chain's to its 12
    amplitude bound of ``test_leakage_is_the_su11_chain``."""
    code, out, _ = invoke(capsys, "run", "--gamma", "1e-6", "--theta-a", "0.3")
    assert code == EXIT_OK
    head, leakage = out.split("leakage = ")
    assert head == "C = -0.82533561491 (conditioned), "
    exact = oracles.chain_leakage(1.0, 1e-6, 8)
    assert abs(float(leakage) - exact) <= 2e-15 * math.sqrt(exact) + 1e-32


@pytest.mark.parametrize("gamma, theta", [(0.1, 0.3), (0.4, -1.2), (0.05, 7.0)])
@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("name", ["ideal", "ou_mandel"])
def test_run_equals_delta_scan_row(capsys, name, estimator, gamma, theta):
    """``run`` at (theta, 0) prints the C and leakage of the delta-scan row
    at theta, byte for byte: both read the same source state."""
    common = ("-e", name, "--gamma", repr(gamma), "--estimator", estimator)
    code, out, _ = invoke(capsys, "run", *common, "--theta-a", repr(theta))
    assert code == EXIT_OK
    code, table, _ = invoke(capsys, "scan", "--axis", "delta", "--values", repr(theta), *common)
    assert code == EXIT_OK
    _, c_raw, c_cond, _, _, leakage = table.splitlines()[1].split(",")
    c = c_cond if estimator == "conditioned" else c_raw
    assert out == f"C = {c} ({estimator}), leakage = {leakage}\n"


def test_no_command_evolves_the_analyzers(capsys, monkeypatch):
    """The named recipes stop at the source: no command builds or evolves J_b,
    and J_a is evolved only as ou_mandel's fixed pi/2 polarization rotation."""
    built, evolved, names_by_op = [], [], {}
    stage_operator, evolve = experiments._stage_operator, experiments.evolve

    def recording_stage_operator(name, cutoff):
        op = stage_operator(name, cutoff)
        built.append(name)
        names_by_op[id(op)] = name
        return op

    def recording_evolve(state, generator, theta):
        evolved.append((names_by_op[id(generator)], theta))
        return evolve(state, generator, theta)

    monkeypatch.setattr(experiments, "_stage_operator", recording_stage_operator)
    monkeypatch.setattr(experiments, "evolve", recording_evolve)
    for name in ("ideal", "ou_mandel"):
        common = ("-e", name, "--theta-a", "0.3", "--theta-b", "-0.2", "--cutoff", "6")
        for argv in (("run", *common), ("chsh", *common),
                     ("scan", "--axis", "delta", "--values", "0.1,0.5", *common),
                     ("scan", "--axis", "gamma", "--values", "0.1,0.5", *common),
                     ("convergence", "--cutoffs", "4,6", *common)):
            assert invoke(capsys, *argv)[0] == EXIT_OK
    assert "J_b" not in built
    assert {name for name, _ in evolved} == {"K", "K_OM", "J_a", "J_BS"}
    assert {theta for name, theta in evolved if name == "J_a"} == {math.pi / 2}


# ---------------------------------------------------------------------------
# chsh
# ---------------------------------------------------------------------------

def test_chsh_default_angles(capsys):
    code, out, _ = invoke(capsys, "chsh", "--gamma", "0.1")
    assert code == EXIT_OK
    assert out.startswith("S = 2.82842712475")
    assert "VIOLATION" in out


def test_chsh_report_file(tmp_path, capsys):
    out_path = tmp_path / "chsh.json"
    code, _, _ = invoke(capsys, "chsh", "--gamma", "0.1", "--output", str(out_path))
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["s"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert payload["violation"] is True
    assert len(payload["correlations"]) == 4


def test_chsh_explicit_angles_no_violation(capsys):
    code, out, _ = invoke(capsys, "chsh", "--angles", "0.3,0.3,0.3,0.3")
    assert code == EXIT_OK
    assert "no violation" in out


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_csv_stdout(capsys):
    code, out, _ = invoke(capsys, "scan", "--axis", "delta", "--points", "3",
                          "--stop", "1.5707963267948966", "--cutoff", "6")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,c_raw,c_cond,numerator,denominator,leakage"
    assert len(lines) == 5  # header + 3 rows + summary
    assert lines[-1].startswith("scan delta: 3 rows, 0 failed")


def test_scan_csv_golden(tmp_path, capsys):
    """The canonical small scan reproduces the committed golden file."""
    out_path = tmp_path / "scan.csv"
    code, _, _ = invoke(capsys, "scan", "--axis", "delta", "--gamma", "0.1",
                        "--cutoff", "6", "--points", "5",
                        "--stop", "1.5707963267948966", "--output", str(out_path))
    assert code == EXIT_OK
    golden_lines = (GOLDEN_DIR / "scan_delta_small.csv").read_text().strip().splitlines()
    new_lines = out_path.read_text().strip().splitlines()
    assert new_lines[0] == golden_lines[0]
    for new, old in zip(new_lines[1:], golden_lines[1:]):
        for a, b in zip(new.split(","), old.split(",")):
            assert float(a) == pytest.approx(float(b), rel=1e-9, abs=1e-12)


def test_scan_delta_huge_angle(capsys):
    code, out, _ = invoke(capsys, "scan", "--axis", "delta", "--values", "0,1e6")
    assert code == EXIT_OK
    for line in out.splitlines()[1:3]:
        parameter, _, c_cond = map(float, line.split(",")[:3])
        assert c_cond == pytest.approx(-math.cos(2 * parameter), abs=1e-9)


def test_scan_delta_source_failure_exit_code(capsys):
    code, out, _ = invoke(capsys, "scan", "--axis", "delta", "--values", "0,0.5",
                          "--gamma", "1e9", "--cutoff", "4")
    assert code == EXIT_NUMERIC
    assert "2 rows, 2 failed" in out


def test_scan_json_format(tmp_path, capsys):
    """--format alone decides the format, whatever the --output file is called."""
    argv = ("scan", "--axis", "gamma", "--values", "0.1,0.2", "--format", "json", "--cutoff", "6")
    code, out, _ = invoke(capsys, *argv)
    assert code == EXIT_OK
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["axis"] == "gamma"
    assert len(payload["rows"]) == 2
    out_path = tmp_path / "r.csv"
    code, _, _ = invoke(capsys, *argv, "--output", str(out_path))
    assert code == EXIT_OK
    assert json.loads(out_path.read_text()) == payload


def test_failed_row_json_is_strict(tmp_path, capsys):
    """A failed row's non-finite fields are written as null, not as the bare
    NaN token that RFC 8259 parsers reject."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    out_path = tmp_path / "scan.json"
    argv = ("scan", "--axis", "gamma", "--values", "0.1,1e6", "-e", "horne", "--cutoff", "4",
            "--format", "json")
    code, out, _ = invoke(capsys, *argv)
    assert code == EXIT_NUMERIC
    payload = json.loads(out[: out.rindex("}") + 1], parse_constant=reject)
    assert invoke(capsys, *argv, "--output", str(out_path))[0] == EXIT_NUMERIC
    assert json.loads(out_path.read_text(), parse_constant=reject) == payload
    ok, failed = payload["rows"]
    assert not ok["failed"] and failed["failed"]
    fields = ("c_raw", "c_cond", "numerator", "denominator", "leakage")
    assert all(isinstance(ok[k], float) for k in fields)
    assert [failed[k] for k in fields] == [None] * 5


def test_report_key_order(tmp_path, capsys):
    """The JSON reports list their keys in a fixed order."""
    out_path = tmp_path / "chsh.json"
    code, _, _ = invoke(capsys, "chsh", "--gamma", "0.1", "--output", str(out_path))
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert list(payload) == ["s", "violation", "estimator", "gamma", "cutoff", "angles",
                             "correlations"]
    assert list(payload["angles"]) == ["theta_a", "theta_a_prime", "theta_b", "theta_b_prime"]
    assert list(payload["correlations"][0]) == ["estimator", "value", "numerator", "denominator",
                                                "leakage", "gamma", "delta", "degenerate"]
    code, out, _ = invoke(capsys, "scan", "--axis", "delta", "--points", "2",
                          "--format", "json", "--cutoff", "6")
    assert code == EXIT_OK
    payload = json.loads(out[: out.rindex("}") + 1])
    assert list(payload) == ["axis", "experiment", "estimator", "gamma", "cutoff", "rows"]
    assert list(payload["rows"][0]) == ["parameter", "c_raw", "c_cond", "numerator",
                                        "denominator", "leakage", "raw_degenerate",
                                        "cond_degenerate", "failed", "message"]


PHI_PARITY = [(("--cutoff", str(n), "--gamma", g), phi)
              for n in (4, 8, 16) for g in ("0.1", "1") for phi in ("0.3", "3", "-1.7")]
PHI_PARITY += [((), "1e6")]


@pytest.mark.parametrize("flags, phi", PHI_PARITY,
                         ids=[" ".join((*f, "--phi", phi)) for f, phi in PHI_PARITY])
def test_horne_run_matches_its_phi_row(capsys, tmp_path, flags, phi):
    """`run -e horne` and the phi row at the same phase print the same fields:
    the row is that run.  So they fail alike where the phase is too large to
    keep ``fock.ACCURACY`` (phi = 1e6, with J' weights up to 4 at cutoff 8)."""
    report = tmp_path / "run.json"
    code, _, err = invoke(capsys, "run", "-e", "horne", *flags, "--phi", phi,
                          "--output", str(report))
    row_code, out, _ = invoke(capsys, "scan", "--axis", "phi", "-e", "horne", *flags,
                              "--values", phi, "--format", "json")
    (row,) = json.loads(out[: out.rindex("}") + 1])["rows"]
    if phi == "1e6":
        assert (code, err) == (EXIT_NUMERIC, f"numerical error: {PHASE_TOO_LARGE}\n")
        assert (row_code, row["failed"], row["message"]) == (EXIT_NUMERIC, True, PHASE_TOO_LARGE)
        return
    assert (code, err, row_code) == (EXIT_OK, "", EXIT_OK)
    run = json.loads(report.read_text())
    assert not row["failed"]
    expected = {"c_raw": run["raw"]["value"], "c_cond": run["conditioned"]["value"],
                "numerator": run["raw"]["numerator"], "denominator": run["raw"]["denominator"],
                "leakage": run["leakage"]}
    for key, value in expected.items():
        assert row[key] == value, key
    assert (row["raw_degenerate"], row["cond_degenerate"]) == (
        run["raw"]["degenerate"], run["conditioned"]["degenerate"])


def test_phi_scan_fails_only_the_overflowing_row(capsys):
    code, out, err = invoke(capsys, "scan", "--axis", "phi", "-e", "horne",
                            "--values", "0.1,1e308", "--format", "json")
    assert code == EXIT_NUMERIC
    assert err == ""
    good, failed = json.loads(out[: out.rindex("}") + 1])["rows"]
    assert not good["failed"] and None not in good.values()
    assert failed["failed"] and failed["message"] == PHASE_TOO_LARGE
    code, out, _ = invoke(capsys, "scan", "--axis", "phi", "-e", "horne", "--values", "0.1,1e308")
    assert code == EXIT_NUMERIC
    header, good, failed, summary = out.splitlines()
    assert "nan" not in good
    assert failed == "1e+308,nan,nan,nan,nan,nan"
    assert summary.startswith("scan phi: 2 rows, 1 failed, ")


@pytest.mark.parametrize("gamma", ["1e308", "1e6"], ids=["inf", "finite"])
def test_phi_scan_fails_every_row_with_the_source(capsys, gamma):
    """The pair source runs ahead of the phase, so its failure is every row's,
    the row whose phase would also fail included."""
    code, out, _ = invoke(capsys, "scan", "--axis", "phi", "-e", "horne", "--gamma", gamma,
                          "--cutoff", "4", "--values", "0.1,1e308", "--format", "json")
    assert code == EXIT_NUMERIC
    rows = json.loads(out[: out.rindex("}") + 1])["rows"]
    assert [(row["failed"], row["message"]) for row in rows] == [(True, PHASE_TOO_LARGE)] * 2


@pytest.mark.parametrize("command, flag", [
    (("run",), "--gamma"),
    (("run",), "--theta-a"),
    (("run",), "--theta-b"),
    (("run", "-e", "horne"), "--phi"),
    (("convergence", "--cutoffs", "3,4"), "--gamma"),
    (("scan", "--axis", "phi", "-e", "horne", "--stop", "1", "--points", "3"), "--start"),
    (("scan", "--axis", "delta", "--start", "-1", "--points", "3"), "--stop"),
    (("scan", "--axis", "phi", "-e", "horne"), "--values"),
])
def test_negative_exponent_is_read_as_a_value(capsys, command, flag):
    """'--flag -1e-3' reads like '--flag=-1e-3', not as an unknown option."""
    value = "-1e-3,0.5" if flag == "--values" else "-1e-3"
    spaced = invoke(capsys, *command, "--cutoff", "4", flag, value)
    assert spaced == invoke(capsys, *command, "--cutoff", "4", f"{flag}={value}")
    assert spaced[0] == EXIT_OK


def test_scan_phi_axis(capsys):
    code, out, _ = invoke(capsys, "scan", "--axis", "phi", "--experiment", "horne",
                          "--values", "0.5,1.0", "--cutoff", "6")
    assert code == EXIT_OK
    assert "0 failed" in out


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_convergence_table(capsys):
    code, out, _ = invoke(capsys, "convergence", "--gamma", "0.2",
                          "--theta-a", "0.39269908169872414", "--cutoffs", "6,8,10")
    assert code == EXIT_OK
    assert "stabilized digits:" in out
    assert "extrapolated c_cond:" in out
    lines = [l for l in out.splitlines() if l and l[0].isdigit() or l.startswith("  ")]
    assert len([l for l in out.splitlines() if l.strip().startswith(("6", "8", "10"))]) == 3


@pytest.mark.parametrize("estimator, column", [("conditioned", "c_cond"), ("raw", "c_raw")])
def test_convergence_summary_follows_the_estimator(capsys, tmp_path, estimator, column):
    """Diffs, stabilized digits, ratio and extrapolation read the chosen
    estimator's column: c_cond is -1 at every cutoff, c_raw moves with it."""
    path = tmp_path / "convergence.json"
    code, out, _ = invoke(capsys, "convergence", "--gamma", "1", "--estimator", estimator,
                          "--cutoffs", "6,8,10,12", "--output", str(path))
    assert code == EXIT_OK
    payload = json.loads(path.read_text())
    chosen = [row[column] for row in payload["rows"]]
    assert payload["diffs"] == pytest.approx([abs(b - a) for a, b in zip(chosen, chosen[1:])])
    assert f"extrapolated_{column}" in payload and len(payload) == 7
    assert out.splitlines()[-1] == f"extrapolated {column}: {fmt(payload[f'extrapolated_{column}'])}"
    if estimator == "conditioned":
        assert payload["stabilized_digits"] >= 15
        assert payload["extrapolated_c_cond"] == -1.0
    else:
        assert payload["stabilized_digits"] == 2
        assert 0 < payload["contraction_ratio"] < 1


def test_convergence_summary_skips_degenerate_values(capsys, tmp_path):
    """Horne at phi = 0 has no coincidences: every c_cond is the degenerate
    placeholder 0, so there are no digits to count and nothing to extrapolate.
    Raw C is exactly 0 there, so its cutoffs differ only by rounding noise,
    and the digits count stops at the 15 of equal values."""
    path = tmp_path / "convergence.json"
    code, out, _ = invoke(capsys, "convergence", "-e", "horne", "--gamma", "1",
                          "--output", str(path))
    assert code == EXIT_OK
    assert out.splitlines()[-2:] == ["stabilized digits: n/a (degenerate)",
                                     "extrapolated c_cond: n/a (degenerate)"]
    payload = json.loads(path.read_text())
    assert [row["degenerate"] for row in payload["rows"]] == [True] * 4
    assert [payload[k] for k in ("contraction_ratio", "stabilized_digits",
                                 "extrapolated_c_cond")] == [None] * 3
    code, out, _ = invoke(capsys, "convergence", "-e", "horne", "--gamma", "1",
                          "--estimator", "raw", "--output", str(path))
    payload = json.loads(path.read_text())
    assert [row["degenerate"] for row in payload["rows"]] == [False] * 4
    assert all(abs(row["c_raw"]) < 1e-15 for row in payload["rows"])
    assert payload["stabilized_digits"] == 15 and out.splitlines()[-2] == "stabilized digits: 15"


def test_convergence_reads_no_contraction_from_rounding(capsys, tmp_path):
    """The conditioned C of ``custom [K, J', J_a]`` at theta_a = 0.3 is
    -cos 0.6 at every cutoff, so its diffs are rounding (1.1e-16 here).
    A diff below 1e-15, the resolution of the 15-digit cap, is agreement:
    no contraction is read from it, and the extrapolation is the last
    value."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "custom",
                                  "stages": [["K", 0.3], ["J_prime", 0.8], ["J_a", 0.6]]}))
    path = tmp_path / "convergence.json"
    code, _, _ = invoke(capsys, "convergence", "--config", str(config), "--estimator",
                        "conditioned", "--theta-a", "0.3", "--output", str(path))
    assert code == EXIT_OK
    payload = json.loads(path.read_text())
    assert max(payload["diffs"]) < 1e-15
    assert payload["contraction_ratio"] == 0.0 and payload["stabilized_digits"] == 15
    assert payload["extrapolated_c_cond"] == payload["rows"][-1]["c_cond"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_reruns(capsys):
    args = ("chsh", "--gamma", "0.1")
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_byte_identical_scan(tmp_path, capsys):
    paths = []
    for k in range(2):
        path = tmp_path / f"scan{k}.csv"
        invoke(capsys, "scan", "--axis", "delta", "--points", "7", "--cutoff", "6",
               "--output", str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


#: what the ``bellsim`` console script runs
LAUNCH = "import sys; from bellsim.cli import main; sys.exit(main(sys.argv[1:]))"


def test_parser_is_built_once_and_reused(capsys):
    """The parser is built once per process, and reusing it changes nothing:
    in one process, a good call, a usage error (exit 2) and another
    subcommand each print what a fresh process prints, with its exit code."""
    assert build_parser() is build_parser()
    calls = [("run", "--gamma", "0.2"), ("run", "--no-such-flag"), ("chsh", "--gamma", "0.3")]
    src = str(Path(experiments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen([sys.executable, "-c", LAUNCH, *argv], text=True,
                              env={**os.environ, "PYTHONPATH": path},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv in calls]
    fresh = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        fresh.append((proc.returncode, out, err))
    reused = []
    for argv in calls:
        try:
            reused.append(invoke(capsys, *argv))
        except SystemExit as exc:
            captured = capsys.readouterr()
            reused.append((exc.code, captured.out, captured.err))
    assert [code for code, _, _ in reused] == [EXIT_OK, EXIT_CONFIG, EXIT_OK]
    assert reused == fresh
