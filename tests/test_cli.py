"""Command-line surface: exit codes, determinism, golden output."""

import json
import math

import pytest

from conftest import GOLDEN_DIR

import bellsim.algebra as algebra
import bellsim.experiments as experiments
import bellsim.fock as fock
from bellsim.algebra import QuadOp
from bellsim.cli import (
    CONFIG_FIELDS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from bellsim.experiments import ESTIMATORS, PIPELINES, ExperimentSpec

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
    ("run", "--tol", "0"),
    ("run", "--tol", "-1"),
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
    ("run", "--gamma", "0.5", "--tol", "inf", "--estimator", "raw"),
])
def test_config_errors(capsys, argv):
    code, _, err = invoke(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1


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
], ids=[*(f"payload{k}" for k in range(6)), "custom-chsh", "custom-scan-delta",
        "custom-scan-gamma", "tol-infinity"])
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


def test_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gamm": 0.2}))
    code, _, err = invoke(capsys, "run", "--config", str(config))
    assert code == EXIT_CONFIG
    assert "gamm" in err


def test_missing_config_file(capsys):
    code, _, err = invoke(capsys, "run", "--config", "/nonexistent/config.json")
    assert code == EXIT_CONFIG


def test_custom_without_stages(capsys):
    code, _, err = invoke(capsys, "run", "--experiment", "custom")
    assert code == EXIT_CONFIG
    assert "stages" in err


# ---------------------------------------------------------------------------
# numerical errors (exit 3)
# ---------------------------------------------------------------------------

def test_run_nonconvergence_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(fock, "MAX_TAYLOR_TERMS", 1)
    code, _, err = invoke(capsys, "run", "--gamma", "0.4")
    assert code == EXIT_NUMERIC
    assert err == "numerical error: Taylor series did not reach tol=1e-12 within 1 terms; relax tol\n"


@pytest.mark.parametrize("argv, err_line", [
    (("run", "--gamma", "1e6", "--cutoff", "2"),
     "evolution needs 250000 substeps (limit 100000); reduce the stage parameter"),
    (("run", "--gamma", "0.1", "--tol", "1e-300", "--cutoff", "12"),
     "Taylor series did not reach tol=1e-300 within 80 terms; relax tol"),
], ids=["substeps", "taylor"])
def test_numerical_error_names_its_remedy(capsys, argv, err_line):
    """Each evolution failure prints one line with its own remedy: a larger
    cutoff needs more substeps and tightens each one's share of tol."""
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == f"numerical error: {err_line}\n"


def test_run_at_huge_angle(capsys):
    """The analyzers are contracted from the source state, never evolved, so
    any finite angle runs."""
    code, out, _ = invoke(capsys, "run", "--theta-a", "1e6")
    assert code == EXIT_OK
    assert float(out.split()[2]) == pytest.approx(-math.cos(2e6), abs=1e-9)


def test_run_setting_keeps_relative_accuracy(capsys):
    """At gamma = 1e-6 the pair amplitudes are ~1e-6, so an absolute tol on
    an evolved analyzer would cost digits; the contracted setting prints
    -cos 0.6 exactly."""
    code, out, _ = invoke(capsys, "run", "--gamma", "1e-6", "--theta-a", "0.3")
    assert code == EXIT_OK
    assert out == "C = -0.82533561491 (conditioned), leakage = 0\n"


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

    def recording_evolve(state, generator, theta, tol):
        evolved.append((names_by_op[id(generator)], theta))
        return evolve(state, generator, theta, tol)

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
    assert "extrapolated c_raw:" in out
    lines = [l for l in out.splitlines() if l and l[0].isdigit() or l.startswith("  ")]
    assert len([l for l in out.splitlines() if l.strip().startswith(("6", "8", "10"))]) == 3


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
