"""Command-line surface: exit codes, determinism, golden output."""

import json
import math

import pytest

from conftest import GOLDEN_DIR

import bellsim.algebra as algebra
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
])
def test_config_errors(capsys, argv):
    code, _, err = invoke(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    {"cutoff": "abc"},
    {"cutoff": 8.9},
    {"tol": "x"},
    {"theta_a": True},
    {"angles": [0.0, 0.8, 0.4, 2.7]},
    {"experiment": "custom", "stages": [["K", float("nan")]]},
])
def test_config_file_errors(tmp_path, capsys, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    code, _, err = invoke(capsys, "run", "--config", str(config))
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
    assert "cutoff" in err


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


def test_scan_json_format(capsys):
    code, out, _ = invoke(capsys, "scan", "--axis", "gamma", "--values", "0.1,0.2",
                          "--format", "json", "--cutoff", "6")
    assert code == EXIT_OK
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["axis"] == "gamma"
    assert len(payload["rows"]) == 2


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
