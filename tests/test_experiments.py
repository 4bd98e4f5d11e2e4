"""Pipelines, estimators, CHSH machinery, scans, and golden baselines."""

import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import GOLDEN_DIR

import oracles
from oracles import correlation, project_pi
from bellsim.catalog import HAMILTONIAN_GENERATORS, catalog
from bellsim.experiments import (
    ANALYZER_PIPELINES,
    BS_5050,
    CHSH_MAXIMIZER,
    ESTIMATORS,
    PIPELINES,
    _RECIPES,
    ChshAngles,
    ChshReport,
    ConfigError,
    CorrelationReport,
    ExperimentSpec,
    chsh,
    conjugated_pipeline_state,
    correlation_conditioned,
    correlation_raw,
    horne_spec,
    run,
    scan,
)
from bellsim.fock import StateVector, expect_product, fock_state, get_basis, vacuum
from bellsim.adjoint import conjugate
import bellsim.experiments as experiments
import bellsim.fock as fock

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def _singlet(basis) -> StateVector:
    amps = (fock_state(basis, (1, 0, 0, 1)).amps
            - fock_state(basis, (0, 1, 1, 0)).amps) / math.sqrt(2)
    return StateVector(basis, amps)


def _load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_builders_produce_valid_specs():
    ExperimentSpec("ideal", gamma=0.1, theta_a=0.2, theta_b=-0.1)
    horne_spec(0.1, 0.5)
    ExperimentSpec("ou_mandel", gamma=0.1)


@pytest.mark.parametrize("build, message", [
    (lambda: horne_spec(math.nan, 0.3), "gamma must be a finite number, got nan"),
    (lambda: horne_spec(0.1, math.inf), "phi must be a finite number, got inf"),
    (lambda: horne_spec(0.1, 0.3, cutoff=1), "cutoff must be an integer >= 2, got 1"),
    (lambda: horne_spec(0.1, 0.3, tol=math.inf), "tol must be a finite positive number, got inf"),
    (lambda: replace(ExperimentSpec(), gamma=math.nan), "gamma must be a finite number, got nan"),
    (lambda: ChshAngles(0, math.nan, 0, 0), "theta_a_prime must be a finite number, got nan"),
], ids=["horne-gamma-nan", "horne-phi-inf", "horne-cutoff-1", "horne-tol-inf",
        "replace-gamma-nan", "chsh-angle-nan"])
def test_rejected_when_built(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(_RECIPES))
def test_recipe_generators_are_hermitian_catalog_entries(name):
    """A spec checks only custom stages; the recipes' generators are constants."""
    for gen_name, _ in _RECIPES[name](ExperimentSpec(name)):
        assert gen_name in HAMILTONIAN_GENERATORS
        assert catalog(gen_name).is_hermitian()


def test_unknown_generator_rejected():
    with pytest.raises(ConfigError):
        ExperimentSpec("custom", (("nope", 0.1),))


def test_non_hermitian_stage_rejected():
    with pytest.raises(ConfigError):
        ExperimentSpec("custom", (("L_z", 0.1),))


def test_bad_estimator_cutoff_tol():
    with pytest.raises(ConfigError):
        ExperimentSpec("ideal", (), estimator="median")
    with pytest.raises(ConfigError):
        ExperimentSpec("ideal", (), cutoff=1)
    with pytest.raises(ConfigError):
        ExperimentSpec("ideal", (), tol=0.0)


def test_angles_only_for_analyzer_pipelines():
    with pytest.raises(ConfigError):
        correlation(horne_spec(0.1, 0.0), 0.0, 0.0)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_zero_squeeze_returns_vacuum():
    state = run(ExperimentSpec("ideal", gamma=0.0))
    assert state.amplitude((0, 0, 0, 0)) == pytest.approx(1.0)
    assert state.norm() == pytest.approx(1.0)


def test_small_gamma_state_is_vacuum_plus_singlet_pair():
    gamma = 1e-3
    state = run(ExperimentSpec("ideal", gamma=gamma))
    assert abs(state.amplitude((0, 0, 0, 0)) - 1.0) < gamma ** 2
    assert state.amplitude((1, 0, 0, 1)) == pytest.approx(0.5j * gamma, rel=1e-3)
    assert state.amplitude((0, 1, 1, 0)) == pytest.approx(-0.5j * gamma, rel=1e-3)


@pytest.mark.parametrize("name", sorted(_RECIPES))
def test_recipes_stop_before_the_analyzers(name):
    """The analyzer setting never enters a stage list: ``measure`` reads it
    from the final state."""
    stages = ExperimentSpec(name, theta_a=0.3, theta_b=-0.2).stages
    assert stages == ExperimentSpec(name).stages
    assert "J_b" not in {gen_name for gen_name, _ in stages}


def test_run_matches_dense_stage_oracle():
    spec = ExperimentSpec("ou_mandel", gamma=0.2)
    state = run(spec)
    reference = vacuum(get_basis(spec.cutoff))
    for name, par in spec.stages:
        reference = oracles.dense_evolve(reference, catalog(name), par)
    assert np.max(np.abs(state.amps - reference.amps)) < 1e-10


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_degenerate_raw_on_vacuum():
    report = correlation_raw(vacuum(get_basis(6)), 0.0, 0.0)
    assert report.degenerate and report.value == 0.0


def test_degenerate_conditioned_on_vacuum():
    report = correlation_conditioned(vacuum(get_basis(6)), 0.0, 0.0)
    assert report.degenerate and report.value == 0.0


def test_conditioned_on_singlet():
    report = correlation_conditioned(_singlet(get_basis(4)), 0.0, 0.0)
    assert report.value == pytest.approx(-1.0, abs=1e-14)
    assert report.denominator == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("gamma", [0.05, 0.2, 0.5])
def test_conditioned_law(gamma):
    worst = 0.0
    for delta in np.linspace(0.0, math.pi, 33):
        value = correlation(ExperimentSpec("ideal", gamma=gamma), float(delta), 0.0).value
        worst = max(worst, abs(value + math.cos(2 * delta)))
    assert worst < 1e-8


def test_conditioned_special_values():
    spec = ExperimentSpec("ideal", gamma=0.2)
    assert correlation(spec, 0.0, 0.0).value == pytest.approx(-1.0, abs=1e-10)
    assert correlation(spec, math.pi / 4, 0.0).value == pytest.approx(0.0, abs=1e-10)
    assert correlation(spec, math.pi / 2, 0.0).value == pytest.approx(1.0, abs=1e-10)


def test_raw_close_to_conditioned_at_small_gamma():
    spec = ExperimentSpec("ideal", gamma=0.05, estimator="raw")
    value = correlation(spec, math.pi / 8, 0.0).value
    assert abs(value + math.cos(math.pi / 4)) < 2e-3


def test_raw_against_diagonal_oracle():
    state = oracles.run_with_analyzers(ExperimentSpec("ideal", gamma=0.3), 0.4, 0.1)
    report = correlation_raw(state, 0.3, 0.3)
    num, den = oracles.correlation_oracle(state.normalized())
    assert report.numerator == pytest.approx(num, abs=1e-12)
    assert report.denominator == pytest.approx(den, abs=1e-12)
    assert report.value == pytest.approx(num / den, abs=1e-12)


@pytest.mark.filterwarnings("ignore::bellsim.fock.TruncationWarning")
@pytest.mark.parametrize("cutoff", [4, 8, 16])
@pytest.mark.parametrize("name", ["ideal", "ou_mandel", "horne"])
def test_estimators_match_sparse_products_and_oracle(name, cutoff):
    """Both estimators' occupation sums against the quartic sparse products
    <sigma_z_a sigma_z_b>, <sigma_0_a sigma_0_b> and the diagonal oracle."""

    def references(state):
        num = expect_product(state, [catalog("sigma_z_a"), catalog("sigma_z_b")])
        den = expect_product(state, [catalog("sigma_0_a"), catalog("sigma_0_b")])
        return [(num.real, den.real), oracles.correlation_oracle(state)]

    for gamma in (0.1, 0.5, 1.0):
        for angle in (0.3, math.pi / 4, 1.1):
            spec = ExperimentSpec(name, gamma=gamma, phi=angle, cutoff=cutoff)
            state = (oracles.run_with_analyzers(spec, angle, 0.0) if name in ANALYZER_PIPELINES
                     else run(spec)).normalized()
            raw = correlation_raw(state)
            cond = correlation_conditioned(state)
            assert not (raw.degenerate or cond.degenerate)
            projected = project_pi(state)[0].normalized()
            for report, ref_state in ((raw, state), (cond, projected)):
                for num, den in references(ref_state):
                    assert report.numerator == pytest.approx(num, abs=1e-12)
                    assert report.denominator == pytest.approx(den, abs=1e-12)


def test_correlation_magnitude_bounded():
    """|C| <= 1 for both estimators: the intensity product dominates the
    difference product pointwise in the occupation basis."""
    rng = random.Random(47)
    stage_names = ("K", "K_prime", "K_OM", "J_a", "J_b", "J_BS", "J_prime")
    for _ in range(10):
        stages = tuple(
            (rng.choice(stage_names), rng.uniform(-0.7, 0.7)) for _ in range(rng.randint(1, 4))
        )
        spec = ExperimentSpec("custom", stages, cutoff=6)
        state = run(spec)
        for estimator in (correlation_raw, correlation_conditioned):
            report = estimator(state)
            assert abs(report.value) <= 1.0 + 1e-9


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5])
def test_raw_denominator_magnitude_measurement(gamma):
    """Measured coincidence denominator of the ideal pipeline.

    The small-gamma expectation is sinh^2(gamma)/2; the measurement shows
    an additional (cosh(gamma) - 1)^2 contribution from the pairs-of-pairs
    sector, i.e. the simple form holds only to leading order in gamma.
    """
    state = run(ExperimentSpec("ideal", gamma=gamma, cutoff=12))
    report = correlation_raw(state, gamma, 0.0)
    leading = 0.5 * math.sinh(gamma) ** 2
    measured_extra = report.denominator - leading
    predicted_extra = (math.cosh(gamma) - 1.0) ** 2
    # 1e-4 relative: the comparison is truncation-limited near gamma = 0.5
    assert measured_extra == pytest.approx(predicted_extra, rel=1e-4)
    # relative deviation from the leading-order form grows ~ gamma^2 / 2
    assert measured_extra / leading == pytest.approx(2 * math.tanh(gamma / 2) ** 2, rel=1e-4)


def test_ideal_baseline_golden():
    golden = _load_golden("ideal_baseline.json")
    spec = ExperimentSpec("ideal", gamma=golden["gamma"], estimator="raw", cutoff=golden["cutoff"])
    value = correlation(spec, 0.0, 0.0).value
    assert value == pytest.approx(golden["c_raw"], abs=1e-9)


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------

def test_chsh_settings_order():
    angles = ChshAngles(0.1, 0.2, 0.3, 0.4)
    assert angles.settings() == ((0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4))


def test_chsh_report_recomputes_s():
    report = chsh(ExperimentSpec("ideal", gamma=0.1), ChshAngles(*CHSH_MAXIMIZER))
    c1, c2, c3, c4 = (r.value for r in report.correlations)
    assert report.s_value == pytest.approx(abs(c1 + c2 + c3 - c4), abs=0.0)
    assert report.violation


def test_chsh_equal_angles_no_violation():
    report = chsh(ExperimentSpec("ideal", gamma=0.1), ChshAngles(0.3, 0.3, 0.3, 0.3))
    assert report.s_value == pytest.approx(2.0, abs=1e-9)
    assert not report.violation


def test_violation_needs_margin_above_two():
    """S within float dust of the local bound 2 is no violation."""

    def report(s: float) -> ChshReport:
        values = (s - 1.5, 0.5, 0.5, -0.5)
        return ChshReport(
            estimator="conditioned", gamma=0.1, cutoff=8, angles=ChshAngles(0.0, 0.0, 0.0, 0.0),
            correlations=tuple(CorrelationReport("conditioned", v, v, 1.0, 0.0, 0.1, 0.0)
                               for v in values))

    assert report(2.0 + 1e-15).s_value > 2.0
    assert not report(2.0 + 1e-15).violation
    assert not report(2.0 - 1e-15).violation
    assert report(2.0 + 1e-6).violation


def test_chsh_degenerate_source_scores_zero():
    report = chsh(ExperimentSpec("ideal", gamma=0.0), ChshAngles(*CHSH_MAXIMIZER))
    assert report.s_value == 0.0
    assert all(r.degenerate for r in report.correlations)


def test_chsh_maximizer_golden():
    golden = _load_golden("chsh_maximizer.json")
    angles = ChshAngles(**golden["angles"])
    report = chsh(ExperimentSpec("ideal", gamma=golden["gamma"]), angles)
    assert report.s_value == pytest.approx(TWO_SQRT_TWO, abs=1e-6)
    assert tuple(CHSH_MAXIMIZER) == pytest.approx(angles.as_tuple(), abs=1e-12)


def test_chsh_grid_search_attains_tsirelson():
    s_max, angles, grid = oracles.chsh_grid_search(ExperimentSpec("ideal", gamma=0.1), 16)
    assert s_max == pytest.approx(TWO_SQRT_TWO, abs=2e-3)
    assert float(grid.max()) <= TWO_SQRT_TWO + 1e-9
    report = chsh(ExperimentSpec("ideal", gamma=0.1), angles)
    assert report.s_value == pytest.approx(TWO_SQRT_TWO, abs=1e-6)


def test_chsh_refinement_converges():
    start = ChshAngles(CHSH_MAXIMIZER[0] + 0.01, CHSH_MAXIMIZER[1] - 0.01,
                       CHSH_MAXIMIZER[2] + 0.02, CHSH_MAXIMIZER[3])
    best, angles = oracles.refine_chsh_maximizer(ExperimentSpec("ideal", gamma=0.1), start,
                                                 initial_step=0.02, min_step=1e-7)
    assert best == pytest.approx(TWO_SQRT_TWO, abs=1e-6)


#: analyzer settings for the route checks, including negative angles and
#: angles beyond 2 pi
_SETTINGS = ((0.0, 0.0), (-0.4, 0.3), (1.1, -2.7), (7.0, 6.5), (-6.9, 13.0))


@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.1, 0.4])
@pytest.mark.parametrize("cutoff", [4, 8, 16])
@pytest.mark.parametrize("name", ANALYZER_PIPELINES)
def test_analyzer_settings_match_full_runs(name, cutoff, gamma):
    """Settings contracted from one source state equal a full run through
    the analyzer stages at each setting."""
    for estimator in ESTIMATORS:
        spec = ExperimentSpec(name, estimator=estimator, gamma=gamma, cutoff=cutoff)
        for theta_a, theta_b in _SETTINGS:
            report = correlation(spec, theta_a, theta_b)
            reference = oracles.correlation_by_run(spec, theta_a, theta_b)
            assert report.degenerate == reference.degenerate
            assert report.delta == reference.delta
            for field in ("value", "numerator", "denominator", "leakage"):
                assert getattr(report, field) == pytest.approx(getattr(reference, field),
                                                               abs=1e-10)


@pytest.mark.filterwarnings("ignore::bellsim.fock.TruncationWarning")
@pytest.mark.parametrize("name", ANALYZER_PIPELINES)
def test_sigma_tensors_match_sparse_products(name):
    """Both tensors of an AnalyzerSource against the sparse products
    <sigma_i_a sigma_j_b> on the state and on its renormalized coincidence
    projection."""
    spec = ExperimentSpec(name, gamma=0.4, cutoff=8)
    source = experiments.analyzer_source(spec)
    state = run(spec).normalized()
    projected = project_pi(state)[0].normalized()
    for i, sigma_a in enumerate(("sigma_z_a", "sigma_y_a")):
        for j, sigma_b in enumerate(("sigma_z_b", "sigma_y_b")):
            ops = [catalog(sigma_a), catalog(sigma_b)]
            assert source.raw_tensor[i, j] == pytest.approx(
                expect_product(state, ops).real, abs=1e-12)
            assert source.cond_tensor[i, j] == pytest.approx(
                expect_product(projected, ops).real, abs=1e-12)


@pytest.mark.parametrize("name", PIPELINES)
def test_measure_reads_the_setting(name):
    """``measure`` returns the final state and both estimators at the spec's
    own setting: read directly when there is no analyzer to apply, and
    contracted from the state's AnalyzerSource otherwise."""
    custom = (("K", 0.2), ("J_a", 0.6)) if name == "custom" else ()
    for theta_a, theta_b in ((0.0, 0.0), (0.3, -0.2)):
        spec = ExperimentSpec(name, custom, gamma=0.2, theta_a=theta_a, theta_b=theta_b,
                              phi=0.4)
        state, raw, cond = experiments.measure(spec)
        assert np.array_equal(state.amps, run(spec).amps)
        delta = theta_a - theta_b
        if name in ANALYZER_PIPELINES and (theta_a or theta_b):
            source = experiments.analyzer_source(spec)
            expected = (source.report("raw", theta_a, theta_b),
                        source.report("conditioned", theta_a, theta_b))
        else:
            expected = (correlation_raw(state, 0.2, delta),
                        correlation_conditioned(state, 0.2, delta))
        assert (raw, cond) == expected


@pytest.mark.parametrize("name", ANALYZER_PIPELINES)
def test_chsh_grid_matches_full_runs(name):
    for estimator in ESTIMATORS:
        spec = ExperimentSpec(name, estimator=estimator, gamma=0.3, cutoff=8)
        grid, c = oracles.chsh_grid(spec, 5)
        reference_grid, reference = oracles.chsh_grid_by_runs(spec, 5)
        assert np.array_equal(grid, reference_grid)
        assert np.max(np.abs(c - reference)) < 1e-10


def test_analyzer_settings_run_the_source_once(monkeypatch):
    calls = []
    original = experiments.run
    monkeypatch.setattr(experiments, "run", lambda spec: calls.append(spec) or original(spec))
    spec = ExperimentSpec("ou_mandel", gamma=0.1)
    chsh(spec, ChshAngles(*CHSH_MAXIMIZER))
    assert len(calls) == 1
    table = scan(spec, "delta", np.linspace(0.0, math.pi, 65))
    assert len(table.rows) == 65 and len(calls) == 2
    oracles.chsh_grid_search(spec, 4)
    assert len(calls) == 3
    oracles.refine_chsh_maximizer(spec, ChshAngles(*CHSH_MAXIMIZER),
                                  initial_step=0.01, min_step=0.005)
    assert len(calls) == 4


def test_chsh_at_huge_angles():
    """Analyzer angles never pass through evolve, so any finite angle works;
    a common shift leaves S unchanged."""
    shifted = ChshAngles(*(1e6 + a for a in CHSH_MAXIMIZER))
    report = chsh(ExperimentSpec("ideal", gamma=0.1), shifted)
    assert report.s_value == pytest.approx(TWO_SQRT_TWO, abs=1e-6)


def test_ou_mandel_chsh_matches_ideal():
    report = chsh(ExperimentSpec("ou_mandel", gamma=0.1), ChshAngles(*CHSH_MAXIMIZER))
    assert report.s_value == pytest.approx(TWO_SQRT_TWO, abs=1e-6)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_delta_scan_matches_law():
    grid = np.linspace(0.0, math.pi, 65)
    table = scan(ExperimentSpec("ideal", gamma=0.2), "delta", grid)
    assert len(table.rows) == 65
    for row in table.rows:
        assert not row.failed
        assert abs(row.c_cond + math.cos(2 * row.parameter)) < 1e-8


def test_gamma_scan_quadratic_convergence():
    table = scan(ExperimentSpec("ideal", gamma=0.1), "gamma", [0.4, 0.2, 0.1, 0.05])
    deviations = [abs(row.c_raw + 1.0) for row in table.rows]
    ratios = [deviations[k + 1] / deviations[k] for k in range(3)]
    assert all(abs(r - 0.25) < 0.05 for r in ratios)


def test_gamma_scan_keeps_analyzer_angles_and_phase():
    table = scan(ExperimentSpec("ideal", gamma=0.1, theta_a=0.3), "gamma", [0.1, 0.2])
    for row in table.rows:
        assert row.c_cond == pytest.approx(-math.cos(0.6), abs=1e-9)
    table = scan(horne_spec(0.1, 1.0), "gamma", [0.1, 0.2])
    assert not any(row.cond_degenerate for row in table.rows)


def test_gamma_deviation_golden():
    golden = _load_golden("gamma_deviation.json")
    for row in golden["rows"]:
        spec = ExperimentSpec("ideal", gamma=row["gamma"], estimator="raw",
                              cutoff=golden["cutoff"])
        value = correlation(spec, 0.0, 0.0).value
        assert value == pytest.approx(row["c_raw"], abs=1e-9)
        if row["halving_ratio"] is not None:
            assert abs(row["halving_ratio"] - 0.25) < 0.05


def test_empty_grid_rejected():
    with pytest.raises(ConfigError):
        scan(ExperimentSpec("ideal", gamma=0.1), "delta", [])


def test_non_monotone_grid_rejected():
    with pytest.raises(ConfigError):
        scan(ExperimentSpec("ideal", gamma=0.1), "delta", [0.0, 0.5, 0.3])


def test_unknown_axis_rejected():
    with pytest.raises(ConfigError):
        scan(ExperimentSpec("ideal", gamma=0.1), "sideways", [0.1])


def test_scan_marks_failed_rows():
    # gamma far beyond any reasonable cutoff head-room exhausts the substep
    # budget and must be reported per-row, not raised

    table = scan(ExperimentSpec("ideal", gamma=0.1, cutoff=4), "gamma", [0.1, 1e9])
    assert not table.rows[0].failed
    assert table.rows[1].failed
    assert "substeps" in table.rows[1].message or "tol" in table.rows[1].message


def test_delta_scan_at_huge_angle():
    table = scan(ExperimentSpec("ideal", gamma=0.1), "delta", [0.0, 1e6])
    for row in table.rows:
        assert not row.failed
        assert row.c_cond == pytest.approx(-math.cos(2 * row.parameter), abs=1e-9)


def test_delta_rows_fail_with_the_source():
    table = scan(ExperimentSpec("ideal", gamma=1e9, cutoff=4), "delta", [0.0, 0.5, 1.0])
    assert all(row.failed for row in table.rows)
    messages = {row.message for row in table.rows}
    assert len(messages) == 1 and "substeps" in messages.pop()


def test_scan_rejects_custom_pipeline():
    spec = ExperimentSpec("custom", (("K", 0.1),))
    with pytest.raises(ConfigError):
        scan(spec, "gamma", [0.1, 0.2])


def test_scan_axis_pipeline_compatibility():
    with pytest.raises(ConfigError):
        scan(horne_spec(0.1, 0.0), "delta", [0.1])
    with pytest.raises(ConfigError):
        scan(ExperimentSpec("ideal", gamma=0.1), "phi", [0.1])


def test_phi_scan_horne_fringe_golden():
    golden = _load_golden("horne_fringe.json")
    table = scan(horne_spec(golden["gamma"], 0.0, cutoff=golden["cutoff"]),
                 "phi", [row["phi"] for row in golden["rows"]])
    for row, expected in zip(table.rows, golden["rows"]):
        assert row.cond_degenerate == expected["cond_degenerate"]
        assert row.c_raw == pytest.approx(expected["c_raw"], abs=1e-9)
        assert row.c_cond == pytest.approx(expected["c_cond"], abs=1e-9)


def test_coincidence_weight_fringe():
    """The interferometric pipeline shows its fringe in the coincidence
    weight (~sin^2 phi), not in the conditioned correlation."""
    weights = []
    for phi in (0.2, 0.7, 1.2):
        state = run(horne_spec(0.1, phi))
        _, weight = project_pi(state)
        weights.append(weight)
    reference = weights[0] / math.sin(0.2) ** 2
    for phi, weight in zip((0.2, 0.7, 1.2), weights):
        assert weight == pytest.approx(reference * math.sin(phi) ** 2, rel=1e-2)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_conditioned_invariance_under_common_shifts():
    """Both estimators see only the analyzer difference: a common shift of
    theta_a and theta_b leaves C unchanged."""
    for estimator in ESTIMATORS:
        spec = ExperimentSpec("ideal", gamma=0.2, estimator=estimator)
        rng = random.Random(53)
        base = correlation(spec, 0.25, -0.1).value
        for _ in range(5):
            s = rng.uniform(-1.5, 1.5)
            shifted = correlation(spec, 0.25 + s, -0.1 + s).value
            assert abs(shifted - base) < 1e-9, estimator


def test_rotation_identity_zero_shift_exact():
    value_a = correlation(ExperimentSpec("ideal", gamma=0.2), 0.3, 0.1).value
    value_b = correlation(ExperimentSpec("ideal", gamma=0.2), 0.3, 0.1).value
    assert value_a == value_b


def test_sigma_rotation_quarter_turn():
    # at delta = pi/2 the difference rotation maps sigma_z_a to -sigma_y_a
    moved = conjugate(catalog("J"), -math.pi / 2, catalog("sigma_z_a"))
    assert oracles.max_coeff_distance(moved, -catalog("sigma_y_a")) < 1e-10
    assert oracles.sigma_rotation_error(math.pi / 2) < 1e-10


def test_horne_staged_equals_conjugated():
    spec = horne_spec(0.15, 0.6)
    staged = run(spec)
    conjugated = conjugated_pipeline_state(spec)
    assert np.max(np.abs(staged.amps - conjugated.amps)) < 1e-9


def test_conjugated_generators_built_once(monkeypatch):
    spec = horne_spec(0.1, 1.3, cutoff=10)
    conjugated_pipeline_state(spec)

    def fail(*args, **kwargs):
        raise AssertionError("conjugate called again")

    monkeypatch.setattr(experiments, "conjugate", fail)
    assert run(spec).fidelity(conjugated_pipeline_state(spec)) >= 1.0 - 1e-12


def test_ou_mandel_staged_equals_conjugated_source():
    """The staged preparation equals a single squeeze by the conjugated
    source generator (the mixer chain leaves the vacuum alone)."""
    gamma = 0.15
    spec = ExperimentSpec("ou_mandel", gamma=gamma)
    staged = run(spec)
    transformed = conjugate(catalog("J_BS"), BS_5050,
                            conjugate(catalog("J_a"), math.pi / 2, catalog("K_OM"),
                                      tol=1e-300), tol=1e-300)
    basis = get_basis(spec.cutoff)
    direct = fock.evolve(vacuum(basis), fock.matrix(transformed, basis), gamma, spec.tol)
    assert np.max(np.abs(staged.amps - direct.amps)) < 1e-9


def test_ou_mandel_projection_is_singlet():
    basis = get_basis(8)
    singlet = _singlet(basis)
    for gamma in (0.2, 0.1, 0.05):
        state = run(ExperimentSpec("ou_mandel", gamma=gamma))
        projected, weight = project_pi(state)
        assert weight > 0
        assert projected.normalized().fidelity(singlet) >= 1.0 - 1e-12
