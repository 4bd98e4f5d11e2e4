"""Pipelines, estimators, CHSH machinery, scans, and golden baselines."""

import json
import math
import random
from dataclasses import astuple, replace

import numpy as np
import pytest

from conftest import GOLDEN_DIR

import cli_diff
import oracles
from oracles import amplitude, correlation, fock_state, project_pi
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
from bellsim.fock import StateVector, expect_product, get_basis, vacuum
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
    (lambda: replace(ExperimentSpec(), gamma=math.nan), "gamma must be a finite number, got nan"),
    (lambda: ChshAngles(0, math.nan, 0, 0), "theta_a_prime must be a finite number, got nan"),
], ids=["horne-gamma-nan", "horne-phi-inf", "horne-cutoff-1",
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
    """The cutoff is the one accuracy input: a spec has no ``tol`` field."""
    with pytest.raises(ConfigError):
        ExperimentSpec("ideal", (), estimator="median")
    with pytest.raises(ConfigError):
        ExperimentSpec("ideal", (), cutoff=1)
    with pytest.raises(TypeError):
        ExperimentSpec("ideal", (), tol=0.0)


def test_angles_only_for_analyzer_pipelines():
    with pytest.raises(ConfigError):
        chsh(horne_spec(0.1, 0.0), ChshAngles(*CHSH_MAXIMIZER))
    with pytest.raises(ConfigError):
        scan(horne_spec(0.1, 0.0), "delta", [0.0, 0.5])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_zero_squeeze_returns_vacuum():
    state = run(ExperimentSpec("ideal", gamma=0.0))
    assert amplitude(state, (0, 0, 0, 0)) == pytest.approx(1.0)
    assert state.norm() == pytest.approx(1.0)


def test_small_gamma_state_is_vacuum_plus_singlet_pair():
    gamma = 1e-3
    state = run(ExperimentSpec("ideal", gamma=gamma))
    assert abs(amplitude(state, (0, 0, 0, 0)) - 1.0) < gamma ** 2
    assert amplitude(state, (1, 0, 0, 1)) == pytest.approx(0.5j * gamma, rel=1e-3)
    assert amplitude(state, (0, 1, 1, 0)) == pytest.approx(-0.5j * gamma, rel=1e-3)


@pytest.mark.parametrize("name", sorted(_RECIPES))
def test_recipes_stop_before_the_analyzers(name):
    """The analyzer setting never enters a stage list: ``readout`` reads it
    off the final state."""
    stages = ExperimentSpec(name, theta_a=0.3, theta_b=-0.2).stages
    assert stages == ExperimentSpec(name).stages
    assert "J_b" not in {gen_name for gen_name, _ in stages}


def test_diagonal_custom_stage_is_an_exact_phase():
    """K_z is diagonal with eigenvalue 1 on the vacuum, so the stage is the
    phase e^{0.7i}, with no rounding at all."""
    state = run(ExperimentSpec("custom", (("K_z", 0.7),)))
    assert np.array_equal(state.amps, np.exp(0.7j) * vacuum(state.basis).amps)


@pytest.mark.parametrize("cutoff", [4, 8, 12, 16])
def test_horne_leakage_is_the_source_leakage(cutoff):
    """J' and J_BS keep every total-photon shell, so the Horne state has its
    pair source's weight on the top two shells, to rounding."""
    for gamma in (0.1, 0.4, 1.0):
        spec = horne_spec(gamma, 0.0, cutoff=cutoff)
        source = fock.evolve(vacuum(get_basis(cutoff)),
                             experiments._stage_operator("K_prime", cutoff), gamma)
        for phi in (0.0, 0.3, 3.0, -1.7):
            leak = fock.leakage(run(replace(spec, phi=phi)))
            assert leak == pytest.approx(fock.leakage(source), rel=1e-12, abs=1e-30)


@pytest.mark.parametrize("cutoff", [8, 16, 30])
@pytest.mark.parametrize("name, k", [("ideal", 1.0), ("ou_mandel", 0.5)])
def test_leakage_is_the_su11_chain(name, k, cutoff):
    """The leakage of a one-source pipeline is the top-shell weight of its
    pair source's su(1,1) chain in 60-digit mpmath
    (``oracles.chain_leakage``; J_a and J_BS keep every shell).  The bound is
    on the amplitude, 2e-15 times the top shell's, with a floor of 1e-32 for
    weights that are rounding: a relative bound on the weight cannot hold
    where the exact value is below rounding (1.45e-38 for ``ideal`` at N=30,
    gamma = 0.1)."""
    for gamma in (1e-3, 0.1, 0.3, 1.0):
        exact = oracles.chain_leakage(k, gamma, cutoff)
        leak = fock.leakage(run(ExperimentSpec(name, gamma=gamma, cutoff=cutoff)))
        assert abs(leak - exact) <= 2e-15 * math.sqrt(exact) + 1e-32, gamma


@pytest.mark.parametrize("name, phi, k", [("ideal", 0.0, 1.0), ("horne", 0.0, 1.0),
                                           ("horne", 0.7, 1.0), ("ou_mandel", 0.0, 0.5)])
@pytest.mark.parametrize("gamma", [0.1, 0.7])
def test_pair_number_is_su11_coherent(name, phi, k, gamma):
    """Each named output is the SU(1,1) coherent state e^{i gamma K~}|0>, with
    Bargmann index k = 1 for the four-mode sources and 1/2 for the two-mode
    K_OM, so n pairs have P(n) = C(n+2k-1, n) tanh^{2n}(gamma/2) /
    cosh^{4k}(gamma/2).  The phase and the splitter keep the photon number.
    Checked on the shells n <= N/4, far below the cutoff N = 30."""
    cutoff = 30
    state = run(ExperimentSpec(name, gamma=gamma, phi=phi, cutoff=cutoff))
    shells = np.bincount(state.basis.totals, weights=np.abs(state.amps) ** 2)
    assert not np.any(shells[1::2])
    t, c = math.tanh(gamma / 2), math.cosh(gamma / 2)
    for n in range(cutoff // 4 + 1):
        exact = math.gamma(n + 2 * k) / (math.factorial(n) * math.gamma(2 * k))
        exact *= t ** (2 * n) / c ** (4 * k)
        assert shells[2 * n] == pytest.approx(exact, rel=0, abs=1e-14), n


#: p = tanh^2(gamma/2) at gamma = 0.3
P_03 = math.tanh(0.3 / 2) ** 2


@pytest.mark.parametrize("name, phi, exact, tol", [
    ("ideal", 0.0, -1 / (1 + 2 * P_03), 1e-12),
    ("ou_mandel", 0.0, -(1 - P_03) / (1 + 5 * P_03), 1e-12),
    ("horne", 0.7, -math.sin(0.7) ** 2 / (math.sin(0.7) ** 2 + 2 * P_03), 1e-12),
    ("horne", 2.2, -math.sin(2.2) ** 2 / (math.sin(2.2) ** 2 + 2 * P_03), 1e-12),
    ("horne", 0.0, 0.0, 1e-20),
], ids=["ideal", "ou_mandel", "horne-0.7", "horne-2.2", "horne-0"])
def test_raw_correlation_closed_form(name, phi, exact, tol):
    """Raw C at Delta = 0, N = 30 and gamma = 0.3 meets each pipeline's
    closed form in p = tanh^2(gamma/2), the per-shell sums weighed by the
    pair number's P(n): -1/(1+2p), -(1-p)/(1+5p) and
    -sin^2(phi)/(sin^2(phi)+2p), which is 0 exactly at phi = 0."""
    state = run(ExperimentSpec(name, gamma=0.3, phi=phi, cutoff=30))
    assert correlation_raw(state).value == pytest.approx(exact, rel=0, abs=tol)


#: the named pipelines at two cutoffs, and custom lists with a zero-parameter
#: stage, a diagonal stage and two pair sources
WHOLE_BASIS_CASES = [ExperimentSpec(name, gamma=0.7, phi=1.3 if name == "horne" else 0.0,
                                    cutoff=cutoff)
                     for name in _RECIPES for cutoff in (8, 16)]
WHOLE_BASIS_CASES += [ExperimentSpec("custom", stages, cutoff=cutoff)
                      for stages in ((("K", 0.3), ("J_a", 0.0)), (("K", 0.3), ("K_z", 0.5)),
                                     (("K", 0.3), ("K_OM", 0.2)))
                      for cutoff in (8, 16)]


@pytest.mark.parametrize("spec", WHOLE_BASIS_CASES,
                         ids=[f"{s.name}-{s.cutoff}" if s.name != "custom"
                              else f"custom-{s.custom_stages[1][0]}-{s.cutoff}"
                              for s in WHOLE_BASIS_CASES])
def test_run_is_the_whole_basis_series(spec):
    """``run`` evolves each stage only on the kets it reaches from the
    state's support.  scipy's Pade exponential of each stage's whole
    truncated matrix (``oracles.component_dense_evolve``) is exactly 0 on
    every other ket, and gives ``run``'s state within 1e-14 in amplitude."""
    state = vacuum(get_basis(spec.cutoff))
    for name, theta in spec.stages:
        generator = fock.matrix(catalog(name), state.basis)
        reached = np.zeros(state.basis.dim, dtype=bool)
        reached[generator.restricted(state.amps != 0)[0]] = True
        state = oracles.component_dense_evolve(state, catalog(name), theta)
        assert not np.any(state.amps[~reached]), name
    assert np.max(np.abs(run(spec).amps - state.amps)) < 1e-14


def test_no_stage_builds_a_whole_basis_matrix():
    """A readout at (0, 0) reads each stage's entries on the kets it reaches
    only: no stage operator of a named pipeline, or of a ``cli_diff.py``
    custom config, builds its whole-basis matrix (``mat``, built on first
    use)."""
    experiments._stage_operator.cache_clear()
    specs = [ExperimentSpec(name, cutoff=12) for name in experiments.PIPELINES if name != "custom"]
    specs += [ExperimentSpec("custom", tuple(map(tuple, config["stages"])), cutoff=12)
              for config in cli_diff.CONFIGS.values()]
    for spec in specs:
        experiments.readout(spec).reports(0.0, 0.0)
        for name, _ in spec.stages:
            assert "mat" not in vars(experiments._stage_operator(name, 12)), (spec.name, name)


def test_run_matches_dense_stage_oracle():
    spec = ExperimentSpec("ou_mandel", gamma=0.2)
    state = run(spec)
    reference = vacuum(get_basis(spec.cutoff))
    for name, par in spec.stages:
        reference = oracles.dense_evolve(reference, catalog(name), par)
    assert np.max(np.abs(state.amps - reference.amps)) < 1e-10


def test_small_gamma_custom_rotation_is_exact():
    """At gamma = 1e-6 the pair amplitudes are ~5e-7, so an error bound
    absolute in the state would cost relative digits; the passive stage is
    exact, and raw C is -cos 0.6 up to its O(gamma^2) source term."""
    spec = ExperimentSpec("custom", (("K", 1e-6), ("J_a", 0.6)), estimator="raw")
    raw, _ = experiments.readout(spec).reports(spec.theta_a, spec.theta_b)
    assert raw.value == pytest.approx(-math.cos(0.6), rel=0, abs=1e-12)


@pytest.mark.parametrize("gamma", [1e-3, 1e-6])
def test_small_gamma_ou_mandel_is_exact(gamma):
    """ou_mandel's rotation and splitter are exact at any gamma, so the
    conditioned C at N=30 is -cos 2(theta_a - theta_b) to rounding."""
    spec = ExperimentSpec("ou_mandel", gamma=gamma, theta_a=0.3, theta_b=0.1, cutoff=30)
    _, cond = experiments.readout(spec).reports(spec.theta_a, spec.theta_b)
    assert cond.value == pytest.approx(-math.cos(0.4), rel=0, abs=1e-12)


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
    assert tuple(CHSH_MAXIMIZER) == pytest.approx(astuple(angles), abs=1e-12)


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


@pytest.mark.parametrize("gamma", [0.1, 0.8])
@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("name", ANALYZER_PIPELINES)
def test_chsh_maximum_is_the_horodecki_bound(name, estimator, gamma):
    """Over in-plane analyzers S_max = 2 sqrt(s1^2 + s2^2), where s1 and s2
    are the singular values of the source's 2x2 correlation tensor (R., P. &
    M. Horodecki, Phys. Lett. A 200, 340 (1995)); the refined grid search
    reaches it."""
    spec = ExperimentSpec(name, estimator=estimator, gamma=gamma)
    source = experiments.readout(spec)
    raw_tensor, cond_tensor = source.tensors
    tensor = raw_tensor / source.raw.denominator if estimator == "raw" else cond_tensor
    bound = 2.0 * math.hypot(*np.linalg.svd(tensor, compute_uv=False))
    _, start, _ = oracles.chsh_grid_search(spec)
    s_max, _ = oracles.refine_chsh_maximizer(spec, start)
    assert s_max == pytest.approx(bound, abs=1e-12)
    if (name, estimator, gamma) == ("ou_mandel", "raw", 0.8):
        assert bound == pytest.approx(1.41075789858, abs=1e-11)  # no violation


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


@pytest.mark.parametrize("name", ANALYZER_PIPELINES)
def test_sigma_tensors_match_sparse_products(name):
    """Both tensors of a Readout against the sparse products
    <sigma_i_a sigma_j_b> on the state and on its renormalized coincidence
    projection."""
    spec = ExperimentSpec(name, gamma=0.4, cutoff=8)
    raw_tensor, cond_tensor = experiments.readout(spec).tensors
    state = run(spec).normalized()
    projected = project_pi(state)[0].normalized()
    for i, sigma_a in enumerate(("sigma_z_a", "sigma_y_a")):
        for j, sigma_b in enumerate(("sigma_z_b", "sigma_y_b")):
            ops = [catalog(sigma_a), catalog(sigma_b)]
            assert raw_tensor[i, j] == pytest.approx(
                expect_product(state, ops).real, abs=1e-12)
            assert cond_tensor[i, j] == pytest.approx(
                expect_product(projected, ops).real, abs=1e-12)


@pytest.mark.parametrize("name", PIPELINES)
def test_readout_reads_the_setting(name):
    """``readout`` keeps the final state and reads both estimators at a
    setting: the state's own reports when there is no analyzer to apply, and
    otherwise those reports with the numerator, value and delta of the
    setting contracted from the state's tensors."""
    custom = (("K", 0.2), ("J_a", 0.6)) if name == "custom" else ()
    for theta_a, theta_b in ((0.0, 0.0), (0.3, -0.2)):
        spec = ExperimentSpec(name, custom, gamma=0.2, theta_a=theta_a, theta_b=theta_b,
                              phi=0.4)
        source = experiments.readout(spec)
        state = source.state
        assert np.array_equal(state.amps, run(spec).amps)
        raw, cond = source.reports(theta_a, theta_b)
        delta = theta_a - theta_b
        own = (correlation_raw(state, 0.2, delta), correlation_conditioned(state, 0.2, delta))
        if name in ANALYZER_PIPELINES and (theta_a or theta_b):
            for report, unrotated in zip((raw, cond), own):
                assert (report.denominator, report.leakage, report.degenerate) == (
                    unrotated.denominator, unrotated.leakage, unrotated.degenerate)
                reference = oracles.correlation_by_run(
                    replace(spec, estimator=report.estimator), theta_a, theta_b)
                assert report.delta == reference.delta
                for field in ("value", "numerator"):
                    assert getattr(report, field) == pytest.approx(getattr(reference, field),
                                                                   abs=1e-10)
        else:
            assert (raw, cond) == own
        if name in ANALYZER_PIPELINES:  # (0, 0) reads the unrotated state
            for report, unrotated in zip(source.reports(0.0, 0.0), own):
                assert report.delta == 0.0
                assert report.value == pytest.approx(unrotated.value, rel=0, abs=1e-12)


_READOUT_SPECS = [
    ExperimentSpec("ideal", gamma=0.3),
    ExperimentSpec("ou_mandel", gamma=0.3, estimator="raw"),
    ExperimentSpec("horne", gamma=0.3, phi=0.7, theta_a=0.4),
    ExperimentSpec("custom", (("K", 0.3), ("J_BS", 1.0), ("J_a", 0.6)), theta_b=-0.2),
]


@pytest.mark.parametrize("spec", _READOUT_SPECS, ids=lambda s: s.name)
def test_readout_at_no_setting_is_the_estimators_of_run(spec):
    """At (0, 0), and at any setting of a pipeline without analyzers, the
    readout's reports are ``correlation_raw`` and ``correlation_conditioned``
    of ``run`` at the spec's delta, field for field and bit for bit, and no
    sigma tensor is computed for them."""
    state = run(spec)
    delta = spec.theta_a - spec.theta_b
    expected = (correlation_raw(state, spec.gamma, delta),
                correlation_conditioned(state, spec.gamma, delta))
    source = experiments.readout(spec)
    assert source.state.amps.tobytes() == state.amps.tobytes()
    settings = [(0.0, 0.0)] if spec.name in ANALYZER_PIPELINES else [
        (0.0, 0.0), (0.3, -0.2), (spec.theta_a, spec.theta_b)]
    for theta_a, theta_b in settings:
        assert repr(source.reports(theta_a, theta_b)) == repr(expected)
    assert "tensors" not in vars(source)
    if spec.name in ANALYZER_PIPELINES:
        source.reports(0.3, -0.2)
        assert "tensors" in vars(source)


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


PHASE_TOO_LARGE = ("the phase of a stage is too large for double precision; "
                   "reduce the stage parameter")


def test_scan_marks_failed_rows():
    # gamma far beyond the accuracy of the source's phases is reported per
    # row, not raised
    table = scan(ExperimentSpec("ideal", gamma=0.1, cutoff=4), "gamma", [0.1, 1e9])
    assert not table.rows[0].failed
    assert table.rows[1].failed
    assert table.rows[1].message == PHASE_TOO_LARGE


def test_delta_scan_at_huge_angle():
    table = scan(ExperimentSpec("ideal", gamma=0.1), "delta", [0.0, 1e6])
    for row in table.rows:
        assert not row.failed
        assert row.c_cond == pytest.approx(-math.cos(2 * row.parameter), abs=1e-9)


def test_delta_rows_fail_with_the_source():
    table = scan(ExperimentSpec("ideal", gamma=1e9, cutoff=4), "delta", [0.0, 0.5, 1.0])
    assert all(row.failed for row in table.rows)
    messages = {row.message for row in table.rows}
    assert messages == {PHASE_TOO_LARGE}


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
# phi rows from one source state
# ---------------------------------------------------------------------------

#: (gamma, cutoff) cases and a phi grid with 0, a negative phase and one above pi
PHI_CASES = [(0.1, 8), (0.4, 10), (1.0, 12)]
PHI_GRID = [-0.7, 0.0, 0.3, 1.1, math.pi + 0.4, 4.5]


@pytest.mark.parametrize("cutoff", [2, 6, 8, 16])
def test_phi_route_preconditions(cutoff):
    """J' couples no modes, so ``fock.evolve`` applies it as an exact phase
    per ket, and J_BS maps each total-photon shell into itself, so a Horne
    state has its source's leakage."""
    assert experiments._stage_operator("J_prime", cutoff).factors.pairs == ()
    assert experiments._stage_operator("J_BS", cutoff).passive
    splitter = experiments._stage_operator("J_BS", cutoff).mat.tocoo()
    totals = get_basis(cutoff).totals
    moved = totals[splitter.row] != totals[splitter.col]
    assert splitter.nnz and not np.any(splitter.data[moved])


@pytest.mark.parametrize("gamma, cutoff", PHI_CASES + [(1e-30, 16), (1e-320, 16)])
def test_phi_rows_match_staged_runs(gamma, cutoff):
    """Every phi row is the readout at its phi, field for field, down to a
    coincidence weight far below TOL and a subnormal gamma."""
    spec = horne_spec(gamma, 0.0, cutoff=cutoff)
    for row in scan(spec, "phi", PHI_GRID).rows:
        raw, cond = experiments.readout(replace(spec, phi=row.parameter)).reports(0.0, 0.0)
        assert not row.failed
        assert row == experiments._scan_row(row.parameter, raw, cond)


def test_dense_horne_reference_matches_dense_stages():
    spec = horne_spec(0.6, 1.3, cutoff=6)
    reference = vacuum(get_basis(spec.cutoff))
    for name, par in spec.stages:
        reference = oracles.dense_evolve(reference, catalog(name), par)
    assert np.max(np.abs(oracles.dense_horne_state(spec).amps - reference.amps)) < 1e-12


def test_phi_rows_against_dense_reference():
    """Against dense exponentials (``oracles.dense_horne_state``), each phi
    row's numerator, denominator, leakage and c_cond are within 1e-12, and
    c_raw, whose denominator is ~gamma^2, within 1e-10."""
    def fields(row):
        return np.array([row.c_raw, row.c_cond, row.numerator, row.denominator, row.leakage])

    errors = np.zeros(5)
    for gamma, cutoff in PHI_CASES:
        spec = horne_spec(gamma, 0.0, cutoff=cutoff)
        for row in scan(spec, "phi", PHI_GRID).rows:
            dense = oracles.dense_horne_state(replace(spec, phi=row.parameter))
            expected = fields(experiments._scan_row(row.parameter, correlation_raw(dense),
                                                    correlation_conditioned(dense)))
            errors = np.maximum(errors, np.abs(fields(row) - expected))
    assert errors[0] < 1e-10
    assert np.all(errors[1:] < 1e-12)


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
    assert conjugate(-catalog("J"), catalog("sigma_z_a")) == -catalog("sigma_y_a")
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
    rotated = oracles.expm_conjugate(catalog("J_a"), math.pi / 2, catalog("K_OM"))
    transformed = oracles.expm_conjugate(catalog("J_BS"), BS_5050, rotated)
    basis = get_basis(spec.cutoff)
    direct = fock.evolve(vacuum(basis), fock.matrix(transformed, basis), gamma)
    assert np.max(np.abs(staged.amps - direct.amps)) < 1e-9


def test_ou_mandel_projection_is_singlet():
    basis = get_basis(8)
    singlet = _singlet(basis)
    for gamma in (0.2, 0.1, 0.05):
        state = run(ExperimentSpec("ou_mandel", gamma=gamma))
        projected, weight = project_pi(state)
        assert weight > 0
        assert projected.normalized().fidelity(singlet) >= 1.0 - 1e-12
