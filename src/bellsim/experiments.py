"""The three Bell-test pipelines, correlation estimators, and CHSH tools.

A pipeline is a declarative list of (generator name, real parameter)
stages applied left to right to the vacuum:

* ``ideal``     — singlet-generating pair source ``K`` followed by
  analyzer rotations in channels a and b.
* ``horne``     — wave-vector pair source ``K_prime``, phase-shift
  difference ``(J_prime, phi)``, then the channel mixer ``J_BS``.
* ``ou_mandel`` — type-I source ``K_OM``, a polarization rotation in
  channel a, the channel mixer, then analyzer rotations.

Angle conventions, fixed by two exact requirements (the conditioned
correlation must equal -cos 2(theta_a - theta_b), and must be invariant
under a common shift of both analyzers):

* An analyzer at physical angle theta enters as the stage
  ``(J_a, 2*theta)`` (polarization rotations double-cover the Stokes
  sphere).  The difference transformation e^{i d J}, J = J_a - J_b, is
  then the setting (d/2, -d/2); only the difference d is observable
  because the analyzer-sum generator J_a + J_b commutes with the source.
* Beam-splitter stages use U = exp(i * theta * J_BS) with the
  half-normalized generator J_BS = J_x_13 + J_x_24; a 50/50 splitter is
  theta = pi/2 (pi/4 would be an 85/15 splitter).

Two correlation estimators are provided.  ``raw`` evaluates the
intensity-difference ratio on the full output state; ``conditioned``
first applies the one-photon-per-channel projection and renormalizes.
The two agree as the squeeze parameter gamma -> 0 and their measured
difference is O(gamma^2); the scan and report tooling makes that
dependence an observable rather than an assumption.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from . import fock
from .adjoint import conjugate
from .catalog import catalog, UnknownGeneratorError
from .fock import (
    EvolveError,
    SparseOperator,
    StateVector,
    evolve,
    get_basis,
    leakage,
    vacuum,
)

DEFAULT_CUTOFF = 8
DEFAULT_TOL = 1e-12
ESTIMATORS = ("raw", "conditioned")

#: stage parameter of a 50/50 splitter for the half-normalized J generators
BS_5050 = math.pi / 2

#: stage lists of the named pipelines, built from a spec's parameters
_RECIPES = {
    "ideal": lambda s: (("K", s.gamma), ("J_a", 2.0 * s.theta_a), ("J_b", 2.0 * s.theta_b)),
    "horne": lambda s: (("K_prime", s.gamma), ("J_prime", s.phi), ("J_BS", BS_5050)),
    "ou_mandel": lambda s: (("K_OM", s.gamma), ("J_a", math.pi / 2), ("J_BS", BS_5050),
                            ("J_a", 2.0 * s.theta_a), ("J_b", 2.0 * s.theta_b)),
}
PIPELINES = (*_RECIPES, "custom")
#: pipelines that end in analyzer rotations, the only ones that read (theta_a, theta_b)
ANALYZER_PIPELINES = ("ideal", "ou_mandel")

#: denominators (and projection weights) below this are reported degenerate
DEGENERATE_EPS = 1e-14

#: CHSH angles frozen from the deterministic grid search + refinement in
#: tests/golden/chsh_maximizer.json (theta_a, theta_a', theta_b, theta_b')
CHSH_MAXIMIZER = (0.0, math.pi / 4, math.pi / 8, 7 * math.pi / 8)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ChshAngles:
    theta_a: float
    theta_a_prime: float
    theta_b: float
    theta_b_prime: float

    def settings(self) -> tuple[tuple[float, float], ...]:
        """The four (theta_a, theta_b) pairs entering S, in S order."""
        return (
            (self.theta_a, self.theta_b),
            (self.theta_a, self.theta_b_prime),
            (self.theta_a_prime, self.theta_b),
            (self.theta_a_prime, self.theta_b_prime),
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta_a, self.theta_a_prime, self.theta_b, self.theta_b_prime)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """One Bell test: a pipeline name and its physical parameters.

    The named pipelines read ``gamma``, ``theta_a``/``theta_b`` and ``phi``
    into their stage list; ``custom`` applies ``custom_stages`` instead.
    Settings derived from a spec (analyzer angles, scan rows, cutoffs) are
    ``dataclasses.replace`` copies of it.
    """

    name: str = "ideal"
    custom_stages: Sequence[tuple[str, float]] = ()
    estimator: str = "conditioned"
    gamma: float = 0.1
    theta_a: float = 0.0
    theta_b: float = 0.0
    phi: float = 0.0
    cutoff: int = DEFAULT_CUTOFF
    tol: float = DEFAULT_TOL

    @property
    def stages(self) -> tuple[tuple[str, float], ...]:
        """(generator name, real parameter) stages, applied left to right."""
        recipe = _RECIPES.get(self.name)
        if recipe is None:
            return tuple((name, float(p)) for name, p in self.custom_stages)
        return recipe(self)

    def validate(self) -> None:
        """Raise :class:`ConfigError` unless every field is usable."""
        if self.name not in PIPELINES:
            raise ConfigError(f"unknown experiment {self.name!r}; expected one of {PIPELINES}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}; expected one of {ESTIMATORS}")
        if not (_is_real(self.cutoff) and isinstance(self.cutoff, Integral) and self.cutoff >= 2):
            raise ConfigError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")
        if not (_is_real(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be a positive number, got {self.tol!r}")
        for key in ("gamma", "theta_a", "theta_b", "phi"):
            value = getattr(self, key)
            if not (_is_real(value) and math.isfinite(value)):
                raise ConfigError(f"{key} must be a finite number, got {value!r}")
        if self.name == "custom":
            if not isinstance(self.custom_stages, (list, tuple)) or not self.custom_stages:
                raise ConfigError("custom experiment requires a non-empty 'stages' list")
            for stage in self.custom_stages:
                if not (isinstance(stage, (list, tuple)) and len(stage) == 2
                        and isinstance(stage[0], str)
                        and _is_real(stage[1]) and math.isfinite(stage[1])):
                    raise ConfigError(
                        f"stages must be [generator, finite number] pairs, got {stage!r}")
            # the named pipelines' generators are hermitian catalog constants
            for gen_name, _ in self.custom_stages:
                try:
                    op = catalog(gen_name)
                except UnknownGeneratorError as exc:
                    raise ConfigError(str(exc)) from None
                if not op.is_hermitian():
                    raise ConfigError(f"stage generator {gen_name!r} is not hermitian")


def ideal_spec(gamma: float, theta_a: float = 0.0, theta_b: float = 0.0,
               estimator: str = "conditioned", cutoff: int = DEFAULT_CUTOFF,
               tol: float = DEFAULT_TOL) -> ExperimentSpec:
    return ExperimentSpec("ideal", (), estimator, gamma, theta_a, theta_b, 0.0, cutoff, tol)


def horne_spec(gamma: float, phi: float,
               estimator: str = "conditioned", cutoff: int = DEFAULT_CUTOFF,
               tol: float = DEFAULT_TOL) -> ExperimentSpec:
    return ExperimentSpec("horne", (), estimator, gamma, 0.0, 0.0, phi, cutoff, tol)


def ou_mandel_spec(gamma: float, theta_a: float = 0.0, theta_b: float = 0.0,
                   estimator: str = "conditioned", cutoff: int = DEFAULT_CUTOFF,
                   tol: float = DEFAULT_TOL) -> ExperimentSpec:
    return ExperimentSpec("ou_mandel", (), estimator, gamma, theta_a, theta_b, 0.0, cutoff, tol)


# ---------------------------------------------------------------------------
# pipeline execution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _stage_operator(name: str, cutoff: int) -> SparseOperator:
    return fock.matrix(catalog(name), get_basis(cutoff))


def run(spec: ExperimentSpec) -> StateVector:
    """Apply the stages left to right to the vacuum."""
    spec.validate()
    basis = get_basis(spec.cutoff)
    state = vacuum(basis)
    for gen_name, parameter in spec.stages:
        if parameter == 0.0:
            continue
        state = evolve(state, _stage_operator(gen_name, spec.cutoff), parameter, spec.tol)
    return state


# ---------------------------------------------------------------------------
# correlation estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    estimator: str
    value: float
    numerator: float
    denominator: float
    leakage: float
    gamma: float
    delta: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _occupation_sums(amps: np.ndarray, occupations: np.ndarray) -> tuple[float, float]:
    """<(n1-n2)(n3-n4)> and <(n1+n2)(n3+n4)> over kets with these photon numbers.

    Coincidence counting is diagonal in the Fock basis, so both are sums of
    |amplitude|^2 weighted by photon numbers.  The channel-b weight is
    applied first, as in the sparse product <sigma_a sigma_b>, so on the
    same vector both sums are bit-identical to :func:`fock.expect_product`.
    """
    n1, n2, n3, n4 = occupations.T
    num = np.vdot(amps, (n1 - n2) * ((n3 - n4) * amps))
    den = np.vdot(amps, (n1 + n2) * ((n3 + n4) * amps))
    return float(num.real), float(den.real)


def correlation_raw(state: StateVector, gamma: float = float("nan"),
                    delta: float = float("nan")) -> CorrelationReport:
    """Intensity-difference correlation on the full state.

    C = <(n1-n2)(n3-n4)> / <(n1+n2)(n3+n4)>; a vanishing denominator is
    reported as C = 0 with the degenerate flag set (no coincidences).
    """
    state = state.normalized()
    num, den = _occupation_sums(state.amps, state.basis.occupations)
    leak = leakage(state)
    if den < DEGENERATE_EPS:
        return CorrelationReport("raw", 0.0, num, den, leak, gamma, delta, degenerate=True)
    return CorrelationReport("raw", num / den, num, den, leak, gamma, delta)


def correlation_conditioned(state: StateVector, gamma: float = float("nan"),
                            delta: float = float("nan")) -> CorrelationReport:
    """Same ratio after projecting onto one photon per channel.

    On the coincidence kets (n1+n2)(n3+n4) = 1, so the denominator sum is
    the projection weight and the ratio is the +/-1-weighted coincidence
    average.  The reported numerator and denominator are those of the
    renormalized projected state; weight 0 is reported degenerate.
    """
    leak = leakage(state)
    kept = state.basis.coincidence
    num, weight = _occupation_sums(state.amps[kept] / state.norm(), state.basis.occupations[kept])
    if weight < DEGENERATE_EPS:
        return CorrelationReport("conditioned", 0.0, 0.0, 0.0, leak, gamma, delta, degenerate=True)
    return CorrelationReport("conditioned", num / weight, num / weight, 1.0, leak, gamma, delta)


_ESTIMATOR_FUNCS = {"raw": correlation_raw, "conditioned": correlation_conditioned}


def correlation(spec: ExperimentSpec, theta_a: float, theta_b: float) -> CorrelationReport:
    """Run the pipeline at one analyzer setting and estimate C."""
    if spec.name not in ANALYZER_PIPELINES:
        raise ConfigError(f"pipeline {spec.name!r} does not take analyzer angles; "
                          f"expected one of {ANALYZER_PIPELINES}")
    state = run(replace(spec, theta_a=theta_a, theta_b=theta_b))
    return _ESTIMATOR_FUNCS[spec.estimator](state, spec.gamma, theta_a - theta_b)


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChshReport:
    correlations: tuple[CorrelationReport, CorrelationReport, CorrelationReport, CorrelationReport]
    angles: ChshAngles
    estimator: str
    gamma: float
    cutoff: int

    @property
    def s_value(self) -> float:
        c1, c2, c3, c4 = (r.value for r in self.correlations)
        return abs(c1 + c2 + c3 - c4)

    @property
    def violation(self) -> bool:
        return self.s_value > 2.0

    def to_dict(self) -> dict:
        return {
            "s": self.s_value,
            "violation": self.violation,
            "estimator": self.estimator,
            "gamma": self.gamma,
            "cutoff": self.cutoff,
            "angles": {
                "theta_a": self.angles.theta_a,
                "theta_a_prime": self.angles.theta_a_prime,
                "theta_b": self.angles.theta_b,
                "theta_b_prime": self.angles.theta_b_prime,
            },
            "correlations": [r.to_dict() for r in self.correlations],
        }


def chsh(spec: ExperimentSpec, angles: ChshAngles | None = None) -> ChshReport:
    """Evaluate S = |C(a,b) + C(a,b') + C(a',b) - C(a',b')|."""
    if angles is None:
        raise ConfigError("chsh requires four analyzer angles")
    reports = tuple(correlation(spec, ta, tb) for ta, tb in angles.settings())
    return ChshReport(reports, angles, spec.estimator, spec.gamma, spec.cutoff)


def chsh_grid(spec: ExperimentSpec, n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """All pairwise correlations on an n-point angle grid over [0, pi).

    Returns (grid angles, C matrix) where C[i, j] is the estimator value at
    analyzer angles (grid[i], grid[j]); every entry is produced by a full
    pipeline run.
    """
    grid = np.arange(n) * math.pi / n
    c = np.empty((n, n))
    for i, ta in enumerate(grid):
        for j, tb in enumerate(grid):
            c[i, j] = correlation(spec, float(ta), float(tb)).value
    return grid, c


def chsh_grid_search(spec: ExperimentSpec, n: int = 16) -> tuple[float, ChshAngles, np.ndarray]:
    """Deterministic maximizer search for S over the n^4 angle grid.

    Values are rounded to 12 decimals before the argmax so that ties at
    the true maximum are broken lexicographically rather than by
    platform-dependent floating-point dust.
    """
    grid, c = chsh_grid(spec, n)
    s = np.abs(
        c[:, None, :, None] + c[:, None, None, :] + c[None, :, :, None] - c[None, :, None, :]
    )
    flat = int(np.argmax(np.round(s, 12)))
    ka, kap, kb, kbp = np.unravel_index(flat, s.shape)
    angles = ChshAngles(float(grid[ka]), float(grid[kap]), float(grid[kb]), float(grid[kbp]))
    return float(s[ka, kap, kb, kbp]), angles, s


def refine_chsh_maximizer(spec: ExperimentSpec, start: ChshAngles,
                          initial_step: float = math.pi / 32,
                          min_step: float = 1e-8) -> tuple[float, ChshAngles]:
    """Deterministic coordinate pattern search around a grid maximizer."""

    def s_at(values: list[float]) -> float:
        return chsh(spec, ChshAngles(*values)).s_value

    current = list(start.as_tuple())
    best = s_at(current)
    step = initial_step
    while step >= min_step:
        improved = False
        for axis in range(4):
            for sign in (+1.0, -1.0):
                trial = list(current)
                trial[axis] += sign * step
                value = s_at(trial)
                if value > best + 1e-15:
                    best, current, improved = value, trial, True
        if not improved:
            step /= 2.0
    return best, ChshAngles(*current)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    parameter: float
    c_raw: float
    c_cond: float
    numerator: float
    denominator: float
    leakage: float
    raw_degenerate: bool = False
    cond_degenerate: bool = False
    failed: bool = False
    message: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScanTable:
    axis: str
    spec_name: str
    estimator: str
    gamma: float
    cutoff: int
    rows: tuple[ScanRow, ...]

    CSV_HEADER = "parameter,c_raw,c_cond,numerator,denominator,leakage"

    def to_dict(self) -> dict:
        return {
            "axis": self.axis,
            "experiment": self.spec_name,
            "estimator": self.estimator,
            "gamma": self.gamma,
            "cutoff": self.cutoff,
            "rows": [row.to_dict() for row in self.rows],
        }


#: the setting of one scan row: a delta row sets (theta_a, theta_b) = (value, 0);
#: gamma and phi rows replace only the scanned field
_SCAN_SETTINGS = {
    "delta": lambda spec, v: replace(spec, theta_a=v, theta_b=0.0),
    "gamma": lambda spec, v: replace(spec, gamma=v),
    "phi": lambda spec, v: replace(spec, phi=v),
}
SCAN_AXES = tuple(_SCAN_SETTINGS)


def _scan_row(spec: ExperimentSpec, axis: str, value: float) -> ScanRow:
    try:
        setting = _SCAN_SETTINGS[axis](spec, value)
        state = run(setting)
        delta = value if axis == "delta" else float("nan")
        raw = correlation_raw(state, setting.gamma, delta)
        cond = correlation_conditioned(state, setting.gamma, delta)
        return ScanRow(value, raw.value, cond.value, raw.numerator, raw.denominator,
                       raw.leakage, raw.degenerate, cond.degenerate)
    except (EvolveError, ConfigError, ValueError) as exc:
        return ScanRow(value, float("nan"), float("nan"), float("nan"), float("nan"),
                       float("nan"), failed=True, message=str(exc))


def scan(spec: ExperimentSpec, axis: str, grid: Sequence[float]) -> ScanTable:
    """Map both estimators over a parameter grid.

    Each row runs a copy of ``spec`` with the scanned field replaced; rows
    are computed in grid order.  The grid must be non-empty, finite and
    strictly monotone.
    """
    values = [float(v) for v in grid]
    if not values:
        raise ConfigError("scan grid must be non-empty")
    if not all(map(math.isfinite, values)):
        raise ConfigError("scan grid values must be finite numbers")
    diffs = np.diff(values)
    if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("scan grid must be strictly monotone")
    if axis not in SCAN_AXES:
        raise ConfigError(f"unknown scan axis {axis!r}; expected one of {SCAN_AXES}")
    spec.validate()
    if spec.name == "custom":
        raise ConfigError("scans require a named pipeline (ideal, horne or ou_mandel)")
    if axis == "delta" and spec.name not in ANALYZER_PIPELINES:
        raise ConfigError(f"axis 'delta' needs analyzer angles; pipeline {spec.name!r} has none")
    if axis == "phi" and spec.name != "horne":
        raise ConfigError(f"axis 'phi' applies to the horne pipeline, not {spec.name!r}")
    rows = tuple(_scan_row(spec, axis, v) for v in values)
    return ScanTable(axis, spec.name, spec.estimator, spec.gamma, spec.cutoff, rows)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationIdentityReport:
    """Invariance of both estimators under a common analyzer shift, plus the
    conjugation expansion of sigma_z under the difference rotation."""

    shifts: tuple[float, ...]
    raw_deviation: float
    conditioned_deviation: float
    conjugation_error: float

    def ok(self, shift_tol: float = 1e-9, conj_tol: float = 1e-10) -> bool:
        return (self.raw_deviation < shift_tol
                and self.conditioned_deviation < shift_tol
                and self.conjugation_error < conj_tol)

    def to_dict(self) -> dict:
        return {
            "shifts": list(self.shifts),
            "raw_deviation": self.raw_deviation,
            "conditioned_deviation": self.conditioned_deviation,
            "conjugation_error": self.conjugation_error,
            "ok": self.ok(),
        }


def sigma_rotation_error(delta: float) -> float:
    """Max coefficient error of U_-^† sigma_z U_- against the rotation form.

    U_-(d) = e^{i d J} must satisfy
        U_-^† (sigma_z)_a U_- = cos(d) (sigma_z)_a - sin(d) (sigma_y)_a
        U_-^† (sigma_z)_b U_- = cos(d) (sigma_z)_b + sin(d) (sigma_y)_b
    which pins down the sigma_y sign convention.
    """
    j = catalog("J")
    worst = 0.0
    for channel, sign in (("a", -1.0), ("b", +1.0)):
        actual = conjugate(j, -delta, catalog(f"sigma_z_{channel}"))
        expected: dict = {}
        for elem, coeff in catalog(f"sigma_z_{channel}").coeffs.items():
            expected[elem] = complex(coeff) * math.cos(delta)
        for elem, coeff in catalog(f"sigma_y_{channel}").coeffs.items():
            expected[elem] = expected.get(elem, 0.0) + sign * math.sin(delta) * complex(coeff)
        elems = set(actual.coeffs) | set(expected)
        for elem in elems:
            worst = max(worst, abs(actual.coeff(elem) - expected.get(elem, 0.0)))
        worst = max(worst, abs(actual.scalar))
    return worst


def verify_rotation_identity(gamma: float, theta_a: float, theta_b: float,
                             shifts: Sequence[float] = (0.3, 1.1),
                             cutoff: int = DEFAULT_CUTOFF) -> RotationIdentityReport:
    raw_dev = 0.0
    cond_dev = 0.0
    for estimator in ESTIMATORS:
        spec = ideal_spec(gamma, estimator=estimator, cutoff=cutoff)
        reference = correlation(spec, theta_a, theta_b).value
        for s in shifts:
            value = correlation(spec, theta_a + s, theta_b + s).value
            dev = abs(value - reference)
            if estimator == "raw":
                raw_dev = max(raw_dev, dev)
            else:
                cond_dev = max(cond_dev, dev)
    conj_err = max(sigma_rotation_error(theta_a - theta_b),
                   sigma_rotation_error(math.pi / 2))
    return RotationIdentityReport(tuple(shifts), raw_dev, cond_dev, conj_err)


def conjugated_pipeline_state(spec: ExperimentSpec) -> StateVector:
    """The Horne pipeline evaluated through conjugated generators.

    U_BS e^{i phi J'} e^{i gamma K'} |0> equals
    e^{i phi (U_BS J' U_BS^-1)} e^{i gamma (U_BS K' U_BS^-1)} |0> because
    the splitter leaves the vacuum alone; the conjugated generators come
    from the adjoint machinery, so agreement of the two routes checks the
    algebra layer against the Fock layer.
    """
    if spec.name != "horne":
        raise ConfigError("conjugated form is defined for the horne pipeline")
    j_bs = catalog("J_BS")
    k_conj = conjugate(j_bs, BS_5050, catalog("K_prime"), tol=1e-15)
    j_conj = conjugate(j_bs, BS_5050, catalog("J_prime"), tol=1e-15)
    basis = get_basis(spec.cutoff)
    state = vacuum(basis)
    state = evolve(state, fock.matrix(k_conj, basis), spec.gamma, spec.tol)
    state = evolve(state, fock.matrix(j_conj, basis), spec.phi, spec.tol)
    return state
