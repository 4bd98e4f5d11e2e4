"""The three Bell-test pipelines, correlation estimators, and CHSH tools.

A pipeline is a declarative list of (generator name, real parameter)
stages applied left to right to the vacuum:

* ``ideal``     — singlet-generating pair source ``K``.
* ``horne``     — wave-vector pair source ``K_prime``, phase-shift
  difference ``(J_prime, phi)``, then the channel mixer ``J_BS``.
* ``ou_mandel`` — type-I source ``K_OM``, a polarization rotation in
  channel a, then the channel mixer.

``ideal`` and ``ou_mandel`` are then read through analyzers at
(theta_a, theta_b).  Angle conventions, fixed by two exact requirements (the
conditioned correlation must equal -cos 2(theta_a - theta_b), and must be
invariant under a common shift of both analyzers):

* An analyzer at physical angle theta is the rotation e^{i 2 theta J_a} (or
  J_b): polarization rotations double-cover the Stokes sphere.  The
  difference transformation e^{i d J}, J = J_a - J_b, is then the setting
  (d/2, -d/2); only d is observable because J_a + J_b commutes with the source.
* Beam-splitter stages use U = exp(i * theta * J_BS) with the
  half-normalized generator J_BS = J_x_13 + J_x_24; a 50/50 splitter is
  theta = pi/2 (pi/4 would be an 85/15 splitter).

Two correlation estimators are provided.  ``raw`` evaluates the
intensity-difference ratio on the full output state; ``conditioned``
first applies the one-photon-per-channel projection and renormalizes.
The two agree as the squeeze parameter gamma -> 0 and their measured
difference is O(gamma^2); the scan and report tooling makes that
dependence an observable rather than an assumption.

The analyzers are never evolved: both estimators read the source state, and
every setting swaps in a numerator contracted from a 2x2 sigma tensor of it
(:class:`AnalyzerSource`; :func:`measure` for a spec's own setting).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from . import fock
from .adjoint import conjugate
from .catalog import catalog, UnknownGeneratorError
from .fock import (
    EvolveError,
    FockBasis,
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
    "ideal": lambda s: (("K", s.gamma),),
    "horne": lambda s: (("K_prime", s.gamma), ("J_prime", s.phi), ("J_BS", BS_5050)),
    "ou_mandel": lambda s: (("K_OM", s.gamma), ("J_a", math.pi / 2), ("J_BS", BS_5050)),
}
PIPELINES = (*_RECIPES, "custom")
#: pipelines measured through analyzers, the only ones that read (theta_a, theta_b)
ANALYZER_PIPELINES = ("ideal", "ou_mandel")

#: denominators (and projection weights) below this are reported degenerate
DEGENERATE_EPS = 1e-14

#: S must exceed the local bound 2 by more than this to count as a violation.
#: Float rounding of S is ~1e-15 (at equal angles the exact S is 2), so the
#: margin keeps dust from deciding the verdict; it is the order of the
#: tolerance to which the tests hold C invariant under a common analyzer shift.
VIOLATION_MARGIN = 1e-9

#: CHSH angles frozen from the deterministic grid search + refinement of
#: tests/oracles.py, recorded in tests/golden/chsh_maximizer.json
#: (theta_a, theta_a', theta_b, theta_b')
CHSH_MAXIMIZER = (0.0, math.pi / 4, math.pi / 8, 7 * math.pi / 8)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _require_finite(key: str, value) -> None:
    if not (_is_real(value) and math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ChshAngles:
    """The four analyzer angles of a CHSH test; each must be finite."""

    theta_a: float
    theta_a_prime: float
    theta_b: float
    theta_b_prime: float

    def __post_init__(self) -> None:
        for field in fields(self):
            _require_finite(field.name, getattr(self, field.name))

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


@dataclass(frozen=True)
class ExperimentSpec:
    """One Bell test: a pipeline name and its physical parameters.

    The named pipelines read ``gamma`` and ``phi`` into their stage list;
    ``custom`` applies ``custom_stages`` instead.  :func:`measure` reads the
    analyzer setting ``theta_a``/``theta_b`` from the final state.
    A spec checks its fields when it is built and raises :class:`ConfigError`
    unless every one is usable.  Settings derived from a spec (scan rows,
    cutoffs) are ``dataclasses.replace`` copies of it, so they are checked too.
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

    def __post_init__(self) -> None:
        if self.name not in PIPELINES:
            raise ConfigError(f"unknown experiment {self.name!r}; expected one of {PIPELINES}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}; expected one of {ESTIMATORS}")
        if not (_is_real(self.cutoff) and isinstance(self.cutoff, Integral) and self.cutoff >= 2):
            raise ConfigError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")
        if not (_is_real(self.tol) and math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be a finite positive number, got {self.tol!r}")
        for key in ("gamma", "theta_a", "theta_b", "phi"):
            _require_finite(key, getattr(self, key))
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


def horne_spec(gamma: float, phi: float,
               estimator: str = "conditioned", cutoff: int = DEFAULT_CUTOFF,
               tol: float = DEFAULT_TOL) -> ExperimentSpec:
    return ExperimentSpec("horne", (), estimator, gamma, 0.0, 0.0, phi, cutoff, tol)


# ---------------------------------------------------------------------------
# pipeline execution
# ---------------------------------------------------------------------------

#: the Horne source generators conjugated by the 50/50 splitter, under
#: private names so that their matrices share the stage-operator cache
_BS_CONJUGATED = {"K_prime@BS": "K_prime", "J_prime@BS": "J_prime"}


@lru_cache(maxsize=None)
def _stage_operator(name: str, cutoff: int) -> SparseOperator:
    """Matrix of a catalog generator or observable (or of a ``_BS_CONJUGATED``
    generator) at this cutoff, built once per process."""
    if name in _BS_CONJUGATED:
        op = conjugate(catalog("J_BS"), BS_5050, catalog(_BS_CONJUGATED[name]), tol=1e-15)
    else:
        op = catalog(name)
    return fock.matrix(op, get_basis(cutoff))


def run(spec: ExperimentSpec) -> StateVector:
    """Apply the stages left to right to the vacuum."""
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


def _occupation_sums(amps: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """<(n1-n2)(n3-n4)> and <(n1+n2)(n3+n4)> over kets with these
    ``FockBasis.channel_weights`` columns.

    Coincidence counting is diagonal in the Fock basis, so both are sums of
    |amplitude|^2 weighted by photon numbers.  The channel-b weight is
    applied first, as in the sparse product <sigma_a sigma_b>, so on the
    same vector both sums are bit-identical to :func:`fock.expect_product`.
    """
    z_a, z_b, n_a, n_b = weights
    num = np.vdot(amps, z_a * (z_b * amps))
    den = np.vdot(amps, n_a * (n_b * amps))
    return float(num.real), float(den.real)


def correlation_raw(state: StateVector, gamma: float = float("nan"),
                    delta: float = float("nan")) -> CorrelationReport:
    """Intensity-difference correlation on the full state.

    C = <(n1-n2)(n3-n4)> / <(n1+n2)(n3+n4)>; a vanishing denominator is
    reported as C = 0 with the degenerate flag set (no coincidences).
    """
    state = state.normalized()
    num, den = _occupation_sums(state.amps, state.basis.channel_weights)
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
    num, weight = _occupation_sums(state.amps[kept] / state.norm(),
                                   state.basis.channel_weights[:, kept])
    if weight < DEGENERATE_EPS:
        return CorrelationReport("conditioned", 0.0, 0.0, 0.0, leak, gamma, delta, degenerate=True)
    return CorrelationReport("conditioned", num / weight, num / weight, 1.0, leak, gamma, delta)


# ---------------------------------------------------------------------------
# analyzer settings from one source state
# ---------------------------------------------------------------------------

def _sigma_tensors(amps: np.ndarray, basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """T_ij = <sigma_i^a sigma_j^b>, i, j in (z, y), of an amplitude vector and
    of its (unnormalized) projection onto the coincidence kets.

    The channel-a and channel-b observables are hermitian and commute, so
    T_ij = <sigma_i^a psi|sigma_j^b psi>: two diagonal and two sparse products.
    Each keeps its channel's photon number, so it commutes with the projection,
    and the coincidence columns of the same products give the projected tensor.
    """
    z_a, z_b = basis.channel_weights[:2]
    side_a = np.stack([z_a * amps, _stage_operator("sigma_y_a", basis.cutoff).mat @ amps])
    side_b = np.stack([z_b * amps, _stage_operator("sigma_y_b", basis.cutoff).mat @ amps])
    kept = basis.coincidence
    return ((side_a.conj() @ side_b.T).real,
            (side_a[:, kept].conj() @ side_b[:, kept].T).real)


def _analyzer_vector(theta: float) -> np.ndarray:
    """u(theta): an analyzer at theta, the rotation e^{i 2 theta J}, turns
    sigma_z into cos(2 theta) sigma_z - sin(2 theta) sigma_y."""
    return np.array([math.cos(2.0 * theta), -math.sin(2.0 * theta)])


@dataclass(frozen=True)
class AnalyzerSource:
    """An analyzer pipeline's final state, which the analyzers read, reduced
    to what every setting (theta_a, theta_b) reads.

    The analyzers are passive rotations inside channel a and channel b.  They
    keep each channel's photon number, so they commute with the coincidence
    projection and leave the denominator, the coincidence weight and the
    leakage unchanged, and they turn sigma_z into a combination of sigma_z
    and sigma_y (checked by ``sigma_rotation_error`` in tests/oracles.py).  Each
    estimator's numerator is therefore u(theta_a)^T T u(theta_b) for a 2x2
    tensor T of the source state, and everything else in a report at that
    setting is the source state's own report, degenerate flag included.
    """

    spec: ExperimentSpec
    #: :func:`correlation_raw` and :func:`correlation_conditioned` of the source
    raw: CorrelationReport
    conditioned: CorrelationReport
    #: T of the normalized state, and of its renormalized coincidence
    #: projection (None when the coincidence weight is degenerate)
    raw_tensor: np.ndarray
    cond_tensor: np.ndarray | None

    def report(self, estimator: str, theta_a: float, theta_b: float) -> CorrelationReport:
        """One estimator at one setting: the source report with the contracted
        numerator, its value and the setting's delta swapped in."""
        delta = theta_a - theta_b
        u_a, u_b = _analyzer_vector(theta_a), _analyzer_vector(theta_b)
        if estimator == "raw":
            num = float(u_a @ self.raw_tensor @ u_b)
            value = 0.0 if self.raw.degenerate else num / self.raw.denominator
            return replace(self.raw, value=value, numerator=num, delta=delta)
        if self.conditioned.degenerate:
            return replace(self.conditioned, delta=delta)
        value = float(u_a @ self.cond_tensor @ u_b)
        return replace(self.conditioned, value=value, numerator=value, delta=delta)

    def chsh(self, angles: "ChshAngles") -> "ChshReport":
        spec = self.spec
        reports = tuple(self.report(spec.estimator, ta, tb) for ta, tb in angles.settings())
        return ChshReport(spec.estimator, spec.gamma, spec.cutoff, angles, reports)


def _reduce(spec: ExperimentSpec, state: StateVector) -> AnalyzerSource:
    """The :class:`AnalyzerSource` of ``spec``'s final state."""
    state = state.normalized()
    raw, cond = correlation_raw(state, spec.gamma), correlation_conditioned(state, spec.gamma)
    raw_tensor, kept_tensor = _sigma_tensors(state.amps, state.basis)
    kept = state.amps[state.basis.coincidence]
    cond_tensor = None if cond.degenerate else kept_tensor / np.vdot(kept, kept).real
    return AnalyzerSource(spec, raw, cond, raw_tensor, cond_tensor)


def analyzer_source(spec: ExperimentSpec) -> AnalyzerSource:
    """Run ``spec`` once and reduce its state to an :class:`AnalyzerSource`;
    the spec is checked when built, so this only rejects a pipeline without
    analyzers."""
    if spec.name not in ANALYZER_PIPELINES:
        raise ConfigError(f"pipeline {spec.name!r} does not take analyzer angles; "
                          f"expected one of {ANALYZER_PIPELINES}")
    return _reduce(spec, run(spec))


def measure(spec: ExperimentSpec) -> tuple[StateVector, CorrelationReport, CorrelationReport]:
    """The final state of ``spec`` and both estimators at its analyzer setting:
    contracted from the state's :class:`AnalyzerSource` when an ``ideal`` or
    ``ou_mandel`` angle is nonzero, read from the state otherwise."""
    state = run(spec)
    if spec.name in ANALYZER_PIPELINES and (spec.theta_a or spec.theta_b):
        source = _reduce(spec, state)
        return state, *(source.report(e, spec.theta_a, spec.theta_b) for e in ESTIMATORS)
    delta = spec.theta_a - spec.theta_b
    return (state, correlation_raw(state, spec.gamma, delta),
            correlation_conditioned(state, spec.gamma, delta))


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChshReport:
    estimator: str
    gamma: float
    cutoff: int
    angles: ChshAngles
    correlations: tuple[CorrelationReport, CorrelationReport, CorrelationReport, CorrelationReport]

    @property
    def s_value(self) -> float:
        c1, c2, c3, c4 = (r.value for r in self.correlations)
        return abs(c1 + c2 + c3 - c4)

    @property
    def violation(self) -> bool:
        """S exceeds the local bound 2 by more than :data:`VIOLATION_MARGIN`."""
        return self.s_value > 2.0 + VIOLATION_MARGIN

    def to_dict(self) -> dict:
        return {"s": self.s_value, "violation": self.violation, **asdict(self)}


def chsh(spec: ExperimentSpec, angles: ChshAngles) -> ChshReport:
    """Evaluate S = |C(a,b) + C(a,b') + C(a',b) - C(a',b')|."""
    return analyzer_source(spec).chsh(angles)


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


@dataclass(frozen=True)
class ScanTable:
    axis: str
    experiment: str
    estimator: str
    gamma: float
    cutoff: int
    rows: tuple[ScanRow, ...]

    CSV_HEADER = "parameter,c_raw,c_cond,numerator,denominator,leakage"


#: a gamma or phi row replaces the spec field of that name; a delta row is
#: the analyzer setting (theta_a, theta_b) = (value, 0)
SCAN_AXES = ("delta", "gamma", "phi")


def _scan_row(value: float, raw: CorrelationReport, cond: CorrelationReport) -> ScanRow:
    return ScanRow(value, raw.value, cond.value, raw.numerator, raw.denominator,
                   raw.leakage, raw.degenerate, cond.degenerate)


def _failed_row(value: float, exc: Exception) -> ScanRow:
    nan = float("nan")
    return ScanRow(value, nan, nan, nan, nan, nan, failed=True, message=str(exc))


def _scan_rows(spec: ExperimentSpec, axis: str, values: list[float]) -> tuple[ScanRow, ...]:
    if axis == "delta":
        # one source state for every row; if it fails, every row fails with it
        try:
            source = analyzer_source(spec)
        except (EvolveError, ValueError) as exc:
            return tuple(_failed_row(v, exc) for v in values)
        return tuple(_scan_row(v, source.report("raw", v, 0.0),
                               source.report("conditioned", v, 0.0)) for v in values)
    rows = []
    for value in values:
        try:
            _, raw, cond = measure(replace(spec, **{axis: value}))
        except (EvolveError, ValueError) as exc:
            rows.append(_failed_row(value, exc))
        else:
            rows.append(_scan_row(value, raw, cond))
    return tuple(rows)


def scan(spec: ExperimentSpec, axis: str, grid: Sequence[float]) -> ScanTable:
    """Map both estimators over a parameter grid.

    A gamma or phi row is :func:`measure` of a copy of ``spec`` with the
    scanned field replaced; delta rows are analyzer settings (value, 0) of one
    :class:`AnalyzerSource`.  Rows are computed in grid order.  The grid
    must be non-empty, finite and strictly monotone.
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
    if spec.name == "custom":
        raise ConfigError("scans require a named pipeline (ideal, horne or ou_mandel)")
    if axis == "delta" and spec.name not in ANALYZER_PIPELINES:
        raise ConfigError(f"axis 'delta' needs analyzer angles; pipeline {spec.name!r} has none")
    if axis == "phi" and spec.name != "horne":
        raise ConfigError(f"axis 'phi' applies to the horne pipeline, not {spec.name!r}")
    rows = _scan_rows(spec, axis, values)
    return ScanTable(axis, spec.name, spec.estimator, spec.gamma, spec.cutoff, rows)


# ---------------------------------------------------------------------------
# Horne cross-check
# ---------------------------------------------------------------------------

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
    state = vacuum(get_basis(spec.cutoff))
    state = evolve(state, _stage_operator("K_prime@BS", spec.cutoff), spec.gamma, spec.tol)
    state = evolve(state, _stage_operator("J_prime@BS", spec.cutoff), spec.phi, spec.tol)
    return state
