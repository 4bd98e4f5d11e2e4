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

The analyzers are never evolved.  Every command reads the stages' final state
through :func:`readout` (:class:`Readout`): each estimator once, and a setting
as a numerator contracted from a 2x2 sigma tensor of the state.  A delta scan
reads every row from one readout; a gamma or phi row is the readout of the
spec with that value, so it is exactly a :func:`run`.
Every stage is evolved by :func:`fock.evolve`, on the kets it reaches.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache
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
#: the largest cutoff: its basis holds C(64, 4) = 635376 kets; a run there peaked
#: at 146 MiB (ou_mandel, any gamma; 223 MiB with an analyzer angle) and 209 MiB
#: (custom with two sources)
MAX_CUTOFF = 60
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


@dataclass(frozen=True)
class ExperimentSpec:
    """One Bell test: a pipeline name and its physical parameters.

    The named pipelines read ``gamma`` and ``phi`` into their stage list and
    take no ``custom_stages``; ``custom`` applies ``custom_stages`` instead.
    :func:`readout` reads the analyzer setting ``theta_a``/``theta_b`` off
    the final state.  ``cutoff`` is the one accuracy input: every stage is
    exact on the truncated space up to the rounding of its phases
    (:data:`fock.ACCURACY`).
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
        if self.cutoff > MAX_CUTOFF:
            raise ConfigError(f"cutoff must be at most {MAX_CUTOFF}, got {self.cutoff!r}")
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
        elif self.custom_stages != ():
            raise ConfigError(f"stages apply to the custom pipeline, not {self.name!r}")


def horne_spec(gamma: float, phi: float,
               estimator: str = "conditioned", cutoff: int = DEFAULT_CUTOFF) -> ExperimentSpec:
    return ExperimentSpec("horne", (), estimator, gamma, 0.0, 0.0, phi, cutoff)


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
        op = conjugate(catalog("J_BS"), catalog(_BS_CONJUGATED[name]))
    else:
        op = catalog(name)
    return fock.matrix(op, get_basis(cutoff))


def run(spec: ExperimentSpec) -> StateVector:
    """Apply the stages left to right to the vacuum."""
    basis = get_basis(spec.cutoff)
    state = vacuum(basis)
    for gen_name, parameter in spec.stages:
        state = evolve(state, _stage_operator(gen_name, spec.cutoff), parameter)
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
# one readout of the final state
# ---------------------------------------------------------------------------

def _analyzer_vector(theta: float) -> np.ndarray:
    """u(theta): an analyzer at theta, the rotation e^{i 2 theta J}, turns
    sigma_z into cos(2 theta) sigma_z - sin(2 theta) sigma_y."""
    if not math.isfinite(2.0 * theta):
        raise ConfigError(f"analyzer angle {theta!r} is too large: 2*theta overflows")
    return np.array([math.cos(2.0 * theta), -math.sin(2.0 * theta)])


@dataclass(frozen=True)
class Readout:
    """A spec's final state and both estimators on it, which every analyzer
    setting (theta_a, theta_b) reads.

    The analyzers are passive rotations inside channel a and channel b.  They
    keep each channel's photon number, so they commute with the coincidence
    projection and leave the denominator, the coincidence weight and the
    leakage unchanged, and they turn sigma_z into a combination of sigma_z
    and sigma_y (checked by ``sigma_rotation_error`` in tests/oracles.py).  Each
    estimator's numerator is therefore u(theta_a)^T T u(theta_b) for a 2x2
    tensor T of the final state (:attr:`tensors`), and everything else in a
    report at that setting is the state's own report, degenerate flag included.
    """

    spec: ExperimentSpec
    state: StateVector
    #: :func:`correlation_raw` and :func:`correlation_conditioned` of the
    #: state, at the spec's own delta
    raw: CorrelationReport
    conditioned: CorrelationReport

    @cached_property
    def tensors(self) -> tuple[np.ndarray, np.ndarray | None]:
        """T_ij = <sigma_i^a sigma_j^b>, i, j in (z, y), of the normalized
        state, and of its renormalized coincidence projection (None when the
        coincidence weight is degenerate); computed on first use.

        The channel-a and channel-b observables are hermitian and commute, so
        T_ij = <sigma_i^a psi|sigma_j^b psi>: two diagonal products and two
        products with sigma_y (``SparseOperator.apply``).  Each sigma keeps
        both channels' photon numbers, so the products lie on the kets with
        the state's pairs (n_a, n_b), and it commutes with the projection, so
        the coincidence columns of the same products give the projected tensor.
        """
        amps, basis = self.state.normalized().amps, self.state.basis
        z_a, z_b, n_a, n_b = basis.channel_weights
        pair = n_a * (basis.cutoff + 1) + n_b  # each ket's (n_a, n_b) as one index
        held = np.zeros((basis.cutoff + 1) ** 2, dtype=bool)
        held[pair[amps.astype(bool)]] = True
        kets = np.flatnonzero(held[pair])
        x, z_a, z_b = amps[kets], z_a[kets], z_b[kets]
        side_a = np.stack([z_a * x, _stage_operator("sigma_y_a", basis.cutoff).apply(x, kets)])
        side_b = np.stack([z_b * x, _stage_operator("sigma_y_b", basis.cutoff).apply(x, kets)])
        raw = (side_a.conj() @ side_b.T).real
        if self.conditioned.degenerate:
            return raw, None
        kept = basis.coincidence
        weight = np.vdot(amps[kept], amps[kept]).real
        # the state has weight on a coincidence ket, so kets hold all four (n_a = n_b = 1)
        coincident = np.searchsorted(kets, kept)
        return raw, (side_a[:, coincident].conj() @ side_b[:, coincident].T).real / weight

    def report(self, estimator: str, theta_a: float, theta_b: float) -> CorrelationReport:
        """One estimator at one setting.  A pipeline without analyzers ignores
        the angles, and at (0, 0) of a spec with delta 0 the state's own report
        is the answer; otherwise the numerator contracted from :attr:`tensors`,
        its value and the setting's delta are swapped into the state's own
        report."""
        own = self.raw if estimator == "raw" else self.conditioned
        delta = theta_a - theta_b
        if self.spec.name not in ANALYZER_PIPELINES or not (theta_a or theta_b or own.delta):
            return own
        u_a, u_b = _analyzer_vector(theta_a), _analyzer_vector(theta_b)
        if estimator == "conditioned" and own.degenerate:
            return replace(own, delta=delta)
        # a conditioned report's denominator is 1, so its value is the numerator
        num = float(u_a @ self.tensors[estimator == "conditioned"] @ u_b)
        value = 0.0 if own.degenerate else num / own.denominator
        return replace(own, value=value, numerator=num, delta=delta)

    def reports(self, theta_a: float, theta_b: float) -> tuple[CorrelationReport, CorrelationReport]:
        """The raw and the conditioned :meth:`report` at one setting."""
        return self.report("raw", theta_a, theta_b), self.report("conditioned", theta_a, theta_b)

    def chsh(self, angles: "ChshAngles") -> "ChshReport":
        spec = self.spec
        reports = tuple(self.report(spec.estimator, ta, tb) for ta, tb in angles.settings())
        return ChshReport(spec.estimator, spec.gamma, spec.cutoff, angles, reports)


def readout(spec: ExperimentSpec) -> Readout:
    """Run ``spec``'s stages once and read both estimators off the final state."""
    state = run(spec)
    delta = spec.theta_a - spec.theta_b
    return Readout(spec, state, correlation_raw(state, spec.gamma, delta),
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
    """Evaluate S = |C(a,b) + C(a,b') + C(a',b) - C(a',b')| from one
    :func:`readout` of an analyzer pipeline."""
    if spec.name not in ANALYZER_PIPELINES:
        raise ConfigError(f"pipeline {spec.name!r} does not take analyzer angles; "
                          f"expected one of {ANALYZER_PIPELINES}")
    return readout(spec).chsh(angles)


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


def _failed_row(value: float, exc: EvolveError) -> ScanRow:
    nan = float("nan")
    return ScanRow(value, nan, nan, nan, nan, nan, failed=True, message=str(exc))


def _scan_rows(spec: ExperimentSpec, axis: str, values: list[float]) -> tuple[ScanRow, ...]:
    """The one row loop of every axis: the axis's shared part is computed
    once, then each row is read from it.  Only :class:`EvolveError` makes a
    failed row, every row's when the shared part fails and one row's when
    reading it fails; a :class:`ConfigError` propagates."""
    try:
        read = _row_reader(spec, axis)
    except EvolveError as exc:
        return tuple(_failed_row(v, exc) for v in values)
    rows = []
    for value in values:
        try:
            rows.append(_scan_row(value, *read(value)))
        except EvolveError as exc:
            rows.append(_failed_row(value, exc))
    return tuple(rows)


def _row_reader(spec: ExperimentSpec, axis: str):
    """An axis's shared part, computed once, as a function from a row's value
    to its (raw, conditioned) reports: the spec's :class:`Readout` for delta,
    read at (delta, 0), and nothing for gamma and phi, whose rows are the
    readouts of copies of ``spec`` at its own setting, so each is exactly a
    :func:`run`."""
    if axis == "delta":
        source = readout(spec)
        return lambda delta: source.reports(delta, 0.0)
    return lambda value: readout(replace(spec, **{axis: value})).reports(spec.theta_a,
                                                                         spec.theta_b)


def scan(spec: ExperimentSpec, axis: str, grid: Sequence[float]) -> ScanTable:
    """Map both estimators over a parameter grid, one row per value in grid
    order, by the row loop every axis shares (:func:`_scan_rows`).  The grid
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
    the splitter leaves the vacuum alone.  The conjugated generators are the
    exact quarter turns J_y_13 - J_y_24 and -(K_y_12 + K_y_34) from
    :func:`~bellsim.adjoint.conjugate`, so agreement of the two routes checks
    the algebra layer against the Fock layer.
    """
    if spec.name != "horne":
        raise ConfigError("conjugated form is defined for the horne pipeline")
    state = vacuum(get_basis(spec.cutoff))
    state = evolve(state, _stage_operator("K_prime@BS", spec.cutoff), spec.gamma)
    state = evolve(state, _stage_operator("J_prime@BS", spec.cutoff), spec.phi)
    return state
