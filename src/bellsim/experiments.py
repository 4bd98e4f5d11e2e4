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

Two correlation estimators are provided: ``raw``, the intensity-difference
ratio on the full output state, and ``conditioned``, the same ratio after the
one-photon-per-channel projection.  They agree as gamma -> 0; the scans make
their O(gamma^2) difference an observable rather than an assumption.

Every command reads a spec through :func:`readout`, and every number is a
contraction of the :class:`Moments` of the state after the last pair source
with the single-photon matrix of the later, passive stages, analyzers
included, which no command evolves.  When that source is the first stage, as
in every named pipeline, it acts on the vacuum and its state is
sum_n c_n(gamma) phi_n on its ladder (:class:`fock.Ladder`): the moments are
the weights |c_n|^2 on each shell's own, so a readout evolves nothing.  Any
other spec runs :func:`fock.evolve` up to its last pair source once.  A delta
or phi scan reads all its rows from one source; every row is exactly the
readout of its own spec.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, lru_cache, partial
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

from . import fock
from .adjoint import conjugate
from .catalog import catalog, UnknownGeneratorError
from .fock import (
    EvolveError,
    SparseOperator,
    StateVector,
    check_phase,
    evolve,
    get_basis,
    mode_matrix,
    vacuum,
)

DEFAULT_CUTOFF = 8
#: the largest cutoff: its basis holds C(64, 4) = 635376 kets; a run there peaked at
#: 94 MiB (any named pipeline, gamma or angle, and custom K_OM_prime alone; after
#: import ideal took 0.13-0.18 s, horne at phi = 0.7 0.13-0.18 s, ou_mandel at
#: theta_a = 0.3 0.12-0.18 s and K_OM_prime 0.23-0.31 s) and 155 MiB (custom
#: with two sources, 0.85-0.92 s)
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
    :func:`readout` reads the analyzer setting ``theta_a``/``theta_b``.
    ``cutoff`` is the one accuracy input: every stage is exact on the
    truncated space up to the rounding of its phases (:data:`fock.ACCURACY`).
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


def _evolve(stages: Sequence[tuple[str, float]], state: StateVector) -> StateVector:
    for gen_name, parameter in stages:
        state = evolve(state, _stage_operator(gen_name, state.basis.cutoff), parameter)
    return state


def run(spec: ExperimentSpec) -> StateVector:
    """Apply every stage to the vacuum; :func:`readout` stops at the last pair source."""
    return _evolve(spec.stages, vacuum(get_basis(spec.cutoff)))


def _split(spec: ExperimentSpec) -> int:
    """How many stages lead up to the last pair source; all later ones are passive."""
    return max((k + 1 for k, (name, _) in enumerate(spec.stages)
                if not _stage_operator(name, spec.cutoff).passive), default=0)


# ---------------------------------------------------------------------------
# passive optics as 4x4 mode matrices, and the moments they act on
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _channel_sigmas() -> tuple[np.ndarray, np.ndarray]:
    """The mode matrices of sigma_z, sigma_y and sigma_0 of channel a, then b,
    (2, 3, 4, 4), and kron(sigma_p^a, sigma_q^b), p, q in (z, y, 0), on the
    raveled amplitudes psi[i, j] of the kets |1_i 1_j>, i in a, j in b."""
    sigmas = np.array([[mode_matrix(catalog(f"sigma_{p}_{c}")) for p in "zy0"] for c in "ab"])
    return sigmas, np.array([[np.kron(a, b) for b in sigmas[1, :, 2:, 2:]]
                             for a in sigmas[0, :, :2, :2]])


@lru_cache(maxsize=None)
def _eigenmodes(name: str) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(mode_matrix(catalog(name)))


def single_photon_matrix(stages: Sequence[tuple[str, float]], photons: int) -> np.ndarray:
    """S with U^dagger c U = S c for U the passive ``stages`` applied left to
    right, e^{i theta h} = W e^{i theta mu} W^dagger per stage.  A stage
    fails by :func:`fock.check_phase` on photons * max|mu|, the largest
    phase it gives a ket of ``photons`` photons."""
    s = np.eye(4, dtype=np.complex128)
    for name, theta in stages:
        mu, w = _eigenmodes(name)
        check_phase(theta, photons * float(np.max(np.abs(mu))))
        s = (w * np.exp(1j * theta * mu)) @ w.conj().T @ s
    return s


@dataclass(frozen=True)
class Moments:
    """What every reported number reads off a state psi, normalized: ``gram``,
    the Gram matrix of the 16 vectors c_k^dagger c_l psi, so <(c^dagger A c)
    (c^dagger B c)> = vec(A)^dagger gram vec(B) for hermitian A, and ``pairs``,
    Z_kl = <0|c_k c_l|psi>.  A passive U with U^dagger c U = S c turns A into
    S^dagger A S and Z into S Z S^T, and keeps every ket's photon number, hence
    the norm, the ``leakage`` (on the top two shells) and ``photons``."""

    gram: np.ndarray
    pairs: np.ndarray
    norm: float
    leakage: float
    photons: int

    @staticmethod
    def of(state: StateVector) -> "Moments":
        basis, kets = state.basis, np.flatnonzero(state.amps.astype(bool))
        norm = float(np.linalg.norm(state.amps[kets]))
        x, totals = state.amps[kets] / norm, basis.totals[kets]
        grams, pairs = fock.second_moments(basis, kets, x)
        top = totals >= basis.cutoff - 1
        return Moments(grams.sum(axis=0), pairs, norm, float(np.vdot(x[top], x[top]).real),
                       int(totals.max()))

    @staticmethod
    def of_ladder(ladder: fock.Ladder, c: np.ndarray) -> "Moments":
        """The moments of the state Q c of a :class:`fock.Ladder`, with no
        vector on its kets: no c_k^dagger c_l leaves a shell and each phi_n
        is a unit vector on its own, so the Gram matrix is the |c_n|^2
        weighted sum of each phi_n's, Z is c_n Z(phi_n) of the two-photon
        shell, and the leakage is the weight of the top two shells."""
        grams, pairs = ladder.moments
        weights = np.abs(c) ** 2
        total = float(np.sum(weights))
        norm = math.sqrt(total)
        top = ladder.shells >= ladder.basis.cutoff - 1
        return Moments(((weights / total) @ grams).reshape(16, 16),
                       ((c / norm) @ pairs).reshape(4, 4), norm,
                       float(np.sum(weights[top])) / total, int(ladder.shells[c != 0].max()))


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


def _reports(moments: Moments, s: np.ndarray, gamma: float, delta: float):
    """Both reports and their (z, y) sigma tensors (:attr:`Readout.tensors`)
    after passive optics of single-photon matrix ``s``: <sigma_p^a sigma_q^b>,
    p, q in (z, y, 0), from S^dagger sigma S and the Gram matrix, and on the
    coincidence amplitudes, the channel-a x channel-b block of S Z S^T, whose
    weight is the (sigma_0, sigma_0) entry.  A zero numerator is +0, not -0."""
    sigmas, coincident = _channel_sigmas()
    sigma_a, sigma_b = (s.conj().T @ sigmas @ s).reshape(2, 3, 16)
    raw = (sigma_a.conj() @ moments.gram @ sigma_b.T).real
    amps = (s[:2] @ moments.pairs @ s[2:].T).ravel()
    cond = (coincident @ amps @ amps.conj()).real
    num, den, weight = float(raw[0, 0]) + 0.0, float(raw[2, 2]), float(cond[2, 2])
    common = moments.leakage, gamma, delta
    raw_report = CorrelationReport("raw", 0.0 if den < DEGENERATE_EPS else num / den, num, den,
                                   *common, den < DEGENERATE_EPS)
    if weight < DEGENERATE_EPS:
        return (raw_report, CorrelationReport("conditioned", 0.0, 0.0, 0.0, *common, True),
                (raw[:2, :2], None))
    value = float(cond[0, 0]) / weight
    return (raw_report, CorrelationReport("conditioned", value, value, 1.0, *common),
            (raw[:2, :2], cond[:2, :2] / weight))


def correlation_raw(state: StateVector, gamma: float = float("nan"),
                    delta: float = float("nan")) -> CorrelationReport:
    """C = <(n1-n2)(n3-n4)> / <(n1+n2)(n3+n4)> on the normalized state, its
    :class:`Moments` read at S = I; a vanishing denominator is reported as
    C = 0 with the degenerate flag set (no coincidences)."""
    return _reports(Moments.of(state), np.eye(4), gamma, delta)[0]


def correlation_conditioned(state: StateVector, gamma: float = float("nan"),
                            delta: float = float("nan")) -> CorrelationReport:
    """The same ratio on the renormalized projection onto one photon per
    channel, where (n1+n2)(n3+n4) = 1: numerator C and denominator 1, and
    weight 0 is reported degenerate."""
    return _reports(Moments.of(state), np.eye(4), gamma, delta)[1]


# ---------------------------------------------------------------------------
# one readout of the source state
# ---------------------------------------------------------------------------

def _analyzer_vector(theta: float) -> tuple[float, float]:
    """u(theta): an analyzer at theta, the rotation e^{i 2 theta J}, turns
    sigma_z into cos(2 theta) sigma_z - sin(2 theta) sigma_y."""
    if not math.isfinite(2.0 * theta):
        raise ConfigError(f"analyzer angle {theta!r} is too large: 2*theta overflows")
    return math.cos(2.0 * theta), -math.sin(2.0 * theta)


@dataclass(frozen=True)
class Readout:
    """Both estimators of a spec, and the sigma tensors every analyzer
    setting (theta_a, theta_b) reads.  The analyzers are passive rotations
    inside channel a and channel b: they keep each channel's photon number,
    so they commute with the coincidence projection and leave the
    denominator, the coincidence weight and the leakage unchanged, and they
    turn sigma_z into a combination of sigma_z and sigma_y (checked by
    ``sigma_rotation_error`` in tests/oracles.py).  So a setting's numerator
    is u(theta_a)^T T u(theta_b) for a 2x2 tensor T (:attr:`tensors`), and
    the rest of its report is the spec's own, degenerate flag included."""

    spec: ExperimentSpec
    #: the moments of the state after the last pair source
    moments: Moments
    raw: CorrelationReport
    conditioned: CorrelationReport
    #: T_ij = <sigma_i^a sigma_j^b>, i, j in (z, y), of the normalized final
    #: state, and of its renormalized coincidence projection (None when the
    #: coincidence weight is degenerate)
    tensors: tuple[np.ndarray, np.ndarray | None]
    #: forms the state after the last pair source
    form_source: Callable[[], StateVector] = field(repr=False, compare=False)

    @cached_property
    def source_state(self) -> StateVector:
        """The state after the last pair source, formed on first use: a
        ladder readout places Q c on its kets only here."""
        return self.form_source()

    @cached_property
    def _tensor_rows(self) -> tuple[list, list | None]:
        """:attr:`tensors` as nested lists of Python floats, for :meth:`report`."""
        return tuple(None if t is None else t.tolist() for t in self.tensors)

    def report(self, estimator: str, theta_a: float, theta_b: float) -> CorrelationReport:
        """One estimator at one setting: the spec's own report for a pipeline
        without analyzers, or at (0, 0) of a spec with delta 0; otherwise that
        report with the numerator u(theta_a)^T T u(theta_b), contracted from
        :attr:`tensors` on Python floats, its value and the setting's delta
        swapped in."""
        own = self.raw if estimator == "raw" else self.conditioned
        if self.spec.name not in ANALYZER_PIPELINES or not (theta_a or theta_b or own.delta):
            return own
        (a0, a1), (b0, b1) = _analyzer_vector(theta_a), _analyzer_vector(theta_b)
        delta = theta_a - theta_b
        if estimator == "conditioned" and own.degenerate:
            return CorrelationReport(own.estimator, own.value, own.numerator, own.denominator,
                                     own.leakage, own.gamma, delta, True)
        (t00, t01), (t10, t11) = self._tensor_rows[estimator == "conditioned"]
        num = (a0 * t00 + a1 * t10) * b0 + (a0 * t01 + a1 * t11) * b1
        # a conditioned report's denominator is 1, so its value is the numerator
        value = 0.0 if own.degenerate else num / own.denominator
        return CorrelationReport(own.estimator, value, num, own.denominator, own.leakage,
                                 own.gamma, delta, own.degenerate)

    def reports(self, theta_a: float, theta_b: float) -> tuple[CorrelationReport, CorrelationReport]:
        """The raw and the conditioned :meth:`report` at one setting."""
        return self.report("raw", theta_a, theta_b), self.report("conditioned", theta_a, theta_b)

    def chsh(self, angles: "ChshAngles") -> "ChshReport":
        spec = self.spec
        reports = tuple(self.report(spec.estimator, ta, tb) for ta, tb in angles.settings())
        return ChshReport(spec.estimator, spec.gamma, spec.cutoff, angles, reports)

    def final_state(self) -> StateVector:
        """:func:`run`'s state: the later stages evolved on the source state."""
        return _evolve(self.spec.stages[_split(self.spec):], self.source_state)


def _source(spec: ExperimentSpec) -> tuple[Moments, Callable[[], StateVector]]:
    """The moments of the state after the last pair source, and how to form
    that state.  When the source is the first stage, its set-up on the vacuum
    is a ladder (:meth:`fock.SparseOperator.ladder`) and the moments are read
    off its amplitudes c; otherwise the stages up to it are evolved."""
    split = _split(spec)
    if split == 1:
        name, gamma = spec.stages[0]
        ladder = _stage_operator(name, spec.cutoff).ladder(gamma)
        if ladder is not None:
            c = ladder.amplitudes(gamma)
            return Moments.of_ladder(ladder, c), partial(ladder.state, c)
    state = _evolve(spec.stages[:split], vacuum(get_basis(spec.cutoff)))
    return Moments.of(state), lambda: state


def _read(spec: ExperimentSpec, moments: Moments, form_source) -> Readout:
    s = single_photon_matrix(spec.stages[_split(spec):], moments.photons)
    return Readout(spec, moments, *_reports(moments, s, spec.gamma, spec.theta_a - spec.theta_b),
                   form_source)


def readout(spec: ExperimentSpec) -> Readout:
    """Read both estimators of ``spec`` off the moments of its state after
    the last pair source (:func:`_source`), through the later stages."""
    return _read(spec, *_source(spec))


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
    """The one row loop of every axis.  A gamma row is the readout of a copy
    of ``spec`` at that gamma; delta and phi enter only after the last pair
    source, so their rows read one source state: a delta row is the spec's
    readout at (delta, 0), a phi row the readout of the copy at that phi.
    Only :class:`EvolveError` makes a failed row, every row's when the source
    fails and one row's when reading it fails; a :class:`ConfigError` propagates."""
    angles = spec.theta_a, spec.theta_b
    try:
        if axis == "gamma":
            read = lambda gamma: readout(replace(spec, gamma=gamma)).reports(*angles)
        elif axis == "delta":
            source = readout(spec)
            read = lambda delta: source.reports(delta, 0.0)
        else:
            source = _source(spec)
            read = lambda phi: _read(replace(spec, phi=phi), *source).reports(*angles)
    except EvolveError as exc:
        return tuple(_failed_row(v, exc) for v in values)
    rows = []
    for value in values:
        try:
            rows.append(_scan_row(value, *read(value)))
        except EvolveError as exc:
            rows.append(_failed_row(value, exc))
    return tuple(rows)


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
    """The Horne pipeline through conjugated generators: U_BS e^{i phi J'}
    e^{i gamma K'} |0> = e^{i phi U_BS J' U_BS^-1} e^{i gamma U_BS K' U_BS^-1}
    |0>, as the splitter leaves the vacuum alone.  The conjugated generators are
    the exact quarter turns J_y_13 - J_y_24 and -(K_y_12 + K_y_34) from
    :func:`~bellsim.adjoint.conjugate`, so the two routes' agreement checks the
    algebra layer against the Fock layer."""
    if spec.name != "horne":
        raise ConfigError("conjugated form is defined for the horne pipeline")
    state = vacuum(get_basis(spec.cutoff))
    state = evolve(state, _stage_operator("K_prime@BS", spec.cutoff), spec.gamma)
    state = evolve(state, _stage_operator("J_prime@BS", spec.cutoff), spec.phi)
    return state
