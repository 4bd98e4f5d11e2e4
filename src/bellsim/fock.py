"""Truncated Fock-space engine for the four optical modes.

The basis is every occupation tuple (n1, n2, n3, n4) with total photon
number at most ``cutoff`` (so dim = C(cutoff+4, 4)), ordered by total
photon number and then lexicographically.  Operators become sparse CSR
matrices with the standard sqrt(n) matrix elements; pair creation out of
the top shell is dropped, which is the sole way truncation enters.  The
truncated generator of a hermitian operator is still hermitian, so the
evolution computed here is exactly unitary on the truncated space; the
*difference from the untruncated dynamics* is certified small by the
:func:`leakage` diagnostic (weight on the top two shells).

Unitary evolution uses a truncated Taylor series with step splitting and
an a-posteriori remainder bound; the dense-exponential cross-check lives
in the test suite as an independent oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, sqrt
from typing import Iterable, Sequence, Union

import numpy as np
from scipy import sparse

from .algebra import Kind, QuadOp
from .adjoint import FloatOp

Occupation = tuple[int, int, int, int]

#: the coincidence kets: one photon in each channel, n1+n2 = 1 and n3+n4 = 1
PI_KEPT: tuple[Occupation, ...] = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))

MAX_TAYLOR_TERMS = 80
MAX_SUBSTEPS = 100_000


class TruncationWarning(UserWarning):
    """Emitted when an intermediate vector carries weight near the cutoff."""


class EvolveError(RuntimeError):
    """Taylor evolution failed to certify the requested tolerance."""


class FockBasis:
    """Total-photon-cutoff basis for four bosonic modes."""

    def __init__(self, cutoff: int):
        if cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {cutoff}")
        self.cutoff = cutoff
        states = [occ for occ in product(range(cutoff + 1), repeat=4) if sum(occ) <= cutoff]
        states.sort(key=lambda occ: (sum(occ), occ))
        self.states: tuple[Occupation, ...] = tuple(states)
        self._index: dict[Occupation, int] = {occ: k for k, occ in enumerate(self.states)}
        #: (dim, 4) photon numbers; row k is ``states[k]``
        self.occupations = np.array(self.states, dtype=np.int64)
        self.totals = self.occupations.sum(axis=1)
        #: basis indices of the PI_KEPT kets, in that order (none below cutoff 2)
        self.coincidence = np.array([self._index[occ] for occ in PI_KEPT if occ in self._index],
                                    dtype=np.intp)

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, occ: Sequence[int]) -> int:
        key = tuple(int(n) for n in occ)
        try:
            return self._index[key]  # type: ignore[index]
        except KeyError:
            raise ValueError(f"occupation {key} outside basis with cutoff {self.cutoff}") from None

    def state(self, index: int) -> Occupation:
        return self.states[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, FockBasis) and other.cutoff == self.cutoff

    def __hash__(self) -> int:
        return hash(("FockBasis", self.cutoff))

    def __repr__(self) -> str:
        return f"FockBasis(cutoff={self.cutoff}, dim={self.dim})"


@lru_cache(maxsize=32)
def get_basis(cutoff: int) -> FockBasis:
    return FockBasis(cutoff)


def expected_dim(cutoff: int) -> int:
    return comb(cutoff + 4, 4)


@dataclass
class StateVector:
    """Complex amplitude vector over a :class:`FockBasis`."""

    basis: FockBasis
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (self.basis.dim,):
            raise ValueError(f"amplitude vector has shape {self.amps.shape}, expected ({self.basis.dim},)")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amps / n)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.basis != self.basis:
            raise ValueError("states live on different bases")
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2 for normalized inputs (global-phase blind)."""
        na, nb = self.norm(), other.norm()
        return float(np.clip(abs(self.inner(other)) ** 2 / (na * nb) ** 2, 0.0, 1.0))

    def amplitude(self, occ: Sequence[int]) -> complex:
        return complex(self.amps[self.basis.index_of(occ)])

    def to_records(self, threshold: float = 1e-12) -> list[dict]:
        """JSON-ready amplitude records in deterministic basis order."""
        out = []
        for k, occ in enumerate(self.basis.states):
            a = self.amps[k]
            if abs(a) > threshold:
                out.append({"n1": occ[0], "n2": occ[1], "n3": occ[2], "n4": occ[3],
                            "re": float(a.real), "im": float(a.imag)})
        return out

    @staticmethod
    def from_records(basis: FockBasis, records: Iterable[dict]) -> "StateVector":
        amps = np.zeros(basis.dim, dtype=np.complex128)
        for rec in records:
            occ = (rec["n1"], rec["n2"], rec["n3"], rec["n4"])
            amps[basis.index_of(occ)] = rec["re"] + 1j * rec["im"]
        return StateVector(basis, amps)


def vacuum(basis: FockBasis) -> StateVector:
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index_of((0, 0, 0, 0))] = 1.0
    return StateVector(basis, amps)


def fock_state(basis: FockBasis, occ: Sequence[int]) -> StateVector:
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index_of(occ)] = 1.0
    return StateVector(basis, amps)


@dataclass(frozen=True)
class SparseOperator:
    """CSR matrix of a quadratic operator on a fixed basis."""

    basis: FockBasis
    mat: sparse.csr_matrix

    def apply(self, state: StateVector) -> StateVector:
        if state.basis != self.basis:
            raise ValueError("operator and state bases differ")
        return StateVector(self.basis, self.mat @ state.amps)

    def expectation(self, state: StateVector) -> complex:
        return complex(np.vdot(state.amps, self.mat @ state.amps))

    def hermiticity_defect(self) -> float:
        diff = (self.mat - self.mat.getH()).tocoo()
        return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0


def _element_entries(elem, states, index, cutoff):
    """(rows, cols, vals) of one basis element; out-of-cutoff targets dropped."""
    rows, cols, vals = [], [], []
    i, j = elem.i - 1, elem.j - 1
    for col, occ in enumerate(states):
        if elem.kind is Kind.PAIR_CREATE:
            if sum(occ) + 2 > cutoff:
                continue
            target = list(occ)
            if i == j:
                value = sqrt((occ[i] + 1) * (occ[i] + 2))
                target[i] += 2
            else:
                value = sqrt((occ[i] + 1) * (occ[j] + 1))
                target[i] += 1
                target[j] += 1
        elif elem.kind is Kind.PAIR_ANNIHILATE:
            if i == j:
                if occ[i] < 2:
                    continue
                value = sqrt(occ[i] * (occ[i] - 1))
                target = list(occ)
                target[i] -= 2
            else:
                if occ[i] < 1 or occ[j] < 1:
                    continue
                value = sqrt(occ[i] * occ[j])
                target = list(occ)
                target[i] -= 1
                target[j] -= 1
        else:  # MIXED: C_ij = c_i^† c_j + delta_ij/2
            if i == j:
                rows.append(col)
                cols.append(col)
                vals.append(occ[i] + 0.5)
                continue
            if occ[j] < 1:
                continue
            value = sqrt(occ[j] * (occ[i] + 1))
            target = list(occ)
            target[j] -= 1
            target[i] += 1
        rows.append(index[tuple(target)])
        cols.append(col)
        vals.append(value)
    return rows, cols, vals


def matrix(op: Union[QuadOp, FloatOp], basis: FockBasis) -> SparseOperator:
    """Sparse matrix of a quadratic operator (QuadOp or FloatOp)."""
    dim = basis.dim
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    index = basis._index
    for elem, coeff in op.coeffs.items():
        c = complex(coeff)
        r, cl, v = _element_entries(elem, basis.states, index, basis.cutoff)
        rows.extend(r)
        cols.extend(cl)
        vals.extend(c * x for x in v)
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=np.complex128).tocsr()
    scalar = complex(op.scalar)
    if scalar != 0.0:
        mat = mat + scalar * sparse.identity(dim, dtype=np.complex128, format="csr")
    return SparseOperator(basis, mat)


def _as_sparse(op, basis: FockBasis) -> SparseOperator:
    if isinstance(op, SparseOperator):
        if op.basis != basis:
            raise ValueError("operator built on a different basis")
        return op
    return matrix(op, basis)


def _check_generator_hermitian(op, sp: SparseOperator) -> None:
    if isinstance(op, QuadOp):
        if not op.is_hermitian():
            raise ValueError("evolution generator must be hermitian")
    else:
        defect = sp.hermiticity_defect()
        if defect > 1e-10:
            raise ValueError(f"evolution generator must be hermitian (defect {defect:.2e})")


def evolve(state: StateVector, generator, theta: float, tol: float = 1e-12) -> StateVector:
    """e^{i theta G} |state> by split-step truncated Taylor summation.

    ``generator`` is a hermitian QuadOp, a FloatOp, or a prebuilt
    SparseOperator.  The series for each substep is summed until the
    geometric remainder bound drops below the per-step share of ``tol``;
    failure to converge within :data:`MAX_TAYLOR_TERMS` raises
    :class:`EvolveError` (the cutoff is too small for the requested
    rotation, or ``tol`` is unattainably tight).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sp = _as_sparse(generator, state.basis)
    _check_generator_hermitian(generator, sp)
    if theta == 0.0:
        return StateVector(state.basis, state.amps.copy())

    mat = sp.mat
    # 1-norm bound on theta*G decides the number of substeps
    col_norm = float(np.max(np.abs(mat).sum(axis=0))) if mat.nnz else 0.0
    scale = abs(theta) * col_norm
    substeps = max(1, int(np.ceil(scale / 4.0)))
    if substeps > MAX_SUBSTEPS:
        raise EvolveError(f"evolution needs {substeps} substeps; parameter too large")
    h = theta / substeps
    step_tol = tol / substeps
    h_norm = abs(h) * col_norm

    v = state.amps.copy()
    for _ in range(substeps):
        acc = v.copy()
        term = v.copy()
        converged = False
        for k in range(1, MAX_TAYLOR_TERMS + 1):
            term = (1j * h / k) * (mat @ term)
            acc += term
            ratio = h_norm / (k + 1)
            if ratio < 1.0:
                remainder = float(np.linalg.norm(term)) * ratio / (1.0 - ratio)
                if remainder <= step_tol:
                    converged = True
                    break
        if not converged:
            raise EvolveError(
                f"Taylor series did not reach tol={tol:g} within "
                f"{MAX_TAYLOR_TERMS} terms; increase the cutoff or relax tol"
            )
        v = acc
    return StateVector(state.basis, v)


def expect_product(state: StateVector, ops: Sequence, boundary_tol: float = 1e-6) -> complex:
    """<state| M_1 M_2 ... M_k |state> by right-to-left sparse application.

    Quartic products are truncation-sensitive, so an intermediate vector
    putting more than ``boundary_tol`` of its weight within two photons of
    the cutoff emits a :class:`TruncationWarning`.
    """
    if not ops:
        raise ValueError("expect_product requires at least one operator")
    norm = state.norm()
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized (norm {norm:.3e})")
    v = state.amps
    for op in reversed(list(ops)):
        sp = _as_sparse(op, state.basis)
        v = sp.mat @ v
        boundary = _shell_weight(state.basis, v)
        if boundary > boundary_tol:
            warnings.warn(
                f"intermediate vector carries {boundary:.2e} weight on the "
                f"top two shells (cutoff {state.basis.cutoff}); expectation "
                "may be truncation-limited",
                TruncationWarning,
                stacklevel=2,
            )
    return complex(np.vdot(state.amps, v))


def _shell_weight(basis: FockBasis, amps: np.ndarray) -> float:
    mask = basis.totals >= max(basis.cutoff - 1, 0)
    return float(np.sum(np.abs(amps[mask]) ** 2))


def leakage(state: StateVector) -> float:
    """Squared amplitude on the top two total-photon shells."""
    return _shell_weight(state.basis, state.amps)


def project_pi(state: StateVector) -> tuple[StateVector, float]:
    """Zero all amplitudes outside the four coincidence kets.

    Returns the unnormalized projected state and its squared norm.
    """
    kept = state.basis.coincidence
    amps = np.zeros_like(state.amps)
    amps[kept] = state.amps[kept]
    return StateVector(state.basis, amps), float(np.sum(np.abs(amps[kept]) ** 2))
