"""Independent oracles and reference tools used by the test suite.

Nothing here reuses the library's matrix-element rules or its
eigendecompositions: operators are assembled from explicitly constructed
dense creation/annihilation matrices, exponentials go through scipy's Pade
implementation, and diagonal expectations are direct occupation sums.
Agreement between these oracles and the library is what the oracle tests
certify.  :func:`chain_leakage` shares no code with the library at all: it
evaluates a pair source's su(1,1) chain in 60-digit mpmath.  The exception
is :func:`column_loop_matrix`, which shares the library's arithmetic on
purpose: it builds a matrix one column at a time, to pin the vectorized
build bit for bit.  :func:`reached_dense_evolve` takes scipy's exponential on the
kets a generator reaches, found by the library's ``restricted``, of the
matrix it reads off the library's whole matrix.
:func:`run_with_analyzers`, :func:`correlation_by_run` and
:func:`chsh_grid_by_runs` use the library's source run, evolution and
estimators, but evolve every analyzer
setting through its rotation stages, which the library never does.
:func:`project_pi` is the reference coincidence projection: it zeroes every
amplitude outside the four ``PI_KEPT`` kets, where the library reads them
off the source state's two-photon amplitude matrix.  :func:`leakage`,
:func:`coincidence`, :func:`indices` and :func:`normalized` read a state on
the whole basis, where the library reads it on its own kets.  :func:`expm_conjugate` is the reference conjugation
at any angle: scipy's Pade exponential of the 37x37 float matrix
:func:`ad_matrix`, applied to a coefficient vector and returned as a
:class:`FloatOp`; the library conjugates only by the exact quarter turn
``bellsim.adjoint.conjugate``.

Reference tools shared by the tests and ``make_goldens.py``; no command runs
them:

* :func:`correlation`, one analyzer setting read from
  ``experiments.readout``;
* the CHSH maximizer search behind ``experiments.CHSH_MAXIMIZER`` and the
  ``chsh_maximizer.json`` golden (:func:`chsh_grid`, :func:`chsh_grid_search`,
  :func:`refine_chsh_maximizer`), through ``experiments.readout``;
* :func:`sigma_rotation_error`, the analyzer rotation identity on exact
  coefficients;
* exact span and ad-closure decisions (:func:`coefficient_row`,
  :func:`solve_in_span`, :class:`SpanClosureReport`, :func:`span_closure_under_ad`);
* :func:`random_rational_combination`, :func:`combination` (a float linear
  combination) and :func:`max_coeff_distance`;
* number states and amplitudes by occupation tuple (:func:`index_of`,
  :func:`amplitude`, :func:`fock_state`).
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import mpmath
import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from bellsim import experiments, fock
from bellsim.algebra import ALL_ELEMENTS, BasisElement, Kind, QuadOp, basis_commutator, commutator
from bellsim.catalog import catalog
from bellsim.experiments import ChshAngles
from bellsim.fock import FockBasis, StateVector
from bellsim.rational import ONE, ZERO, CRat


@dataclass(frozen=True)
class FloatOp:
    """A quadratic operator with complex floating-point coefficients, from
    :func:`operator_from_vector`, :func:`expm_conjugate` and :func:`combination`.

    It has :class:`~bellsim.algebra.QuadOp`'s two fields and its
    ``is_hermitian``, so ``fock.matrix`` and the dense oracles here read
    either.
    """

    coeffs: dict[BasisElement, complex] = field(default_factory=dict)
    scalar: complex = 0.0

    def is_hermitian(self) -> bool:
        """Each coefficient is the conjugate of its adjoint partner's (A_ij and
        B_ij, C_ij and C_ji) and the scalar is real, within 1e-10."""
        def partner(elem: BasisElement) -> BasisElement:
            if elem.kind is Kind.MIXED:
                return BasisElement(Kind.MIXED, elem.j, elem.i)
            flipped = Kind.PAIR_ANNIHILATE if elem.kind is Kind.PAIR_CREATE else Kind.PAIR_CREATE
            return BasisElement(flipped, elem.i, elem.j)
        return abs(complex(self.scalar).imag) <= 1e-10 and all(
            abs(complex(c) - complex(self.coeffs.get(partner(e), 0.0)).conjugate()) <= 1e-10
            for e, c in self.coeffs.items())


def indices(basis: FockBasis, occupations: np.ndarray) -> np.ndarray:
    """Basis indices of photon-number rows that lie in the basis (unchecked)."""
    return np.searchsorted(basis.keys, fock._keys(occupations, basis.cutoff))


def normalized(state: StateVector) -> StateVector:
    """The state divided by its norm."""
    return StateVector(state.basis, state.amps / state.norm())


def index_of(basis: FockBasis, occ: Sequence[int]) -> int:
    """Basis index of one (n1, n2, n3, n4); ``ValueError`` outside the basis."""
    key = tuple(int(n) for n in occ)
    if len(key) != 4 or min(key) < 0 or sum(key) > basis.cutoff:
        raise ValueError(f"occupation {key} outside basis with cutoff {basis.cutoff}")
    return int(indices(basis, np.array(key)))


def amplitude(state: StateVector, occ: Sequence[int]) -> complex:
    """The state's amplitude on one occupation tuple."""
    return complex(state.amps[index_of(state.basis, occ)])


def fock_state(basis: FockBasis, occ: Sequence[int]) -> StateVector:
    """The number state of one occupation tuple."""
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[index_of(basis, occ)] = 1.0
    return StateVector(basis, amps)


@lru_cache(maxsize=16)
def _dense_mode_ops(cutoff: int) -> tuple[np.ndarray, ...]:
    """Dense annihilation matrices for the four modes, built by direct
    occupation-tuple loops."""
    basis = FockBasis(cutoff)
    dim = basis.dim
    ops = []
    for mode in range(4):
        a = np.zeros((dim, dim), dtype=np.complex128)
        for col, occ in enumerate(basis.occupations.tolist()):
            if occ[mode] > 0:
                target = list(occ)
                target[mode] -= 1
                a[index_of(basis, target), col] = math.sqrt(occ[mode])
        ops.append(a)
    return tuple(ops)


def dense_operator(op, basis: FockBasis) -> np.ndarray:
    """Dense matrix of a QuadOp/FloatOp from products of mode operators."""
    a = _dense_mode_ops(basis.cutoff)
    ad = tuple(m.conj().T for m in a)
    dim = basis.dim
    total = np.zeros((dim, dim), dtype=np.complex128)
    for elem, coeff in op.coeffs.items():
        i, j = elem.i - 1, elem.j - 1
        if elem.kind is Kind.PAIR_CREATE:
            block = ad[i] @ ad[j]
        elif elem.kind is Kind.PAIR_ANNIHILATE:
            block = a[i] @ a[j]
        else:
            # normal-ordered form a^†_i a_j + delta_ij/2: unlike the
            # symmetrized product, it composes without visiting the
            # out-of-space shell, so it equals the exact truncation
            block = ad[i] @ a[j]
            if i == j:
                block = block + 0.5 * np.eye(dim)
        total += complex(coeff) * block
    total += complex(op.scalar) * np.eye(dim)
    return total


def column_loop_matrix(op, basis: FockBasis) -> scipy.sparse.csr_matrix:
    """CSR matrix of a QuadOp/FloatOp built one basis column at a time in
    Python: the reference for the vectorized build, whose arithmetic it
    shares (each entry is sqrt of an integer product times complex(coeff),
    triplets in coefficient order and then column order), so the two must
    agree bit for bit."""
    rows, cols, vals = [], [], []
    for elem, coeff in op.coeffs.items():
        i, j = elem.i - 1, elem.j - 1
        create_i, create_j = {Kind.PAIR_CREATE: (True, True), Kind.MIXED: (True, False),
                              Kind.PAIR_ANNIHILATE: (False, False)}[elem.kind]
        for col, occ in enumerate(basis.occupations.tolist()):
            if elem.kind is Kind.MIXED and i == j:
                rows.append(col)
                cols.append(col)
                vals.append(complex(coeff) * (occ[i] + 0.5))
                continue
            target, factor = list(occ), 1
            for mode, create in ((j, create_j), (i, create_i)):
                factor *= target[mode] + 1 if create else target[mode]
                target[mode] += 1 if create else -1
            if factor and sum(target) <= basis.cutoff:
                rows.append(index_of(basis, target))
                cols.append(col)
                vals.append(complex(coeff) * math.sqrt(factor))
    dim = basis.dim
    mat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim),
                                  dtype=np.complex128).tocsr()
    if complex(op.scalar) != 0.0:
        mat = mat + complex(op.scalar) * scipy.sparse.identity(dim, dtype=np.complex128,
                                                               format="csr")
    return mat


def dense_evolve(state: StateVector, generator, theta: float) -> StateVector:
    """e^{i theta G}|state> using the library's truncated matrix but scipy's
    dense exponential (independent of the library's eigendecompositions)."""
    mat = fock.matrix(generator, state.basis).mat.toarray()
    propagator = scipy.linalg.expm(1j * theta * mat)
    return StateVector(state.basis, propagator @ state.amps)


def component_dense_evolve(state: StateVector, generator, theta: float) -> StateVector:
    """:func:`dense_evolve` one connected component of the whole truncated
    matrix at a time, as labelled by scipy's csgraph: the matrix is
    block-diagonal over its components, so this is the same exponential
    with no dim x dim array, and every component off the state's support
    stays exactly 0."""
    mat = fock.matrix(generator, state.basis).mat
    _, labels = scipy.sparse.csgraph.connected_components(abs(mat), directed=False)
    amps = np.zeros_like(state.amps)
    for label in np.unique(labels[state.amps != 0]):
        kets = np.flatnonzero(labels == label)
        block = mat[kets][:, kets].toarray()
        amps[kets] = scipy.linalg.expm(1j * theta * block) @ state.amps[kets]
    return StateVector(state.basis, amps)


def reached_dense_evolve(state: StateVector, generator, theta: float) -> StateVector:
    """:func:`dense_evolve` for a :class:`~bellsim.fock.SparseOperator`, with
    scipy's exponential taken only on the kets the generator reaches from the
    state's support (``SparseOperator.restricted``), a set it maps into
    itself: the same state, with no dim x dim exponential at high cutoffs.
    The matrix on those kets is read here off the whole one, for either
    route."""
    kets = generator.restricted(state.amps != 0)[0]
    mat = generator.mat[kets][:, kets].toarray()
    amps = np.zeros_like(state.amps)
    amps[kets] = scipy.linalg.expm(1j * theta * mat) @ state.amps[kets]
    return StateVector(state.basis, amps)


def chain_leakage(k: float, gamma: float, cutoff: int) -> float:
    """Leakage of a pair source of Bargmann index ``k`` (1 for ``K``, 1/2 for
    ``K_OM``) run for ``gamma`` from the vacuum, in 60-digit mpmath.  From the
    vacuum the truncated source spans one unit vector per 2n-photon shell,
    n = 0..cutoff//2, with the Jacobi matrix T of off-diagonal
    beta_n = sqrt((n+1)(n+2k))/2; the state is c = e^{i gamma T} e_0, and the
    top two shells hold |c_{cutoff//2}|^2 (for an odd cutoff, on the lower one)."""
    with mpmath.workdps(60):
        size = cutoff // 2 + 1
        t = mpmath.zeros(size, size)
        for n in range(size - 1):
            t[n, n + 1] = t[n + 1, n] = mpmath.sqrt((n + 1) * (n + 2 * mpmath.mpf(k))) / 2
        c = mpmath.expm(1j * mpmath.mpf(gamma) * t)
        return float(abs(c[size - 1, 0]) ** 2)


def dense_conjugate(g, theta: float, x, basis: FockBasis) -> np.ndarray:
    """e^{i theta G} X e^{-i theta G} on the truncated space, dense."""
    gmat = fock.matrix(g, basis).mat.toarray()
    xmat = fock.matrix(x, basis).mat.toarray()
    u = scipy.linalg.expm(1j * theta * gmat)
    return u @ xmat @ u.conj().T


def dense_horne_state(spec) -> StateVector:
    """The Horne pipeline's final state by dense exponentials.

    K' pairs mode 1 with mode 4 and mode 2 with mode 3, so its orbit from the
    vacuum is the kets with n1 = n4 and n2 = n3; the pair source is the dense
    exponential of the truncated matrix on that invariant block (what
    :func:`dense_evolve` gives, without a dim x dim exponential).  J' is the
    exact phase e^{i phi (n1 - n2 - n3 + n4)/2} of each ket, and the 50/50
    splitter is one dense exponential per total-photon shell.
    """
    basis = FockBasis(spec.cutoff)
    n1, n2, n3, n4 = basis.occupations.T
    orbit = np.flatnonzero((n1 == n4) & (n2 == n3))
    source = fock.matrix(catalog("K_prime"), basis).mat[orbit][:, orbit].toarray()
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[orbit] = scipy.linalg.expm(1j * spec.gamma * source)[:, 0]
    amps *= np.exp(0.5j * spec.phi * (n1 - n2 - n3 + n4))
    for shell, propagator in _dense_splitter(spec.cutoff):
        amps[shell] = propagator @ amps[shell]
    return StateVector(basis, amps)


@lru_cache(maxsize=1)
def _dense_splitter(cutoff: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(indices, dense 50/50 splitter propagator) of each total-photon shell."""
    basis = FockBasis(cutoff)
    generator = fock.matrix(catalog("J_BS"), basis).mat
    blocks = []
    for total in range(cutoff + 1):
        shell = np.flatnonzero(basis.totals == total)
        block = generator[shell][:, shell].toarray()
        blocks.append((shell, scipy.linalg.expm(1j * experiments.BS_5050 * block)))
    return tuple(blocks)


def diagonal_expectation(state: StateVector, weight) -> float:
    """<f(n1..n4)> for a diagonal observable, as a direct occupation sum."""
    total = 0.0
    for k, occ in enumerate(state.basis.occupations.tolist()):
        p = abs(state.amps[k]) ** 2
        if p:
            total += p * weight(occ)
    return total


def correlation_oracle(state: StateVector) -> tuple[float, float]:
    """(numerator, denominator) of the intensity correlation, diagonal sum."""
    num = diagonal_expectation(state, lambda n: (n[0] - n[1]) * (n[2] - n[3]))
    den = diagonal_expectation(state, lambda n: (n[0] + n[1]) * (n[2] + n[3]))
    return num, den


def tmsv_ladder_amplitudes(gamma: float, n_max: int) -> np.ndarray:
    """Pair-ladder amplitudes of e^{i gamma K_x^(ij)}|0> via a dense
    exponential of the (n_max+1)-level ladder Hamiltonian.

    K_x^(ij) restricted to the |n,n> ladder is tridiagonal with
    <n+1|K|n> = (n+1)/2 and <n-1|K|n> = n/2.
    """
    h = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max):
        h[n + 1, n] = (n + 1) / 2.0
        h[n, n + 1] = (n + 1) / 2.0
    e0 = np.zeros(n_max + 1)
    e0[0] = 1.0
    return scipy.linalg.expm(1j * gamma * h) @ e0


#: the coincidence kets: one photon in each channel, n1+n2 = 1 and n3+n4 = 1
PI_KEPT = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))


def coincidence(basis) -> np.ndarray:
    """Basis indices of the PI_KEPT kets, in that order (none below cutoff 2)."""
    kept = np.array(PI_KEPT, dtype=np.int64)
    return indices(basis, kept[kept.sum(axis=1) <= basis.cutoff])


def leakage(state: StateVector) -> float:
    """Squared amplitude on the top two total-photon shells, over the whole
    basis (the library reads it on the state's kets, normalized)."""
    top = state.basis.totals >= max(state.basis.cutoff - 1, 0)
    return float(np.sum(np.abs(state.amps[top]) ** 2))


def project_pi(state: StateVector) -> tuple[StateVector, float]:
    """Zero all amplitudes outside the four coincidence kets.

    Returns the unnormalized projected state and its squared norm.
    """
    kept = coincidence(state.basis)
    amps = np.zeros_like(state.amps)
    amps[kept] = state.amps[kept]
    return StateVector(state.basis, amps), float(np.sum(np.abs(amps[kept]) ** 2))


def correlation(spec, theta_a: float, theta_b: float):
    """The spec's estimator at one analyzer setting, from its final state."""
    return experiments.readout(spec).report(spec.estimator, theta_a, theta_b)


def run_with_analyzers(spec, theta_a: float, theta_b: float) -> StateVector:
    """The pipeline's state after the analyzers: ``experiments.run`` (which
    stops at the source), then the stages (J_a, 2 theta_a) and (J_b, 2 theta_b)
    evolved with ``fock.evolve``."""
    state = experiments.run(spec)
    for name, theta in (("J_a", theta_a), ("J_b", theta_b)):
        generator = fock.matrix(catalog(name), state.basis)
        state = fock.evolve(state, generator, 2.0 * theta)
    return state


def correlation_by_run(spec, theta_a: float, theta_b: float):
    """C at one analyzer setting by brute force: the analyzer stages evolved
    on the pipeline's state (:func:`run_with_analyzers`), then the spec's
    estimator on the final state."""
    state = run_with_analyzers(spec, theta_a, theta_b)
    estimator = {"raw": experiments.correlation_raw,
                 "conditioned": experiments.correlation_conditioned}[spec.estimator]
    return estimator(state, spec.gamma, theta_a - theta_b)


def chsh_grid_by_runs(spec, n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """:func:`chsh_grid` by brute force: one full run per grid setting."""
    grid = np.arange(n) * math.pi / n
    c = np.array([[correlation_by_run(spec, float(ta), float(tb)).value for tb in grid]
                  for ta in grid])
    return grid, c


# ---------------------------------------------------------------------------
# CHSH maximizer search
# ---------------------------------------------------------------------------

def chsh_grid(spec, n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """All pairwise correlations on an n-point angle grid over [0, pi).

    Returns (grid angles, C matrix) where C[i, j] is the estimator value at
    analyzer angles (grid[i], grid[j]); every entry is contracted from one
    ``experiments.readout`` of the spec.
    """
    source = experiments.readout(spec)
    grid = np.arange(n) * math.pi / n
    c = np.empty((n, n))
    for i, ta in enumerate(grid):
        for j, tb in enumerate(grid):
            c[i, j] = source.report(spec.estimator, float(ta), float(tb)).value
    return grid, c


def chsh_grid_search(spec, n: int = 16) -> tuple[float, ChshAngles, np.ndarray]:
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


def refine_chsh_maximizer(spec, start: ChshAngles, initial_step: float = math.pi / 32,
                          min_step: float = 1e-8) -> tuple[float, ChshAngles]:
    """Deterministic coordinate pattern search around a grid maximizer."""
    source = experiments.readout(spec)

    def s_at(values: list[float]) -> float:
        return source.chsh(ChshAngles(*values)).s_value

    current = list(astuple(start))
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
# the 37-dimensional adjoint reference
# ---------------------------------------------------------------------------

#: position of each basis element in a 37-component coefficient vector
ELEMENT_INDEX: dict[BasisElement, int] = {e: k for k, e in enumerate(ALL_ELEMENTS)}
DIM_BASIS = len(ALL_ELEMENTS)  # 36
SCALAR_SLOT = DIM_BASIS  # index of the central scalar in 37-dim coefficient vectors
ADJOINT_DIM = DIM_BASIS + 1  # 37


def coefficient_vector(op) -> np.ndarray:
    """37-component complex vector of a QuadOp/FloatOp."""
    vec = np.zeros(ADJOINT_DIM, dtype=np.complex128)
    for elem, coeff in op.coeffs.items():
        vec[ELEMENT_INDEX[elem]] = complex(coeff)
    vec[SCALAR_SLOT] = complex(op.scalar)
    return vec


def operator_from_vector(vec: np.ndarray, tol: float = 0.0) -> FloatOp:
    coeffs = {}
    for k, elem in enumerate(ALL_ELEMENTS):
        value = complex(vec[k])
        if abs(value) > tol:
            coeffs[elem] = value
    scalar = complex(vec[SCALAR_SLOT])
    if abs(scalar) <= tol:
        scalar = 0.0
    return FloatOp(coeffs, scalar)


def ad_matrix(g: QuadOp) -> np.ndarray:
    """Matrix of X -> [g, X] on the 37-dimensional coefficient space, each
    bracket re-derived in complex floats.

    The scalar column is zero (scalars are central) and so is the scalar
    row: basis-pair brackets close on the 36 elements with no scalar
    residue.
    """
    mat = np.zeros((ADJOINT_DIM, ADJOINT_DIM), dtype=np.complex128)
    for col, elem in enumerate(ALL_ELEMENTS):
        total: dict[BasisElement, complex] = {}
        for ge, gc in g.coeffs.items():
            bracket = basis_commutator(ge, elem)
            for be, bc in bracket.coeffs.items():
                total[be] = total.get(be, 0.0) + complex(gc) * complex(bc)
        for be, value in total.items():
            mat[ELEMENT_INDEX[be], col] = value
    return mat


@lru_cache(maxsize=64)
def _propagator(terms: tuple, scalar: CRat, theta: float) -> np.ndarray:
    """scipy's Pade exponential of i theta ad_matrix(g), for g given by its
    ``terms()`` and scalar (a QuadOp is unhashable); read-only."""
    propagator = scipy.linalg.expm(1j * theta * ad_matrix(QuadOp(dict(terms), scalar)))
    propagator.flags.writeable = False
    return propagator


def expm_conjugate(g: QuadOp, theta: float, x, tol: float = 1e-12) -> FloatOp:
    """e^{i theta g} x e^{-i theta g} as scipy's Pade exponential of
    i theta ad_matrix(g) applied to the coefficient vector of x.  The
    exponential is built once per (g, theta)."""
    propagator = _propagator(tuple(g.terms()), g.scalar, theta)
    return operator_from_vector(propagator @ coefficient_vector(x), tol)


# ---------------------------------------------------------------------------
# exact-layer reference tools
# ---------------------------------------------------------------------------

def combination(*terms) -> FloatOp:
    """sum_k w_k op_k over (weight, QuadOp/FloatOp) terms, in complex floats."""
    coeffs: dict = {}
    scalar = 0.0
    for weight, op in terms:
        for elem, coeff in op.coeffs.items():
            coeffs[elem] = coeffs.get(elem, 0.0) + weight * complex(coeff)
        scalar += weight * complex(op.scalar)
    return FloatOp(coeffs, scalar)


def max_coeff_distance(x, y) -> float:
    """Largest coefficient difference of two QuadOp/FloatOp operators."""
    worst = abs(complex(x.scalar) - complex(y.scalar))
    for elem in set(x.coeffs) | set(y.coeffs):
        worst = max(worst, abs(complex(x.coeffs.get(elem, 0)) - complex(y.coeffs.get(elem, 0))))
    return worst


def sigma_rotation_error(delta: float) -> float:
    """Max coefficient error of U_-^dagger sigma_z U_- against the rotation form.

    U_-(d) = e^{i d J} must satisfy
        U_-^dagger (sigma_z)_a U_- = cos(d) (sigma_z)_a - sin(d) (sigma_y)_a
        U_-^dagger (sigma_z)_b U_- = cos(d) (sigma_z)_b + sin(d) (sigma_y)_b
    which pins down the sigma_y sign convention.
    """
    worst = 0.0
    for channel, sign in (("a", -1.0), ("b", +1.0)):
        sigma_z, sigma_y = catalog(f"sigma_z_{channel}"), catalog(f"sigma_y_{channel}")
        expected = combination((math.cos(delta), sigma_z), (sign * math.sin(delta), sigma_y))
        moved = expm_conjugate(catalog("J"), -delta, sigma_z)
        worst = max(worst, max_coeff_distance(moved, expected))
    return worst


def coefficient_row(op: QuadOp) -> list[CRat]:
    """The 37 exact coefficients of an operator, scalar last."""
    row = [ZERO] * (DIM_BASIS + 1)
    for elem, coeff in op.coeffs.items():
        row[ELEMENT_INDEX[elem]] = coeff
    row[SCALAR_SLOT] = op.scalar
    return row


def solve_in_span(target: QuadOp, ops: Sequence[QuadOp]) -> tuple[list[CRat] | None, QuadOp]:
    """Write ``target`` as an exact rational combination of ``ops``.

    Returns (coefficients, residual).  When the target lies in the span the
    residual is the zero operator; otherwise coefficients is None and the
    residual is ``target - projection`` for the best consistent prefix
    (callers only rely on residual.is_zero()).
    """
    cols = [coefficient_row(op) for op in ops]
    rhs = coefficient_row(target)
    n = len(ops)
    rows = DIM_BASIS + 1
    # Gaussian elimination on the transposed system: find x with sum x_k cols[k] = rhs
    matrix = [[cols[k][r] for k in range(n)] + [rhs[r]] for r in range(rows)]
    pivots: list[tuple[int, int]] = []
    rank_row = 0
    for col in range(n):
        pivot = None
        for r in range(rank_row, rows):
            if not matrix[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank_row], matrix[pivot] = matrix[pivot], matrix[rank_row]
        inv = ONE / matrix[rank_row][col]
        matrix[rank_row] = [v * inv for v in matrix[rank_row]]
        for r in range(rows):
            if r != rank_row and not matrix[r][col].is_zero():
                factor = matrix[r][col]
                matrix[r] = [v - factor * p for v, p in zip(matrix[r], matrix[rank_row])]
        pivots.append((rank_row, col))
        rank_row += 1
    # inconsistent if a zero row has nonzero rhs
    for r in range(rank_row, rows):
        if not matrix[r][n].is_zero():
            coeffs_partial = [ZERO] * n
            for row_idx, col_idx in pivots:
                coeffs_partial[col_idx] = matrix[row_idx][n]
            combo = QuadOp.zero()
            for c, op in zip(coeffs_partial, ops):
                combo = combo + op * c
            return None, target - combo
    coeffs = [ZERO] * n
    for row_idx, col_idx in pivots:
        coeffs[col_idx] = matrix[row_idx][n]
    return coeffs, QuadOp.zero()


@dataclass
class SpanClosureReport:
    """Result of checking that ad_g maps span(ops) into itself."""

    closed: bool
    coefficients: list[list[CRat] | None]
    residuals: list[QuadOp]


def span_closure_under_ad(g: QuadOp, ops: Sequence[QuadOp]) -> SpanClosureReport:
    """Decide exactly whether [g, op_k] lies in span(ops) for every k."""
    coeff_rows: list[list[CRat] | None] = []
    residuals: list[QuadOp] = []
    closed = True
    for op in ops:
        coeffs, residual = solve_in_span(commutator(g, op), ops)
        coeff_rows.append(coeffs)
        residuals.append(residual)
        if coeffs is None:
            closed = False
    return SpanClosureReport(closed, coeff_rows, residuals)


def random_rational_combination(rng: random.Random, max_terms: int = 4) -> QuadOp:
    """Small random rational combination of basis elements."""
    n = rng.randint(1, max_terms)
    terms = []
    for _ in range(n):
        elem = ALL_ELEMENTS[rng.randrange(DIM_BASIS)]
        num = rng.randint(-3, 3)
        den = rng.choice([1, 2, 4])
        im_num = rng.randint(-2, 2)
        terms.append((elem, CRat.of(Fraction(num, den), Fraction(im_num, den))))
    return QuadOp.make(terms)
