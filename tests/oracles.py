"""Independent numerical oracles used by the test suite.

Nothing here reuses the library's matrix-element rules or Taylor
evolution: operators are assembled from explicitly constructed dense
creation/annihilation matrices, exponentials go through scipy's Pade
implementation, and diagonal expectations are direct occupation sums.
Agreement between these oracles and the library is what the oracle tests
certify.  The one exception is :func:`column_loop_matrix`, which shares the
library's matrix-element arithmetic on purpose, to pin the vectorized
matrix build bit for bit.  :func:`correlation_by_run` and
:func:`chsh_grid_by_runs` use the library's pipeline and estimators, but
evolve every analyzer setting through its rotation stages, which the
library's analyzer-setting route never does.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse

from bellsim import experiments
from bellsim.algebra import Kind, QuadOp
from bellsim.fock import FockBasis, StateVector


@lru_cache(maxsize=16)
def _dense_mode_ops(cutoff: int) -> tuple[np.ndarray, ...]:
    """Dense annihilation matrices for the four modes, built by direct
    occupation-tuple loops."""
    basis = FockBasis(cutoff)
    dim = basis.dim
    ops = []
    for mode in range(4):
        a = np.zeros((dim, dim), dtype=np.complex128)
        for col, occ in enumerate(basis.states):
            if occ[mode] > 0:
                target = list(occ)
                target[mode] -= 1
                a[basis.index_of(target), col] = math.sqrt(occ[mode])
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
        for col, occ in enumerate(basis.states):
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
                rows.append(basis.index_of(target))
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
    dense exponential (independent of the Taylor path)."""
    from bellsim import fock

    mat = fock.matrix(generator, state.basis).mat.toarray()
    propagator = scipy.linalg.expm(1j * theta * mat)
    return StateVector(state.basis, propagator @ state.amps)


def dense_conjugate(g, theta: float, x, basis: FockBasis) -> np.ndarray:
    """e^{i theta G} X e^{-i theta G} on the truncated space, dense."""
    from bellsim import fock

    gmat = fock.matrix(g, basis).mat.toarray()
    xmat = fock.matrix(x, basis).mat.toarray()
    u = scipy.linalg.expm(1j * theta * gmat)
    return u @ xmat @ u.conj().T


def diagonal_expectation(state: StateVector, weight) -> float:
    """<f(n1..n4)> for a diagonal observable, as a direct occupation sum."""
    total = 0.0
    for k, occ in enumerate(state.basis.states):
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


def correlation_by_run(spec, theta_a: float, theta_b: float):
    """C at one analyzer setting by brute force: a full pipeline run with both
    analyzer stages, then the spec's estimator on the final state."""
    state = experiments.run(replace(spec, theta_a=theta_a, theta_b=theta_b))
    estimator = {"raw": experiments.correlation_raw,
                 "conditioned": experiments.correlation_conditioned}[spec.estimator]
    return estimator(state, spec.gamma, theta_a - theta_b)


def chsh_grid_by_runs(spec, n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """``experiments.chsh_grid`` by brute force: one full run per grid setting."""
    grid = np.arange(n) * math.pi / n
    c = np.array([[correlation_by_run(spec, float(ta), float(tb)).value for tb in grid]
                  for ta in grid])
    return grid, c
