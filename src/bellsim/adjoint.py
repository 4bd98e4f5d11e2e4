"""Adjoint action on the coefficient space, and operator conjugation.

A quadratic operator is a 37-component coefficient vector (36 basis
elements plus the central scalar).  For a generator g the linear map
X -> [g, X] is a 37x37 matrix with exact entries; exponentiating it gives
the conjugation

    conjugate(g, theta, x) = e^{i theta g} x e^{-i theta g}
                           = exp(i theta ad_g)(x),

i.e. U^† x U for U = e^{-i theta g}.  A squeezing transformation written
as Y(gamma) = e^{i gamma K} therefore satisfies
Y^{-1}(gamma) x Y(gamma) = conjugate(K, -gamma, x).

Floating point enters here for the first time: the adjoint matrix entries
are exact rationals converted to complex128, and the 37x37 exponential is
evaluated with scipy's scaling-and-squaring Pade implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .algebra import (
    ALL_ELEMENTS,
    DIM_BASIS,
    ELEMENT_INDEX,
    SCALAR_SLOT,
    BasisElement,
    QuadOp,
    basis_commutator,
)

ADJOINT_DIM = DIM_BASIS + 1  # 37


@dataclass(frozen=True)
class FloatOp:
    """A quadratic operator with complex floating-point coefficients.

    Produced by :func:`conjugate`; structurally parallel to
    :class:`~bellsim.algebra.QuadOp` so :func:`bellsim.fock.matrix` accepts either.
    """

    coeffs: dict[BasisElement, complex] = field(default_factory=dict)
    scalar: complex = 0.0


def coefficient_vector(op: QuadOp | FloatOp) -> np.ndarray:
    """37-component complex vector of an operator."""
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
    """Matrix of X -> [g, X] on the 37-dimensional coefficient space.

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


def conjugate(g: QuadOp, theta: float, x: QuadOp | FloatOp, tol: float = 1e-12) -> FloatOp:
    """e^{i theta g} x e^{-i theta g} via the exponentiated adjoint matrix.

    Coefficients smaller than ``tol`` are reported as exact zeros.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    propagator = expm(1j * theta * ad_matrix(g))
    return operator_from_vector(propagator @ coefficient_vector(x), tol)
