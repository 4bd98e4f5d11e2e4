"""Operator conjugation by the adjoint action, from exact nested commutators.

For a generator g the conjugation

    conjugate(g, theta, x) = e^{i theta g} x e^{-i theta g}
                           = exp(i theta ad_g)(x),   ad_g(x) = [g, x],

is U^† x U for U = e^{-i theta g}.  A squeezing transformation written
as Y(gamma) = e^{i gamma K} therefore satisfies
Y^{-1}(gamma) x Y(gamma) = conjugate(K, -gamma, x).

Every hermitian catalog generator has a diagonalizable ad_g whose
eigenvalues lie in :data:`AD_SPECTRUM`, so exp(i theta ad_g) equals the
polynomial in ad_g that interpolates f(t) = e^{i theta t} on those nodes.
In Newton form (Higham, *Functions of Matrices*, SIAM 2008, ch. 1) it is

    f(ad_g) x = sum_k f[l_0, ..., l_k] q_k,
    q_0 = x,   q_{k+1} = [g, q_k] - l_k q_k,

where the q_k are exact operators built by :func:`~bellsim.algebra.commutator`
and only the divided differences f[...] are floating point.  Once some q_k
vanishes the remaining terms do too; a q left over after the last node
means ad_g has an eigenvalue outside the table or is not diagonalizable,
and is reported rather than approximated.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from .algebra import BasisElement, QuadOp, commutator
from .rational import HALF, I, ONE, ZERO, CRat

#: the union of the ad_g spectra of the hermitian catalog generators, as
#: Newton nodes: 0 first, which drops a central scalar from q at once, then
#: the common ones, so that a {0, +-1} spectrum such as J_BS's stops at 3 terms
AD_SPECTRUM: tuple[CRat, ...] = (ZERO, ONE, -ONE, HALF, -HALF, I, -I, I * HALF, -I * HALF,
                                 CRat.of(2), CRat.of(-2))


@dataclass(frozen=True)
class FloatOp:
    """A quadratic operator with complex floating-point coefficients.

    Produced by :func:`conjugate`; structurally parallel to
    :class:`~bellsim.algebra.QuadOp` so :func:`bellsim.fock.matrix` accepts either.
    """

    coeffs: dict[BasisElement, complex] = field(default_factory=dict)
    scalar: complex = 0.0


def _divided_differences(theta: float) -> list[complex]:
    """f[l_0], f[l_0, l_1], ... of f(t) = e^{i theta t} on :data:`AD_SPECTRUM`."""
    nodes = [complex(node) for node in AD_SPECTRUM]
    table = [cmath.exp(1j * theta * node) for node in nodes]
    for order in range(1, len(nodes)):
        for k in range(len(nodes) - 1, order - 1, -1):
            table[k] = (table[k] - table[k - 1]) / (nodes[k] - nodes[k - order])
    return table


def conjugate(g: QuadOp, theta: float, x: QuadOp, tol: float = 1e-12) -> FloatOp:
    """e^{i theta g} x e^{-i theta g} as the Newton sum over nested commutators.

    Coefficients smaller than ``tol`` are reported as exact zeros.  Raises
    ``ValueError`` when ad_g restricted to the orbit of ``x`` is not
    diagonalizable with eigenvalues in :data:`AD_SPECTRUM`.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    coeffs: dict[BasisElement, complex] = {}
    scalar = 0j
    q = x
    for weight, node in zip(_divided_differences(theta), AD_SPECTRUM):
        for elem, coeff in q.coeffs.items():
            coeffs[elem] = coeffs.get(elem, 0j) + weight * complex(coeff)
        scalar += weight * complex(q.scalar)
        q = commutator(g, q) - q * node
        if q.is_zero():
            break
    else:
        raise ValueError("ad_g has an eigenvalue outside AD_SPECTRUM or is not "
                         "diagonalizable on the orbit of x")
    kept = {e: c for e, c in sorted(coeffs.items(), key=lambda kv: kv[0].sort_key())
            if abs(c) > tol}
    return FloatOp(kept, scalar if abs(scalar) > tol else 0.0)
