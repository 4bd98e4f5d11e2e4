"""Independent commutator route via boson normal ordering.

:func:`bellsim.algebra.basis_commutator` encodes the standard
structure-constant table.  This module recomputes each basis-pair
bracket from nothing but [c_i, c_j^†] = delta_ij, by multiplying the
quadratic monomials and normal ordering the result.  The two routes are
compared pair-by-pair in ``verify_structure_constants``; any transcription
error in the table would surface as a mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .rational import CRat, ZERO, HALF
from .algebra import BasisElement, Kind, QuadOp, A, B, C, N_MODES

# A normal-ordered polynomial maps (dagger powers, plain powers) -> CRat,
# where each power entry is a tuple of four per-mode exponents.
Monomial = tuple[tuple[int, int, int, int], tuple[int, int, int, int]]
Poly = dict[Monomial, CRat]


def _mono(dag: tuple[int, ...], und: tuple[int, ...]) -> Monomial:
    return (tuple(dag), tuple(und))  # type: ignore[return-value]


def _unit(mode: int) -> tuple[int, int, int, int]:
    powers = [0, 0, 0, 0]
    powers[mode - 1] = 1
    return tuple(powers)  # type: ignore[return-value]


_ZEROS = (0, 0, 0, 0)


def _add_term(poly: Poly, key: Monomial, coeff: CRat) -> None:
    acc = poly.get(key, ZERO) + coeff
    if acc.is_zero():
        poly.pop(key, None)
    else:
        poly[key] = acc


def basis_poly(elem: BasisElement) -> Poly:
    """The normal-ordered polynomial of one basis operator."""
    i, j = elem.i, elem.j
    if elem.kind is Kind.PAIR_CREATE:
        dag = tuple(a + b for a, b in zip(_unit(i), _unit(j)))
        return {_mono(dag, _ZEROS): CRat.of(1)}
    if elem.kind is Kind.PAIR_ANNIHILATE:
        und = tuple(a + b for a, b in zip(_unit(i), _unit(j)))
        return {_mono(_ZEROS, und): CRat.of(1)}
    # C_ij = (c_i^† c_j + c_j c_i^†)/2 = c_i^† c_j + delta_ij/2
    poly: Poly = {_mono(_unit(i), _unit(j)): CRat.of(1)}
    if i == j:
        _add_term(poly, _mono(_ZEROS, _ZEROS), HALF)
    return poly


def _reorder_single_mode(b: int, g: int) -> list[tuple[int, int, int]]:
    """Rewrite c^b c^†g in normal order for one mode.

    c^b c^†g = sum_k k! C(b,k) C(g,k) c^†(g-k) c^(b-k); returns
    (dagger power, plain power, integer weight) triples.
    """
    return [
        (g - k, b - k, factorial(k) * comb(b, k) * comb(g, k))
        for k in range(min(b, g) + 1)
    ]


def multiply(p1: Poly, p2: Poly) -> Poly:
    """Normal-ordered product of two normal-ordered polynomials."""
    out: Poly = {}
    for (d1, u1), c1 in p1.items():
        for (d2, u2), c2 in p2.items():
            base = c1 * c2
            # reorder u1 (annihilators) past d2 (creators), mode by mode
            options_per_mode = [
                _reorder_single_mode(u1[m], d2[m]) for m in range(N_MODES)
            ]
            # expand the per-mode sums
            combos = [((), (), 1)]
            for options in options_per_mode:
                combos = [
                    (dprev + (dd,), uprev + (uu,), wprev * w)
                    for dprev, uprev, wprev in combos
                    for dd, uu, w in options
                ]
            for dmid, umid, weight in combos:
                dag = tuple(a + b for a, b in zip(d1, dmid))
                und = tuple(a + b for a, b in zip(umid, u2))
                _add_term(out, _mono(dag, und), base * weight)
    return out


def poly_commutator(p1: Poly, p2: Poly) -> Poly:
    prod12 = multiply(p1, p2)
    prod21 = multiply(p2, p1)
    out = dict(prod12)
    for key, coeff in prod21.items():
        _add_term(out, key, -coeff)
    return out


def poly_to_quadop(poly: Poly) -> QuadOp:
    """Express a degree <= 2 normal-ordered polynomial in the basis.

    c_i^† c_j with i == j contributes C_ii - 1/2 (the half moves to the
    scalar slot); anything of degree > 2 is rejected.
    """
    terms: list[tuple[BasisElement, CRat]] = []
    scalar = ZERO
    for (dag, und), coeff in poly.items():
        deg_d, deg_u = sum(dag), sum(und)
        if deg_d + deg_u == 0:
            scalar = scalar + coeff
            continue
        if deg_d + deg_u != 2:
            raise ValueError(f"polynomial is not quadratic: degree {deg_d + deg_u}")
        if deg_d == 2:
            modes = [m + 1 for m in range(N_MODES) for _ in range(dag[m])]
            terms.append((A(modes[0], modes[1]), coeff))
        elif deg_u == 2:
            modes = [m + 1 for m in range(N_MODES) for _ in range(und[m])]
            terms.append((B(modes[0], modes[1]), coeff))
        else:
            i = next(m + 1 for m in range(N_MODES) if dag[m])
            j = next(m + 1 for m in range(N_MODES) if und[m])
            terms.append((C(i, j), coeff))
            if i == j:
                scalar = scalar - coeff * Fraction(1, 2)
    return QuadOp.make(terms, scalar)


@lru_cache(maxsize=None)
def commutator_reference(x: BasisElement, y: BasisElement) -> QuadOp:
    """[x, y] computed from the boson commutation rules alone."""
    return poly_to_quadop(poly_commutator(basis_poly(x), basis_poly(y)))

