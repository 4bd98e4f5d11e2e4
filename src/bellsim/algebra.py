"""Exact quadratic boson operators over four modes.

The ambient algebra is spanned by the 36 quadratic operators

    A_ij = c_i^† c_j^†          (pair creation,     A_ij = A_ji, 10 elements)
    C_ij = (c_i^† c_j + c_j c_i^†)/2   (mixed, 16 elements; C_ii = n_i + 1/2)
    B_ij = c_i c_j              (pair annihilation, B_ij = B_ji, 10 elements)

together with a central scalar.  Commutators close on this basis with
rational structure constants, so every bracket, hermiticity question and
subalgebra-closure question here is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .rational import CRat, ZERO, ONE, I

N_MODES = 4
MODES = (1, 2, 3, 4)


class Kind(Enum):
    """The three families of quadratic monomials."""

    PAIR_CREATE = "A"
    MIXED = "C"
    PAIR_ANNIHILATE = "B"


_KIND_ORDER = {Kind.PAIR_CREATE: 0, Kind.MIXED: 1, Kind.PAIR_ANNIHILATE: 2}


@dataclass(frozen=True)
class BasisElement:
    """One of the 36 basis operators, stored in canonical index order.

    A and B are symmetric in their indices and are stored with i <= j;
    C is stored for all 16 ordered pairs because C_ij^† = C_ji and the
    structure constants distinguish them.
    """

    kind: Kind
    i: int
    j: int

    def __post_init__(self):
        if self.i not in MODES or self.j not in MODES:
            raise ValueError(f"mode indices must lie in 1..4, got ({self.i},{self.j})")
        if self.kind is not Kind.MIXED and self.i > self.j:
            lo, hi = self.j, self.i
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", hi)

    @property
    def label(self) -> str:
        return f"{self.kind.value}_{self.i}{self.j}"

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.i, self.j)

    def __repr__(self) -> str:
        return self.label


def A(i: int, j: int) -> BasisElement:
    return BasisElement(Kind.PAIR_CREATE, i, j)


def C(i: int, j: int) -> BasisElement:
    return BasisElement(Kind.MIXED, i, j)


def B(i: int, j: int) -> BasisElement:
    return BasisElement(Kind.PAIR_ANNIHILATE, i, j)


ALL_ELEMENTS: tuple[BasisElement, ...] = tuple(
    [A(i, j) for i in MODES for j in MODES if i <= j]
    + [C(i, j) for i in MODES for j in MODES]
    + [B(i, j) for i in MODES for j in MODES if i <= j]
)


@dataclass(frozen=True)
class QuadOp:
    """A quadratic operator: rational combination of basis elements plus a scalar.

    Zero coefficients are never stored, so equality of the coefficient
    maps is equality of operators.
    """

    coeffs: Mapping[BasisElement, CRat] = field(default_factory=dict)
    scalar: CRat = ZERO

    @staticmethod
    def make(terms: Mapping[BasisElement, CRat] | Iterable[tuple[BasisElement, CRat]],
             scalar: CRat = ZERO) -> "QuadOp":
        items = terms.items() if isinstance(terms, Mapping) else terms
        pruned = {}
        for elem, coeff in items:
            coeff = CRat.coerce(coeff)
            if not coeff.is_zero():
                pruned[elem] = pruned.get(elem, ZERO) + coeff
        pruned = {e: c for e, c in pruned.items() if not c.is_zero()}
        return QuadOp(pruned, CRat.coerce(scalar))

    @staticmethod
    def zero() -> "QuadOp":
        return QuadOp({}, ZERO)

    @staticmethod
    def of(elem: BasisElement, coeff=ONE) -> "QuadOp":
        return QuadOp.make({elem: CRat.coerce(coeff)})

    def is_zero(self) -> bool:
        return not self.coeffs and self.scalar.is_zero()

    def terms(self) -> list[tuple[BasisElement, CRat]]:
        """Coefficients in the deterministic basis order."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __add__(self, other: "QuadOp") -> "QuadOp":
        merged = dict(self.coeffs)
        for elem, coeff in other.coeffs.items():
            merged[elem] = merged.get(elem, ZERO) + coeff
        return QuadOp.make(merged, self.scalar + other.scalar)

    def __sub__(self, other: "QuadOp") -> "QuadOp":
        return self + (-other)

    def __neg__(self) -> "QuadOp":
        return QuadOp({e: -c for e, c in self.coeffs.items()}, -self.scalar)

    def __mul__(self, factor) -> "QuadOp":
        factor = CRat.coerce(factor)
        if factor.is_zero():
            return QuadOp.zero()
        return QuadOp({e: c * factor for e, c in self.coeffs.items()}, self.scalar * factor)

    __rmul__ = __mul__

    def dagger(self) -> "QuadOp":
        """Hermitian conjugate: A and B swap with conjugated coefficients,
        the C block transposes, and the scalar conjugates."""
        out: dict[BasisElement, CRat] = {}
        for elem, coeff in self.coeffs.items():
            if elem.kind is Kind.PAIR_CREATE:
                target = B(elem.i, elem.j)
            elif elem.kind is Kind.PAIR_ANNIHILATE:
                target = A(elem.i, elem.j)
            else:
                target = C(elem.j, elem.i)
            out[target] = out.get(target, ZERO) + coeff.conjugate()
        return QuadOp.make(out, self.scalar.conjugate())

    def is_hermitian(self) -> bool:
        return self == self.dagger()

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadOp):
            return NotImplemented
        return self.scalar == other.scalar and dict(self.coeffs) == dict(other.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "QuadOp(0)"
        parts = [f"({coeff})*{elem.label}" for elem, coeff in self.terms()]
        if not self.scalar.is_zero():
            parts.append(f"({self.scalar})")
        return "QuadOp(" + " + ".join(parts) + ")"


def _delta(a: int, b: int) -> int:
    return 1 if a == b else 0


@lru_cache(maxsize=None)
def basis_commutator(x: BasisElement, y: BasisElement) -> QuadOp:
    """[x, y] for basis elements, from the rational structure-constant table.

    The five relation families (i,j,k,l mode indices):

        [A_ij, A_kl] = 0 = [B_ij, B_kl]
        [C_ij, C_kl] = d_jk C_il - d_il C_kj
        [C_ij, A_kl] = d_jk A_il + d_jl A_ik
        [C_ij, B_kl] = -d_il B_jk - d_ik B_jl
        [A_ij, B_kl] = -d_ki C_jl - d_kj C_il - d_il C_jk - d_jl C_ik

    Both A_ij = A_ji and B_ij = B_ji make every formula symmetric in the
    stored index order, so canonical storage is safe.
    """
    i, j, k, l = x.i, x.j, y.i, y.j
    kx, ky = x.kind, y.kind
    if kx is ky and kx is not Kind.MIXED:
        return QuadOp.zero()
    if kx is Kind.MIXED and ky is Kind.MIXED:
        return QuadOp.make([
            (C(i, l), CRat.of(_delta(j, k))),
            (C(k, j), CRat.of(-_delta(i, l))),
        ])
    if kx is Kind.MIXED and ky is Kind.PAIR_CREATE:
        return QuadOp.make([
            (A(i, l), CRat.of(_delta(j, k))),
            (A(i, k), CRat.of(_delta(j, l))),
        ])
    if kx is Kind.MIXED and ky is Kind.PAIR_ANNIHILATE:
        return QuadOp.make([
            (B(j, k), CRat.of(-_delta(i, l))),
            (B(j, l), CRat.of(-_delta(i, k))),
        ])
    if kx is Kind.PAIR_CREATE and ky is Kind.PAIR_ANNIHILATE:
        return QuadOp.make([
            (C(j, l), CRat.of(-_delta(k, i))),
            (C(i, l), CRat.of(-_delta(k, j))),
            (C(j, k), CRat.of(-_delta(i, l))),
            (C(i, k), CRat.of(-_delta(j, l))),
        ])
    # remaining orders by antisymmetry
    return -basis_commutator(y, x)


def commutator(x: QuadOp, y: QuadOp) -> QuadOp:
    """Exact [x, y] by bilinear expansion; scalar parts are central."""
    total = QuadOp.zero()
    for ex, cx in x.coeffs.items():
        for ey, cy in y.coeffs.items():
            bracket = basis_commutator(ex, ey)
            if not bracket.is_zero():
                total = total + bracket * (cx * cy)
    return total


# --------------------------------------------------------------------------
# verification reports
# --------------------------------------------------------------------------

@dataclass
class StructureReport:
    pairs_checked: int
    mismatches: list[tuple[BasisElement, BasisElement, QuadOp, QuadOp]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_structure_constants() -> StructureReport:
    """Check every ordered basis-pair bracket against an independent
    normal-ordering computation (see :mod:`bellsim.wick`)."""
    from . import wick  # local import: wick depends on the types above

    mismatches = []
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            table = basis_commutator(x, y)
            reference = wick.commutator_reference(x, y)
            if table != reference:
                mismatches.append((x, y, table, reference))
    return StructureReport(len(ALL_ELEMENTS) ** 2, mismatches)


#: closure table entry: (row, col) -> list of (basis position, coefficient)
ClosureTable = Mapping[tuple[int, int], Sequence[tuple[int, CRat]]]

#: su(2) table over the ordered triple (x, y, z): [x,y]=iz, [y,z]=ix, [z,x]=iy
SU2_TABLE: ClosureTable = {
    (0, 1): [(2, I)],
    (1, 2): [(0, I)],
    (0, 2): [(1, -I)],
}

#: su(1,1) table over (x, y, z): [x,y]=-iz, [y,z]=ix, [z,x]=iy
SU11_TABLE: ClosureTable = {
    (0, 1): [(2, -I)],
    (1, 2): [(0, I)],
    (0, 2): [(1, -I)],
}

#: table over (J, K, L): [J,K]=iL, [L,J]=iK, [K,L]=-iJ
JKL_TABLE: ClosureTable = {
    (0, 1): [(2, I)],
    (1, 2): [(0, -I)],
    (0, 2): [(1, -I)],
}


@dataclass
class ClosureReport:
    mismatches: list[tuple[int, int, QuadOp]]  # (row, col, residual or difference)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_closure(ops: Sequence[QuadOp], table: ClosureTable) -> ClosureReport:
    """Check that all pairwise commutators match an expected table exactly.

    Pairs absent from the table are derived by antisymmetry; diagonal pairs
    must vanish.  A mismatch records the exact difference operator.
    """
    if not ops:
        raise ValueError("closure check requires a non-empty operator set")
    mismatches = []
    n = len(ops)
    for r in range(n):
        for c in range(n):
            actual = commutator(ops[r], ops[c])
            expected = QuadOp.zero()
            entries = table.get((r, c))
            if entries is None and (c, r) in table:
                entries = [(pos, -coeff) for pos, coeff in table[(c, r)]]
            for pos, coeff in entries or []:
                expected = expected + ops[pos] * coeff
            diff = actual - expected
            if not diff.is_zero():
                mismatches.append((r, c, diff))
    return ClosureReport(mismatches)
