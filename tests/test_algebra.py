"""Exact operator algebra: basis, commutators, structure constants."""

import random
import time

import numpy as np
import pytest

from bellsim.algebra import (
    ALL_ELEMENTS,
    A,
    B,
    C,
    JKL_TABLE,
    Kind,
    QuadOp,
    SU2_TABLE,
    SU11_TABLE,
    basis_commutator,
    commutator,
    verify_closure,
    verify_structure_constants,
)
from bellsim.rational import CRat, HALF, I, ONE

from oracles import (DIM_BASIS, dense_operator, random_rational_combination, solve_in_span,
                     span_closure_under_ad)
from bellsim.fock import FockBasis


# ---------------------------------------------------------------------------
# basis elements
# ---------------------------------------------------------------------------

def test_basis_counts():
    kinds = [e.kind for e in ALL_ELEMENTS]
    assert DIM_BASIS == 36
    assert kinds.count(Kind.PAIR_CREATE) == 10
    assert kinds.count(Kind.MIXED) == 16
    assert kinds.count(Kind.PAIR_ANNIHILATE) == 10


def test_symmetric_storage():
    assert A(3, 1) == A(1, 3)
    assert B(4, 2) == B(2, 4)
    assert C(2, 1) != C(1, 2)
    assert A(2, 1).label == "A_12"


def test_mode_index_validation():
    with pytest.raises(ValueError):
        A(0, 1)
    with pytest.raises(ValueError):
        C(1, 5)


# ---------------------------------------------------------------------------
# commutator examples
# ---------------------------------------------------------------------------

def test_commuting_pair_creators():
    assert commutator(QuadOp.of(A(1, 1)), QuadOp.of(A(2, 3))).is_zero()


def test_self_commutator_vanishes():
    rng = random.Random(11)
    for _ in range(25):
        x = random_rational_combination(rng)
        assert commutator(x, x).is_zero()


def test_disjoint_indices_commute():
    assert commutator(QuadOp.of(A(1, 2)), QuadOp.of(B(3, 4))).is_zero()


def test_mixed_block_example():
    expected = QuadOp.make({C(1, 1): ONE, C(2, 2): -ONE})
    assert commutator(QuadOp.of(C(1, 2)), QuadOp.of(C(2, 1))) == expected


def test_pair_contraction_example():
    assert commutator(QuadOp.of(A(1, 1)), QuadOp.of(B(1, 1))) == QuadOp.of(C(1, 1), CRat.of(-4))


def test_scalars_are_central():
    rng = random.Random(13)
    x = random_rational_combination(rng)
    shifted = x + QuadOp({}, CRat.of(7, 3))
    y = random_rational_combination(rng)
    assert commutator(shifted, y) == commutator(x, y)


# ---------------------------------------------------------------------------
# dagger
# ---------------------------------------------------------------------------

def test_dagger_swaps_pair_blocks():
    assert QuadOp.of(A(1, 3)).dagger() == QuadOp.of(B(1, 3))
    assert (QuadOp.of(A(1, 2)) * I).dagger() == QuadOp.of(B(1, 2), -I)


def test_dagger_transposes_mixed_block():
    assert QuadOp.of(C(1, 2)).dagger() == QuadOp.of(C(2, 1))


def test_dagger_involution():
    rng = random.Random(17)
    for _ in range(50):
        x = random_rational_combination(rng) + QuadOp({}, CRat.of(rng.randint(-2, 2), 1))
        assert x.dagger().dagger() == x


def test_hermitian_is_decidable():
    h = QuadOp.make({A(1, 4): HALF, B(1, 4): HALF})
    assert h.is_hermitian()
    assert not (h * I).is_hermitian()


# ---------------------------------------------------------------------------
# bilinearity, antisymmetry, Jacobi
# ---------------------------------------------------------------------------

def test_antisymmetry_and_linearity():
    rng = random.Random(23)
    for _ in range(40):
        x = random_rational_combination(rng)
        y = random_rational_combination(rng)
        z = random_rational_combination(rng)
        a = CRat.of(rng.randint(-3, 3), rng.randint(-2, 2))
        assert commutator(x, y) == -commutator(y, x)
        assert commutator(x * a + y, z) == commutator(x, z) * a + commutator(y, z)


def test_jacobi_identity_on_random_triples():
    rng = random.Random(29)
    for _ in range(100):
        x, y, z = (QuadOp.of(ALL_ELEMENTS[rng.randrange(DIM_BASIS)]) for _ in range(3))
        total = (commutator(x, commutator(y, z))
                 + commutator(y, commutator(z, x))
                 + commutator(z, commutator(x, y)))
        assert total.is_zero()


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def test_structure_constants_match_normal_ordering():
    start = time.perf_counter()
    report = verify_structure_constants()
    elapsed = time.perf_counter() - start
    assert report.pairs_checked == 1296
    assert report.ok, report.mismatches[:5]
    assert elapsed < 5.0


def test_structure_constants_against_dense_matrices():
    """Every basis-pair bracket also holds as a dense matrix identity on the
    truncation-safe sub-block at cutoff 4."""
    basis = FockBasis(4)
    safe = np.flatnonzero(basis.totals <= basis.cutoff - 2)
    dense = {elem: dense_operator(QuadOp.of(elem), basis) for elem in ALL_ELEMENTS}
    for x in ALL_ELEMENTS:
        mx = dense[x]
        for y in ALL_ELEMENTS:
            my = dense[y]
            lhs = (mx @ my - my @ mx)[:, safe]
            rhs = dense_operator(basis_commutator(x, y), basis)[:, safe]
            assert np.max(np.abs(lhs - rhs)) < 1e-12, (x, y)


# ---------------------------------------------------------------------------
# closure machinery
# ---------------------------------------------------------------------------

def _su2_ops(i, j):
    half_i = HALF / I
    return [
        QuadOp.make({C(i, j): HALF, C(j, i): HALF}),
        QuadOp.make({C(i, j): half_i, C(j, i): -half_i}),
        QuadOp.make({C(i, i): HALF, C(j, j): -HALF}),
    ]


def test_verify_closure_accepts_su2():
    report = verify_closure(_su2_ops(1, 2), SU2_TABLE)
    assert report.ok


def test_verify_closure_reports_residual():
    broken = _su2_ops(1, 2)
    broken[2] = broken[2] * 2  # wrong normalization breaks the table
    report = verify_closure(broken, SU2_TABLE)
    assert not report.ok
    assert any(not diff.is_zero() for _, _, diff in report.mismatches)


def test_verify_closure_requires_nonempty():
    with pytest.raises(ValueError):
        verify_closure([], SU2_TABLE)


def test_su11_and_jkl_tables_differ():
    assert SU11_TABLE != SU2_TABLE != JKL_TABLE


def test_solve_in_span_exact():
    x = QuadOp.of(A(1, 2))
    y = QuadOp.of(B(1, 2))
    target = x * CRat.of(2, 1) - y * HALF
    coeffs, residual = solve_in_span(target, [x, y])
    assert residual.is_zero()
    assert coeffs == [CRat.of(2, 1), -HALF]


def test_solve_in_span_detects_outside():
    coeffs, residual = solve_in_span(QuadOp.of(C(1, 1)), [QuadOp.of(A(1, 2))])
    assert coeffs is None
    assert not residual.is_zero()


def test_span_closure_under_ad():
    x = QuadOp.of(C(1, 2))
    y = QuadOp.of(C(2, 1))
    z = QuadOp.make({C(1, 1): ONE, C(2, 2): -ONE})
    report = span_closure_under_ad(z, [x, y])
    assert report.closed
    # [z, x] = 2x, [z, y] = -2y for this gl(2) triple
    assert report.coefficients[0] == [CRat.of(2), CRat.of(0)]
    assert report.coefficients[1] == [CRat.of(0), CRat.of(-2)]
