"""Adjoint representation and operator conjugation.

The conjugation identities here are the load-bearing ones for the
wave-vector (interferometric) Bell test and for the squeezing analysis of
the correlation function.  The library's exact quarter turn
``bellsim.adjoint.conjugate`` serves the 50/50 splitter; every other angle
goes through the float reference ``oracles.expm_conjugate``.  Where a
tabulated partner operator turns out not to span the orbit (the L_z case),
the test records the measured residual and the coefficients that actually
appear.
"""

import math
import random

import numpy as np
import pytest

from bellsim.adjoint import conjugate
from bellsim.algebra import (
    ALL_ELEMENTS,
    A,
    B,
    C,
    Kind,
    QuadOp,
    commutator,
)
from bellsim.catalog import HAMILTONIAN_GENERATORS, catalog, names
from bellsim.fock import FockBasis
import bellsim.fock as fock
from bellsim.rational import CRat, HALF, I, QUARTER

from oracles import (
    ADJOINT_DIM,
    FloatOp,
    ad_matrix,
    coefficient_vector,
    combination,
    dense_conjugate,
    expm_conjugate,
    max_coeff_distance,
    operator_from_vector,
    random_rational_combination,
    span_closure_under_ad,
)


#: the Hamiltonian generators g with ad_g^3 = ad_g on every basis element,
#: whose quarter turn :func:`conjugate` takes on any operator
QUARTER_TURN = ("K_z", "J_BS", "J_PS", "J_BS_wv", "J", "J_prime")


# ---------------------------------------------------------------------------
# the 37-dimensional reference: ad_matrix and expm in tests/oracles.py
# ---------------------------------------------------------------------------

def test_ad_matrix_of_zero():
    assert np.all(ad_matrix(QuadOp.zero()) == 0)


def test_scalar_column_and_row_vanish():
    mat = ad_matrix(catalog("K"))
    assert np.all(mat[:, ADJOINT_DIM - 1] == 0)
    assert np.all(mat[ADJOINT_DIM - 1, :] == 0)


def test_ad_matrix_matches_commutator():
    rng = random.Random(31)
    g = catalog("K")
    mat = ad_matrix(g)
    for _ in range(20):
        x = random_rational_combination(rng)
        via_matrix = mat @ coefficient_vector(x)
        direct = coefficient_vector(commutator(g, x))
        assert np.max(np.abs(via_matrix - direct)) < 1e-14


def test_vector_roundtrip():
    x = catalog("L_prime")
    back = operator_from_vector(coefficient_vector(x))
    assert max_coeff_distance(back, x) < 1e-15


def test_conjugate_at_zero_angle_is_identity():
    x = catalog("L")
    assert max_coeff_distance(expm_conjugate(catalog("K"), 0.0, x), x) < 1e-15


def test_conjugate_preserves_invariants_of_source():
    # the analyzer-sum operators commute with the pair source
    for name in ("J_z_plus", "J_y_plus", "N_0_minus"):
        moved = expm_conjugate(catalog("K"), 0.37, catalog(name))
        assert max_coeff_distance(moved, catalog(name)) < 1e-12, name


# ---------------------------------------------------------------------------
# conjugate: the exact quarter turn
# ---------------------------------------------------------------------------

def _ad_cubed_is_ad(g: QuadOp, x: QuadOp) -> bool:
    ad_x = commutator(g, x)
    return commutator(g, commutator(g, ad_x)) == ad_x


def test_quarter_turn_generators():
    """Exactly six Hamiltonian generators have ad^3 = ad on the whole
    algebra; all six are passive, which the dense oracle test relies on."""
    found = tuple(name for name in HAMILTONIAN_GENERATORS
                  if all(_ad_cubed_is_ad(catalog(name), QuadOp.of(e)) for e in ALL_ELEMENTS))
    assert len(HAMILTONIAN_GENERATORS) == 68
    assert found == QUARTER_TURN
    assert all(e.kind is Kind.MIXED for name in found for e in catalog(name).coeffs)


def test_conjugate_matches_expm_reference():
    """The quarter turn and its inverse by each quarter-turn generator, on
    every catalog operator, against the exponential of the float adjoint
    matrix."""
    for name in QUARTER_TURN:
        g = catalog(name)
        for sign in (1, -1):
            for x in map(catalog, names()):
                moved = conjugate(g * sign, x)
                reference = expm_conjugate(g, sign * math.pi / 2, x)
                assert max_coeff_distance(moved, reference) < 1e-12, (name, sign)


@pytest.mark.parametrize("g, x", [
    (3 * catalog("J_BS"), catalog("K_prime")),  # ad eigenvalues +-3, outside {0, +-1}
    (QuadOp.of(A(1, 1)), QuadOp.of(B(1, 1))),   # ad_{A_11} is nilpotent
    (catalog("K"), catalog("J")),               # an active generator
], ids=["outside_table", "nilpotent", "K_on_J"])
def test_conjugate_rejects_irrational_quarter_turn(g, x):
    with pytest.raises(ValueError, match="quarter turn"):
        conjugate(g, x)


def test_ou_mandel_rotation_is_not_a_rational_quarter_turn():
    """On K_OM's orbit ad_{J_a}^3 = ad_{J_a}/4, so the pi/2 polarization
    rotation of the ou_mandel pipeline has sqrt(2) weights: conjugate
    rejects it and it stays with the float reference."""
    g = catalog("J_a")
    ad_x = commutator(g, catalog("K_OM"))
    assert commutator(g, commutator(g, ad_x)) == ad_x * QUARTER
    with pytest.raises(ValueError, match="quarter turn"):
        conjugate(g, catalog("K_OM"))


# ---------------------------------------------------------------------------
# the beam-splitter conjugation identity of the wave-vector test
# ---------------------------------------------------------------------------

#: transformed pair generator: the K' source conjugated by the 50/50
#: mixer of the wave-vector interferometer
BS_CONJUGATED_K_PRIME = QuadOp.make({
    A(1, 3): -HALF, A(2, 4): HALF, B(1, 3): -HALF, B(2, 4): HALF,
})


def test_bs_conjugation_reproduces_tabulated_generator():
    assert conjugate(-catalog("J_BS_wv"), catalog("K_prime")) == BS_CONJUGATED_K_PRIME


def test_horne_generators_conjugate_exactly():
    """K' and J' conjugated by the 50/50 mixer have four coefficients each,
    exactly +-i/2."""
    half_i = I * HALF
    assert conjugate(catalog("J_BS"), catalog("K_prime")) == QuadOp.make(
        {A(1, 2): half_i, A(3, 4): half_i, B(1, 2): -half_i, B(3, 4): -half_i})
    assert conjugate(catalog("J_BS"), catalog("J_prime")) == QuadOp.make(
        {C(1, 3): -half_i, C(2, 4): half_i, C(3, 1): half_i, C(4, 2): -half_i})


@pytest.mark.parametrize("name, image", [
    ("K_prime", -(catalog("K_y_12") + catalog("K_y_34"))),
    ("J_prime", catalog("J_y_13") - catalog("J_y_24")),
])
def test_horne_quarter_turn_is_exact(name, image):
    """With g = J_BS, ad_g^3 = ad_g on the Horne generators, so the 50/50
    splitter's conjugation e^{i pi/2 g} x e^{-i pi/2 g} is the rational
    x + i[g, x] - [g, [g, x]]: pair creation within each channel for K', a
    y-rotation between the channels for J'.  The inverse turn undoes it."""
    g, x = catalog("J_BS"), catalog(name)
    assert _ad_cubed_is_ad(g, x)
    assert conjugate(g, x) == image
    assert conjugate(-g, image) == x


def test_bs_conjugation_against_dense_oracle():
    basis = FockBasis(6)
    lhs = fock.matrix(conjugate(-catalog("J_BS_wv"), catalog("K_prime")), basis).mat.toarray()
    rhs = dense_conjugate(catalog("J_BS_wv"), -math.pi / 2, catalog("K_prime"), basis)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_xtype_mixer_cannot_reach_tabulated_generator():
    """Regression record: the (1,3)(2,4)-pairing mixer orbits K' inside
    span{K', (A12+A34-B12-B34)/2}; the tabulated transformed generator is
    orthogonal to that plane, at any mixing angle."""
    kp = catalog("K_prime")
    partner = QuadOp.make({A(1, 2): HALF, A(3, 4): HALF,
                           B(1, 2): -HALF, B(3, 4): -HALF})
    for theta in (math.pi / 4, 1.234):
        moved = expm_conjugate(catalog("J_BS"), theta, kp)
        expected = combination((math.cos(theta), kp), (1j * math.sin(theta), partner))
        assert max_coeff_distance(moved, expected) < 1e-12, theta
        assert max_coeff_distance(moved, BS_CONJUGATED_K_PRIME) > 0.4
    for sign in (1, -1):
        moved = conjugate(catalog("J_BS") * sign, kp)
        assert moved == partner * (I * sign)
        assert max_coeff_distance(moved, BS_CONJUGATED_K_PRIME) > 0.4


def test_om_conjugated_source_from_real_rotations():
    """K_OM' equals the type-I source conjugated by a 90-degree
    polarization rotation in channel a followed by a 50/50 mix, both in
    the real-rotation phase convention."""
    rot_a = catalog("J_y_12")
    mixer = catalog("J_y_13") + catalog("J_y_24")
    step1 = expm_conjugate(rot_a, -math.pi, catalog("K_OM"))
    step2 = expm_conjugate(mixer, -math.pi / 2, step1)
    assert max_coeff_distance(step2, catalog("K_OM_prime")) < 1e-10


# ---------------------------------------------------------------------------
# squeezing conjugation of the difference operators (measured form)
# ---------------------------------------------------------------------------

#: hermitian operators that actually appear as sinh partners under
#: Y(g)^-1 X Y(g), Y(g) = e^{i g K}
M_Z = QuadOp.make({A(1, 4): I, A(2, 3): I, B(1, 4): -I, B(2, 3): -I})
M_Y = QuadOp.make({A(1, 3): CRat.of(-1), A(2, 4): CRat.of(-1),
                   B(1, 3): CRat.of(-1), B(2, 4): CRat.of(-1)})


def _inverse_squeeze_conjugate(name: str, gamma: float) -> FloatOp:
    # Y^{-1}(g) X Y(g) = conjugate(K, -g, X)
    return expm_conjugate(catalog("K"), -gamma, catalog(name), tol=1e-300)


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.7])
def test_squeeze_conjugation_of_jz_minus(gamma):
    moved = _inverse_squeeze_conjugate("J_z_minus", gamma)
    expected = combination((math.cosh(gamma), catalog("J_z_minus")), (math.sinh(gamma), M_Z))
    assert max_coeff_distance(moved, expected) < 1e-12


@pytest.mark.parametrize("gamma", [0.1, 0.3])
def test_squeeze_conjugation_of_jy_minus(gamma):
    moved = _inverse_squeeze_conjugate("J_y_minus", gamma)
    expected = combination((math.cosh(gamma), catalog("J_y_minus")), (math.sinh(gamma), M_Y))
    assert max_coeff_distance(moved, expected) < 1e-12


def test_squeeze_conjugation_of_number_sum_produces_scalar():
    """Y^-1 N Y = cosh(g) N + 2 sinh(g) L_0 + 2(cosh(g) - 1); the central
    term is required because [K, L_0] has a scalar component."""
    gamma = 0.3
    moved = _inverse_squeeze_conjugate("N_0_plus", gamma)
    expected = combination((math.cosh(gamma), catalog("N_0_plus")),
                           (2.0 * math.sinh(gamma), catalog("L_0")),
                           (2.0 * (math.cosh(gamma) - 1.0), QuadOp({}, CRat.of(1))))
    assert max_coeff_distance(moved, expected) < 1e-12


def test_sinh_partners_relate_to_tabulated_operators():
    lz_hermitian = QuadOp.make({A(1, 4): HALF / I, A(2, 3): HALF / I,
                                B(1, 4): -(HALF / I), B(2, 3): -(HALF / I)})
    assert M_Z == lz_hermitian * CRat.of(-2)
    assert M_Y == catalog("L_y") * CRat.of(-2)


def test_tabulated_lz_span_does_not_close():
    """The tabulated span {J_z_minus, L_z} is not ad_K-stable: a residual
    survives (recorded here), so no cosh/sinh form is forced on it."""
    report = span_closure_under_ad(catalog("K"), [catalog("J_z_minus"), catalog("L_z")])
    assert not report.closed
    assert any(not r.is_zero() for r in report.residuals)


def test_corrected_spans_close():
    rep_z = span_closure_under_ad(catalog("K"), [catalog("J_z_minus"), M_Z])
    rep_y = span_closure_under_ad(catalog("K"), [catalog("J_y_minus"), M_Y])
    assert rep_z.closed and rep_y.closed
    identity = QuadOp({}, CRat.of(1))
    rep_n = span_closure_under_ad(catalog("K"),
                                  [catalog("N_0_plus"), catalog("L_0"), identity])
    assert rep_n.closed


# ---------------------------------------------------------------------------
# dense Fock-space oracle
# ---------------------------------------------------------------------------

def test_conjugate_matches_dense_oracle_passive():
    """Number-conserving generators commute with the truncation, so the
    exact quarter turn must match the dense route entrywise."""
    rng = random.Random(101)
    basis = FockBasis(6)
    generator_names = list(names())
    for _ in range(20):
        g = catalog(rng.choice(QUARTER_TURN))
        x = catalog(rng.choice(generator_names))
        sign = rng.choice((1, -1))
        lhs = fock.matrix(conjugate(g * sign, x), basis).mat.toarray()
        rhs = dense_conjugate(g, sign * math.pi / 2, x, basis)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
