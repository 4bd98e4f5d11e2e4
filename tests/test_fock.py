"""Truncated Fock engine: basis, matrices, evolution, projection."""

import math
import random
from math import comb

import numpy as np
import pytest

import bellsim.fock as fock
from bellsim.algebra import A, QuadOp
from bellsim.catalog import HAMILTONIAN_GENERATORS, catalog, names
from bellsim.fock import (
    PI_KEPT,
    EvolveError,
    FockBasis,
    StateVector,
    TruncationWarning,
    evolve,
    expect_product,
    expected_dim,
    fock_state,
    get_basis,
    leakage,
    matrix,
    project_pi,
    vacuum,
)

import oracles


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cutoff", [0, 1, 2, 4, 8, 11])
def test_dimension_formula(cutoff):
    assert FockBasis(cutoff).dim == comb(cutoff + 4, 4) == expected_dim(cutoff)


def test_index_roundtrip():
    basis = FockBasis(5)
    for k, occ in enumerate(basis.states):
        assert basis.index_of(occ) == k
        assert basis.state(k) == occ
        assert tuple(basis.occupations[k]) == occ
        assert basis.totals[k] == sum(occ)


def test_graded_lexicographic_order():
    basis = FockBasis(3)
    totals = [sum(occ) for occ in basis.states]
    assert totals == sorted(totals)
    # within a shell, tuples ascend lexicographically
    shell1 = [occ for occ in basis.states if sum(occ) == 1]
    assert shell1 == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


def test_out_of_basis_occupation():
    basis = FockBasis(2)
    with pytest.raises(ValueError):
        basis.index_of((3, 0, 0, 0))


def test_negative_cutoff_rejected():
    with pytest.raises(ValueError):
        FockBasis(-1)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_vacuum():
    basis = get_basis(4)
    v = vacuum(basis)
    assert v.norm() == 1.0
    assert v.amplitude((0, 0, 0, 0)) == 1.0
    assert leakage(v) == 0.0


def test_vacuum_photon_number_is_zero():
    basis = get_basis(4)
    n1 = matrix(catalog("sigma_0_a"), basis)
    assert abs(n1.expectation(vacuum(basis))) < 1e-15


def test_normalize_zero_vector_rejected():
    basis = get_basis(2)
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(basis.dim)).normalized()


def test_serialization_roundtrip():
    basis = get_basis(4)
    state = evolve(vacuum(basis), catalog("K"), 0.3)
    records = state.to_records()
    rebuilt = StateVector.from_records(basis, records)
    assert np.max(np.abs(rebuilt.amps - state.amps)) < 1e-12
    # deterministic ordering follows the basis enumeration
    indices = [basis.index_of((r["n1"], r["n2"], r["n3"], r["n4"])) for r in records]
    assert indices == sorted(indices)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_pair_creation_on_vacuum():
    basis = get_basis(4)
    out = matrix(QuadOp.of(A(1, 3)), basis).apply(vacuum(basis))
    assert out.amplitude((1, 0, 1, 0)) == pytest.approx(1.0)
    assert out.norm() == pytest.approx(1.0)


def test_channel_intensity_is_diagonal():
    basis = get_basis(5)
    mat = matrix(catalog("sigma_0_a"), basis).mat.toarray()
    assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0.0
    for k, occ in enumerate(basis.states):
        assert mat[k, k] == pytest.approx(occ[0] + occ[1])


def test_singlet_source_on_vacuum():
    basis = get_basis(4)
    out = matrix(catalog("K"), basis).apply(vacuum(basis))
    assert out.amplitude((1, 0, 0, 1)) == pytest.approx(0.5)
    assert out.amplitude((0, 1, 1, 0)) == pytest.approx(-0.5)
    assert abs(out.amplitude((1, 0, 1, 0))) == 0.0


@pytest.mark.parametrize("name", sorted(names()))
def test_matrix_against_dense_oracle(name):
    basis = get_basis(5)
    lhs = matrix(catalog(name), basis).mat.toarray()
    rhs = oracles.dense_operator(catalog(name), basis)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_hermitian_operator_gives_hermitian_matrix():
    basis = get_basis(6)
    for name in HAMILTONIAN_GENERATORS:
        sp = matrix(catalog(name), basis)
        assert sp.hermiticity_defect() < 1e-14, name


def test_commutation_transfer():
    """matrix(commutator(x, y)) equals the matrix commutator on columns
    with at least two photons of headroom, for all catalog pairs."""
    basis = get_basis(5)
    safe = [k for k, occ in enumerate(basis.states) if sum(occ) <= basis.cutoff - 2]
    mats = {n: matrix(catalog(n), basis).mat for n in names()}
    ops = {n: catalog(n) for n in names()}
    from bellsim.algebra import commutator

    for xn in sorted(names()):
        for yn in sorted(names()):
            lhs = (mats[xn] @ mats[yn] - mats[yn] @ mats[xn]).toarray()[:, safe]
            rhs = matrix(commutator(ops[xn], ops[yn]), basis).mat.toarray()[:, safe]
            if np.max(np.abs(lhs - rhs)) > 1e-11:
                pytest.fail(f"commutation transfer failed for [{xn}, {yn}]")


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_zero_angle_is_identity():
    basis = get_basis(4)
    state = evolve(vacuum(basis), catalog("K"), 0.3)
    again = evolve(state, catalog("K"), 0.0)
    assert np.array_equal(again.amps, state.amps)


def test_evolve_requires_hermitian():
    basis = get_basis(4)
    with pytest.raises(ValueError):
        evolve(vacuum(basis), QuadOp.of(A(1, 2)), 0.1)


def test_evolve_requires_positive_tol():
    basis = get_basis(4)
    with pytest.raises(ValueError):
        evolve(vacuum(basis), catalog("K"), 0.1, tol=-1e-9)


def test_evolve_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(fock, "MAX_TAYLOR_TERMS", 1)
    basis = get_basis(4)
    with pytest.raises(EvolveError):
        evolve(vacuum(basis), catalog("K"), 0.5)


def test_unitarity_and_reversibility():
    basis = get_basis(8)
    tol = 1e-12
    state = evolve(vacuum(basis), catalog("K"), 0.4, tol=tol)
    assert abs(state.norm() - 1.0) <= tol + leakage(state)
    back = evolve(state, catalog("K"), -0.4, tol=tol)
    assert np.max(np.abs(back.amps - vacuum(basis).amps)) < 10 * tol


def test_perturbative_pair_amplitude():
    basis = get_basis(8)
    state = evolve(vacuum(basis), catalog("K_OM"), 0.01)
    amp = state.amplitude((1, 0, 1, 0))
    assert abs(amp - 0.005j) / 0.005 < 1e-4
    residual = state.amps.copy()
    residual[basis.index_of((0, 0, 0, 0))] -= 1.0
    residual[basis.index_of((1, 0, 1, 0))] -= 0.005j
    assert np.linalg.norm(residual) < 1e-4


def test_evolve_matches_dense_exponential():
    """Taylor propagation against scipy's Pade exponential of the same
    truncated generator, over seeded random stages at cutoff 6."""
    rng = random.Random(71)
    basis = get_basis(6)
    hermitian_names = list(HAMILTONIAN_GENERATORS)
    for _ in range(20):
        state = vacuum(basis)
        reference = vacuum(basis)
        for _ in range(rng.randint(1, 3)):
            g = catalog(rng.choice(hermitian_names))
            theta = rng.uniform(-0.5, 0.5)
            state = evolve(state, g, theta)
            reference = oracles.dense_evolve(reference, g, theta)
        assert np.max(np.abs(state.amps - reference.amps)) < 1e-10


def test_two_mode_squeezed_geometric_law():
    """Amplitude ratios on the pair ladder are constant in n and match the
    dense ladder-exponential oracle; at cutoff 24 the trimmed top of the
    ladder no longer perturbs the low ratios."""
    gamma = 0.6
    basis = get_basis(24)
    state = evolve(vacuum(basis), catalog("K_x_13"), gamma)
    ladder = oracles.tmsv_ladder_amplitudes(gamma, n_max=12)
    oracle_ratio = abs(ladder[1] / ladder[0])
    ratios = []
    for n in range(1, 7):
        top = state.amplitude((n, 0, n, 0))
        bottom = state.amplitude((n - 1, 0, n - 1, 0))
        ratios.append(abs(top / bottom))
    assert max(abs(r - oracle_ratio) for r in ratios) < 1e-9
    assert oracle_ratio == pytest.approx(math.tanh(gamma / 2), abs=1e-9)
    for n, amp in enumerate(ladder[:7]):
        assert abs(state.amplitude((n, 0, n, 0)) - amp) < 1e-9


def test_evolve_accepts_prebuilt_operator():
    basis = get_basis(6)
    sp = matrix(catalog("K"), basis)
    a = evolve(vacuum(basis), sp, 0.2)
    b = evolve(vacuum(basis), catalog("K"), 0.2)
    assert np.max(np.abs(a.amps - b.amps)) == 0.0


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

def test_leakage_value_small_squeeze():
    basis = get_basis(8)
    state = evolve(vacuum(basis), catalog("K"), 0.2)
    # frozen at build time from this computation; the pair ladder decays
    # geometrically so the top shells carry ~5e-8
    assert leakage(state) < 1e-7
    assert leakage(state) == pytest.approx(4.8684e-08, rel=1e-3)


def test_leakage_decreases_with_cutoff():
    values = []
    for cutoff in (6, 8, 10):
        state = evolve(vacuum(get_basis(cutoff)), catalog("K"), 0.2)
        values.append(leakage(state))
    assert values[0] > values[1] > values[2]


# ---------------------------------------------------------------------------
# expectation products
# ---------------------------------------------------------------------------

def test_expect_product_empty_rejected():
    basis = get_basis(4)
    with pytest.raises(ValueError):
        expect_product(vacuum(basis), [])


def test_expect_product_requires_normalized():
    basis = get_basis(4)
    state = StateVector(basis, 2.0 * vacuum(basis).amps)
    with pytest.raises(ValueError):
        expect_product(state, [matrix(catalog("sigma_z_a"), basis)])


def test_vacuum_coincidence_vanishes():
    basis = get_basis(4)
    value = expect_product(vacuum(basis), [catalog("sigma_z_a"), catalog("sigma_z_b")])
    assert value == 0.0


def test_singlet_correlation_is_minus_one():
    basis = get_basis(4)
    amps = (fock_state(basis, (1, 0, 0, 1)).amps - fock_state(basis, (0, 1, 1, 0)).amps)
    singlet = StateVector(basis, amps / math.sqrt(2))
    value = expect_product(singlet, [catalog("sigma_z_a"), catalog("sigma_z_b")])
    assert value.real == pytest.approx(-1.0, abs=1e-14)


def test_quartic_product_on_number_state():
    basis = get_basis(4)
    state = fock_state(basis, (2, 0, 0, 2))  # top shell: boundary warning expected
    with pytest.warns(TruncationWarning):
        value = expect_product(state, [catalog("sigma_0_a"), catalog("sigma_0_b")])
    assert value.real == pytest.approx(4.0)


@pytest.mark.filterwarnings("ignore::bellsim.fock.TruncationWarning")
def test_expectation_matches_diagonal_oracle():
    basis = get_basis(8)
    state = evolve(vacuum(basis), catalog("K"), 0.35)
    num = expect_product(state, [catalog("sigma_z_a"), catalog("sigma_z_b")]).real
    den = expect_product(state, [catalog("sigma_0_a"), catalog("sigma_0_b")]).real
    onum, oden = oracles.correlation_oracle(state)
    assert num == pytest.approx(onum, abs=1e-12)
    assert den == pytest.approx(oden, abs=1e-12)


def test_boundary_warning_fires():
    basis = get_basis(4)
    state = fock_state(basis, (2, 0, 2, 0))  # sits on the top shell
    with pytest.warns(TruncationWarning):
        expect_product(state, [catalog("sigma_0_a"), catalog("sigma_0_b")])


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_vacuum_gives_zero_weight():
    basis = get_basis(4)
    projected, weight = project_pi(vacuum(basis))
    assert weight == 0.0
    assert np.all(projected.amps == 0)


def test_project_double_occupation_excluded():
    basis = get_basis(4)
    _, weight = project_pi(fock_state(basis, (2, 0, 0, 0)))
    assert weight == 0.0


def test_projected_pair_source_is_singlet():
    basis = get_basis(8)
    state = evolve(vacuum(basis), catalog("K"), 0.1)
    projected, weight = project_pi(state)
    assert weight > 0
    singlet = StateVector(
        basis,
        (fock_state(basis, (1, 0, 0, 1)).amps - fock_state(basis, (0, 1, 1, 0)).amps)
        / math.sqrt(2),
    )
    assert projected.normalized().fidelity(singlet) == pytest.approx(1.0, abs=1e-12)


def test_project_pi_is_idempotent_and_keeps_pi_kept():
    basis = get_basis(5)
    rng = np.random.default_rng(7)
    state = StateVector(basis, rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim))
    projected, weight = project_pi(state)
    twice, weight_twice = project_pi(projected)
    assert np.array_equal(twice.amps, projected.amps)
    assert weight_twice == weight
    kept = {basis.state(k) for k in np.flatnonzero(projected.amps)}
    assert kept == set(PI_KEPT)
    assert {basis.state(k) for k in basis.coincidence} == set(PI_KEPT)
    assert FockBasis(1).coincidence.size == 0
    assert weight == pytest.approx(sum(abs(state.amplitude(occ)) ** 2 for occ in PI_KEPT),
                                   rel=1e-15)
    for occ in PI_KEPT:
        assert projected.amplitude(occ) == state.amplitude(occ)
