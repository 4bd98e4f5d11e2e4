"""Truncated Fock engine: basis, matrices, evolution, projection."""

import math
import random
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.sparse.csgraph

import bellsim.experiments as experiments
import bellsim.fock as fock
from bellsim.adjoint import conjugate
from bellsim.algebra import ALL_ELEMENTS, A, Kind, QuadOp, commutator
from bellsim.catalog import HAMILTONIAN_GENERATORS, catalog, names
from bellsim.fock import (
    PI_KEPT,
    EvolveError,
    FockBasis,
    StateVector,
    evolve,
    expect_product,
    get_basis,
    leakage,
    matrix,
    vacuum,
)

import oracles
from oracles import amplitude, fock_state, index_of, project_pi

#: the hermitian catalog generators with only C_ij coefficients, and the Horne
#: phase conjugated by the 50/50 splitter
PASSIVE_GENERATORS = sorted(
    name for name in names()
    if catalog(name).is_hermitian() and all(e.kind is Kind.MIXED for e in catalog(name).coeffs)
) + ["J_prime@BS"]

PHASE_TOO_LARGE = ("^the phase of a stage is too large for double precision; "
                   "reduce the stage parameter$")


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cutoff", [0, 1, 2, 4, 8, 11])
def test_dimension_formula(cutoff):
    basis = FockBasis(cutoff)
    assert basis.dim == comb(cutoff + 4, 4) == len(basis.occupations)


def test_index_roundtrip():
    basis = FockBasis(5)
    assert basis.occupations.shape == (basis.dim, 4)
    assert np.all(np.diff(basis.keys) > 0)
    for k, occ in enumerate(basis.occupations.tolist()):
        assert index_of(basis, occ) == k
        assert basis.totals[k] == sum(occ)
        n1, n2, n3, n4 = occ
        assert tuple(basis.channel_weights[:, k]) == (n1 - n2, n3 - n4, n1 + n2, n3 + n4)


def test_graded_lexicographic_order():
    basis = FockBasis(3)
    totals = basis.totals.tolist()
    assert totals == sorted(totals)
    # within a shell, tuples ascend lexicographically
    shell1 = basis.occupations[basis.totals == 1].tolist()
    assert shell1 == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]


def test_out_of_basis_occupation():
    basis = FockBasis(2)
    # (-3, 2, 3, 0) has total 2, and its base-3 key equals that of (1, 0, 0, 0)
    for occ in [(3, 0, 0, 0), (-1, 0, 0, 0), (0, 0, -1, 1), (0, 0, 3, -1), (1, 1, 1, 0),
                (-3, 2, 3, 0), (0, 0, 0), (0, 0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            index_of(basis, occ)


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
    assert amplitude(v, (0, 0, 0, 0)) == 1.0
    assert leakage(v) == 0.0


def test_vacuum_photon_number_is_zero():
    basis = get_basis(4)
    n1 = matrix(catalog("sigma_0_a"), basis)
    vac = vacuum(basis).amps
    assert abs(np.vdot(vac, n1.mat @ vac)) < 1e-15


def test_normalize_zero_vector_rejected():
    basis = get_basis(2)
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(basis.dim)).normalized()


def test_serialization_roundtrip():
    basis = get_basis(4)
    state = evolve(vacuum(basis), matrix(catalog("K"), basis), 0.3)
    records = state.to_records()
    assert all(type(r[key]) is int for r in records for key in ("n1", "n2", "n3", "n4"))
    indices = [index_of(basis, (r["n1"], r["n2"], r["n3"], r["n4"])) for r in records]
    rebuilt = np.zeros(basis.dim, dtype=np.complex128)
    rebuilt[indices] = [r["re"] + 1j * r["im"] for r in records]
    assert np.max(np.abs(rebuilt - state.amps)) < 1e-12
    # deterministic ordering follows the basis enumeration
    assert indices == sorted(indices)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_pair_creation_on_vacuum():
    basis = get_basis(4)
    out = StateVector(basis, matrix(QuadOp.of(A(1, 3)), basis).mat @ vacuum(basis).amps)
    assert amplitude(out, (1, 0, 1, 0)) == pytest.approx(1.0)
    assert out.norm() == pytest.approx(1.0)


def test_channel_intensity_is_diagonal():
    basis = get_basis(5)
    mat = matrix(catalog("sigma_0_a"), basis).mat.toarray()
    assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0.0
    for k, occ in enumerate(basis.occupations.tolist()):
        assert mat[k, k] == pytest.approx(occ[0] + occ[1])


def test_singlet_source_on_vacuum():
    basis = get_basis(4)
    out = StateVector(basis, matrix(catalog("K"), basis).mat @ vacuum(basis).amps)
    assert amplitude(out, (1, 0, 0, 1)) == pytest.approx(0.5)
    assert amplitude(out, (0, 1, 1, 0)) == pytest.approx(-0.5)
    assert abs(amplitude(out, (1, 0, 1, 0))) == 0.0


@pytest.mark.parametrize("name", sorted(names()))
def test_matrix_against_dense_oracle(name):
    # at cutoff 2 pair creation drops out of every shell but the vacuum's
    for cutoff in (2, 5):
        basis = get_basis(cutoff)
        lhs = matrix(catalog(name), basis).mat.toarray()
        rhs = oracles.dense_operator(catalog(name), basis)
        assert np.max(np.abs(lhs - rhs)) < 1e-12, cutoff


def test_matrix_equals_column_loop_bitwise():
    conjugated = [conjugate(catalog("J_BS"), catalog(n)) for n in ("K_prime", "J_prime")]
    for cutoff in (2, 3, 6):
        basis = get_basis(cutoff)
        for op in [catalog(name) for name in sorted(names())] + conjugated:
            lhs, rhs = matrix(op, basis).mat, oracles.column_loop_matrix(op, basis)
            for part in ("indptr", "indices", "data"):
                a, b = getattr(lhs, part), getattr(rhs, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (cutoff, part)


def test_hermitian_operator_gives_hermitian_matrix():
    """The stored flag, decided on the exact operator, is the hermiticity of
    the float matrix for every catalog name at several cutoffs; only L_z,
    which is no Hamiltonian generator, is not hermitian."""
    for cutoff in (2, 3, 5, 8):
        basis = get_basis(cutoff)
        flagged = set()
        for name in names():
            sp = matrix(catalog(name), basis)
            dense = sp.mat.toarray()
            assert sp.hermitian == np.allclose(dense, dense.conj().T, rtol=0, atol=1e-14), name
            if not sp.hermitian:
                flagged.add(name)
        assert flagged == {"L_z"}, cutoff
        assert "L_z" not in HAMILTONIAN_GENERATORS


def test_stored_invariants_match_dense_matrix():
    """The hermiticity flag, and the passive flag, which is set exactly when
    the dense matrix keeps the total photon number."""
    basis = get_basis(4)
    moves = basis.totals[:, None] != basis.totals[None, :]
    passive_count = 0
    for op in [catalog(name) for name in sorted(names())] + [QuadOp.of(A(1, 2))]:
        sp = matrix(op, basis)
        dense = oracles.dense_operator(op, basis)
        assert sp.hermitian == np.allclose(dense, dense.conj().T, rtol=0, atol=1e-14), op
        assert sp.passive == (not np.any(dense[moves])), op
        passive_count += sp.passive
    assert passive_count >= 50


def test_commutation_transfer():
    """matrix(commutator(x, y)) equals the matrix commutator on columns with
    at least two photons of headroom, for every pair of the 36 basis
    elements.  The bracket is bilinear and matrix is linear in the
    coefficients (checked on a few catalog names, one with a scalar), so
    this covers every pair of operators."""
    basis = get_basis(5)
    safe = np.flatnonzero(basis.totals <= basis.cutoff - 2)
    elements = {e: QuadOp.of(e) for e in ALL_ELEMENTS}
    mats = {e: matrix(op, basis).mat for e, op in elements.items()}
    for x in ALL_ELEMENTS:
        for y in ALL_ELEMENTS:
            lhs = (mats[x] @ mats[y] - mats[y] @ mats[x]).toarray()[:, safe]
            rhs = matrix(commutator(elements[x], elements[y]), basis).mat.toarray()[:, safe]
            if np.max(np.abs(lhs - rhs)) > 1e-11:
                pytest.fail(f"commutation transfer failed for [{x}, {y}]")
    for name in ("K_prime", "J_BS", "sigma_y_a", "sigma_0_a", "L_z"):
        op = catalog(name)
        combined = complex(op.scalar) * np.eye(basis.dim)
        for elem, coeff in op.coeffs.items():
            combined = combined + complex(coeff) * mats[elem].toarray()
        assert np.max(np.abs(matrix(op, basis).mat.toarray() - combined)) < 1e-14, name


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_zero_angle_is_identity():
    basis = get_basis(4)
    k = matrix(catalog("K"), basis)
    state = evolve(vacuum(basis), k, 0.3)
    again = evolve(state, k, 0.0)
    assert np.array_equal(again.amps, state.amps)
    zero = StateVector(basis, np.zeros(basis.dim))  # no support, so nothing to set up
    assert not np.any(evolve(zero, k, 0.3).amps)


def test_evolve_requires_hermitian():
    basis = get_basis(4)
    with pytest.raises(ValueError):
        evolve(vacuum(basis), matrix(QuadOp.of(A(1, 2)), basis), 0.1)


def test_evolve_rejects_operator_on_other_basis():
    with pytest.raises(ValueError):
        evolve(vacuum(get_basis(4)), matrix(catalog("K"), get_basis(5)), 0.1)


def test_diagonal_generator_is_an_exact_phase():
    """A diagonal generator multiplies each ket by e^{i theta d}, and a ket
    off the state's support stays exactly 0.  Every passive stage keeps the
    norm while its phases keep ``fock.ACCURACY``, and fails beyond it, as at
    theta = 1e6 (rounding of 1e-10 and more) and at an overflow."""
    rng = np.random.default_rng(5)
    basis = get_basis(6)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    sparse_amps = np.where(np.arange(basis.dim) % 3 == 0, amps, 0.0)
    for name in ("J_prime", "K_z"):
        generator = matrix(catalog(name), basis)
        assert generator.factors.pairs == ()
        for theta in (0.7, -3.0, 100.0):
            phase = np.exp(1j * theta * generator.mat.diagonal())
            for vector in (amps, sparse_amps):
                out = evolve(StateVector(basis, vector), generator, theta)
                assert np.array_equal(out.amps, phase * vector)
            assert not np.any(out.amps[sparse_amps == 0])
        reference = oracles.dense_evolve(StateVector(basis, amps), catalog(name), 0.7)
        assert np.max(np.abs(evolve(StateVector(basis, amps), generator, 0.7).amps
                             - reference.amps)) < 1e-12
    for name in PASSIVE_GENERATORS:
        generator = experiments._stage_operator(name, basis.cutoff)
        for theta in (0.7, -3.0, 100.0):
            out = evolve(StateVector(basis, amps), generator, theta)
            assert out.norm() == pytest.approx(np.linalg.norm(amps), rel=1e-12), name
        for theta in (1e6, 1e308):
            with pytest.raises(EvolveError, match=PHASE_TOO_LARGE):
                evolve(StateVector(basis, amps), generator, theta)


def test_passive_generators_couple_at_most_two_modes():
    """Each passive catalog generator, and the Horne phase conjugated by the
    splitter, couples the four modes in disjoint pairs or not at all, so it
    splits into single-mode phases and two-mode factors."""
    assert len(PASSIVE_GENERATORS) == 51
    for name in PASSIVE_GENERATORS:
        generator = experiments._stage_operator(name, 2)
        coupled = [{e.i, e.j} for e in generator.op.coeffs if e.i != e.j]
        assert all(a == b or not a & b for a in coupled for b in coupled), name
        pairs = generator.factors.pairs
        assert sorted({(i + 1, j + 1) for i, j, _, _ in pairs}) == sorted(
            {tuple(sorted(m)) for m in coupled}), name


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5, 6])
def test_passive_evolution_matches_dense_exponential(cutoff):
    """Every passive generator, on a generic state and on a state with a few
    kets, against scipy's Pade exponential of the same truncated matrix; the
    map is unitary (checked as a whole matrix at cutoff 3)."""
    rng = np.random.default_rng(cutoff)
    basis = get_basis(cutoff)
    generic = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    few = np.where(rng.random(basis.dim) < 0.1, generic, 0.0)
    for name in PASSIVE_GENERATORS:
        generator = experiments._stage_operator(name, cutoff)
        for amps in (generic, few):
            theta = rng.uniform(-4.0, 4.0)
            state = StateVector(basis, amps)
            out = evolve(state, generator, theta).amps
            reference = oracles.dense_evolve(state, generator.op, theta).amps
            assert np.max(np.abs(out - reference)) < 1e-13, name
        if cutoff == 3:
            unitary = np.column_stack([evolve(StateVector(basis, column), generator, 0.9).amps
                                       for column in np.eye(basis.dim)])
            assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(basis.dim))) < 1e-13


def test_passive_generator_coupling_three_modes_is_rejected():
    """A passive generator that couples three modes has no two-mode factors:
    ``matrix`` builds it, and ``evolve`` rejects it as it rejects a
    non-hermitian one, whatever the angle."""
    basis = get_basis(4)
    generator = matrix(catalog("J_x_12") + catalog("J_x_23"), basis)
    assert generator.hermitian and generator.passive and generator.mat.nnz
    for theta in (0.0, 0.5):
        with pytest.raises(ValueError, match="couple modes only in disjoint pairs"):
            evolve(vacuum(basis), generator, theta)


def test_evolve_raises_when_the_phase_loses_accuracy():
    """One rule for both routes: a stage fails when the rounding of its
    phases, eps times |theta| times the largest |eigenvalue| or |weight| it
    applies on the kets, exceeds ``fock.ACCURACY``, with no numpy warning.
    For K from the vacuum at cutoff 4 that eigenvalue is sqrt 2, so theta =
    3000 runs, unitary, and 3500, an overflow and nan raise."""
    basis = get_basis(4)
    generator = matrix(catalog("K"), basis)
    assert generator.restricted(vacuum(basis).amps != 0)[1][2] == pytest.approx(math.sqrt(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (3000.0, -3000.0):
            assert evolve(vacuum(basis), generator, theta).norm() == pytest.approx(1.0, abs=1e-14)
        for theta in (3500.0, -3500.0, 1.5e308, math.inf, math.nan):
            with pytest.raises(EvolveError, match=PHASE_TOO_LARGE):
                evolve(vacuum(basis), generator, theta)


def test_evolve_on_reached_kets():
    """A pair source keeps a state on the kets it reaches from the state's
    support, a set it maps into itself.  scipy's exponential of the whole
    matrix is exactly 0 off them and agrees on them.  The kets and the
    set-up on them are built once per support, a support that reaches the
    whole basis too, and an operator keeps at most MAX_SUPPORTS supports."""
    basis = get_basis(8)
    rng = np.random.default_rng(8)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.indices(np.array([(1, 0, 0, 0), (0, 2, 1, 0), (3, 0, 0, 1)]))] = rng.normal(size=3)
    source = StateVector(basis, amps)
    generator = matrix(catalog("K_x_13"), basis)
    kets, _ = generator.restricted(source.amps != 0)
    assert 0 < kets.size < basis.dim and np.all(np.diff(kets) > 0)
    inside = np.isin(np.arange(basis.dim), kets)
    assert np.all(inside[source.amps != 0])
    assert generator.mat[~inside][:, kets].nnz == 0
    full = oracles.component_dense_evolve(source, catalog("K_x_13"), 0.8).amps
    assert not np.any(full[~inside])
    assert np.max(np.abs(evolve(source, generator, 0.8).amps - full)) < 1e-14
    assert generator.restricted(source.amps != 0)[0] is kets

    generic = StateVector(basis, np.ones(basis.dim))
    whole, _ = generator.restricted(generic.amps != 0)
    assert np.array_equal(whole, np.arange(basis.dim))
    reference = oracles.component_dense_evolve(generic, catalog("K_x_13"), 0.3).amps
    assert np.max(np.abs(evolve(generic, generator, 0.3).amps - reference)) < 1e-13
    for k in range(fock.MAX_SUPPORTS + 2):
        generator.restricted(np.arange(basis.dim) == k)
    assert len(generator._supports) == fock.MAX_SUPPORTS


def test_active_set_up_is_one_factor_per_component():
    """A pair source's set-up is one factor: V holds the eigenvectors of each
    connected component of the matrix on the reached kets (H V = V lam),
    unitary within 1e-13, linking only kets of one component, and each
    slot's eigenvalue is one of its component's block.  A second source on the first one's
    state (``custom [K, K_OM]`` at N=30) meets 136 components of several
    sizes, so the stacked eigh runs once per size."""
    spec = experiments.ExperimentSpec("custom", (("K", 0.3), ("K_OM", 0.2)), cutoff=30)
    basis = get_basis(spec.cutoff)
    source = evolve(vacuum(basis), matrix(catalog("K"), basis), 0.3)
    generator = matrix(catalog("K_OM"), basis)
    kets, (weights, products, largest) = generator.restricted(source.amps != 0)
    assert weights is None and len(products) == 1
    (vecs, vecs_t, lam), = products
    block = generator.mat[kets][:, kets].toarray()
    _, labels = scipy.sparse.csgraph.connected_components(abs(block), directed=False)
    sizes = np.bincount(labels)
    assert (kets.size, sizes.size, len(set(sizes))) == (1124, 136, 16)
    assert np.shares_memory(vecs_t.data, vecs.data) and (vecs_t != vecs.T).nnz == 0
    assert np.max(np.abs((vecs_t.conj() @ vecs).toarray() - np.eye(kets.size))) < 1e-13
    rows, cols = vecs.nonzero()
    assert np.array_equal(labels[rows], labels[cols])
    assert largest == np.max(np.abs(lam))
    dense_vecs = vecs.toarray()
    assert np.max(np.abs(block @ dense_vecs - dense_vecs * lam)) < 1e-13
    for label in range(sizes.size):
        members = np.flatnonzero(labels == label)
        exact = np.linalg.eigvalsh(block[np.ix_(members, members)])
        assert np.max(np.abs(np.sort(lam[members]) - exact)) < 1e-13, label
    assert experiments.run(spec).amps.tobytes() == evolve(source, generator, 0.2).amps.tobytes()


def test_passive_set_up_is_the_one_per_support():
    """A passive stage's set-up per support is what ``restricted`` returns:
    asking for it first, then evolving on the same support, reads the same
    cache entry.  The kets are the closure under the matrix, a union of
    whole blocks of each pair factor.  Each factor's V is unitary on them
    and links only kets of one block, V^T is a view of V's arrays (evolve
    applies V^dagger as its conjugate), and each slot's eigenvalue is that
    of its block size."""
    basis = get_basis(8)
    source = evolve(vacuum(basis), matrix(catalog("K_OM"), basis), 0.4)
    generator = matrix(catalog("J_BS_wv"), basis)  # two pair factors, complex V_s
    kets, set_up = generator.restricted(source.amps != 0)
    out = evolve(source, generator, 1.0)
    reference = oracles.reached_dense_evolve(source, generator, 1.0)
    assert np.max(np.abs(out.amps - reference.amps)) < 1e-12
    assert len(generator._supports) == 1
    again, (_, products, _) = generator.restricted(source.amps != 0)
    assert again is kets and products is set_up[1]
    occ = basis.occupations[kets]
    assert len(products) == len(generator.factors.pairs) == 2
    for (i, j, lams, _), (vecs, vecs_t, lam) in zip(generator.factors.pairs, products):
        assert vecs.shape == vecs_t.shape == (kets.size, kets.size)
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(vecs_t, part), getattr(vecs, part))
        assert (vecs_t != vecs.T).nnz == 0
        gram = (vecs_t.conj() @ vecs).toarray()
        assert np.max(np.abs(gram - np.eye(kets.size))) < 1e-13
        others = [m for m in range(4) if m not in (i, j)]
        block = np.column_stack([occ[:, i] + occ[:, j], occ[:, others]])
        rows, cols = vecs.nonzero()
        assert np.array_equal(block[rows], block[cols])
        totals = occ[:, i] + occ[:, j]
        assert np.array_equal(lam, [lams[s][k] for s, k in zip(totals, occ[:, i])])


#: the hermitian catalog generators with a pair term: the pair sources
PAIR_SOURCES = [name for name in HAMILTONIAN_GENERATORS if name not in PASSIVE_GENERATORS]


@pytest.mark.parametrize("cutoff", [6, 12])
def test_pair_source_blocks_are_the_matrix_on_the_kets(cutoff, monkeypatch):
    """The dense blocks a pair source's set-up diagonalizes, summed from the
    entries it reads on the reached kets, are the whole-basis matrix on those
    kets bit for bit, from the vacuum and from a two-source state."""
    assert len(PAIR_SOURCES) == 30
    basis = get_basis(cutoff)
    two_sources = experiments.run(experiments.ExperimentSpec(
        "custom", (("K", 0.3), ("K_OM", 0.2)), cutoff=cutoff))
    eigh, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda dense: seen.append(dense.copy()) or eigh(dense))
    for name in PAIR_SOURCES:
        generator = matrix(catalog(name), basis)
        for state in (vacuum(basis), two_sources):
            seen.clear()
            kets, _ = generator.restricted(state.amps != 0)
            whole = generator.mat[kets][:, kets].toarray()
            values, (targets, sources) = fock._entries(generator.op, basis, kets)
            groups = fock._components(np.searchsorted(kets, targets), sources, values, kets.size)
            assert len(seen) == 2 * len(groups), name
            for dense, (blocks, _, _) in zip(seen, groups):
                for block, members in zip(dense, blocks):
                    assert block.tobytes() == whole[np.ix_(members, members)].tobytes(), name


def test_active_operator_with_number_terms_and_scalar():
    """An active operator with number terms and a scalar, K + K_z + 7/10, is
    one factor whose components carry the summed diagonal: it matches the
    dense exponential of its matrix, which matches the independent oracle."""
    basis = get_basis(6)
    op = catalog("K") + catalog("K_z") + QuadOp.make({}, Fraction(7, 10))
    generator = matrix(op, basis)
    assert generator.hermitian and not generator.passive
    rng = np.random.default_rng(28)
    few = np.where(rng.random(basis.dim) < 0.1, rng.normal(size=basis.dim), 0.0)
    for amps in (vacuum(basis).amps, few):
        for theta in (0.4, -1.3):
            state = StateVector(basis, amps)
            out = evolve(state, generator, theta).amps
            assert "mat" not in vars(generator)  # evolve reads entries on the kets only
            reference = oracles.dense_evolve(state, op, theta).amps
            assert np.max(np.abs(out - reference)) < 1e-13
    assert np.max(np.abs(generator.mat.toarray() - oracles.dense_operator(op, basis))) < 1e-13


def test_passive_block_is_independent_of_its_neighbours():
    """A block's amplitudes after a passive stage are the same bits whether
    the block is alone at its size or evolved beside another block of that
    size: each block's product rounds the same way with or without
    neighbours."""
    basis = get_basis(8)
    generator = matrix(catalog("J_a"), basis)  # one pair factor, modes 1 and 2
    rng = np.random.default_rng(24)
    block = basis.indices(np.array([(k, 3 - k, 1, 0) for k in range(4)]))
    neighbour = basis.indices(np.array([(k, 3 - k, 0, 2) for k in range(4)]))
    alone = np.zeros(basis.dim, dtype=complex)
    alone[block] = rng.normal(size=4) + 1j * rng.normal(size=4)
    paired = alone.copy()
    paired[neighbour] = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert generator.restricted(alone != 0)[0].tobytes() == np.sort(block).tobytes()
    for theta in (0.3, 1.1, -2.5):
        one = evolve(StateVector(basis, alone), generator, theta).amps[block]
        two = evolve(StateVector(basis, paired), generator, theta).amps[block]
        assert one.tobytes() == two.tobytes()


def test_unitarity_and_reversibility():
    basis = get_basis(8)
    k = matrix(catalog("K"), basis)
    state = evolve(vacuum(basis), k, 0.4)
    assert abs(state.norm() - 1.0) <= 1e-14
    back = evolve(state, k, -0.4)
    assert np.max(np.abs(back.amps - vacuum(basis).amps)) < 1e-14


def test_perturbative_pair_amplitude():
    basis = get_basis(8)
    state = evolve(vacuum(basis), matrix(catalog("K_OM"), basis), 0.01)
    amp = amplitude(state, (1, 0, 1, 0))
    assert abs(amp - 0.005j) / 0.005 < 1e-4
    residual = state.amps.copy()
    residual[index_of(basis, (0, 0, 0, 0))] -= 1.0
    residual[index_of(basis, (1, 0, 1, 0))] -= 0.005j
    assert np.linalg.norm(residual) < 1e-4


def test_evolve_matches_dense_exponential():
    """Evolution against scipy's Pade exponential of the same
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
            state = evolve(state, matrix(g, basis), theta)
            reference = oracles.dense_evolve(reference, g, theta)
        assert np.max(np.abs(state.amps - reference.amps)) < 1e-10


def test_two_mode_squeezed_geometric_law():
    """Amplitude ratios on the pair ladder are constant in n and match the
    dense ladder-exponential oracle; at cutoff 24 the trimmed top of the
    ladder no longer perturbs the low ratios."""
    gamma = 0.6
    basis = get_basis(24)
    state = evolve(vacuum(basis), matrix(catalog("K_x_13"), basis), gamma)
    ladder = oracles.tmsv_ladder_amplitudes(gamma, n_max=12)
    oracle_ratio = abs(ladder[1] / ladder[0])
    ratios = []
    for n in range(1, 7):
        top = amplitude(state, (n, 0, n, 0))
        bottom = amplitude(state, (n - 1, 0, n - 1, 0))
        ratios.append(abs(top / bottom))
    assert max(abs(r - oracle_ratio) for r in ratios) < 1e-9
    assert oracle_ratio == pytest.approx(math.tanh(gamma / 2), abs=1e-9)
    for n, amp in enumerate(ladder[:7]):
        assert abs(amplitude(state, (n, 0, n, 0)) - amp) < 1e-9


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

def test_leakage_value_small_squeeze():
    basis = get_basis(8)
    state = evolve(vacuum(basis), matrix(catalog("K"), basis), 0.2)
    # frozen at build time from this computation; the pair ladder decays
    # geometrically so the top shells carry ~5e-8
    assert leakage(state) < 1e-7
    assert leakage(state) == pytest.approx(4.8684e-08, rel=1e-3)


def test_leakage_decreases_with_cutoff():
    values = []
    for cutoff in (6, 8, 10):
        basis = get_basis(cutoff)
        state = evolve(vacuum(basis), matrix(catalog("K"), basis), 0.2)
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
        expect_product(state, [catalog("sigma_z_a")])


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
    state = fock_state(basis, (2, 0, 0, 2))  # on the top shell
    value = expect_product(state, [catalog("sigma_0_a"), catalog("sigma_0_b")])
    assert value.real == pytest.approx(4.0)


def test_expectation_matches_diagonal_oracle():
    basis = get_basis(8)
    state = evolve(vacuum(basis), matrix(catalog("K"), basis), 0.35)
    num = expect_product(state, [catalog("sigma_z_a"), catalog("sigma_z_b")]).real
    den = expect_product(state, [catalog("sigma_0_a"), catalog("sigma_0_b")]).real
    onum, oden = oracles.correlation_oracle(state)
    assert num == pytest.approx(onum, abs=1e-12)
    assert den == pytest.approx(oden, abs=1e-12)


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
    state = evolve(vacuum(basis), matrix(catalog("K"), basis), 0.1)
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
    occupations = [tuple(occ) for occ in basis.occupations.tolist()]
    kept = {occupations[k] for k in np.flatnonzero(projected.amps)}
    assert kept == set(PI_KEPT)
    # in PI_KEPT order: the conditioned tensor reads them as psi[a, b]
    assert [occupations[k] for k in basis.coincidence] == list(PI_KEPT)
    assert FockBasis(1).coincidence.size == 0
    assert weight == pytest.approx(sum(abs(amplitude(state, occ)) ** 2 for occ in PI_KEPT),
                                   rel=1e-15)
    for occ in PI_KEPT:
        assert amplitude(projected, occ) == amplitude(state, occ)
