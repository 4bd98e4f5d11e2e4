"""Truncated Fock-space engine for the four optical modes.

The basis is every occupation tuple (n1, n2, n3, n4) with total photon
number at most ``cutoff`` (so dim = C(cutoff+4, 4)), ordered by total
photon number and then lexicographically.  Each state has one integer key,
its total and n1..n4 as digits in base cutoff+1, which ascends in basis
order, so index lookups are binary searches.  An operator's entries, the
standard sqrt(n) matrix elements, are read on the kets it acts on
(:func:`_entries`); pair creation out of the top shell is dropped, which is
the sole way truncation enters.  The truncated generator of a hermitian
operator is still hermitian, so the evolution computed here is exactly
unitary on the truncated space.  The :func:`leakage` of a state is its
weight on the top two shells, a truncation diagnostic that does not bound
the error in C (ROADMAP item 4).

:func:`matrix` makes a :class:`SparseOperator` once per (generator,
cutoff), and no stage builds its whole-basis matrix.  :func:`evolve`
is the one evolution path, with no series: on the kets the generator
reaches from the state's support, the smallest set holding it that the
generator maps into itself, a stage is a phase per ket and then
commuting factors V e^{i theta Lambda} V^dagger, V block-diagonal and
unitary with each block's eigenvectors and Lambda their eigenvalues.  A
passive generator, every coefficient a C_ij (phase shifters, polarization
rotators, beam splitters), couples the modes in disjoint pairs; a pair
keeps n_i + n_j, so its blocks are one tridiagonal matrix per block size
with eigenvectors V_s built once (:class:`PassiveFactors`).  A pair source
is one factor over the connected components of its entries on the kets
(from the vacuum one finite su(1,1) ladder), diagonalized by
``numpy.linalg.eigh``.  The set-up is kept per support
(:meth:`SparseOperator.restricted`).  The cutoff is therefore the one
accuracy input; a stage fails (:class:`EvolveError`) only where its phases
cannot keep :data:`ACCURACY` or its components would exceed
:data:`MAX_DENSE`.  The dense-exponential cross-check lives in the test
suite as an independent oracle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from scipy import sparse

from .algebra import Kind, QuadOp

Occupation = tuple[int, int, int, int]

#: the coincidence kets: one photon in each channel, n1+n2 = 1 and n3+n4 = 1
PI_KEPT: tuple[Occupation, ...] = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))

#: supports one operator keeps set up; a named pipeline's stage sees one
#: support at every parameter where no amplitude underflows to 0
MAX_SUPPORTS = 8
#: the rounding a phase theta*lam may carry, eps*|theta*lam|: the 12th printed digit
ACCURACY = 1e-12
#: dense entries a pair source's components may hold on one support (64 MiB)
MAX_DENSE = 2 ** 22


class EvolveError(RuntimeError):
    """Evolution failed: the stage parameter is too large for its phases to
    keep :data:`ACCURACY`, or a pair source's components exceed :data:`MAX_DENSE`."""


def _keys(occupations: np.ndarray, cutoff: int) -> np.ndarray:
    """Search key of each (n1, n2, n3, n4) row: the total photon number, then
    n1..n4, as digits in base cutoff+1; keys ascend in basis order."""
    base = cutoff + 1
    key = occupations.sum(axis=-1)
    for k in range(4):
        key = key * base + occupations[..., k]
    return key


class FockBasis:
    """Total-photon-cutoff basis for four bosonic modes."""

    def __init__(self, cutoff: int):
        if cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {cutoff}")
        self.cutoff = cutoff
        # every (n1..n4) with total <= cutoff, one mode column at a time
        occ = np.zeros((1, 0), dtype=np.int64)
        for _ in range(4):
            counts = cutoff + 1 - occ.sum(axis=1)
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            occ = np.column_stack([np.repeat(occ, counts, axis=0), np.arange(starts.size) - starts])
        keys = _keys(occ, cutoff)
        order = np.argsort(keys)
        #: (dim, 4) photon numbers of the basis states, in basis order
        self.occupations = occ[order]
        #: ascending search keys, one per state (see :func:`_keys`)
        self.keys = keys[order]
        self.totals = self.occupations.sum(axis=1)
        n1, n2, n3, n4 = self.occupations.T
        #: (4, dim) rows n1-n2, n3-n4, n1+n2, n3+n4: the eigenvalues of
        #: sigma_z and sigma_0 in channels a and b
        self.channel_weights = np.stack([n1 - n2, n3 - n4, n1 + n2, n3 + n4])
        #: basis indices of the PI_KEPT kets, in that order (none below cutoff 2)
        kept = np.array(PI_KEPT, dtype=np.int64)
        self.coincidence = self.indices(kept[kept.sum(axis=1) <= cutoff])

    def indices(self, occupations: np.ndarray) -> np.ndarray:
        """Basis indices of photon-number rows that lie in the basis (unchecked)."""
        return np.searchsorted(self.keys, _keys(occupations, self.cutoff))

    @property
    def dim(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        return isinstance(other, FockBasis) and other.cutoff == self.cutoff

    def __hash__(self) -> int:
        return hash(("FockBasis", self.cutoff))

    def __repr__(self) -> str:
        return f"FockBasis(cutoff={self.cutoff}, dim={self.dim})"


@lru_cache(maxsize=32)
def get_basis(cutoff: int) -> FockBasis:
    return FockBasis(cutoff)


@dataclass
class StateVector:
    """Complex amplitude vector over a :class:`FockBasis`."""

    basis: FockBasis
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (self.basis.dim,):
            raise ValueError(f"amplitude vector has shape {self.amps.shape}, expected ({self.basis.dim},)")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amps / n)

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2 for normalized inputs (global-phase blind)."""
        if other.basis != self.basis:
            raise ValueError("states live on different bases")
        na, nb = self.norm(), other.norm()
        return float(np.clip(abs(complex(np.vdot(self.amps, other.amps))) ** 2 / (na * nb) ** 2, 0.0, 1.0))

    def to_records(self, threshold: float = 1e-12) -> list[dict]:
        """JSON-ready records of the amplitudes above ``threshold`` in
        modulus, in deterministic basis order."""
        kept = np.flatnonzero(np.abs(self.amps) > threshold)
        return [{"n1": n1, "n2": n2, "n3": n3, "n4": n4, "re": float(a.real), "im": float(a.imag)}
                for (n1, n2, n3, n4), a in zip(self.basis.occupations[kept].tolist(), self.amps[kept])]


def vacuum(basis: FockBasis) -> StateVector:
    """The state with no photons: total 0 sorts first, so basis index 0."""
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(basis, amps)


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """An exact quadratic operator on a fixed basis, made by :func:`matrix`;
    :func:`evolve` reads its entries (:func:`_entries`) on the kets it reaches."""

    basis: FockBasis
    #: the operator equals its adjoint (``QuadOp.is_hermitian``)
    hermitian: bool
    #: the exact operator, which :func:`evolve` splits into factors when passive
    op: QuadOp = field(repr=False)
    #: :meth:`restricted` per support, the oldest dropped beyond MAX_SUPPORTS
    _supports: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def passive(self) -> bool:
        """Every coefficient is a C_ij: the operator keeps the photon number
        of each pair of modes it mixes (phase shifters, rotators, splitters)."""
        return all(e.kind is Kind.MIXED for e in self.op.coeffs)

    @cached_property
    def mat(self) -> sparse.csr_matrix:
        """Whole-basis CSR matrix, built on first use; no stage reads it."""
        dim, scalar = self.basis.dim, complex(self.op.scalar)
        mat = sparse.csr_matrix(_entries(QuadOp(self.op.coeffs), self.basis, np.arange(dim)), shape=(dim, dim))
        return mat + scalar * sparse.identity(dim, format="csr") if scalar else mat

    @cached_property
    def factors(self) -> "PassiveFactors":
        """The passive operator as commuting factors (:class:`PassiveFactors`);
        ``ValueError`` if it couples three or more modes together."""
        return PassiveFactors.of(self.op, self.basis.cutoff)

    def restricted(self, support: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(kets, set-up) of a hermitian operator: the ascending indices of the
        kets its entries reach, step by step, from the boolean mask
        ``support``, the smallest set holding it that it maps into itself,
        and what :func:`evolve` applies on them: (weights, products, largest),
        the kets' phase weights (None if all are 0), the commuting factors
        (V, V^T, lam) of :func:`_eigenbasis`, and the largest |weight| and
        |lam| on the kets.  A passive operator has a factor per pair (i, j),
        in order, each block (n_i = 0..s, n_j = s-n_i) holding V_s, slot k at
        n_i = k.  An active one has no weights and one factor over the
        connected components of its entries among the kets."""
        key = support.tobytes()
        if key in self._supports:
            return self._supports[key]
        reached, new = support.copy(), np.flatnonzero(support)
        while new.size:
            new = np.unique(_entries(self.op, self.basis, new)[1][0])
            new = new[~reached[new]]
            reached[new] = True
        kets = np.flatnonzero(reached)
        if self.passive:
            factors, occ = self.factors, self.basis.occupations[kets]
            weights = None
            if factors.const or np.any(factors.weights):
                weights = occ @ factors.weights + factors.const
            products = []
            for i, j, lams, vecs in factors.pairs:
                totals = occ[:, i] + occ[:, j]
                others = [occ[:, m] for m in range(4) if m not in (i, j)]
                order = np.lexsort((occ[:, i], *others, totals))
                by_size = np.split(order, np.cumsum(np.bincount(totals))[:-1])
                # one block per row, slot k in column k
                products.append(_eigenbasis(kets.size, [(b.reshape(-1, s + 1), vecs[s], lams[s])
                                                        for s, b in enumerate(by_size)]))
        else:
            values, (targets, sources) = _entries(self.op, self.basis, kets)
            groups = _components(np.searchsorted(kets, targets), sources, values, kets.size)
            weights, products = None, [_eigenbasis(kets.size, groups)]
        phases = [lam for *_, lam in products] + ([] if weights is None else [weights])
        set_up = weights, products, max((float(np.max(np.abs(x))) for x in phases), default=0.0)
        if len(self._supports) >= MAX_SUPPORTS:
            del self._supports[next(iter(self._supports))]
        self._supports[key] = kets, set_up
        return kets, set_up


def _components(rows, cols, data, n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(blocks, eigenvectors, eigenvalues) per component size of the hermitian
    n x n matrix of the entries (rows, cols, data), duplicates summed in order:
    each row of ``blocks`` is one connected component, rows ascending, found by
    min-label propagation with pointer jumping, and the blocks of a size share
    one stacked ``numpy.linalg.eigh``.  :class:`EvolveError` if the blocks hold
    more than :data:`MAX_DENSE` entries, before any is built."""
    labels, old = np.arange(n), None
    while not np.array_equal(labels, old):
        old, labels = labels, labels.copy()
        np.minimum.at(labels, rows, old[cols])
        labels = labels[labels]
    counts = np.bincount(labels)
    entries = int(np.sum(counts ** 2))
    if entries > MAX_DENSE:
        raise EvolveError(f"a pair source needs {entries} dense entries on its {n} kets "
                          f"(limit {MAX_DENSE}); lower the cutoff")
    size = counts[labels]
    order = np.lexsort((labels, size))  # by size, then component, rows ascending
    rank = np.argsort(order)
    groups, start = [], 0
    for m in np.unique(size):
        stop = start + np.count_nonzero(size == m)
        inside = size[rows] == m
        r, c = rank[rows[inside]] - start, rank[cols[inside]] - start
        dense = np.zeros(((stop - start) // m, m, m), dtype=np.complex128)
        np.add.at(dense, (r // m, r % m, c % m), data[inside])
        lam, vecs = np.linalg.eigh(dense)
        groups.append((order[start:stop].reshape(-1, m), vecs, lam))
        start = stop
    return groups


def _eigenbasis(n: int, groups) -> tuple[sparse.csr_matrix, sparse.csc_matrix, np.ndarray]:
    """(V, V^T, lam) on n kets from (blocks, vecs, vals) per block size, V^T a
    view of V: row b of ``blocks`` lists a block's kets, slot k holding
    eigenvector k of vecs[b] (or of the size's one vecs) and lam its
    eigenvalue.  A product sums within a block, so it rounds alike beside any other."""
    lam, entries = np.empty(n), []
    for blocks, vecs, eigenvalues in groups:
        shape = blocks.shape + blocks.shape[-1:]
        entries.append([np.broadcast_to(x, shape).ravel()
                        for x in (vecs, blocks[:, :, None], blocks[:, None, :])])
        lam[blocks] = eigenvalues
    vals, rows, cols = map(np.concatenate, zip(*entries))
    v = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return v, v.T, lam


@dataclass(frozen=True)
class PassiveFactors:
    """A passive generator as a product of commuting factors.

    Each mode that the generator couples to no other contributes a phase
    weight d_m n_m; with the scalar and the 1/2 of each C_mm, a ket's weight
    is ``const + weights @ n``.  Each coupled pair (i, j) is a two-mode
    factor a C_ii + b C_jj + c C_ij + c* C_ji = c^dagger h c + (a+b)/2, with
    h = [[a, c], [c*, b]] = W diag(mu) W^dagger.  It keeps s = n_i + n_j and
    the other modes' photon numbers, so it acts on blocks of s+1 kets, all
    with one tridiagonal matrix H_s.  The modes d = W^dagger c diagonalize
    it: column k of V_s is the ket with k photons in d_0 and s-k in d_1, of
    eigenvalue mu_0 k + mu_1 (s-k) + (a+b)/2, built once for every s up to
    the cutoff by :func:`_next_shell` and placed on each block of a stage's
    kets by :meth:`SparseOperator.restricted`.  Truncation is exact: no
    block leaves its shell.
    """

    weights: np.ndarray
    const: float
    #: per coupled pair: its 0-based modes i < j, and per s = 0..cutoff the
    #: eigenvalues of H_s and V_s
    pairs: tuple[tuple[int, int, list[np.ndarray], list[np.ndarray]], ...]

    @staticmethod
    def of(op: QuadOp, cutoff: int) -> "PassiveFactors":
        coeff = {(e.i - 1, e.j - 1): complex(c) for e, c in op.coeffs.items()}
        coupled = sorted({(min(m), max(m)) for m in coeff if m[0] != m[1]})
        modes = [m for pair in coupled for m in pair]
        if len(modes) != len(set(modes)):
            raise ValueError("a passive generator may couple modes only in disjoint pairs, "
                             f"got couplings {[(i + 1, j + 1) for i, j in coupled]}")
        weights = np.zeros(4)
        for m in set(range(4)) - set(modes):
            weights[m] = coeff.get((m, m), 0.0).real
        const = complex(op.scalar).real + 0.5 * float(weights.sum())
        pairs = []
        for i, j in coupled:
            a, b, c = (coeff.get((i, i), 0.0).real, coeff.get((j, j), 0.0).real,
                       coeff.get((i, j), 0.0))
            mu, w = np.linalg.eigh(np.array([[a, c], [c.conjugate(), b]]))
            lams, vecs, v = [], [], np.ones((1, 1), dtype=complex)
            for s in range(cutoff + 1):
                if s:
                    v = _next_shell(v, w)
                k = np.arange(s + 1)
                lams.append(mu[0] * k + mu[1] * (s - k) + (a + b) / 2)
                vecs.append(v)
            pairs.append((i, j, lams, vecs))
        return PassiveFactors(weights, const, tuple(pairs))


def _next_shell(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V_s from V_{s-1} (:class:`PassiveFactors`).  Column k of V_s is
    d_0^dagger on column k-1 of V_{s-1} over sqrt(k), and equally d_1^dagger
    on column k over sqrt(s-k), where d_q^dagger = W_0q c_i^dagger +
    W_1q c_j^dagger takes n_i = m (n_j = s-1-m) to m+1 with sqrt(m+1), and
    n_j up with sqrt(s-m).  Their mean with weights k/s and (s-k)/s keeps
    rounding from growing with s (Risbo's recursion for Wigner d-matrices,
    J. Geodesy 70, 383 (1996))."""
    s = len(v)
    m = np.arange(s)[:, None]
    k = np.arange(s + 1)
    padded = np.zeros((s, s + 2), dtype=complex)
    padded[:, 1:-1] = v

    def create(q: int, columns: np.ndarray) -> np.ndarray:
        out = np.zeros((s + 1, s + 1), dtype=complex)
        out[1:] += w[0, q] * np.sqrt(m + 1.0) * columns
        out[:-1] += w[1, q] * np.sqrt(s - m + 0.0) * columns
        return out

    return (create(0, padded[:, :-1]) * np.sqrt(k) + create(1, padded[:, 1:]) * np.sqrt(s - k)) / s


#: photon-number step of the (mode i, mode j) ladder operators of each element kind
_LADDER_STEPS = {Kind.PAIR_CREATE: (1, 1), Kind.MIXED: (1, -1), Kind.PAIR_ANNIHILATE: (-1, -1)}


def _entries(op: QuadOp, basis: FockBasis, kets: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(values, (target basis indices, source positions in ``kets``)), scipy's
    COO form, of the entries of ``op`` on the basis kets ``kets``: coefficient
    order, then ket order, with the scalar last on the diagonal, unsummed."""
    occ, positions = basis.occupations[kets], np.arange(len(kets))
    parts = [(np.zeros(0, dtype=np.intp), positions[:0], np.zeros(0, dtype=np.complex128))]
    for elem, coeff in op.coeffs.items():
        i, j = elem.i - 1, elem.j - 1
        # right to left: the ladder operator on mode j, then the one on mode i;
        # each multiplies the integer factor by n+1 (creation) or n (annihilation)
        steps = _LADDER_STEPS[elem.kind]
        target, factor = occ.copy(), np.ones(len(kets), dtype=np.int64)
        for mode, step in ((j, steps[1]), (i, steps[0])):
            factor *= target[:, mode] + 1 if step > 0 else target[:, mode]
            target[:, mode] += step
        shift = 0.5 if elem.kind is Kind.MIXED and i == j else 0.0  # C_ii = c_i^dagger c_i + 1/2
        keep = ((factor != 0) | (shift != 0)) & (basis.totals[kets] + sum(steps) <= basis.cutoff)
        parts.append((basis.indices(target[keep]), positions[keep],
                      complex(coeff) * (np.sqrt(factor[keep]) + shift)))
    if complex(op.scalar) != 0.0:
        parts.append((kets, positions, np.full(len(kets), complex(op.scalar))))
    targets, sources, values = map(np.concatenate, zip(*parts))
    return values, (targets, sources)


def matrix(op: QuadOp, basis: FockBasis) -> SparseOperator:
    """An exact quadratic operator on a basis, with its hermiticity."""
    return SparseOperator(basis, op.is_hermitian(), op)


def evolve(state: StateVector, generator: SparseOperator, theta: float) -> StateVector:
    """e^{i theta G} |state> for a :class:`SparseOperator` G on the state's
    basis, built once per (generator, cutoff) by :func:`matrix`.

    A non-hermitian G raises ``ValueError``, and so does a passive G that
    couples three or more modes; theta = 0 or a zero state returns a copy.
    G runs on the kets it reaches from the state's support, a set it maps
    into itself, so every other amplitude stays 0.  There it is the phase
    e^{i theta w} on each ket, then each factor V e^{i theta lam} V^dagger
    of :meth:`SparseOperator.restricted` as v + V (expm1(i theta lam)
    conj(V^T conj(v))), so small amplitudes keep their relative digits.
    :class:`EvolveError` when eps*|theta| times the largest |w| or |lam| on
    the kets, the rounding of the phases, exceeds :data:`ACCURACY` (for a pair
    source first on its column norms at the support), or its components
    exceed :data:`MAX_DENSE`.
    """
    if generator.basis != state.basis:
        raise ValueError("operator built on a different basis")
    if not generator.hermitian:
        raise ValueError("evolution generator must be hermitian")
    if generator.passive:
        generator.factors  # a generator coupling three modes raises here, whatever theta
    support = state.amps != 0
    if theta == 0.0 or not support.any():
        return StateVector(state.basis, state.amps.copy())
    if not generator.passive and support.tobytes() not in generator._supports:
        # hermitian on the closure, so a column norm is at most its largest |lam|
        columns = sparse.csc_matrix(_entries(generator.op, state.basis, np.flatnonzero(support)))
        _check_phase(theta, np.sqrt(abs(columns).power(2).sum(axis=0).max()))
    kets, (weights, products, largest) = generator.restricted(support)
    _check_phase(theta, largest)
    v = state.amps[kets]
    if weights is not None:
        v = np.exp(1j * theta * weights) * v
    for vecs, vecs_t, lam in products:
        v = v + vecs @ (np.expm1(1j * theta * lam) * (vecs_t @ v.conj()).conj())
    amps = np.zeros(state.basis.dim, dtype=np.complex128)
    amps[kets] = v
    return StateVector(state.basis, amps)


def _check_phase(theta: float, largest: float) -> None:
    """The phase rule of :func:`evolve`, on Python floats: no numpy warning; inf and nan fail."""
    if not sys.float_info.epsilon * abs(float(theta)) * float(largest) <= ACCURACY:
        raise EvolveError("the phase of a stage is too large for double precision; "
                          "reduce the stage parameter")


def expect_product(state: StateVector, ops: Sequence) -> complex:
    """<state| M_1 M_2 ... M_k |state> by right-to-left sparse application
    of ``matrix(M, basis)`` for each QuadOp M."""
    if not ops:
        raise ValueError("expect_product requires at least one operator")
    norm = state.norm()
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized (norm {norm:.3e})")
    v = state.amps
    for op in reversed(list(ops)):
        v = matrix(op, state.basis).mat @ v
    return complex(np.vdot(state.amps, v))


def leakage(state: StateVector) -> float:
    """Squared amplitude on the top two total-photon shells: a truncation
    diagnostic that does not bound the error in C."""
    top = state.basis.totals >= max(state.basis.cutoff - 1, 0)
    return float(np.sum(np.abs(state.amps[top]) ** 2))
