"""Truncated Fock-space engine for the four optical modes.

The basis is every occupation tuple (n1, n2, n3, n4) with total photon
number at most ``cutoff`` (dim = C(cutoff+4, 4)), ordered by total photon
number and then lexicographically; a state's key, its total and n1..n4 as
digits in base cutoff+1, ascends in that order.  An operator's entries, the
standard sqrt(n) matrix elements, are read on the kets it acts on
(:func:`_entries`); pair creation out of the top shell is dropped, the sole
way truncation enters, so a hermitian generator stays hermitian and the
evolution is exactly unitary on the truncated space.

:func:`evolve` is the one evolution path, with no series: on the kets the
generator reaches from the state's support, a stage is a phase per ket and
commuting factors V e^{i theta Lambda} V^dagger, set up once per support
(:meth:`SparseOperator.restricted`) as dense blocks applied with
``numpy.matmul``.  A pair source on the vacuum ket is its su(1,1) ladder
(:class:`Ladder`): Lanczos from the vacuum gives one vector per photon-number
shell, and the factor is the eigenpairs of its small Jacobi matrix.  Any
other pair source is one factor over the connected components of its
entries, diagonalized by ``numpy.linalg.eigh``; a passive generator (every
coefficient a C_ij) has one factor per coupled mode pair, whose blocks share
eigenvectors per block size (:class:`PassiveFactors`).  Commands evolve only
the stages up to the last pair source, and none when that is the first
stage: ``experiments`` reads such a source off its ladder's per-shell
:func:`second_moments`, and later passive stages through their
:func:`mode_matrix`.  The cutoff is the one accuracy input: a stage fails
(:class:`EvolveError`) only where its phases cannot keep :data:`ACCURACY`
(:func:`check_phase`) or its set-up would exceed :data:`MAX_DENSE`.  The
engine imports numpy only; scipy builds the whole-basis matrix
:attr:`SparseOperator.mat` that the tests read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .algebra import Kind, QuadOp

#: supports an operator keeps set up, and angles a passive one keeps turns for.
#: A stage sees one support at every parameter where no amplitude underflows to
#: 0.  Of a session_sweep pass, all 12 turns (4 Horne cross-checks) hit after its
#: first pass, in which 8 miss, and cli_cold makes none
MAX_SUPPORTS = 8
#: the rounding a phase theta*lam may carry, eps*|theta*lam|: the 12th printed digit
ACCURACY = 1e-12
#: dense entries a pair source's set-up may hold on one support (64 MiB): its
#: components, or its ladder's kets times its shells
MAX_DENSE = 2 ** 22


class EvolveError(RuntimeError):
    """Evolution failed: the stage parameter is too large for its phases to
    keep :data:`ACCURACY`, or a pair source's set-up exceeds :data:`MAX_DENSE`."""


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
    #: :meth:`turns` per angle, kept the same way
    _turns: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def passive(self) -> bool:
        """Every coefficient is a C_ij: the operator keeps the photon number
        of each pair of modes it mixes (phase shifters, rotators, splitters)."""
        return all(e.kind is Kind.MIXED for e in self.op.coeffs)

    @cached_property
    def mat(self) -> "scipy.sparse.csr_matrix":
        """Whole-basis CSR matrix, built on first use with ``scipy.sparse``
        (imported here); no command reads it."""
        from scipy import sparse

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
        and what :func:`evolve` applies on them: (weights, factors, largest),
        the kets' phase weights (None if all are 0), the commuting factors,
        and the largest |weight| and |lam| on the kets.  A passive operator
        has a factor per pair (i, j) of :class:`PassiveFactors`, in order, as
        (order, segments): per block size s present, ``order[start:stop]``
        lists the positions in ``kets`` of its blocks (n_i = 0..s,
        n_j = s-n_i) as rows of s+1 slots, slot k at n_i = k, for each
        (start, stop, s) in ``segments`` (:func:`_pair_blocks`).  An active
        operator has no weights and one factor: on the vacuum ket its
        :class:`Ladder` when Lanczos keeps every vector on one shell, else
        the connected components of its entries among the kets, per
        component size (blocks, V, lam) of :func:`_components`.  Kept per
        support, keyed by its indices' bytes."""
        key = np.flatnonzero(support).tobytes()
        if key in self._supports:
            return self._supports[key]
        reached, new = support.copy(), np.flatnonzero(support)
        while new.size:
            hit = np.zeros_like(reached)
            hit[_entries(self.op, self.basis, new)[1][0]] = True
            new = np.flatnonzero(hit & ~reached)
            reached |= hit
        kets = np.flatnonzero(reached)
        if self.passive:
            factors, occ = self.factors, self.basis.occupations[kets]
            weights = None
            if factors.const or np.any(factors.weights):
                weights = occ @ factors.weights + factors.const
            products, phases = [], []
            for i, j, lams, _ in factors.pairs:
                order, segments = _pair_blocks(occ, i, j)
                products.append((order, segments))
                phases.append(lams[[size for *_, size in segments]])
        else:
            values, (targets, sources) = _entries(self.op, self.basis, kets)
            rows = np.searchsorted(kets, targets)
            ladder = _ladder(self.basis, kets, rows, sources, values) if key == _VACUUM else None
            if ladder is None:
                groups = _components(rows, sources, values, kets.size)
                products, phases = [groups], [lam for *_, lam in groups]
            else:
                products, phases = [ladder], [ladder.lam]
            weights = None
        phases += [] if weights is None else [weights]
        set_up = weights, products, max((float(np.max(np.abs(x))) for x in phases), default=0.0)
        return _keep(self._supports, key, (kets, set_up))

    def ladder(self, theta: float) -> "Ladder | None":
        """This pair source's set-up on the vacuum ket if it is a
        :class:`Ladder`, else None, under :func:`evolve`'s phase rule at
        theta; read from :meth:`restricted`'s entry for that support, with no
        basis-long array once it is kept."""
        kept = self._supports.get(_VACUUM)
        if kept is None:
            kept = _set_up(self, np.arange(self.basis.dim) == 0, theta)
        else:
            check_phase(theta, kept[1][2])
        factor = kept[1][1][0]
        return factor if isinstance(factor, Ladder) else None

    def turns(self, theta: float) -> list[np.ndarray]:
        """Per pair factor of a passive operator, what :func:`evolve` applies
        to each block of size s at this angle: W_s^T for W_s = V_s expm1(i
        theta lam_s) V_s^dagger, zero-padded to the cutoff like
        ``PassiveFactors.pairs``, ``turns[s, :s+1, :s+1]``.  Every size is
        its own product of one fixed shape, so its bits depend on theta, s
        and the cutoff only.  Kept per angle: built per call they made the
        benchmark's session_sweep cmd_p50_s 34% slower, though its only calls
        are Horne cross-checks at four recurring phases (hit rates at
        :data:`MAX_SUPPORTS`; J_prime couples no pair, so its turns are empty)."""
        if theta in self._turns:
            return self._turns[theta]
        return _keep(self._turns, theta, [
            (vecs.conj() * np.expm1(1j * theta * lams)[:, None, :]) @ vecs.swapaxes(1, 2)
            for _, _, lams, vecs in self.factors.pairs])


def _keep(cache: dict, key, value):
    """Store ``value`` in a per-support or per-angle cache, dropping
    the oldest entry beyond MAX_SUPPORTS; return it."""
    if len(cache) >= MAX_SUPPORTS:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


#: :meth:`SparseOperator.restricted`'s key of the vacuum ket, basis index 0
_VACUUM = np.zeros(1, dtype=np.intp).tobytes()


@dataclass(frozen=True, eq=False)
class Ladder:
    """A pair source G on the vacuum ket as its su(1,1) ladder.  Lanczos from
    the vacuum gives orthonormal vectors phi_n, each on one photon-number
    shell, and the Jacobi matrix T = V diag(lam) V^dagger of G on them, so
    e^{i theta G}|0> = Q c with c = e^{i theta T} e_0 (:meth:`amplitudes`).
    For a catalog source phi_n holds 2n photons and m = cutoff//2 + 1."""

    basis: FockBasis
    #: ascending basis indices of the kets G reaches from the vacuum
    kets: np.ndarray
    #: (kets, m): phi_n in column n, zero off its shell; phi_0 is the vacuum
    q: np.ndarray
    #: (m,) the photon number of the shell of each phi_n
    shells: np.ndarray
    #: eigenvalues and eigenvectors of T
    lam: np.ndarray
    vecs: np.ndarray

    def amplitudes(self, theta: float) -> np.ndarray:
        """c = e_0 + V expm1(i theta lam) V^dagger e_0, so small amplitudes
        keep their relative digits."""
        c = self.vecs @ (np.expm1(1j * theta * self.lam) * self.vecs[0].conj())
        c[0] += 1.0
        return c

    def state(self, c: np.ndarray) -> StateVector:
        """Q c placed on the kets: the state of ladder amplitudes ``c``."""
        amps = np.zeros(self.basis.dim, dtype=np.complex128)
        amps[self.kets] = self.q @ c
        return StateVector(self.basis, amps)

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(grams, pairs), raveled to (m, 256) and (m, 16): the Gram matrix
        and Z of each phi_n, read once by :func:`second_moments` of the sum
        of the phi_n, which holds each on its own shell."""
        grams, pairs = second_moments(self.basis, self.kets, self.q.sum(axis=1))
        return grams[self.shells].reshape(-1, 256), np.outer(self.shells == 2, pairs)


def _ladder(basis: FockBasis, kets: np.ndarray, rows, cols, data) -> Ladder | None:
    """The :class:`Ladder` of the hermitian matrix of the entries (rows,
    cols, data) on the kets G reaches from the vacuum, by Lanczos with full
    reorthogonalization, applying G through its entries; it stops when beta
    falls to rounding.  None when a vector leaves its shell, or meets a shell
    twice.  :class:`EvolveError` if one vector per shell would hold more than
    :data:`MAX_DENSE` entries, before any is built."""
    n, totals = kets.size, basis.totals[kets]
    size = np.count_nonzero(np.bincount(totals))
    if n * size > MAX_DENSE:
        raise EvolveError(f"a pair source needs {n * size} dense entries on its {n} kets "
                          f"(limit {MAX_DENSE}); lower the cutoff")
    q = np.zeros((n, size), dtype=np.complex128)
    q[0, 0] = 1.0
    alpha, beta, shells = [], [], [0]
    for j in range(size):
        x = data * q[cols, j]
        w = np.bincount(rows, x.real, n) + 1j * np.bincount(rows, x.imag, n)
        alpha.append(np.vdot(q[:, j], w).real)
        for _ in range(2):
            w -= q[:, :j + 1] @ (q[:, :j + 1].conj().T @ w)
        b = float(np.linalg.norm(w))
        if b <= ACCURACY * max(map(abs, alpha + beta)):
            break
        weights = np.bincount(totals, np.abs(w) ** 2)
        shell = int(np.argmax(weights))
        weights[shell] = 0.0
        if shell in shells or np.sum(weights) > (ACCURACY * b) ** 2:
            return None
        w[totals != shell] = 0.0
        q[:, j + 1] = w / np.linalg.norm(w)
        beta.append(b)
        shells.append(shell)
    m = len(alpha)
    lam, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    return Ladder(basis, kets, q[:, :m], np.array(shells), lam, vecs)


def _pair_blocks(occ: np.ndarray, i: int, j: int) -> tuple[np.ndarray, tuple]:
    """(order, segments), the set-up of the pair factor (i, j) on kets with
    occupations ``occ``, a union of whole blocks (see
    :meth:`SparseOperator.restricted`)."""
    totals = occ[:, i] + occ[:, j]
    others = [occ[:, m] for m in range(4) if m not in (i, j)]
    order = np.lexsort((occ[:, i], *others, totals))
    counts = np.bincount(totals)
    stops = np.cumsum(counts)
    return order, tuple((int(stop - count), int(stop), s)
                        for s, (count, stop) in enumerate(zip(counts, stops)) if count)


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
    for m in np.flatnonzero(np.bincount(size)):
        stop = start + np.count_nonzero(size == m)
        inside = size[rows] == m
        r, c = rank[rows[inside]] - start, rank[cols[inside]] - start
        dense = np.zeros(((stop - start) // m, m, m), dtype=np.complex128)
        np.add.at(dense, (r // m, r % m, c % m), data[inside])
        lam, vecs = np.linalg.eigh(dense)
        groups.append((order[start:stop].reshape(-1, m), vecs, lam))
        start = stop
    return groups


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
    #: eigenvalues of H_s and V_s, zero-padded to cutoff+1: lams[s, :s+1] and
    #: vecs[s, :s+1, :s+1]
    pairs: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]

    @staticmethod
    def of(op: QuadOp, cutoff: int) -> "PassiveFactors":
        h = mode_matrix(op)
        coupled = sorted({(min(i, j), max(i, j)) for i, j in np.argwhere(h).tolist() if i != j})
        modes = [m for pair in coupled for m in pair]
        if len(modes) != len(set(modes)):
            raise ValueError("a passive generator may couple modes only in disjoint pairs, "
                             f"got couplings {[(i + 1, j + 1) for i, j in coupled]}")
        weights = np.zeros(4)
        for m in set(range(4)) - set(modes):
            weights[m] = h[m, m].real
        const = complex(op.scalar).real + 0.5 * float(weights.sum())
        pairs = []
        for i, j in coupled:
            a, b = h[i, i].real, h[j, j].real
            mu, w = np.linalg.eigh(h[np.ix_((i, j), (i, j))])
            lams, vecs = np.zeros((cutoff + 1,) * 2), np.zeros((cutoff + 1,) * 3, dtype=complex)
            v = np.ones((1, 1), dtype=complex)
            for s in range(cutoff + 1):
                if s:
                    v = _next_shell(v, w)
                k = np.arange(s + 1)
                lams[s, :s + 1] = mu[0] * k + mu[1] * (s - k) + (a + b) / 2
                vecs[s, :s + 1, :s + 1] = v
            pairs.append((i, j, lams, vecs))
        return PassiveFactors(weights, const, tuple(pairs))


def mode_matrix(op: QuadOp) -> np.ndarray:
    """h with op = c^dagger h c + scalar, for a number-keeping op: h[i-1, j-1]
    is the coefficient of C_ij = c_i^dagger c_j (C_ii = n_i + 1/2)."""
    h = np.zeros((4, 4), dtype=np.complex128)
    for elem, coeff in op.coeffs.items():
        if elem.kind is Kind.MIXED:
            h[elem.i - 1, elem.j - 1] = complex(coeff)
    return h


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


def _moves(kind: Kind, i, j, occ: np.ndarray, base: int) -> tuple:
    """(factor, offset): the element of ``kind`` on the 0-based modes (i, j),
    ints or arrays, takes a ket of occupations ``occ`` to sqrt(factor) times
    the ket whose key is its own plus offset (:func:`_keys` is linear).  Right
    to left, a ladder operator multiplies the factor by n+1 or n."""
    step_i, step_j = _LADDER_STEPS[kind]
    n_j = occ[..., j]
    n_i = occ[..., i] + step_j * np.equal(i, j)
    factor = (n_j + 1 if step_j > 0 else n_j) * (n_i + 1 if step_i > 0 else n_i)
    offset = (step_i + step_j) * base ** 4 + step_i * base ** (3 - i) + step_j * base ** (3 - j)
    return factor, offset


def _entries(op: QuadOp, basis: FockBasis, kets: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(values, (target basis indices, source positions in ``kets``)), the
    coordinate form of the entries of ``op`` on the basis kets ``kets``:
    coefficient order, then ket order, with the scalar last on the diagonal,
    unsummed.  An element moves every ket by the same photon-number steps, so
    a target's search key is its source's plus one offset (:func:`_moves`)."""
    occ, keys, positions = basis.occupations[kets], basis.keys[kets], np.arange(len(kets))
    parts = [(np.zeros(0, dtype=np.intp), positions[:0], np.zeros(0, dtype=np.complex128))]
    for elem, coeff in op.coeffs.items():
        step_i, step_j = _LADDER_STEPS[elem.kind]
        factor, offset = _moves(elem.kind, elem.i - 1, elem.j - 1, occ, basis.cutoff + 1)
        shift = 0.5 if elem.kind is Kind.MIXED and elem.i == elem.j else 0.0  # C_ii = n_i + 1/2
        keep = ((factor != 0) | (shift != 0)) & (basis.totals[kets] + step_i + step_j <= basis.cutoff)
        parts.append((np.searchsorted(basis.keys, keys[keep] + offset), positions[keep],
                      complex(coeff) * (np.sqrt(factor[keep]) + shift)))
    if complex(op.scalar) != 0.0:
        parts.append((kets, positions, np.full(len(kets), complex(op.scalar))))
    targets, sources, values = map(np.concatenate, zip(*parts))
    return values, (targets, sources)


#: (k, l) of the hopping c_k^dagger c_l, entry 4k + l of a raveled 4x4 mode matrix
_K, _L = np.divmod(np.arange(16), 4)
#: kets per group of whole shells over which :func:`second_moments` sums
HOPPING_KETS = 4096


def hopping(basis: FockBasis, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, slots, factors): the images c_k^dagger c_l |n> of the basis kets
    ``kets`` (ascending), entry 4k + l: ket s goes, times factors[s, 4k + l],
    to slot slots[s, 4k + l] of a raveled (rows.size + 1, 16) matrix, a row
    per key in ``rows`` (ascending, the kets reached) and a last one for
    vanishing images.  No image leaves its shell.  Built per call, as no
    table of them would pay: a session_sweep pass makes no call after its
    warm-up, whose three ladders make one each, and a cli_cold pass makes 9,
    one per readout, each in a fresh process."""
    factor, offset = _moves(Kind.MIXED, _K, _L, basis.occupations[kets], basis.cutoff + 1)
    hit = factor > 0
    rows, row = np.unique((basis.keys[kets][:, None] + offset)[hit], return_inverse=True)
    slots = np.full(factor.shape, rows.size)
    slots[hit] = row
    return rows, slots * 16 + np.arange(16), np.sqrt(factor)


def second_moments(basis: FockBasis, kets: np.ndarray,
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(grams, pairs) of the amplitudes ``x`` on the ascending basis kets
    ``kets``: grams[t], t = 0..cutoff, is the Gram matrix of the 16 vectors
    c_k^dagger c_l x_t for x_t the part of x on the t-photon shell, and
    pairs is Z_kl = <0|c_k c_l|x>.  No c_k^dagger c_l leaves a shell, so
    the Gram matrix of x is their sum.  They are read over groups of whole
    shells of about HOPPING_KETS kets, never holding a large state's
    vectors."""
    base, totals = basis.cutoff + 1, basis.totals[kets]
    grams = np.zeros((base, 16, 16), dtype=np.complex128)
    starts = sorted(set(np.searchsorted(totals, totals[::HOPPING_KETS]).tolist()))
    for start, stop in zip(starts, [*starts[1:], kets.size]):
        rows, slots, factors = hopping(basis, kets[start:stop])
        vectors = np.zeros((rows.size + 1, 16), dtype=np.complex128)
        vectors.ravel()[slots] = factors * x[start:stop, None]
        # an image's key leads with its photon number (_keys)
        bounds = np.searchsorted(rows // base ** 4, np.arange(base + 1))
        for t in range(totals[start], totals[stop - 1] + 1):
            shell = vectors[bounds[t]:bounds[t + 1]]
            grams[t] = shell.T.conj() @ shell
    occ = basis.occupations[kets[totals == 2]]
    pairs = x[totals == 2] @ np.sqrt(occ[:, _K] * (occ[:, _L] - (_K == _L)))
    return grams, pairs.reshape(4, 4)


def _largest_column_norm(values: np.ndarray, targets: np.ndarray, sources: np.ndarray) -> float:
    """The largest 2-norm of a column of the matrix of entries (values,
    (targets, sources)), duplicate entries summed first (a C_ii and the
    scalar both land on the diagonal)."""
    if not values.size:
        return 0.0
    width = int(targets.max()) + 1
    cells, index = np.unique(sources * width + targets, return_inverse=True)
    summed = np.bincount(index, values.real) + 1j * np.bincount(index, values.imag)
    return float(np.sqrt(np.max(np.bincount(cells // width, np.abs(summed) ** 2))))


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
    of :meth:`SparseOperator.restricted` as v + V expm1(i theta lam)
    V^dagger v, so small amplitudes keep their relative digits; on the
    vacuum ket a pair source's factor is its :class:`Ladder`, and the state
    is the vacuum amplitude times Q c.  :class:`EvolveError` when eps*|theta|
    times the largest |w| or |lam| on the kets, the rounding of the phases,
    exceeds :data:`ACCURACY` (for a pair source first on its column norms at
    the support), or its set-up exceeds :data:`MAX_DENSE`.
    """
    if generator.basis != state.basis:
        raise ValueError("operator built on a different basis")
    if not generator.hermitian:
        raise ValueError("evolution generator must be hermitian")
    passive = generator.passive
    if passive:
        generator.factors  # a generator coupling three modes raises here, whatever theta
    support = state.amps.astype(bool)
    if theta == 0.0 or not support.any():
        return StateVector(state.basis, state.amps.copy())
    kets, (weights, factors, _) = _set_up(generator, support, theta)
    v = state.amps[kets]
    if weights is not None:
        v = np.exp(1j * theta * weights) * v
    if passive:
        for factor, turn in zip(factors, generator.turns(theta)):
            _rotate_pair(v, factor, turn)
    elif isinstance(factors[0], Ladder):
        v = v[0] * (factors[0].q @ factors[0].amplitudes(theta))
    else:
        _rotate_components(v, factors[0], theta)
    amps = np.zeros(state.basis.dim, dtype=np.complex128)
    amps[kets] = v
    return StateVector(state.basis, amps)


def _set_up(generator: SparseOperator, support: np.ndarray,
            theta: float) -> tuple[np.ndarray, tuple]:
    """:meth:`SparseOperator.restricted` on ``support`` under the phase rule at
    theta.  A pair source on a new support meets it first on its largest
    column norm there, a lower bound of its largest |lam| (it is hermitian on
    the closure), so it fails before any set-up."""
    indices = np.flatnonzero(support)
    if not generator.passive and indices.tobytes() not in generator._supports:
        values, (targets, sources) = _entries(generator.op, generator.basis, indices)
        check_phase(theta, _largest_column_norm(values, targets, sources))
    kets, set_up = generator.restricted(support)
    check_phase(theta, set_up[2])
    return kets, set_up


def _rotate_pair(v: np.ndarray, factor: tuple, turn: np.ndarray) -> None:
    """v += W v in place on a pair factor's blocks (:func:`_pair_blocks`),
    W_s = V_s expm1(i theta lam_s) V_s^dagger (:meth:`SparseOperator.turns`):
    per block size, one ``numpy.matmul`` whose batch is the size's blocks,
    each a 1 x (s+1) row times W_s^T.  numpy makes that one BLAS
    vector-matrix product per block, with the same shapes and strides for
    every block of the size, so a block's bits depend on the BLAS build and
    the CPU but not on how many blocks share its size.  One (blocks, s+1)
    product would leave the rounding of each row to how the BLAS kernel
    tiles that many rows."""
    order, segments = factor
    x = v[order]
    out = np.empty_like(x)
    for start, stop, s in segments:
        np.matmul(x[start:stop].reshape(-1, 1, s + 1), turn[s, :s + 1, :s + 1],
                  out=out[start:stop].reshape(-1, 1, s + 1))
    v[order] = x + out


def _rotate_components(v: np.ndarray, factor: list, theta: float) -> None:
    """v += V expm1(i theta lam) V^dagger v in place on a pair source's
    components (:func:`_components`): two batched products per component
    size, each block with its own V."""
    for blocks, vecs, lam in factor:
        x = v[blocks][:, None, :]
        y = np.expm1(1j * theta * lam)[:, None, :] * (x.conj() @ vecs).conj()  # V^dagger x
        v[blocks] = (x + y @ vecs.swapaxes(1, 2))[:, 0]


def check_phase(theta: float, largest: float) -> None:
    """The phase rule of every stage: :class:`EvolveError` unless the rounding
    eps*|theta|*largest of its largest phase keeps :data:`ACCURACY`.  On
    Python floats, so no numpy warning; inf and nan fail."""
    if not sys.float_info.epsilon * abs(float(theta)) * float(largest) <= ACCURACY:
        raise EvolveError("the phase of a stage is too large for double precision; "
                          "reduce the stage parameter")


def expect_product(state: StateVector, ops: Sequence) -> complex:
    """<state| M_1 M_2 ... M_k |state> by right-to-left sparse application
    of ``matrix(M, basis).mat`` (scipy) for each QuadOp M; no command calls it."""
    if not ops:
        raise ValueError("expect_product requires at least one operator")
    norm = state.norm()
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized (norm {norm:.3e})")
    v = state.amps
    for op in reversed(list(ops)):
        v = matrix(op, state.basis).mat @ v
    return complex(np.vdot(state.amps, v))
