"""Named catalog of every generator used by the Bell-test pipelines.

Mode map (fixed throughout): a+ -> 1, a- -> 2, b+ -> 3, b- -> 4.  In the
wave-vector-entangled interferometer the same four indices label the four
wave-vector channels via k1 -> 1, k2 -> 3, k3 -> 4, k4 -> 2, which lets a
single catalog serve both geometries.

Families:

* ``J_{x,y,z}_{ij}``  — su(2) two-boson realizations (passive optics),
* ``K_{x,y,z}_{i}``   — su(1,1) one-boson realizations (degenerate pair
  generation),
* ``K_{x,y,z}_{ij}``  — su(1,1) two-boson realizations (nondegenerate
  pair generation),
* ``K_x, K_y, K_z``   — the four-boson su(1,1) triple whose ``K_x``
  generates the polarization singlet,
* named composites (``J_BS``, ``J_PS``, ``J_a``, ``J_b``, ``K``, ``J``,
  ``L``, primed variants, ``K_OM`` family, measurement operators, and the
  derived conjugation basis).

``L_z`` carries a wart: the conventional tabulation of this operator is
not hermitian (its B-block is not the conjugate of its A-block).  The
catalog keeps that form unchanged because ``tests/test_adjoint.py``
measures, rather than assumes, the coefficients that actually appear when
su(1,1) squeezing acts on the difference operators, through the float
reference conjugation ``oracles.expm_conjugate``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .rational import CRat, HALF, QUARTER, I, ONE
from .algebra import A, B, C, ClosureTable, JKL_TABLE, MODES, QuadOp, SU2_TABLE, SU11_TABLE

MODE_PAIRS = tuple((i, j) for i in MODES for j in MODES if i < j)


class UnknownGeneratorError(KeyError):
    """Raised by :func:`catalog` for names not in the table."""


def j_x(i: int, j: int) -> QuadOp:
    return QuadOp.make({C(i, j): HALF, C(j, i): HALF})


def j_y(i: int, j: int) -> QuadOp:
    # (c_i^† c_j - c_j^† c_i) / 2i
    half_over_i = HALF / I
    return QuadOp.make({C(i, j): half_over_i, C(j, i): -half_over_i})


def j_z(i: int, j: int) -> QuadOp:
    return QuadOp.make({C(i, i): HALF, C(j, j): -HALF})


def k_x_one(i: int) -> QuadOp:
    return QuadOp.make({A(i, i): QUARTER, B(i, i): QUARTER})


def k_y_one(i: int) -> QuadOp:
    quarter_over_i = QUARTER / I
    return QuadOp.make({A(i, i): quarter_over_i, B(i, i): -quarter_over_i})


def k_z_one(i: int) -> QuadOp:
    return QuadOp.make({C(i, i): HALF})


def k_x_two(i: int, j: int) -> QuadOp:
    return QuadOp.make({A(i, j): HALF, B(i, j): HALF})


def k_y_two(i: int, j: int) -> QuadOp:
    half_over_i = HALF / I
    return QuadOp.make({A(i, j): half_over_i, B(i, j): -half_over_i})


def k_z_two(i: int, j: int) -> QuadOp:
    return QuadOp.make({C(i, i): HALF, C(j, j): HALF})


def _number_op(*modes: int) -> QuadOp:
    """Sum of photon-number operators n_i = C_ii - 1/2 over given modes."""
    return QuadOp.make({C(m, m): ONE for m in modes},
                       CRat.of(Fraction(-len(modes), 2)))


def _build() -> dict[str, QuadOp]:
    half_over_i = HALF / I
    cat: dict[str, QuadOp] = {}

    for (i, j) in MODE_PAIRS:
        cat[f"J_x_{i}{j}"] = j_x(i, j)
        cat[f"J_y_{i}{j}"] = j_y(i, j)
        cat[f"J_z_{i}{j}"] = j_z(i, j)
    for i in MODES:
        cat[f"K_x_{i}"] = k_x_one(i)
        cat[f"K_y_{i}"] = k_y_one(i)
        cat[f"K_z_{i}"] = k_z_one(i)
    for (i, j) in MODE_PAIRS:
        cat[f"K_x_{i}{j}"] = k_x_two(i, j)
        cat[f"K_y_{i}{j}"] = k_y_two(i, j)
        cat[f"K_z_{i}{j}"] = k_z_two(i, j)

    # four-boson su(1,1) triple; K_x creates the singlet pair combination
    cat["K_x"] = cat["K_x_14"] - cat["K_x_23"]
    cat["K_y"] = cat["K_y_14"] - cat["K_y_23"]
    cat["K_z"] = cat["K_z_14"] + cat["K_z_23"]

    # passive optical elements
    cat["J_BS"] = cat["J_x_13"] + cat["J_x_24"]   # polarization-independent a<->b mixer
    cat["J_PS"] = cat["J_z_13"] + cat["J_z_24"]   # polarization-independent phase shifter
    cat["J_a"] = cat["J_x_12"]                    # polarization rotator, channel a
    cat["J_b"] = cat["J_x_34"]                    # polarization rotator, channel b
    # 50/50 mixer pairing modes (1,2) and (3,4) with the real-rotation phase
    # convention; this is the wavelength-independent beam splitter of the
    # wave-vector interferometer, expressed in relabeled modes.
    cat["J_BS_wv"] = cat["J_y_12"] + cat["J_y_34"]

    # ideal-test su(1,1) triple
    cat["K"] = cat["K_x"]
    cat["J"] = cat["J_a"] - cat["J_b"]
    cat["L"] = QuadOp.make({
        A(2, 4): half_over_i, A(1, 3): -half_over_i,
        B(2, 4): -half_over_i, B(1, 3): half_over_i,
    })

    # wave-vector-test su(1,1) triple
    cat["K_prime"] = QuadOp.make({A(1, 4): HALF, A(2, 3): HALF,
                                  B(1, 4): HALF, B(2, 3): HALF})
    cat["J_PS_a"] = cat["J_z_12"]
    cat["J_PS_b"] = cat["J_z_34"]
    cat["J_prime"] = cat["J_PS_a"] - cat["J_PS_b"]
    cat["L_prime"] = QuadOp.make({
        A(1, 4): half_over_i, A(2, 3): -half_over_i,
        B(1, 4): -half_over_i, B(2, 3): half_over_i,
    })

    # post-selected test: type-I pair generation and its conjugated split
    cat["K_OM"] = cat["K_x_13"]
    cat["K_OM_1"] = QuadOp.make({A(2, 3): QUARTER, A(1, 4): -QUARTER,
                                 B(2, 3): QUARTER, B(1, 4): -QUARTER})
    cat["K_OM_2"] = QuadOp.make({A(3, 4): QUARTER, A(1, 2): -QUARTER,
                                 B(3, 4): QUARTER, B(1, 2): -QUARTER})
    cat["K_OM_prime"] = cat["K_OM_1"] + cat["K_OM_2"]

    # measurement operators (intensity differences/sums per channel)
    cat["sigma_z_a"] = QuadOp.make({C(1, 1): ONE, C(2, 2): -ONE})
    cat["sigma_z_b"] = QuadOp.make({C(3, 3): ONE, C(4, 4): -ONE})
    cat["sigma_0_a"] = _number_op(1, 2)
    cat["sigma_0_b"] = _number_op(3, 4)
    # sigma_y convention: (sigma_y)_a = -i(a+^† a- - a-^† a+) = 2 J_y_12,
    # checked numerically by the polarizer-rotation identity tests.
    cat["sigma_y_a"] = 2 * cat["J_y_12"]
    cat["sigma_y_b"] = 2 * cat["J_y_34"]

    # derived basis used in the squeezing-conjugation analysis
    cat["J_z_plus"] = cat["sigma_z_a"] + cat["sigma_z_b"]
    cat["J_z_minus"] = cat["sigma_z_a"] - cat["sigma_z_b"]
    cat["J_y_plus"] = cat["sigma_y_a"] + cat["sigma_y_b"]
    cat["J_y_minus"] = cat["sigma_y_a"] - cat["sigma_y_b"]
    cat["N_0_plus"] = cat["sigma_0_a"] + cat["sigma_0_b"]
    cat["N_0_minus"] = cat["sigma_0_a"] - cat["sigma_0_b"]
    # conventional sinh-partner tabulations (L_z wart: see module docstring)
    cat["L_z"] = QuadOp.make({
        A(1, 4): half_over_i, A(2, 3): half_over_i,
        B(1, 4): -half_over_i, B(2, 3): half_over_i,
    })
    cat["L_y"] = QuadOp.make({A(2, 4): HALF, A(1, 3): HALF,
                              B(2, 4): HALF, B(1, 3): HALF})
    cat["L_0"] = QuadOp.make({
        A(1, 4): -half_over_i, A(2, 3): half_over_i,
        B(1, 4): half_over_i, B(2, 3): -half_over_i,
    })
    return cat


@lru_cache(maxsize=1)
def _catalog() -> dict[str, QuadOp]:
    return _build()


def catalog(name: str) -> QuadOp:
    """Return the named generator; raises listing valid names otherwise."""
    table = _catalog()
    try:
        return table[name]
    except KeyError:
        raise UnknownGeneratorError(
            f"unknown generator {name!r}; valid names: {', '.join(sorted(table))}"
        ) from None


def names() -> tuple[str, ...]:
    return tuple(_catalog())


#: entries that are exponentiated as Hamiltonians somewhere in the artifact;
#: each must be exactly hermitian (enforced by tests and verify-algebra).
HAMILTONIAN_GENERATORS: tuple[str, ...] = tuple(
    name for name in (
        [f"J_{c}_{i}{j}" for (i, j) in MODE_PAIRS for c in "xyz"]
        + [f"K_{c}_{i}" for i in MODES for c in "xyz"]
        + [f"K_{c}_{i}{j}" for (i, j) in MODE_PAIRS for c in "xyz"]
        + ["K_x", "K_y", "K_z", "J_BS", "J_PS", "J_a", "J_b", "J_BS_wv",
           "K", "J", "L", "K_prime", "J_PS_a", "J_PS_b", "J_prime", "L_prime",
           "K_OM", "K_OM_1", "K_OM_2", "K_OM_prime"]
    )
)


#: the named subalgebras whose commutation tables are checked exactly:
#: (label, generator names, structure-constant table)
CLOSURE_SUITE: tuple[tuple[str, tuple[str, ...], ClosureTable], ...] = (
    *((f"su2({i}{j})", tuple(f"J_{c}_{i}{j}" for c in "xyz"), SU2_TABLE)
      for (i, j) in MODE_PAIRS),
    *((f"su11({i})", tuple(f"K_{c}_{i}" for c in "xyz"), SU11_TABLE) for i in MODES),
    *((f"su11({i}{j})", tuple(f"K_{c}_{i}{j}" for c in "xyz"), SU11_TABLE)
      for (i, j) in MODE_PAIRS),
    ("su11(4boson)", ("K_x", "K_y", "K_z"), SU11_TABLE),
    ("jkl", ("J", "K", "L"), JKL_TABLE),
    ("jkl'", ("J_prime", "K_prime", "L_prime"), JKL_TABLE),
)


def _crat_fields(value: CRat) -> dict:
    return {
        "re_num": value.re.numerator, "re_den": value.re.denominator,
        "im_num": value.im.numerator, "im_den": value.im.denominator,
    }


def dump_entry(name: str) -> dict:
    """One catalog entry in the documented JSON shape."""
    op = catalog(name)
    return {
        "name": name,
        "hermitian": op.is_hermitian(),
        "coefficients": [
            {"kind": elem.kind.value, "i": elem.i, "j": elem.j, **_crat_fields(coeff)}
            for elem, coeff in op.terms()
        ],
        "scalar": _crat_fields(op.scalar),
    }


def dump_catalog() -> list[dict]:
    return [dump_entry(name) for name in names()]
