"""Generator catalog: contents, exact coefficients, closure tables."""

import json
from fractions import Fraction

import pytest

from bellsim.algebra import A, B, C, MODES, QuadOp, commutator, verify_closure
from bellsim.catalog import (
    CLOSURE_SUITE,
    HAMILTONIAN_GENERATORS,
    MODE_PAIRS,
    UnknownGeneratorError,
    catalog,
    dump_catalog,
    dump_entry,
    names,
)
from bellsim.rational import CRat, HALF, I, ONE, QUARTER


REQUIRED_NAMES = (
    [f"J_{c}_{i}{j}" for (i, j) in MODE_PAIRS for c in "xyz"]
    + [f"K_{c}_{i}" for i in MODES for c in "xyz"]
    + [f"K_{c}_{i}{j}" for (i, j) in MODE_PAIRS for c in "xyz"]
    + ["K_x", "K_y", "K_z", "J_BS", "J_PS", "J_a", "J_b",
       "K", "J", "L", "K_prime", "J_prime", "L_prime", "J_PS_a", "J_PS_b",
       "K_OM", "K_OM_prime", "K_OM_1", "K_OM_2",
       "sigma_z_a", "sigma_z_b", "sigma_0_a", "sigma_0_b", "sigma_y_a", "sigma_y_b",
       "J_z_plus", "J_z_minus", "J_y_plus", "J_y_minus", "N_0_plus", "N_0_minus",
       "L_z", "L_y", "L_0"]
)


def test_required_names_present():
    missing = [n for n in REQUIRED_NAMES if n not in names()]
    assert not missing


def test_unknown_name_lists_valid_names():
    with pytest.raises(UnknownGeneratorError) as err:
        catalog("K_bogus")
    assert "K_x" in str(err.value)


# ---------------------------------------------------------------------------
# exact coefficient spot checks
# ---------------------------------------------------------------------------

def test_singlet_source_generator():
    expected = QuadOp.make({A(1, 4): HALF, A(2, 3): -HALF, B(1, 4): HALF, B(2, 3): -HALF})
    assert catalog("K") == expected
    assert catalog("K") == catalog("K_x")


def test_beam_splitter_generator():
    expected = QuadOp.make({C(1, 3): HALF, C(3, 1): HALF, C(2, 4): HALF, C(4, 2): HALF})
    assert catalog("J_BS") == expected


def test_phase_shifter_generator():
    expected = QuadOp.make({C(1, 1): HALF, C(3, 3): -HALF, C(2, 2): HALF, C(4, 4): -HALF})
    assert catalog("J_PS") == expected


def test_intensity_operators():
    assert catalog("sigma_z_a") == QuadOp.make({C(1, 1): ONE, C(2, 2): -ONE})
    assert catalog("sigma_z_a").scalar.is_zero()
    # photon-number sums need the -1 scalar because C_ii = n_i + 1/2
    assert catalog("sigma_0_a") == QuadOp.make({C(1, 1): ONE, C(2, 2): ONE},
                                               CRat.of(-1))


def test_wavevector_pair_generator():
    expected = QuadOp.make({A(1, 4): HALF, A(2, 3): HALF, B(1, 4): HALF, B(2, 3): HALF})
    assert catalog("K_prime") == expected


def test_om_split_is_exact():
    assert catalog("K_OM") == catalog("K_x_13")
    assert catalog("K_OM_prime") == catalog("K_OM_1") + catalog("K_OM_2")
    k1 = QuadOp.make({A(2, 3): QUARTER, A(1, 4): -QUARTER,
                      B(2, 3): QUARTER, B(1, 4): -QUARTER})
    assert catalog("K_OM_1") == k1


def test_one_boson_squeezers():
    assert catalog("K_x_1") == QuadOp.make({A(1, 1): QUARTER, B(1, 1): QUARTER})
    assert catalog("K_z_1") == QuadOp.make({C(1, 1): HALF})


def test_four_boson_sums():
    assert catalog("K_x") == catalog("K_x_14") - catalog("K_x_23")
    assert catalog("K_y") == catalog("K_y_14") - catalog("K_y_23")
    assert catalog("K_z") == catalog("K_z_14") + catalog("K_z_23")


def test_difference_generators():
    assert catalog("J") == catalog("J_a") - catalog("J_b")
    assert catalog("J_prime") == catalog("J_PS_a") - catalog("J_PS_b")
    assert catalog("J_z_minus") == catalog("sigma_z_a") - catalog("sigma_z_b")
    assert catalog("N_0_plus") == catalog("sigma_0_a") + catalog("sigma_0_b")


def test_sigma_y_convention():
    half_i = HALF / I
    expected = 2 * QuadOp.make({C(1, 2): half_i, C(2, 1): -half_i})
    assert catalog("sigma_y_a") == expected


# ---------------------------------------------------------------------------
# hermiticity
# ---------------------------------------------------------------------------

def test_hamiltonian_generators_are_hermitian():
    bad = [n for n in HAMILTONIAN_GENERATORS if not catalog(n).is_hermitian()]
    assert not bad


def test_measurement_operators_are_hermitian():
    for n in ("sigma_z_a", "sigma_z_b", "sigma_0_a", "sigma_0_b",
              "sigma_y_a", "sigma_y_b", "J_z_plus", "J_z_minus",
              "J_y_plus", "J_y_minus", "N_0_plus", "N_0_minus", "L_y", "L_0"):
        assert catalog(n).is_hermitian(), n


def test_tabulated_lz_is_not_hermitian():
    # kept verbatim as tabulated; its B block is not the
    # conjugate of its A block, and the conjugation tests measure the
    # hermitian combination that actually appears
    assert not catalog("L_z").is_hermitian()


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label, gens, table", CLOSURE_SUITE,
                         ids=[label for label, _, _ in CLOSURE_SUITE])
def test_subalgebra_closes(label, gens, table):
    assert verify_closure([catalog(g) for g in gens], table).ok, label


def test_equal_rotations_commute_with_source():
    assert commutator(catalog("K"), catalog("J_a") + catalog("J_b")).is_zero()


# ---------------------------------------------------------------------------
# JSON dump
# ---------------------------------------------------------------------------

def test_dump_entry_shape():
    entry = dump_entry("K")
    assert entry["name"] == "K"
    assert entry["hermitian"] is True
    kinds = {(c["kind"], c["i"], c["j"]) for c in entry["coefficients"]}
    assert kinds == {("A", 1, 4), ("A", 2, 3), ("B", 1, 4), ("B", 2, 3)}
    for c in entry["coefficients"]:
        assert {"re_num", "re_den", "im_num", "im_den"} <= set(c)
        assert Fraction(c["re_num"], c["re_den"]) in (Fraction(1, 2), Fraction(-1, 2))
        assert c["im_num"] == 0
    assert entry["scalar"] == {"re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1}


def test_dump_catalog_roundtrips_to_json():
    payload = dump_catalog()
    text = json.dumps(payload)
    names_back = [e["name"] for e in json.loads(text)]
    assert names_back == list(names())


def test_scalar_survives_dump():
    entry = dump_entry("sigma_0_a")
    assert entry["scalar"] == {"re_num": -1, "re_den": 1, "im_num": 0, "im_den": 1}
