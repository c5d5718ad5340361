import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import (
    PAULI_X,
    check_car,
    expand,
    indices_from_mask,
    jw_majorana,
    jw_set,
    named_gate,
    parity_of,
)
from matchgates.linalg import PAULI_Y, PAULI_Z, kron
from matchgates.majorana import (
    MajoranaPoly,
    majorana_monomial,
    majorana_words,
    mask_from_indices,
    parity_decompose,
    parity_sign,
    poly_to_operator,
    state_parity,
    total_parity,
)


def test_jw_explicit_forms_two_modes():
    eye = np.eye(2)
    assert np.array_equal(jw_majorana(2, 1), kron(PAULI_X, eye))
    assert np.array_equal(jw_majorana(2, 2), kron(PAULI_Y, eye))
    assert np.array_equal(jw_majorana(2, 3), kron(PAULI_Z, PAULI_X))
    assert np.array_equal(jw_majorana(2, 4), kron(PAULI_Z, PAULI_Y))


def test_jw_index_bounds():
    with pytest.raises(ValueError):
        jw_majorana(2, 0)
    with pytest.raises(ValueError):
        jw_majorana(2, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_car_holds(n):
    report = check_car(jw_set(n), 1e-12)
    assert report.passed
    assert report.max_pair_residual < 1e-12
    assert report.max_hermiticity < 1e-12


def test_car_detects_violation():
    ops = jw_set(2)
    ops[3] = ops[0]  # duplicate anticommutes wrongly with itself-paired slots
    report = check_car(ops)
    assert not report.passed
    assert report.worst_pair is not None


def test_masks():
    assert mask_from_indices((2, 3)) == 0b0110
    assert indices_from_mask(0b1001) == (1, 4)
    with pytest.raises(ValueError):
        mask_from_indices((1, 1))


def test_monomial_ordering():
    # ascending index order defines the monomial
    c = jw_set(2)
    assert np.allclose(majorana_monomial(2, 0b0110), c[1] @ c[2])
    assert np.allclose(majorana_monomial(2, 0b1111), c[0] @ c[1] @ c[2] @ c[3])
    assert np.array_equal(majorana_monomial(2, 0), np.eye(4))


def test_expand_swap():
    # SWAP = (1 - i c2 c3 + i c1 c4 - c1 c2 c3 c4) / 2
    poly = expand(named_gate("SWAP"))
    want = {
        0: 0.5,
        mask_from_indices((2, 3)): -0.5j,
        mask_from_indices((1, 4)): 0.5j,
        mask_from_indices((1, 2, 3, 4)): -0.5,
    }
    assert set(poly.terms) == set(want)
    for mask, coeff in want.items():
        assert abs(poly.terms[mask] - coeff) < 1e-12


def test_expand_cz():
    # CZ = (1 - i c1 c2 - i c3 c4 + c1 c2 c3 c4) / 2
    poly = expand(named_gate("CZ"))
    want = {
        0: 0.5,
        mask_from_indices((1, 2)): -0.5j,
        mask_from_indices((3, 4)): -0.5j,
        mask_from_indices((1, 2, 3, 4)): 0.5,
    }
    assert set(poly.terms) == set(want)
    for mask, coeff in want.items():
        assert abs(poly.terms[mask] - coeff) < 1e-12


def test_expand_round_trip():
    rng = np.random.default_rng(11)
    op = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    poly = expand(op)
    assert np.allclose(poly_to_operator(poly), op, atol=1e-10)


def test_poly_json_round_trip():
    poly = expand(named_gate("SWAP"))
    again = MajoranaPoly.from_json(poly.to_json())
    assert again.n_modes == poly.n_modes
    assert set(again.terms) == set(poly.terms)
    for mask in poly.terms:
        assert abs(again.terms[mask] - poly.terms[mask]) < 1e-15


def test_prune_and_support():
    poly = MajoranaPoly(2, {0: 1.0, 3: 1e-15})
    pruned = poly.prune(1e-12)
    assert set(pruned.terms) == {0}
    assert poly.support() == {(), (1, 2)}


def test_total_parity_and_gate_parity():
    assert np.array_equal(total_parity(2), kron(PAULI_Z, PAULI_Z))
    assert parity_of(named_gate("CZ")) == "even"
    assert parity_of(jw_majorana(2, 3)) == "odd"
    assert parity_of(kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))) == "none"
    assert parity_sign("even") == 1 and parity_sign("odd") == -1
    with pytest.raises(ValueError):
        parity_sign("none")


def test_parity_decompose():
    op = named_gate("CZ") + jw_majorana(2, 1)
    even, odd = parity_decompose(op)
    assert np.allclose(even, named_gate("CZ"))
    assert np.allclose(odd, jw_majorana(2, 1))


def test_state_parity():
    from matchgates.linalg import basis_state

    assert state_parity(basis_state(2, (0, 0))) == "even"
    assert state_parity(basis_state(2, (0, 1))) == "odd"
    plus = (basis_state(2, (0, 0)) + basis_state(2, (0, 1))) / np.sqrt(2)
    assert state_parity(plus) == "none"


def test_conjugation_monomials_swap():
    # SWAP maps single Majoranas to weight-3 monomials; that is exactly
    # why it fails the Gaussian test.
    s = named_gate("SWAP")
    c = jw_set(2)
    assert np.allclose(s @ c[0] @ s, -1j * c[0] @ c[1] @ c[2])
    assert np.allclose(s @ c[2] @ s, -1j * c[0] @ c[2] @ c[3])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expand_preserves_products_property(seed):
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 16, size=2)
    a = majorana_monomial(2, int(masks[0]))
    b = majorana_monomial(2, int(masks[1]))
    # product of monomials is a single monomial on the xor mask, up to sign
    poly = expand(a @ b).prune()
    assert set(poly.terms) == {int(masks[0]) ^ int(masks[1])}
    assert abs(abs(next(iter(poly.terms.values()))) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_word_table_reproduces_jordan_wigner(n):
    words = majorana_words(n)
    rows = np.arange(2**n)
    for mu, c in enumerate(jw_set(n)):
        dense = np.zeros_like(c)
        dense[rows, rows ^ words.flip[mu]] = words.phase[mu]
        assert np.array_equal(dense, c)
    assert np.array_equal(np.diag(words.sign), total_parity(n))
    assert np.array_equal(words.same_parity, np.outer(words.sign, words.sign) > 0)
