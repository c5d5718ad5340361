import dataclasses
import math
import warnings
from itertools import product

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
    random_fermionic,
)
from matchgates.linalg import PAULI_Y, PAULI_Z, norm_max
from matchgates.majorana import (
    CarReport,
    _parity_blocks,
    majorana_monomial,
    majorana_words,
    parity_sign,
    total_parity,
)
from reference import kron_majoranas, kron_parity


def test_jw_explicit_forms_two_modes():
    eye = np.eye(2)
    assert np.array_equal(jw_majorana(2, 1), np.kron(PAULI_X, eye))
    assert np.array_equal(jw_majorana(2, 2), np.kron(PAULI_Y, eye))
    assert np.array_equal(jw_majorana(2, 3), np.kron(PAULI_Z, PAULI_X))
    assert np.array_equal(jw_majorana(2, 4), np.kron(PAULI_Z, PAULI_Y))


def test_jw_index_bounds():
    with pytest.raises(ValueError):
        jw_majorana(2, 0)
    with pytest.raises(ValueError):
        jw_majorana(2, 5)


def test_dense_operators_refuse_more_than_max_qubits():
    # refused before the word table of 16 qubits is built
    with pytest.raises(ValueError, match=r"Majorana operator would act on 16 qubits \(limit 15\)"):
        jw_majorana(16, 1)
    with pytest.raises(ValueError, match=r"parity operator would act on 16 qubits \(limit 15\)"):
        total_parity(16)


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
    assert indices_from_mask(0b1001) == (1, 4)


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
        0b0110: -0.5j,  # c2 c3
        0b1001: 0.5j,  # c1 c4
        0b1111: -0.5,
    }
    assert set(poly.terms) == set(want)
    for mask, coeff in want.items():
        assert abs(poly.terms[mask] - coeff) < 1e-12


def test_expand_cz():
    # CZ = (1 - i c1 c2 - i c3 c4 + c1 c2 c3 c4) / 2
    poly = expand(named_gate("CZ"))
    want = {
        0: 0.5,
        0b0011: -0.5j,  # c1 c2
        0b1100: -0.5j,  # c3 c4
        0b1111: 0.5,
    }
    assert set(poly.terms) == set(want)
    for mask, coeff in want.items():
        assert abs(poly.terms[mask] - coeff) < 1e-12


def test_expand_round_trip():
    rng = np.random.default_rng(11)
    op = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    poly = expand(op)
    dense = sum(coef * majorana_monomial(3, mask) for mask, coef in poly.terms.items())
    assert np.allclose(dense, op, atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expand_refuses_an_operator_that_is_not_finite(bad):
    # a NaN operator expanded to no terms, which reads as the zero operator
    with pytest.raises(ValueError, match="^operator has an entry that is not finite$"):
        expand(np.array([[bad, 0], [0, 1]]))


def test_total_parity_and_gate_parity():
    assert np.array_equal(total_parity(2), np.kron(PAULI_Z, PAULI_Z))
    assert parity_of(named_gate("CZ")) == "even"
    assert parity_of(jw_majorana(2, 3)) == "odd"
    assert parity_of(np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))) == "none"
    assert parity_sign("even") == 1 and parity_sign("odd") == -1
    with pytest.raises(ValueError):
        parity_sign("none")


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
    poly = expand(a @ b)
    assert set(poly.terms) == {int(masks[0]) ^ int(masks[1])}
    assert abs(abs(next(iter(poly.terms.values()))) - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_word_table_reproduces_jordan_wigner(n):
    words = majorana_words(n)
    rows = np.arange(2**n)
    for mu, c in enumerate(kron_majoranas(n)):
        dense = np.zeros_like(c)
        dense[rows, rows ^ words.flip[mu]] = words.phase[mu]
        assert np.array_equal(dense, c)
    assert np.array_equal(np.diag(words.sign), kron_parity(n))
    assert np.array_equal(total_parity(n), kron_parity(n))


def _reference_car(ops, tol):
    """check_car as it was before it computed each square once."""
    n = len(ops) // 2
    eye2 = 2 * np.eye(2**n)
    worst, worst_pair, herm = 0.0, (1, 1), 0.0
    for i, a in enumerate(ops):
        herm = max(herm, norm_max(a - a.conj().T))
        for j in range(i, len(ops)):
            anti = a @ ops[j] + ops[j] @ a
            resid = norm_max(anti - (eye2 if i == j else 0.0))
            if resid > worst:
                worst, worst_pair = resid, (i + 1, j + 1)
    return CarReport(n, worst, worst_pair, herm, worst < tol)


@pytest.mark.parametrize("n", range(1, 8))
def test_car_report_equals_the_pairwise_reference(n):
    rng = np.random.default_rng(n)
    v = random_fermionic(n, rng, "odd")
    conjugated = [v.conj().T @ c @ v for c in jw_set(n)]
    noise = 1e-9 * (rng.normal(size=conjugated[0].shape) + 1j * rng.normal(size=conjugated[0].shape))
    scaled = list(conjugated)
    scaled[-1] = 1.001 * scaled[-1]  # the worst pair is a square
    mixed = list(conjugated)
    mixed[n - 1] = mixed[n - 1] + noise  # the worst pair may be off the diagonal
    swapped = list(conjugated)
    swapped[0] = conjugated[-1]  # a repeated Majorana
    reports = {}
    for name, ops in (("exact", conjugated), ("scaled", scaled), ("mixed", mixed), ("swapped", swapped)):
        reports[name] = check_car(ops, 1e-10)
        assert reports[name] == _reference_car(ops, 1e-10)
    assert reports["exact"].passed
    assert not reports["scaled"].passed and reports["scaled"].worst_pair == (2 * n, 2 * n)
    assert not reports["mixed"].passed and not reports["swapped"].passed


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_car_fails_a_tuple_whose_products_overflow(n):
    # every entry is finite, but every product overflows to a NaN residual
    v = random_fermionic(n, np.random.default_rng(n), "odd")
    huge = [1e160 * (v.conj().T @ c @ v) for c in jw_set(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_car(huge)
    assert not report.passed
    assert math.isnan(report.max_pair_residual) and report.worst_pair == (1, 1)


def _popcount_sectors(n):
    """The basis states of even and of odd popcount, in increasing order."""
    return np.array([[i for i in range(2**n) if bin(i).count("1") % 2 == s] for s in (0, 1)])


@pytest.mark.parametrize("n", range(1, 9))
def test_parity_block_table_matches_a_popcount_construction(n):
    table, states, dim, half = _parity_blocks(n), _popcount_sectors(n), 2**n, 2 ** (n - 1)
    assert np.array_equal(table.states, states)
    # the sectors partition the states, and the sector index inverts them
    assert sorted(table.states.ravel().tolist()) == list(range(dim))
    for s in (0, 1):
        assert np.array_equal(table.sector[states[s]], np.full(half, s))
        assert np.array_equal(table.rank[states[s]], np.arange(half))
    # the same-parity and other-parity entries are the halves not_equal.outer marks
    sign = np.array([(-1) ** bin(i).count("1") for i in range(dim)])
    other = np.not_equal.outer(sign, sign).ravel()
    assert sorted(table.entries[0].ravel().tolist()) == np.flatnonzero(~other).tolist()
    assert sorted(table.entries[1].ravel().tolist()) == np.flatnonzero(other).tolist()
    for p, s in product((0, 1), (0, 1)):  # rows in sector s, columns in sector s ^ p
        assert np.array_equal(table.entries[p, s], states[s][:, None] * dim + states[s ^ p])
    # each block gather reproduces V c_mu on its blocks
    rng = np.random.default_rng(n)
    v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for mu, c in enumerate(kron_majoranas(n)):
        vc = v @ c
        for r, t in product((0, 1), (0, 1)):
            block = v[np.ix_(states[r], states[1 - t])]
            got = block[:, table.gather[mu, t]] * table.gather_phase[mu, t]
            assert np.array_equal(got, vc[np.ix_(states[r], states[t])])
    # read-only, and built once
    assert not any(getattr(table, f.name).flags.writeable for f in dataclasses.fields(table))
    assert _parity_blocks(n) is table
