import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import HADAMARD, PAULI_X, equal_up_to_phase, named_gate
from matchgates.linalg import (
    PAULI_Z,
    Tolerances,
    assert_unitary,
    basis_state,
    canonical_phase,
    embed_one_qubit,
    embed_two_qubit,
    identity,
    is_unitary,
    kron,
    kron_all,
    n_qubits_of,
    norm_max,
)


def test_basis_state_bits_and_index_agree():
    # |011> : qubit 1 is the most significant bit
    v = basis_state(3, (0, 1, 1))
    assert v[0b011] == 1.0
    assert np.array_equal(v, basis_state(3, 3))


def test_basis_state_rejects_bad_bits():
    with pytest.raises(ValueError):
        basis_state(2, (0, 2))
    with pytest.raises(ValueError):
        basis_state(2, 4)


def test_n_qubits_of():
    assert n_qubits_of(np.eye(8)) == 3
    assert n_qubits_of(np.zeros(4)) == 2
    with pytest.raises(ValueError):
        n_qubits_of(np.zeros(6))


def test_kron_ordering():
    # X on qubit 1 of two flips the most significant bit
    op = kron(PAULI_X, np.eye(2))
    assert np.array_equal(op @ basis_state(2, (0, 1)), basis_state(2, (1, 1)))
    assert np.array_equal(kron_all([PAULI_X, PAULI_Z]), np.kron(PAULI_X, PAULI_Z))


def test_embed_one_qubit():
    n = 3
    for k in (1, 2, 3):
        op = embed_one_qubit(PAULI_X, k, n)
        bits = [0, 0, 0]
        bits[k - 1] = 1
        assert np.array_equal(op @ basis_state(n, (0, 0, 0)), basis_state(n, bits))


def test_embed_two_qubit_fswap_sign():
    # fermionic SWAP of the middle pair picks up the (-1)^(xy) phase
    op = embed_two_qubit(named_gate("FSWAP"), 2, 4)
    v = op @ basis_state(4, (0, 1, 1, 0))
    assert np.allclose(v, -basis_state(4, (0, 1, 1, 0)))
    w = op @ basis_state(4, (1, 0, 1, 1))
    assert np.allclose(w, basis_state(4, (1, 1, 0, 1)))


def test_embed_rejects_out_of_range():
    with pytest.raises(ValueError):
        embed_one_qubit(PAULI_X, 4, 3)
    with pytest.raises(ValueError):
        embed_two_qubit(named_gate("CZ"), 3, 3)


def test_is_unitary_and_assert():
    assert is_unitary(HADAMARD)
    assert not is_unitary(2 * HADAMARD)
    with pytest.raises(ValueError, match="not unitary"):
        assert_unitary(2 * HADAMARD)


def test_identity():
    assert np.array_equal(identity(2), np.eye(4))


def test_equal_up_to_phase_recovers_phase():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    phase = np.exp(0.73j)
    m = equal_up_to_phase(phase * a, a)
    assert m.equal
    assert abs(m.phase - phase) < 1e-12
    assert m.residual < 1e-12


def test_equal_up_to_phase_orthogonal():
    m = equal_up_to_phase(basis_state(1, 0), basis_state(1, 1))
    assert not m.equal
    assert m.phase is None


def test_equal_up_to_phase_matrices():
    u = named_gate("CZ")
    assert equal_up_to_phase(1j * u, u).equal
    assert not equal_up_to_phase(u, named_gate("SWAP")).equal


def test_canonical_phase_pivot_real_positive():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w = canonical_phase(v)
    pivot = w[np.argmax(np.abs(w))]
    assert abs(pivot.imag) < 1e-12 and pivot.real > 0
    # idempotent, and phase-invariant
    assert np.allclose(canonical_phase(np.exp(2.1j) * v), w)


def test_canonical_phase_zero_rejected():
    with pytest.raises(ValueError):
        canonical_phase(np.zeros(4, dtype=complex))


def test_tolerances_positive():
    with pytest.raises(ValueError):
        Tolerances(residual=-1e-9)


def test_norm_max():
    assert norm_max(np.array([[1, -3j], [2, 0]])) == 3.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 2 * np.pi))
def test_phase_equivalence_property(seed, theta):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    m = equal_up_to_phase(np.exp(1j * theta) * a, a, 1e-9)
    assert m.equal and m.residual < 1e-9
