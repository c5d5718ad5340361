import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import HADAMARD, circuit_to_operator, equal_up_to_phase, named_gate, parse_circuit
from matchgates import circuits, hierarchy, majorana, teleport
from matchgates.linalg import (
    ANGLE_TOL,
    DEFAULT_TOL,
    NORM_TOL,
    UNITARY_TOL,
    Tolerances,
    _cached,
    assert_unitary,
    canonical_phase,
    identity,
    is_unitary,
    n_qubits_of,
    norm_max,
)
from reference import basis_state


def test_n_qubits_of():
    assert n_qubits_of(np.eye(8)) == 3
    assert n_qubits_of(np.zeros(4)) == 2
    with pytest.raises(ValueError):
        n_qubits_of(np.zeros(6))


def test_embed_two_qubit_fswap_sign():
    # fermionic SWAP of the middle pair picks up the (-1)^(xy) phase
    op = circuit_to_operator(parse_circuit("qubits 4\nFSWAP @ 2\n"))
    v = op @ basis_state(4, (0, 1, 1, 0))
    assert np.allclose(v, -basis_state(4, (0, 1, 1, 0)))
    w = op @ basis_state(4, (1, 0, 1, 1))
    assert np.allclose(w, basis_state(4, (1, 1, 0, 1)))


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
    for value in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(ValueError, match="tolerance 'residual' must be finite and strictly positive"):
            Tolerances(residual=value)


def test_epsilon_is_the_only_settable_tolerance():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["residual"]
    assert DEFAULT_TOL.residual == 1e-9
    assert (UNITARY_TOL, NORM_TOL, ANGLE_TOL) == (1e-9, 1e-12, 1e-8)


@dataclasses.dataclass(frozen=True)
class _Table:
    values: np.ndarray
    size: int


def test_the_cache_rule_builds_once_and_freezes_every_array():
    calls = []

    @_cached
    def build(kind):
        """A builder of every shape the rule freezes."""
        calls.append(kind)
        if kind == "alone":
            return np.zeros(3)
        if kind == "tuple":
            return np.zeros(3), None, (1, 2)
        if kind == "dataclass":
            return _Table(np.zeros(3), 3)
        raise ValueError(f"no table of kind {kind!r}")

    # the lru_cache wrapper itself, named and documented as the builder
    assert isinstance(build, functools._lru_cache_wrapper)
    assert build.__name__ == "build" and build.__doc__.startswith("A builder")
    for kind, array in [("alone", lambda t: t), ("tuple", lambda t: t[0]), ("dataclass", lambda t: t.values)]:
        table = build(kind)
        assert build(kind) is table
        assert not array(table).flags.writeable
    assert calls == ["alone", "tuple", "dataclass"]
    # a refusal is not cached: it is raised again on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="no table of kind 'none'"):
            build("none")
    assert calls[3:] == ["none", "none"]
    assert build.cache_info().currsize == 3


def test_every_memoised_builder_follows_the_cache_rule():
    builders = [
        majorana.majorana_words,
        majorana._jw_stack,
        majorana._word_gathers,
        majorana._parity_blocks,
        majorana._support_entries,
        majorana._block_gathers,
        teleport._network,
        teleport._byproducts,
        hierarchy._root_bits,
        circuits.build_bn,
    ]
    assert all(isinstance(b, functools._lru_cache_wrapper) for b in builders)
    assert circuits.build_bn(2) is circuits.build_bn(2)
    words = majorana.majorana_words(2)
    assert not any(a.flags.writeable for a in (words.flip, words.phase, words.sign))


def test_norm_max():
    assert norm_max(np.array([[1, -3j], [2, 0]])) == 3.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 2 * np.pi))
def test_phase_equivalence_property(seed, theta):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    m = equal_up_to_phase(np.exp(1j * theta) * a, a, 1e-9)
    assert m.equal and m.residual < 1e-9
