import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import (
    PAULI_I,
    build_F,
    build_G,
    class_phases,
    classify_gate,
    equiv_class,
    extract_rotation,
    is_gaussian_lambda,
    is_gaussian_state_lambda,
    jw_majorana,
    jw_set,
    magic_state,
    min_level,
    named_gate,
    random_fermionic,
    random_matchgate,
    random_two_qubit_at_root,
    two_qubit_min_level,
)
from matchgates.hierarchy import first_level_coeffs, level_membership, two_qubit_decompose
from reference import basis_state


def lambda_operator(n):
    """Dense pairing operator sum_mu c_mu (x) c_mu on 2n qubits: the test oracle
    of the Lambda commutator, which the package never materializes."""
    return sum(np.kron(c, c) for c in jw_set(n))


def test_first_level_round_trip():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(6)
    a /= np.linalg.norm(a)
    gate = np.tensordot(a, np.stack(jw_set(3)), axes=1)
    got = first_level_coeffs(gate)
    assert got is not None
    assert np.allclose(got, a, atol=1e-12)


def test_first_level_rejects_higher_gates():
    assert first_level_coeffs(named_gate("CZ")) is None
    assert first_level_coeffs(np.eye(4, dtype=complex)) is None


def test_extract_rotation_fswap_permutes_modes():
    r = extract_rotation(named_gate("FSWAP"))
    assert r is not None
    # mode pairs (1,2) and (3,4) swap places
    want = np.zeros((4, 4))
    want[0, 2] = want[1, 3] = want[2, 0] = want[3, 1] = 1.0
    assert np.allclose(r, want)


def test_extract_rotation_none_for_swap():
    assert extract_rotation(named_gate("SWAP")) is None


def test_lambda_operator_annihilates_vacuum_pair():
    lam = lambda_operator(1)
    psi = basis_state(1, 0)
    assert np.linalg.norm(lam @ np.kron(psi, psi)) < 1e-12


def test_gaussian_tests():
    assert is_gaussian_lambda(named_gate("FSWAP"))
    assert is_gaussian_lambda(jw_majorana(2, 2))
    assert not is_gaussian_lambda(named_gate("SWAP"))
    with pytest.raises(ValueError):
        is_gaussian_lambda(np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), PAULI_I))


def test_gaussian_state_tests():
    assert is_gaussian_state_lambda(basis_state(2, 0))
    bell = (basis_state(2, (0, 0)) + basis_state(2, (1, 1))) / np.sqrt(2)
    assert is_gaussian_state_lambda(bell)
    assert not is_gaussian_state_lambda(magic_state(named_gate("SWAP")).psi)


def test_min_levels_canonical():
    assert min_level(np.eye(4, dtype=complex)) == 2
    assert min_level(np.exp(0.37j) * np.eye(4)) == 2
    assert min_level(jw_majorana(2, 4)) == 1
    assert min_level(named_gate("SWAP")) == 3
    assert min_level(named_gate("CZ")) == 3
    assert min_level(named_gate("CPHASE", (np.pi / 4,))) == 5
    assert min_level(build_F((1, None, 1))) == 3


def test_min_level_none_above_cap():
    # level 5 gate probed only up to 4
    assert min_level(named_gate("CPHASE", (np.pi / 4,)), k_max=4) is None


def test_level_membership_nested():
    cz = named_gate("CZ")
    assert not level_membership(cz, 2)
    assert level_membership(cz, 3)
    assert level_membership(cz, 4)
    with pytest.raises(ValueError):
        level_membership(cz, 0)


def test_cost_guard():
    # a gate in none of the affordable levels 1..6 is refused at level 8;
    # the identity, at level 2, is answered from them
    generic = random_fermionic(8, np.random.default_rng(0))
    with pytest.raises(ValueError, match="guard"):
        level_membership(generic, 8)
    assert level_membership(np.eye(2**8, dtype=complex), 8)


def test_two_qubit_decompose_round_trip():
    rng = np.random.default_rng(9)
    even = random_matchgate(rng)
    blocks = two_qubit_decompose(even)
    assert blocks.parity == "even"
    assert np.allclose(build_G(blocks.a, blocks.b), even)
    odd = random_matchgate(rng, odd=True)
    blocks = two_qubit_decompose(odd)
    assert blocks.parity == "odd"
    with pytest.raises(ValueError):
        two_qubit_decompose(np.eye(8, dtype=complex))


def test_two_qubit_closed_form_canonical():
    assert two_qubit_min_level(jw_majorana(2, 1)) == 1
    assert two_qubit_min_level(np.eye(4, dtype=complex)) == 2
    assert two_qubit_min_level(named_gate("SWAP")) == 3
    assert two_qubit_min_level(named_gate("CPHASE", (np.pi / 8,))) == 6


def test_two_qubit_generic_phase_is_none():
    # half a step off the finest probed grid misses every coarser one too
    theta = (1_000_000 + 0.5) * 2 * np.pi / 2**28
    gate = named_gate("CPHASE", (theta,))
    assert two_qubit_min_level(gate) is None


@pytest.mark.parametrize("name", ["CZ", "GHH"])
def test_closed_form_refuses_perturbed_gates(name):
    # expm(i eps H) with eps = 1e-7 moves the phase off every root whose
    # spacing is well above ANGLE_TOL; finer grids must not claim it.
    h = np.array([0.3, -0.5, 0.2, 0.4])
    u = np.exp(1e-7j * h)[:, None] * named_gate(name)
    assert two_qubit_min_level(u) is None
    report = classify_gate(u)
    assert report.min_level is None and report.two_qubit["level_closed_form"] is None


def test_lambda_test_respects_kron_limit():
    # mixed parity, so only the size guard can produce the kron message
    u = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(128))
    with pytest.raises(ValueError, match=r"Lambda commutator would act on 16 qubits \(limit 15\)"):
        is_gaussian_lambda(u)


def test_equiv_class_cz():
    cls = equiv_class(named_gate("CZ"))
    assert abs(cls.phi - np.pi) < 1e-12
    assert abs(cls.generalised_phi - np.pi) < 1e-12
    assert cls.representative_name == f"CPHASE({np.pi!r})"


def test_equiv_class_folding():
    cls = equiv_class(named_gate("CPHASE", (3 * np.pi / 2,)))
    assert abs(cls.phi - 3 * np.pi / 2) < 1e-12
    assert abs(cls.generalised_phi - np.pi / 2) < 1e-12


def test_phi_invariant_under_matchgate_multiplication():
    rng = np.random.default_rng(21)
    cz = named_gate("CZ")
    for _ in range(5):
        m1 = random_matchgate(rng)
        m2 = random_matchgate(rng)
        cls = equiv_class(m1 @ cz @ m2)
        assert abs(cls.phi - np.pi) < 1e-9


def test_class_phases_table():
    t2 = class_phases(2)
    assert t2["even"] == [0.0] and t2["generalised"] == [0.0]
    t4 = class_phases(4)
    assert len(t4["even"]) == 4 and len(t4["generalised"]) == 3
    assert abs(t4["even"][1] - np.pi / 2) < 1e-15
    with pytest.raises(ValueError, match=r"^level must be >= 2, got 1$"):
        class_phases(1)


def test_classify_gate_reports():
    r = classify_gate(named_gate("CZ"))
    assert r.n_qubits == 2 and r.parity == "even"
    assert not r.is_gaussian and r.rotation is None
    assert r.min_level == 3
    assert r.two_qubit["level_closed_form"] == 3
    assert abs(r.two_qubit["phi"] - np.pi) < 1e-12
    d = r.to_json()
    assert d["min_level"] == 3 and d["rotation"] is None

    r = classify_gate(jw_majorana(2, 3))
    assert r.parity == "odd" and r.is_gaussian and r.min_level == 1
    assert r.rotation_det is not None and abs(r.rotation_det + 1) < 1e-9

    h = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), PAULI_I)
    r = classify_gate(h)
    assert r.parity == "none" and r.min_level is None and not r.is_gaussian
    assert r.two_qubit is None


def test_classify_rejects_nonunitary():
    with pytest.raises(ValueError):
        classify_gate(np.ones((4, 4), dtype=complex))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matchgates_are_gaussian_property(seed):
    rng = np.random.default_rng(seed)
    u = random_matchgate(rng, odd=bool(rng.integers(2)))
    r = extract_rotation(u)
    assert r is not None
    assert np.allclose(r @ r.T, np.eye(4), atol=1e-9)
    assert is_gaussian_lambda(u)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 5))
def test_planted_root_level_property(seed, k):
    rng = np.random.default_rng(seed)
    u = random_two_qubit_at_root(rng, k, j=1, odd=False)
    assert two_qubit_min_level(u) == k
    assert min_level(u, k_max=k) == k


def _closed_form_gates():
    rng = np.random.default_rng(30)
    planted = [random_two_qubit_at_root(rng, k, odd=odd) for k in range(2, 8) for odd in (False, True)]
    named = [named_gate("SWAP"), named_gate("CZ"), named_gate("FSWAP"), named_gate("CPHASE", (np.pi / 8,))]
    return planted + named


def test_closed_form_level_and_class_agree_with_the_classifier_bit_for_bit():
    for u in _closed_form_gates():
        t = classify_gate(u).two_qubit
        assert two_qubit_min_level(u) == t["level_closed_form"]
        cls = equiv_class(u)
        assert cls.phi.hex() == t["phi"].hex()
        assert cls.generalised_phi.hex() == t["generalised_phi"].hex()
        assert cls.representative_name == t["class_representative"]
