import numpy as np
import pytest

from matchgates import (
    jw_majorana,
    jw_set,
    magic_state,
    min_level,
    named_gate,
    random_state,
    simulate_protocol,
    verify_protocol,
)
from matchgates.io import dumps_stable
from matchgates.linalg import basis_state, is_unitary
from matchgates.majorana import state_parity
from matchgates.teleport import correction_K, correction_R


def test_correction_k_identity_outcome():
    assert np.array_equal(correction_K((0, 0, 0, 0), 2), np.eye(4))


def test_correction_k_single_bit():
    # outcome 1000 contributes -i c2
    assert np.allclose(correction_K((1, 0, 0, 0), 2), -1j * jw_majorana(2, 2))
    # outcome 0100 contributes c1 with no phase
    assert np.allclose(correction_K((0, 1, 0, 0), 2), jw_majorana(2, 1))


def test_correction_k_all_unitary_with_outcome_parity():
    from matchgates import parity_of

    for zi in range(16):
        z = tuple((zi >> (3 - b)) & 1 for b in range(4))
        k = correction_K(z, 2)
        assert is_unitary(k)
        want = "even" if sum(z) % 2 == 0 else "odd"
        assert parity_of(k) == want


def test_correction_k_validates_length():
    with pytest.raises(ValueError):
        correction_K((0, 1, 0), 2)
    with pytest.raises(ValueError):
        correction_K((0, 2, 0, 0), 2)


def test_correction_r_conjugates():
    u = named_gate("CZ")
    z = (1, 0, 1, 1)
    k = correction_K(z, 2)
    assert np.allclose(correction_R(z, u), u @ k.conj().T @ u.conj().T)


def test_magic_state_parities():
    m = magic_state(named_gate("CZ"))
    assert m.n == 2 and m.parity == "even" and m.parity_sign == 1
    m = magic_state(jw_majorana(1, 1))  # X on one qubit, an odd gate
    assert m.n == 1 and m.parity == "odd" and m.parity_sign == -1
    assert abs(np.linalg.norm(m.psi) - 1) < 1e-12


def test_magic_state_rejects_mixed_parity():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(ValueError):
        magic_state(h)


def test_protocol_identity_single_qubit():
    t = simulate_protocol(np.eye(2, dtype=complex), basis_state(1, 0))
    assert len(t.branches) == 4
    for b in t.branches:
        assert abs(b.probability - 0.25) < 1e-12
        assert b.residual_vs_target < 1e-12


def test_branch_raw_state_is_u_k_psi():
    # before correction, branch z holds exactly U K_z |psi>
    u = named_gate("CZ")
    rng = np.random.default_rng(17)
    psi = random_state(2, rng)
    t = simulate_protocol(u, psi)
    for b in t.branches:
        want = u @ correction_K(b.z, 2) @ psi
        assert np.linalg.norm(b.raw_state - want) < 1e-12


def test_protocol_corrections_exact_including_phase():
    u = named_gate("CPHASE", (np.pi / 2,))
    rng = np.random.default_rng(23)
    psi = random_state(2, rng)
    t = simulate_protocol(u, psi)
    target = u @ psi
    for b in t.branches:
        assert np.linalg.norm(b.corrected - target) < 1e-12
        assert abs(b.phase - 1.0) < 1e-12


def test_protocol_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        simulate_protocol(np.eye(2, dtype=complex), 2 * basis_state(1, 0))


def test_protocol_rejects_mixed_parity_gate():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(ValueError):
        simulate_protocol(h, basis_state(1, 0))


def test_verify_protocol_report():
    rep = verify_protocol(named_gate("CZ"), trials=2, seed=1)
    assert rep.passed
    assert rep.branch_count == 16
    assert rep.max_residual < 1e-9
    # corrections of a level-3 gate stay at level <= 2
    assert all(lvl is not None and lvl <= 2 for lvl, _ in rep.correction_levels)
    assert sum(cnt for _, cnt in rep.correction_levels) == 16


def test_verify_protocol_deterministic():
    a = verify_protocol(named_gate("FSWAP"), trials=2, seed=5)
    b = verify_protocol(named_gate("FSWAP"), trials=2, seed=5)
    assert dumps_stable(a.to_json()) == dumps_stable(b.to_json())


def test_transcript_json_shapes():
    t = simulate_protocol(np.eye(2, dtype=complex), basis_state(1, 1))
    d = t.to_json()
    assert d["n"] == 1 and len(d["branches"]) == 4
    assert "raw_state" not in d["branches"][0]
    d = t.to_json(include_states=True)
    assert "raw_state" in d["branches"][0]


def test_magic_state_parity_matches_total_parity_operator():
    from matchgates.majorana import total_parity

    for gate in (named_gate("CZ"), named_gate("FSWAP"), jw_majorana(2, 2)):
        m = magic_state(gate)
        z = total_parity(2 * m.n)
        assert np.linalg.norm(z @ m.psi - m.parity_sign * m.psi) < 1e-12
        assert state_parity(m.psi) == m.parity


def test_corrections_one_level_below():
    # teleporting a level-4 gate needs level-3 corrections somewhere
    u = named_gate("CPHASE", (np.pi / 2,))
    rep = verify_protocol(u, trials=1, seed=0)
    levels = dict(rep.correction_levels)
    assert rep.passed
    assert max(lvl for lvl in levels if lvl is not None) == 3
