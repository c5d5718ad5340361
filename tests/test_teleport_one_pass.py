"""The one-pass teleportation route against an in-test copy of the route it
replaced, and the gathered state Lambda test against the dense one.

The old route rebuilt the dense Bell-pair network B_n on every call, formed
the magic state with the 4^n x 4^n kron(1, U), and took one np.linalg.norm
per branch row and per residual. The new route caches B_n per n, applies U
to the low wires of B_n|0...0> by one product and takes every norm in one
batched pass; it must give the same transcript to the bit.
"""

import numpy as np
import pytest

from matchgates import (
    is_gaussian_state_lambda,
    jw_majorana,
    jw_set,
    magic_state,
    named_gate,
    random_fermionic,
    random_state,
    simulate_protocol,
)
from matchgates import teleport
from matchgates.circuits import build_CnZ, build_bn, circuit_to_operator
from matchgates.hierarchy import _state_lambda_norm
from matchgates.linalg import n_qubits_of
from matchgates.majorana import state_parity
from matchgates.sampling import random_matchgate_circuit

FIELDS = ("z", "probability", "raw_state", "correction", "corrected", "residual_vs_target", "phase")


def _dense_magic_psi(u):
    """Magic state by the old route: a fresh dense B_n and kron(1, U)."""
    n = n_qubits_of(u)
    bn = circuit_to_operator(build_bn(n))
    zero = np.zeros(4**n, dtype=complex)
    zero[0] = 1.0
    return bn, np.kron(np.eye(2**n, dtype=complex), u) @ (bn @ zero)


def _dense_protocol(u, psi_in):
    """Branches of simulate_protocol by the old route, as tuples in FIELDS order."""
    n = n_qubits_of(u)
    bn, psi = _dense_magic_psi(u)
    rows = bn.conj().T @ np.kron(psi_in, psi).reshape(4**n, 2**n)
    target = u @ psi_in
    probs = [float(np.linalg.norm(row) ** 2) for row in rows]
    raws = rows / np.sqrt(probs)[:, None]
    corrs = teleport._corrections(u, *teleport._byproducts(n))
    corrected = (corrs @ raws[:, :, None])[:, :, 0]
    branches = []
    for zi, (prob, raw, corr, out) in enumerate(zip(probs, raws, corrs, corrected)):
        residual = float(np.linalg.norm(out - target))
        phase = complex(np.vdot(target, out))
        branches.append((teleport._outcome(zi, n), prob, raw, corr, out, residual, phase))
    return target, branches


def _gates():
    cases = [
        ("CZ", named_gate("CZ")),
        ("CPHASE(pi/2)", named_gate("CPHASE", (np.pi / 2,))),
        ("SWAP", named_gate("SWAP")),
        ("GHH", named_gate("GHH")),
        ("CNZ(3)", build_CnZ(3)),
        ("c_2 on 3", jw_majorana(3, 2)),
    ]
    for n in (1, 2, 3, 4):
        for parity in ("even", "odd"):
            for seed in range(3):
                rng = np.random.default_rng(100 * n + 10 * (parity == "odd") + seed)
                cases.append((f"fermionic n={n} {parity} seed={seed}", random_fermionic(n, rng, parity)))
    return cases


GATES = _gates()


@pytest.mark.parametrize("name, u", GATES, ids=[name for name, _ in GATES])
def test_transcript_matches_the_dense_route_to_the_bit(name, u):
    n = n_qubits_of(u)
    psi_in = random_state(n, np.random.default_rng(len(name)))
    target, expected = _dense_protocol(u, psi_in)
    transcript = simulate_protocol(u, psi_in)
    assert np.array_equal(transcript.target_state, target)
    assert len(transcript.branches) == len(expected) == 4**n
    for branch, want in zip(transcript.branches, expected):
        for field, value in zip(FIELDS, want):
            got = getattr(branch, field)
            assert type(got) is type(value), field
            assert np.array_equal(got, value), (field, branch.z)


@pytest.mark.parametrize("name, u", GATES, ids=[name for name, _ in GATES])
def test_magic_state_matches_the_kron_route_to_the_bit(name, u):
    _, psi = _dense_magic_psi(u)
    magic = magic_state(u)
    assert np.array_equal(magic.psi, psi)
    assert magic.parity == state_parity(psi)


def test_vanishing_probability_names_the_first_failing_branch(monkeypatch):
    bn, b0 = teleport._network(1)
    broken = bn.copy()
    broken[:, [2, 1]] = 0.0  # rows 01 and 10 of B^dag vanish
    monkeypatch.setattr(teleport, "_network", lambda n: (broken, b0))
    u = named_gate("X")
    with pytest.raises(ValueError, match=r"^branch 01 has vanishing probability; protocol broken$"):
        simulate_protocol(u, random_state(1, np.random.default_rng(0)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_network_is_cached_read_only_and_exact(n):
    bn, b0 = teleport._network(n)
    assert teleport._network(n)[0] is bn
    for a in (bn, b0):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    dense, _ = _dense_magic_psi(np.eye(2**n, dtype=complex))
    assert np.array_equal(bn, dense)
    assert np.array_equal(b0, dense[:, 0])


def test_protocol_skips_the_lambda_test_and_magic_state_keeps_it(monkeypatch):
    def refuse(psi, tol=None):
        raise AssertionError("Lambda test ran")

    monkeypatch.setattr(teleport, "is_gaussian_state_lambda", refuse)
    u = named_gate("CZ")
    simulate_protocol(u, random_state(2, np.random.default_rng(1)))
    with pytest.raises(AssertionError, match="Lambda test ran"):
        magic_state(u)


def _dense_lambda_norm(psi):
    """||sum_mu (c_mu psi) (x) (c_mu psi)|| from the dense Jordan-Wigner matrices."""
    acc = np.zeros(len(psi) ** 2, dtype=complex)
    for c in jw_set(n_qubits_of(psi)):
        cpsi = c @ psi
        acc += np.kron(cpsi, cpsi)
    return float(np.linalg.norm(acc))


def _zero(m):
    psi = np.zeros(2**m, dtype=complex)
    psi[0] = 1.0
    return psi


def _lambda_states():
    """(name, state, expected Gaussianity or None when not known a priori)."""
    rng = np.random.default_rng(7)
    states = [
        ("G(H,H)", magic_state(named_gate("GHH")).psi, True),
        ("FSWAP", magic_state(named_gate("FSWAP")).psi, True),
        ("SWAP", magic_state(named_gate("SWAP")).psi, False),
        ("CZ", magic_state(named_gate("CZ")).psi, False),
        ("CNZ(3)", magic_state(build_CnZ(3)).psi, False),
    ]
    for n in (2, 3, 4):
        circuit = circuit_to_operator(random_matchgate_circuit(n, 3 * n, rng))
        states.append((f"matchgate circuit magic m={2 * n}", magic_state(circuit).psi, True))
    for m in (3, 5, 7):
        circuit = circuit_to_operator(random_matchgate_circuit(m, 3 * m, rng))
        states.append((f"matchgate circuit state m={m}", circuit @ _zero(m), True))
    for n in (1, 2, 3, 4):
        u = random_fermionic(n, rng, "odd" if n % 2 else "even")
        states.append((f"Haar fermionic magic m={2 * n}", magic_state(u).psi, None if n == 1 else False))
    for m in (2, 3, 5, 6, 7, 8):
        psi = random_fermionic(m, rng) @ _zero(m)
        states.append((f"Haar fermionic state m={m}", psi, None if m <= 3 else False))
    return states


LAMBDA_STATES = _lambda_states()


@pytest.mark.parametrize("name, psi, gaussian", LAMBDA_STATES, ids=[s[0] for s in LAMBDA_STATES])
def test_gathered_lambda_test_matches_the_dense_one(name, psi, gaussian):
    dense = _dense_lambda_norm(psi)
    gathered = _state_lambda_norm(psi)
    assert abs(gathered - dense) <= 1e-14
    decision = is_gaussian_state_lambda(psi)
    assert decision == (dense < 1e-9)
    if gaussian is not None:
        assert decision is gaussian


def test_state_lambda_test_refuses_past_the_qubit_limit():
    psi = _zero(16)
    with pytest.raises(ValueError, match=r"state Lambda test would act on 16 qubits \(limit 15\)"):
        is_gaussian_state_lambda(psi)
