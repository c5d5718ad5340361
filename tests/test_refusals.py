"""Library refusals that no other test reaches.

Each is safety code: a bad argument must stop with a ValueError naming
the problem, not run on and fail later or answer wrongly.
"""

import re

import numpy as np
import pytest

from matchgates import (
    check_car,
    class_phases,
    extract_rotation,
    jw_majorana,
    magic_state,
    jw_set,
    min_level,
    named_gate,
    random_fermionic,
    random_two_qubit_at_root,
    simulate_protocol,
    svn_reconstruct,
    verify_protocol,
)
from matchgates.circuits import CircuitIR, GateApp, build_CnZ, circuit_to_text
from matchgates.hierarchy import diagonal_level, level_membership, two_qubit_decompose
from matchgates.linalg import HADAMARD, identity, n_qubits_of
from matchgates.majorana import indices_from_mask, majorana_monomial, majorana_words, total_parity
from matchgates.sampling import haar_unitary, random_matchgate_circuit, random_state
from matchgates.selftest import run_selected
from matchgates.teleport import build_bn

RNG = np.random.default_rng(0)
PSI2 = np.array([0.6, 0, 0.8, 0], dtype=complex)
MAGIC = "magic state has no definite parity; the gate is not fermionic"

CASES = {
    "Bell network on no qubits": (lambda: build_bn(0), "n must be >= 1, got 0"),
    "Bell network past the qubit limit": (lambda: build_bn(8), "Bell-pair network would act on 16 qubits (limit 15)"),
    "text of a raw-block circuit": (
        lambda: circuit_to_text(CircuitIR(2, (GateApp(kind="G", pos=1, blocks=(HADAMARD, HADAMARD)),))),
        "circuit holds raw matrix blocks; it has no canonical text form",
    ),
    "blocks of a mixed-parity gate": (
        lambda: two_qubit_decompose(np.kron(HADAMARD, np.eye(2))),
        "gate mixes parity sectors; it has no G/J block form",
    ),
    "qubits of a 3-D array": (lambda: n_qubits_of(np.zeros((2, 2, 2))), "expected a vector or a matrix, got ndim=3"),
    "qubits of a non-square matrix": (lambda: n_qubits_of(np.zeros((2, 4))), "operator must be square, got shape (2, 4)"),
    "Majorana on no qubits": (lambda: jw_majorana(0, 1), "qubit count must be >= 1, got 0"),
    "word table on no qubits": (lambda: majorana_words(0), "qubit count must be >= 1, got 0"),
    "Majorana set on no qubits": (lambda: jw_set(0), "qubit count must be >= 1, got 0"),
    "indices of a negative mask": (lambda: indices_from_mask(-1), "mask must be >= 0, got -1"),
    "membership at level 2.5": (
        lambda: level_membership(named_gate("SWAP"), 2.5),
        "level must be an integer, got 2.5",
    ),
    "membership at level 3.0": (
        lambda: level_membership(named_gate("SWAP"), 3.0),
        "level must be an integer, got 3.0",
    ),
    "minimum level under cap 3.0": (lambda: min_level(named_gate("SWAP"), 3.0), "level cap must be an integer, got 3.0"),
    "two-qubit classes at level 2.5": (lambda: class_phases(2.5), "level must be an integer, got 2.5"),
    "protocol over 1.5 trials": (
        lambda: verify_protocol(named_gate("CZ"), trials=1.5),
        "trials must be an integer, got 1.5",
    ),
    "protocol under seed 1.5": (
        lambda: verify_protocol(named_gate("CZ"), trials=1, seed=1.5),
        "seed must be an integer, got 1.5",
    ),
    "protocol under seed -1": (lambda: verify_protocol(named_gate("CZ"), trials=1, seed=-1), "seed must be >= 0, got -1"),
    "protocol under seed '3'": (
        lambda: verify_protocol(named_gate("CZ"), trials=1, seed="3"),
        "seed must be an integer, got '3'",
    ),
    "corrections under cap 1.5": (
        lambda: verify_protocol(named_gate("CZ"), trials=1, k_max_corrections=1.5),
        "level cap must be an integer, got 1.5",
    ),
    "monomial mask past 2n modes": (lambda: majorana_monomial(1, 4), "mask 4 out of range for 2 Majorana modes"),
    "SvN of no operators": (lambda: svn_reconstruct([]), "empty operator tuple"),
    "matchgate circuit on one qubit": (
        lambda: random_matchgate_circuit(1, 3, RNG),
        "qubit count must be >= 2, got 1",
    ),
    "planted root below level 2": (
        lambda: random_two_qubit_at_root(RNG, 1),
        "k must be >= 2, got 1",
    ),
    # a non-integer k or j would plant a root of another order, a negative depth draw no gate
    "planted root at level 2.5": (lambda: random_two_qubit_at_root(RNG, 2.5), "k must be an integer, got 2.5"),
    "planted root index 0.5": (lambda: random_two_qubit_at_root(RNG, 3, 0.5), "j must be an integer, got 0.5"),
    "matchgate circuit of depth -1": (lambda: random_matchgate_circuit(3, -1, RNG), "depth must be >= 0, got -1"),
    "fermionic gate of parity x": (
        lambda: random_fermionic(2, RNG, parity="x"),
        "parity must be 'even' or 'odd', got 'x'",
    ),
    "teleporting a 2-D state": (
        lambda: simulate_protocol(np.eye(4, dtype=complex), np.eye(4, dtype=complex)),
        "input state must be a vector, got shape (4, 4)",
    ),
    # every count, index, wire and mask argument goes through linalg._integer
    "Majorana on 2.5 qubits": (lambda: jw_majorana(2.5, 1), "qubit count must be an integer, got 2.5"),
    "Majorana set on 2.5 qubits": (lambda: jw_set(2.5), "qubit count must be an integer, got 2.5"),
    "word table on 2.5 qubits": (lambda: majorana_words(2.5), "qubit count must be an integer, got 2.5"),
    "parity operator on 2.5 qubits": (lambda: total_parity(2.5), "qubit count must be an integer, got 2.5"),
    "monomial on 2.5 qubits": (lambda: majorana_monomial(2.5, 1), "qubit count must be an integer, got 2.5"),
    "controlled-Z on 2.5 qubits": (lambda: build_CnZ(2.5), "qubit count must be an integer, got 2.5"),
    "identity on 2.5 qubits": (lambda: identity(2.5), "qubit count must be an integer, got 2.5"),
    "random state on 2.5 qubits": (lambda: random_state(2.5, RNG), "qubit count must be an integer, got 2.5"),
    "fermionic gate on 2.5 qubits": (lambda: random_fermionic(2.5, RNG), "qubit count must be an integer, got 2.5"),
    "circuit on 2.5 qubits": (lambda: CircuitIR(2.5), "qubit count must be an integer, got 2.5"),
    "matchgate circuit on 3.5 qubits": (
        lambda: random_matchgate_circuit(3.5, 2, RNG),
        "qubit count must be an integer, got 3.5",
    ),
    "Majorana index 1.5": (lambda: jw_majorana(2, 1.5), "Majorana index must be an integer, got 1.5"),
    "monomial of mask 2.5": (lambda: majorana_monomial(2, 2.5), "mask must be an integer, got 2.5"),
    "indices of mask 2.5": (lambda: indices_from_mask(2.5), "mask must be an integer, got 2.5"),
    "gate on wire 1.5": (lambda: GateApp(kind="NAMED", pos=1.5, name="X"), "wire must be an integer, got 1.5"),
    "Bell network on 2.5 pairs": (lambda: build_bn(2.5), "n must be an integer, got 2.5"),
    "Haar unitary of dimension 2.5": (lambda: haar_unitary(2.5, RNG), "dimension must be an integer, got 2.5"),
    "self-test criterion 1.5": (lambda: run_selected([1.5]), "criterion must be an integer, got 1.5"),
    "self-test under seed 1.5": (lambda: run_selected([1], 1.5), "seed must be an integer, got 1.5"),
    # every lower bound goes through linalg._integer, and every route needs at least one qubit
    "rotation of a 1x1 gate": (lambda: extract_rotation(np.eye(1)), "qubit count must be >= 1, got 0"),
    "diagonal level of a 1x1 gate": (lambda: diagonal_level(np.eye(1)), "qubit count must be >= 1, got 0"),
    "SvN of a 1x1 operator": (lambda: svn_reconstruct([np.eye(1)]), "qubit count must be >= 1, got 0"),
    "CAR check of a 1x1 operator": (lambda: check_car([np.eye(1)]), "qubit count must be >= 1, got 0"),
    "magic state of a 1x1 gate": (lambda: magic_state(np.eye(1)), "qubit count must be >= 1, got 0"),
    "teleporting through a 1x1 gate": (
        lambda: simulate_protocol(np.eye(1), np.ones(1)),
        "qubit count must be >= 1, got 0",
    ),
    "protocol of a 1x1 gate": (lambda: verify_protocol(np.eye(1), trials=1), "qubit count must be >= 1, got 0"),
    "circuit on no qubits": (lambda: CircuitIR(0), "qubit count must be >= 1, got 0"),
    "circuit on -3 qubits": (lambda: CircuitIR(-3), "qubit count must be >= 1, got -3"),
    "monomial on no qubits": (lambda: majorana_monomial(0, 0), "qubit count must be >= 1, got 0"),
    "monomial on -1 qubits": (lambda: majorana_monomial(-1, 0), "qubit count must be >= 1, got -1"),
    "identity on -1 qubits": (lambda: identity(-1), "qubit count must be >= 0, got -1"),
    "random state on -1 qubits": (lambda: random_state(-1, RNG), "qubit count must be >= 0, got -1"),
    "Haar unitary of dimension -1": (lambda: haar_unitary(-1, RNG), "dimension must be >= 0, got -1"),
    "identity past the qubit limit": (lambda: identity(16), "identity would act on 16 qubits (limit 15)"),
    "word table past the qubit limit": (
        lambda: majorana_words(16),
        "Majorana word table would act on 16 qubits (limit 15)",
    ),
    "self-test under seed -1": (lambda: run_selected([1], -1), "seed must be >= 0, got -1"),
    "parity operator on no qubits": (lambda: total_parity(0), "qubit count must be >= 1, got 0"),
    "controlled-Z on no qubits": (lambda: build_CnZ(0), "qubit count must be >= 1, got 0"),
    # the teleported gate is read first: its size, then its unitarity, then its parity by parity_of
    "magic state of H (x) 1": (lambda: magic_state(np.kron(HADAMARD, np.eye(2))), MAGIC),
    "teleporting through H (x) 1": (lambda: simulate_protocol(np.kron(HADAMARD, np.eye(2)), PSI2), MAGIC),
    "protocol of H (x) 1": (lambda: verify_protocol(np.kron(HADAMARD, np.eye(2)), trials=1), MAGIC),
    "teleporting H on two qubits": (lambda: simulate_protocol(HADAMARD, PSI2), MAGIC),
    "teleporting RX(0.3) on two qubits": (lambda: simulate_protocol(named_gate("RX", (0.3,)), PSI2), MAGIC),
    "teleporting through [[2]]": (
        lambda: simulate_protocol(np.array([[2.0 + 0j]]), np.ones(1, dtype=complex)),
        "qubit count must be >= 1, got 0",
    ),
    "protocol of [[2]]": (lambda: verify_protocol(np.array([[2.0 + 0j]]), trials=1), "qubit count must be >= 1, got 0"),
}


@pytest.mark.parametrize("name", CASES)
def test_refused_with_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "bad",
    [{"trials": 0}, {"k_max_corrections": 0}, {"seed": -1}],
    ids=["trials 0", "level cap 0", "seed -1"],
)
def test_protocol_refuses_before_its_first_trial(bad, monkeypatch):
    calls = []
    monkeypatch.setattr("matchgates.teleport.simulate_protocol", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=" must be >= "):
        verify_protocol(named_gate("CZ"), **bad)
    assert calls == []
