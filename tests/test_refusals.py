"""Library refusals that no other test reaches.

Each is safety code: a bad argument must stop with a ValueError naming
the problem, not run on and fail later or answer wrongly.
"""

import re

import numpy as np
import pytest

from matchgates import (
    class_phases,
    jw_majorana,
    jw_set,
    min_level,
    named_gate,
    random_fermionic,
    random_two_qubit_at_root,
    simulate_protocol,
    svn_reconstruct,
    verify_protocol,
)
from matchgates.circuits import CircuitIR, GateApp, circuit_to_text
from matchgates.hierarchy import level_membership, two_qubit_decompose
from matchgates.linalg import HADAMARD, n_qubits_of
from matchgates.majorana import indices_from_mask, majorana_monomial, majorana_words
from matchgates.sampling import random_matchgate_circuit
from matchgates.teleport import build_bn

RNG = np.random.default_rng(0)

CASES = {
    "Bell network on no qubits": (lambda: build_bn(0), "need n >= 1, got 0"),
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
    "Majorana on no qubits": (lambda: jw_majorana(0, 1), "need at least one qubit, got n=0"),
    "word table on no qubits": (lambda: majorana_words(0), "need at least one qubit, got n=0"),
    "Majorana set on no qubits": (lambda: jw_set(0), "need at least one qubit, got n=0"),
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
        "matchgate circuits need at least two qubits",
    ),
    "planted root below level 2": (
        lambda: random_two_qubit_at_root(RNG, 1),
        "planted roots are defined for levels k >= 2",
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
}


@pytest.mark.parametrize("name", CASES)
def test_refused_with_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
