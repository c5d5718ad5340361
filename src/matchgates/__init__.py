"""Matchgates and the fermionic gate hierarchy.

Tools for classifying unitaries by the Majorana operators they preserve:
Jordan-Wigner algebra, matchgate circuits and their rotation backends,
the recursive hierarchy with its two-qubit closed form, gate
teleportation through magic states, and reconstruction of a unitary from
a conjugated Majorana tuple.

The package re-exports the names the README quick start and the demos
use; every other name is imported from its module, for example
``from matchgates.hierarchy import level_membership``.
"""

from .circuits import (
    build_F,
    build_G,
    build_J,
    circuit_to_operator,
    circuit_to_rotation,
    named_gate,
    parse_circuit,
    phase_gate,
)
from .hierarchy import (
    class_phases,
    classify_gate,
    equiv_class,
    extract_rotation,
    is_gaussian_lambda,
    is_gaussian_state_lambda,
    min_level,
    two_qubit_min_level,
)
from .linalg import HADAMARD, PAULI_I, PAULI_X, equal_up_to_phase
from .majorana import check_car, expand, indices_from_mask, jw_majorana, jw_set, parity_of
from .sampling import random_fermionic, random_matchgate, random_state, random_two_qubit_at_root
from .svn import svn_reconstruct
from .teleport import magic_state, simulate_protocol, verify_protocol

__version__ = "0.1.0"
