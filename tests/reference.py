"""Dense helpers that only the tests use: basis states, a two-qubit
embedding and the split of an operator into parity halves.

The package has no use for them; the tests build inputs and oracles with
them.
"""

import numpy as np

from matchgates.linalg import identity, kron_all, n_qubits_of
from matchgates.majorana import majorana_words


def basis_state(n, bits):
    """|z1 ... zn> from a bit sequence or an index; qubit 1 is the most significant bit."""
    index = bits if isinstance(bits, int) else int("".join(map(str, bits)), 2)
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def embed_two_qubit(g, k, n):
    """A two-qubit gate on wires (k, k+1), 1-based, of an n-qubit operator."""
    return kron_all(identity(k - 1), g, identity(n - k - 1))


def parity_decompose(op):
    """The parity-even and parity-odd parts of an operator: the entries
    between basis states of equal parity, and the rest."""
    same = majorana_words(n_qubits_of(op)).same_parity
    return np.where(same, op, 0j), np.where(same, 0j, op)
