"""Dense helpers that only the tests use: basis states, Pauli Kronecker
products, the split of an operator into parity halves, the parity of a
state by its norm rule.

The package builds every Jordan-Wigner object from its word table; the
Kronecker products here are the independent oracle the tests compare that
table with, and the embeddings build inputs and oracles. The package
decides every parity, a magic state's included, by the operator rule of
majorana.parity_of; state_parity is the independent state rule the tests
hold its magic states to.
"""

from functools import reduce

import numpy as np

from matchgates.linalg import DEFAULT_TOL, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, identity, n_qubits_of
from matchgates.majorana import majorana_words


def basis_state(n, bits):
    """|z1 ... zn> from a bit sequence or an index; qubit 1 is the most significant bit."""
    index = bits if isinstance(bits, int) else int("".join(map(str, bits)), 2)
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def kron_all(*factors):
    """Left-to-right Kronecker product; the first factor acts on qubit 1."""
    return reduce(np.kron, factors)


def embed_one_qubit(g, k, n):
    """A one-qubit gate on wire k, 1-based, of an n-qubit operator."""
    return kron_all(identity(k - 1), g, identity(n - k))


def embed_two_qubit(g, k, n):
    """A two-qubit gate on wires (k, k+1), 1-based, of an n-qubit operator."""
    return kron_all(identity(k - 1), g, identity(n - k - 1))


def kron_majoranas(n):
    """c_{2k-1} = Z..Z X_k 1..1 and c_{2k} = Z..Z Y_k 1..1 as Pauli Kronecker products."""
    return [
        kron_all(*[PAULI_Z] * (k - 1), letter, *[PAULI_I] * (n - k))
        for k in range(1, n + 1)
        for letter in (PAULI_X, PAULI_Y)
    ]


def kron_parity(n):
    """The total parity Z^{(x)n} as a Pauli Kronecker product."""
    return kron_all(*[PAULI_Z] * n)


def parity_decompose(op):
    """The parity-even and parity-odd parts of an operator: the entries
    between basis states of equal parity, and the rest."""
    sign = majorana_words(n_qubits_of(op)).sign
    same = np.equal.outer(sign, sign)
    return np.where(same, op, 0j), np.where(same, 0j, op)


def state_parity(psi, tol=DEFAULT_TOL.residual):
    """Classify a state vector by Z^{(x)n} psi = +/- psi."""
    zpsi = majorana_words(n_qubits_of(psi)).sign * psi
    if float(np.linalg.norm(zpsi - psi)) < tol:
        return "even"
    if float(np.linalg.norm(zpsi + psi)) < tol:
        return "odd"
    return "none"
