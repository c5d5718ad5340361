"""Seeded random gates, states, and circuits used by tests and the self test.

All samplers take a numpy Generator so corpora are reproducible from a
single seed.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import CircuitIR, GateApp, build_G, build_J
from .linalg import embed_one_qubit, PAULI_X


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: the Q factor of a complex Ginibre matrix, its
    columns rephased by the phases of R's diagonal (Mezzadri's recipe).

    This is the recipe of scipy.stats.unitary_group.rvs, so the same
    Generator gives the same draws, bit for bit.
    """
    z = 1 / math.sqrt(2) * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= d / abs(d)
    return q


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit state vector on n qubits."""
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def random_matchgate_blocks(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Haar blocks (A, B) with det A = det B."""
    a = haar_unitary(2, rng)
    b = haar_unitary(2, rng)
    b = b * np.sqrt(np.linalg.det(a) / np.linalg.det(b))
    return a, b


def random_matchgate(rng: np.random.Generator, odd: bool = False) -> np.ndarray:
    """Random two-qubit (generalised) matchgate, even G form or odd J form."""
    a, b = random_matchgate_blocks(rng)
    return build_J(a, b) if odd else build_G(a, b)


def random_matchgate_circuit(n: int, depth: int, rng: np.random.Generator) -> CircuitIR:
    """Random proper matchgate circuit: depth G-form gates at random positions."""
    if n < 2:
        raise ValueError("matchgate circuits need at least two qubits")
    gates = []
    for _ in range(depth):
        pos = int(rng.integers(1, n))
        gates.append(GateApp(kind="G", pos=pos, blocks=random_matchgate_blocks(rng)))
    return CircuitIR(n, tuple(gates))


def random_two_qubit_at_root(
    rng: np.random.Generator, k: int, j: int | None = None, odd: bool = False
) -> np.ndarray:
    """Random two-qubit gate with det A / det B planted at a 2^(k-2)-th root
    of unity, exp(2 pi i j / 2^(k-2)); j is drawn uniformly when omitted."""
    if k < 2:
        raise ValueError("planted roots are defined for levels k >= 2")
    order = 2 ** (k - 2)
    if j is None:
        j = int(rng.integers(order))
    ratio = np.exp(2j * np.pi * j / order)
    a = haar_unitary(2, rng)
    b = haar_unitary(2, rng)
    b = b * np.sqrt((np.linalg.det(a) / ratio) / np.linalg.det(b))
    return build_J(a, b) if odd else build_G(a, b)


def random_fermionic(n: int, rng: np.random.Generator, parity: str = "even") -> np.ndarray:
    """Random fermionic unitary of the requested parity on n qubits.

    Even gates are Haar unitaries on each parity sector; odd gates are an
    even gate composed with X on the first wire. Generic samples sit at no
    finite hierarchy level.
    """
    dim = 2**n
    even_idx = [z for z in range(dim) if bin(z).count("1") % 2 == 0]
    odd_idx = [z for z in range(dim) if bin(z).count("1") % 2 == 1]
    u = np.zeros((dim, dim), dtype=complex)
    for idx in (even_idx, odd_idx):
        block = haar_unitary(len(idx), rng)
        u[np.ix_(idx, idx)] = block
    if parity == "even":
        return u
    if parity == "odd":
        return embed_one_qubit(PAULI_X, 1, n) @ u
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
