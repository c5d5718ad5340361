"""Seeded random gates, states, and circuits used by tests and the self test.

All samplers take a numpy Generator so corpora are reproducible from a
single seed. Matchgate blocks and planted-root gates come from one draw,
_planted_blocks: a Haar pair (A, B) with B rescaled so that det A / det B
is the planted ratio, 1 for a matchgate.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import CircuitIR, GateApp, build_G, build_J
from .linalg import _integer
from .majorana import _parity_blocks, jw_majorana


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: the Q factor of a complex Ginibre matrix, its
    columns rephased by the phases of R's diagonal (Mezzadri's recipe).

    This is the recipe of scipy.stats.unitary_group.rvs, so the same
    Generator gives the same draws, bit for bit.
    """
    dim = _integer(dim, "dimension", 0)
    z = 1 / math.sqrt(2) * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= d / abs(d)
    return q


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit state vector on n >= 0 qubits."""
    n = _integer(n, "qubit count", 0)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def _planted_blocks(rng: np.random.Generator, ratio: complex) -> tuple[np.ndarray, np.ndarray]:
    """Haar blocks (A, B), B rescaled so that det A / det B = ratio."""
    a = haar_unitary(2, rng)
    b = haar_unitary(2, rng)
    b = b * np.sqrt((np.linalg.det(a) / ratio) / np.linalg.det(b))
    return a, b


def random_matchgate_blocks(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Haar blocks (A, B) with det A = det B: the planted draw at ratio 1."""
    return _planted_blocks(rng, 1)


def random_matchgate(rng: np.random.Generator, odd: bool = False) -> np.ndarray:
    """Random two-qubit (generalised) matchgate, even G form or odd J form."""
    a, b = random_matchgate_blocks(rng)
    return build_J(a, b) if odd else build_G(a, b)


def random_matchgate_circuit(n: int, depth: int, rng: np.random.Generator) -> CircuitIR:
    """Random proper matchgate circuit: depth G-form gates at random positions."""
    _integer(n, "qubit count", 2)
    _integer(depth, "depth", 0)
    gates = []
    for _ in range(depth):
        pos = int(rng.integers(1, n))
        gates.append(GateApp(kind="G", pos=pos, blocks=random_matchgate_blocks(rng)))
    return CircuitIR(n, tuple(gates))


def random_two_qubit_at_root(
    rng: np.random.Generator, k: int, j: int | None = None, odd: bool = False
) -> np.ndarray:
    """Random two-qubit gate with det A / det B planted at a 2^(k-2)-th root
    of unity, exp(2 pi i j / 2^(k-2)); j is drawn uniformly when omitted.
    k must be an integer >= 2 and a given j an integer: any other value
    would plant a root of another order, or none."""
    _integer(k, "k", 2)
    order = 2 ** (k - 2)
    j = int(rng.integers(order)) if j is None else _integer(j, "j")
    a, b = _planted_blocks(rng, np.exp(2j * np.pi * j / order))
    return build_J(a, b) if odd else build_G(a, b)


def random_fermionic(n: int, rng: np.random.Generator, parity: str = "even") -> np.ndarray:
    """Random fermionic unitary of the requested parity on n qubits.

    Even gates are Haar unitaries on each parity sector, the basis states
    of sign +1 and of sign -1 in the word table, read from majorana's
    parity-block table; odd gates are c_1 (X on the first wire) times an
    even gate. Generic samples sit at no finite hierarchy level. A parity
    other than "even" or "odd" is refused before anything is drawn.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    states = _parity_blocks(n).states  # the table reads n by the one size rule
    u = np.zeros((2**n, 2**n), dtype=complex)
    for idx in states:
        u[np.ix_(idx, idx)] = haar_unitary(len(idx), rng)
    if parity == "even":
        return u
    # a product, not the row gather u[i ^ f_1]: at n = 1 the gather turns
    # some of the product's -0 entries into +0, and seeded samples keep
    # their exact bits
    return jw_majorana(n, 1) @ u
