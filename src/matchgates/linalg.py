"""Dense linear-algebra helpers shared by the rest of the package.

Conventions used throughout:

* Operators are complex numpy arrays of shape (2**n, 2**n), states are
  complex vectors of length 2**n, both stored dense and row-major.
* Qubit 1 is the most significant bit, so the basis vector |z1 ... zn>
  sits at index z1 * 2**(n-1) + ... + zn.
* "Time order" of gate lists is list order: the first gate listed is
  applied first, i.e. it is the rightmost factor of the matrix product.
* Objects that depend on the qubit count alone (the Majorana word table
  and its gathers, the Bell-pair network, the teleportation byproducts)
  follow one cache rule, _cached: built once per argument, kept for the
  life of the process, and handed out read-only.
* Array arguments follow one reading rule each: an operator by
  _read_operator (a matrix, then the one size rule), a state by
  _read_state (a vector, the size rule, then unit norm), and a gate by
  majorana._read_gate (an operator that is unitary, with its parity).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, is_dataclass
from functools import lru_cache, wraps

import numpy as np

# Pauli matrices; modules elsewhere build everything from these.
PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# Refuse dense operators beyond this many qubits; 2**15 square matrices are
# already ~16 GiB and nothing in this package needs them.
MAX_QUBITS = 15


# Fixed thresholds. MGH_TOL sets only Tolerances.residual (epsilon).
UNITARY_TOL = 1e-9  # max-norm threshold for ||U*U - 1||
NORM_TOL = 1e-12  # threshold for norm and probability checks
ANGLE_TOL = 1e-8  # angular threshold when snapping phases to roots of unity


@dataclass(frozen=True)
class Tolerances:
    """The one settable threshold, epsilon, used by the classification routines.

    residual: reconstruction / residual threshold for algebraic identities
    """

    residual: float = 1e-9

    def __post_init__(self) -> None:
        # also false for NaN
        if not 0 < self.residual < math.inf:
            raise ValueError("tolerance 'residual' must be finite and strictly positive")


DEFAULT_TOL = Tolerances()


def _cached(build):
    """The one cache rule: build once per argument and hand out read-only.

    Returns the lru_cache wrapper itself, so a hit stays lru_cache's own
    lookup, with no Python frame (the batched kernels read their gathers on
    every call), and cache_info and cache_clear work. On a miss every
    ndarray the builder returns, alone, in a tuple or as a dataclass field,
    is made read-only. A builder that raises caches nothing.
    """

    @wraps(build)
    def build_frozen(*args):
        out = build(*args)
        parts = vars(out).values() if is_dataclass(out) else out if isinstance(out, tuple) else (out,)
        for a in parts:
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return out

    return lru_cache(maxsize=None)(build_frozen)


def n_qubits_of(a: np.ndarray) -> int:
    """Number of qubits of an operator or state vector; errors on non powers of two."""
    if a.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a matrix, got ndim={a.ndim}")
    dim = a.shape[0]
    if a.ndim == 2 and a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be square, got shape {a.shape}")
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def identity(n: int) -> np.ndarray:
    """Identity operator on 0 <= n <= MAX_QUBITS qubits; identity(0) is the
    1 x 1 identity. Past MAX_QUBITS the one size rule refuses n before
    anything is allocated."""
    n = _integer(n, "qubit count", 0)
    if n:
        _guard_qubits(n, "identity")
    return np.eye(2**n, dtype=complex)


def _guard_qubits(total: int, what: str) -> int:
    """The one size rule: the qubit count total as an int, read by _integer
    with lower bound 1, or a ValueError; past MAX_QUBITS the message names
    `what`, the object that would be built."""
    n = _integer(total, "qubit count", 1)
    if n > MAX_QUBITS:
        raise ValueError(f"{what} would act on {total} qubits (limit {MAX_QUBITS})")
    return n


def _integer(value, what: str, low: int | None = None) -> int:
    """The one rule for integer arguments: levels, level caps, trial counts,
    seeds, sampler sizes, qubit counts, wires, Majorana indices, masks and
    criteria. Returns value as an int by operator.index, or raises a
    ValueError naming `what`: "{what} must be an integer, got {value!r}",
    and, when a lower bound low is given and value is below it,
    "{what} must be >= {low}, got {value}". Every lower bound on an integer
    argument is written here, and nowhere else; a qubit count that sizes a
    route is read through _guard_qubits, which adds the upper bound
    MAX_QUBITS."""
    try:
        i = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if low is not None and i < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    return i


def _read_operator(a: np.ndarray, what: str) -> int:
    """The one reader of an operator argument: its qubit count, or a
    ValueError naming `what` when a is not a matrix, and then the one size
    rule, _guard_qubits. Unitarity is not read here; majorana._read_gate
    adds it for gates."""
    if a.ndim != 2:
        raise ValueError(f"{what} must be a matrix, got shape {a.shape}")
    return _guard_qubits(n_qubits_of(a), what)


def _read_state(psi: np.ndarray, what: str) -> int:
    """The one reader of a state argument: its qubit count, or a ValueError
    naming `what` when psi is not a vector, fails the one size rule, or is
    not of unit norm within NORM_TOL (a NaN entry included)."""
    if psi.ndim != 1:
        raise ValueError(f"{what} must be a vector, got shape {psi.shape}")
    n = _guard_qubits(n_qubits_of(psi), what)
    if not abs(np.linalg.norm(psi) - 1.0) <= NORM_TOL:  # also true for NaN
        raise ValueError(f"{what} must be normalized")
    return n


def _guard_wires(k: int, width: int, n: int) -> None:
    """Refuse a gate on `width` (1 or 2) wires starting at wire k (1-based)
    that does not fit n qubits."""
    if width == 1 and not 1 <= k <= n:
        raise ValueError(f"wire {k} out of range for {n} qubits")
    if width == 2 and not 1 <= k <= n - 1:
        raise ValueError(f"wire pair ({k},{k + 1}) out of range for {n} qubits (nearest-neighbour positions only)")


def norm_max(a: np.ndarray) -> float:
    """Entrywise max-abs norm."""
    return float(np.abs(a).max()) if a.size else 0.0


def is_unitary(u: np.ndarray) -> bool:
    """True iff ||U*U - 1||_max < UNITARY_TOL."""
    n_qubits_of(u)
    return norm_max(u.conj().T @ u - np.eye(u.shape[0])) < UNITARY_TOL


def assert_unitary(u: np.ndarray, what: str = "operator") -> None:
    if not is_unitary(u):
        resid = norm_max(u.conj().T @ u - np.eye(u.shape[0]))
        raise ValueError(f"{what} is not unitary (||U*U - 1|| = {resid:.3e}, tol {UNITARY_TOL:.1e})")


@dataclass(frozen=True)
class PhaseMatch:
    """Result of comparing two objects up to a global phase."""

    equal: bool
    phase: complex | None
    residual: float


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL.residual) -> PhaseMatch:
    """Compare a and b up to a global phase.

    Finds the phase e^{i theta} minimizing ||a - e^{i theta} b|| in the
    2-norm (Frobenius for matrices); the minimizer is <b, a> / |<b, a>|.
    The residual is computed by explicit subtraction, which stays accurate
    when the two objects agree to machine precision.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    nb = float(np.linalg.norm(b))
    if nb < 1e-14:
        raise ValueError("second argument is numerically zero; phase comparison undefined")
    inner = complex(np.vdot(b, a))
    if abs(inner) < 1e-14:
        # Orthogonal objects: no meaningful phase, report plain distance.
        return PhaseMatch(False, None, float(np.linalg.norm(a - b)))
    phase = inner / abs(inner)
    residual = float(np.linalg.norm(a - phase * b))
    return PhaseMatch(residual < tol, phase, residual)


def canonical_phase(a: np.ndarray) -> np.ndarray:
    """Rescale by a global phase so the largest-magnitude entry is real positive.

    Ties within NORM_TOL of the maximum magnitude are broken by the lowest
    row-major index, which makes the choice stable under small perturbations
    of equal-magnitude entries.
    """
    flat = a.reshape(-1)
    mags = np.abs(flat)
    m = mags.max()
    if not np.isfinite(m):  # a NaN maximum would select no pivot
        raise ValueError("cannot fix the phase of an object with an entry that is not finite")
    if m < 1e-14:
        raise ValueError("cannot fix the phase of a numerically zero object")
    pivot = flat[np.flatnonzero(mags >= m - NORM_TOL)[0]]
    return a / (pivot / abs(pivot))
