"""Jordan-Wigner Majorana operators and the monomial algebra they generate.

The 2n Majorana operators on n qubits are

    c_{2k-1} = Z_1 ... Z_{k-1} X_k        (mu odd)
    c_{2k}   = Z_1 ... Z_{k-1} Y_k        (mu even)

indexed mu = 1 .. 2n. They are Hermitian, unitary, odd under the total
parity Z^{(x)n}, and satisfy {c_mu, c_nu} = 2 delta_{mu nu} 1.

Monomials c_{mu_1} ... c_{mu_m} with mu_1 < ... < mu_m (4^n of them,
including the empty product) form a basis of the full matrix algebra.
A monomial is encoded as an integer bit mask, little-endian in mu:
bit 0 set means c_1 participates.

Every c_mu is also a signed permutation: it sends basis state i to
i ^ f_mu with a phase in {+-1, +-i}. The word table of ``majorana_words``
stores these flip masks and phases, together with the parity signs of the
basis states, so products with Majoranas and parity tests become gathers
and sign masks instead of dense matrix products. Every ordered product of
Majoranas (a monomial, a teleportation byproduct word) is again a signed
permutation, composed from the table by ``_word`` without a dense matrix
product. The batched kernels built
on it take stacks (B, 2^n, 2^n) of operators: conjugation of each by every
c_mu, the coefficients tr(c_mu V) / 2^n, the parity maxima and the
rotation R of each operator, chunked so that no intermediate array holds
more than CHUNK_ENTRIES complex entries (or one operator, when a single
operator is larger).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Tolerances,
    _guard_qubits,
    kron_all,
    n_qubits_of,
    norm_max,
)

Parity = Literal["even", "odd", "none"]

# Largest batch of operators the batched kernels stack, in complex entries (1 MiB).
CHUNK_ENTRIES = 2**16


@lru_cache(maxsize=None)
def _jw_cached(n: int, mu: int) -> np.ndarray:
    k = (mu + 1) // 2
    letter = PAULI_X if mu % 2 == 1 else PAULI_Y
    factors = [PAULI_Z] * (k - 1) + [letter] + [PAULI_I] * (n - k)
    op = kron_all(*factors)
    op.setflags(write=False)
    return op


def jw_majorana(n: int, mu: int) -> np.ndarray:
    """The Jordan-Wigner Majorana operator c_mu on n qubits, mu in 1..2n."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if not 1 <= mu <= 2 * n:
        raise ValueError(f"Majorana index {mu} out of range 1..{2 * n}")
    _guard_qubits(n)
    return _jw_cached(n, mu)


def jw_set(n: int) -> list[np.ndarray]:
    """All 2n Jordan-Wigner Majorana operators in index order."""
    return [jw_majorana(n, mu) for mu in range(1, 2 * n + 1)]


@dataclass(frozen=True)
class MajoranaWords:
    """The Jordan-Wigner Majoranas on n qubits as signed permutations.

    flip[mu - 1] and phase[mu - 1] give c_mu[i, i ^ flip] = phase[i], every
    other entry being zero. sign[i] = (-1)^popcount(i) is the diagonal of
    Z^{(x)n}, and same_parity[i, j] marks the entries (sign[i] == sign[j])
    that a parity-even operator may occupy.
    """

    flip: np.ndarray
    phase: np.ndarray
    sign: np.ndarray
    same_parity: np.ndarray


@lru_cache(maxsize=None)
def majorana_words(n: int) -> MajoranaWords:
    """Word table of the 2n Majoranas on n qubits (cached per n, read-only)."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    index = np.arange(2**n)
    flip = np.empty(2 * n, dtype=np.intp)
    phase = np.empty((2 * n, 2**n), dtype=complex)
    for k in range(1, n + 1):
        shift = n - k  # qubit k is bit n - k, counted from the least significant
        z_string = _popcount_sign(index >> (shift + 1))
        bit = (index >> shift) & 1
        flip[2 * k - 2] = flip[2 * k - 1] = 1 << shift
        phase[2 * k - 2] = z_string
        phase[2 * k - 1] = z_string * np.where(bit == 1, 1j, -1j)
    sign = _popcount_sign(index)
    same = sign[:, None] == sign[None, :]
    for a in (flip, phase, sign, same):
        a.setflags(write=False)
    return MajoranaWords(flip, phase, sign, same)


def _word(n: int, mus) -> tuple[int, np.ndarray]:
    """The ordered product c_{mus[0]} c_{mus[1]} ... as a signed permutation.

    Returns (flip, phase) with product[i, i ^ flip] = phase[i]. Appending
    c_mu to a word (f, p) gives (f ^ f_mu, p[i] phase_mu[i ^ f]); the empty
    product is the identity.
    """
    index = np.arange(2**n)
    flip, phase = 0, np.ones(2**n, dtype=complex)
    for mu in mus:
        words = majorana_words(n)
        phase = phase * words.phase[mu - 1][index ^ flip]
        flip ^= int(words.flip[mu - 1])
    return flip, phase


def _word_matrix(flip: int, phase: np.ndarray) -> np.ndarray:
    """Dense matrix of the signed permutation i -> i ^ flip with phase[i]."""
    index = np.arange(len(phase))
    out = np.zeros((len(phase), len(phase)), dtype=complex)
    out[index, index ^ flip] = phase
    return out


def _popcount_sign(index: np.ndarray) -> np.ndarray:
    """(-1)^popcount for each entry of a non-negative integer array."""
    odd = np.zeros(index.shape, dtype=np.intp)
    rest = index.copy()
    while rest.any():
        odd ^= rest & 1
        rest >>= 1
    return 1.0 - 2.0 * odd


@lru_cache(maxsize=None)
def _jw_stack(n: int) -> np.ndarray:
    stack = np.stack(jw_set(n))
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def _word_gathers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather tables of the batched kernels, from the Majorana word table.

    Returns (phase, cols, col_phase, by_parity): phase[mu, i] = c_mu[i, i ^ f_mu],
    cols[mu, j] = j ^ f_mu and col_phase[mu, j] = c_mu[j ^ f_mu, j], so that
    (c_mu V)[i] = phase[mu, i] V[cols[mu, i]] and (V c_mu)[:, j] =
    V[:, cols[mu, j]] col_phase[mu, j]; by_parity lists the flat entries of a
    2^n x 2^n operator, the same-parity half first.
    """
    words = majorana_words(n)
    cols = np.arange(2**n) ^ words.flip[:, None]
    col_phase = np.take_along_axis(words.phase, cols, axis=1)
    by_parity = np.argsort(~words.same_parity.ravel(), kind="stable")
    for a in (cols, col_phase, by_parity):
        a.setflags(write=False)
    return words.phase, cols, col_phase, by_parity


def _chunks(count: int, n: int, limit: int):
    """(operators, mus) slices covering the 2n conjugates of `count` stacked
    operators in order, each at most `limit` entries (or one conjugate)."""
    per_chunk = limit // 4**n
    if per_chunk >= 2 * n:
        step = per_chunk // (2 * n)
        for p in range(0, count, step):
            yield slice(p, p + step), slice(None)
    else:
        step = max(per_chunk, 1)
        for p in range(count):
            for mu in range(0, 2 * n, step):
                yield slice(p, p + 1), slice(mu, mu + step)


def _conjugates(parents: np.ndarray, n: int, mus: slice) -> np.ndarray:
    """V c_mu V^dag for every V of the stack and every mu in mus, ordered by V, then mu."""
    _, cols, col_phase, _ = _word_gathers(n)
    vc = (parents[:, :, cols[mus]] * col_phase[mus]).transpose(0, 2, 1, 3)
    kids = vc @ parents.conj().transpose(0, 2, 1)[:, None]
    return kids.reshape(-1, 2**n, 2**n)


def _traces(nodes: np.ndarray, n: int) -> np.ndarray:
    """tr(c_mu V) / 2^n for every V of the stack and every mu, as a (B, 2n) array."""
    phase, cols, _, _ = _word_gathers(n)
    # tr(c_mu V) = sum_i phase[mu, i] V[i ^ f_mu, i]
    diag = nodes[:, cols, np.arange(2**n)]
    return np.einsum("bmi,mi->bm", diag, phase) / 2**n


def _parity_maxima(ops: np.ndarray, n: int) -> np.ndarray:
    """Largest |entry| of the parity-even and of the parity-odd part of each
    operator of the stack: the two values parity_of compares, as a (2, B) array."""
    by_parity = _word_gathers(n)[3]
    mags = np.abs(ops).reshape(len(ops), -1)[:, by_parity]
    return mags.reshape(len(ops), 2, -1).max(axis=2).T


def _rotations(ops: np.ndarray, n: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (B, 2n, 2n) of a stack of operators u, and which of them pass.

    R[mu, nu] = Re tr(c_nu V) / 2^n with V = u c_mu u^dag. An operator passes
    when every V equals sum_nu R[mu, nu] c_nu and R R^T equals the identity,
    both within tol.residual. The work stops once every operator has failed.
    """
    r = np.zeros((len(ops), 2 * n, 2 * n))
    ok = np.ones(len(ops), dtype=bool)
    basis = _jw_stack(n).reshape(2 * n, -1)
    for block, mus in _chunks(len(ops), n, CHUNK_ENTRIES):
        kids = _conjugates(ops[block], n, mus)
        rows = _traces(kids, n).real
        resid = np.abs(kids.reshape(len(kids), -1) - rows @ basis).max(axis=1)
        per_op = (len(ops[block]), -1)
        r[block, mus] = rows.reshape(*per_op, 2 * n)
        ok[block] &= (resid <= tol.residual).reshape(per_op).all(axis=1)
        if not ok.any():
            return r, ok
    ok &= np.abs(r @ r.transpose(0, 2, 1) - np.eye(2 * n)).max(axis=(1, 2)) <= tol.residual
    return r, ok


def mask_from_indices(indices) -> int:
    """Bit mask from 1-based Majorana indices; duplicates are rejected."""
    mask = 0
    for mu in indices:
        bit = 1 << (int(mu) - 1)
        if mask & bit:
            raise ValueError(f"duplicate Majorana index {mu}")
        mask |= bit
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending 1-based Majorana indices of a bit mask."""
    return tuple(mu + 1 for mu in range(int(mask).bit_length()) if (mask >> mu) & 1)


def majorana_monomial(n: int, mask: int) -> np.ndarray:
    """Ordered product of the Majoranas selected by mask (empty mask gives 1)."""
    if mask < 0 or mask >= 1 << (2 * n):
        raise ValueError(f"mask {mask} out of range for {2 * n} Majorana modes")
    _guard_qubits(n)
    return _word_matrix(*_word(n, indices_from_mask(mask)))


@dataclass
class MajoranaPoly:
    """A complex linear combination of Majorana monomials.

    terms maps monomial masks to coefficients; absent masks mean zero.
    """

    n_modes: int
    terms: dict[int, complex] = field(default_factory=dict)

    @property
    def n_qubits(self) -> int:
        return self.n_modes

    def prune(self, tol: float = DEFAULT_TOL.norm) -> "MajoranaPoly":
        """Drop coefficients below tol in magnitude."""
        kept = {m: c for m, c in self.terms.items() if abs(c) >= tol}
        return MajoranaPoly(self.n_modes, kept)

    def support(self) -> set[tuple[int, ...]]:
        """Monomial supports as tuples of 1-based indices."""
        return {indices_from_mask(m) for m in self.terms}

    def to_json(self) -> dict:
        """Stable JSON form: masks as ascending index lists, terms sorted by mask."""
        items = sorted(self.terms.items())
        return {
            "n": self.n_modes,
            "terms": [
                {"mask": list(indices_from_mask(m)), "re": float(c.real), "im": float(c.imag)}
                for m, c in items
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MajoranaPoly":
        n = int(data["n"])
        terms: dict[int, complex] = {}
        for entry in data["terms"]:
            mask = mask_from_indices(entry["mask"])
            terms[mask] = complex(float(entry["re"]), float(entry["im"]))
        return cls(n, terms)


def expand(op: np.ndarray, tol: float = DEFAULT_TOL.norm) -> MajoranaPoly:
    """Expand an operator over the Majorana monomial basis.

    Coefficients come from the trace inner product,
    alpha_m = tr(monomial(m)^dagger op) / 2^n; terms below tol are dropped.
    Cost grows as 4^n, intended for small n.
    """
    n = n_qubits_of(op)
    dim = 2**n
    terms: dict[int, complex] = {}
    for mask in range(4**n):
        mono = majorana_monomial(n, mask)
        coef = complex(np.trace(mono.conj().T @ op)) / dim
        if abs(coef) >= tol:
            terms[mask] = coef
    return MajoranaPoly(n, terms)


def poly_to_operator(poly: MajoranaPoly) -> np.ndarray:
    """Dense operator of a Majorana polynomial."""
    n = poly.n_modes
    out = np.zeros((2**n, 2**n), dtype=complex)
    for mask, coef in poly.terms.items():
        out += coef * majorana_monomial(n, mask)
    return out


@lru_cache(maxsize=None)
def total_parity(n: int) -> np.ndarray:
    """The total parity operator Z^{(x)n}."""
    op = kron_all(*([PAULI_Z] * n))
    op.setflags(write=False)
    return op


def parity_decompose(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an operator into its parity-even and parity-odd parts.

    The even part commutes with Z^{(x)n}, the odd part anticommutes;
    their sum is the input. The even part keeps the entries between basis
    states of equal parity and the odd part the rest, which is exactly
    (op +- Z op Z) / 2.
    """
    same = majorana_words(n_qubits_of(op)).same_parity
    return np.where(same, op, 0j), np.where(same, 0j, op)


def parity_of(op: np.ndarray, tol: float = DEFAULT_TOL.residual) -> Parity:
    """Classify an operator as parity even, odd, or neither."""
    even, odd = parity_decompose(op)
    if norm_max(odd) < tol:
        return "even"
    if norm_max(even) < tol:
        return "odd"
    return "none"


def state_parity(psi: np.ndarray, tol: float = DEFAULT_TOL.residual) -> Parity:
    """Classify a state vector by Z^{(x)n} psi = +/- psi."""
    zpsi = majorana_words(n_qubits_of(psi)).sign * psi
    if float(np.linalg.norm(zpsi - psi)) < tol:
        return "even"
    if float(np.linalg.norm(zpsi + psi)) < tol:
        return "odd"
    return "none"


def parity_sign(parity: Parity) -> int:
    """+1 for even, -1 for odd; errors on 'none'."""
    if parity == "even":
        return 1
    if parity == "odd":
        return -1
    raise ValueError("operator has no definite parity")


@dataclass(frozen=True)
class CarReport:
    """Outcome of checking the canonical anticommutation relations."""

    n_modes: int
    max_pair_residual: float
    worst_pair: tuple[int, int]
    max_hermiticity: float
    passed: bool


def check_car(ops: list[np.ndarray], tol: float = DEFAULT_TOL.residual) -> CarReport:
    """Check {c_mu, c_nu} = 2 delta_{mu nu} 1 over all pairs of a candidate tuple.

    The tuple must contain exactly 2n operators of dimension 2^n.
    """
    if not ops:
        raise ValueError("empty operator tuple")
    n = n_qubits_of(ops[0])
    if len(ops) != 2 * n:
        raise ValueError(f"expected {2 * n} operators for {n} qubits, got {len(ops)}")
    dim = 2**n
    eye2 = 2 * np.eye(dim)
    worst = 0.0
    worst_pair = (1, 1)
    herm = 0.0
    for i, a in enumerate(ops):
        if a.shape != (dim, dim):
            raise ValueError(f"operator {i + 1} has shape {a.shape}, expected {(dim, dim)}")
        herm = max(herm, norm_max(a - a.conj().T))
        for j in range(i, len(ops)):
            anti = a @ ops[j] + ops[j] @ a
            target = eye2 if i == j else 0.0
            resid = norm_max(anti - target)
            if resid > worst:
                worst, worst_pair = resid, (i + 1, j + 1)
    return CarReport(n, worst, worst_pair, herm, worst < tol)
