"""Gate teleportation with matchgate-magic states.

To teleport an n-qubit fermionic gate U: prepare the 2n-qubit magic state
|M_U> = (1 (x) U) B |0...0> with B the Bell-pair network of build_bn, put
the n input wires on top, measure all 2n upper wires in the basis defined
by B^dag, and undo the outcome with a correction.

Every one of the 4^n outcomes z occurs with probability exactly 4^-n, and
the post-measurement state on the bottom n wires is U K_z |psi> where the
measurement byproduct is the Majorana word

    K_z = (-i)^(z1 + z3 + ... + z_{2n-1})
          (-1)^(sum_j (z_{2j-1} + z_{2j})(z_{2j+1} + ... + z_{2n}))
          c_1^{z2} c_2^{z1} c_3^{z4} c_4^{z3} ... c_{2n-1}^{z_{2n}} c_{2n}^{z_{2n-1}}.

Like every Majorana word, K_z is a signed permutation: it sends basis
state i to i ^ f_z with a phase in {+-1, +-i}. The table of all 4^n
(flip, phase) pairs is built once per n from the Majorana word table, and
a branch's correction is a column gather of U times the conjugate phases,
then one product with U^dag; no K_z is ever multiplied out densely.

The correction R_z = U K_z^dag U^dag therefore lands every branch exactly
on U|psi>, phase included. When U sits at level k of the hierarchy, each
correction sits at level k - 1 at most, which is what makes the protocol
repeatable down to plain matchgate circuits.

A protocol run does only the work that depends on U and the input state.
The dense network B and B|0...0> depend on n alone and are built once per
n, then cached read-only (B is 4^n x 4^n: 16 MB stays alive after an n = 5
run). The magic state applies U to the low n wires of B|0...0> by one
2^n x 2^n product; no kron(1, U) is formed. Branch probabilities and
residuals come from one batched pass of row norms. The Lambda Gaussianity
test of the magic state runs only in magic_state, which reports it; the
protocol never reads it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import build_bn, circuit_to_operator
from .hierarchy import is_gaussian_state_lambda, min_level
from .linalg import DEFAULT_TOL, Tolerances, assert_unitary, n_qubits_of
from .io import complex_to_json, state_to_json
from .majorana import Parity, _word, _word_matrix, parity_sign, state_parity
from .sampling import random_state


@dataclass(frozen=True)
class MagicState:
    """The resource state |M_U> for teleporting a fermionic gate U."""

    n: int  # qubits of the teleported gate; the state lives on 2n
    psi: np.ndarray
    parity: Parity
    is_gaussian: bool

    @property
    def parity_sign(self) -> int:
        return parity_sign(self.parity)


def magic_state(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> MagicState:
    """Build |M_U| = (1 (x) U) B |0^{2n}> and record its parity and
    Gaussianity. The state parity always matches the parity of U; the
    state is Gaussian exactly when U is."""
    assert_unitary(u, tol.unitary, "teleported gate")
    psi, par = _magic_psi(u, tol)
    return MagicState(n_qubits_of(u), psi, par, is_gaussian_state_lambda(psi, tol))


def _magic_psi(u: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, Parity]:
    """The magic state (1 (x) U) B |0^{2n}> of a unitary u and its parity;
    refuses a state of no definite parity."""
    n = n_qubits_of(u)
    # b0 as a 2^n x 2^n array indexes (high wires, low wires), so
    # (1 (x) U) b0 is that array times U^T.
    b0 = _network(n)[1]
    psi = (b0.reshape(2**n, 2**n) @ u.T).ravel()
    par = state_parity(psi, tol.residual)
    if par == "none":
        raise ValueError("magic state has no definite parity; the gate is not fermionic")
    return psi, par


@lru_cache(maxsize=None)
def _network(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense Bell-pair network B_n and B_n |0^{2n}> (cached per n, read-only)."""
    bn = circuit_to_operator(build_bn(n))
    zero = np.zeros(4**n, dtype=complex)
    zero[0] = 1.0
    b0 = bn @ zero
    for a in (bn, b0):
        a.setflags(write=False)
    return bn, b0


def correction_K(z, n: int) -> np.ndarray:
    """The measurement byproduct word K_z for outcome bits z in {0,1}^{2n}."""
    return _word_matrix(*_byproduct(z, n))


def correction_R(z, u: np.ndarray) -> np.ndarray:
    """The branch correction R_z = U K_z^dag U^dag; exact, phase included."""
    flip, phase = _byproduct(z, n_qubits_of(u))
    return _corrections(u, np.array([flip]), phase[None])[0]


def _byproduct(z, n: int) -> tuple[int, np.ndarray]:
    """K_z as a signed permutation (flip, phase): K_z[i, i ^ flip] = phase[i]."""
    z = tuple(int(b) for b in z)
    if len(z) != 2 * n or any(b not in (0, 1) for b in z):
        raise ValueError(f"need {2 * n} outcome bits, got {z}")
    s = sum(z[0::2])
    t = 0
    for j in range(1, n):
        t += (z[2 * j - 2] + z[2 * j - 1]) * sum(z[2 * j :])
    mus = []
    for k in range(1, n + 1):
        if z[2 * k - 1]:
            mus.append(2 * k - 1)
        if z[2 * k - 2]:
            mus.append(2 * k)
    flip, phase = _word(n, mus)
    return flip, ((-1j) ** s) * ((-1) ** t) * phase


@lru_cache(maxsize=None)
def _outcome(zi: int, n: int) -> tuple[int, ...]:
    """The 2n outcome bits of branch zi, most significant first."""
    return tuple((zi >> (2 * n - 1 - b)) & 1 for b in range(2 * n))


@lru_cache(maxsize=None)
def _byproducts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flips (4^n,) and phases (4^n, 2^n) of every K_z, in branch order (read-only)."""
    words = [_byproduct(_outcome(zi, n), n) for zi in range(4**n)]
    flips = np.array([flip for flip, _ in words], dtype=np.intp)
    phases = np.stack([phase for _, phase in words])
    for a in (flips, phases):
        a.setflags(write=False)
    return flips, phases


def _corrections(u: np.ndarray, flips: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """U K^dag U^dag for every word K = (flips[b], phases[b]), as a (B, 2^n, 2^n) stack."""
    # (U K^dag)[:, j] = U[:, j ^ flip] conj(phase[j])
    cols = np.arange(u.shape[0]) ^ flips[:, None]
    uk = u[:, cols]
    uk *= phases.conj()
    return uk.transpose(1, 0, 2) @ u.conj().T


@dataclass(frozen=True)
class Branch:
    """One measurement outcome of the protocol."""

    z: tuple[int, ...]
    probability: float
    raw_state: np.ndarray  # normalized post-measurement state, phase kept
    correction: np.ndarray
    corrected: np.ndarray
    residual_vs_target: float
    phase: complex  # <U psi | corrected>, should be 1


@dataclass(frozen=True)
class TeleportTranscript:
    n: int
    input_state: np.ndarray
    target_state: np.ndarray
    branches: tuple[Branch, ...]

    @property
    def max_residual(self) -> float:
        return max(b.residual_vs_target for b in self.branches)

    @property
    def max_probability_deviation(self) -> float:
        expected = 4.0 ** (-self.n)
        return max(abs(b.probability - expected) for b in self.branches)

    def to_json(self, include_states: bool = False) -> dict:
        branches = []
        for b in self.branches:
            entry = {
                "z": list(b.z),
                "probability": float(b.probability),
                "residual_vs_target": float(b.residual_vs_target),
                "phase": complex_to_json(b.phase),
            }
            if include_states:
                entry["raw_state"] = state_to_json(b.raw_state)
                entry["corrected"] = state_to_json(b.corrected)
            branches.append(entry)
        out = {
            "n": self.n,
            "branch_count": len(self.branches),
            "max_residual": float(self.max_residual),
            "max_probability_deviation": float(self.max_probability_deviation),
            "branches": branches,
        }
        if include_states:
            out["input_state"] = state_to_json(self.input_state)
            out["target_state"] = state_to_json(self.target_state)
        return out


def simulate_protocol(
    u: np.ndarray, psi_in: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> TeleportTranscript:
    """Run all 4^n branches of the teleportation of U on psi_in.

    Wire layout: input wires 1..n, magic-state wires n+1..3n (so the
    measured register is wires 1..2n and the output appears on the last n).
    Branch probabilities are uniform 4^-n by construction; a branch with
    vanishing norm signals a bug and raises rather than being skipped.
    """
    assert_unitary(u, tol.unitary, "teleported gate")
    n = n_qubits_of(u)
    if abs(np.linalg.norm(psi_in) - 1.0) > tol.norm:
        raise ValueError("input state must be normalized")
    bn = _network(n)[0]
    psi, _ = _magic_psi(u, tol)
    joint = np.kron(psi_in, psi)
    rows = bn.conj().T @ joint.reshape(4**n, 2**n)
    target = u @ psi_in
    # Squared one by one: libm's pow(x, 2), which the scalar ** calls, is
    # not always x * x, and an array ** 2 squares.
    probs = [float(norm) ** 2 for norm in _row_norms(rows)]
    for zi, prob in enumerate(probs):
        if prob < tol.norm:
            raise ValueError(f"branch {zi:0{2 * n}b} has vanishing probability; protocol broken")
    raws = rows / np.sqrt(probs)[:, None]
    corrs = _corrections(u, *_byproducts(n))
    corrected = (corrs @ raws[:, :, None])[:, :, 0]
    residuals = _row_norms(corrected - target)
    branches = []
    for zi, (prob, raw, corr, out, residual) in enumerate(
        zip(probs, raws, corrs, corrected, residuals)
    ):
        phase = complex(np.vdot(target, out))
        branches.append(Branch(_outcome(zi, n), prob, raw, corr, out, float(residual), phase))
    return TeleportTranscript(n, psi_in, target, tuple(branches))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every row, to the bit: sqrt(re.re + im.im), each dot
    a row times a column, which matmul hands to the same BLAS dot."""
    re, im = rows.real, rows.imag
    sq = (re[:, None, :] @ re[:, :, None]) + (im[:, None, :] @ im[:, :, None])
    return np.sqrt(sq[:, 0, 0])


@dataclass(frozen=True)
class ProtocolReport:
    """Aggregate verification of the protocol over random inputs."""

    n: int
    trials: int
    seed: int
    branch_count: int
    max_residual: float
    max_probability_deviation: float
    correction_levels: tuple[tuple[int | None, int], ...]  # (min_level, count) pairs
    passed: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "branch_count": self.branch_count,
            "max_residual": float(self.max_residual),
            "max_probability_deviation": float(self.max_probability_deviation),
            "correction_levels": [
                {"min_level": lvl, "count": cnt} for lvl, cnt in self.correction_levels
            ],
            "passed": self.passed,
        }


def verify_protocol(
    u: np.ndarray,
    trials: int = 5,
    seed: int = 0,
    k_max_corrections: int = 6,
    tol: Tolerances = DEFAULT_TOL,
) -> ProtocolReport:
    """Teleport `trials` seeded random states through U and aggregate the
    worst residual and probability deviation; also classify the
    corrections R_z into hierarchy levels (they sit one level below U)."""
    n = n_qubits_of(u)
    rng = np.random.default_rng(seed)
    max_resid = 0.0
    max_prob_dev = 0.0
    for _ in range(trials):
        transcript = simulate_protocol(u, random_state(n, rng), tol)
        max_resid = max(max_resid, transcript.max_residual)
        max_prob_dev = max(max_prob_dev, transcript.max_probability_deviation)

    # Corrections depend only on z, not the input. No two are equal up to
    # phase: distinct z give distinct, trace-orthogonal Majorana words K_z,
    # so ||R_z - lambda R_z'||_F^2 = 2 * 2^n for every phase lambda.
    corrections = _corrections(u, *_byproducts(n))
    by_level = Counter(min_level(r, k_max_corrections, tol) for r in corrections)
    levels = tuple(sorted(by_level.items(), key=lambda kv: (kv[0] is None, kv[0])))
    return ProtocolReport(
        n,
        trials,
        seed,
        4**n,
        max_resid,
        max_prob_dev,
        levels,
        max_resid < tol.residual,
    )
