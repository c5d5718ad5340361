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

The correction R_z = U K_z^dag U^dag therefore lands every branch exactly
on U|psi>, phase included. When U sits at level k of the hierarchy, each
correction sits at level k - 1 at most, which is what makes the protocol
repeatable down to plain matchgate circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import build_bn, circuit_to_operator
from .hierarchy import is_gaussian_state_lambda, min_level
from .linalg import DEFAULT_TOL, Tolerances, assert_unitary, equal_up_to_phase, n_qubits_of
from .majorana import Parity, jw_majorana, state_parity
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
        return 1 if self.parity == "even" else -1


def magic_state(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> MagicState:
    """Build |M_U| = (1 (x) U) B |0^{2n}> and record its parity and
    Gaussianity. The state parity always matches the parity of U; the
    state is Gaussian exactly when U is."""
    assert_unitary(u, tol.unitary, "teleported gate")
    return _magic_state(u, circuit_to_operator(build_bn(n_qubits_of(u))), tol)


def _magic_state(u: np.ndarray, bn: np.ndarray, tol: Tolerances) -> MagicState:
    """magic_state of a unitary u, given the dense Bell-pair network bn."""
    n = n_qubits_of(u)
    zero = np.zeros(4**n, dtype=complex)
    zero[0] = 1.0
    psi = np.kron(np.eye(2**n, dtype=complex), u) @ (bn @ zero)
    par = state_parity(psi, tol.residual)
    if par == "none":
        raise ValueError("magic state has no definite parity; the gate is not fermionic")
    return MagicState(n, psi, par, is_gaussian_state_lambda(psi, tol))


def correction_K(z, n: int) -> np.ndarray:
    """The measurement byproduct word K_z for outcome bits z in {0,1}^{2n}."""
    z = tuple(int(b) for b in z)
    if len(z) != 2 * n or any(b not in (0, 1) for b in z):
        raise ValueError(f"need {2 * n} outcome bits, got {z}")
    s = sum(z[0::2])
    t = 0
    for j in range(1, n):
        t += (z[2 * j - 2] + z[2 * j - 1]) * sum(z[2 * j :])
    word = np.eye(2**n, dtype=complex)
    for k in range(1, n + 1):
        if z[2 * k - 1]:
            word = word @ jw_majorana(n, 2 * k - 1)
        if z[2 * k - 2]:
            word = word @ jw_majorana(n, 2 * k)
    return ((-1j) ** s) * ((-1) ** t) * word


def correction_R(z, u: np.ndarray) -> np.ndarray:
    """The branch correction R_z = U K_z^dag U^dag; exact, phase included."""
    n = n_qubits_of(u)
    k = correction_K(z, n)
    return u @ k.conj().T @ u.conj().T


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
                "phase": {"re": float(b.phase.real), "im": float(b.phase.imag)},
            }
            if include_states:
                entry["raw_state"] = _vec_json(b.raw_state)
                entry["corrected"] = _vec_json(b.corrected)
            branches.append(entry)
        out = {
            "n": self.n,
            "branch_count": len(self.branches),
            "max_residual": float(self.max_residual),
            "max_probability_deviation": float(self.max_probability_deviation),
            "branches": branches,
        }
        if include_states:
            out["input_state"] = _vec_json(self.input_state)
            out["target_state"] = _vec_json(self.target_state)
        return out


def _vec_json(v: np.ndarray) -> dict:
    return {"re": [float(x) for x in v.real], "im": [float(x) for x in v.imag]}


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
    bn = circuit_to_operator(build_bn(n))
    magic = _magic_state(u, bn, tol)
    joint = np.kron(psi_in, magic.psi)
    rows = bn.conj().T @ joint.reshape(4**n, 2**n)
    target = u @ psi_in
    branches = []
    for zi in range(4**n):
        row = rows[zi]
        prob = float(np.linalg.norm(row) ** 2)
        if prob < tol.norm:
            raise ValueError(f"branch {zi:0{2 * n}b} has vanishing probability; protocol broken")
        raw = row / np.sqrt(prob)
        z = tuple((zi >> (2 * n - 1 - b)) & 1 for b in range(2 * n))
        corr = correction_R(z, u)
        corrected = corr @ raw
        residual = float(np.linalg.norm(corrected - target))
        phase = complex(np.vdot(target, corrected))
        branches.append(Branch(z, prob, raw, corr, corrected, residual, phase))
    return TeleportTranscript(n, psi_in, target, tuple(branches))


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
    worst residual and probability deviation; also classify the distinct
    corrections R_z into hierarchy levels (they sit one level below U)."""
    n = n_qubits_of(u)
    rng = np.random.default_rng(seed)
    max_resid = 0.0
    max_prob_dev = 0.0
    for _ in range(trials):
        transcript = simulate_protocol(u, random_state(n, rng), tol)
        max_resid = max(max_resid, transcript.max_residual)
        max_prob_dev = max(max_prob_dev, transcript.max_probability_deviation)

    # Corrections depend only on z, not the input; group them up to phase.
    reps: list[np.ndarray] = []
    counts: list[int] = []
    for zi in range(4**n):
        z = tuple((zi >> (2 * n - 1 - b)) & 1 for b in range(2 * n))
        r = correction_R(z, u)
        for i, rep in enumerate(reps):
            if equal_up_to_phase(r, rep, tol.residual).equal:
                counts[i] += 1
                break
        else:
            reps.append(r)
            counts.append(1)
    by_level: dict[int | None, int] = {}
    for rep, cnt in zip(reps, counts):
        lvl = min_level(rep, k_max_corrections, tol)
        by_level[lvl] = by_level.get(lvl, 0) + cnt
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
