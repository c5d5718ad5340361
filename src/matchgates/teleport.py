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

K_z is an ordered Majorana monomial times a scalar: the monomial of the
outcome bits with each pair swapped, times (-i)^s (-1)^t. Like every
Majorana word, it is a signed permutation: it sends basis state i to
i ^ f_z with a phase in {+-1, +-i}. The table of all 4^n (flip, phase)
pairs is read once per n from the bulk monomial table
(``majorana._monomials``), one row per outcome scaled by its scalar, and
the corrections go through the word-conjugation kernel that also
conjugates by single Majoranas (``majorana._word_conjugates``): U K_z^dag
is a column gather of U times the conjugate phases, written for a run of
branches into one contiguous block, and one tall GEMM with U^dag turns the
run into corrections. No K_z is ever multiplied out densely, and the
corrections are streamed: each run of at most CHUNK_ENTRIES entries (or
one correction) is applied, or classified, and dropped before the next is
made, at every n. The table itself takes 4^n 2^n complex entries, 32 MiB
at n = 7.

The correction R_z = U K_z^dag U^dag therefore lands every branch exactly
on U|psi>, phase included. When U sits at level k of the hierarchy, each
correction sits at level k - 1 at most, which is what makes the protocol
repeatable down to plain matchgate circuits.

A protocol run does only the work that depends on U and the input state.
The network circuit build_bn(n), B^dag, B|0...0> and the byproduct table
depend on n alone and follow the package's one cache rule
(linalg._cached): built once per n, then read-only. Up to
DENSE_NETWORK_QUBITS the cache holds B^dag densely, as the transposed
view of conj(B) that simulate_protocol's one GEMM with the joint state
reads (4^n x 4^n: 16 MB stays alive after an n = 5 run).
From n = 6 on, where B^dag would take 256 MB, the cache holds None in its
place, and simulate_protocol applies B^dag to the (4^n, 2^n) joint state
as the n + n(n-1)/2 two-qubit gates of build_bn, in reverse order and
each conjugate-transposed (circuits.apply_circuit). B|0...0> is built
from those gates at every n, dense B^dag or not. From n = 8 on the
network would act on 16 qubits, past linalg.MAX_QUBITS, and build_bn
refuses it. The magic state applies U to the low n wires of B|0...0>
by one 2^n x 2^n product; no 1 (x) U is formed. Branch probabilities,
residuals and phases come from one batched pass each, row norms and
stacked row-times-column products. The probabilities are searched for a
vanishing branch only when their minimum is below NORM_TOL, and the 4^n
Branch records are slotted dataclasses, not frozen ones, which cost about
a third as much to build (see Branch). The Lambda Gaussianity test of the
magic state runs only in magic_state, which reports it; the protocol never
reads it.

magic_state, simulate_protocol and verify_protocol read the teleported
gate once, by _magic_psi, before anything else. It reads the gate by
majorana._read_gate, the classifier's reader: its shape and qubit count,
then its unitarity, then its parity by parity_of. The magic state's
parity is the gate's, since B|0...0> is even, so a gate that mgh
classify calls even or odd is teleported, and one of no definite parity
is refused before the input state is read. The input state is read by
linalg._read_state: a vector, its qubit count, then its norm, and only
then is its qubit count matched to the gate's.

That reading of the gate is the one unitarity judgment of the gate and of
everything derived from it. The magic state and the corrections R_z are
built from the admitted U and inherit its unitarity slack, so neither is
read again: magic_state thresholds the Lambda norm of the state it built,
and verify_protocol classifies each correction by the root parity test
and the search that min_level runs (hierarchy._min_level). NORM_TOL
judges only the input state and the branch probabilities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuits import apply_circuit, build_bn, circuit_to_operator
from .hierarchy import _min_level, _state_lambda_norm
from .linalg import DEFAULT_TOL, NORM_TOL, Tolerances, _cached, _integer, _read_state
from .io import complex_to_json, state_to_json
from .majorana import Parity, _monomials, _read_gate, _runs, _word_conjugates, parity_of, parity_sign
from .sampling import random_state

# Largest n whose Bell-pair network is cached and applied as one dense
# 4^n x 4^n matrix; from n = 6 on it is applied gate by gate.
DENSE_NETWORK_QUBITS = 5


@dataclass(frozen=True, eq=False)
class MagicState:
    """The resource state |M_U> for teleporting a fermionic gate U; its
    parity is U's, read by parity_of. == and hash() go by identity."""

    n: int  # qubits of the teleported gate; the state lives on 2n
    psi: np.ndarray
    parity: Parity
    is_gaussian: bool

    @property
    def parity_sign(self) -> int:
        return parity_sign(self.parity)


def magic_state(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> MagicState:
    """Build |M_U> = (1 (x) U) B |0^{2n}> and record its parity and
    Gaussianity. The parity is the gate's, read by parity_of, since
    B |0^{2n}> is even; the state is Gaussian exactly when U is, by the
    Lambda test's norm below tol.residual. The state is not read again as
    an input: its norm is the gate's, which _magic_psi admitted as unitary,
    so every gate of definite parity that _read_gate admits has one."""
    n, par, psi = _magic_psi(u, tol)
    return MagicState(n, psi, par, _state_lambda_norm(psi) < tol.residual)


def _magic_psi(u: np.ndarray, tol: Tolerances) -> tuple[int, Parity, np.ndarray]:
    """The one reader of a teleported gate: reads u by majorana._read_gate
    (its shape and size, then its unitarity, then its parity by parity_of,
    the classifier's rule), refuses a gate of no definite parity, and only
    then forms the magic state (1 (x) U) B |0^{2n}>. Returns the gate's
    qubit count, its parity, which is the state's, and the state."""
    n, par = _read_gate(u, tol, "teleported gate")
    if par == "none":
        raise ValueError("magic state has no definite parity; the gate is not fermionic")
    # b0 as a 2^n x 2^n array indexes (high wires, low wires), so
    # (1 (x) U) b0 is that array times U^T.
    b0 = _network(n)[1]
    return n, par, (b0.reshape(2**n, 2**n) @ u.T).ravel()


@_cached
def _network(n: int) -> tuple[np.ndarray | None, np.ndarray]:
    """B_n^dag and B_n |0^{2n}> of the Bell-pair network, built once per n (linalg._cached).

    B_n^dag is dense up to DENSE_NETWORK_QUBITS, the transposed view of
    conj(B_n), and None from there on, where simulate_protocol applies its
    gates. B_n |0^{2n}> is built from the gates at every n.
    """
    network = build_bn(n)  # refuses 2n > linalg.MAX_QUBITS before zero is allocated
    zero = np.zeros(4**n, dtype=complex)
    zero[0] = 1.0
    bn_dag = circuit_to_operator(network).conj().T if n <= DENSE_NETWORK_QUBITS else None
    # + 0.0 turns the three -0 entries the gates leave at n = 2 into the +0
    # that the dense product B e_0 gave, so B|0...0> keeps its bits at every n
    return bn_dag, apply_circuit(network, zero) + 0.0


@_cached
def _byproducts(n: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """Flips (4^n,) and phases (4^n, 2^n) of every K_z, and the outcomes z,
    in branch order, built once per n (linalg._cached).

    K_z is the monomial of the outcome bits with each pair swapped, c_{2k-1}
    going with z_{2k} and c_{2k} with z_{2k-1}, times (-i)^s (-1)^t.
    """
    # bits[zi, b] is outcome bit z_{b+1} of branch zi, most significant first
    bits = (np.arange(4**n)[:, None] >> np.arange(2 * n - 1, -1, -1)) & 1
    masks = bits.reshape(-1, n, 2)[:, :, ::-1].reshape(-1, 2 * n) @ (1 << np.arange(2 * n))
    s = bits[:, 0::2].sum(axis=1)
    # t = sum_j (z_{2j-1} + z_{2j}) (z_{2j+1} + ... + z_{2n}), j = 1 .. n-1
    after = np.cumsum(bits[:, ::-1], axis=1)[:, ::-1]
    t = ((bits[:, 0:-2:2] + bits[:, 1:-2:2]) * after[:, 2::2]).sum(axis=1)
    # scale[s, t % 2] is (-1j) ** s * (-1) ** t in Python complex arithmetic,
    # whose signed zeros the phases keep
    scale = np.array([[(-1j) ** k * (-1) ** odd for odd in (0, 1)] for k in range(n + 1)])
    flips, phases = _monomials(n)
    flips, phases = flips[masks], phases[masks]
    phases *= scale[s, t % 2][:, None]
    return flips, phases, tuple(map(tuple, bits.tolist()))


def _correction_runs(u: np.ndarray, flips: np.ndarray, phases: np.ndarray):
    """The corrections U K^dag U^dag of the words K = (flips[b], phases[b])
    as (run, stack) pairs: stack holds the (len(run), 2^n, 2^n) corrections
    of the slice run of the words, and the runs cover the words in order.

    The word-conjugation kernel of ``majorana`` on the words K^dag, in the
    runs of majorana._runs: at most CHUNK_ENTRIES gathered entries each (or
    one word).
    """
    dim = u.shape[0]
    for run in _runs(len(flips), dim**2):
        # (U K^dag)[:, j] = U[:, j ^ flip] conj(phase[j])
        cols = np.arange(dim) ^ flips[run, None]
        yield run, _word_conjugates(u[None], cols, phases[run].conj()).reshape(-1, dim, dim)


@dataclass(slots=True, eq=False)
class Branch:
    """One measurement outcome of the protocol.

    A slotted dataclass, not a frozen one: a protocol run builds 4^n of
    them, and a frozen __init__ sets each of the six fields by
    object.__setattr__. 64 records took 152 us frozen, 158 us frozen with
    slots and 49 us slotted (2-vCPU x86-64 host). What that gives up is the
    refusal to rebind a field; dataclasses.replace works as before. == and
    hash() go by identity (eq=False), as for every record of the package
    with array fields: a generated __eq__ compares the arrays and raised
    ValueError on two distinct records.
    """

    z: tuple[int, ...]
    probability: float
    raw_state: np.ndarray  # normalized post-measurement state, phase kept
    corrected: np.ndarray
    residual_vs_target: float
    phase: complex  # <U psi | corrected>, should be 1


@dataclass(frozen=True, eq=False)
class TeleportTranscript:
    """One protocol run: its input, target and 4^n branches. == and hash()
    go by identity."""

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
    n, _, psi = _magic_psi(u, tol)
    m = _read_state(psi_in, "input state")
    if m != n:
        raise ValueError(f"input state is on {m} qubit(s), the teleported gate on {n}")
    # (B_n^dag (x) 1) joint: row z is branch z, unnormalized
    joint = np.outer(psi_in, psi).reshape(4**n, 2**n)
    bn_dag = _network(n)[0]
    rows = apply_circuit(build_bn(n), joint, adjoint=True) if bn_dag is None else bn_dag @ joint
    target = u @ psi_in
    # Squared one by one: libm's pow(x, 2), which the scalar ** calls, is
    # not always x * x, and an array ** 2 squares.
    probs = [norm**2 for norm in _row_norms(rows).tolist()]
    if min(probs) < NORM_TOL:
        zi = next(zi for zi, prob in enumerate(probs) if prob < NORM_TOL)
        raise ValueError(f"branch {zi:0{2 * n}b} has vanishing probability; protocol broken")
    raws = rows / np.sqrt(probs)[:, None]
    *words, outcomes = _byproducts(n)
    corrected = np.empty_like(raws)
    for run, corrections in _correction_runs(u, *words):
        corrected[run] = (corrections @ raws[run, :, None])[:, :, 0]
    residuals = _row_norms(corrected - target).tolist()
    # <target|out> for every branch: a row times a column, the dot np.vdot takes
    phases = (target.conj()[None, None, :] @ corrected[:, :, None])[:, 0, 0].tolist()
    branches = tuple(map(Branch, outcomes, probs, raws, corrected, residuals, phases))
    return TeleportTranscript(n, psi_in, target, branches)


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
    corrections R_z into hierarchy levels (they sit one level below U).
    Refuses fewer than one trial, which would check nothing, a seed that
    is not an integer >= 0, and a gate that _magic_psi refuses, before the
    first state is drawn. Each correction is classified by min_level's root
    parity test and search (hierarchy._min_level), not re-read as a gate:
    it is conjugated from the admitted U, whose unitarity slack it
    inherits, about twice U's defect."""
    _integer(trials, "trials", 1)
    _integer(k_max_corrections, "level cap", 1)
    n = _magic_psi(u, tol)[0]
    _integer(seed, "seed", 0)
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
    by_level = Counter()
    for _, corrections in _correction_runs(u, *_byproducts(n)[:2]):
        by_level.update(_min_level(r, parity_of(r, tol.residual), k_max_corrections, tol) for r in corrections)
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
