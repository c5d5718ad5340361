"""Self-contained verification corpus: ten numbered criteria covering the
Majorana algebra, the Gaussian backends, the hierarchy classifiers, the
teleportation protocol, the unitary reconstruction, and the closure laws.

Each criterion runs from fixed seeds, compares independent computation
routes where the check is about agreement, and returns a CriterionResult.
The pytest acceptance module and the command line `selftest` both drive
these functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import build_F, circuit_to_operator, circuit_to_rotation, named_gate
from .hierarchy import (
    equiv_class,
    extract_rotation,
    first_level_coeffs,
    is_gaussian_lambda,
    is_gaussian_state_lambda,
    level_membership,
    min_level,
    two_qubit_min_level,
)
from .linalg import _integer, equal_up_to_phase, n_qubits_of, norm_max
from .majorana import check_car, jw_majorana, jw_set, parity_of, parity_sign, total_parity
from .sampling import (
    random_fermionic,
    random_matchgate,
    random_matchgate_circuit,
    random_state,
    random_two_qubit_at_root,
)
from .svn import svn_reconstruct
from .teleport import magic_state, simulate_protocol

BASE_SEED = 20240822


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.index}: {self.name} ({self.detail})"


def _distant_fswap3() -> np.ndarray:
    """Fermionic SWAP of wires 1 and 3 on three qubits:
    |x,y,z> -> (-1)^(xz) |z,y,x>."""
    m = np.zeros((8, 8), dtype=complex)
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                m[(z << 2) | (y << 1) | x, (x << 2) | (y << 1) | z] = (-1.0) ** (x * z)
    return m


def criterion_1(seed: int = BASE_SEED) -> CriterionResult:
    """Jordan-Wigner operators for n = 1..5 are Hermitian, unitary, odd,
    and satisfy the anticommutation relations, residual < 1e-12."""
    tol = 1e-12
    worst = 0.0
    ok = True
    for n in range(1, 6):
        ops = jw_set(n)
        eye = np.eye(2**n)
        for op in ops:
            worst = max(worst, norm_max(op - op.conj().T))
            worst = max(worst, norm_max(op.conj().T @ op - eye))
            if parity_of(op, tol) != "odd":
                ok = False
        report = check_car(ops, tol)
        worst = max(worst, report.max_pair_residual)
        ok = ok and report.passed
    ok = ok and worst < tol
    return CriterionResult(1, "Jordan-Wigner CAR suite, n = 1..5", ok, f"max residual {worst:.2e}")


def criterion_2(seed: int = BASE_SEED + 2) -> CriterionResult:
    """100 seeded matchgate circuits at n = 3, 4 (depth <= 30): dense
    rotation extraction is orthogonal with det +1, matches the compact
    per-gate route entrywise, and the pairing-operator test agrees;
    SWAP and its magic state are correctly rejected."""
    tol = 1e-9
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for i in range(100):
        n = 3 if i < 50 else 4
        depth = int(rng.integers(1, 31))
        circ = random_matchgate_circuit(n, depth, rng)
        u = circuit_to_operator(circ)
        dense = extract_rotation(u)
        if dense is None:
            ok = False
            continue
        worst = max(worst, norm_max(dense @ dense.T - np.eye(2 * n)))
        worst = max(worst, abs(float(np.linalg.det(dense)) - 1.0))
        compact = circuit_to_rotation(circ)
        worst = max(worst, norm_max(dense - compact))
        if not is_gaussian_lambda(u):
            ok = False
    swap = named_gate("SWAP")
    if extract_rotation(swap) is not None or is_gaussian_lambda(swap):
        ok = False
    if is_gaussian_state_lambda(magic_state(swap).psi):
        ok = False
    ok = ok and worst < tol
    return CriterionResult(
        2, "Gaussian rotation backends agree on 100 circuits", ok, f"max residual {worst:.2e}"
    )


def criterion_3(seed: int = BASE_SEED + 3) -> CriterionResult:
    """Canonical minimum levels, exact integers: SWAP and CZ at 3, the
    CPHASE ladder at 3..6, Majoranas at 1, the two displayed three-qubit
    gates at 3, and every length-3 pattern gate at weight + 1."""
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    expect("SWAP", min_level(named_gate("SWAP")), 3)
    expect("CZ", min_level(named_gate("CZ")), 3)
    for k in range(3, 7):
        gate = named_gate("CPHASE", (2 * np.pi / 2 ** (k - 2),))
        expect(f"CPHASE(2pi/2^{k - 2})", min_level(gate), k)
    for mu in range(1, 5):
        expect(f"c_{mu}", min_level(jw_majorana(2, mu)), 1)
    expect("distant fSWAP (wires 1,3)", min_level(_distant_fswap3()), 3)
    expect("F(1,*,1)", min_level(build_F((1, None, 1))), 3)
    count = 0
    for code in range(27):
        pattern = tuple((None, 0, 1)[(code // 3**k) % 3] for k in range(3))
        weight = sum(1 for p in pattern if p is not None)
        if weight == 0:
            continue
        count += 1
        expect(f"F{pattern}", min_level(build_F(pattern)), weight + 1)
    detail = f"all exact ({count} patterns)" if not failures else "; ".join(failures[:4])
    return CriterionResult(3, "canonical gate levels", not failures, detail)


def _planted_corpus(seed: int, total: int = 200):
    """Two-qubit gates with determinant ratios planted at dyadic roots of
    unity, cycling over level k = 2..6, every root index, both parities."""
    rng = np.random.default_rng(seed)
    combos = []
    for k in range(2, 7):
        for j in range(2 ** (k - 2)):
            combos.append((k, j, False))
            combos.append((k, j, True))
    gates = []
    i = 0
    while len(gates) < total:
        k, j, odd = combos[i % len(combos)]
        gates.append(random_two_qubit_at_root(rng, k, j, odd))
        i += 1
    return gates


def criterion_4(seed: int = BASE_SEED + 4) -> CriterionResult:
    """200 planted two-qubit gates: the closed-form level from the block
    determinants equals the recursive minimum level exactly."""
    gates = _planted_corpus(seed)
    mismatches = 0
    for g in gates:
        closed = two_qubit_min_level(g)
        recursive = min_level(g, k_max=7)
        if closed != recursive:
            mismatches += 1
    return CriterionResult(
        4,
        "two-qubit closed form matches recursion on 200 planted gates",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def criterion_5(seed: int = BASE_SEED + 4) -> CriterionResult:
    """Class counts from the criterion-4 corpus: gates at level <= k
    realize 2^(k-2) even-class phases and 2^(k-3) + 1 generalised ones."""
    gates = _planted_corpus(seed)
    records = []
    for g in gates:
        lvl = two_qubit_min_level(g)
        par = parity_of(g)
        cls = equiv_class(g)
        records.append((lvl, par, cls.phi, cls.generalised_phi))
    finest = 2 * np.pi / 16

    def snap(phi):
        return int(round(phi / finest)) % 16

    failures = []
    for k in range(3, 7):
        even_phases = {snap(phi) for lvl, par, phi, _ in records if lvl <= k and par == "even"}
        gen_phases = {snap(gphi) for lvl, _, _, gphi in records if lvl <= k}
        if len(even_phases) != 2 ** (k - 2):
            failures.append(f"k={k}: {len(even_phases)} even classes, want {2 ** (k - 2)}")
        if len(gen_phases) != 2 ** (k - 3) + 1:
            failures.append(f"k={k}: {len(gen_phases)} generalised classes, want {2 ** (k - 3) + 1}")
    detail = "counts match for k = 3..6" if not failures else "; ".join(failures)
    return CriterionResult(5, "equivalence-class counts per level", not failures, detail)


def _teleport_gates_n2(seed: int):
    rng = np.random.default_rng(seed)
    return [
        ("identity", np.eye(4, dtype=complex)),
        ("SWAP", named_gate("SWAP")),
        ("CZ", named_gate("CZ")),
        ("CPHASE(pi/2)", named_gate("CPHASE", (np.pi / 2,))),
        ("random matchgate", random_matchgate(rng)),
        ("random level-4 gate", random_two_qubit_at_root(rng, 4, 1)),
    ]


def _teleport_gates_n3():
    return [
        ("distant fSWAP (wires 1,3)", _distant_fswap3()),
        ("F(1,*,1)", build_F((1, None, 1))),
    ]


def _run_teleport(gates, n: int, seed: int):
    prob_tol = 1e-12
    resid_tol = 1e-9
    rng = np.random.default_rng(seed)
    worst_prob = 0.0
    worst_resid = 0.0
    for _, u in gates:
        for _ in range(5):
            t = simulate_protocol(u, random_state(n, rng))
            if len(t.branches) != 4**n:
                return False, "wrong branch count"
            worst_prob = max(worst_prob, t.max_probability_deviation)
            worst_resid = max(worst_resid, t.max_residual)
    ok = worst_prob < prob_tol and worst_resid < resid_tol
    return ok, f"max |p - 4^-n| {worst_prob:.2e}, max residual {worst_resid:.2e}"


def criterion_6(seed: int = BASE_SEED + 6) -> CriterionResult:
    """Teleportation at n = 2 over six gates and five seeded inputs each:
    uniform probabilities within 1e-12 and exact corrections within 1e-9;
    plus the closed-form branch amplitudes for the identity on all 64
    basis-input/outcome combinations."""
    ok, detail = _run_teleport(_teleport_gates_n2(seed), 2, seed)

    # Closed-form oracle for the identity: outcome z on input |x, y> leaves
    # (1/4) (-1)^(x z1 + y z3 + x(z3+z4) + (z1+z2)(z3+z4)) |x+z1+z2, y+z3+z4>.
    formula_worst = 0.0
    for x in (0, 1):
        for y in (0, 1):
            psi = np.zeros(4, dtype=complex)
            psi[(x << 1) | y] = 1.0
            t = simulate_protocol(np.eye(4, dtype=complex), psi)
            for b in t.branches:
                z1, z2, z3, z4 = b.z
                sign = (-1.0) ** (x * z1 + y * z3 + x * (z3 + z4) + (z1 + z2) * (z3 + z4))
                expect = np.zeros(4, dtype=complex)
                expect[(((x + z1 + z2) % 2) << 1) | ((y + z3 + z4) % 2)] = sign / 4
                got = np.sqrt(b.probability) * b.raw_state
                formula_worst = max(formula_worst, float(np.linalg.norm(got - expect)))
    ok = ok and formula_worst < 1e-12
    return CriterionResult(
        6, "teleportation at n = 2", ok, f"{detail}; amplitude formula residual {formula_worst:.2e}"
    )


def criterion_7(seed: int = BASE_SEED + 7) -> CriterionResult:
    """Teleportation at n = 3 (64 branches) for the distant fermionic SWAP
    and the weight-2 pattern gate."""
    ok, detail = _run_teleport(_teleport_gates_n3(), 3, seed)
    return CriterionResult(7, "teleportation at n = 3", ok, detail)


def criterion_8(seed: int = BASE_SEED + 6) -> CriterionResult:
    """Magic-state parity: Z^(x)2n |M_U> = +/- |M_U> with the sign of U's
    own parity, residual < 1e-12, for every gate of criteria 6 and 7."""
    tol = 1e-12
    worst = 0.0
    ok = True
    for _, u in _teleport_gates_n2(seed) + _teleport_gates_n3():
        m = magic_state(u)
        sign = parity_sign(parity_of(u))
        if sign != m.parity_sign:
            ok = False
        z = total_parity(2 * m.n)
        worst = max(worst, float(np.linalg.norm(z @ m.psi - sign * m.psi)))
    ok = ok and worst < tol
    return CriterionResult(8, "magic-state parity matches the gate", ok, f"max residual {worst:.2e}")


def criterion_9(seed: int = BASE_SEED + 9) -> CriterionResult:
    """Unitary reconstruction round trip: 50 seeded fermionic gates at
    n = 2, 3 come back up to phase within 1e-8; tuples conjugated by
    known level-k gates reconstruct into level k + 1."""
    tol = 1e-8
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        v = random_fermionic(n, rng, parity="even" if i % 4 < 2 else "odd")
        cs = jw_set(n)
        tup = [v.conj().T @ c @ v for c in cs]
        rec = svn_reconstruct(tup)
        worst = max(worst, equal_up_to_phase(rec.u, v).residual)
        worst = max(worst, rec.max_residual)

    hier_cases = [
        (random_matchgate(np.random.default_rng(seed + 1)), 2),
        (named_gate("CZ"), 3),
        (named_gate("CPHASE", (np.pi / 2,)), 4),
        (build_F((1, None, 1)), 3),
    ]
    for v, k in hier_cases:
        n = n_qubits_of(v)
        tup = [v.conj().T @ c @ v for c in jw_set(n)]
        if not all(level_membership(d, k - 1) for d in tup):
            ok = False
        rec = svn_reconstruct(tup)
        if not level_membership(rec.u, k):
            ok = False
    ok = ok and worst < tol
    return CriterionResult(
        9, "reconstruction round trip and hierarchy levels", ok, f"max residual {worst:.2e}"
    )


def criterion_10(seed: int = BASE_SEED + 10) -> CriterionResult:
    """Closure laws, 50 seeded instances each: phases, Majorana products,
    nesting, tensor products, and the reflection rule for first-level
    conjugations."""
    rng = np.random.default_rng(seed)
    failures = []

    def draw_known_level():
        """A gate with known exact minimum level (2, 3, or 4)."""
        k = int(rng.integers(2, 5))
        if rng.integers(2) == 0:
            j = 1 if k > 2 else 0
            return random_two_qubit_at_root(rng, k, j, odd=bool(rng.integers(2))), k, 2
        weight = k - 1
        positions = list(rng.permutation(3)[:weight])
        pattern = tuple((1 if i in positions else None) for i in range(3))
        return build_F(pattern), k, 3

    for i in range(50):
        u, k, n = draw_known_level()
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        if not level_membership(phase * u, k):
            failures.append(f"phase closure instance {i}")
        mu = int(rng.integers(1, 2 * n + 1))
        c = jw_majorana(n, mu)
        if not (
            level_membership(u @ c, k)
            and level_membership(c @ u, k)
            and level_membership(c @ u @ c, k)
        ):
            failures.append(f"Majorana product closure instance {i}")
        if not level_membership(u, k + 1):
            failures.append(f"nesting instance {i}")

    for i in range(50):
        k = int(rng.integers(2, 4))
        j = 1 if k > 2 else 0
        u = random_two_qubit_at_root(rng, k, j, odd=bool(rng.integers(2)))
        v = random_two_qubit_at_root(rng, k, j, odd=bool(rng.integers(2)))
        # the tensor product u (x) v
        if not level_membership((u[:, None, :, None] * v[None, :, None, :]).reshape(16, 16), k):
            failures.append(f"tensor closure instance {i}")

    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 4))
        stack = np.stack(jw_set(n))
        a = rng.standard_normal(2 * n)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(2 * n)
        b /= np.linalg.norm(b)
        agate = np.tensordot(a, stack, axes=1)
        bgate = np.tensordot(b, stack, axes=1)
        got = first_level_coeffs(agate @ bgate @ agate)
        if got is None:
            failures.append(f"reflection instance {i}: not first level")
            continue
        want = (2 * np.outer(a, a) - np.eye(2 * n)) @ b
        worst = max(worst, float(np.abs(got - want).max()))
    if worst >= 1e-9:
        failures.append(f"reflection residual {worst:.2e}")

    detail = f"all closed; reflection residual {worst:.2e}" if not failures else "; ".join(failures[:4])
    return CriterionResult(10, "hierarchy closure laws", not failures, detail)


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]


# Each criterion's offset from BASE_SEED, read off its default seed, the one
# place it is written. Criteria 4/5 and 6/8 share a corpus, so they share a seed.
_SEED_OFFSETS = [criterion.__defaults__[0] - BASE_SEED for criterion in ALL_CRITERIA]


def run_selected(indices, seed: int = BASE_SEED) -> list[CriterionResult]:
    """Run the listed criteria (1-based), each at its offset from seed, so
    that run_selected([k]) is criterion_k(). The seed must be an integer
    >= 0, as numpy's generators need; it is read once, before any criterion
    runs."""
    seed = _integer(seed, "seed", 0)
    results = []
    for idx in indices:
        if not 1 <= _integer(idx, "criterion") <= len(ALL_CRITERIA):
            raise ValueError(f"no criterion {idx}; valid range is 1..{len(ALL_CRITERIA)}")
        results.append(ALL_CRITERIA[idx - 1](seed + _SEED_OFFSETS[idx - 1]))
    return results
