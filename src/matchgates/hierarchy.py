"""Classification of fermionic gates into the matchgate hierarchy.

The first level consists of the unit-norm real combinations of Majorana
operators, sum_mu a_mu c_mu with a real and ||a|| = 1 (all parity odd).
A unitary U belongs to level k+1 when U c_mu U^dag is an odd gate of
level k for every mu. Level 2 is exactly the fermionic Gaussian gates,
those conjugating Majoranas linearly: U c_mu U^dag = sum_nu R[mu,nu] c_nu
with R in O(2n). The levels are nested and closed under phases (k >= 2),
under multiplication by Majoranas, and under tensor products.

classify_gate decides Gaussianity once, by the rotation kernel: a gate is
Gaussian exactly when extract_rotation finds its R. The Lambda test
is_gaussian_lambda ([Lambda, U (x) U] = 0) is an independent route to the
same fact; self-test criterion 2 and the tests check the two against each
other, and the classifier never runs it.

Membership at level k is decided on the tree of conjugations: the
children of a node V are the 2n operators V c_mu V^dag, every node at
depths 1 .. k-1 must be parity odd and every node at depth k-1 must be
first level. The tree has about (2n)^(k-1) nodes; a guard refuses
unreasonable searches. Nodes are handled in batches through the Majorana
word table: V c_mu is a column gather with phases, so one batched product
makes a batch of children, the parity test is a sign mask and the
first-level coefficients tr(c_mu V) / 2^n are gathers. The walk is depth
first over batches of at most CHUNK_ENTRIES complex entries (one node when
a single node is larger), so memory stays flat however large the tree is.
Before the first batch it follows the single c_1 ... c_1 path, on which a
generic gate already fails, so failing searches cost one descent.

Trees of diagonal gates such as CnZ(n) and the pattern gates F are mostly
exact repeats, so each membership call expands every distinct node once.
A node that will be expanded is keyed by its remaining depth and its raw
bytes; a node whose key this call has already queued is dropped, because
bit-identical nodes have bit-identical subtrees under the same kernels.
Keys are never rounded or phase-normalised, so two nodes on opposite
sides of a check are never merged. Leaves and the root's children are
not keyed. The keys live for one call and stop growing once they hold
MEMO_ENTRIES complex entries; after that the walk still looks keys up but
adds none.

For two qubits a closed form is available: with determinant ratio
det A / det B of the gate's parity blocks, a gate sits at level k (k >= 2)
exactly when the ratio is a 2^(k-2)-th root of unity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import _BLOCK_SLOTS, build_G, phase_gate
from .io import complex_to_json
from .linalg import (
    DEFAULT_TOL,
    PAULI_I,
    Tolerances,
    _guard_qubits,
    assert_unitary,
    n_qubits_of,
    norm_max,
)
from .majorana import (
    CHUNK_ENTRIES,
    Parity,
    _chunks,
    _conjugates,
    _jw_stack,
    _parities,
    _rotations,
    _traces,
    _word_gathers,
    majorana_words,
    parity_of,
)

# Refuse level searches needing more than this many dense conjugations.
COST_GUARD = 10**7

# Most complex entries one level search keeps as keys of expanded nodes (64 MiB).
MEMO_ENTRIES = 2**22

# The closed form accepts a root of unity only if neighbouring roots lie at
# least this many angular tolerances apart; on a denser grid any angle would
# snap to some root.
ROOT_SPACING_FACTOR = 1000


class SearchBudgetError(ValueError):
    """A level search refused before it starts because it would exceed COST_GUARD."""


def first_level_coeffs(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Real coefficient vector a with u = sum_mu a_mu c_mu, or None.

    Requires the coefficients to be real, the reconstruction to match
    within tol.residual, and ||a|| = 1 within tol.norm; phases other than
    -1 push a gate out of the first level.
    """
    a, ok = _first_level(u[None], n_qubits_of(u), tol)
    return a[0] if ok[0] else None


def _first_level(nodes: np.ndarray, n: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Majorana coefficients (B, 2n) of a stack of operators and which pass the first-level checks."""
    coeffs = _traces(nodes, n)
    ok = np.abs(coeffs.imag).max(axis=1) <= tol.residual
    a = coeffs.real.copy()
    recon = a @ _jw_stack(n).reshape(2 * n, -1)
    ok &= np.abs(nodes.reshape(len(nodes), -1) - recon).max(axis=1) <= tol.residual
    # row times column is the dot product np.linalg.norm takes, to the bit
    norm = np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])
    ok &= np.abs(norm - 1.0) <= tol.norm
    return a, ok


def _all_odd(nodes: np.ndarray, n: int, tol: Tolerances) -> bool:
    """True iff parity_of would call every operator of the stack odd."""
    return bool(_parities(nodes, n, tol.residual)[1].all())


def extract_rotation(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Dense-route rotation extraction.

    Returns the real 2n x 2n matrix R with u c_mu u^dag = sum_nu R[mu,nu] c_nu,
    or None when the conjugations fail to be linear in the Majoranas or R
    fails orthogonality. det R = +1 for proper Gaussian gates, -1 for the
    generalised ones. This is the batched rotation kernel of the word table
    on a batch of one; the compact circuit route runs the same kernel.
    """
    r, ok = _rotations(u[None], n_qubits_of(u), tol)
    return r[0] if ok[0] else None


def is_gaussian_lambda(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Gaussian test via the pairing operator: [Lambda, U (x) U] = 0.

    Never materializes Lambda. The commutator is sum_mu (c_mu U) (x) (c_mu U)
    - (U c_mu) (x) (U c_mu); its entries, permuted, are those of the single
    product [cu; uc]^T [cu; -uc] of the flattened operators, whose max norm
    is taken over row blocks of at most CHUNK_ENTRIES entries. Requires a
    fermionic (parity even or odd) input; mixed-parity operators are
    rejected, and so are inputs whose commutator would exceed the qubit
    limit.
    """
    _guard_qubits(2 * n_qubits_of(u), "Lambda commutator")
    if parity_of(u, tol.residual) == "none":
        raise ValueError("operator has no definite parity; Gaussian test undefined")
    return _lambda_commutator_norm(u) < tol.residual


def _lambda_commutator_norm(u: np.ndarray) -> float:
    """||[Lambda, U (x) U]||_max, the quantity is_gaussian_lambda thresholds."""
    n = n_qubits_of(u)
    phase, cols, col_phase, _ = _word_gathers(n)
    cu = (u[cols] * phase[:, :, None]).reshape(2 * n, -1)
    uc = (u[:, cols].transpose(1, 0, 2) * col_phase[:, None, :]).reshape(2 * n, -1)
    # Only the sum over mu commutes; individual terms do not.
    left, right = np.concatenate([cu, uc]).T, np.concatenate([cu, -uc])
    step = max(CHUNK_ENTRIES // right.shape[1], 1)
    return max(norm_max(left[i : i + step] @ right) for i in range(0, len(left), step))


def is_gaussian_state_lambda(psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Gaussian-state test: Lambda (psi (x) psi) = 0.

    Each c_mu psi is a gather from the Majorana word table, a row of C
    (2n, 2^n); sum_mu (c_mu psi) (x) (c_mu psi) is then the single product
    C^T C, whose norm is taken directly.
    """
    return _state_lambda_norm(psi) < tol.residual


def _state_lambda_norm(psi: np.ndarray) -> float:
    """||Lambda (psi (x) psi)||, the quantity is_gaussian_state_lambda thresholds."""
    n = n_qubits_of(psi)
    _guard_qubits(n, "state Lambda test")
    words = majorana_words(n)
    c = words.phase * psi[np.arange(2**n) ^ words.flip[:, None]]
    return float(np.linalg.norm(c.T @ c))


def level_membership(u: np.ndarray, k: int, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff u belongs to hierarchy level k (membership, not minimality)."""
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    n = n_qubits_of(u)
    if (2 * n) ** (k - 1) > COST_GUARD:
        raise SearchBudgetError(
            f"level-{k} membership at n={n} needs about {(2 * n) ** (k - 1):.2e} "
            f"dense conjugations (guard {COST_GUARD:.0e})"
        )
    root = u[None]
    # A generic gate already fails on the c_1 ... c_1 path, so trying it
    # first keeps a failing search at the cost of a single descent.
    path = root
    for _ in range(k - 1):
        path = _conjugates(path, n, slice(0, 1))
        if not _all_odd(path, n, tol):
            return False
    if not _first_level(path, n, tol)[1].all():
        return False
    return _subtree_ok(root, k - 1, n, tol, _Seen(n, k - 1))


class _Seen:
    """Exact keys of the nodes queued for expansion in one level search.

    A node is keyed by its remaining depth and its raw bytes, never rounded,
    so only bit-identical nodes, whose subtrees are bit-identical, share a
    key. Keys stop being added once they hold MEMO_ENTRIES complex entries.
    Only the nodes strictly between the root's children and the leaves are
    keyed: the children of one operator are distinct conjugates of it, and
    a leaf costs less to check than to key. `top` is the root's depth.
    """

    def __init__(self, n: int, top: int):
        self.keys: dict[int, set[bytes]] = {}
        self.room = MEMO_ENTRIES // 4**n
        self.top = top

    def new(self, kids: np.ndarray, depth: int) -> np.ndarray:
        """The kids whose (depth, bytes) key is not yet seen, first copies only."""
        rows = kids.reshape(len(kids), -1)
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()
        seen = self.keys.setdefault(depth, set())
        keep = []
        for i, key in enumerate(keys):
            if key in seen:
                continue
            keep.append(i)
            if self.room > 0:
                seen.add(key)
                self.room -= 1
        return kids if len(keep) == len(kids) else kids[keep]


def _subtree_ok(parents: np.ndarray, depth: int, n: int, tol: Tolerances, seen: _Seen) -> bool:
    """True iff all descendants of the stacked nodes down to `depth` levels
    below are odd and those exactly `depth` levels below are first level.

    Kids that will be expanded are dropped when `seen` already holds a
    bit-identical node at the same depth: the walk is depth first and stops
    at the first failure, so that twin's subtree is checked in this call.
    """
    if depth == 0:
        return True
    for block, mus in _chunks(len(parents), n, CHUNK_ENTRIES):
        kids = _conjugates(parents[block], n, mus)
        if 1 < depth < seen.top:
            kids = seen.new(kids, depth - 1)
            if not len(kids):
                continue
        if not _all_odd(kids, n, tol):
            return False
        if depth == 1:
            if not _first_level(kids, n, tol)[1].all():
                return False
        elif not _subtree_ok(kids, depth - 1, n, tol, seen):
            return False
    return True


def min_level(u: np.ndarray, k_max: int = 8, tol: Tolerances = DEFAULT_TOL) -> int | None:
    """Smallest hierarchy level containing u, or None if above k_max.

    Levels are nested, so ascending search returns the minimum.
    """
    for k in range(1, k_max + 1):
        if level_membership(u, k, tol):
            return k
    return None


@dataclass(frozen=True)
class TwoQubitBlocks:
    parity: Parity
    a: np.ndarray
    b: np.ndarray


def two_qubit_decompose(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> TwoQubitBlocks:
    """Blocks (A, B) of a fermionic two-qubit gate in G/J form."""
    if n_qubits_of(u) != 2:
        raise ValueError("block decomposition is defined for two-qubit gates")
    par = parity_of(u, tol.residual)
    if par == "none":
        raise ValueError("gate mixes parity sectors; it has no G/J block form")
    return _blocks(u, par)


def _blocks(u: np.ndarray, par: Parity) -> TwoQubitBlocks:
    """The G/J blocks of a two-qubit gate whose parity par is even or odd."""
    slot_a, slot_b = _BLOCK_SLOTS[par == "odd"]
    return TwoQubitBlocks(par, u[slot_a], u[slot_b])


def _dets(blocks: TwoQubitBlocks) -> tuple[complex, complex]:
    """det A and det B, the two numbers every two-qubit closed form reads."""
    return complex(np.linalg.det(blocks.a)), complex(np.linalg.det(blocks.b))


def two_qubit_min_level(
    u: np.ndarray, tol: Tolerances = DEFAULT_TOL, k_cap: int = 30
) -> int | None:
    """Closed-form minimum level of a fermionic two-qubit gate.

    First level: odd gates J(A, A^dag) with det A = -1. Otherwise the gate
    sits at the smallest k >= 2 for which det A / det B is a 2^(k-2)-th
    root of unity (within tol.angle of the nearest root). Only k whose root
    spacing 2 pi / 2^(k-2) is at least ROOT_SPACING_FACTOR * tol.angle are
    tried (k <= 21 at the default tolerances). Returns None for a generic
    phase with no dyadic root up to that bound or k_cap.
    """
    blocks = two_qubit_decompose(u, tol)
    return _closed_form_level(blocks, *_dets(blocks), tol, k_cap)


def _closed_form_level(
    blocks: TwoQubitBlocks, det_a: complex, det_b: complex, tol: Tolerances, k_cap: int = 30
) -> int | None:
    """two_qubit_min_level from the blocks and their determinants."""
    if blocks.parity == "odd":
        if norm_max(blocks.b - blocks.a.conj().T) < tol.residual and abs(det_a + 1) < tol.residual:
            return 1
    theta = float(np.angle(det_a / det_b))
    for k in range(2, k_cap + 1):
        step = 2 * np.pi / 2 ** (k - 2)
        if step < ROOT_SPACING_FACTOR * tol.angle:
            break
        if abs(theta - round(theta / step) * step) < tol.angle:
            return k
    return None


@dataclass(frozen=True)
class EquivClass:
    """Matchgate-equivalence class data of a two-qubit fermionic gate.

    phi is the argument of det A / det B in [0, 2 pi); even gates with the
    same phi are related by matchgates on both sides, and the diagonal
    gate CPHASE(phi) = G(P(phi), 1) represents the class. Generalised
    equivalence (Majorana insertions allowed) folds phi and 2 pi - phi
    together, leaving generalised_phi in [0, pi].
    """

    phi: float
    generalised_phi: float

    @property
    def representative(self) -> np.ndarray:
        return build_G(phase_gate(self.phi), PAULI_I)

    @property
    def representative_name(self) -> str:
        return f"CPHASE({self.phi!r})"


def equiv_class(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> EquivClass:
    """Equivalence-class phase of a fermionic two-qubit gate."""
    return _equiv_class(*_dets(two_qubit_decompose(u, tol)))


def _equiv_class(det_a: complex, det_b: complex) -> EquivClass:
    """equiv_class from the block determinants."""
    phi = float(np.angle(det_a / det_b)) % (2 * np.pi)
    return EquivClass(phi, min(phi, 2 * np.pi - phi))


@dataclass(frozen=True)
class HierarchyReport:
    """Everything the classifier can say about one gate.

    Gaussianity is the rotation kernel's verdict: the gate is Gaussian
    exactly when it has a rotation. The Lambda test is_gaussian_lambda is
    the independent check of that verdict, run by self-test criterion 2
    and by the tests, not by the classifier.
    """

    n_qubits: int
    parity: Parity
    rotation: np.ndarray | None
    rotation_det: float | None
    min_level: int | None
    k_max: int
    two_qubit: dict | None

    @property
    def is_gaussian(self) -> bool:
        return self.rotation is not None

    def to_json(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "parity": self.parity,
            "is_gaussian": self.is_gaussian,
            "rotation": None if self.rotation is None else [[float(x) for x in row] for row in self.rotation],
            "rotation_det": None if self.rotation_det is None else float(self.rotation_det),
            "min_level": self.min_level,
            "k_max": self.k_max,
            "two_qubit": self.two_qubit,
        }


def classify_gate(u: np.ndarray, k_max: int = 8, tol: Tolerances = DEFAULT_TOL) -> HierarchyReport:
    """Full classification of a unitary: parity, Gaussianity, rotation,
    minimum hierarchy level, and (for two qubits) the closed-form data.

    The gate is Gaussian exactly when the rotation kernel finds its rotation.
    """
    assert_unitary(u, tol.unitary, "gate")
    n = n_qubits_of(u)
    par = parity_of(u, tol.residual)
    rotation = extract_rotation(u, tol)
    rotation_det = None if rotation is None else float(np.linalg.det(rotation))
    level = min_level(u, k_max, tol) if par != "none" else None
    two_qubit = None
    if n == 2 and par != "none":
        blocks = _blocks(u, par)
        det_a, det_b = _dets(blocks)
        cls = _equiv_class(det_a, det_b)
        two_qubit = {
            "detA": complex_to_json(det_a),
            "detB": complex_to_json(det_b),
            "phi": cls.phi,
            "generalised_phi": cls.generalised_phi,
            "level_closed_form": _closed_form_level(blocks, det_a, det_b, tol),
            "class_representative": cls.representative_name,
        }
    return HierarchyReport(n, par, rotation, rotation_det, level, k_max, two_qubit)


def class_phases(k: int) -> dict[str, list[float]]:
    """Representative phases of the two-qubit classes at level k.

    Even-gate classes carry phi = 2 pi j / 2^(k-2); the generalised
    relation folds phi with 2 pi - phi, leaving 2^(k-3) + 1 classes for
    k >= 3 (one class at k = 2).
    """
    if k < 2:
        raise ValueError("two-qubit class structure starts at level 2")
    count = 2 ** (k - 2)
    step = 2 * np.pi / count
    even = [j * step for j in range(count)]
    generalised = [j * step for j in range(count // 2 + 1)]
    return {"even": even, "generalised": generalised}
