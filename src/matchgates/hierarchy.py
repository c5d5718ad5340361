"""Classification of fermionic gates into the matchgate hierarchy.

The first level consists of the unit-norm real combinations of Majorana
operators, sum_mu a_mu c_mu with a real and ||a|| = 1 (all parity odd).
A unitary U belongs to level k+1 when U c_mu U^dag is an odd gate of
level k for every mu. Level 2 is exactly the fermionic Gaussian gates,
those conjugating Majoranas linearly: U c_mu U^dag = sum_nu R[mu,nu] c_nu
with R in O(2n). The levels are nested and closed under phases (k >= 2),
under multiplication by Majoranas, and under tensor products. They are
closed under multiplication by a Gaussian g that permutes the Majoranas
up to sign, as exp(pi/4 c_a c_b) does, but not by Gaussians in general:
each child of g U or U g is then a real sum of conjugates, and a sum of
level k-1 operators need not be at level k-1. CnZ(3) is at level 4, and
exp(pi/8 c_a c_b) CnZ(3) and CnZ(3) exp(pi/8 c_a c_b) are at level 5
whenever c_a and c_b sit on different qubits (tests/test_hierarchy_laws.py).

classify_gate decides Gaussianity once, by the rotation kernel: a gate is
Gaussian exactly when extract_rotation finds its R. Level 2 is the
Gaussian gates, so a gate with an R is at level 1 when first_level_coeffs
passes and at level 2 otherwise. A gate without one is at neither level,
so its search starts at level 3.
The Lambda test is_gaussian_lambda ([Lambda, U (x) U] = 0) is an
independent route to the same fact; self-test criterion 2 and the tests
check the two against each other, and the classifier never runs it.

Membership at level k is decided on the tree of conjugations: the children
of a node V are the 2n operators V c_mu V^dag, every node at depths 1 ..
k-1 must be parity odd and every node at depth k-1 must be first level.
Oddness needs no test below the root: if P U = +-U P for the parity P,
then P (U c_mu U^dag) P = -U c_mu U^dag, so every child of a gate of
definite parity is odd, and so are the children of an odd node.
Conversely, if every child of U is odd, conjugation by U commutes with
conjugation by P, so U^dag P U P commutes with every operator and U has
definite parity; a root of no definite parity sits at no level. Each level
question therefore tests the root's parity once, when it reads its gate by
majorana._read_gate (size, unitarity, then parity by parity_of), and the
walk tests only that the leaves are first level. The tree has
about (2n)^(k-1) nodes; a guard refuses unreasonable searches. Nodes are
handled in batches through the Majorana word table: the children of a
parent come from one contiguous gather and one GEMM of the
word-conjugation kernel, and the first-level coefficients tr(c_mu V) / 2^n
are gathers. A leaf is first level when V - sum_mu a_mu c_mu vanishes,
read by the same linearity residual that decides Gaussianity in the
rotation kernel (majorana._linear_residuals), so both levels share its
dense and support routes. Before the first batch of a level the walk
checks the single c_1 ... c_1 path, on which a generic gate already fails.
One search takes its levels in ascending order and extends that path by
one conjugate per level, so a failing search costs one descent however
many levels it spans: K - 1 path conjugates up to level K, where
restarting at each level would cost K(K - 1) / 2. Every level question is
one call of this search: level_membership asks level k alone, or, when
the guard refuses level k alone, the affordable levels below k and then
k; min_level asks levels 1 .. k_max and classify_gate levels 3 .. k_max.

The walk is depth first and stops at the first failing batch, so a batch
is kept small. It takes its batches from majorana's one batching rule
(``majorana._chunks``) with the limit CHUNK_ENTRIES / 8 complex entries
(128 KiB, small enough to stay in a per-core cache with its temporaries):
as many whole parents as fit in that limit, at least one, and a parent's
2n children split into runs only where they exceed CHUNK_ENTRIES itself.
Memory stays flat however large the tree is, and a failing level wastes
at most the rest of one small batch. The batch size changes neither the
order in which nodes are visited nor any answer.

Diagonal gates have a closed form, the matchgate analogue of the level of
a diagonal gate of the Clifford hierarchy (Cui, Gottesman and Krishna,
arXiv:1608.06596). Write D = diag(exp(2 pi i f(x) / 2^M)) with integer
phases f mod 2^M and their Moebius coefficients,
f(x) = sum_S a_S prod_{j in S} x_j. Then D c_mu D^dag = c_mu diag(e^{i g_j})
for mu in {2j-1, 2j}, with g_j(x) = f(x ^ e_j) - f(x) = (1 - 2 x_j) h_j(x)
and h_j = sum_{S containing j} a_S x^(S - j). The child is first level
exactly when h_j is constant, that is when a_S = 0 for every S containing j
with |S| >= 2; otherwise it has the level of diag(e^{i g_j}), since a
Majorana factor leaves levels >= 2 unchanged. The coefficients of g_j are
those of f with each term through j lowered by one degree or doubled. By induction on level(f) = 1 + max_j (child level),

    level(D) = max(2, max over |S| >= 2 with a_S != 0 of |S| + M - v2(a_S)),

v2 being the 2-adic valuation: a degree-d monomial with coefficient
pi / 2^m sits at level d + 1 + m, a linear phase is Gaussian.
For a non-Gaussian gate classify_gate first calls diagonal_level, which
takes a gate only when every off-diagonal entry is exactly zero and every
phase ratio d_x / d_0 lies within PHASE_SNAP (1e-14) of a 2^M-th root of
unity, M from the root-spacing rule it shares with the two-qubit closed form
(M = 19 at the default epsilon). The level is then read off the integer
coefficients, with no tolerance, in O(n 2^n). Every other input, a
diagonal gate perturbed beyond PHASE_SNAP or with phases on a finer grid
included, gets NotImplemented and falls back to the level search from
level 3. min_level and level_membership remain the matrix route alone:
the self-test and the protocol verifier call them directly, and the tests
hold diagonal_level to their answers.

On the matrix route, trees of gates such as CnZ(n) and the pattern gates F
are mostly exact repeats, so each level of a search expands every
distinct node once.
Every node below the root that will be expanded is keyed by its
remaining depth and its raw bytes; a node whose key this level has
already queued is dropped, because bit-identical nodes have bit-identical
subtrees under the same kernels. Keys are never rounded or
phase-normalised, so two nodes on opposite sides of a check are never
merged. Leaves are not keyed: one costs less to check than to key. The
keys live for one level and stop growing once they hold MEMO_ENTRIES
complex entries; after that the walk still looks keys up but adds none.

For two qubits a closed form is available: with determinant ratio
det A / det B of the gate's parity blocks, a gate sits at level k (k >= 2)
exactly when the ratio is a 2^(k-2)-th root of unity. Both closed forms
take their finest root grid, 2^M-th roots, from one root-spacing rule:
the two-qubit form at ANGLE_TOL (M = 19 whatever epsilon), diagonal_level
at max(ANGLE_TOL, epsilon). The two-qubit form snaps the ratio's angle
once to the nearest 2^M-th root exp(2 pi i j / 2^M), within ANGLE_TOL,
and reads k = 2 + M - v2(j), or 2 at j = 0. One reader, _two_qubit,
takes the block determinants and the ratio's angle once and gives the
closed-form level and the equivalence class together: classify_gate's
two_qubit entry, two_qubit_min_level and equiv_class all read its dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import NotImplementedType

import numpy as np

from .circuits import _BLOCK_SLOTS, _dets
from .io import complex_to_json
from .linalg import (
    ANGLE_TOL,
    DEFAULT_TOL,
    NORM_TOL,
    Tolerances,
    _cached,
    _guard_qubits,
    _integer,
    _read_operator,
    _read_state,
    n_qubits_of,
    norm_max,
)
from .majorana import (
    CHUNK_ENTRIES,
    Parity,
    _chunks,
    _conjugates,
    _linear_residuals,
    _read_gate,
    _rotations,
    _runs,
    _traces,
    _word_gathers,
    majorana_words,
    parity_of,  # noqa: F401  (hierarchy.parity_of is majorana's, which perfbench's tracer test reads)
)

# Refuse level searches needing more than this many dense conjugations.
COST_GUARD = 10**7

# Most complex entries one level search keeps as keys of expanded nodes (64 MiB).
MEMO_ENTRIES = 2**22

# The closed form accepts a root of unity only if neighbouring roots lie at
# least this many angular tolerances apart; on a denser grid any angle would
# snap to some root.
ROOT_SPACING_FACTOR = 1000

# diagonal_level reads a phase ratio as an exact root of unity only within
# this distance of it: a few ulps of a complex division, far below any
# tolerance of the matrix route.
PHASE_SNAP = 1e-14


class SearchBudgetError(ValueError):
    """A level search refused before it starts because it would exceed COST_GUARD."""


def first_level_coeffs(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Real coefficient vector a with u = sum_mu a_mu c_mu, or None.

    Requires the coefficients to be real, the reconstruction to match
    within tol.residual, and ||a|| = 1 within NORM_TOL; phases other than
    -1 push a gate out of the first level.
    """
    a, ok = _first_level(u[None], _read_operator(u, "operator"), tol)
    return a[0] if ok[0] else None


def _first_level(nodes: np.ndarray, n: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Majorana coefficients (B, 2n) of a stack of operators and which pass the first-level checks."""
    coeffs = _traces(nodes, n)
    ok = np.abs(coeffs.imag).max(axis=1) <= tol.residual
    a = coeffs.real.copy()
    ok &= _linear_residuals(nodes, a, n) <= tol.residual
    # row times column is the dot product np.linalg.norm takes, to the bit
    norm = np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])
    ok &= np.abs(norm - 1.0) <= NORM_TOL
    return a, ok


def extract_rotation(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Dense-route rotation extraction.

    Returns the real 2n x 2n matrix R with u c_mu u^dag = sum_nu R[mu,nu] c_nu,
    or None when the conjugations fail to be linear in the Majoranas or R
    fails orthogonality. det R = +1 for proper Gaussian gates, -1 for the
    generalised ones. This is the batched rotation kernel of the word table
    on a batch of one; the compact circuit route runs the same kernel.
    """
    r, ok = _rotations(u[None], _read_operator(u, "rotation kernel"), tol)
    return r[0] if ok[0] else None


def is_gaussian_lambda(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Gaussian test via the pairing operator: [Lambda, U (x) U] = 0.

    Never materializes Lambda. The commutator is sum_mu (c_mu U) (x) (c_mu U)
    - (U c_mu) (x) (U c_mu); its entries, permuted, are those of the single
    product [cu; uc]^T [cu; -uc] of the flattened operators, whose max norm
    is taken over row blocks of at most CHUNK_ENTRIES entries (or one row;
    majorana._runs). The gate is read by majorana._read_gate; then inputs
    whose commutator would exceed the qubit limit are rejected, and so are
    gates of no definite parity.
    """
    n, par = _read_gate(u, tol)
    _guard_qubits(2 * n, "Lambda commutator")
    if par == "none":
        raise ValueError("operator has no definite parity; Gaussian test undefined")
    return _lambda_commutator_norm(u) < tol.residual


def _lambda_commutator_norm(u: np.ndarray) -> float:
    """||[Lambda, U (x) U]||_max, the quantity is_gaussian_lambda thresholds,
    the largest over the row blocks of majorana._runs."""
    n = n_qubits_of(u)
    phase, cols, col_phase = _word_gathers(n)
    cu = (u[cols] * phase[:, :, None]).reshape(2 * n, -1)
    uc = (u[:, cols].transpose(1, 0, 2) * col_phase[:, None, :]).reshape(2 * n, -1)
    # Only the sum over mu commutes; individual terms do not.
    left, right = np.concatenate([cu, uc]).T, np.concatenate([cu, -uc])
    return max(norm_max(left[rows] @ right) for rows in _runs(len(left), right.shape[1]))


def is_gaussian_state_lambda(psi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Gaussian-state test: Lambda (psi (x) psi) = 0.

    Each c_mu psi is a gather from the Majorana word table, a row of C
    (2n, 2^n); sum_mu (c_mu psi) (x) (c_mu psi) is then the product C^T C,
    whose Frobenius norm is summed over row blocks of at most CHUNK_ENTRIES
    entries (or one row; majorana._runs). C^T C itself (2^n x 2^n, 4 GiB
    for a 14-qubit state) is never formed. psi is read by
    linalg._read_state: a vector of unit norm within NORM_TOL.
    """
    return _state_lambda_norm(psi) < tol.residual


def _state_lambda_norm(psi: np.ndarray) -> float:
    """||Lambda (psi (x) psi)||, the quantity is_gaussian_state_lambda thresholds.

    The row blocks are those of majorana._runs. The squared norm of each
    block is the sum np.linalg.norm takes, so a single block gives
    np.linalg.norm(C^T C) to the bit.
    """
    n = _read_state(psi, "state Lambda test")
    words = majorana_words(n)
    c = words.phase * psi[np.arange(2**n) ^ words.flip[:, None]]
    blocks = ((c.T[rows] @ c).ravel() for rows in _runs(2**n, 2**n))
    return float(np.sqrt(sum(b.real.dot(b.real) + b.imag.dot(b.imag) for b in blocks)))


def level_membership(u: np.ndarray, k: int, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff u belongs to hierarchy level k (membership, not minimality).

    One search answers. When COST_GUARD admits level k it searches level
    k alone: at the tolerance edge a gate can pass a lower level and fail
    level k. Otherwise it searches the affordable levels below k and then
    k, in ascending order: levels are nested, so u in any of them is in
    level k, and a u in none of them reaches level k, which the guard
    refuses with the level-k message. The gate is read by
    majorana._read_gate, so a non-unitary u is refused; a u of no definite
    parity is in no level.
    """
    _integer(k, "level", 1)
    n, par = _read_gate(u, tol)
    if par == "none":
        return False
    below = () if _affordable(n, k) else [j for j in range(1, k) if _affordable(n, j)]
    return _search(u, (*below, k), tol) is not None


def _affordable(n: int, k: int) -> bool:
    """Whether COST_GUARD admits a level-k search at n qubits: about (2n)^(k-1) conjugations."""
    return (2 * n) ** (k - 1) <= COST_GUARD


def _search(u: np.ndarray, levels: range | tuple[int, ...], tol: Tolerances) -> int | None:
    """The first of the ascending `levels` that contains u, a gate of
    definite parity, or None.

    Every node below such a root is odd (see the module docstring), so no
    parity is tested here: a level holds when its leaves are first level.
    Each level k is refused by COST_GUARD before its work starts, as a
    search of that level alone would be; this is the one guard check of
    every level question. A generic gate already fails on
    the c_1 ... c_1 path, so the path is tried first; it is extended by one
    conjugate per level, so a failing search costs a single descent
    whatever the number of levels.
    """
    n = n_qubits_of(u)
    root = path = u[None]
    depth = 0
    for k in levels:
        if not _affordable(n, k):
            raise SearchBudgetError(
                f"level-{k} membership at n={n} needs about {(2 * n) ** (k - 1):.2e} "
                f"dense conjugations (guard {COST_GUARD:.0e})"
            )
        while depth < k - 1:
            path = _conjugates(path, n, slice(0, 1))
            depth += 1
        # the c_1 ... c_1 leaf first; at level 1 it is the root, the whole search
        if (k == 1 or _first_level(path, n, tol)[1].all()) and _subtree_ok(root, k - 1, n, tol, _Seen(n)):
            return k
    return None


class _Seen:
    """Exact keys of the nodes queued for expansion at one level of a
    search, built from the qubit count alone.

    A node is keyed by its remaining depth and its raw bytes, never rounded,
    so only bit-identical nodes, whose subtrees are bit-identical, share a
    key. Keys stop being added once they hold MEMO_ENTRIES complex entries.
    Every node below the root that will be expanded is keyed, at every
    level: the root's children are the only nodes of their remaining depth,
    so keying them drops none, at a cost of 2n keys per level. Leaves are
    not keyed; a leaf costs less to check than to key.
    """

    def __init__(self, n: int):
        self.keys: dict[int, set[bytes]] = {}
        self.room = MEMO_ENTRIES // 4**n

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


def _subtree_ok(nodes: np.ndarray, depth: int, n: int, tol: Tolerances, seen: _Seen) -> bool:
    """True iff all descendants of the stacked nodes exactly `depth` levels
    below (the nodes themselves at depth 0) are first level.

    The nodes descend from a root of definite parity, so every descendant
    is odd and only the leaves are tested. Kids that will be expanded are
    dropped when `seen` already holds a bit-identical node at the same
    depth: the walk is depth first and stops at the first failure, so that
    twin's subtree is checked in this call.
    """
    if depth == 0:
        return bool(_first_level(nodes, n, tol)[1].all())
    for block, mus in _chunks(len(nodes), n, CHUNK_ENTRIES // 8):
        kids = _conjugates(nodes[block], n, mus)
        if depth > 1:
            kids = seen.new(kids, depth - 1)
        if not _subtree_ok(kids, depth - 1, n, tol, seen):
            return False
    return True


def min_level(u: np.ndarray, k_max: int = 8, tol: Tolerances = DEFAULT_TOL) -> int | None:
    """Smallest hierarchy level containing u, or None if above k_max.

    Levels are nested, so one ascending search returns the minimum. The
    gate is read by majorana._read_gate, so a non-unitary u is refused; a
    gate of no definite parity is at no level, whatever k_max.
    """
    _integer(k_max, "level cap", 1)
    if _read_gate(u, tol)[1] == "none":
        return None
    return _search(u, range(1, k_max + 1), tol)


def diagonal_level(
    u: np.ndarray, k_max: int = 8, tol: Tolerances = DEFAULT_TOL
) -> int | None | NotImplementedType:
    """Exact minimum level of an exactly diagonal gate with dyadic phases,
    or None if above k_max; NotImplemented for any other input.

    The gate qualifies when every off-diagonal entry is exactly zero, every
    diagonal entry is finite, |d_0| is within PHASE_SNAP of 1 and every
    ratio d_x / d_0 is within PHASE_SNAP of a 2^M-th root of unity
    exp(2 pi i f(x) / 2^M). M is the largest exponent whose neighbouring
    roots lie at least ROOT_SPACING_FACTOR * max(ANGLE_TOL, tol.residual)
    apart (M = 19 at the default epsilon), so no input the matrix route
    would judge by tolerance is read as exact.
    The Moebius coefficients a_S of f mod 2^M come from n butterflies
    a[x | e_j] -= a[x], and the level is max(2, |S| + M - v2(a_S)) over the
    a_S != 0 with |S| >= 2 (see the module docstring for the derivation).
    """
    _integer(k_max, "level cap", 1)
    n = _read_operator(u, "diagonal gate")
    if np.count_nonzero(u) != len(u):
        return NotImplemented
    d = np.diagonal(u)
    if np.count_nonzero(d) != len(d) or not np.isfinite(d).all():  # a NaN miss is not > PHASE_SNAP
        return NotImplemented
    bits = _phase_bits(tol)
    ratio = d / d[0]
    f = np.rint(np.angle(ratio) * (2**bits / (2 * np.pi))).astype(np.int64)
    miss = np.abs(ratio - np.exp(2j * np.pi / 2**bits * f)).max()
    if miss > PHASE_SNAP or abs(abs(d[0]) - 1) > PHASE_SNAP:
        return NotImplemented
    a, degree = f, np.zeros_like(f)
    for j in range(n):
        # pair[:, 0] and pair[:, 1] are the x without and with bit j
        pair = a.reshape(-1, 2, 2**j)
        pair[:, 1] -= pair[:, 0]
        degree.reshape(-1, 2, 2**j)[:, 1] += 1
    # |a_S| < 2^(M + n) throughout, far inside int64; the mask reduces mod 2^M
    a &= 2**bits - 1
    keep = (a != 0) & (degree >= 2)
    a, degree = a[keep], degree[keep]
    # a & -a is 2^v2(a), whose frexp exponent is v2(a) + 1
    v2 = np.frexp(a & -a)[1] - 1
    level = max(2, int((degree + bits - v2).max(initial=0)))
    return level if level <= k_max else None


def _phase_bits(tol: Tolerances) -> int:
    """The largest M whose 2^M-th roots of unity diagonal_level snaps to.

    ANGLE_TOL joins epsilon in the spacing rule, so a tiny epsilon cannot
    make the roots so dense that rounding to the nearest one is ambiguous
    or the numerators overflow int64.
    """
    return _root_bits(max(ANGLE_TOL, tol.residual))


@_cached
def _root_bits(angle: float) -> int:
    """The root-spacing rule of both closed forms: the largest M whose
    neighbouring 2^M-th roots of unity lie at least ROOT_SPACING_FACTOR *
    angle apart, so no angle lies within `angle` of two of them."""
    bits = 0
    while 2 * np.pi / 2 ** (bits + 1) >= ROOT_SPACING_FACTOR * angle:
        bits += 1
    return bits


@dataclass(frozen=True)
class TwoQubitBlocks:
    parity: Parity
    a: np.ndarray
    b: np.ndarray


def two_qubit_decompose(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> TwoQubitBlocks:
    """Blocks (A, B) of a fermionic two-qubit gate in G/J form. The gate is
    read by majorana._read_gate before its qubit count is checked."""
    n, par = _read_gate(u, tol)
    if n != 2:
        raise ValueError("block decomposition is defined for two-qubit gates")
    if par == "none":
        raise ValueError("gate mixes parity sectors; it has no G/J block form")
    return _blocks(u, par)


def _blocks(u: np.ndarray, par: Parity) -> TwoQubitBlocks:
    """The G/J blocks of a two-qubit gate whose parity par is even or odd,
    copied out of u."""
    slot_a, slot_b = _BLOCK_SLOTS[par == "odd"]
    return TwoQubitBlocks(par, u[slot_a].copy(), u[slot_b].copy())


def two_qubit_min_level(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int | None:
    """Closed-form minimum level of a fermionic two-qubit gate.

    First level: odd gates J(A, A^dag) with det A = -1. Otherwise the gate
    sits at the smallest k >= 2 for which det A / det B is a 2^(k-2)-th
    root of unity (within ANGLE_TOL of the nearest root). The ratio's angle
    is snapped once to the nearest 2^M-th root, M = 19 by the root-spacing
    rule at ANGLE_TOL (neighbouring roots at least ROOT_SPACING_FACTOR *
    ANGLE_TOL apart), so k <= 21. Returns None for a generic phase with no
    dyadic root up to that bound.
    """
    return _two_qubit(two_qubit_decompose(u, tol), tol)["level_closed_form"]


def _closed_form_level(blocks: TwoQubitBlocks, det_a: complex, det_b: complex, tol: Tolerances) -> int | None:
    """two_qubit_min_level from the blocks and their determinants."""
    if blocks.parity == "odd":
        if norm_max(blocks.b - blocks.a.conj().T) < tol.residual and abs(det_a + 1) < tol.residual:
            return 1
    # The nearest 2^M-th root exp(2 pi i j / 2^M) has order 2^(M - v2(j)).
    # |theta| <= pi keeps |j| <= 2^(M-1), so only j = 0 is 0 mod 2^M, and
    # j & -j is 2^v2(j), negative j included.
    theta = float(np.angle(det_a / det_b))
    bits = _root_bits(ANGLE_TOL)
    step = 2 * np.pi / 2**bits
    j = round(theta / step)
    if abs(theta - j * step) >= ANGLE_TOL:
        return None
    return 3 + bits - (j & -j).bit_length() if j else 2


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
    def representative_name(self) -> str:
        return f"CPHASE({self.phi!r})"


def equiv_class(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> EquivClass:
    """Equivalence-class phase of a fermionic two-qubit gate."""
    two_qubit = _two_qubit(two_qubit_decompose(u, tol), tol)
    return EquivClass(two_qubit["phi"], two_qubit["generalised_phi"])


def _two_qubit(blocks: TwoQubitBlocks, tol: Tolerances) -> dict:
    """The closed-form data of a two-qubit gate from one reading of its
    block determinants: the one reader behind classify_gate's two_qubit
    entry, two_qubit_min_level and equiv_class."""
    det_a, det_b = _dets(blocks.a, blocks.b)
    phi = float(np.angle(det_a / det_b)) % (2 * np.pi)
    cls = EquivClass(phi, min(phi, 2 * np.pi - phi))
    return {
        "detA": complex_to_json(det_a),
        "detB": complex_to_json(det_b),
        "phi": cls.phi,
        "generalised_phi": cls.generalised_phi,
        "level_closed_form": _closed_form_level(blocks, det_a, det_b, tol),
        "class_representative": cls.representative_name,
    }


@dataclass(frozen=True)
class HierarchyReport:
    """Everything the classifier can say about one gate.

    Gaussianity is the rotation kernel's verdict: the gate is Gaussian
    exactly when it has a rotation. The Lambda test is_gaussian_lambda is
    the independent check of that verdict, run by self-test criterion 2
    and by the tests, not by the classifier. min_level is 1 or 2 for a
    fermionic gate with a rotation and comes from the levels 3 .. k_max
    for one without, so is_gaussian == (min_level <= 2) holds by
    construction whenever k_max >= 2.
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
            "rotation": None if self.rotation is None else self.rotation.tolist(),
            "rotation_det": None if self.rotation_det is None else float(self.rotation_det),
            "min_level": self.min_level,
            "k_max": self.k_max,
            "two_qubit": self.two_qubit,
        }


def classify_gate(u: np.ndarray, k_max: int = 8, tol: Tolerances = DEFAULT_TOL) -> HierarchyReport:
    """Full classification of a unitary: parity, Gaussianity, rotation,
    minimum hierarchy level, and (for two qubits) the closed-form data.

    The gate is Gaussian exactly when the rotation kernel finds its rotation,
    and then its level is 1 or 2 by the first-level test alone. A fermionic
    gate without a rotation is at neither level: an exactly diagonal one
    with dyadic phases is read by diagonal_level, any other is searched
    from level 3 up to k_max. So is_gaussian == (min_level <= 2) for every
    fermionic gate whenever k_max >= 2. The gate is read by
    majorana._read_gate, which refuses a non-unitary u; the parity it reads
    is the search's root test: a gate of no definite parity is at no level
    and is not searched.
    """
    _integer(k_max, "level cap", 1)
    n, par = _read_gate(u, tol)
    rotation = extract_rotation(u, tol)
    rotation_det = None if rotation is None else float(np.linalg.det(rotation))
    level = None
    if par != "none" and rotation is not None:
        # Gaussian is level 2, so only the first-level test is left to run
        level = 1 if first_level_coeffs(u, tol) is not None else 2 if k_max >= 2 else None
    elif par != "none":
        level = diagonal_level(u, k_max, tol)
        if level is NotImplemented:
            # a gate without a rotation is not Gaussian, so not at level 1 or 2
            level = _search(u, range(3, k_max + 1), tol)
    two_qubit = _two_qubit(_blocks(u, par), tol) if n == 2 and par != "none" else None
    return HierarchyReport(n, par, rotation, rotation_det, level, k_max, two_qubit)


def class_phases(k: int) -> dict[str, list[float]]:
    """Representative phases of the two-qubit classes at level k.

    Even-gate classes carry phi = 2 pi j / 2^(k-2); the generalised
    relation folds phi with 2 pi - phi, leaving 2^(k-3) + 1 classes for
    k >= 3 (one class at k = 2).
    """
    _integer(k, "level", 2)
    count = 2 ** (k - 2)
    step = 2 * np.pi / count
    even = [j * step for j in range(count)]
    generalised = [j * step for j in range(count // 2 + 1)]
    return {"even": even, "generalised": generalised}
