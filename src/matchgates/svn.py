"""Reconstructing a unitary from its action on Majorana operators.

Any tuple (d_1, ..., d_{2n}) of Hermitian operators satisfying the
canonical anticommutation relations arises as d_mu = U^dag c_mu U for a
unitary U that is unique up to a global phase (a fermionic analogue of
the Stone-von Neumann uniqueness of CAR representations). The
reconstruction here is constructive:

* the projector prod_k (1 + (-i) d_{2k-1} d_{2k}) / 2 has rank one; its
  range, applied to any computational basis probe with nonvanishing
  image, yields the vacuum column,
* the remaining columns follow from the odd-indexed word
  d_1^{z1} d_3^{z2} ... d_{2n-1}^{zn} applied to that vacuum. They are
  built by one recurrence rather than one word product per column: when
  qubit k carries the highest set bit of z (bit n - k), column z is
  d_{2k-1} times column z - 2^(n-k), so columns 2^(n-k) .. 2^(n-k+1) - 1
  come from the ones before them in one matrix product, for k = n .. 1.

Assembled that way, the columns form the matrix S with S c_mu S^dag =
d_mu, so the unitary satisfying U^dag c_mu U = d_mu is S^dag; the free
phase is fixed with canonical_phase. Feeding d_mu = V^dag c_mu V
recovers V up to phase. When every d_mu is an odd gate of hierarchy
level k, the reconstructed U lives at level k+1.

The contract residuals ||U^dag c_mu U - d_mu||_max read each c_mu from the
Majorana word table: U^dag c_mu is a gather of U^dag's columns times a
phase, so each conjugate costs one matrix product, computed in the runs of
majorana._runs: at most CHUNK_ENTRIES entries each (or one conjugate).

Acceptance is certified rather than checked pair by pair. check_car forms
all n(2n+1) anticommutators, about 4n^2 products of size d = 2^n, while
the reconstruction and its residuals take about 4n; so check_car runs
only where the certificate below does not hold, and every refusal comes
from it, in its order: the anticommutation message, then the Hermiticity
message, then the degenerate probe.

The certificate. Let g = ||U^dag U - 1||_max and r = max_mu ||U^dag c_mu U -
d_mu||_max for the computed U. Since ||A||_2 <= d ||A||_max, delta = d g
and rho = d r bound the same defects in the spectral norm. With
M_mu = U^dag c_mu U and U U^dag - 1 of norm at most delta (it has the
spectrum of U^dag U - 1), {M_i, M_j} - 2 delta_ij = 2 delta_ij (U^dag U - 1)
+ U^dag (c_i (U U^dag - 1) c_j + c_j (U U^dag - 1) c_i) U and ||M_mu|| <=
||U||^2 <= 1 + delta, so writing d_mu = M_mu - E_mu with ||E_mu|| <= rho,

    ||{d_i, d_j} - 2 delta_ij||_max <= 2 delta (2 + delta) + 4 (1 + delta) rho + 2 rho^2.

Floating point adds rounding to g, r and check_car's own products
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Sec. 3.1
and 3.6). A complex dot product x^T y of length d is off by at most
gamma_{d+2} |x|^T |y| when each complex product is rounded, and by at most
sqrt(2) gamma_{2d} |x|^T |y| when BLAS sums real and imaginary parts as
real dot products of length 2d; gamma = sqrt(2) gamma_{2d}, the larger of
the two, with gamma_k = k u / (1 - k u) and u = 2^-53. Each entry of
|x|^T |y| is at most a row norm times a column norm: at most 1 + g for
the products U^dag U and U^dag c_mu U, and (1 + delta + rho)^2 for a
product of two operators of the tuple. With the rounding of the
subtractions and of abs inside the relative factors 1 + gamma,

* the true g and r are at most (1 + gamma) g + 2 gamma and
  (1 + gamma) r + 2 gamma of the computed ones while g < 1/2, and these
  are the g and r that give delta and rho,
* check_car's computed residual is at most
  (1 + gamma) (bound + 2 gamma (1 + delta + rho)^2).

The tuple is accepted without check_car when its operators are float64
or complex128 (the arithmetic of the bounds above), it is Hermitian
within tol.residual (the measure check_car reports), delta < 1/2, and
(1 + 4 gamma) (bound + 4 gamma (1 + delta + rho)^2) < tol.residual; the
extra factors cover the rounding of the bound itself. Then check_car
would have passed, so the result is the one the check-first order gives,
to the bit.

The cheap conditions come first. A tuple of another dtype or not
Hermitian within tol.residual goes to check_car before it is
reconstructed: check_car refuses every such tuple but a Hermitian one of
another dtype. The bound grows with rho, so g is formed before the contract
residuals, and they are computed ahead of check_car only when the bound at
the least rho, that of r = 0, still holds; otherwise they follow check_car
once it passes.

The block route. Parity superselection splits the basis states into two
sectors, those of sign +1 and of sign -1 in the word table. A tuple
d_mu = V^dag c_mu V from a gate V of definite parity is exactly parity
odd: each d_mu is zero between states of one sector. Then each factor
(1 + (-i) d_{2k-1} d_{2k}) / 2 and the projector are block diagonal, the
vacuum lies in one sector, column z of S lies in that sector or the other
by the parity of z, so U has two nonzero blocks (diagonal or off-diagonal),
and U^dag c_mu U is odd again. A float64 or complex128 tuple at n in
BLOCK_QUBITS whose every same-sector entry is zero keeps only its
operators' two blocks between the sectors, runs the projector as two
half-size chains, forms the Gram defect from U's two blocks, and forms the
contract conjugates of each sector as one tall half-size product for all
mu of a run. That is a quarter of the GEMM work of the dense route.

Every entry keeps its bits. An entry of a dense product is a sum over k
in increasing order; a term with an exactly zero factor adds a zero to an
accumulator that starts at +0, which changes no partial sum, and the
other terms are those the half-size product sums, in the same order, as
long as BLAS sums each entry's k range in one pass. The elementwise steps
(1 + X, the phases of the gather, the subtractions, abs, the maxima) see
the same values. The probe column is built at full length, with +0 in the
other sector as the dense projector has there, so np.linalg.norm, whose
dot products group terms by position, sees the same vector; the column
recurrence and canonical_phase are the dense route's, on whole columns.
d - d^dag is zero within the sectors, and its block
from the odd sector to the even one is minus the adjoint of the other
block, so one block gives _max_hermiticity's value. U^dag U is block
diagonal, so the Gram defect is the larger of its two blocks' defects.

BLOCK_QUBITS is 6..7. Below 6 the gathers cost more than the smaller
products save. From n = 8 BLAS splits the 256-term sums of the full
products into panels, and the half-size sums no longer match them: U and
every residual differed in the last bits on two of two seeded tuples.
Other tuples take the dense route unchanged: a perturbed tuple, one of no
definite parity, another dtype, any other n. A tuple the block route does
not certify goes on to the same check_car tail, keeping what the block
route formed, so the refusals and their order are the dense route's; the
degenerate refusal reads the rank of the whole projector, assembled from
its blocks. The certificate is unchanged: g and r are the dense route's
numbers to the bit, and the rounding bound of a sum of d/2 terms is below
that of d terms, so gamma at d still covers the shorter sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, _cached, canonical_phase, norm_max
from .majorana import (
    _car_operands,
    _conjugates,
    _max_hermiticity,
    _parity_order,
    _runs,
    _word_gathers,
    check_car,
    majorana_words,
)

PROBE_THRESHOLD = 1e-6

# The qubit counts at which an exactly parity-odd tuple takes the block route
# (module docstring). Per call, block against dense, min of 15 passes over 10
# seeded tuples, one BLAS thread, 2-vCPU x86-64 host: n = 3 0.37 against
# 0.22 ms, n = 4 0.47 against 0.31 ms, n = 5 0.42 against 0.41 ms, n = 6
# 1.13 against 1.83 ms, n = 7 5.4 against 11.1 ms. From n = 8 the bits differ.
BLOCK_QUBITS = range(6, 8)


@dataclass(frozen=True, eq=False)
class SvnResult:
    """Reconstructed unitary plus per-index contract residuals. == and
    hash() go by identity: the fields are arrays."""

    u: np.ndarray
    residuals: np.ndarray  # ||u^dag c_mu u - d_mu||_max per mu

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())


def svn_reconstruct(ops: list[np.ndarray], tol: Tolerances = DEFAULT_TOL) -> SvnResult:
    """Reconstruct the unitary U with U^dag c_mu U = d_mu from a CAR tuple.

    A tuple failing the anticommutation relations, or one whose operators
    are not Hermitian within tol.residual, is refused with ValueError.
    Acceptance is certified from the result's own defects; check_car runs
    only when the certificate does not hold. An exactly parity-odd float64
    or complex128 tuple at n in BLOCK_QUBITS takes the block route, which
    gives the same bits.
    """
    n = _car_operands(ops)
    # the certificate covers Hermitian float64 or complex128 operators only
    double = all(a.dtype in (np.float64, np.complex128) for a in ops)
    route = _route(ops, n, double)
    projector = columns = u = residuals = None
    if double and route.hermiticity() < tol.residual:
        projector, columns = route.columns()
        if columns is not None and np.isfinite(columns).all():
            u = canonical_phase(columns.conj())
            holds = _certificate(route.gram_defect(u), len(u), tol.residual)
            if holds is not None:
                residuals = route.residuals(u)
                if holds(float(residuals.max())):
                    return SvnResult(u, residuals)
    report = check_car(ops, tol.residual)
    if not report.passed:
        raise ValueError(
            f"tuple fails the anticommutation relations at pair {report.worst_pair} "
            f"(residual {report.max_pair_residual:.3e})"
        )
    if report.max_hermiticity >= tol.residual:
        raise ValueError(
            f"tuple is not Hermitian (max ||d_mu - d_mu^dag|| {report.max_hermiticity:.3e})"
        )
    if projector is None and columns is None:  # a built route gives one or both
        projector, columns = route.columns()
    if columns is None:
        rank = int(np.linalg.matrix_rank(projector, tol=PROBE_THRESHOLD))
        raise ValueError(
            f"projector annihilates every basis probe (numerical rank {rank}); "
            "the tuple is degenerate"
        )
    if u is None:
        u = canonical_phase(columns.conj())
    return SvnResult(u, route.residuals(u) if residuals is None else residuals)


class _Dense:
    """The dense route: every product on whole 2^n x 2^n operators."""

    def __init__(self, ops: list[np.ndarray], n: int):
        self.ops, self.n = ops, n

    def hermiticity(self) -> float:
        return _max_hermiticity(self.ops)

    def columns(self) -> tuple[np.ndarray, np.ndarray | None]:
        return _columns(self.ops, self.n)

    def gram_defect(self, u: np.ndarray) -> float:
        return _gram_defect(u)

    def residuals(self, u: np.ndarray) -> np.ndarray:
        return _contract_residuals(u, self.ops)


def _columns(ops: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The vacuum projector and the rows z = column z of S, or None for the
    rows when the projector annihilates every basis probe."""
    dim = 2**n
    eye = np.eye(dim)
    factors = ((eye + (-1j) * ops[2 * k - 2] @ ops[2 * k - 1]) / 2 for k in range(1, n + 1))
    projector = next(factors)  # the product of the factors: 1 + X holds no -0.0 to be changed
    for factor in factors:
        projector = projector @ factor
    found = _vacuum(lambda probe: projector[:, probe], dim)
    return projector, None if found is None else _recurrence(ops, n, found[1])


def _vacuum(image, dim: int) -> tuple[int, np.ndarray] | None:
    """The probe rule: the first basis probe whose image under the projector,
    image(probe), has norm above PROBE_THRESHOLD, and that image normalised;
    None when the projector annihilates every probe."""
    for probe in range(dim):
        column = image(probe)
        norm = np.linalg.norm(column)
        if norm > PROBE_THRESHOLD:
            return probe, column / norm
    return None


def _recurrence(ops: list[np.ndarray], n: int, vacuum: np.ndarray) -> np.ndarray:
    """The rows z = column z of S from the vacuum column: row z is d_{2k-1}
    times row z - h, h = 2^(n-k), so rows h .. 2h - 1 come from the rows
    before them in one product, for k = n .. 1."""
    dim = 2**n
    columns = np.empty((dim, dim), dtype=complex)
    columns[0] = vacuum
    for k in range(n, 0, -1):
        h = 1 << (n - k)
        columns[h : 2 * h] = columns[:h] @ ops[2 * k - 2].T
    return columns


@_cached
def _sectors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parity sectors of the basis states on n qubits, from the word
    table: (states, sector, rank) with states[s] the states of sector s in
    increasing order (s = 0 sign +1, s = 1 sign -1), and sector[i] and
    rank[i] the sector of state i and its place there."""
    sector = (majorana_words(n).sign < 0).astype(np.intp)
    states = np.stack([np.flatnonzero(sector == 0), np.flatnonzero(sector == 1)])
    rank = np.empty(2**n, dtype=np.intp)
    rank[states] = np.arange(2 ** (n - 1))
    return states, sector, rank


@_cached
def _off_blocks(n: int) -> np.ndarray:
    """The flat entries of the two (h, h) blocks of a 2^n x 2^n operator
    between the sectors, block s with its rows in sector s, h = 2^(n-1)."""
    states = _sectors(n)[0]
    return states[:, :, None] * 2**n + states[::-1, None]


def _route(ops: list[np.ndarray], n: int, double: bool) -> _Dense | _OddTuple:
    """The block route for a float64 or complex128 tuple at n in BLOCK_QUBITS
    whose every entry between basis states of one sector is zero, gathering
    only its operators' blocks between the sectors; else the dense route."""
    if double and n in BLOCK_QUBITS:
        same = _parity_order(n)[: 2 ** (2 * n - 1)]  # the same-parity half
        flat = [a.reshape(-1) for a in ops]
        if not any(f.take(same).any() for f in flat):
            return _OddTuple(ops, n, [f.take(_off_blocks(n)) for f in flat])
    return _Dense(ops, n)


class _OddTuple:
    """The block route, for a tuple whose every operator is exactly parity
    odd, held as its operators' two off-diagonal parity blocks; the module
    docstring has the argument and the range BLOCK_QUBITS."""

    def __init__(self, ops: list[np.ndarray], n: int, blocks: list[np.ndarray]):
        self.ops, self.n, self.blocks = ops, n, blocks
        self.shift = 0  # the sector of the vacuum, known once the columns are built
        self._u = None  # (u, its two nonzero blocks), read once

    def hermiticity(self) -> float:
        # d - d^dag is zero on the diagonal blocks, and its block 1 is minus
        # the adjoint of its block 0: the entries have the same magnitudes
        return max(norm_max(b[0] - b[1].conj().T) for b in self.blocks)

    def columns(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(projector, columns) as _columns gives them, but with None for the
        projector once the vacuum is found: only the degenerate refusal
        reads it, assembled from its two blocks."""
        n, blocks = self.n, self.blocks
        eye = np.eye(2 ** (n - 1))
        chains = []
        for s in (0, 1):  # block s of the projector, rows and columns in sector s
            pairs = ((blocks[2 * k - 2][s], blocks[2 * k - 1][1 - s]) for k in range(1, n + 1))
            factors = ((eye + (-1j) * a @ b) / 2 for a, b in pairs)
            chain = next(factors)
            for factor in factors:
                chain = chain @ factor
            chains.append(chain)
        states, sector, rank = _sectors(n)

        def image(probe: int) -> np.ndarray:
            s = sector[probe]
            column = np.zeros(2**n, dtype=complex)
            column[states[s]] = chains[s][:, rank[probe]]
            return column

        found = _vacuum(image, 2**n)
        if found is None:
            projector = np.zeros((2**n, 2**n), dtype=complex)
            for s in (0, 1):
                projector[np.ix_(states[s], states[s])] = chains[s]
            return projector, None
        self.shift = int(sector[found[0]])
        return None, _recurrence(self.ops, n, found[1])

    def _u_blocks(self, u: np.ndarray) -> list[np.ndarray]:
        """u's block s: columns in sector s, rows in sector s ^ shift."""
        if self._u is None or self._u[0] is not u:
            states = _sectors(self.n)[0]
            self._u = u, [u[np.ix_(states[s ^ self.shift], states[s])] for s in (0, 1)]
        return self._u[1]

    def gram_defect(self, u: np.ndarray) -> float:
        # U^dag U is block diagonal; np.max keeps a NaN, as norm_max does
        return float(np.max([_gram_defect(block) for block in self._u_blocks(u)]))

    def residuals(self, u: np.ndarray) -> np.ndarray:
        n, h = self.n, 2 ** (self.n - 1)
        states, _, rank = _sectors(n)
        _, cols, col_phase = _word_gathers(n)
        u_blocks = self._u_blocks(u)
        rows = [np.conjugate(b) for b in u_blocks]  # rows[s][j] is row j of u's block s, conjugated
        residuals = np.zeros(2 * n)
        for mus in _runs(2 * n, h * h):
            for s in (0, 1):  # the block of u^dag c_mu u with rows in sector s
                k = states[(1 - s) ^ self.shift]  # the columns of u^dag c_mu that are not zero there
                vw = rows[s][rank[cols[mus][:, k]].T]
                vw *= col_phase[mus][:, k].T[:, :, None]
                conj = (vw.reshape(h, -1).T @ u_blocks[1 - s]).reshape(-1, h, h)
                for c, b in zip(conj, self.blocks[mus]):
                    c -= b[s]
                np.maximum(residuals[mus], np.abs(conj).max(axis=(1, 2)), out=residuals[mus])
        return residuals


def _gram_defect(u: np.ndarray) -> float:
    """||u^dag u - 1||_max."""
    gram = u.conj().T @ u
    gram.flat[:: len(u) + 1] -= 1
    return norm_max(gram)


def _certificate(gram_defect: float, dim: int, tol: float):
    """The certificate of the module docstring for a certifiable tuple whose
    reconstructed u of size dim has ||u^dag u - 1||_max = gram_defect, as a
    test of the largest contract residual that is True when check_car
    passes at tol; None when no residual could pass it."""
    ku = 2 * dim * 2.0**-53  # 2d u; Python floats, cheaper than numpy scalars
    gamma = math.sqrt(2) * ku / (1 - ku)  # sqrt(2) gamma_{2d}, at least gamma_{d+2}
    g = (1 + gamma) * gram_defect + 2 * gamma
    delta = dim * g
    if not delta < 0.5:  # also false for NaN
        return None

    def holds(max_residual: float) -> bool:
        rho = dim * ((1 + gamma) * max_residual + 2 * gamma)
        bound = 2 * delta * (2 + delta) + 4 * (1 + delta) * rho + 2 * rho**2
        return (1 + 4 * gamma) * (bound + 4 * gamma * (1 + delta + rho) ** 2) < tol

    return holds if holds(0.0) else None


def _contract_residuals(u: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    """||u^dag c_mu u - d_mu||_max for every mu of the tuple, in order,
    the conjugates formed in runs of majorana._runs."""
    n = len(ops) // 2
    u_dag = u.conj().T[None]
    residuals = np.empty(2 * n)
    for mus in _runs(2 * n, 4**n):
        conj = _conjugates(u_dag, n, mus)
        for c, d in zip(conj, ops[mus]):
            c -= d
        residuals[mus] = np.abs(conj).max(axis=(1, 2))
    return residuals
