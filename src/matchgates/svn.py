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
phase, so each conjugate costs one matrix product, computed in chunks of
at most CHUNK_ENTRIES entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, canonical_phase, equal_up_to_phase
from .majorana import CHUNK_ENTRIES, _chunks, _conjugates, check_car

PROBE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SvnResult:
    """Reconstructed unitary plus per-index contract residuals."""

    u: np.ndarray
    residuals: np.ndarray  # ||u^dag c_mu u - d_mu||_max per mu

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())


def svn_reconstruct(ops: list[np.ndarray], tol: Tolerances = DEFAULT_TOL) -> SvnResult:
    """Reconstruct the unitary U with U^dag c_mu U = d_mu from a CAR tuple."""
    report = check_car(ops, tol.residual)
    if not report.passed:
        raise ValueError(
            f"tuple fails the anticommutation relations at pair {report.worst_pair} "
            f"(residual {report.max_pair_residual:.3e})"
        )
    n = report.n_modes
    dim = 2**n

    projector = np.eye(dim, dtype=complex)
    for k in range(1, n + 1):
        projector = projector @ (np.eye(dim) + (-1j) * ops[2 * k - 2] @ ops[2 * k - 1]) / 2

    vacuum = None
    for probe in range(dim):
        candidate = projector[:, probe]
        if np.linalg.norm(candidate) > PROBE_THRESHOLD:
            vacuum = candidate / np.linalg.norm(candidate)
            break
    if vacuum is None:
        rank = int(np.linalg.matrix_rank(projector, tol=PROBE_THRESHOLD))
        raise ValueError(
            f"projector annihilates every basis probe (numerical rank {rank}); "
            "the tuple is degenerate"
        )

    # Row z holds column z of S: d_{2k-1} times column z - h, h = 2^(n-k).
    columns = np.empty((dim, dim), dtype=complex)
    columns[0] = vacuum
    for k in range(n, 0, -1):
        h = 1 << (n - k)
        columns[h : 2 * h] = columns[:h] @ ops[2 * k - 2].T
    u = canonical_phase(columns.conj(), tol.norm)
    return SvnResult(u, _contract_residuals(u, ops))


def _contract_residuals(u: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    """||u^dag c_mu u - d_mu||_max for every mu of the tuple, in order."""
    n = len(ops) // 2
    u_dag = u.conj().T[None]
    residuals = np.empty(2 * n)
    for _, mus in _chunks(1, n, CHUNK_ENTRIES):
        conj = _conjugates(u_dag, n, mus)
        residuals[mus] = np.abs(conj - np.stack(ops[mus])).max(axis=(1, 2))
    return residuals


def verify_uniqueness(
    ops: list[np.ndarray],
    u1: np.ndarray,
    u2: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """True iff u1 and u2 agree up to phase; both must implement the tuple.

    A contract violation (some u^dag c_mu u != d_mu) raises, reporting the
    offending indices for each candidate.
    """
    for label, u in (("u1", u1), ("u2", u2)):
        residuals = _contract_residuals(u, ops)
        bad = [(mu + 1, res) for mu, res in enumerate(residuals) if res > tol.residual]
        if bad:
            detail = ", ".join(f"mu={mu}: {res:.3e}" for mu, res in bad)
            raise ValueError(f"{label} violates the conjugation contract ({detail})")
    return equal_up_to_phase(u1, u2, tol.residual).equal
