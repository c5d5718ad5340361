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
  d_1^{z1} d_3^{z2} ... d_{2n-1}^{zn} applied to that vacuum.

Assembled that way, the columns form the matrix S with S c_mu S^dag =
d_mu, so the unitary satisfying U^dag c_mu U = d_mu is S^dag; the free
phase is fixed with canonical_phase. Feeding d_mu = V^dag c_mu V
recovers V up to phase. When every d_mu is an odd gate of hierarchy
level k, the reconstructed U lives at level k+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, canonical_phase, equal_up_to_phase, norm_max
from .majorana import check_car, jw_set

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

    columns = []
    for zi in range(dim):
        word = np.eye(dim, dtype=complex)
        for k in range(1, n + 1):
            if (zi >> (n - k)) & 1:
                word = word @ ops[2 * (k - 1)]
        columns.append(word @ vacuum)
    u = canonical_phase(np.stack(columns, axis=1).conj().T, tol.norm)

    cs = jw_set(n)
    residuals = np.array(
        [norm_max(u.conj().T @ cs[mu] @ u - ops[mu]) for mu in range(2 * n)]
    )
    return SvnResult(u, residuals)


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
    cs = jw_set(len(ops) // 2)
    for label, u in (("u1", u1), ("u2", u2)):
        bad = [
            (mu + 1, norm_max(u.conj().T @ cs[mu] @ u - ops[mu]))
            for mu in range(len(ops))
            if norm_max(u.conj().T @ cs[mu] @ u - ops[mu]) > tol.residual
        ]
        if bad:
            detail = ", ".join(f"mu={mu}: {res:.3e}" for mu, res in bad)
            raise ValueError(f"{label} violates the conjugation contract ({detail})")
    return equal_up_to_phase(u1, u2, tol.residual).equal
