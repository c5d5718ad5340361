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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, canonical_phase, norm_max
from .majorana import _car_operands, _conjugates, _max_hermiticity, _runs, check_car

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
    """Reconstruct the unitary U with U^dag c_mu U = d_mu from a CAR tuple.

    A tuple failing the anticommutation relations, or one whose operators
    are not Hermitian within tol.residual, is refused with ValueError.
    Acceptance is certified from the result's own defects; check_car runs
    only when the certificate does not hold.
    """
    n = _car_operands(ops)
    # the certificate covers Hermitian float64 or complex128 operators only
    double = all(a.dtype in (np.float64, np.complex128) for a in ops)
    certifiable = double and _max_hermiticity(ops) < tol.residual
    projector = columns = u = residuals = None
    if certifiable:
        projector, columns = _columns(ops, n)
        if columns is not None and np.isfinite(columns).all():
            u = canonical_phase(columns.conj())
            holds = _certificate(u, tol.residual)
            if holds is not None:
                residuals = _contract_residuals(u, ops)
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
    if projector is None:
        projector, columns = _columns(ops, n)
    if columns is None:
        rank = int(np.linalg.matrix_rank(projector, tol=PROBE_THRESHOLD))
        raise ValueError(
            f"projector annihilates every basis probe (numerical rank {rank}); "
            "the tuple is degenerate"
        )
    if u is None:
        u = canonical_phase(columns.conj())
    return SvnResult(u, _contract_residuals(u, ops) if residuals is None else residuals)


def _columns(ops: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The vacuum projector and the rows z = column z of S, or None for the
    rows when the projector annihilates every basis probe."""
    dim = 2**n
    projector = np.eye(dim, dtype=complex)
    for k in range(1, n + 1):
        projector = projector @ (np.eye(dim) + (-1j) * ops[2 * k - 2] @ ops[2 * k - 1]) / 2

    for probe in range(dim):
        norm = np.linalg.norm(projector[:, probe])
        if norm > PROBE_THRESHOLD:
            break
    else:
        return projector, None

    # Row z holds column z of S: d_{2k-1} times column z - h, h = 2^(n-k).
    columns = np.empty((dim, dim), dtype=complex)
    columns[0] = projector[:, probe] / norm
    for k in range(n, 0, -1):
        h = 1 << (n - k)
        columns[h : 2 * h] = columns[:h] @ ops[2 * k - 2].T
    return projector, columns


def _certificate(u: np.ndarray, tol: float):
    """The certificate of the module docstring for the u reconstructed from
    a certifiable tuple, as a test of the largest contract residual that is
    True when check_car passes at tol; None when no residual could pass it."""
    dim = len(u)
    ku = 2 * dim * 2.0**-53  # 2d u; Python floats, cheaper than numpy scalars
    gamma = math.sqrt(2) * ku / (1 - ku)  # sqrt(2) gamma_{2d}, at least gamma_{d+2}
    g = (1 + gamma) * norm_max(u.conj().T @ u - np.eye(dim)) + 2 * gamma
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
        residuals[mus] = np.abs(conj - np.stack(ops[mus])).max(axis=(1, 2))
    return residuals
