"""The batched level search against a direct per-node recursion.

The oracle below follows the definition one dense operator at a time:
level 1 is tested through an einsum over the Jordan-Wigner stack, level
k+1 conjugates by each Majorana with two matrix products, parity is read
off Z op Z, and min_level ascends. level_membership and min_level must
return exactly its answers, on exact gates and on copies perturbed by a
diagonal expm(i eps H) across the tolerance edge.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import (
    build_F,
    circuit_to_operator,
    is_gaussian_lambda,
    jw_majorana,
    jw_set,
    min_level,
    named_gate,
    random_fermionic,
    random_two_qubit_at_root,
)
from matchgates import hierarchy
from matchgates.circuits import build_CnZ
from matchgates.hierarchy import level_membership
from matchgates.linalg import DEFAULT_TOL, n_qubits_of, norm_max
from matchgates.majorana import parity_decompose, total_parity
from matchgates.sampling import random_matchgate_circuit


def lambda_operator(n):
    """Dense pairing operator sum_mu c_mu (x) c_mu on 2n qubits: the test oracle
    of the Lambda commutator, which the package never materializes."""
    return sum(np.kron(c, c) for c in jw_set(n))

EPSILONS = (0.0, 1e-13, 1e-11, 1e-10, 3e-10, 1e-9, 1e-8, 1e-7)
ORACLE_GUARD = 10**7


def oracle_parity(op, tol):
    z = total_parity(n_qubits_of(op))
    conj = z @ op @ z
    even, odd = (op + conj) / 2, (op - conj) / 2
    if norm_max(odd) < tol:
        return "even"
    if norm_max(even) < tol:
        return "odd"
    return "none"


@lru_cache(maxsize=None)
def oracle_stack(n):
    return np.stack(jw_set(n))


def oracle_first_level(u, tol):
    n = n_qubits_of(u)
    stack = oracle_stack(n)
    a = np.einsum("kij,ji->k", stack, u) / 2**n
    if float(np.abs(a.imag).max()) > tol.residual:
        return False
    a = a.real.copy()
    if norm_max(u - np.tensordot(a, stack, axes=1)) > tol.residual:
        return False
    return abs(float(np.linalg.norm(a)) - 1.0) <= tol.norm


def oracle_member(u, k, tol=DEFAULT_TOL):
    n = n_qubits_of(u)
    if (2 * n) ** (k - 1) > ORACLE_GUARD:
        raise ValueError("oracle guard")
    if k == 1:
        return oracle_first_level(u, tol)
    udag = u.conj().T
    for c in jw_set(n):
        v = u @ c @ udag
        if oracle_parity(v, tol.residual) != "odd":
            return False
        if not oracle_member(v, k - 1, tol):
            return False
    return True


def perturbed(u, eps, rng):
    """expm(i eps H) u for a random diagonal H; the parity of u is kept."""
    return np.exp(1j * eps * rng.standard_normal(len(u)))[:, None] * u


def assert_agrees(u, k_max):
    want = [oracle_member(u, k) for k in range(1, k_max + 1)]
    assert [level_membership(u, k) for k in range(1, k_max + 1)] == want
    assert min_level(u, k_max) == next((k for k, ok in enumerate(want, 1) if ok), None)


seeds = st.integers(0, 2**32 - 1)
epsilons = st.sampled_from(EPSILONS)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(2, 6), st.booleans(), epsilons)
def test_planted_two_qubit_gates(seed, k, odd, eps):
    rng = np.random.default_rng(seed)
    u = perturbed(random_two_qubit_at_root(rng, k, odd=odd), eps, rng)
    assert_agrees(u, k)


@settings(max_examples=30, deadline=None)
@given(seeds, st.lists(st.sampled_from((0, 1, None)), min_size=1, max_size=4), epsilons)
def test_pattern_gates(seed, pattern, eps):
    weight = sum(p is not None for p in pattern)
    u = perturbed(build_F(tuple(pattern)), eps, np.random.default_rng(seed))
    # Weight-4 patterns sit at level 5; test_cnz_gates covers that tree.
    assert_agrees(u, min(max(weight + 1, 2), 4))


@pytest.mark.parametrize("eps", EPSILONS)
def test_cnz_gates(eps):
    rng = np.random.default_rng(EPSILONS.index(eps))
    assert_agrees(perturbed(build_CnZ(3), eps, rng), 4)
    assert_agrees(perturbed(build_CnZ(4), eps, rng), 5)


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(2, 3), st.sampled_from(("even", "odd")), epsilons)
def test_generic_fermionic_gates(seed, n, parity, eps):
    rng = np.random.default_rng(seed)
    assert_agrees(perturbed(random_fermionic(n, rng, parity), eps, rng), 8)


@pytest.mark.parametrize("chunk", [16, 48, 80])
def test_chunk_boundaries(monkeypatch, chunk):
    # 4x4 nodes: one child, three children, or one parent's four children per chunk
    monkeypatch.setattr(hierarchy, "CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(chunk)
    for k in (3, 4):
        u = random_two_qubit_at_root(rng, k, odd=bool(k % 2))
        assert_agrees(u, k)
        assert_agrees(perturbed(u, 3e-10, rng), k)


def test_wide_gates_split_one_parent_across_chunks():
    rng = np.random.default_rng(70)
    for u in (np.eye(128, dtype=complex), jw_majorana(7, 5), random_fermionic(7, rng, "odd")):
        assert_agrees(u, 2)


def test_guard_message_unchanged():
    u = random_fermionic(6, np.random.default_rng(6))
    with pytest.raises(ValueError) as err:
        min_level(u, 8)
    assert str(err.value) == "level-8 membership at n=6 needs about 3.58e+07 dense conjugations (guard 1e+07)"


def _lambda_cases(rng, n, eps):
    if n == 1:
        gaussian = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
    else:
        gaussian = circuit_to_operator(random_matchgate_circuit(n, 6, rng))
    cases = [gaussian, jw_majorana(n, int(rng.integers(1, 2 * n + 1))) @ gaussian]
    if n >= 2:
        cases.append(random_fermionic(n, rng, "odd"))
    return [perturbed(u, eps, rng) for u in cases]


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 3), epsilons)
def test_lambda_test_matches_dense_commutator(seed, n, eps):
    rng = np.random.default_rng(seed)
    lam = lambda_operator(n)
    for u in _lambda_cases(rng, n, eps):
        uu = np.kron(u, u)
        want = norm_max(lam @ uu - uu @ lam) < DEFAULT_TOL.residual
        assert is_gaussian_lambda(u) == want


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 5), st.booleans())
def test_parity_decompose_is_z_conjugation(seed, n, real):
    rng = np.random.default_rng(seed)
    op = rng.standard_normal((2**n, 2**n))
    if not real:
        op = op + 1j * rng.standard_normal(op.shape)
    z = total_parity(n)
    conj = z @ op @ z
    even, odd = parity_decompose(op)
    assert even.dtype == odd.dtype == np.complex128
    assert even.tobytes() == ((op + conj) / 2).tobytes()
    assert odd.tobytes() == ((op - conj) / 2).tobytes()


def test_parity_decompose_on_gates_with_zero_entries():
    # Equal values; only the sign of some zeros may differ from Z op Z.
    for op in (named_gate("SWAP"), build_CnZ(3), jw_majorana(3, 4), -named_gate("FSWAP")):
        z = total_parity(n_qubits_of(op))
        even, odd = parity_decompose(op)
        assert np.array_equal(even, (op + z @ op @ z) / 2)
        assert np.array_equal(odd, (op - z @ op @ z) / 2)


def _full_lambda_norm(u):
    """||[cu; uc]^T [cu; -uc]||_max from the dense Jordan-Wigner set, one product."""
    cu = np.stack([(c @ u).ravel() for c in jw_set(n_qubits_of(u))])
    uc = np.stack([(u @ c).ravel() for c in jw_set(n_qubits_of(u))])
    return norm_max(np.concatenate([cu, uc]).T @ np.concatenate([cu, -uc]))


@pytest.mark.parametrize("n", range(1, 7))
def test_lambda_row_blocks_match_the_full_product(monkeypatch, n):
    rng = np.random.default_rng(90 + n)
    cases = _lambda_cases(rng, n, 0.0) if n < 6 else []
    cases += [build_CnZ(n)] if n >= 2 else []
    # each entry sums 4n products of entries of modulus <= 1
    bound = 16 * n * np.finfo(float).eps
    for u in cases:
        want = _full_lambda_norm(u)
        # about seven blocks, the last one short; single rows while that is cheap
        for chunk in [4**n * (4**n // 7) + 5] + ([1] if n <= 4 else []):
            monkeypatch.setattr(hierarchy, "CHUNK_ENTRIES", chunk)
            assert abs(hierarchy._lambda_commutator_norm(u) - want) <= bound
            assert is_gaussian_lambda(u) == (want < DEFAULT_TOL.residual)
