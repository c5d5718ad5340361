"""The batched level search against a direct per-node recursion.

The oracle below follows the definition one dense operator at a time:
level 1 is tested through an einsum over the Jordan-Wigner stack, level
k+1 conjugates by each Majorana with two matrix products, parity is read
off Z op Z at every node, and min_level ascends. level_membership and
min_level must return exactly its answers, on exact gates and on copies
perturbed across the tolerance edge by expm(i eps H), for a diagonal H,
which keeps the gate's parity, and for a full Hermitian H, which mixes
the parity sectors. The package tests parity at the root alone, so the
oracle's per-node test is the independent route to the same answers.
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
from matchgates import classify_gate, hierarchy, majorana
from matchgates.circuits import build_CnZ
from matchgates.hierarchy import SearchBudgetError, level_membership
from matchgates.linalg import DEFAULT_TOL, NORM_TOL, n_qubits_of, norm_max
from matchgates.majorana import total_parity
from matchgates.sampling import haar_unitary, random_matchgate_circuit
from reference import parity_decompose


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
    return abs(float(np.linalg.norm(a)) - 1.0) <= NORM_TOL


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


def mixed(u, eps, rng):
    """expm(i eps H) u for a random full Hermitian H, which mixes parity sectors."""
    a = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return (v * np.exp(1j * eps * w)) @ v.conj().T @ u


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
    u = random_two_qubit_at_root(rng, k, odd=odd)
    assert_agrees(perturbed(u, eps, rng), k)
    assert_agrees(mixed(u, eps, rng), k)


@settings(max_examples=30, deadline=None)
@given(seeds, st.lists(st.sampled_from((0, 1, None)), min_size=1, max_size=4), epsilons)
def test_pattern_gates(seed, pattern, eps):
    weight = sum(p is not None for p in pattern)
    rng = np.random.default_rng(seed)
    u = build_F(tuple(pattern))
    # Weight-4 patterns sit at level 5; test_cnz_gates covers that tree.
    k_max = min(max(weight + 1, 2), 4)
    assert_agrees(perturbed(u, eps, rng), k_max)
    assert_agrees(mixed(u, eps, rng), k_max)


@pytest.mark.parametrize("eps", EPSILONS)
def test_cnz_gates(eps):
    rng = np.random.default_rng(EPSILONS.index(eps))
    assert_agrees(perturbed(build_CnZ(3), eps, rng), 4)
    assert_agrees(perturbed(build_CnZ(4), eps, rng), 5)
    assert_agrees(mixed(build_CnZ(3), eps, rng), 4)
    assert_agrees(mixed(build_CnZ(4), eps, rng), 5)


def non_fermionic_roots():
    h = named_gate("H")
    return {
        "H": h,
        "H(x)1": np.kron(h, np.eye(2)),
        "1(x)RX(0.7)": np.kron(np.eye(2), named_gate("RX", (0.7,))),
        "haar": haar_unitary(4, np.random.default_rng(5)),
    }


@pytest.mark.parametrize("name", non_fermionic_roots())
def test_a_root_of_no_definite_parity_is_at_no_level(name):
    u = non_fermionic_roots()[name]
    assert majorana.parity_of(u) == "none"
    for k in range(1, 6):
        assert not oracle_member(u, k)
        assert not level_membership(u, k)
    assert min_level(u, 5) is None


def test_a_root_of_no_definite_parity_is_answered_past_the_guard():
    # (2n)^(k-1) = 4^12 conjugations exceed COST_GUARD, but the root's
    # parity already decides the question
    u = non_fermionic_roots()["H(x)1"]
    assert min_level(u, 13) is None
    assert not level_membership(u, 13)
    with pytest.raises(SearchBudgetError):
        min_level(named_gate("SWAP") @ np.diag([1, 1, 1, np.exp(0.1j)]), 13)


def test_membership_past_the_guard_is_answered_from_the_affordable_levels():
    # levels are nested: SWAP is at level 3, so it is at level 13, which
    # alone would need 4^12 conjugations
    swap = named_gate("SWAP")
    assert min_level(swap, 13) == 3
    assert level_membership(swap, 13)
    assert level_membership(build_CnZ(3), 12)
    # a gate in none of the affordable levels keeps the level-13 refusal
    generic = named_gate("CPHASE", (1.0,))
    message = r"^level-13 membership at n=2 needs about 1\.68e\+07 dense conjugations \(guard 1e\+07\)$"
    with pytest.raises(SearchBudgetError, match=message):
        level_membership(generic, 13)
    with pytest.raises(SearchBudgetError, match=message):
        min_level(generic, 13)


def tolerance_edge_gates():
    """Two gates whose leaves at their minimum level sit just inside epsilon,
    with that minimum level, and the highest level asked."""
    rng = np.random.default_rng(259)
    planted = perturbed(random_two_qubit_at_root(rng, 3, odd=False), 3e-10, rng)
    rng = np.random.default_rng(200 + EPSILONS.index(1e-10))
    kid = hierarchy._conjugates(perturbed(build_CnZ(5), 1e-10, rng)[None], 5, slice(0, 1))
    grandkid = hierarchy._conjugates(kid, 5, slice(0, 1))[0]
    return {"planted k = 3 at 3e-10": (planted, 2, 6), "CnZ(5) c_1 c_1 grandchild at 1e-10": (grandkid, 1, 4)}


@pytest.mark.parametrize("name", tolerance_edge_gates())
def test_tolerance_edge_gates_sit_at_their_minimum_level(name):
    u, low, k_max = tolerance_edge_gates()[name]
    assert min_level(u, k_max) == low
    assert level_membership(u, low) and oracle_member(u, low)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="levels are not nested at the tolerance edge: each conjugation about doubles "
    "a leaf's linearity residual while epsilon stays fixed, so leaves just inside epsilon "
    "at the minimum level fall outside it one level up (ROADMAP item 5)",
)
@pytest.mark.parametrize("name", tolerance_edge_gates())
def test_membership_holds_at_every_level_from_the_minimum(name):
    u, low, k_max = tolerance_edge_gates()[name]
    assert [level_membership(u, k) for k in range(low, k_max + 1)] == [True] * (k_max - low + 1)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the answer depends on the side of COST_GUARD: level 12 is searched alone and "
    "fails at the tolerance edge, while level 13, past the guard at n = 2, is answered "
    "from the affordable levels below it and finds level 2 (ROADMAP item 5)",
)
def test_membership_agrees_on_both_sides_of_the_cost_guard():
    u = tolerance_edge_gates()["planted k = 3 at 3e-10"][0]
    assert level_membership(u, 12) == level_membership(u, 13)


def test_each_level_question_tests_parity_once_at_the_root(monkeypatch):
    sizes = []
    parities = majorana._parities

    def spy(ops, n, tol):
        sizes.append(len(ops))
        return parities(ops, n, tol)

    for module in (majorana, hierarchy):
        monkeypatch.setattr(module, "_parities", spy, raising=False)
    assert min_level(build_CnZ(4), 5) == 5
    assert sizes == [1]
    sizes.clear()
    u = random_two_qubit_at_root(np.random.default_rng(21), 5, j=1)
    assert classify_gate(u).min_level == 5
    assert sizes == [1]


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(2, 3), st.sampled_from(("even", "odd")), epsilons)
def test_generic_fermionic_gates(seed, n, parity, eps):
    rng = np.random.default_rng(seed)
    assert_agrees(perturbed(random_fermionic(n, rng, parity), eps, rng), 8)


@pytest.mark.parametrize("chunk", [16, 48, 80])
def test_chunk_boundaries(monkeypatch, chunk):
    # 4x4 nodes: one child, three children, or one parent's four children per chunk
    for module in (majorana, hierarchy):  # the split threshold and the search's limit
        monkeypatch.setattr(module, "CHUNK_ENTRIES", chunk)
    batches = []
    conjugates = hierarchy._conjugates

    def spy(nodes, n, mus):
        kids = conjugates(nodes, n, mus)
        batches.append(len(kids))
        return kids

    monkeypatch.setattr(hierarchy, "_conjugates", spy)
    rng = np.random.default_rng(chunk)
    for k in (3, 4):
        u = random_two_qubit_at_root(rng, k, odd=bool(k % 2))
        assert_agrees(u, k)
        assert_agrees(perturbed(u, 3e-10, rng), k)
    assert max(batches) == {16: 1, 48: 3, 80: 4}[chunk]


def _old_chunks(count, n, limit):
    """majorana._chunks before the one batching rule: (operators, mus) slices
    of at most `limit` entries, or of one operator's mus."""
    per_chunk = limit // 4**n
    if per_chunk >= 2 * n:
        step = per_chunk // (2 * n)
        for p in range(0, count, step):
            yield slice(p, p + step), slice(None)
    else:
        step = max(per_chunk, 1)
        for p in range(count):
            for mu in range(0, 2 * n, step):
                yield slice(p, p + 1), slice(mu, mu + step)


def _old_runs(count, size, chunk):
    """The hand-written batch steps of the Lambda norms and the corrections."""
    step = max(chunk // size, 1)
    return [slice(i, i + step) for i in range(0, count, step)]


def _covered(chunks, count, n):
    """The (operator, mu) pairs of each chunk, in order."""
    return [[(p, mu) for p in range(count)[ops] for mu in range(2 * n)[mus]] for ops, mus in chunks]


def test_one_batching_rule_gives_every_site_its_old_slices(monkeypatch):
    default = majorana.CHUNK_ENTRIES
    for n in range(1, 10):
        size = 2 * n * 4**n
        chunks = {default} | {c + d for c in (size, 8 * size) for d in (-8, -1, 0, 1, 8)}
        for chunk in sorted(chunks):
            monkeypatch.setattr(majorana, "CHUNK_ENTRIES", chunk)
            search = min(chunk, max(chunk // 8, size))
            # svn's contract residuals: the 2n conjugates of one operator
            mus = [range(2 * n)[s] for s in majorana._runs(2 * n, 4**n)]
            assert mus == [range(2 * n)[m] for _, m in _old_chunks(1, n, chunk)], (n, chunk)
            for count in range(1, 71):
                old = _covered(_old_chunks(count, n, search), count, n)
                assert _covered(majorana._chunks(count, n, chunk // 8), count, n) == old, (n, chunk, count)
                old = _covered(_old_chunks(count, n, chunk), count, n)
                assert _covered(majorana._chunks(count, n), count, n) == old, (n, chunk, count)
                for item in (2**n, 4**n, size):
                    old = [range(count)[s] for s in _old_runs(count, item, chunk)]
                    assert [range(count)[s] for s in majorana._runs(count, item)] == old, (n, chunk, count)


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
    blocks = []
    runs = majorana._runs

    def spy(count, size, limit=None):
        slices = list(runs(count, size, limit))
        blocks.append(len(slices))
        return slices

    monkeypatch.setattr(hierarchy, "_runs", spy)
    for u in cases:
        want = _full_lambda_norm(u)
        # about seven blocks, the last one short; single rows while that is cheap
        for chunk in [4**n * (4**n // 7) + 5] + ([1] if n <= 4 else []):
            monkeypatch.setattr(majorana, "CHUNK_ENTRIES", chunk)
            blocks.clear()
            assert abs(hierarchy._lambda_commutator_norm(u) - want) <= bound
            assert is_gaussian_lambda(u) == (want < DEFAULT_TOL.residual)
            # both calls read max(chunk // 4^n, 1) rows per block, more than one block
            rows = max(chunk // 4**n, 1)
            assert blocks == [-(-(4**n) // rows)] * 2 and rows < 4**n
