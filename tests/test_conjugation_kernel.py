"""The word-conjugation kernel against in-test copies of the two kernels it
replaced: Majorana conjugation (one small GEMM per (parent, mu) pair over a
transposed gather) and the teleportation corrections (one small GEMM per
byproduct word). Every entry is the same dot product, so the results must
be equal to the bit, for any BLAS thread count. The same holds for the
linearity residual read on the Majoranas' support against the product with
the dense Jordan-Wigner stack, in both the rotation kernel and the first
level. A real or single-precision gate is conjugated in complex128, so every
route reports on it what it reports on the complex128 gate.
"""

import gc
import types
from functools import lru_cache

import numpy as np
import pytest

from matchgates import classify_gate, extract_rotation, random_fermionic, random_state, svn_reconstruct
from matchgates import hierarchy, majorana, svn, teleport
from matchgates.circuits import build_CnZ, circuit_to_operator, named_gate
from matchgates.io import dumps_stable
from matchgates.linalg import DEFAULT_TOL
from matchgates.majorana import SUPPORT_RESIDUAL_QUBITS, _conjugates, _traces, jw_majorana, jw_set, majorana_words
from matchgates.sampling import random_matchgate_circuit


def reference_conjugates(parents, n, mus):
    """V c_mu V^dag for every V of the stack and every mu in mus, as the kernel did before."""
    words = majorana_words(n)
    cols = np.arange(2**n) ^ words.flip[:, None]
    col_phase = np.take_along_axis(words.phase, cols, axis=1)
    vc = (parents[:, :, cols[mus]] * col_phase[mus]).transpose(0, 2, 1, 3)
    kids = vc @ parents.conj().transpose(0, 2, 1)[:, None]
    return kids.reshape(-1, 2**n, 2**n)


def reference_corrections(u, flips, phases):
    """U K^dag U^dag for every byproduct word K, as the kernel did before."""
    cols = np.arange(u.shape[0]) ^ flips[:, None]
    uk = u[:, cols]
    uk *= phases.conj()
    return uk.transpose(1, 0, 2) @ u.conj().T


def corrections(u, flips, phases):
    """Every correction of teleport._correction_runs in one stack."""
    return np.concatenate([stack for _, stack in teleport._correction_runs(u, flips, phases)])


def _matrices(n, count, rng):
    dim = 2**n
    return rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))


def _slices(n):
    """Full, single-mu and partial mu ranges."""
    return [slice(None), slice(0, 1), slice(2 * n - 1, None), slice(1, min(4, 2 * n)), slice(n, None)]


@pytest.mark.parametrize("n", range(1, 9))
def test_conjugates_equal_the_reference(n):
    rng = np.random.default_rng(n)
    stack = _matrices(n, 3 if n <= 6 else 2, rng)
    for parents in (stack[:1], stack):
        for mus in _slices(n) if n <= 6 or len(parents) == 1 else [slice(0, 1), slice(3, 5)]:
            assert np.array_equal(_conjugates(parents, n, mus), reference_conjugates(parents, n, mus))


@pytest.mark.parametrize("n", range(1, 8))
def test_conjugates_of_non_contiguous_parents(n):
    rng = np.random.default_rng(10 + n)
    stack = _matrices(n, 3, rng)
    mus = slice(None) if n <= 5 else slice(1, 3)
    for parents in (stack[[2, 0]], stack[::2], stack.transpose(0, 2, 1), stack[:, ::-1]):
        assert np.array_equal(_conjugates(parents, n, mus), reference_conjugates(parents, n, mus))


REAL_GATES = {
    "SWAP": named_gate("SWAP"),
    "CZ": named_gate("CZ"),
    "FSWAP": named_gate("FSWAP"),
    "c_1": jw_majorana(2, 1),
    "I": np.eye(4, dtype=complex),
    "CNZ(3)": build_CnZ(3),
}


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32, np.complex64])
@pytest.mark.parametrize("name", REAL_GATES)
def test_a_gate_of_any_numeric_dtype_is_classified_as_in_complex128(name, dtype):
    # The copy of the parents read the input dtype: in-place complex phases
    # raised UFuncTypeError on a real gate, and complex64 ran in single precision.
    u = REAL_GATES[name]
    assert not u.imag.any()
    cast = u.astype(dtype) if np.issubdtype(dtype, np.complexfloating) else u.real.astype(dtype)
    assert dumps_stable(classify_gate(cast).to_json()) == dumps_stable(classify_gate(u).to_json())


def test_a_float64_gate_is_teleported_as_in_complex128():
    cz = named_gate("CZ")
    psi_in = random_state(2, np.random.default_rng(3))
    transcripts = [teleport.simulate_protocol(u, psi_in).to_json(include_states=True) for u in (cz.real, cz)]
    assert dumps_stable(transcripts[0]) == dumps_stable(transcripts[1])
    reports = [teleport.verify_protocol(u, trials=2).to_json() for u in (cz.real, cz)]
    assert dumps_stable(reports[0]) == dumps_stable(reports[1])


@pytest.mark.parametrize("n", range(1, 6))
def test_corrections_equal_the_reference(n):
    rng = np.random.default_rng(20 + n)
    flips, phases, _ = teleport._byproducts(n)
    for parity in ("even", "odd"):
        u = random_fermionic(n, rng, parity)
        assert np.array_equal(corrections(u, flips, phases), reference_corrections(u, flips, phases))
    # a subset of words, and one word
    pick = rng.permutation(len(flips))[: max(1, len(flips) // 3)]
    assert np.array_equal(
        corrections(u, flips[pick], phases[pick]), reference_corrections(u, flips[pick], phases[pick])
    )
    assert np.array_equal(
        corrections(u, flips[-1:], phases[-1:]), reference_corrections(u, flips[-1:], phases[-1:])
    )


@lru_cache(maxsize=None)
def dense_basis(n):
    """The 2n dense Majoranas as the rows of a (2n, 4^n) array."""
    basis = np.stack([majorana._word_matrix(*majorana._word(n, (mu,))) for mu in range(1, 2 * n + 1)])
    return basis.reshape(2 * n, -1)


def reference_first_level(nodes, n, tol):
    """Coefficients and first-level flags of a stack, the residual read off
    the dense Jordan-Wigner stack, as _first_level did at every n. A leaf's
    unit norm is the admitted gate's, so it is not tested here either."""
    coeffs = _traces(nodes, n)
    ok = np.abs(coeffs.imag).max(axis=1) <= tol.residual
    a = coeffs.real.copy()
    ok &= np.abs(nodes.reshape(len(nodes), -1) - a @ dense_basis(n)).max(axis=1) <= tol.residual
    return a, ok


def reference_rotations(ops, n, tol):
    """R, ok and the residual of every conjugate of a stack, the residual read
    off the dense Jordan-Wigner stack, as _rotations did at every n."""
    basis = dense_basis(n)
    r = np.zeros((len(ops), 2 * n, 2 * n))
    ok = np.ones(len(ops), dtype=bool)
    resids = []
    for block, mus in majorana._chunks(len(ops), n, majorana.CHUNK_ENTRIES):
        kids = _conjugates(ops[block], n, mus)
        rows = _traces(kids, n).real
        resid = np.abs(kids.reshape(len(kids), -1) - rows @ basis).max(axis=1)
        per_op = (len(ops[block]), -1)
        r[block, mus] = rows.reshape(*per_op, 2 * n)
        ok[block] &= (resid <= tol.residual).reshape(per_op).all(axis=1)
        resids.append(resid)
    ok &= np.abs(r @ r.transpose(0, 2, 1) - np.eye(2 * n)).max(axis=(1, 2)) <= tol.residual
    return r, ok, np.concatenate(resids)


def _rotation_inputs(n, rng):
    """Fermionic and Gaussian operators of both parities, the Gaussians also
    perturbed and phased, the identity and c_1."""
    c1 = majorana._word_matrix(*majorana._word(n, (1,)))
    if n == 1:
        even = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
    else:
        even = circuit_to_operator(random_matchgate_circuit(n, 3 * n, rng))
    gaussians = [even, c1 @ even]
    ops = [random_fermionic(n, rng, "even"), random_fermionic(n, rng, "odd"), *gaussians]
    ops += [g + 1e-10 * rng.standard_normal(g.shape) for g in gaussians]
    ops += [np.exp(0.3j) * g for g in gaussians]
    return np.stack(ops + [np.eye(2**n, dtype=complex), c1])


def first_level_on_both_routes(nodes, n, monkeypatch):
    """The first-level flags of a stack, after checking that _first_level
    gives the dense copy's coefficients and flags to the bit, at the
    module's cutoff and with the support route at every n, and leaves the
    stack as it was."""
    a, flags = reference_first_level(nodes, n, DEFAULT_TOL)
    before = nodes.copy()
    for cutoff in (SUPPORT_RESIDUAL_QUBITS, 1):
        monkeypatch.setattr(majorana, "SUPPORT_RESIDUAL_QUBITS", cutoff)
        got = hierarchy._first_level(nodes, n, DEFAULT_TOL)
        assert [x.tobytes() for x in got] == [a.tobytes(), flags.tobytes()]
        assert nodes.tobytes() == before.tobytes()
    return flags


@pytest.mark.parametrize("n", range(1, 9))
def test_support_residual_equals_the_dense_stack_residual(monkeypatch, n):
    rng = np.random.default_rng(30 + n)
    ops = _rotation_inputs(n, rng)
    r, ok, resid = reference_rotations(ops, n, DEFAULT_TOL)
    support, kid_flags = [], []
    for block, mus in majorana._chunks(len(ops), n, majorana.CHUNK_ENTRIES):
        kids = _conjugates(ops[block], n, mus)
        before = kids.copy()
        support.append(majorana._support_residuals(kids, _traces(kids, n).real, n))
        assert kids.tobytes() == before.tobytes()
        kid_flags.append(first_level_on_both_routes(kids, n, monkeypatch))
    assert np.concatenate(support).tobytes() == resid.tobytes()
    # only the generic fermionic gates fail, and they pass on one qubit
    assert ok.tolist() == [n == 1] * 2 + [True] * 8
    # of the gates only c_1 is first level; of the conjugates, those of the
    # Gaussians are, and those of the generic gates are not, but on one
    # qubit, where every gate is Gaussian, every conjugate is
    assert first_level_on_both_routes(ops, n, monkeypatch).tolist() == [False] * 9 + [True]
    kid_flags = np.concatenate(kid_flags)
    assert kid_flags.all() if n == 1 else kid_flags.any() and not kid_flags.all()
    monkeypatch.setattr(majorana, "SUPPORT_RESIDUAL_QUBITS", 1)
    got = majorana._rotations(ops, n, DEFAULT_TOL)
    assert [a.tobytes() for a in got] == [r.tobytes(), ok.tobytes()]


def test_rotations_on_eight_qubits_build_no_dense_stack():
    majorana._jw_stack.cache_clear()
    rng = np.random.default_rng(38)
    gate = circuit_to_operator(random_matchgate_circuit(8, 24, rng))
    assert extract_rotation(gate) is not None
    assert classify_gate(gate).min_level == 2
    assert 8 not in [key for key, _ in _cached_items(majorana._jw_stack)]


def _cached_items(fn):
    """The (key, value) pairs an lru_cache wrapper holds, read through the garbage collector."""
    caches = [r for r in gc.get_referents(fn) if isinstance(r, dict) and "__module__" not in r]
    return [item for cache in caches for item in cache.items()]


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    if hasattr(value, "__dataclass_fields__"):
        return [a for v in vars(value).values() for a in _arrays(v)]
    return []


def test_kernel_caches_no_full_gather_index():
    rng = np.random.default_rng(8)
    extract_rotation(random_fermionic(8, rng, "even"))
    v = random_fermionic(7, rng, "odd")
    svn_reconstruct([v.conj().T @ c @ v for c in jw_set(7)])
    # The gather tables of the kernel: phase, cols and col_phase, (2n, 2^n) each.
    for n in (7, 8):
        assert sum(a.size for a in majorana._word_gathers(n)) == 3 * 2 * n * 2**n
    # No per-n cache of the modules that run the kernel holds an integer
    # table of more than 4^n entries (the parity order); a flat gather
    # index of the 2n 4^n conjugate entries would be 2n times that.
    checked = set()
    for module in (majorana, hierarchy, svn, teleport):
        for fn in vars(module).values():
            if isinstance(fn, types.FunctionType) or not hasattr(fn, "cache_info"):
                continue
            for n, value in _cached_items(fn):
                if not isinstance(n, int):
                    continue
                for a in _arrays(value):
                    if a.dtype.kind in "iu":
                        assert a.size <= 4**n, (fn.__name__, n, a.shape)
                        checked.add((fn.__name__, n))
    assert {("_word_gathers", 7), ("_word_gathers", 8)} <= checked
