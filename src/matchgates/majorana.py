"""Jordan-Wigner Majorana operators and the monomial algebra they generate.

The 2n Majorana operators on n qubits are

    c_{2k-1} = Z_1 ... Z_{k-1} X_k        (mu odd)
    c_{2k}   = Z_1 ... Z_{k-1} Y_k        (mu even)

indexed mu = 1 .. 2n. They are Hermitian, unitary, odd under the total
parity Z^{(x)n}, and satisfy {c_mu, c_nu} = 2 delta_{mu nu} 1.

Monomials c_{mu_1} ... c_{mu_m} with mu_1 < ... < mu_m (4^n of them,
including the empty product) form a basis of the full matrix algebra.
A monomial is encoded as an integer bit mask, little-endian in mu:
bit 0 set means c_1 participates.

Every c_mu is also a signed permutation: it sends basis state i to
i ^ f_mu with a phase in {+-1, +-i}. The word table of ``majorana_words``
stores these flip masks and phases, together with the parity signs of the
basis states, so products with Majoranas and parity tests become gathers
and sign masks instead of dense matrix products. Every ordered product of
Majoranas is again a signed permutation, composed from the table without
a dense matrix product. Appending c_mu to a word (f, p) gives
(f ^ f_mu, p[i] phase_mu[i ^ f]), and only this module applies that rule:
``_word`` to one word, for single words up to 15 qubits, and
``_monomials`` in bulk, building all 4^n monomials by 2n doublings with
every row equal to ``_word``'s to the bit. ``expand`` and the
teleportation byproducts K_z (a monomial times a scalar) read that table.
The word table is also the one dense builder: jw_majorana, jw_set, the
stack _jw_stack, majorana_monomial and total_parity are all scattered
from it, and no Pauli Kronecker product is formed. The table and every
table derived from it per n go through the package's one cache rule,
linalg._cached: built once per n and read-only. The 4^n monomials are
not cached; ``expand`` builds them on each call.

The batched kernels built on the table take stacks (B, 2^n, 2^n) of
operators: conjugation of each by every c_mu, the coefficients
tr(c_mu V) / 2^n, the parity of each operator (``_parities``, the one
threshold rule behind parity_of and every parity verdict of the package,
the magic states' included) and the rotation R of each operator. Every
gate argument of the package is read by ``_read_gate``: an operator by
linalg._read_operator, then unitary, then its parity by parity_of.

Every loop over an exponential stack, here and in ``hierarchy``, ``svn``
and ``teleport``, follows one batching rule, ``_runs``: consecutive items
of a given size, as many as fit in CHUNK_ENTRIES complex entries (or in a
smaller limit the caller passes), and never fewer than one. ``_chunks``
applies it to the 2n conjugates of a stack of operators: whole operators
while their conjugates fit in CHUNK_ENTRIES, otherwise one operator's
conjugates in runs of CHUNK_ENTRIES. The runs are independent, and
``_map_runs`` maps a function over them in order: a plain loop with one
run or one worker, otherwise W runs at a time, W - 1 on a thread pool
created on first use and one in the calling thread, the results yielded in
run order. W is the number of CPUs in the process's affinity mask divided
by the BLAS thread count that OPENBLAS_NUM_THREADS or MKL_NUM_THREADS
(else OMP_NUM_THREADS) sets; with none set BLAS uses every CPU and W = 1.
So at most W runs of at most CHUNK_ENTRIES entries (or one conjugate) each
are computed at once, and at most 2W - 1 runs' results, waiting to be taken
in run order, are in memory. A run body may execute on the pool, so it
calls only private helpers: the benchmark's tracer wraps every public
function and keeps one span stack. The rotation kernel ``_rotations`` is
the one caller; its results are the same bits for every W.

One word-conjugation kernel, ``_word_conjugates``, computes V W V^dag for
every V of a stack and every word W of a list given as a column gather
with phases: the Majoranas c_mu for ``_conjugates``, the teleportation
byproducts for ``teleport._correction_runs``. It gathers V W for all m words
of a parent straight into one contiguous (m 2^n, 2^n) block, stored
column-major so that every gathered piece is a whole row of V^T, and
multiplies that block by V^dag in one tall product: BLAS runs one GEMM per
parent instead of one small GEMM per (parent, word) pair, and every entry
of the result is the same dot product, to the bit. The rotation kernel
forms the operands V^T and V^dag of a parent split into runs once
(``_adjoints``), and the runs share them. The gather indices are
the (m, 2^n) word table itself; no flat index of the m 4^n gathered
entries is built or cached.

Both the first level and Gaussianity ask whether an operator V is a real
combination sum_nu a_nu c_nu: the level search asks it of a node, the
rotation kernel ``_rotations`` of each conjugate u c_mu u^dag. One helper,
``_linear_residuals``, answers both with max |V - sum_nu a_nu c_nu|. From
SUPPORT_RESIDUAL_QUBITS qubits on it subtracts the sum only on the n flip
diagonals (i, i ^ f_k) that the Majoranas occupy, two gathered phase rows
per diagonal, and never builds the dense (2n, 4^n) stack (16 MB at n = 8).
Below that size one product with the dense stack is faster, by a few
microseconds a call, which the level search and the compact circuit route
feel end to end. Each reconstructed entry has at most one nonzero real and
one nonzero imaginary term, so both routes give the same residual to the
bit.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Literal

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NORM_TOL,
    Tolerances,
    _cached,
    _guard_qubits,
    _integer,
    _read_operator,
    assert_unitary,
    norm_max,
)

Parity = Literal["even", "odd", "none"]

# Largest batch of operators the batched kernels stack, in complex entries (1 MiB).
CHUNK_ENTRIES = 2**16

# _linear_residuals, behind both the first level and the rotation kernel,
# reads the residual on the Majoranas' support from this many qubits on.
# Per call of _rotations on one gate, one BLAS thread, 2-vCPU x86 host, the
# product with the dense stack is 5-7 us faster for n <= 4, the support
# route 0.16 ms faster at n = 5 and about 14 ms (61 -> 47 ms) at n = 8.
# With the support route at every n, perfbench read classify_s +3.6% on
# hierarchy_mix and compile_compact_s +4.2% on compile_mix, slower in 10 of
# 10 pairs each.
SUPPORT_RESIDUAL_QUBITS = 5


def _worker_count() -> int:
    """How many runs the run map keeps in flight: the CPUs of the process's
    affinity mask divided by the BLAS thread count that OPENBLAS_NUM_THREADS
    or MKL_NUM_THREADS (else OMP_NUM_THREADS) sets. When none is set, or the
    first one set is no positive integer, BLAS takes every CPU and it is 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    names = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
    blas = next((os.environ[name] for name in names if name in os.environ), "")
    return max(cpus // int(blas), 1) if blas.isdigit() and int(blas) > 0 else 1


# Read once, at import: BLAS has read its thread count by then.
_WORKERS = _worker_count()


def jw_majorana(n: int, mu: int) -> np.ndarray:
    """The Jordan-Wigner Majorana operator c_mu on n qubits, mu in 1..2n."""
    n = _guard_qubits(n, "Majorana operator")
    if not 1 <= _integer(mu, "Majorana index") <= 2 * n:
        raise ValueError(f"Majorana index {mu} out of range 1..{2 * n}")
    return _word_matrix(*_word(n, (mu,)))


def jw_set(n: int) -> list[np.ndarray]:
    """All 2n Jordan-Wigner Majorana operators in index order."""
    n = _guard_qubits(n, "Majorana operator")
    return [jw_majorana(n, mu) for mu in range(1, 2 * n + 1)]


@dataclass(frozen=True, eq=False)
class MajoranaWords:
    """The Jordan-Wigner Majoranas on n qubits as signed permutations.

    flip[mu - 1] and phase[mu - 1] give c_mu[i, i ^ flip] = phase[i], every
    other entry being zero. sign[i] = (-1)^popcount(i) is the diagonal of
    Z^{(x)n}. == and hash() go by identity.
    """

    flip: np.ndarray
    phase: np.ndarray
    sign: np.ndarray


@_cached
def majorana_words(n: int) -> MajoranaWords:
    """Word table of the 2n Majoranas on n qubits, 1 <= n <= linalg.MAX_QUBITS,
    built once per n (linalg._cached)."""
    n = _guard_qubits(n, "Majorana word table")
    index = np.arange(2**n)
    flip = np.empty(2 * n, dtype=np.intp)
    phase = np.empty((2 * n, 2**n), dtype=complex)
    for k in range(1, n + 1):
        shift = n - k  # qubit k is bit n - k, counted from the least significant
        z_string = _popcount_sign(index >> (shift + 1))
        bit = (index >> shift) & 1
        flip[2 * k - 2] = flip[2 * k - 1] = 1 << shift
        phase[2 * k - 2] = z_string
        phase[2 * k - 1] = z_string * np.where(bit == 1, 1j, -1j)
    return MajoranaWords(flip, phase, _popcount_sign(index))


def _word(n: int, mus) -> tuple[int, np.ndarray]:
    """The ordered product c_{mus[0]} c_{mus[1]} ... as a signed permutation.

    Returns (flip, phase) with product[i, i ^ flip] = phase[i]. Appending
    c_mu to a word (f, p) gives (f ^ f_mu, p[i] phase_mu[i ^ f]); the empty
    product is the identity.
    """
    index = np.arange(2**n)
    flip, phase = 0, np.ones(2**n, dtype=complex)
    for mu in mus:
        words = majorana_words(n)
        phase = phase * words.phase[mu - 1][index ^ flip]
        flip ^= int(words.flip[mu - 1])
    return flip, phase


def _monomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flips (4^n,) and phases (4^n, 2^n) of every ordered monomial: row m is
    _word(n, indices_from_mask(m)), to the bit.

    Built by 2n doublings: doubling mu appends c_mu to the rows of the masks
    below 2^(mu - 1), as _word appends it to one word.
    """
    words = majorana_words(n)
    index = np.arange(2**n)
    flips = np.zeros(4**n, dtype=np.intp)
    phases = np.empty((4**n, 2**n), dtype=complex)
    phases[0] = 1.0
    for mu, (f, p) in enumerate(zip(words.flip.tolist(), words.phase)):
        low, high = slice(0, 1 << mu), slice(1 << mu, 2 << mu)
        phases[high] = phases[low] * p[index ^ flips[low, None]]
        flips[high] = flips[low] ^ f
    return flips, phases


def _word_matrix(flip: int, phase: np.ndarray) -> np.ndarray:
    """Dense matrix of the signed permutation i -> i ^ flip with phase[i]."""
    index = np.arange(len(phase))
    out = np.zeros((len(phase), len(phase)), dtype=complex)
    out[index, index ^ flip] = phase
    return out


def _popcount_sign(index: np.ndarray) -> np.ndarray:
    """(-1)^popcount for each entry of a non-negative integer array."""
    odd = np.zeros(index.shape, dtype=np.intp)
    rest = index.copy()
    while rest.any():
        odd ^= rest & 1
        rest >>= 1
    return 1.0 - 2.0 * odd


@_cached
def _jw_stack(n: int) -> np.ndarray:
    """jw_set as one (2n, 2^n, 2^n) stack, scattered from the word table like
    every dense Jordan-Wigner object."""
    return np.stack(jw_set(n))


@_cached
def _word_gathers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather tables of the batched kernels, from the Majorana word table.

    Returns (phase, cols, col_phase), each (2n, 2^n): phase[mu, i] =
    c_mu[i, i ^ f_mu], cols[mu, j] = j ^ f_mu and col_phase[mu, j] =
    c_mu[j ^ f_mu, j], so that (c_mu V)[i] = phase[mu, i] V[cols[mu, i]] and
    (V c_mu)[:, j] = V[:, cols[mu, j]] col_phase[mu, j].
    """
    words = majorana_words(n)
    cols = np.arange(2**n) ^ words.flip[:, None]
    return words.phase, cols, np.take_along_axis(words.phase, cols, axis=1)


@_cached
def _parity_order(n: int) -> np.ndarray:
    """The flat entries of a 2^n x 2^n operator, the same-parity half first."""
    sign = majorana_words(n).sign
    return np.argsort(np.not_equal.outer(sign, sign).ravel(), kind="stable")


def _runs(count: int, size: int, limit: int | None = None):
    """Slices covering range(count) in order, each holding at most `limit`
    entries (CHUNK_ENTRIES by default) at `size` entries per item, and never
    fewer than one item. Every batched loop over an exponential stack takes
    its slices here."""
    step = max((CHUNK_ENTRIES if limit is None else limit) // size, 1)
    return (slice(start, start + step) for start in range(0, count, step))


@_cached
def _pool(threads: int):
    """The run map's pool of `threads` worker threads, created on first use
    (concurrent.futures is imported only then). A forked child drops it:
    the threads stay in the parent."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="matchgates-run")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_runs(fn, runs):
    """fn(run) for every run of an iterable of runs of the one batching
    rule, as an iterator in run order.

    With one worker (_WORKERS) or one run it is map(fn, runs), a plain
    loop. Otherwise it is a generator that keeps at most _WORKERS runs in
    flight: up to _WORKERS - 1 on the thread pool, and one computed by the
    calling thread whenever the next result is still on the pool; at most
    2 _WORKERS - 1 results are held, counting the one the caller has. The
    runs are pulled in order, in the calling thread. A run that raises
    re-raises here, in run order. When the generator is closed early (a
    caller that leaves its loop drops it, which closes it) or raises, the
    runs on the pool are awaited, so no run outlives the loop.

    fn may run on the pool, so it calls only private helpers (the
    benchmark's tracer wraps every public function and keeps one span
    stack), builds no per-n table (their builders call public functions)
    and maps no runs itself.
    """
    runs = iter(runs)
    head = list(islice(runs, 2 if _WORKERS > 1 else 0))
    if len(head) < 2:
        return map(fn, chain(head, runs))
    return _pooled_runs(fn, chain(head, runs))


def _pooled_runs(fn, runs):
    """The generator of _map_runs with more than one worker and run."""
    from concurrent.futures import Future, wait

    pool = _pool(_WORKERS - 1)
    slots: deque = deque()  # (future, on the pool) of each run not yet yielded, in run order
    queued = 0
    try:
        while True:
            for run in islice(runs, _WORKERS - 1 - queued):
                slots.append((pool.submit(fn, run), True))
                queued += 1
            if not slots:
                return
            if slots[0][1]:  # the next result is on the pool: compute one run meanwhile
                for run in islice(runs, 1):
                    here = Future()
                    try:
                        here.set_result(fn(run))
                    except Exception as exc:  # re-raised in run order, below
                        here.set_exception(exc)
                    slots.append((here, False))
            future, pooled = slots.popleft()
            queued -= pooled
            yield future.result()
    finally:
        wait([future for future, _ in slots])


def _chunks(count: int, n: int, limit: int | None = None):
    """(operators, mus) slices covering the 2n conjugates of `count` stacked
    operators in order: whole operators up to `limit` entries (CHUNK_ENTRIES
    by default; at least one operator), each split into runs of its mus of
    CHUNK_ENTRIES entries (one run whenever its conjugates fit)."""
    mu_runs = tuple(_runs(2 * n, 4**n))
    return ((ops, mus) for ops in _runs(count, 2 * n * 4**n, limit) for mus in mu_runs)


def _adjoints(parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V^T, V^dag) of every V of the stack (B, 2^n, 2^n), both C-contiguous
    complex128 whatever the dtype of V: the operands of _word_conjugates,
    formed once for several calls on the same stack."""
    rows = parents.transpose(0, 2, 1).astype(complex, order="C")
    return rows, np.conjugate(rows)


def _word_conjugates(parents: np.ndarray, cols: np.ndarray, phases: np.ndarray, adjoints=None) -> np.ndarray:
    """V W V^dag for every V of the stack (B, 2^n, 2^n) and every word W of
    the list, as a (B, m 2^n, 2^n) array ordered by V, then W.

    Word w is the column gather (V W)[:, j] = V[:, cols[w, j]] phases[w, j].
    The m products V W of one parent are gathered, row by row from V^T, into
    one contiguous (m 2^n, 2^n) block in column-major order, and one GEMM per
    parent multiplies the block by V^dag. A caller that conjugates the stack
    by several lists of words passes its _adjoints, formed once; otherwise
    V^T is formed here and turned into V^dag in place.
    """
    if adjoints is None:
        # rows[b, k] is column k of V, in complex128 whatever the dtype of V
        rows, dagger = parents.transpose(0, 2, 1).astype(complex, order="C"), None
    else:
        rows, dagger = adjoints
    b, m, dim = len(parents), len(cols), parents.shape[-1]
    # vw[b, j, w] is column j of V W
    vw = rows[:, cols.T]
    vw *= phases.T[:, :, None]
    tall = vw.reshape(b, dim, m * dim).transpose(0, 2, 1)
    return np.matmul(tall, np.conjugate(rows, out=rows) if dagger is None else dagger)


def _conjugates(parents: np.ndarray, n: int, mus: slice, adjoints=None) -> np.ndarray:
    """V c_mu V^dag for every V of the stack and every mu in mus, ordered by V, then mu.

    The word-conjugation kernel on the Majorana words: the products V c_mu of
    one parent are gathered into one contiguous block and conjugated by one
    GEMM with V^dag. A caller that conjugates the stack in several runs of
    mus passes its _adjoints, formed once.
    """
    _, cols, col_phase = _word_gathers(n)
    return _word_conjugates(parents, cols[mus], col_phase[mus], adjoints).reshape(-1, 2**n, 2**n)


def _traces(nodes: np.ndarray, n: int) -> np.ndarray:
    """tr(c_mu V) / 2^n for every V of the stack and every mu, as a (B, 2n) array."""
    phase, cols, _ = _word_gathers(n)
    # tr(c_mu V) = sum_i phase[mu, i] V[i ^ f_mu, i]
    diag = nodes[:, cols, np.arange(2**n)]
    return np.einsum("bmi,mi->bm", diag, phase) / 2**n


def _parities(ops: np.ndarray, n: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Which operators of the stack are parity even and which parity odd, as
    two (B,) masks: even when the largest |entry| of the parity-odd part is
    below tol, otherwise odd when that of the parity-even part is, otherwise
    neither.

    Both halves of _parity_order(n) are gathered at once: by take for one
    operator, and by a fancy index for a stack, whose result lies along the
    stack so that the max runs over whole rows. One max and one comparison
    then judge both halves. A max does not depend on the order of its
    entries, and a NaN entry makes its half's max NaN, which no tol passes."""
    order = _parity_order(n)
    mags = np.abs(ops).reshape(len(ops), -1)
    mags = mags.take(order, axis=1) if len(ops) == 1 else mags[:, order]
    below = mags.reshape(len(ops), 2, -1).max(axis=2) < tol  # [:, 0] the parity-even part
    is_even = below[:, 1]
    return is_even, below[:, 0] > is_even  # odd: even part below tol, odd part not


@_cached
def _support_entries(n: int) -> np.ndarray:
    """The flat entries on which a Majorana can be nonzero: the n flip
    diagonals (i, i ^ f_k) of a 2^n x 2^n operator, qubit k by qubit k, as
    one (n 2^n,) array. c_{2k+1} and c_{2k+2} both live on diagonal k."""
    _, cols, _ = _word_gathers(n)
    return (np.arange(2**n) * 2**n + cols[::2]).ravel()


def _support_residuals(nodes: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """max |V_b - sum_nu rows[b, nu] c_nu| for each V_b of the stack nodes
    (B, 2^n, 2^n), subtracting on the Majoranas' support. nodes is only read.

    On diagonal k the sum is rows[b, 2k] phase[2k] + rows[b, 2k+1] phase[2k+1]
    (0-based mu): one real term (phases +-1) and one imaginary term (phases
    +-i), so it is the same value as the product with the dense stack in any
    summation order, and so is the residual.
    """
    phase, _, _ = _word_gathers(n)
    recon = rows[:, 0::2, None] * phase[0::2] + rows[:, 1::2, None] * phase[1::2]
    entries = _support_entries(n)
    flat = nodes.reshape(len(nodes), -1)
    mags = np.abs(flat)
    mags[:, entries] = np.abs(flat[:, entries] - recon.reshape(len(rows), -1))
    return mags.max(axis=1)


def _linear_residuals(nodes: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """max |V_b - sum_nu rows[b, nu] c_nu| for each V_b of the stack nodes
    (B, 2^n, 2^n): on the Majoranas' support from SUPPORT_RESIDUAL_QUBITS
    qubits on, against the dense (2n, 4^n) stack below. nodes is only read."""
    if n >= SUPPORT_RESIDUAL_QUBITS:
        return _support_residuals(nodes, rows, n)
    basis = _jw_stack(n).reshape(2 * n, -1)
    return np.abs(nodes.reshape(len(nodes), -1) - rows @ basis).max(axis=1)


def _rotation_runs(ops: np.ndarray, n: int):
    """The runs of _chunks over the stack, each as (ops, n, block, mus,
    adjoints): the _adjoints of a block split into runs of its mus are
    formed once, for all of its runs; a block of one run forms its own
    (adjoints is None), so they are freed with the run.

    The per-n tables the runs read are built first, here: a run may execute
    on the pool, and the builders call public functions.
    """
    _word_gathers(n)
    if n < SUPPORT_RESIDUAL_QUBITS:
        _jw_stack(n)
    for block, mus in _chunks(len(ops), n):
        if mus.start == 0:
            adjoints = _adjoints(ops[block]) if mus.stop < 2 * n else None
        yield ops, n, block, mus, adjoints


def _rotation_run(run) -> tuple:
    """One run of _rotation_runs: (block, mus, rows, residuals, conjugates)
    with rows[i, nu] = Re tr(c_nu V_i) / 2^n and the residuals of
    _linear_residuals, V_i the conjugates of the run in order.

    The conjugates go back with the result, to be freed only once the next
    run has allocated: freed at the end of its run, a run's arrays leave
    glibc's top of heap past its trim threshold and every run faults its
    pages in again (8192 against 1248 minor faults per 8-qubit call on one
    worker).
    """
    ops, n, block, mus, adjoints = run
    kids = _conjugates(ops[block], n, mus, adjoints)
    rows = _traces(kids, n).real
    return block, mus, rows, _linear_residuals(kids, rows, n), kids


def _rotations(ops: np.ndarray, n: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (B, 2n, 2n) of a stack of operators u, and which of them pass.

    R[mu, nu] = Re tr(c_nu V) / 2^n with V = u c_mu u^dag. An operator passes
    when every V equals sum_nu R[mu, nu] c_nu and R R^T equals the identity,
    both within tol.residual, the first by _linear_residuals. The work stops
    once every operator has failed.

    The runs go through the run map; r and ok are written, and the early
    exit taken, in run order, so both are the same bits for any worker count.
    """
    r = np.zeros((len(ops), 2 * n, 2 * n))
    ok = np.ones(len(ops), dtype=bool)
    for block, mus, rows, resid, _kids in _map_runs(_rotation_run, _rotation_runs(ops, n)):
        per_op = (len(ops[block]), -1)
        r[block, mus] = rows.reshape(*per_op, 2 * n)
        ok[block] &= (resid <= tol.residual).reshape(per_op).all(axis=1)
        if not ok.any():
            return r, ok
    ok &= np.abs(r @ r.transpose(0, 2, 1) - np.eye(2 * n)).max(axis=(1, 2)) <= tol.residual
    return r, ok


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending 1-based Majorana indices of a non-negative bit mask."""
    mask = _integer(mask, "mask", 0)
    return tuple(mu + 1 for mu in range(mask.bit_length()) if (mask >> mu) & 1)


def majorana_monomial(n: int, mask: int) -> np.ndarray:
    """Ordered product of the Majoranas selected by mask (empty mask gives 1)."""
    _guard_qubits(n, "Majorana monomial")
    if not 0 <= _integer(mask, "mask") < 1 << (2 * n):
        raise ValueError(f"mask {mask} out of range for {2 * n} Majorana modes")
    return _word_matrix(*_word(n, indices_from_mask(mask)))


@dataclass
class MajoranaPoly:
    """A complex linear combination of Majorana monomials.

    terms maps monomial masks to coefficients; absent masks mean zero.
    """

    n_modes: int
    terms: dict[int, complex] = field(default_factory=dict)


def expand(op: np.ndarray) -> MajoranaPoly:
    """Expand an operator over the Majorana monomial basis.

    Coefficients come from the trace inner product,
    alpha_m = tr(monomial(m)^dagger op) / 2^n; terms below NORM_TOL are dropped.
    Monomial m holds one entry per column j, at row j ^ f_m, so its trace is
    one gather of op summed over j. Time grows as 8^n, and so does memory,
    through the monomial table alone (8^n complex entries, 32 MiB at
    n = 7): the gathers are taken in runs of monomials of at most
    CHUNK_ENTRIES entries.
    """
    n = _read_operator(op, "operator")
    if not np.isfinite(op).all():  # a NaN trace is below no threshold and reads as zero
        raise ValueError("operator has an entry that is not finite")
    flips, phases = _monomials(n)
    index = np.arange(2**n)
    traces = np.empty(4**n, dtype=complex)
    for run in _runs(4**n, 2**n):
        rows = index ^ flips[run, None]
        # tr(M^dag op) = sum_j conj(M[j ^ f, j]) op[j ^ f, j]
        traces[run] = (np.take_along_axis(phases[run], rows, axis=1).conj() * op[rows, index]).sum(axis=1)
    coefs = (t / 2**n for t in traces.tolist())
    return MajoranaPoly(n, {mask: c for mask, c in enumerate(coefs) if abs(c) >= NORM_TOL})


def total_parity(n: int) -> np.ndarray:
    """The total parity operator Z^{(x)n}, the diagonal of the word table's signs."""
    _guard_qubits(n, "parity operator")
    return np.diag(majorana_words(n).sign).astype(complex)


def parity_of(op: np.ndarray, tol: float = DEFAULT_TOL.residual) -> Parity:
    """Classify an operator as parity even, odd, or neither. The operator
    is read by linalg._read_operator, so anything but a matrix is refused;
    it need not be unitary."""
    is_even, is_odd = _parities(op[None], _read_operator(op, "operator"), tol)
    return "even" if is_even[0] else "odd" if is_odd[0] else "none"


def _read_gate(u: np.ndarray, tol: Tolerances, what: str = "gate") -> tuple[int, Parity]:
    """The one reader of a gate argument: (qubit count, parity), or a
    ValueError naming `what`. u is read as an operator (a matrix within the
    one size rule), then must be unitary within UNITARY_TOL, and its parity
    is read by parity_of at tol.residual. A parity of "none" is returned,
    not refused: each caller says what it means."""
    n = _read_operator(u, what)
    assert_unitary(u, what)
    return n, parity_of(u, tol.residual)


def parity_sign(parity: Parity) -> int:
    """+1 for even, -1 for odd; errors on 'none'."""
    if parity == "even":
        return 1
    if parity == "odd":
        return -1
    raise ValueError("operator has no definite parity")


@dataclass(frozen=True)
class CarReport:
    """Outcome of checking the canonical anticommutation relations."""

    n_modes: int
    max_pair_residual: float
    worst_pair: tuple[int, int]
    max_hermiticity: float
    passed: bool


def _car_operands(ops: list[np.ndarray]) -> int:
    """The mode count n of a candidate CAR tuple, which must hold exactly 2n
    numeric operators of dimension 2^n with finite entries; ValueError
    otherwise. A boolean or object array is not numeric."""
    if not ops:
        raise ValueError("empty operator tuple")
    n = _read_operator(ops[0], "CAR tuple")
    if len(ops) != 2 * n:
        raise ValueError(f"expected {2 * n} operators for {n} qubits, got {len(ops)}")
    dim = 2**n
    for i, a in enumerate(ops):  # every shape and entry, before any product
        if a.shape != (dim, dim):
            raise ValueError(f"operator {i + 1} has shape {a.shape}, expected {(dim, dim)}")
        if a.dtype.kind not in "iufc":  # numpy cannot subtract booleans
            raise ValueError(f"operator {i + 1} is not numeric (dtype {a.dtype})")
        if not np.isfinite(a).all():  # a NaN residual would never count as the worst
            raise ValueError(f"operator {i + 1} has an entry that is not finite")
    return n


def _max_hermiticity(ops: list[np.ndarray]) -> float:
    """max_mu ||d_mu - d_mu^dag||_max over a tuple."""
    return max(norm_max(a - a.conj().T) for a in ops)


def check_car(ops: list[np.ndarray], tol: float = DEFAULT_TOL.residual) -> CarReport:
    """Check {c_mu, c_nu} = 2 delta_{mu nu} 1 over all pairs of a candidate tuple.

    The tuple must contain exactly 2n operators of dimension 2^n, with
    finite entries.
    """
    n = _car_operands(ops)
    eye2 = 2 * np.eye(2**n)
    worst = 0.0
    worst_pair = (1, 1)
    for i, a in enumerate(ops):
        square = a @ a
        for j in range(i, len(ops)):
            anti = square + square if i == j else a @ ops[j] + ops[j] @ a
            target = eye2 if i == j else 0.0
            resid = norm_max(anti - target)
            if resid > worst:
                worst, worst_pair = resid, (i + 1, j + 1)
    return CarReport(n, worst, worst_pair, _max_hermiticity(ops), worst < tol)
