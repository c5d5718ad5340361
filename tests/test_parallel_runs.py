"""The run map of the one batching rule, majorana._map_runs, on one worker
and on two. Each run is the same computation on the same inputs wherever
it executes, and the results are written in run order, so every result must
be the same bits for any worker count. The worker count is forced through
majorana._WORKERS, so the pool is live whatever the host's CPUs.
"""

import os
import threading
import time

import numpy as np
import pytest

from matchgates import classify_gate, jw_majorana, parity_of, random_fermionic
from matchgates import majorana
from matchgates.circuits import circuit_to_operator
from matchgates.io import dumps_stable
from matchgates.linalg import DEFAULT_TOL
from matchgates.sampling import random_matchgate_circuit


def on_workers(monkeypatch, fn):
    """fn() with one worker and with two, as a pair of results."""
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(majorana, "_WORKERS", workers)
        out.append(fn())
    return out


def gaussians(n, seed):
    """A Gaussian circuit's operator on n qubits and c_1 times it: both parities."""
    even = circuit_to_operator(random_matchgate_circuit(n, 3 * n, np.random.default_rng(seed)))
    return [even, jw_majorana(n, 1) @ even]


def rotation_bytes(ops, n):
    return [a.tobytes() for a in majorana._rotations(ops, n, DEFAULT_TOL)]


@pytest.mark.parametrize("n", [7, 8])
def test_rotations_are_the_same_bits_on_two_workers(monkeypatch, n):
    for u in gaussians(n, 70 + n):
        one, two = on_workers(monkeypatch, lambda: rotation_bytes(u[None], n))
        assert one == two
        assert np.frombuffer(one[1], dtype=bool).all()
    assert [parity_of(u) for u in gaussians(n, 70 + n)] in (["even", "odd"], ["odd", "even"])


def test_a_stack_of_parents_is_the_same_bits_on_two_workers(monkeypatch):
    ops = np.stack([*gaussians(7, 77), random_fermionic(7, np.random.default_rng(7), "even")])
    one, two = on_workers(monkeypatch, lambda: rotation_bytes(ops, 7))
    assert one == two
    assert np.frombuffer(one[1], dtype=bool).tolist() == [True, True, False]


def test_the_early_exit_is_the_same_bits_on_two_workers(monkeypatch):
    u = random_fermionic(8, np.random.default_rng(8), "odd")
    runs = []
    traces = majorana._traces

    def counting(kids, n):
        runs.append(n)
        return traces(kids, n)

    monkeypatch.setattr(majorana, "_traces", counting)
    one, two = on_workers(monkeypatch, lambda: (rotation_bytes(u[None], 8), len(runs)))
    assert one[0] == two[0]
    assert np.frombuffer(one[0][1], dtype=bool).tolist() == [False]
    # the first of 16 runs fails the gate: one run on one worker, at most two on two
    assert one[1] == 1 and two[1] - one[1] <= 2


def test_classify_gate_json_is_the_same_on_two_workers(monkeypatch):
    for u in gaussians(7, 7):
        one, two = on_workers(monkeypatch, lambda: dumps_stable(classify_gate(u).to_json()))
        assert one == two


class Runs:
    """A run function that records where and how many of its runs are live,
    sleeps a little, and raises on the runs it is told to."""

    def __init__(self, fail=()):
        self.fail = fail
        self.lock = threading.Lock()
        self.live = self.started = 0
        self.threads = set()

    def __call__(self, run):
        with self.lock:
            self.live += 1
            self.started += 1
            self.threads.add(threading.get_ident())
        try:
            time.sleep(0.01)
            if run in self.fail:
                raise ValueError(f"run {run}")
            return run * run
        finally:
            with self.lock:
                self.live -= 1


def test_runs_are_yielded_in_order_from_two_threads(monkeypatch):
    monkeypatch.setattr(majorana, "_WORKERS", 2)
    fn = Runs()
    assert list(majorana._map_runs(fn, range(9))) == [run * run for run in range(9)]
    assert len(fn.threads) == 2 and fn.live == 0


# runs alternate between the pool (even) and the calling thread (odd)
@pytest.mark.parametrize("fail", [(1, 2), (2, 3), (6,)])
def test_a_run_that_raises_propagates_in_run_order_and_leaves_no_run_pending(monkeypatch, fail):
    monkeypatch.setattr(majorana, "_WORKERS", 2)
    fn = Runs(fail)
    with pytest.raises(ValueError, match=f"^run {min(fail)}$"):
        list(majorana._map_runs(fn, range(40)))
    assert fn.live == 0 and fn.started <= min(fail) + 3


def test_an_early_exit_leaves_no_run_pending(monkeypatch):
    monkeypatch.setattr(majorana, "_WORKERS", 2)
    fn = Runs()
    results = majorana._map_runs(fn, range(40))
    assert [next(results), next(results)] == [0, 1]
    deadline = time.monotonic() + 10
    while fn.started < 3 and time.monotonic() < deadline:  # run 2 starts on the pool
        time.sleep(0.0005)
    assert fn.started == 3
    results.close()
    assert fn.live == 0 and fn.started == 3


@pytest.mark.parametrize(
    "env, workers",
    [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"MKL_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "1"}, 1),
    ],
)
def test_the_worker_count_is_the_cpus_left_by_blas(monkeypatch, env, workers):
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert majorana._worker_count() == workers


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_drops_the_pool(monkeypatch):
    monkeypatch.setattr(majorana, "_WORKERS", 2)
    u = gaussians(7, 17)[1]
    want = rotation_bytes(u[None], 7)
    assert majorana._pool.cache_info().currsize >= 1
    pid = os.fork()
    if pid == 0:  # the child reports through its exit code only
        code = 1
        try:
            dropped = majorana._pool.cache_info().currsize == 0
            code = 0 if dropped and rotation_bytes(u[None], 7) == want else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
