"""The rotation kernel's block route against its dense route.

From BLOCK_ROTATION_QUBITS qubits on, a stack of finite operators that each
have one parity half exactly zero is conjugated as parity-block pairs: only
the two nonzero blocks of each U c_mu U^dag are formed, every entry with the
whole 2^n-term sum of the dense GEMM. So (R, ok) must be the same bytes on
both routes, the partial R of an early exit included, on one worker and on
two. The dense route is forced by raising the threshold. Inputs that are
not exactly graded, and every n below the threshold, take the dense route.
"""

import warnings

import numpy as np
import pytest

from matchgates import extract_rotation, jw_majorana, parse_circuit, random_fermionic
from matchgates import majorana
from matchgates.circuits import circuit_to_operator
from matchgates.linalg import DEFAULT_TOL
from matchgates.sampling import random_matchgate_circuit

THRESHOLD = majorana.BLOCK_ROTATION_QUBITS


def gaussians(n, seed):
    """A matchgate circuit's operator, c_1 times it, and phased copies of both."""
    rng = np.random.default_rng(seed)
    even = circuit_to_operator(random_matchgate_circuit(n, 3 * n, rng))
    odd = jw_majorana(n, 1) @ even
    return [even, odd, np.exp(0.7j) * even, np.exp(-2.1j) * odd]


def real_gaussian(n, seed):
    """A float64 matchgate circuit operator: real G blocks and fermionic swaps."""
    rng = np.random.default_rng(seed)
    lines = [f"qubits {n}"]
    for _ in range(2 * n):
        k = int(rng.integers(1, n))
        a, b = rng.uniform(-3, 3, 2).tolist()
        lines += [f"G RY({a!r}) RY({b!r}) @ {k}", f"FSWAP @ {int(rng.integers(1, n))}"]
    u = circuit_to_operator(parse_circuit("\n".join(lines) + "\n"))
    assert not u.imag.any()
    return u.real.copy()


class Spy:
    """Counts the calls of both conjugation kernels of the rotation runs."""

    def __init__(self, monkeypatch):
        self.calls = {"block": 0, "dense": 0}
        for route, name in (("block", "_block_conjugates"), ("dense", "_conjugates")):
            kernel = getattr(majorana, name)
            monkeypatch.setattr(majorana, name, self._counting(route, kernel))

    def _counting(self, route, kernel):
        def counting(*args):
            self.calls[route] += 1
            return kernel(*args)

        return counting


def both_routes(monkeypatch, ops, n):
    """(R, ok) bytes of _rotations on the block route and on the dense route,
    each on one worker and on two, after checking that each route ran; the
    threshold is left as it was."""
    out = {}
    for route, threshold in (("dense", 99), ("block", THRESHOLD)):
        monkeypatch.setattr(majorana, "BLOCK_ROTATION_QUBITS", threshold)
        spy = Spy(monkeypatch)
        for workers in (1, 2):
            monkeypatch.setattr(majorana, "_WORKERS", workers)
            out[route, workers] = [a.tobytes() for a in majorana._rotations(ops, n, DEFAULT_TOL)]
        other = "dense" if route == "block" else "block"
        assert spy.calls[route] > 0 and spy.calls[other] == 0
    return out


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_gaussian_stacks_are_the_same_bits_on_both_routes(monkeypatch, n):
    ops = gaussians(n, 90 + n)
    # the float64 gate alone, so that its stack stays float64
    stacks = [np.stack(ops[:2])] if n == 9 else [np.stack(ops), real_gaussian(n, n)[None]]
    for stack in stacks:
        assert majorana._graded(stack, n)
        out = both_routes(monkeypatch, stack, n)
        assert len(set(map(tuple, out.values()))) == 1
        assert np.frombuffer(out["block", 1][1], dtype=bool).all()


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_a_failing_graded_gate_leaves_the_same_partial_rotation(monkeypatch, n):
    rng = np.random.default_rng(60 + n)
    for parity in ("even", "odd"):
        u = random_fermionic(n, rng, parity)
        out = both_routes(monkeypatch, u[None], n)
        assert len(set(map(tuple, out.values()))) == 1
        assert np.frombuffer(out["block", 1][1], dtype=bool).tolist() == [False]
        if n > 6:  # the early exit after the first of several runs: only its rows are written
            r = np.frombuffer(out["block", 1][0]).reshape(2 * n, 2 * n)
            assert r[0].any() and not r[-1].any()


def test_a_stack_of_both_parities_and_a_failing_gate_is_the_same_bits(monkeypatch):
    n = 7
    rng = np.random.default_rng(77)
    ops = np.stack([*gaussians(n, 7)[:2], random_fermionic(n, rng, "odd"), random_fermionic(n, rng, "even")])
    out = both_routes(monkeypatch, ops, n)
    assert len(set(map(tuple, out.values()))) == 1
    assert np.frombuffer(out["block", 1][1], dtype=bool).tolist() == [True, True, False, False]


@pytest.mark.parametrize("n", [6, 7])
def test_parity_block_pairs_are_the_dense_conjugates_nonzero_blocks(n):
    table = majorana._parity_blocks(n)
    for u in gaussians(n, n)[:2] + [random_fermionic(n, np.random.default_rng(n), "odd")]:
        parents = u[None]
        adjoints = majorana._block_adjoints(parents, n)
        for mus in (slice(0, 1), slice(1, 5), slice(0, 2 * n)):
            dense = majorana._conjugates(parents, n, mus).reshape(-1, 4**n)
            pairs = majorana._block_conjugates(parents, n, mus, adjoints)
            want = dense[:, table.entries[1].reshape(2, -1)]
            assert pairs.shape == want.shape and pairs.tobytes() == np.ascontiguousarray(want).tobytes()
            assert not dense[:, table.entries[0].ravel()].any()


def _kicked(u, rng):
    return u + 1e-13 * rng.standard_normal(u.shape)


def _tiny(u):
    """u with one 1e-300 entry in its zero parity half."""
    v = u.copy()
    half = 1 if majorana._zero_half(u, len(u).bit_length() - 1, 1) else 0
    v.flat[majorana._parity_blocks(len(u).bit_length() - 1).entries[half].flat[5]] = 1e-300
    return v


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _tiny(gaussians(6, 1)[0]), id="tiny entry, even"),
        pytest.param(lambda: _tiny(gaussians(6, 1)[1]), id="tiny entry, odd"),
        pytest.param(lambda: _kicked(gaussians(6, 2)[1], np.random.default_rng(2)), id="1e-13 kick"),
        pytest.param(lambda: gaussians(5, 3)[0], id="five qubits, even"),
        pytest.param(lambda: gaussians(5, 3)[1], id="five qubits, odd"),
    ],
)
def test_an_input_that_is_not_exactly_graded_takes_the_dense_route(monkeypatch, make):
    u = make()
    spy = Spy(monkeypatch)
    r = extract_rotation(u)
    assert spy.calls["block"] == 0 and spy.calls["dense"] > 0
    assert r is not None  # the kick and the tiny entry are far below the tolerance


def test_a_graded_stack_with_one_ungraded_gate_takes_the_dense_route(monkeypatch):
    ops = gaussians(6, 4)
    ops = np.stack([ops[0], _tiny(ops[1])])
    assert not majorana._graded(ops, 6) and majorana._graded(ops[:1], 6)
    spy = Spy(monkeypatch)
    majorana._rotations(ops, 6, DEFAULT_TOL)
    assert spy.calls["block"] == 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_extract_rotation_refuses_an_entry_that_is_not_finite(bad):
    for n in (2, 6):
        u = np.eye(2**n, dtype=complex)
        u[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^operator has an entry that is not finite$"):
                extract_rotation(u)
