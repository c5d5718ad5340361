"""One decision per fact in classify_gate.

Gaussianity is the rotation kernel's verdict and nothing else; the Lambda
test stays an independent check that the classifier never runs. Parity is
decided by one threshold rule, which must give the answers of the former
parity_decompose + norm_max rule on every input, also with mixing entries
just below, at and just above the tolerance. The G/J blocks of a two-qubit
gate are read through the same slot table that builds G and J.
"""

import numpy as np
import pytest

from matchgates import (
    build_F,
    circuit_to_rotation,
    classify_gate,
    is_gaussian_lambda,
    named_gate,
    parity_of,
    random_fermionic,
    random_two_qubit_at_root,
)
from matchgates import circuits, hierarchy, selftest
from matchgates.circuits import CircuitIR, GateApp, NotGaussianError, build_CnZ
from matchgates.hierarchy import two_qubit_decompose
from matchgates.linalg import DEFAULT_TOL, Tolerances, norm_max
from matchgates.majorana import parity_decompose
from test_level_search import EPSILONS, perturbed

TOL = DEFAULT_TOL.residual
PHASES = (1, -1, 1j, -1j)  # |phase * m| == m exactly
MIXING = (np.nextafter(TOL, 0.0), TOL, np.nextafter(TOL, 1.0), 0.5 * TOL, 2 * TOL)


def old_parity(op, tol):
    """The rule parity_of followed before it moved onto the batched kernel."""
    even, odd = parity_decompose(op)
    if norm_max(odd) < tol:
        return "even"
    if norm_max(even) < tol:
        return "odd"
    return "none"


def eps_gate(name, eps):
    """u @ diag(exp(i eps theta)) with theta from default_rng(3)."""
    theta = np.random.default_rng(3).normal(size=4)
    return named_gate(name) @ np.diag(np.exp(1j * eps * theta))


@pytest.mark.parametrize("name", ["GHH", "FSWAP"])
def test_gaussian_bit_follows_the_rotation_off_the_lambda_edge(name):
    # The Lambda commutator sums 2n products and crosses tol.residual here,
    # while the rotation kernel still finds R; the report used to print a
    # rotation next to is_gaussian: false.
    report = classify_gate(eps_gate(name, 3e-10))
    assert report.is_gaussian is True
    assert report.rotation is not None
    assert report.min_level == 2
    assert report.to_json()["is_gaussian"] is True


def _corpus(eps):
    rng = np.random.default_rng(EPSILONS.index(eps))
    gates = [random_two_qubit_at_root(rng, k, odd=odd) for k in (2, 3, 4) for odd in (False, True)]
    gates += [build_F(p) for p in ((1,), (0, 1), (None, 1, 0))]
    gates += [build_CnZ(3)]
    gates += [random_fermionic(n, rng, par) for n in (2, 3) for par in ("even", "odd")]
    gates += [named_gate(g) for g in ("GHH", "FSWAP", "SWAP", "CZ")]
    return [perturbed(u, eps, rng) for u in gates]


@pytest.mark.parametrize("eps", EPSILONS)
def test_gaussian_bit_is_the_rotation_verdict(eps):
    for u in _corpus(eps):
        report = classify_gate(u, k_max=4)
        assert report.is_gaussian == (report.rotation is not None)
        assert report.to_json()["is_gaussian"] == (report.to_json()["rotation"] is not None)
        if eps == 0.0 and report.parity != "none":
            # away from the edge the independent Lambda route agrees
            assert is_gaussian_lambda(u) == report.is_gaussian


def test_classify_never_runs_the_lambda_test(monkeypatch):
    calls = []
    lam = hierarchy.is_gaussian_lambda

    def spy(*args, **kwargs):
        calls.append(args)
        return lam(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "is_gaussian_lambda", spy)
    monkeypatch.setattr(selftest, "is_gaussian_lambda", spy)
    for u in _corpus(0.0):
        classify_gate(u, k_max=4)
    assert calls == []
    assert selftest.criterion_2().passed
    assert len(calls) > 100  # every circuit of criterion 2, then SWAP


def near_threshold_cases(n, rng):
    """Operators whose other-parity part has its largest entry at each of MIXING."""
    dim = 2**n
    rand = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    even, odd = parity_decompose(rand)
    same = parity_decompose(np.ones((dim, dim)))[0] != 0
    cases = [even, odd, np.zeros((dim, dim), dtype=complex)]
    for m in MIXING:
        for base, slots in ((even, ~same), (odd, same)):
            op = base.copy()
            rows, cols = np.nonzero(slots)
            pick = rng.choice(len(rows), size=min(3, len(rows)), replace=False)
            # one entry of modulus m, the others below it
            for j, scale in zip(pick, (1.0, 0.5, 0.25)):
                op[rows[j], cols[j]] = PHASES[int(rng.integers(4))] * (m * scale)
            cases.append(op)
        # both parts at most m: the even test comes first
        cases.append(np.where(same, PHASES[int(rng.integers(4))] * m, 0.5 * m))
    return cases


@pytest.mark.parametrize("n", range(1, 7))
def test_parity_rule_matches_the_old_rule(n):
    rng = np.random.default_rng(40 + n)
    cases = near_threshold_cases(n, rng)
    seen = set()
    for op in cases:
        want = old_parity(op, TOL)
        seen.add(want)
        assert parity_of(op, TOL) == want
        assert hierarchy._all_odd(op[None], n, DEFAULT_TOL) == (want == "odd")
    assert seen == {"even", "odd", "none"}
    stack = np.stack(cases)
    assert hierarchy._all_odd(stack, n, DEFAULT_TOL) == all(old_parity(op, TOL) == "odd" for op in cases)
    odd_only = np.stack([op for op in cases if old_parity(op, TOL) == "odd"])
    assert hierarchy._all_odd(odd_only, n, DEFAULT_TOL)


@pytest.mark.parametrize("w", [1, 2])
def test_circuit_parity_flags_match_the_old_rule(monkeypatch, w):
    # With every local rotation forced to the identity, the flags alone
    # decide: "none" is refused, and an odd gate flips the sign of the
    # Majorana columns to its right.
    monkeypatch.setattr(
        circuits,
        "_rotations",
        lambda stack, w, tol: (np.stack([np.eye(2 * w)] * len(stack)), np.ones(len(stack), dtype=bool)),
    )
    gate = GateApp(kind="NAMED", pos=1, name="Z" if w == 1 else "CZ")
    circuit = CircuitIR(w + 1, (gate,))
    for op in near_threshold_cases(w, np.random.default_rng(60 + w)):
        monkeypatch.setattr(GateApp, "local_matrix", lambda self, op=op: op)
        want = old_parity(op, TOL)
        if want == "none":
            with pytest.raises(NotGaussianError):
                circuit_to_rotation(circuit)
            continue
        r = circuit_to_rotation(circuit)
        sign = -1.0 if want == "odd" else 1.0
        assert np.array_equal(np.diag(r), [1.0] * (2 * w) + [sign, sign])


def test_circuit_parity_flags_use_the_caller_tolerance(monkeypatch):
    monkeypatch.setattr(
        circuits,
        "_rotations",
        lambda stack, w, tol: (np.stack([np.eye(2 * w)] * len(stack)), np.ones(len(stack), dtype=bool)),
    )
    op = np.diag([1.0, -1.0]).astype(complex)
    op[0, 1] = 1e-6
    monkeypatch.setattr(GateApp, "local_matrix", lambda self: op)
    circuit = CircuitIR(2, (GateApp(kind="NAMED", pos=1, name="Z"),))
    with pytest.raises(NotGaussianError):
        circuit_to_rotation(circuit)
    assert np.array_equal(circuit_to_rotation(circuit, Tolerances(residual=1e-5)), np.eye(4))


def old_blocks(u, par):
    if par == "even":
        a = np.array([[u[0, 0], u[0, 3]], [u[3, 0], u[3, 3]]])
        b = np.array([[u[1, 1], u[1, 2]], [u[2, 1], u[2, 2]]])
    else:
        a = np.array([[u[0, 1], u[0, 2]], [u[3, 1], u[3, 2]]])
        b = np.array([[u[1, 0], u[1, 3]], [u[2, 0], u[2, 3]]])
    return a, b


@pytest.mark.parametrize("par", ["even", "odd"])
def test_two_qubit_blocks_match_the_old_indexing(par):
    rng = np.random.default_rng(80)
    gates = [random_fermionic(2, rng, par) for _ in range(5)]
    gates += [random_two_qubit_at_root(rng, k, odd=par == "odd") for k in (2, 3, 5)]
    for u in gates:
        blocks = two_qubit_decompose(u)
        assert blocks.parity == par
        a, b = old_blocks(u, par)
        assert np.array_equal(blocks.a, a) and blocks.a.dtype == a.dtype
        assert np.array_equal(blocks.b, b) and blocks.b.dtype == b.dtype
