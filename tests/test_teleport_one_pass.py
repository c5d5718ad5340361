"""The one-pass teleportation route against an in-test copy of the route it
replaced, and the gathered state Lambda test against the dense one.

The old route rebuilt the dense Bell-pair network B_n on every call, formed
the magic state with the 4^n x 4^n kron(1, U), and took one np.linalg.norm
per branch row and per residual. The new route caches B_n^dag per n, applies
U to the low wires of B_n|0...0> by one product and takes every norm and
phase in one batched pass; it must give the same transcript to the bit. From
n = 6 it applies B_n^dag as gates instead, which must agree with the dense
network within 1e-12 wherever both can run.
"""

import json
import tracemalloc

import numpy as np
import pytest

from matchgates import (
    is_gaussian_state_lambda,
    jw_majorana,
    jw_set,
    magic_state,
    named_gate,
    random_fermionic,
    random_state,
    simulate_protocol,
)
from matchgates import selftest, teleport
from matchgates.circuits import CircuitIR, GateApp, apply_circuit, build_CnZ, build_bn, circuit_to_operator
from matchgates.hierarchy import _state_lambda_norm
from matchgates.linalg import DEFAULT_TOL, n_qubits_of
from matchgates.majorana import CHUNK_ENTRIES, _word_matrix, majorana_words
from matchgates.sampling import random_matchgate_circuit
from reference import basis_state, state_parity

FIELDS = ("z", "probability", "raw_state", "corrected", "residual_vs_target", "phase")


def _dense_magic_psi(u):
    """Magic state by the old route: a fresh dense B_n and kron(1, U)."""
    n = n_qubits_of(u)
    bn = circuit_to_operator(build_bn(n))
    zero = np.zeros(4**n, dtype=complex)
    zero[0] = 1.0
    return bn, np.kron(np.eye(2**n, dtype=complex), u) @ (bn @ zero)


def _dense_protocol(u, psi_in):
    """Branches of simulate_protocol by the old route, as tuples in FIELDS order."""
    n = n_qubits_of(u)
    bn, psi = _dense_magic_psi(u)
    rows = bn.conj().T @ np.kron(psi_in, psi).reshape(4**n, 2**n)
    target = u @ psi_in
    probs = [float(np.linalg.norm(row) ** 2) for row in rows]
    raws = rows / np.sqrt(probs)[:, None]
    corrs = np.concatenate([stack for _, stack in teleport._correction_runs(u, *teleport._byproducts(n)[:2])])
    corrected = (corrs @ raws[:, :, None])[:, :, 0]
    branches = []
    for zi, (prob, raw, out) in enumerate(zip(probs, raws, corrected)):
        residual = float(np.linalg.norm(out - target))
        phase = complex(np.vdot(target, out))
        z = tuple((zi >> (2 * n - 1 - b)) & 1 for b in range(2 * n))
        branches.append((z, prob, raw, out, residual, phase))
    return target, branches


def _gates():
    cases = [
        ("CZ", named_gate("CZ")),
        ("CPHASE(pi/2)", named_gate("CPHASE", (np.pi / 2,))),
        ("SWAP", named_gate("SWAP")),
        ("GHH", named_gate("GHH")),
        ("CNZ(3)", build_CnZ(3)),
        ("c_2 on 3", jw_majorana(3, 2)),
    ]
    for n in (1, 2, 3, 4):
        for parity in ("even", "odd"):
            for seed in range(3):
                rng = np.random.default_rng(100 * n + 10 * (parity == "odd") + seed)
                cases.append((f"fermionic n={n} {parity} seed={seed}", random_fermionic(n, rng, parity)))
    return cases


GATES = _gates()


@pytest.mark.parametrize("name, u", GATES, ids=[name for name, _ in GATES])
def test_transcript_matches_the_dense_route_to_the_bit(name, u):
    n = n_qubits_of(u)
    psi_in = random_state(n, np.random.default_rng(len(name)))
    target, expected = _dense_protocol(u, psi_in)
    transcript = simulate_protocol(u, psi_in)
    assert np.array_equal(transcript.target_state, target)
    assert len(transcript.branches) == len(expected) == 4**n
    for branch, want in zip(transcript.branches, expected):
        for field, value in zip(FIELDS, want):
            got = getattr(branch, field)
            assert type(got) is type(value), field
            assert np.array_equal(got, value), (field, branch.z)


@pytest.mark.parametrize("name, u", GATES, ids=[name for name, _ in GATES])
def test_magic_state_matches_the_kron_route_to_the_bit(name, u):
    _, psi = _dense_magic_psi(u)
    magic = magic_state(u)
    assert np.array_equal(magic.psi, psi)
    assert magic.parity == state_parity(psi)


def test_vanishing_probability_names_the_first_failing_branch(monkeypatch):
    bn_dag, b0 = teleport._network(1)
    broken = bn_dag.copy()
    broken[[2, 1]] = 0.0  # rows 01 and 10 of B^dag vanish
    monkeypatch.setattr(teleport, "_network", lambda n: (broken, b0))
    u = named_gate("X")
    with pytest.raises(ValueError, match=r"^branch 01 has vanishing probability; protocol broken$"):
        simulate_protocol(u, random_state(1, np.random.default_rng(0)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_network_is_cached_read_only_and_exact(n):
    bn_dag, b0 = teleport._network(n)
    assert teleport._network(n)[0] is bn_dag
    for a in (bn_dag, b0):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    dense, _ = _dense_magic_psi(np.eye(2**n, dtype=complex))
    assert np.array_equal(bn_dag, dense.conj().T)
    assert np.array_equal(b0, dense[:, 0])


def _structured_gates(n):
    """CnZ, the first and last Majorana, the identity and an FSWAP chain on n qubits."""
    gates = [
        (f"CNZ({n})", build_CnZ(n)),
        (f"c_1 on {n}", jw_majorana(n, 1)),
        (f"c_{2 * n} on {n}", jw_majorana(n, 2 * n)),
        (f"identity on {n}", np.eye(2**n, dtype=complex)),
    ]
    if n > 1:
        chain = CircuitIR(n, tuple(GateApp(kind="NAMED", pos=p, name="FSWAP") for p in range(1, n)))
        gates.append((f"FSWAP chain on {n}", circuit_to_operator(chain)))
    return gates


STRUCTURED = [
    (name, u, index)
    for n in range(1, 6)
    for name, u in _structured_gates(n)
    for index in sorted({0, 2 ** (n - 1), 2**n - 1})
]


@pytest.mark.parametrize("name, u, index", STRUCTURED, ids=[f"{name} |{i}>" for name, _, i in STRUCTURED])
def test_transcript_json_matches_the_dense_route_to_the_bit(name, u, index):
    # json.dumps tells -0.0 from 0.0, which np.array_equal does not
    n = n_qubits_of(u)
    psi_in = basis_state(n, index)
    target, expected = _dense_protocol(u, psi_in)
    dense = teleport.TeleportTranscript(n, psi_in, target, tuple(teleport.Branch(*b) for b in expected))
    got = simulate_protocol(u, psi_in).to_json(include_states=True)
    assert json.dumps(got) == json.dumps(dense.to_json(include_states=True))


@pytest.fixture
def gate_route(monkeypatch):
    """The Bell network applied as gates at every n, with the cache cleared around it."""
    monkeypatch.setattr(teleport, "DENSE_NETWORK_QUBITS", 0)
    teleport._network.cache_clear()
    yield
    teleport._network.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gate_route_matches_the_dense_network(n, gate_route):
    bn = circuit_to_operator(build_bn(n))
    joint = random_state(3 * n, np.random.default_rng(n)).reshape(4**n, 2**n)
    assert teleport._network(n)[0] is None
    assert np.abs(apply_circuit(build_bn(n), joint, adjoint=True) - bn.conj().T @ joint).max() <= 1e-12
    assert np.abs(teleport._network(n)[1] - bn[:, 0]).max() <= 1e-12
    assert np.abs(apply_circuit(build_bn(n), joint) - bn @ joint).max() <= 1e-12


def test_gate_route_reads_one_cached_network(gate_route):
    # simulate_protocol rebuilt build_bn(n) on every call of the gate route
    u, psi_in = build_CnZ(2), random_state(2, np.random.default_rng(4))
    simulate_protocol(u, psi_in)
    before = build_bn.cache_info()
    simulate_protocol(u, psi_in)
    after = build_bn.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


@pytest.mark.parametrize("name, u", GATES[::4], ids=[name for name, _ in GATES[::4]])
def test_gate_route_transcript_matches_the_dense_route(name, u, gate_route):
    n = n_qubits_of(u)
    psi_in = random_state(n, np.random.default_rng(len(name)))
    _, expected = _dense_protocol(u, psi_in)
    transcript = simulate_protocol(u, psi_in)
    assert teleport._network(n)[0] is None
    for branch, want in zip(transcript.branches, expected, strict=True):
        assert branch.z == want[0]
        for field, value in zip(FIELDS[1:], want[1:]):
            assert np.abs(getattr(branch, field) - value).max() <= 1e-12, (field, branch.z)


def test_six_qubit_protocol_runs_the_gate_route_and_lands_every_branch():
    u = build_CnZ(6)
    rng = np.random.default_rng(6)
    psi_in = random_state(6, rng)
    transcript = simulate_protocol(u, psi_in)
    assert teleport._network(6)[0] is None
    assert len(transcript.branches) == 4**6
    assert transcript.max_residual < DEFAULT_TOL.residual
    assert transcript.max_probability_deviation < 1e-12
    # before correction, branch z holds U K_z |psi>, phase included
    flips, phases, _ = teleport._byproducts(6)
    for zi in rng.choice(4**6, size=16, replace=False):
        branch = transcript.branches[zi]
        want = u @ _word_matrix(int(flips[zi]), phases[zi]) @ psi_in
        assert np.abs(branch.raw_state - want).max() <= 1e-12


def test_protocol_is_refused_past_seven_qubits():
    with pytest.raises(ValueError, match=r"^Bell-pair network would act on 16 qubits \(limit 15\)$"):
        simulate_protocol(build_CnZ(8), basis_state(8, 0))


def test_corrections_are_streamed_in_runs(monkeypatch):
    sizes = []
    kernel = teleport._word_conjugates

    def spy(*args, **kwargs):
        out = kernel(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(teleport, "_word_conjugates", spy)
    simulate_protocol(build_CnZ(5), basis_state(5, 0))
    assert max(sizes) <= CHUNK_ENTRIES and sum(sizes) == 4**5 * 4**5
    sizes.clear()
    teleport.verify_protocol(build_CnZ(3), trials=1)
    assert max(sizes) <= CHUNK_ENTRIES and sum(sizes) == 2 * 4**3 * 4**3


def test_protocol_skips_the_lambda_test_and_magic_state_keeps_it(monkeypatch):
    def refuse(psi, tol=None):
        raise AssertionError("Lambda test ran")

    monkeypatch.setattr(teleport, "_state_lambda_norm", refuse)
    u = named_gate("CZ")
    simulate_protocol(u, random_state(2, np.random.default_rng(1)))
    with pytest.raises(AssertionError, match="Lambda test ran"):
        magic_state(u)


def _dense_lambda_norm(psi):
    """||sum_mu (c_mu psi) (x) (c_mu psi)|| from the dense Jordan-Wigner matrices."""
    acc = np.zeros(len(psi) ** 2, dtype=complex)
    for c in jw_set(n_qubits_of(psi)):
        cpsi = c @ psi
        acc += np.kron(cpsi, cpsi)
    return float(np.linalg.norm(acc))


def _zero(m):
    psi = np.zeros(2**m, dtype=complex)
    psi[0] = 1.0
    return psi


def _lambda_states():
    """(name, state, expected Gaussianity or None when not known a priori)."""
    rng = np.random.default_rng(7)
    states = [
        ("G(H,H)", magic_state(named_gate("GHH")).psi, True),
        ("FSWAP", magic_state(named_gate("FSWAP")).psi, True),
        ("SWAP", magic_state(named_gate("SWAP")).psi, False),
        ("CZ", magic_state(named_gate("CZ")).psi, False),
        ("CNZ(3)", magic_state(build_CnZ(3)).psi, False),
    ]
    for n in (2, 3, 4):
        circuit = circuit_to_operator(random_matchgate_circuit(n, 3 * n, rng))
        states.append((f"matchgate circuit magic m={2 * n}", magic_state(circuit).psi, True))
    for m in (3, 5, 7):
        circuit = circuit_to_operator(random_matchgate_circuit(m, 3 * m, rng))
        states.append((f"matchgate circuit state m={m}", circuit @ _zero(m), True))
    for n in (1, 2, 3, 4):
        u = random_fermionic(n, rng, "odd" if n % 2 else "even")
        states.append((f"Haar fermionic magic m={2 * n}", magic_state(u).psi, None if n == 1 else False))
    for m in (2, 3, 5, 6, 7, 8):
        psi = random_fermionic(m, rng) @ _zero(m)
        states.append((f"Haar fermionic state m={m}", psi, None if m <= 3 else False))
    return states


LAMBDA_STATES = _lambda_states()


@pytest.mark.parametrize("name, psi, gaussian", LAMBDA_STATES, ids=[s[0] for s in LAMBDA_STATES])
def test_gathered_lambda_test_matches_the_dense_one(name, psi, gaussian):
    dense = _dense_lambda_norm(psi)
    gathered = _state_lambda_norm(psi)
    assert abs(gathered - dense) <= 1e-14
    decision = is_gaussian_state_lambda(psi)
    assert decision == (dense < 1e-9)
    if gaussian is not None:
        assert decision is gaussian


def test_state_lambda_test_refuses_past_the_qubit_limit():
    psi = _zero(16)
    with pytest.raises(ValueError, match=r"state Lambda test would act on 16 qubits \(limit 15\)"):
        is_gaussian_state_lambda(psi)


def _whole_product_lambda_norm(psi):
    """||C^T C|| with C^T C formed whole, as the state Lambda test took it before the row blocks."""
    words = majorana_words(n_qubits_of(psi))
    c = words.phase * psi[np.arange(len(psi)) ^ words.flip[:, None]]
    return float(np.linalg.norm(c.T @ c))


def test_state_lambda_norm_never_forms_the_whole_product():
    psi = magic_state(build_CnZ(5)).psi  # 10 qubits: C^T C alone would take 16 MiB
    tracemalloc.start()
    try:
        _state_lambda_norm(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_magic_state_gaussianity_is_unchanged_on_the_selftest_gates():
    seed = selftest.BASE_SEED + 6
    gates = selftest._teleport_gates_n2(seed) + selftest._teleport_gates_n3()
    for name, u in gates + [("FSWAP", named_gate("FSWAP")), ("GHH", named_gate("GHH"))]:
        m = magic_state(u)
        whole = _whole_product_lambda_norm(m.psi)
        # at most 8 qubits: one row block, the same sum as np.linalg.norm to the bit
        assert _state_lambda_norm(m.psi) == whole, name
        assert m.is_gaussian == (whole < DEFAULT_TOL.residual), name


def test_row_blocks_sum_to_the_whole_product_norm():
    rng = np.random.default_rng(11)
    gates = [
        (build_CnZ(5), False),
        (random_fermionic(5, rng, "even"), False),
        (circuit_to_operator(random_matchgate_circuit(5, 15, rng)), True),
    ]
    for u, gaussian in gates:
        m = magic_state(u)
        whole = _whole_product_lambda_norm(m.psi)
        assert abs(_state_lambda_norm(m.psi) - whole) <= 1e-14 * max(whole, 1.0)
        assert m.is_gaussian is gaussian and (whole < DEFAULT_TOL.residual) is gaussian
