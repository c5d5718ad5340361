"""The circuit backends and the batched rotation kernel against direct references.

The references below follow the definitions one dense operator at a time:
a gate's rotation is read off tr(c_nu u c_mu u^dag) / 2^n one mu at a time,
the compact route multiplies full 2n x 2n embedded gate rotations, and the
dense route multiplies kron-embedded gates. Rotations and operators must
agree within 1e-12, and accept/refuse decisions must be identical, also on
gates perturbed by expm(i eps H) across the tolerance edge.
"""

import numpy as np
import pytest

from matchgates import (
    build_G,
    build_J,
    circuit_to_operator,
    circuit_to_rotation,
    extract_rotation,
    jw_majorana,
    jw_set,
    named_gate,
    parity_of,
    random_fermionic,
    random_state,
    simulate_protocol,
)
from matchgates import majorana, teleport
from matchgates.circuits import CircuitIR, GateApp, NotGaussianError, build_CnZ, gate_rotation
from matchgates.linalg import DEFAULT_TOL, kron_all, n_qubits_of, norm_max
from matchgates.sampling import haar_unitary, random_matchgate_blocks, random_matchgate_circuit

EPSILONS = (0.0, 1e-11, 1e-10, 1e-9, 1e-8)
ONE_QUBIT = (("X", ()), ("Y", ()), ("Z", ()), ("I", ()), ("RZ", (0.7,)), ("P", (1.9,)))
TWO_QUBIT = ("FSWAP", "GHH")


def reference_rotation(u, tol=DEFAULT_TOL):
    """Rotation of u by one dense conjugation and 2n dense traces per mu, or None."""
    n = n_qubits_of(u)
    stack = np.stack(jw_set(n))
    udag = u.conj().T
    r = np.zeros((2 * n, 2 * n))
    for mu in range(2 * n):
        v = u @ stack[mu] @ udag
        r[mu] = np.einsum("kij,ji->k", stack, v).real / 2**n
        if norm_max(v - np.tensordot(r[mu], stack, axes=1)) > tol.residual:
            return None
    if norm_max(r @ r.T - np.eye(2 * n)) > tol.residual:
        return None
    return r


def reference_compact(circuit, tol=DEFAULT_TOL):
    """Product of the full 2n x 2n rotations of the gates, in time order."""
    n = circuit.n_qubits
    r = np.eye(2 * n)
    for g in circuit.gates:
        local = g.local_matrix()
        par = parity_of(local, tol.residual)
        r_loc = None if par == "none" else reference_rotation(local, tol)
        if r_loc is None:
            raise NotGaussianError(f"gate {g.name or g.kind} @ {g.pos}")
        lo, hi = 2 * (g.pos - 1), 2 * (g.pos - 1 + g.n_wires)
        full = np.eye(2 * n)
        full[lo:hi, lo:hi] = r_loc
        if par == "odd":
            full[hi:, hi:] *= -1
        r = r @ full
    return r


def reference_operator(circuit):
    """Product of the kron-embedded gates, in time order."""
    n = circuit.n_qubits
    u = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        left = np.eye(2 ** (g.pos - 1))
        right = np.eye(2 ** (n - g.pos - g.n_wires + 1))
        u = kron_all(left, g.local_matrix(), right) @ u
    return u


def random_circuit(n, depth, rng):
    """Matchgate circuit mixing even and odd one-qubit gates, named gates and G/J blocks."""
    gates = []
    for _ in range(depth):
        kind = int(rng.integers(4)) if n >= 2 else 0
        if kind == 0:
            name, params = ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))]
            gates.append(GateApp(kind="NAMED", pos=int(rng.integers(1, n + 1)), name=name, params=params))
        elif kind == 1:
            name = TWO_QUBIT[int(rng.integers(len(TWO_QUBIT)))]
            gates.append(GateApp(kind="NAMED", pos=int(rng.integers(1, n)), name=name))
        else:
            gates.append(
                GateApp(kind="GJ"[kind - 2], pos=int(rng.integers(1, n)), blocks=random_matchgate_blocks(rng))
            )
    return CircuitIR(n, tuple(gates))


def perturbed(u, eps, rng):
    """expm(i eps H) u for a random Hermitian H."""
    h = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    w, v = np.linalg.eigh(h + h.conj().T)
    return (v * np.exp(1j * eps * w)) @ v.conj().T @ u


@pytest.mark.parametrize("n", [2, 5, 12])
def test_compact_route_matches_embedded_product(n):
    rng = np.random.default_rng(n)
    for depth in (1, 7, 60):
        circ = random_circuit(n, depth, rng)
        assert np.abs(circuit_to_rotation(circ) - reference_compact(circ)).max() <= 1e-12


def test_compact_route_odd_gates_flip_the_tail():
    circ = CircuitIR(
        4,
        (
            GateApp(kind="NAMED", pos=2, name="X"),
            GateApp(kind="NAMED", pos=3, name="Y"),
            GateApp(kind="J", pos=1, blocks=random_matchgate_blocks(np.random.default_rng(3))),
        ),
    )
    r = circuit_to_rotation(circ)
    assert np.abs(r - reference_compact(circ)).max() <= 1e-12
    assert np.linalg.det(r) == pytest.approx(-1.0)
    for g in circ.gates:
        one = CircuitIR(4, (g,))
        assert np.abs(gate_rotation(g, 4) - reference_compact(one)).max() <= 1e-12


def test_compact_route_across_chunks(monkeypatch):
    rng = np.random.default_rng(11)
    circ = random_circuit(6, 40, rng)
    want = reference_compact(circ)
    # 4x4 gates: one rotation row, three rows, or three whole gates per chunk
    for limit in (16, 48, 200):
        monkeypatch.setattr(majorana, "CHUNK_ENTRIES", limit)
        assert np.abs(circuit_to_rotation(circ) - want).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 6])
def test_dense_route_matches_kron_product(n):
    rng = np.random.default_rng(n)
    for depth in (0, 1, 25):
        circ = random_circuit(n, depth, rng)
        assert np.abs(circuit_to_operator(circ) - reference_operator(circ)).max() <= 1e-12


def test_dense_route_takes_freeform_gates():
    gates = (
        GateApp(kind="NAMED", pos=2, name="H", freeform=True),
        GateApp(kind="NAMED", pos=1, name="CZ", freeform=True),
        GateApp(kind="NAMED", pos=2, name="SWAP", freeform=True),
    )
    circ = CircuitIR(3, gates, allow_freeform=True)
    assert np.abs(circuit_to_operator(circ) - reference_operator(circ)).max() <= 1e-12


def rotation_cases(rng):
    cases = [named_gate("SWAP"), named_gate("FSWAP"), named_gate("CZ"), build_CnZ(3)]
    for n in (1, 2, 3, 4):
        cases.append(circuit_to_operator(random_circuit(n, 8, rng)))
        cases.append(jw_majorana(n, int(rng.integers(1, 2 * n + 1))))
        cases.append(random_fermionic(n, rng, "odd"))
        cases.append(haar_unitary(2**n, rng))
    cases.append(build_J(*random_matchgate_blocks(rng)))
    return cases


@pytest.mark.parametrize("eps", EPSILONS)
def test_extract_rotation_matches_per_mu_loop(eps):
    rng = np.random.default_rng(int(eps * 1e12) + 1)
    answers = []
    for u in rotation_cases(rng):
        u = perturbed(u, eps, rng)
        want, got = reference_rotation(u), extract_rotation(u)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.abs(got - want).max() <= 1e-12
        answers.append(got is not None)
    if eps <= 1e-11:
        assert any(answers) and not all(answers)


def test_extract_rotation_one_conjugate_per_chunk():
    # at n = 8 one conjugate fills CHUNK_ENTRIES, so each mu is its own chunk
    assert 4**8 == majorana.CHUNK_ENTRIES
    rng = np.random.default_rng(8)
    gaussian = circuit_to_operator(random_matchgate_circuit(8, 10, rng))
    for u in (gaussian, jw_majorana(8, 9) @ gaussian):
        want = reference_rotation(u)
        assert want is not None
        assert np.abs(extract_rotation(u) - want).max() <= 1e-12
    assert extract_rotation(random_fermionic(8, rng, "even")) is None


def test_not_gaussian_error_names_directly_built_gate():
    circ = CircuitIR(3, (GateApp(kind="NAMED", pos=2, name="SWAP"),))
    with pytest.raises(NotGaussianError) as err:
        circuit_to_rotation(circ)
    assert str(err.value) == "gate SWAP @ 2 does not act linearly on Majorana operators"


def test_not_gaussian_error_names_first_failing_gate():
    # the two-qubit failure comes first in time, though one-qubit gates are stacked first
    gates = (
        GateApp(kind="NAMED", pos=1, name="FSWAP"),
        GateApp(kind="G", pos=2, blocks=(np.eye(2), named_gate("X"))),
        GateApp(kind="NAMED", pos=1, name="H"),
        GateApp(kind="NAMED", pos=1, name="CZ"),
    )
    with pytest.raises(NotGaussianError) as err:
        circuit_to_rotation(CircuitIR(3, gates))
    assert str(err.value) == "gate G @ 2 does not act linearly on Majorana operators"
    with pytest.raises(NotGaussianError) as err:
        circuit_to_rotation(CircuitIR(3, gates[2:]))
    assert str(err.value) == "gate H @ 1 does not act linearly on Majorana operators"


@pytest.mark.parametrize(
    "gate, message",
    [
        (GateApp(kind="NAMED", pos=-1, name="RZ", params=(0.7,)), "wire -1 out of range for 3 qubits"),
        (GateApp(kind="NAMED", pos=0, name="X"), "wire 0 out of range for 3 qubits"),
        (GateApp(kind="NAMED", pos=4, name="Z"), "wire 4 out of range for 3 qubits"),
        (GateApp(kind="NAMED", pos=0, name="FSWAP"), r"wire pair \(0,1\) out of range for 3 qubits"),
        (GateApp(kind="NAMED", pos=3, name="GHH"), r"wire pair \(3,4\) out of range for 3 qubits"),
    ],
)
def test_both_routes_refuse_out_of_range_wires(gate, message):
    # the bad gate comes last: wires are checked before any gate is applied
    circ = CircuitIR(3, (GateApp(kind="NAMED", pos=1, name="GHH"), gate))
    with pytest.raises(ValueError, match=message):
        circuit_to_rotation(circ)
    with pytest.raises(ValueError, match=message):
        circuit_to_operator(circ)
    with pytest.raises(ValueError, match=message):
        gate_rotation(gate, 3)


def test_dense_route_refuses_past_qubit_limit():
    circ = CircuitIR(16, (GateApp(kind="NAMED", pos=1, name="X"),))
    with pytest.raises(ValueError, match=r"circuit operator would act on 16 qubits \(limit 15\)"):
        circuit_to_operator(circ)


def test_teleportation_builds_the_bell_network_once(monkeypatch):
    calls = []

    def counting(circuit):
        calls.append(circuit.n_qubits)
        return circuit_to_operator(circuit)

    monkeypatch.setattr(teleport, "circuit_to_operator", counting)
    teleport._network.cache_clear()
    rng = np.random.default_rng(2)
    u = build_G(*random_matchgate_blocks(rng))
    for _ in range(2):
        transcript = simulate_protocol(u, random_state(2, rng))
        assert transcript.max_residual < DEFAULT_TOL.residual
    assert calls == [4]

