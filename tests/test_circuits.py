import numpy as np
import pytest

from matchgates import (
    HADAMARD,
    PAULI_I,
    PAULI_X,
    build_F,
    build_G,
    build_J,
    circuit_to_operator,
    circuit_to_rotation,
    extract_rotation,
    jw_majorana,
    named_gate,
    parse_circuit,
    phase_gate,
)
from matchgates.circuits import (
    CircuitError,
    GateApp,
    NotGaussianError,
    build_CnZ,
    build_bn,
    circuit_to_text,
    gate_rotation,
    parse_angle,
    pattern_weight,
)
from matchgates.linalg import PAULI_Y, PAULI_Z, basis_state, embed_one_qubit, embed_two_qubit, kron


def test_build_g_block_layout():
    # A acts on span{|00>, |11>}, B on span{|01>, |10>}, nothing crosses
    u = build_G(HADAMARD, PAULI_X)
    assert np.allclose(u[np.ix_((0, 3), (0, 3))], HADAMARD)
    assert np.allclose(u[np.ix_((1, 2), (1, 2))], PAULI_X)
    assert u[0, 1] == 0 and u[1, 0] == 0 and u[2, 3] == 0 and u[3, 2] == 0


def test_build_g_rejects_nonunitary_blocks():
    with pytest.raises(ValueError):
        build_G(2 * PAULI_I, PAULI_I)


def test_build_j_is_identity_tensor_x_for_identity_blocks():
    assert np.allclose(build_J(PAULI_I, PAULI_I), kron(PAULI_I, PAULI_X))


def test_majoranas_as_odd_gates():
    assert np.allclose(build_J(PAULI_X, PAULI_X), jw_majorana(2, 1))
    assert np.allclose(build_J(PAULI_Y, PAULI_Y), jw_majorana(2, 2))
    assert np.allclose(build_J(PAULI_Z, PAULI_Z), jw_majorana(2, 3))
    assert np.allclose(build_J(-1j * PAULI_I, 1j * PAULI_I), jw_majorana(2, 4))


def test_ghh_columns():
    u = named_gate("GHH")
    s = 1 / np.sqrt(2)
    assert np.allclose(u @ basis_state(2, (0, 0)), s * (basis_state(2, (0, 0)) + basis_state(2, (1, 1))))
    assert np.allclose(u @ basis_state(2, (0, 1)), s * (basis_state(2, (0, 1)) + basis_state(2, (1, 0))))
    assert np.allclose(u @ basis_state(2, (1, 0)), s * (basis_state(2, (0, 1)) - basis_state(2, (1, 0))))
    assert np.allclose(u @ basis_state(2, (1, 1)), s * (basis_state(2, (0, 0)) - basis_state(2, (1, 1))))


def test_fswap_action():
    u = named_gate("FSWAP")
    for x in (0, 1):
        for y in (0, 1):
            got = u @ basis_state(2, (x, y))
            assert np.allclose(got, (-1.0) ** (x * y) * basis_state(2, (y, x)))


def test_named_cphase_is_diagonal():
    u = named_gate("CPHASE", (np.pi / 2,))
    assert np.allclose(u, np.diag([1, 1, 1, 1j]))


def test_named_gate_arity_errors():
    with pytest.raises(ValueError):
        named_gate("CPHASE")
    with pytest.raises(ValueError):
        named_gate("X", (0.3,))
    with pytest.raises(ValueError):
        named_gate("QQ")


def test_pattern_gates():
    f = build_F((1, None, 1))
    assert np.allclose(f, np.diag([1, 1, 1, 1, 1, -1, 1, -1]))
    assert pattern_weight((1, None, 1)) == 2
    assert np.allclose(build_CnZ(2), named_gate("CZ"))
    # all-wildcard pattern flips everything
    assert np.allclose(build_F((None, None)), -np.eye(4))
    with pytest.raises(ValueError):
        build_F((2, 1))


def test_pattern_gate_laws():
    # conjugating by X on a constrained wire flips that pattern bit
    f = build_F((1, None, 1))
    x1 = embed_one_qubit(PAULI_X, 1, 3)
    assert np.allclose(x1 @ f @ x1, build_F((0, None, 1)))
    x2 = embed_one_qubit(PAULI_X, 2, 3)
    assert np.allclose(x2 @ f @ x2, f)
    # complementary patterns multiply to the coarser one
    assert np.allclose(build_F((1, None, 1)) @ build_F((0, None, 1)), build_F((None, None, 1)))


def test_parse_angle_forms():
    assert parse_angle("pi") == np.pi
    assert parse_angle("-pi/4") == -np.pi / 4
    assert parse_angle("3pi/2") == 3 * np.pi / 2
    assert parse_angle("0.25") == 0.25
    assert parse_angle("2.5pi") == 2.5 * np.pi
    with pytest.raises(ValueError):
        parse_angle("two")


def test_parse_round_trip():
    text = "qubits 3\nG H H @ 1\nFSWAP @ 2\nRZ(pi/4) @ 3\nG P(pi/2) P(pi/2) @ 2\n"
    circ = parse_circuit(text)
    assert circ.n_qubits == 3
    assert [g.wires() for g in circ.gates] == [(1, 2), (2, 3), (3,), (2, 3)]
    canonical = circuit_to_text(circ)
    again = parse_circuit(canonical)
    assert circuit_to_text(again) == canonical
    assert np.allclose(circuit_to_operator(again), circuit_to_operator(circ))


def test_parse_cphase_needs_freeform():
    # CPHASE(phi) has det A = e^(i phi) against det B = 1; the parser only
    # admits it under the freeform directive
    with pytest.raises(CircuitError, match="determinant mismatch"):
        parse_circuit("qubits 2\nCPHASE(pi/2) @ 1\n")
    circ = parse_circuit("qubits 2\nallow freeform\nCPHASE(pi/2) @ 1\n")
    assert circ.gates[0].freeform
    assert np.allclose(circuit_to_operator(circ), named_gate("CPHASE", (np.pi / 2,)))


def test_parse_comments_and_case():
    circ = parse_circuit("QUBITS 2  # header\n# full comment line\n g h h @ 1\n")
    assert len(circ.gates) == 1
    assert circ.gates[0].kind == "G"


def test_parse_errors_carry_line_and_col():
    with pytest.raises(CircuitError, match="line 1"):
        parse_circuit("X @ 1\n")  # gate before header
    with pytest.raises(CircuitError, match="duplicate"):
        parse_circuit("qubits 2\nqubits 2\n")
    with pytest.raises(CircuitError, match="determinant mismatch"):
        parse_circuit("qubits 2\nG I X @ 1\n")
    err = None
    try:
        parse_circuit("qubits 2\nG I X @ 1\n")
    except CircuitError as exc:
        err = exc
    assert err.line == 2 and err.col == 1
    with pytest.raises(CircuitError, match="mixes parities"):
        parse_circuit("qubits 2\nH @ 1\n")
    with pytest.raises(CircuitError, match="nearest-neighbour"):
        parse_circuit("qubits 2\nCZ @ 2\n")
    with pytest.raises(CircuitError, match="out of range"):
        parse_circuit("qubits 2\nX @ 3\n")
    with pytest.raises(CircuitError, match="@"):
        parse_circuit("qubits 2\nX\n")
    with pytest.raises(CircuitError, match="parameter"):
        parse_circuit("qubits 2\nCPHASE @ 1\n")
    with pytest.raises(CircuitError, match="unknown gate"):
        parse_circuit("qubits 2\nQQ @ 1\n")
    with pytest.raises(CircuitError, match="missing qubits header"):
        parse_circuit("# nothing\n")


def test_allow_freeform_admits_and_marks():
    circ = parse_circuit("qubits 2\nallow freeform\nH @ 1\nG I X @ 1\n")
    assert circ.allow_freeform
    assert all(g.freeform for g in circ.gates)
    # and the operator is the expected product
    want = embed_two_qubit(build_G(PAULI_I, PAULI_X), 1, 2) @ embed_one_qubit(HADAMARD, 1, 2)
    assert np.allclose(circuit_to_operator(circ), want)


def test_operator_time_order():
    # first listed gate acts first
    circ = parse_circuit("qubits 1\nX @ 1\nZ @ 1\n")
    assert np.allclose(circuit_to_operator(circ), PAULI_Z @ PAULI_X)


def test_gate_rotation_single_qubit_parity_tail():
    # conjugation by X on wire 1 fixes c1 and flips every later Majorana
    r = gate_rotation(GateApp(kind="NAMED", pos=1, name="X"), 2)
    assert np.allclose(r, np.diag([1.0, -1.0, -1.0, -1.0]))
    r = gate_rotation(GateApp(kind="NAMED", pos=1, name="Z"), 2)
    assert np.allclose(r, np.diag([-1.0, -1.0, 1.0, 1.0]))


def test_rotation_backends_agree_with_odd_gates():
    text = "qubits 3\nG H H @ 1\nX @ 2\nFSWAP @ 2\nZ @ 1\nRZ(pi/3) @ 3\nJ X X @ 2\n"
    circ = parse_circuit(text)
    u = circuit_to_operator(circ)
    dense = extract_rotation(u)
    assert dense is not None
    compact = circuit_to_rotation(circ)
    assert np.allclose(dense, compact, atol=1e-12)
    assert np.allclose(compact @ compact.T, np.eye(6), atol=1e-12)


def test_rotation_refuses_freeform():
    circ = parse_circuit("qubits 2\nallow freeform\nH @ 1\n")
    with pytest.raises(NotGaussianError):
        circuit_to_rotation(circ)


def test_circuit_text_requires_named_blocks():
    circ = parse_circuit("qubits 2\nG H H @ 1\n")
    assert circuit_to_text(circ).splitlines()[1] == "G H H @ 1"


def test_build_bn_layout():
    b1 = build_bn(1)
    assert [(g.name, g.pos) for g in b1.gates] == [("GHH", 1)]
    b2 = build_bn(2)
    assert [(g.name, g.pos) for g in b2.gates] == [("GHH", 1), ("GHH", 3), ("FSWAP", 2)]
    b3 = build_bn(3)
    assert [(g.name, g.pos) for g in b3.gates] == [
        ("GHH", 1),
        ("GHH", 3),
        ("GHH", 5),
        ("FSWAP", 2),
        ("FSWAP", 4),
        ("FSWAP", 3),
    ]


def test_build_bn_state():
    # B |0000> = (1/2) sum_{c,d} (-1)^(cd) |c,d,c,d>
    psi = circuit_to_operator(build_bn(2)) @ basis_state(4, 0)
    want = np.zeros(16, dtype=complex)
    for c in (0, 1):
        for d in (0, 1):
            want += 0.5 * (-1.0) ** (c * d) * basis_state(4, (c, d, c, d))
    assert np.allclose(psi, want)


def test_build_bn_matches_explicit_embedding():
    b2 = circuit_to_operator(build_bn(2))
    ghh = named_gate("GHH")
    fswap = named_gate("FSWAP")
    want = (
        embed_two_qubit(fswap, 2, 4)
        @ embed_two_qubit(ghh, 3, 4)
        @ embed_two_qubit(ghh, 1, 4)
    )
    assert np.allclose(b2, want)


def test_phase_gate():
    assert np.allclose(phase_gate(np.pi), PAULI_Z)
