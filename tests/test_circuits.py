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
    CircuitIR,
    GateApp,
    NotGaussianError,
    build_CnZ,
    build_bn,
    circuit_to_text,
    lex_token,
    named_token,
    parse_angle,
)
from matchgates.linalg import PAULI_Y, PAULI_Z
from matchgates.majorana import parity_of
from reference import basis_state, embed_one_qubit, embed_two_qubit


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
    assert np.allclose(build_J(PAULI_I, PAULI_I), np.kron(PAULI_I, PAULI_X))


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


@pytest.mark.parametrize("token", ["pi/0", "0pi/0", "-3pi/00", "pi/0.0"])
def test_parse_angle_refuses_a_zero_denominator(token):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_angle(token)


def test_zero_denominators_in_circuit_files_carry_line_and_col():
    with pytest.raises(CircuitError, match="zero denominator") as err:
        parse_circuit("qubits 3\nX @ 1\nG I P(pi/0) @ 2\n")
    assert (err.value.line, err.value.col) == (3, 5)
    with pytest.raises(CircuitError, match="zero denominator") as err:
        parse_circuit("qubits 2\n  CPHASE(0pi/0) @ 1\n")
    assert (err.value.line, err.value.col) == (2, 3)


def test_integer_pi_forms_are_reduced_mod_4pi_before_pi_enters():
    # K pi / M and (K mod 4M) pi / M keep the sign and give the same float;
    # below 4M nothing changes, and decimal forms are never reduced.
    for k, m in [(2001, 4), (17, 1), (4 * 2**20 + 1, 2**20), (255, 8), (16, 4)]:
        for sign in ("", "-"):
            assert parse_angle(f"{sign}{k}pi/{m}") == parse_angle(f"{sign}{k % (4 * m)}pi/{m}")
    assert parse_angle("2001pi/4") == np.pi / 4
    assert parse_angle("-15pi/4") == -15 * np.pi / 4
    assert parse_angle("4.5pi") == 4.5 * np.pi
    assert parse_angle("9pi/0.5") == 9 * np.pi / 0.5
    assert np.array_equal(named_gate("CPHASE", (parse_angle("2001pi/4"),)), named_gate("CPHASE", (np.pi / 4,)))
    # 4 pi is a period of every named gate with an angle
    for name in ("P", "RX", "RY", "RZ", "CPHASE"):
        assert np.allclose(named_gate(name, (0.3 + 4 * np.pi,)), named_gate(name, (0.3,)), atol=1e-14)


def test_parse_round_trip():
    text = "qubits 3\nG H H @ 1\nFSWAP @ 2\nRZ(pi/4) @ 3\nG P(pi/2) P(pi/2) @ 2\n"
    circ = parse_circuit(text)
    assert circ.n_qubits == 3
    assert [(g.pos, g.n_wires) for g in circ.gates] == [(1, 2), (2, 2), (3, 1), (2, 2)]
    canonical = circuit_to_text(circ)
    again = parse_circuit(canonical)
    assert circuit_to_text(again) == canonical
    assert np.allclose(circuit_to_operator(again), circuit_to_operator(circ))


CIRCUIT_TEXTS = (
    "qubits 3\nG H H @ 1\nFSWAP @ 2\nRZ(pi/4) @ 3\nG P(pi/2) P(pi/2) @ 2\n",
    "qubits 4\nJ rx(pi/3) RX(-pi/3) @ 2\nGHH @ 3\nX @ 4\nG RX(0.3) RY(1.1) @ 1\n",
    "qubits 2\nallow freeform\nCPHASE(pi/2) @ 1\nH @ 2\ncz @ 1\nG I X @ 1\n",
)


@pytest.mark.parametrize("text", CIRCUIT_TEXTS)
def test_parsed_circuits_compare_and_hash_by_value(text):
    circ, again = parse_circuit(text), parse_circuit(text)
    assert circ == again and hash(circ) == hash(again)
    assert parse_circuit(circuit_to_text(circ)) == circ


def test_gates_with_other_blocks_or_wires_differ():
    gate = GateApp(kind="G", pos=1, blocks=(HADAMARD, HADAMARD))
    twin = GateApp(kind="G", pos=1, blocks=(HADAMARD, HADAMARD))
    assert gate == twin and hash(gate) == hash(twin)
    assert len({gate, twin}) == 1
    others = (
        GateApp(kind="G", pos=2, blocks=(HADAMARD, HADAMARD)),
        GateApp(kind="G", pos=1, blocks=(HADAMARD, PAULI_Z)),
        GateApp(kind="J", pos=1, blocks=(HADAMARD, HADAMARD)),
        GateApp(kind="G", pos=1, blocks=(HADAMARD, HADAMARD), block_names=("H", "H")),
        GateApp(kind="NAMED", pos=1, name="GHH"),
    )
    for other in others:
        assert gate != other
    assert len({gate, *others}) == 1 + len(others)
    assert CircuitIR(3, (gate,)) == CircuitIR(3, (twin,)) != CircuitIR(3, (others[0],))
    assert GateApp(kind="NAMED", pos=1, name="RZ", params=(0.7,)) != GateApp(kind="NAMED", pos=1, name="RZ", params=(0.8,))


def test_parse_cphase_needs_freeform():
    # CPHASE(phi) has det A = e^(i phi) against det B = 1; the parser only
    # admits it under the freeform directive
    with pytest.raises(CircuitError, match="determinant mismatch"):
        parse_circuit("qubits 2\nCPHASE(pi/2) @ 1\n")
    circ = parse_circuit("qubits 2\nallow freeform\nCPHASE(pi/2) @ 1\n")
    assert circ.allow_freeform
    assert np.allclose(circuit_to_operator(circ), named_gate("CPHASE", (np.pi / 2,)))
    with pytest.raises(NotGaussianError, match=r"CPHASE @ 1 has no rotation \(determinant mismatch"):
        circuit_to_rotation(circ)


def test_parse_comments_and_case():
    circ = parse_circuit("QUBITS 2  # header\n# full comment line\n g h h @ 1\n")
    assert len(circ.gates) == 1
    assert circ.gates[0].kind == "G"


def test_parse_errors_carry_line_and_col():
    with pytest.raises(CircuitError, match="line 1"):
        parse_circuit("X @ 1\n")  # gate before header
    with pytest.raises(CircuitError, match="duplicate"):
        parse_circuit("qubits 2\nqubits 2\n")
    with pytest.raises(CircuitError, match="^line 1, col 1: expected: qubits N$"):
        parse_circuit("qubits \u00b2\nX @ 1\n")  # a digit to str.isdigit, not to int()
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


@pytest.mark.parametrize("lead", ["", "  ", "\t"])
def test_a_qubit_count_past_the_integer_digit_limit_is_refused_at_its_column(lead):
    # int() refuses more than 4300 digits with its own error, which named no line
    with pytest.raises(CircuitError) as err:
        parse_circuit(f"{lead}qubits  {'7' * 4301}\nX @ 1\n")
    assert str(err.value) == f"line 1, col {len(lead) + 9}: qubit count has too many digits"
    assert parse_circuit(f"qubits {'0' * 4299}1\nX @ 1\n").n_qubits == 1


def test_a_line_with_no_gate_is_refused_at_the_at_sign():
    with pytest.raises(CircuitError) as err:
        parse_circuit("qubits 2\n  @ 1\n")
    assert str(err.value) == "line 2, col 3: expected a gate before '@'"


@pytest.mark.parametrize(
    "line, gate",
    [
        ("X @ 3", GateApp(kind="NAMED", pos=3, name="X")),
        ("RZ(0.7) @ -1", GateApp(kind="NAMED", pos=-1, name="RZ", params=(0.7,))),
        ("CZ @ 2", GateApp(kind="NAMED", pos=2, name="CZ")),
        ("G H H @ 0", GateApp(kind="G", pos=0, blocks=(HADAMARD, HADAMARD))),
    ],
)
def test_parser_and_circuit_ir_refuse_a_bad_wire_alike(line, gate):
    with pytest.raises(ValueError) as built:
        CircuitIR(2, (gate,))
    with pytest.raises(CircuitError) as parsed:
        parse_circuit(f"qubits 2\n{line}\n")
    assert str(parsed.value) == f"line 2, col 1: {built.value}"


def test_allow_freeform_admits_and_marks():
    circ = parse_circuit("qubits 2\nallow freeform\nH @ 1\nG I X @ 1\n")
    assert circ.allow_freeform
    # the circuit, not each gate, carries the mark; each gate is refused on its own
    for line in ("H @ 1", "G I X @ 1"):
        with pytest.raises(CircuitError, match="add 'allow freeform' to admit it"):
            parse_circuit(f"qubits 2\n{line}\n")
    # and the operator is the expected product
    want = embed_two_qubit(build_G(PAULI_I, PAULI_X), 1, 2) @ embed_one_qubit(HADAMARD, 1, 2)
    assert np.allclose(circuit_to_operator(circ), want)


def _parse_error(text: str) -> str:
    with pytest.raises(CircuitError) as err:
        parse_circuit(text)
    return str(err.value)


def test_a_refused_gate_is_reported_before_a_later_bad_line():
    msg = _parse_error("qubits 2\nG X I @ 1\nQQ @ 1\n")
    assert msg.startswith("line 2, col 1: determinant mismatch: |A| = -1+0j, |B| = 1+0j")
    msg = _parse_error("qubits 2\nH @ 1\nqubits 2\n")
    assert msg == "line 2, col 1: H: mixes parities (not a matchgate; add 'allow freeform' to admit it)"


def test_allow_freeform_covers_only_later_lines():
    msg = _parse_error("qubits 2\nSWAP @ 1\nallow freeform\n")
    assert msg.startswith("line 2, col 1: SWAP: determinant mismatch")
    circ = parse_circuit("qubits 2\nallow freeform\nSWAP @ 1\n")
    assert circ.allow_freeform and circ.gates[0].name == "SWAP"


def test_error_columns_count_tabs_and_em_spaces_as_one_character():
    assert _parse_error("qubits 2\n\tX @ 1 #\u2003\nZ\t\u2003@ a\n") == "line 3, col 6: bad wire 'a'"
    assert _parse_error("qubits 2\n\u2003\tX Y\t@ 1\n") == "line 2, col 5: unexpected token 'Y'"


def test_operator_time_order():
    # first listed gate acts first
    circ = parse_circuit("qubits 1\nX @ 1\nZ @ 1\n")
    assert np.allclose(circuit_to_operator(circ), PAULI_Z @ PAULI_X)


def test_gate_rotation_single_qubit_parity_tail():
    # conjugation by X on wire 1 fixes c1 and flips every later Majorana
    r = circuit_to_rotation(CircuitIR(2, (GateApp(kind="NAMED", pos=1, name="X"),)))
    assert np.allclose(r, np.diag([1.0, -1.0, -1.0, -1.0]))
    r = circuit_to_rotation(CircuitIR(2, (GateApp(kind="NAMED", pos=1, name="Z"),)))
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


ONE_QUBIT_ANGLES = ["0", "pi/2", "-pi/2", "pi", "-pi", "3pi/2", "2pi", "0.3"]


@pytest.mark.parametrize("name", ["I", "X", "Y", "Z", "H", "P", "RX", "RY", "RZ"])
def test_a_one_qubit_gate_is_admitted_by_the_classifiers_parity_rule(name):
    # admission is parity_of's rule on the matrix, not the gate's name: RX(pi) is odd, RX(0.3) mixes
    tokens = [name] if name in "IXYZH" else [f"{name}({a})" for a in ONE_QUBIT_ANGLES]
    for token in tokens:
        matrix = named_token(*lex_token(token))[2]
        fermionic = parity_of(matrix) != "none"
        try:
            parse_circuit(f"qubits 1\n{token} @ 1\n")
        except CircuitError as exc:
            assert not fermionic, token
            assert "mixes parities" in str(exc)
        else:
            assert fermionic, token


def test_an_rx_at_pi_compiles_to_its_rotation():
    r = circuit_to_rotation(parse_circuit("qubits 1\nRX(pi) @ 1\n"))
    assert np.array_equal(r, extract_rotation(named_gate("RX", (np.pi,))))
