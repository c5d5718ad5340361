"""The one gate-token grammar: `mgh --gate` tokens and circuit-file tokens
share a lexer and a named-gate path, and G/J blocks are one-qubit gates."""

import numpy as np
import pytest
from click.testing import CliRunner

from matchgates import (
    PAULI_I,
    build_F,
    build_G,
    build_J,
    circuit_to_operator,
    circuit_to_rotation,
    classify_gate,
    jw_majorana,
    named_gate,
    parse_circuit,
)
from matchgates import circuits
from matchgates.circuits import (
    CircuitError,
    GateApp,
    build_CnZ,
    circuit_to_text,
    lex_token,
    split_args,
)
from matchgates.cli import gate_from_token, main
from matchgates.io import dumps_stable
from matchgates.linalg import is_unitary
from matchgates.sampling import haar_unitary

# Every one-qubit name, with a sample angle for those that take one.
BLOCK_TOKENS = ["I", "X", "Y", "Z", "H", "P(0.3)", "RX(pi/3)", "RY(-1.25)", "RZ(2pi/3)"]
TWO_QUBIT_TOKENS = ["FSWAP", "GHH", "SWAP", "CZ", "CPHASE(0.3)"]


def _err(result):
    return getattr(result, "stderr", "") or result.output


def test_block_tokens_cover_every_one_qubit_name():
    assert {lex_token(t)[0] for t in BLOCK_TOKENS} == set(circuits._ONE_QUBIT)
    assert {lex_token(t)[0] for t in TWO_QUBIT_TOKENS} == set(circuits._TWO_QUBIT)


def test_lexer_splits_on_top_level_commas():
    assert lex_token(" G(P(pi/2), RZ(1)) ") == ("G", "P(pi/2), RZ(1)")
    assert lex_token("SWAP") == ("SWAP", None)
    assert split_args("P(pi/2), RZ(1) ,") == ["P(pi/2)", "RZ(1)"]
    assert split_args(" 1 , *,") == ["1", "*"]
    assert split_args("") == []
    with pytest.raises(ValueError, match="bad gate token"):
        lex_token("G(H,H")
    with pytest.raises(ValueError, match="bad block token"):
        lex_token("H!", "block")


@pytest.mark.parametrize("kind", ["G", "J"])
@pytest.mark.parametrize("a", BLOCK_TOKENS)
@pytest.mark.parametrize("b", BLOCK_TOKENS)
def test_cli_and_circuit_blocks_agree(kind, a, b):
    text = f"qubits 2\nallow freeform\n{kind} {a} {b} @ 1\n"
    want = parse_circuit(text).gates[0].local_matrix()
    assert np.array_equal(gate_from_token(f"{kind}({a},{b})"), want)


@pytest.mark.parametrize("kind", ["G", "J"])
@pytest.mark.parametrize("token", TWO_QUBIT_TOKENS)
def test_two_qubit_blocks_refused_by_both_grammars(kind, token):
    for a, b in ((token, "I"), ("I", token)):
        with pytest.raises(ValueError, match="2x2 one-qubit gate"):
            gate_from_token(f"{kind}({a},{b})")
        with pytest.raises(CircuitError, match="unknown block gate"):
            parse_circuit(f"qubits 2\nallow freeform\n{kind} {a} {b} @ 1\n")


def test_circuit_text_tokens_parse_back_through_gate():
    text = (
        "qubits 3\nallow freeform\nG H H @ 1\nJ X X @ 2\nFSWAP @ 2\nGHH @ 1\nSWAP @ 1\nCZ @ 2\n"
        "CPHASE(pi/3) @ 1\nRZ(pi/4) @ 3\nP(-0.7) @ 2\nRX(1) @ 1\nRY(2pi/3) @ 3\nI @ 1\nX @ 2\nY @ 3\n"
        "Z @ 1\nH @ 2\nG P(pi/2) P(pi/2) @ 2\nJ RZ(0.3) RY(-0.4) @ 1\n"
    )
    circ = parse_circuit(text)
    lines = circuit_to_text(circ).splitlines()[2:]
    assert len(lines) == len(circ.gates)
    for line, g in zip(lines, circ.gates):
        words = line.split()[:-2]  # drop "@ k"
        token = f"{words[0]}({words[1]},{words[2]})" if g.kind in ("G", "J") else words[0]
        assert np.array_equal(gate_from_token(token), g.local_matrix()), token
        for block, name in zip(g.blocks or (), g.block_names or ()):
            assert np.array_equal(gate_from_token(name), block), name


def test_cli_gate_output_matches_circuit_gate():
    circ = parse_circuit("qubits 2\nG RZ(0.25) RX(-0.5) @ 1\n")
    token = "G({},{})".format(*circ.gates[0].block_names)
    result = CliRunner().invoke(main, ["classify", "--gate", token])
    assert result.exit_code == 0
    assert result.output == dumps_stable(classify_gate(circ.gates[0].local_matrix()).to_json())


def test_build_g_and_j_refuse_blocks_that_are_not_2x2():
    with pytest.raises(ValueError, match="block A must be a 2x2"):
        build_G(named_gate("CZ"), PAULI_I)
    with pytest.raises(ValueError, match="block B must be a 2x2"):
        build_J(PAULI_I, named_gate("SWAP"))
    with pytest.raises(ValueError, match="block B must be a 2x2"):
        build_G(PAULI_I, np.eye(1))
    # a non-unitary block keeps its unitarity message
    with pytest.raises(ValueError, match="block A is not unitary"):
        build_G(2 * np.eye(4), PAULI_I)


def test_cli_refuses_two_qubit_block():
    result = CliRunner().invoke(main, ["classify", "--gate", "G(CZ,I)"])
    assert result.exit_code == 1
    assert "error: block A must be a 2x2" in _err(result)


@pytest.mark.parametrize("token", ["CNZ(40)", "MAJORANA(40)", "F(" + ",".join(["1"] * 40) + ")", "C(3)"])
def test_oversized_tokens_exit_one_without_traceback(token):
    extra = ["-n", "30"] if token == "C(3)" else []
    result = CliRunner().invoke(main, ["classify", "--gate", token, *extra])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert _err(result).startswith("error: ") and "limit 15" in _err(result)


def test_builders_guard_qubits_before_allocating():
    with pytest.raises(ValueError, match="limit"):
        build_CnZ(40)
    with pytest.raises(ValueError, match="limit"):
        build_F((None,) * 16)
    with pytest.raises(ValueError, match="limit"):
        jw_majorana(20, 1)


@pytest.mark.parametrize(
    "token, message",
    [
        ("WHAT(3)", "unknown gate name 'WHAT'"),
        ("G(qq,I)", "unknown gate name 'qq'"),
        ("G(H!,H)", "bad block token 'H!'"),
        ("G(H,H", "bad gate token 'G(H,H'"),
        ("G(H)", "G needs exactly two block gates, got 1"),
        ("J", "J needs two block gates, e.g. J(H,H)"),
        ("X(0.3)", "X takes 0 parameter(s), got 1"),
        ("G(CPHASE,I)", "CPHASE takes 1 parameter(s), got 0"),
        ("G(P(two),I)", "cannot parse angle 'two'"),
        ("P((1,2))", "cannot parse angle '(1,2)'"),
        ("CPHASE(inf)", "angle must be finite, got 'inf'"),
        ("F(2)", "pattern entries are 0, 1, or *, got '2'"),
        ("CNZ(3,4)", "invalid literal for int() with base 10: '3,4'"),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_token_errors(token, message):
    with pytest.raises(ValueError) as exc:
        gate_from_token(token)
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "line, message, col",
    [
        ("G SWAP SWAP @ 1", "unknown block gate 'SWAP'", 3),
        ("G I qq @ 1", "unknown block gate 'qq'", 5),
        ("G H! H @ 1", "bad gate token 'H!'", 3),
        ("G P P @ 1", "P takes 1 parameter(s), got 0", 3),
        ("G H P(x) @ 1", "cannot parse angle 'x'", 5),
        ("G H @ 1", "G needs two block tokens", 1),
        ("QQ @ 1", "unknown gate 'QQ'", 1),
        ("(X) @ 1", "bad gate token '(X)'", 1),
        ("FSWAP(1) @ 1", "FSWAP takes 0 parameter(s), got 1", 1),
        ("RZ(two) @ 1", "cannot parse angle 'two'", 1),
        ("X Y @ 1", "unexpected token 'Y'", 3),
    ],
)
def test_circuit_token_errors_keep_their_position(line, message, col):
    with pytest.raises(CircuitError) as exc:
        parse_circuit(f"qubits 2\n{line}\n")
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.col) == (2, col)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gate_app_checks_blocks_once_when_built():
    with pytest.raises(ValueError, match="block A is not unitary"):
        GateApp(kind="G", pos=1, blocks=(2 * PAULI_I, PAULI_I))
    with pytest.raises(ValueError, match="block B is not unitary"):
        GateApp(kind="J", pos=1, blocks=(PAULI_I, np.ones((2, 2))))
    with pytest.raises(ValueError, match="block A must be a 2x2"):
        GateApp(kind="G", pos=1, blocks=(named_gate("CZ"), PAULI_I))
    # a freeform block with a non-finite angle is refused at parse, at the angle's block token
    with pytest.raises(CircuitError, match="angle must be finite, got 'inf'") as exc:
        parse_circuit("qubits 2\nallow freeform\nG RZ(inf) I @ 1\n")
    assert (exc.value.line, exc.value.col) == (3, 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_block_unitarity_test_matches_linalg():
    # the scalar 2x2 test behind the block check decides as linalg.is_unitary does
    rng = np.random.default_rng(7)
    tol = 1e-9
    cases = [2 * PAULI_I, np.zeros((2, 2)), np.full((2, 2), np.nan), np.full((2, 2), np.inf)]
    for eps in (0.0, 1e-12, 1e-10, 4e-10, 8e-10, 2e-9, 1e-6, 0.1):
        for _ in range(20):
            noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            cases.append(haar_unitary(2, rng) + eps * noise)
    decisions = [circuits._is_unitary_2x2(np.asarray(m, dtype=complex), tol) for m in cases]
    assert decisions == [is_unitary(m, tol) for m in cases]
    assert any(decisions) and not all(decisions)


def test_compilation_makes_no_unitarity_check_per_gate(monkeypatch):
    text = "qubits 3\nG H H @ 1\nJ X X @ 2\nFSWAP @ 2\nGHH @ 1\nZ @ 3\nG P(pi/2) P(pi/2) @ 2\n"
    circ = parse_circuit(text)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(circuits, "assert_unitary", counting)
    monkeypatch.setattr(circuits, "_check_blocks", counting)
    r = circuit_to_rotation(circ)
    u = circuit_to_operator(circ)
    assert calls == []
    assert np.allclose(r @ r.T, np.eye(6))
    assert np.allclose(u.conj().T @ u, np.eye(8))

