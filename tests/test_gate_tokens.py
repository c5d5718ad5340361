"""The one gate-token grammar: `mgh --gate` tokens and circuit-file tokens
share a lexer and a named-gate path, and G/J blocks are one-qubit gates."""

import re

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
    NotGaussianError,
    build_CnZ,
    circuit_to_text,
    lex_token,
    split_args,
)
from matchgates.cli import gate_from_token, main
from matchgates.hierarchy import two_qubit_decompose
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
    # one block rule: the same message from a G(A,B) token and a `G A B` line
    message = f"unknown block gate {lex_token(token)[0]!r}"
    for a, b in ((token, "I"), ("I", token)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gate_from_token(f"{kind}({a},{b})")
        with pytest.raises(CircuitError, match=f": {re.escape(message)}$"):
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
    assert _err(result) == "error: unknown block gate 'CZ'\n"


@pytest.mark.parametrize(
    "token", ["CNZ(40)", "CNZ(99999999999999999999)", "MAJORANA(40)", "F(" + ",".join(["1"] * 40) + ")", "C(3)"]
)
def test_oversized_tokens_exit_one_without_traceback(token):
    extra = ["-n", "30"] if token == "C(3)" else []
    result = CliRunner().invoke(main, ["classify", "--gate", token, *extra])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert _err(result).startswith("error: ") and "limit 15" in _err(result)


def test_builders_guard_qubits_before_allocating():
    with pytest.raises(ValueError, match="limit"):
        build_CnZ(40)
    with pytest.raises(ValueError, match=r"^pattern gate would act on 10{20} qubits \(limit 15\)$"):
        build_CnZ(10**20)  # before the pattern tuple exists
    with pytest.raises(ValueError, match="limit"):
        build_F((None,) * 16)
    with pytest.raises(ValueError, match="limit"):
        jw_majorana(20, 1)


@pytest.mark.parametrize(
    "token, message",
    [
        ("WHAT(3)", "unknown gate name 'WHAT'"),
        ("QQ(abc)", "cannot parse angle 'abc'"),
        ("G(qq,I)", "unknown block gate 'qq'"),
        ("G(H!,H)", "bad block token 'H!'"),
        ("G(H,H", "bad gate token 'G(H,H'"),
        ("G(H)", "G needs exactly two block gates, got 1"),
        ("J", "J needs two block gates, e.g. J(H,H)"),
        ("X(0.3)", "X takes 0 parameter(s), got 1"),
        ("G(CPHASE,I)", "unknown block gate 'CPHASE'"),
        ("G(P,I)", "P takes 1 parameter(s), got 0"),
        ("G(P(two),I)", "cannot parse angle 'two'"),
        ("P((1,2))", "cannot parse angle '(1,2)'"),
        ("CPHASE(inf)", "angle must be finite, got 'inf'"),
        ("F(2)", "pattern entries are 0, 1, or *, got '2'"),
        ("CNZ(3,4)", "CNZ needs a qubit count n >= 1, got '3,4'"),
        ("CNZ(1.5)", "CNZ needs a qubit count n >= 1, got '1.5'"),
        ("CNZ()", "CNZ needs a qubit count n >= 1, got ''"),
        ("CNZ(0)", "CNZ needs a qubit count n >= 1, got '0'"),
        ("CNZ(-3)", "CNZ needs a qubit count n >= 1, got '-3'"),
        ("CNZ", "CNZ needs a qubit count n >= 1, got nothing"),
        ("MAJORANA(x)", "MAJORANA needs a Majorana index mu >= 1, got 'x'"),
        ("MAJORANA(0)", "MAJORANA needs a Majorana index mu >= 1, got '0'"),
        ("C()", "C needs a Majorana index mu >= 1, got ''"),
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
        ("G H! H @ 1", "bad block token 'H!'", 3),
        ("G P P @ 1", "P takes 1 parameter(s), got 0", 3),
        ("G H P(x) @ 1", "cannot parse angle 'x'", 5),
        ("G H @ 1", "G needs two block tokens", 1),
        ("QQ @ 1", "unknown gate name 'QQ'", 1),
        ("QQ(abc) @ 1", "cannot parse angle 'abc'", 1),
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


@pytest.mark.parametrize(
    "token, line, col",
    [(t, f"{t} @ 1", 1) for t in ("qq", "QQ(abc)", "(X)", "FSWAP(1)", "RZ(two)", "X(0.3)", "CPHASE(inf)")]
    + [(f"G({t},I)", f"G {t} I @ 1", 3) for t in ("qq", "H!", "SWAP", "P", "P(x)", "RZ(inf)", "(X)")],
)
def test_a_bad_token_reads_alike_in_a_file_and_on_gate(token, line, col):
    with pytest.raises(ValueError) as on_gate:
        gate_from_token(token)
    with pytest.raises(CircuitError) as in_file:
        parse_circuit(f"qubits 2\n{line}\n")
    assert str(in_file.value) == f"line 2, col {col}: {on_gate.value}"


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
    cases = [2 * PAULI_I, np.zeros((2, 2)), np.full((2, 2), np.nan), np.full((2, 2), np.inf)]
    for eps in (0.0, 1e-12, 1e-10, 4e-10, 8e-10, 2e-9, 1e-6, 0.1):
        for _ in range(20):
            noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            cases.append(haar_unitary(2, rng) + eps * noise)
    decisions = [circuits._is_unitary_2x2(np.asarray(m, dtype=complex)) for m in cases]
    assert decisions == [is_unitary(m) for m in cases]
    assert any(decisions) and not all(decisions)


def test_each_gate_matrix_is_built_once_at_parse(monkeypatch):
    # 2 G/J lines, 2 named two-qubit lines, 2 named one-qubit lines
    text = "qubits 3\nG H H @ 1\nJ X Z @ 2\nFSWAP @ 2\nGHH @ 1\nZ @ 3\nRZ(pi/4) @ 1\n"
    # free-form lines: 2 named two-qubit, 1 named one-qubit, 1 G line
    freeform = "qubits 3\nallow freeform\nSWAP @ 1\nH @ 2\nG I X @ 1\nCPHASE(0.3) @ 1\n"
    want_r, want_u = circuit_to_rotation(parse_circuit(text)), circuit_to_operator(parse_circuit(text))
    want_ff = circuit_to_operator(parse_circuit(freeform))
    calls = {"named_gate": 0, "_block_gate": 0, "_check_blocks": 0}
    for fname in calls:

        def counting(*args, real=getattr(circuits, fname), fname=fname, **kwargs):
            calls[fname] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(circuits, fname, counting)
    circ = parse_circuit(text)
    # one per named line, two per G/J line (its block tokens); one 4x4 per
    # two-qubit line; the blocks of each G/J line checked once
    once = {"named_gate": 2 + 2 + 2 * 2, "_block_gate": 2 + 2, "_check_blocks": 2}
    assert calls == once
    assert np.array_equal(circuit_to_rotation(circ), want_r)
    assert np.array_equal(circuit_to_operator(circ), want_u)
    assert calls == once  # neither backend builds a gate
    for fname in calls:
        calls[fname] = 0
    circ = parse_circuit(freeform)
    once = {"named_gate": 2 + 1 + 2, "_block_gate": 2 + 1, "_check_blocks": 1}
    assert calls == once  # an admitted free-form gate is not built again
    assert np.array_equal(circuit_to_operator(circ), want_ff)
    with pytest.raises(NotGaussianError, match="SWAP @ 1 has no rotation"):
        circuit_to_rotation(circ)
    assert calls == once


def test_gate_app_keeps_one_read_only_matrix():
    for g in parse_circuit("qubits 2\nG P(0.3) P(0.3) @ 1\nJ X Z @ 1\nFSWAP @ 1\nRZ(0.7) @ 2\n").gates:
        m = g.local_matrix()
        assert m is g.local_matrix() and not m.flags.writeable
        assert g.n_wires == len(m) // 2
        if g.blocks is not None:
            assert all(np.shares_memory(block, m) and not block.flags.writeable for block in g.blocks)
    u = named_gate("GHH")
    blocks = two_qubit_decompose(u)
    assert not np.shares_memory(blocks.a, u) and not np.shares_memory(blocks.b, u)


def test_gate_app_refuses_a_bad_name_or_arity_when_built():
    with pytest.raises(ValueError, match=r"^RZ takes 1 parameter\(s\), got 0$"):
        GateApp(kind="NAMED", pos=1, name="RZ")
    with pytest.raises(ValueError, match=r"^FSWAP takes 0 parameter\(s\), got 1$"):
        GateApp(kind="NAMED", pos=1, name="FSWAP", params=(0.3,))
    with pytest.raises(ValueError, match="^unknown gate name 'QQ'$"):
        GateApp(kind="NAMED", pos=1, name="QQ")


@pytest.mark.parametrize("name", ["P", "RX", "RY", "RZ", "CPHASE"])
@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_named_gates_refuse_a_non_finite_angle(name, angle):
    # one parameter rule, in named_gate: every named gate with finite angles is unitary
    message = f"^{name} angle must be finite, got {angle}$"
    with pytest.raises(ValueError, match=message):
        named_gate(name, (angle,))
    with pytest.raises(ValueError, match=message):
        GateApp(kind="NAMED", pos=1, name=name, params=(angle,))


def test_gate_app_refuses_an_unknown_kind():
    # any other kind used to be read as a named gate and fail on name None
    for kind in ("g", "named", ""):
        with pytest.raises(ValueError, match=f"^gate kind must be 'G', 'J' or 'NAMED', got {kind!r}$"):
            GateApp(kind=kind, pos=1, blocks=(PAULI_I, PAULI_I))


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

