"""The circuit parser's output bytes and error strings, pinned on a seeded corpus.

Every good file is parsed and hashed: one SHA-256 over each file's
circuit_to_text, one over every gate's local_matrix().tobytes(). The corpus
covers G/J lines with every block gate, every named one- and two-qubit gate,
pi forms, comments, blank lines, mixed case, tabs, no-break and em spaces
between tokens, and `allow freeform` files with the directive at the top or
below admitted gates. Every bad file is pinned to its exact CircuitError
string. The corpus is built with random.Random, whose seeded draws are the
same on every Python version, so its own digest is pinned too.
"""

import hashlib
import random

import pytest

from matchgates import parse_circuit
from matchgates.circuits import CircuitError, circuit_to_text

GOOD_FILES = 320
SEPARATORS = (" ", "  ", "\t", "\xa0", "\u2003", " \t ", "\u2003 ")
ANGLES = (
    "pi", "-pi", "+pi/8", "-pi/4", "3pi/2", "PI/2", "7pi/3", "2001pi/4", "-16pi/4", "2.5pi",
    "0.5pi", "0.5pi/3", "0", "-0.0", "1e-3", "0.7", "-2.25", "12",
)
# det 1 and det -1 blocks: a G or J line pairing two blocks of one class is a matchgate
DET_PLUS = ("I", "RX({})", "RY({})", "RZ({})", "P(0)", "P(4pi)")
DET_MINUS = ("X", "Y", "Z", "H", "P(pi)", "P(-3pi)")
ONE_QUBIT_ADMITTED = ("I", "X", "Y", "Z", "P({})", "RZ({})", "RX(pi)", "RY(-pi)", "RX(2pi)", "RY(3pi)")
ONE_QUBIT_MIXING = ("H", "RX({})", "RY({})")
TWO_QUBIT_ADMITTED = ("FSWAP", "GHH", "CPHASE(0)", "CPHASE(-4pi)")
TWO_QUBIT_REFUSED = ("SWAP", "CZ", "CPHASE({})", "G X I", "J H RZ({})", "G P({}) Z")
BLOCKS = ("I", "X", "Y", "Z", "H", "P({})", "RX({})", "RY({})", "RZ({})")


def _angle(r: random.Random) -> str:
    return r.choice(ANGLES) if r.random() < 0.6 else repr(r.uniform(-7.0, 7.0))


def _fill(r: random.Random, token: str) -> str:
    while "{}" in token:
        token = token.replace("{}", _angle(r), 1)
    return r.choice((token, token.lower(), token.upper(), token.title()))


def _line(r: random.Random, words: list[str]) -> str:
    sep = r.choice(SEPARATORS)
    out = r.choice(("", "", " ", "\t", "\u2003")) + sep.join(words) + r.choice(("", "", " ", "\t"))
    if r.random() < 0.25:
        out += r.choice(("  # note", "\t#x", "#", " # G H H @ 1"))
    return out


def _gate_words(r: random.Random, n: int, freeform: bool) -> list[str]:
    """One gate line's words, admitted by the matchgate rule unless freeform."""
    two = n > 1 and r.random() < 0.6
    if two:
        pos = r.randint(1, n - 1)
        pick = r.random()
        if freeform and pick < 0.3:
            gate = _fill(r, r.choice(TWO_QUBIT_REFUSED)).split()
        elif freeform and pick < 0.55:
            gate = [r.choice("GJgj"), _fill(r, r.choice(BLOCKS)), _fill(r, r.choice(BLOCKS))]
        elif pick < 0.75:
            cls = r.choice((DET_PLUS, DET_MINUS))
            gate = [r.choice("GJgj"), _fill(r, r.choice(cls)), _fill(r, r.choice(cls))]
        elif pick < 0.85:
            angle = _angle(r)
            gate = [r.choice("GJ"), f"P({angle})", f"p({angle})"]
        else:
            gate = [_fill(r, r.choice(TWO_QUBIT_ADMITTED))]
    else:
        pos = r.randint(1, n)
        table = ONE_QUBIT_ADMITTED + (ONE_QUBIT_MIXING if freeform else ())
        gate = [_fill(r, r.choice(table))]
    return gate + ["@", str(pos)]


def corpus_file(index: int) -> str:
    """The index-th good file of the corpus."""
    r = random.Random(1000 + index)
    n = r.randint(1, 8)
    mode = r.choice(("plain", "plain", "top", "middle"))
    lines = [_line(r, [r.choice(("qubits", "QUBITS", "Qubits")), str(n)])]
    if mode == "top":
        lines.append(_line(r, [r.choice(("allow", "ALLOW")), r.choice(("freeform", "FreeForm"))]))
    depth = r.randint(1, 24)
    directive_at = r.randint(0, depth) if mode == "middle" else -1
    for k in range(depth):
        if k == directive_at:
            lines.append(_line(r, ["allow", "freeform"]))
        if r.random() < 0.15:
            lines.append(r.choice(("", "   ", "# a comment", "\t# G X I @ 1", "\u2003")))
        lines.append(_line(r, _gate_words(r, n, mode == "top" or 0 <= directive_at <= k)))
    if directive_at == depth:
        lines.append(_line(r, ["allow", "freeform"]))
    return "\n".join(lines) + r.choice(("\n", "", "\n\n", "\r\n"))


CORPUS_SHA256 = "b850cb51c74614e8905c6d8e076c90661cbff9b2fa03931b37d5a1a34c361a3a"
TEXT_SHA256 = "6ca5a1a2118e175a600b5a79eb7d335445d2dfa2afc481330c8539868a3a8417"
MATRIX_SHA256 = "b8bcd8f0885eea104aa65176d939ec423e27ddd570a939a8396f79239746be34"


def test_the_corpus_is_the_pinned_one():
    h = hashlib.sha256()
    for i in range(GOOD_FILES):
        h.update(corpus_file(i).encode())
    assert h.hexdigest() == CORPUS_SHA256


def test_parsed_corpus_keeps_its_text_and_matrix_bytes():
    texts, matrices = hashlib.sha256(), hashlib.sha256()
    freeform = 0
    for i in range(GOOD_FILES):
        circ = parse_circuit(corpus_file(i))
        freeform += circ.allow_freeform
        texts.update(circuit_to_text(circ).encode())
        for g in circ.gates:
            matrices.update(g.local_matrix().tobytes())
    assert freeform >= GOOD_FILES // 4
    assert (texts.hexdigest(), matrices.hexdigest()) == (TEXT_SHA256, MATRIX_SHA256)


BAD_LINES = (
    "SWAP @ 1", "h\t@ 1", "G X I @ 1", "QQ @ 1", "X @ 9", "RZ(pi/0) @ 1", "X\u2003Y @ 1",
    "qubits 3", "allow free", "G H @ 1", "@ 1", "CPHASE(pi/3) @ 1",
)


def bad_corpus_file(index: int) -> str:
    """A good file without the directive, with two bad lines inserted."""
    r = random.Random(5000 + index)
    text = corpus_file(r.randrange(GOOD_FILES))
    while "allow" in text.lower():
        text = corpus_file(r.randrange(GOOD_FILES))
    lines = text.splitlines()
    for at in sorted(r.randint(1, len(lines)) for _ in range(2))[::-1]:
        lines.insert(at, r.choice(SEPARATORS).join(["", r.choice(BAD_LINES)]))
    return "\n".join(lines) + "\n"


BAD_FILES = [
    ('', 'line 1, col 1: missing qubits header'),
    ('# only a comment\n\n', 'line 1, col 1: missing qubits header'),
    ('X @ 1\n', 'line 1, col 1: gate before qubits header'),
    ('  \tFSWAP @ 1\nqubits 2\n', 'line 1, col 4: gate before qubits header'),
    ('qubits 2\nqubits 2\n', 'line 2, col 1: duplicate qubits header'),
    ('qubits\n', 'line 1, col 1: expected: qubits N'),
    ('qubits x\n', 'line 1, col 1: expected: qubits N'),
    ('qubits 0\n', 'line 1, col 8: qubit count must be at least 1'),
    ('qubits\t-1\n', 'line 1, col 1: expected: qubits N'),
    ('qubits 2 3\n', 'line 1, col 1: expected: qubits N'),
    ('qubits ²\nX @ 1\n', 'line 1, col 1: expected: qubits N'),
    ('qubits 2\nallow\n', 'line 2, col 1: expected: allow freeform'),
    ('qubits 2\nallow freeform now\n', 'line 2, col 1: expected: allow freeform'),
    ('qubits 2\n allow everything\n', 'line 2, col 2: expected: allow freeform'),
    ('qubits 2\nX\n', "line 2, col 1: expected trailing '@ <wire>'"),
    ('qubits 2\nX @\n', "line 2, col 3: expected trailing '@ <wire>'"),
    ('qubits 2\nX @ 1 2\n', "line 2, col 7: expected trailing '@ <wire>'"),
    ('qubits 2\n@ 1\n', "line 2, col 1: expected a gate before '@'"),
    ('qubits 2\n\t @ 1\n', "line 2, col 3: expected a gate before '@'"),
    ('qubits 2\nX\t@ a\n', "line 2, col 5: bad wire 'a'"),
    ('qubits 2\nX @ 1.5\n', "line 2, col 5: bad wire '1.5'"),
    ('qubits 2\nX @ 3\n', 'line 2, col 1: wire 3 out of range for 2 qubits'),
    ('qubits 2\nX @ 0\n', 'line 2, col 1: wire 0 out of range for 2 qubits'),
    ('qubits 2\nRZ(0.7) @ -1\n', 'line 2, col 1: wire -1 out of range for 2 qubits'),
    ('qubits 2\nCZ @ 2\n', 'line 2, col 1: wire pair (2,3) out of range for 2 qubits (nearest-neighbour positions only)'),
    ("qubits 3\nFSWAP\xa0@\xa0" + "9" * 30 + "\n", 'line 2, col 1: wire pair (999999999999999999999999999999,1000000000000000000000000000000) out of range for 3 qubits (nearest-neighbour positions only)'),
    ('qubits 2\nG H @ 1\n', 'line 2, col 1: G needs two block tokens'),
    ('qubits 2\nG H H H @ 1\n', 'line 2, col 1: G needs two block tokens'),
    ('qubits 2\nJ Q H @ 1\n', "line 2, col 3: unknown block gate 'Q'"),
    ('qubits 2\nG CZ H @ 1\n', "line 2, col 3: unknown block gate 'CZ'"),
    ('qubits 2\nG P H @ 1\n', 'line 2, col 3: P takes 1 parameter(s), got 0'),
    ('qubits 2\nG RX(1,2) H @ 1\n', 'line 2, col 3: RX takes 1 parameter(s), got 2'),
    ('qubits 2\nG(H,H) @ 1\n', "line 2, col 1: cannot parse angle 'H'"),
    ('qubits 2\nQQ @ 1\n', "line 2, col 1: unknown gate name 'QQ'"),
    ('qubits 2\nRZ(pi/4 @ 1\n', "line 2, col 1: bad gate token 'RZ(pi/4'"),
    ('qubits 2\nX\tY @ 1\n', "line 2, col 3: unexpected token 'Y'"),
    ('qubits 2\nRZ(abc) @ 1\n', "line 2, col 1: cannot parse angle 'abc'"),
    ('qubits 2\nRZ(pi/0) @ 1\n', "line 2, col 1: angle has a zero denominator: 'pi/0'"),
    ('qubits 2\nRZ(inf) @ 1\n', "line 2, col 1: angle must be finite, got 'inf'"),
    ('qubits 2\nP(nan) @ 1\n', "line 2, col 1: angle must be finite, got 'nan'"),
    ('qubits 2\nSWAP(1) @ 1\n', 'line 2, col 1: SWAP takes 0 parameter(s), got 1'),
    ('qubits 2\nCPHASE @ 1\n', 'line 2, col 1: CPHASE takes 1 parameter(s), got 0'),
    ("qubits 2\nRZ(3pi/" + "9" * 400 + ") @ 1\n", "line 2, col 1: angle must be finite, got '3pi/" + "9" * 400 + "'"),
    ('qubits 2\nSWAP @ 1\n', "line 2, col 1: SWAP: determinant mismatch: |A| = 1+0j, |B| = -1+0j (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\n  cz\t@\t1\n', "line 2, col 3: CZ: determinant mismatch: |A| = -1+0j, |B| = 1+0j (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\nCPHASE(pi/2) @ 1\n', "line 2, col 1: CPHASE: determinant mismatch: |A| = 6.12323e-17+1j, |B| = 1+0j (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\nG X I @ 1\n', "line 2, col 1: determinant mismatch: |A| = -1+0j, |B| = 1+0j (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 3\nJ H RZ(0.3) @ 2\n', "line 2, col 1: determinant mismatch: |A| = -1+0j, |B| = 1+0j (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\nH @ 1\n', "line 2, col 1: H: mixes parities (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 1\nRX(0.3) @ 1\n', "line 2, col 1: RX: mixes parities (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 1\n ry(-pi/4)\xa0@\xa01 # comment\n', "line 2, col 2: RY: mixes parities (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\nG X I @ 1\nQQ @ 1\n', "line 2, col 1: determinant mismatch: |A| = -1+0j, |B| = 1+0j (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\nSWAP @ 1\nallow freeform\n', "line 2, col 1: SWAP: determinant mismatch: |A| = 1+0j, |B| = -1+0j (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\nH @ 1\nqubits 2\n', "line 2, col 1: H: mixes parities (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\nFSWAP @ 1\nX @ 2\nCZ @ 1\nH @ 2\n', "line 4, col 1: CZ: determinant mismatch: |A| = -1+0j, |B| = 1+0j (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\nFSWAP @ 1\nH @ 1\nX @ 3\n', "line 3, col 1: H: mixes parities (not a matchgate; add 'allow freeform' to admit it)"),
    ('qubits 2\nallow freeform\nSWAP @ 1\nX @ 3\n', 'line 4, col 1: wire 3 out of range for 2 qubits'),
    ('qubits 2\nallow freeform\nallow free\n', 'line 3, col 1: expected: allow freeform'),
]
BAD_CORPUS_ERRORS = [
    "line 4, col 4: unexpected token 'Y'",
    'line 11, col 3: G needs two block tokens',
    'line 21, col 2: wire 9 out of range for 7 qubits',
    'line 11, col 4: G needs two block tokens',
    'line 10, col 3: duplicate qubits header',
    "line 3, col 2: angle has a zero denominator: 'pi/0'",
    "line 10, col 3: angle has a zero denominator: 'pi/0'",
    "line 4, col 2: unknown gate name 'QQ'",
    "line 4, col 3: angle has a zero denominator: 'pi/0'",
    'line 12, col 2: expected: allow freeform',
    "line 2, col 3: CPHASE: determinant mismatch: |A| = 0.5+0.866025j, |B| = 1+0j (not a matchgate; add 'allow freeform' to admit it)",
    "line 3, col 3: unknown gate name 'QQ'",
    'line 10, col 2: G needs two block tokens',
    'line 18, col 2: duplicate qubits header',
    "line 6, col 2: unknown gate name 'QQ'",
    "line 2, col 2: expected a gate before '@'",
    'line 12, col 3: expected: allow freeform',
    "line 2, col 3: SWAP: determinant mismatch: |A| = 1+0j, |B| = -1+0j (not a matchgate; add 'allow freeform' to admit it)",
    "line 3, col 4: determinant mismatch: |A| = -1+0j, |B| = 1+0j (not a matchgate; add 'allow freeform' to admit it)",
    'line 2, col 2: G needs two block tokens',
    "line 11, col 2: SWAP: determinant mismatch: |A| = 1+0j, |B| = -1+0j (not a matchgate; add 'allow freeform' to admit it)",
    'line 12, col 2: expected: allow freeform',
    "line 13, col 2: SWAP: determinant mismatch: |A| = 1+0j, |B| = -1+0j (not a matchgate; add 'allow freeform' to admit it)",
    "line 15, col 2: expected a gate before '@'",
    'line 14, col 2: expected: allow freeform',
    "line 4, col 2: angle has a zero denominator: 'pi/0'",
    "line 12, col 4: H: mixes parities (not a matchgate; add 'allow freeform' to admit it)",
    'line 4, col 4: duplicate qubits header',
    'line 3, col 2: expected: allow freeform',
    "line 6, col 3: determinant mismatch: |A| = -1+0j, |B| = 1+0j (not a matchgate; add 'allow freeform' to admit it)",
]


@pytest.mark.parametrize("text, message", BAD_FILES, ids=[f"bad{i}" for i in range(len(BAD_FILES))])
def test_a_bad_file_is_refused_in_the_same_words(text, message):
    with pytest.raises(CircuitError) as err:
        parse_circuit(text)
    assert str(err.value) == message


@pytest.mark.parametrize("index, message", enumerate(BAD_CORPUS_ERRORS))
def test_the_first_of_two_bad_lines_is_reported(index, message):
    with pytest.raises(CircuitError) as err:
        parse_circuit(bad_corpus_file(index))
    assert str(err.value) == message
