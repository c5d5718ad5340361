"""Two-qubit gate builders, a small circuit IR with a text format, and
dense/compact backends for nearest-neighbour matchgate circuits.

Block conventions, with basis rows and columns ordered 00, 01, 10, 11:

    G(A, B) acts as A on the even-parity subspace spanned by |00>, |11>
    and as B on the odd-parity subspace spanned by |01>, |10>:

        [A11  0    0   A12]
        [ 0  B11  B12   0 ]
        [ 0  B21  B22   0 ]
        [A21  0    0   A22]

    J(A, B) maps between the parity subspaces (a parity-odd gate):

        [ 0  A11  A12   0 ]
        [B11  0    0   B12]
        [B21  0    0   B22]
        [ 0  A21  A22   0 ]

A gate G(A, B) or J(A, B) with unitary blocks is a (generalised)
matchgate exactly when det A = det B.

Circuit text format (case-insensitive, '#' starts a comment):

    qubits N
    allow freeform            # optional: admit non-matchgate gates
    G H H @ 1                 # explicit blocks, wires (1, 2)
    FSWAP @ 2                 # named two-qubit gate, wires (2, 3)
    X @ 1                     # named one-qubit gate
    CPHASE(pi/2) @ 1          # angles: decimal radians or [K]pi[/M]

Gate lists are in time order: the first gate listed acts first. Gate
tokens here and in `mgh --gate` share lex_token, split_args, named_token
and, for G/J blocks, _block_token, so a bad token is refused in the same
words in both.

Each fact about a gate is decided once, by one function:

    named_gate        a name, its arity and finite parameters
    _check_blocks     G/J blocks are 2x2 unitaries
    _guard_wires      the wires fit the register (linalg; CircuitIR and
                      the parser call it)
    _violations       each gate of a list belongs in a matchgate circuit: a
                      one-qubit gate keeps parity by the classifier's rule
                      (parity_of on its matrix), a two-qubit one has
                      det A = det B (the parser calls it once per file, on
                      every gate above any `allow freeform` line;
                      circuit_to_rotation once, on the gates of a circuit
                      that allows free-form ones)
    _dets             the block determinants (hierarchy reads them too)

A parse error names the first failing line: before any other error is
raised, the gates parsed above it are admitted.

A GateApp builds its 2x2 or 4x4 matrix once and keeps it read-only; the
backends only read it. One primitive, apply_circuit, applies a circuit
or its adjoint to an array gate by gate, each gate on its own wires,
O(2^w) per entry for a w-qubit gate; it forms no Kronecker embedding.
The dense route, circuit_to_operator, is apply_circuit on the identity.
The compact route, circuit_to_rotation, finds the local rotations of
all one-qubit and of all two-qubit gates in one call each of the batched
rotation kernel on the Majorana word table (the kernel behind
hierarchy.extract_rotation), then composes them into the 2n x 2n rotation
by updating only the columns each gate touches.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    UNITARY_TOL,
    Tolerances,
    _cached,
    _guard_qubits,
    _guard_wires,
    _integer,
    assert_unitary,
    identity,
)
from .majorana import _parities, _rotations

Pattern = tuple  # entries 0, 1, or None (None is the wildcard)


class CircuitError(ValueError):
    """Parse or validation failure, with 1-based line/column positions."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class NotGaussianError(ValueError):
    """Raised when the compact rotation backend meets a non-Gaussian gate."""


def _is_unitary_2x2(m: np.ndarray) -> bool:
    """linalg.is_unitary's test, ||U*U - 1||_max < UNITARY_TOL, in scalar arithmetic,
    free of numpy's per-call overhead: every G/J GateApp runs it on its
    blocks when built. NaN entries fail it."""
    (p, q), (r, s) = m.tolist()
    return (
        abs(abs(p) ** 2 + abs(r) ** 2 - 1) < UNITARY_TOL
        and abs(abs(q) ** 2 + abs(s) ** 2 - 1) < UNITARY_TOL
        and abs(p.conjugate() * q + r.conjugate() * s) < UNITARY_TOL
    )


def _check_blocks(a, b) -> tuple[np.ndarray, np.ndarray]:
    """G/J blocks as complex arrays, refused unless each is a 2x2 unitary;
    linalg.assert_unitary words the refusal."""
    checked = []
    for block, what in ((a, "block A"), (b, "block B")):
        block = np.asarray(block, dtype=complex)
        if block.shape != (2, 2) or not _is_unitary_2x2(block):
            assert_unitary(block, what)
            if block.shape != (2, 2):
                raise ValueError(f"{what} must be a 2x2 one-qubit gate, got shape {block.shape}")
        checked.append(block)
    return tuple(checked)


# Where the blocks of G(A, B) and of J(A, B) sit in the 4x4 matrix, as basic
# slices of rows/columns (0, 3) and (1, 2): a block read is a view.
_BLOCK_SLOTS = {
    False: ((slice(0, 4, 3),) * 2, (slice(1, 3),) * 2),
    True: ((slice(0, 4, 3), slice(1, 3)), (slice(1, 3), slice(0, 4, 3))),
}


def _dets(a: np.ndarray, b: np.ndarray) -> tuple[complex, complex]:
    """det A and det B of a two-qubit gate's blocks, in one LAPACK call: the
    numbers every two-qubit closed form reads and a refused gate's message
    prints. _violations' one call on many gates' blocks gives the same bits.

    Adding +0j turns a -0.0 part into +0.0, so the printed determinants do
    not depend on the signs of a gate's structural zeros."""
    det_a, det_b = np.linalg.det(np.stack((a, b))).tolist()
    return det_a + 0j, det_b + 0j


def _block_gate(a: np.ndarray, b: np.ndarray, odd: bool) -> np.ndarray:
    """G(A, B), or J(A, B) when odd, from blocks already checked."""
    g = np.zeros((4, 4), dtype=complex)
    slot_a, slot_b = _BLOCK_SLOTS[odd]
    g[slot_a], g[slot_b] = a, b
    return g


def build_G(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parity-even two-qubit gate from blocks A (even subspace) and B (odd)."""
    return _block_gate(*_check_blocks(a, b), odd=False)


def build_J(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parity-odd two-qubit gate from blocks A and B."""
    return _block_gate(*_check_blocks(a, b), odd=True)


def phase_gate(phi: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * phi)]).astype(complex)


def _rot(axis: np.ndarray, theta: float) -> np.ndarray:
    return np.cos(theta / 2) * PAULI_I - 1j * np.sin(theta / 2) * axis


# Named one-qubit gates usable both standalone and as G/J block tokens.
_ONE_QUBIT = {
    "I": (0, lambda: PAULI_I.copy()),
    "X": (0, lambda: PAULI_X.copy()),
    "Y": (0, lambda: PAULI_Y.copy()),
    "Z": (0, lambda: PAULI_Z.copy()),
    "H": (0, lambda: HADAMARD.copy()),
    "P": (1, phase_gate),
    "RX": (1, lambda t: _rot(PAULI_X, t)),
    "RY": (1, lambda t: _rot(PAULI_Y, t)),
    "RZ": (1, lambda t: _rot(PAULI_Z, t)),
}

# Named two-qubit gates and their block form.
_TWO_QUBIT = {
    "FSWAP": (0, lambda: (PAULI_Z.copy(), PAULI_X.copy())),
    "GHH": (0, lambda: (HADAMARD.copy(), HADAMARD.copy())),
    "SWAP": (0, lambda: (PAULI_I.copy(), PAULI_X.copy())),
    "CZ": (0, lambda: (PAULI_Z.copy(), PAULI_I.copy())),
    "CPHASE": (1, lambda phi: (phase_gate(phi), PAULI_I.copy())),
}


def named_gate(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Dense matrix of a named gate (2x2 or 4x4), case-insensitive.

    The package's one arity and parameter check. A gate with finite
    parameters is unitary, so no named gate is checked for unitarity.
    """
    key = name.upper()
    table = _ONE_QUBIT if key in _ONE_QUBIT else _TWO_QUBIT if key in _TWO_QUBIT else None
    if table is None:
        raise ValueError(f"unknown gate name {name!r}")
    arity, fn = table[key]
    if len(params) != arity:
        raise ValueError(f"{key} takes {arity} parameter(s), got {len(params)}")
    for p in params:
        if not math.isfinite(p):
            raise ValueError(f"{key} angle must be finite, got {p}")
    return fn(*params) if table is _ONE_QUBIT else _block_gate(*fn(*params), odd=False)


def build_F(pattern: Pattern) -> np.ndarray:
    """Diagonal pattern gate: flips the sign of every basis state matching
    the pattern (wildcards match both bit values).

    The all-wildcard pattern matches everything and yields minus identity.
    A pattern of weight w is a level w+1 gate in the matchgate hierarchy.
    """
    n = len(pattern)
    if n < 1:
        raise ValueError("pattern must have at least one entry")
    _guard_qubits(n, "pattern gate")
    for p in pattern:
        if p not in (0, 1, None):
            raise ValueError(f"pattern entries must be 0, 1, or None, got {p!r}")
    diag = np.ones(2**n, dtype=complex)
    for z in range(2**n):
        bits = [(z >> (n - 1 - k)) & 1 for k in range(n)]
        if all(p is None or p == bits[k] for k, p in enumerate(pattern)):
            diag[z] = -1.0
    return np.diag(diag)


def build_CnZ(n: int) -> np.ndarray:
    """Controlled-Z on n qubits: the all-ones pattern gate."""
    _guard_qubits(n, "pattern gate")  # before the pattern exists
    return build_F((1,) * n)


@dataclass(frozen=True, eq=False)
class GateApp:
    """One gate application inside a circuit.

    kind is "G", "J" (explicit blocks), or "NAMED". pos is the 1-based wire
    of the gate (leftmost wire for two-qubit gates), an integer by
    linalg._integer. blocks holds (A, B) for G/J kinds, block_names their
    canonical text tokens when available.
    A gate is checked and its matrix built once, when it is built: named
    gates by named_gate, G/J blocks by _check_blocks. G/J blocks are then
    views into that read-only matrix. Whether the gate belongs in a
    matchgate circuit is not stored; _violations decides it from the matrix.
    Two gates are equal, and hash alike, when their kind, wire, name,
    parameters, block names and matrix bytes agree.
    """

    kind: str
    pos: int
    name: str | None = None
    params: tuple[float, ...] = ()
    blocks: tuple[np.ndarray, np.ndarray] | None = None
    block_names: tuple[str, str] | None = None
    _matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # frozen: object.__setattr__ keeps what is built here
        _integer(self.pos, "wire")
        if self.kind in ("G", "J"):
            m = _block_gate(*_check_blocks(*self.blocks), odd=self.kind == "J")
            m.flags.writeable = False  # first, so that the block views are read-only too
            slot_a, slot_b = _BLOCK_SLOTS[self.kind == "J"]
            object.__setattr__(self, "blocks", (m[slot_a], m[slot_b]))
        elif self.kind == "NAMED":
            m = named_gate(self.name, self.params)
            m.flags.writeable = False
        else:
            raise ValueError(f"gate kind must be 'G', 'J' or 'NAMED', got {self.kind!r}")
        object.__setattr__(self, "_matrix", m)

    def _key(self) -> tuple:
        return self.kind, self.pos, self.name, self.params, self.block_names, self._matrix.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GateApp) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n_wires(self) -> int:
        return len(self._matrix) // 2  # a 2x2 or a 4x4 matrix

    def local_matrix(self) -> np.ndarray:
        """The gate's matrix, built once (read-only)."""
        return self._matrix


@dataclass(frozen=True)
class CircuitIR:
    """A nearest-neighbour circuit: qubit count plus gates in time order.

    n_qubits is read by linalg._integer with lower bound 1, the bound of
    the parser's `qubits` header.
    """

    n_qubits: int
    gates: tuple[GateApp, ...] = ()
    allow_freeform: bool = False

    def __post_init__(self) -> None:
        _integer(self.n_qubits, "qubit count", 1)
        for g in self.gates:
            _guard_wires(g.pos, g.n_wires, self.n_qubits)


_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$", re.IGNORECASE)


def parse_angle(token: str) -> float:
    """Angle literal: decimal radians, or pi forms like pi, -pi/4, 3pi/2.

    An integer form Kpi/M with a finite value is reduced to (K mod 4M) pi/M,
    keeping its sign, before pi enters: 4 pi is a period of every named
    gate, and a large K would otherwise carry its rounding error into the
    gate's phases. A value that overflows is refused, reduced or not, and
    so is a nonzero form whose denominator overflows, which would read as
    the angle 0.
    """
    m = _PI_RE.match(token.strip())
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num, den = m.group(2) or "1", m.group(3) or "1"
        if float(den) == 0:
            raise ValueError(f"angle has a zero denominator: {token!r}")
        if math.isinf(float(den)) and float(num):
            raise ValueError(f"angle must be finite, got {token!r}")
        angle = sign * float(num) * np.pi / float(den)
        # a nonzero finite angle has K and M below 1e309, short enough for int()
        if angle and math.isfinite(angle) and num.isdigit() and den.isdigit():
            angle = sign * float(int(num) % (4 * int(den))) * np.pi / float(den)
    else:
        try:
            angle = float(token)
        except ValueError:
            raise ValueError(f"cannot parse angle {token!r}") from None
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {token!r}")
    return angle


_TOKEN_RE = re.compile(r"^([A-Za-z]+)(?:\((.*)\))?$", re.DOTALL)


def lex_token(token: str, what: str = "gate") -> tuple[str, str | None]:
    """Split a NAME or NAME(...) token into NAME, as written, and the text
    inside the parentheses (None without them)."""
    m = _TOKEN_RE.match(token.strip())
    if not m:
        raise ValueError(f"bad {what} token {token!r}")
    return m.group(1), m.group(2)


def split_args(text: str) -> list[str]:
    """Arguments split on commas outside parentheses; blanks are dropped."""
    if "," not in text:
        return [text.strip()] if text.strip() else []
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _angles(inner: str | None) -> tuple[float, ...]:
    return tuple(parse_angle(p) for p in split_args(inner or ""))


def named_token(name: str, inner: str | None) -> tuple[str, tuple[float, ...], np.ndarray]:
    """(NAME, angles, matrix) of a lexed named-gate token such as RZ(pi/4)."""
    params = _angles(inner)
    return name.upper(), params, named_gate(name, params)


def _block_token(token: str) -> tuple[str, tuple[float, ...], np.ndarray]:
    """named_token of a G/J block token, which must name a one-qubit gate:
    the block rule of `G A B` lines and of G(A,B) tokens alike."""
    name, inner = lex_token(token, "block")
    if name.upper() not in _ONE_QUBIT:
        raise ValueError(f"unknown block gate {name!r}")
    return named_token(name, inner)


def _violations(gates, tol: float) -> list[str | None]:
    """Why each gate is not a matchgate-circuit gate, None for one that is.

    The one admission rule, judged for a whole list of gates at once: a
    one-qubit gate must be parity even or odd by the classifier's parity rule
    (majorana._parities, behind parity_of) on its matrix, and the blocks of a
    two-qubit gate, read off its matrix (every named two-qubit gate is of G
    form), must have det A = det B within tol. All one-qubit gates take one
    _parities call and all blocks one stacked determinant call, whose values
    are bit-equal to _dets' per gate; a refused gate's message prints _dets.
    """
    verdicts: list[str | None] = [None] * len(gates)
    one = [i for i, g in enumerate(gates) if g.n_wires == 1]
    two = [i for i, g in enumerate(gates) if g.n_wires == 2]
    if one:
        is_even, is_odd = _parities(np.stack([gates[i].local_matrix() for i in one]), 1, tol)
        for i, keeps in zip(one, (is_even | is_odd).tolist()):
            if not keeps:
                verdicts[i] = "mixes parities"
    if two:
        blocks = [[gates[i].local_matrix()[s] for s in _BLOCK_SLOTS[gates[i].kind == "J"]] for i in two]
        dets = np.linalg.det(np.stack([b for pair in blocks for b in pair])).reshape(-1, 2).tolist()
        for i, pair, (det_a, det_b) in zip(two, blocks, dets):
            if not abs(det_a - det_b) < tol:
                det_a, det_b = _dets(*pair)
                verdicts[i] = f"determinant mismatch: |A| = {det_a:.6g}, |B| = {det_b:.6g}"
    return verdicts


_TOKEN_SPAN = re.compile(r"\S+")


def _col(line: str, k: int) -> int:
    """1-based column of the k-th whitespace-separated token of line (k = -1
    for the last): the positions str.split() drops, found only for an error."""
    return [m.start() + 1 for m in _TOKEN_SPAN.finditer(line)][k]


def parse_circuit(text: str, tol: Tolerances = DEFAULT_TOL) -> CircuitIR:
    """Parse the circuit text format into a CircuitIR.

    Gates that are not matchgate-circuit gates (_violations) are rejected
    unless an `allow freeform` directive stands above them; the directive
    covers only the lines below it. Offending determinants are reported in
    the error. Two-qubit gates must sit at nearest-neighbour positions
    (pos, pos+1) with pos in 1..n-1.

    The admission rule runs once per file, on every gate it covers, after the
    last line or before any other error is raised: an error always names the
    first failing line.
    """
    lines = text.splitlines()
    n_qubits: int | None = None
    ruled: int | None = None  # gates[:ruled] stand above `allow freeform` (all of them: None)
    gates: list[GateApp] = []
    gate_lines: list[int] = []
    try:
        for line_no, raw_line in enumerate(lines, start=1):
            line = raw_line.split("#", 1)[0]
            tokens = line.split()
            if not tokens:
                continue
            head = tokens[0].upper()

            if head == "QUBITS":
                if n_qubits is not None:
                    raise CircuitError("duplicate qubits header", line_no, _col(line, 0))
                if len(tokens) != 2 or not tokens[1].isdecimal():
                    raise CircuitError("expected: qubits N", line_no, _col(line, 0))
                try:
                    n_qubits = int(tokens[1])
                except ValueError:  # past the interpreter's limit on integer digits
                    raise CircuitError("qubit count has too many digits", line_no, _col(line, 1)) from None
                if n_qubits < 1:
                    raise CircuitError("qubit count must be at least 1", line_no, _col(line, 1))
                continue

            if head == "ALLOW":
                if len(tokens) != 2 or tokens[1].upper() != "FREEFORM":
                    raise CircuitError("expected: allow freeform", line_no, _col(line, 0))
                if ruled is None:
                    ruled = len(gates)
                continue

            if n_qubits is None:
                raise CircuitError("gate before qubits header", line_no, _col(line, 0))

            # Gate line: <gate tokens> @ k
            at = tokens.index("@") if "@" in tokens else None
            if at is None or at != len(tokens) - 2:
                raise CircuitError("expected trailing '@ <wire>'", line_no, _col(line, -1))
            if at == 0:
                raise CircuitError("expected a gate before '@'", line_no, _col(line, 0))
            try:
                pos = int(tokens[-1])
            except ValueError:
                raise CircuitError(f"bad wire {tokens[-1]!r}", line_no, _col(line, -1)) from None
            gates.append(_parse_gate(tokens[:at], pos, n_qubits, line, line_no))
            gate_lines.append(line_no)
    except CircuitError:
        _admit(gates[:ruled], gate_lines, lines, tol)  # a refused gate above the error comes first
        raise

    if n_qubits is None:
        raise CircuitError("missing qubits header", 1, 1)
    _admit(gates[:ruled], gate_lines, lines, tol)
    return CircuitIR(n_qubits, tuple(gates), ruled is not None)


def _admit(gates: list[GateApp], gate_lines: list[int], lines: list[str], tol: Tolerances) -> None:
    """Refuse the first of gates that _violations refuses, at its line."""
    for gate, line_no, violation in zip(gates, gate_lines, _violations(gates, tol.residual)):
        if violation is not None:
            prefix = f"{gate.name}: " if gate.name else ""
            raise CircuitError(
                f"{prefix}{violation} (not a matchgate; add 'allow freeform' to admit it)",
                line_no,
                _col(lines[line_no - 1], 0),
            )


def _circuit_token(token: str | None, line_no: int, line: str, k: int, build):
    """build(token) of the k-th token of a circuit-file line; errors point at it."""
    try:
        return build(token)
    except ValueError as exc:
        raise CircuitError(str(exc), line_no, _col(line, k)) from None


def _parse_gate(gate_tokens: list[str], pos: int, n_qubits: int, line: str, line_no: int) -> GateApp:
    kind = gate_tokens[0].upper()

    if kind in ("G", "J"):
        if len(gate_tokens) != 3:
            raise CircuitError(f"{kind} needs two block tokens", line_no, _col(line, 0))
        (name_a, params_a, a), (name_b, params_b, b) = (
            _circuit_token(tok, line_no, line, k, _block_token) for k, tok in enumerate(gate_tokens[1:], start=1)
        )
        block_names = (_format_block(name_a, params_a), _format_block(name_b, params_b))
        fields = dict(kind=kind, blocks=(a, b), block_names=block_names)
    else:
        if len(gate_tokens) != 1:
            raise CircuitError(f"unexpected token {gate_tokens[1]!r}", line_no, _col(line, 1))
        name, inner = _circuit_token(gate_tokens[0], line_no, line, 0, lex_token)
        fields = dict(kind="NAMED", name=name.upper(), params=_circuit_token(inner, line_no, line, 0, _angles))
    try:
        # refuses an unknown name (named_gate), a bad arity or a G/J block that is not unitary
        gate = GateApp(pos=pos, **fields)
        _guard_wires(pos, gate.n_wires, n_qubits)
    except ValueError as exc:
        raise CircuitError(str(exc), line_no, _col(line, 0)) from None
    return gate


def _format_block(name: str, params: tuple[float, ...]) -> str:
    if not params:
        return name
    return f"{name}({','.join(repr(float(p)) for p in params)})"


def circuit_to_text(circuit: CircuitIR) -> str:
    """Canonical text form; stable under re-parsing and re-emission."""
    lines = [f"qubits {circuit.n_qubits}"]
    if circuit.allow_freeform:
        lines.append("allow freeform")
    for g in circuit.gates:
        if g.kind in ("G", "J"):
            if g.block_names is None:
                raise ValueError(
                    "circuit holds raw matrix blocks; it has no canonical text form"
                )
            lines.append(f"{g.kind} {g.block_names[0]} {g.block_names[1]} @ {g.pos}")
        else:
            lines.append(f"{_format_block(g.name.upper(), g.params)} @ {g.pos}")
    return "\n".join(lines) + "\n"


def apply_circuit(circuit: CircuitIR, array: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """U @ array for the circuit's unitary U, or U^dag @ array when adjoint.

    The first axis of array indexes the circuit's 2^n basis states; any
    further axes ride along. Each gate acts on its own wires, seen as a
    (2^(pos-1), 2^w, rest) array, so a w-qubit gate costs O(2^w size).
    U^dag applies the gates in reverse order, each conjugate-transposed.
    array is only read; with no gates it is returned as it is.
    """
    gates = reversed(circuit.gates) if adjoint else circuit.gates
    for g in gates:
        m = g.local_matrix().conj().T if adjoint else g.local_matrix()
        array = (m @ array.reshape(2 ** (g.pos - 1), 2**g.n_wires, -1)).reshape(array.shape)
    return array


def circuit_to_operator(circuit: CircuitIR) -> np.ndarray:
    """Dense unitary of the circuit (first-listed gate applied first):
    apply_circuit on the identity, O(2^w 4^n) for a w-qubit gate."""
    n = circuit.n_qubits
    _guard_qubits(n, "circuit operator")
    return apply_circuit(circuit, identity(n))


def circuit_to_rotation(circuit: CircuitIR, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Compact 2n x 2n rotation of a (generalised) matchgate circuit.

    Never forms the 2^n-dimensional unitary. The composed R satisfies
    U c_mu U^dag = sum_nu R[mu, nu] c_nu for the dense circuit unitary U,
    and det R = (-1)^(number of parity-odd gates). In a circuit that allows
    free-form gates, a gate the parser's admission rule (_violations) would
    refuse is refused here, with its reason: such circuits are not Gaussian.

    The local rotations and parities of all gates of one width come from
    one batched kernel call on the stack of their 2x2 or 4x4 matrices. Gate
    by gate in time order, R is then multiplied on the right by the gate's
    rotation, which touches only the columns of its own Majoranas and,
    for an odd gate, flips the sign of the columns to its right.
    """
    gates = circuit.gates
    for g, violation in zip(gates, _violations(gates, tol.residual) if circuit.allow_freeform else ()):
        if violation is not None:
            raise NotGaussianError(f"free-form gate {g.name or g.kind} @ {g.pos} has no rotation ({violation})")
    local_rotations: list[np.ndarray | None] = [None] * len(gates)
    odd = np.zeros(len(gates), dtype=bool)
    failed = np.zeros(len(gates), dtype=bool)
    for w in (1, 2):
        idx = [i for i, g in enumerate(gates) if g.n_wires == w]
        if not idx:
            continue
        stack = np.stack([gates[i].local_matrix() for i in idx])
        rots, ok = _rotations(stack, w, tol)
        is_even, is_odd = _parities(stack, w, tol.residual)
        failed[idx] = ~(ok & (is_even | is_odd))
        odd[idx] = is_odd
        for i, r_loc in zip(idx, rots):
            local_rotations[i] = r_loc
    if failed.any():
        g = gates[int(np.argmax(failed))]
        raise NotGaussianError(
            f"gate {g.name or g.kind} @ {g.pos} does not act linearly on Majorana operators"
        )
    r = np.eye(2 * circuit.n_qubits)
    for g, r_loc, g_odd in zip(gates, local_rotations, odd):
        lo = 2 * (g.pos - 1)
        hi = lo + 2 * g.n_wires
        r[:, lo:hi] = r[:, lo:hi] @ r_loc
        if g_odd:
            # 0 - x rather than -x: zeros stay +0.0, as the matrix product gives them
            r[:, hi:] = 0.0 - r[:, hi:]
    return r


@_cached
def build_bn(n: int) -> CircuitIR:
    """The 2n-qubit Bell-pair network used by the teleportation protocol,
    built once per n (linalg._cached).

    A column of G(H, H) on pairs (2k-1, 2k) prepares n Bell pairs; a
    triangular cascade of fermionic SWAPs then interleaves the wires so
    odd-numbered qubits end up listed first. Layer t (t = 1 .. n-1) holds
    fSWAPs at positions t+1, t+3, ..., 2n-t-1. A network of 2n qubits
    past linalg.MAX_QUBITS is refused before any gate is built.
    """
    _guard_qubits(2 * _integer(n, "n", 1), "Bell-pair network")
    gates = [GateApp(kind="NAMED", pos=2 * k - 1, name="GHH") for k in range(1, n + 1)]
    for t in range(1, n):
        for p in range(t + 1, 2 * n - t, 2):
            gates.append(GateApp(kind="NAMED", pos=p, name="FSWAP"))
    return CircuitIR(2 * n, tuple(gates))
