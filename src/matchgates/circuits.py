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
tokens here and in `mgh --gate` share lex_token, split_args and named_token.

Backends. Both check every gate's wires before doing any work. The dense
route, circuit_to_operator, applies each gate to its own wires of the
2^n x 2^n product, O(2^w 4^n) for a w-qubit gate; it forms no Kronecker
embedding. The compact route, circuit_to_rotation, finds the local
rotations of all one-qubit and of all two-qubit gates in one call each
of the batched rotation kernel on the Majorana word table (the kernel
behind hierarchy.extract_rotation), then composes them into the 2n x 2n
rotation by updating only the columns each gate touches.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Tolerances,
    _guard_qubits,
    _guard_wires,
    assert_unitary,
    identity,
)
from .majorana import _parity_maxima, _rotations

Pattern = tuple  # entries 0, 1, or None (None is the wildcard)


class CircuitError(ValueError):
    """Parse or validation failure, with 1-based line/column positions."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class NotGaussianError(ValueError):
    """Raised when the compact rotation backend meets a non-Gaussian gate."""


def _is_unitary_2x2(m: np.ndarray, tol: float) -> bool:
    """linalg.is_unitary's test, ||U*U - 1||_max < tol, in scalar arithmetic,
    free of numpy's per-call overhead: every GateApp runs it on its blocks
    when built. NaN entries fail it."""
    (p, q), (r, s) = m.tolist()
    return (
        abs(abs(p) ** 2 + abs(r) ** 2 - 1) < tol
        and abs(abs(q) ** 2 + abs(s) ** 2 - 1) < tol
        and abs(p.conjugate() * q + r.conjugate() * s) < tol
    )


def _check_blocks(a, b, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """G/J blocks as complex arrays, refused unless each is a 2x2 unitary;
    linalg.assert_unitary words the refusal."""
    checked = []
    for block, what in ((a, "block A"), (b, "block B")):
        block = np.asarray(block, dtype=complex)
        if block.shape != (2, 2) or not _is_unitary_2x2(block, tol):
            assert_unitary(block, tol, what)
            if block.shape != (2, 2):
                raise ValueError(f"{what} must be a 2x2 one-qubit gate, got shape {block.shape}")
        checked.append(block)
    return tuple(checked)


# Where the blocks of G(A, B) and of J(A, B) sit in the 4x4 matrix.
_BLOCK_SLOTS = {
    False: (np.ix_((0, 3), (0, 3)), np.ix_((1, 2), (1, 2))),
    True: (np.ix_((0, 3), (1, 2)), np.ix_((1, 2), (0, 3))),
}


def _block_gate(a: np.ndarray, b: np.ndarray, odd: bool) -> np.ndarray:
    """G(A, B), or J(A, B) when odd, from blocks already checked."""
    g = np.zeros((4, 4), dtype=complex)
    slot_a, slot_b = _BLOCK_SLOTS[odd]
    g[slot_a], g[slot_b] = a, b
    return g


def build_G(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL.unitary) -> np.ndarray:
    """Parity-even two-qubit gate from blocks A (even subspace) and B (odd)."""
    return _block_gate(*_check_blocks(a, b, tol), odd=False)


def build_J(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL.unitary) -> np.ndarray:
    """Parity-odd two-qubit gate from blocks A and B."""
    return _block_gate(*_check_blocks(a, b, tol), odd=True)


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

# One-qubit gates that are themselves parity-even or parity-odd; anything
# else (H, RX, RY) mixes parities and is only admitted as free-form.
_FERMIONIC_1Q = {"I", "X", "Y", "Z", "P", "RZ"}


def named_gate(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Dense matrix of a named gate (2x2 or 4x4), case-insensitive.

    The package's one arity check. Only blocks that depend on an angle,
    those of CPHASE(phi), are checked for unitarity.
    """
    key = name.upper()
    table = _ONE_QUBIT if key in _ONE_QUBIT else _TWO_QUBIT if key in _TWO_QUBIT else None
    if table is None:
        raise ValueError(f"unknown gate name {name!r}")
    arity, fn = table[key]
    if len(params) != arity:
        raise ValueError(f"{key} takes {arity} parameter(s), got {len(params)}")
    if table is _ONE_QUBIT:
        return fn(*params)
    return build_G(*fn(*params)) if params else _block_gate(*fn(), odd=False)


def pattern_weight(pattern: Pattern) -> int:
    """Number of constrained (non-wildcard) entries."""
    return sum(1 for p in pattern if p is not None)


def build_F(pattern: Pattern) -> np.ndarray:
    """Diagonal pattern gate: flips the sign of every basis state matching
    the pattern (wildcards match both bit values).

    The all-wildcard pattern matches everything and yields minus identity.
    A pattern of weight w is a level w+1 gate in the matchgate hierarchy.
    """
    n = len(pattern)
    if n < 1:
        raise ValueError("pattern must have at least one entry")
    for p in pattern:
        if p not in (0, 1, None):
            raise ValueError(f"pattern entries must be 0, 1, or None, got {p!r}")
    _guard_qubits(n)
    diag = np.ones(2**n, dtype=complex)
    for z in range(2**n):
        bits = [(z >> (n - 1 - k)) & 1 for k in range(n)]
        if all(p is None or p == bits[k] for k, p in enumerate(pattern)):
            diag[z] = -1.0
    return np.diag(diag)


def build_CnZ(n: int) -> np.ndarray:
    """Controlled-Z on n qubits: the all-ones pattern gate."""
    return build_F((1,) * n)


@dataclass(frozen=True)
class GateApp:
    """One gate application inside a circuit.

    kind is "G", "J" (explicit blocks), or "NAMED". pos is the 1-based wire
    of the gate (leftmost wire for two-qubit gates). blocks holds (A, B) for
    G/J kinds, block_names their canonical text tokens when available.
    freeform marks gates admitted only under the `allow freeform` directive.
    The blocks of a G/J gate are checked once, when it is built.
    """

    kind: str
    pos: int
    name: str | None = None
    params: tuple[float, ...] = ()
    blocks: tuple[np.ndarray, np.ndarray] | None = None
    block_names: tuple[str, str] | None = None
    freeform: bool = False

    def __post_init__(self) -> None:
        if self.kind in ("G", "J"):
            # frozen: object.__setattr__ keeps the checked arrays
            object.__setattr__(self, "blocks", _check_blocks(*self.blocks, DEFAULT_TOL.unitary))

    @property
    def n_wires(self) -> int:
        if self.kind in ("G", "J"):
            return 2
        return 1 if self.name.upper() in _ONE_QUBIT else 2

    def local_matrix(self) -> np.ndarray:
        if self.kind in ("G", "J"):
            return _block_gate(*self.blocks, odd=self.kind == "J")
        return named_gate(self.name, self.params)

    def wires(self) -> tuple[int, ...]:
        return (self.pos,) if self.n_wires == 1 else (self.pos, self.pos + 1)


@dataclass(frozen=True)
class CircuitIR:
    """A nearest-neighbour circuit: qubit count plus gates in time order."""

    n_qubits: int
    gates: tuple[GateApp, ...] = ()
    allow_freeform: bool = False


_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$", re.IGNORECASE)


def parse_angle(token: str) -> float:
    """Angle literal: decimal radians, or pi forms like pi, -pi/4, 3pi/2."""
    m = _PI_RE.match(token.strip())
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        angle = sign * num * np.pi / den
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
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def named_token(name: str, inner: str | None) -> tuple[str, tuple[float, ...], np.ndarray]:
    """(NAME, angles, matrix) of a lexed named-gate token such as RZ(pi/4)."""
    params = tuple(parse_angle(p) for p in split_args(inner or ""))
    return name.upper(), params, named_gate(name, params)


def _matchgate_violation(a: np.ndarray, b: np.ndarray, tol: float) -> str | None:
    """None when det A = det B within tol, else a description of the mismatch."""
    da, db = complex(np.linalg.det(a)), complex(np.linalg.det(b))
    if abs(da - db) < tol:
        return None
    return f"determinant mismatch: |A| = {da:.6g}, |B| = {db:.6g}"


def parse_circuit(text: str, tol: Tolerances = DEFAULT_TOL) -> CircuitIR:
    """Parse the circuit text format into a CircuitIR.

    Gates that are not (generalised) matchgates are rejected unless the
    file carries an `allow freeform` directive; offending determinants are
    reported in the error. Two-qubit gates must sit at nearest-neighbour
    positions (pos, pos+1) with pos in 1..n-1.
    """
    n_qubits: int | None = None
    allow_freeform = False
    gates: list[GateApp] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not tokens:
            continue
        head, head_col = tokens[0]
        head_up = head.upper()

        if head_up == "QUBITS":
            if n_qubits is not None:
                raise CircuitError("duplicate qubits header", line_no, head_col)
            if len(tokens) != 2 or not tokens[1][0].isdigit():
                raise CircuitError("expected: qubits N", line_no, head_col)
            n_qubits = int(tokens[1][0])
            if n_qubits < 1:
                raise CircuitError("qubit count must be at least 1", line_no, tokens[1][1])
            continue

        if head_up == "ALLOW":
            if len(tokens) != 2 or tokens[1][0].upper() != "FREEFORM":
                raise CircuitError("expected: allow freeform", line_no, head_col)
            allow_freeform = True
            continue

        if n_qubits is None:
            raise CircuitError("gate before qubits header", line_no, head_col)

        # Gate line: <gate tokens> @ k
        at = next((i for i, (t, _) in enumerate(tokens) if t == "@"), None)
        if at is None or at != len(tokens) - 2:
            raise CircuitError("expected trailing '@ <wire>'", line_no, tokens[-1][1])
        pos_tok, pos_col = tokens[-1]
        try:
            pos = int(pos_tok)
        except ValueError:
            raise CircuitError(f"bad wire {pos_tok!r}", line_no, pos_col) from None
        gate_tokens = tokens[:at]

        gates.append(
            _parse_gate(gate_tokens, pos, n_qubits, allow_freeform, line_no, tol)
        )

    if n_qubits is None:
        raise CircuitError("missing qubits header", 1, 1)
    return CircuitIR(n_qubits, tuple(gates), allow_freeform)


def _circuit_token(token: str, line_no: int, col: int, known, unknown: str):
    """named_token of a circuit-file token whose name must be in known;
    errors point at (line_no, col)."""
    try:
        name, inner = lex_token(token)
        if name.upper() not in known:
            raise ValueError(f"unknown {unknown} {name!r}")
        return named_token(name, inner)
    except ValueError as exc:
        raise CircuitError(str(exc), line_no, col) from None


def _parse_gate(gate_tokens, pos, n_qubits, allow_freeform, line_no, tol) -> GateApp:
    head, head_col = gate_tokens[0]
    kind = head.upper()

    if kind in ("G", "J"):
        if len(gate_tokens) != 3:
            raise CircuitError(f"{kind} needs two block tokens", line_no, head_col)
        (name_a, params_a, a), (name_b, params_b, b) = (
            _circuit_token(tok, line_no, col, _ONE_QUBIT, "block gate") for tok, col in gate_tokens[1:]
        )
        block_names = (_format_block(name_a, params_a), _format_block(name_b, params_b))
        fields = dict(blocks=(a, b), block_names=block_names)
        prefix = ""
    else:
        if len(gate_tokens) != 1:
            raise CircuitError(f"unexpected token {gate_tokens[1][0]!r}", line_no, gate_tokens[1][1])
        known = _ONE_QUBIT.keys() | _TWO_QUBIT.keys()
        name, params, _ = _circuit_token(head, line_no, head_col, known, "gate")
        if name in _ONE_QUBIT:
            if not 1 <= pos <= n_qubits:
                raise CircuitError(f"wire {pos} out of range 1..{n_qubits}", line_no, head_col)
            freeform = name not in _FERMIONIC_1Q
            if freeform and not allow_freeform:
                raise CircuitError(
                    f"{name} mixes parities (not a matchgate-circuit gate; "
                    "add 'allow freeform' to admit it)",
                    line_no,
                    head_col,
                )
            return GateApp(kind="NAMED", pos=pos, name=name, params=params, freeform=freeform)
        kind = "NAMED"
        a, b = _TWO_QUBIT[name][1](*params)
        fields = dict(name=name, params=params)
        prefix = f"{name}: "

    if not 1 <= pos <= n_qubits - 1:
        raise CircuitError(
            f"two-qubit gate at wires ({pos},{pos + 1}) out of range for {n_qubits} qubits "
            "(nearest-neighbour positions only)",
            line_no,
            head_col,
        )
    violation = _matchgate_violation(a, b, tol.residual)
    if violation is not None and not allow_freeform:
        raise CircuitError(
            f"{prefix}{violation} (not a matchgate; add 'allow freeform' to admit it)",
            line_no,
            head_col,
        )
    try:
        return GateApp(kind=kind, pos=pos, freeform=violation is not None, **fields)
    except ValueError as exc:  # a G/J block that is not unitary, e.g. RZ(inf)
        raise CircuitError(str(exc), line_no, head_col) from None


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


def _check_wires(circuit: CircuitIR) -> None:
    """Refuse a circuit with any gate whose wires do not fit its qubits."""
    for g in circuit.gates:
        _guard_wires(g.pos, g.n_wires, circuit.n_qubits)


def circuit_to_operator(circuit: CircuitIR) -> np.ndarray:
    """Dense unitary of the circuit (first-listed gate applied first).

    Each gate acts on its own wires of the current product, seen as a
    (2^(pos-1), 2^w, rest) array, so a w-qubit gate costs O(2^w 4^n).
    """
    n = circuit.n_qubits
    _guard_qubits(n)
    _check_wires(circuit)
    u = identity(n)
    for g in circuit.gates:
        local = g.local_matrix()
        u = (local @ u.reshape(2 ** (g.pos - 1), len(local), -1)).reshape(u.shape)
    return u


def gate_rotation(g: GateApp, n_qubits: int, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The full 2n x 2n rotation of one gate: circuit_to_rotation of the
    circuit holding only g.

    Majoranas on wires left of the gate are untouched; the gate's own block
    rotates; Majoranas to the right pick up the gate's parity sign, because
    their Pauli-Z strings cross the gate's wires.
    """
    return circuit_to_rotation(CircuitIR(n_qubits, (g,)), tol)


def circuit_to_rotation(circuit: CircuitIR, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Compact 2n x 2n rotation of a (generalised) matchgate circuit.

    Never forms the 2^n-dimensional unitary. The composed R satisfies
    U c_mu U^dag = sum_nu R[mu, nu] c_nu for the dense circuit unitary U,
    and det R = (-1)^(number of parity-odd gates). Free-form gates are
    refused: such circuits are not Gaussian.

    The local rotations and parities of all gates of one width come from
    one batched kernel call on the stack of their 2x2 or 4x4 matrices. Gate
    by gate in time order, R is then multiplied on the right by the gate's
    rotation, which touches only the columns of its own Majoranas and,
    for an odd gate, flips the sign of the columns to its right.
    """
    for g in circuit.gates:
        if g.freeform:
            if g.blocks is not None:
                a, b = g.blocks
                detail = f" ({_matchgate_violation(a, b, tol.residual)})"
            else:
                detail = ""
            raise NotGaussianError(
                f"free-form gate {g.name or g.kind} @ {g.pos} has no rotation{detail}"
            )
    _check_wires(circuit)
    gates = circuit.gates
    local_rotations: list[np.ndarray | None] = [None] * len(gates)
    odd = np.zeros(len(gates), dtype=bool)
    failed = np.zeros(len(gates), dtype=bool)
    for w in (1, 2):
        idx = [i for i, g in enumerate(gates) if g.n_wires == w]
        if not idx:
            continue
        stack = np.stack([gates[i].local_matrix() for i in idx])
        rots, ok = _rotations(stack, w, tol)
        # the tests of parity_of, on every gate at once
        even_max, odd_max = _parity_maxima(stack, w)
        is_even = odd_max < tol.residual
        is_odd = ~is_even & (even_max < tol.residual)
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


def build_bn(n: int) -> CircuitIR:
    """The 2n-qubit Bell-pair network used by the teleportation protocol.

    A column of G(H, H) on pairs (2k-1, 2k) prepares n Bell pairs; a
    triangular cascade of fermionic SWAPs then interleaves the wires so
    odd-numbered qubits end up listed first. Layer t (t = 1 .. n-1) holds
    fSWAPs at positions t+1, t+3, ..., 2n-t-1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gates = [GateApp(kind="NAMED", pos=2 * k - 1, name="GHH") for k in range(1, n + 1)]
    for t in range(1, n):
        for p in range(t + 1, 2 * n - t, 2):
            gates.append(GateApp(kind="NAMED", pos=p, name="FSWAP"))
    return CircuitIR(2 * n, tuple(gates))
