"""Seeded workload mixes: task families, their inputs and their oracles.

A workload is a fixed list of (family, count). Every timed pass draws fresh
inputs for every family from a generator seeded by (workload seed, pass,
family), so one seed always gives the same inputs and no random input is
seen twice; only the pattern-gate families (and the fixed CLI tokens such as
SWAP) repeat gates, on purpose. The counts fix the shape of each mix, which
keeps its median and p90 task inside one cost cluster whatever the seed.
Each mix also carries a small slice of every other route, so every
end-to-end metric exists on every workload.

Tasks call the library through module attributes (``hierarchy.classify_gate``,
not a name imported here), so the tracer's rebinding sees them. After a pass,
each answer is checked against an independent route outside the timed
region; CLI answers must also be byte-identical to ``dumps_stable`` of the
library result.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Callable

import numpy as np
from click.testing import CliRunner

from matchgates import circuits, cli, hierarchy, io, linalg, sampling, svn, teleport

import calibrate

RESIDUAL = 1e-9  # oracle bound on residuals and on dense-vs-compact entries
PHASE_RESIDUAL = 1e-8  # oracle bound on a reconstruction's distance up to phase
PROBABILITY = 1e-12  # oracle bound on |p - 4^-n| per teleportation branch
GENERIC_K_MAX = 6  # level cap of the refusing path


@dataclass
class Task:
    family: str
    route: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is right
    result: Any = None
    error: str | None = None


@dataclass
class Family:
    name: str
    make: Callable[[np.random.Generator, "Context", int], list[Task]]


@dataclass
class Workload:
    name: str
    why: str
    mix: list[tuple[Family, int]]


@dataclass
class Context:
    """What tasks need besides their inputs: a directory for CLI files and the tracer."""

    workdir: Path
    tracer: Any = None
    runner: CliRunner = field(default_factory=CliRunner)

    def mgh(self, args: list[str]):
        """One in-process ``mgh`` command through click."""
        if self.tracer is None:
            return self.runner.invoke(cli.main, args)
        with self.tracer.span("cli.command"):
            return self.runner.invoke(cli.main, args)


# --- independent references used by the oracles ------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_AXES = {"RX": _X, "RY": _Y, "RZ": _Z}


@lru_cache(maxsize=None)
def jordan_wigner(n: int) -> tuple[np.ndarray, ...]:
    """c_{2k-1} = Z..Z X_k, c_{2k} = Z..Z Y_k, built here from Pauli krons."""
    out = []
    for k in range(1, n + 1):
        for letter in (_X, _Y):
            op = np.ones((1, 1), dtype=complex)
            for f in [_Z] * (k - 1) + [letter] + [_I2] * (n - k):
                op = np.kron(op, f)
            out.append(op)
    return tuple(out)


def phase_residual(a: np.ndarray, b: np.ndarray) -> float:
    """min over theta of ||a - e^{i theta} b||."""
    inner = complex(np.vdot(b, a))
    if abs(inner) < 1e-14:
        return float("inf")
    return float(np.linalg.norm(a - inner / abs(inner) * b))


def rotation(axis: str, t: float) -> np.ndarray:
    return np.cos(t / 2) * _I2 - 1j * np.sin(t / 2) * _AXES[axis]


def block_gate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    g = np.zeros((4, 4), dtype=complex)
    g[np.ix_([0, 3], [0, 3])] = a
    g[np.ix_([1, 2], [1, 2])] = b
    return g


def _orthogonal_proper(r) -> str | None:
    if r is None:
        return "no rotation"
    r = np.asarray(r)
    resid = float(np.abs(r @ r.T - np.eye(len(r))).max())
    det = float(np.linalg.det(r))
    if resid >= RESIDUAL or abs(det - 1.0) >= RESIDUAL:
        return f"rotation not proper orthogonal (|RR^T - 1| {resid:.1e}, det {det:.12f})"
    return None


def check_level(report, level, parity, closed_form="skip") -> str | None:
    """Recursion, Gaussianity routes and (two qubits) closed form against a known level.

    closed_form is the expected closed-form level, "skip", or "above" for the
    refusing path, where the closed form must not claim a level <= the cap.
    """
    if report.min_level != level:
        return f"min_level {report.min_level}, want {level}"
    if report.parity != parity:
        return f"parity {report.parity}, want {parity}"
    gaussian = level is not None and level <= 2
    if report.is_gaussian != gaussian or (report.rotation is not None) != gaussian:
        return f"Gaussian routes say lambda={report.is_gaussian}, rotation={report.rotation is not None}"
    if closed_form != "skip":
        got = report.two_qubit["level_closed_form"]
        if closed_form == "above":
            if got is not None and got <= report.k_max:
                return f"closed form says level {got} where the recursion found none"
        elif got != closed_form:
            return f"closed form says level {got}, want {closed_form}"
    return None


def check_teleport(transcript, u: np.ndarray, psi: np.ndarray) -> str | None:
    n = int(np.log2(len(psi)))
    if len(transcript.branches) != 4**n:
        return f"{len(transcript.branches)} branches, want {4**n}"
    target = u @ psi
    resid = max(float(np.linalg.norm(b.corrected - target)) for b in transcript.branches)
    dev = max(abs(b.probability - 4.0**-n) for b in transcript.branches)
    if resid >= RESIDUAL or dev >= PROBABILITY:
        return f"branch residual {resid:.1e}, |p - 4^-n| {dev:.1e}"
    return None


def check_svn(result, v: np.ndarray, tup: list[np.ndarray]) -> str | None:
    cs = jordan_wigner(int(np.log2(len(v))))
    u = result.u
    contract = max(float(np.abs(u.conj().T @ c @ u - d).max()) for c, d in zip(cs, tup))
    round_trip = phase_residual(u, v)
    if round_trip >= PHASE_RESIDUAL or contract >= RESIDUAL:
        return f"round trip {round_trip:.1e}, contract residual {contract:.1e}"
    return None


def check_cli(result, expected: Callable[[], str], exit_code: int = 0) -> str | None:
    if result.exit_code != exit_code:
        return f"mgh exited {result.exit_code}: {result.exception or result.stderr.strip()}"
    if result.stdout != expected():
        return "mgh stdout differs from dumps_stable of the library result"
    return None


def _both(*checks: Callable[[], str | None]) -> str | None:
    for c in checks:
        msg = c()
        if msg is not None:
            return msg
    return None


# --- inputs -------------------------------------------------------------------


def random_gate(rng: np.random.Generator, n: int):
    """One even matchgate as (text line, wire, own matrix, GateApp fields)."""
    r = int(rng.integers(8))
    t = float(rng.uniform(-np.pi, np.pi))
    if r == 7:
        pos = int(rng.integers(1, n + 1))
        return f"RZ({t!r}) @ {pos}", pos, rotation("RZ", t), dict(kind="NAMED", name="RZ", params=(t,))
    pos = int(rng.integers(1, n))
    if r < 4:
        a, b = (str(x) for x in rng.choice(["RX", "RY", "RZ"], 2))
        s = float(rng.uniform(-np.pi, np.pi))
        blocks = (rotation(a, t), rotation(b, s))
        return f"G {a}({t!r}) {b}({s!r}) @ {pos}", pos, block_gate(*blocks), dict(kind="G", blocks=blocks)
    if r == 4:
        p = np.diag([1.0, np.exp(1j * t)])
        return f"G P({t!r}) P({t!r}) @ {pos}", pos, block_gate(p, p), dict(kind="G", blocks=(p, p))
    name, blocks = ("FSWAP", (_Z, _X)) if r == 5 else ("GHH", (_H, _H))
    return f"{name} @ {pos}", pos, block_gate(*blocks), dict(kind="NAMED", name=name)


def circuit_text(rng: np.random.Generator, n: int, depth: int):
    """Seeded circuit text plus the (wire, matrix) of each gate."""
    lines = [random_gate(rng, n) for _ in range(depth)]
    text = f"qubits {n}\n" + "".join(line + "\n" for line, *_ in lines)
    return text, [(pos, m) for _, pos, m, _ in lines]


def random_pattern(rng: np.random.Generator, n: int, weight: int) -> tuple:
    pattern: list[int | None] = [None] * n
    for pos in rng.choice(n, weight, replace=False):
        pattern[int(pos)] = int(rng.integers(2))
    return tuple(pattern)


def pattern_token(pattern: tuple) -> str:
    return "F(" + ",".join("*" if p is None else str(p) for p in pattern) + ")"


# --- families -----------------------------------------------------------------


def _call(module, name: str, *args):
    """Look the function up at call time, so a traced pass sees the tracer's binding."""
    return getattr(module, name)(*args)


def planted(k: int) -> Family:
    """Two-qubit gates with det A / det B at a primitive 2^(k-2)-th root; parities alternate."""

    def make(rng, ctx, count):
        tasks = []
        for i in range(count):
            odd = bool(i % 2)
            j = 0 if k == 2 else 2 * int(rng.integers(2 ** (k - 3))) + 1
            u = sampling.random_two_qubit_at_root(rng, k, j, odd)
            check = partial(check_level, level=k, parity="odd" if odd else "even", closed_form=k)
            tasks.append(Task(f"planted_k{k}", "classify", partial(_call, hierarchy, "classify_gate", u), check))
        return tasks

    return Family(f"planted_k{k}", make)


def generic(n: int) -> Family:
    """Haar fermionic gates: no level up to the cap, so every route must refuse."""

    def make(rng, ctx, count):
        tasks = []
        for i in range(count):
            parity = "odd" if i % 2 else "even"
            u = sampling.random_fermionic(n, rng, parity)
            check = partial(check_level, level=None, parity=parity, closed_form="above" if n == 2 else "skip")
            run = partial(_call, hierarchy, "classify_gate", u, GENERIC_K_MAX)
            tasks.append(Task(f"generic_n{n}", "classify", run, check))
        return tasks

    return Family(f"generic_n{n}", make)


def patterns(n: int, weight: int, copies: tuple[int, ...], cnz: bool = False) -> Family:
    """Diagonal pattern gates (level weight + 1), each repeated: exact copies and phase multiples."""
    name = f"cnz{n}" if cnz else f"pattern_n{n}_w{weight}"

    def make(rng, ctx, count):
        tasks = []
        for reps in copies:
            base = circuits.build_CnZ(n) if cnz else circuits.build_F(random_pattern(rng, n, weight))
            for r in range(reps):
                u = base.copy() if r % 2 == 0 else np.exp(1j * rng.uniform(0, 2 * np.pi)) * base
                check = partial(check_level, level=weight + 1, parity="even")
                tasks.append(Task(name, "classify", partial(_call, hierarchy, "classify_gate", u), check))
        return tasks[:count]

    return Family(name, make)


def teleports(n: int) -> Family:
    def make(rng, ctx, count):
        tasks = []
        for i in range(count):
            u = sampling.random_fermionic(n, rng, "odd" if i % 2 else "even")
            psi = sampling.random_state(n, rng)
            run = partial(_call, teleport, "simulate_protocol", u, psi)
            tasks.append(Task(f"teleport_n{n}", "teleport", run, partial(check_teleport, u=u, psi=psi)))
        return tasks

    return Family(f"teleport_n{n}", make)


def reconstructions(n: int) -> Family:
    def make(rng, ctx, count):
        tasks = []
        for i in range(count):
            v = sampling.random_fermionic(n, rng, "odd" if i % 2 else "even")
            tup = [v.conj().T @ c @ v for c in jordan_wigner(n)]
            run = partial(_call, svn, "svn_reconstruct", tup)
            tasks.append(Task(f"svn_n{n}", "svn", run, partial(check_svn, v=v, tup=tup)))
        return tasks

    return Family(f"svn_n{n}", make)


def _check_parse(ir, n: int, gates) -> str | None:
    if ir.n_qubits != n or len(ir.gates) != len(gates):
        return f"parsed {ir.n_qubits} qubits / {len(ir.gates)} gates, want {n} / {len(gates)}"
    for i, (g, (pos, m)) in enumerate(zip(ir.gates, gates)):
        if g.pos != pos or float(np.abs(g.local_matrix() - m).max()) > 1e-12:
            return f"gate {i + 1} parsed wrong"
    return None


def _dense_route(ir):
    return hierarchy.extract_rotation(circuits.circuit_to_operator(ir))


def _check_compact(r, dense: Task) -> str | None:
    msg = _orthogonal_proper(r)
    if msg is not None:
        return msg
    if dense.result is None:
        return "no dense rotation to compare with"
    diff = float(np.abs(np.asarray(r) - dense.result).max())
    return None if diff < RESIDUAL else f"dense and compact rotations differ by {diff:.1e}"


def compiles(n: int, depth: int) -> Family:
    """A circuit text, parsed, then compiled by the dense and by the compact route (three tasks)."""

    def make(rng, ctx, count):
        tasks = []
        for _ in range(count):
            text, gates = circuit_text(rng, n, depth)
            ir = circuits.parse_circuit(text)
            dense = Task(f"dense_n{n}", "dense", partial(_dense_route, ir), _orthogonal_proper)
            parse = partial(_call, circuits, "parse_circuit", text)
            compact = partial(_call, circuits, "circuit_to_rotation", ir)
            tasks.append(Task(f"parse_n{n}", "parse", parse, partial(_check_parse, n=n, gates=gates)))
            tasks.append(dense)
            tasks.append(Task(f"compact_n{n}", "compact", compact, partial(_check_compact, dense=dense)))
        return tasks

    return Family(f"compile_n{n}", make)


def compact_only(ns: tuple[int, ...], depth: int) -> Family:
    """Wide circuits only the compact route can take; n cycles through ns."""

    def make(rng, ctx, count):
        tasks = []
        for i in range(count):
            n = ns[i % len(ns)]
            gates = []
            for _ in range(depth):
                _, pos, _, fields = random_gate(rng, n)
                gates.append(circuits.GateApp(pos=pos, **fields))
            ir = circuits.CircuitIR(n, tuple(gates))
            run = partial(_call, circuits, "circuit_to_rotation", ir)
            tasks.append(Task(f"compact_only_n{n}", "compact", run, _orthogonal_proper))
        return tasks

    return Family("compact_only", make)


# --- CLI families -------------------------------------------------------------

def _classify_token(kind: str, rng: np.random.Generator):
    """(token, extra CLI args, known level) of one gate-token kind."""
    if kind == "swap":
        return "SWAP", [], 3
    if kind == "cz":
        return "CZ", [], 3
    if kind == "majorana":
        return f"MAJORANA({int(rng.integers(1, 5))})", ["-n", "2"], 1
    if kind == "gauss":
        a, b = rng.uniform(-np.pi, np.pi, 2)
        return f"G(RZ({float(a)!r}),RX({float(b)!r}))", [], 2
    if kind == "cphase5":
        return f"CPHASE({2 * int(rng.integers(4)) + 1}pi/4)", [], 5
    if kind == "cnz3":
        return "CNZ(3)", [], 4
    if kind == "pattern3":
        return pattern_token(random_pattern(rng, 3, 3)), [], 4
    raise ValueError(f"unknown token kind {kind!r}")


def cli_classify(kinds: tuple[str, ...]) -> Family:
    def make(rng, ctx, count):
        tasks = []
        for i in range(count):
            kind = kinds[i % len(kinds)]
            token, extra, level = _classify_token(kind, rng)
            parity = "odd" if kind == "majorana" else "even"
            n = int(extra[1]) if extra else None

            def check(res, token=token, n=n, level=level, parity=parity):
                report = hierarchy.classify_gate(cli.gate_from_token(token, n))
                return _both(
                    lambda: check_cli(res, lambda: io.dumps_stable(report.to_json())),
                    lambda: check_level(report, level, parity),
                )

            run = partial(ctx.mgh, ["classify", "--gate", token, *extra])
            tasks.append(Task("cli_classify", "cli", run, check))
        return tasks

    return Family("cli_classify", make)


def cli_teleport(n: int) -> Family:
    def make(rng, ctx, count):
        tasks = []
        for i in range(count):
            if n == 2:
                token = f"CPHASE({2 * int(rng.integers(2)) + 1}pi/2)"
            else:
                token = pattern_token(random_pattern(rng, n, int(rng.integers(1, n + 1))))
            path = ctx.workdir / f"state_n{n}_{i}.json"
            io.save_json(path, io.state_to_json(sampling.random_state(n, rng)))

            def check(res, token=token, path=path):
                u = cli.gate_from_token(token)
                psi = io.state_from_json(io.load_json(path))
                transcript = teleport.simulate_protocol(u, psi)
                out = transcript.to_json()
                out["passed"] = transcript.max_residual < linalg.DEFAULT_TOL.residual
                return _both(
                    lambda: check_cli(res, lambda: io.dumps_stable(out)),
                    lambda: check_teleport(transcript, u, psi),
                )

            run = partial(ctx.mgh, ["teleport", "--gate", token, "--state", str(path)])
            tasks.append(Task(f"cli_teleport_n{n}", "cli", run, check))
        return tasks

    return Family(f"cli_teleport_n{n}", make)


def _svn_cli_output(tuple_path: Path, expect_path: Path) -> dict:
    """The object ``mgh svn --tuple --expect`` prints, rebuilt from library calls."""
    tol = linalg.DEFAULT_TOL
    result = svn.svn_reconstruct(io.tuple_from_json(io.load_json(tuple_path)), tol)
    match = linalg.equal_up_to_phase(result.u, io.matrix_from_json(io.load_json(expect_path)), tol.residual)
    return {
        "n_qubits": int(np.log2(result.u.shape[0])),
        "u": io.matrix_to_json(result.u),
        "residuals": [float(r) for r in result.residuals],
        "max_residual": float(result.max_residual),
        "expect": {
            "equal": match.equal,
            "residual": float(match.residual),
            "phase": None if match.phase is None else {"re": float(match.phase.real), "im": float(match.phase.imag)},
        },
        "passed": bool(result.max_residual < tol.residual and match.equal),
    }


def cli_svn(n: int) -> Family:
    def make(rng, ctx, count):
        tasks = []
        for i in range(count):
            v = sampling.random_fermionic(n, rng, "odd" if i % 2 else "even")
            tup = [v.conj().T @ c @ v for c in jordan_wigner(n)]
            tuple_path = ctx.workdir / f"tuple_n{n}_{i}.json"
            expect_path = ctx.workdir / f"expect_n{n}_{i}.json"
            io.save_json(tuple_path, io.tuple_to_json(tup))
            io.save_json(expect_path, io.matrix_to_json(v))

            def check(res, tuple_path=tuple_path, expect_path=expect_path):
                out = _svn_cli_output(tuple_path, expect_path)
                if not out["passed"]:
                    return "library reconstruction did not pass"
                return check_cli(res, lambda: io.dumps_stable(out))

            run = partial(ctx.mgh, ["svn", "--tuple", str(tuple_path), "--expect", str(expect_path)])
            tasks.append(Task(f"cli_svn_n{n}", "cli", run, check))
        return tasks

    return Family(f"cli_svn_n{n}", make)


def _parse_cli_output(text: str, emit: str) -> str:
    """What ``mgh parse --emit`` prints, rebuilt from library calls."""
    circ = circuits.parse_circuit(text)
    if emit == "canonical":
        return circuits.circuit_to_text(circ)
    if emit == "matrix":
        return io.dumps_stable(io.matrix_to_json(circuits.circuit_to_operator(circ)))
    rot = circuits.circuit_to_rotation(circ)
    return io.dumps_stable({"n_modes": rot.shape[0], "rotation": [[float(x) for x in row] for row in rot]})


def cli_parse(emits: tuple[tuple[str, int], ...], depth: int) -> Family:
    def make(rng, ctx, count):
        tasks = []
        for i in range(count):
            emit, n = emits[i % len(emits)]
            text, gates = circuit_text(rng, n, depth)
            path = ctx.workdir / f"circuit_{emit}_n{n}_{i}.txt"
            path.write_text(text)

            def check(res, text=text, emit=emit, n=n, gates=gates):
                return _both(
                    lambda: _check_parse(circuits.parse_circuit(text), n, gates),
                    lambda: check_cli(res, lambda: _parse_cli_output(text, emit)),
                )

            run = partial(ctx.mgh, ["parse", str(path), "--emit", emit])
            tasks.append(Task(f"cli_parse_{emit}", "cli", run, check))
        return tasks

    return Family("cli_parse", make)


# --- workloads ----------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hierarchy_mix",
            "level search: repeat-free planted and generic gates plus a repeat-heavy pattern tail, "
            "so per-node cost and memoization changes can be told apart",
            [
                (planted(2), 6),
                (planted(3), 6),
                (planted(4), 20),
                (planted(5), 11),
                (planted(6), 4),
                (generic(2), 6),
                (generic(3), 4),
                (patterns(3, 1, (2, 2)), 4),
                (patterns(3, 2, (2, 2)), 4),
                (patterns(3, 3, (2, 2, 2, 2)), 8),
                (patterns(4, 1, (2,)), 2),
                (patterns(4, 2, (2, 2)), 4),
                (patterns(4, 3, (4, 4, 3, 3)), 14),
                (patterns(4, 4, (2,), cnz=True), 2),
                (cli_classify(("swap", "cz", "majorana", "gauss", "cphase5", "cnz3", "pattern3", "cphase5")), 8),
                (teleports(2), 4),
                (reconstructions(4), 4),
                (compiles(4, 12), 2),
                (cli_svn(3), 1),
            ],
        ),
        Workload(
            "protocol_mix",
            "Majorana words, the dense Bell-pair network and SvN columns; barely touches the level "
            "search, so hierarchy changes are predicted flat here",
            [
                (teleports(2), 4),
                (teleports(3), 50),
                (teleports(4), 2),
                (reconstructions(4), 4),
                (reconstructions(5), 4),
                (reconstructions(6), 14),
                (reconstructions(7), 2),
                (cli_teleport(2), 2),
                (cli_teleport(3), 2),
                (cli_svn(3), 2),
                (cli_svn(4), 2),
                (cli_svn(5), 2),
                (planted(2), 2),
                (planted(3), 2),
                (compiles(4, 40), 4),
            ],
        ),
        Workload(
            "compile_mix",
            "circuit backends: many gates on <=8 qubits by both routes and wide compact-only "
            "circuits, so the dense/compact crossover and per-gate rotation cost show",
            [
                (compiles(4, 60), 8),
                (compiles(6, 60), 8),
                (compiles(8, 60), 2),
                (compact_only((12, 16, 24, 32, 40, 48), 200), 44),
                (cli_parse((("canonical", 4), ("matrix", 5), ("rotation", 5), ("rotation", 6)), 30), 4),
                (cli_classify(("swap",)), 1),
                (cli_svn(3), 1),
                (planted(4), 4),
                (teleports(3), 4),
                (reconstructions(5), 4),
            ],
        ),
    )
}


# --- running ------------------------------------------------------------------


class Mix:
    """A workload bound to a seed: generates each pass's tasks and warms up."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir

    def tasks(self, pass_index: int, tracer=None, unit: bool = False) -> list[Task]:
        """Inputs of one pass in a seeded order; pass -1 is the warm-up.

        With unit, every family makes one unit of work instead of its count.
        """
        ctx = Context(self.workdir / f"pass{pass_index + 1}", tracer)
        ctx.workdir.mkdir(parents=True, exist_ok=True)
        tasks: list[Task] = []
        for f_index, (family, count) in enumerate(self.workload.mix):
            rng = np.random.default_rng([self.seed, pass_index + 1, f_index])
            tasks.extend(family.make(rng, ctx, 1 if unit else count))
        order = np.random.default_rng([self.seed, pass_index + 1, len(self.workload.mix)]).permutation(len(tasks))
        return [tasks[i] for i in order]

    def warm_up(self) -> list[str]:
        """Run and check one unit of every family, untimed, so lazy set-up is done."""
        tasks = self.tasks(-1, unit=True)
        run_tasks(tasks)
        failures = check_tasks(tasks)
        self.discard(-1)
        return failures

    def discard(self, pass_index: int) -> None:
        shutil.rmtree(self.workdir / f"pass{pass_index + 1}", ignore_errors=True)


def run_tasks(tasks: list[Task], tracer=None, task_base: int = 0, calibrate_every: int = 0):
    """Run tasks back to back and return each task's latency.

    With calibrate_every = k, also returns a kernel sample (see calibrate.py)
    taken before every k-th task and after the last one; samples fall between
    tasks, outside every latency.
    """
    latencies: list[float] = []
    samples: list[float] = []
    clock = time.perf_counter
    for i, task in enumerate(tasks):
        if calibrate_every and i % calibrate_every == 0:
            samples.append(calibrate.sample())
        if tracer is not None:
            tracer.task_id = task_base + i
        t0 = clock()
        try:
            task.result = task.run()
        except Exception as exc:  # a raising task is a failed task; the pass goes on
            task.error = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
    if calibrate_every:
        samples.append(calibrate.sample())
    return latencies, samples


def check_tasks(tasks: list[Task]) -> list[str]:
    """Oracle verdicts: one line per failed task."""
    failures = []
    for task in tasks:
        msg = task.error
        if msg is None:
            try:
                msg = task.check(task.result)
            except Exception as exc:  # an oracle that cannot evaluate the answer fails it
                msg = f"oracle raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append(f"{task.family}: {msg}")
    return failures
