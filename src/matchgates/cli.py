"""Command line interface.

Subcommands: classify a gate against the hierarchy, run the teleportation
protocol, reconstruct a unitary from a conjugated Majorana tuple, parse
and re-emit circuit files, and run the built-in verification corpus.

Exit codes: 0 success, 1 bad input (parse errors, non-unitary matrices,
tuples failing the anticommutation relations), 2 classification ran but
was inconclusive (fermionic gate with no level up to k_max), 3 a
verification check failed (teleportation residual, reconstruction
contract, self-test criterion).

The environment variable MGH_TOL overrides the residual tolerance.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click
import numpy as np

from .circuits import (
    CircuitError,
    NotGaussianError,
    build_CnZ,
    build_F,
    build_G,
    build_J,
    circuit_to_operator,
    circuit_to_rotation,
    circuit_to_text,
    lex_token,
    named_token,
    parse_circuit,
    split_args,
)
from .hierarchy import class_phases, classify_gate
from .io import (
    dumps_stable,
    load_json,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    tuple_from_json,
)
from .linalg import DEFAULT_TOL, Tolerances, equal_up_to_phase
from .majorana import jw_majorana
from .svn import svn_reconstruct
from .teleport import simulate_protocol, verify_protocol

EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY = 3


def _fail(message: str, code: int = EXIT_INPUT) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _tolerances() -> Tolerances:
    raw = os.environ.get("MGH_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        _fail(f"MGH_TOL must be a number, got {raw!r}")
    if value <= 0:
        _fail("MGH_TOL must be positive")
    return Tolerances(residual=value)


def gate_from_token(token: str, n_qubits: int | None = None) -> np.ndarray:
    """Dense unitary from a gate token.

    Accepted forms: named gates (SWAP, CZ, FSWAP, GHH, X, Z, H, ...),
    parametrized ones (CPHASE(pi/2), P(0.3), RZ(-pi/4)), block forms
    G(H,H) and J(X,X) with one-qubit gate tokens as blocks, pattern gates
    F(1,*,1) with * as wildcard, CNZ(n), and MAJORANA(mu) which needs
    --n-qubits when mu is not meant for the smallest register that fits.
    Named gates and blocks use the circuit-file grammar of `circuits`;
    F, CNZ and MAJORANA are command-line only.
    """
    name, inner = lex_token(token)
    head = name.upper()

    if head in ("G", "J"):
        if inner is None:
            raise ValueError(f"{head} needs two block gates, e.g. {head}(H,H)")
        args = split_args(inner)
        if len(args) != 2:
            raise ValueError(f"{head} needs exactly two block gates, got {len(args)}")
        blocks = [named_token(*lex_token(arg, "block"))[2] for arg in args]
        return build_G(*blocks) if head == "G" else build_J(*blocks)

    if head == "F":
        if inner is None:
            raise ValueError("F needs a pattern, e.g. F(1,*,1)")
        entries: list[int | None] = []
        for p in split_args(inner):
            if p in ("*", "?"):
                entries.append(None)
            elif p in ("0", "1"):
                entries.append(int(p))
            else:
                raise ValueError(f"pattern entries are 0, 1, or *, got {p!r}")
        return build_F(tuple(entries))

    if head == "CNZ":
        if inner is None:
            raise ValueError("CNZ needs a qubit count, e.g. CNZ(3)")
        return build_CnZ(int(inner))

    if head in ("MAJORANA", "C"):
        if inner is None:
            raise ValueError("MAJORANA needs an index, e.g. MAJORANA(3)")
        mu = int(inner)
        if mu < 1:
            raise ValueError("Majorana indices start at 1")
        n = n_qubits if n_qubits is not None else (mu + 1) // 2
        return jw_majorana(n, mu)

    return named_token(head, inner)[2]


def _load_unitary(
    gate: str | None, circuit: str | None, matrix: str | None, n_qubits: int | None, tol: Tolerances
) -> np.ndarray:
    given = sum(x is not None for x in (gate, circuit, matrix))
    if given != 1:
        _fail("provide exactly one of --gate, --circuit, --matrix")
    try:
        if gate is not None:
            return gate_from_token(gate, n_qubits)
        if circuit is not None:
            text = Path(circuit).read_text()
            return circuit_to_operator(parse_circuit(text, tol))
        return matrix_from_json(load_json(matrix))
    except (ValueError, OSError) as exc:
        _fail(str(exc))
    raise AssertionError("unreachable")


def _emit(obj: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        click.echo(dumps_stable(obj), nl=False)
    else:
        for line in text_lines(obj):
            click.echo(line)


_GATE_SOURCES = [
    click.option("--gate", default=None, metavar="TOKEN", help="Gate token, e.g. SWAP, CPHASE(pi/2), F(1,*,1), G(H,H), MAJORANA(3)."),
    click.option("--circuit", default=None, type=click.Path(), help="Circuit text file; the command acts on its dense unitary."),
    click.option("--matrix", default=None, type=click.Path(), help="Matrix JSON file {n, re, im}."),
    click.option("-n", "--n-qubits", default=None, type=int, help="Register size for MAJORANA tokens."),
]


def _with_gate_sources(fn):
    for opt in reversed(_GATE_SOURCES):
        fn = opt(fn)
    return fn


_FMT = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json", show_default=True
)


@click.group()
@click.version_option(package_name="matchgates")
def main() -> None:
    """Matchgate hierarchy toolkit."""


@main.command()
@_with_gate_sources
@click.option("--k-max", default=8, show_default=True, help="Highest hierarchy level probed.")
@_FMT
def classify(gate, circuit, matrix, n_qubits, k_max, fmt) -> None:
    """Classify a gate: parity, Gaussianity, rotation, minimum level.

    Exits 2 when the gate is fermionic but no level up to k-max contains
    it (raise --k-max or accept that the gate sits above the cap).
    """
    tol = _tolerances()
    u = _load_unitary(gate, circuit, matrix, n_qubits, tol)
    try:
        report = classify_gate(u, k_max=k_max, tol=tol)
    except ValueError as exc:
        _fail(str(exc))

    def lines(d):
        yield f"qubits: {d['n_qubits']}"
        yield f"parity: {d['parity']}"
        yield f"gaussian: {'yes' if d['is_gaussian'] else 'no'}"
        if d["min_level"] is not None:
            yield f"min level: {d['min_level']} (probed up to {d['k_max']})"
        elif d["parity"] != "none":
            yield f"min level: none up to k_max = {d['k_max']}"
        else:
            yield "min level: undefined (gate mixes parities)"
        if d["rotation"] is not None:
            yield f"rotation: {2 * d['n_qubits']}x{2 * d['n_qubits']} orthogonal, det {d['rotation_det']:+.6f}"
        else:
            yield "rotation: none (not Gaussian)"
        if d["two_qubit"] is not None:
            t = d["two_qubit"]
            closed = t["level_closed_form"]
            yield (
                f"two-qubit: phi = {t['phi']:.12g}, generalised = {t['generalised_phi']:.12g}, "
                f"closed-form level = {closed if closed is not None else 'none (generic phase)'}, "
                f"class ~ {t['class_representative']}"
            )

    _emit(report.to_json(), fmt, lines)
    if report.parity != "none" and report.min_level is None:
        sys.exit(EXIT_INCONCLUSIVE)


@main.command()
@_with_gate_sources
@click.option("--state", default=None, type=click.Path(), help="Input state JSON; omit to verify over random states.")
@click.option("--trials", default=5, show_default=True, help="Random input states when --state is absent.")
@click.option("--seed", default=0, show_default=True)
@click.option("--k-max-corrections", default=6, show_default=True, help="Level cap when classifying the corrections.")
@click.option("--include-states", is_flag=True, help="Embed branch state vectors in the transcript output.")
@_FMT
def teleport(gate, circuit, matrix, n_qubits, state, trials, seed, k_max_corrections, include_states, fmt) -> None:
    """Teleport a gate through its magic state and verify every branch.

    With --state, runs a single transcript on that input; otherwise
    aggregates over seeded random inputs and classifies the corrections.
    Exits 3 when any branch misses the target beyond tolerance.
    """
    tol = _tolerances()
    u = _load_unitary(gate, circuit, matrix, n_qubits, tol)
    try:
        if state is not None:
            psi = state_from_json(load_json(state))
            transcript = simulate_protocol(u, psi, tol)
            ok = transcript.max_residual < tol.residual
            out = transcript.to_json(include_states=include_states)
            out["passed"] = ok

            def lines(d):
                yield f"qubits: {d['n']}"
                yield f"branches: {len(d['branches'])}"
                yield f"max residual: {d['max_residual']:.3e}"
                yield f"max probability deviation: {d['max_probability_deviation']:.3e}"
                yield "passed" if d["passed"] else "FAILED"

        else:
            report = verify_protocol(u, trials=trials, seed=seed, k_max_corrections=k_max_corrections, tol=tol)
            ok = report.passed
            out = report.to_json()

            def lines(d):
                yield f"qubits: {d['n']}, trials: {d['trials']}, branches: {d['branch_count']}"
                yield f"max residual: {d['max_residual']:.3e}"
                yield f"max probability deviation: {d['max_probability_deviation']:.3e}"
                for entry in d["correction_levels"]:
                    lvl = entry["min_level"]
                    label = lvl if lvl is not None else f"above cap {k_max_corrections}"
                    yield f"corrections at level {label}: {entry['count']}"
                yield "passed" if d["passed"] else "FAILED"

    except (ValueError, OSError) as exc:
        _fail(str(exc))
    _emit(out, fmt, lines)
    if not ok:
        sys.exit(EXIT_VERIFY)


@main.command()
@click.option("--tuple", "tuple_path", required=True, type=click.Path(), help="Operator tuple JSON (list of matrices).")
@click.option("--expect", default=None, type=click.Path(), help="Matrix JSON of the unitary expected up to phase.")
@_FMT
def svn(tuple_path, expect, fmt) -> None:
    """Reconstruct the unitary that conjugates the standard Majoranas
    into the given tuple.

    The tuple must satisfy the anticommutation relations (exit 1
    otherwise). Exits 3 when the reconstruction misses the contract or
    the --expect comparison fails.
    """
    tol = _tolerances()
    try:
        ops = tuple_from_json(load_json(tuple_path))
        result = svn_reconstruct(ops, tol)
    except (ValueError, OSError) as exc:
        _fail(str(exc))
    out = {
        "n_qubits": int(np.log2(result.u.shape[0])),
        "u": matrix_to_json(result.u),
        "residuals": [float(r) for r in result.residuals],
        "max_residual": float(result.max_residual),
    }
    ok = result.max_residual < tol.residual
    if expect is not None:
        try:
            want = matrix_from_json(load_json(expect))
        except (ValueError, OSError) as exc:
            _fail(str(exc))
        match = equal_up_to_phase(result.u, want, tol.residual)
        out["expect"] = {
            "equal": match.equal,
            "residual": float(match.residual),
            "phase": None
            if match.phase is None
            else {"re": float(match.phase.real), "im": float(match.phase.imag)},
        }
        ok = ok and match.equal
    out["passed"] = ok

    def lines(d):
        yield f"qubits: {d['n_qubits']}"
        yield f"max contract residual: {d['max_residual']:.3e}"
        if "expect" in d:
            yield f"matches expected unitary up to phase: {'yes' if d['expect']['equal'] else 'no'} (residual {d['expect']['residual']:.3e})"
        yield "passed" if d["passed"] else "FAILED"

    _emit(out, fmt, lines)
    if not ok:
        sys.exit(EXIT_VERIFY)


@main.command()
@click.argument("path", type=click.Path())
@click.option(
    "--emit",
    type=click.Choice(["canonical", "matrix", "rotation"]),
    default="canonical",
    show_default=True,
    help="canonical re-emits the text form; matrix and rotation print JSON.",
)
def parse(path, emit) -> None:
    """Parse a circuit file; re-emit it or compile it.

    Rejects non-matchgate gates unless the file says `allow freeform`;
    --emit rotation additionally requires every gate to be fermionic.
    """
    tol = _tolerances()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail(str(exc))
    try:
        circ = parse_circuit(text, tol)
        if emit == "canonical":
            click.echo(circuit_to_text(circ), nl=False)
        elif emit == "matrix":
            click.echo(dumps_stable(matrix_to_json(circuit_to_operator(circ))), nl=False)
        else:
            rot = circuit_to_rotation(circ, tol)
            obj = {"n_modes": rot.shape[0], "rotation": [[float(x) for x in row] for row in rot]}
            click.echo(dumps_stable(obj), nl=False)
    except (CircuitError, NotGaussianError, ValueError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--seed", default=None, type=int, help="Base seed; defaults to the built-in one.")
@click.option("--only", default=None, metavar="LIST", help="Comma-separated criterion numbers, e.g. 1,4,6.")
@_FMT
def selftest(seed, only, fmt) -> None:
    """Run the verification corpus (ten criteria); exits 3 on failure."""
    from .selftest import BASE_SEED, run_selected

    base = BASE_SEED if seed is None else seed
    if only is None:
        indices = list(range(1, 11))
    else:
        try:
            indices = sorted({int(p) for p in only.split(",") if p.strip()})
        except ValueError:
            _fail(f"bad --only list {only!r}")
    try:
        results = run_selected(indices, base)
    except ValueError as exc:
        _fail(str(exc))
    all_passed = all(r.passed for r in results)
    out = {
        "seed": base,
        "passed": all_passed,
        "results": [
            {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "class_phases": {str(k): class_phases(k) for k in range(2, 7)},
    }

    def lines(d):
        for r in results:
            yield r.line()
        yield f"{sum(r.passed for r in results)}/{len(results)} criteria passed"

    _emit(out, fmt, lines)
    if not all_passed:
        sys.exit(EXIT_VERIFY)


if __name__ == "__main__":
    main()
