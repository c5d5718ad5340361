"""Command line interface.

Subcommands: classify a gate against the hierarchy, run the teleportation
protocol, reconstruct a unitary from a conjugated Majorana tuple, parse
and re-emit circuit files, and run the built-in verification corpus.

Exit codes: 0 success, 1 bad input (parse errors, non-unitary matrices,
tuples failing the anticommutation relations or not Hermitian, a level
cap below 1, a teleport option of the mode not run, -n without a
MAJORANA or C token, an array too large to allocate, a bad subcommand
option, value or name), 2 classification ran but was inconclusive
(fermionic gate with no level up to k_max), 3 a verification check
failed (teleportation residual, reconstruction contract, self-test
criterion), 4 a level search was refused before it started because it
would exceed the work guard (lower --k-max, or --k-max-corrections for
teleport). Each refusal is one `error:` line on stderr. A command raises
it and never writes it: the group's invoke is the one place that maps
exceptions to that line and its exit code. A bare `mgh` and a bad option
of the group itself fail before that, in click's argument parsing, and
keep click's usage block and exit 2.

Exit 3 is decided from the printed report alone: _emit writes a result
and then exits 3 exactly when its "passed" is false. teleport, svn and
selftest put their verdict into "passed" and decide nothing else.

A bad gate token is refused by the same check, in the same words, on
--gate and in a circuit file (circuits._block_token for G/J blocks,
named_token and named_gate for the rest): a token that does not lex,
then an unknown block name, then a bad angle, then an unknown gate name
or a wrong number of angles.

The environment variable MGH_TOL, a finite positive number, sets epsilon,
the residual tolerance; the unitary, norm and angle thresholds are fixed.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .circuits import (
    _block_token,
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
from .hierarchy import SearchBudgetError, class_phases, classify_gate
from .io import (
    complex_to_json,
    dumps_stable,
    load_json,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    tuple_from_json,
)
from .linalg import DEFAULT_TOL, Tolerances, equal_up_to_phase, n_qubits_of
from .majorana import jw_majorana
from .svn import svn_reconstruct
from .teleport import simulate_protocol, verify_protocol

EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4


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
        raise ValueError(f"MGH_TOL must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"MGH_TOL must be finite, got {raw!r}")
    if value <= 0:
        raise ValueError("MGH_TOL must be positive")
    return Tolerances(residual=value)


def _count(head: str, inner: str | None, what: str) -> int:
    """The integer k >= 1 of a CNZ(k) or MAJORANA(k) token."""
    try:
        k = int(inner)
    except (TypeError, ValueError):
        k = 0
    if k < 1:
        raise ValueError(f"{head} needs {what} >= 1, got {'nothing' if inner is None else repr(inner)}")
    return k


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
        blocks = [_block_token(arg)[2] for arg in args]
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
        return build_CnZ(_count(head, inner, "a qubit count n"))

    if head in ("MAJORANA", "C"):
        mu = _count(head, inner, "a Majorana index mu")
        n = n_qubits if n_qubits is not None else (mu + 1) // 2
        return jw_majorana(n, mu)

    return named_token(head, inner)[2]


def _load_unitary(
    gate: str | None, circuit: str | None, matrix: str | None, n_qubits: int | None, tol: Tolerances
) -> np.ndarray:
    given = sum(x is not None for x in (gate, circuit, matrix))
    if given != 1:
        raise ValueError("provide exactly one of --gate, --circuit, --matrix")
    if n_qubits is not None and (gate is None or lex_token(gate)[0].upper() not in ("MAJORANA", "C")):
        raise ValueError("-n/--n-qubits applies only to a MAJORANA(mu) or C(mu) gate token")
    if gate is not None:
        return gate_from_token(gate, n_qubits)
    if circuit is not None:
        return circuit_to_operator(parse_circuit(Path(circuit).read_text(), tol))
    return matrix_from_json(load_json(matrix))


def _emit(obj: dict, fmt: str, text_lines) -> None:
    """Write a result, then exit 3 when it says "passed": false; the one
    place a verification failure becomes an exit code."""
    if fmt == "json":
        click.echo(dumps_stable(obj), nl=False)
    else:
        for line in text_lines(obj):
            click.echo(line)
    if obj.get("passed") is False:
        sys.exit(EXIT_VERIFY)


_GATE_SOURCES = [
    click.option("--gate", default=None, metavar="TOKEN", help="Gate token, e.g. SWAP, CPHASE(pi/2), F(1,*,1), G(H,H), MAJORANA(3)."),
    click.option("--circuit", default=None, type=click.Path(), help="Circuit text file; the command acts on its dense unitary."),
    click.option("--matrix", default=None, type=click.Path(), help="Matrix JSON file {n, re, im}."),
    click.option("-n", "--n-qubits", default=None, type=int, help="Register size for MAJORANA(mu) and C(mu) tokens; refused otherwise."),
]


def _with_gate_sources(fn):
    for opt in reversed(_GATE_SOURCES):
        fn = opt(fn)
    return fn


_FMT = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json", show_default=True
)


class _RefusalGroup(click.Group):
    """The one place a refusal becomes an `error:` line and its exit code:
    a usage error, an allocation that cannot be made or any other
    ValueError or OSError exits 1, a refused level search exits 4."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(exc.format_message())
        except SearchBudgetError as exc:
            _fail(str(exc), EXIT_BUDGET)
        except BrokenPipeError:
            raise  # a closed stdout is not bad input; click exits 1 quietly
        except (ValueError, OSError, MemoryError) as exc:
            _fail(str(exc))


@click.group(cls=_RefusalGroup)
@click.version_option(version=__version__)
def main() -> None:
    """Matchgate hierarchy toolkit."""


@main.command()
@_with_gate_sources
@click.option("--k-max", default=8, show_default=True, help="Highest hierarchy level probed.")
@_FMT
def classify(gate, circuit, matrix, n_qubits, k_max, fmt) -> None:
    """Classify a gate: parity, Gaussianity, rotation, minimum level.

    Exits 2 when the gate is fermionic but no level up to k-max contains
    it (raise --k-max or accept that the gate sits above the cap), and 4
    when the search up to k-max would exceed the work guard. An exactly
    diagonal gate whose phase ratios are exact 2^M-th roots of unity (M =
    19 at the default tolerance) is classified on its phase vector and is
    never refused.
    """
    tol = _tolerances()
    u = _load_unitary(gate, circuit, matrix, n_qubits, tol)
    report = classify_gate(u, k_max=k_max, tol=tol)

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
@click.option("--trials", default=5, show_default=True, help="Random input states (without --state).")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0), help="Seed of the random input states (without --state).")
@click.option("--k-max-corrections", default=6, show_default=True, help="Level cap when classifying the corrections (without --state).")
@click.option("--include-states", is_flag=True, help="Embed branch state vectors in the transcript (with --state).")
@_FMT
def teleport(gate, circuit, matrix, n_qubits, state, trials, seed, k_max_corrections, include_states, fmt) -> None:
    """Teleport a gate through its magic state and verify every branch.

    With --state, runs a single transcript on that input; --include-states
    belongs to this mode. Otherwise aggregates over seeded random inputs
    and classifies the corrections; --trials, --seed and
    --k-max-corrections belong to that mode. An option of the other mode
    is refused (exit 1). Exits 3 when any branch misses the target beyond
    tolerance.
    """
    if state is None and include_states:
        raise ValueError("--include-states needs --state")
    if state is not None:
        ctx = click.get_current_context()
        given = [
            "--" + name.replace("_", "-")
            for name in ("trials", "seed", "k_max_corrections")
            if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT
        ]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be used with --state")
    tol = _tolerances()
    u = _load_unitary(gate, circuit, matrix, n_qubits, tol)
    if state is not None:
        psi = state_from_json(load_json(state))
        transcript = simulate_protocol(u, psi, tol)
        out = transcript.to_json(include_states=include_states)
        out["passed"] = transcript.max_residual < tol.residual

        def lines(d):
            yield f"qubits: {d['n']}"
            yield f"branches: {len(d['branches'])}"
            yield f"max residual: {d['max_residual']:.3e}"
            yield f"max probability deviation: {d['max_probability_deviation']:.3e}"
            yield "passed" if d["passed"] else "FAILED"

    else:
        out = verify_protocol(u, trials=trials, seed=seed, k_max_corrections=k_max_corrections, tol=tol).to_json()

        def lines(d):
            yield f"qubits: {d['n']}, trials: {d['trials']}, branches: {d['branch_count']}"
            yield f"max residual: {d['max_residual']:.3e}"
            yield f"max probability deviation: {d['max_probability_deviation']:.3e}"
            for entry in d["correction_levels"]:
                lvl = entry["min_level"]
                label = lvl if lvl is not None else f"above cap {k_max_corrections}"
                yield f"corrections at level {label}: {entry['count']}"
            yield "passed" if d["passed"] else "FAILED"
    _emit(out, fmt, lines)


@main.command()
@click.option("--tuple", "tuple_path", required=True, type=click.Path(), help="Operator tuple JSON (list of matrices).")
@click.option("--expect", default=None, type=click.Path(), help="Matrix JSON of the unitary expected up to phase.")
@_FMT
def svn(tuple_path, expect, fmt) -> None:
    """Reconstruct the unitary that conjugates the standard Majoranas
    into the given tuple.

    The tuple must be Hermitian and satisfy the anticommutation
    relations (exit 1 otherwise). Exits 3 when the reconstruction misses
    the contract or the --expect comparison fails.
    """
    tol = _tolerances()
    result = svn_reconstruct(tuple_from_json(load_json(tuple_path)), tol)
    out = {
        "n_qubits": n_qubits_of(result.u),
        "u": matrix_to_json(result.u),
        "residuals": result.residuals.tolist(),
        "max_residual": float(result.max_residual),
        "passed": result.max_residual < tol.residual,
    }
    if expect is not None:
        match = equal_up_to_phase(result.u, matrix_from_json(load_json(expect)), tol.residual)
        out["expect"] = {
            "equal": match.equal,
            "residual": float(match.residual),
            "phase": None if match.phase is None else complex_to_json(match.phase),
        }
        out["passed"] = out["passed"] and match.equal

    def lines(d):
        yield f"qubits: {d['n_qubits']}"
        yield f"max contract residual: {d['max_residual']:.3e}"
        if "expect" in d:
            yield f"matches expected unitary up to phase: {'yes' if d['expect']['equal'] else 'no'} (residual {d['expect']['residual']:.3e})"
        yield "passed" if d["passed"] else "FAILED"

    _emit(out, fmt, lines)


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
    circ = parse_circuit(Path(path).read_text(), tol)
    if emit == "canonical":
        click.echo(circuit_to_text(circ), nl=False)
    elif emit == "matrix":
        click.echo(dumps_stable(matrix_to_json(circuit_to_operator(circ))), nl=False)
    else:
        rot = circuit_to_rotation(circ, tol)
        obj = {"n_modes": rot.shape[0], "rotation": rot.tolist()}
        click.echo(dumps_stable(obj), nl=False)


@main.command()
@click.option("--seed", default=None, type=int, help="Base seed; defaults to the built-in one.")
@click.option("--only", default=None, metavar="LIST", help="Comma-separated criterion numbers, e.g. 1,4,6.")
@_FMT
def selftest(seed, only, fmt) -> None:
    """Run the verification corpus (ten criteria); exits 3 on failure."""
    from .selftest import ALL_CRITERIA, BASE_SEED, run_selected

    base = BASE_SEED if seed is None else seed
    if only is None:
        indices = list(range(1, len(ALL_CRITERIA) + 1))
    else:
        try:
            indices = sorted({int(p) for p in only.split(",") if p.strip()})
        except ValueError:
            raise ValueError(f"bad --only list {only!r}") from None
        if not indices:
            raise ValueError(f"--only list {only!r} names no criterion")
    results = run_selected(indices, base)
    out = {
        "seed": base,
        "passed": all(r.passed for r in results),
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


if __name__ == "__main__":
    main()
