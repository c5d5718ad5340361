"""JSON codecs for matrices, states, and operator tuples.

Matrix files: {"n": qubits, "re": [[...]], "im": [[...]]}, row-major,
qubit 1 most significant. Operator-tuple files are either a bare list of
matrix objects or {"n": ..., "operators": [...]}. In matrix, state and
tuple files alike "n" may be left out; when given, it must be the integer
qubit count of the matrix, the state or the tuple's operators.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .linalg import n_qubits_of


def complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _floats(a: np.ndarray) -> list:
    """Nested lists of Python floats, also for an integer array."""
    return np.asarray(a, dtype=float).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    return {"n": n_qubits_of(m), "re": _floats(m.real), "im": _floats(m.imag)}


def _re_im(data, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The float arrays under "re" and "im" of a decoded JSON object; refuses
    a non-object, a missing key, and an entry that is not a finite number."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object with 're' and 'im', got {type(data).__name__}")
    for key in ("re", "im"):
        if key not in data:
            raise ValueError(f"{what} JSON has no {key!r} key")
    return _finite_floats(data["re"], f"{what} JSON 're'"), _finite_floats(data["im"], f"{what} JSON 'im'")


def _finite_floats(value, field: str) -> np.ndarray:
    """value as a float array; refuses, naming the field, a ragged array and
    an entry that is not a JSON number (null, true and strings included) or
    is not finite."""
    entries = np.array(value, dtype=object)  # a ragged row stays a list entry
    if not set(map(type, entries.flat)) <= {int, float}:
        bad = next(x for x in entries.flat if type(x) not in (int, float))
        raise ValueError(f"{field} must be a rectangular array of numbers, found {json.dumps(bad)}")
    try:
        floats = entries.astype(float)
    except OverflowError:  # an integer beyond the float range
        floats = np.array(math.inf)
    if not np.isfinite(floats).all():
        raise ValueError(f"{field} has an entry that is not finite")
    return floats


def matrix_from_json(data: dict) -> np.ndarray:
    re, im = _re_im(data, "matrix")
    if re.shape != im.shape or re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise ValueError(f"matrix JSON has mismatched shapes {re.shape} vs {im.shape}")
    m = re + 1j * im
    _check_n(data, n_qubits_of(m), "matrix")
    return m


def _check_n(data, n: int, what: str) -> None:
    """Refuse a decoded object whose 'n', when present, is not the integer n."""
    if isinstance(data, dict) and "n" in data:
        if type(data["n"]) is not int:  # a bool is an int subclass
            raise ValueError(f"{what} JSON 'n' must be an integer, got {data['n']!r}")
        if data["n"] != n:
            raise ValueError(f"{what} JSON says n={data['n']} but dimension gives n={n}")


def state_to_json(psi: np.ndarray) -> dict:
    return {"n": n_qubits_of(psi), "re": _floats(psi.real), "im": _floats(psi.imag)}


def state_from_json(data: dict) -> np.ndarray:
    re, im = _re_im(data, "state")
    if re.shape != im.shape or re.ndim != 1:
        raise ValueError(f"state JSON needs 1-D 're' and 'im' of one length, got shapes {re.shape} vs {im.shape}")
    psi = re + 1j * im
    _check_n(data, n_qubits_of(psi), "state")
    return psi


def tuple_to_json(ops: list[np.ndarray]) -> dict:
    return {"n": n_qubits_of(ops[0]), "operators": [matrix_to_json(op) for op in ops]}


def tuple_from_json(data) -> list[np.ndarray]:
    if isinstance(data, list):
        entries = data
    elif isinstance(data, dict) and "operators" in data:
        entries = data["operators"]
    else:
        raise ValueError("expected a list of matrices or an object with 'operators'")
    if not isinstance(entries, list):
        raise ValueError(f"tuple JSON 'operators' must be a list, got {type(entries).__name__}")
    ops = [matrix_from_json(entry) for entry in entries]
    if not ops:
        raise ValueError("empty operator tuple")
    _check_n(data, n_qubits_of(ops[0]), "tuple")  # n counts the qubits of the operators
    return ops


def dumps_stable(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def load_json(path: str | Path):
    return json.loads(Path(path).read_text())


def save_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps_stable(obj))
