"""Primitive sweep over qubit count n, run only in the traced run.

For each primitive, ``sweep.<function>.n<k>.us`` is the median call time
at each n of a fixed grid, and ``sweep.<function>.max_n`` is the largest n
whose call stays within one fixed per-call budget, searched upwards along a
ladder until the first n over budget. Each ladder stops where the next
step would need hundreds of megabytes, so a saturated ``max_n`` equals the
top of its ladder. Inputs come from the seed; call time does not depend on
their values, only on n.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from matchgates import circuits, hierarchy, majorana, svn, teleport

from workloads import block_gate, jordan_wigner, random_gate, rotation

BUDGET_S = 0.1  # per-call budget that defines max_n
DEPTH = 200  # circuit depth of the two compilation routes
MIN_CALLS = 3
MIN_TIME_S = 0.3


def _gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    """A matchgate on wires 1, 2 of n qubits (parity even, Gaussian)."""
    t, s = rng.uniform(-np.pi, np.pi, 2)
    g = block_gate(rotation("RX", t), rotation("RZ", s))
    return np.kron(g, np.eye(2 ** (n - 2))) if n > 2 else g


def _state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def _even_operator(n, rng):
    m = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    sign = np.array([1.0 - 2.0 * (bin(z).count("1") % 2) for z in range(2**n)])
    return (majorana.parity_of, (m * np.outer(sign, sign),))


def _first_level(n, rng):
    t = rng.uniform(0, 2 * np.pi)
    c1 = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2 ** (n - 1)))
    c2 = np.kron(np.array([[0, -1j], [1j, 0]]), np.eye(2 ** (n - 1)))
    return (hierarchy.first_level_coeffs, (np.cos(t) * c1 + np.sin(t) * c2,))


def _rotation(n, rng):
    return (hierarchy.extract_rotation, (_gaussian(n, rng),))


def _lambda(n, rng):
    return (hierarchy.is_gaussian_lambda, (_gaussian(n, rng),))


def _reconstruct(n, rng):
    v = _gaussian(n, rng)
    return (svn.svn_reconstruct, ([v.conj().T @ c @ v for c in jordan_wigner(n)],))


def _teleport(n, rng):
    u = _gaussian(n, rng) if n > 1 else rotation("RZ", rng.uniform(-np.pi, np.pi))
    return (teleport.simulate_protocol, (u, _state(n, rng)))


def _circuit(n, rng):
    gates = [random_gate(rng, n) for _ in range(DEPTH)]
    return circuits.CircuitIR(n, tuple(circuits.GateApp(pos=pos, **fields) for _, pos, _, fields in gates))


def _dense(n, rng):
    return (circuits.circuit_to_operator, (_circuit(n, rng),))


def _compact(n, rng):
    return (circuits.circuit_to_rotation, (_circuit(n, rng),))


# name -> (input maker, reported grid, search ladder)
SWEEPS = {
    "parity_of": (_even_operator, (2, 4, 6, 8, 10), tuple(range(1, 11))),
    "first_level_coeffs": (_first_level, (2, 4, 6, 8), tuple(range(1, 10))),
    "extract_rotation": (_rotation, (2, 4, 6, 8), tuple(range(2, 10))),
    "is_gaussian_lambda": (_lambda, (2, 3, 4, 5), tuple(range(2, 6))),
    "svn_reconstruct": (_reconstruct, (2, 4, 6, 7), tuple(range(2, 9))),
    "simulate_protocol": (_teleport, (1, 2, 3, 4), tuple(range(1, 6))),
    "circuit_to_operator": (_dense, (2, 4, 6, 8), tuple(range(2, 10))),
    "circuit_to_rotation": (_compact, (4, 8, 16, 32, 64), (2, 4, 8, 16, 32, 48, 64, 96, 128, 192, 256)),
}


def metric_names() -> list[str]:
    names = []
    for fn, (_, grid, _) in SWEEPS.items():
        names += [f"sweep.{fn}.n{n}.us" for n in grid] + [f"sweep.{fn}.max_n"]
    return names


def _time_call(fn, args) -> float:
    """Median seconds per call over at least MIN_CALLS calls or MIN_TIME_S."""
    times: list[float] = []
    spent = 0.0
    while len(times) < MIN_CALLS and (spent < MIN_TIME_S or not times):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return statistics.median(times)


def run(seed: int) -> dict[str, tuple[float, str]]:
    """Every sweep metric as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for f_index, (fn_name, (make, grid, ladder)) in enumerate(SWEEPS.items()):
        max_n = 0
        within = True
        for n in ladder:
            if not within and n not in grid:
                continue
            rng = np.random.default_rng([seed, 7, f_index, n])
            fn, args = make(n, rng)
            t = _time_call(fn, args)
            if n in grid:
                out[f"sweep.{fn_name}.n{n}.us"] = (t * 1e6, "us")
            if within and t <= BUDGET_S:
                max_n = n
            else:
                within = False
        out[f"sweep.{fn_name}.max_n"] = (float(max_n), "qubits")
    return out
