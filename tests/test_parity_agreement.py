"""Every route that decides a gate's parity agrees with parity_of.

The classifier, the magic state, the protocol, the two-qubit block form and
the Lambda test all give parity_of's verdict, or refuse exactly when it is
"none". The inputs are fermionic and parity-mixing gates on n = 1..4
qubits, each perturbed across EPSILONS with its parity kept (`perturbed`)
and, for the fermionic ones, with its sectors mixed (`mixed`), so both
sides of epsilon are reached; and a CZ whose even and odd sectors mix by
9e-10, just inside the default epsilon of 1e-9.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from matchgates import classify_gate, jw_majorana, magic_state, named_gate, parity_of, random_fermionic, simulate_protocol
from matchgates.circuits import build_CnZ
from matchgates.cli import main
from matchgates.hierarchy import is_gaussian_lambda, two_qubit_decompose
from matchgates.io import matrix_to_json, save_json, state_to_json
from matchgates.linalg import HADAMARD, identity
from matchgates.sampling import haar_unitary, random_state
from test_level_search import EPSILONS, mixed, perturbed

# CZ with +-9e-10 between |00> and |01>: even by the largest other-parity entry
WITNESS = np.array([[1, -9e-10, 0, 0], [9e-10, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], dtype=complex)

MAGIC = "magic state has no definite parity; the gate is not fermionic"
BLOCKS = "gate mixes parity sectors; it has no G/J block form"
LAMBDA = "operator has no definite parity; Gaussian test undefined"

NAMED = {1: (("X", ()), ("Z", ()), ("RZ", (0.7,))), 2: (("CZ", ()), ("SWAP", ()), ("FSWAP", ()), ("CPHASE", (np.pi / 4,)))}


def gates(n, rng):
    """(fermionic, mixing) gates on n qubits; named gates are padded with identities."""
    fermionic = [random_fermionic(n, rng, "even"), random_fermionic(n, rng, "odd"), build_CnZ(n), jw_majorana(n, 2 * n)]
    for width in (1, 2)[:n]:
        fermionic += [np.kron(named_gate(name, params), identity(n - width)) for name, params in NAMED[width]]
    pad = identity(n - 1)
    mixing = [np.kron(HADAMARD, pad), np.kron(named_gate("RX", (0.3,)), pad), haar_unitary(2**n, rng)]
    return fermionic, mixing


def answer(call, refusal):
    """What call() returns, or None when it refuses with exactly `refusal`."""
    try:
        return call()
    except ValueError as err:
        assert str(err) == refusal
        return None


def agreed_parity(u, rng):
    """parity_of(u), once every route has been checked to agree with it."""
    n = len(u).bit_length() - 1
    p = parity_of(u)
    assert classify_gate(u, k_max=2).parity == p
    assert getattr(answer(lambda: magic_state(u), MAGIC), "parity", "none") == p
    assert (answer(lambda: simulate_protocol(u, random_state(n, rng)), MAGIC) is None) == (p == "none")
    if n == 2:
        assert getattr(answer(lambda: two_qubit_decompose(u), BLOCKS), "parity", "none") == p
    if n <= 3:
        assert (answer(lambda: is_gaussian_lambda(u), LAMBDA) is None) == (p == "none")
    return p


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parity_routes_agree(n):
    rng = np.random.default_rng(330 + n)
    fermionic, mixing = gates(n, rng)
    verdicts = set()
    for eps in EPSILONS:
        for u in fermionic:
            assert agreed_parity(perturbed(u, eps, rng), rng) != "none"
            verdicts.add(agreed_parity(mixed(u, eps, rng), rng))
        for u in mixing:
            assert agreed_parity(perturbed(u, eps, rng), rng) == "none"
    assert verdicts == {"even", "odd", "none"}


def test_the_witness_is_even_on_every_route():
    assert parity_of(WITNESS) == "even"
    assert agreed_parity(WITNESS, np.random.default_rng(0)) == "even"


def test_the_witness_is_classified_even_and_teleported(tmp_path):
    runner = CliRunner()
    matrix, state = tmp_path / "edge.json", tmp_path / "psi2.json"
    save_json(matrix, matrix_to_json(WITNESS))
    save_json(state, state_to_json(np.array([0.6, 0, 0.8, 0], dtype=complex)))
    result = runner.invoke(main, ["classify", "--matrix", str(matrix)])
    assert result.exit_code == 2
    assert json.loads(result.output)["parity"] == "even"
    for mode in (["--trials", "1"], ["--state", str(state)]):
        result = runner.invoke(main, ["teleport", "--matrix", str(matrix), *mode])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["passed"] is True
