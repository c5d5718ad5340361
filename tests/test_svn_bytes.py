"""The Stone-von Neumann reconstruction's output bytes, pinned.

Every pinned digest is a SHA-256 over u.tobytes() and residuals.tobytes()
of svn_reconstruct, so that a -0.0 or a last bit counts: seeded fermionic
tuples d_mu = V^dag c_mu V of both parities at n = 1..7, and at n = 6, 7
the identity, CnZ(n), c_1, c_2n and an FSWAP/GHH network. The stdout of
in-process `mgh svn --tuple` runs is pinned at n = 6 and 7, and that of
`mgh svn --tuple --expect` at n = 6.
The parity-block route is then compared with the dense route, byte for
byte, with the block range widened to n = 3..7 and emptied: the range is
where these bits hold.
"""

import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from matchgates import jw_majorana, jw_set, parse_circuit, random_fermionic, svn, svn_reconstruct
from matchgates.circuits import build_CnZ, circuit_to_operator
from matchgates.cli import main
from matchgates.io import matrix_to_json, save_json, tuple_to_json

CALLS_PER_GROUP = 3

# sha256 over the CALLS_PER_GROUP results of one (n, parity) group, in draw order
GROUP_DIGESTS = {
    (1, "even"): "7996bccb46f9842b7dd1de8a93840972e858f6671cd6db52d03d162151f14160",
    (1, "odd"): "0eef0c11cf5176671667334bc258e53f0d686e4a740fef5f054e6ee989a1e312",
    (2, "even"): "c4ce31f9589e2eff00f1206ef5caf8823eab24b2f35e8aa9848249fc82010876",
    (2, "odd"): "3a6cff2deb8305384f9fa16e729e205a951bb9c39a6d378c7c3f45c031551fbb",
    (3, "even"): "b45959072f95699f9424e96133eef95152039157cab8e47cf602a35daec47176",
    (3, "odd"): "2b8beafbdabb99f4ffb150e0089f0c60c878d82559a047094321679482c9dbda",
    (4, "even"): "e7b1b495dde30df836414045bf079f6f894cf8847e2450277cb2cfe3f64c9ea8",
    (4, "odd"): "1e07748943ed517ea1bf3b9657d7b3116a08777e36fb14d378172e9a441dfc54",
    (5, "even"): "60ce7cc93aa7464ae814764e25bcb5098d82a446b95255609ba29f9da3412519",
    (5, "odd"): "248c4d3da4b17c630b7cb7c4c95e132315356ae596f9ab4c158787cbb37362c5",
    (6, "even"): "4346bd3f4d53de9ca80a1f299e6804e72fe535570eca5f0955b2743d55b38bae",
    (6, "odd"): "7a1d086e13b3a6d2150166bedbd1d9f40f847d6b8d16caa3a6cb01fd78a5e2be",
    (7, "even"): "47dbcbe4fe7f8f7b73a07ff36741b0530a978ac995477a708abd71a1d2237c51",
    (7, "odd"): "e29f8f9c31be2da6bb5b100f5def8747753b3b1d0250514fec16f69a0f7087df",
}
NAMED_DIGESTS = {
    6: "b77870e9ad9c4a2b6772e287db6073849cb64ee96af427a6312ba3a8b9133da8",
    7: "bfa7d2f4b04eacf27d2ee2b054da3579aac54aa193d533fddb0197dffaf10e97",
}
# stdout of `mgh svn --tuple` and, keyed True, of `mgh svn --tuple --expect`. The
# --expect block is pinned at n = 6 only: it is formed by np.vdot and
# np.linalg.norm, and over the 16384 entries of a 7-qubit matrix BLAS splits
# those sums by its thread count, so their last bits move with the host.
CLI_DIGESTS = {
    (6, False): "5e2a3329f6ea85705c13e4c4c9d1a4737a5ad4a5f274728bd4bef70d5680fada",
    (6, True): "87bcca6491f59a49a841014293974b5f3edd49f84dcefe8d0f4f9a4b6a9fc4e6",
    (7, False): "ac739a001b1bad74470127d6129da50058fcdfbeeb1f0c351f83cf6cc14ef4e0",
}


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _tuple(v: np.ndarray) -> list[np.ndarray]:
    n = len(v).bit_length() - 1
    return [v.conj().T @ c @ v for c in jw_set(n)]


def _group(n: int, parity: str):
    """The seeded tuples of one group: one generator per group."""
    rng = np.random.default_rng([40, n, int(parity == "odd")])
    for _ in range(CALLS_PER_GROUP):
        yield _tuple(random_fermionic(n, rng, parity))


def _network(n: int) -> np.ndarray:
    """FSWAP on the odd wires, then GHH on the even ones, then FSWAP again."""
    lines = [f"FSWAP @ {w}" for w in range(1, n, 2)] + [f"GHH @ {w}" for w in range(2, n, 2)]
    lines += [f"FSWAP @ {w}" for w in range(1, n, 2)]
    return circuit_to_operator(parse_circuit(f"qubits {n}\n" + "\n".join(lines) + "\n"))


def _named(n: int) -> list[np.ndarray]:
    """The gates of the named cases, in order: the identity, CnZ(n), c_1, c_2n, the network."""
    return [np.eye(2**n, dtype=complex), build_CnZ(n), jw_majorana(n, 1), jw_majorana(n, 2 * n), _network(n)]


def _bytes(ops: list[np.ndarray]) -> tuple[bytes, bytes]:
    result = svn_reconstruct(ops)
    return result.u.tobytes(), result.residuals.tobytes()


@pytest.mark.parametrize("n, parity", list(GROUP_DIGESTS), ids=[f"{n}-{p}" for n, p in GROUP_DIGESTS])
def test_fermionic_tuples_are_pinned(n, parity):
    assert _sha(*(b for ops in _group(n, parity) for b in _bytes(ops))) == GROUP_DIGESTS[n, parity]


@pytest.mark.parametrize("n", list(NAMED_DIGESTS))
def test_named_tuples_are_pinned(n):
    assert _sha(*(b for v in _named(n) for b in _bytes(_tuple(v)))) == NAMED_DIGESTS[n]


def _cli(n: int, tmp_path, expect: bool) -> str:
    """Stdout of `mgh svn` on a seeded odd n-qubit tuple, run in process."""
    v = random_fermionic(n, np.random.default_rng([40, n, 2]), "odd")
    save_json(tmp_path / "tuple.json", tuple_to_json(_tuple(v)))
    save_json(tmp_path / "expect.json", matrix_to_json(v))
    args = ["svn", "--tuple", str(tmp_path / "tuple.json")]
    result = CliRunner().invoke(main, args + ["--expect", str(tmp_path / "expect.json")] * expect)
    assert result.exit_code == 0, result.output
    return result.output


@pytest.mark.parametrize("n, expect", list(CLI_DIGESTS))
def test_cli_output_is_pinned(n, expect, tmp_path):
    assert _sha(_cli(n, tmp_path, expect).encode()) == CLI_DIGESTS[n, expect]


def test_cli_expect_at_seven_qubits_passes_and_keeps_the_rest(tmp_path):
    plain, expected = (json.loads(_cli(7, tmp_path, expect)) for expect in (False, True))
    assert expected.pop("expect")["equal"] is True
    assert expected == plain and plain["passed"] is True


@pytest.mark.parametrize("n", range(3, 8))
def test_block_route_gives_the_dense_routes_bytes(monkeypatch, n):
    rng = np.random.default_rng([40, n, 3])
    cases = [_tuple(random_fermionic(n, rng, parity)) for parity in ("even", "odd", "even", "odd")]
    cases += [_tuple(v) for v in (np.eye(2**n), build_CnZ(n), jw_majorana(n, 1), jw_majorana(n, 2 * n))]
    # raising=False: a tree without the block route takes the dense route both times
    monkeypatch.setattr(svn, "BLOCK_QUBITS", range(3, 8), raising=False)
    blocks = [_bytes(ops) for ops in cases]
    monkeypatch.setattr(svn, "BLOCK_QUBITS", range(0), raising=False)
    dense = [_bytes(ops) for ops in cases]
    assert blocks == dense
