"""The teleport route's output bytes, pinned, and the shape of its records.

Every pinned digest is a SHA-256 of what a caller can print or read:
dumps_stable(simulate_protocol(u, psi).to_json(include_states=True)) for
seeded gates of both parities and seeded states at n = 1..4, one n = 6
call, which applies the Bell-pair network gate by gate, and
verify_protocol(CZ, trials=2).to_json(). At n = 6 the 4096 branches' states
are hashed as their array bytes next to the JSON without states: the same
bits, without writing 35 MB of JSON. A change to the records or the loops
around the linear algebra must leave every digest as it is.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from matchgates import named_gate, random_fermionic, random_state, simulate_protocol, verify_protocol
from matchgates import teleport
from matchgates.io import dumps_stable
from matchgates.teleport import Branch, TeleportTranscript

FIELDS = ("z", "probability", "raw_state", "corrected", "residual_vs_target", "phase")
CALLS_PER_GROUP = 6

# sha256 over the CALLS_PER_GROUP transcripts of one (n, parity) group, in draw order
GROUP_DIGESTS = {
    (1, "even"): "2e398b68c86355484305f7f7b29f2ce900283743ebc2f538316538b43a5f9e72",
    (1, "odd"): "3bfcd768b89468f9c42122f64d1f88d9380fd3e73f5c9da1ae9c00aae3198a4d",
    (2, "even"): "7e1c611c43fe69236854683fe37a72434aa0e68b1b712a0c139df448eeeb8879",
    (2, "odd"): "cd16dcbafa9843f7705b411df6fb1060bef1a51b1d9d133f18510f6c43f6b484",
    (3, "even"): "3d29b2f6c7dc8e386c1b0bf2d1bece45e5ebe8fa8c0849decf3ab42bd25ed249",
    (3, "odd"): "fcc692429a70a79cc046a422dba9645b408b760e5190b6b7f0d220989fc6f008",
    (4, "even"): "c8477b584ed4c861ae93fcd0761aa2a3cb2da0e97e48278fbe3afb9a5535e98d",
    (4, "odd"): "f8481f894775e058162a34f2e52174601009c55644dcbd0efca1cc9cb09a3713",
}
WIDE_DIGEST = "8b163b53210f65267bf139fd7e7e48fae2f33ac1e968bf56f05d9512fbcf1977"
REPORT_DIGEST = "83c31b03bc3982cb4f8d599ae2873ec648e89666b3f025839f2bae00fb8675e3"


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _group(n: int, parity: str):
    """The seeded (gate, state) pairs of one group: one generator per group."""
    rng = np.random.default_rng([n, int(parity == "odd")])
    for _ in range(CALLS_PER_GROUP):
        yield random_fermionic(n, rng, parity), random_state(n, rng)


@pytest.mark.parametrize("n, parity", list(GROUP_DIGESTS), ids=[f"{n}-{p}" for n, p in GROUP_DIGESTS])
def test_transcript_json_with_states_is_pinned(n, parity):
    texts = [
        dumps_stable(simulate_protocol(u, psi).to_json(include_states=True)).encode() for u, psi in _group(n, parity)
    ]
    assert _sha(*texts) == GROUP_DIGESTS[n, parity]


def test_gate_route_transcript_is_pinned():
    assert teleport._network(6)[0] is None  # the Bell-pair network is applied as gates
    rng = np.random.default_rng(6)
    transcript = simulate_protocol(random_fermionic(6, rng, "odd"), random_state(6, rng))
    states = [transcript.input_state, transcript.target_state]
    states += [a for b in transcript.branches for a in (b.raw_state, b.corrected)]
    got = _sha(dumps_stable(transcript.to_json()).encode(), *(a.tobytes() for a in states))
    assert got == WIDE_DIGEST


def test_verify_protocol_report_is_pinned():
    report = verify_protocol(named_gate("CZ"), trials=2)
    assert _sha(dumps_stable(report.to_json()).encode()) == REPORT_DIGEST


def test_branch_is_a_dataclass_with_its_fields_in_order():
    assert dataclasses.is_dataclass(Branch)
    assert tuple(f.name for f in dataclasses.fields(Branch)) == FIELDS


def test_records_take_dataclasses_replace():
    transcript = simulate_protocol(named_gate("CZ"), random_state(2, np.random.default_rng(0)))
    b = transcript.branches[-1]
    bad = dataclasses.replace(b, corrected=b.corrected * (1 + 1e-7), residual_vs_target=0.5)
    assert type(bad) is Branch
    assert all(getattr(bad, f) is getattr(b, f) for f in FIELDS[:3] + FIELDS[5:])
    assert not np.array_equal(bad.corrected, b.corrected)
    edited = dataclasses.replace(transcript, branches=transcript.branches[:-1] + (bad,))
    assert type(edited) is TeleportTranscript
    assert edited.branches[-1] is bad
    assert all(x is y for x, y in zip(edited.branches[:-1], transcript.branches[:-1]))
    assert edited.max_residual == 0.5 and edited.input_state is transcript.input_state


@pytest.mark.parametrize("zeroed, first", [((5,), "0101"), ((9, 2, 14), "0010"), ((0, 15), "0000")])
def test_vanishing_probability_names_the_first_vanishing_branch(monkeypatch, zeroed, first):
    norms = teleport._row_norms
    calls = []

    def broken(rows):
        out = norms(rows)
        if not calls:  # the branch norms; the residuals come later
            out[list(zeroed)] = 0.0
        calls.append(len(rows))
        return out

    monkeypatch.setattr(teleport, "_row_norms", broken)
    with pytest.raises(ValueError, match=rf"^branch {first} has vanishing probability; protocol broken$"):
        simulate_protocol(named_gate("CZ"), random_state(2, np.random.default_rng(1)))
    assert calls == [16]
