"""Records with array fields compare and hash by identity.

A generated dataclass __eq__ compares the fields as a tuple, and on two
distinct records with equal arrays it raised "The truth value of an array
with more than one element is ambiguous". Each such record is eq=False:
a record equals itself and no copy, and hash() works.
"""

import copy

import numpy as np
import pytest

from matchgates import classify_gate, jw_set, magic_state, named_gate, random_state, simulate_protocol
from matchgates.hierarchy import two_qubit_decompose
from matchgates.majorana import majorana_words
from matchgates.svn import svn_reconstruct

NAMES = ("SvnResult", "MagicState", "Branch", "TeleportTranscript", "TwoQubitBlocks", "MajoranaWords", "HierarchyReport")


def _records():
    transcript = simulate_protocol(named_gate("CZ"), random_state(2, np.random.default_rng(0)))
    return {
        "SvnResult": svn_reconstruct(jw_set(2)),
        "MagicState": magic_state(named_gate("CZ")),
        "Branch": transcript.branches[0],
        "TeleportTranscript": transcript,
        "TwoQubitBlocks": two_qubit_decompose(named_gate("CZ")),
        "MajoranaWords": majorana_words(2),
        "HierarchyReport": classify_gate(named_gate("FSWAP")),
    }


@pytest.mark.parametrize("name", NAMES)
def test_a_record_equals_itself_and_not_a_copy(name):
    record = _records()[name]
    assert type(record).__name__ == name
    twin = copy.copy(record)
    assert record == record and not record != record
    assert record != twin and not record == twin
    assert hash(record) == hash(record) and hash(record) != hash(twin)


def test_the_gaussian_report_holds_an_array():
    assert isinstance(_records()["HierarchyReport"].rotation, np.ndarray)
