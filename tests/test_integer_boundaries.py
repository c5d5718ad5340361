"""Integer boundaries of three deciding checks, each pinned on the side no
other test reaches: a level cap of 2 still answers level 2, the size rule
admits MAX_QUBITS itself, and a level search whose cost equals COST_GUARD
exactly runs."""

import numpy as np
import pytest

from matchgates import classify_gate, min_level, named_gate, random_fermionic
from matchgates.hierarchy import COST_GUARD, SearchBudgetError
from matchgates.linalg import MAX_QUBITS, _guard_qubits
from matchgates.majorana import majorana_words


def test_a_level_cap_of_two_answers_level_two():
    assert classify_gate(named_gate("FSWAP"), k_max=2).min_level == 2


def test_the_size_rule_admits_the_largest_qubit_count():
    assert _guard_qubits(MAX_QUBITS, "Majorana word table") == MAX_QUBITS == 15
    assert majorana_words(MAX_QUBITS).phase.shape == (2 * MAX_QUBITS, 2**MAX_QUBITS)


def test_a_search_that_costs_exactly_the_guard_runs():
    # the level-8 search at n = 5 takes (2n)^(k-1) conjugations, the guard exactly
    assert (2 * 5) ** (8 - 1) == COST_GUARD
    u = random_fermionic(5, np.random.default_rng(0))
    assert min_level(u, k_max=8) is None  # fails on the c_1 ... c_1 path
    with pytest.raises(SearchBudgetError, match="level-9 membership at n=5"):
        min_level(u, k_max=9)
