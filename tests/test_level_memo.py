"""The exact-duplicate memo of the level search.

level_membership expands each distinct node of the conjugation tree once
per call: a node that is bit-identical to one already queued at the same
remaining depth is dropped. Its answers must equal those of the per-node
oracle of test_level_search.py and those of the same search with the memo
switched off (MEMO_ENTRIES = 0), on exact gates and across the same
epsilon sweep, and the work saved on CnZ must not creep back.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import build_F, classify_gate, min_level, random_fermionic, random_two_qubit_at_root
from matchgates import hierarchy
from matchgates.circuits import build_CnZ
from matchgates.hierarchy import level_membership
from matchgates.linalg import DEFAULT_TOL
from test_level_search import EPSILONS, assert_agrees, oracle_member, perturbed

PHASES = (1, 1j, -1, np.exp(0.3j))


def assert_memo_agrees(u, k_max, monkeypatch):
    """Oracle agreement, then the same min_level with the memo off."""
    assert_agrees(u, k_max)
    got = min_level(u, k_max)
    monkeypatch.setattr(hierarchy, "MEMO_ENTRIES", 0)
    assert min_level(u, k_max) == got
    monkeypatch.undo()


def count_kids(monkeypatch):
    """Patch hierarchy._conjugates to count the conjugates it returns."""
    seen = [0]
    conjugates = hierarchy._conjugates

    def counting(*args):
        kids = conjugates(*args)
        seen[0] += len(kids)
        return kids

    monkeypatch.setattr(hierarchy, "_conjugates", counting)
    return seen


@pytest.mark.parametrize("eps", EPSILONS)
def test_cnz_gates_with_the_memo_off(monkeypatch, eps):
    # The inputs of test_level_search.test_cnz_gates, which holds them to the oracle.
    rng = np.random.default_rng(EPSILONS.index(eps))
    gates = [(perturbed(build_CnZ(3), eps, rng), 4), (perturbed(build_CnZ(4), eps, rng), 5)]
    want = [min_level(u, k) for u, k in gates]
    monkeypatch.setattr(hierarchy, "MEMO_ENTRIES", 0)
    assert [min_level(u, k) for u, k in gates] == want


@pytest.mark.parametrize("eps", EPSILONS)
def test_cnz5(monkeypatch, eps):
    # The oracle would walk all 10^5 nodes of the level-6 tree, about 17 s
    # per passing eps. Level 6 of the root is covered instead through its
    # c_1 child at level 5, against the memo-off run, and its c_1 c_1
    # grandchild at level 4, against the oracle.
    rng = np.random.default_rng(200 + EPSILONS.index(eps))
    u = perturbed(build_CnZ(5), eps, rng)
    assert [level_membership(u, k) for k in range(1, 6)] == [oracle_member(u, k) for k in range(1, 6)]
    kid = hierarchy._conjugates(u[None], 5, slice(0, 1))
    grandkid = hierarchy._conjugates(kid, 5, slice(0, 1))[0]
    assert level_membership(grandkid, 4) == oracle_member(grandkid, 4)
    got = level_membership(kid[0], 5)
    assert min_level(u, 6) == (6 if got else None)
    monkeypatch.setattr(hierarchy, "MEMO_ENTRIES", 0)
    assert level_membership(kid[0], 5) == got


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from((0, 1, None)), min_size=1, max_size=4),
    st.sampled_from(PHASES),
    st.sampled_from(EPSILONS),
)
def test_pattern_gates_and_their_phases(seed, pattern, phase, eps):
    weight = sum(p is not None for p in pattern)
    u = perturbed(phase * build_F(tuple(pattern)), eps, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        assert_memo_agrees(u, max(weight + 1, 2), mp)


@pytest.mark.parametrize("eps", EPSILONS)
def test_repeat_heavy_pattern_at_the_tolerance_edge(monkeypatch, eps):
    # F(0,1,*,1) moved from None to 4 at eps = 1e-10 under an earlier pruning prototype.
    u = perturbed(build_F((0, 1, None, 1)), eps, np.random.default_rng(300 + EPSILONS.index(eps)))
    assert_memo_agrees(u, 4, monkeypatch)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.booleans(), st.sampled_from(EPSILONS))
def test_planted_two_qubit_gates(seed, k, odd, eps):
    rng = np.random.default_rng(seed)
    u = perturbed(random_two_qubit_at_root(rng, k, odd=odd), eps, rng)
    with pytest.MonkeyPatch.context() as mp:
        assert_memo_agrees(u, k, mp)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.sampled_from(("even", "odd")), st.sampled_from(EPSILONS))
def test_generic_fermionic_gates(seed, n, parity, eps):
    rng = np.random.default_rng(seed)
    u = perturbed(random_fermionic(n, rng, parity), eps, rng)
    with pytest.MonkeyPatch.context() as mp:
        assert_memo_agrees(u, 8, mp)


@pytest.mark.parametrize(("n", "most"), [(4, 1122), (5, 2635)])
def test_cnz_work_stays_deduplicated(monkeypatch, n, most):
    # Without the memo min_level computes 4796 (n = 4) and 111485 (n = 5) conjugates.
    kids = count_kids(monkeypatch)
    assert min_level(build_CnZ(n), n + 1) == n + 1
    assert kids[0] <= most


@pytest.mark.parametrize(("n", "most"), [(4, 834), (5, 2385)])
def test_failing_levels_stop_within_a_small_batch(monkeypatch, n, most):
    # Batches of at most CHUNK_ENTRIES / 8 entries, or one parent's children,
    # stop a failing level soon after its first failing node.
    kids = count_kids(monkeypatch)
    assert min_level(build_CnZ(n), n + 1) == n + 1
    assert kids[0] <= most


def test_full_memo_stops_adding_but_keeps_answers(monkeypatch):
    u = build_CnZ(4)
    counts = {}
    for nodes in (0, 30, 10**6):
        monkeypatch.setattr(hierarchy, "MEMO_ENTRIES", nodes * 4**4)
        kids = count_kids(monkeypatch)
        assert min_level(u, 5) == 5
        counts[nodes] = kids[0]
        monkeypatch.undo()
    assert counts[0] == 4796
    assert counts[10**6] < counts[30] < counts[0]


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_one_search_walks_the_probe_path_once(monkeypatch, parity):
    # A generic gate fails every level on the c_1 ... c_1 path. Restarting at
    # each level would cost 0 + 1 + ... + 5 = 15 path conjugates up to level 6;
    # one ascending search extends the path by one conjugate per level, 5 in all.
    u = random_fermionic(3, np.random.default_rng(11), parity)
    kids = count_kids(monkeypatch)
    assert min_level(u, 6) is None
    assert kids[0] == 5
    kids[0] = 0
    assert classify_gate(u, 6).min_level is None
    assert kids[0] == 5


def test_keys_are_exact_bytes_per_depth():
    x = build_CnZ(2)[None]
    seen = hierarchy._Seen(2)
    assert len(seen.new(x, 2)) == 1
    assert len(seen.new(x, 2)) == 0
    assert len(seen.new(x, 1)) == 1
    assert len(seen.new(x * np.exp(1e-12j), 2)) == 1
    assert len(seen.new(1j * x, 2)) == 1
    assert len(seen.new(-x, 2)) == 1
    twins = np.concatenate([build_F((1, 0))[None]] * 3)
    assert np.array_equal(seen.new(twins, 2), twins[:1])


def test_full_memo_still_looks_keys_up(monkeypatch):
    monkeypatch.setattr(hierarchy, "MEMO_ENTRIES", 2 * 4**2)
    a, b, c = build_CnZ(2), build_F((1, 0)), build_F((0, 1))
    seen = hierarchy._Seen(2)
    assert len(seen.new(np.stack([a, b, c]), 1)) == 3
    assert len(seen.new(np.stack([a, b, c, c]), 1)) == 2


@pytest.mark.parametrize("eps", [3e-9, 1e-8])
def test_a_near_twin_is_expanded(eps):
    # b fails level 4 and its kids lie within eps of those of a, which passes;
    # a rounded or phase-normalised key would skip them.
    a = build_F((0, 1, None, 1))
    b = perturbed(a, eps, np.random.default_rng(5))
    assert level_membership(a, 4) and not level_membership(b, 4)
    assert not hierarchy._subtree_ok(np.stack([a, b]), 3, 4, DEFAULT_TOL, hierarchy._Seen(4))
