"""One path per level question.

Each level_membership call makes exactly one level search, on both sides
of COST_GUARD; the conjugates every level question computes are pinned
exactly; and the two-qubit closed form, which snaps its angle once to the
finest root grid of the spacing rule, equals the per-k loop it replaced.
"""

from itertools import count

import numpy as np
import pytest

from matchgates import hierarchy, jw_majorana, named_gate, verify_protocol
from matchgates.circuits import build_CnZ
from matchgates.hierarchy import (
    ROOT_SPACING_FACTOR,
    SearchBudgetError,
    TwoQubitBlocks,
    level_membership,
    min_level,
)
from matchgates.linalg import ANGLE_TOL, DEFAULT_TOL
from test_level_memo import count_kids

CPHASE1 = named_gate("CPHASE", (1.0,))


def refusal(k):
    return rf"^level-{k} membership at n=2 needs about .* dense conjugations \(guard 1e\+07\)$"


@pytest.fixture
def searches(monkeypatch):
    """The levels of every hierarchy._search call."""
    calls = []
    search = hierarchy._search

    def spy(u, levels, tol):
        calls.append(tuple(levels))
        return search(u, levels, tol)

    monkeypatch.setattr(hierarchy, "_search", spy)
    return calls


def test_membership_below_the_guard_is_one_search_of_level_k(searches):
    assert level_membership(build_CnZ(4), 5)
    assert not level_membership(build_CnZ(4), 4)
    assert searches == [(5,), (4,)]


def test_membership_past_the_guard_is_one_search_from_level_1(searches):
    # at n = 2 levels 1 .. 12 cost at most 4^11 conjugations, level 13 4^12
    assert level_membership(named_gate("SWAP"), 13)
    for k in (13, 20):
        with pytest.raises(SearchBudgetError, match=refusal(k)):
            level_membership(CPHASE1, k)
    affordable = tuple(range(1, 13))
    assert searches == [(*affordable, 13), (*affordable, 13), (*affordable, 20)]


@pytest.mark.parametrize(
    ("name", "ask", "want", "conjugates"),
    [
        ("CnZ(4)", lambda: min_level(build_CnZ(4), 5), 5, 828),
        ("CnZ(5)", lambda: min_level(build_CnZ(5), 6), 6, 2375),
        ("CnZ(6)", lambda: min_level(build_CnZ(6), 7), 7, 6522),
        ("c_1 CnZ(3)", lambda: min_level(jw_majorana(3, 1) @ build_CnZ(3), 8), 4, 231),
        ("SWAP@13", lambda: level_membership(named_gate("SWAP"), 13), True, 22),
        ("CnZ(3)@12", lambda: level_membership(build_CnZ(3), 12), True, 231),
        ("CnZ(4)@5", lambda: level_membership(build_CnZ(4), 5), True, 716),
        ("CnZ(4)@4", lambda: level_membership(build_CnZ(4), 4), False, 75),
        ("CnZ(5)@6", lambda: level_membership(build_CnZ(5), 6), True, 2115),
        ("verify CnZ(4)", lambda: verify_protocol(build_CnZ(4), trials=1).correction_levels, ((2, 16), (4, 240)), 89312),
    ],
)
def test_conjugate_counts(monkeypatch, name, ask, want, conjugates):
    kids = count_kids(monkeypatch)
    assert ask() == want
    assert kids[0] == conjugates


@pytest.mark.parametrize("k", [13, 20])
def test_a_refused_membership_computes_the_probe_path_only(monkeypatch, k):
    kids = count_kids(monkeypatch)
    with pytest.raises(SearchBudgetError, match=refusal(k)):
        level_membership(CPHASE1, k)
    assert kids[0] == 11


def loop_level(theta):
    """The closed form's level of an angle as it was read before: the
    smallest k >= 2 whose 2^(k-2)-th roots, no denser than the spacing
    rule allows, have one within ANGLE_TOL of theta."""
    for k in count(2):
        step = 2 * np.pi / 2 ** (k - 2)
        if step < ROOT_SPACING_FACTOR * ANGLE_TOL:
            break
        if abs(theta - round(theta / step) * step) < ANGLE_TOL:
            return k
    return None


def test_closed_form_equals_the_per_level_loop():
    rng = np.random.default_rng(26)
    angles = [np.pi, -np.pi, 0.0, -0.0, *rng.uniform(-np.pi, np.pi, 6000)]
    for m in range(1, 21):
        for j in rng.integers(-(2 ** (m - 1)), 2 ** (m - 1), size=100, endpoint=True):
            root = j * 2 * np.pi / 2**m
            near = (ANGLE_TOL * (1 - 1e-9), ANGLE_TOL)
            angles += [root, *(root + d for d in near), *(root - d for d in near)]
            angles += [np.nextafter(root, np.inf), np.nextafter(root, -np.inf)]
    assert len(angles) > 2 * 10**4
    blocks = TwoQubitBlocks("even", np.eye(2), np.eye(2))
    levels = set()
    for theta in angles:
        det_a = complex(np.exp(1j * theta))
        want = loop_level(float(np.angle(det_a)))
        assert hierarchy._closed_form_level(blocks, det_a, 1.0, DEFAULT_TOL) == want, theta
        levels.add(want)
    assert levels == {None, *range(2, 22)}
