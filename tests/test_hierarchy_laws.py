"""Which multiplications keep a gate's hierarchy level, pinned on exact inputs.

A Gaussian unitary g sends each Majorana c_mu to a real combination
sum_nu R_{mu nu} c_nu. When R permutes the Majoranas up to sign, g U stays
at U's level, as a Clifford keeps a gate's Clifford-hierarchy level. A sum
of level-(k-1) operators need not sit at level k-1, though, so a Gaussian
that mixes Majoranas can raise the level.

The Gaussians here are g = exp(theta c_a c_b) = cos(theta) 1 + sin(theta)
c_a c_b on three qubits, exact because (c_a c_b)^2 = -1. At theta = pi/4, g
swaps c_a and c_b up to sign, and CnZ(3), at level 4, stays there on either
side for every pair. At theta = pi/8, g rotates c_a into c_b by 45 degrees:
the level rises to 5 for every pair that straddles two qubits and stays 4
for the three pairs (1, 2), (3, 4), (5, 6) of one qubit, where c_a c_b is
that qubit's Z and g is diagonal.
"""

from itertools import combinations

import numpy as np
import pytest

from matchgates import jw_majorana, min_level
from matchgates.circuits import build_CnZ

N = 3
SAME_QUBIT = {(1, 2), (3, 4), (5, 6)}
PAIRS = list(combinations(range(1, 2 * N + 1), 2))


def gaussian(theta: float, a: int, b: int) -> np.ndarray:
    """exp(theta c_a c_b) on N qubits."""
    return np.cos(theta) * np.eye(2**N) + np.sin(theta) * jw_majorana(N, a) @ jw_majorana(N, b)


@pytest.mark.parametrize("a, b", PAIRS)
def test_majorana_swapping_gaussians_keep_the_level_of_cnz3(a, b):
    g, u = gaussian(np.pi / 4, a, b), build_CnZ(N)
    assert min_level(u) == 4
    assert (min_level(g @ u), min_level(u @ g)) == (4, 4)


@pytest.mark.parametrize("a, b", PAIRS)
def test_majorana_mixing_gaussians_raise_cnz3_unless_they_are_diagonal(a, b):
    g, u = gaussian(np.pi / 8, a, b), build_CnZ(N)
    want = 4 if (a, b) in SAME_QUBIT else 5
    assert (min_level(g @ u), min_level(u @ g)) == (want, want)
