"""The planted-block samplers against in-test copies of their old formulas.

random_matchgate_blocks and random_two_qubit_at_root used to draw their
Haar pair and rescale B each in their own three lines. Both now read one
planted draw, and every draw must keep its bits. random_fermionic refuses
a bad parity before it draws anything.
"""

import numpy as np
import pytest

from matchgates import random_fermionic, random_matchgate, random_two_qubit_at_root
from matchgates.circuits import build_G, build_J
from matchgates.sampling import haar_unitary, random_matchgate_blocks


def old_blocks(rng):
    a = haar_unitary(2, rng)
    b = haar_unitary(2, rng)
    b = b * np.sqrt(np.linalg.det(a) / np.linalg.det(b))
    return a, b


def old_at_root(rng, k, j, odd):
    order = 2 ** (k - 2)
    if j is None:
        j = int(rng.integers(order))
    ratio = np.exp(2j * np.pi * j / order)
    a = haar_unitary(2, rng)
    b = haar_unitary(2, rng)
    b = b * np.sqrt((np.linalg.det(a) / ratio) / np.linalg.det(b))
    return build_J(a, b) if odd else build_G(a, b)


def test_planted_draws_keep_their_bits():
    for seed in range(200):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in range(2, 8):
            for odd in (False, True):
                for j in (None, seed % 2 ** (k - 2)):
                    want = old_at_root(old, k, j, odd)
                    assert random_two_qubit_at_root(new, k, j, odd).tobytes() == want.tobytes()
        want = old_blocks(old)
        assert [m.tobytes() for m in random_matchgate_blocks(new)] == [m.tobytes() for m in want]
        for odd in (False, True):
            a, b = old_blocks(old)
            want = build_J(a, b) if odd else build_G(a, b)
            assert random_matchgate(new, odd).tobytes() == want.tobytes()


def test_a_bad_fermionic_parity_consumes_no_draws():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="^parity must be 'even' or 'odd', got 'x'$"):
        random_fermionic(2, rng, parity="x")
    assert rng.bit_generator.state == before
