"""One unitarity rule, judged once.

majorana._read_gate admits a gate when ||U*U - 1||_max < UNITARY_TOL. A
real Majorana combination V = sum_mu a_mu c_mu has V*V = (a.a) 1, so that
admission settles unit norm for the gate and for everything conjugated
from it: the leaves of the level tree, the magic state and the teleport
corrections are not judged again. first_level_coeffs, which may be passed
any operator, judges its argument once by the same rule read off its
coefficients, |a.a - 1| < UNITARY_TOL. The levels of such gates are held to
the closed form in test_classify_decisions.py.
"""

import numpy as np
import pytest

from matchgates import jw_set, magic_state, named_gate, verify_protocol
from matchgates.hierarchy import first_level_coeffs
from matchgates.linalg import UNITARY_TOL, is_unitary

# (1 + 2.5e-10) U has ||U*U - 1|| = 5e-10, inside UNITARY_TOL; its
# corrections U K_z^dag U^dag miss unitarity by about 1e-9.
SLACK = 1 + 2.5e-10

# |s^2 - 1| on both sides of UNITARY_TOL, at least 1e-10 from it
SCALES = [1 + sign * d for sign in (1, -1) for d in (1e-10, 3e-10, 4.5e-10, 5.5e-10, 1e-9, 1e-8)]


@pytest.mark.parametrize("gate, gaussian", [("CZ", False), ("FSWAP", True)])
def test_the_magic_state_of_an_admitted_gate_is_answered(gate, gaussian):
    # the state inherits the gate's norm, 2.5e-10 off unit, and was refused
    # as "state Lambda test must be normalized"
    m = magic_state(SLACK * named_gate(gate))
    assert m.is_gaussian is gaussian
    assert m.parity == "even"


def test_the_corrections_of_an_admitted_gate_are_classified():
    # each correction was read as a gate again and refused as "gate is not
    # unitary", so the protocol of an admitted gate raised
    exact = verify_protocol(named_gate("CZ"), trials=1)
    report = verify_protocol(SLACK * named_gate("CZ"), trials=1)
    assert exact.correction_levels == report.correction_levels == ((1, 2), (2, 14))
    assert report.passed


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", [2, 3])
def test_first_level_coeffs_judges_unitarity_by_the_gate_rule(n, scale):
    rng = np.random.default_rng(n)
    stack = np.stack(jw_set(n))
    for _ in range(15):
        a = rng.standard_normal(2 * n)
        a /= np.linalg.norm(a)
        u = scale * np.tensordot(a, stack, axes=1)
        assert is_unitary(u) == (abs(scale**2 - 1) < UNITARY_TOL)
        assert (first_level_coeffs(u) is not None) == is_unitary(u)
