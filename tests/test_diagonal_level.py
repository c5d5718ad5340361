"""The phase-vector route for exact dyadic diagonal gates.

diagonal_level must return the matrix route's min_level on every gate it
takes, take exactly the diagonal gates whose phase ratios are exact 2^M-th
roots of unity, and hand every other input back to min_level, which
classify_gate then runs.
"""

from itertools import combinations

import numpy as np
import pytest
from click.testing import CliRunner

from matchgates import build_F, classify_gate, min_level, named_gate
from matchgates import hierarchy
from matchgates.circuits import build_CnZ
from matchgates.cli import main
from matchgates.hierarchy import diagonal_level, two_qubit_min_level
from matchgates.linalg import DEFAULT_TOL, Tolerances

from test_level_search import EPSILONS, perturbed


def phase_polynomial(n, terms):
    """diag(exp(i pi t(x))) with t = sum of coeff * prod_{q in qubits} x_q,
    qubit 0 being the most significant bit of the basis index.

    Dyadic coefficients sum exactly and t is reduced mod 2 before pi enters,
    so the phases are the roots of unity to within a few ulps."""
    x = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    t = sum(coeff * x[:, list(qubits)].prod(axis=1) for qubits, coeff in terms)
    return np.diag(np.exp(1j * np.pi * (t % 2)))


def cphase(phi):
    return named_gate("CPHASE", (phi,))


@pytest.fixture()
def matrix_calls(monkeypatch):
    """How often classify_gate falls back to the matrix route, by its top level."""
    calls = []
    matrix_route = hierarchy._search

    def spy(u, levels, tol):
        calls.append(max(levels))
        return matrix_route(u, levels, tol)

    monkeypatch.setattr(hierarchy, "_search", spy)
    return calls


@pytest.mark.parametrize("n", range(2, 7))
def test_cnz_gates_match_the_matrix_route(n):
    # The matrix route needs about 1 s to confirm CnZ(6) at level 7, so at
    # n = 6 both routes are held to the cap 6, above which both must refuse.
    u = build_CnZ(n)
    k = min(n + 1, 6)
    assert diagonal_level(u, k) == min_level(u, k)
    assert diagonal_level(u, n + 1) == n + 1
    assert diagonal_level(u, n) is None
    assert diagonal_level(u, 3) == (None if n > 2 else 3)


@pytest.mark.parametrize("m", range(5))
def test_cphase_gates_match_the_matrix_route(m):
    u = cphase(np.pi / 2**m)
    assert diagonal_level(u, 8) == min_level(u, 8) == m + 3


def test_pattern_gates_with_global_phases_match_the_matrix_route():
    rng = np.random.default_rng(11)
    for pattern in [(1,), (None, 0), (1, None, 0), (0, 1, 1), (None, 1, None, 0), (1, 0, None, 1)]:
        u = np.exp(1j * rng.uniform(0, 2 * np.pi)) * build_F(pattern)
        k = sum(p is not None for p in pattern) + 1
        assert diagonal_level(u, k) == min_level(u, k) == k


def test_random_dyadic_phase_polynomials_match_the_matrix_route():
    # For level L the cubic term is an odd multiple of pi/2^(L-4) and the
    # quadratic terms are multiples of pi/2^(L-3), which sit at level L at most;
    # linear terms and a global phase are arbitrary.
    rng = np.random.default_rng(2024)
    for level in (4, 5, 6) * 4:
        terms = [((0, 1, 2), (2 * int(rng.integers(8)) + 1) / 2 ** (level - 4))]
        terms += [(q, int(rng.integers(64)) / 2 ** (level - 3)) for q in combinations(range(3), 2)]
        terms += [((q,), int(rng.integers(2**10)) / 2**9) for q in range(3)]
        u = np.exp(1j * rng.uniform(0, 2 * np.pi)) * phase_polynomial(3, terms)
        assert diagonal_level(u, 6) == min_level(u, 6) == level


@pytest.mark.parametrize("n", range(1, 6))
def test_monomial_levels_follow_the_closed_form(n):
    # A degree-d monomial with coefficient pi/2^m sits at level d + 1 + m
    # for d >= 2; a linear phase is Gaussian whatever its coefficient.
    for d in range(1, n + 1):
        for m in range(5):
            u = phase_polynomial(n, [(tuple(range(n - d, n)), 1 / 2**m)])
            assert diagonal_level(u, 12) == (d + 1 + m if d >= 2 else 2)


BITS = hierarchy._phase_bits(DEFAULT_TOL)


def integer_phase_gate(f):
    """diag(exp(2 pi i f / 2^BITS)) of an integer phase vector f, reduced
    mod 2^BITS before pi enters."""
    return np.diag(np.exp(2j * np.pi / 2**BITS * (f % 2**BITS)))


def recursion_level(f, cap, known):
    """min(level, cap + 1) of integer_phase_gate(f), by the plain recursion.

    level(f) = 1 + max_j (child level), where child j has the phases
    g_j(x) = f(x ^ e_j) - f(x) mod 2^BITS and is first level when g_j is
    constant on x_j = 0. The search stops once a child reaches the cap;
    known holds the answers of this search by (cap, bytes of f)."""
    if cap < 2:
        return cap + 1
    key = (cap, f.tobytes())
    if key not in known:
        x = np.arange(len(f))
        worst = 1
        for j in range(len(f).bit_length() - 1):
            g = (f[x ^ (1 << j)] - f) % 2**BITS
            if (g[(x >> j) & 1 == 0] != g[0]).any():
                worst = max(worst, recursion_level(g, cap - 1, known))
                if worst >= cap:
                    break
        known[key] = worst + 1
    return known[key]


def assert_matches_the_recursion(f, cap):
    level = recursion_level(np.asarray(f, dtype=np.int64), cap, {})
    assert diagonal_level(integer_phase_gate(f), cap) == (level if level <= cap else None)


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_form_matches_the_recursion_on_random_phases(n):
    # Entries take valuations from BITS - 4 up to BITS, so levels spread
    # from 2 to about n + 4, on both sides of each cap.
    rng = np.random.default_rng(100 + n)
    for _ in range(12):
        shift = BITS - rng.integers(0, 5, size=2**n)
        f = rng.integers(0, 2**4, size=2**n) << shift
        for cap in (1, 2, 3, 4, n + 2, n + 5):
            assert_matches_the_recursion(f, cap)


@pytest.mark.parametrize("n", range(2, 8))
def test_closed_form_matches_the_recursion_on_sparse_phase_polynomials(n):
    # A few monomials of degree 2 to 4 with odd multiples of pi, pi/2 or
    # pi/4 as coefficients, plus an arbitrary linear part and constant.
    rng = np.random.default_rng(200 + n)
    x = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    for _ in range(25):
        f = rng.integers(0, 2**BITS) + x @ rng.integers(0, 2**BITS, size=n)
        for _ in range(rng.integers(1, 4)):
            qubits = rng.choice(n, size=rng.integers(2, min(n, 4) + 1), replace=False)
            coeff = (2 * rng.integers(0, 4) + 1) << (BITS - rng.integers(1, 4))
            f += coeff * x[:, qubits].prod(axis=1)
        for cap in (3, 6, 9):
            assert_matches_the_recursion(f, cap)


@pytest.mark.parametrize("n", range(7, 11))
def test_closed_form_matches_the_recursion_on_wide_cnz(n):
    # Past the matrix route's reach: the recursion still confirms n + 1.
    f = np.where(np.diagonal(build_CnZ(n)) == -1, 2 ** (BITS - 1), 0)
    for cap in (3, n, n + 1):
        assert_matches_the_recursion(f, cap)
    assert diagonal_level(build_CnZ(n), n + 1) == n + 1


def test_two_qubit_diagonal_gates_match_the_closed_form_of_the_blocks():
    # det A / det B of diag(d00, d01, d10, d11) is exp(2 pi i a_12 / 2^BITS),
    # a_12 being the coefficient of x_1 x_2. The phases of one gate share a
    # random 2-adic valuation, so the levels spread over 2 .. BITS + 2.
    rng = np.random.default_rng(31)
    for _ in range(200):
        f = rng.integers(0, 2**BITS, size=4) << rng.integers(0, BITS)
        u = integer_phase_gate(f)
        assert diagonal_level(u, 30) == two_qubit_min_level(u)


def _diagonal_gates(rng):
    """(gate, k_max) pairs with n <= 4, Gaussian and not."""
    return [
        (phase_polynomial(2, [((0,), rng.integers(8) / 4), ((1,), rng.integers(8) / 4)]), 3),
        (cphase(np.pi / 4), 5),
        (build_F((1, None, 1)), 3),
        (phase_polynomial(3, [((0, 2), 1 / 2), ((1,), 3 / 8)]), 4),
        (build_CnZ(4), 5),
    ]


@pytest.mark.parametrize("eps", EPSILONS)
def test_classify_agrees_with_the_matrix_route_across_the_tolerance_edge(eps):
    rng = np.random.default_rng(EPSILONS.index(eps))
    for gate, k in _diagonal_gates(rng):
        u = perturbed(gate, eps, rng)
        report = classify_gate(u, k)
        assert report.min_level == min_level(u, k)
        assert report.is_gaussian == (report.min_level is not None and report.min_level <= 2)


def test_exact_dyadic_gates_skip_the_matrix_route(matrix_calls):
    for gate, k in _diagonal_gates(np.random.default_rng(5)):
        assert classify_gate(gate, k).min_level is not None
    assert classify_gate(named_gate("SWAP")).min_level == 3
    assert matrix_calls == [8]


@pytest.mark.parametrize("eps", [e for e in EPSILONS if e >= 1e-11])
def test_perturbed_gates_take_the_matrix_route(matrix_calls, eps):
    u = perturbed(named_gate("CZ"), eps, np.random.default_rng(7))
    assert diagonal_level(u) is NotImplemented
    classify_gate(u, 3)
    assert matrix_calls == [3]


def test_phases_off_the_dyadic_grid_take_the_matrix_route(matrix_calls):
    assert hierarchy._phase_bits(DEFAULT_TOL) == 19
    assert diagonal_level(cphase(2 * np.pi / 2**19)) is None
    for u in (cphase(1.0), cphase(2 * np.pi / 2**20)):
        assert diagonal_level(u) is NotImplemented
        assert classify_gate(u, 4).min_level is None
    assert matrix_calls == [4, 4]


def test_loose_tolerances_shrink_the_grid(matrix_calls):
    # Under MGH_TOL=1e-4 neighbouring roots must lie 0.1 apart: M = 5.
    loose = Tolerances(residual=1e-4)
    assert hierarchy._phase_bits(loose) == 5
    assert diagonal_level(cphase(np.pi / 16), 8, loose) == 7
    assert diagonal_level(cphase(np.pi / 32), 8, loose) is NotImplemented
    assert classify_gate(named_gate("CZ"), 4, loose).min_level == 3
    assert classify_gate(cphase(np.pi / 32), 4, loose).min_level is None
    assert matrix_calls == [4]


def test_other_inputs_are_not_taken():
    assert diagonal_level(named_gate("SWAP")) is NotImplemented
    assert diagonal_level(2 * np.eye(4, dtype=complex)) is NotImplemented
    nearly = np.eye(4, dtype=complex)
    nearly[0, 3] = 1e-300
    assert diagonal_level(nearly) is NotImplemented


@pytest.mark.parametrize("entry", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
def test_a_diagonal_that_is_not_finite_is_not_taken(bad, entry):
    # NaN compared False with PHASE_SNAP, so such a gate read as level 2
    d = np.ones(4, dtype=complex)
    d[entry] = bad
    assert diagonal_level(np.diag(d)) is NotImplemented


@pytest.mark.parametrize("k_max", [0, -3])
@pytest.mark.parametrize("route", [diagonal_level, min_level, classify_gate])
def test_level_cap_below_one_is_refused(route, k_max):
    with pytest.raises(ValueError, match="level cap must be >= 1"):
        route(named_gate("CZ"), k_max)


def test_cli_classifies_cnz7():
    result = CliRunner().invoke(main, ["classify", "--gate", "CNZ(7)"])
    assert result.exit_code == 0
    assert '"min_level": 8' in result.output
