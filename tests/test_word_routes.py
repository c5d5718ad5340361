"""The Majorana-word routes of svn, teleport and majorana against in-test
copies of the dense code they replaced.

Monomials and byproduct words K_z are signed permutations with phases in
{+-1, +-i}, so the word routes must give the dense products exactly; the
SvN columns come from a recurrence instead of per-column word products and
may move in the last bits only.
"""

from itertools import product

import numpy as np
import pytest
from click.testing import CliRunner

from matchgates import (
    check_car,
    circuit_to_rotation,
    classify_gate,
    extract_rotation,
    jw_majorana,
    jw_set,
    parse_circuit,
    random_fermionic,
    random_state,
    simulate_protocol,
    svn_reconstruct,
    verify_protocol,
)
from matchgates import hierarchy, majorana, teleport
from matchgates.circuits import CircuitError, build_CnZ, parse_angle
from matchgates.cli import main
from matchgates.hierarchy import min_level
from matchgates.linalg import DEFAULT_TOL, Tolerances, canonical_phase, equal_up_to_phase, norm_max
from matchgates.majorana import majorana_monomial, majorana_words, state_parity, total_parity
from matchgates.svn import PROBE_THRESHOLD, verify_uniqueness
from matchgates.teleport import correction_K, correction_R


def _dense_svn(ops, tol=DEFAULT_TOL):
    """The column loop and residuals of svn_reconstruct before the word table."""
    n = check_car(ops, tol.residual).n_modes
    dim = 2**n
    projector = np.eye(dim, dtype=complex)
    for k in range(1, n + 1):
        projector = projector @ (np.eye(dim) + (-1j) * ops[2 * k - 2] @ ops[2 * k - 1]) / 2
    probe = next(p for p in range(dim) if np.linalg.norm(projector[:, p]) > PROBE_THRESHOLD)
    vacuum = projector[:, probe] / np.linalg.norm(projector[:, probe])
    columns = []
    for zi in range(dim):
        word = np.eye(dim, dtype=complex)
        for k in range(1, n + 1):
            if (zi >> (n - k)) & 1:
                word = word @ ops[2 * (k - 1)]
        columns.append(word @ vacuum)
    u = canonical_phase(np.stack(columns, axis=1).conj().T, tol.norm)
    cs = jw_set(n)
    residuals = np.array([norm_max(u.conj().T @ cs[mu] @ u - ops[mu]) for mu in range(2 * n)])
    return u, residuals


def _dense_verify(ops, u1, u2, tol=DEFAULT_TOL):
    """verify_uniqueness before the word table."""
    cs = jw_set(len(ops) // 2)
    for label, u in (("u1", u1), ("u2", u2)):
        bad = [
            (mu + 1, norm_max(u.conj().T @ cs[mu] @ u - ops[mu]))
            for mu in range(len(ops))
            if norm_max(u.conj().T @ cs[mu] @ u - ops[mu]) > tol.residual
        ]
        if bad:
            detail = ", ".join(f"mu={mu}: {res:.3e}" for mu, res in bad)
            raise ValueError(f"{label} violates the conjugation contract ({detail})")
    return equal_up_to_phase(u1, u2, tol.residual).equal


def _dense_K(z, n):
    """correction_K as the dense ordered product."""
    s = sum(z[0::2])
    t = sum((z[2 * j - 2] + z[2 * j - 1]) * sum(z[2 * j :]) for j in range(1, n))
    word = np.eye(2**n, dtype=complex)
    for k in range(1, n + 1):
        if z[2 * k - 1]:
            word = word @ jw_majorana(n, 2 * k - 1)
        if z[2 * k - 2]:
            word = word @ jw_majorana(n, 2 * k)
    return ((-1j) ** s) * ((-1) ** t) * word


def _dense_R(z, u):
    k = _dense_K(z, int(np.log2(u.shape[0])))
    return u @ k.conj().T @ u.conj().T


def _outcomes(n):
    return list(product((0, 1), repeat=2 * n))


def _conjugated(v):
    n = int(np.log2(v.shape[0]))
    return [v.conj().T @ c @ v for c in jw_set(n)]


def _x_all(n):
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, np.array([[0, 1], [1, 0]], dtype=complex))
    return out


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_svn_columns_match_the_dense_loop(n, parity):
    v = random_fermionic(n, np.random.default_rng(100 + n), parity=parity)
    ops = _conjugated(v)
    rec = svn_reconstruct(ops)
    u, residuals = _dense_svn(ops)
    assert np.abs(rec.u - u).max() <= 1e-14
    assert np.abs(rec.residuals - residuals).max() <= 1e-14


@pytest.mark.parametrize(
    "name, ops",
    [
        # vacuum |1..1>: the projector kills probes 0..6 and the column comes from probe 7
        ("late probe", _conjugated(_x_all(3))),
        ("sign flipped", [-c for c in jw_set(3)]),
        ("identity", jw_set(3)),
    ],
)
def test_svn_exact_tuples_match_the_dense_loop_to_the_bit(name, ops):
    rec = svn_reconstruct(ops)
    u, residuals = _dense_svn(ops)
    assert np.array_equal(rec.u, u)
    assert np.array_equal(rec.residuals, residuals)
    assert rec.max_residual == 0.0


def test_verify_uniqueness_matches_the_dense_route():
    rng = np.random.default_rng(5)
    v = random_fermionic(4, rng, parity="odd")
    ops = _conjugated(v)
    other = random_fermionic(4, rng, parity="even")
    drift = np.diag(np.exp(0.2j * rng.choice([-1.0, 1.0], size=16)))
    cases = [
        (v, np.exp(0.7j) * v, DEFAULT_TOL),  # True
        (v, v @ drift, Tolerances(residual=0.5)),  # contract within tol, not equal: False
        (other, v, DEFAULT_TOL),  # u1 violates
        (v, other, DEFAULT_TOL),  # u2 violates
    ]
    verdicts = []
    for u1, u2, tol in cases:
        try:
            expected = _dense_verify(ops, u1, u2, tol)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                verify_uniqueness(ops, u1, u2, tol)
            assert str(got.value) == str(exc)
            verdicts.append("error")
        else:
            assert verify_uniqueness(ops, u1, u2, tol) is expected
            verdicts.append(expected)
    assert verdicts == [True, False, "error", "error"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_correction_K_matches_the_dense_product(n):
    for z in _outcomes(n):
        assert np.array_equal(correction_K(z, n), _dense_K(z, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_corrections_match_the_dense_route(n):
    rng = np.random.default_rng(200 + n)
    u = random_fermionic(n, rng, parity="odd" if n % 2 else "even")
    dense = np.stack([_dense_R(z, u) for z in _outcomes(n)])
    # the batched kernel both protocol routes use, and the public batch of one
    assert np.array_equal(teleport._corrections(u, *teleport._byproducts(n)), dense)
    assert np.array_equal(correction_R(_outcomes(n)[-1], u), dense[-1])
    transcript = simulate_protocol(u, random_state(n, rng))
    assert [b.z for b in transcript.branches] == _outcomes(n)
    assert all(np.array_equal(b.correction, r) for b, r in zip(transcript.branches, dense))
    for b in transcript.branches:
        assert np.abs(b.corrected - b.correction @ b.raw_state).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2])
def test_verify_protocol_matches_the_dense_grouping(n):
    u = random_fermionic(n, np.random.default_rng(300 + n), parity="even")
    reps, counts = [], []
    for z in _outcomes(n):
        r = _dense_R(z, u)
        for i, rep in enumerate(reps):
            if equal_up_to_phase(r, rep).equal:
                counts[i] += 1
                break
        else:
            reps.append(r)
            counts.append(1)
    by_level = {}
    for rep, cnt in zip(reps, counts):
        lvl = min_level(rep, 6)
        by_level[lvl] = by_level.get(lvl, 0) + cnt
    expected = tuple(sorted(by_level.items(), key=lambda kv: (kv[0] is None, kv[0])))
    report = verify_protocol(u, trials=2, seed=3)
    assert report.correction_levels == expected
    assert report.passed


def test_byproduct_table_is_read_only():
    flips, phases = teleport._byproducts(2)
    assert flips.shape == (16,) and phases.shape == (16, 4)
    with pytest.raises(ValueError):
        phases[0, 0] = 0


@pytest.mark.parametrize("n", [2, 3])
def test_monomials_match_the_dense_product(n):
    for mask in range(4**n):
        dense = np.eye(2**n, dtype=complex)
        for mu in range(1, 2 * n + 1):
            if (mask >> (mu - 1)) & 1:
                dense = dense @ jw_majorana(n, mu)
        assert np.array_equal(majorana_monomial(n, mask), dense)


@pytest.mark.parametrize("n", range(1, 9))
def test_jw_stack_is_the_dense_jordan_wigner_set(n):
    # equal values; only the sign of some zeros differs from the kron products
    stack = majorana._jw_stack(n)
    assert np.array_equal(stack, np.stack(jw_set(n)))
    assert stack.dtype == np.complex128 and not stack.flags.writeable


@pytest.mark.parametrize("n", range(1, 7))
def test_kernels_on_the_scattered_stack_match_the_kron_stack(monkeypatch, n):
    rng = np.random.default_rng(60 + n)
    parity = ["even", "odd"]
    ops = [random_fermionic(n, rng, parity[i % 2]) for i in range(4)] if n > 1 else [np.eye(2)]
    ops = np.stack(ops + [jw_majorana(n, 1), jw_majorana(n, 2 * n) @ jw_majorana(n, 1)]).astype(complex)
    ops[-1] = ops[-1] + 1e-10 * rng.standard_normal(ops[-1].shape)
    got = [*majorana._rotations(ops, n, DEFAULT_TOL), *hierarchy._first_level(ops, n, DEFAULT_TOL)]
    kron_stack = np.stack(jw_set(n))
    monkeypatch.setattr(majorana, "_jw_stack", lambda _: kron_stack)
    monkeypatch.setattr(hierarchy, "_jw_stack", lambda _: kron_stack)
    want = [*majorana._rotations(ops, n, DEFAULT_TOL), *hierarchy._first_level(ops, n, DEFAULT_TOL)]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_kernels_leave_the_dense_jordan_wigner_cache_empty():
    majorana._jw_cached.cache_clear()
    majorana._jw_stack.cache_clear()
    rng = np.random.default_rng(8)
    assert extract_rotation(random_fermionic(6, rng, "even")) is None
    assert classify_gate(build_CnZ(3)).min_level == 4
    assert circuit_to_rotation(parse_circuit("qubits 3\nG H H @ 1\n")).shape == (6, 6)
    assert majorana._jw_stack.cache_info().currsize > 0
    assert majorana._jw_cached.cache_info().currsize == 0


def test_state_parity_matches_the_dense_parity_operator():
    rng = np.random.default_rng(9)
    for n in (1, 3, 8):
        sign = majorana_words(n).sign
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        even = np.where(sign > 0, psi, 0) / np.linalg.norm(np.where(sign > 0, psi, 0))
        odd = np.where(sign < 0, psi, 0) / np.linalg.norm(np.where(sign < 0, psi, 0))
        for state, expected in ((even, "even"), (odd, "odd"), (psi, "none")):
            assert np.array_equal(sign * state, total_parity(n) @ state)
            assert state_parity(state) == expected


@pytest.mark.parametrize(
    "token", ["inf", "-inf", "nan", "1e400", pytest.param("9" * 400 + "pi", id="huge-pi-form")]
)
def test_parse_angle_refuses_non_finite_values(token):
    with pytest.raises(ValueError, match=f"angle must be finite, got '{token}'"):
        parse_angle(token)


@pytest.mark.parametrize(
    "text, col",
    [
        ("qubits 1\nP(inf) @ 1\n", 1),
        ("qubits 2\nRZ(nan) @ 2\n", 1),
        ("qubits 1\nallow freeform\nG RZ(inf) I @ 1\n", 3),
    ],
)
def test_circuit_files_refuse_non_finite_angles_with_their_position(text, col):
    with pytest.raises(CircuitError, match="angle must be finite") as exc:
        parse_circuit(text)
    assert (exc.value.line, exc.value.col) == (text.count("\n"), col)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "args, text",
    [
        (["parse", "{path}", "--emit", "matrix"], "qubits 1\nP(inf) @ 1\n"),
        (["parse", "{path}", "--emit", "matrix"], "qubits 2\nRZ(nan) @ 2\n"),
        (["classify", "--gate", "RZ(inf)"], None),
    ],
)
def test_cli_refuses_non_finite_angles(tmp_path, args, text):
    path = tmp_path / "circuit.txt"
    if text is not None:
        path.write_text(text)
    result = CliRunner().invoke(main, [a.format(path=path) for a in args])
    assert result.exit_code == 1
    err = getattr(result, "stderr", "") or result.output
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "angle must be finite" in lines[0]
    assert "Warning" not in result.output
