"""The Majorana-word routes of svn, teleport and majorana against in-test
copies of the dense code they replaced.

Monomials and byproduct words K_z are signed permutations with phases in
{+-1, +-i}, so the word routes must give the dense products exactly; the
SvN columns come from a recurrence instead of per-column word products and
may move in the last bits only.
"""

import tracemalloc
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
    named_gate,
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
from matchgates.linalg import DEFAULT_TOL, NORM_TOL, canonical_phase, equal_up_to_phase, norm_max
from matchgates.majorana import SUPPORT_RESIDUAL_QUBITS, majorana_monomial, majorana_words
from matchgates.svn import PROBE_THRESHOLD, _contract_residuals
from reference import kron_majoranas, kron_parity


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
    u = canonical_phase(np.stack(columns, axis=1).conj().T)
    cs = jw_set(n)
    residuals = np.array([norm_max(u.conj().T @ cs[mu] @ u - ops[mu]) for mu in range(2 * n)])
    return u, residuals


def _dense_contract_residuals(u, ops):
    """||u^dag c_mu u - d_mu||_max for every mu, from the dense Majoranas."""
    cs = jw_set(len(ops) // 2)
    return np.array([norm_max(u.conj().T @ cs[mu] @ u - ops[mu]) for mu in range(len(ops))])


def _dense_K(z, n):
    """The byproduct word K_z as the dense ordered product."""
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


def _joined_corrections(u, flips, phases):
    return np.concatenate([stack for _, stack in teleport._correction_runs(u, flips, phases)])


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


def test_contract_residuals_match_the_dense_route():
    rng = np.random.default_rng(5)
    v = random_fermionic(4, rng, parity="odd")
    ops = _conjugated(v)
    other = random_fermionic(4, rng, parity="even")
    drift = np.diag(np.exp(0.2j * rng.choice([-1.0, 1.0], size=16)))
    residuals = []
    for u in (v, np.exp(0.7j) * v, v @ drift, other):
        got = _contract_residuals(u, ops)
        assert np.abs(got - _dense_contract_residuals(u, ops)).max() <= 1e-14
        residuals.append(got.max())
    # v and its phase meet the contract; the drifted v only within 0.5; other not at all
    assert residuals[0] <= 1e-14 and residuals[1] <= 1e-14
    assert 1e-9 < residuals[2] <= 0.5 < residuals[3]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_correction_K_matches_the_dense_product(n):
    flips, phases, _ = teleport._byproducts(n)
    for zi, z in enumerate(_outcomes(n)):
        assert np.array_equal(majorana._word_matrix(int(flips[zi]), phases[zi]), _dense_K(z, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_corrections_match_the_dense_route(n):
    rng = np.random.default_rng(200 + n)
    u = random_fermionic(n, rng, parity="odd" if n % 2 else "even")
    dense = np.stack([_dense_R(z, u) for z in _outcomes(n)])
    # the batched kernel both protocol routes use, and a batch of one
    flips, phases, _ = teleport._byproducts(n)
    assert np.array_equal(_joined_corrections(u, flips, phases), dense)
    assert np.array_equal(_joined_corrections(u, flips[-1:], phases[-1:])[0], dense[-1])
    transcript = simulate_protocol(u, random_state(n, rng))
    assert [b.z for b in transcript.branches] == _outcomes(n)
    for b, r in zip(transcript.branches, dense):
        assert np.abs(b.corrected - r @ b.raw_state).max() <= 1e-15


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
    flips, phases, _ = teleport._byproducts(2)
    assert flips.shape == (16,) and phases.shape == (16, 4)
    with pytest.raises(ValueError):
        phases[0, 0] = 0


def _same_bits(a, b):
    """Equal values, and equal signs of every real and imaginary part, zeros included."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def _word_route_byproduct(z, n):
    """K_z by one word per branch, as teleport built each byproduct before the monomial table."""
    s = sum(z[0::2])
    t = 0
    for j in range(1, n):
        t += (z[2 * j - 2] + z[2 * j - 1]) * sum(z[2 * j :])
    mus = []
    for k in range(1, n + 1):
        if z[2 * k - 1]:
            mus.append(2 * k - 1)
        if z[2 * k - 2]:
            mus.append(2 * k)
    flip, phase = majorana._word(n, mus)
    return flip, ((-1j) ** s) * ((-1) ** t) * phase


def _trace_route_expand(op):
    """expand by one dense monomial and one trace product per mask, as before the monomial table."""
    n = int(np.log2(op.shape[0]))
    terms = {}
    for mask in range(4**n):
        mono = majorana_monomial(n, mask)
        coef = complex(np.trace(mono.conj().T @ op)) / 2**n
        if abs(coef) >= NORM_TOL:
            terms[mask] = coef
    return terms


@pytest.mark.parametrize("n", range(1, 6))
def test_monomial_table_rows_are_the_words_to_the_bit(n):
    flips, phases = majorana._monomials(n)
    assert flips.shape == (4**n,) and phases.shape == (4**n, 2**n)
    for mask in range(4**n):
        flip, phase = majorana._word(n, majorana.indices_from_mask(mask))
        assert flips[mask] == flip and _same_bits(phases[mask], phase), mask


@pytest.mark.parametrize("n", range(1, 7))
def test_byproduct_table_is_the_word_route_to_the_bit(n):
    flips, phases, outcomes = teleport._byproducts(n)
    assert outcomes == tuple(_outcomes(n))
    for zi, z in enumerate(outcomes):
        flip, phase = _word_route_byproduct(z, n)
        assert flips[zi] == flip and _same_bits(phases[zi], phase), z
    assert not flips.flags.writeable and not phases.flags.writeable


def _expand_operators():
    cases = [(name, named_gate(name)) for name in ("SWAP", "CZ", "FSWAP", "GHH")]
    for n in range(1, 6):
        rng = np.random.default_rng(400 + n)
        dim = 2**n
        cases += [
            (f"complex n={n}", rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))),
            (f"real n={n}", rng.normal(size=(dim, dim))),
            (f"even n={n}", random_fermionic(n, rng, "even")),
            (f"odd n={n}", random_fermionic(n, rng, "odd")),
            (f"-i monomial n={n}", -1j * majorana_monomial(n, int(rng.integers(4**n)))),
            (f"CNZ({n})", build_CnZ(n)),
        ]
    return cases


EXPAND_OPERATORS = _expand_operators()


@pytest.mark.parametrize("name, op", EXPAND_OPERATORS, ids=[c[0] for c in EXPAND_OPERATORS])
def test_expand_equals_the_trace_route_to_the_repr(name, op):
    got, want = majorana.expand(op).terms, _trace_route_expand(op)
    assert list(got) == list(want)
    assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]


def _whole_table_expand(op):
    """expand with its two 4^n x 2^n gathers taken whole, as before they were streamed."""
    n = int(np.log2(op.shape[0]))
    flips, phases = majorana._monomials(n)
    index = np.arange(2**n)
    rows = index ^ flips[:, None]
    traces = (np.take_along_axis(phases, rows, axis=1).conj() * op[rows, index]).sum(axis=1)
    coefs = (t / 2**n for t in traces.tolist())
    return {mask: c for mask, c in enumerate(coefs) if abs(c) >= NORM_TOL}


@pytest.mark.parametrize("n", range(1, 7))
def test_streamed_expand_equals_the_whole_table_to_the_repr(monkeypatch, n):
    rng = np.random.default_rng(500 + n)
    dim = 2**n
    ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), random_fermionic(n, rng, "odd"), build_CnZ(n)]
    wants = [_whole_table_expand(op) for op in ops]
    counts = []
    runs = majorana._runs

    def spy(count, size, limit=None):
        slices = list(runs(count, size, limit))
        counts.append(len(slices))
        return slices

    monkeypatch.setattr(majorana, "_runs", spy)
    for chunk in (1, 7, 2**n, majorana.CHUNK_ENTRIES):
        monkeypatch.setattr(majorana, "CHUNK_ENTRIES", chunk)
        for op, want in zip(ops, wants):
            counts.clear()
            got = majorana.expand(op).terms
            # runs of max(chunk // 2^n, 1) monomials
            assert counts == [-(-(4**n) // max(chunk // dim, 1))], chunk
            assert list(got) == list(want)
            assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]


def test_expand_streams_its_gathers():
    rng = np.random.default_rng(6)
    op = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    majorana.expand(op)
    tracemalloc.start()
    try:
        majorana.expand(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 14.1 MiB with the whole gathers; the 4 MiB monomial table's build stays
    assert peak < 10 * 2**20


@pytest.mark.parametrize("n", range(1, 9))
def test_monomials_match_the_dense_product(n):
    oracle = kron_majoranas(n)
    rng = np.random.default_rng(70 + n)
    masks = range(4**n) if n <= 3 else [0, 4**n - 1, *map(int, rng.integers(4**n, size=6))]
    for mask in masks:
        dense = np.eye(2**n, dtype=complex)
        for mu in range(1, 2 * n + 1):
            if (mask >> (mu - 1)) & 1:
                dense = dense @ oracle[mu - 1]
        assert np.array_equal(majorana_monomial(n, mask), dense)


@pytest.mark.parametrize("n", range(1, 9))
def test_jw_stack_is_the_dense_jordan_wigner_set(n):
    # equal values; only the sign of some zeros differs from the kron products
    stack = majorana._jw_stack(n)
    assert np.array_equal(stack, np.stack(kron_majoranas(n)))
    assert stack.dtype == np.complex128 and not stack.flags.writeable


# from SUPPORT_RESIDUAL_QUBITS on the kernels never read the stack; there
# test_support_residual_equals_the_dense_stack_residual holds them to it
@pytest.mark.parametrize("n", range(1, SUPPORT_RESIDUAL_QUBITS))
def test_kernels_on_the_scattered_stack_match_the_kron_stack(monkeypatch, n):
    rng = np.random.default_rng(60 + n)
    parity = ["even", "odd"]
    ops = [random_fermionic(n, rng, parity[i % 2]) for i in range(4)] if n > 1 else [np.eye(2)]
    ops = np.stack(ops + [jw_majorana(n, 1), jw_majorana(n, 2 * n) @ jw_majorana(n, 1)]).astype(complex)
    ops[-1] = ops[-1] + 1e-10 * rng.standard_normal(ops[-1].shape)
    got = [*majorana._rotations(ops, n, DEFAULT_TOL), *hierarchy._first_level(ops, n, DEFAULT_TOL)]
    kron_stack = np.stack(kron_majoranas(n))
    monkeypatch.setattr(majorana, "_jw_stack", lambda _: kron_stack)
    want = [*majorana._rotations(ops, n, DEFAULT_TOL), *hierarchy._first_level(ops, n, DEFAULT_TOL)]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_kernels_fill_the_dense_stack_below_the_support_cutoff():
    majorana._jw_stack.cache_clear()
    rng = np.random.default_rng(8)
    assert extract_rotation(random_fermionic(6, rng, "even")) is None
    assert classify_gate(build_CnZ(3)).min_level == 4
    assert circuit_to_rotation(parse_circuit("qubits 3\nG H H @ 1\n")).shape == (6, 6)
    assert majorana._jw_stack.cache_info().currsize > 0


def test_state_parity_matches_the_dense_parity_operator():
    rng = np.random.default_rng(9)
    for n in (1, 3, 8):
        sign = majorana_words(n).sign
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        even = np.where(sign > 0, psi, 0) / np.linalg.norm(np.where(sign > 0, psi, 0))
        odd = np.where(sign < 0, psi, 0) / np.linalg.norm(np.where(sign < 0, psi, 0))
        for state in (even, odd, psi):
            assert np.array_equal(sign * state, kron_parity(n) @ state)


@pytest.mark.parametrize(
    "token",
    [
        "inf",
        "-inf",
        "nan",
        "1e400",
        pytest.param("9" * 400 + "pi", id="huge-pi-form"),
        pytest.param("3pi/" + "9" * 400, id="huge-denominator"),
    ],
)
def test_parse_angle_refuses_non_finite_values(token):
    with pytest.raises(ValueError, match=f"angle must be finite, got '{token}'"):
        parse_angle(token)


@pytest.mark.parametrize(
    "token",
    [
        pytest.param("0pi/" + "9" * 400, id="zero"),
        pytest.param("-0pi/" + "9" * 400, id="minus-zero"),
        pytest.param("0.0pi/" + "9" * 400, id="decimal-zero"),
    ],
)
def test_parse_angle_reads_zero_over_an_overflowing_denominator_as_zero(token):
    # every K pi/M with K = 0 is the angle 0, however large M is
    assert parse_angle(token) == 0.0


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
        (["classify", "--gate", "CPHASE(3pi/" + "9" * 400 + ")"], None),
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
