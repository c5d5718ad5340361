import warnings
from itertools import product

import numpy as np
import pytest

from matchgates import equal_up_to_phase, jw_set, named_gate, random_fermionic, svn, svn_reconstruct
from matchgates.io import tuple_from_json, tuple_to_json
from matchgates.linalg import DEFAULT_TOL, Tolerances, canonical_phase
from matchgates.majorana import check_car
from matchgates.sampling import haar_unitary
from matchgates.svn import PROBE_THRESHOLD, _contract_residuals


def _conjugated_tuple(v):
    n = int(np.log2(v.shape[0]))
    return [v.conj().T @ c @ v for c in jw_set(n)]


def test_round_trip_even_and_odd():
    rng = np.random.default_rng(31)
    for parity in ("even", "odd"):
        for n in (2, 3):
            v = random_fermionic(n, rng, parity=parity)
            rec = svn_reconstruct(_conjugated_tuple(v))
            assert rec.max_residual < 1e-9
            m = equal_up_to_phase(rec.u, v)
            assert m.equal and m.residual < 1e-8


def test_contract_direction():
    # the result conjugates the standard Majoranas INTO the tuple
    v = named_gate("CPHASE", (np.pi / 2,))
    tup = _conjugated_tuple(v)
    rec = svn_reconstruct(tup)
    cs = jw_set(2)
    for mu, d in enumerate(tup):
        got = rec.u.conj().T @ cs[mu] @ rec.u
        assert np.linalg.norm(got - d) < 1e-9


def test_result_is_phase_canonical():
    v = named_gate("CZ")
    rec = svn_reconstruct(_conjugated_tuple(v))
    assert np.allclose(rec.u, canonical_phase(rec.u))


def test_sign_flipped_tuple_reconstructs_different_unitary():
    # flipping one operator keeps the anticommutation relations but moves
    # to a genuinely different tuple, so a different unitary comes back
    v = named_gate("CZ")
    tup = _conjugated_tuple(v)
    tup[0] = -tup[0]
    rec = svn_reconstruct(tup)
    assert rec.max_residual < 1e-9
    assert not equal_up_to_phase(rec.u, v).equal


def test_car_failure_raises():
    tup = _conjugated_tuple(named_gate("CZ"))
    tup[1] = tup[0]
    with pytest.raises(ValueError, match="anticommutation"):
        svn_reconstruct(tup)


def test_rejects_wrong_count():
    tup = _conjugated_tuple(named_gate("CZ"))[:3]
    with pytest.raises(ValueError):
        svn_reconstruct(tup)


def test_uniqueness_up_to_phase():
    rng = np.random.default_rng(41)
    v = random_fermionic(2, rng)
    tup = _conjugated_tuple(v)
    rec = svn_reconstruct(tup)
    phased = np.exp(1.2j) * rec.u
    assert _contract_residuals(phased, tup).max() < 1e-9
    assert equal_up_to_phase(rec.u, phased).equal
    assert _contract_residuals(named_gate("SWAP"), tup).max() > 1e-9


def test_tuple_json_round_trip(tmp_path):
    import json

    v = named_gate("FSWAP")
    tup = _conjugated_tuple(v)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(tuple_to_json(tup)))
    back = tuple_from_json(json.loads(path.read_text()))
    assert len(back) == 4
    for a, b in zip(tup, back):
        assert np.allclose(a, b)
    # bare-list form also accepted
    bare = json.loads(path.read_text())["operators"]
    assert len(tuple_from_json(bare)) == 4


def test_reconstruct_identity_tuple():
    cs = jw_set(2)
    rec = svn_reconstruct(list(cs))
    assert rec.max_residual < 1e-12
    assert equal_up_to_phase(rec.u, np.eye(4, dtype=complex)).equal


def test_non_hermitian_car_tuple_is_refused():
    # S c_mu S^-1 keeps every anticommutator but not Hermiticity.
    rng = np.random.default_rng(12)
    s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    tup = [s @ c @ np.linalg.inv(s) for c in jw_set(2)]
    report = check_car(tup)
    assert report.passed and report.max_hermiticity > 0.1
    with pytest.raises(ValueError, match="not Hermitian"):
        svn_reconstruct(tup)


def test_check_car_refuses_a_nan_entry():
    # a NaN residual never compared above the running worst, so this passed with residual 0
    tup = jw_set(1)
    tup[1] = tup[1].copy()
    tup[1][0, 0] = np.nan
    with pytest.raises(ValueError, match="^operator 2 has an entry that is not finite$"):
        check_car(tup)


def _check_first_svn(ops, tol, report=None):
    """svn_reconstruct as it was before acceptance was certified: the pairwise
    check_car first, then the reconstruction. report, check_car's report on
    ops at any tolerance, is computed when not given."""
    report = check_car(ops, tol.residual) if report is None else report
    if not report.max_pair_residual < tol.residual:
        raise ValueError(
            f"tuple fails the anticommutation relations at pair {report.worst_pair} "
            f"(residual {report.max_pair_residual:.3e})"
        )
    if report.max_hermiticity >= tol.residual:
        raise ValueError(f"tuple is not Hermitian (max ||d_mu - d_mu^dag|| {report.max_hermiticity:.3e})")
    n = report.n_modes
    dim = 2**n
    projector = np.eye(dim, dtype=complex)
    for k in range(1, n + 1):
        projector = projector @ (np.eye(dim) + (-1j) * ops[2 * k - 2] @ ops[2 * k - 1]) / 2
    probes = [p for p in range(dim) if np.linalg.norm(projector[:, p]) > PROBE_THRESHOLD]
    if not probes:
        rank = int(np.linalg.matrix_rank(projector, tol=PROBE_THRESHOLD))
        raise ValueError(
            f"projector annihilates every basis probe (numerical rank {rank}); the tuple is degenerate"
        )
    columns = np.empty((dim, dim), dtype=complex)
    columns[0] = projector[:, probes[0]] / np.linalg.norm(projector[:, probes[0]])
    for k in range(n, 0, -1):
        h = 1 << (n - k)
        columns[h : 2 * h] = columns[:h] @ ops[2 * k - 2].T
    u = canonical_phase(columns.conj())
    return u, _contract_residuals(u, ops)


def _outcome(route, ops, tol):
    """(u, residuals) of a route, or its ValueError message."""
    try:
        return route(ops, tol)
    except ValueError as exc:
        return str(exc)


def test_certified_reconstruction_matches_the_check_first_route():
    def certified(ops, tol):
        result = svn_reconstruct(ops, tol)
        return result.u, result.residuals

    for n, (p, parity) in product(range(1, 8), enumerate(("even", "odd"))):
        rng = np.random.default_rng([23, n, p])
        tup = _conjugated_tuple(random_fermionic(n, rng, parity=parity))
        shape = tup[0].shape
        kick = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        for eps in (0.0, 1e-13, 1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8):
            ops = list(tup)
            ops[n] = tup[n] + eps * kick
            # one pairwise check per tuple, read against each tolerance
            report = check_car(ops)
            for tol in (Tolerances(1e-9), Tolerances(1e-14)):
                want = _outcome(lambda ops, tol: _check_first_svn(ops, tol, report), ops, tol)
                got = _outcome(certified, ops, tol)
                if isinstance(want, str):
                    assert got == want, (n, parity, eps, tol)
                else:
                    assert not isinstance(got, str), (n, parity, eps, tol, got)
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (n, parity, eps, tol)


def test_check_car_runs_only_when_the_certificate_fails(monkeypatch):
    calls = []

    def counting_check_car(*args):
        calls.append(args)
        return check_car(*args)

    monkeypatch.setattr(svn, "check_car", counting_check_car)
    rng = np.random.default_rng(8)
    for n in range(2, 8):
        svn_reconstruct(_conjugated_tuple(random_fermionic(n, rng)))
    assert calls == []

    refused = _conjugated_tuple(named_gate("CZ"))
    refused[1] = refused[0]
    with pytest.raises(ValueError, match="anticommutation"):
        svn_reconstruct(refused)
    assert len(calls) == 1

    # CAR holds to about 1e-15: accepted by default, refused under 1e-16
    tup = _conjugated_tuple(random_fermionic(3, rng))
    svn_reconstruct(tup)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="anticommutation"):
        svn_reconstruct(tup, Tolerances(1e-16))
    assert len(calls) == 2

    # check_car would multiply complex64 operators in single precision, outside the certificate
    single = [c.astype(np.complex64) for c in jw_set(3)]
    result = svn_reconstruct(single)
    assert len(calls) == 3
    want = _check_first_svn(single, DEFAULT_TOL)
    assert np.array_equal(result.u, want[0]) and np.array_equal(result.residuals, want[1])


def test_anticommutation_is_refused_before_hermiticity_and_degeneracy():
    # [I, -iI] fails CAR and Hermiticity, and its projector (1 + (-i)(I)(-iI)) / 2 is zero
    eye = np.eye(2, dtype=complex)
    tup = [eye, -1j * eye]
    report = check_car(tup)
    assert not report.passed and report.max_hermiticity >= DEFAULT_TOL.residual
    with pytest.raises(ValueError, match="^tuple fails the anticommutation relations at pair"):
        svn_reconstruct(tup)


def test_a_boolean_operand_is_refused_by_name():
    # numpy cannot subtract booleans: the Hermiticity measure raised TypeError
    x, y = jw_set(1)
    flag = x.real.astype(bool)
    for route in (svn_reconstruct, check_car):
        with pytest.raises(ValueError, match=r"^operator 1 is not numeric \(dtype bool\)$"):
            route([flag, y])
    with pytest.raises(ValueError, match=r"^operator 2 is not numeric \(dtype object\)$"):
        svn_reconstruct([x, y.astype(object)])


def test_refused_tuples_skip_the_work_the_certificate_cannot_use(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(svn, name)

        def counting(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(svn, name, counting)

    spy("_columns")
    spy("_contract_residuals")
    tup = _conjugated_tuple(random_fermionic(3, np.random.default_rng(4)))
    svn_reconstruct(tup)
    assert calls == ["_columns", "_contract_residuals"]

    # not Hermitian: check_car refuses it before any reconstruction
    calls.clear()
    anti = list(tup)
    anti[0] = 1j * tup[0]
    with pytest.raises(ValueError, match="anticommutation"):
        svn_reconstruct(anti)
    assert calls == []

    # operator 3 copies operator 1: the columns are far from orthonormal,
    # delta >= 1/2, and no contract residual is formed
    calls.clear()
    copied = list(tup)
    copied[2] = tup[0]
    with pytest.raises(ValueError, match="anticommutation"):
        svn_reconstruct(copied)
    assert calls == ["_columns"]

    # operator 1 kicked by 1e-7: delta < 1/2, but the bound fails even at r = 0
    calls.clear()
    kick = np.random.default_rng(1).normal(size=(8, 8))
    kicked = list(tup)
    kicked[0] = tup[0] + 1e-7 * (kick + kick.T)
    with pytest.raises(ValueError, match="anticommutation"):
        svn_reconstruct(kicked)
    assert calls == ["_columns"]

    # n = 4, each operator kicked by a Hermitian 3e-11: the bound fails but
    # check_car passes, and the residuals are formed after it
    spy("check_car")
    calls.clear()
    rng = np.random.default_rng(0)
    noisy = []
    for d in _conjugated_tuple(random_fermionic(4, rng)):
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = h + h.conj().T
        noisy.append(d + 3e-11 * h / np.abs(h).max())
    assert svn_reconstruct(noisy).max_residual < 1e-9
    assert calls == ["_columns", "check_car", "_contract_residuals"]


def _bytes_or_error(ops, tol=DEFAULT_TOL):
    """The bytes of a reconstruction's u and residuals, or its error text."""
    try:
        result = svn_reconstruct(ops, tol)
    except ValueError as exc:
        return str(exc)
    return result.u.tobytes(), result.residuals.tobytes()


def _spy(monkeypatch, calls, *names):
    for name in names:
        real = getattr(svn, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(svn, name, counting)


@pytest.mark.parametrize("n, parity", [(6, "even"), (6, "odd"), (7, "even"), (7, "odd")])
def test_an_exactly_odd_tuple_takes_the_block_route(monkeypatch, n, parity):
    calls = []
    _spy(monkeypatch, calls, "_OddTuple", "_columns", "_contract_residuals", "check_car")
    svn_reconstruct(_conjugated_tuple(random_fermionic(n, np.random.default_rng([41, n]), parity)))
    assert calls == ["_OddTuple"]


def _fallback(case):
    rng = np.random.default_rng(42)
    tup = _conjugated_tuple(random_fermionic(6, rng, "odd"))
    if case == "kicked":
        kick = rng.normal(size=tup[3].shape)
        return tup[:3] + [tup[3] + 1e-13 * (kick + kick.T)] + tup[4:]
    if case == "no parity":
        return _conjugated_tuple(haar_unitary(64, rng))
    return [d.astype(np.complex64) for d in tup]


@pytest.mark.parametrize(
    "case, work",
    [
        ("kicked", ["_columns"]),
        ("no parity", ["_columns"]),
        # check_car multiplies complex64 operators in single precision and refuses them
        ("complex64", []),
    ],
)
def test_tuples_outside_the_block_route_take_the_dense_route(monkeypatch, case, work):
    ops = _fallback(case)
    calls = []
    _spy(monkeypatch, calls, "_OddTuple", "_columns")
    got = _bytes_or_error(ops)
    assert calls == work
    assert isinstance(got, str) == (case == "complex64")
    monkeypatch.setattr(svn, "BLOCK_QUBITS", range(0))
    assert _bytes_or_error(ops) == got


def test_a_refused_odd_tuple_goes_from_the_block_route_to_the_dense_routes_error(monkeypatch):
    # operator 3 copies operator 1: exactly odd, so the block route reconstructs
    # it, the certificate fails, and check_car gives the refusal once
    tup = _conjugated_tuple(random_fermionic(6, np.random.default_rng(43), "even"))
    copied = tup[:2] + [tup[0]] + tup[3:]
    calls = []
    _spy(monkeypatch, calls, "_OddTuple", "_columns", "check_car")
    got = _bytes_or_error(copied)
    assert got.startswith("tuple fails the anticommutation relations at pair")
    assert calls == ["_OddTuple", "check_car"]
    calls.clear()
    monkeypatch.setattr(svn, "BLOCK_QUBITS", range(0))
    assert _bytes_or_error(copied) == got
    assert calls == ["_columns", "check_car"]


def test_a_degenerate_odd_tuple_gets_the_dense_routes_rank(monkeypatch):
    # d_2 = -i d_1 makes the first projector factor zero; under tol 5 it passes
    # check_car and the Hermiticity test, and the projector's rank is refused
    ops = jw_set(6)
    ops[1] = -1j * ops[0]
    got = _bytes_or_error(ops, Tolerances(5))
    assert got == "projector annihilates every basis probe (numerical rank 0); the tuple is degenerate"
    monkeypatch.setattr(svn, "BLOCK_QUBITS", range(0))
    assert _bytes_or_error(ops, Tolerances(5)) == got


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_an_overflowing_car_tuple_gets_the_anticommutation_refusal(n):
    # every product of 1e160 x a CAR tuple is NaN, which fails, so the
    # anticommutation refusal comes before the Hermiticity one
    v = random_fermionic(n, np.random.default_rng(n), "odd")
    huge = [1e160 * d for d in _conjugated_tuple(v)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^tuple fails the anticommutation relations at pair \(1, 1\) \(residual nan\)$"):
            svn_reconstruct(huge)


@pytest.mark.parametrize("n, route", [(2, "dense"), (3, "dense"), (6, "block"), (6, "dense"), (7, "block"), (7, "dense")])
def test_an_overflowing_probe_norm_keeps_the_refusal_order(monkeypatch, n, route):
    # d_{2n-1} scaled by 1e200: the probe norm overflows and the vacuum
    # normalises to zero, so nothing is certified and check_car refuses
    tup = _conjugated_tuple(random_fermionic(n, np.random.default_rng([40, n]), "odd"))
    tup[2 * n - 2] = 1e200 * tup[2 * n - 2]
    if route == "dense":
        monkeypatch.setattr(svn, "BLOCK_QUBITS", range(0))
    calls = []
    _spy(monkeypatch, calls, "_OddTuple", "_columns", "check_car")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^tuple fails the anticommutation relations at pair \(%d, %d\)" % (2 * n - 1, 2 * n - 1)):
            svn_reconstruct(tup)
    assert calls == ["_OddTuple" if route == "block" else "_columns", "check_car"]
