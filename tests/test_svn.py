import numpy as np
import pytest

from matchgates import equal_up_to_phase, jw_set, named_gate, random_fermionic, svn_reconstruct
from matchgates.io import tuple_from_json, tuple_to_json
from matchgates.linalg import canonical_phase
from matchgates.majorana import check_car
from matchgates.svn import _contract_residuals


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
