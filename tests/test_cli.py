import json

import numpy as np
import pytest
from click.testing import CliRunner

from matchgates import jw_set, named_gate
from matchgates.cli import main
from matchgates.io import matrix_to_json, save_json, state_to_json, tuple_to_json


@pytest.fixture()
def runner():
    return CliRunner()


def _err(result):
    return getattr(result, "stderr", "") or result.output


def test_classify_swap_json(runner):
    result = runner.invoke(main, ["classify", "--gate", "SWAP"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["min_level"] == 3
    assert d["parity"] == "even"
    assert not d["is_gaussian"]
    assert d["two_qubit"]["level_closed_form"] == 3


def test_classify_block_token(runner):
    result = runner.invoke(main, ["classify", "--gate", "G(H,H)"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["min_level"] == 2 and d["is_gaussian"]
    assert abs(d["rotation_det"] - 1.0) < 1e-9


def test_classify_pattern_and_majorana_tokens(runner):
    result = runner.invoke(main, ["classify", "--gate", "F(1,*,1)"])
    assert json.loads(result.output)["min_level"] == 3
    result = runner.invoke(main, ["classify", "--gate", "MAJORANA(3)", "-n", "2"])
    assert json.loads(result.output)["min_level"] == 1


def test_classify_mixed_parity_gate_exits_zero(runner):
    result = runner.invoke(main, ["classify", "--gate", "H"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["parity"] == "none" and d["min_level"] is None


def test_classify_inconclusive_exits_two(runner):
    # level-9 gate against the default cap of 8
    result = runner.invoke(main, ["classify", "--gate", "CPHASE(2pi/128)"])
    assert result.exit_code == 2
    d = json.loads(result.output)
    assert d["min_level"] is None and d["two_qubit"]["level_closed_form"] == 9


def test_classify_requires_one_source(runner):
    result = runner.invoke(main, ["classify"])
    assert result.exit_code == 1
    assert "exactly one" in _err(result)
    result = runner.invoke(main, ["classify", "--gate", "CZ", "--matrix", "x.json"])
    assert result.exit_code == 1


def test_classify_bad_token(runner):
    result = runner.invoke(main, ["classify", "--gate", "WHAT(3)"])
    assert result.exit_code == 1


def test_classify_matrix_file(runner, tmp_path):
    path = tmp_path / "cz.json"
    save_json(path, matrix_to_json(named_gate("CZ")))
    result = runner.invoke(main, ["classify", "--matrix", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["min_level"] == 3


def test_classify_rejects_nonunitary_matrix(runner, tmp_path):
    path = tmp_path / "bad.json"
    save_json(path, matrix_to_json(np.ones((4, 4))))
    result = runner.invoke(main, ["classify", "--matrix", str(path)])
    assert result.exit_code == 1
    assert "unitary" in _err(result)


def test_classify_circuit_file(runner, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\nG H H @ 1\nFSWAP @ 1\n")
    result = runner.invoke(main, ["classify", "--circuit", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["is_gaussian"]


def test_classify_text_format(runner):
    result = runner.invoke(main, ["classify", "--gate", "CZ", "--format", "text"])
    assert result.exit_code == 0
    assert "min level: 3" in result.output


def test_teleport_verify(runner):
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--trials", "1"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["passed"] and d["branch_count"] == 16


def test_teleport_with_state_file(runner, tmp_path):
    path = tmp_path / "state.json"
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    save_json(path, state_to_json(psi))
    result = runner.invoke(main, ["teleport", "--gate", "FSWAP", "--state", str(path)])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["passed"] and len(d["branches"]) == 16


def test_teleport_mixed_parity_errors(runner):
    result = runner.invoke(main, ["teleport", "--gate", "H"])
    assert result.exit_code == 1


def test_svn_round_trip_with_expect(runner, tmp_path):
    v = named_gate("CPHASE", (np.pi / 2,))
    tup = [v.conj().T @ c @ v for c in jw_set(2)]
    tup_path = tmp_path / "tup.json"
    save_json(tup_path, tuple_to_json(tup))
    v_path = tmp_path / "v.json"
    save_json(v_path, matrix_to_json(v))
    result = runner.invoke(main, ["svn", "--tuple", str(tup_path), "--expect", str(v_path)])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["passed"] and d["expect"]["equal"]
    assert d["max_residual"] < 1e-9


def test_svn_car_failure_exits_one(runner, tmp_path):
    cs = jw_set(2)
    tup = [cs[0], cs[0], cs[2], cs[3]]
    path = tmp_path / "bad.json"
    save_json(path, tuple_to_json(tup))
    result = runner.invoke(main, ["svn", "--tuple", str(path)])
    assert result.exit_code == 1
    assert "anticommutation" in _err(result)


def test_svn_expect_mismatch_exits_three(runner, tmp_path):
    v = named_gate("CZ")
    tup = [v.conj().T @ c @ v for c in jw_set(2)]
    tup_path = tmp_path / "tup.json"
    save_json(tup_path, tuple_to_json(tup))
    wrong = tmp_path / "wrong.json"
    save_json(wrong, matrix_to_json(named_gate("SWAP")))
    result = runner.invoke(main, ["svn", "--tuple", str(tup_path), "--expect", str(wrong)])
    assert result.exit_code == 3
    assert not json.loads(result.output)["expect"]["equal"]


def test_parse_canonical(runner, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\n g  h h @ 1\ng p(pi/2) p(pi/2) @ 1\n")
    result = runner.invoke(main, ["parse", str(path)])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "qubits 2"
    assert result.output.splitlines()[1] == "G H H @ 1"


def test_parse_emit_matrix(runner, tmp_path):
    from matchgates.io import matrix_from_json

    path = tmp_path / "c.txt"
    path.write_text("qubits 2\nFSWAP @ 1\n")
    result = runner.invoke(main, ["parse", str(path), "--emit", "matrix"])
    assert result.exit_code == 0
    m = matrix_from_json(json.loads(result.output))
    assert np.allclose(m, named_gate("FSWAP"))


def test_parse_emit_rotation(runner, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\nFSWAP @ 1\n")
    result = runner.invoke(main, ["parse", str(path), "--emit", "rotation"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    r = np.array(d["rotation"])
    assert d["n_modes"] == 4
    assert np.allclose(r @ r.T, np.eye(4))


def test_parse_rotation_refuses_freeform(runner, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\nallow freeform\nH @ 1\n")
    result = runner.invoke(main, ["parse", str(path), "--emit", "rotation"])
    assert result.exit_code == 1


def test_parse_error_reports_position(runner, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\nG I X @ 1\n")
    result = runner.invoke(main, ["parse", str(path)])
    assert result.exit_code == 1
    assert "line 2" in _err(result)
    assert "determinant mismatch" in _err(result)


def test_parse_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["parse", str(tmp_path / "nope.txt")])
    assert result.exit_code == 1


def test_selftest_subset(runner):
    result = runner.invoke(main, ["selftest", "--only", "1,3", "--format", "text"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("PASS criterion 1")
    assert lines[1].startswith("PASS criterion 3")
    assert lines[-1] == "2/2 criteria passed"


def test_selftest_json_deterministic(runner):
    a = runner.invoke(main, ["selftest", "--only", "1"])
    b = runner.invoke(main, ["selftest", "--only", "1"])
    assert a.exit_code == 0 and a.output == b.output
    d = json.loads(a.output)
    assert d["passed"] and d["results"][0]["index"] == 1
    assert "class_phases" in d


def test_selftest_bad_only(runner):
    result = runner.invoke(main, ["selftest", "--only", "1,99"])
    assert result.exit_code == 1
    result = runner.invoke(main, ["selftest", "--only", "a,b"])
    assert result.exit_code == 1


def test_mgh_tol_env_validation(runner):
    result = runner.invoke(main, ["classify", "--gate", "CZ"], env={"MGH_TOL": "abc"})
    assert result.exit_code == 1
    result = runner.invoke(main, ["classify", "--gate", "CZ"], env={"MGH_TOL": "-1"})
    assert result.exit_code == 1
    result = runner.invoke(main, ["classify", "--gate", "CZ"], env={"MGH_TOL": "1e-9"})
    assert result.exit_code == 0


def test_mgh_tol_env_loosens_admission(runner, tmp_path):
    # a tuple with a tiny perturbation fails at default tolerance but is
    # admitted when MGH_TOL is relaxed
    v = named_gate("CZ")
    tup = [v.conj().T @ c @ v for c in jw_set(2)]
    tup[0] = tup[0] + 1e-7 * np.eye(4)
    path = tmp_path / "tup.json"
    save_json(path, tuple_to_json(tup))
    strict = runner.invoke(main, ["svn", "--tuple", str(path)])
    assert strict.exit_code == 1
    loose = runner.invoke(main, ["svn", "--tuple", str(path)], env={"MGH_TOL": "1e-4"})
    assert loose.exit_code == 0


def test_classify_past_the_work_guard_exits_four(runner):
    # levels 2..12 are searched and fail; level 13 would need 4^12 conjugations
    result = runner.invoke(main, ["classify", "--gate", "CPHASE(1)", "--k-max", "13"])
    assert result.exit_code == 4
    assert _err(result).strip() == (
        "error: level-13 membership at n=2 needs about 1.68e+07 dense conjugations (guard 1e+07)"
    )
