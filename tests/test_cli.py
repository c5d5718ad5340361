import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import matchgates
from matchgates import cli, jw_set, named_gate, selftest
from matchgates.cli import gate_from_token, main
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_majorana_prints_no_negative_zero(runner, n):
    # the word-built c_mu has +0 structural zeros where Pauli Kronecker
    # products have -0; the block determinants print +0.0 for both
    for mu in range(1, 2 * n + 1):
        result = runner.invoke(main, ["classify", "--gate", f"MAJORANA({mu})", "-n", str(n)])
        assert result.exit_code == 0
        assert "-0.0" not in result.output
        two_qubit = json.loads(result.output)["two_qubit"]
        if n == 2:
            for det in (two_qubit["detA"], two_qubit["detB"]):
                assert det["im"] == 0.0 and np.copysign(1.0, det["im"]) == 1.0
        else:
            assert two_qubit is None


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


@pytest.mark.parametrize("token", ["CPHASE(pi/0)", "CPHASE(0pi/0)", "G(P(pi/0),I)"])
def test_classify_zero_denominator_exits_one(runner, token):
    result = runner.invoke(main, ["classify", "--gate", token])
    assert result.exit_code == 1
    assert "error: angle has a zero denominator" in _err(result)
    assert "Traceback" not in result.output


def test_parse_zero_denominator_reports_position(runner, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\nCPHASE(pi/0) @ 1\n")
    result = runner.invoke(main, ["parse", str(path)])
    assert result.exit_code == 1
    assert "line 2, col 1: angle has a zero denominator" in _err(result)


def test_classify_unreduced_cphase_takes_its_reduced_level(runner):
    reduced = runner.invoke(main, ["classify", "--gate", "CPHASE(pi/4)"])
    result = runner.invoke(main, ["classify", "--gate", "CPHASE(2001pi/4)"])
    assert result.exit_code == reduced.exit_code == 0
    assert result.output == reduced.output
    assert json.loads(result.output)["min_level"] == 5


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


@pytest.fixture()
def state_path(tmp_path):
    path = tmp_path / "state.json"
    save_json(path, state_to_json(np.array([1, 0, 0, 0], dtype=complex)))
    return str(path)


def test_teleport_refuses_include_states_without_state(runner):
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--trials", "1", "--include-states"])
    assert result.exit_code == 1
    assert _err(result) == "error: --include-states needs --state\n"


@pytest.mark.parametrize(
    ("extra", "named"),
    [
        (["--trials", "5"], "--trials"),
        (["--seed", "0"], "--seed"),
        (["--k-max-corrections", "6"], "--k-max-corrections"),
        (["--seed", "1", "--trials", "2"], "--trials, --seed"),
    ],
)
def test_teleport_refuses_random_mode_options_with_state(runner, state_path, extra, named):
    # set explicitly, even to the default value
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--state", state_path, *extra])
    assert result.exit_code == 1
    assert _err(result) == f"error: {named} cannot be used with --state\n"


def test_teleport_defaults_never_refuse(runner, state_path):
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--state", state_path, "--include-states"])
    assert result.exit_code == 0
    assert "input_state" in json.loads(result.output)
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--trials", "1", "--seed", "3", "--k-max-corrections", "4"])
    assert result.exit_code == 0
    assert json.loads(result.output)["seed"] == 3


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_teleport_refuses_fewer_than_one_trial(runner, trials):
    # no state would be teleported, yet the report would pass
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--trials", trials])
    assert result.exit_code == 1
    assert _err(result) == f"error: trials must be >= 1, got {trials}\n"


def test_teleport_mixed_parity_errors(runner):
    result = runner.invoke(main, ["teleport", "--gate", "H"])
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "content",
    [
        '{"n": 1}',
        '{"n": 1, "re": [[1.0]]}',
        "[1, 2]",
        '[{"n": 1}]',
        '{"re": 1, "im": 0}',
        '{"n": null, "re": [[1]], "im": [[0]]}',
        '{"operators": 5}',
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ["classify", "--matrix"],
        ["svn", "--tuple"],
        ["svn", "--tuple", "{tuple}", "--expect"],
        ["teleport", "--gate", "X", "--state"],
    ],
    ids=["classify-matrix", "svn-tuple", "svn-expect", "teleport-state"],
)
def test_malformed_json_exits_one(runner, tmp_path, command, content):
    good = tmp_path / "tuple.json"
    save_json(good, tuple_to_json(jw_set(1)))
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    result = runner.invoke(main, [arg.format(tuple=good) for arg in command] + [str(bad)])
    assert result.exit_code == 1
    lines = _err(result).splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("content", ['{"re": [1, 0], "im": [0]}', '{"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}'])
def test_teleport_refuses_a_state_that_is_not_one_vector(runner, tmp_path, content):
    # a short "im" used to broadcast, and the run passed on the state |0>
    path = tmp_path / "state.json"
    path.write_text(content)
    result = runner.invoke(main, ["teleport", "--gate", "X", "--state", str(path)])
    assert result.exit_code == 1
    assert _err(result).startswith("error: state JSON needs 1-D 're' and 'im' of one length")


@pytest.mark.parametrize(
    "command, content, message",
    [
        (["teleport", "--gate", "CZ", "--state"], '{"n": 3, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}',
         "state JSON says n=3 but dimension gives n=2"),
        (["teleport", "--gate", "CZ", "--state"], '{"n": true, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}',
         "state JSON 'n' must be an integer, got True"),
        (["svn", "--tuple"], '{"n": 7, "operators": [%s, %s]}', "tuple JSON says n=7 but dimension gives n=1"),
        (["svn", "--tuple"], '{"n": true, "operators": [%s, %s]}', "tuple JSON 'n' must be an integer, got True"),
    ],
    ids=["state-n", "state-bool", "tuple-n", "tuple-bool"],
)
def test_state_and_tuple_files_refuse_a_wrong_n(runner, tmp_path, command, content, message):
    # the state and tuple decoders used to ignore "n"
    if "%s" in content:
        content %= tuple(json.dumps(matrix_to_json(c)) for c in jw_set(1))
    path = tmp_path / "input.json"
    path.write_text(content)
    result = runner.invoke(main, command + [str(path)])
    assert result.exit_code == 1
    assert _err(result) == f"error: {message}\n"


def test_teleport_seed_must_be_non_negative(runner):
    # numpy's own message named no option
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--trials", "1", "--seed", "-1"])
    assert result.exit_code == 1
    assert _err(result) == "error: Invalid value for '--seed': -1 is not in the range x>=0.\n"


@pytest.mark.parametrize(
    "command, message",
    [
        (["selftest", "--seed", "-1", "--only", "1"], "seed must be >= 0, got -1"),
        (["classify", "--matrix", "{one}"], "qubit count must be >= 1, got 0"),
    ],
    ids=["selftest-seed", "classify-1x1"],
)
def test_no_route_runs_on_a_negative_seed_or_no_qubits(runner, tmp_path, command, message):
    # criterion 1 ignored the seed; the rotation kernel divided by zero on a 1x1 gate
    one = tmp_path / "one.json"
    one.write_text('{"re": [[1]], "im": [[0]]}')
    result = runner.invoke(main, [arg.format(one=one) for arg in command])
    assert result.exit_code == 1
    assert _err(result) == f"error: {message}\n"


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


def test_svn_mixed_shapes_exit_one_before_any_product(runner, tmp_path):
    path = tmp_path / "mixed.json"
    save_json(path, tuple_to_json([np.eye(2, dtype=complex), np.eye(4, dtype=complex)]))
    result = runner.invoke(main, ["svn", "--tuple", str(path)])
    assert result.exit_code == 1
    assert _err(result) == "error: operator 2 has shape (4, 4), expected (2, 2)\n"


def test_teleport_refuses_a_state_on_other_qubits(runner, tmp_path):
    path = tmp_path / "one_qubit.json"
    save_json(path, state_to_json(np.array([1, 0], dtype=complex)))
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--state", str(path)])
    assert result.exit_code == 1
    assert _err(result) == "error: input state is on 1 qubit(s), the teleported gate on 2\n"


def test_svn_non_hermitian_tuple_exits_one(runner, tmp_path):
    rng = np.random.default_rng(12)
    s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "similar.json"
    save_json(path, tuple_to_json([s @ c @ np.linalg.inv(s) for c in jw_set(2)]))
    result = runner.invoke(main, ["svn", "--tuple", str(path)])
    assert result.exit_code == 1
    assert _err(result).startswith("error: tuple is not Hermitian")


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


@pytest.mark.parametrize("gate, dets", [("SWAP", "|A| = 1+0j, |B| = -1+0j"), ("CZ", "|A| = -1+0j, |B| = 1+0j")])
def test_parse_rotation_names_the_determinant_mismatch(runner, tmp_path, gate, dets):
    # a free-form named gate is refused with the parser's reason, as a G/J line is
    path = tmp_path / "c.txt"
    path.write_text(f"qubits 2\nallow freeform\n{gate} @ 1\n")
    result = runner.invoke(main, ["parse", str(path), "--emit", "rotation"])
    assert result.exit_code == 1
    assert _err(result) == f"error: free-form gate {gate} @ 1 has no rotation (determinant mismatch: {dets})\n"


def test_parse_error_reports_position(runner, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\nG I X @ 1\n")
    result = runner.invoke(main, ["parse", str(path)])
    assert result.exit_code == 1
    assert "line 2" in _err(result)
    assert "determinant mismatch" in _err(result)


def test_parse_refuses_a_line_with_no_gate(runner, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\n@ 1\n")
    result = runner.invoke(main, ["parse", str(path)])
    assert result.exit_code == 1
    assert _err(result) == "error: line 2, col 1: expected a gate before '@'\n"


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
    # a list naming no criterion would run nothing and pass
    for only in (",", ""):
        result = runner.invoke(main, ["selftest", "--only", only])
        assert result.exit_code == 1
        assert _err(result) == f"error: --only list {only!r} names no criterion\n"


def test_mgh_tol_env_validation(runner):
    result = runner.invoke(main, ["classify", "--gate", "CZ"], env={"MGH_TOL": "abc"})
    assert result.exit_code == 1
    result = runner.invoke(main, ["classify", "--gate", "CZ"], env={"MGH_TOL": "-1"})
    assert result.exit_code == 1
    result = runner.invoke(main, ["classify", "--gate", "CZ"], env={"MGH_TOL": "1e-9"})
    assert result.exit_code == 0
    for value in ("nan", "inf", "-inf"):
        result = runner.invoke(main, ["classify", "--gate", "SWAP"], env={"MGH_TOL": value})
        assert result.exit_code == 1
        assert _err(result) == f"error: MGH_TOL must be a finite positive number, got {value!r}\n"


def test_mgh_tol_moves_only_epsilon(runner, tmp_path):
    # the unitarity threshold stays 1e-9 under a loose MGH_TOL
    path = tmp_path / "near.json"
    save_json(path, matrix_to_json((1 + 5e-7) * named_gate("CZ")))
    result = runner.invoke(main, ["classify", "--matrix", str(path)], env={"MGH_TOL": "1e-4"})
    assert result.exit_code == 1
    assert _err(result).startswith("error: gate is not unitary")
    # and so does the angular threshold of the closed form
    result = runner.invoke(main, ["classify", "--gate", "CPHASE(pi/8)"], env={"MGH_TOL": "1e-4"})
    assert result.exit_code == 0
    assert json.loads(result.output)["min_level"] == 6


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


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--gate", "CZ", "--k-max", "0"],
        ["classify", "--gate", "CZ", "--k-max", "-3"],
        ["teleport", "--gate", "CZ", "--trials", "1", "--k-max-corrections", "0"],
    ],
)
def test_level_cap_below_one_exits_one(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert _err(result).splitlines() == [f"error: level cap must be >= 1, got {args[-1]}"]


def test_teleport_past_the_work_guard_exits_four(runner):
    # the correction search of verify_protocol refuses as classify does
    result = runner.invoke(main, ["teleport", "--gate", "CPHASE(1)", "--trials", "1", "--k-max-corrections", "13"])
    assert result.exit_code == 4
    assert _err(result) == (
        "error: level-13 membership at n=2 needs about 1.68e+07 dense conjugations (guard 1e+07)\n"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["classify", "--gate", "SWAP", "--k-max", "abc"], "Invalid value for '--k-max': 'abc' is not a valid integer."),
        (["classify", "--bogus"], "No such option '--bogus'."),
        (["frobnicate"], "No such command 'frobnicate'."),
        (["svn"], "Missing option '--tuple'."),
        (
            ["parse", "c.txt", "--emit", "tex"],
            "Invalid value for '--emit': 'tex' is not one of 'canonical', 'matrix', 'rotation'.",
        ),
    ],
)
def test_usage_errors_exit_one_with_one_line(runner, args, message):
    # exit 2 means an inconclusive classification, not a mistyped command
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert _err(result) == f"error: {message}\n"


def test_a_closed_stdout_is_not_reported_as_bad_input(runner, monkeypatch):
    # BrokenPipeError is an OSError, but click's own handling exits 1 quietly
    def closed(*args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("matchgates.cli._emit", closed)
    result = runner.invoke(main, ["classify", "--gate", "SWAP"])
    assert result.exit_code == 1
    assert "error:" not in _err(result)


@pytest.mark.parametrize("args", [[], ["--bogus"]])
def test_group_usage_errors_keep_clicks_exit_two(runner, args):
    # raised while the group parses its own arguments, before any subcommand
    assert runner.invoke(main, args).exit_code == 2


@pytest.mark.parametrize(
    "expect, message",
    [
        (np.eye(4), "shape mismatch: (2, 2) vs (4, 4)"),
        (np.zeros((2, 2)), "second argument is numerically zero; phase comparison undefined"),
    ],
)
def test_svn_expect_that_cannot_be_compared_exits_one(runner, tmp_path, expect, message):
    tup_path, want_path = tmp_path / "tup.json", tmp_path / "want.json"
    save_json(tup_path, tuple_to_json(jw_set(1)))
    save_json(want_path, matrix_to_json(expect))
    result = runner.invoke(main, ["svn", "--tuple", str(tup_path), "--expect", str(want_path)])
    assert result.exit_code == 1
    assert _err(result) == f"error: {message}\n"


X_Y_TUPLE = '[{"re": [[0, %s], [1, 0]], "im": [[0, 0], [0, 0]]}, {"re": [[0, 0], [0, 0]], "im": [[0, -1], [1, 0]]}]'
NOT_NUMBERS = "'re' must be a rectangular array of numbers, found "


@pytest.mark.parametrize(
    "command, content, message",
    [
        (["classify", "--matrix"], '{"re": [[{"a": 1}]], "im": [[0]]}', NOT_NUMBERS + '{"a": 1}'),
        (["classify", "--matrix"], '{"re": [[true]], "im": [[0]]}', NOT_NUMBERS + "true"),
        (["classify", "--matrix"], '{"re": [["1"]], "im": [[0]]}', NOT_NUMBERS + '"1"'),
        (["classify", "--matrix"], '{"re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}', NOT_NUMBERS + "[1, 0]"),
        (["classify", "--matrix"], '{"re": [[1]], "im": [[NaN]]}', "'im' has an entry that is not finite"),
        (["classify", "--matrix"], '{"re": [[1%s]], "im": [[0]]}' % ("0" * 400), "'re' has an entry that is not finite"),
        (["teleport", "--gate", "X", "--state"], '{"re": [null, 0], "im": [0, 0]}', NOT_NUMBERS + "null"),
        (["svn", "--tuple"], X_Y_TUPLE % "1e400", "'re' has an entry that is not finite"),
    ],
    ids=["object", "bool", "string", "ragged", "nan", "huge-int", "null-state", "inf-tuple"],
)
def test_malformed_numbers_exit_one_naming_the_field(runner, tmp_path, command, content, message):
    # they used to raise a TypeError, or run on with NaN to a FAILED report or an SVD error
    path = tmp_path / "bad.json"
    path.write_text(content)
    result = runner.invoke(main, command + [str(path)])
    assert result.exit_code == 1
    what = "state" if "--state" in command else "matrix"
    assert _err(result) == f"error: {what} JSON {message}\n"


I_MINUS_I = '[{"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}, {"re": [[0, 0], [0, 0]], "im": [[-1, 0], [0, -1]]}]'


@pytest.mark.parametrize(
    "args, file, env, message",
    [
        # under MGH_TOL=5 [I, -iI] passes the CAR and Hermiticity checks, and its projector is zero
        (
            ["svn", "--tuple"],
            I_MINUS_I,
            {"MGH_TOL": "5"},
            "projector annihilates every basis probe (numerical rank 0); the tuple is degenerate",
        ),
        (["svn", "--tuple"], "[]", {}, "empty operator tuple"),
        (["classify", "--gate", "F()"], None, {}, "pattern must have at least one entry"),
        (["classify", "--gate", "F"], None, {}, "F needs a pattern, e.g. F(1,*,1)"),
        (["parse"], "qubits 0\n", {}, "line 1, col 8: qubit count must be at least 1"),
        (["parse"], "qubits 2\nallow foo\n", {}, "line 2, col 1: expected: allow freeform"),
        (["parse"], "qubits 2\nX @ a\n", {}, "line 2, col 5: bad wire 'a'"),
    ],
    ids=["degenerate-projector", "empty-tuple", "empty-pattern", "no-pattern", "no-qubits", "bad-directive", "bad-wire"],
)
def test_refusals_exit_one_with_one_line(runner, tmp_path, args, file, env, message):
    if file is not None:
        path = tmp_path / "input"
        path.write_text(file)
        args = args + [str(path)]
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 1
    assert _err(result) == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, env, message",
    [
        (["classify", "--gate", "SWAP"], {"MGH_TOL": "abc"}, "MGH_TOL must be a finite positive number, got 'abc'"),
        (["classify", "--gate", "SWAP"], {"MGH_TOL": "nan"}, "MGH_TOL must be a finite positive number, got 'nan'"),
        (["classify", "--gate", "SWAP"], {"MGH_TOL": "-1"}, "MGH_TOL must be a finite positive number, got '-1'"),
        (["classify", "--gate", "SWAP", "--circuit", "f"], {}, "provide exactly one of --gate, --circuit, --matrix"),
        (["teleport", "--gate", "CZ", "--include-states"], {}, "--include-states needs --state"),
        (["teleport", "--gate", "CZ", "--state", "STATE", "--trials", "2"], {}, "--trials cannot be used with --state"),
        (["selftest", "--only", "x"], {}, "bad --only list 'x'"),
        (["selftest", "--only", ","], {}, "--only list ',' names no criterion"),
    ],
    ids=["tol-number", "tol-finite", "tol-positive", "one-source", "include-states", "state-mode", "only-list", "only-empty"],
)
def test_command_refusals_are_raised_and_written_by_the_group(runner, state_path, monkeypatch, args, env, message):
    args = [state_path if a == "STATE" else a for a in args]
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"
    # run outside the group, the command raises the refusal instead of writing it
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        main.commands[args[0]].main(args[1:], standalone_mode=False)


def test_version_is_the_package_version(runner):
    # a source checkout has no installed package metadata to read it from
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output.endswith(f"version {matchgates.__version__}\n")


def test_pyproject_reads_the_package_version():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "matchgates.__version__"}' in text
    assert not any(line.startswith('version = "') for line in text.splitlines())


def test_an_allocation_that_cannot_be_made_exits_one(runner, tmp_path):
    # the compact route's 2n x 2n rotation at n = 10^7 needs 2.84 PiB, beyond
    # any 64-bit address space
    path = tmp_path / "huge.txt"
    path.write_text("qubits 10000000\nZ @ 1\n")
    result = runner.invoke(main, ["parse", str(path), "--emit", "rotation"])
    assert result.exit_code == 1
    assert _err(result).startswith("error: Unable to allocate ")
    assert _err(result).count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--gate", "SWAP", "-n", "3"],
        ["classify", "--gate", "CNZ(3)", "--n-qubits", "3"],
        ["classify", "--circuit", "CIRCUIT", "-n", "2"],
        ["classify", "--matrix", "MATRIX", "-n", "2"],
        ["teleport", "--gate", "CZ", "--trials", "1", "-n", "2"],
    ],
    ids=["token", "cnz", "circuit", "matrix", "teleport"],
)
def test_n_qubits_is_refused_without_a_majorana_token(runner, tmp_path, args):
    # only a Majorana token has a register to size; elsewhere -n would be ignored
    circuit, matrix = tmp_path / "c.txt", tmp_path / "m.json"
    circuit.write_text("qubits 2\nFSWAP @ 1\n")
    save_json(matrix, matrix_to_json(named_gate("SWAP")))
    args = [{"CIRCUIT": str(circuit), "MATRIX": str(matrix)}.get(a, a) for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert _err(result) == "error: -n/--n-qubits applies only to a MAJORANA(mu) or C(mu) gate token\n"


@pytest.mark.parametrize("token", ["MAJORANA(3)", "C(3)", "majorana(2)"])
def test_n_qubits_sets_the_majorana_register(runner, token):
    result = runner.invoke(main, ["classify", "--gate", token, "-n", "3"])
    assert result.exit_code == 0
    assert json.loads(result.output)["n_qubits"] == 3


@pytest.mark.parametrize(
    ("args", "code", "line"),
    [
        (["--gate", "G(H,H)"], 0, "rotation: 4x4 orthogonal, det +1.000000"),
        (["--gate", "MAJORANA(3)", "-n", "2"], 0, "rotation: 4x4 orthogonal, det -1.000000"),
        (["--gate", "CPHASE(2pi/128)"], 2, "min level: none up to k_max = 8"),
        (["--gate", "H"], 0, "min level: undefined (gate mixes parities)"),
    ],
)
def test_classify_text_lines(runner, args, code, line):
    result = runner.invoke(main, ["classify", *args, "--format", "text"])
    assert result.exit_code == code
    assert line in result.output.splitlines()


def test_teleport_text_summaries(runner, state_path):
    result = runner.invoke(main, ["teleport", "--gate", "CPHASE(pi/4)", "--trials", "1", "--k-max-corrections", "2", "--format", "text"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "qubits: 2, trials: 1, branches: 16"
    assert lines[1].startswith("max residual: ")
    assert lines[2].startswith("max probability deviation: ")
    assert lines[3:] == ["corrections at level 2: 8", "corrections at level above cap 2: 8", "passed"]
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--state", state_path, "--format", "text"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[:2] == ["qubits: 2", "branches: 16"]
    assert lines[2].startswith("max residual: ") and lines[3].startswith("max probability deviation: ")
    assert lines[4:] == ["passed"]


def test_teleport_failures_exit_three(runner, state_path, monkeypatch):
    # an epsilon far below rounding fails every verification on a real input
    monkeypatch.setenv("MGH_TOL", "1e-300")
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--trials", "1", "--format", "text"])
    assert result.exit_code == 3
    assert result.output.splitlines()[-1] == "FAILED"
    monkeypatch.delenv("MGH_TOL")
    # this input lands exactly, so a miss is forced into one branch
    simulate = cli.simulate_protocol

    def missing(u, psi, tol):
        t = simulate(u, psi, tol)
        return dataclasses.replace(t, branches=(dataclasses.replace(t.branches[0], residual_vs_target=1.0), *t.branches[1:]))

    monkeypatch.setattr(cli, "simulate_protocol", missing)
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--state", state_path])
    assert result.exit_code == 3
    assert json.loads(result.output)["passed"] is False
    result = runner.invoke(main, ["teleport", "--gate", "CZ", "--state", state_path, "--format", "text"])
    assert result.exit_code == 3
    assert result.output.splitlines()[-1] == "FAILED"


@pytest.mark.parametrize(("gate", "verdict", "code"), [("CPHASE(pi/2)", "yes", 0), ("CZ", "no", 3)])
def test_svn_text_summary_with_expect(runner, tmp_path, gate, verdict, code):
    v = named_gate("CPHASE", (np.pi / 2,))
    tup_path, expect_path = tmp_path / "tup.json", tmp_path / "expect.json"
    save_json(tup_path, tuple_to_json([v.conj().T @ c @ v for c in jw_set(2)]))
    save_json(expect_path, matrix_to_json(gate_from_token(gate)))
    result = runner.invoke(main, ["svn", "--tuple", str(tup_path), "--expect", str(expect_path), "--format", "text"])
    assert result.exit_code == code
    lines = result.output.splitlines()
    assert lines[0] == "qubits: 2"
    assert lines[1].startswith("max contract residual: ")
    assert lines[2].startswith(f"matches expected unitary up to phase: {verdict} (residual ")
    assert lines[3] == ("passed" if code == 0 else "FAILED")


@pytest.mark.parametrize("k", range(1, len(selftest.ALL_CRITERIA) + 1))
def test_run_selected_runs_a_criterion_at_its_default_seed(k):
    assert selftest.run_selected([k]) == [selftest.ALL_CRITERIA[k - 1]()]


def test_selftest_runs_every_criterion_there_is(runner, monkeypatch):
    monkeypatch.setattr(selftest, "ALL_CRITERIA", selftest.ALL_CRITERIA[:2])
    result = runner.invoke(main, ["selftest"])
    assert result.exit_code == 0
    assert [r["index"] for r in json.loads(result.output)["results"]] == [1, 2]


def test_a_failed_selftest_criterion_exits_three(runner, monkeypatch):
    # the ten criteria pass on this code, so one is replaced by a failing one
    failed = selftest.CriterionResult(1, "forced", False, "forced failure")
    monkeypatch.setattr(selftest, "ALL_CRITERIA", [lambda seed: failed, *selftest.ALL_CRITERIA[1:]])
    result = runner.invoke(main, ["selftest", "--only", "1,3", "--format", "text"])
    assert result.exit_code == 3
    lines = result.output.splitlines()
    assert lines[0] == "FAIL criterion 1: forced (forced failure)"
    assert lines[1].startswith("PASS criterion 3")
    assert lines[-1] == "1/2 criteria passed"
    result = runner.invoke(main, ["selftest", "--only", "1"])
    assert result.exit_code == 3
    assert json.loads(result.output)["passed"] is False


# (command args with placeholders, MGH_TOL or None, force a failing criterion 1, expected "passed")
VERDICT_RUNS = {
    "teleport-state": (["teleport", "--gate", "CZ", "--state", "STATE"], None, False, True),
    "teleport-state-tiny-tol": (["teleport", "--gate", "CZ", "--state", "STATE"], "1e-30", False, False),
    "teleport-verify": (["teleport", "--gate", "CZ", "--trials", "1"], None, False, True),
    "teleport-verify-tiny-tol": (["teleport", "--gate", "CZ", "--trials", "1"], "1e-30", False, False),
    "svn-right-expect": (["svn", "--tuple", "TUPLE", "--expect", "RIGHT"], None, False, True),
    "svn-wrong-expect": (["svn", "--tuple", "TUPLE", "--expect", "WRONG"], None, False, False),
    "selftest": (["selftest", "--only", "1"], None, False, True),
    "selftest-forced-failure": (["selftest", "--only", "1"], None, True, False),
}


@pytest.mark.parametrize("name", VERDICT_RUNS)
def test_exit_three_is_read_from_the_printed_passed(runner, tmp_path, monkeypatch, name):
    args, tol, force, want = VERDICT_RUNS[name]
    v = named_gate("CZ")
    psi = np.random.default_rng(5).standard_normal(4) + 0j
    files = {
        # a generic state: its branches land a rounding error off the target
        "STATE": state_to_json(psi / np.linalg.norm(psi)),
        "TUPLE": tuple_to_json([v.conj().T @ c @ v for c in jw_set(2)]),
        "RIGHT": matrix_to_json(v),
        "WRONG": matrix_to_json(named_gate("SWAP")),
    }
    for key, obj in files.items():
        save_json(tmp_path / key, obj)
    args = [str(tmp_path / a) if a in files else a for a in args]
    if tol is not None:
        monkeypatch.setenv("MGH_TOL", tol)
    if force:
        failed = selftest.CriterionResult(1, "forced", False, "forced failure")
        monkeypatch.setattr(selftest, "ALL_CRITERIA", [lambda seed: failed, *selftest.ALL_CRITERIA[1:]])
    result = runner.invoke(main, args)
    passed = json.loads(result.stdout)["passed"]
    assert passed is want
    assert result.exit_code == (0 if passed else 3)
    text = runner.invoke(main, [*args, "--format", "text"])
    assert text.exit_code == result.exit_code
    last = text.stdout.splitlines()[-1]
    assert last in (("passed", "1/1 criteria passed") if passed else ("FAILED", "0/1 criteria passed"))
