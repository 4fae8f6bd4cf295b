import json

import numpy as np
import pytest
from seqmeas import cli, matcore, operations as ops, serialize
from seqmeas.effects import Effect, State


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_single_law_json(capsys):
    code, out, err = run_cli(["check", "--law", "ex-10", "--format", "json"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["id"] == "ex-10"
    assert record["status"] == "pass"


def test_check_unknown_law_exits_2(capsys):
    code, out, err = run_cli(["check", "--law", "nope"], capsys)
    assert code == 2
    assert "nope" in err


def test_check_text_format(capsys):
    code, out, err = run_cli(
        ["check", "--law", "eq-2.2", "--seed", "5", "--trials", "50"], capsys)
    assert code == 0
    assert "counterexample-found" in out
    assert "ok 1/1 laws" in out


def test_check_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "17")
    code, out, _ = run_cli(["check", "--law", "ex-10", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[0])["seed"] == 17


def test_check_bad_dims(capsys):
    code, _, err = run_cli(["check", "--law", "ex-10", "--dims", "two"], capsys)
    assert code == 2


def test_check_bad_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    code, out, err = run_cli(["check", "--law", "ex-10"], capsys)
    assert code == 2
    assert "abc" in err
    assert out == ""


@pytest.mark.parametrize("dim", ["two", 2.5, [2], True])
def test_eval_bad_dim_exits_2(tmp_path, capsys, dim):
    payload = basic_scenario()
    payload["dim"] = dim
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 2
    assert "'dim'" in err
    assert out == ""


def scenario_file(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def basic_scenario():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    half = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    a = Effect(half)
    rho = State(np.eye(2, dtype=complex) / 2)
    proj = Effect(p0)
    luders_a = ops.luders(a)
    projective = {
        "type": "observable",
        "outcomes": ["x", "y"],
        "effects": [serialize.matrix_to_json(p0),
                    serialize.matrix_to_json(np.diag([0.0, 1.0]).astype(complex))],
    }
    return {
        "dim": 2,
        "objects": {
            "a": serialize.typed_to_json(a),
            "p": serialize.typed_to_json(proj),
            "rho": serialize.typed_to_json(rho),
            "luders_a": serialize.typed_to_json(luders_a),
            "A": projective,
        },
        "queries": [
            {"query": "hat", "of": "luders_a"},
            {"query": "distribution", "of": "A", "state": "rho"},
            {"query": "seq_product", "a": "p", "b": "a"},
            {"query": "prob", "state": "rho", "effect": "a"},
        ],
    }


def test_eval_scenario(tmp_path, capsys):
    path = scenario_file(tmp_path, basic_scenario())
    code, out, err = run_cli(["eval", path], capsys)
    assert code == 0, err
    lines = [json.loads(line) for line in out.splitlines() if line]
    assert len(lines) == 4
    # hat of the Lueders operation is the effect itself
    hat = serialize.typed_from_json(lines[0]["result"])
    assert matcore.max_abs(hat.op - np.array([[0.5, 0.5], [0.5, 0.5]])) <= 1e-9
    assert lines[1]["result"] == {"x": 0.5, "y": 0.5}
    seq = serialize.typed_from_json(lines[2]["result"])
    assert matcore.max_abs(seq.op - np.array([[0.5, 0.0], [0.0, 0.0]])) <= 1e-12
    assert abs(lines[3]["result"] - 0.5) <= 1e-12


def test_eval_null_conditioning_is_query_level(tmp_path, capsys):
    rho = State(np.diag([1.0, 0.0]).astype(complex))
    p1 = Effect(np.diag([0.0, 1.0]).astype(complex))
    ident = Effect(np.eye(2, dtype=complex))
    payload = {
        "objects": {
            "rho": serialize.typed_to_json(rho),
            "p1": serialize.typed_to_json(p1),
            "one": serialize.typed_to_json(ident),
        },
        "queries": [{"query": "cond_prob", "state": "rho", "effect": "one", "given": "p1"}],
    }
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert "error" in record


def test_eval_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"objects": \n  broken', encoding="utf-8")
    code, out, err = run_cli(["eval", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


def test_eval_unresolved_name_exits_2(tmp_path, capsys):
    payload = basic_scenario()
    payload["queries"] = [{"query": "hat", "of": "ghost"}]
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 2
    assert "ghost" in err
    assert out == ""


def test_eval_unknown_query_exits_2(tmp_path, capsys):
    payload = basic_scenario()
    payload["queries"] = [{"query": "frobnicate", "of": "a"}]
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 2


def test_eval_dim_mismatch_exits_2(tmp_path, capsys):
    payload = basic_scenario()
    payload["dim"] = 3
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 2


def test_eval_conditioned_and_witness_queries(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from seqmeas import observables as obs_mod
    a = obs_mod.random_observable(2, rng)
    b = obs_mod.random_observable(2, rng)
    prod = obs_mod.obs_seq_product(a, b)
    cond = obs_mod.obs_conditioned(b, a)
    f = obs_mod.second_marginal_map(a, b)
    g = {x: x for x in prod.outcomes}
    payload = {
        "objects": {
            "A": serialize.typed_to_json(a),
            "B": serialize.typed_to_json(b),
            "prod": serialize.typed_to_json(prod),
            "cond": serialize.typed_to_json(cond),
        },
        "queries": [
            {"query": "conditioned", "of": "B", "given": "A"},
            {"query": "coexist-witness", "left": "cond", "right": "prod",
             "joint": "prod", "f": f, "g": g},
            {"query": "part", "of": "prod", "map": f},
        ],
    }
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 0, err
    lines = [json.loads(line) for line in out.splitlines() if line]
    got_cond = serialize.typed_from_json(lines[0]["result"])
    assert obs_mod.obs_equal(got_cond, cond, tol=1e-12)
    assert lines[1]["result"] is True
    part = serialize.typed_from_json(lines[2]["result"])
    assert obs_mod.obs_equal(part, cond, tol=1e-12)
