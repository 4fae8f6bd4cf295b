import json
import warnings

import numpy as np
import pytest
from seqmeas import cli, effects, matcore, operations as ops, serialize
from seqmeas import instruments as inst_mod, observables as obs_mod
from seqmeas.effects import Effect, State
from seqmeas.errors import NotEffect


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


def test_check_empty_dims_exits_2(capsys):
    # an empty list is a malformed value, not "use the per-law dims"
    code, out, err = run_cli(["check", "--law", "ex-10", "--dims", ""], capsys)
    assert code == 2
    assert out == ""
    assert "bad --dims value ''" in err


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


def mixed_scenario():
    """One object of every type at d = 2, as scenario JSON and as parsed objects."""
    rng = np.random.default_rng(3)
    a_obs = obs_mod.random_observable(2, rng, n_outcomes=3)
    inst = inst_mod.random_instrument(2, rng, n_outcomes=2)
    raw = {
        "rho": effects.random_state(2, rng),
        "a": effects.random_effect(2, rng),
        "b": effects.random_effect(2, rng),
        "op": ops.random_operation(2, rng),
        "chan": ops.random_channel(2, rng),
        "A": a_obs,
        "B": obs_mod.projective_observable(2, rng),
        "A_f": obs_mod.obs_part(a_obs, {"x0": "y0", "x1": "y0", "x2": "y1"}),
        "A_g": obs_mod.obs_part(a_obs, {"x0": "z0", "x1": "z1", "x2": "z1"}),
        "I": inst,
        "I_f": inst_mod.inst_part(inst, {"x0": "y", "x1": "y"}),
        "L": inst_mod.luders_instrument(a_obs),
    }
    data = {name: serialize.typed_to_json(obj) for name, obj in raw.items()}
    return data, {name: serialize.typed_from_json(d) for name, d in data.items()}


def test_eval_covers_every_query(tmp_path, capsys):
    data, o = mixed_scenario()
    f = {"x0": "y0", "x1": "y0", "x2": "y1"}
    g = {"x0": "z0", "x1": "z1", "x2": "z1"}
    cases = [
        ({"query": "hat", "of": "op"}, lambda: ops.hat(o["op"])),
        ({"query": "apply", "op": "op", "state": "rho"}, lambda: ops.apply(o["op"], o["rho"])),
        ({"query": "seq_product", "a": "a", "b": "b"},
         lambda: effects.seq_product(o["a"], o["b"])),
        ({"query": "complement", "of": "a"}, lambda: effects.complement(o["a"])),
        ({"query": "perp", "a": "a", "b": "b"}, lambda: effects.perp(o["a"], o["b"])),
        ({"query": "prob", "state": "rho", "effect": "a"},
         lambda: effects.prob(o["rho"], o["a"])),
        ({"query": "cond_prob", "state": "rho", "effect": "b", "given": "a"},
         lambda: effects.cond_prob(o["rho"], o["b"], given=o["a"])),
        ({"query": "is_channel", "of": "chan"}, lambda: ops.is_channel(o["chan"])),
        ({"query": "compose", "first": "op", "then": "chan"},
         lambda: ops.compose(o["op"], o["chan"])),
        ({"query": "equiv", "a": "op", "b": "chan"}, lambda: ops.equiv(o["op"], o["chan"])),
        ({"query": "op_then_effect", "op": "op", "effect": "a"},
         lambda: ops.op_then_effect(o["op"], o["a"])),
        ({"query": "effect_then_op", "effect": "a", "op": "chan"},
         lambda: ops.effect_then_op(o["a"], o["chan"])),
        ({"query": "distribution", "of": "A", "state": "rho"},
         lambda: obs_mod.distribution(o["A"], o["rho"])),
        ({"query": "distribution", "of": "I", "state": "rho"},
         lambda: inst_mod.distribution(o["I"], o["rho"])),
        ({"query": "obs_seq_product", "a": "A", "b": "B"},
         lambda: obs_mod.obs_seq_product(o["A"], o["B"])),
        ({"query": "conditioned", "of": "B", "given": "A"},
         lambda: obs_mod.obs_conditioned(o["B"], o["A"])),
        ({"query": "conditioned", "of": "I", "given": "L"},
         lambda: inst_mod.inst_conditioned(o["I"], o["L"])),
        ({"query": "conditioned", "of": "I", "given": "B"},
         lambda: inst_mod.inst_conditioned_on_obs(o["I"], o["B"])),
        ({"query": "conditioned", "of": "B", "given": "I"},
         lambda: inst_mod.obs_conditioned_on_inst(o["B"], o["I"])),
        ({"query": "measured_observable", "of": "L"},
         lambda: inst_mod.measured_observable(o["L"])),
        ({"query": "bar", "of": "I"}, lambda: inst_mod.bar(o["I"])),
        ({"query": "part", "of": "A", "map": f}, lambda: obs_mod.obs_part(o["A"], f)),
        ({"query": "part", "of": "I", "map": {"x0": "y", "x1": "y"}},
         lambda: inst_mod.inst_part(o["I"], {"x0": "y", "x1": "y"})),
        ({"query": "coexist-witness", "left": "A_f", "right": "A_g", "joint": "A",
          "f": f, "g": g},
         lambda: obs_mod.verify_coexistence_witness(o["A_f"], o["A_g"], o["A"], f, g)),
        ({"query": "coexist-witness", "left": "I_f", "right": "I", "joint": "I",
          "f": {"x0": "y", "x1": "y"}, "g": {"x0": "x0", "x1": "x1"}},
         lambda: inst_mod.verify_inst_coexistence_witness(
             o["I_f"], o["I"], o["I"], {"x0": "y", "x1": "y"}, {"x0": "x0", "x1": "x1"})),
    ]
    assert {q["query"] for q, _ in cases} == set(cli.QUERIES)
    payload = {"dim": 2, "objects": data, "queries": [q for q, _ in cases]}
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == len(cases)
    for line, (q, direct) in zip(lines, cases):
        assert line == json.dumps({"query": q, "result": serialize.to_json(direct())}), q
    # both coexistence witnesses hold, so the comparison is not vacuous
    assert json.loads(lines[-1])["result"] is True and json.loads(lines[-2])["result"] is True


@pytest.mark.parametrize("query", [
    # outcome sets match, so only the operand types are wrong
    {"query": "coexist-witness", "left": "I", "right": "A_f", "joint": "A",
     "f": {"x0": "x0", "x1": "x1", "x2": "x1"}, "g": {"x0": "y0", "x1": "y0", "x2": "y1"}},
    {"query": "coexist-witness", "left": "A_f", "right": "A_g", "joint": "I",
     "f": {"x0": "y0", "x1": "y1"}, "g": {"x0": "z0", "x1": "z1"}},
    {"query": "distribution", "of": "a", "state": "rho"},
    {"query": "part", "of": "a", "map": {"x": "y"}},
    {"query": "hat", "of": "a"},
], ids=["coexist-IOO", "coexist-OOI", "distribution-effect", "part-effect", "hat-effect"])
def test_eval_operand_type_mismatch_exits_2(tmp_path, capsys, query):
    data, _ = mixed_scenario()
    payload = {"objects": data, "queries": [query]}
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 2
    assert out == ""
    assert "operand types" in err


def test_eval_non_finite_matrix_exits_2(tmp_path, capsys):
    kraus = serialize.matrix_to_json(np.eye(2))
    kraus["re"][0][0] = float("inf")  # json.dumps writes Infinity, which json.load accepts
    payload = {"objects": {"op": {"type": "operation", "kind": "kraus", "operators": [kraus]}},
               "queries": [{"query": "hat", "of": "op"}]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 2
    assert out == ""
    assert "non-finite" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("kind", ["effect", "operation"])
def test_eval_huge_matrix_exits_2(tmp_path, capsys, kind):
    # finite entries whose squares overflow a float: Jacobi rejects them as a
    # package error, so eval reports the object instead of a traceback
    if kind == "effect":
        obj = serialize.typed_to_json(Effect(np.eye(2) / 2))
        obj.update(serialize.matrix_to_json(np.full((2, 2), 1e200)))
    else:
        obj = {"type": "operation", "kind": "kraus",
               "operators": [serialize.matrix_to_json(np.full((2, 2), 1e100))]}
    payload = {"objects": {"x": obj}, "queries": [{"query": "hat", "of": "x"}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: object 'x': matrix is too large for Jacobi: "
                   "the square of an entry overflows\n")


def _pair_json(dim):
    return {"effect": serialize.matrix_to_json(np.eye(dim) / 2),
            "state": serialize.matrix_to_json(np.eye(dim) / dim)}


MALFORMED_OBJECTS = {
    "list-object": [1, 2],
    "operation-missing-key": {"type": "operation", "kind": "kraus"},
    "kraus-empty": {"type": "operation", "kind": "kraus", "operators": []},
    "kraus-mixed-dims": {"type": "operation", "kind": "kraus",
                         "operators": [serialize.matrix_to_json(np.eye(2) / 2),
                                       serialize.matrix_to_json(np.eye(3) / 2)]},
    "sharp-mixed-dims": {"type": "operation", "kind": "sharp",
                         "projections": [serialize.matrix_to_json(np.diag([1.0, 0.0])),
                                         serialize.matrix_to_json(np.diag([0.0, 1.0, 0.0]))]},
    "semi-trivial-mixed-dims": {"type": "operation", "kind": "semi_trivial",
                                "pairs": [_pair_json(2), _pair_json(3)]},
    "type-not-a-string": {"type": [1]},
    "observable-outcomes-string": {"type": "observable", "outcomes": "pq",
                                   "effects": [serialize.matrix_to_json(np.eye(2) / 2)] * 2},
    "instrument-outcomes-string": {"type": "instrument", "outcomes": "pq",
                                   "ops": [{"kind": "kraus", "operators": [
                                       serialize.matrix_to_json(np.eye(2) / np.sqrt(2))]}] * 2},
}


@pytest.mark.parametrize("entry", MALFORMED_OBJECTS.values(), ids=MALFORMED_OBJECTS.keys())
def test_eval_malformed_object_exits_2(tmp_path, capsys, entry):
    payload = {"objects": {"bad": entry}, "queries": [{"query": "hat", "of": "bad"}]}
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 2
    assert out == ""
    assert "'bad'" in err


def _counting_solves(monkeypatch) -> list:
    """Record every Jacobi solve (``matcore.eig_hermitian``) from here on."""
    calls = []
    real = matcore.eig_hermitian

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(matcore, "eig_hermitian", counting)
    return calls


def shared_matrix_scenario():
    """A d = 3 scenario repeating an effect matrix across an effect, a Lueders and a
    trivial operation and an observable, and a state matrix across a state, the
    trivial operation and an effect."""
    u = matcore.random_unitary(3, np.random.default_rng(5))
    a = u @ np.diag([0.2, 0.5, 0.8]) @ u.conj().T
    rho = u.conj().T @ np.diag([0.5, 0.3, 0.2]) @ u
    mat = serialize.matrix_to_json
    return {
        "dim": 3,
        "objects": {
            "a": {"type": "effect", **mat(a)},
            "luders_a": {"type": "operation", "kind": "luders", "effect": mat(a)},
            "A": {"type": "observable", "outcomes": ["y", "n"],
                  "effects": [mat(a), mat(np.eye(3) - a)]},
            "triv": {"type": "operation", "kind": "trivial", "effect": mat(a), "state": mat(rho)},
            "rho": {"type": "state", **mat(rho)},
            "rho_effect": {"type": "effect", **mat(rho)},
        },
        "queries": [
            {"query": "hat", "of": "luders_a"},
            {"query": "hat", "of": "triv"},
            {"query": "distribution", "of": "A", "state": "rho"},
            {"query": "seq_product", "a": "a", "b": "rho_effect"},
            {"query": "prob", "state": "rho", "effect": "rho_effect"},
        ],
    }


def test_eval_decodes_each_repeated_matrix_once(monkeypatch):
    solves = _counting_solves(monkeypatch)
    o = cli._parse_objects(shared_matrix_scenario()["objects"])
    a, rho = o["a"], o["rho"]
    assert o["luders_a"].recipe["effect"] is a
    assert o["triv"].recipe["effect"] is a
    assert o["A"].effects[0] is a
    assert o["triv"].recipe["state"] is rho
    # one matrix declared as an effect and as a state: one object of each type
    assert type(o["rho_effect"]) is Effect and type(rho) is State
    assert np.array_equal(o["rho_effect"].op, rho.op)
    # the Lueders operation needs a's root: one solve, and none left for the
    # objects that share it; the trivial operation solves nothing
    assert len(solves) == 1
    assert o["A"].effects[0].root is a.root
    assert len(solves) == 1
    # outside a scenario every decode builds a new object
    data = shared_matrix_scenario()["objects"]["a"]
    assert serialize.typed_from_json(data) is not serialize.typed_from_json(data)


def test_eval_solves_again_in_each_scenario_file(tmp_path, capsys, monkeypatch):
    path = scenario_file(tmp_path, shared_matrix_scenario())
    solves = _counting_solves(monkeypatch)
    first = run_cli(["eval", path], capsys)
    after_first = len(solves)
    assert serialize._decoded.get() is None
    second = run_cli(["eval", path], capsys)
    assert first == second
    assert first[0] == 0, first[2]
    # a's root (Lueders, the seq_product query); the trivial operation solves nothing
    assert after_first == 1
    assert len(solves) == 2 * after_first


def test_eval_shared_invalid_matrix_names_its_first_holder(tmp_path, capsys, monkeypatch):
    bad = np.diag([1.5, 0.25])
    with pytest.raises(NotEffect) as parent_error:
        Effect(bad)
    mat = serialize.matrix_to_json
    payload = {"objects": {"ok": {"type": "effect", **mat(np.eye(2) / 2)},
                           "luders_bad": {"type": "operation", "kind": "luders",
                                          "effect": mat(bad)},
                           "bad": {"type": "effect", **mat(bad)}},
               "queries": [{"query": "hat", "of": "luders_bad"}]}
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: object 'luders_bad': {parent_error.value}\n"
    assert serialize._decoded.get() is None
    # the next scenario decodes afresh
    solves = _counting_solves(monkeypatch)
    code, _, err = run_cli(["eval", scenario_file(tmp_path, shared_matrix_scenario())], capsys)
    assert code == 0, err
    assert len(solves) == 1


@pytest.mark.parametrize("flag", ["--eq-tol", "--psd-tol", "--gap"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_check_bad_tolerance_exits_2(capsys, flag, value):
    # every comparison with a NaN is false: with one, every law would pass
    code, out, err = run_cli(["check", "--law", "all", flag, value], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {flag[2:].replace('-', '_')} must be a finite number >= 0" in err


def test_check_zero_eq_tol_still_runs(capsys):
    code, out, _ = run_cli(["check", "--law", "ex-10", "--eq-tol", "0", "--format", "json"],
                           capsys)
    assert code in (0, 1)
    assert json.loads(out.splitlines()[0])["id"] == "ex-10"


@pytest.mark.parametrize("field, value", [
    ("dim", 2.7), ("dim", "2"), ("re", [["0.5", 0], [0, 0.5]]), ("re", [[0.5, 0], [0, True]]),
])
def test_eval_matrix_json_of_non_numbers_exits_2(tmp_path, capsys, field, value):
    effect = serialize.typed_to_json(Effect(np.eye(2) / 2))
    effect[field] = value
    payload = {"objects": {"bad": effect}, "queries": [{"query": "hat", "of": "bad"}]}
    code, out, err = run_cli(["eval", scenario_file(tmp_path, payload)], capsys)
    assert code == 2
    assert out == ""
    assert "'bad'" in err and "bad matrix JSON" in err
