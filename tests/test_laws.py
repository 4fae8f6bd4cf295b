import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqmeas
from seqmeas import cli, effects, instruments, laws, matcore, observables, operations
from seqmeas.errors import SeqmeasError, UnknownLaw
from seqmeas.laws import _common, core

# the registry is a closed list in the paper's order: every result in scope
# has exactly one check
EXPECTED_IDS = (
    "axioms-1", "axioms-2", "axioms-3", "axioms-4",
    "thm-1.1", "thm-1.2i", "thm-1.2ii",
    "eq-1.1", "eq-2.1", "eq-2.2", "eq-2.3/2.4",
    "lemma-2.1", "thm-2.2", "cor-2.3",
    "ex-1", "ex-2", "ex-3", "ex-4", "ex-5",
    "thm-2.4i", "thm-2.4ii",
    "thm-3.1i", "thm-3.1ii", "thm-3.1iii",
    "ex-6", "ex-7", "ex-8",
    "lemma-3.2", "lemma-3.3", "ex-9",
    "thm-4.1i", "thm-4.1ii", "thm-4.1iii", "thm-4.2",
    "ex-10", "lemma-4.3", "lemma-4.4",
    "bayes-obs", "cond-prob-measure",
)

COUNTEREXAMPLE_IDS = {
    "eq-2.1", "eq-2.2", "eq-2.3/2.4", "ex-1", "ex-2", "ex-3",
    "ex-6", "ex-7", "ex-8", "ex-9", "bayes-obs",
}


def strip_elapsed(report):
    data = report.to_json()
    data.pop("elapsed")
    return data


def test_registry_covers_the_fixed_list():
    assert laws.law_ids() == list(EXPECTED_IDS)
    reg = laws.registry()
    assert list(reg) == list(EXPECTED_IDS)
    for law_id, law in reg.items():
        assert law.id == law_id
        assert law.kind in ("identity", "iff", "counterexample")
        assert law.description


def test_unknown_law():
    with pytest.raises(UnknownLaw):
        laws.run_law("nope")


def test_run_law_is_deterministic():
    first = laws.run_law("eq-2.2", seed=7)
    second = laws.run_law("eq-2.2", seed=7)
    assert strip_elapsed(first) == strip_elapsed(second)
    other_seed = laws.run_law("eq-2.2", seed=8)
    assert other_seed.status == first.status  # statuses are seed-robust


def test_identity_law_passes():
    report = laws.run_law("thm-2.2", dims=[2, 3, 4], trials=50, seed=7)
    assert report.status == "pass"
    assert report.max_deviation <= 1e-9
    assert report.trials == 150


def test_counterexample_found_with_witness():
    report = laws.run_law("eq-2.2", dims=[2], trials=100, seed=1)
    assert report.status == "counterexample-found"
    assert report.ok
    assert report.max_deviation > 0.01
    assert report.witness is not None
    assert report.witness["violation"] == report.max_deviation


@pytest.mark.parametrize("law_id", sorted(COUNTEREXAMPLE_IDS))
def test_witness_replay_closes_the_loop(law_id):
    report = laws.run_law(law_id, seed=3)
    assert report.status == "counterexample-found"
    law = laws.registry()[law_id]
    recomputed = laws.replay_witness(report)
    assert recomputed > (law.gap or laws.DEFAULT_GAP)
    # the check and the replay share one violation formula, so bit for bit
    assert recomputed == report.max_deviation == report.witness["violation"]


def test_checks_compute_violations_without_serialize():
    # Each counterexample law's violation lives in its registered replay; the
    # witness JSON is decoded by the engine, never by a check module.
    paths = sorted(Path(core.__file__).parent.glob("checks_*.py"))
    assert len(paths) == 3
    hits = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("serialize" in name for name in
                [getattr(node, "module", None) or "", *(alias.name for alias in node.names)])
    ]
    assert hits == []


def test_zero_trials_guard():
    # a run that starts no trial, for want of trials or of dims, is not ok
    for budget in ({"trials": 0}, {"dims": ()}):
        identity_report = laws.run_law("thm-2.2", **budget)
        assert identity_report.status == "fail"
        assert not identity_report.ok
        assert identity_report.trials == 0
        assert identity_report.witness == {"reason": "no trials run"}
        counter_report = laws.run_law("eq-2.2", **budget)
        assert counter_report.status == "counterexample-missing"
        assert not counter_report.ok
        assert counter_report.witness == {"reason": "no trials run"}


def test_checks_load_on_first_use_in_one_order():
    # ``import seqmeas`` loads no check module, and the registry order does not
    # depend on which check module is imported first.
    script = (
        "import sys, seqmeas\n"
        "print(sorted(m for m in sys.modules if '.checks_' in m))\n"
        "import seqmeas.laws.checks_instruments\n"
        "print(seqmeas.laws.law_ids())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(seqmeas.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True).stdout.splitlines()
    assert out == ["[]", repr(list(EXPECTED_IDS))]


def test_ex10_fixture():
    report = laws.run_law("ex-10", dims=[2], trials=1, seed=0)
    assert report.status == "pass"
    assert report.max_deviation == 0.0


def test_report_rendering():
    reports = [laws.run_law("ex-10"), laws.run_law("eq-2.2")]
    text = laws.report_lines(reports)
    assert "ex-10" in text and "ok 2/2 laws" in text
    jsonl = laws.report_jsonl(reports)
    assert len(jsonl.splitlines()) == 2


def test_dims_override_applies():
    report = laws.run_law("thm-4.1i", dims=[2], trials=5, seed=1)
    assert report.dims == (2,)
    assert report.trials == 5
    assert report.status == "pass"


def test_eq_tol_reaches_only_laws_without_a_fixed_tolerance():
    assert laws.registry()["thm-3.1ii"].tol is None
    assert laws.registry()["cond-prob-measure"].tol == 1e-10
    for law_id, routed in (("thm-3.1ii", True), ("cond-prob-measure", False)):
        default = laws.run_law(law_id, dims=[2], trials=3, seed=1)
        tight = laws.run_law(law_id, dims=[2], trials=3, seed=1, eq_tol=1e-20)
        assert default.status == "pass"
        assert default.max_deviation > 1e-20
        assert tight.status == ("fail" if routed else "pass")


def _exhausted_sampler(ctx, dim, tally):
    _common.resample(lambda: 0, lambda sample: False)


def test_exception_in_a_trial_is_an_error_report(monkeypatch, capsys):
    broken = dataclasses.replace(laws.registry()["thm-2.2"], fn=_exhausted_sampler, draw=None)
    monkeypatch.setitem(core._REGISTRY, "thm-2.2", broken)
    reports = laws.run_all(dims=[2], trials=1, seed=1)
    assert len(reports) == len(EXPECTED_IDS)
    errors = [r for r in reports if r.status == "error"]
    assert [r.id for r in errors] == ["thm-2.2"]
    assert not errors[0].ok
    assert errors[0].trials == 1
    assert errors[0].witness["error"] == "SamplingError"
    assert errors[0].witness["dim"] == 2
    assert "rejection sampling" in errors[0].witness["message"]

    code = cli.main(["check", "--law", "thm-2.2", "--dims", "2", "--trials", "1",
                     "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    assert record["status"] == "error"
    assert record["witness"]["error"] == "SamplingError"


def test_exception_in_a_draw_is_an_error_report(monkeypatch):
    law = laws.registry()["ex-7"]

    def draw_failing_at_3(ctx, dim, n):
        if dim == 3:
            _common.resample(lambda: 0, lambda sample: False)
        return law.draw(ctx, dim, n)

    broken = dataclasses.replace(law, draw=draw_failing_at_3)
    monkeypatch.setitem(core._REGISTRY, "ex-7", broken)
    report = laws.run_law("ex-7", dims=[2, 3], trials=2, seed=1)
    assert report.status == "error"
    assert not report.ok
    assert report.trials == 2  # the trials of dim 2 ran; dim 3 drew nothing
    assert report.witness["error"] == "SamplingError"
    assert report.witness["dim"] == 3


def test_a_law_draws_once_per_dim_then_runs_its_trials(monkeypatch):
    calls = []

    def draw(ctx, dim, n):
        calls.append(("draw", dim, n))
        return [(dim, k) for k in range(n)]

    def trial(ctx, dim, tally, drawn_dim, k):
        calls.append(("trial", drawn_dim, k))
        tally.expect(0.0, "nothing to check")

    law = dataclasses.replace(laws.registry()["thm-2.2"], fn=trial, draw=draw)
    monkeypatch.setitem(core._REGISTRY, "thm-2.2", law)
    report = laws.run_law("thm-2.2", dims=[2, 3], trials=2, seed=1)
    assert (report.status, report.trials) == ("pass", 4)
    assert calls == [("draw", 2, 2), ("trial", 2, 0), ("trial", 2, 1),
                     ("draw", 3, 2), ("trial", 3, 0), ("trial", 3, 1)]
    # no trials, no draw
    calls.clear()
    assert laws.run_law("thm-2.2", dims=[2], trials=0).witness == {"reason": "no trials run"}
    assert calls == []


def test_counterexample_reports_the_replayed_violation():
    # the in-run violation only ranks candidates; the report carries the replay
    # of the kept witness, which the decoded witness reproduces bit for bit
    report = laws.run_law("ex-7", seed=1)
    assert report.status == "counterexample-found"
    assert report.max_deviation == report.witness["violation"] == laws.replay_witness(report)


def test_drawn_gives_each_trial_one_input_or_a_run_of_k_per_generator():
    calls = []

    def generator(tag):
        def draw(dim, rng, n):
            calls.append((tag, dim, n))
            return tuple(f"{tag}{j}" for j in range(n))
        return draw

    draw = _common.drawn(generator("a"), (generator("b"), 3))
    ctx = core.LawContext(dims=(2,), trials=2, rng=np.random.default_rng(0))
    assert list(draw(ctx, 2, 2)) == [("a0", "b0", "b1", "b2"), ("a1", "b3", "b4", "b5")]
    assert calls == [("a", 2, 2), ("b", 2, 6)]


# The library's random generators (``random_*`` of the object modules).
LIBRARY_GENERATORS = {name for module in (matcore, effects, observables, operations, instruments)
                      for name in vars(module) if name.startswith("random_")}

# Generator calls a trial still makes itself, outside rejection sampling, by
# design: a Haar unitary needs no root and no normalizer, so drawing it per trial
# costs no solve.
TRIAL_DRAW_EXEMPTIONS = {
    ("check_kraus_trace_identity", "random_unitary"),  # eq-1.1: the Kraus remix
    ("check_operation_bayes_first_rule", "random_unitary"),  # eq-2.3/2.4: the projection
    ("check_atomic_is_semi_trivial", "random_unitary"),  # lemma-2.1: the orthonormal vectors
    ("check_projection_mixing_bayes", "random_unitary"),  # ex-2: the projection
}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _trial_generator_calls(check: ast.FunctionDef) -> set[tuple[str, str]]:
    """(check, generator) for each library generator call in a trial function that
    is not inside a closure it hands to ``resample``."""
    closures = {node.name: node for node in ast.walk(check)
                if isinstance(node, ast.FunctionDef) and node is not check}
    sampled = set()
    for call in ast.walk(check):
        if isinstance(call, ast.Call) and _called_name(call) == "resample":
            for arg in call.args:
                closure = (closures.get(arg.id) if isinstance(arg, ast.Name)
                           else arg if isinstance(arg, ast.Lambda) else None)
                sampled.update(map(id, ast.walk(closure)) if closure is not None else ())
    return {(check.name, _called_name(node)) for node in ast.walk(check)
            if isinstance(node, ast.Call) and id(node) not in sampled
            and _called_name(node) in LIBRARY_GENERATORS}


def test_trials_take_their_random_inputs_from_the_draw():
    # A trial that calls a generator itself pays a scalar solve per trial for each
    # root and normalizer; only rejection sampling and the exemptions draw there.
    paths = sorted(Path(core.__file__).parent.glob("checks_*.py"))
    checks = [node for path in paths
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")]
    assert len(checks) == len(EXPECTED_IDS)
    found = set().union(*map(_trial_generator_calls, checks))
    assert found == TRIAL_DRAW_EXEMPTIONS


def _effects_in(value) -> list:
    """Every effect an input carries: itself, an observable's members, the induced
    effects of an operation or of an instrument's members."""
    if isinstance(value, (tuple, list)):
        return [e for item in value for e in _effects_in(item)]
    if isinstance(value, effects.Effect):
        return [value]
    if isinstance(value, operations.Operation):
        return [value.induced]
    if isinstance(value, observables._Measure):
        return _effects_in(list(value._members))
    return []


# The laws whose per-trial draws made the most scalar solves before they drew
# their inputs for all trials of a dimension at once.
STACKED_DRAW_LAWS = ("ex-4", "thm-2.4i", "thm-3.1i", "thm-3.1ii", "thm-3.1iii", "lemma-3.3",
                     "thm-4.1ii", "thm-4.1iii")


@pytest.mark.parametrize("law_id", STACKED_DRAW_LAWS)
def test_stacked_draws_leave_no_scalar_normalizer_or_drawn_root(monkeypatch, law_id):
    # at 12 trials per dim (the benchmark's count) every normalizer and every root
    # of a drawn effect comes from a stacked solve; rejection sampling still draws
    # alone, per trial, so its solves are not counted
    law = laws.registry()[law_id]
    drawn, inv_roots, roots, sampling = [], [], [], []

    def recording_draw(ctx, dim, n):
        inputs = list(law.draw(ctx, dim, n))
        drawn.extend(e.op for e in _effects_in(inputs))
        return inputs

    def counted_resample(draw, accept):
        sampling.append(True)
        try:
            return _common.resample(draw, accept)
        finally:
            sampling.pop()

    def recorder(calls, real):
        def solve(m, *args):
            if not sampling:
                calls.append(m)
            return real(m, *args)
        return solve

    monkeypatch.setitem(core._REGISTRY, law_id, dataclasses.replace(law, draw=recording_draw))
    monkeypatch.setattr(sys.modules[law.fn.__module__], "resample", counted_resample)
    monkeypatch.setattr(matcore, "inv_sqrt_pd", recorder(inv_roots, matcore.inv_sqrt_pd))
    monkeypatch.setattr(matcore, "sqrt_psd", recorder(roots, matcore.sqrt_psd))
    report = laws.run_law(law_id, trials=12, seed=42)
    assert (report.status, report.trials) == ("pass", 12 * len(law.dims))
    assert drawn
    assert inv_roots == []
    drawn_ids = set(map(id, drawn))
    assert [m for m in roots if id(m) in drawn_ids] == []


def test_conditioning_on_the_sure_observable_solves_no_root(monkeypatch):
    # ex-9 conditions on the sure observable, which is its own root, and asserts
    # that the trivial front end measures it; the drawn observables' roots come
    # from the stacked draw, so no trial makes a scalar Jacobi solve
    solves = []
    real = matcore.eig_hermitian
    monkeypatch.setattr(matcore, "eig_hermitian", lambda m: solves.append(m) or real(m))
    report = laws.run_law("ex-9", trials=12, seed=42)
    assert report.status == "counterexample-found" and solves == []


@pytest.mark.parametrize("name", ["eq_tol", "psd_tol", "gap"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9, "0.1", True])
def test_bad_tolerances_raise_before_any_trial(monkeypatch, name, value):
    law = laws.registry()["ex-10"]
    trials = []
    monkeypatch.setitem(core._REGISTRY, "ex-10",
                        dataclasses.replace(law, fn=lambda *args: trials.append(args)))
    with pytest.raises(SeqmeasError, match=f"{name} must be a finite number >= 0"):
        laws.run_law("ex-10", trials=2, **{name: value})
    assert trials == []
    laws.run_law("ex-10", trials=2, **{name: 0.0})  # zero is a tolerance
    assert trials
