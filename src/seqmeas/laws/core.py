"""Law-check engine: registry, runner and report types.

Three kinds of checks:

* ``identity``        -- an equation that must hold on every sampled trial.
* ``iff``             -- both directions of an equivalence: constructed
                         instances satisfying the hypothesis must pass, generic
                         instances violating it must fail by a visible gap.
* ``counterexample``  -- an "in general false" claim: the check passes exactly
                         when a violation larger than the gap threshold is
                         found within the trial budget.

Each check module declares its laws once, as a ``LAWS`` tuple in the paper's
order, and the registry holds the three tuples in declaration order (effects,
operations, instruments): ``law_ids``, ``registry`` and ``run_all`` list the
laws section by section.

A check is a per-trial function ``fn(ctx, dim, tally, *inputs) -> None``.
``run_law`` owns the loop: it calls ``fn`` ``ctx.trials`` times for each
dimension in ``ctx.dims``, counts the trials and turns the one ``Tally`` they
share into the report. A law may register ``draw(ctx, dim, n)``, which returns
the inputs of n trials (one tuple each), drawn at once so that their roots and
normalizers come from stacked solves; ``run_law`` calls it once per
dimension with n = ``ctx.trials``, before that dimension's trials, and passes
trial k its k-th tuple. Most draws are ``_common.drawn`` of a list of stacked
generators. A law without ``draw`` gets no inputs: 35 of the 39 laws draw, and
the other four (``lemma-2.1``, ``thm-1.2i``, ``thm-2.4ii``, ``ex-10``) need no
root or normalizer a stack would save. A trial still draws its rejection
samples, and the few unitaries some checks use, itself. So a law's RNG
stream is consumed as: the draw of the first dimension, then its trials (in
order, with whatever they draw themselves, such as rejection samples), then the
draw of the next dimension, and so on. A run that starts no trial (no trials,
or no dims) calls no ``draw`` and fails, or reports a counterexample law's
counterexample missing, with the witness ``{"reason": "no trials run"}``. An
exception escaping a ``draw`` or a trial ends that law with status ``error``;
its witness names the exception type, message and dimension, and the report is
not ok. The other laws of a run are unaffected.
Inside a trial a check records

* ``tally.expect(deviation, label, **objects)`` -- a deviation that must stay
  within the tally's tolerance (``tol=`` overrides it for one assertion);
* ``tally.expect_true(condition, label, **objects)`` -- an assertion that must
  hold;
* ``tally.offer(**objects)`` -- a counterexample candidate; the law's
  ``replay`` computes its violation from ``objects``, and the candidate with the
  largest violation (strictly larger than every earlier one) is kept, its
  inputs serialized for ``replay_witness``. When the run ends, the kept witness
  is decoded and replayed once, the way ``replay_witness`` does it, and that
  replayed violation becomes the report's ``max_deviation`` and the witness's
  ``violation``. The in-run violation only ranks the candidates: inputs from a
  stacked draw carry roots from the stacked solver, which agree with the scalar
  roots of the decoded witness to rounding, not bit for bit.

The tally's tolerance is the registry field ``LawCheck.tol``, or
``ctx.eq_tol`` when that is ``None``. The first failed assertion, with its
``objects`` serialized at that moment, becomes the witness of a failing report,
counterexample laws included; assertions that hold serialize nothing.

Every law draws from its own RNG stream derived from hash(seed, law id), so a
report is a pure function of (id, dims, trials, seed, tolerances) except for
its ``elapsed`` field.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .. import serialize
from ..errors import SeqmeasError, UnknownLaw
from ..matcore import EQ_TOL, PSD_TOL
from ._common import wit

DEFAULT_SEED = 42
DEFAULT_GAP = 0.01


@dataclass
class LawContext:
    """Everything a check needs: dimensions, budget, RNG stream, tolerances."""

    dims: tuple[int, ...]
    trials: int
    rng: np.random.Generator
    eq_tol: float = EQ_TOL
    psd_tol: float = PSD_TOL
    gap: float = DEFAULT_GAP


@dataclass
class Tally:
    """Accumulates one law's deviations, assertions and counterexample candidates."""

    tol: float
    replay: Callable[..., float] | None = None  # the law's violation formula
    max_deviation: float = 0.0
    ok: bool = True
    witness: dict | None = None
    best: float = 0.0
    best_witness: dict | None = None

    def expect(self, deviation: float, label: str, tol: float | None = None,
               **objects) -> None:
        deviation = float(deviation)
        self.max_deviation = max(self.max_deviation, deviation)
        if deviation > (self.tol if tol is None else tol) and self.ok:
            self.ok = False
            self.witness = {"assertion": label, "deviation": deviation, **wit(**objects)}

    def expect_true(self, condition: bool, label: str, **objects) -> None:
        if not condition and self.ok:
            self.ok = False
            self.witness = {"assertion": label, **wit(**objects)}

    def offer(self, construction: str | None = None, **objects) -> None:
        """Keep a counterexample candidate if it beats the best violation so far.

        Its violation is ``replay(**objects)``; the witness lists ``objects``
        (serialized only when kept), then ``violation``, then ``construction``.
        """
        extra = {} if construction is None else {"construction": construction}
        violation = float(self.replay(**objects, **extra))
        if violation > self.best:
            self.best = violation
            self.best_witness = wit(**objects, violation=violation, **extra)

    def result(self, kind: str, trials: int, gap: float,
               error: dict | None = None) -> CheckResult:
        """Summarize the finished tally into a report status.

        An ``error`` (an exception that ended the run) is the status ``error``
        with that witness. A run that started no trial fails (a counterexample
        law reports its counterexample missing) with the witness
        ``{"reason": "no trials run"}``. A failed assertion fails any law. A
        counterexample law otherwise reports the replayed violation of its best
        candidate (``_replayed``: the witness decoded and put through ``replay``
        once) and that candidate's witness, and is found when the violation
        exceeds ``gap``.
        """
        counterexample = kind == "counterexample"
        if counterexample and error is None and self.best_witness is not None:
            self.best = _replayed(self.replay, self.best_witness)
            self.best_witness["violation"] = self.best
        if error is not None:
            status, witness = "error", error
        elif trials == 0:
            status = "counterexample-missing" if counterexample else "fail"
            witness = {"reason": "no trials run"}
        elif not self.ok:
            status, witness = "fail", self.witness
        elif counterexample:
            status = "counterexample-found" if self.best > gap else "counterexample-missing"
            witness = self.best_witness
        else:
            status, witness = "pass", None
        deviation = self.best if counterexample else self.max_deviation
        return CheckResult(status=status, max_deviation=deviation, trials=trials, witness=witness)


@dataclass
class CheckResult:
    status: str  # pass | fail | counterexample-found | counterexample-missing | error
    max_deviation: float
    trials: int
    witness: dict | None = None


@dataclass(frozen=True)
class LawCheck:
    """One registered law: identity of the claim plus its default budget."""

    id: str
    kind: str  # identity | iff | counterexample
    dims: tuple[int, ...]
    trials: int
    description: str
    fn: Callable[..., None]  # one trial at one dimension: fn(ctx, dim, tally, *inputs)
    gap: float | None = None  # law-specific violation threshold override
    replay: Callable[..., float] | None = None  # violation from witness objects
    tol: float | None = None  # tally tolerance; None means ctx.eq_tol
    draw: Callable[[LawContext, int, int], Iterable[tuple]] | None = None  # n trials' inputs


@dataclass
class LawReport:
    """Outcome of one law check.

    For counterexample checks ``max_deviation`` is the largest violation found
    (the distance from the would-be law) and ``witness`` holds the inputs that
    produced it, serialized so they can be replayed through the library.
    """

    id: str
    kind: str
    status: str  # pass | fail | counterexample-found | counterexample-missing | error
    trials: int
    max_deviation: float
    witness: dict | None
    seed: int
    elapsed: float
    dims: tuple[int, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "counterexample-found")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "dims": list(self.dims),
            "trials": self.trials,
            "max_deviation": self.max_deviation,
            "witness": self.witness,
            "seed": self.seed,
            "elapsed": self.elapsed,
        }


_REGISTRY: dict[str, LawCheck] = {}


def register(law: LawCheck) -> LawCheck:
    if law.id in _REGISTRY:
        raise ValueError(f"duplicate law id {law.id!r}")
    _REGISTRY[law.id] = law
    return law


def registry() -> dict[str, LawCheck]:
    _ensure_loaded()
    return dict(_REGISTRY)


def law_ids() -> list[str]:
    _ensure_loaded()
    return list(_REGISTRY)


@functools.cache
def _ensure_loaded() -> None:
    # The checks load on first use, not with the package: loading them eagerly
    # raises the max RSS of ``import seqmeas`` from about 32.2 to 33.3 MB and
    # its import time by about 12 ms, which every ``seqmeas eval`` would pay.
    # The one expression below fixes the paper order, whichever module loaded first.
    from . import checks_effects, checks_instruments, checks_operations
    for law in checks_effects.LAWS + checks_operations.LAWS + checks_instruments.LAWS:
        register(law)


def _law(law_id: str) -> LawCheck:
    if law_id not in registry():
        raise UnknownLaw(f"no law registered under {law_id!r}")
    return _REGISTRY[law_id]


def _law_rng(seed: int, law_id: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{law_id}:{seed}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def run_law(law_id: str, dims=None, trials: int | None = None, seed: int = DEFAULT_SEED,
            eq_tol: float = EQ_TOL, psd_tol: float = PSD_TOL,
            gap: float = DEFAULT_GAP) -> LawReport:
    """Run one registered law and return its report. A tolerance or gap that is not
    a finite number >= 0 raises ``SeqmeasError`` before any trial runs: every
    comparison with a NaN is false, so with one a law would pass (or miss its
    counterexample) whatever it measured."""
    for name, value in (("eq_tol", eq_tol), ("psd_tol", psd_tol), ("gap", gap)):
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not (math.isfinite(value) and value >= 0)):
            raise SeqmeasError(f"{name} must be a finite number >= 0, got {value!r}")
    law = _law(law_id)
    start = time.perf_counter()
    ctx = LawContext(dims=law.dims if dims is None else tuple(int(d) for d in dims),
                     trials=law.trials if trials is None else int(trials),
                     rng=_law_rng(seed, law.id), eq_tol=eq_tol, psd_tol=psd_tol,
                     gap=law.gap if law.gap is not None else gap)
    tally = Tally(tol=eq_tol if law.tol is None else law.tol, replay=law.replay)
    trials_run = 0
    dim = None
    try:
        for dim in ctx.dims:
            if law.draw is None or ctx.trials <= 0:
                inputs = [()] * max(ctx.trials, 0)
            else:
                inputs = law.draw(ctx, dim, ctx.trials)
            for args in inputs:
                trials_run += 1
                law.fn(ctx, dim, tally, *args)
        result = tally.result(law.kind, trials=trials_run, gap=ctx.gap)
    except Exception as exc:  # one failing law must not abort a run of all laws
        error = {"error": type(exc).__name__, "message": str(exc), "dim": dim}
        result = tally.result(law.kind, trials=trials_run, gap=ctx.gap, error=error)
    return LawReport(
        id=law.id, kind=law.kind, status=result.status,
        trials=result.trials, max_deviation=result.max_deviation,
        witness=result.witness, seed=seed,
        elapsed=time.perf_counter() - start, dims=ctx.dims,
    )


def run_all(dims=None, trials: int | None = None, seed: int = DEFAULT_SEED,
            eq_tol: float = EQ_TOL, psd_tol: float = PSD_TOL,
            gap: float = DEFAULT_GAP) -> list[LawReport]:
    """Run every registered law (per-law default dims/trials unless overridden)."""
    return [
        run_law(law_id, dims=dims, trials=trials, seed=seed,
                eq_tol=eq_tol, psd_tol=psd_tol, gap=gap)
        for law_id in law_ids()
    ]


def replay_witness(report: LawReport | dict) -> float:
    """Recompute a counterexample's violation from its serialized witness.

    Closes the loop: the witness objects, decoded, go through the same
    ``replay`` formula that computed the reported violation.
    """
    data = report.to_json() if isinstance(report, LawReport) else report
    law = _law(data["id"])
    if law.replay is None:
        raise UnknownLaw(f"law {law.id!r} has no witness replay")
    if not data.get("witness"):
        raise UnknownLaw(f"report for {law.id!r} carries no witness")
    return _replayed(law.replay, data["witness"])


def _replayed(replay: Callable[..., float], witness: dict) -> float:
    """The violation ``replay`` computes from a serialized witness's decoded objects."""
    objects = {name: serialize._from_json(value)
               for name, value in witness.items() if name != "violation"}
    return float(replay(**objects))


def report_lines(reports: list[LawReport]) -> str:
    """Stable line-oriented text rendering."""
    lines = []
    for r in reports:
        lines.append(
            f"{r.status:<24} {r.id:<18} dims={','.join(str(d) for d in r.dims):<8} "
            f"trials={r.trials:<5} max_dev={r.max_deviation:.3e} elapsed={r.elapsed:.3f}s"
        )
    n_ok = sum(r.ok for r in reports)
    lines.append(f"ok {n_ok}/{len(reports)} laws")
    return "\n".join(lines)


def report_jsonl(reports: list[LawReport]) -> str:
    return "\n".join(json.dumps(r.to_json()) for r in reports)
