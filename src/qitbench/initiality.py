"""Executable initiality for a constructed carrier.

Recursion into a finite algebra is one memoised fold over the carrier:
each class takes the step of its canonical member (the one its
representative is built from) over its children's values, which equals
evaluating the representative.  A dynamic check confirms the value does
not depend on the member chosen.  Homomorphism and uniqueness are checked
exhaustively over a bounded fragment of classes, and dependent
elimination is the same fold through the algebra on (class, value) pairs,
guarded by a coherence premise over the equations.

All checks here are bounded: they quantify over enumerated fragments, not
the whole carrier, and say so in their reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from .engine import ClassId, GenLeaf, OmegaTable, QWState
from .equations import EquationSystem, SatReport, _lift_pair, sat_check
from .errors import (
    BudgetExceededError,
    CoherenceError,
    FiberMismatchError,
    StaleProofError,
    UnboundVariableError,
    WorkbenchError,
)
from .terms import (
    FiniteAlgebra,
    OpNode,
    Var,
    _interp,
    count_opnodes,
    enumerate_opnodes,
    map_branches,
)


@dataclass(frozen=True)
class RecTarget:
    """A recursion target: a finite algebra together with the satisfaction
    report that licenses recursion into it."""

    algebra: FiniteAlgebra
    system: EquationSystem
    sat_report: SatReport


def rec_target(algebra: FiniteAlgebra, system: EquationSystem, *, env_budget: int = 200_000) -> RecTarget:
    report = sat_check(algebra, system, env_budget=env_budget)
    if not report.satisfied:
        raise WorkbenchError(
            f"algebra does not satisfy the equations: {report.to_json()}"
        )
    return RecTarget(algebra, system, report)


def _validate_target(state: QWState, target: RecTarget) -> None:
    """Recursion is only well defined into a satisfying algebra; the proof
    is re-checked on use so a tweaked interpretation is caught."""
    if target.system != state.system:
        raise StaleProofError("target was built for a different equation system")
    if not target.sat_report.satisfied:
        raise StaleProofError("target carries a violated satisfaction report")
    fresh = sat_check(target.algebra, target.system)
    if not fresh.satisfied:
        raise StaleProofError(
            f"satisfaction no longer holds: {fresh.to_json()}"
        )


def _all_values(
    state: QWState, algebra: Any, gen_env: Mapping | None
) -> dict[int, Any]:
    """Value of every class: the canonical representative evaluated, as
    one fold over the carrier."""
    if state.stale:
        state.saturate()
    env = dict(gen_env) if gen_env else {}

    def leaf(name: str) -> Any:
        try:
            return env[name]
        except KeyError:
            raise UnboundVariableError(
                f"variable {name!r} outside the environment"
            ) from None

    return state.fold(leaf, lambda op, values: _interp(algebra, op, values))


def qw_rec(
    state: QWState,
    target: RecTarget,
    c: ClassId,
    *,
    gen_env: Mapping | None = None,
) -> Any:
    """Recurse from a class into the target algebra."""
    _validate_target(state, target)
    values = _all_values(state, target.algebra, gen_env)
    return values[state.canonical(c).index]


@dataclass(frozen=True)
class FragmentHomReport:
    ok: bool
    counterexample: OpNode | None = None
    checked: int = 0
    skipped: int = 0

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "verdict": "ok" if self.ok else "counterexample",
            "checked": self.checked,
            "skipped": self.skipped,
        }
        if self.counterexample is not None:
            out["operator"] = self.counterexample.op
            out["branches"] = _opnode_branches_json(self.counterexample)
        return out


def _opnode_branches_json(s: OpNode) -> Any:
    b = s.branches
    if isinstance(b, OmegaTable):
        return {
            "table": [[i, v.index] for i, v in b.entries],
            "default": b.default.index,
        }
    return [v.index for v in b]


def _fragment_opnodes(
    state: QWState, classes: tuple[ClassId, ...], budget: int
):
    if count_opnodes(state.signature, len(classes), state.probe) > budget:
        raise BudgetExceededError("operator layer enumeration exceeds the budget")
    yield from enumerate_opnodes(state.signature, classes, state.probe)


def check_rec_hom(
    state: QWState,
    target: RecTarget,
    *,
    classes: Iterable[ClassId] | None = None,
    gen_env: Mapping | None = None,
    budget: int = 100_000,
) -> FragmentHomReport:
    """Check the algebra-map law on every operator layer over the fragment:
    stepping in the algebra after recursing equals recursing from the
    introduced class.  Layers whose introduction is not interned are
    skipped; a fresh singleton class would evaluate to exactly the stepped
    value, so the content of the check lives on merged classes.

    Evaluation here is deliberately ungated so a corrupted target shows up
    as a counterexample rather than a refusal."""
    if state.stale:
        state.saturate()
    fragment = tuple(classes) if classes is not None else state.roots()
    values = _all_values(state, target.algebra, gen_env)
    checked = skipped = 0
    for s in _fragment_opnodes(state, fragment, budget):
        intro = state.lookup_intro(s)
        if intro is None:
            skipped += 1
            continue
        stepped = _interp(
            target.algebra, s.op, map_branches(lambda c: values[state.canonical(c).index], s.branches)
        )
        recursed = values[state.canonical(intro).index]
        checked += 1
        if stepped != recursed:
            return FragmentHomReport(False, s, checked, skipped)
    return FragmentHomReport(True, None, checked, skipped)


@dataclass(frozen=True)
class UniqReport:
    ok: bool
    premise_counterexample: OpNode | None = None
    conclusion_counterexample: ClassId | None = None

    @property
    def premise_ok(self) -> bool:
        return self.premise_counterexample is None

    def to_json(self) -> dict:
        if self.ok:
            return {"verdict": "ok"}
        if self.premise_counterexample is not None:
            return {
                "verdict": "premise-counterexample",
                "operator": self.premise_counterexample.op,
                "branches": _opnode_branches_json(self.premise_counterexample),
            }
        return {
            "verdict": "conclusion-counterexample",
            "class": self.conclusion_counterexample.index,
        }


def check_uniq(
    state: QWState,
    target: RecTarget,
    h: Mapping[ClassId, Any],
    *,
    gen_env: Mapping | None = None,
    budget: int = 100_000,
) -> UniqReport:
    """If ``h`` is an algebra map on the fragment it must agree with
    recursion pointwise.  Premise failures (h is not a map) are reported
    separately from conclusion failures (h is a map but differs)."""
    _validate_target(state, target)
    hmap = {state.canonical(c).index: v for c, v in h.items()}
    fragment = tuple(ClassId(i) for i in sorted(hmap))
    for s in _fragment_opnodes(state, fragment, budget):
        intro = state.lookup_intro(s)
        if intro is None:
            continue
        introot = state.canonical(intro).index
        if introot not in hmap:
            continue
        stepped = _interp(
            target.algebra,
            s.op,
            map_branches(lambda c: hmap[state.canonical(c).index], s.branches),
        )
        if stepped != hmap[introot]:
            return UniqReport(False, premise_counterexample=s)
    values = _all_values(state, target.algebra, gen_env)
    for i in sorted(hmap):
        if hmap[i] != values[i]:
            return UniqReport(False, conclusion_counterexample=ClassId(i))
    return UniqReport(True)


@dataclass(frozen=True)
class CoherenceReport:
    ok: bool
    eq_name: str | None = None
    reason: str | None = None

    def to_json(self) -> dict:
        if self.ok:
            return {"verdict": "ok"}
        return {"verdict": "failed", "equation": self.eq_name, "reason": self.reason}


@dataclass(frozen=True)
class DepTarget:
    """A dependent elimination target: a family of finite value sets over
    classes and a step producing a value over every introduced class, with
    its verified coherence premise."""

    family: Callable[[ClassId], tuple]
    step: Callable[[str, Any, Any], Any]
    coherence: CoherenceReport


def check_coherence(
    state: QWState,
    family: Callable[[ClassId], tuple],
    step: Callable[[str, Any, Any], Any],
    *,
    classes: Iterable[ClassId] | None = None,
    env_budget: int = 50_000,
) -> CoherenceReport:
    """The dependent analogue of satisfaction: for every equation and every
    assignment of (class, value) pairs to its variables, lifting the two
    sides gives provably equal indices and equal values in the common
    fiber."""
    if state.stale:
        state.saturate()
    fragment = tuple(classes) if classes is not None else state.roots()
    options = []
    for c in fragment:
        for v in family(c):
            options.append((c, v))

    def intro_alg(op: str, branches: Any) -> ClassId:
        return state.qw_intro(OpNode(op, branches))

    total = sum(len(options) ** e.var_count for e in state.system.equations)
    if total > env_budget:
        raise BudgetExceededError(
            f"{total} dependent environments exceed the budget of {env_budget}"
        )
    pending = []
    for eq in sorted(state.system.equations, key=lambda e: e.name):
        for env in itertools.product(options, repeat=eq.var_count):
            try:
                li, lv = _lift_pair(family, step, env, eq.lhs, intro_alg)
                ri, rv = _lift_pair(family, step, env, eq.rhs, intro_alg)
            except FiberMismatchError as exc:
                return CoherenceReport(False, eq.name, str(exc))
            pending.append((eq.name, li, lv, ri, rv))
    state.saturate()
    for name, li, lv, ri, rv in pending:
        if not state.decide_eq(li, ri).proved:
            return CoherenceReport(False, name, "instantiated sides not provably equal")
        if lv != rv:
            return CoherenceReport(
                False, name, f"values differ in the common fiber: {lv!r} vs {rv!r}"
            )
    return CoherenceReport(True)


def dep_target(
    state: QWState,
    family: Callable[[ClassId], tuple],
    step: Callable[[str, Any, Any], Any],
    *,
    classes: Iterable[ClassId] | None = None,
    env_budget: int = 50_000,
) -> DepTarget:
    report = check_coherence(state, family, step, classes=classes, env_budget=env_budget)
    if not report.ok:
        raise CoherenceError(f"coherence premise failed: {report.to_json()}")
    return DepTarget(family, step, report)


def _elim_values(
    state: QWState,
    dep: DepTarget,
    *,
    gen_env: Mapping | None = None,
) -> dict[int, Any]:
    if not dep.coherence.ok:
        raise CoherenceError("refusing elimination: coherence premise not verified")
    if state.stale:
        state.saturate()
    env = dict(gen_env) if gen_env else {}

    def leaf(name: str) -> tuple[ClassId, Any]:
        cls = state.intern_term(Var(name))
        try:
            val = env[name]
        except KeyError:
            raise UnboundVariableError(
                f"no dependent value supplied for generator {name!r}"
            ) from None
        return cls, val

    def step(op: str, pairs: Any) -> tuple[ClassId, Any]:
        idxs = map_branches(lambda p: p[0], pairs)
        vals = map_branches(lambda p: p[1], pairs)
        intro = state.lookup_intro(OpNode(op, idxs))
        if intro is None:
            raise WorkbenchError("representative layer unexpectedly not interned")
        val = dep.step(op, idxs, vals)
        if val not in dep.family(intro):
            raise FiberMismatchError(
                f"elimination value {val!r} outside the fiber over {intro!r}"
            )
        return intro, val

    pairs = state.fold(leaf, step)
    memo: dict[int, Any] = {}
    for c in state.roots():
        idx, val = pairs[c.index]
        if not state.same_class(idx, c):
            raise WorkbenchError(
                "first projection of the pair recursion left its class"
            )
        memo[c.index] = val
    return memo


def qw_elim(
    state: QWState,
    dep: DepTarget,
    c: ClassId,
    *,
    gen_env: Mapping | None = None,
) -> Any:
    """Dependent elimination: a value in the fiber over the class, computed
    through the algebra on (class, value) pairs.  The index component is
    checked to land back in the class it started from."""
    values = _elim_values(state, dep, gen_env=gen_env)
    return values[state.canonical(c).index]


@dataclass(frozen=True)
class CompReport:
    ok: bool
    counterexample: OpNode | None = None
    checked: int = 0

    def to_json(self) -> dict:
        out: dict[str, Any] = {"verdict": "ok" if self.ok else "counterexample", "checked": self.checked}
        if self.counterexample is not None:
            out["operator"] = self.counterexample.op
            out["branches"] = _opnode_branches_json(self.counterexample)
        return out


def check_comp(
    state: QWState,
    dep: DepTarget,
    *,
    classes: Iterable[ClassId] | None = None,
    gen_env: Mapping | None = None,
    budget: int = 100_000,
) -> CompReport:
    """The computation rule as a decided equality: eliminating an introduced
    class gives exactly the step applied to the branchwise eliminations."""
    if state.stale:
        state.saturate()
    fragment = tuple(classes) if classes is not None else state.roots()
    values = _elim_values(state, dep, gen_env=gen_env)
    checked = 0
    for s in _fragment_opnodes(state, fragment, budget):
        intro = state.lookup_intro(s)
        if intro is None:
            continue
        introot = state.canonical(intro).index
        if introot not in values:
            continue
        vals = map_branches(lambda c: values[state.canonical(c).index], s.branches)
        stepped = dep.step(s.op, s.branches, vals)
        checked += 1
        if stepped != values[introot]:
            return CompReport(False, s, checked)
    return CompReport(True, None, checked)


@dataclass(frozen=True)
class RepIndependenceReport:
    ok: bool
    class_id: ClassId | None = None
    member: Any = None

    def to_json(self) -> dict:
        if self.ok:
            return {"verdict": "ok"}
        return {"verdict": "counterexample", "class": self.class_id.index}


def check_rep_independence(
    state: QWState,
    target: RecTarget,
    *,
    gen_env: Mapping | None = None,
) -> RepIndependenceReport:
    """Evaluate every recorded member of every class and confirm the value
    never depends on which member is picked.  This is the invariance half
    of recursion made into a runtime check."""
    _validate_target(state, target)
    values = _all_values(state, target.algebra, gen_env)
    env = dict(gen_env) if gen_env else {}
    for c in state.roots():
        expected = values[c.index]
        for payload in state.members(c):
            if isinstance(payload, GenLeaf):
                got = env.get(payload.name, expected)
            else:
                got = _interp(
                    target.algebra,
                    payload.op,
                    map_branches(lambda i: values[state.canonical(ClassId(i)).index], payload.branches),
                )
            if got != expected:
                return RepIndependenceReport(False, c, payload)
    return RepIndependenceReport(True)
