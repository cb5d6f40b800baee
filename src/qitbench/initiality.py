"""Executable initiality for a constructed carrier.

Every class value comes from one memoised fold over the carrier,
:func:`_values`: each class takes the step of its canonical layer over
its children's values.  Into the term algebra that fold gives the
representative, so recursion equals evaluating the representative.  The
homomorphism check covers every member of a bounded fragment's classes,
so it also confirms the value does not depend on the member chosen;
uniqueness is checked exhaustively over such a fragment.  Dependent elimination is recursion into the
algebra of (class, root, value) triples, :func:`_pair`, whose step finds
the layer's class and checks the value against the fiber over it, with a
check that the first projection returns the class it started from,
guarded by a coherence premise over the equations; like recursion, it
folds only the classes it is asked about and those below them.

All checks here are bounded: they quantify over enumerated fragments, not
the whole carrier, and say so in their reports.  Each settles the state
(saturating it if stale) and picks its fragment through :func:`_fragment`,
checks the algebra-map law by one walk over the operator layers the
carrier stores over the fragment, :func:`_law_walk`; recursion's check
then reads the members no such layer is, generator leaves and countable
tables past the probe (:func:`_unranked`).  The coherence
premise is the walk of ``check_equations_hold`` with a value per layer:
each side is evaluated in that same algebra of triples, interning its
layers, and each distinct side once per environment, with leaf and step
fiber checks in post-order.  A recursion target is re-checked on each use
over operator cells it tabulates once.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping

from .engine import (
    UNEQUAL_SIDES,
    CarrierSatReport,
    ClassId,
    GenLeaf,
    QWState,
    _carrier_walk,
    _Side,
)
from .equations import (
    ENV_BUDGET,
    EquationSystem,
    SatReport,
    instance_count,
    sat_check,
)
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
    Record,
    Var,
    _interp,
    branch_values,
    branches_to_json,
    budgeted_opnodes,
    count_opnodes,
    fold_term,
    map_branches,
    probe_key,
)

class RecTarget(Record):
    """A recursion target: a finite algebra together with the satisfaction
    report that licenses recursion into it."""

    def __init__(self, algebra: FiniteAlgebra, system: EquationSystem, sat_report: SatReport):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "sat_report", sat_report)
        # the operator cells over the carrier and the values that last passed
        # the re-check on them: kept by ``_validate_target``, not fields
        object.__setattr__(self, "cells", [])
        object.__setattr__(self, "passed_table", [])


def rec_target(algebra: FiniteAlgebra, system: EquationSystem) -> RecTarget:
    report = sat_check(algebra, system)
    if not report.satisfied:
        raise WorkbenchError(
            f"algebra does not satisfy the equations: {report.to_json()}"
        )
    return RecTarget(algebra, system, report)


def _validate_target(state: QWState, target: RecTarget) -> None:
    """Recursion is only well defined into a satisfying algebra; the proof
    is re-checked on use so a tweaked interpretation is caught.  Each use
    evaluates the operations on the target's cells, tabulated once, and runs
    ``sat_check`` again only when those values differ from the ones that
    last passed.  Where there would be more cells than ``sat_check`` has
    environments, or than its budget, ``sat_check`` runs on every use."""
    if target.system != state.system:
        raise StaleProofError("target was built for a different equation system")
    if not target.sat_report.satisfied:
        raise StaleProofError("target carries a violated satisfaction report")
    if not target.cells:
        target.cells.append(_operation_cells(target.algebra, target.system, ENV_BUDGET))
    cells = target.cells[0]
    table = None if cells is None else _operation_table(target.algebra, cells)
    if table is not None and target.passed_table == [table]:
        return
    fresh = sat_check(target.algebra, target.system)
    if not fresh.satisfied:
        raise StaleProofError(
            f"satisfaction no longer holds: {fresh.to_json()}"
        )
    target.passed_table[:] = [] if table is None else [table]


def _operation_cells(algebra: FiniteAlgebra, system: EquationSystem, budget: int) -> list | None:
    """Every operator layer over the carrier, probed at the system's depth, as
    ``(op, branches)``: all ``sat_check`` reads.  None where they outnumber
    ``sat_check``'s environments or ``budget``."""
    cells = min(instance_count(system, len(algebra.carrier)), budget)
    try:
        layers = budgeted_opnodes(system.signature, algebra.carrier, system.probe, cells)
    except BudgetExceededError:
        return None
    return [(s.op, s.branches) for s in layers]


def _operation_table(algebra: FiniteAlgebra, cells: list) -> tuple | None:
    """The algebra's value on each cell, or None where an operation is undefined
    or leaves the carrier, so that ``sat_check`` judges every use."""
    try:
        values = tuple([_interp(algebra, op, branches) for op, branches in cells])
    except WorkbenchError:
        return None
    return values if all(v in algebra.carrier for v in values) else None


def _values(
    state: QWState,
    leaf: Callable[[str, Any], Any],
    step: Callable[[str, Any], Any],
    gen_env: Mapping | None,
    classes: Iterable[ClassId] | None = None,
) -> dict[int, Any]:
    """The one fold that values classes: a stale state is saturated, then
    every class is valued, or given ``classes`` those and the classes
    their representatives are built from (:meth:`QWState.fold`).  A
    generator leaf takes ``leaf(name, value)``, its value given in
    ``gen_env``; an operator layer takes ``step(op, values)``."""
    if state.stale:
        state.saturate()
    env = dict(gen_env) if gen_env else {}

    def lookup(name: str) -> Any:
        try:
            value = env[name]
        except KeyError:
            raise UnboundVariableError(
                f"variable {name!r} outside the environment"
            ) from None
        return leaf(name, value)

    roots = None if classes is None else [state.canonical(c).index for c in classes]
    return state.fold(lookup, step, roots)


def _given(name: str, value: Any) -> Any:
    """Recursion's leaf: a generator's value as given."""
    return value


def qw_rec(
    state: QWState,
    target: RecTarget,
    c: ClassId,
    *,
    gen_env: Mapping | None = None,
) -> Any:
    """Recurse from a class into the target algebra: its representative
    evaluated, folding only the classes that representative is built
    from."""
    _validate_target(state, target)
    values = _values(state, _given, partial(_interp, target.algebra), gen_env, (c,))
    return values[state.canonical(c).index]


class FragmentHomReport(Record):
    def __init__(self, ok: bool, counterexample=None, checked=0, skipped=0, generator=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "counterexample", counterexample)  # an OpNode
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "skipped", skipped)
        object.__setattr__(self, "generator", generator)  # a generator's name

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "verdict": "ok" if self.ok else "counterexample",
            "checked": self.checked,
            "skipped": self.skipped,
        }
        if self.counterexample is not None:
            out.update(_layer_json(self.counterexample))
        if self.generator is not None:
            out["generator"] = self.generator
        return out


def _layer_json(s: OpNode) -> dict:
    """A counterexample layer: its operator and its branches' class indexes."""
    return {"operator": s.op, "branches": branches_to_json(s.branches, lambda c: c.index)}


def _fragment(state: QWState, classes: Iterable[ClassId] | None) -> tuple[ClassId, ...]:
    """Saturate a stale state, then return the given classes, or every root."""
    if state.stale:
        state.saturate()
    return tuple(classes) if classes is not None else state.roots()


def _handles(state: QWState, fragment: tuple[ClassId, ...]) -> dict[int, ClassId]:
    """Each class root of the fragment with its first handle, in fragment order."""
    handle: dict[int, ClassId] = {}
    for c in fragment:
        handle.setdefault(state._live_root(c), c)
    return handle


def _law_walk(
    state: QWState,
    fragment: tuple[ClassId, ...],
    values: Callable[[], Mapping[int, Any]],
    step: Callable[[OpNode, Any], Any],
) -> tuple[OpNode | None, int, int]:
    """The algebra-map law on each operator layer over the fragment, in
    :func:`terms.enumerate_opnodes` order: ``step(layer, branch_values)``
    equals the value of the layer's introduction, with ``values()`` giving
    each class root's value.  The fragment is a set of classes, each
    reported by its first handle.  Only the layers the carrier stores are
    built: those in the operator index with a valued class, children in the
    fragment and a countable table below the probe.  The rest have no
    interned introduction and are counted as skipped, so the walk costs
    what the carrier holds; a stored table past the probe is no layer over
    the fragment, and :func:`_unranked` reads it.  Returns the first layer
    that breaks the law, or None, with the layers checked and skipped
    (before it, if it breaks)."""
    vals = values()
    handle = _handles(state, fragment)
    pos = {r: i for i, r in enumerate(handle)}
    n, probe, index = len(pos), state.probe, state._enodes()
    found, base = [], 0
    for op, arity in state.signature.ops:
        for root, layers in index[op].items():
            for kids in layers if root in vals else ():
                if kids.__class__ is not tuple and kids.support()[-1:] >= (probe,):
                    continue  # a table entry past the probe
                at = probe_key(kids, probe)[1:]
                if all(x in pos for x in at):
                    rank = sum(pos[x] * n**k for k, x in enumerate(reversed(at)))
                    found.append((base + rank, root, op, kids))
        base += n ** arity.width(probe)
    found.sort()
    for checked, (rank, root, op, kids) in enumerate(found, 1):
        s = OpNode(op, map_branches(handle.__getitem__, kids))
        if step(s, map_branches(vals.__getitem__, kids)) != vals[root]:
            return s, checked, rank + 1 - checked
    return None, len(found), count_opnodes(state.signature, n, probe) - len(found)


def check_rec_hom(
    state: QWState,
    target: RecTarget,
    *,
    classes: Iterable[ClassId] | None = None,
    gen_env: Mapping | None = None,
) -> FragmentHomReport:
    """Check the algebra-map law on every member of the fragment's classes:
    stepping in the algebra after recursing equals recursing from the
    introduced class.  First every operator layer over the fragment
    (:func:`_law_walk`): layers whose introduction is not interned are
    skipped, and counted without being built; a fresh singleton class would
    evaluate to exactly the stepped value, so the content of the check
    lives on merged classes.  Then, uncounted, the members no such layer is
    (:func:`_unranked`).  The walks read what the carrier stores, so they
    have no layer budget.

    Evaluation here is deliberately ungated so a corrupted target shows up
    as a counterexample rather than a refusal."""
    fragment = _fragment(state, classes)
    step = partial(_interp, target.algebra)
    vals = _values(state, _given, step, gen_env)
    broken, checked, skipped = _law_walk(
        state, fragment, lambda: vals, lambda s, kids: step(s.op, kids)
    )
    if broken is None:
        broken = _unranked(state, _handles(state, fragment), vals, gen_env or {}, step)
    if broken.__class__ is str:
        return FragmentHomReport(False, None, checked, skipped, broken)
    return FragmentHomReport(broken is None, broken, checked, skipped)


def _unranked(state: QWState, handle: dict, vals: Mapping, env: Mapping, step: Callable) -> Any:
    """The law on the members of the fragment's classes that no layer over
    the fragment is: a generator leaf has its given value, if it has one,
    and a stored countable layer with a table entry past the probe and its
    children in the fragment steps to its class's value.  Returns the first
    generator's name or layer that breaks it, or None."""
    for root, c in handle.items() if state.generators else ():
        for p in state.members(c):
            if p.__class__ is GenLeaf and env.get(p.name, vals[root]) != vals[root]:
                return p.name
    index = state._enodes()
    for op in [op for op, arity in state.signature.ops if arity.is_omega]:
        for root in handle:
            for kids in index[op].get(root, ()):
                if (
                    kids.support()[-1:] >= (state.probe,)
                    and all(x in handle for x in branch_values(kids))
                    and step(op, map_branches(vals.__getitem__, kids)) != vals[root]
                ):
                    return OpNode(op, map_branches(handle.__getitem__, kids))
    return None


class UniqReport(Record):
    def __init__(self, ok: bool, premise_counterexample=None, conclusion_counterexample=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "premise_counterexample", premise_counterexample)
        object.__setattr__(self, "conclusion_counterexample", conclusion_counterexample)

    @property
    def premise_ok(self) -> bool:
        return self.premise_counterexample is None

    def to_json(self) -> dict:
        if self.ok:
            return {"verdict": "ok"}
        if self.premise_counterexample is not None:
            return {"verdict": "premise-counterexample", **_layer_json(self.premise_counterexample)}
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
) -> UniqReport:
    """If ``h`` is an algebra map on the fragment it must agree with
    recursion pointwise.  Premise failures (h is not a map) are reported
    separately from conclusion failures (h is a map but differs).  Two
    handles of one class with different values are refused, since ``h`` is
    then no function on the carrier."""
    _validate_target(state, target)
    hmap: dict[int, Any] = {}
    for c in _fragment(state, h):
        i = state.canonical(c).index
        if hmap.setdefault(i, h[c]) != h[c]:
            raise WorkbenchError(
                f"the map gives class {i} two values, {hmap[i]!r} and {h[c]!r}"
            )
    broken, _, _ = _law_walk(
        state, tuple(ClassId(i) for i in sorted(hmap)), lambda: hmap,
        lambda s, kids: _interp(target.algebra, s.op, kids),
    )
    if broken is not None:
        return UniqReport(False, premise_counterexample=broken)
    values = _values(state, _given, partial(_interp, target.algebra), gen_env)
    for i in sorted(hmap):
        if hmap[i] != values[i]:
            return UniqReport(False, conclusion_counterexample=ClassId(i))
    return UniqReport(True)


class CoherenceReport(Record):
    def __init__(self, ok: bool, eq_name: str | None = None, reason: str | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "eq_name", eq_name)
        object.__setattr__(self, "reason", reason)

    def to_json(self) -> dict:
        if self.ok:
            return {"verdict": "ok"}
        return {"verdict": "failed", "equation": self.eq_name, "reason": self.reason}


class DepTarget(Record):
    """A dependent elimination target: a family of finite value sets over
    classes and a step producing a value over every introduced class, with
    its verified coherence premise."""

    def __init__(self, family: Callable, step: Callable, coherence: CoherenceReport):
        object.__setattr__(self, "family", family)  # ClassId -> tuple of values
        object.__setattr__(self, "step", step)  # (op, branches, values) -> value
        object.__setattr__(self, "coherence", coherence)


def check_coherence(
    state: QWState,
    family: Callable[[ClassId], tuple],
    step: Callable[[str, Any, Any], Any],
    *,
    classes: Iterable[ClassId] | None = None,
) -> CoherenceReport:
    """The dependent analogue of satisfaction: for every equation and every
    assignment of (class, value) pairs to its variables, lifting the two
    sides by :func:`_lift` gives provably equal indices and equal values in
    the common fiber.  The walk and its budget are ``check_equations_hold``'s."""
    # each option keeps its class root, for the layers' canonical keys
    options = [
        (c, state._live_root(c), v) for c in _fragment(state, classes) for v in family(c)
    ]
    lift = partial(_lift, state, family=family, step=step)
    failed = _carrier_walk(state, options, lift, ENV_BUDGET)
    if failed is None:
        return CoherenceReport(True)
    name, _, reason = failed
    return CoherenceReport(False, name, reason)


def _lift(
    state: QWState,
    side: _Side,
    env: tuple,
    family: Callable[[ClassId], tuple],
    step: Callable[[str, Any, Any], Any],
) -> tuple[int, Any]:
    """Dependent evaluation of a compiled side under an environment of
    ``(class, root, value)`` options: the side's term folded into the
    algebra of triples (:func:`_pair`), interning each layer, with each
    leaf's value checked against its fiber.  Returns the side's class root
    and value."""

    return fold_term(
        side.term,
        lambda slot: _fiber_leaf(family, env[slot]),
        partial(_pair, state, family, step, True),
    )[1:]


def _fiber_leaf(family: Callable[[ClassId], tuple], triple: tuple) -> tuple:
    """A leaf of the algebra of triples: its value must lie in the fiber
    over its class."""
    c, _, v = triple
    if v not in family(c):
        raise FiberMismatchError(f"leaf value {v!r} outside the fiber over {c!r}")
    return triple


def _pair(
    state: QWState,
    family: Callable[[ClassId], tuple],
    step: Callable[[str, Any, Any], Any],
    intern: bool,
    op: str,
    kids: Any,
) -> tuple[ClassId, int, Any]:
    """The step of the algebra of ``(class, root, value)`` triples that
    coherence and elimination share: the layer ``op`` over the children's
    roots is found by its canonical key, a new class when ``intern`` is
    set, and ``step(op, classes, values)`` must land in the fiber over it."""
    if kids.__class__ is tuple:
        idxs, at, vals = zip(*kids) if kids else ((), (), ())
    else:
        idxs, at, vals = (map_branches(itemgetter(i), kids) for i in range(3))
    root = state._layer(op, at, intern)
    if root is None:
        raise WorkbenchError("representative layer unexpectedly not interned")
    idx = ClassId(root)
    val = step(op, idxs, vals)
    if val not in family(idx):
        raise FiberMismatchError(
            f"step value {val!r} outside the fiber over {idx!r} at {op!r}"
        )
    return idx, root, val


def dep_target(
    state: QWState,
    family: Callable[[ClassId], tuple],
    step: Callable[[str, Any, Any], Any],
    *,
    classes: Iterable[ClassId] | None = None,
) -> DepTarget:
    report = check_coherence(state, family, step, classes=classes)
    if not report.ok:
        raise CoherenceError(f"coherence premise failed: {report.to_json()}")
    return DepTarget(family, step, report)


def constant_target(equations: CarrierSatReport) -> DepTarget:
    """Elimination into the constant family ``("*",)``.  Its coherence
    premise is that the equations hold on the carrier, which the report of
    ``check_equations_hold`` over the same classes settles: the values
    never differ, so a failure is always a pair of unequal sides."""
    if not equations.ok:
        report = CoherenceReport(False, equations.eq_name, UNEQUAL_SIDES)
        raise CoherenceError(f"coherence premise failed: {report.to_json()}")
    return DepTarget(lambda c: ("*",), lambda op, idxs, vals: "*", CoherenceReport(True))


def _elim_values(
    state: QWState,
    dep: DepTarget,
    gen_env: Mapping | None,
    classes: Iterable[ClassId] | None = None,
) -> dict[int, Any]:
    """Elimination as recursion into the algebra of (class, root, value)
    triples (:func:`_pair`): each leaf's and each step's value is checked
    against the fiber over its class, as in the coherence walk, and each
    folded class's first projection against the class itself.  The fold's
    classes are roots, and every saturation exit leaves the memo's keys
    canonical, so each layer is found."""
    if not dep.coherence.ok:
        raise CoherenceError("refusing elimination: coherence premise not verified")

    def leaf(name: str, value: Any) -> tuple[ClassId, int, Any]:
        c = state.intern_term(Var(name))
        return _fiber_leaf(dep.family, (c, c.index, value))

    step = partial(_pair, state, dep.family, dep.step, False)
    memo: dict[int, Any] = {}
    for root, (idx, _, val) in _values(state, leaf, step, gen_env, classes).items():
        if idx.index != root:
            raise WorkbenchError("first projection of the pair recursion left its class")
        memo[root] = val
    return memo


def qw_elim(
    state: QWState,
    dep: DepTarget,
    c: ClassId,
    *,
    gen_env: Mapping | None = None,
) -> Any:
    """Dependent elimination: a value in the fiber over the class, computed
    through the algebra on (class, value) pairs, folding only the classes
    the class's representative is built from.  The index component is
    checked to land back in the class it started from."""
    values = _elim_values(state, dep, gen_env, (c,))
    return values[state.canonical(c).index]


class CompReport(Record):
    def __init__(self, ok: bool, counterexample: OpNode | None = None, checked: int = 0):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "checked", checked)

    def to_json(self) -> dict:
        out: dict[str, Any] = {"verdict": "ok" if self.ok else "counterexample", "checked": self.checked}
        if self.counterexample is not None:
            out.update(_layer_json(self.counterexample))
        return out


def check_comp(
    state: QWState,
    dep: DepTarget,
    *,
    classes: Iterable[ClassId] | None = None,
    gen_env: Mapping | None = None,
) -> CompReport:
    """The computation rule as a decided equality: eliminating an introduced
    class gives exactly the step applied to the branchwise eliminations."""
    broken, checked, _ = _law_walk(
        state, _fragment(state, classes),
        lambda: _elim_values(state, dep, gen_env),
        lambda s, kids: dep.step(s.op, s.branches, kids),
    )
    return CompReport(broken is None, broken, checked)
