"""Staged quotient construction of the initial algebra for a system of equations.

The carrier is built as classes of interned term layers.  Interning is
eager: a leaf over an existing class is that class, and nested term layers
are flattened bottom up, so every stored payload is either a generator
leaf or a single operator layer over earlier classes.  Saturation rounds
instantiate equations over existing classes (driven by matching, so an
environment fires once one side's instance is present), merge the two
sides, and restore congruence.  Rounds are semi-naive: an equation is
matched only near the classes touched since the last completed round
began, a round that has merged nothing skips the environments the round
before it made, and a call at a fixpoint returns at once; the merge log
is the one full rounds make.  Congruence upkeep is incremental too: each
class keeps a use list of the operator payloads over it, a merge marks the
losing class's users stale, and the rebuild re-keys only those, in payload
order, making the merges that passes over every payload would.  Each equation
is compiled once per state into a plan: each side's match is a join, nested
loops over one relation per head operator that maps a class to its
distinct canonical e-nodes (operator layers over canonical child classes,
congruent duplicates collapsed), refreshed only for the classes touched
since it was last read; a side's instance is interned layer by layer from
canonical keys.  A variable the matched side leaves unbound ranges over
the classes as a lexicographic product, and the products are merged
lazily in order, so a round takes at most one environment past its
instance budget.  Every merge is recorded in a proof forest whose edges
carry their justification, and an independent replay validator re-derives
the whole merge log with its own scan over the payloads.

Stages are the concrete counterpart of the construction's ordinal
indexing: a class's stage is the least nesting depth among its members,
and the round budget plays the role of the stage cutoff.  Stages, keys and
each class's canonical layer are an e-class analysis kept on the state,
over the matcher's operator index: a read first refreshes the index, then
weighs the classes it refreshed over their canonical layers there, and
since a new payload or a merge can only lower these values, only the
classes whose values fall pass the change to their users.  Folds run
over the canonical layers: a representative is the fold into the term
algebra, and recursion the fold into the target algebra.  Saturation
reports budget exhaustion as a normal outcome; equality answers are only
ever "proved" or "unknown".
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import Any, Callable, Iterable, Iterator

from .equations import ENV_BUDGET, EquationSystem, instances, sat_check
from .errors import (
    BudgetExceededError,
    FiberMismatchError,
    ReplayError,
    UnboundVariableError,
    WorkbenchError,
)
from .terms import (
    FiniteAlgebra,
    Node,
    OmegaTable,
    OpNode,
    Record,
    Signature,
    Term,
    Var,
    branch_pairs,
    branch_values,
    branches_to_json,
    check_branches,
    enumerate_opnodes,
    eval_alg,
    fold_term,
    map_branches,
    node_key,
    probe_key,
    table_algebra,
    term_algebra,
    term_key,
    term_to_json,
    term_vars,
    validate_term,
)


class ClassId(Record):
    """Opaque handle for a carrier class."""

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class GenLeaf(Record):
    """Payload of a generator leaf (free-algebra mode)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class ENode(Record):
    """Payload of one operator layer over earlier classes.  Branch values
    are raw class indexes as seen at creation time; lookups canonicalise
    through the union-find."""

    __slots__ = ("op", "branches")

    def __init__(self, op: str, branches: Any):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "branches", branches)  # tuple[int, ...] | OmegaTable of int


Payload = Any  # GenLeaf | ENode


class Justification(Record):
    def __init__(self, kind: str, equation: str | None = None, env: tuple[int, ...] | None = None):
        object.__setattr__(self, "kind", kind)  # "sqeq" | "cong"
        object.__setattr__(self, "equation", equation)
        object.__setattr__(self, "env", env)

    def to_json(self) -> dict:
        out: dict[str, Any] = {"tag": self.kind}
        if self.equation is not None:
            out["equation"] = self.equation
        if self.env is not None:
            out["environment"] = list(self.env)
        return out


class ProofStep(Record):
    def __init__(self, lhs: int, rhs: int, justification: Justification):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "justification", justification)

    def to_json(self) -> dict:
        return {"from": self.lhs, "to": self.rhs, **self.justification.to_json()}


class Decision(Record):
    def __init__(self, proved: bool, steps: tuple[ProofStep, ...] = ()):
        object.__setattr__(self, "proved", proved)
        object.__setattr__(self, "steps", steps)

    def to_json(self) -> dict:
        if not self.proved:
            return {"verdict": "unknown"}
        return {"verdict": "proved", "derivation": [s.to_json() for s in self.steps]}


class SaturationResult(Record):
    def __init__(self, fixpoint: bool, rounds: int, merges: int, new_classes: int):
        object.__setattr__(self, "fixpoint", fixpoint)
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "merges", merges)
        object.__setattr__(self, "new_classes", new_classes)

    def to_json(self) -> dict:
        return {
            "outcome": "fixpoint" if self.fixpoint else "budget-exhausted",
            "rounds": self.rounds,
            "merges": self.merges,
            "new_classes": self.new_classes,
        }


class QWState:
    """Single-owner mutable store for one staged quotient construction."""

    def __init__(
        self,
        signature: Signature,
        system: EquationSystem,
        *,
        generators: Iterable[str] = (),
        max_rounds: int = 40,
        max_instances: int = 200_000,
    ):
        if system.signature != signature:
            raise WorkbenchError("equation system was built over a different signature")
        self.signature = signature
        self.system = system
        self.probe = system.probe
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise WorkbenchError("duplicate generator names")
        for g in self.generators:
            if signature.has_op(g):
                raise WorkbenchError(f"generator {g!r} clashes with an operator name")
        self.max_rounds = max_rounds
        self.max_instances = max_instances
        # each equation's plan by name, each distinct side compiled once; a
        # round visits one plan per unordered pair of distinct sides, the
        # first by name: a tautology or a repeat (mirrored or not) adds nothing
        side = functools.cache(_Side)
        self._plans = {
            e.name: _Plan(e, side) for e in sorted(system.equations, key=lambda e: e.name)
        }
        rules: dict[frozenset, _Plan] = {}
        for plan in self._plans.values():
            if plan.lhs is not plan.rhs:
                rules.setdefault(frozenset((plan.lhs, plan.rhs)), plan)
        self._rules = tuple(rules.values())
        self._parent: list[int] = []
        self._rank: list[int] = []
        self._payloads: list[Payload] = []
        self._members: dict[int, list[int]] = {}
        self._memo: dict[Any, int] = {}
        # the key each payload was last filed under, each class root's use
        # list (the operator payloads with a child in the class), and the
        # payloads whose key a merge has made stale since the last rebuild
        self._keys: list[Any] = []
        self._uses: dict[int, list[int]] = {}
        self._pending: list[int] = []
        self._proof: dict[int, tuple[int, Justification]] = {}
        self._log: list[tuple] = []
        # the version (log length) at which the last call finished, and at
        # which it reached a fixpoint, and the log position at the start of
        # the last round that ran to its end
        self._saturated_version = 0
        self._fixpoint_version = -1
        self._mark = 0
        # per rule, the environments the last round that ran pulled, as
        # canonical when pulled
        self._made: list[set[tuple[int, ...]]] = [set() for _ in self._rules]
        # the e-class analysis per class root (stage, representative key,
        # chosen layer as operator or generator name and child roots),
        # refreshed at the next ``_analysis()`` from the classes that
        # ``_enodes()`` has refreshed since
        self._stage: dict[int, int] = {}
        self._key: dict[int, tuple] = {}
        self._chosen: dict[int, tuple[str, Any]] = {}
        self._unanalysed: dict[int, None] = {}
        # the operator index (a relation per head operator), and the
        # payloads whose class entries it must refresh at the next
        # ``_enodes()``: each new payload and those a merge touches
        self._index: dict[str, dict[int, dict[Any, None]]] = {
            name: {} for name in signature.names()
        }
        self._unindexed: list[int] = []

    # -- union-find ---------------------------------------------------------

    def _find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def _union(self, a: int, b: int, just: Justification) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        self._proof_link(a, b, just)
        self._log.append(("merge", a, b, just))
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._members[ra].extend(self._members.pop(rb))
        users = self._uses.pop(rb, None)
        if users:
            self._uses.setdefault(ra, []).extend(users)
            self._pending.extend(users)
            self._unindexed.extend(users)
        self._unindexed.append(rb)
        return True

    def _proof_link(self, a: int, b: int, just: Justification) -> None:
        # reverse the path from a to its proof root, then hang a under b
        path = []
        cur = a
        while cur in self._proof:
            nxt, j = self._proof[cur]
            path.append((cur, nxt, j))
            cur = nxt
        for x, y, j in path:
            self._proof.pop(x, None)
        for x, y, j in path:
            self._proof[y] = (x, j)
        self._proof[a] = (b, just)

    # -- interning ----------------------------------------------------------

    def _canon_branches(self, branches: Any) -> Any:
        if isinstance(branches, OmegaTable):
            find = self._find
            default = find(branches.default)
            entries = sorted((i, r) for i, v in branches.entries if (r := find(v)) != default)
            return ("w", tuple(entries), default)
        return tuple(map(self._find, branches))

    def _canon_key(self, payload: Payload) -> Any:
        if isinstance(payload, GenLeaf):
            return ("g", payload.name)
        return ("n", payload.op, self._canon_branches(payload.branches))

    def _add(self, payload: Payload) -> int:
        key = self._canon_key(payload)
        hit = self._memo.get(key)
        if hit is not None:
            return self._find(hit)
        return self._new(key)

    def _new(self, key: Any) -> int:
        """Store the payload of a canonical key the memo lacks, as a new class."""
        idx = len(self._payloads)
        if key[0] == "g":
            stored = GenLeaf(key[1])
        else:
            stored = ENode(key[1], _branch_map(key[2]))
            for child in dict.fromkeys(branch_values(stored.branches)):
                self._uses.setdefault(child, []).append(idx)
        self._payloads.append(stored)
        self._parent.append(idx)
        self._rank.append(0)
        self._members[idx] = [idx]
        self._memo[key] = idx
        self._keys.append(key)
        self._unindexed.append(idx)
        self._log.append(("intern", idx, stored))
        return idx

    def _layer(self, op: str, roots: Any, intern: bool) -> int | None:
        """The class of the operator layer ``op`` over a branch map of class
        roots, found by its canonical key.  A key the memo lacks is a new
        class when ``intern`` is set, else None."""
        key = ("n", op, roots if roots.__class__ is tuple else self._canon_branches(roots))
        hit = self._memo.get(key)
        if hit is not None:
            return self._find(hit)
        return self._new(key) if intern else None

    def _intern(self, t: Term) -> int:
        """The class of a closed term, interned in post-order: a node's
        branch map is checked, its children interned left to right (a
        countable map's entries, then its default), then its layer.  The
        walk keeps its own stack, where a ``None`` above a node marks its
        children done, so no term is too deep for it."""
        roots: list[int] = []
        todo: list = [t]
        while todo:
            t = todo.pop()
            if t is None:
                t = todo.pop()
                b = t.branches
                if isinstance(b, OmegaTable):
                    cut = len(roots) - len(b.entries) - 1
                    kids = OmegaTable(tuple(zip(b.support(), roots[cut:])), roots[-1])
                else:
                    cut = len(roots) - len(b)
                    kids = tuple(roots[cut:])
                del roots[cut:]
                roots.append(self._layer(t.op, kids, True))
            elif isinstance(t, Var):
                if isinstance(t.name, ClassId):
                    roots.append(self._live_root(t.name))
                elif t.name in self.generators:
                    roots.append(self._add(GenLeaf(t.name)))
                else:
                    raise UnboundVariableError(f"unknown generator {t.name!r}")
            else:
                b = t.branches
                check_branches(self.signature, t.op, b)
                todo.append(t)
                todo.append(None)
                todo += b[::-1] if b.__class__ is tuple else [*b.values()][::-1]
        return roots[0]

    def _live_root(self, c: ClassId) -> int:
        if not isinstance(c, ClassId) or not 0 <= c.index < len(self._payloads):
            raise WorkbenchError(f"stale class handle {c!r}")
        return self._find(c.index)

    def intern_term(self, t: Term) -> ClassId:
        """Intern a closed term (leaves may be declared generators or
        existing classes) and return its class.  Idempotent."""
        return ClassId(self._intern(t))

    def qw_intro(self, s: OpNode) -> ClassId:
        """The algebra step on the carrier: one operator layer over classes."""
        check_branches(self.signature, s.op, s.branches)
        return ClassId(self._layer(s.op, map_branches(self._live_root, s.branches), True))

    def lookup_intro(self, s: OpNode) -> ClassId | None:
        """Class of an operator layer if it is already interned, else None.
        Never creates classes."""
        check_branches(self.signature, s.op, s.branches)
        hit = self._layer(s.op, map_branches(self._live_root, s.branches), False)
        return None if hit is None else ClassId(hit)

    # -- views --------------------------------------------------------------

    @property
    def class_count(self) -> int:
        return len(self._members)

    def roots(self) -> tuple[ClassId, ...]:
        return tuple(ClassId(r) for r in sorted(self._members))

    def members(self, c: ClassId) -> tuple[Payload, ...]:
        return tuple(self._payloads[i] for i in self._members[self._live_root(c)])

    def same_class(self, a: ClassId, b: ClassId) -> bool:
        return self._live_root(a) == self._live_root(b)

    @property
    def version(self) -> int:
        """Counts new payloads and merges, the log's entries; saturation's
        fixpoint and staleness are judged on it."""
        return len(self._log)

    @property
    def stale(self) -> bool:
        """Whether payloads or merges arrived after the last ``saturate()``
        finished."""
        return len(self._log) != self._saturated_version

    def stage_of(self, c: ClassId) -> int:
        root = self._live_root(c)
        self._analysis()
        return self._stage[root]

    def coerce(self, c: ClassId, stage: int) -> ClassId:
        """Stage coercion is the identity on payloads; only upward moves
        are meaningful."""
        if stage < self.stage_of(c):
            raise WorkbenchError(
                f"cannot coerce class at stage {self.stage_of(c)} down to {stage}"
            )
        return c

    @property
    def log(self) -> tuple[tuple, ...]:
        return tuple(self._log)

    # -- congruence ---------------------------------------------------------

    def _rebuild(self) -> int:
        """Restore congruence: merge classes whose payloads' canonical keys
        collide.  Returns the number of merges.

        Only the payloads a merge made stale (the users of the losing
        class) are re-keyed, popped in payload order, with the merges and
        log of passes that re-key every payload in order until one merges
        nothing.  A payload whose new key a later payload owns takes the
        key and queues that owner, which then collides with it; a merge
        re-keys the losing class's users after the current payload in this
        pass and the others in the next, as a full pass would.  Afterwards
        ``_memo`` holds each current key under the first payload with it."""
        merges = 0
        memo, keys, payloads, stale = self._memo, self._keys, self._payloads, self._pending
        while stale:
            todo = sorted(set(stale))  # this pass, as a heap
            stale.clear()
            later: list[int] = []
            last = -1
            while todo:
                idx = heapq.heappop(todo)
                if idx == last:
                    continue
                last = idx
                if memo.get(keys[idx]) == idx:
                    del memo[keys[idx]]
                key = keys[idx] = self._canon_key(payloads[idx])
                other = memo.get(key)
                if other is None or other > idx:
                    memo[key] = idx
                    if other is not None:
                        heapq.heappush(todo, other)
                elif self._find(other) != self._find(idx):
                    self._union(other, idx, Justification("cong"))
                    merges += 1
                    for user in stale:
                        if user > idx:
                            heapq.heappush(todo, user)
                        else:
                            later.append(user)
                    stale.clear()
            stale.extend(later)
        return merges

    # -- matching and saturation ---------------------------------------------

    def _enodes(self) -> dict[str, dict[int, dict[Any, None]]]:
        """One relation per head operator, ``op -> root -> layers``: each
        class root's distinct canonical operator layers with that head, as
        branch maps of child roots.  Congruent duplicates among a class's
        payloads collapse to one layer, and a countable map drops entries
        whose class is the default's.

        The index is refreshed in place, here only, for the classes touched
        since the last call: those that gained a payload or a member, or
        hold a layer over a class that lost its root.  Interning files every
        new payload as touched, so the first call fills the index by the
        same refresh.  The refreshed roots, and the roots that lost their
        root, are queued for the next ``_analysis()``."""
        index = self._index
        todo = {self._find(i) for i in self._unindexed}
        # classes that lost their root, and those refreshed below, leave
        # every relation
        for i in todo.union(self._unindexed):
            for rel in index.values():
                rel.pop(i, None)
            self._unanalysed[i] = None
        self._unindexed.clear()
        for root in todo:
            for mid in self._members[root]:
                p = self._payloads[mid]
                if p.__class__ is ENode:
                    canon = _branch_map(self._canon_branches(p.branches))
                    index[p.op].setdefault(root, {})[canon] = None
        return index

    def _near(self, touched: set[int], height: int) -> set[int]:
        """The class roots at most ``height`` parent steps above a touched
        class: where a pattern that tall may match anew.  A root's parent
        classes are the classes of the payloads in its use list."""
        near = set(touched)
        frontier = touched
        for _ in range(height):
            frontier = {
                self._find(u) for c in frontier for u in self._uses.get(c, ())
            } - near
            if not frontier:
                break
            near |= frontier
        return near

    def _instance_envs(
        self,
        plan: _Plan,
        roots: list[int],
        index: dict,
        touched: _Touched | None = None,
        after: tuple[int, ...] | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Environments worth instantiating, ascending and each once: those
        under which at least one side's instance already exists in
        ``index`` (an ``_enodes()``), completed over ``roots`` for the
        variables the matched side does not bind.  Given ``after``, the
        same stream resumed past it: the environments up to ``after`` are
        skipped.

        Each side's join runs at once over the relation of its head, at the
        keys that were among ``roots`` (those up to the last of them: later
        classes are new since ``roots`` was taken).  Completions are not
        built: each match gives one lexicographic product over the roots at
        its unbound variables, and the products are merged lazily, so a
        caller that stops early pays for what it took.

        Given ``touched``, the classes changed since the last completed
        round began, only environments that involve a change are kept.  A
        side is matched anew at the roots near a touched class (within the
        equation's height above one; a bare variable at a touched class),
        and those matches complete over all roots; a match elsewhere
        completes only over combinations holding a root of a touched class.
        Every environment left out was instantiated in that round over the
        same canonical layers."""
        last = roots[-1] if roots else -1
        zone = None if touched is None else touched.near(plan.height)
        complete: set[tuple[int, ...]] = set()
        products: list[list] = []
        for side in (plan.lhs, plan.rhs):
            k = len(side.missing)
            # whether a match away from the zone completes over combinations
            # holding a touched root
            widen = k > 0 and touched is not None and len(touched.hot) > 0
            if side.head is None:
                # a bare variable matches at every root, anew at a touched one
                near = [[roots if touched is None else touched.hot]]
                away = [[touched.cold]] if widen else []
            else:
                rel = index[side.head]
                fresh = [r for r in rel if r <= last and (zone is None or r in zone)]
                found: set = set()
                side.join(index, fresh, found)
                if not k:
                    complete |= found
                    continue
                rest: set = set()
                if widen:
                    side.join(index, [r for r in rel if r <= last and r not in zone], rest)
                near = [[(v,) for v in m] for m in found]
                away = [[(v,) for v in m] for m in rest - found]
            for bound in near:
                products.append(side.domains(bound, [roots] * k))
            for bound in away:
                # each combination holding a touched root, once: the first
                # position that holds one takes it, earlier ones the others
                for i in range(k):
                    tail = [touched.cold] * i + [touched.hot] + [roots] * (k - 1 - i)
                    products.append(side.domains(bound, tail))
        envs = iter(sorted(complete))
        if products:
            runs = [itertools.product(*domains) for domains in products]
            envs = (env for env, _ in itertools.groupby(heapq.merge(envs, *runs)))
        return envs if after is None else itertools.dropwhile(after.__ge__, envs)

    def _instantiate(self, side: _Side, env: tuple[int, ...]) -> int:
        """Intern a side's instance under an environment of class roots:
        its layers bottom up, each looked up by its canonical key, making
        the ``_add`` calls of interning the instance term.  Every slot holds
        a class root, so a key is read off the slots: a countable layer's
        entries, in index order since the side was compiled, leave out
        those whose root is the default's."""
        memo, find = self._memo, self._find
        vals = list(env)
        # _layer inlined: a call per layer cost bag3-enumerate 4-5% (Python 3.11, 2 cores)
        for op, kids in side.layers:
            if kids.__class__ is tuple:
                key = ("n", op, tuple([vals[k] for k in kids]))
            else:
                d = vals[kids.default]
                entries = tuple([(i, vals[k]) for i, k in kids.entries if vals[k] != d])
                key = ("n", op, ("w", entries, d))
            hit = memo.get(key)
            vals.append(self._new(key) if hit is None else find(hit))
        return vals[side.out]

    def saturate(self, *, max_rounds: int | None = None) -> SaturationResult:
        """Run saturation rounds to a fixpoint or the round budget.

        Each round instantiates equations over the classes existing at the
        round's start, merges the instantiated sides, and restores
        congruence.  A round keeps one rule per unordered pair of distinct
        sides, the first equation by name: a tautology or a repeat (mirrored
        or not) would merge nothing new.  A fixpoint means a full round
        produced no merge and no new class.

        The work is incremental and leaves the log as full rounds make it.
        A call at the version where the last one reached a fixpoint returns
        that idle round's result at once.  Each equation instantiates only
        the environments that involve a class touched (interned or merged)
        since the last completed round began; the rest would intern and
        merge nothing.  Should a merge move the root of an untouched class,
        the keys of the environments left out may change, and the equation
        finishes over all of them.  While a round has merged nothing, it
        skips the environments the round before it made, canonicalised at
        its start: the memo's keys are canonical then, so each layer of such
        an instance is found and its sides share a class.  Before its first
        merge a round pulls each environment once, so no other can repeat;
        after it the memo may be stale until the rebuild, and a repeat may
        intern a congruent duplicate, so the skipping stops for the round.
        Environments are streamed in ascending order from each equation's
        compiled plan, and ``max_instances`` counts the instances a round
        makes of the rules it keeps, a skipped one included, so a round
        takes at most one environment past its budget.  Every exit
        restores congruence first, a round stopped on its instance budget
        included, so the memo's keys are canonical whatever the outcome.
        """
        budget = self.max_rounds if max_rounds is None else max_rounds
        if budget >= 1 and len(self._log) == self._fixpoint_version:
            return SaturationResult(True, 1, 0, 0)
        merges = self._rebuild()
        before_all = len(self._payloads)
        find = self._find
        rounds = 0
        for rounds in range(1, budget + 1):
            round_merges = 0
            size_before = len(self._payloads)
            roots = sorted(self._members)
            start = len(self._log)
            instances = 0
            # the roots of the classes touched since the mark, kept canonical
            # as the round merges; None once that is every class
            changed: set[int] | None = set()
            seen, view = self._mark, None
            # each rule's environments of the round before, canonical now
            before = [{tuple(map(find, env)) for env in envs} for envs in self._made]
            self._made = [set() for _ in self._rules]
            for plan, done, made in zip(self._rules, before, self._made):
                index = self._enodes()
                if changed is not None and (view is None or seen != len(self._log)):
                    # the touched classes, and what is near them, move only
                    # with the log
                    changed = {self._find(r) for r in changed}
                    changed.update(self._find(e[1]) for e in self._log[seen:])
                    seen = len(self._log)
                    if len(changed) == len(self._members):
                        changed = None
                    view = None if changed is None else _Touched(self, changed, roots)
                touched = view
                old = len(self._payloads)
                envs = self._instance_envs(plan, roots, index, touched)
                while (raw := next(envs, None)) is not None:
                    instances += 1
                    if instances > self.max_instances:
                        # as saturated as budgeted, like the round-budget exit below
                        round_merges += self._rebuild()
                        self._saturated_version = len(self._log)
                        return SaturationResult(
                            False, rounds, merges + round_merges,
                            len(self._payloads) - before_all,
                        )
                    env = tuple(map(find, raw))
                    made.add(env)
                    if not round_merges and env in done:
                        # made the round before over the same canonical
                        # layers: it would intern and merge nothing
                        continue
                    lid = self._instantiate(plan.lhs, env)
                    rid = self._instantiate(plan.rhs, env)
                    lroot, rroot = find(lid), find(rid)
                    if lroot == rroot:
                        continue
                    self._union(lid, rid, Justification("sqeq", plan.name, env))
                    round_merges += 1
                    if touched is None:
                        continue
                    lost = lroot if self._parent[lroot] != lroot else rroot
                    if lost < old and lost not in touched.classes:
                        # an untouched class lost its root, so the keys of
                        # environments left out may be new: finish over all
                        envs = self._instance_envs(plan, roots, index, after=raw)
                        touched = None
            round_merges += self._rebuild()
            merges += round_merges
            self._mark = start
            if round_merges == 0 and len(self._payloads) == size_before:
                self._saturated_version = self._fixpoint_version = len(self._log)
                return SaturationResult(
                    True, rounds, merges, len(self._payloads) - before_all
                )
        # budget exhausted: the state is as saturated as budgeted; only new
        # interned material makes it stale again
        self._saturated_version = len(self._log)
        return SaturationResult(False, rounds, merges, len(self._payloads) - before_all)

    # -- equality -----------------------------------------------------------

    def decide_eq(self, a: ClassId, b: ClassId) -> Decision:
        """Proved with a replayable derivation, or a sound Unknown."""
        if self.stale:
            self.saturate()
        ra, rb = self._live_root(a), self._live_root(b)
        if ra != rb:
            return Decision(False)
        return Decision(True, tuple(self._explain(a.index, b.index)))

    def _explain(self, a: int, b: int) -> list[ProofStep]:
        seen: dict[int, int] = {}
        cur: int | None = a
        order = []
        while cur is not None:
            seen[cur] = len(order)
            order.append(cur)
            nxt = self._proof.get(cur)
            cur = nxt[0] if nxt else None
        cur = b
        back: list[ProofStep] = []
        while cur not in seen:
            nxt = self._proof.get(cur)
            if nxt is None:
                raise WorkbenchError("proof forest out of sync with union-find")
            back.append(ProofStep(nxt[0], cur, nxt[1]))
            cur = nxt[0]
        steps: list[ProofStep] = []
        node = a
        for _ in range(seen[cur]):
            nxt = self._proof[node]
            steps.append(ProofStep(node, nxt[0], nxt[1]))
            node = nxt[0]
        steps.extend(reversed(back))
        return steps

    # -- extraction, folds and enumeration -------------------------------------

    def _analysis(self) -> None:
        """Bring the e-class analysis up to date from the classes that
        ``_enodes()`` has refreshed since the last call, and the roots that
        lost their root.

        A class's stage is the least 1 + max of its child stages over its
        layers; its key is the least ``term_key`` over its layers of the
        children's representatives, and the layer giving it is chosen.  Its
        layers are its generator leaves and its distinct canonical layers in
        the operator index, whose branch maps drop a countable map's entries
        in the default's class, as its term does.  Payloads and merges only
        lower these values (a countable map keys higher only if classes that
        shared a term stop sharing it, and such classes are congruent, so
        the rebuild before any merge merges them).  So a merged class keeps
        the lesser values of its parts, each touched class is weighed over
        its layers, and a class whose values fall queues its users' classes,
        until nothing falls.  A layer waits until each child class has a
        key, and one whose size exceeds the best key so far is not keyed,
        since a key leads with its term's size."""
        index = self._enodes()
        if not self._unanalysed:
            return
        find, uses, stage, key, chosen = self._find, self._uses, self._stage, self._key, self._chosen
        leaves: dict[int, list[str]] = {}
        for g in self.generators:
            hit = self._memo.get(("g", g))
            if hit is not None:
                leaves.setdefault(find(hit), []).append(g)
        queued: set[int] = set()
        for i in self._unanalysed:
            r = find(i)
            queued.add(r)
            if r == i or i not in key:
                continue
            # a merged class keeps the lesser values of its parts
            s, k, ch = stage.pop(i), key.pop(i), chosen.pop(i)
            if r in key and k >= key[r] and s >= stage[r]:
                continue
            if r not in key or k < key[r]:
                key[r], chosen[r] = k, ch
            stage[r] = min(stage.get(r, s), s)
            queued.update(map(find, uses.get(r, ())))
        self._unanalysed.clear()
        batch = sorted(queued)
        while batch:
            later = []
            for r in batch:
                queued.discard(r)
                # a tie replaces the stored choice, whose child roots may be stale
                best, pick, least = key.get(r), chosen.get(r), None
                for name in leaves.get(r, ()):
                    k, least = term_key(Var(name)), 1
                    if best is None or k <= best:
                        best, pick = k, (name, None)
                for op, rel in index.items():
                    for kids in rel.get(r, ()):
                        xs = kids if kids.__class__ is tuple else tuple(kids.values())
                        if not all(x in key for x in xs):
                            continue
                        s = 1 + max([stage[x] for x in xs], default=0)
                        least = s if least is None else min(least, s)
                        if best is not None and 1 + sum([key[x][0] for x in xs]) > best[0]:
                            continue
                        k = node_key(op, map_branches(key.__getitem__, kids, normalize=True))
                        if best is None or k <= best:
                            best, pick = k, (op, kids)
                if best is None:
                    continue
                fell = best != key.get(r) or least != stage.get(r)
                stage[r], key[r], chosen[r] = least, best, pick
                if fell:
                    users = {find(u) for u in uses.get(r, ())} - queued
                    queued |= users
                    later.extend(users)
            batch = sorted(later)

    def canonical(self, c: ClassId) -> ClassId:
        """Canonical handle for the class (stable until the next merge)."""
        return ClassId(self._live_root(c))

    def representative(self, c: ClassId) -> Term:
        """Least member term under the canonical order (size, then shape):
        the class folded into the term algebra."""
        root = self._live_root(c)
        return self.fold(Var, term_algebra, (root,))[root]

    def representatives(self, classes: Iterable[ClassId]) -> dict[ClassId, Term]:
        """Representatives for many classes, from one fold."""
        roots = {c: self._live_root(c) for c in classes}
        terms = self.fold(Var, term_algebra, roots.values())
        return {c: terms[r] for c, r in roots.items()}

    def fold(
        self,
        leaf: Callable[[str], Any],
        step: Callable[[str, Any], Any],
        roots: Iterable[int] | None = None,
    ) -> dict[int, Any]:
        """Value of every class root, or given ``roots`` of those roots and
        the classes below them, computed bottom up over the chosen layers
        and memoised within the call: ``leaf(name)`` on a generator leaf,
        ``step(op, values)`` on an operator layer, with ``values`` the
        branch map of its children's values.  Countable maps drop entries
        whose class is the default's.  Folded into the term algebra
        (``fold(Var, term_algebra)``) each value is the class's
        representative, so any other fold is the representative evaluated
        in the algebra that ``leaf`` and ``step`` describe.  Each chosen
        layer is an operator or generator name with its canonical child
        roots (none for a leaf), kept current from the operator index, so
        a fold walks only the classes it values."""
        self._analysis()
        chosen = self._chosen
        values: dict[int, Any] = {}
        get = values.__getitem__
        # post-order, children left to right, on an explicit stack: a class
        # is pushed, then popped once more as ``~root`` to be valued after
        # its children
        todo: list[int] = []
        for root in sorted(self._members) if roots is None else roots:
            todo.append(root)
            while todo:
                r = todo.pop()
                if r < 0:
                    name, kids = chosen[~r]
                    if kids.__class__ is tuple:
                        values[~r] = step(name, tuple(map(get, kids)))
                    else:
                        values[~r] = step(name, map_branches(get, kids))
                elif r not in values:
                    name, kids = chosen[r]
                    if kids is None:
                        values[r] = leaf(name)
                    else:
                        todo.append(~r)
                        todo += kids[::-1] if kids.__class__ is tuple else [*kids.values()][::-1]
        return values

    def enumerate_classes(
        self, size_bound: int, *, class_budget: int = 100_000
    ) -> list[tuple[ClassId, Term]]:
        """The classes of the closed terms up to the size bound with their
        representatives, in ``term_key`` order.

        Size ``s`` is built over classes, not terms: a pool per size holds
        the sorted roots of its layers; each operator's layers over products
        of pools whose sizes sum to ``s - 1`` are added (a countable default
        from its own pool, entries in its class dropped by the canonical
        key), then the state is saturated and the pools re-canonicalised.
        Each layer is congruent to a closed term of at most its size, each
        child of a closed term has its class in the pool of its size, and
        saturation adds instances only over classes that saturating every
        listed term also holds, so at a fixpoint both give the closed terms
        the same classes, representatives and stages.  After a budget exit
        each class returned still holds a closed term within the bound, and
        each such term's class is returned; only merges may be fewer.  The
        log and class ids differ from interning the :func:`closed_terms` list.

        ``class_budget`` is checked before each size is built, against the
        classes so far plus the size's layers; an overrun raises with that
        number.  The round and instance budgets bound each size's saturation."""
        pools: list[list[int]] = [[]]
        for s in range(1, size_bound + 1):
            leaves = self.generators if s == 1 else ()
            shapes = [
                (op, idxs, [pools[k] for k in sizes])
                for op, idxs, sizes in _shapes(self.signature, s, self.probe)
            ]
            count = self.class_count + len(leaves)
            count += sum(math.prod(map(len, kids)) for _, _, kids in shapes)
            if count > class_budget:
                raise BudgetExceededError(f"{count} classes exceed the budget of {class_budget}")
            ids = [self._add(GenLeaf(g)) for g in leaves]
            for op, idxs, kids in shapes:
                for roots in itertools.product(*kids):
                    if idxs is not None:
                        roots = OmegaTable(tuple(zip(idxs, roots[1:])), roots[0])
                    ids.append(self._layer(op, roots, True))
            self.saturate()
            pools = [sorted({self._find(r) for r in pool}) for pool in (*pools, ids)]
        self._analysis()
        roots = sorted({r for pool in pools for r in pool}, key=self._key.__getitem__)
        terms = self.fold(Var, term_algebra, roots)
        return [(ClassId(r), terms[r]) for r in roots]

    # -- export ---------------------------------------------------------------

    def export_json(self) -> dict:
        terms = self.fold(Var, term_algebra)
        classes = []
        for root in sorted(self._members):
            classes.append(
                {
                    "id": root,
                    "stage": self._stage[root],
                    "representative": term_to_json(terms[root]),
                    "members": [
                        _payload_to_json(self._payloads[m])
                        for m in self._members[root]
                    ],
                }
            )
        edges = [
            {"from": x, "to": y, **j.to_json()}
            for x, (y, j) in sorted(self._proof.items())
        ]
        return {
            "probe": self.probe,
            "generators": list(self.generators),
            "classes": classes,
            "proof_forest": edges,
        }


def _payload_to_json(p: Payload) -> dict:
    if isinstance(p, GenLeaf):
        return {"gen": p.name}
    return {"op": p.op, "branches": branches_to_json(p.branches, lambda v: v)}


def _branch_map(canon: Any) -> Any:
    """The branch map a key from ``_canon_branches`` stands for."""
    if canon and canon[0] == "w":
        return OmegaTable(canon[1], canon[2])
    return canon


def _height(t: Term) -> int:
    return fold_term(t, lambda _: 0, lambda op, hs: 1 + max(branch_values(hs), default=0))


class _Side:
    """One side of an equation, compiled.  ``term`` is the side itself.
    ``join(index, roots, found)`` adds to ``found`` the values of the
    side's variables (``bound``, ascending) under each way the side matches
    one of ``roots``; a bare variable has no join.  ``layers`` interns an
    instance bottom up: each layer's operator and the slots of its
    children (a countable layer's entries in index order), where slots
    below the variable count hold the environment and each layer's class
    takes the next; ``out`` is the side's slot."""

    __slots__ = ("term", "head", "bound", "missing", "join", "layers", "out")

    def __init__(self, t: Term, n: int):
        names = term_vars(t)
        self.term = t
        self.bound = tuple(sorted(names))
        self.missing = tuple(v for v in range(n) if v not in names)
        self.head = None if isinstance(t, Var) else t.op
        self.join = None if self.head is None else _compile_join(t, self.bound)
        layers: list[tuple[str, Any]] = []

        def layer(op: str, kids: Any) -> int:
            if kids.__class__ is not tuple:
                kids = OmegaTable(tuple(sorted(kids.entries)), kids.default)
            layers.append((op, kids))
            return n + len(layers) - 1

        self.out = fold_term(t, lambda slot: slot, layer)
        self.layers = tuple(layers)

    def domains(self, bound: list, missing: list) -> list:
        """Per variable, the ascending values a product takes there."""
        out: list = [None] * (len(bound) + len(missing))
        for v, d in zip(self.bound, bound):
            out[v] = d
        for v, d in zip(self.missing, missing):
            out[v] = d
        return out


class _Plan:
    """An equation compiled once per state: both sides, each compiled by
    ``side(term, var_count)``, and its height."""

    __slots__ = ("name", "height", "lhs", "rhs")

    def __init__(self, eq, side: Callable[[Term, int], _Side]):
        self.name = eq.name
        self.height = max(_height(eq.lhs), _height(eq.rhs))
        self.lhs, self.rhs = side(eq.lhs, eq.var_count), side(eq.rhs, eq.var_count)


class _Touched:
    """The classes touched since the last completed round began, as a
    round's roots see them while the log stands: those roots in a touched
    class (``hot``) and the others (``cold``), ascending, and the roots
    near a touched class by pattern height."""

    def __init__(self, state: QWState, classes: set[int], roots: list[int]):
        self.state, self.classes = state, classes
        self.hot = [r for r in roots if state._find(r) in classes]
        hot = set(self.hot)
        self.cold = [r for r in roots if r not in hot]
        self._near: dict[int, set[int]] = {}

    def near(self, height: int) -> set[int]:
        near = self._near.get(height)
        if near is None:
            near = self._near[height] = self.state._near(self.classes, height)
        return near


def _compile_join(t: Node, bound: tuple[int, ...]) -> Callable:
    """A pattern's match as nested loops over the operator relations.

    Every pattern position below the root gets a slot in one flat list.
    One loop per operator node, in preorder, runs over the layers of the
    class in the node's slot and fills the slots of the node's children;
    a variable seen before is compared in place rather than stored.  A
    countable node pairs positions as :func:`branch_pairs` does, the
    pattern's entries and then its default; the layer's other entries must
    hold the default's instance too, which is checked once every variable
    is bound."""
    slots: dict[int, int] = {}
    steps: list[tuple] = []
    defaults: list[tuple[Term, int]] = []  # with the slot of the other entries
    size = 1

    def plan(u: Node, src: int) -> None:
        nonlocal size
        subs = list(branch_values(u.branches))
        support = xslot = None
        if isinstance(u.branches, OmegaTable):
            support = u.branches.support()
            xslot, size = size, size + 1
            defaults.append((subs[-1], xslot))
        stores, checks, below = [], [], []
        for pos, sub in enumerate(subs):
            if isinstance(sub, Var) and sub.name in slots:
                checks.append((pos, slots[sub.name]))
                continue
            stores.append((pos, size))
            if isinstance(sub, Var):
                slots[sub.name] = size
            else:
                below.append((sub, size))
            size += 1
        steps.append((u.op, src, stores, checks, support, xslot))
        for sub, slot in below:
            plan(sub, slot)

    plan(t, 0)
    result = tuple(slots[v] for v in bound)
    # each default's pattern as a template: a layer per node, a slot per variable
    ends = [(fold_term(sub, slots.__getitem__, OpNode), xslot) for sub, xslot in defaults]

    def emit(regs: list, index: dict, found: set) -> None:
        for tpl, xslot in ends:
            for c in regs[xslot]:
                if not _holds(tpl, c, regs, index):
                    return
        found.add(tuple([regs[s] for s in result]))

    first = emit
    for step in reversed(steps):
        first = _scan(*step, first)

    def join(index: dict, roots: Iterable[int], found: set) -> None:
        regs: list = [None] * size
        for root in roots:
            regs[0] = root
            first(regs, index, found)

    return join


def _scan(
    op: str, src: int, stores: list, checks: list, support: tuple | None, xslot: int | None,
    nxt: Callable,
) -> Callable:
    """The loop over the ``op`` layers of the class in slot ``src``.  A
    countable layer pairs as :func:`branch_pairs` pairs it with the
    pattern: read at the pattern's entry indexes (``support``), then at
    its default; its other entries, paired with the default, go to slot
    ``xslot``."""

    def scan(regs: list, index: dict, found: set) -> None:
        for kids in index[op].get(regs[src], ()):
            if support is not None:
                at, d = dict(kids.entries), kids.default
                regs[xslot] = [v for i, v in kids.entries if i not in support]
                kids = [at.get(i, d) for i in support] + [d]
            for pos, slot in stores:
                regs[slot] = kids[pos]
            for pos, slot in checks:
                if kids[pos] != regs[slot]:
                    break
            else:
                nxt(regs, index, found)

    return scan


def _holds(tpl: Any, root: int, regs: list, index: dict) -> bool:
    """Whether class ``root`` holds the instance of a template whose
    variables are all bound."""
    if tpl.__class__ is int:
        return regs[tpl] == root
    return any(
        all(_holds(s, c, regs, index) for s, c in branch_pairs(tpl.branches, kids))
        for kids in index[tpl.op].get(root, ())
    )


# a fresh empty construction state with its recorded budgets
new_qw = QWState


# -- closed term enumeration ---------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _shapes(sig: Signature, size: int, probe: int) -> Iterator[tuple]:
    """The operator layers of a size as ``(op, indices, sizes)``: the
    children's sizes, and for a countable operator the table's indices
    below the probe, its sizes led by the default's (None otherwise)."""
    for name, arity in sig.ops:
        if not arity.is_omega:
            for sizes in _compositions(size - 1, arity.finite):
                yield name, None, sizes
            continue
        for m in range(min(probe, size - 2) + 1):
            for idxs in itertools.combinations(range(probe), m):
                for sizes in _compositions(size - 1, m + 1):
                    yield name, idxs, sizes


def closed_terms(
    sig: Signature, max_size: int, *, probe: int = 2, generators: Iterable[str] = ()
) -> list[Term]:
    """All closed terms (over the operators and generator leaves) of size
    up to the bound, in canonical order.  Countable branch maps range over
    normalised tables supported below the probe depth.  Each size is built
    over the smaller ones and sorted by ``term_key``, found by
    :func:`node_key` from the children's kept keys; a countable layer
    leaves out entries equal to its default, compared by key."""
    by_size: list[list[tuple[tuple, Term]]] = [[]]
    for s in range(1, max_size + 1):
        layers = [(term_key(Var(g)), Var(g)) for g in generators] if s == 1 else []
        for op, idxs, sizes in _shapes(sig, s, probe):
            pools = [by_size[k] for k in sizes]
            if idxs is None:
                for kids in itertools.product(*pools):
                    keys = tuple(k for k, _ in kids)
                    layers.append((node_key(op, keys), Node(op, tuple(t for _, t in kids))))
                continue
            for dkey, dterm in pools[0]:
                others = [[e for e in pool if e[0] != dkey] for pool in pools[1:]]
                for kids in itertools.product(*others):
                    keys = OmegaTable(tuple(zip(idxs, (k for k, _ in kids))), dkey)
                    terms = OmegaTable(tuple(zip(idxs, (t for _, t in kids))), dterm)
                    layers.append((node_key(op, keys), Node(op, terms)))
        layers.sort(key=lambda layer: layer[0])
        by_size.append(layers)
    return [t for layers in by_size for _, t in layers]


# -- executable satisfaction on the carrier -------------------------------------

UNEQUAL_SIDES = "instantiated sides not provably equal"


class CarrierSatReport(Record):
    def __init__(self, ok: bool, eq_name: str | None = None, env: tuple[int, ...] | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "eq_name", eq_name)
        object.__setattr__(self, "env", env)

    def to_json(self) -> dict:
        if self.ok:
            return {"verdict": "holds"}
        return {
            "verdict": "violated",
            "equation": self.eq_name,
            "environment": list(self.env),
        }


def check_equations_hold(
    state: QWState,
    classes: Iterable[ClassId],
    *,
    env_budget: int = ENV_BUDGET,
) -> CarrierSatReport:
    """Replay the satisfaction enumeration over carrier classes: every
    equation instance over the given classes must be proved equal."""
    roots = [state._live_root(c) for c in classes]

    def lift(side: _Side, env: tuple) -> tuple[int, None]:
        return state._instantiate(side, env), None

    failed = _carrier_walk(state, roots, lift, env_budget)
    return CarrierSatReport(True) if failed is None else CarrierSatReport(False, *failed[:2])


def _carrier_walk(state: QWState, carrier: list, lift: Callable, budget: int) -> tuple | None:
    """The carrier checks' one walk: ``lift(side, env)`` interns each side
    of each of :func:`equations.instances` over ``carrier`` by its compiled
    plan, giving a class root and a value; after one ``saturate()`` the
    sides must share both, and sides a budget-stopped saturation left apart
    raise ``BudgetExceededError``.  Each lift is memoised by the side and
    the environment's carrier indexes, so a side that several plans share
    is lifted once per environment; another lift would intern nothing and
    pass the same fiber checks.  The first failure (equation, env, reason),
    or None."""
    pending, lifted = [], {}
    # beside each environment, its carrier indexes, which key the lifts
    indexes = instances(state.system, range(len(carrier)), budget)
    for (eq, env), (_, at) in zip(instances(state.system, carrier, budget), indexes):
        plan = state._plans[eq.name]
        try:
            for side in (plan.lhs, plan.rhs):
                if (side, at) not in lifted:
                    lifted[side, at] = lift(side, env)
        except FiberMismatchError as exc:
            return eq.name, env, str(exc)
        pending.append((eq.name, env, lifted[plan.lhs, at], lifted[plan.rhs, at]))
    fixpoint = state.saturate().fixpoint
    for name, env, (li, lv), (ri, rv) in pending:
        if state._find(li) != state._find(ri):
            if not fixpoint:
                raise BudgetExceededError(
                    f"saturation budget exhausted before the sides of {name} were proved equal"
                )
            return name, env, UNEQUAL_SIDES
        if lv != rv:
            return name, env, f"values differ in the common fiber: {lv!r} vs {rv!r}"
    return None


# -- separating algebras ---------------------------------------------------------


def _cell_term(t: Term, env: tuple, bases: dict[str, int], probe: int) -> Any:
    """A term over a separator table's cells: a leaf is its value under
    ``env``, a node its operator's first cell and the branches that index
    it, countable ones read as :func:`probe_key` reads them."""
    return fold_term(
        t, env.__getitem__, lambda op, kids: (bases[op], probe_key(kids, probe)[1:])
    )


def find_separator(
    sig: Signature,
    system: EquationSystem,
    t: Term,
    u: Term,
    carrier_bound: int,
    *,
    max_algebras: int = 500_000,
) -> FiniteAlgebra | None:
    """Search for a finite algebra that satisfies the system yet evaluates
    the two closed terms differently.  Such an algebra certifies that the
    terms are distinct in the constructed carrier.  Returns the first hit
    in canonical table order, or None.

    Carriers grow from one element; each table is filled depth first, one
    cell at a time in canonical order (operators, then branch assignments)
    with values ascending, so complete tables come in lexicographic order.
    A branch is cut once the terms evaluate equal on the cells set so far
    or an equation instance's sides differ: every completion agrees, so no
    separator is cut.  Each pair (the terms, and each instance with its
    mirror compiled once) is evaluated up to the first unset cell it reads
    and waits on that cell; setting a cell re-settles only the pairs
    waiting on it.  By the least-number rule a cell takes at most one more
    than ``d``, the largest element that it or an earlier cell reads as a
    branch value or that an earlier cell holds: if the lex-first separator
    held ``v > d + 1`` there, swapping ``d + 1`` and ``v`` would give an
    isomorphic separator, equal on the earlier cells and smaller at this
    one, so the rule skips no first hit.  A hit is re-checked with
    ``eval_alg`` and ``sat_check``.  ``max_algebras`` bounds the cells
    assigned, those the rule allows, over all carriers; each carrier's
    equation instances are bounded by ``ENV_BUDGET`` before they are
    compiled."""
    probe = system.probe
    validate_term(sig, t, var_domain=frozenset())
    validate_term(sig, u, var_domain=frozenset())
    nodes = 0
    for m in range(1, carrier_bound + 1):
        carrier = tuple(range(m))
        envs = instances(system, carrier, ENV_BUDGET)
        layers = enumerate_opnodes(sig, carrier, probe)
        slots = [(s.op, probe_key(s.branches, probe)) for s in layers]
        bases: dict[str, int] = {}
        for i, (name, _) in enumerate(slots):
            bases.setdefault(name, i)
        # reach[k]: the largest element cells 0..k read as branch values
        reach = list(itertools.accumulate((max(key[1:], default=-1) for _, key in slots), max))
        cells = [-1] * len(slots)  # -1: not set yet

        def read(c: Any) -> int:
            # a value, or ~k for the first unset cell k read; a cell's index
            # within its operator is its branch values read as digits base
            # m, as branch_assignments orders them
            if c.__class__ is int:
                return c
            base, kids = c
            i = 0
            for kid in kids:
                v = read(kid)
                if v < 0:
                    return v
                i = i * m + v
            v = cells[base + i]
            return v if v >= 0 else ~(base + i)

        # watch[k]: the pairs waiting on cell k; trail: the cells pairs were
        # filed under, cut back to marks[k] before cell k's next value
        watch: list[list] = [[] for _ in slots]
        trail: list[int] = []

        def settle(pairs: list) -> bool:
            """File each (lhs, rhs, cut when equal) pair under the cell it
            waits on; False once one is cut."""
            for pair in pairs:
                lhs, rhs, cut_when_equal = pair
                v = read(lhs)
                if v >= 0:
                    w = read(rhs)
                    if w >= 0:
                        if (v == w) is cut_when_equal:
                            return False
                        continue
                    v = w
                watch[~v].append(pair)
                trail.append(~v)
            return True

        compiled: dict[tuple, None] = {}
        for e, env in envs:
            lhs = _cell_term(e.lhs, env, bases, probe)
            rhs = _cell_term(e.rhs, env, bases, probe)
            if lhs != rhs and (rhs, lhs) not in compiled:
                compiled[lhs, rhs] = None
        target = (_cell_term(t, (), bases, probe), _cell_term(u, (), bases, probe), True)
        if not settle([target, *((lhs, rhs, False) for lhs, rhs in compiled)]):
            continue
        marks = [len(trail)]
        most = [-1]  # most[k]: the largest value set in cells 0..k-1
        k = 0
        while k >= 0:
            while len(trail) > marks[k]:
                watch[trail.pop()].pop()
            v = cells[k] + 1
            if v == m or v > max(reach[k], most[k]) + 1:
                cells[k] = -1
                marks.pop()
                most.pop()
                k -= 1
                continue
            if nodes >= max_algebras:
                raise BudgetExceededError(
                    f"assigned {max_algebras} table cells without an answer"
                )
            nodes += 1
            cells[k] = v
            if not settle(watch[k]):
                continue
            if k + 1 < len(slots):
                marks.append(len(trail))
                most.append(max(most[k], v))
                k += 1
                continue
            alg = table_algebra(sig, carrier, dict(zip(slots, cells)), probe=probe)
            if eval_alg(t, {}, alg) != eval_alg(u, {}, alg) and sat_check(alg, system).satisfied:
                return alg
    return None


# -- independent replay validation ------------------------------------------------


class _ReplayUF:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def add(self, i: int) -> None:
        self.parent[i] = i

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def replay_merges(state: QWState) -> int:
    """Re-derive every merge in the log from its recorded justification,
    with a separate union-find.  Returns the number of validated merges and
    raises ReplayError on the first one that does not re-derive."""
    system = state.system
    uf = _ReplayUF()
    payloads: dict[int, Payload] = {}
    members: dict[int, list[int]] = {}

    def realizes(t: Term, env: tuple[int, ...], idx: int) -> bool:
        if isinstance(t, Var):
            return uf.find(env[t.name]) == uf.find(idx)
        for mid in members[uf.find(idx)]:
            p = payloads[mid]
            if not isinstance(p, ENode) or p.op != t.op:
                continue
            checks = branch_pairs(t.branches, p.branches)
            if checks is not None and all(realizes(sub, env, b) for sub, b in checks):
                return True
        return False

    def congruent(a: int, b: int) -> bool:
        pa, pb = payloads[a], payloads[b]
        if not (isinstance(pa, ENode) and isinstance(pb, ENode)) or pa.op != pb.op:
            return False
        pairs = branch_pairs(pa.branches, pb.branches)
        return pairs is not None and all(uf.find(x) == uf.find(y) for x, y in pairs)

    validated = 0
    for entry in state.log:
        if entry[0] == "intern":
            _, idx, payload = entry
            payloads[idx] = payload
            uf.add(idx)
            members[idx] = [idx]
            continue
        _, a, b, just = entry
        if just.kind == "cong":
            if not congruent(a, b):
                raise ReplayError(f"congruence merge {a} ~ {b} does not re-derive")
        elif just.kind == "sqeq":
            eq = system.equation(just.equation)
            if not (
                realizes(eq.lhs, just.env, a) and realizes(eq.rhs, just.env, b)
            ):
                raise ReplayError(
                    f"equation merge {a} ~ {b} via {just.equation!r} does not re-derive"
                )
        else:
            raise ReplayError(f"unknown justification tag {just.kind!r}")
        ra, rb = uf.find(a), uf.find(b)
        if ra != rb:
            ma = members.pop(ra)
            members[rb] = members[rb] + ma if rb in members else ma
            uf.union(ra, rb)
        validated += 1
    return validated
