"""Staged quotient construction of the initial algebra for a system of equations.

The carrier is built as classes of interned term layers.  Interning is
eager: a leaf over an existing class is that class, and nested term layers
are flattened bottom up, so every stored payload is either a generator
leaf or a single operator layer over earlier classes.  Saturation rounds
instantiate equations over existing classes (driven by matching, so an
environment fires once one side's instance is present), merge the two
sides, and restore congruence.  Matching reads each class's distinct
canonical e-nodes (operator layers over canonical child classes, with
congruent duplicates collapsed), indexed by head operator for the state's
current version.  Every merge is recorded in a proof forest whose edges
carry their justification, and an independent replay validator re-derives
the whole merge log with its own scan over the payloads.

Stages are the concrete counterpart of the construction's ordinal
indexing: a class's stage is the least nesting depth among its members,
and the round budget plays the role of the stage cutoff.  Stages and each
class's canonical member (the one its representative is built from) are
computed for the state's current version and cached until the next
payload or merge; folds such as recursion run over the canonical
members.  Saturation
reports budget exhaustion as a normal outcome; equality answers are only
ever "proved" or "unknown".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from .equations import EquationSystem, sat_check
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    ReplayError,
    UnboundVariableError,
    WorkbenchError,
)
from .terms import (
    Arity,
    FiniteAlgebra,
    Node,
    OmegaTable,
    OpNode,
    Signature,
    Term,
    Var,
    branch_assignments,
    branch_values,
    eval_alg,
    map_branches,
    node_key,
    probe_key,
    table_algebra,
    term_key,
    term_to_json,
    validate_term,
)


@dataclass(frozen=True)
class ClassId:
    """Opaque handle for a carrier class."""

    index: int


@dataclass(frozen=True)
class GenLeaf:
    """Payload of a generator leaf (free-algebra mode)."""

    name: str


@dataclass(frozen=True)
class ENode:
    """Payload of one operator layer over earlier classes.  Branch values
    are raw class indexes as seen at creation time; lookups canonicalise
    through the union-find."""

    op: str
    branches: Any  # tuple[int, ...] | OmegaTable of int


Payload = Any  # GenLeaf | ENode


@dataclass(frozen=True)
class Justification:
    kind: str  # "sqeq" | "cong" | "sqeta" | "sqsigma"
    equation: str | None = None
    env: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        out: dict[str, Any] = {"tag": self.kind}
        if self.equation is not None:
            out["equation"] = self.equation
        if self.env is not None:
            out["environment"] = list(self.env)
        return out


@dataclass(frozen=True)
class ProofStep:
    lhs: int
    rhs: int
    justification: Justification

    def to_json(self) -> dict:
        return {"from": self.lhs, "to": self.rhs, **self.justification.to_json()}


@dataclass(frozen=True)
class Decision:
    proved: bool
    steps: tuple[ProofStep, ...] = ()

    def to_json(self) -> dict:
        if not self.proved:
            return {"verdict": "unknown"}
        return {"verdict": "proved", "derivation": [s.to_json() for s in self.steps]}


@dataclass(frozen=True)
class SaturationResult:
    fixpoint: bool
    rounds: int
    merges: int
    new_classes: int

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
        self._parent: list[int] = []
        self._rank: list[int] = []
        self._payloads: list[Payload] = []
        self._members: dict[int, list[int]] = {}
        self._memo: dict[Any, int] = {}
        self._proof: dict[int, tuple[int, Justification]] = {}
        self._log: list[tuple] = []
        self._version = 0
        self._saturated_version = 0
        self._extracted: _Extraction | None = None
        self._enode_index: tuple[int, dict] | None = None

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
        self._version += 1
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
            default = self._find(branches.default)
            entries = sorted(
                (i, self._find(v))
                for i, v in branches.entries
                if self._find(v) != default
            )
            return ("w", tuple(entries), default)
        return tuple(self._find(v) for v in branches)

    def _canon_key(self, payload: Payload) -> Any:
        if isinstance(payload, GenLeaf):
            return ("g", payload.name)
        return ("n", payload.op, self._canon_branches(payload.branches))

    def _add(self, payload: Payload) -> int:
        key = self._canon_key(payload)
        hit = self._memo.get(key)
        if hit is not None:
            return self._find(hit)
        idx = len(self._payloads)
        if isinstance(payload, GenLeaf):
            stored = payload
        else:
            stored = ENode(payload.op, _branch_map(key[2]))
        self._payloads.append(stored)
        self._parent.append(idx)
        self._rank.append(0)
        self._members[idx] = [idx]
        self._memo[key] = idx
        self._log.append(("intern", idx, stored))
        self._version += 1
        return idx

    def _lookup(self, payload: Payload) -> int | None:
        hit = self._memo.get(self._canon_key(payload))
        return None if hit is None else self._find(hit)

    def _intern(self, t: Term) -> int:
        if isinstance(t, Var):
            if isinstance(t.name, ClassId):
                return self._live_root(t.name)
            if t.name in self.generators:
                return self._add(GenLeaf(t.name))
            raise UnboundVariableError(f"unknown generator {t.name!r}")
        arity = self.signature.arity(t.op)
        _check_branch_shape(t.op, arity, t.branches)
        ids = map_branches(self._intern, t.branches)
        return self._add(ENode(t.op, ids))

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
        arity = self.signature.arity(s.op)
        _check_branch_shape(s.op, arity, s.branches)
        ids = map_branches(lambda c: self._live_root(c), s.branches)
        return ClassId(self._add(ENode(s.op, ids)))

    def lookup_intro(self, s: OpNode) -> ClassId | None:
        """Class of an operator layer if it is already interned, else None.
        Never creates classes."""
        arity = self.signature.arity(s.op)
        _check_branch_shape(s.op, arity, s.branches)
        ids = map_branches(lambda c: self._live_root(c), s.branches)
        hit = self._lookup(ENode(s.op, ids))
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
        """Counts new payloads and merges; every carrier-derived cache is
        keyed on it."""
        return self._version

    @property
    def stale(self) -> bool:
        """Whether payloads or merges arrived after the last ``saturate()``
        finished."""
        return self._version != self._saturated_version

    def stage_of(self, c: ClassId) -> int:
        return self._extraction().stage[self._live_root(c)]

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
        """Restore congruence: re-canonicalise every payload key and merge
        classes whose payloads collide.  Returns the number of merges."""
        merges = 0
        changed = True
        while changed:
            changed = False
            memo: dict[Any, int] = {}
            for idx in range(len(self._payloads)):
                key = self._canon_key(self._payloads[idx])
                other = memo.get(key)
                if other is None:
                    memo[key] = idx
                elif self._find(other) != self._find(idx):
                    self._union(other, idx, Justification("cong"))
                    merges += 1
                    changed = True
            self._memo = memo
        return merges

    # -- matching and saturation ---------------------------------------------

    def _enodes(self) -> dict[int, dict[str, dict[Any, None]]]:
        """Each class root's distinct canonical operator layers for the
        current version: branch maps of child roots, grouped by head
        operator.  Congruent duplicates among a class's payloads collapse to
        one layer, and a countable map drops entries whose class is the
        default's."""
        if self._enode_index is None or self._enode_index[0] != self._version:
            index: dict[int, dict[str, dict[Any, None]]] = {}
            for root, mids in self._members.items():
                by_op = index[root] = {}
                for mid in mids:
                    p = self._payloads[mid]
                    if isinstance(p, ENode):
                        canon = _branch_map(self._canon_branches(p.branches))
                        by_op.setdefault(p.op, {})[canon] = None
            self._enode_index = (self._version, index)
        return self._enode_index[1]

    def _match(self, pattern: Term, root: int) -> list[dict[int, int]]:
        """Environments (variable -> class root) under which the pattern's
        instance is this class, judged structurally against the class's
        distinct canonical operator layers with the pattern's head."""
        if isinstance(pattern, Var):
            return [{pattern.name: root}]
        out: list[dict[int, int]] = []
        for branches in self._enodes().get(root, {}).get(pattern.op, ()):
            if isinstance(pattern.branches, OmegaTable):
                positions = sorted(
                    set(pattern.branches.support()) | set(branches.support())
                )
                pairs = [(pattern.branches.at(i), branches.at(i)) for i in positions]
                pairs.append((pattern.branches.default, branches.default))
            else:
                pairs = zip(pattern.branches, branches)
            envs: list[dict[int, int]] = [{}]
            for sub, broot in pairs:
                next_envs = []
                for env in envs:
                    for cand in self._match(sub, broot):
                        merged = _merge_env(env, cand)
                        if merged is not None:
                            next_envs.append(merged)
                envs = next_envs
                if not envs:
                    break
            out.extend(envs)
        return out

    def _instance_envs(self, eq, roots: list[int]) -> list[tuple[int, ...]]:
        """Environments worth instantiating: those under which at least one
        side's instance already exists, completed over all classes for
        variables the matched side does not mention."""
        envs: set[tuple[int, ...]] = set()
        for side in (eq.lhs, eq.rhs):
            partials: list[dict[int, int]] = []
            if isinstance(side, Var):
                partials = [{side.name: r} for r in roots]
            else:
                for r in roots:
                    partials.extend(self._match(side, r))
            for env in partials:
                missing = [v for v in range(eq.var_count) if v not in env]
                if not missing:
                    envs.add(tuple(env[v] for v in range(eq.var_count)))
                    continue
                for combo in itertools.product(roots, repeat=len(missing)):
                    full = dict(env)
                    full.update(zip(missing, combo))
                    envs.add(tuple(full[v] for v in range(eq.var_count)))
        return sorted(envs)

    def _intern_instance(self, t: Term, env: tuple[int, ...]) -> int:
        if isinstance(t, Var):
            return self._find(env[t.name])
        ids = map_branches(lambda b: self._intern_instance(b, env), t.branches)
        return self._add(ENode(t.op, ids))

    def saturate(self, *, max_rounds: int | None = None) -> SaturationResult:
        """Run saturation rounds to a fixpoint or the round budget.

        Each round instantiates equations over the classes existing at the
        round's start, merges the instantiated sides, and restores
        congruence.  A fixpoint means a full round produced no merge and no
        new class.
        """
        budget = self.max_rounds if max_rounds is None else max_rounds
        merges = self._rebuild()
        before_all = len(self._payloads)
        eqs = sorted(self.system.equations, key=lambda e: e.name)
        rounds = 0
        for rounds in range(1, budget + 1):
            round_merges = 0
            size_before = len(self._payloads)
            roots = sorted(self._members)
            instances = 0
            for eq in eqs:
                for env in self._instance_envs(eq, roots):
                    instances += 1
                    if instances > self.max_instances:
                        # as saturated as budgeted, like the round-budget exit below
                        self._saturated_version = self._version
                        return SaturationResult(
                            False, rounds, merges, len(self._payloads) - before_all
                        )
                    env = tuple(self._find(v) for v in env)
                    lid = self._intern_instance(eq.lhs, env)
                    rid = self._intern_instance(eq.rhs, env)
                    if self._union(lid, rid, Justification("sqeq", eq.name, env)):
                        round_merges += 1
            round_merges += self._rebuild()
            merges += round_merges
            if round_merges == 0 and len(self._payloads) == size_before:
                self._saturated_version = self._version
                return SaturationResult(
                    True, rounds, merges, len(self._payloads) - before_all
                )
        # budget exhausted: the state is as saturated as budgeted; only new
        # interned material makes it stale again
        self._saturated_version = self._version
        return SaturationResult(False, rounds, merges, len(self._payloads) - before_all)

    # -- equality -----------------------------------------------------------

    def decide_eq(self, a: ClassId, b: ClassId) -> Decision:
        """Proved with a replayable derivation, or a sound Unknown."""
        if self.stale:
            self.saturate()
        ra, rb = self._live_root(a), self._live_root(b)
        if ra != rb:
            return Decision(False)
        if a.index == b.index:
            return Decision(True, ())
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

    def _child_roots(self, p: ENode) -> Any:
        """Branch map of the payload's child class roots as a term built
        from it has them: a countable map drops entries whose class is the
        default's."""
        b = p.branches
        if isinstance(b, OmegaTable):
            droot = self._find(b.default)
            entries = []
            for i, v in b.entries:
                r = self._find(v)
                if r != droot:
                    entries.append((i, r))
            return OmegaTable(tuple(entries), droot)
        return tuple(self._find(v) for v in b)

    def _extraction(self) -> _Extraction:
        ex = self._extracted
        if ex is None or ex.version != self._version:
            ex = self._extracted = self._extract()
        return ex

    def _extract(self) -> _Extraction:
        """Costs and stages are least fixpoints over the members: a class's
        cost is the least 1 + sum of child costs, its stage the least 1 + max
        of child stages.  Then, in order of cost, each class chooses among
        its least-cost members the one whose term is least under
        ``term_key``; such a member's children all cost less, so their keys
        are already known."""
        rows = []
        for root, mids in self._members.items():
            for mid in mids:
                p = self._payloads[mid]
                kids = None if isinstance(p, GenLeaf) else self._child_roots(p)
                flat = () if kids is None else tuple(branch_values(kids))
                rows.append((root, p, kids, flat))
        cost: dict[int, int] = {}
        stage: dict[int, int] = {}
        changed = True
        while changed:
            changed = False
            for root, _, _, flat in rows:
                c = s = 0
                for r in flat:
                    rc = cost.get(r)
                    if rc is None:
                        break
                    c += rc
                    s = max(s, stage[r])
                else:
                    if c + 1 < cost.get(root, c + 2):
                        cost[root] = c + 1
                        changed = True
                    if s + 1 < stage.get(root, s + 2):
                        stage[root] = s + 1
                        changed = True
        if len(cost) != len(self._members):
            raise WorkbenchError("class has no well-founded representative")
        key: dict[int, tuple] = {}
        chosen: dict[int, tuple[Payload, Any]] = {}
        rows.sort(key=lambda row: cost[row[0]])
        for root, p, kids, flat in rows:
            if 1 + sum(cost[r] for r in flat) != cost[root]:
                continue
            if kids is None:
                k = term_key(Var(p.name))
            else:
                k = node_key(p.op, map_branches(key.__getitem__, kids, normalize=True))
            if root not in key or k < key[root]:
                key[root] = k
                chosen[root] = (p, kids)
        return _Extraction(self._version, stage, key, chosen)

    def canonical(self, c: ClassId) -> ClassId:
        """Canonical handle for the class (stable until the next merge)."""
        return ClassId(self._live_root(c))

    def representative(self, c: ClassId) -> Term:
        """Least member term under the canonical order (size, then shape)."""
        return self._extraction().rep(self._live_root(c))

    def representatives(self, classes: Iterable[ClassId]) -> dict[ClassId, Term]:
        """Representatives for many classes with shared extraction work."""
        ex = self._extraction()
        return {c: ex.rep(self._live_root(c)) for c in classes}

    def fold(
        self, leaf: Callable[[str], Any], step: Callable[[str, Any], Any]
    ) -> dict[int, Any]:
        """Value of every class root, computed bottom up over the members
        representatives are built from and memoised within the call:
        ``leaf(name)`` on a generator leaf, ``step(op, values)`` on an
        operator layer, with ``values`` the branch map of its children's
        values.  Countable maps drop entries whose class is the default's,
        as the representative does, so each value is the representative
        evaluated in the algebra that ``leaf`` and ``step`` describe."""
        chosen = self._extraction().chosen
        values: dict[int, Any] = {}

        def value(root: int) -> Any:
            if root in values:
                return values[root]
            p, kids = chosen[root]
            if kids is None:
                v = leaf(p.name)
            else:
                v = step(p.op, map_branches(value, kids))
            values[root] = v
            return v

        for root in sorted(self._members):
            value(root)
        return values

    def enumerate_classes(
        self, size_bound: int, *, class_budget: int = 100_000
    ) -> list[tuple[ClassId, Term]]:
        """Intern every closed term up to the size bound, saturate, and
        return one canonical representative per class of those terms."""
        seeds = closed_terms(
            self.signature, size_bound, probe=self.probe, generators=self.generators
        )
        ids = [self._intern(t) for t in seeds]
        if self.class_count > class_budget:
            raise BudgetExceededError(
                f"{self.class_count} classes exceed the budget of {class_budget}"
            )
        self.saturate()
        ex = self._extraction()
        roots = sorted({self._find(i) for i in ids}, key=ex.key.__getitem__)
        return [(ClassId(r), ex.rep(r)) for r in roots]

    # -- export ---------------------------------------------------------------

    def export_json(self) -> dict:
        ex = self._extraction()
        classes = []
        for root in sorted(self._members):
            classes.append(
                {
                    "id": root,
                    "stage": ex.stage[root],
                    "representative": term_to_json(ex.rep(root)),
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


@dataclass
class _Extraction:
    """What the carrier determines at one version, per class root: its
    stage, its representative's ``term_key``, the chosen member with the
    branch map of its child roots (None for a generator leaf), and the
    representative terms built so far."""

    version: int
    stage: dict[int, int]
    key: dict[int, tuple]
    chosen: dict[int, tuple[Payload, Any]]
    reps: dict[int, Term] = field(default_factory=dict)

    def rep(self, root: int) -> Term:
        t = self.reps.get(root)
        if t is None:
            p, kids = self.chosen[root]
            if kids is None:
                t = Var(p.name)
            else:
                t = Node(p.op, map_branches(self.rep, kids, normalize=True))
            self.reps[root] = t
        return t


def _payload_to_json(p: Payload) -> dict:
    if isinstance(p, GenLeaf):
        return {"gen": p.name}
    if isinstance(p.branches, OmegaTable):
        return {
            "op": p.op,
            "branches": {
                "table": [[i, v] for i, v in p.branches.entries],
                "default": p.branches.default,
            },
        }
    return {"op": p.op, "branches": list(p.branches)}


def _branch_map(canon: Any) -> Any:
    """The branch map a key from ``_canon_branches`` stands for."""
    if canon and canon[0] == "w":
        return OmegaTable(canon[1], canon[2])
    return canon


def _check_branch_shape(op: str, arity: Arity, branches: Any) -> None:
    if arity.is_omega:
        if not isinstance(branches, OmegaTable):
            raise ArityMismatchError(f"{op!r} needs a table-plus-default branch map")
    else:
        if isinstance(branches, OmegaTable) or len(branches) != arity.finite:
            raise ArityMismatchError(f"{op!r} expects {arity.finite} branches")


def _merge_env(a: dict[int, int], b: dict[int, int]) -> dict[int, int] | None:
    out = dict(a)
    for k, v in b.items():
        if out.setdefault(k, v) != v:
            return None
    return out


def new_qw(
    signature: Signature,
    system: EquationSystem,
    *,
    generators: Iterable[str] = (),
    max_rounds: int = 40,
    max_instances: int = 200_000,
) -> QWState:
    """Fresh empty construction state with recorded budgets."""
    return QWState(
        signature,
        system,
        generators=generators,
        max_rounds=max_rounds,
        max_instances=max_instances,
    )


# -- closed term enumeration ---------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def closed_terms(
    sig: Signature, max_size: int, *, probe: int = 2, generators: Iterable[str] = ()
) -> list[Term]:
    """All closed terms (over the operators and generator leaves) of size
    up to the bound, in canonical order.  Countable branch maps range over
    normalised tables supported below the probe depth."""
    by_size: list[list[Term]] = [[] for _ in range(max_size + 1)]
    if max_size >= 1:
        for g in generators:
            by_size[1].append(Var(g))
        for name, arity in sig.ops:
            if arity.finite == 0:
                by_size[1].append(Node(name, ()))
    for s in range(2, max_size + 1):
        for name, arity in sig.ops:
            if arity.is_omega:
                by_size[s].extend(_omega_terms(name, s, by_size, probe))
            elif arity.finite:
                for sizes in _compositions(s - 1, arity.finite):
                    for combo in itertools.product(*(by_size[k] for k in sizes)):
                        by_size[s].append(Node(name, combo))
    out = [t for bucket in by_size for t in bucket]
    out.sort(key=term_key)
    return out


def _omega_terms(
    op: str, size: int, by_size: list[list[Term]], probe: int
) -> Iterator[Term]:
    for d_size in range(1, size):
        for default in by_size[d_size]:
            rem = size - 1 - d_size
            if rem == 0:
                yield Node(op, OmegaTable((), default))
                continue
            for m in range(1, min(probe, rem) + 1):
                for idxs in itertools.combinations(range(probe), m):
                    for sizes in _compositions(rem, m):
                        for vals in itertools.product(
                            *(by_size[k] for k in sizes)
                        ):
                            if any(v == default for v in vals):
                                continue
                            yield Node(op, OmegaTable(tuple(zip(idxs, vals)), default))


# -- executable satisfaction on the carrier -------------------------------------


@dataclass(frozen=True)
class CarrierSatReport:
    ok: bool
    eq_name: str | None = None
    env: tuple[int, ...] | None = None

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
    env_budget: int = 200_000,
) -> CarrierSatReport:
    """Replay the satisfaction enumeration over carrier classes: every
    equation instance over the given classes must be proved equal."""
    classes = [state._live_root(c) for c in classes]
    total = sum(len(classes) ** e.var_count for e in state.system.equations)
    if total > env_budget:
        raise BudgetExceededError(
            f"{total} environments exceed the budget of {env_budget}"
        )
    pending = []
    for eq in sorted(state.system.equations, key=lambda e: e.name):
        for env in itertools.product(classes, repeat=eq.var_count):
            lid = state._intern_instance(eq.lhs, env)
            rid = state._intern_instance(eq.rhs, env)
            pending.append((eq.name, env, lid, rid))
    state.saturate()
    for name, env, lid, rid in pending:
        if state._find(lid) != state._find(rid):
            return CarrierSatReport(False, name, env)
    return CarrierSatReport(True)


# -- separating algebras ---------------------------------------------------------


def _cell_term(t: Term, env: tuple, bases: dict[str, int], probe: int) -> Any:
    """A term over a separator table's cells: a leaf is its value under
    ``env``, a node its operator's first cell and the branches that index
    it, countable ones read as :func:`probe_key` reads them."""
    if isinstance(t, Var):
        return env[t.name]
    branches = t.branches
    if isinstance(branches, OmegaTable):
        branches = [branches.at(i) for i in range(probe)] + [branches.default]
    return (bases[t.op], tuple(_cell_term(b, env, bases, probe) for b in branches))


def find_separator(
    sig: Signature,
    system: EquationSystem,
    t: Term,
    u: Term,
    carrier_bound: int,
    *,
    probe: int | None = None,
    max_algebras: int = 500_000,
    env_budget: int = 200_000,
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
    separator is cut.  A hit is re-checked with ``eval_alg`` and
    ``sat_check``.  ``max_algebras`` bounds the cells assigned over all
    carriers; ``env_budget`` bounds each carrier's equation instances
    before they are compiled."""
    probe = system.probe if probe is None else probe
    validate_term(sig, t, var_domain=frozenset())
    validate_term(sig, u, var_domain=frozenset())
    eqs = sorted(system.equations, key=lambda e: e.name)
    nodes = 0
    for m in range(1, carrier_bound + 1):
        total = sum(m**e.var_count for e in eqs)
        if total > env_budget:
            raise BudgetExceededError(
                f"{total} environments exceed the budget of {env_budget}"
            )
        carrier = tuple(range(m))
        slots, bases = [], {}
        for name, arity in sig.ops:
            bases[name] = len(slots)
            for branches in branch_assignments(arity, carrier, probe):
                slots.append((name, probe_key(branches, probe)))
        cells: list[int | None] = [None] * len(slots)

        def value(c: Any) -> int | None:
            # a cell's index within its operator is its branch values read
            # as digits base m, as branch_assignments orders them
            if c.__class__ is int:
                return c
            base, kids = c
            i = 0
            for k in kids:
                v = value(k)
                if v is None:
                    return None
                i = i * m + v
            return cells[base + i]

        def undetermined(pairs: list) -> list | None:
            """The pairs not yet evaluated on both sides, or None once a
            pair's sides differ."""
            rest = []
            for lhs, rhs in pairs:
                lv = value(lhs)
                rv = None if lv is None else value(rhs)
                if rv is None:
                    rest.append((lhs, rhs))
                elif lv != rv:
                    return None
            return rest

        tc, uc = _cell_term(t, (), bases, probe), _cell_term(u, (), bases, probe)
        instances: dict[tuple, None] = {}
        for e in eqs:
            for env in itertools.product(carrier, repeat=e.var_count):
                lhs = _cell_term(e.lhs, env, bases, probe)
                rhs = _cell_term(e.rhs, env, bases, probe)
                if lhs != rhs:
                    instances[lhs, rhs] = None
        root = undetermined(list(instances))
        if root is None:
            continue
        # pending[k]: the instances still undetermined before cell k is set
        pending = [root]
        k = 0
        while k >= 0:
            v = 0 if cells[k] is None else cells[k] + 1
            if v == m:
                cells[k] = None
                pending.pop()
                k -= 1
                continue
            if nodes >= max_algebras:
                raise BudgetExceededError(
                    f"assigned {max_algebras} table cells without an answer"
                )
            nodes += 1
            cells[k] = v
            tv = value(tc)
            if tv is not None and tv == value(uc):
                continue
            rest = undetermined(pending[k])
            if rest is None:
                continue
            if k + 1 < len(slots):
                pending.append(rest)
                k += 1
                continue
            alg = table_algebra(sig, carrier, dict(zip(slots, cells)), probe=probe)
            if eval_alg(t, {}, alg) != eval_alg(u, {}, alg) and sat_check(
                alg, system, env_budget=env_budget
            ).satisfied:
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
            if isinstance(t.branches, OmegaTable) != isinstance(
                p.branches, OmegaTable
            ):
                continue
            if isinstance(t.branches, OmegaTable):
                positions = sorted(
                    set(t.branches.support()) | {i for i, _ in p.branches.entries}
                )
                checks = [
                    (t.branches.at(i), p.branches.at(i)) for i in positions
                ]
                checks.append((t.branches.default, p.branches.default))
            else:
                if len(t.branches) != len(p.branches):
                    continue
                checks = list(zip(t.branches, p.branches))
            if all(realizes(sub, env, b) for sub, b in checks):
                return True
        return False

    def congruent(a: int, b: int) -> bool:
        pa, pb = payloads[a], payloads[b]
        if not (isinstance(pa, ENode) and isinstance(pb, ENode)):
            return False
        if pa.op != pb.op:
            return False
        if isinstance(pa.branches, OmegaTable) != isinstance(pb.branches, OmegaTable):
            return False
        if isinstance(pa.branches, OmegaTable):
            positions = sorted(
                {i for i, _ in pa.branches.entries}
                | {i for i, _ in pb.branches.entries}
            )
            pairs = [(pa.branches.at(i), pb.branches.at(i)) for i in positions]
            pairs.append((pa.branches.default, pb.branches.default))
        else:
            if len(pa.branches) != len(pb.branches):
                return False
            pairs = list(zip(pa.branches, pb.branches))
        return all(uf.find(x) == uf.find(y) for x, y in pairs)

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
        elif just.kind in ("sqeta", "sqsigma"):
            # eager interning realises these as representation identities;
            # a logged merge with these tags has no separate evidence
            raise ReplayError(f"unexpected {just.kind} merge in the log")
        else:
            raise ReplayError(f"unknown justification tag {just.kind!r}")
        ra, rb = uf.find(a), uf.find(b)
        if ra != rb:
            ma = members.pop(ra)
            members[rb] = members[rb] + ma if rb in members else ma
            uf.union(ra, rb)
        validated += 1
    return validated
