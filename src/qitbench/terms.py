"""Signatures, terms over them, and finite algebras.

Terms form the free monad over a signature: variable leaves plus operator
nodes.  Operators are finitary or countably branching.  A countable branch
map is kept as a finite table over indexed positions plus a mandatory
default value, so every term is finitely described and structural equality
is decidable.  Branch tables are normalised (indices sorted, entries equal
to the default dropped), which makes structural equality coincide with
extensional equality probed at any depth.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    DuplicateNameError,
    UnboundVariableError,
    UnknownOperatorError,
)


@dataclass(frozen=True)
class Arity:
    """Branching shape of an operator: ``Arity(n)`` is finitary with branch
    indices 0..n-1, ``Arity(None)`` (alias ``OMEGA``) branches over all
    naturals via table-plus-default maps."""

    finite: int | None = None

    @property
    def is_omega(self) -> bool:
        return self.finite is None

    def to_json(self) -> dict:
        if self.is_omega:
            return {"omega": True}
        return {"finite": self.finite}

    @staticmethod
    def from_json(obj: dict) -> "Arity":
        if obj.get("omega"):
            return OMEGA
        return Arity(int(obj["finite"]))


OMEGA = Arity(None)


@dataclass(frozen=True)
class Signature:
    """A finite list of named operators with arities. Names are distinct."""

    ops: tuple[tuple[str, Arity], ...]

    def __post_init__(self):
        by_name: dict[str, Arity] = {}
        for name, arity in self.ops:
            if name in by_name:
                raise DuplicateNameError(f"duplicate operator {name!r}")
            by_name[name] = arity
        object.__setattr__(self, "_by_name", by_name)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def has_op(self, name: str) -> bool:
        return name in self._by_name

    def arity(self, name: str) -> Arity:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownOperatorError(f"unknown operator {name!r}") from None

    def to_json(self) -> dict:
        return {"ops": [{"name": n, "arity": a.to_json()} for n, a in self.ops]}

    @staticmethod
    def from_json(obj: dict) -> "Signature":
        return Signature(
            tuple((o["name"], Arity.from_json(o["arity"])) for o in obj["ops"])
        )


def signature(ops: Iterable[tuple[str, Any]]) -> Signature:
    """Build a signature coercing ``int`` and ``None`` arities."""
    fixed = []
    for name, a in ops:
        if isinstance(a, Arity):
            fixed.append((name, a))
        elif a is None:
            fixed.append((name, OMEGA))
        else:
            fixed.append((name, Arity(int(a))))
    return Signature(tuple(fixed))


@dataclass(frozen=True)
class OmegaTable:
    """Branch map for a countably branching position: finitely many indexed
    entries plus a default covering every other index."""

    entries: tuple[tuple[int, Any], ...]
    default: Any

    def at(self, i: int) -> Any:
        for j, v in self.entries:
            if j == i:
                return v
        return self.default

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def values(self) -> Iterator[Any]:
        for _, v in self.entries:
            yield v
        yield self.default


def omega_table(entries: Any, default: Any) -> OmegaTable:
    """Normalising constructor: sorts entries, checks indices are distinct
    naturals, and drops entries equal to the default."""
    if isinstance(entries, Mapping):
        pairs = list(entries.items())
    else:
        pairs = list(entries)
    seen = set()
    kept = []
    for i, v in pairs:
        if not isinstance(i, int) or i < 0:
            raise ArityMismatchError(f"branch index {i!r} is not a natural number")
        if i in seen:
            raise ArityMismatchError(f"duplicate branch index {i}")
        seen.add(i)
        if v != default:
            kept.append((i, v))
    kept.sort(key=lambda p: p[0])
    return OmegaTable(tuple(kept), default)


def map_branches(f: Callable[[Any], Any], branches: Any, *, normalize: bool = False):
    """Apply ``f`` to every branch value. ``normalize`` re-normalises omega
    tables afterwards and is meant for term-valued results."""
    if isinstance(branches, OmegaTable):
        mapped = tuple((i, f(v)) for i, v in branches.entries)
        default = f(branches.default)
        if normalize:
            return omega_table(mapped, default)
        return OmegaTable(mapped, default)
    return tuple(f(v) for v in branches)


def branch_values(branches: Any) -> Iterator[Any]:
    if isinstance(branches, OmegaTable):
        yield from branches.values()
    else:
        yield from branches


def probe_key(branches: Any, probe: int) -> tuple:
    """Canonical comparison key for a branch map: finite maps are the tuple
    itself, countable maps are compared at indices 0..probe-1 and the
    default."""
    if isinstance(branches, OmegaTable):
        return ("omega",) + tuple(branches.at(i) for i in range(probe)) + (
            branches.default,
        )
    return ("finite",) + tuple(branches)


@dataclass(frozen=True)
class Var:
    """A variable (or generator) leaf."""

    name: Any


@dataclass(frozen=True)
class Node:
    """An operator applied to a branch map of subterms."""

    op: str
    branches: Any  # tuple[Term, ...] | OmegaTable of Term


Term = Any  # Var | Node


@dataclass(frozen=True)
class OpNode:
    """One operator layer over an arbitrary carrier (terms, classes, or
    algebra values)."""

    op: str
    branches: Any


def node(op: str, *branches: Term) -> Node:
    return Node(op, tuple(branches))


def omega_node(op: str, entries: Any, default: Term) -> Node:
    return Node(op, omega_table(entries, default))


def iota(s: OpNode) -> Node:
    """Depth-one term from an operator layer: wrap every branch in a leaf."""
    return Node(s.op, map_branches(Var, s.branches, normalize=True))


def map_opnode(f: Callable[[Any], Any], s: OpNode) -> OpNode:
    return OpNode(s.op, map_branches(f, s.branches))


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(b) for b in branch_values(t.branches))


def _payload_key(p: Any) -> tuple:
    if isinstance(p, bool):
        p = int(p)
    if isinstance(p, int):
        return (0, p)
    if isinstance(p, str):
        return (1, p)
    if isinstance(p, tuple):
        return (2, tuple(_payload_key(x) for x in p))
    raise TypeError(f"unorderable variable payload {p!r}")


def term_key(t: Term) -> tuple:
    """Total order key: by size, then leaf-before-node, then operator name,
    then branches pointwise. Deterministic representatives depend on it."""
    if isinstance(t, Var):
        return (1, 0, _payload_key(t.name))
    return node_key(t.op, map_branches(term_key, t.branches))


def node_key(op: str, keys: Any) -> tuple:
    """:func:`term_key` of a node from its branches' keys; the size is read
    off the children's keys, so no subtree is walked again."""
    if isinstance(keys, OmegaTable):
        size = 1 + keys.default[0] + sum(k[0] for _, k in keys.entries)
        return (size, 1, op, (1, keys.entries, keys.default))
    return (1 + sum(k[0] for k in keys), 1, op, (0, keys))


def term_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset([t.name])
    out: set = set()
    for b in branch_values(t.branches):
        out |= term_vars(b)
    return frozenset(out)


def validate_term(sig: Signature, t: Term, *, var_domain=None) -> None:
    """Checks operators exist, branch shapes match arities, and (optionally)
    that every variable lies in ``var_domain``."""
    if isinstance(t, Var):
        if var_domain is not None and t.name not in var_domain:
            raise UnboundVariableError(f"variable {t.name!r} is not declared")
        return
    arity = sig.arity(t.op)
    if arity.is_omega:
        if not isinstance(t.branches, OmegaTable):
            raise ArityMismatchError(f"{t.op!r} needs a table-plus-default branch map")
    else:
        if isinstance(t.branches, OmegaTable) or len(t.branches) != arity.finite:
            raise ArityMismatchError(
                f"{t.op!r} expects {arity.finite} branches"
            )
    for b in branch_values(t.branches):
        validate_term(sig, b, var_domain=var_domain)


def _interp(alg: Any, op: str, branches: Any) -> Any:
    fn = alg.interp if isinstance(alg, FiniteAlgebra) else alg
    return fn(op, branches)


def eval_alg(t: Term, env: Any, alg: Any) -> Any:
    """Evaluate a term in an algebra: leaves through ``env`` (a mapping or a
    tuple indexed by integer variables), nodes through the algebra step."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except (KeyError, IndexError, TypeError):
            raise UnboundVariableError(
                f"variable {t.name!r} outside the environment"
            ) from None
    return _interp(alg, t.op, map_branches(lambda b: eval_alg(b, env, alg), t.branches))


def subst(t: Term, rho: Any) -> Term:
    """Kleisli extension: replace every leaf by its image term."""
    if isinstance(t, Var):
        try:
            return rho[t.name]
        except (KeyError, IndexError, TypeError):
            raise UnboundVariableError(
                f"variable {t.name!r} outside the substitution"
            ) from None
    return Node(t.op, map_branches(lambda b: subst(b, rho), t.branches, normalize=True))


def map_term(f: Callable[[Any], Any], t: Term) -> Term:
    """Relabel leaves; equal to substituting leaf-for-leaf."""
    if isinstance(t, Var):
        return Var(f(t.name))
    return Node(t.op, map_branches(lambda b: map_term(f, b), t.branches, normalize=True))


def term_algebra(op: str, branches: Any) -> Node:
    """The free algebra step: build the node itself. Usable as ``alg`` in
    :func:`eval_alg` for substitution-by-evaluation checks."""
    if isinstance(branches, OmegaTable):
        return Node(op, omega_table(branches.entries, branches.default))
    return Node(op, branches)


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite enumerated carrier with a total operator interpretation.

    ``interp(op, branches)`` receives branch maps whose values lie in the
    carrier; for countably branching operators it must depend only on the
    probed positions and the default."""

    carrier: tuple
    interp: Callable[[str, Any], Any]
    name: str = ""


def table_algebra(
    sig: Signature, carrier: tuple, table: Mapping, *, probe: int = 2, name: str = ""
) -> FiniteAlgebra:
    """Algebra backed by a lookup table keyed by ``(op, probe_key)``."""

    def interp(op: str, branches: Any) -> Any:
        if not sig.has_op(op):
            raise UnknownOperatorError(f"unknown operator {op!r}")
        key = (op, probe_key(branches, probe))
        try:
            return table[key]
        except KeyError:
            raise ArityMismatchError(f"no interpretation for {op!r} at {key[1]!r}") from None

    return FiniteAlgebra(tuple(carrier), interp, name=name)


def branch_assignments(arity: Arity, carrier: tuple, probe: int) -> Iterator[Any]:
    """All branch maps over a finite carrier, countable ones probed: every
    choice of values at indices 0..probe-1 plus a default."""
    if arity.is_omega:
        for combo in itertools.product(carrier, repeat=probe + 1):
            yield omega_table(tuple(enumerate(combo[:-1])), combo[-1])
    else:
        yield from itertools.product(carrier, repeat=arity.finite)


def count_opnodes(sig: Signature, carrier_size: int, probe: int) -> int:
    total = 0
    for _, arity in sig.ops:
        width = probe + 1 if arity.is_omega else arity.finite
        total += carrier_size**width
    return total


def enumerate_opnodes(sig: Signature, carrier: tuple, probe: int) -> Iterator[OpNode]:
    """Operator layers over a carrier in canonical order: signature order,
    then branch assignments lexicographic in carrier order."""
    for opname, arity in sig.ops:
        for branches in branch_assignments(arity, carrier, probe):
            yield OpNode(opname, branches)


@dataclass(frozen=True)
class HomReport:
    ok: bool
    counterexample: OpNode | None = None


def check_hom(
    h: Mapping,
    src: FiniteAlgebra,
    dst: FiniteAlgebra,
    sig: Signature,
    *,
    probe: int = 2,
    budget: int = 200_000,
) -> HomReport:
    """Check ``h`` is an algebra homomorphism by enumerating every operator
    layer over the source carrier: the step taken after mapping must agree
    with mapping the step's result."""
    if count_opnodes(sig, len(src.carrier), probe) > budget:
        raise BudgetExceededError("operator layer enumeration exceeds the budget")
    for s in enumerate_opnodes(sig, src.carrier, probe):
        mapped = map_branches(lambda y: h[y], s.branches)
        lhs = _interp(dst, s.op, mapped)
        rhs = h[_interp(src, s.op, s.branches)]
        if lhs != rhs:
            return HomReport(False, s)
    return HomReport(True, None)


# --- JSON wire format -------------------------------------------------------
#
# signature: {"ops": [{"name": n, "arity": {"finite": k} | {"omega": true}}]}
# term: {"var": payload} | {"op": n, "branches": [term, ...]}
#       | {"op": n, "branches": {"table": [[i, term], ...], "default": term}}
# Payloads are strings, integers, or (nested) lists standing for tuples.


def _payload_to_json(p: Any) -> Any:
    if isinstance(p, tuple):
        return [_payload_to_json(x) for x in p]
    if isinstance(p, (str, int)):
        return p
    raise TypeError(f"unserialisable variable payload {p!r}")


def _payload_from_json(obj: Any) -> Any:
    if isinstance(obj, list):
        return tuple(_payload_from_json(x) for x in obj)
    return obj


def term_to_json(t: Term) -> dict:
    if isinstance(t, Var):
        return {"var": _payload_to_json(t.name)}
    b = t.branches
    if isinstance(b, OmegaTable):
        branches = {
            "table": [[i, term_to_json(v)] for i, v in b.entries],
            "default": term_to_json(b.default),
        }
    else:
        branches = [term_to_json(v) for v in b]
    return {"op": t.op, "branches": branches}


def term_from_json(obj: dict) -> Term:
    if "var" in obj:
        return Var(_payload_from_json(obj["var"]))
    b = obj["branches"]
    if isinstance(b, dict):
        return Node(
            obj["op"],
            omega_table(
                [(int(i), term_from_json(v)) for i, v in b["table"]],
                term_from_json(b["default"]),
            ),
        )
    return Node(obj["op"], tuple(term_from_json(v) for v in b))


def canonical_dumps(obj: Any) -> str:
    """One canonical JSON text per value; round-trips must be byte exact."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
