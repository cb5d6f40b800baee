"""Signatures, terms over them, and finite algebras.

Terms form the free monad over a signature: variable leaves plus operator
nodes.  Operators are finitary or countably branching.  A countable branch
map is kept as a finite table over indexed positions plus a mandatory
default value, so every term is finitely described and structural equality
is decidable.  Branch tables are normalised (indices sorted, entries equal
to the default dropped), which makes structural equality coincide with
extensional equality probed at any depth.

This module is the one home of the branch-map format; other modules call
it rather than keep their own copy.  Two maps line up position by position
through :func:`branch_pairs`, a probed carrier sees ``Arity.width``
positions, :func:`var_block` fills a map with a block of equation
variables, and :func:`branches_to_json` writes a map as JSON.

Size, order key, variables, JSON form and evaluation are :func:`fold_term`.
"""

from __future__ import annotations

import itertools
import json
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    DuplicateNameError,
    UnboundVariableError,
    UnknownOperatorError,
)


class Record:
    """Base of the package's immutable records.  A record declares its fields
    once, as its ``__init__`` parameters, and sets each with
    ``object.__setattr__`` (``schema.PatName`` and ``schema.PatApply`` write
    their ``__dict__``; see there).  Records of one class are equal, and
    hash, as the tuple of their fields except those in ``_uncompared``;
    ``repr`` writes every field.  Assigning or deleting an attribute raises."""

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" not in cls.__dict__:  # a base of records, with no fields
            return
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
        names = [n for n in cls._fields if n not in cls._uncompared]
        get = attrgetter(*names) if names else lambda r: ()
        one = len(names) == 1  # then ``get`` gives the bare value, not a 1-tuple

        # set on each class, so that a comparison is one Python call
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),) if one else get(self) == get(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = (lambda self: hash((get(self),))) if one else lambda self: hash(get(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copies and pickles rebuild through ``__init__``
        return self.__class__, tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Arity(Record):
    """Branching shape of an operator: ``Arity(n)`` is finitary with branch
    indices 0..n-1, ``Arity(None)`` (alias ``OMEGA``) branches over all
    naturals via table-plus-default maps."""

    def __init__(self, finite: int | None = None):
        object.__setattr__(self, "finite", finite)

    @property
    def is_omega(self) -> bool:
        return self.finite is None

    def width(self, probe: int) -> int:
        """Positions a carrier probed at ``probe`` sees: the probed indices
        plus the default for a countable operator, else every branch."""
        return probe + 1 if self.finite is None else self.finite

    def to_json(self) -> dict:
        if self.is_omega:
            return {"omega": True}
        return {"finite": self.finite}


OMEGA = Arity(None)


class Signature(Record):
    """A finite list of named operators with arities. Names are distinct."""

    def __init__(self, ops: tuple[tuple[str, Arity], ...]):
        object.__setattr__(self, "ops", ops)
        by_name: dict[str, Arity] = {}
        for name, arity in ops:
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


class OmegaTable(Record):
    """Branch map for a countably branching position: finitely many indexed
    entries plus a default covering every other index."""

    def __init__(self, entries: tuple[tuple[int, Any], ...], default: Any):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "default", default)

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
    return tuple(map(f, branches))


def branch_pairs(a: Any, b: Any) -> list[tuple[Any, Any]] | None:
    """Two branch maps lined up position by position, or None when their
    shapes differ.  Finite maps are zipped; countable maps are paired at
    each index either table holds, ascending, then at their defaults, which
    covers every other index."""
    if isinstance(a, OmegaTable):
        if not isinstance(b, OmegaTable):
            return None
        positions = sorted({i for i, _ in a.entries} | {i for i, _ in b.entries})
        pairs = [(a.at(i), b.at(i)) for i in positions]
        pairs.append((a.default, b.default))
        return pairs
    if isinstance(b, OmegaTable) or len(a) != len(b):
        return None
    return list(zip(a, b))


def branches_to_json(branches: Any, f: Callable[[Any], Any]) -> Any:
    """A branch map as JSON, each value written by ``f``: a list, or a
    ``{"table": [[i, v], ...], "default": v}`` object for a countable map."""
    if isinstance(branches, OmegaTable):
        return {
            "table": [[i, f(v)] for i, v in branches.entries],
            "default": f(branches.default),
        }
    return [f(v) for v in branches]


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
        probed = tuple(branches.at(i) for i in range(probe)) + (branches.default,)
        return row_key(True, probed)
    return row_key(False, tuple(branches))


def row_key(omega: bool, values: tuple) -> tuple:
    """:func:`probe_key` of a branch map from whether its operator is
    countable (``Arity.is_omega``) and the values at its probed positions
    (``Arity.width`` of them): each branch of a finite map; indices
    0..probe-1, then the default, of a countable one."""
    return ("omega" if omega else "finite",) + values


class Var(Record):
    """A variable (or generator) leaf."""

    def __init__(self, name: Any):
        object.__setattr__(self, "name", name)


class Node(Record):
    """An operator applied to a branch map of subterms."""

    def __init__(self, op: str, branches: Any):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "branches", branches)  # tuple[Term, ...] | OmegaTable of Term


Term = Any  # Var | Node


class OpNode(Record):
    """One operator layer over an arbitrary carrier (terms, classes, or
    algebra values)."""

    def __init__(self, op: str, branches: Any):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "branches", branches)


def node(op: str, *branches: Term) -> Node:
    return Node(op, tuple(branches))


def omega_node(op: str, entries: Any, default: Term) -> Node:
    return Node(op, omega_table(entries, default))


def var_block(
    arity: Arity, offset: int, probe: int, perm: Mapping[int, int] | None = None
) -> Any:
    """The branch map reading one variable per position, from ``offset`` on:
    position ``i`` reads variable ``offset + perm(i)`` (the identity where
    ``perm`` is silent), and a countable map's default reads the variable
    after its probed ones.  ``arity.width(probe)`` variables in all."""
    perm = perm or {}
    if arity.is_omega:
        return omega_table(
            [(i, Var(offset + perm.get(i, i))) for i in range(probe)], Var(offset + probe)
        )
    return tuple(Var(offset + perm.get(i, i)) for i in range(arity.finite))


def iota(s: OpNode) -> Node:
    """Depth-one term from an operator layer: wrap every branch in a leaf."""
    return Node(s.op, map_branches(Var, s.branches, normalize=True))


def map_opnode(f: Callable[[Any], Any], s: OpNode) -> OpNode:
    return OpNode(s.op, map_branches(f, s.branches))


def fold_term(t: Term, leaf: Callable[[Any], Any], step: Callable[[str, Any], Any]) -> Any:
    """The fold out of the terms: ``leaf(name)`` at a leaf, ``step(op,
    values)`` at a node over its children's values, mapped as
    :func:`map_branches` maps a branch map.  Calls run in post-order,
    children left to right, a countable map's entries before its default."""
    if isinstance(t, Var):
        return leaf(t.name)
    # map_branches inlined, since a closure calling itself is a cycle per fold
    b = t.branches
    if isinstance(b, OmegaTable):
        entries = tuple([(i, fold_term(u, leaf, step)) for i, u in b.entries])
        return step(t.op, OmegaTable(entries, fold_term(b.default, leaf, step)))
    return step(t.op, tuple([fold_term(u, leaf, step) for u in b]))


def term_size(t: Term) -> int:
    return fold_term(t, lambda _: 1, lambda op, sizes: 1 + sum(branch_values(sizes)))


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
    return fold_term(t, lambda name: (1, 0, _payload_key(name)), node_key)


def node_key(op: str, keys: Any) -> tuple:
    """:func:`term_key` of a node from its branches' keys; the size is read
    off the children's keys, so no subtree is walked again."""
    if isinstance(keys, OmegaTable):
        size = 1 + keys.default[0] + sum(k[0] for _, k in keys.entries)
        return (size, 1, op, (1, keys.entries, keys.default))
    return (1 + sum(k[0] for k in keys), 1, op, (0, keys))


def term_vars(t: Term) -> frozenset:
    return fold_term(
        t, lambda name: frozenset([name]), lambda op, vs: frozenset().union(*branch_values(vs))
    )


def validate_term(sig: Signature, t: Term, *, var_domain=None) -> None:
    """Checks operators exist, branch shapes match arities, and (optionally)
    that every variable lies in ``var_domain``."""
    if isinstance(t, Var):
        if var_domain is not None and t.name not in var_domain:
            raise UnboundVariableError(f"variable {t.name!r} is not declared")
        return
    check_branches(sig, t.op, t.branches)
    for b in branch_values(t.branches):
        validate_term(sig, b, var_domain=var_domain)


def check_branches(sig: Signature, op: str, branches: Any) -> None:
    """Checks the operator exists and the branch map has its arity's shape."""
    arity = sig.arity(op)
    if arity.is_omega:
        if not isinstance(branches, OmegaTable):
            raise ArityMismatchError(f"{op!r} needs a table-plus-default branch map")
    elif isinstance(branches, OmegaTable) or len(branches) != arity.finite:
        raise ArityMismatchError(f"{op!r} expects {arity.finite} branches")


def _interp(alg: Any, op: str, branches: Any) -> Any:
    fn = alg.interp if isinstance(alg, FiniteAlgebra) else alg
    return fn(op, branches)


def eval_alg(t: Term, env: Any, alg: Any) -> Any:
    """Evaluate a term in an algebra: leaves through ``env`` (a mapping or a
    tuple indexed by integer variables), nodes through the algebra step."""

    def leaf(name: Any) -> Any:
        try:
            return env[name]
        except (KeyError, IndexError, TypeError):
            raise UnboundVariableError(
                f"variable {name!r} outside the environment"
            ) from None

    return fold_term(t, leaf, partial(_interp, alg))


def subst(t: Term, rho: Any) -> Term:
    """Kleisli extension: replace every leaf by its image term, that is,
    evaluate in the term algebra with ``rho`` as the environment."""
    return eval_alg(t, rho, term_algebra)


def map_term(f: Callable[[Any], Any], t: Term) -> Term:
    """Relabel leaves: substitute each leaf's relabelled leaf."""
    return subst(t, {v: Var(f(v)) for v in term_vars(t)})


def term_algebra(op: str, branches: Any) -> Node:
    """The free algebra step: build the node itself, a countable map
    normalised.  Substitution is evaluation into it, and a class's
    representative the fold into it."""
    if isinstance(branches, OmegaTable):
        return Node(op, omega_table(branches.entries, branches.default))
    return Node(op, branches)


class FiniteAlgebra(Record):
    """A finite enumerated carrier with a total operator interpretation.

    ``interp(op, branches)`` receives branch maps whose values lie in the
    carrier; for countably branching operators it must depend only on the
    probed positions and the default."""

    def __init__(self, carrier: tuple, interp: Callable[[str, Any], Any], name: str = ""):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "interp", interp)
        object.__setattr__(self, "name", name)


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
        total += carrier_size ** arity.width(probe)
    return total


def enumerate_opnodes(sig: Signature, carrier: tuple, probe: int) -> Iterator[OpNode]:
    """Operator layers over a carrier in canonical order: signature order,
    then branch assignments lexicographic in carrier order."""
    for opname, arity in sig.ops:
        for branches in branch_assignments(arity, carrier, probe):
            yield OpNode(opname, branches)


def budgeted_opnodes(
    sig: Signature, carrier: tuple, probe: int, budget: int
) -> Iterator[OpNode]:
    """:func:`enumerate_opnodes`, with the layer count checked against
    ``budget`` on the call, before any layer is built."""
    if count_opnodes(sig, len(carrier), probe) > budget:
        raise BudgetExceededError("operator layer enumeration exceeds the budget")
    return enumerate_opnodes(sig, carrier, probe)


class HomReport(Record):
    def __init__(self, ok: bool, counterexample: OpNode | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "counterexample", counterexample)


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
    for s in budgeted_opnodes(sig, src.carrier, probe, budget):
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
    return fold_term(
        t,
        lambda name: {"var": _payload_to_json(name)},
        lambda op, kids: {"op": op, "branches": branches_to_json(kids, lambda v: v)},
    )


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
