"""Ready-made instances with oracles and reference algebras.

Each instance bundles a signature, its equations, and (when ground
equality is decidable by other means) an oracle used to cross-check the
engine.  Oracles are total decision procedures on closed terms and are
congruences for their signature.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .equations import EquationSystem, make_system
from .errors import WorkbenchError
from .schema import perm_repr
from .terms import (
    FiniteAlgebra,
    Node,
    Signature,
    Term,
    Var,
    branch_values,
    omega_table,
    signature,
)


@dataclass(frozen=True)
class EncodedInstance:
    name: str
    signature: Signature
    system: EquationSystem
    oracle: Callable[[Term, Term], bool] | None = None
    generators: tuple = ()
    notes: str = ""


# -- finite multisets --------------------------------------------------------------


def cons(x: Any, tail: Term) -> Node:
    return Node(f"cons({x})", (tail,))


NIL = Node("nil", ())


def bag_term(items: Iterable[Any]) -> Term:
    out: Term = NIL
    for x in reversed(list(items)):
        out = cons(x, out)
    return out


def _occurrence_multiset(t: Term) -> tuple:
    counts: Counter = Counter()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Node):
            if cur.op != "nil":
                counts[cur.op] += 1
            stack.extend(branch_values(cur.branches))
    return tuple(sorted(counts.items()))


def bag_of(elements: Iterable[Any] = ("a", "b")) -> EncodedInstance:
    """Finite multisets over a finite element set: an empty list, one
    prepend operator per element, and adjacent prepends commute.  The
    oracle compares occurrence multisets."""
    elements = tuple(elements)
    sig = signature([("nil", 0)] + [(f"cons({x})", 1) for x in elements])
    eqs = []
    for x in elements:
        for y in elements:
            eqs.append(
                (
                    f"swap({x},{y})",
                    1,
                    cons(x, cons(y, Var(0))),
                    cons(y, cons(x, Var(0))),
                )
            )
    system = make_system(sig, eqs, probe=2)

    def oracle(t: Term, u: Term) -> bool:
        return _occurrence_multiset(t) == _occurrence_multiset(u)

    return EncodedInstance(
        "bag",
        sig,
        system,
        oracle,
        notes="multisets as lists modulo adjacent swaps",
    )


# -- unordered countably branching trees ---------------------------------------------


def omega_tree_of(
    elements: Iterable[Any] = ("a", "b"),
    probe: int = 2,
    perms: Iterable[tuple] = (((0, 1), (1, 0)),),
) -> EncodedInstance:
    """Labelled trees with countably many children, unordered up to the
    listed permutations.  Branches are tables over the probed indices plus
    a default; each permutation must be a bijection supported inside the
    probed range.  Ground equality is only semi-decided by the engine, so
    there is no oracle."""
    elements = tuple(elements)
    perms = tuple(tuple(sorted(p)) for p in perms)
    for table in perms:
        srcs = [i for i, _ in table]
        tgts = [j for _, j in table]
        if len(set(srcs)) != len(srcs) or sorted(srcs) != sorted(set(tgts)):
            raise WorkbenchError(f"{perm_repr(table)} is not a bijection on its support")
        if any(i >= probe or j >= probe for i, j in table):
            raise WorkbenchError(
                f"{perm_repr(table)} moves branches outside the probed range"
            )
    sig = signature([("leaf", 0)] + [(f"node({x})", None) for x in elements])
    eqs = []
    for x in elements:
        for table in perms:
            f = dict(table)
            lhs = Node(
                f"node({x})",
                omega_table([(i, Var(i)) for i in range(probe)], Var(probe)),
            )
            rhs = Node(
                f"node({x})",
                omega_table(
                    [(i, Var(f.get(i, i))) for i in range(probe)], Var(probe)
                ),
            )
            eqs.append((f"perm({x},{perm_repr(table)})", probe + 1, lhs, rhs))
    system = make_system(sig, eqs, probe=probe)
    return EncodedInstance(
        "omega-tree",
        sig,
        system,
        None,
        notes=f"countable branching probed at depth {probe}",
    )


def leaf() -> Node:
    return Node("leaf", ())


def tree_node(x: Any, entries, default: Term) -> Node:
    return Node(f"node({x})", omega_table(entries, default))


# -- ordinal notations -----------------------------------------------------------------


def ordinal_notations(*, probe: int = 2) -> EncodedInstance:
    """Notations for countable ordinals: zero, successor, and a countable
    supremum.  The equations shipped here are demo-only suprema laws
    (collapse of constant families, absorption of duplicated, dominated,
    and zero entries, and invariance under swapping the first two probed
    branches).  Equality of notations is genuinely hard; engine queries on
    distinct notations are expected to stay Unknown at default budgets."""
    if probe < 2:
        raise WorkbenchError("ordinal notations need a probe depth of at least 2")
    sig = signature([("zero", 0), ("suc", 1), ("sup", None)])
    k = probe

    def sup(entries, default):
        return Node("sup", omega_table(entries, default))

    full = [(i, Var(i)) for i in range(k)]
    eqs = [
        # sup of a constant family is its value
        ("sup_const", 1, sup([], Var(0)), Var(0)),
        # swapping the first two probed branches changes nothing
        (
            "sup_swap01",
            k + 1,
            sup(full, Var(k)),
            sup([(0, Var(1)), (1, Var(0))] + full[2:], Var(k)),
        ),
        # a duplicated entry is absorbed
        (
            "sup_dup",
            2,
            sup([(0, Var(0)), (1, Var(0))], Var(1)),
            sup([(0, Var(0))], Var(1)),
        ),
        # an entry equal to zero is absorbed
        (
            "sup_zero",
            1,
            sup([(0, Node("zero", ()))], Var(0)),
            sup([], Var(0)),
        ),
        # an entry dominated by the rest of the family is absorbed
        (
            "sup_absorb",
            1,
            sup([(0, sup([], Var(0)))], Var(0)),
            sup([], Var(0)),
        ),
    ]
    system = make_system(sig, eqs, probe=probe)
    return EncodedInstance(
        "ordinal-notations",
        sig,
        system,
        None,
        notes="demo-only supremum laws; no completeness claim",
    )


# -- reference algebras -------------------------------------------------------------------


def one_point_algebra(name: str = "point") -> FiniteAlgebra:
    """The terminal algebra: a single value interprets everything, so every
    equation system is satisfied."""
    return FiniteAlgebra(("*",), lambda op, branches: "*", name=name)


def length_algebra(cap: int = 4) -> FiniteAlgebra:
    """List length saturating at the cap, for multiset instances."""

    def interp(op: str, branches) -> int:
        if op == "nil":
            return 0
        (b,) = tuple(branch_values(branches))
        return min(b + 1, cap)

    return FiniteAlgebra(tuple(range(cap + 1)), interp, name=f"length<={cap}")


def parity_algebra() -> FiniteAlgebra:
    """Length parity: the empty list is even and every prepend flips."""

    def interp(op: str, branches) -> str:
        if op == "nil":
            return "even"
        (b,) = tuple(branch_values(branches))
        return "odd" if b == "even" else "even"

    return FiniteAlgebra(("even", "odd"), interp, name="parity")


def contains_algebra(element: Any) -> FiniteAlgebra:
    """Whether the multiset contains a given element."""

    def interp(op: str, branches) -> int:
        if op == "nil":
            return 0
        if op == f"cons({element})":
            return 1
        (b,) = tuple(branch_values(branches))
        return b

    return FiniteAlgebra((0, 1), interp, name=f"contains({element})")


def count_algebra(element: Any, cap: int) -> FiniteAlgebra:
    """Number of occurrences of one element, saturating at the cap."""

    def interp(op: str, branches) -> int:
        if op == "nil":
            return 0
        (b,) = tuple(branch_values(branches))
        if op == f"cons({element})":
            return min(b + 1, cap)
        return b

    return FiniteAlgebra(tuple(range(cap + 1)), interp, name=f"count({element})<={cap}")
