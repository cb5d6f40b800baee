"""Ready-made instances with oracles and reference algebras.

Each instance bundles a signature, its equations, and (when ground
equality is decidable by other means) an oracle used to cross-check the
engine.  Oracles are total decision procedures on closed terms and are
congruences for their signature.  The multiset and countably branching
tree instances are elaborated from declarations in the surface language.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from .equations import EquationSystem, make_system
from .errors import WorkbenchError
from .schema import elaborate, parse_decl, perm_repr
from .terms import (
    OMEGA,
    FiniteAlgebra,
    Node,
    Record,
    Signature,
    Term,
    Var,
    branch_values,
    omega_table,
    signature,
    var_block,
)


class EncodedInstance(Record):
    def __init__(self, name: str, signature: Signature, system: EquationSystem, oracle=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "oracle", oracle)  # (Term, Term) -> bool, or None


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


def _elaborated(template: str, elements: Iterable, probe: int, **fields) -> tuple:
    """Elaborate a declaration template over an element set ``X``, which
    must read back as the given elements."""
    elements = tuple(elements)
    decl = parse_decl(template.format(elements=", ".join(map(str, elements)), **fields))
    if [str(x) for x in decl.enum("X")] != [str(x) for x in elements]:
        raise WorkbenchError(f"elements {elements!r} are not identifiers or numerals")
    return elaborate(decl, probe=probe)


_BAG = """\
data Bag : Set with X = {{{elements}}} where
  nil  : Bag
  cons : (x : X) (ys : Bag) -> Bag
  swap : (x : X) (y : X) (ys : Bag) -> cons(x, cons(y, ys)) == cons(y, cons(x, ys))
"""


def bag_of(elements: Iterable[Any] = ("a", "b")) -> EncodedInstance:
    """Finite multisets over a finite element set: an empty list, one
    prepend operator per element, and adjacent prepends commute.  Built by
    elaborating the declaration of ``tests/fixtures/bag.qit`` over the
    elements, which must be identifiers or numerals.  The oracle compares
    occurrence multisets."""
    sig, system = _elaborated(_BAG, elements, 2)

    def oracle(t: Term, u: Term) -> bool:
        return _occurrence_multiset(t) == _occurrence_multiset(u)

    return EncodedInstance("bag", sig, system, oracle)


# -- unordered countably branching trees ---------------------------------------------


_OMEGA_TREE = """\
data OmegaTree : Set with X = {{{elements}}}, F = perms {{{tables}}} where
  leaf : OmegaTree
  node : (x : X) (g : Nat -> OmegaTree) -> OmegaTree
  perm : (x : X) (f : F) (g : Nat -> OmegaTree) -> node(x, g) == node(x, g . f)
"""


def omega_tree_of(
    elements: Iterable[Any] = ("a", "b"),
    probe: int = 2,
    perms: Iterable[tuple] = (((0, 1), (1, 0)),),
) -> EncodedInstance:
    """Labelled trees with countably many children, unordered up to the
    listed permutations.  Built by elaborating the declaration of
    ``tests/fixtures/omega_tree.qit`` over the elements and tables, so a
    table that is not a bijection inside the probed range is the parser's
    or the elaborator's positioned error.  Ground equality is only
    semi-decided by the engine, so there is no oracle."""
    tables = ", ".join(map(perm_repr, perms))
    sig, system = _elaborated(_OMEGA_TREE, elements, probe, tables=tables)
    return EncodedInstance("omega-tree", sig, system)


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

    eqs = [
        # sup of a constant family is its value
        ("sup_const", 1, sup([], Var(0)), Var(0)),
        # swapping the first two probed branches changes nothing
        (
            "sup_swap01",
            OMEGA.width(k),
            Node("sup", var_block(OMEGA, 0, k)),
            Node("sup", var_block(OMEGA, 0, k, {0: 1, 1: 0})),
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
    return EncodedInstance("ordinal-notations", sig, system)


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
