"""Signature-level translations: free algebras over generators and the two
classic constructions that arrive as signatures plus equations."""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from .equations import EquationSystem, make_system
from .errors import DuplicateNameError, WorkbenchError
from .terms import Arity, Node, Signature, Term, Var, fold_term, signature, term_algebra, var_block


def free_term(t: Term) -> Term:
    """Re-code a term over ``freeify``'s signature: an operator ``op``
    becomes ``inr(op)`` and a generator leaf ``g`` the constant ``inl(g)``;
    equation variables (integers) stay."""
    return fold_term(
        t,
        lambda name: Var(name) if isinstance(name, int) else Node(f"inl({name})", ()),
        lambda op, kids: term_algebra(f"inr({op})", kids),
    )


def freeify(
    sig: Signature, system: EquationSystem, generators: Iterable[str]
) -> tuple[Signature, EquationSystem]:
    """Extend the signature with the generators as extra nullary operators
    (tagged apart from the existing operators) and re-code the equations
    over the extended signature.  The construction over the result is the
    free algebra on the generators."""
    generators = tuple(generators)
    if len(set(generators)) != len(generators):
        raise DuplicateNameError("duplicate generator name")
    ops = [(f"inl({g})", Arity(0)) for g in generators]
    ops += [(f"inr({name})", arity) for name, arity in sig.ops]
    new_sig = Signature(tuple(ops))
    eqs = [
        (e.name, e.var_count, free_term(e.lhs), free_term(e.rhs)) for e in system.equations
    ]
    return new_sig, make_system(new_sig, eqs, probe=system.probe)


def from_w_suspension(
    point_ops: Iterable[tuple[str, Any]],
    cells: Iterable[tuple[str, str, str]],
    *,
    probe: int = 2,
) -> tuple[Signature, EquationSystem]:
    """Suspension-style presentation: named operators, plus cells each
    relating two operators applied to independent branch families.  A
    cell's variables are the two operators' branch positions side by side
    (left block first), so any pair of branch assignments is equated."""
    sig = signature(point_ops)
    eqs = []
    for cell_name, left_op, right_op in cells:
        la, ra = sig.arity(left_op), sig.arity(right_op)
        lwidth = la.width(probe)
        lhs = Node(left_op, var_block(la, 0, probe))
        rhs = Node(right_op, var_block(ra, lwidth, probe))
        eqs.append((cell_name, lwidth + ra.width(probe), lhs, rhs))
    return sig, make_system(sig, eqs, probe=probe)


def from_w_reductions(
    ops: Iterable[tuple[str, Any]],
    reindex: Mapping[str, int],
    *,
    probe: int = 2,
) -> tuple[Signature, EquationSystem]:
    """Reduction-style presentation: every operator application collapses
    to one of its own branches, the one picked by the reindexing map."""
    sig = signature(ops)
    eqs = []
    for name, arity in sig.ops:
        if name not in reindex:
            raise WorkbenchError(f"reindexing map undefined at {name!r}")
        r = reindex[name]
        if arity.is_omega:
            if not 0 <= r < probe:
                raise WorkbenchError(
                    f"reindexing of {name!r} must hit a probed branch (0..{probe - 1})"
                )
        elif arity.finite == 0:
            raise WorkbenchError(f"operator {name!r} has no branches to collapse to")
        elif not 0 <= r < arity.finite:
            raise WorkbenchError(f"reindexing of {name!r} out of range")
        eqs.append((name, arity.width(probe), Node(name, var_block(arity, 0, probe)), Var(r)))
    return sig, make_system(sig, eqs, probe=probe)
