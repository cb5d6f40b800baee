"""Signature-level translations: free algebras over generators and the two
classic constructions that arrive as signatures plus equations."""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from .equations import EquationSystem, make_system
from .errors import DuplicateNameError, WorkbenchError
from .terms import OMEGA, Arity, Node, Signature, Term, Var, map_branches, omega_table


def free_term(t: Term) -> Term:
    """Re-code a term over ``freeify``'s signature: an operator ``op``
    becomes ``inr(op)`` and a generator leaf ``g`` the constant ``inl(g)``;
    equation variables (integers) stay."""
    if isinstance(t, Var):
        return t if isinstance(t.name, int) else Node(f"inl({t.name})", ())
    return Node(f"inr({t.op})", map_branches(free_term, t.branches, normalize=True))


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


def _coerce_arity(a: Any) -> Arity:
    if isinstance(a, Arity):
        return a
    if a is None:
        return OMEGA
    return Arity(int(a))


def _block_vars(arity: Arity, offset: int, probe: int):
    """Branch map reading one variable per branch position; countable
    positions get probed variables plus a default variable."""
    if arity.is_omega:
        return (
            omega_table([(i, Var(offset + i)) for i in range(probe)], Var(offset + probe)),
            probe + 1,
        )
    return tuple(Var(offset + i) for i in range(arity.finite)), arity.finite


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
    sig = Signature(tuple((n, _coerce_arity(a)) for n, a in point_ops))
    eqs = []
    for cell_name, left_op, right_op in cells:
        la = sig.arity(left_op)
        ra = sig.arity(right_op)
        lbranches, lwidth = _block_vars(la, 0, probe)
        rbranches, rwidth = _block_vars(ra, lwidth, probe)
        eqs.append(
            (
                cell_name,
                lwidth + rwidth,
                Node(left_op, lbranches),
                Node(right_op, rbranches),
            )
        )
    return sig, make_system(sig, eqs, probe=probe)


def from_w_reductions(
    ops: Iterable[tuple[str, Any]],
    reindex: Mapping[str, int],
    *,
    probe: int = 2,
) -> tuple[Signature, EquationSystem]:
    """Reduction-style presentation: every operator application collapses
    to one of its own branches, the one picked by the reindexing map."""
    sig = Signature(tuple((n, _coerce_arity(a)) for n, a in ops))
    eqs = []
    for name, arity in sig.ops:
        if name not in reindex:
            raise WorkbenchError(f"reindexing map undefined at {name!r}")
        r = reindex[name]
        if arity.is_omega:
            width = probe + 1
            if not 0 <= r < probe:
                raise WorkbenchError(
                    f"reindexing of {name!r} must hit a probed branch (0..{probe - 1})"
                )
        else:
            width = arity.finite
            if width == 0:
                raise WorkbenchError(
                    f"operator {name!r} has no branches to collapse to"
                )
            if not 0 <= r < width:
                raise WorkbenchError(f"reindexing of {name!r} out of range")
        branches, _ = _block_vars(arity, 0, probe)
        eqs.append((name, width, Node(name, branches), Var(r)))
    return sig, make_system(sig, eqs, probe=probe)
