"""Equation systems over a signature, satisfaction, and dependent lifting.

An equation relates two terms over a finite set of integer variables
0..n-1.  Countably indexed variable families are truncated upstream at the
probe depth recorded on the system, keeping satisfaction checks finite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .errors import BudgetExceededError, DuplicateNameError, FiberMismatchError
from .terms import (
    Signature,
    Term,
    Var,
    _interp,
    eval_alg,
    map_branches,
    term_from_json,
    term_to_json,
    validate_term,
)


@dataclass(frozen=True)
class Equation:
    name: str
    var_count: int
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class EquationSystem:
    signature: Signature
    equations: tuple[Equation, ...]
    probe: int = 2

    def equation(self, name: str) -> Equation:
        for e in self.equations:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "eqs": [
                {
                    "name": e.name,
                    "vars": e.var_count,
                    "lhs": term_to_json(e.lhs),
                    "rhs": term_to_json(e.rhs),
                }
                for e in self.equations
            ],
            "probe": self.probe,
        }

    @staticmethod
    def from_json(sig: Signature, obj: dict) -> "EquationSystem":
        eqs = [
            (e["name"], int(e["vars"]), term_from_json(e["lhs"]), term_from_json(e["rhs"]))
            for e in obj["eqs"]
        ]
        return make_system(sig, eqs, probe=int(obj.get("probe", 2)))


def make_system(
    sig: Signature,
    eqs: Iterable[tuple[str, int, Term, Term]],
    *,
    probe: int = 2,
) -> EquationSystem:
    """Validated system: names distinct, operators known, every variable an
    integer below the equation's variable count."""
    out = []
    seen = set()
    for name, var_count, lhs, rhs in eqs:
        if name in seen:
            raise DuplicateNameError(f"duplicate equation name {name!r}")
        seen.add(name)
        domain = range(var_count)
        validate_term(sig, lhs, var_domain=domain)
        validate_term(sig, rhs, var_domain=domain)
        out.append(Equation(name, var_count, lhs, rhs))
    return EquationSystem(sig, tuple(out), probe=probe)


@dataclass(frozen=True)
class SatReport:
    satisfied: bool
    eq_name: str | None = None
    env: tuple | None = None
    lhs_val: Any = None
    rhs_val: Any = None

    def to_json(self) -> dict:
        if self.satisfied:
            return {"verdict": "satisfied"}
        return {
            "verdict": "violated",
            "equation": self.eq_name,
            "environment": list(self.env),
            "lhs": self.lhs_val,
            "rhs": self.rhs_val,
        }


def sat_check(alg: Any, system: EquationSystem, *, env_budget: int = 200_000) -> SatReport:
    """Check every equation under every environment into the carrier.

    Enumeration is lexicographic in (equation name, then environment in
    carrier order), so the first violation is deterministic.
    """
    carrier = alg.carrier
    total = sum(len(carrier) ** e.var_count for e in system.equations)
    if total > env_budget:
        raise BudgetExceededError(
            f"{total} environments exceed the budget of {env_budget}"
        )
    for e in sorted(system.equations, key=lambda e: e.name):
        for env in itertools.product(carrier, repeat=e.var_count):
            lv = eval_alg(e.lhs, env, alg)
            rv = eval_alg(e.rhs, env, alg)
            if lv != rv:
                return SatReport(False, e.name, env, lv, rv)
    return SatReport(True)


def lift(
    family: Callable[[Any], Iterable],
    step: Callable[[str, Any, Any], Any],
    env: Any,
    t: Term,
    index_alg: Any,
) -> Any:
    """Dependent evaluation: leaves give their assigned value, nodes apply
    the dependent step to the branch indices (evaluated through
    ``index_alg``) and the recursively lifted branch values.  The result is
    checked to lie in the fiber over the evaluated index."""
    idx, val = _lift_pair(family, step, env, t, index_alg)
    return val


def _lift_pair(family, step, env, t, index_alg):
    if isinstance(t, Var):
        idx, val = env[t.name]
        if val not in family(idx):
            raise FiberMismatchError(
                f"leaf value {val!r} outside the fiber over {idx!r}"
            )
        return idx, val
    pairs = map_branches(
        lambda b: _lift_pair(family, step, env, b, index_alg), t.branches
    )
    idx_branches = map_branches(lambda p: p[0], pairs)
    val_branches = map_branches(lambda p: p[1], pairs)
    idx = _interp(index_alg, t.op, idx_branches)
    val = step(t.op, idx_branches, val_branches)
    if val not in family(idx):
        raise FiberMismatchError(
            f"step value {val!r} outside the fiber over {idx!r} at {t.op!r}"
        )
    return idx, val
