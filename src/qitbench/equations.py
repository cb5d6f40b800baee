"""Equation systems over a signature and their satisfaction.

An equation relates two terms over a finite set of integer variables
0..n-1.  Countably indexed variable families are truncated upstream at the
probe depth recorded on the system, keeping satisfaction checks finite.

Every check that quantifies over equation instances reads them from
:func:`instances`: equations by name, environments in carrier order, and
the instance count checked against a budget before the first is built.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, DuplicateNameError
from .terms import (
    Record,
    Signature,
    Term,
    eval_alg,
    term_from_json,
    term_to_json,
    validate_term,
)


class Equation(Record):
    def __init__(self, name: str, var_count: int, lhs: Term, rhs: Term):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "var_count", var_count)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class EquationSystem(Record):
    def __init__(self, signature: Signature, equations: tuple[Equation, ...], probe: int = 2):
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "probe", probe)

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


class SatReport(Record):
    def __init__(self, satisfied: bool, eq_name=None, env=None, lhs_val=None, rhs_val=None):
        object.__setattr__(self, "satisfied", satisfied)
        object.__setattr__(self, "eq_name", eq_name)
        object.__setattr__(self, "env", env)
        object.__setattr__(self, "lhs_val", lhs_val)
        object.__setattr__(self, "rhs_val", rhs_val)

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


ENV_BUDGET = 200_000  # equation instances, where the caller sets no other budget


def instance_count(system: EquationSystem, size: int) -> int:
    """Equation instances over a carrier of ``size`` elements."""
    return sum(size**e.var_count for e in system.equations)


def instances(
    system: EquationSystem, carrier: Sequence, budget: int
) -> Iterator[tuple[Equation, tuple]]:
    """Every ``(equation, environment)`` over the carrier, lexicographic in
    (equation name, then environment in carrier order).  The count is
    checked against ``budget`` on the call, before any is yielded."""
    total = instance_count(system, len(carrier))
    if total > budget:
        raise BudgetExceededError(f"{total} environments exceed the budget of {budget}")
    return (
        (e, env)
        for e in sorted(system.equations, key=lambda e: e.name)
        for env in itertools.product(carrier, repeat=e.var_count)
    )


def sat_check(alg: Any, system: EquationSystem, *, env_budget: int = ENV_BUDGET) -> SatReport:
    """Check every equation under every environment into the carrier, in
    :func:`instances` order, so the first violation is deterministic."""
    for e, env in instances(system, alg.carrier, env_budget):
        lv = eval_alg(e.lhs, env, alg)
        rv = eval_alg(e.rhs, env, alg)
        if lv != rv:
            return SatReport(False, e.name, env, lv, rv)
    return SatReport(True)
