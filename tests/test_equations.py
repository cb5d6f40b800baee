from __future__ import annotations

import itertools

import pytest

from qitbench.encodings import (
    cons,
    length_algebra,
    one_point_algebra,
    parity_algebra,
)
from qitbench.equations import EquationSystem, make_system, sat_check
from qitbench.errors import (
    BudgetExceededError,
    DuplicateNameError,
    UnboundVariableError,
    UnknownOperatorError,
)
from qitbench.terms import (
    FiniteAlgebra,
    Node,
    Var,
    branch_values,
    canonical_dumps,
    signature,
)


@pytest.fixture(scope="module")
def bag_sig():
    return signature([("nil", 0), ("cons(a)", 1), ("cons(b)", 1)])


def _swap_eqs():
    out = []
    for x in ("a", "b"):
        for y in ("a", "b"):
            out.append(
                (
                    f"swap({x},{y})",
                    1,
                    cons(x, cons(y, Var(0))),
                    cons(y, cons(x, Var(0))),
                )
            )
    return out


def test_make_system_accepts_bag(bag_sig):
    system = make_system(bag_sig, _swap_eqs(), probe=2)
    assert len(system.equations) == 4
    assert system.equation("swap(a,b)").var_count == 1


def test_make_system_rejects_unbound_variable(bag_sig):
    with pytest.raises(UnboundVariableError):
        make_system(bag_sig, [("bad", 1, Var(1), Var(0))])


def test_make_system_rejects_unknown_operator(bag_sig):
    with pytest.raises(UnknownOperatorError):
        make_system(bag_sig, [("bad", 1, Node("zap", ()), Var(0))])


def test_make_system_rejects_duplicate_names(bag_sig):
    eq = ("dup", 1, Var(0), Var(0))
    with pytest.raises(DuplicateNameError):
        make_system(bag_sig, [eq, eq])


def test_omega_tree_system_accepted(omega_tree):
    # countably indexed variables truncated at the probe: two probed slots
    # plus the default slot
    assert all(e.var_count == 3 for e in omega_tree.system.equations)
    assert omega_tree.system.probe == 2


def test_sat_parity_satisfied(bag_sig):
    system = make_system(bag_sig, _swap_eqs())
    assert sat_check(parity_algebra(), system).satisfied


def test_sat_length_satisfied(bag_sig):
    system = make_system(bag_sig, _swap_eqs())
    assert sat_check(length_algebra(4), system).satisfied


def test_sat_violation_witness(bag_sig):
    # prepending a adds one, prepending b resets: the swap breaks at the
    # empty environment value 0 with lhs 1 and rhs 0
    system = make_system(bag_sig, _swap_eqs())

    def interp(op, branches):
        if op == "nil":
            return 0
        (b,) = tuple(branch_values(branches))
        return min(b + 1, 2) if op == "cons(a)" else 0

    alg = FiniteAlgebra((0, 1, 2), interp)
    report = sat_check(alg, system)
    assert not report.satisfied
    assert report.eq_name == "swap(a,b)"
    assert report.env == (0,)
    assert (report.lhs_val, report.rhs_val) == (1, 0)


def test_sat_verdict_independent_of_enumeration_order(bag_sig):
    # permuting the carrier permutes the environments; the verdict and the
    # violated equation name stay put (the witness may move)
    system = make_system(bag_sig, _swap_eqs())

    def interp(op, branches):
        if op == "nil":
            return 0
        (b,) = tuple(branch_values(branches))
        return min(b + 1, 2) if op == "cons(a)" else 0

    for carrier in itertools.permutations((0, 1, 2)):
        report = sat_check(FiniteAlgebra(tuple(carrier), interp), system)
        assert not report.satisfied
        assert report.eq_name == "swap(a,b)"
    assert sat_check(
        FiniteAlgebra(("odd", "even"), parity_algebra().interp), system
    ).satisfied


def test_sat_budget(bag_sig):
    system = make_system(bag_sig, _swap_eqs())
    with pytest.raises(BudgetExceededError):
        sat_check(length_algebra(4), system, env_budget=3)


def test_sat_one_point_always(bag_sig, omega_tree):
    assert sat_check(one_point_algebra(), make_system(bag_sig, _swap_eqs())).satisfied
    assert sat_check(one_point_algebra(), omega_tree.system).satisfied


def test_system_json_round_trip(bag_sig):
    system = make_system(bag_sig, _swap_eqs(), probe=3)
    obj = system.to_json()
    assert obj["probe"] == 3
    again = EquationSystem.from_json(bag_sig, obj)
    assert again == system
    assert canonical_dumps(again.to_json()) == canonical_dumps(obj)
