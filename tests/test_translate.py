from __future__ import annotations

import pytest

from qitbench.engine import new_qw
from qitbench.errors import DuplicateNameError, WorkbenchError
from qitbench.terms import OMEGA, Arity, Node, Var, omega_table
from qitbench.translate import free_term, freeify, from_w_reductions, from_w_suspension


def test_freeify_bag_ops(bag):
    sig, system = freeify(bag.signature, bag.system, ("c",))
    assert sig.ops == (
        ("inl(c)", Arity(0)),
        ("inr(nil)", Arity(0)),
        ("inr(cons(a))", Arity(1)),
        ("inr(cons(b))", Arity(1)),
    )
    assert len(system.equations) == len(bag.system.equations)


def test_freeify_equations_identical_modulo_tags(bag):
    _, system = freeify(bag.signature, bag.system, ("c",))

    def strip(t):
        if isinstance(t, Var):
            return t
        assert t.op.startswith("inr(")
        return Node(t.op[4:-1], tuple(strip(b) for b in t.branches))

    for old, new in zip(bag.system.equations, system.equations):
        assert old.name == new.name
        assert strip(new.lhs) == old.lhs
        assert strip(new.rhs) == old.rhs


def test_free_term_recodes_generators_and_operators(bag):
    ab = Node("cons(a)", (Node("cons(b)", (Var("v"),)),))
    ba = Node("cons(b)", (Node("cons(a)", (Var("v"),)),))
    assert free_term(ab) == Node(
        "inr(cons(a))", (Node("inr(cons(b))", (Node("inl(v)", ()),)),)
    )
    sig, system = freeify(bag.signature, bag.system, ("v",))
    st = new_qw(sig, system)
    assert st.decide_eq(st.intern_term(free_term(ab)), st.intern_term(free_term(ba))).proved


def test_freeify_duplicate_generator(bag):
    with pytest.raises(DuplicateNameError):
        freeify(bag.signature, bag.system, ("c", "c"))


def test_freeify_empty_matches_direct_enumeration(bag):
    # with no generators the retagged construction is the same construction
    sig, system = freeify(bag.signature, bag.system, ())
    for bound in (1, 2, 3, 4):
        direct = new_qw(bag.signature, bag.system).enumerate_classes(bound)
        tagged = new_qw(sig, system).enumerate_classes(bound)
        assert len(direct) == len(tagged)


def test_w_suspension_two_point():
    sig, system = from_w_suspension([("t", 0), ("f", 0)], [("cell", "t", "f")])
    assert sig.ops == (("t", Arity(0)), ("f", Arity(0)))
    (eq,) = system.equations
    assert eq.var_count == 0
    assert eq.lhs == Node("t", ()) and eq.rhs == Node("f", ())
    st = new_qw(sig, system)
    assert len(st.enumerate_classes(1)) == 1


def test_w_suspension_no_cells_is_plain_trees():
    sig, system = from_w_suspension([("c", 0), ("u", 1)], [])
    assert system.equations == ()
    st = new_qw(sig, system)
    assert len(st.enumerate_classes(3)) == 3  # c, u(c), u(u(c))


def test_w_suspension_reflexive_cell_keeps_enumeration():
    # one unary operator related to itself: no closed terms exist at all,
    # so enumeration agrees with the equation-free theory at every bound
    sig, system = from_w_suspension([("a", 1)], [("cell", "a", "a")])
    (eq,) = system.equations
    assert eq.var_count == 2  # the two branch families, side by side
    sig0, system0 = from_w_suspension([("a", 1)], [])
    for bound in (1, 2, 3):
        with_cell = new_qw(sig, system).enumerate_classes(bound)
        without = new_qw(sig0, system0).enumerate_classes(bound)
        assert len(with_cell) == len(without) == 0


def test_w_suspension_cell_equates_branches():
    # with a base point the reflexive cell makes the unary operator
    # branch-blind: a(x) = a(y) for all x, y
    sig, system = from_w_suspension([("base", 0), ("a", 1)], [("cell", "a", "a")])
    st = new_qw(sig, system)
    ax = st.intern_term(Node("a", (Node("base", ()),)))
    ay = st.intern_term(Node("a", (Node("a", (Node("base", ()),)),)))
    assert st.decide_eq(ax, ay).proved


def test_w_suspension_omega_arity():
    sig, system = from_w_suspension([("sup", None), ("z", 0)], [("cell", "z", "z")], probe=2)
    assert sig.arity("sup") == OMEGA
    (eq,) = system.equations
    assert eq.var_count == 0


def test_w_reductions_translation_shape():
    sig, system = from_w_reductions([("mk", 2)], {"mk": 1})
    (eq,) = system.equations
    assert eq.name == "mk"
    assert eq.lhs == Node("mk", (Var(0), Var(1)))
    assert eq.rhs == Var(1)


def test_w_reductions_free_collapse():
    sig, system = from_w_reductions([("mk", 2)], {"mk": 0})
    st = new_qw(sig, system, generators=("v",))
    classes = st.enumerate_classes(5)
    assert len(classes) == 1 and classes[0][1] == Var("v")


def test_w_reductions_no_closed_terms():
    sig, system = from_w_reductions([("mk", 2)], {"mk": 0})
    for bound in (1, 2, 3, 4, 5):
        assert new_qw(sig, system).enumerate_classes(bound) == []


def test_w_reductions_rejects_empty_branching():
    with pytest.raises(WorkbenchError):
        from_w_reductions([("k", 0)], {"k": 0})


def test_w_reductions_rejects_missing_reindex():
    with pytest.raises(WorkbenchError):
        from_w_reductions([("mk", 2)], {})


def test_w_reductions_omega_reindex_within_probe():
    sig, system = from_w_reductions([("sup", None)], {"sup": 1}, probe=3)
    (eq,) = system.equations
    assert eq.var_count == 4
    assert eq.rhs == Var(1)
    assert eq.lhs == Node(
        "sup", omega_table([(i, Var(i)) for i in range(3)], Var(3))
    )
    with pytest.raises(WorkbenchError):
        from_w_reductions([("sup", None)], {"sup": 5}, probe=3)
