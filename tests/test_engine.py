from __future__ import annotations

import contextlib
import copy
import hashlib
import heapq
import itertools
import json
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from qitbench.encodings import NIL, bag_of, bag_term, cons, omega_tree_of, ordinal_notations
from qitbench.engine import (
    ClassId,
    ENode,
    GenLeaf,
    Justification,
    QWState,
    SaturationResult,
    _Touched,
    closed_terms,
    check_equations_hold,
    find_separator,
    new_qw,
    replay_merges,
)
from qitbench.errors import (
    ArityMismatchError,
    BudgetExceededError,
    ReplayError,
    UnboundVariableError,
    WorkbenchError,
)
from qitbench.equations import make_system, sat_check
from qitbench.schema import elaborate, parse_decl
from qitbench.terms import (
    Node,
    OmegaTable,
    OpNode,
    Var,
    branch_assignments,
    branch_pairs,
    branch_values,
    check_branches,
    enumerate_opnodes,
    eval_alg,
    map_branches,
    node,
    node_key,
    omega_table,
    probe_key,
    signature,
    table_algebra,
    term_algebra,
    term_key,
    term_size,
    term_to_json,
)
from qitbench.translate import from_w_reductions, from_w_suspension


def fresh(inst, **kw):
    return new_qw(inst.signature, inst.system, **kw)


def test_intern_idempotent(bag):
    st = fresh(bag)
    c1 = st.intern_term(bag_term(["a", "b"]))
    c2 = st.intern_term(bag_term(["a", "b"]))
    assert c1 == c2


def test_intern_unknowns(bag):
    st = fresh(bag)
    with pytest.raises(UnboundVariableError):
        st.intern_term(Var("ghost"))
    with pytest.raises(ArityMismatchError):
        st.intern_term(Node("cons(a)", ()))


def test_swap_instances_merge_after_saturation(bag):
    st = fresh(bag)
    ab = st.intern_term(bag_term(["a", "b"]))
    ba = st.intern_term(bag_term(["b", "a"]))
    assert not st.same_class(ab, ba)
    result = st.saturate()
    assert result.fixpoint
    assert st.same_class(ab, ba)


def test_nullary_intern_is_stage_one(bag):
    st = fresh(bag)
    c = st.intern_term(NIL)
    assert st.stage_of(c) == 1
    c2 = st.intern_term(bag_term(["a"]))
    assert st.stage_of(c2) == 2


def test_stage_takes_minimum_after_merge(bag):
    st = fresh(bag)
    ab = st.intern_term(bag_term(["a", "b"]))  # stage 3
    ba = st.intern_term(bag_term(["b", "a"]))
    assert st.stage_of(ab) == 3
    st.saturate()
    assert st.stage_of(ab) == st.stage_of(ba) == 3


def test_stage_is_least_fixpoint_after_merge():
    # f(f(c)) joins the stage-1 class of z, so f(f(f(c))), whose only
    # member is f over that class, sits at stage 2 rather than its
    # interned depth 4
    sig = signature([("z", 0), ("c", 0), ("f", 1)])
    ffc = node("f", node("f", node("c")))
    st = new_qw(sig, make_system(sig, [("ffc", 0, ffc, node("z"))]))
    fffc = st.intern_term(node("f", ffc))
    assert st.stage_of(fffc) == 4
    assert st.saturate().fixpoint
    assert st.stage_of(st.intern_term(ffc)) == 1
    assert st.stage_of(fffc) == 2
    assert st.coerce(fffc, 2) == fffc


def test_near_sets_are_reused_while_the_log_stands():
    # in the second round of saturating the terms of bag(a, b, c) up to
    # size 8, interned one by one, the nine swap equations see the same 98
    # touched classes over an unchanged carrier: one walk up the use lists
    # serves them all
    st = fresh(bag_of(("a", "b", "c")))
    walks = []
    near = st._near
    st._near = lambda touched, height: walks.append(len(touched)) or near(touched, height)
    _listed(st, 8)
    assert walks == [98]


def test_version_moves_on_fresh_intern_and_merge_only(bag):
    st = fresh(bag)
    v0 = st.version
    ab = st.intern_term(bag_term(["a", "b"]))
    v1 = st.version
    assert v1 > v0
    assert st.intern_term(bag_term(["a", "b"])) == ab
    assert st.version == v1
    st.intern_term(bag_term(["b", "a"]))
    v2 = st.version
    assert v2 > v1
    assert st.stale
    st.saturate()  # merges the swap instances
    v3 = st.version
    assert v3 > v2 and not st.stale
    st.saturate()
    assert st.version == v3 and not st.stale


def test_representative_follows_a_lesser_merged_member(bag):
    st = fresh(bag)
    ba = st.intern_term(bag_term(["b", "a"]))
    assert st.representative(ba) == bag_term(["b", "a"])
    st.intern_term(bag_term(["a", "b"]))
    st.saturate()
    assert st.representative(ba) == bag_term(["a", "b"])
    snapshot = {c["id"]: c for c in st.export_json()["classes"]}
    assert snapshot[st.canonical(ba).index]["representative"] == term_to_json(
        bag_term(["a", "b"])
    )


def test_coerce_is_identity_upward(bag):
    st = fresh(bag)
    c = st.intern_term(NIL)
    assert st.coerce(c, 1) == c
    assert st.coerce(c, 5) == c
    with pytest.raises(WorkbenchError):
        st.coerce(st.intern_term(bag_term(["a"])), 1)


def test_qw_intro_agrees_with_intern(bag):
    st = fresh(bag)
    nil_via_intro = st.qw_intro(OpNode("nil", ()))
    assert nil_via_intro == st.intern_term(NIL)
    a_list = st.qw_intro(OpNode("cons(a)", (nil_via_intro,)))
    assert a_list == st.intern_term(bag_term(["a"]))


def test_qw_intro_stale_handle(bag):
    st = fresh(bag)
    with pytest.raises(WorkbenchError):
        st.qw_intro(OpNode("cons(a)", (ClassId(99),)))


def test_qw_intro_respects_merges(bag):
    st = fresh(bag)
    ab = st.intern_term(bag_term(["a", "b"]))
    ba = st.intern_term(bag_term(["b", "a"]))
    st.saturate()
    left = st.qw_intro(OpNode("cons(a)", (ab,)))
    right = st.qw_intro(OpNode("cons(a)", (ba,)))
    st.saturate()
    assert st.same_class(left, right)


def test_congruence_closes_over_all_operators(bag):
    st = fresh(bag)
    classes = [c for c, _ in st.enumerate_classes(4)]
    for c1, _ in st.enumerate_classes(4):
        for c2, _ in st.enumerate_classes(4):
            if not st.same_class(c1, c2):
                continue
            for op in ("cons(a)", "cons(b)"):
                i1 = st.qw_intro(OpNode(op, (c1,)))
                i2 = st.qw_intro(OpNode(op, (c2,)))
                st.saturate()
                assert st.same_class(i1, i2)
    assert classes


def test_decide_eq_reflexive_empty_derivation(bag):
    st = fresh(bag)
    c = st.intern_term(bag_term(["a"]))
    decision = st.decide_eq(c, c)
    assert decision.proved and decision.steps == ()


def test_decide_eq_swap_derivation(bag):
    st = fresh(bag)
    ab = st.intern_term(bag_term(["a", "b"]))
    ba = st.intern_term(bag_term(["b", "a"]))
    assert st.stale
    decision = st.decide_eq(ab, ba)  # auto-saturates the stale state
    assert not st.stale
    assert decision.proved
    kinds = {s.justification.kind for s in decision.steps}
    assert kinds == {"sqeq"}
    # swap(b,a) mirrors swap(a,b), and a round keeps the first by name
    assert [s.justification.equation for s in decision.steps] == ["swap(a,b)"]


def test_decide_eq_unknown_is_sound(bag):
    st = fresh(bag)
    a = st.intern_term(bag_term(["a"]))
    b = st.intern_term(bag_term(["b"]))
    st.saturate()
    assert not st.decide_eq(a, b).proved
    # and a separating algebra certifies they are genuinely distinct
    alg = find_separator(bag.signature, bag.system, bag_term(["a"]), bag_term(["b"]), 3)
    assert alg is not None


def test_enumerate_bag_over_single_element(bag_a):
    st = fresh(bag_a)
    classes = st.enumerate_classes(3)  # lists of up to two elements
    assert len(classes) == 3
    reps = [t for _, t in classes]
    assert reps == [NIL, bag_term(["a"]), bag_term(["a", "a"])]


def test_enumerate_bag_matches_multiset_oracle(bag):
    # the class count is the number of distinct occurrence multisets,
    # computed here by brute force rather than assumed
    st = fresh(bag)
    classes = st.enumerate_classes(3)
    seeds = closed_terms(bag.signature, 3)
    buckets = set()
    for t in seeds:
        key = []
        while t != NIL:
            key.append(t.op)
            (t,) = t.branches
        buckets.add(tuple(sorted(key)))
    assert len(classes) == len(buckets) == 6


def test_enumerate_is_deterministic(bag):
    runs = [[(c.index, t) for c, t in fresh(bag).enumerate_classes(4)] for _ in range(2)]
    assert runs[0] == runs[1]


def test_representatives_are_minimal(bag):
    st = fresh(bag)
    classes = st.enumerate_classes(4)
    for _, t in classes:
        assert term_size(t) <= 4
    # the mixed two-element class picks the a-first spelling
    reps = {tuple(): None}
    names = ["".join(op[5] for op in _spine(t)) for _, t in classes]
    assert "ab" in names and "ba" not in names


def _spine(t):
    out = []
    while t != NIL:
        out.append(t.op)
        (t,) = t.branches
    return out


def test_check_equations_hold_on_fragment(bag):
    st = fresh(bag)
    classes = [c for c, _ in st.enumerate_classes(4)]
    report = check_equations_hold(st, classes)
    assert report.ok


def test_enumerate_class_budget_reports_count(bag):
    # sizes 1 and 2 leave nil, a::[] and b::[]; size 3 would add cons(a)
    # and cons(b) over the two classes of size 2: 3 + 4, refused unbuilt
    st = fresh(bag)
    with pytest.raises(BudgetExceededError, match=_over(7, 3)):
        st.enumerate_classes(4, class_budget=3)
    assert st.class_count == len(st.log) == 3


def test_saturation_budget_is_normal_outcome(bag):
    st = fresh(bag)
    st.intern_term(bag_term(["a", "b"]))
    st.intern_term(bag_term(["b", "a"]))
    result = st.saturate(max_rounds=0)
    assert not result.fixpoint
    # with no rounds nothing merged, but the state is still usable
    st2 = fresh(bag)
    ab = st2.intern_term(bag_term(["a", "b"]))
    ba = st2.intern_term(bag_term(["b", "a"]))
    st2.saturate(max_rounds=0)
    assert not st2.same_class(ab, ba)


def test_budget_monotonicity(bag):
    # once proved at round budget i, proved at every larger budget
    outcomes = []
    for budget in (1, 2, 3, 5):
        st = fresh(bag)
        ab = st.intern_term(bag_term(["a", "b"]))
        ba = st.intern_term(bag_term(["b", "a"]))
        st.saturate(max_rounds=budget)
        outcomes.append(st.same_class(ab, ba))
    assert outcomes == sorted(outcomes)  # False never follows True
    assert outcomes[-1]


def test_generators_are_leaf_classes(bag):
    st = new_qw(bag.signature, bag.system, generators=("u", "v"))
    cu = st.intern_term(Var("u"))
    cv = st.intern_term(Var("v"))
    assert cu != cv
    assert st.stage_of(cu) == 1
    mixed = st.intern_term(cons("a", Var("u")))
    assert st.stage_of(mixed) == 2


def test_generator_name_clash_rejected(bag):
    with pytest.raises(WorkbenchError):
        new_qw(bag.signature, bag.system, generators=("nil",))


# -- countable branching ----------------------------------------------------------


def test_perm_instance_proved(omega_tree):
    st = fresh(omega_tree)
    inner = Node("node(b)", omega_table([], Node("leaf", ())))
    g = omega_table([(0, inner)], Node("leaf", ()))
    gf = omega_table([(1, inner)], Node("leaf", ()))
    c1 = st.intern_term(Node("node(a)", g))
    c2 = st.intern_term(Node("node(a)", gf))
    assert not st.same_class(c1, c2)
    assert st.decide_eq(c1, c2).proved


def test_identity_table_interns_to_same_class(omega_tree):
    st = fresh(omega_tree)
    leaf = Node("leaf", ())
    c1 = st.intern_term(Node("node(a)", omega_table([(0, leaf)], leaf)))
    c2 = st.intern_term(Node("node(a)", omega_table([], leaf)))
    assert c1 == c2  # the entry equal to the default normalises away


def test_probe_monotonicity():
    from qitbench.encodings import omega_tree_of

    for probe in (2, 3, 4):
        inst = omega_tree_of(("a", "b"), probe, [((0, 1), (1, 0))])
        st = fresh(inst)
        leaf = Node("leaf", ())
        inner = Node("node(b)", omega_table([], leaf))
        c1 = st.intern_term(Node("node(a)", omega_table([(0, inner)], leaf)))
        c2 = st.intern_term(Node("node(a)", omega_table([(1, inner)], leaf)))
        assert st.decide_eq(c1, c2).proved, f"perm merge lost at probe {probe}"


def test_separator_for_leaf_vs_node(omega_tree):
    leaf = Node("leaf", ())
    alg = find_separator(
        omega_tree.signature,
        omega_tree.system,
        leaf,
        Node("node(a)", omega_table([], leaf)),
        2,
    )
    assert alg is not None
    assert len(alg.carrier) == 2


def test_separator_none_for_equal_terms(bag):
    assert (
        find_separator(bag.signature, bag.system, bag_term(["a"]), bag_term(["a"]), 3)
        is None
    )
    assert (
        find_separator(
            bag.signature, bag.system, bag_term(["a", "b"]), bag_term(["b", "a"]), 3
        )
        is None
    )


def test_separator_budget(bag):
    with pytest.raises(BudgetExceededError):
        find_separator(
            bag.signature,
            bag.system,
            bag_term(["a"]),
            bag_term(["b"]),
            3,
            max_algebras=1,
        )


def test_separator_rejects_open_terms(bag):
    with pytest.raises(UnboundVariableError):
        find_separator(bag.signature, bag.system, Var("x"), NIL, 2)


def _bag_table(alg, elements) -> dict:
    table = {"nil": [alg.interp("nil", ())]}
    for x in elements:
        table[f"cons({x})"] = [alg.interp(f"cons({x})", (v,)) for v in alg.carrier]
    return table


def test_separator_is_the_lex_first_table(bag):
    alg = find_separator(bag.signature, bag.system, bag_term(["a"] * 2), bag_term(["a"] * 8), 4)
    assert _bag_table(alg, ("a", "b")) == {
        "nil": [0],
        "cons(a)": [1, 2, 3, 0],
        "cons(b)": [0, 1, 2, 3],
    }


# the cells each query assigns before it answers: the size of the search
# tree, which the least-number rule prunes (a cell takes at most one more
# than the largest element the cells up to it read or hold) and watching
# pairs on the cells they wait on must leave as it is
SEARCH_TREES = [
    pytest.param(("a", "b"), ["a", "b"], ["b", "a"], 3, 188, None, id="equal-at-bound-3"),
    pytest.param(
        ("a", "b"),
        ["a"] * 2,
        ["a"] * 8,
        4,
        37,
        {"nil": [0], "cons(a)": [1, 2, 3, 0], "cons(b)": [0, 1, 2, 3]},
        id="lex-first-at-bound-4",
    ),
    # without the rule: 68,917 cells at bound 4, past the default budget at 5
    pytest.param(
        ("a", "b", "c"), ["a", "b"], ["b", "a"], 4, 1469, None, id="three-elements-at-bound-4"
    ),
    pytest.param(
        ("a", "b", "c"), ["a", "b"], ["b", "a"], 5, 12722, None, id="three-elements-at-bound-5"
    ),
]


@pytest.mark.parametrize("elements, left, right, bound, cells, table", SEARCH_TREES)
def test_separator_search_assigns_a_pinned_number_of_cells(
    elements, left, right, bound, cells, table
):
    inst = bag_of(elements)
    t, u = bag_term(left), bag_term(right)
    alg = find_separator(inst.signature, inst.system, t, u, bound, max_algebras=cells)
    assert (alg if alg is None else _bag_table(alg, elements)) == table
    with pytest.raises(BudgetExceededError, match=f"^assigned {cells - 1} table cells"):
        find_separator(inst.signature, inst.system, t, u, bound, max_algebras=cells - 1)


def test_separator_bounds_a_cell_by_the_values_set_before_it():
    # three constants come first and read no element, so their values, not
    # the cells' arguments, bound the cells after them; that bound must be
    # the one of the values set now, not of values backtracked over
    sig = signature([("c", 0), ("d", 0), ("e", 0), ("f", 1)])
    system = make_system(sig, [("ff", 1, node("f", node("f", Var(0))), Var(0))])
    t, u = node("c"), node("f", node("f", node("c")))
    assert find_separator(sig, system, t, u, 3, max_algebras=100) is None
    with pytest.raises(BudgetExceededError, match="^assigned 99 table cells"):
        find_separator(sig, system, t, u, 3, max_algebras=99)


def test_separator_reaches_carrier_four_over_three_elements():
    # a complete-table scan spends its 500k budget before carrier 4 here
    inst = bag_of(("a", "b", "c"))
    t, u = bag_term(["a"] * 2), bag_term(["a"] * 8)
    alg = find_separator(inst.signature, inst.system, t, u, 4)
    assert alg is not None and len(alg.carrier) == 4
    assert sat_check(alg, inst.system).satisfied
    assert eval_alg(t, {}, alg) != eval_alg(u, {}, alg)


# -- translations driven through the engine ------------------------------------------


def test_w_suspension_two_point_collapses():
    sig, system = from_w_suspension(
        [("t", 0), ("f", 0)], [("cell", "t", "f")]
    )
    st = new_qw(sig, system)
    classes = st.enumerate_classes(1)
    assert len(classes) == 1


def test_w_reductions_collapse_to_generator():
    sig, system = from_w_reductions([("mk", 2)], {"mk": 0})
    st = new_qw(sig, system, generators=("v",))
    classes = st.enumerate_classes(5)
    assert len(classes) == 1
    assert classes[0][1] == Var("v")


def test_w_reductions_empty_without_generators():
    sig, system = from_w_reductions([("mk", 2)], {"mk": 0})
    for bound in range(1, 6):
        st = new_qw(sig, system)
        assert st.enumerate_classes(bound) == []


# -- proof forest -----------------------------------------------------------------


def test_replay_validates_all_merges(bag, omega_tree):
    st = fresh(bag)
    st.enumerate_classes(4)
    merges = sum(1 for e in st.log if e[0] == "merge")
    assert replay_merges(st) == merges > 0

    st2 = fresh(omega_tree)
    st2.enumerate_classes(3)
    merges2 = sum(1 for e in st2.log if e[0] == "merge")
    assert replay_merges(st2) == merges2


def test_replay_rejects_forged_justification(bag):
    st = fresh(bag)
    st.intern_term(bag_term(["a", "b"]))
    st.intern_term(bag_term(["b", "a"]))
    st.saturate()
    forged = []
    for entry in st._log:
        if entry[0] == "merge" and entry[3].kind == "sqeq":
            just = entry[3]
            bad = type(just)("sqeq", just.equation, (entry[1],) )
            forged.append((entry[0], entry[1], entry[2], bad))
        else:
            forged.append(entry)
    st._log = forged
    with pytest.raises(ReplayError):
        replay_merges(st)


def _omega_tree_node(entries, default):
    return Node("node(a)", omega_table(entries, default))


@pytest.mark.parametrize("fewer_entries_first", [True, False])
def test_replay_rejects_a_forged_countable_congruence(omega_tree, fewer_entries_first):
    # two node(a) payloads over the same default that differ at entry 0
    st = fresh(omega_tree)
    leaf = Node("leaf", ())
    const = _omega_tree_node([], leaf)
    p = st.intern_term(_omega_tree_node([], const)).index
    q = st.intern_term(_omega_tree_node([(0, leaf)], const)).index
    a, b = (p, q) if fewer_entries_first else (q, p)
    st._log.append(("merge", a, b, Justification("cong")))
    with pytest.raises(ReplayError, match="congruence merge"):
        replay_merges(st)


def test_replay_rejects_a_countable_instance_altered_at_the_default(omega_tree):
    st = fresh(omega_tree)
    leaf = Node("leaf", ())
    const = _omega_tree_node([], leaf)
    st.intern_term(_omega_tree_node([(0, leaf)], const))
    st.intern_term(_omega_tree_node([(1, leaf)], const))
    st.saturate()
    assert replay_merges(st) > 0
    k = next(k for k, e in enumerate(st._log) if e[0] == "merge" and e[3].kind == "sqeq")
    _, a, b, just = st._log[k]
    default = len(just.env) - 1  # the variable after the probed ones
    other = st.intern_term(leaf).index
    assert st._find(just.env[default]) != st._find(other)
    env = just.env[:default] + (other,)
    st._log[k] = ("merge", a, b, Justification("sqeq", just.equation, env))
    with pytest.raises(ReplayError, match="equation merge"):
        replay_merges(st)


@pytest.mark.parametrize(
    "left, right",
    [(NIL, cons("a", NIL)), (Var("u"), Var("v")), (Var("u"), NIL)],
    ids=["two-operators", "two-generators", "generator-and-operator"],
)
def test_replay_rejects_a_congruence_that_no_layers_can_give(bag, left, right):
    # congruence only relates two layers of one operator
    st = new_qw(bag.signature, bag.system, generators=("u", "v"))
    a, b = st.intern_term(left).index, st.intern_term(right).index
    st._log.append(("merge", a, b, Justification("cong")))
    with pytest.raises(ReplayError, match=f"congruence merge {a} ~ {b} does not re-derive"):
        replay_merges(st)


@pytest.mark.parametrize("tag", ["sqeta", "sqsigma"])
def test_replay_rejects_a_retired_tag(bag, tag):
    st = fresh(bag)
    st.intern_term(bag_term(["a", "b"]))
    st.intern_term(bag_term(["b", "a"]))
    st.saturate()
    st._log = [e if e[0] == "intern" else (*e[:3], Justification(tag)) for e in st._log]
    with pytest.raises(ReplayError, match=f"unknown justification tag '{tag}'"):
        replay_merges(st)


def test_export_json_shape(bag):
    st = fresh(bag)
    st.enumerate_classes(3)
    snapshot = st.export_json()
    assert snapshot["probe"] == 2
    assert len(snapshot["classes"]) == st.class_count
    assert all(e["tag"] in ("sqeq", "cong") for e in snapshot["proof_forest"])
    assert any(e["tag"] == "sqeq" and "environment" in e for e in snapshot["proof_forest"])


SUP_SIG = signature([("z", 0), ("a", 0), ("f", 1), ("s", None)])
# s of a constant family at x is f(x)
CONST_FAMILY = ("const", 1, Node("s", omega_table([], Var(0))), node("f", Var(0)))
S_A_Z = Node("s", omega_table([(0, node("a"))], node("z")))


def test_countable_pattern_reads_the_layers_own_entries():
    # s({0 -> a}; z) is not a constant family, so the pattern s({}; x)
    # must not match it at x = z: matching pairs every entry of the layer,
    # not only the pattern's, with the pattern's branch there
    st = new_qw(SUP_SIG, make_system(SUP_SIG, [CONST_FAMILY]))
    layer = st.intern_term(S_A_Z)
    assert st.saturate() == SaturationResult(True, 1, 0, 0)
    assert not st.same_class(layer, st.intern_term(node("z")))


def test_matching_sees_a_merge_made_earlier_in_the_round():
    # "collapse" runs first and merges a into z; "const" then matches
    # s({0 -> a}; z) as the constant family at z within the same round
    collapse = ("collapse", 0, node("a"), node("z"))
    st = new_qw(SUP_SIG, make_system(SUP_SIG, [collapse, CONST_FAMILY]))
    layer = st.intern_term(S_A_Z)
    assert st.saturate() == SaturationResult(True, 2, 3, 2)
    assert st.same_class(layer, st.intern_term(node("f", node("z"))))
    assert [e[3].kind for e in st.log if e[0] == "merge"] == ["sqeq", "sqeq", "cong"]


# -- properties over random small systems -------------------------------------------

SMALL_SIG = signature([("c", 0), ("d", 0), ("f", 1), ("g", 2)])
SMALL_TERMS = closed_terms(SMALL_SIG, 4)


def test_a_repeated_variable_matches_equal_children_only():
    # both sides repeat x, so only matching g(x, x) itself finds g(c, c);
    # g(c, d) has distinct children and instantiates nothing
    square = node("g", Var(0), Var(0))
    st = new_qw(SMALL_SIG, make_system(SMALL_SIG, [("sq", 1, square, node("f", square))]))
    cc = st.intern_term(node("g", node("c"), node("c")))
    cd = st.intern_term(node("g", node("c"), node("d")))
    assert st.saturate(max_rounds=1) == SaturationResult(False, 1, 1, 1)
    assert st.same_class(cc, st.intern_term(node("f", node("g", node("c"), node("c")))))
    assert st.lookup_intro(OpNode("f", (cd,))) is None


def _sides(depth: int):
    leaf = hst.one_of(
        hst.builds(Var, hst.integers(0, 1)), hst.just(node("c")), hst.just(node("d"))
    )
    if depth == 0:
        return leaf
    sub = _sides(depth - 1)
    return hst.one_of(
        leaf,
        hst.builds(lambda t: node("f", t), sub),
        hst.builds(lambda t, u: node("g", t, u), sub, sub),
    )


def _var_count(t) -> int:
    if isinstance(t, Var):
        return t.name + 1
    return max((_var_count(b) for b in t.branches), default=0)


@hst.composite
def _small_systems(draw, max_equations=2, spare=0):
    # ``spare``: up to that many more variables, which no side binds
    pairs = draw(
        hst.lists(hst.tuples(_sides(2), _sides(2)), min_size=1, max_size=max_equations)
    )
    eqs = [
        (f"e{i}", max(_var_count(lhs), _var_count(rhs)), lhs, rhs)
        for i, (lhs, rhs) in enumerate(pairs)
    ]
    if spare:
        eqs = [(name, n + draw(hst.integers(0, spare)), l, r) for name, n, l, r in eqs]
    return make_system(SMALL_SIG, eqs)


def _small_state(system):
    # one round instantiates over the ten seed classes only; more rounds
    # can square the carrier per round under a two-variable equation
    st = new_qw(SMALL_SIG, system, max_rounds=1)
    st.enumerate_classes(3)
    return st


def test_instance_budget_exit_leaves_the_state_saturated():
    # the instance budget trips inside a round; the state is as saturated
    # as budgeted, so deciding equality must not saturate (and grow) again
    system = make_system(
        SMALL_SIG,
        [
            ("e0", 2, node("c"), node("f", node("g", Var(0), Var(1)))),
            ("e1", 0, node("c"), node("d")),
        ],
    )
    st = new_qw(SMALL_SIG, system, max_rounds=3, max_instances=40)
    st.enumerate_classes(3)
    assert not st.stale
    count = st.class_count
    st.decide_eq(st.intern_term(node("c")), st.intern_term(node("f", node("d"))))
    assert st.class_count == count
    assert not st.stale


def test_saturating_at_a_fixpoint_returns_the_idle_round(bag):
    st = fresh(bag)
    st.intern_term(bag_term(["a", "b", "a"]))
    assert st.saturate().merges > 0
    log = st.log

    def no_rebuild():
        raise AssertionError("a call at a fixpoint must not rebuild")

    st._rebuild = no_rebuild
    for budget in (None, 1, 5):
        assert st.saturate(max_rounds=budget) == SaturationResult(True, 1, 0, 0)
    assert st.log == log


def test_zero_round_budget_runs_no_round(bag):
    st = fresh(bag)
    ab = st.intern_term(bag_term(["a", "b"]))
    ba = st.intern_term(bag_term(["b", "a"]))
    assert st.saturate(max_rounds=0) == SaturationResult(False, 0, 0, 0)
    assert not st.same_class(ab, ba)
    assert st.saturate() == SaturationResult(True, 2, 1, 0)
    assert st.saturate(max_rounds=0) == SaturationResult(False, 0, 0, 0)


def test_a_call_after_a_round_budget_exit_continues(bag):
    st = fresh(bag)
    # a::b::b::[] needs a second round: its swap brings in b::a::[]
    st.intern_term(bag_term(["a", "b", "b"]))
    assert st.saturate(max_rounds=1) == SaturationResult(False, 1, 1, 2)
    assert not st.stale
    assert st.saturate() == SaturationResult(True, 2, 1, 2)


def test_a_call_after_an_instance_budget_exit_continues():
    system = make_system(
        SMALL_SIG, [("e0", 2, node("c"), node("f", node("g", Var(0), Var(1))))]
    )
    st = new_qw(SMALL_SIG, system, max_rounds=3, max_instances=40)
    _listed(st, 3)
    count = st.class_count
    assert not st.saturate().fixpoint
    assert st.class_count > count


def _pulls_by_round(monkeypatch):
    """Record the environments saturation pulls from ``_instance_envs``,
    as ``(equation, environment)`` lists, one per round: each rebuild
    (at a call's start and at each round's end) opens the next list."""
    rounds = []
    envs_of, rebuild = QWState._instance_envs, QWState._rebuild

    def pulled(self, plan, *args, **kw):
        envs = envs_of(self, plan, *args, **kw)
        assert iter(envs) is envs  # streamed, not built
        for env in envs:
            rounds[-1].append((plan.name, env))
            yield env

    def marked(self):
        rounds.append([])
        return rebuild(self)

    monkeypatch.setattr(QWState, "_instance_envs", pulled)
    monkeypatch.setattr(QWState, "_rebuild", marked)
    return rounds


def test_an_instance_budget_bounds_the_environments_a_round_pulls(monkeypatch):
    # c binds neither variable, so its match completes over the square of
    # the carrier; a round pulls at most one environment past its budget,
    # and the log is the one of completing every match before counting
    rounds = _pulls_by_round(monkeypatch)
    system = make_system(
        SMALL_SIG,
        [
            ("e0", 2, node("c"), node("f", node("g", Var(0), Var(1)))),
            ("e1", 0, node("c"), node("d")),
        ],
    )
    st = new_qw(SMALL_SIG, system, max_instances=400)
    _listed(st, 3)
    assert not st.saturate().fixpoint
    assert max(len(pulls) for pulls in rounds) == 401
    digest = "65d4f1e9ad417fdf0387fb19a165f58698995911ad4bbc690b4943d7d6869e99"
    assert hashlib.sha256(repr(st.log).encode()).hexdigest() == digest


def test_each_saturation_reports_the_merges_and_classes_it_logs():
    # every call's merges and new classes are the merge and intern entries
    # it added to the log, the merges of the round an instance-budget exit
    # ends included: bag(a,b,c), closed terms up to size 6.  A round
    # instantiates 3 of the 9 swap equations, so the budget that makes four
    # instance-budget exits and then a round-budget exit is 50.  Each exit
    # rebuilds, so the first call's congruence merges come in that call
    bag = bag_of(("a", "b", "c"))
    st = new_qw(bag.signature, bag.system, max_instances=50)
    for t in closed_terms(bag.signature, 6):
        st.intern_term(t)
    results = []

    def saturate(**kw):
        start = len(st.log)
        result = st.saturate(**kw)
        added = [entry[0] for entry in st.log[start:]]
        assert result.merges == added.count("merge")
        assert result.new_classes == added.count("intern")
        results.append(result)

    for _ in range(3):
        saturate()
    st.intern_term(bag_term(["a", "b", "c", "a", "b", "c"]))
    saturate()
    st.max_instances = 200_000
    saturate(max_rounds=1)
    saturate()
    saturate()
    assert results == [
        SaturationResult(False, 1, 221, 0),
        SaturationResult(False, 1, 21, 0),
        SaturationResult(False, 1, 0, 0),
        SaturationResult(False, 1, 1, 1),
        SaturationResult(False, 1, 68, 2),  # the round budget
        SaturationResult(True, 1, 0, 0),
        SaturationResult(True, 1, 0, 0),  # at the fixpoint's version
    ]


def test_a_round_pulls_each_environment_once_in_order(monkeypatch):
    # the merges move d's root while d is untouched, so e0 finishes over
    # every environment, from the one after where it stopped
    rounds = _pulls_by_round(monkeypatch)
    st = new_qw(SMALL_SIG, make_system(SMALL_SIG, [("e0", 2, Var(1), Var(0))]))
    st.intern_term(node("d"))
    st.saturate(max_rounds=1)
    st.intern_term(node("g", node("d"), node("f", node("c"))))
    st.saturate(max_rounds=1)
    for pulls in rounds:
        envs = [env for _, env in pulls]
        assert envs == sorted(set(envs))


def _reference_match(st, pattern, root, memo):
    """Environments under which ``pattern``'s instance is class ``root``,
    each once, read off the class's stored payloads rather than the
    state's operator index; a countable map pairs with the pattern's as
    ``branch_pairs`` lines them up.  ``memo`` holds one caller's answers
    over an unchanged state, so a class is scanned once per pattern."""
    if isinstance(pattern, Var):
        return [{pattern.name: root}]
    key = (id(pattern), root)
    if key in memo:
        return memo[key]
    layers = {
        _scratch_children(st, p)
        for p in (st._payloads[mid] for mid in st._members.get(root, ()))
        if isinstance(p, ENode) and p.op == pattern.op
    }
    out = {}
    for children in layers:
        envs = [{}]
        for sub, child in branch_pairs(pattern.branches, children):
            envs = [
                {**env, **cand}
                for env in envs
                for cand in _reference_match(st, sub, child, memo)
                if all(env.get(k, v) == v for k, v in cand.items())
            ]
        for env in envs:
            out.setdefault(tuple(sorted(env.items())), env)
    memo[key] = list(out.values())
    return memo[key]


def _pattern_height(t):
    if isinstance(t, Var):
        return 0
    return 1 + max((_pattern_height(b) for b in branch_values(t.branches)), default=0)


def _reference_envs(st, eq, roots, touched=None):
    """Every environment under which one side's instance exists, its
    unbound variables completed over all roots, in ascending order without
    repeats.  Given the touched class roots, a match counts in full only
    near them (a bare variable only at a root in a touched class), and
    elsewhere only with a completion holding a root in a touched class.
    The matches are read on the call; each match's completions are built
    as the stream is pulled, so a caller that stops early builds no more."""
    n = eq.var_count
    hot = near = None
    if touched is not None:
        hot = {r for r in roots if st._find(r) in touched}
        height = max(_pattern_height(eq.lhs), _pattern_height(eq.rhs))
        near = _scratch_near(st, touched, height)
    streams, memo = [], {}
    for side in (eq.lhs, eq.rhs):
        zone = hot if isinstance(side, Var) else near
        for r in roots:
            for env in _reference_match(st, side, r, memo):
                whole = zone is None or r in zone
                streams.append(_reference_completions(env, n, roots, whole, hot))
    return (env for env, _ in itertools.groupby(heapq.merge(*streams)))


def _reference_completions(env, n, roots, whole, hot):
    # the bound variables are fixed and the missing ones are filled in
    # product order, so the environments come in ascending order
    missing = [v for v in range(n) if v not in env]
    for combo in itertools.product(roots, repeat=len(missing)):
        if whole or any(c in hot for c in combo):
            full = {**env, **dict(zip(missing, combo))}
            yield tuple(full[v] for v in range(n))


def _reference_key(st, p):
    """A payload's key with its child classes canonicalised, in the
    engine's ``_memo`` format."""
    if isinstance(p, GenLeaf):
        return ("g", p.name)
    b = p.branches
    if isinstance(b, OmegaTable):
        d = st._find(b.default)
        entries = sorted((i, st._find(v)) for i, v in b.entries if st._find(v) != d)
        return ("n", p.op, ("w", tuple(entries), d))
    return ("n", p.op, tuple(st._find(v) for v in b))


def _full_pass_rebuild(st):
    """Congruence restored by full passes: each pass re-keys every payload
    in order and merges classes whose keys collide, until one merges
    nothing; ``_memo`` is the last pass's keys."""
    merges, changed = 0, True
    while changed:
        changed = False
        memo = {}
        for idx, p in enumerate(st._payloads):
            key = _reference_key(st, p)
            other = memo.get(key)
            if other is None:
                memo[key] = idx
            elif st._find(other) != st._find(idx):
                st._union(other, idx, Justification("cong"))
                merges += 1
                changed = True
        st._memo = memo
    return merges


def _scratch_children(st, p):
    """A payload's branch map of canonical child roots (a countable map
    without the entries in its default's class); None for a leaf."""
    if isinstance(p, GenLeaf):
        return None
    canon = _reference_key(st, p)[2]
    if canon and canon[0] == "w":
        return OmegaTable(canon[1], canon[2])
    return canon


def _scratch_index(st):
    """One relation per head operator, ``op -> root -> layers``, holding
    every class root's distinct canonical operator layers, built from the
    members."""
    index = {name: {} for name in st.signature.names()}
    for root, mids in st._members.items():
        for mid in mids:
            p = st._payloads[mid]
            if isinstance(p, ENode):
                index[p.op].setdefault(root, {})[_scratch_children(st, p)] = None
    return index


def _scratch_near(st, touched, height):
    """The roots within ``height`` parent steps of a touched root, with
    parents read off the from-scratch index."""
    parents = {}
    for rel in _scratch_index(st).values():
        for root, layers in rel.items():
            for branches in layers:
                for child in branch_values(branches):
                    parents.setdefault(child, set()).add(root)
    near = frontier = set(touched)
    for _ in range(height):
        frontier = {p for c in frontier for p in parents.get(c, ())} - near
        near = near | frontier
    return near


def _full_pass_state(sig, system, **kw):
    """An engine state whose rebuild, operator index and parent classes
    are recomputed from scratch by the reference functions above."""
    st = new_qw(sig, system, **kw)
    st._rebuild = lambda: _full_pass_rebuild(st)
    st._enodes = lambda: _scratch_index(st)
    st._near = lambda touched, height: _scratch_near(st, touched, height)
    return st


def _reference_instance(st, t, env):
    """Intern an equation side's instance term by term through ``_add``,
    not through the compiled plans."""
    if isinstance(t, Var):
        return st._find(env[t.name])
    ids = map_branches(lambda b: _reference_instance(st, b, env), t.branches)
    return st._add(ENode(t.op, ids))


def _reference_rules(system):
    """The equations a round instantiates, by name: the first of each
    unordered pair of distinct sides under one variable count.  A tautology
    interns nothing a later pass keeps apart, and a repeat, mirrored or
    not, has the environments of the equation it repeats."""
    kept = {}
    for eq in sorted(system.equations, key=lambda e: e.name):
        if eq.lhs != eq.rhs:
            kept.setdefault((eq.var_count, frozenset((eq.lhs, eq.rhs))), eq)
    return list(kept.values())


def _reference_saturate(st, max_rounds):
    """Saturation as if every class were touched in every round: each
    rule is matched at every root by the matcher above, congruence is
    restored by full passes, and a call at a fixpoint runs its idle round.
    A round pulls at most ``max_instances + 1`` environments, as the
    engine's does, and an instance-budget exit counts the merges of the
    round it ends.  Returns the result and whether the instance budget
    tripped."""
    merges = _full_pass_rebuild(st)
    before = len(st._payloads)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        round_merges = 0
        size_before = len(st._payloads)
        roots = sorted(st._members)
        instances = 0
        for eq in _reference_rules(st.system):
            for env in _reference_envs(st, eq, roots):
                instances += 1
                if instances > st.max_instances:
                    new = len(st._payloads) - before
                    return SaturationResult(False, rounds, merges + round_merges, new), True
                env = tuple(st._find(v) for v in env)
                lid = _reference_instance(st, eq.lhs, env)
                rid = _reference_instance(st, eq.rhs, env)
                if st._union(lid, rid, Justification("sqeq", eq.name, env)):
                    round_merges += 1
        round_merges += _full_pass_rebuild(st)
        merges += round_merges
        if round_merges == 0 and len(st._payloads) == size_before:
            return SaturationResult(True, rounds, merges, len(st._payloads) - before), False
    return SaturationResult(False, rounds, merges, len(st._payloads) - before), False


def _partition(st):
    return [(c, st.members(c)) for c in st.roots()]


@settings(max_examples=200, deadline=None)
@example(  # d is new: the old match of c completes over combinations holding it
    system=make_system(SMALL_SIG, [("e0", 1, node("c"), node("f", Var(0)))]),
    ops=[node("c"), 2, node("d"), 1],
)
@example(  # the merges move d's root while d is untouched: the guard finishes
    # the equation over every environment
    system=make_system(SMALL_SIG, [("e0", 2, Var(1), Var(0))]),
    ops=[node("d"), 1, node("g", node("d"), node("f", node("c"))), 1],
)
@example(  # c ~ d gives f(c)'s class the layer f(d), one step above them
    system=make_system(
        SMALL_SIG,
        [
            ("e0", 0, node("f", node("d")), node("g", node("c"), node("c"))),
            ("e1", 0, node("c"), node("d")),
        ],
    ),
    ops=[node("f", node("c")), 2],
)
@example(  # the layer g(f(c), f(c)) over a touched class joins the class of
    # f(g(d, c)), rooted at another payload: parent classes read from use
    # lists must be taken at their roots
    system=make_system(
        SMALL_SIG,
        [
            (
                "e0",
                1,
                node("f", node("g", node("d"), Var(0))),
                node("g", node("f", node("c")), node("f", Var(0))),
            ),
            ("e1", 0, node("f", node("d")), node("f", node("c"))),
        ],
    ),
    ops=[node("c"), 3, 3, 2, node("f", node("g", node("d"), node("c"))), 3],
)
@example(  # a tautology: after e0's merges, f(d) = f(d) would intern a
    # congruent duplicate mid-round
    system=make_system(
        SMALL_SIG, [("e0", 2, Var(1), Var(0)), ("e1", 0, node("f", node("d")), node("f", node("d")))]
    ),
    ops=[node("f", node("g", node("d"), node("c"))), 2],
)
@example(  # a mirror pair whose mirror sorts first: a round keeps e0
    system=make_system(
        SMALL_SIG, [("e1", 1, node("d"), node("f", Var(0))), ("e0", 1, node("f", Var(0)), node("d"))]
    ),
    ops=[node("f", node("c")), 3],
)
@example(  # one equation under two names: a round keeps e0
    system=make_system(
        SMALL_SIG, [("e0", 1, node("f", Var(0)), Var(0)), ("e1", 1, node("f", Var(0)), Var(0))]
    ),
    ops=[node("d"), 3, node("g", node("c"), node("d"))],
)
@given(
    _small_systems(max_equations=3),
    hst.lists(
        hst.one_of(hst.sampled_from(closed_terms(SMALL_SIG, 4)), hst.integers(0, 3)),
        min_size=1,
        max_size=10,
    ),
)
def test_incremental_saturation_equals_full_rounds(system, ops):
    # interleaved interning and saturation: the incremental state makes the
    # log, results and classes of full rounds.  Counted over every
    # environment, the reference's instance budget can trip where the
    # incremental round has made fewer instances; up to there the logs agree.
    st = new_qw(SMALL_SIG, system, max_instances=2000)
    ref = new_qw(SMALL_SIG, system, max_instances=2000)
    for op in ops:
        if isinstance(op, int):
            got = st.saturate(max_rounds=op)
            want, tripped = _reference_saturate(ref, op)
            if tripped:
                assert st.log[: len(ref.log)] == ref.log
                return
            assert got == want
        else:
            assert st.intern_term(op) == ref.intern_term(op)
        assert st.log == ref.log
    assert _partition(st) == _partition(ref)


@settings(max_examples=200, deadline=None)
@given(
    _small_systems(max_equations=3),
    hst.integers(5, 80),
    hst.lists(
        hst.one_of(
            hst.sampled_from(closed_terms(SMALL_SIG, 4)),
            hst.integers(0, 3),
            hst.tuples(hst.integers(0, 9), hst.integers(0, 9)),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_congruence_upkeep_equals_full_passes(system, max_instances, ops):
    # use lists, the worklist rebuild and the refreshed operator index make
    # what full passes and from-scratch indexes make, step by step; small
    # instance budgets exit mid-round and leave stale keys to the next call
    st = new_qw(SMALL_SIG, system, max_instances=max_instances)
    ref = _full_pass_state(SMALL_SIG, system, max_instances=max_instances)
    ids = []
    for op in ops:
        if isinstance(op, int):
            assert st.saturate(max_rounds=op) == ref.saturate(max_rounds=op)
        elif isinstance(op, tuple):
            if ids:
                a, b = (ids[i % len(ids)] for i in op)
                assert st.decide_eq(a, b) == ref.decide_eq(a, b)
        else:
            ids.append(st.intern_term(op))
            assert ref.intern_term(op) == ids[-1]
        assert st.log == ref.log
        assert st._memo == ref._memo
        assert _partition(st) == _partition(ref)
        assert st._enodes() == _scratch_index(st)


def _assert_plans_stream_the_reference(st, picks):
    """Each equation's streamed environments are the reference's, over
    every class and over the touched classes ``picks`` selects among the
    roots; restarted after one of them, the stream is the rest."""
    roots = sorted(st._members)
    index = st._enodes()
    touched = {roots[i % len(roots)] for i in picks} if roots else set()
    for eq in st.system.equations:
        plan = st._plans[eq.name]
        want = list(_reference_envs(st, eq, roots))
        got = st._instance_envs(plan, roots, index)
        assert iter(got) is got
        assert list(got) == want
        near = list(_reference_envs(st, eq, roots, touched))
        assert list(st._instance_envs(plan, roots, index, _Touched(st, touched, roots))) == near
        for after in want[:: max(1, len(want) // 20)]:
            rest = st._instance_envs(plan, roots, index, after=after)
            assert list(rest) == [e for e in want if e > after]


@settings(deadline=None)  # examples: the profile's
@example(  # a nonlinear side, a nullary head and a variable no side binds
    system=make_system(
        SMALL_SIG,
        [("e0", 2, node("g", Var(0), Var(0)), node("c")), ("e1", 2, node("f", Var(0)), node("d"))],
    ),
    ops=[node("g", node("c"), node("c")), node("f", node("d")), 1, node("g", node("d"), node("c"))],
    picks=[0, 3],
)
@example(  # restarted after g(c, g(d, c))'s environment, f(c)'s product
    # over x0 and x2 goes on above x0 = c only where x1 is c
    system=make_system(
        SMALL_SIG, [("e0", 3, node("g", Var(0), node("g", Var(1), Var(2))), node("f", Var(1)))]
    ),
    ops=[node("f", node("c")), node("g", node("c"), node("g", node("d"), node("c")))],
    picks=[],
)
@example(  # bare-variable sides, one leaving a variable to the other
    system=make_system(SMALL_SIG, [("e0", 2, Var(1), Var(0)), ("e1", 1, Var(0), node("f", Var(0)))]),
    ops=[node("c"), node("g", node("d"), node("f", node("c"))), 1, node("d")],
    picks=[1],
)
@given(
    _small_systems(max_equations=3, spare=1),
    hst.lists(
        hst.one_of(hst.sampled_from(SMALL_TERMS), hst.integers(0, 2)), min_size=1, max_size=6
    ),
    hst.lists(hst.integers(0, 63), max_size=4),
)
def test_plans_stream_the_reference_environments(system, ops, picks):
    # at every step of an interleaved session, the compiled joins and the
    # merged completion products give what the matcher over the stored
    # payloads and full products give, with and without touched classes
    st = new_qw(SMALL_SIG, system, max_instances=40)
    for op in ops:
        if isinstance(op, int):
            st.saturate(max_rounds=op)
        else:
            st.intern_term(op)
        _assert_plans_stream_the_reference(st, picks)


# s({0 -> x}; f(x)): a layer's entries off the pattern's must hold f(x) too
FAMILY_OF_F = (
    "fam",
    1,
    Node("s", omega_table([(0, Var(0))], node("f", Var(0)))),
    node("f", node("f", node("f", Var(0)))),
)
SUP_POOL = closed_terms(SUP_SIG, 5)
_COUNTABLE_POOLS = {
    "omega_tree.qit": lambda fx: _qit(fx, "omega_tree.qit"),
    "ordinal": lambda fx: _instance(ordinal_notations()),
    "sup": lambda fx: (SUP_SIG, make_system(SUP_SIG, [CONST_FAMILY, FAMILY_OF_F])),
}


@settings(deadline=None)  # examples: the profile's
@example(  # an entry off the pattern's that does not hold the default's f(a)
    build="sup",
    ops=[SUP_POOL.index(Node("s", omega_table([(0, node("a")), (1, node("z"))], node("f", node("a")))))],
    picks=[],
)
@example(  # a layer the family matches: its round interns f(f(f(a)))
    build="sup",
    ops=[SUP_POOL.index(Node("s", omega_table([(0, node("a"))], node("f", node("a"))))), -1],
    picks=[2],
)
@given(
    hst.sampled_from(sorted(_COUNTABLE_POOLS)),
    hst.lists(hst.one_of(hst.integers(0, 10_000), hst.integers(-2, -1)), min_size=1, max_size=8),
    hst.lists(hst.integers(0, 63), max_size=4),
)
def test_plans_stream_the_reference_environments_on_countable_patterns(
    fixtures, build, ops, picks
):
    # countable patterns pair the layer's entries with the pattern's and
    # its default; ops are pool indexes to intern and -1, -2 to saturate
    # with one or two rounds
    sig, system = _COUNTABLE_POOLS[build](fixtures)
    pool = closed_terms(sig, 5, probe=system.probe)
    st = new_qw(sig, system, max_instances=60)
    for op in ops:
        if op < 0:
            st.saturate(max_rounds=-op)
        else:
            st.intern_term(pool[op % len(pool)])
        _assert_plans_stream_the_reference(st, picks)


@pytest.mark.parametrize("merged", [False, True])
def test_an_operator_default_holds_at_the_layers_other_entries(merged):
    # s({0 -> a, 1 -> f(z)}; f(a)) matches s({0 -> x}; f(x)) only if the
    # entry f(z) holds f(a)'s instance: once a ~ z is merged and before the
    # rebuild merges the congruent f(a) and f(z), it does from its own class
    st = new_qw(SUP_SIG, make_system(SUP_SIG, [FAMILY_OF_F]))
    st.intern_term(Node("s", omega_table([(0, node("a")), (1, node("f", node("z")))], node("f", node("a")))))
    a, z = st.intern_term(node("a")).index, st.intern_term(node("z")).index
    fa, fz = st.intern_term(node("f", node("a"))), st.intern_term(node("f", node("z")))
    if merged:
        st._union(a, z, Justification("sqeq", "collapse", ()))
        assert not st.same_class(fa, fz)
    _assert_plans_stream_the_reference(st, picks=[0, 2])
    roots = sorted(st._members)
    got = list(st._instance_envs(st._plans["fam"], roots, st._enodes()))
    assert got == ([(st._find(a),)] if merged else [])


# the countable pools that are shipped encodings
_COUNTABLE_SYSTEMS = ("omega_tree.qit", "ordinal")


@contextlib.contextmanager
def _checked_skips():
    """While the block runs, record for each environment saturation pulls
    whether it is instantiated, and check each one a round skips:
    instantiated on a copy of the state as the round skipped it, it interns
    nothing and its sides share a class.  Yields the records, True for an
    environment instantiated."""
    pulls = []
    envs_of, instantiate = QWState._instance_envs, QWState._instantiate

    def counted(self, side, env):
        pulls[-1] = True
        return instantiate(self, side, env)

    def pulled(self, plan, *args, **kw):
        for raw in envs_of(self, plan, *args, **kw):
            pulls.append(False)
            yield raw
            if pulls[-1]:
                continue
            # skipped, and nothing has happened since: the state the round
            # skipped it in
            st = copy.deepcopy(self)
            env = tuple(map(st._find, raw))
            log = len(st._log)
            lid, rid = (instantiate(st, side, env) for side in (plan.lhs, plan.rhs))
            assert len(st._log) == log
            assert st._find(lid) == st._find(rid)

    with mock.patch.object(QWState, "_instance_envs", pulled):
        with mock.patch.object(QWState, "_instantiate", counted):
            yield pulls


def _session(st, ops):
    """Run ops on a state: an integer saturates with that many rounds, a
    term is interned."""
    for op in ops:
        if isinstance(op, int):
            st.saturate(max_rounds=op)
        else:
            st.intern_term(op)


@settings(max_examples=100, deadline=None)
@example(  # round 2 merges d into f(d)'s class, so a later environment that
    # comes to one the round before made interns a congruent duplicate of
    # f(d): skipping on after that merge would leave it out of the log
    system=make_system(SMALL_SIG, [("e0", 2, Var(1), node("f", node("d")))]),
    max_instances=400,
    ops=[node("c"), 2],
)
@example(  # after round 2's first merge, a later environment that comes to
    # one the round before made has sides no merge has joined yet
    system=make_system(SMALL_SIG, [("e0", 2, node("g", Var(0), node("d")), Var(1))]),
    max_instances=400,
    ops=[node("c"), 2],
)
@given(
    _small_systems(max_equations=3),
    hst.integers(5, 400),
    hst.lists(
        hst.one_of(hst.sampled_from(SMALL_TERMS), hst.integers(0, 3)), min_size=1, max_size=10
    ),
)
def test_a_round_skips_only_environments_that_change_nothing(system, max_instances, ops):
    # small instance budgets exit mid-round, leaving a part of a round to
    # skip from in the next call
    with _checked_skips():
        _session(new_qw(SMALL_SIG, system, max_instances=max_instances), ops)


@settings(max_examples=40, deadline=None)
@example(build="ordinal", max_instances=400, ops=[10, 20, 30, 50, -3, 61, 72, -3])
@given(
    hst.sampled_from(_COUNTABLE_SYSTEMS),
    hst.integers(5, 400),
    hst.lists(hst.one_of(hst.integers(0, 10_000), hst.integers(-3, -1)), min_size=1, max_size=8),
)
def test_a_round_skips_only_environments_that_change_nothing_on_countable_systems(
    fixtures, build, max_instances, ops
):
    # ops are pool indexes to intern and -1 to -3 to saturate with that
    # many rounds
    sig, system = _COUNTABLE_POOLS[build](fixtures)
    pool = closed_terms(sig, 5, probe=system.probe)
    steps = [-op if op < 0 else pool[op % len(pool)] for op in ops]
    with _checked_skips():
        _session(new_qw(sig, system, max_instances=max_instances), steps)


@settings(max_examples=40, deadline=None)
@example(build="ordinal", ops=[10, 20, 30, 50, -3, 61, 72, -3])
@given(
    hst.sampled_from(_COUNTABLE_SYSTEMS),
    hst.lists(hst.one_of(hst.integers(0, 10_000), hst.integers(-3, -1)), min_size=1, max_size=8),
)
def test_incremental_saturation_equals_full_rounds_on_countable_systems(fixtures, build, ops):
    # the countable sibling of the test over small systems: ops are pool
    # indexes to intern and -1 to -3 to saturate with that many rounds
    sig, system = _COUNTABLE_POOLS[build](fixtures)
    pool = closed_terms(sig, 5, probe=system.probe)
    st = new_qw(sig, system, max_instances=2000)
    ref = new_qw(sig, system, max_instances=2000)
    for op in ops:
        if op < 0:
            got = st.saturate(max_rounds=-op)
            want, tripped = _reference_saturate(ref, -op)
            if tripped:
                assert st.log[: len(ref.log)] == ref.log
                return
            assert got == want
        else:
            t = pool[op % len(pool)]
            assert st.intern_term(t) == ref.intern_term(t)
        assert st.log == ref.log
    assert _partition(st) == _partition(ref)


def _entries_reversed(t):
    """The term with every countable map's entries listed in reverse index
    order, not normalised."""
    if isinstance(t, Var):
        return t
    b = map_branches(_entries_reversed, t.branches)
    if isinstance(b, OmegaTable):
        b = OmegaTable(b.entries[::-1], b.default)
    return Node(t.op, b)


def test_a_countable_side_out_of_index_order_makes_the_log_of_its_normal_form():
    # make_system takes a countable map whose entries are out of index
    # order; the side compiles its entries in index order, so instances
    # are keyed as the memo keys them and the log is the normal form's
    inst = ordinal_notations()
    eqs = [
        (e.name, e.var_count, _entries_reversed(e.lhs), _entries_reversed(e.rhs))
        for e in inst.system.equations
    ]
    reordered = make_system(inst.signature, eqs, probe=inst.system.probe)
    assert reordered.equations != inst.system.equations
    logs = []
    for system in (inst.system, reordered):
        st = new_qw(inst.signature, system)
        st.enumerate_classes(6)
        logs.append(st.log)
    assert logs[0] == logs[1]


@pytest.mark.parametrize(
    "build, size, pulled, made",
    [
        pytest.param(ordinal_notations, 6, 444, 245, id="ordinal-6"),
        pytest.param(lambda: bag_of(("a", "b", "c")), 8, 336, 168, id="bag-abc-8"),
    ],
)
def test_an_enumeration_makes_a_pinned_number_of_instances(build, size, pulled, made):
    # the passes of the ordinal-enumerate and bag3-enumerate workloads: a
    # round that has merged nothing skips the environments the round before
    # made, so of the environments pulled (each counted as an instance)
    # only ``made`` are instantiated, where every one was before
    inst = build()
    with _checked_skips() as pulls:
        new_qw(inst.signature, inst.system).enumerate_classes(size)
    assert (len(pulls), sum(pulls)) == (pulled, made)


@settings(max_examples=30, deadline=None)
@given(_small_systems())
def test_stages_are_the_least_fixpoint_over_members(system):
    st = _small_state(system)
    stage: dict[ClassId, int] = {}
    changed = True
    while changed:
        changed = False
        for c in st.roots():
            for p in st.members(c):
                kids = [st.canonical(ClassId(i)) for i in branch_values(p.branches)]
                if all(k in stage for k in kids):
                    s = 1 + max((stage[k] for k in kids), default=0)
                    if s < stage.get(c, s + 1):
                        stage[c] = s
                        changed = True
    assert stage == {c: st.stage_of(c) for c in st.roots()}


def _scratch_extraction(st):
    """Stages, representative keys and chosen members from scratch: costs
    and stages as least fixpoints over every member of every class, then,
    in order of cost, each class's least key among its least-cost members,
    whose children all cost less and so are keyed already."""
    rows = [
        (root, st._payloads[mid], _scratch_children(st, st._payloads[mid]))
        for root, mids in st._members.items()
        for mid in mids
    ]
    flat = lambda kids: () if kids is None else tuple(branch_values(kids))
    cost, stage = {}, {}
    changed = True
    while changed:
        changed = False
        for root, _, kids in rows:
            if all(r in cost for r in flat(kids)):
                c = 1 + sum(cost[r] for r in flat(kids))
                s = 1 + max((stage[r] for r in flat(kids)), default=0)
                if c < cost.get(root, c + 1):
                    cost[root] = c
                    changed = True
                if s < stage.get(root, s + 1):
                    stage[root] = s
                    changed = True
    key, chosen = {}, {}
    for root, p, kids in sorted(rows, key=lambda row: cost[row[0]]):
        if 1 + sum(cost[r] for r in flat(kids)) != cost[root]:
            continue
        if kids is None:
            k = term_key(Var(p.name))
        else:
            k = node_key(p.op, map_branches(key.__getitem__, kids, normalize=True))
        if root not in key or k < key[root]:
            key[root], chosen[root] = k, (p, kids)
    return stage, key, chosen


def _leaf_value(name):
    return ("leaf", name)


def _layer_value(op, values):
    return (op, values)


def _assert_analysis_is_scratch(st):
    """Every class's stage, key, representative and fold value (over the
    chosen members, in an algebra that records each layer) as from
    scratch, with each chosen member naming current child roots."""
    stage, key, chosen = _scratch_extraction(st)

    def rep(root):
        p, kids = chosen[root]
        return Var(p.name) if kids is None else Node(p.op, map_branches(rep, kids, normalize=True))

    def value(root):
        p, kids = chosen[root]
        return _leaf_value(p.name) if kids is None else _layer_value(p.op, map_branches(value, kids))

    assert {c.index: st.stage_of(c) for c in st.roots()} == stage
    assert {c.index: st.representative(c) for c in st.roots()} == {r: rep(r) for r in key}
    assert st.fold(_leaf_value, _layer_value) == {r: value(r) for r in key}
    assert st._key == key
    assert st._chosen.keys() == key.keys()
    for _, kids in st._chosen.values():
        assert kids is None or all(st._find(r) == r for r in branch_values(kids))
    exported = st.export_json()["classes"]
    assert [(c["id"], c["stage"]) for c in exported] == sorted(stage.items())
    assert [c["representative"] for c in exported] == [term_to_json(rep(r)) for r in sorted(key)]


_ANALYSIS_OPS = hst.lists(
    hst.one_of(
        hst.tuples(hst.just("intern"), hst.lists(hst.integers(0, 199), min_size=1, max_size=4)),
        hst.tuples(hst.just("saturate"), hst.integers(1, 3)),
        hst.tuples(
            hst.sampled_from(["stage_of", "representative", "fold", "export_json"]),
            hst.integers(0, 49),
        ),
    ),
    min_size=1,
    max_size=12,
)


def _run_analysis_ops(st, pool, ops):
    """Interleaved interning, saturation and reads, each step followed by
    the from-scratch comparison; reads on a stale state included."""
    ids = []
    for kind, arg in ops:
        if kind == "intern":
            ids.extend(st.intern_term(pool[i % len(pool)]) for i in arg)
        elif kind == "saturate":
            st.saturate(max_rounds=arg)
        elif ids:
            c = ids[arg % len(ids)]
            if kind == "stage_of":
                st.stage_of(c)
            elif kind == "representative":
                st.representative(c)
            elif kind == "fold":
                st.fold(_leaf_value, _layer_value, [st.canonical(c).index])
            else:
                st.export_json()
        _assert_analysis_is_scratch(st)


_ANALYSIS_SIZES = {"bag.qit": 6, "omega_tree.qit": 5, "wreductions.qit": 5}
# a fixture's generators, for its pool and its state: in wreductions.qit
# ``mk(v, w) == v`` puts a generator leaf in a class beside operator layers
_ANALYSIS_GENERATORS = {"wreductions.qit": ("v", "w")}


@settings(max_examples=150, deadline=None)
@example(  # a merge whose root keeps its users while its key falls
    path="omega_tree.qit", max_instances=15, ops=[("intern", [13, 164]), ("saturate", 1)]
)
@given(hst.sampled_from(sorted(_ANALYSIS_SIZES)), hst.sampled_from([15, 2000]), _ANALYSIS_OPS)
def test_analysis_equals_from_scratch_extraction(fixtures, path, max_instances, ops):
    # the analysis kept current from the touched classes is the from-scratch
    # extraction after every step; small instance budgets exit mid-round
    # and leave congruences to the next saturation
    sig, system = elaborate(parse_decl((fixtures / path).read_text()), probe=2)
    gens = _ANALYSIS_GENERATORS.get(path, ())
    pool = closed_terms(sig, _ANALYSIS_SIZES[path], probe=2, generators=gens)
    st = new_qw(sig, system, generators=gens, max_instances=max_instances)
    _run_analysis_ops(st, pool, ops)


@settings(max_examples=150, deadline=None)
@example(  # the class that loses its root in a merge had the lesser stage
    system=make_system(
        SMALL_SIG,
        [("e0", 1, node("g", Var(0), node("c")), node("d")), ("e1", 2, Var(1), node("f", Var(1)))],
    ),
    max_instances=15,
    ops=[("intern", [107]), ("saturate", 1), ("saturate", 1)],
)
@given(_small_systems(max_equations=3), hst.sampled_from([15, 200]), _ANALYSIS_OPS)
def test_analysis_equals_from_scratch_extraction_as_costs_fall(system, max_instances, ops):
    # equations between terms of different sizes: merges lower costs and
    # stages, and keys change with them.  A two-variable equation can
    # square the carrier each round, so the instance budgets are small.
    st = new_qw(SMALL_SIG, system, max_instances=max_instances)
    _run_analysis_ops(st, closed_terms(SMALL_SIG, 4), ops)


@settings(max_examples=15, deadline=None)
@given(_small_systems())
def test_proved_pairs_are_never_separated(system):
    st = _small_state(system)
    # an algebra separating two members of a class separates one of them
    # from the class's first term, so those pairs cover every proved pair
    terms = closed_terms(SMALL_SIG, 3)
    first: dict[ClassId, tuple] = {}
    for t in terms:
        c = st.intern_term(t)
        u, cu = first.setdefault(st.canonical(c), (t, c))
        if u != t:
            assert st.decide_eq(cu, c).proved
            assert find_separator(SMALL_SIG, system, u, t, 2) is None


def _separator_by_scan(sig, system, t, u, carrier_bound):
    """The reference search: every complete table in ``itertools.product``
    order, each checked with ``eval_alg`` and ``sat_check``."""
    probe = system.probe
    for m in range(1, carrier_bound + 1):
        carrier = tuple(range(m))
        slots = [
            (name, probe_key(branches, probe))
            for name, arity in sig.ops
            for branches in branch_assignments(arity, carrier, probe)
        ]
        for outputs in itertools.product(carrier, repeat=len(slots)):
            alg = table_algebra(sig, carrier, dict(zip(slots, outputs)), probe=probe)
            if eval_alg(t, {}, alg) != eval_alg(u, {}, alg) and sat_check(alg, system).satisfied:
                return alg
    return None


def _assert_least_numbers(alg, sig, probe):
    """Each cell, in canonical order, holds at most one more than the
    largest element that it or an earlier cell reads as a branch value or
    that an earlier cell holds: the lex-first table of its isomorphism
    class obeys this, since renaming the larger value to that one would
    give an earlier table."""
    if alg is None:
        return
    d = -1
    for s in enumerate_opnodes(sig, alg.carrier, probe):
        d = max((d, *probe_key(s.branches, probe)[1:]))
        v = alg.interp(s.op, s.branches)
        assert v <= d + 1, (s, v, d)
        d = max(d, v)


def _rows(alg, sig, probe):
    if alg is None:
        return None
    return alg.carrier, [
        alg.interp(s.op, s.branches) for s in enumerate_opnodes(sig, alg.carrier, probe)
    ]


def _assert_same_separator(sig, system, t, u, carrier_bound):
    want = _separator_by_scan(sig, system, t, u, carrier_bound)
    _assert_least_numbers(want, sig, system.probe)
    got = find_separator(sig, system, t, u, carrier_bound)
    assert _rows(got, sig, system.probe) == _rows(want, sig, system.probe)
    return got


@settings(max_examples=25, deadline=None)
@given(
    _small_systems(),
    hst.lists(hst.sampled_from(SMALL_TERMS), min_size=2, max_size=2, unique=True),
)
def test_separator_equals_the_complete_table_scan(system, pair):
    _assert_same_separator(SMALL_SIG, system, *pair, 2)


@pytest.mark.parametrize(
    "left, right, separated",
    [
        pytest.param([], ["a"], True, id="nil-vs-a"),
        pytest.param(["a"], ["b"], True, id="a-vs-b"),
        pytest.param(["a", "a"], ["a"], True, id="aa-vs-a"),
        pytest.param(["a", "b"], ["b", "b"], True, id="ab-vs-bb"),
        pytest.param(["a", "b"], ["b", "a"], False, id="ab-vs-ba"),
        pytest.param(["a", "a", "b"], ["a", "b", "a"], False, id="aab-vs-aba"),
        pytest.param(["b", "a", "a"], ["a", "b", "a"], False, id="baa-vs-aba"),
    ],
)
def test_separator_with_mirrored_instances_equals_the_complete_table_scan(
    bag, left, right, separated
):
    # swap(a,b) and swap(b,a) give each instance's mirror, compiled once
    alg = _assert_same_separator(bag.signature, bag.system, bag_term(left), bag_term(right), 2)
    assert (alg is not None) == separated


@hst.composite
def _bag_pairs(draw):
    # a list against another list or against a reordering of itself
    left = draw(hst.lists(hst.sampled_from("ab"), max_size=3))
    if draw(hst.booleans()):
        return left, draw(hst.permutations(left))
    return left, draw(hst.lists(hst.sampled_from("ab"), max_size=3))


@settings(max_examples=40, deadline=None)
@example((["a", "b"], ["b", "a"]))
@example((["a"], ["b", "b"]))
@given(_bag_pairs())
def test_separator_equals_the_complete_table_scan_at_carrier_three(pair):
    # equal pairs scan every table up to carrier 3, so the search's
    # no-hit answer is compared with the scan's as well as its first hit
    inst = bag_of(("a", "b"))
    left, right = pair
    _assert_same_separator(inst.signature, inst.system, bag_term(left), bag_term(right), 3)


def _tree(op, entries, default):
    return Node(op, omega_table(entries, default))


LEAF = Node("leaf", ())
A_LEAF = _tree("node(a)", [], LEAF)
B_LEAF = _tree("node(b)", [], LEAF)


@pytest.mark.parametrize(
    "labels, t, u, separated",
    [
        pytest.param(("a", "b"), A_LEAF, B_LEAF, True, id="labels"),
        pytest.param(
            ("a", "b"),
            _tree("node(a)", [(0, LEAF)], B_LEAF),
            _tree("node(b)", [(0, LEAF)], A_LEAF),
            True,
            id="entries",
        ),
        pytest.param(("a",), LEAF, _tree("node(a)", [(0, A_LEAF)], LEAF), True, id="entry"),
        # an entry past the probe is read as the default
        pytest.param(
            ("a",), LEAF, _tree("node(a)", [(2, A_LEAF)], LEAF), True, id="entry-past-probe"
        ),
        pytest.param(
            ("a",), _tree("node(a)", [(0, LEAF)], A_LEAF), _tree("node(a)", [], A_LEAF), True,
            id="entry-vs-default",
        ),
        pytest.param(
            ("a",), _tree("node(a)", [(0, A_LEAF)], LEAF), _tree("node(a)", [(1, A_LEAF)], LEAF),
            False, id="swapped",
        ),
        pytest.param(
            ("a",), _tree("node(a)", [(2, A_LEAF)], LEAF), A_LEAF, False, id="equal-past-probe"
        ),
    ],
)
def test_countable_separator_equals_the_complete_table_scan(labels, t, u, separated):
    inst = omega_tree_of(labels, 2, [((0, 1), (1, 0))])
    alg = _assert_same_separator(inst.signature, inst.system, t, u, 2)
    assert (alg is not None) == separated


# -- merge-log pins -----------------------------------------------------------------


def _qit(fixtures, name):
    return elaborate(parse_decl((fixtures / name).read_text()), probe=2)


def _instance(inst):
    return inst.signature, inst.system


# Digests of the log and the snapshot after ``enumerate_classes``, and the
# saturation result of each size, as (rounds, merges, new classes) of a
# fixpoint.  Matching, instantiation and rebuild must leave every payload
# index, merge, class id and derivation where they are.
PINNED_ENUMERATIONS = [
    pytest.param(
        lambda fx: _qit(fx, "bag.qit"), (), 6,
        "ecd0b2dbf5cab075e651f0a812197d65f14e8f57298018860c292da06669f843",
        "fe06b183eb30650bd7c66549bd4996d5b9b5d0927b7de21506201b96cb2b3fd4",
        [(1, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 0), (2, 3, 0), (2, 4, 0)],
        id="bag.qit-6",
    ),
    pytest.param(
        lambda fx: _instance(bag_of(("a", "b", "c"))), (), 6,
        "ece6dff14620027e3c1c4b31ec0184e8342a7291c7530361bd403ae0a9735764",
        "b439f5d810f1e53056f61261798d7cadefd554f8384f643ab52052e7a5835ab2",
        [(1, 0, 0), (1, 0, 0), (2, 3, 0), (2, 8, 0), (2, 15, 0), (2, 24, 0)],
        id="bag-abc-6",
    ),
    pytest.param(
        lambda fx: _qit(fx, "omega_tree.qit"), (), 4,
        "52efe69d759883f40c314d91ec731f98fa2eb79047a6694d7f0f563d8ae5b6b0",
        "cf7d7b2cafb042fa046b624f1c25d7e10229f0d89b64e13bae2190b1bd74d6af",
        [(1, 0, 0), (1, 0, 0), (1, 0, 0), (2, 8, 0)],
        id="omega_tree.qit-4",
    ),
    pytest.param(
        lambda fx: _instance(ordinal_notations()), (), 6,
        "359e1271baf2a4632c2c4a8c93503d9adf17479be9c469df84dd169fecc30a14",
        "899f66c0c988c4de9b1af615fc88e88d41166dfcd3970b910ae2c670ce9eac58",
        [(2, 1, 1), (4, 4, 4), (4, 4, 4), (4, 11, 10), (4, 15, 14), (4, 40, 36)],
        id="ordinal-6",
    ),
    pytest.param(
        lambda fx: _qit(fx, "wreductions.qit"), ("v", "w"), 3,
        "f5acdf133e0d1972e0a515a6b1eeb234e707af8a20459ea996bbf6f722a8ae57",
        "5030b04818a2a9403da5fe6925b3a00ad0346e094bb583b34ef9b09a1c96b24d",
        [(2, 4, 4), (1, 0, 0), (1, 0, 0)],
        id="wreductions.qit-vw-3",
    ),
]


@pytest.mark.parametrize(
    "build, generators, size, log_digest, export_digest, saturations",
    PINNED_ENUMERATIONS,
)
def test_enumeration_merge_log_is_pinned(
    fixtures, build, generators, size, log_digest, export_digest, saturations
):
    sig, system = build(fixtures)
    st = new_qw(sig, system, generators=generators)
    results = []
    saturate = st.saturate

    def recording_saturate(**kw):
        results.append(saturate(**kw))
        return results[-1]

    st.saturate = recording_saturate
    st.enumerate_classes(size)
    assert results == [SaturationResult(True, *r) for r in saturations]
    assert hashlib.sha256(repr(st.log).encode()).hexdigest() == log_digest
    snapshot = json.dumps(st.export_json(), sort_keys=True)
    assert hashlib.sha256(snapshot.encode()).hexdigest() == export_digest


def test_congruence_upkeep_touches_only_what_merges_changed(fixtures, monkeypatch):
    # after an enumeration, one new list and its saturation re-key only the
    # users of merged classes and refresh only their classes' index
    # entries: fewer canonicalisations than there are payloads, where
    # re-keying every payload once per pass makes several times as many
    sig, system = _qit(fixtures, "bag.qit")
    st = new_qw(sig, system)
    st.enumerate_classes(6)
    keyed = {"depth": 0, "calls": 0}

    def upkeep(name):
        method = getattr(QWState, name)

        def wrapped(self, *args):
            keyed["depth"] += 1
            try:
                return method(self, *args)
            finally:
                keyed["depth"] -= 1

        monkeypatch.setattr(QWState, name, wrapped)

    def counted(name):
        method = getattr(QWState, name)

        def wrapped(self, *args):
            keyed["calls"] += keyed["depth"] > 0
            return method(self, *args)

        monkeypatch.setattr(QWState, name, wrapped)

    for name in ("_rebuild", "_enodes"):
        upkeep(name)
    for name in ("_canon_key", "_canon_branches"):
        counted(name)
    new = st.intern_term(bag_term(["a", "b", "b", "a", "a", "b", "a"]))
    assert st.saturate().fixpoint
    assert st.same_class(new, st.intern_term(bag_term(["a"] * 4 + ["b"] * 3)))
    assert 0 < keyed["calls"] < len(st._payloads)


def test_extraction_reads_the_operator_index(monkeypatch):
    # with the operator index current, the analysis weighs each class over
    # its canonical layers there and canonicalises no payload again
    inst = bag_of(("a", "b", "c"))
    st = new_qw(inst.signature, inst.system)
    for t in closed_terms(inst.signature, 6):
        st.intern_term(t)
    assert st.saturate().fixpoint
    st._enodes()
    calls = []
    canon = QWState._canon_branches

    def counted(self, branches):
        calls.append(branches)
        return canon(self, branches)

    monkeypatch.setattr(QWState, "_canon_branches", counted)
    st._analysis()
    assert len(calls) == 0
    assert len(st._key) == st.class_count


def _bag_pair(rng):
    xs = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
    ys = list(xs)
    rng.shuffle(ys)
    return bag_term(xs), bag_term(ys)


def _swapped(t):
    """The term with entries 0 and 1 of every countable map exchanged."""
    if isinstance(t, Node) and isinstance(t.branches, OmegaTable):
        b = t.branches
        entries = [(1 - i, _swapped(v)) for i, v in b.entries]
        return Node(t.op, omega_table(entries, _swapped(b.default)))
    return t


def _bag_session(fx):
    inst = bag_of(("a", "b", "c"))
    return inst.signature, inst.system, _bag_pair


def _omega_tree_session(fx, size=5):
    sig, system = _qit(fx, "omega_tree.qit")
    pool = closed_terms(sig, size, probe=2)

    def pair(rng):
        t = rng.choice(pool)
        return t, _swapped(t)

    return sig, system, pair


# e0's x1 is bound by neither side, so each match completes over every
# root; e1's right side is a bare variable, which matches at every root
UNBOUND_SYSTEM = make_system(
    SMALL_SIG,
    [
        ("e0", 2, node("g", Var(0), node("c")), node("g", node("c"), Var(0))),
        ("e1", 1, node("f", node("f", Var(0))), Var(0)),
    ],
)


def _unbound_variable_session(fx):
    def pair(rng):
        return rng.choice(SMALL_TERMS), rng.choice(SMALL_TERMS)

    return SMALL_SIG, UNBOUND_SYSTEM, pair


# Digests of the log and of the derivations after a seeded mix of interning
# pairs of terms, saturating with 0..3 rounds and deciding earlier pairs;
# the omega_tree.qit case with 30 instances and the bag(a,b,c) case with
# 10 exit mid-round, and rebuild before they return.  A bag(a,b,c) round
# keeps 3 of the 9 swap equations, so on seed 2 its rounds stay within 30
# instances.
PINNED_SESSIONS = [
    pytest.param(
        _bag_session, 1, 200_000,
        "84c38a243d89c31d24690fe00417d89836cb66eaf02bb181f43bc629459cecf0",
        "d944c013178dee37e488e834633bde62208d70f8809845663addbb682ebb7344",
        id="bag-abc",
    ),
    pytest.param(
        _bag_session, 2, 30,
        "8ded17dd41a03bcc923c517527653d5fa69c0d74921bec60f2efb82d16ccccb5",
        "0a0a780485d521b129e465502898bf8d89b603e8111afec008bb8177e395dc0d",
        id="bag-abc-30-instances",
    ),
    pytest.param(
        _bag_session, 2, 10,
        "836d9929ff217a47749a85bc6f6875a017de9f7095ff984ef1770f58de349caf",
        "b9f5ea873ef487ad1c4a26d92fceb0e3ea8f95a1eaee761489026efd21fdca7f",
        id="bag-abc-10-instances",
    ),
    pytest.param(
        _omega_tree_session, 3, 200_000,
        "e79e1577e23f8814307a2f8d769f7b4bf229e96bc1aedf38b35e56d19f8b1ac2",
        "01460c7ded8f7b594009a847fd4bce3d73c8eb9fa9d29cb4f5fd39d3bcf9dd76",
        id="omega_tree.qit",
    ),
    pytest.param(
        lambda fx: _omega_tree_session(fx, 7), 7, 30,
        "7d018c15772ade8c648d2361e349aee581b0353e222981699d066c0b59fb7cdd",
        "99049f17852067e785bc250a3c9dcefd4e7f26f92e6028f1091ab9dd438172b4",
        id="omega_tree.qit-30-instances",
    ),
    pytest.param(
        _unbound_variable_session, 5, 200_000,
        "8e6e5ef9b265fbb50719bdfa38dd9c94a6f8644ca144020f596e9e1a2a3d33de",
        "1e00fbe65d4cbd227344c8ee7165deca1042d26f4c1692a89c354d7db06afc15",
        id="unbound-variable",
    ),
]


@pytest.mark.parametrize(
    "build, seed, max_instances, log_digest, derivation_digest", PINNED_SESSIONS
)
def test_mixed_session_log_is_pinned(
    fixtures, build, seed, max_instances, log_digest, derivation_digest
):
    sig, system, pair = build(fixtures)
    st = new_qw(sig, system, max_instances=max_instances)
    rng = random.Random(seed)
    pairs, derivations = [], []
    for _ in range(120):
        r = rng.random()
        if r < 0.4 or not pairs:
            t, u = pair(rng)
            pairs.append((st.intern_term(t), st.intern_term(u)))
        elif r < 0.7:
            st.saturate(max_rounds=rng.randint(0, 3))
        else:
            derivations.append(st.decide_eq(*rng.choice(pairs)).to_json())
    assert replay_merges(st) == sum(1 for e in st.log if e[0] == "merge")
    assert hashlib.sha256(repr(st.log).encode()).hexdigest() == log_digest
    digest = hashlib.sha256(json.dumps(derivations).encode()).hexdigest()
    assert digest == derivation_digest


# -- staged enumeration -----------------------------------------------------------


def _listed(st, size):
    """Intern every term ``closed_terms`` lists, one by one, then saturate:
    the terms, their classes and the saturation result."""
    terms = closed_terms(st.signature, size, probe=st.probe, generators=st.generators)
    ids = [st.intern_term(t) for t in terms]
    return terms, ids, st.saturate()


def _classes_of(st, terms):
    """The class of each term in a state that holds it, found by interning
    after a congruence rebuild; asserts that none is new."""
    st.saturate(max_rounds=0)
    log = st.log
    classes = [st.canonical(st.intern_term(t)) for t in terms]
    assert st.log == log
    return classes


def _enumerated_as_listed(st, ref, size):
    """``enumerate_classes`` on ``st`` against interning the listed terms
    on ``ref``, a state equal to it: the classes returned are those of the
    closed terms, which both partition alike, with the same representatives
    and stages.  False, comparing nothing, if the listing stops short of a
    fixpoint."""
    terms, ids, res = _listed(ref, size)
    if not res.fixpoint:
        return False
    got = st.enumerate_classes(size)
    assert st.saturate() == SaturationResult(True, 1, 0, 0)
    pairs = set(zip(_classes_of(st, terms), map(ref.canonical, ids)))
    assert len({c for c, _ in pairs}) == len(pairs) == len({r for _, r in pairs})
    assert {c for c, _ in got} == {c for c, _ in pairs}
    reps = ref.representatives([r for _, r in pairs])
    assert dict(got) == {c: reps[r] for c, r in pairs}
    keys = [term_key(t) for _, t in got]
    assert keys == sorted(keys)
    assert all(st.stage_of(c) == ref.stage_of(r) for c, r in pairs)
    return True


def _prepared(sig, system, generators, seed, size):
    """A state holding a few random terms, saturated; empty for seed 0."""
    st = new_qw(sig, system, generators=generators)
    if seed:
        pool = closed_terms(sig, size, probe=system.probe, generators=generators)
        for t in random.Random(seed).sample(pool, min(12, len(pool))):
            st.intern_term(t)
        st.saturate()
    return st


STAGED_CASES = [
    pytest.param(lambda fx: _qit(fx, "bag.qit"), (), 5, id="bag.qit"),
    pytest.param(lambda fx: _qit(fx, "omega_tree.qit"), (), 4, id="omega_tree.qit"),
    pytest.param(lambda fx: _qit(fx, "wreductions.qit"), ("v", "w"), 3, id="wreductions.qit-vw"),
    pytest.param(lambda fx: _instance(ordinal_notations()), (), 5, id="ordinal"),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("build, generators, size", STAGED_CASES)
def test_staged_enumeration_equals_interning_the_listed_terms(
    fixtures, build, generators, size, seed
):
    sig, system = build(fixtures)
    st = _prepared(sig, system, generators, seed, size)
    ref = _prepared(sig, system, generators, seed, size)
    assert _enumerated_as_listed(st, ref, size)



@pytest.mark.parametrize("build, generators, size", STAGED_CASES)
def test_one_more_round_per_size_only_merges_enumerated_classes(
    fixtures, build, generators, size
):
    # the round budget bounds each size's saturation, so a whole call may
    # run up to size * max_rounds rounds; with no instance-budget exit, a
    # larger budget only merges the classes of a smaller one
    sig, system = build(fixtures)
    terms = closed_terms(sig, size, probe=system.probe, generators=generators)
    partitions = []
    for rounds in range(5):
        st = new_qw(sig, system, generators=generators, max_rounds=rounds)
        st.enumerate_classes(size)
        partitions.append(_classes_of(st, terms))
    for finer, coarser in zip(partitions, partitions[1:]):
        assert len(set(zip(finer, coarser))) == len(set(finer)) >= len(set(coarser))
    assert len(set(partitions[0])) > len(set(partitions[-1]))

@settings(max_examples=60, deadline=None)
@example(system=UNBOUND_SYSTEM, size=4)
@given(_small_systems(max_equations=3, spare=1), hst.integers(1, 4))
def test_enumeration_modulo_the_equations_equals_the_listing(system, size):
    # random systems, with variables that no side binds, over a signature
    # with constants, a unary and a binary operator
    st = new_qw(SMALL_SIG, system, max_instances=500)
    ref = new_qw(SMALL_SIG, system, max_instances=500)
    assume(_enumerated_as_listed(st, ref, size))


@settings(max_examples=60, deadline=None)
@given(_small_systems(), _sides(2))
def test_redundant_equations_change_no_partition(system, side):
    # S against S plus a tautology, a mirror of each equation (named to sort
    # first, so a round keeps the mirror) and a copy under a second name: at
    # a fixpoint, the closed terms share classes alike, with the same
    # representatives and verdicts; every merge replays, and each sqeq
    # justification names a rule a round keeps
    eqs = [(e.name, e.var_count, e.lhs, e.rhs) for e in system.equations]
    redundant = make_system(
        SMALL_SIG,
        [
            *eqs,
            ("t", _var_count(side), side, side),
            *((f"a{name}", n, rhs, lhs) for name, n, lhs, rhs in eqs),
            *((f"{name}'", n, lhs, rhs) for name, n, lhs, rhs in eqs),
        ],
    )
    terms = closed_terms(SMALL_SIG, 3)
    views = []
    for sys_ in (system, redundant):
        # budgets small enough that a side which grows every class stops soon
        st = new_qw(SMALL_SIG, sys_, max_rounds=4, max_instances=200)
        st.enumerate_classes(3)
        assume(st.saturate() == SaturationResult(True, 1, 0, 0))
        merges = [e[3] for e in st.log if e[0] == "merge"]
        assert replay_merges(st) == len(merges)
        ids = _classes_of(st, terms)
        decisions = [st.decide_eq(a, b) for a in ids for b in ids]
        kept = {e.name for e in _reference_rules(sys_)}
        cited = [s.justification for d in decisions for s in d.steps]
        assert {j.equation for j in merges + cited if j.kind == "sqeq"} <= kept
        blocks: dict = {}
        for t, c in zip(terms, ids):
            blocks.setdefault(c, set()).add(t)
        reps = st.representatives(ids)
        views.append((
            {frozenset(b) for b in blocks.values()},
            [reps[c] for c in ids],
            [d.proved for d in decisions],
        ))
    assert views[0] == views[1]


def test_an_enumeration_past_its_instance_budget_is_sound_and_complete(fixtures):
    # sizes 4 to 7 each stop saturating at the budget of one instance (of
    # bag.qit's four equations a round keeps swap(a,b) alone), so merges are
    # missing; each class returned still holds a closed term within the
    # bound, each closed term's class is returned, and no two classes share
    # a term that a saturated listing keeps apart
    sig, system = _qit(fixtures, "bag.qit")
    st = new_qw(sig, system, max_instances=1)
    results = []
    saturate = st.saturate
    st.saturate = lambda **kw: results.append(saturate(**kw)) or results[-1]
    got = st.enumerate_classes(7)
    del st.saturate
    assert [r.fixpoint for r in results] == [True] * 3 + [False] * 4
    assert all(term_key(t)[0] <= 7 for _, t in got)
    ref = new_qw(sig, system)
    terms, ids, res = _listed(ref, 7)
    assert res.fixpoint
    pairs = set(zip(_classes_of(st, terms), map(ref.canonical, ids)))
    assert {c for c, _ in pairs} == {st.canonical(c) for c, _ in got}
    assert len({c for c, _ in pairs}) == len(pairs) > len({r for _, r in pairs})


def _brute_terms(sig, size, probe, generators):
    """Every closed term of exactly ``size``, by recursion over the
    operators: a countable node takes a default and a table over some of
    the positions below the probe, with no entry equal to the default."""
    out = [Var(g) for g in generators] if size == 1 else []
    for op, arity in sig.ops:
        if arity.is_omega:
            for dsize in range(1, size):
                for d in _brute_terms(sig, dsize, probe, generators):
                    rem = size - 1 - dsize
                    for table in _brute_tables(sig, rem, range(probe), d, probe, generators):
                        out.append(Node(op, omega_table(table, d)))
        else:
            for kids in _brute_rows(sig, size - 1, arity.finite, probe, generators):
                out.append(Node(op, tuple(kids)))
    return out


def _brute_rows(sig, total, n, probe, generators):
    if n == 0:
        return [[]] if total == 0 else []
    return [
        [t] + rest
        for k in range(1, total + 1)
        for t in _brute_terms(sig, k, probe, generators)
        for rest in _brute_rows(sig, total - k, n - 1, probe, generators)
    ]


def _brute_tables(sig, total, positions, default, probe, generators):
    if not positions:
        return [[]] if total == 0 else []
    i, rest = positions[0], positions[1:]
    out = _brute_tables(sig, total, rest, default, probe, generators)  # i at the default
    for k in range(1, total + 1):
        for t in _brute_terms(sig, k, probe, generators):
            if t != default:
                for tail in _brute_tables(sig, total - k, rest, default, probe, generators):
                    out.append([(i, t)] + tail)
    return out


@pytest.mark.parametrize("build, generators, size", STAGED_CASES)
def test_closed_terms_equal_a_brute_force_enumeration(fixtures, build, generators, size):
    sig, system = build(fixtures)
    for probe in (1, 2, 3):
        got = closed_terms(sig, size, probe=probe, generators=generators)
        brute = [
            t for s in range(1, size + 1) for t in _brute_terms(sig, s, probe, generators)
        ]
        assert len(set(brute)) == len(brute)
        assert got == sorted(brute, key=term_key)
        for t in got:
            if isinstance(t, Node) and isinstance(t.branches, OmegaTable):
                assert t.branches == omega_table(t.branches.entries, t.branches.default)
                assert all(i < probe for i in t.branches.support())


def _over(count, budget):
    return f"^{count} classes exceed the budget of {budget}$"


def _size_budgets(st, size):
    """For each size, the number ``enumerate_classes`` checks before
    building it: the classes so far plus the leaves and layers it goes on
    to build, counted from its calls to intern them."""
    counts = [st.class_count]
    add, layer, saturate = st._add, st._layer, st.saturate

    def counted(build):
        def call(*args):
            counts[-1] += 1
            return build(*args)

        return call

    def saturated(**kw):
        res = saturate(**kw)
        counts.append(st.class_count)
        return res

    st._add, st._layer, st.saturate = counted(add), counted(layer), saturated
    st.enumerate_classes(size)
    return counts[:-1]


def _assert_each_size_is_checked_before_building(make, size):
    """A budget one short of a size's number, and enough for the sizes
    before it, stops enumerating a state from ``make()`` at that size with
    its number, leaving the log of enumerating the sizes before it."""
    counts = _size_budgets(make(), size)
    for s, count in enumerate(counts, 1):
        if max(counts[: s - 1], default=0) >= count:
            continue  # a budget of count - 1 stops an earlier size
        st = make()
        with pytest.raises(BudgetExceededError, match=_over(count, count - 1)):
            st.enumerate_classes(size, class_budget=count - 1)
        ref = make()
        ref.enumerate_classes(s - 1)
        assert st.log == ref.log
    make().enumerate_classes(size, class_budget=max(counts))


@pytest.mark.parametrize("build, generators, size", STAGED_CASES)
def test_a_fresh_class_budget_is_checked_before_building(fixtures, build, generators, size):
    sig, system = build(fixtures)
    _assert_each_size_is_checked_before_building(
        lambda: new_qw(sig, system, generators=generators), size
    )


def test_a_fresh_budget_overrun_is_refused_without_building():
    # with no equations classes are terms, and size 1 alone, two constants
    # and 100,000 generator leaves, exceeds the default budget
    st = new_qw(
        SMALL_SIG, make_system(SMALL_SIG, []), generators=[f"x{i}" for i in range(100_000)]
    )
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=_over(100_002, 100_000)):
        st.enumerate_classes(30)
    assert time.perf_counter() - start < 1.0
    assert st.log == ()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("build, generators, size", STAGED_CASES)
def test_a_class_budget_on_a_used_state_counts_the_classes_after_interning(
    fixtures, build, generators, size, seed
):
    # the classes a size can leave are those the state has plus its layers
    sig, system = build(fixtures)
    _assert_each_size_is_checked_before_building(
        lambda: _prepared(sig, system, generators, seed, size), size
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_enumeration_never_interns_a_term(fixtures, monkeypatch, seed):
    sig, system = _qit(fixtures, "omega_tree.qit")
    st = _prepared(sig, system, (), seed, 4)

    def no_intern(self, t):
        raise AssertionError("enumerate_classes walked a term")

    monkeypatch.setattr(QWState, "_intern", no_intern)
    assert st.enumerate_classes(4)


def _recursive_intern(st, t):
    """Interning as a recursion: the node's branch map checked, its children
    interned left to right, then its layer."""
    if isinstance(t, Var):
        return st._intern(t)
    check_branches(st.signature, t.op, t.branches)
    return st._layer(t.op, map_branches(lambda b: _recursive_intern(st, b), t.branches), True)


def _recursive_fold(st, leaf, step, roots):
    """``QWState.fold`` as a memoised recursion over the chosen layers."""
    st._analysis()
    values = {}

    def value(r):
        if r not in values:
            name, kids = st._chosen[r]
            values[r] = leaf(name) if kids is None else step(name, map_branches(value, kids))
        return values[r]

    for r in roots:
        value(r)
    return values


def _recorded(calls):
    """A leaf and a step into the term algebra that log each call."""

    def leaf(name):
        calls.append(("leaf", name))
        return Var(name)

    def step(op, values):
        calls.append(("step", op, values))
        return term_algebra(op, values)

    return leaf, step


@pytest.mark.parametrize(
    "build, generators, size",
    [
        *STAGED_CASES,
        pytest.param(lambda fx: (SMALL_SIG, make_system(SMALL_SIG, [])), (), 4, id="small"),
    ],
)
def test_interning_and_folds_keep_the_post_order_of_the_recursion(
    fixtures, build, generators, size
):
    sig, system = build(fixtures)
    listed = closed_terms(sig, size + 1, probe=system.probe, generators=generators)
    terms = [t for t in listed if term_size(t) <= size]
    ours = new_qw(sig, system, generators=generators)
    ref = new_qw(sig, system, generators=generators)
    assert [ours.intern_term(t).index for t in terms] == [_recursive_intern(ref, t) for t in terms]
    # layers over class handles
    leaves = tuple(Var(ClassId(i)) for i in range(0, ours.class_count, 3))[:5]
    for s in enumerate_opnodes(sig, leaves, system.probe):
        t = Node(s.op, s.branches)
        assert ours.intern_term(t).index == _recursive_intern(ref, t)
    # refused terms over new children: a branch map of the wrong shape is
    # refused before any child is interned, an unknown generator once the
    # children left of it are
    extra = [t for t in listed if term_size(t) > size][:3] or terms[-3:]
    op, arity = max(sig.ops, key=lambda o: o[1].width(system.probe))
    width = arity.width(system.probe)
    kids = [extra[i % len(extra)] for i in range(width - 1)] + [Var("ghost")]
    if arity.is_omega:
        ghostly = Node(op, omega_table(list(enumerate(kids[:-1])), kids[-1]))
    else:
        ghostly = Node(op, tuple(kids))
    refused = [
        (Node(op, tuple(extra[: (arity.finite or 0) + 1])), ArityMismatchError),
        (ghostly, UnboundVariableError),
    ]
    for t, error in refused:
        for intern in (ours.intern_term, lambda t: _recursive_intern(ref, t)):
            with pytest.raises(error):
                intern(t)
        assert ours.log == ref.log
    ours.saturate(max_rounds=2)
    roots = sorted(ours._members)
    for picked in (None, roots[::-1], roots[1::3], *([r] for r in roots)):
        got, want = [], []
        values = ours.fold(*_recorded(got), picked)
        want_values = _recursive_fold(ours, *_recorded(want), roots if picked is None else picked)
        assert values == want_values
        assert got == want


def test_a_five_thousand_cell_list_interns_and_represents(bag):
    # deeper than the recursion limit; the representative is checked by
    # walking its spine, since record equality recurses
    cells = ["a", "b", "b"] * 1666 + ["a", "a"]
    st = fresh(bag)
    c = st.intern_term(bag_term(cells))
    assert st.class_count == len(cells) + 1
    t = st.representative(c)
    ops = []
    while t.op != "nil":
        ops.append(t.op)
        (t,) = t.branches
    assert ops == [f"cons({x})" for x in cells]
