from __future__ import annotations

import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from qitbench.encodings import NIL, bag_of, bag_term, cons, omega_tree_of, ordinal_notations
from qitbench.engine import (
    ClassId,
    ENode,
    GenLeaf,
    Justification,
    QWState,
    SaturationResult,
    _closed_term_count,
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
    branch_values,
    enumerate_opnodes,
    eval_alg,
    node,
    omega_table,
    probe_key,
    signature,
    table_algebra,
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
    assert decision.steps[0].justification.equation in ("swap(a,b)", "swap(b,a)")


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
    st = fresh(bag)
    with pytest.raises(BudgetExceededError) as err:
        st.enumerate_classes(4, class_budget=3)
    assert "classes" in str(err.value)


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
def _small_systems(draw, max_equations=2):
    pairs = draw(
        hst.lists(hst.tuples(_sides(2), _sides(2)), min_size=1, max_size=max_equations)
    )
    eqs = [
        (f"e{i}", max(_var_count(lhs), _var_count(rhs)), lhs, rhs)
        for i, (lhs, rhs) in enumerate(pairs)
    ]
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
    st.enumerate_classes(3)
    count = st.class_count
    assert not st.saturate().fixpoint
    assert st.class_count > count


def _reference_match(st, pattern, root):
    """Environments under which ``pattern``'s instance is class ``root``,
    read off the class's stored payloads (finite branches only, as in
    ``SMALL_SIG``) rather than the state's operator index."""
    if isinstance(pattern, Var):
        return [{pattern.name: root}]
    out = []
    for mid in st._members.get(root, ()):
        p = st._payloads[mid]
        if not isinstance(p, ENode) or p.op != pattern.op:
            continue
        envs = [{}]
        for sub, child in zip(pattern.branches, st._canon_branches(p.branches)):
            envs = [
                {**env, **cand}
                for env in envs
                for cand in _reference_match(st, sub, child)
                if all(env.get(k, v) == v for k, v in cand.items())
            ]
        out.extend(envs)
    return out


def _reference_envs(st, eq, roots):
    """Every environment under which one side's instance exists, its
    unbound variables completed over all roots."""
    n = eq.var_count
    envs = set()
    for side in (eq.lhs, eq.rhs):
        for r in roots:
            for env in _reference_match(st, side, r):
                missing = [v for v in range(n) if v not in env]
                for combo in itertools.product(roots, repeat=len(missing)):
                    full = {**env, **dict(zip(missing, combo))}
                    envs.add(tuple(full[v] for v in range(n)))
    return sorted(envs)


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


def _scratch_index(st):
    """Every class root's distinct canonical operator layers by head
    operator, built from the members."""
    index = {}
    for root, mids in st._members.items():
        by_op = index[root] = {}
        for mid in mids:
            p = st._payloads[mid]
            if isinstance(p, ENode):
                canon = _reference_key(st, p)[2]
                if canon and canon[0] == "w":
                    canon = OmegaTable(canon[1], canon[2])
                by_op.setdefault(p.op, {})[canon] = None
    return index


def _scratch_near(st, touched, height):
    """The roots within ``height`` parent steps of a touched root, with
    parents read off the from-scratch index."""
    parents = {}
    for root, by_op in _scratch_index(st).items():
        for layers in by_op.values():
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


def _reference_saturate(st, max_rounds):
    """Saturation as if every class were touched in every round: each
    equation is matched at every root by the matcher above, congruence is
    restored by full passes, and a call at a fixpoint runs its idle round.
    Returns the result and whether the instance budget tripped."""
    merges = _full_pass_rebuild(st)
    before = len(st._payloads)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        round_merges = 0
        size_before = len(st._payloads)
        roots = sorted(st._members)
        instances = 0
        for eq in sorted(st.system.equations, key=lambda e: e.name):
            for env in _reference_envs(st, eq, roots):
                instances += 1
                if instances > st.max_instances:
                    new = len(st._payloads) - before
                    return SaturationResult(False, rounds, merges, new), True
                env = tuple(st._find(v) for v in env)
                lid = st._intern_instance(eq.lhs, env)
                rid = st._intern_instance(eq.rhs, env)
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


@settings(max_examples=30, deadline=500)
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


@settings(max_examples=15, deadline=500)
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


def _rows(alg, sig, probe):
    if alg is None:
        return None
    return alg.carrier, [
        alg.interp(s.op, s.branches) for s in enumerate_opnodes(sig, alg.carrier, probe)
    ]


def _assert_same_separator(sig, system, t, u, carrier_bound):
    want = _separator_by_scan(sig, system, t, u, carrier_bound)
    got = find_separator(sig, system, t, u, carrier_bound)
    assert _rows(got, sig, system.probe) == _rows(want, sig, system.probe)
    return got


SMALL_TERMS = closed_terms(SMALL_SIG, 4)


@settings(max_examples=25, deadline=None)
@given(
    _small_systems(),
    hst.lists(hst.sampled_from(SMALL_TERMS), min_size=2, max_size=2, unique=True),
)
def test_separator_equals_the_complete_table_scan(system, pair):
    _assert_same_separator(SMALL_SIG, system, *pair, 2)


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
# saturation result it ends with.  Matching, instantiation and rebuild must
# leave every payload index, merge, class id and derivation where they are.
PINNED_ENUMERATIONS = [
    pytest.param(
        lambda fx: _qit(fx, "bag.qit"), (), 6,
        "e5df4639c1a01978c807e36c686f4b5e5705a9ec3aad877932da0378c15fd0bd",
        "4976f7ba569f07977d5223b6c7402e914a910c60c56027475442616b1d5da3a6",
        SaturationResult(True, 2, 42, 0),
        id="bag.qit-6",
    ),
    pytest.param(
        lambda fx: _instance(bag_of(("a", "b", "c"))), (), 6,
        "f3797d334596807b1cb90970cda0c55ac2ad04855fb43aa6e6461ec02c6bb718",
        "9afcdb7abfb5a1174deb7e4bc3186000dc583651e9dfca868d70c4d551de28e8",
        SaturationResult(True, 2, 308, 0),
        id="bag-abc-6",
    ),
    pytest.param(
        lambda fx: _qit(fx, "omega_tree.qit"), (), 4,
        "09724ca272e1535215488d0d969c45d96dd6c75539719997d22a83721d4ba6cd",
        "0b67f144acbb1c9f265722d41505a12809a74c81945414dca111cf02c65fab1c",
        SaturationResult(True, 2, 8, 0),
        id="omega_tree.qit-4",
    ),
    pytest.param(
        lambda fx: _instance(ordinal_notations()), (), 6,
        "f744b037cd02faaa6fd8fa8339719189962651a621f4b27b9fce12423ecc062f",
        "c07f22ae0a9380b93af9c28614a076586bd22de37342105ff9c9f55d7bb538db",
        SaturationResult(True, 4, 672, 394),
        id="ordinal-6",
    ),
    pytest.param(
        lambda fx: _qit(fx, "wreductions.qit"), ("v", "w"), 3,
        "6f8dc4f2d08dbe468339789f632da151e82d227fe68d8c4e72c3335a9275d6c3",
        "2262e0759ca38f564f1ea790bb08d9c73cb77408d83c9984fadf89304bdbe27f",
        SaturationResult(True, 2, 34, 30),
        id="wreductions.qit-vw-3",
    ),
]


@pytest.mark.parametrize(
    "build, generators, size, log_digest, export_digest, saturation",
    PINNED_ENUMERATIONS,
)
def test_enumeration_merge_log_is_pinned(
    fixtures, build, generators, size, log_digest, export_digest, saturation
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
    assert results == [saturation]
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


def _omega_tree_session(fx):
    sig, system = _qit(fx, "omega_tree.qit")
    pool = closed_terms(sig, 5, probe=2)

    def pair(rng):
        t = rng.choice(pool)
        return t, _swapped(t)

    return sig, system, pair


# Digests of the log and of the derivations after a seeded mix of interning
# pairs of terms, saturating with 0..3 rounds and deciding earlier pairs;
# the second case's small instance budget exits mid-round.
PINNED_SESSIONS = [
    pytest.param(
        _bag_session, 1, 200_000,
        "a5140500d5131df7eb68d6a6f608b55595a82b8359fffc6642138d13c7e9ab5a",
        "506b66e0bca2e01d0fb4a0645cd93020bdeedad6104430129338c9b4dd14e798",
        id="bag-abc",
    ),
    pytest.param(
        _bag_session, 2, 30,
        "265c91991a55e3f9523b2f1981c40ca7b826cb84ac585bf209a9a793da0ebb5a",
        "197a4c6b1265592c499020c5b1c64a23e567554db3d7ae392ca6dbe61031cc7f",
        id="bag-abc-30-instances",
    ),
    pytest.param(
        _omega_tree_session, 3, 200_000,
        "e79e1577e23f8814307a2f8d769f7b4bf229e96bc1aedf38b35e56d19f8b1ac2",
        "01460c7ded8f7b594009a847fd4bce3d73c8eb9fa9d29cb4f5fd39d3bcf9dd76",
        id="omega_tree.qit",
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


def _reference_enumeration(st, size):
    """``enumerate_classes`` as interning the listed terms one by one."""
    terms = closed_terms(st.signature, size, probe=st.probe, generators=st.generators)
    ids = [st.intern_term(t) for t in terms]
    st.saturate()
    roots = {st.canonical(c) for c in ids}
    reps = sorted((term_key(st.representative(c)), c) for c in roots)
    return [(c, st.representative(c)) for _, c in reps]


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
    assert st.enumerate_classes(size) == _reference_enumeration(ref, size)
    assert st.log == ref.log
    assert st.export_json() == ref.export_json()


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
        assert _closed_term_count(sig, size, probe, tuple(generators)) == len(brute)
        for t in got:
            if isinstance(t, Node) and isinstance(t.branches, OmegaTable):
                assert t.branches == omega_table(t.branches.entries, t.branches.default)
                assert all(i < probe for i in t.branches.support())


def _over(count, budget):
    return f"^{count} classes exceed the budget of {budget}$"


@pytest.mark.parametrize("build, generators, size", STAGED_CASES)
def test_a_fresh_class_budget_is_checked_before_building(fixtures, build, generators, size):
    sig, system = build(fixtures)
    count = len(closed_terms(sig, size, probe=system.probe, generators=generators))
    st = new_qw(sig, system, generators=generators)
    with pytest.raises(BudgetExceededError, match=_over(count, count - 1)):
        st.enumerate_classes(size, class_budget=count - 1)
    assert st.log == ()
    st.enumerate_classes(size, class_budget=count)
    assert st.class_count >= 1


def test_a_fresh_budget_overrun_is_refused_without_building(fixtures):
    sig, system = _qit(fixtures, "bag.qit")
    st = new_qw(sig, system)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=_over(2**30 - 1, 100_000)):
        st.enumerate_classes(30)
    assert time.perf_counter() - start < 1.0
    assert st.log == ()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("build, generators, size", STAGED_CASES)
def test_a_class_budget_on_a_used_state_counts_the_classes_after_interning(
    fixtures, build, generators, size, seed
):
    sig, system = build(fixtures)
    ref = _prepared(sig, system, generators, seed, size)
    for t in closed_terms(sig, size, probe=system.probe, generators=generators):
        ref.intern_term(t)
    count = ref.class_count
    st = _prepared(sig, system, generators, seed, size)
    with pytest.raises(BudgetExceededError, match=_over(count, count - 1)):
        st.enumerate_classes(size, class_budget=count - 1)
    st = _prepared(sig, system, generators, seed, size)
    st.enumerate_classes(size, class_budget=count)


@pytest.mark.parametrize("seed", [0, 1])
def test_enumeration_never_interns_a_term(fixtures, monkeypatch, seed):
    sig, system = _qit(fixtures, "omega_tree.qit")
    st = _prepared(sig, system, (), seed, 4)

    def no_intern(self, t):
        raise AssertionError("enumerate_classes walked a term")

    monkeypatch.setattr(QWState, "_intern", no_intern)
    assert st.enumerate_classes(4)
