from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qitbench.encodings import NIL, bag_of, bag_term, cons, omega_tree_of, ordinal_notations
from qitbench.engine import (
    ClassId,
    SaturationResult,
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


def test_export_json_shape(bag):
    st = fresh(bag)
    st.enumerate_classes(3)
    snapshot = st.export_json()
    assert snapshot["probe"] == 2
    assert len(snapshot["classes"]) == st.class_count
    assert all(e["tag"] in ("sqeq", "cong", "sqeta", "sqsigma") for e in snapshot["proof_forest"])
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
def _small_systems(draw):
    pairs = draw(hst.lists(hst.tuples(_sides(2), _sides(2)), min_size=1, max_size=2))
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
