from __future__ import annotations

import itertools
import json
from unittest import mock
from collections import Counter
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from qitbench import engine, initiality
from qitbench.cli import algebra_from_json
from qitbench.encodings import (
    NIL,
    bag_of,
    bag_term,
    length_algebra,
    one_point_algebra,
    ordinal_notations,
    parity_algebra,
)
from qitbench.engine import (
    UNEQUAL_SIDES,
    CarrierSatReport,
    ClassId,
    GenLeaf,
    Justification,
    SaturationResult,
    check_equations_hold,
    closed_terms,
    new_qw,
)
from qitbench.equations import (
    ENV_BUDGET,
    SatReport,
    instance_count,
    instances,
    make_system,
    sat_check,
)
from qitbench.errors import (
    BudgetExceededError,
    CoherenceError,
    FiberMismatchError,
    StaleProofError,
    UnboundVariableError,
    WorkbenchError,
)
from qitbench.initiality import (
    CoherenceReport,
    DepTarget,
    RecTarget,
    _elim_values,
    _given,
    _values,
    check_coherence,
    check_comp,
    check_rec_hom,
    check_uniq,
    constant_target,
    dep_target,
    qw_elim,
    qw_rec,
    rec_target,
)
from qitbench.schema import elaborate, parse_decl
from qitbench.terms import (
    FiniteAlgebra,
    OmegaTable,
    OpNode,
    Var,
    _interp,
    branch_values,
    count_opnodes,
    enumerate_opnodes,
    eval_alg,
    map_branches,
    node,
    omega_node,
    probe_key,
    signature,
    table_algebra,
    term_key,
)
from test_engine import SMALL_SIG, SMALL_TERMS, UNBOUND_SYSTEM, _small_systems


def _rec_values(st, alg, env, classes=None):
    # recursion's fold into ``alg``
    return _values(st, _given, partial(_interp, alg), env, classes)


def build(inst, bound):
    st = new_qw(inst.signature, inst.system)
    classes = st.enumerate_classes(bound)
    return st, classes


def test_qw_rec_length(bag):
    st, _ = build(bag, 4)
    target = rec_target(length_algebra(4), bag.system)
    c = st.intern_term(bag_term(["a", "b"]))
    assert qw_rec(st, target, c) == 2


def test_qw_rec_parity(bag):
    st, _ = build(bag, 4)
    target = rec_target(parity_algebra(), bag.system)
    c = st.intern_term(bag_term(["a", "b"]))
    assert qw_rec(st, target, c) == "even"


def test_qw_rec_one_point_everywhere(bag, omega_tree):
    for inst, bound in ((bag, 3), (omega_tree, 3)):
        st, classes = build(inst, bound)
        target = rec_target(one_point_algebra(), inst.system)
        assert {qw_rec(st, target, c) for c, _ in classes} == {"*"}


def test_qw_rec_sees_classes_interned_after_an_earlier_call(bag):
    st, _ = build(bag, 3)
    target = rec_target(length_algebra(4), bag.system)
    assert qw_rec(st, target, st.intern_term(bag_term(["a"]))) == 1
    longer = st.intern_term(bag_term(["b", "a", "b"]))
    assert qw_rec(st, target, longer) == 3
    assert qw_rec(st, target, st.intern_term(bag_term(["a", "b", "b"]))) == 3


def _two_point_algebra(values):
    # SMALL_SIG over {0, 1}: c, d, f at 0 and 1, then g at (0,0) to (1,1)
    cells = [("c", ()), ("d", ()), ("f", (0,)), ("f", (1,))]
    cells += [("g", b) for b in itertools.product((0, 1), repeat=2)]
    table = dict(zip(cells, values))
    return FiniteAlgebra((0, 1), lambda op, branches: table[op, tuple(branches)])


TWO_POINT_ALGEBRAS = [_two_point_algebra(v) for v in itertools.product((0, 1), repeat=8)]


@settings(max_examples=100, deadline=None)
@given(
    system=_small_systems(),
    pick=hst.integers(0, len(TWO_POINT_ALGEBRAS) - 1),
    size=hst.integers(1, 3),
    later=hst.lists(hst.sampled_from(SMALL_TERMS), max_size=4),
    max_rounds=hst.integers(0, 2),
    max_instances=hst.integers(1, 30),
)
def test_recursion_on_a_carrier_a_budget_left_unsaturated_evaluates_the_term(
    system, pick, size, later, max_rounds, max_instances
):
    # qw_rec settles a stale state under its budget and folds the class's
    # representative; every merge is an equation instance or a congruence,
    # which a model respects, so the value is the term's wherever the
    # budget stopped.  The terms interned after the enumeration leave the
    # state stale, so qw_rec's own saturation can stop on its budget too
    models = TWO_POINT_ALGEBRAS[pick:] + TWO_POINT_ALGEBRAS[:pick]
    alg = next((a for a in models if sat_check(a, system).satisfied), None)
    assume(alg is not None)
    target = rec_target(alg, system)
    st = new_qw(SMALL_SIG, system, max_rounds=max_rounds, max_instances=max_instances)
    st.enumerate_classes(size)
    for t in [*closed_terms(SMALL_SIG, size), *later]:
        assert qw_rec(st, target, st.intern_term(t)) == eval_alg(t, {}, alg)


def test_rec_target_refuses_violating_algebra(bag):
    broken = FiniteAlgebra(
        (0, 1, 2),
        lambda op, br: 0 if op == "nil" else (
            min(tuple(branch_values(br))[0] + 1, 2) if op == "cons(a)" else 0
        ),
    )
    with pytest.raises(WorkbenchError):
        rec_target(broken, bag.system)


def _corrupted(bag):
    # satisfies nothing: prepending b doubles instead of adding one
    def interp(op, branches):
        if op == "nil":
            return 0
        (b,) = tuple(branch_values(branches))
        return min(b + 1, 4) if op == "cons(a)" else min(2 * b + 2, 4)

    alg = FiniteAlgebra(tuple(range(5)), interp, name="corrupted")
    return RecTarget(alg, bag.system, SatReport(True))  # forged proof


def test_qw_rec_detects_stale_proof(bag):
    st, _ = build(bag, 4)
    target = _corrupted(bag)
    with pytest.raises(StaleProofError):
        qw_rec(st, target, st.intern_term(NIL))


def _parity_table() -> dict:
    # length parity as a lookup table over {0, 1}: every prepend flips
    table = {("nil", ("finite",)): 0}
    for op in ("cons(a)", "cons(b)"):
        for v in (0, 1):
            table[(op, ("finite", v))] = 1 - v
    return table


def test_qw_rec_refuses_a_table_changed_after_the_proof(bag):
    st, _ = build(bag, 4)
    table = _parity_table()
    target = rec_target(table_algebra(bag.signature, (0, 1), table), bag.system)
    ab = st.intern_term(bag_term(["a", "b"]))
    assert qw_rec(st, target, ab) == 0
    # a no longer flips at 0, so a::b::[] is 0 but b::a::[] is 1
    table[("cons(a)", ("finite", 0))] = 0
    with pytest.raises(StaleProofError):
        qw_rec(st, target, ab)


def test_target_recheck_runs_sat_check_only_on_a_new_table(bag, monkeypatch):
    calls = []
    real = initiality.sat_check
    monkeypatch.setattr(
        initiality, "sat_check", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    st, _ = build(bag, 4)
    table = _parity_table()
    target = rec_target(table_algebra(bag.signature, (0, 1), table), bag.system)
    ab = st.intern_term(bag_term(["a", "b"]))
    for _ in range(3):
        assert qw_rec(st, target, ab) == 0
    assert len(calls) == 2  # rec_target's check and the first re-check
    # still a model (a and b swap nothing), but another table: checked again
    table[("nil", ("finite",))] = 1
    assert qw_rec(st, target, ab) == 1
    assert qw_rec(st, target, ab) == 1
    assert len(calls) == 3


def test_target_recheck_table_is_not_a_constructor_argument(bag):
    st, _ = build(bag, 4)
    forged = _corrupted(bag)
    cells = initiality._operation_cells(forged.algebra, bag.system, 200_000)
    table = initiality._operation_table(forged.algebra, cells)
    assert table is not None
    with pytest.raises(TypeError):
        RecTarget(forged.algebra, bag.system, SatReport(True), [table])
    # a forged target starts with no passed table, so the re-check runs
    assert forged.passed_table == []
    with pytest.raises(StaleProofError):
        qw_rec(st, forged, st.intern_term(NIL))


def test_target_recheck_tabulates_its_cells_once(bag, monkeypatch):
    # the cells are built on the first use and kept on the target; each use
    # evaluates the algebra on them, so a changed table is still caught
    builds = []
    real = initiality.budgeted_opnodes
    monkeypatch.setattr(
        initiality, "budgeted_opnodes", lambda *a: builds.append(1) or real(*a)
    )
    st, _ = build(bag, 4)
    table = _parity_table()
    target = rec_target(table_algebra(bag.signature, (0, 1), table), bag.system)
    ab = st.intern_term(bag_term(["a", "b"]))
    assert target.cells == []
    for _ in range(3):
        assert qw_rec(st, target, ab) == 0
    assert len(builds) == 1 and len(target.cells[0]) == count_opnodes(bag.signature, 2, 2)
    table[("nil", ("finite",))] = 1
    assert qw_rec(st, target, ab) == 1
    assert len(builds) == 1
    # another target over the same algebra builds its own
    other = rec_target(table_algebra(bag.signature, (0, 1), table), bag.system)
    assert qw_rec(st, other, ab) == 1
    assert len(builds) == 2 and other.cells == target.cells


def test_target_recheck_falls_back_on_a_wide_operator(monkeypatch):
    # a ternary operator over 60 elements has 216,000 layers against the 60
    # environments of a one-variable equation: no table, sat_check each use
    sig = signature([("z", 0), ("t", 3)])
    system = make_system(sig, [("idem", 1, node("t", Var(0), Var(0), Var(0)), Var(0))])
    calls = Counter()

    def interp(op, branches):
        calls[op] += 1
        return tuple(branch_values(branches))[0] if op == "t" else 0

    target = rec_target(FiniteAlgebra(tuple(range(60)), interp), system)
    checks = []
    real = initiality.sat_check
    monkeypatch.setattr(
        initiality, "sat_check", lambda *a, **kw: checks.append(1) or real(*a, **kw)
    )
    st = new_qw(sig, system)
    c = st.intern_term(node("t", node("z"), node("z"), node("z")))
    for _ in range(3):
        calls.clear()
        assert qw_rec(st, target, c) == 0
        assert calls["t"] < 100  # 60 environments and the fold, no table
    assert len(checks) == 3
    assert target.passed_table == []
    assert target.cells == [None]


def test_check_rec_hom_ok(bag):
    st, _ = build(bag, 4)
    for alg in (length_algebra(4), parity_algebra()):
        report = check_rec_hom(st, rec_target(alg, bag.system))
        assert report.ok
        assert report.checked > 0


def test_check_rec_hom_counterexample_on_corrupted(bag):
    st, _ = build(bag, 4)
    report = check_rec_hom(st, _corrupted(bag))
    assert not report.ok
    assert report.counterexample is not None


def test_check_uniq_accepts_recursion_itself(bag):
    st, classes = build(bag, 4)
    target = rec_target(length_algebra(4), bag.system)
    h = {c: qw_rec(st, target, c) for c, _ in classes}
    assert check_uniq(st, target, h).ok


def test_check_uniq_rejects_constant_map_at_premise(bag):
    st, classes = build(bag, 4)
    target = rec_target(length_algebra(4), bag.system)
    h = {c: 0 for c, _ in classes}
    report = check_uniq(st, target, h)
    assert not report.ok
    assert report.premise_counterexample is not None
    assert report.premise_counterexample.op.startswith("cons")


def test_check_uniq_conclusion_failure_reported_distinctly(bag_a):
    # a map defined only on one unconstrained class passes the algebra-map
    # premise vacuously, so a wrong value surfaces as a conclusion failure
    st, classes = build(bag_a, 4)
    target = rec_target(length_algebra(3), bag_a.system)
    aa = st.intern_term(bag_term(["a", "a"]))
    report = check_uniq(st, target, {aa: 0})
    assert not report.ok
    assert report.premise_counterexample is None
    assert report.conclusion_counterexample is not None


def test_check_uniq_settles_a_stale_state_before_keying_the_map(bag):
    # the two orders are one class only once saturation merges them
    st = new_qw(bag.signature, bag.system)
    c1 = st.intern_term(bag_term(["a", "b"]))
    c2 = st.intern_term(bag_term(["b", "a"]))
    assert st.stale and not st.same_class(c1, c2)
    report = check_uniq(st, rec_target(length_algebra(4), bag.system), {c1: 2, c2: 2})
    assert report.ok
    assert st.same_class(c1, c2)


@pytest.mark.parametrize("first", ["ab", "ba"])
def test_check_uniq_refuses_a_map_that_is_not_a_function_on_the_carrier(bag, first):
    # a::b::[] and b::a::[] are one class, so values 3 and 2 on their two
    # handles define no map, whichever handle the mapping lists first
    st = new_qw(bag.signature, bag.system)
    c1 = st.intern_term(bag_term(["a", "b"]))
    c2 = st.intern_term(bag_term(["b", "a"]))
    st.enumerate_classes(3)
    assert st.same_class(c1, c2)
    h = {c1: 3, c2: 2} if first == "ab" else {c2: 2, c1: 3}
    target = rec_target(length_algebra(4), bag.system)
    with pytest.raises(WorkbenchError, match=f"class {st.canonical(c1).index} "):
        check_uniq(st, target, h)


@pytest.mark.parametrize("check", ["check_equations_hold", "check_coherence"])
def test_budgets_are_refused_before_any_work(bag, monkeypatch, check):
    st, classes = build(bag, 4)
    cids = [c for c, _ in classes]
    family, step = (lambda c: ("*",)), (lambda op, idxs, vals: "*")
    st.saturate()
    monkeypatch.setattr(initiality, "ENV_BUDGET", 3)
    folds = []
    monkeypatch.setattr(initiality, "_values", lambda *a, **kw: folds.append(a))
    runs = {
        "check_equations_hold": lambda: check_equations_hold(st, cids, env_budget=3),
        "check_coherence": lambda: check_coherence(st, family, step, classes=cids),
    }
    version = st.version
    with pytest.raises(BudgetExceededError, match=r"^\d+ environments exceed the budget of 3$"):
        runs[check]()
    assert st.version == version
    assert folds == []


def test_law_walks_read_stored_layers_past_a_trillion_over_the_fragment(fixtures):
    # check_equations_hold grows omega_tree's carrier from 23 classes to
    # thousands, so every root spans over 10**12 layers; the walks read the
    # layers the carrier stores, intern nothing, and count the rest skipped
    sig, system = elaborate(parse_decl((fixtures / "omega_tree.qit").read_text()))
    st = new_qw(sig, system)
    cids = [c for c, _ in st.enumerate_classes(4)]
    assert check_equations_hold(st, cids).ok
    family = lambda c: (0, 1, 2)
    dep = dep_target(st, family, lambda op, idxs, vals: _height(op, vals), classes=cids[:6])
    good = rec_target(FiniteAlgebra((0, 1, 2), _height), system)
    st.saturate()
    total = count_opnodes(sig, st.class_count, st.probe)
    assert total > 10**12
    version = st.version
    hom = check_rec_hom(st, good)
    h = {ClassId(r): v for r, v in _rec_values(st, good.algebra, None).items()}
    uniq = check_uniq(st, good, h)
    comp = check_comp(st, dep)
    assert st.version == version
    assert hom.ok and uniq.ok and comp.ok
    assert hom.checked + hom.skipped == total
    assert comp.checked == hom.checked


def test_qw_elim_refuses_unverified_coherence(bag):
    from qitbench.initiality import CoherenceReport, DepTarget

    st, classes = build(bag, 3)
    dep = DepTarget(
        lambda c: ("*",),
        lambda op, idxs, vals: "*",
        CoherenceReport(False, "swap(a,b)", "values differ"),
    )
    with pytest.raises(CoherenceError):
        qw_elim(st, dep, classes[0][0])


def test_unique_homomorphism_by_exhaustive_search(bag_a):
    # on the fragment of lists over one element with up to three entries,
    # brute force over all maps into the saturating counter finds exactly
    # one algebra map, and it is the recursion
    st, classes = build(bag_a, 4)
    assert len(classes) == 4
    target = rec_target(length_algebra(3), bag_a.system)
    recursion = {c: qw_rec(st, target, c) for c, _ in classes}
    keys = [c for c, _ in classes]
    homs = []
    for images in itertools.product(target.algebra.carrier, repeat=len(keys)):
        h = dict(zip(keys, images))
        report = check_uniq(st, target, h)
        if report.premise_ok:
            homs.append(h)
            assert report.ok
    assert homs == [recursion]


# -- dependent elimination ---------------------------------------------------------


def _multiset_family(st):
    def multiset_of(t):
        counts = Counter()
        while t != NIL:
            counts[t.op] += 1
            (t,) = t.branches
        return tuple(sorted(counts.items()))

    def family(c):
        return (multiset_of(st.representative(c)),)

    def step(op, idxs, vals):
        if op == "nil":
            return ()
        inner = dict(next(iter(branch_values(vals))))
        inner[op] = inner.get(op, 0) + 1
        return tuple(sorted(inner.items()))

    return family, step


def test_qw_elim_constant_singleton(bag):
    st, classes = build(bag, 3)
    dep = dep_target(
        st, lambda c: ("*",), lambda op, idxs, vals: "*", classes=[c for c, _ in classes]
    )
    assert all(qw_elim(st, dep, c) == "*" for c, _ in classes)
    assert check_comp(st, dep).ok


def test_qw_elim_degenerates_to_recursion(bag):
    # constant family of naturals with the length step: elimination agrees
    # with plain recursion on every enumerated class
    st, classes = build(bag, 4)
    target = rec_target(length_algebra(4), bag.system)

    def step(op, idxs, vals):
        if op == "nil":
            return 0
        return min(next(iter(branch_values(vals))) + 1, 4)

    dep = dep_target(
        st, lambda c: tuple(range(5)), step, classes=[c for c, _ in classes]
    )
    for c, _ in classes:
        assert qw_elim(st, dep, c) == qw_rec(st, target, c)


def test_qw_elim_multiset_fibers(bag):
    st, classes = build(bag, 4)
    family, step = _multiset_family(st)
    dep = dep_target(st, family, step, classes=[c for c, _ in classes])
    c = st.intern_term(bag_term(["a", "b"]))
    assert qw_elim(st, dep, c) == (("cons(a)", 1), ("cons(b)", 1))
    assert check_comp(st, dep).ok


def test_coherence_failure_refuses_elimination(bag):
    # a step that counts only prepends of a is not order independent with
    # respect to the swap equations when the family sees full multisets
    st, classes = build(bag, 3)
    fragment = [c for c, _ in classes]

    def family(c):
        return tuple(range(5))

    first_only = lambda op, idxs, vals: (
        0 if op == "nil" else (next(iter(branch_values(vals))) + (1 if op == "cons(a)" else 2)) % 5
    )
    report = check_coherence(st, family, first_only, classes=fragment)
    assert report.ok  # symmetric in the two prepends, so coherent

    order_sensitive = lambda op, idxs, vals: (
        0 if op == "nil" else (2 * next(iter(branch_values(vals))) + (1 if op == "cons(a)" else 0)) % 5
    )
    report = check_coherence(st, family, order_sensitive, classes=fragment)
    assert not report.ok
    with pytest.raises(CoherenceError):
        dep_target(st, family, order_sensitive, classes=fragment)


def test_coherence_and_elimination_leave_the_fiber_at_one_step(bag):
    # coherence and elimination take one step of the algebra of triples, so
    # a step that leaves its fiber at cons(b) fails both with one text: the
    # walk over a fragment whose swap instances reach cons(b), and the
    # elimination into a target checked on an empty fragment
    st, _ = build(bag, 2)
    nil, b = st.intern_term(bag_term([])), st.canonical(st.intern_term(bag_term(["b"])))
    family = lambda c: (0, 1)
    step = lambda op, idxs, vals: 2 if op == "cons(b)" else 0
    want = f"step value 2 outside the fiber over {b!r} at 'cons(b)'"
    assert check_coherence(st, family, step, classes=[nil]) == CoherenceReport(
        False, "swap(a,b)", want
    )
    dep = dep_target(st, family, step, classes=[])
    with pytest.raises(FiberMismatchError) as exc:
        qw_elim(st, dep, b)
    assert str(exc.value) == want


def test_elimination_checks_a_generator_value_against_its_fiber(fixtures):
    # a generator's given value is a leaf of the algebra of triples, so
    # elimination checks it against the fiber over the generator's class
    # with the coherence walk's text, where it used to return it as given
    sig, system = elaborate(parse_decl((fixtures / "wreductions.qit").read_text()), probe=2)
    st = new_qw(sig, system, generators=("v",))
    v = st.intern_term(Var("v"))
    dep = dep_target(st, lambda c: (0,), lambda op, idxs, vals: 0, classes=[v])
    with pytest.raises(FiberMismatchError) as exc:
        qw_elim(st, dep, v, gen_env={"v": 99})
    assert str(exc.value) == f"leaf value 99 outside the fiber over {st.canonical(v)!r}"
    assert qw_elim(st, dep, v, gen_env={"v": 0}) == 0


def test_comp_holds_on_every_builtin_dep_target(bag, bag_a):
    for inst in (bag, bag_a):
        st, classes = build(inst, 4)
        family, step = _multiset_family(st)
        dep = dep_target(st, family, step, classes=[c for c, _ in classes])
        assert check_comp(st, dep).ok


# -- the fold against evaluating representatives ----------------------------------


def _recording(op, branches):
    # keeps the exact branch map it is handed, so any difference in the
    # maps the fold passes shows up in the value
    return (op, branches)


class _Everything:
    def __contains__(self, _value):
        return True


FOLD_CASES = [
    pytest.param("bag.qit", 6, (), "length_algebra.json", id="bag-length"),
    pytest.param("bag.qit", 6, (), "corrupted_length_algebra.json", id="bag-corrupted"),
    pytest.param("bag.qit", 6, (), None, id="bag-recording"),
    pytest.param("omega_tree.qit", 4, (), None, id="omega_tree-recording"),
    pytest.param("wreductions.qit", 3, ("v", "w"), None, id="wreductions-recording"),
]


def _fold_case(fixtures, path, size, generators, algebra):
    sig, system = elaborate(parse_decl((fixtures / path).read_text()), probe=2)
    st = new_qw(sig, system, generators=generators)
    classes = st.enumerate_classes(size)
    assert [t for _, t in classes] == sorted((t for _, t in classes), key=term_key)
    if algebra is None:
        return st, _recording, {g: g for g in generators}
    alg = algebra_from_json(json.loads((fixtures / algebra).read_text()), sig, 2)
    return st, alg, {}


@pytest.mark.parametrize("path,size,generators,algebra", FOLD_CASES)
def test_fold_equals_evaluating_representatives(fixtures, path, size, generators, algebra):
    st, alg, env = _fold_case(fixtures, path, size, generators, algebra)
    expected = {
        c.index: eval_alg(st.representative(c), env, alg) for c in st.roots()
    }
    assert _rec_values(st, alg, env) == expected


@pytest.mark.parametrize("path,size,generators,algebra", FOLD_CASES)
def test_recursion_folds_only_the_queried_class(
    fixtures, monkeypatch, path, size, generators, algebra
):
    # qw_rec and qw_elim fold the class's own subgraph; each answer is the
    # full fold's
    st, alg, env = _fold_case(fixtures, path, size, generators, algebra)
    expected = _rec_values(st, alg, env)
    # the recording and corrupted algebras are no recursion targets: let
    # them through the re-check so the fold itself is compared
    monkeypatch.setattr(initiality, "_validate_target", lambda state, target: None)
    target = RecTarget(alg, st.system, SatReport(True))
    for c in st.roots():
        assert qw_rec(st, target, c, gen_env=env) == expected[c.index]
    leaf = st.roots()[0]
    assert _rec_values(st, alg, env, [leaf]) == {leaf.index: expected[leaf.index]}
    # and so does qw_elim, through the pair algebra: on a generator's
    # class it takes no step
    steps = []

    def step(op, idxs, vals):
        steps.append(op)
        return _interp(alg, op, vals)

    dep = DepTarget(lambda c: _Everything(), step, CoherenceReport(True))
    expected = _elim_values(st, dep, env)
    for c in st.roots():
        assert qw_elim(st, dep, c, gen_env=env) == expected[c.index]
    for g in generators:
        steps.clear()
        assert qw_elim(st, dep, st.intern_term(Var(g)), gen_env=env) == env[g]
        assert steps == []


def test_an_unbound_generator_raises_only_where_the_queried_class_uses_it(
    fixtures, monkeypatch
):
    st, alg, _ = _fold_case(fixtures, "wreductions.qit", 3, ("v", "w"), None)
    monkeypatch.setattr(initiality, "_validate_target", lambda state, target: None)
    target = RecTarget(alg, st.system, SatReport(True))
    v, w = st.intern_term(Var("v")), st.intern_term(Var("w"))
    assert qw_rec(st, target, v, gen_env={"v": "v"}) == "v"
    with pytest.raises(UnboundVariableError):
        qw_rec(st, target, w, gen_env={"v": "v"})
    with pytest.raises(UnboundVariableError):
        _rec_values(st, alg, {"v": "v"})


def test_fold_drops_entries_that_collapse_onto_the_default():
    # s's entry 0 points at f(c); once f(c) joins leaf the stored layer
    # still lists the entry, and no equation makes a layer without it
    sig = signature([("leaf", 0), ("c", 0), ("f", 1), ("s", None)])
    system = make_system(sig, [("fc", 0, node("f", node("c")), node("leaf"))])
    st = new_qw(sig, system)
    c = st.intern_term(omega_node("s", [(0, node("f", node("c")))], node("leaf")))
    st.saturate()
    assert st.representative(c) == omega_node("s", [], node("leaf"))
    values = _rec_values(st, _recording, {})
    assert values == {
        r.index: eval_alg(st.representative(r), {}, _recording) for r in st.roots()
    }
    assert values[st.canonical(c).index] == ("s", OmegaTable((), ("leaf", ())))


@pytest.mark.parametrize("path,size,generators,algebra", FOLD_CASES)
def test_elimination_equals_walking_representatives(
    fixtures, path, size, generators, algebra
):
    st, alg, env = _fold_case(fixtures, path, size, generators, algebra)

    def step(op, idxs, vals):
        return op, idxs, _interp(alg, op, map_branches(lambda v: v[-1], vals))

    # a forged coherence report: elimination runs whatever step it is given
    dep = DepTarget(lambda c: _Everything(), step, CoherenceReport(True))
    env = {g: ("leaf", v) for g, v in env.items()}

    def walk(t):
        if isinstance(t, Var):
            return st.intern_term(t), env[t.name]
        pairs = map_branches(walk, t.branches)
        idxs = map_branches(lambda p: p[0], pairs)
        vals = map_branches(lambda p: p[1], pairs)
        return st.lookup_intro(OpNode(t.op, idxs)), step(t.op, idxs, vals)

    expected = {}
    for c in st.roots():
        idx, val = walk(st.representative(c))
        assert st.same_class(idx, c)
        expected[c.index] = val
    assert _elim_values(st, dep, env) == expected


def _height(op, branches):
    # tree height capped at 2: symmetric in the branches, so a model
    if op == "leaf":
        return 0
    return min(2, 1 + max(branch_values(branches)))


def _first_branch(op, branches):
    # reads position 0 alone, which the perm equation swaps with position 1
    if op == "leaf":
        return 0
    return min(2, 1 + branches.at(0))


def test_law_walk_reports_are_pinned_on_omega_tree(fixtures):
    # every report of the algebra-map law, as the walk over the fragment's
    # layers gives it: its verdict, counts and first breaking layer
    sig, system = elaborate(parse_decl((fixtures / "omega_tree.qit").read_text()))
    st = new_qw(sig, system)
    cids = [c for c, _ in st.enumerate_classes(4)]
    assert len(cids) == 23
    family = lambda c: (0, 1, 2)
    good_dep = dep_target(
        st, family, lambda op, idxs, vals: _height(op, vals), classes=cids[:6]
    )
    # a forged coherence report: the step is not invariant under perm
    bad_dep = DepTarget(
        family, lambda op, idxs, vals: _first_branch(op, vals), CoherenceReport(True)
    )
    good = rec_target(FiniteAlgebra((0, 1, 2), _height), system)
    bad = RecTarget(FiniteAlgebra((0, 1, 2), _first_branch), system, SatReport(True))
    swapped = {
        "verdict": "counterexample", "operator": "node(a)",
        "branches": {"table": [[1, 1]], "default": 0},
    }

    report = check_rec_hom(st, good, classes=cids)
    assert (report.checked, report.skipped) == (435, 23900)
    assert report.to_json() == {"verdict": "ok", "checked": 435, "skipped": 23900}
    report = check_rec_hom(st, bad, classes=cids)
    assert (report.checked, report.skipped) == (8, 17)
    assert report.to_json() == {**swapped, "checked": 8, "skipped": 17}

    h = {c: qw_rec(st, good, c) for c in cids}
    assert check_uniq(st, good, h).to_json() == {"verdict": "ok"}
    assert check_uniq(st, good, {c: 0 for c in cids}).to_json() == {
        "verdict": "premise-counterexample", "operator": "node(a)",
        "branches": {"table": [], "default": 0},
    }
    # the leaf layer's introduction lies outside a one-class map: skipped
    assert check_uniq(st, good, {cids[1]: 0}).to_json() == {
        "verdict": "conclusion-counterexample", "class": cids[1].index,
    }

    report = check_comp(st, good_dep, classes=cids)
    assert report.checked == 435
    assert report.to_json() == {"verdict": "ok", "checked": 435}
    report = check_comp(st, bad_dep, classes=cids)
    assert report.checked == 8
    assert report.to_json() == {**swapped, "checked": 8}


# -- the law walk against enumerating and looking up every layer ---------------------


def _reference_law_walk(state, fragment, values, step):
    # every layer over the fragment in enumeration order, its introduction
    # looked up by canonical key; a layer with no valued class is skipped
    vals = values()
    roots = {c: state._live_root(c) for c in fragment}
    checked = skipped = 0
    for s in enumerate_opnodes(state.signature, fragment, state.probe):
        root = state._layer(s.op, map_branches(roots.__getitem__, s.branches), False)
        if root not in vals:
            skipped += 1
            continue
        checked += 1
        if step(s, map_branches(lambda c: vals[roots[c]], s.branches)) != vals[root]:
            return s, checked, skipped
    return None, checked, skipped


def _max_algebra(op, branches):
    # zero, a capped successor and the greatest branch: a model of the
    # ordinal notations' suprema laws
    if op == "zero":
        return 0
    if op == "suc":
        return min(2, 1 + branches[0])
    return max(branch_values(branches))


def _bag_length(op, branches):
    return 0 if op == "nil" else min(2, 1 + branches[0])


# per instance: declaration, generators with their values, largest size
# bound, an algebra over (0, 1, 2) satisfying its equations, and one that
# breaks them
WALK_CASES = {
    "bag": (
        "bag.qit", {}, 6, _bag_length,
        lambda op, b: 2 - b[0] if op == "cons(b)" else _bag_length(op, b),
    ),
    "omega_tree": ("omega_tree.qit", {}, 4, _height, _first_branch),
    "wreductions": (
        "wreductions.qit", {"v": 1, "w": 2}, 3, lambda op, b: b[0], lambda op, b: b[1],
    ),
    "ordinals": (
        None, {}, 6, _max_algebra,
        lambda op, b: b.at(0) if op == "sup" else _max_algebra(op, b),
    ),
}


def _walk_state(fixtures, case, bound, max_rounds, wide):
    # the classes up to the bound; ``wide`` adds a countable layer with a
    # table entry past the probe, which no layer over a fragment is
    path, gens = WALK_CASES[case][:2]
    if path is None:
        inst = ordinal_notations()
        sig, system = inst.signature, inst.system
    else:
        sig, system = elaborate(parse_decl((fixtures / path).read_text()))
    st = new_qw(sig, system, generators=tuple(gens), max_rounds=max_rounds)
    roots = [c for c, _ in st.enumerate_classes(bound)]
    omega = [op for op, arity in sig.ops if arity.is_omega]
    if wide and omega and len(roots) > 1:
        st.intern_term(omega_node(omega[0], {st.probe: Var(roots[0])}, Var(roots[1])))
        st.saturate()
    return st


def _walk_algebra(case, sig, probe, cell):
    # the model, the algebra that breaks the equations, or the model with
    # one cell of its table moved to the next value
    interp, broken = WALK_CASES[case][3:]
    if cell is None or cell == "broken":
        return broken if cell else interp
    cells = list(enumerate_opnodes(sig, (0, 1, 2), probe))
    at = cells[cell % len(cells)]
    key = (at.op, probe_key(at.branches, probe))

    def moved(op, branches):
        value = interp(op, branches)
        return (value + 1) % 3 if (op, probe_key(branches, probe)) == key else value

    return moved


def _walks(run):
    # the check's report with each law walk's result, under the stored-layer
    # walk and under the reference
    results = {}
    for name, walk in (("stored", initiality._law_walk), ("reference", _reference_law_walk)):
        seen = []

        def recording(*args, walk=walk, seen=seen):
            seen.append(walk(*args))
            return seen[-1]

        with mock.patch.object(initiality, "_law_walk", recording):
            results[name] = (run(), seen)
    return results["stored"], results["reference"]


@settings(max_examples=150, deadline=None)
@example(
    case="omega_tree", bound=4, max_rounds=40, wide=True, picks=None, cell="broken", moved=[0]
)
@example(case="ordinals", bound=6, max_rounds=1, wide=False, picks=None, cell="broken", moved=[])
@given(
    hst.sampled_from(sorted(WALK_CASES)),
    hst.integers(1, 6),
    hst.sampled_from([1, 2, 40]),
    hst.booleans(),
    hst.none() | hst.lists(hst.integers(0, 10**6), max_size=12),
    hst.none() | hst.just("broken") | hst.integers(0, 10**6),
    hst.lists(hst.integers(0, 10**6), max_size=3),
)
def test_law_walk_over_stored_layers_equals_enumerating_every_layer(
    fixtures, case, bound, max_rounds, wide, picks, cell, moved
):
    # checked, skipped and the first counterexample of check_rec_hom,
    # check_uniq and check_comp are the reference's, over every root or a
    # subset of classes by any of their handles, for a model and for a
    # corrupted algebra, map or step.  The states are at a fixpoint or
    # after a round-budget exit, where the rebuild has run; after an
    # instance-budget exit it is pending, and the operator index shows
    # merged layers that a lookup by the memo's stale keys misses.
    _, gens, top, interp, _ = WALK_CASES[case]
    st = _walk_state(fixtures, case, min(bound, top), max_rounds, wide)
    assert not st.stale
    if picks is None:
        classes = None
    else:  # one handle per class, not always its root
        by_class = {}
        for i in picks:
            c = ClassId(i % len(st._payloads))
            by_class.setdefault(st.canonical(c), c)
        classes = list(by_class.values())
    alg = FiniteAlgebra((0, 1, 2), interp)
    bad = FiniteAlgebra((0, 1, 2), _walk_algebra(case, st.signature, st.probe, cell))
    good = rec_target(alg, st.system)
    forged = RecTarget(bad, st.system, SatReport(True))
    values = _rec_values(st, alg, gens)
    h = {c: values[st.canonical(c).index] for c in classes or st.roots()}
    for i in moved:
        c = list(h)[i % len(h)]
        h[c] = (h[c] + 1) % 3
    dep = DepTarget(
        lambda c: (0, 1, 2), lambda op, idxs, vals: bad.interp(op, vals), CoherenceReport(True)
    )
    version = st.version
    for run in (
        lambda: check_rec_hom(st, forged, classes=classes, gen_env=gens),
        lambda: check_uniq(st, good, h, gen_env=gens),
        lambda: check_comp(st, dep, classes=classes, gen_env=gens),
    ):
        stored, reference = _walks(run)
        assert stored == reference
        assert st.version == version


# -- the algebra-map law on every member, against forced wrong merges ---------------


def _reference_member_walk(state, alg, gen_env):
    # every member of every class valued over its children's values, a
    # generator leaf by its given value, against the class's value
    values = _rec_values(state, alg, gen_env)
    env = dict(gen_env) if gen_env else {}
    root = lambda i: state.canonical(ClassId(i)).index
    for c in state.roots():
        expected = values[c.index]
        for payload in state.members(c):
            if isinstance(payload, GenLeaf):
                got = env.get(payload.name, expected)
            else:
                kids = map_branches(lambda i: values[root(i)], payload.branches)
                got = _interp(alg, payload.op, kids)
            if got != expected:
                return False
    return True


def _forced(make, merge):
    # a fresh state, with two classes wrongly merged and then saturated
    st = make()
    if merge is not None:
        st._union(*merge, Justification("sqeq", "forced"))
        st.saturate()
    return st


def _wide_root(st):
    # the class of the one stored layer with a table entry past the probe
    (root,) = [
        r
        for op, arity in st.signature.ops if arity.is_omega
        for r, layers in st._enodes()[op].items()
        for kids in layers if kids.support()[-1:] >= (st.probe,)
    ]
    return root


def _forced_cases(fixtures, case):
    # the state maker, its wrong merges (every pair of classes, or the wide
    # layer's class with each other class), the models and generator values
    if case == "bag":
        bag = bag_of(("a", "b"))

        def make():
            st = new_qw(bag.signature, bag.system)
            st.enumerate_classes(4)
            return st

        algebras, gens = [length_algebra(4), parity_algebra()], None
    else:
        _, gens, _, interp, _ = WALK_CASES[case]
        bound = {"wreductions": 3, "omega_tree": 3, "ordinals": 4}[case]
        make = lambda: _walk_state(fixtures, case, bound, 40, case != "wreductions")
        algebras = [FiniteAlgebra((0, 1, 2), interp)]
    st = make()
    roots = [c.index for c in st.roots()]
    if case in ("omega_tree", "ordinals"):
        wide = _wide_root(st)
        merges = [(wide, r) for r in roots if r != wide]
    else:
        merges = list(itertools.combinations(roots, 2))
    return make, merges, algebras, gens


@pytest.mark.parametrize(
    "case, cases, failing, members_only",
    [("bag", 90, 59, 0), ("wreductions", 1, 1, 1), ("omega_tree", 7, 3, 3), ("ordinals", 5, 3, 3)],
)
def test_check_rec_hom_fails_where_the_layer_walk_or_the_member_walk_does(
    fixtures, case, cases, failing, members_only
):
    # forced wrong merges into copies of a state, under models: the check
    # fails exactly where the walk over the layers over the fragment or the
    # walk over every member does.  Merging two generators, or a countable
    # layer with a table entry past the probe into another class, breaks
    # only the law on members that no layer over the fragment is.  An
    # unforced state passes all three.
    make, merges, algebras, gens = _forced_cases(fixtures, case)
    seen = Counter()
    for alg in algebras:
        for merge in [None, *merges]:
            st = _forced(make, merge)
            target = RecTarget(alg, st.system, SatReport(True))
            step = lambda s, kids: _interp(alg, s.op, kids)
            values = lambda: _rec_values(st, alg, gens)
            layers = _reference_law_walk(st, st.roots(), values, step)[0] is None
            members = _reference_member_walk(st, alg, gens)
            report = check_rec_hom(st, target, gen_env=gens)
            assert report.ok == (layers and members)
            if merge is None:
                assert report.ok
                continue
            seen["cases"] += 1
            seen["failing"] += not report.ok
            seen["members_only"] += layers and not members
    assert seen == Counter(cases=cases, failing=failing, members_only=members_only)


def test_a_generator_leaf_that_breaks_the_law_is_the_counterexample(fixtures):
    # v and w forced into one class, whose value is v's: w's leaf breaks
    # the law after every layer over the fragment holds
    make, (merge,), (alg,), gens = _forced_cases(fixtures, "wreductions")
    st = _forced(make, merge)
    report = check_rec_hom(st, RecTarget(alg, st.system, SatReport(True)), gen_env=gens)
    assert report == initiality.FragmentHomReport(False, None, 1, 0, "w")
    assert report.to_json() == {
        "verdict": "counterexample", "checked": 1, "skipped": 0, "generator": "w",
    }
    # a generator with no given value is not checked
    assert check_rec_hom(
        st, RecTarget(alg, st.system, SatReport(True)), gen_env={"v": 1}
    ).ok


def test_a_layer_past_the_probe_is_checked_over_the_fragment(fixtures):
    # the wide layer's class wrongly merged: the layer breaks the law where
    # its class and children are in the fragment, and is not read where a
    # child is not, nor counted either way
    make, merges, (alg,), _ = _forced_cases(fixtures, "omega_tree")
    target = RecTarget(alg, make().system, SatReport(True))
    for merge in merges:
        st = _forced(make, merge)
        report = check_rec_hom(st, target)
        if not report.ok:
            break
    wide = st.canonical(ClassId(merge[0]))
    (kids,) = [k for k in st._enodes()["node(a)"][wide.index] if k.support()[-1:] >= (st.probe,)]
    over = list(dict.fromkeys([wide, *map(ClassId, branch_values(kids))]))
    assert len(over) == 2
    assert report == initiality.FragmentHomReport(
        False, OpNode("node(a)", map_branches(ClassId, kids)), report.checked, report.skipped
    )
    assert not check_rec_hom(st, target, classes=over).ok
    apart = check_rec_hom(st, target, classes=over[:1])
    assert apart.ok
    assert apart.checked + apart.skipped == count_opnodes(st.signature, 1, st.probe)


# -- the coherence premise on the compiled plans ------------------------------------


def _reference_lift(family, step, env, t, index_alg):
    # dependent evaluation of a term: leaves give their assigned (index,
    # value) pair, a node applies the step to its branches' indices and
    # lifted values, and each value is checked against the fiber over its
    # index, evaluated through index_alg
    if isinstance(t, Var):
        idx, val = env[t.name]
        if val not in family(idx):
            raise FiberMismatchError(f"leaf value {val!r} outside the fiber over {idx!r}")
        return idx, val
    pairs = map_branches(lambda b: _reference_lift(family, step, env, b, index_alg), t.branches)
    idx_branches = map_branches(lambda p: p[0], pairs)
    val_branches = map_branches(lambda p: p[1], pairs)
    idx = _interp(index_alg, t.op, idx_branches)
    val = step(t.op, idx_branches, val_branches)
    if val not in family(idx):
        raise FiberMismatchError(f"step value {val!r} outside the fiber over {idx!r} at {t.op!r}")
    return idx, val


def _reference_coherence(state, family, step, classes=None):
    # lifts each side through the term, one qw_intro per layer, and decides
    # each pair with decide_eq; a side term already lifted under an
    # environment is not lifted again, since that would intern nothing and
    # pass the same fiber checks
    options = [(c, v) for c in initiality._fragment(state, classes) for v in family(c)]

    def intro_alg(op, branches):
        return state.qw_intro(OpNode(op, branches))

    lifted = {}

    def lift(t, env):
        if (t, env) not in lifted:
            lifted[t, env] = _reference_lift(family, step, env, t, intro_alg)
        return lifted[t, env]

    pending = []
    for eq, env in instances(state.system, options, initiality.ENV_BUDGET):
        try:
            li, lv = lift(eq.lhs, env)
            ri, rv = lift(eq.rhs, env)
        except FiberMismatchError as exc:
            return CoherenceReport(False, eq.name, str(exc))
        pending.append((eq.name, li, lv, ri, rv))
    state.saturate()
    for name, li, lv, ri, rv in pending:
        if not state.decide_eq(li, ri).proved:
            return CoherenceReport(False, name, "instantiated sides not provably equal")
        if lv != rv:
            return CoherenceReport(
                False, name, f"values differ in the common fiber: {lv!r} vs {rv!r}"
            )
    return CoherenceReport(True)


def _bag3_state(fixtures):
    text = (fixtures / "bag.qit").read_text().replace("X = {a, b}", "X = {a, b, c}")
    sig, system = elaborate(parse_decl(text))
    st = new_qw(sig, system)
    # b::a::[] joins a::b::[], so this handle is not its class's root
    late = st.intern_term(bag_term(["b", "a"]))
    cids = [c for c, _ in st.enumerate_classes(4)]
    assert st.canonical(late) != late
    return st, cids + [late]


def _omega_tree_state(fixtures):
    sig, system = elaborate(parse_decl((fixtures / "omega_tree.qit").read_text()))
    st = new_qw(sig, system)
    # three variables per equation: a small fragment keeps it to 729 instances
    return st, [c for c, _ in st.enumerate_classes(3)][:3]


def _unbound_state(_fixtures):
    # e0 puts a leaf before a layer on one side and after it on the other,
    # and e1's right side is a bare variable
    st = new_qw(SMALL_SIG, UNBOUND_SYSTEM)
    st.enumerate_classes(3)
    return st, None


def _first(vals):
    return next(iter(branch_values(vals)), 0)


def _total(vals):
    return sum(branch_values(vals))


# per fixture, its state and fragment, a family, and three steps: one
# coherent, one not, and one that leaves its fiber after a layer has passed
COHERENCE_CASES = {
    "bag-abc": (_bag3_state, lambda c: tuple(range(5)), {
        "coherent": lambda op, idxs, vals: 0 if op == "nil" else (_first(vals) + 1) % 5,
        "order_sensitive": lambda op, idxs, vals: (
            0 if op == "nil" else (2 * _first(vals) + (op == "cons(a)")) % 5
        ),
        "leaves_fiber": lambda op, idxs, vals: 0 if op == "nil" else _first(vals) + 1,
    }),
    "omega_tree": (_omega_tree_state, lambda c: (0, 1, 2), {
        "coherent": lambda op, idxs, vals: _height(op, vals),
        "order_sensitive": lambda op, idxs, vals: _first_branch(op, vals),
        "leaves_fiber": lambda op, idxs, vals: 0 if op == "leaf" else 1 + _total(vals),
    }),
    "unbound": (_unbound_state, lambda c: (0, 1), {
        "coherent": lambda op, idxs, vals: (
            1 - _first(vals) if op == "f" else _total(vals) % 2
        ),
        "order_sensitive": lambda op, idxs, vals: (
            1 - _first(vals) if op == "f" else _first(vals)
        ),
        "leaves_fiber": lambda op, idxs, vals: _total(vals) + (op == "g"),
    }),
}


@pytest.mark.parametrize("kind", ["coherent", "order_sensitive", "leaves_fiber"])
@pytest.mark.parametrize("case", sorted(COHERENCE_CASES))
def test_coherence_on_the_compiled_plans_equals_lifting_the_terms(fixtures, case, kind):
    make, family, steps = COHERENCE_CASES[case]
    runs = []
    for check in (check_coherence, _reference_coherence):
        st, classes = make(fixtures)
        calls = []

        # each call with the class count it sees, which pins when layers
        # are interned
        def fam(c, calls=calls, st=st):
            calls.append(("family", c, st.class_count))
            return family(c)

        def step(op, idxs, vals, calls=calls, st=st):
            calls.append(("step", op, idxs, vals, st.class_count))
            return steps[kind](op, idxs, vals)

        report = check(st, fam, step, classes=classes)
        runs.append((report, st.log, st.class_count, calls))
    (report, log, count, calls), expected = runs
    assert report == expected[0]
    assert (log, count) == expected[1:3]
    assert calls == expected[3]
    assert report.ok == (kind == "coherent")
    if kind == "leaves_fiber":
        # refused at a step's fiber check, after other layers were lifted
        assert report.reason.startswith("step value")
        assert [call[0] for call in calls[-2:]] == ["step", "family"]


def _reference_equations_hold(state, classes):
    # the equation check as a loop of its own, before it shared its walk
    # with the coherence premise
    classes = [state._live_root(c) for c in classes]
    pending = []
    for eq, env in instances(state.system, classes, ENV_BUDGET):
        plan = state._plans[eq.name]
        lid, rid = state._instantiate(plan.lhs, env), state._instantiate(plan.rhs, env)
        pending.append((eq.name, env, lid, rid))
    state.saturate()
    for name, env, lid, rid in pending:
        if state._find(lid) != state._find(rid):
            return CarrierSatReport(False, name, env)
    return CarrierSatReport(True)


def _bag_unsaturated_state(fixtures):
    # no round runs, so the carrier fails swap(a,b) at its first environment
    sig, system = elaborate(parse_decl((fixtures / "bag.qit").read_text()))
    st = new_qw(sig, system, max_rounds=0)
    return st, [c for c, _ in st.enumerate_classes(4)]


def _late_handle_state(fixtures):
    # a handle that is not its class's root, over which no round runs
    st, cids = _bag3_state(fixtures)
    st.max_rounds = 0
    return st, cids[-1:]


CARRIER_STATES = {
    "bag-unsaturated": _bag_unsaturated_state,
    "late-handle": _late_handle_state,
    **{case: make for case, (make, _, _) in COHERENCE_CASES.items()},
}
FAILING_CARRIERS = {"bag-unsaturated", "late-handle"}


def _carrier(fixtures, case):
    st, classes = CARRIER_STATES[case](fixtures)
    return st, st.roots() if classes is None else classes


def _unproved(equation):
    # the note of a carrier walk whose saturation stopped on its budget
    return f"saturation budget exhausted before the sides of {equation} were proved equal"


@pytest.mark.parametrize("case", sorted(CARRIER_STATES))
def test_the_shared_walk_checks_equations_as_their_own_loop_did(fixtures, case):
    # where the reference reports violated, no round reached a fixpoint, so
    # the walk raises the budget note instead; both leave the same carrier
    ref, classes = _carrier(fixtures, case)
    want = _reference_equations_hold(ref, classes)
    st, classes = _carrier(fixtures, case)
    if want.ok:
        assert check_equations_hold(st, classes) == want
    else:
        with pytest.raises(BudgetExceededError) as exc:
            check_equations_hold(st, classes)
        assert str(exc.value) == _unproved(want.eq_name)
    assert (st.log, st.class_count) == (ref.log, ref.class_count)
    assert want.ok == (case not in FAILING_CARRIERS)


@pytest.mark.parametrize("case", sorted(CARRIER_STATES))
def test_coherence_over_a_constant_family_is_the_equation_check(fixtures, case):
    # the same verdict, or the same budget note where the reference reports
    # violated, and the same interning and merges; so the constant target
    # selftest builds from the equation check is dep_target's
    family, step = (lambda c: ("*",)), (lambda op, idxs, vals: "*")
    ref, classes = _carrier(fixtures, case)
    want = _reference_equations_hold(ref, classes)
    assert want.ok == (case not in FAILING_CARRIERS)
    st, classes = _carrier(fixtures, case)
    st2, classes2 = CARRIER_STATES[case](fixtures)
    if not want.ok:
        with pytest.raises(BudgetExceededError) as plain:
            check_equations_hold(st, classes)
        with pytest.raises(BudgetExceededError) as coherence:
            check_coherence(st2, family, step, classes=classes2)
        assert str(plain.value) == str(coherence.value) == _unproved(want.eq_name)
        assert st.log == st2.log == ref.log
        return
    plain = check_equations_hold(st, classes)
    coherence = check_coherence(st2, family, step, classes=classes2)
    assert plain == want and coherence.ok
    assert st2.log == st.log == ref.log
    dep = constant_target(plain)
    assert dep.coherence == coherence
    gen_env = {g: "*" for g in st.generators}
    comp = check_comp(st2, DepTarget(family, step, coherence), gen_env=gen_env)
    assert check_comp(st, dep, gen_env=gen_env) == comp


def test_sides_apart_at_a_fixpoint_are_violated(fixtures, monkeypatch):
    # only an engine bug leaves sides apart at a fixpoint: a saturation
    # that claims one without a round shows the walk reports them
    st, classes = _bag_unsaturated_state(fixtures)
    monkeypatch.setattr(st, "saturate", lambda: SaturationResult(True, 1, 0, 0))
    report = check_equations_hold(st, classes)
    assert (report.ok, report.eq_name) == (False, "swap(a,b)")


def test_constant_target_refuses_a_report_of_unequal_sides():
    # a failed equation check is a failed coherence premise, in dep_target's
    # words
    report = CarrierSatReport(False, "swap(a,b)", (0, 1))
    with pytest.raises(CoherenceError) as got:
        constant_target(report)
    assert str(got.value) == (
        "coherence premise failed: {'verdict': 'failed', 'equation': 'swap(a,b)', "
        "'reason': 'instantiated sides not provably equal'}"
    )


@settings(max_examples=100, deadline=None)
@given(
    system=_small_systems(),
    size=hst.integers(1, 3),
    max_rounds=hst.integers(0, 3),
    max_instances=hst.integers(1, 40),
)
def test_the_equations_hold_on_every_carrier_or_the_budget_says_unknown(
    system, size, max_rounds, max_instances
):
    # whatever the budgets, the carrier check and the constant-family
    # premise prove the equations or answer unknown: an unequal pair at a
    # fixpoint would be an engine bug.  The instance budget keeps each
    # round small, since a two-variable equation can square the carrier
    family, step = (lambda c: ("*",)), (lambda op, idxs, vals: "*")
    for check in (
        check_equations_hold,
        lambda st, classes: check_coherence(st, family, step, classes=classes),
    ):
        st = new_qw(SMALL_SIG, system, max_rounds=max_rounds, max_instances=max_instances)
        classes = [c for c, _ in st.enumerate_classes(size)]
        try:
            report = check(st, classes)
        except BudgetExceededError:
            continue
        assert report.ok, report


@settings(max_examples=100, deadline=None)
@given(
    system=_small_systems(),
    size=hst.integers(1, 3),
    max_rounds=hst.integers(0, 3),
    max_instances=hst.integers(1, 40),
)
@example(
    # the instance budget stops each size's first round mid-round, so the
    # pair recursion reads the keys that round's rebuild made canonical
    system=make_system(SMALL_SIG, [("e0", 1, node("g", node("f", node("c")), node("c")), Var(0))]),
    size=3,
    max_rounds=2,
    max_instances=1,
)
def test_elimination_into_the_constant_family_is_ok_on_every_carrier(
    system, size, max_rounds, max_instances
):
    # the constant family is trivially coherent, so wherever the budgets
    # stop, the computation rule holds and elimination gives "*": every
    # saturation exit rebuilds, so each layer the pair recursion looks up
    # is interned under its canonical key
    dep = DepTarget(lambda c: ("*",), lambda op, idxs, vals: "*", CoherenceReport(True))
    st = new_qw(SMALL_SIG, system, max_rounds=max_rounds, max_instances=max_instances)
    classes = [c for c, _ in st.enumerate_classes(size)]
    assert check_comp(st, dep).ok
    assert {qw_elim(st, dep, c) for c in [*classes, *st.roots()]} == {"*"}


@settings(max_examples=100, deadline=None)
@given(
    system=_small_systems(),
    pick=hst.integers(0, len(TWO_POINT_ALGEBRAS) - 1),
    size=hst.integers(1, 3),
    later=hst.lists(hst.sampled_from(SMALL_TERMS), max_size=4),
    max_rounds=hst.integers(0, 2),
    max_instances=hst.integers(1, 30),
)
def test_elimination_into_a_model_at_its_carrier_is_recursion(
    system, pick, size, later, max_rounds, max_instances
):
    # initiality as a test: eliminating into the constant family at a
    # model's carrier, stepping by the model's operations, is recursion
    # into the model on every class, wherever the budgets stopped.  The
    # model satisfies the equations, so that family is coherent.  The terms
    # interned after the enumeration leave the state stale, so either
    # call's own saturation can stop on its budget too
    models = TWO_POINT_ALGEBRAS[pick:] + TWO_POINT_ALGEBRAS[:pick]
    alg = next((a for a in models if sat_check(a, system).satisfied), None)
    assume(alg is not None)
    target = rec_target(alg, system)
    dep = DepTarget(
        lambda c: alg.carrier,
        lambda op, idxs, vals: _interp(alg, op, vals),
        CoherenceReport(True),
    )
    st = new_qw(SMALL_SIG, system, max_rounds=max_rounds, max_instances=max_instances)
    st.enumerate_classes(size)
    for t in later:
        c = st.intern_term(t)
        assert qw_elim(st, dep, c) == qw_rec(st, target, c)
    for c in st.roots():
        assert qw_elim(st, dep, c) == qw_rec(st, target, c)


@settings(max_examples=100, deadline=None)
@given(
    system=_small_systems(),
    pick=hst.integers(0, len(TWO_POINT_ALGEBRAS) - 1),
    size=hst.integers(1, 3),
    later=hst.lists(hst.sampled_from(SMALL_TERMS), max_size=4),
    max_rounds=hst.integers(0, 2),
    max_instances=hst.integers(1, 30),
)
def test_law_checks_on_a_carrier_a_budget_left_unsaturated_hold_in_a_model(
    system, pick, size, later, max_rounds, max_instances
):
    # _fragment saturates a stale state under its budget and drops the
    # result; the law walk reads the operator index, so a budget-stopped
    # carrier only lacks merges, and a model satisfies the laws on it.
    # The terms interned before each check leave the state stale, so the
    # fragment's own saturation can stop on its budget too
    models = TWO_POINT_ALGEBRAS[pick:] + TWO_POINT_ALGEBRAS[:pick]
    alg = next((a for a in models if sat_check(a, system).satisfied), None)
    assume(alg is not None)
    target = rec_target(alg, system)
    st = new_qw(SMALL_SIG, system, max_rounds=max_rounds, max_instances=max_instances)
    st.enumerate_classes(size)
    for t in later:
        st.intern_term(t)
    assert check_rec_hom(st, target).ok
    h = {c: qw_rec(st, target, c) for c in st.roots()}
    for t in later:
        st.intern_term(node("f", t))
    assert check_uniq(st, target, h).ok


def _walk_every_equation(state, carrier, lift):
    # the carrier walk with no table of lifts: both sides of every
    # instance are lifted, a shared side again under each environment
    pending = []
    for eq, env in instances(state.system, carrier, ENV_BUDGET):
        plan = state._plans[eq.name]
        try:
            pending.append((eq.name, env, lift(plan.lhs, env), lift(plan.rhs, env)))
        except FiberMismatchError as exc:
            return eq.name, env, str(exc)
    fixpoint = state.saturate().fixpoint
    for name, env, (li, lv), (ri, rv) in pending:
        if state._find(li) != state._find(ri):
            if not fixpoint:
                raise BudgetExceededError(_unproved(name))
            return name, env, UNEQUAL_SIDES
        if lv != rv:
            return name, env, f"values differ in the common fiber: {lv!r} vs {rv!r}"
    return None


def _every_lift_equations_hold(state, classes):
    roots = [state._live_root(c) for c in classes]
    failed = _walk_every_equation(
        state, roots, lambda side, env: (state._instantiate(side, env), None)
    )
    return CarrierSatReport(True) if failed is None else CarrierSatReport(False, *failed[:2])


def _every_lift_coherence(state, family, step, classes):
    options = [
        (c, state._live_root(c), v) for c in initiality._fragment(state, classes) for v in family(c)
    ]
    lift = partial(initiality._lift, state, family=family, step=step)
    failed = _walk_every_equation(state, options, lift)
    return CoherenceReport(True) if failed is None else CoherenceReport(False, failed[0], failed[2])


# families and steps over SMALL_SIG: one constant, one whose values can
# differ across a pair, one that can leave its fiber, one whose fibers
# depend on the class
SMALL_FAMILIES = {
    "constant": (lambda c: ("*",), lambda op, idxs, vals: "*"),
    "parity": (lambda c: (0, 1), lambda op, idxs, vals: (_total(vals) + (op == "c")) % 2),
    "leaves_fiber": (lambda c: (0, 1), lambda op, idxs, vals: _total(vals) + (op == "g")),
    "by_class": (
        lambda c: tuple(range(1 + c.index % 3)),
        lambda op, idxs, vals: min(_total(vals), 1 + (op == "f")),
    ),
}


@settings(max_examples=80, deadline=None)
@example(  # a tautology, whose one side is lifted once per environment
    system=make_system(SMALL_SIG, [
        ("e0", 1, node("g", Var(0), node("c")), node("g", Var(0), node("c"))),
        ("e1", 1, node("f", Var(0)), node("d")),
    ]),
    size=3, max_rounds=3, max_instances=40, kind="leaves_fiber",
)
@example(  # a mirror pair whose mirror sorts first: e1 lifts no side anew
    system=make_system(SMALL_SIG, [
        ("e1", 1, node("f", Var(0)), node("g", Var(0), node("d"))),
        ("e0", 1, node("g", Var(0), node("d")), node("f", Var(0))),
    ]),
    size=3, max_rounds=3, max_instances=40, kind="parity",
)
@example(  # one equation under two names: e1 lifts nothing
    system=make_system(SMALL_SIG, [
        ("e0", 2, node("g", Var(0), Var(1)), node("g", Var(1), Var(0))),
        ("e1", 2, node("g", Var(0), Var(1)), node("g", Var(1), Var(0))),
    ]),
    size=3, max_rounds=3, max_instances=40, kind="by_class",
)
@given(
    system=_small_systems(max_equations=3),
    size=hst.integers(1, 3),
    max_rounds=hst.integers(0, 3),
    max_instances=hst.integers(1, 40),
    kind=hst.sampled_from(sorted(SMALL_FAMILIES)),
)
def test_lifting_a_shared_side_once_per_environment_changes_no_walk(
    system, size, max_rounds, max_instances, kind
):
    # the equation check and the coherence premise report, log and intern
    # as a walk that lifts both sides of every instance does; a budget note
    # counts as the report
    family, step = SMALL_FAMILIES[kind]

    def run(check):
        st = new_qw(SMALL_SIG, system, max_rounds=max_rounds, max_instances=max_instances)
        classes = [c for c, _ in st.enumerate_classes(size)]
        try:
            report = check(st, classes)
        except BudgetExceededError as exc:
            report = str(exc)
        return report, st.log, st.class_count

    assert run(check_equations_hold) == run(_every_lift_equations_hold)
    assert run(lambda st, cl: check_coherence(st, family, step, classes=cl)) == run(
        lambda st, cl: _every_lift_coherence(st, family, step, cl)
    )


def test_each_walk_lifts_a_shared_side_once_per_environment(fixtures, monkeypatch):
    # bag(a,b,c)'s nine swap equations have nine distinct sides under their
    # one variable, so each walk over the 56 classes of size 6 lifts 9 * 56
    # sides, not both sides of 504 instances; omega_tree.qit shares no side,
    # so each of its walks lifts both sides of every instance
    lifts = []
    real = engine._carrier_walk

    def counted(state, carrier, lift, budget):
        lifts.append(0)

        def spy(side, env):
            lifts[-1] += 1
            return lift(side, env)

        return real(state, carrier, spy, budget)

    monkeypatch.setattr(engine, "_carrier_walk", counted)
    monkeypatch.setattr(initiality, "_carrier_walk", counted)
    family, step = (lambda c: ("*",)), (lambda op, idxs, vals: "*")
    bag3 = (fixtures / "bag.qit").read_text().replace("X = {a, b}", "X = {a, b, c}")
    walks = []
    for text, size in ((bag3, 6), ((fixtures / "omega_tree.qit").read_text(), 3)):
        sig, system = elaborate(parse_decl(text))
        st = new_qw(sig, system)
        cids = [c for c, _ in st.enumerate_classes(size)]
        assert check_equations_hold(st, cids).ok
        assert dep_target(st, family, step, classes=cids).coherence.ok
        walks.append((lifts[-2:], 2 * instance_count(system, len(cids))))
    (bag_lifts, bag_every), (omega_lifts, omega_every) = walks
    assert (bag_lifts, bag_every) == ([504, 504], 1008)
    assert omega_lifts == [omega_every] * 2 and omega_every > 0


def test_a_fragment_holds_each_class_once_by_its_first_handle(fixtures):
    # a fragment is a set of classes: a second handle of a class adds no
    # layers, and each layer is reported over the first handle given
    st, cids = _bag3_state(fixtures)
    late, root = cids[-1], st.canonical(cids[-1])
    flip_c = lambda op, b: 0 if op == "nil" else (2 - b[0] if op == "cons(c)" else min(2, 1 + b[0]))
    bad = RecTarget(FiniteAlgebra((0, 1, 2), flip_c), st.system, SatReport(True))
    once = check_rec_hom(st, bad, classes=[root])
    assert once == initiality.FragmentHomReport(False, OpNode("cons(c)", (root,)), 4, 0)
    assert check_rec_hom(st, bad, classes=[root, late]) == once
    assert check_rec_hom(st, bad, classes=[late, root]) == initiality.FragmentHomReport(
        False, OpNode("cons(c)", (late,)), 4, 0
    )


@pytest.mark.parametrize(
    "bad", [ClassId(-1), "end", ClassId(10**9)], ids=["negative", "past-the-end", "far-out"]
)
def test_stale_handles_are_refused_by_every_law_walk(bag, bad):
    # a handle outside the carrier is refused wherever the fragment holds it
    st, classes = build(bag, 4)
    cids = [c for c, _ in classes]
    target = rec_target(length_algebra(4), bag.system)
    family, step = (lambda c: ("*",)), (lambda op, idxs, vals: "*")
    dep = dep_target(st, family, step, classes=cids)
    if bad == "end":
        bad = ClassId(sum(entry[0] == "intern" for entry in st.log))
    with pytest.raises(WorkbenchError, match="stale class handle"):
        check_rec_hom(st, target, classes=cids + [bad])
    with pytest.raises(WorkbenchError, match="stale class handle"):
        check_comp(st, dep, classes=[bad] + cids)
    with pytest.raises(WorkbenchError, match="stale class handle"):
        check_coherence(st, family, step, classes=cids + [bad])
    with pytest.raises(WorkbenchError, match="stale class handle"):
        check_uniq(st, target, {**{c: 0 for c in cids}, bad: 0})
