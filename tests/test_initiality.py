from __future__ import annotations

import itertools
import json
from collections import Counter

import pytest

from qitbench.cli import algebra_from_json
from qitbench.encodings import (
    NIL,
    bag_term,
    length_algebra,
    one_point_algebra,
    parity_algebra,
)
from qitbench.engine import ClassId, new_qw
from qitbench.equations import SatReport, make_system
from qitbench.errors import CoherenceError, StaleProofError, WorkbenchError
from qitbench.initiality import (
    CoherenceReport,
    DepTarget,
    RecTarget,
    _all_values,
    _elim_values,
    check_coherence,
    check_comp,
    check_rec_hom,
    check_rep_independence,
    check_uniq,
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
    eval_alg,
    map_branches,
    node,
    omega_node,
    signature,
    term_key,
)


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


def test_rep_independence(bag, omega_tree):
    for inst, bound, alg in (
        (bag, 4, length_algebra(4)),
        (bag, 4, parity_algebra()),
        (omega_tree, 3, one_point_algebra()),
    ):
        st, _ = build(inst, bound)
        assert check_rep_independence(st, rec_target(alg, inst.system)).ok


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
    assert _all_values(st, alg, env) == expected


def test_fold_drops_entries_that_collapse_onto_the_default():
    # s's entry 0 points at f(c); once f(c) joins leaf the stored layer
    # still lists the entry, and no equation makes a layer without it
    sig = signature([("leaf", 0), ("c", 0), ("f", 1), ("s", None)])
    system = make_system(sig, [("fc", 0, node("f", node("c")), node("leaf"))])
    st = new_qw(sig, system)
    c = st.intern_term(omega_node("s", [(0, node("f", node("c")))], node("leaf")))
    st.saturate()
    assert st.representative(c) == omega_node("s", [], node("leaf"))
    values = _all_values(st, _recording, {})
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
    assert _elim_values(st, dep, gen_env=env) == expected
