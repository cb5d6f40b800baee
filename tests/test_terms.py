from __future__ import annotations

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitbench.encodings import (
    NIL,
    bag_of,
    bag_term,
    cons,
    length_algebra,
    ordinal_notations,
    parity_algebra,
)
from qitbench.engine import closed_terms
from qitbench.errors import (
    ArityMismatchError,
    BudgetExceededError,
    DuplicateNameError,
    UnboundVariableError,
    UnknownOperatorError,
)
from qitbench.schema import elaborate, parse_decl
from qitbench.terms import (
    OMEGA,
    Arity,
    FiniteAlgebra,
    Node,
    OmegaTable,
    OpNode,
    Var,
    _payload_key,
    _payload_to_json,
    branch_pairs,
    branch_values,
    branches_to_json,
    canonical_dumps,
    check_hom,
    eval_alg,
    fold_term,
    iota,
    map_opnode,
    map_branches,
    map_term,
    node_key,
    omega_table,
    signature,
    subst,
    term_algebra,
    term_from_json,
    term_key,
    term_size,
    term_to_json,
    term_vars,
    validate_term,
    var_block,
)
from qitbench.translate import free_term

# the reference two-operator signature used for the law suites: one constant
# and one binary operator, with variables "x" and "y"
LAW_SIG = signature([("c", 0), ("f", 2)])


def law_terms(max_size: int = 4) -> list:
    """All terms of size <= max_size over LAW_SIG with variables x, y."""
    by_size = {1: [Var("x"), Var("y"), Node("c", ())]}
    for s in range(2, max_size + 1):
        bucket = []
        for ls in range(1, s - 1):
            rs = s - 1 - ls
            for a in by_size.get(ls, []):
                for b in by_size.get(rs, []):
                    bucket.append(Node("f", (a, b)))
        by_size[s] = bucket
    return [t for s in range(1, max_size + 1) for t in by_size[s]]


def test_signature_rejects_duplicates():
    with pytest.raises(DuplicateNameError):
        signature([("c", 0), ("c", 1)])


def test_signature_lookup():
    sig = signature([("c", 0), ("w", None)])
    assert sig.arity("c") == Arity(0)
    assert sig.arity("w").is_omega
    with pytest.raises(UnknownOperatorError):
        sig.arity("missing")


def test_omega_table_normalises():
    t = omega_table([(3, "v"), (0, "w"), (1, "d")], "d")
    assert t.entries == ((0, "w"), (3, "v"))
    assert t.at(1) == "d" and t.at(3) == "v"
    with pytest.raises(ArityMismatchError):
        omega_table([(0, "a"), (0, "b")], "d")
    with pytest.raises(ArityMismatchError):
        omega_table([(-1, "a")], "d")


def test_validate_term_shapes():
    sig = signature([("c", 0), ("u", 1), ("w", None)])
    validate_term(sig, Node("u", (Node("c", ()),)))
    with pytest.raises(ArityMismatchError):
        validate_term(sig, Node("u", ()))
    with pytest.raises(ArityMismatchError):
        validate_term(sig, Node("w", (Node("c", ()),)))
    with pytest.raises(UnknownOperatorError):
        validate_term(sig, Node("nope", ()))
    with pytest.raises(UnboundVariableError):
        validate_term(sig, Var("z"), var_domain=frozenset({"x"}))


def test_eval_var_is_environment_lookup():
    assert eval_alg(Var("v"), {"v": 7}, lambda op, br: 0) == 7


def test_eval_length_of_two_element_list():
    # hand evaluation bottom up: nil -> 0, two prepends -> 2
    assert eval_alg(bag_term(["a", "b"]), {}, length_algebra(4)) == 2


def test_eval_parity_of_two_element_list():
    # two flips from even land back on even
    assert eval_alg(bag_term(["a", "b"]), {}, parity_algebra()) == "even"


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_alg(Var("v"), {}, lambda op, br: 0)


def test_subst_left_unit():
    rho = {"v": bag_term(["a"])}
    assert subst(Var("v"), rho) == bag_term(["a"])


def test_subst_swap_sides_give_closed_lists():
    # substituting the empty list into the swap schema yields the two lists
    lhs = cons("a", cons("b", Var("ys")))
    assert subst(lhs, {"ys": NIL}) == bag_term(["a", "b"])


def test_monad_laws_exhaustive_size_4():
    terms = law_terms(4)
    small = law_terms(2)  # x, y, c
    env_maps = [dict(zip(("x", "y"), imgs)) for imgs in itertools.product(small, repeat=2)]
    for t in terms:
        assert subst(t, {"x": Var("x"), "y": Var("y")}) == t  # right unit
    for rho in env_maps:
        for v in ("x", "y"):
            assert subst(Var(v), rho) == rho[v]  # left unit
    for t in terms:
        for rho in env_maps:
            for rho2 in env_maps:
                lhs = subst(subst(t, rho), rho2)
                rhs = subst(t, {k: subst(v, rho2) for k, v in rho.items()})
                assert lhs == rhs  # associativity


def test_functor_laws_exhaustive_size_4():
    terms = law_terms(4)
    renamings = [dict(zip(("x", "y"), imgs)) for imgs in itertools.product(("x", "y"), repeat=2)]
    for t in terms:
        assert map_term(lambda v: v, t) == t
    for t in terms:
        for f in renamings:
            for g in renamings:
                assert map_term(lambda v: g[f[v]], t) == map_term(
                    lambda v: g[v], map_term(lambda v: f[v], t)
                )


def test_map_term_equals_subst_with_leaves():
    for t in law_terms(4):
        assert map_term(lambda v: v.upper(), t) == subst(
            t, {"x": Var("X"), "y": Var("Y")}
        )


def test_map_opnode_identity_and_relabel():
    s = OpNode("f", ("x", "y"))
    assert map_opnode(lambda v: v, s) == s
    assert map_opnode(lambda v: v + "!", s) == OpNode("f", ("x!", "y!"))
    nullary = OpNode("c", ())
    assert map_opnode(lambda v: v + "!", nullary) == nullary


def test_iota_shapes():
    assert iota(OpNode("c", ())) == Node("c", ())
    assert iota(OpNode("u", ("x",))) == Node("u", (Var("x"),))
    wrapped = iota(OpNode("w", omega_table([], "x")))
    assert wrapped == Node("w", OmegaTable((), Var("x")))


def test_free_algebra_agreement():
    # evaluating via the term algebra then into the target algebra agrees
    # with evaluating directly
    alg = length_algebra(4)
    env = {"x": NIL, "y": bag_term(["a"])}
    for t in [cons("a", Var("x")), cons("b", cons("a", Var("y"))), Var("y")]:
        through_terms = eval_alg(eval_alg(t, env, term_algebra), {}, alg)
        direct = eval_alg(t, {k: eval_alg(v, {}, alg) for k, v in env.items()}, alg)
        assert through_terms == direct


def test_check_hom_identity():
    alg = parity_algebra()
    sig = signature([("nil", 0), ("cons(a)", 1), ("cons(b)", 1)])
    report = check_hom({v: v for v in alg.carrier}, alg, alg, sig)
    assert report.ok


def test_check_hom_parity_of_successor():
    # counting mod 6 then taking parity is a morphism onto the flip algebra;
    # counting with saturation is not (the cap freezes the parity)
    sig = signature([("nil", 0), ("cons(a)", 1), ("cons(b)", 1)])
    parity = parity_algebra()
    mod6 = FiniteAlgebra(
        tuple(range(6)),
        lambda op, br: 0 if op == "nil" else (tuple(br)[0] + 1) % 6,
    )
    h = {n: ("even" if n % 2 == 0 else "odd") for n in range(6)}
    assert check_hom(h, mod6, parity, sig).ok
    capped = length_algebra(4)
    h4 = {n: ("even" if n % 2 == 0 else "odd") for n in capped.carrier}
    report = check_hom(h4, capped, parity, sig)
    assert not report.ok
    assert report.counterexample.op == "cons(a)"  # first in signature order


def test_check_hom_identity_on_every_builtin_algebra():
    from qitbench.encodings import contains_algebra, count_algebra, one_point_algebra

    sig = signature([("nil", 0), ("cons(a)", 1), ("cons(b)", 1)])
    for alg in (
        length_algebra(3),
        length_algebra(4),
        parity_algebra(),
        contains_algebra("a"),
        count_algebra("b", 2),
        one_point_algebra(),
    ):
        assert check_hom({v: v for v in alg.carrier}, alg, alg, sig).ok


def test_check_hom_counterexample_is_first_violation():
    sig = signature([("nil", 0), ("cons(a)", 1)])
    flip = parity_algebra()
    ident = FiniteAlgebra(("even", "odd"), lambda op, br: "even" if op == "nil" else tuple(br)[0])
    report = check_hom({v: v for v in flip.carrier}, flip, ident, sig)
    assert not report.ok
    assert report.counterexample.op == "cons(a)"


def test_check_hom_budget():
    sig = signature([("f", 3)])
    alg = FiniteAlgebra(tuple(range(10)), lambda op, br: 0)
    with pytest.raises(BudgetExceededError):
        check_hom({v: v for v in alg.carrier}, alg, alg, sig, budget=10)


def test_term_key_orders_by_size_then_shape():
    ts = sorted([bag_term(["a", "b"]), NIL, bag_term(["a"])], key=term_key)
    assert ts == [NIL, bag_term(["a"]), bag_term(["a", "b"])]
    assert term_size(bag_term(["a", "b"])) == 3


# hypothesis strategy for terms over a small mixed signature
JSON_SIG = signature([("c", 0), ("u", 1), ("w", None)])


def _terms(depth: int):
    leaf = st.one_of(
        st.builds(Var, st.sampled_from(["x", "y", 7])),
        st.just(Node("c", ())),
    )
    if depth == 0:
        return leaf
    sub = _terms(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda t: Node("u", (t,)), sub),
        st.builds(
            lambda entries, default: Node("w", omega_table(entries, default)),
            st.dictionaries(st.integers(0, 3), sub, max_size=2),
            sub,
        ),
    )


@settings(max_examples=200, deadline=None)
@given(_terms(3))
def test_json_round_trip_bit_exact(t):
    again = term_from_json(term_to_json(t))
    assert again == t
    assert canonical_dumps(term_to_json(again)) == canonical_dumps(term_to_json(t))


@settings(max_examples=200, deadline=None)
@given(_terms(3), _terms(3))
def test_term_key_total_order(a, b):
    ka, kb = term_key(a), term_key(b)
    assert ka[0] == term_size(a) and kb[0] == term_size(b)
    assert (ka == kb) == (a == b)
    assert (ka < kb) or (kb < ka) or (ka == kb)


# branch maps over small values: normalised countable tables with indices
# below 5, and finite tuples of a few lengths
_branch_maps = st.one_of(
    st.builds(
        omega_table,
        st.dictionaries(st.integers(0, 4), st.integers(0, 2), max_size=4),
        st.integers(0, 2),
    ),
    st.lists(st.integers(0, 2), max_size=3).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(_branch_maps, _branch_maps)
def test_branch_pairs_is_the_extensional_pairing(a, b):
    pairs = branch_pairs(a, b)
    if isinstance(a, OmegaTable) and isinstance(b, OmegaTable):
        # a normalised table holds exactly the indices where it leaves its default
        held = [i for i in range(5) if a.at(i) != a.default or b.at(i) != b.default]
        assert pairs == [(a.at(i), b.at(i)) for i in held] + [(a.default, b.default)]
    elif isinstance(a, OmegaTable) or isinstance(b, OmegaTable) or len(a) != len(b):
        assert pairs is None
    else:
        assert pairs == [(a[i], b[i]) for i in range(len(a))]


def test_var_block_is_the_table_the_schema_builds(fixtures):
    decl = parse_decl((fixtures / "omega_tree.qit").read_text())
    _, system = elaborate(decl, probe=2)
    eq = system.equation("perm(a,{0->1,1->0})")
    assert eq.var_count == OMEGA.width(2) == 3
    identity = omega_table([(0, Var(0)), (1, Var(1))], Var(2))
    swapped = omega_table([(0, Var(1)), (1, Var(0))], Var(2))
    assert eq.lhs.branches == var_block(OMEGA, 0, 2) == identity
    assert eq.rhs.branches == var_block(OMEGA, 0, 2, {0: 1, 1: 0}) == swapped



def test_fold_term_runs_in_post_order():
    # children left to right, a countable map's entries and then its default
    calls = []

    def leaf(name):
        calls.append(name)
        return name

    def step(op, values):
        calls.append((op, values))
        return op

    finite = Node("f", (Node("f", (Var("x"), Node("c", ()))), Var("y")))
    assert fold_term(finite, leaf, step) == "f"
    assert calls == ["x", ("c", ()), ("f", ("x", "c")), "y", ("f", ("f", "y"))]
    calls.clear()
    countable = Node("w", omega_table({2: Var("x"), 0: Node("u", (Var("y"),))}, Node("c", ())))
    assert fold_term(countable, leaf, step) == "w"
    assert calls == [
        "y", ("u", ("y",)), "x", ("c", ()), ("w", OmegaTable(((0, "u"), (2, "x")), "c")),
    ]


# the term walks as the recursions they were before they became folds
def _reference_size(t):
    if isinstance(t, Var):
        return 1
    return 1 + sum(_reference_size(b) for b in branch_values(t.branches))


def _reference_key(t):
    if isinstance(t, Var):
        return (1, 0, _payload_key(t.name))
    return node_key(t.op, map_branches(_reference_key, t.branches))


def _reference_vars(t):
    if isinstance(t, Var):
        return frozenset([t.name])
    out = set()
    for b in branch_values(t.branches):
        out |= _reference_vars(b)
    return frozenset(out)


def _reference_to_json(t):
    if isinstance(t, Var):
        return {"var": _payload_to_json(t.name)}
    return {"op": t.op, "branches": branches_to_json(t.branches, _reference_to_json)}


def _reference_free(t):
    if isinstance(t, Var):
        return t if isinstance(t.name, int) else Node(f"inl({t.name})", ())
    return Node(f"inr({t.op})", map_branches(_reference_free, t.branches, normalize=True))


def _reference_eval(t, env, alg):
    if isinstance(t, Var):
        try:
            return env[t.name]
        except (KeyError, IndexError, TypeError):
            raise UnboundVariableError(
                f"variable {t.name!r} outside the environment"
            ) from None
    step = alg.interp if isinstance(alg, FiniteAlgebra) else alg
    return step(t.op, map_branches(lambda b: _reference_eval(b, env, alg), t.branches))


_BAG, _ORDINALS = bag_of(("a", "b")), ordinal_notations()
_BAG_TERMS = closed_terms(_BAG.signature, 5) + [
    side for e in _BAG.system.equations for side in (e.lhs, e.rhs)
]
_ORDINAL_TERMS = closed_terms(_ORDINALS.signature, 5) + [
    side for e in _ORDINALS.system.equations for side in (e.lhs, e.rhs)
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(_BAG_TERMS + _ORDINAL_TERMS), _terms(3)))
def test_the_term_walks_are_their_recursions(t):
    assert term_size(t) == _reference_size(t)
    assert term_key(t) == _reference_key(t)
    assert term_vars(t) == _reference_vars(t)
    # the JSON texts, so the order of the keys is compared too
    assert repr(term_to_json(t)) == repr(_reference_to_json(t))
    assert free_term(t) == _reference_free(t)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_BAG_TERMS), st.lists(st.integers(0, 4), max_size=2).map(tuple))
def test_evaluation_is_its_recursion(t, env):
    # into length_algebra(4); an environment too short for the term's
    # variables is refused in the same words
    alg = length_algebra(4)
    try:
        want = _reference_eval(t, env, alg)
    except UnboundVariableError as exc:
        with pytest.raises(UnboundVariableError) as got:
            eval_alg(t, env, alg)
        assert str(got.value) == str(exc)
    else:
        assert eval_alg(t, env, alg) == want


def test_the_folds_leave_no_reference_cycles():
    # a cycle per fold is work for the garbage collector on every caller
    t, alg = bag_term(["a", "b"] * 3), length_algebra(4)
    gc.collect()
    gc.disable()
    try:
        for walk in (term_size, term_key, term_vars, term_to_json, free_term):
            walk(t)
        eval_alg(t, {}, alg)
        assert gc.collect() == 0
    finally:
        gc.enable()
