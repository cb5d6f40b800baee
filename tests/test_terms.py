from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qitbench.encodings import NIL, bag_term, cons, length_algebra, parity_algebra
from qitbench.errors import (
    ArityMismatchError,
    BudgetExceededError,
    DuplicateNameError,
    UnboundVariableError,
    UnknownOperatorError,
)
from qitbench.terms import (
    Arity,
    FiniteAlgebra,
    Node,
    OmegaTable,
    OpNode,
    Var,
    canonical_dumps,
    check_hom,
    eval_alg,
    iota,
    map_opnode,
    map_term,
    omega_table,
    signature,
    subst,
    term_algebra,
    term_from_json,
    term_key,
    term_size,
    term_to_json,
    validate_term,
)

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
