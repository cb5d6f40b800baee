from __future__ import annotations

import random

import pytest

from positivity_fuzz import decl_with_telescope, conforming_telescope, violating_telescope
from qitbench.errors import (
    ConditionalUnsupportedError,
    DeclSyntaxError,
    DuplicateBinderError,
    DuplicateConstructorError,
    NonFinitaryConstantError,
    PositivityError,
    SchemaError,
    ScopeError,
    UnsupportedSchemeError,
)
from qitbench.engine import closed_terms
from qitbench.schema import (
    PiType,
    SelfType,
    check_positivity,
    classify,
    elaborate,
    parse_decl,
    parse_ground_term,
    pretty_print,
)
from qitbench.terms import Node, OmegaTable, Var
from qitbench.translate import from_w_reductions


def read_fixture(fixtures, name: str) -> str:
    return (fixtures / name).read_text()


def test_parse_bag_shape(fixtures):
    decl = parse_decl(read_fixture(fixtures, "bag.qit"))
    assert decl.name == "Bag"
    assert [c.name for c in decl.element_ctors] == ["nil", "cons"]
    assert [c.name for c in decl.equality_ctors] == ["swap"]
    cons = decl.element_ctors[1]
    assert [b.name for b in cons.telescope] == ["x", "ys"]


def test_parse_omega_tree_shape(fixtures):
    decl = parse_decl(read_fixture(fixtures, "omega_tree.qit"))
    node = decl.element_ctors[1]
    assert [b.name for b in node.telescope] == ["x", "g"]
    f = node.telescope[1].type
    assert isinstance(f, PiType) and isinstance(f.codomain, SelfType)
    assert decl.perm_set("F") == (((0, 1), (1, 0)),)


def test_syntax_error_carries_position():
    with pytest.raises(DeclSyntaxError) as err:
        parse_decl("data T : Set where\n  c :: T\n")
    assert err.value.line == 2


def test_duplicate_binder_rejected():
    src = "data T : Set with X = {a} where\n  c : (x : X) (x : X) -> T\n"
    with pytest.raises(DuplicateBinderError):
        parse_decl(src)


def test_duplicate_constructor_rejected():
    src = "data T : Set where\n  c : T\n  c : T\n"
    with pytest.raises(DuplicateConstructorError):
        parse_decl(src)


def test_unbound_pattern_name_rejected():
    src = "data T : Set where\n  c : T\n  e : c == d\n"
    with pytest.raises(ScopeError):
        parse_decl(src)


def test_unknown_type_rejected():
    src = "data T : Set where\n  c : (x : Mystery) -> T\n"
    with pytest.raises(ScopeError):
        parse_decl(src)


def test_condition_in_element_constructor_rejected():
    src = "data T : Set where\n  c : T\n  d : (q : c == c) -> T\n"
    with pytest.raises(DeclSyntaxError):
        parse_decl(src)


# -- positivity ---------------------------------------------------------------------


def test_positivity_accepts_fixture_decls(fixtures):
    for name in ("bag.qit", "omega_tree.qit", "wreductions.qit", "conditional.qit"):
        check_positivity(parse_decl(read_fixture(fixtures, name)))


def test_positivity_rejects_self_in_domain(fixtures):
    decl = parse_decl(read_fixture(fixtures, "negative_pi.qit"))
    with pytest.raises(PositivityError) as err:
        check_positivity(decl)
    assert err.value.line == 4


def test_positivity_nested_violation():
    src = "data T : Set with X = {a} where\n  c : (f : (T -> X) -> X) -> T\n"
    with pytest.raises(PositivityError):
        check_positivity(parse_decl(src))


def test_positivity_fuzz():
    rng = random.Random(20260808)
    for _ in range(100):
        check_positivity(decl_with_telescope(conforming_telescope(rng)))
    for _ in range(100):
        with pytest.raises(PositivityError):
            check_positivity(decl_with_telescope(violating_telescope(rng)))


# -- classification -----------------------------------------------------------------


def test_classify_bag(fixtures):
    cls = classify(parse_decl(read_fixture(fixtures, "bag.qit")))
    assert (cls.recursive, cls.conditional, cls.finitary) == (True, False, True)


def test_classify_omega_tree(fixtures):
    cls = classify(parse_decl(read_fixture(fixtures, "omega_tree.qit")))
    assert (cls.recursive, cls.conditional, cls.finitary) == (True, False, False)


def test_classify_conditional(fixtures):
    cls = classify(parse_decl(read_fixture(fixtures, "conditional.qit")))
    assert cls.conditional


def test_classify_non_recursive():
    src = (
        "data T : Set with X = {a, b} where\n"
        "  mk : (x : X) -> T\n"
        "  glue : mk(a) == mk(b)\n"
    )
    cls = classify(parse_decl(src))
    assert not cls.recursive and not cls.conditional and cls.finitary


# -- elaboration ---------------------------------------------------------------------


def test_elaborate_bag_matches_encoding(fixtures, bag):
    sig, system = elaborate(parse_decl(read_fixture(fixtures, "bag.qit")))
    assert sig == bag.signature
    assert system == bag.system


def test_elaborate_omega_tree_matches_encoding(fixtures, omega_tree):
    decl = parse_decl(read_fixture(fixtures, "omega_tree.qit"))
    sig, system = elaborate(decl, probe=2)
    assert sig == omega_tree.signature
    assert system == omega_tree.system


def test_elaborate_probe_changes_variable_count(fixtures):
    decl = parse_decl(read_fixture(fixtures, "omega_tree.qit"))
    _, system = elaborate(decl, probe=4)
    assert all(e.var_count == 5 for e in system.equations)
    assert system.probe == 4


def test_elaborate_wreductions_matches_translation(fixtures):
    decl = parse_decl(read_fixture(fixtures, "wreductions.qit"))
    sig, system = elaborate(decl)
    tsig, tsystem = from_w_reductions([("mk", 2)], {"mk": 0})
    assert [a for _, a in sig.ops] == [a for _, a in tsig.ops]
    assert len(system.equations) == len(tsystem.equations) == 1
    assert system.equations[0].lhs.branches == tsystem.equations[0].lhs.branches
    assert system.equations[0].rhs == tsystem.equations[0].rhs


def test_elaborate_conditional_rejected(fixtures):
    decl = parse_decl(read_fixture(fixtures, "conditional.qit"))
    with pytest.raises(ConditionalUnsupportedError):
        elaborate(decl)


def test_elaborate_bare_nat_parameter_rejected():
    src = "data T : Set where\n  c : (n : Nat) -> T\n"
    with pytest.raises(NonFinitaryConstantError):
        elaborate(parse_decl(src))


def test_elaborate_sigma_entry_rejected_but_classifies():
    src = "data T : Set with X = {a} where\n  c : (p : X * T) -> T\n"
    decl = parse_decl(src)
    check_positivity(decl)
    assert classify(decl).recursive is False  # only equality telescopes count
    with pytest.raises(UnsupportedSchemeError):
        elaborate(decl)


def test_elaborate_mixed_countable_and_finite_rejected():
    src = (
        "data T : Set with X = {a} where\n"
        "  c : (f : Nat -> T) (y : T) -> T\n"
    )
    with pytest.raises(UnsupportedSchemeError):
        elaborate(parse_decl(src))


def test_elaborate_pattern_index_beyond_probe_rejected(fixtures):
    src = (
        "data T : Set where\n"
        "  mk : (f : Nat -> T) -> T\n"
        "  red : (f : Nat -> T) -> mk(f) == f(5)\n"
    )
    with pytest.raises(ScopeError):
        elaborate(parse_decl(src), probe=2)


def test_elaborate_finite_family_indexing(fixtures):
    decl = parse_decl(read_fixture(fixtures, "wreductions.qit"))
    _, system = elaborate(decl)
    eq = system.equations[0]
    assert eq.lhs == Node("mk", (Var(0), Var(1)))
    assert eq.rhs == Var(0)


def test_elaborate_family_without_index_rejected(fixtures):
    src = read_fixture(fixtures, "wreductions.qit").replace("f(i0)", "f()")
    with pytest.raises(ScopeError):
        elaborate(parse_decl(src))


def test_endpoint_list_sugar(fixtures):
    spelled = read_fixture(fixtures, "bag.qit")
    sugared = spelled.replace(
        "cons(x, cons(y, ys)) == cons(y, cons(x, ys))", "x::y::ys == y::x::ys"
    )
    assert sugared != spelled
    decl = parse_decl(sugared)
    assert elaborate(decl) == elaborate(parse_decl(spelled))
    assert parse_decl(pretty_print(decl)) == decl


def test_endpoint_arity_mismatch_is_syntax_error():
    src = (
        "data T : Set with X = {a} where\n"
        "  nil : T\n"
        "  cons : (x : X) (ys : T) -> T\n"
        "  bad : (ys : T) -> cons(a, ys, ys) == ys\n"
    )
    with pytest.raises(DeclSyntaxError) as err:
        elaborate(parse_decl(src))
    assert (err.value.line, err.value.col) == (4, 21)


def test_endpoint_table_rejected_with_position():
    src = (
        "data T : Set with X = {a} where\n"
        "  leaf : T\n"
        "  node : (g : Nat -> T) -> T\n"
        "  bad : (g : Nat -> T) -> node(g) == node({leaf; 0 -> leaf})\n"
    )
    with pytest.raises(DeclSyntaxError) as err:
        parse_decl(src)
    assert (err.value.line, err.value.col) == (4, 43)


# -- round trips and ground terms ------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["bag.qit", "omega_tree.qit", "wreductions.qit", "conditional.qit", "negative_pi.qit"],
)
def test_pretty_print_round_trip(fixtures, name):
    decl = parse_decl(read_fixture(fixtures, name))
    assert parse_decl(pretty_print(decl)) == decl


def test_ground_term_sugar(fixtures):
    decl = parse_decl(read_fixture(fixtures, "bag.qit"))
    sugar = parse_ground_term("a::b::[]", decl)
    spelled = parse_ground_term("cons(a, cons(b, nil))", decl)
    assert sugar == spelled


def test_ground_term_omega_table(fixtures):
    decl = parse_decl(read_fixture(fixtures, "omega_tree.qit"))
    t = parse_ground_term("node(a, {leaf; 1 -> node(b, leaf)})", decl)
    assert isinstance(t.branches, OmegaTable)
    assert t.branches.support() == (1,)
    constant = parse_ground_term("node(b, leaf)", decl)
    assert constant.branches.entries == ()


# (fixture, generators, input, error class, line, col)
GROUND_TERM_ERRORS = [
    ("bag.qit", (), "mystery", ScopeError, 1, 1),
    ("bag.qit", (), "cons(a)", DeclSyntaxError, 1, 1),
    ("bag.qit", (), "cons(c, nil)", ScopeError, 1, 6),
    ("bag.qit", (), "a::b", DeclSyntaxError, 1, 4),
    ("bag.qit", (), "a", DeclSyntaxError, 1, 1),
    ("bag.qit", (), "3", DeclSyntaxError, 1, 1),
    ("bag.qit", (), "cons(nil, nil)", ScopeError, 1, 6),
    ("bag.qit", (), "cons(a, a)", DeclSyntaxError, 1, 9),
    ("bag.qit", (), "nil(nil)", DeclSyntaxError, 1, 1),
    ("bag.qit", (), "nil::[]", ScopeError, 1, 1),
    ("bag.qit", (), "cons(3, nil)", ScopeError, 1, 1),
    ("omega_tree.qit", (), "node(a, {leaf; 5 -> leaf})", DeclSyntaxError, 1, 9),
    ("omega_tree.qit", (), "node(a, g . f)", ScopeError, 1, 9),
    ("omega_tree.qit", (), "[]", ScopeError, 1, 1),
    ("wreductions.qit", ("v", "w"), "mk(v)", DeclSyntaxError, 1, 1),
    ("wreductions.qit", ("v", "w"), "mk(i0, i1)", DeclSyntaxError, 1, 4),
]


def test_ground_term_errors(fixtures):
    mismatches = []
    for name, generators, text, exc, line, col in GROUND_TERM_ERRORS:
        decl = parse_decl(read_fixture(fixtures, name))
        try:
            parse_ground_term(text, decl, generators=generators)
            got = None
        except SchemaError as err:
            got = (type(err), err.line, err.col)
        if got != (exc, line, col):
            mismatches.append((name, text, got))
    assert not mismatches


def surface(t) -> str:
    """A closed term in the surface syntax.  In the fixtures
    every parameter entry precedes the recursive ones, so an operator
    ``c(v1,...)`` prints as ``c(v1, ..., branches)``."""
    if isinstance(t, Var):
        return t.name
    head, _, params = t.op.partition("(")
    args = [v for v in params.rstrip(")").split(",") if v]
    if isinstance(t.branches, OmegaTable):
        entries = ", ".join(f"{i} -> {surface(b)}" for i, b in t.branches.entries)
        args.append(f"{{{surface(t.branches.default)}; {entries}}}")
    else:
        args.extend(surface(b) for b in t.branches)
    return f"{head}({', '.join(args)})"


@pytest.mark.parametrize(
    "name, size, probe, generators",
    [
        ("bag.qit", 6, 2, ()),
        ("omega_tree.qit", 5, 2, ()),
        ("omega_tree.qit", 5, 3, ()),
        ("wreductions.qit", 5, 2, ("v", "w")),
    ],
)
def test_ground_term_round_trip(fixtures, name, size, probe, generators):
    decl = parse_decl(read_fixture(fixtures, name))
    sig, _ = elaborate(decl, probe=probe)
    terms = closed_terms(sig, size, probe=probe, generators=generators)
    assert terms
    for t in terms:
        text = surface(t)
        assert parse_ground_term(text, decl, probe=probe, generators=generators) == t, text
