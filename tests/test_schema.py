from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

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
    WorkbenchError,
)
from qitbench.cli import main
from qitbench.engine import closed_terms
from qitbench.schema import (
    _SYMBOLS,
    _lex,
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


FIXTURES = Path(__file__).parent / "fixtures"


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


@pytest.mark.parametrize(
    "src, message",
    [
        # a digit int() refuses is no numeral, nor is one past the digit limit
        ("data T : Set with X = {²} where\n  c : T\n", "1:24: stray character '²'"),
        (
            "data T : Set with X = {" + "9" * 5000 + "} where\n  c : T\n",
            "1:24: numeral of 5000 digits is too long",
        ),
        ("", "1:1: expected the keyword 'data', found ''"),
    ],
)
def test_lexical_errors_are_positioned(src, message):
    with pytest.raises(DeclSyntaxError) as err:
        parse_decl(src)
    assert str(err.value) == message


def test_composition_with_a_value_rejected(fixtures):
    # g . x with x : X, which is no perms set: refused at the composition
    with pytest.raises(ScopeError) as err:
        parse_decl(read_fixture(fixtures, "compose_with_a_value.qit"))
    assert str(err.value) == "6:74: 'x' is not a permutation parameter"


def test_repeated_permutation_table_rejected(fixtures):
    # {1->0, 0->1} sorts to the table before it, which would name one
    # equation twice: refused at the repeated table, as a value is
    with pytest.raises(DeclSyntaxError) as err:
        parse_decl(read_fixture(fixtures, "repeated_perms.qit"))
    assert str(err.value) == "3:64: duplicate permutation table"
    # distinct tables, however written, are kept
    text = read_fixture(fixtures, "repeated_perms.qit").replace("{1->0, 0->1}", "{}")
    assert parse_decl(text).perms == (("F", (((0, 1), (1, 0)), ())),)


_OMEGA = "data T : Set with X = {a} where\n  leaf : T\n"
_NODE = "  node : (x : X) (g : Nat -> T) -> T\n"


@pytest.mark.parametrize(
    "src, message",
    [
        ("data T : Set with X = {a b} where\n  c : T\n", "1:26: expected ',', found 'b'"),
        (
            "data T : Set with F = perms {{0->1, 1->0} {}} where\n  c : T\n",
            "1:43: expected ',', found '{'",
        ),
        (
            "data T : Set with F = perms {{0->1 1->0}} where\n  c : T\n",
            "1:36: expected ',', found '1'",
        ),
        (
            _OMEGA + _NODE + "  e : (x : X) -> node(x leaf) == leaf\n",
            "4:25: expected ',', found 'leaf'",
        ),
        (
            _OMEGA + _NODE + "  e : node(a, {leaf; 0 -> leaf 1 -> leaf}) == leaf\n",
            "4:32: expected ',', found '1'",
        ),
    ],
    ids=["enumeration", "permutation-set", "permutation-table", "arguments", "table-entries"],
)
def test_declaration_list_items_are_comma_separated(src, message):
    with pytest.raises(DeclSyntaxError) as err:
        parse_decl(src)
    assert str(err.value) == message


def test_declaration_lists_may_end_with_a_comma(fixtures):
    text = read_fixture(fixtures, "omega_tree.qit")
    trailing = text.replace("{a, b}", "{a, b,}").replace("{{0->1, 1->0}}", "{{0->1, 1->0,},}")
    assert parse_decl(trailing) == parse_decl(text)


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


def _one_constructor(telescope: str) -> str:
    return f"data T : Set with X = {{a}} where\n  z : T\n  k : {telescope} -> T\n"


@pytest.mark.parametrize(
    "telescope, error, col",
    [
        # the outer arrow, whose domain holds an arrow into T
        ("(f : (X -> T) -> T)", PositivityError, 21),
        # the second arrow: the first one's domain is X
        ("(f : X -> (T -> X) -> T)", PositivityError, 26),
        # an arrow inside a pair type
        ("(p : (T -> X) * T)", PositivityError, 15),
        # the first undeclared type in preorder
        ("(f : X -> Y -> T)", ScopeError, 17),
    ],
)
def test_declaration_checks_report_the_first_offending_part(telescope, error, col):
    with pytest.raises(error) as err:
        check_positivity(parse_decl(_one_constructor(telescope)))
    assert (err.value.line, err.value.col) == (3, col)


def test_arrows_and_pairs_over_constants_are_accepted():
    decl = parse_decl(_one_constructor("(f : X -> X -> T) (p : X * T)"))
    check_positivity(decl)
    cls = classify(decl)
    assert (cls.recursive, cls.finitary) == (False, True)


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


_ONE_NODE = "data T : Set where\n  z : T\n  node : (g : Nat -> T) -> T\n"


@pytest.mark.parametrize(
    "src, error, message, line, col",
    [
        ("data T : Type where\n  z : T\n",
         DeclSyntaxError, "the declared type lives in 'Set'", 1, 10),
        ("data T : Set with X = {a} there\n  z : T\n",
         DeclSyntaxError, "expected 'where'", 1, 27),
        ("data T : Set with X = {a, ->} where\n  z : T\n",
         DeclSyntaxError, "enumeration values are names or numbers", 1, 27),
        # at the token after the list: the list is checked once read
        ("data T : Set with X = {a, b, a} where\n  z : T\n",
         DeclSyntaxError, "duplicate enumeration value", 1, 33),
        ("data T : Set with F = perms {{a->1}} where\n  z : T\n",
         DeclSyntaxError, "permutation entries map numbers", 1, 31),
        ("data T : Set with F = perms {{0->b}} where\n  z : T\n",
         DeclSyntaxError, "permutation entries map numbers", 1, 34),
        (_ONE_NODE + "  e : node({z; a -> z}) == z\n",
         DeclSyntaxError, "table entries are indexed by numbers", 4, 16),
        # at the repeated name
        ("data T : Set with X = {a}, X = perms {{}} where\n  z : T\n",
         DeclSyntaxError, "duplicate parameter set name", 1, 28),
        ("data T : Set where\n  z : T\n  e : z == y(z)\n",
         ScopeError, "unknown constructor 'y'", 3, 12),
        ("data T : Set with X = {a} where\n  z : T\n  c : (f : X -> X) -> T\n",
         UnsupportedSchemeError, "function entries must land in the declared type", 3, 14),
        ("data T : Set where\n  z : T\n  c : (f : Nat -> Nat -> T) -> T\n",
         UnsupportedSchemeError, "countable branching cannot mix with other domains", 3, 16),
        ("data T : Set with F = perms {{}} where\n  z : T\n  c : (f : F -> T) -> T\n",
         UnsupportedSchemeError, "branch domains must be declared finite sets or Nat", 3, 14),
        ("data T : Set with X = {a} where\n  c : (f : X -> T) -> T\n"
         "  e : (f : X -> T) -> c(f) == f\n",
         ScopeError, "branch family 'f' is not a term by itself", 3, 31),
        (_ONE_NODE + "  e : (g : Nat -> T) -> node(g) == g(0, 1)\n",
         ScopeError, "'g' takes one index", 4, 36),
        ("data T : Set with X = {a}, Y = {a, b} where\n  c : (f : X -> T) -> T\n"
         "  e : (f : Y -> T) -> c(f) == c(f)\n",
         ScopeError, "expected a branch family of matching shape", 3, 25),
        ("data T : Set with X = {a}, F = perms {{}} where\n  z : T\n"
         "  node : (g : Nat -> T) -> T\n  e : (f : X -> T) (p : F) -> node(f . p) == z\n",
         ScopeError, "'f' is not a countable branch family", 4, 36),
    ],
    ids=[
        "not-set", "no-where", "enumeration-value", "enumeration-repeat", "permutation-source",
        "permutation-target", "table-index", "parameter-set-repeat", "unknown-constructor",
        "function-codomain", "countable-and-more", "function-domain", "family-as-term",
        "countable-family-arguments", "family-shape", "composed-finite-family",
    ],
)
def test_declaration_errors_are_positioned(src, error, message, line, col):
    with pytest.raises(SchemaError) as err:
        elaborate(parse_decl(src), probe=2)
    assert (type(err.value), err.value.args[0], err.value.line, err.value.col) == (
        error, message, line, col
    )


def test_a_countable_family_read_at_an_index_elaborates(capsys, tmp_path):
    # node(g) == g(0): the family's probed entries and default are three
    # variables, and the right side is the first
    src = _ONE_NODE + "  first : (g : Nat -> T) -> node(g) == g(0)\n"
    _, system = elaborate(parse_decl(src), probe=2)
    (eq,) = system.equations
    assert (eq.var_count, eq.rhs) == (3, Var(0))
    assert eq.lhs == Node("node", OmegaTable(((0, Var(0)), (1, Var(1))), Var(2)))
    path = tmp_path / "first.qit"
    path.write_text(src)
    assert main(["selftest", str(path), "--size-bound", "4"]) == 0
    assert capsys.readouterr().out.endswith('verdict: "ok"\n')


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


# (fixture, generators, input, error class, message, line, col)
GROUND_TERM_ERRORS = [
    ("bag.qit", (), "mystery", ScopeError, "'mystery' is not a term of the declared type", 1, 1),
    ("bag.qit", (), "cons(a)", DeclSyntaxError, "'cons' expects 2 arguments, got 1", 1, 1),
    ("bag.qit", (), "cons(c, nil)", ScopeError, "expected a parameter value here", 1, 6),
    ("bag.qit", (), "a::b", DeclSyntaxError, "expected a term here", 1, 4),
    ("bag.qit", (), "a", DeclSyntaxError, "expected a term here", 1, 1),
    ("bag.qit", (), "3", DeclSyntaxError, "expected a term here", 1, 1),
    ("bag.qit", (), "cons(nil, nil)", ScopeError, "expected a parameter value here", 1, 6),
    ("bag.qit", (), "cons(a, a)", DeclSyntaxError, "expected a term here", 1, 9),
    ("bag.qit", (), "nil(nil)", DeclSyntaxError, "'nil' expects 0 arguments, got 1", 1, 1),
    ("bag.qit", (), "nil::[]", ScopeError, "expected a parameter value here", 1, 1),
    ("bag.qit", (), "cons(3, nil)", ScopeError, "'cons' takes one of ['a', 'b'] here", 1, 1),
    # an argument's error comes before the miscount, and an argument past
    # the telescope is not read
    ("bag.qit", (), "cons(c, nil, nil)", ScopeError, "expected a parameter value here", 1, 6),
    (
        "bag.qit", (), "cons(a, mystery, nil)",
        ScopeError, "'mystery' is not a term of the declared type", 1, 9,
    ),
    (
        "bag.qit", (), "cons(a, nil, mystery)",
        DeclSyntaxError, "'cons' expects 2 arguments, got 3", 1, 1,
    ),
    ("bag.qit", (), "a::b::c::[]", ScopeError, "expected a parameter value here", 1, 7),
    (
        "omega_tree.qit", (), "node(a, {leaf; 5 -> leaf})",
        DeclSyntaxError, "table entries must stay below the probe depth 2", 1, 9,
    ),
    (
        "omega_tree.qit", (), "node(a, g . f)",
        ScopeError, "composition needs a branch family and a permutation parameter", 1, 9,
    ),
    ("omega_tree.qit", (), "[]", ScopeError, "'nil' is not a term of the declared type", 1, 1),
    (
        "wreductions.qit", ("v", "w"), "mk(v)",
        DeclSyntaxError, "'mk' expects 2 arguments, got 1", 1, 1,
    ),
    ("wreductions.qit", ("v", "w"), "mk(i0, i1)", DeclSyntaxError, "expected a term here", 1, 4),
    # a digit int() refuses is no numeral, nor is one past the digit limit
    ("bag.qit", (), "cons(²)", DeclSyntaxError, "stray character '²'", 1, 6),
    (
        "bag.qit", (), "cons(" + "9" * 5000 + ", nil)",
        DeclSyntaxError, "numeral of 5000 digits is too long", 1, 6,
    ),
    ("bag.qit", (), "", DeclSyntaxError, "expected a pattern, found ''", 1, 1),
]


@pytest.mark.parametrize(
    "name, text, message, trailing, plain",
    [
        ("bag.qit", "cons(a nil)", "1:8: expected ',', found 'nil'", "cons(a, nil,)", "a::[]"),
        (
            "omega_tree.qit",
            "node(a, {leaf; 0 -> leaf 1 -> leaf})",
            "1:26: expected ',', found '1'",
            "node(a, {leaf; 0 -> node(b, leaf), 1 -> leaf,},)",
            "node(a, {leaf; 0 -> node(b, leaf)})",
        ),
    ],
    ids=["arguments", "table-entries"],
)
def test_ground_term_list_items_are_comma_separated(fixtures, name, text, message, trailing, plain):
    decl = parse_decl(read_fixture(fixtures, name))
    with pytest.raises(DeclSyntaxError) as err:
        parse_ground_term(text, decl)
    assert str(err.value) == message
    # a trailing comma is accepted
    assert parse_ground_term(trailing, decl) == parse_ground_term(plain, decl)


def test_ground_term_errors(fixtures):
    mismatches = []
    for name, generators, text, exc, message, line, col in GROUND_TERM_ERRORS:
        decl = parse_decl(read_fixture(fixtures, name))
        try:
            parse_ground_term(text, decl, generators=generators)
            got = None
        except SchemaError as err:
            got = (type(err), err.args[0], err.line, err.col)
        if got != (exc, message, line, col):
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


def sugared(t) -> str:
    """A closed list term in the list sugar, ``x::...::[]``."""
    cells = []
    while t.op != "nil":
        cells.append(t.op.partition("(")[2].rstrip(")"))
        (t,) = t.branches
    return "::".join(cells + ["[]"])


def test_ground_term_list_sugar_round_trip(fixtures):
    decl = parse_decl(read_fixture(fixtures, "bag.qit"))
    sig, _ = elaborate(decl)
    terms = closed_terms(sig, 6)
    assert len(terms) == 63  # the lists of up to five cells over {a, b}
    for t in terms:
        text = sugared(t)
        assert parse_ground_term(text, decl) == parse_ground_term(surface(t), decl) == t, text


# -- the declaration's constructor table ------------------------------------------------------


def ground_texts(name: str, probe: int) -> list[str]:
    """Surface texts of the closed terms up to size 4, from an elaboration
    of a separate copy of the declaration (at probe 2 or more: the omega
    tree's permutation does not fit probe 1); the conditional fixture does
    not elaborate, so its texts are written out."""
    if name == "conditional.qit":
        return ["base", "mk(a)", "mk(b)", "mk(c)", "base(a)", "mk(base)"]
    sig, _ = elaborate(parse_decl(read_fixture(FIXTURES, name)), probe=max(probe, 2))
    generators = ("v", "w") if name == "wreductions.qit" else ()
    return [surface(t) for t in closed_terms(sig, 4, probe=max(probe, 2), generators=generators)]


def parse_all(texts: list[str], decl, probe: int, generators: tuple) -> list:
    out = []
    for text in texts:
        try:
            out.append(parse_ground_term(text, decl, probe=probe, generators=generators))
        except SchemaError as err:
            out.append((type(err), str(err)))
    return out


def elaborated(decl, probe: int):
    try:
        return elaborate(decl, probe=probe)
    except SchemaError as err:
        return (type(err), str(err))


@pytest.mark.parametrize("probe", [1, 2, 3])
@pytest.mark.parametrize(
    "name", ["bag.qit", "omega_tree.qit", "wreductions.qit", "conditional.qit"]
)
def test_constructor_table_is_the_same_whichever_reader_builds_it(name, probe):
    text = read_fixture(FIXTURES, name)
    generators = ("v", "w") if name == "wreductions.qit" else ()
    texts = ground_texts(name, probe)
    assert texts
    elaborated_first, parsed_first = parse_decl(text), parse_decl(text)
    signature = elaborated(elaborated_first, probe)
    terms = parse_all(texts, parsed_first, probe, generators)
    assert parse_all(texts, elaborated_first, probe, generators) == terms
    assert elaborated(parsed_first, probe) == signature
    assert any(isinstance(t, Node) for t in terms)


def test_a_refused_constructor_table_is_refused_on_every_read():
    decl = parse_decl(
        "data T : Set with X = {a} where\n"
        "  leaf : T\n"
        "  c : (f : Nat -> T) (y : T) -> T\n"
    )
    messages = set()
    for read in [lambda: elaborate(decl), lambda: parse_ground_term("leaf", decl)] * 2:
        with pytest.raises(UnsupportedSchemeError) as err:
            read()
        messages.add(str(err.value))
    assert messages == {"3:3: a countably branching argument must be the only recursive argument"}


def test_declarations_compare_equal_whether_or_not_their_table_is_built(fixtures):
    text = read_fixture(fixtures, "omega_tree.qit")
    built, bare = parse_decl(text), parse_decl(text)
    parse_ground_term("node(a, leaf)", built)
    assert built == bare and hash(built) == hash(bare)
    assert parse_decl(pretty_print(built)) == bare


# -- the lexer against its character-by-character reference ----------------------------------


def _reference_lex(source: str) -> list[tuple]:
    """The lexer as a character loop: whitespace is skipped, then the first
    of ``_SYMBOLS`` that matches, a run of decimal digits, or a word that
    starts with a letter or "_"; any other character is stray."""
    toks = []
    for lineno, raw in enumerate(source.splitlines() or [""], start=1):
        line = raw.split("#", 1)[0]
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            for sym in _SYMBOLS:
                if line.startswith(sym, i):
                    toks.append(("sym", sym, lineno, col))
                    i += len(sym)
                    break
            else:
                if ch.isdecimal():
                    j = i
                    while j < len(line) and line[j].isdecimal():
                        j += 1
                    toks.append(("int", line[i:j], lineno, col))
                    i = j
                elif ch.isalpha() or ch == "_":
                    j = i
                    while j < len(line) and (line[j].isalnum() or line[j] in "_'"):
                        j += 1
                    toks.append(("name", line[i:j], lineno, col))
                    i = j
                else:
                    raise DeclSyntaxError(f"stray character {ch!r}", lineno, col)
        toks.append(("end", "", lineno, len(line) + 1))
    return toks


def _lexed(lex, text: str):
    """The tokens as ``(kind, text, line, col)``, or the error's message."""
    try:
        toks = lex(text)
    except DeclSyntaxError as err:
        return str(err)
    return [t if isinstance(t, tuple) else (t.kind, t.text, t.line, t.col) for t in toks]


# "²" is a digit int() refuses, "٣" a decimal digit outside ASCII, "ª" and
# "µ" letters outside ASCII; "\x0b", "\x1c" and "\u2028" end a line for
# str.splitlines, "\xa0" is whitespace inside one
_LEX_PIECES = hst.one_of(
    hst.sampled_from(_SYMBOLS),
    hst.sampled_from(("-", "[", "]", "<", "!", "@", "$", "'", "_", "#", "# note")),
    hst.sampled_from(("a", "Bag", "x'", "_y", "ª", "µ", "7", "٣", "²", "½", "09")),
    hst.sampled_from((" ", "  ", "\t", "\xa0", "\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028")),
)


@settings(deadline=None)
@example("a²b ² 7٣x ªµ _' 'a")
@example("x # ² stray after a comment\x0by\u2028z\x1c@")
@example("cons(a, nil) -> == :: [] . * ; = { }\n\n  \t")
@given(hst.lists(_LEX_PIECES, max_size=40).map("".join) | hst.text(max_size=40))
def test_lexer_matches_the_character_loop(text):
    assert _lexed(_lex, text) == _lexed(_reference_lex, text)


# -- the parsers on arbitrary text --------------------------------------------------------

FIXTURE_TEXTS = tuple(
    (FIXTURES / name).read_text()
    for name in ("bag.qit", "omega_tree.qit", "wreductions.qit", "conditional.qit")
)
TERM_DECLS = tuple(parse_decl(t) for t in FIXTURE_TEXTS[:2])  # bag, omega_tree

_TOKENS = hst.one_of(
    hst.sampled_from(
        ("data", "Set", "with", "where", "perms", "Nat", "T", "X", "F", "x", "f",
         "g", "a", "b", "leaf", "node", "cons", "nil", "mk", "v", "Bag", "OmegaTree")
    ),
    hst.sampled_from(("0", "1", "2", "7", "²", "9" * 5000)),
    hst.sampled_from(_SYMBOLS),
    hst.sampled_from((". x", "\n")),
)


def _soup(max_size: int):
    return hst.lists(_TOKENS, max_size=max_size).map(" ".join)


@hst.composite
def _spliced_fixture(draw):
    """A fixture text with one span replaced by a few tokens."""
    text = draw(hst.sampled_from(FIXTURE_TEXTS))
    i = draw(hst.integers(0, len(text)))
    j = draw(hst.integers(i, min(len(text), i + 16)))
    return text[:i] + draw(_soup(4)) + text[j:]


@settings(deadline=None)
@example("")
@example("data T : Set with X = {²} where\n  c : T\n")
@example("cons(²)")
@example("cons(" + "9" * 5000 + ", nil)")
@example(FIXTURE_TEXTS[1].replace("g . f)", "g . x)"))
@given(hst.one_of(_soup(30), _spliced_fixture()))
def test_parsers_raise_only_workbench_errors(text):
    def declare():
        decl = parse_decl(text)
        for probe in (1, 2, 3):
            elaborate(decl, probe=probe)

    calls = [declare] + [
        lambda decl=decl, gens=gens: parse_ground_term(text, decl, generators=gens)
        for decl in TERM_DECLS
        for gens in ((), ("v",))
    ]
    for call in calls:
        try:
            call()
        except WorkbenchError:
            pass
