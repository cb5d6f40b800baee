"""Declaration language for quotient-inductive types.

A declaration names one type, lists element constructors with strictly
positive telescopes, and equality constructors whose endpoints are
constructor patterns.  Parameter sets are instantiated inline:

    data Bag : Set with X = {a, b} where
      nil  : Bag
      cons : (x : X) (ys : Bag) -> Bag
      swap : (x : X) (y : X) (ys : Bag) -> cons(x, cons(y, ys)) == cons(y, cons(x, ys))

Countable branching uses ``Nat`` in a function domain, and admissible
permutations of countable branches are listed as explicit tables:

    data OmegaTree : Set with X = {a, b}, F = perms {{0->1, 1->0}} where
      leaf : OmegaTree
      node : (x : X) (g : Nat -> OmegaTree) -> OmegaTree
      perm : (x : X) (f : F) (g : Nat -> OmegaTree) -> node(x, g) == node(x, g . f)

Equality telescopes may also contain condition entries ``(q : p == p')``;
such declarations parse and classify as conditional but are rejected at
elaboration.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import Any, Iterable, Iterator, NamedTuple

from .equations import EquationSystem, make_system
from .errors import (
    ConditionalUnsupportedError,
    DeclSyntaxError,
    DuplicateBinderError,
    DuplicateConstructorError,
    NonFinitaryConstantError,
    PositivityError,
    ScopeError,
    UnsupportedSchemeError,
)
from .terms import OMEGA, Arity, Node, Record, Signature, Term, Var, omega_table, var_block


# -- source positions and AST ---------------------------------------------------


class SrcPos(NamedTuple):
    line: int = 0
    col: int = 0


class _Syntax(Record):
    """A syntax node: equal to and hashed as its fields other than ``pos``."""

    _uncompared = ("pos",)


class ConstType(_Syntax):
    def __init__(self, name: str, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pos", pos)


class SelfType(_Syntax):
    def __init__(self, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "pos", pos)


class PiType(_Syntax):
    def __init__(self, domain: Any, codomain: Any, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "pos", pos)


class SigmaType(_Syntax):
    def __init__(self, first: Any, second: Any, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "pos", pos)


class ConditionType(_Syntax):
    def __init__(self, lhs: Any, rhs: Any, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "pos", pos)


# A parsed term makes a PatName or a PatApply per node, so these two write
# their fields into ``__dict__`` and skip the calls to object.__setattr__.
# The dict makes their attribute reads slower, which a pattern (read a few
# times, then dropped) does not feel; ``terms.Node`` keeps the setter.
class PatName(_Syntax):
    def __init__(self, name: Any, pos: SrcPos = SrcPos()):
        d = self.__dict__
        d["name"] = name  # identifier or integer literal
        d["pos"] = pos


class PatApply(_Syntax):
    def __init__(self, head: str, args: tuple, pos: SrcPos = SrcPos()):
        d = self.__dict__
        d["head"] = head
        d["args"] = args
        d["pos"] = pos


class PatCompose(_Syntax):
    def __init__(self, fun: str, perm: str, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "fun", fun)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "pos", pos)


class PatTable(_Syntax):
    """A countable branch map ``{default; i -> t, ...}``."""

    def __init__(self, default: Any, entries: tuple, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "entries", entries)  # ((index, pattern), ...)
        object.__setattr__(self, "pos", pos)


class Binder(_Syntax):
    def __init__(self, name: str, type: Any, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "pos", pos)


class ElementCtor(_Syntax):
    def __init__(self, name: str, telescope: tuple, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "telescope", telescope)
        object.__setattr__(self, "pos", pos)


class EqualityCtor(_Syntax):
    def __init__(self, name: str, telescope: tuple, lhs: Any, rhs: Any, pos: SrcPos = SrcPos()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "telescope", telescope)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "pos", pos)


PermTable = tuple  # tuple[tuple[int, int], ...], sorted by source index


class QITDecl(Record):
    def __init__(
        self, name: str, enums: tuple, perms: tuple, element_ctors: tuple, equality_ctors: tuple
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "enums", enums)  # ((name, (value, ...)), ...)
        object.__setattr__(self, "perms", perms)  # ((name, (PermTable, ...)), ...)
        object.__setattr__(self, "element_ctors", element_ctors)
        object.__setattr__(self, "equality_ctors", equality_ctors)

    def enum(self, name: str):
        for n, vs in self.enums:
            if n == name:
                return vs
        return None

    def perm_set(self, name: str):
        for n, ts in self.perms:
            if n == name:
                return ts
        return None

    # Built on first use and kept beside the fields, out of comparisons; a
    # declaration whose constructors do not elaborate raises on every use.
    @cached_property
    def _shapes(self) -> dict:
        return _ctor_shapes(self)

    @cached_property
    def _values(self) -> frozenset:
        """Every declared enumeration value."""
        return frozenset(v for _, vs in self.enums for v in vs)


class Classification(Record):
    def __init__(self, recursive: bool, conditional: bool, finitary: bool):
        object.__setattr__(self, "recursive", recursive)
        object.__setattr__(self, "conditional", conditional)
        object.__setattr__(self, "finitary", finitary)

    def to_json(self) -> dict:
        return {
            "recursive": self.recursive,
            "conditional": self.conditional,
            "finitary": self.finitary,
        }


# -- lexer -----------------------------------------------------------------------

_SYMBOLS = ("->", "==", "::", "[]", "(", ")", "{", "}", ",", ":", ";", "*", ".", "=")
# Whitespace, then a symbol (the first of _SYMBOLS that matches), a run of
# decimal digits, a word, or any other character, which is stray.
_TOKEN = re.compile(r"(\s*)(?:(%s)|(\d+)|(\w[\w']*)|(\S))" % "|".join(map(re.escape, _SYMBOLS)))


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "name" | "int" | "sym" | "end"
        self.text = text
        self.line = line
        self.col = col


def _lex(source: str) -> list[_Tok]:
    toks: list[_Tok] = []
    # an empty source is one empty line, so the tokens end in an "end"
    for lineno, raw in enumerate(source.splitlines() or [""], start=1):
        line = raw.split("#", 1)[0]
        col = 1
        for space, sym, num, name, stray in _TOKEN.findall(line):
            col += len(space)
            if sym:
                toks.append(_Tok("sym", sym, lineno, col))
            elif num:
                toks.append(_Tok("int", num, lineno, col))
            elif name and (name[0].isalpha() or name[0] == "_"):  # not "²"
                toks.append(_Tok("name", name, lineno, col))
            else:
                raise DeclSyntaxError(f"stray character {(name or stray)[0]!r}", lineno, col)
            col += len(sym or num or name)
        toks.append(_Tok("end", "", lineno, len(line) + 1))
    return toks


def _numeral(t: _Tok) -> int:
    """The value of an ``int`` token; a numeral ``int`` refuses (one past
    the interpreter's digit limit) is a syntax error at the token."""
    try:
        return int(t.text)
    except ValueError:
        raise DeclSyntaxError(
            f"numeral of {len(t.text)} digits is too long", t.line, t.col
        ) from None


class _Cursor:
    __slots__ = ("toks", "i")

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    # the tokens end in an "end", which nothing consumes without raising
    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[self.i + ahead]

    def next(self) -> _Tok:
        self.i += 1
        return self.toks[self.i - 1]

    def at_sym(self, text: str, ahead: int = 0) -> bool:
        t = self.toks[self.i + ahead]
        return t.text == text and t.kind == "sym"

    def at_name(self, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == "name" and (text is None or t.text == text)

    def expect_sym(self, text: str) -> _Tok:
        t = self.next()
        if t.kind != "sym" or t.text != text:
            raise DeclSyntaxError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_name(self, what: str = "a name") -> _Tok:
        t = self.next()
        if t.kind != "name":
            raise DeclSyntaxError(f"expected {what}, found {t.text!r}", t.line, t.col)
        return t

    def skip_ends(self) -> None:
        while self.peek().kind == "end" and self.i < len(self.toks) - 1:
            self.i += 1

    def done(self) -> bool:
        self.skip_ends()
        return self.i >= len(self.toks) - 1 and self.peek().kind == "end"


def _pos(t: _Tok) -> SrcPos:
    # SrcPos(t.line, t.col), without a call to the Python-level SrcPos.__new__
    return tuple.__new__(SrcPos, (t.line, t.col))


# -- parser ------------------------------------------------------------------------

# Deeper patterns are refused, so that parsing, elaborating and interning a
# term stay inside the interpreter's recursion limit.
MAX_TERM_DEPTH = 400


def parse_decl(source: str) -> QITDecl:
    """Parse and validate one declaration. Errors carry line and column."""
    cur = _Cursor(_lex(source))
    cur.skip_ends()
    head = cur.expect_name("the keyword 'data'")
    if head.text != "data":
        raise DeclSyntaxError("a declaration starts with 'data'", head.line, head.col)
    decl_name = cur.expect_name("the declared type name").text
    cur.expect_sym(":")
    kw = cur.expect_name("'Set'")
    if kw.text != "Set":
        raise DeclSyntaxError("the declared type lives in 'Set'", kw.line, kw.col)
    enums: list[tuple[str, tuple]] = []
    perms: list[tuple[str, tuple]] = []
    cur.skip_ends()
    if cur.at_name("with"):
        cur.next()
        while True:
            cur.skip_ends()
            ptok = cur.expect_name("a parameter set name")
            pname = ptok.text
            if any(n == pname for n, _ in enums + perms):
                raise DeclSyntaxError("duplicate parameter set name", ptok.line, ptok.col)
            cur.expect_sym("=")
            cur.skip_ends()
            if cur.at_name("perms"):
                cur.next()
                perms.append((pname, _parse_perm_set(cur)))
            else:
                enums.append((pname, _parse_enum(cur)))
            cur.skip_ends()
            if cur.at_sym(",") or cur.at_sym(";"):
                cur.next()
                continue
            break
    cur.skip_ends()
    kw = cur.expect_name("'where'")
    if kw.text != "where":
        raise DeclSyntaxError("expected 'where'", kw.line, kw.col)

    element: list[ElementCtor] = []
    equality: list[EqualityCtor] = []
    while not cur.done():
        ctor = _parse_ctor(cur, decl_name)
        if isinstance(ctor, ElementCtor):
            element.append(ctor)
        else:
            equality.append(ctor)
    decl = QITDecl(
        decl_name, tuple(enums), tuple(perms), tuple(element), tuple(equality)
    )
    _validate_decl(decl)
    return decl


def _parse_enum(cur: _Cursor) -> tuple:
    cur.expect_sym("{")
    values: list[Any] = []
    while not cur.at_sym("}"):
        t = cur.next()
        if t.kind == "name":
            values.append(t.text)
        elif t.kind == "int":
            values.append(_numeral(t))
        else:
            raise DeclSyntaxError("enumeration values are names or numbers", t.line, t.col)
        if not cur.at_sym("}"):
            cur.expect_sym(",")
    cur.expect_sym("}")
    if len(set(values)) != len(values):
        raise DeclSyntaxError("duplicate enumeration value", cur.peek().line, cur.peek().col)
    return tuple(values)


def _parse_perm_set(cur: _Cursor) -> tuple:
    cur.expect_sym("{")
    tables: list[PermTable] = []
    while not cur.at_sym("}"):
        tok = cur.peek()
        table = _parse_perm_table(cur)
        if table in tables:
            raise DeclSyntaxError("duplicate permutation table", tok.line, tok.col)
        tables.append(table)
        if not cur.at_sym("}"):
            cur.expect_sym(",")
    cur.expect_sym("}")
    return tuple(tables)


def _parse_perm_table(cur: _Cursor) -> PermTable:
    open_tok = cur.expect_sym("{")
    entries: list[tuple[int, int]] = []
    while not cur.at_sym("}"):
        a = cur.next()
        if a.kind != "int":
            raise DeclSyntaxError("permutation entries map numbers", a.line, a.col)
        cur.expect_sym("->")
        b = cur.next()
        if b.kind != "int":
            raise DeclSyntaxError("permutation entries map numbers", b.line, b.col)
        entries.append((_numeral(a), _numeral(b)))
        if not cur.at_sym("}"):
            cur.expect_sym(",")
    cur.expect_sym("}")
    srcs = [i for i, _ in entries]
    tgts = [j for _, j in entries]
    if len(set(srcs)) != len(srcs) or sorted(srcs) != sorted(set(tgts)):
        raise DeclSyntaxError(
            "table must be a bijection on its support", open_tok.line, open_tok.col
        )
    return tuple(sorted(entries))


def _parse_ctor(cur: _Cursor, decl_name: str):
    name_tok = cur.expect_name("a constructor name")
    cur.expect_sym(":")
    telescope: list[Binder] = []
    while cur.at_sym("(") and cur.peek(1).kind == "name" and cur.at_sym(":", 2):
        telescope.append(_parse_binder(cur, decl_name))
    if telescope:
        cur.expect_sym("->")
    # target: the declared type (element constructor) or an equation
    target_tok = cur.peek()
    first = _parse_pattern(cur)
    if cur.at_sym("=="):
        cur.next()
        rhs = _parse_pattern(cur)
        _expect_line_end(cur)
        return EqualityCtor(name_tok.text, tuple(telescope), first, rhs, _pos(name_tok))
    if isinstance(first, PatName) and first.name == decl_name:
        _expect_line_end(cur)
        return ElementCtor(name_tok.text, tuple(telescope), _pos(name_tok))
    raise DeclSyntaxError(
        f"constructor must end in {decl_name} or an equation",
        target_tok.line,
        target_tok.col,
    )


def _expect_line_end(cur: _Cursor) -> None:
    t = cur.peek()
    if t.kind != "end":
        raise DeclSyntaxError(f"unexpected {t.text!r} after constructor", t.line, t.col)


def _parse_binder(cur: _Cursor, decl_name: str) -> Binder:
    cur.expect_sym("(")
    name_tok = cur.expect_name("a binder name")
    cur.expect_sym(":")
    # look ahead for a top-level '==' inside the parens: condition entry
    depth = 0
    is_condition = False
    j = cur.i
    while j < len(cur.toks):
        t = cur.toks[j]
        if t.kind == "sym" and t.text in ("(", "{"):
            depth += 1
        elif t.kind == "sym" and t.text in (")", "}"):
            if depth == 0:
                break
            depth -= 1
        elif t.kind == "sym" and t.text == "==" and depth == 0:
            is_condition = True
            break
        elif t.kind == "end":
            break
        j += 1
    if is_condition:
        lhs = _parse_pattern(cur)
        eq_tok = cur.expect_sym("==")
        rhs = _parse_pattern(cur)
        body: Any = ConditionType(lhs, rhs, _pos(eq_tok))
    else:
        body = _parse_type(cur, decl_name)
    cur.expect_sym(")")
    return Binder(name_tok.text, body, _pos(name_tok))


def _parse_type(cur: _Cursor, decl_name: str):
    left = _parse_type_product(cur, decl_name)
    if cur.at_sym("->"):
        arrow = cur.next()
        right = _parse_type(cur, decl_name)
        return PiType(left, right, _pos(arrow))
    return left


def _parse_type_product(cur: _Cursor, decl_name: str):
    left = _parse_type_atom(cur, decl_name)
    if cur.at_sym("*"):
        star = cur.next()
        right = _parse_type_product(cur, decl_name)
        return SigmaType(left, right, _pos(star))
    return left


def _parse_type_atom(cur: _Cursor, decl_name: str):
    if cur.at_sym("("):
        cur.next()
        inner = _parse_type(cur, decl_name)
        cur.expect_sym(")")
        return inner
    t = cur.expect_name("a type name")
    if t.text == decl_name:
        return SelfType(_pos(t))
    return ConstType(t.text, _pos(t))


def _parse_pattern(cur: _Cursor, depth: int = 0):
    """A pattern, where ``x :: t`` stands for ``cons(x, t)``.  An argument,
    a table entry or a list cell's tail lies one level below its parent, and
    a pattern more than MAX_TERM_DEPTH levels deep is refused.  The pattern
    readers test a token by its text alone: no other kind of token spells a
    symbol."""
    toks = cur.toks
    pat = _parse_pattern_atom(cur, depth)
    cells = []  # (the "::", the head) of each list cell, outermost first
    while toks[cur.i].text == "::":
        cells.append((toks[cur.i], pat))
        cur.i += 1
        pat = _parse_pattern_atom(cur, depth + len(cells))
    for t, head in reversed(cells):
        pat = PatApply("cons", (head, pat), _pos(t))
    return pat


def _parse_pattern_atom(cur: _Cursor, depth: int):
    toks = cur.toks
    t = toks[cur.i]
    cur.i += 1
    if depth > MAX_TERM_DEPTH:
        raise DeclSyntaxError(
            f"term nested more than {MAX_TERM_DEPTH} levels deep", t.line, t.col
        )
    if t.kind == "name":
        after = toks[cur.i].text
        if after == ".":
            cur.i += 1
            f = cur.expect_name("a permutation parameter")
            return PatCompose(t.text, f.text, _pos(t))
        if after != "(":
            return PatName(t.text, _pos(t))
        cur.i += 1
        args: list[Any] = []
        while toks[cur.i].text != ")":
            args.append(_parse_pattern(cur, depth + 1))
            if toks[cur.i].text != ")":
                cur.expect_sym(",")
        cur.i += 1
        return PatApply(t.text, tuple(args), _pos(t))
    if t.kind == "int":
        return PatName(_numeral(t), _pos(t))
    if t.text == "[]":
        return PatApply("nil", (), _pos(t))
    if t.text == "{":  # a countable branch map
        default = _parse_pattern(cur, depth + 1)
        entries: list[tuple[int, Any]] = []
        if cur.at_sym(";"):
            cur.next()
            while not cur.at_sym("}"):
                i = cur.next()
                if i.kind != "int":
                    raise DeclSyntaxError("table entries are indexed by numbers", i.line, i.col)
                cur.expect_sym("->")
                entries.append((_numeral(i), _parse_pattern(cur, depth + 1)))
                if not cur.at_sym("}"):
                    cur.expect_sym(",")
        cur.expect_sym("}")
        return PatTable(default, tuple(entries), _pos(t))
    raise DeclSyntaxError(f"expected a pattern, found {t.text!r}", t.line, t.col)


# -- validation ----------------------------------------------------------------------


def _validate_decl(decl: QITDecl) -> None:
    ctor_names = set()
    for ctor in decl.element_ctors + decl.equality_ctors:
        if ctor.name in ctor_names:
            raise DuplicateConstructorError(f"duplicate constructor {ctor.name!r}", *ctor.pos)
        ctor_names.add(ctor.name)
    for ctor in decl.element_ctors + decl.equality_ctors:
        binder_names = set()
        is_equality = isinstance(ctor, EqualityCtor)
        for b in ctor.telescope:
            if b.name in binder_names:
                raise DuplicateBinderError(f"binder {b.name!r} reused in the telescope", *b.pos)
            binder_names.add(b.name)
            _validate_type(decl, b.type, allow_condition=is_equality)
        if is_equality:
            binders = {b.name: b.type for b in ctor.telescope}
            _validate_pattern(decl, binders, ctor.lhs)
            _validate_pattern(decl, binders, ctor.rhs)
            for b in ctor.telescope:
                if isinstance(b.type, ConditionType):
                    _validate_pattern(decl, binders, b.type.lhs)
                    _validate_pattern(decl, binders, b.type.rhs)


def _parts(node) -> Iterator:
    """``node``, then its parts in preorder: a function type's domain then
    codomain, a pair type's first then second part, and an application's
    arguments from left to right.  The walk keeps its own stack."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, PiType):
            todo += (node.codomain, node.domain)
        elif isinstance(node, SigmaType):
            todo += (node.second, node.first)
        elif isinstance(node, PatApply):
            todo += reversed(node.args)


def _validate_type(decl: QITDecl, tp, *, allow_condition: bool) -> None:
    """Constant types are declared or ``Nat``; a condition is a whole binder type."""
    for part in _parts(tp):
        if isinstance(part, ConstType):
            if part.name != "Nat" and (
                decl.enum(part.name) is None and decl.perm_set(part.name) is None
            ):
                raise ScopeError(
                    f"unknown type {part.name!r} (declare it in the with-clause)", *part.pos
                )
        elif isinstance(part, ConditionType):
            if not (allow_condition and part is tp):
                raise DeclSyntaxError(
                    "condition entries may only appear in equality constructors", *part.pos
                )
        elif not isinstance(part, (SelfType, PiType, SigmaType)):
            raise DeclSyntaxError(f"unrecognised type form {part!r}")


def _validate_pattern(decl: QITDecl, binders: dict, pat) -> None:
    ctor_names = {c.name for c in decl.element_ctors}
    names = {*binders, *ctor_names, *decl._values}
    for part in _parts(pat):
        if isinstance(part, PatName):
            if not (isinstance(part.name, int) or part.name in names):
                raise ScopeError(f"unbound name {part.name!r} in pattern", *part.pos)
        elif isinstance(part, PatCompose):
            if part.fun not in binders:
                raise ScopeError(f"unbound name {part.fun!r}", *part.pos)
            if part.perm not in binders:
                raise ScopeError(f"unbound name {part.perm!r}", *part.pos)
            tp = binders[part.perm]
            if not (isinstance(tp, ConstType) and decl.perm_set(tp.name) is not None):
                raise ScopeError(f"{part.perm!r} is not a permutation parameter", *part.pos)
        elif isinstance(part, PatApply):
            if part.head in binders:
                tp = binders[part.head]
                if not (isinstance(tp, PiType) and isinstance(tp.codomain, SelfType)):
                    raise ScopeError(
                        f"{part.head!r} cannot be applied: only branch families may be indexed",
                        *part.pos,
                    )
            elif part.head not in ctor_names:
                raise ScopeError(f"unknown constructor {part.head!r}", *part.pos)
        else:
            raise DeclSyntaxError(
                "not an equation pattern (branch tables belong to ground terms)", *part.pos
            )


# -- positivity and classification ------------------------------------------------------


def _occurs_self(tp) -> bool:
    return any(isinstance(part, SelfType) for part in _parts(tp))


def check_positivity(decl: QITDecl) -> None:
    """The declared type may never occur in a function argument position.
    Raises PositivityError at the first function type, in preorder, whose
    domain mentions it: a function type inside a domain without the
    declared type has no such domain either."""
    for ctor in decl.element_ctors + decl.equality_ctors:
        for b in ctor.telescope:
            for part in _parts(b.type):
                if isinstance(part, PiType) and _occurs_self(part.domain):
                    raise PositivityError(
                        "the declared type occurs in a function argument position", *part.pos
                    )


def classify(decl: QITDecl) -> Classification:
    """Recursive if an equality telescope mentions the declared type,
    conditional if one carries a condition entry, finitary if no constant
    type is countable."""
    recursive = any(_occurs_self(b.type) for ctor in decl.equality_ctors for b in ctor.telescope)
    conditional = any(
        isinstance(b.type, ConditionType)
        for ctor in decl.equality_ctors
        for b in ctor.telescope
    )
    finitary = not any(
        isinstance(part, ConstType) and part.name == "Nat"
        for ctor in decl.element_ctors + decl.equality_ctors
        for b in ctor.telescope
        for part in _parts(b.type)
    )
    return Classification(recursive, conditional, finitary)


# -- elaboration -----------------------------------------------------------------------


class _Slot(_Syntax):
    """Classified telescope entry."""

    def __init__(self, binder: str, kind: str, values: tuple = (), pos: SrcPos = SrcPos()):
        object.__setattr__(self, "binder", binder)
        object.__setattr__(self, "kind", kind)  # "param" | "self" | "selffun" | "selfomega"
        # parameter values, or finite domain index values
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pos", pos)

    @property
    def arity(self) -> Arity:
        """A recursive slot's branch family: one branch, one per finite
        index value, or countably many."""
        if self.kind == "selfomega":
            return OMEGA
        return Arity(len(self.values) if self.kind == "selffun" else 1)


def _classify_entry(decl: QITDecl, b: Binder) -> _Slot:
    tp = b.type
    if isinstance(tp, ConstType):
        vs = decl.enum(tp.name)
        if vs is not None:
            return _Slot(b.name, "param", tuple(vs), b.pos)
        ts = decl.perm_set(tp.name)
        if ts is not None:
            return _Slot(b.name, "param", tuple(ts), b.pos)
        raise NonFinitaryConstantError(
            f"constant type {tp.name!r} has no finite instantiation", *tp.pos
        )
    if isinstance(tp, SelfType):
        return _Slot(b.name, "self", (), b.pos)
    if isinstance(tp, PiType):
        domains = []
        cod = tp
        while isinstance(cod, PiType):
            domains.append(cod.domain)
            cod = cod.codomain
        if not isinstance(cod, SelfType):
            raise UnsupportedSchemeError("function entries must land in the declared type", *tp.pos)
        if any(isinstance(d, ConstType) and d.name == "Nat" for d in domains):
            if len(domains) != 1:
                raise UnsupportedSchemeError(
                    "countable branching cannot mix with other domains", *tp.pos
                )
            return _Slot(b.name, "selfomega", (), b.pos)
        value_lists = []
        for d in domains:
            if not isinstance(d, ConstType) or decl.enum(d.name) is None:
                raise UnsupportedSchemeError(
                    "branch domains must be declared finite sets or Nat", *tp.pos
                )
            value_lists.append(decl.enum(d.name))
        values = tuple(itertools.product(*value_lists))
        return _Slot(b.name, "selffun", values, b.pos)
    if isinstance(tp, SigmaType):
        raise UnsupportedSchemeError(
            "pair entries are not elaborated; curry them into separate binders", *tp.pos
        )
    raise UnsupportedSchemeError(f"cannot elaborate entry {tp!r}", *b.pos)


def _value_repr(v: Any) -> str:
    if isinstance(v, tuple):  # permutation table
        return perm_repr(v)
    return str(v)


def perm_repr(table: PermTable) -> str:
    return "{" + ",".join(f"{i}->{j}" for i, j in table) + "}"


def _op_name(ctor: str, combo: tuple) -> str:
    if not combo:
        return ctor
    return f"{ctor}({','.join(_value_repr(v) for v in combo)})"


def _ctor_shapes(decl: QITDecl) -> dict[str, tuple[tuple[_Slot, ...], Arity, tuple, bool]]:
    """Each element constructor's classified telescope, operator arity,
    operator names, one per choice of parameters in ``itertools.product``
    order, and whether a finite branch family makes ``_slot_args`` pair
    its slots with their arguments (else the n-th argument fills the n-th
    slot).  Read it as ``decl._shapes``, which is built once."""
    shapes: dict[str, tuple[tuple[_Slot, ...], Arity, tuple, bool]] = {}
    for ctor in decl.element_ctors:
        slots = tuple(_classify_entry(decl, b) for b in ctor.telescope)
        self_like = [s for s in slots if s.kind != "param"]
        if any(s.arity.is_omega for s in self_like):
            if len(self_like) != 1:
                raise UnsupportedSchemeError(
                    "a countably branching argument must be the only recursive argument", *ctor.pos
                )
            arity = OMEGA
        else:
            arity = Arity(sum(s.arity.finite for s in self_like))
        params = [s.values for s in slots if s.kind == "param"]
        names = tuple(_op_name(ctor.name, combo) for combo in itertools.product(*params))
        paired = any(s.kind == "selffun" for s in slots)
        shapes[ctor.name] = (slots, arity, names, paired)
    return shapes


def elaborate(decl: QITDecl, *, probe: int = 2) -> tuple[Signature, EquationSystem]:
    """Compile a declaration to its signature and equation system.

    Operators are element constructors at each choice of parameters, with
    parameter entries stripped and the remaining entries giving the arity.
    Equations are equality constructors at each choice of parameters, with
    the self-typed binders becoming the equation's variables (countable
    families truncated to the probed indices plus one default variable).
    """
    check_positivity(decl)
    cls = classify(decl)
    if cls.conditional:
        raise ConditionalUnsupportedError(
            "conditional equality constructors cannot be compiled to equations"
        )

    shapes = decl._shapes
    sig = Signature(tuple((n, arity) for _, arity, names, _ in shapes.values() for n in names))

    eqs = []
    for ctor in decl.equality_ctors:
        slots = tuple(_classify_entry(decl, b) for b in ctor.telescope)
        var_blocks: dict[str, tuple[int, _Slot]] = {}
        offset = 0
        for s in slots:
            if s.kind != "param":
                var_blocks[s.binder] = (offset, s)
                offset += s.arity.width(probe)
        var_count = offset
        params = [s for s in slots if s.kind == "param"]
        for combo in itertools.product(*(s.values for s in params)):
            env = dict(zip((s.binder for s in params), combo))
            name = _op_name(ctor.name, combo)
            lhs = _pattern_term(decl, shapes, env, var_blocks, ctor.lhs, probe)
            rhs = _pattern_term(decl, shapes, env, var_blocks, ctor.rhs, probe)
            eqs.append((name, var_count, lhs, rhs))
    return sig, make_system(sig, eqs, probe=probe)


def _is_value(decl: QITDecl, name) -> bool:
    """A numeral or a declared enumeration value."""
    return isinstance(name, int) or name in decl._values


def _resolve_value(decl: QITDecl, env: dict, pat) -> Any:
    """A pattern argument standing for a parameter value: a parameter
    binder or a value (``_is_value``, inlined on this per-argument path)."""
    if pat.__class__ is PatName:
        name = pat.name
        if name in env:
            return env[name]
        if isinstance(name, int) or name in decl._values:
            return name
    raise ScopeError("expected a parameter value here", *pat.pos)


def _block(var_blocks: dict, pat, kind: str):
    """The variable block of a bare binder name, if it has this kind."""
    if isinstance(pat, PatName) and pat.name in var_blocks:
        block = var_blocks[pat.name]
        if block[1].kind == kind:
            return block
    return None


def _pattern_term(decl, shapes, env, var_blocks, pat, probe: int) -> Term:
    """Translate a pattern into a term.  ``var_blocks`` maps the names that
    stand for variables (an equation's recursive binders, a ground term's
    generators) to their first variable and slot; ``env`` gives the
    parameter binders' values."""
    cls = pat.__class__
    if cls is PatApply:
        head, args = pat.head, pat.args
    else:
        head, args = (pat.name if cls is PatName else None), ()
    if var_blocks and head in var_blocks:
        offset, slot = var_blocks[head]
        if cls is PatName:
            if slot.kind != "self":
                raise ScopeError(f"branch family {head!r} is not a term by itself", *pat.pos)
            return Var(offset)
        if slot.kind == "selffun":
            key = tuple(_resolve_value(decl, env, a) for a in args)
            if key not in slot.values:
                raise ScopeError(f"{head!r} has no branch at {key!r}", *pat.pos)
            return Var(offset + slot.values.index(key))
        if slot.kind == "selfomega":
            if len(args) != 1:
                raise ScopeError(f"{head!r} takes one index", *pat.pos)
            i = _resolve_value(decl, env, args[0])
            if not isinstance(i, int) or i < 0 or i >= probe:
                raise ScopeError(
                    f"index {i!r} is outside the probed range 0..{probe - 1}", *pat.pos
                )
            return Var(offset + i)
    plan = shapes.get(head)
    if plan is not None:
        slots, arity, names, paired = plan
        index = 0  # of the choice of parameters among the names
        branches: list[Term] = []
        omega_branch = None
        if paired:
            pairs, count = _slot_args(args, slots, var_blocks)
        else:  # the n-th argument fills the n-th slot
            pairs, count = zip(slots, args), len(slots)
        for slot, arg in pairs:
            kind = slot.kind
            if kind == "self":  # one frame per level of a deep term
                branches.append(_pattern_term(decl, shapes, env, var_blocks, arg, probe))
            elif kind == "param":
                try:
                    at = slot.values.index(_resolve_value(decl, env, arg))
                except ValueError:
                    raise ScopeError(
                        f"{head!r} takes one of {list(slot.values)} here", *pat.pos
                    ) from None
                index = index * len(slot.values) + at
            elif kind == "selfomega":
                omega_branch = _omega_branches(decl, shapes, env, var_blocks, arg, probe)
            elif arg.__class__ is tuple:  # a finite family, one term per branch
                for a in arg:
                    branches.append(_pattern_term(decl, shapes, env, var_blocks, a, probe))
            else:  # a finite family binder used whole
                offset, family = var_blocks[arg.name]
                if len(family.values) != len(slot.values):
                    raise ScopeError("expected a branch family of matching shape", *arg.pos)
                branches.extend(var_block(family.arity, offset, probe))
        if count != len(args):  # raised after the errors inside the arguments
            raise DeclSyntaxError(f"{head!r} expects {count} arguments, got {len(args)}", *pat.pos)
        if arity.is_omega:
            return Node(names[index], omega_branch)
        return Node(names[index], tuple(branches))
    if cls is PatTable or (cls is PatName and _is_value(decl, head)):
        raise DeclSyntaxError("expected a term here", *pat.pos)
    what = "pattern" if head is None else repr(head)
    raise ScopeError(f"{what} is not a term of the declared type", *pat.pos)


def _slot_args(args: tuple, slots: tuple[_Slot, ...], var_blocks: dict) -> tuple[list, int]:
    """Pair each telescope slot with its argument: a finite branch family
    takes one family binder or a tuple of one term per branch, any other
    slot one argument.  Slots past the last argument are left out.  Also
    gives the number of arguments the slots take."""
    pairs = []
    i = 0
    for slot in slots:
        first = args[i] if i < len(args) else None
        if slot.kind == "selffun" and not _block(var_blocks, first, "selffun"):
            width = len(slot.values)
            if i + width <= len(args):
                pairs.append((slot, args[i : i + width]))
        else:
            width = 1
            if first is not None:
                pairs.append((slot, first))
        i += width
    return pairs, i


def _omega_branches(decl, shapes, env, var_blocks, arg, probe: int):
    """A countable branch map: a family binder used whole or composed with
    a permutation parameter, a table, or one term at every index."""
    block = _block(var_blocks, arg, "selfomega")
    table: dict = {}  # a family used whole is composed with the identity
    if isinstance(arg, PatCompose):
        if arg.fun not in var_blocks or arg.perm not in env:
            raise ScopeError(
                "composition needs a branch family and a permutation parameter", *arg.pos
            )
        block = var_blocks[arg.fun]
        if block[1].kind != "selfomega":
            raise ScopeError(f"{arg.fun!r} is not a countable branch family", *arg.pos)
        table = dict(env[arg.perm])
        if any(i >= probe or j >= probe for i, j in table.items()):
            raise ScopeError("permutation support must lie inside the probed range", *arg.pos)
    if block is not None:
        return var_block(OMEGA, block[0], probe, table)
    if isinstance(arg, PatTable):
        if any(i >= probe for i, _ in arg.entries):
            raise DeclSyntaxError(
                f"table entries must stay below the probe depth {probe}", *arg.pos
            )
        entries = [
            (i, _pattern_term(decl, shapes, env, var_blocks, t, probe))
            for i, t in arg.entries
        ]
        default = _pattern_term(decl, shapes, env, var_blocks, arg.default, probe)
        return omega_table(entries, default)
    return omega_table([], _pattern_term(decl, shapes, env, var_blocks, arg, probe))


# -- ground terms in the surface syntax ----------------------------------------------------


def parse_ground_term(
    text: str,
    decl: QITDecl,
    *,
    probe: int = 2,
    generators: Iterable[str] = (),
) -> Term:
    """Parse a closed term written with the declaration's constructors.

    A ground term is an equation endpoint without binders.  Parameter
    arguments are written inline (``cons(a, nil)``), finite branch
    families are flattened into consecutive arguments, and countable
    branch families take one argument: either a term (the constant family)
    or ``{default; i -> term, ...}``.  ``x :: t`` and ``[]`` stand for
    ``cons(x, t)`` and ``nil``.  Generators are leaves."""
    shapes = decl._shapes
    cur = _Cursor(_lex(text))
    cur.skip_ends()
    pat = _parse_pattern(cur)
    if not cur.done():
        t = cur.peek()
        raise DeclSyntaxError(f"unexpected {t.text!r} after the term", t.line, t.col)
    # a generator is a block of one variable, named by the generator itself
    var_blocks = {g: (g, _Slot(g, "self")) for g in generators}
    return _pattern_term(decl, shapes, {}, var_blocks, pat, probe)


# -- pretty printer -----------------------------------------------------------------------


def pretty_print(decl: QITDecl) -> str:
    """Canonical source text; parsing it back gives an equal declaration."""
    header = f"data {decl.name} : Set"
    withs = []
    for n, vs in decl.enums:
        withs.append(f"{n} = {{{', '.join(str(v) for v in vs)}}}")
    for n, ts in decl.perms:
        withs.append(f"{n} = perms {{{', '.join(perm_repr(t) for t in ts)}}}")
    if withs:
        header += " with " + ", ".join(withs)
    lines = [header + " where"]
    for ctor in decl.element_ctors:
        tel = _print_telescope(ctor.telescope, decl)
        arrow = f"{tel} -> " if tel else ""
        lines.append(f"  {ctor.name} : {arrow}{decl.name}")
    for ctor in decl.equality_ctors:
        tel = _print_telescope(ctor.telescope, decl)
        arrow = f"{tel} -> " if tel else ""
        lines.append(
            f"  {ctor.name} : {arrow}{_print_pattern(ctor.lhs)} == {_print_pattern(ctor.rhs)}"
        )
    return "\n".join(lines) + "\n"


def _print_telescope(telescope: tuple, decl: QITDecl) -> str:
    return " ".join(f"({b.name} : {_print_type(b.type, decl)})" for b in telescope)


def _print_type(tp, decl: QITDecl) -> str:
    if isinstance(tp, ConstType):
        return tp.name
    if isinstance(tp, SelfType):
        return decl.name
    if isinstance(tp, PiType):
        dom = _print_type(tp.domain, decl)
        if isinstance(tp.domain, (PiType, SigmaType)):
            dom = f"({dom})"
        return f"{dom} -> {_print_type(tp.codomain, decl)}"
    if isinstance(tp, SigmaType):
        first = _print_type(tp.first, decl)
        if isinstance(tp.first, (PiType, SigmaType)):
            first = f"({first})"
        return f"{first} * {_print_type(tp.second, decl)}"
    if isinstance(tp, ConditionType):
        return f"{_print_pattern(tp.lhs)} == {_print_pattern(tp.rhs)}"
    raise DeclSyntaxError(f"unprintable type {tp!r}")


def _print_pattern(pat) -> str:
    if isinstance(pat, PatName):
        return str(pat.name)
    if isinstance(pat, PatCompose):
        return f"{pat.fun} . {pat.perm}"
    if isinstance(pat, PatApply):
        return f"{pat.head}({', '.join(_print_pattern(a) for a in pat.args)})"
    raise DeclSyntaxError(f"unprintable pattern {pat!r}")
