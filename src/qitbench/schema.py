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
from dataclasses import dataclass, field
from typing import Any, Iterable

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
from .terms import OMEGA, Arity, Node, Signature, Term, Var, omega_table


# -- source positions and AST ---------------------------------------------------


@dataclass(frozen=True)
class SrcPos:
    line: int = 0
    col: int = 0


def _pos_field():
    return field(default=SrcPos(), compare=False)


@dataclass(frozen=True)
class ConstType:
    name: str
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class SelfType:
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class PiType:
    domain: Any
    codomain: Any
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class SigmaType:
    first: Any
    second: Any
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class ConditionType:
    lhs: Any
    rhs: Any
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class PatName:
    name: Any  # identifier or integer literal
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class PatApply:
    head: str
    args: tuple
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class PatCompose:
    fun: str
    perm: str
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class PatTable:
    """A countable branch map ``{default; i -> t, ...}``."""

    default: Any
    entries: tuple  # ((index, pattern), ...)
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class Binder:
    name: str
    type: Any
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class ElementCtor:
    name: str
    telescope: tuple
    pos: SrcPos = _pos_field()


@dataclass(frozen=True)
class EqualityCtor:
    name: str
    telescope: tuple
    lhs: Any
    rhs: Any
    pos: SrcPos = _pos_field()


PermTable = tuple  # tuple[tuple[int, int], ...], sorted by source index


@dataclass(frozen=True)
class QITDecl:
    name: str
    enums: tuple  # ((name, (value, ...)), ...)
    perms: tuple  # ((name, (PermTable, ...)), ...)
    element_ctors: tuple
    equality_ctors: tuple

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


@dataclass(frozen=True)
class Classification:
    recursive: bool
    conditional: bool
    finitary: bool

    def to_json(self) -> dict:
        return {
            "recursive": self.recursive,
            "conditional": self.conditional,
            "finitary": self.finitary,
        }


# -- lexer -----------------------------------------------------------------------

_SYMBOLS = ("->", "==", "::", "[]", "(", ")", "{", "}", ",", ":", ";", "*", ".", "=")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "name" | "int" | "sym" | "end"
    text: str
    line: int
    col: int


def _lex(source: str) -> list[_Tok]:
    toks: list[_Tok] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
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
                    toks.append(_Tok("sym", sym, lineno, col))
                    i += len(sym)
                    break
            else:
                if ch.isdigit():
                    j = i
                    while j < len(line) and line[j].isdigit():
                        j += 1
                    toks.append(_Tok("int", line[i:j], lineno, col))
                    i = j
                elif ch.isalpha() or ch == "_":
                    j = i
                    while j < len(line) and (line[j].isalnum() or line[j] in "_'"):
                        j += 1
                    toks.append(_Tok("name", line[i:j], lineno, col))
                    i = j
                else:
                    raise DeclSyntaxError(f"stray character {ch!r}", lineno, col)
        toks.append(_Tok("end", "", lineno, len(line) + 1))
    return toks


class _Cursor:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self, ahead: int = 0) -> _Tok:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> _Tok:
        t = self.peek()
        self.i += 1
        return t

    def at_sym(self, text: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == "sym" and t.text == text

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
    return SrcPos(t.line, t.col)


# -- parser ------------------------------------------------------------------------


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
            pname = cur.expect_name("a parameter set name").text
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
        cur.skip_ends()
        if cur.done():
            break
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
            values.append(int(t.text))
        else:
            raise DeclSyntaxError("enumeration values are names or numbers", t.line, t.col)
        if cur.at_sym(","):
            cur.next()
    cur.expect_sym("}")
    if len(set(values)) != len(values):
        raise DeclSyntaxError("duplicate enumeration value", cur.peek().line, cur.peek().col)
    return tuple(values)


def _parse_perm_set(cur: _Cursor) -> tuple:
    cur.expect_sym("{")
    tables: list[PermTable] = []
    while not cur.at_sym("}"):
        tables.append(_parse_perm_table(cur))
        if cur.at_sym(","):
            cur.next()
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
        entries.append((int(a.text), int(b.text)))
        if cur.at_sym(","):
            cur.next()
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


def _parse_pattern(cur: _Cursor):
    """A pattern, where ``x :: t`` stands for ``cons(x, t)``."""
    head = _parse_pattern_atom(cur)
    if cur.at_sym("::"):
        tok = cur.next()
        return PatApply("cons", (head, _parse_pattern(cur)), _pos(tok))
    return head


def _parse_pattern_atom(cur: _Cursor):
    t = cur.next()
    if t.kind == "int":
        return PatName(int(t.text), _pos(t))
    if t.kind == "sym" and t.text == "[]":
        return PatApply("nil", (), _pos(t))
    if t.kind == "sym" and t.text == "{":
        return _parse_pattern_table(cur, t)
    if t.kind != "name":
        raise DeclSyntaxError(f"expected a pattern, found {t.text!r}", t.line, t.col)
    head = t.text
    if cur.at_sym("."):
        cur.next()
        f = cur.expect_name("a permutation parameter")
        return PatCompose(head, f.text, _pos(t))
    if cur.at_sym("("):
        cur.next()
        args: list[Any] = []
        while not cur.at_sym(")"):
            args.append(_parse_pattern(cur))
            if cur.at_sym(","):
                cur.next()
        cur.expect_sym(")")
        return PatApply(head, tuple(args), _pos(t))
    return PatName(head, _pos(t))


def _parse_pattern_table(cur: _Cursor, open_tok: _Tok) -> PatTable:
    default = _parse_pattern(cur)
    entries: list[tuple[int, Any]] = []
    if cur.at_sym(";"):
        cur.next()
        while not cur.at_sym("}"):
            i = cur.next()
            if i.kind != "int":
                raise DeclSyntaxError("table entries are indexed by numbers", i.line, i.col)
            cur.expect_sym("->")
            entries.append((int(i.text), _parse_pattern(cur)))
            if cur.at_sym(","):
                cur.next()
    cur.expect_sym("}")
    return PatTable(default, tuple(entries), _pos(open_tok))


# -- validation ----------------------------------------------------------------------


def _validate_decl(decl: QITDecl) -> None:
    set_names = {n for n, _ in decl.enums} | {n for n, _ in decl.perms}
    if len(set_names) != len(decl.enums) + len(decl.perms):
        raise DeclSyntaxError("duplicate parameter set name")
    ctor_names = set()
    for ctor in decl.element_ctors + decl.equality_ctors:
        if ctor.name in ctor_names:
            raise DuplicateConstructorError(
                f"duplicate constructor {ctor.name!r}", ctor.pos.line, ctor.pos.col
            )
        ctor_names.add(ctor.name)
    for ctor in decl.element_ctors + decl.equality_ctors:
        binder_names = set()
        is_equality = isinstance(ctor, EqualityCtor)
        for b in ctor.telescope:
            if b.name in binder_names:
                raise DuplicateBinderError(
                    f"binder {b.name!r} reused in the telescope", b.pos.line, b.pos.col
                )
            binder_names.add(b.name)
            _validate_type(decl, ctor, b.type, allow_condition=is_equality)
        if is_equality:
            binders = {b.name: b.type for b in ctor.telescope}
            _validate_pattern(decl, binders, ctor.lhs)
            _validate_pattern(decl, binders, ctor.rhs)
            for b in ctor.telescope:
                if isinstance(b.type, ConditionType):
                    _validate_pattern(decl, binders, b.type.lhs)
                    _validate_pattern(decl, binders, b.type.rhs)


def _validate_type(decl: QITDecl, ctor, tp, *, allow_condition: bool) -> None:
    if isinstance(tp, ConstType):
        if tp.name == "Nat":
            return
        if decl.enum(tp.name) is None and decl.perm_set(tp.name) is None:
            raise ScopeError(
                f"unknown type {tp.name!r} (declare it in the with-clause)",
                tp.pos.line,
                tp.pos.col,
            )
        return
    if isinstance(tp, SelfType):
        return
    if isinstance(tp, PiType):
        _validate_type(decl, ctor, tp.domain, allow_condition=False)
        _validate_type(decl, ctor, tp.codomain, allow_condition=False)
        return
    if isinstance(tp, SigmaType):
        _validate_type(decl, ctor, tp.first, allow_condition=False)
        _validate_type(decl, ctor, tp.second, allow_condition=False)
        return
    if isinstance(tp, ConditionType):
        if not allow_condition:
            raise DeclSyntaxError(
                "condition entries may only appear in equality constructors",
                tp.pos.line,
                tp.pos.col,
            )
        return
    raise DeclSyntaxError(f"unrecognised type form {tp!r}")


def _validate_pattern(decl: QITDecl, binders: dict, pat) -> None:
    ctor_names = {c.name for c in decl.element_ctors}
    enum_values = {v for _, vs in decl.enums for v in vs}
    if isinstance(pat, PatName):
        if isinstance(pat.name, int):
            return
        if pat.name in binders or pat.name in ctor_names or pat.name in enum_values:
            return
        raise ScopeError(f"unbound name {pat.name!r} in pattern", pat.pos.line, pat.pos.col)
    if isinstance(pat, PatCompose):
        if pat.fun not in binders:
            raise ScopeError(f"unbound name {pat.fun!r}", pat.pos.line, pat.pos.col)
        if pat.perm not in binders:
            raise ScopeError(f"unbound name {pat.perm!r}", pat.pos.line, pat.pos.col)
        return
    if isinstance(pat, PatApply):
        if pat.head in binders:
            tp = binders[pat.head]
            if not (isinstance(tp, PiType) and isinstance(tp.codomain, SelfType)):
                raise ScopeError(
                    f"{pat.head!r} cannot be applied: only branch families may be indexed",
                    pat.pos.line,
                    pat.pos.col,
                )
        elif pat.head not in ctor_names:
            raise ScopeError(
                f"unknown constructor {pat.head!r}", pat.pos.line, pat.pos.col
            )
        for a in pat.args:
            _validate_pattern(decl, binders, a)
        return
    raise DeclSyntaxError(
        "not an equation pattern (branch tables belong to ground terms)",
        pat.pos.line,
        pat.pos.col,
    )


# -- positivity and classification ------------------------------------------------------


def _occurs_self(tp) -> bool:
    if isinstance(tp, SelfType):
        return True
    if isinstance(tp, PiType):
        return _occurs_self(tp.domain) or _occurs_self(tp.codomain)
    if isinstance(tp, SigmaType):
        return _occurs_self(tp.first) or _occurs_self(tp.second)
    return False


def check_positivity(decl: QITDecl) -> None:
    """The declared type may never occur in a function argument position.
    Raises PositivityError at the offending domain."""
    for ctor in decl.element_ctors + decl.equality_ctors:
        for b in ctor.telescope:
            _check_positive(b.type)


def _check_positive(tp) -> None:
    if isinstance(tp, PiType):
        if _occurs_self(tp.domain):
            raise PositivityError(
                "the declared type occurs in a function argument position",
                tp.pos.line,
                tp.pos.col,
            )
        _check_positive(tp.codomain)
    elif isinstance(tp, SigmaType):
        _check_positive(tp.first)
        _check_positive(tp.second)


def classify(decl: QITDecl) -> Classification:
    """Recursive if an equality telescope mentions the declared type,
    conditional if one carries a condition entry, finitary if no constant
    type is countable."""
    recursive = any(
        _occurs_self(b.type)
        for ctor in decl.equality_ctors
        for b in ctor.telescope
        if not isinstance(b.type, ConditionType)
    )
    conditional = any(
        isinstance(b.type, ConditionType)
        for ctor in decl.equality_ctors
        for b in ctor.telescope
    )
    finitary = not any(
        _mentions_nat(b.type)
        for ctor in decl.element_ctors + decl.equality_ctors
        for b in ctor.telescope
    )
    return Classification(recursive, conditional, finitary)


def _mentions_nat(tp) -> bool:
    if isinstance(tp, ConstType):
        return tp.name == "Nat"
    if isinstance(tp, PiType):
        return _mentions_nat(tp.domain) or _mentions_nat(tp.codomain)
    if isinstance(tp, SigmaType):
        return _mentions_nat(tp.first) or _mentions_nat(tp.second)
    return False


# -- elaboration -----------------------------------------------------------------------


@dataclass(frozen=True)
class _Slot:
    """Classified telescope entry."""

    binder: str
    kind: str  # "param" | "self" | "selffun" | "selfomega"
    values: tuple = ()  # parameter values, or finite domain index values
    pos: SrcPos = _pos_field()


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
            f"constant type {tp.name!r} has no finite instantiation",
            tp.pos.line,
            tp.pos.col,
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
            raise UnsupportedSchemeError(
                "function entries must land in the declared type",
                tp.pos.line,
                tp.pos.col,
            )
        if any(isinstance(d, ConstType) and d.name == "Nat" for d in domains):
            if len(domains) != 1:
                raise UnsupportedSchemeError(
                    "countable branching cannot mix with other domains",
                    tp.pos.line,
                    tp.pos.col,
                )
            return _Slot(b.name, "selfomega", (), b.pos)
        value_lists = []
        for d in domains:
            if not isinstance(d, ConstType) or decl.enum(d.name) is None:
                raise UnsupportedSchemeError(
                    "branch domains must be declared finite sets or Nat",
                    tp.pos.line,
                    tp.pos.col,
                )
            value_lists.append(decl.enum(d.name))
        values = tuple(itertools.product(*value_lists))
        return _Slot(b.name, "selffun", values, b.pos)
    if isinstance(tp, SigmaType):
        raise UnsupportedSchemeError(
            "pair entries are not elaborated; curry them into separate binders",
            tp.pos.line,
            tp.pos.col,
        )
    raise UnsupportedSchemeError(f"cannot elaborate entry {tp!r}", b.pos.line, b.pos.col)


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


def _ctor_shapes(decl: QITDecl) -> dict[str, tuple[tuple[_Slot, ...], Arity]]:
    """Each element constructor's classified telescope and operator arity."""
    shapes: dict[str, tuple[tuple[_Slot, ...], Arity]] = {}
    for ctor in decl.element_ctors:
        slots = tuple(_classify_entry(decl, b) for b in ctor.telescope)
        omega_slots = [s for s in slots if s.kind == "selfomega"]
        self_like = [s for s in slots if s.kind in ("self", "selffun", "selfomega")]
        if omega_slots:
            if len(self_like) != 1:
                raise UnsupportedSchemeError(
                    "a countably branching argument must be the only recursive argument",
                    ctor.pos.line,
                    ctor.pos.col,
                )
            arity = OMEGA
        else:
            width = 0
            for s in self_like:
                width += 1 if s.kind == "self" else len(s.values)
            arity = Arity(width)
        shapes[ctor.name] = (slots, arity)
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

    shapes = _ctor_shapes(decl)
    ops: list[tuple[str, Arity]] = []
    for name, (slots, arity) in shapes.items():
        params = [s.values for s in slots if s.kind == "param"]
        for combo in itertools.product(*params):
            ops.append((_op_name(name, combo), arity))
    sig = Signature(tuple(ops))

    eqs = []
    for ctor in decl.equality_ctors:
        slots = tuple(_classify_entry(decl, b) for b in ctor.telescope)
        var_blocks: dict[str, tuple[int, _Slot]] = {}
        offset = 0
        for s in slots:
            if s.kind == "self":
                var_blocks[s.binder] = (offset, s)
                offset += 1
            elif s.kind == "selffun":
                var_blocks[s.binder] = (offset, s)
                offset += len(s.values)
            elif s.kind == "selfomega":
                var_blocks[s.binder] = (offset, s)
                offset += probe + 1
        var_count = offset
        params = [s for s in slots if s.kind == "param"]
        for combo in itertools.product(*(s.values for s in params)):
            env = dict(zip((s.binder for s in params), combo))
            name = _op_name(ctor.name, combo)
            lhs = _pattern_term(decl, shapes, env, var_blocks, ctor.lhs, probe)
            rhs = _pattern_term(decl, shapes, env, var_blocks, ctor.rhs, probe)
            eqs.append((name, var_count, lhs, rhs))
    return sig, make_system(sig, eqs, probe=probe)


def _is_value(decl: QITDecl, pat) -> bool:
    """A numeral or a declared enumeration value."""
    return isinstance(pat, PatName) and (
        isinstance(pat.name, int) or any(pat.name in vs for _, vs in decl.enums)
    )


def _resolve_value(decl: QITDecl, env: dict, pat) -> Any:
    """A pattern argument standing for a parameter value."""
    if isinstance(pat, PatName):
        if pat.name in env:
            return env[pat.name]
        if _is_value(decl, pat):
            return pat.name
    raise ScopeError("expected a parameter value here", pat.pos.line, pat.pos.col)


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
    if isinstance(pat, PatName) and pat.name in var_blocks:
        offset, slot = var_blocks[pat.name]
        if slot.kind != "self":
            raise ScopeError(
                f"branch family {pat.name!r} is not a term by itself",
                pat.pos.line,
                pat.pos.col,
            )
        return Var(offset)
    head = pat.head if isinstance(pat, PatApply) else (
        pat.name if isinstance(pat, PatName) else None
    )
    if isinstance(pat, PatApply) and head in var_blocks:
        offset, slot = var_blocks[head]
        if slot.kind == "selffun":
            key = tuple(_resolve_value(decl, env, a) for a in pat.args)
            if key not in slot.values:
                raise ScopeError(
                    f"{head!r} has no branch at {key!r}", pat.pos.line, pat.pos.col
                )
            return Var(offset + slot.values.index(key))
        if slot.kind == "selfomega":
            if len(pat.args) != 1:
                raise ScopeError(
                    f"{head!r} takes one index", pat.pos.line, pat.pos.col
                )
            i = _resolve_value(decl, env, pat.args[0])
            if not isinstance(i, int) or i < 0 or i >= probe:
                raise ScopeError(
                    f"index {i!r} is outside the probed range 0..{probe - 1}",
                    pat.pos.line,
                    pat.pos.col,
                )
            return Var(offset + i)
    if head in shapes:
        slots, arity = shapes[head]
        combo = []
        branches: list[Term] = []
        omega_branch = None
        for slot, args in _slot_args(pat, head, slots, var_blocks):
            if slot.kind == "param":
                value = _resolve_value(decl, env, args[0])
                if value not in slot.values:
                    raise ScopeError(
                        f"{head!r} takes one of {list(slot.values)} here", pat.pos.line, pat.pos.col
                    )
                combo.append(value)
            elif slot.kind == "selfomega":
                omega_branch = _omega_branches(decl, shapes, env, var_blocks, args[0], probe)
            elif slot.kind == "selffun" and (block := _block(var_blocks, args[0], "selffun")):
                offset, family = block
                if len(family.values) != len(slot.values):
                    pos = args[0].pos
                    raise ScopeError("expected a branch family of matching shape", pos.line, pos.col)
                branches.extend(Var(offset + i) for i in range(len(slot.values)))
            else:
                branches.extend(_pattern_term(decl, shapes, env, var_blocks, a, probe) for a in args)
        opname = _op_name(head, tuple(combo))
        if arity.is_omega:
            return Node(opname, omega_branch)
        return Node(opname, tuple(branches))
    if isinstance(pat, PatTable) or _is_value(decl, pat):
        raise DeclSyntaxError("expected a term here", pat.pos.line, pat.pos.col)
    what = "pattern" if head is None else repr(head)
    raise ScopeError(f"{what} is not a term of the declared type", pat.pos.line, pat.pos.col)


def _slot_args(pat, head: str, slots: tuple[_Slot, ...], var_blocks: dict):
    """Pair each telescope slot with its arguments: a finite branch family
    takes one family binder or one term per branch, any other slot one
    argument.  A miscount is raised last, after errors inside arguments."""
    args = pat.args if isinstance(pat, PatApply) else ()
    i = 0
    for slot in slots:
        first = args[i] if i < len(args) else None
        flattened = slot.kind == "selffun" and not _block(var_blocks, first, "selffun")
        width = len(slot.values) if flattened else 1
        if i + width <= len(args):
            yield slot, args[i : i + width]
        i += width
    if i != len(args):
        raise DeclSyntaxError(
            f"{head!r} expects {i} arguments, got {len(args)}", pat.pos.line, pat.pos.col
        )


def _omega_branches(decl, shapes, env, var_blocks, arg, probe: int):
    """A countable branch map: a family binder used whole or composed with
    a permutation parameter, a table, or one term at every index."""
    block = _block(var_blocks, arg, "selfomega")
    table: dict = {}  # a family used whole is composed with the identity
    if isinstance(arg, PatCompose):
        if arg.fun not in var_blocks or arg.perm not in env:
            raise ScopeError(
                "composition needs a branch family and a permutation parameter",
                arg.pos.line,
                arg.pos.col,
            )
        block = var_blocks[arg.fun]
        if block[1].kind != "selfomega":
            raise ScopeError(
                f"{arg.fun!r} is not a countable branch family", arg.pos.line, arg.pos.col
            )
        table = dict(env[arg.perm])
        if any(i >= probe or j >= probe for i, j in table.items()):
            raise ScopeError(
                "permutation support must lie inside the probed range",
                arg.pos.line,
                arg.pos.col,
            )
    if block is not None:
        offset = block[0]
        return omega_table(
            [(i, Var(offset + table.get(i, i))) for i in range(probe)],
            Var(offset + probe),
        )
    if isinstance(arg, PatTable):
        if any(i >= probe for i, _ in arg.entries):
            raise DeclSyntaxError(
                f"table entries must stay below the probe depth {probe}",
                arg.pos.line,
                arg.pos.col,
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
    shapes = _ctor_shapes(decl)
    cur = _Cursor(_lex(text))
    cur.skip_ends()
    pat = _parse_pattern(cur)
    cur.skip_ends()
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
