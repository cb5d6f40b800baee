"""The record contract: every immutable record of the package is equal to,
hashed as and written by its fields, and refuses assignment."""

from __future__ import annotations

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qitbench
import qitbench.cli  # noqa: F401  (every module that declares a record)
from qitbench.engine import ClassId, ENode, GenLeaf, Justification
from qitbench.errors import DuplicateNameError
from qitbench.initiality import RecTarget
from qitbench.schema import PatApply, PatName, QITDecl, SrcPos, parse_decl
from qitbench.terms import Node, OmegaTable, Record, Var, signature


def _records(cls=Record):
    for sub in cls.__subclasses__():
        if "__init__" in vars(sub):
            yield sub
        yield from _records(sub)


RECORDS = sorted(_records(), key=lambda c: (c.__module__, c.__qualname__))
# syntax nodes carry a source position that equality and hashing ignore
SYNTAX = {c for c in RECORDS if c.__module__ == "qitbench.schema" and "pos" in c._fields}


def _params(cls):
    return list(inspect.signature(cls.__init__).parameters.values())[1:]


def _args(cls, k=0):
    """Distinct values for the fields, in order; each an operator list, so
    that ``Signature`` can read its own."""
    return tuple(((f"v{i + k}", i + k),) for i in range(len(_params(cls))))


def _compared(cls):
    return [n for n in cls._fields if not (cls in SYNTAX and n == "pos")]


by_name = pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)


def test_every_record_class_is_found():
    assert len(RECORDS) == 41
    assert len(SYNTAX) == 13
    assert all(c._fields == tuple(p.name for p in _params(c)) for c in RECORDS)


@by_name
def test_a_record_equals_only_records_of_its_class(cls):
    r = cls(*_args(cls))
    assert r == cls(*_args(cls)) and not r != cls(*_args(cls))
    if _compared(cls):
        assert r != cls(*_args(cls, 1))
    for other in RECORDS:
        if other is not cls and len(_params(other)) == len(_params(cls)):
            assert r != other(*_args(cls)) and not r == other(*_args(cls))
    assert r != _args(cls) and r != None  # noqa: E711


@by_name
def test_a_record_hashes_as_the_tuple_of_its_compared_fields(cls):
    r = cls(*_args(cls))
    assert hash(r) == hash(tuple(getattr(r, n) for n in _compared(cls)))


@by_name
def test_repr_writes_every_field_by_name(cls):
    r = cls(*_args(cls))
    fields = ", ".join(f"{p.name}={v!r}" for p, v in zip(_params(cls), _args(cls)))
    assert repr(r) == f"{cls.__qualname__}({fields})"


def test_pinned_reprs():
    assert repr(ClassId(3)) == "ClassId(index=3)"
    assert repr(Node("f", (Var("x"), Var(0)))) == (
        "Node(op='f', branches=(Var(name='x'), Var(name=0)))"
    )
    assert repr(OmegaTable(((0, Var(1)),), Var(2))) == (
        "OmegaTable(entries=((0, Var(name=1)),), default=Var(name=2))"
    )
    assert repr(Justification("sqeq", "swap(a,b)", (4, 5))) == (
        "Justification(kind='sqeq', equation='swap(a,b)', env=(4, 5))"
    )
    assert repr(Justification("cong")) == "Justification(kind='cong', equation=None, env=None)"
    assert repr(PatApply("cons", (PatName("x", SrcPos(2, 9)),), SrcPos(2, 4))) == (
        "PatApply(head='cons', args=(PatName(name='x', pos=SrcPos(line=2, col=9)),), "
        "pos=SrcPos(line=2, col=4))"
    )


@pytest.mark.parametrize(
    "cls", sorted(SYNTAX, key=lambda c: c.__qualname__), ids=lambda c: c.__qualname__
)
def test_syntax_nodes_ignore_their_position_in_equality_and_hashing(cls):
    here = cls(*_args(cls)[:-1], pos=SrcPos(1, 1))
    there = cls(*_args(cls)[:-1], pos=SrcPos(7, 3))
    assert here == there and hash(here) == hash(there)
    assert repr(here) != repr(there)
    assert cls(*_args(cls)[:-1]).pos == SrcPos()


@by_name
def test_assignment_and_deletion_raise(cls):
    r = cls(*_args(cls))
    for name in (*cls._fields, "fresh"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert tuple(getattr(r, n) for n in cls._fields) == _args(cls)


@by_name
def test_keywords_and_defaults(cls):
    values = dict(zip(cls._fields, _args(cls)))
    assert repr(cls(**values)) == repr(cls(*_args(cls)))
    required = [p.name for p in _params(cls) if p.default is p.empty]
    r = cls(**{n: values[n] for n in required})
    for p in _params(cls):
        assert getattr(r, p.name) == (values[p.name] if p.default is p.empty else p.default)


@by_name
def test_a_missing_unknown_or_repeated_argument_is_a_type_error(cls):
    args = _args(cls)
    if any(p.default is p.empty for p in _params(cls)):
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    if args:
        with pytest.raises(TypeError):
            cls(*args, **{cls._fields[0]: args[0]})


@by_name
def test_copies_and_pickles_equal_the_record(cls):
    r = cls(*_args(cls))
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is cls and repr(twin) == repr(r) and twin == r


def test_a_record_keeps_what_its_constructor_adds_beside_the_fields():
    sig = signature([("nil", 0), ("cons", 1)])
    assert sig.arity("cons").finite == 1 and "_by_name" not in repr(sig)
    with pytest.raises(DuplicateNameError):
        signature([("nil", 0), ("nil", 1)])
    target = RecTarget(*_args(RecTarget))
    assert target.passed_table == [] and "passed_table" not in repr(target)
    other = RecTarget(*_args(RecTarget))
    other.passed_table.append("table")
    assert target == other and hash(target) == hash(other)
    other.cells.append(None)
    assert target.cells == [] and "cells" not in repr(other)
    assert target == other and hash(target) == hash(other)
    with pytest.raises(TypeError):
        RecTarget(*_args(RecTarget), passed_table=[])


def test_declarations_keep_a_dict_and_payloads_keep_slots(fixtures):
    decl = parse_decl((fixtures / "bag.qit").read_text())
    assert isinstance(decl, QITDecl) and decl._values
    assert "_values" in vars(decl) and "_values" not in repr(decl)
    for payload in (GenLeaf("g"), ENode("f", (0,))):
        assert not hasattr(payload, "__dict__")
    assert GenLeaf.__slots__ == ("name",) and ENode.__slots__ == ("op", "branches")


def test_importing_the_cli_generates_no_dataclass_code():
    # records are plain classes: nothing is generated, so ``dataclasses``
    # (and what it imports) stays unloaded; ``-S`` keeps site hooks out
    code = "import sys, qitbench.cli; print(sorted({'dataclasses'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(qitbench.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
