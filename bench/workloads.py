"""The benchmark's workloads and the references that check their answers.

Each workload drives the program's public API from outside: a set-up
(the work a user pays once: import, parse and elaborate or build the
encoding, ``new_qw``, the recursion target), then passes of fixed work,
each ending in a verdict that is checked, untimed, against a reference
that does not go through the program.  Why each workload is in the set,
and which candidates were left out, is written down in ``README.md``.

Traced, the calls into each layer are wrapped in spans named
``<module>.<function>``; untraced, the same code runs against a tracer
that records nothing.  ``enumerate_step`` is the one place where the two
differ: untraced it calls ``enumerate_classes``, traced it makes the
public calls ``enumerate_classes`` is made of, in the same order.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

clock = time.perf_counter

# The text of tests/fixtures/bag.qit with the element set as a parameter.
# It is kept here so that an edit to a test fixture cannot change the load.
BAG_DECL = """\
# finite multisets: lists modulo adjacent swaps
data Bag : Set with X = {{{elements}}} where
  nil  : Bag
  cons : (x : X) (ys : Bag) -> Bag
  swap : (x : X) (y : X) (ys : Bag) -> cons(x, cons(y, ys)) == cons(y, cons(x, ys))
"""

BAG3 = ("a", "b", "c")
BAG2 = ("a", "b")

PROGRAM_MODULES = ("engine", "equations", "initiality", "schema", "terms", "encodings")


def import_program() -> SimpleNamespace:
    """Import the program afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "qitbench" or m.startswith("qitbench.")]:
        del sys.modules[name]
    importlib.import_module("qitbench")
    return SimpleNamespace(
        **{m: importlib.import_module(f"qitbench.{m}") for m in PROGRAM_MODULES}
    )


class Verdicts:
    """Answers checked against a reference: how many, and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Workload:
    name: str
    uses_seed: bool
    # (seed, pass index) -> that pass's inputs; made untimed, never by the
    # program, and the same for the same seed and index
    inputs: Callable[[int, int], Any]
    # (api, tracer) -> context; timed as setup_s
    setup: Callable[[SimpleNamespace, Any], Any]
    # (context, inputs, tracer) -> outcome; one pass, timed as verdict_s
    run: Callable[[Any, Any, Any], Any]
    # (context, inputs, outcome, verdicts); untimed
    check: Callable[[Any, Any, Any, Verdicts], None]


def no_inputs(seed: int, k: int) -> None:
    return None


# -- references independent of the program ------------------------------------


def bag_contents(t) -> frozenset:
    """Occurrence counts of a closed bag term, read off its cons spine."""
    counts: Counter = Counter()
    while t.op != "nil":
        counts[t.op] += 1
        (t,) = t.branches
    return frozenset(counts.items())


def multiset_count(size: int, elements: tuple) -> int:
    """Multisets with at most size - 1 elements: closed bag terms of at
    most ``size`` nodes, up to swapping."""
    return math.comb(size - 1 + len(elements), len(elements))


def length_value(length: int, cap: int = 4) -> int:
    return min(length, cap)


def log_merges(state) -> int:
    return sum(1 for entry in state.log if entry[0] == "merge")


def check_replay(api, state, v: Verdicts) -> None:
    """Every merge in the log re-derives from its justification."""
    validated = api.engine.replay_merges(state)
    merges = log_merges(state)
    v.check(validated == merges, f"replay validated {validated} of {merges} merges")


def check_bag_classes(classes, size: int, elements: tuple, v: Verdicts, expected=None) -> None:
    expected = multiset_count(size, elements) if expected is None else expected
    v.check(len(classes) == expected, f"{len(classes)} classes, expected {expected}")
    contents = [bag_contents(t) for _, t in classes]
    v.check(len(set(contents)) == len(contents), "two representatives hold the same multiset")


def classes_digest(api, classes) -> str:
    reps = [api.terms.term_to_json(t) for _, t in classes]
    return hashlib.sha256(json.dumps(reps, sort_keys=True).encode()).hexdigest()[:16]


# -- the shared set-up and pass steps ----------------------------------------------


def bag_setup(api, tr, elements: tuple):
    with tr.span("schema.parse_decl"):
        decl = api.schema.parse_decl(BAG_DECL.format(elements=", ".join(elements)))
    with tr.span("schema.elaborate"):
        sig, system = api.schema.elaborate(decl)
    return decl, sig, system


def saturation_counts(c: dict, res) -> None:
    c["rounds"] = res.rounds
    c["merges"] = res.merges
    c["new_classes"] = res.new_classes
    c["idle"] = int(res.merges == 0 and res.new_classes == 0)


def intern(state, term, tr) -> tuple[Any, int]:
    """Intern a term; also how many classes it added.  Interning never
    merges, so the classes it adds are exactly the log entries it adds."""
    before = state.class_count
    with tr.span("engine.intern") as c:
        cid = state.intern_term(term)
    fresh = state.class_count - before
    c["fresh"] = int(fresh > 0)
    return cid, fresh


def enumerate_step(api, state, size: int, tr):
    """``state.enumerate_classes(size)``.  Traced, the same work as the
    public calls it is made of: closed_terms, intern_term on each term,
    saturate, representatives, then the sort by term_key."""
    if not tr.on:
        return state.enumerate_classes(size)
    with tr.span("engine.closed_terms") as c:
        terms = api.engine.closed_terms(
            state.signature, size, probe=state.probe, generators=state.generators
        )
    c["terms"] = len(terms)
    ids = [intern(state, t, tr)[0] for t in terms]
    with tr.span("engine.saturate") as c:
        res = state.saturate()
    saturation_counts(c, res)
    roots = sorted({state.canonical(cid).index for cid in ids})
    with tr.span("engine.representatives") as c:
        reps = state.representatives([api.engine.ClassId(r) for r in roots])
    c["classes"] = len(reps)
    return sorted(reps.items(), key=lambda pair: api.terms.term_key(pair[1]))


def length_target(api):
    return api.encodings.length_algebra(4)


# -- bag3-enumerate ---------------------------------------------------------------


def bag3_enumerate(size: int = 8, expected_classes: int | None = None) -> Workload:
    def setup(api, tr):
        decl, sig, system = bag_setup(api, tr, BAG3)
        api.engine.new_qw(sig, system)
        return SimpleNamespace(api=api, sig=sig, system=system)

    def run(ctx, _inputs, tr):
        state = ctx.api.engine.new_qw(ctx.sig, ctx.system)
        return state, enumerate_step(ctx.api, state, size, tr)

    def check(ctx, _inputs, out, v):
        state, classes = out
        check_bag_classes(classes, size, BAG3, v, expected_classes)
        check_replay(ctx.api, state, v)

    return Workload("bag3-enumerate", False, no_inputs, setup, run, check)


# -- ordinal-enumerate --------------------------------------------------------------

# The classes the program gave when the benchmark was defined: their number
# and a digest of their representatives, by enumeration size.
ORDINAL_PINNED = {6: (15, "35b924ad690638cc"), 4: (5, "8c4954ccca1195fa")}


def ordinal_enumerate(size: int = 6) -> Workload:
    def setup(api, tr):
        inst = api.encodings.ordinal_notations(probe=2)
        api.engine.new_qw(inst.signature, inst.system)
        return SimpleNamespace(api=api, inst=inst)

    def run(ctx, _inputs, tr):
        state = ctx.api.engine.new_qw(ctx.inst.signature, ctx.inst.system)
        return state, enumerate_step(ctx.api, state, size, tr)

    def check(ctx, _inputs, out, v):
        state, classes = out
        count, digest = ORDINAL_PINNED[size]
        v.check(len(classes) == count, f"{len(classes)} classes, pinned {count}")
        got = classes_digest(ctx.api, classes)
        v.check(got == digest, f"representatives digest {got}, pinned {digest}")
        res = state.saturate()
        v.check(
            res.fixpoint and res.merges == 0 and res.new_classes == 0,
            f"enumeration did not end at a fixpoint: {res}",
        )
        check_replay(ctx.api, state, v)

    return Workload("ordinal-enumerate", False, no_inputs, setup, run, check)


# -- bag3-selftest ----------------------------------------------------------------


def bag3_selftest(size: int = 6, target: Callable = length_target) -> Workload:
    """The call sequence of ``qitbench selftest``, with a recursion target
    whose values the benchmark can check (the CLI default is one point)."""

    def setup(api, tr):
        decl, sig, system = bag_setup(api, tr, BAG3)
        api.engine.new_qw(sig, system)
        return SimpleNamespace(api=api, sig=sig, system=system, alg=target(api))

    def run(ctx, _inputs, tr):
        api, system, alg = ctx.api, ctx.system, ctx.alg
        ini = api.initiality
        state = api.engine.new_qw(ctx.sig, system)
        out = SimpleNamespace(state=state, values=None, uniq=None, comp=None)
        out.classes = enumerate_step(api, state, size, tr)
        cids = [cid for cid, _ in out.classes]
        with tr.span("engine.check_equations_hold"):
            out.equ = api.engine.check_equations_hold(state, cids)
        with tr.span("equations.sat_check"):
            out.sat = api.equations.sat_check(alg, system)
        rec = ini.RecTarget(alg, system, out.sat)
        with tr.span("initiality.check_rec_hom") as c:
            out.hom = ini.check_rec_hom(state, rec)
        c["checked"] = out.hom.checked
        c["skipped"] = out.hom.skipped
        if out.sat.satisfied:
            out.values = {}
            for cid in cids:
                with tr.span("initiality.qw_rec"):
                    out.values[cid] = ini.qw_rec(state, rec, cid)
            with tr.span("initiality.check_uniq"):
                out.uniq = ini.check_uniq(state, rec, out.values)
            with tr.span("initiality.dep_target"):
                dep = ini.dep_target(
                    state, lambda cid: ("*",), lambda op, idxs, vals: "*", classes=cids
                )
            with tr.span("initiality.check_comp") as c:
                out.comp = ini.check_comp(state, dep)
            c["checked"] = out.comp.checked
        with tr.span("engine.replay_merges") as c:
            out.validated = api.engine.replay_merges(state)
        c["validated"] = out.validated
        return out

    def check(ctx, _inputs, out, v):
        check_bag_classes(out.classes, size, BAG3, v)
        v.check(out.equ.ok, f"equations do not hold on the carrier: {out.equ.to_json()}")
        v.check(out.sat.satisfied, f"target does not satisfy the equations: {out.sat.to_json()}")
        v.check(out.hom.ok, f"recursion is not an algebra map: {out.hom.to_json()}")
        if out.values is not None:
            for cid, t in out.classes:
                want = length_value(sum(n for _, n in bag_contents(t)))
                got = out.values[cid]
                v.check(got == want, f"qw_rec gave {got!r} on class {cid.index}, expected {want}")
            v.check(out.uniq.ok, f"uniqueness failed: {out.uniq.to_json()}")
            v.check(out.comp.ok, f"computation rule failed: {out.comp.to_json()}")
        merges = log_merges(out.state)
        v.check(out.validated == merges, f"replay validated {out.validated} of {merges} merges")

    return Workload("bag3-selftest", False, no_inputs, setup, run, check)


# -- bag2-separate ----------------------------------------------------------------


@dataclass(frozen=True)
class SeparatorQuery:
    left: tuple
    right: tuple
    carrier_bound: int
    # the lex-first separator the program found when the benchmark was
    # defined, as {operator: values on the carrier in order}, or None
    pinned: dict | None = field(default=None, hash=False)


def list_text(xs) -> str:
    return "::".join(list(xs) + ["[]"])


SEPARATE_QUERIES = (
    SeparatorQuery(
        ("a", "a"),
        ("a",) * 8,
        4,
        {"nil": [0], "cons(a)": [1, 2, 3, 0], "cons(b)": [0, 1, 2, 3]},
    ),
    SeparatorQuery(("a", "b"), ("b", "a"), 3, None),
)
SEPARATE_TINY = (
    SeparatorQuery(("a",), ("a", "a"), 2, {"nil": [0], "cons(a)": [1, 0], "cons(b)": [0, 1]}),
    SeparatorQuery(("a", "b"), ("b", "a"), 2, None),
)


def algebra_table(alg, elements: tuple) -> dict:
    table = {"nil": [alg.interp("nil", ())]}
    for x in elements:
        table[f"cons({x})"] = [alg.interp(f"cons({x})", (v,)) for v in alg.carrier]
    return table


def list_value(table: dict, xs) -> Any:
    value = table["nil"][0]
    for x in reversed(xs):
        value = table[f"cons({x})"][value]
    return value


def check_separator(q: SeparatorQuery, alg, elements: tuple, v: Verdicts) -> None:
    if q.pinned is None:
        v.check(alg is None, f"{q.left} and {q.right} separated, but they are equal multisets")
        return
    if alg is None:
        v.check(False, f"no separator for {q.left} and {q.right} within {q.carrier_bound}")
        return
    table = algebra_table(alg, elements)
    carrier = range(len(alg.carrier))
    v.check(
        list(alg.carrier) == list(carrier)
        and all(0 <= y < len(carrier) for ys in table.values() for y in ys),
        f"separator has a malformed table: {table}",
    )
    swaps = all(
        table[f"cons({x})"][table[f"cons({y})"][z]] == table[f"cons({y})"][table[f"cons({x})"][z]]
        for x in elements
        for y in elements
        for z in carrier
    )
    v.check(swaps, f"separator breaks a swap law: {table}")
    v.check(
        list_value(table, q.left) != list_value(table, q.right),
        f"separator does not tell {q.left} from {q.right}",
    )
    v.check(table == q.pinned, f"separator {table} is not the pinned lex-first hit")


def bag2_separate(queries: tuple = SEPARATE_QUERIES) -> Workload:
    def setup(api, tr):
        decl, sig, system = bag_setup(api, tr, BAG2)
        terms = []
        for q in queries:
            pair = []
            for xs in (q.left, q.right):
                with tr.span("schema.parse_ground_term"):
                    pair.append(api.schema.parse_ground_term(list_text(xs), decl))
            terms.append(pair)
        return SimpleNamespace(api=api, sig=sig, system=system, terms=terms)

    def run(ctx, _inputs, tr):
        found = []
        for q, (t, u) in zip(queries, ctx.terms):
            with tr.span("engine.find_separator") as c:
                alg = ctx.api.engine.find_separator(ctx.sig, ctx.system, t, u, q.carrier_bound)
            c["found"] = int(alg is not None)
            found.append(alg)
        return found

    def check(ctx, _inputs, out, v):
        for q, alg in zip(queries, out):
            check_separator(q, alg, BAG2, v)

    return Workload("bag2-separate", False, no_inputs, setup, run, check)


# -- bag3-session -------------------------------------------------------------------


def session_ops(seed: str, n_ops: int, elements: tuple = BAG3) -> list[tuple]:
    """A seeded sequence of 40% writes (two lists, the second a shuffle of
    the first with one element replaced 30% of the time), 40% equality
    reads of an earlier pair and 20% recursion reads of an earlier list,
    in seeded order.  The shares are exact so that seeds differ in the
    lists, not in the mix.  Expected answers come from the multiset oracle
    and the list length.  Each pass of a run has its own sequence, seeded
    by the run's seed and the pass index: which lists a session writes
    moves its cost by about a tenth, and a run's median over several
    sequences moves much less."""
    rng = random.Random(seed)
    n_write = n_read = round(n_ops * 0.4)
    kinds = ["write"] * n_write + ["read"] * n_read + ["rec"] * (n_ops - n_write - n_read)
    rng.shuffle(kinds)
    kinds.remove("write")
    kinds.insert(0, "write")  # reads need an earlier write
    ops: list[tuple] = []
    writes: list[tuple] = []
    lengths: list[int] = []
    for kind in kinds:
        if kind == "write":
            if not lengths:
                lengths = list(range(1, 7))
                rng.shuffle(lengths)
            xs = [rng.choice(elements) for _ in range(lengths.pop())]
            ys = list(xs)
            rng.shuffle(ys)
            if rng.random() < 0.3:
                i = rng.randrange(len(ys))
                ys[i] = rng.choice([e for e in elements if e != ys[i]])
            writes.append((xs, ys))
            ops.append(("write", list_text(xs), list_text(ys), Counter(xs) == Counter(ys)))
        elif kind == "read":
            w = rng.randrange(len(writes))
            xs, ys = writes[w]
            ops.append(("read", w, Counter(xs) == Counter(ys)))
        else:
            w, side = rng.randrange(len(writes)), rng.randrange(2)
            ops.append(("rec", w, side, length_value(len(writes[w][side]))))
    return ops


def bag3_session(n_ops: int = 300, target: Callable = length_target) -> Workload:
    def setup(api, tr):
        decl, sig, system = bag_setup(api, tr, BAG3)
        api.engine.new_qw(sig, system)
        rec = api.initiality.rec_target(target(api), system)
        return SimpleNamespace(api=api, decl=decl, sig=sig, system=system, rec=rec)

    def run(ctx, ops, tr):
        api, decl, rec = ctx.api, ctx.decl, ctx.rec
        parse = api.schema.parse_ground_term
        state = api.engine.new_qw(ctx.sig, ctx.system)
        pairs: list[tuple] = []
        answers: list[Any] = []
        op_times: list[float] = []
        for op in ops:
            t0 = clock()
            if op[0] == "write":
                with tr.span("session.write") as w:
                    with tr.span("schema.parse_ground_term"):
                        t1 = parse(op[1], decl)
                    with tr.span("schema.parse_ground_term"):
                        t2 = parse(op[2], decl)
                    c1, f1 = intern(state, t1, tr)
                    c2, f2 = intern(state, t2, tr)
                    with tr.span("engine.saturate") as c:
                        res = state.saturate()
                    saturation_counts(c, res)
                    with tr.span("engine.decide_eq") as c:
                        d = state.decide_eq(c1, c2)
                pairs.append((c1, c2))
                w["fresh"] = int(f1 + f2 > 0)
            elif op[0] == "read":
                with tr.span("session.read"):
                    with tr.span("engine.decide_eq") as c:
                        d = state.decide_eq(*pairs[op[1]])
            else:
                with tr.span("session.rec"):
                    with tr.span("initiality.qw_rec"):
                        d = api.initiality.qw_rec(state, rec, pairs[op[1]][op[2]])
            op_times.append(clock() - t0)
            if op[0] == "rec":
                answers.append(d)
            else:
                c["proved"] = int(d.proved)
                c["derivation_steps"] = len(d.steps)
                answers.append(d.proved)
        return SimpleNamespace(state=state, answers=answers, op_times=op_times)

    def check(ctx, ops, out, v):
        for op, got in zip(ops, out.answers):
            want = op[-1]
            if op[0] == "rec":
                v.check(got == want, f"qw_rec gave {got!r}, expected {want}")
            else:
                v.check(got == want, f"decide_eq said proved={got} on {op}, the oracle {want}")
        check_replay(ctx.api, out.state, v)

    return Workload(
        "bag3-session", True, lambda seed, k: session_ops(f"{seed}/{k}", n_ops), setup, run, check
    )


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "bag3-enumerate": bag3_enumerate,
    "ordinal-enumerate": ordinal_enumerate,
    "bag3-selftest": bag3_selftest,
    "bag2-separate": bag2_separate,
    "bag3-session": bag3_session,
}

# The same workloads at sizes that finish in well under a second each.
TINY: dict[str, Callable[[], Workload]] = {
    "bag3-enumerate": lambda: bag3_enumerate(4),
    "ordinal-enumerate": lambda: ordinal_enumerate(4),
    "bag3-selftest": lambda: bag3_selftest(3),
    "bag2-separate": lambda: bag2_separate(SEPARATE_TINY),
    "bag3-session": lambda: bag3_session(30),
}
