"""Command-line front door.

Commands: check | elaborate | eq | enumerate | sat | rec | separate | selftest.
Structured results go to stdout (JSON under ``--format=json``), diagnostics
to stderr as JSON objects with source spans.  Exit codes: 0 success,
1 usage or IO, 2 semantic error in the input, 3 unknown/not found or a
budget overrun, 4 separated, 5 a check reported a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .encodings import one_point_algebra
from .engine import check_equations_hold, find_separator, new_qw, replay_merges
from .equations import sat_check
from .errors import (
    BudgetExceededError,
    ConditionalUnsupportedError,
    ReplayError,
    SchemaError,
    WorkbenchError,
)
from .initiality import (
    RecTarget,
    check_comp,
    check_rec_hom,
    check_uniq,
    dep_target,
    qw_rec,
    rec_target,
)
from .schema import (
    check_positivity,
    classify,
    elaborate,
    parse_decl,
    parse_ground_term,
)
from .terms import (
    FiniteAlgebra,
    Signature,
    branch_assignments,
    probe_key,
    table_algebra,
    term_to_json,
)
from .translate import free_term, freeify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2
EXIT_UNKNOWN = 3
EXIT_SEPARATED = 4
EXIT_CHECK_FAILED = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise _UsageError(message)


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in human:
            print(line)


def _diag(exc: Exception) -> None:
    obj: dict[str, Any] = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SchemaError):
        obj["line"] = exc.line
        obj["col"] = exc.col
    print(json.dumps(obj, sort_keys=True), file=sys.stderr)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_pipeline(args):
    decl = parse_decl(_read(args.path))
    sig, system = elaborate(decl, probe=args.probe)
    generators = tuple(args.free or ())
    state = new_qw(sig, system, generators=generators, max_rounds=args.max_rounds)
    return decl, sig, system, state


def algebra_to_json(alg: FiniteAlgebra, sig: Signature, probe: int) -> dict:
    rows = []
    for opname, arity in sig.ops:
        for branches in branch_assignments(arity, alg.carrier, probe):
            key = probe_key(branches, probe)
            rows.append(
                {"op": opname, "branches": list(key[1:]), "value": alg.interp(opname, branches)}
            )
    return {"name": alg.name, "carrier": list(alg.carrier), "table": rows}


def algebra_from_json(obj: dict, sig: Signature, probe: int) -> FiniteAlgebra:
    carrier = tuple(obj["carrier"])
    table: dict = {}
    for row in obj["table"]:
        op = row["op"]
        arity = sig.arity(op)
        vals = tuple(row["branches"])
        width = probe + 1 if arity.is_omega else arity.finite
        if len(vals) != width:
            raise WorkbenchError(
                f"row for {op!r} needs {width} branch values, got {len(vals)}"
            )
        tag = "omega" if arity.is_omega else "finite"
        table[(op, (tag,) + vals)] = row["value"]
    for opname, arity in sig.ops:
        for branches in branch_assignments(arity, carrier, probe):
            key = (opname, probe_key(branches, probe))
            if key not in table:
                raise WorkbenchError(
                    f"algebra table is partial: no row for {opname!r} at {key[1][1:]!r}"
                )
    return table_algebra(sig, carrier, table, probe=probe, name=obj.get("name", ""))


def _load_algebra(args, sig: Signature) -> FiniteAlgebra:
    if getattr(args, "algebra", None):
        return algebra_from_json(json.loads(_read(args.algebra)), sig, args.probe)
    return one_point_algebra()


def _find_separator(args, sig, system, generators, t1, t2):
    """A separating algebra and the signature it interprets.  With
    generators the search runs over the free extension (``freeify``), so
    the algebra's ``inl(g)`` rows are the valuation of the generators."""
    if generators:
        sig, system = freeify(sig, system, generators)
        t1, t2 = free_term(t1), free_term(t2)
    alg = find_separator(sig, system, t1, t2, args.carrier_bound, probe=args.probe)
    return alg, sig


# -- commands ------------------------------------------------------------------


def cmd_check(args) -> int:
    decl = parse_decl(_read(args.path))
    check_positivity(decl)
    cls = classify(decl)
    if cls.conditional:
        raise ConditionalUnsupportedError(
            "declaration uses conditional equality constructors"
        )
    payload = {
        "name": decl.name,
        "classification": cls.to_json(),
        "element_constructors": len(decl.element_ctors),
        "equality_constructors": len(decl.equality_ctors),
    }
    _emit(
        args,
        payload,
        [
            f"{decl.name}: ok",
            f"  element constructors: {len(decl.element_ctors)}",
            f"  equality constructors: {len(decl.equality_ctors)}",
            f"  classification: {cls.to_json()}",
        ],
    )
    return EXIT_OK


def cmd_elaborate(args) -> int:
    decl = parse_decl(_read(args.path))
    sig, system = elaborate(decl, probe=args.probe)
    payload = {"signature": sig.to_json(), "equations": system.to_json()}
    _emit(
        args,
        payload,
        [
            f"operators: {', '.join(f'{n}/{a.finite if not a.is_omega else chr(969)}' for n, a in sig.ops)}",
            f"equations: {', '.join(e.name for e in system.equations)}",
            f"probe depth: {system.probe}",
        ],
    )
    return EXIT_OK


def cmd_eq(args) -> int:
    decl, sig, system, state = _load_pipeline(args)
    t1 = parse_ground_term(args.term1, decl, probe=args.probe, generators=state.generators)
    t2 = parse_ground_term(args.term2, decl, probe=args.probe, generators=state.generators)
    c1 = state.intern_term(t1)
    c2 = state.intern_term(t2)
    sat = state.saturate()
    decision = state.decide_eq(c1, c2)
    if decision.proved:
        payload = {"verdict": "proved", "derivation": decision.to_json()["derivation"]}
        _emit(args, payload, ["proved", f"  derivation steps: {len(decision.steps)}"])
        return EXIT_OK
    if args.carrier_bound > 0:
        alg, alg_sig = _find_separator(args, sig, system, state.generators, t1, t2)
        if alg is not None:
            payload = {
                "verdict": "separated",
                "algebra": algebra_to_json(alg, alg_sig, args.probe),
            }
            _emit(args, payload, ["separated", f"  carrier size: {len(alg.carrier)}"])
            return EXIT_SEPARATED
    note = "saturation reached a fixpoint" if sat.fixpoint else "saturation budget exhausted"
    payload = {"verdict": "unknown", "note": note}
    _emit(args, payload, ["unknown", f"  note: {note}"])
    return EXIT_UNKNOWN


def cmd_enumerate(args) -> int:
    decl, sig, system, state = _load_pipeline(args)
    classes = state.enumerate_classes(args.size_bound)
    payload = {
        "count": len(classes),
        "classes": [
            {"class": c.index, "representative": term_to_json(t)} for c, t in classes
        ],
    }
    _emit(
        args,
        payload,
        [f"classes: {len(classes)}"]
        + [f"  [{c.index}] {json.dumps(term_to_json(t), sort_keys=True)}" for c, t in classes],
    )
    return EXIT_OK


def cmd_sat(args) -> int:
    decl, sig, system, state = _load_pipeline(args)
    alg = _load_algebra(args, sig)
    report = sat_check(alg, system)
    _emit(args, report.to_json(), [json.dumps(report.to_json(), sort_keys=True)])
    return EXIT_OK if report.satisfied else EXIT_CHECK_FAILED


def cmd_rec(args) -> int:
    decl, sig, system, state = _load_pipeline(args)
    alg = _load_algebra(args, sig)
    target = rec_target(alg, system)
    t = parse_ground_term(args.term, decl, probe=args.probe, generators=state.generators)
    c = state.intern_term(t)
    state.saturate()
    gen_env = {g: alg.carrier[0] for g in state.generators}
    value = qw_rec(state, target, c, gen_env=gen_env)
    payload = {"value": value}
    _emit(args, payload, [f"value: {value!r}"])
    return EXIT_OK


def cmd_separate(args) -> int:
    decl, sig, system, state = _load_pipeline(args)
    t1 = parse_ground_term(args.term1, decl, probe=args.probe, generators=state.generators)
    t2 = parse_ground_term(args.term2, decl, probe=args.probe, generators=state.generators)
    alg, alg_sig = _find_separator(args, sig, system, state.generators, t1, t2)
    if alg is None:
        payload = {"verdict": "not-found", "carrier_bound": args.carrier_bound}
        _emit(args, payload, ["not found within the carrier bound"])
        return EXIT_UNKNOWN
    payload = {"verdict": "separated", "algebra": algebra_to_json(alg, alg_sig, args.probe)}
    _emit(args, payload, ["separated", f"  carrier size: {len(alg.carrier)}"])
    return EXIT_OK


def cmd_selftest(args) -> int:
    decl, sig, system, state = _load_pipeline(args)
    classes = state.enumerate_classes(args.size_bound)
    report: dict[str, Any] = {"enumeration": {"classes": len(classes)}}
    ok = True

    equ = check_equations_hold(state, [c for c, _ in classes])
    report["equations_hold"] = equ.to_json()
    ok = ok and equ.ok

    alg = _load_algebra(args, sig)
    satrep = sat_check(alg, system)
    report["satisfaction"] = satrep.to_json()
    gen_env = {g: alg.carrier[0] for g in state.generators}

    target = RecTarget(alg, system, satrep)
    hom = check_rec_hom(state, target, gen_env=gen_env)
    report["recursion_hom"] = hom.to_json()
    ok = ok and satrep.satisfied and hom.ok

    if satrep.satisfied:
        values = {
            c: qw_rec(state, target, c, gen_env=gen_env) for c, _ in classes
        }
        uniq = check_uniq(state, target, values, gen_env=gen_env)
        report["uniqueness"] = uniq.to_json()
        ok = ok and uniq.ok

        dep = dep_target(
            state, lambda c: ("*",), lambda op, idxs, vals: "*",
            classes=[c for c, _ in classes],
        )
        comp = check_comp(state, dep, gen_env={g: "*" for g in state.generators})
        report["computation"] = comp.to_json()
        ok = ok and comp.ok
    else:
        report["uniqueness"] = {"verdict": "skipped"}
        report["computation"] = {"verdict": "skipped"}

    try:
        validated = replay_merges(state)
        report["replay"] = {"verdict": "ok", "merges": validated}
    except ReplayError as exc:
        report["replay"] = {"verdict": "failed", "message": str(exc)}
        ok = False

    report["verdict"] = "ok" if ok else "failed"
    human = [f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in report.items()]
    _emit(args, report, human)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _add_common(
    p: argparse.ArgumentParser, *, budgets: bool = True, carrier_default: int = 0
) -> None:
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--probe", type=int, default=2, help="probe depth for countable branching")
    if budgets:
        p.add_argument("--max-rounds", type=int, default=40, help="saturation round budget")
        p.add_argument("--size-bound", type=int, default=4, help="closed term size bound")
        p.add_argument(
            "--carrier-bound",
            type=int,
            default=carrier_default,
            help="separator carrier bound (0 disables the search)",
        )
        p.add_argument("--free", action="append", metavar="GEN", help="generator name (free-algebra mode)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qitbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse, positivity, classification")
    p.add_argument("path")
    _add_common(p, budgets=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("elaborate", help="compile a declaration to signature plus equations")
    p.add_argument("path")
    _add_common(p, budgets=False)
    p.set_defaults(func=cmd_elaborate)

    p = sub.add_parser("eq", help="decide equality of two terms")
    p.add_argument("path")
    p.add_argument("term1")
    p.add_argument("term2")
    _add_common(p)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("enumerate", help="classes of closed terms up to a size bound")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sat", help="check an algebra satisfies the equations")
    p.add_argument("path")
    p.add_argument("--algebra", help="algebra JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("rec", help="recurse a term's class into an algebra")
    p.add_argument("path")
    p.add_argument("term")
    p.add_argument("--algebra", help="algebra JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_rec)

    p = sub.add_parser("separate", help="search for a separating algebra")
    p.add_argument("path")
    p.add_argument("term1")
    p.add_argument("term2")
    _add_common(p, carrier_default=3)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("selftest", help="run the initiality suite on an instance")
    p.add_argument("path")
    p.add_argument("--algebra", help="algebra JSON file (default: one-point)")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        _emit(args, {"verdict": "unknown", "note": str(exc)}, ["unknown", f"  note: {exc}"])
        return EXIT_UNKNOWN
    except WorkbenchError as exc:
        _diag(exc)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
