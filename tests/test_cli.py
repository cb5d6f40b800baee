from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys

import pytest

from qitbench.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_SEMANTIC,
    EXIT_SEPARATED,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    algebra_from_json,
    main,
)
from qitbench.encodings import bag_term, length_algebra
from qitbench.equations import sat_check
from qitbench.errors import ReplayError, WorkbenchError
from qitbench.schema import MAX_TERM_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys, fixtures):
    code, out, err = run(capsys, "check", str(fixtures / "bag.qit"))
    assert code == EXIT_OK
    assert "Bag: ok" in out


def test_check_positivity_failure(capsys, fixtures):
    code, out, err = run(capsys, "check", str(fixtures / "negative_pi.qit"))
    assert code == EXIT_SEMANTIC
    diag = json.loads(err)
    assert diag["error"] == "PositivityError"
    assert diag["line"] == 4


def test_check_conditional_failure(capsys, fixtures):
    code, out, err = run(capsys, "check", str(fixtures / "conditional.qit"))
    assert code == EXIT_SEMANTIC
    assert json.loads(err)["error"] == "ConditionalUnsupportedError"


@pytest.mark.parametrize("command", ["check", "elaborate"])
def test_composition_with_a_value_is_a_scope_error(capsys, fixtures, command):
    code, out, err = run(capsys, command, str(fixtures / "compose_with_a_value.qit"))
    assert (code, out) == (EXIT_SEMANTIC, "")
    diag = json.loads(err)
    assert (diag["error"], diag["line"], diag["col"]) == ("ScopeError", 6, 74)


@pytest.mark.parametrize("command", ["check", "elaborate"])
def test_repeated_permutation_table_is_a_syntax_error(capsys, fixtures, command):
    code, out, err = run(capsys, command, str(fixtures / "repeated_perms.qit"))
    assert (code, out) == (EXIT_SEMANTIC, "")
    diag = json.loads(err)
    assert (diag["error"], diag["line"], diag["col"]) == ("DeclSyntaxError", 3, 64)
    assert diag["message"] == "3:64: duplicate permutation table"


@pytest.mark.parametrize("command", ["check", "elaborate"])
def test_a_missing_comma_is_a_syntax_error(capsys, fixtures, command):
    code, out, err = run(capsys, command, str(fixtures / "missing_comma.qit"))
    assert (code, out) == (EXIT_SEMANTIC, "")
    assert json.loads(err)["message"] == "2:28: expected ',', found 'b'"


def test_a_digit_int_refuses_is_a_syntax_error(capsys, fixtures):
    code, out, err = run(capsys, "eq", str(fixtures / "bag.qit"), "a::[]", "cons(²)")
    assert (code, out) == (EXIT_SEMANTIC, "")
    assert json.loads(err)["message"] == "1:6: stray character '²'"


@pytest.mark.parametrize(
    "deep, deepest",
    [
        # a list cell's head is at the cell's level, its tail one below
        (lambda n: "a::" * n + "[]", "[]"),
        # an argument is one level below its application
        (lambda n: "cons(a, " * n + "nil" + ")" * n, "a, nil"),
    ],
    ids=["sugar", "spelled"],
)
def test_eq_is_pinned_at_the_term_depth_limit(capsys, fixtures, deep, deepest):
    # at the limit the whole pipeline runs; one past it the parser refuses
    # the first atom below the limit, instead of a RecursionError (exit 1)
    bag = str(fixtures / "bag.qit")
    at_limit = deep(MAX_TERM_DEPTH)
    code, out, err = run(capsys, "eq", bag, at_limit, at_limit)
    assert (code, out) == (EXIT_OK, "proved\n  derivation steps: 0\n")
    past = deep(MAX_TERM_DEPTH + 1)
    code, out, err = run(capsys, "eq", bag, past, "a::[]")
    assert (code, out) == (EXIT_SEMANTIC, "")
    col = past.index(deepest) + 1
    assert json.loads(err)["message"] == (
        f"1:{col}: term nested more than {MAX_TERM_DEPTH} levels deep"
    )


def test_missing_file_is_io_error(capsys, fixtures):
    code, out, err = run(capsys, "check", str(fixtures / "missing.qit"))
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "io"


@pytest.mark.parametrize("algebra", [False, True])
def test_a_file_that_is_not_utf8_is_an_io_error(capsys, fixtures, tmp_path, algebra):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"data \xff : Set where\n")
    argv = ["sat", str(fixtures / "bag.qit"), "--algebra"] if algebra else ["check"]
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err) == {
        "error": "io", "message": f"{path}: not UTF-8 at byte 5: invalid start byte",
    }


def test_usage_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_elaborate_matches_fixture_bytes(capsys, fixtures):
    code, out, err = run(
        capsys, "elaborate", str(fixtures / "bag.qit"), "--format", "json"
    )
    assert code == EXIT_OK
    expected = json.loads((fixtures / "bag_sigeq.json").read_text())
    assert json.loads(out) == expected


def test_eq_proved(capsys, fixtures):
    code, out, err = run(
        capsys, "eq", str(fixtures / "bag.qit"), "a::b::[]", "b::a::[]",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "proved"


def test_eq_unknown_without_search(capsys, fixtures):
    code, out, err = run(capsys, "eq", str(fixtures / "bag.qit"), "a::[]", "b::[]")
    assert code == EXIT_UNKNOWN


def test_eq_separated_with_search(capsys, fixtures):
    code, out, err = run(
        capsys, "eq", str(fixtures / "bag.qit"), "a::[]", "b::[]",
        "--carrier-bound", "3", "--format", "json",
    )
    assert code == EXIT_SEPARATED
    payload = json.loads(out)
    assert payload["verdict"] == "separated"
    assert len(payload["algebra"]["carrier"]) <= 3


def test_separate_not_found_for_equal_terms(capsys, fixtures):
    code, out, err = run(
        capsys, "separate", str(fixtures / "bag.qit"), "a::b::[]", "b::a::[]"
    )
    assert code == EXIT_UNKNOWN


def test_separate_answers_proved_pairs_without_searching(capsys, fixtures):
    bag = str(fixtures / "bag.qit")
    argv = ("separate", bag, "a::b::[]", "b::a::[]", "--carrier-bound", "5")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_UNKNOWN, "not found within the carrier bound\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (
        EXIT_UNKNOWN, '{\n  "carrier_bound": 5,\n  "verdict": "not-found"\n}\n'
    )


def test_separate_searches_an_equal_pair_to_carrier_five(capsys, fixtures):
    # no saturation round proves the pair, so the search must answer; with
    # the least-number rule it exhausts carrier 5 within its default budget
    code, out, err = run(
        capsys, "separate", str(fixtures / "bag.qit"), "a::b::[]", "b::a::[]",
        "--max-rounds", "0", "--carrier-bound", "5", "--format", "json",
    )
    assert (code, json.loads(out)) == (
        EXIT_UNKNOWN, {"carrier_bound": 5, "verdict": "not-found"}
    )


def test_separator_output_without_generators_is_pinned(capsys, fixtures):
    # the separator found over the declaration itself, as bytes: the free
    # extension is searched only when --free is given
    bag = str(fixtures / "bag.qit")
    for argv, exit_code in (
        (("eq", bag, "a::[]", "b::[]", "--carrier-bound", "2"), EXIT_SEPARATED),
        (("separate", bag, "a::[]", "b::[]"), EXIT_OK),
    ):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dfec126c02ba47bbcdce3e7772152ecc9b51d85e16e4a19fac3a93f0728e73c9"
        )


def _rows(payload, op):
    return [r for r in payload["algebra"]["table"] if r["op"] == op]


def test_eq_separates_over_generators(capsys, fixtures):
    code, out, err = run(
        capsys, "eq", str(fixtures / "bag.qit"), "a::v", "b::v",
        "--free", "v", "--carrier-bound", "2", "--format", "json",
    )
    assert code == EXIT_SEPARATED
    payload = json.loads(out)
    assert payload["verdict"] == "separated"
    # the algebra interprets the free extension: inl(v) is the valuation
    assert [r["branches"] for r in _rows(payload, "inl(v)")] == [[]]
    assert _rows(payload, "inr(cons(a))") and not _rows(payload, "cons(a)")


def test_separate_over_generators(capsys, fixtures):
    code, out, err = run(
        capsys, "separate", str(fixtures / "bag.qit"), "a::v", "b::v",
        "--free", "v", "--carrier-bound", "2", "--format", "json",
    )
    assert code == EXIT_OK
    assert _rows(json.loads(out), "inl(v)")
    # mk collapses to its first branch, so no algebra tells these apart
    code, out, err = run(
        capsys, "separate", str(fixtures / "wreductions.qit"), "mk(v, v)", "v",
        "--free", "v", "--format", "json",
    )
    assert code == EXIT_UNKNOWN
    assert json.loads(out) == {"carrier_bound": 3, "verdict": "not-found"}
    assert err == ""


def test_enumerate_deterministic_output(capsys, fixtures):
    outs = []
    for _ in range(2):
        code, out, err = run(
            capsys, "enumerate", str(fixtures / "bag.qit"),
            "--size-bound", "4", "--format", "json",
        )
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["count"] == 10
    digest = "f497125f01503e10df56786fd3f167e9c0e8d1c362ed34116c67328ec133c800"
    assert hashlib.sha256(outs[0].encode()).hexdigest() == digest


def test_sat_satisfied_and_violated(capsys, fixtures):
    code, out, err = run(
        capsys, "sat", str(fixtures / "bag.qit"),
        "--algebra", str(fixtures / "length_algebra.json"), "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "satisfied"
    code, out, err = run(
        capsys, "sat", str(fixtures / "bag.qit"),
        "--algebra", str(fixtures / "corrupted_length_algebra.json"), "--format", "json",
    )
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["verdict"] == "violated"


def test_rec_value(capsys, fixtures):
    code, out, err = run(
        capsys, "rec", str(fixtures / "bag.qit"), "a::b::a::[]",
        "--algebra", str(fixtures / "length_algebra.json"), "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["value"] == 3


@pytest.mark.parametrize("algebra, value", [
    ([], "'*'"), (["--algebra", "length_algebra.json"], "2"),
])
def test_rec_on_a_carrier_no_round_saturated(capsys, fixtures, algebra, value):
    # with no round, a::b::[] and b::a::[] stay apart, and recursion still
    # gives the term's value: an unsaturated carrier only misses merges
    algebra = [str(fixtures / a) if a.endswith(".json") else a for a in algebra]
    code, out, err = run(
        capsys, "rec", str(fixtures / "bag.qit"), "a::b::[]", "--max-rounds", "0", *algebra
    )
    assert (code, out, err) == (EXIT_OK, f"value: {value}\n", "")


def test_selftest_bag(capsys, fixtures):
    code, out, err = run(
        capsys, "selftest", str(fixtures / "bag.qit"),
        "--size-bound", "3", "--format", "json",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "ok"
    assert report["replay"]["verdict"] == "ok"


def test_selftest_wreductions_free(capsys, fixtures):
    code, out, err = run(
        capsys, "selftest", str(fixtures / "wreductions.qit"),
        "--free", "v", "--size-bound", "5", "--format", "json",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["enumeration"]["classes"] == 1


@pytest.mark.parametrize("command", [
    ["rec", "wreductions.qit", "v"], ["selftest", "wreductions.qit"],
])
def test_free_generators_over_an_empty_carrier_are_a_semantic_error(capsys, fixtures, command):
    # a generator takes the algebra's first carrier element, which an empty
    # carrier lacks
    code, out, err = run(
        capsys, command[0], str(fixtures / command[1]), *command[2:], "--free", "v",
        "--algebra", str(fixtures / "empty_algebra.json"),
    )
    assert (code, out) == (EXIT_SEMANTIC, "")
    assert json.loads(err)["error"] == "WorkbenchError"
    assert "carrier is empty" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["sat", "selftest"])
def test_an_empty_carrier_without_generators_is_a_model(capsys, fixtures, command):
    # wreductions.qit has no constants, so the empty algebra satisfies it
    code, out, err = run(
        capsys, command, str(fixtures / "wreductions.qit"),
        "--algebra", str(fixtures / "empty_algebra.json"), "--format", "json",
    )
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["verdict"] in ("satisfied", "ok")


def test_selftest_corrupted_algebra(capsys, fixtures):
    code, out, err = run(
        capsys, "selftest", str(fixtures / "bag.qit"),
        "--size-bound", "3",
        "--algebra", str(fixtures / "corrupted_length_algebra.json"),
        "--format", "json",
    )
    assert code == EXIT_CHECK_FAILED
    report = json.loads(out)
    assert report["satisfaction"]["verdict"] == "violated"
    assert report["recursion_hom"]["verdict"] == "counterexample"


def test_budget_overrun_is_unknown(capsys, fixtures):
    code, out, err = run(
        capsys, "selftest", str(fixtures / "omega_tree.qit"),
        "--size-bound", "5", "--format", "json",
    )
    assert code == EXIT_UNKNOWN
    payload = json.loads(out)
    assert payload["verdict"] == "unknown"
    assert payload["note"] == "986078 environments exceed the budget of 200000"
    assert err == ""


def test_algebra_loader_round_trip(fixtures, bag):
    obj = json.loads((fixtures / "length_algebra.json").read_text())
    alg = algebra_from_json(obj, bag.signature, 2)
    assert sat_check(alg, bag.system).satisfied
    reference = length_algebra(4)
    for n in range(5):
        assert alg.interp("cons(a)", (n,)) == reference.interp("cons(a)", (n,))


def test_algebra_loader_rejects_partial_table(fixtures, bag):
    obj = json.loads((fixtures / "length_algebra.json").read_text())
    obj["table"] = obj["table"][:-1]
    with pytest.raises(WorkbenchError):
        algebra_from_json(obj, bag.signature, 2)


MALFORMED_ALGEBRAS = {
    "not-json": "{carrier: [0]",
    "not-an-object": "[0]",
    "empty-object": "{}",
    "no-carrier": '{"table": []}',
    "no-table": '{"carrier": [0]}',
    "row-not-an-object": '{"carrier": [0], "table": [0]}',
    "row-without-op": '{"carrier": [0], "table": [{"branches": [], "value": 0}]}',
    "row-without-branches": '{"carrier": [0], "table": [{"op": "nil", "value": 0}]}',
    "row-without-value": '{"carrier": [0], "table": [{"op": "nil", "branches": []}]}',
    "branches-not-a-list": '{"carrier": [0], "table": [{"op": "nil", "branches": 0, "value": 0}]}',
    "op-not-a-string": '{"carrier": [0], "table": [{"op": [], "branches": [], "value": 0}]}',
    "carrier-entry-a-list": (
        '{"carrier": [[0]], "table": [{"op": "nil", "branches": [], "value": [0]},'
        ' {"op": "cons(a)", "branches": [[0]], "value": [0]},'
        ' {"op": "cons(b)", "branches": [[0]], "value": [0]}]}'
    ),
    "carrier-entry-a-boolean": (
        '{"carrier": [true], "table": [{"op": "nil", "branches": [], "value": true},'
        ' {"op": "cons(a)", "branches": [true], "value": true},'
        ' {"op": "cons(b)", "branches": [true], "value": true}]}'
    ),
    "value-outside-the-carrier": (
        '{"carrier": [0], "table": [{"op": "nil", "branches": [], "value": 7},'
        ' {"op": "cons(a)", "branches": [0], "value": 0},'
        ' {"op": "cons(b)", "branches": [0], "value": 0}]}'
    ),
    "value-a-list": (
        '{"carrier": [0], "table": [{"op": "nil", "branches": [], "value": [0]},'
        ' {"op": "cons(a)", "branches": [0], "value": 0},'
        ' {"op": "cons(b)", "branches": [0], "value": 0}]}'
    ),
    "carrier-entry-repeated": (
        '{"carrier": [0, 0], "table": [{"op": "nil", "branches": [], "value": 0},'
        ' {"op": "cons(a)", "branches": [0], "value": 0},'
        ' {"op": "cons(b)", "branches": [0], "value": 0}]}'
    ),
    "branch-outside-the-carrier": (
        '{"carrier": [0], "table": [{"op": "nil", "branches": [], "value": 0},'
        ' {"op": "cons(a)", "branches": [0], "value": 0},'
        ' {"op": "cons(a)", "branches": [1], "value": 0},'
        ' {"op": "cons(b)", "branches": [0], "value": 0}]}'
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ALGEBRAS))
def test_malformed_algebra_file_is_a_semantic_error(capsys, fixtures, tmp_path, name):
    path = tmp_path / "algebra.json"
    path.write_text(MALFORMED_ALGEBRAS[name])
    code, out, err = run(capsys, "sat", str(fixtures / "bag.qit"), "--algebra", str(path))
    assert code == EXIT_SEMANTIC
    assert out == ""
    assert json.loads(err)["error"] == "WorkbenchError"


def test_malformed_algebra_fixture_is_a_semantic_error(capsys, fixtures):
    code, out, err = run(
        capsys, "sat", str(fixtures / "bag.qit"),
        "--algebra", str(fixtures / "malformed_algebra.json"),
    )
    assert code == EXIT_SEMANTIC
    assert out == ""
    assert "value" in json.loads(err)["message"]


def test_repeated_carrier_fixture_is_a_semantic_error(capsys, fixtures):
    # a carrier listing 0 twice once passed sat, and every enumeration over
    # it visited 0 twice
    code, out, err = run(
        capsys, "sat", str(fixtures / "bag.qit"),
        "--algebra", str(fixtures / "repeated_carrier_algebra.json"),
    )
    assert (code, out) == (EXIT_SEMANTIC, "")
    assert json.loads(err)["message"] == "carrier lists 0 more than once"


@pytest.mark.parametrize(
    "qit, row, message",
    [
        ("bag.qit", {"op": "cons(a)", "branches": [0, 0], "value": 0},
         "row for 'cons(a)' needs 1 branch values, got 2"),
        # at probe 2 a countable branch reads indices 0 and 1, then the default
        ("omega_tree.qit", {"op": "node(a)", "branches": [0, 0], "value": 0},
         "row for 'node(a)' needs 3 branch values, got 2"),
    ],
    ids=["finite", "countable"],
)
def test_an_algebra_row_with_the_wrong_branch_count_is_a_semantic_error(
    capsys, fixtures, tmp_path, qit, row, message
):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"carrier": [0], "table": [row]}))
    code, out, err = run(capsys, "sat", str(fixtures / qit), "--algebra", str(path))
    assert (code, out) == (EXIT_SEMANTIC, "")
    assert json.loads(err) == {"error": "WorkbenchError", "message": message}


@pytest.mark.parametrize(
    "value,verdict,code",
    [
        (lambda g: sum(g) % 2, "satisfied", EXIT_OK),
        (lambda g: g[0], "violated", EXIT_CHECK_FAILED),
    ],
    ids=["symmetric", "first-branch"],
)
def test_countable_algebra_file_is_keyed_as_probe_key_keys_it(
    capsys, fixtures, tmp_path, value, verdict, code
):
    # node(x) reads three positions at probe 2 (indices 0 and 1, then the
    # default); a row keyed unlike probe_key would leave the table partial
    rows = [{"op": "leaf", "branches": [], "value": 1}]
    for x in ("a", "b"):
        for g in itertools.product([0, 1], repeat=3):
            rows.append({"op": f"node({x})", "branches": list(g), "value": value(g)})
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"carrier": [0, 1], "table": rows}))
    got, out, err = run(capsys, "sat", str(fixtures / "omega_tree.qit"), "--algebra", str(path))
    assert (got, err) == (code, "")
    assert json.loads(out)["verdict"] == verdict


@pytest.mark.parametrize("command", ["sat", "rec"])
def test_out_of_carrier_algebra_is_refused_by_every_command(capsys, fixtures, command):
    # nil -> 7 on carrier [0]: sat once judged it satisfied while rec refused it
    terms = ["a::[]"] if command == "rec" else []
    code, out, err = run(
        capsys, command, str(fixtures / "bag.qit"), *terms,
        "--algebra", str(fixtures / "out_of_carrier_algebra.json"),
    )
    assert (code, out) == (EXIT_SEMANTIC, "")
    assert "not in the carrier" in json.loads(err)["message"]


# each command's options beyond --format that it does not read
UNREAD_OPTIONS = [
    ("sat", "--max-rounds"),
    ("sat", "--size-bound"),
    ("sat", "--carrier-bound"),
    ("sat", "--free"),
    ("rec", "--size-bound"),
    ("rec", "--carrier-bound"),
    ("eq", "--size-bound"),
    ("separate", "--size-bound"),
    ("enumerate", "--carrier-bound"),
    ("selftest", "--carrier-bound"),
    ("check", "--probe"),
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, fixtures, command, option):
    algebra = ["--algebra", str(fixtures / "length_algebra.json")]
    operands = {
        "sat": algebra,
        "rec": ["a::[]", *algebra],
        "eq": ["a::[]", "b::[]"],
        "separate": ["a::[]", "b::[]"],
    }
    argv = [command, str(fixtures / "bag.qit"), *operands.get(command, []), option, "3"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err)["error"] == "usage"
    # the same call without the option succeeds
    del argv[-2:]
    assert run(capsys, *argv)[0] in (EXIT_OK, EXIT_UNKNOWN, EXIT_SEPARATED)


# a command and operands that read each bound or depth option
BOUND_OPTIONS = [
    ("separate", ["a::[]", "b::[]"], "--carrier-bound"),
    ("eq", ["a::[]", "b::[]"], "--carrier-bound"),
    ("enumerate", [], "--size-bound"),
    ("enumerate", [], "--max-rounds"),
    ("elaborate", [], "--probe"),
]


@pytest.mark.parametrize("command, operands, option", BOUND_OPTIONS)
@pytest.mark.parametrize("value", ["-1", "two"])
def test_a_bound_that_is_not_a_whole_number_is_a_usage_error(
    capsys, fixtures, command, operands, option, value
):
    argv = [command, str(fixtures / "bag.qit"), *operands, option, value]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err) == {
        "error": "usage",
        "message": f"argument {option}: want a whole number, 0 or more, got {value!r}",
    }


@pytest.mark.parametrize("command, operands, option", BOUND_OPTIONS)
def test_a_bound_of_zero_is_accepted(capsys, fixtures, command, operands, option):
    argv = [command, str(fixtures / "bag.qit"), *operands, option, "0"]
    assert run(capsys, *argv)[0] in (EXIT_OK, EXIT_UNKNOWN, EXIT_SEPARATED)


def test_console_entry_point(fixtures):
    proc = subprocess.run(
        [sys.executable, "-m", "qitbench.cli", "check", str(fixtures / "bag.qit")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Bag: ok" in proc.stdout


@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [
        (
            ("bag.qit",), EXIT_OK,
            "e7d52d5caf85d1db84784fb5885ecbc5fcdbefbf0319c9b2d41e4d01e75fe247",
        ),
        (
            ("bag.qit", "--algebra", "length_algebra.json"), EXIT_OK,
            "e7d52d5caf85d1db84784fb5885ecbc5fcdbefbf0319c9b2d41e4d01e75fe247",
        ),
        (
            ("bag.qit", "--algebra", "corrupted_length_algebra.json"),
            EXIT_CHECK_FAILED,
            "cbaa008d5c3c798daa208d4fb292eee1aba1044dfa1d9604eff47d9d23f2fb18",
        ),
        (
            ("wreductions.qit", "--free", "v", "--size-bound", "3"), EXIT_OK,
            "1d954d428dcb68782fa99622101a825a3c38e7f069c1e34d2037c57ebcdda936",
        ),
        (  # checked 687, skipped 121,396,228, replay 294
            ("omega_tree.qit", "--size-bound", "3"), EXIT_OK,
            "360c4f75f161218322058a4da33612053fad31af3c2b8e76bba9ac58fd09e10c",
        ),
        (  # no round runs, so the carrier check is unknown at swap(a,b)
            ("bag.qit", "--max-rounds", "0", "--algebra", "corrupted_length_algebra.json"),
            EXIT_UNKNOWN,
            "6d8ba07bba79d6d1a0610b004327eda7ee483fb774c26ae9158130e97a584a9a",
        ),
    ],
)
def test_selftest_json_output_is_pinned(capsys, fixtures, argv, exit_code, digest):
    # the whole report as bytes, the law walks' counts and counterexamples
    # included
    argv = [str(fixtures / a) if a.endswith((".qit", ".json")) else a for a in argv]
    code, out, err = run(capsys, "selftest", *argv, "--format", "json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_selftest_makes_one_carrier_walk(capsys, fixtures, monkeypatch):
    # the equation check's report also settles the constant target's
    # coherence premise: no second walk
    from qitbench import cli, engine, initiality

    calls = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    def forbid(module, name):
        monkeypatch.setattr(module, name, lambda *a, **kw: pytest.fail(f"{name} called"))

    spy(cli, "check_equations_hold")
    spy(engine, "_carrier_walk")
    forbid(initiality, "_carrier_walk")
    forbid(initiality, "check_coherence")
    forbid(initiality, "dep_target")
    code, out, err = run(capsys, "selftest", str(fixtures / "bag.qit"), "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e7d52d5caf85d1db84784fb5885ecbc5fcdbefbf0319c9b2d41e4d01e75fe247"
    )
    assert calls == ["check_equations_hold", "_carrier_walk"]


def test_selftest_uniqueness_reads_the_evaluated_representatives(capsys, fixtures, monkeypatch):
    # the map that uniqueness checks is each enumerated representative
    # evaluated in the algebra, not recursion: an evaluation wrong on one
    # class fails uniqueness, and only uniqueness
    from qitbench import cli

    real, terms = cli.eval_alg, []

    def wrong_on_a_b(t, env, alg):
        terms.append(t)
        value = real(t, env, alg)
        return (value + 1) % 5 if t == bag_term(["a", "b"]) else value

    argv = [
        "selftest", str(fixtures / "bag.qit"),
        "--algebra", str(fixtures / "length_algebra.json"), "--format", "json",
    ]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    right = json.loads(out)
    monkeypatch.setattr(cli, "eval_alg", wrong_on_a_b)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    wrong = json.loads(out)
    assert len(terms) == wrong["enumeration"]["classes"]
    assert bag_term(["a", "b"]) in terms
    assert wrong["uniqueness"]["verdict"] == "premise-counterexample"
    assert wrong == {**right, "uniqueness": wrong["uniqueness"], "verdict": "failed"}


def test_selftest_reports_a_replay_failure(capsys, fixtures, monkeypatch):
    # a merge that does not re-derive fails the replay line and the verdict,
    # and only those
    from qitbench import cli

    argv = ["selftest", str(fixtures / "bag.qit"), "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    right = json.loads(out)

    def refuse(state):
        raise ReplayError("congruence merge 3 ~ 7 does not re-derive")

    monkeypatch.setattr(cli, "replay_merges", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    wrong = json.loads(out)
    assert wrong["replay"] == {
        "verdict": "failed", "message": "congruence merge 3 ~ 7 does not re-derive"
    }
    assert wrong == {**right, "replay": wrong["replay"], "verdict": "failed"}


@pytest.mark.parametrize(
    "argv, max_instances, equation",
    [
        # no round runs
        (("bag.qit", "--max-rounds", "0"), None, "swap(a,b)"),
        # no round runs; the 59,582 environments are inside the one carrier
        # budget
        (("omega_tree.qit", "--size-bound", "4", "--max-rounds", "0"), None,
         "perm(a,{0->1,1->0})"),
        # a round stops after 4 instances
        (("bag.qit", "--size-bound", "3", "--max-rounds", "2"), 4, "swap(a,b)"),
    ],
)
def test_selftest_is_unknown_on_a_carrier_its_budget_left_unsaturated(
    capsys, fixtures, monkeypatch, argv, max_instances, equation
):
    # sides that a budgeted saturation left apart prove nothing: the carrier
    # check raises the budget note, and no report or premise failure follows
    from qitbench import cli

    if max_instances is not None:
        real = cli.new_qw
        monkeypatch.setattr(
            cli, "new_qw", lambda *a, **kw: real(*a, max_instances=max_instances, **kw)
        )
    path, *options = argv
    code, out, err = run(capsys, "selftest", str(fixtures / path), *options, "--format", "json")
    assert code == EXIT_UNKNOWN
    assert out == (
        '{\n  "note": "saturation budget exhausted before the sides of '
        f'{equation} were proved equal",\n  "verdict": "unknown"\n}}\n'
    )
    assert err == ""
