from __future__ import annotations

import hashlib
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
from qitbench.encodings import length_algebra
from qitbench.equations import sat_check
from qitbench.errors import WorkbenchError


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


def test_missing_file_is_io_error(capsys, fixtures):
    code, out, err = run(capsys, "check", str(fixtures / "missing.qit"))
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "io"


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
    # the search alone overruns its 500000 cells at carrier 5 on this pair
    bag = str(fixtures / "bag.qit")
    argv = ("separate", bag, "a::b::[]", "b::a::[]", "--carrier-bound", "5")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_UNKNOWN, "not found within the carrier bound\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (
        EXIT_UNKNOWN, '{\n  "carrier_bound": 5,\n  "verdict": "not-found"\n}\n'
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
    assert "exceed the budget" in payload["note"]
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


def test_console_entry_point(fixtures):
    proc = subprocess.run(
        [sys.executable, "-m", "qitbench.cli", "check", str(fixtures / "bag.qit")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Bag: ok" in proc.stdout
