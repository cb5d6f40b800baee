"""Checks of the benchmark itself: every workload passes its references at
a tiny size, wrong answers are counted as failed verdicts, a timed call is
scaled by the gauges around it, the result line matches BENCHMARK.json,
and without the program source the run fails.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gauge  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

CORRUPTED = ROOT / "tests" / "fixtures" / "corrupted_length_algebra.json"


def measure(workload, trace=False, seed=1):
    return run.run_workload(workload, seed, 0, trace)


def corrupted_length_target(api):
    """The corrupted length algebra of the test fixtures (over {a, b}),
    with ``cons(c)`` read as in the length algebra."""
    obj = json.loads(CORRUPTED.read_text())
    table = {(row["op"], tuple(row["branches"])): row["value"] for row in obj["table"]}

    def interp(op, branches):
        if op == "cons(c)":
            return min(branches[0] + 1, 4)
        return table[(op, tuple(branches))]

    return api.terms.FiniteAlgebra(tuple(obj["carrier"]), interp, name=obj["name"])


class BenchTest(unittest.TestCase):
    def setUp(self):
        self._reps = run.SETUP_REPS
        run.SETUP_REPS = 2

    def tearDown(self):
        run.SETUP_REPS = self._reps

    def assertFails(self, result, text):
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any(text in f for f in result["failures"]), result["failures"])

    def test_tiny_workloads_pass_their_references(self):
        for name, make in W.TINY.items():
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    res = measure(make(), trace)
                    self.assertEqual(res["failures"], [])
                    self.assertGreater(res["attempted"], 0)

    def test_traced_enumeration_matches_untraced(self):
        api = W.import_program()
        inst = api.encodings.ordinal_notations(probe=2)
        _, sig, system = W.bag_setup(api, NullTracer(), W.BAG3)
        for sig, system, size in ((sig, system, 5), (inst.signature, inst.system, 4)):
            got = []
            for tr in (NullTracer(), Tracer()):
                state = api.engine.new_qw(sig, system)
                classes = W.enumerate_step(api, state, size, tr)
                got.append([(c.index, api.terms.term_key(t)) for c, t in classes])
            self.assertEqual(got[0], got[1])

    def test_corrupted_target_is_a_failed_verdict(self):
        res = measure(W.bag3_selftest(3, target=corrupted_length_target))
        self.assertFails(res, "does not satisfy")
        res = measure(W.bag3_session(20, target=corrupted_length_target))
        self.assertFails(res, "WorkbenchError")

    def test_wrong_recursion_values_are_failed_verdicts(self):
        # counts of a satisfy the swap laws, so only the benchmark's own
        # reference (the list length) can tell the values are wrong
        count_a = lambda api: api.encodings.count_algebra("a", 4)
        self.assertFails(measure(W.bag3_selftest(3, target=count_a)), "qw_rec gave")
        self.assertFails(measure(W.bag3_session(30, target=count_a)), "qw_rec gave")

    def test_perturbed_expectations_are_failed_verdicts(self):
        self.assertFails(measure(W.bag3_enumerate(4, expected_classes=21)), "expected 21")
        q = W.SEPARATE_TINY[0]
        wrong = W.SeparatorQuery(q.left, q.right, q.carrier_bound, {**q.pinned, "nil": [1]})
        self.assertFails(measure(W.bag2_separate((wrong,))), "pinned")
        session = W.bag3_session(30)
        honest = session.inputs
        session.inputs = lambda seed, k: [op[:-1] + (not op[-1],) if op[0] == "read" else op
                                          for op in honest(seed, k)]
        self.assertFails(measure(session), "the oracle")

    def test_timed_call_is_scaled_by_the_gauges_around_it(self):
        out, t = gauge.timed(lambda: sum(range(1000)))
        self.assertEqual(out, 499500)
        self.assertGreater(t.raw_s, 0)
        self.assertGreater(t.scale, 0)
        self.assertEqual(t.seconds, t.raw_s * t.scale)

    def test_session_inputs_follow_the_seed(self):
        inputs = W.bag3_session(50).inputs
        self.assertEqual(inputs(7, 0), inputs(7, 0))
        self.assertNotEqual(inputs(7, 0), inputs(8, 0))
        self.assertNotEqual(inputs(7, 0), inputs(7, 1))
        kinds = [op[0] for op in W.session_ops("1/0", 300)]
        self.assertEqual([kinds.count(k) for k in ("write", "read", "rec")], [120, 120, 60])
        self.assertEqual(kinds[0], "write")

    def test_result_line_names_the_declared_metrics(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(declared["workloads"][i]["name"] for i in range(5)),
                         sorted(W.WORKLOADS))
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(run.last_line(measure(W.TINY["bag3-session"](), trace)))
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            self.assertEqual(got, want)

    def test_run_without_the_program_source_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "bag2-separate", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
