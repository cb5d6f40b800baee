"""Benchmark of qitbench: time to a verdict, end to end and by layer.

Run one workload (the last line of the output is one JSON object):

    python3 bench/run.py --workload bag3-enumerate --seed 1 --seconds 20 --trace 0

Run every workload, one after another, each in a fresh process, untraced
and then traced, and print every metric by name with its unit:

    python3 bench/run.py --all --seed 1 --seconds 20

Untraced (``--trace 0``) a run reports the end-to-end metrics, its times
scaled to a reference host speed by the gauges of ``gauge.py``; traced
(``--trace 1``) it alternates traced and untraced passes and reports the
per-layer metrics, the tracing overhead, and writes its spans to
``bench/out/``.  The harness uses the standard library only, runs in one
thread, and imports the program from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from gauge import Timing, timed
from tracing import NullTracer, Tracer
from workloads import WORKLOADS, Verdicts, Workload, import_program

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

clock = time.perf_counter

SETUP_REPS = 11
MIN_PASSES = 4

# Span names of the public calls each layer is timed around.
LAYERS = (
    "schema.parse_decl",
    "schema.elaborate",
    "schema.parse_ground_term",
    "engine.closed_terms",
    "engine.intern",
    "engine.saturate",
    "engine.representatives",
    "engine.decide_eq",
    "engine.check_equations_hold",
    "engine.replay_merges",
    "engine.find_separator",
    "initiality.qw_rec",
    "initiality.check_rec_hom",
    "initiality.check_uniq",
    "initiality.dep_target",
    "initiality.check_comp",
    "equations.sat_check",
)
# Metric name -> counter read off the spans, per pass.
CALLS = {
    "schema.parse_ground_term.calls": "schema.parse_ground_term",
    "engine.intern.calls": "engine.intern",
    "engine.saturate.calls": "engine.saturate",
    "engine.decide_eq.calls": "engine.decide_eq",
    "engine.find_separator.calls": "engine.find_separator",
    "initiality.qw_rec.calls": "initiality.qw_rec",
}
COUNTS = {
    "engine.closed_terms.terms": "engine.closed_terms.terms",
    "engine.saturate.rounds": "engine.saturate.rounds",
    "engine.saturate.merges": "engine.saturate.merges",
    "engine.saturate.new_classes": "engine.saturate.new_classes",
    "engine.classes": "engine.representatives.classes",
    "engine.decide_eq.proved": "engine.decide_eq.proved",
    "engine.decide_eq.derivation_steps": "engine.decide_eq.derivation_steps",
    "engine.replay_merges.validated": "engine.replay_merges.validated",
    "engine.find_separator.found": "engine.find_separator.found",
    "initiality.check_rec_hom.checked": "initiality.check_rec_hom.checked",
    "initiality.check_rec_hom.skipped": "initiality.check_rec_hom.skipped",
    "initiality.check_comp.checked": "initiality.check_comp.checked",
}
# Ratio metric -> (numerator counter, denominator counter or call name).
RATIOS = {
    "engine.intern.fresh_share": ("engine.intern.fresh", "engine.intern"),
    "engine.saturate.idle_share": ("engine.saturate.idle", "engine.saturate"),
    "engine.merges_per_closed_term": ("engine.saturate.merges", "engine.closed_terms.terms"),
    "session.fresh_write_share": ("session.write.fresh", "session.write"),
}


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile, q a multiple of 10, interpolated inside the data."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[q // 10 - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, set up SETUP_REPS times, then run passes for ``seconds``
    (at least MIN_PASSES), checking each pass's verdicts untimed.  Every
    set-up and pass is timed between two gauges of the host's speed
    (gauge.py), and its time is scaled to the reference host's speed."""
    verdicts = Verdicts()
    tracer = Tracer() if trace else NullTracer()
    untraced = NullTracer()
    setup_times: list[Timing] = []
    pass_times: dict[bool, list[Timing]] = {False: [], True: []}
    op_times: list[float] = []
    peak_rss_mb = 0.0
    try:
        # Warm-up: one set-up and one pass, checked but neither timed nor
        # gauged.  The peak RSS is read here, before the first gauge, so
        # that it is the program's alone.
        api = import_program()
        ctx = w.setup(api, untraced)
        inputs = w.inputs(seed, 0)
        w.check(ctx, inputs, w.run(ctx, inputs, untraced), verdicts)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ctx = None

        def set_up():
            with tracer.span("setup"):
                with tracer.span("import"):
                    api = import_program()
                return api, w.setup(api, tracer)

        for i in range(SETUP_REPS):
            ctx = None  # drop the previous set-up and its import first
            tracer.begin_pass(f"setup-{i}")
            (api, ctx), t = timed(set_up)
            setup_times.append(t)
        if not Path(api.engine.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported the program from {api.engine.__file__}, not {SRC}")
        start = clock()
        k = 0
        while k < MIN_PASSES or clock() - start < seconds:
            traced = trace and k % 2 == 1
            tr = tracer if traced else untraced
            # a traced pass repeats the inputs of the untraced pass before it
            inputs = w.inputs(seed, k // 2 if trace else k)
            tr.begin_pass(f"pass-{k}")
            out, t = timed(lambda: one_pass(w, ctx, inputs, tr))
            pass_times[traced].append(t)
            if not traced:
                op_times.extend(op * t.scale for op in getattr(out, "op_times", ()))
            w.check(ctx, inputs, out, verdicts)
            out = None
            k += 1
    except Exception as exc:  # any exception is a failed verdict
        traceback.print_exc()
        verdicts.check(False, f"{type(exc).__name__}: {exc}")

    untraced_s = [t.seconds for t in pass_times[False]]
    # a pass is the one request of a workload that is not a session
    ops = op_times or untraced_s
    e2e = {
        "setup_s": (median(t.seconds for t in setup_times), "s"),
        "verdict_s": (median(untraced_s), "s"),
        "op_p50_s": (median(ops), "s"),
        "op_p90_s": (quantile(ops, 90) if ops else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    result = {
        "workload": w.name,
        "seed": seed,
        "uses_seed": w.uses_seed,
        "trace": int(trace),
        "setups": len(setup_times),
        "passes": len(pass_times[False]) + len(pass_times[True]),
        "op_samples": len(ops),
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "failures": verdicts.failures[:20],
        # the wall times the scaled metrics come from, and the scale
        "unscaled": {
            "setup_wall_s": (median(t.raw_s for t in setup_times), "s"),
            "verdict_wall_s": (median(t.raw_s for t in pass_times[False]), "s"),
            "host_scale": (median(t.scale for t in pass_times[False]), "ratio"),
        },
    }
    if not trace:
        result["metrics"] = e2e
        return result
    layer, times = layer_metrics(tracer)
    traced_s = median(t.seconds for t in pass_times[True])
    times["trace.verdict_s"] = (traced_s, "s")
    times["trace.untraced_verdict_s"] = (median(untraced_s), "s")
    times["trace.overhead_s"] = (traced_s - median(untraced_s), "s")
    result["metrics"] = layer
    result["layer_times"] = times
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{w.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "spans": tracer.to_json()}, fh)
    result["trace_file"] = str(path.relative_to(ROOT))
    return result


def one_pass(w: Workload, ctx, inputs, tr):
    with tr.span("pass"):
        return w.run(ctx, inputs, tr)


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the spans: the median over set-ups plus the
    median over traced passes, so a layer counts in the phase it runs in."""
    agg = tracer.by_pass()
    phases = [
        [a for pid, a in agg.items() if pid.startswith(prefix)] for prefix in ("setup-", "pass-")
    ]

    def per_phase(get) -> list[float]:
        return [median(get(a) for a in units) for units in phases]

    def both(get) -> float:
        return sum(per_phase(get))

    walls = per_phase(lambda a: a["wall"])
    metrics: dict[str, tuple[float, str]] = {}
    times: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        setup_self, pass_self = per_phase(lambda a: a["self"].get(name, 0.0))
        times[f"{name}_s"] = (setup_self + pass_self, "s")
        # share of the phase the layer runs in: the pass, else the set-up
        share = pass_self / walls[1] if pass_self else setup_self / walls[0]
        metrics[f"{name}.share"] = (share, "ratio")
    for metric, name in CALLS.items():
        metrics[metric] = (both(lambda a: a["calls"].get(name, 0)), "count")
    for metric, key in COUNTS.items():
        metrics[metric] = (both(lambda a: a["counts"].get(key, 0)), "count")
    for metric, (num, den) in RATIOS.items():
        top = both(lambda a: a["counts"].get(num, 0))
        bottom = both(lambda a: a["counts"].get(den, 0) or a["calls"].get(den, 0))
        metrics[metric] = (top / bottom if bottom else 0.0, "ratio")
    return metrics, times


def human(result: dict) -> list[str]:
    lines = [
        f"{result['workload']} seed={result['seed']}"
        f"{'' if result['uses_seed'] else ' (ignores the seed)'} trace={result['trace']}:"
        f" {result['setups']} set-ups, {result['passes']} passes"
    ]
    rows = dict(result["metrics"])
    rows.update(result.get("layer_times", {}))
    rows.update(result["unscaled"])
    rows["error_rate"] = (result["failed"] / max(result["attempted"], 1), "ratio")
    for name, (value, unit) in rows.items():
        note = ""
        if name in ("op_p50_s", "op_p90_s"):
            note = f"  (n={result['op_samples']})"
        elif name == "error_rate":
            note = f"  ({result['failed']} of {result['attempted']} verdicts failed)"
        lines.append(f"  {name:<36} {value:>14.6g} {unit}{note}")
    for failure in result["failures"]:
        lines.append(f"  FAILED: {failure}")
    if "trace_file" in result:
        lines.append(f"  spans written to {result['trace_file']}")
    return lines


def last_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }
    )


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr)
                ok = False
                continue
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            summary[f"{name}/trace{trace}"] = res["correct"]
    print(json.dumps({"correct": ok, "runs": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "qitbench" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'qitbench'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        p.error("give --workload NAME or --all")
    result = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print("\n".join(human(result)))
    print(last_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
