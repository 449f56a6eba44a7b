"""Closed-loop benchmark of dxext: one caller, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
src/ directory.  The run sets up the workload several times (a fresh
import of dxext plus building the inputs from the seed), then repeats
the workload's batch of ops until the next batch would end after S
seconds, and checks every op's result.  The last line of standard
output is the result object; the line before it holds the details
(Python version, CPU count, wall and CPU time of the run and of each
batch, the failures, and with tracing the per-layer counters and
absent hooks).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an
untraced and a traced batch and reports the per-layer metrics of the
traced batches, plus the tracing overhead; spans go to
perfbench/out/<workload>-seed<N>.spans.jsonl.  See perfbench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 11

# Counters that must repeat exactly between traced batches of one run
# (and between runs of the same code and seed).
EXACT_COUNTS = (
    "weyl.mul_calls", "linalg.add_calls", "linalg.reduce_calls", "linalg.solve_calls",
    "models.act_word_calls", "linalg.rank", "linalg.nnz", "linalg.max_coeff_bits",
    "hyperext.final_width",
)

# per-layer metric -> (hook name, field): field 0 = calls, 2 = self seconds
SPAN_METRICS = {
    "weyl.mul_calls": ("weyl.mul", 0),
    "weyl.mul_s": ("weyl.mul", 2),
    "grading.vector_s": ("grading.vector", 2),
    "linalg.add_calls": ("linalg.add", 0),
    "linalg.add_s": ("linalg.add", 2),
    "hyperext.widen_s": ("hyperext.widen", 2),
    "linalg.reduce_calls": ("linalg.reduce", 0),
    "linalg.reduce_s": ("linalg.reduce", 2),
    "models.act_word_calls": ("models.act_word", 0),
    "models.act_word_s": ("models.act_word", 2),
    "models.dxq_reduce_s": ("models.dxq_reduce", 2),
    "hyperext.module_index_s": ("hyperext.module_index", 2),
    "rewrite.confluence_s": ("rewrite.confluence", 2),
    "linalg.solve_calls": ("linalg.solve", 0),
    "linalg.solve_s": ("linalg.solve", 2),
    "hyperext.twist_s": ("hyperext.twist", 2),
    "rewrite.system_build_s": ("rewrite.system_build", 2),
    "rewrite.nf_s": ("rewrite.nf", 2),
    "quotients.s": ("quotients", 2),
}


def _unit(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_calls") or name in ("linalg.rank", "linalg.nnz", "hyperext.final_width"):
        return "count"
    if name == "linalg.max_coeff_bits":
        return "bits"
    if name == "linalg.add_useful_ratio":
        return "ratio"
    return "s"


def percentile(values, q):
    """Linear interpolation between closest ranks (statistics 'inclusive')."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fresh_import():
    """Import dxext from src/, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "dxext" or m.startswith("dxext.")]:
        del sys.modules[name]
    dx = importlib.import_module("dxext")
    if Path(dx.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"dxext was imported from {dx.__file__}, not from {SRC}")
    return dx


def setup(workload, seed, trace):
    """SETUP_REPS fresh imports plus input builds; the last build is used.

    Returns (ops, seconds per rep, parse self-seconds per rep, tracer);
    the tracer is attached to the last import.  Hook installation is
    harness work and is not timed.
    """
    seconds, parse_s = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        dx = fresh_import()
        imported = time.perf_counter() - start
        if trace:
            tracer = Tracer()
            tracer.attach()
            tracer.install()
        start = time.perf_counter()
        ops = WORKLOADS[workload](dx, seed)
        seconds.append(imported + time.perf_counter() - start)
        if trace:
            tracer.uninstall()
            parse_s.append(tracer.stats.get("parser.parse", [0, 0.0, 0.0])[2])
    return ops, seconds, parse_s, tracer if trace else None


def _final_width(result):
    """Largest generator_width note among the tables in an op result."""
    tables = result if isinstance(result, tuple) else (result, getattr(result, "ext1", None))
    widths = [t.notes.get("generator_width", 0) for t in tables if hasattr(t, "notes")]
    return max(widths, default=0)


def run_batch(ops, tracer=None):
    """Run every op once, closed loop; returns per-op records and results."""
    gc.collect()
    records, results = [], []
    if tracer is not None:
        tracer.reset_stats()
        tracer.install()
    sizes = [0, 0, 0]
    width = 0
    try:
        for op in ops:
            frame = tracer.begin_op() if tracer is not None else None
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failing op is counted, the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            cpu = time.process_time() - cpu0
            if tracer is not None:
                tracer.end_op(frame, op.label, start, end)
                rank, nnz, bits = tracer.take_echelon_sizes()
                sizes = [max(sizes[0], rank), max(sizes[1], nnz), max(sizes[2], bits)]
                if error is None:
                    width = max(width, _final_width(result))
            records.append((end - start, cpu))
            results.append((result, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    layers = None
    if tracer is not None:
        stats = tracer.snapshot()
        layers = {}
        for name, (hook, field) in SPAN_METRICS.items():
            layers[name] = stats.get(hook, [0, 0.0, 0.0, 0])[field]
        adds = stats.get("linalg.add", [0, 0.0, 0.0, 0])
        layers["linalg.add_useful_ratio"] = adds[3] / adds[0] if adds[0] else 0.0
        layers["linalg.rank"], layers["linalg.nnz"], layers["linalg.max_coeff_bits"] = sizes
        layers["hyperext.final_width"] = width
    return records, results, layers


def check_results(ops, results):
    """[(index, observed, expected, error)] for every op; error is None on pass."""
    out = []
    for i, (op, (result, error)) in enumerate(zip(ops, results)):
        observed = expected = None
        if error is None:
            try:
                observed, expected = op.check(result)
                if observed != expected:
                    error = "mismatch"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        out.append((i, observed, expected, error))
    return out


def _wrong(value):
    """A deliberately wrong expectation of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, (list, tuple)) and value:
        return type(value)([_wrong(value[0]), *value[1:]])
    return ("wrong", value)


def self_check(checked, seed):
    """A wrong expectation on one passing op must fail exactly that op."""
    passing = [i for i, _, _, error in checked if error is None]
    if not passing:
        return "skipped: no passing op"
    target = passing[seed % len(passing)]
    failed = {i for i, observed, expected, error in checked
              if error is not None or observed != (_wrong(expected) if i == target else expected)}
    genuine = {i for i, _, _, error in checked if error is not None}
    return "ok" if failed == genuine | {target} else f"failed: flagged {sorted(failed)}, wanted {target}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    if not (SRC / "dxext" / "__init__.py").is_file():
        print(f"error: no dxext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ops, setup_s, parse_s, tracer = setup(args.workload, args.seed, args.trace)

    batches = []  # (traced, per-op records, layer metrics)
    failures = []
    attempted = failed = 0
    selfcheck = None
    begin = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        if tracer is None:
            modes = [None]
        else:
            # untraced and traced batches alternate which goes first
            modes = [None, tracer] if len(batches) % 4 == 0 else [tracer, None]
        for mode in modes:
            records, results, layers = run_batch(ops, mode)
            checked = check_results(ops, results)
            if selfcheck is None:
                selfcheck = self_check(checked, args.seed)
            batches.append((mode is not None, records, layers))
            attempted += len(ops)
            for i, _, _, error in checked:
                if error is not None:
                    failed += 1
                    if len(failures) < 20:
                        failures.append({"batch": len(batches) - 1, "op": ops[i].label, "error": error})
        now = time.perf_counter()
        if now - begin + (now - unit_start) > args.seconds:
            break

    plain = [b for b in batches if not b[0]]
    traced = [b for b in batches if b[0]]
    walls = [sum(r[0] for r in recs) for _, recs, _ in plain]
    per_op = [statistics.median(recs[i][0] for _, recs, _ in plain) for i in range(len(ops))]
    p90 = percentile(per_op, 0.9)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "batches": [
            {"traced": t, "wall_s": sum(r[0] for r in recs), "cpu_s": sum(r[1] for r in recs)}
            for t, recs, _ in batches
        ],
        "setup_s": setup_s,
        "op_count": len(ops),
        "op_p90_beyond": sum(1 for v in per_op if v > p90),
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "failures": failures,
        "selfcheck": selfcheck,
    }
    correct = failed == 0 and selfcheck == "ok"

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "op_p50_s": percentile(per_op, 0.5),
            "op_p90_s": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        layer_runs = [layers for _, _, layers in traced]
        metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        metrics["parser.parse_s"] = statistics.median(parse_s)
        traced_walls = [sum(r[0] for r in recs) for _, recs, _ in traced]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        drift = sorted(name for name in EXACT_COUNTS if len({run[name] for run in layer_runs}) > 1)
        if drift:
            correct = False
        detail.update({
            "absent": tracer.absent,
            "counts": {name: layer_runs[0][name] for name in EXACT_COUNTS},
            "count_drift": drift,
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped,
        })
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")

    usage = resource.getrusage(resource.RUSAGE_SELF)
    detail["run_wall_s"] = time.perf_counter() - run_start
    detail["run_cpu_s"] = usage.ru_utime + usage.ru_stime
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
