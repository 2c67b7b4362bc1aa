#!/usr/bin/env python3
"""Benchmark for the exact pipeline: NCCR verification, poset analysis and
cone MCM regions.

    python3 bench/run.py --workload nccr-verify --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and from nowhere else.  With ``--trace 0`` the run makes
whole passes over the workload's operations for the given number of seconds
and reports the end-to-end metrics, every time scaled to the reference speed
(see ``speed.py``); with ``--trace 1`` it makes one untraced and one traced
pass and reports the per-layer metrics.
Every operation's output is checked against an independent computation
(see ``oracles.py``).  The last line of stdout is one JSON object; the full
result, with per-operation digests, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9


def load_program():
    """Import ``hibinccr`` afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "hibinccr" or n.startswith("hibinccr.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    h = importlib.import_module("hibinccr")
    importlib.import_module("hibinccr.cli")
    return h


def setup(workload: str, seed: int, meter):
    """Import the program, then generate and write the workload's inputs:
    ((start, end, reference seconds inside), program, operations)."""
    import workloads
    spent, start = meter.spent, time.perf_counter()
    h = load_program()
    ops = workloads.WORKLOADS[workload](seed, workloads.Inputs(OUT / "inputs" / workload))
    return (start, time.perf_counter(), meter.spent - spent), h, ops


def digest(result) -> str:
    text = result.digest_text() if hasattr(result, "digest_text") else repr(result)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(h, ops, meter, tracer=None):
    """One pass over the operations, with a reference sample after each:
    (wall seconds without the reference samples,
     [(output, error, (start, end, reference seconds inside), state)])."""
    state: dict = {}
    outcomes = []
    start, spent = time.perf_counter(), meter.spent
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        spent, t0 = meter.spent, time.perf_counter()
        try:
            result, error = op.call(h, state), None
        except Exception as exc:  # counted as a failed operation; the pass goes on
            result = None
            error = "".join(traceback.format_exception_only(exc)).strip()
            frames = traceback.extract_tb(exc.__traceback__)
            error += f" [in {frames[-1].name}, {Path(frames[-1].filename).name}:{frames[-1].lineno}]"
        outcomes.append((result, error, (t0, time.perf_counter(), meter.spent - spent), state))
        meter.sample()
    return time.perf_counter() - start - (meter.spent - spent), outcomes


def judge(ops, outcomes, reference):
    """Mark each outcome: ok, an exception, or a wrong output.  The first pass
    is checked against the oracles; later passes must repeat its digests."""
    import oracles
    verdicts = []
    for i, (op, (result, error, _, state)) in enumerate(zip(ops, outcomes)):
        if error is not None:
            verdicts.append(("error", error, None))
            continue
        d = digest(result)
        if reference is not None:
            ok = reference[i] == d
            verdicts.append(("ok", None, d) if ok else ("wrong", "output changed between passes", d))
            continue
        try:
            op.check(result, state)
            verdicts.append(("ok", None, d))
        except oracles.CheckFailed as exc:
            verdicts.append(("wrong", str(exc), d))
        except Exception as exc:  # a check that cannot run on the output is a wrong output
            verdicts.append(("wrong", f"check raised {type(exc).__name__}: {exc}", d))
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("nccr-verify", "poset-analyze", "cone-mcm"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hibinccr" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program to measure: {src}/hibinccr is missing\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    import speed
    meter = speed.Speedometer()
    for _ in range(speed.MIN_SAMPLES):
        meter.sample()
    meter.start()
    try:
        return measure(args, src, meter)
    finally:
        meter.stop()


def measure(args, src, meter) -> int:
    """Set-ups and passes, sampled by the running meter; then the result."""
    import speed
    setups = []  # (start, end, reference seconds inside) of each set-up
    for _ in range(SETUP_REPEATS):
        interval, h, ops = setup(args.workload, args.seed, meter)
        setups.append(interval)
        meter.sample()
    if Path(h.__file__).resolve().parent != (src / "hibinccr").resolve():
        sys.stderr.write(f"error: imported hibinccr from {h.__file__}, not from {src}\n")
        return 2

    passes = []       # (wall, traced) per pass
    verdicts_all = []
    per_op = [[] for _ in ops]  # intervals of each operation, pass by pass
    reference = None
    tracer = None
    begin = time.perf_counter()
    while True:
        h = load_program()  # each pass starts from a fresh import, as a new process would
        traced = args.trace == 1 and len(passes) == 1
        if traced:  # no samples inside operations: they would add to the spans
            import tracing
            meter.stop()
            tracer = tracing.Tracer()
            tracer.install()
        try:
            wall, outcomes = run_pass(h, ops, meter, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
                meter.start()
        verdicts = judge(ops, outcomes, reference)
        if reference is None:
            reference = [v[2] for v in verdicts]
        verdicts_all.append(verdicts)
        passes.append((wall, traced))
        for k, o in enumerate(outcomes):
            per_op[k].append(o[2])
        elapsed = time.perf_counter() - begin
        if args.trace == 1:
            if len(passes) == 2:
                break
        elif elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break  # the next pass, as long as the mean so far, would overrun

    meter.stop()
    attempted = len(ops) * len(passes)
    failed = sum(1 for vs in verdicts_all for v in vs if v[0] != "ok")
    correct = all(v[0] != "wrong" for vs in verdicts_all for v in vs)
    # Each operation's time at the reference speed, as the median of its
    # untraced samples (several passes, and repeats within a pass).
    samples: dict[str, list[float]] = {}
    for op, intervals in zip(ops, per_op):
        samples.setdefault(op.name, []).extend(
            meter.scaled(iv) for iv, (_, traced) in zip(intervals, passes) if not traced)
    typical = [statistics.median(v) for v in samples.values()]
    setup_scaled = [meter.scaled(iv) for iv in setups]

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "run_s": (sum(typical), "s"),
            "op_p50_ms": (statistics.median(typical) * 1000.0, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        metrics = tracer.metrics()
        untraced, traced = (sum(meter.scaled(iv[k]) for iv in per_op) for k in (0, 1))
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")

    first = verdicts_all[0]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"python": sys.version.split()[0], "implementation":
                        platform.python_implementation(), "platform": platform.platform(),
                        "machine": platform.machine(), "nproc": os.cpu_count()},
        "reference": {"nominal_s": speed.REFERENCE_S, "median_s": meter.median_s(),
                      "at": meter.mids, "seconds": meter.secs},
        "setup_intervals": setups,
        "passes": [{"wall_s": w, "traced": t} for w, t in passes],
        "setup_s": [t1 - t0 - inside for t0, t1, inside in setups],
        "setup_scaled_s": setup_scaled,
        "op_samples": len(ops) * sum(1 for _, traced in passes if not traced),
        "ops": [{"name": op.name, "status": v[0], "detail": v[1], "digest": v[2],
                 "intervals": iv, "seconds": [t1 - t0 - inside for t0, t1, inside in iv],
                 "scaled_s": [meter.scaled(x) for x in iv]}
                for op, v, iv in zip(ops, first, per_op)],
        "attempted": attempted, "failed": failed, "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return finish(args, result, ops, verdicts_all)


def finish(args, result, ops, verdicts_all) -> int:
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for op, (status, detail, _) in zip(ops, verdicts_all[0]):
        if status != "ok":
            print(f"{status}: {op.name}: {detail}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"passes {len(result['passes'])}, operations {len(ops)} per pass, "
          f"op latency samples {result['op_samples']}; details in {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
