"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wide-2048 --seed 1 --seconds 20 --trace 0

Closed loop with one caller: operations run back to back in this process
until ``--seconds`` have passed. With ``--trace 0`` the last line of stdout
holds the end-to-end metrics; with ``--trace 1`` traced and untraced
operations alternate and it holds the per-layer metrics. Full results go to
``perfbench/results/``. See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# What the results file keeps of each operation's record.
OPERATION_KEYS = ("instance", "traced", "timed", "seconds", "digest", "problems")


def parse_args(argv):
    p = argparse.ArgumentParser(description="Time scapre edits end to end or layer by layer.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="inputs are drawn from this seed")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    if not (SRC / "scapre" / "__init__.py").is_file():
        print(f"error: no scapre sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # NumPy fixes its BLAS thread count when it loads, so every import that
    # reaches it comes after the environment above.
    t0 = time.perf_counter()
    import measure
    import scapre
    import tracing
    import workloads

    import_s = time.perf_counter() - t0
    if Path(scapre.__file__).resolve().parent != (SRC / "scapre").resolve():
        print(f"error: scapre was imported from {scapre.__file__}, not {SRC}", file=sys.stderr)
        return 2
    table = workloads.workloads(tiny=args.size == "tiny")
    if args.workload not in table:
        known = ", ".join(table)
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    trace = bool(args.trace)
    tracer = tracing.Tracer() if trace else None
    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        # Each input set is one set-up: its generation and one untimed warm-up
        # operation on it, which also gives the output every later operation
        # on that set must reproduce. Set-up thus runs several times per run.
        loop = measure.Loop(workload, tracer)
        setup, setup_ops = [], []
        for i in range(workloads.INPUT_SETS):
            setup_ops.append(f"setup-{i}")
            traced = tracer.operation(setup_ops[-1], root="bench.setup") if trace else None
            t = time.perf_counter()
            with traced or contextlib.nullcontext():
                inst = workload.setup(args.seed, i, workdir / str(i))
            generate_s = time.perf_counter() - t
            t = time.perf_counter()
            warmup = loop.attempt(loop.add(inst), timed=False)
            warmup_s = warmup.get("seconds", time.perf_counter() - t)
            setup.append({"generate_s": generate_s, "warmup_s": warmup_s})
        setup_s = import_s + statistics.median(s["generate_s"] + s["warmup_s"] for s in setup)

        measure.run_loop(loop, args.seconds, trace)
        diag = loop.diagnostics
        if trace:
            metrics, kernels = measure.per_layer(loop, setup_ops)
        else:
            metrics, kernels = measure.end_to_end(loop, setup_s), None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(loop.records), loop.failed
    samples = len(loop.good(trace))
    env = measure.environment(args.seed, nproc)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": workload.name,
        "sizes": workload.sizes(),
        "loop": "closed, one caller",
        "trace": trace,
        "environment": env,
        "setup": {"import_s": import_s, "input_sets": setup},
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "operations": [
            {k: r[k] for k in OPERATION_KEYS if k in r} for r in loop.records
        ],
        "diagnostics": diag,
        "kernels_by_layer": kernels,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl.gz")

    for n, r in enumerate(loop.records):
        for problem in r["problems"]:
            print(f"operation {n} failed: {problem}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{samples} timed operations, closed loop with one caller")
    print(f"environment {json.dumps(env)}")
    print(f"diagnostics {json.dumps(diag)}")
    for name, (value, unit) in [*metrics.items(), ("fail_frac", (failed / attempted, "ratio"))]:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>12} {unit}")
    print(f"results in {(RESULTS / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
