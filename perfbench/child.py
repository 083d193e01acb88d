"""One benchmark process: set up a workload, then measure it in a closed loop.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  After import, input generation and one warm-up op it prints
``SETUP_DONE``; with ``--mode setup`` it stops there.  Otherwise it runs
whole cycles of the op pool for about ``--seconds`` (with ``--mode trace``,
each op traced in every other cycle) and prints one JSON object with the op
times, failures, the environment and, with ``--mode trace``, the per-layer
metrics and the comparison of traced and untraced output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import spans
import workloads

_MAX_FAILURES_LISTED = 10


def reference_kernel_ms() -> float:
    """Median time of one full SVD of a fixed 128x128 complex matrix."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    times = []
    for _ in range(9):
        start = perf_counter()
        np.linalg.svd(a)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_reason": ("pinned: with OpenBLAS on 2 threads, classify at n=32 "
                                "is bimodal (p25 3.6 ms, p75 40 ms); one thread is "
                                "flat and also faster at n=128"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload_seed": seed,
    }


def measure(ops, seconds: float, tracer=None) -> dict:
    """Run whole cycles of ``ops`` for about ``seconds`` (at least one cycle).

    With a tracer, cycles run in pairs (at least one pair), and each op is
    traced in one cycle of a pair and untraced in the other: in the first
    cycle every odd slot is traced, in the second every even slot.  The
    tracing overhead is then taken from runs of the same op one cycle apart,
    half of them traced first, so machine-speed drift and the first cycle's
    extra cost cancel out of it.  ``times`` holds the untraced op times
    and ``traced_times`` the traced ones, both in slot order per pair.
    """
    checkers = [workloads.Checker(ops), workloads.Checker(ops)]
    times: list[list[float]] = [[], []]
    pair: list[list[float]] = [[0.0] * len(ops), [0.0] * len(ops)]
    failures = []
    if tracer is not None:
        tracer.reset()
    per_stop = 2 if tracer is not None else 1
    start = perf_counter()
    cycles = 0
    while True:
        for slot, op in enumerate(ops):
            traced = tracer is not None and (slot + cycles) % 2 == 1
            for path in op.outputs:
                path.unlink(missing_ok=True)
            if traced:
                tracer.install()
            try:
                t0 = perf_counter()
                code, stdouts = workloads.execute(op)
                pair[traced][slot] = perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            mark = len(tracer.spans) if traced else 0
            reason = checkers[traced].check(slot, code, stdouts)
            if traced:
                del tracer.spans[mark:]  # the check is not part of the op
            if reason is not None:
                failures.append(f"{op.label}: {reason}")
        cycles += 1
        if cycles % per_stop:
            continue
        times[0] += pair[0]
        if tracer is not None:
            times[1] += pair[1]
        elapsed = perf_counter() - start
        # Stop at the cycle (with a tracer, pair) boundary nearest to the deadline.
        if elapsed + elapsed / cycles * per_stop / 2 >= seconds:
            break
    return {"times": times[0], "traced_times": times[1], "failures": failures,
            "cycles": cycles, "digests": checkers[0].digests,
            "traced_digests": checkers[1].digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, Path(args.workdir))
    reason = workloads.Checker(ops).check(0, *workloads.execute(ops[0]))
    if reason is not None:
        print(f"warm-up op {ops[0].label} failed: {reason}", file=sys.stderr)
        return 1
    print("SETUP_DONE", flush=True)
    if args.mode == "setup":
        return 0

    env = environment(args.seed)
    env["reference_svd128_ms_start"] = reference_kernel_ms()
    tracer = spans.Tracer() if args.mode == "trace" else None
    run = measure(ops, args.seconds, tracer)
    env["reference_svd128_ms_end"] = reference_kernel_ms()

    result = {
        "times": run["times"],
        "cycles": run["cycles"],
        "pool": [op.label for op in ops],
        "failures": run["failures"][:_MAX_FAILURES_LISTED],
        "failed": len(run["failures"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    if tracer is not None:
        traced_times = run["traced_times"]
        layers = tracer.layer_metrics(len(traced_times), sum(traced_times))
        # Each op's traced time over its untraced time in the same pair of cycles.
        ratios = [t / p for p, t in zip(run["times"], traced_times)]
        layers["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
        result["traced_times"] = traced_times
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in layers.items()}
        shared = run["digests"].keys() & run["traced_digests"].keys()
        result["determinism"] = {
            "documents_compared": len(shared),
            "differing_slots": sorted(k for k in shared
                                      if run["digests"][k] != run["traced_digests"][k]),
        }
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
