"""eplab benchmark: run one workload and print its metrics.

Usage, from the root of a checkout that holds ``src/eplab``::

    python3 perfbench/run.py --workload classify_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in fresh single-process children (``child.py``) with
OpenBLAS pinned to one thread.  ``--trace 0`` sets the workload up several
times in fresh interpreters (``setup_s`` is their median) and measures it
untraced for the end-to-end metrics.  ``--trace 1`` runs one child that
traces each op in every other cycle of the op pool and reports the
per-layer metrics, the tracing overhead, and whether the traced and
untraced runs of each op wrote byte-identical documents.
The last line of standard output is the result object; the line before it
is a report with the environment block and the details behind each metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("propsuite_corpus", "classify_large", "pair_json_io")
SETUPS = 3
# Every child of one workload run must end within this many seconds.
RUN_TIMEOUT_S = 170.0
# Candidate tail percentiles, highest first; the first with at least ten
# samples beyond it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """A child failed to set up or to report."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("EPLAB_TOL_SUBSPACE", None)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench_work" / "pycache")
    return env


def run_child(root: Path, workload: str, seed: int, seconds: float, mode: str,
              workdir: Path, deadline: float,
              spans_out: Path | None = None) -> tuple[float, dict | None]:
    """Start one child, killed at ``deadline`` (a perf_counter time); return
    its set-up time and, unless set-up only, its result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
           "--workdir", str(workdir)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if first.strip() != "SETUP_DONE" or code != 0:
        raise BenchmarkError(f"{workload} child ({mode}) exited {code} before reporting")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """Highest candidate percentile with at least ten samples beyond it
    (nearest-rank); returns (percentile, value, samples beyond)."""
    ordered = sorted(times_ms)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1], len(ordered) - rank
    return 0.0, ordered[0], len(ordered) - 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_workload(root: Path, workload: str, seed: int, seconds: float,
                     work: Path) -> tuple[dict, dict]:
    """Untraced run: returns (result object, report)."""
    deadline = perf_counter() + RUN_TIMEOUT_S
    setups = [run_child(root, workload, seed, seconds, "setup", work / f"setup{i}",
                        deadline)[0]
              for i in range(SETUPS - 1)]
    setup_s, res = run_child(root, workload, seed, seconds, "measure", work / "measure",
                             deadline)
    setups.append(setup_s)
    times_ms = [t * 1e3 for t in res["times"]]
    pct, tail_ms, beyond = tail(times_ms)
    attempted = len(times_ms)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(attempted / sum(res["times"]), "1/s"),
        "latency_p50_ms": metric(statistics.median(times_ms), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    report = {
        "workload": workload, "seed": seed, "env": res["env"],
        "failed_frac": metric(res["failed"] / attempted, "frac"),
        "latency_tail": {"percentile": pct, "samples": attempted, "samples_beyond": beyond},
        "setup_s_samples": setups, "cycles": res["cycles"], "pool": res["pool"],
        "failures": res["failures"],
    }
    result = {"correct": res["failed"] == 0, "attempted": attempted,
              "failed": res["failed"], "metrics": metrics}
    return result, report


def trace_workload(root: Path, workload: str, seed: int, seconds: float,
                   work: Path) -> tuple[dict, dict]:
    """One child tracing each op in every other cycle: returns (result, report)."""
    spans_out = root / ".perfbench_work" / "spans" / f"{workload}-{seed}.jsonl.gz"
    _, res = run_child(root, workload, seed, seconds, "trace", work / "traced",
                       perf_counter() + RUN_TIMEOUT_S, spans_out)
    determinism = res["determinism"]
    attempted = len(res["times"]) + len(res["traced_times"])
    report = {
        "workload": workload, "seed": seed, "env": res["env"],
        "failed_frac": metric(res["failed"] / attempted, "frac"),
        "determinism": determinism,
        "spans_file": str(spans_out.relative_to(root)),
        "cycles": res["cycles"], "pool": res["pool"], "failures": res["failures"],
    }
    correct = (res["failed"] == 0 and not determinism["differing_slots"]
               and determinism["documents_compared"] == len(res["pool"]))
    result = {"correct": correct, "attempted": attempted, "failed": res["failed"],
              "metrics": res["layers"]}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "eplab" / "__init__.py").is_file():
        print(f"error: {root} holds no src/eplab; run from the root of an eplab checkout",
              file=sys.stderr)
        return 2
    run = trace_workload if args.trace else measure_workload
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, failed_fracs = {}, {}
    for name in names:
        work = root / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
        try:
            result, report = run(root, name, args.seed, args.seconds, work)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(report))
        results[name] = result
        failed_fracs[name] = report["failed_frac"]

    if len(names) > 1:
        for name, result in results.items():
            rows = dict(result["metrics"], failed_frac=failed_fracs[name])
            for key, m in rows.items():
                print(f"{name:18s} {key:32s} {m['value']:>14.6g} {m['unit']}")
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": m for name, r in results.items()
                             for key, m in r["metrics"].items()}}
    else:
        final = results[names[0]]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
