"""Decompositions per public entry point, and classify's cost in full SVDs.

Run from the root of a checkout::

    python3 perfbench/counts.py

For an EP matrix A (RandomEP, rank 3n/4) and an admissible perturbation B
at n=16 and n=128 it counts the ``numpy.linalg`` decompositions each entry
point calls, and times ``classify`` against one full SVD of A.  SVDs are
split into full (``compute_uv=True``) and values-only calls; "SVD calls"
is their sum, as in the decomposition baseline.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # set before numpy loads OpenBLAS
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from eplab import (check_perturbation, classify, closed_range_panel,  # noqa: E402
                   dagger_identities, ep_closure_suite, generate_admissible)
from eplab.zoo import random_ep  # noqa: E402

from spans import Tracer  # noqa: E402

ENTRY_POINTS = {
    "classify": lambda a, b: classify(a),
    "dagger_identities": lambda a, b: dagger_identities(a),
    "closed_range_panel": lambda a, b: closed_range_panel(a),
    "check_perturbation": check_perturbation,
    "ep_closure_suite": lambda a, b: ep_closure_suite(a),
}


def operands(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    a = random_ep(n, 3 * n // 4, np.random.default_rng(seed))
    return a, generate_admissible(a, 0.5, seed)


def decomposition_counts(n: int) -> dict[str, dict[str, int]]:
    """``{entry point: {svd, svdvals, svd_total, eigvalsh, qr}}`` for one call each."""
    a, b = operands(n)
    table = {}
    for name, call in ENTRY_POINTS.items():
        tracer = Tracer()
        tracer.install_linalg()
        try:
            call(a, b)
        finally:
            tracer.uninstall()
        counts = tracer.counts()
        row = {kind: counts[f"linalg.{kind}"] for kind in ("svd", "svdvals", "eigvalsh", "qr")}
        row["svd_total"] = row["svd"] + row["svdvals"]
        table[name] = row
    return table


def _median_s(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times)


def classify_vs_svd(n: int, repeats: int) -> dict[str, float]:
    """Median classify time as a multiple of one full SVD of the same input."""
    a, _ = operands(n)
    classify(a)
    svd_s = _median_s(lambda: np.linalg.svd(a), repeats)
    classify_s = _median_s(lambda: classify(a), repeats)
    return {"classify_ms": classify_s * 1e3, "svd_ms": svd_s * 1e3,
            "times_one_svd": classify_s / svd_s}


def main() -> int:
    for n, repeats in ((16, 200), (128, 15)):
        print(f"n={n}")
        print(f"  {'entry point':20s} {'SVD':>5s} {'full':>5s} {'values':>6s} "
              f"{'eigvalsh':>8s} {'qr':>3s}")
        for name, row in decomposition_counts(n).items():
            print(f"  {name:20s} {row['svd_total']:5d} {row['svd']:5d} {row['svdvals']:6d} "
                  f"{row['eigvalsh']:8d} {row['qr']:3d}")
        ratio = classify_vs_svd(n, repeats)
        print(f"  classify {ratio['classify_ms']:.3f} ms = {ratio['times_one_svd']:.1f}x "
              f"one full SVD ({ratio['svd_ms']:.3f} ms), OpenBLAS on 1 thread")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
