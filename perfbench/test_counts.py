"""The decomposition counter reproduces the n=16 baseline counts exactly.

Run with ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from counts import decomposition_counts  # noqa: E402

# (SVD calls, eigvalsh calls) per entry point at n=16; None = not counted.
BASELINE_N16 = {
    "classify": (16, 1),
    "dagger_identities": (12, 2),
    "closed_range_panel": (9, 0),
    "check_perturbation": (46, None),
    "ep_closure_suite": (81, 5),
}


def test_n16_counts_match_baseline():
    table = decomposition_counts(16)
    for name, (svds, eigvalsh) in BASELINE_N16.items():
        assert table[name]["svd_total"] == svds, name
        if eigvalsh is not None:
            assert table[name]["eigvalsh"] == eigvalsh, name

