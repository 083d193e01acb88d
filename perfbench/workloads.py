"""Benchmark workloads: inputs made from a seed, a pool of CLI ops, and checks.

An op is one or more in-process ``eplab.cli.main([...])`` calls, the
commands a user types minus interpreter start.  A workload is a fixed pool of ops that
the closed loop (one caller) runs in order, cycle after cycle.  Each op
knows the verdict its input was built to have; :class:`Checker` decides
whether an op failed.

Why these workloads:

- ``propsuite_corpus``: ten corpus matrices of n <= 32 per op, one of each
  corpus family, so Python overhead and the number of decompositions per
  verdict dominate and almost no file I/O happens.
- ``classify_large``: Matrix Market files of n in 96..192, so LAPACK time
  (growing as n^3) dominates; exercises the read side of matrix I/O.
- ``pair_json_io``: pinv, then douglas, then perturb on one dense-JSON pair
  of n = 64 per op, so the JSON writer, reports carrying matrix payloads and
  the two-operand library paths carry the time.

The ops of a pool should cost about the same: when their costs fall into a
few well-separated clusters, the median op time jumps between two of them
from run to run.  So ``classify_large`` steps its sizes by 16, and a
``pair_json_io`` op runs all three commands on pairs of a single size
instead of one command on pairs of several sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from eplab import cli, matio, reports, zoo
from eplab.errors import OperatorAnalysisError
from eplab.perturb import generate_admissible
from eplab.zoo import Family, OperatorSpec

# 64 propsuite ops of ten random-size matrices each keep the pool's total
# cost nearly the same from one workload seed to the next.
PROPSUITE_POOL = 64
PROPSUITE_COUNT = 10
CLASSIFY_SIZES = tuple(range(96, 193, 16))
PAIR_POOL = 16
PAIR_SIZE = 64
PERTURB_SCALE = 0.5


class Op(NamedTuple):
    """CLI calls run in order, the files they write, and the check of their output.

    ``check(stdouts, files)`` gets the captured standard output of each call
    and the bytes of ``outputs`` and returns None, or the reason the op's
    output is wrong; it may raise ValueError, KeyError, TypeError or an
    eplab error on a malformed document.
    """

    label: str
    argvs: tuple
    outputs: tuple
    check: Callable[[list, list], str | None]


def execute(op: Op) -> tuple[int | BaseException, list | None]:
    """Run the op's calls in process until one fails; returns the last exit
    code, or the exception raised, and the captured stdout of each call."""
    stdouts = []
    for argv in op.argvs:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failed op, judged by Checker
            traceback.print_exc()
            return exc, None
        if code != 0:
            return code, None
        stdouts.append(buffer.getvalue())
    return 0, stdouts


def _decode(text: str):
    """Decode a document and require it to re-encode to the same text."""
    kind, report, digest, tol = reports.decode_document(json.loads(text))
    if reports.dump_document(reports.make_document(kind, report, digest, tol)) != text:
        raise ValueError("document does not round-trip through decode_document")
    return report


def _suite_verdict(stdouts, files):
    report = _decode(files[0].decode("utf-8"))
    if report["disagreement_count"] or report["disagreements"]:
        return f"propsuite found {report['disagreement_count']} disagreements"
    if report["checks_run"]["seven_way"] != PROPSUITE_COUNT:
        return f"seven_way ran {report['checks_run']['seven_way']} times"
    return None


def _classify_verdict(is_ep: bool, rank: int):
    def verdict(stdouts, files):
        report = _decode(files[0].decode("utf-8"))
        if report.is_ep != is_ep or report.rank != rank:
            return (f"expected is_ep={is_ep} rank={rank}, "
                    f"got is_ep={report.is_ep} rank={report.rank}")
        return None
    return verdict


def _pair_verdict(n: int, written: Path):
    """pinv's Penrose report and written A+, then the douglas and perturb documents."""
    def verdict(stdouts, files):
        if not _decode(stdouts[0]).passed:
            return "Penrose conditions not passed"
        shape = matio.read_matrix(written).shape
        if shape != (n, n):
            return f"written pseudoinverse has shape {shape}"
        douglas = _decode(files[1].decode("utf-8"))
        if not douglas.range_included:
            return "range inclusion R(B) <= R(A) not detected"
        if douglas.contraction_ok is not True:
            return f"majorization path gave contraction_ok={douglas.contraction_ok}"
        perturb = _decode(files[2].decode("utf-8"))
        flags = {name: getattr(perturb, name) for name in
                 ("hypotheses_pass", "concl_ep", "concl_null_equal",
                  "concl_range_equal", "concl_gamma_bound")}
        failed = [name for name, ok in flags.items() if not ok]
        return f"perturbation flags false: {failed}" if failed else None
    return verdict


def _propsuite_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for k in range(PROPSUITE_POOL):
        op_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        out = workdir / f"suite{k}.json"
        ops.append(Op(f"propsuite-{op_seed}",
                      (["propsuite", "--count", str(PROPSUITE_COUNT),
                        "--seed", str(op_seed), "--out", str(out)],),
                      (out,), _suite_verdict))
    return ops


def _matrix(spec: OperatorSpec) -> np.ndarray:
    return zoo.generate(spec)[0]


def _hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank Hermitian matrix with eigenvalue moduli in [1/2, 2]."""
    q = zoo.haar_unitary(n, rng)
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    a = (q * d) @ q.conj().T
    return (a + a.conj().T) / 2.0


def _classify_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for n in CLASSIFY_SIZES:
        rng = np.random.default_rng([seed, n])
        rank_ep = int(rng.integers(n // 2, n + 1))
        rank_cr = int(rng.integers(n // 2, n))
        spec_seed = int(rng.integers(2**31))
        cases = (
            ("random_ep", _matrix(OperatorSpec(Family.RANDOM_EP, n, rank_ep, spec_seed)),
             True, rank_ep),
            ("closed_range", _matrix(OperatorSpec(Family.RANDOM_CLOSED_RANGE, n, rank_cr,
                                                   spec_seed + 1)), False, rank_cr),
            ("hermitian", _hermitian(n, rng), True, n),
            ("fourier", _matrix(OperatorSpec(Family.FOURIER_DERIVATIVE, n)), True, n - 1),
            ("shift", _matrix(OperatorSpec(Family.WEIGHTED_SHIFT, n)), False, n - 1),
        )
        for label, matrix, is_ep, rank in cases:
            src = workdir / f"{label}{n}.mtx"
            out = workdir / f"{label}{n}.report.json"
            matio.write_matrix(src, matrix)
            ops.append(Op(f"classify-{label}-n{n}",
                          (["classify", str(src), "--out", str(out)],), (out,),
                          _classify_verdict(is_ep, rank)))
    return ops


def _pair_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    n = PAIR_SIZE
    for k in range(PAIR_POOL):
        rng = np.random.default_rng([seed, k])
        rank = int(rng.integers(n // 2, n + 1))
        a = _matrix(OperatorSpec(Family.RANDOM_EP, n, rank, int(rng.integers(2**31))))
        b = generate_admissible(a, PERTURB_SCALE, int(rng.integers(2**31)))
        a_path, b_path = workdir / f"A{k}.json", workdir / f"B{k}.json"
        matio.write_matrix(a_path, a)
        matio.write_matrix(b_path, b)
        dag, dg, pt = (workdir / f"{stem}{k}.json" for stem in ("Adag", "douglas", "perturb"))
        ops.append(Op(f"pair{k}-n{n}-r{rank}",
                      (["pinv", str(a_path), "--out", str(dag)],
                       ["douglas", str(b_path), str(a_path), "--out", str(dg)],
                       ["perturb", str(a_path), str(b_path), "--out", str(pt)]),
                      (dag, dg, pt), _pair_verdict(n, dag)))
    return ops


WORKLOADS = {
    "propsuite_corpus": _propsuite_ops,
    "classify_large": _classify_ops,
    "pair_json_io": _pair_ops,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Generate and write the workload's inputs; return its op pool."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, workdir)


class Checker:
    """Correctness gate per op.

    An op fails when it raises, exits non-zero, or its output is wrong.  The
    first output of each pool slot is checked in full; documents are
    byte-deterministic, so later runs of the slot must reproduce its digest.
    """

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.digests: dict[int, str] = {}

    def check(self, slot: int, code, stdouts: list | None) -> str | None:
        if isinstance(code, BaseException):
            return f"raised {type(code).__name__}: {code}"
        if code != 0:
            return f"exit code {code}"
        op = self.ops[slot]
        try:
            files = [path.read_bytes() for path in op.outputs]
        except OSError as exc:
            return f"output not written: {exc}"
        digest = hashlib.sha256(
            b"\0".join([*(text.encode("utf-8") for text in stdouts), *files])).hexdigest()
        known = self.digests.get(slot)
        if known is not None:
            if digest != known:
                return "output differs from an earlier run of the same input"
            return None
        try:
            reason = op.check(stdouts, files)
        except (ValueError, KeyError, TypeError, OperatorAnalysisError) as exc:
            reason = f"malformed document: {type(exc).__name__}: {exc}"
        if reason is None:
            self.digests[slot] = digest
        return reason
