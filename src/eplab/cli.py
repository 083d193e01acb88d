"""Command-line front end.

Commands: classify, pinv, douglas, perturb, zoo, sweep, propsuite.  Reports
are emitted as deterministic JSON documents (sorted keys); analysis verdicts
never affect exit codes, only operational failures do, except for propsuite
whose verdict is its exit code.

Exit codes: 0 success, 1 propsuite found disagreements, 2 I/O, parse or
precondition failure, 64 usage error (argparse's own errors included).

The environment variable EPLAB_TOL_SUBSPACE overrides the default subspace
tolerance; an explicit ``--tol-subspace`` flag wins over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from .classify import classify
from .core import TolerancePolicy, _Operand
from .douglas import douglas_analysis
from .errors import OperatorAnalysisError, ParseError
from .matio import (FORMAT_MATRIXMARKET, _encode, bytes_digest, file_digest,
                    read_matrix, sniff_format, write_matrix)
from .perturb import check_perturbation
from .pinv import _penrose
from .propsuite import run_property_suite
from .reports import dump_document, make_document
from .zoo import (DETERMINISTIC_FAMILIES, ExpectedTraits, Family, OperatorSpec,
                  gamma_sweep, generate)


class UsageError(Exception):
    """Bad command usage, distinct from analysis failures (exit 64)."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would exit 2, the code of I/O failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _seed(text: str) -> int:
    """A ``--seed`` value; numpy's generators take only non-negative seeds."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--tol-rank-rel", type=float, default=None,
                       help="rank threshold factor relative to sigma_max "
                            "(default: max(m,n)*eps)")
    group.add_argument("--tol-rank-abs", type=float, default=None,
                       help="absolute rank threshold on singular values")
    parser.add_argument("--tol-subspace", type=float, default=None,
                        help="projector-distance tolerance for subspace tests "
                             "(default 1e-8; env EPLAB_TOL_SUBSPACE overrides)")
    parser.add_argument("--tol-psd", type=float, default=None,
                        help="floor for minimum-eigenvalue positivity checks "
                             "(default 1e-9)")


def _tolerance(args) -> TolerancePolicy:
    kwargs = {}
    if args.tol_rank_rel is not None:
        kwargs["rank_rel"] = args.tol_rank_rel
    if args.tol_rank_abs is not None:
        kwargs["rank_abs"] = args.tol_rank_abs
    subspace = args.tol_subspace
    if subspace is None:
        env = os.environ.get("EPLAB_TOL_SUBSPACE")
        if env:
            try:
                subspace = float(env)
            except ValueError as exc:
                raise UsageError(f"EPLAB_TOL_SUBSPACE is not a number: {env!r}") from exc
    if subspace is not None:
        kwargs["subspace_tol"] = subspace
    if args.tol_psd is not None:
        kwargs["psd_tol"] = args.tol_psd
    try:
        return TolerancePolicy(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_classify(args) -> int:
    tol = _tolerance(args)
    matrix = read_matrix(args.input, args.format)
    report = classify(matrix, tol)
    doc = make_document("classification", report, file_digest([args.input]), tol)
    _emit(dump_document(doc), args.out)
    return 0


def _cmd_pinv(args) -> int:
    tol = _tolerance(args)
    fmt = args.format or sniff_format(args.input)
    op = _Operand(read_matrix(args.input, fmt), tol)
    write_matrix(args.out, op.pinv, fmt)
    report = _penrose(op, op.dagger)
    doc = make_document("penrose", report, file_digest([args.input]), tol)
    sys.stdout.write(dump_document(doc))
    return 0


def _cmd_douglas(args) -> int:
    tol = _tolerance(args)
    a = read_matrix(args.a, args.format)
    b = read_matrix(args.b, args.format)
    report = douglas_analysis(a, b, tol, seed=args.seed)
    doc = make_document("douglas", report, file_digest([args.a, args.b]), tol)
    _emit(dump_document(doc), args.out)
    return 0


def _cmd_perturb(args) -> int:
    tol = _tolerance(args)
    a = read_matrix(args.a, args.format)
    b = read_matrix(args.b, args.format)
    report = check_perturbation(a, b, tol)
    doc = make_document("perturbation", report, file_digest([args.a, args.b]), tol)
    _emit(dump_document(doc), args.out)
    return 0


def _parse_spec_argument(text: str) -> dict:
    candidate = text.strip()
    if candidate.startswith("{"):
        try:
            return json.loads(candidate)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid inline spec JSON: {exc}") from exc
    try:
        with open(candidate, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"spec is neither inline JSON nor a readable file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid spec file {candidate!r}: {exc}") from exc


def _cmd_zoo(args) -> int:
    data = _parse_spec_argument(args.spec)
    spec = OperatorSpec.from_json_dict(data)
    matrix, traits = generate(spec)
    try:
        fmt = sniff_format(args.out)
    except ParseError:
        fmt = FORMAT_MATRIXMARKET
    write_matrix(args.out, matrix, fmt)
    canonical = json.dumps(spec.to_json_dict(), sort_keys=True).encode()
    payload = {
        "spec": spec.to_json_dict(),
        "expected": _encode(ExpectedTraits, traits),
        "written": str(args.out),
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
    }
    doc = make_document("zoo", payload, bytes_digest(canonical), TolerancePolicy())
    sys.stdout.write(dump_document(doc))
    return 0


def _cmd_sweep(args) -> int:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"--sizes must be a comma-separated integer list: {exc}") from exc
    if not sizes:
        raise UsageError("--sizes must name at least one section size")
    points = gamma_sweep(Family(args.family), sizes)
    lines = ["n,gamma,rank"]
    lines += [f"{p.n},{format(p.gamma, '.10g')},{p.rank}" for p in points]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_propsuite(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    tol = _tolerance(args)
    result = run_property_suite(args.count, seed=args.seed, tol=tol)
    digest = bytes_digest(f"seed={args.seed},count={args.count}".encode())
    doc = make_document("propsuite", result.to_json_dict(), digest, tol)
    _emit(dump_document(doc), args.out)
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eplab",
        description="EP / hypo-EP operator analysis on dense complex matrices. "
                    "Matrix files are Matrix Market (.mtx/.mm) or dense JSON "
                    "(.json with rows/cols/re/im).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify",
        help="evaluate every EP / hypo-EP condition for a square matrix; "
             "gamma is reported as 0 for numerically rank-0 matrices "
             "rather than +inf")
    p_classify.add_argument("input", help="matrix file")
    p_classify.add_argument("--format", choices=["matrixmarket", "json"], default=None)
    p_classify.add_argument("--out", default=None, help="write the JSON report here")
    _add_tolerance_flags(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_pinv = sub.add_parser(
        "pinv", help="compute the pseudoinverse and verify its defining conditions")
    p_pinv.add_argument("input", help="matrix file")
    p_pinv.add_argument("--out", required=True,
                        help="write the pseudoinverse here (same format as input)")
    p_pinv.add_argument("--format", choices=["matrixmarket", "json"], default=None)
    _add_tolerance_flags(p_pinv)
    p_pinv.set_defaults(func=_cmd_pinv)

    p_douglas = sub.add_parser(
        "douglas", help="range inclusion, factorization and contraction checks for (A, B)")
    p_douglas.add_argument("a", help="matrix file for A")
    p_douglas.add_argument("b", help="matrix file for B")
    p_douglas.add_argument("--format", choices=["matrixmarket", "json"], default=None)
    p_douglas.add_argument("--seed", type=_seed, default=0,
                           help="seed for the sampled growth bound (default 0)")
    p_douglas.add_argument("--out", default=None)
    _add_tolerance_flags(p_douglas)
    p_douglas.set_defaults(func=_cmd_douglas)

    p_perturb = sub.add_parser(
        "perturb", help="perturbation hypotheses and conclusions for an EP matrix A and B")
    p_perturb.add_argument("a", help="matrix file for the EP base matrix A")
    p_perturb.add_argument("b", help="matrix file for the perturbation B")
    p_perturb.add_argument("--format", choices=["matrixmarket", "json"], default=None)
    p_perturb.add_argument("--out", default=None)
    _add_tolerance_flags(p_perturb)
    p_perturb.set_defaults(func=_cmd_perturb)

    p_zoo = sub.add_parser(
        "zoo", help="generate an operator-zoo matrix from an inline JSON spec or spec file")
    p_zoo.add_argument("spec", help='inline JSON like {"family":"DiagHarmonic","n":4} '
                                    "or a path to a spec file")
    p_zoo.add_argument("--out", required=True, help="matrix output path")
    p_zoo.set_defaults(func=_cmd_zoo)

    p_sweep = sub.add_parser(
        "sweep", help="gamma and rank across section sizes for a deterministic family")
    p_sweep.add_argument("family", choices=[f.value for f in DETERMINISTIC_FAMILIES])
    p_sweep.add_argument("--sizes", required=True, help="comma-separated sizes, e.g. 3,5,7")
    p_sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_suite = sub.add_parser(
        "propsuite",
        help="run the consistency suites over seeded corpus matrices; "
             "exit 0 iff zero disagreements")
    p_suite.add_argument("--seed", type=_seed, default=0)
    p_suite.add_argument("--count", type=int, default=100,
                         help="number of corpus matrices (default 100)")
    p_suite.add_argument("--out", default=None)
    _add_tolerance_flags(p_suite)
    p_suite.set_defaults(func=_cmd_propsuite)

    return parser


_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except OperatorAnalysisError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
