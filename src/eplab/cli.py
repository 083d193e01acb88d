"""Command-line front end.

Commands: classify, pinv, douglas, perturb, zoo, sweep, propsuite.  Reports
are emitted as deterministic JSON documents (sorted keys); analysis verdicts
never affect exit codes, only operational failures do, except for propsuite
whose verdict is its exit code.

Exit codes: 0 success, 1 propsuite found disagreements, 2 I/O, parse or
precondition failure, 64 usage error (argparse's own errors included).
Any failure to decode a matrix file is a ParseError with exit 2: bad
UTF-8, bad JSON syntax or nesting depth, or a number out of range.  So is
spec text that does not parse as JSON; a spec whose fields cannot make a
buildable OperatorSpec is a BadSpec, also exit 2.
Flag values are checked by their argparse types and TolerancePolicy only.
The suffix sets the format of every matrix file read or written; an unknown
suffix is a ParseError and writes nothing.  Tolerances come from the flags
alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .classify import classify
from .core import TolerancePolicy, _Operand
from .douglas import douglas_analysis
from .errors import OperatorAnalysisError, ParseError
from .matio import _malformed, bytes_digest, file_digest, read_matrix, write_matrix
from .perturb import check_perturbation
from .pinv import _penrose
from .propsuite import run_property_suite
from .reports import dump_document, make_document
from .zoo import (DETERMINISTIC_FAMILIES, Family, OperatorSpec, ZooReport, gamma_sweep,
                  generate)


class UsageError(Exception):
    """Bad command usage, distinct from analysis failures (exit 64)."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would exit 2, the code of I/O failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _at_least(least: int):
    """argparse type of a decimal integer flag of at least ``least``; a seed
    takes 0, since numpy's generators take only non-negative seeds."""
    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit()) or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {least}, got {text!r}")
        return int(text)
    return parse


def _sizes(text: str) -> list[int]:
    """A ``--sizes`` value: a non-empty comma-separated list of sizes, each
    a decimal integer of at least 1 as for ``--count``."""
    sizes = [_at_least(1)(part.strip()) for part in text.split(",") if part.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("expected at least one section size")
    return sizes


def _tolerance(args) -> TolerancePolicy:
    """The policy of the tolerance flags."""
    fields = {"rank_rel": args.tol_rank_rel, "rank_abs": args.tol_rank_abs,
              "subspace_tol": args.tol_subspace, "psd_tol": args.tol_psd}
    try:
        return TolerancePolicy(**{name: value for name, value in fields.items()
                                  if value is not None})
    except ValueError as exc:
        raise UsageError(f"invalid tolerance flag: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_document(kind: str, report, digest: str, tol: TolerancePolicy,
                    out_path: str | None = None) -> int:
    """Write the ``kind`` document of ``report``; 0 is the command's exit code."""
    _emit(dump_document(make_document(kind, report, digest, tol)), out_path)
    return 0


# The analysis commands: each row is the document kind, the analysis, the
# help text and the matrix file positionals with their help.  The analysis
# is named, not held, and looked up in this module when the command runs,
# so perfbench's span tracer, which rebinds module attributes, sees it.
_ANALYSES = {
    "classify": ("classification", "classify",
                 "evaluate every EP / hypo-EP condition for a square matrix; "
                 "gamma is reported as 0 for numerically rank-0 matrices rather than +inf",
                 {"input": "matrix file"}),
    "douglas": ("douglas", "douglas_analysis",
                "range inclusion, factorization and contraction checks for (A, B)",
                {"a": "matrix file for A", "b": "matrix file for B"}),
    "perturb": ("perturbation", "check_perturbation",
                "perturbation hypotheses and conclusions for an EP matrix A and B",
                {"a": "matrix file for the EP base matrix A",
                 "b": "matrix file for the perturbation B"}),
}


def _cmd_analysis(args) -> int:
    """Run the analysis of ``args.command`` on its matrix files under the
    tolerance flags and write its document."""
    kind, analysis, _, matrices = _ANALYSES[args.command]
    tol = _tolerance(args)
    paths = [getattr(args, dest) for dest in matrices]
    report = globals()[analysis](*map(read_matrix, paths), tol)
    return _write_document(kind, report, file_digest(paths), tol, args.out)


def _cmd_pinv(args) -> int:
    tol = _tolerance(args)
    op = _Operand(read_matrix(args.input), tol)
    # Digest the input before the write: ``--out`` may name the input itself.
    digest = file_digest([args.input])
    write_matrix(args.out, op.pinv)
    return _write_document("penrose", _penrose(op, op.dagger), digest, tol)


def _parse_spec_argument(text: str) -> dict:
    candidate = text.strip()
    if candidate.startswith("{"):
        with _malformed("invalid inline spec JSON"):
            return json.loads(candidate)
    try:
        with open(candidate, "r", encoding="utf-8") as handle, \
                _malformed(f"invalid spec file {candidate!r}"):
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"spec is neither inline JSON nor a readable file: {exc}") from exc


def _cmd_zoo(args) -> int:
    spec = OperatorSpec.from_json_dict(_parse_spec_argument(args.spec))
    matrix, traits = generate(spec)
    write_matrix(args.out, matrix)
    report = ZooReport(spec, traits, str(args.out))
    digest = bytes_digest(json.dumps(spec.to_json_dict(), sort_keys=True).encode())
    return _write_document("zoo", report, digest, TolerancePolicy())


def _cmd_sweep(args) -> int:
    points = gamma_sweep(Family(args.family), args.sizes)
    lines = ["n,gamma,rank"]
    lines += [f"{p.n},{format(p.gamma, '.10g')},{p.rank}" for p in points]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_propsuite(args) -> int:
    tol = _tolerance(args)
    report = run_property_suite(args.count, seed=args.seed, tol=tol)
    digest = bytes_digest(f"seed={args.seed},count={args.count}".encode())
    _write_document("propsuite", report, digest, tol, args.out)
    return 1 if report["disagreement_count"] else 0


def _command(sub, name: str, func, help: str, matrices: dict | None = None,
             tolerance: bool = True) -> argparse.ArgumentParser:
    """Subcommand ``name`` running ``func``.  ``matrices`` maps each matrix
    file positional to its help; ``tolerance`` brings the tolerance flags."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func)
    for dest, text in (matrices or {}).items():
        parser.add_argument(dest, help=text)
    if tolerance:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--tol-rank-rel", type=float,
                           help="rank threshold factor relative to sigma_max "
                                "(default: max(m,n)*eps)")
        group.add_argument("--tol-rank-abs", type=float,
                           help="absolute rank threshold on singular values")
        parser.add_argument("--tol-subspace", type=float,
                            help="a subspace sine passes at most this, a residual on a "
                                 "matrix X at most this times ||X|| (default 1e-8)")
        parser.add_argument("--tol-psd", type=float,
                            help="the Douglas majorization gap B B* - A A* passes when its "
                                 "least eigenvalue is at least -this*||B||^2 (default 1e-9)")
    return parser


_MATRIX_OUT = "output path; its suffix (.mtx, .mm or .json) sets the format"


def _analysis_commands(sub, *names: str) -> None:
    """The subcommands of the ``_ANALYSES`` rows ``names``, in that order,
    each with its row's help text and matrix file positionals."""
    for name in names:
        _command(sub, name, _cmd_analysis, *_ANALYSES[name][2:]).add_argument(
            "--out", help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eplab",
        description="EP / hypo-EP operator analysis on dense complex matrices. "
                    "Matrix files are Matrix Market (.mtx/.mm) or dense JSON "
                    "(.json with rows/cols/re/im).")
    sub = parser.add_subparsers(dest="command", required=True)

    # ``eplab --help`` lists the subcommands in the order they are added here.
    _analysis_commands(sub, "classify")
    p_pinv = _command(
        sub, "pinv", _cmd_pinv,
        "compute the pseudoinverse and verify its defining conditions",
        {"input": "matrix file"})
    p_pinv.add_argument("--out", required=True, help="pseudoinverse " + _MATRIX_OUT)
    _analysis_commands(sub, "douglas", "perturb")

    p_zoo = _command(
        sub, "zoo", _cmd_zoo,
        "generate an operator-zoo matrix from an inline JSON spec or spec file",
        tolerance=False)
    p_zoo.add_argument("spec", help='inline JSON like {"family":"DiagHarmonic","n":4} '
                                    "or a path to a spec file")
    p_zoo.add_argument("--out", required=True, help="matrix " + _MATRIX_OUT)

    p_sweep = _command(
        sub, "sweep", _cmd_sweep,
        "gamma and rank across section sizes for a deterministic family", tolerance=False)
    p_sweep.add_argument("family", choices=[f.value for f in DETERMINISTIC_FAMILIES])
    p_sweep.add_argument("--sizes", type=_sizes, required=True,
                         help="comma-separated sizes, e.g. 3,5,7")
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")

    p_suite = _command(
        sub, "propsuite", _cmd_propsuite,
        "run the consistency suites over seeded corpus matrices; "
        "exit 0 iff zero disagreements")
    p_suite.add_argument("--seed", type=_at_least(0), default=0)
    p_suite.add_argument("--count", type=_at_least(1), default=100,
                         help="number of corpus matrices (default 100)")
    p_suite.add_argument("--out")

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
