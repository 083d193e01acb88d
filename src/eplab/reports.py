"""Report documents: JSON-safe encoding and lossless decoding of results.

Every CLI invocation wraps its typed report in a document carrying the tool
version, a content digest of the inputs and the tolerance policy in effect.
Documents round-trip field-for-field through ``json`` by the record codec
of :mod:`eplab.matio`.
"""

from __future__ import annotations

import json

from . import __version__
from .classify import ClassificationReport
from .core import TolerancePolicy
from .douglas import DouglasReport
from .matio import _decode, _encode
from .perturb import PerturbationReport
from .pinv import PenroseReport

_REPORT_TYPES = {
    "classification": ClassificationReport,
    "penrose": PenroseReport,
    "douglas": DouglasReport,
    "perturbation": PerturbationReport,
}


def tolerance_to_dict(tol: TolerancePolicy) -> dict:
    return _encode(TolerancePolicy, tol)


def tolerance_from_dict(data: dict) -> TolerancePolicy:
    return _decode(TolerancePolicy, data)


def make_document(kind: str, report, input_digest: str, tol: TolerancePolicy) -> dict:
    """Wrap a typed report (or an already JSON-safe payload) in a document."""
    payload = _encode(_REPORT_TYPES[kind], report) if kind in _REPORT_TYPES else report
    return {
        "tool_version": __version__,
        "input_digest": input_digest,
        "tolerance": tolerance_to_dict(tol),
        "kind": kind,
        "report": payload,
    }


def decode_document(doc: dict):
    """Recover (kind, typed report, digest, tolerance) from a document."""
    kind = doc["kind"]
    payload = doc["report"]
    report = _decode(_REPORT_TYPES[kind], payload) if kind in _REPORT_TYPES else payload
    return kind, report, doc["input_digest"], tolerance_from_dict(doc["tolerance"])


def dump_document(doc: dict) -> str:
    """Deterministic JSON rendering (sorted keys, two-space indent)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
