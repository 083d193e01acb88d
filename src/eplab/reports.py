"""Report documents: JSON-safe encoding and lossless decoding of results.

Every CLI invocation wraps its typed report in a document carrying the tool
version, a content digest of the inputs and the tolerance policy in effect.
The envelope and the report are one record of the codec in
:mod:`eplab.matio`, so documents round-trip field-for-field through
``json`` and decoding one is as strict as decoding any other record.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from . import __version__
from .classify import ClassificationReport
from .core import TolerancePolicy
from .douglas import DouglasReport
from .errors import NonFinite
from .matio import _decode, _encode, _malformed
from .perturb import PerturbationReport
from .pinv import PenroseReport
from .zoo import ZooReport

# The report record of every document kind; propsuite's is a plain object.
_REPORT_TYPES = {
    "classification": ClassificationReport,
    "penrose": PenroseReport,
    "douglas": DouglasReport,
    "perturbation": PerturbationReport,
    "zoo": ZooReport,
    "propsuite": dict,
}


def _envelope(report_type: type) -> type:
    """The document record whose ``report`` is a ``report_type``."""
    return NamedTuple("Document", [("tool_version", str), ("input_digest", str),
                                   ("tolerance", TolerancePolicy), ("kind", str),
                                   ("report", report_type)])


_DOCUMENTS = {kind: _envelope(report_type) for kind, report_type in _REPORT_TYPES.items()}


def make_document(kind: str, report, input_digest: str, tol: TolerancePolicy) -> dict:
    """Wrap the ``kind`` report in a document: the record of
    ``_REPORT_TYPES[kind]``, a :class:`~eplab.zoo.ZooReport` for ``zoo`` and
    a plain JSON object for ``propsuite``."""
    document = _DOCUMENTS[kind]
    return _encode(document, document(__version__, input_digest, tol, kind, report))


def decode_document(doc: dict):
    """Recover (kind, typed report, digest, tolerance) from a document.

    A document that is not an object, lacks an envelope key, has one it does
    not declare or of the wrong JSON type, or names an unknown kind is a
    ParseError, as is any report field that fails to decode.
    """
    with _malformed("document kind"):
        document = _DOCUMENTS[doc["kind"]]
    decoded = _decode(document, doc)
    return decoded.kind, decoded.report, decoded.input_digest, decoded.tolerance


def dump_document(doc: dict) -> str:
    """Deterministic JSON rendering (sorted keys, two-space indent).

    The text is ``json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``, json's own.  A NaN or infinite float has no
    RFC 8259 form, so no document carries ``NaN`` or ``Infinity``: when json
    refuses one, NonFinite names the key path and value of the first one in
    key order, such as ``report.bound_k: inf``.
    """
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        _raise_non_finite(doc, "")
        raise


def _raise_non_finite(value, path: str) -> None:
    """NonFinite at the first NaN or infinity in ``value``, found at the key
    path ``path``, in key order; nothing if it holds none."""
    if isinstance(value, dict):
        for key, item in sorted(value.items()):
            _raise_non_finite(item, f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _raise_non_finite(item, f"{path}[{index}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise NonFinite(f"the report holds a value with no JSON form: {path}: {float(value)!r}")
