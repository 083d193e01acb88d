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
from json.encoder import encode_basestring_ascii as _quote
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

    The text is exactly ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
    for any JSON tree with string keys and finite floats.  That call runs
    json's pure-Python encoder; here json's C encoder writes every scalar,
    every empty container and each list of scalars, such as a matrix
    payload, in one call.  A NaN or infinite float has no RFC 8259 form and
    raises NonFinite, which names the key path and value of the first one in
    key order, such as ``report.bound_k: inf``, so no document carries
    ``NaN`` or ``Infinity``.
    """
    try:
        return _render(doc, "") + "\n"
    except ValueError as exc:  # json's refusal of NaN and infinity
        found = next(_non_finite(doc, ""), str(exc))
        raise NonFinite(f"the report holds a value with no JSON form: {found}") from exc


def _non_finite(value, path: str):
    """``key.path: value`` of each NaN or infinite float in ``value``, in key order."""
    if isinstance(value, dict):
        for key, item in sorted(value.items()):
            yield from _non_finite(item, f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _non_finite(item, f"{path}[{index}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield f"{path}: {float(value)!r}"


# json's C encoder for one scalar or an empty container.
_encode_leaf = json.JSONEncoder(allow_nan=False).encode


def _render(value, indent: str) -> str:
    """``value`` as json's ``indent=2`` text, its closing bracket at ``indent``."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{_quote(key)}: {_render(item, inner)}" for key, item in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)) and value:
        if not any(isinstance(item, (dict, list, tuple)) for item in value):
            # The C encoder writes the items with the indented separator.
            text = json.JSONEncoder(separators=(",\n" + inner, ": "),
                                    allow_nan=False).encode(value)
            return f"[\n{inner}{text[1:-1]}\n{indent}]"
        items = [_render(item, inner) for item in value]
        brackets = "[]"
    else:
        return _encode_leaf(value)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"
