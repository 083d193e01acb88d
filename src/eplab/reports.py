"""Report documents: JSON-safe encoding and lossless decoding of results.

Every CLI invocation wraps its typed report in a document carrying the tool
version, a content digest of the inputs and the tolerance policy in effect.
Documents round-trip field-for-field through ``json``.

One codec serves every report type.  It walks the fields of a dataclass or
NamedTuple in declaration order and converts each value by its type hint:
``bool``, ``int``, ``float`` and ``str`` as themselves, ``np.ndarray``
through the dense JSON matrix format, ``tuple[X, ...]`` as a list, ``X |
None`` as X or null, and any other class as a nested record.  On decoding,
a missing key takes the field's default, or None for an optional field.
"""

from __future__ import annotations

import json
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .classify import ClassificationReport
from .core import TolerancePolicy
from .douglas import DouglasReport
from .matio import matrix_from_json_dict, matrix_to_json_dict
from .perturb import PerturbationReport
from .pinv import PenroseReport

_REPORT_TYPES = {
    "classification": ClassificationReport,
    "penrose": PenroseReport,
    "douglas": DouglasReport,
    "perturbation": PerturbationReport,
}

# Document keys that differ from the field name.
_KEYS = {"condition_id": "id"}

_SCALARS = (bool, int, float, str)
_NONE = type(None)

_hints = cache(get_type_hints)


def _split_optional(hint) -> tuple[object, bool]:
    """``(X, True)`` for the hint ``X | None``, else ``(hint, False)``."""
    args = get_args(hint)
    if _NONE in args:
        return next(arg for arg in args if arg is not _NONE), True
    return hint, False


def _encode(hint, value):
    hint, optional = _split_optional(hint)
    if optional and value is None:
        return None
    if get_origin(hint) is tuple:
        return [_encode(get_args(hint)[0], item) for item in value]
    if hint is np.ndarray:
        return matrix_to_json_dict(value)
    if hint in _SCALARS:
        return hint(value)
    return {_KEYS.get(name, name): _encode(field_hint, getattr(value, name))
            for name, field_hint in _hints(hint).items()}


def _decode(hint, data):
    hint, optional = _split_optional(hint)
    if optional and data is None:
        return None
    if get_origin(hint) is tuple:
        return tuple(_decode(get_args(hint)[0], item) for item in data)
    if hint is np.ndarray:
        return matrix_from_json_dict(data)
    if hint in _SCALARS:
        return hint(data)
    kwargs = {}
    for name, field_hint in _hints(hint).items():
        key = _KEYS.get(name, name)
        if key in data:
            kwargs[name] = _decode(field_hint, data[key])
        elif _split_optional(field_hint)[1]:
            kwargs[name] = None
    return hint(**kwargs)


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
