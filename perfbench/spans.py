"""In-memory span tracing of eplab's public functions and numpy decompositions.

The program is left untouched: a :class:`Tracer` rebinds every public
function of every ``eplab.*`` module, in every ``eplab`` module that binds
that same function object (so ``from .core import op_norm`` in
``classify`` is timed too), and the ``numpy.linalg`` decompositions eplab
calls through ``np.linalg.<name>``.  ``numpy.linalg.norm(x, 2)`` uses the
SVD internally without going through the public attribute and is therefore
not counted, which matches how the decomposition baseline was counted.
Spans stay in memory until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# Layer of a decomposition span; reported under the ``core`` metrics.
LINALG = "linalg"
_SUBSPACE = frozenset({"range_basis", "null_basis", "subspace_equal",
                       "subspace_included", "projector"})
_ENCODE = frozenset({"make_document", "dump_document"})

# Index of each field in a span record.
LAYER, NAME, START, END, PARENT, EXTRA = range(6)


def _eplab_modules() -> list:
    # ``eplab.classify`` is shadowed by the function of that name on the
    # package, so the submodules are taken from sys.modules.
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "eplab" or name.startswith("eplab.")) and mod is not None]


def _decomposition_name(fn_name: str, args, kwargs) -> str:
    if fn_name != "svd":
        return fn_name
    # numpy.linalg.svd(a, full_matrices=True, compute_uv=True, hermitian=False)
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    return "svd" if compute_uv else "svdvals"


def _work(a) -> int:
    """Computed decomposition work m*n*min(m, n) of the operand."""
    m, n = np.shape(a)[-2:]
    return int(m) * int(n) * min(int(m), int(n))


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[layer, name, start, end, parent_index, extra]`` where
    ``extra`` is the computed work of a decomposition, the file size for
    ``read_matrix``/``write_matrix`` and the text length for
    ``dump_document``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if extra is not None:
                record[EXTRA] = extra(args, kwargs, result)
            return result
        return wrapper

    def _wrap_decomposition(self, fn_name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [LINALG, _decomposition_name(fn_name, args, kwargs), 0.0, 0.0,
                      stack[-1] if stack else -1, _work(args[0])]
            spans.append(record)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install_linalg(self) -> None:
        """Count and time ``numpy.linalg.svd``, ``eigvalsh`` and ``qr``."""
        for name in ("svd", "eigvalsh", "qr"):
            self._set(np.linalg, name, self._wrap_decomposition(name, getattr(np.linalg, name)))

    def install(self) -> None:
        """Wrap the decompositions and every public eplab function."""
        self.install_linalg()
        modules = _eplab_modules()
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(layer, name, obj, _EXTRAS.get(name))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def reset(self) -> None:
        self.spans.clear()

    def counts(self) -> Counter:
        """Calls per ``layer.name``."""
        return Counter(f"{s[LAYER]}.{s[NAME]}" for s in self.spans)

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct child spans."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def _outermost(self, layer: str, names) -> list[list]:
        """Spans of ``layer`` named in ``names`` with no such span above them."""
        spans = self.spans
        out = []
        for s in spans:
            if s[LAYER] != layer or s[NAME] not in names:
                continue
            parent = s[PARENT]
            while parent >= 0 and not (spans[parent][LAYER] == layer
                                       and spans[parent][NAME] in names):
                parent = spans[parent][PARENT]
            if parent < 0:
                out.append(s)
        return out

    def layer_metrics(self, ops: int, op_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics as ``{name: (value, unit)}``."""
        spans = self.spans
        counts = self.counts()
        self_ms: Counter = Counter()
        for s, own in zip(spans, self.self_times()):
            self_ms[s[LAYER]] += own * 1e3

        def total_ms(layer, names):
            return sum(s[END] - s[START] for s in self._outermost(layer, names)) * 1e3

        def total_extra(layer, name):
            return sum(s[EXTRA] or 0 for s in spans if s[LAYER] == layer and s[NAME] == name)

        decomp_ms = self_ms[LINALG]
        per_op = {
            "core.svd_calls": (counts[f"{LINALG}.svd"], "count"),
            "core.svdvals_calls": (counts[f"{LINALG}.svdvals"], "count"),
            "core.eigvalsh_calls": (counts[f"{LINALG}.eigvalsh"], "count"),
            "core.qr_calls": (counts[f"{LINALG}.qr"], "count"),
            "core.decomp_work": (sum(s[EXTRA] for s in spans if s[LAYER] == LINALG),
                                 "mn_min_mn"),
            "core.decomp_ms": (decomp_ms, "ms"),
            "core.subspace_ms": (total_ms("core", _SUBSPACE), "ms"),
            "core.op_norm_calls": (counts["core.op_norm"], "count"),
            "core.op_norm_ms": (total_ms("core", {"op_norm"}), "ms"),
            "classify.calls": (counts["classify.classify"], "count"),
            "classify.self_ms": (self_ms["classify"], "ms"),
            "classify.gamma_calls": (counts["classify.gamma"], "count"),
            # Every pseudoinverse, including pinv(), is built by pinv_from_factors.
            "pinv.calls": (counts["pinv.pinv_from_factors"], "count"),
            "pinv.self_ms": (self_ms["pinv"], "ms"),
            "douglas.self_ms": (self_ms["douglas"], "ms"),
            "douglas.range_inclusion_calls": (counts["douglas.range_inclusion_check"], "count"),
            "perturb.self_ms": (self_ms["perturb"], "ms"),
            "propsuite.self_ms": (self_ms["propsuite"], "ms"),
            "zoo.self_ms": (self_ms["zoo"], "ms"),
            "matio.read_ms": (total_ms("matio", {"read_matrix"}), "ms"),
            "matio.bytes_read": (total_extra("matio", "read_matrix"), "B"),
            "matio.write_ms": (total_ms("matio", {"write_matrix"}), "ms"),
            "matio.bytes_written": (total_extra("matio", "write_matrix"), "B"),
            "reports.encode_ms": (total_ms("reports", _ENCODE), "ms"),
            "reports.doc_bytes": (total_extra("reports", "dump_document"), "B"),
            "cli.self_ms": (self_ms["cli"], "ms"),
        }
        out = {name: (value / ops, unit) for name, (value, unit) in per_op.items()}
        out["core.decomp_share"] = (decomp_ms / 1e3 / op_seconds, "frac")
        return out

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s) + "\n")


def _file_size(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


_EXTRAS = {
    "read_matrix": _file_size,
    "write_matrix": _file_size,
    "dump_document": lambda args, kwargs, result: len(result.encode("utf-8")),
}
