"""In-memory spans around the public entry points of each atrahasis layer.

The benchmark installs a Tracer only in its traced runs; untraced runs
execute the program untouched.  Each span is kept as
``[name, start_ns, end_ns, parent_index]`` and written out when the run
ends.  Wrapping patches the defining module and every atrahasis module
that imported the same object with ``from .x import y``; methods are
patched on their class, which every caller goes through.

Timestamps come from ``time.monotonic_ns`` (CLOCK_MONOTONIC on Linux),
which is shared by all processes on the machine, so spans recorded in a
child process can be placed under a span of the parent.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the class
LAYERS = (
    ("fields", "FieldSpec.__init__", "fields.FieldSpec"),
    ("linalg", "rank_of_rows", "linalg.rank_of_rows"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "SpanSolver.__init__", "linalg.SpanSolver"),
    ("linalg", "SpanSolver.coefficients_for", "linalg.SpanSolver"),
    ("tensors", "rank_filter", "tensors.rank_filter"),
    ("tensors", "sym_tensor_rows", "tensors.sym_tensor_rows"),
    ("tensors", "ext_tensor_rows", "tensors.ext_tensor_rows"),
    ("code", "verify_axioms", "code.verify_axioms"),
    ("code", "download_matrix", "code.download_matrix"),
    ("code", "help_matrix", "code.help_matrix"),
    ("code", "repair_matrix", "code.repair_matrix"),
    ("search", "grow_pool", "search.grow_pool"),
    ("search", "nullstellensatz_witness", "search.nullstellensatz_witness"),
    ("transforms", "ShortenedCode.__init__", "transforms.ShortenedCode"),
    ("transforms", "central_repair_program", "transforms.central_repair_program"),
    ("specfile", "parse_document", "specfile.parse_document"),
    ("bulk", "BulkField.matmul", "bulk.matmul"),
    ("bulk", "BulkField.mul_table", "bulk.mul_table"),
    ("bulk", "bytes_to_symbols", "bulk.bytes_to_symbols"),
    ("bulk", "symbols_to_bytes", "bulk.symbols_to_bytes"),
    ("cluster", "Cluster.put", "cluster.put"),
    ("cluster", "Cluster.get", "cluster.get"),
    ("cluster", "Cluster.fail", "cluster.fail"),
    ("cluster", "Cluster.repair", "cluster.repair"),
    ("cluster", "Cluster.repair2", "cluster.repair2"),
    ("cluster", "Cluster.status", "cluster.status"),
    ("cluster", "Cluster._read_node", "cluster.read_node"),
    ("cluster", "Cluster._write_node", "cluster.write_node"),
    ("cluster", "Cluster._load", "cluster.manifest_load"),
    ("cluster", "Cluster._save", "cluster.manifest_save"),
    ("cli", "main", "cli.main"),
)


def _matmul_bytes(args, result):
    """Computed bytes: nonzero coefficients times the bytes of one column."""
    _, matrix, data = args[:3]
    rows = getattr(matrix, "rows", matrix)
    nonzero = sum(1 for row in rows for c in row if c)
    return nonzero * data.shape[1] * data.itemsize


def _read_bytes(args, result):
    cluster, view, _, chunk_count = args[:4]
    return chunk_count * cluster._record_len(view)


def _write_bytes(args, result):
    cluster, view, _, values = args[:4]
    return values.shape[1] * cluster._record_len(view)


# counters recorded beside a span: span name -> (counter name, fn)
COUNTERS = {
    "bulk.matmul": ("bulk.matmul.bytes", _matmul_bytes),
    "cluster.read_node": ("cluster.read_node.bytes", _read_bytes),
    "cluster.write_node": ("cluster.write_node.bytes", _write_bytes),
}


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.monotonic_ns()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_mul_table(self, fn):
        """Only table builds get a span: a cached table costs a dict lookup."""
        traced_build = self.wrap("bulk.mul_table", fn)

        def mul_table(field, c):
            if c in field._tables:
                return fn(field, c)
            return traced_build(field, c)

        return mul_table

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer entry point, plus os.fsync for the blob writes."""
        modules = {name: importlib.import_module(f"atrahasis.{name}")
                   for name, _, _ in LAYERS}
        loaded = [mod for name, mod in sys.modules.items()
                  if name == "atrahasis" or name.startswith("atrahasis.")]
        for module_name, attr, span_name in LAYERS:
            module = modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                new = (self._wrap_mul_table(orig) if span_name == "bulk.mul_table"
                       else self.wrap(span_name, orig))
                self._patch(cls, meth, new)
                continue
            orig = getattr(module, attr)
            new = self.wrap(span_name, orig)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, new)
        self._patch(os, "fsync", self.wrap("cluster.fsync", os.fsync))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def adopt(self, spans: list, counters: dict, parent: int) -> None:
        """Append spans recorded by a child process under span `parent`."""
        offset = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append([name, start, end, parent if p < 0 else p + offset])
        for key, value in counters.items():
            self.counters[key] += value

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans of one process are strictly nested (one thread), so the
    children of a span never overlap each other.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list) -> dict:
    """name -> {"calls", "s" (self time), "total_s"}."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for (name, start, end, _), self_ns in zip(spans, own):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["s"] += self_ns / 1e9
        row["total_s"] += (end - start) / 1e9
    return out


def span_tree(spans: list) -> dict:
    """Spans aggregated by their path from the root, as a nested dict."""
    own = self_times(spans)
    paths: list[tuple] = []
    root: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        path = (paths[parent] if parent >= 0 else ()) + (name,)
        paths.append(path)
        node = root
        for part in path[:-1]:
            node = node[part]["children"]
        row = node.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "children": {}})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += own[i] / 1e9
    return root
