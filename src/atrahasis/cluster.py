"""Single-process storage cluster: on-disk node stores, failure
injection, repair orchestration and bandwidth accounting.

Layout under one store root:

    manifest.json   cluster manifest (embedded code spec, file metadata,
                    node status, per-node blob digests, ledger)
    .lock           per-store lock file; commands serialize on it
    node_<h>/chunks.blob
                    the node's contents, one fixed-size record per chunk;
                    every record is a self-describing node content blob
                    (16-byte header + alpha elements)

A put splits the byte stream (8-byte little-endian length prefix, then
the payload, zero-padded) into chunks of M symbols, m bits per symbol.
Get reads exactly k live nodes and reconstructs the bytes; repair
regenerates a failed node bit-exactly against the digest retained at put
time and charges the ledger exactly d*beta symbols per chunk, repair2
the strategy bandwidth.  Blob writes go through a temp file and rename,
so a blob on disk is either absent or fully valid.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import specfile
from .bulk import BulkField, bytes_to_symbols, symbols_to_bytes
from .code import download_matrix, help_matrix, repair_matrix
from .errors import (CorruptDataError, InsufficientNodesError, UsageError)
from .fields import BINARY
from .transforms import STRATEGIES, ShortenedCode, central_repair_program

MANIFEST_FORMAT = "atrahasis-cluster"
MANIFEST_VERSION = 1
LIVE = "live"
FAILED = "failed"


@dataclass(frozen=True)
class ChunkedFile:
    """How one byte stream maps onto chunks of M symbols.

    The stream is the 8-byte little-endian length prefix plus the
    payload; padding_bits zero bits complete the last chunk and are
    stripped again on the way out.
    """

    original_length: int
    chunk_count: int
    padding_bits: int
    symbols_per_chunk: int

    @classmethod
    def plan(cls, payload_length: int, symbols_per_chunk: int,
             bits_per_symbol: int) -> "ChunkedFile":
        stream_bits = (8 + payload_length) * 8
        chunk_bits = symbols_per_chunk * bits_per_symbol
        chunk_count = -(-stream_bits // chunk_bits)
        return cls(original_length=payload_length,
                   chunk_count=chunk_count,
                   padding_bits=chunk_count * chunk_bits - stream_bits,
                   symbols_per_chunk=symbols_per_chunk)

    @classmethod
    def from_dict(cls, d: dict) -> "ChunkedFile":
        return cls(**d)


class CodeView:
    """Uniform view over a plain or shortened code instance."""

    def __init__(self, code, phash: bytes):
        self.code = code
        self.phash = phash
        if isinstance(code, ShortenedCode):
            self.family = code.base
            self.n = code.n
            self.k = code.k
            self.d = code.d
            self.alpha = code.alpha
            self.beta = code.beta
            self.user_symbols = code.M
            self.pinned = code.pinned
            self.encode_columns = [v.values for v in code._basis]
            self.free_cols = code._free_cols
        else:
            self.family = code
            p = code.params
            self.n = p.n
            self.k = p.k
            self.d = p.d
            self.alpha = p.alpha
            self.beta = p.beta
            self.user_symbols = p.M
            self.pinned = ()
            self.encode_columns = None
            self.free_cols = None
        self.spec = self.family.spec
        if self.spec.kind != BINARY:
            raise UsageError("cluster storage requires a binary-extension field")
        self.bulk = BulkField(self.spec)

    def encode_bulk(self, user: np.ndarray) -> np.ndarray:
        """(user_symbols, N) -> base file coordinates (M, N)."""
        if self.encode_columns is None:
            return user
        rows = [[col[i] for col in self.encode_columns]
                for i in range(self.family.params.M)]
        return self.bulk.matmul(rows, user)

    def node_values_bulk(self, phi: np.ndarray) -> np.ndarray:
        """(M, N) file coordinates -> (n*alpha, N): node h owns rows
        h*alpha .. (h+1)*alpha - 1."""
        rows = [row for h in range(self.n)
                for row in self.family.node_tensor_rows(h)]
        return self.bulk.matmul(rows, phi)

    def check_range(self, nodes, what: str) -> None:
        """Reject node indices outside 0..n-1 before they index anything."""
        bad = [h for h in nodes if not 0 <= h < self.n]
        if bad:
            raise UsageError(f"{what} {bad} out of range 0..{self.n - 1}")

    def decode_matrix(self, live_nodes: list[int]) -> list[list[int]]:
        """User symbols from the stacked values of the given k live nodes."""
        D = download_matrix(self.family, list(live_nodes) + list(self.pinned))
        width = self.k * self.alpha
        if self.free_cols is None:
            return [row[:width] for row in D.rows]
        # pinned nodes contribute all-zero values; slice them away and
        # keep only the systematic user coordinates
        return [D.rows[c][:width] for c in self.free_cols]


class Ledger:
    def __init__(self, data=None):
        data = data or {}
        self.repair_symbols = data.get("repair_symbols", 0)
        self.repair2_symbols = data.get("repair2_symbols", 0)
        self.history = list(data.get("history", []))

    def charge(self, op: str, symbols: int, **detail):
        if op == "repair":
            self.repair_symbols += symbols
        elif op == "repair2":
            self.repair2_symbols += symbols
        self.history.append({"op": op, "symbols": symbols, **detail})

    def to_dict(self):
        return {"repair_symbols": self.repair_symbols,
                "repair2_symbols": self.repair2_symbols,
                "history": self.history}


@contextmanager
def _store_lock(root: Path):
    root.mkdir(parents=True, exist_ok=True)
    with open(root / ".lock", "a+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class Cluster:
    """A loaded cluster; every public method runs under the store lock."""

    def __init__(self, root):
        self.root = Path(root)

    # ---- manifest plumbing ----

    def _manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def _load(self):
        try:
            with open(self._manifest_path()) as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"no cluster at {self.root} (run put first)")
        if manifest.get("format") != MANIFEST_FORMAT:
            raise CorruptDataError("not a cluster manifest")
        code, phash = specfile.parse_document(manifest["code_spec"])
        if phash.hex() != manifest["params_hash"]:
            raise CorruptDataError("manifest params hash mismatch")
        return manifest, CodeView(code, phash)

    def _save(self, manifest):
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        _atomic_write(self._manifest_path(), data)

    def _blob_path(self, h: int) -> Path:
        return self.root / f"node_{h}" / "chunks.blob"

    def _record_len(self, view: CodeView) -> int:
        return specfile.HEADER_LEN + view.alpha * view.spec.element_bytes

    def _write_node(self, view: CodeView, h: int, values: np.ndarray) -> str:
        """values: (alpha, chunks) -> one record per chunk; returns digest."""
        chunks = values.shape[1]
        rec_len = self._record_len(view)
        header = specfile.encode_node_blob(
            view.spec, view.phash, h, [0] * view.alpha)[:specfile.HEADER_LEN]
        arr = np.zeros((chunks, rec_len), dtype=np.uint8)
        arr[:, :specfile.HEADER_LEN] = np.frombuffer(header, dtype=np.uint8)
        w = view.spec.element_bytes
        body = values.T.astype("<u2" if w == 2 else np.uint8, order="C")
        arr[:, specfile.HEADER_LEN:] = body.view(np.uint8).reshape(chunks, view.alpha * w)
        data = arr.tobytes()
        path = self._blob_path(h)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, data)
        return hashlib.sha256(data).hexdigest()

    def _read_node(self, view: CodeView, h: int, chunk_count: int) -> np.ndarray:
        """-> (alpha, chunks) symbol values, after validating every record."""
        rec_len = self._record_len(view)
        try:
            data = self._blob_path(h).read_bytes()
        except FileNotFoundError:
            raise CorruptDataError(f"node {h} blob is missing")
        if len(data) != chunk_count * rec_len:
            raise CorruptDataError(f"node {h} blob has wrong length")
        arr = np.frombuffer(data, dtype=np.uint8).reshape(chunk_count, rec_len)
        header = specfile.encode_node_blob(
            view.spec, view.phash, h, [0] * view.alpha)[:specfile.HEADER_LEN]
        if not (arr[:, :specfile.HEADER_LEN]
                == np.frombuffer(header, dtype=np.uint8)).all():
            raise CorruptDataError(f"node {h} blob header mismatch")
        w = view.spec.element_bytes
        body = arr[:, specfile.HEADER_LEN:]
        if w == 2:
            values = body.reshape(chunk_count, view.alpha, 2).copy().view("<u2")
            values = values.reshape(chunk_count, view.alpha)
        else:
            values = body
        if (values.astype(np.uint32) >= view.spec.order).any():
            raise CorruptDataError(f"node {h} blob holds non-canonical symbols")
        return np.ascontiguousarray(values.T, dtype=view.bulk.dtype)

    # ---- commands ----

    def put(self, spec_doc: dict, file_path) -> dict:
        """Initialize (or reinitialize) the store with one file."""
        with _store_lock(self.root):
            code, phash = specfile.parse_document(spec_doc)
            view = CodeView(code, phash)
            data = Path(file_path).read_bytes()
            stream = len(data).to_bytes(8, "little") + data
            chunked = ChunkedFile.plan(len(data), view.user_symbols, view.spec.m)
            symbols = bytes_to_symbols(stream, view.spec.m,
                                       chunked.chunk_count * view.user_symbols)
            user = np.ascontiguousarray(
                symbols.reshape(chunked.chunk_count, view.user_symbols).T)
            phi = view.encode_bulk(user)
            for stale in self.root.glob("node_*"):
                shutil.rmtree(stale)
            values = view.node_values_bulk(phi)
            a = view.alpha
            digests = {str(h): self._write_node(view, h, values[h * a:(h + 1) * a])
                       for h in range(view.n)}
            manifest = {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "code_spec": spec_doc,
                "params_hash": phash.hex(),
                "file": asdict(chunked),
                "node_status": [LIVE] * view.n,
                "node_digests": digests,
                "ledger": Ledger().to_dict(),
            }
            self._save(manifest)
            return {"chunk_count": chunked.chunk_count, "nodes": view.n,
                    "symbols_per_chunk": view.user_symbols}

    def get(self, out_path, nodes: list[int] | None = None) -> dict:
        with _store_lock(self.root):
            manifest, view = self._load()
            live = [h for h, s in enumerate(manifest["node_status"]) if s == LIVE]
            if nodes is None:
                nodes = live[:view.k]
            else:
                view.check_range(nodes, "nodes")
                bad = [h for h in nodes if h not in live]
                if bad:
                    raise UsageError(f"nodes {bad} are not live")
            if len(nodes) < view.k:
                raise InsufficientNodesError(
                    f"get needs {view.k} live nodes, have {len(nodes)} "
                    f"(short by {view.k - len(nodes)})")
            nodes = list(nodes)[:view.k]
            chunked = ChunkedFile.from_dict(manifest["file"])
            stacked = np.vstack([self._read_node(view, h, chunked.chunk_count)
                                 for h in nodes])
            user = view.bulk.matmul(view.decode_matrix(nodes), stacked)
            stream = symbols_to_bytes(user.T.reshape(-1), view.spec.m)
            length = int.from_bytes(stream[:8], "little")
            if length != chunked.original_length:
                raise CorruptDataError("decoded length prefix disagrees with manifest")
            Path(out_path).write_bytes(stream[8:8 + length])
            return {"bytes": length, "nodes": nodes}

    def fail(self, h: int) -> dict:
        with _store_lock(self.root):
            manifest, view = self._load()
            view.check_range([h], "node")
            if manifest["node_status"][h] == FAILED:
                raise UsageError(f"node {h} is already failed")
            manifest["node_status"][h] = FAILED
            blob = self._blob_path(h)
            if blob.exists():
                blob.unlink()
            self._save(manifest)
            return {"failed": h}

    def repair(self, f: int, helpers: list[int] | None = None) -> dict:
        with _store_lock(self.root):
            manifest, view = self._load()
            view.check_range([f, *(helpers or ())], "nodes")
            if manifest["node_status"][f] != FAILED:
                raise UsageError(f"node {f} is live; nothing to repair")
            live = [h for h, s in enumerate(manifest["node_status"]) if s == LIVE]
            if helpers is None:
                helpers = live[:view.d]
            else:
                bad = [h for h in helpers if h not in live]
                if bad:
                    raise UsageError(f"helper nodes {bad} are not live")
            if len(helpers) < view.d:
                raise InsufficientNodesError(
                    f"repair needs {view.d} live helpers, have {len(helpers)}")
            helpers = list(helpers)[:view.d]
            chunk_count = manifest["file"]["chunk_count"]
            messages = []
            for h in helpers:
                stored = self._read_node(view, h, chunk_count)
                H = help_matrix(view.family, h, f)
                messages.append(view.bulk.matmul(H, stored))
            received = np.vstack(messages)
            # pinned helpers of a shortened code contribute zero messages;
            # their recovery columns multiply zeros and are dropped
            R = repair_matrix(view.family, f, helpers + list(view.pinned))
            R_live = [row[:view.d * view.beta] for row in R.rows]
            values = view.bulk.matmul(R_live, received)
            digest = self._write_node(view, f, values)
            if digest != manifest["node_digests"][str(f)]:
                raise CorruptDataError(
                    f"repaired node {f} does not match its original digest")
            manifest["node_status"][f] = LIVE
            symbols = chunk_count * view.d * view.beta
            ledger = Ledger(manifest["ledger"])
            ledger.charge("repair", symbols, node=f, helpers=helpers)
            manifest["ledger"] = ledger.to_dict()
            self._save(manifest)
            return {"repaired": f, "helpers": helpers, "symbols": symbols}

    def repair2(self, f: int, g: int, strategy: str = "subspace",
                helpers: list[int] | None = None) -> dict:
        with _store_lock(self.root):
            manifest, view = self._load()
            if isinstance(view.code, ShortenedCode):
                raise UsageError("repair2 runs on unshortened code instances")
            if strategy not in STRATEGIES:
                raise UsageError(f"unknown strategy {strategy!r}")
            view.check_range([f, g, *(helpers or ())], "nodes")
            for node in (f, g):
                if manifest["node_status"][node] != FAILED:
                    raise UsageError(f"node {node} is live; nothing to repair")
            live = [h for h, s in enumerate(manifest["node_status"]) if s == LIVE]
            if helpers is None:
                helpers = live[:view.d]
            elif any(h not in live for h in helpers):
                raise UsageError("some helper nodes are not live")
            if len(helpers) < view.d:
                raise InsufficientNodesError(
                    f"repair2 needs {view.d} live helpers, have {len(helpers)}")
            helpers = list(helpers)[:view.d]
            program = central_repair_program(view.family, f, g, helpers, strategy)
            chunk_count = manifest["file"]["chunk_count"]
            received_parts = []
            for (h, sent), S in zip(program.plan.per_helper_sent,
                                    program.send_matrices):
                if sent == 0:
                    continue
                stored = self._read_node(view, h, chunk_count)
                received_parts.append(view.bulk.matmul(S, stored))
            received = np.vstack(received_parts)
            values_f = view.bulk.matmul(program.recover_first, received)
            if program.second_uses_first:
                extended = np.vstack([received, values_f])
                values_g = view.bulk.matmul(program.recover_second, extended)
            else:
                values_g = view.bulk.matmul(program.recover_second, received)
            for node, values in ((f, values_f), (g, values_g)):
                digest = self._write_node(view, node, values)
                if digest != manifest["node_digests"][str(node)]:
                    raise CorruptDataError(
                        f"repaired node {node} does not match its original digest")
                manifest["node_status"][node] = LIVE
            symbols = chunk_count * program.plan.total_bandwidth
            ledger = Ledger(manifest["ledger"])
            ledger.charge("repair2", symbols, nodes=[f, g], strategy=strategy,
                          helpers=helpers,
                          bandwidth_per_chunk=program.plan.total_bandwidth)
            manifest["ledger"] = ledger.to_dict()
            self._save(manifest)
            return {"repaired": [f, g], "strategy": strategy,
                    "helpers": helpers, "symbols": symbols}

    def status(self) -> dict:
        with _store_lock(self.root):
            manifest, view = self._load()
            return {
                "params": {"n": view.n, "k": view.k, "d": view.d,
                           "alpha": view.alpha, "beta": view.beta},
                "file": manifest["file"],
                "node_status": manifest["node_status"],
                "ledger": manifest["ledger"],
            }
