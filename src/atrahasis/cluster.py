"""Single-process storage cluster: on-disk node stores, failure
injection, repair orchestration and bandwidth accounting.

Layout under one store root:

    manifest.json   cluster manifest, version 2 (embedded code spec, file
                    metadata, node status, per-node blob digests, ledger)
    .lock           per-store lock file; commands serialize on it
    node_<h>/chunks.blob
                    the node's contents: one 16-byte header (specfile,
                    blob version 2), then one stripe per 64 chunks of
                    alpha*m little-endian uint64 words; bit t of word
                    i*m + b in stripe s is bit b of the node's symbol i
                    for chunk 64*s + t

A put reads the byte stream (8-byte little-endian length prefix, then
the payload, zero-padded to whole stripes of M*m words) as the bit-planes
of M-symbol chunks, m bits per symbol, in the same stripe convention
(bulk), so the data path never holds symbol values.  Get reads exactly
k live nodes and reconstructs the bytes; repair regenerates a failed
node bit-exactly against the digest retained at put time and charges
the ledger exactly d*beta symbols per chunk, repair2 the strategy
bandwidth.

Every data command streams: it expands its matrices once, then works
through the file BATCH_STRIPES stripes at a time, reading one batch of
the user file or of each node blob at its offset, applying the bulk
kernel and appending the results to temp files hashed as they grow.  Its
memory is one batch, whatever the file size, and the stripe-major blob
layout makes the output identical to a whole-file pass.

Reads are verified and writes are staged.  A blob's length and header
are checked when it is opened and its SHA-256 against the manifest once
it has been read through; get writes a temp file beside its output and
renames it only after every digest and the length prefix check out.
Blob writes go through a temp file and rename, so a blob on disk is
either absent or fully valid; repair and repair2 rename only once every
helper and every rebuilt blob matches its digest, and otherwise leave
the node failed with no blob.  Stores of another manifest or blob
version are rejected, not migrated: re-put the file.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import shutil
import stat
from contextlib import ExitStack, closing, contextmanager
from dataclasses import asdict, dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import specfile
from .bulk import (STRIPE_CHUNKS, WORD, BitMatrix, BulkField,
                   bytes_to_symbols, symbols_to_bytes)
from .code import download_matrix, help_matrix, repair_matrix
from .errors import (CorruptDataError, InsufficientNodesError, UsageError)
from .fields import BINARY
from .transforms import STRATEGIES, ShortenedCode, central_repair_program

MANIFEST_FORMAT = "atrahasis-cluster"
MANIFEST_VERSION = 2
MANIFEST_KEYS = ("code_spec", "params_hash", "file", "node_status",
                 "node_digests", "ledger")
LIVE = "live"
FAILED = "failed"
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")
# stripes per batch of every data command: each holds one batch of each
# blob it reads or writes, so its memory does not grow with the file
BATCH_STRIPES = 512


@dataclass(frozen=True)
class ChunkedFile:
    """How one byte stream maps onto stripes of 64 chunks of M symbols.

    The stream is the 8-byte little-endian length prefix plus the
    payload; padding_bits zero bits complete the last stripe and are
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
        stripe_bits = STRIPE_CHUNKS * symbols_per_chunk * bits_per_symbol
        stripes = -(-stream_bits // stripe_bits)
        return cls(original_length=payload_length,
                   chunk_count=stripes * STRIPE_CHUNKS,
                   padding_bits=stripes * stripe_bits - stream_bits,
                   symbols_per_chunk=symbols_per_chunk)

    @classmethod
    def from_dict(cls, d: dict) -> "ChunkedFile":
        return cls(**d)

    @property
    def stripes(self) -> int:
        return self.chunk_count // STRIPE_CHUNKS


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

    def put_matrices(self) -> list[BitMatrix]:
        """The chain put applies to the user planes (user_symbols*m, W):
        the shortening's encode to base file coordinates, if any, then
        every node's tensor rows -> (n*alpha*m, W), node h owning planes
        h*alpha*m .. (h+1)*alpha*m - 1."""
        chain = []
        if self.encode_columns is not None:
            chain.append([[col[i] for col in self.encode_columns]
                          for i in range(self.family.params.M)])
        chain.append([row for h in range(self.n)
                      for row in self.family.node_tensor_rows(h)])
        return [self.bulk.expand(rows) for rows in chain]

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


class _Staged:
    """A file written beside `path` under a temp name and hashed as it
    grows.  commit() makes it durable and renames it over `path`; close()
    before that deletes it, so `path` is either untouched or complete."""

    def __init__(self, path: Path, header: bytes = b""):
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self.tmp = path.with_name(path.name + ".tmp")
        self.fh = open(self.tmp, "wb")
        self.sha = hashlib.sha256()
        self.write(header)

    def write(self, data) -> None:
        self.fh.write(data)
        self.sha.update(data)

    def commit(self) -> None:
        self.fh.flush()
        os.fsync(self.fh.fileno())
        self.fh.close()
        os.replace(self.tmp, self.path)

    def close(self) -> None:
        if not self.fh.closed:
            self.fh.close()
            self.tmp.unlink()


class _BlobReader:
    """One node blob opened for a streaming pass: its length and header are
    checked on open, its body is read a batch of stripes at a time, and all
    of it is hashed for check() against the digest recorded at put."""

    def __init__(self, path: Path, h: int, header: bytes, size: int):
        self.h = h
        try:
            self.fh = open(path, "rb")
        except FileNotFoundError:
            raise CorruptDataError(f"node {h} blob is missing") from None
        try:
            if os.fstat(self.fh.fileno()).st_size != size:
                raise CorruptDataError(f"node {h} blob has wrong length")
            got = self.fh.read(len(header))
            if got[4] != specfile.BLOB_VERSION:
                raise CorruptDataError(
                    f"node {h} blob is version {got[4]}, expected "
                    f"{specfile.BLOB_VERSION} (re-put the file)")
            if got != header:
                raise CorruptDataError(f"node {h} blob header mismatch")
        except CorruptDataError:
            self.fh.close()
            raise
        self.sha = hashlib.sha256(got)

    def read(self, size: int) -> bytes:
        data = self.fh.read(size)
        if len(data) != size:
            raise CorruptDataError(f"node {self.h} blob has wrong length")
        self.sha.update(data)
        return data

    def check(self, digests: dict) -> None:
        """Compare what was read with the manifest's node_digests."""
        if self.sha.hexdigest() != digests[str(self.h)]:
            raise CorruptDataError(f"node {self.h} blob does not match its digest")

    def close(self) -> None:
        self.fh.close()


def _batches(stripes: int):
    """The stripe count of each batch of a streaming pass, in order."""
    for start in range(0, stripes, BATCH_STRIPES):
        yield min(BATCH_STRIPES, stripes - start)


def _check_manifest_values(manifest: dict, view: CodeView) -> None:
    """Reject manifest values of the wrong type before a command uses them,
    and a chunk map that is not the stripe plan of the file's length."""
    n = view.n
    file = manifest["file"]
    status = manifest["node_status"]
    digests = manifest["node_digests"]
    ok = {
        "file": isinstance(file, dict)
        and set(file) == {f.name for f in dataclass_fields(ChunkedFile)}
        and all(type(v) is int and v >= 0 for v in file.values())
        and ChunkedFile(**file) == ChunkedFile.plan(
            file["original_length"], view.user_symbols, view.spec.m),
        "node_status": isinstance(status, list) and len(status) == n
        and all(s in (LIVE, FAILED) for s in status),
        "node_digests": isinstance(digests, dict)
        and set(digests) == {str(h) for h in range(n)}
        and all(isinstance(v, str) and _SHA256_HEX.fullmatch(v)
                for v in digests.values()),
        "ledger": isinstance(manifest["ledger"], dict),
    }
    bad = [key for key, good in ok.items() if not good]
    if bad:
        raise CorruptDataError(f"cluster manifest has malformed {bad}")


class Cluster:
    """A loaded cluster; every public method runs under the store lock."""

    def __init__(self, root):
        self.root = Path(root)

    # ---- manifest plumbing ----

    def _manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def _load(self):
        try:
            manifest = specfile.read_json(self._manifest_path())
        except FileNotFoundError:
            raise UsageError(f"no cluster at {self.root} (run put first)")
        if manifest.get("format") != MANIFEST_FORMAT:
            raise CorruptDataError("not a cluster manifest")
        if manifest.get("version") != MANIFEST_VERSION:
            raise CorruptDataError(
                f"cluster manifest is version {manifest.get('version')!r}, "
                f"expected {MANIFEST_VERSION} (re-put the file)")
        missing = [key for key in MANIFEST_KEYS if key not in manifest]
        if missing:
            raise CorruptDataError(f"cluster manifest lacks {missing}")
        code, phash = specfile.parse_document(manifest["code_spec"])
        if phash.hex() != manifest["params_hash"]:
            raise CorruptDataError("manifest params hash mismatch")
        view = CodeView(code, phash)
        _check_manifest_values(manifest, view)
        return manifest, view

    def _save(self, manifest):
        with closing(_Staged(self._manifest_path())) as staged:
            staged.write(json.dumps(manifest, indent=2, sort_keys=True).encode())
            staged.commit()

    def _blob_path(self, h: int) -> Path:
        return self.root / f"node_{h}" / "chunks.blob"

    def _record_len(self, view: CodeView) -> int:
        """Bytes of one stripe of one node: alpha*m plane words."""
        return view.alpha * view.spec.m * WORD.itemsize

    def _stage_nodes(self, stack: ExitStack, view: CodeView, nodes) -> dict:
        """node -> its blob staged under `stack`, header written."""
        return {h: stack.enter_context(closing(_Staged(
                    self._blob_path(h), specfile.encode_node_blob(view.phash, h))))
                for h in nodes}

    def _open_nodes(self, stack: ExitStack, view: CodeView, nodes,
                    stripes: int) -> dict:
        """node -> its blob opened under `stack` for one streaming pass."""
        size = specfile.HEADER_LEN + stripes * self._record_len(view)
        return {h: stack.enter_context(closing(_BlobReader(
                    self._blob_path(h), h,
                    specfile.encode_node_blob(view.phash, h), size)))
                for h in nodes}

    def _write_node(self, view: CodeView, h: int, planes: np.ndarray,
                    staged: dict) -> None:
        """Append planes, node h's next (alpha*m, stripes) planes, to its
        blob in staged."""
        staged[h].write(np.ascontiguousarray(planes.T, dtype=WORD))

    def _read_node(self, view: CodeView, h: int, stripes: int,
                   blobs: dict) -> np.ndarray:
        """-> the next `stripes` stripes of node h's blob in blobs, as
        (alpha*m, stripes) planes."""
        data = blobs[h].read(stripes * self._record_len(view))
        return np.frombuffer(data, dtype=WORD).reshape(
            stripes, view.alpha * view.spec.m).T

    def _commit_repair(self, manifest: dict, blobs: dict, staged: dict) -> None:
        """Rename the repaired blobs into place and mark their nodes live,
        but only once every helper blob read and every repaired blob
        matches its digest; otherwise the staged blobs are dropped and the
        nodes stay failed."""
        digests = manifest["node_digests"]
        for blob in blobs.values():
            blob.check(digests)
        for node, blob in staged.items():
            if blob.sha.hexdigest() != digests[str(node)]:
                raise CorruptDataError(
                    f"repaired node {node} does not match its original digest")
        for node, blob in staged.items():
            blob.commit()
            manifest["node_status"][node] = LIVE

    # ---- commands ----

    def put(self, spec_doc: dict, file_path) -> dict:
        """Initialize (or reinitialize) the store with one file."""
        with _store_lock(self.root), ExitStack() as stack:
            code, phash = specfile.parse_document(spec_doc)
            view = CodeView(code, phash)
            src = stack.enter_context(open(file_path, "rb"))
            info = os.fstat(src.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise UsageError(f"{file_path} is not a regular file")
            length = info.st_size
            chunked = ChunkedFile.plan(length, view.user_symbols, view.spec.m)
            chain = view.put_matrices()
            for stale in self.root.glob("node_*"):
                shutil.rmtree(stale)
            staged = self._stage_nodes(stack, view, range(view.n))
            rows = view.user_symbols * view.spec.m
            a = view.alpha * view.spec.m
            head, remaining = length.to_bytes(8, "little"), length
            for stripes in _batches(chunked.stripes):
                take = min(stripes * rows * WORD.itemsize - len(head), remaining)
                data = src.read(take)
                if len(data) != take:
                    raise UsageError(f"{file_path} shrank while put read it")
                remaining -= take
                planes = bytes_to_symbols(head + data, rows)
                head = b""
                for matrix in chain:
                    planes = view.bulk.matmul(matrix, planes)
                for h in range(view.n):
                    self._write_node(view, h, planes[h * a:(h + 1) * a], staged)
            for blob in staged.values():
                blob.commit()
            manifest = {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "code_spec": spec_doc,
                "params_hash": phash.hex(),
                "file": asdict(chunked),
                "node_status": [LIVE] * view.n,
                "node_digests": {str(h): blob.sha.hexdigest()
                                 for h, blob in staged.items()},
                "ledger": Ledger().to_dict(),
            }
            self._save(manifest)
            return {"chunk_count": chunked.chunk_count, "nodes": view.n,
                    "symbols_per_chunk": view.user_symbols}

    def get(self, out_path, nodes: list[int] | None = None) -> dict:
        """Decode the file from k live nodes into out_path.  The bytes go to
        a temp file beside it, renamed over it only once every blob read
        matches its digest and the length prefix matches the manifest."""
        with _store_lock(self.root), ExitStack() as stack:
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
            length = chunked.original_length
            blobs = self._open_nodes(stack, view, nodes, chunked.stripes)
            decode = view.bulk.expand(view.decode_matrix(nodes))
            out = Path(out_path)
            if out.is_symlink():
                out = out.resolve()  # write through a symlink, not over it
            if out.exists() and not out.is_file():
                # get renames a verified temp file into place, and renaming
                # over a device or pipe would replace it, not write to it
                raise UsageError(f"{out_path} is not a regular file")
            tmp = out.with_name(f".{out.name}.tmp")
            try:
                with open(tmp, "wb") as sink:
                    # the payload is bytes 8 .. 8+length of the decoded stream
                    pos = 0
                    for stripes in _batches(chunked.stripes):
                        stacked = np.vstack([self._read_node(view, h, stripes, blobs)
                                             for h in nodes])
                        stream = symbols_to_bytes(view.bulk.matmul(decode, stacked))
                        if pos == 0:
                            prefix = int.from_bytes(stream[:8], "little")
                        sink.write(memoryview(stream)[max(8 - pos, 0):
                                                      max(8 + length - pos, 0)])
                        pos += len(stream)
                for blob in blobs.values():
                    blob.check(manifest["node_digests"])
                if prefix != length:
                    raise CorruptDataError(
                        "decoded length prefix disagrees with manifest")
                os.replace(tmp, out)
            finally:
                tmp.unlink(missing_ok=True)
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
        with _store_lock(self.root), ExitStack() as stack:
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
            chunked = ChunkedFile.from_dict(manifest["file"])
            blobs = self._open_nodes(stack, view, helpers, chunked.stripes)
            help_ = [view.bulk.expand(help_matrix(view.family, h, f))
                     for h in helpers]
            # pinned helpers of a shortened code contribute zero messages;
            # their recovery columns multiply zeros and are dropped
            R = repair_matrix(view.family, f, helpers + list(view.pinned))
            recover = view.bulk.expand([row[:view.d * view.beta] for row in R.rows])
            staged = self._stage_nodes(stack, view, [f])
            for stripes in _batches(chunked.stripes):
                received = np.vstack([
                    view.bulk.matmul(H, self._read_node(view, h, stripes, blobs))
                    for h, H in zip(helpers, help_)])
                self._write_node(view, f, view.bulk.matmul(recover, received),
                                 staged)
            self._commit_repair(manifest, blobs, staged)
            symbols = chunked.chunk_count * view.d * view.beta
            ledger = Ledger(manifest["ledger"])
            ledger.charge("repair", symbols, node=f, helpers=helpers)
            manifest["ledger"] = ledger.to_dict()
            self._save(manifest)
            return {"repaired": f, "helpers": helpers, "symbols": symbols}

    def repair2(self, f: int, g: int, strategy: str = "subspace",
                helpers: list[int] | None = None) -> dict:
        with _store_lock(self.root), ExitStack() as stack:
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
            chunked = ChunkedFile.from_dict(manifest["file"])
            sends = [(h, view.bulk.expand(S))
                     for (h, sent), S in zip(program.plan.per_helper_sent,
                                             program.send_matrices) if sent]
            blobs = self._open_nodes(stack, view, [h for h, _ in sends],
                                     chunked.stripes)
            first = view.bulk.expand(program.recover_first)
            second = view.bulk.expand(program.recover_second)
            staged = self._stage_nodes(stack, view, [f, g])
            for stripes in _batches(chunked.stripes):
                received = np.vstack([
                    view.bulk.matmul(S, self._read_node(view, h, stripes, blobs))
                    for h, S in sends])
                values_f = view.bulk.matmul(first, received)
                if program.second_uses_first:
                    received = np.vstack([received, values_f])
                self._write_node(view, f, values_f, staged)
                self._write_node(view, g, view.bulk.matmul(second, received), staged)
            self._commit_repair(manifest, blobs, staged)
            symbols = chunked.chunk_count * program.plan.total_bandwidth
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
