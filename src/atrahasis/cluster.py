"""Single-process storage cluster: on-disk node stores, failure
injection, repair orchestration and bandwidth accounting.

The manifest layer (lock, staged files, chunk map, ledger, manifest load
and save, fail and status) is the store module, which imports no numpy;
this module adds the data path on top of it and imports numpy (through
bulk) when it is imported.

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
(bulk), so the data path never holds symbol values.  Every matrix
applied comes from the store's ShortenedCode (transforms): put applies
put_matrix, get the decode_matrix of k live nodes, and repair and
repair2 share one regeneration loop, in which each helper applies its
send matrix to its blob and each failed node is one recovery matrix over
all that was received.  The ledger is charged what was sent: d*beta
symbols per chunk for repair, the strategy bandwidth for repair2.

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

import hashlib
import os
import shutil
import stat
from contextlib import ExitStack, closing
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import specfile, store
from .bulk import WORD, BulkField, bytes_to_symbols, symbols_to_bytes
from .errors import CorruptDataError, InsufficientNodesError, UsageError
from .store import (FAILED, LIVE, MANIFEST_FORMAT, MANIFEST_VERSION,
                    ChunkedFile, Ledger, Staged, check_nodes, locked)
from .transforms import SUBSPACE, ShortenedCode

# stripes per batch of every data command: each holds one batch of each
# blob it reads or writes, so its memory does not grow with the file
BATCH_STRIPES = 512


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


class Cluster:
    """A loaded cluster; every public method runs under the store lock.
    fail and status, _load and _save are the store module's."""

    def __init__(self, root):
        self.root = Path(root)

    # ---- manifest plumbing (store) ----

    def _load(self):
        return store.load(self.root)

    def _save(self, manifest):
        store.save(self.root, manifest)

    def _record_len(self, code: ShortenedCode) -> int:
        """Bytes of one stripe of one node: alpha*m plane words."""
        return code.alpha * code.spec.m * WORD.itemsize

    def _stage_nodes(self, stack: ExitStack, phash: bytes, nodes) -> dict:
        """node -> its blob staged under `stack`, header written."""
        return {h: stack.enter_context(closing(Staged(
                    store.blob_path(self.root, h),
                    specfile.encode_node_blob(phash, h))))
                for h in nodes}

    def _open_nodes(self, stack: ExitStack, code: ShortenedCode, phash: bytes,
                    nodes, stripes: int) -> dict:
        """node -> its blob opened under `stack` for one streaming pass."""
        size = specfile.HEADER_LEN + stripes * self._record_len(code)
        return {h: stack.enter_context(closing(_BlobReader(
                    store.blob_path(self.root, h), h,
                    specfile.encode_node_blob(phash, h), size)))
                for h in nodes}

    def _write_node(self, code: ShortenedCode, h: int, planes: np.ndarray,
                    staged: dict) -> None:
        """Append planes, node h's next (alpha*m, stripes) planes, to its
        blob in staged."""
        staged[h].write(np.ascontiguousarray(planes.T, dtype=WORD))

    def _read_node(self, code: ShortenedCode, h: int, stripes: int,
                   blobs: dict) -> np.ndarray:
        """-> the next `stripes` stripes of node h's blob in blobs, as
        (alpha*m, stripes) planes."""
        data = blobs[h].read(stripes * self._record_len(code))
        return np.frombuffer(data, dtype=WORD).reshape(
            stripes, code.alpha * code.spec.m).T

    def _live(self, manifest: dict, nodes, count: int, what: str) -> list[int]:
        """The given nodes, which must all be live, or else the first
        `count` live nodes; at most `count` of them."""
        live = [h for h, s in enumerate(manifest["node_status"]) if s == LIVE]
        if nodes is None:
            return live[:count]
        bad = [h for h in nodes if h not in live]
        if bad:
            raise UsageError(f"{what} {bad} are not live")
        return list(nodes)[:count]

    # ---- commands ----

    def put(self, spec_doc: dict, file_path) -> dict:
        """Initialize (or reinitialize) the store with one file.  The new
        blobs are staged beside any old ones, so a put that fails leaves
        the stored file as it was; node directories the new code does not
        use go only once the new manifest is saved."""
        with locked(self.root), ExitStack() as stack:
            code, phash = specfile.parse_document(spec_doc)
            bulk = BulkField(code.spec)
            src = stack.enter_context(open(file_path, "rb"))
            info = os.fstat(src.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise UsageError(f"{file_path} is not a regular file")
            length = info.st_size
            chunked = ChunkedFile.plan(length, code.M, code.spec.m)
            encode = bulk.expand(code.put_matrix())
            staged = self._stage_nodes(stack, phash, range(code.n))
            rows = code.M * code.spec.m
            a = code.alpha * code.spec.m
            head, remaining = length.to_bytes(8, "little"), length
            for stripes in _batches(chunked.stripes):
                take = min(stripes * rows * WORD.itemsize - len(head), remaining)
                data = src.read(take)
                if len(data) != take:
                    raise UsageError(f"{file_path} shrank while put read it")
                remaining -= take
                planes = bulk.matmul(encode, bytes_to_symbols(head + data, rows))
                head = b""
                for h in range(code.n):
                    self._write_node(code, h, planes[h * a:(h + 1) * a], staged)
            for blob in staged.values():
                blob.commit()
            manifest = {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "code_spec": spec_doc,
                "params_hash": phash.hex(),
                "file": asdict(chunked),
                "node_status": [LIVE] * code.n,
                "node_digests": {str(h): blob.sha.hexdigest()
                                 for h, blob in staged.items()},
                "ledger": Ledger().to_dict(),
            }
            self._save(manifest)
            nodes = {f"node_{h}" for h in range(code.n)}
            for stale in self.root.glob("node_*"):
                if stale.name not in nodes:
                    shutil.rmtree(stale)
            return {"chunk_count": chunked.chunk_count, "nodes": code.n,
                    "symbols_per_chunk": code.M}

    def get(self, out_path, nodes: list[int] | None = None) -> dict:
        """Decode the file from k live nodes into out_path.  The bytes go to
        a temp file beside it, renamed over it only once every blob read
        matches its digest and the length prefix matches the manifest."""
        with locked(self.root), ExitStack() as stack:
            manifest, code = self._load()
            check_nodes(code, nodes or [], "nodes")
            nodes = self._live(manifest, nodes, code.k, "nodes")
            if len(nodes) < code.k:
                raise InsufficientNodesError(
                    f"get needs {code.k} live nodes, have {len(nodes)} "
                    f"(short by {code.k - len(nodes)})")
            chunked = ChunkedFile.from_dict(manifest["file"])
            length = chunked.original_length
            blobs = self._open_nodes(stack, code, bytes.fromhex(manifest["params_hash"]),
                                     nodes, chunked.stripes)
            bulk = BulkField(code.spec)
            decode = bulk.expand(code.decode_matrix(nodes))
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
                        stacked = np.vstack([self._read_node(code, h, stripes, blobs)
                                             for h in nodes])
                        stream = symbols_to_bytes(bulk.matmul(decode, stacked))
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
        return store.fail(self.root, h)

    def repair(self, f: int, helpers: list[int] | None = None) -> dict:
        helpers, symbols = self._regenerate("repair", [f], helpers, node=f)
        return {"repaired": f, "helpers": helpers, "symbols": symbols}

    def repair2(self, f: int, g: int, strategy: str = SUBSPACE,
                helpers: list[int] | None = None) -> dict:
        helpers, symbols = self._regenerate("repair2", [f, g], helpers, strategy,
                                            nodes=[f, g])
        return {"repaired": [f, g], "strategy": strategy,
                "helpers": helpers, "symbols": symbols}

    def _regenerate(self, op: str, failed: list[int], helpers: list[int] | None,
                    strategy: str = SUBSPACE, **entry) -> tuple[list[int], int]:
        """Rebuild the failed nodes from d live helpers (the given ones, or
        the first d live nodes) and charge op to the ledger; -> (helpers,
        symbols sent).  The rebuilt blobs are renamed into place only once
        every helper read and every rebuilt blob matches its digest."""
        with locked(self.root), ExitStack() as stack:
            manifest, code = self._load()
            check_nodes(code, failed, "node" if len(failed) == 1 else "nodes")
            check_nodes(code, helpers or [], "helpers")
            for node in failed:
                if manifest["node_status"][node] != FAILED:
                    raise UsageError(f"node {node} is live; nothing to repair")
            helpers = self._live(manifest, helpers, code.d, "helper nodes")
            if len(helpers) < code.d:
                raise InsufficientNodesError(
                    f"{op} needs {code.d} live helpers, have {len(helpers)}")
            sends, recover = code.repair_program(failed, helpers, strategy)
            chunked = ChunkedFile.from_dict(manifest["file"])
            phash = bytes.fromhex(manifest["params_hash"])
            blobs = self._open_nodes(stack, code, phash, [h for h, _ in sends],
                                     chunked.stripes)
            bulk = BulkField(code.spec)
            sends = [(h, bulk.expand(S)) for h, S in sends]
            recover = [bulk.expand(R) for R in recover]
            staged = self._stage_nodes(stack, phash, failed)
            for stripes in _batches(chunked.stripes):
                received = np.vstack([
                    bulk.matmul(S, self._read_node(code, h, stripes, blobs))
                    for h, S in sends])
                for node, R in zip(failed, recover):
                    self._write_node(code, node, bulk.matmul(R, received), staged)
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
            bandwidth = sum(len(S.rows) for _, S in sends)
            if len(failed) > 1:  # a single repair always sends d*beta
                entry.update(strategy=strategy, bandwidth_per_chunk=bandwidth)
            symbols = chunked.chunk_count * bandwidth
            ledger = Ledger(manifest["ledger"])
            ledger.charge(op, symbols, helpers=helpers, **entry)
            manifest["ledger"] = ledger.to_dict()
            self._save(manifest)
            return helpers, symbols

    def status(self) -> dict:
        return store.status(self.root)
