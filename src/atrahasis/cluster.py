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

import hashlib
import os
import shutil
import stat
from contextlib import ExitStack, closing
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import specfile, store
from .bulk import (WORD, BitMatrix, BulkField, bytes_to_symbols,
                   symbols_to_bytes)
from .code import download_matrix, help_matrix, repair_matrix
from .errors import (CorruptDataError, InsufficientNodesError, UsageError)
from .store import (FAILED, LIVE, MANIFEST_FORMAT, MANIFEST_VERSION,
                    ChunkedFile, Ledger, Staged, StoreView, locked)
from .transforms import STRATEGIES, central_repair_program

# stripes per batch of every data command: each holds one batch of each
# blob it reads or writes, so its memory does not grow with the file
BATCH_STRIPES = 512


class CodeView(StoreView):
    """A store's code instance with the bulk kernel and the matrices of
    the data path."""

    def __init__(self, code, phash: bytes):
        super().__init__(code, phash)
        self.bulk = BulkField(self.spec)

    def put_matrix(self) -> BitMatrix:
        """The map put applies to the user planes (user_symbols*m, W): every
        node's tensor rows, restated over the user symbols through the
        shortening's encode -> (n*alpha*m, W), node h owning planes
        h*alpha*m .. (h+1)*alpha*m - 1."""
        spec, code = self.spec, self.code
        rows = []
        for h in range(self.n):
            for row in self.family.node_tensor_rows(h):
                out = [row[c] for c in code.free_cols]
                for c, constraint in code.constrained.items():
                    if row[c]:
                        out = [spec.add(a, spec.mul(row[c], b))
                               for a, b in zip(out, constraint)]
                rows.append(out)
        return self.bulk.expand(rows)

    def decode_matrix(self, live_nodes: list[int]) -> list[list[int]]:
        """User symbols from the stacked values of the given k live nodes.
        The pinned nodes' all-zero values are sliced away, and only the
        free (user) coordinates of the base file are kept."""
        D = download_matrix(self.family, list(live_nodes) + list(self.pinned))
        width = self.k * self.alpha
        return [D[c][:width] for c in self.code.free_cols]


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
        manifest, view = store.load(self.root)
        return manifest, CodeView(view.code, view.phash)

    def _save(self, manifest):
        store.save(self.root, manifest)

    def _record_len(self, view: CodeView) -> int:
        """Bytes of one stripe of one node: alpha*m plane words."""
        return view.alpha * view.spec.m * WORD.itemsize

    def _stage_nodes(self, stack: ExitStack, view: CodeView, nodes) -> dict:
        """node -> its blob staged under `stack`, header written."""
        return {h: stack.enter_context(closing(Staged(
                    store.blob_path(self.root, h),
                    specfile.encode_node_blob(view.phash, h))))
                for h in nodes}

    def _open_nodes(self, stack: ExitStack, view: CodeView, nodes,
                    stripes: int) -> dict:
        """node -> its blob opened under `stack` for one streaming pass."""
        size = specfile.HEADER_LEN + stripes * self._record_len(view)
        return {h: stack.enter_context(closing(_BlobReader(
                    store.blob_path(self.root, h), h,
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

    def _helpers(self, manifest: dict, view: CodeView, failed: list[int],
                 helpers: list[int] | None, op: str) -> list[int]:
        """The d helpers of a repair of the failed nodes: the given ones,
        which must all be live, or else the first d live nodes."""
        view.check_nodes(failed, "node" if len(failed) == 1 else "nodes")
        view.check_nodes(helpers or [], "helpers")
        for node in failed:
            if manifest["node_status"][node] != FAILED:
                raise UsageError(f"node {node} is live; nothing to repair")
        live = [h for h, s in enumerate(manifest["node_status"]) if s == LIVE]
        if helpers is None:
            helpers = live[:view.d]
        else:
            bad = [h for h in helpers if h not in live]
            if bad:
                raise UsageError(f"helper nodes {bad} are not live")
        if len(helpers) < view.d:
            raise InsufficientNodesError(
                f"{op} needs {view.d} live helpers, have {len(helpers)}")
        return list(helpers)[:view.d]

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
        with locked(self.root), ExitStack() as stack:
            code, phash = specfile.parse_document(spec_doc)
            view = CodeView(code, phash)
            src = stack.enter_context(open(file_path, "rb"))
            info = os.fstat(src.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise UsageError(f"{file_path} is not a regular file")
            length = info.st_size
            chunked = ChunkedFile.plan(length, view.user_symbols, view.spec.m)
            encode = view.put_matrix()
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
                planes = view.bulk.matmul(encode, bytes_to_symbols(head + data, rows))
                head = b""
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
        with locked(self.root), ExitStack() as stack:
            manifest, view = self._load()
            live = [h for h, s in enumerate(manifest["node_status"]) if s == LIVE]
            if nodes is None:
                nodes = live[:view.k]
            else:
                view.check_nodes(nodes, "nodes")
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
        return store.fail(self.root, h)

    def repair(self, f: int, helpers: list[int] | None = None) -> dict:
        with locked(self.root), ExitStack() as stack:
            manifest, view = self._load()
            helpers = self._helpers(manifest, view, [f], helpers, "repair")
            chunked = ChunkedFile.from_dict(manifest["file"])
            blobs = self._open_nodes(stack, view, helpers, chunked.stripes)
            help_ = [view.bulk.expand(help_matrix(view.family, h, f))
                     for h in helpers]
            # pinned helpers of a shortened code contribute zero messages;
            # their recovery columns multiply zeros and are dropped
            R = repair_matrix(view.family, f, helpers + list(view.pinned))
            recover = view.bulk.expand([row[:view.d * view.beta] for row in R])
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
        with locked(self.root), ExitStack() as stack:
            manifest, view = self._load()
            if strategy not in STRATEGIES:
                raise UsageError(f"unknown strategy {strategy!r}")
            helpers = self._helpers(manifest, view, [f, g], helpers, "repair2")
            # pinned nodes of a shortened code hold zeros, so they send
            # zeros: they lead the helper list (the agent takes what it can
            # from them first), and their received columns are dropped
            program = central_repair_program(
                view.family, f, g, list(view.pinned) + helpers, strategy)
            chunked = ChunkedFile.from_dict(manifest["file"])
            sends, received_cols, pos = [], [], 0
            for (h, sent), S in zip(program.plan.per_helper_sent,
                                    program.send_matrices):
                if h not in view.pinned and sent:
                    sends.append((h, view.bulk.expand(S)))
                    received_cols.extend(range(pos, pos + sent))
                pos += sent
            # the cascade's second recovery also reads the rebuilt first node
            second_cols = received_cols + (list(range(pos, pos + view.alpha))
                                           if program.second_uses_first else [])
            blobs = self._open_nodes(stack, view, [h for h, _ in sends],
                                     chunked.stripes)
            first = view.bulk.expand([[row[c] for c in received_cols]
                                      for row in program.recover_first])
            second = view.bulk.expand([[row[c] for c in second_cols]
                                       for row in program.recover_second])
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
            bandwidth = len(received_cols)
            symbols = chunked.chunk_count * bandwidth
            ledger = Ledger(manifest["ledger"])
            ledger.charge("repair2", symbols, nodes=[f, g], strategy=strategy,
                          helpers=helpers, bandwidth_per_chunk=bandwidth)
            manifest["ledger"] = ledger.to_dict()
            self._save(manifest)
            return {"repaired": [f, g], "strategy": strategy,
                    "helpers": helpers, "symbols": symbols}

    def status(self) -> dict:
        return store.status(self.root)
