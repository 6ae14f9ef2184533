"""Single-process storage cluster: on-disk node stores, failure
injection, repair orchestration and bandwidth accounting, in
standard-library Python only.

Cluster is the one store API, and this module the only one that knows
the manifest, the ledger and the blob layout.  Every command runs under
the store's lock, and only put creates a store.  Each command loads the
manifest with every check on its format, version, keys, embedded spec,
params hash, field and values, and gets the store's code instance with
it: always a ShortenedCode (a plain spec is depth 0, with no pinned
nodes) that check_storable admits, as put checks before it creates
anything.  fail and status read or rewrite the manifest alone.

Layout under one store root:

    manifest.json   cluster manifest, version 2 (embedded code spec, file
                    metadata, node status, per-node blob digests, ledger)
    .lock           per-store lock file; commands serialize on it
    node_<h>/chunks.blob
                    the node's contents: one 16-byte header (blob_header,
                    version 4), then the node's alpha*m bit-planes,
                    plane-major per batch of BATCH_STRIPES stripes
                    (the last batch may be shorter): a batch of W
                    stripes starting at stripe s0 stores plane i*m + b
                    as W little-endian uint64 words, and bit t of its
                    word w is bit b of the node's symbol i for chunk
                    64*(s0 + w) + t

A put reads the byte stream (8-byte little-endian length prefix, then
the payload, zero-padded to whole stripes of M*m words) as the bit-planes
of M-symbol chunks, m bits per symbol, in the same plane-major batches
(bulk), so the data path never holds symbol values.  The store is
systematic: nodes 0..k-1 hold the user symbols, so the body of node
h < k is the stream's planes h*alpha*m .. (h+1)*alpha*m, batch by batch,
byte for byte.  Every matrix applied comes from the store's
ShortenedCode (transforms): put writes those slices as they are and
applies parity_matrix for nodes k..n-1; get from nodes 0..k-1, in any
order, copies their bytes, and from any other k live nodes applies their
systematic_decode_matrix; repair and repair2 share one regeneration
loop, in which each helper applies its send matrix to its blob and each
failed node is one recovery matrix over all that was received.  The
ledger is charged what was sent: d*beta symbols per chunk for repair,
the strategy bandwidth for repair2.

Every data command streams: it expands its matrices once, then works
through the file one batch of BATCH_STRIPES stripes at a time, reading
that batch of the user file or of each node blob at its offset, applying
the bulk kernel and appending the results to temp files hashed as they
grow.  Its memory is one batch, whatever the file size; the batches are
the layout's own, so each one is read or written as one contiguous
slice of every stream.

Reads are verified and writes are staged.  A blob's length and header
are checked when it is opened and its SHA-256 against the manifest once
it has been read through; get writes a temp file beside its output and
renames it only after every digest and the length prefix check out.
Blob and manifest writes go through a temp file and rename, so a file
on disk is either absent or fully valid; repair and repair2 rename only
once every helper and every rebuilt blob matches its digest, and
otherwise leave the node failed with no blob.  Stores of another
manifest or blob version are rejected, not migrated: re-put the file.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import shutil
import stat
from collections import namedtuple
from contextlib import ExitStack, closing, contextmanager
from itertools import chain
from pathlib import Path

from . import specfile
from .bulk import BulkField, Planes, bytes_to_symbols, symbols_to_bytes
from .errors import CorruptDataError, InsufficientNodesError, UsageError
from .fields import BINARY
from .transforms import SUBSPACE, ShortenedCode

MANIFEST_FORMAT = "atrahasis-cluster"
MANIFEST_VERSION = 2
MANIFEST_KEYS = ("code_spec", "params_hash", "file", "node_status",
                 "node_digests", "ledger")
# the ledger's symbol counters, one per repair command; beside them it
# keeps the history of every charge
LEDGER_COUNTERS = ("repair_symbols", "repair2_symbols")
LIVE = "live"
FAILED = "failed"
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")
BLOB_MAGIC = b"ATRA"
BLOB_VERSION = 4
HEADER_LEN = 16

# chunks per stripe: the bit width of one uint64 plane word (bulk)
STRIPE_CHUNKS = 64
# stripes per batch, part of the stream and blob layout: both are cut into
# batches of BATCH_STRIPES stripes (the last may be shorter), and each batch
# stores its planes one after another, each as one word per stripe.  Every
# data command works one batch at a time, so its memory does not grow with
# the file.
BATCH_STRIPES = 512


def blob_header(phash: bytes, h: int) -> bytes:
    """The 16-byte header of node h's blob: magic, version, node index,
    two reserved zero bytes, the spec's params hash."""
    return BLOB_MAGIC + bytes([BLOB_VERSION, h, 0, 0]) + phash


def check_storable(code: ShortenedCode) -> None:
    """Reject a code the blob layout cannot hold: one over a prime field,
    or with more than 256 nodes (the header's node index is one byte)."""
    if code.spec.kind != BINARY:
        raise UsageError("cluster storage requires a binary-extension field")
    if code.n > 256:
        raise UsageError(f"a store holds at most 256 nodes; this code has {code.n}")


def _batches(stripes: int):
    """The stripe count of each batch of a streaming pass, in order."""
    for start in range(0, stripes, BATCH_STRIPES):
        yield min(BATCH_STRIPES, stripes - start)


class ChunkedFile(namedtuple("ChunkedFile", "original_length chunk_count "
                                            "padding_bits symbols_per_chunk")):
    """How one byte stream maps onto stripes of 64 chunks of M symbols.

    The stream is the 8-byte little-endian length prefix plus the
    payload; padding_bits zero bits complete the last stripe and are
    stripped again on the way out.
    """

    __slots__ = ()

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

    @property
    def stripes(self) -> int:
        return self.chunk_count // STRIPE_CHUNKS


@contextmanager
def locked(root: Path, create: bool = False):
    """Hold the store's lock file; every command runs under it.  Only put
    (create) makes a store directory or lock file that is not there."""
    if create and not root.exists():
        try:
            root.mkdir(parents=True)
        except OSError as exc:
            raise UsageError(f"cannot create store {root}: {exc.strerror}") from None
    if not root.is_dir():
        raise UsageError(f"store {root} is not a directory" if root.exists()
                         else f"no cluster at {root} (run put first)")
    try:
        fh = open(root / ".lock", "a+" if create else "r+")
    except FileNotFoundError:
        raise UsageError(f"no cluster at {root} (run put first)") from None
    with fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


class Staged:
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
            if got[4] != BLOB_VERSION:
                raise CorruptDataError(
                    f"node {h} blob is version {got[4]}, expected "
                    f"{BLOB_VERSION} (re-put the file)")
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


def check_nodes(code: ShortenedCode, nodes, what: str) -> None:
    """Reject node indices outside 0..n-1, or named twice, before they
    index anything."""
    bad = [h for h in nodes if not 0 <= h < code.n]
    if bad:
        raise UsageError(f"{what} {bad} out of range 0..{code.n - 1}")
    repeated = sorted({h for h in nodes if nodes.count(h) > 1})
    if repeated:
        raise UsageError(f"{what} {repeated} named more than once")


def _check_manifest_values(manifest: dict, code: ShortenedCode) -> None:
    """Reject manifest values of the wrong type before a command uses them,
    a chunk map that is not the stripe plan of the file's length, and a
    ledger that is not the one put writes with non-negative counters."""
    n = code.n
    file = manifest["file"]
    status = manifest["node_status"]
    digests = manifest["node_digests"]
    ledger = manifest["ledger"]
    ok = {
        "file": isinstance(file, dict)
        and set(file) == set(ChunkedFile._fields)
        and all(type(v) is int and v >= 0 for v in file.values())
        and ChunkedFile(**file) == ChunkedFile.plan(
            file["original_length"], code.M, code.spec.m),
        "node_status": isinstance(status, list) and len(status) == n
        and all(s in (LIVE, FAILED) for s in status),
        "node_digests": isinstance(digests, dict)
        and set(digests) == {str(h) for h in range(n)}
        and all(isinstance(v, str) and _SHA256_HEX.fullmatch(v)
                for v in digests.values()),
        "ledger": isinstance(ledger, dict)
        and set(ledger) == {"history", *LEDGER_COUNTERS}
        and isinstance(ledger["history"], list)
        and all(type(ledger[key]) is int and ledger[key] >= 0
                for key in LEDGER_COUNTERS),
    }
    bad = [key for key, good in ok.items() if not good]
    if bad:
        raise CorruptDataError(f"cluster manifest has malformed {bad}")


class Cluster:
    """The store at one root; every public method runs under its lock."""

    def __init__(self, root):
        self.root = Path(root)

    # ---- manifest ----

    def _load(self):
        """The store's manifest and its code instance, once the manifest's
        format, version, keys, embedded spec, params hash and values all
        check out."""
        try:
            manifest = specfile.read_json(self.root / "manifest.json")
        except FileNotFoundError:
            raise UsageError(f"no cluster at {self.root} (run put first)")
        if manifest.get("format") != MANIFEST_FORMAT:
            raise CorruptDataError("not a cluster manifest")
        version = manifest.get("version")
        if type(version) is not int or version != MANIFEST_VERSION:  # 2.0 is no 2
            raise CorruptDataError(
                f"cluster manifest is version {version!r}, "
                f"expected {MANIFEST_VERSION} (re-put the file)")
        missing = [key for key in MANIFEST_KEYS if key not in manifest]
        if missing:
            raise CorruptDataError(f"cluster manifest lacks {missing}")
        code, phash = specfile.parse_document(manifest["code_spec"])
        if phash.hex() != manifest["params_hash"]:
            raise CorruptDataError("manifest params hash mismatch")
        check_storable(code)
        _check_manifest_values(manifest, code)
        return manifest, code

    def _save(self, manifest):
        with closing(Staged(self.root / "manifest.json")) as staged:
            staged.write(json.dumps(manifest, indent=2, sort_keys=True).encode())
            staged.commit()

    def _pick_nodes(self, manifest: dict, code: ShortenedCode, op: str, nodes,
                    failed=()) -> list[int]:
        """The nodes op reads, k for get and d helpers for a repair of the
        failed nodes: the given ones, which must be that many distinct live
        nodes, or else the first that many live nodes.  Every index is
        checked before any node state, and the failed nodes' states before
        the helpers'."""
        what, named, count = (("nodes", "nodes", code.k) if op == "get"
                              else ("helpers", "helper nodes", code.d))
        check_nodes(code, failed, "node" if len(failed) == 1 else "nodes")
        check_nodes(code, nodes or [], what)
        for node in failed:
            if manifest["node_status"][node] != FAILED:
                raise UsageError(f"node {node} is live; nothing to repair")
        live = [h for h, s in enumerate(manifest["node_status"]) if s == LIVE]
        if nodes is None:
            if len(live) < count:
                short = f" (short by {count - len(live)})" if op == "get" else ""
                raise InsufficientNodesError(
                    f"{op} needs {count} live {what}, have {len(live)}{short}")
            return live[:count]
        if len(nodes) != count:
            raise UsageError(f"{len(nodes)} {named} given; this code uses {count}")
        bad = [h for h in nodes if h not in live]
        if bad:
            raise UsageError(f"{named} {bad} are not live")
        return list(nodes)

    # ---- blobs ----

    def _blob_path(self, h: int) -> Path:
        return self.root / f"node_{h}" / "chunks.blob"

    def _record_len(self, code: ShortenedCode) -> int:
        """Bytes of one stripe of one node: alpha*m plane words."""
        return code.alpha * code.spec.m * Planes.itemsize

    def _stage_nodes(self, stack: ExitStack, phash: bytes, nodes) -> dict:
        """node -> its blob staged under `stack`, header written."""
        return {h: stack.enter_context(closing(Staged(
                    self._blob_path(h), blob_header(phash, h))))
                for h in nodes}

    def _open_nodes(self, stack: ExitStack, code: ShortenedCode, phash: bytes,
                    nodes, stripes: int) -> dict:
        """node -> its blob opened under `stack` for one streaming pass."""
        size = HEADER_LEN + stripes * self._record_len(code)
        return {h: stack.enter_context(closing(_BlobReader(
                    self._blob_path(h), h, blob_header(phash, h), size)))
                for h in nodes}

    def _write_node(self, code: ShortenedCode, h: int, planes: Planes,
                    staged: dict, data=None) -> None:
        """Append planes, node h's alpha*m planes of the next batch, to its
        blob in staged.  data, when given, is their bytes already: a
        systematic node's slice of the user stream."""
        staged[h].write(symbols_to_bytes(planes) if data is None else data)

    def _read_node(self, code: ShortenedCode, h: int, stripes: int,
                   blobs: dict) -> bytes:
        """-> the next batch, `stripes` stripes, of node h's blob in blobs,
        as the bytes of its alpha*m planes."""
        return blobs[h].read(stripes * self._record_len(code))

    def _read_planes(self, code: ShortenedCode, h: int, stripes: int,
                     blobs: dict) -> Planes:
        """_read_node's batch as node h's alpha*m planes."""
        return bytes_to_symbols(self._read_node(code, h, stripes, blobs),
                                code.alpha * code.spec.m)

    # ---- commands ----

    def put(self, spec_doc: dict, file_path) -> dict:
        """Initialize (or reinitialize) the store with one file.  The new
        blobs are staged beside any old ones, so a put that fails leaves
        the stored file as it was; node directories the new code does not
        use go only once the new manifest is saved.  The spec and the input
        are checked before the lock is taken, so a put that fails on
        either creates no store."""
        with ExitStack() as stack:
            code, phash = specfile.parse_document(spec_doc)
            check_storable(code)
            bulk = BulkField(code.spec)
            src = stack.enter_context(open(file_path, "rb"))
            info = os.fstat(src.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise UsageError(f"{file_path} is not a regular file")
            stack.enter_context(locked(self.root, create=True))
            length = info.st_size
            chunked = ChunkedFile.plan(length, code.M, code.spec.m)
            parity = bulk.expand(code.parity_matrix())
            staged = self._stage_nodes(stack, phash, range(code.n))
            rows = code.M * code.spec.m
            a = code.alpha * code.spec.m
            head, remaining = length.to_bytes(8, "little"), length
            for stripes in _batches(chunked.stripes):
                size = stripes * rows * Planes.itemsize
                take = min(size - len(head), remaining)
                data = src.read(take)
                if len(data) != take:
                    raise UsageError(f"{file_path} shrank while put read it")
                remaining -= take
                stream = memoryview((head + data).ljust(size, b"\x00"))
                head = b""
                user = bytes_to_symbols(stream, rows)
                # nodes 0..k-1 hold the user planes: each stores its slice of
                # the stream as it is
                part = size // code.k
                for h, planes in enumerate(user.split(a)):
                    self._write_node(code, h, planes, staged,
                                     stream[h * part:(h + 1) * part])
                for h, planes in enumerate(bulk.matmul(parity, user).split(a), code.k):
                    self._write_node(code, h, planes, staged)
            for blob in staged.values():
                blob.commit()
            manifest = {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "code_spec": spec_doc,
                "params_hash": phash.hex(),
                "file": chunked._asdict(),
                "node_status": [LIVE] * code.n,
                "node_digests": {str(h): blob.sha.hexdigest()
                                 for h, blob in staged.items()},
                "ledger": {"history": [], **dict.fromkeys(LEDGER_COUNTERS, 0)},
            }
            self._save(manifest)
            nodes = {f"node_{h}" for h in range(code.n)}
            for stale in self.root.glob("node_*"):
                if stale.name not in nodes:
                    shutil.rmtree(stale)
            return {"chunk_count": chunked.chunk_count, "nodes": code.n,
                    "symbols_per_chunk": code.M}

    def get(self, out_path, nodes: list[int] | None = None) -> dict:
        """Decode the file from k live nodes into out_path, or copy it from
        nodes 0..k-1.  The bytes go to a temp file beside it, renamed over
        it only once every blob read matches its digest and the length
        prefix matches the manifest."""
        with locked(self.root), ExitStack() as stack:
            manifest, code = self._load()
            nodes = self._pick_nodes(manifest, code, "get", nodes)
            chunked = ChunkedFile(**manifest["file"])
            length = chunked.original_length
            blobs = self._open_nodes(stack, code, bytes.fromhex(manifest["params_hash"]),
                                     nodes, chunked.stripes)
            # from nodes 0..k-1, in any order, the stream is their planes
            # copied; from any other k nodes it is decoded
            copy = sorted(nodes) == list(range(code.k))
            if not copy:
                bulk = BulkField(code.spec)
                decode = bulk.expand(code.systematic_decode_matrix(nodes))
            out = Path(out_path)
            if out.is_symlink():
                out = out.resolve()  # write through a symlink, not over it
            if out.exists() and not out.is_file():
                # get renames a verified temp file into place, and renaming
                # over a device or pipe would replace it, not write to it
                raise UsageError(f"{out_path} is not a regular file")
            tmp = out.with_name(f".{out.name}.tmp")
            try:
                sink = open(tmp, "wb")
            except (FileNotFoundError, NotADirectoryError, PermissionError) as exc:
                # the directory of out is at fault: name out, not the temp file
                raise type(exc)(exc.errno, exc.strerror, str(out_path)) from None
            try:
                with sink:
                    # the payload is bytes 8 .. 8+length of the stream
                    pos = 0
                    for stripes in _batches(chunked.stripes):
                        if copy:
                            pieces = [self._read_node(code, h, stripes, blobs)
                                      for h in range(code.k)]
                        else:
                            stacked = Planes(chain.from_iterable(
                                self._read_planes(code, h, stripes, blobs) for h in nodes),
                                stripes)
                            pieces = [symbols_to_bytes(bulk.matmul(decode, stacked))]
                        for piece in pieces:
                            if pos == 0:
                                prefix = int.from_bytes(piece[:8], "little")
                            sink.write(memoryview(piece)[max(8 - pos, 0):
                                                         max(8 + length - pos, 0)])
                            pos += len(piece)
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
        """Mark node h failed, then delete its blob (a crash in between
        leaves a failed node whose stale blob repair or put replaces)."""
        with locked(self.root):
            manifest, code = self._load()
            check_nodes(code, [h], "node")
            if manifest["node_status"][h] == FAILED:
                raise UsageError(f"node {h} is already failed")
            manifest["node_status"][h] = FAILED
            self._save(manifest)
            self._blob_path(h).unlink(missing_ok=True)
            return {"failed": h}

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
            helpers = self._pick_nodes(manifest, code, op, helpers, failed)
            sends, recover = code.repair_program(failed, helpers, strategy)
            chunked = ChunkedFile(**manifest["file"])
            phash = bytes.fromhex(manifest["params_hash"])
            blobs = self._open_nodes(stack, code, phash, [h for h, _ in sends],
                                     chunked.stripes)
            bulk = BulkField(code.spec)
            sends = [(h, bulk.expand(S)) for h, S in sends]
            recover = [bulk.expand(R) for R in recover]
            staged = self._stage_nodes(stack, phash, failed)
            for stripes in _batches(chunked.stripes):
                received = Planes(chain.from_iterable(
                    bulk.matmul(S, self._read_planes(code, h, stripes, blobs))
                    for h, S in sends), stripes)
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
            ledger = manifest["ledger"]
            ledger[f"{op}_symbols"] += symbols
            ledger["history"].append({"op": op, "symbols": symbols,
                                      "helpers": helpers, **entry})
            self._save(manifest)
            return helpers, symbols

    def status(self) -> dict:
        """The code parameters, chunk map, node states and ledger."""
        with locked(self.root):
            manifest, code = self._load()
            return {
                "params": {"n": code.n, "k": code.k, "d": code.d,
                           "alpha": code.alpha, "beta": code.beta},
                "file": manifest["file"],
                "node_status": manifest["node_status"],
                "ledger": manifest["ledger"],
            }
