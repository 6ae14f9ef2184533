"""Single-process storage cluster: on-disk node stores, failure
injection, repair orchestration and bandwidth accounting, in
standard-library Python only.

Cluster is the one store API, and this module the only one that knows
the manifest, the ledger and the blob layout.  Every command runs under
the store's lock, and only put creates a store.  Each command loads the
manifest with every check on its format, version, keys, embedded spec,
params hash, field and values, and gets the store's code instance with
it: always a ShortenedCode (a plain spec is depth 0, with no pinned
nodes) that check_storable admits and whose base family passes
verify_axioms, as put checks before it creates anything.  fail and
status read or rewrite the manifest alone.

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

The user stream is an 8-byte little-endian length prefix, then the
payload, zero-padded to whole stripes of M*m words: the bit-planes of
M-symbol chunks, m bits per symbol, in the layout's plane-major batches
(bulk), so the data path never holds symbol values.  The store is
systematic: the body of node h < k is the stream's planes h*alpha*m ..
(h+1)*alpha*m, batch by batch, byte for byte.

Every data command is a plan for one streaming pass (Cluster._stream),
which holds one batch of BATCH_STRIPES stripes at a time, whatever the
file size.  Each batch, it reads every source (the stream's k slices,
or node blobs), sends each through its send matrix or as it is, and
gives each target a copy of one source or its planes of one matrix,
from the store's ShortenedCode (transforms), over all that was sent.
put copies the slices to nodes 0..k-1 and computes k..n-1; get copies
what survives of nodes 0..k-1 and decodes only the rest (Khan et al.,
FAST 2012), so from 0..k-1 in any order it is a pure copy; repair and
repair2 rebuild the failed nodes from what the helpers send.  The
ledger is charged what was sent: d*beta symbols per chunk for repair,
the strategy bandwidth for repair2.

Reads are verified and writes are staged.  A blob's length and header
are checked when it is opened, and its SHA-256 against the manifest by
the read that reaches its end; get writes a temp file beside its output
and renames it only after every digest and the length prefix check out.
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
from .bulk import BulkField, Planes, bytes_to_symbols, require_binary, symbols_to_bytes
from .code import verify_axioms
from .errors import CorruptDataError, InsufficientNodesError, UsageError
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
    require_binary(code.spec)
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
    checked on open, its body is read a batch of stripes at a time, and
    the read that reaches its end compares the SHA-256 of all of it with
    the digest recorded at put."""

    def __init__(self, path: Path, h: int, header: bytes, size: int, digest: str):
        self.h, self.digest = h, digest
        self.left = size - len(header)  # body bytes not yet read
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
        self.left -= size
        if not self.left and self.sha.hexdigest() != self.digest:
            raise CorruptDataError(f"node {self.h} blob does not match its digest")
        return data

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
            staged.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode())
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

    def _open_nodes(self, stack: ExitStack, code: ShortenedCode, manifest: dict,
                    sends) -> list:
        """Each (h, send) of sends as a source of _stream, (read, send),
        reading node h's blob, opened under `stack`."""
        size = HEADER_LEN + ChunkedFile(**manifest["file"]).stripes * self._record_len(code)
        phash = bytes.fromhex(manifest["params_hash"])
        blobs = {h: stack.enter_context(closing(_BlobReader(
                    self._blob_path(h), h, blob_header(phash, h), size,
                    manifest["node_digests"][str(h)])))
                 for h, _ in sends}
        return [(lambda stripes, h=h: self._read_node(code, h, stripes, blobs), S)
                for h, S in sends]

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

    def _stream(self, code: ShortenedCode, stripes: int, sources, matrix,
                targets: dict, write) -> None:
        """The one streaming pass (see the module docstring).  sources are
        (read, send) pairs: read(stripes) gives the next batch, the bytes
        of alpha*m planes, and send is the matrix they go through, or None.
        targets maps each target, in output order, to the index of the
        source it copies, or to None for its alpha*m planes of matrix over
        all that was sent.  Each batch of target t goes to write(t, planes,
        data), data the bytes of a copy; with no matrix, planes is None."""
        bulk = BulkField(code.spec)
        sends = [None if S is None else bulk.expand(S) for _, S in sources]
        matrix = None if matrix is None else bulk.expand(matrix)
        a = code.alpha * code.spec.m
        for width in _batches(stripes):
            pieces = [read(width) for read, _ in sources]
            planes = [None] * len(pieces)
            if matrix is not None:
                planes = [bytes_to_symbols(piece, a) for piece in pieces]
                sent = chain.from_iterable(p if S is None else bulk.matmul(S, p)
                                           for p, S in zip(planes, sends))
                rebuilt = iter(bulk.matmul(matrix, Planes(sent, width)).split(a))
            for target, source in targets.items():
                if source is None:
                    write(target, next(rebuilt), None)
                else:
                    write(target, planes[source], pieces[source])

    # ---- commands ----

    def put(self, spec_doc: dict, file_path) -> dict:
        """Initialize (or reinitialize) the store with one file.  The new
        blobs are staged beside any old ones, so a put that fails leaves
        the stored file as it was; node directories the new code does not
        use go only once the new manifest is saved.  The spec, which must
        pass verify_axioms, and the input are checked before the lock is
        taken, so a put that fails on either creates no store."""
        with ExitStack() as stack:
            code, phash = specfile.parse_document(spec_doc)
            check_storable(code)
            verify_axioms(code.base).check()
            src = stack.enter_context(open(file_path, "rb"))
            info = os.fstat(src.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise UsageError(f"{file_path} is not a regular file")
            stack.enter_context(locked(self.root, create=True))
            length = info.st_size
            chunked = ChunkedFile.plan(length, code.M, code.spec.m)
            staged = self._stage_nodes(stack, phash, range(code.n))
            head = length.to_bytes(8, "little")

            def read(stripes):
                # the next batch of one of nodes 0..k-1: its slice of the
                # stream, which it stores as it is
                nonlocal head
                size = stripes * self._record_len(code)
                want = min(size, len(head) + length - src.tell())  # the rest is padding
                data, head = head + src.read(want - len(head)), b""
                if len(data) != want:
                    raise UsageError(f"{file_path} shrank while put read it")
                return data.ljust(size, b"\x00")

            self._stream(code, chunked.stripes, [(read, None)] * code.k,
                         code.transfer_matrix(range(code.k), range(code.k, code.n)),
                         {h: h if h < code.k else None for h in range(code.n)},
                         lambda h, p, data: self._write_node(code, h, p, staged, data))
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
            with os.scandir(self.root) as entries:
                stale = [e.path for e in entries
                         if e.name.startswith("node_") and e.name not in nodes]
            for path in stale:
                shutil.rmtree(path)
            return {"chunk_count": chunked.chunk_count, "nodes": code.n,
                    "symbols_per_chunk": code.M}

    def get(self, out_path, nodes: list[int] | None = None) -> dict:
        """Read the file from k live nodes into out_path: the slices of
        nodes 0..k-1 among them are copied, and only the others decoded.
        The bytes go to a temp file beside it, renamed over it only once
        every blob read matches its digest and the length prefix matches
        the manifest."""
        with locked(self.root), ExitStack() as stack:
            manifest, code = self._load()
            nodes = self._pick_nodes(manifest, code, "get", nodes)
            chunked = ChunkedFile(**manifest["file"])
            length = chunked.original_length
            sources = self._open_nodes(stack, code, manifest, [(h, None) for h in nodes])
            missing = [h for h in range(code.k) if h not in nodes]
            decode = code.transfer_matrix(nodes, missing) if missing else None
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
            pos = prefix = 0

            def write(_, planes, data):
                # the stream is the slices of nodes 0..k-1, batch by batch,
                # and the payload its bytes 8 .. 8+length
                nonlocal pos, prefix
                piece = symbols_to_bytes(planes) if data is None else data
                if pos == 0:
                    prefix = int.from_bytes(piece[:8], "little")
                sink.write(memoryview(piece)[max(8 - pos, 0):max(8 + length - pos, 0)])
                pos += len(piece)

            try:
                with sink:
                    # what survives of nodes 0..k-1 is copied, the rest decoded
                    self._stream(code, chunked.stripes, sources, decode,
                                 {h: nodes.index(h) if h in nodes else None
                                  for h in range(code.k)}, write)
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
            sources = self._open_nodes(stack, code, manifest, sends)
            staged = self._stage_nodes(stack, bytes.fromhex(manifest["params_hash"]), failed)
            # the recovery matrices stacked: one matrix rebuilds every failed node
            self._stream(code, chunked.stripes, sources, list(chain.from_iterable(recover)),
                         dict.fromkeys(failed),
                         lambda h, planes, data: self._write_node(code, h, planes, staged))
            for node, blob in staged.items():
                if blob.sha.hexdigest() != manifest["node_digests"][str(node)]:
                    raise CorruptDataError(
                        f"repaired node {node} does not match its original digest")
            for node, blob in staged.items():
                blob.commit()
                manifest["node_status"][node] = LIVE
            bandwidth = sum(len(S) for _, S in sends)
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
