"""The store's manifest layer: everything about a cluster store that moves
no chunks.

It holds the store lock, staged (write-then-rename) files, the chunk map
of the stored file, the bandwidth ledger, the node-index check, and
manifest load and save with every check on the manifest's format,
version, keys, field and values.  load hands out the manifest and the
store's code instance itself (always a ShortenedCode: a plain spec is
depth 0, with no pinned nodes).  The commands that only read or rewrite
the manifest, fail and status, live here too.

The data path (cluster, bulk) builds on top of it, and fail and status
start without loading it.  The stream and blob layout is set by two
constants here, STRIPE_CHUNKS and BATCH_STRIPES; see cluster for the
blob layout in full.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
from contextlib import closing, contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from . import specfile
from .errors import CorruptDataError, UsageError
from .fields import BINARY
from .transforms import ShortenedCode

MANIFEST_FORMAT = "atrahasis-cluster"
MANIFEST_VERSION = 2
MANIFEST_KEYS = ("code_spec", "params_hash", "file", "node_status",
                 "node_digests", "ledger")
LIVE = "live"
FAILED = "failed"
# chunks per stripe: the bit width of one uint64 plane word (bulk)
STRIPE_CHUNKS = 64
# stripes per batch, part of the stream and blob layout: both are cut into
# batches of BATCH_STRIPES stripes (the last may be shorter), and each batch
# stores its planes one after another, each as one word per stripe.  Every
# data command works one batch at a time, so its memory does not grow with
# the file.
BATCH_STRIPES = 512
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


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
def locked(root: Path):
    """Hold the store's lock file; every command runs under it."""
    root.mkdir(parents=True, exist_ok=True)
    with open(root / ".lock", "a+") as fh:
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


def blob_path(root: Path, h: int) -> Path:
    return root / f"node_{h}" / "chunks.blob"


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
        and set(file) == {f.name for f in dataclass_fields(ChunkedFile)}
        and all(type(v) is int and v >= 0 for v in file.values())
        and ChunkedFile(**file) == ChunkedFile.plan(
            file["original_length"], code.M, code.spec.m),
        "node_status": isinstance(status, list) and len(status) == n
        and all(s in (LIVE, FAILED) for s in status),
        "node_digests": isinstance(digests, dict)
        and set(digests) == {str(h) for h in range(n)}
        and all(isinstance(v, str) and _SHA256_HEX.fullmatch(v)
                for v in digests.values()),
        "ledger": isinstance(ledger, dict) and set(ledger) == set(Ledger().to_dict())
        and isinstance(ledger["history"], list)
        and all(type(v) is int and v >= 0 for key, v in ledger.items() if key != "history"),
    }
    bad = [key for key, good in ok.items() if not good]
    if bad:
        raise CorruptDataError(f"cluster manifest has malformed {bad}")


def load(root: Path):
    """The store's manifest and its code instance, once the manifest's
    format, version, keys, embedded spec, params hash and values all
    check out."""
    try:
        manifest = specfile.read_json(root / "manifest.json")
    except FileNotFoundError:
        raise UsageError(f"no cluster at {root} (run put first)")
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
    if code.spec.kind != BINARY:
        raise UsageError("cluster storage requires a binary-extension field")
    _check_manifest_values(manifest, code)
    return manifest, code


def save(root: Path, manifest: dict) -> None:
    with closing(Staged(root / "manifest.json")) as staged:
        staged.write(json.dumps(manifest, indent=2, sort_keys=True).encode())
        staged.commit()


def fail(root, h: int) -> dict:
    """Mark node h failed and delete its blob."""
    root = Path(root)
    with locked(root):
        manifest, code = load(root)
        check_nodes(code, [h], "node")
        if manifest["node_status"][h] == FAILED:
            raise UsageError(f"node {h} is already failed")
        manifest["node_status"][h] = FAILED
        blob = blob_path(root, h)
        if blob.exists():
            blob.unlink()
        save(root, manifest)
        return {"failed": h}


def status(root) -> dict:
    """The code parameters, chunk map, node states and ledger."""
    root = Path(root)
    with locked(root):
        manifest, code = load(root)
        return {
            "params": {"n": code.n, "k": code.k, "d": code.d,
                       "alpha": code.alpha, "beta": code.beta},
            "file": manifest["file"],
            "node_status": manifest["node_status"],
            "ledger": manifest["ledger"],
        }
