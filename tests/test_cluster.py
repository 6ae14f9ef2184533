import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

from atrahasis import cluster as cluster_module
from atrahasis.bulk import BulkField, bytes_to_symbols, symbols_to_bytes
from atrahasis.cluster import Cluster
from atrahasis.code import EXTERIOR, SYMMETRIC, rs_stars_t2
from atrahasis.errors import (CorruptDataError, InsufficientNodesError,
                              UsageError)
from atrahasis.fields import binary_field, prime_field
from atrahasis.fixtures import atrahasis_956
from atrahasis.linalg import matvec
from atrahasis.specfile import family_document, parse_document
from atrahasis.transforms import STRATEGIES, SUBSPACE, central_repair_program
from conftest import (bit_matrix_rows, pack_planes, program_xors, put_rows, random_values,
                      read_stripes, unpack_planes)


@pytest.fixture(scope="module")
def fixture_doc():
    return family_document(atrahasis_956())


def make_store(tmp_path, doc, data: bytes):
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    store = tmp_path / "store"
    cluster = Cluster(store)
    info = cluster.put(doc, src)
    return cluster, info


def test_bulk_matmul_matches_exact(rng):
    for spec in (binary_field(4), binary_field(9)):
        bulk = BulkField(spec)
        A = [random_values(rng, spec, 5) for _ in range(4)]
        cols = 7
        data = [random_values(rng, spec, cols) for _ in range(5)]
        got = unpack_planes(bulk.matmul(A, pack_planes(data, spec.m)), spec.m, cols)
        for j in range(cols):
            vec = matvec(spec, A, [data[i][j] for i in range(5)])
            assert [row[j] for row in got] == vec


def test_bulk_rejects_prime_fields():
    with pytest.raises(UsageError):
        BulkField(prime_field(127))


@pytest.mark.parametrize("m", [1, 3, 4, 8, 9, 16])
def test_symbol_packing_roundtrip(m, rng):
    data = bytes(rng.randrange(256) for _ in range(41))
    rows = 3 * m  # three symbols per chunk
    planes = bytes_to_symbols(data, rows)
    assert planes.shape == (rows, -(-len(data) // (8 * rows)))
    back = symbols_to_bytes(planes)
    assert len(back) == 8 * rows * planes.stripes
    assert back[:len(data)] == data
    assert all(b == 0 for b in back[len(data):])


def test_put_get_roundtrip(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(3001))
    cluster, info = make_store(tmp_path, fixture_doc, data)
    assert info["nodes"] == 9
    out = tmp_path / "out.bin"
    cluster.get(out)
    assert out.read_bytes() == data


@pytest.mark.parametrize("size", [0, 1, 14, 15, 16, 1000])
def test_put_get_odd_sizes(tmp_path, fixture_doc, size, rng):
    data = bytes(rng.randrange(256) for _ in range(size))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    out = tmp_path / "out.bin"
    cluster.get(out)
    assert out.read_bytes() == data


def test_get_any_node_subset(tmp_path, rng):
    # a smaller code keeps the exhaustive subset check quick
    doc = family_document(rs_stars_t2(binary_field(4), 6, 3, SYMMETRIC))
    data = bytes(rng.randrange(256) for _ in range(257))
    cluster, _ = make_store(tmp_path, doc, data)
    out = tmp_path / "out.bin"
    for K in combinations(range(6), 3):
        cluster.get(out, nodes=list(K))
        assert out.read_bytes() == data


def test_fail_repair_cycle(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(2000))
    cluster, info = make_store(tmp_path, fixture_doc, data)
    chunks = info["chunk_count"]
    original_digest = cluster._load()[0]["node_digests"]["4"]
    cluster.fail(4)
    assert not (cluster.root / "node_4" / "chunks.blob").exists()
    with pytest.raises(UsageError):
        cluster.fail(4)
    result = cluster.repair(4)
    assert result["symbols"] == chunks * 6 * 3  # d * beta per chunk
    manifest, _ = cluster._load()
    assert manifest["node_status"][4] == "live"
    assert manifest["node_digests"]["4"] == original_digest
    assert manifest["ledger"]["repair_symbols"] == chunks * 18
    out = tmp_path / "out.bin"
    cluster.get(out)
    assert out.read_bytes() == data
    with pytest.raises(UsageError):
        cluster.repair(4)  # node is live again


def test_exhaustive_failure_sets(tmp_path, fixture_doc, rng, monkeypatch):
    # every k-subset, sorted and reversed, so that copied and decoded nodes
    # interleave out of order, on a file of two batches of stripes: the
    # fixture's 126 5-subsets and the 70 4-subsets of its depth-1 shortening
    monkeypatch.setattr(cluster_module, "BATCH_STRIPES", 2)
    shortened = family_document(atrahasis_956(), shorten_depth=1)
    # 3 stripes of 960 and of 768 bytes
    for doc, k, size in ((fixture_doc, 5, 2500), (shortened, 4, 2000)):
        data = bytes(rng.randrange(256) for _ in range(size))
        cluster, info = make_store(tmp_path, doc, data)
        assert info["chunk_count"] == 3 * 64
        out = tmp_path / "out.bin"
        for live in combinations(range(info["nodes"]), k):
            for nodes in (list(live), list(reversed(live))):
                cluster.get(out, nodes=nodes)
                assert out.read_bytes() == data


def test_get_rejects_dead_nodes(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    cluster.fail(2)
    with pytest.raises(UsageError):
        cluster.get(tmp_path / "out.bin", nodes=[0, 1, 2, 3, 4])
    with pytest.raises(UsageError):
        cluster.repair(2, helpers=[2, 3, 4, 5, 6, 7])


def test_more_nodes_or_helpers_than_used_are_rejected(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    out = tmp_path / "out.bin"
    for nodes in ([0, 1, 2, 3, 4, 5, 6], [0, 1, 2], [8, 7, 6, 5]):
        with pytest.raises(UsageError, match=f"{len(nodes)} nodes given; this code uses 5"):
            cluster.get(out, nodes=nodes)
    assert not out.exists()
    cluster.fail(8)
    for helpers in (list(range(8)), [0, 1, 2, 3, 4]):
        with pytest.raises(UsageError,
                           match=f"{len(helpers)} helper nodes given; this code uses 6"):
            cluster.repair(8, helpers=helpers)
    cluster.fail(7)
    for helpers in (list(range(7)), [6, 5]):
        with pytest.raises(UsageError,
                           match=f"{len(helpers)} helper nodes given; this code uses 6"):
            cluster.repair2(7, 8, helpers=helpers)
    assert cluster._load()[0]["node_status"] == ["live"] * 7 + ["failed"] * 2
    assert cluster.repair2(7, 8, helpers=[6, 5, 4, 3, 2, 1])["helpers"] == [6, 5, 4, 3, 2, 1]
    assert cluster.get(out, nodes=[8, 7, 6, 5, 4])["nodes"] == [8, 7, 6, 5, 4]
    assert out.read_bytes() == data


def test_systematic_get_is_a_verified_copy(tmp_path, fixture_doc, monkeypatch):
    # nodes 0..4, in any order, hold the stream's planes: get copies them
    # and applies, expands and packs nothing, yet checks every digest and
    # the length prefix
    data = random.Random(17).randbytes(50_000)
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    out = tmp_path / "out.bin"

    def refuse(*args):
        raise AssertionError("the systematic get computed something")

    for name in ("matmul", "expand"):
        monkeypatch.setattr(BulkField, name, refuse)
    for name in ("bytes_to_symbols", "symbols_to_bytes"):
        monkeypatch.setattr(cluster_module, name, refuse)
    assert cluster.get(out, nodes=[4, 3, 2, 1, 0])["nodes"] == [4, 3, 2, 1, 0]
    assert out.read_bytes() == data
    manifest_path = cluster.root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    blob = cluster.root / "node_0" / "chunks.blob"
    raw = bytearray(blob.read_bytes())
    raw[16] ^= 0x01  # the low byte of the length prefix
    blob.write_bytes(bytes(raw))
    out.write_bytes(b"previous")
    with pytest.raises(CorruptDataError, match="node 0 blob does not match"):
        cluster.get(out, nodes=[4, 3, 2, 1, 0])
    # the same blob with its digest recorded: only the prefix check is left
    manifest["node_digests"]["0"] = hashlib.sha256(raw).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptDataError, match="length prefix disagrees"):
        cluster.get(out, nodes=[0, 1, 2, 3, 4])
    assert out.read_bytes() == b"previous"


def test_xors_per_batch_on_the_fixture(fixture_doc):
    # The XORs one batch costs.  Plain, each output plane XORs the n planes
    # of its bit-matrix row, n - 1 XORs: the systematic basis makes put pay
    # for the parity nodes only (4,500 against 3,456 for all nine nodes in
    # the plain basis), the copy from nodes 0-4 nothing (3,276 in the plain
    # basis) and the dense get from 4-8 5,769 (7,006).  The compiled
    # program builds each table entry once and XORs it in once per use;
    # its counts pin what bulk's schedule spends on each store matrix
    code, _ = parse_document(fixture_doc)
    bulk = BulkField(code.spec)

    def plain(rows):
        return sum(max(mask.bit_count() - 1, 0) for mask in bit_matrix_rows(code.spec, rows))

    def xors(*matrices):
        return (sum(map(plain, matrices)),
                sum(program_xors(bulk.expand(rows)) for rows in matrices))

    assert plain(put_rows(code, range(code.n))) == 3456
    assert xors(code.transfer_matrix(range(5), range(5, 9))) == (4500, 2376)
    assert plain(code.decode_matrix([0, 1, 2, 3, 4])) == 3276
    assert code.transfer_matrix([0, 1, 2, 3, 4], range(5)) == \
        [[int(i == j) for j in range(30)] for i in range(30)]
    assert plain(code.decode_matrix([4, 5, 6, 7, 8])) == 7006
    assert xors(code.transfer_matrix([4, 5, 6, 7, 8], range(5))) == (5769, 2957)
    sends, recover = code.repair_program([3], [0, 1, 2, 4, 5, 6])
    assert xors(*[S for _, S in sends], *recover) == (1107, 983)
    sends, recover = code.repair_program([2, 6], [0, 1, 3, 4, 5, 7], SUBSPACE)
    assert xors(*[S for _, S in sends], *recover) == (2991, 2519)


def test_get_insufficient_nodes(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    for h in (0, 1, 2, 3, 4):
        cluster.fail(h)
    with pytest.raises(InsufficientNodesError):
        cluster.get(tmp_path / "out.bin")


def test_repair_insufficient_helpers(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    for h in (0, 1, 2, 3):
        cluster.fail(h)
    with pytest.raises(InsufficientNodesError):
        cluster.repair(0)  # only 5 live helpers, d = 6


def test_repair2_ledger(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(500))
    cluster, info = make_store(tmp_path, fixture_doc, data)
    chunks = info["chunk_count"]
    expectations = {"naive": 30, "cascade": 28, "subspace": 27}
    total = 0
    for strategy, per_chunk in expectations.items():
        cluster.fail(0)
        cluster.fail(5)
        result = cluster.repair2(0, 5, strategy)
        assert result["symbols"] == chunks * per_chunk
        total += chunks * per_chunk
    manifest, _ = cluster._load()
    assert manifest["ledger"]["repair2_symbols"] == total
    out = tmp_path / "out.bin"
    cluster.get(out, nodes=[0, 5, 2, 3, 4])
    assert out.read_bytes() == data


def test_corrupt_blob_detected(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    blob = cluster.root / "node_0" / "chunks.blob"
    raw = bytearray(blob.read_bytes())
    raw[3] ^= 0xFF  # clobber the magic of the first record
    blob.write_bytes(bytes(raw))
    with pytest.raises(CorruptDataError):
        cluster.get(tmp_path / "out.bin", nodes=[0, 1, 2, 3, 4])
    # a live-node set avoiding the corruption still works
    cluster.get(tmp_path / "out.bin", nodes=[1, 2, 3, 4, 5])


def test_params_hash_mismatch_detected(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    blob = cluster.root / "node_2" / "chunks.blob"
    raw = bytearray(blob.read_bytes())
    raw[8] ^= 0x01  # first byte of the embedded params hash
    blob.write_bytes(bytes(raw))
    with pytest.raises(CorruptDataError):
        cluster.get(tmp_path / "out.bin", nodes=[0, 1, 2, 3, 4])


def _truncate(blob, other):
    blob.write_bytes(blob.read_bytes()[:-1])


def _extend(blob, other):
    blob.write_bytes(blob.read_bytes() + b"\x00")


def _copy_other_node(blob, other):
    blob.write_bytes(other.read_bytes())


@pytest.mark.parametrize("damage", [_truncate, _extend, _copy_other_node],
                         ids=["truncated", "trailing-byte", "other-node"])
def test_damaged_blob_detected(tmp_path, fixture_doc, rng, damage):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    damage(cluster.root / "node_2" / "chunks.blob",
           cluster.root / "node_3" / "chunks.blob")
    out = tmp_path / "out.bin"
    with pytest.raises(CorruptDataError, match="node 2"):
        cluster.get(out, nodes=[0, 1, 2, 3, 4])
    cluster.get(out, nodes=[0, 1, 3, 4, 5])
    assert out.read_bytes() == data


def test_shortened_cluster(tmp_path, rng):
    doc = family_document(atrahasis_956(), shorten_depth=1)
    data = bytes(rng.randrange(256) for _ in range(777))
    cluster, info = make_store(tmp_path, doc, data)
    assert info["nodes"] == 8
    chunks = info["chunk_count"]
    cluster.fail(3)
    result = cluster.repair(3)
    assert result["symbols"] == chunks * 5 * 3  # effective d = 5 live helpers
    out = tmp_path / "out.bin"
    cluster.get(out)
    assert out.read_bytes() == data
    written = _blobs(cluster, 8)
    cluster.fail(1)
    cluster.fail(2)
    cluster.repair2(1, 2)  # the pinned node helps with zeros
    assert _blobs(cluster, 8) == written


@pytest.mark.parametrize("strategy", ["naive", "cascade", "subspace"])
def test_shortened_repair2_restores_blobs(tmp_path, strategy):
    # the fixture shortened to (8,4,5): node 8 is pinned and helps with zeros
    family = atrahasis_956()
    cluster, info = make_store(tmp_path, family_document(family, shorten_depth=1),
                               random.Random(7).randbytes(5000))
    written = _blobs(cluster, 8)
    cluster.fail(2)
    cluster.fail(6)
    with pytest.raises(UsageError, match=r"helper nodes \[6\] are not live"):
        cluster.repair2(2, 6, strategy, helpers=[0, 1, 3, 4, 6])
    result = cluster.repair2(2, 6, strategy)
    assert result["helpers"] == [0, 1, 3, 4, 5]
    assert _blobs(cluster, 8) == written
    assert cluster._load()[0]["node_status"] == ["live"] * 8
    # the ledger charges what the live helpers send, not the pinned node
    plan = central_repair_program(family, 2, 6, [8, 0, 1, 3, 4, 5], strategy).plan
    live_sent = sum(sent for h, sent in plan.per_helper_sent if h != 8)
    assert live_sent < plan.total_bandwidth
    assert result["symbols"] == info["chunk_count"] * live_sent


# (base RS code over GF(256), flavor, shortening depth) -> symbols sent per
# chunk under naive / cascade / subspace
T2_PAIR_BANDWIDTHS = {
    ((12, 5), EXTERIOR, 0): (16, 15, 14),
    ((12, 5), SYMMETRIC, 1): (14, 13, 12),
}


@pytest.mark.parametrize("key", sorted(T2_PAIR_BANDWIDTHS),
                         ids=lambda key: f"{key[1]}-depth{key[2]}")
def test_repair2_on_t2_codes(tmp_path, key):
    (n, k), flavor, depth = key
    doc = family_document(rs_stars_t2(binary_field(8), n, k, flavor), shorten_depth=depth)
    code, _ = parse_document(doc)
    cluster, info = make_store(tmp_path, doc, random.Random(12).randbytes(3000))
    written = _blobs(cluster, code.n)
    f, g = 1, code.n - 2
    for strategy, per_chunk in zip(STRATEGIES, T2_PAIR_BANDWIDTHS[key]):
        cluster.fail(f)
        cluster.fail(g)
        result = cluster.repair2(f, g, strategy)
        assert _blobs(cluster, code.n) == written, strategy
        sends, _ = code.repair_program([f, g], result["helpers"], strategy)
        assert sum(len(S) for _, S in sends) == per_chunk
        assert result["symbols"] == info["chunk_count"] * per_chunk
    ledger = cluster._load()[0]["ledger"]
    assert ledger["repair2_symbols"] == info["chunk_count"] * sum(T2_PAIR_BANDWIDTHS[key])


def test_two_byte_element_cluster(tmp_path, rng):
    # GF(512): the first field whose symbols are wider than a byte
    doc = family_document(rs_stars_t2(binary_field(9), 6, 3, SYMMETRIC))
    data = bytes(rng.randrange(256) for _ in range(333))
    cluster, info = make_store(tmp_path, doc, data)
    cluster.fail(2)
    cluster.repair(2)
    out = tmp_path / "out.bin"
    for nodes in ([0, 1, 2], [3, 4, 5], [1, 3, 5]):
        cluster.get(out, nodes=nodes)
        assert out.read_bytes() == data


def test_put_reinitializes_cleanly(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(500))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    doc6 = family_document(rs_stars_t2(binary_field(4), 6, 3, SYMMETRIC))
    src = tmp_path / "second.bin"
    src.write_bytes(b"second file")
    cluster.put(doc6, src)
    # stale node directories from the 9-node layout are gone
    assert not (cluster.root / "node_8").exists()
    out = tmp_path / "out.bin"
    cluster.get(out)
    assert out.read_bytes() == b"second file"


def test_failed_put_keeps_the_stored_file(tmp_path, fixture_doc, monkeypatch):
    # a second put that runs out of space mid-stream must leave the first
    # file readable: its blobs are only replaced once the new ones commit
    data = random.Random(7).randbytes(3000)
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    doc6 = family_document(rs_stars_t2(binary_field(4), 6, 3, SYMMETRIC))
    src = tmp_path / "second.bin"
    src.write_bytes(b"second file")
    write_node, calls = Cluster._write_node, []

    def full_disk(self, code, h, *args):
        calls.append(h)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_node(self, code, h, *args)

    monkeypatch.setattr(Cluster, "_write_node", full_disk)
    with pytest.raises(OSError, match="No space left"):
        cluster.put(doc6, src)
    monkeypatch.undo()
    assert not list(cluster.root.glob("node_*/*.tmp"))
    out = tmp_path / "out.bin"
    cluster.get(out)
    assert out.read_bytes() == data
    cluster.get(out, nodes=[4, 5, 6, 7, 8])
    assert out.read_bytes() == data


def test_put_rejects_more_nodes_than_the_header_holds(tmp_path, fixture_doc):
    # the blob header's node index is one byte: a 257-node code is refused
    # before put takes the lock, so it creates no store and leaves an
    # existing one as it was
    big = family_document(rs_stars_t2(binary_field(12), 257, 2))
    src = tmp_path / "input.bin"
    src.write_bytes(b"big")
    with pytest.raises(UsageError, match="at most 256 nodes"):
        Cluster(tmp_path / "fresh").put(big, src)
    assert not (tmp_path / "fresh").exists()
    cluster, _ = make_store(tmp_path, fixture_doc, b"stored")
    with pytest.raises(UsageError, match="at most 256 nodes"):
        cluster.put(big, src)
    assert sorted(p.name for p in cluster.root.glob("node_*")) == [
        f"node_{h}" for h in range(9)]
    out = tmp_path / "out.bin"
    cluster.get(out)
    assert out.read_bytes() == b"stored"


def test_fail_saves_the_manifest_before_deleting_the_blob(tmp_path, fixture_doc,
                                                           monkeypatch):
    # a fail whose manifest save runs out of space leaves node 2 live with
    # its blob, so the file still reads back from nodes 0-4
    cluster, _ = make_store(tmp_path, fixture_doc, b"kept")

    def full_disk(self, manifest):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Cluster, "_save", full_disk)
    with pytest.raises(OSError, match="No space left"):
        cluster.fail(2)
    monkeypatch.undo()
    assert cluster.status()["node_status"][2] == "live"
    assert (cluster.root / "node_2" / "chunks.blob").exists()
    out = tmp_path / "out.bin"
    cluster.get(out, nodes=[0, 1, 2, 3, 4])
    assert out.read_bytes() == b"kept"


def test_node_blob_roundtrip():
    phash = bytes(range(8))
    blob = cluster_module.blob_header(phash, 3)
    assert len(blob) == cluster_module.HEADER_LEN == 16
    assert blob[:4] == b"ATRA"
    assert blob[4:8] == bytes([cluster_module.BLOB_VERSION, 3, 0, 0])
    assert cluster_module.BLOB_VERSION == 4
    assert blob[8:16] == phash


def test_node_blob_validation():
    # blob corruption on read is checked by the tests above; an index
    # that does not fit the header's byte is refused, never wrapped
    for node in (300, -1):
        with pytest.raises(ValueError):
            cluster_module.blob_header(bytes(8), node)
    code, _ = parse_document(family_document(rs_stars_t2(binary_field(12), 257, 2)))
    with pytest.raises(UsageError, match="at most 256 nodes"):
        cluster_module.check_storable(code)
    code, _ = parse_document(family_document(rs_stars_t2(prime_field(127), 6, 3)))
    with pytest.raises(UsageError, match="binary-extension"):
        cluster_module.check_storable(code)


def test_put_needs_a_regular_file(tmp_path, fixture_doc):
    # the length prefix leads the stream, so put must know the size first
    with pytest.raises(UsageError, match="not a regular file"):
        Cluster(tmp_path / "store").put(fixture_doc, os.devnull)


def test_get_writes_only_regular_files(tmp_path, fixture_doc):
    cluster, _ = make_store(tmp_path, fixture_doc, b"hello")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(UsageError, match="not a regular file"):
        cluster.get(fifo)
    target = tmp_path / "target.bin"
    target.write_bytes(b"old")
    link = tmp_path / "link.bin"
    link.symlink_to(target)
    cluster.get(link)
    assert link.is_symlink() and target.read_bytes() == b"hello"


def test_manifest_required(tmp_path):
    with pytest.raises(UsageError):
        Cluster(tmp_path / "nowhere").get(tmp_path / "x")


CODES = {
    "fixture": lambda: family_document(atrahasis_956()),
    "fixture-shortened": lambda: family_document(atrahasis_956(), shorten_depth=1),
    "rs-gf512": lambda: family_document(rs_stars_t2(binary_field(9), 6, 3, SYMMETRIC)),
    "rs-gf65536": lambda: family_document(
        rs_stars_t2(binary_field(16), 6, 3, SYMMETRIC)),
}

# node_digests of the seeded file below, once the blobs have been checked
# symbol by symbol against the scalar encode; a kernel or layout change
# that alters any stored bit fails here
PINNED_DIGESTS = {
    "fixture": [
        "0cef60b01796dc074fc6615ea189eb77ddd532fe2f538f52564c365097622afb",
        "23f84b039e0def92bf1dea4b6e9d22a81ba5a1c933ad0fa6681e9916ee53134d",
        "3acd8177ee95857174a28abfe20a82f5f59a7fcfe6799c9440d80ac205bd50f1",
        "bc3db3e572b1f6e1aa98273212d34b14a3cf0699b8e4a143b75e26fe00fc4c12",
        "f89e351c9bff33fa2825961cf96c45a645a8cb2bbe8b916f4a8144f0f3708ec4",
        "2c891a5fac47bbbcadb35ab7669335e46399b70f20f30398061153b65e6289b4",
        "2566106d1eb60599f72d2da52fabbc8581be0cb1044b69f1293e3d3f497cb401",
        "0cd14d589f95a0e0b209d273caa47e2cfa8cdde3cfebfd9a1e0e9cd8e9ee9476",
        "e9519ff7093b78395ff304c259a3e691636c47c19c0123c0b59efb02401393fc",
    ],
    "fixture-shortened": [
        "c9a1bda62650acf4e81a7baf03a2fcb1cc379dfd5e4ffacc64cd438292f65f44",
        "a1bb01186bff1e5c816c35160d217b633bdd4ad69baf37d2fa9ef959c1c3f32a",
        "6b5586daa94f93fd728c11cb2853f3bd9c8e01f2c61633eed3b6e9802eb7e6d5",
        "26f1517edf87af8ac33e97b1bb12772dcfd92c9bfda17fb3f195a252c5665b8b",
        "ea486495be3ce1998d605cd7ca5ef7748a504eae294dce48e6d35c947ccb11b1",
        "071d4691cab9bb215a0156aef1eb3422b5438c07346ef3e9122b91c3093d0fe8",
        "d0e38fa5547d388e130c6c6cfdf06238c73e5b1b17d8b388f7e6420447c92e55",
        "1d77b1ecd0d927c8ae55a6672500276d6576477913b5befed168426c03880ea4",
    ],
    "rs-gf512": [
        "eb82d2fc75af6e4c7532f58bc0ea556242f5f600c2749da45fed899922251853",
        "7b6b0e79d2795a27bc891135fb2adc7366bac55a34b424105f46684976ce178d",
        "6c3798de4e3976a7e334af5ab35b72ba7f451f4420f3e65074a1cf2ce6e1f3a0",
        "ea5a989ab5a81a2729d4e4a07468aa981ff5879255afd4ff2a875facf8d8bc79",
        "7d06c5fc2cb8a9c29921bff91e234061571c9f750f96386b41022733b06a8176",
        "974ff6cd673d53a6f81bce342d82e13faac78e46b69a54a1cc5fe4570f110f28",
    ],
    "rs-gf65536": [
        "c7e1ccc73839296d6b02cbe18392937698ac11708ffc2136fd36bad28808ef20",
        "ce7645ada8b35783ead613d1e01d8891098a598a840d46ddac0d469e2d6447fd",
        "107fff89d0b45221a264a1db2aa7e53934cae2438e8184ee680305b69967fe6d",
        "936c3cf2d732f31149a23b855d0676f75e0feea175d02a2bcf2ab8740ea91e70",
        "a113e00d1fc42c867255f1bd2ec1ea7053156de105e930eb8303fd2a19143960",
        "7e2ee427281467dff2b2b15cc437ee34d5a5337392c549f0f01e87d9d5298d21",
    ],
}


@pytest.mark.parametrize("name", sorted(CODES))
def test_put_blobs_match_pinned_digests(tmp_path, name):
    doc = CODES[name]()
    code, phash = parse_document(doc)
    spec = code.spec
    m = spec.m
    family, n, symbols = code.base, code.n, code.M
    data = random.Random(2020).randbytes(4099)
    cluster, info = make_store(tmp_path, doc, data)
    # the format oracle: the documented layouts read bit by bit, against
    # linalg.matvec of each node's tensor rows on the scalar encode of each
    # chunk's symbols in the systematic basis, D0 times them
    batch = cluster_module.BATCH_STRIPES
    chunks = read_stripes(len(data).to_bytes(8, "little") + data, symbols, m, batch)
    assert len(chunks) == info["chunk_count"]
    D0 = code.decode_matrix(list(range(code.k)))
    for h in range(n):
        blob = (cluster.root / f"node_{h}" / "chunks.blob").read_bytes()
        assert blob[:16] == b"ATRA" + bytes([4, h, 0, 0]) + phash
        stored = read_stripes(blob[16:], family.params.alpha, m, batch)
        assert len(stored) == len(chunks)
        A = family.node_tensor_rows(h)
        for user, values in zip(chunks, stored):
            assert matvec(spec, A, code.encode(matvec(spec, D0, user))) == values
    digests = cluster._load()[0]["node_digests"]
    assert [digests[str(h)] for h in range(n)] == PINNED_DIGESTS[name]
    out = tmp_path / "out.bin"
    cluster.get(out)
    assert out.read_bytes() == data


def test_gf65536_cluster_roundtrip(tmp_path, rng):
    doc = family_document(rs_stars_t2(binary_field(16), 6, 3, SYMMETRIC))
    data = bytes(rng.randrange(256) for _ in range(3001))
    cluster, _ = make_store(tmp_path, doc, data)
    original = cluster._load()[0]["node_digests"]["1"]
    out = tmp_path / "out.bin"
    cluster.get(out, nodes=[3, 4, 5])
    assert out.read_bytes() == data
    cluster.fail(1)
    cluster.repair(1)
    assert cluster._load()[0]["node_digests"]["1"] == original
    cluster.get(out, nodes=[1, 2, 5])
    assert out.read_bytes() == data


def test_node_indices_range_checked(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    cluster.fail(8)
    cluster.fail(7)
    # -1 would silently read node 8's status, 99 would raise IndexError
    for call in (lambda: cluster.repair(99),
                 lambda: cluster.repair(-1),
                 lambda: cluster.repair(8, helpers=[0, 1, 2, 3, 4, 99]),
                 lambda: cluster.repair2(99, 3),
                 lambda: cluster.repair2(-1, 7),
                 lambda: cluster.repair2(7, -2),
                 lambda: cluster.repair2(7, 8, helpers=[-1, 0, 1, 2, 3, 4]),
                 lambda: cluster.get(tmp_path / "out.bin", nodes=[-1, 0, 1, 2, 3]),
                 lambda: cluster.fail(9)):
        with pytest.raises(UsageError, match="out of range"):
            call()
    manifest, _ = cluster._load()
    assert manifest["node_status"] == ["live"] * 7 + ["failed"] * 2


def _blobs(cluster, n):
    return [(cluster.root / f"node_{h}" / "chunks.blob").read_bytes()
            for h in range(n)]


@pytest.mark.parametrize("name", sorted(CODES))
def test_batch_boundaries(tmp_path, monkeypatch, name):
    doc = CODES[name]()
    code, _ = parse_document(doc)
    spec, n, k, m = code.spec, code.n, code.k, code.spec.m
    stripe = code.M * m * 8  # stream bytes per stripe
    D0 = code.decode_matrix(list(range(k)))
    B = 2
    # the blobs depend on the batch size, so the reference is the layout
    # oracle run with the same B, checked against the scalar encode
    monkeypatch.setattr(cluster_module, "BATCH_STRIPES", B)
    # files of 1, B-1, B, B+1 and 2B+1 whole stripes (the stream is the
    # 8-byte length prefix plus the payload), one whose last stripe holds
    # a single byte, and the empty file
    sizes = [S * stripe - 8 for S in sorted({1, B - 1, B, B + 1, 2 * B + 1})]
    sizes += [2 * B * stripe - 7, 0]
    for size in sizes:
        data = random.Random(size).randbytes(size)
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        cluster = Cluster(tmp_path / "batched")
        cluster.put(doc, src)
        reference = _blobs(cluster, n)
        chunks = read_stripes(len(data).to_bytes(8, "little") + data, code.M, m, B)
        encoded = [code.encode(matvec(spec, D0, user)) for user in chunks]
        for h, blob in enumerate(reference):
            stored = read_stripes(blob[16:], code.alpha, m, B)
            assert len(stored) == len(chunks), (size, h)
            if h < k:
                # node h holds the stream's planes h*alpha*m .. (h+1)*alpha*m
                assert stored == [user[h * code.alpha:(h + 1) * code.alpha]
                                  for user in chunks], (size, h)
            A = code.base.node_tensor_rows(h)
            for phi, values in zip(encoded, stored):
                assert matvec(spec, A, phi) == values, (size, h)
        out = tmp_path / "out.bin"
        for nodes in (list(range(k)), list(range(n - k, n))):
            cluster.get(out, nodes=nodes)
            assert out.read_bytes() == data, (size, nodes)
        cluster.fail(0)
        cluster.repair(0)
        assert _blobs(cluster, n) == reference, size
        for strategy in STRATEGIES:
            cluster.fail(1)
            cluster.fail(n - 1)
            cluster.repair2(1, n - 1, strategy)
            assert _blobs(cluster, n) == reference, (size, strategy)


def _flip_node_0(cluster):
    # a body byte of node 0's blob, past the 16-byte header
    blob = cluster.root / "node_0" / "chunks.blob"
    raw = bytearray(blob.read_bytes())
    raw[5000] ^= 0x03
    blob.write_bytes(bytes(raw))


def test_get_verifies_blob_digests(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100_000))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    _flip_node_0(cluster)
    out = tmp_path / "out.bin"
    with pytest.raises(CorruptDataError, match="node 0 blob does not match"):
        cluster.get(out, nodes=[0, 1, 2, 3, 4])
    assert not out.exists()
    out.write_bytes(b"previous")
    with pytest.raises(CorruptDataError, match="node 0"):
        cluster.get(out, nodes=[4, 3, 2, 1, 0])
    assert out.read_bytes() == b"previous"
    for nodes in ([0, 5, 6, 7, 8], [8, 7, 6, 5, 0]):
        # node 0's slice is copied and nodes 1-4 decoded
        with pytest.raises(CorruptDataError, match="node 0 blob does not match"):
            cluster.get(out, nodes=nodes)
        assert out.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["input.bin", "out.bin", "store"]  # no temp file left behind
    cluster.get(out, nodes=[1, 2, 3, 4, 5])
    assert out.read_bytes() == data


def test_repair_from_corrupt_helper_is_not_committed(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100_000))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    original = cluster._load()[0]["node_digests"]
    _flip_node_0(cluster)
    cluster.fail(8)
    with pytest.raises(CorruptDataError, match="node 0"):
        cluster.repair(8)  # helpers 0..5
    cluster.fail(6)
    with pytest.raises(CorruptDataError, match="node 0"):
        cluster.repair2(6, 8)  # helpers 0..5
    for f in (6, 8):
        assert list((cluster.root / f"node_{f}").iterdir()) == []
    assert cluster._load()[0]["node_status"][6:] == ["failed", "live", "failed"]
    cluster.repair2(6, 8, helpers=[1, 2, 3, 4, 5, 7])
    cluster.fail(8)
    cluster.repair(8, helpers=[1, 2, 3, 4, 5, 6])
    manifest, _ = cluster._load()
    assert manifest["node_status"] == ["live"] * 9
    assert manifest["node_digests"] == original
    for f in (6, 8):
        blob = (cluster.root / f"node_{f}" / "chunks.blob").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == original[str(f)]
    cluster.get(tmp_path / "out.bin", nodes=[4, 5, 6, 7, 8])
    assert (tmp_path / "out.bin").read_bytes() == data


# runs one command on a store in a fresh interpreter and prints how far its
# peak RSS rose above the RSS it had once everything was imported
_RSS_PROBE = """
import resource, sys
from atrahasis.cluster import Cluster
from atrahasis.fixtures import atrahasis_956
from atrahasis.specfile import family_document

op, store, path = sys.argv[1:4]
doc = family_document(atrahasis_956())
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cluster = Cluster(store)
if op == "put":
    cluster.put(doc, path)
elif op == "get":
    cluster.get(path, nodes=[4, 5, 6, 7, 8])
else:
    cluster.fail(3)
    cluster.repair(3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


def test_data_path_memory_does_not_grow_with_file(tmp_path):
    src = tmp_path / "input.bin"
    gen = random.Random(32)
    with open(src, "wb") as fh:
        for _ in range(32):
            fh.write(gen.randbytes(1 << 20))
    store, out = tmp_path / "store", tmp_path / "out.bin"
    for op, path in (("put", src), ("get", out), ("repair", "")):
        proc = subprocess.run([sys.executable, "-c", _RSS_PROBE, op, str(store),
                               str(path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        grew_kb = int(proc.stdout.split()[-1])
        assert grew_kb < 16 * 1024, (op, grew_kb)
    assert out.stat().st_size == src.stat().st_size
    assert hashlib.sha256(out.read_bytes()).digest() == \
        hashlib.sha256(src.read_bytes()).digest()
