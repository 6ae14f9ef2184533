import hashlib
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
from atrahasis.transforms import STRATEGIES, central_repair_program
from conftest import pack_planes, random_values, read_stripes, unpack_planes


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
    assert len(back) == 8 * planes.size
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


def test_exhaustive_failure_sets(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(64))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    out = tmp_path / "out.bin"
    for lost in combinations(range(9), 4):
        live = [h for h in range(9) if h not in lost]
        cluster.get(out, nodes=live[:5])
        assert out.read_bytes() == data


def test_get_rejects_dead_nodes(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    cluster.fail(2)
    with pytest.raises(UsageError):
        cluster.get(tmp_path / "out.bin", nodes=[0, 1, 2, 3, 4])
    with pytest.raises(UsageError):
        cluster.repair(2, helpers=[2, 3, 4, 5, 6, 7])


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
        "f9b8540a43012a1bc66bbb7bed68e214a086fe5c08fbcaff93d055404ed2cf58",
        "0ca68cb301c28c8408de98c8ded28462fcca10dc8dc002fdf966727690a7af6a",
        "72e736236d500453c42c31c9d0e258c7410e39f8c53071f94b788f4de141fef4",
        "ecabbb81ba21aea442e39349ddb68dce960212581ae1ef2511ae318bec4626fa",
        "55b74cae74d37149ed98c5262d19f7da879c658b36cab1458d07731fc328d147",
        "5271b2fafe8bed14165f185590a31c2e5975e8131a5dcb87a940acf01b5f06d5",
        "894502836428cf8a12ceb66ae9a3c0a43b4aa77fab16e78595fddd24e81a22b4",
        "108de3a80fed581ae5e00670856fc6f087891e9cf215e04fb58e2245550ffb58",
        "3d81190125763b50ea18c11e09c9f0c1aae57c942d58ff50282920a2eeb8df61",
    ],
    "fixture-shortened": [
        "653c8c70d81078f4bdeb0cd3449ba5f113e44d42fed502c0b71b4b048c82f1fe",
        "c997c9cc9fe1d6386e68f57fe89877dc0e9252b839db41747f614e1b1add5401",
        "a644211db5bab6f741f0a0720fd447cdadbb371c6be24d7ffdf0ed75970edc23",
        "f1ff00edd7cf15aefac929889e52acd9078578abf5a031d7d2411fc7f6c97196",
        "01d962d4b04cf72ea692188cbb5bee792f7c9e25d6c2c25c3f911be4bea3ac49",
        "aaca63b9da63e68eecaae0f6334fcc24480845c873919f7615916643e53ef1ba",
        "260ef349fe3d44f34615e561568d8ac2e0e0efee9d54d600b758a41d333d8efa",
        "6c9a4b7ad8daec00f837e9e306c9ad878002384c1adcc7de03080c35798529b2",
    ],
    "rs-gf512": [
        "7511cf9f3981ae3aa3c90643dd06158ac3be5b20717228ac7bd24b9a2c741853",
        "23e9e70232facf039aee49540ede636ba62e309060f14b1f2a66f7537c2115ff",
        "75189ce5835d6ca8037c8cece4e962c7a2fe4b1eff6353b9650f37df8fed1204",
        "c25949afd1adc6231ba6359dc20e410c6816b7fef724809d439600513ba12063",
        "eb36ad840dd31e7a2f53b22d11a720c2de4be96d2bab65d9467a45a4bf2223ca",
        "33cd3f9c6ae1da235ae0db766b8fcf661c64f45e5500ba2a957494f0b937c76b",
    ],
    "rs-gf65536": [
        "cf6052a4e4924a2bd12952304520938a9f0e5739094308b53db89a42c022c854",
        "f4cd375b28fcf5081a7920fe05124c71a240ae46af6e0ca5f5f3d890b3a5c4e9",
        "809bc24f094a4be87e5549fcb4f4251a0e99684a6251b66093975f8cfa73f6d3",
        "66a0b2cafc46ad8f80726df6f82e3d7fd707f8bf0775b8316e9a570c0bbbfddf",
        "27cc0c27c0c8c076163062a5f7a8b272769c4080f7a7629351bd600077f6d92c",
        "261532a5f2cb9710d3ba5eb1313dd67ac0fd57e0440f1cb0bfa41e59f1da2633",
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
    # linalg.matvec of each node's tensor rows on each chunk's symbols
    chunks = read_stripes(len(data).to_bytes(8, "little") + data, symbols, m)
    assert len(chunks) == info["chunk_count"]
    for h in range(n):
        blob = (cluster.root / f"node_{h}" / "chunks.blob").read_bytes()
        assert blob[:16] == b"ATRA" + bytes([2, h, 0, 0]) + phash
        stored = read_stripes(blob[16:], family.params.alpha, m)
        assert len(stored) == len(chunks)
        A = family.node_tensor_rows(h)
        for user, values in zip(chunks, stored):
            assert matvec(spec, A, code.encode(user).values) == values
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
    n, k = code.n, code.k
    stripe = code.M * code.spec.m * 8  # stream bytes per stripe
    B = 2
    # files of 1, B-1, B, B+1 and 2B+1 whole stripes (the stream is the
    # 8-byte length prefix plus the payload), one whose last stripe holds
    # a single byte, and the empty file
    sizes = [S * stripe - 8 for S in sorted({1, B - 1, B, B + 1, 2 * B + 1})]
    sizes += [2 * B * stripe - 7, 0]
    for size in sizes:
        data = random.Random(size).randbytes(size)
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        whole = Cluster(tmp_path / "whole")
        whole.put(doc, src)  # one batch: these files are far below BATCH_STRIPES
        reference = _blobs(whole, n)
        monkeypatch.setattr(cluster_module, "BATCH_STRIPES", B)
        cluster = Cluster(tmp_path / "batched")
        cluster.put(doc, src)
        assert _blobs(cluster, n) == reference, size
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
        monkeypatch.undo()


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
