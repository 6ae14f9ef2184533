import random
from itertools import combinations

import numpy as np
import pytest

from atrahasis.bulk import BulkField, bytes_to_symbols, symbols_to_bytes
from atrahasis.cluster import Cluster
from atrahasis.code import SYMMETRIC, rs_stars_t2
from atrahasis.errors import (CorruptDataError, InsufficientNodesError,
                              UsageError)
from atrahasis.fields import binary_field, prime_field
from atrahasis.fixtures import atrahasis_956
from atrahasis.linalg import Matrix, Vector
from atrahasis.specfile import family_document
from conftest import random_values


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
        A = Matrix(spec, [random_values(rng, spec, 5) for _ in range(4)])
        cols = 7
        data = np.array([random_values(rng, spec, cols) for _ in range(5)],
                        dtype=bulk.dtype)
        got = bulk.matmul(A, data)
        for j in range(cols):
            vec = A.matvec(Vector(spec, [int(data[i][j]) for i in range(5)]))
            assert [int(x) for x in got[:, j]] == vec.values


def test_bulk_rejects_prime_fields():
    with pytest.raises(UsageError):
        BulkField(prime_field(127))


@pytest.mark.parametrize("m", [1, 3, 4, 8, 9, 16])
def test_symbol_packing_roundtrip(m, rng):
    data = bytes(rng.randrange(256) for _ in range(41))
    total = (len(data) * 8 + m - 1) // m
    symbols = bytes_to_symbols(data, m, total)
    assert int(symbols.max(initial=0)) < (1 << m)
    back = symbols_to_bytes(symbols, m)
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


def test_non_canonical_symbol_detected(tmp_path, fixture_doc, rng):
    data = bytes(rng.randrange(256) for _ in range(100))
    cluster, _ = make_store(tmp_path, fixture_doc, data)
    blob = cluster.root / "node_1" / "chunks.blob"
    raw = bytearray(blob.read_bytes())
    raw[16] = 0x55  # first value byte: 85 is not a GF(16) residue
    blob.write_bytes(bytes(raw))
    with pytest.raises(CorruptDataError):
        cluster.get(tmp_path / "out.bin", nodes=[0, 1, 2, 3, 4])


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
    cluster.fail(1)
    cluster.fail(2)
    with pytest.raises(UsageError):
        cluster.repair2(1, 2)


def test_two_byte_element_cluster(tmp_path, rng):
    # GF(512) symbols occupy two bytes on disk and 9 bits in the stream
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


def test_manifest_required(tmp_path):
    with pytest.raises(UsageError):
        Cluster(tmp_path / "nowhere").get(tmp_path / "x")


# node_digests written by the per-coefficient lookup-table kernel that the
# bit-sliced kernel replaced; the on-disk bytes must not change
PINNED_DIGESTS = {
    "fixture": [
        "4f2742fd54d832cf34abc59c5a7ae58fc8289f31fc3e8d232d030ac14a515fbc",
        "2d210cbdf4a8b8f3c1fb1cad6ffa1b8e3168e17e275a3da32cfba77bf63bd6c8",
        "7eec47a182c106694eb8143fb215c7162246f9c802f1e0575f97f150c9927f61",
        "8e726146ab0315fa58bdc1ebabeb63b85b587f88fbe3798d9ffed884223bb782",
        "05977df6f234a8dd6256d1484dcb0a47745ec4e5b29523cd0d163a19fdf8eaa0",
        "8ddc6e27db7fe9ab525ca8ef4590dc199607a704951796e0c79d5bb28c304e48",
        "90e5e16f52e6a20e3c5dae67587ff3be87bc6acc37089e1f61bf1d8021e18398",
        "35f5a57d785822e3abf97ba461a1fba997b39b9faf8914282f43c3ba48986ede",
        "419e9dfd202837cf4ce2857b3ffe66a161e76be2ba592f5733942f6e3259b9cc",
    ],
    "rs-gf512": [
        "8a177ab7c70a221b5e0674b0d42ca971cf70bf20f092e900efe287a856d32106",
        "7dfe1becd5b14fdd4e50349e2b1938becf67e20950e8780e7b8ac9c8efab1002",
        "cd22bec8cca4432e27f3bb4fb927d14dfbfca6a8b9b835a28b42ff5d7935f40f",
        "68568b58f3e898f04a4e391bc60680f62c80bc5f9f9862791b2d3b6505159b3f",
        "001a302abed5202f20549d523817893163038094403f5e69311b2895c0643d6d",
        "5f1bfe09970f1c7bf7f26d91faa08c27afb2581c0a38e2ad49bc8a5031ba5bf1",
    ],
    "fixture-shortened": [
        "d2632b1742d96319effa82b213c569c442925e94585dc6cd38c206721f24b54b",
        "0ecbede226660063f51519dc6cd7d551e9cbde7c524b00a6c42d33427c4319ce",
        "9f88a45c902f042f065cd380ad1c6ab9c7ca13ca70949d4d49c735bcd735e2a6",
        "671437ece437c0514e6f9d2cfe696bb69ca9d7d1bfd8a12cec7fbd4a77a8f7e3",
        "16cc0b5d6e2faf23e95c21d70cb84de36c3e8177c84c503367a64f91bddb3389",
        "cbd06458c12e4f23a8f655b50d8b625fa5a1698c9943ce96a57fb8fd9240e06d",
        "d5a09053e782269a8ac022135a1ed03df1f40f8a34bc85c64d8c9b77c05286cc",
        "8f958e7dfcfea7fcf2e6cd9b96270e34ff04151269c13d11d2a6ba66b7f8d3e9",
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_put_blobs_match_pinned_digests(tmp_path, name):
    doc = {
        "fixture": lambda: family_document(atrahasis_956()),
        "rs-gf512": lambda: family_document(
            rs_stars_t2(binary_field(9), 6, 3, SYMMETRIC)),
        "fixture-shortened": lambda: family_document(atrahasis_956(),
                                                     shorten_depth=1),
    }[name]()
    data = random.Random(2020).randbytes(4099)
    cluster, _ = make_store(tmp_path, doc, data)
    digests = cluster._load()[0]["node_digests"]
    assert [digests[str(h)] for h in range(len(digests))] == PINNED_DIGESTS[name]
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
