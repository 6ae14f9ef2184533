"""The benchmark's tracer must find every entry point it wraps.

bench/tracer.py patches the layers by name; a renamed or deleted entry
point would only show up when the traced benchmark runs.  This test
installs and uninstalls the tracer against the source tree instead.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def entry_point(module_name: str, attr: str):
    """The object a LAYERS entry names: a module function or a method as
    stored on its class."""
    module = importlib.import_module(f"atrahasis.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def test_every_traced_entry_point_resolves_and_is_restored(tracer):
    originals = {(m, a): entry_point(m, a) for m, a, _ in tracer.LAYERS}
    fsync = os.fsync
    t = tracer.Tracer()
    t.install()
    try:
        for (m, a), orig in originals.items():
            assert entry_point(m, a) is not orig, f"{m}.{a} was not wrapped"
        assert os.fsync is not fsync
    finally:
        t.uninstall()
    for (m, a), orig in originals.items():
        assert entry_point(m, a) is orig, f"{m}.{a} was not restored"
    assert os.fsync is fsync
    # names bound with `from .module import ...` are restored too
    from atrahasis import code, linalg, search, tensors
    assert code.rank_filter is tensors.rank_filter
    assert search.det is linalg.det


@pytest.mark.parametrize("depth", [0, 1])
def test_node_byte_counters_count_blob_bodies(tmp_path, tracer, depth):
    # the frozen bench's byte counters read cluster._record_len on whatever
    # _read_node/_write_node get as their code argument
    from atrahasis.cluster import Cluster
    from atrahasis.fixtures import atrahasis_956
    from atrahasis.specfile import family_document
    from atrahasis.transforms import central_repair_program, shorten

    family = atrahasis_956()
    code = shorten(family, depth)
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(256)) * 40)
    cluster = Cluster(tmp_path / "store")
    t = tracer.Tracer()
    t.install()
    try:
        def counted(op):
            t.counters.clear()
            op()
            return (t.counters["cluster.read_node.bytes"],
                    t.counters["cluster.write_node.bytes"])

        assert counted(lambda: cluster.put(family_document(family, depth), src))[0] == 0
        body = (cluster.root / "node_0" / "chunks.blob").stat().st_size - 16
        assert t.counters["cluster.write_node.bytes"] == code.n * body
        assert counted(lambda: cluster.get(tmp_path / "out.bin")) == (code.k * body, 0)
        # a degraded get reads each of its k source blobs once
        degraded = list(range(code.n - code.k, code.n))
        assert counted(lambda: cluster.get(tmp_path / "out.bin", nodes=degraded)) == \
            (code.k * body, 0)
        assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
        cluster.fail(0)
        assert counted(lambda: cluster.repair(0)) == (code.d * body, body)
        cluster.fail(1)
        cluster.fail(2)
        helpers = list(range(3, 3 + code.d))
        plan = central_repair_program(family, 1, 2, list(code.pinned) + helpers,
                                      "subspace").plan
        senders = [h for h, sent in plan.per_helper_sent if sent and h in helpers]
        assert counted(lambda: cluster.repair2(1, 2)) == (len(senders) * body, 2 * body)
    finally:
        t.uninstall()


def test_cli_fail_and_status_record_cluster_spans(tmp_path, tracer):
    # CLI fail and status go through Cluster, so the traced bench sees them
    from atrahasis import cli
    from atrahasis.cluster import Cluster
    from atrahasis.fixtures import atrahasis_956
    from atrahasis.specfile import family_document

    src = tmp_path / "input.bin"
    src.write_bytes(b"hello")
    store = str(tmp_path / "store")
    Cluster(store).put(family_document(atrahasis_956()), src)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(["fail", "3", "--store", store]) == 0
        assert cli.main(["status", "--store", store]) == 0
    finally:
        t.uninstall()
    # (span, its parent) in order; the manifest spans are the commands'
    spans = [(name, t.spans[parent][0]) for name, _, _, parent in t.spans
             if name in ("cluster.fail", "cluster.status", "cluster.manifest_load",
                         "cluster.manifest_save")]
    assert spans == [("cluster.fail", "cli.main"),
                     ("cluster.manifest_load", "cluster.fail"),
                     ("cluster.manifest_save", "cluster.fail"),
                     ("cluster.status", "cli.main"),
                     ("cluster.manifest_load", "cluster.status")]


def test_verify_axioms_records_tensor_row_spans(tracer):
    # the frozen bench counts the builder's rows through these two names;
    # the builder must reach them through the tensors module
    from atrahasis import code
    from atrahasis.fields import binary_field
    from atrahasis.fixtures import atrahasis_956

    t = tracer.Tracer()
    t.install()
    try:
        assert code.verify_axioms(atrahasis_956()).ok
        assert code.verify_axioms(code.rs_stars_t2(binary_field(8), 12, 5,
                                                   code.EXTERIOR)).ok
    finally:
        t.uninstall()
    calls = tracer.summarize(t.spans)
    assert calls["code.verify_axioms"]["calls"] == 2
    # fixture: 9 nodes' axiom rows; RS exterior: 12 nodes' axiom rows and
    # 2 quotient rows for each of the 12 failed nodes
    assert calls["tensors.sym_tensor_rows"]["calls"] == 9
    assert calls["tensors.ext_tensor_rows"]["calls"] == 12 + 12 * 2
