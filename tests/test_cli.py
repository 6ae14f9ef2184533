import hashlib
import json
import random
import shutil
import subprocess
import sys

import pytest

from atrahasis import specfile
from atrahasis.bulk import BulkField, bytes_to_symbols, symbols_to_bytes
from atrahasis import cli
from atrahasis.cli import main, parse_field
from atrahasis.cluster import Cluster
from atrahasis.code import SYMMETRIC, rs_stars_t2
from atrahasis.errors import UsageError
from atrahasis.fields import binary_field, prime_field
from atrahasis.fixtures import atrahasis_956


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "atrahasis", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_field():
    assert parse_field("gf16") == binary_field(4)
    assert parse_field("gf16/0x13") == binary_field(4, 0x13)
    assert parse_field("gf127") == prime_field(127)
    assert parse_field("gf256") == binary_field(8)
    with pytest.raises(UsageError):
        parse_field("gf12")
    with pytest.raises(UsageError):
        parse_field("12")


def test_algebra_imports_leave_numpy_unloaded():
    # no command needs numpy, and none may pay for importing it; nor for
    # dataclasses, which imports inspect, ast, dis and tokenize, nor for
    # argparse, which imports gettext and, through it, locale
    modules = ("cli", "code", "search", "linalg", "fields", "transforms",
               "cluster", "bulk", "fixtures")
    unwanted = {"numpy", "dataclasses", "inspect", "argparse", "gettext", "locale"}
    script = (f"import sys\nbefore = set(sys.modules)\n"
              f"for name in {modules!r}:\n"
              f"    __import__('atrahasis.' + name)\n"
              f"print(sorted({unwanted!r} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_gen_fixture_and_verify(tmp_path):
    spec = tmp_path / "fix.spec"
    assert main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)]) == 0
    assert spec.exists()
    assert main(["verify", str(spec)]) == 0


@pytest.mark.parametrize("option", [("--flavor", "exterior"), ("--field", "gf256"),
                                    ("--field", "gf16/0x19")])
def test_gen_fixture_rejects_other_field_or_flavor(tmp_path, option):
    spec = tmp_path / "fix.spec"
    assert_usage_error("gen", "--fixture", "atrahasis-956", *option, "--out", str(spec))
    assert not spec.exists()


def test_gen_fixture_accepts_its_own_field_and_flavor(tmp_path):
    spec = tmp_path / "fix.spec"
    assert main(["gen", "--fixture", "atrahasis-956", "--field", "gf16",
                 "--flavor", "symmetric", "--out", str(spec)]) == 0
    loaded, _ = specfile.read_spec_file(spec)
    assert loaded.spec == binary_field(4) and loaded.base.params.flavor == "symmetric"


def test_gen_spec_file_round_trip(tmp_path):
    spec = tmp_path / "fix.spec"
    again = tmp_path / "again.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    assert main(["gen", "--source", "spec-file", "--spec-file", str(spec),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == spec.read_bytes()
    assert main(["gen", "--source", "spec-file", "--spec-file", str(spec),
                 "--n", "9", "--k", "5", "--d", "6", "--field", "gf16",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == spec.read_bytes()


@pytest.mark.parametrize("option", [("--field", "gf256", "--flavor", "exterior"),
                                    ("--field", "gf256"), ("--flavor", "exterior"),
                                    ("--n", "10")])
def test_gen_spec_file_rejects_other_parameters(tmp_path, option):
    spec = tmp_path / "fix.spec"
    again = tmp_path / "again.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    # n, k and d match; the option (given last, so it wins) does not
    assert_usage_error("gen", "--source", "spec-file", "--spec-file", str(spec),
                       "--n", "9", "--k", "5", "--d", "6", *option, "--out", str(again))
    assert not again.exists()


def test_gen_rs_spec(tmp_path):
    spec = tmp_path / "rs.spec"
    code, out, err = run_cli("gen", "--n", "6", "--k", "3", "--d", "4",
                             "--source", "rs", "--field", "gf16",
                             "--out", str(spec))
    assert code == 0, err
    loaded, _ = specfile.read_spec_file(spec)
    assert (loaded.base.params.n, loaded.base.params.k, loaded.base.params.d) == (6, 3, 4)


def test_gen_exterior_search(tmp_path):
    spec = tmp_path / "ext.spec"
    code, out, err = run_cli("gen", "--n", "6", "--k", "3", "--d", "4",
                             "--flavor", "exterior", "--field", "gf16",
                             "--out", str(spec))
    assert code == 0, err
    loaded, _ = specfile.read_spec_file(spec)
    assert loaded.base.params.flavor == "exterior"
    assert len(loaded.base.second_stars[0]) == 3  # w vectors live in F^k


def test_gen_non_integral_t_suggests_shortening(tmp_path):
    code, out, err = run_cli("gen", "--n", "6", "--k", "4", "--d", "5",
                             "--out", str(tmp_path / "x.spec"))
    assert code == 3
    assert "--shorten-from 7,5,6" in err


def test_gen_shorten_from(tmp_path):
    spec = tmp_path / "short.spec"
    code, out, err = run_cli(
        "gen", "--n", "6", "--k", "4", "--d", "5",
        "--shorten-from", "7,5,6", "--field", "gf16",
        "--x-pattern", "0,2,6", "--y-pattern", "0,1,3", "--out", str(spec))
    assert code == 0, err
    loaded, _ = specfile.read_spec_file(spec)
    assert (loaded.n, loaded.k, loaded.d) == (6, 4, 5)


# sha256 of the spec files `gen --source search` writes over GF(16), where
# the pool search scanning the whole field finishes: stopping it at n
# points must keep them byte for byte
PINNED_SEARCH_SPECS = {
    "--n 9 --k 5 --d 5 --field gf16 --x-pattern 0,1,2,3,4 --y-pattern 0":
        "e420b6a886318ed77eeea35748c5a7b1b367373561b86304a33254c1e4d6f155",
    "--n 6 --k 3 --d 4 --flavor exterior --field gf16":
        "40c0c933a55b9c2729dad544ffb2cf10dbb209bb71706d1c2cb407ecf0970586",
    "--n 6 --k 4 --d 5 --shorten-from 7,5,6 --field gf16 --x-pattern 0,2,6 --y-pattern 0,1,3":
        "0617b017f7d7c70ca1c48e6d3fe3cced9c96616572796d5db908be10df3912cf",
}


@pytest.mark.parametrize("args", sorted(PINNED_SEARCH_SPECS))
def test_gen_search_spec_bytes_pinned(tmp_path, args):
    spec = tmp_path / "search.spec"
    assert main(["gen", *args.split(), "--out", str(spec)]) == 0
    assert hashlib.sha256(spec.read_bytes()).hexdigest() == PINNED_SEARCH_SPECS[args]


def test_gen_search_large_field_stops_at_n_points(tmp_path):
    # every point of GF(256) would be admitted, each check walking
    # C(pool, d-1) subsets; the search stops once it has n = 9 points
    spec = tmp_path / "wide.spec"
    assert main(["gen", "--n", "9", "--k", "5", "--d", "5", "--field", "gf256",
                 "--x-pattern", "0,1,2,3,4", "--y-pattern", "0", "--out", str(spec)]) == 0
    loaded, _ = specfile.read_spec_file(spec)
    assert [x[1] for x in loaded.base.x_stars] == list(range(9))


def test_gen_rs_wrong_t(tmp_path):
    code, out, err = run_cli("gen", "--n", "9", "--k", "5", "--d", "6",
                             "--source", "rs", "--out", str(tmp_path / "x.spec"))
    assert code == 3


def test_gen_search_too_small_field(tmp_path):
    code, out, err = run_cli("gen", "--n", "9", "--k", "5", "--d", "6",
                             "--field", "gf4", "--x-pattern", "0,2,6",
                             "--y-pattern", "0,1,3",
                             "--out", str(tmp_path / "x.spec"))
    assert code == 3


def test_verify_tampered_spec_names_subset(tmp_path):
    spec = tmp_path / "fix.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    doc = json.loads(spec.read_text())
    doc["x_stars"][1] = doc["x_stars"][0]
    doc["second_stars"][1] = doc["second_stars"][0]
    doc.pop("content_hash")
    doc["content_hash"] = __import__("hashlib").sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    spec.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(spec))
    assert code == 4
    assert "MDSx violated at subset (0, 1, 2)" in out


def test_verify_corrupted_hash(tmp_path):
    spec = tmp_path / "fix.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    doc = json.loads(spec.read_text())
    doc["x_stars"][0][0] = "5"
    spec.write_text(json.dumps(doc))  # hash now stale
    code, out, err = run_cli("verify", str(spec))
    assert code == 2


def assert_usage_error(*args):
    """Exit 2 with a one-line `error:` message, no traceback."""
    code, out, err = run_cli(*args)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def write_rehashed(path, doc):
    """Write a code-spec document with a content hash that matches it."""
    doc.pop("content_hash", None)
    doc["content_hash"] = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    path.write_text(json.dumps(doc))


def test_verify_spec_not_json(tmp_path):
    junk = tmp_path / "junk.spec"
    junk.write_text("this is not json")
    assert_usage_error("verify", str(junk))


def test_put_spec_not_json(tmp_path):
    junk = tmp_path / "junk.spec"
    junk.write_bytes(b"\xff\xfe{")
    data = tmp_path / "data.bin"
    data.write_bytes(b"hello")
    assert_usage_error("put", str(data), "--spec", str(junk),
                       "--store", str(tmp_path / "store"))


def test_verify_spec_missing_stars(tmp_path):
    spec = tmp_path / "fix.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    doc = json.loads(spec.read_text())
    del doc["x_stars"]
    write_rehashed(spec, doc)
    assert_usage_error("verify", str(spec))


def test_verify_spec_non_hex_star(tmp_path):
    spec = tmp_path / "fix.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    doc = json.loads(spec.read_text())
    doc["x_stars"][0][0] = "zz"
    write_rehashed(spec, doc)
    assert_usage_error("verify", str(spec))


@pytest.mark.parametrize("key", ["n", "k", "d", "t", "shorten.delta", "field.m"])
def test_verify_rejects_booleans_as_ints(tmp_path, key):
    # a JSON true where an int belongs is a malformed file (exit 2), not
    # parameters of 1
    spec = tmp_path / "fix.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    doc = json.loads(spec.read_text())
    if key == "shorten.delta":
        doc["shorten"] = {"delta": True, "pinned": [8]}
    elif key == "field.m":
        doc["field"]["m"] = True
    else:
        doc["params"][key] = True
    write_rehashed(spec, doc)
    assert main(["verify", str(spec)]) == 2
    assert main(["shorten", str(spec), "--delta", "1",
                 "--out", str(tmp_path / "short.spec")]) == 2


def test_verify_rejects_boolean_spec_version(tmp_path):
    # JSON true == 1 in Python, but it is no spec version
    spec = tmp_path / "fix.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    doc = json.loads(spec.read_text())
    doc["version"] = True
    write_rehashed(spec, doc)
    assert_usage_error("verify", str(spec))


def test_status_rejects_float_manifest_version(tmp_path):
    store = _put_hello(tmp_path)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["version"] = 2.0
    path.write_text(json.dumps(manifest))
    assert_usage_error("status", "--store", str(store))


def test_status_truncated_manifest(tmp_path):
    spec = tmp_path / "fix.spec"
    store = tmp_path / "store"
    data = tmp_path / "data.bin"
    data.write_bytes(b"hello")
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    main(["put", str(data), "--spec", str(spec), "--store", str(store)])
    manifest = store / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:100])
    assert_usage_error("status", "--store", str(store))


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


# (manifest key, damage to its value, command that must then exit 2)
MANIFEST_DAMAGE = {
    "file-not-object": ("file", lambda v: 3, "status"),
    "file-missing-field": ("file", lambda v: _without(v, "padding_bits"), "get"),
    "file-string-field": ("file", lambda v: {**v, "chunk_count": "1"}, "get"),
    "file-not-whole-stripes": ("file", lambda v: {**v, "chunk_count": 65}, "status"),
    "status-string": ("node_status", lambda v: "xx", "get"),
    "status-short": ("node_status", lambda v: v[:-1], "status"),
    "status-unknown": ("node_status", lambda v: v[:-1] + ["lost"], "fail"),
    "digests-list": ("node_digests", lambda v: list(v.values()), "status"),
    "digests-missing-node": ("node_digests", lambda v: _without(v, "8"), "fail"),
    "digests-not-hex": ("node_digests", lambda v: {**v, "0": "zz"}, "fail"),
    "ledger-list": ("ledger", lambda v: [], "fail"),
    "ledger-string-counter": ("ledger", lambda v: {**v, "repair_symbols": "x"}, "get"),
    "ledger-negative-counter": ("ledger", lambda v: {**v, "repair2_symbols": -1},
                                "status"),
    "ledger-missing-key": ("ledger", lambda v: _without(v, "repair2_symbols"), "fail"),
    "ledger-extra-key": ("ledger", lambda v: {**v, "other": 0}, "status"),
    "ledger-history-not-list": ("ledger", lambda v: {**v, "history": 5}, "get"),
}


@pytest.mark.parametrize("case", MANIFEST_DAMAGE)
def test_manifest_value_types_checked(tmp_path, case):
    key, damage, command = MANIFEST_DAMAGE[case]
    spec = tmp_path / "fix.spec"
    store = tmp_path / "store"
    data = tmp_path / "data.bin"
    data.write_bytes(b"hello")
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    main(["put", str(data), "--spec", str(spec), "--store", str(store)])
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] = damage(manifest[key])
    path.write_text(json.dumps(manifest))
    args = {"status": ["status"], "get": ["get", str(tmp_path / "out.bin")],
            "fail": ["fail", "0"]}[command]
    code, out, err = run_cli(*args, "--store", str(store))
    assert code == 2, (code, err)
    assert f"'{key}'" in err and "Traceback" not in err, err


def _put_hello(tmp_path):
    spec = tmp_path / "fix.spec"
    store = tmp_path / "store"
    data = tmp_path / "data.bin"
    data.write_bytes(b"hello")
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    main(["put", str(data), "--spec", str(spec), "--store", str(store)])
    return store


def test_repair_refuses_malformed_ledger_before_any_blob(tmp_path):
    store = _put_hello(tmp_path)
    assert main(["fail", "3", "--store", str(store)]) == 0
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["ledger"] = {"repair_symbols": "x", "history": 5}
    path.write_text(json.dumps(manifest))
    for args in (["repair", "3"], ["status"]):
        code, out, err = run_cli(*args, "--store", str(store))
        assert code == 2, (args, err)
        assert "'ledger'" in err and "Traceback" not in err, err
    assert list((store / "node_3").iterdir()) == []
    assert json.loads(path.read_text())["node_status"][3] == "failed"


def test_old_manifest_version_rejected(tmp_path):
    store = _put_hello(tmp_path)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["version"] = 1
    path.write_text(json.dumps(manifest))
    for args in (["status"], ["get", str(tmp_path / "out.bin")], ["fail", "0"]):
        code, out, err = run_cli(*args, "--store", str(store))
        assert code == 2, (args, err)
        assert "version 1, expected 2 (re-put the file)" in err, err
        assert "Traceback" not in err


def _star_damage(value):
    """A code-spec damage that re-hashes the document, so only the star
    check can catch it."""
    def damage(doc):
        doc = json.loads(json.dumps(doc))
        doc["x_stars"][0][0] = value
        doc.pop("content_hash")
        doc["content_hash"] = hashlib.sha256(json.dumps(
            doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        return doc
    return damage


# (manifest key, damage to its value, what the error must name): every
# manifest and code-spec check that get and repair make, made by the
# manifest-only commands too
MANIFEST_ONLY_DAMAGE = {
    **{case: (key, damage, f"'{key}'")
       for case, (key, damage, _) in MANIFEST_DAMAGE.items()},
    "old-version": ("version", lambda v: 1, "version 1, expected 2 (re-put the file)"),
    "spec-content-hash": ("code_spec", lambda v: {**v, "content_hash": "0" * 64},
                          "code-spec content hash mismatch"),
    "params-hash": ("params_hash", lambda v: "0" * 16, "manifest params hash mismatch"),
    "spec-star-rehashed-non-hex": ("code_spec", _star_damage("zz"), "'x_stars'"),
    "spec-star-rehashed-outside-field": ("code_spec", _star_damage("fff"),
                                         "not a canonical element"),
}


@pytest.fixture(scope="module")
def hello_store(tmp_path_factory):
    return _put_hello(tmp_path_factory.mktemp("hello"))


@pytest.mark.parametrize("command", ["fail", "status"])
@pytest.mark.parametrize("case", MANIFEST_ONLY_DAMAGE)
def test_manifest_only_commands_validate(tmp_path, hello_store, case, command):
    key, damage, names = MANIFEST_ONLY_DAMAGE[case]
    store = tmp_path / "store"
    shutil.copytree(hello_store, store)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] = damage(manifest[key])
    path.write_text(json.dumps(manifest))
    before = path.read_bytes()
    blob = store / "node_0" / "chunks.blob"
    blob_before = blob.read_bytes()
    args = {"status": ["status"], "fail": ["fail", "0"]}[command]
    code, out, err = run_cli(*args, "--store", str(store))
    assert code == 2, (code, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert names in err and "Traceback" not in err, err
    # a rejected command changes nothing
    assert path.read_bytes() == before
    assert blob.read_bytes() == blob_before


def test_fail_and_status_leave_numpy_unloaded(tmp_path):
    store = str(_put_hello(tmp_path))
    script = (f"import sys\nfrom atrahasis import cli\n"
              f"assert cli.main(['fail', '3', '--store', {store!r}]) == 0\n"
              f"assert cli.main(['status', '--store', {store!r}]) == 0\n"
              f"print([m for m in ('numpy', 'fractions', 'atrahasis.search')"
              f" if m in sys.modules])\n"
              f"import atrahasis.cluster\n"
              f"print('numpy' in sys.modules, 'fractions' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-2:] == ["[]", "False False"]


# every data command, and fail and status, in an interpreter where any
# import of numpy raises ImportError; prints "ok" when each output matched
_NO_NUMPY = """
import sys
sys.modules["numpy"] = None
from pathlib import Path
from atrahasis.cli import main

spec, data, store, out = sys.argv[1:5]
user = Path(data).read_bytes()

def blobs():
    return [(Path(store) / f"node_{h}" / "chunks.blob").read_bytes() for h in range(9)]

assert main(["put", data, "--spec", spec, "--store", store]) == 0
written = blobs()
for nodes in ("0,1,2,3,4", "4,5,6,7,8"):
    assert main(["get", out, "--store", store, "--nodes", nodes]) == 0
    assert Path(out).read_bytes() == user, nodes
assert main(["fail", "3", "--store", store]) == 0
assert main(["repair", "3", "--store", store]) == 0
assert blobs() == written
assert main(["fail", "0", "--store", store]) == 0
assert main(["fail", "7", "--store", store]) == 0
assert main(["repair2", "0", "7", "--store", store]) == 0
assert blobs() == written
assert main(["status", "--store", store]) == 0
print("ok")
"""


def test_data_commands_run_without_numpy(tmp_path):
    spec, data = tmp_path / "fix.spec", tmp_path / "data.bin"
    assert main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)]) == 0
    # two batches of stripes, the second one short
    data.write_bytes(random.Random(16).randbytes(600_000))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, str(spec), str(data),
                           str(tmp_path / "store"), str(tmp_path / "out.bin")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


# the manifest after put and after fail 3, and status then, as they were
# when fail and status were implemented in cluster (the manifest records
# the blob digests, so these follow the blob format, now version 4)
PUT_MANIFEST_SHA256 = "565835e4c8478774ba2bbc3beba28b3a8553b028950f900091e2d5e62a027438"
FAIL_MANIFEST_SHA256 = "8d72b9655593ae5e032c767484498a29cb89986f8cc49d63494c632ec8ba2fd6"
STATUS_AFTER_FAIL = {
    "file": {"chunk_count": 128, "original_length": 1280, "padding_bits": 5056,
             "symbols_per_chunk": 30},
    "ledger": {"history": [], "repair2_symbols": 0, "repair_symbols": 0},
    "node_status": ["live"] * 3 + ["failed"] + ["live"] * 5,
    "params": {"alpha": 6, "beta": 3, "d": 6, "k": 5, "n": 9},
}


def test_fail_and_status_same_through_api_and_cli(tmp_path, capsys):
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(256)) * 5)
    api = Cluster(tmp_path / "api")
    api.put(specfile.family_document(atrahasis_956()), data)
    manifest = api.root / "manifest.json"
    assert hashlib.sha256(manifest.read_bytes()).hexdigest() == PUT_MANIFEST_SHA256
    cli_store = tmp_path / "cli"
    shutil.copytree(api.root, cli_store)
    assert api.fail(3) == {"failed": 3}
    assert hashlib.sha256(manifest.read_bytes()).hexdigest() == FAIL_MANIFEST_SHA256
    assert not (api.root / "node_3" / "chunks.blob").exists()
    assert api.status() == STATUS_AFTER_FAIL
    capsys.readouterr()
    assert main(["--json", "fail", "3", "--store", str(cli_store)]) == 0
    assert json.loads(capsys.readouterr().out) == {"failed": 3}
    assert (cli_store / "manifest.json").read_bytes() == manifest.read_bytes()
    assert main(["--json", "status", "--store", str(cli_store)]) == 0
    assert json.loads(capsys.readouterr().out) == STATUS_AFTER_FAIL


# every store command but put, with its arguments before --store
NOT_PUT = (("status",), ("get", "out.bin"), ("fail", "0"), ("repair", "0"),
           ("repair2", "0", "1"))


@pytest.mark.parametrize("args", NOT_PUT, ids=lambda args: args[0])
def test_store_commands_but_put_create_no_store(tmp_path, args):
    store = tmp_path / "absent" / "store"
    code, out, err = run_cli(*args, "--store", str(store))
    assert code == 2, err
    assert err == f"error: no cluster at {store} (run put first)\n"
    assert not (tmp_path / "absent").exists()


def _put_args(tmp_path):
    """put's arguments before --store, with its input and spec files."""
    (tmp_path / "data.bin").write_bytes(b"hello")
    specfile.write_spec_file(tmp_path / "fix.spec", atrahasis_956())
    return "put", str(tmp_path / "data.bin"), "--spec", str(tmp_path / "fix.spec")


@pytest.mark.parametrize("args", (("put",),) + NOT_PUT, ids=lambda args: args[0])
def test_store_that_is_a_regular_file_exits_2(tmp_path, args):
    args = _put_args(tmp_path) if args == ("put",) else args
    store = tmp_path / "store"
    store.write_bytes(b"not a store")
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(*args, "--store", str(store))
    assert code == 2, err
    assert err == f"error: store {store} is not a directory\n"
    assert sorted(tmp_path.iterdir()) == before
    assert store.read_bytes() == b"not a store"


def test_put_under_a_regular_file_exits_2(tmp_path):
    (tmp_path / "file").write_bytes(b"")
    store = tmp_path / "file" / "store"
    code, out, err = run_cli(*_put_args(tmp_path), "--store", str(store))
    assert code == 2, err
    assert err == f"error: cannot create store {store}: Not a directory\n"


@pytest.mark.parametrize("args", NOT_PUT, ids=lambda args: args[0])
def test_store_commands_but_put_leave_an_empty_directory_empty(tmp_path, args):
    store = tmp_path / "store"
    store.mkdir()
    code, out, err = run_cli(*args, "--store", str(store))
    assert code == 2, err
    assert err == f"error: no cluster at {store} (run put first)\n"
    assert list(store.iterdir()) == []


def _bad_put_input(tmp_path, case):
    """put's arguments before --store, with an input or a spec it rejects."""
    args = list(_put_args(tmp_path))
    if case == "input is a directory":
        args[1] = str(tmp_path)
    elif case == "input is missing":
        args[1] = str(tmp_path / "absent.bin")
    elif case == "spec is a directory":
        args[3] = str(tmp_path)
    else:  # valid JSON, not a code spec
        (tmp_path / "fix.spec").write_text('{"format": "x"}')
    return args


@pytest.mark.parametrize("case", ("input is a directory", "input is missing",
                                  "spec is a directory", "spec is not a code spec"))
@pytest.mark.parametrize("existing", (False, True), ids=("new", "empty-dir"))
def test_failed_put_creates_no_store(tmp_path, case, existing):
    args = _bad_put_input(tmp_path, case)
    store = tmp_path / "store"
    if existing:
        store.mkdir()
    assert_usage_error(*args, "--store", str(store))
    assert (list(store.iterdir()) == []) if existing else not store.exists()


def _os_error_args(tmp_path, case):
    """A command whose path argument makes open() fail, and its exit code."""
    regular = tmp_path / "regular"
    regular.write_bytes(b"")
    if case == "verify a directory":
        return ("verify", str(tmp_path)), 2
    if case == "verify under a regular file":
        return ("verify", str(regular / "x.spec")), 2
    if case == "get under a regular file":
        store = tmp_path / "store"
        assert main([*_put_args(tmp_path), "--store", str(store)]) == 0
        return ("get", str(regular / "out.bin"), "--store", str(store)), 2
    # any other OSError: a file name longer than the file system allows
    return ("verify", str(tmp_path / ("x" * 300))), 1


@pytest.mark.parametrize("case", ("verify a directory", "verify under a regular file",
                                  "get under a regular file", "name too long"))
def test_os_errors_are_one_line(tmp_path, case):
    args, expected = _os_error_args(tmp_path, case)
    code, out, err = run_cli(*args)
    assert code == expected, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("parent", ("regular", "missing"))
def test_get_into_a_bad_directory_names_the_output(tmp_path, parent):
    # get writes a temp file beside its output; when the output's directory
    # is a regular file or missing, the error names the output the user gave
    store = tmp_path / "store"
    assert main([*_put_args(tmp_path), "--store", str(store)]) == 0
    (tmp_path / "regular").write_bytes(b"kept")
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / parent / "x"
    code, _, err = run_cli("get", str(out), "--store", str(store))
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"'{out}'" in err and ".tmp" not in err, err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "regular").read_bytes() == b"kept"


@pytest.fixture(scope="module")
def shortened_store(tmp_path_factory):
    """A store on RS (12,5,8) over GF(256) shortened to (11,4,7,4)."""
    tmp = tmp_path_factory.mktemp("short")
    spec = tmp / "short.spec"
    specfile.write_spec_file(spec, rs_stars_t2(binary_field(8), 12, 5, SYMMETRIC), 1)
    data = tmp / "data.bin"
    data.write_bytes(bytes(range(256)) * 12)
    assert main(["put", str(data), "--spec", str(spec),
                 "--store", str(tmp / "store")]) == 0
    return tmp / "store"


@pytest.mark.parametrize("nodes", ["0,0,1,2", "0,0,1,2,3,4", "3,1,2,3"])
def test_get_rejects_repeated_nodes(tmp_path, shortened_store, nodes):
    out = tmp_path / "out.bin"
    code, _, err = run_cli("get", str(out), "--store", str(shortened_store),
                           "--nodes", nodes)
    assert code == 2, err
    repeated = nodes.split(",")[0]
    assert f"nodes [{repeated}] named more than once" in err, err
    assert "Traceback" not in err and not out.exists()


def test_repair_rejects_repeated_helpers(tmp_path, shortened_store):
    store = tmp_path / "store"
    shutil.copytree(shortened_store, store)
    assert main(["fail", "5", "--store", str(store)]) == 0
    code, _, err = run_cli("repair", "5", "--store", str(store),
                           "--helpers", "0,0,1,2,3,4,6")
    assert code == 2, err
    assert "helpers [0] named more than once" in err and "Traceback" not in err
    assert not (store / "node_5" / "chunks.blob").exists()
    assert main(["repair", "5", "--store", str(store),
                 "--helpers", "0,1,2,3,4,6,7"]) == 0


def test_repair2_cli_on_t2_store(tmp_path, shortened_store):
    store = tmp_path / "store"
    shutil.copytree(shortened_store, store)
    blobs = [(store / f"node_{h}" / "chunks.blob").read_bytes() for h in range(11)]
    for h in ("1", "9"):
        assert main(["fail", h, "--store", str(store)]) == 0
    code, out, err = run_cli("repair2", "1", "9", "--store", str(store))
    assert code == 0, err
    assert [(store / f"node_{h}" / "chunks.blob").read_bytes() for h in range(11)] == blobs


def test_repair2_rejects_repeated_nodes(tmp_path):
    store = str(_put_hello(tmp_path))
    for h in ("2", "6"):
        assert main(["fail", h, "--store", store]) == 0
    for args, message in ((("2", "6", "--helpers", "0,0,1,3,4,5"),
                           "helpers [0] named more than once"),
                          (("2", "2"), "nodes [2] named more than once")):
        code, _, err = run_cli("repair2", *args, "--store", store)
        assert code == 2, err
        assert message in err and "Traceback" not in err, err
    assert main(["repair2", "2", "6", "--store", store,
                 "--helpers", "0,1,3,4,5,7"]) == 0


def test_old_blob_version_rejected(tmp_path):
    # node 1's blob as version 3 wrote it: the same layout, but the plain
    # basis, so its planes are node 1's put rows applied to the stream's
    # (the fixture's node 0 holds the same planes in either basis)
    store = _put_hello(tmp_path)
    blob = store / "node_1" / "chunks.blob"
    raw = blob.read_bytes()
    sc, _ = specfile.read_spec_file(tmp_path / "fix.spec")
    stream = bytes_to_symbols(len(b"hello").to_bytes(8, "little") + b"hello",
                              sc.M * sc.spec.m)
    body = symbols_to_bytes(BulkField(sc.spec).matmul(sc.put_matrix([1]), stream))
    assert len(body) == len(raw) - 16 and body != raw[16:]
    blob.write_bytes(raw[:4] + bytes([3]) + raw[5:16] + body)
    out = str(tmp_path / "out.bin")
    code, _, err = run_cli("get", out, "--store", str(store), "--nodes", "0,1,2,3,4")
    assert code == 2, err
    assert "node 1 blob is version 3, expected 4 (re-put the file)" in err, err
    assert "Traceback" not in err
    code, _, err = run_cli("get", out, "--store", str(store), "--nodes", "0,2,3,4,5")
    assert code == 0, err
    assert (tmp_path / "out.bin").read_bytes() == b"hello"


def test_version_2_blob_rejected(tmp_path):
    # a blob in version 2's layout: the words stripe-major (word w*rows + p,
    # for plane p of stripe w) instead of plane-major per batch
    spec, data = tmp_path / "fix.spec", tmp_path / "data.bin"
    store = tmp_path / "store"
    data.write_bytes(random.Random(2).randbytes(5000))  # 6 stripes, one batch
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    main(["put", str(data), "--spec", str(spec), "--store", str(store)])
    blob = store / "node_0" / "chunks.blob"
    raw = blob.read_bytes()
    words = [raw[i:i + 8] for i in range(16, len(raw), 8)]
    stripes, rows = 6, 6 * 4  # alpha*m planes
    assert len(words) == stripes * rows
    body = b"".join(words[p * stripes + w] for w in range(stripes) for p in range(rows))
    assert body != raw[16:]
    blob.write_bytes(raw[:4] + bytes([2]) + raw[5:16] + body)
    out = tmp_path / "out.bin"
    for args in (["get", str(out), "--nodes", "0,1,2,3,4"], ["repair", "8"]):
        if args[0] == "repair":
            assert main(["fail", "8", "--store", str(store)]) == 0
        code, _, err = run_cli(*args, "--store", str(store))
        assert code == 2, (args, err)
        assert "node 0 blob is version 2, expected 4 (re-put the file)" in err, err
        assert "Traceback" not in err
    assert not out.exists()
    assert not (store / "node_8" / "chunks.blob").exists()


def test_more_nodes_or_helpers_than_used_exit_2(tmp_path):
    store = str(_put_hello(tmp_path))
    out = tmp_path / "out.bin"
    # too few given is a usage error too, not a shortage of live nodes
    for nodes in ("0,1,2,3,4,5,6", "0,1,2"):
        code, _, err = run_cli("get", str(out), "--store", store, "--nodes", nodes)
        assert code == 2, err
        given = nodes.count(",") + 1
        assert f"{given} nodes given; this code uses 5" in err, err
        assert "Traceback" not in err, err
    assert not out.exists()
    assert main(["fail", "8", "--store", store]) == 0
    for helpers in ("0,1,2,3,4,5,6,7", "0,1,2,3,4"):
        code, _, err = run_cli("repair", "8", "--store", store, "--helpers", helpers)
        assert code == 2, err
        given = helpers.count(",") + 1
        assert f"{given} helper nodes given; this code uses 6" in err, err
        assert "Traceback" not in err, err
    assert not (tmp_path / "store" / "node_8" / "chunks.blob").exists()
    assert main(["repair", "8", "--store", store, "--helpers", "7,6,5,4,3,2"]) == 0


def test_corrupt_blob_body_exits_2(tmp_path):
    spec = tmp_path / "fix.spec"
    store = str(tmp_path / "store")
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(256)) * 400)
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    main(["put", str(data), "--spec", str(spec), "--store", store])
    blob = tmp_path / "store" / "node_0" / "chunks.blob"
    raw = bytearray(blob.read_bytes())
    raw[5000] ^= 0x03  # a body byte: header and length still check out
    blob.write_bytes(bytes(raw))
    out = tmp_path / "out.bin"
    code, _, err = run_cli("get", str(out), "--store", store, "--nodes", "0,1,2,3,4")
    assert code == 2, err
    assert "node 0 blob does not match its digest" in err and "Traceback" not in err
    assert not out.exists()
    code, _, err = run_cli("get", str(out), "--store", store, "--nodes", "1,2,3,4,5")
    assert code == 0, err
    assert out.read_bytes() == data.read_bytes()
    assert main(["fail", "8", "--store", store]) == 0
    code, _, err = run_cli("repair", "8", "--store", store)
    assert code == 2, err
    assert "node 0" in err and "Traceback" not in err
    assert not (tmp_path / "store" / "node_8" / "chunks.blob").exists()
    code, _, err = run_cli("repair", "8", "--store", store, "--helpers", "1,2,3,4,5,6")
    assert code == 0, err


def test_gf256_non_default_polynomial_end_to_end(tmp_path):
    # 0x11D makes z primitive, unlike the default 0x11B
    spec = tmp_path / "rs.spec"
    store = str(tmp_path / "store")
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(256)) * 7 + b"tail")
    code, out, err = run_cli("gen", "--n", "6", "--k", "3", "--d", "4",
                             "--source", "rs", "--field", "gf256/11d",
                             "--out", str(spec))
    assert code == 0, err
    loaded, _ = specfile.read_spec_file(spec)
    assert loaded.spec == binary_field(8, 0x11D)
    code, out, err = run_cli("put", str(data), "--spec", str(spec), "--store", store)
    assert code == 0, err
    blob = tmp_path / "store" / "node_2" / "chunks.blob"
    digest = hashlib.sha256(blob.read_bytes()).hexdigest()
    for args in (("fail", "2"), ("repair", "2")):
        code, out, err = run_cli(*args, "--store", store)
        assert code == 0, (args, err)
    assert hashlib.sha256(blob.read_bytes()).hexdigest() == digest
    out_path = tmp_path / "out.bin"
    for nodes in ("0,1,2", "2,4,5"):
        code, out, err = run_cli("get", str(out_path), "--store", store,
                                 "--nodes", nodes)
        assert code == 0, err
        assert out_path.read_bytes() == data.read_bytes()


def test_gen_field_bad_polynomial(tmp_path):
    assert_usage_error("gen", "--n", "6", "--k", "3", "--d", "4", "--source", "rs",
                       "--field", "gf16/zz", "--out", str(tmp_path / "x.spec"))


def test_cluster_flow(tmp_path):
    spec = tmp_path / "fix.spec"
    store = str(tmp_path / "store")
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(256)) * 5)
    assert main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)]) == 0
    assert main(["put", str(data), "--spec", str(spec), "--store", store]) == 0
    assert main(["fail", "3", "--store", store]) == 0
    assert main(["repair", "3", "--store", store]) == 0
    out = tmp_path / "out.bin"
    assert main(["get", str(out), "--store", store,
                 "--nodes", "4,5,6,7,8"]) == 0
    assert out.read_bytes() == data.read_bytes()


def test_cluster_exit_codes(tmp_path):
    spec = tmp_path / "fix.spec"
    store = str(tmp_path / "store")
    data = tmp_path / "data.bin"
    data.write_bytes(b"hello")
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    main(["put", str(data), "--spec", str(spec), "--store", store])
    for h in ("0", "1", "2", "3", "4"):
        assert main(["fail", h, "--store", store]) == 0
    code, out, err = run_cli("get", str(tmp_path / "o.bin"), "--store", store)
    assert code == 5
    code, out, err = run_cli("repair", "0", "--store", store)
    assert code == 5
    code, out, err = run_cli("fail", "0", "--store", store)
    assert code == 2  # already failed


def test_repair_node_out_of_range_is_usage_error(tmp_path):
    spec = tmp_path / "fix.spec"
    store = str(tmp_path / "store")
    data = tmp_path / "data.bin"
    data.write_bytes(b"hello")
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    main(["put", str(data), "--spec", str(spec), "--store", store])
    for args in (("repair", "--store", store, "99"),
                 ("repair2", "--store", store, "99", "3"),
                 ("repair", "--store", store, "0", "--helpers", "1,2,3,4,5,99")):
        code, out, err = run_cli(*args)
        assert code == 2, err
        assert "out of range" in err
        assert "Traceback" not in err


def test_repair2_cli_and_json(tmp_path):
    spec = tmp_path / "fix.spec"
    store = str(tmp_path / "store")
    data = tmp_path / "data.bin"
    data.write_bytes(b"x" * 200)
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    main(["put", str(data), "--spec", str(spec), "--store", store])
    main(["fail", "2", "--store", store])
    main(["fail", "6", "--store", store])
    code, out, err = run_cli("--json", "repair2", "2", "6", "--store", store,
                             "--strategy", "cascade")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["repaired"] == [2, 6]
    chunks = json.loads(run_cli("--json", "status", "--store", store)[1])
    assert chunks["ledger"]["repair2_symbols"] == \
        chunks["file"]["chunk_count"] * 28


def test_sweep_cli(tmp_path):
    table = tmp_path / "sweep.tsv"
    code, out, err = run_cli("sweep", "--alpha-cap", "3", "--out", str(table))
    assert code == 0
    lines = table.read_text().strip().split("\n")
    assert lines[0].startswith("k\td\tt")
    assert all(line.endswith("nonzero-witnessed") for line in lines[1:])


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_sweep_cli_rejects_alpha_cap_below_one(tmp_path, cap):
    table = tmp_path / "sweep.tsv"
    assert_usage_error("sweep", "--alpha-cap", cap, "--out", str(table))
    assert not table.exists()


@pytest.mark.parametrize("redraws", ["0", "-1"])
def test_sweep_cli_rejects_max_redraws_below_one(tmp_path, redraws):
    table = tmp_path / "sweep.tsv"
    assert_usage_error("sweep", "--alpha-cap", "3", "--max-redraws", redraws,
                       "--out", str(table))
    assert not table.exists()


def test_shorten_cli(tmp_path):
    spec = tmp_path / "fix.spec"
    short = tmp_path / "short.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    assert main(["shorten", str(spec), "--delta", "1", "--out", str(short)]) == 0
    code, _ = specfile.read_spec_file(short)
    assert (code.n, code.k, code.d, code.alpha) == (8, 4, 5, 6)
    assert main(["verify", str(short)]) == 0


@pytest.mark.parametrize("delta", ["0", "-1"])
def test_shorten_cli_rejects_delta_below_one(tmp_path, delta):
    spec = tmp_path / "fix.spec"
    short = tmp_path / "short.spec"
    twice = tmp_path / "twice.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    assert main(["shorten", str(spec), "--delta", "2", "--out", str(short)]) == 0
    for source in (spec, short):
        assert_usage_error("shorten", str(source), "--delta", delta, "--out", str(twice))
        assert not twice.exists()
    assert specfile.read_spec_file(short)[0].depth == 2


def test_repair2_cli_on_shortened_spec(tmp_path):
    spec = tmp_path / "fix.spec"
    short = tmp_path / "short.spec"
    store = str(tmp_path / "store")
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(256)) * 5)
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    assert main(["shorten", str(spec), "--delta", "1", "--out", str(short)]) == 0
    assert main(["put", str(data), "--spec", str(short), "--store", store]) == 0
    blob = tmp_path / "store" / "node_3" / "chunks.blob"
    digest = hashlib.sha256(blob.read_bytes()).hexdigest()
    for h in ("3", "7"):
        assert main(["fail", h, "--store", store]) == 0
    code, out, err = run_cli("repair2", "3", "7", "--store", store)
    assert code == 0, err
    assert hashlib.sha256(blob.read_bytes()).hexdigest() == digest


def test_json_output_parses(tmp_path):
    spec = tmp_path / "fix.spec"
    code, out, err = run_cli("--json", "gen", "--fixture", "atrahasis-956",
                             "--out", str(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["params"]["n"] == 9


# argv -> (handler, the values it must parse to, every one that argv
# gives); every other dest of the command keeps its table default
PARSES = {
    "gen-defaults": (["gen", "--out", "x"], cli.cmd_gen,
                     {"out": "x", "source": "search", "n": None, "flavor": None,
                      "field": None, "json": False, "seed": 0}),
    "gen-equals": (["--json", "gen", "--n=6", "--k", "3", "--d=4", "--out=x",
                    "--source", "rs", "--field=gf16/0x13"], cli.cmd_gen,
                   {"json": True, "n": 6, "k": 3, "d": 4, "out": "x",
                    "source": "rs", "field": "gf16/0x13"}),
    "gen-choice": (["gen", "--flavor", "exterior", "--out", "x"], cli.cmd_gen,
                   {"flavor": "exterior", "out": "x"}),
    "gen-last-wins": (["gen", "--out", "a", "--n", "5", "--out", "b", "--n=6"],
                      cli.cmd_gen, {"out": "b", "n": 6}),
    "verify": (["verify", "x.spec"], cli.cmd_verify, {"spec": "x.spec"}),
    "put": (["put", "f.bin", "--spec", "s", "--store", "st"], cli.cmd_put,
            {"file": "f.bin", "spec": "s", "store": "st"}),
    "get-defaults": (["get", "o", "--store", "st"], cli.cmd_get,
                     {"out": "o", "store": "st", "nodes": "auto"}),
    "get-positional-last": (["get", "--store", "st", "--nodes=1,2", "o"], cli.cmd_get,
                            {"out": "o", "store": "st", "nodes": "1,2"}),
    "fail": (["fail", "3", "--store", "s"], cli.cmd_fail, {"node": 3, "store": "s"}),
    "repair-negative-node": (["repair", "-1", "--store", "s"], cli.cmd_repair,
                             {"node": -1, "store": "s", "helpers": "auto"}),
    "repair2-defaults": (["repair2", "1", "9", "--store", "s"], cli.cmd_repair2,
                         {"first": 1, "second": 9, "store": "s",
                          "strategy": "subspace", "helpers": "auto"}),
    "repair2-choice": (["repair2", "1", "9", "--strategy=naive", "--store", "s",
                        "--strategy", "cascade", "--helpers", "0,2"], cli.cmd_repair2,
                       {"first": 1, "second": 9, "store": "s",
                        "strategy": "cascade", "helpers": "0,2"}),
    "status-json-after": (["status", "--store", "s", "--json"], cli.cmd_status,
                          {"store": "s", "json": True}),
    "sweep-negative": (["sweep", "--alpha-cap", "-3"], cli.cmd_sweep,
                       {"alpha_cap": -3, "field": "gf127", "max_redraws": 10,
                        "out": None, "seed": 0}),
    "sweep-globals": (["--seed=-2", "sweep", "--alpha-cap=5", "--seed", "7",
                       "--max-redraws", "-1", "--json"], cli.cmd_sweep,
                      {"alpha_cap": 5, "seed": 7, "max_redraws": -1, "json": True}),
    "shorten-dash-value": (["shorten", "--out", "-y", "x.spec", "--delta", "-2"],
                           cli.cmd_shorten, {"out": "-y", "spec": "x.spec", "delta": -2}),
}


@pytest.mark.parametrize("case", PARSES)
def test_parse_args(case):
    argv, handler, want = PARSES[case]
    parsed_handler, args = cli.parse_args(argv)
    assert parsed_handler is handler
    got = vars(args)
    assert {key: got[key] for key in want} == want
    _, _, positionals, options = cli.COMMANDS[next(a for a in argv if a in cli.COMMANDS)]
    defaults = {opt.dest: opt.default for opt in (*cli.GLOBAL_OPTIONS, *options)}
    assert set(got) == set(defaults) | {dest for dest, _ in positionals}
    assert all(got[key] == value for key, value in defaults.items() if key not in want)


# argv -> a fragment of its one-line error
PARSE_ERRORS = {
    "no-command": ([], "no command"),
    "only-globals": (["--json", "--seed", "3"], "no command"),
    "unknown-command": (["frob"], "unknown command 'frob'"),
    "unknown-option": (["status", "--store", "s", "--frob"], "unknown option --frob"),
    "abbreviated-option": (["status", "--sto", "s"], "unknown option --sto"),
    "command-option-first": (["--store", "s", "status"], "unknown option --store"),
    "missing-required": (["put", "f", "--spec", "s"], "put needs --store"),
    "missing-positional": (["fail", "--store", "s"], "fail needs NODE"),
    "missing-second": (["repair2", "1", "--store", "s"], "repair2 needs SECOND"),
    "extra-positional": (["fail", "1", "2", "--store", "s"], "unexpected argument '2'"),
    "non-int-positional": (["fail", "x", "--store", "s"], "NODE takes an integer"),
    "non-int-option": (["sweep", "--alpha-cap", "three"], "--alpha-cap takes an integer"),
    "non-int-global": (["--seed=x", "sweep", "--alpha-cap", "3"], "--seed takes an integer"),
    "bad-choice": (["repair2", "1", "2", "--store", "s", "--strategy", "best"],
                   "--strategy takes one of naive, cascade, subspace"),
    "bad-choice-equals": (["gen", "--out", "x", "--source=guess"], "--source takes one of"),
    "missing-value": (["status", "--store"], "--store needs a value"),
    "flag-with-value": (["--json=yes", "status", "--store", "s"], "--json takes no value"),
}


@pytest.mark.parametrize("case", PARSE_ERRORS)
def test_parse_errors_exit_2_on_one_line(tmp_path, monkeypatch, capsys, case):
    argv, fragment = PARSE_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_command_and_option(capsys, flag):
    assert main([flag]) == 0
    out = capsys.readouterr().out
    for name in (*cli.COMMANDS, *(opt.flag for opt in cli.GLOBAL_OPTIONS)):
        assert name in out
    for command, (_, _, positionals, options) in cli.COMMANDS.items():
        # help wins over a missing required option or positional
        assert main([command, flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: atrahasis {command}")
        for dest, _ in positionals:
            assert dest.upper() in out
        for opt in (*options, *cli.GLOBAL_OPTIONS):
            assert opt.flag in out, (command, opt.flag)


def test_help_exits_0_through_the_command():
    code, out, err = run_cli("--json", "repair2", "--help")
    assert (code, err) == (0, "")
    assert "--strategy {naive,cascade,subspace}" in out
