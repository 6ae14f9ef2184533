import json
import subprocess
import sys

import pytest

from atrahasis import specfile
from atrahasis.cli import main, parse_field
from atrahasis.errors import UsageError
from atrahasis.fields import binary_field, prime_field


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


def test_gen_fixture_and_verify(tmp_path):
    spec = tmp_path / "fix.spec"
    assert main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)]) == 0
    assert spec.exists()
    assert main(["verify", str(spec)]) == 0


def test_gen_rs_spec(tmp_path):
    spec = tmp_path / "rs.spec"
    code, out, err = run_cli("gen", "--n", "6", "--k", "3", "--d", "4",
                             "--source", "rs", "--field", "gf16",
                             "--out", str(spec))
    assert code == 0, err
    loaded, _ = specfile.read_spec_file(spec)
    assert (loaded.params.n, loaded.params.k, loaded.params.d) == (6, 3, 4)


def test_gen_exterior_search(tmp_path):
    spec = tmp_path / "ext.spec"
    code, out, err = run_cli("gen", "--n", "6", "--k", "3", "--d", "4",
                             "--flavor", "exterior", "--field", "gf16",
                             "--out", str(spec))
    assert code == 0, err
    loaded, _ = specfile.read_spec_file(spec)
    assert loaded.params.flavor == "exterior"
    assert len(loaded.second_stars[0]) == 3  # w vectors live in F^k


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


def test_shorten_cli(tmp_path):
    spec = tmp_path / "fix.spec"
    short = tmp_path / "short.spec"
    main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)])
    assert main(["shorten", str(spec), "--delta", "1", "--out", str(short)]) == 0
    code, _ = specfile.read_spec_file(short)
    assert (code.n, code.k, code.d, code.alpha) == (8, 4, 5, 6)
    assert main(["verify", str(short)]) == 0


def test_json_output_parses(tmp_path):
    spec = tmp_path / "fix.spec"
    code, out, err = run_cli("--json", "gen", "--fixture", "atrahasis-956",
                             "--out", str(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["params"]["n"] == 9
