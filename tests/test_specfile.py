import hashlib
import json

import pytest

from atrahasis import specfile
from atrahasis.code import EXTERIOR, SYMMETRIC, rs_stars_t2
from atrahasis.errors import CorruptDataError
from atrahasis.fixtures import atrahasis_956
from atrahasis.transforms import ShortenedCode, shorten


def test_spec_file_roundtrip(tmp_path, fixture_family):
    path = tmp_path / "code.spec"
    doc = specfile.write_spec_file(path, fixture_family)
    code, phash = specfile.read_spec_file(path)
    assert code.base.params == fixture_family.params
    assert code.base.x_stars == fixture_family.x_stars
    assert code.base.second_stars == fixture_family.second_stars
    assert phash == specfile.parse_document(doc)[1]
    assert doc["content_hash"] == json.loads(path.read_text())["content_hash"]


def test_spec_file_tamper_detected(tmp_path, fixture_family):
    path = tmp_path / "code.spec"
    specfile.write_spec_file(path, fixture_family)
    doc = json.loads(path.read_text())
    doc["x_stars"][0][0] = "7"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptDataError):
        specfile.read_spec_file(path)


def test_spec_file_bad_format(tmp_path):
    with pytest.raises(CorruptDataError):
        specfile.parse_document({"format": "something-else"})
    with pytest.raises(CorruptDataError):
        specfile.parse_document({"format": specfile.SPEC_FORMAT, "version": 99})


def params_hash(family, shorten_depth=0):
    return specfile.parse_document(specfile.family_document(family, shorten_depth))[1]


def test_params_hash_distinguishes_codes(gf16):
    a = params_hash(rs_stars_t2(gf16, 6, 3, SYMMETRIC))
    b = params_hash(rs_stars_t2(gf16, 6, 3, EXTERIOR))
    c = params_hash(atrahasis_956())
    assert len(a) == 8
    assert len({a, b, c}) == 3
    # stable across rebuilds
    assert params_hash(atrahasis_956()) == c


def test_shortened_spec_roundtrip(tmp_path, fixture_family):
    path = tmp_path / "short.spec"
    specfile.write_spec_file(path, fixture_family, shorten_depth=1)
    code, phash = specfile.read_spec_file(path)
    assert isinstance(code, ShortenedCode)
    assert code.depth == 1 and code.pinned == (8,)
    # a shortened spec hashes differently from its base
    assert phash == params_hash(fixture_family, 1) != params_hash(fixture_family)


def test_shortened_spec_rejects_wrong_pins(fixture_family):
    doc = specfile.family_document(fixture_family, shorten_depth=1)
    doc["shorten"]["pinned"] = [0]
    doc.pop("content_hash")
    doc["content_hash"] = __import__("hashlib").sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    with pytest.raises(CorruptDataError):
        specfile.parse_document(doc)


def rehashed(doc):
    doc.pop("content_hash", None)
    doc["content_hash"] = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return doc


@pytest.mark.parametrize("damage", [
    lambda doc: doc.pop("x_stars"),
    lambda doc: doc.pop("params"),
    lambda doc: doc["params"].pop("n"),
    lambda doc: doc["params"].update(k="5"),
    lambda doc: doc["params"].update(flavor="skew"),
    lambda doc: doc["field"].pop("kind"),
    lambda doc: doc["field"].update(m="4"),
    lambda doc: doc["field"].update(reduction_poly="0xzz"),
    lambda doc: doc.update(field=[]),
    lambda doc: doc["x_stars"][0].__setitem__(0, "zz"),
    lambda doc: doc["x_stars"][0].__setitem__(0, 7),
    lambda doc: doc["second_stars"].__setitem__(0, "1"),
    lambda doc: doc.update(shorten={"delta": 1}),
    lambda doc: doc.update(shorten=[1]),
    # JSON true is no int, though Python's bool is one
    lambda doc: doc["params"].update(n=True),
    lambda doc: doc["params"].update(k=True),
    lambda doc: doc["params"].update(d=True),
    lambda doc: doc["params"].update(t=True),
    lambda doc: doc.update(shorten={"delta": True, "pinned": [8]}),
    lambda doc: doc["field"].update(m=True),
])
def test_malformed_spec_rejected(fixture_family, damage):
    doc = specfile.family_document(fixture_family)
    damage(doc)
    with pytest.raises(CorruptDataError):
        specfile.parse_document(rehashed(doc))


def test_read_json_rejects_non_objects(tmp_path):
    path = tmp_path / "x.json"
    for content in (b"", b"{", b"[1, 2]", b"\xff\xfe"):
        path.write_bytes(content)
        with pytest.raises(CorruptDataError):
            specfile.read_json(path)
    with pytest.raises(CorruptDataError):
        specfile.parse_document([])

