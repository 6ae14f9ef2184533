"""The code-spec file format.

The code-spec file is versioned JSON carrying the field, the parameters,
the star vectors as hex element lists, and a content hash over the
canonical serialization.  The first 8 bytes of that same SHA-256 are the
params hash, which cluster writes into every node blob header to tie the
blob to the code instance it belongs to, so a mismatched or corrupted
artifact is always detected.
"""

from __future__ import annotations

import hashlib
import json
import re

from .code import EXTERIOR, SYMMETRIC, StarFamily, derive_params
from .errors import CorruptDataError
from .fields import FieldSpec
from .transforms import ShortenedCode

SPEC_FORMAT = "atrahasis-code-spec"
SPEC_VERSION = 1

_HEX = re.compile(r"[0-9a-fA-F]+")


def _canonical_payload(doc: dict) -> bytes:
    body = {k: v for k, v in doc.items() if k != "content_hash"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _star_hex(vectors: list[list[int]]) -> list[list[str]]:
    return [[format(v, "x") for v in vec] for vec in vectors]


def _star_unhex(doc: dict, key: str) -> list[list[int]]:
    """The star vectors under key; StarFamily checks their entries."""
    rows = _entry(doc, key, list)
    for row in rows:
        if not (isinstance(row, list)
                and all(isinstance(h, str) and _HEX.fullmatch(h) for h in row)):
            raise CorruptDataError(f"code-spec {key!r} holds a non-hex element row")
    return [[int(h, 16) for h in row] for row in rows]


def _entry(stanza: dict, key: str, kind):
    """stanza[key], which must be present and of type `kind` exactly, so
    that a JSON boolean is no int."""
    value = stanza.get(key)
    if type(value) is not kind:
        raise CorruptDataError(f"code-spec entry {key!r} is missing or malformed")
    return value


def _field_spec(doc: dict) -> FieldSpec:
    field = _entry(doc, "field", dict)
    poly = field.get("reduction_poly")
    if not (isinstance(field.get("kind"), str)
            and all(type(field.get(key)) in (int, type(None)) for key in ("m", "p"))
            and (poly is None or isinstance(poly, str) and _HEX.fullmatch(poly))):
        raise CorruptDataError("code-spec field stanza is malformed")
    return FieldSpec.from_dict(field)


def family_document(family: StarFamily, shorten_depth: int = 0) -> dict:
    """The code-spec JSON document for a star family."""
    p = family.params
    doc = {
        "format": SPEC_FORMAT,
        "version": SPEC_VERSION,
        "field": family.spec.to_dict(),
        "params": {"n": p.n, "k": p.k, "d": p.d, "t": p.t, "flavor": p.flavor},
        "x_stars": _star_hex(family.x_stars),
        "second_stars": _star_hex(family.second_stars),
    }
    if shorten_depth:
        doc["shorten"] = {
            "delta": shorten_depth,
            "pinned": list(range(p.n - shorten_depth, p.n)),
        }
    doc["content_hash"] = hashlib.sha256(_canonical_payload(doc)).hexdigest()
    return doc


def parse_document(doc: dict) -> tuple[ShortenedCode, bytes]:
    """Validate a code-spec document; returns (code, params_hash), where a
    plain spec is the shortening of depth 0."""
    if not isinstance(doc, dict):
        raise CorruptDataError("a code-spec document must be a JSON object")
    if doc.get("format") != SPEC_FORMAT:
        raise CorruptDataError(f"not a code-spec file (format={doc.get('format')!r})")
    if doc.get("version") != SPEC_VERSION:
        raise CorruptDataError(f"unsupported code-spec version {doc.get('version')!r}")
    digest = hashlib.sha256(_canonical_payload(doc))
    if doc.get("content_hash") != digest.hexdigest():
        raise CorruptDataError("code-spec content hash mismatch")
    spec = _field_spec(doc)
    pr = _entry(doc, "params", dict)
    n, k, d, t = (_entry(pr, key, int) for key in "nkdt")
    if pr.get("flavor") not in (SYMMETRIC, EXTERIOR):
        raise CorruptDataError(f"unknown code-spec flavor {pr.get('flavor')!r}")
    params = derive_params(n, k, d, pr["flavor"])
    if t != params.t:
        raise CorruptDataError("code-spec t disagrees with (n, k, d)")
    family = StarFamily(spec, params, _star_unhex(doc, "x_stars"),
                        _star_unhex(doc, "second_stars"))
    stanza, depth = None, 0
    if doc.get("shorten"):
        stanza = _entry(doc, "shorten", dict)
        depth = _entry(stanza, "delta", int)
    code = ShortenedCode(family, depth)
    if stanza is not None and list(code.pinned) != _entry(stanza, "pinned", list):
        raise CorruptDataError("shorten stanza pins unexpected nodes")
    return code, digest.digest()[:8]


def write_spec_file(path, family: StarFamily, shorten_depth: int = 0) -> dict:
    doc = family_document(family, shorten_depth)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def read_json(path) -> dict:
    """The JSON object stored at path; CorruptDataError if it holds none."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptDataError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CorruptDataError(f"{path} does not hold a JSON object")
    return doc


def read_spec_file(path):
    return parse_document(read_json(path))
