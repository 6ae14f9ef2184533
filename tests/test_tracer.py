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
    # names bound with `from .linalg import ...` are restored too
    from atrahasis import code, linalg, search
    assert code.rank_of_rows is linalg.rank_of_rows
    assert search.det is linalg.det
