"""Digests of the scalar path's matrices and determinants.

Each pin is the sha256 of the JSON of plain int rows (or ints), so a
change of the algebra's value representation must reproduce every entry
bit for bit.  `_plain` and `_det_invert` below are the only code that
knows how the library takes and hands out values, and
`_shortened_matrix` the only code that knows where a shortening's store
matrices come from.
"""

import hashlib
import json
import random

import pytest

from atrahasis.code import download_matrix, help_matrix, repair_matrix
from atrahasis.fields import binary_field, prime_field
from atrahasis.fixtures import atrahasis_956
from atrahasis.linalg import SpanSolver, det
from atrahasis.search import sweep_small_cases
from atrahasis.transforms import STRATEGIES, central_repair_program, shorten
from conftest import put_rows


def _plain(value):
    """A library matrix as int rows; a field scalar as an int."""
    return value


def _det_invert(spec, rows):
    """(det, inverse rows or None) of a square matrix given as int rows:
    the unit rows restated over the matrix's rows, None below full rank."""
    n = len(rows)
    solver = SpanSolver(spec, rows, n)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    return det(spec, rows), solver.coefficient_rows(units) if solver.rank == n else None


def _shortened_matrix(code, name: str, *nodes):
    """A store matrix of a shortened code, as int rows: "put", "decode"
    (the given live nodes) or "repair" (failed node, then live helpers)."""
    if name == "put":
        return put_rows(code, range(code.n))
    if name == "decode":
        return code.decode_matrix(list(nodes))
    f, *helpers = nodes
    return code.repair_matrix(f, helpers)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def fixture():
    return atrahasis_956()


# sha256 of the JSON of each matrix's int rows, on the fixture
PINNED_MATRICES = {
    "download 0-4": "a8defe159f37a2119b0df300c3ff4d4c65358c1a451b5b5622185b8cb2c97d9e",
    "download 4-8": "985148b7224750d86d1d465a6b7e044a8a1be2107c4bbcc3021db8a0371f0894",
    "help 0->5": "1049ba14b696822df641371882fbfb0bd6a635bfb3dc57cf4d08d67765e186ed",
    "repair 0 from 1-6": "0f28e64e750731c9c5e92d15d0d844460c036f78fd1a850a8ffef9951b77014b",
}


def test_code_matrices_pinned(fixture):
    got = {
        "download 0-4": _digest(_plain(download_matrix(fixture, [0, 1, 2, 3, 4]))),
        "download 4-8": _digest(_plain(download_matrix(fixture, [4, 5, 6, 7, 8]))),
        "help 0->5": _digest(_plain(help_matrix(fixture, 0, 5))),
        "repair 0 from 1-6": _digest(_plain(repair_matrix(fixture, 0, [1, 2, 3, 4, 5, 6]))),
    }
    assert got == PINNED_MATRICES


# depth -> sha256 of [free_cols, sorted (column, encoder row) pairs of the
# constrained columns] of the fixture
PINNED_SHORTENINGS = {
    1: "e4960f6f0193a156bba98a32531bd03996fac254dfd5e7a738ceb1e46f7b0da8",
    2: "a3f2c1c800b471c4ca481f1fcbcbed6e2f2852afc829199e5fc8dc1073b23593",
}


@pytest.mark.parametrize("depth", sorted(PINNED_SHORTENINGS))
def test_shortening_parameterization_pinned(fixture, depth):
    code = shorten(fixture, depth)
    constrained = [(c, row) for c, row in enumerate(code.encoder) if c not in code.free_cols]
    got = _digest([code.free_cols, constrained])
    assert got == PINNED_SHORTENINGS[depth]


# sha256 of the JSON of each store matrix of the fixture shortened by 1
PINNED_SHORTENED_MATRICES = {
    ("put",): "3db9691d5f284598f3f5306fb5d8ff37a2b99b1496874831ccc73e926a3a1495",
    ("decode", 0, 1, 2, 3): "8583bf178beb3658a7d686a282bb2cf55217ff51affdc3ad8ba959794108f108",
    ("decode", 4, 5, 6, 7): "9b832b6f65074a2f81322f82444885cfe4761662aa7665a94ab22036ed9e8404",
    ("repair", 2, 0, 1, 3, 4, 5): "cf054a5fa12dcfbe782e845106092787ce8fc355bf4ea6ca70ccf6c4e3ef847a",
}


@pytest.mark.parametrize("key", sorted(PINNED_SHORTENED_MATRICES),
                         ids=lambda key: "-".join(map(str, key)))
def test_shortened_store_matrices_pinned(fixture, key):
    got = _digest(_plain(_shortened_matrix(shorten(fixture, 1), *key)))
    assert got == PINNED_SHORTENED_MATRICES[key]


# strategy -> sha256 of [send matrices, recover_first, recover_second] for
# the fixture's failed pair (0, 1) with helpers 2..7; the cascade program,
# whose second recovery is composed with the first, is pinned through
# repair_program below
PINNED_PAIR_PROGRAMS = {
    "naive": "6cfcc5f2f3a20eda1917e5e39bdb168c20260f1596cc567bf8ec5a5ba39eb7bd",
    "subspace": "ecc285d7b77c832b4ee99dbf467b268c6f449bc7d6431e7f52d3be86ba2fdb2a",
}


@pytest.mark.parametrize("strategy", sorted(PINNED_PAIR_PROGRAMS))
def test_pair_repair_program_pinned(fixture, strategy):
    program = central_repair_program(fixture, 0, 1, [2, 3, 4, 5, 6, 7], strategy)
    got = _digest([[_plain(S) for S in program.send_matrices],
                   _plain(program.recover_first), _plain(program.recover_second)])
    assert got == PINNED_PAIR_PROGRAMS[strategy]


# (depth, failed nodes, strategy) -> sha256 of the JSON of repair_program's
# (sends, recover) on the fixture shortened by depth, with the first d
# live nodes that did not fail as helpers
PINNED_REPAIR_PROGRAMS = {
    (0, (0,), "subspace"): "52887e4177b1cb90d37d0ada0671f8036bd55e3898fa9ca6d6aaa7a4d9386b7c",
    (0, (0, 1), "cascade"): "8d0a09530e2395fee03853949c116d5b4e301a5d5af9535e84440a7db943b54b",
    (0, (0, 1), "naive"): "01f04107372ff72b74c4bd25a6941ac5e5a09984e28a53b89d9c3b071d97b63c",
    (0, (0, 1), "subspace"): "1c5f4d4152a037e385e6afff9ffe8dd932f7f490c59c7ad79767df93038373e9",
    (0, (2, 6), "cascade"): "b40e444039e5904f317c682f121a799a55639d8721afb1a9f9c777bd8c018e7a",
    (0, (2, 6), "naive"): "c5d39c45648cfbb3240fc5cda5cb59538677b556c192ae04903f1cd938326759",
    (0, (2, 6), "subspace"): "dd2b256426cc394213709850b20c1bcf4326696077bfc8ec754c81d6913423fe",
    (1, (0,), "subspace"): "d9bb331be1dce8183c4e067c4edf4d4972e2d3c40cc34ed0b028766c9e3ade92",
    (1, (0, 1), "cascade"): "f2aa219abffbfa7c2bfa77b3c44eeb7ba9166675d82dfa6e5fa109a554e0bc87",
    (1, (0, 1), "naive"): "ed4cc6a14ebdb6883595c8d30a547e1dc610b67fd187b6f69f6c19610723e87e",
    (1, (0, 1), "subspace"): "3eef3555da10c9a6cf899a04e9ef4456a61f0c5241f35b08e19419ff454fcb7f",
    (1, (2, 6), "cascade"): "c1b49dc2d6fa9297dbd867730c1cb86df01b26a2075f6400fae13678d188697a",
    (1, (2, 6), "naive"): "d2f9fb7467eeee36265029fdee85261ecb46d9c36e9d7208327cab2b34a69a6c",
    (1, (2, 6), "subspace"): "76555884a8b7eab96dffd506387fabd1469671ff8126eab4fa3a574bce177db1",
}


@pytest.mark.parametrize("key", sorted(PINNED_REPAIR_PROGRAMS),
                         ids=lambda key: f"{key[0]}-{'-'.join(map(str, key[1]))}-{key[2]}")
def test_repair_program_pinned(fixture, key):
    depth, failed, strategy = key
    code = shorten(fixture, depth)
    helpers = [h for h in range(code.n) if h not in failed][:code.d]
    sends, recover = code.repair_program(list(failed), helpers, strategy)
    got = _digest([[h, _plain(S)] for h, S in sends] + [_plain(R) for R in recover])
    assert got == PINNED_REPAIR_PROGRAMS[key]


def test_sweep_points_and_determinants_pinned():
    reports = sweep_small_cases(30, prime_field(127))
    got = _digest([[r.x_points, r.y_points, r.determinant] for r in reports])
    assert got == "aeb78808fc9217236c4f6a2bf613f0d27677a37ce33f3691790fe586c5e6219a"


# field -> (sha256 of every (det, inverse), the determinants) of seeded
# square matrices of sizes 1, 2, 3, 5 and 8, and one singular 4 x 4
PINNED_DET_INVERT = {
    "gf16": ("371f807bb04c08ac9275d4a00710b964177e9ae5551e2f658aab46fd51e3fd7b",
             [1, 6, 5, 13, 1, 0]),
    "gf4096": ("9d6b863853bba5e3435ce93bc244d3b2060c615b67e18856df7d8de4ae12ea7e",
               [2766, 49, 3191, 1523, 3221, 0]),
    "gf65521": ("a6fec7781a5d1b151d5cb24214e2a9831499b5a01200ce9e7065bc81388ac2df",
                [50593, 5447, 3325, 56873, 21029, 0]),
}
FIELDS = {"gf16": lambda: binary_field(4), "gf4096": lambda: binary_field(12),
          "gf65521": lambda: prime_field(65521)}


@pytest.mark.parametrize("name", sorted(PINNED_DET_INVERT))
def test_det_and_invert_pinned(name):
    spec = FIELDS[name]()
    rng = random.Random(name)
    values = []
    for n in (1, 2, 3, 5, 8):
        rows = [[rng.randrange(spec.order) for _ in range(n)] for _ in range(n)]
        values.append(_det_invert(spec, rows))
    rows = [[rng.randrange(spec.order) for _ in range(4)] for _ in range(3)]
    values.append(_det_invert(spec, rows + [rows[0]]))
    assert (_digest(values), [d for d, _ in values]) == PINNED_DET_INVERT[name]
