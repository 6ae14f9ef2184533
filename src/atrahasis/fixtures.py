"""Shipped ready-to-use code instances.

The flagship is a (9, 5, 6, 6) code over GF(16) realized by
z^4 + z + 1: nine evaluation points (zero plus eight powers of z),
x vectors following the exponent pattern [0, 2, 6] and y vectors
[0, 1, 3].  The family passes the exhaustive axiom check; tests pin
that down.
"""

from __future__ import annotations

from .code import SYMMETRIC, StarFamily, derive_params, pattern_family
from .errors import UsageError
from .fields import binary_field

# exponents of z for the nine evaluation points; None is the zero element
ATRAHASIS_956_POINT_EXPONENTS = (None, 3, 6, -3, -6, -1, -2, -4, -8)
ATRAHASIS_956_X_PATTERN = (0, 2, 6)
ATRAHASIS_956_Y_PATTERN = (0, 1, 3)


def atrahasis_956() -> StarFamily:
    """The (9, 5, 6, 6) code over GF(16) with z^4 + z + 1."""
    spec = binary_field(4)
    z = 2
    group_order = spec.order - 1
    points = [0 if e is None else spec.pow(z, e % group_order)
              for e in ATRAHASIS_956_POINT_EXPONENTS]
    params = derive_params(9, 5, 6, SYMMETRIC)
    return pattern_family(spec, params, points,
                          ATRAHASIS_956_X_PATTERN, ATRAHASIS_956_Y_PATTERN)


FIXTURES = {
    "atrahasis-956": atrahasis_956,
}


def load_fixture(name: str) -> StarFamily:
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise UsageError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}")
    return builder()
