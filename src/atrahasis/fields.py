"""Exact arithmetic in GF(2^m) and in GF(p) for small primes.

Elements are canonical integers: bit-packed polynomial coefficients for
binary extension fields (bit i = coefficient of z^i), plain residues for
prime fields.  FieldSpec carries the defining data plus int-level
arithmetic; FieldElement is a thin immutable wrapper with operators.

For m <= 8 a FieldSpec holds q x q multiplication and inverse tables,
built in O(q) from a log/antilog walk over the powers of the smallest
generator of GF(2^m)*; larger binary fields multiply carry-less.
Two row operations, row - f*other and f*row, bind the table row of f
(or the prime modulus) once per row: they are the inner loop of all
exact row reduction.

Both types are immutable values and safe to share between threads.
"""

from __future__ import annotations

from .errors import UsageError

BINARY = "binary-extension"
PRIME = "prime"

# Smallest irreducible polynomial of each degree, by integer value.
# Degree 4 is z^4 + z + 1, the usual realization of GF(16).
DEFAULT_REDUCTION_POLY = {
    1: 0x2,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
}

_MAX_TABLE_DEGREE = 8  # full multiplication table up to GF(256)


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    db = _poly_degree(b)
    while a and _poly_degree(a) >= db:
        a ^= b << (_poly_degree(a) - db)
    return a


def poly_is_irreducible(p: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..deg/2."""
    m = _poly_degree(p)
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(p, q) == 0:
                return False
    return True


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class FieldSpec:
    """Defining data of the working field plus int-level arithmetic.

    kind is BINARY (GF(2^m), reduction_poly required) or PRIME (GF(p)).
    Construction verifies irreducibility / primality eagerly so a bad
    config file fails fast.
    """

    __slots__ = ("kind", "m", "reduction_poly", "p", "order",
                 "_mul_table", "_inv_table")

    def __init__(self, kind: str, m: int | None = None,
                 reduction_poly: int | None = None, p: int | None = None):
        if kind == BINARY:
            if m is None or m < 1 or m > 16:
                raise UsageError(f"extension degree must be in 1..16, got {m}")
            if reduction_poly is None:
                reduction_poly = DEFAULT_REDUCTION_POLY[m]
            if _poly_degree(reduction_poly) != m:
                raise UsageError(
                    f"reduction polynomial {reduction_poly:#x} does not have degree {m}")
            if not poly_is_irreducible(reduction_poly):
                raise UsageError(
                    f"reduction polynomial {reduction_poly:#x} is reducible over GF(2)")
            self.kind = BINARY
            self.m = m
            self.reduction_poly = reduction_poly
            self.p = None
            self.order = 1 << m
        elif kind == PRIME:
            if p is None or not is_prime(p):
                raise UsageError(f"{p} is not prime")
            self.kind = PRIME
            self.m = None
            self.reduction_poly = None
            self.p = p
            self.order = p
        else:
            raise UsageError(f"unknown field kind {kind!r}")
        self._mul_table = None
        self._inv_table = None
        if self.kind == BINARY and self.m <= _MAX_TABLE_DEGREE:
            self._build_tables()

    def _build_tables(self) -> None:
        # z need not be primitive (0x11B gives it order 51), so walk the
        # powers of g = 1, 2, ... until one reaches all q-1 nonzero
        # elements; then a*b = exp[log a + log b] and 1/a = exp[-log a].
        q = self.order
        n = q - 1
        for g in range(1, q):
            exp = [1]
            while (x := self._clmul(exp[-1], g)) != 1:
                exp.append(x)
            if len(exp) == n:
                break
        log = {x: i for i, x in enumerate(exp)}
        logs = [log[a] for a in range(1, q)]
        exp2 = exp + exp
        self._mul_table = [[0] * q] + [
            [0, *map(exp2[la:la + n].__getitem__, logs)] for la in logs]
        self._inv_table = [0] + [exp[-la % n] for la in logs]

    def _clmul(self, a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            b >>= 1
        return _poly_mod(acc, self.reduction_poly)

    # -- int-level arithmetic (values assumed reduced) --

    def add(self, a: int, b: int) -> int:
        if self.kind == BINARY:
            return a ^ b
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        if self.kind == BINARY:
            return a ^ b
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        if self.kind == BINARY:
            return a
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        if self.kind == BINARY:
            return self._clmul(a, b)
        return (a * b) % self.p

    # -- row operations, the inner loop of linalg.Echelon --

    def sub_scaled_row(self, row: list[int], f: int, other: list[int]) -> list[int]:
        """row - f*other, entry by entry."""
        if self._mul_table is not None:
            mf = self._mul_table[f]
            return [a ^ mf[b] for a, b in zip(row, other)]
        if self.kind == PRIME:
            p = self.p
            return [(a - f * b) % p for a, b in zip(row, other)]
        clmul = self._clmul
        return [a ^ clmul(f, b) if b else a for a, b in zip(row, other)]

    def scale_row(self, f: int, row: list[int]) -> list[int]:
        """f*row, entry by entry."""
        if self._mul_table is not None:
            mf = self._mul_table[f]
            return [mf[b] for b in row]
        if self.kind == PRIME:
            p = self.p
            return [f * b % p for b in row]
        clmul = self._clmul
        return [clmul(f, b) if b else 0 for b in row]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        if self.kind == PRIME:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        """a^e with the empty-product convention pow(0, 0) = 1."""
        if e < 0:
            a = self.inv(a)
            e = -e
        if e == 0:
            return 1
        if a == 0:
            return 0
        e %= self.order - 1
        if e == 0:
            return 1
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def element(self, value: int) -> FieldElement:
        return FieldElement(self, value)

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def elements(self) -> list[FieldElement]:
        """All field elements: 0 first, then nonzero in increasing value."""
        return [FieldElement(self, v) for v in range(self.order)]

    def check_value(self, value: int) -> int:
        if not isinstance(value, int) or not 0 <= value < self.order:
            raise UsageError(f"{value!r} is not a canonical element of {self}")
        return value

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m,
            "reduction_poly": None if self.reduction_poly is None
            else format(self.reduction_poly, "x"),
            "p": self.p,
        }

    @classmethod
    def from_dict(cls, d: dict) -> FieldSpec:
        poly = d.get("reduction_poly")
        if isinstance(poly, str):
            poly = int(poly, 16)
        return cls(d["kind"], m=d.get("m"), reduction_poly=poly, p=d.get("p"))

    def _key(self):
        return (self.kind, self.m, self.reduction_poly, self.p)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.kind == BINARY:
            return f"GF(2^{self.m}; {self.reduction_poly:#x})"
        return f"GF({self.p})"


def binary_field(m: int, reduction_poly: int | None = None) -> FieldSpec:
    return FieldSpec(BINARY, m=m, reduction_poly=reduction_poly)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(PRIME, p=p)


class FieldElement:
    """An element of a FieldSpec, held as its canonical integer."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value: int):
        self.spec = spec
        self.value = spec.check_value(value)

    def _coerce(self, other) -> int:
        if not isinstance(other, FieldElement):
            raise UsageError(f"cannot combine field element with {other!r}")
        if other.spec != self.spec:
            raise UsageError(f"field mismatch: {self.spec} vs {other.spec}")
        return other.value

    def __add__(self, other):
        return FieldElement(self.spec, self.spec.add(self.value, self._coerce(other)))

    def __sub__(self, other):
        return FieldElement(self.spec, self.spec.sub(self.value, self._coerce(other)))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.value))

    def __mul__(self, other):
        return FieldElement(self.spec, self.spec.mul(self.value, self._coerce(other)))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow(self.value, e))

    def inverse(self) -> FieldElement:
        return FieldElement(self.spec, self.spec.inv(self.value))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and other.spec == self.spec and other.value == self.value)

    def __hash__(self):
        return hash((self.spec, self.value))

    def __repr__(self):
        return f"{self.value}@{self.spec}"

