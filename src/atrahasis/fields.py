"""Exact arithmetic in GF(2^m) and in GF(p) for small primes.

Elements are canonical integers: bit-packed polynomial coefficients for
binary extension fields (bit i = coefficient of z^i), plain residues for
prime fields.  A FieldSpec carries the defining data and the arithmetic
on those ints; there is no element type.  check_value is the one check
that a value is canonical, made where a value comes in from outside.

For m <= 8 a FieldSpec holds an inverse table and a q x q product table,
both from one O(q) log/antilog walk over the powers of the smallest
generator of GF(2^m)*.  Row a of the product table is one 256-byte
bytes object, a*b at byte b, built the first time it is read (a command
multiplies by few coefficients) as one bytes.translate of the log table
through a slice of the powers; mul indexes it and the row operations
translate through it, so each multiplier has one table.  Larger
binary fields multiply carry-less and invert by the extended Euclidean
algorithm over GF(2)[z].

Rows are packed for exact row reduction: a row of n entries is n
fixed-width slots of slot_bytes bytes each, big-endian, entry 0 first,
held as bytes (row_bytes) or as the Python int with those bytes
(int.from_bytes(..., "big")).  Slots are one byte for GF(2^m) with
m <= 8 and for GF(p) with p <= 127; four bytes for m = 9..16, room for
a carry-less product; for larger primes the narrowest of 2, 4 or 8
bytes with p <= 2^(8*slot_bytes - 1).  The two row operations,
sub_scaled_row (row - f*other) and scale_row (f*row), are the inner
loop of linalg.Echelon and work on whole rows: with byte slots f*other
is one bytes.translate through a 256-byte table (over GF(2^m) the
product row of f), and for m > 8 one carry-less multiply and reduction
of all slots at once; the difference is one XOR over GF(2^m) and, over
GF(p), one add plus a carry-free SWAR reduction of every slot mod p.  Only primes above 127
multiply entry by entry.  The tables are built on first use, one
multiplier at a time.

A FieldSpec is an immutable value and safe to share between threads.
"""

from __future__ import annotations

import struct

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

_MAX_TABLE_DEGREE = 8  # product and inverse tables up to GF(256)

# struct codes of the packed-row slot widths, in bytes
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    nb = b.bit_length()
    while (na := a.bit_length()) >= nb:
        a ^= b << (na - nb)
    return a


def _poly_inv(a: int, poly: int) -> int:
    """1/a in GF(2)[z]/(poly), for irreducible poly and nonzero reduced a:
    extended Euclid, keeping g*a = u and h*a = v (mod poly) while each
    step cancels the leading term of u with a shifted v (Hankerson,
    Menezes, Vanstone, "Guide to Elliptic Curve Cryptography", alg. 2.48)."""
    u, v, g, h = a, poly, 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g, h = v, u, h, g
            j = -j
        u ^= v << j
        g ^= h << j
    return g


def poly_is_irreducible(p: int) -> bool:
    """Ben-Or's test: p of degree m >= 1 over GF(2) is irreducible iff
    gcd(z^(2^i) - z mod p, p) = 1 for every i <= m/2, since z^(2^i) - z
    is the product of the irreducibles of degree dividing i (Ben-Or,
    "Probabilistic algorithms in finite fields", FOCS 1981).  The powers
    z^(2^i) mod p come by repeated squaring."""
    m = _poly_degree(p)
    if m < 1:
        return False
    power = 2  # z^(2^i) mod p, from i = 0
    for _ in range(m // 2):
        power = _clmul(power, power, p)
        a, b = p, power ^ 2
        while b:
            a, b = b, _poly_mod(a, b)
        if a != 1:
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

    __slots__ = ("kind", "m", "reduction_poly", "p", "order", "slot_bytes",
                 "_mul_table", "_mul_row", "_inv_table", "sub_scaled_row", "scale_row")

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
            self.slot_bytes = 1 if m <= 8 else 4
        elif kind == PRIME:
            if p is not None and p > 1 << 63:
                raise UsageError(f"prime fields are limited to p <= 2^63, got {p}")
            if p is None or not is_prime(p):
                raise UsageError(f"{p} is not prime")
            self.kind = PRIME
            self.m = None
            self.reduction_poly = None
            self.p = p
            self.order = p
            # the narrowest slot with p <= 2^(w-1), so that the sum of two
            # entries reduces without carries (see _row_operations)
            self.slot_bytes = next(k for k in _SLOT_CODES if p <= 1 << (8 * k - 1))
        else:
            raise UsageError(f"unknown field kind {kind!r}")
        self._mul_table = self._mul_row = self._inv_table = None
        if self.kind == BINARY and self.m <= _MAX_TABLE_DEGREE:
            self._build_tables()
        self.sub_scaled_row, self.scale_row = _row_operations(self)

    def _build_tables(self) -> None:
        # z need not be primitive (0x11B gives it order 51), so walk the
        # powers of g = 1, 2, ... until one reaches all q-1 nonzero
        # elements; then a*b = exp[log a + log b] and 1/a = exp[-log a].
        # The inverse table is built whole, the product rows on first use:
        # logs[b] = q-1 for b = 0 and b >= q reads the padding past the powers.
        q, poly = self.order, self.reduction_poly
        n = q - 1
        for g in range(1, q):
            exp = [1]
            while (x := _clmul(exp[-1], g, poly)) != 1:
                exp.append(x)
            if len(exp) == n:
                break
        logs = bytearray([n]) * 256
        for i, x in enumerate(exp):
            logs[x] = i
        logs, exp2 = bytes(logs), bytes(exp) * 2
        self._mul_table, self._mul_row = _product_rows(
            lambda a: logs.translate(exp2[logs[a]:logs[a] + n].ljust(256, b"\0")))
        self._mul_table[0] = bytes(256)
        self._inv_table = [0] + [exp[-logs[a] % n] for a in range(1, q)]

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
            try:
                return self._mul_table[a][b]
            except KeyError:
                return self._mul_row(a)[b]
        if self.kind == BINARY:
            return _clmul(a, b, self.reduction_poly)
        return (a * b) % self.p

    # -- packed rows, the representation of linalg.Echelon --

    def row_bytes(self, values) -> bytes:
        """The packed form of a row: one big-endian slot of slot_bytes
        bytes per entry, in column order."""
        return _pack(values, self.slot_bytes)

    def row_values(self, row: bytes) -> list[int]:
        """The entries of a packed row."""
        return _unpack(row, self.slot_bytes)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        if self.kind == PRIME:
            return pow(a, self.p - 2, self.p)
        return _poly_inv(a, self.reduction_poly)

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


def _product_rows(row):
    """The rows of a product table over byte slots, as {a: the 256-byte
    bytes.translate table of b -> a*b, zero past the field's order} (of
    b -> -a*b for GF(p) in _row_operations), and build(a), which stores
    row(a) as row a.  A reader builds a row on a KeyError: an exact dict
    is the fastest lookup, and the row operations make one per step."""
    rows = {}
    return rows, lambda a: rows.setdefault(a, row(a))


def _clmul(a: int, b: int, poly: int) -> int:
    """a*b in GF(2)[z] / (poly): carry-less multiply, then reduce."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return _poly_mod(acc, poly)


def _pack(values, k: int) -> bytes:
    if k == 1:
        return bytes(values)
    return struct.pack(f">{len(values)}{_SLOT_CODES[k]}", *values)


def _unpack(row: bytes, k: int) -> list[int]:
    if k == 1:
        return list(row)
    return list(struct.unpack(f">{len(row) // k}{_SLOT_CODES[k]}", row))


def _row_operations(spec: FieldSpec):
    """The two packed-row operations of spec, as closures over its data
    (not over spec itself, which stays free of reference cycles):

        sub_scaled_row(row: int, f, other: bytes) -> int   row - f*other
        scale_row(f, row: bytes) -> bytes                  f*row

    Both go through minus_times(f, row) = -f*row.  With byte slots that
    is one bytes.translate through f's 256-byte table: over GF(2^m),
    where -f = f, row f of the field's own product table, and over GF(p)
    a table of -f*b, built on first use.  For m > 8 it is a carry-less
    multiply of all slots at once: the 32-bit slots hold the products
    (at most 2m-1 bits) without spilling, and since z^m = poly - z^m,
    each fold of the bits >= m back into the low m bits lowers their
    degree until every slot is reduced.  Primes
    above 127 multiply entry by entry.  Over GF(2^m) the difference is
    one XOR of the whole rows.  Over GF(p) the w-bit slots of
    row + (-f*other) hold at most 2p-2 < 2^w, since p <= 2^(w-1); adding
    2^(w-1) - p to every slot sets the top bit of exactly the slots >= p,
    and p is subtracted from those.  No step carries from one slot into
    the next.
    """
    k, q, p = spec.slot_bytes, spec.order, spec.p
    from_bytes = int.from_bytes
    masks = {}  # row bytes -> the per-slot masks of that row length

    def repeated(value: int, nbytes: int) -> int:
        # value in every slot of an nbytes-byte row
        return value * from_bytes((bytes(k - 1) + b"\1") * (nbytes // k), "big")

    if k == 1:
        tables, build = ((spec._mul_table, spec._mul_row) if spec.kind == BINARY
                         else _product_rows(lambda f: bytes([-f * b % q for b in range(q)])
                                            .ljust(256, b"\0")))

        def minus_times(f: int, row: bytes) -> bytes:
            try:
                return row.translate(tables[f])
            except KeyError:
                return row.translate(build(f))
    elif spec.kind == BINARY:
        m = spec.m
        folds = [s for s in range(m) if spec.reduction_poly >> s & 1]

        def minus_times(f: int, row: bytes) -> bytes:
            n = len(row)
            if n not in masks:
                masks[n] = (repeated((1 << m) - 1, n), repeated((1 << (m - 1)) - 1, n))
            low, high = masks[n]
            x, acc = from_bytes(row, "big"), 0
            while f:
                bit = f & -f
                acc ^= x * bit
                f ^= bit
            while hi := acc >> m & high:
                acc &= low
                for s in folds:
                    acc ^= hi << s
            return acc.to_bytes(n, "big")
    else:
        def minus_times(f: int, row: bytes) -> bytes:
            return _pack([-f * b % p for b in _unpack(row, k)], k)

    if spec.kind == BINARY:
        if k == 1:
            def sub_scaled_row(row: int, f: int, other: bytes) -> int:
                # minus_times inlined: this is the hottest call of Echelon
                try:
                    table = tables[f]
                except KeyError:
                    table = build(f)
                return row ^ from_bytes(other.translate(table), "big")
        else:
            def sub_scaled_row(row: int, f: int, other: bytes) -> int:
                return row ^ from_bytes(minus_times(f, other), "big")
        return sub_scaled_row, minus_times

    top = 8 * k - 1

    def sub_scaled_row(row: int, f: int, other: bytes) -> int:
        s = row + from_bytes(minus_times(f, other), "big")
        n = len(other)
        if n not in masks:
            masks[n] = (repeated((1 << top) - p, n), repeated(1 << top, n))
        adjust, high = masks[n]
        return s - (((s + adjust) & high) >> top) * p

    def scale_row(f: int, row: bytes) -> bytes:
        return minus_times(-f % p, row)

    return sub_scaled_row, scale_row


def binary_field(m: int, reduction_poly: int | None = None) -> FieldSpec:
    return FieldSpec(BINARY, m=m, reduction_poly=reduction_poly)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(PRIME, p=p)

