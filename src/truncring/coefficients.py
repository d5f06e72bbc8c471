"""Exact arithmetic for the two coefficient systems.

``FieldCtx`` implements the finite field F_q with q = p^e.  An element is
a plain int in [0, q) whose base-p digits are its coordinates in the basis
1, t, ..., t^{e-1} of F_q over F_p; for prime fields the int is simply the
residue.  ``ZpNCtx`` implements Z/p^N together with the p-power valuation
``nu1`` on nonzero elements.

Contexts are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import functools

from .errors import DivisionByZero, NotAUnit, UndefinedValuation

# Lookup tables are built for fields up to this size.
_TABLE_LIMIT = 256


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q = p^e with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, e


def _poly_rem(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den, coefficients mod p.

    Polynomials are coefficient lists indexed by degree.
    """
    num = [c % p for c in num]
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return [c % p for c in num[:d]]


def _monic_polys(p: int, deg: int):
    """All monic polynomials of the given degree over F_p, as tuples."""
    for value in range(p**deg):
        tail = []
        v = value
        for _ in range(deg):
            tail.append(v % p)
            v //= p
        yield tuple(tail) + (1,)


def is_irreducible(p: int, poly: tuple[int, ...]) -> bool:
    """Trial division by every monic polynomial of degree <= deg(poly)/2."""
    deg = len(poly) - 1
    if deg < 1 or poly[-1] % p != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(p, d):
            if not any(_poly_rem(list(poly), div, p)):
                return False
    return True


def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """The first irreducible monic polynomial of degree e over F_p, in
    _monic_polys order: by the value of the non-leading coefficient vector
    read as a base-p integer, so the choice is deterministic."""
    return next(cand for cand in _monic_polys(p, e) if is_irreducible(p, cand))


class _OnDemand:
    """A lookup table past _TABLE_LIMIT, where building its entries would
    cost more than a scan reads: T[a] is f(a), computed when read.  A table
    of two arguments is the one whose rows are T[a] = _OnDemand(f(a, .)),
    so the kernels index both kinds alike."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __getitem__(self, a):
        return self.f(a)


def _rows_on_demand(f) -> _OnDemand:
    return _OnDemand(lambda a: _OnDemand(functools.partial(f, a)))


class FieldCtx:
    """The finite field F_q, q = p^e, elements packed as ints in [0, q).

    ``tables`` holds the lookups the arithmetic reads: (add, neg, mul, inv)
    with add[a][b] = a + b, neg[a] = -a, mul[a][b] = a b and inv[a] = 1/a
    (inv[0] = 0).  Up to q = _TABLE_LIMIT they are lists built once here;
    past it they are _OnDemand stand-ins that compute each entry when read.
    Ring and echelon kernels bind them as locals, one subscript per
    coefficient operation; the methods below read the same lookups.
    """

    __slots__ = ("p", "e", "q", "modulus", "tables")

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
        else:
            mod = tuple(int(c) % p for c in modulus) if modulus is not None else default_modulus(p, e)
            if len(mod) != e + 1 or mod[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {e}")
            if not is_irreducible(p, mod):
                raise ValueError("modulus is reducible")
            self.modulus = mod
        if self.q <= _TABLE_LIMIT:
            self.tables = self._build_tables()
        else:
            self.tables = (
                _rows_on_demand(self._add_raw),
                _OnDemand(self._neg_raw),
                _rows_on_demand(self._mul_raw),
                _OnDemand(self._inv_raw),
            )

    def _build_tables(self) -> tuple:
        p, q = self.p, self.q
        # Addition is digit-wise mod p.  Writing a = p a' + a0, b = p b' + b0,
        # a + b = (a0 + b0) % p + p (a' + b'), and a' < a, so row a reads row
        # a' of the table built so far, and so does neg.
        digit_sums = [[(a0 + b0) % p for b0 in range(p)] for a0 in range(p)]
        add = [list(range(q))]
        for a in range(1, q):
            sums = digit_sums[a % p]
            add.append([s + p * t for t in add[a // p][: q // p] for s in sums])
        neg = [0] * q
        for a in range(1, q):
            neg[a] = -a % p + p * neg[a // p]
        # discrete logs: the powers of the first generator g of F_q^x
        for g in range(1, q):
            exp = [1]
            while (x := self._mul_raw(exp[-1], g)) != 1:
                exp.append(x)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        exp2 = exp * 2  # log a + log b < 2(q - 1), so no reduction
        logs = log[1:]
        mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        inv = [0] + [exp[-la] for la in logs]
        return add, neg, mul, inv

    # -- packing helpers -------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coordinates of a in the basis 1, t, ..., t^{e-1}."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.e:
            raise ValueError(f"too many coordinates for F_{self.q}")
        out = 0
        for c in reversed(cs):
            out = out * self.p + (int(c) % self.p)
        return out

    # -- the entries, computed -------------------------------------------

    def _add_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.from_coeffs(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def _neg_raw(self, a: int) -> int:
        return self.from_coeffs(-c for c in self.coeffs(a))

    def _mul_raw(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a * b) % p
        av = self.coeffs(a)
        bv = self.coeffs(b)
        prod = [0] * (2 * self.e - 1)
        for i, ai in enumerate(av):
            if ai:
                for j, bj in enumerate(bv):
                    if bj:
                        prod[i + j] += ai * bj
        red = _poly_rem(prod, self.modulus, p)
        return self.from_coeffs(red)

    def _inv_raw(self, a: int) -> int:
        # a^(q-2) by square and multiply
        out = 1
        base = a
        k = self.q - 2
        while k:
            if k & 1:
                out = self._mul_raw(out, base)
            base = self._mul_raw(base, base)
            k >>= 1
        return out

    # -- ring operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.tables[0][a][b]

    def neg(self, a: int) -> int:
        return self.tables[1][a]

    def sub(self, a: int, b: int) -> int:
        add, neg = self.tables[:2]
        return add[a][neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self.tables[2][a][b]

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise DivisionByZero(f"inverse of zero in F_{self.q}")
        return self.tables[3][a]

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash(("FieldCtx", self.p, self.e, self.modulus))

    def __repr__(self):
        return f"F{self.q}"


class ZpNCtx:
    """The coefficient ring Z/p^N with the valuation nu1(u * p^m) = m.

    Z/p (N = 1) is the field F_p, and its ``tables`` are F_p's lookups, so
    the field kernels run on it; for N > 1 ``tables`` is None."""

    __slots__ = ("p", "N", "size", "tables")

    def __init__(self, p: int, N: int):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if N < 1:
            raise ValueError(f"exponent must be >= 1, got {N}")
        self.p = p
        self.N = N
        self.size = p**N
        self.tables = FieldCtx(p).tables if N == 1 else None

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.size

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.size

    def neg(self, a: int) -> int:
        return (-a) % self.size

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.size

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def inv(self, a: int) -> int:
        a %= self.size
        if not self.is_unit(a):
            raise NotAUnit(f"{a} is not invertible in Z/{self.p}^{self.N}")
        return pow(a, -1, self.size)

    def nu1(self, a: int) -> int:
        a %= self.size
        if a == 0:
            raise UndefinedValuation("nu1(0) is undefined")
        m = 0
        while a % self.p == 0:
            a //= self.p
            m += 1
        return m

    def elements(self):
        return range(self.size)

    def units(self):
        return [u for u in range(self.size) if u % self.p]

    def __eq__(self, other):
        return isinstance(other, ZpNCtx) and self.p == other.p and self.N == other.N

    def __hash__(self):
        return hash(("ZpNCtx", self.p, self.N))

    def __repr__(self):
        return f"Z/{self.p}^{self.N}" if self.N > 1 else f"Z/{self.p}"
