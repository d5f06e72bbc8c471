"""Subrings of truncated rings: canonical bases, closure, ideals, lifting
along one-step quotients, enumeration, and shape censuses.

Canonical bases make subring identity decidable by tuple comparison: over
a field the reduced row echelon form, over Z/p^N a Howell-style normal
form adapted to the per-degree coefficient caps (the x^{n-1} column lives
mod p^k).  Rows are coefficient vectors with columns ordered by degree,
and the set of row valuations can be read straight off the pivots.

Both families run one code path.  Where the two differ, the ring's own
p_image decides: p = 0 in the ring exactly when the coefficients form a
field, F_q or Z/p.  Over Z/p the Howell form is the echelon form, so
Z[x]/(p, x^n) takes the field path.

Subrings of F_2[x]/x^n keep their canonical rows packed into ints, and the
quotient-chain code (restricted_extension, ideal_data, lift_isomorphic,
the census walk) runs on those rows: echelon form by XOR on the pivot bit,
ring products by shift-and-XOR.  Tuples appear only at the API boundary:
Subring.basis, the IdealData fields and canonicalize return tuples, built
when read.  The tuple kernels stay the reference the packed ones are
tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import CtxMismatch, InvariantViolation, NotMinimal, OutOfFamily, TooLarge
from .rings import (
    Element,
    FieldPolyCtx,
    RingCtx,
    extension_ctx,
    kernel_generator,
    project,
    quotient_ctx,
)
from .shapes import Shape, chain_bound, minimal_generators

_AMBIENT_LIMIT = 4096
_SUBSPACE_LIMIT = 200_000
# ambient size up to which the quotient chain is walked
_CHAIN_LIMIT = 1 << 20


# -- canonical row bases -----------------------------------------------------


def _rref(K, rows, ncols: int):
    """Reduced row echelon form over the field K; zero rows are dropped and
    the output rows are sorted by pivot column."""
    work = [list(r) for r in rows if any(r)]
    out = []
    for col in range(ncols):
        pick = None
        for idx, r in enumerate(work):
            if r[col]:
                pick = idx
                break
        if pick is None:
            continue
        row = work.pop(pick)
        inv = K.inv(row[col])
        row = [K.mul(inv, x) for x in row]
        for other in work + out:
            c = other[col]
            if c:
                for j in range(col, ncols):
                    other[j] = K.sub(other[j], K.mul(c, row[j]))
        out.append(row)
    return tuple(tuple(r) for r in out)


def _howell(K, caps_log, rows):
    """Howell-style normal form over K = Z/p^N with per-column caps
    p^caps_log[j].

    Column by column: the entry of least p-valuation becomes the pivot and
    is normalized to an exact power of p; other rows are cleared below it;
    the annihilator multiple of the pivot row rejoins the worklist so that
    every span element with leading column c is reachable from pivots >= c.
    Finally entries above each pivot are reduced into [0, pivot).
    """
    p, nu1 = K.p, K.nu1
    ncols = len(caps_log)
    caps = [p**c for c in caps_log]
    work = [[x % c for x, c in zip(r, caps)] for r in rows]
    work = [r for r in work if any(r)]
    out = []
    pivots = []
    for col in range(ncols):
        pick = None
        picka = None
        for idx, r in enumerate(work):
            if r[col]:
                a = nu1(r[col])
                if pick is None or a < picka:
                    pick, picka = idx, a
        if pick is None:
            continue
        row = work.pop(pick)
        a = picka
        uinv = pow(row[col] // p**a, -1, K.size)
        row = [(x * uinv) % c for x, c in zip(row, caps)]
        piv = p**a
        for r in work:
            if r[col]:
                mfac = r[col] // piv
                for j in range(col, ncols):
                    if row[j]:
                        r[j] = (r[j] - mfac * row[j]) % caps[j]
        ann = [(x * p ** (caps_log[col] - a)) % c for x, c in zip(row, caps)]
        if any(ann):
            work.append(ann)
        out.append(row)
        pivots.append((col, piv))
    for i, (col, piv) in enumerate(pivots):
        for j in range(i):
            upper = out[j]
            mfac = upper[col] // piv
            if mfac:
                for t in range(col, ncols):
                    if out[i][t]:
                        upper[t] = (upper[t] - mfac * out[i][t]) % caps[t]
    return tuple(tuple(r) for r in out)


def _echelon(ctx: RingCtx, rows, tags: int = 0):
    """Canonical basis of rows that carry `tags` extra columns after the n
    ring columns; a tag column is capped at p on the Howell path."""
    if not ctx.p_image:
        return _rref(ctx.coeff, rows, ctx.n + tags)
    return _howell(ctx.coeff, ctx.caps_log + (1,) * tags, rows)


def canonicalize(ctx: RingCtx, rows):
    """Canonical basis of the module spanned by the rows; two row sets span
    the same module iff their canonical bases are equal tuples."""
    for r in rows:
        ctx._check(r)
    return _echelon(ctx, rows)


def _lead(row) -> int:
    """Pivot column of a canonical row."""
    return next(i for i, x in enumerate(row) if x)


def _pivot(row) -> tuple[int, int]:
    """(column, entry) of a canonical row's pivot."""
    col = _lead(row)
    return col, row[col]


def _reduce(ctx: RingCtx, basis, v: Element) -> Element:
    """v reduced against a canonical basis at its pivot columns: over a
    field each pivot entry is cleared, over Z/p^N it is brought into
    [0, pivot).  Members of the module reduce to zero, and on a canonical
    basis all members of one coset reduce to the same element."""
    v = list(v)
    if not ctx.p_image:
        K = ctx.coeff
        for row in basis:
            col = _lead(row)
            c = v[col]
            if c:
                for j in range(col, ctx.n):
                    v[j] = K.sub(v[j], K.mul(c, row[j]))
        return tuple(v)
    caps = ctx.caps
    v = [x % c for x, c in zip(v, caps)]
    for row in basis:
        col = _lead(row)
        mfac = v[col] // row[col]
        if mfac:
            for j in range(col, ctx.n):
                v[j] = (v[j] - mfac * row[j]) % caps[j]
    return tuple(v)


def in_row_span(ctx: RingCtx, basis, v: Element) -> bool:
    """Membership in the module with the given canonical basis: v reduces
    to zero."""
    return not any(_reduce(ctx, basis, v))


def _span_logsize(ctx, basis) -> int:
    """log_base of the span size, from the pivots of a canonical basis:
    each row adds the cap exponent of its pivot column less the pivot's
    valuation, which is 0 over a field."""
    if not ctx.p_image:
        return len(basis)
    nu1 = ctx.coeff.nu1
    logs = ctx.caps_log
    total = 0
    for row in basis:
        col = _lead(row)
        total += logs[col] - nu1(row[col])
    return total


# -- packed F_2 rows -----------------------------------------------------------
#
# A 0/1 row of width w packs into an int with column 0 as its most
# significant bit.  Int order is then tuple order, a row's pivot column is
# w - bit_length(), tag columns appended after the ring columns are the low
# bits, and truncating a product to n columns is a right shift.


def _packs(ctx: RingCtx) -> bool:
    """Whether subrings of ctx keep packed rows: exactly over F_2[x]/x^n.
    The Z family keeps tuple rows, Z[x]/(2, x^n) included."""
    return isinstance(ctx, FieldPolyCtx) and ctx.coeff.q == 2


def _pack(row) -> int:
    v = 0
    for x in row:
        v = v << 1 | x
    return v


def _unpack(v: int, width: int) -> Element:
    return tuple(map(int, format(v, f"0{width}b")))


def _xor_echelon(rows) -> tuple[int, ...]:
    """The packed _rref: reduced echelon form over F_2, zero rows dropped,
    rows in decreasing order (increasing pivot column)."""
    lead = {}
    for r in rows:
        while r:
            b = r.bit_length()
            s = lead.get(b)
            if s is None:
                lead[b] = r
                break
            r ^= s
    out = []
    for b in sorted(lead):
        r = lead[b]
        # the rows in out have lower pivots and are reduced: XOR with one
        # clears its pivot bit in r and sets no other pivot bit
        for s in out:
            r = min(r, r ^ s)
        out.append(r)
    out.reverse()
    return tuple(out)


def _xor_reduce(rows, v: int) -> int:
    """The packed _reduce: v with every pivot bit of the canonical rows
    cleared."""
    for r in rows:
        v = min(v, v ^ r)
    return v


def _xor_mul(a: int, b: int, n: int) -> int:
    """The packed product in F_2[x]/x^n: a carry-less product by shift and
    XOR, then the right shift that drops the columns at or past n."""
    out = 0
    while b:
        low = b & -b
        out ^= a * low
        b ^= low
    return out >> (n - 1)


def _xor_lift_bases(n: int, w, small) -> list:
    """The packed _lift_bases over F_2, where z = x^(n-1) is the row 1: the
    tag of w_i is bit d-1-i, so the scalar tuple c read as a d-bit int
    flips column n-1 of a row by the parity of c & (its tags)."""
    d = len(w)
    tagged = [1 << (n - 1 + d)]
    tagged += [wi << d | 1 << (d - 1 - i) for i, wi in enumerate(w)]
    tagged += [s << d for s in small]
    basis = _xor_echelon(tagged)
    if any(row.bit_length() <= d + 1 for row in basis):
        raise InvariantViolation("the kernel column of a lift family carries a pivot")
    mask = (1 << d) - 1
    rows = tuple(row >> d for row in basis)
    tags = [(i, row & mask) for i, row in enumerate(basis) if row & mask]
    out = []
    for c in range(1 << d):
        lift = list(rows)
        for i, t in tags:
            if (c & t).bit_count() & 1:
                lift[i] ^= 1
        out.append(tuple(lift))
    return out


# -- subrings ----------------------------------------------------------------


class Subring:
    """A unital, multiplicatively closed module, held by canonical basis.

    _rows is the canonical basis as the kernels hold it: packed ints when
    _packs(ctx), the basis tuples otherwise.  basis gives the tuples; for
    packed rows they are unpacked on first read.

    The cotangent dimension is memoised: the quotient-chain enumeration
    records it when it makes the subring, and any other subring computes
    it with cotangent_dim on first use.
    """

    __slots__ = ("ctx", "_rows", "_basis", "_cotangent")

    def __init__(self, ctx: RingCtx, basis, cotangent: int | None = None):
        self.ctx = ctx
        self._basis = tuple(tuple(r) for r in basis)
        self._rows = tuple(map(_pack, self._basis)) if _packs(ctx) else self._basis
        self._cotangent = cotangent

    @classmethod
    def _from_packed(cls, ctx: RingCtx, rows: tuple[int, ...], cotangent: int | None = None):
        """The subring of an F_2 ring with these canonical packed rows."""
        S = cls.__new__(cls)
        S.ctx, S._rows, S._basis, S._cotangent = ctx, rows, None, cotangent
        return S

    @classmethod
    def from_rows(cls, ctx: RingCtx, rows) -> "Subring":
        return cls(ctx, canonicalize(ctx, rows))

    @classmethod
    def prime_ring(cls, ctx: RingCtx) -> "Subring":
        """The span of 1: the image of the prime coefficient ring."""
        if _packs(ctx):
            return cls._from_packed(ctx, (1 << ctx.n - 1,))
        return cls.from_rows(ctx, [ctx.one()])

    @property
    def basis(self) -> tuple[Element, ...]:
        if self._basis is None:
            n = self.ctx.n
            self._basis = tuple(_unpack(r, n) for r in self._rows)
        return self._basis

    def contains(self, v: Element) -> bool:
        if _packs(self.ctx):
            self.ctx._check(v)
            return not _xor_reduce(self._rows, _pack(v))
        return in_row_span(self.ctx, self.basis, v)

    @property
    def dim(self) -> int:
        if self.ctx.p_image:
            raise CtxMismatch("dim is the coefficient-field rank; use log_size")
        return len(self._rows)

    @property
    def log_size(self) -> int:
        return _span_logsize(self.ctx, self._rows)

    @property
    def size(self) -> int:
        return self.ctx.base**self.log_size

    def elements(self) -> list[Element]:
        """Every member: the sums of one scalar multiple of each row."""
        ctx = self.ctx
        out = {ctx.zero()}
        for row in self.basis:
            scaled = {ctx.scalar_mul(c, row) for c in ctx.coeff.elements()}
            out = {ctx.add(v, s) for v in out for s in scaled}
        return sorted(out)

    @property
    def cotangent(self) -> int:
        """cotangent_dim(self), memoised."""
        if self._cotangent is None:
            self._cotangent = cotangent_dim(self)
        return self._cotangent

    def sort_key(self):
        """(log size, basis): the same order as (size, basis)."""
        return (self.log_size, self.basis)

    def _key(self):
        """sort_key's order without the tuples: packed rows order as
        their tuples do."""
        return (self.log_size, self._rows)

    def __eq__(self, other):
        return isinstance(other, Subring) and self.ctx == other.ctx and self._rows == other._rows

    def __hash__(self):
        return hash((self.ctx, self._rows))

    def __lt__(self, other):
        return self._key() < other._key()

    def __repr__(self):
        polys = ", ".join(self.ctx.format(r) for r in self.basis)
        return f"<span {polys} | {self.ctx!r}>"


def closure(ctx: RingCtx, gens) -> Subring:
    """Smallest unital subring containing the generators."""
    basis = canonicalize(ctx, [ctx.one(), *gens])
    while True:
        prods = [ctx.mul(a, b) for i, a in enumerate(basis) for b in basis[i:]]
        new = canonicalize(ctx, list(basis) + prods)
        if new == basis:
            return Subring(ctx, basis)
        basis = new


def project_subring(S: Subring, dst: RingCtx) -> Subring:
    """Image of a subring under the one-step quotient map."""
    return Subring.from_rows(dst, [project(S.ctx, dst, r) for r in S.basis])


def _exponent_points(S: Subring) -> tuple:
    """The sorted valuation points read off the canonical basis: each row
    contributes its own valuation and, when p != 0, those of its multiples
    by powers of p that keep the pivot."""
    ctx = S.ctx
    if _packs(ctx):
        n = ctx.n
        return tuple(sorted(n - r.bit_length() for r in S._rows))
    nu = ctx.nu
    pts = [nu(row) for row in S.basis]
    if ctx.p_image:
        logs = ctx.caps_log
        pts += [(c, b) for c, a in pts for b in range(a + 1, logs[c])]
    return tuple(sorted(pts))


def exponent_set(S: Subring) -> Shape:
    """Valuations of the nonzero members, read off the canonical basis.

    Over a field these are exactly the pivot columns; over Z/p^N each row
    with pivot p^a in column c contributes the points (c, a), ..., up to
    the cap of that column.
    """
    return Shape.of(S.ctx.domain, _exponent_points(S))


# -- ideals and cotangent data ------------------------------------------------


@dataclass(frozen=True)
class IdealData:
    """Canonical bases for the maximal ideal m, its square, and the
    obstruction module (m^2 over a field, m^2 + pR in mixed
    characteristic), held as the kernels of ctx hold rows (see Subring);
    max_ideal, square and small give them as tuples."""

    ctx: RingCtx
    max_rows: tuple
    square_rows: tuple
    small_rows: tuple

    def _tuples(self, rows) -> tuple[Element, ...]:
        if _packs(self.ctx):
            return tuple(_unpack(r, self.ctx.n) for r in rows)
        return rows

    @property
    def max_ideal(self) -> tuple[Element, ...]:
        return self._tuples(self.max_rows)

    @property
    def square(self) -> tuple[Element, ...]:
        return self._tuples(self.square_rows)

    @property
    def small(self) -> tuple[Element, ...]:
        return self._tuples(self.small_rows)


def ideal_data(S: Subring) -> IdealData:
    ctx = S.ctx
    rows = S._rows
    # row 0 is the unique row with pivot in the constant column
    p = ctx.p_image
    if not p:
        m = rows[1:]
        if _packs(ctx):
            n = ctx.n
            sq = _xor_echelon([_xor_mul(a, b, n) for i, a in enumerate(m) for b in m[i:]])
        else:
            sq = canonicalize(ctx, [ctx.mul(a, b) for i, a in enumerate(m) for b in m[i:]])
        return IdealData(ctx, m, sq, sq)
    m = canonicalize(ctx, [ctx.scalar_mul(p, rows[0]), *rows[1:]])
    sq = canonicalize(ctx, [ctx.mul(a, b) for i, a in enumerate(m) for b in m[i:]])
    small = canonicalize(ctx, list(sq) + [ctx.scalar_mul(p, r) for r in rows])
    return IdealData(ctx, m, sq, small)


def _cotangent_of(ctx: RingCtx, data: IdealData) -> int:
    return _span_logsize(ctx, data.max_rows) - _span_logsize(ctx, data.small_rows)


def cotangent_dim(S: Subring) -> int:
    """Dimension of m/m^2 over the residue field (of m/(m^2 + pR) over F_p
    in mixed characteristic), computed directly from ideal_data(S).
    Subring.cotangent memoises it."""
    return _cotangent_of(S.ctx, ideal_data(S))


# -- one-step extensions and lifting ------------------------------------------


@dataclass(frozen=True)
class MinimalExtension:
    """A one-step quotient src -> dst restricted to src = preimage of dst,
    with the kernel generated by kernel_gen.  src_ideal caches
    ideal_data(src) when the builder already has it."""

    src: Subring
    dst: Subring
    kernel_gen: Element
    is_minimal: bool
    kernel_in_small: bool
    src_ideal: IdealData | None = field(default=None, compare=False, repr=False)


def _lift_row(src_ctx: RingCtx, row) -> Element:
    if len(row) < src_ctx.n:
        return tuple(row) + (0,)
    return tuple(row)


def restricted_extension(B: Subring) -> MinimalExtension:
    """The preimage R of B under the one-step quotient onto B's ring,
    packaged as the extension R -> B.  R carries its cotangent dimension,
    read off the ideal data computed here."""
    src_ctx = extension_ctx(B.ctx)
    z = kernel_generator(src_ctx)
    if _packs(src_ctx):
        # over a field each step adds the column n-1, where z = x^(n-1) is
        # the row 1: B's rows shifted up stay reduced, and z adds the last pivot
        R = Subring._from_packed(src_ctx, tuple(r << 1 for r in B._rows) + (1,))
        data = ideal_data(R)
        in_small = not _xor_reduce(data.small_rows, 1)
    else:
        rows = [_lift_row(src_ctx, r) for r in B.basis] + [z]
        R = Subring.from_rows(src_ctx, rows)
        data = ideal_data(R)
        in_small = in_row_span(src_ctx, data.small, z)
    R._cotangent = _cotangent_of(src_ctx, data)
    return MinimalExtension(R, B, z, True, in_small, data)


@dataclass(frozen=True)
class LiftFamily:
    """The subrings of ext.src mapping isomorphically onto ext.dst."""

    extension: MinimalExtension
    exists: bool
    dim: int
    lifts: tuple[Subring, ...]


def _lift_bases(ctx: RingCtx, z: Element, w, small) -> list:
    """Canonical bases of span(1, w_1 - c_1 z, ..., w_d - c_d z, small), one
    per scalar tuple c, in itertools.product order.

    One canonical basis of span(1, w_1, ..., w_d, small) is computed, with d
    tag columns holding each row's coefficient on w_i (mod p on the Howell
    path).  The lift for c is the image of that module under
    v -> v - f_c(v) z, where f_c(v) is the sum of c_i times v's tags.  The
    lifts meet the kernel only in 0, so the kernel column n-1 never carries
    a pivot, and editing that column row by row keeps the normal form.
    Rows whose edit is zero are shared between the lifts.
    """
    n, d = ctx.n, len(w)
    K = ctx.coeff
    tagged = [ctx.one() + (0,) * d]
    tagged += [wi + tuple(int(i == j) for j in range(d)) for i, wi in enumerate(w)]
    tagged += [s + (0,) * d for s in small]
    basis = _echelon(ctx, tagged, d)
    if any(_lead(row) >= n - 1 for row in basis):
        raise InvariantViolation("the kernel column of a lift family carries a pivot")
    rows = [row[:n] for row in basis]
    tags = [(i, row[n:]) for i, row in enumerate(basis) if any(row[n:])]
    top = z[n - 1]
    if not ctx.p_image:

        def edited(x, lam, t):
            f = 0
            for c, ti in zip(lam, t):
                f = K.add(f, K.mul(c, ti))
            return K.sub(x, K.mul(f, top)) if f else x

    else:
        cap = ctx.caps[-1]

        def edited(x, lam, t):
            f = sum(c * ti for c, ti in zip(lam, t)) % K.p
            return (x - f * top) % cap if f else x

    out = []
    for lam in itertools.product(range(ctx.base), repeat=d):
        lift = list(rows)
        for i, t in tags:
            r = rows[i]
            x = edited(r[-1], lam, t)
            if x != r[-1]:
                lift[i] = r[:-1] + (x,)
        out.append(tuple(lift))
    return out


def lift_isomorphic(ext: MinimalExtension) -> LiftFamily:
    """Compute the lift family of a minimal one-step extension.

    Lifts exist iff the kernel generator z stays out of the obstruction
    module; they then form an affine family indexed by scalar tuples of
    length dim = cotangent_dim(dst): pick module generators w_1, ..., w_d
    of the maximal ideal modulo (obstruction + z), and send each tuple
    (c_1, ..., c_d) to the span of 1, the w_i - c_i z, and the obstruction
    module.  Every lift is isomorphic to dst and carries its cotangent
    dimension.
    """
    if not ext.is_minimal:
        raise NotMinimal("lifting requires a minimal extension")
    d = ext.dst.cotangent
    if ext.kernel_in_small:
        return LiftFamily(ext, False, d, ())
    ctx = ext.src.ctx
    z = ext.kernel_gen
    data = ideal_data(ext.src) if ext.src_ideal is None else ext.src_ideal
    small = data.small_rows
    # m / (small + z) is a vector space over the residue field, so the rows
    # of m's canonical basis whose pivot is not one of (small + z)'s pivots
    # form a complement.
    if _packs(ctx):
        grown = {r.bit_length() for r in _xor_echelon([*small, 1])}
        w = [r for r in data.max_rows if r.bit_length() not in grown]
    else:
        grown = {_pivot(r) for r in canonicalize(ctx, [*small, z])}
        w = [r for r in data.max_rows if _pivot(r) not in grown]
    if len(w) != d:
        raise InvariantViolation(
            f"complement of size {len(w)} for target cotangent dimension {d}"
        )
    if _packs(ctx):
        lifts = [Subring._from_packed(ctx, b, d) for b in _xor_lift_bases(ctx.n, w, small)]
    else:
        lifts = [Subring(ctx, b, cotangent=d) for b in _lift_bases(ctx, z, w, small)]
    if len({L._rows for L in lifts}) != len(lifts):
        raise InvariantViolation("lifts must be pairwise distinct")
    return LiftFamily(ext, True, d, tuple(sorted(lifts, key=Subring._key)))


# -- enumeration ---------------------------------------------------------------


def _gaussian_subspace_count(q: int, n: int) -> int:
    total = 0
    for k in range(n + 1):
        num = 1
        den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def _enumerate_subspace_scan(ctx) -> list[Subring]:
    """Filter every coefficient subspace for closure: echelon bases are
    generated directly from pivot sets and free entries."""
    if ctx.p_image:
        raise CtxMismatch("the subspace scan needs a field coefficient ring")
    q, n = ctx.base, ctx.n
    if _gaussian_subspace_count(q, n) > _SUBSPACE_LIMIT:
        raise TooLarge("too many subspaces to scan")
    one = ctx.one()
    found = []
    for dim in range(1, n + 1):
        for pivots in itertools.combinations(range(n), dim):
            free = [
                (r, c)
                for r in range(dim)
                for c in range(pivots[r] + 1, n)
                if c not in pivots
            ]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * n for _ in range(dim)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                S = Subring(ctx, tuple(tuple(r) for r in rows))
                if not S.contains(one):
                    continue
                rs = S.basis
                if all(
                    S.contains(ctx.mul(rs[i], rs[j]))
                    for i in range(dim)
                    for j in range(i, dim)
                ):
                    found.append(S)
    return sorted(found, key=Subring._key)


def _enumerate_closure_bfs(ctx) -> list[Subring]:
    """Grow subrings from the prime ring by adjoining one ambient element
    at a time and closing; the reachable set is all of them.  All members
    of one coset of S close to the same subring, so S adjoins one reduced
    representative per coset."""
    if ctx.size > _AMBIENT_LIMIT:
        raise TooLarge(f"ambient ring of size {ctx.size} exceeds the scan limit")
    prime = Subring.prime_ring(ctx)
    ambient = list(ctx.elements())
    zero = ctx.zero()
    found = {prime}
    frontier = [prime]
    while frontier:
        S = frontier.pop()
        reps = {_reduce(ctx, S.basis, a) for a in ambient}
        reps.discard(zero)
        for r in reps:
            T = closure(ctx, [*S.basis, r])
            if T not in found:
                found.add(T)
                frontier.append(T)
    return sorted(found, key=Subring._key)


def _quotient_chain(ctx: RingCtx) -> list:
    """ctx and its iterated one-step quotients, down to the base ring."""
    chain = [ctx]
    while (below := quotient_ctx(chain[-1])) is not None:
        chain.append(below)
    return chain


def _enumerate_minimal_ext(ctx) -> list[Subring]:
    """Walk the quotient chain from the base coefficient ring upward; at
    each step every subring of the quotient contributes its preimage plus
    its isomorphic lifts, which together exhaust the next level."""
    if ctx.size > _CHAIN_LIMIT:
        raise TooLarge("ambient ring too large")
    chain = _quotient_chain(ctx)
    chain.reverse()
    subs = [Subring.prime_ring(chain[0])]
    for step_ctx in chain[1:]:
        nxt = []
        for B in subs:
            ext = restricted_extension(B)
            if ext.src.ctx != step_ctx:
                raise InvariantViolation(f"extension landed in {ext.src.ctx!r}, not {step_ctx!r}")
            nxt.append(ext.src)
            nxt.extend(lift_isomorphic(ext).lifts)
        if len({S._rows for S in nxt}) != len(nxt):
            raise InvariantViolation("preimages and lifts must not collide")
        subs = sorted(nxt, key=Subring._key)
    return subs


def enumerate_subrings(ctx: RingCtx, method: str = "minimal_ext") -> list[Subring]:
    """All unital subrings sharing the coefficient prime ring, sorted by
    (size, canonical basis).

    Methods: "minimal_ext" (recursion along the quotient chain),
    "closure_bfs" (generator adjunction from the prime ring), and
    "subspace_scan" (filter all subspaces; field coefficients only).
    """
    if method == "minimal_ext":
        return _enumerate_minimal_ext(ctx)
    if method == "closure_bfs":
        return _enumerate_closure_bfs(ctx)
    if method == "subspace_scan":
        return _enumerate_subspace_scan(ctx)
    raise ValueError(f"unknown enumeration method {method!r}")


# -- census --------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    shape: Shape
    count: int
    bound_exp: int
    bound: int
    equality: bool
    d_shape: int
    d_ring_values: tuple[int, ...]
    subrings: tuple[Subring, ...]


def _census_walk(ctx: RingCtx) -> dict:
    """Exponent points -> Counter of cotangent dimensions over the subrings
    of ctx, walking the quotient tree depth first.

    Every subring of a level has one parent, its image B one level down:
    it is B's preimage or one of B's lifts.  Below the top level each B
    yields its preimage and lifts, which the walk then visits.  The top
    level is counted from its parents, not built: the preimage R counts
    once with d(R), and an unobstructed B has base^d(B) lifts, each with
    B's exponent points and d(B).
    """
    if ctx.size > _CHAIN_LIMIT:
        raise TooLarge("ambient ring too large")
    chain = _quotient_chain(ctx)
    chain.reverse()
    top = len(chain) - 1
    base = ctx.base
    rows = defaultdict(Counter)

    def visit(B: Subring, level: int) -> None:
        step_ctx = chain[level + 1]
        ext = restricted_extension(B)
        if ext.src.ctx != step_ctx:
            raise InvariantViolation(f"extension landed in {ext.src.ctx!r}, not {step_ctx!r}")
        R = ext.src
        if level + 1 < top:
            visit(R, level + 1)
            for L in lift_isomorphic(ext).lifts:
                visit(L, level + 1)
            return
        rows[_exponent_points(R)][R.cotangent] += 1
        if not ext.kernel_in_small:
            d = B.cotangent
            # lift_isomorphic's complement of size d, counted
            if R.cotangent != d + 1:
                raise InvariantViolation(
                    f"preimage cotangent dimension {R.cotangent} for parent dimension {d}"
                )
            rows[_exponent_points(B)][d] += base**d

    prime = Subring.prime_ring(chain[0])
    if top:
        visit(prime, 0)
    else:
        rows[_exponent_points(prime)][prime.cotangent] += 1
    return rows


def census(ctx: RingCtx, subrings=None) -> list[CensusRow]:
    """One row per realized shape, with the count, the matching power
    bound, and the cotangent data.

    Without subrings the census walks the quotient tree and counts its top
    level (see _census_walk), and each row's subrings is ().  Given an
    enumeration of ctx, it groups those subrings instead and keeps them in
    their rows.  Either way the cotangent dimensions are the ones the
    quotient-chain recursion carries.
    """
    if subrings is None:
        rows, members = _census_walk(ctx), {}
    else:
        rows, members = defaultdict(Counter), defaultdict(list)
        for S in subrings:
            if S.ctx != ctx:
                raise CtxMismatch(f"a subring of {S.ctx!r} in the census of {ctx!r}")
            pts = _exponent_points(S)
            members[pts].append(S)
            rows[pts][S.cotangent] += 1
    base = ctx.base
    # the bound walks the quotient chain, each step dropping the valuation
    # of its kernel; p, when nonzero, takes one generator no step accounts for
    tops = [c.nu(kernel_generator(c)) for c in _quotient_chain(ctx)[:-1]]
    offset = 1 if ctx.p_image else 0
    out = []
    for pts in sorted(rows):
        dims = rows[pts]
        count = sum(dims.values())
        sh = Shape.of(ctx.domain, pts)
        exp = chain_bound(sh, tops, offset)
        out.append(
            CensusRow(
                shape=sh,
                count=count,
                bound_exp=exp,
                bound=base**exp,
                equality=count == base**exp,
                d_shape=sh.generator_count(),
                d_ring_values=tuple(sorted(dims.elements())),
                subrings=tuple(members.get(pts, ())),
            )
        )
    return out


# -- the generator-gap family ----------------------------------------------------


@dataclass(frozen=True)
class FamilyReport:
    """The subring of K[x]/x^{2a+6} generated by x^a + x^{a+3}, x^{a+1},
    x^{a+2}: its exponent set needs four generators while three ring
    elements generate, the fourth exponent being witnessed inside m^2."""

    a: int
    ctx: FieldPolyCtx
    gens: tuple[Element, Element, Element]
    ring: Subring
    shape: Shape
    generators: tuple[int, ...]
    d_shape: int
    d_ring: int
    witness: Element
    witness_in_square: bool


def counterexample_family(a: int, field) -> FamilyReport:
    """Build the family member for the given a >= 6 and check its claims.

    The products pair up as g1*g3 = x^{2a+2} + x^{2a+5} and g2^2 =
    x^{2a+2}, so x^{2a+5} = g1*g3 - g2^2 lies in m^2 even though 2a+5 is a
    generator of the exponent set; the cotangent dimension stays at 3.
    """
    if a < 6:
        raise OutOfFamily("the family needs a >= 6")
    n = 2 * a + 6
    ctx = FieldPolyCtx(field, n)
    g1 = ctx.add(ctx.monomial(a), ctx.monomial(a + 3))
    g2 = ctx.monomial(a + 1)
    g3 = ctx.monomial(a + 2)
    R = closure(ctx, [g1, g2, g3])
    sh = exponent_set(R)
    expected = {0, a, a + 1, a + 2} | set(range(2 * a, n))
    if set(sh.elems) != expected:
        raise InvariantViolation(f"unexpected exponent set {sh.elems}")
    gens = minimal_generators(sh)
    if gens != (a, a + 1, a + 2, 2 * a + 5):
        raise InvariantViolation(f"unexpected shape generators {gens}")
    d_ring = cotangent_dim(R)
    if d_ring != 3:
        raise InvariantViolation(f"cotangent dimension {d_ring} != 3")
    witness = ctx.sub(ctx.mul(g1, g3), ctx.mul(g2, g2))
    if witness != ctx.monomial(2 * a + 5):
        raise InvariantViolation("witness product identity failed")
    if not in_row_span(ctx, ideal_data(R).square, witness):
        raise InvariantViolation("witness escaped the ideal square")
    return FamilyReport(
        a=a,
        ctx=ctx,
        gens=(g1, g2, g3),
        ring=R,
        shape=sh,
        generators=gens,
        d_shape=len(gens),
        d_ring=d_ring,
        witness=witness,
        witness_in_square=True,
    )
