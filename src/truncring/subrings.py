"""Subrings of truncated rings: canonical bases, closure, ideals, lifting
along one-step quotients, enumeration, and shape censuses.

Canonical bases make subring identity decidable by tuple comparison: over
a field the reduced row echelon form, over Z/p^N a Howell-style normal
form adapted to the per-degree coefficient caps (the x^{n-1} column lives
mod p^k).  Rows are coefficient vectors with columns ordered by degree,
and the set of row valuations can be read straight off the pivots.

Over Z/p^N one pass computes the Howell form (Howell, Spans in the module
(Z_m)^s, 1986): _packed_howell, on rows packed into ints in the layout of
their column caps (_layout, one per p and caps, built once), returning
packed rows.  The m^2 kernel hands the pass Kronecker products, and
_howell_lift_bases a lift family's tagged rows.  F_q with q = p^e, e > 1,
keeps _rref, and F_2 its XOR kernels.  Each of the three echelon passes
is an insertion phase and a finishing phase, and closure runs one rounds
loop on every row format, keeping one table of the ring's insertion
phase for a whole closure; canonicalize runs the two phases of the
ring's pass on the tuple rows it is given, packed by the ring's kernel.

Both families run one code path.  Where the algorithms differ, the facts
the ring context carries decide, never its class.  p_image = 0 exactly
when the coefficients form a field, F_q or Z/p, and over Z/p the Howell
form is the echelon form, so Z[x]/(p, x^n) takes the field path.  Each
ring's row kernel (_RowKernel) picks, once, from base and p_image, the row
format of its subrings (_packs, which nothing else reads), and owns every
job that depends on it: packing and unpacking, valuations of rows (which
name their pivots), the preimage and image rows of a quotient step, m's
row p, the lift bases, and how the products of m^2 and of closure's
rounds are formed and echeloned: XOR products on packed F_2 rows,
Kronecker products where base is p, ring mul over F_q with q = p^e,
e > 1.  So the walk, ideal_data and closure have one path for every ring,
and the packed element kernel (_ElementKernel) serves verify alone.  A
row is checked once, where it enters (ctx._check), and never again.

Each subring is the preimage or a lift of its image one quotient step
down.  enumerate_subrings and census share one depth-first walk of that
quotient tree: the enumeration builds its top level, the census counts it.
The walk's unit is the extension R -> B that makes a lift family, B's
preimage R and B's lifts; the lifts are built only where a member's own
extension is needed.  Where the step above the family's ring adds a
column and the square of the family's kernel generator vanishes there
(over a field for n >= 3, over Z/p^N, N > 1, at every n), the members'
preimages one level up share m^2 and the kernel bit.  That rule about the
ring, and its proof, is _siblings_share_square, and one place reads it:
_family_extensions, the family step of the walk at every level.  It
gives one pair standing for the whole family where the rule holds, R's
extension and R -> B, so ideal_data runs once per family, and one pair
per member elsewhere.  The walk builds the stood-for lifts and writes
their extensions down (_step).  One level below the top the census does
not: it counts B's lifts by weight, base^d(B) with B's points and d(B),
under R's kernel bit, with lift_isomorphic's complement check and no lift
built, and it counts the top itself by weight off each pair
(_census_walk).  Where the rule fails there (at n = 2 over a field, on a
k-step to the top over Z/p^N) the census builds that level's lifts.

Subrings of every ring whose coefficients are residues (base is p: Z/p^N,
and F_p, F_2 among them) keep their canonical rows packed into ints,
column 0 most significant, so int order is tuple order; over F_2 in one
bit per column, elsewhere in the width of the ring's caps, one width along
a whole quotient chain but where it grows on an n-step (_Layout).
Subrings of F_q with q = p^e, e > 1, keep tuples.  The quotient-chain code
(restricted_extension, ideal_data, lift_isomorphic, the tree walk) hands
rows to the ring's row kernel and builds each subring from the rows it
returns (Subring._from_rows), with no re-packing or re-tupling: a preimage
is a shift, an image a shift or a reduction of the low column, a top
pivot a compare (_RowKernel).  Tuples of packed rows appear only at the
API boundary: Subring.basis and the IdealData fields return tuples,
unpacked when read, and canonicalize, in_row_span and the CLI take and
give tuples.  The tuple _rref and _lift_bases, on F_2 rows, stay the
reference the XOR kernels are tested against.

On both families a quotient step reads what it can off the parent, with
no echelon pass: the preimage of B has B's rows lifted, then the kernel
generator, as its canonical basis (the generator is left out on a k-step
where B already has a pivot in the top column), the image of S has S's
rows projected, less the one that becomes 0, and the maximal ideal m has
R's rows with the first, 1, replaced by p (dropped over a field).  The
proof that a shift lifts a row is _RowKernel's.
Over Z/p^N and F_p the products that span m^2 are formed by Kronecker
substitution, one int multiply each on rows packed with a field wide
enough for any product coefficient, and stay packed through the Howell
pass that echelons them (_packed_howell); F_q with q = p^e, e > 1, keeps
ring mul and _rref, and F_2 the XOR products.  m^2's canonical basis is
the one echelon pass of a step, and the rest is read off it.  The
obstruction module m^2 + pR is m^2 + (p), as p times a row of m lies in
m^2, and its Howell form is the row p, then m^2's rows that are 0 in
column 0, those below the row 1.  The kernel generator lies in it iff it
has a pivot in the top column, its last row below the row x^(n-2), and
when it does not, the lift complement follows from its pivots and the
kernel's.  Where the kernel generator's valuation is a sum of two
nonzero valuations of the preimage, the kernel generator lies in m^2, and
the step forms no m^2 at all (_kernel_is_a_product).  Ring mul,
canonicalize and in_row_span stay the reference.

Cotangent dimensions and exponent points are carried down the walk, not
computed: the prime ring has d = 0 and the domain's zero column, a
preimage R of B has d(R) = d(B) + [z not in m_R^2 + pR] (the proof is in
restricted_extension) and B's points plus nu(z) (_preimage), and a lift
has d(B) and B's points.  So neither the census nor the enumeration calls
cotangent_dim, which stays the one direct computation and the oracle, or
reads points off rows.  The points are held as a mask in the domain's
bit layout (shapes._PointLayout), so a preimage sets one bit, the
kernel-bit test compares masks, the census keys its rows by mask and
decodes each row's points once, and the row's shape facts are shifts.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .coefficients import FieldCtx
from .errors import CtxMismatch, InvariantViolation, NotAQuotient, OutOfFamily, TooLarge
from .rings import (
    Element,
    FieldPolyCtx,
    RingCtx,
    extension_ctx,
    kernel_generator,
    quotient_ctx,
)
from .shapes import Shape, chain_bound, enumerate_shapes, minimal_generators

# closures closure_bfs may make, by the census bound
_CLOSURE_LIMIT = 100_000
# subrings the subspace scan may visit, by the census bound
_SUBSPACE_LIMIT = 50_000
# ambient size up to which the quotient chain is walked
_CHAIN_LIMIT = 1 << 20


# -- canonical row bases -----------------------------------------------------


def _rref(K, rows) -> tuple:
    """Reduced row echelon form over the field K, F_q or Z/p, read from its
    lookup tables (FieldCtx.tables); zero rows are dropped and the output
    rows are sorted by pivot column.  It runs in two phases: _rref_insert
    puts the rows into a table, pivot column -> row, and _rref_finish
    back-substitutes.  closure keeps one table for a whole closure over
    F_q with q = p^e, e > 1, and runs the insertion phase on it round by
    round."""
    return _rref_finish(K, _rref_insert(K, {}, rows))


def _rref_insert(K, table: dict, rows) -> dict:
    """The insertion phase of _rref: each row is reduced by the row of table
    (pivot column -> row, its pivot 1) at its pivot column until it is 0 or
    leads a column table lacks, where it is kept, scaled to pivot 1.  Rows
    are only added, so the span of table grows by the rows' span.  Returns
    table."""
    add, neg, mul, inv = K.tables
    for r in rows:
        while any(r):
            c = _lead(r)
            s = table.get(c)
            if s is None:
                scale = mul[inv[r[c]]]
                table[c] = tuple([scale[x] for x in r])
                break
            # r - r[c] s, as r + (-r[c]) s: 0 at c, as s is 0 left of it
            scale = mul[neg[r[c]]]
            r = [add[x][scale[y]] for x, y in zip(r, s)]
    return table


def _rref_finish(K, table: dict) -> tuple:
    """The finishing phase of _rref: the table's rows in column order, each
    clearing its column in the rows before it, which are 0 left of it and
    so keep the pivots already cleared.  table is left as it is."""
    add, neg, mul, _ = K.tables
    out = []
    for c in sorted(table):
        P = table[c]
        for i, r in enumerate(out):
            if r[c]:
                scale = mul[neg[r[c]]]
                out[i] = tuple([add[x][scale[y]] for x, y in zip(r, P)])
        out.append(P)
    return tuple(out)


def canonicalize(ctx: RingCtx, rows):
    """Canonical basis of the module spanned by the rows; two row sets span
    the same module iff their canonical bases are equal tuples: the reduced
    row echelon form over a field, the Howell form over Z/p^N.  The rows
    are checked, then echeloned by the ring's row kernel (_RowKernel) as
    it echelons its own: packed where the coefficients are residues (over
    Z/p^N reduced into the column caps as they are packed) and through
    the insertion and finishing phases of the ring's echelon pass."""
    ctx._check(*rows)
    K = _row_kernel(ctx)
    return K.unpack(K.finish(K.insert({}, K.pack(rows))))


def _lead(row) -> int:
    """Pivot column of a nonzero tuple row: where its first nonzero entry
    first occurs, both found at C level."""
    return row.index(next(filter(None, row)))


def _reducer(ctx: RingCtx, basis):
    """The map v -> v reduced against a canonical basis at its pivot
    columns: over a field each pivot entry is cleared, over Z/p^N it is
    brought into [0, pivot).  Members of the module reduce to zero, and on
    a canonical basis all members of one coset reduce to the same element.
    The pivots are found once, so one reducer serves every v reduced
    against the same basis."""
    n = ctx.n
    pivots = [(_lead(row), row) for row in basis]
    if not ctx.p_image:
        add, neg, mul, _ = ctx.coeff.tables

        def reduce(v):
            v = list(v)
            for col, row in pivots:
                c = v[col]
                if c:
                    scale = mul[neg[c]]
                    for j in range(col, n):
                        v[j] = add[v[j]][scale[row[j]]]
            return tuple(v)

        return reduce
    caps = ctx.caps

    def reduce(v):
        v = [x % c for x, c in zip(v, caps)]
        for col, row in pivots:
            mfac = v[col] // row[col]
            if mfac:
                for j in range(col, n):
                    v[j] = (v[j] - mfac * row[j]) % caps[j]
        return tuple(v)

    return reduce


def in_row_span(ctx: RingCtx, basis, v: Element) -> bool:
    """Membership in the module with the given canonical basis: v reduces
    to zero.  v passes the entry rule of ctx._check."""
    ctx._check(v)
    return not any(_reducer(ctx, basis)(v))


def _span_logsize(ctx, rows) -> int:
    """log_base of the span size, from the pivots of canonical rows as the
    ring's row kernel holds them: each row adds the cap exponent of its
    pivot column less the pivot's valuation, the two read as the row's nu;
    over a field each adds 1."""
    if not ctx.p_image:
        return len(rows)
    return sum(ctx.caps_log[c] - a for c, a in map(_row_kernel(ctx).nu, rows))


# -- packed F_2 rows -----------------------------------------------------------
#
# A 0/1 row of width w packs into an int with column 0 as its most
# significant bit.  Int order is then tuple order, a row's pivot column is
# w - bit_length(), tag columns appended after the ring columns are the low
# bits, and truncating a product to n columns is a right shift.


def _packs(ctx: RingCtx) -> bool:
    """Whether subrings of ctx keep packed rows: exactly when the
    coefficients are residues (base is p): Z/p^N and F_p, with F_2 = Z/2,
    over F_2[x]/x^n and Z[x]/(2, x^n) alike, in one bit per column.  Over
    F_q with q = p^e, e > 1, rows are tuples."""
    return ctx.base == ctx.coeff.p


def _pack(row, w: int = 1) -> int:
    """The row as an int with w bits per column, column 0 most significant."""
    v = 0
    for x in row:
        v = v << w | x
    return v


def _unpack(rows, w: int, n: int) -> tuple:
    """Packed rows of n columns, w bits each, as tuples."""
    fm, shifts = (1 << w) - 1, range(w * (n - 1), -1, -w)
    return tuple([tuple([(r >> s) & fm for s in shifts]) for r in rows])


def _xor_echelon(rows) -> tuple[int, ...]:
    """The packed _rref: reduced echelon form over F_2, zero rows dropped,
    rows in decreasing order (increasing pivot column).  It runs in two
    phases: _xor_insert puts the rows into a lead table, bit length ->
    row, and _xor_finish back-substitutes.  closure keeps one lead table
    for a whole closure and runs the insertion phase on it round by
    round."""
    return _xor_finish(_xor_insert({}, rows))


def _xor_insert(lead: dict, rows) -> dict:
    """The insertion phase of _xor_echelon: each row is reduced by XOR with
    the row of lead (bit length -> row) at its pivot bit until it is 0 or
    leads a bit lead lacks, where it is kept.  Rows are only added, so the
    span of lead grows by the rows' span.  Returns lead."""
    for r in rows:
        while r:
            b = r.bit_length()
            s = lead.get(b)
            if s is None:
                lead[b] = r
                break
            r ^= s
    return lead


def _xor_finish(lead: dict) -> tuple[int, ...]:
    """The finishing phase of _xor_echelon: the reduced echelon form of the
    rows of lead, rows in decreasing order.  lead is left as it is."""
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
    tagged = [1 << (n - 1 + d)] + [wi << d | 1 << (d - 1 - i) for i, wi in enumerate(w)] + [s << d for s in small]
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


# -- packed rows and elements: the layout, the row and element kernels, the
# -- packed Howell pass --------------------------------------------------------
#
# A row of plain residues (over Z/p^N, or over F_p) packs (_pack) into an int
# with w bits per column, as the F_2 rows do with w = 1, and subrings of
# those rings keep their canonical rows so, in the layout of their ring's
# caps (_layout).  One int multiply of two packed rows forms every
# coefficient of their product (Kronecker substitution), and the right
# shift by w (n - 1) drops the degrees at or past n.  The products stay
# packed through the Howell pass that echelons them (_packed_howell), and
# so do its output rows, the rows closure keeps in its table and a lift
# family's tagged rows.  One width serves a ring's whole quotient chain, so
# a quotient step moves a row by a shift (_RowKernel).  verify's pair scans
# run on packed ring elements (_ElementKernel): in the same layout over
# residue coefficients, and over F_q, q = p^e, e > 1, in one with 2e - 1
# slots for t-degrees per column, so a product in F_p[t][x] is one int
# multiply too; each result is reduced to its one packed form.


class _Layout:
    """Packed rows with column caps caps[j] = p^logs[j], the ring's columns
    and then `tags` tag columns capped at p: w bits per column, column j at
    bit shifts[j] (column 0 most significant), col[b] the column of a row
    of bit length b, low[j] the bits below column j, C[j] the caps of
    columns j..n-1 packed, and mask the caps less one packed when every cap
    is a power of two (p = 2), so that r & mask reduces every column of r at
    once; None otherwise.  One per (p, ring logs, tags), built by _layout.

    The width is the ring's: w = bit_length(2 n cap^2) for the ring's n
    columns, cap its largest cap p^N, the tags aside.  It is the no-carry
    bound of _packed_howell on the ring's rows and their Kronecker products.
    It depends on p, N and n only, so every context of one ring packs a
    subring into the same ints, and a ring and its quotient share it except
    on an n-step where bit_length(2 (n-1) cap^2) < bit_length(2 n cap^2);
    the row kernel repacks exactly there.  Tag columns share the ring's
    width, so a tagged row is its ring row shifted left past the tags.
    They keep the bound where they are used, a lift family's d tags: the d
    rows w_i are rows of m's Howell basis with distinct pivot columns, none
    at column 0 (over a field m has no row there, over Z/p^N its row there,
    p, is a row of the obstruction module too), so d <= n - 1.  The rows
    entering the pass are reduced, below cap^2 / 2 in every column, and a
    column takes at most n + d - 1 reductions of at most (cap - 1) cap
    each (_packed_howell's proof), so it stays below
    (n + d - 1/2) cap^2 < 2 n cap^2 < 2^w."""

    __slots__ = ("p", "caps", "logs", "tags", "w", "shifts", "col", "low", "C", "mask")

    def __init__(self, p: int, logs: tuple, tags: int = 0):
        w = self.w = (2 * len(logs) * p ** (2 * max(logs))).bit_length()
        logs += (1,) * tags
        n = len(logs)
        caps = tuple(p**c for c in logs)
        self.p, self.caps, self.logs, self.tags = p, caps, logs, tags
        self.shifts = tuple(w * (n - 1 - j) for j in range(n))
        self.col = tuple(n - 1 - (b - 1) // w for b in range(n * w + 1))
        self.low = tuple((1 << s) - 1 for s in self.shifts)
        self.C = tuple(_pack(caps[j:], w) for j in range(n))
        self.mask = _pack([c - 1 for c in caps], w) if p == 2 else None

    def scaled(self, r: int, u: int) -> int:
        """u r with every column reduced by its cap, for a row r in the
        layout and u below the largest cap."""
        if self.mask is not None:
            return (r & self.mask) * u & self.mask
        fm = (1 << self.w) - 1
        return sum(((r >> s) & fm) * u % c << s for s, c in zip(self.shifts, self.caps))


@functools.cache
def _layout(p: int, logs: tuple, tags: int = 0) -> _Layout:
    """The one layout of the column caps p^logs and `tags` tag columns,
    shared by every kernel and echelon with those caps.  The cache holds
    one small immutable value per key met: a ring's caps, alone or with a
    lift family's d tag columns."""
    return _Layout(p, logs, tags)


class _RowKernel:
    """A ring's row format and every job that depends on it, picked once
    per ring (_row_kernel) from the ring's facts: packed int rows where
    _packs(ctx), tuple rows over F_q with q = p^e, e > 1.  Each job is one
    attribute, and each takes a whole tuple of rows where it takes rows, so
    a subring pays one call per job:
      - pack(basis), the rows of tuples that pass the ring's entry rule
        (over Z/p^N, N > 1, any residues, reduced into the caps as they
        are packed), and unpack(rows), the tuples (both the identity on
        tuple rows);
      - nu(row), a canonical row's valuation, which names its pivot
        (column and entry, a power of p);
      - one, the row 1, and top, the row x^(n-2): a row below top leads at
        column n-1, and a row below one is 0 in column 0, as packed rows
        order as their tuples do;
      - z, the kernel generator of the step out of the ring, as a row,
        and preimage(rows) and project(rows), the canonical rows of the
        preimage in this ring of the subring one step down with those
        rows (see _preimage), and of the image one step down of the
        subring of this ring with those rows (see project_subring); None
        on the base ring, which has no such step;
      - head, the rows of m before R's rows after the 1: the row p over
        Z/p^N with N > 1 and () over a field, so m's canonical rows are
        head + rows[1:] (see ideal_data);
      - lift_bases(w, small), the lift family's bases (_xor_lift_bases,
        _howell_lift_bases, and _lift_bases on tuple rows);
      - square(m), m^2's canonical basis from the products a b, a before
        or at b, of the rows of m;
      - closure's parts, which closure's one rounds loop runs: start(rows),
        the echelon table of canonical rows, entered as finished;
        insert(table, rows) and finish(table), the two phases of the
        ring's echelon pass; products(new, rows), the products new[i] b,
        b in rows[i:], of a round's new table entries with the table's
        rows, which begin with the new entries, in one comprehension (rows
        is sliced only past its first entry, so a round of one new entry,
        the most common, copies no list).
    The products and the echelon pass are
      - over F_2, on packed rows: XOR products (_xor_mul), and the XOR
        pass, _xor_echelon, its table keyed by bit length (_xor_insert and
        _xor_finish);
      - over residue coefficients, Z/p^N and F_p, where base is p, in the
        layout of the ring's caps: Kronecker products, a b >> cut, masked
        by the caps at p = 2 and otherwise left for the insertion to
        reduce (two rows of the table are reduced, so their product is
        inside _packed_howell's no-carry bound), and the Howell pass,
        _packed_howell (_howell_insert and _howell_finish);
      - over F_q with q = p^e, e > 1, whose products are not residue
        products, on tuple rows: ring mul, and _rref (_rref_insert and
        _rref_finish).
    No job holds the ring's context, which holds the kernel: the tuple
    jobs reach it through a weak reference, so reference counting frees a
    ring.

    A quotient step moves packed rows by a shift.  Over residue
    coefficients a row has w bits per column (_Layout: w = 1 over F_2),
    column j at bit w (n-1-j).  On an n-step the quotient D of this ring R
    has n - 1 columns, R's top column has cap p (over a field, every
    column), and z = x^(n-1) is the row 1; a row of D, in D's width, has
    column j at bit w (n-2-j), so where the widths agree R's row with the
    same entries and 0 in column n-1 is the same int shifted left by w,
    and the projection is the right shift by w, which drops column n-1.
    Where they differ the rows are repacked, column by column.  On a k-step
    D has R's n columns and width, and R's top cap p^k is D's times p, so a
    row of D, its entries below its caps, is the same int as a row of R;
    the projection reduces the low column mod p^(k-1), which is z, and
    z = p^(k-1) x^(n-1) is the int p^(k-1).

    The preimage's rows are the canonical basis of R = lift(B) + span(z),
    B the subring of D: on an n-step B's rows lifted, then z; on a k-step
    the same, unless B's last row leads at column n-1 (a top pivot, a row
    below top), when z is left out.  Proof: the rows are in echelon form,
    B's pivots where B has them and z's at column n-1, each pivot a power
    of p; each entry above a pivot lies in [0, pivot): above B's pivots as
    in B, and in column n-1, without a top pivot, B's entries there are 0
    (n-step) or below D's top cap p^(k-1), z's entry (k-step).  A member
    of R that is 0 left of a column c maps to a member of B that is 0
    there, which B's rows led at or past c span (none for c = n-1, as B
    has no top pivot), and the difference lies in span(z); so the rows
    have the Howell property, and they span R.  On
    a k-step where B has a top pivot, its last row is b = p^a x^(n-1) with
    a < k - 1 (D's top cap is p^(k-1)), the same int in R, and
    z = p^(k-1-a) b lies in lift(B): R = lift(B), whose members alone in
    column n-1 are the multiples of b, so B's rows are R's canonical
    basis."""

    __slots__ = (
        "pack", "unpack", "nu", "head", "one", "top", "z", "preimage", "project", "lift_bases", "square",
        "start", "insert", "finish", "products",
    )

    def __init__(self, ctx: RingCtx):
        n, p, logs = ctx.n, ctx.coeff.p, ctx.caps_log
        packs, xor = _packs(ctx), p == 2 and not ctx.p_image
        if packs:
            L = _layout(p, logs)
            if xor:
                w, pack = 1, lambda basis: tuple(map(_pack, basis))
            else:
                # generators are residues, reduced into the caps as they enter
                w, caps = L.w, L.caps
                pack = lambda basis: tuple([_pack((x % c for x, c in zip(r, caps)), w) for r in basis])
            self.pack = pack
            self.unpack = lambda rows: _unpack(rows, w, n)
            # a canonical row's pivot is p^a at some column c, and its bit
            # length, w (n-1-c) + bit_length(p^a), names it; the domain lists
            # the points (c, a) in that order (c alone over a field)
            pivots = [w * (n - 1 - c) + (p**a).bit_length() for c, log in enumerate(logs) for a in range(log)]
            lengths = dict(zip(pivots, ctx.domain.points))
            self.nu = lambda r: lengths[r.bit_length()]
        else:
            # over F_q a row's valuation is its pivot column
            ring, coeff = weakref.ref(ctx), ctx.coeff
            pack = self.pack = self.unpack = tuple
            self.nu = _lead
        self.head = pack((ctx.monomial(0, ctx.p_image),)) if ctx.p_image else ()
        self.one = pack((ctx.one(),))[0]
        top, z = pack((ctx.monomial(n - 2), kernel_generator(ctx))) if n > 1 else (None, None)
        self.top, self.z, self.preimage, self.project = top, z, None, None
        if not packs:
            # over F_q every step adds column n-1, where z = x^(n-1) adds the
            # last pivot and the image drops the row z
            self.preimage = lambda rows: tuple([r + (0,) for r in rows]) + (z,)
            self.project = lambda rows: tuple([r[:-1] for r in rows if any(r[:-1])])
            self.lift_bases = lambda w, small: _lift_bases(ring(), w, small)
            self.square = lambda m: _rref((c := ring()).coeff, [c.mul(a, b) for i, a in enumerate(m) for b in m[i:]])
            self.start = lambda rows: {_lead(r): r for r in rows}
            self.insert = functools.partial(_rref_insert, coeff)
            self.finish = functools.partial(_rref_finish, coeff)

            def products(new, rows):
                mul = ring().mul
                return [mul(a, b) for i, a in enumerate(new) for b in (rows[i:] if i else rows)]

            self.products = products
            return
        if n > 1 and logs[-1] > 1:
            # a k-step: the quotient's top cap is p^(k-1), z's entry
            self.preimage = lambda rows: rows if rows[-1] < top else rows + (z,)
            self.project = lambda rows: tuple(filter(None, [r - (r & (top - 1)) // z * z for r in rows]))
        elif n > 1 and (xor or _layout(p, logs[:1] * (n - 1)).w == w):
            # an n-step in one width
            self.preimage = lambda rows: tuple([r << w for r in rows]) + (z,)
            self.project = lambda rows: tuple(filter(None, [r >> w for r in rows]))
        elif n > 1:
            # an n-step onto n - 1 columns of a smaller width wb: column j
            # moves between bit wb (n-2-j) there and w (n-1-j) here
            wb = _layout(p, logs[:1] * (n - 1)).w
            cols = [(wb * (n - 2 - j), w * (n - 1 - j), (1 << wb) - 1) for j in range(n - 1)]
            self.preimage = lambda rows: tuple([sum((r >> s & m) << t for s, t, m in cols) for r in rows]) + (z,)
            self.project = lambda rows: tuple(filter(None, [sum((r >> t & m) << s for s, t, m in cols) for r in rows]))
        if xor:
            self.lift_bases = lambda w, small: _xor_lift_bases(n, w, small)
            self.square = lambda m: _xor_echelon([_xor_mul(a, b, n) for i, a in enumerate(m) for b in m[i:]])
            # the lead table keys rows by bit length
            self.start = lambda rows: {r.bit_length(): r for r in rows}
            self.insert, self.finish = _xor_insert, _xor_finish
            self.products = lambda new, rows: [
                _xor_mul(a, b, n) for i, a in enumerate(new) for b in (rows[i:] if i else rows)
            ]
            return
        one, shifts, cut, col, C = self.one, L.shifts, L.shifts[0], L.col, L.C
        # -1 keeps every bit: at odd p no mask reduces a product
        mask = -1 if L.mask is None else L.mask
        self.lift_bases = lambda w, small: _howell_lift_bases(L, one, z, w, small)
        self.square = lambda m: _packed_howell(L, [a * b >> cut for i, a in enumerate(m) for b in m[i:]])
        # each canonical row at its pivot column c, with the table's entry
        # (p^a, C[c] - r, r)
        self.start = lambda rows: {(c := col[r.bit_length()]): (r >> shifts[c], C[c] - r, r) for r in rows}
        self.insert = functools.partial(_howell_insert, L)
        self.finish = functools.partial(_howell_finish, L)
        self.products = lambda new, rows: [
            a * b >> cut & mask for i, (_, _, a) in enumerate(new) for _, _, b in (rows[i:] if i else rows)
        ]


def _row_kernel(ctx: RingCtx) -> _RowKernel:
    if ctx._row_kernel is None:
        ctx._row_kernel = _RowKernel(ctx)
    return ctx._row_kernel


def _less_caps(C: int, slots, width: int, rep: int):
    """r -> r less C's entry in every slot holding at least that entry, for
    r whose slots (width bits at each shift in slots) lie below twice C's
    entries, every slot at once.  With h the bit length of 2 cap - 1 for
    the largest cap, adding 2^h - cap to a slot holding v < 2 cap gives
    v + 2^h - cap < 2^(h+1), which sets bit h exactly when v >= cap; those
    bits, moved to the slot bottoms and filled out, mask the caps to
    subtract.  The slots of _ElementKernel's layouts are at least h + 1
    bits wide, so nothing carries between them.  With rep = sum of
    2^(k S), the constants are replicated for r holding one element at
    each bit k S (a row); the bits are masked before they move, so nothing
    moves between the elements either."""
    fill = (1 << width) - 1
    h = (2 * max((C >> s) & fill for s in slots) - 1).bit_length()
    H = sum(1 << s for s in slots) << h
    K, H, C = (H - C) * rep, H * rep, C * rep
    return lambda r: r - ((((r + K) & H) >> h) * fill & C)


class _ElementKernel:
    """Packed arithmetic on a ring's elements, for scans over every pair of
    them, verify's valuation suite, its one user: pack and unpack, mul and
    scaled (u, a) -> u a on packed elements, and the row ops below.  Every
    packed element is reduced, so two are equal exactly when the elements
    are, and 0 is 0.
    Picked from the ring's facts, once per ring (_element_kernel):
      - residue coefficients (base is p: F_p, Z/p and Z/p^N) take the
        layout of the ring's caps, _layout: a product is one int multiply
        and the shift that drops the degrees at or past n, reduced by
        L.scaled(r, 1), a mask at p = 2;
      - F_q with q = p^e, e > 1, packs each coefficient's base-p digits
        into 2e - 1 t-slots of ws bits per x-column, so that one int
        multiply forms the product in F_p[t][x] (bivariate Kronecker
        substitution).  A product folds its t-degrees s >= e down by
        t^s = t^(s-e) (t^e - modulus), with the coefficients of
        t^e - modulus taken in [0, p), every x-column at once; then every
        slot is reduced mod p: by a mask at p = 2, else column by column,
        each column's reduction cached as it is met.
    The row ops' sums are a + b and their differences a + C - b, C the
    caps packed, each below twice the caps in every slot: a mask reduces
    them at p = 2, and one conditional subtraction of C in every slot at
    once otherwise (_less_caps).

    No slot carries into the next: a product's slots are at most
    B = n e (p - 1)^2, and folding slot 2e-2-j, at most B p^j, into the
    slots below leaves each at most B p^(e-1) < 2^ws.

    The row ops form one element's products, sums or differences with a
    whole row of others, a valuation class in verify's scans:
    pack_row(elems) packs the row once, and mul_row(a, row, i),
    add_row(a, row, i) and sub_row(a, row, i) return the lists [a b],
    [a + b] and [a - b] over the row's elements from position i on.  A
    row is one int, element k at bit k S, the stride S a whole number of
    64-bit words; one multiply or add forms every slot, the cut, the folds
    and the reduction act on every slot at once with their constants
    replicated (times ones = sum of 2^(k S)), and the slots come back as
    native words, two or more per element wider than 64 bits.  No slot
    spills into the next: with c the bits of one x-column, a product of
    two reduced elements spans 2n - 1 columns, (2n - 1) c bits, before the
    cut, and S >= (2n - 1) c.  The cut shifts every slot down by
    (n - 1) c, so what it drops from slot k + 1 lands in bits
    [S - (n - 1) c, S), inside [n c, S), of slot k: above slot k's
    element, where the folds read nothing and the replicated mask clears
    it.  Sums and differences, a + b and a + C - b per slot, stay inside
    their n c bits.  Products are rows only at p = 2; at odd p, where no
    bitwise step reduces a product, mul_row is the pairwise mul over the
    row, and sums and differences take _less_caps replicated."""

    __slots__ = ("pack", "unpack", "mul", "scaled", "pack_row", "add_row", "sub_row", "mul_row")

    def __init__(self, ctx: RingCtx):
        n, coeff = ctx.n, ctx.coeff
        p = coeff.p
        if ctx.base == p:
            L = _layout(p, ctx.caps_log)
            w, shifts, C = L.w, L.shifts, L.C[0]
            cut, fm = shifts[0], (1 << w) - 1
            self.pack = lambda a: _pack(a, w)
            self.unpack = lambda r: tuple([(r >> s) & fm for s in shifts])
            scaled, mask = L.scaled, L.mask
            reduce = mask.__and__ if mask is not None else lambda r: scaled(r, 1)
            self.scaled = lambda u, a: scaled(a, u)
            slots, width, column_bits = shifts, w, w
            fold = firsts = None
        else:
            e = coeff.e
            ws = (n * e * (p - 1) ** 2 * p ** (e - 1)).bit_length()
            cw = (2 * e - 1) * ws
            col_shifts = [cw * (n - 1 - j) for j in range(n)]
            cut = col_shifts[0]
            slot = (1 << ws) - 1
            # slot 0 of every column, and the shift of every slot below t^e
            firsts = slot * sum(1 << s for s in col_shifts)
            slots = [s + ws * i for s in col_shifts for i in range(e)]
            C = sum(p << d for d in slots)
            mask = sum(1 << d for d in slots) if p == 2 else None
            # t^s for s >= e, highest first: (its shift, t^(s-e) (t^e - modulus))
            minus = [-m % p for m in coeff.modulus[:e]]
            folds = [
                (ws * s, sum(c << ws * (s - e + i) for i, c in enumerate(minus)))
                for s in range(2 * e - 2, e - 1, -1)
            ]
            spread = [sum(d << ws * i for i, d in enumerate(coeff.coeffs(c))) for c in range(coeff.q)]
            gather = {v: c for c, v in enumerate(spread)}
            colmask = (1 << cw) - 1
            self.pack = lambda a: _pack(map(spread.__getitem__, a), cw)
            self.unpack = lambda r: tuple([gather[(r >> s) & colmask] for s in col_shifts])

            def fold(r, firsts=firsts):
                for sh, t in folds:
                    v = (r >> sh) & firsts
                    r += v * t - (v << sh)
                return r

            if mask is not None:
                reduce = lambda r: fold(r) & mask
            else:
                @functools.cache
                def column(v):
                    # a column at shift 0 folded, then its slots reduced mod p
                    v = fold(v)
                    return sum([((v >> d) & slot) % p << d for d in slots[-e:]])

                reduce = lambda r: sum([column((r >> s) & colmask) << s for s in col_shifts])
            self.scaled = lambda u, a: reduce(a * spread[u])
            width, column_bits = ws, cw
        # fixes(rep): the reduction of sums a + b and differences a + C - b,
        # its constants replicated by rep
        if mask is not None:
            fixes = lambda rep: (mask * rep).__and__
        else:
            fixes = functools.partial(_less_caps, C, slots, width)
        mul = self.mul = lambda a, b: reduce(a * b >> cut)
        # 64-bit words per row slot (64 words >= (2n - 1) c bits) and per
        # reduced element
        words = -(-(cut + n * column_bits) // 64)
        size = -(-(n * column_bits) // 64)
        stride, nbytes = 64 * words, 8 * words
        one = (1).to_bytes(nbytes, "little")
        order = sys.byteorder

        def pack_row(elems):
            # (the elements, packed, ones, fix and the folds' firsts
            # replicated by ones)
            ones = int.from_bytes(one * len(elems), "little")
            packed = int.from_bytes(b"".join([b.to_bytes(nbytes, "little") for b in elems]), "little")
            return elems, packed, ones, fixes(ones), firsts and firsts * ones

        def row_op(form):
            # form(a, B, ones, row) is the packed, reduced row of results
            # over B's slots, ones their ones
            def op(a, row, i=0):
                B, ones, count = row[1], row[2], len(row[0]) - i
                if i:
                    B, ones = B >> i * stride, ones >> i * stride
                view = memoryview(form(a, B, ones, row).to_bytes(nbytes * count, order)).cast("Q")
                if order == "big":
                    # the native words, most significant first
                    view = view[::-1]
                out = view[size - 1 :: words].tolist()
                for j in range(size - 2, -1, -1):
                    high = map(operator.lshift, out, itertools.repeat(64))
                    out = list(map(operator.or_, high, view[j::words].tolist()))
                return out

            return op

        add_row = row_op(lambda a, B, ones, row: row[3](a * ones + B))
        sub_row = row_op(lambda a, B, ones, row: row[3]((a + C) * ones - B))
        if mask is None:
            # no bitwise reduction of products
            mul_row = lambda a, row, i=0: [mul(a, b) for b in row[0][i:]]
        elif fold is None:
            mul_row = row_op(lambda a, B, ones, row: row[3](a * B >> cut))
        else:
            mul_row = row_op(lambda a, B, ones, row: row[3](fold(a * B >> cut, row[4])))
        self.pack_row, self.add_row, self.sub_row, self.mul_row = pack_row, add_row, sub_row, mul_row


def _element_kernel(ctx: RingCtx) -> _ElementKernel:
    if ctx._element is None:
        ctx._element = _ElementKernel(ctx)
    return ctx._element


def _packed_howell(L: _Layout, rows) -> tuple:
    """The Howell form (over F_p, the reduced echelon form) of packed rows
    in the layout L, packed rows in column order.  Without tag columns the
    n columns hold integers in [0, n (cap - 1)^2], cap the largest of L's
    caps: the Kronecker bound on the coefficients of a product of two
    reduced rows (the m^2 kernel and closure's products, _RowKernel), and
    above every entry of a reduced row (canonicalize, closure's
    generators); with them, the rows are reduced
    (_Layout gives their bound).  It runs in two phases: _howell_insert
    puts the rows into a table of pivot rows, column c -> (pivot entry p^a,
    C[c] - P, P), and _howell_finish back-reduces the table.  closure
    keeps one table for a whole closure and runs the insertion phase on it
    round by round.

    Each row is inserted into the table.  Its lead column c is read off its
    bit length.  A lead entry that is 0 mod caps[c] is cleared by masking
    it off.  Otherwise, with a pivot P of entry p^a at c and v = the entry
    mod caps[c] divisible by p^a, the row gains (v / p^a) (C[c] - P): that
    is the row less (v / p^a) P in every column, and it leaves an exact
    multiple of caps[c] at c, which the mask clears.  A row with no pivot
    at c, or of lower valuation there, becomes the pivot: normalized so its
    entry is p^b, its columns reduced, and its annihilator
    p^(logs[c] - b) row queued; the pivot it displaces goes on being
    inserted.  The output rows, in column order, each reduce the rows
    above them into [0, pivot) at their column.

    The insertion keeps the span: it adds multiples of pivots, scales by
    units and queues multiples of pivots, so the table's span grows by the
    rows'.  Its output has the Howell property.  The final pivot P at c,
    entry p^b, had its annihilator p^(logs[c] - b) P queued (unless it is
    0, when b = 0), or stood in the table before the insertion began, in a
    table with the Howell property (closure's start, a canonical basis),
    where that annihilator already lies in the span of the rows led past
    c.  It is 0 at c, so it lies in the span of the final rows led past c
    (a row led past c leaves the table only to be reduced by one led past
    c, so their span only grows).  Then a member led at or past c is a sum
    of rows led at or past c: in a sum of the rows, a first row led before
    c has a coefficient that kills its pivot, so it contributes a multiple
    of its annihilator.  So the output is the Howell form, which is unique
    (Howell, Spans in the module (Z_m)^s, 1986).

    No column carries into the next, as w = bit_length(2 n cap^2), n and
    cap as above (tag columns aside, see _Layout).  Proof: a row enters with columns at most n (cap - 1)^2
    (a reduced row, or a product of two), (cap - 1) cap / p (an annihilator
    p^(logs[c] - b) P, b >= 1, of a reduced P) or cap - 1 (a displaced
    pivot, reduced).  A reduction at the lead column c adds
    (v / p^a)(caps[j] - P[j]) <= (cap - 1) cap to each column j past c, a
    tag column too, and moves the lead past c, so a column takes at most
    n - 1 of them and stays below
    max(n (cap - 1)^2, cap^2 / 2) + (n - 1)(cap - 1) cap < 2 n cap^2 < 2^w.
    Only the lead column grows past that, inside one step, and the mask
    clears it whole."""
    return _howell_finish(L, _howell_insert(L, {}, rows))


def _howell_insert(L: _Layout, table: dict, rows) -> dict:
    """The insertion phase of _packed_howell: the rows inserted into table,
    column -> (pivot entry p^a, C[c] - P, P), which it returns."""
    p, caps, logs, shifts, col, low, C = L.p, L.caps, L.logs, L.shifts, L.col, L.low, L.C
    work = [r for r in rows if r]
    while work:
        r = work.pop()
        while r:
            c = col[r.bit_length()]
            v = (r >> shifts[c]) % caps[c]
            if not v:
                r &= low[c]
                continue
            piv = table.get(c)
            if piv is not None and not v % piv[0]:
                r = (r + v // piv[0] * piv[1]) & low[c]
                continue
            b, u = 0, v
            while not u % p:
                u //= p
                b += 1
            new = L.scaled(r, pow(u, -1, caps[c]))
            table[c] = (p**b, C[c] - new, new)
            if b:
                work.append(new * p ** (logs[c] - b))
            r = piv[2] if piv is not None else 0
    return table


def _howell_finish(L: _Layout, table: dict) -> tuple:
    """The finishing phase of _packed_howell: the table's rows in column
    order, packed, each reducing the rows above it into [0, pivot) at its
    column.  A row r above the pivot P at c, entry p^a, with v its entry
    there, becomes r + (v / p^a)(C[c] - P) with every column reduced by its
    cap: C[c] - P is 0 left of c and has no negative column, as P is
    reduced, each column stays below cap + (cap - 1) cap < 2^w, and the
    result is r - (v / p^a) P reduced, v mod p^a at c.  table is left as it
    is."""
    shifts, fm = L.shifts, (1 << L.w) - 1
    out = []
    for c in sorted(table):
        pa, neg, P = table[c]
        for i, r in enumerate(out):
            mfac = ((r >> shifts[c]) & fm) // pa
            if mfac:
                out[i] = L.scaled(r + mfac * neg, 1)
        out.append(P)
    return tuple(out)


def _howell_lift_bases(L: _Layout, one: int, z: int, w, small) -> list:
    """The packed _lift_bases over residue coefficients, Z/p^N and F_p, on
    rows in the ring's layout L, one the row 1 and z the kernel generator
    p^(k-1) x^(n-1), the int p^(k-1).  The tag of w_i is the tag column i,
    past the ring's columns in the same width (_layout(p, logs, d), whose
    no-carry bound is _Layout's), so a tagged row is its ring row shifted
    left by d w, plus its tags, and a ring row is the right shift back.
    Tags are read mod p, so F_p's tables give f (_lifts), and a row's entry
    v < p^k in column n-1 becomes v - f p^(k-1) mod p^k, f p^(k-1) being
    below p^k."""
    p, ww, d, dw = L.p, L.w, len(w), len(w) * L.w
    tagged = [one << dw] + [wi << dw | 1 << ww * (d - 1 - i) for i, wi in enumerate(w)] + [s << dw for s in small]
    echeloned = _packed_howell(_layout(p, L.logs, d) if d else L, tagged)
    if any(row.bit_length() <= dw + ww for row in echeloned):
        raise InvariantViolation("the kernel column of a lift family carries a pivot")
    fm, cap = (1 << ww) - 1, L.caps[-1]
    # each row's tag digits, first tag first, where it has any
    digits = [[(row >> ww * j) & fm for j in range(d - 1, -1, -1)] for row in echeloned]
    tags = [(i, t) for i, t in enumerate(digits) if any(t)]
    edit = lambda r, f: r - f * z + (cap if (r & fm) < f * z else 0)
    return _lifts([row >> dw for row in echeloned], tags, d, _prime_field(p), edit)


# -- subrings ----------------------------------------------------------------


class Subring:
    """A unital, multiplicatively closed module, held by canonical basis.
    The constructor takes that basis and does not check it; closure builds
    a subring from any generators.

    _rows is the canonical basis as the ring's row kernel holds it
    (_RowKernel): packed ints where the coefficients are residues (Z/p^N
    and F_p), the basis tuples over F_q with q = p^e, e > 1.  The
    constructor packs the basis it is given; _from_rows, the constructor of
    every subring the walk, closure and project_subring make, takes rows
    the kernel made.  basis gives the tuples, unpacked on first read.

    The cotangent dimension and the exponent points, as a mask in the
    domain's bit layout (shapes._PointLayout), are memoised: the prime
    ring and every subring the quotient-chain walk makes carry them (see
    restricted_extension and _preimage), and any other subring computes
    them, with cotangent_dim and _points_of_rows, on first use.
    """

    __slots__ = ("ctx", "_rows", "_basis", "_cotangent", "_points")

    def __init__(self, ctx: RingCtx, basis, cotangent: int | None = None, points: int | None = None):
        self.ctx = ctx
        self._basis = tuple(map(tuple, basis))
        self._rows = _row_kernel(ctx).pack(self._basis)
        self._cotangent = cotangent
        self._points = points

    @classmethod
    def _from_rows(cls, ctx: RingCtx, rows: tuple, cotangent: int | None = None, points=None):
        """The subring with these canonical rows, as ctx's row kernel holds
        them."""
        S = cls.__new__(cls)
        S.ctx, S._rows, S._basis, S._cotangent, S._points = ctx, rows, None, cotangent, points
        return S

    @classmethod
    def prime_ring(cls, ctx: RingCtx) -> "Subring":
        """The span of 1: the image of the prime coefficient ring.  (1,) is
        its canonical basis, its m/(m^2 + pR) is 0, and its valuations are
        the domain's zero column: 0, or (0, 0), ..., (0, N-1) over Z/p^N,
        where p^j has valuation (0, j)."""
        return cls._from_rows(ctx, (_row_kernel(ctx).one,), 0, ctx.domain.zero_column_mask)

    @property
    def basis(self) -> tuple[Element, ...]:
        if self._basis is None:
            self._basis = _row_kernel(self.ctx).unpack(self._rows)
        return self._basis

    def contains(self, v: Element) -> bool:
        return in_row_span(self.ctx, self.basis, v)

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

    def _key(self):
        """The order of subrings, (log size, basis) as (size, basis), without
        building the tuples: packed rows order as their tuples do."""
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


def closure(ctx, gens) -> Subring:
    """Smallest unital subring containing the generators.  ctx is either
    the ring, whose prime ring the generators are adjoined to, or a
    subring S of it, to which they are adjoined (closure_bfs's step).  One
    rounds loop closes on every row format; the ring's _RowKernel holds
    the parts that depend on it: the start table, the two phases of its
    echelon pass and the products of a round.

    Only products not formed before are formed, and the echelon table is
    kept from round to round, so only the fresh rows are inserted.  The
    table starts as the canonical basis of S, or of the prime ring, which
    is closed, entered as a finished table, with no insertion: a canonical
    basis has the Howell property, so every annihilator that was never
    queued already lies in the span of the rows led past its column, as
    _packed_howell's proof needs.  Each generator is reduced into the
    column caps as the kernel packs it.

    The invariant: with T the table's span and F the fresh rows,
    T^2 ⊆ T + span(F), first with F the generators.  A round inserts F,
    and N is the table entries new after it, read against a snapshot of
    the entries taken before it; K, the old entries still in the table,
    lie in T_old.  An insertion phase only adds keys, which the table's
    order puts last, or replaces the entry of a key in place (the Howell
    pass, where a smaller pivot displaces a row), so the entries extend
    the snapshot position by position: where their first len(snapshot)
    match it, one list compare, N is the entries past it, and otherwise
    the entries that differ from the snapshot, by identity, and those past
    it.  If N is empty the table did not change, so T is closed and is
    the result, finished into its canonical basis.  Otherwise
    T_new = T_old + span(F) and T_old^2 ⊆ T_new, so
    T_new^2 = span(K)^2 + span(N) T_new ⊆ T_new + span(N x rows), rows
    every table row but the first, the pivot row of column 0.  That row is
    1, first in the start table as the first row of a canonical basis, and
    no row displaces it, as 1 divides every entry; its products are their
    other factor, already in the table.  The next fresh rows are the
    products N[i] b, b in rows[i:], with rows listing N first and then
    K's rows but the 1: the ring is commutative, so N[j] N[i] = N[i] N[j]
    for j > i, and those products span N x rows, each unordered pair of
    new entries formed once.  Every member of the result is a sum of
    products of the generators and of members of the start, so it lies in
    every subring containing them.  Only the generators are checked; later
    rows are reduced or products."""
    if isinstance(ctx, Subring):
        S, ctx = ctx, ctx.ctx
    else:
        S = Subring.prime_ring(ctx)
    gens = list(gens)
    ctx._check(*gens)
    K = _row_kernel(ctx)
    table, fresh = K.start(S._rows), K.pack(gens)
    while True:
        old = list(table.values())
        K.insert(table, fresh)
        entries, k = list(table.values()), len(old)
        if entries[:k] == old:
            new, kept = entries[k:], old[1:]
        else:
            new = [e for e, o in zip(entries, old) if e is not o] + entries[k:]
            kept = [o for e, o in zip(entries, old) if e is o][1:]
        if not new:
            return Subring._from_rows(ctx, K.finish(table))
        fresh = K.products(new, new + kept)


def project_subring(S: Subring, dst: RingCtx) -> Subring:
    """Image of a subring under the one-step quotient map, its canonical
    basis written down by the row kernel of S's ring: S's rows projected
    (packed ones shifted right by one column, or on a k-step their low
    column reduced mod p^(k-1)), the one that becomes 0 dropped.  The step
    keeps the columns below n-1 with their caps, pivots and entries above
    pivots; column n-1 goes, or on a Z k-step its cap falls from p^k to
    p^(k-1).  Over a field the row with pivot n-1 is x^(n-1) itself; over
    Z a top pivot p^(k-1) vanishes (k = 1 on an n-step), a top pivot p^a,
    a < k - 1, stays with the entries above it below p^a, and without a top
    pivot the top entries are reduced into the new cap.  The Howell property (Howell, Spans in the
    module (Z_m)^s, 1986) holds: an image member 0 left of a column c < n-1
    lifts to one of S, spanned by S's rows from pivot c on, and no nonzero
    member only in the top column appears: it lifts to a multiple of S's."""
    if quotient_ctx(S.ctx) != dst:
        raise NotAQuotient(f"{dst!r} is not the one-step quotient of {S.ctx!r}")
    return Subring._from_rows(dst, _row_kernel(S.ctx).project(S._rows))


def _point_mask(S: Subring) -> int:
    """The mask of S's valuation points, memoised: the walk carries it
    (see _preimage and lift_isomorphic), and any other subring reads it
    off its rows (_points_of_rows) on first use."""
    if S._points is None:
        S._points = _points_of_rows(S)
    return S._points


def _points_of_rows(S: Subring) -> int:
    """The mask of the valuation points read off the canonical basis: each
    row contributes its own valuation and, when p != 0, those of its
    multiples by powers of p that keep the pivot.  The row kernel's nu
    reads a row's valuation."""
    ctx = S.ctx
    pts = list(map(_row_kernel(ctx).nu, S._rows))
    if ctx.p_image:
        pts += [(c, b) for c, a in pts for b in range(a + 1, ctx.caps_log[c])]
    return ctx.domain.mask_of(pts)


def exponent_set(S: Subring) -> Shape:
    """Valuations of the nonzero members, as the walk carries them or read
    off the canonical basis (_point_mask).

    Over a field these are exactly the pivot columns; over Z/p^N each row
    with pivot p^a in column c contributes the points (c, a), ..., up to
    the cap of that column.
    """
    return Shape.of_mask(S.ctx.domain, _point_mask(S))


# -- ideals and cotangent data ------------------------------------------------


@dataclass
class IdealData:
    """Canonical bases for the maximal ideal m of ring, its square, and the
    obstruction module (m^2 over a field, m^2 + pR = m^2 + (p) in mixed
    characteristic), held as the row kernel of ring's context holds rows
    (see Subring); max_ideal, square and small give them as tuples."""

    ring: Subring
    square_rows: tuple
    small_rows: tuple

    ctx = property(lambda self: self.ring.ctx)

    @property
    def max_rows(self) -> tuple:
        """m's canonical basis.  The ring's rows[0] is 1, the reduced
        member of 1 + span(rows[1:]), so m is rows[1:] over a field and
        span(p, rows[1:]) over Z/p^N.  The row p is reduced against the
        others, and a multiple of it that clears column 0 is zero, so this
        basis is in Howell form with no echelon pass."""
        return _row_kernel(self.ctx).head + self.ring._rows[1:]

    def _tuples(self, rows) -> tuple[Element, ...]:
        return _row_kernel(self.ctx).unpack(rows)

    max_ideal = property(lambda self: self._tuples(self.max_rows))
    square = property(lambda self: self._tuples(self.square_rows))
    small = property(lambda self: self._tuples(self.small_rows))


def ideal_data(S: Subring) -> IdealData:
    K = _row_kernel(S.ctx)
    # m's rows as IdealData.max_rows reads them
    sq = K.square(K.head + S._rows[1:])
    if not S.ctx.p_image:
        return IdealData(S, sq, sq)
    # m^2 + pR = m^2 + (p), since p rows[i] lies in m^2 for i >= 1.  Column
    # 0 of m^2 holds multiples of p^2 only, so the row p, then the rows of
    # m^2 that are 0 there (the rows below the row 1), is the Howell form of
    # m^2 + (p)
    small = K.head + tuple([r for r in sq if r < K.one])
    return IdealData(S, sq, small)


def cotangent_dim(S: Subring) -> int:
    """Dimension of m/m^2 over the residue field (of m/(m^2 + pR) over F_p
    in mixed characteristic), computed directly from ideal_data(S).
    Subring.cotangent memoises it."""
    data = ideal_data(S)
    return _span_logsize(S.ctx, data.max_rows) - _span_logsize(S.ctx, data.small_rows)


# -- one-step extensions and lifting ------------------------------------------


@dataclass
class MinimalExtension:
    """A one-step quotient src -> dst restricted to src = preimage of dst,
    with the kernel generated by kernel_gen, the kernel generator of
    src's ring (which the ring keeps); src_ideal is ideal_data(src),
    kept from the m^2 pass that decided kernel_in_small, or computed on
    first read where the valuation test decided it without one.
    restricted_extension builds it."""

    src: Subring
    dst: Subring
    kernel_in_small: bool
    _ideal: IdealData | None = field(default=None, repr=False, compare=False)

    kernel_gen = property(lambda self: kernel_generator(self.src.ctx))

    @property
    def src_ideal(self) -> IdealData:
        if self._ideal is None:
            self._ideal = ideal_data(self.src)
        return self._ideal


def _preimage(B: Subring) -> Subring:
    """The preimage R of B under the one-step quotient onto B's ring, its
    canonical basis written down from B's rows by the row kernel of R's
    ring: B's rows lifted, then the kernel generator z, which is left out
    on a k-step where B has a pivot in the top column (_RowKernel).

    R carries its exponent points: B's mask with the bit of nu(z), the
    largest point of R's domain, set; the domains along a quotient chain
    share their layout, whose positions depend on N alone.  Proof: R maps
    onto B with kernel span(z), z the step's kernel generator, whose
    nonzero members all have valuation nu(z).  The quotient map keeps the
    valuation of every member outside span(z), so R's valuations are B's
    plus nu(z), the point the quotient step drops."""
    src_ctx = extension_ctx(B.ctx)
    points = _point_mask(B) | src_ctx.domain.top_bit
    return Subring._from_rows(src_ctx, _row_kernel(src_ctx).preimage(B._rows), points=points)


def _kernel_is_a_product(R: Subring) -> bool:
    """Whether nu(z), z the kernel generator of the step out of R's ring,
    is a sum of two valuations of members of m_R: whether R's point mask
    holds one of the domain's split masks (top_splits).  When it is, z
    lies in m_R^2.

    Proof: valuations add inside the domain.  Over F_q, nu(ab) =
    nu(a) + nu(b) when that is below n.  Over Z/p^N, with nu(a) = (c, α)
    and nu(b) = (d, β), ab is 0 below column c + d and holds
    p^(α+β) times a unit there, which is nonzero exactly when (c + d, α + β)
    is a point of the grid.  The members of R with a nonzero valuation are
    the members of m_R, so if nu(z) = u + v with u, v nonzero points of R,
    some product ab of members of m_R has valuation nu(z).  It is then
    alone in column n-1, where z is, so ab is a unit multiple of z and z
    lies in m_R^2 ⊆ m_R^2 + pR.  The unit point 0 is no summand: every
    point is 0 + itself, and no member of valuation 0 lies in m_R."""
    m = _point_mask(R)
    # a loop, not any(): the walk runs this once per extension
    for uv in R.ctx.domain.top_splits:
        if m & uv == uv:
            return True
    return False


def _extension(B: Subring, R: Subring, in_small: bool, data: IdealData | None = None) -> MinimalExtension:
    """The extension R -> B, R = _preimage(B), with its kernel bit and,
    when given, data = ideal_data(R)."""
    R._cotangent = B.cotangent + (not in_small)
    return MinimalExtension(R, B, in_small, data)


def restricted_extension(B: Subring) -> MinimalExtension:
    """The preimage R of B under the one-step quotient onto B's ring,
    packaged as the extension R -> B.

    The kernel bit, whether z lies in the obstruction module m_R^2 + pR,
    is decided here, the one place: by the valuation test
    (_kernel_is_a_product) where it fires, which needs no echelon pass and
    leaves ideal_data(R) to the first read of src_ideal, and by the m^2
    pass otherwise.  z = p^(k-1) x^(n-1) (x^(n-1) over a field) is a
    multiple of every nonzero element with column n-1 alone, so the
    obstruction module holds z iff it has a member led by column n-1, iff
    its canonical basis has a pivot there.

    R carries its cotangent dimension d(R) = d(B) + [z not in m_R^2 + pR].
    Proof: R -> B is onto with kernel span(z), and it maps m_R onto m_B,
    m_R^2 onto m_B^2 and pR onto pB, so it induces a surjection
    m_R/(m_R^2 + pR) -> m_B/(m_B^2 + pB).  An element of m_R maps into
    m_B^2 + pB iff it lies in m_R^2 + pR + span(z), so the kernel is the
    image of span(z): 0 when z lies in m_R^2 + pR, else one-dimensional,
    as m z = 0.
    """
    R = _preimage(B)
    if _kernel_is_a_product(R):
        return _extension(B, R, True)
    data = ideal_data(R)
    small = data.small_rows
    return _extension(B, R, bool(small) and small[-1] < _row_kernel(R.ctx).top, data)


@dataclass
class LiftFamily:
    """The subrings of ext.src mapping isomorphically onto ext.dst."""

    extension: MinimalExtension
    exists: bool
    dim: int
    lifts: tuple[Subring, ...]


def _lift_bases(ctx: RingCtx, w, small) -> list:
    """Canonical bases of span(1, w_1 - c_1 z, ..., w_d - c_d z, small), one
    per scalar tuple c, in itertools.product order, over a field with tuple
    rows (F_q, q = p^e, e > 1), where z = x^(n-1).

    One canonical basis of span(1, w_1, ..., w_d, small) is computed, with d
    tag columns holding each row's coefficient on w_i.  The lift for c is
    the image of that module under v -> v - f_c(v) z, where f_c(v) is the
    sum of c_i times v's tags (_lifts).  The lifts meet the kernel only in
    0, so the kernel column n-1 never carries a pivot, and editing that
    column row by row keeps the normal form.
    """
    n, d = ctx.n, len(w)
    tagged = [ctx.one() + (0,) * d] + [wi + tuple(int(i == j) for j in range(d)) for i, wi in enumerate(w)]
    tagged += [s + (0,) * d for s in small]
    basis = _rref(ctx.coeff, tagged)
    if any(_lead(row) >= n - 1 for row in basis):
        raise InvariantViolation("the kernel column of a lift family carries a pivot")
    add, neg = ctx.coeff.tables[:2]
    tags = [(i, row[n:]) for i, row in enumerate(basis) if any(row[n:])]
    return _lifts([row[:n] for row in basis], tags, d, ctx.coeff, lambda r, f: r[:-1] + (add[r[-1]][neg[f]],))


def _lifts(rows, tags, d: int, K: FieldCtx, edit) -> list:
    """The lift bases of a lift family from its echeloned rows, one per
    scalar tuple c in K^d, K the residue field, in itertools.product order:
    lift c has each row i with tags t, (i, t) in tags, edited by
    f_c = sum c_j t_j, edit(r, f) being r less f z, and the other rows as
    they are, shared between the lifts."""
    add, _, mul, _ = K.tables
    out = [list(rows) for _ in range(K.q**d)]
    for i, t in tags:
        # f_c(row i) for every c, in itertools.product order
        fs = [0]
        for ti in t:
            fs = [add[f][mul[ti][c]] for f in fs for c in range(K.q)]
        edited = [rows[i]] + [edit(rows[i], f) for f in range(1, K.q)]
        for lift, f in zip(out, fs):
            lift[i] = edited[f]
    return list(map(tuple, out))


@functools.cache
def _prime_field(p: int) -> FieldCtx:
    """F_p, the residue field of Z/p^N, built once per p."""
    return FieldCtx(p)


def _lift_complement(ctx: RingCtx, data: IdealData) -> list:
    """Rows of m's canonical basis spanning a complement of (small + z) in m,
    z the kernel generator, for z outside small.  m / (small + z) is a
    vector space over the residue field, so the rows whose pivot is not
    one of (small + z)'s pivots form a complement.  With z outside small,
    small has no pivot in the top column (see restricted_extension), so
    adding z adds z's pivot there and changes no other.  The row kernel
    holds z and reads the pivots, as valuations: on canonical rows, whose
    pivots are powers of p, the valuation names the pivot."""
    K = _row_kernel(ctx)
    grown = {*map(K.nu, data.small_rows), K.nu(K.z)}
    return [r for r in data.max_rows if K.nu(r) not in grown]


def _checked_complement(ext: MinimalExtension) -> list:
    """The lift complement of an unobstructed extension (_lift_complement),
    checked against the carried d(dst): the family's base^d(dst) lifts,
    built or counted, rest on its having d(dst) rows."""
    d = ext.dst.cotangent
    w = _lift_complement(ext.src.ctx, ext.src_ideal)
    if len(w) != d:
        raise InvariantViolation(f"complement of size {len(w)} for target cotangent dimension {d}")
    return w


def lift_isomorphic(ext: MinimalExtension) -> LiftFamily:
    """Compute the lift family of a minimal one-step extension.

    Lifts exist iff the kernel generator z stays out of the obstruction
    module; they then form an affine family indexed by scalar tuples of
    length dim = cotangent_dim(dst): pick module generators w_1, ..., w_d
    of the maximal ideal modulo (obstruction + z), and send each tuple
    (c_1, ..., c_d) to the span of 1, the w_i - c_i z, and the obstruction
    module.  Every lift is isomorphic to dst and carries its cotangent
    dimension and its exponent points.  An obstructed extension reads no
    ideal data.
    """
    d = ext.dst.cotangent
    if ext.kernel_in_small:
        return LiftFamily(ext, False, d, ())
    ctx = ext.src.ctx
    w = _checked_complement(ext)
    # a lift maps onto dst isomorphically and meets span(z) only in 0, so
    # it keeps the valuations of dst (see _preimage)
    points = _point_mask(ext.dst)
    bases = _row_kernel(ctx).lift_bases(w, ext.src_ideal.small_rows)
    lifts = [Subring._from_rows(ctx, b, d, points) for b in bases]
    if len({L._rows for L in lifts}) != len(lifts):
        raise InvariantViolation("lifts must be pairwise distinct")
    # the lifts all have B's size, so their rows alone give Subring order
    return LiftFamily(ext, True, d, tuple(sorted(lifts, key=lambda L: L._rows)))


# -- enumeration ---------------------------------------------------------------


def _enumerate_subspace_scan(ctx) -> list[Subring]:
    """Top-down orderly generation of the subrings of a field ring (Read,
    Every one a winner, 1978; McKay, Isomorph-free exhaustive generation,
    1998): every node of the search is a subring, and every subring is
    exactly one node.

    A unital subring S is F_q 1 + T, T a multiplicatively closed subspace
    of (x).  A node is the reduced echelon basis rows of a closed subspace
    of (x); it stands for the subring with canonical basis (1,) + rows, so
    no node calls canonicalize.  The root is rows = (), the prime ring.

    A child adds one row r with pivot c below the node's lowest pivot: 1
    at column c, 0 left of it and at the node's pivot columns, any value
    in the other columns above c.  The child is kept when r r and every
    r s, s in rows, reduce to 0 against rows.  Before any r is formed,
    the prune skips c when 2c or some c + u, u a pivot of rows, is below
    n and not a pivot: over a field val(r s) = c + val(s) when that is
    below n, and the members of span(rows) have valuations among its
    pivots, so no r with that c passes the test.

    Every node is closed.  r r and the r s lie in (x^(c+1)), and the
    members of span(r, rows) there are those of span(rows), whose column
    c is 0.  So the test holds exactly when the products of r lie in
    span(r, rows); the products within rows do by induction from the root.

    Every subring is one node.  Let t_1, ..., t_k be the rows of T's
    canonical basis, pivots p_1 < ... < p_k.  Then t_(i+1), ..., t_k is
    the canonical basis of T ∩ (x^(p_i + 1)), and t_i has pivot p_i and
    is 0 at the later pivots; its products with t_i, ..., t_k lie in T
    with valuation above p_i, so they reduce to 0, and the prune keeps
    p_i.  So the chain (t_k), (t_(k-1), t_k), ... leads from the root to
    (t_1, ..., t_k).  A node determines its parent, by dropping its first
    row, and the children of one node have distinct first rows, so no
    subring is reached twice.

    The scan makes one node per subring, and the guard bounds that count
    up front by the census bound (see _shape_bounds).
    """
    if ctx.p_image:
        raise CtxMismatch("the subspace scan needs a field coefficient ring")
    nodes = sum(ctx.base**e for _, e in _shape_bounds(ctx))
    if nodes > _SUBSPACE_LIMIT:
        raise TooLarge(f"the bound of {nodes} subrings exceeds the scan limit {_SUBSPACE_LIMIT}")
    n = ctx.n
    one = ctx.one()
    found = []
    # (rows, their pivot columns), rows in increasing pivot order
    stack = [((), ())]
    while stack:
        rows, pivots = stack.pop()
        found.append(Subring(ctx, (one,) + rows))
        reduce = _reducer(ctx, rows)
        taken = set(pivots)
        for c in range(1, pivots[0] if pivots else n):
            if any(c + u < n and c + u not in taken for u in (c, *pivots)):
                continue
            free = [j for j in range(c + 1, n) if j not in taken]
            for vals in itertools.product(ctx.coeff.elements(), repeat=len(free)):
                r = [0] * n
                r[c] = 1
                for j, v in zip(free, vals):
                    r[j] = v
                r = tuple(r)
                if not any(any(reduce(ctx.mul(r, s))) for s in (r, *rows)):
                    stack.append(((r,) + rows, (c,) + pivots))
    return sorted(found, key=Subring._key)


def _coset_reps(ctx: RingCtx, basis):
    """One vector per coset of the module S with this canonical basis, S
    itself left out: entries in [0, pivot) at S's pivot columns (only 0
    over F_q, where pivots are 1), in [0, cap) elsewhere, 0 skipped.
    Proof: _reducer fixes these vectors and is constant on cosets, so no
    two share a coset, and there are |ambient| / |S| of them, as |S| is
    prod cap/pivot over the pivot columns (_span_logsize reads it so).
    Both facts need the basis's Howell property (over F_q, echelon form)."""
    pivots = {c: row[c] for c, row in zip(map(_lead, basis), basis)}
    reps = itertools.product(*(range(pivots.get(j, cap)) for j, cap in enumerate(ctx.caps)))
    next(reps)
    return reps


def _enumerate_closure_bfs(ctx) -> list[Subring]:
    """Grow subrings from the prime ring by adjoining one ambient element
    at a time to a subring S and closing (closure, which forms only the
    products with the new rows); the reachable set is all of them.  All
    members of one coset of S close to the same subring, so S adjoins one
    representative per coset, from _coset_reps: the scan's completeness
    rests on the Howell property of closure's bases.

    Its cost is one closure per found subring and coset.  A subring of
    shape D has base^|D| elements, so it has base^(|points| - |D|) cosets
    in the ring, and the guard bounds the closures up front by that count
    times the census bound of D (see _shape_bounds)."""
    points = len(ctx.domain.points)
    closures = sum(ctx.base ** (e + points - len(sh)) for sh, e in _shape_bounds(ctx))
    if closures > _CLOSURE_LIMIT:
        raise TooLarge(f"the bound of {closures} closures exceeds the scan limit {_CLOSURE_LIMIT}")
    prime = Subring.prime_ring(ctx)
    found = {prime}
    frontier = [prime]
    while frontier:
        S = frontier.pop()
        for r in _coset_reps(ctx, S.basis):
            T = closure(S, [r])
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


def _shape_bounds(ctx: RingCtx) -> list:
    """(D, chain_bound(D)) for each realizable shape D of ctx.

    By the census bound at most base^chain_bound(D) subrings have shape D,
    so the guards sum these powers to bound a cost up front.  Over a field
    the summed bound has stayed within 1% of the subring count where it
    was measured (45,120 against 44,736 on F2[x]/x^14); over Z it
    overshoots, up to some thousandfold.  Shape enumeration refuses a
    domain of more than 24 points at once."""
    shapes = enumerate_shapes(ctx.domain, realizable_only=True)
    return [(sh, chain_bound(sh)) for sh in shapes]


def _siblings_share_square(ctx: RingCtx) -> bool:
    """Whether the members of a lift family in ctx have preimages with one
    m^2 and one kernel bit: when the step above ctx adds a column (k = N,
    caps_log[-1] == caps_log[0]) and z^2 vanishes there (n >= 3 or N >= 2).

    Let z = p^(k-1) x^(n-1) generate the kernel of the step into ctx, and R
    be B's preimage, whose m is span(p, w, s, z): p over Z/p^N with N > 1,
    w_1, ..., w_d the lift complement, s the obstruction rows.  Each lift is
    span(1, w_i - c_i z, s), so its m is span(p, w_i - c_i z, s).  A
    member's preimage one level up has as m the member's m, lifted, plus
    span(z'), z' the kernel generator there, and z' m = 0 as z' generates a
    minimal ideal.  So if z, lifted, times every row of R's m (p and z
    included) is 0 one level up (the test T), every product of two rows of
    a member's m is the same product of p, w and s rows, whichever the
    member: the preimages share m^2, the obstruction module m^2 + (p) and
    the kernel bit.

    T holds on every family of two or more members exactly when the rule
    does.  On a k-step above (k < N, so N >= 2 and p is a row of m), p z =
    p^k x^(n-1) is the next kernel generator, not 0.  On a step that adds a
    column, one level up column n-1 has cap p^N and column n cap p, so:
      - p z = p^N x^(n-1) = 0;
      - a row r of m other than p is 0 in column 0, where R's first row,
        1, has its unit pivot, so z r = p^(N-1) r_1 x^n, which is 0 when
        N >= 2.  Over a field (N = 1), r_1 != 0 puts an element of
        valuation 1 in R, whose algebra is then the full ring, where z lies
        in m^2 = (x^2) once n >= 3; that family is obstructed and is R
        alone, so on a family with siblings r_1 = 0 and z r = 0;
      - z^2 = p^(2N-2) x^(2n-2) is 0 when 2n - 2 >= n + 1, that is n >= 3,
        or at n = 2 when p | p^(2N-2), that is N >= 2.
    At n = 2, N = 1 the family of the prime ring, the full ring and the
    prime ring, has preimages with m^2 = (x^2) and 0.  Over fields the rule
    is n >= 3, as every step adds a column."""
    logs = ctx.caps_log
    return logs[-1] == logs[0] and (ctx.n >= 3 or logs[0] >= 2)


def _built_lifts(ext: MinimalExtension) -> tuple:
    """ext's lifts, built (lift_isomorphic) and checked to number base^dim,
    0 when obstructed: a lift family of any other size would duplicate or
    drop a subtree, which a census cannot see, so it raises."""
    fam = lift_isomorphic(ext)
    if len(fam.lifts) != (ext.src.ctx.base**fam.dim if fam.exists else 0):
        raise InvariantViolation(f"{len(fam.lifts)} lifts in a family of dimension {fam.dim}")
    return fam.lifts


def _family_extensions(ext: MinimalExtension) -> list:
    """Pairs (restricted_extension of a member of the lift family that ext
    makes, the extension whose lifts that pair also stands for, or None),
    the family being ext.src, B's preimage, then B's lifts, B = ext.dst.
    Where _siblings_share_square holds, one pair stands for the family: the
    preimage's extension, and ext, whose lifts' preimages share its m^2,
    obstruction module and kernel bit; the lifts are not built here, only
    where their own extensions are written down (_step).  Elsewhere the
    lifts are built and each member has a pair of its own, standing for no
    other member."""
    R = ext.src
    if _siblings_share_square(R.ctx):
        return [(restricted_extension(R), ext)]
    return [(restricted_extension(M), None) for M in (R, *_built_lifts(ext))]


def _step(pairs):
    """Yield the extensions of a lift family's members, from the family's
    pairs of _family_extensions: each pair's extension, then, where the
    pair stands for the lifts of an extension, each of those lifts' own,
    written down: its preimage with the pair's kernel bit and, when the
    pair is unobstructed, its ideal data: its own m, which IdealData reads
    off the preimage, with the pair's m^2 and obstruction module.  Each
    extension makes a lift family one level up: its preimage, then its
    lifts (_built_lifts).  The stood-for lifts are built here, as their
    extensions need them, and checked (_built_lifts).  The walk runs _step
    on every family below the level one below the top, and the enumeration
    on those of that level too; the census does not, so there the lifts a
    pair stands for are counted, never built (see _census_walk)."""
    for first, stood in pairs:
        yield first
        if stood is None:
            continue
        in_small = first.kernel_in_small
        shared = None if in_small else first.src_ideal
        for M in _built_lifts(stood):
            R = _preimage(M)
            data = None if shared is None else IdealData(R, shared.square_rows, shared.small_rows)
            yield _extension(M, R, in_small, data)


def _top_families(ctx: RingCtx):
    """Yield the lift families one level below the top of ctx, each as its
    pairs of _family_extensions, walking the quotient tree depth first;
    nothing for the base ring.

    The walk's unit is the extension that makes a lift family: its
    preimage and, built only where a member's own extension is needed, its
    lifts.  Every subring of a level has one parent, its image B one level
    down: it is B's preimage or one of B's lifts, so the families of a
    level partition it.  The root is the prime ring of the base ring, a
    family of one member that no extension makes; its one extension, which
    stands for no other member, makes the families of level 1.  Below the
    top the walk takes each family's pairs and the extensions _step writes
    down from them, one per family one level up.  One level below the top
    it yields the pairs and leaves the top to the caller, which builds it
    (enumeration, through _step and _built_lifts) or counts it (census).

    Where _siblings_share_square holds one level below the top, each
    family there has one pair, standing for B's lifts, which are never
    built for the census: it counts them off B (see _census_walk), and the
    enumeration builds them in _step.  The rule reads only the ring's
    facts, so it holds for every family of that level or for none.
    Elsewhere siblings can differ: at n = 2 over a field, where the family
    of the prime ring is the full ring and the prime ring, and over Z/p^N
    below a k-step, as in 32 of the families the walk of
    Z[x]/(2^2, x^6, 2x^5) makes.  There the lifts are built and each member
    is extended on its own.
    """
    if ctx.size > _CHAIN_LIMIT:
        raise TooLarge(f"ring of size {ctx.size} exceeds the walk limit {_CHAIN_LIMIT}")
    chain = _quotient_chain(ctx)
    chain.reverse()
    top = len(chain) - 1
    if not top:
        return
    # one context per level, so identity is the check; the top's is
    # extension_ctx of the level below, as every preimage's is
    if extension_ctx(chain[top - 1]) is not ctx:
        raise InvariantViolation(f"the quotient chain of {ctx!r} does not return to it")
    root = restricted_extension(Subring.prime_ring(chain[0]))
    if top == 1:
        yield [(root, None)]
        return
    stack = [(root, 1)]
    while stack:
        ext, level = stack.pop()
        if ext.src.ctx is not chain[level]:
            raise InvariantViolation(f"extension landed in {ext.src.ctx!r}, not {chain[level]!r}")
        pairs = _family_extensions(ext)
        if level == top - 1:
            yield pairs
            continue
        stack.extend((e, level + 1) for e in _step(pairs))


def _enumerate_minimal_ext(ctx) -> list[Subring]:
    """Each family one level below the top contributes the families its
    _step makes: its members' preimages and their lifts.  A collision at
    any level duplicates a subtree, and every subring has a descendant at
    the top, so the one check there finds it."""
    subs = []
    for pairs in _top_families(ctx):
        for ext in _step(pairs):
            subs.append(ext.src)
            subs.extend(_built_lifts(ext))
    if len({S._rows for S in subs}) != len(subs):
        raise InvariantViolation("preimages and lifts must not collide")
    return sorted(subs, key=Subring._key) or [Subring.prime_ring(ctx)]


def enumerate_subrings(ctx: RingCtx, method: str = "minimal_ext") -> list[Subring]:
    """All unital subrings sharing the coefficient prime ring, sorted by
    (size, canonical basis).

    Methods: "minimal_ext" (the quotient-tree walk that census also runs;
    here it builds the top level), "closure_bfs" (generator adjunction
    from the prime ring), and "subspace_scan" (a top-down orderly
    generation of echelon bases, one row per step in decreasing pivot
    order; field coefficients only).  The two scans are independent of
    the walk and of each other, and each refuses with TooLarge when the
    census bound puts its cost over its limit.
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
    """Exponent point mask -> Counter of cotangent dimensions over the
    subrings of ctx, counted from the pairs of _top_families, not built.
    Each pair's extension is of one member M of a family one level below
    the top, and M counts once: its preimage with d(M) +
    [z not in the obstruction module] (see restricted_extension), and when
    z is not, M's base^d(M) lifts, each with M's exponent points and d(M).

    A pair that stands for the lifts of an extension R -> B (R = B's
    preimage, the pair's own member) counts them by weight, unbuilt.  They
    number base^d(B) when R -> B is unobstructed and none otherwise: the
    lift family is affine over the d(B) rows of the complement, and the
    complement check that lift_isomorphic runs on a built family runs here
    too (_checked_complement).  Each lift maps isomorphically onto B and
    meets the kernel only in 0, so it has B's exponent points and d(B)
    (see lift_isomorphic).  Their preimages share the kernel bit of R's,
    the pair's extension, by _siblings_share_square, which holds where
    _family_extensions makes such a pair.  So B counts for all of them:
    their preimages count base^d(B) under B's points plus top, and, when
    that bit is unobstructed, their lifts count base^(2 d(B)) under B's
    points.  Only R and B are built, no lift of B.

    Every member carries its exponent points down the walk, and the
    preimage's points are M's and top, the largest point of the top ring's
    domain (the proof is _preimage's), so no points are read off rows."""
    top = ctx.domain.top_bit
    base = ctx.base
    rows = defaultdict(Counter)
    for pairs in _top_families(ctx):
        for ext, stood in pairs:
            # (member, how many members it counts for)
            counted = [(ext.dst, 1)]
            if stood is not None and not stood.kernel_in_small:
                counted.append((stood.dst, base ** len(_checked_complement(stood))))
            in_small = ext.kernel_in_small
            for M, weight in counted:
                pts, d = _point_mask(M), M.cotangent
                rows[pts | top][d + (not in_small)] += weight
                if not in_small:
                    rows[pts][d] += weight * base**d
    if not rows:  # the base ring
        prime = Subring.prime_ring(ctx)
        rows[_point_mask(prime)][prime.cotangent] += 1
    return rows


def census(ctx: RingCtx, subrings=None) -> list[CensusRow]:
    """One row per realized shape, with the count, the matching power
    bound, and the cotangent data.

    Without subrings the census runs the quotient-tree walk of
    enumerate_subrings but counts its top level instead of building it (see
    _census_walk), and each row's subrings is ().  Given an
    enumeration of ctx, it groups those subrings instead and keeps them in
    their rows; an item that is not a Subring raises TypeError, a subring
    of another ring CtxMismatch, and a subring given twice ValueError.
    Either way the cotangent dimensions are the ones the quotient-chain
    recursion carries.
    """
    if subrings is None:
        rows, members = _census_walk(ctx), {}
    else:
        rows, members, seen = defaultdict(Counter), defaultdict(list), set()
        for S in subrings:
            if not isinstance(S, Subring):
                raise TypeError(f"{S!r} in the census of {ctx!r} is not a Subring")
            if S.ctx != ctx:
                raise CtxMismatch(f"a subring of {S.ctx!r} in the census of {ctx!r}")
            if S in seen:
                raise ValueError(f"{S!r} appears twice in the census of {ctx!r}")
            seen.add(S)
            pts = _point_mask(S)
            members[pts].append(S)
            rows[pts][S.cotangent] += 1
    base = ctx.base
    out = []
    # rows keyed by point mask, each decoded once and sorted by its points
    for sh in sorted((Shape.of_mask(ctx.domain, m) for m in rows), key=lambda sh: sh.elems):
        dims = rows[sh.mask]
        count = sum(dims.values())
        exp = chain_bound(sh)
        out.append(
            CensusRow(
                shape=sh,
                count=count,
                bound_exp=exp,
                bound=base**exp,
                equality=count == base**exp,
                d_shape=sh.generator_count(),
                d_ring_values=tuple(sorted(dims.elements())),
                subrings=tuple(members.get(sh.mask, ())),
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
