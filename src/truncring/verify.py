"""Exhaustive invariant suites over a single truncated ring.

Each check scans a desk-scale ring (or its full subring census) for
counterexamples to one structural law and returns witness strings; an
empty list means the law held everywhere.  Suites bundle the checks:

* ``valuation`` -- strictness, the non-archimedean law, and monomial
  likeness of nu on the whole ring;
* ``bounds``    -- census counts against the power bounds, and the match
  between realized and admissible shapes;
* ``lifts``     -- lift counts and membership against one brute-force
  scan of the ring, grouped by projection onto the one-step quotient;
* ``props``     -- dimension/size laws, cotangent bounds, the lifting
  equivalence, tail membership, quotient-step counting, and ideal
  correspondence under projection.

The valuation scans test every unordered pair of nonzero elements once.
Each builds the ring's packed element kernel (_ElementKernel), this
module's own, and reads nu from a table built on each call with one ring
nu per element, so a planted nu reaches them.  Each scan goes by valuation class: one of
the kernel's row ops pairs an element with the members of its own class
from it on and with every later class (monomial likeness: its own class
only), and the scan decides that row with C-level verdicts on nu read
through the table.  A row that fails writes its violation lines from its
own results, each lined up with its partner and its expected valuation,
in the text and order of a loop over the pairs; an element is unpacked
only to format a violation.

A check that cannot run at the ring's scale raises TooLarge.  run_suite
then records it as skipped and goes on with the next check; when any was
skipped it raises SkippedChecks, which carries every result.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import sys

from .errors import InvariantViolation, SkippedChecks, TooLarge
from .rings import RingCtx, kernel_generator, project, quotient_ctx
from .shapes import _FrozenRecord, enumerate_shapes, minimal_generators
from .subrings import (
    Subring,
    _layout,
    _pack,
    canonicalize,
    census,
    cotangent_dim,
    enumerate_subrings,
    exponent_set,
    ideal_data,
    in_row_span,
    lift_isomorphic,
    project_subring,
    restricted_extension,
)

_EXHAUSTIVE_LIMIT = 1024


class CheckResult(_FrozenRecord):
    """skipped: None when the check ran, else why it could not run; a
    skipped check has no violations, so it is ok."""

    _fields = ("name", "violations", "skipped")

    def __init__(self, name: str, violations: tuple[str, ...], skipped: str | None = None):
        self.__dict__.update(name=name, violations=violations, skipped=skipped)

    @property
    def ok(self) -> bool:
        """No violation found."""
        return not self.violations


# Each enumeration, census and lift oracle is computed once per run_suite
# call: the checks share these memos, and run_suite clears them when it
# returns.
# They reach enumerate_subrings and census through this module's globals
# at call time, so a wrapper installed there sees every computation.


@functools.cache
def _subrings(ctx: RingCtx, method: str) -> tuple[Subring, ...]:
    return tuple(enumerate_subrings(ctx, method))


@functools.cache
def _census(ctx: RingCtx) -> tuple:
    # grouped from the enumeration, not walked: the checks that read the
    # census stay independent of the walk's counting identities
    return tuple(census(ctx, _subrings(ctx, "minimal_ext")))


def _scans(ctx: RingCtx) -> tuple[str, ...]:
    """The brute-force scans that run on ctx, cheapest first."""
    return ("closure_bfs",) if ctx.p_image else ("subspace_scan", "closure_bfs")


class _Valuations(dict):
    """nu of the elements, keyed by their packed form, with nu(0) above
    every point.  A key the ring lacks is a fault of the packed kernel,
    not of nu."""

    __slots__ = ("ctx",)

    def __missing__(self, r):
        raise InvariantViolation(f"packed result {r:#x} is no nonzero element of {self.ctx!r}")


class _Above:
    """nu(0): a valuation above every point."""

    __slots__ = ()

    def __gt__(self, other):
        return True

    def __lt__(self, other):
        return False


# -- packed elements -----------------------------------------------------------
#
# The pair scans run on packed ring elements (_ElementKernel): over residue
# coefficients in the layout of the ring's caps, the one its subrings' rows
# take (subrings._layout), and over F_q, q = p^e, e > 1, in one with 2e - 1
# slots for t-degrees per column, so a product in F_p[t][x] is one int
# multiply too; each result is reduced to its one packed form.


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
    Picked from the ring's facts, once per scan (_valued_elements):
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
    The row ops' sums a + b are below twice the caps C in every slot: a
    mask reduces them at p = 2, and one conditional subtraction of C in
    every slot at once otherwise (_less_caps).

    No slot carries into the next: a product's slots are at most
    B = n e (p - 1)^2, and folding slot 2e-2-j, at most B p^j, into the
    slots below leaves each at most B p^(e-1) < 2^ws.

    The row ops form one element's products or sums with a whole row of
    others, a valuation class in verify's scans: pack_row(elems) packs the
    row once, and mul_row(a, row, i) and add_row(a, row, i) return the
    lists [a b] and [a + b] over the row's elements from position i on.  A
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
    it.  Sums, a + b per slot, stay inside their n c bits.  Products are
    rows only at p = 2; at odd p, where no bitwise step reduces a product,
    mul_row is the pairwise mul over the row, and sums take _less_caps
    replicated."""

    __slots__ = ("pack", "unpack", "mul", "scaled", "pack_row", "add_row", "mul_row")

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
        # fixes(rep): the reduction of sums a + b, its constants replicated
        # by rep
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
        if mask is None:
            # no bitwise reduction of products
            mul_row = lambda a, row, i=0: [mul(a, b) for b in row[0][i:]]
        elif fold is None:
            mul_row = row_op(lambda a, B, ones, row: row[3](a * B >> cut))
        else:
            mul_row = row_op(lambda a, B, ones, row: row[3](fold(a * B >> cut, row[4])))
        self.pack_row, self.add_row, self.mul_row = pack_row, add_row, mul_row


def _valued_elements(ctx: RingCtx):
    """A packed element kernel built for the ring, the nonzero elements a
    packed with nu(a), in enumeration order, and nu as a table of the packed
    elements.  nu is read once per element, so a planted nu reaches every
    scan."""
    if ctx.size > _EXHAUSTIVE_LIMIT:
        raise TooLarge(f"ring of size {ctx.size} is too large for an exhaustive scan")
    K = _ElementKernel(ctx)
    zero = ctx.zero()
    valued = [(K.pack(a), ctx.nu(a)) for a in ctx.elements() if a != zero]
    nu = _Valuations(valued)
    nu.ctx = ctx
    nu[0] = _Above()
    return K, valued, nu


def _classes(valued) -> dict:
    """The valuation classes: nu -> the packed elements with it, each class
    and the classes in enumeration order."""
    classes: dict = {}
    for a, va in valued:
        classes.setdefault(va, []).append(a)
    return classes


# -- valuation suite -----------------------------------------------------------


def _point_sums(dom, valued):
    """The sums of valuations, formed once and read by position: sums[i][j]
    is pts[i] + pts[j], None where undefined, pts the domain's points and
    then any valuation that is none of them (a faulty nu's), at[v] the
    position of v."""
    pts = list(dom.points)
    at = {pt: i for i, pt in enumerate(pts)}
    for _, v in valued:
        if v not in at:
            at[v] = len(pts)
            pts.append(v)
    return at, [[dom.add(s, t) for t in pts] for s in pts]


def _in_pair_order(ctx, K, valued, found, line) -> list[str]:
    """The lines of the strict and non-archimedean scans: found holds
    (a, b, *data) for each unordered pair {a, b} that breaks the law, and
    line(x, y, *data) writes its line, x and y the pair formatted, earlier
    then later in enumeration order; the lines go by the positions of
    (x, y).  The position map is built only when some pair broke the law."""
    if not found:
        return []
    pos = {a: i for i, (a, _) in enumerate(valued)}
    fmt = lambda r: ctx.format(K.unpack(r))
    keyed = []
    for a, b, *data in found:
        if pos[a] > pos[b]:
            a, b = b, a
        keyed.append((pos[a], pos[b], line(fmt(a), fmt(b), *data)))
    return [text for *_, text in sorted(keyed)]


def check_valuation_strict(ctx: RingCtx) -> list[str]:
    """nu(ab) = nu(a) + nu(b) whenever the sum is defined, and then ab != 0."""
    # a's row: its own class from a on, where nu(a) + nu(a) is defined, and
    # every later class whose sum with nu(a) is; a zero product reads as
    # above every point, so it fails the comparison
    K, valued, nu = _valued_elements(ctx)
    at, sums = _point_sums(ctx.domain, valued)
    classes = list(_classes(valued).items())
    get, mul_row = nu.__getitem__, K.mul_row
    found = []
    for c, (va, members) in enumerate(classes):
        row_sums = sums[at[va]]
        targets = [(s, bucket) for vb, bucket in classes[c:] if (s := row_sums[at[vb]]) is not None]
        if not targets:
            continue
        bs = [b for _, bucket in targets for b in bucket]
        row = K.pack_row(bs)
        expect = [s for s, bucket in targets for _ in bucket]
        own = targets[0][1] is members
        for i, a in enumerate(members):
            start = i if own else 0
            got = list(map(get, mul_row(a, row, start)))
            if got != expect[start:]:
                found += [(a, b, v, s) for b, v, s in zip(bs[start:], got, expect[start:]) if v != s]
    return _in_pair_order(ctx, K, valued, found, _strict_line)


def _strict_line(x, y, v, s) -> str:
    if isinstance(v, _Above):
        return f"nu({x}) + nu({y}) defined but product is 0"
    return f"nu({x}*{y}) = {v} != {s}"


def check_valuation_nonarchimedean(ctx: RingCtx) -> list[str]:
    """nu(a+b) >= min(nu(a), nu(b)), with equality when the two differ."""
    # a's row: its own class from a on, then every later class.  Inside a's
    # class the sums are at least nu(a), 0 above every point; across
    # classes they have the smaller valuation, and a + b = 0 (only where
    # nu(-a) != nu(a)) fails the row but, as every zero sum, gets no line
    K, valued, nu = _valued_elements(ctx)
    classes = list(_classes(valued).items())
    get, add_row = nu.__getitem__, K.add_row
    found = []
    for c, (va, members) in enumerate(classes):
        later = classes[c + 1 :]
        bs = members + [b for _, bucket in later for b in bucket]
        row = K.pack_row(bs)
        expect = [min(va, vb) for vb, bucket in later for _ in bucket]
        m = len(members)
        for i, a in enumerate(members):
            vals = list(map(get, add_row(a, row, i)))
            if min(vals[: m - i]) < va or vals[m - i :] != expect:
                found += [(a, b, v, va) for b, v in zip(bs[i:m], vals) if v < va]
                found += [
                    (a, b, v, lo)
                    for b, v, lo in zip(bs[m:], vals[m - i :], expect)
                    if v != lo and not isinstance(v, _Above)
                ]
    return _in_pair_order(
        ctx, K, valued, found, lambda x, y, v, lo: f"nu({x}+{y}) = {v} {'<' if v < lo else '!='} min = {lo}"
    )


def check_valuation_monomial_like(ctx: RingCtx) -> list[str]:
    """Equal valuations differ by a coefficient unit, up to higher valuation:
    nu(a) = nu(b) forces some unit u with a = u b or nu(a - u b) > nu(a)."""
    # b - u^-1 a = -u^-1 (a - u b), so each unordered pair is tested once,
    # for the members b of a's class from a on.  -1 is a unit, so the unit
    # multiples u b are those of -u b: the sums a + u b are the differences
    # a - u b, in another order, and the row forms sums.  Members with the
    # same unit multiples u b, up to order (one unit orbit), share one group
    # of them in the row, and the groups go in the order of their last
    # member, so those of the members from a on are a suffix.  A pair holds
    # when its best unit leaves nu above val, nu[0] above every point; a
    # group that fails stands for each of its members from a on, and the
    # lines go by (class, b, a)
    K, valued, nu = _valued_elements(ctx)
    units = list(ctx.coeff.units())
    k = len(units)
    add_row, scaled, get = K.add_row, K.scaled, nu.__getitem__
    fmt = lambda r: ctx.format(K.unpack(r))
    bad = []
    for c, (val, bucket) in enumerate(_classes(valued).items()):
        orbits = [tuple(sorted([scaled(u, b) for u in units])) for b in bucket]
        last = {orbit: j for j, orbit in enumerate(orbits)}
        groups = sorted(last, key=last.__getitem__)
        ends = sorted(last.values())
        row = K.pack_row([ub for group in groups for ub in group])
        for i, a in enumerate(bucket):
            first = bisect.bisect_left(ends, i)
            vals = map(get, add_row(a, row, first * k))
            best = list(map(max, *[vals] * k) if k > 1 else vals)
            if not min(best) > val:
                bad += [
                    ((c, j, i), f"{fmt(a)} and {fmt(bucket[j])} share nu = {val} but no unit relates them")
                    for group, v in zip(groups[first:], best)
                    if not v > val
                    for j in range(i, len(bucket))
                    if orbits[j] == group
                ]
    return [line for _, line in sorted(bad)]


# -- bounds suite ----------------------------------------------------------------


def check_census_bound(ctx: RingCtx) -> list[str]:
    """Every census row satisfies count <= base^bound_exp."""
    bad = []
    for row in _census(ctx):
        if row.count > row.bound:
            bad.append(f"shape {row.shape.elems}: count {row.count} > bound {row.bound}")
    return bad


def check_realized_shapes(ctx: RingCtx) -> list[str]:
    """The realized shapes are exactly the admissible ones: every shape on
    an interval, the shapes containing the zero column on a grid.  The
    census also realizes exactly the shapes that contain the valuations of
    the prime ring."""
    bad = []
    realized = {row.shape.elems for row in _census(ctx)}
    admissible = {s.elems for s in enumerate_shapes(ctx.domain, realizable_only=True)}
    for extra in sorted(realized - admissible):
        bad.append(f"shape {extra} realized but not admissible")
    for missing in sorted(admissible - realized):
        bad.append(f"shape {missing} admissible but never realized")
    prime = set(exponent_set(Subring.prime_ring(ctx)).elems)
    for s in enumerate_shapes(ctx.domain):
        if (s.elems in realized) != prime.issubset(s.elems):
            bad.append(f"prime-ring containment disagrees with the census on {s.elems}")
    return bad


def check_bound_exponent_nonnegative(ctx: RingCtx) -> list[str]:
    bad = []
    for row in _census(ctx):
        if row.bound_exp < 0:
            bad.append(f"shape {row.shape.elems}: bound exponent {row.bound_exp} < 0")
    return bad


# -- lifts suite ------------------------------------------------------------------


@functools.cache
def _lift_oracle(ctx: RingCtx) -> dict:
    """Brute-force lift data from one scan of ctx: each subring B of the
    one-step quotient, in enumeration order, mapped to the scanned
    subrings that avoid the kernel and project onto B; {} for the base ring.

    Every B is a key: its preimage is a unital subring of ctx, so the scan
    finds it, and it maps onto B."""
    dst = quotient_ctx(ctx)
    if dst is None:
        return {}
    z = kernel_generator(ctx)
    groups: dict = {}
    for A in _subrings(ctx, _scans(ctx)[0]):
        lifts = groups.setdefault(project_subring(A, dst), [])
        if not A.contains(z):
            lifts.append(A)
    return dict(sorted(groups.items()))


def check_lift_counts(ctx: RingCtx) -> list[str]:
    """Against a full scan: no lifts when the kernel generator falls in the
    obstruction module, else exactly (residue field size)^cotangent_dim
    lifts, and the constructed family reproduces the scan's set."""
    base = ctx.base
    bad = []
    for B, oracle in _lift_oracle(ctx).items():
        ext = restricted_extension(B)
        if ext.kernel_in_small:
            if oracle:
                bad.append(f"{B!r}: kernel in obstruction but {len(oracle)} lifts found")
            continue
        want = base ** cotangent_dim(B)
        if len(oracle) != want:
            bad.append(f"{B!r}: scan found {len(oracle)} lifts, expected {want}")
        if list(lift_isomorphic(ext).lifts) != oracle:
            bad.append(f"{B!r}: constructed family differs from the scan")
    return bad


def check_lift_containment(ctx: RingCtx) -> list[str]:
    """Every isomorphic lift contains the obstruction module of the preimage."""
    bad = []
    for B, oracle in _lift_oracle(ctx).items():
        small = restricted_extension(B).src_ideal.small
        for A in oracle:
            for r in small:
                if not A.contains(r):
                    bad.append(f"lift {A!r} of {B!r} misses obstruction row {ctx.format(r)}")
    return bad


def check_kernel_minimality(ctx: RingCtx) -> list[str]:
    """The quotient kernel is one-dimensional over the residue field and is
    killed by the maximal ideal of the ambient ring."""
    if quotient_ctx(ctx) is None:
        return []
    z = kernel_generator(ctx)
    bad = []
    zero = ctx.zero()
    if ctx.mul(ctx.monomial(1), z) != zero:
        bad.append("x * kernel generator is nonzero")
    if ctx.scalar_mul(ctx.p_image, z) != zero:
        bad.append("p * kernel generator is nonzero")
    base = ctx.base
    multiples = {ctx.scalar_mul(c, z) for c in range(base)}
    if len(multiples) != base:
        bad.append(f"kernel has {len(multiples)} residue multiples, expected {base}")
    return bad


# -- props suite ---------------------------------------------------------------


def check_dimension_law(ctx: RingCtx) -> list[str]:
    """Subring size is determined by its exponent set: q^|E| resp. p^|D|."""
    bad = []
    for S in _subrings(ctx, "minimal_ext"):
        sh = exponent_set(S)
        if S.log_size != len(sh.elems):
            bad.append(f"{S!r}: log size {S.log_size} != |shape| {len(sh.elems)}")
    return bad


def check_exponent_set_scan(ctx: RingCtx) -> list[str]:
    """The pivot-derived exponent set equals the valuations of all members.
    Every subring small enough for a full member scan is checked; the check
    refuses only when those showed no violation and some subring was too
    large."""
    bad = []
    zero = ctx.zero()
    subs = _subrings(ctx, "minimal_ext")
    too_large = 0
    for S in subs:
        if S.size > _EXHAUSTIVE_LIMIT:
            too_large += 1
            continue
        seen = {ctx.nu(v) for v in S.elements() if v != zero}
        if seen != set(exponent_set(S).elems):
            bad.append(f"{S!r}: member scan {sorted(seen)} != pivots {exponent_set(S).elems}")
    if too_large and not bad:
        raise TooLarge(f"{too_large} of {len(subs)} subrings too large for a full member scan")
    return bad


def check_cotangent_bound(ctx: RingCtx) -> list[str]:
    """cotangent_dim <= shape generator count (strictly fewer when p != 0
    in the ring, where p consumes one generator)."""
    bad = []
    for S in _subrings(ctx, "minimal_ext"):
        d_ring = cotangent_dim(S)
        d_shape = exponent_set(S).generator_count()
        limit = d_shape - (1 if ctx.p_image else 0)
        if d_ring > limit:
            bad.append(f"{S!r}: cotangent {d_ring} exceeds {limit}")
    return bad


def check_lift_equivalence(ctx: RingCtx) -> list[str]:
    """Two equivalent readings of one-step lifting: the kernel escapes the
    obstruction module (so lifts exist) iff the preimage's cotangent
    dimension is one more than the target's."""
    if quotient_ctx(ctx) is None:
        return []
    bad = []
    for B in _subrings(quotient_ctx(ctx), "minimal_ext"):
        ext = restricted_extension(B)
        grows = cotangent_dim(ext.src) == cotangent_dim(B) + 1
        if (not ext.kernel_in_small) != grows:
            bad.append(f"{B!r}: kernel_in_small={ext.kernel_in_small} grows={grows}")
    return bad


def check_tail_membership(ctx: RingCtx) -> list[str]:
    """When the top valuation point lies in the shape but is not one of its
    generators, the corresponding tail element lies in m^2."""
    if quotient_ctx(ctx) is None:
        return []
    tail = kernel_generator(ctx)
    top = ctx.nu(tail)
    bad = []
    for S in _subrings(ctx, "minimal_ext"):
        sh = exponent_set(S)
        if top in sh.elems and top not in minimal_generators(sh):
            if not in_row_span(ctx, ideal_data(S).square, tail):
                bad.append(f"{S!r}: non-generator tail {top} escapes m^2")
    return bad


def check_cotangent_propagation(ctx: RingCtx) -> list[str]:
    """Equality with the shape bound propagates down a quotient step, and
    conversely back up when the cotangent dimension grows by one."""
    dst_ctx = quotient_ctx(ctx)
    if dst_ctx is None:
        return []
    off = 1 if ctx.p_image else 0
    bad = []
    for B in _subrings(dst_ctx, "minimal_ext"):
        R = restricted_extension(B).src
        dR, dB = cotangent_dim(R), cotangent_dim(B)
        eR = exponent_set(R).generator_count() - off
        eB = exponent_set(B).generator_count() - off
        if dR == eR and dB != eB:
            bad.append(f"{B!r}: preimage meets its shape bound but B does not")
        if dR == dB + 1 and dB == eB and dR != eR:
            bad.append(f"{B!r}: equality failed to propagate up to the preimage")
    return bad


def check_projection_shape(ctx: RingCtx) -> list[str]:
    """Projecting one step removes exactly the top point from the shape."""
    dst_ctx = quotient_ctx(ctx)
    if dst_ctx is None:
        return []
    top = ctx.nu(kernel_generator(ctx))
    bad = []
    for S in _subrings(ctx, "minimal_ext"):
        got = set(exponent_set(project_subring(S, dst_ctx)).elems)
        want = set(exponent_set(S).elems) - {top}
        if got != want:
            bad.append(f"{S!r}: projected shape {sorted(got)} != {sorted(want)}")
    return bad


def check_step_counts(ctx: RingCtx) -> list[str]:
    """Counting across one quotient step: shapes containing the top point
    biject with their truncations, and when every preimage in a shape row
    gains a cotangent dimension, each B of the row has base^d(B) lifts of
    its shape."""
    dst_ctx = quotient_ctx(ctx)
    if dst_ctx is None:
        return []
    top = ctx.nu(kernel_generator(ctx))
    base = ctx.base
    src_rows = {row.shape.elems: row for row in _census(ctx)}
    dst_rows = {row.shape.elems: row for row in _census(dst_ctx)}
    bad = []
    for elems, row in src_rows.items():
        if top in elems:
            trunc = tuple(pt for pt in elems if pt != top)
            want = dst_rows[trunc].count if trunc in dst_rows else 0
            if row.count != want:
                bad.append(f"shape {elems}: {row.count} preimages vs {want} truncated rings")
    for elems, row in dst_rows.items():
        if top in elems or elems not in src_rows:
            continue
        dims = [cotangent_dim(B) for B in row.subrings]
        hyp = all(
            cotangent_dim(restricted_extension(B).src) == d + 1
            for B, d in zip(row.subrings, dims)
        )
        if hyp:
            want = sum(base**d for d in dims)
            if src_rows[elems].count != want:
                bad.append(
                    f"shape {elems}: fiber hypothesis holds but {src_rows[elems].count} != {want}"
                )
    return bad


def check_ideal_correspondence(ctx: RingCtx) -> list[str]:
    """The one-step quotient maps maximal ideals onto maximal ideals, and
    the preimage of the target's maximal ideal is the source's."""
    dst_ctx = quotient_ctx(ctx)
    if dst_ctx is None:
        return []
    z = kernel_generator(ctx)
    bad = []
    for B in _subrings(dst_ctx, "minimal_ext"):
        ext = restricted_extension(B)
        m_src = ext.src_ideal.max_ideal
        m_dst = ideal_data(B).max_ideal
        image = canonicalize(dst_ctx, [project(ctx, dst_ctx, r) for r in m_src])
        if image != m_dst:
            bad.append(f"{B!r}: projected maximal ideal differs")
        pre = canonicalize(ctx, [r + (0,) * (ctx.n - len(r)) for r in m_dst] + [z])
        if pre != m_src:
            bad.append(f"{B!r}: preimage of the maximal ideal differs")
    return bad


def check_projection_disjointness(ctx: RingCtx) -> list[str]:
    """Subrings whose shapes avoid the top point and differ project to
    disjoint families one step down."""
    dst_ctx = quotient_ctx(ctx)
    if dst_ctx is None:
        return []
    top = ctx.nu(kernel_generator(ctx))
    seen: dict = {}
    bad = []
    for row in _census(ctx):
        if top in row.shape.elems:
            continue
        for S in row.subrings:
            T = project_subring(S, dst_ctx)
            prev = seen.setdefault(T, row.shape.elems)
            if prev != row.shape.elems:
                bad.append(f"{T!r} hit from shapes {prev} and {row.shape.elems}")
    return bad


def check_enumerator_agreement(ctx: RingCtx) -> list[str]:
    """The quotient-chain enumeration matches the brute-force scans.  A
    scan too large for the ring is left out; the check refuses only when
    the scans that ran agreed."""
    ref = _subrings(ctx, "minimal_ext")
    bad = []
    refused = None
    for method in _scans(ctx):
        try:
            if _subrings(ctx, method) != ref:
                bad.append(f"{method} disagrees with minimal_ext")
        except TooLarge as exc:
            refused = exc
    if refused is not None and not bad:
        raise refused
    return bad


SUITES = {
    "valuation": (
        ("valuation-strict", check_valuation_strict),
        ("valuation-nonarchimedean", check_valuation_nonarchimedean),
        ("valuation-monomial-like", check_valuation_monomial_like),
    ),
    "bounds": (
        ("census-bound", check_census_bound),
        ("realized-shapes", check_realized_shapes),
        ("bound-exponent-nonnegative", check_bound_exponent_nonnegative),
    ),
    "lifts": (
        ("lift-counts", check_lift_counts),
        ("lift-containment", check_lift_containment),
        ("kernel-minimality", check_kernel_minimality),
    ),
    "props": (
        ("dimension-law", check_dimension_law),
        ("exponent-set-scan", check_exponent_set_scan),
        ("cotangent-bound", check_cotangent_bound),
        ("lift-equivalence", check_lift_equivalence),
        ("tail-membership", check_tail_membership),
        ("cotangent-propagation", check_cotangent_propagation),
        ("projection-shape", check_projection_shape),
        ("step-counts", check_step_counts),
        ("ideal-correspondence", check_ideal_correspondence),
        ("projection-disjointness", check_projection_disjointness),
        ("enumerator-agreement", check_enumerator_agreement),
    ),
}


def run_suite(ctx: RingCtx, suite: str = "all") -> list[CheckResult]:
    """Run one named suite (or all of them) and return the results.
    Each enumeration and census is computed once per call.

    A check that raises TooLarge is recorded as skipped, with the reason,
    and the suite goes on.  If any check was skipped, run_suite raises
    SkippedChecks with every result once the suite is done, so a caller
    that reads only the returned list never takes a partial run for a
    pass."""
    if suite == "all":
        names = [n for s in SUITES.values() for n in s]
    elif suite in SUITES:
        names = list(SUITES[suite])
    else:
        raise ValueError(f"unknown suite {suite!r}")
    out = []
    try:
        for name, fn in names:
            try:
                violations = fn(ctx)
            except TooLarge as exc:
                out.append(CheckResult(name, (), skipped=str(exc)))
                continue
            out.append(CheckResult(name, tuple(violations)))
    finally:
        _subrings.cache_clear()
        _census.cache_clear()
        _lift_oracle.cache_clear()
    skipped = [r.name for r in out if r.skipped is not None]
    if skipped:
        raise SkippedChecks(f"skipped {', '.join(skipped)} on {ctx!r}", out)
    return out
