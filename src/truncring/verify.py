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
They run on the ring's packed element kernel (subrings._element_kernel)
and read nu from a table built on each call with one ring nu per element,
so a planted nu reaches them.  Each scan goes by valuation class: one of
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
from dataclasses import dataclass

from .errors import InvariantViolation, SkippedChecks, TooLarge
from .rings import RingCtx, kernel_generator, project, quotient_ctx
from .shapes import enumerate_shapes, minimal_generators
from .subrings import (
    Subring,
    _element_kernel,
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


@dataclass(frozen=True)
class CheckResult:
    """ok: no violation found.  skipped: None when the check ran, else
    why it could not run; a skipped check has ok True and no violations."""

    name: str
    ok: bool
    violations: tuple[str, ...]
    skipped: str | None = None


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


def _valued_elements(ctx: RingCtx):
    """The ring's packed element kernel, the nonzero elements a packed with
    nu(a), in enumeration order, and nu as a table of the packed elements.
    nu is read once per element, so a planted nu reaches every scan."""
    if ctx.size > _EXHAUSTIVE_LIMIT:
        raise TooLarge(f"ring of size {ctx.size} is too large for an exhaustive scan")
    K = _element_kernel(ctx)
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
    # as a - u b for the members b of a's class from a on.  Members with the
    # same unit multiples u b, up to order (one unit orbit), share one group
    # of them in the row, and the groups go in the order of their last
    # member, so those of the members from a on are a suffix.  A pair holds
    # when its best unit leaves nu above val, nu[0] above every point; a
    # group that fails stands for each of its members from a on, and the
    # lines go by (class, b, a)
    K, valued, nu = _valued_elements(ctx)
    units = list(ctx.coeff.units())
    k = len(units)
    sub_row, scaled, get = K.sub_row, K.scaled, nu.__getitem__
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
            vals = map(get, sub_row(a, row, first * k))
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
        fam = lift_isomorphic(ext)
        if ext.kernel_in_small:
            if fam.exists or oracle:
                bad.append(f"{B!r}: kernel in obstruction but {len(oracle)} lifts found")
            continue
        want = base ** cotangent_dim(B)
        if not fam.exists:
            bad.append(f"{B!r}: family reported empty but kernel escapes the obstruction")
        if len(oracle) != want:
            bad.append(f"{B!r}: scan found {len(oracle)} lifts, expected {want}")
        if list(fam.lifts) != oracle:
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
    """Three equivalent readings of one-step lifting: lifts exist iff the
    kernel escapes the obstruction module iff the preimage's cotangent
    dimension is one more than the target's."""
    if quotient_ctx(ctx) is None:
        return []
    bad = []
    for B in _subrings(quotient_ctx(ctx), "minimal_ext"):
        ext = restricted_extension(B)
        fam = lift_isomorphic(ext)
        grows = cotangent_dim(ext.src) == cotangent_dim(B) + 1
        if not (fam.exists == (not ext.kernel_in_small) == grows):
            bad.append(
                f"{B!r}: exists={fam.exists} kernel_in_small={ext.kernel_in_small} grows={grows}"
            )
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
                out.append(CheckResult(name, True, (), skipped=str(exc)))
                continue
            out.append(CheckResult(name=name, ok=not violations, violations=tuple(violations)))
    finally:
        _subrings.cache_clear()
        _census.cache_clear()
        _lift_oracle.cache_clear()
    skipped = [r.name for r in out if r.skipped is not None]
    if skipped:
        raise SkippedChecks(f"skipped {', '.join(skipped)} on {ctx!r}", out)
    return out
