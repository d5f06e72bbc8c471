"""Exhaustive invariant suites over a single truncated ring.

Each check scans a desk-scale ring (or its full subring census) for
counterexamples to one structural law and returns witness strings; an
empty list means the law held everywhere.  Suites bundle the checks:

* ``valuation`` -- strictness, the non-archimedean law, and monomial
  likeness of nu on the whole ring;
* ``bounds``    -- census counts against the power bounds, and the match
  between realized and admissible shapes;
* ``lifts``     -- lift counts and membership against a brute-force scan
  of the one-step quotient;
* ``props``     -- dimension/size laws, cotangent bounds, the lifting
  equivalence, tail membership, quotient-step counting, and ideal
  correspondence under projection.

A check that cannot run at the ring's scale raises TooLarge.  run_suite
then records it as skipped and goes on with the next check; when any was
skipped it raises SkippedChecks, which carries every result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import SkippedChecks, TooLarge
from .rings import RingCtx, kernel_generator, project, quotient_ctx
from .shapes import enumerate_shapes
from .subrings import (
    Subring,
    _lift_row,
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


# Each enumeration and census is computed once per run_suite call: the
# checks share these memos, and run_suite clears them when it returns.
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


def _nonzero_elements(ctx: RingCtx):
    if ctx.size > _EXHAUSTIVE_LIMIT:
        raise TooLarge(f"ring of size {ctx.size} is too large for an exhaustive scan")
    zero = ctx.zero()
    return [e for e in ctx.elements() if e != zero]


# -- valuation suite -----------------------------------------------------------


def check_valuation_strict(ctx: RingCtx) -> list[str]:
    """nu(ab) = nu(a) + nu(b) whenever the sum is defined, and then ab != 0."""
    bad = []
    dom = ctx.domain
    elems = _nonzero_elements(ctx)
    vals = {a: ctx.nu(a) for a in elems}
    zero = ctx.zero()
    # add and mul commute, so each unordered pair is tested once
    for i, a in enumerate(elems):
        for b in elems[i:]:
            s = dom.add(vals[a], vals[b])
            if s is None:
                continue
            ab = ctx.mul(a, b)
            if ab == zero:
                bad.append(f"nu({ctx.format(a)}) + nu({ctx.format(b)}) defined but product is 0")
            elif ctx.nu(ab) != s:
                bad.append(
                    f"nu({ctx.format(a)}*{ctx.format(b)}) = {ctx.nu(ab)} != {s}"
                )
    return bad


def check_valuation_nonarchimedean(ctx: RingCtx) -> list[str]:
    """nu(a+b) >= min(nu(a), nu(b)), with equality when the two differ."""
    bad = []
    elems = _nonzero_elements(ctx)
    vals = {a: ctx.nu(a) for a in elems}
    zero = ctx.zero()
    for i, a in enumerate(elems):
        for b in elems[i:]:
            s = ctx.add(a, b)
            if s == zero:
                continue
            lo = min(vals[a], vals[b])
            v = ctx.nu(s)
            if v < lo:
                bad.append(f"nu({ctx.format(a)}+{ctx.format(b)}) = {v} < min = {lo}")
            elif vals[a] != vals[b] and v != lo:
                bad.append(f"nu({ctx.format(a)}+{ctx.format(b)}) = {v} != min = {lo}")
    return bad


def check_valuation_monomial_like(ctx: RingCtx) -> list[str]:
    """Equal valuations differ by a coefficient unit, up to higher valuation:
    nu(a) = nu(b) forces some unit u with a = u b or nu(a - u b) > nu(a)."""
    bad = []
    elems = _nonzero_elements(ctx)
    units = list(ctx.coeff.units())
    buckets: dict = {}
    for a in elems:
        buckets.setdefault(ctx.nu(a), []).append(a)
    zero = ctx.zero()
    # b - u^-1 a = -u^-1 (a - u b), so each unordered pair is tested once
    for val, bucket in buckets.items():
        for i, a in enumerate(bucket):
            for b in bucket[i:]:
                ok = False
                for u in units:
                    diff = ctx.sub(a, ctx.scalar_mul(u, b))
                    if diff == zero or ctx.nu(diff) > val:
                        ok = True
                        break
                if not ok:
                    bad.append(
                        f"{ctx.format(a)} and {ctx.format(b)} share nu = {val} but no unit relates them"
                    )
    return bad


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


def _lift_oracle(ctx: RingCtx):
    """Brute-force lift data: subrings of ctx and of its one-step quotient."""
    dst_ctx = quotient_ctx(ctx)
    if dst_ctx is None:
        return None
    src_subs = _subrings(ctx, "closure_bfs")
    dst_subs = _subrings(dst_ctx, "closure_bfs")
    return dst_ctx, src_subs, dst_subs


def check_lift_counts(ctx: RingCtx) -> list[str]:
    """Against a full scan: no lifts when the kernel generator falls in the
    obstruction module, else exactly (residue field size)^cotangent_dim
    lifts, and the constructed family reproduces the scan's set."""
    data = _lift_oracle(ctx)
    if data is None:
        return []
    dst_ctx, src_subs, dst_subs = data
    z = kernel_generator(ctx)
    base = ctx.base
    bad = []
    for B in dst_subs:
        ext = restricted_extension(B)
        fam = lift_isomorphic(ext)
        oracle = sorted(
            A for A in src_subs if not A.contains(z) and project_subring(A, dst_ctx) == B
        )
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
    data = _lift_oracle(ctx)
    if data is None:
        return []
    dst_ctx, src_subs, dst_subs = data
    z = kernel_generator(ctx)
    bad = []
    for B in dst_subs:
        ext = restricted_extension(B)
        small = ideal_data(ext.src).small
        for A in src_subs:
            if A.contains(z) or project_subring(A, dst_ctx) != B:
                continue
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
    if ctx.mul(ctx.monomial(1) if ctx.n > 1 else zero, z) != zero:
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
    """The pivot-derived exponent set equals the valuations of all members."""
    bad = []
    zero = ctx.zero()
    for S in _subrings(ctx, "minimal_ext"):
        if S.size > _EXHAUSTIVE_LIMIT:
            raise TooLarge("subring too large for a full member scan")
        seen = {ctx.nu(v) for v in S.elements() if v != zero}
        if seen != set(exponent_set(S).elems):
            bad.append(f"{S!r}: member scan {sorted(seen)} != pivots {exponent_set(S).elems}")
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
    if ctx.n < 2:
        return []
    tail = kernel_generator(ctx)
    top = ctx.nu(tail)
    bad = []
    for S in _subrings(ctx, "minimal_ext"):
        sh = exponent_set(S)
        if top in sh.elems and top not in sh.minimal_generators():
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
        m_src = ideal_data(ext.src).max_ideal
        m_dst = ideal_data(B).max_ideal
        image = canonicalize(dst_ctx, [project(ctx, dst_ctx, r) for r in m_src])
        if image != m_dst:
            bad.append(f"{B!r}: projected maximal ideal differs")
        pre = canonicalize(ctx, [_lift_row(ctx, r) for r in m_dst] + [z])
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
    """The quotient-chain enumeration matches the brute-force scans."""
    ref = _subrings(ctx, "minimal_ext")
    bad = []
    # the subspace scan's guard is the cheap one, so it refuses first
    if not ctx.p_image and _subrings(ctx, "subspace_scan") != ref:
        bad.append("subspace_scan disagrees with minimal_ext")
    if _subrings(ctx, "closure_bfs") != ref:
        bad.append("closure_bfs disagrees with minimal_ext")
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
    skipped = [r.name for r in out if r.skipped is not None]
    if skipped:
        raise SkippedChecks(f"skipped {', '.join(skipped)} on {ctx!r}", out)
    return out
