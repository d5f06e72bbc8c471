"""Invariant suites: every check passes on the reference rings and the
suite plumbing behaves."""

import dataclasses
import functools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from truncring import (
    FieldPolyCtx,
    IdealData,
    InvariantViolation,
    SkippedChecks,
    Subring,
    TooLarge,
    closure,
    enumerate_subrings,
    field_ring,
    kernel_generator,
    project_subring,
    quotient_ctx,
    run_suite,
    verify,
    zpn_ring,
)
from truncring.verify import SUITES


class TestSuites:
    @pytest.mark.parametrize(
        "ctx", [field_ring(2, 4), field_ring(3, 3), zpn_ring(2, 2, 2), zpn_ring(2, 2, 3, 1)], ids=repr
    )
    def test_all_checks_pass(self, ctx):
        results = run_suite(ctx, "all")
        assert len(results) == sum(len(v) for v in SUITES.values())
        for r in results:
            assert r.ok, f"{r.name}: {r.violations[:3]}"
            assert r.violations == ()

    @pytest.mark.parametrize("ctx", [zpn_ring(2, 1, 4), zpn_ring(3, 1, 3)], ids=repr)
    def test_prime_coefficient_z_rings_pass(self, ctx):
        # N = 1: the grid has no point (0, 1), so no generator is set aside for p
        for r in run_suite(ctx, "all"):
            assert r.ok, f"{r.name}: {r.violations[:3]}"

    def test_single_suite_selection(self):
        results = run_suite(field_ring(2, 3), "valuation")
        assert [r.name for r in results] == [
            "valuation-strict",
            "valuation-nonarchimedean",
            "valuation-monomial-like",
        ]

    def test_suite_layout(self):
        assert set(SUITES) == {"valuation", "bounds", "lifts", "props"}
        assert [len(SUITES[s]) for s in ("valuation", "bounds", "lifts", "props")] == [3, 3, 3, 11]
        names = [n for s in SUITES.values() for n, _ in s]
        assert len(set(names)) == len(names)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite(field_ring(2, 3), "everything")

    def test_exhaustive_scans_refuse_large_rings(self):
        with pytest.raises(TooLarge):
            run_suite(field_ring(2, 11), "valuation")

    @pytest.mark.parametrize(
        "ctx", [field_ring(5, 1), field_ring(4, 1), zpn_ring(3, 2, 1), zpn_ring(2, 1, 1)], ids=repr
    )
    def test_base_ring_has_trivial_lift_checks(self, ctx):
        # no quotient step below the base ring, so the lift checks pass
        # vacuously; every other check runs too, and none is skipped
        results = run_suite(ctx, "all")
        assert len(results) == 20
        for r in results:
            assert r.ok and r.skipped is None, r.name


# The three rings of the verify-desk benchmark, plus a wider Z ring.  On both
# Z rings a step-counts row has d(B) = [2, 1], so its fiber holds 2^2 + 2^1 = 6
# lifts; counting row.count * base^(d_shape - 1) = 8 was a false violation.
DESK_RINGS = [field_ring(2, 7), field_ring(4, 4), zpn_ring(2, 2, 4, 1), zpn_ring(2, 2, 5, 1)]


@pytest.mark.parametrize("ctx", DESK_RINGS, ids=repr)
def test_desk_rings_pass_every_check(ctx):
    results = run_suite(ctx, "all")
    assert len(results) == 20
    for r in results:
        assert r.ok, f"{r.name}: {r.violations[:3]}"


class TestMemo:
    """Each enumeration and census is computed once per run_suite call,
    and nothing is kept between calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = Counter()
        inner_enum, inner_census = verify.enumerate_subrings, verify.census

        def counting_enum(ctx, method="minimal_ext"):
            seen[ctx, method] += 1
            return inner_enum(ctx, method)

        def counting_census(ctx, subrings=None):
            seen[ctx, "census"] += 1
            return inner_census(ctx, subrings)

        monkeypatch.setattr(verify, "enumerate_subrings", counting_enum)
        monkeypatch.setattr(verify, "census", counting_census)
        return seen

    def test_one_computation_per_ring_and_method(self, calls):
        ctx = field_ring(2, 5)
        dst = quotient_ctx(ctx)
        run_suite(ctx, "all")
        # the lift oracle reads the ring's own scan; the quotient is never scanned
        assert calls[ctx, "closure_bfs"] == 1
        assert calls[ctx, "subspace_scan"] == 1
        assert (dst, "closure_bfs") not in calls
        assert set(calls.values()) == {1}
        assert (ctx, "census") in calls and (dst, "census") in calls
        run_suite(ctx, "all")
        assert set(calls.values()) == {2}

    def test_memo_is_cleared_when_a_check_raises(self, calls):
        # dimension-law enumerates F2[x]/x^11, then exponent-set-scan refuses
        # the 2048-element full ring
        big = field_ring(2, 11)
        with pytest.raises(TooLarge):
            run_suite(big, "props")
        assert calls[big, "minimal_ext"] == 1
        assert verify._subrings.cache_info().currsize == 0
        assert verify._census.cache_info().currsize == 0
        ctx = field_ring(2, 5)
        calls.clear()
        run_suite(ctx, "lifts")
        assert calls == {(ctx, "subspace_scan"): 1}
        assert verify._lift_oracle.cache_info().currsize == 0


def _overriding(ctx, **methods):
    """A copy of ctx whose class overrides the given methods."""
    cls = type("Overriding", (type(ctx),), methods)
    if isinstance(ctx, FieldPolyCtx):
        return cls(ctx.coeff, ctx.n)
    return cls(ctx.coeff, ctx.n, ctx.k)


def _planted(ctx, elem, wrong):
    """A copy of ctx whose nu misreports one element."""
    real = type(ctx).nu
    return _overriding(ctx, nu=lambda self, a: wrong if a == elem else real(self, a))


# Each packed layout of the scans' element kernel, with a planted nu: the
# residue layout over F_2, F_3, Z/4 with a k-step cap, Z/9 with one and
# Z/2, the bivariate layout over F_4 and F_9.
PLANTED_VALUATIONS = [
    (field_ring(2, 4), "x^2", 3),
    (field_ring(3, 3), "x + x^2", 2),
    (zpn_ring(2, 2, 3, 1), "2x", (1, 0)),
    (field_ring(4, 3), "[0,1]x", 2),
    (field_ring(9, 2), "[1,1]x", 0),
    (zpn_ring(3, 2, 3, 1), "3x", (2, 0)),
    (zpn_ring(2, 1, 4), "x^2+x^3", (1, 0)),
]
VALUATION_SCANS = [fn for _, fn in SUITES["valuation"]]


@pytest.mark.parametrize("ctx,elem,wrong", PLANTED_VALUATIONS, ids=repr)
def test_unordered_pair_scans_report_a_planted_valuation(ctx, elem, wrong):
    a = ctx.parse(elem)
    bad = _planted(ctx, a, wrong)
    for scan in VALUATION_SCANS:
        assert scan(ctx) == []
        assert any(ctx.format(a) in line for line in scan(bad)), scan.__name__


def test_strict_scan_reports_a_valuation_outside_the_domain():
    # (2, 1) is no point of Z[x]/(3^2, x^3, 3x^2), whose top column stops
    # at 3^1: the table of domain sums gives it a place too, so the scan
    # reports the pairs it spoils instead of failing
    ctx = zpn_ring(3, 2, 3, 1)
    assert not ctx.domain.contains((2, 1))
    bad = verify.check_valuation_strict(_planted(ctx, ctx.parse("x + x^2"), (2, 1)))
    assert bad and all("(2, 1)" in line for line in bad)


def _counted(ctx, calls):
    """A copy of ctx that counts its calls of each ring op."""

    def counting(name):
        real = getattr(type(ctx), name)

        def op(self, *args):
            calls[name] += 1
            return real(self, *args)

        return op

    ops = ("add", "neg", "sub", "mul", "scalar_mul", "nu")
    return _overriding(ctx, **{name: counting(name) for name in ops})


@pytest.mark.parametrize("ctx", [case[0] for case in PLANTED_VALUATIONS], ids=repr)
@pytest.mark.parametrize("scan", VALUATION_SCANS, ids=lambda fn: fn.__name__)
def test_scans_read_nu_once_per_element_and_run_no_ring_op(ctx, scan):
    # sums, products and unit multiples come from the packed kernel; nu is
    # read into a fresh table on each call, so a planted nu reaches the scan
    calls = Counter()
    counted = _counted(ctx, calls)
    assert scan(counted) == []
    assert calls == {"nu": ctx.size - 1}
    assert scan(counted) == []
    assert calls == {"nu": 2 * (ctx.size - 1)}


KERNEL_OPS = ("pack", "unpack", "mul", "scaled", "pack_row", "add_row", "sub_row", "mul_row")


def _kernel_copy(K, **ops):
    """A namespace kernel with K's ops, the given ones replaced."""
    return SimpleNamespace(**({name: getattr(K, name) for name in KERNEL_OPS} | ops))


@pytest.mark.parametrize("op, scan", list(zip(("mul", "add", "sub"), VALUATION_SCANS)), ids=("mul", "add", "sub"))
def test_a_kernel_result_outside_the_ring_is_an_invariant_violation(op, scan, monkeypatch):
    # the rows read every result of the row ops
    real = verify._element_kernel

    def faulty(ctx):
        K = real(ctx)
        inner = getattr(K, op + "_row")
        planted = lambda a, row, i=0: [r | 1 << 500 for r in inner(a, row, i)]
        return _kernel_copy(K, **{op + "_row": planted})

    monkeypatch.setattr(verify, "_element_kernel", faulty)
    with pytest.raises(InvariantViolation, match="is no nonzero element of F4"):
        scan(field_ring(4, 3))


def _pairwise_reports(ctx):
    """The reports of the three valuation scans by loops over the pairs, on
    the ring's own arithmetic and nu: strictness and the non-archimedean
    law test each unordered pair of nonzero elements once, as (earlier,
    later) in enumeration order; monomial likeness goes class by class in
    order of first member, b through the class and a through its members
    up to b."""
    zero = ctx.zero()
    elems = [a for a in ctx.elements() if a != zero]
    nu = {a: ctx.nu(a) for a in elems}
    strict, nonarchimedean, monomial = [], [], []
    for i, a in enumerate(elems):
        for b in elems[i:]:
            fa, fb, va, vb = ctx.format(a), ctx.format(b), nu[a], nu[b]
            s = ctx.domain.add(va, vb)
            if s is not None:
                ab = ctx.mul(a, b)
                if ab == zero:
                    strict.append(f"nu({fa}) + nu({fb}) defined but product is 0")
                elif nu[ab] != s:
                    strict.append(f"nu({fa}*{fb}) = {nu[ab]} != {s}")
            total = ctx.add(a, b)
            if total != zero:
                lo, v = min(va, vb), nu[total]
                if v < lo:
                    nonarchimedean.append(f"nu({fa}+{fb}) = {v} < min = {lo}")
                elif va != vb and v != lo:
                    nonarchimedean.append(f"nu({fa}+{fb}) = {v} != min = {lo}")
    classes = {}
    for a in elems:
        classes.setdefault(nu[a], []).append(a)
    units = list(ctx.coeff.units())
    for val, bucket in classes.items():
        for j, b in enumerate(bucket):
            multiples = [ctx.scalar_mul(u, b) for u in units]
            for a in bucket[: j + 1]:
                diffs = [ctx.sub(a, ub) for ub in multiples]
                if not any(d == zero or nu[d] > val for d in diffs):
                    monomial.append(f"{ctx.format(a)} and {ctx.format(b)} share nu = {val} but no unit relates them")
    return strict, nonarchimedean, monomial


OUT_OF_DOMAIN = (zpn_ring(3, 2, 3, 1), "x + x^2", (2, 1))
# one layout of each kind, as PLANTED_VALUATIONS, and two more rings
PLANT_RINGS = [
    field_ring(2, 4),
    field_ring(2, 5),
    field_ring(3, 3),
    field_ring(5, 2),
    field_ring(4, 3),
    field_ring(9, 2),
    zpn_ring(2, 2, 3, 1),
    zpn_ring(3, 2, 2),
    zpn_ring(2, 1, 4),
]


def _random_plants(seed, per_ring):
    """Seeded plants: on each ring of PLANT_RINGS, per_ring nonzero
    elements, each given a point of the domain as its valuation."""
    rng = random.Random(seed)
    for ctx in PLANT_RINGS:
        elems = [a for a in ctx.elements() if a != ctx.zero()]
        for _ in range(per_ring):
            yield ctx, ctx.format(rng.choice(elems)), rng.choice(ctx.domain.points)


RANDOM_PLANTS = list(_random_plants(seed=36, per_ring=6))


@functools.cache
def _planted_reports(ctx, elem, wrong):
    return _pairwise_reports(_planted(ctx, ctx.parse(elem), wrong))


@pytest.mark.parametrize("ctx,elem,wrong", PLANTED_VALUATIONS + [OUT_OF_DOMAIN] + RANDOM_PLANTS, ids=repr)
def test_each_scan_returns_its_pairwise_report(ctx, elem, wrong):
    # line for line and in order, as the loops over the pairs write them
    bad = _planted(ctx, ctx.parse(elem), wrong)
    for scan, want in zip(VALUATION_SCANS, _planted_reports(ctx, elem, wrong)):
        assert scan(bad) == want, scan.__name__


def test_random_plants_break_every_law():
    # the seeded batch is no batch of clean rings: each scan reports on some
    # of its plants
    reports = [_planted_reports(*case) for case in RANDOM_PLANTS]
    assert all(any(lines[k] for lines in reports) for k in range(3))


@pytest.mark.parametrize("ctx,elem,wrong", PLANTED_VALUATIONS, ids=repr)
@pytest.mark.parametrize("scan", VALUATION_SCANS, ids=lambda fn: fn.__name__)
def test_the_report_reads_the_scans_table(ctx, elem, wrong, scan):
    calls = Counter()
    counted = _counted(_planted(ctx, ctx.parse(elem), wrong), calls)
    assert scan(counted)
    assert calls == {"nu": ctx.size - 1}


P2_RINGS = [field_ring(2, 4), field_ring(4, 3), zpn_ring(2, 2, 3, 1), zpn_ring(2, 1, 4)]


@pytest.mark.parametrize("ctx", P2_RINGS + [field_ring(3, 3), zpn_ring(3, 2, 3, 1)], ids=repr)
def test_the_rows_test_each_unordered_pair_once(ctx, monkeypatch):
    formed = Counter()
    real = verify._element_kernel

    def recording(ctx):
        # a row is (its elements, the kernel's row), and each row op counts
        # the pairs it forms
        K = real(ctx)

        def recorded(name):
            def op(a, row, i=0):
                formed.update((a, b) for b in row[0][i:])
                return getattr(K, name)(a, row[1], i)

            return op

        ops = {name: recorded(name) for name in ("add_row", "sub_row", "mul_row")}
        return _kernel_copy(K, pack_row=lambda elems: (elems, K.pack_row(elems)), **ops)

    monkeypatch.setattr(verify, "_element_kernel", recording)
    K, valued, _ = verify._valued_elements(ctx)
    pairs = [(a, va, b, vb) for i, (a, va) in enumerate(valued) for b, vb in valued[i:]]

    def once(want):
        return Counter(map(frozenset, formed.elements())) == Counter({frozenset(ab): 1 for ab in want})

    assert verify.check_valuation_strict(ctx) == []
    assert once((a, b) for a, va, b, vb in pairs if ctx.domain.add(va, vb) is not None)
    formed.clear()
    assert verify.check_valuation_nonarchimedean(ctx) == []
    assert once((a, b) for a, _, b, _ in pairs)
    # monomial-like forms a - u b for every unit u and same-class pair, a
    # before b, and a - u b' only for b' in a's class
    formed.clear()
    assert verify.check_valuation_monomial_like(ctx) == []
    units = list(ctx.coeff.units())
    assert all((a, K.scaled(u, b)) in formed for a, va, b, vb in pairs if va == vb for u in units)
    multiples = {v: {K.scaled(u, b) for b in bucket for u in units} for v, bucket in verify._classes(valued).items()}
    nu = dict(valued)
    assert all(ub in multiples[nu[a]] for a, ub in formed)


P2_PLANTS = [case for case in PLANTED_VALUATIONS if case[0].coeff.p == 2]


@pytest.mark.parametrize("ctx,elem,wrong", P2_PLANTS, ids=repr)
@pytest.mark.parametrize("scan", VALUATION_SCANS, ids=lambda fn: fn.__name__)
def test_scans_at_p_2_make_no_pairwise_kernel_op(ctx, elem, wrong, scan, monkeypatch):
    # the clean scan and the report alike, so a silent fall back to a loop
    # over the pairs cannot hide
    calls = Counter()
    real = verify._element_kernel

    def counting(ctx):
        K = real(ctx)

        def mul(a, b):
            calls["mul"] += 1
            return K.mul(a, b)

        return _kernel_copy(K, mul=mul)

    monkeypatch.setattr(verify, "_element_kernel", counting)
    assert scan(ctx) == []
    assert scan(_planted(ctx, ctx.parse(elem), wrong))
    assert calls == {}


class TestSkippedChecks:
    """A check too large for the ring is skipped, the suite goes on, and
    run_suite raises SkippedChecks with every result at the end."""

    def test_skip_does_not_hide_a_later_violation(self, monkeypatch):
        # lift-counts and lift-containment refuse F2[x]/x^15, whose subspace
        # scan bound is over its limit; a planted kernel generator makes
        # kernel-minimality report
        monkeypatch.setattr(verify, "kernel_generator", lambda ctx: ctx.monomial(1))
        with pytest.raises(SkippedChecks) as info:
            run_suite(field_ring(2, 15), "lifts")
        results = info.value.results
        assert [r.name for r in results] == ["lift-counts", "lift-containment", "kernel-minimality"]
        for r in results[:2]:
            assert r.ok and r.violations == ()
            assert "exceeds the scan limit" in r.skipped
        assert results[2].skipped is None
        assert not results[2].ok
        assert results[2].violations == ("x * kernel generator is nonzero",)
        assert verify._subrings.cache_info().currsize == 0

    def test_no_skips_return_plain_results(self):
        results = run_suite(field_ring(2, 4), "all")
        assert all(r.skipped is None for r in results)

    def test_lift_checks_reach_f2_n12(self):
        # the lift oracle is the subspace scan over fields, in reach at n = 12
        results = run_suite(field_ring(2, 12), "lifts")
        assert [r.name for r in results] == ["lift-counts", "lift-containment", "kernel-minimality"]
        for r in results:
            assert r.ok and r.skipped is None and r.violations == (), r.name


class TestRefusalsKeepViolations:
    """A check that runs on part of a ring reports the violations found
    there, and refuses only when that part was clean."""

    @pytest.fixture(autouse=True)
    def clear_memo(self):
        yield
        verify._subrings.cache_clear()

    def test_scan_disagreement_survives_a_closure_refusal(self, monkeypatch):
        # the subspace scan runs on the 8192-element ring; closure_bfs refuses it
        ctx = field_ring(2, 13)
        with pytest.raises(TooLarge, match="exceeds the scan limit"):
            verify.check_enumerator_agreement(ctx)
        verify._subrings.cache_clear()
        inner = verify.enumerate_subrings

        def planted(ctx, method="minimal_ext"):
            subs = inner(ctx, method)
            return subs[:-1] if method == "subspace_scan" else subs

        monkeypatch.setattr(verify, "enumerate_subrings", planted)
        assert verify.check_enumerator_agreement(ctx) == ["subspace_scan disagrees with minimal_ext"]

    def test_member_scan_violations_survive_a_large_subring(self):
        # only the full ring, 2048 elements, is too large for a member scan
        ctx = field_ring(2, 11)
        with pytest.raises(TooLarge, match="1 of 1127 subrings"):
            verify.check_exponent_set_scan(ctx)
        verify._subrings.cache_clear()
        # nu reports x^10 at 9, so every scanned subring holding x^10 is caught
        x10 = ctx.monomial(10)
        bad = verify.check_exponent_set_scan(_planted(ctx, x10, 9))
        small = [S for S in enumerate_subrings(ctx) if S.size <= verify._EXHAUSTIVE_LIMIT]
        holding = [S for S in small if S.contains(x10)]
        assert len(bad) == len(holding) > 0


def _two_scan_lift_oracle(ctx):
    """The lift oracle as two closure_bfs scans: the quotient's subrings,
    each mapped to the ring's subrings that avoid the kernel and project
    onto it."""
    dst = quotient_ctx(ctx)
    if dst is None:
        return {}
    z = kernel_generator(ctx)
    groups = {B: [] for B in enumerate_subrings(dst, "closure_bfs")}
    for A in enumerate_subrings(ctx, "closure_bfs"):
        if not A.contains(z):
            groups[project_subring(A, dst)].append(A)
    return groups


ORACLE_RINGS = [
    *(field_ring(2, n) for n in (1, 2, 5, 8)),
    field_ring(3, 4),
    field_ring(3, 5),
    field_ring(4, 3),
    field_ring(4, 4),
    field_ring(5, 3),
    field_ring(8, 3),
    field_ring(9, 2),
    zpn_ring(2, 2, 3, 1),
    zpn_ring(2, 2, 4, 1),
    zpn_ring(2, 3, 3, 2),
    zpn_ring(2, 3, 3, 1),
    zpn_ring(3, 2, 3, 1),
    zpn_ring(2, 1, 4),
    zpn_ring(3, 1, 3),
    zpn_ring(2, 2, 1),
    zpn_ring(3, 2, 1),
]


class TestLiftOracle:
    """The one-scan lift oracle equals the two-scan construction, keys in
    the quotient's enumeration order and each group in the ring's."""

    @pytest.fixture(autouse=True)
    def clear_memo(self):
        yield
        verify._subrings.cache_clear()
        verify._lift_oracle.cache_clear()

    @pytest.mark.parametrize("ctx", ORACLE_RINGS, ids=repr)
    def test_matches_two_scan_construction(self, ctx):
        got = verify._lift_oracle(ctx)
        want = _two_scan_lift_oracle(ctx)
        assert list(got) == list(want)
        assert list(got.values()) == list(want.values())

    @pytest.mark.parametrize("ctx", [field_ring(2, 1), zpn_ring(2, 2, 1)], ids=repr)
    def test_base_ring_has_no_oracle(self, ctx):
        assert verify._lift_oracle(ctx) == {}


# -- planted faults: every check that reads the library can report ---------------
#
# Each case swaps one name a check reads through verify's globals for a
# faulty version of it, and the check must report its own violation on a
# desk ring.  A check that silently stopped comparing would pass every other
# test in this file.

F2_7, Z_DESK = field_ring(2, 7), zpn_ring(2, 2, 4, 1)


def _rows_with(**fields):
    """A census whose rows have the given fields replaced, each computed
    from the row."""
    return lambda real, ctx: lambda c, subs=None: [
        dataclasses.replace(row, **{k: f(row) for k, f in fields.items()}) for row in real(c, subs)
    ]


def _fewer_admissible_shapes(real, ctx):
    def enumerate_shapes(domain, realizable_only=False):
        shapes = real(domain, realizable_only)
        return shapes[:-1] if realizable_only else shapes

    return enumerate_shapes


def _returning(**fields):
    """The real function with the given fields of its result replaced, each
    computed from the result."""

    def plant(real, ctx):
        def fake(*args):
            out = real(*args)
            return dataclasses.replace(out, **{k: f(out) for k, f in fields.items()})

        return fake

    return plant


def _prime_ring_shape(real, ctx):
    return lambda S: real(Subring.prime_ring(S.ctx))


def _projects_to_prime_ring(real, ctx):
    return lambda S, dst: Subring.prime_ring(dst)


def _quotient_cotangent_zero(real, ctx):
    dst = quotient_ctx(ctx)
    return lambda S: 0 if S.ctx == dst else real(S)


def _whole_ring_shape(real, ctx):
    return lambda S: real(closure(S.ctx, [S.ctx.monomial(1)]))


def _square_read_as_max_ideal(real, ctx):
    """ideal_data whose derived m reads back its m^2."""

    class Faulty(IdealData):
        max_rows = property(lambda self: self.square_rows)

    def ideal_data(S):
        data = real(S)
        return Faulty(data.ring, data.square_rows, data.small_rows)

    return ideal_data


def _census_less_its_last_row(real, ctx):
    return lambda c, subs=None: real(c, subs)[:-1]


def _prime_ring_shape_above(real, ctx):
    # only subrings of the ring itself, so preimages, not their images
    return lambda S: real(Subring.prime_ring(ctx)) if S.ctx == ctx else real(S)


def _census_of_ring_plus_one(real, ctx):
    def census(c, subs=None):
        rows = real(c, subs)
        return [dataclasses.replace(row, count=row.count + 1) for row in rows] if c == ctx else rows

    return census


PLANTED = [
    # (check, ring, the name verify reads, fake built from (real, ring), message)
    ("census-bound", F2_7, "census", _rows_with(count=lambda r: r.bound + 1), "> bound"),
    ("realized-shapes", Z_DESK, "enumerate_shapes", _fewer_admissible_shapes, "realized but not admissible"),
    ("bound-exponent-nonnegative", F2_7, "census", _rows_with(bound_exp=lambda r: -1), "bound exponent -1 < 0"),
    ("lift-counts", F2_7, "lift_isomorphic", _returning(lifts=lambda fam: fam.lifts[1:]), "differs from the scan"),
    (
        "lift-containment",
        F2_7,
        "restricted_extension",
        _returning(_ideal=lambda ext: dataclasses.replace(ext.src_ideal, small_rows=ext.src_ideal.max_rows)),
        "misses obstruction row",
    ),
    ("dimension-law", Z_DESK, "exponent_set", _prime_ring_shape, "!= |shape|"),
    ("cotangent-bound", Z_DESK, "cotangent_dim", lambda real, ctx: lambda S: 99, "cotangent 99 exceeds"),
    ("lift-equivalence", F2_7, "cotangent_dim", lambda real, ctx: lambda S: 0, "grows=False"),
    ("tail-membership", F2_7, "ideal_data", _returning(square_rows=lambda d: ()), "escapes m^2"),
    ("cotangent-propagation", F2_7, "cotangent_dim", _quotient_cotangent_zero, "but B does not"),
    ("projection-shape", Z_DESK, "project_subring", _projects_to_prime_ring, "projected shape"),
    ("step-counts", Z_DESK, "census", _census_of_ring_plus_one, "truncated rings"),
    ("ideal-correspondence", Z_DESK, "ideal_data", _square_read_as_max_ideal, "maximal ideal differs"),
    ("projection-disjointness", F2_7, "project_subring", _projects_to_prime_ring, "hit from shapes"),
    # more faults for the checks that report more than one kind of violation
    ("realized-shapes", Z_DESK, "census", _census_less_its_last_row, "admissible but never realized"),
    ("realized-shapes", F2_7, "exponent_set", _whole_ring_shape, "prime-ring containment disagrees"),
    (
        "lift-counts",
        F2_7,
        "restricted_extension",
        _returning(kernel_in_small=lambda ext: True),
        "kernel in obstruction but",
    ),
    ("lift-counts", F2_7, "lift_isomorphic", _returning(exists=lambda fam: False), "family reported empty"),
    ("lift-counts", Z_DESK, "cotangent_dim", lambda real, ctx: lambda S: real(S) + 1, "lifts, expected"),
    ("kernel-minimality", Z_DESK, "kernel_generator", lambda real, ctx: lambda c: c.monomial(0), "p * kernel"),
    ("kernel-minimality", F2_7, "kernel_generator", lambda real, ctx: lambda c: c.zero(), "residue multiples"),
    ("cotangent-propagation", F2_7, "exponent_set", _prime_ring_shape_above, "failed to propagate up"),
]
CHECKS = {name: fn for suite in SUITES.values() for name, fn in suite}


def _case_ids(cases):
    """Each case named by its check, a check's later cases numbered on."""
    seen = Counter()
    for case in cases:
        seen[case[0]] += 1
        yield case[0] if seen[case[0]] == 1 else f"{case[0]}-{seen[case[0]]}"


@pytest.mark.parametrize("check, ctx, name, plant, message", PLANTED, ids=list(_case_ids(PLANTED)))
def test_planted_fault_is_reported(check, ctx, name, plant, message, monkeypatch):
    def clear():
        for memo in (verify._subrings, verify._census, verify._lift_oracle):
            memo.cache_clear()

    clear()
    assert CHECKS[check](ctx) == []
    clear()
    monkeypatch.setattr(verify, name, plant(getattr(verify, name), ctx))
    try:
        bad = CHECKS[check](ctx)
    finally:
        clear()
    assert any(message in line for line in bad), bad[:3]
