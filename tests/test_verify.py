"""Invariant suites: every check passes on the reference rings and the
suite plumbing behaves."""

from collections import Counter

import pytest

from truncring import (
    FieldPolyCtx,
    SkippedChecks,
    TooLarge,
    field_ring,
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

    def test_base_ring_has_trivial_lift_checks(self):
        # no quotient step below F_q, so the lift checks pass vacuously
        for r in run_suite(field_ring(5, 1), "lifts"):
            assert r.ok


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
        assert calls[ctx, "closure_bfs"] == 1
        assert calls[dst, "closure_bfs"] == 1
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
        assert calls == {(ctx, "closure_bfs"): 1, (quotient_ctx(ctx), "closure_bfs"): 1}


def _planted(ctx, elem, wrong):
    """A copy of ctx whose nu misreports one element."""

    class Planted(type(ctx)):
        def nu(self, a):
            return wrong if a == elem else super().nu(a)

    if isinstance(ctx, FieldPolyCtx):
        return Planted(ctx.coeff, ctx.n)
    return Planted(ctx.coeff, ctx.n, ctx.k)


@pytest.mark.parametrize(
    "ctx,elem,wrong",
    [
        (field_ring(2, 4), "x^2", 3),
        (field_ring(3, 3), "x + x^2", 2),
        (zpn_ring(2, 2, 3, 1), "2x", (1, 0)),
    ],
    ids=repr,
)
def test_unordered_pair_scans_report_a_planted_valuation(ctx, elem, wrong):
    bad = _planted(ctx, ctx.parse(elem), wrong)
    assert verify.check_valuation_strict(ctx) == []
    assert verify.check_valuation_nonarchimedean(ctx) == []
    assert verify.check_valuation_strict(bad)
    assert verify.check_valuation_nonarchimedean(bad)
    assert verify.check_valuation_monomial_like(ctx) == []
    assert verify.check_valuation_monomial_like(bad)


class TestSkippedChecks:
    """A check too large for the ring is skipped, the suite goes on, and
    run_suite raises SkippedChecks with every result at the end."""

    def test_skip_does_not_hide_a_later_violation(self, monkeypatch):
        # lift-counts and lift-containment refuse the 8192-element ring; a
        # planted kernel generator makes kernel-minimality report
        monkeypatch.setattr(verify, "kernel_generator", lambda ctx: ctx.monomial(1))
        with pytest.raises(SkippedChecks) as info:
            run_suite(field_ring(2, 13), "lifts")
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
