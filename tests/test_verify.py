"""Invariant suites: every check passes on the reference rings and the
suite plumbing behaves."""

import pytest

from truncring import TooLarge, field_ring, run_suite, zpn_ring
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
