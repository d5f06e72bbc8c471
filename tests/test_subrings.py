"""Subrings: canonical bases, closure, exponent sets, ideal data, lifting
across one-step quotients, enumeration, censuses, and the generator-gap
family."""

import dataclasses
import functools
import gc
import itertools
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import truncring
from truncring import (
    CtxMismatch,
    FieldCtx,
    FieldPolyCtx,
    InvariantViolation,
    NotAQuotient,
    OutOfFamily,
    Subring,
    TooLarge,
    UndefinedValuation,
    ZpNPolyCtx,
    canonicalize,
    e_bound,
    census,
    closure,
    cotangent_dim,
    counterexample_family,
    enumerate_subrings,
    exponent_set,
    extension_ctx,
    field_ring,
    ideal_data,
    in_row_span,
    kernel_generator,
    lift_isomorphic,
    project,
    project_subring,
    quotient_ctx,
    restricted_extension,
    zpn_ring,
)
from truncring import subrings
from truncring.subrings import _reducer


def module_span(ctx, rows):
    """Oracle: the additive span of all coefficient multiples of the rows."""
    if isinstance(ctx, FieldPolyCtx):
        gens = [ctx.scalar_mul(c, r) for r in rows for c in range(ctx.coeff.q)]
    else:
        gens = list(rows)
    seen = {ctx.zero()}
    frontier = [ctx.zero()]
    while frontier:
        v = frontier.pop()
        for r in gens:
            w = ctx.add(v, r)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def random_rows(ctx, data):
    k = data.draw(st.integers(1, 3))
    if isinstance(ctx, FieldPolyCtx):
        el = st.tuples(*(st.integers(0, ctx.coeff.q - 1) for _ in range(ctx.n)))
    else:
        el = st.tuples(*(st.integers(0, c - 1) for c in ctx.caps))
    return [data.draw(el) for _ in range(k)]


class TestCanonicalBases:
    def test_field_echelon(self):
        R = field_ring(2, 3)
        got = canonicalize(R, [(1, 0, 1), (0, 0, 1)])
        assert got == ((1, 0, 0), (0, 0, 1))

    def test_duplicate_rows_collapse(self):
        R = zpn_ring(2, 2, 1)
        assert canonicalize(R, [(2,), (2,)]) == ((2,),)

    def test_howell_example(self):
        R = zpn_ring(2, 2, 2)
        assert canonicalize(R, [(1, 2), (0, 2)]) == ((1, 0), (0, 2))

    def test_annihilator_row_is_kept(self):
        # 2 * (2 + x) = 2x leads a later column, so it becomes its own row
        R = zpn_ring(2, 2, 2)
        got = canonicalize(R, [(2, 1)])
        assert got == ((2, 1), (0, 2))
        assert module_span(R, [(2, 1)]) == module_span(R, got)

    def test_unreduced_and_negative_entries_reduce(self):
        # -1 = 8 and 10 = 1 mod 9; scaled by 8 = 1/8, (8, 1) is (1, 8)
        assert canonicalize(zpn_ring(3, 2, 2), [(-1, 10)]) == ((1, 8),)
        # caps (4, 2): (6, -3) is (2, 1), and 2 (2, 1) = (4, 2) is 0
        assert canonicalize(zpn_ring(2, 2, 2, 1), [(6, -3)]) == ((2, 1),)

    def test_row_length_must_match_ring(self):
        with pytest.raises(CtxMismatch):
            canonicalize(zpn_ring(2, 2, 2), [(0, 1, 2)])

    @pytest.mark.parametrize(
        "ctx", [field_ring(3, 3), field_ring(4, 2)], ids=repr
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_echelon_preserves_span_and_is_unique(self, ctx, data):
        rows = random_rows(ctx, data)
        basis = canonicalize(ctx, rows)
        span = module_span(ctx, rows)
        assert span == module_span(ctx, basis)
        assert canonicalize(ctx, basis) == basis
        assert canonicalize(ctx, sorted(span)) == basis
        for v in span:
            assert in_row_span(ctx, basis, v)
        for v in ctx.elements():
            assert in_row_span(ctx, basis, v) == (tuple(v) in span)

    @pytest.mark.parametrize(
        "ctx", [zpn_ring(2, 2, 3, 1), zpn_ring(2, 3, 2, 2), zpn_ring(3, 2, 2, 1)], ids=repr
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_howell_preserves_span_and_is_unique(self, ctx, data):
        rows = random_rows(ctx, data)
        basis = canonicalize(ctx, rows)
        span = module_span(ctx, rows)
        assert span == module_span(ctx, basis)
        assert canonicalize(ctx, basis) == basis
        # any generating set of the same module canonicalizes identically
        assert canonicalize(ctx, sorted(span)) == basis
        extra = data.draw(st.sampled_from(sorted(span)))
        assert canonicalize(ctx, rows + [extra]) == basis
        for v in ctx.elements():
            assert in_row_span(ctx, basis, v) == (tuple(v) in span)


class TestClosure:
    def test_prime_field_past_the_table_limit(self):
        # F_257 reads lookups computed on demand; x + 3x^2 squares to x^2
        R = field_ring(257, 3)
        S = closure(R, [(0, 1, 3)])
        assert S.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert closure(R, [(0, 0, 5)]).basis == ((1, 0, 0), (0, 0, 1))
        assert repr(S) == "<span 1, x, x^2 | F257[x]/x^3>"

    def test_nilpotent_generator(self):
        R = field_ring(2, 4)
        S = closure(R, [R.monomial(2)])
        assert S.basis == ((1, 0, 0, 0), (0, 0, 1, 0))

    def test_family_algebra_basis(self):
        R = field_ring(2, 18)
        S = closure(R, [R.parse("x^6+x^9"), R.monomial(7), R.monomial(8)])
        assert S.log_size == 10
        want = (R.one(), R.parse("x^6+x^9"), R.monomial(7), R.monomial(8)) + tuple(
            R.monomial(i) for i in range(12, 18)
        )
        assert S.basis == want

    def test_z_additive_part(self):
        R = zpn_ring(2, 2, 2)
        S = closure(R, [R.parse("2x")])
        assert S.basis == ((1, 0), (0, 2))

    def test_empty_generators_give_prime_ring(self):
        R = zpn_ring(2, 3, 3, 1)
        S = closure(R, [])
        assert S == Subring.prime_ring(R)
        assert S.size == 8  # Z/8 embedded as constants

    @pytest.mark.parametrize("ctx", [field_ring(2, 5), zpn_ring(2, 3, 2, 2)], ids=repr)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_closure_is_multiplicatively_closed_and_minimal(self, ctx, data):
        gens = random_rows(ctx, data)
        S = closure(ctx, gens)
        assert S.contains(ctx.one())
        for g in gens:
            assert S.contains(g)
        for a in S.basis:
            for b in S.basis:
                assert S.contains(ctx.mul(a, b))
        # closing a closed ring is a fixpoint
        assert closure(ctx, list(S.basis)) == S


class TestExponentSet:
    def test_family_shape(self):
        R = field_ring(2, 18)
        S = closure(R, [R.parse("x^6+x^9"), R.monomial(7), R.monomial(8)])
        assert set(exponent_set(S).elems) == {0, 6, 7, 8, 12, 13, 14, 15, 16, 17}

    def test_prime_and_full(self):
        R = field_ring(3, 4)
        assert exponent_set(Subring.prime_ring(R)).elems == (0,)
        assert exponent_set(closure(R, [R.monomial(1)])).elems == (0, 1, 2, 3)

    def test_grid_shape_of_adjoined_tail(self):
        R = zpn_ring(2, 2, 2)
        S = closure(R, [R.parse("2x")])
        assert exponent_set(S).elems == ((0, 0), (0, 1), (1, 1))

    @pytest.mark.parametrize(
        "ctx",
        [field_ring(2, 5), field_ring(3, 3), field_ring(4, 3), zpn_ring(2, 2, 2), zpn_ring(2, 2, 3, 1)],
        ids=repr,
    )
    def test_pivot_shape_matches_member_scan(self, ctx):
        zero = ctx.zero()
        for S in enumerate_subrings(ctx):
            scanned = {ctx.nu(v) for v in S.elements() if v != zero}
            assert scanned == set(exponent_set(S).elems)


class TestIdealData:
    def test_monomial_ideals_of_full_ring(self):
        R = field_ring(2, 4)
        data = ideal_data(closure(R, [R.monomial(1)]))
        assert data.max_ideal == tuple(R.monomial(i) for i in (1, 2, 3))
        assert data.square == tuple(R.monomial(i) for i in (2, 3))
        assert data.small == data.square

    def test_vanishing_square(self):
        R = field_ring(2, 4)
        S = closure(R, [R.one(), R.monomial(2), R.monomial(3)])
        data = ideal_data(S)
        assert data.max_ideal == (R.monomial(2), R.monomial(3))
        assert data.square == ()
        assert cotangent_dim(S) == 2

    def test_mixed_characteristic_obstruction(self):
        R = zpn_ring(2, 2, 2)
        data = ideal_data(closure(R, [R.monomial(1)]))
        assert data.max_ideal == ((2, 0), (0, 1))
        assert data.square == ((0, 2),)
        assert data.small == ((2, 0), (0, 2))

    def test_maximal_ideal_is_the_nonunits(self):
        for ctx in [field_ring(3, 3), zpn_ring(2, 2, 2)]:
            for S in enumerate_subrings(ctx):
                m = ideal_data(S).max_ideal
                nonunits = {v for v in S.elements() if not ctx.is_unit(v)}
                assert module_span(ctx, m) == nonunits

    def test_cotangent_of_full_rings(self):
        for q, n in [(2, 2), (2, 5), (3, 4)]:
            R = field_ring(q, n)
            assert cotangent_dim(closure(R, [R.monomial(1)])) == 1
        R = zpn_ring(2, 2, 2)
        assert cotangent_dim(closure(R, [R.monomial(1)])) == 1

    def test_cotangent_of_prime_rings(self):
        assert cotangent_dim(Subring.prime_ring(field_ring(2, 4))) == 0
        assert cotangent_dim(Subring.prime_ring(zpn_ring(2, 3, 2, 2))) == 0


class TestExtensionsAndLifts:
    def test_preimage_with_escaping_kernel(self):
        B = closure(field_ring(2, 3), [field_ring(2, 3).monomial(2)])
        ext = restricted_extension(B)
        assert ext.src.basis == ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert ext.kernel_gen == (0, 0, 0, 1)
        assert not ext.kernel_in_small

    def test_preimage_with_absorbed_kernel(self):
        R3 = field_ring(2, 3)
        ext = restricted_extension(closure(R3, [R3.monomial(1)]))
        assert ext.src.size == 16
        assert ext.kernel_in_small  # x^3 = x * x^2 lands in m^2

    def test_preimage_of_z_prime_ring(self):
        B = Subring.prime_ring(zpn_ring(2, 2, 2, 1))
        ext = restricted_extension(B)
        assert ext.src.ctx == zpn_ring(2, 2, 2)
        assert ext.src.basis == ((1, 0), (0, 2))
        assert ext.kernel_gen == (0, 2)
        assert not ext.kernel_in_small

    def test_lift_family_matches_brute_force(self):
        R3, R4 = field_ring(2, 3), field_ring(2, 4)
        B = closure(R3, [R3.monomial(2)])
        fam = lift_isomorphic(restricted_extension(B))
        assert fam.exists and fam.dim == 1 and len(fam.lifts) == 2
        assert [S.basis for S in fam.lifts] == [
            ((1, 0, 0, 0), (0, 0, 1, 0)),
            ((1, 0, 0, 0), (0, 0, 1, 1)),
        ]
        # oracle: scan the 2-dimensional subspaces span{1, v} directly
        b_set = frozenset(B.elements())
        found = set()
        for v in R4.elements():
            span = {R4.zero(), R4.one(), tuple(v), R4.add(R4.one(), v)}
            if len(span) != 4 or not any(x[2] for x in span):
                continue
            if R4.mul(v, v) not in span:
                continue
            if {x[:3] for x in span} == b_set:
                found.add(frozenset(span))
        assert found == {frozenset(S.elements()) for S in fam.lifts}

    def test_no_lifts_when_kernel_is_absorbed(self):
        R3 = field_ring(2, 3)
        fam = lift_isomorphic(restricted_extension(closure(R3, [R3.monomial(1)])))
        assert not fam.exists and fam.lifts == () and fam.dim == 1

    @pytest.mark.parametrize(
        "dst", [field_ring(2, 4), field_ring(3, 3), zpn_ring(2, 2, 2, 1), zpn_ring(2, 3, 2, 1)], ids=repr
    )
    def test_lift_family_contract(self, dst):
        # counts, projection fidelity, kernel avoidance, and obstruction containment
        base = dst.base
        for B in enumerate_subrings(dst):
            ext = restricted_extension(B)
            fam = lift_isomorphic(ext)
            assert fam.exists == (not ext.kernel_in_small)
            assert fam.dim == cotangent_dim(B)
            if not fam.exists:
                assert fam.lifts == ()
                continue
            assert len(fam.lifts) == base**fam.dim
            small = ideal_data(ext.src).small
            for A in fam.lifts:
                assert A.size == B.size
                assert project_subring(A, dst) == B
                assert not A.contains(ext.kernel_gen)
                for r in small:
                    assert A.contains(r)

    @pytest.mark.parametrize("ctx", [field_ring(2, 10), zpn_ring(2, 2, 6, 1)], ids=repr)
    def test_census_reads_each_kernel_generator_once(self, ctx, monkeypatch):
        # each ring of the chain keeps its kernel generator, and an
        # extension reads it from its source's ring instead of holding a copy
        calls = Counter()
        real = subrings.kernel_generator

        def counting(c):
            calls[c] += 1
            return real(c)

        monkeypatch.setattr(subrings, "kernel_generator", counting)
        census(ctx)
        assert set(calls) <= set(subrings._quotient_chain(ctx))
        assert all(v == 1 for v in calls.values()), calls


class TestEnumeration:
    def test_smallest_field_ring_lattice(self):
        got = enumerate_subrings(field_ring(2, 3))
        assert [S.basis for S in got] == [
            ((1, 0, 0),),
            ((1, 0, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ]

    def test_smallest_z_ring_lattice(self):
        got = enumerate_subrings(zpn_ring(2, 2, 2))
        assert [S.basis for S in got] == [
            ((1, 0),),
            ((1, 0), (0, 2)),
            ((1, 0), (0, 1)),
        ]

    def test_collapsed_tail_leaves_two_subrings(self):
        assert len(enumerate_subrings(zpn_ring(2, 2, 2, 1))) == 2

    FIELD_COUNTS = {
        (2, 3): 3,
        (2, 4): 6,
        (2, 5): 9,
        (2, 6): 24,
        (3, 3): 3,
        (3, 4): 7,
        (3, 5): 11,
        (4, 3): 3,
    }

    @pytest.mark.parametrize("q,n", sorted(FIELD_COUNTS))
    def test_field_census_sizes(self, q, n):
        assert len(enumerate_subrings(field_ring(q, n))) == self.FIELD_COUNTS[(q, n)]

    Z_COUNTS = {
        (2, 2, 2, 1): 2,
        (2, 2, 2, 2): 3,
        (2, 2, 3, 1): 6,
        (2, 2, 3, 2): 9,
        (3, 2, 2, 1): 2,
        (3, 2, 2, 2): 3,
        (2, 3, 2, 1): 2,
        (2, 3, 2, 2): 3,
        (2, 3, 2, 3): 4,
    }

    @pytest.mark.parametrize("p,N,n,k", sorted(Z_COUNTS))
    def test_z_census_sizes(self, p, N, n, k):
        assert len(enumerate_subrings(zpn_ring(p, N, n, k))) == self.Z_COUNTS[(p, N, n, k)]

    @pytest.mark.parametrize("ctx", [field_ring(2, 4), field_ring(3, 3), field_ring(4, 3)], ids=repr)
    def test_methods_agree_on_fields(self, ctx):
        ref = enumerate_subrings(ctx, "minimal_ext")
        assert enumerate_subrings(ctx, "closure_bfs") == ref
        assert enumerate_subrings(ctx, "subspace_scan") == ref

    @pytest.mark.parametrize("ctx", [zpn_ring(2, 2, 3, 1), zpn_ring(2, 3, 2, 2)], ids=repr)
    def test_methods_agree_on_z_rings(self, ctx):
        assert enumerate_subrings(ctx, "closure_bfs") == enumerate_subrings(ctx, "minimal_ext")

    def test_every_result_is_a_unital_closed_subring(self):
        ctx = field_ring(2, 5)
        subs = enumerate_subrings(ctx)
        assert len(set(subs)) == len(subs)
        assert subs == sorted(subs)
        for S in subs:
            assert S.contains(ctx.one())
            for a in S.basis:
                for b in S.basis:
                    assert S.contains(ctx.mul(a, b))

    def test_scale_guards(self):
        with pytest.raises(TooLarge):
            enumerate_subrings(field_ring(2, 13), "closure_bfs")
        with pytest.raises(TooLarge):
            enumerate_subrings(field_ring(2, 25), "subspace_scan")
        with pytest.raises(TooLarge):
            enumerate_subrings(field_ring(2, 21), "minimal_ext")

    def test_subspace_scan_needs_a_field(self):
        with pytest.raises(CtxMismatch):
            enumerate_subrings(zpn_ring(2, 2, 2), "subspace_scan")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            enumerate_subrings(field_ring(2, 3), "magic")


class TestCensus:
    def test_field_census_rows(self):
        rows = census(field_ring(2, 4))
        assert [r.shape.elems for r in rows] == [
            (0,),
            (0, 1, 2, 3),
            (0, 2),
            (0, 2, 3),
            (0, 3),
        ]
        by_shape = {r.shape.elems: r for r in rows}
        assert by_shape[(0, 2)].count == 2
        assert by_shape[(0, 2)].bound == 2 and by_shape[(0, 2)].bound_exp == 1
        assert by_shape[(0, 2)].equality
        assert by_shape[(0, 2)].d_shape == 1
        assert by_shape[(0, 2)].d_ring_values == (1, 1)
        assert by_shape[(0, 3)].count == 1 and by_shape[(0, 3)].bound == 1
        assert by_shape[(0,)].count == 1
        assert sum(r.count for r in rows) == 6

    def test_z_census_rows(self):
        rows = census(zpn_ring(2, 2, 2))
        assert [r.shape.elems for r in rows] == [
            ((0, 0), (0, 1)),
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            ((0, 0), (0, 1), (1, 1)),
        ]
        assert all(r.count == 1 and r.count <= r.bound for r in rows)

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
    def test_field_census_is_f2s_with_q_for_2(self, q):
        # measured, not proven: at every n the walk's size limit admits,
        # census(F_q[x]/x^n) has F_2[x]/x^n's shapes, and where F_2 counts
        # 2^e subrings F_q counts q^e; a failure is a counterexample
        n = 1
        while q**n <= subrings._CHAIN_LIMIT:
            f2 = {r.shape.elems: r.count for r in census(field_ring(2, n))}
            exps = {sh: count.bit_length() - 1 for sh, count in f2.items()}
            assert all(f2[sh] == 2**e for sh, e in exps.items())
            got = {r.shape.elems: r.count for r in census(field_ring(q, n))}
            assert got == {sh: q**e for sh, e in exps.items()}, n
            n += 1

    @pytest.mark.parametrize("ctx", [field_ring(2, 5), zpn_ring(2, 2, 3, 2)], ids=repr)
    def test_counts_stay_within_bounds(self, ctx):
        for row in census(ctx, enumerate_subrings(ctx)):
            assert 1 <= row.count <= row.bound
            assert row.equality == (row.count == row.bound)
            assert len(row.subrings) == row.count == len(row.d_ring_values)

    @pytest.mark.parametrize(
        "ctx",
        [field_ring(q, n) for q, n in [(2, 1), (2, 6), (3, 4), (4, 3)]]
        + [zpn_ring(p, 1, n) for p, n in [(2, 5), (3, 3)]]
        + [zpn_ring(p, N, n, k) for p, N, n, k in [(2, 2, 4, 1), (2, 3, 3, 2), (3, 2, 3, 1), (2, 2, 4, 2)]]
        + [zpn_ring(2, 3, 1)],
        ids=repr,
    )
    def test_domain_order_is_the_quotient_order(self, ctx):
        # the census bound walks the domain's points outside the zero column,
        # largest first: they must be the quotient chain's kernel valuations
        col = set(ctx.domain.zero_column)
        walked = [pt for pt in reversed(ctx.domain.points) if pt not in col]
        chain = subrings._quotient_chain(ctx)
        assert walked == [c.nu(kernel_generator(c)) for c in chain[:-1]]
        assert chain[-1].domain.points == ctx.domain.zero_column

    @pytest.mark.parametrize("ctx", [field_ring(2, 5), zpn_ring(2, 2, 3, 1)], ids=repr)
    def test_distinct_low_shapes_project_apart(self, ctx):
        # fibers over different shapes that omit the top point never meet
        dst = quotient_ctx(ctx)
        top = ctx.n - 1 if isinstance(ctx, FieldPolyCtx) else (ctx.n - 1, ctx.k - 1)
        seen = {}
        for row in census(ctx, enumerate_subrings(ctx)):
            if top in row.shape.elems:
                continue
            for S in row.subrings:
                T = project_subring(S, dst)
                assert seen.setdefault(T, row.shape.elems) == row.shape.elems


class TestSubringApi:
    def test_membership(self):
        R = field_ring(2, 4)
        S = closure(R, [R.monomial(2)])
        assert S.contains(R.parse("1+x^2"))
        assert not S.contains(R.monomial(1))

    @pytest.mark.parametrize(
        "ctx", [field_ring(2, 3), field_ring(3, 3), field_ring(4, 3), zpn_ring(2, 2, 3), zpn_ring(2, 1, 3)], ids=repr
    )
    def test_membership_rejects_other_lengths(self, ctx):
        S = closure(ctx, [ctx.monomial(2)])
        for v in [(1, 0), (0, 0, 1, 1)]:
            with pytest.raises(CtxMismatch):
                S.contains(v)
            with pytest.raises(CtxMismatch):
                in_row_span(ctx, S.basis, v)

    def test_sizes(self):
        R = zpn_ring(2, 2, 3, 1)
        S = Subring.prime_ring(R)
        assert (S.log_size, S.size) == (2, 4)
        assert len(S.elements()) == 4

    def test_repr_shows_basis_polynomials(self):
        R = field_ring(2, 3)
        assert repr(closure(R, [R.monomial(2)])) == "<span 1, x^2 | F2[x]/x^3>"

    def test_ordering_is_by_size_then_basis(self):
        R = field_ring(2, 4)
        subs = enumerate_subrings(R)
        sizes = [S.size for S in subs]
        assert sizes == sorted(sizes)


class TestFamily:
    def test_base_member(self):
        rep = counterexample_family(6, FieldCtx(2))
        assert rep.d_ring == 3 and rep.d_shape == 4
        assert rep.generators == (6, 7, 8, 17)
        assert set(rep.shape.elems) == {0, 6, 7, 8} | set(range(12, 18))
        assert rep.witness == rep.ctx.monomial(17)
        assert rep.witness_in_square
        assert 17 in rep.generators  # a shape generator realized inside m^2

    def test_general_member(self):
        rep = counterexample_family(7, FieldCtx(2))
        assert rep.generators == (7, 8, 9, 19)
        assert rep.d_ring == 3 < 4 == rep.d_shape

    def test_odd_characteristic(self):
        rep = counterexample_family(6, FieldCtx(3))
        assert rep.d_ring == 3 and rep.d_shape == 4
        assert rep.witness == rep.ctx.monomial(17)

    def test_witness_identity_recomputed(self):
        rep = counterexample_family(8, FieldCtx(2))
        g1, g2, g3 = rep.gens
        ctx = rep.ctx
        assert ctx.sub(ctx.mul(g1, g3), ctx.mul(g2, g2)) == ctx.monomial(21)
        assert in_row_span(ctx, ideal_data(rep.ring).square, rep.witness)

    def test_small_parameters_rejected(self):
        with pytest.raises(OutOfFamily):
            counterexample_family(5, FieldCtx(2))


class _SubOfFirst(FieldPolyCtx):
    """F_q[x]/x^n whose sub returns its first argument."""

    def sub(self, a, b):
        return a


# (the name counterexample_family reads through subrings' globals, the fake
# built from the real one, the claim's message); each fault breaks one claim
FAMILY_FAULTS = [
    ("closure", lambda real: lambda ctx, gens: real(ctx, gens[:2]), "unexpected exponent set"),
    ("minimal_generators", lambda real: lambda sh: real(sh)[:-1], "unexpected shape generators"),
    ("cotangent_dim", lambda real: lambda S: real(S) + 1, "cotangent dimension 4 != 3"),
    ("FieldPolyCtx", lambda real: _SubOfFirst, "witness product identity failed"),
    (
        "ideal_data",
        lambda real: lambda S: dataclasses.replace(real(S), square_rows=()),
        "witness escaped the ideal square",
    ),
]


@pytest.mark.parametrize("name, plant, message", FAMILY_FAULTS, ids=[case[0] for case in FAMILY_FAULTS])
@pytest.mark.parametrize("field", [FieldCtx(2), FieldCtx(3)], ids=repr)
def test_family_claim_fault_is_an_invariant_violation(name, plant, message, field, monkeypatch):
    counterexample_family(6, field)
    monkeypatch.setattr(subrings, name, plant(getattr(subrings, name)))
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        counterexample_family(6, field)


# -- the one-pass census against independent oracles ---------------------------
#
# The quotient-chain enumerator carries cotangent dimensions and builds each
# lift family by editing the kernel column of one tagged canonical basis.
# These tests check it against oracles that take none of that path:
# closure_bfs (adjoin elements and close), the direct cotangent_dim, and the
# brute-force lift scan of verify's lift-counts.

FIELD_ORACLE_RINGS = [(2, 6), (3, 4), (4, 4), (5, 3), (8, 3), (9, 3)]
# (p, N, n, k); closure_bfs scans the whole ring, so these stay within its
# guard.
Z_ORACLE_RINGS = [
    (2, 2, 4, 1),
    (3, 2, 3, 1),
    (5, 2, 2, 1),
    (2, 3, 3, 2),
    (2, 4, 3, 2),
    (2, 2, 5, 2),
]
ORACLE_RINGS = [field_ring(q, n) for q, n in FIELD_ORACLE_RINGS] + [
    zpn_ring(*t) for t in Z_ORACLE_RINGS
]
# Z[x]/(3^3, x^3) has 19,683 elements, beyond closure_bfs; the direct
# cotangent oracle still covers it.
COTANGENT_RINGS = ORACLE_RINGS + [zpn_ring(3, 3, 3, 3)]


@functools.cache
def bfs_subrings(ctx):
    return enumerate_subrings(ctx, "closure_bfs")


class TestOnePassCensus:
    @pytest.mark.parametrize("ctx", ORACLE_RINGS, ids=repr)
    def test_minimal_ext_matches_closure_bfs(self, ctx):
        subs = enumerate_subrings(ctx)
        assert subs == bfs_subrings(ctx)
        assert subs == sorted(subs, key=lambda S: (S.size, S.basis))

    @pytest.mark.parametrize("ctx", COTANGENT_RINGS, ids=repr)
    def test_census_cotangent_values_match_direct_computation(self, ctx):
        for row in census(ctx, enumerate_subrings(ctx)):
            assert row.d_ring_values == tuple(sorted(cotangent_dim(S) for S in row.subrings))

    @pytest.mark.parametrize("ctx", ORACLE_RINGS, ids=repr)
    def test_lift_families_match_brute_force_scan(self, ctx):
        dst = quotient_ctx(ctx)
        z = kernel_generator(ctx)
        base = ctx.base
        src_subs = bfs_subrings(ctx)
        for B in enumerate_subrings(dst):
            ext = restricted_extension(B)
            fam = lift_isomorphic(ext)
            oracle = sorted(
                A for A in src_subs if not A.contains(z) and project_subring(A, dst) == B
            )
            assert list(fam.lifts) == oracle
            assert fam.exists == (not ext.kernel_in_small)
            assert fam.dim == cotangent_dim(B)
            assert len(oracle) == (base**fam.dim if fam.exists else 0)
            assert ext.src.cotangent == cotangent_dim(ext.src)

    @pytest.mark.parametrize(
        "dst,gens",
        [(field_ring(2, 3), ["x^2"]), (field_ring(3, 4), ["x^3"]), (zpn_ring(2, 2, 2, 1), ["2x"])],
        ids=repr,
    )
    def test_wrong_recorded_cotangent_is_an_invariant_violation(self, dst, gens):
        B = closure(dst, [dst.parse(g) for g in gens])
        ext = restricted_extension(Subring(dst, B.basis, cotangent=cotangent_dim(B) + 1))
        assert not ext.kernel_in_small
        with pytest.raises(InvariantViolation):
            lift_isomorphic(ext)

    def test_wrong_recorded_cotangent_raises_under_optimization(self):
        # the invariant must not hang on assert, which python -O strips
        script = """
import sys
from truncring import (InvariantViolation, Subring, closure, cotangent_dim,
                       field_ring, lift_isomorphic, restricted_extension, zpn_ring)
if __debug__:
    sys.exit("not running under -O")
cases = [(field_ring(2, 3), "x^2"), (field_ring(3, 4), "x^3"), (zpn_ring(2, 2, 2, 1), "2x")]
for dst, gen in cases:
    B = closure(dst, [dst.parse(gen)])
    ext = restricted_extension(Subring(dst, B.basis, cotangent=cotangent_dim(B) + 1))
    try:
        lift_isomorphic(ext)
    except InvariantViolation:
        continue
    sys.exit(f"no InvariantViolation on {dst!r}")
"""
        src = str(Path(truncring.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestPrimeCoefficientZRings:
    """Z[x]/(p, x^n) is F_p[x]/x^n; its census is the field census under
    i <-> (i, 0)."""

    @pytest.mark.parametrize(
        "n, p", [(n, p) for p in (2, 3) for n in (2, 3, 4, 5)] + [(n, 2) for n in (1, 6, 7, 8, 9, 10, 11)]
    )
    def test_census_matches_field_census(self, p, n):
        z_ring, f_ring = zpn_ring(p, 1, n), field_ring(p, n)
        z_rows = census(z_ring, enumerate_subrings(z_ring))
        f_rows = census(f_ring, enumerate_subrings(f_ring))
        assert [tuple(i for i, _ in r.shape.elems) for r in z_rows] == [
            r.shape.elems for r in f_rows
        ]
        for zr, fr in zip(z_rows, f_rows):
            assert (zr.count, zr.bound_exp, zr.bound, zr.equality) == (
                fr.count,
                fr.bound_exp,
                fr.bound,
                fr.equality,
            )
            assert (zr.d_shape, zr.d_ring_values) == (fr.d_shape, fr.d_ring_values)
            assert [S.basis for S in zr.subrings] == [S.basis for S in fr.subrings]
            assert zr.bound_exp == e_bound(n, fr.shape)

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3)])
    def test_bases_and_cotangents_match_field_ring(self, p, n):
        z_subs = enumerate_subrings(zpn_ring(p, 1, n))
        f_subs = enumerate_subrings(field_ring(p, n))
        assert [S.basis for S in z_subs] == [S.basis for S in f_subs]
        assert [cotangent_dim(S) for S in z_subs] == [cotangent_dim(S) for S in f_subs]
        assert [S.cotangent for S in z_subs] == [S.cotangent for S in f_subs]
        assert [exponent_set(S).elems for S in z_subs] == [
            tuple((i, 0) for i in exponent_set(S).elems) for S in f_subs
        ]

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3)])
    def test_subspace_scan_matches_minimal_ext(self, p, n):
        ctx = zpn_ring(p, 1, n)
        assert enumerate_subrings(ctx, "subspace_scan") == enumerate_subrings(ctx)


# -- the census walk against the grouped enumeration ----------------------------
#
# census(ctx) walks the quotient tree and counts the top level from its
# parents; census(ctx, enumerate_subrings(ctx)) groups the materialised
# subrings.  Every row field but subrings must agree.

WALK_RINGS = COTANGENT_RINGS + [
    *(zpn_ring(p, 1, n) for p in (2, 3) for n in range(1, 6)),
    field_ring(2, 1),
    zpn_ring(2, 3, 1),
    field_ring(8, 5),
    field_ring(9, 5),
    zpn_ring(2, 1, 12),
]


def kernel_is_a_product_by_sets(R):
    """The valuation test on point sets: whether nu(z), the largest point of
    R's domain, is a defined sum of two nonzero points of R."""
    dom = R.ctx.domain
    pts = set(dom.points_of(R._points)) - {dom.zero}
    return any(dom.add(u, v) == dom.points[-1] for u in pts for v in pts)


def points_checked_extension(B, inner=subrings.restricted_extension):
    """restricted_extension, checking the point masks B and its preimage
    carry against the masks read off their rows, the preimage's being B's
    plus the bit of the step's kernel generator's valuation; the split-mask
    kernel-bit test against the set test; and the kernel bit against the
    m^2 pass of the preimage, which must put z in the obstruction module
    wherever the valuation test fires."""
    ext = inner(B)
    R, z = ext.src, ext.kernel_gen
    top = 1 << R.ctx.domain.bit(R.ctx.nu(z))
    assert B._points == subrings._points_of_rows(B)
    assert not B._points & top
    assert R._points == subrings._points_of_rows(R) == B._points | top
    fired = subrings._kernel_is_a_product(R)
    assert fired == kernel_is_a_product_by_sets(R)
    in_small = in_row_span(R.ctx, ideal_data(R).small, z)
    if fired:
        assert in_small
    assert ext.kernel_in_small == in_small
    return ext


def assert_walk_matches_grouped(ctx):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subrings, "restricted_extension", points_checked_extension)
        walked = census(ctx)
        subs = enumerate_subrings(ctx)
        # every subring the walk makes carries its point mask, as its rows
        # give it
        assert all(S._points == subrings._points_of_rows(S) for S in subs)
        grouped = census(ctx, subs)
    assert all(row.subrings == () for row in walked)
    assert walked == [dataclasses.replace(row, subrings=()) for row in grouped]
    assert all(row.count <= row.bound for row in walked)
    # the cotangent dimensions carried down the walk, against the direct one
    for row in grouped:
        for S in row.subrings:
            assert S.cotangent == cotangent_dim(S)


def census_path(ctx):
    """How census(ctx) takes the level one below the top: "counted" where
    _siblings_share_square holds there, its lift families counted and not
    built, "built" elsewhere, and None on a chain of fewer than two
    steps."""
    below = quotient_ctx(ctx)
    if below is None or quotient_ctx(below) is None:
        return None
    return "counted" if subrings._siblings_share_square(below) else "built"


def lift_bases_by_ring(ctx, run):
    """Counter of the lift-basis calls, by the ring of ctx's quotient chain
    they run on, while run(ctx) runs."""
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for c in subrings._quotient_chain(ctx):
            K = subrings._row_kernel(c)

            def counting(w, small, c=c, inner=K.lift_bases):
                counts[c] += 1
                return inner(w, small)

            mp.setattr(K, "lift_bases", counting)
        run(ctx)
    return counts


@st.composite
def field_params(draw, limit=1024):
    # (q, n) with at most `limit` elements
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    n = draw(st.integers(1, max(n for n in range(1, 11) if q**n <= limit)))
    return q, n


@st.composite
def z_params(draw, limit=2048, max_N=3):
    # (p, N, n, k) with N = 1 and k < N included, at most `limit` elements
    p = draw(st.sampled_from([2, 3, 5]))
    N = draw(st.integers(1, max_N))
    n = draw(st.integers(1, max(n for n in range(1, 12) if p ** (N * (n - 1) + 1) <= limit)))
    if n == 1:
        return p, N, n, N
    k = draw(st.integers(1, max(k for k in range(1, N + 1) if p ** (N * (n - 1) + k) <= limit)))
    return p, N, n, k


class TestCensusWalk:
    @pytest.mark.parametrize("ctx", WALK_RINGS, ids=repr)
    def test_walk_matches_grouped_census(self, ctx):
        assert_walk_matches_grouped(ctx)

    @given(field_params())
    @settings(max_examples=30, deadline=None)
    def test_walk_matches_grouped_census_on_fields(self, params):
        assert_walk_matches_grouped(field_ring(*params))

    @given(z_params())
    @settings(max_examples=30, deadline=None)
    def test_walk_matches_grouped_census_on_z_rings(self, params):
        assert_walk_matches_grouped(zpn_ring(*params))

    @pytest.mark.parametrize(
        "ctx, path",
        [
            # the census-z rings
            (zpn_ring(2, 2, 7, 1), "counted"),
            (zpn_ring(2, 3, 5, 3), "built"),
            (zpn_ring(3, 2, 5, 2), "built"),
            # a k-step to the top, whose level below is reached by a k-step
            (zpn_ring(2, 3, 4, 3), "built"),
            # n = 2 one level below the top
            *((field_ring(q, 3), "built") for q in (2, 3, 4, 9)),
            # chains of one step
            *((field_ring(q, 2), None) for q in (2, 3, 4, 9)),
            (zpn_ring(2, 2, 2, 1), None),
        ],
        ids=repr,
    )
    def test_walk_matches_grouped_census_on_each_path(self, ctx, path):
        # every row field but subrings, counted or built one level below the top
        assert census_path(ctx) == path
        walked = census(ctx)
        grouped = census(ctx, enumerate_subrings(ctx))
        assert all(row.subrings == () for row in walked)
        assert walked == [dataclasses.replace(row, subrings=()) for row in grouped]

    def test_walk_rings_take_both_paths(self):
        assert {census_path(ctx) for ctx in WALK_RINGS} == {"counted", "built", None}

    @pytest.mark.parametrize("ctx", [field_ring(2, 10), zpn_ring(2, 2, 6, 1)], ids=repr)
    def test_census_builds_no_lift_one_level_below_the_top(self, ctx):
        below = quotient_ctx(ctx)
        assert census_path(ctx) == "counted"
        counted = lift_bases_by_ring(ctx, census)
        assert counted[below] == 0 and counted[ctx] == 0
        # the levels further down still build theirs, and the enumeration
        # builds every level
        assert sum(counted.values())
        built = lift_bases_by_ring(ctx, enumerate_subrings)
        assert built[below] and built[ctx]

    def test_census_builds_the_lifts_below_a_k_step_to_the_top(self):
        ctx = zpn_ring(2, 3, 5, 3)
        assert census_path(ctx) == "built"
        assert lift_bases_by_ring(ctx, census)[quotient_ctx(ctx)]

    @pytest.mark.parametrize("ctx", [zpn_ring(2, 2, 7, 1), zpn_ring(2, 3, 5, 3), zpn_ring(3, 2, 5, 2)], ids=repr)
    def test_split_masks_match_the_set_test(self, ctx, monkeypatch):
        # every preimage of a census-z ring's walk, where both verdicts occur
        inner, seen = subrings._kernel_is_a_product, Counter()

        def checked(R):
            fired = inner(R)
            assert fired == kernel_is_a_product_by_sets(R)
            seen[fired] += 1
            return fired

        monkeypatch.setattr(subrings, "_kernel_is_a_product", checked)
        census(ctx)
        assert seen[True] and seen[False]

    def test_grouped_census_rejects_foreign_subrings(self):
        with pytest.raises(CtxMismatch):
            census(field_ring(2, 4), enumerate_subrings(field_ring(2, 3)))

    def test_grouped_census_rejects_a_repeated_subring(self):
        # F2[x]/x^4 has 6 subrings; a repeat would count one of them twice
        ctx = field_ring(2, 4)
        subs = enumerate_subrings(ctx)
        assert len(subs) == 6
        with pytest.raises(ValueError, match=re.escape(f"{subs[0]!r} appears twice")):
            census(ctx, subs + subs[:1])

    def test_grouped_census_rejects_an_item_that_is_not_a_subring(self):
        ctx = field_ring(2, 4)
        with pytest.raises(TypeError, match="'x' in the census of .* is not a Subring"):
            census(ctx, ["x"])
        with pytest.raises(TypeError, match=r"\(1, 0, 0, 0\) in the census"):
            census(ctx, enumerate_subrings(ctx)[:2] + [ctx.one()])

    def test_subrings_of_one_level_share_one_context(self):
        R = field_ring(2, 11)
        subs = enumerate_subrings(R)
        assert len({id(S.ctx) for S in subs}) == 1
        assert subs[0].ctx is R

    @pytest.mark.parametrize(
        "ctx, total",
        [(field_ring(2, 10), 596), (field_ring(4, 5), 13), (zpn_ring(2, 2, 5, 1), 138)],
        ids=repr,
    )
    def test_walk_carries_cotangents_without_computing_them(self, ctx, total, monkeypatch):
        def refuse(*args):
            raise AssertionError("the walk carries this")

        monkeypatch.setattr(subrings, "cotangent_dim", refuse)
        monkeypatch.setattr(subrings, "canonicalize", refuse)
        # the exponent points are carried too, and read from the memo
        monkeypatch.setattr(subrings, "_points_of_rows", refuse)
        assert sum(r.count for r in census(ctx)) == total
        subs = enumerate_subrings(ctx)
        assert len(subs) == total
        assert sum(r.count for r in census(ctx, subs)) == total


# -- one m^2 per lift family ------------------------------------------------------
#
# Where the step above a family's ring adds a column and z^2 vanishes there
# (_siblings_share_square: n >= 3 over a field, and over Z/p^N, N > 1, too
# at n = 2), the walk computes ideal_data once per family and the other
# members take its m^2 and kernel bit.  restricted_extension on each member,
# and the ideal_data of its preimage, are the per-member oracle; the test T
# on each family, with ring mul one level up, is the rule's oracle.


def expand(pairs):
    """The extensions of a family's members, written down from the pairs of
    _family_extensions as _step writes them: each pair's extension, then,
    for each lift of the extension the pair stands for, that lift's
    preimage with the pair's kernel bit and the pair's m^2 and obstruction
    module beside the preimage's own m."""
    out = []
    for ext, stood in pairs:
        out.append(ext)
        if stood is None:
            continue
        data = ext.src_ideal
        for M in lift_isomorphic(stood).lifts:
            R = subrings._preimage(M)
            mine = subrings.IdealData(R, data.square_rows, data.small_rows)
            out.append(subrings._extension(M, R, ext.kernel_in_small, mine))
    return out


def family_of(ext):
    """The lift family ext makes: its preimage, then its lifts."""
    return (ext.src, *lift_isomorphic(ext).lifts)


def checked_family_walk(ctx):
    """Enumerate ctx with every family's extensions checked against the
    per-member oracle.  Returns (families, families of two or more members
    whose own preimages share m^2, families whose own preimages differ),
    counting the families extensions make: every family but the root, the
    prime ring of the base ring."""
    inner = subrings._family_extensions
    seen = Counter()

    def checking(ext):
        pairs = inner(ext)
        members = family_of(ext)
        # one pair for the family where the rule holds, standing for ext's
        # lifts, one per member elsewhere
        if subrings._siblings_share_square(ext.src.ctx):
            assert len(pairs) == 1 and pairs[0][1] is ext
        else:
            assert [stood for _, stood in pairs] == [None] * len(members)
        exts = expand(pairs)
        assert [ext.dst for ext in exts] == list(members)
        own = [restricted_extension(M) for M in members]
        for ext, mine in zip(exts, own):
            assert ext.src == mine.src
            assert ext.src.cotangent == mine.src.cotangent
            assert ext.kernel_gen == mine.kernel_gen
            assert ext.src_ideal == mine.src_ideal == ideal_data(mine.src)
            assert ext.kernel_in_small == in_row_span(mine.src.ctx, mine.src_ideal.small, mine.kernel_gen)
        squares = {mine.src_ideal.square_rows for mine in own}
        ctx = members[0].ctx
        if subrings._siblings_share_square(ctx):
            # the claim: one m^2 and one kernel bit per family
            assert len(squares) == 1
            assert len({mine.kernel_in_small for mine in own}) == 1
        seen["families"] += 1
        seen["shared"] += len(members) > 1 and len(squares) == 1
        seen["differ"] += len(squares) > 1
        return pairs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subrings, "_family_extensions", checking)
        enumerate_subrings(ctx)
    return seen["families"], seen["shared"], seen["differ"]


def lift_row(up, row):
    """A row of the ring one step below up, read in up: a column of 0 added
    on an n-step, the same entries on a k-step."""
    return row + (0,) * (up.n - len(row))


def family_test(members):
    """T on a lift family (R, *lifts) in ctx: in the ring one level up, the
    kernel generator z of the step into ctx, lifted, times every row of R's
    m (p included, and z, which lies in m) is 0."""
    ctx = members[0].ctx
    up = extension_ctx(ctx)
    z = lift_row(up, kernel_generator(ctx))
    m = ideal_data(members[0]).max_ideal
    return all(up.mul(z, lift_row(up, r)) == up.zero() for r in m)


def family_rules(ctx):
    """(rule, T) for every lift family of two or more members that the
    enumeration of ctx extends."""
    inner, seen = subrings._family_extensions, []

    def recording(ext):
        members = family_of(ext)
        if len(members) > 1:
            seen.append((subrings._siblings_share_square(ext.src.ctx), family_test(members)))
        return inner(ext)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subrings, "_family_extensions", recording)
        enumerate_subrings(ctx)
    return seen


class TestSharedSquare:
    @pytest.mark.parametrize("ctx", WALK_RINGS, ids=repr)
    def test_family_extensions_match_each_member(self, ctx):
        families, shared, differ = checked_family_walk(ctx)
        if ctx.n >= 4 and not ctx.p_image:
            assert shared
            # only the n = 2 family of the prime ring differs
            assert differ == 1

    @given(field_params())
    @settings(max_examples=30, deadline=None)
    def test_family_extensions_match_each_member_on_fields(self, params):
        checked_family_walk(field_ring(*params))

    @given(z_params())
    @settings(max_examples=30, deadline=None)
    def test_family_extensions_match_each_member_on_z(self, params):
        checked_family_walk(zpn_ring(*params))

    @pytest.mark.parametrize("ctx", WALK_RINGS + [zpn_ring(2, 2, 7, 1)], ids=repr)
    def test_rule_is_the_family_test(self, ctx):
        # the closed form, read off the ring's facts, against T computed with
        # ring mul on every family that has siblings
        seen = family_rules(ctx)
        assert all(rule == t for rule, t in seen)
        if ctx.p_image and ctx.n >= 4:
            # both answers occur: k-steps above fail T, n-steps pass it
            assert {rule for rule, _ in seen} == {True, False}

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_n_2_family_is_not_shared(self, q):
        # the family of the prime ring one step up is the full ring, which
        # holds x, and the prime ring; their preimages have m^2 = (x^2) and 0
        B = Subring.prime_ring(field_ring(q, 1))
        ext = restricted_extension(B)
        ctx = ext.src.ctx
        assert ext.src == closure(ctx, [ctx.parse("x")])
        lifts = lift_isomorphic(ext).lifts
        assert lifts == (Subring.prime_ring(ctx),)
        squares = [restricted_extension(M).src_ideal.square for M in (ext.src, *lifts)]
        up = extension_ctx(ctx)
        assert squares == [(up.monomial(2),), ()]
        assert not subrings._siblings_share_square(ctx)
        # F_q[x]/x^3: this family, the one that differs, is the one family
        # an extension makes (the root, the prime ring of F_q, is made by none)
        assert checked_family_walk(field_ring(q, 3)) == (1, 0, 1)

    def test_z_siblings_are_not_shared(self):
        # over Z/p^N, N > 1, z = p^(k-1) x^(n-1) times w need not vanish
        ctx = zpn_ring(2, 2, 6, 1)
        # 234 families that extensions make, and the root
        assert checked_family_walk(ctx) == (234, 46, 32)
        B = Subring.prime_ring(zpn_ring(2, 2, 2))
        ext = restricted_extension(B)
        members = (ext.src, *lift_isomorphic(ext).lifts)
        assert ext.src.ctx.n >= 3 and len(members) == 2
        squares = {restricted_extension(M).src_ideal.square_rows for M in members}
        assert len(squares) == 2
        assert not subrings._siblings_share_square(ext.src.ctx)


class TestEnumeratorAgreement:
    # closure_bfs costs far more per ring than the quotient-tree walk
    # (about 1 s on F2[x]/x^8), so these draws stop at 128 elements
    @given(field_params(128))
    @settings(max_examples=25, deadline=None)
    def test_closure_bfs_matches_minimal_ext_on_fields(self, params):
        ctx = field_ring(*params)
        assert enumerate_subrings(ctx) == enumerate_subrings(ctx, "closure_bfs")

    @given(z_params(128))
    @settings(max_examples=25, deadline=None)
    def test_closure_bfs_matches_minimal_ext_on_z_rings(self, params):
        ctx = zpn_ring(*params)
        assert enumerate_subrings(ctx) == enumerate_subrings(ctx, "closure_bfs")


# -- the orderly subspace scan ---------------------------------------------------
#
# subspace_scan builds the subrings of a field ring top down, one echelon row
# at a time, with ring mul and _reducer only.  Most of these rings are beyond
# closure_bfs.

SCAN_RINGS = [
    field_ring(2, 12),
    field_ring(3, 9),
    field_ring(4, 7),
    field_ring(5, 6),
    field_ring(9, 5),
    zpn_ring(2, 1, 10),
    zpn_ring(3, 1, 8),
    zpn_ring(5, 1, 6),
]


class TestSubspaceScan:
    @pytest.mark.parametrize("ctx", SCAN_RINGS, ids=repr)
    def test_matches_minimal_ext(self, ctx):
        assert enumerate_subrings(ctx, "subspace_scan") == enumerate_subrings(ctx)

    @given(field_params(4096))
    @settings(max_examples=25, deadline=None)
    def test_matches_minimal_ext_on_draws(self, params):
        ctx = field_ring(*params)
        assert enumerate_subrings(ctx, "subspace_scan") == enumerate_subrings(ctx)

    @pytest.mark.parametrize(
        "ctx", [field_ring(2, 9), field_ring(3, 6), field_ring(4, 5), field_ring(8, 4), zpn_ring(3, 1, 6)],
        ids=repr,
    )
    def test_every_result_is_a_canonical_unital_closed_subring(self, ctx):
        subs = enumerate_subrings(ctx, "subspace_scan")
        assert len(set(subs)) == len(subs)
        assert subs == sorted(subs)
        for S in subs:
            assert S.basis == canonicalize(ctx, S.basis)
            assert S.contains(ctx.one())
            for i, a in enumerate(S.basis):
                for b in S.basis[i:]:
                    assert S.contains(ctx.mul(a, b))

    def test_guard_is_the_summed_census_bound(self):
        # the summed Gaussian binomials of F2[x]/x^10, the old guard, are
        # far over any budget; its summed census bound is 596, its count
        assert len(enumerate_subrings(field_ring(2, 10), "subspace_scan")) == 596
        t0 = time.perf_counter()
        # F2[x]/x^15: a bound of 91,347 subrings; F2[x]/x^25: too many shapes
        for n in (15, 25):
            with pytest.raises(TooLarge):
                enumerate_subrings(field_ring(2, n), "subspace_scan")
        assert time.perf_counter() - t0 < 1

    def test_uses_ring_mul_and_reduce_only(self, monkeypatch):
        # every node is canonical by construction, and the scan shares no
        # kernel with the quotient-tree walk
        rings = [field_ring(2, 8), field_ring(3, 5), zpn_ring(2, 1, 6)]
        refs = [enumerate_subrings(ctx) for ctx in rings]

        def refuse(*args):
            raise AssertionError("the scan reached a walk kernel or an echelon pass")

        for name in ("_rref", "_xor_echelon", "_xor_mul", "_packed_howell"):
            monkeypatch.setattr(subrings, name, refuse)
        for ctx, ref in zip(rings, refs):
            assert [S.basis for S in enumerate_subrings(ctx, "subspace_scan")] == [
                S.basis for S in ref
            ]


class TestClosureGuard:
    @pytest.mark.parametrize(
        "ctx", [field_ring(2, 6), field_ring(4, 3), zpn_ring(2, 2, 4, 1), zpn_ring(3, 2, 3, 1)], ids=repr
    )
    def test_bound_covers_the_closures_made(self, ctx, monkeypatch):
        made = Counter()
        inner = subrings.closure

        def counting(ctx, gens):
            made["closure"] += 1
            return inner(ctx, gens)

        monkeypatch.setattr(subrings, "closure", counting)
        enumerate_subrings(ctx, "closure_bfs")
        points = len(ctx.domain.points)
        bound = sum(ctx.base ** (e + points - len(sh)) for sh, e in subrings._shape_bounds(ctx))
        assert 0 < made["closure"] <= bound

    def test_refuses_before_scanning(self):
        # F2[x]/x^11 has 2,048 elements but a bound of 146,487 closures (it
        # makes 145,360); F4[x]/x^6, with 4,096 elements, makes 8,787
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match="exceeds the scan limit"):
            enumerate_subrings(field_ring(2, 11), "closure_bfs")
        assert time.perf_counter() - t0 < 1


def _plant_collision(monkeypatch, ctx, depth):
    """Make lift_isomorphic add the preimage to its own lifts on the level
    `depth` quotient steps below ctx, so that level holds a subring twice;
    returns the planted list."""
    level_ctx = ctx
    for _ in range(depth):
        level_ctx = quotient_ctx(level_ctx)
    inner = subrings.lift_isomorphic
    planted = []

    def planting(ext):
        fam = inner(ext)
        if ext.src.ctx == level_ctx:
            planted.append(ext.src)
            return dataclasses.replace(fam, lifts=fam.lifts + (ext.src,))
        return fam

    monkeypatch.setattr(subrings, "lift_isomorphic", planting)
    return planted


COLLISION_RINGS = [field_ring(2, 5), field_ring(3, 4), zpn_ring(2, 2, 3, 1)]


class TestCollisionCheck:
    # depth 0 is the top level, 1 the parents of the top, 2 one level
    # below the parents: the walk checks for collisions at the top only
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("ctx", COLLISION_RINGS, ids=repr)
    def test_planted_collision_is_an_invariant_violation(self, ctx, depth, monkeypatch):
        enumerate_subrings(ctx)
        planted = _plant_collision(monkeypatch, ctx, depth)
        with pytest.raises(InvariantViolation):
            enumerate_subrings(ctx)
        assert planted

    # the census counts the top level instead of calling lift_isomorphic
    # there, so a depth 0 plant never reaches it.  Where
    # _siblings_share_square holds one level below the top, as on these
    # rings, the census counts that level's lifts too, never building them,
    # so a depth 1 plant is never planted and the counts stand; the
    # complement check guards those families
    # (test_counted_families_keep_the_complement_check), and the rings
    # below, where the rule fails there, still build them.  Unguarded, the
    # depth 2 plant on F2[x]/x^6 counted 35 subrings instead of 24
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize(
        "ctx", COLLISION_RINGS + [field_ring(2, 6), field_ring(4, 5), field_ring(2, 8)], ids=repr
    )
    def test_planted_collision_stops_the_census(self, ctx, depth, monkeypatch):
        want = census(ctx)
        planted = _plant_collision(monkeypatch, ctx, depth)
        if depth == 1:
            assert subrings._siblings_share_square(quotient_ctx(ctx))
            assert census(ctx) == want
            assert not planted
            return
        with pytest.raises(InvariantViolation, match="lifts in a family"):
            census(ctx)
        assert planted

    # where the rule fails one level below the top (n = 2 there over a
    # field, a k-step to the top over Z/p^N), the census builds that level's
    # lift families, and a plant there stops it
    @pytest.mark.parametrize(
        "ctx", [field_ring(2, 3), field_ring(3, 3), zpn_ring(2, 2, 3), zpn_ring(2, 3, 4), zpn_ring(3, 2, 4)], ids=repr
    )
    def test_planted_collision_below_the_top_stops_the_building_census(self, ctx, monkeypatch):
        assert not subrings._siblings_share_square(quotient_ctx(ctx))
        census(ctx)
        planted = _plant_collision(monkeypatch, ctx, 1)
        with pytest.raises(InvariantViolation, match="lifts in a family"):
            census(ctx)
        assert planted

    @pytest.mark.parametrize("ctx", [field_ring(2, 6), field_ring(3, 5), zpn_ring(2, 2, 5, 1)], ids=repr)
    def test_counted_families_keep_the_complement_check(self, ctx, monkeypatch):
        # a lift complement one row short one level below the top, where the
        # census counts the lifts of every family and builds none
        below = quotient_ctx(ctx)
        assert subrings._siblings_share_square(below)
        inner = subrings._lift_complement

        def short(c, data):
            w = inner(c, data)
            return w[1:] if c is below else w

        monkeypatch.setattr(subrings, "_lift_complement", short)
        planted = _plant_collision(monkeypatch, ctx, 1)
        with pytest.raises(InvariantViolation, match="complement of size"):
            census(ctx)
        assert not planted


class TestWalkSafetyNets:
    """Each InvariantViolation the walk raises, reached by a planted fault
    that gets past every check before it."""

    @pytest.mark.parametrize(
        "ctx, kernel",
        [
            (zpn_ring(2, 2, 3), "_howell_lift_bases"),
            (field_ring(2, 5), "_xor_lift_bases"),
            (field_ring(4, 4), "_lift_bases"),
        ],
        ids=repr,
    )
    def test_repeated_lift(self, ctx, kernel, monkeypatch):
        # a lift-bases kernel that returns its first lift in place of its last
        inner = getattr(subrings, kernel)
        monkeypatch.setattr(subrings, kernel, lambda *args: (lambda b: b[:-1] + b[:1])(inner(*args)))
        with pytest.raises(InvariantViolation, match="lifts must be pairwise distinct"):
            enumerate_subrings(ctx)

    def test_chain_that_does_not_return(self, monkeypatch):
        # one level up from the ring below the top, an equal but distinct context
        ctx = field_ring(2, 4)
        monkeypatch.setattr(subrings, "extension_ctx", lambda c: field_ring(2, c.n + 1))
        with pytest.raises(InvariantViolation, match="does not return to it"):
            enumerate_subrings(ctx)

    def test_extension_in_a_twin_context(self, monkeypatch):
        # every step below the top lands in an equal but distinct context
        ctx, inner = field_ring(2, 4), subrings.extension_ctx

        def twin(c):
            up = inner(c)
            return up if up is ctx else field_ring(2, up.n)

        monkeypatch.setattr(subrings, "extension_ctx", twin)
        with pytest.raises(InvariantViolation, match="extension landed in"):
            enumerate_subrings(ctx)

    @pytest.mark.parametrize("ctx", [field_ring(2, 4), zpn_ring(2, 2, 3, 1)], ids=repr)
    def test_family_yielded_twice(self, ctx, monkeypatch):
        # each family of the right size, but every one made twice
        inner = subrings._step
        monkeypatch.setattr(subrings, "_step", lambda members: [fam for fam in inner(members) for _ in range(2)])
        with pytest.raises(InvariantViolation, match="preimages and lifts must not collide"):
            enumerate_subrings(ctx)


@pytest.mark.parametrize("ctx", [field_ring(2, 6), zpn_ring(2, 2, 4, 1)], ids=repr)
def test_dropped_top_lift_stops_the_enumeration(ctx, monkeypatch):
    # the enumeration builds the top through _step, whose family-size check
    # sees a lift lost there, as the walk's levels below do
    inner = subrings.lift_isomorphic
    dropped = []

    def dropping(ext):
        fam = inner(ext)
        if ext.src.ctx == ctx and fam.lifts:
            dropped.append(fam.lifts[-1])
            return dataclasses.replace(fam, lifts=fam.lifts[:-1])
        return fam

    monkeypatch.setattr(subrings, "lift_isomorphic", dropping)
    with pytest.raises(InvariantViolation, match="lifts in a family of dimension"):
        enumerate_subrings(ctx)
    assert dropped


@pytest.mark.parametrize("p,N,n", [(2, 1, 4), (2, 2, 3), (2, 3, 3), (3, 2, 3), (5, 1, 3)])
def test_dead_top_coefficient_keeps_the_census(p, N, n):
    # k = 0 kills the x^(n-1) column, leaving the ring of truncation order n-1
    assert census(zpn_ring(p, N, n, 0)) == census(zpn_ring(p, N, n - 1))


def _moduli(p, e):
    """Every modulus FieldCtx accepts for F_(p^e), by trying each monic
    polynomial of degree e."""
    out = []
    for tail in itertools.product(range(p), repeat=e):
        try:
            FieldCtx(p, e, tail + (1,))
        except ValueError:
            continue
        out.append(tail + (1,))
    return out


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_census_is_independent_of_the_modulus(p, e, n):
    moduli = _moduli(p, e)
    # (p^e - p) / e monic irreducibles of prime degree e
    assert len(moduli) == (p**e - p) // e

    def rows(modulus):
        return [
            (r.shape.elems, r.count, r.bound, r.d_ring_values)
            for r in census(field_ring(p**e, n, modulus))
        ]

    ref = rows(None)
    assert all(rows(mod) == ref for mod in moduli)


# -- closure_bfs adjoins one representative per coset ---------------------------
#
# closure_bfs writes down one representative r per coset of S (_coset_reps)
# and closes S + r; the reducer against S's canonical basis is the oracle.
# These rings have non-unit Howell pivots (p^a with a >= 1) in the subrings
# the reduction runs against.
COSET_RINGS = [
    field_ring(8, 3),
    field_ring(9, 3),
    zpn_ring(3, 2, 3, 1),
    zpn_ring(2, 3, 3, 2),
    zpn_ring(2, 3, 3, 1),
]


class TestCosetReduction:
    @pytest.mark.parametrize("ctx", COSET_RINGS, ids=repr)
    def test_closure_bfs_matches_minimal_ext(self, ctx):
        assert bfs_subrings(ctx) == enumerate_subrings(ctx)

    @pytest.mark.parametrize("ctx", COSET_RINGS, ids=repr)
    def test_reduction_is_constant_on_cosets(self, ctx):
        rng = random.Random(repr(ctx))
        ambient = list(ctx.elements())
        zero = ctx.zero()
        for S in enumerate_subrings(ctx):
            members = S.elements()
            reps = {_reducer(ctx, S.basis)(a) for a in ambient}
            # one reduction per coset: exactly |R| / |S| distinct values
            assert len(reps) * S.size == ctx.size
            assert {_reducer(ctx, S.basis)(s) for s in members} == {zero}
            for a in rng.sample(ambient, 20):
                r = _reducer(ctx, S.basis)(a)
                for s in rng.sample(members, min(5, len(members))):
                    assert _reducer(ctx, S.basis)(ctx.add(a, s)) == r

    @pytest.mark.parametrize(
        "ctx",
        [zpn_ring(2, 2, 4, 1), zpn_ring(3, 2, 3), zpn_ring(2, 3, 3, 2), field_ring(4, 4), field_ring(3, 4)],
        ids=repr,
    )
    def test_written_down_reps_are_the_reductions(self, ctx):
        zero = ctx.zero()
        for S in enumerate_subrings(ctx, "closure_bfs"):
            reps = list(subrings._coset_reps(ctx, S.basis))
            assert len(reps) == len(set(reps))
            assert set(reps) == {_reducer(ctx, S.basis)(v) for v in ctx.elements()} - {zero}

    @pytest.mark.parametrize("ctx", COSET_RINGS, ids=repr)
    def test_in_row_span_matches_member_scan(self, ctx):
        ambient = list(ctx.elements())
        for S in enumerate_subrings(ctx):
            members = set(S.elements())
            assert {a for a in ambient if in_row_span(ctx, S.basis, a)} == members


# -- packed F_2 rows against the tuple kernels -----------------------------------
#
# Subrings of F_2[x]/x^n and Z[x]/(2, x^n) keep packed int rows.  The tuple
# kernels (_rref, ring mul, _reducer, _lift_bases) are the reference, and so
# is the whole tuple path, reached by making _packs refuse every ring.

F2 = FieldCtx(2)


def f2_row(width):
    return st.tuples(*(st.integers(0, 1) for _ in range(width)))


def packed_rows(rows):
    return tuple(map(subrings._pack, rows))


def unpacked_rows(rows, width):
    return subrings._unpack(rows, 1, width)


class TestPackedKernels:
    @given(st.integers(1, 12).flatmap(lambda w: st.tuples(f2_row(w), f2_row(w))))
    def test_packing_keeps_rows_and_their_order(self, pair):
        a, b = pair
        pa, pb = subrings._pack(a), subrings._pack(b)
        assert unpacked_rows([pa], len(a)) == (a,)
        assert (pa < pb) == (a < b)

    @given(st.data())
    def test_echelon_matches_rref_with_tag_columns(self, data):
        n = data.draw(st.integers(1, 10))
        d = data.draw(st.integers(0, 4))
        rows = data.draw(st.lists(f2_row(n + d), max_size=8))
        got = subrings._xor_echelon(packed_rows(rows))
        assert unpacked_rows(got, n + d) == subrings._rref(F2, rows)
        assert got == tuple(sorted(got, reverse=True))

    @given(st.integers(1, 14).flatmap(lambda n: st.tuples(f2_row(n), f2_row(n))))
    def test_mul_matches_ring_mul(self, pair):
        a, b = pair
        n = len(a)
        got = subrings._xor_mul(subrings._pack(a), subrings._pack(b), n)
        assert unpacked_rows([got], n) == (field_ring(2, n).mul(a, b),)

    @given(st.data())
    def test_lift_bases_match_tuple_lift_bases(self, data):
        n = data.draw(st.integers(2, 9))
        ctx = field_ring(2, n)
        w = data.draw(st.lists(f2_row(n), max_size=4))
        small = subrings._rref(F2, data.draw(st.lists(f2_row(n), max_size=5)))
        try:
            want = subrings._lift_bases(ctx, w, small)
        except InvariantViolation:
            with pytest.raises(InvariantViolation):
                subrings._xor_lift_bases(n, packed_rows(w), packed_rows(small))
            return
        got = subrings._xor_lift_bases(n, packed_rows(w), packed_rows(small))
        assert [unpacked_rows(b, n) for b in got] == want


    @pytest.mark.parametrize("ctx", [zpn_ring(2, 2, 3), zpn_ring(3, 2, 3, 1), field_ring(3, 3)], ids=repr)
    def test_kernel_column_pivot_raises_on_residue_rows(self, ctx):
        # w = x^2 leads at the kernel column, where z = p^(k-1) x^2 is a
        # multiple of it; the packed lift bases refuse it as the XOR ones do
        K = subrings._row_kernel(ctx)
        with pytest.raises(InvariantViolation, match="kernel column of a lift family"):
            subrings._howell_lift_bases(layout_of(ctx), K.one, K.z, K.pack([ctx.monomial(2)]), ())

    def test_kernel_column_pivot_raises_under_optimization(self):
        # w = x^2 in F2[x]/x^3 is the kernel generator itself
        script = """
import sys
from truncring import InvariantViolation
from truncring.subrings import _xor_lift_bases
if __debug__:
    sys.exit("not running under -O")
try:
    _xor_lift_bases(3, [0b001], [])
except InvariantViolation:
    sys.exit(0)
sys.exit("no InvariantViolation")
"""
        src = str(Path(truncring.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]


def subring_view(S):
    """What the public API says about S, its image one step down
    (project_subring, where there is a step down) and its preimage and
    lifts one step up (restricted_extension, lift_isomorphic): the row
    kernel's projection, preimage and lift bases, on either row format."""
    data = ideal_data(S)
    down = quotient_ctx(S.ctx)
    ext = restricted_extension(S)
    fam = lift_isomorphic(ext)
    return (
        S.basis,
        (S.log_size, S.basis),
        exponent_set(S).elems,
        S.cotangent,
        cotangent_dim(S),
        (data.max_ideal, data.square, data.small),
        project_subring(S, down).basis if down is not None else None,
        (ext.src.basis, ext.kernel_in_small, ext.src.cotangent, exponent_set(ext.src).elems),
        (fam.exists, fam.dim, [(L.basis, L.cotangent, exponent_set(L).elems) for L in fam.lifts]),
    )


# Z[x]/(2, x^n) is F_2[x]/x^n and runs the same packed path; the F_2 cases
# keep their plain ids 1..9.  Past F_2 the residue rings keep packed rows in
# their chain's width: Z/p^N with k-steps at p = 2, 3 and N = 2, 3, and F_3
# and F_5.  The chains of Z[x]/(2^2, x^5, 2x^4), F3[x]/x^6 and F5[x]/x^4
# change width between levels (test_chain_width_changes).
Z_PACKED = [(2, 2, 3, 1), (2, 2, 4, 2), (2, 2, 5, 1), (2, 3, 3, 2), (3, 2, 3, 1), (3, 2, 4, 2), (3, 3, 3, 2)]
PACKED_RINGS = (
    [pytest.param(n, functools.partial(field_ring, 2), id=str(n)) for n in range(1, 10)]
    + [pytest.param(n, functools.partial(zpn_ring, 2, 1), id=repr(zpn_ring(2, 1, n))) for n in range(1, 10)]
    + [
        pytest.param(n, functools.partial(zpn_ring, p, N, k=k), id=repr(zpn_ring(p, N, n, k)))
        for p, N, n, k in Z_PACKED
    ]
    + [
        pytest.param(n, functools.partial(field_ring, q), id=repr(field_ring(q, n)))
        for q, top in ((3, 6), (5, 4))
        for n in range(1, top + 1)
    ]
)


def howell(ctx, rows):
    """canonicalize's oracle on the Z family: the tuple Howell pass."""
    return tuple_howell(ctx.coeff, ctx.caps_log, rows)


def rounds_insert(ctx, table, rows):
    """The insertion phase of closure's table over Z/p^N on tuple rows, by
    the rounds oracle's step (rounds_closure): table, pivot column -> row,
    holds a canonical basis; the rows are reduced against it and, where
    any is left, the basis is put in Howell form with them (howell).  An
    entry that does not change keeps its object, so closure sees it as
    old; a Howell basis keeps its pivot columns as its span grows."""
    basis = tuple(table[c] for c in sorted(table))
    fresh = [r for r in map(subrings._reducer(ctx, basis), rows) if any(r)]
    for r in howell(ctx, [*basis, *fresh]) if fresh else ():
        if table.get(c := subrings._lead(r)) != r:
            table[c] = r
    return table


def tuple_path(monkeypatch):
    """Make every ring built from now on keep tuple rows: _packs refuses
    every ring.  The library's tuple kernel serves F_q with q = p^e, e > 1,
    so on the Z family its jobs that hold only over a field are replaced
    by oracles: the preimage, the projection, the lift bases and m^2 by
    the tuple Howell form (howell, not canonicalize, which runs the
    kernel being replaced) of the lifted rows and z, of the projected
    rows, of 1, small and the w_i - c_i z, and of the ring products; closure's
    insertion by the rounds oracle's step (rounds_insert), its table then
    a canonical basis to finish by sorting; and nu by the ring's."""
    monkeypatch.setattr(subrings, "_packs", lambda ctx: False)
    inner = subrings._RowKernel

    def lift_bases(ctx, z, w, small):
        edits = itertools.product(range(ctx.base), repeat=len(w))
        shifted = lambda c: [ctx.sub(wi, ctx.scalar_mul(ci, z)) for wi, ci in zip(w, c)]
        return [howell(ctx, [ctx.one(), *shifted(c), *small]) for c in edits]

    def kernel(ctx):
        K = inner(ctx)
        if isinstance(ctx, ZpNPolyCtx):
            K.nu = ctx.nu
            K.square = lambda m: howell(ctx, [ctx.mul(a, b) for i, a in enumerate(m) for b in m[i:]])
            K.insert = functools.partial(rounds_insert, ctx)
            K.finish = lambda table: tuple(table[c] for c in sorted(table))
        if isinstance(ctx, ZpNPolyCtx) and ctx.n > 1:
            down, z = quotient_ctx(ctx), kernel_generator(ctx)
            K.preimage = lambda rows: howell(ctx, [lift_row(ctx, r) for r in rows] + [z])
            K.project = lambda rows: howell(down, [project(ctx, down, r) for r in rows])
            K.lift_bases = functools.partial(lift_bases, ctx, z)
        return K

    monkeypatch.setattr(subrings, "_RowKernel", kernel)


class TestPackedPaths:
    @pytest.mark.parametrize("n, ring", PACKED_RINGS)
    def test_every_subring_matches_the_tuple_path(self, n, ring, monkeypatch):
        ctx = ring(n)
        packed = enumerate_subrings(ctx)
        assert all(isinstance(r, int) for S in packed for r in S._rows)
        packed_view = [subring_view(S) for S in packed]
        packed_census = census(ctx)
        tuple_path(monkeypatch)
        ctx = ring(n)
        plain = enumerate_subrings(ctx)
        assert all(S._rows == S.basis for S in plain)
        assert [subring_view(S) for S in plain] == packed_view
        assert census(ctx) == packed_census

    def test_chain_width_changes(self):
        # the rows of these chains change width on some n-step below the top
        for ctx in (zpn_ring(2, 2, 5, 1), field_ring(3, 6), field_ring(5, 4)):
            widths = {layout_of(C).w for C in subrings._quotient_chain(ctx)}
            assert len(widths) > 1

    @pytest.mark.parametrize(
        "argv",
        [
            # one step above Z[x]/(2^2, x^3), an n-step that widens the rows
            ["--p", "2", "--N", "2", "--n", "3", "--subring", "x"],
            ["--p", "2", "--N", "2", "--n", "3", "--subring", "2x;x^2"],
            # a k-step, and a k-step onto a subring with a top pivot
            ["--p", "3", "--N", "2", "--n", "3", "--k", "1", "--subring", "3x"],
            ["--p", "2", "--N", "3", "--n", "3", "--k", "2", "--subring", "x^2"],
            ["--q", "5", "--n", "3", "--subring", "x^2"],
        ],
        ids=" ".join,
    )
    def test_lifts_command_matches_the_tuple_path(self, argv, capsys, monkeypatch):
        from truncring.cli import main

        assert main(["lifts", *argv]) == 0
        packed = capsys.readouterr().out
        tuple_path(monkeypatch)
        assert main(["lifts", *argv]) == 0
        assert capsys.readouterr().out == packed

    def test_census_walk_builds_no_tuples(self, monkeypatch):
        counts = Counter()
        inner_basis = Subring.basis
        for cls in (FieldPolyCtx, ZpNPolyCtx):

            def counting_mul(self, a, b, inner=cls.mul):
                counts["mul"] += 1
                return inner(self, a, b)

            monkeypatch.setattr(cls, "mul", counting_mul)

        def counting_basis(self):
            counts["basis"] += 1
            return inner_basis.fget(self)

        monkeypatch.setattr(Subring, "basis", property(counting_basis))
        for ctx in (field_ring(2, 11), zpn_ring(2, 1, 11)):
            rows = census(ctx)
            assert sum(r.count for r in rows) == 1127
            assert counts == {}
        # the counters do count
        small = field_ring(2, 4)
        enumerate_subrings(small)[-1].basis
        x = small.parse("x")
        small.mul(x, x)
        assert counts["basis"] == 1 and counts["mul"]
        before = counts["mul"]
        small = zpn_ring(2, 1, 4)
        x = small.parse("x")
        small.mul(x, x)
        assert counts["mul"] > before

    @pytest.mark.parametrize("ctx", [zpn_ring(2, 2, 6, 1), zpn_ring(3, 2, 4), field_ring(3, 7)], ids=repr)
    def test_residue_census_converts_no_rows(self, ctx, monkeypatch):
        # rows stay packed along the whole quotient chain: once each level's
        # row kernel is built (the first census builds them), a census packs,
        # unpacks and reads no tuple row
        total = sum(r.count for r in census(ctx))
        counts = Counter()

        def counting(name, inner):
            def count(*args):
                counts[name] += 1
                return inner(*args)

            return count

        monkeypatch.setattr(subrings, "_pack", counting("_pack", subrings._pack))
        monkeypatch.setattr(subrings, "_unpack", counting("unpack", subrings._unpack))
        monkeypatch.setattr(Subring, "basis", property(counting("basis", Subring.basis.fget)))
        assert sum(r.count for r in census(ctx)) == total
        assert counts == {}
        # the counters do count
        enumerate_subrings(ctx)[-1].basis
        closure(ctx, [ctx.monomial(1)])
        assert set(counts) == {"_pack", "unpack", "basis"}

    def test_closure_bfs_packs_only_the_generators(self, monkeypatch):
        # closure starts its table from S's rows as they are, so closure_bfs
        # packs each generator it adjoins and nothing else (it made 35,578
        # packs of S's rows on this ring while Z/p^N subrings kept tuples)
        ctx = zpn_ring(2, 2, 5)
        subrings._row_kernel(ctx)
        packed, given = Counter(), Counter()
        inner_pack, inner_closure = subrings._pack, subrings.closure

        def counting_pack(row, w=1):
            row = tuple(row)
            packed[row] += 1
            return inner_pack(row, w)

        def counting_closure(S, gens):
            given.update(map(tuple, gens))
            return inner_closure(S, gens)

        monkeypatch.setattr(subrings, "_pack", counting_pack)
        monkeypatch.setattr(subrings, "closure", counting_closure)
        assert len(enumerate_subrings(ctx, "closure_bfs")) == 221
        assert packed == given and sum(given.values()) > 1000


def live_contexts():
    return sum(isinstance(o, (FieldPolyCtx, ZpNPolyCtx)) for o in gc.get_objects())


@pytest.mark.parametrize(
    "run",
    [
        lambda: [census(zpn_ring(2, 2, 6, 1)) for _ in range(3)],
        lambda: truncring.run_suite(field_ring(2, 7), "all"),
        lambda: truncring.run_suite(zpn_ring(2, 2, 4, 1), "all"),
        lambda: truncring.run_suite(field_ring(4, 3), "all"),
        lambda: lift_isomorphic(restricted_extension(closure(zpn_ring(2, 2, 3), [(0, 2, 1)]))),
    ],
    ids=["census", "verify F2", "verify Z", "verify F4", "lifts"],
)
def test_contexts_are_freed_by_reference_counting(run):
    # a chain links down strongly and up weakly, and no kernel a context
    # holds refers back to it, so a context goes when its last holder does,
    # with the cyclic collector off
    gc.collect()
    gc.disable()
    try:
        before = live_contexts()
        run()
        assert live_contexts() == before
    finally:
        gc.enable()


# -- quotient steps read off the parent, against canonicalize and ring mul -------
#
# restricted_extension writes a preimage's basis down from B's rows, and
# ideal_data writes m down from R's rows, forms m^2 by Kronecker substitution
# over Z/p^N and F_p, and reads the obstruction module m^2 + pR, the kernel
# test and the lift complement off m^2's canonical basis.  canonicalize,
# in_row_span and ring mul are the reference.


def step_kind(B):
    """'n' for a step that adds a column, 'top' for a k-step where B has a
    pivot in the top column, 'k' for any other k-step."""
    n = B.ctx.n
    if extension_ctx(B.ctx).n > n:
        return "n"
    return "top" if subrings._lead(B.basis[-1]) == n - 1 else "k"


def check_ideal_data(S):
    ctx, rows = S.ctx, S.basis
    data = ideal_data(S)
    p = ctx.p_image
    # the reduced member of 1 + span(rows[1:]), which m's basis relies on
    assert rows[0] == ctx.one()
    if p:
        assert data.max_ideal == canonicalize(ctx, [ctx.scalar_mul(p, rows[0]), *rows[1:]])
    m = data.max_ideal
    prods = [ctx.mul(a, b) for i, a in enumerate(m) for b in m[i:]]
    assert data.square == canonicalize(ctx, prods)
    if p:
        assert data.small == canonicalize(ctx, prods + [ctx.scalar_mul(p, r) for r in rows])
    else:
        assert data.small == data.square


def pivot(row):
    """(column, entry) of a canonical row's pivot."""
    col = subrings._lead(row)
    return col, row[col]


def check_kernel_and_complement(ext):
    """The kernel test and the lift complement against canonicalize."""
    ctx, data, z = ext.src.ctx, ext.src_ideal, ext.kernel_gen
    assert ext.kernel_in_small == in_row_span(ctx, data.small, z)
    if not ext.kernel_in_small:
        grown = {pivot(r) for r in canonicalize(ctx, [*data.small, z])}
        want = [r for r in data.max_ideal if pivot(r) not in grown]
        assert list(data._tuples(subrings._lift_complement(ctx, data))) == want


def checked_census_walk(ctx):
    """Census ctx with every restricted_extension checked against the
    reference; returns the Counter of step kinds met."""
    inner, kinds = subrings.restricted_extension, Counter()

    def checking(B):
        ext = inner(B)
        src = ext.src.ctx
        lifted = [r + (0,) * (src.n - len(r)) for r in B.basis]
        assert ext.src.basis == canonicalize(src, lifted + [kernel_generator(src)])
        assert ext.src_ideal == ideal_data(ext.src)
        check_ideal_data(B)
        check_ideal_data(ext.src)
        check_kernel_and_complement(ext)
        kinds[step_kind(B)] += 1
        return ext

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subrings, "restricted_extension", checking)
        census(ctx)
    return kinds


def has_k_step(p, N, n, k):
    """Whether the quotient chain up to Z[x]/(p^N, x^n, p^k x^(n-1)) has a
    step that keeps n: one into a tail exponent of 2 or more."""
    return N >= 2 and (n >= 3 or (n == 2 and k >= 2))


def kron_row(ctx):
    return st.tuples(*(st.integers(0, c - 1) for c in ctx.caps))


def layout_of(ctx):
    """The packed layout of ctx's column caps, which its m^2 kernel and
    canonicalize share."""
    return subrings._layout(ctx.coeff.p, ctx.caps_log)


def kron_unpack(L, v):
    """The row of a packed product in the layout L, each column reduced by
    its cap."""
    fm = (1 << L.w) - 1
    return tuple(((v >> s) & fm) % c for s, c in zip(L.shifts, L.caps))


# the echelon pass each m^2 kernel ends in, and the kernel's name
SQUARE_KERNELS = {"_xor_echelon": "XOR", "_packed_howell": "Kronecker", "_rref": "ring mul"}


def square_kernel_of(ctx):
    """The m^2 kernel ideal_data runs on ctx, named by the one echelon pass
    it calls on the full ring; that ideal data is checked against ring mul
    and canonicalize."""
    S = closure(ctx, [ctx.monomial(1)])
    called = []
    with pytest.MonkeyPatch.context() as mp:
        for name, kernel in SQUARE_KERNELS.items():

            def recording(*args, inner=getattr(subrings, name), kernel=kernel):
                called.append(kernel)
                return inner(*args)

            mp.setattr(subrings, name, recording)
        ideal_data(S)
    check_ideal_data(S)
    assert len(called) == 1
    return called[0]


def counting_kernel_bits(monkeypatch):
    """A Counter, from now on, of the m^2 passes ("ideal_data") and of the
    kernel bits the valuation test decides with none ("fired")."""
    counts = Counter()
    inner, inner_test = subrings.ideal_data, subrings._kernel_is_a_product

    def counting(S):
        counts["ideal_data"] += 1
        return inner(S)

    def counting_test(R):
        fired = inner_test(R)
        counts["fired"] += fired
        return fired

    monkeypatch.setattr(subrings, "ideal_data", counting)
    monkeypatch.setattr(subrings, "_kernel_is_a_product", counting_test)
    return counts


class TestQuotientStepsFromParent:
    @pytest.mark.parametrize(
        "params, kinds",
        [
            ((3, 3, 4, 2), {"n", "k", "top"}),
            ((5, 2, 4, 1), {"n", "k", "top"}),
            ((2, 4, 4, 2), {"n", "k", "top"}),
            ((2, 2, 5, 1), {"n", "k", "top"}),
            ((2, 2, 2, 1), {"n"}),
        ],
        ids=str,
    )
    def test_every_z_step_matches_canonicalize(self, params, kinds):
        assert set(checked_census_walk(zpn_ring(*params))) == kinds

    @pytest.mark.parametrize("q, n", [(2, 8), (3, 6), (4, 5), (5, 4), (9, 3)])
    def test_every_field_step_matches_canonicalize(self, q, n):
        assert set(checked_census_walk(field_ring(q, n))) == {"n"}

    @pytest.mark.parametrize("p, n", [(2, 7), (3, 5), (5, 4)])
    def test_every_prime_coefficient_step_matches_canonicalize(self, p, n):
        assert set(checked_census_walk(zpn_ring(p, 1, n))) == {"n"}

    @given(z_params(limit=5**5, max_N=4))
    @settings(max_examples=30, deadline=None)
    def test_z_steps_match_canonicalize_on_draws(self, params):
        kinds = checked_census_walk(zpn_ring(*params))
        # every k-step has B = the prime ring (no top pivot) and B = the
        # whole ring below (a top pivot) among its parents
        assert ({"k", "top"} <= set(kinds)) == has_k_step(*params)

    @given(st.sampled_from([3, 4, 9]), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_field_steps_match_canonicalize_on_draws(self, q, n):
        assert set(checked_census_walk(field_ring(q, n))) <= {"n"}

    @given(st.data())
    def test_kronecker_products_match_ring_mul(self, data):
        # Z[x]/(2, x^n) keeps packed F_2 rows and the XOR kernel
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        N = data.draw(st.integers(2 if p == 2 else 1, 4))
        n = data.draw(st.integers(1, 8))
        ctx = zpn_ring(p, N, n, data.draw(st.integers(1, N)) if n > 1 else N)
        a, b = data.draw(kron_row(ctx)), data.draw(kron_row(ctx))
        L = layout_of(ctx)
        got = subrings._pack(a, L.w) * subrings._pack(b, L.w) >> L.shifts[0]
        assert kron_unpack(L, got) == ctx.mul(a, b)

    @given(st.data())
    def test_kronecker_products_match_prime_field_mul(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        n = data.draw(st.integers(1, 8))
        ctx = data.draw(st.sampled_from([field_ring(p, n), zpn_ring(p, 1, n)]))
        m = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=4))
        want = [ctx.mul(a, b) for i, a in enumerate(m) for b in m[i:]]
        K = subrings._row_kernel(ctx)
        assert K.unpack(K.square(K.pack(m))) == canonicalize(ctx, want)

    @pytest.mark.parametrize(
        "ctx, kernel",
        [
            (field_ring(2, 5), "XOR"),
            (zpn_ring(2, 1, 5), "XOR"),
            (field_ring(3, 5), "Kronecker"),
            (zpn_ring(3, 1, 5), "Kronecker"),
            (zpn_ring(2, 2, 5), "Kronecker"),
            (zpn_ring(3, 2, 4, 1), "Kronecker"),
            (field_ring(4, 4), "ring mul"),
            (field_ring(9, 3), "ring mul"),
        ],
        ids=repr,
    )
    def test_each_ring_picks_its_square_kernel(self, ctx, kernel):
        # packed F_2 rows take XOR products, residue coefficients (base p)
        # Kronecker products, and F_q with q = p^e, e > 1, ring mul
        assert square_kernel_of(ctx) == kernel

    def test_extension_fields_keep_ring_mul(self):
        assert all(square_kernel_of(field_ring(q, 3)) == "ring mul" for q in (4, 8, 9))

    @pytest.mark.parametrize("p, N, n", [(3, 1, 1), (2, 4, 8), (3, 3, 7), (7, 4, 8), (7, 1, 2)])
    def test_kronecker_width_holds_the_largest_products(self, p, N, n):
        # every coefficient p^N - 1: the x^(n-1) coefficient of a^2 is then
        # n (p^N - 1)^2 before reduction, the largest a field has to hold
        ctx = zpn_ring(p, N, n)
        a = tuple(c - 1 for c in ctx.caps)
        L = layout_of(ctx)
        packed = subrings._pack(a, L.w)
        assert kron_unpack(L, packed * packed >> L.shifts[0]) == ctx.mul(a, a)

    def test_z_census_makes_no_ring_products(self, monkeypatch):
        counts, per_parent = Counter(), []
        inner_mul, inner_canon = ZpNPolyCtx.mul, subrings.canonicalize
        inner_ext = subrings.restricted_extension

        def counting_mul(self, a, b):
            counts["mul"] += 1
            return inner_mul(self, a, b)

        def counting_canon(ctx, rows):
            counts["canonicalize"] += 1
            return inner_canon(ctx, rows)

        def counting_ext(B):
            before = counts["canonicalize"]
            ext = inner_ext(B)
            per_parent.append(counts["canonicalize"] - before)
            return ext

        monkeypatch.setattr(ZpNPolyCtx, "mul", counting_mul)
        monkeypatch.setattr(subrings, "canonicalize", counting_canon)
        monkeypatch.setattr(subrings, "restricted_extension", counting_ext)
        rows = census(zpn_ring(2, 2, 5, 1))
        assert sum(r.count for r in rows) == 138
        assert counts["mul"] == 0
        # m^2 + pR, the kernel test and the complement are read off m^2
        assert per_parent and max(per_parent) == 0
        # the prime ring at the base of the chain is written down too
        assert counts["canonicalize"] == 0
        # the counters do count
        small = zpn_ring(2, 2, 2)
        x = small.parse("x")
        small.mul(x, x)
        subrings.canonicalize(small, [x])
        assert counts["mul"] and counts["canonicalize"]

    @pytest.mark.parametrize(
        "ctx, total",
        [(zpn_ring(2, 1, 11), 1127), (zpn_ring(3, 1, 7), 64), (field_ring(3, 7), 64)],
        ids=repr,
    )
    def test_prime_coefficient_census_makes_no_ring_products(self, ctx, total, monkeypatch):
        counts = Counter()
        for cls in (ZpNPolyCtx, FieldPolyCtx):

            def counting_mul(self, a, b, inner=cls.mul):
                counts["mul"] += 1
                return inner(self, a, b)

            monkeypatch.setattr(cls, "mul", counting_mul)
        assert sum(r.count for r in census(ctx)) == total
        assert counts["mul"] == 0
        # the counters do count
        x = ctx.parse("x")
        ctx.mul(x, x)
        assert counts["mul"]

    @pytest.mark.parametrize(
        "ctx", [field_ring(2, 10), field_ring(3, 8), zpn_ring(2, 1, 10), field_ring(2, 14)], ids=repr
    )
    def test_field_census_decides_one_kernel_bit_per_family(self, ctx, monkeypatch):
        # ctx's quotient chain, ctx first: the families below the top are the
        # root, (the prime ring,), and one per subring two or more levels
        # below the top
        chain = subrings._quotient_chain(ctx)
        families = 1 + sum(len(enumerate_subrings(C)) for C in chain[2:])
        below_top = sum(len(enumerate_subrings(C)) for C in chain[1:])
        counts = counting_kernel_bits(monkeypatch)
        assert sum(r.count for r in census(ctx)) == len(enumerate_subrings(ctx))
        counts.clear()
        census(ctx)
        # one kernel bit per family, the n = 2 family's two members one
        # each, decided by the valuation test or else by one m^2 pass.  On
        # F2[x]/x^14 that is 6,998 bits, 4,494 of them read off the exponent
        # points; one bit per subring below the top would be 15,361
        assert counts["ideal_data"] + counts["fired"] == families + 1 < below_top
        assert counts["fired"] > 0

    @pytest.mark.parametrize(
        "ctx, calls, fired",
        [
            (zpn_ring(2, 2, 7, 1), 1857, 908),
            (zpn_ring(2, 3, 5, 3), 979, 1556),
            (zpn_ring(3, 2, 5, 2), 390, 177),
            (field_ring(2, 14), 2504, 4494),
        ],
        ids=repr,
    )
    def test_census_ideal_data_calls(self, ctx, calls, fired, monkeypatch):
        # the census-z rings share m^2 wherever the step above adds a column
        # and z^2 vanishes there: 3,674, 2,598 and 603 calls when every Z
        # family member ran its own.  Of the extensions that remain (2,765,
        # 2,535, 567 and 6,998), the valuation test decides `fired` with no
        # m^2 pass
        counts = counting_kernel_bits(monkeypatch)
        census(ctx)
        assert (counts["ideal_data"], counts["fired"]) == (calls, fired)

    @pytest.mark.parametrize(
        "ctx, gens",
        [(field_ring(2, 4), ["x"]), (field_ring(9, 4), ["x^2", "x^3"]), (zpn_ring(2, 2, 3), ["x"])],
        ids=repr,
    )
    def test_valuation_test_defers_ideal_data(self, ctx, gens, monkeypatch):
        # nu(z) is a sum of two nonzero valuations of B's preimage: 4 = 1 + 3,
        # 4 = 2 + 2 and (3, 0) = (1, 0) + (2, 0), so the kernel bit needs no
        # m^2 pass, and ideal_data runs when src_ideal is first read
        B = closure(ctx, [ctx.parse(g) for g in gens])
        # B's own cotangent dimension, which lift_isomorphic reads, runs one
        B.cotangent
        calls = []
        inner = subrings.ideal_data
        monkeypatch.setattr(subrings, "ideal_data", lambda S: calls.append(S) or inner(S))
        ext = restricted_extension(B)
        fam = lift_isomorphic(ext)
        assert ext.kernel_in_small and not fam.exists and calls == []
        assert ext.src_ideal == inner(ext.src) and calls == [ext.src]
        assert ext.src_ideal is ext.src_ideal and len(calls) == 1
        assert in_row_span(ext.src.ctx, ext.src_ideal.small, ext.kernel_gen)

    @pytest.mark.parametrize("ctx", [zpn_ring(3, 2, 4), zpn_ring(2, 3, 3, 2)], ids=repr)
    def test_ring_constants_are_built_once_per_ring(self, ctx):
        # m's row p and the m^2 kernel live on the ring, so every subring of
        # one ring reads the same objects (the layout: test_one_layout_per_caps)
        subs = enumerate_subrings(ctx)
        assert {id(subrings._row_kernel(S.ctx)) for S in subs} == {id(subrings._row_kernel(ctx))}
        K = subrings._row_kernel(ctx)
        head = K.head
        assert K.unpack(head) == (ctx.monomial(0, ctx.p_image),)
        assert {id(ideal_data(S).max_rows[0]) for S in subs} == {id(head[0])}


# -- the packed Howell pass ------------------------------------------------------
#
# _packed_howell echelons ideal_data's packed m^2 products, the rows
# canonicalize is given over Z/p^N and a lift family's tagged rows; the
# tuple Howell pass below (over F_p, _rref) is its oracle, on rows whose
# columns run up to the Kronecker bound n (cap - 1)^2, multiples of the
# caps and of p included.


def tuple_howell(K, caps_log, rows):
    """Howell-style normal form over K = Z/p^N with per-column caps
    p^caps_log[j].

    Column by column: the entry of least p-valuation becomes the pivot and
    is normalized to an exact power of p; the worklist rows are cleared
    below it and the pivot rows above reduced into [0, pivot) by the same
    floor quotient, exact on the worklist; the annihilator multiple of the
    pivot row rejoins the worklist so that every span element with leading
    column c is reachable from pivots >= c.
    """
    p, nu1 = K.p, K.nu1
    ncols = len(caps_log)
    caps = [p**c for c in caps_log]
    work = [[x % c for x, c in zip(r, caps)] for r in rows]
    work = [r for r in work if any(r)]
    out = []
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
        for r in work + out:
            mfac = r[col] // piv
            if mfac:
                for j in range(col, ncols):
                    if row[j]:
                        r[j] = (r[j] - mfac * row[j]) % caps[j]
        ann = [(x * p ** (caps_log[col] - a)) % c for x, c in zip(row, caps)]
        if any(ann):
            work.append(ann)
        out.append(row)
    return tuple(tuple(r) for r in out)


@st.composite
def packed_howell_case(draw, field):
    """(ctx, rows): a ring with residue coefficients, F_p (p odd) or Z/p^N,
    and unreduced rows whose columns reach the Kronecker bound."""
    if field:
        p, n = draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 7))
        ctx = draw(st.sampled_from([field_ring(p, n), zpn_ring(p, 1, n)]))
    else:
        # Z[x]/(2, x^n) keeps packed F_2 rows and the XOR kernel
        p, n = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 7))
        N = draw(st.integers(2 if p == 2 else 1, 4))
        ctx = zpn_ring(p, N, n, draw(st.integers(1, N)) if n > 1 else N)
    cap = ctx.caps[0]
    bound = ctx.n * (cap - 1) ** 2
    entry = st.one_of(
        st.sampled_from([0, bound]),
        st.integers(0, cap - 1),
        st.integers(0, bound),
        st.integers(0, bound // cap).map(lambda t: t * cap),
        st.integers(0, (cap - 1) // p).map(lambda t: t * p),
    )
    return ctx, draw(st.lists(st.tuples(*[entry] * ctx.n), max_size=8))


def packed_howell(ctx, rows):
    L = layout_of(ctx)
    return subrings._unpack(subrings._packed_howell(L, [subrings._pack(r, L.w) for r in rows]), L.w, ctx.n)


@st.composite
def tagged_rows_case(draw):
    """(ctx, rows, d): a Z/p^N ring with N > 1 and rows of its n columns
    plus d tag columns, 1 <= d <= 4, entries unreduced or negative too."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 5))
    N = draw(st.integers(2, 3))
    ctx = zpn_ring(p, N, n, draw(st.integers(1, N)) if n > 1 else N)
    d = draw(st.integers(1, 4))
    cap = ctx.caps[0]
    entry = st.one_of(st.integers(0, cap - 1), st.integers(-2 * cap, 2 * cap))
    tag = st.one_of(st.integers(0, p - 1), st.integers(-p, 2 * p))
    row = st.tuples(*[entry] * n, *[tag] * d)
    return ctx, draw(st.lists(row, max_size=8)), d


class TestPackedHowell:
    @given(packed_howell_case(field=False))
    @settings(max_examples=400, deadline=None)
    def test_matches_howell(self, case):
        ctx, rows = case
        assert packed_howell(ctx, rows) == tuple_howell(ctx.coeff, ctx.caps_log, rows)

    @given(tagged_rows_case())
    @settings(max_examples=300, deadline=None)
    def test_tagged_echelon_matches_howell(self, case):
        # a lift family's rows: d tag columns, each capped at p, in the
        # layout _howell_lift_bases echelons them in
        ctx, rows, d = case
        L = subrings._layout(ctx.coeff.p, ctx.caps_log, d)
        packed = [subrings._pack((x % c for x, c in zip(r, L.caps)), L.w) for r in rows]
        got = subrings._unpack(subrings._packed_howell(L, packed), L.w, ctx.n + d)
        assert got == tuple_howell(ctx.coeff, ctx.caps_log + (1,) * d, rows)

    @given(packed_howell_case(field=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_rref_over_odd_prime_fields(self, case):
        ctx, rows = case
        reduced = [[x % ctx.base for x in r] for r in rows]
        assert packed_howell(ctx, rows) == subrings._rref(ctx.coeff, reduced)

    def test_annihilator_and_reduction_examples(self):
        # 2 (2 + x) = 2x leads a later column, so it becomes its own row
        ctx = zpn_ring(2, 2, 2)
        assert packed_howell(ctx, [(2, 1)]) == ((2, 1), (0, 2))
        # 2 + 3x reduces under the pivot 2 + x by 2/2 = 1 times it, to 2x
        for rows in ([(2, 3), (2, 1)], [(2, 1), (2, 3)]):
            assert packed_howell(ctx, rows) == ((2, 1), (0, 2))
        # in one of the two orders a unit displaces the pivot 3, which then
        # reduces under it
        ctx = zpn_ring(3, 2, 3)
        for rows in ([(3, 1, 0), (1, 0, 2)], [(1, 0, 2), (3, 1, 0)]):
            assert packed_howell(ctx, rows) == ((1, 0, 2), (0, 1, 3))

    @pytest.mark.parametrize("p, N, n", [(2, 4, 8), (7, 4, 8), (3, 1, 8), (2, 2, 1)])
    def test_widest_columns_do_not_carry(self, p, N, n):
        # every column at the Kronecker bound, in every row
        ctx = zpn_ring(p, N, n)
        bound = n * (ctx.caps[0] - 1) ** 2
        rows = [(bound,) * n, (0,) + (bound,) * (n - 1), (bound - 1,) * n]
        assert packed_howell(ctx, rows) == tuple_howell(ctx.coeff, ctx.caps_log, rows)

    @pytest.mark.parametrize("ctx", [zpn_ring(3, 2, 4), zpn_ring(2, 3, 4, 2)], ids=repr)
    def test_one_layout_per_caps(self, ctx, monkeypatch):
        # the m^2 kernel and the lift bases, with tag columns or without,
        # read one layout per (p, column caps), and a second pass over the
        # ring builds none
        seen = {}
        inner = subrings._packed_howell

        def recording(L, rows):
            # the arguments _layout was called with
            key = (L.p, L.logs[: len(L.logs) - L.tags]) + ((L.tags,) if L.tags else ())
            seen.setdefault(key, set()).add(id(L))
            return inner(L, rows)

        monkeypatch.setattr(subrings, "_packed_howell", recording)
        enumerate_subrings(ctx)
        closure(ctx, [ctx.monomial(1)])
        # lift families' tag columns share the width of their ring's columns
        tagged = [key for key in seen if len(key) == 3]
        assert tagged
        assert all(subrings._layout(*key).w == subrings._layout(*key[:2]).w for key in tagged)
        assert all(ids == {id(subrings._layout(*key))} for key, ids in seen.items())

        def refuse(*args):
            raise AssertionError("a layout was built again")

        monkeypatch.setattr(subrings, "_Layout", refuse)
        enumerate_subrings(ctx)
        closure(ctx, [ctx.monomial(1)])


# -- the incremental closure and the packed projection ----------------------------
#
# closure forms only the products of the fresh rows with the new basis, and
# closure_bfs adjoins one element to an already closed subring; one oracle
# re-forms every pairwise product of the basis until the span stops growing,
# and the rounds oracle re-echelons the whole basis with each round's fresh
# rows.


def pairwise_closure(ctx, gens):
    """Oracle: the canonical basis of the subring generated by gens, closed
    by all pairwise products of the basis, every round."""
    basis = canonicalize(ctx, [ctx.one(), *gens])
    while True:
        prods = [ctx.mul(a, b) for a in basis for b in basis]
        grown = canonicalize(ctx, [*basis, *prods])
        if grown == basis:
            return basis
        basis = grown


def rounds_closure(S, gens):
    """Oracle: the canonical basis of the subring of S's ring generated by
    S and gens, by rounds on tuple rows.  Each round holds a canonical basis
    B and fresh rows F with span(B)^2 ⊆ B + span(F), first with B the
    basis of S and F the generators.  The round reduces F against B and
    drops the zeros; if none is left, span(B) is closed.  Otherwise B' is
    the canonical basis of B + F, and the next fresh rows are the products
    f b, f in F, b in B'.  That keeps the invariant:
    (B + F)^2 = B^2 + F (B + F) ⊆ B + F (B + F), and B ⊆ B' while those
    products span F (B + F)."""
    ctx, basis, fresh = S.ctx, S.basis, gens
    while True:
        fresh = [r for r in map(_reducer(ctx, basis), fresh) if any(r)]
        if not fresh:
            return basis
        basis = canonicalize(ctx, [*basis, *fresh])
        fresh = [ctx.mul(f, b) for f in fresh for b in basis]


def seeded_gens(ctx, rng):
    """One to three generators, each 0 left of a drawn column, so that the
    closures they make run from small subrings to the whole ring."""
    n, q = ctx.n, ctx.base
    gens = []
    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(n)
        gens.append(tuple([0] * v + [rng.randrange(q) for _ in range(n - v)]))
    return gens


BFS_RINGS = [
    field_ring(2, 7),
    field_ring(3, 5),
    field_ring(4, 4),
    zpn_ring(3, 1, 5),
    zpn_ring(2, 2, 4, 1),
    zpn_ring(2, 2, 5),
    zpn_ring(2, 3, 4, 2),
]

# every table the ring's kernel gives closure's rounds: the XOR table on
# packed F_2 rows, the Howell table at p = 2 with a k-step cap and at odd
# p, and the _rref table on tuple rows over F_q with q = p^e, e > 1
CLOSURE_RINGS = [
    field_ring(2, 7),
    zpn_ring(2, 1, 6),
    zpn_ring(2, 2, 4, 1),
    zpn_ring(2, 3, 4, 2),
    field_ring(3, 5),
    field_ring(5, 4),
    zpn_ring(3, 2, 3, 1),
    field_ring(4, 4),
    field_ring(9, 3),
]


def closure_gens(ctx, data):
    """One to three generators; over Z/p^N, N > 1, their entries range past
    the column caps, negative ones included, as the entry rule reads them
    as residues."""
    if not ctx.p_image:
        return random_rows(ctx, data)
    wide = 2 * max(ctx.caps)
    el = st.tuples(*(st.integers(-wide, wide) for _ in range(ctx.n)))
    return data.draw(st.lists(el, min_size=1, max_size=3))


def assert_closure_matches_pairwise_products(ctx, data):
    """closure of drawn generators, from the ring and adjoined to the
    closure of some of them, as closure_bfs does, against the oracle."""
    gens = closure_gens(ctx, data)
    want = pairwise_closure(ctx, gens)
    assert closure(ctx, gens).basis == want
    split = data.draw(st.integers(0, len(gens)))
    S = closure(ctx, gens[:split])
    assert closure(S, gens[split:]).basis == want


class TestIncrementalClosure:
    @given(st.sampled_from(WALK_RINGS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_closure_matches_pairwise_products(self, ctx, data):
        assert_closure_matches_pairwise_products(ctx, data)

    @pytest.mark.parametrize("ctx", CLOSURE_RINGS, ids=repr)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_closure_matches_pairwise_products_on_every_path(self, ctx, data):
        assert_closure_matches_pairwise_products(ctx, data)

    @pytest.mark.parametrize(
        "ctx",
        [
            field_ring(4, 5),
            field_ring(8, 4),
            field_ring(8, 4, (1, 0, 1, 1)),
            field_ring(9, 4),
            field_ring(25, 3),
            field_ring(27, 3),
        ],
        ids=lambda ctx: f"{ctx!r} mod {ctx.coeff.modulus}",
    )
    def test_extension_field_closure_matches_the_rounds_oracle(self, ctx):
        # the kept _rref table against the rounds oracle, from the ring's
        # prime ring and adjoined to a closed subring as closure_bfs does
        rng = random.Random(f"{ctx!r} {ctx.coeff.modulus}")
        prime = Subring.prime_ring(ctx)
        sizes = set()
        for _ in range(40):
            gens = seeded_gens(ctx, rng)
            S = closure(ctx, gens[:1])
            assert S.basis == rounds_closure(prime, gens[:1])
            T = closure(S, gens[1:])
            assert T.basis == rounds_closure(S, gens[1:])
            sizes.add(T.log_size)
        # the draws reach proper subrings and the whole ring
        assert ctx.n in sizes and min(sizes) < ctx.n

    @pytest.mark.parametrize(
        "ctx, formed, pairs",
        [(field_ring(2, 7), 6683, 7115), (field_ring(3, 5), 1568, 1676), (zpn_ring(2, 2, 4, 1), 1073, 1157)],
        ids=repr,
    )
    def test_closure_bfs_forms_each_unordered_pair_once(self, ctx, formed, pairs, monkeypatch):
        # a round's new entries lead the rows and new[i] meets rows[i:]
        # only, so the products of two new entries are formed once: formed
        # against the pairs new x rows that every round would form otherwise
        K = subrings._row_kernel(ctx)
        inner, counts = K.products, Counter()

        def counting(new, rows):
            assert all(a is b for a, b in zip(new, rows))
            out = inner(new, rows)
            assert len(out) == sum(len(rows) - i for i in range(len(new)))
            counts["formed"] += len(out)
            counts["pairs"] += len(new) * len(rows)
            return out

        inner_closure = subrings.closure

        def checked(S, gens):
            T = inner_closure(S, gens)
            assert T.basis == rounds_closure(S, gens)
            return T

        monkeypatch.setattr(K, "products", counting)
        monkeypatch.setattr(subrings, "closure", checked)
        assert enumerate_subrings(ctx, "closure_bfs") == enumerate_subrings(ctx)
        assert counts == {"formed": formed, "pairs": pairs}

    @pytest.mark.parametrize("ctx", [field_ring(2, 7), zpn_ring(2, 2, 4, 1), field_ring(3, 5)], ids=repr)
    def test_no_generators_leave_a_subring_as_it_is(self, ctx):
        # the table starts as the subring's canonical basis, finished
        for S in enumerate_subrings(ctx):
            T = closure(S, [])
            assert T == S and T.basis == S.basis

    @pytest.mark.parametrize("ctx", BFS_RINGS, ids=repr)
    def test_closure_bfs_matches_the_walk_and_the_scan(self, ctx):
        subs = enumerate_subrings(ctx)
        assert enumerate_subrings(ctx, "closure_bfs") == subs
        if not ctx.p_image:
            assert enumerate_subrings(ctx, "subspace_scan") == subs

    @pytest.mark.parametrize(
        "ctx",
        [field_ring(2, 6), zpn_ring(2, 1, 5), zpn_ring(2, 2, 4, 1), field_ring(3, 4), zpn_ring(3, 2, 3, 1)],
        ids=repr,
    )
    def test_residue_rings_close_with_no_ring_mul_or_echelon(self, ctx, monkeypatch):
        # where base is p, closure multiplies and echelons packed rows only,
        # forming its products itself, not through the element kernel
        subs = enumerate_subrings(ctx)

        def refuse(*args):
            raise AssertionError("closure reached ring mul, a tuple echelon or the element kernel")

        monkeypatch.setattr(type(ctx), "mul", refuse)
        for name in ("canonicalize", "_rref", "_element_kernel"):
            monkeypatch.setattr(subrings, name, refuse)
        assert enumerate_subrings(ctx, "closure_bfs") == subs


class TestPackedProjection:
    @pytest.mark.parametrize("ctx", [field_ring(2, 8), zpn_ring(2, 1, 7)], ids=repr)
    def test_matches_tuple_projection(self, ctx):
        dst = quotient_ctx(ctx)
        for S in enumerate_subrings(ctx):
            want = canonicalize(dst, [project(ctx, dst, r) for r in S.basis])
            T = project_subring(S, dst)
            assert T.basis == want
            assert T == Subring(dst, want)
            assert all(isinstance(r, int) for r in T._rows)

    def test_refuses_a_ring_that_is_not_the_quotient(self):
        ctx = field_ring(2, 5)
        S = closure(ctx, [ctx.monomial(2)])
        with pytest.raises(NotAQuotient):
            project_subring(S, ctx)


def assert_projection_written_down(ctx):
    """project_subring writes each image's basis down; canonicalize of the
    projected rows is the oracle, on every subring of every level of ctx's
    quotient chain."""
    for src in subrings._quotient_chain(ctx)[:-1]:
        dst = quotient_ctx(src)
        for S in enumerate_subrings(src):
            want = canonicalize(dst, [project(src, dst, r) for r in S.basis])
            assert project_subring(S, dst).basis == want


class TestWrittenDownProjection:
    @pytest.mark.parametrize("ctx", WALK_RINGS, ids=repr)
    def test_matches_canonicalize(self, ctx):
        assert_projection_written_down(ctx)

    @given(z_params(limit=5**5).filter(lambda t: has_k_step(*t)))
    @settings(max_examples=30, deadline=None)
    def test_matches_canonicalize_on_k_step_draws(self, params):
        assert_projection_written_down(zpn_ring(*params))


# -- the entry rule ----------------------------------------------------------------
#
# Rows are checked once, where they enter.  Where p_image = 0 (F_q and Z/p)
# an entry outside [0, base) is refused with CtxMismatch by every entry
# point that checks; over Z/p^N, N > 1, every entry reads as its residue.


@st.composite
def wild_rows(draw):
    """A ring of either family, Z/p included, and one to three elements
    whose entries range past the column caps, negative ones included."""
    if draw(st.booleans()):
        ctx = field_ring(*draw(field_params(256)))
    else:
        ctx = zpn_ring(*draw(z_params(256)))
    wide = 2 * max(ctx.caps)
    el = st.tuples(*(st.integers(-wide, wide) for _ in range(ctx.n)))
    return ctx, draw(st.lists(el, min_size=1, max_size=3))


def checked_entry_points(ctx):
    """(f, whether f reads all rows or the first) for every entry point
    that checks what it is given."""
    S = Subring.prime_ring(ctx)
    out = [
        (lambda rows: canonicalize(ctx, rows), True),
        (lambda rows: closure(ctx, rows).basis, True),
        (lambda rows: closure(S, rows).basis, True),
        (lambda rows: in_row_span(ctx, S.basis, rows[0]), False),
        (lambda rows: S.contains(rows[0]), False),
        (lambda rows: ctx.format(rows[0]), False),
        (lambda rows: ctx.is_unit(rows[0]), False),
    ]
    dst = quotient_ctx(ctx)
    if dst is not None:
        out.append((lambda rows: project(ctx, dst, rows[0]), False))
    return out


def ring_ops(ctx):
    """The ops, which scan for no unreduced entry, and nu, which reads only
    the leading one."""
    return [
        lambda rows: ctx.nu(rows[0]),
        lambda rows: ctx.add(rows[0], rows[-1]),
        lambda rows: ctx.sub(rows[0], rows[-1]),
        lambda rows: ctx.mul(rows[0], rows[-1]),
        lambda rows: ctx.neg(rows[0]),
        lambda rows: ctx.scalar_mul(1, rows[0]),
    ]


def outcome(f, rows):
    """f's value, or the typed error it raised; any other exception
    propagates."""
    try:
        return "value", f(rows)
    except CtxMismatch:
        return "mismatch", None
    except UndefinedValuation:
        return "undefined", None


class TestEntryRule:
    @given(wild_rows())
    @example((zpn_ring(3, 1, 2), [(-1, 4)]))
    @example((zpn_ring(3, 1, 2), [(4, 1)]))
    @example((zpn_ring(3, 1, 2), [(4, 0)]))
    @example((zpn_ring(3, 1, 2), [(3, 1)]))
    @example((zpn_ring(2, 2, 2), [(4, 1)]))
    @example((zpn_ring(2, 2, 3, 1), [(0, 0, -2)]))
    @settings(max_examples=200, deadline=None)
    def test_entry_points_return_or_raise_typed(self, case):
        ctx, rows = case
        residues = [tuple(x % c for x, c in zip(a, ctx.caps)) for a in rows]
        for f, reads_all in checked_entry_points(ctx):
            kind, value = outcome(f, rows)
            read = rows if reads_all else rows[:1]
            if not ctx.p_image:
                unreduced = any(not 0 <= x < ctx.base for a in read for x in a)
                assert (kind == "mismatch") == unreduced
            else:
                assert (kind, value) == outcome(f, residues)
        for f in ring_ops(ctx):
            kind, value = outcome(f, rows)
            if kind == "undefined":
                assert not any(residues[0])
            if isinstance(ctx, ZpNPolyCtx) and ctx.p_image:
                assert (kind, value) == outcome(f, residues)
        # nu refuses an unreduced lead where p_image = 0
        lead = next(filter(None, rows[0]), 0)
        if not ctx.p_image and not 0 <= lead < ctx.base:
            assert outcome(ctx.nu, rows[0])[0] == "mismatch"

    def test_found_inputs_name_the_column(self):
        ctx = zpn_ring(3, 1, 2)
        for call in (
            lambda: canonicalize(ctx, [(-1, 4)]),
            lambda: closure(ctx, [(4, 1)]),
            lambda: in_row_span(ctx, ((1, 0),), (4, 0)),
        ):
            with pytest.raises(CtxMismatch, match=r"coefficient -?\d+ in column 0 outside \[0, 3\)"):
                call()
        assert ctx.add((5, 0), (1, 0)) == (0, 0)
        assert canonicalize(zpn_ring(3, 2, 2), [(-1, 10)]) == ((1, 8),)

    @pytest.mark.parametrize("q", [4, 9])
    def test_extension_field_refuses_negative_entries(self, q):
        # the table ops read -1 from the table's end, which over F_q, q > p,
        # is no residue of -1, so every entry point refuses it
        R = field_ring(q, 2)
        a = (-1, 0)
        for call in (
            lambda: canonicalize(R, [a]),
            lambda: closure(R, [a]),
            lambda: in_row_span(R, (R.one(),), a),
            lambda: project(R, quotient_ctx(R), a),
            lambda: R.format(a),
            lambda: R.is_unit(a),
            lambda: R.nu(a),
        ):
            with pytest.raises(CtxMismatch, match=rf"coefficient -1 in column 0 outside \[0, {q}\)"):
                call()

    def test_nu_reads_the_residue_or_refuses(self):
        # (4, 1) is x in Z[x]/(2^2, x^2), as the ring ops read it
        R = zpn_ring(2, 2, 2)
        assert R.nu((4, 1)) == R.nu(R.add((4, 1), R.zero())) == (1, 0)
        assert R.nu((-2, 5)) == (0, 1)
        with pytest.raises(UndefinedValuation):
            R.nu((4, -4))
        # -2 is 0 in the top column of Z[x]/(2^2, x^3, 2x^2), whose cap is 2
        with pytest.raises(UndefinedValuation):
            zpn_ring(2, 2, 3, 1).nu((0, 0, -2))
        with pytest.raises(CtxMismatch, match=r"coefficient 3 in column 0 outside \[0, 3\)"):
            zpn_ring(3, 1, 2).nu((3, 1))
        with pytest.raises(CtxMismatch, match=r"coefficient -1 in column 1 outside \[0, 4\)"):
            field_ring(4, 2).nu((0, -1))


# -- the packed element kernel of verify's pair scans ---------------------------

KERNEL_RINGS = [
    field_ring(2, 4),
    field_ring(3, 3),
    field_ring(4, 3),
    field_ring(8, 2),
    field_ring(8, 2, (1, 0, 1, 1)),
    field_ring(9, 2),
    zpn_ring(2, 1, 4),
    zpn_ring(2, 2, 3, 1),
    zpn_ring(2, 3, 3),
    zpn_ring(3, 2, 3, 1),
]


def _ring_id(ctx):
    modulus = getattr(ctx.coeff, "modulus", None)
    return f"{ctx!r} mod {modulus}" if modulus else repr(ctx)


class TestElementKernel:
    """On every pair of elements, the kernel's ops unpack to the ring's."""

    @pytest.mark.parametrize("ctx", KERNEL_RINGS, ids=_ring_id)
    def test_ops_match_the_ring_ops(self, ctx):
        K = subrings._element_kernel(ctx)
        packed = {a: K.pack(a) for a in ctx.elements()}
        assert len(set(packed.values())) == len(packed)
        assert packed[ctx.zero()] == 0
        units = list(ctx.coeff.units())
        for a, pa in packed.items():
            assert K.unpack(pa) == a
            assert [K.scaled(u, pa) for u in units] == [packed[ctx.scalar_mul(u, a)] for u in units]
            for b, pb in packed.items():
                assert K.mul(pa, pb) == packed[ctx.mul(a, b)]

    # F8[x]/x^3: two 64-bit words per element, three per slot of a row
    @pytest.mark.parametrize("ctx", KERNEL_RINGS + [field_ring(8, 3)], ids=_ring_id)
    def test_row_ops_match_the_ring_ops(self, ctx):
        K = subrings._element_kernel(ctx)
        packed = {a: K.pack(a) for a in ctx.elements()}
        elems = list(packed.values())
        row = K.pack_row(elems)
        for name in ("add", "sub", "mul"):
            ring_op, row_op = getattr(ctx, name), getattr(K, name + "_row")
            for i, (a, pa) in enumerate(packed.items()):
                want = [packed[ring_op(a, b)] for b in packed]
                assert row_op(pa, row) == want
                assert row_op(pa, row, i) == want[i:]
                assert row_op(pa, K.pack_row([elems[-1 - i]])) == [want[-1 - i]]
            assert row_op(pa, K.pack_row([])) == []
            assert row_op(pa, row, len(elems)) == []

    def test_built_on_first_use_once_per_ring(self):
        ctx = field_ring(4, 3)
        assert ctx._element is None
        K = subrings._element_kernel(ctx)
        assert subrings._element_kernel(ctx) is K
        assert field_ring(4, 3)._element is None
