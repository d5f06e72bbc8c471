"""Subrings: canonical bases, closure, exponent sets, ideal data, lifting
across one-step quotients, enumeration, censuses, and the generator-gap
family."""

import dataclasses
import functools
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import truncring
from truncring import (
    CtxMismatch,
    FieldCtx,
    FieldPolyCtx,
    InvariantViolation,
    MinimalExtension,
    NotMinimal,
    OutOfFamily,
    Subring,
    TooLarge,
    canonicalize,
    e_bound,
    census,
    closure,
    cotangent_dim,
    counterexample_family,
    enumerate_subrings,
    exponent_set,
    field_ring,
    ideal_data,
    in_row_span,
    kernel_generator,
    lift_isomorphic,
    project_subring,
    quotient_ctx,
    restricted_extension,
    zpn_ring,
)
from truncring import subrings
from truncring.subrings import _reduce


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
    def test_nilpotent_generator(self):
        R = field_ring(2, 4)
        S = closure(R, [R.monomial(2)])
        assert S.basis == ((1, 0, 0, 0), (0, 0, 1, 0))

    def test_family_algebra_basis(self):
        R = field_ring(2, 18)
        S = closure(R, [R.parse("x^6+x^9"), R.monomial(7), R.monomial(8)])
        assert S.dim == 10
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
        S = Subring.from_rows(R, [R.one(), R.monomial(2), R.monomial(3)])
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
        assert ext.is_minimal and not ext.kernel_in_small

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

    def test_lifting_requires_minimality(self):
        B = Subring.prime_ring(field_ring(2, 2))
        ext = restricted_extension(B)
        broken = MinimalExtension(ext.src, ext.dst, ext.kernel_gen, False, ext.kernel_in_small)
        with pytest.raises(NotMinimal):
            lift_isomorphic(broken)

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

    @pytest.mark.parametrize("ctx", [field_ring(2, 5), zpn_ring(2, 2, 3, 2)], ids=repr)
    def test_counts_stay_within_bounds(self, ctx):
        for row in census(ctx, enumerate_subrings(ctx)):
            assert 1 <= row.count <= row.bound
            assert row.equality == (row.count == row.bound)
            assert len(row.subrings) == row.count == len(row.d_ring_values)

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

    def test_sizes(self):
        R = zpn_ring(2, 2, 3, 1)
        S = Subring.prime_ring(R)
        assert (S.log_size, S.size) == (2, 4)
        assert len(S.elements()) == 4
        with pytest.raises(CtxMismatch):
            S.dim

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


# -- the one-pass census against independent oracles ---------------------------
#
# The quotient-chain enumerator carries cotangent dimensions and builds each
# lift family by editing the kernel column of one tagged canonical basis.
# These tests check it against oracles that take none of that path:
# closure_bfs (adjoin elements and close), the direct cotangent_dim, and the
# brute-force lift scan of verify's lift-counts.

FIELD_ORACLE_RINGS = [(2, 6), (3, 4), (4, 4), (5, 3), (8, 3), (9, 3)]
# (p, N, n, k); closure_bfs scans the whole ring, so these stay within its
# 4096-element guard.
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

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
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
]


def assert_walk_matches_grouped(ctx):
    walked = census(ctx)
    grouped = census(ctx, enumerate_subrings(ctx))
    assert all(row.subrings == () for row in walked)
    assert walked == [dataclasses.replace(row, subrings=()) for row in grouped]
    assert all(row.count <= row.bound for row in walked)


@st.composite
def field_params(draw):
    # (q, n) with at most 1024 elements
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    n = draw(st.integers(1, max(n for n in range(1, 11) if q**n <= 1024)))
    return q, n


@st.composite
def z_params(draw):
    # (p, N, n, k) with N = 1 and k < N included, at most 2048 elements
    p = draw(st.sampled_from([2, 3, 5]))
    N = draw(st.integers(1, 3))
    n = draw(st.integers(1, max(n for n in range(1, 12) if p ** (N * (n - 1) + 1) <= 2048)))
    if n == 1:
        return p, N, n, N
    k = draw(st.integers(1, max(k for k in range(1, N + 1) if p ** (N * (n - 1) + k) <= 2048)))
    return p, N, n, k


def _plant_parent_cotangent(monkeypatch, ctx):
    """Make restricted_extension record d + 1 on every preimage one level
    below ctx, the parents of ctx's top level; returns the planted list."""
    parent_ctx = quotient_ctx(ctx)
    inner = subrings.restricted_extension
    planted = []

    def planting(B):
        ext = inner(B)
        if ext.src.ctx == parent_ctx:
            ext.src._cotangent = ext.src.cotangent + 1
            planted.append(ext.src)
        return ext

    monkeypatch.setattr(subrings, "restricted_extension", planting)
    return planted


# Their top steps add a column.  On a k-step the kernel generator is p times
# the one below, so it lies in every parent preimage's obstruction module:
# those parents are all obstructed and the walk never reads their plant.
PLANT_RINGS = [field_ring(2, 4), field_ring(3, 4), zpn_ring(2, 2, 3, 1), zpn_ring(3, 2, 3, 1)]


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

    def test_grouped_census_rejects_foreign_subrings(self):
        with pytest.raises(CtxMismatch):
            census(field_ring(2, 4), enumerate_subrings(field_ring(2, 3)))

    def test_subrings_of_one_level_share_one_context(self):
        R = field_ring(2, 11)
        subs = enumerate_subrings(R)
        assert len({id(S.ctx) for S in subs}) == 1
        assert subs[0].ctx is R

    @pytest.mark.parametrize("ctx", PLANT_RINGS, ids=repr)
    def test_wrong_parent_cotangent_is_an_invariant_violation(self, ctx, monkeypatch):
        census(ctx)
        planted = _plant_parent_cotangent(monkeypatch, ctx)
        with pytest.raises(InvariantViolation):
            census(ctx)
        assert planted

    def test_wrong_parent_cotangent_raises_under_optimization(self):
        # the counted-top check must not hang on assert, which python -O strips
        script = """
import sys
from truncring import InvariantViolation, census, field_ring, quotient_ctx, subrings, zpn_ring
if __debug__:
    sys.exit("not running under -O")
inner = subrings.restricted_extension
for ctx in [field_ring(2, 4), field_ring(3, 4), zpn_ring(2, 2, 3, 1), zpn_ring(3, 2, 3, 1)]:
    parent_ctx = quotient_ctx(ctx)

    def planting(B):
        ext = inner(B)
        if ext.src.ctx == parent_ctx:
            ext.src._cotangent = ext.src.cotangent + 1
        return ext

    subrings.restricted_extension = planting
    try:
        census(ctx)
    except InvariantViolation:
        continue
    finally:
        subrings.restricted_extension = inner
    sys.exit(f"no InvariantViolation on {ctx!r}")
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
# closure_bfs reduces each ambient element against the canonical basis of S
# and closes S + r once per distinct reduction r.  These rings have non-unit
# Howell pivots (p^a with a >= 1) in the subrings the reduction runs against.
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
            reps = {_reduce(ctx, S.basis, a) for a in ambient}
            # one reduction per coset: exactly |R| / |S| distinct values
            assert len(reps) * S.size == ctx.size
            assert {_reduce(ctx, S.basis, s) for s in members} == {zero}
            for a in rng.sample(ambient, 20):
                r = _reduce(ctx, S.basis, a)
                for s in rng.sample(members, min(5, len(members))):
                    assert _reduce(ctx, S.basis, ctx.add(a, s)) == r

    @pytest.mark.parametrize("ctx", COSET_RINGS, ids=repr)
    def test_in_row_span_matches_member_scan(self, ctx):
        ambient = list(ctx.elements())
        for S in enumerate_subrings(ctx):
            members = set(S.elements())
            assert {a for a in ambient if in_row_span(ctx, S.basis, a)} == members


# -- packed F_2 rows against the tuple kernels -----------------------------------
#
# Subrings of F_2[x]/x^n keep packed int rows.  The tuple kernels (_rref,
# FieldPolyCtx.mul, _reduce, _lift_bases) are the reference, and so is the
# whole tuple path, reached by making _packs refuse every ring.

F2 = FieldCtx(2)


def f2_row(width):
    return st.tuples(*(st.integers(0, 1) for _ in range(width)))


def packed_rows(rows):
    return tuple(map(subrings._pack, rows))


def unpacked_rows(rows, width):
    return tuple(subrings._unpack(r, width) for r in rows)


class TestPackedKernels:
    @given(st.integers(1, 12).flatmap(lambda w: st.tuples(f2_row(w), f2_row(w))))
    def test_packing_keeps_rows_and_their_order(self, pair):
        a, b = pair
        pa, pb = subrings._pack(a), subrings._pack(b)
        assert subrings._unpack(pa, len(a)) == a
        assert (pa < pb) == (a < b)

    @given(st.data())
    def test_echelon_matches_rref_with_tag_columns(self, data):
        n = data.draw(st.integers(1, 10))
        d = data.draw(st.integers(0, 4))
        rows = data.draw(st.lists(f2_row(n + d), max_size=8))
        got = subrings._xor_echelon(packed_rows(rows))
        assert unpacked_rows(got, n + d) == subrings._rref(F2, rows, n + d)
        assert got == tuple(sorted(got, reverse=True))

    @given(st.integers(1, 14).flatmap(lambda n: st.tuples(f2_row(n), f2_row(n))))
    def test_mul_matches_ring_mul(self, pair):
        a, b = pair
        n = len(a)
        got = subrings._xor_mul(subrings._pack(a), subrings._pack(b), n)
        assert subrings._unpack(got, n) == field_ring(2, n).mul(a, b)

    @given(st.data())
    def test_reduce_matches_tuple_reduce(self, data):
        n = data.draw(st.integers(1, 12))
        ctx = field_ring(2, n)
        basis = subrings._rref(F2, data.draw(st.lists(f2_row(n), max_size=8)), n)
        v = data.draw(f2_row(n))
        got = subrings._xor_reduce(packed_rows(basis), subrings._pack(v))
        assert subrings._unpack(got, n) == _reduce(ctx, basis, v)

    @given(st.data())
    def test_lift_bases_match_tuple_lift_bases(self, data):
        n = data.draw(st.integers(2, 9))
        ctx = field_ring(2, n)
        w = data.draw(st.lists(f2_row(n), max_size=4))
        small = subrings._rref(F2, data.draw(st.lists(f2_row(n), max_size=5)), n)
        try:
            want = subrings._lift_bases(ctx, kernel_generator(ctx), w, small)
        except InvariantViolation:
            with pytest.raises(InvariantViolation):
                subrings._xor_lift_bases(n, packed_rows(w), packed_rows(small))
            return
        got = subrings._xor_lift_bases(n, packed_rows(w), packed_rows(small))
        assert [unpacked_rows(b, n) for b in got] == want


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
    """What the public API says about S."""
    data = ideal_data(S)
    return (
        S.basis,
        S.sort_key(),
        exponent_set(S).elems,
        S.cotangent,
        cotangent_dim(S),
        (data.max_ideal, data.square, data.small),
    )


class TestPackedPaths:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_subring_matches_the_tuple_path(self, n, monkeypatch):
        ctx = field_ring(2, n)
        packed = enumerate_subrings(ctx)
        assert all(isinstance(r, int) for S in packed for r in S._rows)
        packed_view = [subring_view(S) for S in packed]
        packed_census = census(ctx)
        monkeypatch.setattr(subrings, "_packs", lambda ctx: False)
        ctx = field_ring(2, n)
        plain = enumerate_subrings(ctx)
        assert all(S._rows == S.basis for S in plain)
        assert [subring_view(S) for S in plain] == packed_view
        assert census(ctx) == packed_census

    def test_census_walk_builds_no_tuples(self, monkeypatch):
        counts = Counter()
        inner_mul, inner_basis = FieldPolyCtx.mul, Subring.basis

        def counting_mul(self, a, b):
            counts["mul"] += 1
            return inner_mul(self, a, b)

        def counting_basis(self):
            counts["basis"] += 1
            return inner_basis.fget(self)

        monkeypatch.setattr(FieldPolyCtx, "mul", counting_mul)
        monkeypatch.setattr(Subring, "basis", property(counting_basis))
        rows = census(field_ring(2, 11))
        assert sum(r.count for r in rows) == 1127
        assert counts == {}
        # the counters do count
        small = field_ring(2, 4)
        enumerate_subrings(small)[-1].basis
        closure(small, [small.parse("x")])
        assert counts["basis"] == 1 and counts["mul"]
