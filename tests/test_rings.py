"""Truncated polynomial rings: arithmetic, valuation laws, quotient steps,
and the element string grammar."""

import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st
from test_coefficients import digits, from_digits, poly_mul_mod

from truncring import (
    CtxMismatch,
    FieldPolyCtx,
    GridDomain,
    NotAQuotient,
    PolyParseError,
    UndefinedValuation,
    canonicalize,
    closure,
    extension_ctx,
    field_ring,
    in_row_span,
    kernel_generator,
    project,
    quotient_ctx,
    zpn_ring,
)


def all_zpn_rings(p, N, n_max):
    out = []
    for n in range(1, n_max + 1):
        for k in range(1, N + 1):
            if n == 1 and k != N:
                continue
            out.append(zpn_ring(p, N, n, k))
    return out


class TestArithmetic:
    def test_truncation_kills_high_products(self):
        R = field_ring(2, 4)
        x2 = R.monomial(2)
        assert R.mul(x2, x2) == R.zero()

    def test_tail_cap_kills_products(self):
        R = zpn_ring(2, 2, 2, 1)
        assert R.mul(R.monomial(1), R.parse("2")) == R.zero()

    def test_product_with_cross_terms(self):
        R = field_ring(2, 18)
        a = R.parse("x^6+x^9")
        assert R.mul(a, R.monomial(8)) == R.parse("x^14+x^17")

    def test_monomial_reduces_tail_coefficient(self):
        R = zpn_ring(2, 3, 3, 1)
        assert R.monomial(2, 2) == R.zero()

    def test_length_mismatch_rejected(self):
        R = field_ring(2, 3)
        with pytest.raises(CtxMismatch):
            R.add((1, 0), (1, 0, 0))
        with pytest.raises(CtxMismatch):
            R.mul((1, 0, 0, 0), (1, 0, 0))
        # every op, on a prime field ring, an extension field ring and a Z
        # ring, with a short and a long operand in each position
        for R in (field_ring(3, 3), field_ring(4, 3), zpn_ring(2, 2, 3)):
            good = R.one()
            for bad in (good[:-1], good + (1,)):
                calls = [(op, (bad, good)) for op in (R.add, R.sub, R.mul)]
                calls += [(op, (good, bad)) for op in (R.add, R.sub, R.mul)]
                calls += [(op, (bad,)) for op in (R.neg, R.nu, R.is_unit, R.format)]
                calls += [(R.scalar_mul, (1, bad))]
                for op, args in calls:
                    with pytest.raises(CtxMismatch):
                        op(*args)
        with pytest.raises(CtxMismatch):
            field_ring(4, 3).scalar_mul(2, (1, 1))
        with pytest.raises(CtxMismatch):
            zpn_ring(2, 2, 3).scalar_mul(3, (1, 1, 1, 1))

    def test_out_of_range_coefficients_rejected(self):
        # an entry past F_q's lookup tables fails its lookup, and every op
        # reports it as CtxMismatch naming the column
        R = field_ring(3, 2)
        with pytest.raises(CtxMismatch, match=r"coefficient 5 in column 0 outside \[0, 3\)"):
            R.add((5, 0), (1, 0))
        good, bad = R.one(), (1, 7)
        calls = [(op, (good, bad)) for op in (R.add, R.sub, R.mul)]
        calls += [(op, (bad, good)) for op in (R.add, R.sub, R.mul)]
        calls += [(op, (bad,)) for op in (R.neg, R.is_unit, R.format)]
        calls += [(R.scalar_mul, (1, bad))]
        for op, args in calls:
            with pytest.raises(CtxMismatch, match="coefficient 7 in column 1"):
                op(*args)
        with pytest.raises(CtxMismatch, match="scalar 3"):
            R.scalar_mul(3, good)
        # the ops scan for no negative entry; the entry points refuse it
        R = field_ring(4, 2)
        for call in (
            lambda: canonicalize(R, [(-1, 0)]),
            lambda: closure(R, [(-1, 0)]),
            lambda: in_row_span(R, (R.one(),), (-1, 0)),
            lambda: R.format((-1, 0)),
        ):
            with pytest.raises(CtxMismatch, match=r"coefficient -1 in column 0 outside \[0, 4\)"):
                call()
        # the Z family reduces every entry mod its column's cap
        assert zpn_ring(3, 1, 2).add((5, 0), (1, 0)) == (0, 0)
        assert canonicalize(zpn_ring(3, 2, 2), [(-1, 10)]) == ((1, 8),)

    def test_unit_detection(self):
        assert field_ring(3, 2).is_unit((2, 1))
        assert not zpn_ring(2, 2, 2).is_unit((2, 1))
        assert not field_ring(3, 2).is_unit((0, 0))

    @given(st.data())
    def test_ring_axioms_sampled(self, data):
        R = zpn_ring(2, 2, 3, 2)
        el = st.tuples(*(st.integers(0, c - 1) for c in R.caps))
        a, b, c = data.draw(el), data.draw(el), data.draw(el)
        assert R.add(a, R.neg(a)) == R.zero()
        assert R.mul(a, b) == R.mul(b, a)
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))


def coefficient_oracle(F):
    """Independent oracle for F_q's add, neg and mul: digit-wise mod p, and
    the schoolbook product reduced by the modulus (poly_mul_mod)."""
    p, e = F.p, F.e

    def add(a, b):
        return from_digits(p, [(x + y) % p for x, y in zip(digits(p, e, a), digits(p, e, b))])

    def neg(a):
        return from_digits(p, [-x % p for x in digits(p, e, a)])

    def mul(a, b):
        if e == 1:
            return a * b % p
        return from_digits(p, poly_mul_mod(p, F.modulus, digits(p, e, a), digits(p, e, b)))

    return add, neg, mul


class TestFieldRingArithmetic:
    # F_257, F_512 and F_729 are past the table limit, where the same
    # kernels read lookups computed on demand
    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27, 243, 256, 257, 512, 729])
    def test_ops_match_schoolbook_oracle(self, q):
        n = 5
        R = field_ring(q, n)
        add, neg, mul = coefficient_oracle(R.coeff)
        rng = random.Random(q)

        def element():
            # sparse draws too, so that zero terms are skipped and kept right
            return tuple(rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(n))

        for _ in range(150):
            a, b, c = element(), element(), rng.randrange(q)
            assert R.add(a, b) == tuple(add(x, y) for x, y in zip(a, b))
            assert R.neg(a) == tuple(neg(x) for x in a)
            assert R.sub(a, b) == tuple(add(x, neg(y)) for x, y in zip(a, b))
            prod = [0] * n
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    if i + j < n:
                        prod[i + j] = add(prod[i + j], mul(x, y))
            assert R.mul(a, b) == tuple(prod)
            assert R.scalar_mul(c, a) == tuple(mul(c, x) for x in a)
            if any(a):
                assert R.nu(a) == min(i for i, x in enumerate(a) if x)
            else:
                with pytest.raises(UndefinedValuation):
                    R.nu(a)


class TestValuation:
    def test_lowest_exponent(self):
        R = field_ring(2, 18)
        assert R.nu(R.parse("x^6+x^9")) == 6

    def test_valuation_of_one(self):
        assert field_ring(2, 3).nu(field_ring(2, 3).one()) == 0
        assert zpn_ring(2, 2, 2).nu(zpn_ring(2, 2, 2).one()) == (0, 0)

    def test_pair_valuation(self):
        R = zpn_ring(2, 2, 3)
        assert R.nu(R.parse("2x+x^2")) == (1, 1)

    def test_valuation_of_zero_rejected(self):
        with pytest.raises(UndefinedValuation):
            field_ring(2, 3).nu((0, 0, 0))

    def _nonzero(self, R):
        zero = R.zero()
        return [a for a in R.elements() if a != zero]

    def _domain(self, R):
        if isinstance(R, FieldPolyCtx):
            from truncring import IntervalDomain

            return IntervalDomain(R.n)
        return GridDomain(R.n, R.coeff.N, R.k)

    @pytest.mark.parametrize(
        "R",
        [field_ring(2, n) for n in range(1, 6)] + all_zpn_rings(2, 2, 3),
        ids=repr,
    )
    def test_strictness_exhaustive(self, R):
        # whenever nu(a) + nu(b) is defined, the product is nonzero with that value
        dom = self._domain(R)
        nonzero = self._nonzero(R)
        vals = {a: R.nu(a) for a in nonzero}
        for a in nonzero:
            for b in nonzero:
                s = dom.add(vals[a], vals[b])
                if s is not None:
                    ab = R.mul(a, b)
                    assert ab != R.zero()
                    assert R.nu(ab) == s

    @pytest.mark.parametrize(
        "R", [field_ring(2, 4), field_ring(3, 3), zpn_ring(2, 2, 3, 1)], ids=repr
    )
    def test_nonarchimedean_exhaustive(self, R):
        nonzero = self._nonzero(R)
        vals = {a: R.nu(a) for a in nonzero}
        for a in nonzero:
            for b in nonzero:
                s = R.add(a, b)
                if s == R.zero():
                    continue
                lo = min(vals[a], vals[b])
                assert R.nu(s) >= lo
                if vals[a] != vals[b]:
                    assert R.nu(s) == lo

    @pytest.mark.parametrize(
        "R", [field_ring(2, 4), field_ring(4, 2), zpn_ring(2, 2, 3, 1)], ids=repr
    )
    def test_monomial_likeness_exhaustive(self, R):
        # equal valuations differ by a coefficient unit, up to higher terms
        nonzero = self._nonzero(R)
        units = list(R.coeff.units())
        for a in nonzero:
            for b in nonzero:
                if R.nu(a) != R.nu(b):
                    continue
                ok = False
                for u in units:
                    d = R.sub(a, R.scalar_mul(u, b))
                    if d == R.zero() or R.nu(d) > R.nu(a):
                        ok = True
                        break
                assert ok

    @pytest.mark.parametrize(
        "p,N,n,k",
        [(2, 2, 2, 1), (2, 2, 3, 1), (2, 3, 2, 2), (3, 2, 2, 1)],
    )
    def test_valuation_image_is_capped_grid(self, p, N, n, k):
        # the realized valuations are the grid minus the removed tail points
        R = zpn_ring(p, N, n, k)
        seen = {R.nu(a) for a in self._nonzero(R)}
        assert seen == set(GridDomain(n, N, k).points)


class TestQuotientChain:
    def test_field_projection_drops_top(self):
        src, dst = field_ring(2, 4), field_ring(2, 3)
        assert project(src, dst, src.parse("1+x^3")) == dst.one()

    def test_z_projection_reduces_tail(self):
        src, dst = zpn_ring(2, 2, 2, 2), zpn_ring(2, 2, 2, 1)
        assert project(src, dst, src.parse("2x")) == dst.zero()

    def test_projection_preserves_valuation_of_survivors(self):
        src, dst = field_ring(2, 4), field_ring(2, 3)
        a = src.parse("x+x^3")
        b = project(src, dst, a)
        assert b == dst.parse("x")
        assert src.nu(a) == dst.nu(b) == 1

    def test_illegal_projection_rejected(self):
        with pytest.raises(NotAQuotient):
            project(field_ring(2, 4), field_ring(2, 2), (0,) * 4)
        with pytest.raises(NotAQuotient):
            project(field_ring(2, 4), field_ring(3, 3), (0,) * 4)

    def test_base_rings_have_no_quotient(self):
        assert quotient_ctx(field_ring(2, 1)) is None
        assert quotient_ctx(zpn_ring(2, 2, 1)) is None
        with pytest.raises(NotAQuotient):
            kernel_generator(field_ring(2, 1))

    @pytest.mark.parametrize("R", [field_ring(2, 4), zpn_ring(2, 2, 3, 1), zpn_ring(3, 2, 2, 2)], ids=repr)
    def test_neighbours_are_built_once(self, R):
        # one context per level of the chain, shared in both directions
        below = quotient_ctx(R)
        assert quotient_ctx(R) is below
        assert extension_ctx(below) is R
        above = extension_ctx(R)
        assert extension_ctx(R) is above
        assert quotient_ctx(above) is R

    def test_k_zero_is_the_shorter_ring(self):
        assert zpn_ring(2, 2, 3, 0) == zpn_ring(2, 2, 2)
        with pytest.raises(ValueError):
            zpn_ring(2, 2, 1, 0)

    def test_tail_cap_requires_degree(self):
        with pytest.raises(ValueError):
            zpn_ring(2, 2, 1, 1)  # n = 1 forces k = N

    def test_chain_walk_and_inverse(self):
        ctx = zpn_ring(2, 2, 3, 2)
        chain = [ctx]
        while (below := quotient_ctx(chain[-1])) is not None:
            chain.append(below)
        assert [(c.n, c.k) for c in chain] == [(3, 2), (3, 1), (2, 2), (2, 1), (1, 2)]
        for above, below in zip(chain, chain[1:]):
            assert extension_ctx(below) == above

    def test_kernel_generators(self):
        assert kernel_generator(field_ring(2, 4)) == (0, 0, 0, 1)
        assert kernel_generator(zpn_ring(2, 2, 3, 2)) == (0, 0, 2)
        assert kernel_generator(zpn_ring(2, 2, 3, 1)) == (0, 0, 1)

    @pytest.mark.parametrize(
        "src,dst",
        [
            (field_ring(2, 4), field_ring(2, 3)),
            (zpn_ring(2, 2, 2, 2), zpn_ring(2, 2, 2, 1)),
            (zpn_ring(2, 2, 2, 1), zpn_ring(2, 2, 1)),
        ],
        ids=lambda c: repr(c),
    )
    def test_projection_is_a_surjective_homomorphism(self, src, dst):
        els = list(src.elements())
        assert quotient_ctx(src) == dst
        for a in els:
            for b in els:
                assert project(src, dst, src.add(a, b)) == dst.add(
                    project(src, dst, a), project(src, dst, b)
                )
                assert project(src, dst, src.mul(a, b)) == dst.mul(
                    project(src, dst, a), project(src, dst, b)
                )
        image = {project(src, dst, a) for a in els}
        assert image == set(dst.elements())
        z = kernel_generator(src)
        kernel = {a for a in els if project(src, dst, a) == dst.zero()}
        base = src.base
        assert kernel == {src.scalar_mul(c, z) for c in range(base)}

    def test_projection_matches_maximal_ideals(self):
        src, dst = zpn_ring(2, 2, 2, 2), zpn_ring(2, 2, 2, 1)
        nonunits_src = {a for a in src.elements() if not src.is_unit(a)}
        nonunits_dst = {a for a in dst.elements() if not dst.is_unit(a)}
        assert {project(src, dst, a) for a in nonunits_src} == nonunits_dst
        assert {a for a in src.elements() if project(src, dst, a) in nonunits_dst} == nonunits_src


# Small rings of both families: prime and extension fields, and Z rings
# with N = 1, with k < N and with k = N.
FACT_RINGS = [field_ring(q, n) for q, n in [(2, 4), (3, 3), (4, 3), (8, 2), (9, 2)]] + [
    zpn_ring(2, 1, 4),
    zpn_ring(3, 1, 3),
    zpn_ring(2, 2, 1),
    zpn_ring(2, 2, 3),
    zpn_ring(2, 2, 3, 1),
    zpn_ring(2, 3, 2, 2),
    zpn_ring(3, 2, 2, 1),
]


class TestFamilyFacts:
    """The facts each ring context carries, against oracles built from the
    ring's parameters and its elements."""

    @pytest.mark.parametrize("R", FACT_RINGS, ids=repr)
    def test_caps_measure_the_ring(self, R):
        if isinstance(R, FieldPolyCtx):
            base, size = R.coeff.q, R.coeff.q**R.n
        else:
            base, size = R.coeff.p, R.coeff.p ** (R.coeff.N * (R.n - 1) + R.k)
        assert R.base == base
        assert R.base ** sum(R.caps_log) == size
        assert R.size == size == len(set(R.elements()))

    @pytest.mark.parametrize("R", FACT_RINGS, ids=repr)
    def test_domain_points_are_the_valuations(self, R):
        zero = R.zero()
        assert set(R.domain.points) == {R.nu(a) for a in R.elements() if a != zero}

    @pytest.mark.parametrize("R", FACT_RINGS, ids=repr)
    def test_p_image_is_p_times_one(self, R):
        p_one = R.zero()
        for _ in range(R.coeff.p):
            p_one = R.add(p_one, R.one())
        assert (R.p_image != 0) == (p_one != R.zero())
        assert p_one == R.monomial(0, R.p_image)


class TestStringGrammar:
    def test_parse_basic(self):
        R = field_ring(2, 4)
        assert R.parse("x^2+1") == (1, 0, 1, 0)
        assert R.parse("0") == R.zero()
        assert R.parse("x") == (0, 1, 0, 0)

    def test_parse_ignores_whitespace(self):
        R = field_ring(2, 4)
        assert R.parse(" 1 + x ^ 2 ") == (1, 0, 1, 0)

    def test_parse_star_and_repeated_terms(self):
        R = zpn_ring(2, 2, 3)
        assert R.parse("2*x^2+3") == (3, 0, 2)
        assert R.parse("x+x") == (0, 2, 0)
        assert R.parse("3x") == (0, 3, 0)

    def test_parse_bracketed_extension_coefficients(self):
        R = field_ring(4, 3)
        assert R.parse("[1,1]*x") == (0, 3, 0)
        assert R.parse("[0,1]x^2+[1,0]") == (1, 0, 2)

    def test_parse_errors(self):
        R = field_ring(2, 4)
        for bad in ["", "x^4", "x^9", "y", "1++x", "x^", "[1,1]"]:
            with pytest.raises(PolyParseError):
                R.parse(bad)
        with pytest.raises(PolyParseError):
            field_ring(4, 3).parse("[1,1,1]x")  # too many coordinates

    def test_format_basic(self):
        R = field_ring(2, 4)
        assert R.format((1, 0, 1, 0)) == "1+x^2"
        assert R.format(R.zero()) == "0"
        assert R.format((0, 1, 0, 0)) == "x"
        assert zpn_ring(2, 2, 2).format((0, 2)) == "2x"
        assert field_ring(4, 3).format((0, 3, 0)) == "[1,1]x"

    @pytest.mark.parametrize(
        "R", [field_ring(4, 2), field_ring(9, 2), zpn_ring(2, 2, 2, 1)], ids=repr
    )
    def test_roundtrip_exhaustive(self, R):
        for a in R.elements():
            assert R.parse(R.format(a)) == a

    @given(st.data())
    def test_roundtrip_sampled(self, data):
        R = zpn_ring(3, 2, 4, 1)
        el = tuple(data.draw(st.integers(0, c - 1)) for c in R.caps)
        assert R.parse(R.format(el)) == el


# The string syntax reads the ring's facts: a plain integer reduces mod
# p^caps_log[0] (p over F_q, p^N over Z/p^N), a bracket needs base != p,
# and only there does a coefficient of p or more print in brackets.
SYNTAX_RINGS = {
    "F3": field_ring(3, 3),
    "F9": field_ring(9, 3),
    "Z/3": zpn_ring(3, 1, 3),
    "Z/3^2": zpn_ring(3, 2, 3, 1),
}
NO_BRACKET = "bracketed coefficients require an extension field"
PARSE_TABLE = [
    ("10", {"F3": (1, 0, 0), "F9": (1, 0, 0), "Z/3": (1, 0, 0), "Z/3^2": (1, 0, 0)}),
    ("5x", {"F3": (0, 2, 0), "F9": (0, 2, 0), "Z/3": (0, 2, 0), "Z/3^2": (0, 5, 0)}),
    # the top column of Z[x]/(3^2, x^3, 3x^2) lives mod 3
    ("4x^2", {"F3": (0, 0, 1), "F9": (0, 0, 1), "Z/3": (0, 0, 1), "Z/3^2": (0, 0, 1)}),
    ("[1,1]x", {"F3": NO_BRACKET, "F9": (0, 4, 0), "Z/3": NO_BRACKET, "Z/3^2": NO_BRACKET}),
    (
        "[1,1,1]x",
        {"F3": NO_BRACKET, "F9": "coefficient vector longer than degree 2", "Z/3": NO_BRACKET, "Z/3^2": NO_BRACKET},
    ),
]
FORMAT_TABLE = [
    ("F3", (2, 2, 1), "2+2x+x^2"),
    ("F9", (2, 4, 1), "2+[1,1]x+x^2"),
    ("F9", (0, 3, 8), "[0,1]x+[2,2]x^2"),
    ("Z/3", (2, 2, 1), "2+2x+x^2"),
    ("Z/3^2", (8, 4, 2), "8+4x+2x^2"),
]


class TestSyntaxReadsTheFacts:
    @pytest.mark.parametrize("text,expected", PARSE_TABLE, ids=[t for t, _ in PARSE_TABLE])
    @pytest.mark.parametrize("name", SYNTAX_RINGS)
    def test_parse(self, name, text, expected):
        R, want = SYNTAX_RINGS[name], expected[name]
        if isinstance(want, str):
            with pytest.raises(PolyParseError, match=re.escape(want)):
                R.parse(text)
        else:
            assert R.parse(text) == want

    @pytest.mark.parametrize("name,element,text", FORMAT_TABLE)
    def test_format(self, name, element, text):
        R = SYNTAX_RINGS[name]
        assert R.format(element) == text
        assert R.parse(text) == element
