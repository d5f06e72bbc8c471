"""Valuation shapes: closure, minimal generators, the counting recursions,
and exhaustive enumeration against a subset-filter oracle; the bit layout
and the mask kernels against the set definitions they replaced."""

import itertools

import pytest

from truncring import (
    GridDomain,
    IntervalDomain,
    InvariantViolation,
    Shape,
    TooLarge,
    e_bound,
    enumerate_shapes,
    eps_bound,
    generate,
    is_realizable_zshape,
    is_shape,
    minimal_generators,
)
from truncring.shapes import chain_bound

FAMILY_E = {0, 6, 7, 8, 12, 13, 14, 15, 16, 17}

# grids with a capped top row, where some sums of members are undefined
TAIL_GRIDS = [GridDomain(2, 3, 1), GridDomain(3, 3, 1), GridDomain(3, 3, 2), GridDomain(4, 2, 1)]
FILTER_DOMAINS = (
    [IntervalDomain(n) for n in range(1, 8)]
    + [GridDomain(2, 2), GridDomain(2, 2, 1), GridDomain(3, 2), GridDomain(2, 3, 2)]
    + TAIL_GRIDS
)


def indecomposables(pts):
    """Nonzero members that are not a sum of two nonzero members."""

    def add(a, b):
        return a + b if isinstance(a, int) else (a[0] + b[0], a[1] + b[1])

    zero = 0 if any(isinstance(p, int) for p in pts) else (0, 0)
    nz = {p for p in pts if p != zero}
    return {g for g in nz if not any(add(a, b) == g for a in nz for b in nz)}


def e_rec(n, E):
    """Oracle: the interval recursion written recursively."""
    if n == 1:
        return 0
    top = n - 1
    if top in E:
        return e_rec(n - 1, E - {top})
    return len(indecomposables(E)) + e_rec(n - 1, E)


def eps_rec(n, N, k, D):
    """Oracle: the grid recursion, splicing to the shorter ring at k = 0."""
    if n == 1:
        return 0
    if k == 0:
        return eps_rec(n - 1, N, N, {pt for pt in D if pt[0] < n - 1})
    top = (n - 1, k - 1)
    if top in D:
        return eps_rec(n, N, k - 1, D - {top})
    return len(indecomposables(D)) - 1 + eps_rec(n, N, k - 1, D)


def add(a, b):
    """The raw sum of two points, defined in the domain or not."""
    return a + b if isinstance(a, int) else (a[0] + b[0], a[1] + b[1])


def shapes_by_subset_filter(domain):
    """Oracle: every subset of the nonzero points that holds each sum of
    two of its members that the domain contains."""
    pts = [p for p in domain.points if p != domain.zero]
    out = []
    for r in range(len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            sums = {add(a, b) for a in combo for b in combo}
            if all(t in combo for t in sums if domain.contains(t)):
                out.append(tuple(sorted({domain.zero, *combo})))
    return sorted(out)


class TestIsShape:
    def test_undefined_sums_do_not_obstruct(self):
        assert is_shape(IntervalDomain(4), {0, 2})

    def test_missing_defined_sum_rejected(self):
        assert not is_shape(IntervalDomain(6), {0, 2, 5})

    def test_family_exponent_set(self):
        assert is_shape(IntervalDomain(18), FAMILY_E)

    def test_zero_required(self):
        assert not is_shape(IntervalDomain(4), {1, 2, 3})

    def test_points_outside_domain_rejected(self):
        assert not is_shape(IntervalDomain(4), {0, 5})
        assert not is_shape(GridDomain(2, 2, 1), {(0, 0), (1, 1)})

    @pytest.mark.parametrize("domain", FILTER_DOMAINS, ids=str)
    def test_matches_subset_filter_oracle(self, domain):
        pts = [p for p in domain.points if p != domain.zero]
        subsets = [{domain.zero, *c} for r in range(len(pts) + 1) for c in itertools.combinations(pts, r)]
        got = sorted(tuple(sorted(c)) for c in subsets if is_shape(domain, c))
        assert got == shapes_by_subset_filter(domain)

    def test_shape_of_validates(self):
        with pytest.raises(ValueError):
            Shape.of(IntervalDomain(6), {0, 2, 5})
        assert Shape.of(IntervalDomain(4), [2, 0]).elems == (0, 2)


class TestRealizability:
    def test_prime_column_alone(self):
        s = Shape.of(GridDomain(2, 2), {(0, 0), (0, 1)})
        assert is_realizable_zshape(s)

    def test_missing_valuation_of_p(self):
        s = Shape.of(GridDomain(2, 2), {(0, 0), (1, 0), (1, 1)})
        assert not is_realizable_zshape(s)

    def test_partial_top_column(self):
        s = Shape.of(GridDomain(2, 2), {(0, 0), (0, 1), (1, 1)})
        assert is_realizable_zshape(s)

    def test_interval_shapes_rejected(self):
        with pytest.raises(TypeError):
            is_realizable_zshape(Shape.of(IntervalDomain(3), {0}))


class TestMinimalGenerators:
    def test_family_shape(self):
        s = Shape.of(IntervalDomain(18), FAMILY_E)
        assert minimal_generators(s) == (6, 7, 8, 17)
        assert s.generator_count() == 4

    def test_trivial_shape(self):
        assert minimal_generators(Shape.of(IntervalDomain(5), {0})) == ()

    def test_full_grid(self):
        s = Shape.of(GridDomain(2, 2), {(0, 0), (0, 1), (1, 0), (1, 1)})
        assert minimal_generators(s) == ((0, 1), (1, 0))

    def test_unclosed_set_is_an_invariant_violation(self):
        # Shape() skips the validation of Shape.of; 2 + 2 = 4 is missing
        dom = IntervalDomain(5)
        with pytest.raises(InvariantViolation):
            minimal_generators(Shape(dom, dom.mask_of((0, 2, 3))))

    def test_generate_recovers_family_shape(self):
        assert generate(IntervalDomain(18), (6, 7, 8, 17)) == FAMILY_E

    @pytest.mark.parametrize(
        "domain",
        [IntervalDomain(6), IntervalDomain(7), GridDomain(3, 2), GridDomain(2, 3, 2)] + TAIL_GRIDS,
        ids=str,
    )
    def test_generation_and_minimality(self, domain):
        for s in enumerate_shapes(domain):
            gens = minimal_generators(s)
            assert generate(domain, gens) == set(s.elems)
            for g in gens:
                rest = tuple(h for h in gens if h != g)
                assert generate(domain, rest) != set(s.elems)

    @pytest.mark.parametrize(
        "domain",
        [IntervalDomain(n) for n in range(1, 13)]
        + [GridDomain(3, 2), GridDomain(2, 3, 2), GridDomain(3, 3, 1), GridDomain(4, 2, 1), GridDomain(4, 3, 2)],
        ids=str,
    )
    def test_matches_indecomposables_oracle(self, domain):
        for s in enumerate_shapes(domain):
            assert minimal_generators(s) == tuple(sorted(indecomposables(s.elems)))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_agreement_with_numerical_monoid_slice(self, n):
        # adjoining every exponent from n on leaves the generators below n alone
        big = IntervalDomain(3 * n)
        for s in enumerate_shapes(IntervalDomain(n)):
            widened = Shape.of(big, set(s.elems) | set(range(n, 3 * n)))
            low = {g for g in minimal_generators(widened) if g < n}
            assert low == set(minimal_generators(s))


class TestIntervalBound:
    def test_base_case(self):
        assert e_bound(1, {0}) == 0

    def test_unrolled_examples(self):
        assert e_bound(4, {0, 2}) == 1
        assert e_bound(4, {0, 3}) == 0

    def test_non_shape_rejected(self):
        with pytest.raises(ValueError):
            e_bound(6, {0, 2, 5})

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_recursive_oracle(self, n):
        for s in enumerate_shapes(IntervalDomain(n)):
            got = e_bound(n, s)
            assert got == e_rec(n, set(s.elems))
            assert got >= 0


class TestGridBound:
    def test_unrolled_examples(self):
        assert eps_bound(2, 2, 2, {(0, 0), (0, 1), (1, 1)}) == 0
        assert eps_bound(2, 2, 2, {(0, 0), (0, 1)}) == 0
        # n=4: two absent top points each add d - 1 = 1, the rest strips away
        assert eps_bound(4, 2, 2, {(0, 0), (0, 1), (2, 0), (2, 1)}) == 2

    def test_rejects_shallow_coefficients(self):
        with pytest.raises(ValueError):
            eps_bound(2, 1, 1, {(0, 0)})

    def test_rejects_unrealizable_shapes(self):
        with pytest.raises(ValueError):
            eps_bound(2, 2, 2, {(0, 0), (1, 0), (1, 1)})

    def test_rejects_non_shapes(self):
        with pytest.raises(ValueError):
            eps_bound(2, 2, 1, {(0, 0), (0, 1), (1, 1)})

    @pytest.mark.parametrize(
        "n,N,k",
        [
            (n, N, k)
            for n, N in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (5, 2), (6, 2), (7, 2), (4, 3), (3, 4), (2, 5)]
            for k in range(1, N + 1)
        ],
    )
    def test_matches_recursive_oracle(self, n, N, k):
        for s in enumerate_shapes(GridDomain(n, N, k), realizable_only=True):
            got = eps_bound(n, N, k, s)
            assert got == eps_rec(n, N, k, set(s.elems))
            assert got >= 0


class TestEnumeration:
    def test_single_point_domain(self):
        assert [s.elems for s in enumerate_shapes(IntervalDomain(1))] == [(0,)]

    def test_small_interval(self):
        got = [s.elems for s in enumerate_shapes(IntervalDomain(3))]
        assert got == [(0,), (0, 1, 2), (0, 2)]
        assert got == shapes_by_subset_filter(IntervalDomain(3))

    @pytest.mark.parametrize("domain", FILTER_DOMAINS, ids=str)
    def test_matches_subset_filter_oracle(self, domain):
        got = [s.elems for s in enumerate_shapes(domain)]
        assert got == shapes_by_subset_filter(domain)
        assert got == sorted(got)  # deterministic order

    def test_realizable_filter(self):
        domain = GridDomain(2, 2)
        got = [s.elems for s in enumerate_shapes(domain, realizable_only=True)]
        want = [
            s.elems
            for s in enumerate_shapes(domain)
            if all((0, j) in s.elems for j in range(domain.N))
        ]
        assert got == want
        assert len(got) == 3

    def test_realizable_filter_is_noop_on_intervals(self):
        dom = IntervalDomain(5)
        assert enumerate_shapes(dom, realizable_only=True) == enumerate_shapes(dom)

    def test_large_domain_rejected(self):
        with pytest.raises(TooLarge):
            enumerate_shapes(IntervalDomain(25))

    def test_interval_count_grows(self):
        counts = [len(enumerate_shapes(IntervalDomain(n))) for n in range(1, 7)]
        assert counts == sorted(counts)
        assert counts[2] == 3 and counts[3] == 5


# -- the set definitions, the oracle of the mask kernels ------------------------
#
# Each shape question as the library answered it on Python sets before points
# became masks: one set of pairwise sums, filtered by domain.contains.


def sums(pts, others=None) -> set:
    """Every raw sum a + b with a in pts and b in others (default pts),
    whether or not the domain defines it."""
    others = pts if others is None else others
    return {add(a, b) for a in pts for b in others}


def is_shape_by_sets(domain, elems) -> bool:
    s = set(elems)
    if domain.zero not in s or not all(domain.contains(pt) for pt in s):
        return False
    return all(t in s for t in sums(s - {domain.zero}) if domain.contains(t))


def generate_by_sets(domain, gens) -> set:
    out = new = {domain.zero} | set(gens)
    while new:
        new = {t for t in sums(new, out) if domain.contains(t)} - out
        out |= new
    return out


def generators_by_sets(domain, elems) -> tuple:
    """The minimal generators, None when they do not span elems."""
    nz = set(elems) - {domain.zero}
    gens = tuple(sorted(nz - sums(nz)))
    return gens if generate_by_sets(domain, gens) == set(elems) else None


def chain_bound_by_sets(domain, elems) -> int:
    col = set(domain.zero_column)
    gaps = [t for t in domain.points if t not in col and t not in elems]
    gens = set(generators_by_sets(domain, elems)) - col
    return sum(t > g for g in gens for t in gaps)


def enumerate_by_sets(domain, realizable_only=False) -> list:
    pts = [pt for pt in domain.points if pt != domain.zero]
    required = set(domain.zero_column) if realizable_only else set()
    out = []

    def rec(i, nz, done):
        if i == len(pts):
            out.append(tuple(sorted(nz | {domain.zero})))
            return
        h = pts[i]
        if h not in required and h not in done:
            rec(i + 1, nz, done)
        with_h = nz | {h}
        rec(i + 1, with_h, done | sums((h,), with_h))

    rec(0, set(), set())
    return sorted(out)


MASK_DOMAINS = [IntervalDomain(n) for n in range(1, 11)] + [
    GridDomain(n, N, k)
    for n, N in [(1, 2), (1, 3), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]
    for k in range(1, N + 1)
    if n > 1 or k == N
]


def subsets(domain):
    """Every subset of the domain's points."""
    pts = domain.points
    return [c for r in range(len(pts) + 1) for c in itertools.combinations(pts, r)]


class TestMaskLayout:
    @pytest.mark.parametrize("domain", MASK_DOMAINS, ids=str)
    def test_positions_add_and_order_as_the_points(self, domain):
        # a defined sum sits at the sum of the positions, an undefined one
        # at a position of no point, and positions ascend with the points
        at = dict(zip(domain.points, domain.bits))
        assert list(domain.bits) == sorted(set(domain.bits))
        assert domain.bits[0] == 0 and domain.points[0] == domain.zero
        assert domain.mask == sum(1 << b for b in domain.bits)
        assert domain.top_bit == 1 << at[domain.points[-1]]
        assert domain.zero_column_mask == sum(1 << at[pt] for pt in domain.zero_column)
        for u, v in itertools.product(domain.points, repeat=2):
            t = domain.add(u, v)
            assert at.get(t) == (at[u] + at[v] if t is not None else None)
            if t is None:
                assert not domain.mask >> (at[u] + at[v]) & 1

    @pytest.mark.parametrize("domain", MASK_DOMAINS, ids=str)
    def test_masks_round_trip(self, domain):
        for c in subsets(domain):
            m = domain.mask_of(c)
            assert domain.points_of(m) == tuple(sorted(c))
            assert m.bit_count() == len(c) and not m & ~domain.mask

    @pytest.mark.parametrize(
        "domain, outside",
        [
            (IntervalDomain(4), [4, -1, (0, 0), 1.0]),
            (GridDomain(2, 2), [(2, 0), (0, 2), (0, -1), 0, (0, 0, 0)]),
            (GridDomain(3, 3, 1), [(2, 1), (2, 2), (3, 0)]),
        ],
        ids=str,
    )
    def test_points_outside_the_domain(self, domain, outside):
        for pt in outside:
            elems = (domain.zero, pt)
            assert not is_shape(domain, elems)
            for f in (domain.mask_of, lambda e: Shape.of(domain, e), lambda e: generate(domain, e)):
                with pytest.raises(ValueError):
                    f(elems)
        with pytest.raises(ValueError):
            e_bound(4, {0, 4})
        with pytest.raises(ValueError):
            eps_bound(3, 3, 1, {(0, 0), (0, 1), (0, 2), (2, 1)})


class TestMaskKernels:
    @pytest.mark.parametrize("domain", MASK_DOMAINS, ids=str)
    def test_every_subset_matches_the_set_definitions(self, domain):
        for c in subsets(domain):
            verdict = is_shape(domain, c)
            assert verdict == is_shape_by_sets(domain, c)
            assert generate(domain, c) == generate_by_sets(domain, c)
            if not verdict:
                with pytest.raises(ValueError):
                    Shape.of(domain, c)
                if domain.zero in c:
                    # an unclosed set: its generators do not span it
                    assert generators_by_sets(domain, c) is None
                    with pytest.raises(InvariantViolation):
                        minimal_generators(Shape(domain, domain.mask_of(c)))
                continue
            sh = Shape.of(domain, c)
            assert sh.elems == tuple(sorted(c)) and sh.mask == domain.mask_of(c)
            # the unchecked constructor holds the same shape: the mask is all
            unchecked = Shape(domain, domain.mask_of(c))
            assert unchecked == sh and hash(unchecked) == hash(sh) and unchecked.elems == tuple(sorted(c))
            gens = generators_by_sets(domain, c)
            assert minimal_generators(sh) == gens
            assert sh.generator_count() == len(gens)
            assert chain_bound(sh) == chain_bound_by_sets(domain, c)
            realizable = set(domain.zero_column) <= set(c)
            if isinstance(domain, IntervalDomain):
                assert e_bound(domain.n, c) == chain_bound_by_sets(domain, c)
            else:
                assert is_realizable_zshape(sh) == realizable
                if domain.N >= 2 and realizable:
                    assert eps_bound(domain.n, domain.N, domain.tail, c) == chain_bound_by_sets(domain, c)

    @pytest.mark.parametrize("domain", MASK_DOMAINS, ids=str)
    @pytest.mark.parametrize("realizable_only", [False, True])
    def test_enumeration_matches_the_set_definitions(self, domain, realizable_only):
        got = enumerate_shapes(domain, realizable_only)
        assert [s.elems for s in got] == enumerate_by_sets(domain, realizable_only)
        assert all(s.mask == domain.mask_of(s.elems) for s in got)

    def test_of_mask_checks_as_of_does(self):
        dom = GridDomain(3, 2, 1)
        for c in subsets(dom):
            m = dom.mask_of(c)
            if is_shape(dom, c):
                assert Shape.of_mask(dom, m) == Shape.of(dom, c)
            else:
                with pytest.raises(ValueError):
                    Shape.of_mask(dom, m)
        with pytest.raises(ValueError):
            Shape.of_mask(dom, dom.mask | 1 << 20)
