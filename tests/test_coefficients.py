"""Coefficient arithmetic: F_q and Z/p^N with the nu1 valuation."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from truncring import (
    DivisionByZero,
    FieldCtx,
    NotAUnit,
    UndefinedValuation,
    ZpNCtx,
    default_modulus,
    is_irreducible,
    is_prime,
)


def poly_mul_mod(p, modulus, a, b):
    """Independent oracle: schoolbook product then long division by the
    monic modulus, all over Z/p.  Coefficient lists are ascending."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    deg = len(modulus) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            for j, m in enumerate(modulus):
                prod[i - deg + j] = (prod[i - deg + j] - c * m) % p
    return tuple(prod[:deg])


def digits(p, e, a):
    """Independent oracle: the e base-p digits of a, least significant first."""
    out = []
    for _ in range(e):
        a, d = divmod(a, p)
        out.append(d)
    return out


def from_digits(p, ds):
    return sum(d * p**i for i, d in enumerate(ds))


def brute_irreducible(p, poly):
    """Oracle: no product of two smaller monic polynomials equals poly."""
    deg = len(poly) - 1
    for d1 in range(1, deg):
        d2 = deg - d1
        for c1 in itertools.product(range(p), repeat=d1):
            f = list(c1) + [1]
            for c2 in itertools.product(range(p), repeat=d2):
                g = list(c2) + [1]
                prod = [0] * (deg + 1)
                for i, x in enumerate(f):
                    for j, y in enumerate(g):
                        prod[i + j] = (prod[i + j] + x * y) % p
                if tuple(prod) == tuple(poly):
                    return False
    return True


class TestPrimeField:
    def test_char_two_addition(self):
        F = FieldCtx(2)
        assert F.add(1, 1) == 0

    def test_inverse_mod_three(self):
        F = FieldCtx(3)
        assert F.inv(2) == 2

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(DivisionByZero):
            FieldCtx(5).inv(0)

    def test_nonprime_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FieldCtx(6)

    def test_prime_field_past_the_table_limit(self):
        # F_257 has no tables: each entry is computed when read, by the
        # prime-field branches, against plain modular arithmetic
        F = FieldCtx(257)
        assert not isinstance(F.tables[0], list)
        rng = random.Random(257)
        pairs = [(0, 0), (256, 1), (256, 256), (1, 255)]
        pairs += [(rng.randrange(257), rng.randrange(257)) for _ in range(500)]
        for a, b in pairs:
            assert F.add(a, b) == (a + b) % 257
            assert F.sub(a, b) == (a - b) % 257
            assert F.tables[1][a] == -a % 257
            assert F.mul(a, b) == a * b % 257
            if a:
                assert F.inv(a) == pow(a, -1, 257)

    def test_reprs(self):
        assert [repr(F) for F in (FieldCtx(257), FieldCtx(2, 2), ZpNCtx(3, 2), ZpNCtx(3, 1))] == [
            "F257",
            "F4",
            "Z/3^2",
            "Z/3",
        ]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_field_axioms_exhaustive(self, p):
        F = FieldCtx(p)
        els = list(F.elements())
        for a, b, c in itertools.product(els, repeat=3):
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        for a in els:
            assert F.add(a, F.tables[1][a]) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1


class TestExtensionField:
    def test_default_moduli_are_least_irreducible(self):
        # oracle: scan monic polynomials in written order (descending powers)
        for p, e in [(2, 2), (2, 3), (3, 2)]:
            got = default_modulus(p, e)
            candidates = [
                c1 + (1,)
                for c1 in sorted(
                    itertools.product(range(p), repeat=e), key=lambda t: t[::-1]
                )
            ]
            least = next(c for c in candidates if brute_irreducible(p, c))
            assert got == least
            assert is_irreducible(p, got)

    def test_default_moduli_values(self):
        assert default_modulus(2, 2) == (1, 1, 1)  # t^2 + t + 1
        assert default_modulus(2, 3) == (1, 1, 0, 1)  # t^3 + t + 1
        assert default_modulus(3, 2) == (1, 0, 1)  # t^2 + 1

    def test_f4_square_of_generator(self):
        F = FieldCtx(2, 2)
        t = F.from_coeffs([0, 1])
        expected = poly_mul_mod(2, F.modulus, (0, 1), (0, 1))
        assert F.coeffs(F.mul(t, t)) == expected == (1, 1)  # t^2 = t + 1

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
    def test_multiplication_matches_long_division_oracle(self, p, e):
        F = FieldCtx(p, e)
        for a in F.elements():
            for b in F.elements():
                want = poly_mul_mod(p, F.modulus, F.coeffs(a), F.coeffs(b))
                assert F.coeffs(F.mul(a, b)) == want

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_field_axioms_exhaustive(self, q):
        p = 2 if q in (4, 8) else 3
        e = {4: 2, 8: 3, 9: 2}[q]
        F = FieldCtx(p, e)
        els = list(F.elements())
        for a, b, c in itertools.product(els, repeat=3):
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        for a in els:
            assert F.add(a, F.tables[1][a]) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1

    def test_coefficient_packing_roundtrip(self):
        F = FieldCtx(3, 2)
        for a in F.elements():
            assert F.from_coeffs(F.coeffs(a)) == a

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            FieldCtx(2, 2, modulus=(0, 0, 1))  # t^2 = t * t

    def test_prime_field_takes_no_modulus(self):
        with pytest.raises(ValueError):
            FieldCtx(3, 1, modulus=(1, 1))

    def test_unit_count(self):
        assert len(list(FieldCtx(2, 3).units())) == 7

    def test_is_prime_small_values(self):
        assert [m for m in range(2, 20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]

    @pytest.mark.parametrize("p,e", [(2, 8), (2, 9), (3, 6)])
    def test_mul_and_inv_at_and_past_the_table_limit(self, p, e):
        # F_256 has the largest tables; F_512 and F_729 have none, so mul
        # reduces the product by the modulus and inv squares and multiplies
        F = FieldCtx(p, e)
        assert isinstance(F.tables[2], list) == (F.q <= 256)
        rng = random.Random(F.q)
        for _ in range(300):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            assert F.coeffs(F.mul(a, b)) == poly_mul_mod(p, F.modulus, F.coeffs(a), F.coeffs(b))
            u = rng.randrange(1, F.q)
            assert F.mul(u, F.inv(u)) == 1
        with pytest.raises(DivisionByZero):
            F.inv(0)

    @pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 4), (3, 6)])
    def test_add_neg_sub_match_digits(self, p, e):
        # addition is digit-wise mod p; the field axioms alone would pass a
        # wrong but consistent addition.  Up to F_81 every pair is checked,
        # and F_625 and F_729, past the table limit, a seeded sample
        F = FieldCtx(p, e)
        if F.q <= 81:
            pairs = itertools.product(F.elements(), repeat=2)
        else:
            rng = random.Random(F.q)
            pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(2000)]
        for a, b in pairs:
            da, db = digits(p, e, a), digits(p, e, b)
            assert F.add(a, b) == from_digits(p, [(x + y) % p for x, y in zip(da, db)])
            assert F.sub(a, b) == from_digits(p, [(x - y) % p for x, y in zip(da, db)])
            assert F.tables[1][a] == from_digits(p, [-x % p for x in da])


class TestZpN:
    def test_add_wraps(self):
        assert ZpNCtx(2, 3).add(5, 6) == 3

    def test_nilpotent_square(self):
        assert ZpNCtx(2, 2).mul(2, 2) == 0

    def test_inverse_mod_nine(self):
        assert ZpNCtx(3, 2).inv(2) == 5

    def test_inverse_of_nonunit_rejected(self):
        R = ZpNCtx(3, 2)
        with pytest.raises(NotAUnit):
            R.inv(3)
        with pytest.raises(NotAUnit):
            R.inv(0)

    def test_nu1_values(self):
        assert ZpNCtx(2, 4).nu1(12) == 2
        assert ZpNCtx(2, 2).nu1(1) == 0
        assert ZpNCtx(2, 3).nu1(4) == 2

    def test_nu1_of_zero_rejected(self):
        with pytest.raises(UndefinedValuation):
            ZpNCtx(2, 3).nu1(0)

    @pytest.mark.parametrize("p,N", [(2, 3), (2, 4), (3, 2)])
    def test_nu1_strict(self, p, N):
        R = ZpNCtx(p, N)
        nonzero = [a for a in R.elements() if a]
        for a in nonzero:
            for b in nonzero:
                if R.nu1(a) + R.nu1(b) < N:
                    ab = R.mul(a, b)
                    assert ab != 0
                    assert R.nu1(ab) == R.nu1(a) + R.nu1(b)

    @pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (5, 2)])
    def test_equal_valuation_means_unit_multiple(self, p, N):
        R = ZpNCtx(p, N)
        nonzero = [a for a in R.elements() if a]
        units = list(R.units())
        for a in nonzero:
            for b in nonzero:
                if R.nu1(a) == R.nu1(b):
                    assert any(a == R.mul(u, b) for u in units)

    def test_unit_count(self):
        R = ZpNCtx(3, 3)
        assert len(list(R.units())) == 27 - 9

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    def test_ring_axioms_sampled(self, a, b, c):
        R = ZpNCtx(2, 3)
        assert R.add(a, R.sub(0, a)) == 0
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
