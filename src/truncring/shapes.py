"""Valuation shapes: sub-partial-monoids of truncated exponent domains.

A domain is either the interval [0, n-1] under truncated addition, or the
grid [0, n-1] x [0, N-1] under componentwise truncated addition with an
optional cap on the top row: points (n-1, j) with j >= tail are removed,
and sums landing there are undefined.  The grid with tail = k is exactly
the set of valuations occurring in Z[x]/(p^N, x^n, p^k x^{n-1}).

A shape is a subset containing zero and closed under defined sums.

A set of points is a mask, an int with one bit per point, in the domain's
layout (_PointLayout): the interval point i sits at bit i, the grid point
(i, j) at bit i (2N-1) + j, and zero at bit 0.  Positions add as the
points do, and j + j' <= 2N - 2 never carries into the next row, so the
sums of two sets are one mask shifted by each position of the other
(_raw_sums), and the defined sums are the bits that land in the domain's
mask: a sum past the last row, in a row's unused bits j >= N or on a
capped top-row point lands outside it.  Positions also order as the
points do, so a mask decodes to its points in ascending order.  Every
shape question is answered by shifts, as numerical semigroups are held
as bitmaps (Fromentin and Hivert, Exploring the tree of numerical
semigroups, 2016): closure asks that the defined sums of the shape's
nonzero points lie in it, the minimal generators are the nonzero points
outside those sums, the census bound counts the gaps above each
generator by popcount, and enumeration forces a point exactly when it is
a sum of two points already chosen.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InvariantViolation, TooLarge

# Iterable in the annotations is collections.abc's; with the __future__
# import they are never evaluated, so it is not imported
Point = int | tuple[int, int]

# Shape enumeration is exponential in the domain size; this keeps it honest.
_MAX_ENUM_POINTS = 24


class _Record:
    """A record of the fields named by _fields: its repr names them, and two
    records are equal when they are of one class and their fields' tuples
    are.  It is unhashable, as a mutable record should be; each record
    assigns its fields in its own __init__."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class _FrozenRecord(_Record):
    """A _Record that refuses assignment and hashes its fields' tuple.  Its
    __init__ writes the fields to __dict__, as cached_property does."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class _PointLayout:
    """A domain's bit layout (see the module docstring): each domain lists
    its points and places one it contains at bit(pt)."""

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """The points' positions, ascending as the points are."""
        return tuple(map(self.bit, self.points))

    @cached_property
    def _placed(self) -> tuple:
        return tuple(zip(self.points, self.bits))

    @cached_property
    def mask(self) -> int:
        """The mask of every point."""
        return sum(1 << b for b in self.bits)

    @cached_property
    def zero_column_mask(self) -> int:
        return self.mask_of(self.zero_column)

    @cached_property
    def top_bit(self) -> int:
        """The mask of the largest point."""
        return 1 << self.bits[-1]

    @cached_property
    def top_splits(self) -> tuple[int, ...]:
        """The masks of the pairs {u, v} of nonzero points whose sum is the
        largest point."""
        top = self.points[-1]
        pts = [u for u in self.points if u != self.zero]
        return tuple(self.mask_of((u, v)) for i, u in enumerate(pts) for v in pts[i:] if self.add(u, v) == top)

    def mask_of(self, pts: Iterable[Point]) -> int:
        """The mask of the points; ValueError for one outside the domain."""
        m = 0
        for pt in pts:
            if not self.contains(pt):
                raise ValueError(f"{pt!r} is not a point of {self}")
            m |= 1 << self.bit(pt)
        return m

    def points_of(self, mask: int) -> tuple:
        """The points of a mask, ascending."""
        return tuple([pt for pt, b in self._placed if mask >> b & 1])


class IntervalDomain(_FrozenRecord, _PointLayout):
    """Exponents [0, n-1]; a + b is defined when it stays below n."""

    _fields = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"domain needs n >= 1, got {n}")
        self.__dict__.update(n=n)

    @property
    def zero(self) -> int:
        return 0

    @cached_property
    def points(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def zero_column(self) -> tuple[int, ...]:
        """The valuations of the prime ring."""
        return (0,)

    def contains(self, pt) -> bool:
        return isinstance(pt, int) and 0 <= pt < self.n

    def bit(self, pt: int) -> int:
        return pt

    def add(self, a: int, b: int):
        s = a + b
        return s if s < self.n else None


class GridDomain(_FrozenRecord, _PointLayout):
    """Pairs [0, n-1] x [0, N-1] ordered and added lexicographically.

    With tail < N the points (n-1, j), j >= tail are excluded and sums are
    defined only when they land on a remaining point.
    """

    _fields = ("n", "N", "tail")

    def __init__(self, n: int, N: int, tail: int | None = None):
        if n < 1 or N < 1:
            raise ValueError("domain needs n >= 1 and N >= 1")
        if tail is None:
            tail = N
        if not 1 <= tail <= N:
            raise ValueError(f"tail must lie in [1, {N}]")
        if n == 1 and tail != N:
            raise ValueError("for n = 1 the tail cap would empty the zero column")
        self.__dict__.update(n=n, N=N, tail=tail)

    @property
    def zero(self) -> tuple[int, int]:
        return (0, 0)

    @cached_property
    def points(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in range(self.N)
            if not (i == self.n - 1 and j >= self.tail)
        )

    @property
    def zero_column(self) -> tuple[tuple[int, int], ...]:
        """The valuations of the prime ring: (0, 0), ..., (0, N-1)."""
        return self.points[: self.N]

    def contains(self, pt) -> bool:
        if not (isinstance(pt, tuple) and len(pt) == 2):
            return False
        i, j = pt
        return 0 <= i < self.n and 0 <= j < self.N and not (i == self.n - 1 and j >= self.tail)

    def bit(self, pt: tuple[int, int]) -> int:
        # 2N - 1 bits a row: j + j' <= 2N - 2 stays in the row
        return pt[0] * (2 * self.N - 1) + pt[1]

    def add(self, a, b):
        s = (a[0] + b[0], a[1] + b[1])
        return s if self.contains(s) else None


ExpDomain = IntervalDomain | GridDomain


def _raw_sums(a: int, b: int) -> int:
    """The mask of the sums u + v, u in mask a and v in mask b, defined or
    not: b shifted by each of a's positions, one set bit of a at a time
    (b * low is b shifted to low's position)."""
    s = 0
    while a:
        low = a & -a
        s |= b * low
        a ^= low
    return s


def _closure(domain: ExpDomain, m: int) -> int:
    """The closure of the mask m under defined sums, in one ascending pass
    over its members, each adding its defined sums with the members so far.
    Proof that the result is closed: a sum of two nonzero points lies above
    both, so a member is added while a lower one is passed, and when the
    pass reaches a member v, every member u <= v is in m and v + u is
    added."""
    dom = domain.mask
    above = m & ~1
    while above:
        low = above & -above
        m |= m * low & dom
        # the members above low, those just added among them
        above = m & -(low << 1)
    return m


def _is_shape_mask(domain: ExpDomain, m: int) -> bool:
    """Whether the mask m holds zero, lies in the domain and holds every
    defined sum of two of its nonzero points."""
    nz = m & ~1
    return bool(m & 1) and not m & ~domain.mask and not _raw_sums(nz, nz) & domain.mask & ~m


def is_shape(domain: ExpDomain, elems: Iterable[Point]) -> bool:
    """True when elems contains zero, lies in the domain, and is closed
    under every defined sum of its members."""
    try:
        m = domain.mask_of(elems)
    except ValueError:
        return False
    return _is_shape_mask(domain, m)


class Shape(_FrozenRecord):
    """A sub-partial-monoid held as its mask; the constructor does not
    check that the mask is one (Shape.of and Shape.of_mask do).  Its
    points, ascending, and its generators' mask are memoised outside the
    fields."""

    _fields = ("domain", "mask")

    def __init__(self, domain: ExpDomain, mask: int):
        self.__dict__.update(domain=domain, mask=mask)

    @staticmethod
    def of(domain: ExpDomain, elems: Iterable[Point]) -> "Shape":
        return Shape.of_mask(domain, domain.mask_of(elems))

    @staticmethod
    def of_mask(domain: ExpDomain, mask: int) -> "Shape":
        """The shape whose points are the mask's; ValueError when they are
        not a shape."""
        if not _is_shape_mask(domain, mask):
            raise ValueError(f"{domain.points_of(mask)} is not a shape of {domain}")
        return Shape(domain, mask)

    @cached_property
    def elems(self) -> tuple[Point, ...]:
        return self.domain.points_of(self.mask)

    @cached_property
    def _generators(self) -> int:
        """The mask of the minimal generators (see minimal_generators)."""
        domain, m = self.domain, self.mask
        nz = m & ~1
        gens = nz & ~_raw_sums(nz, nz)
        if _closure(domain, gens | 1) != m:
            raise InvariantViolation(f"generators {domain.points_of(gens)} do not span the shape {self.elems}")
        return gens

    def __contains__(self, pt) -> bool:
        return pt in self.elems

    def __iter__(self):
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def generator_count(self) -> int:
        return self._generators.bit_count()


def minimal_generators(shape: Shape) -> tuple[Point, ...]:
    """The unique minimal generating set: nonzero elements that are not a
    sum of two nonzero elements.  InvariantViolation when they do not
    generate the shape, which happens only if it is not closed.

    A sum of members that equals a member is automatically defined in the
    domain, so decomposability does not depend on the ambient domain.
    """
    return shape.domain.points_of(shape._generators)


def generate(domain: ExpDomain, gens: Iterable[Point]) -> set:
    """Closure of gens (plus zero) under iterated defined sums."""
    return set(domain.points_of(_closure(domain, domain.mask_of(gens) | 1)))


def is_realizable_zshape(shape: Shape) -> bool:
    """Whether a grid shape occurs as the valuation set of a unital subring:
    it must contain the whole zero column (0, 0), ..., (0, N-1)."""
    if not isinstance(shape.domain, GridDomain):
        raise TypeError("realizability test applies to grid shapes")
    return not shape.domain.zero_column_mask & ~shape.mask


def chain_bound(shape: Shape) -> int:
    """Census bound exponent of a shape: each of its generators outside
    the zero column counts the gaps above it, the domain's points missing
    from the shape and the zero column.

    This is the quotient chain's count in closed form.  The chain drops the
    domain's points outside the zero column, largest first (quotient_ctx
    removes the largest point, and the base ring's domain is the zero
    column): a step at a point of the shape strips it, a step at a gap adds
    the generators outside the zero column of what is left.  Stripping the
    largest point t keeps every other generator one: points are ordered
    lexicographically and added componentwise, so a + b > a for nonzero b,
    and t, above every point left, is never a summand.  So a step at a gap
    t adds exactly the shape's generators below t, and summing over
    generators instead of steps gives the count: the popcount of the gaps
    above each generator, as positions order as the points do.

    Every shape the census bounds contains the zero column, where (0, 1)
    is the only generator, as (0, j) = (0, 1) + (0, j-1): p's generator,
    which no step accounts for.  On an interval the zero column is 0.
    """
    domain = shape.domain
    col = domain.zero_column_mask
    gaps = domain.mask & ~shape.mask & ~col
    gens = shape._generators & ~col
    count = 0
    while gens:
        low = gens & -gens
        # -(low << 1) masks every position above low's
        count += (gaps & -(low << 1)).bit_count()
        gens ^= low
    return count


def e_bound(n: int, s) -> int:
    """Census bound exponent for interval shapes (see chain_bound): each
    nonzero generator counts the exponents above it missing from the
    shape."""
    return chain_bound(Shape.of(IntervalDomain(n), s))


def eps_bound(n: int, N: int, k: int, s) -> int:
    """Census bound exponent for grid shapes over Z[x]/(p^N, x^n, p^k x^{n-1})
    (see chain_bound): each generator outside the zero column counts the
    points above it, lexicographically, missing from the shape.

    Needs N >= 2 and the whole zero column in the shape: leaving the
    column out discounts the ever-present generator (0, 1), the valuation
    of p.  With N = 1 that point does not exist (and the ring is a plain
    field quotient, covered by e_bound).
    """
    if N < 2:
        raise ValueError("the grid bound needs N >= 2; an N = 1 ring is a field quotient, use e_bound")
    shape = Shape.of(GridDomain(n, N, k), s)
    if not is_realizable_zshape(shape):
        raise ValueError(f"{shape.elems} misses part of the zero column")
    return chain_bound(shape)


def enumerate_shapes(domain: ExpDomain, realizable_only: bool = False) -> list[Shape]:
    """All shapes of the domain, sorted by element tuple.

    Walks the points in ascending order; a point forced by an already
    decided sum is included unconditionally, every other point branches,
    so each shape appears exactly once.  With realizable_only, shapes are
    restricted to those containing the zero column (on an interval that is
    just 0, so the flag is a no-op there).
    """
    bits = domain.bits[1:]
    if len(bits) + 1 > _MAX_ENUM_POINTS:
        raise TooLarge(f"{len(bits) + 1} points exceeds the enumeration limit {_MAX_ENUM_POINTS}")
    required = domain.zero_column_mask if realizable_only else 0
    out = []

    def rec(i: int, nz: int, sums: int):
        # nz: the mask of the nonzero points chosen so far, sums: their
        # pairwise sums
        if i == len(bits):
            out.append(Shape(domain, nz | 1))
            return
        b = bits[i]
        if not (required | sums) >> b & 1:
            rec(i + 1, nz, sums)
        nz |= 1 << b
        rec(i + 1, nz, sums | nz << b)

    rec(0, 0, 0)
    return sorted(out, key=lambda s: s.elems)
