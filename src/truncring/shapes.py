"""Valuation shapes: sub-partial-monoids of truncated exponent domains.

A domain is either the interval [0, n-1] under truncated addition, or the
grid [0, n-1] x [0, N-1] under componentwise truncated addition with an
optional cap on the top row: points (n-1, j) with j >= tail are removed,
and sums landing there are undefined.  The grid with tail = k is exactly
the set of valuations occurring in Z[x]/(p^N, x^n, p^k x^{n-1}).

A shape is a subset containing zero and closed under defined sums.

Every shape question reads one set, the pairwise sums of the shape's
nonzero points (_sums): closure asks that its defined members lie in the
shape, the minimal generators are the nonzero points outside it, the
census bound counts gaps above those generators, and enumeration forces
a point exactly when it is a sum of two points already chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from .errors import InvariantViolation, TooLarge

Point = Union[int, tuple[int, int]]

# Shape enumeration is exponential in the domain size; this keeps it honest.
_MAX_ENUM_POINTS = 24


@dataclass(frozen=True)
class IntervalDomain:
    """Exponents [0, n-1]; a + b is defined when it stays below n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"domain needs n >= 1, got {self.n}")

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

    def add(self, a: int, b: int):
        s = a + b
        return s if s < self.n else None


@dataclass(frozen=True)
class GridDomain:
    """Pairs [0, n-1] x [0, N-1] ordered and added lexicographically.

    With tail < N the points (n-1, j), j >= tail are excluded and sums are
    defined only when they land on a remaining point.
    """

    n: int
    N: int
    tail: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ValueError("domain needs n >= 1 and N >= 1")
        if self.tail is None:
            object.__setattr__(self, "tail", self.N)
        if not 1 <= self.tail <= self.N:
            raise ValueError(f"tail must lie in [1, {self.N}]")
        if self.n == 1 and self.tail != self.N:
            raise ValueError("for n = 1 the tail cap would empty the zero column")

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

    def add(self, a, b):
        s = (a[0] + b[0], a[1] + b[1])
        return s if self.contains(s) else None


ExpDomain = Union[IntervalDomain, GridDomain]


def is_shape(domain: ExpDomain, elems: Iterable[Point]) -> bool:
    """True when elems contains zero, lies in the domain, and is closed
    under every defined sum of its members."""
    s = set(elems)
    if domain.zero not in s:
        return False
    if not all(domain.contains(pt) for pt in s):
        return False
    return all(t in s for t in _sums(s - {domain.zero}) if domain.contains(t))


@dataclass(frozen=True)
class Shape:
    """A validated sub-partial-monoid, elements sorted ascending."""

    domain: ExpDomain
    elems: tuple[Point, ...]

    @staticmethod
    def of(domain: ExpDomain, elems: Iterable[Point]) -> "Shape":
        pts = tuple(sorted(set(elems)))
        if not is_shape(domain, pts):
            raise ValueError(f"{pts} is not a shape of {domain}")
        return Shape(domain, pts)

    def __contains__(self, pt) -> bool:
        return pt in self.elems

    def __iter__(self):
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def minimal_generators(self) -> tuple[Point, ...]:
        return minimal_generators(self)

    def generator_count(self) -> int:
        return len(minimal_generators(self))


def _sums(pts, others=None) -> set:
    """Every raw sum a + b with a in pts and b in others (default pts),
    whether or not the domain defines it."""
    others = pts if others is None else others
    if all(isinstance(a, int) for a in pts):
        return {a + b for a in pts for b in others}
    return {(a[0] + b[0], a[1] + b[1]) for a in pts for b in others}


def minimal_generators(shape: Shape) -> tuple[Point, ...]:
    """The unique minimal generating set: nonzero elements that are not a
    sum of two nonzero elements.

    A sum of members that equals a member is automatically defined in the
    domain, so decomposability does not depend on the ambient domain.
    """
    nz = set(shape.elems) - {shape.domain.zero}
    gens = tuple(sorted(nz - _sums(nz)))
    if generate(shape.domain, gens) != set(shape.elems):
        raise InvariantViolation(f"generators {gens} do not span the shape {shape.elems}")
    return gens


def generate(domain: ExpDomain, gens: Iterable[Point]) -> set:
    """Closure of gens (plus zero) under iterated defined sums."""
    out = new = {domain.zero} | set(gens)
    # each pair of points is summed in the round after the later one appears
    while new:
        new = {t for t in _sums(new, out) if domain.contains(t)} - out
        out |= new
    return out


def is_realizable_zshape(shape: Shape) -> bool:
    """Whether a grid shape occurs as the valuation set of a unital subring:
    it must contain the whole zero column (0, 0), ..., (0, N-1)."""
    if not isinstance(shape.domain, GridDomain):
        raise TypeError("realizability test applies to grid shapes")
    return set(shape.domain.zero_column) <= set(shape.elems)


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
    generators instead of steps gives the count.

    Every shape the census bounds contains the zero column, where (0, 1)
    is the only generator, as (0, j) = (0, 1) + (0, j-1): p's generator,
    which no step accounts for.  On an interval the zero column is 0.
    """
    domain = shape.domain
    col = set(domain.zero_column)
    gaps = [t for t in domain.points if t not in col and t not in shape]
    # a generator above every gap counts none, and whether g is one
    # depends only on the points below g
    top = max(gaps, default=domain.zero)
    low = {pt for pt in shape.elems if domain.zero < pt < top}
    gens = low - _sums(low) - col
    return sum(t > g for g in gens for t in gaps)


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
    pts = [pt for pt in domain.points if pt != domain.zero]
    if len(pts) + 1 > _MAX_ENUM_POINTS:
        raise TooLarge(f"{len(pts) + 1} points exceeds the enumeration limit {_MAX_ENUM_POINTS}")
    required = set(domain.zero_column) if realizable_only else set()
    out = []

    def rec(i: int, nz: set, sums: set):
        # nz: the nonzero points chosen so far, sums: their pairwise sums
        if i == len(pts):
            out.append(Shape(domain, tuple(sorted(nz | {domain.zero}))))
            return
        h = pts[i]
        if h not in required and h not in sums:
            rec(i + 1, nz, sums)
        with_h = nz | {h}
        rec(i + 1, with_h, sums | _sums((h,), with_h))

    rec(0, set(), set())
    return sorted(out, key=lambda s: s.elems)
