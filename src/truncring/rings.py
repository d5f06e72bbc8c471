"""Truncated polynomial rings over a finite field or over Z/p^N.

Two families are supported:

* ``F_q[x]/x^n`` -- coefficient vectors of length n over F_q;
* ``Z[x]/(p^N, x^n, p^k x^{n-1})`` -- length-n vectors over Z/p^N whose
  top coefficient is additionally reduced mod p^k (1 <= k <= N; k = N
  gives the plain quotient Z[x]/(p^N, x^n), and k = 0 is identified with
  the ring one degree shorter).

Elements are plain tuples of ints, index i holding the coefficient of
x^i, so they hash and compare by value.  A context object carries the
parameters and the facts the two families share (residue field size
``base``, column caps ``caps_log`` and moduli ``caps``, the image
``p_image`` of p, the exponent ``domain``), and implements arithmetic,
the valuation ``nu``, unit tests, and the polynomial string syntax::

    poly  := term ('+' term)* | '0'
    term  := coeff | coeff '*'? 'x' ('^' uint)? | 'x' ('^' uint)?
    coeff := uint | '[' uint (',' uint)* ']'

Plain integer coefficients are reduced into the prime coefficient ring;
bracketed vectors give coordinates in the basis 1, t, ..., t^{e-1} of an
extension field and are rejected elsewhere.  Exponents at or above n are
a parse error, not a silent truncation.
"""

from __future__ import annotations

import itertools
import re
import weakref

from .coefficients import FieldCtx, ZpNCtx, factor_prime_power
from .errors import CtxMismatch, NotAQuotient, PolyParseError, UndefinedValuation
from .shapes import GridDomain, IntervalDomain

Element = tuple[int, ...]

_TERM_RE = re.compile(r"^(?:\[(\d+(?:,\d+)*)\]|(\d+))?(?:\*?x(?:\^(\d+))?)?$")


class _TruncPolyCtx:
    """What the two families share.  Each __init__ validates its parameters
    and sets the ring's facts once, through _set_facts, as plain data;
    library code and the string syntax read them instead of the class:

    * ``base``     -- the residue field size, q over F_q and p over Z/p^N;
    * ``caps_log`` -- per column, the exponent of its cap in powers of
      ``base``: the coefficient of x^i lives in a group of size
      ``base ** caps_log[i]``;
    * ``caps``     -- the column moduli ``base ** caps_log[i]``;
    * ``p_image``  -- the image of the integer p in the coefficient ring;
      it is 0 exactly when the coefficient ring is a field;
    * ``domain``   -- the exponent domain holding the values of ``nu``.

    ``_down`` and ``_up`` hold the neighbouring rings of the quotient chain
    once quotient_ctx or extension_ctx has built them, so every subring of
    one level shares one context.  ``_down`` is a strong link and ``_up`` a
    weak reference, so a chain is held from its top, and reference counting
    frees a level once nothing above it or outside it holds it (nothing a
    context holds refers back to it); ``_row_kernel`` holds the row format
    of the ring's subrings and every job that depends on it
    (subrings._RowKernel: packing, pivots, preimage and image rows, the row
    p of m, m^2, the lift bases and how a closure runs), once built.
    """

    __slots__ = (
        "coeff", "n", "base", "caps_log", "caps", "p_image", "domain", "_down", "_up", "_row_kernel", "__weakref__",
    )

    def _set_facts(self, coeff, n: int, base: int, caps_log: tuple, p_image: int, domain):
        self.coeff = coeff
        self.n = n
        self.base = base
        self.caps_log = caps_log
        self.caps = tuple(base**c for c in caps_log)
        self.p_image = p_image
        self.domain = domain
        self._down = self._up = self._row_kernel = None

    # -- constructors ------------------------------------------------------

    def zero(self) -> Element:
        return (0,) * self.n

    def one(self) -> Element:
        return self.monomial(0)

    def monomial(self, i: int, c: int = 1) -> Element:
        if not 0 <= i < self.n:
            raise ValueError(f"exponent {i} out of range")
        return self._reduce([c if j == i else 0 for j in range(self.n)])

    def _check(self, *elements: Element):
        """The entry rule: CtxMismatch on an element of another length or,
        where p_image = 0 (the table kernels index by entry), on an entry
        outside [0, base), naming its column.  The ops test lengths inline."""
        n, q, field = self.n, self.base, not self.p_image
        for a in elements:
            if len(a) != n:
                raise CtxMismatch(f"element of length {len(a)} in ring of order {n}")
            if field and (min(a) < 0 or max(a) >= q):
                j = next(j for j, c in enumerate(a) if not 0 <= c < q)
                raise CtxMismatch(f"coefficient {a[j]} in column {j} outside [0, {q})")

    def is_unit(self, a: Element) -> bool:
        self._check(a)
        return a[0] % self.base != 0

    def _reduce(self, coeffs: list[int]) -> Element:
        return tuple(v % c for v, c in zip(coeffs, self.caps))

    # -- enumeration ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.base ** sum(self.caps_log)

    def elements(self):
        return itertools.product(*(range(self.base**c) for c in self.caps_log))

    # -- string syntax -------------------------------------------------------

    def parse(self, text: str) -> Element:
        s = "".join(str(text).split())
        if not s:
            raise PolyParseError("empty polynomial")
        coeff = self.coeff
        coeffs = [0] * self.n
        for term in s.split("+"):
            m = _TERM_RE.match(term)
            if not m or not term:
                raise PolyParseError(f"bad term {term!r}")
            bracket, plain, exp_s = m.groups()
            has_x = "x" in term
            if bracket is None and plain is None and not has_x:
                raise PolyParseError(f"bad term {term!r}")
            if bracket is not None:
                if self.base == coeff.p:
                    raise PolyParseError("bracketed coefficients require an extension field")
                vs = [int(v) for v in bracket.split(",")]
                if len(vs) > coeff.e:
                    raise PolyParseError(f"coefficient vector longer than degree {coeff.e}")
                c = coeff.from_coeffs(vs)
            elif plain is not None:
                c = int(plain) % coeff.p ** self.caps_log[0]
            else:
                c = 1
            if has_x:
                exp = int(exp_s) if exp_s is not None else 1
            else:
                exp = 0
            if exp >= self.n:
                raise PolyParseError(f"exponent {exp} out of range for x^{self.n} = 0")
            coeffs[exp] = coeff.add(coeffs[exp], c)
        return self._reduce(coeffs)

    def format(self, a: Element) -> str:
        self._check(a)
        coeff = self.coeff
        terms = []
        for i, c in enumerate(self._reduce(a)):
            if not c:
                continue
            if self.base != coeff.p and c >= coeff.p:
                cs = "[" + ",".join(str(v) for v in coeff.coeffs(c)) + "]"
            else:
                cs = str(c)
            if i == 0:
                terms.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else cs + xs)
        return "+".join(terms) if terms else "0"

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, _TruncPolyCtx)
            and self.coeff == other.coeff
            and self.caps_log == other.caps_log
        )

    def __hash__(self):
        return hash((self.coeff, self.caps_log))


class FieldPolyCtx(_TruncPolyCtx):
    """The ring F_q[x]/x^n."""

    __slots__ = ()

    def __init__(self, coeff: FieldCtx, n: int):
        if n < 1:
            raise ValueError(f"truncation order must be >= 1, got {n}")
        self._set_facts(coeff, n, coeff.q, (1,) * n, 0, IntervalDomain(n))

    def _sibling(self, n: int, k: int) -> "FieldPolyCtx":
        return FieldPolyCtx(self.coeff, n)

    # -- arithmetic ----------------------------------------------------------
    #
    # Each op binds the coefficient lookups (FieldCtx.tables) as locals and
    # makes one subscript per coefficient operation, scanning for no
    # unreduced entry, so the ops take entries in [0, q): one past a table
    # fails its lookup and is reported through _check, a negative one
    # indexes from the table's end, which is its residue only when q = p,
    # and past q = 256 the computed entries do not check.  Every entry
    # point refuses such an entry through _check, whose rule covers Z/p
    # too: its rows take the table kernels.

    def add(self, a: Element, b: Element) -> Element:
        n = self.n
        if len(a) != n or len(b) != n:
            self._check(a, b)
        add = self.coeff.tables[0]
        try:
            return tuple([add[x][y] for x, y in zip(a, b)])
        except IndexError:
            self._check(a, b)
            raise

    def sub(self, a: Element, b: Element) -> Element:
        n = self.n
        if len(a) != n or len(b) != n:
            self._check(a, b)
        add, neg = self.coeff.tables[:2]
        try:
            return tuple([add[x][neg[y]] for x, y in zip(a, b)])
        except IndexError:
            self._check(a, b)
            raise

    def mul(self, a: Element, b: Element) -> Element:
        n = self.n
        if len(a) != n or len(b) != n:
            self._check(a, b)
        add, _, mul, _ = self.coeff.tables
        out = [0] * n
        try:
            for i, x in enumerate(a):
                if x:
                    row = mul[x]
                    k = i
                    for y in b[: n - i]:
                        if y:
                            out[k] = add[out[k]][row[y]]
                        k += 1
        except IndexError:
            self._check(a, b)
            raise
        return tuple(out)

    def scalar_mul(self, c: int, a: Element) -> Element:
        if len(a) != self.n:
            self._check(a)
        try:
            return tuple(map(self.coeff.tables[2][c].__getitem__, a))
        except IndexError:
            self._check(a)
            raise CtxMismatch(f"scalar {c} outside [0, {self.base})") from None

    def nu(self, a: Element) -> int:
        """Index of the lowest nonzero coefficient, found at C level; only
        that entry is read, and one outside [0, q) raises through _check."""
        if len(a) != self.n:
            self._check(a)
        c = next(filter(None, a), 0)
        if not c:
            raise UndefinedValuation("nu(0) is undefined")
        if not 0 < c < self.base:
            self._check(a)
        return a.index(c)

    def __repr__(self):
        return f"F{self.coeff.q}[x]/x^{self.n}"


class ZpNPolyCtx(_TruncPolyCtx):
    """The ring Z[x]/(p^N, x^n, p^k x^{n-1})."""

    __slots__ = ("k",)

    def __init__(self, coeff: ZpNCtx, n: int, k: int):
        if n < 1:
            raise ValueError(f"truncation order must be >= 1, got {n}")
        if not 1 <= k <= coeff.N:
            raise ValueError(f"tail exponent k={k} must lie in [1, {coeff.N}]")
        if n == 1 and k != coeff.N:
            raise ValueError("for n = 1 the tail coefficient is the constant term, so k must equal N")
        p = coeff.p
        self.k = k
        self._set_facts(coeff, n, p, (coeff.N,) * (n - 1) + (k,), p % coeff.size, GridDomain(n, coeff.N, k))

    def _sibling(self, n: int, k: int) -> "ZpNPolyCtx":
        return ZpNPolyCtx(self.coeff, n, k)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        n = self.n
        if len(a) != n or len(b) != n:
            self._check(a, b)
        return tuple([(x + y) % c for x, y, c in zip(a, b, self.caps)])

    def sub(self, a: Element, b: Element) -> Element:
        n = self.n
        if len(a) != n or len(b) != n:
            self._check(a, b)
        return tuple([(x - y) % c for x, y, c in zip(a, b, self.caps)])

    def mul(self, a: Element, b: Element) -> Element:
        n = self.n
        if len(a) != n or len(b) != n:
            self._check(a, b)
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                k = i
                for y in b[: n - i]:
                    if y:
                        out[k] += x * y
                    k += 1
        return tuple([v % c for v, c in zip(out, self.caps)])

    def scalar_mul(self, c: int, a: Element) -> Element:
        if len(a) != self.n:
            self._check(a)
        return tuple([(c * x) % cap for x, cap in zip(a, self.caps)])

    def nu(self, a: Element) -> tuple[int, int]:
        """Pair (i, m): i the lowest degree with nonzero coefficient, m its
        nu1; an unreduced lead raises over Z/p, and for N > 1 reduces."""
        if len(a) != self.n:
            self._check(a)
        c = next(filter(None, a), 0)
        if not c:
            raise UndefinedValuation("nu(0) is undefined")
        i = a.index(c)
        if 0 < c < self.caps[i]:
            return (i, self.coeff.nu1(c))
        self._check(a)
        return self.nu(self._reduce(a))

    def __repr__(self):
        p, N = self.coeff.p, self.coeff.N
        if self.n == 1:
            return f"Z[x]/({p}^{N}, x)"
        if self.k == N:
            return f"Z[x]/({p}^{N}, x^{self.n})"
        return f"Z[x]/({p}^{N}, x^{self.n}, {p}^{self.k} x^{self.n - 1})"


RingCtx = FieldPolyCtx | ZpNPolyCtx


def field_ring(q: int, n: int, modulus=None) -> FieldPolyCtx:
    """F_q[x]/x^n.  For prime powers q = p^e with e > 1 a modulus may be
    given as a coefficient tuple of length e+1; otherwise the built-in
    default is used."""
    p, e = factor_prime_power(q)
    return FieldPolyCtx(FieldCtx(p, e, modulus), n)


def zpn_ring(p: int, N: int, n: int, k: int | None = None) -> ZpNPolyCtx:
    """Z[x]/(p^N, x^n, p^k x^{n-1}).  k defaults to N; k = 0 (a dead top
    coefficient) is normalized to the ring of truncation order n-1."""
    if k is None:
        k = N
    if k == 0:
        if n < 2:
            raise ValueError("k = 0 requires n >= 2")
        return ZpNPolyCtx(ZpNCtx(p, N), n - 1, N)
    return ZpNPolyCtx(ZpNCtx(p, N), n, k)


# -- the quotient chain ----------------------------------------------------
#
# Within its family a ring is fixed by its truncation order n and its tail
# exponent k = caps_log[-1]; the full cap exponent is caps_log[0].  One
# quotient step lowers k by one, or at k = 1 drops the top column, leaving a
# new top column with the full cap.  Over a field every cap exponent is 1,
# so each step drops a column.


def quotient_ctx(ctx: RingCtx):
    """The target of the next one-step quotient, or None at the base ring.
    Built once per context; its extension_ctx is ctx itself."""
    if ctx.n == 1:
        return None
    if ctx._down is None:
        k = ctx.caps_log[-1]
        if k > 1:
            below = ctx._sibling(ctx.n, k - 1)
        else:
            below = ctx._sibling(ctx.n - 1, ctx.caps_log[0])
        ctx._down, below._up = below, weakref.ref(ctx)
    return ctx._down


def extension_ctx(ctx: RingCtx) -> RingCtx:
    """The source of the one-step quotient onto ctx (inverse of quotient_ctx).
    Built once per context while something holds it (ctx links to it
    weakly); its quotient_ctx is ctx itself."""
    above = ctx._up and ctx._up()
    if above is None:
        k = ctx.caps_log[-1]
        if k < ctx.caps_log[0]:
            above = ctx._sibling(ctx.n, k + 1)
        else:
            above = ctx._sibling(ctx.n + 1, 1)
        ctx._up, above._down = weakref.ref(above), ctx
    return above


def kernel_generator(src: RingCtx) -> Element:
    """Generator of the kernel of the one-step quotient out of src: the top
    monomial times p^(k-1)."""
    if src.n == 1:
        raise NotAQuotient("the base ring has no quotient step")
    return src.monomial(src.n - 1, src.coeff.p ** (src.caps_log[-1] - 1))


def project(src: RingCtx, dst: RingCtx, a: Element) -> Element:
    """Apply the one-step quotient map src -> dst to a."""
    if quotient_ctx(src) != dst:
        raise NotAQuotient(f"{dst!r} is not the one-step quotient of {src!r}")
    src._check(a)
    return dst._reduce(a[: dst.n])
