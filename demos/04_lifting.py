"""Minimal one-step extensions and the lifting dichotomy: a subring either
has no isomorphic preimage at all, or exactly base^d of them where d is its
cotangent dimension.

Run:  python3 demos/04_lifting.py
"""

from truncring import (
    Subring,
    closure,
    cotangent_dim,
    field_ring,
    ideal_data,
    lift_isomorphic,
    restricted_extension,
    zpn_ring,
)


def banner(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def show(B: Subring) -> None:
    ctx = B.ctx
    ext = restricted_extension(B)
    fam = lift_isomorphic(ext)
    print(f"\nB = {B!r}")
    print(f"  one-step extension ring: {ext.src.ctx!r}")
    print(f"  kernel generator: {ext.src.ctx.format(ext.kernel_gen)}")
    print(f"  kernel absorbed into the obstruction module? {ext.kernel_in_small}")
    print(f"  cotangent dimension d(B) = {cotangent_dim(B)}")
    if fam.exists:
        print(f"  lifts: {len(fam.lifts)} = base^{fam.dim}")
        for A in fam.lifts:
            basis = ", ".join(A.ctx.format(r) for r in A.basis)
            print(f"    span({basis})")
    else:
        print("  lifts: none")


# -------------------------------------------------------------- the clean case

banner("a subring that lifts: span(1, x^3) inside F2[x]/x^4")

ctx = field_ring(2, 4)
show(closure(ctx, [ctx.one(), ctx.monomial(3)]))
print("\nthe kernel x^4 avoids m^2, so copies exist upstairs; d(B) = 1 gives")
print("two of them, differing by the kernel direction.")

# ---------------------------------------------------------- the obstructed case

banner("an obstructed subring: span(1, x^2) inside F2[x]/x^4")

B = closure(ctx, [ctx.one(), ctx.monomial(2)])
show(B)
ext = restricted_extension(B)
sq = ideal_data(ext.src).square
print("\nupstairs, x^4 = (x^2)^2 already sits in m^2:")
print("  m^2 basis:", [ext.src.ctx.format(r) for r in sq])
print("so any subring covering B must contain the kernel and cannot be")
print("isomorphic to B.  No shape-(0, 2) subring of F2[x]/x^5 has size 4.")

# ------------------------------------------------------------- mixed characteristic

banner("the same dichotomy in mixed characteristic")

Z = zpn_ring(2, 2, 2, 1)
show(Subring.prime_ring(Z))
print("\nhere d(B) = 0: the prime ring lifts uniquely.")
