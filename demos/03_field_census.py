"""Counting all unital subrings of F_q[x]/x^n, shape by shape.

Run:  python3 demos/03_field_census.py
"""

from truncring import census, enumerate_subrings, exponent_set, field_ring


def banner(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


# ------------------------------------------------------------- one ring in full

banner("every subring of F2[x]/x^5")

ctx = field_ring(2, 5)
subs = enumerate_subrings(ctx)
print(f"{len(subs)} subrings; canonical bases and exponent shapes:")
for S in subs:
    sh = exponent_set(S)
    basis = ", ".join(ctx.format(r) for r in S.basis)
    print(f"  span({basis}){' ' * max(1, 30 - len(basis))} shape {sh.elems}")

# ------------------------------------------------------- the census, with bounds

banner("census rows: count vs the q^e(E) ceiling")

for q, n in [(2, 5), (2, 6), (3, 4), (4, 3)]:
    ctx = field_ring(q, n)
    rows = census(ctx)
    total = sum(r.count for r in rows)
    print(f"\n{ctx!r}: {total} subrings across {len(rows)} shapes")
    print(f"  {'shape':28} {'count':>5} {'bound':>5}  tight?")
    for r in rows:
        print(f"  {str(r.shape.elems):28} {r.count:>5} {r.bound:>5}  {r.equality}")

# ------------------------------------------------- three enumerators, one answer

banner("independent enumeration strategies agree")

ctx = field_ring(3, 5)
ref = enumerate_subrings(ctx, "minimal_ext")
print(f"  {'minimal_ext':14} -> {len(ref)} subrings")
for method in ("closure_bfs", "subspace_scan"):
    subs = enumerate_subrings(ctx, method)
    print(f"  {method:14} -> {len(subs)} subrings, the same list: {subs == ref}")
