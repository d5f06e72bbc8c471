"""Acceptance runs: the headline counting results at desk scale.

Each test covers one numbered criterion and records a single
``ACCEPTANCE <n> <label>: PASS/FAIL`` line, printed in the terminal
summary so it survives output capture in piped logs."""

import time

import acceptance_log
import pytest

from truncring import (
    FieldCtx,
    FieldPolyCtx,
    census,
    cotangent_dim,
    counterexample_family,
    enumerate_shapes,
    enumerate_subrings,
    field_ring,
    ideal_data,
    in_row_span,
    is_realizable_zshape,
    lift_isomorphic,
    minimal_generators,
    project_subring,
    restricted_extension,
    run_suite,
    zpn_ring,
)

FIELD_PARAMS = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (4, 3)]
Z_PARAMS = [
    (p, N, n, k)
    for p, N, n in [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]
    for k in range(1, N + 1)
]
STEPS = [((2, 3), (2, 4)), ((2, 4), (2, 5)), ((2, 5), (2, 6)), ((3, 3), (3, 4)), ((3, 4), (3, 5))]


def _report(num: int, label: str, violations) -> None:
    ok = not violations
    acceptance_log.record(num, label, ok)
    assert ok, f"criterion {num} ({label}): " + "; ".join(str(v) for v in violations[:5])


def _grouped(ctx):
    """The census grouped from the enumeration, so each row keeps its subrings."""
    return census(ctx, enumerate_subrings(ctx))


@pytest.fixture(scope="module")
def field_censuses():
    return {(q, n): _grouped(field_ring(q, n)) for q, n in FIELD_PARAMS}


@pytest.fixture(scope="module")
def z_censuses():
    return {key: _grouped(zpn_ring(*key)) for key in Z_PARAMS}


@pytest.fixture(scope="module")
def oracle_subrings():
    cache = {}

    def get(ctx):
        if ctx not in cache:
            cache[ctx] = enumerate_subrings(ctx, "closure_bfs")
        return cache[ctx]

    return get


def _isomorphic_preimages(B, src_subs):
    """Oracle count: subrings upstairs that project bijectively onto B."""
    return [
        A for A in src_subs if A.size == B.size and project_subring(A, B.ctx) == B
    ]


def test_criterion_1_enumerator_equivalence():
    bad = []
    t0 = time.perf_counter()
    for q, n in FIELD_PARAMS:
        ctx = field_ring(q, n)
        ref = enumerate_subrings(ctx, "minimal_ext")
        if enumerate_subrings(ctx, "closure_bfs") != ref:
            bad.append(f"F{q}[x]/x^{n}: closure_bfs differs")
        if enumerate_subrings(ctx, "subspace_scan") != ref:
            bad.append(f"F{q}[x]/x^{n}: subspace_scan differs")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        bad.append(f"took {elapsed:.1f}s, limit 60s")
    _report(1, "enumerator-equivalence", bad)


def test_criterion_2_field_census_bounds(field_censuses):
    bad = []
    for (q, n), rows in field_censuses.items():
        for row in rows:
            if row.count > row.bound:
                bad.append(f"F{q}[x]/x^{n} shape {row.shape.elems}: {row.count} > {row.bound}")
    _report(2, "field-census-bounds", bad)


def test_criterion_3_lift_count_exact(field_censuses, oracle_subrings):
    bad = []
    for (q, n), rows in field_censuses.items():
        for row in rows:
            for B in row.subrings:
                ext = restricted_extension(B)
                if ext.kernel_in_small:
                    continue
                found = _isomorphic_preimages(B, oracle_subrings(ext.src.ctx))
                want = q ** cotangent_dim(B)
                if len(found) != want:
                    bad.append(f"{B!r}: oracle found {len(found)}, expected {want}")
    _report(3, "lift-count-exact", bad)


def test_criterion_4_lift_nonexistence(field_censuses, oracle_subrings):
    bad = []
    checked = 0
    for (q, n), rows in field_censuses.items():
        for row in rows:
            for B in row.subrings:
                ext = restricted_extension(B)
                if not ext.kernel_in_small:
                    continue
                checked += 1
                found = _isomorphic_preimages(B, oracle_subrings(ext.src.ctx))
                if found:
                    bad.append(f"{B!r}: kernel absorbed but {len(found)} lifts found")
    if not checked:
        bad.append("no absorbed-kernel cases exercised")
    _report(4, "lift-nonexistence", bad)


def test_criterion_5_generator_gap_family():
    bad = []
    t0 = time.perf_counter()
    for a in (6, 7, 8):
        for p in (2, 3):
            rep = counterexample_family(a, FieldCtx(p))
            ctx = rep.ctx
            if rep.d_ring != 3 or rep.d_shape != 4:
                bad.append(f"a={a}, p={p}: d_ring={rep.d_ring}, d_shape={rep.d_shape}")
            if rep.generators != (a, a + 1, a + 2, 2 * a + 5):
                bad.append(f"a={a}, p={p}: generators {rep.generators}")
            g1, g2, g3 = rep.gens
            if ctx.sub(ctx.mul(g1, g3), ctx.mul(g2, g2)) != ctx.monomial(2 * a + 5):
                bad.append(f"a={a}, p={p}: witness identity failed")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5:
        bad.append(f"took {elapsed:.1f}s, limit 5s")
    _report(5, "generator-gap-family", bad)


def test_criterion_6_z_family_censuses(z_censuses):
    bad = []
    t0 = time.perf_counter()
    for key, rows in z_censuses.items():
        ctx = zpn_ring(*key)
        ref = enumerate_subrings(ctx, "minimal_ext")
        if enumerate_subrings(ctx, "closure_bfs") != ref:
            bad.append(f"{ctx!r}: enumerators disagree")
        for row in rows:
            if row.count > row.bound:
                bad.append(f"{ctx!r} shape {row.shape.elems}: {row.count} > {row.bound}")
        realized = {row.shape.elems for row in rows}
        admissible = {
            s.elems for s in enumerate_shapes(ctx.domain) if is_realizable_zshape(s)
        }
        if realized != admissible:
            bad.append(f"{ctx!r}: realized {sorted(realized ^ admissible)} mismatch")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        bad.append(f"took {elapsed:.1f}s, limit 120s")
    _report(6, "z-family-censuses", bad)


def test_criterion_7_valuation_axioms():
    bad = []
    for ctx in (field_ring(2, 5), field_ring(3, 4), zpn_ring(2, 2, 3, 2)):
        for res in run_suite(ctx, "valuation"):
            if not res.ok:
                bad.append(f"{ctx!r} {res.name}: {res.violations[0]}")
    _report(7, "valuation-axioms", bad)


def test_criterion_8_structural_laws(field_censuses, z_censuses):
    bad = []
    all_censuses = [(field_ring(q, n), rows) for (q, n), rows in field_censuses.items()]
    all_censuses += [(zpn_ring(*key), rows) for key, rows in z_censuses.items()]
    for ctx, rows in all_censuses:
        is_field = isinstance(ctx, FieldPolyCtx)
        if is_field:
            top, tail = ctx.n - 1, ctx.monomial(ctx.n - 1)
        else:
            top = (ctx.n - 1, ctx.k - 1)
            tail = ctx.monomial(ctx.n - 1, ctx.coeff.p ** (ctx.k - 1))
        for row in rows:
            for S in row.subrings:
                sh = row.shape
                if S.log_size != len(sh.elems):
                    bad.append(f"{S!r}: size law broken")
                d = cotangent_dim(S)
                limit = row.d_shape if is_field else row.d_shape - 1
                if d > limit:
                    bad.append(f"{S!r}: cotangent {d} > {limit}")
                ext = restricted_extension(S)
                fam = lift_isomorphic(ext)
                grows = cotangent_dim(ext.src) == d + 1
                if (not ext.kernel_in_small) != grows:
                    bad.append(f"{S!r}: lifting equivalence broken")
                if top in sh.elems and top not in minimal_generators(sh):
                    if not in_row_span(ctx, ideal_data(S).square, tail):
                        bad.append(f"{S!r}: non-generator tail escapes the ideal square")
                small = ideal_data(ext.src).small
                for A in fam.lifts:
                    if not all(A.contains(r) for r in small):
                        bad.append(f"{S!r}: a lift misses the obstruction module")
    _report(8, "structural-laws", bad)


def test_criterion_9_step_count_table(field_censuses):
    bad = []
    exercised = 0
    for (q, n), (q2, n2) in STEPS:
        assert q2 == q and n2 == n + 1
        upper = {row.shape.elems: row.count for row in field_censuses[(q, n + 1)]}
        for row in field_censuses[(q, n)]:
            hyp = all(
                cotangent_dim(restricted_extension(B).src) == cotangent_dim(B) + 1
                for B in row.subrings
            )
            if not hyp:
                continue
            exercised += 1
            want = row.count * q**row.d_shape
            got = upper.get(row.shape.elems, 0)
            if got != want:
                bad.append(
                    f"F{q}: shape {row.shape.elems} at n={n + 1}: {got} != {q}^{row.d_shape}*{row.count}"
                )
    if not exercised:
        bad.append("no census step satisfied the growth hypothesis")
    _report(9, "step-count-table", bad)
