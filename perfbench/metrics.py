"""The benchmark's metrics: names, units, which direction is better, and
how the per-layer values are read off a ``Tracer``.

``BENCHMARK.json`` lists the same metrics; ``selftest.py`` checks that the
two agree.
"""

from __future__ import annotations

from workloads import VERIFY_CHECKS

# Printed by an untraced run (--trace 0).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("subrings_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

SUBRING_FNS = (
    "canonicalize",
    "ideal_data",
    "restricted_extension",
    "lift_isomorphic",
    "cotangent_dim",
    "closure",
    "enumerate_subrings",
)
SHAPE_FNS = ("shape_of", "bound", "minimal_generators", "enumerate_shapes")
# Quotient levels 1..13: census-f2 walks F2[x]/x^1 -> ... -> F2[x]/x^14,
# the deepest chain of any workload.
LEVELS = 13


def _per_layer():
    out = []
    for fn in SUBRING_FNS:
        out += [(f"subrings.{fn}.calls", "count", "lower"), (f"subrings.{fn}.self_s", "s", "lower")]
    out += [
        ("subrings.in_row_span.calls", "count", "lower"),
        ("subrings.census_group.self_s", "s", "lower"),
        ("subrings.ideal_data_per_extension", "ratio", "lower"),
        ("subrings.obstructed_share", "ratio", "lower"),
        ("subrings.lifts_per_extension", "ratio", "higher"),
    ]
    for lvl in range(1, LEVELS + 1):
        out += [(f"level.{lvl:02d}.s", "s", "lower"), (f"level.{lvl:02d}.subrings", "count", "higher")]
    for fn in SHAPE_FNS:
        out += [(f"shapes.{fn}.calls", "count", "lower"), (f"shapes.{fn}.self_s", "s", "lower")]
    out += [
        ("rings.mul.calls", "count", "lower"),
        ("rings.mul.self_s", "s", "lower"),
        ("rings.nu.calls", "count", "lower"),
        ("coefficients.mul.calls", "count", "lower"),
        ("coefficients.add.calls", "count", "lower"),
        ("coefficients.inv.calls", "count", "lower"),
    ]
    out += [(f"verify.{check}.s", "s", "lower") for check in VERIFY_CHECKS]
    out += [
        ("verify.enumerate_calls", "count", "lower"),
        ("verify.census_calls", "count", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace_overhead_s", "s", "lower"),
    ]
    return tuple(out)


# Printed by a traced run (--trace 1).
PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def level_of(quotient_ctx, ring) -> int:
    """Number of one-step quotients from ring down to the base ring."""
    depth = 0
    while (ring := quotient_ctx(ring)) is not None:
        depth += 1
    return depth


def layer_values(tr, quotient_ctx) -> dict[str, float]:
    """Per-layer metrics of one traced pass, in PER_LAYER order, with
    trace_overhead_s left for the caller."""
    out: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER if name != "trace_overhead_s"}
    for name in out:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = tr.calls.get(span, 0)
        elif stat == "self_s":
            out[name] = tr.self_s.get(span, 0.0)
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = tr.incl_s.get(f"verify.{check}", 0.0)
    out["subrings.census_group.self_s"] = tr.incl_s.get("subrings.census", 0.0) - tr.enumerate_in_census_s
    out["subrings.ideal_data_per_extension"] = _ratio(
        tr.calls.get("subrings.ideal_data", 0), tr.calls.get("subrings.restricted_extension", 0)
    )
    out["subrings.obstructed_share"] = _ratio(tr.obstructed, tr.lift_calls)
    out["subrings.lifts_per_extension"] = _ratio(tr.lifts_made, tr.lift_calls)
    for ring, (secs, made) in tr.levels.items():
        lvl = level_of(quotient_ctx, ring)
        out[f"level.{lvl:02d}.s"] += secs
        out[f"level.{lvl:02d}.subrings"] += made
    out["verify.enumerate_calls"] = tr.verify_enumerate_calls
    out["verify.census_calls"] = tr.verify_census_calls
    out["cli.self_s"] = tr.self_s.get("cli.main", 0.0)
    return out
