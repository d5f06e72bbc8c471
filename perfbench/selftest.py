"""Self-test of the benchmark's instrumentation.  Run from the repository
root (about a minute):

    python3 perfbench/selftest.py

It checks that

1. BENCHMARK.json lists exactly the workloads and metrics the code emits;
2. two traced passes of census-z give identical counts, and the traced
   census outputs are byte-identical to the untraced ones, so the wrappers
   change nothing;
3. every wrapped function is counted at every call site: on small rings,
   the tracer's call counts equal the calls a profiler hook sees on the
   original code objects;
4. the top quotient level of each census ring produced exactly
   len(enumerate_subrings(ring)) subrings;
5. on census-f2, canonicalize, restricted_extension and ideal_data are
   called 164,044, 15,361 and 81,695 times.  These counts were taken on
   the seed program; a change to the algorithm moves them on purpose.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, layer_values
from run import ROOT, import_cli
from tracer import PACKAGE, TARGETS, Tracer
from workloads import WORKLOADS, Op

SEED_COUNTS = {
    "subrings.canonicalize": 164_044,
    "subrings.restricted_extension": 15_361,
    "subrings.ideal_data": 81_695,
}

SMALL_OPS = (
    Op("census", {"q": 2, "n": 8}, subrings=0),
    Op("census", {"q": 4, "n": 3}, subrings=0),
    Op("census-z", {"p": 2, "N": 2, "n": 4, "k": 1}, subrings=0),
    Op("verify", {"q": 2, "n": 4}, subrings=0),
    Op("verify", {"q": 4, "n": 3}, subrings=0),
    Op("verify", {"p": 2, "N": 2, "n": 3, "k": 1}, subrings=0),
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_ops(cli, ops, tmp: Path) -> list[bytes]:
    outs = []
    for i, op in enumerate(ops):
        out = tmp / f"{i}.json"
        cli.main([*op.argv, "--out", str(out)])
        outs.append(out.read_bytes())
    return outs


def traced(cli, ops, tmp: Path) -> tuple[Tracer, list[bytes]]:
    tracer = Tracer()
    with tracer:
        outs = run_ops(cli, ops, tmp)
    return tracer, outs


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expect(theirs == list(ours), f"BENCHMARK.json {key}")


def check_repeatable(cli, rings, subrings, tmp: Path) -> None:
    ops = WORKLOADS["census-z"]
    plain = run_ops(cli, ops, tmp)
    first, out1 = traced(cli, ops, tmp)
    second, out2 = traced(cli, ops, tmp)
    expect(out1 == plain and out2 == plain, "census-z: traced outputs byte-identical to untraced")
    v1 = layer_values(first, rings.quotient_ctx)
    v2 = layer_values(second, rings.quotient_ctx)
    counts = [n for n, u, _ in PER_LAYER if u in ("count", "ratio") and n in v1]
    expect(all(v1[n] == v2[n] for n in counts), f"census-z: {len(counts)} counts repeat exactly")
    expect(dict(first.calls) == dict(second.calls), "census-z: per-function call counts repeat exactly")
    check_top_levels(first, ops, rings, subrings)


def check_top_levels(tracer: Tracer, ops, rings, subrings) -> None:
    for op in ops:
        ring = (rings.field_ring if "q" in op.ring else rings.zpn_ring)(**op.ring)
        made = tracer.levels.get(ring, [0.0, 0])[1]
        want = len(subrings.enumerate_subrings(ring))
        expect(made == want == op.subrings, f"{op.label}: top level made {made} subrings, enumerate gives {want}")


def original_codes() -> dict:
    """Code object of every wrapped original -> its metric name."""
    codes = {}
    for name, modname, owner, attr, _ in TARGETS:
        mod = sys.modules[f"{PACKAGE}.{modname}"]
        fn = getattr(mod, attr) if owner is None else vars(getattr(mod, owner))[attr]
        fn = getattr(fn, "__func__", fn)
        codes[fn.__code__] = name
    for checks in sys.modules[f"{PACKAGE}.verify"].SUITES.values():
        for cname, fn in checks:
            codes[fn.__code__] = f"verify.{cname}"
    return codes


def check_call_sites(cli, tmp: Path) -> None:
    codes = original_codes()
    seen: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                seen[name] += 1

    tracer = Tracer()
    with tracer:
        sys.setprofile(profile)
        try:
            run_ops(cli, SMALL_OPS, tmp)
        finally:
            sys.setprofile(None)
    counted = {k: v for k, v in tracer.calls.items() if v}
    missed = {k: (counted.get(k, 0), v) for k, v in seen.items() if counted.get(k, 0) != v}
    expect(not missed and set(counted) == set(seen), f"{len(seen)} wrapped functions counted at every call site {missed or ''}")


def check_seed_counts(cli, rings, subrings, tmp: Path) -> None:
    ops = WORKLOADS["census-f2"]
    tracer, _ = traced(cli, ops, tmp)
    for name, want in SEED_COUNTS.items():
        got = tracer.calls.get(name, 0)
        expect(got == want, f"census-f2: {name} called {got} times, seed count {want}")
    check_top_levels(tracer, ops, rings, subrings)


def main() -> int:
    cli, rings = import_cli()
    from truncring import subrings

    check_manifest()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        check_call_sites(cli, Path(tmp))
        check_repeatable(cli, rings, subrings, Path(tmp))
        check_seed_counts(cli, rings, subrings, Path(tmp))
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
