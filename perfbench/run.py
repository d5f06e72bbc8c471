"""Benchmark of the truncring command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload census-f2 --seed 1 --seconds 30 --trace 0

Workloads are ``census-f2``, ``census-z`` and ``verify-desk`` (see
``workloads.py`` and NOTES.md).  Each op is one ``truncring`` CLI call made
in this process through ``truncring.cli.main``, with no threads.  A *pass*
runs every op of the workload once, in an order the seed permutes; the run
repeats passes for about ``--seconds`` seconds (at least three untraced
passes) and checks every output.

``--trace 0`` reports the end-to-end metrics: median pass wall time,
subrings per second, peak resident memory, and the median set-up time of a
fresh interpreter.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (medians over passes)
plus ``trace_overhead_s``; it writes the spans of the last traced pass to
``.perfbench/spans-<workload>.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output passed the gate, 1 after the result line when one did
not (``correct`` is then false), and nonzero without a result line when
the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from metrics import UNITS, layer_values
from tracer import Tracer
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 3
# Fresh interpreters timed before each untraced pass, so that the set-up
# samples are spread over the run like the passes are.
SETUP_PER_PASS = 5

# Runs in a fresh interpreter: import the package and build the workload's
# ring contexts, timing both from the first statement.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import truncring.cli
from truncring import field_ring, zpn_ring
for ring in json.loads(sys.argv[2]):
    (field_ring if "q" in ring else zpn_ring)(**ring)
print(repr(time.perf_counter() - t0))
"""


def import_cli():
    """Import truncring.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "truncring" / "__init__.py").is_file():
        raise SystemExit(f"error: no truncring package under {SRC}")
    sys.path.insert(0, str(SRC))
    from truncring import cli, rings

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: truncring imported from {cli.__file__}, not from {SRC}")
    return cli, rings


def measure_setup(ops) -> list[float]:
    rings = json.dumps([op.ring for op in ops])
    times = []
    for _ in range(SETUP_PER_PASS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), rings],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout))
    return times


def run_pass(cli, ops, tally: Tally) -> float:
    """Run every op once; return the summed wall time of the CLI calls.
    Outputs are checked after the clock stops."""
    wall = 0.0
    out = OUT_DIR / "op.json"
    for op in ops:
        out.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            rc = cli.main([*op.argv, "--out", str(out)])
        except Exception:  # a crash fails the op; the run goes on
            traceback.print_exc()
            rc = None
        wall += perf_counter() - t0
        tally.check(op, rc, out.read_bytes() if out.exists() else None)
    out.unlink(missing_ok=True)
    return wall


def keep_going(started: float, loop_walls: list[float], seconds: float, min_loops: int) -> bool:
    """Whether to run another loop: always below min_loops, else only if a
    loop of median length still ends within the run's seconds."""
    if len(loop_walls) < min_loops:
        return True
    return perf_counter() - started + statistics.median(loop_walls) <= seconds


def run_untraced(cli, ops, seconds: float, tally: Tally) -> dict:
    setups, walls, loops = [], [], []
    started = perf_counter()
    while keep_going(started, loops, seconds, MIN_PASSES):
        t0 = perf_counter()
        setups += measure_setup(ops)
        walls.append(run_pass(cli, ops, tally))
        loops.append(perf_counter() - t0)
    wall_s = statistics.median(walls)
    print("# pass walls (s): " + " ".join(f"{w:.4f}" for w in walls))
    return {
        "wall_s": wall_s,
        "subrings_per_s": sum(op.subrings for op in ops) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }


def run_traced(cli, rings, ops, seconds: float, tally: Tally, spans_path: Path) -> dict:
    plain, traced, values, loops = [], [], [], []
    started = perf_counter()
    while keep_going(started, loops, seconds, 1):
        t0 = perf_counter()
        plain.append(run_pass(cli, ops, tally))
        tracer = Tracer()
        with tracer:
            traced.append(run_pass(cli, ops, tally))
        values.append(layer_values(tracer, rings.quotient_ctx))
        loops.append(perf_counter() - t0)
    tracer.write_spans(spans_path)
    out = {name: statistics.median(v[name] for v in values) for name in values[0]}
    out["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    cli, rings = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    ops = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(ops)
    print(f"# {args.workload} seed {args.seed}: ops {' '.join(op.label for op in ops)}")
    print(f"# machine: {os.cpu_count()} cpus, {platform.machine()}, Python {platform.python_version()}")
    tally = Tally()
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}.tsv.gz"
        metrics = run_traced(cli, rings, ops, args.seconds, tally, spans)
    else:
        metrics = run_untraced(cli, ops, args.seconds, tally)

    for problem in dict.fromkeys(tally.problems):
        print(f"# INCORRECT {problem}")
    print(f"# ops_failed_share {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted})")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {UNITS[name]}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
