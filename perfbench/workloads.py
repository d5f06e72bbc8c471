"""The benchmark's workloads and the correctness gate on their outputs.

Every op is one call of the ``truncring`` command line, made in process
through ``truncring.cli.main``.  Inputs are fixed ring parameters; the seed
only permutes the order of the ops inside a workload (see NOTES.md for why
each workload was chosen).
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"

# The 20 checks of ``verify --suite all``, in the order the suite runs them.
VERIFY_CHECKS = (
    "valuation-strict",
    "valuation-nonarchimedean",
    "valuation-monomial-like",
    "census-bound",
    "realized-shapes",
    "bound-exponent-nonnegative",
    "lift-counts",
    "lift-containment",
    "kernel-minimality",
    "dimension-law",
    "exponent-set-scan",
    "cotangent-bound",
    "lift-equivalence",
    "tail-membership",
    "cotangent-propagation",
    "projection-shape",
    "step-counts",
    "ideal-correspondence",
    "projection-disjointness",
    "enumerator-agreement",
)


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``ring`` holds the ring flags (q, n for a field ring;
    p, N, n, k for the Z family) and ``subrings`` the number of unital
    subrings of that ring, which the census gate checks and which
    ``subrings_per_s`` counts."""

    command: str
    ring: dict = field(hash=False)
    subrings: int
    rows: int = 0  # census rows, for census ops

    @property
    def argv(self) -> list[str]:
        head = [self.command] + (["--suite", "all"] if self.command == "verify" else [])
        return head + [f"--{k}={v}" for k, v in self.ring.items()]

    @property
    def label(self) -> str:
        return self.command + "-" + "-".join(f"{k}{v}" for k, v in self.ring.items())

    @property
    def ref_path(self) -> Path:
        return REF_DIR / f"{self.label}.json.gz"

    @property
    def attempted(self) -> int:
        """Ops this call counts for: one census, or one op per verify check."""
        return len(VERIFY_CHECKS) if self.command == "verify" else 1


WORKLOADS = {
    # Prime field, deepest quotient chain under the size guard: _rref, field
    # ring mul, coefficient tables and the census recomputation of
    # cotangent_dim carry the time.
    "census-f2": (Op("census", {"q": 2, "n": 14}, subrings=44736, rows=277),),
    # Howell path, k-steps and n-steps, two primes; coefficients are idle.
    "census-z": (
        Op("census-z", {"p": 2, "N": 2, "n": 7, "k": 1}, subrings=9630, rows=170),
        Op("census-z", {"p": 2, "N": 3, "n": 5, "k": 3}, subrings=1793, rows=117),
        Op("census-z", {"p": 3, "N": 2, "n": 5, "k": 2}, subrings=684, rows=40),
    ),
    # closure_bfs oracles, repeated enumerations, pairwise valuation scans,
    # an extension field.  Z[x]/(2^2, x^4, 2x^3) fails step-counts at the
    # seed (a known defect) and stays in on purpose.
    "verify-desk": (
        Op("verify", {"q": 2, "n": 7}, subrings=35),
        Op("verify", {"q": 4, "n": 4}, subrings=8),
        Op("verify", {"p": 2, "N": 2, "n": 4, "k": 1}, subrings=28),
    ),
}


@dataclass
class Tally:
    """Ops attempted and failed, and the problems that make a run
    incorrect (an output that is wrong, missing or malformed)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, op: Op, rc: int, out: bytes | None) -> None:
        self.attempted += op.attempted
        if op.command == "verify":
            failed, bad = check_verify(op, rc, out)
        else:
            bad = check_census(op, rc, out)
            failed = 1 if bad else 0
        self.failed += failed
        if bad:
            self.problems.append(f"{op.label}: {bad}")


def read_ref(op: Op) -> bytes:
    with gzip.open(op.ref_path, "rb") as fh:
        return fh.read()


def check_census(op: Op, rc: int, out: bytes | None) -> str | None:
    """Byte identity with the reference recorded at the seed and, checked
    separately, the subring total, the row count and count <= bound."""
    if rc != 0 or out is None:
        return f"exit code {rc}, output {'missing' if out is None else 'present'}"
    problems = []
    if out != read_ref(op):
        problems.append("output differs from the recorded reference")
    try:
        rows = json.loads(out)
        total = sum(r["count"] for r in rows)
        over = [r["shape"] for r in rows if r["count"] > r["bound"]]
    except (ValueError, KeyError, TypeError) as exc:
        return "; ".join(problems + [f"malformed census: {exc!r}"])
    if total != op.subrings or len(rows) != op.rows:
        problems.append(f"{total} subrings in {len(rows)} rows, expected {op.subrings} in {op.rows}")
    if over:
        problems.append(f"count > bound on shapes {over}")
    return "; ".join(problems) or None


def check_verify(op: Op, rc: int, out: bytes | None) -> tuple[int, str | None]:
    """Return (failed ops, problem).  A violated check is a failed op; a
    crash, a malformed report or an exit code that contradicts the report
    fails every check of the call and is a problem."""
    if rc not in (0, 1) or out is None:
        return op.attempted, f"exit code {rc}, output {'missing' if out is None else 'present'}"
    try:
        report = json.loads(out)
        checks = report["checks"]
        names = tuple(c["name"] for c in checks)
        oks = [c["ok"] is True and not c["violations"] for c in checks]
        consistent = all(c["ok"] is (not c["violations"]) for c in checks)
        overall = report["ok"]
    except (ValueError, KeyError, TypeError) as exc:
        return op.attempted, f"malformed report: {exc!r}"
    if names != VERIFY_CHECKS:
        return op.attempted, f"checks {names} differ from the 20 of suite 'all'"
    if not consistent or overall is not all(oks) or rc != (0 if overall else 1):
        return op.attempted, "report flags and exit code disagree"
    return oks.count(False), None
