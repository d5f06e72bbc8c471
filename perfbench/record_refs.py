"""Record the census reference outputs that the correctness gate compares
byte for byte.  Run from the repository root:

    python3 perfbench/record_refs.py

The references were recorded once, at the seed program.  A later change
that is meant to alter census output re-records them in a change of its
own, not in a change that claims a speed-up.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from truncring import cli  # noqa: E402

from workloads import REF_DIR, WORKLOADS  # noqa: E402


def main() -> int:
    REF_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out.json"
        for ops in WORKLOADS.values():
            for op in ops:
                if op.command == "verify":
                    continue
                if cli.main([*op.argv, "--out", str(out)]) != 0:
                    raise SystemExit(f"{op.label} failed")
                data = out.read_bytes()
                with open(op.ref_path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                    fh.write(data)
                rows = json.loads(data)
                print(op.label, "rows", len(rows), "subrings", sum(r["count"] for r in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
