"""Command-line front end.

Subcommands: ``census`` (the shape census of a truncated ring, field or
Z family; ``census-z`` is the same command), ``lifts`` (the family of
isomorphic lifts of a subring across the one-step extension), ``shape``
(exponent set and generator data of a subring), ``counterexample`` (the
generator-gap family), and ``verify`` (invariant suites).  Every command
that takes a ring takes the same ring flags: ``--q`` (and ``--modulus``)
for F_q[x]/x^n, ``--p``/``--N`` (and ``--k``, default N) for the Z
family.  Output is deterministic JSON (or CSV for censuses), to stdout or
an ``--out`` file.  Exit codes: 0 ok, 1 a verify suite found a violation,
2 usage error.  A verify check too large for the ring's scale is reported
as skipped, in the JSON and on stderr, and the exit code rests on the
checks that ran.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import itertools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from .coefficients import FieldCtx, factor_prime_power
from .errors import InvariantViolation, SkippedChecks
from .rings import FieldPolyCtx, field_ring, zpn_ring
from .shapes import minimal_generators
from .subrings import (
    Subring,
    census,
    closure,
    cotangent_dim,
    counterexample_family,
    enumerate_subrings,
    exponent_set,
    lift_isomorphic,
    restricted_extension,
)
from .verify import SUITES, run_suite


def _pts_json(pts) -> list:
    return [list(pt) if isinstance(pt, tuple) else pt for pt in pts]


def _basis_polys(S: Subring) -> list[str]:
    return [S.ctx.format(r) for r in S.basis]


def _check_out(out_path):
    """Refuse, before any work and without creating a file, an --out path
    that open(out_path, "w") would refuse, with the reason open gives."""
    parent = os.path.dirname(os.path.abspath(out_path))
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(out_path if os.path.exists(out_path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write {out_path}: {os.strerror(code)}")


def _emit(text: str, out_path):
    if out_path:
        try:
            fh = open(out_path, "w")
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2) + "\n", payload's dict keys all str,
    written by join instead of json's pure-Python indent encoder."""
    return _json(payload, "\n") + "\n"


def _json(v, nl: str) -> str:
    # nl: a newline and the indent of v's line
    if type(v) is int:
        return int.__repr__(v)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = nl + "  "
        items = [encode_basestring_ascii(k) + ": " + _json(x, inner) for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = nl + "  "
        if set(map(type, v)) == {int}:
            # runs of one value, such as a census's sorted d_ring_values,
            # are their line repeated
            sep = "," + inner
            lines = [(sep + int.__repr__(x)) * len(list(run)) for x, run in itertools.groupby(v)]
            return "[" + "".join(lines)[1:] + nl + "]"
        return "[" + inner + ("," + inner).join([_json(x, inner) for x in v]) + nl + "]"
    return json.dumps(v)


def _census_payload(rows, emit_bases: bool) -> list[dict]:
    out = []
    for row in rows:
        d = {
            "shape": _pts_json(row.shape.elems),
            "count": row.count,
            "bound_exp": row.bound_exp,
            "bound": row.bound,
            "equality": row.equality,
            "d_shape": row.d_shape,
            "d_ring_values": list(row.d_ring_values),
        }
        if emit_bases:
            d["subrings"] = [_basis_polys(S) for S in row.subrings]
        out.append(d)
    return out


def _census_csv(rows) -> str:
    fields = ["shape", "count", "bound_exp", "bound", "equality", "d_shape"]
    buf = io.StringIO()
    wr = csv.DictWriter(buf, fields, extrasaction="ignore", lineterminator="\n")
    wr.writeheader()
    for d in _census_payload(rows, False):
        wr.writerow(d | {"shape": json.dumps(d["shape"], separators=(",", ":"))})
    return buf.getvalue()


def _field_modulus(q: int, text):
    if text is None:
        return None
    p, e = factor_prime_power(q)
    if e == 1:
        raise ValueError("--modulus applies only to extension fields")
    # a term past degree e is a wrong degree, not an exponent of F_p[x]/x^(e+1)
    if any(int(d) > e for d in re.findall(r"\^(\d+)", "".join(text.split()))):
        raise ValueError(f"modulus must be monic of degree {e}")
    return FieldPolyCtx(FieldCtx(p), e + 1).parse(text)


def _ring_from_args(args):
    if (args.q is None) == (args.p is None):
        raise ValueError("select the ring with either --q (field) or --p/--N (Z family)")
    if args.q is not None:
        if args.N is not None or args.k is not None:
            raise ValueError("--N/--k belong to the Z family; use them with --p")
        return field_ring(args.q, args.n, _field_modulus(args.q, args.modulus))
    if args.modulus is not None:
        raise ValueError("--modulus belongs to extension fields; use it with --q")
    if args.N is None:
        raise ValueError("--p needs --N")
    return zpn_ring(args.p, args.N, args.n, args.k)


def _parse_generators(ctx, text: str):
    gens = [part for part in text.split(";") if part.strip()]
    if not gens:
        raise ValueError("--subring needs at least one generator")
    return [ctx.parse(part) for part in gens]


# -- subcommands ---------------------------------------------------------------


def _cmd_census(args) -> tuple[str, int]:
    ctx = _ring_from_args(args)
    # only the JSON payload prints bases; the CSV has no column for them
    emit_bases = args.emit_bases and args.format == "json"
    rows = census(ctx, enumerate_subrings(ctx) if emit_bases else None)
    if args.format == "csv":
        return _census_csv(rows), 0
    return _json_text(_census_payload(rows, emit_bases)), 0


def _cmd_lifts(args) -> tuple[str, int]:
    ctx = _ring_from_args(args)
    B = closure(ctx, _parse_generators(ctx, args.subring))
    ext = restricted_extension(B)
    fam = lift_isomorphic(ext)
    src_ctx = ext.src.ctx
    payload = {
        "target_ring": repr(ctx),
        "source_ring": repr(src_ctx),
        "subring": _basis_polys(B),
        "preimage": _basis_polys(ext.src),
        "kernel_generator": src_ctx.format(ext.kernel_gen),
        "kernel_in_small": ext.kernel_in_small,
        "exists": fam.exists,
        "dim": fam.dim,
        "count": len(fam.lifts),
        "lifts": [_basis_polys(L) for L in fam.lifts],
    }
    return _json_text(payload), 0


def _cmd_shape(args) -> tuple[str, int]:
    ctx = _ring_from_args(args)
    B = closure(ctx, _parse_generators(ctx, args.subring))
    sh = exponent_set(B)
    payload = {
        "ring": repr(ctx),
        "subring": _basis_polys(B),
        "log_size": B.log_size,
        "shape": _pts_json(sh.elems),
        "generators": _pts_json(minimal_generators(sh)),
        "d_shape": sh.generator_count(),
        "d_ring": cotangent_dim(B),
    }
    return _json_text(payload), 0


def _cmd_counterexample(args) -> tuple[str, int]:
    p, e = factor_prime_power(args.q)
    rep = counterexample_family(args.a, FieldCtx(p, e))
    ctx = rep.ctx
    payload = {
        "a": rep.a,
        "ring": repr(ctx),
        "generators": [ctx.format(g) for g in rep.gens],
        "subring": _basis_polys(rep.ring),
        "shape": _pts_json(rep.shape.elems),
        "shape_generators": list(rep.generators),
        "d_shape": rep.d_shape,
        "d_ring": rep.d_ring,
        "witness": ctx.format(rep.witness),
        "witness_in_square": rep.witness_in_square,
    }
    return _json_text(payload), 0


def _cmd_verify(args) -> tuple[str, int]:
    ctx = _ring_from_args(args)
    try:
        results = run_suite(ctx, args.suite)
    except SkippedChecks as exc:
        results = exc.results
    # a skipped check has ok True: the verdict rests on the checks that ran
    ok = all(r.ok for r in results)
    payload = {
        "ring": repr(ctx),
        "suite": args.suite,
        "ok": ok,
        "checks": [
            {"name": r.name, "ok": r.ok, "violations": list(r.violations), "skipped": r.skipped}
            for r in results
        ],
    }
    for r in results:
        if r.skipped is not None:
            print(f"skipped {r.name}: {r.skipped}", file=sys.stderr)
    return _json_text(payload), 0 if ok else 1


# -- parser --------------------------------------------------------------------


def _add_output_flags(sp):
    sp.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _add_ring_flags(sp):
    sp.add_argument("--q", type=int, default=None, help="field size (prime power)")
    sp.add_argument("--modulus", default=None, help="extension-field modulus over F_p")
    sp.add_argument("--p", type=int, default=None, help="prime of the Z family")
    sp.add_argument("--N", type=int, default=None, help="coefficient precision p^N")
    sp.add_argument("--k", type=int, default=None, help="top-degree cap exponent")
    sp.add_argument("--n", type=int, required=True, help="truncation order")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept: parsing leaves it as it
    was, and each command looks up what it runs when it runs."""
    parser = argparse.ArgumentParser(
        prog="truncring",
        description="Subring censuses, lifts, and invariant checks for truncated polynomial rings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser(
        "census",
        aliases=["census-z"],
        help="shape census of F_q[x]/x^n or Z[x]/(p^N, x^n, p^k x^{n-1})",
    )
    _add_ring_flags(sp)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--emit-bases", action="store_true", dest="emit_bases")
    _add_output_flags(sp)
    sp.set_defaults(fn=_cmd_census)

    sp = sub.add_parser("lifts", help="isomorphic lifts of a subring across the one-step extension")
    _add_ring_flags(sp)
    sp.add_argument("--subring", required=True, help="semicolon-separated generators of the target subring")
    _add_output_flags(sp)
    sp.set_defaults(fn=_cmd_lifts)

    sp = sub.add_parser("shape", help="exponent set and generator data of a subring")
    _add_ring_flags(sp)
    sp.add_argument("--subring", required=True, help="semicolon-separated generators")
    _add_output_flags(sp)
    sp.set_defaults(fn=_cmd_shape)

    sp = sub.add_parser("counterexample", help="the generator-gap family member for a given a")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    _add_output_flags(sp)
    sp.set_defaults(fn=_cmd_counterexample)

    sp = sub.add_parser("verify", help="run invariant suites on the selected ring")
    sp.add_argument("--suite", choices=[*SUITES, "all"], required=True)
    _add_ring_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.out:
            _check_out(args.out)
        text, code = args.fn(args)
        _emit(text, args.out)
        return code
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
