"""Command-line interface: payload shapes, determinism, exit codes."""

import argparse
import csv
import gzip
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from truncring import cli
from truncring.cli import main
from truncring.verify import SUITES, CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCensus:
    def test_json_payload(self, capsys):
        code, out = run(capsys, "census", "--q", "2", "--n", "4")
        assert code == 0
        rows = json.loads(out)
        assert [r["shape"] for r in rows] == [[0], [0, 1, 2, 3], [0, 2], [0, 2, 3], [0, 3]]
        assert sum(r["count"] for r in rows) == 6
        for r in rows:
            assert set(r) == {
                "shape",
                "count",
                "bound_exp",
                "bound",
                "equality",
                "d_shape",
                "d_ring_values",
            }
            assert r["count"] <= r["bound"]

    def test_emit_bases(self, capsys):
        code, out = run(capsys, "census", "--q", "2", "--n", "4", "--emit-bases")
        rows = json.loads(out)
        by_shape = {tuple(r["shape"]): r for r in rows}
        assert by_shape[(0, 2)]["subrings"] == [["1", "x^2"], ["1", "x^2+x^3"]]

    def test_csv_layout(self, capsys):
        code, out = run(capsys, "census", "--q", "2", "--n", "4", "--format", "csv")
        assert code == 0
        table = list(csv.reader(io.StringIO(out)))
        assert table[0] == ["shape", "count", "bound_exp", "bound", "equality", "d_shape"]
        assert len(table) == 6
        assert table[3] == ["[0,2]", "2", "1", "2", "True", "1"]

    @pytest.mark.parametrize(
        "ring",
        [
            ["--q", "2", "--n", "6"],
            ["--q", "9", "--n", "3"],
            ["--p", "2", "--N", "2", "--n", "5", "--k", "1"],
            ["--p", "3", "--N", "2", "--n", "4"],
        ],
    )
    def test_csv_rows_are_the_json_rows(self, capsys, ring):
        # grid shapes too: each CSV row is its JSON row, shape dumped compactly
        _, out = run(capsys, "census", *ring, "--format", "csv")
        _, json_out = run(capsys, "census", *ring)
        table = list(csv.reader(io.StringIO(out)))
        assert table[0] == ["shape", "count", "bound_exp", "bound", "equality", "d_shape"]
        want = [
            [json.dumps(r["shape"], separators=(",", ":"))]
            + [str(r[f]) for f in ("count", "bound_exp", "bound", "equality", "d_shape")]
            for r in json.loads(json_out)
        ]
        assert table[1:] == want

    @pytest.mark.parametrize("ring", [["--q", "2", "--n", "6"], ["--q", "3", "--n", "4"]])
    def test_csv_ignores_emit_bases(self, capsys, monkeypatch, ring):
        # the CSV has no bases, so --emit-bases must not enumerate for it
        import truncring.cli as cli

        inner, calls = cli.enumerate_subrings, []

        def counting(ctx, *args):
            calls.append(ctx)
            return inner(ctx, *args)

        monkeypatch.setattr(cli, "enumerate_subrings", counting)
        _, plain = run(capsys, "census", *ring, "--format", "csv")
        _, emitted = run(capsys, "census", *ring, "--format", "csv", "--emit-bases")
        assert emitted == plain
        assert calls == []
        run(capsys, "census", *ring, "--emit-bases")
        assert len(calls) == 1

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "census", "--q", "3", "--n", "4", "--emit-bases")
        _, second = run(capsys, "census", "--q", "3", "--n", "4", "--emit-bases")
        assert first == second

    def test_extension_field_census(self, capsys):
        code, out = run(capsys, "census", "--q", "4", "--n", "3", "--modulus", "x^2+x+1")
        assert code == 0
        assert sum(r["count"] for r in json.loads(out)) == 3

    def test_census_z_payload(self, capsys):
        code, out = run(capsys, "census-z", "--p", "2", "--N", "2", "--n", "2", "--k", "2")
        assert code == 0
        rows = json.loads(out)
        assert [r["shape"] for r in rows] == [
            [[0, 0], [0, 1]],
            [[0, 0], [0, 1], [1, 0], [1, 1]],
            [[0, 0], [0, 1], [1, 1]],
        ]

    def test_census_z_prime_coefficients(self, capsys):
        # Z[x]/(2, x^3) is F_2[x]/x^3: the same rows, with i written as (i, 0)
        code, out = run(capsys, "census-z", "--p", "2", "--N", "1", "--n", "3", "--k", "1")
        assert code == 0
        _, field_out = run(capsys, "census", "--q", "2", "--n", "3")
        z_rows = json.loads(out)
        for row in z_rows:
            row["shape"] = [i for i, _ in row["shape"]]
        assert z_rows == json.loads(field_out)

    Z_RING = ["--p", "2", "--N", "2", "--n", "3"]
    F_CSV = ["--q", "3", "--n", "4", "--format", "csv"]

    @pytest.mark.parametrize(
        "argv,same_as",
        [
            (["census", *Z_RING, "--k", "1"], ["census-z", *Z_RING, "--k", "1"]),
            (["census-z", *Z_RING], ["census-z", *Z_RING, "--k", "2"]),
            (["census-z", *F_CSV], ["census", *F_CSV]),
        ],
    )
    def test_one_census_command_for_either_ring(self, capsys, argv, same_as):
        # census-z is an alias of census, and --k defaults to N as elsewhere
        code, out = run(capsys, *argv)
        assert code == 0
        assert (code, out) == run(capsys, *same_as)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "census.json"
        code, out = run(capsys, "census", "--q", "2", "--n", "3", "--out", str(target))
        assert code == 0 and out == ""
        _, direct = run(capsys, "census", "--q", "2", "--n", "3")
        assert target.read_text() == direct

    # the benchmark's recorded census-z outputs, read and never written here
    @pytest.mark.parametrize("ring", [(2, 2, 7, 1), (2, 3, 5, 3), (3, 2, 5, 2)], ids=str)
    def test_census_z_matches_recorded_reference(self, capsys, tmp_path, ring):
        p, N, n, k = ring
        ref = Path(__file__).resolve().parents[1] / "perfbench" / "ref"
        want = gzip.decompress((ref / f"census-z-p{p}-N{N}-n{n}-k{k}.json.gz").read_bytes())
        target = tmp_path / "census.json"
        flags = [f"--p={p}", f"--N={N}", f"--n={n}", f"--k={k}"]
        code, _ = run(capsys, "census-z", *flags, "--out", str(target))
        assert code == 0
        assert target.read_bytes() == want

    def test_census_f2_matches_recorded_reference(self, capsys, tmp_path):
        # the census-f2 reference, read and never written; its bound_exp and
        # d_shape columns come from the shape code
        ref = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "census-q2-n14.json.gz"
        target = tmp_path / "census.json"
        code, _ = run(capsys, "census", "--q", "2", "--n", "14", "--out", str(target))
        assert code == 0
        assert target.read_bytes() == gzip.decompress(ref.read_bytes())


class TestLiftsAndShape:
    def test_lifts_field(self, capsys):
        code, out = run(capsys, "lifts", "--q", "2", "--n", "3", "--subring", "x^2")
        assert code == 0
        d = json.loads(out)
        assert d["target_ring"] == "F2[x]/x^3"
        assert d["source_ring"] == "F2[x]/x^4"
        assert d["subring"] == ["1", "x^2"]
        assert d["preimage"] == ["1", "x^2", "x^3"]
        assert d["kernel_generator"] == "x^3"
        assert d["kernel_in_small"] is False
        assert d["exists"] is True and d["dim"] == 1 and d["count"] == 2
        assert d["lifts"] == [["1", "x^2"], ["1", "x^2+x^3"]]

    def test_lifts_expired(self, capsys):
        code, out = run(capsys, "lifts", "--q", "2", "--n", "3", "--subring", "x")
        d = json.loads(out)
        assert code == 0
        assert d["kernel_in_small"] is True and d["exists"] is False and d["lifts"] == []

    def test_lifts_z_family(self, capsys):
        code, out = run(
            capsys, "lifts", "--p", "2", "--N", "2", "--n", "2", "--k", "1", "--subring", "1"
        )
        d = json.loads(out)
        assert d["source_ring"] == "Z[x]/(2^2, x^2)"
        assert d["kernel_generator"] == "2x"
        assert d["exists"] is True and d["dim"] == 0
        assert d["lifts"] == [["1"]]

    def test_shape_report(self, capsys):
        code, out = run(
            capsys, "shape", "--q", "2", "--n", "18", "--subring", "x^6+x^9;x^7;x^8"
        )
        assert code == 0
        d = json.loads(out)
        assert d["shape"] == [0, 6, 7, 8, 12, 13, 14, 15, 16, 17]
        assert d["generators"] == [6, 7, 8, 17]
        assert d["d_shape"] == 4 and d["d_ring"] == 3
        assert d["log_size"] == 10

    def test_shape_grid_points_as_pairs(self, capsys):
        code, out = run(
            capsys, "shape", "--p", "2", "--N", "2", "--n", "2", "--k", "2", "--subring", "2x"
        )
        d = json.loads(out)
        assert d["shape"] == [[0, 0], [0, 1], [1, 1]]
        assert d["generators"] == [[0, 1], [1, 1]]


class TestCounterexample:
    def test_report(self, capsys):
        code, out = run(capsys, "counterexample", "--a", "6", "--q", "2")
        assert code == 0
        d = json.loads(out)
        assert d["d_ring"] == 3 and d["d_shape"] == 4
        assert d["shape_generators"] == [6, 7, 8, 17]
        assert d["witness"] == "x^17" and d["witness_in_square"] is True
        assert d["generators"] == ["x^6+x^9", "x^7", "x^8"]

    def test_small_parameter_is_usage_error(self, capsys):
        code, _ = run(capsys, "counterexample", "--a", "5", "--q", "2")
        assert code == 2


class TestVerify:
    def test_suite_choices_are_the_suite_names(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert list(suite.choices) == [*SUITES, "all"]

    def test_all_suites_pass(self, capsys):
        code, out = run(capsys, "verify", "--suite", "all", "--q", "2", "--n", "5")
        assert code == 0
        d = json.loads(out)
        assert d["ok"] is True
        assert len(d["checks"]) == 20
        assert all(c["ok"] for c in d["checks"])

    def test_single_suite_on_z_ring(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "valuation", "--p", "2", "--N", "2", "--n", "3", "--k", "1"
        )
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == [
            "valuation-strict",
            "valuation-nonarchimedean",
            "valuation-monomial-like",
        ]

    def test_violations_exit_nonzero(self, capsys, monkeypatch):
        import truncring.cli as cli

        monkeypatch.setattr(
            cli, "run_suite", lambda ctx, suite: [CheckResult("broken", ("witness",))]
        )
        code, out = run(capsys, "verify", "--suite", "all", "--q", "2", "--n", "3")
        assert code == 1
        d = json.loads(out)
        assert d["ok"] is False and d["checks"][0]["violations"] == ["witness"]


    def test_skipped_checks_are_reported(self, capsys):
        # F2[x]/x^8 is within reach of every check, the subspace scan included
        code = main(["verify", "--suite", "all", "--q", "2", "--n", "8"])
        captured = capsys.readouterr()
        assert code == 0
        d = json.loads(captured.out)
        assert d["ok"] is True
        assert len(d["checks"]) == 20
        assert [c["name"] for c in d["checks"] if c["skipped"]] == []
        assert all(c["ok"] and c["violations"] == [] for c in d["checks"])

    def test_violation_after_a_skip_exits_nonzero(self, capsys, monkeypatch):
        # on F2[x]/x^15 the two scan checks of the lifts suite are too large;
        # a planted kernel generator makes the third report a violation
        import truncring.verify as verify

        monkeypatch.setattr(verify, "kernel_generator", lambda ctx: ctx.monomial(1))
        code = main(["verify", "--suite", "lifts", "--q", "2", "--n", "15"])
        captured = capsys.readouterr()
        assert code == 1
        d = json.loads(captured.out)
        assert d["ok"] is False
        assert [(c["name"], bool(c["skipped"]), c["ok"]) for c in d["checks"]] == [
            ("lift-counts", True, True),
            ("lift-containment", True, True),
            ("kernel-minimality", False, False),
        ]
        assert d["checks"][2]["violations"] == ["x * kernel generator is nonzero"]
        assert captured.err.count("skipped lift-") == 2


def written_out(v):
    """v with each cli._Runs spelled out as the list of ints it stands for."""
    if type(v) is cli._Runs:
        return [x for x, k in v for _ in range(k)]
    if isinstance(v, dict):
        return {k: written_out(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [written_out(x) for x in v]
    return v


class TestJsonText:
    """_json_text writes the bytes of json.dumps(payload, indent=2) + newline,
    a census's cotangent runs written out."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--q", "2", "--n", "6"),
            ("census", "--q", "4", "--n", "3", "--emit-bases"),
            ("census", "--p", "2", "--N", "2", "--n", "4", "--k", "1", "--emit-bases"),
            ("lifts", "--q", "2", "--n", "3", "--subring", "x^2"),
            ("lifts", "--p", "2", "--N", "2", "--n", "2", "--k", "1", "--subring", "1"),
            ("shape", "--p", "2", "--N", "2", "--n", "2", "--k", "2", "--subring", "2x"),
            ("counterexample", "--a", "6", "--q", "2"),
            ("verify", "--suite", "all", "--q", "2", "--n", "4"),
        ],
        ids=" ".join,
    )
    def test_every_command_payload(self, capsys, monkeypatch, argv):
        payloads = []
        real = cli._json_text
        monkeypatch.setattr(cli, "_json_text", lambda payload: payloads.append(payload) or real(payload))
        code, out = run(capsys, *argv)
        assert code == 0
        [payload] = payloads
        assert out == real(payload) == json.dumps(written_out(payload), indent=2) + "\n"

    json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**200), max_value=2**200)
        | st.floats()
        | st.text(),
        lambda inner: st.lists(inner, max_size=6)
        | st.lists(inner, max_size=3).map(tuple)
        | st.lists(st.sampled_from([0, 1, 2, True, False]), max_size=12)
        | st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), max_size=4).map(cli._Runs)
        | st.dictionaries(st.text(max_size=4), inner, max_size=5),
        max_leaves=40,
    )

    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(written_out(value), indent=2) + "\n"


class TestUsageErrors:
    def test_missing_flags(self, capsys):
        assert main(["census", "--q", "2"]) == 2
        assert main([]) == 2
        assert main(["nonsense"]) == 2

    def test_kept_parser_answers_each_call_alike(self, capsys):
        # one parser serves every call: a usage error after a run, and a run
        # after a usage error, print what they print on their own
        assert cli._build_parser() is cli._build_parser()
        calls = [["census", "--q", "2"], ["census", "--q", "2", "--n", "4"], ["nonsense"]]
        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append((main(argv), capsys.readouterr()))
        assert [(main(argv), capsys.readouterr()) for argv in calls * 2] == alone * 2
        assert [code for code, _ in alone] == [2, 0, 2]
        assert alone[0][1].err.endswith("truncring census: error: the following arguments are required: --n\n")

    def test_conflicting_ring_flags(self, capsys):
        assert main(["verify", "--suite", "all", "--n", "3"]) == 2
        assert main(["verify", "--suite", "all", "--q", "2", "--p", "2", "--N", "2", "--n", "3"]) == 2
        assert main(["lifts", "--q", "2", "--N", "2", "--n", "3", "--subring", "x"]) == 2
        assert main(["lifts", "--p", "2", "--n", "3", "--subring", "x"]) == 2

    def test_bad_ring_parameters(self, capsys):
        assert main(["census", "--q", "6", "--n", "3"]) == 2
        assert main(["census-z", "--p", "2", "--N", "2", "--n", "2", "--k", "5"]) == 2

    def test_bad_subring_generators(self, capsys):
        assert main(["shape", "--q", "2", "--n", "3", "--subring", "x^9"]) == 2
        assert main(["shape", "--q", "2", "--n", "3", "--subring", ";"]) == 2

    def test_modulus_on_prime_field(self, capsys):
        assert main(["census", "--q", "2", "--n", "3", "--modulus", "x+1"]) == 2
        z_ring = ["--p", "3", "--N", "1", "--n", "2"]
        assert main(["verify", "--suite", "lifts", *z_ring, "--modulus", "garbage"]) == 2

    @pytest.mark.parametrize(
        "q, modulus, degree",
        [(4, "1+x+x^3", 2), (4, "1+x", 2), (8, "x^4+x+1", 3), (8, "x^2+x+1", 3)],
    )
    def test_modulus_of_the_wrong_degree(self, capsys, q, modulus, degree):
        # a term past the field's degree is a wrong degree too, not an
        # exponent out of range
        assert main(["census", "--q", str(q), "--n", "3", "--modulus", modulus]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: modulus must be monic of degree {degree}\n"

    @pytest.mark.parametrize(
        "argv",
        [["census", "--q", "2", "--n", "3"], ["verify", "--suite", "all", "--q", "2", "--n", "4"]],
    )
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        # exit 1 means a verify violation, so a path open() refuses is exit 2
        target = tmp_path / "missing" / "out.json"
        assert main([*argv, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("where", [["missing", "out.json"], ["file.txt", "out.json"], []])
    def test_unwritable_out_is_refused_before_the_work(self, capsys, tmp_path, monkeypatch, where):
        # a missing directory, a file where a directory should be, and a
        # directory as the output path; the census must not run at all
        def refuse(*args, **kw):
            raise AssertionError("census ran before --out was checked")

        monkeypatch.setattr(cli, "census", refuse)
        (tmp_path / "file.txt").write_text("kept\n")
        target = tmp_path.joinpath(*where)
        before = sorted(tmp_path.rglob("*"))
        assert main(["census", "--q", "2", "--n", "16", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file.txt").read_text() == "kept\n"

    def test_failed_command_creates_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["census", "--q", "6", "--n", "3", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists()

    def test_refused_walk_names_size_and_limit(self, capsys):
        # F9[x]/x^8 has 9^8 = 43046721 elements, over the walk's 2^20
        assert main(["census", "--q", "9", "--n", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ring of size 43046721 exceeds the walk limit 1048576\n"
