"""Command-line interface: payload shapes, determinism, exit codes."""

import csv
import io
import json

import pytest

from truncring.cli import main
from truncring.verify import CheckResult


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

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "census.json"
        code, out = run(capsys, "census", "--q", "2", "--n", "3", "--out", str(target))
        assert code == 0 and out == ""
        _, direct = run(capsys, "census", "--q", "2", "--n", "3")
        assert target.read_text() == direct


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
            cli, "run_suite", lambda ctx, suite: [CheckResult("broken", False, ("witness",))]
        )
        code, out = run(capsys, "verify", "--suite", "all", "--q", "2", "--n", "3")
        assert code == 1
        d = json.loads(out)
        assert d["ok"] is False and d["checks"][0]["violations"] == ["witness"]


    def test_skipped_checks_are_reported(self, capsys):
        # F2[x]/x^8 has too many subspaces for the subspace scan
        code = main(["verify", "--suite", "all", "--q", "2", "--n", "8"])
        captured = capsys.readouterr()
        assert code == 0
        d = json.loads(captured.out)
        assert d["ok"] is True
        assert [c["name"] for c in d["checks"] if c["skipped"]] == ["enumerator-agreement"]
        assert len(d["checks"]) == 20
        assert all(c["ok"] and c["violations"] == [] for c in d["checks"])
        assert "skipped enumerator-agreement: too many subspaces to scan" in captured.err

    def test_violation_after_a_skip_exits_nonzero(self, capsys, monkeypatch):
        # on F2[x]/x^13 the two scan checks of the lifts suite are too large;
        # a planted kernel generator makes the third report a violation
        import truncring.verify as verify

        monkeypatch.setattr(verify, "kernel_generator", lambda ctx: ctx.monomial(1))
        code = main(["verify", "--suite", "lifts", "--q", "2", "--n", "13"])
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


class TestUsageErrors:
    def test_missing_flags(self, capsys):
        assert main(["census", "--q", "2"]) == 2
        assert main([]) == 2
        assert main(["nonsense"]) == 2

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
