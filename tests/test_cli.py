import json
import math

import numpy as np
import pytest

from fracdde import (
    DelayPair,
    SystemRhs,
    build_grid,
    critical_curve,
    phase_columns,
    simulate,
    stability,
    ucar_rhs,
)
from fracdde import cli
from fracdde.cli import main
from fracdde.stability import CriticalCurvePoint


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSimulateCommand:
    def test_roundtrip_matches_library_bitwise(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--model", "ucar",
                "--alpha", "0.9",
                "--tau1", "0.4",
                "--tau2", "0.5",
                "--T", "5",
                "--h", "0.01",
                "--history", "0.8",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "x", "x_tau1", "x_tau2"]
        grid = build_grid(DelayPair(0.4, 0.5), 5.0, 0.01)
        table = phase_columns(simulate(ucar_rhs(), 0.9, grid, 0.8), grid)
        assert len(rows) == len(table)
        for row, expected in zip(rows, table):
            for text, value in zip(row, expected):
                assert float(text) == value
                assert text == format(value, ".17g")

    @pytest.mark.parametrize("tau1, tau2", [(50.0, 0.07), (0.03, 45.0), (0.4, 0.5)])
    def test_csv_bytes_match_per_row_formatting(self, tmp_path, tau1, tau2):
        # Rows are written 4096 at a time, each state formatted once per
        # chunk; a delay of 4500 or 5000 steps puts a delayed column in a
        # window of its own.  The bytes must equal one "%.17g" row at a time.
        out = tmp_path / "lin.csv"
        argv = [
            "simulate",
            "--model", "linear", "--a", "-0.5", "--b", "0.3",
            "--alpha", "0.8",
            "--tau1", str(tau1), "--tau2", str(tau2),
            "--T", "120", "--h", "0.01",
            "--history", "1.5",
            "--out", str(out),
        ]
        assert main(argv) == 0
        grid = build_grid(DelayPair(tau1, tau2), 120.0, 0.01)
        rhs = SystemRhs(g=lambda x1, x2: -0.5 * x1 + 0.3 * x2)
        table = phase_columns(simulate(rhs, 0.8, grid, 1.5), grid)
        expected = ["t,x,x_tau1,x_tau2\n"]
        expected += ["%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in table.tolist()]
        got = out.read_text().splitlines(keepends=True)
        assert len(table) == 12001
        assert len(got) == len(expected)
        first_bad = next((i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]), None)
        assert first_bad is None, (first_bad, got[first_bad], expected[first_bad])

    def test_linear_model(self, tmp_path):
        out = tmp_path / "lin.csv"
        code = main(
            [
                "simulate",
                "--model", "linear", "--a", "-1", "--b", "0",
                "--alpha", "1.0",
                "--tau1", "0.1", "--tau2", "0.1",
                "--T", "1", "--h", "0.1",
                "--history", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 11

    def test_linear_model_requires_coefficients(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--model", "linear", "--a", "-1",
                "--alpha", "1.0",
                "--tau1", "0.1", "--tau2", "0.1",
                "--T", "1", "--h", "0.1",
                "--history", "1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_incommensurable_delays_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--model", "ucar",
                "--alpha", "0.9",
                "--tau1", "1.0", "--tau2", str(math.sqrt(2)),
                "--T", "5", "--h", "0.01",
                "--history", "0.8",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_truncation_exit_code_and_partial_output(self, tmp_path, capsys):
        out = tmp_path / "blowup.csv"
        code = main(
            [
                "simulate",
                "--model", "linear", "--a", "5", "--b", "0",
                "--alpha", "1.0",
                "--tau1", "0.1", "--tau2", "0.1",
                "--T", "200", "--h", "0.1",
                "--history", "1",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "finite" in err
        _, rows = read_csv(out)
        assert 0 < len(rows) < 2001
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_foreign_model_parameter_rejected(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--model", "ucar", "--c1", "-2",
                "--alpha", "0.9",
                "--tau1", "0.4", "--tau2", "0.5",
                "--T", "5", "--h", "0.01",
                "--history", "0.8",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "ikeda" in capsys.readouterr().err


class TestCurvesCommand:
    def test_csv_contents_and_grouping(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["curves", "--a", "1", "--b", "-3", "--alpha", "1.0",
             "--samples", "500", "--max-branch", "2", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["v", "tau1", "tau2", "sign1", "m1", "sign2", "m2", "residual"]
        assert rows
        parsed = [(int(r[4]), int(r[3]), float(r[0])) for r in rows]
        assert parsed == sorted(parsed)
        assert all(float(r[7]) <= 1e-9 for r in rows)
        points = critical_curve(1.0, (1.0, -3.0), samples=500, max_branch=2)
        assert len(rows) == len(points)

    def test_csv_bytes_match_per_value_formatting(self, tmp_path, monkeypatch):
        # The batched row template must print exactly what format(v, ".17g")
        # and str(int) print, signed zeros and extreme exponents included.
        points = [
            CriticalCurvePoint(0.1, 1.0 / 3.0, -0.0, 1, 0, -1, 0, 0.0),
            CriticalCurvePoint(2.5e-300, 1.7976931348623157e308, 12.0, -1, 3, 1, 17, 5e-324),
            CriticalCurvePoint(7.0, math.pi, 1e16, 1, 8, -1, 2, 1.2345678901234567e-10),
        ]
        monkeypatch.setattr(cli, "critical_curve", lambda *args, **kwargs: list(points))
        out = tmp_path / "curve.csv"
        assert main(["curves", "--a", "1", "--b", "-3", "--alpha", "0.9", "--out", str(out)]) == 0
        points.sort(key=lambda p: (p.m1, p.sign1, p.v, p.m2, p.sign2))
        expected = "v,tau1,tau2,sign1,m1,sign2,m2,residual\n" + "".join(
            ",".join(
                [format(p.v, ".17g"), format(p.tau1, ".17g"), format(p.tau2, ".17g")]
                + [str(p.sign1), str(p.m1), str(p.sign2), str(p.m2)]
                + [format(p.residual, ".17g")]
            )
            + "\n"
            for p in points
        )
        assert "-0," in expected and "e+308" in expected
        assert out.read_bytes() == expected.encode()

    def test_model_sourcing_matches_direct_coefficients(self, tmp_path):
        direct = tmp_path / "direct.csv"
        model = tmp_path / "model.csv"
        assert main(
            ["curves", "--a", "1", "--b", "-3", "--alpha", "0.9",
             "--samples", "300", "--out", str(direct)]
        ) == 0
        assert main(
            ["curves", "--model", "ucar", "--x-star", "1", "--alpha", "0.9",
             "--samples", "300", "--out", str(model)]
        ) == 0
        assert direct.read_text() == model.read_text()

    def test_zero_coefficient_rejected(self, tmp_path, capsys):
        code = main(
            ["curves", "--a", "0", "--b", "-3", "--alpha", "0.9", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 1
        assert "nonzero" in capsys.readouterr().err

    def test_conflicting_sources_rejected(self, tmp_path, capsys):
        code = main(
            ["curves", "--a", "1", "--b", "-3", "--model", "ucar", "--x-star", "1",
             "--alpha", "0.9", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 1

    def test_custom_window_passthrough(self, tmp_path):
        out = tmp_path / "narrow.csv"
        code = main(
            ["curves", "--a", "1", "--b", "-3", "--alpha", "1.0",
             "--v-min", "0.1", "--v-max", "1.5", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows == []

    def test_half_window_rejected(self, tmp_path, capsys):
        code = main(
            ["curves", "--a", "1", "--b", "-3", "--alpha", "1.0",
             "--v-min", "0.1", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 1
        assert "together" in capsys.readouterr().err


class TestClassifyCommand:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, json.loads(out)

    def test_stable_point(self, capsys):
        code, doc = self.run(
            ["classify", "--a", "1", "--b", "-3", "--alpha", "0.9",
             "--tau1", "0.4", "--tau2", "0.5"],
            capsys,
        )
        assert code == 0
        assert doc["verdict"] == "Stable"
        assert doc["a"] == 1.0 and doc["b"] == -3.0
        assert doc["alpha"] == 0.9
        assert doc["tau1"] == 0.4 and doc["tau2"] == 0.5
        assert doc["critical_tau2"] > 0.5

    def test_boundary_computed_once(self, capsys, monkeypatch):
        calls = []
        line_search = stability.critical_tau2_for_tau1

        def counting(*args, **kwargs):
            calls.append(args)
            return line_search(*args, **kwargs)

        monkeypatch.setattr(stability, "critical_tau2_for_tau1", counting)
        code, doc = self.run(
            ["classify", "--a", "1", "--b", "-3", "--alpha", "0.9",
             "--tau1", "0.4", "--tau2", "0.5"],
            capsys,
        )
        assert code == 0
        assert doc["critical_tau2"] > 0.5
        assert len(calls) == 1

    def test_unstable_point(self, capsys):
        code, doc = self.run(
            ["classify", "--a", "1", "--b", "-3", "--alpha", "0.9",
             "--tau1", "1.6", "--tau2", "1.4"],
            capsys,
        )
        assert code == 0
        assert doc["verdict"] == "Unstable"
        assert doc["critical_tau2"] < 1.4

    def test_zero_delboth_reports_sign_rule(self, capsys):
        code, doc = self.run(
            ["classify", "--a", "1", "--b", "-3", "--alpha", "0.9",
             "--tau1", "0", "--tau2", "0"],
            capsys,
        )
        assert code == 0
        assert doc["verdict"] == "StableAtZeroDelays"
        assert doc["critical_tau2"] is None

    def test_unstable_at_zero_has_no_boundary(self, capsys):
        code, doc = self.run(
            ["classify", "--a", "2", "--b", "-1", "--alpha", "0.9",
             "--tau1", "0.3", "--tau2", "0.4"],
            capsys,
        )
        assert code == 0
        assert doc["verdict"] == "Unstable"
        assert doc["critical_tau2"] is None

    def test_model_sourcing(self, capsys):
        code, doc = self.run(
            ["classify", "--model", "ucar", "--x-star", "1", "--alpha", "0.9",
             "--tau1", "0.4", "--tau2", "0.5"],
            capsys,
        )
        assert code == 0
        assert doc["verdict"] == "Stable"
        assert doc["b"] == pytest.approx(-3.0)


class TestEquilibriaCommand:
    def test_ucar_listing(self, capsys):
        code = main(["equilibria", "--model", "ucar"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["x_star"] for e in doc] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)
        assert [e["stable_at_zero"] for e in doc] == [True, False, True]
        assert doc[0]["a"] == pytest.approx(1.0)
        assert doc[0]["b"] == pytest.approx(-3.0)

    def test_ikeda_listing_count(self, capsys):
        code = main(["equilibria", "--model", "ikeda"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 7

    def test_custom_bracket(self, capsys):
        code = main(["equilibria", "--model", "ikeda", "--bracket", "-3", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 3


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["simulate", "--model", "ucar"]) == 1

    def test_bad_alpha_value(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--model", "ucar",
                "--alpha", "1.5",
                "--tau1", "0.4", "--tau2", "0.5",
                "--T", "5", "--h", "0.01",
                "--history", "0.8",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
