import json
import math
from collections import Counter

import numpy as np
import pytest

from fracdde import (
    DelayPair,
    SystemRhs,
    build_grid,
    curve_columns,
    linearize,
    phase_columns,
    simulate,
    stability,
    ucar_rhs,
)
from fracdde import cli
from fracdde.cli import main
from oracles import CurvePoint, object_curve_points


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def random_floats(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


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

    @pytest.mark.parametrize(
        "tau1, tau2, history",
        [
            pytest.param(50.0, 0.07, "1.5", id="50.0-0.07"),
            pytest.param(0.03, 45.0, "1.5", id="0.03-45.0"),
            pytest.param(0.4, 0.5, "1.5", id="0.4-0.5"),
            pytest.param(0.4, 0.5, "-0", id="0.4-0.5-history-0"),
        ],
    )
    def test_csv_bytes_match_per_row_formatting(self, tmp_path, tau1, tau2, history):
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
            "--history", history,
            "--out", str(out),
        ]
        assert main(argv) == 0
        grid = build_grid(DelayPair(tau1, tau2), 120.0, 0.01)
        rhs = SystemRhs(g=lambda x1, x2: -0.5 * x1 + 0.3 * x2)
        table = phase_columns(simulate(rhs, 0.8, grid, float(history)), grid)
        expected = ["t,x,x_tau1,x_tau2\n"]
        expected += ["%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in table.tolist()]
        got = out.read_text().splitlines(keepends=True)
        assert len(table) == 12001
        assert len(got) == len(expected)
        first_bad = next((i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]), None)
        assert first_bad is None, (first_bad, got[first_bad], expected[first_bad])
        if history == "-0":
            # The first row is the signed-zero history, printed as such.
            assert got[1] == "0,-0,-0,-0\n"

    @pytest.mark.parametrize(
        "xs",
        [
            [],
            [0.0, -0.0, math.inf, -math.inf, math.nan],
            [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
            [0.1, 1.0 / 3.0],
            random_floats(4097, seed=15),
        ],
        ids=["empty", "zeros-inf-nan", "extremes", "decimals", "random-4097"],
    )
    def test_chunk_template_matches_format(self, xs):
        assert cli._formatted(np.array(xs, dtype=float)) == [format(v, ".17g") for v in xs]

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

    def test_truncated_long_delay_csv_bytes(self, tmp_path, capsys):
        # A 4500-step delay and a blow-up in the second 4096-row chunk: the
        # x_tau2 column of the partial CSV reads strings carried over from
        # the first chunk.  The bytes must equal one "%.17g" row at a time.
        out = tmp_path / "blowup.csv"
        argv = [
            "simulate",
            "--model", "linear", "--a", "25", "--b", "0.5",
            "--alpha", "0.9",
            "--tau1", "0.1", "--tau2", "45",
            "--T", "100", "--h", "0.01",
            "--history", "1",
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert "finite" in capsys.readouterr().err
        grid = build_grid(DelayPair(0.1, 45.0), 100.0, 0.01)
        traj = simulate(SystemRhs(g=lambda x1, x2: 25.0 * x1 + 0.5 * x2), 0.9, grid, 1.0)
        assert grid.k2 > 4096 and 4096 < traj.truncated_at < 8192
        table = phase_columns(traj, grid)
        expected = "t,x,x_tau1,x_tau2\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in table.tolist()
        )
        assert len(table) == traj.truncated_at
        assert out.read_bytes() == expected.encode()

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
        columns = curve_columns(1.0, (1.0, -3.0), samples=500, max_branch=2)
        assert header == list(columns._fields)
        assert len(rows) == len(columns.v)

    def test_csv_bytes_match_per_value_formatting(self, tmp_path, monkeypatch):
        # The writer must print exactly what format(v, ".17g") and str(int)
        # print, signed zeros and extreme exponents included.  Values repeat
        # across rows, as on the real locus, and the tau2 column holds both
        # zeros, which a dedupe by float equality would print alike.
        points = [
            CurvePoint(0.1, 1.0 / 3.0, -0.0, 1, 0, -1, 0, 0.0),
            CurvePoint(2.5e-300, 1.7976931348623157e308, 12.0, -1, 3, 1, 17, 5e-324),
            CurvePoint(7.0, math.pi, 1e16, 1, 8, -1, 2, 1.2345678901234567e-10),
            CurvePoint(0.1, 1.0 / 3.0, 0.0, 1, 0, 1, 1, 5e-324),
            CurvePoint(7.0, -0.0, -0.0, -1, 8, -1, 0, 5e-324),
        ]
        expected = "v,tau1,tau2,sign1,m1,sign2,m2,residual\n" + "".join(
            ",".join(
                [format(p.v, ".17g"), format(p.tau1, ".17g"), format(p.tau2, ".17g")]
                + [str(p.sign1), str(p.m1), str(p.sign2), str(p.m2)]
                + [format(p.residual, ".17g")]
            )
            + "\n"
            for p in sorted(points, key=lambda p: (p.m1, p.sign1, p.v, p.m2, p.sign2))
        )
        assert {format(p.tau2, ".17g") for p in points} >= {"0", "-0"}
        assert "e+308" in expected
        out = tmp_path / "curve.csv"
        # numpy 1 on Windows makes integer labels 32-bit: they print alike.
        for label_dtype in (np.int64, np.int32):
            columns = stability.CurveColumns(
                *(np.array(col, dtype=label_dtype if type(col[0]) is int else float) for col in zip(*points))
            )
            monkeypatch.setattr(cli, "curve_columns", lambda *args, **kwargs: columns)
            assert main(["curves", "--a", "1", "--b", "-3", "--alpha", "0.9", "--out", str(out)]) == 0
            assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "argv, alpha, coef, kwargs",
        [
            (["--a", "1", "--b", "-3"], 1.0, (1.0, -3.0), {}),
            (["--a", "1", "--b", "-3", "--v-min", "3.9", "--v-max", "4.0", "--samples", "200"],
             1.0, (1.0, -3.0), {"v_range": (3.9, 4.0), "samples": 200}),
            (["--model", "ucar", "--x-star", "1"], 0.9, linearize(ucar_rhs(), 1.0), {}),
            (["--a", "-3", "--b", "-22.5", "--samples", "400", "--max-branch", "2"],
             0.7, (-3.0, -22.5), {"samples": 400, "max_branch": 2}),
        ],
    )
    def test_rows_match_object_path(self, tmp_path, argv, alpha, coef, kwargs):
        out = tmp_path / "curve.csv"
        assert main(["curves", *argv, "--alpha", str(alpha), "--out", str(out)]) == 0
        points = object_curve_points(alpha, coef, **kwargs)
        points.sort(key=lambda p: (p.m1, p.sign1, p.v, p.m2, p.sign2))
        expected = [
            [format(p.v, ".17g"), format(p.tau1, ".17g"), format(p.tau2, ".17g")]
            + [str(p.sign1), str(p.m1), str(p.sign2), str(p.m2)]
            + [format(p.residual, ".17g")]
            for p in points
        ]
        assert read_csv(out)[1] == expected
        if not kwargs:
            # Branches sharing a sample v within one (m1, sign1) group are
            # ordered by the tie-breaking keys alone.
            shared = Counter((p.m1, p.sign1, p.v) for p in points)
            assert max(shared.values()) > 1

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


# (|a| + |b|)**(1/alpha) overflows; the window holds no crossing on a line
# near tau1 = 1e-290.  In the second window about tau1*1e290 windings reach
# a line, far over the line search's table budget at tau1 = 0.1.
HUGE_BAND = [
    (["--a", "1e200", "--b=-3e200", "--alpha", "0.5"], ["--v-min", "1", "--v-max", "10"]),
    (["--a", "3.4e30", "--b=-3.5e30", "--alpha", "0.1"], ["--v-min", "1e289", "--v-max", "1e291"]),
]


class TestOverflowingBandEdge:
    @pytest.mark.parametrize("coef", [coef for coef, _ in HUGE_BAND])
    @pytest.mark.parametrize(
        "command", [["curves", "--out", "c.csv"], ["classify", "--tau1", "0.1", "--tau2", "0.1"]]
    )
    def test_default_window_is_a_usage_error(self, tmp_path, monkeypatch, capsys, coef, command):
        monkeypatch.chdir(tmp_path)
        assert main([*command, *coef]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fracdde: error: ") and err.count("\n") == 1
        assert "float range" in err

    @pytest.mark.parametrize("coef, window", HUGE_BAND)
    def test_explicit_window_curves(self, tmp_path, capsys, coef, window):
        out = tmp_path / "c.csv"
        assert main(["curves", *coef, *window, "--out", str(out)]) == 0
        assert out.read_text() == "v,tau1,tau2,sign1,m1,sign2,m2,residual\n"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("coef, window", HUGE_BAND)
    def test_explicit_window_classify(self, capsys, coef, window):
        assert main(["classify", *coef, *window, "--tau1", "1e-290", "--tau2", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "Stable" and doc["critical_tau2"] is None


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

    def test_max_branch_is_a_curves_option_only(self, tmp_path, capsys):
        # classify derives its winding range from the query; curves keeps
        # the option, which sets how much of the locus it plots.
        coef = ["--a", "1", "--b", "-3", "--alpha", "0.9"]
        assert main(["classify", *coef, "--tau1", "0.4", "--tau2", "0.5", "--max-branch", "3"]) == 1
        assert "unrecognized arguments: --max-branch 3" in capsys.readouterr().err
        out = tmp_path / "c.csv"
        window = ["--samples", "300", "--max-branch", "2"]
        assert main(["curves", *coef, *window, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == len(curve_columns(0.9, (1.0, -3.0), samples=300, max_branch=2).v)
        assert max(int(r[4]) for r in rows) == 2

    def test_line_search_over_budget_is_a_usage_error(self, capsys):
        # About 1.5 times the 2**22 table entries (see test_stability).
        argv = ["classify", "--a", "1", "--b", "-3", "--alpha", "1", "--tau1", "4e4", "--tau2", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fracdde: error: the line tau1 = 40000.0 can meet about")
        assert err.count("\n") == 1

    def test_curve_floor_fallback(self, tmp_path, capsys):
        # The tau1 = 0.5 line misses every branch in this window, so the
        # boundary is the lowest tau2 of the curves CSV for the same window.
        window = ["--a", "1", "--b", "-3", "--alpha", "1", "--v-min", "3.9", "--v-max", "4.0"]
        out = tmp_path / "curve.csv"
        assert main(["curves", *window, "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        assert header.split(",")[2] == "tau2"
        floor = min(float(line.split(",", 3)[2]) for line in lines)
        code, doc = self.run(["classify", *window, "--tau1", "0.5", "--tau2", "0.9"], capsys)
        assert code == 0
        assert doc["verdict"] == "Unstable"
        assert doc["critical_tau2"] == floor


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

    def test_parser_built_once_gives_fresh_results(self, capsys):
        runs = [
            ["equilibria", "--model", "ucar"],
            ["classify", "--a", "1", "--b", "-3", "--alpha", "0.9", "--tau1", "0.4"],
            ["classify", "--model", "ucar", "--x-star", "1", "--alpha", "0.9",
             "--tau1", "0.4", "--tau2", "0.5"],
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in runs:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        cli.build_parser.cache_clear()
        shared = [run(argv) for argv in runs]
        assert [code for code, _, _ in shared] == [0, 1, 0]
        assert "--tau2" in shared[1][2]
        assert shared == fresh
        assert cli.build_parser() is cli.build_parser()

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
