import json
import math
from collections import Counter

import numpy as np
import pytest

from fracdde import (
    SystemRhs,
    curve_columns,
    linearize,
    simulate,
    stability,
    ucar_rhs,
)
from fracdde import cli
from fracdde.cli import main
from oracles import (
    CurvePoint,
    assert_rescaled_locus,
    locus_rows,
    object_curve_points,
    phase_columns,
    rescaled,
)


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
        table = phase_columns(simulate(ucar_rhs(), 0.9, (0.4, 0.5), 5.0, 0.01, 0.8))
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
            pytest.param(0.4, 0.565685424949238, "1.5", id="0.4-0.565685424949238"),
            pytest.param(45.005, 0.0705, "1.5", id="45.005-0.0705"),
        ],
    )
    def test_csv_bytes_match_per_row_formatting(self, tmp_path, tau1, tau2, history):
        # Rows are written 4096 at a time, each state formatted once per
        # chunk; a delay of 4500 or 5000 steps puts a delayed column in a
        # window of its own.  A delay off the grid (the last two) has its
        # column interpolated.  The bytes must equal one "%.17g" row at a time.
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
        rhs = SystemRhs(g=lambda x1, x2: -0.5 * x1 + 0.3 * x2)
        table = phase_columns(simulate(rhs, 0.8, (tau1, tau2), 120.0, 0.01, float(history)))
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

    @pytest.mark.parametrize("name, value", [("a", "nan"), ("a", "inf"), ("b", "-inf")])
    def test_linear_model_refuses_nonfinite_coefficients(self, tmp_path, capsys, name, value):
        # Checked by the library's rule before the output file is opened.
        out = tmp_path / "x.csv"
        coef = {"a": "1", "b": "1", name: value}
        code = main(
            [
                "simulate",
                "--model", "linear", f"--a={coef['a']}", f"--b={coef['b']}",
                "--alpha", "0.9",
                "--tau1", "0.04", "--tau2", "0.05",
                "--T", "1", "--h", "0.01",
                "--history", "1",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr() == ("", f"fracdde: error: {name} must be finite, got {value}\n")
        assert not out.exists()

    def test_delay_shorter_than_the_step_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--model", "ucar",
                "--alpha", "0.9",
                "--tau1", "0.005", "--tau2", "0.5",
                "--T", "5", "--h", "0.01",
                "--history", "0.8",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "fracdde: error: delay 0.005 is shorter than the step h = 0.01\n"
        )

    def test_uncountable_steps_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--model", "ucar",
                "--alpha", "0.9",
                "--tau1", "0.4", "--tau2", "0.5",
                "--T", "1e300", "--h", "1e-300",
                "--history", "0.8",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "fracdde: error: delays (0.4, 0.5) and horizon 1e+300 span too many steps "
            "h = 1e-300 to count\n"
        )

    def test_unallocatable_horizon_exit_code(self, tmp_path, capsys):
        # 1e15 steps ask numpy for 7.11 PiB at once, which fails before any
        # memory is touched; the error is a usage error, not a traceback.
        out = tmp_path / "x.csv"
        code = main(
            [
                "simulate",
                "--model", "ucar",
                "--alpha", "0.9",
                "--tau1", "0.4", "--tau2", "0.5",
                "--T", "1e13", "--h", "0.01",
                "--history", "0.8",
                "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("fracdde: error: ") and err.count("\n") == 1
        assert not out.exists()

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

    def test_diverging_one_point_ikeda_run(self, tmp_path, capsys):
        # kmin = 3 steps: g is called on floats, and its sine meets an
        # infinite state as the run leaves the float range.
        out = tmp_path / "ikeda.csv"
        argv = [
            "simulate",
            "--model", "ikeda", "--c1", "30",
            "--alpha", "0.9",
            "--tau1", "0.03", "--tau2", "0.05",
            "--T", "50", "--h", "0.01",
            "--history", "2.5",
            "--out", str(out),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("state left the finite range at step 3277 ") and err.count("\n") == 1
        assert len(read_csv(out)[1]) == 3277

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
        rhs = SystemRhs(g=lambda x1, x2: 25.0 * x1 + 0.5 * x2)
        traj = simulate(rhs, 0.9, (0.1, 45.0), 100.0, 0.01, 1.0)
        assert traj.grid.k2 > 4096 and 4096 < traj.truncated_at < 8192
        table = phase_columns(traj)
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

    def test_overflowing_delays_are_not_written(self, tmp_path, capsys):
        # Over the subnormal frequencies of this window the delays of many
        # samples overflow: those rows are not written, and nothing warns.
        out = tmp_path / "s.csv"
        argv = ["curves", "--a", "1.1220184543019633", "--b=-1.1220184543019636",
                "--alpha", "0.05078125", "--v-min", "1e-308", "--v-max", "1e-300",
                "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        text = out.read_text()
        assert text.count("\n") > 1
        assert "inf" not in text and "nan" not in text

    def test_csv_bytes_match_per_value_formatting(self, tmp_path, monkeypatch):
        # The writer must print exactly what format(v, ".17g") and str(int)
        # print, signed zeros and extreme exponents included, row by row in
        # the order the library gives.  Values repeat across rows, as on the
        # real locus, and the tau2 column holds both zeros, which a dedupe by
        # float equality would print alike.
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
            for p in points
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


# (|a| + |b|)**(1/alpha) overflows.  The first window lies below the band;
# in the second the band starts at 1e290.  curves samples either window;
# classify searches the whole band and has no window.
HUGE_BAND = [
    (["--a", "1e200", "--b=-3e200", "--alpha", "0.5"], ["--v-min", "1", "--v-max", "10"]),
    (["--a", "3.4e30", "--b=-3.5e30", "--alpha", "0.1"], ["--v-min", "1e289", "--v-max", "1e291"]),
]


def huge_band_problem(coef, window):
    """``(alpha, (a, b), window)`` of a HUGE_BAND case, and the same problem
    rescaled to a window centred on 1 as ``(s, coef', window')``."""
    opts = " ".join(coef + window).replace("=", " ").split()
    o = dict(zip(opts[::2], map(float, opts[1::2])))
    problem = (o["--alpha"], (o["--a"], o["--b"]), (o["--v-min"], o["--v-max"]))
    return problem, rescaled(*problem)


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

    @pytest.mark.parametrize(
        "argv",
        [
            # The squares of the coefficients overflow, though the band is
            # finite: no count can be formed, and no verdict is printed.
            ["--a", "1e160", "--b=-3e160", "--tau1", "0", "--tau2", "1e-160"],
            ["--a", "1e154", "--b=-1.5e154", "--tau1", "1e-154", "--tau2", "1e-154"],
        ],
    )
    def test_overflowing_squares_are_a_usage_error(self, capsys, argv):
        assert main(["classify", *argv, "--alpha", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fracdde: error: ") and err.count("\n") == 1
        assert "float range" in err

    @pytest.mark.parametrize("coef, window", HUGE_BAND)
    def test_explicit_window_curves(self, tmp_path, capsys, coef, window):
        # The CSV holds the locus of the problem rescaled to a window
        # centred on 1, mapped back, to 1e-12 relative.
        out = tmp_path / "c.csv"
        assert main(["curves", *coef, *window, "--samples", "200", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out)
        assert header == list(CurvePoint._fields)
        (alpha, _, _), (s, scaled, scaled_window) = huge_band_problem(coef, window)
        want = curve_columns(alpha, scaled, v_range=scaled_window, samples=200)
        rows = np.array(rows, dtype=float).reshape(-1, 8)
        assert_rescaled_locus(rows, locus_rows(want), s, 1e-12)
        assert (len(rows) > 0) == (alpha == 0.1)

    @pytest.mark.parametrize("coef, window", HUGE_BAND)
    def test_explicit_window_classify(self, capsys, coef, window):
        # classify takes no window, so the one that curves samples is
        # refused; without it the band is beyond the float range (see
        # test_default_window_is_a_usage_error).
        argv = ["classify", *coef, *window, "--tau1", "1e-290", "--tau2", "0.1"]
        assert main(argv) == 1
        assert "unrecognized arguments: " + " ".join(window) in capsys.readouterr().err


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
        # One line scan per query gives both the boundary and the crossings
        # that the count adds up; at tau2 = 0.7 one pair has crossed to the
        # right and back.
        calls = []
        line_crossings = stability._line_crossings

        def counting(*args, **kwargs):
            calls.append(args)
            return line_crossings(*args, **kwargs)

        monkeypatch.setattr(stability, "_line_crossings", counting)
        for tau1, tau2 in (("0.4", "0.5"), ("1", "0.7")):
            code, doc = self.run(
                ["classify", "--a", "1", "--b", "-3", "--alpha", "0.9",
                 "--tau1", tau1, "--tau2", tau2],
                capsys,
            )
            assert code == 0
            assert doc["verdict"] == "Stable"
            assert len(calls) == 1
            calls.clear()
        assert doc["critical_tau2"] < 0.5

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
        # classify works its scan out from the query; curves keeps the
        # options, which set how much of the locus it plots and how finely.
        coef = ["--a", "1", "--b", "-3", "--alpha", "0.9"]
        for option in (["--max-branch", "3"], ["--samples", "500"]):
            assert main(["classify", *coef, "--tau1", "0.4", "--tau2", "0.5", *option]) == 1
            assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        out = tmp_path / "c.csv"
        window = ["--samples", "300", "--max-branch", "2"]
        assert main(["curves", *coef, *window, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == len(curve_columns(0.9, (1.0, -3.0), samples=300, max_branch=2).v)
        assert max(int(r[4]) for r in rows) == 2

    def test_line_search_over_budget_is_a_usage_error(self, capsys):
        # About 1.5 times the 2**18 frequencies allowed (see test_stability).
        argv = ["classify", "--a", "1", "--b", "-3", "--alpha", "1", "--tau1", "1e5", "--tau2", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fracdde: error: the line tau1 = 100000.0 needs about")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # At order 0.02 the crossing frequency u**(1/alpha) of a
            # coefficient this small is subnormal, where a complex power
            # overflows, or underflows to 0.
            ["--a=-3e-7", "--b", "1e-7", "--tau1", "1"],
            ["--a=-3e-7", "--b", "1e-7", "--tau1", "0"],
            ["--a=-1e-7", "--b", "0", "--tau1", "1"],
            ["--a", "0", "--b=-1e-7", "--tau1", "1"],
            # The first crossing on the line lies beyond the float range.
            ["--a", "1e-7", "--b=-3e-7", "--tau1", "1"],
        ],
    )
    def test_tiny_coefficients_are_a_usage_error(self, capsys, argv):
        assert main(["classify", *argv, "--alpha", "0.02", "--tau2", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fracdde: error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "float range" in err

    def test_subnormal_crossing_frequency_is_a_usage_error(self, capsys):
        # The band of these coefficients at order 0.02 is subnormal, and the
        # delay phase/v of its crossing overflows: one error line that
        # names it, and no numpy warning, which the suite turns into an
        # error.
        argv = ["classify", "--a", "1e-7", "--b=-3e-7", "--alpha", "0.02",
                "--tau1", "1", "--tau2", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fracdde: error: the crossing at v = ") and err.count("\n") == 1
        assert "on the line tau1 = 1.0 lies at tau2 = " in err and "beyond the float range" in err

    def test_line_through_a_tau1_axis_crossing(self, capsys):
        # A root sits on the axis at (tau1*, 0) and moves right as tau2
        # grows: the reference count is 2 at tau2 = 1e-3, and the first
        # crossing on the line is the corner itself.
        coef = ["--a=-3", "--b=-0.5", "--alpha", "0.8", "--tau1", "0.5624679864618456"]
        code, doc = self.run(["classify", *coef, "--tau2", "0.001"], capsys)
        assert code == 0
        assert (doc["verdict"], doc["critical_tau2"]) == ("Unstable", 0.0)
        code, doc = self.run(["classify", *coef, "--tau2", "0"], capsys)
        assert (code, doc["verdict"]) == (0, "OnBoundary")

    def test_band_below_the_default_window_floor(self, capsys):
        # The crossing band of these coefficients, about [1.9e-8, 1.5e-7],
        # lies below the default window's fixed lower end 1e-6, which the
        # line search does not use.  The value is the table search's on the
        # whole band as an explicit window.
        code, doc = self.run(
            ["classify", "--a", "0.00390625", "--b", "-0.015625", "--alpha", "0.25",
             "--tau1", "0.1", "--tau2", "1"],
            capsys,
        )
        assert code == 0
        assert doc["verdict"] == "Stable"
        assert doc["critical_tau2"] == pytest.approx(19677288.86819256, rel=1e-13)

    def test_missed_line_has_no_boundary(self, tmp_path, capsys):
        # The tau1 = 0.15 line misses every branch of the band, although the
        # curves CSV holds points below tau2 = 1: no root crosses on the way
        # to (0.15, 1), and no boundary lies above the line.
        coef = ["--a=-4.42", "--b", "0.0744", "--alpha", "0.556"]
        out = tmp_path / "curve.csv"
        assert main(["curves", *coef, "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        assert header.split(",")[2] == "tau2"
        assert min(float(line.split(",", 3)[2]) for line in lines) < 1.0
        code, doc = self.run(["classify", *coef, "--tau1", "0.15", "--tau2", "1"], capsys)
        assert code == 0
        assert doc["verdict"] == "Stable"
        assert doc["critical_tau2"] is None

    @pytest.mark.parametrize(
        "argv, verdict, boundary",
        [
            # Below the default window's fixed lower end 1e-6, and missed by
            # the line: the count needs no window.
            (["--a=-0.015625", "--b", "0.00390625", "--alpha", "0.25",
              "--tau1", "0.1", "--tau2", "1"], "Stable", None),
            # The stability switch on tau1 = 1: stable again above the
            # first crossing on the line.
            (["--model", "ucar", "--x-star", "1", "--alpha", "0.9",
              "--tau1", "1", "--tau2", "0.7"], "Stable", 0.39379713966451213),
            # b = 0 leaves one delay, tau* = pi*(1 - 0.45) = 1.728.
            (["--a", "-1", "--b", "0", "--alpha", "0.9", "--tau1", "2", "--tau2", "0.5"],
             "Unstable", None),
            (["--a", "-1", "--b", "0", "--alpha", "0.9", "--tau1", "1.5", "--tau2", "0.5"],
             "Stable", None),
            # 454 right-half-plane roots: crossings recur about every 1.5e-6
            # in tau2 on this line, far more than rounding of tau2 apart.
            (["--a", "7.64", "--b=-20.23", "--alpha", "0.2188", "--tau1", "0.0003",
              "--tau2", "0.001"], "Unstable", 6.913734760987828e-07),
        ],
    )
    def test_verdict_is_the_root_count(self, capsys, argv, verdict, boundary):
        code, doc = self.run(["classify", *argv], capsys)
        assert code == 0
        assert doc["verdict"] == verdict
        assert doc["critical_tau2"] == boundary

    @pytest.mark.parametrize(
        "option",
        [["--v-min", "1", "--v-max", "2"], ["--tolerance", "0"]],
        ids=["window", "tolerance"],
    )
    def test_window_options_are_rejected(self, capsys, option):
        # classify searches the whole crossing band: it takes no window, and
        # a point is OnBoundary only within rounding of a crossing, with no
        # band to set.
        argv = ["classify", "--a", "1", "--b", "-3", "--alpha", "0.9", "--tau1", "0.4",
                "--tau2", "0.5", *option]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in err

    @pytest.mark.parametrize(
        "delays, verdict", [(("0.4", "0.5"), "Unstable"), (("0", "0"), "UnstableAtZeroDelays")]
    )
    def test_vanishing_coefficient_unstable_at_zero(self, capsys, delays, verdict):
        # ucar at x* = 0 linearizes to (1, -0.0): a + b = 1 > 0 settles the
        # verdict before any crossing is counted.
        code, doc = self.run(
            ["classify", "--model", "ucar", "--x-star", "0", "--alpha", "0.9",
             "--tau1", delays[0], "--tau2", delays[1]],
            capsys,
        )
        assert code == 0
        assert doc["verdict"] == verdict
        assert doc["critical_tau2"] is None
        assert (doc["a"], doc["b"]) == (1.0, 0.0)


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

    def test_overflowing_gains_warn_nothing(self, capsys):
        # g(x, x) overflows at every sample but 0; Python floats overflow
        # to inf without the numpy warning the suite turns into an error.
        argv = ["equilibria", "--model", "ikeda", "--c1", "1e308", "--c2", "1e308"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == [{"x_star": 0.0, "a": 1e308, "b": 1e308, "stable_at_zero": False}]

    def test_custom_bracket(self, capsys):
        code = main(["equilibria", "--model", "ikeda", "--bracket", "-3", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 3

    def test_bracket_wider_than_the_float_range_is_a_usage_error(self, capsys):
        # argparse reads -1e308 as an option; -1 followed by 308 zeros is the
        # same float.  The width overflows: one error line, and no numpy
        # warning, which the suite turns into an error.
        argv = ["equilibria", "--model", "ucar", "--bracket", "-1" + "0" * 308, "1e308"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fracdde: error: the width of bracket (-1e+308, 1e+308) ")
        assert err.count("\n") == 1 and "float range" in err

    def test_wide_bracket_lists_no_point_where_g_is_not_finite(self, capsys):
        # The width 1.7e308 is a float, and every scan value is +-inf: the
        # point the refiner stops at is no root, and nothing is listed.
        argv = ["equilibria", "--model", "ucar", "--bracket", "-1" + "0" * 308, "7e307"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == [] and err == ""


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

    def test_library_defaults_are_passed_on_only_when_given(self, tmp_path, monkeypatch, capsys):
        # --samples, --max-branch and --resolution reach the library only
        # when given, so each default has one copy, in the library.
        calls = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                calls.append(sorted(kwargs))
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(cli, "curve_columns", recording(cli.curve_columns))
        monkeypatch.setattr(cli, "find_equilibria", recording(cli.find_equilibria))
        curves = ["curves", "--a", "1", "--b", "-3", "--alpha", "0.9", "--out", str(tmp_path / "c.csv")]
        assert main(curves) == 0
        assert main([*curves, "--samples", "300", "--max-branch", "2"]) == 0
        assert main(["equilibria", "--model", "ucar"]) == 0
        assert main(["equilibria", "--model", "ucar", "--resolution", "101"]) == 0
        assert calls == [["v_range"], ["max_branch", "samples", "v_range"], [], ["resolution"]]
