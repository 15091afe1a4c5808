import json
import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import bivqf
from bivqf.cli import _digest, main
from bivqf.data import BUILTIN_DATASETS, PairedSample, ingest
from bivqf.errors import ParseError
from bivqf.model import MarginalParams, big_q1


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestIngest:
    def test_builtins(self):
        cable = ingest("cable")
        assert cable.n == 9
        assert cable.rows[0] == (5.1, 11.0)
        assert cable.rows[-1] == (37.3, 50.9)
        comp = ingest("components")
        assert comp.n == 20
        assert comp.rows[0] == (0.37, 6.93)

    def test_csv_with_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2\n1.5,2.5\n3.5,4.5\n", encoding="utf-8")
        s = ingest(p)
        assert s.rows == ((1.5, 2.5), (3.5, 4.5))

    def test_csv_without_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.5,2.5\n3.5,4.5\n", encoding="utf-8")
        assert ingest(p).n == 2

    def test_parse_error_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\nx,3.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            ingest(p)
        assert ":2:" in str(err.value)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest(p)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            ingest("no-such-thing.csv")


class TestPairedSample:
    @pytest.mark.parametrize("rows", [((1.0,),), ((1.0, "x"),), ((1.0, 2.0, 3.0),)])
    def test_malformed_rows(self, rows):
        with pytest.raises(ParseError):
            PairedSample.from_rows(rows)

    @pytest.mark.parametrize("x1, x2", [((), ()), ((1.0, 2.0), (3.0,)),
                                        ((1.0,), ("x",)), ((1.0, math.inf), (2.0, 3.0))])
    def test_malformed_columns(self, x1, x2):
        with pytest.raises(ParseError):
            PairedSample(x1, x2)

    def test_numpy_scalars_round_trip_through_csv(self, tmp_path):
        s = PairedSample((np.float64(1.5), np.float32(0.25)), (np.float64(2.5), np.int64(4)))
        p = tmp_path / "s.csv"
        p.write_text(s.to_csv(), encoding="utf-8")
        assert ingest(p).rows == s.rows == ((1.5, 2.5), (0.25, 4.0))

    def test_integers_digest_like_floats(self):
        assert _digest(PairedSample((1, 2), (3, 4))) == _digest(
            PairedSample((1.0, 2.0), (3.0, 4.0)))

    def test_columns_are_read_only_copies(self):
        x1 = np.array([1.0, 2.0])
        s = PairedSample(x1, x1)
        x1[0] = 9.0
        assert s.rows == ((1.0, 1.0), (2.0, 2.0))
        with pytest.raises(ValueError):
            BUILTIN_DATASETS["cable"].x1[0] = 0.0


def test_package_and_project_versions_agree():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == bivqf.__version__


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        code, _, _ = run(["fit", "--no-such-flag"], capsys)
        assert code == 64

    def test_unknown_subcommand_is_64(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 64

    def test_data_error_is_2(self, capsys):
        code, _, err = run(["fit", "--data", "missing.csv"], capsys)
        assert code == 2
        assert "data error" in err

    def test_bad_cell_is_2(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\noops,3.0\n", encoding="utf-8")
        code, _, err = run(["lmoments", "--data", str(p)], capsys)
        assert code == 2

    def test_data_directory_is_2(self, capsys, tmp_path):
        code, out, err = run(["fit", "--data", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("data error: ")
        assert str(tmp_path) in err

    def test_data_not_utf8_is_2(self, capsys, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("x1,x2\n1,2\n3,4\n# caf\u00e9\n".encode("latin-1"))
        code, out, err = run(["lmoments", "--data", str(p)], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("data error: ")
        assert str(p) in err and "UTF-8" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["lmoments", "fit"])
    def test_overflowing_data_is_3(self, command, capsys, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("x1,x2\n1e300,2e300\n1e305,3e304\n5e307,1e306\n"
                     "1.7e308,4e307\n3e306,8e307\n")
        code, out, err = run([command, "--data", str(p)], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "overflow" in err

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_nan_in_the_theta_search_is_3(self, command, capsys, monkeypatch):
        # the product moment turns NaN past theta = 0, where fit_theta's first
        # Newton step lands (cable's theta is positive; compare fits it first)
        real = bivqf.fit._product_moment

        def nan_past_zero(m1, m2, theta, cfg):
            value, slope = real(m1, m2, theta, cfg)
            return (value if theta == 0.0 else math.nan), slope

        monkeypatch.setattr(bivqf.fit, "_product_moment", nan_past_zero)
        code, out, err = run([command, "--data", "cable"], capsys)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert err.startswith("numeric failure: root search met a NaN function value at ")

    def test_competitor_solve_ending_off_its_root_is_3(self, capsys, monkeypatch):
        # a solve that stops at its first point, as one whose bracket closes
        # away from the root would: fit_mrq's last check refuses the d it ends at
        # (`fit` never fits the competitor)
        def first_point(h, lo, hi, x, cfg):
            h(x)
            return x

        monkeypatch.setattr(bivqf.fit, "_newton_bisect", first_point)
        code, out, err = run(["compare", "--data", "components"], capsys)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert err.startswith("error: no competitor matches the sample L-covariance ")
        assert "the solve on (d_min, d_max] = (" in err and "ended at d = 0, where" in err

    def test_ok_is_0(self, capsys):
        code, _, _ = run(["catalog"], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [["fit", "--data", "cable"], ["catalog"]])
    def test_closed_stdout_is_141_without_traceback(self, argv):
        # the read end is closed before the child starts, so its first
        # write to stdout fails, as when the reader of a pipe has exited
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        r, w = os.pipe()
        os.close(r)
        try:
            res = subprocess.run([sys.executable, "-m", "bivqf.cli", *argv], stdout=w,
                                 stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(w)
        assert res.returncode == 141
        assert res.stderr == ""


def assert_one_line_usage_error(code, out, err, *fragments):
    assert code == 64
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: ")
    for f in fragments:
        assert f in err


def no_work(*_args, **_kw):
    raise AssertionError("work ran before the usage error was reported")


class TestUsageErrors:
    def test_non_numeric_params(self, capsys):
        res = run(["comoments", "--data", "cable", "--params", "a,b,1,1,0,0,0.5"],
                  capsys)
        assert_one_line_usage_error(*res, "--params", "'a'")

    def test_catalog_case_missing_parameter(self, capsys):
        res = run(["comoments", "--data", "cable", "--catalog", "pareto2",
                   "--param", "c1=1"], capsys)
        assert_one_line_usage_error(*res, "pareto2", "d1")

    def test_catalog_case_names_every_missing_parameter(self, capsys):
        res = run(["catalog", "power", "--param", "a1=2"], capsys)
        assert_one_line_usage_error(*res, "'power' needs b1, a2, b2")

    def test_negative_seed(self, capsys, monkeypatch):
        import bivqf.cli as cli

        monkeypatch.setattr(cli, "draw", no_work)
        # Philox takes keys in [0, 2**128)
        for seed in ("-1", str(2 ** 128)):
            res = run(["sample", "--params", "1,0,0,1,0,0,0.5", "--n", "3",
                       "--seed", seed], capsys)
            assert_one_line_usage_error(*res, "--seed", seed)

    def test_zero_sample_size(self, capsys, monkeypatch):
        import bivqf.cli as cli

        monkeypatch.setattr(cli, "draw", no_work)
        res = run(["sample", "--params", "1,0,0,1,0,0,0.5", "--n", "0",
                   "--seed", "1"], capsys)
        assert_one_line_usage_error(*res, "--n", "0")

    def test_sample_size_numpy_cannot_allocate(self, capsys, monkeypatch):
        import bivqf.cli as cli

        monkeypatch.setattr(cli, "draw", no_work)
        # past the longest float64 array numpy can size: refused before any allocation
        for n in (str(2 ** 62), str(2 ** 63)):
            res = run(["sample", "--params", "1,0,0,1,0,0,0.5", "--n", n,
                       "--seed", "1"], capsys)
            assert_one_line_usage_error(*res, "--n", n)

    def test_params_with_wrong_count(self, capsys, monkeypatch):
        import bivqf.cli as cli

        monkeypatch.setattr(cli, "population_lcomoments", no_work)
        res = run(["comoments", "--data", "cable", "--params", "1,0,0,1,0,0"], capsys)
        assert_one_line_usage_error(*res, "--params", "7 values", "got 6")

    def test_negative_quadrature_tolerance(self, capsys, monkeypatch):
        import bivqf.cli as cli

        monkeypatch.setattr(cli, "fit_bivariate", no_work)
        for flag in ("--quad-tol", "--root-tol"):
            for tol in ("-1", "inf", "nan"):
                res = run(["fit", "--data", "cable", flag, tol], capsys)
                assert_one_line_usage_error(*res, flag, tol)

    def test_sample_without_model(self, capsys, monkeypatch):
        import bivqf.cli as cli

        monkeypatch.setattr(cli, "draw", no_work)
        res = run(["sample", "--n", "3", "--seed", "1"], capsys)
        assert_one_line_usage_error(*res, "--catalog", "--params")

    def test_catalog_parameter_out_of_range(self, capsys):
        res = run(["catalog", "power", "--param", "a1=-2", "--param", "b1=3",
                   "--param", "a2=0.8", "--param", "b2=1"], capsys)
        assert_one_line_usage_error(*res, "a1", "-2")

    def test_params_with_negative_theta(self, capsys, monkeypatch):
        import bivqf.cli as cli

        monkeypatch.setattr(cli, "draw", no_work)
        res = run(["sample", "--params", "1,0,0,1,0,0,-0.5", "--n", "2",
                   "--seed", "1"], capsys)
        assert_one_line_usage_error(*res, "--params", "theta", "-0.5")

    def test_catalog_with_negative_theta(self, capsys, monkeypatch):
        import bivqf.cli as cli

        monkeypatch.setattr(cli, "draw", no_work)
        res = run(["sample", "--catalog", "exponential", "--param", "c1=1",
                   "--param", "c2=1", "--theta", "-1", "--n", "2", "--seed", "1"],
                  capsys)
        assert_one_line_usage_error(*res, "theta", "-1")

    def test_catalog_unknown_parameter(self, capsys):
        res = run(["catalog", "exponential", "--param", "c1=1", "--param", "c2=2.5",
                   "--param", "c3=3"], capsys)
        assert_one_line_usage_error(*res, "c3", "c1, c2, theta")

    def test_theta_given_as_param(self, capsys):
        res = run(["catalog", "exponential", "--param", "c1=1", "--param", "c2=1",
                   "--param", "theta=0.5"], capsys)
        assert_one_line_usage_error(*res, "--theta")

    def test_out_in_missing_directory_fails_before_work(self, capsys, tmp_path,
                                                         monkeypatch):
        import bivqf.cli as cli

        def no_work(*_args, **_kw):
            raise AssertionError("reproduce ran before --out was checked")

        monkeypatch.setattr(cli, "_reproduce_rows", no_work)
        missing = tmp_path / "missing" / "x"
        res = run(["reproduce", "--out", str(missing)], capsys)
        assert_one_line_usage_error(*res, "--out", "missing")
        assert not missing.parent.exists()


    def test_report_target_is_directory(self, capsys, tmp_path):
        (tmp_path / "x.report.json").mkdir()
        res = run(["fit", "--data", "cable", "--out", str(tmp_path / "x")], capsys)
        assert_one_line_usage_error(*res, "cannot write", "x.report.json")

    def test_sample_target_is_directory(self, capsys, tmp_path):
        (tmp_path / "d.csv").mkdir()
        res = run(["sample", "--params", "1,0,0,1,0,0,0", "--n", "3", "--seed", "1",
                   "--out", str(tmp_path / "d.csv")], capsys)
        assert_one_line_usage_error(*res, "cannot write", "d.csv")


P_CABLE = "9.0819,-0.4864,-0.9946,29.2295,-0.3406,-0.3531,0.6821"


@pytest.mark.parametrize("argv, result_keys", [
    (["fit", "--data", "cable"],
     ["marginal1", "marginal2", "theta", "theta_bracket", "sample_lmoments_x1",
      "sample_lmoments_x2", "residuals"]),
    (["gof", "--data", "cable", "--params", P_CABLE],
     ["marginal1", "conditional_pooled", "model"]),
    (["lmoments", "--data", "cable", "--params", P_CABLE],
     ["x1", "x2", "model_x1", "model_x2"]),
    (["comoments", "--data", "cable", "--params", P_CABLE], ["sample", "population"]),
    (["compare", "--data", "components"],
     ["proposed", "competitor", "smaller_marginal_ks"]),
], ids=["fit", "gof", "lmoments", "comoments", "compare"])
def test_report_layout(capsys, argv, result_keys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["command", "version", "input", "numeric_config", "results",
                         "warnings"]
    assert list(rep["results"]) == result_keys
    # the two tolerances, and nothing derived from them
    assert rep["numeric_config"] == {"quad_rel_tol": 1e-8, "root_tol": 1e-12}


class TestCommands:
    def test_fit_cable_report(self, capsys):
        code, out, _ = run(["fit", "--data", "cable"], capsys)
        assert code == 0
        rep = json.loads(out)
        res = rep["results"]
        assert math.isclose(res["marginal1"]["c"], 9.0818665805, rel_tol=1e-6)
        assert math.isclose(res["marginal1"]["alpha"], -0.4863839, rel_tol=1e-5)
        assert math.isclose(res["theta"], 0.8919578, rel_tol=1e-5)
        assert rep["input"]["n"] == 9
        assert "numeric_config" in rep

    @pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 TiB for an array"])
    def test_out_of_memory_is_one_line_numeric_failure(self, capsys, monkeypatch, message):
        import bivqf.cli as cli

        def no_memory(*_args, **_kw):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "draw", no_memory)
        code, out, err = run(["sample", "--params", "1,0,0,1,0,0,0.5", "--n", "3",
                              "--seed", "1"], capsys)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and err.startswith("error: out of memory")
        assert message in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta2", ["30", "100"])
    def test_exact_sampler_on_a_steep_right_tail(self, beta2, capsys):
        # q2 underflows to 0 at the scan's last level, 1 - 1e-12, so Q2/q2
        # is infinite there; the sample comes out without a warning
        code, out, err = run(["sample", "--params", f"1,0.5,0.2,1,0.5,{beta2},2", "--n", "2000",
                              "--seed", "3", "--method", "exact"], capsys)
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert rows[0] == "x1,x2" and len(rows) == 2001
        x2 = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all((x2 > 0.0) & (x2 <= 3.0 * big_q1(MarginalParams(1.0, 0.5, float(beta2)), 1.0)))

    def test_fit_report_round_trips_losslessly(self, capsys):
        _, out, _ = run(["fit", "--data", "cable"], capsys)
        rep = json.loads(out)
        again = json.loads(json.dumps(rep))
        assert again == rep

    def test_gof_writes_files(self, capsys, tmp_path):
        stem = str(tmp_path / "cablegof")
        code, out, _ = run(
            ["gof", "--data", "cable",
             "--params", "9.0819,-0.4864,-0.9946,29.2295,-0.3406,-0.3531,0.6821",
             "--out", stem], capsys)
        assert code == 0
        rep = json.loads((tmp_path / "cablegof.report.json").read_text())
        assert math.isclose(rep["results"]["marginal1"]["d_point"],
                            0.0977065934, rel_tol=1e-6)
        qq = (tmp_path / "cablegof.qq1.tsv").read_text().strip().split("\n")
        assert qq[0] == "position\tempirical\tmodel"
        assert len(qq) == 10

    def test_gof_to_stdout_builds_no_qq_table(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("Q-Q table built for a report on stdout")

        monkeypatch.setattr("bivqf.cli.qq_data", refuse)
        code, out, _ = run(["gof", "--data", "cable"], capsys)
        assert code == 0
        assert "marginal1" in json.loads(out)["results"]

    def test_gof_per_point_mode(self, capsys):
        code, out, _ = run(
            ["gof", "--data", "components", "--mode", "per-point",
             "--params", "13.0499,0.8856,-0.1844,5.9257,0.3555,-0.6695,0.5492"],
            capsys)
        assert code == 0
        rep = json.loads(out)
        rows = rep["results"]["conditional_per_point"]
        assert len(rows) == 20
        assert math.isclose(rows[0]["d_point"], 0.1326272288, rel_tol=1e-6)

    def test_lmoments_command(self, capsys):
        code, out, _ = run(["lmoments", "--data", "components"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert math.isclose(rep["results"]["x1"]["l1"], 2.7975, rel_tol=1e-12)

    def test_comoments_command(self, capsys):
        code, out, _ = run(["comoments", "--data", "cable"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert math.isclose(rep["results"]["sample"]["rho12"], 0.8, rel_tol=1e-9)

    def test_sample_deterministic(self, capsys):
        args = ["sample", "--catalog", "exponential", "--param", "c1=1",
                "--param", "c2=1", "--theta", "0", "--n", "10", "--seed", "7"]
        code, out1, _ = run(args, capsys)
        assert code == 0
        _, out2, _ = run(args, capsys)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "x1,x2"
        assert len(lines) == 11

    def test_catalog_listing(self, capsys):
        code, out, _ = run(["catalog"], capsys)
        assert code == 0
        assert "loglogistic" in out
        code, out, _ = run(
            ["catalog", "loglogistic", "--param", "a1=2", "--param", "b1=3",
             "--param", "a2=2", "--param", "b2=3"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["mapped"]["marginal1"] == {"c": 6.0, "alpha": 1.0, "beta": -3.0}

    def test_compare_components(self, capsys):
        code, out, _ = run(["compare", "--data", "components"], capsys)
        assert code == 0
        rep = json.loads(out)
        res = rep["results"]
        assert res["smaller_marginal_ks"] == "proposed"
        assert res["proposed"]["d1"] < res["competitor"]["d1"]

    def test_compare_cable_refuses_competitor_fit(self, capsys):
        code, out, err = run(["compare", "--data", "cable"], capsys)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "a2 + c" in err

    def test_unreachable_quadrature_tolerance_is_3(self, capsys):
        # 1e-322's hundredth, the absolute floor, underflows to 0: as
        # unreachable as 1e-300, a numeric failure and not a usage error
        for tol in ("1e-300", "1e-322"):
            code, out, err = run(["fit", "--data", "cable", "--quad-tol", tol], capsys)
            assert (code, out) == (3, "")
            assert err.count("\n") == 1 and "quadrature tolerance" in err

    def test_reproduce_runs_offline_and_idempotent(self, capsys):
        code, out1, _ = run(["reproduce"], capsys)
        assert code == 0
        assert "reference" in out1
        assert "known irreproducible reference values:" in out1
        code, out2, _ = run(["reproduce"], capsys)
        assert out1 == out2


def refuse_constant(name):
    raise AssertionError(f"stdout holds {name}, which strict JSON lacks")


class TestStrictJson:
    """Reports are RFC 8259 JSON on edge data: no NaN or Infinity on stdout."""

    EDGE = {"constant-column": "x1,x2\n1,2\n1,3\n1,4\n1,5\n1,6\n",
            "zero-mean": "x1,x2\n-1,1\n1,2\n-2,3\n2,4\n"}

    def data(self, name, tmp_path):
        if name not in self.EDGE:
            return name
        path = tmp_path / f"{name}.csv"
        path.write_text(self.EDGE[name], encoding="utf-8")
        return str(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("data", ["constant-column", "zero-mean", "cable", "components"])
    @pytest.mark.parametrize("command", ["lmoments", "comoments", "fit", "gof"])
    def test_exit_code_and_strict_stdout(self, command, data, capsys, tmp_path):
        code, out, err = run([command, "--data", self.data(data, tmp_path)], capsys)
        assert code in (0, 2, 3)
        if code:
            assert out == "" and err.count("\n") == 1
        else:
            json.loads(out, parse_constant=refuse_constant)

    @pytest.mark.parametrize("data, nulls", [
        ("constant-column", {"tau3": "l2 = 0.0", "tau4": "l2 = 0.0"}),
        ("zero-mean", {"tau2": "l1 = 0.0"})])
    def test_undefined_ratio_is_null_with_a_warning(self, data, nulls, capsys, tmp_path):
        code, out, _ = run(["lmoments", "--data", self.data(data, tmp_path)], capsys)
        assert code == 0
        rep = json.loads(out, parse_constant=refuse_constant)
        x1 = rep["results"]["x1"]
        assert [k for k in ("tau2", "tau3", "tau4") if x1[k] is None] == list(nulls)
        assert all(v is not None for v in rep["results"]["x2"].values())
        assert rep["warnings"] == [f"x1: {k} is null, as {d}" for k, d in nulls.items()]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [5, 7, 9, 30])
    @pytest.mark.parametrize("value", ["1", "0.1", "0.3", "17.3", "1e-5", "123.456"])
    def test_every_constant_column_has_zero_l_scale(self, value, n, capsys, tmp_path):
        # the sums alone give l2 = 5.6e-17 on nine 0.3s and -1.4e-17 on thirty 0.1s
        path = tmp_path / "constant.csv"
        path.write_text("x1,x2\n" + "".join(f"{value},{i}\n" for i in range(2, n + 2)),
                        encoding="utf-8")
        code, out, _ = run(["lmoments", "--data", str(path)], capsys)
        rep = json.loads(out, parse_constant=refuse_constant)
        assert code == 0 and rep["results"]["x1"]["l2"] == 0.0
        assert rep["results"]["x1"]["tau3"] is None and rep["results"]["x1"]["tau4"] is None
        assert rep["warnings"] == [f"x1: {k} is null, as l2 = 0.0" for k in ("tau3", "tau4")]
        for command, message in (("comoments", "zero L-scale"),
                                 ("fit", "sample L-scale must be positive")):
            code, out, err = run([command, "--data", str(path)], capsys)
            assert (code, out) == (3, "")
            assert err.count("\n") == 1 and message in err

    def test_non_finite_report_is_3(self, capsys, monkeypatch):
        import bivqf.cli
        from bivqf.comoment import LComomentSet
        nan_set = LComomentSet(*[math.nan] * len(LComomentSet.__dataclass_fields__))
        monkeypatch.setattr(bivqf.cli, "sample_lcomoments", lambda s: nan_set)
        code, out, err = run(["comoments", "--data", "cable"], capsys)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "non-finite" in err


class TestRoundTrip:
    def _sample_and_fit(self, capsys, tmp_path, theta):
        path = str(tmp_path / "draws.csv")
        code, _, _ = run(
            ["sample", "--catalog", "power", "--param", "a1=2", "--param",
             "b1=1", "--param", "a2=0.5", "--param", "b2=1", "--theta",
             str(theta), "--n", "10000", "--seed", "4", "--method", "exact",
             "--out", path], capsys)
        assert code == 0
        code, out, _ = run(["fit", "--data", path], capsys)
        assert code == 0
        return json.loads(out)["results"]

    def test_independent_draws_recover_all_parameters(self, capsys, tmp_path):
        # generating values: m1 = (b/a, 1/a - 1, 0) = (0.5, -0.5, 0),
        # m2 = (2.0, 1.0, 0); at theta = 0 the sampler law and the fitted
        # family coincide exactly, so everything comes back within Monte
        # Carlo tolerance
        res = self._sample_and_fit(capsys, tmp_path, 0.0)
        assert abs(res["marginal1"]["c"] - 0.5) / 0.5 <= 0.10
        assert abs(res["marginal1"]["alpha"] - (-0.5)) / 0.5 <= 0.10
        assert abs(res["marginal1"]["beta"] - 0.0) <= 0.10
        assert abs(res["marginal2"]["c"] - 2.0) / 2.0 <= 0.10
        assert abs(res["marginal2"]["alpha"] - 1.0) / 1.0 <= 0.10
        assert abs(res["marginal2"]["beta"] - 0.0) <= 0.10
        assert abs(res["theta"]) <= 0.05

    def test_dependent_draws_recover_first_margin_and_theta(self, capsys,
                                                            tmp_path):
        # for theta > 0 no sampler can realize the product-form law
        # exactly; the clamped conditional keeps the first marginal and
        # the dependence strength recoverable, while the second margin
        # absorbs the clamp bias (documented below)
        res = self._sample_and_fit(capsys, tmp_path, 0.3)
        assert abs(res["marginal1"]["c"] - 0.5) / 0.5 <= 0.10
        assert abs(res["marginal1"]["alpha"] - (-0.5)) / 0.5 <= 0.10
        assert abs(res["marginal1"]["beta"] - 0.0) <= 0.10
        assert abs(res["theta"] - 0.3) <= 0.05
        # second-margin scale comes back low: the clamped law is
        # heavier-tailed than the nominal marginal
        assert 1.3 <= res["marginal2"]["c"] <= 2.0
