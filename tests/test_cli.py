"""Tests for the command-line front end: config validation, CSV schema,
plotting round trip, exit codes."""

import json
import math
import warnings

import pytest

from mmsenet.cli import CSV_COLUMNS, ConfigError, load_config, main

RHO_P = 0.01
R_T = math.sqrt(1.0 / (math.pi * RHO_P))


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "network": {"rho_p": RHO_P, "alpha": 4.0, "c": 50.0, "r_T": R_T},
        "model": {"name": "hc1", "h": 0.5 * R_T},
        "sweep": {"N": [2, 4]},
        "replications": 3,
        "master_seed": 11,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_loads_valid(self, tmp_path):
        spec = load_config(str(write_config(tmp_path / "c.json")))
        assert spec.n_values == (2, 4)
        assert spec.replications == 3
        assert spec.base.model.name == "hc1"

    def test_unknown_top_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json", extras=1)
        with pytest.raises(ConfigError, match="unknown key 'extras'"):
            load_config(str(p))

    def test_unknown_model_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json", model={"name": "hc1", "h": 1.0, "radius": 2})
        with pytest.raises(ConfigError, match="unknown key 'radius'"):
            load_config(str(p))

    def test_missing_network_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json", network={"rho_p": RHO_P, "alpha": 4.0, "c": 50.0})
        with pytest.raises(ConfigError, match="missing required key 'r_T'"):
            load_config(str(p))

    def test_schema_version_checked(self, tmp_path):
        p = write_config(tmp_path / "c.json", schema_version=2)
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(str(p))

    def test_syntax_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "schema_version": 1,\n  broken\n}')
        with pytest.raises(ConfigError, match=r":3:"):
            load_config(str(p))

    def test_list_parameter_expands_variants(self, tmp_path):
        p = write_config(tmp_path / "c.json", model={"name": "hc1", "h": [1.0, 2.0]})
        spec = load_config(str(p))
        assert [m.h for m in spec.variants] == [1.0, 2.0]

    @pytest.mark.parametrize(
        "overrides,message",
        [
            pytest.param(
                {"sweep": {"N": [2.7]}}, r"sweep\.N\[0\]: expected an integer, got 2\.7",
                id="N-float",
            ),
            pytest.param(
                {"sweep": {"N": [4, True]}}, r"sweep\.N\[1\]: expected an integer, got True",
                id="N-bool",
            ),
            pytest.param(
                {"sweep": {"N": ["4"]}}, r"sweep\.N\[0\]: expected an integer, got '4'",
                id="N-string",
            ),
            pytest.param(
                {"sweep": {"N": [4, 0]}}, r"sweep\.N\[1\]: must be >= 1, got 0", id="N-zero"
            ),
            pytest.param(
                {"model": {"name": "hc1", "h": "3"}},
                r"model\.h: expected a finite number, got '3'",
                id="h-string",
            ),
            pytest.param(
                {"model": {"name": "hc1", "h": [1.0, False]}},
                r"model\.h\[1\]: expected a finite number, got False",
                id="h-list-bool",
            ),
            pytest.param(
                {"model": {"name": "hc1", "h": []}},
                r"model\.h: a list needs at least one value",
                id="h-empty-list",
            ),
            pytest.param(
                {"model": {"name": "cellular", "rho_c": 0.001, "kappa": 3.0}},
                r"model\.kappa: expected an integer, got 3\.0",
                id="kappa-float",
            ),
            pytest.param(
                {"model": {"name": "cellular", "rho_c": 0.001, "kappa": 3, "power_control": 1}},
                r"model\.power_control: expected true or false, got 1",
                id="power_control-int",
            ),
            pytest.param(
                {"replications": True}, r"replications: expected an integer, got True",
                id="replications-bool",
            ),
            pytest.param(
                {"replications": 2.0}, r"replications: expected an integer, got 2\.0",
                id="replications-float",
            ),
            pytest.param(
                {"master_seed": False}, r"master_seed: expected an integer, got False",
                id="master_seed-bool",
            ),
            pytest.param(
                {"schema_version": True}, r"schema_version: expected 1, got True",
                id="schema_version-bool",
            ),
            pytest.param({"network": [1, 2]}, r"network: expected an object", id="network-list"),
        ],
    )
    def test_non_numbers_rejected_with_key_path(self, tmp_path, overrides, message):
        p = write_config(tmp_path / "c.json", **overrides)
        with pytest.raises(ConfigError, match=message):
            load_config(str(p))

    @pytest.mark.parametrize("key", ["rho_p", "alpha", "c", "r_T"])
    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "true", '"3"', "1e999"])
    def test_network_values_must_be_finite_numbers(self, tmp_path, key, literal):
        # json.dumps cannot write these, so splice the literal into the text
        p = write_config(tmp_path / "c.json")
        cfg = json.loads(p.read_text())
        cfg["network"][key] = "@"
        p.write_text(json.dumps(cfg).replace('"@"', literal))
        with pytest.raises(ConfigError, match=rf"network\.{key}: expected a finite number"):
            load_config(str(p))

    def test_huge_integer_literal_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        p.write_text(p.read_text().replace('"c": 50.0', '"c": 1' + "0" * 400))
        with pytest.raises(ConfigError, match=r"network\.c: expected a finite number"):
            load_config(str(p))

    def test_integer_literals_load_like_floats(self, tmp_path):
        a = load_config(str(write_config(tmp_path / "a.json")))
        b = load_config(
            str(write_config(
                tmp_path / "b.json",
                network={"rho_p": RHO_P, "alpha": 4, "c": 50, "r_T": R_T},
            ))
        )
        assert a == b

    def test_two_list_parameters_rejected(self, tmp_path):
        p = write_config(
            tmp_path / "c.json",
            model={"name": "boolean", "h": [1.0, 2.0], "rho_b": [0.01, 0.02]},
        )
        with pytest.raises(ConfigError, match="at most one parameter"):
            load_config(str(p))


    # exp(-735) rho_p is a subnormal density whose predicted rate overflows
    H_SUBNORMAL = math.sqrt(735.0 / (math.pi * RHO_P))

    @pytest.mark.parametrize(
        "overrides,message",
        [
            pytest.param(
                {"network": {"rho_p": RHO_P, "alpha": 4.0, "c": 1e300, "r_T": R_T}},
                r"network\.c, sweep\.N\[0\]: N x round\(c N\) at N=2, c=1e\+300 exceeds "
                r"the budget",
                id="c-1e300",
            ),
            pytest.param(
                {"sweep": {"N": [2, 2000]}},
                r"network\.c, sweep\.N\[1\]: N x round\(c N\) at N=2000, c=50 exceeds the budget",
                id="N-2000-c-50",
            ),
            pytest.param(
                {"sweep": {"N": [2, 10**400]}},
                r"network, sweep\.N\[1\]: cannot size or predict the point \(OverflowError",
                id="N-beyond-float",
            ),
            pytest.param(
                {"network": {"rho_p": 1e308, "alpha": 4.0, "c": 50.0, "r_T": R_T}},
                r"network, sweep\.N\[0\]: cannot size or predict the point \(ValueError: "
                r"cannot convert float NaN to integer\) at rho_p=1e\+308",
                id="rho_p-1e308",
            ),
            pytest.param(
                {"network": {"rho_p": 1e-300, "alpha": 4.0, "c": 50.0, "r_T": 1e-100}},
                r"network, sweep\.N\[0\]: cannot size or predict the point \(ZeroDivisionError"
                r".*\) at rho_p=1e-300, alpha=4, c=50, r_T=1e-100, N=2, model hc1 h=",
                id="rho_p-r_T-underflow",
            ),
            pytest.param(
                {"model": {"name": "hc1", "h": [1.0, H_SUBNORMAL]}},
                r"network, sweep\.N\[0\]: the asymptotic prediction is not finite at "
                r".* model hc1 h=152\.9",
                id="hc1-subnormal-density",
            ),
        ],
    )
    @pytest.mark.filterwarnings("ignore:c \\* nu")
    def test_every_sweep_point_checked_before_any_work(self, tmp_path, overrides, message):
        p = write_config(tmp_path / "c.json", **overrides)
        with pytest.raises(ConfigError, match=message):
            load_config(str(p))

    def test_unsized_sweep_point_exits_2_without_running(self, tmp_path, capsys, monkeypatch):
        from mmsenet import montecarlo

        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment called on an invalid config")

        monkeypatch.setattr(montecarlo, "run_experiment", refuse)
        p = write_config(
            tmp_path / "c.json",
            network={"rho_p": RHO_P, "alpha": 4.0, "c": 1e300, "r_T": R_T},
        )
        assert main(["simulate", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "network.c, sweep.N[0]" in captured.err


class TestSimulate:
    def test_csv_schema_and_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 3  # header + 2 sweep points
        row = dict(zip(CSV_COLUMNS.split(","), lines[1].split(",")))
        assert row["model"] == "hc1"
        assert row["N"] == "2"
        assert float(row["mean_rate"]) > 0
        assert float(row["asymptote"]) > 0
        assert row["seed"] == "11"

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", sweep={"N": [2]})
        assert main(["simulate", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_COLUMNS)

    def test_single_replication_smoke(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            model={"name": "independent"},
            sweep={"N": [1]},
            network={"rho_p": RHO_P, "alpha": 4.0, "c": 10.0, "r_T": R_T},
            replications=1,
        )
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        row = dict(zip(CSV_COLUMNS.split(","), lines[1].split(",")))
        assert row["std_rate"] == ""  # null at one replication
        assert row["sem"] == ""

    def test_seed_override_changes_numbers(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", sweep={"N": [2]})
        out1, out2, out3 = (tmp_path / f"r{i}.csv" for i in range(3))
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "12"])
        main(["simulate", "--config", str(cfg), "--out", str(out3), "--seed", "11"])
        assert out1.read_text() != out2.read_text()
        assert out1.read_text() == out3.read_text()

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1 = tmp_path / "t1.csv"
        out4 = tmp_path / "t4.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(out4), "--threads", "4"])
        assert out1.read_bytes() == out4.read_bytes()

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("{}")
        assert main(["simulate", "--config", str(p)]) == 2

    def test_failed_points_flagged_rows_exit_0(self, tmp_path):
        # boolean with h=0 never activates anyone: the covariance is always
        # singular, the row comes out flagged (empty statistics) but the run
        # still succeeds
        import warnings

        cfg = write_config(
            tmp_path / "c.json",
            model={"name": "boolean", "h": 0.0, "rho_b": RHO_P},
            network={"rho_p": RHO_P, "alpha": 4.0, "c": 2.0, "r_T": R_T},
            sweep={"N": [2]},
            replications=1,
        )
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        row = dict(zip(CSV_COLUMNS.split(","), out.read_text().strip().split("\n")[1].split(",")))
        assert row["mean_rate"] == ""
        assert row["rel_gap"] == ""
        assert row["predicted_density"] != ""


class TestAsymptoteCmd:
    def test_three_way_agreement_printed(self, capsys):
        assert main([
            "asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "1000000",
        ]) == 0
        out = capsys.readouterr().out
        lines = {l.split()[0] + l.split()[1] for l in out.strip().split("\n")}
        assert any("beta" in l for l in lines)
        # parse the three beta values and check 0.5% mutual agreement
        vals = [float(l.split()[-1]) for l in out.strip().split("\n")[:3]]
        lo, hi = min(vals), max(vals)
        assert (hi - lo) / lo < 5e-3

    def test_reuse_echo(self, capsys):
        assert main([
            "asymptote", "--alpha", "2.5", "--rho-p", "1.0", "--c", "50",
            "--n-branches", "4", "--rho-c", "0.0001",
        ]) == 0
        out = capsys.readouterr().out
        kappa_line = [l for l in out.split("\n") if "kappa*" in l][0]
        assert float(kappa_line.split()[-1]) == pytest.approx(1.005, abs=0.01)

    def test_no_bracket_exit_3(self, capsys):
        with pytest.warns(UserWarning):
            code = main([
                "asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "2",
                "--nu", "0.3",
            ])
        assert code == 3


class TestDensityCmd:
    def test_hc1_inside_band(self, capsys):
        # R ~ 134 h keeps the boundary bias well under the 3-sigma band
        code = main([
            "density", "--model", "hc1", "--rho-p", "0.01", "--c", "100",
            "--n-branches", "45", "--h", "2.8209479", "--replications", "200",
            "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert "inside" in out
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--model", "independent"], id="independent"),
            pytest.param(["--model", "hc1", "--h", "0"], id="hc1-h-0"),
            pytest.param(["--model", "hc2", "--h", "0"], id="hc2-h-0"),
            pytest.param(["--model", "hc2", "--h", "1e-8"], id="hc2-h-1e-8"),
            pytest.param(["--model", "hc2", "--h", "1e-300"], id="hc2-h-1e-300"),
        ],
    )
    def test_every_node_active(self, capsys, argv):
        # nu = 1 leaves no binomial scatter; the two densities differ by the
        # rounding of the disk area only, which must not count as a miss
        code = main(["density", "--rho-p", "0.01", "--c", "10", "--n-branches", "2",
                     "--replications", "3", *argv])
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted density  0.01\n" in out and "(inside)" in out


    @pytest.mark.parametrize(
        "argv,key",
        [
            pytest.param(["--model", "hc1", "--h", "5", "--kappa", "3"], "kappa", id="hc1-kappa"),
            pytest.param(["--model", "hc1", "--h", "5", "--rho-c", "0.001"], "rho_c",
                         id="hc1-rho_c"),
            pytest.param(["--model", "independent", "--h", "1"], "h", id="independent-h"),
            pytest.param(["--model", "cellular", "--rho-c", "0.001", "--kappa", "3",
                          "--rho-b", "0.01"], "rho_b", id="cellular-rho_b"),
        ],
    )
    def test_flag_the_model_does_not_take(self, capsys, monkeypatch, argv, key):
        from mmsenet import montecarlo

        def refuse(*args, **kwargs):
            raise AssertionError("density_estimate called despite an invalid flag")

        monkeypatch.setattr(montecarlo, "density_estimate", refuse)
        code = main(["density", "--rho-p", "0.01", "--c", "10", "--n-branches", "2", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"does not take {key}," in captured.err


class TestPlotCmd:
    def make_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "report.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        return out

    def test_round_trip_and_determinism(self, tmp_path):
        report = self.make_report(tmp_path)
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        assert main(["plot", "--report", str(report), "--out", str(svg1)]) == 0
        assert main(["plot", "--report", str(report), "--out", str(svg2)]) == 0
        assert svg1.read_bytes() == svg2.read_bytes()
        text = svg1.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text and "circle" in text

    def test_malformed_report_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,report\n1,2,3\n")
        assert main(["plot", "--report", str(bad), "--out", str(tmp_path / "x.svg")]) == 2
        assert not (tmp_path / "x.svg").exists()

    def test_empty_report_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(CSV_COLUMNS + "\n")
        assert main(["plot", "--report", str(empty), "--out", str(tmp_path / "y.svg")]) == 2
        assert not (tmp_path / "y.svg").exists()


class TestReuseOptCmd:
    def test_prints_kappa(self, capsys):
        assert main([
            "reuse-opt", "--alpha", "2.5", "--n-branches", "4",
            "--rho-p", "1.0", "--rho-c", "0.0001",
        ]) == 0
        out = capsys.readouterr().out
        assert float(out.split("\n")[0].split()[-1]) == pytest.approx(1.005, abs=0.01)


class TestArgumentErrors:
    """Invalid flags exit 2 and name the flag, with no traceback, before any
    simulation work starts."""

    @pytest.fixture
    def no_run(self, monkeypatch):
        from mmsenet import montecarlo

        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment called despite an invalid flag")

        monkeypatch.setattr(montecarlo, "run_experiment", refuse)

    def exit_code_and_stderr(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return exc.value.code, err

    def test_replications_zero(self, tmp_path, capsys, no_run):
        cfg = write_config(tmp_path / "c.json")
        code, err = self.exit_code_and_stderr(
            ["simulate", "--config", str(cfg), "--replications", "0"], capsys
        )
        assert code == 2
        assert "--replications" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_not_positive(self, tmp_path, capsys, no_run, threads):
        cfg = write_config(tmp_path / "c.json")
        code, err = self.exit_code_and_stderr(
            ["simulate", "--config", str(cfg), "--threads", threads], capsys
        )
        assert code == 2
        assert "--threads" in err

    def test_seed_negative(self, tmp_path, capsys, no_run):
        cfg = write_config(tmp_path / "c.json")
        code, err = self.exit_code_and_stderr(
            ["simulate", "--config", str(cfg), "--seed", "-1"], capsys
        )
        assert code == 2
        assert "--seed" in err

    def test_nu_above_one(self, capsys):
        code, err = self.exit_code_and_stderr(
            ["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100", "--nu", "1.5"],
            capsys,
        )
        assert code == 2
        assert "--nu" in err

    def test_format_flag_removed(self, tmp_path, capsys, no_run):
        cfg = write_config(tmp_path / "c.json")
        code, err = self.exit_code_and_stderr(
            ["simulate", "--config", str(cfg), "--format", "csv"], capsys
        )
        assert code == 2
        assert "--format" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            pytest.param(
                ["asymptote", "--alpha", "2", "--rho-p", "0.01", "--c", "100"], "--alpha",
                id="asymptote-alpha-2",
            ),
            pytest.param(
                ["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "-1"], "--c",
                id="asymptote-c-negative",
            ),
            pytest.param(
                ["asymptote", "--alpha", "4", "--rho-p", "0", "--c", "100"], "--rho-p",
                id="asymptote-rho_p-zero",
            ),
            pytest.param(
                ["asymptote", "--alpha", "nan", "--rho-p", "0.01", "--c", "100"], "--alpha",
                id="asymptote-alpha-nan",
            ),
            pytest.param(
                ["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100",
                 "--n-branches", "0"], "--n-branches",
                id="asymptote-n_branches-zero",
            ),
            pytest.param(
                ["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100",
                 "--n-branches", "4", "--r-t", "inf"], "--r-t",
                id="asymptote-r_t-inf",
            ),
            pytest.param(
                ["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100",
                 "--n-branches", "4", "--rho-c", "0"], "--rho-c",
                id="asymptote-rho_c-zero",
            ),
            pytest.param(
                ["reuse-opt", "--alpha", "4", "--n-branches", "0", "--rho-p", "1",
                 "--rho-c", "0.001"], "--n-branches",
                id="reuse-n_branches-zero",
            ),
            pytest.param(
                ["reuse-opt", "--alpha", "2", "--n-branches", "4", "--rho-p", "1",
                 "--rho-c", "0.001"], "--alpha",
                id="reuse-alpha-2",
            ),
            pytest.param(
                ["reuse-opt", "--alpha", "4", "--n-branches", "4", "--rho-p", "1",
                 "--rho-c", "-0.001"], "--rho-c",
                id="reuse-rho_c-negative",
            ),
            pytest.param(
                ["density", "--model", "independent", "--rho-p", "0", "--c", "10",
                 "--n-branches", "2"], "--rho-p",
                id="density-rho_p-zero",
            ),
            pytest.param(
                ["density", "--model", "boolean", "--rho-p", "0.01", "--c", "10",
                 "--n-branches", "2", "--h", "1", "--rho-b", "inf"], "--rho-b",
                id="density-rho_b-inf",
            ),
        ],
    )
    def test_asymptote_reuse_density_bounds(self, capsys, argv, flag):
        code, err = self.exit_code_and_stderr(argv, capsys)
        assert code == 2
        assert f"argument {flag}:" in err

    def test_negative_branches_fail_before_any_output(self, capsys):
        code, err = self.exit_code_and_stderr(
            ["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100",
             "--n-branches", "-3", "--r-t", "5.64"],
            capsys,
        )
        assert code == 2
        assert "--n-branches" in err
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv,given",
        [
            pytest.param(
                ["asymptote", "--alpha", "1e6", "--rho-p", "0.01", "--c", "100"],
                "--alpha 1000000.0",
                id="asymptote-alpha-overflow",
            ),
            pytest.param(
                ["asymptote", "--alpha", "300", "--rho-p", "0.01", "--c", "100",
                 "--n-branches", "4", "--r-t", "1e-3"],
                "--r-t 0.001",
                id="asymptote-rate-overflow",
            ),
            pytest.param(
                ["reuse-opt", "--alpha", "1e300", "--n-branches", "4", "--rho-p", "1",
                 "--rho-c", "0.001"],
                "--alpha 1e+300",
                id="reuse-alpha-underflow",
            ),
        ],
    )
    def test_out_of_range_values_exit_2_without_output(self, capsys, argv, given):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot evaluate at" in captured.err and given in captured.err

    @pytest.mark.parametrize(
        "argv,given",
        [
            pytest.param(["--model", "hc1", "--h", "1e308"], "--h 1e+308", id="hc1-h-1e308"),
            pytest.param(["--model", "hc1", "--h", "inf"], "--h inf", id="hc1-h-inf"),
            pytest.param(["--model", "hc2", "--h", "1e308"], "--h 1e+308", id="hc2-h-1e308"),
            pytest.param(["--model", "boolean", "--h", "0", "--rho-b", "0.01"],
                         "--h 0.0 --rho-b 0.01", id="boolean-h-0"),
            pytest.param(["--model", "cellular", "--rho-p", "1e-300", "--rho-c", "1e300",
                          "--kappa", "3"], "--rho-p 1e-300 --rho-c 1e+300 --kappa 3",
                         id="cellular-rho_c-1e300"),
        ],
    )
    def test_density_zero_limiting_density(self, capsys, monkeypatch, argv, given):
        from mmsenet import montecarlo

        def refuse(*args, **kwargs):
            raise AssertionError("density_estimate called despite a zero limiting density")

        monkeypatch.setattr(montecarlo, "density_estimate", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["density", "--rho-p", "0.01", "--c", "10", "--n-branches", "2",
                         "--replications", "2", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "limiting active density" in captured.err and given in captured.err

    @pytest.mark.parametrize("flag,value", [("--r-t", "5.64"), ("--rho-c", "0.001")])
    def test_asymptote_flag_needs_branches(self, capsys, flag, value):
        code = main(["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{flag} needs --n-branches" in captured.err

    def test_density_replications_zero(self, capsys):
        code, err = self.exit_code_and_stderr(
            ["density", "--model", "independent", "--rho-p", "0.01", "--c", "10",
             "--n-branches", "2", "--replications", "0"],
            capsys,
        )
        assert code == 2
        assert "--replications" in err
