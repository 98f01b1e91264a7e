"""Tests for the command-line front end: config validation, CSV schema,
plotting round trip, exit codes."""

import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import pytest

from mmsenet.asymptotics import AsymptoticParams, rate_approx, solve_beta_fixed_point
from mmsenet.cli import CSV_COLUMNS, ConfigError, _build_parser, load_config, main
from mmsenet.montecarlo import derive_seed, run_realization

RHO_P = 0.01
R_T = math.sqrt(1.0 / (math.pi * RHO_P))


# c * nu = 0.667 <= 1: the regime in which the covariance is often singular
REGIME_MODEL = {"name": "cellular", "rho_c": 0.001, "kappa": 3}
REGIME_NETWORK = {"rho_p": RHO_P, "alpha": 4.0, "c": 20.0, "r_T": R_T}
POWER_CONTROLLED = {"name": "cellular", "rho_c": 0.001, "kappa": 3, "power_control": True}


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
            # 40 nodes, but a block's 25 x 4000^2 complex covariances (6.4 GB)
            pytest.param(
                {"network": {"rho_p": RHO_P, "alpha": 4.0, "c": 0.01, "r_T": R_T},
                 "sweep": {"N": [4000]}},
                r"^sweep\.N\[0\]: the covariance stack, 25 x N\^2 at N=4000, exceeds the "
                r"budget of 1e\+08 entries$",
                id="N-4000-c-0.01",
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
    def test_every_sweep_point_checked_before_any_work(self, tmp_path, overrides, message):
        p = write_config(tmp_path / "c.json", **overrides)
        with pytest.raises(ConfigError, match=message):
            load_config(str(p))

    @pytest.mark.parametrize(
        "overrides,key",
        [
            pytest.param({"network": {"rho_p": RHO_P, "alpha": 4.0, "c": 1e300, "r_T": R_T}},
                         "network.c, sweep.N[0]: N x round(c N)", id="nodes"),
            pytest.param({"model": {"name": "boolean", "h": 1, "rho_b": 1e300}},
                         "model.rho_b, sweep.N[0]: round(pi rho_b R^2)", id="clusters"),
            # R/s about 2^504: float64 positions resolve no cell, and the
            # int64 cast of the rounded cell coordinates would overflow
            pytest.param({"model": {"name": "cellular", "rho_c": 1e300, "kappa": 3},
                          "sweep": {"N": [2]}, "replications": 5},
                         "model.rho_c, sweep.N[0]: the disk radius is 5.25e+151 station "
                         "spacings", id="cells"),
            # a station spacing that overflows: R / s = 0 would pass the cell range
            pytest.param({"network": {"rho_p": 1e-299, "alpha": 4, "c": 800, "r_T": 1},
                          "model": {"name": "cellular", "rho_c": 5e-324, "kappa": 3},
                          "sweep": {"N": [4]}},
                         "model.rho_c, sweep.N[0]: the station spacing at N=4, c=800, "
                         "rho_c=4.94065646e-324 is inf", id="spacing"),
            # no node at all (round(c N) = 0), and a stack of 25 x 10^36 covariance entries
            pytest.param({"network": {"rho_p": 1, "alpha": 4, "c": 1e-300, "r_T": 1},
                          "model": {"name": "independent"}, "sweep": {"N": [10**18]},
                          "replications": 2},
                         "sweep.N[0]: the covariance stack", id="covariances"),
        ],
    )
    def test_unsized_sweep_point_exits_2_without_running(
        self, tmp_path, capsys, monkeypatch, overrides, key
    ):
        from mmsenet import montecarlo

        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment called on an invalid config")

        monkeypatch.setattr(montecarlo, "run_experiment", refuse)
        p = write_config(tmp_path / "c.json", **overrides)
        assert main(["simulate", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err and captured.err.count("\n") == 1

    def test_load_config_is_silent_below_the_regime(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", model=REGIME_MODEL, network=REGIME_NETWORK)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            spec = load_config(str(p))
        # loading states nothing about c * nu <= 1 at any point; its caller,
        # simulate, names the regime (test_regime_printed_once)
        assert record == []
        assert capsys.readouterr() == ("", "")
        assert all(point.c * point.nu_expected <= 1.0 for point in spec.point_configs())


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

    def test_replications_override_equals_the_config_value(self, tmp_path):
        over = write_config(tmp_path / "c3.json", sweep={"N": [2]}, replications=3)
        direct = write_config(tmp_path / "c5.json", sweep={"N": [2]}, replications=5)
        out_over, out_direct = tmp_path / "over.csv", tmp_path / "direct.csv"
        main(["simulate", "--config", str(over), "--out", str(out_over), "--replications", "5"])
        main(["simulate", "--config", str(direct), "--out", str(out_direct)])
        assert out_over.read_bytes() == out_direct.read_bytes()

    def test_regime_printed_once(self, tmp_path, capsys):
        # kappa 3 has c * nu = 0.667, kappa 1 has 2: one line for the kappa 3
        # variant, not one per N, before the rest of stderr
        model = {**REGIME_MODEL, "kappa": [3, 1]}
        p = write_config(tmp_path / "c.json", model=model, network=REGIME_NETWORK,
                         replications=1)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "r.csv")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "c * nu" in line] == err[:1]
        assert err[0].startswith("simulate: c * nu = 0.6666 <= 1 for model cellular "
                                 "rho_c=0.001;kappa=3;pc=0: ")
        # a run that exits 2, here at the last check, opening --out, states no regime
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("simulate: --out: cannot write") and err.count("\n") == 1

    @pytest.mark.parametrize("overrides", [
        {},
        # blocks of 25: three per point, on a pool of two
        {"model": {"name": "hc2", "h": 0.5 * R_T}, "sweep": {"N": [2]}, "replications": 60},
        # cells decided in float32, only the winners placed in float64
        {"network": {"rho_p": RHO_P, "alpha": 4.0, "c": 200.0, "r_T": R_T},
         "model": POWER_CONTROLLED, "sweep": {"N": [2]}, "replications": 60},
    ], ids=["hc1", "hc2", "cellular-power-control"])
    def test_threads_do_not_change_bytes(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "c.json", **overrides)
        out1 = tmp_path / "t1.csv"
        out4 = tmp_path / "t4.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(out4), "--threads", "4"])
        assert out1.read_bytes() == out4.read_bytes()

    def test_summary_counts_redraws(self, tmp_path, capsys):
        # a sparse Boolean sweep (c * nu barely above 1) whose replications
        # 13, 16 and 26 redraw; the CSV is unchanged, stderr counts them
        h = math.sqrt(0.14 / (math.pi * RHO_P))
        cfg = write_config(
            tmp_path / "c.json",
            model={"name": "boolean", "h": h, "rho_b": RHO_P},
            network={"rho_p": RHO_P, "alpha": 4.0, "c": 10.0, "r_T": R_T},
            sweep={"N": [16]},
            replications=30,
        )
        point = load_config(str(cfg)).point_configs()[0]
        redraws = sum(run_realization(point, derive_seed(11, 0, r)).redraw_count
                      for r in range(30))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert redraws > 0
        assert capsys.readouterr().err.endswith(f", 0 failed points, {redraws} redraws)\n")

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("{}")
        assert main(["simulate", "--config", str(p)]) == 2

    def test_failed_points_flagged_rows_exit_0(self, tmp_path):
        # boolean with h=0 never activates anyone: the covariance is always
        # singular, the row comes out flagged (empty statistics) but the run
        # still succeeds
        cfg = write_config(
            tmp_path / "c.json",
            model={"name": "boolean", "h": 0.0, "rho_b": RHO_P},
            network={"rho_p": RHO_P, "alpha": 4.0, "c": 2.0, "r_T": R_T},
            sweep={"N": [2]},
            replications=1,
        )
        out = tmp_path / "r.csv"
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

    def test_rate_line(self, capsys):
        assert main([
            "asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100",
            "--n-branches", "8", "--r-t", "5.64",
        ]) == 0
        params = AsymptoticParams(rho_p=0.01, c=100.0, alpha=4.0)
        rate_fp = solve_beta_fixed_point(params).rate(8, 5.64)
        rate_lc = rate_approx(8, params.rho, 4.0, 5.64)
        assert (f"rate at N=8, r_T=5.64: fixed point {rate_fp:.9g}, "
                f"large-c {rate_lc:.9g} bits/symbol\n") in capsys.readouterr().out

    def test_no_bracket_exit_3(self, capsys):
        code = main([
            "asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "2", "--nu", "0.3",
        ])
        assert code == 3
        # the regime is reported once, by these two lines
        assert capsys.readouterr().err == (
            "no solution: c * nu = 0.6 <= 1: the fixed point has no positive solution "
            "(fewer active interferers than branches)\n"
            "parameters: rho_p=0.01 nu=0.3 c=2.0 alpha=4.0\n"
        )

    @pytest.mark.parametrize(
        "alpha,c,root",
        [
            # the oracle's bracket probes gamma far below the root; mpmath 50
            # digits of the closed-form roots
            ("2.2", "1.0000001", 214247555.9662712293256399),
            ("4", "1.000000001", 337737251268.5718553524),
        ],
    )
    def test_next_to_unit_c(self, capsys, alpha, c, root):
        assert main(["asymptote", "--alpha", alpha, "--rho-p", "0.01", "--c", c]) == 0
        out = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines())
        assert float(out["beta (fixed point)"]) == pytest.approx(root, rel=1e-6)
        assert float(out["beta (quadrature oracle)"]) == pytest.approx(root, rel=1e-6)
        assert float(out["rel diff fp vs oracle"]) < 1e-6


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

    def test_outside_exits_1(self, capsys):
        # round(c N) = 2 independent nodes on an area of c N / rho_p = 250:
        # 0.008 against 0.01 on every replication, a deterministic OUTSIDE
        code = main(["density", "--model", "independent", "--rho-p", "0.01", "--c", "2.5",
                     "--n-branches", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "relative error     0.2\n" in out and "(OUTSIDE)" in out

    @pytest.mark.parametrize(
        "argv,given",
        [
            pytest.param(["--model", "independent", "--c", "1e300"],
                         "--c, --n-branches: N x round(c N)", id="nodes"),
            pytest.param(["--model", "boolean", "--c", "10", "--h", "1", "--rho-b", "1e300"],
                         "--rho-b: round(pi rho_b R^2)", id="clusters"),
            pytest.param(["--model", "independent", "--c", "1e308", "--rho-p", "1e-10"],
                         "cannot evaluate at --rho-p 1e-10 --c 1e+308", id="overflow"),
            # the same point as test_unsized_sweep_point_exits_2_without_running's
            pytest.param(["--model", "cellular", "--rho-c", "1e300", "--kappa", "3",
                          "--c", "50", "--replications", "5"],
                         "--rho-c: the disk radius is 5.25e+151 station spacings", id="cells"),
            pytest.param(["--model", "cellular", "--rho-c", "1e-310", "--kappa", "1",
                          "--c", "50", "--replications", "2"],
                         "--rho-c: the station spacing at N=2, c=50, rho_c=1e-310 is inf",
                         id="spacing"),
        ],
    )
    def test_size_budget(self, capsys, monkeypatch, argv, given):
        from mmsenet import montecarlo

        def refuse(*args, **kwargs):
            raise AssertionError("density_estimate called beyond the size budget")

        monkeypatch.setattr(montecarlo, "density_estimate", refuse)
        code = main(["density", "--rho-p", "0.01", "--n-branches", "2", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert given in captured.err and captured.err.count("\n") == 1

    def test_density_has_no_covariance_budget(self, capsys):
        # 40 nodes at N = 4000, a point that simulate rejects for its covariances
        code = main(["density", "--model", "independent", "--rho-p", "0.01", "--c", "0.01",
                     "--n-branches", "4000", "--replications", "2"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "inside" in captured.out
        assert captured.err == ""  # c * nu = 0.01: density states no regime

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

    @pytest.mark.parametrize(
        "argv",
        [
            # the disk area underflows to 0, and so would the density's divisor
            pytest.param(["--rho-p", "1e300", "--c", "1e-300", "--replications", "2"],
                         id="area-underflow"),
            pytest.param(["--rho-p", "0.01", "--c", "0.01"], id="round-to-zero"),
        ],
    )
    def test_empty_network(self, capsys, monkeypatch, argv):
        from mmsenet import montecarlo

        def refuse(*args, **kwargs):
            raise AssertionError("density_estimate called on an empty network")

        monkeypatch.setattr(montecarlo, "density_estimate", refuse)
        code = main(["density", "--model", "independent", "--n-branches", "1", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("density: --c, --n-branches: round(c N) = 0 at N=1")


class TestPlotCmd:
    def make_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "report.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        return out

    ROW = {
        "model": "hc1", "N": "2", "c": "50", "alpha": "4", "rho_p": "0.01",
        "model_params": "h=2.82", "mean_rate": "3.5", "std_rate": "1.2", "sem": "0.69",
        "asymptote": "3.9", "rel_gap": "0.1", "empirical_density": "0.0063",
        "predicted_density": "0.0063", "seed": "11",
    }

    def write_report(self, tmp_path, *rows):
        """A report with one line per row, each a dict of fields that differ from ROW."""
        lines = [CSV_COLUMNS]
        for row in rows:
            fields = {**self.ROW, **row}
            lines.append(",".join(fields[col] for col in CSV_COLUMNS.split(",")))
        path = tmp_path / "report.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def plot(self, report, svg, *flags):
        return main(["plot", "--report", str(report), "--out", str(svg), *flags])

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

    @pytest.mark.parametrize(
        "column,text",
        [("mean_rate", "abc"), ("mean_rate", "inf"), ("std_rate", "nan"), ("N", ""),
         ("asymptote", "1e999")],
    )
    def test_field_not_a_finite_number_exit_2(self, tmp_path, capsys, column, text):
        report = self.write_report(tmp_path, {}, {"N": "4", column: text})
        assert self.plot(report, tmp_path / "x.svg") == 2
        assert capsys.readouterr().err == (
            f"plot: line 3, column {column}: expected a finite number, got {text!r}\n"
        )
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "column,text,lo,hi",
        [("mean_rate", "1e308", 0, 1024), ("mean_rate", "-1e308", 0, 1024),
         ("std_rate", "-0.5", 0, 1024), ("asymptote", "2000", 0, 1024), ("N", "0", 1, "inf")],
    )
    def test_field_out_of_range_exit_2(self, tmp_path, capsys, column, text, lo, hi):
        # mean rates of 1e308 and -1e308 overflowed the chart's rate span
        report = self.write_report(tmp_path, {}, {"N": "4", column: text})
        assert self.plot(report, tmp_path / "x.svg") == 2
        assert capsys.readouterr().err == (
            f"plot: line 3, column {column}: expected a number in [{lo}, {hi}], got {text!r}\n"
        )
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("n_values", [("1e17",), ("1e17", "100000000000000016")])
    def test_huge_n_renders(self, tmp_path, n_values):
        # N = 1e17 alone gave a zero-width axis (1e17 + 1 == 1e17), and a
        # tick step below the spacing of doubles there never advanced
        svg = tmp_path / "x.svg"
        report = self.write_report(tmp_path, *({"N": n} for n in n_values))
        assert self.plot(report, svg) == 0
        text = svg.read_text()
        assert text.count("<circle") == len(n_values) and "nan" not in text

    def test_overlay_skips_points_without_asymptote(self, tmp_path):
        report = self.write_report(
            tmp_path, {"N": "2"}, {"N": "4", "asymptote": ""}, {"N": "8", "asymptote": "4.5"}
        )
        svg = tmp_path / "x.svg"
        assert self.plot(report, svg) == 0
        text = svg.read_text()
        assert "nan" not in text
        overlay = [line for line in text.splitlines()
                   if line.startswith("<polyline") and 'stroke-width="1.0"' in line]
        assert len(overlay) == 1 and overlay[0].split('"')[1].count(",") == 2

    def test_failed_rows_skipped(self, tmp_path, capsys):
        failed = {"mean_rate": "", "std_rate": "", "sem": "", "rel_gap": ""}
        report = self.write_report(tmp_path, {"N": "2"}, {"N": "4", **failed},
                                   {"N": "8", **failed})
        assert self.plot(report, tmp_path / "x.svg") == 0
        assert "skipped 2 failed rows" in capsys.readouterr().err

    def test_every_row_failed_exit_2(self, tmp_path, capsys):
        report = self.write_report(tmp_path, {"mean_rate": "", "std_rate": ""})
        assert self.plot(report, tmp_path / "x.svg") == 2
        assert capsys.readouterr().err == "plot: no plottable rows\n"
        assert not (tmp_path / "x.svg").exists()

    def test_single_n_renders(self, tmp_path):
        svg = tmp_path / "x.svg"
        assert self.plot(self.write_report(tmp_path, {}), svg) == 0
        assert svg.read_text().count("<circle") == 1

    def test_title_escaped(self, tmp_path):
        svg = tmp_path / "x.svg"
        assert self.plot(self.write_report(tmp_path, {}), svg, "--title", "a<b & c") == 0
        assert ">a&lt;b &amp; c</text>" in svg.read_text()


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

    @pytest.mark.parametrize("command", ["simulate", "plot"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out(self, tmp_path, capsys, no_run, command, where):
        out = tmp_path / "missing" / "x.out" if where == "missing-dir" else tmp_path
        if command == "simulate":
            argv = ["simulate", "--config", str(write_config(tmp_path / "c.json"))]
        else:
            argv = ["plot", "--report", str(TestPlotCmd().write_report(tmp_path, {}))]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{command}: --out: cannot write: ")
        assert str(out) in captured.err and "Traceback" not in captured.err

    def test_nu_above_one(self, capsys):
        code, err = self.exit_code_and_stderr(
            ["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100", "--nu", "1.5"],
            capsys,
        )
        assert code == 2
        assert "--nu" in err

    @pytest.mark.parametrize(
        "overrides",
        [
            # r_T^-alpha overflows in the SIR scale
            pytest.param({"network": {"rho_p": 1e200, "alpha": 4, "c": 50, "r_T": 1e-101},
                          "model": {"name": "hc1", "h": 1e-101}},
                         id="hc1-r_T-1e-101"),
            # the power-controlled signal weight r_T^alpha overflows
            pytest.param({"network": {"rho_p": 1e-200, "alpha": 4, "c": 200, "r_T": 1e100},
                          "model": {"name": "cellular", "rho_c": 1e-201, "kappa": 3,
                                    "power_control": True}},
                         id="cellular-r_T-1e100"),
            # the SIR scale is 1, but nodes some 1e-150 from the receiver
            # receive r^-4 = inf: the covariance would be NaN
            pytest.param({"network": {"rho_p": 1e300, "alpha": 4, "c": 50, "r_T": 1},
                          "model": {"name": "independent"}},
                         id="independent-interferer-power-rho_p-1e300"),
        ],
    )
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sir_scale_overflow(self, tmp_path, capsys, no_run, overrides, threads):
        cfg = write_config(tmp_path / "c.json", sweep={"N": [2]}, **overrides)
        assert main(["simulate", "--config", str(cfg), "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(
            "simulate: network, sweep.N[0]: cannot size or predict the point (OverflowError"
        )

    @pytest.mark.parametrize("r_t", [1e100, 1e77], ids=["zero", "subnormal"])
    def test_sir_scale_underflow(self, tmp_path, capsys, no_run, r_t):
        # r_T^-alpha is 1e-400 -> 0.0 or the subnormal 1e-308: every SIR
        # would be 0 or lose its precision
        cfg = write_config(tmp_path / "c.json", sweep={"N": [2]},
                           network={"rho_p": RHO_P, "alpha": 4.0, "c": 50.0, "r_T": r_t})
        assert main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(
            "simulate: network, sweep.N[0]: cannot size or predict the point "
            "(FloatingPointError: the SIR scale "
        )
        assert "underflows the normal float range" in captured.err
        assert f"r_T={r_t:.9g}, N=2, model hc1" in captured.err
        assert captured.err.count("\n") == 1

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
        code = main(["density", "--rho-p", "0.01", "--c", "10", "--n-branches", "2",
                     "--replications", "2", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "limiting active density" in captured.err and given in captured.err

    @pytest.mark.parametrize("flag,value", [("--r-t", "5.64")])
    def test_asymptote_flag_needs_branches(self, capsys, flag, value):
        code = main(["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{flag} needs --n-branches" in captured.err

    def test_asymptote_branches_need_link_length(self, capsys):
        # without --r-t there is no rate line to print for --n-branches
        code = main(["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "50",
                     "--n-branches", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "asymptote: --n-branches needs --r-t\n"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["asymptote", "--alpha", "2.5", "--rho-p", "1", "--c", "50",
                          "--n-branches", "4", "--rho-c", "0.001"], id="asymptote-rho_c"),
            pytest.param(["density", "--model", "independent", "--rho-p", "0.01", "--c", "10",
                          "--n-branches", "2", "--alpha", "3"], id="density-alpha"),
        ],
    )
    def test_removed_flags_rejected(self, capsys, argv):
        code, err = self.exit_code_and_stderr(argv, capsys)
        assert code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err

    def test_density_replications_zero(self, capsys):
        code, err = self.exit_code_and_stderr(
            ["density", "--model", "independent", "--rho-p", "0.01", "--c", "10",
             "--n-branches", "2", "--replications", "0"],
            capsys,
        )
        assert code == 2
        assert "--replications" in err


class TestInvalidInputExit:
    """main alone turns invalid input into exit 2, prefixing the command."""

    @pytest.mark.parametrize(
        "argv,err",
        [
            pytest.param(["simulate", "--config", "{config}"],
                         "simulate: config: missing required key 'schema_version'\n",
                         id="simulate"),
            pytest.param(["density", "--model", "hc1", "--rho-p", "0.01", "--c", "10",
                          "--n-branches", "2"],
                         "density: cannot evaluate at --rho-p 0.01 --c 10.0 --n-branches 2: "
                         "model 'hc1' needs h >= 0, got h=None\n", id="density"),
            pytest.param(["plot", "--report", "{config}", "--out", "{config}.svg"],
                         "plot: malformed report: expected header " + repr(CSV_COLUMNS) + "\n",
                         id="plot"),
            pytest.param(["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "100",
                          "--r-t", "5.64"], "asymptote: --r-t needs --n-branches\n",
                         id="asymptote"),
        ],
    )
    def test_message_names_the_command(self, tmp_path, capsys, argv, err):
        config = tmp_path / "c.json"
        config.write_text("{}")
        assert main([arg.format(config=config) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err

    @pytest.mark.parametrize("argv,err", [
        (["simulate", "--config", "{path}"], "simulate: cannot read config: 'utf-8' codec "),
        (["plot", "--report", "{path}", "--out", "{path}.svg"],
         "plot: cannot read report: 'utf-8' codec "),
    ], ids=["simulate", "plot"])
    def test_file_not_utf8(self, tmp_path, capsys, argv, err):
        path = tmp_path / "latin1"
        path.write_bytes(CSV_COLUMNS.encode() + b"\n\xff\n")
        assert main([arg.format(path=path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(err)
        assert captured.err.count("\n") == 1

    def test_other_errors_keep_their_traceback(self, tmp_path, monkeypatch):
        from mmsenet import montecarlo

        def broken(*args, **kwargs):
            raise RuntimeError("a bug, not invalid input")

        monkeypatch.setattr(montecarlo, "run_experiment", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["simulate", "--config", str(write_config(tmp_path / "c.json"))])


# runs mmsenet.cli's main on argv in an interpreter where importing scipy
# fails; if any scipy module got loaded it exits 1 and names them on stderr,
# whatever main returned
_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from mmsenet import cli
code = cli.main(sys.argv[1:])
loaded = [name for name, mod in sys.modules.items() if name.startswith("scipy") and mod]
sys.exit(f"scipy modules loaded: {loaded}" if loaded else code)
"""


# runs mmsenet.cli's main on argv in a fresh interpreter; if scipy.optimize
# or scipy.integrate got loaded it exits 1 and names them on stderr,
# whatever main returned
_SPECIAL_ONLY = """
import sys
from mmsenet import cli
code = cli.main(sys.argv[1:])
loaded = [name for name in sys.modules if name.startswith(("scipy.optimize", "scipy.integrate"))]
sys.exit(f"scipy modules loaded: {loaded}" if loaded else code)
"""


# runs mmsenet.cli's main on argv in a fresh interpreter; its last stderr
# line says whether the process pool's module got loaded, and it exits with
# main's code
_POOL_LOADED = """
import sys
from mmsenet import cli
code = cli.main(sys.argv[1:])
print(f"pool loaded: {'concurrent.futures.process' in sys.modules}", file=sys.stderr)
sys.exit(code)
"""


# the same for the chart module, which only plot needs
_SVGPLOT_LOADED = """
import sys
from mmsenet import cli
code = cli.main(sys.argv[1:])
print(f"svgplot loaded: {'mmsenet.svgplot' in sys.modules}", file=sys.stderr)
sys.exit(code)
"""

# the commands that need neither a pool nor the chart module
_LEAN_COMMANDS = [
    pytest.param(["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "50"], id="asymptote"),
    pytest.param(["reuse-opt", "--alpha", "4", "--n-branches", "4", "--rho-p", "0.01",
                  "--rho-c", "0.001"], id="reuse-opt"),
    pytest.param(["density", "--model", "independent", "--rho-p", "0.01", "--c", "50",
                  "--n-branches", "2", "--replications", "2"], id="density"),
    pytest.param(["simulate", "--threads", "1"], id="simulate-threads-1"),
]


def run_fresh(script, argv):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env,
        capture_output=True, text=True, timeout=120,
    )


def run_without_scipy(argv):
    return run_fresh(_NO_SCIPY, argv)


@pytest.mark.parametrize(
    "model",
    [{"name": "independent"}, {"name": "hc1", "h": 0.5 * R_T}, {"name": "hc2", "h": 0.5 * R_T},
     {"name": "boolean", "h": R_T, "rho_b": RHO_P}, POWER_CONTROLLED],
    ids=["independent", "hc1", "hc2", "boolean", "cellular-power-control"],
)
def test_simulate_density_and_plot_need_no_scipy(tmp_path, model):
    network = {"rho_p": RHO_P, "alpha": 4.0, "c": 200.0 if "rho_c" in model else 50.0,
               "r_T": R_T}
    cfg = write_config(tmp_path / "c.json", network=network, model=model, sweep={"N": [2]},
                       replications=2)
    report, chart = tmp_path / "r.csv", tmp_path / "r.svg"
    # density never sets power control, which moves no activation
    density = ["density", "--model", model["name"], "--rho-p", "0.01", "--c",
               str(network["c"]), "--n-branches", "2", "--replications", "2"]
    density += [f"--{key.replace('_', '-')}={value}" for key, value in model.items()
                if key not in ("name", "power_control")]
    for argv in (
        ["simulate", "--config", str(cfg), "--out", str(report)],
        density,
        ["plot", "--report", str(report), "--out", str(chart)],
    ):
        proc = run_without_scipy(argv)
        assert proc.returncode == 0, (argv[0], proc.stderr)
    assert report.read_text().count("\n") == 2 and chart.stat().st_size > 0


@pytest.mark.parametrize("overrides,prefix", [
    # r_T^-alpha = 1e-400 underflows the SIR scale to 0
    ({"network": {"rho_p": RHO_P, "alpha": 4.0, "c": 50.0, "r_T": 1e100}},
     "simulate: network, sweep.N[0]: "),
    # a disk some 2^504 station spacings wide, past the float64 cell range
    ({"model": {"name": "cellular", "rho_c": 1e300, "kappa": 3}, "replications": 5},
     "simulate: model.rho_c, sweep.N[0]: "),
    # c * nu = 1e-300 and a covariance stack past the budget: the exit-2 line alone
    ({"network": {"rho_p": 1, "alpha": 4, "c": 1e-300, "r_T": 1},
      "model": {"name": "independent"}, "sweep": {"N": [10**18]}},
     "simulate: sweep.N[0]: the covariance stack"),
], ids=["underflow", "cells", "covariances"])
def test_invalid_point_exits_2_without_scipy(tmp_path, overrides, prefix):
    cfg = write_config(tmp_path / "c.json", **{"sweep": {"N": [2]}, **overrides})
    proc = run_without_scipy(["simulate", "--config", str(cfg)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "50"],
    ["reuse-opt", "--alpha", "4", "--n-branches", "4", "--rho-p", "0.01", "--rho-c", "0.001"],
], ids=["asymptote", "reuse-opt"])
def test_missing_scipy_is_one_line_exit_1(argv):
    proc = run_without_scipy(argv)
    assert proc.returncode == 1
    assert proc.stderr == f"{argv[0]}: needs scipy, which is not installed\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["asymptote", "--alpha", "4", "--rho-p", "0.01", "--c", "50", "--n-branches", "8",
     "--r-t", "5.64"],
    ["reuse-opt", "--alpha", "4", "--n-branches", "4", "--rho-p", "0.01", "--rho-c", "0.001"],
], ids=["asymptote", "reuse-opt"])
def test_scipy_commands_need_only_scipy_special(argv):
    # the root finder and the oracle's quadrature are the package's own
    proc = run_fresh(_SPECIAL_ONLY, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("argv,pool", [
    *(pytest.param(*case.values, False, id=case.id) for case in _LEAN_COMMANDS),
    # two points of one block each: a pool of two
    pytest.param(["simulate", "--threads", "2"], True, id="simulate-threads-2"),
])
def test_only_a_pool_imports_the_pool(tmp_path, argv, pool):
    if argv[0] == "simulate":
        argv = [*argv, "--config", str(write_config(tmp_path / "c.json"))]
    proc = run_fresh(_POOL_LOADED, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith(f"pool loaded: {pool}\n")


@pytest.mark.parametrize("argv,svgplot", [
    *(pytest.param(*case.values, False, id=case.id) for case in _LEAN_COMMANDS),
    pytest.param(["plot"], True, id="plot"),
])
def test_only_plot_imports_svgplot(tmp_path, argv, svgplot):
    config = write_config(tmp_path / "c.json")
    if argv[0] == "simulate":
        argv = [*argv, "--config", str(config)]
    if argv[0] == "plot":
        report = tmp_path / "r.csv"
        assert main(["simulate", "--config", str(config), "--out", str(report)]) == 0
        argv = ["plot", "--report", str(report), "--out", str(tmp_path / "r.svg")]
    proc = run_fresh(_SVGPLOT_LOADED, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith(f"svgplot loaded: {svgplot}\n")


def test_other_import_error_keeps_traceback(monkeypatch):
    from mmsenet import asymptotics

    def broken(*args, **kwargs):
        raise ModuleNotFoundError("No module named 'scipy.special'", name="scipy.special")

    monkeypatch.setattr(asymptotics, "optimal_reuse", broken)
    with pytest.raises(ModuleNotFoundError, match="scipy.special"):
        main(["reuse-opt", "--alpha", "4", "--n-branches", "4", "--rho-p", "0.01",
              "--rho-c", "0.001"])


def test_readme_command_lines_parse():
    """Every command line of the README's "Command line" block parses (nothing runs)."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mmsenet")]
    assert {argv[0] for argv in commands} == {
        "simulate", "plot", "asymptote", "density", "reuse-opt"
    }
    for argv in commands:
        _build_parser().parse_args(argv)
