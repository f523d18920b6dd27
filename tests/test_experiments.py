import configparser
import ctypes
import dataclasses
import glob
import json
import multiprocessing
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import sdefl
from sdefl import experiments, kalman
from sdefl.cli import main
from sdefl.core import Path, RandomSource, ScenarioError, ShapeError
from sdefl.experiments import (
    METHODS,
    SCENARIO_DIR,
    TABLE5_SCENARIOS,
    Scenario,
    benchmark,
    emit_csv,
    emit_plot,
    list_scenarios,
    load_scenario,
    reproduce,
    run_scenario,
    run_table5_sweep,
)
from sdefl.kalman import bates_ekf_system, ekf_log_likelihood, heston_ekf_system, log_returns
from sdefl.mle import EstimationReport
from sdefl.models import (
    MODELS,
    BatesParams,
    HestonParams,
    JumpParams,
    OuParams,
    simulate_bates,
    simulate_heston,
)

SEED = 2024061
SVG = "{http://www.w3.org/2000/svg}"


def ou_scenario(**over):
    base = dict(
        name="probe",
        model="ou",
        params={"theta": 1.0, "mu": 2.0, "sigma": 3.0, "x0": 0.0},
        dt=0.499,
        n_steps=1000,
        seed=SEED,
        method="mle",
        options={"init": (0.5, 1.0, 2.0)},
        outputs={},
    )
    base.update(over)
    return Scenario(**base)


class TestScenarioValidation:
    def test_incompatible_method_and_model(self):
        with pytest.raises(ScenarioError, match="does not support"):
            ou_scenario(model="bk", method="kalman",
                        params={"theta": 1.0, "alpha": 0.8, "sigma": 0.6, "r0": 2.0})

    def test_missing_param_field(self):
        with pytest.raises(ScenarioError, match="missing: sigma"):
            ou_scenario(params={"theta": 1.0, "mu": 2.0, "x0": 0.0})

    def test_unknown_param_field(self):
        with pytest.raises(ScenarioError, match="unknown: zeta"):
            ou_scenario(params={"theta": 1.0, "mu": 2.0, "sigma": 3.0, "x0": 0.0, "zeta": 1.0})

    def test_estimation_requires_init(self):
        with pytest.raises(ScenarioError, match="init"):
            ou_scenario(options={})

    def test_unknown_option_key(self):
        with pytest.raises(ScenarioError, match="unknown method options"):
            ou_scenario(options={"init": (0.5, 1.0, 2.0), "warp": 9})

    def test_bad_grid(self):
        with pytest.raises(ScenarioError):
            ou_scenario(dt=0.0)
        with pytest.raises(ScenarioError):
            ou_scenario(n_steps=0)

    def test_output_must_be_bare_name(self):
        with pytest.raises(ScenarioError, match="bare file name"):
            ou_scenario(outputs={"series_csv": "../evil.csv"})

    def test_unknown_output_kind(self):
        with pytest.raises(ScenarioError, match="unknown output kinds"):
            ou_scenario(outputs={"series_parquet": "x.parquet"})

    def test_output_of_a_stage_that_does_not_run(self):
        heston = {"mu_s": 0.04, "kappa": 0.3, "theta_v": 1.5, "xi": 0.6,
                  "rho": 0.04, "s0": 100.0, "v0": 1.5}
        with pytest.raises(ScenarioError, match="'estimate_csv' in its estimate stage"):
            ou_scenario(model="heston", method="ekf", params=heston, options={},
                        outputs={"estimate_csv": "fit.csv"})

    def test_default_stages_by_method(self):
        assert ou_scenario(method="simulate", options={}).default_stages() == ("simulate",)
        assert ou_scenario().default_stages() == ("simulate", "estimate")
        assert ou_scenario(method="kalman").default_stages() == (
            "simulate", "filter", "estimate")
        heston = {"mu_s": 0.04, "kappa": 0.3, "theta_v": 1.5, "xi": 0.6,
                  "rho": 0.04, "s0": 100.0, "v0": 1.5}
        assert ou_scenario(model="heston", method="ekf", params=heston,
                           options={}).default_stages() == ("simulate", "filter")
        assert ou_scenario(model="heston", method="particle_ekf", params=heston,
                           options={}).default_stages() == ("simulate", "filter")


class TestLoadScenario:
    def test_all_packaged_scenarios_load(self):
        names = list_scenarios()
        assert len(names) == 15
        for name in names:
            sc = load_scenario(name)
            assert sc.name == name

    def test_load_by_explicit_path(self):
        path = os.path.join(SCENARIO_DIR, "ou_mle.scn")
        sc = load_scenario(path)
        assert sc.name == "ou_mle"
        assert sc.options["init"] == (0.5, 1.0, 2.0)
        assert sc.params["sigma"] == 3.0

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ScenarioError, match="ou_mle"):
            load_scenario("definitely_not_here")

    def test_rejects_other_schema_version(self, tmp_path):
        text = (
            "[scenario]\nschema_version = 2\nname = x\nmodel = ou\n"
            "dt = 0.1\nn_steps = 10\nseed = 1\n"
            "[params]\ntheta = 1.0\nmu = 2.0\nsigma = 3.0\nx0 = 0.0\n"
            "[method]\nkind = simulate\n"
        )
        f = tmp_path / "x.scn"
        f.write_text(text)
        with pytest.raises(ScenarioError, match="schema_version"):
            load_scenario(str(f))

    def test_rejects_missing_kind_and_unknown_section(self, tmp_path):
        head = (
            "[scenario]\nschema_version = 1\nname = x\nmodel = ou\n"
            "dt = 0.1\nn_steps = 10\nseed = 1\n"
            "[params]\ntheta = 1.0\nmu = 2.0\nsigma = 3.0\nx0 = 0.0\n"
        )
        f = tmp_path / "nokind.scn"
        f.write_text(head + "[method]\ninit = 1.0\n")
        with pytest.raises(ScenarioError, match="kind"):
            load_scenario(str(f))
        g = tmp_path / "extra.scn"
        g.write_text(head + "[method]\nkind = simulate\n[extras]\na = 1\n")
        with pytest.raises(ScenarioError, match="unknown sections"):
            load_scenario(str(g))

    def test_rejects_non_numeric_values(self, tmp_path):
        text = (
            "[scenario]\nschema_version = 1\nname = x\nmodel = ou\n"
            "dt = fast\nn_steps = 10\nseed = 1\n"
            "[params]\ntheta = 1.0\nmu = 2.0\nsigma = 3.0\nx0 = 0.0\n"
            "[method]\nkind = simulate\n"
        )
        f = tmp_path / "bad.scn"
        f.write_text(text)
        with pytest.raises(ScenarioError, match="dt"):
            load_scenario(str(f))


class TestPackagedScenarios:
    @pytest.mark.parametrize("name", list_scenarios())
    def test_options_are_the_keys_in_the_file(self, name):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(os.path.join(SCENARIO_DIR, name + ".scn"))
        assert set(load_scenario(name).options) == set(cp["method"]) - {"kind"}

    @pytest.mark.parametrize("name", list_scenarios())
    def test_full_run_writes_exactly_the_declared_outputs(self, tmp_path, name):
        sc = load_scenario(name)
        rep = run_scenario(sc, out_dir=str(tmp_path))
        declared = {str(tmp_path / f) for f in sc.outputs.values()}
        assert set(rep.artifacts) == declared
        assert {str(f) for f in tmp_path.iterdir()} == declared


class TestRunScenario:
    def test_ou_mle_recovers_parameters(self, tmp_path):
        rep = run_scenario(load_scenario("ou_mle"), out_dir=str(tmp_path))
        p = rep.estimation.params
        assert abs(p.theta - 1.0) <= 0.25
        assert abs(p.mu - 2.0) <= 0.30
        assert abs(p.sigma - 3.0) <= 0.35
        assert rep.rmse is None
        assert set(rep.timings) == {"simulate", "estimate"}
        for artifact in rep.artifacts:
            assert os.path.isfile(artifact)

    def test_run_is_deterministic(self, tmp_path):
        a = run_scenario(load_scenario("ou_mle"), out_dir=str(tmp_path / "a"))
        b = run_scenario(load_scenario("ou_mle"), out_dir=str(tmp_path / "b"))
        assert a.estimation.params == b.estimation.params
        assert a.estimation.neg_log_lik == b.estimation.neg_log_lik

    def test_heston_ekf_tracks_variance(self, tmp_path):
        rep = run_scenario(load_scenario("heston_ekf"), out_dir=str(tmp_path))
        assert 0.1 <= rep.rmse <= 3.0
        csv = tmp_path / "heston_ekf_filtered.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,truth,estimate"
        assert len(lines) == 1001

    def test_ou_kalman_tracks_state(self, tmp_path):
        rep = run_scenario(load_scenario("ou_kalman"), out_dir=str(tmp_path))
        assert rep.rmse <= 1e-2
        assert rep.estimation is not None

    @pytest.mark.parametrize("name", ["ou_kalman", "ou_jump_kalman"])
    def test_filter_log_lik_is_minus_the_fit_objective(self, name, monkeypatch):
        sc = load_scenario(name)
        sim = experiments._get_series(sc, sc.seed)
        _, _, log_lik = METHODS["kalman"].stages["filter"](sc, sim, sc.seed)
        seen = {}
        monkeypatch.setattr(kalman, "bounded_minimize",
                            lambda objective, *args, **kwargs: seen.update(objective=objective))
        METHODS["kalman"].stages["estimate"](sc, sim)
        v = np.array([sc.params[k] for k in MODELS[sc.model].fields])
        assert seen["objective"](v)[0] == -log_lik

    def test_heston_particle_tracks_variance(self, tmp_path):
        rep = run_scenario(load_scenario("heston_particle"), out_dir=str(tmp_path))
        assert rep.rmse < 2.0

    def test_stage_subset_skips_estimation(self, tmp_path):
        rep = run_scenario(load_scenario("ou_mle"), out_dir=str(tmp_path),
                           stages=("simulate",))
        assert rep.estimation is None
        assert "estimate" not in rep.timings

    def test_filter_stage_refused_for_mle(self, tmp_path):
        with pytest.raises(ScenarioError, match="no filter stage"):
            run_scenario(load_scenario("ou_mle"), out_dir=str(tmp_path),
                         stages=("simulate", "filter"))

    def test_unknown_stage_name(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown stage"):
            run_scenario(load_scenario("ou_mle"), out_dir=str(tmp_path),
                         stages=("simulate", "smooth"))

    def test_seed_override_changes_series(self, tmp_path):
        sc = load_scenario("ou_sim_paper")
        run_scenario(sc, out_dir=str(tmp_path / "s1"), seed=1)
        run_scenario(sc, out_dir=str(tmp_path / "s2"), seed=2)
        a = (tmp_path / "s1" / "ou_sim_paper_series.csv").read_bytes()
        b = (tmp_path / "s2" / "ou_sim_paper_series.csv").read_bytes()
        assert a != b


class TestEstimateEkf:
    @pytest.mark.parametrize("name, init", [
        ("heston_ekf", (0.04, 0.3, 1.2, 0.6, 0.04)),
        ("bates_ekf", (0.04, 0.3, 1.5, 0.6, 0.04)),
    ])
    def test_gaussian_fit_reports_negative_log_likelihood(self, tmp_path, name, init):
        base = load_scenario(name)
        sc = dataclasses.replace(base, n_steps=300, outputs={},
                                 options={**base.options, "init": init, "objective": "gaussian"})
        fit = run_scenario(sc, out_dir=str(tmp_path), stages=("estimate",)).estimation
        assert type(fit.params) is HestonParams  # a Bates fit reports the five it fits

        p = sc.params
        heston = HestonParams(p["mu_s"], p["kappa"], p["theta_v"], p["xi"], p["rho"])
        src = RandomSource(sc.seed)
        if name == "heston_ekf":
            lns, _ = simulate_heston(heston, p["s0"], p["v0"], sc.dt, sc.n_steps, src)

            def system(h):
                return heston_ekf_system(h, sc.dt, lns)
        else:
            truth = BatesParams(heston, p["lam"], p["jump_size"])
            lns, _ = simulate_bates(truth, p["s0"], p["v0"], sc.dt, sc.n_steps, src)

            def system(h):
                return bates_ekf_system(BatesParams(h, p["lam"], p["jump_size"]), sc.dt, lns)

        def neg_ll(h):
            return -ekf_log_likelihood(log_returns(lns), system(h), x0=base.options["v0_guess"],
                                       p0=base.options["p0"], objective="gaussian")

        assert fit.neg_log_lik == pytest.approx(neg_ll(fit.params), rel=1e-12)
        assert fit.neg_log_lik <= neg_ll(HestonParams(*init))


class TestInputCsv:
    def test_loaded_series_matches_simulated_fit(self, tmp_path):
        # round-trip precision makes the loaded series bit-equal, so the
        # fit must come out identical
        direct = run_scenario(load_scenario("ou_mle"), out_dir=str(tmp_path))
        base = load_scenario("ou_mle")
        sc = Scenario(
            name="from_file", model=base.model, params=base.params, dt=base.dt,
            n_steps=base.n_steps, seed=base.seed, method=base.method,
            options=base.options, outputs={},
            input_csv=str(tmp_path / "ou_mle_series.csv"),
        )
        loaded = run_scenario(sc, out_dir=str(tmp_path))
        assert loaded.estimation.params == direct.estimation.params
        assert loaded.estimation.neg_log_lik == direct.estimation.neg_log_lik

    def test_joint_series_feeds_filter(self, tmp_path):
        base = load_scenario("heston_ekf")
        direct = run_scenario(
            Scenario(name="h", model=base.model, params=base.params, dt=base.dt,
                     n_steps=base.n_steps, seed=base.seed, method=base.method,
                     options=base.options,
                     outputs={"series_csv": "h_series.csv"}),
            out_dir=str(tmp_path),
        )
        sc = Scenario(
            name="h_file", model=base.model, params=base.params, dt=base.dt,
            n_steps=base.n_steps, seed=base.seed, method=base.method,
            options=base.options, outputs={},
            input_csv=str(tmp_path / "h_series.csv"),
        )
        loaded = run_scenario(sc, out_dir=str(tmp_path))
        assert loaded.rmse == direct.rmse

    def test_scenario_file_resolves_relative_input(self, tmp_path):
        series = tmp_path / "data.csv"
        run_scenario(load_scenario("ou_mle"), out_dir=str(tmp_path))
        os.replace(tmp_path / "ou_mle_series.csv", series)
        text = (
            "[scenario]\nschema_version = 1\nname = rel\nmodel = ou\n"
            "dt = 0.499\nn_steps = 1000\nseed = 1\ninput_csv = data.csv\n"
            "[params]\ntheta = 1.0\nmu = 2.0\nsigma = 3.0\nx0 = 0.0\n"
            "[method]\nkind = mle\ninit = 0.5, 1.0, 2.0\n"
        )
        f = tmp_path / "rel.scn"
        f.write_text(text)
        rep = run_scenario(load_scenario(str(f)), out_dir=str(tmp_path))
        assert rep.estimation is not None

    def test_grid_mismatch_rejected(self, tmp_path):
        run_scenario(load_scenario("ou_mle"), out_dir=str(tmp_path))
        base = load_scenario("ou_mle")
        sc = Scenario(
            name="bad_dt", model=base.model, params=base.params, dt=0.25,
            n_steps=base.n_steps, seed=base.seed, method=base.method,
            options=base.options, outputs={},
            input_csv=str(tmp_path / "ou_mle_series.csv"),
        )
        with pytest.raises(ScenarioError, match="grid"):
            run_scenario(sc, out_dir=str(tmp_path))

    def test_column_count_must_match_model(self, tmp_path):
        f = tmp_path / "joint.csv"
        f.write_text("t,a,b\n0.0,1.0,2.0\n0.499,1.1,2.1\n")
        base = load_scenario("ou_mle")
        sc = Scenario(
            name="wide", model=base.model, params=base.params, dt=base.dt,
            n_steps=base.n_steps, seed=base.seed, method=base.method,
            options=base.options, outputs={}, input_csv=str(f),
        )
        with pytest.raises(ScenarioError, match="value column"):
            run_scenario(sc, out_dir=str(tmp_path))

    def test_missing_file_rejected(self, tmp_path):
        base = load_scenario("ou_mle")
        sc = Scenario(
            name="gone", model=base.model, params=base.params, dt=base.dt,
            n_steps=base.n_steps, seed=base.seed, method=base.method,
            options=base.options, outputs={},
            input_csv=str(tmp_path / "nope.csv"),
        )
        with pytest.raises(ScenarioError, match="cannot read"):
            run_scenario(sc, out_dir=str(tmp_path))


class TestEmitCsv:
    def test_scalar_path_round_trips_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        p = Path(t0=0.25, dt=0.1, values=rng.normal(size=64))
        f = tmp_path / "series.csv"
        emit_csv(p, str(f))
        lines = f.read_text().splitlines()
        assert lines[0] == "t,value"
        back = np.array([float(row.split(",")[1]) for row in lines[1:]])
        assert np.array_equal(back, p.values)

    def test_joint_path_uses_labels(self, tmp_path):
        p = Path(t0=0.0, dt=1.0, values=np.arange(6.0).reshape(3, 2))
        f = tmp_path / "joint.csv"
        emit_csv(p, str(f), labels=("log_price", "variance"))
        lines = f.read_text().splitlines()
        assert lines[0] == "t,log_price,variance"
        assert len(lines) == 4

    def test_label_count_must_match(self, tmp_path):
        p = Path(t0=0.0, dt=1.0, values=np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="labels"):
            emit_csv(p, str(tmp_path / "x.csv"), labels=("only_one",))

    def test_report_rows_exclude_wall_clock(self, tmp_path):
        rep = EstimationReport(
            params=OuParams(theta=1.5, mu=2.5, sigma=0.5),
            neg_log_lik=12.5, iterations=7, wall_clock_s=123.456, converged=True,
        )
        f = tmp_path / "est.csv"
        emit_csv(rep, str(f))
        text = f.read_text()
        assert "theta,1.5" in text
        assert "neg_log_lik,12.5" in text
        assert "converged,true" in text
        assert "wall_clock" not in text
        assert "123.456" not in text

    def test_tuple_params_flatten(self, tmp_path):
        rep = EstimationReport(
            params=(OuParams(theta=1.0, mu=2.0, sigma=4.0),
                    JumpParams(lambda_j=0.5, mu_j=1.0, sigma_j=1.0)),
            neg_log_lik=0.5, iterations=1, wall_clock_s=0.1, converged=False,
        )
        f = tmp_path / "est.csv"
        emit_csv(rep, str(f))
        text = f.read_text()
        for name in ("theta", "mu", "sigma", "lambda_j", "mu_j", "sigma_j"):
            assert f"\n{name}," in "\n" + text
        assert "converged,false" in text

    def test_rejects_other_types(self, tmp_path):
        with pytest.raises(ShapeError):
            emit_csv(np.zeros(4), str(tmp_path / "x.csv"))


class TestEmitPlot:
    def test_two_series_two_polylines(self, tmp_path):
        a = Path(t0=0.0, dt=1.0, values=np.sin(np.linspace(0, 4, 40)))
        b = Path(t0=0.0, dt=1.0, values=np.cos(np.linspace(0, 4, 40)))
        f = tmp_path / "plot.svg"
        emit_plot([("truth", a), ("estimate", b)], str(f))
        root = ET.fromstring(f.read_text())
        polys = list(root.iter(f"{SVG}polyline"))
        assert len(polys) == 2
        texts = [el.text for el in root.iter(f"{SVG}text")]
        assert "truth" in texts and "estimate" in texts

    def test_bytes_are_deterministic(self, tmp_path):
        p = Path(t0=0.0, dt=0.5, values=np.linspace(-1, 1, 25) ** 2)
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot([("x", p)], str(f1))
        emit_plot([("x", p)], str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_constant_series_renders(self, tmp_path):
        p = Path(t0=0.0, dt=1.0, values=np.full(10, 3.0))
        f = tmp_path / "flat.svg"
        emit_plot([("flat", p)], str(f))
        ET.fromstring(f.read_text())

    def test_rejects_empty_and_joint_paths(self, tmp_path):
        with pytest.raises(ShapeError):
            emit_plot([], str(tmp_path / "x.svg"))
        joint = Path(t0=0.0, dt=1.0, values=np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            emit_plot([("j", joint)], str(tmp_path / "y.svg"))

    def test_label_is_xml_escaped(self, tmp_path):
        p = Path(t0=0.0, dt=1.0, values=np.arange(5.0))
        f = tmp_path / "esc.svg"
        emit_plot([("a<b&c", p)], str(f))
        root = ET.fromstring(f.read_text())
        texts = [el.text for el in root.iter(f"{SVG}text")]
        assert "a<b&c" in texts


class TestBenchmark:
    def test_self_pair_ratio_near_one(self, tmp_path):
        record = benchmark(load_scenario("ou_mle"), load_scenario("ou_mle"),
                           out_dir=str(tmp_path), repetitions=5)
        assert 0.5 <= record["ratio_a_over_b"] <= 2.0
        f = tmp_path / "benchmark_ou_mle_vs_ou_mle.json"
        assert json.loads(f.read_text()) == record

    def test_self_pair_times_each_side(self, tmp_path, monkeypatch):
        # a stub fit that is slower for scenario b, told apart from an equal
        # scenario a by object: a self-pair must report b's time and fit for
        # b only, after one warmup each and with the sides taking turns
        sc_a, sc_b = load_scenario("ou_mle"), load_scenario("ou_mle")
        calls = []

        def fit(sc, sim):
            side = "a" if sc is sc_a else "b"
            calls.append(side)
            if side == "b":
                time.sleep(0.02)
            return SimpleNamespace(neg_log_lik=float(len(calls)))

        monkeypatch.setitem(METHODS["mle"].stages, "estimate", fit)
        record = benchmark(sc_a, sc_b, out_dir=str(tmp_path), repetitions=3)
        assert calls == ["a", "b"] * 4
        assert record["median_s_b"] >= 0.02 > record["median_s_a"]
        assert record["ratio_a_over_b"] < 1.0
        assert (record["neg_log_lik_a"], record["neg_log_lik_b"]) == (7.0, 8.0)

    def test_model_mismatch_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="one model"):
            benchmark(load_scenario("ou_mle"), load_scenario("bk_mle"),
                      out_dir=str(tmp_path))

    def test_needs_estimation_scenarios(self, tmp_path):
        with pytest.raises(ScenarioError, match="estimation stage"):
            benchmark(load_scenario("ou_sim_paper"), load_scenario("ou_mle"),
                      out_dir=str(tmp_path))

    def test_repetitions_must_be_positive(self, tmp_path):
        with pytest.raises(ScenarioError):
            benchmark(load_scenario("ou_mle"), load_scenario("ou_kalman"),
                      out_dir=str(tmp_path), repetitions=0)


class TestTable5Sweep:
    def test_sweep_rows_and_bounds(self, tmp_path):
        reports = run_table5_sweep(out_dir=str(tmp_path))
        assert tuple(r.scenario for r in reports) == TABLE5_SCENARIOS
        for rep in reports:
            assert 0.1 <= rep.rmse <= 5.0
        lines = (tmp_path / "table5_rmse.csv").read_text().splitlines()
        assert lines[0] == "scenario,rmse"
        assert len(lines) == 5

    def test_sweep_is_byte_stable(self, tmp_path):
        run_table5_sweep(out_dir=str(tmp_path / "a"))
        run_table5_sweep(out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "table5_rmse.csv").read_bytes()
        b = (tmp_path / "b" / "table5_rmse.csv").read_bytes()
        assert a == b


class TestReproduce:
    def test_all_scenarios_and_sidecars(self, tmp_path):
        reports = reproduce(out_dir=str(tmp_path), seed=3)
        assert len(reports) == 15
        names = {f.name for f in tmp_path.iterdir()}
        assert "table5_rmse.csv" in names
        assert "timings.json" in names
        assert "benchmark_ou_mle_vs_ou_kalman.json" in names
        assert "benchmark_ou_jump_mle_vs_ou_jump_kalman.json" in names
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert set(timings) == {rep.scenario for rep in reports}
        for f in tmp_path.glob("*.csv"):
            assert "wall_clock" not in f.read_text()

    def test_pool_writes_the_bytes_of_a_plain_loop(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pooled = reproduce(out_dir=str(a), seed=3)
        # the particle scenarios start first but are reported in list order
        assert tuple(rep.scenario for rep in pooled) == list_scenarios()
        reports = [run_scenario(load_scenario(name), out_dir=str(b), seed=3)
                   for name in list_scenarios()]
        by_name = {rep.scenario: rep for rep in reports}
        experiments._write_table5_csv([by_name[n] for n in TABLE5_SCENARIOS], str(b))

        def artifacts(d):
            return {f.name: f.read_bytes() for f in d.iterdir() if f.suffix in (".csv", ".svg")}

        assert len(artifacts(b)) == 26
        assert artifacts(a) == artifacts(b)

    def test_workers_fork_with_one_blas_thread(self):
        site = os.path.dirname(os.path.dirname(scipy.__file__))
        libs = glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas*.so"))
        if not libs:
            pytest.skip("this scipy bundles no OpenBLAS")
        lib = ctypes.CDLL(libs[0])
        before = lib.scipy_openblas_get_num_threads()
        lib.scipy_openblas_set_num_threads(2)
        try:
            with experiments._one_blas_thread():
                pid = os.fork()
                if pid == 0:
                    os._exit(lib.scipy_openblas_get_num_threads())
                in_worker = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            after = lib.scipy_openblas_get_num_threads()
        finally:
            lib.scipy_openblas_set_num_threads(before)
        assert (in_worker, after) == (1, 2)


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 15
        assert "ou_mle" in out

    def test_estimate_prints_fit(self, tmp_path, capsys):
        code = main(["estimate", "--scenario", "ou_mle", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimate:" in out
        assert (tmp_path / "ou_mle_estimate.csv").is_file()

    def test_reproduce_failure_exits_two_and_leaves_no_worker(self, tmp_path, capsys):
        # seed 4 drives heston_ekf_task2's variance negative; the pool
        # raises the error a plain loop would and joins its workers
        assert main(["reproduce", "--seed", "4", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.rstrip("\n").endswith("innovation variance not positive at step 421")
        assert multiprocessing.active_children() == []

    def test_unknown_scenario_exits_one(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "nope", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_filter_on_estimation_only_scenario_exits_one(self, tmp_path, capsys):
        assert main(["filter", "--scenario", "ou_mle", "--out", str(tmp_path)]) == 1
        assert "no filter stage" in capsys.readouterr().err

    def test_degenerate_filter_exits_two(self, tmp_path, capsys):
        # task2 parameters blow up on the coarse grid: v_pred goes negative
        # and the innovation variance hits zero
        text = (
            "[scenario]\nschema_version = 1\nname = explode\nmodel = heston\n"
            "dt = 0.499\nn_steps = 1000\nseed = 2024061\n"
            "[params]\nmu_s = 0.1\nkappa = 1.0\ntheta_v = 0.02\nxi = 0.1\n"
            "rho = -0.8\ns0 = 100.0\nv0 = 0.02\n"
            "[method]\nkind = ekf\nv0_guess = 1.0\np0 = 1.0\n"
        )
        f = tmp_path / "explode.scn"
        f.write_text(text)
        code = main(["filter", "--scenario", str(f), "--out", str(tmp_path)])
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["filter", "estimate"])
    def test_non_finite_input_exits_one(self, tmp_path, capsys, command):
        # the blank line 4 is skipped by the reader but still counted
        rows = [f"{0.5 * k!r},{1.0 + 0.1 * k!r}" for k in range(30)]
        rows[3] = "1.5,nan"
        rows.insert(2, "")
        (tmp_path / "data.csv").write_text("t,x\n" + "\n".join(rows) + "\n")
        text = (
            "[scenario]\nschema_version = 1\nname = holes\nmodel = ou\n"
            "dt = 0.5\nn_steps = 29\nseed = 1\ninput_csv = data.csv\n"
            "[params]\ntheta = 1.0\nmu = 2.0\nsigma = 3.0\nx0 = 0.0\n"
            "[method]\nkind = kalman\ninit = 0.5, 1.0, 2.0\n"
            "[outputs]\nfiltered_csv = holes_filtered.csv\n"
        )
        f = tmp_path / "holes.scn"
        f.write_text(text)
        code = main([command, "--scenario", str(f), "--out", str(tmp_path)])
        assert code == 1
        assert "line 6: column 'x' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "holes_filtered.csv").exists()

    def test_unknown_jump_convention_exits_one(self, tmp_path, capsys):
        text = (
            "[scenario]\nschema_version = 1\nname = typo\nmodel = ou_jump\n"
            "dt = 0.5\nn_steps = 50\nseed = 1\n"
            "[params]\ntheta = 1.0\nmu = 2.0\nsigma = 3.0\nlambda_j = 0.5\n"
            "mu_j = 1.0\nsigma_j = 1.0\nx0 = 0.0\n"
            "[method]\nkind = mle\ninit = 1.0, 2.0, 3.0, 0.5, 1.0, 1.0\n"
            "jump_convention = cdf-dt\n"
        )
        f = tmp_path / "typo.scn"
        f.write_text(text)
        code = main(["estimate", "--scenario", str(f), "--out", str(tmp_path)])
        assert code == 1
        assert "got 'cdf-dt'" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        # a misspelt objective is named before any fit
        ("objective = gausian", "got 'gausian'"),
        # a scalar bound applies to all five parameters, rho = -0.2 included
        ("bounds_lower = 1e-15", "init must lie within bounds"),
        # theta_v = 7.5 lies above the default upper bound 6
        ("init = 0.05, 0.3, 7.5, 0.6, 0.04", "init must lie within bounds"),
    ], ids=["objective", "scalar_bound", "init_above_bound"])
    def test_bad_ekf_estimate_option_exits_one(self, tmp_path, capsys, option, message):
        text = (
            "[scenario]\nschema_version = 1\nname = ekf_fit\nmodel = heston\n"
            "dt = 0.499\nn_steps = 300\nseed = 2024061\n"
            "[params]\nmu_s = 0.04\nkappa = 0.3\ntheta_v = 1.5\nxi = 0.6\n"
            "rho = 0.04\ns0 = 100.0\nv0 = 1.5\n"
            "[method]\nkind = ekf\nv0_guess = 1.0\np0 = 1.0\n"
        )
        if not option.startswith("init"):
            text += "init = 0.05, 0.3, 1.2, 0.6, -0.2\n"
        f = tmp_path / "ekf_fit.scn"
        f.write_text(text + option + "\n")
        code = main(["estimate", "--scenario", str(f), "--out", str(tmp_path)])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, model, method, message", [
        ("estimate", "ou", "kind = mle\ninit = 0.5, 1.0, 2.0\nn_particles = 5\n",
         "unknown method options for method 'mle': n_particles"),
        ("estimate", "ou", "kind = mle\ninit = 0.5, 1.0, 2.0\n[outputs]\nplot_svg = fit.svg\n",
         "unknown output kinds for method 'mle': plot_svg"),
        ("filter", "heston", "kind = ekf\nmeas_var = -1\njump_convention = bogus\n",
         "unknown method options for method 'ekf': jump_convention, meas_var"),
        ("filter", "heston", "kind = ekf\nv0_guess = nan\n",
         "method 'ekf' option 'v0_guess' must be finite, got 'nan'"),
        ("filter", "ou", "kind = kalman\ninit = 0.5, 1.0, 2.0\nmeas_var = inf\n",
         "method 'kalman' option 'meas_var' must be finite, got 'inf'"),
        ("filter", "ou", "kind = kalman\ninit = 0.5, 1.0, 2.0\np0 = 50\n",
         "unknown method options for method 'kalman': p0"),
        ("filter", "ou", "kind = kalman\ninit = 0.5, 1.0, 2.0\nmeas_var = -1\n",
         "meas_var must be >= 0"),
        ("filter", "heston", "kind = ekf\np0 = -1\n", "P0 must be >= 0"),
        ("filter", "heston", "kind = particle_ekf\nn_particles = 50\np0 = -1\n",
         "P0 must be >= 0"),
    ], ids=["unused_option", "unused_output", "ekf_unused_options", "non_finite_option",
            "infinite_meas_var", "kalman_p0", "kalman_negative_meas_var", "ekf_negative_p0",
            "particle_negative_p0"])
    def test_rejected_method_input_exits_one(self, tmp_path, capsys, command, model, method,
                                             message):
        params = {
            "ou": "theta = 1.0\nmu = 2.0\nsigma = 3.0\nx0 = 0.0\n",
            "heston": "mu_s = 0.04\nkappa = 0.3\ntheta_v = 1.5\nxi = 0.6\nrho = 0.04\n"
                      "s0 = 100.0\nv0 = 1.5\n",
        }[model]
        f = tmp_path / "bad.scn"
        f.write_text(
            f"[scenario]\nschema_version = 1\nname = bad\nmodel = {model}\n"
            f"dt = 0.499\nn_steps = 50\nseed = 1\n[params]\n{params}[method]\n{method}"
        )
        out = tmp_path / "out"
        assert main([command, "--scenario", str(f), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_benchmark_needs_two_scenarios(self, tmp_path, capsys):
        code = main(["benchmark", "--scenario", "ou_mle", "--out", str(tmp_path)])
        assert code == 1
        assert "exactly two" in capsys.readouterr().err

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SDEFL_OUT", str(tmp_path))
        assert main(["simulate", "--scenario", "ou_sim_paper"]) == 0
        assert (tmp_path / "ou_sim_paper_series.csv").is_file()

    def test_module_entry_point(self):
        # the child imports the same sdefl as this process
        root = os.path.dirname(os.path.dirname(sdefl.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sdefl", "list-scenarios"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 15
