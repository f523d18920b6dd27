import configparser
import contextlib
import dataclasses
import io
import json
import math
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
# a scenario file's model line and [params] section
OU = "model = ou\n[params]\ntheta = 1.0\nmu = 2.0\nsigma = 3.0\nx0 = 0.0\n"
HESTON = ("model = heston\n[params]\nmu_s = 0.04\nkappa = 0.3\ntheta_v = 1.5\nxi = 0.6\n"
          "rho = 0.04\ns0 = 100.0\nv0 = 1.5\n")


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

    def test_records_and_bounds_are_built_at_construction(self):
        sc = ou_scenario(options={"init": (0.5, 1.0, 2.0), "bounds_upper": (6.0, 5.0, 4.0)})
        assert sc.records == (OuParams(theta=1.0, mu=2.0, sigma=3.0),)
        np.testing.assert_array_equal(sc.bounds.lower, [1e-15] * 3)
        np.testing.assert_array_equal(sc.bounds.upper, [6.0, 5.0, 4.0])
        assert ou_scenario(method="simulate", options={}).bounds is None
        # records and bounds are built, not given, and leave equality to the inputs
        assert sc == ou_scenario(options={"init": (0.5, 1.0, 2.0), "bounds_upper": (6.0, 5.0, 4.0)})
        with pytest.raises(TypeError):
            ou_scenario(records=())

    def test_seed_outside_random_source_range(self):
        with pytest.raises(ScenarioError, match="^seed must fit in 64 bits, got -1$"):
            ou_scenario(seed=-1)
        with pytest.raises(ScenarioError, match=f"^seed must fit in 64 bits, got {2 ** 64}$"):
            ou_scenario(seed=2 ** 64)

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


def readme_default(text):
    """A default as README's option table writes it, in METHODS' terms."""
    if text == "required":
        return experiments.REQUIRED
    if text.startswith("none"):
        return None
    if text.startswith("`"):
        return text.strip("`")
    values = []
    for part in text.split(" and "):  # "1e-15 ×4 and −0.999"
        number, _, times = part.partition(" ×")
        values += [float(number.replace("−", "-"))] * int(times or 1)
    return tuple(values)


def test_readme_option_table_is_methods():
    # README's "| kind | option | type | default |" table, key by key
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = readme.read_text(encoding="utf-8").split("| kind | option | type | default |\n")[1]
    listed, kind = {}, None
    for row in rows.splitlines()[1:]:
        if not row.startswith("|"):
            break
        first, option, _, default = (cell.strip() for cell in row.strip("|").split("|"))
        kind = first.strip("`") or kind
        keys = re.findall(r"`(\w+)`", option)  # none for "(none)"
        defaults = re.split(r"[;,] ", default) if len(keys) > 1 else [default] * len(keys)
        assert len(defaults) == len(keys), row
        listed.setdefault(kind, {}).update(zip(keys, map(readme_default, defaults)))
    want = {kind: {key: (float(opt.default),) if isinstance(opt.default, (int, float)) else opt.default
                   for key, opt in method.options.items()}
            for kind, method in METHODS.items()}
    assert listed == want


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

    @pytest.mark.parametrize("name", ["ou_kalman", "ou_jump_kalman", "heston_ekf", "bates_ekf"])
    def test_filter_log_lik_is_minus_the_fit_objective(self, name, monkeypatch):
        sc = load_scenario(name)
        # an ekf fit holds a Bates record's lam and jump_size fixed
        fitted = MODELS[sc.model].fields[:5 if sc.method == "ekf" else None]
        v = np.array([sc.params[k] for k in fitted])
        if sc.method == "ekf":  # no packaged ekf scenario sets an init
            sc = dataclasses.replace(sc, options={**sc.options, "init": tuple(v)})
        sim = experiments._get_series(sc, sc.seed)
        _, _, log_lik = METHODS[sc.method].stages["filter"](sc, sim, sc.seed)
        seen = {}
        for module in (kalman, experiments):
            monkeypatch.setattr(module, "bounded_minimize",
                                lambda objective, *args, **kwargs: seen.update(objective=objective))
        METHODS[sc.method].stages["estimate"](sc, sim)
        value = seen["objective"](v)
        # the Kalman fit's objective returns its gradient too
        assert (value[0] if sc.method == "kalman" else value) == -log_lik

    @pytest.mark.parametrize("name", ["ou_kalman", "heston_ekf", "heston_particle"])
    @pytest.mark.parametrize("offset, log_lik, message", [
        (0.0, -np.inf, r"the filter's log-likelihood is not finite \(-inf\)"),
        (1e308, 0.0, r"the filter's RMSE is not finite \(inf\)"),
        (np.nan, 0.0, r"the filter's RMSE is not finite \(nan\)"),
    ])
    def test_non_finite_filter_result_fails_before_writing(self, tmp_path, monkeypatch, name,
                                                           offset, log_lik, message):
        sc = load_scenario(name)

        def filter_stage(sc, sim, seed):
            tracked = sim if isinstance(sim, Path) else sim[1]
            return tracked, tracked.values[1:] + offset, log_lik

        monkeypatch.setitem(METHODS[sc.method].stages, "filter", filter_stage)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sdefl.DegenerateSystemError, match=f"^{message}$"):
                run_scenario(sc, out_dir=str(tmp_path), stages=("filter",))
        assert not list(tmp_path.iterdir())

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
                                 options={**base.options, "init": init})
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
                                       p0=base.options["p0"])

        assert fit.neg_log_lik == pytest.approx(neg_ll(fit.params), rel=1e-12)
        assert fit.neg_log_lik <= neg_ll(HestonParams(*init))

    @pytest.mark.parametrize("name, init", [
        ("heston_ekf", (0.04, 0.3, 1.2, 0.6, 0.04)),
        ("bates_ekf", (0.04, 0.3, 1.5, 0.6, 0.04)),
    ])
    def test_fit_stays_inside_its_box(self, tmp_path, monkeypatch, name, init):
        # scipy's 3-point differences stepped outside the bounds and met
        # inf there, with a RuntimeWarning from inf - inf; the fit's
        # differences are one-sided at a bound
        base = load_scenario(name)
        sc = dataclasses.replace(base, n_steps=300, outputs={},
                                 options={**base.options, "init": init})
        points = []
        minimize = experiments.bounded_minimize

        def spy(objective, x0, bounds, pack, **kwargs):
            def watched(v):
                points.append(v.copy())
                return objective(v)

            return minimize(watched, x0, bounds, pack, **kwargs)

        monkeypatch.setattr(experiments, "bounded_minimize", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = run_scenario(sc, out_dir=str(tmp_path), stages=("estimate",)).estimation
        points = np.array(points)
        assert fit.iterations > 0 and len(points) > 1
        assert np.all(points >= sc.bounds.lower) and np.all(points <= sc.bounds.upper)


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
        p = Path(t0=0.25, dt=0.1, values=np.random.default_rng(4).normal(size=(3, 2)))
        f = tmp_path / "joint.csv"
        emit_csv(p, str(f), labels=("log_price", "variance"))
        lines = f.read_text().splitlines()
        assert lines[0] == "t,log_price,variance"
        assert len(lines) == 4
        back = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
        assert np.array_equal(back[:, 0], p.times())
        assert np.array_equal(back[:, 1:], p.values)

    def test_label_count_must_match(self, tmp_path):
        p = Path(t0=0.0, dt=1.0, values=np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="labels"):
            emit_csv(p, str(tmp_path / "x.csv"), labels=("only_one",))

    def test_label_count_must_match_on_a_scalar_path(self, tmp_path):
        # a scalar path used to write "t,x" and drop the other labels
        p = Path(t0=0.0, dt=1.0, values=np.zeros(3))
        with pytest.raises(ShapeError, match="^need 1 column labels, got 3$"):
            emit_csv(p, str(tmp_path / "x.csv"), labels=("x", "y", "z"))
        assert not list(tmp_path.iterdir())
        emit_csv(p, str(tmp_path / "x.csv"), labels=("x",))
        assert (tmp_path / "x.csv").read_text().splitlines()[0] == "t,x"

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

    def test_axis_near_the_largest_float_stays_finite(self, tmp_path):
        # a padded span of 1.1e308 times the tick index 4 used to overflow,
        # and three y ticks were written at -inf
        p = Path(t0=0.0, dt=1.0, values=[0.0, 5e307, 1e308])
        f = tmp_path / "wide.svg"
        emit_plot([("x", p)], str(f))
        texts = list(ET.fromstring(f.read_text()).iter(f"{SVG}text"))
        assert all(math.isfinite(float(el.get("y"))) for el in texts)
        assert [el.text for el in texts[5:10]] == ["-5e+306", "2.25e+307", "5e+307", "7.75e+307",
                                                   "1.05e+308"]

    @pytest.mark.parametrize("t0, values", [
        (0.0, [1e20] * 3), (0.0, [-1e308, 1e308]), (0.0, [-1.7e308, 1.7e308]),
        (0.0, [1.7976931348623157e308] * 2), (1e20, [1.0, 2.0]),
    ], ids=["constant_past_2**53", "span_past_the_floats", "padded_span_past_the_floats",
            "constant_at_the_largest_float", "times_past_2**53"])
    def test_path_it_cannot_scale_as_is_writes_finite_coordinates(self, tmp_path, t0, values):
        # a constant 1e20, in values or times, used to leave a span of 0 and
        # divide by it, and a span past the largest float wrote nan
        # coordinates with a warning
        f = tmp_path / "edge.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emit_plot([("x", Path(t0=t0, dt=1.0, values=values))], str(f))
        assert svg_numbers(f) and all(math.isfinite(v) for v in svg_numbers(f))

    def test_label_is_xml_escaped(self, tmp_path):
        p = Path(t0=0.0, dt=1.0, values=np.arange(5.0))
        f = tmp_path / "esc.svg"
        emit_plot([("a<b&c", p)], str(f))
        root = ET.fromstring(f.read_text())
        texts = [el.text for el in root.iter(f"{SVG}text")]
        assert "a<b&c" in texts


def svg_numbers(f):
    """Every coordinate and tick label that the SVG file f writes."""
    root = ET.fromstring(f.read_text())
    numbers = []
    for el in root.iter():
        numbers += [float(el.get(a)) for a in ("x", "y", "x1", "y1", "x2", "y2") if el.get(a)]
        numbers += [float(v) for v in re.split(r"[ ,]", el.get("points", "")) if v]
        if el.tag == f"{SVG}text" and re.fullmatch(r"[-+.e\d]+|[-+]?(inf|nan)", el.text):
            numbers.append(float(el.text))
    return numbers


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

    def test_sub_millisecond_sides_keep_four_digits(self, tmp_path, monkeypatch):
        # a side of about 50 us used to read 0.0001 s, rounded to 4 decimals
        sc_a, sc_b = load_scenario("ou_mle"), load_scenario("ou_mle")

        def fit(sc, sim):
            time.sleep(5e-5 if sc is sc_a else 1e-3)
            return SimpleNamespace(neg_log_lik=0.0)

        monkeypatch.setitem(METHODS["mle"].stages, "estimate", fit)
        record = benchmark(sc_a, sc_b, out_dir=str(tmp_path), repetitions=3)
        a, b, ratio = (record[k] for k in ("median_s_a", "median_s_b", "ratio_a_over_b"))
        assert a >= 5e-5 and b >= 1e-3
        for x in (a, b):
            assert float(f"{x:.4g}") == x
        assert ratio == round(ratio, 4)  # the ratio keeps its 4 decimals
        # a and b each carry up to 5e-4 relative, the ratio up to 5e-5
        assert a / b == pytest.approx(ratio, rel=2e-3, abs=1.5e-4)

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

    @pytest.mark.parametrize("repetitions", [2.5, -1, np.nan])
    def test_bad_repetitions_are_named_before_any_fit(self, tmp_path, monkeypatch, repetitions):
        # 2.5 used to run both warm-up fits and then raise a bare TypeError
        def fit(sc, sim):
            raise AssertionError("a fit ran before repetitions was checked")

        for method in ("mle", "kalman"):
            monkeypatch.setitem(METHODS[method].stages, "estimate", fit)
        message = f"^repetitions must be a positive integer, got {repetitions}$"
        with pytest.raises(ScenarioError, match=message):
            benchmark(load_scenario("ou_mle"), load_scenario("ou_kalman"),
                      out_dir=str(tmp_path), repetitions=repetitions)
        assert not list(tmp_path.iterdir())


class TestReproduce:
    def test_all_scenarios_and_sidecars(self, tmp_path):
        reports = reproduce(out_dir=str(tmp_path), seed=3)
        assert len(reports) == 15
        names = {f.name for f in tmp_path.iterdir()}
        # the declared outputs, Table 5 and the timings: no benchmark_*.json
        declared = {f for name in list_scenarios() for f in load_scenario(name).outputs.values()}
        artifacts = declared | {"table5_rmse.csv"}
        assert len(artifacts) == 26
        assert {os.path.splitext(f)[1] for f in artifacts} == {".csv", ".svg"}
        assert names == artifacts | {"timings.json"}
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert set(timings) == {rep.scenario for rep in reports}
        # Table 5: one row per regime, in TABLE5_SCENARIOS order
        by_name = {rep.scenario: rep for rep in reports}
        lines = (tmp_path / "table5_rmse.csv").read_text().splitlines()
        assert lines == ["scenario,rmse"] + [f"{n},{float(by_name[n].rmse)!r}" for n in TABLE5_SCENARIOS]
        for name in TABLE5_SCENARIOS:
            assert 0.1 <= by_name[name].rmse <= 5.0
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
        assert err.rstrip("\n").endswith("innovation variance not positive at step 420")
        assert multiprocessing.active_children() == []

    def test_benchmark_prints_medians_and_ratio(self, tmp_path, capsys):
        args = ["benchmark", "--scenario", "ou_mle", "--scenario", "ou_kalman",
                "--repetitions", "1", "--out", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"ou_mle median \S+s \| ou_kalman median \S+s \| ratio \d+\.\d{4}\n", out)
        record = json.loads((tmp_path / "benchmark_ou_mle_vs_ou_kalman.json").read_text())
        assert (record["scenario_a"], record["scenario_b"]) == ("ou_mle", "ou_kalman")

    def test_unknown_scenario_exits_one(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "nope", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_constant_path_past_2_53_plots(self, tmp_path, capsys):
        # 1e20 + 1.0 is 1e20: the plot's span was 0 and the run ended in an
        # uncaught ZeroDivisionError
        text = (
            "[scenario]\nschema_version = 1\nname = flat\nmodel = ou\n"
            "dt = 0.499\nn_steps = 10\nseed = 1\n"
            "[params]\ntheta = 1.0\nmu = 1e20\nsigma = 0.0\nx0 = 1e20\n"
            "[method]\nkind = simulate\n[outputs]\nplot_svg = flat.svg\n"
        )
        f = tmp_path / "flat.scn"
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--scenario", str(f), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert all(math.isfinite(v) for v in svg_numbers(tmp_path / "flat.svg"))

    def test_kalman_filter_names_the_step_of_a_zero_innovation_variance(self, tmp_path, capsys):
        # with no process or measurement noise the second prior variance is 0
        text = (
            "[scenario]\nschema_version = 1\nname = still\nmodel = ou\n"
            "dt = 0.499\nn_steps = 10\nseed = 1\n"
            "[params]\ntheta = 1.0\nmu = 2.0\nsigma = 0.0\nx0 = 0.0\n"
            "[method]\nkind = kalman\ninit = 0.5, 1.0, 2.0\nmeas_var = 0.0\n"
        )
        f = tmp_path / "still.scn"
        f.write_text(text)
        assert main(["filter", "--scenario", str(f), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: innovation variance not positive at step 1\n")

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

    def test_huge_series_filter_exits_two(self, tmp_path, capsys):
        # finite values whose squares overflow: the filter's log-likelihood
        # is -inf, which the stage reports instead of writing
        rows = [f"{0.5 * k!r},{1e200 * (1.0 + 0.1 * (k % 5))!r}" for k in range(30)]
        (tmp_path / "data.csv").write_text("t,x\n" + "\n".join(rows) + "\n")
        text = (
            "[scenario]\nschema_version = 1\nname = huge\nmodel = ou\n"
            "dt = 0.5\nn_steps = 29\nseed = 1\ninput_csv = data.csv\n"
            "[params]\ntheta = 1.0\nmu = 2.0\nsigma = 3.0\nx0 = 0.0\n"
            "[method]\nkind = kalman\ninit = 0.5, 1.0, 2.0\n"
            "[outputs]\nfiltered_csv = huge_filtered.csv\n"
        )
        f = tmp_path / "huge.scn"
        f.write_text(text)
        code = main(["filter", "--scenario", str(f), "--out", str(tmp_path)])
        assert code == 2
        assert "runtime failure: the filter's log-likelihood is not finite (-inf)" in (
            capsys.readouterr().err)
        assert not (tmp_path / "huge_filtered.csv").exists()

    @staticmethod
    def _packaged_with(tmp_path, name, key, value):
        """A copy of a packaged scenario with one key set to value."""
        with open(os.path.join(SCENARIO_DIR, name + ".scn")) as fh:
            text = fh.read()
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1
        f = tmp_path / f"{name}.scn"
        f.write_text(text)
        return str(f)

    def test_overflowing_bk_rate_exits_two(self, tmp_path, capsys):
        # dt = 3.5 makes the Euler step in ln r unstable; exp(ln r) used to
        # end in an uncaught OverflowError
        f = self._packaged_with(tmp_path, "bk_mle", "dt", "3.5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--scenario", f, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ln r leaves the floats at step 12 (ln r = ")
        assert not (tmp_path / "bk_mle_estimate.csv").exists()

    def test_poisson_rate_numpy_cannot_draw_exits_one(self, tmp_path, capsys):
        # lam * dt = 1e301 used to end in numpy's uncaught "lam value too large"
        f = self._packaged_with(tmp_path, "bates_ekf", "dt", "1e300")
        code = main(["filter", "--scenario", f, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: lam*dt = 1e+301 exceeds numpy's largest Poisson rate ")

    def test_overflowing_ekf_start_exits_two(self, tmp_path, capsys):
        # from v0_guess = 1e308 the first innovation's log-likelihood term
        # overflows: the run used to warn from core.rmse, write its files and
        # exit 0 with rmse=inf, and then to blame the stage's log-likelihood
        # without naming the step
        f = self._packaged_with(tmp_path, "heston_ekf", "v0_guess", "1e308")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["filter", "--scenario", f, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "runtime failure: log-likelihood leaves the floats at step 0 (log-likelihood = -inf)\n")
        assert not (tmp_path / "heston_ekf_filtered.csv").exists()

    @pytest.mark.parametrize("name", ["heston_ekf", "bates_ekf"])
    def test_ekf_stage_names_the_step_its_posterior_leaves_the_floats(self, tmp_path, capsys, name):
        # kappa * dt = 5e99: the simulated path stays within the floats, but
        # the filter's posterior does not; the run used to blame a nan
        # log-likelihood
        f = self._packaged_with(tmp_path, name, "kappa", "1e100")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["filter", "--scenario", f, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "runtime failure: v or P leaves the floats at step 2 (v = nan, P = nan)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, name, key, value, message", [
        # theta * dt = 5e199: the first Euler step overshoots past the floats
        ("simulate", "ou_sim_paper", "theta", "1e200", "x leaves the floats at step 1 (x = -inf)"),
        ("estimate", "ou_jump_mle", "theta", "1e200", "x leaves the floats at step 1 (x = -inf)"),
        # the log price drifts by about 5e307 a step
        ("filter", "heston_ekf", "mu_s", "1e308", "ln S or v leaves the floats at step 3 (ln S = inf"),
        ("filter", "bates_ekf", "mu_s", "1e308", "ln S or v leaves the floats at step 3 (ln S = inf"),
    ], ids=["ou", "ou_jump", "heston", "bates"])
    def test_simulated_path_leaving_the_floats_exits_two(self, tmp_path, capsys, command, name, key,
                                                         value, message):
        # these used to write rows of inf and nan and exit 0, or exit 1 as if
        # the path the program made were a bad input
        f = self._packaged_with(tmp_path, name, key, value)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--scenario", f, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("runtime failure: " + message)
        assert not out.exists()

    def test_overflowing_heston_variance_exits_two(self, tmp_path, capsys):
        # the variance overflows to -inf, which the reported path used to
        # clip to 0.0, and the run wrote it and exited 0
        f = self._packaged_with(tmp_path, "heston_ekf", "kappa", "1e300")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", f, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "runtime failure: ln S or v leaves the floats at step 3 (ln S = ")
        assert not out.exists()

    def test_fit_ending_outside_its_domain_exits_two(self, tmp_path, capsys):
        # at dt = 5e-324 the score overflows at the init: a fit that stepped
        # on that gradient went to NaN and then to the lower bounds, where
        # the no-jump variance is 0, and once reported neg_log_lik=inf as
        # converged
        f = self._packaged_with(tmp_path, "ou_jump_mle", "dt", "5e-324")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--scenario", f, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: the objective's gradient is not finite at the initial point "
            "(entry 2 is nan)\n")
        assert not (tmp_path / "ou_jump_mle_estimate.csv").exists()

    @pytest.mark.parametrize("n_steps", [10**20, 10**400], ids=["past_numpy", "past_the_floats"])
    def test_step_count_numpy_cannot_hold_exits_one(self, tmp_path, capsys, n_steps):
        # 10**20 ended in numpy's uncaught "Maximum allowed dimension
        # exceeded", and 10**400 in an OverflowError from n_steps * dt
        f = self._packaged_with(tmp_path, "ou_sim_paper", "n_steps", str(n_steps))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", f, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: n_steps must be at most {2**60 - 2}, got {n_steps}\n")
        assert not out.exists()

    def test_allocation_that_fails_exits_two(self, tmp_path, capsys, monkeypatch):
        # 10**11 steps ask numpy for 745 GiB, which ended in an uncaught
        # MemoryError; the draw raises it here without asking
        asked = []

        def refuse(src, n):
            asked.append(n)
            raise MemoryError(f"Unable to allocate {8 * n / 2**30:.0f} GiB")

        monkeypatch.setattr(RandomSource, "normals", refuse)
        f = self._packaged_with(tmp_path, "ou_sim_paper", "n_steps", str(10**11))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", f, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "runtime failure: Unable to allocate 745 GiB\n"
        assert asked == [10**11]
        assert not out.exists()

    @pytest.mark.parametrize("command, name", [("simulate", "ou_sim_paper"), ("filter", "heston_ekf")])
    def test_grid_past_the_floats_exits_one(self, tmp_path, capsys, command, name):
        # 1000 steps of 1e308: Path.times and the plot's x axis used to
        # overflow, and the Heston filter blamed its own price path
        f = self._packaged_with(tmp_path, name, "dt", "1e308")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--scenario", f, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the grid's last time n_steps * dt is not finite (dt = 1e+308, n_steps = 1000)\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, code, printed", [
        ("v0_guess", 2, "runtime failure: all particle weights vanished at step 0\n"),
        # the simulated variance overflows to -inf before the filter runs
        ("kappa", 2, "runtime failure: ln S or v leaves the floats at step 3 (ln S = "),
        ("p0", 0, "log_lik=-1.3382e+151"),
    ], ids=["v0_guess", "kappa", "p0"])
    def test_particle_pass_from_a_huge_value_keeps_numpy_quiet(self, tmp_path, capsys, key, code,
                                                                printed):
        # the particle step used to warn from its overflowing arithmetic
        f = self._packaged_with(tmp_path, "heston_particle", key, "1e308")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["filter", "--scenario", f, "--out", str(tmp_path)]) == code
        assert printed in (capsys.readouterr().err if code else capsys.readouterr().out)

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
        # the Gaussian likelihood is the one EKF objective: no option picks it
        ("objective = gaussian", "unknown method options for method 'ekf': objective"),
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
        ("estimate", OU, "kind = mle\ninit = 0.5, 1.0, 2.0\nn_particles = 5\n",
         "unknown method options for method 'mle': n_particles"),
        ("estimate", OU, "kind = mle\ninit = 0.5, 1.0, 2.0\n[outputs]\nplot_svg = fit.svg\n",
         "unknown output kinds for method 'mle': plot_svg"),
        ("filter", HESTON, "kind = ekf\nmeas_var = -1\njump_convention = bogus\n",
         "unknown method options for method 'ekf': jump_convention, meas_var"),
        ("filter", HESTON, "kind = ekf\nv0_guess = nan\n",
         "method 'ekf' option 'v0_guess' must be finite, got 'nan'"),
        ("filter", OU, "kind = kalman\ninit = 0.5, 1.0, 2.0\nmeas_var = inf\n",
         "method 'kalman' option 'meas_var' must be finite, got 'inf'"),
        ("filter", OU, "kind = kalman\ninit = 0.5, 1.0, 2.0\np0 = 50\n",
         "unknown method options for method 'kalman': p0"),
        ("filter", OU, "kind = kalman\ninit = 0.5, 1.0, 2.0\nmeas_var = -1\n",
         "meas_var must be finite and >= 0, got -1.0"),
        ("filter", HESTON, "kind = ekf\np0 = -1\n", "p0 must be finite and >= 0, got -1.0"),
        ("filter", HESTON, "kind = particle_ekf\nn_particles = 50\np0 = -1\n",
         "p0 must be finite and >= 0, got -1.0"),
        ("estimate", OU, "kind = kalman\ninit = 0.5, 1.0, 2.0\nbounds_lower = 1e-15, 1e-15\n",
         "bounds must be scalar or 3 entries"),
        ("filter", OU, "kind = kalman\ninit = 0.5, 1.0, 2.0\nbounds_lower = 6\n",
         "lower bounds must be < upper bounds"),
        ("filter", OU, "kind = kalman\ninit = 0.5, 1.0\n", "init must have 3 entries for 'ou'"),
        ("estimate", OU, "kind = mle\ninit = 0.5, 1.0, 7.0\n", "init must lie within bounds"),
        ("filter", HESTON, "kind = particle_ekf\nn_particles = 0\n",
         "n_particles must be a positive integer, got 0"),
        ("simulate", OU.replace("theta = 1.0", "theta = -1.0"), "kind = simulate\n",
         "theta must be >= 0"),
        # the particle filter's p0 rule is checked at load, before the
        # simulate stage writes series_csv
        ("filter", HESTON.replace("xi = 0.6", "xi = 0.0"), "kind = particle_ekf\nn_particles = 50\n",
         "xi = 0 makes the variance transition a point mass, so p0 must be 0 with it, got p0 = 1.0"),
        ("filter", HESTON.replace("rho = 0.04", "rho = -1.0"),
         "kind = particle_ekf\nn_particles = 50\np0 = 0.5\n",
         "rho = -1 makes the variance transition a point mass, so p0 must be 0 with it, "
         "got p0 = 0.5"),
    ], ids=["unused_option", "unused_output", "ekf_unused_options", "non_finite_option",
            "infinite_meas_var", "kalman_p0", "kalman_negative_meas_var", "ekf_negative_p0",
            "particle_negative_p0", "bounds_length", "bounds_order", "filter_init_length",
            "mle_init_outside_bounds", "zero_particles", "negative_theta", "particle_xi_zero_p0",
            "particle_rho_one_p0"])
    def test_rejected_method_input_exits_one(self, tmp_path, capsys, command, model, method,
                                             message):
        # every row names an output, so a stage that ran before the check
        # would have left its file behind
        outputs = "" if "[outputs]" in method else "[outputs]\n"
        f = tmp_path / "bad.scn"
        f.write_text(
            "[scenario]\nschema_version = 1\nname = bad\ndt = 0.499\nn_steps = 50\nseed = 1\n"
            f"{model}[method]\n{method}{outputs}series_csv = series.csv\n"
        )
        out = tmp_path / "out"
        assert main([command, "--scenario", str(f), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (b"[scenario]\nschema_version = 1\nname = a\nname = b\n",
         "line 4: key 'name' repeats in [scenario]"),
        (b"schema_version = 1\n[scenario]\n", "line 1: a key before any [section] header"),
        (b"[scenario]\nschema_version = 1\nname = caf\xe9\n", "line 3: bytes that are not UTF-8"),
    ], ids=["duplicate_key", "no_section_header", "not_utf8"])
    def test_unreadable_scenario_file_exits_one(self, tmp_path, capsys, text, message):
        f = tmp_path / "bad.scn"
        f.write_bytes(text)
        assert main(["simulate", "--scenario", str(f), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: scenario file '{f}', {message}\n"

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


def _non_finite(text):
    """The tokens of text that read as a float but are not finite."""
    bad = []
    for token in re.split(r"[\s,=()\[\]<>\"']+", text):
        try:
            if not math.isfinite(float(token)):
                bad.append(token)
        except ValueError:
            pass
    return bad


def _fuzz_keys(command, name):
    """(command, name, key) for every key of the packaged scenario's
    [scenario], [params] and [method] sections but its name and kind."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(os.path.join(SCENARIO_DIR, name + ".scn"))
    return [(command, name, key) for section in ("scenario", "params", "method")
            for key in cp[section] if key not in ("name", "kind")]


class TestCliFuzz:
    """sdefl on a packaged scenario with one key set to a hostile value
    exits 0, 1 or 2 with a message, never with a traceback or a warning
    from sdefl, and a run that exits 0 writes only finite numbers."""

    KEYS = [k for run in [("simulate", "ou_sim_paper"), ("estimate", "ou_mle"),
                          ("estimate", "bk_mle"), ("estimate", "ou_jump_mle"),
                          ("filter", "ou_kalman"), ("estimate", "ou_jump_kalman"),
                          ("filter", "heston_ekf"), ("filter", "bates_ekf"),
                          ("filter", "heston_particle")]
            for k in _fuzz_keys(*run)]
    # every count here is refused before any allocation or is at most 10**4
    VALUES = ["0", "-1", "2", "10000", str(10**20), "1" + "0" * 400, "0.5", "-0.0", "1e-300",
              "5e-324", "1e300", "1e308", "-1e308", "nan", "inf", "-inf", "abc", ""]

    @settings(max_examples=60, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(run=st.sampled_from(KEYS), value=st.sampled_from(VALUES))
    # the classes it found, each mended
    @example(run=("simulate", "ou_sim_paper", "n_steps"), value=str(10**20))
    @example(run=("filter", "heston_particle", "n_particles"), value=str(10**20))
    @example(run=("simulate", "ou_sim_paper", "mu"), value="1e308")
    @example(run=("estimate", "ou_jump_mle", "dt"), value="5e-324")
    @example(run=("estimate", "ou_jump_mle", "sigma_j"), value="1e308")
    def test_one_hostile_key(self, tmp_path, run, value):
        command, name, key = run
        where = tempfile.mkdtemp(dir=tmp_path)
        f = TestCli._packaged_with(pathlib.Path(where), name, key, value)
        out = os.path.join(where, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([command, "--scenario", f, "--out", out])
        package = os.path.dirname(sdefl.__file__)
        assert [str(w.message) for w in caught if w.filename.startswith(package)] == []
        assert code in (0, 1, 2)
        if code:
            assert stderr.getvalue().startswith(("error: ", "runtime failure: "))
            return
        written = [stdout.getvalue()]
        for fname in os.listdir(out):
            with open(os.path.join(out, fname)) as fh:
                written.append(fh.read())
        assert [_non_finite(t) for t in written] == [[]] * len(written)
