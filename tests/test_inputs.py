"""The input boundary: the four rules of sdefl.core (series, step, variance,
count), checked once at the top of every public entry point.

TestEveryEntryPoint holds one row per public entry point that takes a dt,
a series, a variance or a count; a new entry point costs one row.
"""

import warnings

import numpy as np
import pytest

from sdefl import (
    BatesParams,
    BkParams,
    Bounds,
    DomainError,
    HestonParams,
    InitError,
    JumpParams,
    LinearStateSpace,
    OuParams,
    Path,
    RandomSource,
    ShapeError,
    bates_ekf_system,
    bk_density,
    ekf_log_likelihood,
    ekf_run,
    estimate_kalman,
    estimate_mle,
    heston_ekf_system,
    kalman_run,
    log_likelihood,
    log_returns,
    ou_density,
    ou_jump_density,
    ou_state_space,
    particle_ekf_run,
    particle_run,
    simulate_bates,
    simulate_bk,
    simulate_heston,
    simulate_ou,
    simulate_ou_jump,
)
from sdefl import kalman, particle

SEED = 11
DT = 0.5
OU = OuParams(theta=1.0, mu=0.5, sigma=0.3)
JUMP = JumpParams(lambda_j=0.5, mu_j=0.0, sigma_j=0.2)
BK = BkParams(theta=0.1, alpha=1.0, sigma=0.2)
HESTON = HestonParams(mu_s=0.04, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)
BATES = BatesParams(heston=HESTON, lam=1.0, jump_size=0.1)

OU_PATH = simulate_ou(OU, 0.0, DT, 20, RandomSource(SEED))
PRICES, _ = simulate_heston(HESTON, 100.0, 1.5, DT, 20, RandomSource(SEED))
SV = heston_ekf_system(HESTON, DT, PRICES)
X = np.array([0.1, 0.2, 0.15])
BOUNDS = Bounds.uniform(3)
INIT = (0.5, 1.0, 2.0)

BAD_INDEX = 3


def spoiled(series, bad):
    """A copy of series (a Path or an array) holding bad at BAD_INDEX."""
    values = np.array(getattr(series, "values", series), dtype=float)
    values[BAD_INDEX] = bad
    return Path(t0=series.t0, dt=series.dt, values=values) if isinstance(series, Path) else values


def src():
    return RandomSource(SEED)


# entry point -> {argument: call with that argument replaced by a bad value}
ROWS = {
    "Path": {"dt": lambda b: Path(0.0, b, [1.0, 2.0])},
    "simulate_ou": {"dt": lambda b: simulate_ou(OU, 0.0, b, 10, src()),
                    "n_steps": lambda b: simulate_ou(OU, 0.0, DT, b, src())},
    "simulate_ou_jump": {"dt": lambda b: simulate_ou_jump(OU, JUMP, 0.0, b, 10, src()),
                         "n_steps": lambda b: simulate_ou_jump(OU, JUMP, 0.0, DT, b, src())},
    "simulate_bk": {"dt": lambda b: simulate_bk(BK, 0.1, b, 10, src()),
                    "n_steps": lambda b: simulate_bk(BK, 0.1, DT, b, src())},
    "simulate_heston": {"dt": lambda b: simulate_heston(HESTON, 100.0, 1.5, b, 10, src()),
                        "n_steps": lambda b: simulate_heston(HESTON, 100.0, 1.5, DT, b, src())},
    "simulate_bates": {"dt": lambda b: simulate_bates(BATES, 100.0, 1.5, b, 10, src()),
                       "n_steps": lambda b: simulate_bates(BATES, 100.0, 1.5, DT, b, src())},
    "ou_density": {"dt": lambda b: ou_density(X[:-1], X[1:], b, OU)},
    "ou_jump_density": {"dt": lambda b: ou_jump_density(X[:-1], X[1:], b, OU, JUMP)},
    "bk_density": {"dt": lambda b: bk_density(X[:-1], X[1:], b, BK)},
    "log_likelihood": {"path": lambda b: log_likelihood(spoiled(OU_PATH, b), ou_density, OU)},
    "estimate_mle": {"path": lambda b: estimate_mle(spoiled(OU_PATH, b), "ou", INIT, BOUNDS)},
    "estimate_kalman": {
        "series": lambda b: estimate_kalman(spoiled(OU_PATH, b), "ou", INIT, BOUNDS),
        "meas_var": lambda b: estimate_kalman(OU_PATH, "ou", INIT, BOUNDS, meas_var=b)},
    "ou_state_space": {"dt": lambda b: ou_state_space(OU, b),
                       "meas_var": lambda b: ou_state_space(OU, DT, meas_var=b),
                       "p0": lambda b: ou_state_space(OU, DT, p0=b)},
    "kalman_run": {"series": lambda b: kalman_run(spoiled(OU_PATH.values, b),
                                                  ou_state_space(OU, DT))},
    "log_returns": {"price_path": lambda b: log_returns(spoiled(PRICES, b))},
    "heston_ekf_system": {"dt": lambda b: heston_ekf_system(HESTON, b, PRICES),
                          "price_path": lambda b: heston_ekf_system(HESTON, DT, spoiled(PRICES, b))},
    "bates_ekf_system": {"dt": lambda b: bates_ekf_system(BATES, b, PRICES),
                         "price_path": lambda b: bates_ekf_system(BATES, DT, spoiled(PRICES, b))},
    "ekf_run": {"series": lambda b: ekf_run(spoiled(SV.dlns, b), SV),
                "p0": lambda b: ekf_run(SV.dlns, SV, p0=b)},
    "ekf_log_likelihood": {"series": lambda b: ekf_log_likelihood(spoiled(SV.dlns, b), SV),
                           "p0": lambda b: ekf_log_likelihood(SV.dlns, SV, p0=b)},
    "particle_run": {"series": lambda b: particle_run(spoiled(SV.dlns, b), SV, 10, src()),
                     "p0": lambda b: particle_run(SV.dlns, SV, 10, src(), p0=b),
                     "n_particles": lambda b: particle_run(SV.dlns, SV, b, src())},
    "particle_ekf_run": {
        "series": lambda b: particle_ekf_run(spoiled(PRICES, b), HESTON, 10, src()),
        "p0": lambda b: particle_ekf_run(PRICES, HESTON, 10, src(), p0=b),
        "n_particles": lambda b: particle_ekf_run(PRICES, HESTON, b, src())},
}

# rule -> (bad values, the exact message for argument arg and bad value b)
RULES = {
    "series": ((np.nan, np.inf), "{arg} value at index 3 is not finite"),
    "step": ((np.nan, np.inf, 0.0, -1.0), "dt must be finite and > 0, got {b}"),
    "variance": ((np.nan, np.inf, -1.0), "{arg} must be finite and >= 0, got {b}"),
    "count": ((np.nan, np.inf, 0, -1, 2.5), "{arg} must be a positive integer, got {b}"),
}
RULE_OF = {"series": "series", "path": "series", "price_path": "series", "dt": "step",
           "meas_var": "variance", "p0": "variance", "n_steps": "count", "n_particles": "count"}

CASES = [
    pytest.param(entry, arg, b, id=f"{entry}-{arg}-{b}")
    for entry, calls in ROWS.items()
    for arg in calls
    for b in RULES[RULE_OF[arg]][0]
]


class TestEveryEntryPoint:
    @pytest.mark.parametrize("entry, arg, bad", CASES)
    def test_bad_input_is_named_before_any_warning(self, entry, arg, bad):
        message = RULES[RULE_OF[arg]][1].format(arg=arg, b=bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                ROWS[entry][arg](bad)
        assert str(info.value) == message

    def test_every_row_runs_on_good_input(self):
        # the rows' fixed arguments are valid, so each refusal above is the
        # bad argument's; a good value passes every rule
        good = {"series": None, "path": None, "price_path": None, "dt": DT,
                "meas_var": 1e-4, "p0": 1.0, "n_steps": 10, "n_particles": 10}
        for entry, calls in ROWS.items():
            for arg, call in calls.items():
                if good[arg] is not None:
                    call(good[arg])


class TestFoundAtTheBoundary:
    # the two names are one function, so each row carries its own record
    @pytest.mark.parametrize("build, p", [(heston_ekf_system, HESTON), (bates_ekf_system, BATES)],
                             ids=["heston_ekf_system", "bates_ekf_system"])
    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_sv_system_refuses_a_non_finite_dt(self, build, p, dt):
        # a NaN or infinite dt used to build, and ekf_run then failed on an
        # unrelated GaussianState symmetry check after numpy warnings
        with pytest.raises(DomainError, match=f"^dt must be finite and > 0, got {dt}$"):
            build(p, dt, PRICES)

    def test_fractional_particle_count_is_refused(self):
        # 2.5 used to run silently with 2 particles
        with pytest.raises(DomainError, match="^n_particles must be a positive integer, got 2.5$"):
            particle_run(SV.dlns, SV, 2.5, src())
        with pytest.raises(DomainError, match="^n_particles must be a positive integer, got 2.5$"):
            particle_ekf_run(PRICES, HESTON, 2.5, src())

    def test_numpy_integer_counts_are_accepted(self):
        est, ll = particle_run(SV.dlns, SV, np.int64(4), src())
        est_int, ll_int = particle_run(SV.dlns, SV, 4, src())
        np.testing.assert_array_equal(est, est_int)
        assert ll == ll_int
        a = simulate_ou(OU, 0.0, DT, np.int32(10), src())
        np.testing.assert_array_equal(a.values, simulate_ou(OU, 0.0, DT, 10, src()).values)

    def test_linear_state_space_r_must_be_a_scalar(self):
        with pytest.raises(ShapeError,
                           match=r"^LinearStateSpace.r must be a scalar, got shape \(1, 1\)$"):
            LinearStateSpace(a=0.9, b=0.0, q=1.0, h=1.0, r=[[0.4]], x0=0.0, p0=1.0)

    def test_nan_dt_is_refused_by_the_density(self):
        # NaN compares False with 0, so a `dt <= 0` test let it through
        with pytest.raises(DomainError, match="^dt must be finite and > 0, got nan$"):
            ou_density(X[:-1], X[1:], np.nan, OU)

    @pytest.mark.parametrize("entry", [
        "estimate_mle-ou", "estimate_mle-ou_jump", "log_likelihood-ou", "log_likelihood-ou_jump",
        "estimate_kalman",
    ])
    def test_a_huge_finite_series_gives_no_numpy_warning(self, entry):
        # z * z overflows to inf, so the density is 0, which the density
        # floor handles; the Kalman objective is not finite at init
        huge = Path(0.0, DT, 1e200 * RandomSource(1).normals(50))
        jump_init = INIT + (0.5, 0.5, 1.0)
        calls = {
            "estimate_mle-ou": lambda: estimate_mle(huge, "ou", INIT, BOUNDS).neg_log_lik,
            "estimate_mle-ou_jump": lambda: estimate_mle(huge, "ou_jump", jump_init,
                                                         Bounds.uniform(6)).neg_log_lik,
            "log_likelihood-ou": lambda: log_likelihood(huge, ou_density, OU),
            "log_likelihood-ou_jump": lambda: log_likelihood(huge, ou_jump_density, (OU, JUMP)),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if entry == "estimate_kalman":
                with pytest.raises(InitError, match="^objective is not finite at the initial point$"):
                    estimate_kalman(huge, "ou", INIT, BOUNDS)
            else:
                assert np.isfinite(calls[entry]())

    def test_nan_meas_var_is_named(self):
        # used to fail as "objective is not finite at the initial point"
        with pytest.raises(DomainError, match="^meas_var must be finite and >= 0, got nan$"):
            estimate_kalman(OU_PATH, "ou", INIT, BOUNDS, meas_var=np.nan)


class TestOneCheckEach:
    @pytest.mark.parametrize("fit, name", [(estimate_mle, "path"), (estimate_kalman, "series")])
    def test_fits_refuse_a_raw_array_before_scanning_it(self, fit, name):
        raw = OU_PATH.values.copy()
        raw[0] = np.nan
        with pytest.raises(DomainError, match=f"^{name} must be a Path carrying dt$"):
            fit(raw, "ou", INIT, BOUNDS)

    @pytest.mark.parametrize("fit, name", [(estimate_mle, "path"), (estimate_kalman, "series")])
    def test_fits_check_shape_before_finiteness(self, fit, name):
        joint = Path(0.0, DT, np.full((5, 2), np.nan))
        with pytest.raises(ShapeError, match=f"^{name} must be 1-dim and hold at least 2 points$"):
            fit(joint, "ou", INIT, BOUNDS)

    def test_particle_ekf_run_scans_its_prices_once(self, monkeypatch):
        calls = []

        def counted(check):
            def wrapper(series, *args, **kwargs):
                calls.append(series)
                return check(series, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(particle, "_series", counted(particle._series))
        monkeypatch.setattr(kalman, "_series", counted(kalman._series))
        particle_ekf_run(PRICES, HESTON, 10, src())
        assert len(calls) == 1 and calls[0] is PRICES
