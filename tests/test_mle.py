import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdefl import experiments, mle
from sdefl.core import DomainError, InitError, Path, RandomSource, ShapeError, normal_pdf
from sdefl.mle import (
    DENSITY_FLOOR,
    Bounds,
    bk_density,
    estimate_mle,
    log_likelihood,
    ou_density,
    ou_jump_density,
    ou_score,
)
from sdefl.models import BkParams, JumpParams, OuParams, simulate_bk, simulate_ou, simulate_ou_jump

SEED = 2024061
ACCEPTANCE_SEEDS = tuple(range(2024061, 2024071))


def captured_objective(module, fit, *args, **kwargs):
    """The objective a fit hands to bounded_minimize, which must ask for
    its exact gradient (jac=True)."""
    seen = {}

    def capture(objective, x0, bounds, pack, trace=False, jac="3-point"):
        seen["objective"], seen["jac"] = objective, jac

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "bounded_minimize", capture)
        fit(*args, **kwargs)
    assert seen["jac"] is True
    return seen["objective"]


def central_differences(f, v, rel=1e-5):
    grad = np.empty(len(v))
    for i in range(len(v)):
        h = rel * max(1.0, abs(v[i]))
        up, down = v.copy(), v.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def assert_matches_central_differences(grad, fd):
    """1e-6 relative per entry, or 1e-6 of the largest entry."""
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())


def ar1_oracle(x, dt):
    """Closed-form MLE of x[k+1] = a + b x[k] + e, e ~ N(0, s^2): least
    squares for (a, b), the mean squared residual for s^2.  Returns
    (a/dt, (1 - b)/dt, s/sqrt(dt))."""
    design = np.column_stack([np.ones(len(x) - 1), x[:-1]])
    (a, b), *_ = np.linalg.lstsq(design, x[1:], rcond=None)
    resid = x[1:] - a - b * x[:-1]
    return a / dt, (1.0 - b) / dt, math.sqrt(float(np.mean(resid * resid)) / dt)


def integrate(f, lo, hi, n=200_001):
    xs = np.linspace(lo, hi, n)
    return float(np.trapezoid(f(xs), xs))


class TestOuDensity:
    P = OuParams(theta=1.0, mu=2.0, sigma=3.0)

    def test_mode_value(self):
        dt = 0.5
        mean = 0.0 + 1.0 * (2.0 - 0.0) * dt
        got = ou_density(0.0, mean, dt, self.P)
        assert got == pytest.approx(1.0 / (3.0 * math.sqrt(2.0 * math.pi * dt)), rel=1e-12)

    def test_point_evaluation(self):
        got = ou_density(0.0, 1.0, 1.0, self.P)
        assert got == pytest.approx(normal_pdf(1.0, 2.0, 3.0), rel=1e-14)
        assert got == pytest.approx(0.12579, abs=1e-5)

    def test_unit_mass(self):
        dt = 0.499
        mean = 0.7 + 1.0 * (2.0 - 0.7) * dt
        half = 10.0 * 3.0 * math.sqrt(dt)
        mass = integrate(lambda x: ou_density(0.7, x, dt, self.P), mean - half, mean + half)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_unit_mass_random_draws(self):
        rng = RandomSource(SEED, stream=11).generator()
        for _ in range(5):
            theta, sigma, dt = rng.uniform(0.1, 2.0, size=3)
            mu, x_prev = rng.uniform(-3.0, 3.0, size=2)
            p = OuParams(theta=theta, mu=mu, sigma=sigma)
            mean = x_prev + theta * (mu - x_prev) * dt
            half = 10.0 * sigma * math.sqrt(dt)
            mass = integrate(lambda x: ou_density(x_prev, x, dt, p), mean - half, mean + half)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_rejects_zero_sigma(self):
        with pytest.raises(DomainError):
            ou_density(0.0, 1.0, 1.0, OuParams(theta=1.0, mu=2.0, sigma=0.0))

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            ou_density(0.0, 1.0, 0.0, self.P)

    def test_translation_equivariance(self):
        for c in (1.0, -4.2, 117.0):
            shifted = OuParams(theta=1.0, mu=2.0 + c, sigma=3.0)
            a = ou_density(0.3, 1.1, 0.5, self.P)
            b = ou_density(0.3 + c, 1.1 + c, 0.5, shifted)
            assert b == pytest.approx(a, rel=1e-9)


class TestBkDensity:
    P = BkParams(theta=1.0, alpha=0.8, sigma=0.6)

    def test_peak_at_log_mean(self):
        # r_prev = e: mean of ln r_next is 1 + (1 - 0.8)*1 = 1.2
        peak = bk_density(math.e, math.exp(1.2), 1.0, self.P)
        assert peak == pytest.approx(1.0 / (0.6 * math.sqrt(2.0 * math.pi)), rel=1e-12)
        assert bk_density(math.e, math.exp(1.3), 1.0, self.P) < peak
        assert bk_density(math.e, math.exp(1.1), 1.0, self.P) < peak

    def test_symmetric_in_log_space(self):
        lo = bk_density(math.e, math.exp(1.2 - 0.3), 1.0, self.P)
        hi = bk_density(math.e, math.exp(1.2 + 0.3), 1.0, self.P)
        assert lo == pytest.approx(hi, rel=1e-12)

    def test_unit_mass_in_log_space(self):
        dt, r_prev = 1.0, math.e
        mean = 1.0 + (1.0 - 0.8) * dt
        half = 10.0 * 0.6 * math.sqrt(dt)
        mass = integrate(lambda y: bk_density(r_prev, np.exp(y), dt, self.P), mean - half, mean + half)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_unit_mass_random_draws(self):
        rng = RandomSource(SEED, stream=12).generator()
        for _ in range(5):
            theta, alpha, sigma, dt = rng.uniform(0.2, 1.5, size=4)
            r_prev = rng.uniform(0.5, 4.0)
            p = BkParams(theta=theta, alpha=alpha, sigma=sigma)
            y0 = math.log(r_prev)
            mean = y0 + (theta - alpha * y0) * dt
            half = 10.0 * sigma * math.sqrt(dt)
            mass = integrate(lambda y: bk_density(r_prev, np.exp(y), dt, p), mean - half, mean + half)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(DomainError):
            bk_density(0.0, 1.0, 1.0, self.P)
        with pytest.raises(DomainError):
            bk_density(1.0, -2.0, 1.0, self.P)


class TestOuJumpDensity:
    P = OuParams(theta=1.0, mu=2.0, sigma=4.0)
    J = JumpParams(lambda_j=0.5, mu_j=1.0, sigma_j=1.0)

    def test_zero_intensity_gives_half_weight(self):
        # Phi(0) = 0.5: zero intensity does NOT collapse to the plain density
        j0 = JumpParams(lambda_j=0.0, mu_j=1.0, sigma_j=1.0)
        dt, x_prev, x_next = 0.5, 0.0, 1.5
        mean = x_prev + 1.0 * (2.0 - x_prev) * dt
        expected = 0.5 * normal_pdf(x_next, mean, 4.0 * math.sqrt(dt)) + 0.5 * normal_pdf(
            x_next, mean + 1.0, math.sqrt(16.0 * dt + 1.0)
        )
        got = ou_jump_density(x_prev, x_next, dt, self.P, j0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got != pytest.approx(ou_density(x_prev, x_next, dt, self.P), rel=1e-3)

    def test_degenerate_jump_collapses_exactly(self):
        j = JumpParams(lambda_j=0.7, mu_j=0.0, sigma_j=0.0)
        xs = np.linspace(-5.0, 8.0, 101)
        a = ou_jump_density(0.3, xs, 0.5, self.P, j)
        b = ou_density(0.3, xs, 0.5, self.P)
        assert np.array_equal(a, b)

    def test_unit_mass(self):
        dt, x_prev = 0.5, 0.0
        mean = x_prev + 1.0 * (2.0 - x_prev) * dt
        s_wide = math.sqrt(16.0 * dt + 1.0)
        mass = integrate(
            lambda x: ou_jump_density(x_prev, x, dt, self.P, self.J),
            mean - 10.0 * s_wide,
            mean + 1.0 + 10.0 * s_wide,
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_unit_mass_random_draws(self):
        rng = RandomSource(SEED, stream=13).generator()
        for _ in range(5):
            theta, sigma, dt, lam = rng.uniform(0.1, 1.5, size=4)
            mu, mu_j = rng.uniform(-2.0, 2.0, size=2)
            sigma_j = rng.uniform(0.2, 1.5)
            p = OuParams(theta=theta, mu=mu, sigma=sigma)
            j = JumpParams(lambda_j=lam, mu_j=mu_j, sigma_j=sigma_j)
            mean = 0.0 + theta * mu * dt
            s_wide = math.sqrt(sigma * sigma * dt + sigma_j * sigma_j)
            mass = integrate(
                lambda x: ou_jump_density(0.0, x, dt, p, j),
                mean - abs(mu_j) - 12.0 * s_wide,
                mean + abs(mu_j) + 12.0 * s_wide,
            )
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_rejects_doubly_degenerate(self):
        p0 = OuParams(theta=1.0, mu=2.0, sigma=0.0)
        j0 = JumpParams(lambda_j=0.5, mu_j=1.0, sigma_j=0.0)
        with pytest.raises(DomainError):
            ou_jump_density(0.0, 1.0, 0.5, p0, j0)

    def test_convention_changes_weight(self):
        a = ou_jump_density(0.0, 1.0, 0.5, self.P, self.J, convention="cdf_dt")
        b = ou_jump_density(0.0, 1.0, 0.5, self.P, self.J, convention="cdf_raw")
        assert a != b


class TestLogLikelihood:
    P = OuParams(theta=1.0, mu=2.0, sigma=3.0)

    def test_single_mode_term(self):
        dt = 0.5
        mean = 1.0 + 1.0 * (2.0 - 1.0) * dt
        path = Path(t0=0.0, dt=dt, values=np.array([1.0, mean]))
        got = log_likelihood(path, ou_density, self.P)
        assert got == pytest.approx(math.log(1.0 / (3.0 * math.sqrt(2.0 * math.pi * dt))), rel=1e-12)

    def test_three_points_sum(self):
        path = Path(t0=0.0, dt=0.5, values=np.array([1.0, 2.5, 0.5]))
        got = log_likelihood(path, ou_density, self.P)
        manual = math.log(ou_density(1.0, 2.5, 0.5, self.P)) + math.log(
            ou_density(2.5, 0.5, 0.5, self.P)
        )
        assert got == pytest.approx(manual, rel=1e-12)

    def test_short_path_rejected(self):
        path = Path(t0=0.0, dt=0.5, values=np.array([1.0]))
        with pytest.raises(ShapeError):
            log_likelihood(path, ou_density, self.P)

    def test_underflow_floored(self):
        tight = OuParams(theta=0.0, mu=0.0, sigma=1e-6)
        path = Path(t0=0.0, dt=1.0, values=np.array([0.0, 500.0, 0.0]))
        got = log_likelihood(path, ou_density, tight)
        assert math.isfinite(got)
        assert got <= 2.0 * math.log(1e-300) + 20.0

    def test_translation_invariance(self):
        vals = simulate_ou(self.P, 0.0, 0.499, 200, RandomSource(SEED)).values
        base = log_likelihood(vals, ou_density, self.P, dt=0.499)
        for c in (5.0, -11.5):
            shifted = OuParams(theta=1.0, mu=2.0 + c, sigma=3.0)
            got = log_likelihood(vals + c, ou_density, shifted, dt=0.499)
            assert got == pytest.approx(base, rel=1e-9)

    def test_raw_array_requires_dt(self):
        with pytest.raises(DomainError):
            log_likelihood(np.array([1.0, 2.0]), ou_density, self.P)

    def test_grid_optimal_sigma_is_local_max(self):
        path = simulate_ou(self.P, 0.0, 0.499, 1000, RandomSource(SEED))

        def ll(sigma):
            return log_likelihood(path, ou_density, OuParams(theta=1.0, mu=2.0, sigma=sigma))

        grid = np.linspace(2.0, 4.5, 251)
        best = grid[int(np.argmax([ll(s) for s in grid]))]
        assert ll(best) > ll(best + 0.2)
        assert ll(best) > ll(best - 0.2)


class TestBounds:
    def test_valid(self):
        b = Bounds(np.zeros(3), np.ones(3))
        assert b.lower.shape == (3,)

    def test_rejects_inverted(self):
        with pytest.raises(DomainError):
            Bounds(np.ones(3), np.zeros(3))
        with pytest.raises(DomainError):
            Bounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Bounds(np.zeros(2), np.ones(3))

    def test_uniform(self):
        b = Bounds.uniform(6)
        assert np.all(b.lower == 1e-15)
        assert np.all(b.upper == 6.0)


class TestEstimateMle:
    def test_ou_recovery(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=3.0)
        path = simulate_ou(p, 0.0, 0.499, 1000, RandomSource(SEED))
        rep = estimate_mle(path, "ou", [0.5, 1.0, 2.0], Bounds.uniform(3))
        assert rep.converged
        assert abs(rep.params.theta - 1.0) < 0.25
        assert abs(rep.params.mu - 2.0) < 0.30
        assert abs(rep.params.sigma - 3.0) < 0.35
        assert math.isfinite(rep.neg_log_lik)
        assert rep.iterations > 0
        assert rep.wall_clock_s > 0.0

    def test_bk_recovery(self):
        p = BkParams(theta=1.0, alpha=0.8, sigma=0.6)
        path = simulate_bk(p, 2.0, 1.0, 1000, RandomSource(SEED))
        rep = estimate_mle(path, "bk", [0.5, 0.5, 0.3], Bounds.uniform(3))
        assert rep.converged
        assert abs(rep.params.theta - 1.0) < 0.15
        assert abs(rep.params.alpha - 0.8) < 0.15
        assert abs(rep.params.sigma - 0.6) < 0.10

    def test_ou_jump_optimizer_dominance(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=4.0)
        j = JumpParams(lambda_j=0.5, mu_j=1.0, sigma_j=1.0)
        path = simulate_ou_jump(p, j, 0.0, 0.499, 1000, RandomSource(SEED))
        true_vec = [1.0, 2.0, 4.0, 0.5, 1.0, 1.0]
        rep = estimate_mle(path, "ou_jump", true_vec, Bounds.uniform(6))
        nll_true = -log_likelihood(path, ou_jump_density, (p, j))
        assert rep.neg_log_lik <= nll_true + 1e-9

    def test_deterministic(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=3.0)
        path = simulate_ou(p, 0.0, 0.499, 500, RandomSource(SEED))
        a = estimate_mle(path, "ou", [0.5, 1.0, 2.0], Bounds.uniform(3))
        b = estimate_mle(path, "ou", [0.5, 1.0, 2.0], Bounds.uniform(3))
        assert a.params == b.params
        assert a.neg_log_lik == b.neg_log_lik

    def test_init_outside_bounds_rejected(self):
        path = simulate_ou(OuParams(1.0, 2.0, 3.0), 0.0, 0.5, 50, RandomSource(SEED))
        with pytest.raises(DomainError):
            estimate_mle(path, "ou", [7.0, 1.0, 2.0], Bounds.uniform(3))

    def test_init_length_checked(self):
        path = simulate_ou(OuParams(1.0, 2.0, 3.0), 0.0, 0.5, 50, RandomSource(SEED))
        with pytest.raises(ShapeError):
            estimate_mle(path, "ou", [1.0, 2.0], Bounds.uniform(3))

    def test_unknown_model_rejected(self):
        path = simulate_ou(OuParams(1.0, 2.0, 3.0), 0.0, 0.5, 50, RandomSource(SEED))
        with pytest.raises(DomainError):
            estimate_mle(path, "vasicek", [1.0, 2.0, 3.0], Bounds.uniform(3))

    def test_unknown_convention_rejected(self):
        # a misspelt convention used to fit the 'cdf_raw' weight silently
        path = simulate_ou(OuParams(1.0, 2.0, 3.0), 0.0, 0.5, 50, RandomSource(SEED))
        with pytest.raises(DomainError, match="got 'cdf-dt'"):
            estimate_mle(path, "ou_jump", [1.0, 2.0, 3.0, 0.5, 1.0, 1.0], Bounds.uniform(6),
                         convention="cdf-dt")
        with pytest.raises(DomainError, match="got 'cdf-dt'"):
            ou_jump_density(0.0, 1.0, 0.5, OuParams(1.0, 2.0, 3.0), JumpParams(0.5, 1.0, 1.0),
                            convention="cdf-dt")

    def test_nonfinite_objective_at_init(self):
        path = simulate_ou(OuParams(1.0, 2.0, 3.0), 0.0, 0.5, 50, RandomSource(SEED))
        loose = Bounds(np.zeros(3), np.full(3, 6.0))
        with pytest.raises(InitError):
            estimate_mle(path, "ou", [1.0, 2.0, 0.0], loose)

    def test_bk_nonpositive_rate_named(self):
        # this used to surface as InitError "objective is not finite at the
        # initial point"
        path = simulate_bk(BkParams(1.0, 0.8, 0.6), 2.0, 1.0, 50, RandomSource(SEED))
        values = path.values.copy()
        values[7] = -0.5
        bad = Path(t0=path.t0, dt=path.dt, values=values)
        with pytest.raises(DomainError, match="^rate at index 7 is not positive$"):
            estimate_mle(bad, "bk", [0.5, 0.5, 0.3], Bounds.uniform(3))

    def test_ou_jump_scenario_seed_381654050(self):
        # finite differences stepped outside the 1e-15 lower bound here, and
        # scipy raised "x0 violates bound constraints"
        sc = experiments.load_scenario("ou_jump_mle")
        path = experiments._simulate(sc, 381654050)
        init = sc.option("init")
        rep = estimate_mle(path, "ou_jump", init, experiments._estimate_bounds(sc),
                           convention=sc.option("jump_convention"))
        at_init = -log_likelihood(path, ou_jump_density, mle._ou_jump_pack(init))
        assert math.isfinite(rep.neg_log_lik)
        assert rep.neg_log_lik <= at_init

    def test_trace_collected(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=3.0)
        path = simulate_ou(p, 0.0, 0.499, 300, RandomSource(SEED))
        rep = estimate_mle(path, "ou", [0.5, 1.0, 2.0], Bounds.uniform(3), trace=True)
        assert rep.trace is not None and len(rep.trace) >= 1
        assert rep.trace[-1][1] <= rep.trace[0][1] + 1e-9
        params0, obj0 = rep.trace[0]
        assert isinstance(params0, OuParams)
        assert math.isfinite(obj0)


OU_PATH = simulate_ou(OuParams(1.0, 2.0, 3.0), 0.0, 0.499, 200, RandomSource(SEED))
BK_PATH = simulate_bk(BkParams(1.0, 0.8, 0.6), 2.0, 1.0, 200, RandomSource(SEED))
JUMP_PATH = simulate_ou_jump(OuParams(1.0, 2.0, 4.0), JumpParams(0.5, 1.0, 1.0), 0.0, 0.499, 200,
                             RandomSource(SEED))
THETA = st.floats(0.05, 3.0)
LEVEL = st.floats(0.05, 6.0)
SIGMA = st.floats(1.0, 6.0)
SCORED = {
    "ou": (OU_PATH, ou_density, {}),
    "bk": (BK_PATH, bk_density, {}),
    "ou_jump/cdf_dt": (JUMP_PATH, functools.partial(ou_jump_density, convention="cdf_dt"),
                       {"convention": "cdf_dt"}),
    "ou_jump/cdf_raw": (JUMP_PATH, functools.partial(ou_jump_density, convention="cdf_raw"),
                        {"convention": "cdf_raw"}),
}


class TestScores:
    """estimate_mle's objective: -log_likelihood bitwise, with its exact gradient."""

    def check(self, name, v):
        path, density, extra = SCORED[name]
        model = name.partition("/")[0]
        pack = mle._MODELS[model].pack
        objective = captured_objective(mle, estimate_mle, path, model, v, Bounds.uniform(len(v)),
                                       **extra)
        dens = density(path.values[:-1], path.values[1:], path.dt,
                       *(pack(v) if model == "ou_jump" else (pack(v),)))
        assume(np.all(dens > 1e-200))  # away from the density floor

        def neg_log_lik(u):
            return -log_likelihood(path, density, pack(u))

        value, grad = objective(np.asarray(v, dtype=float))
        assert value == neg_log_lik(v)
        assert_matches_central_differences(grad, central_differences(neg_log_lik, np.asarray(v)))

    @settings(max_examples=40, deadline=None)
    @given(theta=THETA, mu=LEVEL, sigma=SIGMA)
    def test_ou(self, theta, mu, sigma):
        self.check("ou", [theta, mu, sigma])

    @settings(max_examples=40, deadline=None)
    @given(theta=LEVEL, alpha=st.floats(0.05, 3.0), sigma=st.floats(0.3, 6.0))
    def test_bk(self, theta, alpha, sigma):
        self.check("bk", [theta, alpha, sigma])

    # lambda_j stays below 4: with cdf_raw, beyond that the value's
    # c_nojump + w*(c_jump - c_nojump) cancels in 1 - w, and differences of
    # the value lose more digits than the score does
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("convention", ["cdf_dt", "cdf_raw"])
    @given(theta=THETA, mu=LEVEL, sigma=SIGMA, lambda_j=st.floats(1e-4, 4.0),
           mu_j=st.floats(1e-15, 6.0), sigma_j=st.floats(0.05, 6.0))
    def test_ou_jump(self, convention, theta, mu, sigma, lambda_j, mu_j, sigma_j):
        self.check("ou_jump/" + convention, [theta, mu, sigma, lambda_j, mu_j, sigma_j])

    def test_floored_steps_have_zero_gradient(self):
        # the second step sits 500 sd from its mean, so its density is floored
        path = Path(t0=0.0, dt=0.5, values=np.array([0.0, 0.3, 500.0]))
        v = np.array([0.5, 1.0, 1.0])
        objective = captured_objective(mle, estimate_mle, path, "ou", v, Bounds.uniform(3))
        value, grad = objective(v)
        assert value == -log_likelihood(path, ou_density, mle._ou_pack(v))
        dens, dlog = ou_score(path.values[:-1], path.values[1:], 0.5, mle._ou_pack(v))
        assert dens[0] > DENSITY_FLOOR and dens[1] < DENSITY_FLOOR
        np.testing.assert_array_equal(grad, -dlog[:, 0])

    def test_outside_the_domain_gives_inf_and_zero_gradient(self):
        objective = captured_objective(mle, estimate_mle, OU_PATH, "ou", [0.5, 1.0, 2.0],
                                       Bounds.uniform(3))
        value, grad = objective(np.array([0.5, 1.0, 0.0]))  # sigma = 0
        assert value == np.inf
        np.testing.assert_array_equal(grad, np.zeros(3))


class TestAr1Oracle:
    """The Euler OU and BK transition densities are Gaussian AR(1), so their
    MLE is least squares in closed form; L-BFGS-B's stopping rule leaves the
    fits within 1e-4 of it."""

    def test_oracle_on_the_ou_mle_scenario(self):
        sc = experiments.load_scenario("ou_mle")
        path = experiments._simulate(sc, sc.seed)
        c, k, s = ar1_oracle(path.values, path.dt)
        assert (k, c / k, s) == pytest.approx((0.99878562, 2.1895738, 2.8802880), rel=1e-7)
        p = estimate_mle(path, "ou", sc.option("init"), experiments._estimate_bounds(sc)).params
        assert (p.theta, p.mu, p.sigma) == pytest.approx((k, c / k, s), rel=1e-4)

    @pytest.mark.parametrize("seed", ACCEPTANCE_SEEDS)
    def test_ou(self, seed):
        path = simulate_ou(OuParams(1.0, 2.0, 3.0), 0.0, 0.499, 1000, RandomSource(seed))
        p = estimate_mle(path, "ou", (0.5, 1.0, 2.0), Bounds.uniform(3)).params
        c, k, s = ar1_oracle(path.values, path.dt)
        assert (p.theta, p.mu, p.sigma) == pytest.approx((k, c / k, s), rel=1e-4)

    @pytest.mark.parametrize("seed", ACCEPTANCE_SEEDS)
    def test_bk(self, seed):
        path = simulate_bk(BkParams(1.0, 0.8, 0.6), 2.0, 1.0, 1000, RandomSource(seed))
        p = estimate_mle(path, "bk", (0.5, 0.5, 0.3), Bounds.uniform(3)).params
        c, k, s = ar1_oracle(np.log(path.values), path.dt)
        assert (p.theta, p.alpha, p.sigma) == pytest.approx((c, k, s), rel=1e-4)
