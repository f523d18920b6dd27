import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sdefl import _kernels, experiments, kalman
from sdefl.core import (
    DegenerateSystemError,
    DomainError,
    Path,
    RandomSource,
    ShapeError,
    normal_pdf,
    rmse,
)
from sdefl.kalman import (
    DEFAULT_MEAS_VAR,
    GaussianState,
    LinearStateSpace,
    bates_ekf_system,
    ekf_log_likelihood,
    ekf_run,
    estimate_kalman,
    heston_ekf_system,
    kalman_run,
    log_returns,
    ou_state_space,
)
from sdefl.mle import Bounds, estimate_mle, log_likelihood, ou_density
from sdefl.particle import particle_ekf_run, particle_run
from sdefl.models import (
    BatesParams,
    HestonParams,
    JumpParams,
    OuParams,
    simulate_heston,
    simulate_ou,
    simulate_ou_jump,
)
import reference
from reference import (
    assert_matches_central_differences,
    central_differences,
    doubling_scan_full,
    kalman_ou_full_passes,
)

SEED = 2024061

OU_TRUE = OuParams(theta=1.0, mu=2.0, sigma=3.0)
HESTON_BASE = HestonParams(mu_s=0.05, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)


def scalar_system(a=1.0, b=0.0, q=1.0, h=1.0, r=1.0, x0=0.0, p0=1.0):
    return LinearStateSpace(a=a, b=b, q=q, h=h, r=r, x0=x0, p0=p0)


FIELDS = ["a", "b", "q", "h", "r", "x0", "p0"]


class TestLinearStateSpace:
    GOOD = dict(a=0.9, b=0.1, q=1.0, h=1.0, r=1.0, x0=0.0, p0=1.0)

    def test_rejects_negative_r(self):
        with pytest.raises(DomainError, match="^LinearStateSpace.r must be >= 0$"):
            scalar_system(r=-0.1)

    def test_rejects_indefinite_q(self):
        with pytest.raises(DomainError, match="^LinearStateSpace.q must be >= 0$"):
            scalar_system(q=-1.0)

    def test_rejects_indefinite_p0(self):
        with pytest.raises(DomainError, match="^LinearStateSpace.p0 must be >= 0$"):
            scalar_system(p0=-0.5)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, field, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^LinearStateSpace.{field} must be finite$"):
                LinearStateSpace(**dict(self.GOOD, **{field: bad}))

    @pytest.mark.parametrize("field", FIELDS)
    def test_rejects_non_scalar_field(self, field):
        with pytest.raises(ShapeError,
                           match=rf"^LinearStateSpace.{field} must be a scalar, got shape \(1,\)$"):
            LinearStateSpace(**dict(self.GOOD, **{field: [1.0]}))

    def test_fields_become_frozen_floats(self):
        sys = LinearStateSpace(**dict(self.GOOD, a=np.float32(0.5), q=2, x0=np.array(0.25)))
        assert [type(getattr(sys, f)) for f in FIELDS] == [float] * len(FIELDS)
        assert (sys.a, sys.q, sys.x0) == (0.5, 2.0, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.a = 2.0


class TestGaussianState:
    def test_holds_what_it_is_given(self):
        # a plain record: no copy, no freeze and no check of shape or values
        mean, cov, gain = np.array([0.5, np.nan]), np.array([[1.0, 0.5], [0.0, np.inf]]), [0.1]
        st = GaussianState(mean, cov, 0.2, 0.3, gain)
        assert st.mean is mean and st.cov is cov and st.gain is gain
        assert (st.innovation, st.innovation_var) == (0.2, 0.3)
        assert mean.flags.writeable and cov.flags.writeable
        assert GaussianState(mean=0.5, cov=2.0) == (0.5, 2.0, None, None, None)


def one_step(x_prev, p_prev, sys, y):
    """kalman_run's update on y from the posterior (x_prev, p_prev): a run
    of one step whose first a priori variance is a p_prev a + q."""
    start = dataclasses.replace(sys, x0=x_prev, p0=sys.a * p_prev * sys.a + sys.q)
    return kalman_run([y], start)[0][0]


class TestKalmanStep:
    """One predict/update cycle of kalman_run from a given posterior."""

    def test_hand_computed_update(self):
        # A=1, Q=1, H=1, R=1 from posterior (0, 1), y=2:
        # P-minus = 2, S = 3, K = 2/3, mean = 4/3, P-post = 2/3
        sys = scalar_system()
        st = one_step(0.0, 1.0, sys, 2.0)
        assert st.innovation_var == pytest.approx(3.0, rel=1e-14)
        assert st.gain[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert st.innovation == pytest.approx(2.0, rel=1e-14)
        assert st.mean[0] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert st.cov[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_zero_measurement_noise_pins_mean_to_y(self):
        sys = scalar_system(r=0.0)
        st = one_step(0.3, 0.7, sys, -1.25)
        assert st.mean[0] == pytest.approx(-1.25, abs=1e-14)
        assert st.cov[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_huge_measurement_noise_keeps_prior(self):
        sys = scalar_system(q=0.0, r=1e12)
        st = one_step(0.3, 0.7, sys, 100.0)
        assert st.mean[0] == pytest.approx(0.3, abs=1e-9)
        assert st.cov[0, 0] == pytest.approx(0.7, abs=1e-9)

    def test_degenerate_innovation_variance(self):
        sys = scalar_system(q=0.0, r=0.0, p0=0.0)
        with pytest.raises(DegenerateSystemError):
            one_step(0.0, 0.0, sys, 1.0)

    def test_posterior_never_exceeds_prior_variance(self):
        rng = RandomSource(SEED, stream=31).generator()
        for _ in range(20):
            a, q, p_prev, r = rng.uniform(0.1, 2.0, size=4)
            h = rng.uniform(-2.0, 2.0)
            sys = scalar_system(a=a, q=q, h=h, r=r)
            st = one_step(rng.normal(), p_prev, sys, rng.normal())
            p_prior = a * a * p_prev + q
            assert st.cov[0, 0] <= p_prior + 1e-14

    @pytest.mark.parametrize("y, error, message", [
        (np.nan, DomainError, "series value at index 0 is not finite"),
        (np.inf, DomainError, "series value at index 0 is not finite"),
        ("x", ValueError, "could not convert string to float: 'x'"),
        ([1.0, 2.0], ShapeError, "series must be 1-dim and hold at least one point"),
    ], ids=["nan", "inf", "str", "list"])
    def test_measurement_must_be_a_finite_scalar(self, y, error, message):
        sys = ou_state_space(OuParams(1.0, 2.0, 3.0), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{message}$"):
                one_step(0.0, 1.0, sys, y)

    def test_state_must_hold_one_entry(self):
        with pytest.raises(ShapeError, match=r"^LinearStateSpace.x0 must be a scalar, got shape \(2,\)$"):
            one_step(np.array([1.0, 0.0]), np.diag([0.0, 1.0]), ou_state_space(OU_TRUE, 0.5), 1.0)


def kalman_oracle(a_seq, b, q, h, r, x0, p0, y):
    """Kalman recursion written out by hand, with a_t = a_seq[t] moving the
    state into step t; p0 is the first a priori variance.  Returns the
    log-likelihood and the posterior means and variances."""
    x, p_minus, direct, means, covs = x0, p0, 0.0, [], []
    for t, obs in enumerate(y):
        a = a_seq[t]
        if t > 0:
            p_minus = a * p_post * a + q
        x_pred = a * x + b
        s = h * p_minus * h + r
        resid = obs - h * x_pred
        direct += math.log(normal_pdf(resid, 0.0, math.sqrt(s)))
        k = p_minus * h / s
        x = x_pred + k * resid
        p_post = p_minus - k * h * p_minus
        means.append(x)
        covs.append(p_post)
    return direct, means, covs


ORACLE_SYSTEMS = {
    "d1": LinearStateSpace(a=0.95, b=0.0, q=0.3, h=1.3, r=0.2, x0=0.1, p0=0.7),
    "r0": LinearStateSpace(a=0.8, b=0.4, q=0.9, h=1.0, r=0.0, x0=0.5, p0=1.0),
}


class TestKalmanRun:
    def test_first_step_uses_p0_directly(self):
        # run-level contract: S for the first observation is P0 + R = 2,
        # not A*P0*A + Q + R = 3 as a fold of steps would give
        sys = scalar_system()
        states, ll = kalman_run([2.0], sys)
        st = states[0]
        assert st.innovation_var == pytest.approx(2.0, rel=1e-14)
        assert st.mean[0] == pytest.approx(1.0, rel=1e-14)
        assert ll == pytest.approx(math.log(normal_pdf(2.0, 0.0, math.sqrt(2.0))), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_log_likelihood_is_product_of_innovation_densities(self, name):
        # independent recursion written out in kalman_oracle; the filter
        # must agree to 1e-10
        sys = ORACLE_SYSTEMS[name]
        y = np.array([0.5, -0.3, 0.8, 0.1, -0.6])
        direct, means, _ = kalman_oracle([sys.a] * len(y), sys.b, sys.q, sys.h, sys.r,
                                         sys.x0, sys.p0, y)
        states, ll = kalman_run(y, sys)
        assert ll == pytest.approx(direct, abs=1e-10)
        for st, x in zip(states, means):
            assert st.mean[0] == pytest.approx(x, abs=1e-12)

    def test_rejects_empty_series(self):
        with pytest.raises(ShapeError):
            kalman_run([], scalar_system())

    def test_degenerate_innovation_variance(self):
        sys = scalar_system(q=0.0, r=0.0, p0=0.0)
        with pytest.raises(DegenerateSystemError, match="^innovation variance not positive at step 0$"):
            kalman_run([1.0, 2.0], sys)

    @pytest.mark.parametrize("model", ["ou", "ou_jump"])
    def test_kalman_ou_loop_matches_kalman_run(self, model):
        # the estimators' filter kernel against the Kalman filter on
        # ou_state_space; a jump layer inflates q by lambda_j mu_j^2 dt
        src, dt = RandomSource(SEED), 0.499
        if model == "ou":
            p, jp, q = OU_TRUE, None, OU_TRUE.sigma**2 * dt
            path = simulate_ou(p, 1.0, dt, 400, src)
        else:
            p, jp = OuParams(1.0, 2.0, 4.0), JumpParams(0.5, 1.0, 1.0)
            q = (p.sigma**2 + jp.lambda_j * jp.mu_j**2) * dt
            path = simulate_ou_jump(p, jp, 1.0, dt, 400, src)
        y = path.values[1:]
        sys = ou_state_space(p, dt, jump=jp, x_init=path.values[0], p0=1.0)
        states, ll = kalman_run(y, sys)

        alpha = p.theta * p.mu * dt
        beta = 1.0 - p.theta * dt
        means, ll_k, _ = _kernels.kalman_ou_loop(
            y, alpha, beta, q, DEFAULT_MEAS_VAR, float(path.values[0]), 1.0,
        )
        assert ll_k == pytest.approx(ll, abs=1e-10)
        np.testing.assert_allclose(means, [st.mean[0] for st in states], atol=1e-10)


def kalman_ou_literal(y, alpha, beta, q, r, x0, p0):
    """The reference for _kernels.kalman_ou_loop: the filter as one loop,
    carrying the derivatives of x and p in (alpha, beta, q) forward with
    them.  Same arguments, (means, ll, grad) and breakdown as the kernel."""
    n = y.shape[0]
    means = np.empty(n)
    grad = np.zeros(3)
    x = x0
    dx_a = 0.0  # d x / d(alpha, beta, q)
    dx_b = 0.0
    dx_q = 0.0
    p_prior = p0
    dp_b = 0.0  # d p_prior / d(beta, q); p does not depend on alpha
    dp_q = 0.0
    ll = 0.0
    for t in range(n):
        x_pred = alpha + beta * x
        s = p_prior + r
        if s <= 0.0:
            raise DegenerateSystemError(f"innovation variance not positive at step {t}")
        k = p_prior / s
        resid = y[t] - x_pred
        g = 1.0 - k
        de_a = -(1.0 + beta * dx_a)
        de_b = -(x + beta * dx_b)
        de_q = -(beta * dx_q)
        w = resid / s
        h = 0.5 * (1.0 / s - w * w)
        grad[0] -= w * de_a
        grad[1] -= w * de_b + h * dp_b
        grad[2] -= w * de_q + h * dp_q
        dx_a = -(g * de_a)
        dx_b = g * (dp_b * w - de_b)  # k' = g p' / s
        dx_q = g * (dp_q * w - de_q)
        x = x_pred + k * resid
        means[t] = x
        p_post = g * p_prior
        ll += -0.5 * (resid * resid / s + math.log(s) + _kernels.LOG2PI)
        gg = beta * beta * (g * g)
        dp_b = 2.0 * beta * p_post + gg * dp_b
        dp_q = gg * dp_q + 1.0
        p_prior = beta * beta * p_post + q
    return means, ll, grad


def largest_finite(a):
    finite = np.abs(a[np.isfinite(a)])
    return finite.max() if finite.size else 0.0


def assert_scan_matches_literal(y, alpha, beta, q, r, x0, p0):
    """The array kernel equals the literal loop to float reordering: means,
    log-likelihood and its gradient, or the same breakdown."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            m_ref, ll_ref, g_ref = kalman_ou_literal(y, alpha, beta, q, r, x0, p0)
        except DegenerateSystemError as exc:
            with pytest.raises(DegenerateSystemError, match=f"^{re.escape(str(exc))}$"):
                _kernels.kalman_ou_loop(y, alpha, beta, q, r, x0, p0)
            return None
        m, ll, grad = _kernels.kalman_ou_loop(y, alpha, beta, q, r, x0, p0)
    if math.isnan(ll_ref):
        assert math.isnan(ll)
    else:
        assert ll == pytest.approx(ll_ref, rel=1e-12, abs=1e-12 * len(y))
    # a mean near zero carries the rounding of its larger terms, so the
    # absolute part of the tolerance scales with the largest mean;
    # subnormal values have no relative precision to compare
    atol = max(1e-12 * largest_finite(m_ref), np.finfo(float).tiny)
    np.testing.assert_allclose(m, m_ref, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(grad, g_ref, rtol=1e-12, atol=1e-12 * largest_finite(g_ref))
    return m, ll, grad


def riccati_period(beta, q, r, p0, steps=5000):
    """Period (1 or 2) at which the prior covariance first repeats exactly."""
    hist = [p0]
    for _ in range(steps):
        p = hist[-1]
        k = p / (p + r)
        hist.append(beta * beta * ((1.0 - k) * p) + q)
        if hist[-1] == hist[-2]:
            return 1
        if len(hist) >= 3 and hist[-1] == hist[-3]:
            return 2
    return None


def ou_joint_gaussian(n, alpha, beta, q, r, x0, p0):
    """Mean of x (and y), Cov(x) (which is also Cov(x, y)) and Cov(y).

    x_0 ~ N(alpha + beta*x0, p0), x_t = alpha + beta*x_{t-1} + w_t with
    w_t ~ N(0, q), and y_t = x_t + e_t with e_t ~ N(0, r), for t < n.
    """
    mean = np.empty(n)
    prev = x0
    for t in range(n):
        prev = alpha + beta * prev
        mean[t] = prev
    lags = np.subtract.outer(np.arange(n), np.arange(n))
    load = np.where(lags >= 0, float(beta) ** np.maximum(lags, 0), 0.0)
    shock_var = np.full(n, q)
    shock_var[0] = p0
    cov_x = load @ np.diag(shock_var) @ load.T
    return mean, cov_x, cov_x + r * np.eye(n)


FINITE = dict(allow_nan=False, allow_infinity=False)


class TestScalarKalmanKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 400),
        alpha=st.floats(-5.0, 5.0, **FINITE),
        beta=st.floats(-1.2, 1.2, **FINITE),
        q=st.one_of(st.just(0.0), st.floats(0.0, 5.0, **FINITE)),
        r=st.one_of(st.just(0.0), st.floats(0.0, 10.0, **FINITE)),
        x0=st.floats(-5.0, 5.0, **FINITE),
        p0=st.one_of(st.just(0.0), st.floats(0.01, 3.0, **FINITE)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scan_matches_literal_loop(self, n, alpha, beta, q, r, x0, p0, seed):
        # with q = p0 = 0 the prior variance stays 0 and |beta| > 1 makes the
        # mean recursion unstable; that case has its own test below
        assume(not (q == 0.0 and p0 == 0.0 and abs(beta) > 1.0))
        rng = np.random.default_rng(seed)
        y = rng.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0), n)
        assert_scan_matches_literal(y, alpha, beta, q, r, x0, p0)

    @pytest.mark.parametrize(
        "n, beta, q, r, p0",
        [
            (1, 0.5, 1.0, 1.0, 1.0),  # one step
            (200, 1e-300, 1.0, 0.5, 1.0),  # beta ~ 0: gains repeat at once
            (300, 1.15, 0.5, 0.2, 1.0),  # explosive OU, stable filter
            (300, -1.15, 0.5, 0.2, 1.0),
            (300, 1.15, 0.0, 0.2, 1.0),  # q = 0 with |beta| > 1
            (300, 0.9, 1.0, 0.0, 1.0),  # r = 0: means pinned to the data
            (300, 0.9, 0.0, 0.5, 1.0),  # q = 0: covariance decays to 0
            (300, 1.15, 0.0, 0.5, 0.0),  # q = p0 = 0: prior variance stays 0
            (300, 0.999999, 1e-30, 1e-4, 1.0),  # slow, tiny process noise
        ],
    )
    def test_edge_cases(self, n, beta, q, r, p0):
        y = RandomSource(SEED).generator().normal(1.0, 2.0, n)
        assert_scan_matches_literal(y, 0.3, beta, q, r, 0.7, p0)

    def test_forced_two_cycle(self):
        beta, q, r, p0 = -1.2, 2.0, 0.5, 1.0
        assert riccati_period(beta, q, r, p0) == 2
        y = RandomSource(SEED).generator().normal(0.0, 2.0, 500)
        assert_scan_matches_literal(y, 0.3, beta, q, r, 0.7, p0)

    def test_q_and_r_zero_fail_at_second_step(self):
        # k = 1 pins the first mean to the data, and the next prior variance is q = 0
        for kernel in (_kernels.kalman_ou_loop, kalman_ou_literal):
            with pytest.raises(DegenerateSystemError, match="^innovation variance not positive at step 1$"):
                kernel(np.array([1.0, 2.0, 3.0]), 0.3, 0.9, 0.0, 0.0, 0.7, 1.0)

    def test_p0_and_r_zero_fail_at_first_step(self):
        for kernel in (_kernels.kalman_ou_loop, kalman_ou_literal):
            with pytest.raises(DegenerateSystemError, match="^innovation variance not positive at step 0$"):
                kernel(np.ones(4), 0.3, 0.9, 1.0, 0.0, 0.7, 0.0)

    def test_nan_in_data_poisons_later_means_only(self):
        y = RandomSource(SEED).generator().normal(1.0, 2.0, 50)
        y[20] = np.nan
        means, ll, _ = assert_scan_matches_literal(y, 0.3, 0.9, 1.0, 0.5, 0.7, 1.0)
        assert math.isnan(ll)
        assert np.isfinite(means[:20]).all() and np.isnan(means[20:]).all()

    def test_empty_series(self):
        means, ll, grad = _kernels.kalman_ou_loop(np.empty(0), 0.3, 0.9, 1.0, 0.5, 0.7, 1.0)
        assert (means.shape, ll) == ((0,), 0.0)
        np.testing.assert_array_equal(grad, np.zeros(3))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize(
        "alpha, beta, q, r, x0, p0",
        [(0.998, 0.501, 4.491, 1e-4, 1.0, 1.0), (-0.4, 1.1, 0.3, 0.8, 2.0, 0.5),
         (0.2, -0.7, 1.5, 2.0, -1.0, 3.0)],
    )
    def test_matches_exact_joint_gaussian(self, n, alpha, beta, q, r, x0, p0):
        y = RandomSource(SEED + n).generator().normal(1.0, 2.0, n)
        mean, cov_x, cov_y = ou_joint_gaussian(n, alpha, beta, q, r, x0, p0)
        sign, logdet = np.linalg.slogdet(cov_y)
        assert sign > 0
        dev = y - mean
        log_density = -0.5 * (n * math.log(2.0 * math.pi) + logdet
                              + dev @ np.linalg.solve(cov_y, dev))
        # E[x_t | y_0..y_t] by conditioning the joint Gaussian
        filtered = np.array([
            mean[t] + cov_x[t, : t + 1] @ np.linalg.solve(cov_y[: t + 1, : t + 1], dev[: t + 1])
            for t in range(n)
        ])
        for kernel in (kalman_ou_literal, _kernels.kalman_ou_loop):
            means, ll, _ = kernel(y, alpha, beta, q, r, x0, p0)
            assert ll == pytest.approx(log_density, rel=1e-10)
            np.testing.assert_allclose(means, filtered, rtol=1e-9, atol=1e-12)

    SCORE_CASES = [
        (1, 0.5, 1.0, 1.0, 1.0),  # one step
        (300, 0.501, 4.491, 1e-4, 1.0),  # the packaged OU fit at its truth
        (300, 1.15, 0.5, 0.2, 1.0),  # explosive OU, stable filter
        (500, -1.2, 2.0, 0.5, 1.0),  # the forced two-cycle
        (300, 0.9, 1.0, 0.0, 1.0),  # r = 0: means pinned to the data
        (300, 0.999999, 0.5, 1e-4, 0.0),  # near a random walk, from a known start
    ]

    @pytest.mark.parametrize("n, beta, q, r, p0", SCORE_CASES)
    def test_score_is_the_gradient_of_the_scan(self, n, beta, q, r, p0):
        y = RandomSource(SEED).generator().normal(1.0, 2.0, n)
        _, _, grad = _kernels.kalman_ou_loop(y, 0.3, beta, q, r, 0.7, p0)

        def loglik(u):
            return _kernels.kalman_ou_loop(y, u[0], u[1], u[2], r, 0.7, p0)[1]

        assert_matches_central_differences(grad, central_differences(loglik, np.array([0.3, beta, q])))

    @pytest.mark.parametrize("n, beta, q, r, p0", SCORE_CASES)
    def test_score_loop_matches_the_array_score(self, n, beta, q, r, p0):
        y = RandomSource(SEED).generator().normal(1.0, 2.0, n)
        _, ll, grad = kalman_ou_literal(y, 0.3, beta, q, r, 0.7, p0)
        _, want_ll, want_grad = _kernels.kalman_ou_loop(y, 0.3, beta, q, r, 0.7, p0)
        assert ll == pytest.approx(want_ll, rel=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())


def same_bits(got, want):
    """Each result of a kernel call bit for bit, the sign of a zero included."""
    return all(np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes()
               for g, w in zip(got, want))


class TestEarlyStop:
    """kalman_ou_loop's scans stop before the first pass that would change
    no value; its means, log-likelihood and gradient are the full pass
    sequence's (reference.kalman_ou_full_passes) bit for bit."""

    @staticmethod
    def run_both(y, alpha, beta, q, r, x0, p0):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _kernels.kalman_ou_loop(y, alpha, beta, q, r, x0, p0)
            want = kalman_ou_full_passes(y, alpha, beta, q, r, x0, p0)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        assert same_bits(got, want)
        return got

    @staticmethod
    def products(monkeypatch, *args):
        """How many window products the kernel's two scans computed: one
        more than the passes the longer scan ran, or as many when it ran
        them all."""
        seen = []
        scan = _kernels._doubling_scan

        def spy(c, d, prods):
            seen.append(prods)
            return scan(c, d, prods)

        monkeypatch.setattr(_kernels, "_doubling_scan", spy)
        with np.errstate(over="ignore", invalid="ignore"):
            _kernels.kalman_ou_loop(*args)
        monkeypatch.undo()
        return len(seen[0])

    @pytest.mark.parametrize("n, beta, q, r, p0", TestScalarKalmanKernel.SCORE_CASES)
    def test_kernel_cases(self, n, beta, q, r, p0):
        y = RandomSource(SEED).generator().normal(1.0, 2.0, n)
        self.run_both(y, 0.3, beta, q, r, 0.7, p0)

    def test_stop_at_the_packaged_fit(self, monkeypatch):
        # ou_kalman's init: c = (1 - k) beta is about 4e-5, so the products
        # of 8 steps are below 1e-32 and 3 of the 10 passes run
        y = RandomSource(SEED).generator().normal(2.0, 3.0, 1000)
        args = (y, 0.499, 0.7505, 1.996, 1e-4, 0.0, 1.0)
        assert self.products(monkeypatch, *args) == 4
        self.run_both(*args)

    def test_a_tiny_value_holds_the_passes(self, monkeypatch):
        # means near 1e-300 are changed by products down to about 1e-317,
        # so the passes run until the products are 0, at 128 steps
        y = RandomSource(SEED).generator().normal(2.0, 3.0, 1000)
        y[500:700] = 1e-300
        args = (y, 0.0, 0.7505, 1.996, 1e-4, 0.0, 1.0)
        assert self.products(monkeypatch, *args) == 8
        self.run_both(*args)

    def test_inf_in_the_scanned_array(self):
        # 0 x inf is NaN: the passes whose products are 0 still run, and
        # carry step 0's inf as NaN past the 128 steps that the nonzero
        # products reach
        c = np.full(300, 1e-5)
        d = np.ones(300)
        d[0] = np.inf
        with np.errstate(invalid="ignore"):
            got = _kernels._doubling_scan(c, d.copy(), [])
            want = doubling_scan_full(c, d.copy())
        assert same_bits([got], [want])
        assert np.isinf(got[:128]).all() and np.isnan(got[128:]).all()
        # through the kernel: the innovation 1.5e308 + 0.75e308 overflows
        y = RandomSource(SEED).generator().normal(1.0, 2.0, 600)
        y[10:12] = -1.5e308, 1.5e308
        _, ll, _ = self.run_both(y, 0.3, 0.501, 4.491, 1e-4, 0.7, 1.0)
        assert ll == -np.inf

    def test_negative_zero_in_the_scanned_array(self):
        # r = 0 makes c = 0, so d_t = -0.0 where y_t = -0.0 with alpha < 0;
        # the passes add c x_{t-1} = +0.0 to it, which makes the mean +0.0
        y = RandomSource(SEED).generator().normal(1.0, 0.1, 50)
        y[5::7] = -0.0
        means, _, _ = self.run_both(y, -0.3, 0.9, 1.0, 0.0, 0.7, 1.0)
        assert (means[5::7] == 0.0).all() and not np.signbit(means[5::7]).any()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 400),
        alpha=st.floats(-5.0, 5.0, **FINITE),
        beta=st.floats(-1.2, 1.2, **FINITE),
        q=st.one_of(st.just(0.0), st.floats(0.0, 5.0, **FINITE)),
        r=st.one_of(st.just(0.0), st.just(1e-4), st.floats(0.0, 10.0, **FINITE)),
        x0=st.floats(-5.0, 5.0, **FINITE),
        p0=st.one_of(st.just(0.0), st.floats(0.01, 3.0, **FINITE)),
        spread=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_full_pass_sequence(self, n, alpha, beta, q, r, x0, p0, spread, seed):
        # spread scales each measurement by up to 10^±spread, so the
        # scanned values span up to 600 decades
        rng = np.random.default_rng(seed)
        y = rng.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0), n)
        y *= 10.0 ** rng.integers(-spread, spread + 1, n)
        try:
            self.run_both(y, alpha, beta, q, r, x0, p0)
        except DegenerateSystemError:
            # a prior variance of 0 with r = 0 ends the filter before either scan runs
            assert r == 0.0 and (p0 == 0.0 or q == 0.0)


class TestOuStateSpace:
    def test_coefficients(self):
        sys = ou_state_space(OU_TRUE, 0.499)
        assert sys.b == pytest.approx(0.998, rel=1e-12)  # theta*mu*dt
        assert sys.a == pytest.approx(0.501, rel=1e-12)  # 1 - theta*dt
        assert sys.q == pytest.approx(9.0 * 0.499, rel=1e-12)
        assert (sys.h, sys.r, sys.x0, sys.p0) == (1.0, DEFAULT_MEAS_VAR, 0.0, 1.0)

    def test_jump_layer_inflates_process_noise(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=4.0)
        jp = JumpParams(lambda_j=0.5, mu_j=1.0, sigma_j=1.0)
        dt = 0.25
        sys = ou_state_space(p, dt, jump=jp)
        assert sys.q == pytest.approx(16.0 * dt + 0.5 * 1.0 * dt, rel=1e-12)

    def test_zero_theta_is_random_walk(self):
        sys = ou_state_space(OuParams(theta=0.0, mu=5.0, sigma=1.0), 0.1)
        assert sys.b == 0.0
        assert sys.a == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            ou_state_space(OU_TRUE, 0.0)
        with pytest.raises(DomainError):
            ou_state_space(OU_TRUE, 0.5, meas_var=-1.0)
        with pytest.raises(DomainError):
            ou_state_space(OU_TRUE, 0.5, p0=-1.0)


class TestOuTracking:
    def test_tracks_noiseless_series_tightly(self):
        src = RandomSource(SEED)
        path = simulate_ou(OU_TRUE, 1.0, 0.499, 1000, src)
        sys = ou_state_space(OU_TRUE, 0.499, x_init=path.values[0])
        states, _ = kalman_run(path.values[1:], sys)
        est = np.array([st.mean[0] for st in states])
        err = rmse(est, path.values[1:])
        assert err <= 1e-2
        assert err < 5e-4  # with meas_var 1e-4 tracking is near-exact

    def test_rmse_grows_with_assumed_measurement_noise(self):
        errs = {mv: [] for mv in (1e-4, 1e-2, 1.0)}
        for k in range(10):
            src = RandomSource(SEED + k)
            path = simulate_ou(OU_TRUE, 1.0, 0.499, 500, src)
            for mv in errs:
                sys = ou_state_space(OU_TRUE, 0.499, meas_var=mv, x_init=path.values[0])
                states, _ = kalman_run(path.values[1:], sys)
                est = np.array([st.mean[0] for st in states])
                errs[mv].append(rmse(est, path.values[1:]))
        med = [float(np.median(errs[mv])) for mv in (1e-4, 1e-2, 1.0)]
        assert med[0] < med[1] < med[2]


@pytest.fixture(scope="module")
def ou_path():
    return simulate_ou(OU_TRUE, 1.0, 0.499, 1000, RandomSource(SEED))


OU_PATH_200 = simulate_ou(OU_TRUE, 1.0, 0.499, 200, RandomSource(SEED))
JUMP_PATH = simulate_ou_jump(OuParams(1.0, 2.0, 4.0), JumpParams(0.5, 1.0, 1.0), 1.0, 0.499, 200,
                             RandomSource(SEED))


class TestEstimateKalman:
    def test_ou_recovery(self, ou_path):
        report = estimate_kalman(ou_path, "ou", (0.8, 1.5, 2.0), Bounds.uniform(3))
        p = report.params
        assert abs(p.theta - 1.0) < 0.25
        assert abs(p.mu - 2.0) < 0.30
        assert abs(p.sigma - 3.0) < 0.35
        assert report.converged
        assert report.wall_clock_s >= 0.0

    def test_deterministic(self, ou_path):
        r1 = estimate_kalman(ou_path, "ou", (0.8, 1.5, 2.0), Bounds.uniform(3))
        r2 = estimate_kalman(ou_path, "ou", (0.8, 1.5, 2.0), Bounds.uniform(3))
        assert (r1.params.theta, r1.params.mu, r1.params.sigma) == (
            r2.params.theta, r2.params.mu, r2.params.sigma,
        )
        assert r1.neg_log_lik == r2.neg_log_lik

    def test_ou_jump_dominates_truth(self):
        op = OuParams(theta=1.0, mu=2.0, sigma=4.0)
        jp = JumpParams(lambda_j=0.5, mu_j=1.0, sigma_j=1.0)
        src = RandomSource(SEED)
        path = simulate_ou_jump(op, jp, 1.0, 0.499, 1000, src)
        init = (1.0, 2.0, 4.0, 0.5, 1.0, 1.0)
        report = estimate_kalman(path, "ou_jump", init, Bounds.uniform(6))
        sys = ou_state_space(op, 0.499, jump=jp, x_init=path.values[0])
        _, ll_true = kalman_run(path.values[1:], sys)
        assert report.neg_log_lik <= -ll_true + 1e-9

    def test_objective_maps_overflowing_means_to_inf(self, ou_path, monkeypatch):
        # alpha = theta*mu*dt overflows, the means turn inf - inf = NaN and so
        # does the likelihood; L-BFGS-B must see inf, not NaN
        v = np.array([4.0, 1e308, 1.0])
        with np.errstate(all="ignore"):
            _, ll, _ = kalman._ou_kalman(
                ou_path.values[1:], ou_path.values[0], v, ou_path.dt, DEFAULT_MEAS_VAR
            )
        assert math.isnan(ll)
        seen = {}

        def capture(objective, x0, bounds, pack, jac="3-point"):
            seen["objective"] = objective

        monkeypatch.setattr(kalman, "bounded_minimize", capture)
        estimate_kalman(ou_path, "ou", v, Bounds([1e-15] * 3, [6.0, 1e308, 6.0]))
        with np.errstate(all="ignore"):
            assert seen["objective"](v)[0] == np.inf

    @staticmethod
    def objective(path, model, v, meas_var=DEFAULT_MEAS_VAR):
        """estimate_kalman's objective, which must come with its exact gradient."""
        seen = {}

        def capture(objective, x0, bounds, pack, jac="3-point"):
            seen["objective"], seen["jac"] = objective, jac

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kalman, "bounded_minimize", capture)
            estimate_kalman(path, model, v, Bounds.uniform(len(v)), meas_var=meas_var)
        assert seen["jac"] is True
        return seen["objective"]

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0.05, 3.0), mu=st.floats(0.05, 6.0), sigma=st.floats(0.3, 6.0),
           lambda_j=st.floats(1e-4, 6.0), mu_j=st.floats(1e-4, 6.0), sigma_j=st.floats(0.05, 6.0),
           jump=st.booleans())
    # lambda_j at its bound: a difference step of 1e-5 is a tenth of it
    @example(theta=1.0, mu=1.0, sigma=0.3125, lambda_j=1e-4, mu_j=4.0, sigma_j=1.0, jump=True)
    def test_score_matches_central_differences(self, theta, mu, sigma, lambda_j, mu_j, sigma_j,
                                               jump):
        path = JUMP_PATH if jump else OU_PATH_200
        v = np.array([theta, mu, sigma, lambda_j, mu_j, sigma_j] if jump else [theta, mu, sigma])
        y, x_init, dt = path.values[1:], path.values[0], path.dt

        def neg_log_lik(u):
            q = u[2] * u[2] * dt + (u[3] * u[4] * u[4] * dt if jump else 0.0)
            return -_kernels.kalman_ou_loop(y, u[0] * u[1] * dt, 1.0 - u[0] * dt, q,
                                            DEFAULT_MEAS_VAR, x_init, 1.0)[1]

        value, grad = self.objective(path, "ou_jump" if jump else "ou", v)(v)
        assert value == pytest.approx(neg_log_lik(v), rel=1e-12)
        assert_matches_central_differences(grad, central_differences(neg_log_lik, v))

    def test_score_in_sigma_j_is_zero(self):
        v = np.array([1.0, 2.0, 4.0, 0.5, 1.0, 1.0])
        objective = self.objective(JUMP_PATH, "ou_jump", v)
        value, grad = objective(v)
        assert grad[5] == 0.0 and np.all(grad[:5] != 0.0)
        for sigma_j in (1e-15, 3.0, 6.0):
            moved = v.copy()
            moved[5] = sigma_j
            assert objective(moved)[0] == value
            assert objective(moved)[1][5] == 0.0

    def test_degenerate_filter_gives_inf_and_zero_gradient(self):
        # q = r = 0: the prior variance is 0 from the second step on
        objective = self.objective(OU_PATH_200, "ou", np.array([1.0, 2.0, 1.0]), meas_var=0.0)
        value, grad = objective(np.array([1.0, 2.0, 0.0]))
        assert value == np.inf
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_validation(self, ou_path):
        with pytest.raises(DomainError):
            estimate_kalman(ou_path, "ou", (7.0, 1.0, 1.0), Bounds.uniform(3))
        with pytest.raises(ShapeError):
            estimate_kalman(ou_path, "ou", (1.0, 1.0), Bounds.uniform(3))
        with pytest.raises(ShapeError):
            estimate_kalman(ou_path, "ou", (1.0, 1.0, 1.0), Bounds.uniform(4))
        with pytest.raises(DomainError):
            estimate_kalman(ou_path.values, "ou", (1.0, 1.0, 1.0), Bounds.uniform(3))
        with pytest.raises(DomainError):
            estimate_kalman(ou_path, "cir", (1.0, 1.0, 1.0), Bounds.uniform(3))
        with pytest.raises(DomainError, match="meas_var"):
            estimate_kalman(ou_path, "ou", (1.0, 1.0, 1.0), Bounds.uniform(3), meas_var=-0.01)
        with pytest.raises(ShapeError):
            short = Path(t0=0.0, dt=0.5, values=np.array([1.0]))
            estimate_kalman(short, "ou", (1.0, 1.0, 1.0), Bounds.uniform(3))


def ou_augmented(sys):
    """The OU system sys in the augmented state (1, x_t), whose constant
    component carries b: the reference EKF's system, initial mean and
    initial covariance diag(0, p0), which keeps the constant exact."""
    a = np.array([[1.0, 0.0], [sys.b, sys.a]])
    h = np.array([0.0, 1.0])
    view = reference.NonlinearSystem(
        f=lambda x, t: a @ x, h=lambda x, t: h @ x,
        jac_a=lambda x, t: a, jac_w=lambda x, t: np.array([[0.0], [1.0]]),
        jac_h=lambda x, t: h, jac_e=lambda x, t: 1.0, q=np.array([[sys.q]]), r=sys.r,
    )
    return view, np.array([1.0, sys.x0]), np.diag([0.0, sys.p0])


class TestEkfOnLinearSystem:
    OU = ou_state_space(OU_TRUE, 0.499, x_init=1.3)
    RUN_SYSTEMS = {"d1": ORACLE_SYSTEMS["d1"], "ou": OU, "ou_augmented": OU}

    def test_step_matches_one_step_run(self):
        sys = ORACLE_SYSTEMS["d1"]
        lin = one_step(0.4, 0.6, sys, 0.7)
        st0 = GaussianState(mean=np.array([0.4]), cov=np.array([[0.6]]))
        ext = reference.ekf_step(st0, reference.linear_view(sys), 0.7)
        np.testing.assert_allclose(ext.mean, lin.mean, atol=1e-12)
        np.testing.assert_allclose(ext.cov, lin.cov, atol=1e-12)
        assert ext.innovation == pytest.approx(lin.innovation, abs=1e-12)
        assert ext.innovation_var == pytest.approx(lin.innovation_var, abs=1e-12)

    @pytest.mark.parametrize("name", RUN_SYSTEMS)
    def test_run_matches_kalman_run(self, name):
        # kalman_run runs the reference EKF's arithmetic in the same order,
        # so every state's x component and the log-likelihood agree bitwise;
        # so does the EKF over the augmented state (1, x_t)
        sys = self.RUN_SYSTEMS[name]
        if name == "ou_augmented":
            view, x0, p0 = ou_augmented(sys)
        else:
            view, x0, p0 = reference.linear_view(sys), sys.x0, sys.p0
        rng = RandomSource(SEED, stream=5).generator()
        y = rng.normal(size=30)
        lin_states, lin_ll = kalman_run(y, sys)
        ext_states, ext_ll = reference.ekf_run(y, view, x0=x0, p0=p0)
        assert ext_ll == lin_ll
        assert len(ext_states) == len(lin_states) == len(y)
        for ls, es in zip(lin_states, ext_states):
            assert es.mean[-1] == ls.mean[0] and es.cov[-1, -1] == ls.cov[0, 0]
            assert es.innovation == ls.innovation
            assert es.innovation_var == ls.innovation_var
            assert es.gain[-1] == ls.gain[0]

    def test_time_varying_run_matches_exact_recursion(self):
        # A_t alternates 0.5 / 1.5: step t's prior covariance must use the
        # transition Jacobian at index t, as ekf_step and the Kalman filter do
        a_seq = [0.5 if t % 2 == 0 else 1.5 for t in range(5)]
        sys = reference.NonlinearSystem(
            f=lambda x, t: a_seq[t] * x, h=lambda x, t: x,
            jac_a=lambda x, t: a_seq[t], jac_w=lambda x, t: 1.0,
            jac_h=lambda x, t: 1.0, jac_e=lambda x, t: 1.0, q=0.3, r=0.2,
        )
        y = np.array([0.4, -0.7, 1.1, 0.2, -0.5])
        states, ll = reference.ekf_run(y, sys, x0=0.8, p0=0.6)
        direct, means, covs = kalman_oracle(a_seq, 0.0, 0.3, 1.0, 0.2, 0.8, 0.6, y)
        assert ll == pytest.approx(direct, abs=1e-12)
        for st, x, p in zip(states, means, covs):
            np.testing.assert_allclose(st.mean, x, atol=1e-12)
            np.testing.assert_allclose(st.cov, p, atol=1e-12)
        for t in range(1, len(y)):
            folded = reference.ekf_step(states[t - 1], sys, y[t], t)
            np.testing.assert_array_equal(folded.mean, states[t].mean)
            np.testing.assert_array_equal(folded.cov, states[t].cov)

    def test_degenerate_innovation_variance(self):
        sys = reference.NonlinearSystem(
            f=lambda x, t: x, h=lambda x, t: 0.0,
            jac_a=lambda x, t: 1.0, jac_w=lambda x, t: 0.0,
            jac_h=lambda x, t: 0.0, jac_e=lambda x, t: 0.0,
        )
        with pytest.raises(DegenerateSystemError):
            reference.ekf_run([1.0], sys)


@pytest.fixture(scope="module")
def sim():
    src = RandomSource(SEED)
    lns, v = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 300, src)
    return lns, v


class TestHestonEkf:
    DT = 0.499

    def test_transition_jacobian_matches_finite_difference(self, sim):
        lns, _ = sim
        sys = reference.sv_view(heston_ekf_system(HESTON_BASE, self.DT, lns))
        rng = RandomSource(SEED, stream=7).generator()
        eps = 1e-6
        for v in rng.uniform(0.2, 3.0, size=10):
            fd = (sys.f(v + eps, 3) - sys.f(v - eps, 3)) / (2 * eps)
            assert sys.jac_a(v, 3) == pytest.approx(fd, rel=1e-7)
            fd_h = (sys.h(v + eps, 3) - sys.h(v - eps, 3)) / (2 * eps)
            assert sys.jac_h(v, 3) == pytest.approx(fd_h, rel=1e-7)

    def test_noise_loadings(self, sim):
        lns, _ = sim
        sys = reference.sv_view(heston_ekf_system(HESTON_BASE, self.DT, lns))
        v = 1.3
        w_expect = 0.6 * math.sqrt(1 - 0.04**2) * math.sqrt(self.DT) * math.sqrt(v)
        assert sys.jac_w(v, 0) == pytest.approx(w_expect, rel=1e-12)
        assert sys.jac_e(v, 0) == pytest.approx(math.sqrt(v * self.DT), rel=1e-12)
        # sqrt terms truncate at zero rather than going complex
        assert sys.jac_w(-0.5, 0) == 0.0
        assert sys.jac_e(-0.5, 0) == 0.0

    def test_one_step_hand_check(self, sim):
        lns, _ = sim
        dl = log_returns(lns)
        sys = reference.sv_view(heston_ekf_system(HESTON_BASE, self.DT, lns))
        v_prev, p_prev = 1.2, 0.8
        st0 = GaussianState(mean=np.array([v_prev]), cov=np.array([[p_prev]]))
        st = reference.ekf_step(st0, sys, dl[0], t=0)
        p = HESTON_BASE
        v_pred = (
            v_prev
            + (p.kappa * (p.theta_v - v_prev) - p.rho * p.xi * (p.mu_s - 0.5 * v_prev)) * self.DT
            + p.rho * p.xi * dl[0]
        )
        assert st.mean[0] - st.gain[0] * st.innovation == pytest.approx(v_pred, rel=1e-12)
        a = 1.0 - (p.kappa - 0.5 * p.rho * p.xi) * self.DT
        w2 = p.xi**2 * (1 - p.rho**2) * self.DT * max(v_prev, 0.0)
        p_prior = a * a * p_prev + w2
        assert st.cov[0, 0] < p_prior  # measurement always sharpens the variance

    @pytest.mark.parametrize("model", ["heston", "bates"])
    def test_kernel_matches_generic_path(self, sim, model):
        lns, _ = sim
        dl = log_returns(lns)
        if model == "heston":
            sys = heston_ekf_system(HESTON_BASE, self.DT, lns)
        else:
            sys = bates_ekf_system(BatesParams(HESTON_BASE, lam=10.0, jump_size=0.1), self.DT, lns)
        k_states, k_ll = ekf_run(dl, sys, x0=1.0, p0=1.0)
        g_states, g_ll = reference.ekf_run(dl, reference.sv_view(sys), x0=1.0, p0=1.0)
        assert k_ll == pytest.approx(g_ll, rel=1e-9)
        km = np.array([st.mean[0] for st in k_states])
        gm = np.array([st.mean[0] for st in g_states])
        np.testing.assert_allclose(km, gm, rtol=1e-9, atol=1e-12)
        kp = np.array([st.cov[0, 0] for st in k_states])
        gp = np.array([st.cov[0, 0] for st in g_states])
        np.testing.assert_allclose(kp, gp, rtol=1e-9, atol=1e-12)

    def test_variance_tracking_band(self):
        # Feller-violated row: kappa=2, theta_v=0.01, xi=0.6
        p = HestonParams(mu_s=0.3, kappa=2.0, theta_v=0.01, xi=0.6, rho=-0.1)
        src = RandomSource(SEED)
        lns, v = simulate_heston(p, 100.0, p.theta_v, self.DT, 1000, src)
        sys = heston_ekf_system(p, self.DT, lns)
        states, _ = ekf_run(log_returns(lns), sys, x0=1.0, p0=1.0)
        est = np.array([st.mean[0] for st in states])
        err = rmse(est, v.values[1:])
        assert 0.1 <= err <= 3.0

    def test_degenerate_configuration_raises(self):
        # small-variance row at coarse dt: the filter estimate goes negative
        # and the innovation variance collapses
        p = HestonParams(mu_s=0.1, kappa=1.0, theta_v=0.02, xi=0.1, rho=-0.8)
        src = RandomSource(SEED)
        lns, _ = simulate_heston(p, 100.0, p.theta_v, self.DT, 1000, src)
        sys = heston_ekf_system(p, self.DT, lns)
        with pytest.raises(DegenerateSystemError):
            ekf_run(log_returns(lns), sys, x0=1.0, p0=1.0)

    def test_failure_names_the_measurements_zero_based_index(self):
        # from v = 0 with p0 = 0, a large negative first return with rho > 0
        # drives v_pred below 0, so the first innovation variance is 0
        sys = heston_ekf_system(HESTON_BASE, self.DT, np.array([0.0, -10.0, -10.1]))
        with pytest.raises(DegenerateSystemError, match="^innovation variance not positive at step 0$"):
            ekf_run(sys.dlns, sys, x0=0.0, p0=0.0)

    def test_objective_discriminates_doubled_theta_v(self):
        # the true params give the higher log-likelihood; a seed where either
        # filter breaks down is no win; 10 seeds, at most 2 may fail to
        # discriminate (seed 2024066 does)
        doubled = HestonParams(mu_s=0.05, kappa=0.3, theta_v=3.0, xi=0.6, rho=0.04)
        wins = 0
        for k in range(10):
            src = RandomSource(SEED + k)
            lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, self.DT, 1000, src)
            dl = log_returns(lns)
            try:
                o_true = ekf_log_likelihood(dl, heston_ekf_system(HESTON_BASE, self.DT, lns))
                o_dbl = ekf_log_likelihood(dl, heston_ekf_system(doubled, self.DT, lns))
            except DegenerateSystemError:
                continue
            wins += o_true > o_dbl
        assert wins >= 8

    def test_bates_system_uses_compensated_drift(self, sim):
        lns, _ = sim
        bp = BatesParams(heston=HESTON_BASE, lam=10.0, jump_size=0.1)
        sys_b = reference.sv_view(bates_ekf_system(bp, self.DT, lns))
        sys_h = reference.sv_view(heston_ekf_system(HESTON_BASE, self.DT, lns))
        v = 1.0
        shift = bp.mu_eff - HESTON_BASE.mu_s
        assert shift > 0.0
        assert sys_b.h(v, 0) - sys_h.h(v, 0) == pytest.approx(shift * self.DT, rel=1e-12)

    def test_rejects_nonpositive_dt(self, sim):
        lns, _ = sim
        with pytest.raises(DomainError):
            heston_ekf_system(HESTON_BASE, 0.0, lns)
        bp = BatesParams(heston=HESTON_BASE, lam=1.0, jump_size=0.1)
        with pytest.raises(DomainError):
            bates_ekf_system(bp, -1.0, lns)


class TestLogReturns:
    def test_diff_of_path(self):
        path = Path(t0=0.0, dt=1.0, values=np.array([1.0, 3.0, 2.5]))
        np.testing.assert_allclose(log_returns(path), [2.0, -0.5])

    def test_rejects_short_input(self):
        with pytest.raises(ShapeError):
            log_returns([1.0])


class TestKernelStates:
    """The kernel's states are its own floats, one GaussianState per step."""

    @pytest.mark.parametrize("name", ["heston_ekf", "bates_ekf"])
    def test_states_are_the_kernels_posteriors_bitwise(self, name):
        sc = experiments.load_scenario(name)
        lns, _ = experiments._simulate(sc, sc.seed)
        (record,) = sc.records
        build = heston_ekf_system if sc.model == "heston" else bates_ekf_system
        sys = build(record, sc.dt, lns)
        dl = log_returns(lns)
        x0, p0 = sc.option("v0_guess"), sc.option("p0")
        v_post, p_post, ll = kalman._heston_ekf(dl, sys, x0, p0)
        states, run_ll = ekf_run(dl, sys, x0=x0, p0=p0)
        assert len(states) == len(dl) == sc.n_steps
        assert run_ll == ll
        assert all(s.mean.shape == (1,) and s.cov.shape == (1, 1) for s in states)
        assert np.array([s.mean[0] for s in states]).tobytes() == v_post[1:].tobytes()
        assert np.array([s.cov[0, 0] for s in states]).tobytes() == p_post[1:].tobytes()
        assert all(s.innovation is None and s.gain is None for s in states)


class TestFilterBreakdown:
    """A filter whose posterior leaves the floats raises a
    DegenerateSystemError naming the step, as a simulator does."""

    @pytest.fixture(scope="class")
    def returns(self):
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 300, RandomSource(3))
        return lns

    # one parameter of the filter's system set hostile, from (x0, p0)
    @pytest.mark.parametrize("key, value, x0, p0, step", [
        ("mu_s", 1.7e308, 1.0, 1.0, 0),
        ("kappa", 1e100, 1.0, 0.0, 5),
        ("kappa", 1e200, 1.0, 1.0, 1),
        ("kappa", 1.7e308, 0.0, 1.0, 0),
        ("xi", 1e100, 0.0, 1.0, 2),
        ("xi", 1e300, 1e10, 1e10, 0),
    ])
    def test_ekf_names_the_first_step_off_the_floats(self, returns, key, value, x0, p0, step):
        # these used to raise "cov must be symmetric", an input error, from
        # ekf_run, and to return nan or blame a zero posterior variance from
        # ekf_log_likelihood
        sys = heston_ekf_system(dataclasses.replace(HESTON_BASE, **{key: value}), 0.499, returns)
        v, p, *_ = _kernels.heston_ekf_loop(sys.dlns, sys.dt, sys.mu_eff, sys.kappa, sys.theta_v,
                                            sys.xi, sys.rho, x0, p0)
        assert np.flatnonzero(~(np.isfinite(v) & np.isfinite(p)))[0] == step + 1
        message = f"v or P leaves the floats at step {step} (v = {v[step + 1]}, P = {p[step + 1]})"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSystemError, match=f"^{re.escape(message)}$"):
                ekf_run(sys.dlns, sys, x0, p0)
            with pytest.raises(DegenerateSystemError, match=f"^{re.escape(message)}$"):
                ekf_log_likelihood(sys.dlns, sys, x0, p0)

    # finite states, with an innovation whose square leaves the floats
    @pytest.mark.parametrize("key, value, x0, p0, step", [
        ("mu_s", 1e200, 1.0, 1.0, 0),
        ("theta_v", 1e200, 1.0, 1.0, 0),
        ("kappa", 1e104, 0.0, 1.0, 1),
    ])
    def test_ekf_names_the_first_step_its_log_likelihood_leaves_the_floats(
            self, returns, key, value, x0, p0, step):
        # ekf_run and ekf_log_likelihood used to return ll = -inf
        sys = heston_ekf_system(dataclasses.replace(HESTON_BASE, **{key: value}), 0.499, returns)
        v, p, ll = _kernels.heston_ekf_loop(sys.dlns, sys.dt, sys.mu_eff, sys.kappa,
                                                  sys.theta_v, sys.xi, sys.rho, x0, p0)
        assert np.isfinite(v).all() and np.isfinite(p).all()
        assert np.flatnonzero(~np.isfinite(ll))[0] == step + 1
        message = f"log-likelihood leaves the floats at step {step} (log-likelihood = -inf)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSystemError, match=f"^{re.escape(message)}$"):
                ekf_run(sys.dlns, sys, x0, p0)
            with pytest.raises(DegenerateSystemError, match=f"^{re.escape(message)}$"):
                ekf_log_likelihood(sys.dlns, sys, x0, p0)

    @pytest.mark.parametrize("sys, y, message", [
        # a P a overflows at step 0, so step 1's gain is inf / inf
        (scalar_system(a=1e200), [1.0, 2.0, 3.0],
         "x or P leaves the floats at step 1 (x = nan, P = nan)"),
        # the mean is inf - inf at step 0, before step 1's zero prior variance
        (scalar_system(a=1e200, q=0.0, r=0.0, x0=1e200), [1.0, 2.0],
         "x or P leaves the floats at step 0 (x = nan, P = 0.0)"),
        # with no noise the second prior variance is 0
        (scalar_system(q=0.0, r=0.0), [1.0, 2.0], "innovation variance not positive at step 1"),
    ], ids=["overflow", "overflow_first", "zero_at_1"])
    def test_kalman_run_names_the_first_failed_step(self, sys, y, message):
        with pytest.raises(DegenerateSystemError, match=f"^{re.escape(message)}$"):
            kalman_run(y, sys)


@pytest.fixture(scope="module")
def heston_run(sim):
    lns, _ = sim
    dl = log_returns(lns)
    sys = heston_ekf_system(HESTON_BASE, 0.499, lns)
    return dl, sys


class TestEkfLogLikelihood:
    def test_gaussian_matches_run_likelihood(self, heston_run):
        # both read the last row of one _heston_ekf pass
        dl, sys = heston_run
        _, ll = ekf_run(dl, sys, x0=1.0, p0=1.0)
        assert ekf_log_likelihood(dl, sys) == ll

    def test_kernel_and_generic_agree(self, heston_run):
        dl, sys = heston_run
        _, ll = reference.ekf_run(dl, reference.sv_view(sys), x0=1.0, p0=1.0)
        assert ekf_log_likelihood(dl, sys) == pytest.approx(ll, rel=1e-9)

    def test_only_its_own_returns_are_filtered(self):
        # the kernel reads the series as the transition's return input too,
        # while the system's model reads sys.dlns: any other series would get
        # one answer from the kernel and another from the reference view
        p = HestonParams(mu_s=0.04, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)
        lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 200, RandomSource(3))
        dl = log_returns(lns)
        sys = heston_ekf_system(p, 0.499, lns)
        reversed_dl = dl[::-1].copy()
        first = int(np.flatnonzero(reversed_dl != dl)[0])
        with pytest.raises(DomainError, match=f"own returns at index {first};"):
            ekf_log_likelihood(reversed_dl, sys)
        with pytest.raises(DomainError, match=f"own returns at index {first};"):
            ekf_run(reversed_dl, sys)
        with pytest.raises(DomainError, match=f"own returns at index {len(dl)};"):
            ekf_run(np.append(dl, 0.0), sys)
        # a prefix of its own returns is filtered, with the reference view's answer
        want = reference.ekf_run(dl[:50], reference.sv_view(sys))[1]
        assert ekf_run(dl[:50], sys)[1] == pytest.approx(want, rel=1e-12)


class TestGainOptimality:
    def test_kalman_gain_minimizes_posterior_variance(self):
        # P(K) = P- - 2*K*H*P- + K^2*(H^2*P- + R); the filter's K must beat
        # +-10% perturbations on every random system
        rng = RandomSource(SEED, stream=17).generator()
        for _ in range(100):
            p_prev, q, r = rng.uniform(0.05, 3.0, size=3)
            a = rng.uniform(-1.5, 1.5)
            h = rng.uniform(-2.0, 2.0)
            if abs(h) < 1e-3:
                h = 1.0
            sys = scalar_system(a=a, q=q, h=h, r=r)
            st = one_step(rng.normal(), p_prev, sys, rng.normal())
            p_prior = a * a * p_prev + q

            def post_var(k):
                return p_prior - 2.0 * k * h * p_prior + k * k * (h * h * p_prior + r)

            k_star = float(st.gain[0])
            assert post_var(k_star) == pytest.approx(st.cov[0, 0], rel=1e-10)
            assert post_var(1.1 * k_star) > st.cov[0, 0]
            assert post_var(0.9 * k_star) > st.cov[0, 0]


class TestCovarianceStaysPsd:
    def test_long_random_run(self):
        sys = scalar_system(a=0.95, b=0.2, q=0.2, h=-0.4, r=0.3)
        rng = RandomSource(SEED, stream=23).generator()
        states, _ = kalman_run(rng.normal(size=2500), sys)
        assert min(st.cov[0, 0] for st in states) >= -1e-10


class TestNonFiniteSeries:
    """Each public filter and fit names the first non-finite entry it is given."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [
        "estimate_mle", "estimate_kalman", "kalman_run", "ekf_run", "ekf_log_likelihood",
        "log_likelihood",
    ])
    def test_rejected_with_its_index(self, sim, entry, bad):
        lns, _ = sim
        dl = log_returns(lns)[:40].copy()
        dl[3] = bad
        ou = simulate_ou(OU_TRUE, 0.0, 0.499, 40, RandomSource(SEED))
        ou_values = ou.values.copy()
        ou_values[3] = bad
        ou = Path(t0=ou.t0, dt=ou.dt, values=ou_values)
        sv = heston_ekf_system(HESTON_BASE, 0.499, lns)
        calls = {
            "estimate_mle": lambda: estimate_mle(ou, "ou", (0.5, 1.0, 2.0), Bounds.uniform(3)),
            "estimate_kalman": lambda: estimate_kalman(ou, "ou", (0.5, 1.0, 2.0), Bounds.uniform(3)),
            "kalman_run": lambda: kalman_run(ou_values[1:], ou_state_space(OU_TRUE, 0.499)),
            "ekf_run": lambda: ekf_run(dl, sv),
            "ekf_log_likelihood": lambda: ekf_log_likelihood(dl, sv),
            "log_likelihood": lambda: log_likelihood(ou, ou_density, OU_TRUE),
        }
        index = 2 if entry == "kalman_run" else 3
        with pytest.raises(DomainError, match=f"value at index {index} is not finite$"):
            calls[entry]()

    @pytest.mark.parametrize("entry", [
        "ekf_run", "ekf_log_likelihood",
    ])
    @pytest.mark.parametrize("start, message", [
        ({"x0": np.nan}, "x0 must be finite"),
        ({"x0": np.inf}, "x0 must be finite"),
        ({"p0": np.nan}, "p0 must be finite and >= 0, got nan"),
        ({"p0": np.inf}, "p0 must be finite and >= 0, got inf"),
        ({"p0": -1.0}, "p0 must be finite and >= 0, got -1.0"),
    ], ids=["x0_nan", "x0_inf", "p0_nan", "p0_inf", "p0_negative"])
    def test_bad_initial_values_rejected_before_any_warning(self, sim, entry, start, message):
        lns, _ = sim
        dl = log_returns(lns)[:40]
        sv = heston_ekf_system(HESTON_BASE, 0.499, lns)
        calls = {
            "ekf_run": lambda: ekf_run(dl, sv, **start),
            "ekf_log_likelihood": lambda: ekf_log_likelihood(dl, sv, **start),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{message}$"):
                calls[entry]()

    @pytest.mark.parametrize("entry", [
        "ekf_run", "ekf_log_likelihood", "particle_run", "particle_ekf_run",
    ])
    @pytest.mark.parametrize("arg, value", [
        ("x0", [1.0]), ("p0", [[1.0]]), ("p0", np.eye(2)),
    ], ids=["x0_list", "p0_one_by_one", "p0_eye2"])
    def test_start_values_must_be_scalars(self, sim, entry, arg, value):
        lns, _ = sim
        sv = heston_ekf_system(HESTON_BASE, 0.499, lns)
        name = "x0_guess" if entry == "particle_ekf_run" and arg == "x0" else arg
        calls = {
            "ekf_run": lambda: ekf_run(sv.dlns, sv, **{arg: value}),
            "ekf_log_likelihood": lambda: ekf_log_likelihood(sv.dlns, sv, **{arg: value}),
            "particle_run": lambda: particle_run(
                sv.dlns, sv, 10, RandomSource(SEED), **{arg: value}),
            "particle_ekf_run": lambda: particle_ekf_run(
                lns, HESTON_BASE, 10, RandomSource(SEED), **{name: value}),
        }
        with pytest.raises(ShapeError, match=f"^{name} must be a scalar, got shape "):
            calls[entry]()


def returns_system(dlns):
    """An SvSystem whose own returns are dlns."""
    return kalman.SvSystem(dt=0.5, mu_eff=0.0, kappa=1.0, theta_v=1.0, xi=0.5, rho=0.0,
                           dlns=np.asarray(dlns, dtype=float))


class TestFilterInputs:
    """kalman._filter_inputs, the input check of ekf_run, ekf_log_likelihood,
    particle_run and the scenario driver's ekf stage."""

    def test_returns_the_measurements_as_a_float_array(self):
        path = Path(t0=0.0, dt=0.5, values=np.array([0.1, -0.2, 0.3]))
        sys = returns_system(path.values)
        np.testing.assert_array_equal(kalman._filter_inputs(path, sys, 0.0, 1.0), path.values)
        y = kalman._filter_inputs([1, 2, 3], returns_system([1.0, 2.0, 3.0]), 0.0, 1.0)
        assert y.dtype == float and y.shape == (3,)
        np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("series", [[], [[0.1, 0.2], [0.3, 0.4]]], ids=["empty", "two_dim"])
    def test_rejects_series_without_one_dim_measurements(self, series):
        with pytest.raises(ShapeError, match="^series must be 1-dim and hold at least one point$"):
            kalman._filter_inputs(series, returns_system([0.1, 0.2]), 0.0, 1.0)

    def test_names_the_initial_value(self):
        sys = returns_system([0.1, 0.2])
        with pytest.raises(DomainError, match="^x0 must be finite$"):
            kalman._filter_inputs([0.1, 0.2], sys, np.inf, 1.0)
        with pytest.raises(ShapeError, match=r"^x0 must be a scalar, got shape \(2,\)$"):
            kalman._filter_inputs([0.1, 0.2], sys, [0.0, 1.0], 1.0)

    def test_takes_only_an_sv_system(self):
        with pytest.raises(TypeError, match="^the EKF and particle filters run an SvSystem, "
                                            "got LinearStateSpace$"):
            kalman._filter_inputs([0.1, 0.2], scalar_system(), 0.0, 1.0)

    def test_takes_the_systems_own_returns_or_a_prefix(self):
        sys = returns_system([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(kalman._filter_inputs([0.1, 0.2], sys, 0.0, 1.0), [0.1, 0.2])
        with pytest.raises(DomainError, match="^series differs from the system's own returns "
                                              "at index 1; "):
            kalman._filter_inputs([0.1, 0.25], sys, 0.0, 1.0)
        with pytest.raises(DomainError, match="own returns at index 3; "):
            kalman._filter_inputs([0.1, 0.2, 0.3, 0.4], sys, 0.0, 1.0)

    @pytest.mark.parametrize("entry", ["ekf_run", "ekf_log_likelihood", "particle_run"])
    def test_filters_take_only_an_sv_system(self, entry):
        # a LinearStateSpace belongs to kalman_run; the SvSystem filters name
        # the type they were given instead of failing on a missing field
        calls = {
            "ekf_run": lambda sys: ekf_run([0.1, 0.2], sys),
            "ekf_log_likelihood": lambda sys: ekf_log_likelihood([0.1, 0.2], sys),
            "particle_run": lambda sys: particle_run([0.1, 0.2], sys, 10, RandomSource(SEED)),
        }
        with pytest.raises(TypeError, match="run an SvSystem, got LinearStateSpace$"):
            calls[entry](scalar_system())

    def test_kalman_filter_takes_only_a_linear_state_space(self, sim):
        lns, _ = sim
        sv = heston_ekf_system(HESTON_BASE, 0.499, lns)
        with pytest.raises(TypeError, match="^the Kalman filter runs a LinearStateSpace, got SvSystem$"):
            kalman_run(log_returns(lns), sv)
