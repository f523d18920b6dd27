import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    NonlinearSystem,
    bates_ekf_system,
    ekf_log_likelihood,
    ekf_run,
    ekf_step,
    estimate_kalman,
    heston_ekf_system,
    kalman_run,
    kalman_step,
    log_returns,
    ou_state_space,
)
from sdefl.mle import Bounds, estimate_mle, log_likelihood, ou_density
from sdefl.models import (
    BatesParams,
    HestonParams,
    JumpParams,
    OuParams,
    simulate_heston,
    simulate_ou,
    simulate_ou_jump,
)

SEED = 2024061

OU_TRUE = OuParams(theta=1.0, mu=2.0, sigma=3.0)
HESTON_BASE = HestonParams(mu_s=0.05, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)


def scalar_system(a=1.0, q=1.0, h=1.0, r=1.0, x0=0.0, p0=1.0):
    return LinearStateSpace(
        a=[[a]], g=[[1.0]], q=[[q]], h=[h], r=r, x0=[x0], p0=[[p0]]
    )


class TestLinearStateSpace:
    def test_dim(self):
        sys = scalar_system()
        assert sys.dim == 1
        sys2 = LinearStateSpace(
            a=np.eye(2), g=[[1.0], [0.0]], q=[[1.0]], h=[1.0, 0.0],
            r=1.0, x0=[0.0, 0.0], p0=np.eye(2),
        )
        assert sys2.dim == 2

    def test_rejects_nonsquare_a(self):
        with pytest.raises(ShapeError):
            LinearStateSpace(
                a=[[1.0, 0.0]], g=[[1.0]], q=[[1.0]], h=[1.0],
                r=1.0, x0=[0.0], p0=[[1.0]],
            )

    def test_rejects_mismatched_g_q(self):
        with pytest.raises(ShapeError):
            LinearStateSpace(
                a=[[1.0]], g=[[1.0]], q=np.eye(2), h=[1.0],
                r=1.0, x0=[0.0], p0=[[1.0]],
            )

    def test_rejects_wrong_h_x0_p0(self):
        good = dict(a=np.eye(2), g=[[1.0], [0.0]], q=[[1.0]], r=1.0)
        with pytest.raises(ShapeError):
            LinearStateSpace(h=[1.0], x0=[0.0, 0.0], p0=np.eye(2), **good)
        with pytest.raises(ShapeError):
            LinearStateSpace(h=[1.0, 0.0], x0=[0.0], p0=np.eye(2), **good)
        with pytest.raises(ShapeError):
            LinearStateSpace(h=[1.0, 0.0], x0=[0.0, 0.0], p0=np.eye(3), **good)

    def test_rejects_negative_r(self):
        with pytest.raises(DomainError):
            scalar_system(r=-0.1)

    def test_rejects_asymmetric_q(self):
        with pytest.raises(DomainError):
            LinearStateSpace(
                a=np.eye(2), g=np.eye(2), q=[[1.0, 0.5], [0.0, 1.0]],
                h=[1.0, 0.0], r=1.0, x0=[0.0, 0.0], p0=np.eye(2),
            )

    def test_rejects_indefinite_q(self):
        with pytest.raises(DomainError):
            scalar_system(q=-1.0)

    def test_rejects_indefinite_p0(self):
        with pytest.raises(DomainError):
            scalar_system(p0=-0.5)

    def test_arrays_frozen(self):
        sys = scalar_system()
        with pytest.raises(ValueError):
            sys.a[0, 0] = 2.0

    def test_freezes_copies_not_the_callers_arrays(self):
        a, p0 = np.array([[0.9]]), np.array([[1.0]])
        sys = LinearStateSpace(a=a, g=[[1.0]], q=[[1.0]], h=[1.0], r=1.0, x0=[0.0], p0=p0)
        assert a.flags.writeable and p0.flags.writeable
        a[0, 0], p0[0, 0] = 5.0, 7.0
        assert sys.a[0, 0] == 0.9 and sys.p0[0, 0] == 1.0


class TestGaussianState:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            GaussianState(mean=[0.0, 1.0], cov=[[1.0]])

    def test_rejects_asymmetric_cov(self):
        with pytest.raises(DomainError):
            GaussianState(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.0, 1.0]])

    def test_arrays_frozen(self):
        st = GaussianState(mean=[0.0], cov=[[1.0]])
        with pytest.raises(ValueError):
            st.mean[0] = 1.0

    def test_freezes_copies_not_the_callers_arrays(self):
        mean, cov, gain = np.array([0.5]), np.array([[2.0]]), np.array([0.1])
        st = GaussianState(mean=mean, cov=cov, gain=gain)
        assert mean.flags.writeable and cov.flags.writeable and gain.flags.writeable
        mean[0], cov[0, 0], gain[0] = 9.0, 9.0, 9.0
        assert (st.mean[0], st.cov[0, 0], st.gain[0]) == (0.5, 2.0, 0.1)

    def test_scalars_become_a_one_by_one_state(self):
        st = GaussianState(mean=0.5, cov=2.0)
        assert st.mean.shape == (1,) and st.cov.shape == (1, 1)
        assert (st.mean[0], st.cov[0, 0]) == (0.5, 2.0)

    @pytest.mark.parametrize("cov, accepted", [
        ([[np.nan]], False),
        ([[np.inf]], True),
        ([[np.inf, 1.0], [1.0, np.inf]], True),
        ([[1.0, 0.5 + 5e-9], [0.5, 1.0]], True),
        ([[1.0, 0.5 + 1e-3], [0.5, 1.0]], False),
    ], ids=["nan", "inf", "inf_diagonal", "asymmetry_5e-9", "asymmetry_1e-3"])
    def test_symmetry_check_cases(self, cov, accepted):
        cov = np.array(cov)
        assert np.allclose(cov, cov.T, atol=1e-8) == accepted
        assert symmetry_accepted(cov) == accepted

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_symmetry_check_matches_allclose(self, data):
        d = data.draw(st.integers(1, 3))
        index = st.integers(0, d - 1)
        cov = np.array(data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=d * d, max_size=d * d))).reshape(d, d)
        cov = 0.5 * (cov + cov.T)
        cov[data.draw(index), data.draw(index)] += data.draw(
            st.sampled_from([0.0, 5e-9, 1e-8, 2e-8, 1e-3]))
        special = data.draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
        if special is not None:
            i, j = data.draw(index), data.draw(index)
            cov[i, j] = special
            if data.draw(st.booleans()):
                cov[j, i] = special
        assert symmetry_accepted(cov) == np.allclose(cov, cov.T, atol=1e-8)


def symmetry_accepted(cov):
    """Whether GaussianState takes cov as a symmetric covariance."""
    try:
        GaussianState(mean=np.zeros(cov.shape[0]), cov=cov)
    except DomainError:
        return False
    return True


class TestKalmanStep:
    def test_hand_computed_update(self):
        # A=1, Q=1, H=1, R=1 from posterior (0, 1), y=2:
        # P-minus = 2, S = 3, K = 2/3, mean = 4/3, P-post = 2/3
        sys = scalar_system()
        st = kalman_step(GaussianState(mean=[0.0], cov=[[1.0]]), sys, 2.0)
        assert st.innovation_var == pytest.approx(3.0, rel=1e-14)
        assert st.gain[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert st.innovation == pytest.approx(2.0, rel=1e-14)
        assert st.mean[0] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert st.cov[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_zero_measurement_noise_pins_mean_to_y(self):
        sys = scalar_system(r=0.0)
        st = kalman_step(GaussianState(mean=[0.3], cov=[[0.7]]), sys, -1.25)
        assert st.mean[0] == pytest.approx(-1.25, abs=1e-14)
        assert st.cov[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_huge_measurement_noise_keeps_prior(self):
        sys = scalar_system(q=0.0, r=1e12)
        st = kalman_step(GaussianState(mean=[0.3], cov=[[0.7]]), sys, 100.0)
        assert st.mean[0] == pytest.approx(0.3, abs=1e-9)
        assert st.cov[0, 0] == pytest.approx(0.7, abs=1e-9)

    def test_degenerate_innovation_variance(self):
        sys = scalar_system(q=0.0, r=0.0, p0=0.0)
        with pytest.raises(DegenerateSystemError):
            kalman_step(GaussianState(mean=[0.0], cov=[[0.0]]), sys, 1.0)

    def test_posterior_never_exceeds_prior_variance(self):
        rng = RandomSource(SEED, stream=31).generator()
        for _ in range(20):
            a, q, p_prev, r = rng.uniform(0.1, 2.0, size=4)
            h = rng.uniform(-2.0, 2.0)
            sys = scalar_system(a=a, q=q, h=h, r=r)
            st = kalman_step(
                GaussianState(mean=[rng.normal()], cov=[[p_prev]]), sys, rng.normal()
            )
            p_prior = a * a * p_prev + q
            assert st.cov[0, 0] <= p_prior + 1e-14


def kalman_oracle(a_seq, g, q, h, r, x0, p0, y):
    """Kalman recursion written out by hand, with A_t = a_seq[t] moving the
    state into step t; P0 is the first a priori covariance.  Returns the
    log-likelihood and the posterior means and covariances."""
    x, p_minus, direct, means, covs = np.asarray(x0, float), np.asarray(p0, float), 0.0, [], []
    for t, obs in enumerate(y):
        a = np.asarray(a_seq[t], float)
        if t > 0:
            p_minus = a @ p_post @ a.T + g @ q @ g.T
        x_pred = a @ x
        s = float(h @ p_minus @ h + r)
        resid = float(obs - h @ x_pred)
        direct += math.log(normal_pdf(resid, 0.0, math.sqrt(s)))
        k = p_minus @ h / s
        x = x_pred + k * resid
        p_post = p_minus - np.outer(k, h @ p_minus)
        means.append(x)
        covs.append(p_post)
    return direct, means, covs


ORACLE_SYSTEMS = {
    "d2": LinearStateSpace(
        a=[[0.9, 0.1], [0.0, 0.8]], g=[[1.0], [0.5]], q=[[0.3]], h=[1.0, 0.2], r=0.4,
        x0=[0.3, -0.2], p0=[[0.5, 0.1], [0.1, 0.4]],
    ),
    "d1": LinearStateSpace(a=[[0.95]], g=[[1.0]], q=[[0.3]], h=[1.3], r=0.2, x0=[0.1], p0=[[0.7]]),
    "noise2": LinearStateSpace(
        a=[[0.7, 0.2], [-0.1, 0.9]], g=[[1.0, 0.3], [0.2, 0.8]], q=[[0.5, 0.1], [0.1, 0.2]],
        h=[0.6, -1.1], r=0.05, x0=[0.0, 1.0], p0=[[1.0, 0.0], [0.0, 2.0]],
    ),
    "r0": LinearStateSpace(
        a=[[1.0, 0.0], [0.4, 0.8]], g=[[0.0], [1.0]], q=[[0.9]], h=[0.0, 1.0], r=0.0,
        x0=[1.0, 0.5], p0=[[0.0, 0.0], [0.0, 1.0]],
    ),
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

    def test_run_differs_from_step_fold_only_in_first_covariance(self):
        sys = scalar_system()
        states, _ = kalman_run([2.0], sys)
        folded = kalman_step(GaussianState(mean=sys.x0, cov=sys.p0), sys, 2.0)
        assert states[0].innovation_var == pytest.approx(2.0)
        assert folded.innovation_var == pytest.approx(3.0)

    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_log_likelihood_is_product_of_innovation_densities(self, name):
        # independent recursion written out in kalman_oracle; the filter
        # must agree to 1e-10
        sys = ORACLE_SYSTEMS[name]
        y = np.array([0.5, -0.3, 0.8, 0.1, -0.6])
        direct, means, _ = kalman_oracle([sys.a] * len(y), sys.g, sys.q, sys.h, sys.r,
                                         sys.x0, sys.p0, y)
        states, ll = kalman_run(y, sys)
        assert ll == pytest.approx(direct, abs=1e-10)
        for st, x in zip(states, means):
            assert st.mean == pytest.approx(x, abs=1e-12)

    def test_rejects_empty_series(self):
        with pytest.raises(ShapeError):
            kalman_run([], scalar_system())

    def test_degenerate_innovation_variance(self):
        sys = scalar_system(q=0.0, r=0.0, p0=0.0)
        with pytest.raises(DegenerateSystemError):
            kalman_run([1.0, 2.0], sys)

    def test_scalar_kernel_matches_matrix_run(self):
        src = RandomSource(SEED)
        path = simulate_ou(OU_TRUE, 1.0, 0.499, 400, src)
        y = path.values[1:]
        sys = ou_state_space(OU_TRUE, 0.499, x_init=path.values[0], p0=1.0)
        states, ll = kalman_run(y, sys)
        matrix_means = np.array([st.mean[1] for st in states])

        alpha = OU_TRUE.theta * OU_TRUE.mu * 0.499
        beta = 1.0 - OU_TRUE.theta * 0.499
        means, ll_k, _, status = _kernels.kalman_ou_loop(
            y, alpha, beta, OU_TRUE.sigma**2 * 0.499, DEFAULT_MEAS_VAR,
            float(path.values[0]), 1.0,
        )
        assert status == 0
        assert ll_k == pytest.approx(ll, abs=1e-10)
        np.testing.assert_allclose(means, matrix_means, atol=1e-10)


def kalman_ou_literal(y, alpha, beta, q, r, x0, p0):
    """The reference for _kernels.kalman_ou_loop: the filter as one loop,
    carrying the derivatives of x and p in (alpha, beta, q) forward with
    them.  Same arguments and (means, ll, grad, status) as the kernel."""
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
    status = 0
    for t in range(n):
        x_pred = alpha + beta * x
        s = p_prior + r
        if s <= 0.0:
            status = 1
            break
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
    return means, ll, grad, status


def largest_finite(a):
    finite = np.abs(a[np.isfinite(a)])
    return finite.max() if finite.size else 0.0


def assert_scan_matches_literal(y, alpha, beta, q, r, x0, p0):
    """The array kernel equals the literal loop to float reordering: means,
    log-likelihood and its gradient."""
    with np.errstate(over="ignore", invalid="ignore"):
        m_ref, ll_ref, g_ref, st_ref = kalman_ou_literal(y, alpha, beta, q, r, x0, p0)
        m, ll, grad, status = _kernels.kalman_ou_loop(y, alpha, beta, q, r, x0, p0)
    assert status == st_ref
    if math.isnan(ll_ref):
        assert math.isnan(ll)
    else:
        assert ll == pytest.approx(ll_ref, rel=1e-12, abs=1e-12 * len(y))
    if status == 0:
        # a mean near zero carries the rounding of its larger terms, so the
        # absolute part of the tolerance scales with the largest mean;
        # subnormal values have no relative precision to compare
        atol = max(1e-12 * largest_finite(m_ref), np.finfo(float).tiny)
        np.testing.assert_allclose(m, m_ref, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(grad, g_ref, rtol=1e-12, atol=1e-12 * largest_finite(g_ref))
    return m, ll, grad, status


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
        y = np.array([1.0, 2.0, 3.0])
        means, ll, _, status = assert_scan_matches_literal(y, 0.3, 0.9, 0.0, 0.0, 0.7, 1.0)
        assert status == 1
        assert means[0] == 1.0  # k = 1 pins the first mean to the data
        assert ll == kalman_ou_literal(y, 0.3, 0.9, 0.0, 0.0, 0.7, 1.0)[1]

    def test_p0_and_r_zero_fail_at_first_step(self):
        _, ll, _, status = assert_scan_matches_literal(np.ones(4), 0.3, 0.9, 1.0, 0.0, 0.7, 0.0)
        assert (status, ll) == (1, 0.0)

    def test_nan_in_data_poisons_later_means_only(self):
        y = RandomSource(SEED).generator().normal(1.0, 2.0, 50)
        y[20] = np.nan
        means, ll, _, status = assert_scan_matches_literal(y, 0.3, 0.9, 1.0, 0.5, 0.7, 1.0)
        assert status == 0 and math.isnan(ll)
        assert np.isfinite(means[:20]).all() and np.isnan(means[20:]).all()

    def test_empty_series(self):
        means, ll, grad, status = _kernels.kalman_ou_loop(np.empty(0), 0.3, 0.9, 1.0, 0.5, 0.7, 1.0)
        assert (means.shape, ll, status) == ((0,), 0.0, 0)
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
            means, ll, _, status = kernel(y, alpha, beta, q, r, x0, p0)
            assert status == 0
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
        _, _, grad, status = _kernels.kalman_ou_loop(y, 0.3, beta, q, r, 0.7, p0)
        assert status == 0

        def loglik(u):
            return _kernels.kalman_ou_loop(y, u[0], u[1], u[2], r, 0.7, p0)[1]

        assert_matches_central_differences(grad, central_differences(loglik, np.array([0.3, beta, q])))

    @pytest.mark.parametrize("n, beta, q, r, p0", SCORE_CASES)
    def test_score_loop_matches_the_array_score(self, n, beta, q, r, p0):
        y = RandomSource(SEED).generator().normal(1.0, 2.0, n)
        _, ll, grad, status = kalman_ou_literal(y, 0.3, beta, q, r, 0.7, p0)
        assert status == 0
        _, want_ll, want_grad, _ = _kernels.kalman_ou_loop(y, 0.3, beta, q, r, 0.7, p0)
        assert ll == pytest.approx(want_ll, rel=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())

    @pytest.mark.parametrize("kernel", [_kernels.kalman_ou_loop, kalman_ou_literal],
                             ids=["kalman_ou_loop", "kalman_ou_literal"])
    def test_score_of_a_failed_filter(self, kernel):
        _, ll, grad, status = kernel(np.ones(4), 0.3, 0.9, 1.0, 0.0, 0.7, 0.0)
        assert (ll, status) == (0.0, 1)
        np.testing.assert_array_equal(grad, np.zeros(3))


class TestOuStateSpace:
    def test_coefficients(self):
        sys = ou_state_space(OU_TRUE, 0.499)
        assert sys.a[1, 0] == pytest.approx(0.998, rel=1e-12)  # theta*mu*dt
        assert sys.a[1, 1] == pytest.approx(0.501, rel=1e-12)  # 1 - theta*dt
        assert sys.q[0, 0] == pytest.approx(9.0 * 0.499, rel=1e-12)
        assert sys.r == DEFAULT_MEAS_VAR
        np.testing.assert_allclose(sys.h, [0.0, 1.0])
        np.testing.assert_allclose(sys.x0, [1.0, 0.0])
        np.testing.assert_allclose(sys.p0, np.diag([0.0, 1.0]))

    def test_jump_layer_inflates_process_noise(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=4.0)
        jp = JumpParams(lambda_j=0.5, mu_j=1.0, sigma_j=1.0)
        dt = 0.25
        sys = ou_state_space(p, dt, jump=jp)
        assert sys.q[0, 0] == pytest.approx(16.0 * dt + 0.5 * 1.0 * dt, rel=1e-12)

    def test_zero_theta_is_random_walk(self):
        sys = ou_state_space(OuParams(theta=0.0, mu=5.0, sigma=1.0), 0.1)
        assert sys.a[1, 0] == 0.0
        assert sys.a[1, 1] == 1.0

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
        est = np.array([st.mean[1] for st in states])
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
                est = np.array([st.mean[1] for st in states])
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
            _, ll, _, _ = kalman._ou_kalman(
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


def linear_wrap(sys: LinearStateSpace) -> NonlinearSystem:
    """Express a linear system as callables so the EKF can be cross-checked."""
    return NonlinearSystem(
        f=lambda x, t: sys.a @ x,
        h=lambda x, t: float(sys.h @ x),
        jac_a=lambda x, t: sys.a,
        jac_w=lambda x, t: sys.g,
        jac_h=lambda x, t: sys.h,
        jac_e=lambda x, t: 1.0,
        q=float(sys.q[0, 0]),
        r=sys.r,
    )


def generic_view(sys, q=1.0, r=1.0) -> NonlinearSystem:
    """An SvSystem's maps as a NonlinearSystem, which ekf_run runs through
    the generic loop."""
    return NonlinearSystem(
        f=sys.f, h=sys.h, jac_a=sys.jac_a, jac_w=sys.jac_w,
        jac_h=sys.jac_h, jac_e=sys.jac_e, q=q, r=r,
    )


class TestEkfOnLinearSystem:
    SYS = LinearStateSpace(
        a=[[0.9, 0.1], [0.0, 0.8]], g=[[1.0], [0.5]], q=[[0.3]],
        h=[1.0, 0.2], r=0.4, x0=[0.3, -0.2], p0=[[0.5, 0.1], [0.1, 0.4]],
    )

    def test_step_matches_kalman_step(self):
        st0 = GaussianState(mean=[0.4, -0.1], cov=[[0.6, 0.05], [0.05, 0.3]])
        lin = kalman_step(st0, self.SYS, 0.7)
        ext = ekf_step(st0, linear_wrap(self.SYS), 0.7)
        np.testing.assert_allclose(ext.mean, lin.mean, atol=1e-12)
        np.testing.assert_allclose(ext.cov, lin.cov, atol=1e-12)
        assert ext.innovation == pytest.approx(lin.innovation, abs=1e-12)
        assert ext.innovation_var == pytest.approx(lin.innovation_var, abs=1e-12)

    def test_run_matches_kalman_run(self):
        rng = RandomSource(SEED, stream=5).generator()
        y = rng.normal(size=30)
        lin_states, lin_ll = kalman_run(y, self.SYS)
        ext_states, ext_ll = ekf_run(
            y, linear_wrap(self.SYS), x0=self.SYS.x0, p0=self.SYS.p0
        )
        assert ext_ll == pytest.approx(lin_ll, abs=1e-12)
        for ls, es in zip(lin_states, ext_states):
            np.testing.assert_allclose(es.mean, ls.mean, atol=1e-12)
            np.testing.assert_allclose(es.cov, ls.cov, atol=1e-12)

    def test_time_varying_run_matches_exact_recursion(self):
        # A_t alternates 0.5 / 1.5: step t's prior covariance must use the
        # transition Jacobian at index t, as ekf_step and the Kalman filter do
        a_seq = [0.5 if t % 2 == 0 else 1.5 for t in range(5)]
        sys = NonlinearSystem(
            f=lambda x, t: a_seq[t] * x, h=lambda x, t: x,
            jac_a=lambda x, t: a_seq[t], jac_w=lambda x, t: 1.0,
            jac_h=lambda x, t: 1.0, jac_e=lambda x, t: 1.0, q=0.3, r=0.2,
        )
        y = np.array([0.4, -0.7, 1.1, 0.2, -0.5])
        states, ll = ekf_run(y, sys, x0=0.8, p0=0.6)
        direct, means, covs = kalman_oracle(
            [[[a]] for a in a_seq], np.eye(1), np.array([[0.3]]), np.ones(1), 0.2,
            [0.8], [[0.6]], y,
        )
        assert ll == pytest.approx(direct, abs=1e-12)
        for st, x, p in zip(states, means, covs):
            np.testing.assert_allclose(st.mean, x, atol=1e-12)
            np.testing.assert_allclose(st.cov, p, atol=1e-12)
        for t in range(1, len(y)):
            folded = ekf_step(states[t - 1], sys, y[t], t)
            np.testing.assert_array_equal(folded.mean, states[t].mean)
            np.testing.assert_array_equal(folded.cov, states[t].cov)

    def test_degenerate_innovation_variance(self):
        sys = NonlinearSystem(
            f=lambda x, t: x, h=lambda x, t: 0.0,
            jac_a=lambda x, t: 1.0, jac_w=lambda x, t: 0.0,
            jac_h=lambda x, t: 0.0, jac_e=lambda x, t: 0.0,
        )
        with pytest.raises(DegenerateSystemError):
            ekf_run([1.0], sys)


@pytest.fixture(scope="module")
def sim():
    src = RandomSource(SEED)
    lns, v = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 300, src)
    return lns, v


class TestHestonEkf:
    DT = 0.499

    def test_transition_jacobian_matches_finite_difference(self, sim):
        lns, _ = sim
        sys = heston_ekf_system(HESTON_BASE, self.DT, lns)
        rng = RandomSource(SEED, stream=7).generator()
        eps = 1e-6
        for v in rng.uniform(0.2, 3.0, size=10):
            fd = (sys.f(v + eps, 3) - sys.f(v - eps, 3)) / (2 * eps)
            assert sys.jac_a(v, 3) == pytest.approx(fd, rel=1e-7)
            fd_h = (sys.h(v + eps, 3) - sys.h(v - eps, 3)) / (2 * eps)
            assert sys.jac_h(v, 3) == pytest.approx(fd_h, rel=1e-7)

    def test_noise_loadings(self, sim):
        lns, _ = sim
        sys = heston_ekf_system(HESTON_BASE, self.DT, lns)
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
        sys = heston_ekf_system(HESTON_BASE, self.DT, lns)
        v_prev, p_prev = 1.2, 0.8
        st = ekf_step(GaussianState(mean=[v_prev], cov=[[p_prev]]), sys, dl[0], t=0)
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
        g_states, g_ll = ekf_run(dl, generic_view(sys), x0=1.0, p0=1.0)
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

    def test_objective_discriminates_doubled_theta_v(self):
        # a run whose posterior variance collapses under the wrong params is
        # not counted as a win; 10 seeds, at most 2 may fail to discriminate
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
            wins += o_true < o_dbl
        assert wins >= 8

    def test_bates_system_uses_compensated_drift(self, sim):
        lns, _ = sim
        bp = BatesParams(heston=HESTON_BASE, lam=10.0, jump_size=0.1)
        sys_b = bates_ekf_system(bp, self.DT, lns)
        sys_h = heston_ekf_system(HESTON_BASE, self.DT, lns)
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
        (record,) = experiments._records(sc)
        build = heston_ekf_system if sc.model == "heston" else bates_ekf_system
        sys = build(record, sc.dt, lns)
        dl = log_returns(lns)
        x0, p0 = sc.option("v0_guess"), sc.option("p0")
        v_post, p_post, _, _, ll = kalman._heston_ekf(dl, sys, x0, p0)
        states, run_ll = ekf_run(dl, sys, x0=x0, p0=p0)
        assert len(states) == len(dl) == sc.n_steps
        assert run_ll == ll
        assert all(s.mean.shape == (1,) and s.cov.shape == (1, 1) for s in states)
        assert np.array([s.mean[0] for s in states]).tobytes() == v_post[1:].tobytes()
        assert np.array([s.cov[0, 0] for s in states]).tobytes() == p_post[1:].tobytes()
        assert all(s.innovation is None and s.gain is None for s in states)


@pytest.fixture(scope="module")
def heston_run(sim):
    lns, _ = sim
    dl = log_returns(lns)
    sys = heston_ekf_system(HESTON_BASE, 0.499, lns)
    return dl, sys


class TestEkfLogLikelihood:
    def test_zero_objective_identity_example(self):
        # identity transition, constant observation, unit noises: every step
        # contributes ln(1) + 0 when the measurement equals the prediction
        sys = NonlinearSystem(
            f=lambda x, t: x, h=lambda x, t: 4.2,
            jac_a=lambda x, t: 1.0, jac_w=lambda x, t: 0.0,
            jac_h=lambda x, t: 0.0, jac_e=lambda x, t: 1.0,
        )
        val = ekf_log_likelihood([4.2, 4.2, 4.2], sys, x0=0.0, p0=1.0)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_matches_recomputation_from_states(self, heston_run):
        dl, sys = heston_run
        states, _ = ekf_run(dl, generic_view(sys), x0=1.0, p0=1.0)
        manual = sum(
            math.log(st.cov[0, 0]) + st.innovation**2 / st.cov[0, 0] for st in states
        )
        assert ekf_log_likelihood(dl, sys) == pytest.approx(manual, rel=1e-9)

    def test_gaussian_matches_run_likelihood(self, heston_run):
        dl, sys = heston_run
        _, ll = ekf_run(dl, sys, x0=1.0, p0=1.0)
        got = ekf_log_likelihood(dl, sys, objective="gaussian")
        assert got == pytest.approx(ll, rel=1e-12)

    def test_kernel_and_generic_agree(self, heston_run):
        dl, sys = heston_run
        generic = NonlinearSystem(
            f=sys.f, h=sys.h, jac_a=sys.jac_a, jac_w=sys.jac_w,
            jac_h=sys.jac_h, jac_e=sys.jac_e, q=sys.q, r=sys.r,
        )
        assert ekf_log_likelihood(dl, sys) == pytest.approx(
            ekf_log_likelihood(dl, generic), rel=1e-9
        )
        assert ekf_log_likelihood(dl, sys, objective="gaussian") == pytest.approx(
            ekf_log_likelihood(dl, generic, objective="gaussian"), rel=1e-9
        )

    @pytest.mark.parametrize("noise", [{"q": 4.0}, {"r": 4.0}])
    def test_non_unit_noise_runs_generic_loop(self, noise):
        # the kernel fixes q = r = 1, so an SvSystem cannot take other noise
        # loadings; its maps in a NonlinearSystem with them run the generic loop
        p = HestonParams(mu_s=0.04, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)
        lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 200, RandomSource(7))
        dl = log_returns(lns)
        sys = heston_ekf_system(p, lns.dt, lns)
        with pytest.raises(TypeError):
            replace(sys, **noise)
        view = generic_view(sys, **noise)
        states, ll = ekf_run(dl, view)
        assert states[0].innovation is not None  # only the generic loop records it
        assert ekf_log_likelihood(dl, view, objective="gaussian") == ll
        manual = sum(math.log(st.cov[0, 0]) + st.innovation**2 / st.cov[0, 0] for st in states)
        assert ekf_log_likelihood(dl, view) == pytest.approx(manual, rel=1e-12)
        assert ll != pytest.approx(ekf_run(dl, sys)[1], rel=1e-6)

    def test_replaced_map_is_refused_not_ignored(self):
        # an SvSystem is one description: a replaced map cannot go unseen by
        # the kernel, which would return the unmodified model's likelihood
        p = HestonParams(mu_s=0.04, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)
        lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 200, RandomSource(3))
        dl = log_returns(lns)
        sys = heston_ekf_system(p, 0.499, lns)

        def halve(v, t):
            return 0.5 * v

        with pytest.raises(TypeError):
            replace(sys, f=halve)
        with pytest.raises(DegenerateSystemError):
            ekf_run(dl, replace(generic_view(sys), f=halve))

    def test_rejects_unknown_objective(self, heston_run):
        dl, sys = heston_run
        with pytest.raises(DomainError):
            ekf_log_likelihood(dl, sys, objective="mse")

    def test_quadratic_needs_scalar_state(self):
        sys2 = LinearStateSpace(
            a=np.eye(2), g=[[1.0], [0.0]], q=[[1.0]], h=[1.0, 0.0],
            r=1.0, x0=[0.0, 0.0], p0=np.eye(2),
        )
        with pytest.raises(ShapeError):
            ekf_log_likelihood([0.5], linear_wrap(sys2), x0=sys2.x0, p0=sys2.p0)


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
            st = kalman_step(
                GaussianState(mean=[rng.normal()], cov=[[p_prev]]), sys, rng.normal()
            )
            p_prior = a * a * p_prev + q

            def post_var(k):
                return p_prior - 2.0 * k * h * p_prior + k * k * (h * h * p_prior + r)

            k_star = float(st.gain[0])
            assert post_var(k_star) == pytest.approx(st.cov[0, 0], rel=1e-10)
            assert post_var(1.1 * k_star) > st.cov[0, 0]
            assert post_var(0.9 * k_star) > st.cov[0, 0]


class TestCovarianceStaysPsd:
    def test_long_random_run(self):
        sys = LinearStateSpace(
            a=[[0.95, 0.2], [-0.1, 0.85]], g=[[1.0], [0.3]], q=[[0.2]],
            h=[1.0, -0.4], r=0.3, x0=[0.0, 0.0], p0=np.eye(2),
        )
        rng = RandomSource(SEED, stream=23).generator()
        st = GaussianState(mean=sys.x0, cov=sys.p0)
        for y in rng.normal(size=2500):
            st = kalman_step(st, sys, y)
            assert np.linalg.eigvalsh(st.cov).min() >= -1e-10


class TestNonFiniteSeries:
    """Each public filter and fit names the first non-finite entry it is given."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [
        "estimate_mle", "estimate_kalman", "kalman_run", "ekf_run", "ekf_run_generic",
        "ekf_log_likelihood", "log_likelihood",
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
            "ekf_run_generic": lambda: ekf_run(dl, generic_view(sv)),
            "ekf_log_likelihood": lambda: ekf_log_likelihood(dl, sv),
            "log_likelihood": lambda: log_likelihood(ou, ou_density, OU_TRUE),
        }
        index = 2 if entry == "kalman_run" else 3
        with pytest.raises(DomainError, match=f"value at index {index} is not finite$"):
            calls[entry]()

    @pytest.mark.parametrize("entry", [
        "ekf_run", "ekf_run_generic", "ekf_log_likelihood", "ekf_log_likelihood_gaussian",
    ])
    @pytest.mark.parametrize("start, message", [
        ({"x0": np.nan}, "x0 must be finite"),
        ({"x0": np.inf}, "x0 must be finite"),
        ({"p0": np.nan}, "P0 must be finite"),
        ({"p0": np.inf}, "P0 must be finite"),
        ({"p0": -1.0}, "P0 must be >= 0"),
    ], ids=["x0_nan", "x0_inf", "p0_nan", "p0_inf", "p0_negative"])
    def test_bad_initial_values_rejected_before_any_warning(self, sim, entry, start, message):
        lns, _ = sim
        dl = log_returns(lns)[:40]
        sv = heston_ekf_system(HESTON_BASE, 0.499, lns)
        calls = {
            "ekf_run": lambda: ekf_run(dl, sv, **start),
            "ekf_run_generic": lambda: ekf_run(dl, generic_view(sv), **start),
            "ekf_log_likelihood": lambda: ekf_log_likelihood(dl, sv, **start),
            "ekf_log_likelihood_gaussian": lambda: ekf_log_likelihood(
                dl, sv, objective="gaussian", **start),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{message}$"):
                calls[entry]()

    def test_matrix_p0_must_be_positive_semidefinite(self):
        sys = linear_wrap(TestEkfOnLinearSystem.SYS)
        with pytest.raises(DomainError, match="^P0 must be positive semidefinite$"):
            ekf_run([0.1, 0.2], sys, x0=[0.0, 0.0], p0=[[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(DomainError, match="^P0 must be symmetric$"):
            ekf_run([0.1, 0.2], sys, x0=[0.0, 0.0], p0=[[1.0, 0.5], [0.0, 1.0]])


class TestFilterInputs:
    """kalman._filter_inputs, the one input check of every EKF and particle entry."""

    def test_returns_the_measurements_as_a_float_array(self):
        path = Path(t0=0.0, dt=0.5, values=np.array([0.1, -0.2, 0.3]))
        np.testing.assert_array_equal(kalman._filter_inputs(path, 0.0, 1.0), path.values)
        y = kalman._filter_inputs([1, 2, 3], 0.0, 1.0)
        assert y.dtype == float and y.shape == (3,)
        np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("series", [[], [[0.1, 0.2], [0.3, 0.4]]], ids=["empty", "two_dim"])
    def test_rejects_series_without_one_dim_measurements(self, series):
        with pytest.raises(ShapeError, match="^series must hold at least one measurement$"):
            kalman._filter_inputs(series, 0.0, 1.0)

    def test_names_the_initial_value(self):
        with pytest.raises(DomainError, match="^v0_guess must be finite$"):
            kalman._filter_inputs([0.1, 0.2], np.nan, 1.0, "v0_guess")
        with pytest.raises(DomainError, match="^x0 must be finite$"):
            kalman._filter_inputs([0.1, 0.2], [0.0, np.inf], np.eye(2))
