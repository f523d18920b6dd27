import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sdefl import _kernels, models
from sdefl.core import (
    STREAM_JUMP_TRIGGER,
    DegenerateSystemError,
    DomainError,
    RandomSource,
    normal_cdf,
)
from sdefl.experiments import _flatten_params
from sdefl.models import (
    FELLER_WARNING,
    MODELS,
    BatesParams,
    BkParams,
    HestonParams,
    JumpParams,
    OuParams,
    jump_threshold,
    simulate_bates,
    simulate_bk,
    simulate_heston,
    simulate_ou,
    simulate_ou_jump,
)

SEED = 2024061


class TestParams:
    def test_ou_rejects_negative_sigma(self):
        with pytest.raises(DomainError):
            OuParams(theta=1.0, mu=0.0, sigma=-0.1)

    def test_ou_rejects_negative_theta(self):
        with pytest.raises(DomainError):
            OuParams(theta=-1.0, mu=0.0, sigma=1.0)

    def test_ou_allows_zero_theta_and_sigma(self):
        OuParams(theta=0.0, mu=2.0, sigma=0.0)

    def test_jump_rejects_negative_intensity(self):
        with pytest.raises(DomainError):
            JumpParams(lambda_j=-0.5, mu_j=0.0, sigma_j=1.0)

    def test_bk_requires_positive_alpha(self):
        with pytest.raises(DomainError):
            BkParams(theta=1.0, alpha=0.0, sigma=0.5)

    def test_heston_rho_bounds(self):
        with pytest.raises(DomainError):
            HestonParams(mu_s=0.0, kappa=1.0, theta_v=0.1, xi=0.1, rho=-1.5)

    def test_heston_rejects_nonpositive_kappa(self):
        with pytest.raises(DomainError):
            HestonParams(mu_s=0.0, kappa=0.0, theta_v=0.1, xi=0.1, rho=0.0)

    def test_feller_flag(self):
        ok = HestonParams(mu_s=0.0, kappa=2.0, theta_v=0.1, xi=0.3, rho=0.0)
        bad = HestonParams(mu_s=0.0, kappa=0.3, theta_v=0.04, xi=0.6, rho=-0.6)
        assert ok.feller_ok()
        assert not bad.feller_ok()

    def test_bates_jump_size_range(self):
        h = HestonParams(mu_s=0.1, kappa=1.0, theta_v=0.1, xi=0.1, rho=0.0)
        with pytest.raises(DomainError):
            BatesParams(heston=h, lam=1.0, jump_size=1.0)
        with pytest.raises(DomainError):
            BatesParams(heston=h, lam=1.0, jump_size=-0.1)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            OuParams(theta=float("nan"), mu=0.0, sigma=1.0)

    def test_grid_validation(self):
        p = OuParams(theta=1.0, mu=0.0, sigma=1.0)
        src = RandomSource(SEED)
        with pytest.raises(DomainError):
            simulate_ou(p, 0.0, 0.0, 10, src)
        with pytest.raises(DomainError):
            simulate_ou(p, 0.0, 0.1, 0, src)

    @pytest.mark.parametrize("model", list(MODELS))
    def test_pack_keeps_the_field_order(self, model):
        # distinct values inside every record's domain (rho <= 1, jump_size < 1)
        fields = MODELS[model].fields
        v = np.arange(1, len(fields) + 1) / 10.0
        flat = {}
        _flatten_params(MODELS[model].pack(v), flat)
        assert list(flat) == list(fields)
        assert list(flat.values()) == list(v)
        assert all(type(x) is float for x in flat.values())


class TestOu:
    def test_deterministic_limit_matches_recursion(self):
        # sigma=0 collapses Euler to x_{k+1} = x_k + theta*(mu - x_k)*dt,
        # whose closed form is mu + (x0 - mu)*(1 - theta*dt)^k
        p = OuParams(theta=1.3, mu=2.0, sigma=0.0)
        path = simulate_ou(p, 5.0, 0.05, 200, RandomSource(SEED))
        k = np.arange(201)
        expected = 2.0 + 3.0 * (1.0 - 1.3 * 0.05) ** k
        np.testing.assert_allclose(path.values, expected, rtol=1e-12)

    def test_constant_when_theta_and_sigma_zero(self):
        p = OuParams(theta=0.0, mu=7.0, sigma=0.0)
        path = simulate_ou(p, 3.5, 0.1, 50, RandomSource(SEED))
        assert np.all(path.values == 3.5)

    def test_mean_reverts_to_mu(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=0.3)
        path = simulate_ou(p, 10.0, 0.01, 100_000, RandomSource(SEED))
        tail = path.values[20_000:]
        assert abs(tail.mean() - 2.0) < 0.1

    def test_stationary_variance(self):
        # long-run variance of the Euler chain: sigma^2*dt/(1-beta^2) with
        # beta = 1-theta*dt; close to sigma^2/(2*theta) for small dt
        p = OuParams(theta=1.0, mu=0.0, sigma=1.0)
        dt = 0.01
        path = simulate_ou(p, 0.0, dt, 200_000, RandomSource(SEED))
        beta = 1.0 - p.theta * dt
        target = p.sigma**2 * dt / (1.0 - beta**2)
        sample = path.values[5_000:].var()
        assert abs(sample - target) / target < 0.1

    def test_determinism_and_stream_sensitivity(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=3.0)
        a = simulate_ou(p, 0.0, 0.5, 100, RandomSource(SEED))
        b = simulate_ou(p, 0.0, 0.5, 100, RandomSource(SEED))
        c = simulate_ou(p, 0.0, 0.5, 100, RandomSource(SEED, stream=1))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_path_metadata(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=3.0)
        src = RandomSource(SEED)
        path = simulate_ou(p, 1.0, 0.499, 1000, src)
        assert len(path) == 1001
        assert path.dt == 0.499
        assert path.t0 == 0.0
        assert path.seed == src
        assert path.values[0] == 1.0

    def test_strong_convergence_rate(self):
        # Euler strong error ~O(dt): halving dt should roughly halve the
        # gap between consecutive refinements driven by a shared Brownian path
        p = OuParams(theta=1.5, mu=0.0, sigma=1.0)
        n_paths, n_coarse = 400, 64
        dt = 0.125
        rng = RandomSource(SEED, stream=9).generator()
        gaps = []
        z_fine = rng.normal(size=(n_paths, 4 * n_coarse))
        for level in range(2):
            f = 2**level
            z_lo = z_fine.reshape(n_paths, -1, 4 // f).sum(axis=2) / math.sqrt(4 // f)
            z_hi = z_fine.reshape(n_paths, -1, 2 // f).sum(axis=2) / math.sqrt(2 // f) if f < 2 else z_fine
            lo = np.array([_kernels.ou_path(1.0, p.theta, p.mu, p.sigma, dt / f, z_lo[i])[-1] for i in range(n_paths)])
            hi = np.array([_kernels.ou_path(1.0, p.theta, p.mu, p.sigma, dt / (2 * f), z_hi[i])[-1] for i in range(n_paths)])
            gaps.append(np.abs(lo - hi).mean())
        ratio = gaps[0] / gaps[1]
        assert 1.5 < ratio < 3.0


class TestOuJump:
    def test_zero_size_jumps_match_plain_ou(self):
        p = OuParams(theta=1.0, mu=2.0, sigma=3.0)
        j = JumpParams(lambda_j=2.0, mu_j=0.0, sigma_j=0.0)
        plain = simulate_ou(p, 0.0, 0.5, 500, RandomSource(SEED))
        jumped = simulate_ou_jump(p, j, 0.0, 0.5, 500, RandomSource(SEED))
        assert np.array_equal(plain.values, jumped.values)

    def test_jump_count_matches_trigger_probability(self):
        # theta=sigma=0 isolates the jumps: each fired step adds exactly mu_j
        p = OuParams(theta=0.0, mu=0.0, sigma=0.0)
        j = JumpParams(lambda_j=1.0, mu_j=5.0, sigma_j=0.0)
        dt, n = 0.5, 20_000
        path = simulate_ou_jump(p, j, 0.0, dt, n, RandomSource(SEED))
        fired = np.diff(path.values) != 0.0
        p_fire = normal_cdf(j.lambda_j * dt)
        sd = math.sqrt(n * p_fire * (1.0 - p_fire))
        assert abs(fired.sum() - n * p_fire) < 4.0 * sd
        steps = np.diff(path.values)[fired]
        assert np.all(steps == 5.0)

    def test_conventions_differ(self):
        assert jump_threshold(1.2, 0.5, "cdf_dt") == 0.6
        assert jump_threshold(1.2, 0.5, "cdf_raw") == 1.2
        p = OuParams(theta=0.0, mu=0.0, sigma=0.0)
        j = JumpParams(lambda_j=1.2, mu_j=1.0, sigma_j=0.0)
        a = simulate_ou_jump(p, j, 0.0, 0.5, 5000, RandomSource(SEED), convention="cdf_dt")
        b = simulate_ou_jump(p, j, 0.0, 0.5, 5000, RandomSource(SEED), convention="cdf_raw")
        assert (np.diff(a.values) != 0).sum() < (np.diff(b.values) != 0).sum()

    def test_bad_convention_rejected(self):
        p = OuParams(theta=1.0, mu=0.0, sigma=1.0)
        j = JumpParams(lambda_j=1.0, mu_j=0.0, sigma_j=1.0)
        with pytest.raises(DomainError):
            simulate_ou_jump(p, j, 0.0, 0.5, 10, RandomSource(SEED), convention="per_step")

    def test_jump_sizes_use_own_stream(self):
        # changing sigma_j must not alter which steps fire
        p = OuParams(theta=0.0, mu=0.0, sigma=0.0)
        a = simulate_ou_jump(p, JumpParams(1.0, 10.0, 0.0), 0.0, 0.5, 2000, RandomSource(SEED))
        b = simulate_ou_jump(p, JumpParams(1.0, 10.0, 0.5), 0.0, 0.5, 2000, RandomSource(SEED))
        assert np.array_equal(np.diff(a.values) != 0, np.diff(b.values) != 0)


class TestBk:
    def test_rates_stay_positive(self):
        p = BkParams(theta=1.0, alpha=0.8, sigma=0.6)
        path = simulate_bk(p, 2.0, 1.0, 5000, RandomSource(SEED))
        assert np.all(path.values > 0.0)

    def test_constant_at_log_equilibrium(self):
        # sigma=0 and theta = alpha*ln(r0) pins ln r at its fixed point
        r0 = 2.5
        p = BkParams(theta=0.8 * math.log(r0), alpha=0.8, sigma=0.0)
        path = simulate_bk(p, r0, 0.5, 100, RandomSource(SEED))
        np.testing.assert_allclose(path.values, r0, rtol=1e-12)

    def test_log_mean_reverts_to_theta_over_alpha(self):
        p = BkParams(theta=1.0, alpha=0.8, sigma=0.3)
        path = simulate_bk(p, 1.0, 0.05, 100_000, RandomSource(SEED))
        log_tail = np.log(path.values[10_000:])
        assert abs(log_tail.mean() - 1.0 / 0.8) < 0.05

    def test_requires_positive_r0(self):
        p = BkParams(theta=1.0, alpha=0.8, sigma=0.6)
        with pytest.raises(DomainError):
            simulate_bk(p, 0.0, 1.0, 10, RandomSource(SEED))

    def test_rate_overflow_names_the_step(self):
        # sigma = 0 and alpha near 0: ln r climbs by about 100 a step and
        # passes ln(float max) = 709.78 at index 8, the state after step 7
        p = BkParams(theta=100.0, alpha=1e-12, sigma=0.0)
        with pytest.raises(DegenerateSystemError, match=r"^ln r leaves the floats at step 7 "):
            simulate_bk(p, 1.0, 1.0, 20, RandomSource(SEED))
        assert simulate_bk(p, 1.0, 1.0, 7, RandomSource(SEED)).values[-1] > 1e300

    def test_overflow_bound_is_where_math_exp_overflows(self):
        assert math.isfinite(math.exp(models._LN_FLOAT_MAX))
        with pytest.raises(OverflowError):
            math.exp(np.nextafter(models._LN_FLOAT_MAX, np.inf))


class TestHeston:
    def _params(self, **kw):
        base = dict(mu_s=0.04, kappa=2.0, theta_v=0.04, xi=0.2, rho=-0.5)
        base.update(kw)
        return HestonParams(**base)

    def test_deterministic_variance_when_xi_zero(self):
        p = self._params(xi=0.0)
        _, v = simulate_heston(p, 100.0, 0.09, 0.01, 300, RandomSource(SEED))
        expected = np.empty(301)
        expected[0] = 0.09
        for k in range(300):
            expected[k + 1] = expected[k] + p.kappa * (p.theta_v - expected[k]) * 0.01
        np.testing.assert_allclose(v.values, expected, rtol=1e-12)

    def test_reported_variance_nonnegative(self):
        p = self._params(kappa=0.3, theta_v=0.04, xi=0.9)
        _, v = simulate_heston(p, 100.0, 0.01, 0.1, 5000, RandomSource(SEED))
        assert np.all(v.values >= 0.0)

    def test_feller_warning_recorded(self):
        bad = self._params(kappa=0.3, theta_v=0.04, xi=0.6)
        lns, v = simulate_heston(bad, 100.0, 0.04, 0.01, 10, RandomSource(SEED))
        assert FELLER_WARNING in lns.warnings
        assert FELLER_WARNING in v.warnings
        ok = self._params()
        lns2, _ = simulate_heston(ok, 100.0, 0.04, 0.01, 10, RandomSource(SEED))
        assert lns2.warnings == ()

    def test_variance_mean_tracks_relaxation(self):
        # ensemble mean of v_t follows theta_v + (v0-theta_v)e^(-kappa t)
        p = self._params(kappa=1.5, theta_v=0.04, xi=0.2)
        n, dt, m = 500, 0.001, 400
        finals = np.empty(m)
        for i in range(m):
            _, v = simulate_heston(p, 100.0, 0.16, dt, n, RandomSource(SEED, stream=100 + i))
            finals[i] = v.values[-1]
        t = n * dt
        expected = p.theta_v + (0.16 - p.theta_v) * math.exp(-p.kappa * t)
        sd = finals.std(ddof=1) / math.sqrt(m)
        assert abs(finals.mean() - expected) < 4.0 * sd + 0.002

    def test_perfect_correlation_uses_single_shock(self):
        # rho=1 makes the variance shock identical to the price shock
        p = self._params(rho=1.0, xi=0.2)
        src = RandomSource(SEED)
        lns, v = simulate_heston(p, 100.0, 0.04, 0.01, 200, src)
        z1 = src.substream(1).normals(200)
        z2 = src.substream(2).normals(200)
        exp_lns, exp_v = _kernels.heston_paths(
            math.log(100.0), 0.04, p.mu_s, p.kappa, p.theta_v, p.xi, p.rho, 0.01,
            z1, z2, np.zeros(200))
        assert np.array_equal(lns.values, exp_lns)
        assert np.array_equal(v.values, exp_v)
        # and z2 is irrelevant at rho=1
        alt_lns, _ = _kernels.heston_paths(
            math.log(100.0), 0.04, p.mu_s, p.kappa, p.theta_v, p.xi, p.rho, 0.01, z1,
            np.zeros(200), np.zeros(200))
        np.testing.assert_allclose(lns.values, alt_lns, rtol=1e-12)

    def test_reported_variance_is_the_raw_state_clipped_bitwise(self):
        # the reported path is max(v, 0.0) of the raw state per entry: a v0 = -0.0
        # start stays -0.0, and the negative raw states report 0.0
        p = self._params(kappa=0.3, theta_v=0.04, xi=0.9)
        src = RandomSource(SEED)
        _, v = simulate_heston(p, 100.0, -0.0, 0.1, 500, src)
        _, raw = _kernels.heston_paths(
            math.log(100.0), -0.0, p.mu_s, p.kappa, p.theta_v, p.xi, p.rho, 0.1,
            src.substream(1).normals(500), src.substream(2).normals(500), np.zeros(500))
        assert np.any(raw < 0.0)
        assert v.values.tobytes() == np.array([max(x, 0.0) for x in raw.tolist()]).tobytes()
        assert math.copysign(1.0, v.values[0]) == -1.0

    @pytest.mark.parametrize("jumps", [False, True], ids=["heston", "bates"])
    def test_variance_overflow_names_the_step(self, jumps):
        # kappa * dt = 5e299: v is 2.5e299 at index 2 and -inf at index 3,
        # which the clipped path used to report as 0.0 from then on, with
        # the log price frozen at -6.3e298 and no error
        p = HestonParams(0.04, 1e300, 1.5, 0.6, 0.04)
        simulate = (lambda *a: simulate_bates(BatesParams(p, 0.0, 0.0), *a)) if jumps else (
            lambda *a: simulate_heston(p, *a))
        with pytest.raises(DegenerateSystemError, match=(
                r"^ln S or v leaves the floats at step 2 \(ln S = -6.31142349679117e\+298, v = -inf\)$")):
            simulate(100.0, 1.5, 0.499, 20, RandomSource(1))
        _, v = simulate(100.0, 1.5, 0.499, 2, RandomSource(1))
        assert v.values[-1] == pytest.approx(2.53e299, rel=1e-3)

    def test_time_average_near_long_run_variance(self):
        p = self._params(kappa=3.0, theta_v=0.04, xi=0.3)
        _, v = simulate_heston(p, 100.0, 0.04, 0.01, 200_000, RandomSource(SEED))
        assert abs(v.values.mean() - 0.04) / 0.04 < 0.15


class TestBates:
    def _params(self, lam=10.0, jump_size=0.1, **kw):
        base = dict(mu_s=0.3, kappa=2.0, theta_v=0.04, xi=0.2, rho=-0.5)
        base.update(kw)
        return BatesParams(heston=HestonParams(**base), lam=lam, jump_size=jump_size)

    def test_zero_intensity_matches_heston_bitwise(self):
        b = self._params(lam=0.0)
        lns_b, v_b = simulate_bates(b, 100.0, 0.04, 0.01, 1000, RandomSource(SEED))
        lns_h, v_h = simulate_heston(b.heston, 100.0, 0.04, 0.01, 1000, RandomSource(SEED))
        assert np.array_equal(lns_b.values, lns_h.values)
        assert np.array_equal(v_b.values, v_h.values)

    def test_zero_size_matches_heston_bitwise(self):
        b = self._params(lam=5.0, jump_size=0.0)
        lns_b, _ = simulate_bates(b, 100.0, 0.04, 0.01, 1000, RandomSource(SEED))
        lns_h, _ = simulate_heston(b.heston, 100.0, 0.04, 0.01, 1000, RandomSource(SEED))
        assert np.array_equal(lns_b.values, lns_h.values)

    def test_jumps_shift_log_price_by_cumulative_jump_term(self):
        b = self._params(lam=10.0, jump_size=0.1)
        dt, n = 0.01, 2000
        src = RandomSource(SEED)
        lns_b, v_b = simulate_bates(b, 100.0, 0.04, dt, n, src)
        # same diffusion with the compensated drift but no jumps
        shifted = HestonParams(
            mu_s=b.mu_eff, kappa=2.0, theta_v=0.04, xi=0.2, rho=-0.5)
        lns_h, v_h = simulate_heston(shifted, 100.0, 0.04, dt, n, src)
        counts = src.substream(STREAM_JUMP_TRIGGER).poissons(b.lam * dt, n)
        jump_cum = np.concatenate([[0.0], np.cumsum(math.log1p(-0.1) * counts)])
        np.testing.assert_allclose(lns_b.values - lns_h.values, jump_cum, atol=1e-9)
        assert np.array_equal(v_b.values, v_h.values)

    def test_jump_count_distribution(self):
        b = self._params(lam=10.0, jump_size=0.1)
        dt, n = 0.01, 50_000
        counts = RandomSource(SEED).substream(STREAM_JUMP_TRIGGER).poissons(b.lam * dt, n)
        lam_total = b.lam * dt * n
        assert abs(counts.sum() - lam_total) < 4.0 * math.sqrt(lam_total)

    def test_rate_numpy_cannot_draw_is_a_domain_error(self):
        b = self._params(lam=1.0)
        for dt in (np.nextafter(models._POISSON_LAM_MAX, np.inf), 1e308):
            with pytest.raises(DomainError, match="exceeds numpy's largest Poisson rate"):
                simulate_bates(b, 100.0, 0.04, dt, 10, RandomSource(SEED))

    def test_poisson_bound_is_numpys(self):
        gen = np.random.default_rng(SEED)
        gen.poisson(models._POISSON_LAM_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            gen.poisson(np.nextafter(models._POISSON_LAM_MAX, np.inf))

    def test_effective_drift(self):
        b = self._params(lam=10.0, jump_size=0.1)
        assert b.mu_eff == pytest.approx(0.3 + 1.0)


class TestKernelBackends:
    def test_numpy_backend_subprocess_identical(self):
        # a fresh interpreter simulates the same bytes as this one
        code = (
            "from sdefl import _kernels\n"
            "from sdefl.core import RandomSource\n"
            "from sdefl.models import OuParams, simulate_ou\n"
            "assert _kernels.backend_name() == 'numpy'\n"
            "p = OuParams(theta=1.0, mu=2.0, sigma=3.0)\n"
            "path = simulate_ou(p, 0.0, 0.499, 1000, RandomSource(2024061))\n"
            "print(repr(float(path.values[-1])))\n"
            "print(repr(float(path.values.sum())))\n"
        )
        # the child imports the same sdefl as this process
        root = os.path.dirname(os.path.dirname(_kernels.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=path))
        assert r.returncode == 0, r.stderr
        here = simulate_ou(OuParams(theta=1.0, mu=2.0, sigma=3.0), 0.0, 0.499, 1000,
                           RandomSource(2024061)).values
        assert r.stdout == f"{float(here[-1])!r}\n{float(here.sum())!r}\n"
