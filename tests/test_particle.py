import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sdefl.core import (
    STREAM_PF_INIT,
    STREAM_PF_PROPOSAL,
    STREAM_PF_RESAMPLE,
    DegeneracyError,
    DomainError,
    Path,
    RandomSource,
    ShapeError,
    rmse,
)
from sdefl.experiments import load_scenario
from sdefl.kalman import (
    LinearStateSpace,
    NonlinearSystem,
    bates_ekf_system,
    ekf_run,
    heston_ekf_system,
    kalman_run,
    log_returns,
)
from sdefl.models import MODELS, BatesParams, HestonParams, simulate_bates, simulate_heston
from sdefl import _kernels
from sdefl.particle import (
    STD_FLOOR,
    ProposalDensities,
    WeightContext,
    bates_densities,
    heston_densities,
    particle_ekf_run,
    particle_run,
)

SEED = 2024061

HESTON_BASE = HestonParams(mu_s=0.05, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)


def random_walk_system(q=0.3, r=0.5, a=1.0):
    """Scalar linear system expressed through the nonlinear interface."""
    return NonlinearSystem(
        f=lambda x, t: a * x,
        h=lambda x, t: x,
        jac_a=lambda x, t: a * np.ones_like(np.asarray(x, dtype=float)),
        jac_w=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        jac_h=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        jac_e=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        q=q,
        r=r,
    )


def linear_densities(q=0.3, r=0.5, a=1.0):
    sq, sr = math.sqrt(q), math.sqrt(r)

    def p_obs(ctx):
        z = (ctx.y - ctx.x_new) / sr
        return np.exp(-0.5 * z * z) / (sr * math.sqrt(2 * math.pi))

    def p_trans(ctx):
        z = (ctx.x_new - a * ctx.x_prev) / sq
        return np.exp(-0.5 * z * z) / (sq * math.sqrt(2 * math.pi))

    def prop(ctx):
        std = np.maximum(np.sqrt(ctx.ekf_var), STD_FLOOR)
        z = (ctx.x_new - ctx.ekf_mean) / std
        return np.exp(-0.5 * z * z) / (std * math.sqrt(2 * math.pi))

    return ProposalDensities(p_obs=p_obs, p_trans=p_trans, q=prop)


def recording(dens, contexts):
    """dens, appending every WeightContext it is shown to contexts."""

    def p_obs(ctx):
        contexts.append(ctx)
        return dens.p_obs(ctx)

    return ProposalDensities(p_obs=p_obs, p_trans=dens.p_trans, q=dens.q)


def flat_densities():
    """Uninformative observation; the proposal correction cancels exactly."""
    dens = linear_densities()
    return ProposalDensities(
        p_obs=lambda ctx: np.ones_like(ctx.x_new), p_trans=dens.p_trans, q=dens.p_trans
    )


class TestParticleRun:
    Y = [0.2, -0.5, 1.4, 0.0, 0.7]

    def test_validation(self):
        sys, dens = random_walk_system(), linear_densities()
        with pytest.raises(ShapeError):
            particle_run(self.Y, sys, dens, 0, RandomSource(SEED))
        with pytest.raises(DomainError):
            particle_run(self.Y, sys, dens, 4, RandomSource(SEED), p0=-1.0)

    def test_zero_spread(self):
        # with q = 0 the step-0 EKF variances are zero only if P0 reached every particle
        ctxs = []
        est, _ = particle_run(
            self.Y, random_walk_system(q=0.0), recording(flat_densities(), ctxs),
            16, RandomSource(SEED), x0=2.5, p0=0.0,
        )
        assert est[0] == 2.5
        assert np.all(ctxs[0].x_prev == 2.5)
        assert np.all(ctxs[0].ekf_var == 0.0)

    def test_unit_variance_concentration(self):
        ctxs = []
        particle_run(
            self.Y[:1], random_walk_system(), recording(linear_densities(), ctxs),
            1000, RandomSource(SEED), x0=0.0, p0=1.0,
        )
        assert abs(ctxs[0].x_prev.var() - 1.0) <= 0.15

    def test_deterministic(self):
        sys, dens = random_walk_system(), linear_densities()
        a = particle_run(self.Y, sys, dens, 50, RandomSource(SEED), x0=1.0, p0=2.0)
        b = particle_run(self.Y, sys, dens, 50, RandomSource(SEED), x0=1.0, p0=2.0)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_uninformative_observation_keeps_weights_uniform(self):
        ctxs = []
        est, _ = particle_run(
            self.Y, random_walk_system(), recording(flat_densities(), ctxs),
            64, RandomSource(SEED), x0=0.0,
        )
        for t, ctx in enumerate(ctxs):
            assert est[t + 1] == pytest.approx(ctx.x_new.mean(), rel=1e-12, abs=1e-15)

    def test_single_particle_weight_is_one(self):
        ctxs = []
        est, _ = particle_run(
            [-2.0, 0.4], random_walk_system(), recording(linear_densities(), ctxs),
            1, RandomSource(SEED), x0=0.3, p0=0.5,
        )
        assert list(est[1:]) == [ctx.x_new[0] for ctx in ctxs]

    def test_all_zero_weights_raise_with_step_index(self):
        dens = linear_densities()
        dead = ProposalDensities(
            p_obs=lambda ctx: np.zeros_like(ctx.x_new) if ctx.t == 3 else dens.p_obs(ctx),
            p_trans=dens.p_trans,
            q=dens.q,
        )
        with pytest.raises(DegeneracyError, match="step 3"):
            particle_run(np.zeros(8), random_walk_system(), dead, 8, RandomSource(SEED))

    def test_rejects_two_dimensional_series(self):
        with pytest.raises(ShapeError):
            particle_run(
                np.zeros((3, 2)), random_walk_system(), linear_densities(), 4, RandomSource(SEED)
            )

    def test_path_series_matches_array(self):
        sys, dens = random_walk_system(), linear_densities()
        path = Path(t0=0.0, dt=0.5, values=np.array(self.Y))
        a = particle_run(path, sys, dens, 20, RandomSource(SEED))
        b = particle_run(self.Y, sys, dens, 20, RandomSource(SEED))
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_estimates_start_at_initial_mean(self):
        ctxs = []
        est, ll = particle_run(
            self.Y, random_walk_system(), recording(linear_densities(), ctxs),
            30, RandomSource(SEED), x0=0.7, p0=2.0,
        )
        assert est.shape == (len(self.Y) + 1,)
        assert est[0] == ctxs[0].x_prev.mean()
        assert [ctx.t for ctx in ctxs] == list(range(len(self.Y)))
        assert [ctx.y for ctx in ctxs] == self.Y
        assert math.isfinite(ll)

    def test_draws_from_the_named_streams(self):
        n, x0, p0 = 24, 0.4, 1.7
        dens = linear_densities()
        ctxs = []
        particle_run(
            self.Y, random_walk_system(), recording(dens, ctxs),
            n, RandomSource(SEED), x0=x0, p0=p0,
        )
        src = RandomSource(SEED)
        init = x0 + math.sqrt(p0) * src.substream(STREAM_PF_INIT).normals(n)
        np.testing.assert_array_equal(ctxs[0].x_prev, init)
        for t, ctx in enumerate(ctxs):
            z = src.substream(STREAM_PF_PROPOSAL).substream(t).normals(n)
            np.testing.assert_array_equal(ctx.x_new, ctx.ekf_mean + np.sqrt(ctx.ekf_var) * z)
        for t, (prev, ctx) in enumerate(zip(ctxs, ctxs[1:])):
            ratio = dens.p_obs(prev) * dens.p_trans(prev) / dens.q(prev)
            u = src.substream(STREAM_PF_RESAMPLE).substream(t).uniforms(1)[0]
            idx = _kernels.systematic_indices(ratio / ratio.sum(), u)
            assert np.unique(idx).size < n  # non-uniform weights: some copies
            np.testing.assert_array_equal(ctx.x_prev, prev.x_new[idx])

    def test_weights_normalized(self):
        # each estimate is the mean of the new particles under the
        # normalized importance weights p_obs * p_trans / q
        dens = linear_densities()
        ctxs = []
        est, _ = particle_run(
            self.Y, random_walk_system(), recording(dens, ctxs), 128, RandomSource(SEED)
        )
        for t, ctx in enumerate(ctxs):
            ratio = dens.p_obs(ctx) * dens.p_trans(ctx) / dens.q(ctx)
            assert est[t + 1] == pytest.approx(float(ratio @ ctx.x_new / ratio.sum()), rel=1e-12)
            assert ctx.x_new.min() <= est[t + 1] <= ctx.x_new.max()

    def test_carries_log_increment(self):
        # log p(y_t | y_<t) is estimated by the log of the mean unnormalized weight
        dens = linear_densities()
        ctxs = []
        _, ll = particle_run(
            self.Y, random_walk_system(), recording(dens, ctxs), 32, RandomSource(SEED)
        )
        expect = sum(
            math.log(float(np.mean(dens.p_obs(c) * dens.p_trans(c) / dens.q(c)))) for c in ctxs
        )
        assert ll == pytest.approx(expect, rel=1e-12)

    def test_uninformative_observation_adds_no_loglik(self):
        _, ll = particle_run(
            self.Y, random_walk_system(), flat_densities(), 7, RandomSource(SEED)
        )
        assert ll == pytest.approx(0.0, abs=1e-12)

    def test_nan_weights_raise_with_step_index(self):
        dens = linear_densities()
        spoiled = ProposalDensities(
            p_obs=lambda ctx: np.full_like(ctx.x_new, np.nan) if ctx.t == 2 else dens.p_obs(ctx),
            p_trans=dens.p_trans,
            q=dens.q,
        )
        with pytest.raises(DegeneracyError, match="step 2$"):
            particle_run(np.zeros(6), random_walk_system(), spoiled, 8, RandomSource(SEED))

    def test_carries_covariances_along(self):
        # jac_h = 0 skips the measurement update and jac_w = x makes each
        # particle's variance its own: P_t = P_{t-1} + x_{t-1}^2 q
        q = 0.3
        sys = NonlinearSystem(
            f=lambda x, t: x,
            h=lambda x, t: x,
            jac_a=lambda x, t: np.ones_like(x),
            jac_w=lambda x, t: x,
            jac_h=lambda x, t: np.zeros_like(x),
            jac_e=lambda x, t: np.ones_like(x),
            q=q,
            r=0.5,
        )
        ctxs = []
        particle_run(self.Y, sys, recording(linear_densities(), ctxs), 32, RandomSource(SEED))
        for prev, ctx in zip(ctxs, ctxs[1:]):
            assert np.unique(ctx.x_prev).size < ctx.x_prev.size  # resampling copied some
            parent = np.array([np.flatnonzero(prev.x_new == v)[0] for v in ctx.x_prev])
            expect = prev.ekf_var[parent] + ctx.x_prev * ctx.x_prev * q
            np.testing.assert_allclose(ctx.ekf_var, expect, rtol=1e-14)


class TestSystematicIndices:
    def test_uniform_weights_preserve_multiset(self):
        u = RandomSource(SEED).uniforms(1)[0]
        idx = _kernels.systematic_indices(np.full(10, 0.1), u)
        np.testing.assert_array_equal(np.sort(idx), np.arange(10))

    def test_degenerate_weight_copies_one_particle(self):
        w = np.zeros(6)
        w[0] = 1.0
        idx = _kernels.systematic_indices(w, RandomSource(SEED).uniforms(1)[0])
        assert np.all(idx == 0)

    def test_indices_sorted_and_in_range(self):
        rng = RandomSource(SEED, stream=42).generator()
        for n in (1, 2, 7, 64):
            for u in (0.0, 0.5, 1.0 - 1e-16, float(rng.random())):
                w = rng.random(n)
                w /= w.sum()
                idx = _kernels.systematic_indices(w, u)
                assert idx.shape == (n,)
                assert np.all(np.diff(idx) >= 0)
                assert idx.min() >= 0 and idx.max() <= n - 1

    def test_never_copies_zero_weight(self):
        rng = RandomSource(SEED, stream=44).generator()
        n = 40
        for trial in range(50):
            w = rng.random(n) * (rng.random(n) < 0.3)
            w[trial % n] += 0.1  # at least one live particle
            w /= w.sum()
            idx = _kernels.systematic_indices(w, RandomSource(SEED + trial).uniforms(1)[0])
            assert np.all(w[idx] > 0.0)

    def test_copy_counts_match_weights(self):
        rng = RandomSource(SEED, stream=41).generator()
        n = 64
        for trial in range(50):
            w = rng.random(n)
            w /= w.sum()
            idx = _kernels.systematic_indices(w, RandomSource(SEED + trial).uniforms(1)[0])
            counts = np.bincount(idx, minlength=n)
            assert np.all(np.abs(counts - n * w) <= 1.0)

    def test_preserves_weighted_mean(self):
        n = 1000
        rng = RandomSource(SEED, stream=43).generator()
        hits = 0
        for trial in range(100):
            vals = rng.normal(size=n)
            w = rng.random(n)
            w /= w.sum()
            idx = _kernels.systematic_indices(w, RandomSource(SEED + trial).uniforms(1)[0])
            before = float(w @ vals)
            wstd = math.sqrt(float(w @ (vals - before) ** 2))
            if abs(vals[idx].mean() - before) <= 5.0 * wstd / math.sqrt(n):
                hits += 1
        assert hits >= 95


class TestStochasticVolatilityDensities:
    DT = 0.499

    def ctx(self, **kw):
        base = dict(
            x_new=np.array([1.2]),
            x_prev=np.array([1.0]),
            ekf_mean=np.array([1.1]),
            ekf_var=np.array([0.04]),
            y=0.03,
            t=0,
        )
        base.update(kw)
        return WeightContext(**base)

    def test_p_obs_unit_mass(self):
        # scan the observation by broadcasting y against a constant particle
        dens = heston_densities(HESTON_BASE, self.DT)
        x = 1.2
        std = math.sqrt(x * self.DT)
        mean = (HESTON_BASE.mu_s - 0.5 * x) * self.DT
        grid = np.linspace(mean - 10 * std, mean + 10 * std, 200_001)
        vals = dens.p_obs(self.ctx(x_new=np.full_like(grid, x), y=grid))
        assert np.all(vals >= 0.0)
        assert float(np.trapezoid(vals, grid)) == pytest.approx(1.0, abs=1e-6)

    def test_p_trans_unit_mass_and_mode(self):
        dens = heston_densities(HESTON_BASE, self.DT)
        p = HESTON_BASE
        x_prev = 1.0
        mean = (
            x_prev
            + (p.kappa * (p.theta_v - x_prev) - p.rho * p.xi * (p.mu_s - 0.5 * x_prev)) * self.DT
            + p.rho * p.xi * 0.03
        )
        std = p.xi * math.sqrt(1 - p.rho**2) * math.sqrt(self.DT) * math.sqrt(x_prev)
        grid = np.linspace(mean - 10 * std, mean + 10 * std, 200_001)
        vals = dens.p_trans(
            self.ctx(x_new=grid, x_prev=np.full_like(grid, x_prev))
        )
        mass = float(np.trapezoid(vals, grid))
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert abs(grid[np.argmax(vals)] - mean) <= std * 1e-3

    def test_degenerate_transition_hits_floor(self):
        p = HestonParams(mu_s=0.05, kappa=0.3, theta_v=1.5, xi=0.0, rho=0.0)
        dens = heston_densities(p, self.DT)
        x_prev = 1.0
        mean = x_prev + p.kappa * (p.theta_v - x_prev) * self.DT
        val = float(dens.p_trans(self.ctx(x_new=np.array([mean]), x_prev=np.array([x_prev])))[0])
        assert val == pytest.approx(1.0 / (STD_FLOOR * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_proposal_uses_ekf_moments(self):
        dens = heston_densities(HESTON_BASE, self.DT)
        at_mean = float(dens.q(self.ctx(x_new=np.array([1.1])))[0])
        off_mean = float(dens.q(self.ctx(x_new=np.array([1.4])))[0])
        assert at_mean == pytest.approx(1.0 / (0.2 * math.sqrt(2 * math.pi)), rel=1e-12)
        assert off_mean < at_mean

    def test_bates_reduces_to_heston_at_zero_intensity(self):
        bp = BatesParams(heston=HESTON_BASE, lam=0.0, jump_size=0.1)
        hd = heston_densities(HESTON_BASE, self.DT)
        bd = bates_densities(bp, self.DT)
        c = self.ctx()
        assert float(bd.p_obs(c)[0]) == float(hd.p_obs(c)[0])
        assert float(bd.p_trans(c)[0]) == float(hd.p_trans(c)[0])

    def test_bates_obs_mean_shift(self):
        # lam*j = 1, so the observation mean moves by exactly dt
        bp = BatesParams(heston=HESTON_BASE, lam=10.0, jump_size=0.1)
        hd = heston_densities(HESTON_BASE, self.DT)
        bd = bates_densities(bp, self.DT)
        y0 = 0.11
        shifted = self.ctx(y=y0 + self.DT)
        assert float(bd.p_obs(shifted)[0]) == pytest.approx(
            float(hd.p_obs(self.ctx(y=y0))[0]), rel=1e-12
        )

    def test_bates_trans_unit_mass(self):
        bp = BatesParams(heston=HESTON_BASE, lam=10.0, jump_size=0.1)
        bd = bates_densities(bp, self.DT)
        x_prev = 0.8
        h = HESTON_BASE
        mean = (
            x_prev
            + (h.kappa * (h.theta_v - x_prev) - h.rho * h.xi * (bp.mu_eff - 0.5 * x_prev)) * self.DT
            + h.rho * h.xi * 0.03
        )
        std = h.xi * math.sqrt(1 - h.rho**2) * math.sqrt(self.DT) * math.sqrt(x_prev)
        grid = np.linspace(mean - 10 * std, mean + 10 * std, 200_001)
        vals = bd.p_trans(self.ctx(x_new=grid, x_prev=np.full_like(grid, x_prev)))
        assert float(np.trapezoid(vals, grid)) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(DomainError):
            heston_densities(HESTON_BASE, 0.0)
        with pytest.raises(DomainError):
            bates_densities(BatesParams(heston=HESTON_BASE, lam=1.0, jump_size=0.1), -0.5)


class TestParticleEkfRun:
    def test_heston_tracking(self):
        src = RandomSource(SEED)
        lns, v = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 1000, src)
        est, ll = particle_ekf_run(lns, HESTON_BASE, 1000, RandomSource(SEED))
        err = rmse(est.values[1:], v.values[1:])
        assert err <= 15.0
        assert err < 2.0  # regression guard well inside the band
        assert math.isfinite(ll)

    def test_bates_tracking(self):
        bp = BatesParams(heston=HESTON_BASE, lam=10.0, jump_size=0.1)
        src = RandomSource(SEED)
        lns, v = simulate_bates(bp, 100.0, 1.5, 0.499, 1000, src)
        est, _ = particle_ekf_run(lns, bp, 1000, RandomSource(SEED))
        err = rmse(est.values[1:], v.values[1:])
        assert err <= 20.0
        assert err < 2.0

    def test_estimates_align_with_input_grid(self):
        src = RandomSource(SEED)
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 50, src)
        est, _ = particle_ekf_run(lns, HESTON_BASE, 20, RandomSource(SEED))
        assert est.t0 == lns.t0
        assert est.dt == lns.dt
        assert est.values.shape == lns.values.shape

    def test_single_particle_zero_noise_collapses_to_ekf(self):
        # xi = 0 removes process noise, P0 = 0 removes proposal noise, so
        # the lone particle follows the deterministic filter recursion
        p = HestonParams(mu_s=0.05, kappa=0.3, theta_v=1.5, xi=0.0, rho=0.0)
        src = RandomSource(SEED)
        lns, _ = simulate_heston(p, 100.0, 1.2, 0.499, 60, src)
        est, _ = particle_ekf_run(lns, p, 1, RandomSource(SEED), x0_guess=1.0, p0=0.0)
        sys = heston_ekf_system(p, 0.499, lns)
        generic = NonlinearSystem(f=sys.f, h=sys.h, jac_a=sys.jac_a, jac_w=sys.jac_w,
                                  jac_h=sys.jac_h, jac_e=sys.jac_e)
        states, _ = ekf_run(log_returns(lns), generic, x0=1.0, p0=0.0)
        ekf_means = np.array([st.mean[0] for st in states])
        np.testing.assert_allclose(est.values[1:], ekf_means, atol=1e-12)

    def test_kernel_matches_generic(self):
        src = RandomSource(SEED)
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 120, src)
        est_k, ll_k = particle_ekf_run(lns, HESTON_BASE, 40, RandomSource(SEED))
        est_g, ll_g = particle_run(
            np.diff(lns.values),
            heston_ekf_system(HESTON_BASE, 0.499, lns),
            heston_densities(HESTON_BASE, 0.499),
            40,
            RandomSource(SEED),
        )
        np.testing.assert_allclose(est_k.values, est_g, atol=1e-10)
        assert ll_k == pytest.approx(ll_g, abs=1e-9)

    @pytest.mark.parametrize("name", ["heston_particle", "bates_particle"])
    def test_kernel_matches_generic_on_packaged_series(self, name):
        # full size: 1000 steps x 1000 particles, as the scenario runs it
        sc = load_scenario(name)
        model = MODELS[sc.model]
        p = model.pack([sc.params[f] for f in model.fields])
        simulate, system, densities = {
            "heston": (simulate_heston, heston_ekf_system, heston_densities),
            "bates": (simulate_bates, bates_ekf_system, bates_densities),
        }[sc.model]
        lns, _ = simulate(p, *(sc.params[k] for k in model.start), sc.dt, sc.n_steps,
                          RandomSource(sc.seed))
        npart, x0, p0 = sc.option("n_particles"), sc.option("v0_guess"), sc.option("p0")
        assert (lns.values.shape[0] - 1, npart) == (1000, 1000)
        est_k, ll_k = particle_ekf_run(lns, p, npart, RandomSource(sc.seed), x0_guess=x0, p0=p0)
        est_g, ll_g = particle_run(np.diff(lns.values), system(p, sc.dt, lns),
                                   densities(p, sc.dt), npart, RandomSource(sc.seed), x0=x0, p0=p0)
        np.testing.assert_allclose(est_k.values, est_g, atol=1e-10)
        assert ll_k == pytest.approx(ll_g, abs=1e-9)

    def test_packaged_pass_holds_no_draw_block(self):
        # a (steps, N) block of draws would be 1000 * 1000 * 8 B = 8 MB; the
        # pass's O(N) buffers are about a dozen arrays of 8 KB
        sc = load_scenario("heston_particle")
        model = MODELS[sc.model]
        p = model.pack([sc.params[f] for f in model.fields])
        lns, _ = simulate_heston(p, *(sc.params[k] for k in model.start), sc.dt, sc.n_steps,
                                 RandomSource(sc.seed))
        npart, x0, p0 = sc.option("n_particles"), sc.option("v0_guess"), sc.option("p0")
        assert (lns.values.shape[0] - 1, npart) == (1000, 1000)
        tracemalloc.start()
        try:
            _, ll = particle_ekf_run(lns, p, npart, RandomSource(sc.seed), x0_guess=x0, p0=p0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(ll)
        assert peak < 2**20

    def test_streamed_draws_match_a_drawn_block(self):
        # the per-step draws equal the (steps, N) block kernel_args draws
        # from the same named streams, so the outputs agree bitwise
        lns, args = kernel_args(HESTON_BASE, 1.5, 1.0, 1.0)
        est, ll = particle_ekf_run(lns, HESTON_BASE, 64, RandomSource(SEED), x0_guess=1.0, p0=1.0)
        est_ref, ll_ref, status, _ = _kernels.particle_heston_loop_numpy(*args)
        assert status == 0
        np.testing.assert_array_equal(est.values, est_ref)
        assert ll == ll_ref

    def test_deterministic(self):
        src = RandomSource(SEED)
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 200, src)
        a = particle_ekf_run(lns, HESTON_BASE, 100, RandomSource(SEED + 1))
        b = particle_ekf_run(lns, HESTON_BASE, 100, RandomSource(SEED + 1))
        np.testing.assert_array_equal(a[0].values, b[0].values)
        assert a[1] == b[1]
        # zero jump intensity leaves the Bates drift at mu_s: same run bitwise
        bp = BatesParams(heston=HESTON_BASE, lam=0.0, jump_size=0.1)
        c = particle_ekf_run(lns, bp, 100, RandomSource(SEED + 1))
        np.testing.assert_array_equal(a[0].values, c[0].values)
        assert a[1] == c[1]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_price_degenerates_at_its_step(self, bad):
        # the price at index 6 spoils log-returns 5 and 6: both filters name
        # the first bad entry of the series they were given, and every kernel
        # weight dies at (1-based) step 6
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 20, RandomSource(SEED))
        values = lns.values.copy()
        values[6] = bad
        lns = Path(t0=lns.t0, dt=lns.dt, values=values)
        sys = heston_ekf_system(HESTON_BASE, 0.499, lns)
        dens = heston_densities(HESTON_BASE, 0.499)
        z0 = RandomSource(SEED, stream=1).normals(50)
        ys = RandomSource(SEED, stream=2).generator().standard_normal((20, 50))
        us = RandomSource(SEED, stream=3).uniforms(20)
        with pytest.raises(DomainError, match="value at index 6 is not finite$"):
            particle_ekf_run(lns, HESTON_BASE, 50, RandomSource(SEED))
        with pytest.raises(DomainError, match="value at index 5 is not finite$"):
            particle_run(np.diff(values), sys, dens, 50, RandomSource(SEED))
        with np.errstate(invalid="ignore"):
            for loop in (_kernels.particle_heston_loop, _kernels.particle_heston_loop_numpy):
                *_, status, bad_step = loop(
                    np.diff(values), 0.499, 0.05, 0.3, 1.5, 0.6, 0.04, 1.0, 1.0, z0, ys, us
                )
                assert (status, bad_step) == (2, 6)

    def test_validation(self):
        src = RandomSource(SEED)
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 10, src)
        with pytest.raises(ShapeError):
            particle_ekf_run(lns, HESTON_BASE, 0, RandomSource(SEED))
        with pytest.raises(DomainError):
            particle_ekf_run(lns.values, HESTON_BASE, 10, RandomSource(SEED))
        with pytest.raises(DomainError):
            particle_ekf_run(lns, "heston", 10, RandomSource(SEED))
        short = Path(t0=0.0, dt=0.5, values=np.array([4.6]))
        with pytest.raises(ShapeError):
            particle_ekf_run(short, HESTON_BASE, 10, RandomSource(SEED))

    def test_xi_zero_needs_p0_zero(self):
        # a point-mass transition gives every spread proposal a weight of
        # about -e_t^2 / 2e-16: the log-likelihood would be near -1e12
        p = replace(HESTON_BASE, xi=0.0)
        lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 10, RandomSource(SEED))
        with pytest.raises(DomainError, match=r"^xi = 0 .* p0 must be 0 .*, got p0 = 0\.25$"):
            particle_ekf_run(lns, p, 10, RandomSource(SEED), p0=0.25)
        bp = BatesParams(heston=p, lam=10.0, jump_size=0.1)
        with pytest.raises(DomainError, match="p0 must be 0"):
            particle_ekf_run(lns, bp, 10, RandomSource(SEED))
        _, ll = particle_ekf_run(lns, p, 10, RandomSource(SEED), p0=0.0)
        assert math.isfinite(ll)

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_unit_rho_needs_p0_zero(self, rho):
        # xi^2 (1 - rho^2) = 0 makes the transition a point mass as xi = 0
        # does: unchecked, p0 = 1 gives a log-likelihood of -2.9e13 (rho = -1)
        # to -5.4e14 (rho = 1) here
        p = replace(HESTON_BASE, rho=rho)
        lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 10, RandomSource(SEED))
        with pytest.raises(DomainError, match=rf"^rho = {rho:g} .* p0 must be 0 .*, got p0 = 1\.0$"):
            particle_ekf_run(lns, p, 10, RandomSource(SEED))
        bp = BatesParams(heston=p, lam=10.0, jump_size=0.1)
        with pytest.raises(DomainError, match="p0 must be 0"):
            particle_ekf_run(lns, bp, 10, RandomSource(SEED), p0=0.25)
        particle_ekf_run(lns, p, 10, RandomSource(SEED), p0=0.0)


    @pytest.mark.parametrize("entry", ["particle_ekf_run", "particle_run"])
    @pytest.mark.parametrize("x0, p0, message", [
        (np.nan, 1.0, "{x0} must be finite"),
        (np.inf, 1.0, "{x0} must be finite"),
        (1.0, np.nan, "P0 must be finite"),
        (1.0, np.inf, "P0 must be finite"),
        (1.0, -1.0, "P0 must be >= 0"),
    ], ids=["x0_nan", "x0_inf", "p0_nan", "p0_inf", "p0_negative"])
    def test_bad_initial_values_rejected_before_any_warning(self, entry, x0, p0, message):
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 10, RandomSource(SEED))
        sys = heston_ekf_system(HESTON_BASE, 0.499, lns)
        dens = heston_densities(HESTON_BASE, 0.499)
        calls = {
            "particle_ekf_run": lambda: particle_ekf_run(
                lns, HESTON_BASE, 10, RandomSource(SEED), x0_guess=x0, p0=p0),
            "particle_run": lambda: particle_run(
                np.diff(lns.values), sys, dens, 10, RandomSource(SEED), x0=x0, p0=p0),
        }
        name = "x0_guess" if entry == "particle_ekf_run" else "x0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^" + message.format(x0=name) + "$"):
                calls[entry]()


class TestParticleRunOnLinearToy:
    A, Q, R = 0.9, 0.3, 0.5
    # the oracles' passes per particle count and their particle counts
    K, NS = 100, (100, 400)

    def exact(self, y):
        """The Kalman filter's states and exact log-likelihood of y."""
        sys = LinearStateSpace(
            a=[[self.A]], g=[[1.0]], q=[[self.Q]], h=[1.0], r=self.R,
            x0=[0.0], p0=[[1.0]],
        )
        return kalman_run(y, sys)

    def simulate(self, n, src):
        g = src.generator()
        x = 0.0
        y = np.empty(n)
        for t in range(n):
            x = self.A * x + math.sqrt(self.Q) * g.standard_normal()
            y[t] = x + math.sqrt(self.R) * g.standard_normal()
        return y

    def test_loglik_close_to_kalman(self):
        y = self.simulate(40, RandomSource(SEED, stream=3))
        _, exact = self.exact(y)
        sys = random_walk_system(q=self.Q, r=self.R, a=self.A)
        dens = linear_densities(q=self.Q, r=self.R, a=self.A)
        rel = []
        for k in range(20):
            _, ll = particle_run(y, sys, dens, 4000, RandomSource(SEED + k), x0=0.0, p0=1.0)
            rel.append(abs(ll - exact) / abs(exact))
        assert float(np.median(rel)) <= 0.05

    @pytest.fixture(scope="class")
    def passes(self):
        """Per particle count N: ll - exact over K seeded passes on the
        40-step series, and the RMSE of the filtered means against the
        Kalman means over all of them."""
        y = self.simulate(40, RandomSource(SEED, stream=3))
        states, exact = self.exact(y)
        kalman_means = np.array([st.mean[0] for st in states])
        sys = random_walk_system(q=self.Q, r=self.R, a=self.A)
        dens = linear_densities(q=self.Q, r=self.R, a=self.A)
        out = {}
        for n in self.NS:
            diffs, sq = [], []
            for k in range(self.K):
                est, ll = particle_run(y, sys, dens, n, RandomSource(SEED + k), x0=0.0, p0=1.0)
                diffs.append(ll - exact)
                sq.append(np.mean((est[1:] - kalman_means) ** 2))
            out[n] = np.array(diffs), math.sqrt(np.mean(sq))
        return out

    def test_error_shrinks_at_the_monte_carlo_rate(self, passes):
        # 4x the particles halves the error, N^(-1/2); the band allows
        # about 3.5 standard errors of the log sd ratio at K = 100
        (d_few, rmse_few), (d_many, rmse_many) = (passes[n] for n in self.NS)
        assert 1.4 <= np.std(d_few, ddof=1) / np.std(d_many, ddof=1) <= 2.8
        assert 1.4 <= rmse_few / rmse_many <= 2.8

    @pytest.mark.parametrize("n", NS)
    def test_likelihood_estimate_is_unbiased(self, passes, n):
        # the particle likelihood is unbiased for the exact one (Del Moral
        # 2004), so exp(ll - exact) has mean 1
        ratio = np.exp(passes[n][0])
        se = np.std(ratio, ddof=1) / math.sqrt(self.K)
        assert abs(float(np.mean(ratio)) - 1.0) <= 4.0 * se

    def test_estimates_track_state(self):
        y = self.simulate(60, RandomSource(SEED, stream=4))
        sys = random_walk_system(q=self.Q, r=self.R, a=self.A)
        dens = linear_densities(q=self.Q, r=self.R, a=self.A)
        est, _ = particle_run(y, sys, dens, 500, RandomSource(SEED), x0=0.0, p0=1.0)
        assert rmse(est[1:], y) < math.sqrt(self.R) * 1.5

    def test_rejects_empty_series(self):
        with pytest.raises(ShapeError):
            particle_run([], random_walk_system(), linear_densities(), 10, RandomSource(SEED))


def kernel_args(p, v0, x0, p0, n=150, npart=64, seed=SEED):
    """A simulated Heston series and the fused kernels' arguments for it,
    with the draws particle_run takes from RandomSource(seed)."""
    src = RandomSource(seed)
    lns, _ = simulate_heston(p, 100.0, v0, 0.499, n, src)
    z0 = src.substream(STREAM_PF_INIT).normals(npart)
    prop, res = src.substream(STREAM_PF_PROPOSAL), src.substream(STREAM_PF_RESAMPLE)
    ys = np.vstack([prop.substream(t).normals(npart) for t in range(n)])
    us = np.array([res.substream(t).uniforms(1)[0] for t in range(n)])
    return lns, (np.diff(lns.values), 0.499, p.mu_s, p.kappa, p.theta_v, p.xi, p.rho,
                 x0, p0, z0, ys, us)


# regimes that reach the floors of the weights: a Feller-violating high xi
# whose proposals go negative (observation variance floor), P0 = 0, and
# xi = 0 with P0 = 0 (transition and proposal variance floors every step)
FLOOR_REGIMES = {
    "feller_violated": (HestonParams(mu_s=0.05, kappa=0.5, theta_v=0.1, xi=2.0, rho=0.3),
                        0.2, 0.1, 1.0),
    "p0_zero": (HESTON_BASE, 1.5, 1.0, 0.0),
    "xi_zero": (replace(HESTON_BASE, xi=0.0), 1.5, 1.0, 0.0),
}


class TestBackends:
    def test_numpy_twin_matches_reference_loop(self):
        _, args = kernel_args(HESTON_BASE, 1.5, 1.0, 1.0)
        est_a, ll_a, st_a, _ = _kernels.particle_heston_loop(*args)
        est_b, ll_b, st_b, _ = _kernels.particle_heston_loop_numpy(*args)
        assert st_a == st_b == 0
        np.testing.assert_allclose(est_a, est_b, atol=1e-10)
        assert ll_a == pytest.approx(ll_b, abs=1e-9)

    def test_numpy_twin_matches_reference_loop_at_the_proposal_floor(self):
        # high xi with a low mean: at step 43 the proposal variance phat is
        # about 9e-17, where x_t - xhat would cancel most of its digits, so
        # both loops take the proposal's offset as sqrt(phat) * draw
        params = HestonParams(mu_s=0.05, kappa=0.3, theta_v=0.2, xi=3.0, rho=-0.5)
        _, args = kernel_args(params, 0.2, 1.0, 1.0, seed=2)
        est_a, ll_a, st_a, _ = _kernels.particle_heston_loop(*args)
        est_b, ll_b, st_b, _ = _kernels.particle_heston_loop_numpy(*args)
        assert st_a == st_b == 0
        np.testing.assert_allclose(est_a, est_b, atol=1e-10)
        assert ll_a == pytest.approx(ll_b, abs=1e-9)

    @pytest.mark.parametrize("regime", FLOOR_REGIMES)
    @pytest.mark.parametrize("seed", [SEED, 1, 2])
    def test_numpy_step_matches_scalar_loop_at_the_floors(self, regime, seed):
        params, v0, x0, p0 = FLOOR_REGIMES[regime]
        _, args = kernel_args(params, v0, x0, p0, seed=seed)
        est_a, ll_a, *status_a = _kernels.particle_heston_loop(*args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(under="ignore"):
                est_b, ll_b, *status_b = _kernels.particle_heston_loop_numpy(*args)
        assert status_a == status_b == [0, -1]
        np.testing.assert_allclose(est_a, est_b, atol=1e-10)
        assert ll_a == pytest.approx(ll_b, abs=1e-9)

    def test_feller_regime_proposes_negative_variances(self):
        params, v0, x0, p0 = FLOOR_REGIMES["feller_violated"]
        lns, _ = kernel_args(params, v0, x0, p0)
        contexts = []
        particle_run(np.diff(lns.values), heston_ekf_system(params, 0.499, lns),
                     recording(heston_densities(params, 0.499), contexts), 64,
                     RandomSource(SEED), x0=x0, p0=p0)
        assert any((ctx.x_new < 0.0).any() for ctx in contexts)

    def test_xi_zero_with_spread_matches_scalar_loop_to_its_precision(self):
        # every weight carries -e_t^2 / (2 * 1e-16): the log-likelihood is
        # about -1e12, where one ulp is 1.2e-4, so it agrees relatively
        _, args = kernel_args(replace(HESTON_BASE, xi=0.0), 1.5, 1.0, 1.0)
        est_a, ll_a, *status_a = _kernels.particle_heston_loop(*args)
        est_b, ll_b, *status_b = _kernels.particle_heston_loop_numpy(*args)
        assert status_a == status_b == [0, -1]
        np.testing.assert_allclose(est_a, est_b, atol=1e-10)
        assert ll_a < -1e11
        assert ll_a == pytest.approx(ll_b, rel=1e-13)
