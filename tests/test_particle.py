import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdefl.core import (
    STREAM_PF_INIT,
    STREAM_PF_PROPOSAL,
    STREAM_PF_RESAMPLE,
    DegeneracyError,
    DomainError,
    Path,
    RandomSource,
    ShapeError,
    normal_pdf,
    rmse,
)
from sdefl.experiments import load_scenario
from sdefl.kalman import (
    GaussianState,
    LinearStateSpace,
    _sv_system,
    bates_ekf_system,
    heston_ekf_system,
    kalman_run,
    log_returns,
)
from sdefl.models import MODELS, BatesParams, HestonParams, simulate_bates, simulate_heston
from sdefl import _kernels
from sdefl.particle import particle_ekf_run, particle_run
from test_core import trapezoid_quadrature
import reference

SEED = 2024061

HESTON_BASE = HestonParams(mu_s=0.05, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)


def random_walk_system(q=0.3, r=0.5, a=1.0):
    """Scalar linear system expressed through the nonlinear interface."""
    return reference.NonlinearSystem(
        f=lambda x, t: a * x,
        h=lambda x, t: x,
        jac_a=lambda x, t: a * np.ones_like(np.asarray(x, dtype=float)),
        jac_w=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        jac_h=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        jac_e=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        q=q,
        r=r,
    )


def lone_particle(y, sys, x0, p0, seed):
    """est[1:] of a one-particle reference.particle_run from RandomSource(seed):
    its weight is 1 and resampling keeps it, so each estimate is the
    particle's proposal, drawn from ekf_step's posterior of its own mean and
    variance."""
    src = RandomSource(seed)
    prop = src.substream(STREAM_PF_PROPOSAL)
    x = x0 + math.sqrt(p0) * src.substream(STREAM_PF_INIT).normals(1)[0]
    p = p0
    out = []
    for t, yt in enumerate(y):
        st = reference.ekf_step(GaussianState(np.array([x]), np.array([[p]])), sys, yt, t)
        p = max(float(st.cov[0, 0]), 0.0)
        x = float(st.mean[0]) + math.sqrt(p) * prop.substream(t).normals(1)[0]
        out.append(x)
    return np.array(out)


def random_walk_reference(y, n, x0, p0, seed, q=0.3, r=0.5):
    """reference.particle_run's pass over the random walk, rebuilt from the named
    streams of RandomSource(seed) with the weights p_obs p_trans / q taken
    as normal densities; returns each step's (proposals, p_obs p_trans / q)."""
    src = RandomSource(seed)
    x = x0 + math.sqrt(p0) * src.substream(STREAM_PF_INIT).normals(n)
    p = np.full(n, p0)
    steps = []
    for t, yt in enumerate(y):
        p_prior = p + q
        k = p_prior / (p_prior + r)
        mean, var = x + k * (yt - x), (1.0 - k) * p_prior
        x_new = mean + np.sqrt(var) * src.substream(STREAM_PF_PROPOSAL).substream(t).normals(n)
        ratio = (normal_pdf(yt, x_new, math.sqrt(r)) * normal_pdf(x_new, x, math.sqrt(q))
                 / normal_pdf(x_new, mean, np.sqrt(var)))
        steps.append((x_new, ratio))
        u = src.substream(STREAM_PF_RESAMPLE).substream(t).uniforms(1)[0]
        idx = reference.systematic_indices(ratio / ratio.sum(), u)
        x, p = x_new[idx], var[idx]
    return steps


def transition_as(t_bad, value):
    """The random walk with a transition that returns value at step t_bad."""
    walk = random_walk_system()
    return replace(walk, f=lambda x, t: np.full_like(x, value) if t == t_bad else walk.f(x, t))


def observed_as(t_bad, value):
    """The random walk with an observation map that returns value at step t_bad."""
    walk = random_walk_system()
    return replace(walk, h=lambda x, t: np.full_like(x, value) if t == t_bad else walk.h(x, t))


def uninformative_system(c=0.1, q=0.3, r=0.5):
    """The state is fresh noise around 0.4 each step, x_t = 0.4 + w_t, and
    is observed as y_t = c + e_t: the observation says nothing of the state,
    and with jac_a = jac_h = 0 the EKF proposal is the transition itself."""
    return reference.NonlinearSystem(
        f=lambda x, t: np.full_like(x, 0.4),
        h=lambda x, t: np.full_like(x, c),
        jac_a=lambda x, t: np.zeros_like(x),
        jac_w=lambda x, t: np.ones_like(x),
        jac_h=lambda x, t: np.zeros_like(x),
        jac_e=lambda x, t: np.ones_like(x),
        q=q,
        r=r,
    )


def short_heston_system(n=20):
    """The Heston SvSystem over a short simulated price path."""
    lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, n, RandomSource(SEED))
    return heston_ekf_system(HESTON_BASE, 0.499, lns)


class TestParticleRun:
    """particle_run on SvSystems, and the reference loop on toy systems."""

    Y = [0.2, -0.5, 1.4, 0.0, 0.7]

    def test_validation(self):
        sys = short_heston_system()
        with pytest.raises(DomainError, match="^n_particles must be a positive integer, got 0$"):
            particle_run(sys.dlns, sys, 0, RandomSource(SEED))
        with pytest.raises(DomainError):
            particle_run(sys.dlns, sys, 4, RandomSource(SEED), p0=-1.0)

    def test_zero_spread(self):
        # with q = 0 every particle stays at x0 only if P0 = 0 reached every
        # particle: the filter then sees the point mass, and the likelihood
        # is that of the observations alone around x0
        r = 0.5
        est, ll = reference.particle_run(
            self.Y, random_walk_system(q=0.0, r=r), 16, RandomSource(SEED), x0=2.5, p0=0.0,
        )
        assert np.all(est == 2.5)
        expect = float(np.sum(np.log(normal_pdf(np.array(self.Y), 2.5, math.sqrt(r)))))
        assert ll == pytest.approx(expect, rel=1e-12)

    def test_unit_variance_concentration(self):
        # est[0] of a one-particle pass is its initial draw x0 + sqrt(p0) z
        first = [
            reference.particle_run(self.Y[:1], random_walk_system(), 1, RandomSource(SEED + k),
                                   x0=0.0, p0=1.0)[0][0]
            for k in range(1000)
        ]
        assert abs(np.var(first) - 1.0) <= 0.15

    def test_deterministic(self):
        sys = short_heston_system()
        a = particle_run(sys.dlns, sys, 50, RandomSource(SEED), x0=1.0, p0=2.0)
        b = particle_run(sys.dlns, sys, 50, RandomSource(SEED), x0=1.0, p0=2.0)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_single_particle_weight_is_one(self):
        sys = random_walk_system()
        est, _ = reference.particle_run([-2.0, 0.4], sys, 1, RandomSource(SEED), x0=0.3, p0=0.5)
        expect = lone_particle([-2.0, 0.4], sys, 0.3, 0.5, SEED)
        np.testing.assert_allclose(est[1:], expect, rtol=1e-14)

    def test_nan_transition_raises_with_step_index(self):
        with pytest.raises(DegeneracyError, match="step 3$"):
            reference.particle_run(np.zeros(8), transition_as(3, np.nan), 8, RandomSource(SEED))

    def test_infinite_transition_raises_before_any_warning(self):
        # the EKF update would take inf - inf and warn; the pass ends at the
        # step as a NaN transition's does
        with pytest.raises(DegeneracyError, match="step 3$"):
            reference.particle_run(np.zeros(8), transition_as(3, np.inf), 8, RandomSource(1))

    def test_nan_weights_raise_with_step_index(self):
        # a NaN observation map makes every weight NaN at its step
        with pytest.raises(DegeneracyError, match="step 2$"):
            reference.particle_run(np.zeros(6), observed_as(2, np.nan), 8, RandomSource(SEED))

    def test_all_zero_weights_raise_with_step_index(self):
        # an observation map at +inf puts every particle infinitely far from
        # the measurement, so every weight is exp(-inf) = 0
        with pytest.raises(DegeneracyError, match="step 3$"):
            reference.particle_run(np.zeros(8), observed_as(3, np.inf), 8, RandomSource(SEED))

    def test_uninformative_observation_keeps_weights_uniform(self):
        # the proposal is the transition and the observation weighs every
        # particle alike, so each estimate is the plain mean of the proposals
        n, q = 64, 0.3
        est, _ = reference.particle_run(self.Y, uninformative_system(q=q), n, RandomSource(SEED),
                                        x0=0.0)
        prop = RandomSource(SEED).substream(STREAM_PF_PROPOSAL)
        for t in range(len(self.Y)):
            x_new = 0.4 + math.sqrt(q) * prop.substream(t).normals(n)
            assert est[t + 1] == pytest.approx(x_new.mean(), rel=1e-12, abs=1e-15)

    def test_uninformative_observation_adds_only_its_own_density(self):
        c, r = 0.1, 0.5
        _, ll = reference.particle_run(self.Y, uninformative_system(c=c, r=r), 7,
                                       RandomSource(SEED))
        expect = float(np.sum(np.log(normal_pdf(np.array(self.Y), c, math.sqrt(r)))))
        assert ll == pytest.approx(expect, rel=1e-12)

    def test_draws_from_the_named_streams(self):
        n, x0, p0 = 24, 0.4, 1.7
        est, _ = reference.particle_run(self.Y, random_walk_system(), n, RandomSource(SEED),
                                        x0=x0, p0=p0)
        init = x0 + math.sqrt(p0) * RandomSource(SEED).substream(STREAM_PF_INIT).normals(n)
        assert est[0] == init.mean()
        steps = random_walk_reference(self.Y, n, x0, p0, SEED)
        for t, (x_new, ratio) in enumerate(steps):
            assert est[t + 1] == pytest.approx(float(ratio @ x_new / ratio.sum()), rel=1e-12)
        # non-uniform weights: resampling copies some particles
        u = RandomSource(SEED).substream(STREAM_PF_RESAMPLE).substream(0).uniforms(1)[0]
        x_new, ratio = steps[0]
        assert np.unique(reference.systematic_indices(ratio / ratio.sum(), u)).size < n

    def test_weights_normalized(self):
        # each estimate is the mean of the new particles under the
        # normalized importance weights p_obs * p_trans / q
        est, _ = reference.particle_run(self.Y, random_walk_system(), 128, RandomSource(SEED))
        for t, (x_new, ratio) in enumerate(random_walk_reference(self.Y, 128, 1.0, 1.0, SEED)):
            assert est[t + 1] == pytest.approx(float(ratio @ x_new / ratio.sum()), rel=1e-12)
            assert x_new.min() <= est[t + 1] <= x_new.max()

    def test_carries_log_increment(self):
        # log p(y_t | y_<t) is estimated by the log of the mean unnormalized weight
        _, ll = reference.particle_run(self.Y, random_walk_system(), 32, RandomSource(SEED))
        steps = random_walk_reference(self.Y, 32, 1.0, 1.0, SEED)
        expect = sum(math.log(float(np.mean(ratio))) for _, ratio in steps)
        assert ll == pytest.approx(expect, rel=1e-12)

    def test_bates_reduces_to_heston_at_zero_intensity(self):
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 200, RandomSource(SEED))
        bp = BatesParams(heston=HESTON_BASE, lam=0.0, jump_size=0.1)
        runs = [
            particle_run(sys.dlns, sys, 64, RandomSource(SEED))
            for sys in (heston_ekf_system(HESTON_BASE, 0.499, lns), bates_ekf_system(bp, 0.499, lns))
        ]
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_bates_compensated_drift_matches_shifted_heston(self):
        # lam * j = 1: the Bates system on returns raised by dt filters as
        # the Heston system on the returns themselves
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 200, RandomSource(SEED))
        bp = BatesParams(heston=HESTON_BASE, lam=10.0, jump_size=0.1)
        raised = Path(t0=lns.t0, dt=lns.dt, values=lns.values + 0.499 * np.arange(len(lns)))
        hs, bs = heston_ekf_system(HESTON_BASE, 0.499, lns), bates_ekf_system(bp, 0.499, raised)
        est_h, ll_h = particle_run(hs.dlns, hs, 64, RandomSource(SEED))
        est_b, ll_b = particle_run(bs.dlns, bs, 64, RandomSource(SEED))
        np.testing.assert_allclose(est_b, est_h, atol=1e-10)
        assert ll_b == pytest.approx(ll_h, abs=1e-9)

    def test_only_its_own_returns_are_filtered(self):
        # the kernel reads the series as the transition's return input too,
        # while the system's maps read sys.dlns, as in ekf_run
        p = HestonParams(mu_s=0.04, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)
        lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 200, RandomSource(3))
        sys = heston_ekf_system(p, 0.499, lns)
        reversed_dl = sys.dlns[::-1].copy()
        first = int(np.flatnonzero(reversed_dl != sys.dlns)[0])
        with pytest.raises(DomainError, match=f"own returns at index {first};"):
            particle_run(reversed_dl, sys, 256, RandomSource(SEED))
        with pytest.raises(DomainError, match=f"own returns at index {len(sys.dlns)};"):
            particle_run(np.append(sys.dlns, 0.0), sys, 256, RandomSource(SEED))
        # a prefix of its own returns is filtered, with the reference view's answer
        est, ll = particle_run(sys.dlns[:50], sys, 256, RandomSource(SEED))
        est_g, ll_g = reference.particle_run(sys.dlns[:50], reference.sv_view(sys), 256,
                                             RandomSource(SEED))
        np.testing.assert_allclose(est, est_g, atol=1e-10)
        assert ll == pytest.approx(ll_g, abs=1e-9)

    def test_rejects_two_dimensional_series(self):
        with pytest.raises(ShapeError):
            particle_run(np.zeros((3, 2)), short_heston_system(), 4, RandomSource(SEED))

    def test_path_series_matches_array(self):
        sys = short_heston_system()
        path = Path(t0=0.0, dt=0.5, values=sys.dlns)
        a = particle_run(path, sys, 20, RandomSource(SEED))
        b = particle_run(sys.dlns, sys, 20, RandomSource(SEED))
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_estimates_start_at_initial_mean(self):
        n, x0, p0 = 30, 0.7, 2.0
        est, ll = reference.particle_run(self.Y, random_walk_system(), n, RandomSource(SEED),
                                         x0=x0, p0=p0)
        init = x0 + math.sqrt(p0) * RandomSource(SEED).substream(STREAM_PF_INIT).normals(n)
        assert est.shape == (len(self.Y) + 1,)
        assert est[0] == init.mean()
        assert math.isfinite(ll)

    def test_carries_covariances_along(self):
        # jac_h = 0 skips the measurement update and jac_w = x makes each
        # particle's variance its own: P_t = P_{t-1} + x_{t-1}^2 q, and the
        # lone particle's proposal is x_t = x_{t-1} + sqrt(P_t) z_t
        q, x0, p0 = 0.3, 1.0, 1.0
        sys = reference.NonlinearSystem(
            f=lambda x, t: x,
            h=lambda x, t: x,
            jac_a=lambda x, t: np.ones_like(x),
            jac_w=lambda x, t: x,
            jac_h=lambda x, t: np.zeros_like(x),
            jac_e=lambda x, t: np.ones_like(x),
            q=q,
            r=0.5,
        )
        est, _ = reference.particle_run(self.Y, sys, 1, RandomSource(SEED), x0=x0, p0=p0)
        src = RandomSource(SEED)
        x = x0 + math.sqrt(p0) * src.substream(STREAM_PF_INIT).normals(1)[0]
        p = p0
        for t in range(len(self.Y)):
            p = p + x * x * q
            x = x + math.sqrt(p) * src.substream(STREAM_PF_PROPOSAL).substream(t).normals(1)[0]
            assert est[t + 1] == pytest.approx(x, rel=1e-14)


def weights_of(kind, n, u, rng):
    """n resampling weights of one kind: random (normalized), zero, equal,
    one-hot, sparse (normalized where any is left), tiny (1e-300 range, so
    the last running sum is raised to 1), or on_position: a first weight
    equal to the position (i + u)/n of a random i, the rest equal."""
    if kind == "random":
        w = rng.random(n)
        return w / w.sum()
    if kind == "zero":
        return np.zeros(n)
    if kind == "equal":
        return np.full(n, 1.0 / n)
    if kind == "one_hot":
        w = np.zeros(n)
        w[rng.integers(n)] = 1.0
        return w
    if kind == "sparse":
        w = rng.random(n) * (rng.random(n) < 0.1)
        return w / w.sum() if w.sum() > 0.0 else w
    if kind == "on_position":
        first = (rng.integers(n) + u) / n
        return np.concatenate(([first], np.full(n - 1, (1.0 - first) / max(n - 1, 1))))
    if kind == "tiny":
        return rng.random(n) * 1e-300
    raise ValueError(f"unknown weight kind {kind!r}")


# the uniforms at and next to the ends of [0, 1), and any other
UNIFORMS = st.one_of(st.sampled_from([0.0, 2.0 ** -60, 1.0 - 2.0 ** -53]),
                     st.floats(0.0, 1.0, exclude_max=True))


class TestSystematicIndices:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2000),
           kind=st.sampled_from(["random", "zero", "equal", "one_hot", "sparse", "tiny",
                                 "on_position"]),
           seed=st.integers(0, 2 ** 32 - 1), u=UNIFORMS)
    def test_matches_the_search_bitwise(self, n, kind, seed, u):
        w = weights_of(kind, n, u, np.random.default_rng(seed))
        expected = reference.systematic_indices(w, u)
        for buffers in ((), (np.empty(n), np.empty(n))):
            idx = _kernels.systematic_indices(w, u, *buffers)
            assert idx.dtype == expected.dtype
            np.testing.assert_array_equal(idx, expected)

    def paths(self, w, u):
        """(indices, number of binary searches run) of systematic_indices."""
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
            idx = _kernels.systematic_indices(w, u)
        return idx, search.call_count

    def test_random_weights_take_the_count_path(self):
        rng = RandomSource(SEED, stream=45).generator()
        for n in (1, 2, 64, 1000):
            u = float(rng.random())
            w = weights_of("random", n, u, rng)
            idx, searches = self.paths(w, u)
            assert searches == 0
            np.testing.assert_array_equal(idx, reference.systematic_indices(w, u))

    def test_equal_weights_at_u_zero_take_the_search(self):
        # every position (i + 0)/n sits on a running sum j/n: a near-tie
        for n in (3, 10, 1000):
            w = np.full(n, 1.0 / n)
            idx, searches = self.paths(w, 0.0)
            assert searches == 1
            np.testing.assert_array_equal(idx, reference.systematic_indices(w, 0.0))

    def test_a_sum_on_a_position_takes_the_search(self):
        # the first running sum equals position i: c_0 n + 1 - u is within
        # rounding of i + 1, where a floor alone is wrong in about 1 case
        # in 25
        rng = RandomSource(SEED, stream=46).generator()
        for _ in range(200):
            n = int(rng.integers(2, 2000))
            u = float(rng.random())
            w = weights_of("on_position", n, u, rng)
            idx, searches = self.paths(w, u)
            assert searches == 1
            np.testing.assert_array_equal(idx, reference.systematic_indices(w, u))

    # (n, u, i) where the first running sum is position i, (i + u)/n, and
    # est_0 = c_0 n + 1 - u lands (2n - 6) 2^-53 below i + 1, within
    # 3n 2^-53 of it, where a floor alone undercounts: as far from its
    # integer as adversarial searches put a wrong floor, so a tol of
    # (2n - 7) 2^-53 or less would take the wrong count
    FAR_TIES = [(11, 0.8576500670620679, 7), (35, 0.14336177532418226, 29),
                (67, 0.981172006748313, 53), (131, 0.4689838808145126, 120)]

    @pytest.mark.parametrize("n, u, i", FAR_TIES)
    def test_a_wrong_floor_far_from_its_integer_takes_the_search(self, n, u, i):
        first = (i + u) / n
        w = np.concatenate(([first], np.full(n - 1, (1.0 - first) / (n - 1))))
        est = first * n + (1.0 - u)  # the kernel's est_0
        assert i + 1 - est == (2 * n - 6) * 2.0 ** -53
        assert math.floor(est) == i  # positions 0 to i are at or below c_0
        idx, searches = self.paths(w, u)
        assert searches == 1
        np.testing.assert_array_equal(idx, reference.systematic_indices(w, u))

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


def packaged(name):
    """A packaged particle scenario's parameters, simulated path, particle
    count, x0, p0 and seed: 1000 steps x 1000 particles, as it runs."""
    sc = load_scenario(name)
    model = MODELS[sc.model]
    p = model.pack([sc.params[f] for f in model.fields])
    simulate = {"heston": simulate_heston, "bates": simulate_bates}[sc.model]
    lns, _ = simulate(p, *(sc.params[k] for k in model.start), sc.dt, sc.n_steps,
                      RandomSource(sc.seed))
    npart = sc.option("n_particles")
    assert (lns.values.shape[0] - 1, npart) == (1000, 1000)
    return p, lns, npart, sc.option("v0_guess"), sc.option("p0"), sc.seed


# the two entry points of the particle EKF on a price path and parameters:
# run(lns, p, p0=1.0) is the log-likelihood of a 10-particle pass
ENTRIES = {
    "particle_ekf_run": lambda lns, p, p0=1.0: particle_ekf_run(
        lns, p, 10, RandomSource(SEED), p0=p0)[1],
    "particle_run": lambda lns, p, p0=1.0: particle_run(
        log_returns(lns), _sv_system(p, lns.dt, log_returns(lns)), 10, RandomSource(SEED), p0=p0)[1],
}


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
        generic = reference.sv_view(heston_ekf_system(p, 0.499, lns))
        states, _ = reference.ekf_run(log_returns(lns), generic, x0=1.0, p0=0.0)
        ekf_means = np.array([st.mean[0] for st in states])
        np.testing.assert_allclose(est.values[1:], ekf_means, atol=1e-12)

    def test_kernel_matches_generic(self):
        src = RandomSource(SEED)
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 120, src)
        est_k, ll_k = particle_ekf_run(lns, HESTON_BASE, 40, RandomSource(SEED))
        view = reference.sv_view(heston_ekf_system(HESTON_BASE, 0.499, lns))
        est_g, ll_g = reference.particle_run(np.diff(lns.values), view, 40, RandomSource(SEED))
        np.testing.assert_allclose(est_k.values, est_g, atol=1e-10)
        assert ll_k == pytest.approx(ll_g, abs=1e-9)

    @pytest.mark.parametrize("name", ["heston_particle", "bates_particle"])
    def test_kernel_matches_generic_on_packaged_series(self, name):
        p, lns, npart, x0, p0, seed = packaged(name)
        est_k, ll_k = particle_ekf_run(lns, p, npart, RandomSource(seed), x0_guess=x0, p0=p0)
        view = reference.sv_view(_sv_system(p, lns.dt, log_returns(lns)))
        est_g, ll_g = reference.particle_run(np.diff(lns.values), view, npart, RandomSource(seed),
                                             x0=x0, p0=p0)
        np.testing.assert_allclose(est_k.values, est_g, atol=1e-10)
        assert ll_k == pytest.approx(ll_g, abs=1e-9)

    @pytest.mark.parametrize("name", ["heston_particle", "bates_particle"])
    def test_particle_run_on_the_system_is_particle_ekf_run(self, name):
        p, lns, npart, x0, p0, seed = packaged(name)
        est, ll = particle_ekf_run(lns, p, npart, RandomSource(seed), x0_guess=x0, p0=p0)
        sys = _sv_system(p, lns.dt, log_returns(lns))
        est_s, ll_s = particle_run(sys.dlns, sys, npart, RandomSource(seed), x0=x0, p0=p0)
        np.testing.assert_array_equal(est.values, est_s)
        assert ll == ll_s

    def test_packaged_pass_holds_no_draw_block(self):
        # a (steps, N) block of draws would be 1000 * 1000 * 8 B = 8 MB; the
        # pass's O(N) buffers are about a dozen arrays of 8 KB
        p, lns, npart, x0, p0, seed = packaged("heston_particle")
        tracemalloc.start()
        try:
            _, ll = particle_ekf_run(lns, p, npart, RandomSource(seed), x0_guess=x0, p0=p0)
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
        est_ref, ll_ref = _kernels.particle_heston_loop_numpy(*args)
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
        # the price at index 6 spoils log-returns 5 and 6: the system builder
        # and both filters name the first bad entry of the series they were
        # given, and every kernel weight dies at (0-based) step 5
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 20, RandomSource(SEED))
        values = lns.values.copy()
        values[6] = bad
        lns = Path(t0=lns.t0, dt=lns.dt, values=values)
        with pytest.raises(DomainError, match="^price_path value at index 6 is not finite$"):
            heston_ekf_system(HESTON_BASE, 0.499, lns)
        sys = _sv_system(HESTON_BASE, 0.499, np.diff(values))
        z0 = RandomSource(SEED, stream=1).normals(50)
        ys = RandomSource(SEED, stream=2).generator().standard_normal((20, 50))
        us = RandomSource(SEED, stream=3).uniforms(20)
        with pytest.raises(DomainError, match="value at index 6 is not finite$"):
            particle_ekf_run(lns, HESTON_BASE, 50, RandomSource(SEED))
        with pytest.raises(DomainError, match="value at index 5 is not finite$"):
            particle_run(np.diff(values), sys, 50, RandomSource(SEED))
        with np.errstate(invalid="ignore"):
            for loop in (_kernels.particle_heston_loop, _kernels.particle_heston_loop_numpy):
                with pytest.raises(DegeneracyError, match="^all particle weights vanished at step 5$"):
                    loop(np.diff(values), 0.499, 0.05, 0.3, 1.5, 0.6, 0.04, 1.0, 1.0, z0, ys, us)

    def test_validation(self):
        src = RandomSource(SEED)
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 10, src)
        with pytest.raises(DomainError, match="^n_particles must be a positive integer, got 0$"):
            particle_ekf_run(lns, HESTON_BASE, 0, RandomSource(SEED))
        with pytest.raises(DomainError):
            particle_ekf_run(lns.values, HESTON_BASE, 10, RandomSource(SEED))
        with pytest.raises(DomainError):
            particle_ekf_run(lns, "heston", 10, RandomSource(SEED))
        short = Path(t0=0.0, dt=0.5, values=np.array([4.6]))
        with pytest.raises(ShapeError):
            particle_ekf_run(short, HESTON_BASE, 10, RandomSource(SEED))

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_xi_zero_needs_p0_zero(self, entry):
        # a point-mass transition gives every spread proposal a weight of
        # about -e_t^2 / 2e-16: the log-likelihood would be near -1e12
        run = ENTRIES[entry]
        p = replace(HESTON_BASE, xi=0.0)
        lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 10, RandomSource(SEED))
        with pytest.raises(DomainError, match=r"^xi = 0 .* p0 must be 0 .*, got p0 = 0\.25$"):
            run(lns, p, p0=0.25)
        bp = BatesParams(heston=p, lam=10.0, jump_size=0.1)
        with pytest.raises(DomainError, match="p0 must be 0"):
            run(lns, bp)
        assert math.isfinite(run(lns, p, p0=0.0))

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_unit_rho_needs_p0_zero(self, rho, entry):
        # xi^2 (1 - rho^2) = 0 makes the transition a point mass as xi = 0
        # does: unchecked, p0 = 1 gives a log-likelihood of -2.9e13 (rho = -1)
        # to -5.4e14 (rho = 1) here
        run = ENTRIES[entry]
        p = replace(HESTON_BASE, rho=rho)
        lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 10, RandomSource(SEED))
        with pytest.raises(DomainError, match=rf"^rho = {rho:g} .* p0 must be 0 .*, got p0 = 1\.0$"):
            run(lns, p)
        bp = BatesParams(heston=p, lam=10.0, jump_size=0.1)
        with pytest.raises(DomainError, match="p0 must be 0"):
            run(lns, bp, p0=0.25)
        run(lns, p, p0=0.0)


    @pytest.mark.parametrize("entry", ["particle_ekf_run", "particle_run"])
    @pytest.mark.parametrize("x0, p0, message", [
        (np.nan, 1.0, "{x0} must be finite"),
        (np.inf, 1.0, "{x0} must be finite"),
        (1.0, np.nan, "p0 must be finite and >= 0, got nan"),
        (1.0, np.inf, "p0 must be finite and >= 0, got inf"),
        (1.0, -1.0, "p0 must be finite and >= 0, got -1.0"),
    ], ids=["x0_nan", "x0_inf", "p0_nan", "p0_inf", "p0_negative"])
    def test_bad_initial_values_rejected_before_any_warning(self, entry, x0, p0, message):
        lns, _ = simulate_heston(HESTON_BASE, 100.0, 1.5, 0.499, 10, RandomSource(SEED))
        sys = heston_ekf_system(HESTON_BASE, 0.499, lns)
        calls = {
            "particle_ekf_run": lambda: particle_ekf_run(
                lns, HESTON_BASE, 10, RandomSource(SEED), x0_guess=x0, p0=p0),
            "particle_run": lambda: particle_run(
                np.diff(lns.values), sys, 10, RandomSource(SEED), x0=x0, p0=p0),
        }
        name = "x0_guess" if entry == "particle_ekf_run" else "x0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^" + message.format(x0=name) + "$"):
                calls[entry]()


class TestParticleRunOnLinearToy:
    """The reference particle loop on a linear toy, against the exact Kalman
    filter; particle_run itself filters only an SvSystem."""

    A, Q, R = 0.9, 0.3, 0.5
    # the oracles' passes per particle count and their particle counts
    K, NS = 100, (100, 400)

    def exact(self, y):
        """The Kalman filter's states and exact log-likelihood of y."""
        sys = LinearStateSpace(a=self.A, b=0.0, q=self.Q, h=1.0, r=self.R, x0=0.0, p0=1.0)
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
        rel = []
        for k in range(20):
            _, ll = reference.particle_run(y, sys, 4000, RandomSource(SEED + k), x0=0.0, p0=1.0)
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
        out = {}
        for n in self.NS:
            diffs, sq = [], []
            for k in range(self.K):
                est, ll = reference.particle_run(y, sys, n, RandomSource(SEED + k), x0=0.0, p0=1.0)
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
        est, _ = reference.particle_run(y, sys, 500, RandomSource(SEED), x0=0.0, p0=1.0)
        assert rmse(est[1:], y) < math.sqrt(self.R) * 1.5

    @pytest.mark.parametrize("n", [100, 1000])
    def test_outlier_keeps_the_weights_finite(self, n):
        # at 60 every proposal sits dozens of transition sds from f(x_prev):
        # a density would underflow to 0 for all of them, a log weight stays
        # finite
        sys = random_walk_system(q=self.Q, r=self.R, a=self.A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(20):
                est, ll = reference.particle_run([0.3, -0.2, 60.0, 0.1], sys, n,
                                                 RandomSource(seed), x0=0.0, p0=1.0)
                assert math.isfinite(ll)
                assert np.isfinite(est).all()

    def test_rejects_empty_series(self):
        with pytest.raises(ShapeError):
            particle_run([], short_heston_system(), 10, RandomSource(SEED))


class TestParticleEkfRunByQuadrature:
    """particle_ekf_run's one-step likelihood against the predictive density
    of the first return, by quadrature over the variance.

    With p0 = 0 every particle starts at x0, so exp(ll) is an unbiased
    estimate of p(y) = integral of N(y; (mu - v/2) dt, v dt) N(v; m, s2) dv
    with m = a x0 + (kappa theta - rho xi mu) dt + rho xi y and
    s2 = xi^2 (1 - rho^2) dt x0.  With y < mu dt, the kernel's variance
    floor (v dt at or below 1e-16) meets only residuals far out in the
    tail, so the integral over v > 0 is the kernel's target.
    """

    P = HestonParams(mu_s=0.04, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)
    DT, X0, Y = 0.499, 1.5, -0.5
    # the passes per particle count and the particle counts
    K, NS = 200, (100, 400)

    def density(self):
        p, dt, y = self.P, self.DT, self.Y
        a = 1.0 - (p.kappa - 0.5 * p.rho * p.xi) * dt
        m = a * self.X0 + (p.kappa * p.theta_v - p.rho * p.xi * p.mu_s) * dt + p.rho * p.xi * y
        s2 = p.xi**2 * (1.0 - p.rho**2) * dt * self.X0

        def integrand(v):
            return normal_pdf(y, (p.mu_s - 0.5 * v) * dt, np.sqrt(v * dt)) * normal_pdf(
                v, m, math.sqrt(s2))

        # from just above 0: normal_pdf needs a positive v dt
        return trapezoid_quadrature(integrand, 1e-9, m + 14.0 * math.sqrt(s2))

    @pytest.mark.parametrize("n", NS)
    def test_likelihood_estimate_is_unbiased(self, n):
        assert self.Y < self.P.mu_s * self.DT
        series = Path(t0=0.0, dt=self.DT, values=[0.0, self.Y])
        lik = np.array([
            math.exp(particle_ekf_run(series, self.P, n, RandomSource(SEED + k),
                                      x0_guess=self.X0, p0=0.0)[1])
            for k in range(self.K)
        ])
        se = np.std(lik, ddof=1) / math.sqrt(self.K)
        assert abs(float(np.mean(lik)) - self.density()) <= 4.0 * se


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
        est_a, ll_a = _kernels.particle_heston_loop(*args)
        est_b, ll_b = _kernels.particle_heston_loop_numpy(*args)
        np.testing.assert_allclose(est_a, est_b, atol=1e-10)
        assert ll_a == pytest.approx(ll_b, abs=1e-9)

    def test_numpy_twin_matches_reference_loop_at_the_proposal_floor(self):
        # high xi with a low mean: at step 43 the proposal variance phat is
        # about 9e-17, where x_t - xhat would cancel most of its digits, so
        # both loops take the proposal's offset as sqrt(phat) * draw
        params = HestonParams(mu_s=0.05, kappa=0.3, theta_v=0.2, xi=3.0, rho=-0.5)
        _, args = kernel_args(params, 0.2, 1.0, 1.0, seed=2)
        est_a, ll_a = _kernels.particle_heston_loop(*args)
        est_b, ll_b = _kernels.particle_heston_loop_numpy(*args)
        np.testing.assert_allclose(est_a, est_b, atol=1e-10)
        assert ll_a == pytest.approx(ll_b, abs=1e-9)

    @pytest.mark.parametrize("regime", FLOOR_REGIMES)
    @pytest.mark.parametrize("seed", [SEED, 1, 2])
    def test_numpy_step_matches_scalar_loop_at_the_floors(self, regime, seed):
        params, v0, x0, p0 = FLOOR_REGIMES[regime]
        _, args = kernel_args(params, v0, x0, p0, seed=seed)
        est_a, ll_a = _kernels.particle_heston_loop(*args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(under="ignore"):
                est_b, ll_b = _kernels.particle_heston_loop_numpy(*args)
        np.testing.assert_allclose(est_a, est_b, atol=1e-10)
        assert ll_a == pytest.approx(ll_b, abs=1e-9)

    def test_feller_regime_proposes_negative_variances(self):
        # a lone particle's estimates are its proposals
        params, v0, x0, p0 = FLOOR_REGIMES["feller_violated"]
        lns, _ = kernel_args(params, v0, x0, p0)
        view = reference.sv_view(heston_ekf_system(params, 0.499, lns))
        est, _ = reference.particle_run(np.diff(lns.values), view, 1, RandomSource(SEED),
                                        x0=x0, p0=p0)
        assert (est[1:] < 0.0).any()

    @pytest.mark.parametrize("regime", ["default", *FLOOR_REGIMES])
    def test_generic_runner_matches_scalar_loop(self, regime):
        # the literal loop on kernel_args' block of draws is the generic
        # loop's independent reference: the named draw streams, the weights,
        # the log increment and the resampling
        params, v0, x0, p0 = FLOOR_REGIMES.get(regime, (HESTON_BASE, 1.5, 1.0, 1.0))
        lns, args = kernel_args(params, v0, x0, p0)
        est_a, ll_a = _kernels.particle_heston_loop(*args)
        view = reference.sv_view(heston_ekf_system(params, 0.499, lns))
        est_g, ll_g = reference.particle_run(np.diff(lns.values), view, 64, RandomSource(SEED),
                                             x0=x0, p0=p0)
        np.testing.assert_allclose(est_g, est_a, atol=1e-10)
        assert ll_g == pytest.approx(ll_a, abs=1e-9)

    def test_xi_zero_with_spread_matches_scalar_loop_to_its_precision(self):
        # every weight carries -e_t^2 / (2 * 1e-16): the log-likelihood is
        # about -1e12, where one ulp is 1.2e-4, so it agrees relatively
        _, args = kernel_args(replace(HESTON_BASE, xi=0.0), 1.5, 1.0, 1.0)
        est_a, ll_a = _kernels.particle_heston_loop(*args)
        est_b, ll_b = _kernels.particle_heston_loop_numpy(*args)
        np.testing.assert_allclose(est_a, est_b, atol=1e-10)
        assert ll_a < -1e11
        assert ll_a == pytest.approx(ll_b, rel=1e-13)
