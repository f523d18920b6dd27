"""Particle extended Kalman filter specialized to stochastic volatility.

Each particle carries its own EKF mean/variance pair; proposals are drawn
from the per-particle posterior, importance weights combine observation,
transition, and proposal densities in log space, and systematic resampling
runs after every step.  All three densities follow from the state-space
model and the EKF's own moments, so a filter reads them from its system.

particle_ekf_run takes Heston or Bates parameters and always runs the fused
array kernel, _kernels.particle_heston_loop_numpy.  particle_run is the
generic runner for a NonlinearSystem or an SvSystem, one loop over arrays
of particle values, EKF variances and weights; it reads the system's f, h
and Jacobians and its q and r, and weighs with the kernel's expression.
Both take their draws from src through _draws, so they take the same ones:
each step's proposal normals and resampling uniform are drawn when the
filter reaches that step, and a pass over N particles holds O(N) draws.
"""

import math

import numpy as np

from . import _kernels
from .core import (
    STREAM_PF_INIT,
    STREAM_PF_PROPOSAL,
    STREAM_PF_RESAMPLE,
    DegeneracyError,
    DomainError,
    Path,
    ShapeError,
)
from .kalman import NonlinearSystem, _filter_inputs
from .models import BatesParams, HestonParams


class _Proposals:
    """proposals[t] is step t's N(0, 1) proposal draws, one per particle,
    drawn when it is read."""

    __slots__ = ("stream", "n")

    def __init__(self, src, n):
        self.stream, self.n = src.substream(STREAM_PF_PROPOSAL), n

    def __getitem__(self, t):
        return self.stream.substream(t).normals(self.n)


class _Uniforms:
    """uniforms[t] is step t's resampling uniform, drawn when it is read."""

    __slots__ = ("stream",)

    def __init__(self, src):
        self.stream = src.substream(STREAM_PF_RESAMPLE)

    def __getitem__(self, t):
        return self.stream.substream(t).uniforms(1)[0]


def _draws(src, n):
    """A particle pass's draws from src for n particles: the initial
    spread's normals, and step-indexed proposals and resampling uniforms."""
    return src.substream(STREAM_PF_INIT).normals(n), _Proposals(src, n), _Uniforms(src)


def particle_run(
    series,
    sys: NonlinearSystem,
    n_particles: int,
    src,
    x0: float = 1.0,
    p0: float = 1.0,
):
    """Generic particle EKF over plain arrays; returns (estimates, log_lik).

    Every step EKF-updates each particle, draws its proposal from that
    posterior and resamples systematically.  The weights come from the
    system itself: with observation residual e_o = y - h(x_t), transition
    residual e_t = x_t - f(x_prev) and proposal offset d = sqrt(ekf_var) z,
    each particle's log weight is

        -(e_o^2/var_obs + e_t^2/var_tr - d^2/var_q + log(var_obs var_tr/var_q)) / 2

    with var_obs = jac_e(x_t)^2 r, var_tr = jac_w(x_prev)^2 q and var_q =
    ekf_var, each floored at _kernels.VAR_FLOOR, the same expression as
    _kernels.particle_heston_loop_numpy; -log N - log(2 pi)/2 joins the
    log-likelihood once per step.  estimates[0] is the initial particle
    mean, estimates[t] the weighted mean after assimilating measurement
    t-1; t in a DegeneracyError is the 0-based measurement index.  x0 and
    p0 must be finite, with p0 >= 0.
    """
    y = _filter_inputs(series, x0, p0)
    n = n_particles
    if n < 1:
        raise ShapeError("need at least one particle")

    z0, proposals, uniforms = _draws(src, n)
    x = float(x0) + math.sqrt(float(p0)) * z0
    p = np.full(n, float(p0))
    const = -math.log(n) - 0.5 * _kernels.LOG2PI
    floor = _kernels.VAR_FLOOR
    est = np.empty(y.shape[0] + 1)
    est[0] = float(x.mean())
    ll = 0.0
    for t in range(y.shape[0]):
        yt = float(y[t])
        x_pred = np.asarray(sys.f(x, t), dtype=float)
        a = np.asarray(sys.jac_a(x, t), dtype=float)
        w = np.asarray(sys.jac_w(x, t), dtype=float)
        var_tr = w * w * sys.q
        p_prior = a * a * p + var_tr
        hc = np.asarray(sys.jac_h(x_pred, t), dtype=float)
        eps = np.asarray(sys.jac_e(x_pred, t), dtype=float)
        s = np.maximum(hc * hc * p_prior + eps * eps * sys.r, floor)
        k = p_prior * hc / s
        ekf_mean = x_pred + k * (yt - np.asarray(sys.h(x_pred, t), dtype=float))
        ekf_var = np.maximum((1.0 - k * hc) * p_prior, 0.0)
        d = np.sqrt(ekf_var) * proposals[t]  # the proposal's offset from ekf_mean
        x_new = ekf_mean + d

        e_obs = yt - np.asarray(sys.h(x_new, t), dtype=float)
        eps_new = np.asarray(sys.jac_e(x_new, t), dtype=float)
        var_obs = np.maximum(eps_new * eps_new * sys.r, floor)
        var_tr = np.maximum(var_tr, floor)
        var_q = np.maximum(ekf_var, floor)
        e_tr = x_new - x_pred
        # log weight, negated and doubled, less its constant
        u = (e_obs * e_obs / var_obs + e_tr * e_tr / var_tr - d * d / var_q
             + np.log(var_obs * var_tr / var_q))
        # the particle at the minimum weighs exp(0) = 1, so a finite minimum
        # leaves a finite, positive total
        low = float(u.min())
        if not math.isfinite(low):
            raise DegeneracyError(f"all particle weights vanished at step {t}")
        weights = np.exp(-0.5 * (u - low))
        total = float(weights.sum())
        weights /= total
        est[t + 1] = float(weights @ x_new)
        ll += const - 0.5 * low + math.log(total)

        idx = _kernels.systematic_indices(weights, float(uniforms[t]))
        x, p = x_new[idx], ekf_var[idx]
    return est, ll


def particle_ekf_run(
    series: Path,
    p,
    n_particles: int,
    src,
    x0_guess: float = 1.0,
    p0: float = 1.0,
):
    """Filter a log-price path's variance with the particle EKF.

    p is HestonParams or BatesParams; returns (estimates Path aligned with
    the input grid, accumulated log-likelihood).  Runs the fused kernel on
    the draws particle_run would take from src.  x0_guess and p0 must be
    finite, with p0 >= 0, and p0 = 0 when xi = 0 or |rho| = 1.
    """
    if n_particles < 1:
        raise ShapeError("need at least one particle")
    if not isinstance(series, Path):
        raise DomainError("series must be a Path carrying dt")
    if series.values.ndim != 1 or series.values.shape[0] < 2:
        raise ShapeError("series must hold at least 2 points")
    values = _filter_inputs(series, x0_guess, p0, "x0_guess")

    if isinstance(p, BatesParams):
        h, mu_eff = p.heston, p.mu_eff
    elif isinstance(p, HestonParams):
        h, mu_eff = p, p.mu_s
    else:
        raise DomainError("params must be HestonParams or BatesParams")

    # the transition variance xi^2 (1 - rho^2) v dt is 0: every spread
    # proposal would meet the 1e-16 variance floor
    if h.xi * h.xi * (1.0 - h.rho * h.rho) == 0.0 and p0 > 0.0:
        cause = f"rho = {h.rho:g}" if abs(h.rho) == 1.0 else f"xi = {h.xi:g}"
        raise DomainError(
            f"{cause} makes the variance transition a point mass, so p0 must be 0 "
            f"with it, got p0 = {float(p0)}")

    z0, ys, us = _draws(src, n_particles)
    est, ll, status, bad = _kernels.particle_heston_loop_numpy(
        np.diff(values), series.dt, mu_eff, h.kappa, h.theta_v, h.xi, h.rho,
        float(x0_guess), float(p0), z0, ys, us,
    )
    if status != 0:
        raise DegeneracyError(f"all particle weights vanished at step {bad - 1}")
    return Path(t0=series.t0, dt=series.dt, values=est, seed=src), float(ll)
