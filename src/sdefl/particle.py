"""Particle extended Kalman filter specialized to stochastic volatility.

Each particle carries its own EKF mean/variance pair; proposals are drawn
from the per-particle posterior, importance weights combine observation,
transition, and proposal densities in log space, and systematic resampling
runs after every step (an effective-sample-size trigger is available for
the generic runner).

particle_ekf_run takes Heston or Bates parameters and always runs the fused
kernel.  particle_run is the generic runner for a user-supplied
NonlinearSystem and ProposalDensities; it reads the callables and the
system's q and r, and ignores kernel_hint.
"""

import math
from dataclasses import dataclass
from typing import Callable

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
from .kalman import NonlinearSystem
from .models import BatesParams, HestonParams

LOG2PI = math.log(2.0 * math.pi)

# density standard deviations never drop below this, so a collapsed
# variance estimate cannot divide by zero
STD_FLOOR = 1e-8


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted ensemble of scalar states with per-particle variances.

    log_increment is ln(l_t) contributed by the weighting step that
    produced this cloud (0 for a freshly initialized one); resampling
    carries it through unchanged.
    """

    values: np.ndarray
    weights: np.ndarray
    covariances: np.ndarray
    log_increment: float = 0.0

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        covs = np.atleast_1d(np.asarray(self.covariances, dtype=float))
        if values.shape[0] < 1:
            raise ShapeError("cloud needs at least one particle")
        if weights.shape != values.shape or covs.shape != values.shape:
            raise ShapeError("values, weights, covariances must have equal length")
        if np.any(weights < 0.0):
            raise DomainError("weights must be non-negative")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise DomainError("weights must sum to 1")
        if np.any(covs < 0.0):
            raise DomainError("covariances must be >= 0")
        for name, arr in (("values", values), ("weights", weights), ("covariances", covs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WeightContext:
    """Everything the weighting densities may look at during one step."""

    x_new: np.ndarray
    x_prev: np.ndarray
    ekf_mean: np.ndarray
    ekf_var: np.ndarray
    y: float
    t: int


@dataclass(frozen=True)
class ProposalDensities:
    """Observation, transition, and proposal densities of a WeightContext.

    Each callable returns non-negative density values broadcast over the
    particles; passing p_trans as q makes the proposal correction cancel
    exactly.
    """

    p_obs: Callable
    p_trans: Callable
    q: Callable


def effective_sample_size(cloud: ParticleCloud) -> float:
    """1 / sum(w^2): N for uniform weights, 1 for a degenerate cloud."""
    return 1.0 / float(np.sum(cloud.weights * cloud.weights))


def init_cloud(x0: float, p0: float, n: int, src) -> ParticleCloud:
    """n particles x0 + sqrt(P0) * Z with uniform weights and variance P0."""
    if n < 1:
        raise ShapeError("need at least one particle")
    if p0 < 0.0:
        raise DomainError("P0 must be >= 0")
    z = src.substream(STREAM_PF_INIT).normals(n)
    values = float(x0) + math.sqrt(float(p0)) * z
    return ParticleCloud(
        values=values,
        weights=np.full(n, 1.0 / n),
        covariances=np.full(n, float(p0)),
    )


def propagate_and_weight(
    cloud: ParticleCloud,
    sys: NonlinearSystem,
    dens: ProposalDensities,
    y: float,
    src,
    t: int = 0,
) -> ParticleCloud:
    """EKF-step every particle, draw proposals, reweight, normalize.

    t indexes the measurement (0-based); it selects the proposal substream
    and is handed to the system callables and density contexts.
    """
    x_prev = cloud.values
    p_prev = cloud.covariances

    x_pred = np.asarray(sys.f(x_prev, t), dtype=float)
    a = np.asarray(sys.jac_a(x_prev, t), dtype=float)
    w = np.asarray(sys.jac_w(x_prev, t), dtype=float)
    p_prior = a * a * p_prev + w * w * sys.q
    hc = np.asarray(sys.jac_h(x_pred, t), dtype=float)
    eps = np.asarray(sys.jac_e(x_pred, t), dtype=float)
    s = np.maximum(hc * hc * p_prior + eps * eps * sys.r, 1e-16)
    k = p_prior * hc / s
    resid = float(y) - np.asarray(sys.h(x_pred, t), dtype=float)
    ekf_mean = x_pred + k * resid
    ekf_var = np.maximum((1.0 - k * hc) * p_prior, 0.0)

    draws = src.substream(STREAM_PF_PROPOSAL).substream(t).normals(cloud.n)
    x_new = ekf_mean + np.sqrt(ekf_var) * draws

    ctx = WeightContext(
        x_new=x_new, x_prev=x_prev, ekf_mean=ekf_mean, ekf_var=ekf_var,
        y=float(y), t=t,
    )
    with np.errstate(divide="ignore"):
        logw = (
            np.log(cloud.weights)
            + np.log(np.asarray(dens.p_obs(ctx), dtype=float))
            + np.log(np.asarray(dens.p_trans(ctx), dtype=float))
            - np.log(np.asarray(dens.q(ctx), dtype=float))
        )
    m = float(np.max(logw))
    if not math.isfinite(m):
        raise DegeneracyError(f"all particle weights vanished at step {t}")
    shifted = np.exp(logw - m)
    total = float(shifted.sum())
    if total <= 0.0 or not math.isfinite(total):
        raise DegeneracyError(f"all particle weights vanished at step {t}")
    return ParticleCloud(
        values=x_new,
        weights=shifted / total,
        covariances=ekf_var,
        log_increment=m + math.log(total),
    )


def resample(cloud: ParticleCloud, src, t: int = 0) -> ParticleCloud:
    """Systematic resampling: one uniform draw, stratified cumulative sweep."""
    u = float(src.substream(STREAM_PF_RESAMPLE).substream(t).uniforms(1)[0])
    idx = _kernels.systematic_indices(cloud.weights, u)
    return ParticleCloud(
        values=cloud.values[idx],
        weights=np.full(cloud.n, 1.0 / cloud.n),
        covariances=cloud.covariances[idx],
        log_increment=cloud.log_increment,
    )


def _gauss(x, mean, std):
    z = (np.asarray(x, dtype=float) - mean) / std
    return np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))


def _sv_densities(mu_eff, kappa, theta_v, xi, rho, dt) -> ProposalDensities:
    wc = xi * math.sqrt(1.0 - rho * rho) * math.sqrt(dt)

    def p_obs(ctx):
        std = np.maximum(np.sqrt(np.maximum(ctx.x_new, 0.0) * dt), STD_FLOOR)
        return _gauss(ctx.y, (mu_eff - 0.5 * ctx.x_new) * dt, std)

    def p_trans(ctx):
        mean = (
            ctx.x_prev
            + (kappa * (theta_v - ctx.x_prev) - rho * xi * (mu_eff - 0.5 * ctx.x_prev)) * dt
            + rho * xi * ctx.y
        )
        std = np.maximum(wc * np.sqrt(np.maximum(ctx.x_prev, 0.0)), STD_FLOOR)
        return _gauss(ctx.x_new, mean, std)

    def q(ctx):
        std = np.maximum(np.sqrt(ctx.ekf_var), STD_FLOOR)
        return _gauss(ctx.x_new, ctx.ekf_mean, std)

    return ProposalDensities(p_obs=p_obs, p_trans=p_trans, q=q)


def heston_densities(p: HestonParams, dt: float) -> ProposalDensities:
    """Observation/transition/proposal densities for the variance state.

    The observation is the log-return; the current return also enters the
    transition mean as a known input, mirroring the EKF system.
    """
    if dt <= 0.0:
        raise DomainError("dt must be > 0")
    return _sv_densities(p.mu_s, p.kappa, p.theta_v, p.xi, p.rho, dt)


def bates_densities(p: BatesParams, dt: float) -> ProposalDensities:
    """Same densities with the jump-compensated drift."""
    if dt <= 0.0:
        raise DomainError("dt must be > 0")
    h = p.heston
    return _sv_densities(p.mu_eff, h.kappa, h.theta_v, h.xi, h.rho, dt)


def particle_run(
    series,
    sys: NonlinearSystem,
    dens: ProposalDensities,
    n_particles: int,
    src,
    x0: float = 1.0,
    p0: float = 1.0,
    resample_when: str = "always",
):
    """Generic particle filter loop; returns (estimates, log_lik).

    estimates[0] is the initial cloud mean, estimates[t] the weighted mean
    after assimilating measurement t-1.  resample_when 'ess' resamples only
    when the effective sample size drops below half the cloud.
    """
    if resample_when not in ("always", "ess"):
        raise DomainError("resample_when must be 'always' or 'ess'")
    y = series.values if isinstance(series, Path) else np.asarray(series, dtype=float)
    if y.ndim != 1 or y.shape[0] < 1:
        raise ShapeError("series must hold at least one measurement")

    cloud = init_cloud(x0, p0, n_particles, src)
    est = np.empty(y.shape[0] + 1)
    est[0] = float(cloud.values.mean())
    ll = 0.0
    for j in range(y.shape[0]):
        cloud = propagate_and_weight(cloud, sys, dens, y[j], src, t=j)
        est[j + 1] = float(cloud.weights @ cloud.values)
        ll += cloud.log_increment
        if resample_when == "always" or effective_sample_size(cloud) < 0.5 * n_particles:
            cloud = resample(cloud, src, t=j)
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
    the draws particle_run would take from src.
    """
    if n_particles < 1:
        raise ShapeError("need at least one particle")
    if not isinstance(series, Path):
        raise DomainError("series must be a Path carrying dt")
    if series.values.ndim != 1 or series.values.shape[0] < 2:
        raise ShapeError("series must hold at least 2 points")

    if isinstance(p, BatesParams):
        h, mu_eff = p.heston, p.mu_eff
    elif isinstance(p, HestonParams):
        h, mu_eff = p, p.mu_s
    else:
        raise DomainError("params must be HestonParams or BatesParams")

    dlns = np.diff(series.values)
    n = dlns.shape[0]
    z0 = src.substream(STREAM_PF_INIT).normals(n_particles)
    prop = src.substream(STREAM_PF_PROPOSAL)
    res = src.substream(STREAM_PF_RESAMPLE)
    ys = np.empty((n, n_particles))
    us = np.empty(n)
    for t in range(n):
        ys[t] = prop.substream(t).normals(n_particles)
        us[t] = res.substream(t).uniforms(1)[0]
    loop = (
        _kernels.particle_heston_loop
        if _kernels.USING_NUMBA
        else _kernels.particle_heston_loop_numpy
    )
    est, ll, status, bad = loop(
        dlns, series.dt, mu_eff, h.kappa, h.theta_v, h.xi, h.rho,
        float(x0_guess), float(p0), z0, ys, us,
    )
    if status != 0:
        raise DegeneracyError(f"all particle weights vanished at step {bad - 1}")
    return Path(t0=series.t0, dt=series.dt, values=est, seed=src), float(ll)
