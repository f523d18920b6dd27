"""Particle extended Kalman filter specialized to stochastic volatility.

Each particle carries its own EKF mean/variance pair; proposals are drawn
from the per-particle posterior, importance weights combine observation,
transition, and proposal densities in log space, and systematic resampling
runs after every step.

particle_ekf_run takes Heston or Bates parameters and always runs the fused
array kernel, _kernels.particle_heston_loop_numpy.  particle_run is the
generic runner for a user-supplied NonlinearSystem and ProposalDensities,
one loop over arrays of particle values, EKF variances and weights; it
reads the callables and the system's q and r, and ignores kernel_hint.
Both take their draws from src through _draws, so they take the same ones:
each step's proposal normals and resampling uniform are drawn when the
filter reaches that step, and a pass over N particles holds O(N) draws.
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
    normal_pdf,
)
from .kalman import NonlinearSystem, _filter_inputs
from .models import BatesParams, HestonParams

# density standard deviations never drop below this, so a collapsed
# variance estimate cannot divide by zero
STD_FLOOR = 1e-8


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


def _sv_densities(mu_eff, kappa, theta_v, xi, rho, dt) -> ProposalDensities:
    wc = xi * math.sqrt(1.0 - rho * rho) * math.sqrt(dt)

    def p_obs(ctx):
        std = np.maximum(np.sqrt(np.maximum(ctx.x_new, 0.0) * dt), STD_FLOOR)
        return normal_pdf(ctx.y, (mu_eff - 0.5 * ctx.x_new) * dt, std)

    def p_trans(ctx):
        mean = (
            ctx.x_prev
            + (kappa * (theta_v - ctx.x_prev) - rho * xi * (mu_eff - 0.5 * ctx.x_prev)) * dt
            + rho * xi * ctx.y
        )
        std = np.maximum(wc * np.sqrt(np.maximum(ctx.x_prev, 0.0)), STD_FLOOR)
        return normal_pdf(ctx.x_new, mean, std)

    def q(ctx):
        std = np.maximum(np.sqrt(ctx.ekf_var), STD_FLOOR)
        return normal_pdf(ctx.x_new, ctx.ekf_mean, std)

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
    dens: ProposalDensities,
    n_particles: int,
    src,
    x0: float = 1.0,
    p0: float = 1.0,
):
    """Generic particle EKF over plain arrays; returns (estimates, log_lik).

    Every step EKF-updates each particle, draws its proposal from that
    posterior, weights it by p_obs * p_trans / q and resamples
    systematically.  estimates[0] is the initial particle mean, estimates[t]
    the weighted mean after assimilating measurement t-1; t in a
    WeightContext or a DegeneracyError is the 0-based measurement index.
    x0 and p0 must be finite, with p0 >= 0.
    """
    y = _filter_inputs(series, x0, p0)
    n = n_particles
    if n < 1:
        raise ShapeError("need at least one particle")

    z0, proposals, uniforms = _draws(src, n)
    x = float(x0) + math.sqrt(float(p0)) * z0
    p = np.full(n, float(p0))
    log_uniform = np.log(np.full(n, 1.0 / n))
    est = np.empty(y.shape[0] + 1)
    est[0] = float(x.mean())
    ll = 0.0
    for t in range(y.shape[0]):
        yt = float(y[t])
        x_pred = np.asarray(sys.f(x, t), dtype=float)
        a = np.asarray(sys.jac_a(x, t), dtype=float)
        w = np.asarray(sys.jac_w(x, t), dtype=float)
        p_prior = a * a * p + w * w * sys.q
        hc = np.asarray(sys.jac_h(x_pred, t), dtype=float)
        eps = np.asarray(sys.jac_e(x_pred, t), dtype=float)
        s = np.maximum(hc * hc * p_prior + eps * eps * sys.r, 1e-16)
        k = p_prior * hc / s
        ekf_mean = x_pred + k * (yt - np.asarray(sys.h(x_pred, t), dtype=float))
        ekf_var = np.maximum((1.0 - k * hc) * p_prior, 0.0)
        x_new = ekf_mean + np.sqrt(ekf_var) * proposals[t]

        ctx = WeightContext(
            x_new=x_new, x_prev=x, ekf_mean=ekf_mean, ekf_var=ekf_var, y=yt, t=t
        )
        with np.errstate(divide="ignore"):
            logw = (
                log_uniform
                + np.log(np.asarray(dens.p_obs(ctx), dtype=float))
                + np.log(np.asarray(dens.p_trans(ctx), dtype=float))
                - np.log(np.asarray(dens.q(ctx), dtype=float))
            )
        # the largest shifted weight is exp(0) = 1, so a finite maximum
        # leaves a finite, positive total
        m = float(np.max(logw))
        if not math.isfinite(m):
            raise DegeneracyError(f"all particle weights vanished at step {t}")
        weights = np.exp(logw - m)
        total = float(weights.sum())
        weights = weights / total
        est[t + 1] = float(weights @ x_new)
        ll += m + math.log(total)

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
    finite, with p0 >= 0, and p0 = 0 when xi = 0.
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

    if h.xi == 0.0 and p0 > 0.0:
        raise DomainError(
            "xi = 0 makes the variance transition a point mass, so p0 must be 0 "
            f"with it, got p0 = {float(p0)}")

    z0, ys, us = _draws(src, n_particles)
    est, ll, status, bad = _kernels.particle_heston_loop_numpy(
        np.diff(values), series.dt, mu_eff, h.kappa, h.theta_v, h.xi, h.rho,
        float(x0_guess), float(p0), z0, ys, us,
    )
    if status != 0:
        raise DegeneracyError(f"all particle weights vanished at step {bad - 1}")
    return Path(t0=series.t0, dt=series.dt, values=est, seed=src), float(ll)
