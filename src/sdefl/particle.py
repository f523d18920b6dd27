"""Particle extended Kalman filter specialized to stochastic volatility.

Each particle carries its own EKF mean/variance pair; proposals are drawn
from the per-particle posterior, importance weights combine observation,
transition, and proposal densities in log space, and systematic resampling
runs after every step.  All three densities follow from the state-space
model and the EKF's own moments, so a filter reads them from its system.

particle_run runs an SvSystem (Heston/Bates) through the fused array kernel
_kernels.particle_heston_loop_numpy, checking its inputs in the EKF's
kalman._filter_inputs.  particle_ekf_run checks a price Path itself, builds
its SvSystem from Heston or Bates parameters and runs particle_run's pass on
the system's own returns, scanning the prices once.  The generic loop over
callables, which the tests compare the kernel against, is in
tests/reference.py.  Every pass takes its draws from src through _draws:
each step's proposal normals and resampling uniform are drawn when the
filter reaches that step, so a pass over N particles holds O(N) draws.
"""

import numpy as np

from . import _kernels
from .core import (
    STREAM_PF_INIT,
    STREAM_PF_PROPOSAL,
    STREAM_PF_RESAMPLE,
    DomainError,
    Path,
    _count,
    _scalar,
    _series,
    _variance,
)
from .kalman import SvSystem, _filter_inputs, _sv_system


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
    sys: SvSystem,
    n_particles: int,
    src,
    x0: float = 1.0,
    p0: float = 1.0,
):
    """Particle EKF over an SvSystem's returns; returns (estimates, log_lik).

    Every step EKF-updates each particle, draws its proposal from that
    posterior and resamples systematically.  The weights come from the
    system itself: with the SvSystem's maps f and h, observation residual
    e_o = y - h(x_t), transition residual e_t = x_t - f(x_prev) and
    proposal offset d = sqrt(ekf_var) z, each particle's log weight is

        -(e_o^2/var_obs + e_t^2/var_tr - d^2/var_q + log(var_obs var_tr/var_q)) / 2

    with the observation variance var_obs = dt max(x_t, 0), the transition
    variance var_tr = xi^2 (1 - rho^2) dt max(x_prev, 0) and var_q =
    ekf_var, each floored at _kernels.VAR_FLOOR; -log N - log(2 pi)/2 joins
    the log-likelihood once per step.  The fused kernel computes this over
    the system's own returns or a prefix of them; p0 must be 0 when xi = 0
    or |rho| = 1.  estimates[0] is the initial particle mean, estimates[t]
    the weighted mean after assimilating measurement t-1; t in a
    DegenerateSystemError is the 0-based measurement index.  x0 and p0 must be
    finite scalars, with p0 >= 0.
    """
    y = _filter_inputs(series, sys, x0, p0)
    return _particle_pass(y, sys, _count(n_particles, "n_particles"), src, x0, p0)


def _check_p0(xi, rho, p0):
    """Raise DomainError unless p0 = 0 where the transition variance
    xi^2 (1 - rho^2) v dt is 0 (xi = 0 or |rho| = 1): every spread proposal
    would meet the 1e-16 variance floor."""
    if xi * xi * (1.0 - rho * rho) == 0.0 and p0 > 0.0:
        cause = f"rho = {rho:g}" if abs(rho) == 1.0 else f"xi = {xi:g}"
        raise DomainError(f"{cause} makes the variance transition a point mass, so p0 "
                          f"must be 0 with it, got p0 = {float(p0)}")


def _particle_pass(y, sys: SvSystem, n, src, x0, p0):
    """particle_run on inputs it has checked: y is sys.dlns or a prefix."""
    _check_p0(sys.xi, sys.rho, p0)
    est, ll = _kernels.particle_heston_loop_numpy(
        y, sys.dt, sys.mu_eff, sys.kappa, sys.theta_v, sys.xi, sys.rho,
        float(x0), float(p0), *_draws(src, n),
    )
    return est, float(ll)


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
    the input grid, accumulated log-likelihood) of particle_run on p's
    SvSystem over the path's log-returns.  x0_guess and p0 must be finite,
    with p0 >= 0, and p0 = 0 when xi = 0 or |rho| = 1.
    """
    values = _series(series, 2, array=False)
    _scalar(x0_guess, "x0_guess")
    _variance(p0, "p0")
    n = _count(n_particles, "n_particles")
    sys = _sv_system(p, series.dt, np.diff(values))
    est, ll = _particle_pass(sys.dlns, sys, n, src, x0_guess, p0)
    return Path(t0=series.t0, dt=series.dt, values=est, seed=src), ll
