"""Reference filters that the tests compare the production filters against.

The package filters an SvSystem only through its fused kernels, and a
LinearStateSpace through kalman_run.  This module holds the same algorithms
written once, generically, over a NonlinearSystem of callables:

- ekf_step and ekf_run, the extended Kalman filter;
- particle_run, the particle EKF as one loop over arrays of particles, with
  the kernel's log-space weight and floors and the same named draws;
- systematic_indices, systematic resampling as a binary search, the oracle
  for the kernel's offspring-count version, and the one particle_run uses;
- linear_view and sv_view, which state a LinearStateSpace and an SvSystem
  as such callables;
- central_differences, the reference for the exact scores of the fits;
- doubling_scan_full and kalman_ou_full_passes: the scalar OU Kalman
  kernel's doubling scan, and the kernel, over the full pass sequence,
  with no early stop.

The EKF of a linear system is the Kalman filter, so ekf_run over
linear_view(sys) is a reference for kalman_run; over sv_view(sys) it and
particle_run are references for the Heston/Bates kernels.
"""

import math
from dataclasses import dataclass
from typing import Callable
from unittest import mock

import numpy as np

from sdefl import _kernels
from sdefl.core import DegeneracyError, DegenerateSystemError
from sdefl.kalman import LOG2PI, GaussianState
from sdefl.particle import _draws


@dataclass(frozen=True)
class NonlinearSystem:
    """Nonlinear state space: callables of (state, step index).

    f and h are the transition and observation maps; jac_a = df/dx,
    jac_h = dh/dx; jac_w and jac_e load the process noise (covariance q)
    and observation noise (covariance r).  For particle_run the callables
    must broadcast over arrays of scalar states.
    """

    f: Callable
    h: Callable
    jac_a: Callable
    jac_w: Callable
    jac_h: Callable
    jac_e: Callable
    q: float = 1.0
    r: float = 1.0


def linear_view(sys) -> NonlinearSystem:
    """A LinearStateSpace as EKF callables; the EKF then is the Kalman filter."""
    return NonlinearSystem(
        f=lambda x, t: sys.a * x + sys.b,
        h=lambda x, t: sys.h * x,
        jac_a=lambda x, t: sys.a,
        jac_w=lambda x, t: 1.0,
        jac_h=lambda x, t: sys.h,
        jac_e=lambda x, t: 1.0,
        q=sys.q,
        r=sys.r,
    )


def sv_view(sys) -> NonlinearSystem:
    """An SvSystem's model (see its docstring) as callables, with the unit
    noise loadings q = r = 1."""

    def f(v, t):
        drift = sys.kappa * (sys.theta_v - v) - sys.rho * sys.xi * (sys.mu_eff - 0.5 * v)
        return v + drift * sys.dt + sys.rho * sys.xi * sys.dlns[t]

    def h(v, t):
        return (sys.mu_eff - 0.5 * v) * sys.dt

    def jac_a(v, t):
        return 1.0 - (sys.kappa - 0.5 * sys.rho * sys.xi) * sys.dt

    def jac_w(v, t):
        w = sys.xi * math.sqrt(1.0 - sys.rho * sys.rho) * math.sqrt(sys.dt)
        return w * np.sqrt(np.maximum(v, 0.0))

    def jac_h(v, t):
        return -0.5 * sys.dt

    def jac_e(v, t):
        return np.sqrt(np.maximum(v, 0.0)) * math.sqrt(sys.dt)

    return NonlinearSystem(f, h, jac_a, jac_w, jac_h, jac_e)


def _as_matrix(val, rows):
    m = np.atleast_2d(np.asarray(val, dtype=float))
    if m.shape[0] != rows and m.shape[1] == rows:
        m = m.T
    return m


def _arg(x):
    """A state as the callables take it: a scalar for a one-dimensional state."""
    return x if x.shape[0] > 1 else x[0]


def _ekf_update(x_prev, p_prior, sys, y, t):
    """Propagate x_prev through f, then update with a priori covariance p_prior."""
    x_prev = np.atleast_1d(np.asarray(x_prev, dtype=float))
    x_pred = np.atleast_1d(np.asarray(sys.f(_arg(x_prev), t), dtype=float))
    arg = _arg(x_pred)
    h_row = np.atleast_1d(np.asarray(sys.jac_h(arg, t), dtype=float))
    eps = float(np.asarray(sys.jac_e(arg, t)))
    s = float(h_row @ p_prior @ h_row + eps * sys.r * eps)
    if s <= 0.0:
        raise DegenerateSystemError("innovation variance is not positive")
    k = (p_prior @ h_row) / s
    resid = float(y - float(np.asarray(sys.h(arg, t))))
    p_post = p_prior - np.outer(k, h_row @ p_prior)
    p_post = 0.5 * (p_post + p_post.T)
    return GaussianState(
        mean=x_pred + k * resid, cov=p_post, innovation=resid, innovation_var=s, gain=k
    )


def ekf_step(st: GaussianState, sys: NonlinearSystem, y: float, t: int = 0) -> GaussianState:
    """One EKF predict/update cycle from the previous posterior.

    Transition Jacobians are evaluated at the incoming mean, observation
    Jacobians at the propagated (a priori) mean; every callable gets t.
    """
    d = st.mean.shape[0]
    arg = _arg(st.mean)
    a = _as_matrix(sys.jac_a(arg, t), d)
    w = _as_matrix(sys.jac_w(arg, t), d)
    q = np.atleast_2d(np.asarray(sys.q, dtype=float))
    return _ekf_update(st.mean, a @ st.cov @ a.T + w @ q @ w.T, sys, y, t)


def ekf_run(series, sys: NonlinearSystem, x0=1.0, p0=1.0):
    """The EKF over a measurement series; returns (states, log_lik).

    log_lik is the Gaussian innovation likelihood.  Step 0 takes p0 as its a
    priori covariance; each later step t is ekf_step(states[t-1], sys, y[t], t).
    """
    y = np.asarray(series, dtype=float)
    states = [_ekf_update(x0, np.atleast_2d(np.asarray(p0, dtype=float)), sys, y[0], 0)]
    for t in range(1, y.shape[0]):
        states.append(ekf_step(states[-1], sys, y[t], t))
    ll = 0.0
    for st in states:
        s = st.innovation_var
        ll += -0.5 * (st.innovation * st.innovation / s + math.log(s) + LOG2PI)
    return tuple(states), ll


def particle_run(series, sys: NonlinearSystem, n_particles, src, x0=1.0, p0=1.0):
    """The particle EKF over a measurement series; returns (estimates, log_lik).

    The weights and the estimates are those of sdefl.particle.particle_run,
    read from the callables: var_obs = jac_e(x_t)^2 r and var_tr =
    jac_w(x_prev)^2 q.  A non-finite f, or weights that all vanish, end the
    pass with a DegeneracyError naming the 0-based measurement index.  It
    resamples with systematic_indices below, the search, so it shares no
    resampling code with the kernel.
    """
    y = np.asarray(series, dtype=float)
    n = n_particles
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
        # a non-finite f gives a NaN weight: end the pass before inf - inf warns
        if not np.isfinite(x_pred).all():
            raise DegeneracyError(f"all particle weights vanished at step {t}")
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

        idx = systematic_indices(weights, float(uniforms[t]))
        x, p = x_new[idx], ekf_var[idx]
    return est, ll


def systematic_indices(weights, u):
    """Ancestor indices for systematic resampling with one uniform u, by
    binary search: new particle i takes the first j whose running weight
    sum reaches (i + u)/n, the last sum raised to at least 1."""
    n = weights.shape[0]
    positions = (np.arange(n, dtype=float) + u) / n
    cum = np.add.accumulate(weights)
    cum[-1] = max(cum[-1], 1.0)
    return np.minimum(np.searchsorted(cum, positions, side="left"), n - 1)


def central_differences(f, v, rel=1e-5):
    """The gradient of f at v: central differences with steps h and h/2,
    h = rel * max(1, |v_i|), Richardson-extrapolated to an O(h^4) error.
    A plain difference at h is off by O(h^2), which is 1e-5 relative or more
    where the curvature scale is a small v_i (lambda_j = 1e-4, say)."""

    def diff(i, h):
        up, down = v.copy(), v.copy()
        up[i] += h
        down[i] -= h
        return (f(up) - f(down)) / (2.0 * h)

    grad = np.empty(len(v))
    for i in range(len(v)):
        h = rel * max(1.0, abs(v[i]))
        grad[i] = (4.0 * diff(i, 0.5 * h) - diff(i, h)) / 3.0
    return grad


def assert_matches_central_differences(grad, fd):
    """1e-6 relative per entry, or 1e-6 of the largest entry."""
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())


def doubling_scan_full(c, d, prods=None):
    """_kernels._doubling_scan without its stop: every pass, each reading
    products it computes itself; prods is not read."""
    c = c.copy()
    span = 1
    while span < d.shape[-1]:
        d[..., span:] += c[span:] * d[..., :-span]
        c[span:] *= c[:-span]
        span *= 2
    return d


def kalman_ou_full_passes(y, alpha, beta, q, r, x0, p0):
    """_kernels.kalman_ou_loop with both scans running every pass."""
    with mock.patch.object(_kernels, "_doubling_scan", doubling_scan_full):
        return _kernels.kalman_ou_loop(y, alpha, beta, q, r, x0, p0)
