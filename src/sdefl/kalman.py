"""Linear Kalman filter, extended Kalman filter, and state-space builders.

Run-level filters follow the literal update ordering: the covariance handed
in as P0 is the first a priori covariance, and propagation happens at the
end of each step.  The single-step operations (kalman_step, ekf_step)
instead treat their input as the previous posterior and propagate both mean
and covariance before the update, so a run is not a plain fold of steps;
the difference is exactly the first covariance.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .core import DegenerateSystemError, DomainError, Path, ShapeError
from .mle import Bounds, EstimationReport, _start_point, bounded_minimize
from .models import BatesParams, HestonParams, JumpParams, OuParams

LOG2PI = math.log(2.0 * math.pi)
DEFAULT_MEAS_VAR = 1e-4


def _sym_psd(m, name):
    if not np.allclose(m, m.T, atol=1e-10):
        raise DomainError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(m).min() < -1e-10:
        raise DomainError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class LinearStateSpace:
    """x_{t+1} = A x_t + G w_t, y_t = H x_t + e_t with scalar observation."""

    a: np.ndarray
    g: np.ndarray
    q: np.ndarray
    h: np.ndarray
    r: float
    x0: np.ndarray
    p0: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        g = np.atleast_2d(np.asarray(self.g, dtype=float))
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        h = np.atleast_1d(np.asarray(self.h, dtype=float))
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        p0 = np.atleast_2d(np.asarray(self.p0, dtype=float))
        d = a.shape[0]
        if a.shape != (d, d):
            raise ShapeError("A must be square")
        if g.shape[0] != d or q.shape != (g.shape[1], g.shape[1]):
            raise ShapeError("G and Q dimensions must agree with A")
        if h.shape != (d,) or x0.shape != (d,) or p0.shape != (d, d):
            raise ShapeError("H, x0, P0 dimensions must agree with A")
        r = float(self.r)
        if r < 0.0:
            raise DomainError("R must be >= 0")
        _sym_psd(q, "Q")
        _sym_psd(p0, "P0")
        for name, arr in (("a", a), ("g", g), ("q", q), ("h", h), ("x0", x0), ("p0", p0)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "r", r)

    @property
    def dim(self):
        return self.a.shape[0]


@dataclass(frozen=True)
class GaussianState:
    """Filter snapshot: posterior mean/covariance plus update diagnostics."""

    mean: np.ndarray
    cov: np.ndarray
    innovation: Optional[float] = None
    innovation_var: Optional[float] = None
    gain: Optional[np.ndarray] = None

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ShapeError("cov shape must match mean")
        if not np.allclose(cov, cov.T, atol=1e-8):
            raise DomainError("cov must be symmetric")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if self.gain is not None:
            gain = np.atleast_1d(np.asarray(self.gain, dtype=float))
            gain.flags.writeable = False
            object.__setattr__(self, "gain", gain)


def _scalar_update(x_pred, p_prior, h, r, y):
    s = float(h @ p_prior @ h + r)
    if s <= 0.0:
        raise DegenerateSystemError("innovation variance is not positive")
    k = (p_prior @ h) / s
    resid = float(y - h @ x_pred)
    mean = x_pred + k * resid
    p_post = p_prior - np.outer(k, h @ p_prior)
    p_post = 0.5 * (p_post + p_post.T)
    return mean, p_post, resid, s, k


def kalman_step(st: GaussianState, sys: LinearStateSpace, y: float) -> GaussianState:
    """One predict/update cycle from the previous posterior."""
    x_pred = sys.a @ st.mean
    p_prior = sys.a @ st.cov @ sys.a.T + sys.g @ sys.q @ sys.g.T
    mean, p_post, resid, s, k = _scalar_update(x_pred, p_prior, sys.h, sys.r, y)
    return GaussianState(mean=mean, cov=p_post, innovation=resid, innovation_var=s, gain=k)


def kalman_run(series, sys: LinearStateSpace):
    """Filter a measurement series; returns (states, gaussian log-likelihood).

    The first step uses P0 directly as the a priori covariance; the mean is
    propagated through A every step including the first.
    """
    y = series.values if isinstance(series, Path) else np.asarray(series, dtype=float)
    if y.ndim != 1 or y.shape[0] < 1:
        raise ShapeError("series must hold at least one measurement")
    x = sys.x0
    p_prior = sys.p0
    gqg = sys.g @ sys.q @ sys.g.T
    states = []
    ll = 0.0
    for t in range(y.shape[0]):
        x_pred = sys.a @ x
        x, p_post, resid, s, k = _scalar_update(x_pred, p_prior, sys.h, sys.r, y[t])
        ll += -0.5 * (resid * resid / s + math.log(s) + LOG2PI)
        states.append(
            GaussianState(mean=x, cov=p_post, innovation=resid, innovation_var=s, gain=k)
        )
        p_prior = sys.a @ p_post @ sys.a.T + gqg
    return tuple(states), ll


def ou_state_space(
    p: OuParams,
    dt: float,
    meas_var: float = DEFAULT_MEAS_VAR,
    jump: Optional[JumpParams] = None,
    x_init: float = 0.0,
    p0: float = 1.0,
) -> LinearStateSpace:
    """Augmented-state OU system with state (1, x_t).

    alpha = theta*mu*dt enters through the constant component, beta =
    1 - theta*dt; process noise sigma^2*dt, inflated by lambda_j*mu_j^2*dt
    when a jump layer is present.  P0 puts all mass on the x component so
    the constant stays exact.
    """
    if dt <= 0.0 or not math.isfinite(dt):
        raise DomainError("dt must be positive and finite")
    if meas_var < 0.0:
        raise DomainError("meas_var must be >= 0")
    if p0 < 0.0:
        raise DomainError("p0 must be >= 0")
    alpha = p.theta * p.mu * dt
    beta = 1.0 - p.theta * dt
    q = p.sigma * p.sigma * dt
    if jump is not None:
        q += jump.lambda_j * jump.mu_j * jump.mu_j * dt
    return LinearStateSpace(
        a=np.array([[1.0, 0.0], [alpha, beta]]),
        g=np.array([[0.0], [1.0]]),
        q=np.array([[q]]),
        h=np.array([0.0, 1.0]),
        r=meas_var,
        x0=np.array([1.0, float(x_init)]),
        p0=np.diag([0.0, float(p0)]),
    )


def _ou_kalman_loglik(y, x_init, theta, mu, sigma_sq_dt, dt, meas_var, p0=1.0):
    alpha = theta * mu * dt
    beta = 1.0 - theta * dt
    means, ll, status = _kernels.kalman_ou_loop(
        np.asarray(y, dtype=float), alpha, beta, sigma_sq_dt, meas_var, float(x_init), p0
    )
    if status != 0:
        raise DegenerateSystemError("innovation variance is not positive")
    return means, ll


def estimate_kalman(
    series,
    model: str,
    init,
    bounds: Bounds,
    meas_var: float = DEFAULT_MEAS_VAR,
    trace: bool = False,
) -> EstimationReport:
    """Fit OU or OU-jump parameters by maximizing the filter likelihood.

    The first series value seeds the filter state; the remaining values are
    the measurements.  model is 'ou' or 'ou_jump' (the jump layer enters
    only through the inflated process noise).
    """
    values = series.values if isinstance(series, Path) else np.asarray(series, dtype=float)
    if values.ndim != 1 or values.shape[0] < 2:
        raise ShapeError("series must hold at least 2 observations")
    dt = series.dt if isinstance(series, Path) else None
    if dt is None:
        raise DomainError("series must be a Path carrying dt")
    y = values[1:]
    x_init = float(values[0])

    if model == "ou":
        def q_of(v):
            return v[2] * v[2] * dt
    elif model == "ou_jump":
        def q_of(v):
            return v[2] * v[2] * dt + v[3] * v[4] * v[4] * dt
    else:
        raise DomainError(f"unknown model '{model}'")

    x0, pack = _start_point(model, init, bounds)

    def objective(v):
        try:
            _, ll = _ou_kalman_loglik(y, x_init, v[0], v[1], q_of(v), dt, meas_var)
        except DegenerateSystemError:
            return np.inf
        return -ll if math.isfinite(ll) else np.inf

    return bounded_minimize(objective, x0, bounds, pack, trace=trace)


# ---------------------------------------------------------------------------
# Extended Kalman filter


@dataclass(frozen=True)
class NonlinearSystem:
    """Nonlinear state space: callables of (state, step index).

    f and h are the transition and observation maps; jac_a = df/dx,
    jac_h = dh/dx; jac_w and jac_e load the process noise (covariance q)
    and observation noise (covariance r).  For particle use the callables
    must broadcast over arrays of scalar states.

    kernel_hint (dt, mu_eff, kappa, theta_v, xi, rho) marks a Heston/Bates
    variance system: ekf_run and ekf_log_likelihood then run the fused
    kernel instead of the callables, but only while q = r = 1, the noise
    loadings the kernel fixes.
    """

    f: Callable
    h: Callable
    jac_a: Callable
    jac_w: Callable
    jac_h: Callable
    jac_e: Callable
    q: float = 1.0
    r: float = 1.0
    kernel_hint: Optional[tuple] = None


def _as_matrix(val, rows):
    m = np.atleast_2d(np.asarray(val, dtype=float))
    if m.shape[0] != rows and m.shape[1] == rows:
        m = m.T
    return m


def _ekf_update(x_pred, p_prior, sys, y, t):
    x_pred = np.atleast_1d(np.asarray(x_pred, dtype=float))
    d = x_pred.shape[0]
    h_row = np.atleast_1d(np.asarray(sys.jac_h(x_pred if d > 1 else x_pred[0], t), dtype=float))
    eps = float(np.asarray(sys.jac_e(x_pred if d > 1 else x_pred[0], t)))
    s = float(h_row @ p_prior @ h_row + eps * sys.r * eps)
    if s <= 0.0:
        raise DegenerateSystemError("innovation variance is not positive")
    k = (p_prior @ h_row) / s
    h_val = float(np.asarray(sys.h(x_pred if d > 1 else x_pred[0], t)))
    resid = float(y - h_val)
    mean = x_pred + k * resid
    p_post = p_prior - np.outer(k, h_row @ p_prior)
    p_post = 0.5 * (p_post + p_post.T)
    return mean, p_post, resid, s, k


def _ekf_propagate_cov(sys, x, cov, t):
    d = x.shape[0]
    arg = x if d > 1 else x[0]
    a = _as_matrix(sys.jac_a(arg, t), d)
    w = _as_matrix(sys.jac_w(arg, t), d)
    q = np.atleast_2d(np.asarray(sys.q, dtype=float))
    return a @ cov @ a.T + w @ q @ w.T


def ekf_step(st: GaussianState, sys: NonlinearSystem, y: float, t: int = 0) -> GaussianState:
    """One EKF predict/update cycle from the previous posterior.

    Transition Jacobians are evaluated at the incoming mean, observation
    Jacobians at the propagated (a priori) mean.
    """
    d = st.mean.shape[0]
    arg = st.mean if d > 1 else st.mean[0]
    x_pred = np.atleast_1d(np.asarray(sys.f(arg, t), dtype=float))
    p_prior = _ekf_propagate_cov(sys, st.mean, st.cov, t)
    mean, p_post, resid, s, k = _ekf_update(x_pred, p_prior, sys, y, t)
    return GaussianState(mean=mean, cov=p_post, innovation=resid, innovation_var=s, gain=k)


def _heston_ekf(y, sys: NonlinearSystem, x0, p0):
    """(v_post, p_post, obj24, obj_ok, log_lik) from the fused kernel.

    v_post and p_post hold the initial pair at index 0.  None when the
    system has no kernel hint or noise loadings other than the q = r = 1
    the kernel fixes; the caller then runs the generic loop.
    """
    if sys.kernel_hint is None or sys.q != 1.0 or sys.r != 1.0:
        return None
    dt, mu_eff, kappa, theta_v, xi, rho = sys.kernel_hint
    v_post, p_post, obj24, obj_ok, ll, status, bad = _kernels.heston_ekf_loop(
        y, dt, mu_eff, kappa, theta_v, xi, rho, float(x0), float(p0)
    )
    if status != 0:
        raise DegenerateSystemError(f"innovation variance not positive at step {bad}")
    return v_post, p_post, obj24, obj_ok, float(ll)


def ekf_run(series, sys: NonlinearSystem, x0=1.0, p0=1.0):
    """Filter a measurement series with the EKF; returns (states, log_lik).

    log_lik is the Gaussian innovation likelihood.  Covariance ordering
    matches kalman_run: p0 is the first a priori covariance.  A system with
    a kernel hint (Heston/Bates) and unit noise loadings q = r = 1 runs the
    compiled scalar loop, which produces the same trajectory without the
    per-step diagnostics (states then hold mean and cov only); any other
    system runs the generic loop over its callables.
    """
    y = series.values if isinstance(series, Path) else np.asarray(series, dtype=float)
    if y.ndim != 1 or y.shape[0] < 1:
        raise ShapeError("series must hold at least one measurement")

    run = _heston_ekf(y, sys, x0, p0)
    if run is not None:
        v_post, p_post, _, _, ll = run
        states = tuple(
            GaussianState(mean=np.array([v]), cov=np.array([[pv]]))
            for v, pv in zip(v_post[1:], p_post[1:])
        )
        return states, ll

    x = np.atleast_1d(np.asarray(x0, dtype=float))
    p_prior = np.atleast_2d(np.asarray(p0, dtype=float))
    states = []
    ll = 0.0
    for t in range(y.shape[0]):
        d = x.shape[0]
        arg = x if d > 1 else x[0]
        x_pred = np.atleast_1d(np.asarray(sys.f(arg, t), dtype=float))
        x, p_post, resid, s, k = _ekf_update(x_pred, p_prior, sys, y[t], t)
        ll += -0.5 * (resid * resid / s + math.log(s) + LOG2PI)
        states.append(
            GaussianState(mean=x, cov=p_post, innovation=resid, innovation_var=s, gain=k)
        )
        p_prior = _ekf_propagate_cov(sys, x, p_post, t)
    return tuple(states), ll


def log_returns(price_path) -> np.ndarray:
    """First differences of a log-price path: the EKF measurement series."""
    values = price_path.values if isinstance(price_path, Path) else np.asarray(price_path, dtype=float)
    if values.ndim != 1 or values.shape[0] < 2:
        raise ShapeError("price path must hold at least 2 points")
    return np.diff(values)


def _heston_system(dt, mu_eff, kappa, theta_v, xi, rho, price_path) -> NonlinearSystem:
    dlns = log_returns(price_path)
    a_const = 1.0 - (kappa - 0.5 * rho * xi) * dt
    w_const = xi * math.sqrt(1.0 - rho * rho) * math.sqrt(dt)
    sq_dt = math.sqrt(dt)

    def f(v, t):
        return v + (kappa * (theta_v - v) - rho * xi * (mu_eff - 0.5 * v)) * dt + rho * xi * dlns[t]

    def h(v, t):
        return (mu_eff - 0.5 * v) * dt

    def jac_a(v, t):
        return np.full_like(np.asarray(v, dtype=float), a_const) if np.ndim(v) else a_const

    def jac_w(v, t):
        return w_const * np.sqrt(np.maximum(v, 0.0))

    def jac_h(v, t):
        return np.full_like(np.asarray(v, dtype=float), -0.5 * dt) if np.ndim(v) else -0.5 * dt

    def jac_e(v, t):
        return np.sqrt(np.maximum(v, 0.0)) * sq_dt

    return NonlinearSystem(
        f=f, h=h, jac_a=jac_a, jac_w=jac_w, jac_h=jac_h, jac_e=jac_e,
        q=1.0, r=1.0, kernel_hint=(float(dt), mu_eff, kappa, theta_v, xi, rho),
    )


def heston_ekf_system(p: HestonParams, dt: float, price_path) -> NonlinearSystem:
    """One-dimensional variance-state EKF driven by a concurrent price path.

    The log-return acts both as the measurement and as a known input to the
    variance transition (through the correlation rho).
    """
    if dt <= 0.0:
        raise DomainError("dt must be > 0")
    return _heston_system(dt, p.mu_s, p.kappa, p.theta_v, p.xi, p.rho, price_path)


def bates_ekf_system(p: BatesParams, dt: float, price_path) -> NonlinearSystem:
    """Same as heston_ekf_system with the jump-compensated drift."""
    if dt <= 0.0:
        raise DomainError("dt must be > 0")
    h = p.heston
    return _heston_system(dt, p.mu_eff, h.kappa, h.theta_v, h.xi, h.rho, price_path)


def ekf_log_likelihood(series, sys: NonlinearSystem, x0=1.0, p0=1.0, objective="quadratic"):
    """Calibration objective for an EKF system over a measurement series.

    objective 'quadratic' sums ln(P_t) + r_t^2/P_t with the posterior
    variance P_t (lower is better); 'gaussian' returns the innovation
    log-likelihood (higher is better).  Only scalar-state systems support
    the quadratic form.
    """
    if objective not in ("quadratic", "gaussian"):
        raise DomainError("objective must be 'quadratic' or 'gaussian'")
    y = series.values if isinstance(series, Path) else np.asarray(series, dtype=float)
    if y.ndim != 1 or y.shape[0] < 1:
        raise ShapeError("series must hold at least one measurement")

    run = _heston_ekf(y, sys, x0, p0)
    if run is not None:
        _, _, obj24, obj_ok, ll_gauss = run
        if objective == "gaussian":
            return ll_gauss
        if not obj_ok:
            raise DegenerateSystemError("posterior variance hit zero")
        return float(obj24)

    states, ll_gauss = ekf_run(y, sys, x0=x0, p0=p0)
    if objective == "gaussian":
        return ll_gauss
    if states[0].mean.shape[0] != 1:
        raise ShapeError("quadratic objective requires a scalar state")
    total = 0.0
    for st in states:
        p_t = float(st.cov[0, 0])
        if p_t <= 0.0:
            raise DegenerateSystemError("posterior variance hit zero")
        total += math.log(p_t) + st.innovation * st.innovation / p_t
    return total
