"""Linear Kalman filter, extended Kalman filter, and state-space builders.

One recursion serves both filters: the EKF of a linear system is the Kalman
filter.  A run takes P0 as its first a priori covariance, and each later
step is ekf_step from the previous posterior; a single step treats its input
as the previous posterior and propagates mean and covariance before the
update, so a run differs from a fold of steps only in the first covariance.
"""

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from . import _kernels
from .core import DegenerateSystemError, DomainError, Path, ShapeError, require_finite
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
        # np.array copies, so the system freezes its own arrays, not the caller's
        a = np.array(self.a, dtype=float, ndmin=2)
        g = np.array(self.g, dtype=float, ndmin=2)
        q = np.array(self.q, dtype=float, ndmin=2)
        h = np.array(self.h, dtype=float, ndmin=1)
        x0 = np.array(self.x0, dtype=float, ndmin=1)
        p0 = np.array(self.p0, dtype=float, ndmin=2)
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
        # np.array copies, so the record freezes its own arrays, not the caller's
        mean = np.array(self.mean, dtype=float, ndmin=1)
        cov = np.array(self.cov, dtype=float, ndmin=2)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ShapeError("cov shape must match mean")
        # an exactly symmetric matrix passes allclose too; the equality test
        # only skips allclose's cost on the common case
        if not ((cov == cov.T).all() or np.allclose(cov, cov.T, atol=1e-8)):
            raise DomainError("cov must be symmetric")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if self.gain is not None:
            gain = np.array(self.gain, dtype=float, ndmin=1)
            gain.flags.writeable = False
            object.__setattr__(self, "gain", gain)


def _linear_view(sys: LinearStateSpace) -> "NonlinearSystem":
    """The linear system as EKF callables; the EKF then is the Kalman filter."""
    return NonlinearSystem(
        f=lambda x, t: sys.a @ np.atleast_1d(x),
        h=lambda x, t: sys.h @ np.atleast_1d(x),
        jac_a=lambda x, t: sys.a,
        jac_w=lambda x, t: sys.g,
        jac_h=lambda x, t: sys.h,
        jac_e=lambda x, t: 1.0,
        q=sys.q,
        r=sys.r,
    )


def kalman_step(st: GaussianState, sys: LinearStateSpace, y: float) -> GaussianState:
    """One predict/update cycle from the previous posterior: ekf_step on the linear view."""
    return ekf_step(st, _linear_view(sys), y)


def kalman_run(series, sys: LinearStateSpace):
    """Filter a measurement series; returns (states, gaussian log-likelihood).

    ekf_run on the linear view: P0 is the first a priori covariance, and the
    mean is propagated through A every step including the first.
    """
    return ekf_run(series, _linear_view(sys), x0=sys.x0, p0=sys.p0)


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
    alpha, beta, _ = _ou_kalman_coeffs(p.theta, p.mu, dt)
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


_OU_KALMAN_P0 = 1.0  # the scalar filter's first a priori variance


def _ou_kalman_coeffs(theta, mu, dt):
    """The scalar OU filter's alpha = theta*mu*dt and beta = 1 - theta*dt,
    with their Jacobian in (theta, mu), rows (alpha, beta)."""
    jac = np.array([[mu * dt, theta * dt], [-dt, 0.0]])
    return theta * mu * dt, 1.0 - theta * dt, jac


def _ou_kalman(y, x_init, v, dt, meas_var):
    """The scalar OU filter over y at v = (theta, mu, sigma[, lambda_j, mu_j,
    sigma_j]): (means, log-likelihood, its gradient in v, kernel status).

    The process noise is q = sigma^2 dt, plus lambda_j mu_j^2 dt with a jump
    layer; sigma_j does not enter, so its score is 0.
    """
    alpha, beta, jac = _ou_kalman_coeffs(v[0], v[1], dt)
    q = v[2] * v[2] * dt
    dq = np.zeros(len(v))
    dq[2] = 2.0 * v[2] * dt
    if len(v) == 6:
        q += v[3] * v[4] * v[4] * dt
        dq[3] = v[4] * v[4] * dt
        dq[4] = 2.0 * v[3] * v[4] * dt
    means, ll, score, status = _kernels.kalman_ou_loop(
        y, alpha, beta, q, meas_var, x_init, _OU_KALMAN_P0
    )
    grad = score[2] * dq
    grad[:2] += score[:2] @ jac
    return means, ll, grad, status


def estimate_kalman(
    series,
    model: str,
    init,
    bounds: Bounds,
    meas_var: float = DEFAULT_MEAS_VAR,
) -> EstimationReport:
    """Fit OU or OU-jump parameters by maximizing the filter likelihood.

    The first series value seeds the filter state; the remaining values are
    the measurements.  model is 'ou' or 'ou_jump' (the jump layer enters
    only through the inflated process noise, so the score in sigma_j is 0).
    L-BFGS-B steps on the exact gradient of the filter likelihood, which
    the filter kernel returns with it (_kernels.kalman_ou_loop).
    """
    values = series.values if isinstance(series, Path) else np.asarray(series, dtype=float)
    if values.ndim != 1 or values.shape[0] < 2:
        raise ShapeError("series must hold at least 2 observations")
    require_finite(values)
    dt = series.dt if isinstance(series, Path) else None
    if dt is None:
        raise DomainError("series must be a Path carrying dt")
    if meas_var < 0.0:
        raise DomainError("meas_var must be >= 0")
    if model not in ("ou", "ou_jump"):
        raise DomainError(f"unknown model '{model}'")
    y = values[1:]
    x_init = float(values[0])
    x0, pack = _start_point(model, init, bounds)

    def objective(v):
        _, ll, grad, status = _ou_kalman(y, x_init, v, dt, meas_var)
        if status != 0 or not math.isfinite(ll):
            return np.inf, np.zeros_like(v)
        return -ll, -grad

    return bounded_minimize(objective, x0, bounds, pack, jac=True)


# ---------------------------------------------------------------------------
# Extended Kalman filter


@dataclass(frozen=True)
class NonlinearSystem:
    """Nonlinear state space: callables of (state, step index).

    f and h are the transition and observation maps; jac_a = df/dx,
    jac_h = dh/dx; jac_w and jac_e load the process noise (covariance q)
    and observation noise (covariance r).  For particle use the callables
    must broadcast over arrays of scalar states.  ekf_run and
    ekf_log_likelihood run the generic loop over the callables; the
    Heston/Bates variance systems are SvSystems, which run a fused kernel.
    """

    f: Callable
    h: Callable
    jac_a: Callable
    jac_w: Callable
    jac_h: Callable
    jac_e: Callable
    q: float = 1.0
    r: float = 1.0


def _filter_inputs(series, x0, p0, x0_name="x0"):
    """The checked inputs of a filter: its measurements, one finite value or
    more, as a 1-dim array.

    x0 and P0 must be finite; a scalar P0 must be >= 0 and a matrix P0
    symmetric positive semidefinite.  The DomainError names the argument.
    Every EKF and particle entry point checks its inputs here.
    """
    y = series.values if isinstance(series, Path) else np.asarray(series, dtype=float)
    if y.ndim != 1 or y.shape[0] < 1:
        raise ShapeError("series must hold at least one measurement")
    require_finite(y)
    if not np.isfinite(x0).all():
        raise DomainError(f"{x0_name} must be finite")
    p0 = np.asarray(p0, dtype=float)
    if not np.isfinite(p0).all():
        raise DomainError("P0 must be finite")
    if p0.ndim == 2:
        _sym_psd(p0, "P0")
    elif (p0 < 0.0).any():
        raise DomainError("P0 must be >= 0")
    return y


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


def _heston_ekf(y, sys: "SvSystem", x0, p0):
    """(v_post, p_post, obj24, obj_ok, log_lik) from the fused kernel;
    v_post and p_post hold the initial pair at index 0."""
    v_post, p_post, obj24, obj_ok, ll, status, bad = _kernels.heston_ekf_loop(
        y, sys.dt, sys.mu_eff, sys.kappa, sys.theta_v, sys.xi, sys.rho, float(x0), float(p0)
    )
    if status != 0:
        raise DegenerateSystemError(f"innovation variance not positive at step {bad}")
    return v_post, p_post, obj24, obj_ok, float(ll)


def ekf_run(series, sys: "NonlinearSystem | SvSystem", x0=1.0, p0=1.0):
    """Filter a measurement series with the EKF; returns (states, log_lik).

    log_lik is the Gaussian innovation likelihood.  Step 0 takes p0 as its a
    priori covariance; each later step t is ekf_step(states[t-1], sys, y[t],
    t).  An SvSystem (Heston/Bates) runs the fused scalar loop
    _kernels.heston_ekf_loop, which produces the same trajectory without the
    per-step diagnostics: its states hold mean and cov only.  A
    NonlinearSystem runs ekf_step over its callables.
    x0 and p0 must be finite, with p0 >= 0 (or, as a matrix, symmetric
    positive semidefinite).
    """
    y = _filter_inputs(series, x0, p0)
    if isinstance(sys, SvSystem):
        v_post, p_post, _, _, ll = _heston_ekf(y, sys, x0, p0)
        states = tuple(
            GaussianState(mean=np.array([v]), cov=np.array([[pv]]))
            for v, pv in zip(v_post[1:], p_post[1:])
        )
        return states, ll

    states = [_ekf_update(x0, np.atleast_2d(np.asarray(p0, dtype=float)), sys, y[0], 0)]
    for t in range(1, y.shape[0]):
        states.append(ekf_step(states[-1], sys, y[t], t))
    ll = 0.0
    for st in states:
        s = st.innovation_var
        ll += -0.5 * (st.innovation * st.innovation / s + math.log(s) + LOG2PI)
    return tuple(states), ll


def log_returns(price_path) -> np.ndarray:
    """First differences of a log-price path: the EKF measurement series."""
    values = price_path.values if isinstance(price_path, Path) else np.asarray(price_path, dtype=float)
    if values.ndim != 1 or values.shape[0] < 2:
        raise ShapeError("price path must hold at least 2 points")
    return np.diff(values)


@dataclass(frozen=True, eq=False)
class SvSystem:
    """The Heston/Bates variance EKF of Javaheri, Lautier & Galli,
    "Filtering in finance" (Wilmott, 2003), over a price path's log-returns
    dlns, which act both as the measurements and, through rho, as a known
    input to the variance transition.

    ekf_run and ekf_log_likelihood run it through _kernels.heston_ekf_loop.
    Its methods are the same model as NonlinearSystem callables that
    broadcast, with q = r = 1; particle_run and ekf_step read them.  For the
    generic loop or other noise loadings, wrap them in a NonlinearSystem.
    """

    dt: float
    mu_eff: float
    kappa: float
    theta_v: float
    xi: float
    rho: float
    dlns: np.ndarray
    q: ClassVar[float] = 1.0
    r: ClassVar[float] = 1.0

    def f(self, v, t):
        drift = self.kappa * (self.theta_v - v) - self.rho * self.xi * (self.mu_eff - 0.5 * v)
        return v + drift * self.dt + self.rho * self.xi * self.dlns[t]

    def h(self, v, t):
        return (self.mu_eff - 0.5 * v) * self.dt

    def jac_a(self, v, t):
        a = 1.0 - (self.kappa - 0.5 * self.rho * self.xi) * self.dt
        return np.full_like(np.asarray(v, dtype=float), a) if np.ndim(v) else a

    def jac_w(self, v, t):
        w = self.xi * math.sqrt(1.0 - self.rho * self.rho) * math.sqrt(self.dt)
        return w * np.sqrt(np.maximum(v, 0.0))

    def jac_h(self, v, t):
        return np.full_like(np.asarray(v, dtype=float), -0.5 * self.dt) if np.ndim(v) else -0.5 * self.dt

    def jac_e(self, v, t):
        return np.sqrt(np.maximum(v, 0.0)) * math.sqrt(self.dt)


def heston_ekf_system(p: HestonParams, dt: float, price_path) -> SvSystem:
    """The variance EKF of Heston parameters over a log-price path."""
    if dt <= 0.0:
        raise DomainError("dt must be > 0")
    return SvSystem(float(dt), p.mu_s, p.kappa, p.theta_v, p.xi, p.rho, log_returns(price_path))


def bates_ekf_system(p: BatesParams, dt: float, price_path) -> SvSystem:
    """Same as heston_ekf_system with the jump-compensated drift."""
    if dt <= 0.0:
        raise DomainError("dt must be > 0")
    h = p.heston
    return SvSystem(float(dt), p.mu_eff, h.kappa, h.theta_v, h.xi, h.rho, log_returns(price_path))


def ekf_log_likelihood(series, sys: "NonlinearSystem | SvSystem", x0=1.0, p0=1.0, objective="quadratic"):
    """Calibration objective for an EKF system over a measurement series.

    objective 'quadratic' sums ln(P_t) + r_t^2/P_t with the posterior
    variance P_t (lower is better); 'gaussian' returns the innovation
    log-likelihood (higher is better).  Only scalar-state systems support
    the quadratic form.  x0 and p0 are checked as in ekf_run.
    """
    if objective not in ("quadratic", "gaussian"):
        raise DomainError("objective must be 'quadratic' or 'gaussian'")
    y = _filter_inputs(series, x0, p0)
    if isinstance(sys, SvSystem):
        _, _, obj24, obj_ok, ll_gauss = _heston_ekf(y, sys, x0, p0)
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
