"""The scalar Kalman filter, the Heston/Bates extended Kalman filter, and
state-space builders.

kalman_run filters a LinearStateSpace, a scalar affine system such as
ou_state_space's, taking p0 as its first a priori variance.

ekf_run and ekf_log_likelihood filter an SvSystem through the fused kernel
_kernels.heston_ekf_loop; they, particle_run and the scenario ekf stage check
their inputs in _filter_inputs.  The generic EKF over callables, which the
tests compare these filters against, is in tests/reference.py.

The filter kernels raise DegenerateSystemError where they break down.  The
filters check their own posteriors, and the EKF then its log-likelihood, by
the simulators' rule (models._check_states): one that leaves the floats is a
DegenerateSystemError naming its step.  A GaussianState is a plain record.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .core import DegenerateSystemError, DomainError, _scalar, _series, _step, _variance
from .mle import Bounds, EstimationReport, _start_point, bounded_minimize
from .models import BatesParams, HestonParams, JumpParams, OuParams, _check_states

LOG2PI = math.log(2.0 * math.pi)
DEFAULT_MEAS_VAR = 1e-4


@dataclass(frozen=True)
class LinearStateSpace:
    """x_t = a x_{t-1} + b + w_t with w_t ~ N(0, q), observed as
    y_t = h x_t + e_t with e_t ~ N(0, r), from x_0 ~ N(x0, p0).

    Every field is a finite scalar, and q, r and p0 are >= 0.
    """

    a: float
    b: float
    q: float
    h: float
    r: float
    x0: float
    p0: float

    def __post_init__(self):
        for f in fields(self):
            name = f"LinearStateSpace.{f.name}"
            value = _scalar(getattr(self, f.name), name)
            if f.name in ("q", "r", "p0") and value < 0.0:
                raise DomainError(f"{name} must be >= 0")
            object.__setattr__(self, f.name, value)


class GaussianState(NamedTuple):
    """Filter record: posterior mean and covariance, and the update's
    innovation, innovation variance and gain where the filter keeps them.
    It holds what it is given, as given: the filters check their own
    posteriors."""

    mean: np.ndarray
    cov: np.ndarray
    innovation: Optional[float] = None
    innovation_var: Optional[float] = None
    gain: Optional[np.ndarray] = None


def kalman_run(series, sys: LinearStateSpace):
    """Filter a measurement series; returns (states, gaussian log-likelihood).
    p0 is the first a priori variance, and a P a + q from each posterior P
    the next.  The first step whose posterior leaves the floats, or whose
    innovation variance is not positive, raises a DegenerateSystemError
    naming its 0-based index."""
    if not isinstance(sys, LinearStateSpace):
        raise TypeError(f"the Kalman filter runs a LinearStateSpace, got {type(sys).__name__}")
    y = _series(series).tolist()
    # row t + 1 holds step t's posterior mean and variance, innovation, its
    # variance and gain; row 0 the start, as a simulated path holds it
    rows = [(sys.x0, sys.p0, 0.0, 0.0, 0.0)]
    x, p_prior, ll = sys.x0, sys.p0, 0.0
    for obs in y:
        x_pred = sys.a * x + sys.b
        s = sys.h * p_prior * sys.h + sys.r
        if s <= 0.0:
            break
        k = p_prior * sys.h / s
        resid = obs - sys.h * x_pred
        x, p = x_pred + k * resid, p_prior - k * (sys.h * p_prior)
        rows.append((x, p, resid, s, k))
        ll += -0.5 * (resid * resid / s + math.log(s) + LOG2PI)
        p_prior = sys.a * p * sys.a + sys.q
    means, covs, innovations, variances, gains = np.array(rows).T
    _check_states(np.isfinite(means) & np.isfinite(covs), {"x": means, "P": covs})
    if len(rows) <= len(y):
        raise DegenerateSystemError(f"innovation variance not positive at step {len(rows) - 1}")
    states = map(GaussianState, means[1:, None], covs[1:, None, None],
                 innovations[1:].tolist(), variances[1:].tolist(), gains[1:, None])
    return tuple(states), ll


def ou_state_space(
    p: OuParams,
    dt: float,
    meas_var: float = DEFAULT_MEAS_VAR,
    jump: Optional[JumpParams] = None,
    x_init: float = 0.0,
    p0: float = 1.0,
) -> LinearStateSpace:
    """The OU filter's system: a = beta = 1 - theta*dt, b = alpha =
    theta*mu*dt and h = 1, with process noise sigma^2*dt, inflated by
    lambda_j*mu_j^2*dt when a jump layer is present."""
    dt, meas_var, p0 = _step(dt), _variance(meas_var, "meas_var"), _variance(p0, "p0")
    alpha, beta, _ = _ou_kalman_coeffs(p.theta, p.mu, dt)
    q = p.sigma * p.sigma * dt
    if jump is not None:
        q += jump.lambda_j * jump.mu_j * jump.mu_j * dt
    return LinearStateSpace(a=beta, b=alpha, q=q, h=1.0, r=meas_var, x0=x_init, p0=p0)


_OU_KALMAN_P0 = 1.0  # the scalar filter's first a priori variance


def _ou_kalman_coeffs(theta, mu, dt):
    """The scalar OU filter's alpha = theta*mu*dt and beta = 1 - theta*dt,
    with their Jacobian in (theta, mu), rows (alpha, beta)."""
    jac = np.array([[mu * dt, theta * dt], [-dt, 0.0]])
    return theta * mu * dt, 1.0 - theta * dt, jac


def _ou_kalman(y, x_init, v, dt, meas_var):
    """The scalar OU filter over y at v = (theta, mu, sigma[, lambda_j, mu_j,
    sigma_j]): (means, log-likelihood, its gradient in v).

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
    means, ll, score = _kernels.kalman_ou_loop(y, alpha, beta, q, meas_var, x_init, _OU_KALMAN_P0)
    grad = score[2] * dq
    grad[:2] += score[:2] @ jac
    return means, ll, grad


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
    values = _series(series, 2, array=False)
    meas_var = _variance(meas_var, "meas_var")
    if model not in ("ou", "ou_jump"):
        raise DomainError(f"unknown model '{model}'")
    y, x_init, dt = values[1:], float(values[0]), series.dt
    x0, pack = _start_point(model, init, bounds)

    def objective(v):
        try:
            _, ll, grad = _ou_kalman(y, x_init, v, dt, meas_var)
        except DegenerateSystemError:
            return np.inf, np.zeros_like(v)
        return (-ll, -grad) if math.isfinite(ll) else (np.inf, np.zeros_like(v))

    # a huge series overflows the kernel's sums: ll is then not finite,
    # which the objective reads as outside the domain.  One errstate for
    # the fit, not one per evaluation
    with np.errstate(over="ignore", invalid="ignore"):
        return bounded_minimize(objective, x0, bounds, pack, jac=True)


# ---------------------------------------------------------------------------
# Extended Kalman filter


def _filter_inputs(series, sys: "SvSystem", x0, p0):
    """The checked measurements of a filter over the SvSystem sys.  x0 is a
    finite scalar and p0 a variance; the series must be sys.dlns or a prefix
    of it, since a fused kernel reads it as the returns."""
    y = _series(series)
    _scalar(x0, "x0")
    _variance(p0, "p0")
    if not isinstance(sys, SvSystem):
        raise TypeError(f"the EKF and particle filters run an SvSystem, got {type(sys).__name__}")
    own = sys.dlns[:y.shape[0]]
    differ = np.flatnonzero(y[:own.shape[0]] != own)
    if differ.size or y.shape[0] > own.shape[0]:
        at = differ[0] if differ.size else own.shape[0]
        raise DomainError(
            f"series differs from the system's own returns at index {at}; "
            "an SvSystem filters only its dlns or a prefix of it"
        )
    return y


def _heston_ekf(series, sys: "SvSystem", x0, p0):
    """(v_post, p_post, obj24, obj_ok, log_lik) from the fused kernel once
    _filter_inputs has passed its inputs; v_post and p_post hold the
    initial pair at index 0.  A step whose innovation variance is not
    positive (the kernel's check), whose posterior leaves the floats or,
    with every posterior finite, whose log-likelihood does, raises a
    DegenerateSystemError naming the 0-based index of its measurement."""
    y = _filter_inputs(series, sys, x0, p0)
    v_post, p_post, obj24, obj_ok, ll = _kernels.heston_ekf_loop(
        y, sys.dt, sys.mu_eff, sys.kappa, sys.theta_v, sys.xi, sys.rho, float(x0), float(p0)
    )
    _check_states(np.isfinite(v_post) & np.isfinite(p_post), {"v": v_post, "P": p_post})
    _check_states(np.isfinite(ll), {"log-likelihood": ll})
    return v_post, p_post, obj24, obj_ok, float(ll[-1])


def ekf_run(series, sys: "SvSystem", x0=1.0, p0=1.0):
    """Filter an SvSystem's returns with the EKF; returns (states, log_lik).

    log_lik is the Gaussian innovation likelihood; _heston_ekf names the step
    where the filter breaks down.  The fused scalar loop
    _kernels.heston_ekf_loop runs the filter; step 0 takes p0 as its a
    priori variance.  Each state holds step t's rows of the kernel's
    posterior arrays, a (1,) mean and a (1, 1) variance, with no
    innovation, innovation variance or gain.  The series must be the
    system's own returns or a prefix of them; x0 and p0 must be finite
    scalars, with p0 >= 0.
    """
    v_post, p_post, _, _, ll = _heston_ekf(series, sys, x0, p0)
    return tuple(map(GaussianState, v_post[1:, None], p_post[1:, None, None])), ll


def log_returns(price_path) -> np.ndarray:
    """First differences of a log-price path: the EKF measurement series."""
    return np.diff(_series(price_path, 2, "price_path"))


@dataclass(frozen=True, eq=False)
class SvSystem:
    """The Heston/Bates variance EKF of Javaheri, Lautier & Galli,
    "Filtering in finance" (Wilmott, 2003), over a price path's log-returns
    dlns, which act both as the measurements and, through rho, as a known
    input to the variance transition:

        v_t = f(v_{t-1}) + xi sqrt((1 - rho^2) dt max(v_{t-1}, 0)) w_t,
        f(v) = v + (kappa (theta_v - v) - rho xi (mu_eff - v/2)) dt + rho xi dlns_t,
        dlns_t = h(v_t) + sqrt(dt max(v_t, 0)) e_t,  h(v) = (mu_eff - v/2) dt,

    with w_t and e_t independent standard normals.  ekf_run,
    ekf_log_likelihood and particle_run run it through the fused kernels,
    over dlns or a prefix of it; any other series is refused.
    """

    dt: float
    mu_eff: float
    kappa: float
    theta_v: float
    xi: float
    rho: float
    dlns: np.ndarray


def _sv_system(p, dt: float, dlns) -> SvSystem:
    """The variance EKF of HestonParams or BatesParams p over checked
    log-returns dlns and step dt; a Bates system takes the jump-compensated
    drift."""
    if not isinstance(p, (HestonParams, BatesParams)):
        raise DomainError("params must be HestonParams or BatesParams")
    h, mu_eff = (p.heston, p.mu_eff) if isinstance(p, BatesParams) else (p, p.mu_s)
    return SvSystem(dt, mu_eff, h.kappa, h.theta_v, h.xi, h.rho, dlns)


def heston_ekf_system(p, dt: float, price_path) -> SvSystem:
    """The variance EKF of HestonParams or BatesParams p over a log-price
    path; a Bates system takes the jump-compensated drift."""
    return _sv_system(p, _step(dt), log_returns(price_path))


bates_ekf_system = heston_ekf_system  # one function: _sv_system reads the record's type


def ekf_log_likelihood(series, sys: "SvSystem", x0=1.0, p0=1.0, objective="quadratic"):
    """Calibration objective for an SvSystem over its returns.

    objective 'quadratic' sums ln(P_t) + r_t^2/P_t with the posterior
    variance P_t (lower is better); 'gaussian' returns the innovation
    log-likelihood (higher is better).  series, x0 and p0 are checked as in
    ekf_run.
    """
    if objective not in ("quadratic", "gaussian"):
        raise DomainError("objective must be 'quadratic' or 'gaussian'")
    _, _, obj24, obj_ok, ll_gauss = _heston_ekf(series, sys, x0, p0)
    if objective == "gaussian":
        return ll_gauss
    if not obj_ok:
        raise DegenerateSystemError("posterior variance hit zero")
    return float(obj24)
