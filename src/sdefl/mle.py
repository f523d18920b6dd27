"""Transition densities, their scores, and direct maximum-likelihood estimation.

The densities are exact one-step transition laws of the Euler schemes in
models.py, vectorized over observation arrays.  Each fitted density has a
score: the density of every step together with the gradient of its log in
the fitted parameters.  estimate_mle minimizes the negative log-likelihood
with bounded L-BFGS-B on that exact gradient and falls back to Nelder-Mead
when the line search fails.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.optimize

from .core import DomainError, InitError, Path, ShapeError, normal_cdf, normal_pdf, require_finite
from .models import BkParams, JumpParams, OuParams, jump_threshold

DENSITY_FLOOR = 1e-300


def _ou_moments(x_prev, dt, p: OuParams):
    if dt <= 0.0:
        raise DomainError("dt must be > 0")
    if p.sigma <= 0.0:
        raise DomainError("sigma must be > 0")
    x_prev = np.asarray(x_prev, dtype=float)
    return x_prev, x_prev + p.theta * (p.mu - x_prev) * dt, p.sigma * math.sqrt(dt)


def ou_density(x_prev, x_next, dt, p: OuParams):
    """Density of x_next given x_prev after one Euler step."""
    _, mean, sd = _ou_moments(x_prev, dt, p)
    return normal_pdf(x_next, mean, sd)


def ou_score(x_prev, x_next, dt, p: OuParams):
    """ou_density and the gradient of its log in (theta, mu, sigma), one
    column per step."""
    x_prev, mean, sd = _ou_moments(x_prev, dt, p)
    dens = normal_pdf(x_next, mean, sd)
    z = (x_next - mean) / sd
    dm = z / sd
    return dens, np.stack([dm * ((p.mu - x_prev) * dt), dm * (p.theta * dt), (z * z - 1.0) / p.sigma])


def _bk_moments(r_prev, r_next, dt, p: BkParams):
    if dt <= 0.0:
        raise DomainError("dt must be > 0")
    if p.sigma <= 0.0:
        raise DomainError("sigma must be > 0")
    r_prev = np.asarray(r_prev, dtype=float)
    r_next = np.asarray(r_next, dtype=float)
    if np.any(r_prev <= 0.0) or np.any(r_next <= 0.0):
        raise DomainError("rates must be > 0")
    y_prev = np.log(r_prev)
    return y_prev, np.log(r_next), y_prev + (p.theta - p.alpha * y_prev) * dt, p.sigma * math.sqrt(dt)


def bk_density(r_prev, r_next, dt, p: BkParams):
    """Gaussian density over ln(r_next) given r_prev.

    The drift uses ln(r_prev), so quadrature in ln r integrates to 1.
    """
    _, y_next, mean, sd = _bk_moments(r_prev, r_next, dt, p)
    return normal_pdf(y_next, mean, sd)


def bk_score(r_prev, r_next, dt, p: BkParams):
    """bk_density and the gradient of its log in (theta, alpha, sigma), one
    column per step."""
    y_prev, y_next, mean, sd = _bk_moments(r_prev, r_next, dt, p)
    dens = normal_pdf(y_next, mean, sd)
    z = (y_next - mean) / sd
    dm = z * (dt / sd)
    return dens, np.stack([dm, -dm * y_prev, (z * z - 1.0) / p.sigma])


def _ou_jump_parts(x_prev, x_next, dt, p: OuParams, jp: JumpParams, convention):
    """Mean, mixture weight, both component densities and both variances."""
    if dt <= 0.0:
        raise DomainError("dt must be > 0")
    var_diff = p.sigma * p.sigma * dt
    var_jump = var_diff + jp.sigma_j * jp.sigma_j
    if var_jump <= 0.0:
        raise DomainError("both component variances are zero")
    x_prev = np.asarray(x_prev, dtype=float)
    mean = x_prev + p.theta * (p.mu - x_prev) * dt
    w = normal_cdf(jump_threshold(jp.lambda_j, dt, convention))
    c_nojump = normal_pdf(x_next, mean, math.sqrt(var_diff))
    c_jump = normal_pdf(x_next, mean + jp.mu_j, math.sqrt(var_jump))
    return x_prev, mean, w, c_nojump, c_jump, var_diff, var_jump


def ou_jump_density(x_prev, x_next, dt, p: OuParams, jp: JumpParams, convention="cdf_dt"):
    """Two-component mixture: no-jump Gaussian and jumped Gaussian.

    Mixture weight w = Phi(threshold); note w = 0.5 at lambda_j = 0, so zero
    intensity does not reduce to the plain density (kept as-is on purpose).
    Evaluated as c_nojump + w*(c_jump - c_nojump) so identical components
    collapse to the plain density bitwise.
    """
    _, _, w, c_nojump, c_jump, _, _ = _ou_jump_parts(x_prev, x_next, dt, p, jp, convention)
    return c_nojump + w * (c_jump - c_nojump)


def ou_jump_score(x_prev, x_next, dt, p: OuParams, jp: JumpParams, convention="cdf_dt"):
    """ou_jump_density and the gradient of its log in (theta, mu, sigma,
    lambda_j, mu_j, sigma_j), one column per step."""
    x_prev, mean, w, c0, c1, var0, var1 = _ou_jump_parts(x_prev, x_next, dt, p, jp, convention)
    dens = c0 + w * (c1 - c0)
    du = jump_threshold(1.0, dt, convention)  # the threshold is linear in lambda_j
    r0 = x_next - mean
    r1 = r0 - jp.mu_j
    # each component's density times its score in its mean and its variance
    m0 = (1.0 - w) * c0 * (r0 / var0)
    m1 = w * c1 * (r1 / var1)
    v0 = (1.0 - w) * c0 * (r0 * r0 / var0 - 1.0) / var0
    v1 = w * c1 * (r1 * r1 / var1 - 1.0) / var1
    dm = m0 + m1
    grad = np.stack([
        dm * ((p.mu - x_prev) * dt),
        dm * (p.theta * dt),
        (v0 + v1) * (p.sigma * dt),
        (c1 - c0) * (normal_pdf(jp.lambda_j * du, 0.0, 1.0) * du),
        m1,
        v1 * jp.sigma_j,
    ])
    with np.errstate(divide="ignore", invalid="ignore"):  # steps whose density is 0
        return dens, grad / dens


def _log_sum(dens):
    """Sum of the logs of the densities, each floored at DENSITY_FLOOR."""
    return float(np.sum(np.log(np.maximum(dens, DENSITY_FLOOR))))


def log_likelihood(path, density, params, dt: Optional[float] = None):
    """Sum of log transition densities along a path (initial point dropped).

    params is passed through to density; a tuple is splatted so multi-record
    models (diffusion + jump) fit the same callable contract.  Densities are
    floored at 1e-300 to keep the result finite.
    """
    if isinstance(path, Path):
        values = path.values
        dt = path.dt
    else:
        values = np.asarray(path, dtype=float)
        if dt is None:
            raise DomainError("dt is required when path is a raw array")
    if values.ndim != 1 or values.shape[0] < 2:
        raise ShapeError("path must hold at least 2 observations")
    if isinstance(params, tuple):
        dens = density(values[:-1], values[1:], dt, *params)
    else:
        dens = density(values[:-1], values[1:], dt, params)
    return _log_sum(dens)


@dataclass(frozen=True)
class Bounds:
    """Per-parameter box constraints, lower < upper elementwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ShapeError("bound arrays must have equal shape")
        if not np.all(lo < hi):
            raise DomainError("lower bounds must be < upper bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def uniform(cls, n_params, lo=1e-15, hi=6.0):
        return cls(np.full(n_params, lo), np.full(n_params, hi))


@dataclass(frozen=True)
class EstimationReport:
    params: object
    neg_log_lik: float
    iterations: int
    wall_clock_s: float
    converged: bool
    trace: Optional[tuple] = None


def _ou_pack(v):
    return OuParams(theta=float(v[0]), mu=float(v[1]), sigma=float(v[2]))


def _bk_pack(v):
    return BkParams(theta=float(v[0]), alpha=float(v[1]), sigma=float(v[2]))


def _ou_jump_pack(v):
    return (
        OuParams(theta=float(v[0]), mu=float(v[1]), sigma=float(v[2])),
        JumpParams(lambda_j=float(v[3]), mu_j=float(v[4]), sigma_j=float(v[5])),
    )


class _Model(NamedTuple):
    score: Callable  # (x_prev, x_next, dt, *records) -> (densities, log-density gradients)
    pack: Callable  # parameter vector -> the reported record(s)
    n_params: int


_MODELS = {
    "ou": _Model(ou_score, _ou_pack, 3),
    "bk": _Model(bk_score, _bk_pack, 3),
    "ou_jump": _Model(ou_jump_score, _ou_jump_pack, 6),
}


def _start_point(model, init, bounds: Bounds):
    """Checked start vector and record packer for the named model."""
    if model not in _MODELS:
        raise DomainError(f"unknown model '{model}'")
    _, pack, n_params = _MODELS[model]
    x0 = np.asarray(init, dtype=float)
    if x0.shape != (n_params,):
        raise ShapeError(f"init must have {n_params} entries for '{model}'")
    if bounds.lower.shape != (n_params,):
        raise ShapeError(f"bounds must have {n_params} entries for '{model}'")
    return x0, pack


def estimate_mle(path, model, init, bounds: Bounds, trace=False, convention="cdf_dt"):
    """Fit the named model by bounded negative-log-likelihood minimization.

    model is one of 'ou', 'bk', 'ou_jump'; init is the parameter vector in
    record field order; an unknown convention, a non-finite path value or,
    for 'bk', a rate <= 0 raises before the fit.  The objective is
    -log_likelihood, with the density floor, and its exact gradient, which
    is 0 on floored steps.  Deterministic given (path, init, bounds).
    """
    require_finite(path)
    if not isinstance(path, Path):
        raise DomainError("path must be a Path carrying dt")
    values = path.values
    if values.ndim != 1 or values.shape[0] < 2:
        raise ShapeError("path must hold at least 2 observations")
    if model == "bk":
        bad = np.flatnonzero(values <= 0.0)
        if bad.size:
            raise DomainError(f"rate at index {bad[0]} is not positive")
    x0, pack = _start_point(model, init, bounds)
    jump_threshold(0.0, 1.0, convention)  # raises on an unknown convention
    score = _MODELS[model].score
    extra = {"convention": convention} if model == "ou_jump" else {}
    x_prev, x_next, dt = values[:-1], values[1:], path.dt

    def objective(v):
        try:
            params = pack(v)
            dens, dlog = score(x_prev, x_next, dt, *(params if isinstance(params, tuple) else (params,)),
                               **extra)
        except DomainError:
            return np.inf, np.zeros_like(v)
        value = -_log_sum(dens)
        if not math.isfinite(value):
            return np.inf, np.zeros_like(v)
        return value, -np.where(dens >= DENSITY_FLOOR, dlog, 0.0).sum(axis=1)

    return bounded_minimize(objective, x0, bounds, pack, trace=trace, jac=True)


def bounded_minimize(objective, x0, bounds: Bounds, pack, trace=False, jac="3-point"):
    """Shared fitting harness: L-BFGS-B, then a Nelder-Mead rescue pass if
    the line search fails.  With jac=True the objective returns (value,
    gradient) and L-BFGS-B steps on that gradient; otherwise jac names
    scipy's finite-difference scheme over the value.  The rescue, the trace
    and the start-point check use the value alone.  pack maps a raw
    parameter vector to the reported record. Raises DomainError when x0
    lies outside the bounds and InitError when the objective is not finite
    at x0."""
    value = (lambda v: objective(v)[0]) if jac is True else objective
    if np.any(x0 < bounds.lower) or np.any(x0 > bounds.upper):
        raise DomainError("init must lie within bounds")
    f0 = value(x0)
    if not np.isfinite(f0):
        raise InitError("objective is not finite at the initial point")

    history = []

    def record(v):
        history.append((pack(v), float(value(v))))

    box = scipy.optimize.Bounds(bounds.lower, bounds.upper)
    t0 = time.perf_counter()
    res = scipy.optimize.minimize(
        objective,
        x0,
        method="L-BFGS-B",
        jac=jac,
        bounds=box,
        callback=record if trace else None,
        options={"finite_diff_rel_step": 1e-5},
    )
    iterations = int(res.nit)
    if not res.success:
        res = scipy.optimize.minimize(
            value,
            res.x,
            method="Nelder-Mead",
            bounds=box,
            callback=record if trace else None,
        )
        iterations += int(res.nit)
    wall = time.perf_counter() - t0

    return EstimationReport(
        params=pack(res.x),
        neg_log_lik=float(res.fun),
        iterations=iterations,
        wall_clock_s=wall,
        converged=bool(res.success),
        trace=tuple(history) if trace else None,
    )
