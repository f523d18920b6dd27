"""Transition densities, their scores, and direct maximum-likelihood estimation.

The densities are exact one-step transition laws of the Euler schemes in
models.py, vectorized over observation arrays.  Each density is the first
output of its score, which gives the density of every step together with
the gradient of its log in the fitted parameters.  The Euler OU and BK
densities are Gaussian AR(1), so estimate_mle solves them by least squares;
it minimizes the other negative log-likelihoods, and an AR(1) series least
squares cannot place, with bounded L-BFGS-B on the exact gradient, falling
back to Nelder-Mead when the line search fails.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import DegenerateSystemError, DomainError, InitError, ShapeError, _series, _step, normal_cdf
from .models import MODELS, BkParams, JumpParams, OuParams, jump_threshold

DENSITY_FLOOR = 1e-300


def _normal(r, sd):
    """normal_pdf at the residuals r from the mean, for a float sd, with the
    z = r / sd and z * z that a score reuses: (density, z, z * z).

    -0.5 * (z * z) is normal_pdf's (-0.5 * z) * z but where the product
    underflows, and there exp gives 1.0 either way: the density is
    normal_pdf's bit for bit, a float at a scalar residual.
    """
    if sd <= 0.0:
        raise DomainError("normal_pdf requires std > 0")
    z = r / sd
    zz = z * z
    dens = np.exp(-0.5 * zz) / (sd * math.sqrt(2.0 * math.pi))
    return (dens if dens.ndim else float(dens)), z, zz


def ou_density(x_prev, x_next, dt, p: OuParams):
    """Density of x_next given x_prev after one Euler step: ou_score's
    first output."""
    return ou_score(x_prev, x_next, dt, p)[0]


def ou_score(x_prev, x_next, dt, p: OuParams):
    """The density of x_next given x_prev after one Euler step, and the
    gradient of its log in (theta, mu, sigma), one column per step."""
    _step(dt)
    if p.sigma <= 0.0:
        raise DomainError("sigma must be > 0")
    x_prev = np.asarray(x_prev, dtype=float)
    sd = p.sigma * math.sqrt(dt)
    with np.errstate(over="ignore", invalid="ignore"):  # see bk_score
        gap = p.mu - x_prev
        dens, z, zz = _normal(np.asarray(x_next, dtype=float) - (x_prev + p.theta * gap * dt), sd)
        dm = z / sd
        return dens, np.stack([dm * (gap * dt), dm * (p.theta * dt), (zz - 1.0) / p.sigma])


def _log_rates(r):
    """ln r by math.log per value, which gives the same bits at every numpy
    SIMD level (numpy's AVX-512 log rounds some values differently); a
    DomainError names the first rate <= 0."""
    r = np.asarray(r, dtype=float)
    bad = np.flatnonzero(r <= 0.0)
    if bad.size:
        raise DomainError(f"rate at index {bad[0]} is not positive")
    return np.fromiter(map(math.log, r.ravel().tolist()), float, r.size).reshape(r.shape)


def bk_density(r_prev, r_next, dt, p: BkParams):
    """Gaussian density over ln(r_next) given r_prev: bk_score's first
    output over the log-rates.

    The drift uses ln(r_prev), so quadrature in ln r integrates to 1.
    """
    return bk_score(_log_rates(r_prev), _log_rates(r_next), dt, p)[0]


def bk_score(y_prev, y_next, dt, p: BkParams):
    """bk_density over the log-rates y = ln r, which the caller takes once
    with _log_rates, and the gradient of its log in (theta, alpha, sigma),
    one column per step."""
    _step(dt)
    if p.sigma <= 0.0:
        raise DomainError("sigma must be > 0")
    sd = p.sigma * math.sqrt(dt)
    # on a huge series z * z and the gradient overflow to inf, and a step
    # whose z is inf may have a gradient of inf * 0: the density is then 0,
    # which the objective floors and whose gradient it drops
    with np.errstate(over="ignore", invalid="ignore"):
        dens, z, zz = _normal(y_next - (y_prev + (p.theta - p.alpha * y_prev) * dt), sd)
        dm = z * (dt / sd)
        return dens, np.stack([dm, -dm * y_prev, (zz - 1.0) / p.sigma])


def _mix(u, w, c_nojump, c_jump):
    """The mixture (1 - w) * c_nojump + w * c_jump, and its 1 - w.

    Up to w = 3/4 it is c_nojump + w*(c_jump - c_nojump), so identical
    components collapse to the plain density bitwise.  Above, 1 - w is
    Phi(-u) from erfc rather than a difference that cancels as w -> 1, and
    the mixture is c_jump + (1 - w)*(c_nojump - c_jump).
    """
    if w <= 0.75:
        return c_nojump + w * (c_jump - c_nojump), 1.0 - w
    w_bar = 0.5 * math.erfc(u / math.sqrt(2.0))
    return c_jump + w_bar * (c_nojump - c_jump), w_bar


def ou_jump_density(x_prev, x_next, dt, p: OuParams, jp: JumpParams, convention="cdf_dt"):
    """Two-component mixture: no-jump Gaussian and jumped Gaussian;
    ou_jump_score's first output.

    Mixture weight w = Phi(threshold); note w = 0.5 at lambda_j = 0, so zero
    intensity does not reduce to the plain density (kept as-is on purpose).
    _mix evaluates it without cancelling in 1 - w.
    """
    return ou_jump_score(x_prev, x_next, dt, p, jp, convention)[0]


def ou_jump_score(x_prev, x_next, dt, p: OuParams, jp: JumpParams, convention="cdf_dt"):
    """ou_jump_density and the gradient of its log in (theta, mu, sigma,
    lambda_j, mu_j, sigma_j), one column per step."""
    _step(dt)
    var0 = p.sigma * p.sigma * dt  # the variances without a jump (var0) and with one
    var1 = var0 + jp.sigma_j * jp.sigma_j
    if var1 <= 0.0:
        raise DomainError("both component variances are zero")
    u = jump_threshold(jp.lambda_j, dt, convention)
    w, sd0, sd1 = normal_cdf(u), math.sqrt(var0), math.sqrt(var1)
    # c / dens times a component's score in its mean, z / sd, and in its
    # variance, (z * z - 1) / (2 var); the weights w and 1 - w and the
    # parameters' derivatives join as scalars.  z * z (see bk_score) and
    # 1 / dens overflow only below DENSITY_FLOOR, on steps that the
    # objective gives no gradient
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x_prev = np.asarray(x_prev, dtype=float)
        gap = p.mu - x_prev
        mean = x_prev + p.theta * gap * dt
        x_next = np.asarray(x_next, dtype=float)
        c0, z0, zz0 = _normal(x_next - mean, sd0)
        c1, z1, zz1 = _normal(x_next - (mean + jp.mu_j), sd1)
        dens, w_bar = _mix(u, w, c0, c1)
        du = jump_threshold(1.0, dt, convention)  # the threshold is linear in lambda_j
        phi_u = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)  # normal_pdf(u, 0.0, 1.0)
        grad = np.empty((6,) + np.shape(c0))
        rows = grad.reshape(6, -1)  # row views, for a single step too
        inv = np.divide(1.0, dens)
        q0 = c0 * inv
        q1 = c1 * inv
        dm = np.multiply(q1, z1, out=rows[4])
        dm *= w / sd1  # row 4 is done: mu_j moves only the jump component's mean
        dm = dm + q0 * z0 * (w_bar / sd0)
        s0 = q0 * (zz0 - 1.0)
        s1 = q1 * (zz1 - 1.0)
        np.multiply(dm, gap * dt, out=rows[0])
        np.multiply(dm, p.theta * dt, out=rows[1])
        s0 *= w_bar * p.sigma * dt / var0
        np.multiply(s1, w * p.sigma * dt / var1, out=rows[2])
        rows[2] += s0
        np.multiply(q1 - q0, phi_u * du, out=rows[3])
        np.multiply(s1, w * jp.sigma_j / var1, out=rows[5])
    return dens, grad


def _log_sum(dens):
    """Sum of the logs of the densities, each floored at DENSITY_FLOOR, and
    whether the floor raised any of them."""
    dens = np.asarray(dens, dtype=float)
    floored = not dens.min() >= DENSITY_FLOOR  # np.maximum is the identity otherwise
    if floored:
        dens = np.maximum(dens, DENSITY_FLOOR)
    return float(np.log(dens).sum()), floored


def log_likelihood(path, density, params):
    """Sum of log transition densities along a Path (initial point dropped),
    at its dt.

    params is passed through to density; a tuple is splatted so multi-record
    models (diffusion + jump) fit the same callable contract.  Densities are
    floored at 1e-300 to keep the result finite.
    """
    values = _series(path, 2, "path", array=False)
    if isinstance(params, tuple):
        dens = density(values[:-1], values[1:], path.dt, *params)
    else:
        dens = density(values[:-1], values[1:], path.dt, params)
    return _log_sum(dens)[0]


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


# model -> score: (x_prev, x_next, dt, *records) -> (densities, log-density gradients)
_MODELS = {"ou": ou_score, "bk": bk_score, "ou_jump": ou_jump_score}


def _start_point(model, init, bounds: Bounds):
    """Checked start vector and record packer for the named model."""
    if model not in _MODELS:
        raise DomainError(f"unknown model '{model}'")
    n_params = len(MODELS[model].fields)
    x0 = np.asarray(init, dtype=float)
    if x0.shape != (n_params,):
        raise ShapeError(f"init must have {n_params} entries for '{model}'")
    if bounds.lower.shape != (n_params,):
        raise ShapeError(f"bounds must have {n_params} entries for '{model}'")
    return x0, MODELS[model].pack


def _ar1_fit(x, dt, model):
    """The exact MLE of the Euler 'ou' or 'bk' density over x, the series or,
    for 'bk', its log-rates, in record field order, or None where it does
    not exist.

    x[k+1] = a + b x[k] + e by centred least squares,
    with the mean squared residual for the variance of e (Hamilton, Time
    Series Analysis, 1994, ch. 5).  None for fewer than 3 points, no spread
    in x[:-1] (both leave sum (x[:-1] - mean)^2 = 0), or b >= 1 (no mean
    reversion).  Every sum is math.fsum over elementwise products, so the
    bits depend on neither numpy's SIMD dispatch nor a BLAS kernel.
    """
    x0, x1 = x[:-1], x[1:]
    n = len(x0)

    def fsum(a):  # a memoryview hands fsum Python floats without a list
        return math.fsum(memoryview(a))

    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge series: sums go inf or nan
            m0, m1 = fsum(x0) / n, fsum(x1) / n
            d0, d1 = x0 - m0, x1 - m1
            sxx = fsum(d0 * d0)
            if not 0.0 < sxx < math.inf:
                return None
            b = fsum(d0 * d1) / sxx
            e = d1 - b * d0
            s2 = fsum(e * e) / n
    except (OverflowError, ValueError):  # fsum of inf and -inf, or past the largest float
        return None
    if not b < 1.0:
        return None
    a, k, sigma = m1 - b * m0, (1.0 - b) / dt, math.sqrt(s2 / dt)
    return (k, a / (1.0 - b), sigma) if model == "ou" else (a / dt, k, sigma)


def estimate_mle(path, model, init, bounds: Bounds, convention="cdf_dt"):
    """Fit the named model by bounded negative-log-likelihood minimization.

    model is one of 'ou', 'bk', 'ou_jump'; init is the parameter vector in
    record field order; an unknown convention, a non-finite path value or,
    for 'bk', a rate <= 0 raises before the fit, and bounded_minimize's
    checks of init raise on every path.  The objective is -log_likelihood,
    with the density floor, and its exact gradient, which is 0 on floored
    steps.  For 'ou' and 'bk' the fit is the closed-form MLE of _ar1_fit,
    reported with iterations = 0, when it exists, lies within the bounds
    and has a finite objective; otherwise, and for 'ou_jump',
    bounded_minimize runs from init.  Either way the objective is evaluated
    once at init.  Deterministic given (path, init, bounds).
    """
    values = _series(path, 2, "path", array=False)
    if model == "bk":
        values = _log_rates(values)  # once: bk_score reads the log-rates
    x0, pack = _start_point(model, init, bounds)
    jump_threshold(0.0, 1.0, convention)  # raises on an unknown convention
    score = _MODELS[model]
    extra = {"convention": convention} if model == "ou_jump" else {}
    x_prev, x_next, dt = values[:-1], values[1:], path.dt

    def objective(v):
        try:
            params = pack(v)
            dens, dlog = score(x_prev, x_next, dt, *(params if isinstance(params, tuple) else (params,)),
                               **extra)
        except DomainError:
            return np.inf, np.zeros_like(v)
        total, floored = _log_sum(dens)
        if not math.isfinite(total):
            return np.inf, np.zeros_like(v)
        if floored:
            dlog = np.where(dens >= DENSITY_FLOOR, dlog, 0.0)
        return -total, -dlog.sum(axis=1)

    if model != "ou_jump":
        t0 = time.perf_counter()
        v = _ar1_fit(values, dt, model)
        if v is not None and np.all(bounds.lower <= v) and np.all(v <= bounds.upper):
            value = objective(np.array(v))[0]
            if math.isfinite(value):
                wall = time.perf_counter() - t0
                _check_start(objective, x0, bounds, jac=True)  # bounded_minimize's checks of init
                return EstimationReport(pack(v), value, 0, wall, True)
    return bounded_minimize(objective, x0, bounds, pack, jac=True)


def _check_start(objective, x0, bounds: Bounds, jac):
    """The objective at x0, after checking that x0 lies within the bounds
    (DomainError) and that the value there is finite (InitError)."""
    if np.any(x0 < bounds.lower) or np.any(x0 > bounds.upper):
        raise DomainError("init must lie within bounds")
    held = objective(x0)
    if not np.isfinite(held[0] if jac is True else held):
        raise InitError("objective is not finite at the initial point")
    return held


@functools.cache
def _optimizer():
    """scipy.optimize, and the thread-count getter and setter of scipy's
    bundled OpenBLAS (no-ops where it bundles none): loaded once per
    process, on the first fit, so that importing sdefl loads no scipy.  A
    process that calls it before it forks hands its workers all three."""
    import ctypes
    import glob
    import os
    import scipy.optimize

    site = os.path.dirname(os.path.dirname(scipy.__file__))
    libs = glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        return scipy.optimize, lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (IndexError, OSError, AttributeError):
        return scipy.optimize, lambda: None, lambda threads: None


def bounded_minimize(objective, x0, bounds: Bounds, pack, jac="3-point"):
    """Shared fitting harness: L-BFGS-B, then a Nelder-Mead rescue pass if
    the line search fails.  With jac=True the objective returns (value,
    gradient) and L-BFGS-B steps on that gradient; otherwise jac names
    scipy's finite-difference scheme over the value.  The rescue uses the
    value alone, and the report's iterations add both passes' nit.  The
    start-point check's evaluation is L-BFGS-B's first, on the first call
    at x0 bit for bit, so a fit makes res.nfev calls of the objective.
    pack maps a raw parameter vector to the reported record.  Raises
    DomainError when x0 lies outside the bounds, InitError when the
    objective is not finite at x0, and DegenerateSystemError when it is
    not finite where the fit ends (a gradient that overflows can send
    L-BFGS-B out of the objective's domain).

    Both passes run on one thread of scipy's OpenBLAS, whose thread count
    is restored when they end or raise: at one thread per CPU, its threads
    contend with numpy's, and a fit took up to 25 times as long.  The
    count is process-wide, so fits in concurrent threads can leave it at 1."""
    optimize, get_threads, set_threads = _optimizer()
    value = (lambda v: objective(v)[0]) if jac is True else objective
    held = _check_start(objective, x0, bounds, jac)
    start = np.asarray(x0, dtype=float).tobytes()

    @functools.wraps(objective)
    def reuse_start(v):
        # L-BFGS-B evaluates x0 first: hand it the start check's result
        nonlocal held
        if held is not None and np.asarray(v, dtype=float).tobytes() == start:
            out, held = held, None
            return out
        return objective(v)

    box = optimize.Bounds(bounds.lower, bounds.upper)
    t0 = time.perf_counter()
    threads = get_threads()
    set_threads(1)
    try:
        res = optimize.minimize(reuse_start, x0, method="L-BFGS-B", jac=jac, bounds=box,
                                options={"finite_diff_rel_step": 1e-5})
        iterations = int(res.nit)
        if not res.success:
            res = optimize.minimize(value, res.x, method="Nelder-Mead", bounds=box)
            iterations += int(res.nit)
    finally:
        set_threads(threads)
    if not math.isfinite(res.fun):
        raise DegenerateSystemError(f"the fit ended where its objective is not finite ({res.fun})")
    wall = time.perf_counter() - t0
    return EstimationReport(params=pack(res.x), neg_log_lik=float(res.fun), iterations=iterations,
                            wall_clock_s=wall, converged=bool(res.success))
