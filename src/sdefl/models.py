"""SDE model definitions, their parameter layouts and Euler-Maruyama simulators.

MODELS gives each model's parameter vector, initial condition(s) and record
packer once, for the scenario driver and the fits alike.

Every simulator consumes a RandomSource and draws each noise source from its
own fixed substream (diffusion shocks, jump triggers, jump sizes).  Because
the streams are separated, switching a jump intensity to zero reproduces the
jump-free model path bitwise, and adding observation machinery downstream
never perturbs the simulated paths.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels
from .core import (
    STREAM_JUMP_SIZE,
    STREAM_JUMP_TRIGGER,
    STREAM_W1,
    STREAM_W2,
    DegenerateSystemError,
    DomainError,
    Path,
    RandomSource,
    _count,
    _step,
)

FELLER_WARNING = "feller-condition-violated"
# math.exp overflows just above this ln
_LN_FLOAT_MAX = math.log(sys.float_info.max)
# numpy's largest Poisson rate (POISSON_LAM_MAX in numpy.random._common)
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


def _require(cond, msg):
    if not cond:
        raise DomainError(msg)


def _finite(*vals):
    return all(math.isfinite(float(v)) for v in vals)


@dataclass(frozen=True)
class OuParams:
    """Mean-reverting diffusion: dX = theta*(mu - X) dt + sigma dW."""

    theta: float
    mu: float
    sigma: float

    def __post_init__(self):
        _require(_finite(self.theta, self.mu, self.sigma), "parameters must be finite")
        _require(self.theta >= 0.0, "theta must be >= 0")
        _require(self.sigma >= 0.0, "sigma must be >= 0")


@dataclass(frozen=True)
class JumpParams:
    """Additive jump layer: intensity lambda_j, size N(mu_j, sigma_j^2)."""

    lambda_j: float
    mu_j: float
    sigma_j: float

    def __post_init__(self):
        _require(_finite(self.lambda_j, self.mu_j, self.sigma_j), "parameters must be finite")
        _require(self.lambda_j >= 0.0, "lambda_j must be >= 0")
        _require(self.sigma_j >= 0.0, "sigma_j must be >= 0")


@dataclass(frozen=True)
class BkParams:
    """Log-space mean reversion: d(ln r) = (theta - alpha*ln r) dt + sigma dW."""

    theta: float
    alpha: float
    sigma: float

    def __post_init__(self):
        _require(_finite(self.theta, self.alpha, self.sigma), "parameters must be finite")
        _require(self.alpha > 0.0, "alpha must be > 0")
        _require(self.sigma >= 0.0, "sigma must be >= 0")


@dataclass(frozen=True)
class HestonParams:
    """Stochastic-variance model: log-price plus square-root variance."""

    mu_s: float
    kappa: float
    theta_v: float
    xi: float
    rho: float

    def __post_init__(self):
        _require(
            _finite(self.mu_s, self.kappa, self.theta_v, self.xi, self.rho),
            "parameters must be finite",
        )
        _require(self.kappa > 0.0, "kappa must be > 0")
        _require(self.theta_v > 0.0, "theta_v must be > 0")
        _require(self.xi >= 0.0, "xi must be >= 0")
        _require(-1.0 <= self.rho <= 1.0, "rho must lie in [-1, 1]")

    def feller_ok(self):
        """True when 2*kappa*theta_v > xi^2 (variance stays positive)."""
        return 2.0 * self.kappa * self.theta_v > self.xi * self.xi


@dataclass(frozen=True)
class BatesParams:
    """Heston dynamics plus lognormal price jumps of fixed relative size."""

    heston: HestonParams
    lam: float
    jump_size: float

    def __post_init__(self):
        _require(_finite(self.lam, self.jump_size), "parameters must be finite")
        _require(self.lam >= 0.0, "lam must be >= 0")
        _require(0.0 <= self.jump_size < 1.0, "jump_size must lie in [0, 1)")

    @property
    def mu_eff(self):
        # jump compensation shifts the observed drift
        return self.heston.mu_s + self.lam * self.jump_size


class Model(NamedTuple):
    """One row of MODELS.  fields names the parameter vector in fit order,
    start the simulation's initial condition(s), taken by simulate_<model>
    after the record(s); pack turns a vector in fields order into the
    record, or the (diffusion, jump) pair, holding Python floats."""

    fields: tuple
    start: tuple
    pack: Callable


def _ou(v):
    return OuParams(*map(float, v[:3]))


def _heston(v):
    return HestonParams(*map(float, v[:5]))


MODELS = {
    "ou": Model(("theta", "mu", "sigma"), ("x0",), _ou),
    "ou_jump": Model(("theta", "mu", "sigma", "lambda_j", "mu_j", "sigma_j"), ("x0",),
                     lambda v: (_ou(v), JumpParams(*map(float, v[3:])))),
    "bk": Model(("theta", "alpha", "sigma"), ("r0",), lambda v: BkParams(*map(float, v))),
    "heston": Model(("mu_s", "kappa", "theta_v", "xi", "rho"), ("s0", "v0"), _heston),
    "bates": Model(("mu_s", "kappa", "theta_v", "xi", "rho", "lam", "jump_size"), ("s0", "v0"),
                   lambda v: BatesParams(_heston(v), *map(float, v[5:]))),
}


def _check_states(ok, states):
    """Raise a DegenerateSystemError naming the first 0-based step whose
    state is not ok, a mask over the simulated arrays in states (name ->
    array); index k of each holds the state after step k - 1."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        shown = ", ".join(f"{name} = {values[bad[0]]}" for name, values in states.items())
        raise DegenerateSystemError(
            f"{' or '.join(states)} leaves the floats at step {bad[0] - 1} ({shown})")


def simulate_ou(params: OuParams, x0: float, dt: float, n_steps: int, src: RandomSource) -> Path:
    dt, n_steps = _step(dt), _count(n_steps, "n_steps")
    _require(_finite(x0), "x0 must be finite")
    z = src.substream(STREAM_W1).normals(n_steps)
    values = _kernels.ou_path(float(x0), params.theta, params.mu, params.sigma, dt, z)
    _check_states(np.isfinite(values), {"x": values})
    return Path(t0=0.0, dt=dt, values=values, seed=src)


def simulate_ou_jump(
    params: OuParams,
    jump: JumpParams,
    x0: float,
    dt: float,
    n_steps: int,
    src: RandomSource,
    convention: str = "cdf_dt",
) -> Path:
    """OU diffusion with at most one additive jump per step.

    A standard normal trigger gamma fires a jump when gamma < threshold.
    convention "cdf_dt" scales the threshold by dt (per-step firing
    probability Phi(lambda_j*dt)); "cdf_raw" uses lambda_j directly.
    """
    dt, n_steps = _step(dt), _count(n_steps, "n_steps")
    _require(_finite(x0), "x0 must be finite")
    threshold = jump_threshold(jump.lambda_j, dt, convention)
    z = src.substream(STREAM_W1).normals(n_steps)
    gamma = src.substream(STREAM_JUMP_TRIGGER).normals(n_steps)
    sizes = src.substream(STREAM_JUMP_SIZE).normals(n_steps)
    fired = gamma < threshold
    # a jump size past the floats takes the path with it, which
    # _check_states names; one that does not fire is dropped
    with np.errstate(over="ignore"):
        jump_add = np.where(fired, jump.mu_j + jump.sigma_j * sizes, 0.0)
    values = _kernels.ou_jump_path(
        float(x0), params.theta, params.mu, params.sigma, dt, z, jump_add
    )
    _check_states(np.isfinite(values), {"x": values})
    return Path(t0=0.0, dt=dt, values=values, seed=src)


def jump_threshold(lambda_j, dt, convention):
    """Jump-trigger threshold for the chosen convention."""
    if convention == "cdf_dt":
        return lambda_j * dt
    if convention == "cdf_raw":
        return lambda_j
    raise DomainError(f"convention must be 'cdf_dt' or 'cdf_raw', got '{convention}'")


def simulate_bk(params: BkParams, r0: float, dt: float, n_steps: int, src: RandomSource) -> Path:
    """Euler in ln r; returned values are the positive rates exp(ln r), by
    math.exp per step, which gives the same bits at every numpy SIMD level
    (numpy's AVX-512 exp rounds some values differently).  A path whose
    rate would overflow raises a DegenerateSystemError naming the step, as
    every simulator does for a state that leaves the floats."""
    dt, n_steps = _step(dt), _count(n_steps, "n_steps")
    _require(_finite(r0) and r0 > 0.0, "r0 must be > 0")
    z = src.substream(STREAM_W1).normals(n_steps)
    log_values = _kernels.bk_log_path(
        math.log(float(r0)), params.theta, params.alpha, params.sigma, dt, z
    )
    _check_states(np.isfinite(log_values) & (log_values <= _LN_FLOAT_MAX), {"ln r": log_values})
    values = np.fromiter(map(math.exp, log_values.tolist()), float, log_values.shape[0])
    return Path(t0=0.0, dt=dt, values=values, seed=src)


def _heston_like(params, mu_eff, jump_add, s0, v0, dt, n_steps, src):
    _require(_finite(s0) and s0 > 0.0, "s0 must be > 0")
    _require(_finite(v0) and v0 >= 0.0, "v0 must be >= 0")
    z1 = src.substream(STREAM_W1).normals(n_steps)
    z2 = src.substream(STREAM_W2).normals(n_steps)
    lns, v = _kernels.heston_paths(
        math.log(float(s0)),
        float(v0),
        mu_eff,
        params.kappa,
        params.theta_v,
        params.xi,
        params.rho,
        dt,
        z1,
        z2,
        jump_add,
    )
    _check_states(np.isfinite(lns) & np.isfinite(v), {"ln S": lns, "v": v})
    warnings = () if params.feller_ok() else (FELLER_WARNING,)
    log_price = Path(t0=0.0, dt=dt, values=lns, seed=src, warnings=warnings)
    # max(v, 0.0) per entry, bit for bit: -0.0 stays -0.0
    variance = Path(t0=0.0, dt=dt, values=np.where(v < 0.0, 0.0, v), seed=src, warnings=warnings)
    return log_price, variance


def simulate_heston(params: HestonParams, s0: float, v0: float, dt: float, n_steps: int, src: RandomSource):
    """Returns (log-price path, variance path)."""
    dt, n_steps = _step(dt), _count(n_steps, "n_steps")
    jump_add = np.zeros(n_steps)
    return _heston_like(params, params.mu_s, jump_add, s0, v0, dt, n_steps, src)


def simulate_bates(params: BatesParams, s0: float, v0: float, dt: float, n_steps: int, src: RandomSource):
    """Heston plus Poisson price jumps; returns (log-price path, variance path).

    Each step draws a Poisson(lam*dt) jump count; every jump multiplies the
    price by (1 - jump_size), i.e. adds ln(1 - jump_size) to the log price.
    The drift carries the compensator lam*jump_size.  A rate lam*dt that numpy
    cannot draw from is a DomainError.
    """
    dt, n_steps = _step(dt), _count(n_steps, "n_steps")
    h = params.heston
    lam_dt = params.lam * dt
    _require(lam_dt <= _POISSON_LAM_MAX,
             f"lam*dt = {lam_dt} exceeds numpy's largest Poisson rate {_POISSON_LAM_MAX}")
    counts = src.substream(STREAM_JUMP_TRIGGER).poissons(lam_dt, n_steps)
    jump_add = math.log1p(-params.jump_size) * counts.astype(np.float64)
    return _heston_like(h, params.mu_eff, jump_add, s0, v0, dt, n_steps, src)
