"""Randomness, Gaussian helpers, and the sampled-path container.

Everything stochastic in this package flows through :class:`RandomSource`, a
thin wrapper over a counter-based bit generator (Philox) keyed by
``(seed, stream)``.  Two sources with the same key always produce the same
draws, on any platform, and ``substream`` derives statistically independent
child streams without consuming state, so results never depend on evaluation
order.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the largest count whose float64 array, with one more entry, numpy can lay
# out; below it, an allocation too large for the machine raises MemoryError
_MAX_COUNT = np.iinfo(np.intp).max // 8 - 1

# Fixed substream tags. Simulators and filters draw each noise source from its
# own substream so that e.g. a Bates run with zero jump intensity consumes the
# same diffusion draws as the matching Heston run.
STREAM_W1 = 1
STREAM_W2 = 2
STREAM_JUMP_TRIGGER = 3
STREAM_JUMP_SIZE = 4
STREAM_PF_INIT = 5
STREAM_PF_PROPOSAL = 6
STREAM_PF_RESAMPLE = 7


class DomainError(ValueError):
    """A numeric argument is outside its mathematical domain."""


class ShapeError(ValueError):
    """Array/series sizes do not line up."""


class InitError(ValueError):
    """An optimization start point is unusable (non-finite objective)."""


class DegenerateSystemError(RuntimeError):
    """A run broke down: a filter variance that is not positive, particle
    weights that all vanished, a simulated state past the floats, or a fit
    that ended where its objective is not finite."""


# the particle filter's former name for its breakdown, kept for callers
DegeneracyError = DegenerateSystemError


class ScenarioError(ValueError):
    """A scenario file is malformed or internally inconsistent."""


def _splitmix64(x):
    # Standard splitmix64 finalizer; good avalanche, cheap, pure-Python u64.
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@functools.cache
def _key_type():
    """The seed sequence that keys Philox by (seed, stream): its
    generate_state(2, uint64) returns the key itself.  Philox(key=...)
    would also build a SeedSequence from OS entropy and then discard it;
    this one reads none, and keys the same bit generator.  Made on first
    use, so that importing sdefl does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, seed, stream):
            self.words = np.array([seed, stream], dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Key


# Philox's starting counter, 0, as its four words: an int 0 would be split
# into words in Python on every call
_COUNTER = np.zeros(4, dtype=np.uint64)
_COUNTER.flags.writeable = False


@dataclass(frozen=True)
class RandomSource:
    """Deterministic, splittable source of random draws.

    ``seed`` names the experiment; ``stream`` separates independent uses of
    the same seed.  Equal (seed, stream) pairs give identical sequences.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) <= _MASK64):
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def substream(self, tag):
        """Child source for an independent purpose (int tag)."""
        mixed = _splitmix64(self.stream ^ ((int(tag) & _MASK64) * _GOLDEN & _MASK64))
        # seed is checked and mixed is a 64-bit int: skip __post_init__
        child = object.__new__(RandomSource)
        object.__setattr__(child, "seed", self.seed)
        object.__setattr__(child, "stream", mixed)
        return child

    def generator(self):
        """A fresh Generator over Philox keyed by (seed, stream)."""
        key = _key_type()(self.seed, self.stream)
        return np.random.Generator(np.random.Philox(key, counter=_COUNTER))

    def normals(self, n):
        return self.generator().standard_normal(_count(n, "n", 0))

    def uniforms(self, n):
        return self.generator().random(_count(n, "n", 0))

    def poissons(self, lam, n):
        if lam < 0:
            raise DomainError(f"Poisson rate must be >= 0, got {lam}")
        return self.generator().poisson(lam, _count(n, "n", 0))


def normal_pdf(x, mean, std):
    """Gaussian density; vectorizes over any argument.

    std must be > 0 (elementwise).
    """
    std_arr = np.asarray(std, dtype=float)
    if np.any(std_arr <= 0.0):
        raise DomainError("normal_pdf requires std > 0")
    with np.errstate(over="ignore"):  # far out, z * z is inf and the density 0
        z = (np.asarray(x, dtype=float) - mean) / std_arr
        out = np.exp(-0.5 * z * z) / (std_arr * math.sqrt(2.0 * math.pi))
    if np.ndim(x) == 0 and np.ndim(mean) == 0 and np.ndim(std) == 0:
        return float(out)
    return out


def normal_cdf(x):
    """Standard normal CDF, 0.5 * (1 + erf(x / sqrt 2)) by math.erf, for a
    scalar and for each element of an array."""
    if np.ndim(x) != 0:
        x = np.asarray(x, dtype=float)
        return np.fromiter(map(normal_cdf, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return 0.5 * (1.0 + math.erf(float(x) / math.sqrt(2.0)))


@dataclass(frozen=True)
class Path:
    """A discretely sampled trajectory on the implicit grid t0 + k*dt.

    ``values`` is 1-dim for scalar processes or (n, d) for joint ones. The
    array is copied and frozen; entry times are never stored per-point.  The
    last time, t0 + (n - 1) dt, must be finite.
    """

    t0: float
    dt: float
    values: np.ndarray
    seed: RandomSource | None = None
    warnings: tuple = ()

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.size == 0:
            raise ShapeError("a path needs at least one sample")
        if vals.ndim not in (1, 2):
            raise ShapeError(f"path values must be 1- or 2-dim, got ndim={vals.ndim}")
        object.__setattr__(self, "dt", _step(self.dt))
        object.__setattr__(self, "t0", float(self.t0))
        n = vals.shape[0]
        if not math.isfinite(2.0 * (self.t0 / 2.0 + self.dt / 2.0 * (n - 1))):
            raise DomainError(f"the path's last time t0 + (n - 1) * dt is not finite "
                              f"(t0 = {self.t0}, dt = {self.dt}, n = {n})")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def __len__(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    def times(self):
        """t0 + k dt for each sample k; in halves, 2 (t0/2 + k dt/2), where
        (n - 1) dt passes the floats, which is exact for normal floats."""
        k = np.arange(len(self))
        if math.isfinite(self.dt * (len(self) - 1)):
            return self.t0 + self.dt * k
        return 2.0 * (self.t0 / 2.0 + self.dt / 2.0 * k)


# The five input rules.  Every public entry point checks its arguments with
# these once, at its top, so a bad input is named before any numpy warning.


def _series(series, k=1, name="series", array=True):
    """The Series rule: series is a Path, or also an array when array is
    True, 1-dim with at least k points, and finite.  Returns its values; a
    DomainError names the 0-based index of the first non-finite one."""
    if isinstance(series, Path):
        values = series.values
    elif not array:
        raise DomainError(f"{name} must be a Path carrying dt")
    else:
        values = np.asarray(series, dtype=float)
    if values.ndim != 1 or values.shape[0] < k:
        points = "one point" if k == 1 else f"{k} points"
        raise ShapeError(f"{name} must be 1-dim and hold at least {points}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DomainError(f"{name} value at index {bad[0]} is not finite")
    return values


def _step(dt):
    """The Step rule: dt is finite and > 0.  Returns it as a float."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    return float(dt)


def _scalar(value, name):
    """The Scalar rule: value is a finite real number, or a 0-d array of
    one.  Returns it as a float."""
    if np.ndim(value) != 0:
        raise ShapeError(f"{name} must be a scalar, got shape {np.shape(value)}")
    if np.asarray(value).dtype.kind not in "iuf":
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return float(value)


def _variance(value, name):
    """The Variance rule: value is a finite scalar >= 0.  Returns it as a
    float."""
    if np.ndim(value) != 0:
        raise ShapeError(f"{name} must be a scalar, got shape {np.shape(value)}")
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


def _count(n, name, least=1):
    """The Count rule: n is a whole number (int or numpy integer) >= least,
    which is 1 except for a count that may be empty, and <= _MAX_COUNT.
    Returns it as an int."""
    if not (isinstance(n, (int, np.integer)) and n >= least):
        kind = "positive" if least == 1 else "non-negative"
        raise DomainError(f"{name} must be a {kind} integer, got {n}")
    if n > _MAX_COUNT:
        raise DomainError(f"{name} must be at most {_MAX_COUNT}, got {n}")
    return int(n)


def rmse(a, b):
    """Root-mean-square difference between two series of equal length, each
    a Path or an array that passes the Series rule."""
    va, vb = _series(a, name="a"), _series(b, name="b")
    if va.shape != vb.shape:
        raise ShapeError(f"rmse shapes differ: {va.shape} vs {vb.shape}")
    with np.errstate(over="ignore"):  # values near the float limit give inf
        d = va - vb
        return float(np.sqrt(np.mean(d * d)))
