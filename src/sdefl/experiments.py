"""Scenario driver and artifact emission.

Declarative INI scenarios name a model, its parameters, a sampling grid,
and a method; :func:`run_scenario` maps them onto the simulation,
filtering, and estimation stack and writes deterministic CSV and SVG
artifacts.  Wall-clock numbers never enter CSV files, so repeated runs
with the same seed produce byte-identical trees; timings land in JSON
sidecars instead.
"""

import configparser
import dataclasses
import io
import json
import math
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    DegenerateSystemError,
    DomainError,
    Path,
    RandomSource,
    ScenarioError,
    ShapeError,
    _count,
    _step,
    _variance,
    rmse,
)
from .kalman import (
    DEFAULT_MEAS_VAR,
    _heston_ekf,
    _ou_kalman,
    _sv_system,
    ekf_log_likelihood,
    estimate_kalman,
    log_returns,
)
from .mle import Bounds, EstimationReport, bounded_minimize, estimate_mle
from . import models
from .models import MODELS
from .particle import _check_p0, particle_ekf_run

SCHEMA_VERSION = 1
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")

_STAGES = ("simulate", "filter", "estimate")

TABLE5_SCENARIOS = (
    "heston_ekf",
    "heston_ekf_task2",
    "heston_ekf_task3",
    "heston_ekf_task4",
)


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description.

    ``params`` holds the model's ``fields`` plus its ``start`` values (see
    :data:`sdefl.models.MODELS`);
    ``options`` holds the method options the scenario sets, and ``option``
    falls back to the defaults in :data:`METHODS`; ``outputs`` maps artifact
    kinds to bare file names.  Numbers may be given as INI text.

    Construction checks every value a stage reads, and builds ``records``, a
    tuple of the model's parameter records, and ``bounds``, the fit's Bounds.
    """

    name: str
    model: str
    params: dict
    dt: float
    n_steps: int
    seed: int
    method: str
    options: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    input_csv: Optional[str] = None
    records: tuple = field(init=False, repr=False, compare=False)
    bounds: Optional[Bounds] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError("scenario name must be a non-empty string")
        if self.model not in MODELS:
            raise ScenarioError(f"unknown model '{self.model}'")
        if self.method not in METHODS:
            raise ScenarioError(f"unknown method '{self.method}'")
        method = METHODS[self.method]
        if self.model not in method.models:
            raise ScenarioError(f"method '{self.method}' does not support model '{self.model}'")
        dt, n_steps = _parse("dt", _number, self.dt), _parse("n_steps", _integer, self.n_steps)
        seed = _parse("seed", _integer, self.seed)

        model = MODELS[self.model]
        names = model.fields + model.start
        want = set(names)
        got = set(self.params)
        if got != want:
            missing = ", ".join(sorted(want - got))
            extra = ", ".join(sorted(got - want))
            parts = []
            if missing:
                parts.append(f"missing: {missing}")
            if extra:
                parts.append(f"unknown: {extra}")
            raise ScenarioError(f"bad params for model '{self.model}' ({'; '.join(parts)})")
        params = {k: _parse(f"param '{k}'", _number, self.params[k]) for k in names}
        object.__setattr__(self, "params", params)

        for what, given, known in (("method options", self.options, method.options),
                                   ("output kinds", self.outputs, method.outputs)):
            unused = ", ".join(sorted(set(given) - set(known)))
            if unused:
                raise ScenarioError(f"unknown {what} for method '{self.method}': {unused}")
        options = {
            key: _parse(f"method '{self.method}' option '{key}'", method.options[key].parse, raw)
            for key, raw in self.options.items()
        }
        for key, spec in method.options.items():
            if spec.default is REQUIRED and key not in options:
                raise ScenarioError(f"method '{self.method}' requires option '{key}'")
        object.__setattr__(self, "options", options)

        stages = self.default_stages()
        for kind, fname in self.outputs.items():
            if not fname or os.path.basename(fname) != fname:
                raise ScenarioError(f"output '{kind}' must be a bare file name, got '{fname}'")
            if method.outputs[kind] not in stages:
                raise ScenarioError(
                    f"method '{self.method}' writes output '{kind}' in its "
                    f"{method.outputs[kind]} stage, which needs option 'init'"
                )
        object.__setattr__(self, "outputs", dict(self.outputs))

        # core's input rules and the records' own checks, as ScenarioErrors
        try:
            dt, n_steps, _ = _step(dt), _count(n_steps, "n_steps"), RandomSource(seed)
            if not math.isfinite(n_steps * dt):
                raise DomainError(f"the grid's last time n_steps * dt is not finite "
                                  f"(dt = {dt}, n_steps = {n_steps})")
            records = model.pack([params[k] for k in model.fields])
            for key, rule in (("p0", _variance), ("meas_var", _variance), ("n_particles", _count)):
                if key in method.options:
                    rule(self.option(key), key)
            if self.method == "particle_ekf":
                h = records.heston if self.model == "bates" else records
                _check_p0(h.xi, h.rho, self.option("p0"))
            init = options.get("init")
            bounds = None if init is None else self._bounds(np.asarray(init), len(model.fields))
        except DomainError as exc:
            raise ScenarioError(str(exc)) from None
        records = records if isinstance(records, tuple) else (records,)
        for key, value in zip(("dt", "n_steps", "seed", "records", "bounds"),
                              (dt, n_steps, seed, records, bounds)):
            object.__setattr__(self, key, value)

    def _bounds(self, init, n_fields):
        """The fit's Bounds: one pair per init entry, lower < upper, with
        init inside them; an ekf fit takes 5 entries, any other n_fields."""
        n = 5 if self.method == "ekf" else n_fields
        if len(init) != n:
            raise ScenarioError("ekf estimation init needs 5 entries" if self.method == "ekf"
                                else f"init must have {n} entries for '{self.model}'")
        lower, upper = self.option("bounds_lower"), self.option("bounds_upper")
        if {len(lower), len(upper)} - {1, n}:
            raise ScenarioError(f"bounds must be scalar or {n} entries")
        bounds = Bounds(np.broadcast_to(lower, n), np.broadcast_to(upper, n))
        if np.any(init < bounds.lower) or np.any(init > bounds.upper):
            raise ScenarioError("init must lie within bounds")
        return bounds

    def option(self, key):
        """The value of an option the method reads: the scenario's, else the default."""
        return self.options.get(key, METHODS[self.method].options[key].default)

    def default_stages(self):
        """simulate, then the method's own stages; estimate needs init."""
        return ("simulate",) + tuple(
            st for st in METHODS[self.method].stages if st != "estimate" or "init" in self.options
        )


@dataclass(frozen=True)
class RunReport:
    """What a scenario run produced: tracking error, fit, artifacts, timings."""

    scenario: str
    seed: int
    rmse: Optional[float] = None
    log_lik: Optional[float] = None
    estimation: Optional[EstimationReport] = None
    timings: dict = field(default_factory=dict)
    artifacts: tuple = ()


def list_scenarios():
    """Names of the packaged scenario files, sorted."""
    names = [f[:-4] for f in os.listdir(SCENARIO_DIR) if f.endswith(".scn")]
    return tuple(sorted(names))


def _parse(what, parse, raw):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ScenarioError(f"{what} {exc}") from None


def _number(raw):
    """A finite float, from INI text or a number."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"must be a number, got '{raw}'") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got '{raw}'")
    return value


def _numbers(raw):
    """A tuple of finite floats, from comma-separated INI text or numbers."""
    parts = [p.strip() for p in raw.split(",")] if isinstance(raw, str) else np.atleast_1d(raw)
    return tuple(_number(part) for part in parts)


def _integer(raw):
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"must be an integer, got '{raw}'") from None


def _choice(*allowed):
    def parse(raw):
        if raw not in allowed:
            raise ValueError(f"must be {' or '.join(map(repr, allowed))}, got '{raw}'")
        return raw

    return parse


def _ini_problem(exc):
    """The line and the fault that configparser's exc found in a file."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: key '{exc.option}' repeats in [{exc.section}]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] repeats"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: a key before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: neither 'key = value' nor a [section] header"
    return exc.message


def load_scenario(name_or_path) -> Scenario:
    """Load a scenario by packaged name or by explicit .scn file path."""
    path = str(name_or_path)
    if not os.path.isfile(path):
        candidate = os.path.join(SCENARIO_DIR, path + ".scn")
        if not os.path.isfile(candidate):
            known = ", ".join(list_scenarios())
            raise ScenarioError(f"no scenario named '{name_or_path}' (known: {known})")
        path = candidate

    with open(path, "rb") as fh:
        data = fh.read()
    cp = configparser.ConfigParser(interpolation=None)
    try:
        # newline=None reads line ends as open() in text mode does
        cp.read_file(io.StringIO(data.decode("utf-8"), newline=None), source=path)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioError(f"scenario file '{path}', line {line}: bytes that are not UTF-8") from None
    except configparser.Error as exc:
        raise ScenarioError(f"scenario file '{path}', {_ini_problem(exc)}") from None

    sections = set(cp.sections())
    required = {"scenario", "params", "method"}
    if not required <= sections:
        raise ScenarioError(f"scenario file needs sections {sorted(required)}")
    unknown = sections - required - {"outputs"}
    if unknown:
        raise ScenarioError(f"unknown sections: {', '.join(sorted(unknown))}")

    head = dict(cp.items("scenario"))
    for key in ("schema_version", "name", "model", "dt", "n_steps", "seed"):
        if key not in head:
            raise ScenarioError(f"[scenario] is missing '{key}'")
    extra = set(head) - {"schema_version", "name", "model", "dt", "n_steps", "seed", "input_csv"}
    if extra:
        raise ScenarioError(f"unknown [scenario] keys: {', '.join(sorted(extra))}")
    input_csv = head.get("input_csv")
    if input_csv is not None and not os.path.isabs(input_csv):
        # relative data files travel with the scenario file
        input_csv = os.path.join(os.path.dirname(os.path.abspath(path)), input_csv)
    version = _parse("schema_version", _integer, head["schema_version"])
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version}, expected {SCHEMA_VERSION}")

    options = dict(cp.items("method"))
    if "kind" not in options:
        raise ScenarioError("[method] is missing 'kind'")
    kind = options.pop("kind")

    return Scenario(
        name=head["name"],
        model=head["model"],
        params=dict(cp.items("params")),
        dt=head["dt"],
        n_steps=head["n_steps"],
        seed=head["seed"],
        method=kind,
        options=options,
        outputs=dict(cp.items("outputs")) if cp.has_section("outputs") else {},
        input_csv=input_csv,
    )


def _simulate(sc: Scenario, seed: int):
    src = RandomSource(seed)
    # looked up per call: perfbench's tracer wraps the models module's attributes
    simulate = getattr(models, f"simulate_{sc.model}")
    start = [sc.params[k] for k in MODELS[sc.model].start]
    return simulate(*sc.records, *start, sc.dt, sc.n_steps, src)


def _load_series(sc: Scenario):
    """Read the measurement series from CSV instead of simulating one.

    The time column must sit on a uniform grid matching the scenario dt and
    every entry must be finite; scalar models take one value column, the
    stochastic-volatility models take log-price and variance columns.
    """
    try:
        with open(sc.input_csv, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            body = fh.readlines()
        data = np.loadtxt(body, delimiter=",", ndmin=2)
    except OSError:
        raise ScenarioError(f"cannot read input_csv '{sc.input_csv}'") from None
    except ValueError as exc:
        raise ScenarioError(f"bad input_csv '{sc.input_csv}': {exc}") from None
    if len(header) < 2 or header[0] != "t" or data.shape[1] != len(header):
        raise ScenarioError("input_csv needs a 't' column plus value columns")
    if data.shape[0] < 2:
        raise ScenarioError("input_csv needs at least 2 rows")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        # loadtxt skips blank and comment-only lines; the header is line 1
        lines = [i for i, text in enumerate(body, start=2) if text.split("#", 1)[0].strip()]
        raise ScenarioError(
            f"input_csv '{sc.input_csv}' line {lines[row]}: "
            f"column '{header[col]}' is not finite"
        )
    t = data[:, 0]
    if not np.allclose(np.diff(t), sc.dt, rtol=0.0, atol=1e-9 * max(1.0, abs(sc.dt))):
        raise ScenarioError("input_csv time grid does not match the scenario dt")
    want = 2 if sc.model in ("heston", "bates") else 1
    if data.shape[1] - 1 != want:
        raise ScenarioError(
            f"model '{sc.model}' needs {want} value column(s), got {data.shape[1] - 1}"
        )
    t0 = float(t[0])
    if want == 1:
        return Path(t0=t0, dt=sc.dt, values=data[:, 1])
    return (
        Path(t0=t0, dt=sc.dt, values=data[:, 1]),
        Path(t0=t0, dt=sc.dt, values=data[:, 2]),
    )


def _get_series(sc: Scenario, seed: int):
    if sc.input_csv is not None:
        return _load_series(sc)
    return _simulate(sc, seed)


def _filter_kalman(sc: Scenario, sim, seed: int):
    v = [sc.params[k] for k in MODELS[sc.model].fields]
    # a huge series overflows the kernel's sums, as in estimate_kalman's fit
    with np.errstate(over="ignore", invalid="ignore"):
        est, ll, _ = _ou_kalman(sim.values[1:], float(sim.values[0]), v, sc.dt,
                                sc.option("meas_var"))
    return sim, est, ll


def _filter_ekf(sc: Scenario, sim, seed: int):
    lns, variance = sim
    (obj,) = sc.records
    sys = _sv_system(obj, sc.dt, log_returns(lns))
    v_post, _, ll = _heston_ekf(sys.dlns, sys, sc.option("v0_guess"), sc.option("p0"))
    return variance, v_post[1:], ll


def _filter_particle_ekf(sc: Scenario, sim, seed: int):
    lns, variance = sim
    (obj,) = sc.records
    est, ll = particle_ekf_run(
        lns, obj, sc.option("n_particles"), RandomSource(seed),
        x0_guess=sc.option("v0_guess"), p0=sc.option("p0"),
    )
    return variance, est.values[1:], ll


def _estimate_mle(sc: Scenario, sim) -> EstimationReport:
    return estimate_mle(sim, sc.model, sc.option("init"), sc.bounds,
                        convention=sc.option("jump_convention"))


def _estimate_kalman(sc: Scenario, sim) -> EstimationReport:
    return estimate_kalman(sim, sc.model, sc.option("init"), sc.bounds,
                           meas_var=sc.option("meas_var"))


def _estimate_ekf(sc: Scenario, sim) -> EstimationReport:
    """Fit the five stochastic-volatility parameters by minimising the EKF's
    negative Gaussian innovation log-likelihood, whose gradient
    bounded_minimize takes by differences within the bounds; a Bates fit
    holds lam and jump_size fixed."""
    lns, _ = sim
    dl = log_returns(lns)
    v0_guess, p0 = sc.option("v0_guess"), sc.option("p0")
    model = MODELS[sc.model]
    held = [sc.params[k] for k in model.fields[5:]]  # bates: lam, jump_size

    def objective(v):
        try:
            sys = _sv_system(model.pack([*v, *held]), sc.dt, dl)
            val = -ekf_log_likelihood(dl, sys, x0=v0_guess, p0=p0)
        except (DomainError, DegenerateSystemError):
            return np.inf
        return val if math.isfinite(val) else np.inf

    return bounded_minimize(objective, np.asarray(sc.option("init")), sc.bounds,
                            MODELS["heston"].pack)


class Option(NamedTuple):
    """How a method reads one option: its INI parser and its default."""

    parse: Callable
    default: object


REQUIRED = object()  # an Option default: the scenario must set the key


class Method(NamedTuple):
    """One row of METHODS: the models a method drives, its stages after
    simulate (name -> stage function), the options it reads (key -> Option)
    and the outputs it writes (kind -> the stage that writes it).  Any other
    option or output is a ScenarioError.  A filter stage returns (tracked
    Path, estimates, log-likelihood), an estimate stage its report."""

    models: tuple
    stages: dict
    options: dict
    outputs: dict


_BOUNDS = {"bounds_lower": Option(_numbers, (1e-15,)), "bounds_upper": Option(_numbers, (6.0,))}
_VARIANCE_START = {"v0_guess": Option(_number, 1.0), "p0": Option(_number, 1.0)}
_TRACKED = {"series_csv": "simulate", "filtered_csv": "filter", "plot_svg": "filter"}

METHODS = {
    "simulate": Method(tuple(MODELS), {}, {}, {"series_csv": "simulate", "plot_svg": "simulate"}),
    "mle": Method(
        ("ou", "ou_jump", "bk"),
        {"estimate": _estimate_mle},
        {"init": Option(_numbers, REQUIRED), **_BOUNDS,
         "jump_convention": Option(_choice("cdf_dt", "cdf_raw"), "cdf_dt")},
        {"series_csv": "simulate", "estimate_csv": "estimate"},
    ),
    "kalman": Method(
        ("ou", "ou_jump"),
        {"filter": _filter_kalman, "estimate": _estimate_kalman},
        {"init": Option(_numbers, REQUIRED), **_BOUNDS,
         "meas_var": Option(_number, DEFAULT_MEAS_VAR)},
        {**_TRACKED, "estimate_csv": "estimate"},
    ),
    "ekf": Method(
        ("heston", "bates"),
        {"filter": _filter_ekf, "estimate": _estimate_ekf},
        {"init": Option(_numbers, None),
         "bounds_lower": Option(_numbers, (1e-15,) * 4 + (-0.999,)),
         "bounds_upper": Option(_numbers, (6.0,) * 4 + (0.999,)),
         **_VARIANCE_START},
        {**_TRACKED, "estimate_csv": "estimate"},
    ),
    "particle_ekf": Method(
        ("heston", "bates"),
        {"filter": _filter_particle_ekf},
        {"n_particles": Option(_integer, 1000), **_VARIANCE_START},
        _TRACKED,
    ),
}


def run_scenario(sc: Scenario, out_dir=None, seed=None, stages=None) -> RunReport:
    """Execute a scenario and write the artifacts it names.

    seed overrides the scenario's own seed; stages restricts the pipeline
    (any subset of simulate/filter/estimate, later stages pull in the
    simulation they need).
    """
    use_seed = sc.seed if seed is None else int(seed)
    out = out_dir if out_dir is not None else os.getcwd()
    allowed = sc.default_stages()
    stages = allowed if stages is None else tuple(stages)
    for st in stages:
        if st not in _STAGES:
            raise ScenarioError(f"unknown stage '{st}'")
        if st not in allowed:
            raise ScenarioError(f"scenario '{sc.name}' has no {st} stage")
    method = METHODS[sc.method]
    # the table ties each output kind to the one stage that writes it
    files = {
        kind: os.path.join(out, fname)
        for kind, fname in sc.outputs.items()
        if method.outputs[kind] in stages
    }

    timings = {}
    started = time.perf_counter()
    sim = _get_series(sc, use_seed)
    timings["simulate"] = time.perf_counter() - started

    if "series_csv" in files:
        if sc.model in ("heston", "bates"):
            lns, variance = sim
            joint = Path(t0=lns.t0, dt=lns.dt,
                         values=np.column_stack([lns.values, variance.values]))
            emit_csv(joint, files["series_csv"], labels=("log_price", "variance"))
        else:
            emit_csv(sim, files["series_csv"])
    if "plot_svg" in files and method.outputs["plot_svg"] == "simulate":
        if sc.model in ("heston", "bates"):
            lns, variance = sim
            emit_plot([("log_price", lns), ("variance", variance)], files["plot_svg"])
        else:
            emit_plot([(sc.model, sim)], files["plot_svg"])

    tracking_rmse = None
    log_lik = None
    if "filter" in stages:
        t1 = time.perf_counter()
        tracked, est, log_lik = method.stages["filter"](sc, sim, use_seed)
        truth = tracked.values[1:]
        log_lik = float(log_lik)
        tracking_rmse = float(rmse(est, truth)) if np.isfinite(est).all() else math.nan
        for what, value in (("log-likelihood", log_lik), ("RMSE", tracking_rmse)):
            if not math.isfinite(value):
                raise DegenerateSystemError(f"the filter's {what} is not finite ({value})")
        timings["filter"] = time.perf_counter() - t1
        t0 = tracked.t0 + tracked.dt
        if "filtered_csv" in files:
            joint = Path(t0=t0, dt=sc.dt, values=np.column_stack([truth, est]))
            emit_csv(joint, files["filtered_csv"], labels=("truth", "estimate"))
        if "plot_svg" in files:
            emit_plot([("truth", Path(t0, sc.dt, truth)), ("estimate", Path(t0, sc.dt, est))],
                      files["plot_svg"])

    report = None
    if "estimate" in stages:
        t2 = time.perf_counter()
        report = method.stages["estimate"](sc, sim)
        timings["estimate"] = time.perf_counter() - t2
        if "estimate_csv" in files:
            emit_csv(report, files["estimate_csv"])

    return RunReport(
        scenario=sc.name,
        seed=use_seed,
        rmse=tracking_rmse,
        log_lik=log_lik,
        estimation=report,
        timings=timings,
        artifacts=tuple(files.values()),
    )


def _flatten_params(obj, into):
    if isinstance(obj, tuple):
        for part in obj:
            _flatten_params(part, into)
        return
    for k, v in dataclasses.asdict(obj).items():
        if isinstance(v, dict):
            into.update(v)
        else:
            into[k] = v


def _write_csv(file_path, header, rows):
    """Write one CSV file (atomic, LF, UTF-8) from a header and rows of
    strings; the one place the CSV format lives."""
    _atomic_write(file_path, "".join(",".join(row) + "\n" for row in (header, *rows)))


def emit_csv(obj, file_path, labels=None):
    """Write a Path or EstimationReport as CSV (atomic, LF, UTF-8).

    Floats are written with ``repr``, the shortest text that round-trips to
    the same float.  Wall-clock fields are deliberately dropped so output
    bytes depend only on the data.
    """
    if isinstance(obj, Path):
        d = obj.dim
        default = ("value",) if obj.values.ndim == 1 else tuple(f"value_{k}" for k in range(d))
        names = tuple(labels) if labels else default
        if len(names) != d:
            raise ShapeError(f"need {d} column labels, got {len(names)}")
        columns = [obj.times().tolist(), *obj.values.reshape(len(obj), -1).T.tolist()]
        rows = (map(repr, row) for row in zip(*columns))
        _write_csv(file_path, ("t",) + names, rows)
    elif isinstance(obj, EstimationReport):
        flat = {}
        _flatten_params(obj.params, flat)
        rows = [(k, repr(float(v))) for k, v in flat.items()]
        rows.append(("neg_log_lik", repr(float(obj.neg_log_lik))))
        rows.append(("iterations", str(int(obj.iterations))))
        rows.append(("converged", str(bool(obj.converged)).lower()))
        _write_csv(file_path, ("field", "value"), rows)
    else:
        raise ShapeError(f"cannot emit {type(obj).__name__} as CSV")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_SVG_W, _SVG_H = 800, 500
_FLOAT_MAX = float(np.finfo(float).max)
_MARGIN = {"left": 60.0, "right": 20.0, "top": 20.0, "bottom": 40.0}


def _escape(text):
    """Escape &, < and > for SVG text, as xml.sax.saxutils.escape does by
    default; importing that module pulls in urllib, http, email and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo, hi, count=5):
    # the fraction first: (hi - lo) * k overflows where hi - lo nears the
    # largest float, and scaling by k / 4 rounds as scaling by k then 4 does
    return [lo + (hi - lo) * (k / (count - 1)) for k in range(count)]


def _axis(lo, hi, pad):
    """(lo, hi, scale): the axis of values in [lo, hi], widened at each end
    by pad times its span.  Positions and ticks are taken on values times
    scale, and labels divide by it: past 2**1020 in magnitude an axis is
    laid out in quarters, where its padded span stays finite.  A range of
    one value gets a span of 1, or of one ulp where 1 is below it, downward
    from the largest float; the axis ends within the floats, as its labels
    must."""
    scale = 0.25 if max(-lo, hi) > 2.0**1020 else 1.0
    lo, hi, top = lo * scale, hi * scale, _FLOAT_MAX * scale
    if hi <= lo:
        w = max(1.0, math.ulp(lo))
        lo, hi = (lo, lo + w) if lo + w <= top else (lo - w, lo)
    pad *= hi - lo
    return max(lo - pad, -top), min(hi + pad, top), scale


def emit_plot(labeled_paths, file_path):
    """Render scalar paths as a deterministic standalone SVG line chart."""
    series = list(labeled_paths)
    if not series:
        raise ShapeError("need at least one path to plot")
    for _, p in series:
        if not isinstance(p, Path) or p.values.ndim != 1:
            raise ShapeError("emit_plot takes (label, scalar Path) pairs")

    xs = [p.times() for _, p in series]
    x_lo, x_hi, x_scale = _axis(min(float(t[0]) for t in xs), max(float(t[-1]) for t in xs), 0.0)
    y_lo, y_hi, y_scale = _axis(min(float(np.min(p.values)) for _, p in series),
                                max(float(np.max(p.values)) for _, p in series), 0.05)

    plot_w = _SVG_W - _MARGIN["left"] - _MARGIN["right"]
    plot_h = _SVG_H - _MARGIN["top"] - _MARGIN["bottom"]

    def sx(t):
        return _MARGIN["left"] + (t - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN["top"] + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
        f'<g stroke="#333333" stroke-width="1">'
        f'<line x1="{_MARGIN["left"]}" y1="{_MARGIN["top"] + plot_h:.2f}" '
        f'x2="{_MARGIN["left"] + plot_w:.2f}" y2="{_MARGIN["top"] + plot_h:.2f}"/>'
        f'<line x1="{_MARGIN["left"]}" y1="{_MARGIN["top"]}" '
        f'x2="{_MARGIN["left"]}" y2="{_MARGIN["top"] + plot_h:.2f}"/></g>',
    ]
    for tv in _ticks(x_lo, x_hi):
        x = sx(tv)
        y = _MARGIN["top"] + plot_h
        parts.append(
            f'<line x1="{x:.2f}" y1="{y:.2f}" x2="{x:.2f}" y2="{y + 5:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
            f'<text x="{x:.2f}" y="{y + 18:.2f}" font-family="sans-serif" font-size="12" '
            f'text-anchor="middle" fill="#333333">{tv / x_scale:.6g}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        y = sy(tv)
        x = _MARGIN["left"]
        parts.append(
            f'<line x1="{x - 5:.2f}" y1="{y:.2f}" x2="{x:.2f}" y2="{y:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
            f'<text x="{x - 8:.2f}" y="{y + 4:.2f}" font-family="sans-serif" font-size="12" '
            f'text-anchor="end" fill="#333333">{tv / y_scale:.6g}</text>'
        )
    for idx, (label, p) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        xy = zip(sx(p.times() * x_scale).tolist(), sy(p.values * y_scale).tolist())
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in xy)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN["top"] + 16 + 18 * idx
        lx = _MARGIN["left"] + plot_w - 150
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 24:.2f}" y2="{ly - 4:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{lx + 30:.2f}" y="{ly:.2f}" font-family="sans-serif" font-size="12" '
            f'fill="#333333">{_escape(str(label))}</text>'
        )
    parts.append("</svg>")
    _atomic_write(file_path, "\n".join(parts) + "\n")


def _atomic_write(file_path, text):
    target = os.path.abspath(file_path)
    parent = os.path.dirname(target)
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".sdefl-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def benchmark(sc_a: Scenario, sc_b: Scenario, out_dir=None, seed=None, repetitions=5):
    """Time two estimation scenarios on one shared series.

    Both scenarios must fit the same model; the series is simulated from
    sc_a's configuration.  After one untimed warmup per method the two
    methods run in turn, ``repetitions`` times each, so that a load that
    comes and goes slows both alike; the median of each side's runs is
    reported.  The comparison lands in a JSON file, never in a CSV.
    """
    try:
        repetitions = _count(repetitions, "repetitions")
    except DomainError as exc:
        raise ScenarioError(str(exc)) from None
    if sc_a.model != sc_b.model:
        raise ScenarioError(
            f"benchmark needs one model, got '{sc_a.model}' and '{sc_b.model}'"
        )
    for sc in (sc_a, sc_b):
        if "estimate" not in sc.default_stages():
            raise ScenarioError(f"scenario '{sc.name}' has no estimation stage")
    use_seed = sc_a.seed if seed is None else int(seed)
    out = out_dir if out_dir is not None else os.getcwd()

    sim = _get_series(sc_a, use_seed)
    sides = [(sc, METHODS[sc.method].stages["estimate"]) for sc in (sc_a, sc_b)]
    for sc, fit in sides:  # by position: a self-pair times both sides
        fit(sc, sim)  # warmup: lazy imports and cache effects land here
    times = ([], [])
    fits = [None, None]
    for _ in range(repetitions):
        for i, (sc, fit) in enumerate(sides):
            t0 = time.perf_counter()
            fits[i] = fit(sc, sim)
            times[i].append(time.perf_counter() - t0)
    med_a, med_b = (statistics.median(side) for side in times)
    fit_a, fit_b = fits

    def digits4(x):  # 4 significant digits: a closed-form fit takes about 4e-5 s
        return float(f"{x:.4g}")

    record = {
        "model": sc_a.model,
        "scenario_a": sc_a.name,
        "scenario_b": sc_b.name,
        "seed": use_seed,
        "repetitions": repetitions,
        "median_s_a": digits4(med_a),
        "median_s_b": digits4(med_b),
        "ratio_a_over_b": round(med_a / max(med_b, 1e-12), 4),
        "neg_log_lik_a": fit_a.neg_log_lik,
        "neg_log_lik_b": fit_b.neg_log_lik,
    }
    target = os.path.join(out, f"benchmark_{sc_a.name}_vs_{sc_b.name}.json")
    _atomic_write(target, json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def _write_table5_csv(reports, out_dir):
    target = os.path.join(out_dir, "table5_rmse.csv")
    rows = [(rep.scenario, repr(float(rep.rmse))) for rep in reports]
    _write_csv(target, ("scenario", "rmse"), rows)
    return target


def _run_one(sc, out, seed):
    # submitted by import path: perfbench's tracer replaces run_scenario
    # with a nested function, which cannot be pickled
    return run_scenario(sc, out_dir=out, seed=seed)


def _run_scenarios(scenarios, out, seed):
    """run_scenario on each scenario, one forked worker per available CPU;
    returns the reports in list order.

    Scenarios share no state and every draw is keyed by (seed, stream), so
    the bytes they write do not depend on the worker count.  The costliest
    (steps x particles) go first.  The first failure in list order cancels
    the scenarios not yet started and is raised; leaving the with block
    joins every worker.
    """
    import concurrent.futures
    import multiprocessing
    import signal

    def cost(i):
        sc = scenarios[i]
        particles = sc.option("n_particles") if "n_particles" in METHODS[sc.method].options else 1
        return sc.n_steps * particles

    workers = min(len(scenarios), len(os.sched_getaffinity(0)))
    # Ctrl-C reaches the workers too; they ignore it, so that this process
    # alone stops the run
    with concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN),
    ) as pool:
        order = sorted(range(len(scenarios)), key=cost, reverse=True)
        futures = {i: pool.submit(_run_one, scenarios[i], out, seed) for i in order}
        try:
            return [futures[i].result() for i in range(len(scenarios))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def reproduce(out_dir=None, seed=None):
    """Run every packaged scenario and write the Table 5 file.

    The scenarios run on one forked worker per available CPU.  CSV and SVG
    artifacts are byte-stable for a fixed seed; wall-clock numbers go to
    timings.json only.  ``sdefl benchmark`` times an MLE/Kalman pair.
    """
    out = out_dir if out_dir is not None else os.getcwd()
    reports = _run_scenarios([load_scenario(name) for name in list_scenarios()], out, seed)
    by_name = {rep.scenario: rep for rep in reports}
    _write_table5_csv([by_name[n] for n in TABLE5_SCENARIOS], out)
    timings = {
        rep.scenario: {k: round(v, 4) for k, v in rep.timings.items()} for rep in reports
    }
    _atomic_write(os.path.join(out, "timings.json"), json.dumps(timings, indent=2, sort_keys=True) + "\n")
    return reports
