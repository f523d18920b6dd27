"""Scenario driver and artifact emission.

Declarative INI scenarios name a model, its parameters, a sampling grid,
and a method; :func:`run_scenario` maps them onto the simulation,
filtering, and estimation stack and writes deterministic CSV and SVG
artifacts.  Wall-clock numbers never enter CSV files, so repeated runs
with the same seed produce byte-identical trees; timings land in JSON
sidecars instead.
"""

import configparser
import contextlib
import dataclasses
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
    rmse,
)
from .kalman import (
    DEFAULT_MEAS_VAR,
    _filter_inputs,
    _heston_ekf,
    _ou_kalman,
    bates_ekf_system,
    ekf_log_likelihood,
    estimate_kalman,
    heston_ekf_system,
    log_returns,
)
from .mle import Bounds, EstimationReport, bounded_minimize, estimate_mle
from . import models
from .models import MODELS
from .particle import particle_ekf_run

SCHEMA_VERSION = 1
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")

_STAGES = ("simulate", "filter", "estimate")

TABLE5_SCENARIOS = (
    "heston_ekf",
    "heston_ekf_task2",
    "heston_ekf_task3",
    "heston_ekf_task4",
)
BENCHMARK_PAIRS = (("ou_mle", "ou_kalman"), ("ou_jump_mle", "ou_jump_kalman"))


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description.

    ``params`` holds the model's ``fields`` plus its ``start`` values (see
    :data:`sdefl.models.MODELS`);
    ``options`` holds the method options the scenario sets, and ``option``
    falls back to the defaults in :data:`METHODS`; ``outputs`` maps artifact
    kinds to bare file names.  Numbers may be given as INI text.
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
        dt = _parse("dt", _number, self.dt)
        if dt <= 0.0:
            raise ScenarioError(f"dt must be positive, got {self.dt}")
        n_steps = _parse("n_steps", _count, self.n_steps)
        if n_steps < 1:
            raise ScenarioError("n_steps must be >= 1")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "seed", _parse("seed", _count, self.seed))

        names = MODELS[self.model].fields + MODELS[self.model].start
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


def _count(raw):
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


def load_scenario(name_or_path) -> Scenario:
    """Load a scenario by packaged name or by explicit .scn file path."""
    path = str(name_or_path)
    if not os.path.isfile(path):
        candidate = os.path.join(SCENARIO_DIR, path + ".scn")
        if not os.path.isfile(candidate):
            known = ", ".join(list_scenarios())
            raise ScenarioError(f"no scenario named '{name_or_path}' (known: {known})")
        path = candidate

    cp = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh, source=path)

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
    version = _parse("schema_version", _count, head["schema_version"])
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


def _records(sc: Scenario):
    """The scenario's parameter records, checked by their constructors, as a tuple."""
    model = MODELS[sc.model]
    records = model.pack([sc.params[k] for k in model.fields])
    return records if isinstance(records, tuple) else (records,)


def _simulate(sc: Scenario, seed: int):
    src = RandomSource(seed)
    # looked up per call: perfbench's tracer wraps the models module's attributes
    simulate = getattr(models, f"simulate_{sc.model}")
    start = [sc.params[k] for k in MODELS[sc.model].start]
    return simulate(*_records(sc), *start, sc.dt, sc.n_steps, src)


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
    v = [x for record in _records(sc) for x in dataclasses.astuple(record)]
    meas_var = sc.option("meas_var")
    if meas_var < 0.0:
        raise DomainError("meas_var must be >= 0")
    est, ll, _, status = _ou_kalman(sim.values[1:], float(sim.values[0]), v, sc.dt, meas_var)
    if status != 0:
        raise DegenerateSystemError("innovation variance is not positive")
    return sim, est, ll


def _ekf_system(sc: Scenario, p, lns):
    build = heston_ekf_system if sc.model == "heston" else bates_ekf_system
    return build(p, sc.dt, lns)


def _filter_ekf(sc: Scenario, sim, seed: int):
    lns, variance = sim
    (obj,) = _records(sc)
    v0_guess, p0 = sc.option("v0_guess"), sc.option("p0")
    dlns = _filter_inputs(log_returns(lns), v0_guess, p0, "v0_guess")
    v_post, _, _, _, ll = _heston_ekf(dlns, _ekf_system(sc, obj, lns), v0_guess, p0)
    return variance, v_post[1:], ll


def _filter_particle_ekf(sc: Scenario, sim, seed: int):
    lns, variance = sim
    (obj,) = _records(sc)
    est, ll = particle_ekf_run(
        lns, obj, sc.option("n_particles"), RandomSource(seed),
        x0_guess=sc.option("v0_guess"), p0=sc.option("p0"),
    )
    return variance, est.values[1:], ll


def _estimate_bounds(sc: Scenario):
    """The fit bounds, one pair per init entry; a scalar bound applies to all."""
    n_params = len(sc.option("init"))
    lower, upper = sc.option("bounds_lower"), sc.option("bounds_upper")
    if {len(lower), len(upper)} - {1, n_params}:
        raise ScenarioError(f"bounds must be scalar or {n_params} entries")
    return Bounds(np.broadcast_to(lower, n_params), np.broadcast_to(upper, n_params))


def _estimate_mle(sc: Scenario, sim) -> EstimationReport:
    return estimate_mle(sim, sc.model, sc.option("init"), _estimate_bounds(sc),
                        convention=sc.option("jump_convention"))


def _estimate_kalman(sc: Scenario, sim) -> EstimationReport:
    return estimate_kalman(sim, sc.model, sc.option("init"), _estimate_bounds(sc),
                           meas_var=sc.option("meas_var"))


def _estimate_ekf(sc: Scenario, sim) -> EstimationReport:
    """Fit the five stochastic-volatility parameters by EKF objective, the
    'gaussian' one negated; a Bates fit holds lam and jump_size fixed."""
    lns, _ = sim
    dl = log_returns(lns)
    v0_guess, p0, objective_kind = sc.option("v0_guess"), sc.option("p0"), sc.option("objective")
    init = np.asarray(sc.option("init"), dtype=float)
    if init.shape != (5,):
        raise ScenarioError("ekf estimation init needs 5 entries")
    bounds = _estimate_bounds(sc)
    _records(sc)  # checks the scenario's values before the fit
    model = MODELS[sc.model]
    held = [sc.params[k] for k in model.fields[5:]]  # bates: lam, jump_size
    sign = -1.0 if objective_kind == "gaussian" else 1.0

    def objective(v):
        try:
            sys = _ekf_system(sc, model.pack([*v, *held]), lns)
            val = sign * ekf_log_likelihood(dl, sys, x0=v0_guess, p0=p0, objective=objective_kind)
        except (DomainError, DegenerateSystemError):
            return np.inf
        return val if math.isfinite(val) else np.inf

    return bounded_minimize(objective, init, bounds, MODELS["heston"].pack)


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
         "objective": Option(_choice("quadratic", "gaussian"), "quadratic"),
         **_VARIANCE_START},
        {**_TRACKED, "estimate_csv": "estimate"},
    ),
    "particle_ekf": Method(
        ("heston", "bates"),
        {"filter": _filter_particle_ekf},
        {"n_particles": Option(_count, 1000), **_VARIANCE_START},
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
        tracking_rmse, log_lik = float(rmse(est, truth)), float(log_lik)
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


def _fmt(x):
    """Shortest decimal text that round-trips back to the same float."""
    return repr(float(x))


def _flatten_params(obj, into, prefix=""):
    if isinstance(obj, tuple):
        for part in obj:
            _flatten_params(part, into, prefix)
        return
    for k, v in dataclasses.asdict(obj).items():
        if isinstance(v, dict):
            for kk, vv in v.items():
                into[f"{prefix}{kk}"] = vv
        else:
            into[f"{prefix}{k}"] = v


def emit_csv(obj, file_path, labels=None):
    """Write a Path or EstimationReport as CSV (atomic, LF, UTF-8).

    Wall-clock fields are deliberately dropped so output bytes depend only
    on the data.
    """
    lines = []
    if isinstance(obj, Path):
        t = obj.times()
        if obj.values.ndim == 1:
            header = ("t", labels[0] if labels else "value")
            lines.append(",".join(header))
            for tk, vk in zip(t, obj.values):
                lines.append(f"{_fmt(tk)},{_fmt(vk)}")
        else:
            d = obj.values.shape[1]
            names = tuple(labels) if labels else tuple(f"value_{k}" for k in range(d))
            if len(names) != d:
                raise ShapeError(f"need {d} column labels, got {len(names)}")
            lines.append(",".join(("t",) + names))
            for k in range(obj.values.shape[0]):
                row = ",".join(_fmt(v) for v in obj.values[k])
                lines.append(f"{_fmt(t[k])},{row}")
    elif isinstance(obj, EstimationReport):
        lines.append("field,value")
        flat = {}
        _flatten_params(obj.params, flat)
        for k, v in flat.items():
            lines.append(f"{k},{_fmt(v)}")
        lines.append(f"neg_log_lik,{_fmt(obj.neg_log_lik)}")
        lines.append(f"iterations,{int(obj.iterations)}")
        lines.append(f"converged,{str(bool(obj.converged)).lower()}")
    else:
        raise ShapeError(f"cannot emit {type(obj).__name__} as CSV")
    _atomic_write(file_path, "\n".join(lines) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_SVG_W, _SVG_H = 800, 500
_MARGIN = {"left": 60.0, "right": 20.0, "top": 20.0, "bottom": 40.0}


def _escape(text):
    """Escape &, < and > for SVG text, as xml.sax.saxutils.escape does by
    default; importing that module pulls in urllib, http, email and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo, hi, count=5):
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def emit_plot(labeled_paths, file_path):
    """Render scalar paths as a deterministic standalone SVG line chart."""
    series = list(labeled_paths)
    if not series:
        raise ShapeError("need at least one path to plot")
    for _, p in series:
        if not isinstance(p, Path) or p.values.ndim != 1:
            raise ShapeError("emit_plot takes (label, scalar Path) pairs")

    xs = [p.times() for _, p in series]
    x_lo = min(float(t[0]) for t in xs)
    x_hi = max(float(t[-1]) for t in xs)
    y_lo = min(float(np.min(p.values)) for _, p in series)
    y_hi = max(float(np.max(p.values)) for _, p in series)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

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
            f'text-anchor="middle" fill="#333333">{tv:.6g}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        y = sy(tv)
        x = _MARGIN["left"]
        parts.append(
            f'<line x1="{x - 5:.2f}" y1="{y:.2f}" x2="{x:.2f}" y2="{y:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
            f'<text x="{x - 8:.2f}" y="{y + 4:.2f}" font-family="sans-serif" font-size="12" '
            f'text-anchor="end" fill="#333333">{tv:.6g}</text>'
        )
    for idx, (label, p) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(p.times(), p.values))
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
    if repetitions < 1:
        raise ScenarioError("repetitions must be >= 1")
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
    record = {
        "model": sc_a.model,
        "scenario_a": sc_a.name,
        "scenario_b": sc_b.name,
        "seed": use_seed,
        "repetitions": repetitions,
        "median_s_a": round(med_a, 4),
        "median_s_b": round(med_b, 4),
        "ratio_a_over_b": round(med_a / max(med_b, 1e-12), 4),
        "neg_log_lik_a": fit_a.neg_log_lik,
        "neg_log_lik_b": fit_b.neg_log_lik,
    }
    target = os.path.join(out, f"benchmark_{sc_a.name}_vs_{sc_b.name}.json")
    _atomic_write(target, json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def _write_table5_csv(reports, out_dir):
    lines = ["scenario,rmse"]
    for rep in reports:
        lines.append(f"{rep.scenario},{_fmt(rep.rmse)}")
    target = os.path.join(out_dir, "table5_rmse.csv")
    _atomic_write(target, "\n".join(lines) + "\n")
    return target


def _run_one(sc, out, seed):
    # submitted by import path: perfbench's tracer replaces run_scenario
    # with a nested function, which cannot be pickled
    return run_scenario(sc, out_dir=out, seed=seed)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with scipy's bundled OpenBLAS on one thread, then give it
    back its thread count; a no-op where scipy bundles no OpenBLAS.

    Forked workers inherit the count.  At the default of one thread per
    CPU, every worker's OpenBLAS threads compete with the other workers for
    the CPUs, and an L-BFGS-B fit in a worker takes up to 30 times its
    in-process time.
    """
    import ctypes
    import glob
    import importlib.util

    site = os.path.dirname(os.path.dirname(importlib.util.find_spec("scipy").origin))
    libs = glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get, put = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (IndexError, OSError, AttributeError):
        yield
        return
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


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
    with _one_blas_thread(), concurrent.futures.ProcessPoolExecutor(
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


def run_table5_sweep(out_dir=None, seed=None):
    """Variance-tracking RMSE for the four stochastic-volatility regimes."""
    out = out_dir if out_dir is not None else os.getcwd()
    reports = _run_scenarios([load_scenario(name) for name in TABLE5_SCENARIOS], out, seed)
    _write_table5_csv(reports, out)
    return reports


def reproduce(out_dir=None, seed=None):
    """Run every packaged scenario plus the sweeps and benchmarks.

    The scenarios run on one forked worker per available CPU; the benchmark
    pairs run after them in this process, alone, because their time ratios
    need an idle machine.  CSV artifacts are byte-stable for a fixed seed;
    wall-clock numbers go to timings.json and the benchmark JSON files only.
    """
    # the benchmark pairs fit in this process anyway; importing the optimizer
    # before the workers fork spares each worker that fits its own import
    import scipy.optimize  # noqa: F401

    out = out_dir if out_dir is not None else os.getcwd()
    reports = _run_scenarios([load_scenario(name) for name in list_scenarios()], out, seed)
    by_name = {rep.scenario: rep for rep in reports}
    _write_table5_csv([by_name[n] for n in TABLE5_SCENARIOS], out)
    for name_a, name_b in BENCHMARK_PAIRS:
        benchmark(load_scenario(name_a), load_scenario(name_b), out_dir=out, seed=seed)
    timings = {
        rep.scenario: {k: round(v, 4) for k, v in rep.timings.items()} for rep in reports
    }
    _atomic_write(os.path.join(out, "timings.json"), json.dumps(timings, indent=2, sort_keys=True) + "\n")
    return reports
