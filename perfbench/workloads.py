"""The three benchmark workloads, their set-up and their correctness checks.

Each workload is a closed loop: one caller, one process, one thread, the next
round only after the previous one.  A round runs through sdefl's public entry
points only (``simulate_*``, ``estimate_mle``, ``estimate_kalman``,
``ekf_run``, ``particle_ekf_run``, ``cli.main``) and calls them through the
package namespace at call time, so the tracer's wrappers see every call.

Why these workloads:

* ``calibrate`` simulates the five packaged estimation scenarios with a fresh
  seed per round and fits each with its scenario's estimator, init and
  bounds.  The optimizer, the objectives and ``kalman_ou_loop`` do nearly all
  the work; there is no particle filter, no state record and no file I/O.
* ``track`` simulates the five packaged EKF scenarios and the two
  particle-EKF scenarios with a fresh seed per round and filters each once.
  Filter kernels, the RNG pre-draw and ``GaussianState`` construction do the
  work, with no optimizer call.
* ``reproduce`` runs ``sdefl reproduce`` in-process into a fresh directory.
  It is the only workload that writes artifacts (CSV, SVG, JSON).

Each workload states its ``nominal_round_s``, the median round time on a
2-CPU x86-64 VM with the numpy backend.  A run makes ``--seconds`` over it
rounds, whatever the host's speed, so the same seed always attempts the same
operations and meets the same failures.

Known failures are counted, not avoided:

* On fresh seeds ``ekf_run`` raises ``DegenerateSystemError`` on roughly 5%
  of ``heston_ekf_task2`` series and 10% of ``heston_ekf_task3`` and
  ``heston_ekf_task4`` series (300 seeds), and ``estimate_mle`` on
  ``ou_jump_mle`` raises scipy's bare ``ValueError`` ("x0 violates bound
  constraints") on about one seed in forty, e.g. 381654050.  Each such call
  is a failed operation.
* ``reproduce`` runs with the packaged scenario seeds, the documented
  reproduction.  With ``--seed S`` it would stop at the first of the
  failures above on about a quarter of all S, which would make its timing a
  measure of where it stopped; those failures are measured on ``track`` and
  ``calibrate`` instead.
* EKF calibration (``kind = ekf`` with ``init``) is left out of
  ``calibrate``: from a true and from an off-truth start, L-BFGS-B stops
  after one iteration and reports ``converged=True`` because its line search
  meets ``inf`` at a bound, and with ``objective = gaussian`` the fit
  minimises a log-likelihood and runs to the bounds.  Timing it would lock in
  that stall.
"""

import contextlib
import hashlib
import io
import math
import os
import shutil
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import sdefl
import sdefl.cli

# Failures the package reports by design, plus scipy's bare ValueError from the
# Nelder-Mead rescue.  Any other exception is a crash and ends the run.
KNOWN_FAILURES = (sdefl.DegenerateSystemError, sdefl.DegeneracyError, ValueError)

ESTIMATION = ("ou_mle", "ou_kalman", "ou_jump_mle", "ou_jump_kalman", "bk_mle")
EKF = ("heston_ekf", "heston_ekf_task2", "heston_ekf_task3", "heston_ekf_task4", "bates_ekf")
PARTICLE = ("heston_particle", "bates_particle")

# Relative distance allowed between a fit and the closed-form AR(1) oracle.
# Worst seen over 40 seeds: 2.3e-5 (ou_mle), 5.8e-6 (bk_mle), 2.0e-2
# (ou_kalman, whose likelihood differs slightly through meas_var and P0).
ORACLE_RTOL = {"ou_mle": 1e-3, "bk_mle": 1e-3, "ou_kalman": 0.1}

WARMUP_STEPS = 50


@dataclass
class RoundResult:
    seconds: float = 0.0
    op_ms: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    fingerprint: tuple = ()

    def op(self, name, fn, *args, **kwargs):
        """Call one public operation, timing it; a known failure returns None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except KNOWN_FAILURES as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        self.op_ms[name].append((time.perf_counter() - start) * 1e3)
        return out

    def check(self, ok, what):
        if not ok:
            self.failed += 1
            self.wrong.append(what)


def model_params(sc):
    p = sc.params
    if sc.model in ("ou", "ou_jump"):
        ou = sdefl.OuParams(theta=p["theta"], mu=p["mu"], sigma=p["sigma"])
        if sc.model == "ou":
            return ou
        return ou, sdefl.JumpParams(lambda_j=p["lambda_j"], mu_j=p["mu_j"], sigma_j=p["sigma_j"])
    if sc.model == "bk":
        return sdefl.BkParams(theta=p["theta"], alpha=p["alpha"], sigma=p["sigma"])
    h = sdefl.HestonParams(mu_s=p["mu_s"], kappa=p["kappa"], theta_v=p["theta_v"],
                           xi=p["xi"], rho=p["rho"])
    return h if sc.model == "heston" else sdefl.BatesParams(heston=h, lam=p["lam"],
                                                            jump_size=p["jump_size"])


class Case:
    """One packaged scenario, driven through the public API."""

    def __init__(self, sc):
        self.sc = sc
        self.name = sc.name
        self.params = model_params(sc)
        opts = sc.options
        if "init" in opts:
            n = len(opts["init"])
            self.bounds = sdefl.Bounds(np.broadcast_to(opts["bounds_lower"], (n,)),
                                       np.broadcast_to(opts["bounds_upper"], (n,)))

    def simulate(self, seed, n_steps=None):
        sc, p = self.sc, self.sc.params
        n, src = n_steps or sc.n_steps, sdefl.RandomSource(seed)
        if sc.model == "ou":
            return sdefl.simulate_ou(self.params, p["x0"], sc.dt, n, src)
        if sc.model == "ou_jump":
            return sdefl.simulate_ou_jump(*self.params, p["x0"], sc.dt, n, src)
        if sc.model == "bk":
            return sdefl.simulate_bk(self.params, p["r0"], sc.dt, n, src)
        if sc.model == "heston":
            return sdefl.simulate_heston(self.params, p["s0"], p["v0"], sc.dt, n, src)
        return sdefl.simulate_bates(self.params, p["s0"], p["v0"], sc.dt, n, src)

    def fit(self, path):
        opts = self.sc.options
        if self.sc.method == "mle":
            return sdefl.estimate_mle(path, self.sc.model, opts["init"], self.bounds,
                                      convention=opts.get("jump_convention", "cdf_dt"))
        return sdefl.estimate_kalman(path, self.sc.model, opts["init"], self.bounds,
                                     meas_var=opts["meas_var"])

    def ekf(self, lns):
        build = sdefl.heston_ekf_system if self.sc.model == "heston" else sdefl.bates_ekf_system
        system = build(self.params, self.sc.dt, lns)
        opts = self.sc.options
        return sdefl.ekf_run(sdefl.log_returns(lns), system, x0=opts["v0_guess"], p0=opts["p0"])

    def particle(self, lns, seed, n_particles=None):
        opts = self.sc.options
        return sdefl.particle_ekf_run(lns, self.params, n_particles or opts["n_particles"],
                                      sdefl.RandomSource(seed), x0_guess=opts["v0_guess"],
                                      p0=opts["p0"])

    def init_objective(self, path):
        """The fit's objective at its init vector, through public functions."""
        opts = self.sc.options
        v = opts["init"]
        params = (sdefl.OuParams(*v[:3]), sdefl.JumpParams(*v[3:]))
        if self.sc.method == "mle":
            conv = opts.get("jump_convention", "cdf_dt")

            def density(x_prev, x_next, dt, p, jp):
                return sdefl.ou_jump_density(x_prev, x_next, dt, p, jp, convention=conv)

            return -sdefl.log_likelihood(path, density, params)
        system = sdefl.ou_state_space(params[0], path.dt, meas_var=opts["meas_var"],
                                      jump=params[1], x_init=float(path.values[0]), p0=1.0)
        return -sdefl.kalman_run(path.values[1:], system)[1]


def ar1_oracle(x, dt):
    """Closed-form least squares for x[k+1] = a + b x[k] + e, the exact MLE of
    an Euler transition density.  Returns (a/dt, (1-b)/dt, sd(e)/sqrt(dt))."""
    design = np.column_stack([np.ones(len(x) - 1), x[:-1]])
    (a, b), *_ = np.linalg.lstsq(design, x[1:], rcond=None)
    resid = x[1:] - a - b * x[:-1]
    return a / dt, (1.0 - b) / dt, math.sqrt(float(np.mean(resid * resid)) / dt)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def setup():
    """Load every packaged scenario and call each public entry point once on
    a short series, so lazy imports (and numba compilation, where numba is
    installed) land here and not in the first timed round."""
    cases = {name: Case(sdefl.load_scenario(name)) for name in sdefl.list_scenarios()}
    for name in ESTIMATION:
        case = cases[name]
        case.fit(case.simulate(case.sc.seed, WARMUP_STEPS))
    for name in ("heston_ekf", "bates_ekf"):
        case = cases[name]
        case.ekf(case.simulate(case.sc.seed, WARMUP_STEPS)[0])
    case = cases["heston_particle"]
    case.particle(case.simulate(case.sc.seed, WARMUP_STEPS)[0], case.sc.seed, WARMUP_STEPS)
    _quiet(sdefl.cli.main, ["list-scenarios"])
    return cases


class Calibrate:
    ops = tuple("fit_" + name for name in ESTIMATION)
    nominal_round_s = 0.5

    def __init__(self, cases, work_dir):
        self.cases = [cases[name] for name in ESTIMATION]

    def run_round(self, seed, ctx):
        res = RoundResult()
        done = []
        with ctx:
            start = time.perf_counter()
            for case in self.cases:
                path = case.simulate(seed)
                done.append((case, path, res.op("fit_" + case.name, case.fit, path)))
            res.seconds = time.perf_counter() - start
        for case, path, fit in done:
            if fit is not None:
                self._check(res, case, path, fit, seed)
        res.fingerprint = tuple(None if fit is None else (str(fit.params), fit.neg_log_lik)
                                for _, _, fit in done)
        return res

    def _check(self, res, case, path, fit, seed):
        what = f"{case.name} seed {seed}"
        if case.name in ORACLE_RTOL:
            x = path.values
            if case.sc.model == "bk":
                x = np.log(x)
            c, k, s = ar1_oracle(x, path.dt)
            p = fit.params
            if case.sc.model == "bk":
                got, want = (p.theta, p.alpha, p.sigma), (c, k, s)
            else:
                got, want = (p.theta, p.mu, p.sigma), (k, c / k, s)
            err = max(abs(g - w) / abs(w) for g, w in zip(got, want))
            res.check(err <= ORACLE_RTOL[case.name],
                      f"{what}: {got} is {err:.3g} from the AR(1) oracle {want}")
        else:
            f0 = case.init_objective(path)
            res.check(math.isfinite(fit.neg_log_lik) and fit.neg_log_lik <= f0 + 1e-9 * abs(f0),
                      f"{what}: neg_log_lik {fit.neg_log_lik} above its init value {f0}")


class Track:
    ops = ("filter_ekf", "filter_pf")
    nominal_round_s = 0.75

    def __init__(self, cases, work_dir):
        self.ekf = [cases[name] for name in EKF]
        self.pf = [cases[name] for name in PARTICLE]

    def run_round(self, seed, ctx):
        res = RoundResult()
        done = []
        with ctx:
            start = time.perf_counter()
            for case in self.ekf:
                lns = case.simulate(seed)[0]
                done.append((case, "ekf", len(lns) - 1, res.op("filter_ekf", case.ekf, lns)))
            for case in self.pf:
                lns = case.simulate(seed)[0]
                done.append((case, "pf", len(lns), res.op("filter_pf", case.particle, lns, seed)))
            res.seconds = time.perf_counter() - start
        prints = []
        for case, kind, n, out in done:
            if out is None:
                prints.append(None)
                continue
            est, ll = out
            values = np.array([st.mean[0] for st in est]) if kind == "ekf" else est.values
            res.check(len(values) == n and math.isfinite(ll) and bool(np.all(np.isfinite(values))),
                      f"{case.name} seed {seed}: {len(values)} estimates (want {n}), log-lik {ll}")
            prints.append((ll, float(values.sum())))
        res.fingerprint = tuple(prints)
        return res


class Reproduce:
    ops = ("reproduce",)
    nominal_round_s = 4.5

    def __init__(self, cases, work_dir):
        self.work_dir = work_dir
        self.reference = None

    def run_round(self, seed, ctx):
        res = RoundResult()
        out = tempfile.mkdtemp(prefix="reproduce-", dir=self.work_dir)
        try:
            with ctx:
                start = time.perf_counter()
                code = res.op("reproduce", _quiet, sdefl.cli.main, ["reproduce", "--out", out])
                res.seconds = time.perf_counter() - start
            if code is None:
                return res
            tree = self._digest(out)
            if self.reference is None:
                self.reference = tree
            res.check(code == 0, f"reproduce exited with {code}")
            res.check(tree == self.reference and len(tree) > 0,
                      "reproduce CSV/SVG tree differs from the first round's")
            res.fingerprint = tuple(sorted(tree.items()))
        finally:
            shutil.rmtree(out)
        return res

    @staticmethod
    def _digest(out):
        """SHA-256 of each CSV and SVG; timings.json and benchmark_*.json
        carry wall clock and are left out."""
        tree = {}
        for name in sorted(os.listdir(out)):
            if name.endswith((".csv", ".svg")):
                with open(os.path.join(out, name), "rb") as fh:
                    tree[name] = hashlib.sha256(fh.read()).hexdigest()
        return tree


WORKLOADS = {"calibrate": Calibrate, "track": Track, "reproduce": Reproduce}
