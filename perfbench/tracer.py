"""Spans and counters recorded from outside the sdefl package.

The tracer replaces the module attributes that sdefl calls through (kernels,
RNG methods, ``scipy.optimize.minimize``, public entry points, emitters) with
thin wrappers, records one span per call while a round is open, and puts the
original attributes back on ``uninstall``.  Nothing under ``src/`` changes.

A span's layer is the first dotted part of its name.  Its self time is its
duration minus the durations of its direct children, so the self times of all
spans in a round, plus the root span's own self time (``unattributed``), add
up to the root span's duration.
"""

import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("core", "models", "kernels", "mle", "kalman", "particle", "experiments", "cli")
ROOT = "unattributed"
COUNTERS = (
    "core.rng.generators",
    "core.rng.draws",
    "kernels.path.steps",
    "kernels.kalman_ou_loop.steps",
    "kernels.heston_ekf_loop.steps",
    "kernels.particle_loop.particle_steps",
    "mle.optimizer.fits",
    "mle.optimizer.rescues",
    "mle.optimizer.nit",
    "mle.optimizer.nfev",
    "mle.optimizer.not_converged",
    "experiments.emit_csv.bytes",
    "experiments.emit_plot.bytes",
)


def _first_array(result):
    return result[0] if isinstance(result, tuple) else result


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, round id]
        self.counts = defaultdict(Counter)  # round id -> counter name -> value
        self._stack = []
        self._round = None
        self._patches = []  # (owner, attribute, original)
        self.names = set()  # every span name a wrapper can record

    # -- recording ----------------------------------------------------------

    @contextmanager
    def round(self, round_id):
        """Open the root span of one round; wrappers record only inside it."""
        self._round = round_id
        try:
            with self._span(ROOT):
                yield
        finally:
            self._round = None

    @contextmanager
    def _span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._round]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key, value=1):
        if self._round is not None:
            self.counts[self._round][key] += value

    def _wrapper(self, fn, name, after=None):
        tracer = self
        self.names.add(name)

        def traced(*args, **kwargs):
            if tracer._round is None:
                return fn(*args, **kwargs)
            tracer.count(name + ".calls")
            with tracer._span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _everywhere(self, fn, name, after=None):
        """Replace every reference to fn held by an sdefl module."""
        wrapped = self._wrapper(fn, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sdefl" or mod_name.startswith("sdefl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self):
        import scipy.optimize

        import sdefl
        from sdefl import _kernels, cli, experiments, kalman, mle

        rs = sdefl.RandomSource
        gen = rs.generator

        def generator(src):
            self.count("core.rng.generators")
            return gen(src)

        self._set(rs, "generator", generator)
        for meth in ("normals", "uniforms", "poissons"):
            self._set(rs, meth, self._wrapper(
                getattr(rs, meth), "core.rng",
                lambda r, a, k: self.count("core.rng.draws", r.size)))

        for fn in (sdefl.simulate_ou, sdefl.simulate_ou_jump, sdefl.simulate_bk,
                   sdefl.simulate_heston, sdefl.simulate_bates):
            self._everywhere(fn, "models.simulate")

        def steps(key, of_args):
            return lambda r, a, k: self.count(key, of_args(r, a))

        for attr in ("ou_path", "ou_jump_path", "bk_log_path", "heston_paths"):
            self._everywhere(getattr(_kernels, attr), "kernels.path", steps(
                "kernels.path.steps", lambda r, a: len(_first_array(r)) - 1))
        for attr in ("kalman_ou_loop", "heston_ekf_loop"):
            self._everywhere(getattr(_kernels, attr), "kernels." + attr, steps(
                f"kernels.{attr}.steps", lambda r, a: len(a[0])))
        for attr in ("particle_heston_loop", "particle_heston_loop_numpy"):
            self._everywhere(getattr(_kernels, attr), "kernels.particle_loop", steps(
                "kernels.particle_loop.particle_steps", lambda r, a: len(a[0]) * len(a[9])))

        self._everywhere(mle.log_likelihood, "mle.objective")
        self._everywhere(mle.estimate_mle, "mle.estimate_mle")
        self._everywhere(mle.bounded_minimize, "mle.bounded_minimize", lambda r, a, k: self.count(
            "mle.optimizer.not_converged", int(not r.converged)))
        self._set(scipy.optimize, "minimize", self._minimize(scipy.optimize.minimize))

        self._everywhere(kalman.estimate_kalman, "kalman.estimate_kalman")
        self._everywhere(kalman.ekf_run, "kalman.ekf_run")
        self._everywhere(kalman.kalman_run, "kalman.kalman_run")
        self._everywhere(kalman.GaussianState, "kalman.gaussian_states")
        self._everywhere(sdefl.particle_ekf_run, "particle.ekf_run")

        def written(kind):
            def after(r, a, k):
                self.count(f"experiments.{kind}.bytes", os.path.getsize(k.get("file_path", a[1])))
            return after

        self._everywhere(experiments.emit_csv, "experiments.emit_csv", written("emit_csv"))
        self._everywhere(experiments.emit_plot, "experiments.emit_plot", written("emit_plot"))
        self._everywhere(experiments.benchmark, "experiments.benchmark")
        self._everywhere(experiments.run_scenario, "experiments.run_scenario")
        self._everywhere(experiments.reproduce, "experiments.reproduce")
        self._everywhere(cli.main, "cli.main")

    def _minimize(self, minimize):
        """minimize counts fits, rescues, nit and nfev; the objective it is
        handed gets its own span, named after the module that defined it, so
        the minimize span's self time is the optimizer's own work."""
        tracer = self
        self.names.add("mle.optimizer")

        def traced(fun, x0, *args, **kwargs):
            if tracer._round is None:
                return minimize(fun, x0, *args, **kwargs)
            layer = getattr(fun, "__module__", "").rpartition(".")[2] or ROOT
            objective = tracer._wrapper(fun, layer + ".fun")
            rescue = kwargs.get("method") == "Nelder-Mead"
            tracer.count("mle.optimizer.rescues" if rescue else "mle.optimizer.fits")
            with tracer._span("mle.optimizer"):
                res = minimize(objective, x0, *args, **kwargs)
            tracer.count("mle.optimizer.nit", int(res.nit))
            tracer.count("mle.optimizer.nfev", int(res.nfev))
            return res

        return traced

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def times(self):
        """Per round: {span name: [calls, inclusive s, self s]}, plus layer
        self times and the root span's duration under key ``round_s``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"spans": defaultdict(lambda: [0, 0.0, 0.0]),
                                   "layers": Counter(), "round_s": 0.0})
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            per = out[rid]
            dur = end - start
            own = dur - child[i]
            agg = per["spans"][name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
            per["layers"][name.partition(".")[0]] += own
            if parent < 0:
                per["round_s"] += dur
        return out

    def write_spans(self, file_path):
        with open(file_path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,round\n")
            for name, start, end, parent, rid in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{rid}\n")
