"""Self-tests for the benchmark's tracer and workloads.

    python3 -m pytest perfbench
"""

import contextlib
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import scipy.optimize  # noqa: E402

import sdefl  # noqa: E402
import workloads  # noqa: E402
from run import traced_rounds  # noqa: E402
from tracer import Tracer  # noqa: E402

HESTON = sdefl.HestonParams(mu_s=0.04, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)
N = 20


def traced(fn, *args):
    tr = Tracer()
    tr.install()
    try:
        with tr.round(0):
            out = fn(*args)
    finally:
        tr.uninstall()
    return tr, out


@pytest.fixture(scope="module")
def prices():
    return sdefl.simulate_heston(HESTON, 100.0, 1.5, 0.499, N, sdefl.RandomSource(3))[0]


@pytest.fixture(scope="module")
def cases():
    return workloads.setup()


def test_particle_pass_builds_one_generator_per_draw(prices):
    tr, _ = traced(sdefl.particle_ekf_run, prices, HESTON, 50, sdefl.RandomSource(3))
    assert tr.counts[0]["core.rng.generators"] == 2 * N + 1
    assert tr.counts[0]["kernels.particle_loop.particle_steps"] == N * 50


def test_ekf_run_builds_one_state_per_return(prices):
    system = sdefl.heston_ekf_system(HESTON, prices.dt, prices)
    tr, (states, _) = traced(sdefl.ekf_run, sdefl.log_returns(prices), system)
    assert tr.counts[0]["kalman.gaussian_states.calls"] == len(states) == N
    assert tr.counts[0]["kernels.heston_ekf_loop.steps"] == N


def _snapshot():
    mods = [m for name, m in sys.modules.items() if name == "sdefl" or name.startswith("sdefl.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("RandomSource", k): v for k, v in vars(sdefl.RandomSource).items()})
    snap[("scipy.optimize", "minimize")] = scipy.optimize.minimize
    return snap


def test_uninstall_restores_every_attribute():
    before = _snapshot()
    tr = Tracer()
    tr.install()
    try:
        assert scipy.optimize.minimize is not before[("scipy.optimize", "minimize")]
        assert sdefl.kalman.ekf_run is not before[("sdefl.kalman", "ekf_run")]
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", ["calibrate", "track"])
def test_counts_repeat_and_self_times_add_up(cases, name):
    workload = workloads.WORKLOADS[name](cases, None)
    plain = workload.run_round(7, contextlib.nullcontext())
    runs = []
    for _ in range(2):
        tr = Tracer()
        [res] = traced_rounds(workload, lambda i: 7, 1, tr)
        runs.append(tr)
        assert res.fingerprint == plain.fingerprint
        per = tr.times()[0]
        assert sum(per["layers"].values()) == pytest.approx(per["round_s"], rel=1e-12)
    assert runs[0].counts[0] == runs[1].counts[0]
    assert runs[0].counts[0]["core.rng.draws"] > 0


def test_known_failures_are_counted_and_crashes_propagate():
    res = workloads.RoundResult()

    def degenerate():
        raise sdefl.DegenerateSystemError("innovation variance is not positive")

    assert res.op("filter_ekf", degenerate) is None
    assert res.op("fit_ou_mle", lambda: 3) == 3
    assert (res.attempted, res.failed, res.wrong) == (2, 1, [])
    assert res.errors == ["filter_ekf: DegenerateSystemError: innovation variance is not positive"]
    with pytest.raises(TypeError):
        res.op("fit_ou_mle", lambda: None + 1)
