"""Acceptance gate: eleven numbered end-to-end checks over the whole stack.

Each test prints one 'criterion NN: PASS/FAIL' line with the measured
values behind the verdict (shown with -s or -rA; pytest -v adds its own
per-test line).  Stochastic checks run on the ten shipped seeds
2024061..2024070 with tolerances sized for seed dependence.
"""

import math
import time

import numpy as np
import pytest

from sdefl.cli import main as cli_main
from sdefl.core import RandomSource, normal_pdf, rmse
from sdefl.experiments import TABLE5_SCENARIOS, load_scenario, run_scenario
from sdefl.kalman import (
    LinearStateSpace,
    SvSystem,
    estimate_kalman,
    kalman_run,
    ou_state_space,
)
from sdefl.mle import (
    Bounds,
    bk_density,
    estimate_mle,
    log_likelihood,
    ou_density,
    ou_jump_density,
)
from sdefl.models import (
    BatesParams,
    BkParams,
    HestonParams,
    JumpParams,
    OuParams,
    simulate_bk,
    simulate_ou,
    simulate_ou_jump,
)
import reference

SEEDS = tuple(range(2024061, 2024071))
OU_TRUE = OuParams(theta=1.0, mu=2.0, sigma=3.0)
OU_INIT = (0.5, 1.0, 2.0)
JUMP_TRUE = OuParams(theta=1.0, mu=2.0, sigma=4.0)
JUMP_J = JumpParams(lambda_j=0.5, mu_j=1.0, sigma_j=1.0)
JUMP_INIT = (1.0, 2.0, 4.0, 0.5, 1.0, 1.0)


def check(num, ok, detail):
    label = f"{num:02d}" if isinstance(num, int) else num
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {label}: {detail}"


def in_ou_band(p):
    return (
        abs(p.theta - 1.0) <= 0.25
        and abs(p.mu - 2.0) <= 0.30
        and abs(p.sigma - 3.0) <= 0.35
    )


@pytest.fixture(scope="module")
def ou_experiment():
    """Ten OU series and their MLE fits, with the total wall clock."""
    t0 = time.perf_counter()
    paths = tuple(
        simulate_ou(OU_TRUE, 0.0, 0.499, 1000, RandomSource(s)) for s in SEEDS
    )
    reports = tuple(estimate_mle(p, "ou", OU_INIT, Bounds.uniform(3)) for p in paths)
    elapsed = time.perf_counter() - t0
    return paths, reports, elapsed


def test_criterion_01_ou_mle_recovery(ou_experiment):
    _, reports, elapsed = ou_experiment
    hits = sum(in_ou_band(r.params) for r in reports)
    check(
        1,
        hits >= 8 and elapsed < 30.0,
        f"OU MLE in band on {hits}/10 seeds (need >= 8), runtime {elapsed:.2f}s (< 30s)",
    )


def test_criterion_02_bk_mle_recovery():
    true = BkParams(theta=1.0, alpha=0.8, sigma=0.6)
    hits = 0
    for seed in SEEDS:
        path = simulate_bk(true, 2.0, 1.0, 1000, RandomSource(seed))
        p = estimate_mle(path, "bk", (0.5, 0.5, 0.3), Bounds.uniform(3)).params
        hits += (
            abs(p.theta - 1.0) <= 0.15
            and abs(p.alpha - 0.8) <= 0.15
            and abs(p.sigma - 0.6) <= 0.10
        )
    check(2, hits >= 8, f"B-K MLE in band on {hits}/10 seeds (need >= 8)")


def test_criterion_03_kalman_tracks_ou(ou_experiment):
    paths, _, _ = ou_experiment
    worst = 0.0
    for path in paths:
        sys = ou_state_space(OU_TRUE, path.dt, meas_var=1e-4, x_init=float(path.values[0]))
        states, _ = kalman_run(path.values[1:], sys)
        est = np.array([st.mean[0] for st in states])
        worst = max(worst, rmse(est, path.values[1:]))
    check(3, worst <= 1e-2, f"KF tracking worst RMSE {worst:.3e} over 10 seeds (<= 1e-2)")


def test_criterion_04_kalman_calibration_recovery(ou_experiment):
    paths, _, _ = ou_experiment
    hits = sum(in_ou_band(estimate_kalman(p, "ou", OU_INIT, Bounds.uniform(3)).params)
               for p in paths)
    check(4, hits >= 8, f"KF calibration in band on {hits}/10 seeds (need >= 8)")


def test_criterion_05_jump_model_dominance():
    dom_mle = dom_kalman = sigma_hits = 0
    sigma_shipped = None
    for seed in SEEDS:
        path = simulate_ou_jump(JUMP_TRUE, JUMP_J, 0.0, 0.499, 1000, RandomSource(seed))
        rep = estimate_mle(path, "ou_jump", JUMP_INIT, Bounds.uniform(6))
        nll_truth = -log_likelihood(path, ou_jump_density, (JUMP_TRUE, JUMP_J))
        dom_mle += rep.neg_log_lik <= nll_truth + 1e-9
        sigma = rep.params[0].sigma
        sigma_hits += abs(sigma - 4.0) <= 0.6
        if seed == SEEDS[0]:
            sigma_shipped = sigma
        krep = estimate_kalman(path, "ou_jump", JUMP_INIT, Bounds.uniform(6))
        sys = ou_state_space(JUMP_TRUE, path.dt, jump=JUMP_J, x_init=float(path.values[0]))
        _, kll_truth = kalman_run(path.values[1:], sys)
        dom_kalman += krep.neg_log_lik <= -kll_truth + 1e-9
    ok = (
        dom_mle == 10
        and dom_kalman == 10
        and abs(sigma_shipped - 4.0) <= 0.6
        and sigma_hits >= 8
    )
    check(
        5,
        ok,
        f"dominance MLE {dom_mle}/10, Kalman {dom_kalman}/10 (need 10/10 each); "
        f"sigma {sigma_shipped:.3f} on shipped seed and {sigma_hits}/10 within 15%",
    )


def test_criterion_06_heston_ekf_four_regimes(tmp_path):
    run_scenario(load_scenario("heston_ekf"), out_dir=str(tmp_path))  # warm up before timing
    rows = []
    ok = True
    for name in TABLE5_SCENARIOS:
        rep = run_scenario(load_scenario(name), out_dir=str(tmp_path))
        rows.append(f"{name}={rep.rmse:.3f}/{rep.timings['filter']:.3f}s")
        ok = ok and 0.1 <= rep.rmse <= 5.0 and rep.timings["filter"] < 1.0
    check(6, ok, "EKF RMSE in [0.1, 5] and filter < 1s per regime: " + ", ".join(rows))


def test_criterion_07_particle_heston(tmp_path):
    rep = run_scenario(load_scenario("heston_particle"), out_dir=str(tmp_path))
    ok = rep.rmse <= 15.0 and rep.timings["filter"] < 180.0
    check(
        7,
        ok,
        f"particle EKF (N=1000) RMSE {rep.rmse:.3f} (<= 15), "
        f"filter {rep.timings['filter']:.2f}s (< 180s)",
    )


def test_criterion_08_bates_filters(tmp_path):
    ekf = run_scenario(load_scenario("bates_ekf"), out_dir=str(tmp_path))
    pf = run_scenario(load_scenario("bates_particle"), out_dir=str(tmp_path))
    ok = ekf.rmse <= 20.0 and pf.rmse <= 20.0
    check(8, ok, f"Bates EKF RMSE {ekf.rmse:.3f} (<= 20), particle RMSE {pf.rmse:.3f} (<= 20)")


def test_criterion_09a_marginal_likelihood_is_innovation_product():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.3, 1.1)
        q = rng.uniform(0.05, 1.0)
        h = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.05, 1.0)
        x0 = rng.normal()
        p0 = rng.uniform(0.2, 2.0)
        y = rng.normal(0.0, 2.0, size=5)
        sys = LinearStateSpace(a=a, b=0.0, q=q, h=h, r=r, x0=x0, p0=p0)
        _, ll = kalman_run(y, sys)
        x, p_prior, dens = x0, p0, []
        for obs in y:
            x_pred = a * x
            s = h * h * p_prior + r
            dens.append(float(normal_pdf(obs, h * x_pred, math.sqrt(s))))
            k = p_prior * h / s
            x = x_pred + k * (obs - h * x_pred)
            p_post = (1.0 - k * h) * p_prior
            p_prior = a * a * p_post + q
        worst = max(worst, abs(ll - math.log(np.prod(dens))))
    check(
        "9a",
        worst <= 1e-10,
        f"marginal likelihood vs direct Gaussian product, max |diff| {worst:.2e} (<= 1e-10)",
    )


def test_criterion_09b_ekf_matches_kf_on_linear_systems():
    rng = np.random.default_rng(91)
    worst = 0.0
    for _ in range(25):
        a = rng.uniform(0.3, 1.1)
        q = rng.uniform(0.05, 1.0)
        h = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.05, 1.0)
        y = rng.normal(0.0, 1.5, size=20)
        lin = LinearStateSpace(a=a, b=0.0, q=q, h=h, r=r, x0=0.4, p0=1.0)
        nonlin = reference.NonlinearSystem(
            f=lambda x, t, a=a: a * x,
            h=lambda x, t, h=h: h * x,
            jac_a=lambda x, t, a=a: a,
            jac_w=lambda x, t: 1.0,
            jac_h=lambda x, t, h=h: h,
            jac_e=lambda x, t: 1.0,
            q=q,
            r=r,
        )
        kf_states, kf_ll = kalman_run(y, lin)
        ekf_states, ekf_ll = reference.ekf_run(y, nonlin, x0=0.4, p0=1.0)
        gap = max(
            abs(ks.mean[0] - es.mean[0]) for ks, es in zip(kf_states, ekf_states)
        )
        worst = max(worst, gap, abs(kf_ll - ekf_ll))
    check("9b", worst <= 1e-12, f"EKF vs KF on linear systems, max |diff| {worst:.2e} (<= 1e-12)")


def _linear_toy_system(a, q, r):
    return reference.NonlinearSystem(
        f=lambda x, t: a * x,
        h=lambda x, t: x,
        jac_a=lambda x, t: a * np.ones_like(np.asarray(x, dtype=float)),
        jac_w=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        jac_h=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        jac_e=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        q=q,
        r=r,
    )


def test_criterion_09c_particle_loglik_matches_kalman():
    a, q, r = 0.9, 0.3, 0.5
    gen = RandomSource(SEEDS[0], stream=3).generator()
    x = 0.0
    y = np.empty(40)
    for t in range(40):
        x = a * x + math.sqrt(q) * gen.standard_normal()
        y[t] = x + math.sqrt(r) * gen.standard_normal()
    lin = LinearStateSpace(a=a, b=0.0, q=q, h=1.0, r=r, x0=0.0, p0=1.0)
    _, exact = kalman_run(y, lin)
    sys = _linear_toy_system(a, q, r)
    rel = []
    for k in range(20):
        _, ll = reference.particle_run(y, sys, 4000, RandomSource(SEEDS[0] + k), x0=0.0, p0=1.0)
        rel.append(abs(ll - exact) / abs(exact))
    med = float(np.median(rel))
    check(
        "9c",
        med <= 0.05,
        f"particle log-lik vs exact Kalman, median relative error {med:.4f} over 20 seeds (<= 0.05)",
    )


def test_criterion_09d_transition_densities_integrate_to_one():
    masses = {}

    grid = np.linspace(-30.0, 32.0, 200_001)
    masses["ou"] = np.trapezoid(ou_density(0.7, grid, 0.499, OU_TRUE), grid)

    y = np.linspace(1.2 - 6.0, 1.2 + 6.0, 200_001)
    bk = BkParams(theta=1.0, alpha=0.8, sigma=0.6)
    masses["bk"] = np.trapezoid(bk_density(math.e, np.exp(y), 1.0, bk), y)

    wide = math.sqrt(16.0 * 0.5 + 1.0)
    xj = np.linspace(1.0 - 10.0 * wide, 2.0 + 10.0 * wide, 200_001)
    for convention in ("cdf_dt", "cdf_raw"):
        masses[f"ou_jump_{convention}"] = np.trapezoid(
            ou_jump_density(0.0, xj, 0.5, JUMP_TRUE, JUMP_J, convention=convention), xj
        )

    # the particle filters' transition density N(f(x_prev), jac_w(x_prev)^2 q)
    # and observation density N(h(x), jac_e(x)^2 r) of the SvSystem's model
    heston = HestonParams(mu_s=0.05, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)
    dt, x_prev, dl = 0.499, 1.0, 0.03
    for tag, params in (
        ("heston", heston),
        ("bates", BatesParams(heston=heston, lam=10.0, jump_size=0.1)),
    ):
        mu_eff = params.mu_eff if isinstance(params, BatesParams) else params.mu_s
        sys = reference.sv_view(SvSystem(dt, mu_eff, heston.kappa, heston.theta_v, heston.xi,
                                         heston.rho, np.array([dl])))
        mean = sys.f(x_prev, 0)
        std = float(sys.jac_w(x_prev, 0)) * math.sqrt(sys.q)
        xg = np.linspace(mean - 10 * std, mean + 10 * std, 200_001)
        masses[tag] = np.trapezoid(normal_pdf(xg, mean, std), xg)
        mean = sys.h(1.2, 0)
        std = float(sys.jac_e(1.2, 0)) * math.sqrt(sys.r)
        yg = np.linspace(mean - 10 * std, mean + 10 * std, 200_001)
        masses[f"{tag}_observation"] = np.trapezoid(normal_pdf(yg, mean, std), yg)

    worst = max(abs(m - 1.0) for m in masses.values())
    ok = worst <= 1e-6
    check(
        "9d",
        ok,
        f"{len(masses)} transition and observation densities, max |mass - 1| {worst:.2e} (<= 1e-6)",
    )


def test_criterion_10_gain_minimizes_posterior_variance():
    rng = np.random.default_rng(92)
    min_up = np.inf
    for _ in range(100):
        p_prior = math.exp(rng.uniform(-2.0, 2.0))
        h = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        r = math.exp(rng.uniform(-2.0, 2.0))
        s = h * h * p_prior + r

        def post_var(k):
            return p_prior - 2.0 * k * h * p_prior + k * k * s

        k_star = p_prior * h / s
        base = post_var(k_star)
        up = min(post_var(1.1 * k_star) - base, post_var(0.9 * k_star) - base)
        min_up = min(min_up, up)
    check(
        10,
        min_up > 0.0,
        f"+-10% gain perturbation raises posterior variance by >= {min_up:.3e} on 100 systems",
    )


def test_criterion_11_reproduce_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["reproduce", "--seed", "7", "--out", str(out_a)])
    code_b = cli_main(["reproduce", "--seed", "7", "--out", str(out_b)])
    names_a = sorted(f.name for f in out_a.glob("*.csv"))
    names_b = sorted(f.name for f in out_b.glob("*.csv"))
    same = (
        code_a == 0
        and code_b == 0
        and names_a == names_b
        and len(names_a) > 0
        and all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a)
    )
    check(
        11,
        same,
        f"reproduce --seed 7 twice: {len(names_a)} CSV files byte-identical",
    )
