"""Hot numeric loops, compiled with numba when available.

Set ``SDEFL_NUMBA=0`` to force the pure-numpy fallback.  All kernels take
pre-drawn random numbers as plain arrays, so the two backends consume
identical draws; numerical results agree to floating-point reordering:
bitwise for the path simulators and the Heston EKF, ~1e-12 for the
vectorized particle fallback whose reductions associate differently, and
~1e-14 for the scalar Kalman recursion, which the numpy backend computes as
a steady-state filter with array operations (``kalman_ou_scan``) instead of
the literal loop (``kalman_ou_literal``).  The same holds for that
likelihood with its exact gradient: ``kalman_ou_score`` on numpy, the loop
``kalman_ou_score_literal`` under numba.

Status codes returned by filter kernels: 0 = ok, 1 = singular innovation
variance, 2 = particle weights all vanished.
"""

import math
import os

import numpy as np

LOG2PI = math.log(2.0 * math.pi)

_flag = os.environ.get("SDEFL_NUMBA", "1").strip().lower()
_want_numba = _flag not in ("0", "false", "off", "no")

if _want_numba:
    try:
        from numba import njit as _njit

        USING_NUMBA = True
    except ImportError:
        USING_NUMBA = False
else:
    USING_NUMBA = False

if not USING_NUMBA:
    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda fn: fn


def backend_name():
    return "numba" if USING_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Euler-Maruyama simulators. z arrays hold N(0,1) draws, one per step; the
# jump_add array holds the per-step additive jump contribution (zeros when
# jumps are off) so that jump-free variants share the diffusion arithmetic.

@_njit(cache=True)
def ou_path(x0, theta, mu, sigma, dt, z):
    n = z.shape[0]
    sdt = sigma * math.sqrt(dt)
    out = np.empty(n + 1)
    out[0] = x0
    for k in range(n):
        x = out[k]
        out[k + 1] = x + theta * (mu - x) * dt + sdt * z[k]
    return out


@_njit(cache=True)
def ou_jump_path(x0, theta, mu, sigma, dt, z, jump_add):
    n = z.shape[0]
    sdt = sigma * math.sqrt(dt)
    out = np.empty(n + 1)
    out[0] = x0
    for k in range(n):
        x = out[k]
        out[k + 1] = x + theta * (mu - x) * dt + sdt * z[k] + jump_add[k]
    return out


@_njit(cache=True)
def bk_log_path(y0, theta, alpha, sigma, dt, z):
    n = z.shape[0]
    sdt = sigma * math.sqrt(dt)
    out = np.empty(n + 1)
    out[0] = y0
    for k in range(n):
        y = out[k]
        out[k + 1] = y + (theta - alpha * y) * dt + sdt * z[k]
    return out


@_njit(cache=True)
def heston_paths(lns0, v0, mu_eff, kappa, theta_v, xi, rho, dt, z1, z2, jump_add):
    """Log-price and variance paths under full truncation.

    The raw variance state may dip negative; max(v,0) enters every drift and
    diffusion coefficient and the reported variance path is clipped at 0.
    Returns (log-price, reported variance).
    """
    n = z1.shape[0]
    sq_dt = math.sqrt(dt)
    corr = math.sqrt(1.0 - rho * rho)
    lns = np.empty(n + 1)
    v_out = np.empty(n + 1)
    lns[0] = lns0
    v_out[0] = max(v0, 0.0)
    v = v0
    for k in range(n):
        vplus = max(v, 0.0)
        sv = math.sqrt(vplus)
        w1 = z1[k]
        w2 = rho * w1 + corr * z2[k]
        lns[k + 1] = lns[k] + (mu_eff - 0.5 * vplus) * dt + sv * sq_dt * w1 + jump_add[k]
        v = v + kappa * (theta_v - vplus) * dt + xi * sv * sq_dt * w2
        v_out[k + 1] = max(v, 0.0)
    return lns, v_out


# ---------------------------------------------------------------------------
# Scalar Kalman recursion for the constant-plus-state OU system.  Follows the
# literal ordering: the covariance supplied as p0 is the first a priori
# value, and propagation happens at the end of each step.

@_njit(cache=True)
def kalman_ou_literal(y, alpha, beta, q, r, x0, p0):
    n = y.shape[0]
    means = np.empty(n)
    x = x0
    p_prior = p0
    ll = 0.0
    status = 0
    for t in range(n):
        x_pred = alpha + beta * x
        s = p_prior + r
        if s <= 0.0:
            status = 1
            break
        k = p_prior / s
        resid = y[t] - x_pred
        x = x_pred + k * resid
        p_post = (1.0 - k) * p_prior
        ll += -0.5 * (resid * resid / s + math.log(s) + LOG2PI)
        means[t] = x
        p_prior = beta * beta * p_post + q
    return means, ll, status


def _prior_variances(n, beta, q, r, p0):
    """The data-free covariance recursion of kalman_ou_literal, with the
    derivatives of the prior variance p_t in beta and q.

    Returns (s, k, dp, status): innovation variances s_t = p_t + r, gains
    k_t = p_t / s_t and dp (2, m) over the m steps the filter completes.
    The loop stops at the first exact repeat of (p, dp): a fixed point, or a
    two-cycle at the last bit.  The rest repeats with that period, and p
    follows the same values as a loop over p alone.
    """
    s = np.empty(n)
    k = np.empty(n)
    dp = np.empty((2, n))
    bb = beta * beta
    now = (p0, 0.0, 0.0)  # (p, dp/dbeta, dp/dq)
    back = None  # the same one step before
    for t in range(n):
        p, db, dq = now
        st = p + r
        if st <= 0.0:
            return s[:t], k[:t], dp[:, :t], 1
        kt = p / st
        s[t] = st
        k[t] = kt
        dp[0, t] = db
        dp[1, t] = dq
        g = 1.0 - kt
        gg = bb * (g * g)  # d p_next / d p
        after = (bb * (g * p) + q, 2.0 * beta * (g * p) + gg * db, gg * dq + 1.0)
        if after == now:
            s[t + 1:] = st
            k[t + 1:] = kt
            dp[:, t + 1:] = dp[:, t:t + 1]
            break
        if after == back:
            for arr in (s, k, dp):
                arr[..., t + 1::2] = arr[..., t - 1:t]
                arr[..., t + 2::2] = arr[..., t:t + 1]
            break
        back, now = now, after
    return s, k, dp, 0


def _doubling_scan(c, d):
    """Solve x_t = c_t x_{t-1} + d_t from x_{-1} = 0 along the last axis of
    d, in place, by ceil(log2 n) array passes; c is left as it is."""
    c = c.copy()
    n = c.shape[0]
    span = 1
    while span < n:
        d[..., span:] += c[span:] * d[..., :-span]
        c[span:] *= c[:-span]
        span *= 2
    return d


def _posterior_means(y, s, k, alpha, beta, x0):
    """(c, means, previous means, innovations) of the filter over y, given
    its gains; means solve x_t = c_t x_{t-1} + d_t with c_t = (1 - k_t) beta
    and d_t = (1 - k_t) alpha + k_t y_t."""
    c = (1.0 - k) * beta
    d = (1.0 - k) * alpha + k * y
    d[0] += c[0] * x0
    means = _doubling_scan(c, d)
    x_prev = np.empty(y.shape[0])
    x_prev[0] = x0
    x_prev[1:] = means[:-1]
    return c, means, x_prev, y - (alpha + beta * x_prev)


def _gaussian_loglik(resid, s):
    return -0.5 * float(np.sum(resid * resid / s + np.log(s) + LOG2PI))


def kalman_ou_scan(y, alpha, beta, q, r, x0, p0):
    """kalman_ou_literal computed with array operations.

    The covariance recursion does not depend on the data, so it runs as a
    scalar loop to its first exact repeat (_prior_variances); the gains
    after it repeat with that period.  The means then come from a doubling
    scan.  Results match the loop to float reordering (~1e-14 relative)
    wherever the filter is stable (|c_t| <= 1); with q = p0 = 0 and
    |beta| > 1 the means grow geometrically and both forms lose the same
    accuracy in different ways.
    """
    means = np.empty(y.shape[0])
    s, k, _, status = _prior_variances(y.shape[0], beta, q, r, p0)
    m = s.shape[0]
    if m == 0:
        return means, 0.0, status
    _, means[:m], _, resid = _posterior_means(y[:m], s, k, alpha, beta, x0)
    return means, _gaussian_loglik(resid, s), status


def kalman_ou_score(y, alpha, beta, q, r, x0, p0):
    """kalman_ou_scan's log-likelihood and its gradient in (alpha, beta, q).

    Returns (ll, gradient, status); the log-likelihood is bitwise
    kalman_ou_scan's.  The prior-variance derivatives come with the
    covariance recursion; the mean sensitivities solve x'_t = c_t x'_{t-1}
    + k'_t e_t + (1 - k_t)(alpha' + beta' x_{t-1}) from x'_{-1} = 0, with
    the same c_t, by the same doubling scan, one row per parameter
    (Durbin & Koopman 2012, section 7.3.3).
    """
    s, k, dp, status = _prior_variances(y.shape[0], beta, q, r, p0)
    m = s.shape[0]
    if m == 0:
        return 0.0, np.zeros(3), status
    c, _, x_prev, e = _posterior_means(y[:m], s, k, alpha, beta, x0)
    g = 1.0 - k
    dk = g * dp / s
    u = np.empty((3, m))
    u[0] = g
    u[1] = dk[0] * e + g * x_prev
    u[2] = dk[1] * e
    dx = _doubling_scan(c, u)
    de = np.empty((3, m))  # derivatives of the innovations
    de[:, 0] = 0.0
    de[:, 1:] = dx[:, :-1]
    de *= -beta
    de[0] -= 1.0
    de[1] -= x_prev
    w = e / s
    grad = -(de @ w)
    grad[1:] -= 0.5 * (dp @ (1.0 / s - w * w))
    return _gaussian_loglik(e, s), grad, status


@_njit(cache=True)
def kalman_ou_score_literal(y, alpha, beta, q, r, x0, p0):
    """kalman_ou_score as one loop: kalman_ou_literal carrying the
    derivatives of x and p in (alpha, beta, q) forward with them.

    Returns (ll, gradient, status), ll bitwise kalman_ou_literal's; matches
    kalman_ou_score to float reordering.
    """
    n = y.shape[0]
    grad = np.zeros(3)
    x = x0
    dx_a = 0.0  # d x / d(alpha, beta, q)
    dx_b = 0.0
    dx_q = 0.0
    p_prior = p0
    dp_b = 0.0  # d p_prior / d(beta, q); p does not depend on alpha
    dp_q = 0.0
    ll = 0.0
    status = 0
    for t in range(n):
        x_pred = alpha + beta * x
        s = p_prior + r
        if s <= 0.0:
            status = 1
            break
        k = p_prior / s
        resid = y[t] - x_pred
        g = 1.0 - k
        de_a = -(1.0 + beta * dx_a)
        de_b = -(x + beta * dx_b)
        de_q = -(beta * dx_q)
        w = resid / s
        h = 0.5 * (1.0 / s - w * w)
        grad[0] -= w * de_a
        grad[1] -= w * de_b + h * dp_b
        grad[2] -= w * de_q + h * dp_q
        dx_a = -(g * de_a)
        dx_b = g * (dp_b * w - de_b)  # k' = g p' / s
        dx_q = g * (dp_q * w - de_q)
        x = x_pred + k * resid
        p_post = (1.0 - k) * p_prior
        ll += -0.5 * (resid * resid / s + math.log(s) + LOG2PI)
        gg = beta * beta * (g * g)
        dp_b = 2.0 * beta * p_post + gg * dp_b
        dp_q = gg * dp_q + 1.0
        p_prior = beta * beta * p_post + q
    return ll, grad, status


kalman_ou_loop = kalman_ou_literal if USING_NUMBA else kalman_ou_scan
kalman_ou_score_loop = kalman_ou_score_literal if USING_NUMBA else kalman_ou_score


# ---------------------------------------------------------------------------
# One-dimensional Heston/Bates EKF over a log-return series. State is the
# variance; the observation is the log-return with (mu - v/2)dt as known
# drift; the return also feeds the state transition through rho*xi*dlns.
# Same literal covariance ordering as the Kalman loop. The quadratic
# objective obj24 sums ln(P_t) + r_t^2/P_t over steps (posterior variance);
# it is flagged invalid (obj_ok=0) if any posterior variance hits zero.

@_njit(cache=True)
def heston_ekf_loop(dlns, dt, mu_eff, kappa, theta_v, xi, rho, v0, p0):
    n = dlns.shape[0]
    a = 1.0 - (kappa - 0.5 * rho * xi) * dt
    hc = -0.5 * dt
    wc = xi * math.sqrt(1.0 - rho * rho) * math.sqrt(dt)
    v_post = np.empty(n + 1)
    p_out = np.empty(n + 1)
    v_post[0] = v0
    p_out[0] = p0
    v = v0
    p_prior = p0
    obj24 = 0.0
    obj_ok = 1
    ll_gauss = 0.0
    status = 0
    bad_step = -1
    for t in range(1, n + 1):
        dl = dlns[t - 1]
        v_pred = v + (kappa * (theta_v - v) - rho * xi * (mu_eff - 0.5 * v)) * dt + rho * xi * dl
        eps2 = max(v_pred, 0.0) * dt
        s = hc * hc * p_prior + eps2
        if s <= 0.0:
            status = 1
            bad_step = t
            break
        k = p_prior * hc / s
        r = dl - (mu_eff - 0.5 * v_pred) * dt
        v = v_pred + k * r
        p_post = (1.0 - k * hc) * p_prior
        if p_post > 0.0:
            obj24 += math.log(p_post) + r * r / p_post
        else:
            obj_ok = 0
        ll_gauss += -0.5 * (r * r / s + math.log(s) + LOG2PI)
        v_post[t] = v
        p_out[t] = p_post
        w_jac = wc * math.sqrt(max(v, 0.0))
        p_prior = a * a * p_post + w_jac * w_jac
    return v_post, p_out, obj24, obj_ok, ll_gauss, status, bad_step


# ---------------------------------------------------------------------------
# Fused particle-EKF loop for Heston/Bates over a log-return series.
# z0: initial spread draws (N,), ys: proposal draws (steps, N), us: one
# resampling uniform per step.

@_njit(cache=True)
def particle_heston_loop(dlns, dt, mu_eff, kappa, theta_v, xi, rho, x0, p0, z0, ys, us):
    n = dlns.shape[0]
    npart = z0.shape[0]
    a = 1.0 - (kappa - 0.5 * rho * xi) * dt
    hc = -0.5 * dt
    wc = xi * math.sqrt(1.0 - rho * rho) * math.sqrt(dt)
    sp0 = math.sqrt(p0)
    logn = math.log(npart)

    x = np.empty(npart)
    p = np.empty(npart)
    logw = np.empty(npart)
    acc = 0.0
    for i in range(npart):
        x[i] = x0 + sp0 * z0[i]
        p[i] = p0
        logw[i] = -logn
        acc += x[i]
    est = np.empty(n + 1)
    est[0] = acc / npart

    x_new = np.empty(npart)
    p_new = np.empty(npart)
    w_new = np.empty(npart)
    wn = np.empty(npart)
    idx = np.empty(npart, np.int64)
    loglik = 0.0
    status = 0
    bad_step = -1

    for t in range(1, n + 1):
        dl = dlns[t - 1]
        for i in range(npart):
            xp = x[i]
            v_pred = xp + (kappa * (theta_v - xp) - rho * xi * (mu_eff - 0.5 * xp)) * dt + rho * xi * dl
            w_jac = wc * math.sqrt(max(xp, 0.0))
            p_pred = a * a * p[i] + w_jac * w_jac
            eps2 = max(v_pred, 0.0) * dt
            s = hc * hc * p_pred + eps2
            if s < 1e-16:
                s = 1e-16
            k = p_pred * hc / s
            r = dl - (mu_eff - 0.5 * v_pred) * dt
            xhat = v_pred + k * r
            phat = (1.0 - k * hc) * p_pred
            if phat < 0.0:
                phat = 0.0
            xt = xhat + math.sqrt(phat) * ys[t - 1, i]

            s_obs = math.sqrt(max(xt, 0.0) * dt)
            if s_obs < 1e-8:
                s_obs = 1e-8
            zo = (dl - (mu_eff - 0.5 * xt) * dt) / s_obs
            l_obs = -0.5 * zo * zo - math.log(s_obs) - 0.5 * LOG2PI

            s_tr = w_jac
            if s_tr < 1e-8:
                s_tr = 1e-8
            zt = (xt - v_pred) / s_tr
            l_tr = -0.5 * zt * zt - math.log(s_tr) - 0.5 * LOG2PI

            s_q = math.sqrt(phat)
            if s_q < 1e-8:
                s_q = 1e-8
            zq = (xt - xhat) / s_q
            l_q = -0.5 * zq * zq - math.log(s_q) - 0.5 * LOG2PI

            w_new[i] = logw[i] + l_obs + l_tr - l_q
            x_new[i] = xt
            p_new[i] = phat

        m = w_new[0]
        for i in range(1, npart):
            if w_new[i] > m:
                m = w_new[i]
        if not math.isfinite(m):
            status = 2
            bad_step = t
            break
        ssum = 0.0
        for i in range(npart):
            wn[i] = math.exp(w_new[i] - m)
            ssum += wn[i]
        if ssum <= 0.0:
            status = 2
            bad_step = t
            break
        loglik += m + math.log(ssum)
        mean_t = 0.0
        for i in range(npart):
            wn[i] /= ssum
            mean_t += wn[i] * x_new[i]
        est[t] = mean_t

        # systematic resampling: one uniform, stratified cumulative sweep
        u = us[t - 1]
        c = wn[0]
        j = 0
        for i in range(npart):
            pos = (i + u) / npart
            while pos > c and j < npart - 1:
                j += 1
                c += wn[j]
            idx[i] = j
        for i in range(npart):
            x[i] = x_new[idx[i]]
            p[i] = p_new[idx[i]]
            logw[i] = -logn

    return est, loglik, status, bad_step


def particle_heston_loop_numpy(dlns, dt, mu_eff, kappa, theta_v, xi, rho, x0, p0, z0, ys, us):
    """Vectorized twin of particle_heston_loop (loop over time only)."""
    n = dlns.shape[0]
    npart = z0.shape[0]
    a = 1.0 - (kappa - 0.5 * rho * xi) * dt
    hc = -0.5 * dt
    wc = xi * math.sqrt(1.0 - rho * rho) * math.sqrt(dt)

    x = x0 + math.sqrt(p0) * z0
    p = np.full(npart, float(p0))
    logw = np.full(npart, -math.log(npart))
    est = np.empty(n + 1)
    est[0] = x.mean()
    loglik = 0.0

    for t in range(1, n + 1):
        dl = dlns[t - 1]
        v_pred = x + (kappa * (theta_v - x) - rho * xi * (mu_eff - 0.5 * x)) * dt + rho * xi * dl
        w_jac = wc * np.sqrt(np.maximum(x, 0.0))
        p_pred = a * a * p + w_jac * w_jac
        eps2 = np.maximum(v_pred, 0.0) * dt
        s = np.maximum(hc * hc * p_pred + eps2, 1e-16)
        k = p_pred * hc / s
        r = dl - (mu_eff - 0.5 * v_pred) * dt
        xhat = v_pred + k * r
        phat = np.maximum((1.0 - k * hc) * p_pred, 0.0)
        xt = xhat + np.sqrt(phat) * ys[t - 1]

        s_obs = np.maximum(np.sqrt(np.maximum(xt, 0.0) * dt), 1e-8)
        zo = (dl - (mu_eff - 0.5 * xt) * dt) / s_obs
        l_obs = -0.5 * zo * zo - np.log(s_obs) - 0.5 * LOG2PI
        s_tr = np.maximum(w_jac, 1e-8)
        zt = (xt - v_pred) / s_tr
        l_tr = -0.5 * zt * zt - np.log(s_tr) - 0.5 * LOG2PI
        s_q = np.maximum(np.sqrt(phat), 1e-8)
        zq = (xt - xhat) / s_q
        l_q = -0.5 * zq * zq - np.log(s_q) - 0.5 * LOG2PI

        w_new = logw + l_obs + l_tr - l_q
        m = w_new.max()
        if not math.isfinite(m):
            return est, loglik, 2, t
        wn = np.exp(w_new - m)
        ssum = wn.sum()
        if ssum <= 0.0:
            return est, loglik, 2, t
        loglik += m + math.log(ssum)
        wn /= ssum
        est[t] = float(wn @ xt)

        idx = systematic_indices(wn, us[t - 1])
        x = xt[idx]
        p = phat[idx]
        logw = np.full(npart, -math.log(npart))

    return est, loglik, 0, -1


def systematic_indices(weights, u):
    """Ancestor indices for systematic resampling with one uniform u."""
    n = weights.shape[0]
    positions = (np.arange(n) + u) / n
    cum = np.cumsum(weights)
    cum[-1] = max(cum[-1], 1.0)  # guard the last stratum against rounding
    return np.minimum(np.searchsorted(cum, positions, side="left"), n - 1)
