"""Hot numeric loops over given random numbers, in numpy.

No kernel draws random numbers itself: each reads them from its arguments,
so a kernel and a reference loop over the same draws can be compared
directly.  The simulators take them as plain arrays.  The particle step reads
each time step's draws once, when its time loop reaches that step, so its
caller can hand it objects that draw a step's numbers only then.  A pass
over N particles then holds O(N) draws at a time, never a (steps, N) block;
only its per-step series and estimates grow with the steps.  The scalar OU
Kalman filter (``kalman_ou_loop``) returns the means, the log-likelihood and
its exact gradient together, as a steady-state filter with array
operations.

The particle step (``particle_heston_loop_numpy``) works on arrays of
particles, hoists every constant of a pass out of its time loop and writes
each importance weight as one log-space expression in the three variances,
with one ``log`` per step.  While the particle cloud keeps a spread, its
estimates agree with the literal reference loop's (``particle_heston_loop``)
to within 4e-14 and its log-likelihood to within 7e-15 relative (measured on
the packaged parameters and on the floor-hitting cases of the tests).  A
cloud collapsed onto the variance floors has log-weights of 1e7 and more;
the two then agree only to the last digits of those (seen: 1e-9 in an
estimate, 3e-13 relative in the log-likelihood).  Both loops take the
proposal's offset from the EKF mean as sqrt(phat) times the draw, which
keeps its digits when phat nears its floor.

Status codes returned by filter kernels: 0 = ok, 1 = singular innovation
variance, 2 = particle weights all vanished.
"""

import functools
import math

import numpy as np

LOG2PI = math.log(2.0 * math.pi)
# floor on every variance in particle_heston_loop_numpy
VAR_FLOOR = 1e-16


def backend_name():
    """The kernels' backend, as benchmark run records report it."""
    return "numpy"


# ---------------------------------------------------------------------------
# Euler-Maruyama simulators. z arrays hold N(0,1) draws, one per step; the
# jump_add array holds the per-step additive jump contribution (zeros when
# jumps are off) so that jump-free variants share the diffusion arithmetic.

def ou_path(x0, theta, mu, sigma, dt, z):
    n = z.shape[0]
    sdt = sigma * math.sqrt(dt)
    out = np.empty(n + 1)
    out[0] = x0
    for k in range(n):
        x = out[k]
        out[k + 1] = x + theta * (mu - x) * dt + sdt * z[k]
    return out


def ou_jump_path(x0, theta, mu, sigma, dt, z, jump_add):
    n = z.shape[0]
    sdt = sigma * math.sqrt(dt)
    out = np.empty(n + 1)
    out[0] = x0
    for k in range(n):
        x = out[k]
        out[k + 1] = x + theta * (mu - x) * dt + sdt * z[k] + jump_add[k]
    return out


def bk_log_path(y0, theta, alpha, sigma, dt, z):
    n = z.shape[0]
    sdt = sigma * math.sqrt(dt)
    out = np.empty(n + 1)
    out[0] = y0
    for k in range(n):
        y = out[k]
        out[k + 1] = y + (theta - alpha * y) * dt + sdt * z[k]
    return out


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
# Scalar Kalman recursion for the constant-plus-state OU system, with the
# gradient of its log-likelihood in (alpha, beta, q).  Follows the literal
# ordering: the covariance supplied as p0 is the first a priori value, and
# propagation happens at the end of each step.  Returns (means, ll, grad,
# status); a failed step ends the filter, and the means from it on are
# NaN.

def _prior_variances(n, beta, q, r, p0):
    """The filter's data-free covariance recursion, with the derivatives of
    the prior variance p_t in beta and q.

    Returns (s, k, dp, status): innovation variances s_t = p_t + r, gains
    k_t = p_t / s_t and dp (2, m) over the m steps the filter completes.
    The loop stops at the first exact fixed point of (p, dp) and fills the
    rest with it; p follows the same values as a loop over p alone.
    """
    s = np.empty(n)
    k = np.empty(n)
    dp = np.empty((2, n))
    bb = beta * beta
    now = (p0, 0.0, 0.0)  # (p, dp/dbeta, dp/dq)
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
        now = after
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


def kalman_ou_loop(y, alpha, beta, q, r, x0, p0):
    """The scalar OU Kalman filter with array operations.

    The covariance recursion does not depend on the data, so it runs as a
    scalar loop to its first exact fixed point (_prior_variances); the gains
    after it repeat.  The means x_t = c_t x_{t-1} + d_t,
    with c_t = (1 - k_t) beta and d_t = (1 - k_t) alpha + k_t y_t, then come
    from a doubling scan, and so do their sensitivities x'_t = c_t x'_{t-1}
    + k'_t e_t + (1 - k_t)(alpha' + beta' x_{t-1}) from x'_{-1} = 0, one row
    per parameter (Durbin & Koopman 2012, section 7.3.3).  Results match a
    literal step-by-step loop to float reordering (~1e-14 relative) wherever
    the filter is stable (|c_t| <= 1); with q = p0 = 0 and |beta| > 1 the
    means grow geometrically and both forms lose the same accuracy in
    different ways.  When a step fails (status 1), the means from that step
    on are NaN.
    """
    means = np.full(y.shape[0], np.nan)
    s, k, dp, status = _prior_variances(y.shape[0], beta, q, r, p0)
    m = s.shape[0]
    if m == 0:
        return means, 0.0, np.zeros(3), status
    g = 1.0 - k
    c = g * beta
    d = g * alpha + k * y[:m]
    d[0] += c[0] * x0
    means[:m] = _doubling_scan(c, d)
    x_prev = np.empty(m)
    x_prev[0] = x0
    x_prev[1:] = means[:m - 1]
    e = y[:m] - (alpha + beta * x_prev)  # the innovations
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
    ll = -0.5 * float(np.sum(e * e / s + np.log(s) + LOG2PI))
    return means, ll, grad, status


# ---------------------------------------------------------------------------
# One-dimensional Heston/Bates EKF over a log-return series. State is the
# variance; the observation is the log-return with (mu - v/2)dt as known
# drift; the return also feeds the state transition through rho*xi*dlns.
# Same literal covariance ordering as the Kalman loop. The quadratic
# objective obj24 sums ln(P_t) + r_t^2/P_t over steps (posterior variance);
# it is flagged invalid (obj_ok=0) if any posterior variance hits zero.

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
# Fused particle-EKF loops for Heston/Bates over a log-return series.
# z0: initial spread draws (N,); ys[t - 1]: step t's proposal draws (N,);
# us[t - 1]: step t's resampling uniform.  particle_heston_loop_numpy, the
# production step, reads each once, when its time loop reaches step t, so
# ys and us may draw on demand.  particle_heston_loop is the literal
# per-particle loop over a (steps, N) array ys, kept as the reference that
# the tests compare the production step, and particle.particle_run on an
# SvSystem, against.

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
            dq = math.sqrt(phat) * ys[t - 1, i]  # offset from xhat
            xt = xhat + dq

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
            zq = dq / s_q
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
    """particle_heston_loop with array operations over the particles; the
    loop runs over time only.

    With observation residual e_o = dl - (mu_eff - x_t/2) dt, transition
    residual e_t = x_t - v_pred and proposal offset d = x_t - xhat, each
    particle's log weight is

        -(e_o^2/var_obs + e_t^2/var_tr - d^2/var_q + log(var_obs var_tr/var_q)) / 2

    plus -log N - log(2 pi)/2, a constant added to the log-likelihood once
    per step instead of to every weight.  Each variance is floored at
    VAR_FLOOR, particle_heston_loop's 1e-8 floor on a standard deviation,
    squared.  d is taken as sqrt(phat) times the draw rather than as the
    difference x_t - xhat, so a proposal variance near the floor keeps the
    digits that the difference cancels.
    """
    n = dlns.shape[0]
    npart = z0.shape[0]
    a = 1.0 - (kappa - 0.5 * rho * xi) * dt
    a2 = a * a
    hc = -0.5 * dt
    hc2 = hc * hc
    wc2 = xi * xi * (1.0 - rho * rho) * dt
    shift = (kappa * theta_v - rho * xi * mu_eff) * dt + rho * xi * dlns  # v_pred = a x + shift
    dmu = dlns - mu_eff * dt  # observation residual r = dmu - hc v
    const = -math.log(npart) - 0.5 * LOG2PI

    x = x0 + math.sqrt(p0) * z0
    p = np.full(npart, float(p0))
    est = np.empty(n + 1)
    est[0] = x.mean()
    loglik = 0.0
    v_pred, p_pred, var_tr, s, k, xt, phat, d, e, u = (np.empty(npart) for _ in range(10))

    for t in range(1, n + 1):
        np.maximum(x, 0.0, out=var_tr)
        var_tr *= wc2  # transition variance w_jac^2
        np.multiply(p, a2, out=p_pred)
        p_pred += var_tr
        np.multiply(x, a, out=v_pred)
        v_pred += shift[t - 1]
        # EKF update of every particle: innovation variance s, gain k
        np.maximum(v_pred, 0.0, out=s)
        s *= dt
        np.multiply(p_pred, hc2, out=u)
        s += u
        np.maximum(s, VAR_FLOOR, out=s)
        np.multiply(p_pred, hc, out=k)
        k /= s
        np.multiply(v_pred, -hc, out=xt)
        xt += dmu[t - 1]
        xt *= k
        xt += v_pred  # the EKF mean xhat
        np.multiply(k, -hc, out=phat)
        phat += 1.0
        phat *= p_pred
        np.maximum(phat, 0.0, out=phat)
        np.sqrt(phat, out=d)
        d *= ys[t - 1]  # the proposal's offset from xhat
        xt += d
        # log weight, negated and doubled, less its constant, into u
        np.multiply(xt, -hc, out=e)
        e += dmu[t - 1]
        e *= e
        np.multiply(xt, dt, out=s)
        np.maximum(s, VAR_FLOOR, out=s)  # var_obs
        np.divide(e, s, out=u)
        np.maximum(var_tr, VAR_FLOOR, out=var_tr)
        s *= var_tr
        np.subtract(xt, v_pred, out=e)
        e *= e
        e /= var_tr
        u += e
        np.maximum(phat, VAR_FLOOR, out=k)  # var_q
        s /= k
        d *= d
        d /= k
        u -= d
        np.log(s, out=s)
        u += s

        low = u.min()
        if not math.isfinite(low):
            return est, loglik, 2, t
        u -= low
        u *= -0.5
        np.exp(u, out=u)
        total = u.sum()
        loglik += const - 0.5 * low + math.log(total)
        u /= total
        est[t] = float(u @ xt)

        idx = systematic_indices(u, us[t - 1])
        # mode="clip" lets take write straight into out; idx is in range
        np.take(xt, idx, out=x, mode="clip")
        np.take(phat, idx, out=p, mode="clip")

    return est, loglik, 0, -1


@functools.lru_cache(maxsize=4)
def _strata(n):
    """0, 1, ..., n - 1 as read-only floats: the systematic resampling offsets."""
    ranks = np.arange(n, dtype=float)
    ranks.flags.writeable = False
    return ranks


def systematic_indices(weights, u):
    """Ancestor indices for systematic resampling with one uniform u."""
    n = weights.shape[0]
    positions = (_strata(n) + u) / n
    cum = np.cumsum(weights)
    cum[-1] = max(cum[-1], 1.0)  # guard the last stratum against rounding
    return np.minimum(np.searchsorted(cum, positions, side="left"), n - 1)
