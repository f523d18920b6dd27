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
operations: two doubling scans that share one list of window products and
stop before the first pass that would change no value, with the full pass
sequence's results bit for bit.

The particle step (``particle_heston_loop_numpy``) works on arrays of
particles, hoists every constant of a pass out of its time loop and writes
each importance weight as one log-space expression in the three variances,
with one ``log`` per step.  The expression's three residuals and three
variances sit in the rows of two (3, N) buffers, so one call squares the
residuals and one divides them.  Systematic resampling
(``systematic_indices``) counts each particle's offspring with one floor
of its running weight sum instead of a binary search, and runs the search
only on a near-tie, with the search's indices in every case.  While the
particle cloud keeps a spread, its
estimates agree with the literal reference loop's (``particle_heston_loop``)
to within 4e-14 and its log-likelihood to within 7e-15 relative (measured on
the packaged parameters and on the floor-hitting cases of the tests).  A
cloud collapsed onto the variance floors has log-weights of 1e7 and more;
the two then agree only to the last digits of those (seen: 1e-9 in an
estimate, 3e-13 relative in the log-likelihood).  Both loops take the
proposal's offset from the EKF mean as sqrt(phat) times the draw, which
keeps its digits when phat nears its floor.

A filter kernel that breaks down raises DegenerateSystemError at that step,
naming its 0-based measurement index: "innovation variance not positive at
step t" (the Kalman and EKF loops) or "all particle weights vanished at
step t" (the particle loops).  Otherwise it returns its results only.
"""

import functools
import math

import numpy as np

from .core import DegenerateSystemError

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
# The scalar loops here do their arithmetic on Python floats (.tolist()):
# the same IEEE double operations as on numpy scalars, so the same bits, at
# a fraction of the per-step cost.  They write into preallocated arrays; a
# list of result floats, turned into an array at the end, raised perfbench
# track's peak RSS by about 1 MB.

def ou_path(x0, theta, mu, sigma, dt, z):
    sdt = sigma * math.sqrt(dt)
    out = np.empty(z.shape[0] + 1)
    out[0] = x = x0
    for k, zk in enumerate(z.tolist(), 1):
        out[k] = x = x + theta * (mu - x) * dt + sdt * zk
    return out


def ou_jump_path(x0, theta, mu, sigma, dt, z, jump_add):
    sdt = sigma * math.sqrt(dt)
    out = np.empty(z.shape[0] + 1)
    out[0] = x = x0
    for k, (zk, jump) in enumerate(zip(z.tolist(), jump_add.tolist()), 1):
        out[k] = x = x + theta * (mu - x) * dt + sdt * zk + jump
    return out


def bk_log_path(y0, theta, alpha, sigma, dt, z):
    sdt = sigma * math.sqrt(dt)
    out = np.empty(z.shape[0] + 1)
    out[0] = y = y0
    for k, zk in enumerate(z.tolist(), 1):
        out[k] = y = y + (theta - alpha * y) * dt + sdt * zk
    return out


def heston_paths(lns0, v0, mu_eff, kappa, theta_v, xi, rho, dt, z1, z2, jump_add):
    """Log-price and variance paths under full truncation.

    The raw variance state may dip negative; max(v,0) enters every drift and
    diffusion coefficient.  Returns (log-price, raw variance): the caller
    clips the reported variance at 0, after it has checked the raw state,
    which a clipped path would show as 0 once it has overflowed to -inf.
    """
    n = z1.shape[0]
    sq_dt = math.sqrt(dt)
    corr = math.sqrt(1.0 - rho * rho)
    lns = np.empty(n + 1)
    v_out = np.empty(n + 1)
    lns[0] = x = lns0
    v_out[0] = v = v0
    steps = zip(z1.tolist(), z2.tolist(), jump_add.tolist())
    for k, (w1, z, jump) in enumerate(steps, 1):
        vplus = max(v, 0.0)
        sv = math.sqrt(vplus)
        w2 = rho * w1 + corr * z
        lns[k] = x = x + (mu_eff - 0.5 * vplus) * dt + sv * sq_dt * w1 + jump
        v_out[k] = v = v + kappa * (theta_v - vplus) * dt + xi * sv * sq_dt * w2
    return lns, v_out


# ---------------------------------------------------------------------------
# Scalar Kalman recursion for the constant-plus-state OU system, with the
# gradient of its log-likelihood in (alpha, beta, q).  Follows the literal
# ordering: the covariance supplied as p0 is the first a priori value, and
# propagation happens at the end of each step.  Returns (means, ll, grad).

def _prior_variances(n, beta, q, r, p0):
    """The filter's data-free covariance recursion, with the derivatives of
    the prior variance p_t in beta and q.

    Returns (s, k, dp): innovation variances s_t = p_t + r, gains
    k_t = p_t / s_t and dp (2, n).  The loop stops at the first exact fixed
    point of (p, dp) and fills the rest with it; p follows the same values
    as a loop over p alone.  A step whose s_t is not positive raises.
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
            raise DegenerateSystemError(f"innovation variance not positive at step {t}")
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
    return s, k, dp


def _doubling_scan(c, d, prods):
    """Solve x_t = c_t x_{t-1} + d_t from x_{-1} = 0 along the last axis of
    d, in place, by array passes: pass j adds c_j[t] x_{t - 2^j} from
    t = 2^j on, where c_j[t] is the product of the 2^j values of c up to t
    (Hillis & Steele).

    prods caches (c_j, max |c_j[2^j:]|) for the passes run so far; pass an
    empty list to the first scan over c, and later scans over the same c
    reuse it.  A scan stops before the first pass that would change no
    value: one whose products are all below 2^-55 |x_t| for every t it
    writes, checked as fl(peak * max |x|) * 2^55 < min |x_t|.  Each such
    sum rounds back to x_t, as half the spacing of the floats next to x_t
    exceeds 2^-55 |x_t|, and every later pass reads products smaller still
    (at most peak^2), so the result is the full pass sequence's bit for
    bit.  A zero, inf or NaN where the check reads keeps the passes
    running: -0 + 0 is +0, and 0 x inf is NaN.
    """
    n = d.shape[-1]
    span = 1
    j = 0
    while span < n:
        if j == len(prods):
            if j:
                prev = prods[-1][0]
                c = prev.copy()
                c[span // 2:] *= prev[:-(span // 2)]
            prods.append((c, float(np.abs(c[span:]).max())))
        c, peak = prods[j]
        if peak < 2.0 ** -55:  # else the check cannot pass
            a = np.abs(d)
            if peak * float(a.max()) * 2.0 ** 55 < float(a[..., span:].min()):
                break
        d[..., span:] += c[span:] * d[..., :-span]
        span *= 2
        j += 1
    return d


def kalman_ou_loop(y, alpha, beta, q, r, x0, p0):
    """The scalar OU Kalman filter with array operations.

    The covariance recursion does not depend on the data, so it runs as a
    scalar loop to its first exact fixed point (_prior_variances); the gains
    after it repeat.  The means x_t = c_t x_{t-1} + d_t,
    with c_t = (1 - k_t) beta and d_t = (1 - k_t) alpha + k_t y_t, then come
    from a doubling scan, and so do their sensitivities x'_t = c_t x'_{t-1}
    + k'_t e_t + (1 - k_t)(alpha' + beta' x_{t-1}) from x'_{-1} = 0, one row
    per parameter (Durbin & Koopman 2012, section 7.3.3).  Both scans read
    one list of c's window products, and each stops before the first pass
    that would change no value (_doubling_scan): at the packaged fits c is
    about 4e-5, so the products of 8 steps are below 1e-32 and a 1000-step
    scan runs 3 of its 10 passes.  The results are the full pass
    sequence's bit for bit, and match a literal step-by-step loop to float
    reordering (~1e-14 relative) wherever the filter is stable
    (|c_t| <= 1); with q = p0 = 0 and |beta| > 1 the means grow
    geometrically and both forms lose the same accuracy in different ways.
    """
    n = y.shape[0]
    s, k, dp = _prior_variances(n, beta, q, r, p0)
    g = 1.0 - k
    c = g * beta
    d = g * alpha + k * y
    d[:1] += c[:1] * x0  # slices, so that an empty series runs too
    prods = []  # c's window products, which both scans read
    means = _doubling_scan(c, d, prods)
    x_prev = np.empty(n)
    x_prev[:1] = x0
    x_prev[1:] = means[:-1]
    e = y - (alpha + beta * x_prev)  # the innovations
    dk = g * dp / s
    u = np.empty((3, n))
    u[0] = g
    u[1] = dk[0] * e + g * x_prev
    u[2] = dk[1] * e
    dx = _doubling_scan(c, u, prods)
    de = np.empty((3, n))  # derivatives of the innovations
    de[:, :1] = 0.0
    de[:, 1:] = dx[:, :-1]
    de *= -beta
    de[0] -= 1.0
    de[1] -= x_prev
    w = e / s
    grad = -(de @ w)
    grad[1:] -= 0.5 * (dp @ (1.0 / s - w * w))
    ll = -0.5 * float(np.sum(e * e / s + np.log(s) + LOG2PI))
    return means, ll, grad


# ---------------------------------------------------------------------------
# One-dimensional Heston/Bates EKF over a log-return series. State is the
# variance; the observation is the log-return with (mu - v/2)dt as known
# drift; the return also feeds the state transition through rho*xi*dlns.
# Same literal covariance ordering as the Kalman loop. Row t of v_post,
# p_post and ll holds the posterior and the Gaussian innovation
# log-likelihood after t returns; row 0 the start.

def heston_ekf_loop(dlns, dt, mu_eff, kappa, theta_v, xi, rho, v0, p0):
    n = dlns.shape[0]
    a = 1.0 - (kappa - 0.5 * rho * xi) * dt
    hc = -0.5 * dt
    wc = xi * math.sqrt(1.0 - rho * rho) * math.sqrt(dt)
    v_post = np.empty(n + 1)
    p_out = np.empty(n + 1)
    ll = np.empty(n + 1)
    v_post[0] = v = v0
    p_out[0] = p_prior = p0
    ll[0] = ll_gauss = 0.0
    for t, dl in enumerate(dlns.tolist(), 1):
        v_pred = v + (kappa * (theta_v - v) - rho * xi * (mu_eff - 0.5 * v)) * dt + rho * xi * dl
        eps2 = max(v_pred, 0.0) * dt
        s = hc * hc * p_prior + eps2
        if s <= 0.0:
            raise DegenerateSystemError(f"innovation variance not positive at step {t - 1}")
        k = p_prior * hc / s
        r = dl - (mu_eff - 0.5 * v_pred) * dt
        v = v_pred + k * r
        p_post = (1.0 - k * hc) * p_prior
        ll[t] = ll_gauss = ll_gauss - 0.5 * (r * r / s + math.log(s) + LOG2PI)
        v_post[t] = v
        p_out[t] = p_post
        w_jac = wc * math.sqrt(max(v, 0.0))
        p_prior = a * a * p_post + w_jac * w_jac
    return v_post, p_out, ll


# ---------------------------------------------------------------------------
# Fused particle-EKF loops for Heston/Bates over a log-return series.
# z0: initial spread draws (N,); ys[t - 1]: step t's proposal draws (N,);
# us[t - 1]: step t's resampling uniform.  particle_heston_loop_numpy, the
# production step, reads each once, when its time loop reaches step t, so
# ys and us may draw on demand; particle.particle_run runs it for every
# SvSystem.  particle_heston_loop is the literal per-particle loop over a
# (steps, N) array ys, kept as the reference that the tests compare the
# production step, and the generic loop of tests/reference.py, against.

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
            raise DegenerateSystemError(f"all particle weights vanished at step {t - 1}")
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

    return est, loglik


# numpy stays quiet: a step with a NaN or infinite weight, or with every
# weight 0, ends the pass at the check of low
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    hc = -0.5 * dt
    # v_pred = a x + shift and the observation residual r = dmu - hc v, with
    # step t reading row t - 1 of each as a length-1 view
    shift = ((kappa * theta_v - rho * xi * mu_eff) * dt + rho * xi * dlns)[:, None]
    dmu = (dlns - mu_eff * dt)[:, None]
    const = -math.log(npart) - 0.5 * LOG2PI
    # the ufuncs' scalar operands as 0-d arrays, which they read without
    # converting a Python float on every call
    zero, one, half, floor, a, a2, dt, hc, nhc, hc2, wc2 = map(np.array, (
        0.0, 1.0, -0.5, VAR_FLOOR, a, a * a, dt, hc, -hc, hc * hc,
        xi * xi * (1.0 - rho * rho) * dt))

    state = np.empty((2, npart))  # rows x and p: the resampled particles
    new = np.empty((2, npart))  # rows xt and phat: this step's particles
    x, p = state
    xt, phat = new
    # the weight's three terms in stacked rows: residuals e_o, e_t and d
    # over the variances var_obs, var_tr and var_q
    res = np.empty((3, npart))
    var = np.empty((3, npart))
    e_o, e_t, d = res
    var_obs, var_tr, var_q = var
    var_ot = var[:2]
    x[:] = x0 + math.sqrt(p0) * z0
    p[:] = p0
    est = np.empty(n + 1)
    est[0] = x.mean()
    loglik = 0.0
    v_pred, p_pred, s, k, u, cum, positions = (np.empty(npart) for _ in range(7))

    for t in range(1, n + 1):
        np.maximum(x, zero, out=var_tr)
        var_tr *= wc2  # transition variance w_jac^2
        np.multiply(p, a2, out=p_pred)
        p_pred += var_tr
        np.multiply(x, a, out=v_pred)
        v_pred += shift[t - 1]
        # EKF update of every particle: innovation variance s, gain k
        np.maximum(v_pred, zero, out=s)
        s *= dt
        np.multiply(p_pred, hc2, out=u)
        s += u
        np.maximum(s, floor, out=s)
        np.multiply(p_pred, hc, out=k)
        k /= s
        np.multiply(v_pred, nhc, out=xt)
        xt += dmu[t - 1]
        xt *= k
        xt += v_pred  # the EKF mean xhat
        np.multiply(k, nhc, out=phat)
        phat += one
        phat *= p_pred
        np.maximum(phat, zero, out=phat)
        np.sqrt(phat, out=d)
        d *= ys[t - 1]  # the proposal's offset from xhat
        xt += d
        # log weight, negated and doubled, less its constant, into u:
        # (e_o^2/var_obs + e_t^2/var_tr) - d^2/var_q + log(var_obs var_tr/var_q)
        np.multiply(xt, nhc, out=e_o)
        e_o += dmu[t - 1]
        np.subtract(xt, v_pred, out=e_t)
        np.multiply(xt, dt, out=var_obs)
        np.maximum(var_ot, floor, out=var_ot)
        np.maximum(phat, floor, out=var_q)
        res *= res
        res /= var
        np.add(e_o, e_t, out=u)
        u -= d
        np.multiply(var_obs, var_tr, out=s)
        s /= var_q
        np.log(s, out=s)
        u += s

        low = u.min()
        if not math.isfinite(low):
            raise DegenerateSystemError(f"all particle weights vanished at step {t - 1}")
        u -= low
        u *= half
        np.exp(u, out=u)
        total = u.sum()
        loglik += const - 0.5 * low + math.log(total)
        u /= total
        est[t] = float(u @ xt)

        idx = systematic_indices(u, us[t - 1], cum, positions)
        # one take moves x and p; mode="clip" lets it write straight into
        # out, and idx is in range
        np.take(new, idx, axis=1, out=state, mode="clip")

    return est, loglik


@functools.lru_cache(maxsize=4)
def _strata(n):
    """0, 1, ..., n - 1 as read-only floats: the systematic resampling offsets."""
    ranks = np.arange(n, dtype=float)
    ranks.flags.writeable = False
    return ranks


def systematic_indices(weights, u, cum=None, positions=None):
    """Ancestor indices for systematic resampling with one uniform u.

    weights are non-negative and sum to about 1.  New particle i takes the
    first j whose running sum c_j (the last one raised to at least 1)
    reaches its position p_i = fl(fl(i + u)/n): searchsorted(c, p, "left"),
    capped at n - 1.  cum and positions, when given, are float buffers of
    the weights' length that it overwrites instead of allocating its own.

    It counts offspring instead of searching.  c and p are non-decreasing,
    so idx_i = #{j : m_j <= i}, where m_j = #{i : p_i <= c_j} counts the
    positions at or below c_j; idx is the running sum of the counts of the
    m_j.  Each m_j follows from one floor:
    - p_i = (i + u)(1 + e_i)/n with |e_i| <= 2^-52 + 2^-106 (two
      roundings), so p_i <= c_j reads i + 1 <= E_j - (i + u) e_i, with
      E_j = c_j n + 1 - u and |(i + u) e_i| < (2n + 1) 2^-53.  Where E_j
      lies farther than that from every integer, m_j = min(floor(E_j), n).
    - For c_j < 2, the computed est_j = fl(fl(c_j n) + fl(1 - u)) lies
      within (2 c_j n + 2)(1 + 2^-53) 2^-53 < (4n + 3) 2^-53 of E_j
      (three roundings).
    - So where every est_j lies farther than tol = (n + 1) 2^-48 =
      32 (n + 1) 2^-53 > (6n + 4) 2^-53 from an integer, floor(est_j) =
      floor(E_j), which is m_j in every bin that idx reads.  est_j >= 0,
      so est_j - floor(est_j) is exact.
    Elsewhere the search runs: on a near-tie (equal weights with u = 0,
    or u below tol, as E_(n-1) = n + 1 - u when the last sum is 1), and
    when the last sum is 2 or more, or NaN.  On the packaged passes that
    is about one step in 1e8.
    """
    n = weights.shape[0]
    cum = np.add.accumulate(weights, out=cum)
    cum[-1] = max(cum[-1], 1.0)  # guard the last stratum against rounding
    if cum[-1] < 2.0:
        est = np.multiply(cum, n, out=positions)
        est += 1.0 - u
        whole = np.floor(est)
        est -= whole  # the fractional parts
        tol = (n + 1) * 2.0 ** -48
        if est.min() > tol and est.max() < 1.0 - tol:
            return np.bincount(whole.astype(np.intp), minlength=n)[:n].cumsum()
    positions = np.add(_strata(n), u, out=positions)
    positions /= n
    return np.minimum(np.searchsorted(cum, positions, side="left"), n - 1)
