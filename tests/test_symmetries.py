"""Symmetries of the models as oracles that share no formula with the kernels.

Time rescaling by c = 4: dt -> 4 dt with the rates mu_s, kappa, theta_v and
xi, and the variances v0 and x0, divided by 4 and p0 by 16 (rho stays)
leaves the Heston log-price and the EKF's innovations unchanged and scales
every variance by 1/4.  Powers of 4 keep each product and square root exact,
so the relations hold bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from sdefl import _kernels
from sdefl.core import RandomSource
from sdefl.models import HestonParams, simulate_heston

C = 4.0
TRUTH = HestonParams(mu_s=0.04, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)
SLOW = dataclasses.replace(TRUTH, mu_s=TRUTH.mu_s / C, kappa=TRUTH.kappa / C,
                           theta_v=TRUTH.theta_v / C, xi=TRUTH.xi / C)
DT, V0, N_STEPS = 0.499, 1.5, 1000
X0, P0 = 1.0, 1.0  # the EKF's start


def ekf(p, dt, dlns, x0, p0):
    return _kernels.heston_ekf_loop(dlns, dt, p.mu_s, p.kappa, p.theta_v, p.xi, p.rho, x0, p0)


@pytest.mark.parametrize("seed", range(1, 6))
def test_time_rescaling_by_four(seed):
    lns, v = simulate_heston(TRUTH, 100.0, V0, DT, N_STEPS, RandomSource(seed))
    lns4, v4 = simulate_heston(SLOW, 100.0, V0 / C, C * DT, N_STEPS, RandomSource(seed))
    assert lns4.values.tobytes() == lns.values.tobytes()
    assert v4.values.tobytes() == (v.values / C).tobytes()

    dlns = np.diff(lns.values)
    v_post, p_post, ll = ekf(TRUTH, DT, dlns, X0, P0)
    v_post4, p_post4, ll4 = ekf(SLOW, C * DT, dlns, X0 / C, P0 / (C * C))
    assert v_post4.tobytes() == (v_post / C).tobytes()
    assert p_post4.tobytes() == (p_post / (C * C)).tobytes()
    assert ll4.tobytes() == ll.tobytes()
