import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ccmsim.errors import NumericalError
from ccmsim.velocity import (
    CcmParams,
    external_force,
    reduced_latent_heat,
    shape_F,
    solve_scalar,
    u_eq_power,
    u_eq_temperature,
    u_transient_power,
    u_transient_temperature,
)

from conftest import REPO_ROOT
from oracles import bisect_root

# water ice pressed by a warm probe, the main benchmark configuration
ICE = CcmParams(rho_s=921.3, cp_s=1877.2, rho_l=1000.0, cp_l=4200.0,
                kappa_l=0.6, mu_l=0.0013, h_m=333700.0, T_m=273.0,
                T_s=210.0, R=0.08, F_ex=18.1256)

# paraffin wax traversed by a hot wire
WAX = CcmParams(rho_s=775.0, cp_s=2674.0, rho_l=775.0, cp_l=2674.0,
                kappa_l=0.13, mu_l=0.00279, h_m=221000.0, T_m=325.0,
                T_s=298.8, R=0.0085, F_ex=60.0)

Q_1KW = 47393.36492890995          # 1000 W over a 0.0211 m^2 contact


def test_reduced_latent_heat_values():
    assert reduced_latent_heat(333700.0, 1877.2, 273.0, 210.0) == pytest.approx(451963.6, rel=1e-12)
    assert ICE.h_m_star == pytest.approx(451963.6, rel=1e-12)
    assert WAX.h_m_star == pytest.approx(291058.8, rel=1e-12)


def test_external_force():
    assert external_force(2.0, 9.81) == pytest.approx(19.62)


def test_equilibrium_temperature_frozen_value():
    # against a 40-digit evaluation of the closed form
    assert u_eq_temperature(ICE, 353.0) == pytest.approx(2.6871988382069811e-4, rel=1e-14)


def test_equilibrium_power_frozen_value():
    # against a 40-digit root of the same residual
    assert u_eq_power(ICE, Q_1KW) == pytest.approx(1.0944978369192787e-4, rel=1e-8)


def test_equilibrium_temperature_scaling_laws():
    u0 = u_eq_temperature(ICE, 273.0 + 40.0)
    # U grows like (T_w - T_m)^(3/4) ...
    assert u_eq_temperature(ICE, 273.0 + 80.0) / u0 == pytest.approx(2.0 ** 0.75, rel=1e-12)
    # ... and like F_ex^(1/4)
    p4 = dataclasses.replace(ICE, F_ex=4.0 * ICE.F_ex)
    assert u_eq_temperature(p4, 273.0 + 40.0) / u0 == pytest.approx(4.0 ** 0.25, rel=1e-12)


def test_equilibrium_power_weak_convection_limit():
    # with a huge pressing force the film is squeezed thin, convection in
    # the film vanishes (like F_ex^(-1/3)) and the energy balance collapses
    # to U = q_h / (rho_s h_m_star), approached from below
    limit = Q_1KW / (ICE.rho_s * ICE.h_m_star)
    p = dataclasses.replace(ICE, F_ex=1e18)
    u = u_eq_power(p, Q_1KW)
    assert u < limit
    assert u == pytest.approx(limit, rel=1e-6)


@pytest.mark.parametrize("p,T_w", [(ICE, 353.0), (WAX, 335.34)])
def test_transient_temperature_consistency(p, T_w):
    # feeding the transient closure the quasi-steady solid flux
    # rho_s U cp_s (T_m - T_s) must reproduce the equilibrium velocity
    u_eq = u_eq_temperature(p, T_w)
    q_qs = p.rho_s * u_eq * p.cp_s * (p.T_m - p.T_s)
    assert u_transient_temperature(p, T_w, q_qs) == pytest.approx(u_eq, rel=1e-9)


def test_transient_power_consistency():
    u_eq = u_eq_power(ICE, Q_1KW)
    q_qs = ICE.rho_s * u_eq * ICE.cp_s * (ICE.T_m - ICE.T_s)
    u_tr, stalled = u_transient_power(ICE, Q_1KW, q_qs)
    assert not stalled
    assert u_tr == pytest.approx(u_eq, rel=1e-9)


@pytest.mark.parametrize("p", [ICE, WAX])
def test_transient_closures_peak_at_zero_flux(p):
    # the driver bounds a transient run's U by the closure at q_s = 0 (it
    # clamps q_s at 0), which is the equilibrium U without solid preheating
    cold = dataclasses.replace(p, T_s=p.T_m)
    T_w = p.T_m + 30.0
    u0 = u_transient_temperature(p, T_w, 0.0)
    assert u0 == pytest.approx(u_eq_temperature(cold, T_w), rel=1e-9)
    assert u_transient_temperature(p, T_w, 0.01 * Q_1KW) < u0
    assert u_transient_power(p, Q_1KW, 0.0) == (pytest.approx(u_eq_power(cold, Q_1KW),
                                                              rel=1e-9), False)


def test_transient_power_stall():
    u, stalled = u_transient_power(ICE, Q_1KW, Q_1KW)
    assert (u, stalled) == (0.0, True)
    u, stalled = u_transient_power(ICE, Q_1KW, 2.0 * Q_1KW)
    assert (u, stalled) == (0.0, True)
    u, stalled = u_transient_power(ICE, Q_1KW, 0.999 * Q_1KW)
    assert not stalled and u > 0.0


def test_temperature_below_melting_rejected():
    with pytest.raises(ValueError, match="above the melting point"):
        u_eq_temperature(ICE, 273.0)
    with pytest.raises(ValueError, match="above the melting point"):
        u_transient_temperature(ICE, 260.0, 0.0)
    with pytest.raises(ValueError, match="q_h > 0"):
        u_eq_power(ICE, 0.0)
    with pytest.raises(ValueError, match="q_h > 0"):
        u_transient_power(ICE, -10.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(f1=st.floats(0.0, 0.95), f2=st.floats(0.0, 0.95))
def test_transient_power_monotone_and_bounded(f1, f2):
    lo_frac, hi_frac = sorted((f1, f2))
    u_more, s1 = u_transient_power(ICE, Q_1KW, lo_frac * Q_1KW)
    u_less, s2 = u_transient_power(ICE, Q_1KW, hi_frac * Q_1KW)
    assert not s1 and not s2
    # more heat lost to the solid leaves less for melting
    assert u_less <= u_more + 1e-14
    # and melting can never outrun the supplied power
    assert u_more <= Q_1KW / (ICE.rho_s * ICE.h_m) * (1.0 + 1e-12)


# the closures' residuals as velocity.py writes them: the same rounding
def eq_power_residual(p, q_h, U):
    conv = shape_F(p, U) / (20.0 * p.alpha_l)
    return (p.rho_s * U * p.h_m_star / q_h) * (7.0 * conv + 1.0) + 3.0 * conv - 1.0


def power_residual(p, q_h, q_s, U):
    conv = shape_F(p, U) / (20.0 * p.alpha_l)
    return ((p.rho_s * p.h_m * U + q_s) / q_h) * (7.0 * conv + 1.0) + 3.0 * conv - 1.0


def temperature_residual(p, T_w, q_s, U):
    cube = ((T_w - p.T_m) * p.kappa_l) ** 3
    return 1.0 - 8.0 * p.mu_l * U * (p.rho_s * U * p.h_m + q_s) ** 3 * p.R**3 / (cube * p.F_ex)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=60, deadline=None)
@given(p=st.builds(CcmParams, rho_s=log_uniform(1e2, 2e4), cp_s=log_uniform(1e2, 1e4),
                   rho_l=log_uniform(1e2, 2e4), cp_l=log_uniform(1e2, 1e4),
                   kappa_l=log_uniform(0.05, 5.0), mu_l=log_uniform(1e-4, 1.0),
                   h_m=log_uniform(1e3, 1e6), T_m=st.just(300.0),
                   T_s=st.floats(100.0, 300.0), R=log_uniform(1e-3, 1.0),
                   F_ex=log_uniform(0.1, 1e4)),
       dT=st.floats(1.0, 200.0), q_h=log_uniform(1e2, 1e6), frac=st.floats(0.0, 0.999))
@example(p=dataclasses.replace(WAX, h_m=1e3), dT=10.0, q_h=Q_1KW, frac=0.0)  # h_m*/h_m = 71
def test_each_closure_brackets_its_root_and_pins_it_to_the_last_place(p, dT, q_h, frac):
    # each closure's bracket [0, hi] holds for any parameters, h_m*/h_m > 21.5
    # too, and its U has the residual change sign within a few units in the
    # last place, unless U is an end of the bracket with |f| < 1e-12
    T_w = p.T_m + dT
    q_s = frac * q_h
    u_cold = u_eq_temperature(dataclasses.replace(p, T_s=p.T_m), T_w)
    cases = [
        (u_eq_power(p, q_h), q_h / (p.rho_s * p.h_m_star),
         lambda U: eq_power_residual(p, q_h, U)),
        (u_transient_power(p, q_h, q_s)[0], (q_h - q_s) / (p.rho_s * p.h_m),
         lambda U: power_residual(p, q_h, q_s, U)),
        (u_transient_temperature(p, T_w, q_s), 2.0 * u_cold,
         lambda U: temperature_residual(p, T_w, q_s, U)),
    ]
    eps = 8.0 * math.ulp(1.0)
    for U, hi, f in cases:
        if U in (0.0, hi) and abs(f(U)) < 1e-12:
            continue
        assert 0.0 < U < hi
        assert f(U * (1.0 - eps)) * f(U * (1.0 + eps)) <= 0.0


def test_shape_factor():
    assert shape_F(ICE, 0.0) == 0.0
    u = 1e-4
    assert shape_F(ICE, 2.0 * u) / shape_F(ICE, u) == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-12)
    with pytest.raises(ValueError, match="negative"):
        shape_F(ICE, -1e-6)


def test_params_validation():
    with pytest.raises(ValueError, match="rho_s"):
        dataclasses.replace(ICE, rho_s=-1.0)
    with pytest.raises(ValueError, match="mu_l"):
        dataclasses.replace(ICE, mu_l=0.0)
    with pytest.raises(ValueError, match="F_ex"):
        dataclasses.replace(ICE, F_ex=math.inf)
    with pytest.raises(ValueError, match="nothing to melt"):
        dataclasses.replace(ICE, T_m=200.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ICE.R = 0.1


def test_solve_scalar_simple_root():
    assert solve_scalar(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_solve_scalar_errors():
    with pytest.raises(ValueError, match="lo < hi"):
        solve_scalar(lambda x: x, 1.0, 1.0)
    with pytest.raises(NumericalError, match="no sign change"):
        solve_scalar(lambda x: x * x + 1.0, 0.0, 1.0)
    # an infinite solid flux makes f(0) = 1 - 0 * inf a NaN
    with pytest.raises(NumericalError, match="no sign change"):
        u_transient_temperature(ICE, 353.0, math.inf)


def test_solve_scalar_agrees_with_bisection_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(10):
        r = rng.uniform(0.3, 2.5)
        s = rng.uniform(0.5, 3.0)

        def f(x):
            return (x - r) * (x * x + s)

        got = solve_scalar(f, 0.0, 3.0, tol=1e-13)
        ref = bisect_root(f, 0.0, 3.0)
        assert got == pytest.approx(ref, abs=1e-9)
        # the compiled solver is scipy.optimize.brentq's, with the same tolerances
        assert got == brentq(f, 0.0, 3.0, xtol=math.ulp(0.0), rtol=4.0 * math.ulp(1.0))


def test_closures_run_without_importing_scipy_optimize():
    # importing scipy.optimize loads all its solvers: 16 MB of resident memory
    code = """if True:
        import sys
        from ccmsim import driver, velocity
        p = velocity.CcmParams(*[1.0] * 8, 0.0, 1.0, 1.0)     # T_s = 0, the rest 1
        velocity.u_eq_power(p, 1.0)
        velocity.u_transient_temperature(p, 2.0, 0.5)
        print("scipy.optimize" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
