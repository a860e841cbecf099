import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_solve_scalar_expands_bracket():
    # root far above the initial interval: [0, 0.1] must be widened
    assert solve_scalar(lambda x: x - 1.5, 0.0, 0.1) == pytest.approx(1.5, rel=1e-12)


def test_solve_scalar_errors():
    with pytest.raises(ValueError, match="lo < hi"):
        solve_scalar(lambda x: x, 1.0, 1.0)
    with pytest.raises(NumericalError, match="no sign change"):
        solve_scalar(lambda x: x * x + 1.0, 0.0, 1.0)


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
