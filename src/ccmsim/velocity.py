"""Analytical melt-film closures for close-contact melting.

The thin liquid layer between a pressed heat source and the melting solid
is never meshed: lubrication theory collapses it to algebraic relations
between the melting velocity U, the exerted force, and either the source
surface temperature (temperature-controlled) or the supplied heat-flow
rate per area (power-controlled).  This module provides those relations
in equilibrium form (solid-side conduction balanced) and transient form
(solid-side flux q_s supplied by the macro-scale solver), plus the
safeguarded scalar root solver they share.

All quantities are SI.  ``U`` is the normal approach velocity of the
source into the solid (m/s), ``q_s`` the heat flux conducted from the
melt front into the solid (W/m^2, positive into the solid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NumericalError

__all__ = [
    "CcmParams",
    "external_force",
    "reduced_latent_heat",
    "shape_F",
    "solve_scalar",
    "u_eq_power",
    "u_eq_temperature",
    "u_transient_power",
    "u_transient_temperature",
]

# iteration limits of solve_scalar
_MAX_ITER = 100
_MAX_EXPAND = 60


def external_force(mass: float, gravity: float) -> float:
    """Pressing force of a body of given mass under the given gravity."""
    return float(mass) * float(gravity)


def reduced_latent_heat(h_m: float, cp_s: float, T_m: float, T_s: float) -> float:
    """Latent heat plus the sensible heat to warm the solid from T_s to T_m."""
    return h_m + cp_s * (T_m - T_s)


@dataclass(frozen=True)
class CcmParams:
    """Material, geometry and force parameters of a close-contact-melting setup.

    rho_s, cp_s        -- solid density (kg/m^3) and specific heat (J/kg/K)
    rho_l, cp_l, kappa_l, mu_l -- liquid density, specific heat, conductivity
                          (W/m/K) and dynamic viscosity (Pa s)
    h_m                -- latent heat of melting (J/kg)
    T_m, T_s           -- melting temperature and far-field solid temperature (K)
    R                  -- half-width of the planar contact zone (m)
    F_ex               -- external pressing force per unit depth (N/m in 2D)
    """

    rho_s: float
    cp_s: float
    rho_l: float
    cp_l: float
    kappa_l: float
    mu_l: float
    h_m: float
    T_m: float
    T_s: float
    R: float
    F_ex: float

    def __post_init__(self) -> None:
        for name in ("rho_s", "cp_s", "rho_l", "cp_l", "kappa_l", "mu_l", "h_m", "R", "F_ex"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"CcmParams.{name} must be positive and finite, got {value!r}")
        if self.T_m < self.T_s:
            raise ValueError("CcmParams.T_m is below T_s: nothing to melt")

    @property
    def alpha_l(self) -> float:
        """Thermal diffusivity of the liquid (m^2/s)."""
        return self.kappa_l / (self.rho_l * self.cp_l)

    @property
    def h_m_star(self) -> float:
        """Reduced latent heat including solid preheating (J/kg)."""
        return reduced_latent_heat(self.h_m, self.cp_s, self.T_m, self.T_s)


def shape_F(p: CcmParams, U: float) -> float:
    """Film geometry factor coupling convection in the melt film to U.

    Grows like U^(4/3); vanishing force F_ex or viscosity drives it up,
    reflecting a thicker film with stronger cross-film convection.
    """
    if U < 0.0:
        raise ValueError("shape factor undefined for negative melting velocity")
    return (p.rho_s / p.rho_l * p.R * U) ** (4.0 / 3.0) * (
        3.0 * math.pi * p.mu_l / (2.0 * p.F_ex)
    ) ** (1.0 / 3.0)


def solve_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Find a root of ``f`` with a secant iteration safeguarded by bisection.

    ``[lo, hi]`` is the initial search interval; if it does not bracket a
    sign change it is widened (doubling, keeping ``lo``) up to
    ``_MAX_EXPAND`` times.  Secant proposals falling outside the current
    bracket, or failing to shrink it, are replaced by bisection steps.
    Success means ``|f(root)| < tol``; otherwise NumericalError is raised.
    """
    if not hi > lo:
        raise ValueError("solve_scalar needs lo < hi")
    flo = f(lo)
    fhi = f(hi)
    expand = 0
    while flo * fhi > 0.0:
        if abs(flo) < tol:
            return lo
        if abs(fhi) < tol:
            return hi
        if expand >= _MAX_EXPAND:
            raise NumericalError("root bracket expansion failed: no sign change found")
        hi += hi - lo
        fhi = f(hi)
        expand += 1

    a, b, fa, fb = lo, hi, flo, fhi
    # secant memory: current iterate and its predecessor
    if abs(fa) <= abs(fb):
        x, fx, x_prev, f_prev = a, fa, b, fb
    else:
        x, fx, x_prev, f_prev = b, fb, a, fa
    since_bisect = 0
    width_ref = b - a
    for _ in range(_MAX_ITER):
        if abs(fx) < tol:
            return x
        denom = fx - f_prev
        if denom != 0.0:
            cand = x - fx * (x - x_prev) / denom
        else:
            cand = 0.5 * (a + b)
        # safeguard: stay strictly inside the bracket, and force a
        # bisection if the bracket has stopped shrinking
        if not (a < cand < b) or (since_bisect >= 5 and (b - a) > 0.5 * width_ref):
            cand = 0.5 * (a + b)
            since_bisect = 0
            width_ref = b - a
        else:
            since_bisect += 1
        fc = f(cand)
        x_prev, f_prev = x, fx
        x, fx = cand, fc
        if fa * fc <= 0.0:
            b, fb = cand, fc
        else:
            a, fa = cand, fc
    if abs(fx) < tol:
        return x
    raise NumericalError(f"scalar root solve did not reach |f| < {tol:g} in {_MAX_ITER} iterations")


def u_eq_temperature(p: CcmParams, T_w: float) -> float:
    """Equilibrium melting velocity for a source held at temperature T_w.

    Closed form: U = [ ((T_w - T_m) kappa_l)^3 * F_ex
                       / (8 mu_l (rho_s h_m_star R)^3) ]^(1/4).
    """
    if T_w <= p.T_m:
        raise ValueError("temperature-controlled melting needs T_w above the melting point")
    num = ((T_w - p.T_m) * p.kappa_l) ** 3 * p.F_ex
    den = 8.0 * p.mu_l * (p.rho_s * p.h_m_star * p.R) ** 3
    return (num / den) ** 0.25


def u_eq_power(p: CcmParams, q_h: float) -> float:
    """Equilibrium melting velocity for a source supplying flux q_h (W/m^2).

    Root of
        (rho_s U h_m_star / q_h) (7 F(U) / (20 alpha_l) + 1)
          + 3 F(U) / (20 alpha_l) - 1 = 0;
    with the film convection term F -> 0 this reduces to
    U = q_h / (rho_s h_m_star).
    """
    if q_h <= 0.0:
        raise ValueError("power-controlled melting needs q_h > 0")

    def f(U: float) -> float:
        conv = shape_F(p, U) / (20.0 * p.alpha_l)
        return (p.rho_s * U * p.h_m_star / q_h) * (7.0 * conv + 1.0) + 3.0 * conv - 1.0

    return solve_scalar(f, 0.0, 10.0 * q_h / (p.rho_s * p.h_m))


def u_transient_temperature(p: CcmParams, T_w: float, q_s: float) -> float:
    """Transient melting velocity, temperature-controlled source.

    Given the instantaneous flux q_s >= 0 conducted into the solid, U is the
    non-negative root of

        F_ex - 8 mu_l U (rho_s U h_m + q_s)^3 R^3 / ((T_w - T_m) kappa_l)^3 = 0

    (plain latent heat here: solid preheating is what q_s accounts for).
    The residual is solved relative to F_ex.
    """
    if T_w <= p.T_m:
        raise ValueError("temperature-controlled melting needs T_w above the melting point")
    cube = ((T_w - p.T_m) * p.kappa_l) ** 3

    def f(U: float) -> float:
        return 1.0 - 8.0 * p.mu_l * U * (p.rho_s * U * p.h_m + q_s) ** 3 * p.R**3 / (cube * p.F_ex)

    return solve_scalar(f, 0.0, 10.0 * u_eq_temperature(p, T_w))


def u_transient_power(p: CcmParams, q_h: float, q_s: float) -> tuple[float, bool]:
    """Transient melting velocity, power-controlled source.

    Root of
        ((rho_s h_m U + q_s) / q_h) (7 F(U) / (20 alpha_l) + 1)
          + 3 F(U) / (20 alpha_l) - 1 = 0.
    When the solid conducts away at least the supplied flux (q_s >= q_h)
    no positive root exists: melting stalls and (0.0, True) is returned.
    """
    if q_h <= 0.0:
        raise ValueError("power-controlled melting needs q_h > 0")
    if q_s >= q_h:
        return 0.0, True

    def f(U: float) -> float:
        conv = shape_F(p, U) / (20.0 * p.alpha_l)
        return ((p.rho_s * p.h_m * U + q_s) / q_h) * (7.0 * conv + 1.0) + 3.0 * conv - 1.0

    return solve_scalar(f, 0.0, 10.0 * q_h / (p.rho_s * p.h_m)), False
