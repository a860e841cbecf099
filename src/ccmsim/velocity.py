"""Analytical melt-film closures for close-contact melting.

The thin liquid layer between a pressed heat source and the melting solid
is never meshed: lubrication theory collapses it to algebraic relations
between the melting velocity U, the exerted force, and either the source
surface temperature (temperature-controlled) or the supplied heat-flow
rate per area (power-controlled).  This module provides those relations
in equilibrium form (solid-side conduction balanced) and transient form
(solid-side flux q_s supplied by the macro-scale solver), plus the
scalar root solver they share: Brent's method (SciPy's ``brentq``) on an
interval that each closure proves brackets its root.

All quantities are SI.  ``U`` is the normal approach velocity of the
source into the solid (m/s), ``q_s`` the heat flux conducted from the
melt front into the solid (W/m^2, positive into the solid).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable

import scipy

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


def _load_brentq():
    """SciPy's compiled Brent solver, the one ``scipy.optimize.brentq`` calls, loaded
    alone: importing ``scipy.optimize`` loads all its solvers, which adds 16 MB (about
    a fifth) to a run's peak resident memory and 0.3 s to its start-up."""
    finder = importlib.machinery.FileFinder(
        os.path.join(os.path.dirname(scipy.__file__), "optimize"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.optimize._zeros")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._brentq


_brentq = _load_brentq()


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
    """Root of ``f`` in ``[lo, hi]`` by Brent's method (SciPy's ``brentq``;
    Brent, *Algorithms for Minimization Without Derivatives*, 1973).

    An end with ``|f| < tol`` is returned as is (the one with the smaller
    ``|f|`` if both are).  Otherwise ``f`` must change sign on the interval,
    and the root, found to a few units in the last place, must have
    ``|f| < tol``; if not, NumericalError is raised.
    """
    if not hi > lo:
        raise ValueError("solve_scalar needs lo < hi")
    flo = f(lo)
    fhi = f(hi)
    near = [(abs(fx), x) for x, fx in ((lo, flo), (hi, fhi)) if abs(fx) < tol]
    if near:
        return min(near)[1]
    if not flo * fhi < 0.0:
        raise NumericalError(f"no sign change of f on [{lo:g}, {hi:g}]")
    try:
        # xtol, rtol, maxiter, args, full_output, disp: as scipy.optimize.brentq
        root = _brentq(f, lo, hi, math.ulp(0.0), 4.0 * math.ulp(1.0), 100, (), False, True)
    except RuntimeError as exc:
        raise NumericalError(f"scalar root solve did not converge: {exc}") from exc
    if not abs(f(root)) < tol:
        raise NumericalError(f"scalar root solve did not reach |f| < {tol:g}")
    return root


def _film_velocity(p: CcmParams, T_w: float, h: float) -> float:
    """Velocity of a source at T_w whose melt film takes ``h`` (J/kg) to
    melt the solid: U = [ ((T_w - T_m) kappa_l)^3 F_ex / (8 mu_l (rho_s h R)^3) ]^(1/4)."""
    return (((T_w - p.T_m) * p.kappa_l) ** 3 * p.F_ex
            / (8.0 * p.mu_l * (p.rho_s * h * p.R) ** 3)) ** 0.25


def u_eq_temperature(p: CcmParams, T_w: float) -> float:
    """Equilibrium melting velocity for a source held at temperature T_w:
    the film velocity (:func:`_film_velocity`) with h = h_m_star."""
    if T_w <= p.T_m:
        raise ValueError("temperature-controlled melting needs T_w above the melting point")
    return _film_velocity(p, T_w, p.h_m_star)


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

    # f(0) = -1; at q_h / (rho_s h_m_star) the first term is at least 1, so f >= 10 conv > 0
    return solve_scalar(f, 0.0, q_h / (p.rho_s * p.h_m_star))


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

    # f(0) = 1; f(2 u_cold) <= 1 - 2^4 as f falls with q_s; u_cold: the film velocity with h_m
    return solve_scalar(f, 0.0, 2.0 * _film_velocity(p, T_w, p.h_m))


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

    # f(0) < 0; at (q_h - q_s) / (rho_s h_m) the first term is at least 1, so f >= 10 conv > 0
    return solve_scalar(f, 0.0, (q_h - q_s) / (p.rho_s * p.h_m)), False
