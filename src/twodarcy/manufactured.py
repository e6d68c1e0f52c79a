"""Manufactured cases: exact fields, coefficients, forcing and interface data.

Closed forms are stored per quadrant (the layout of ``twodarcy.mesh``:
Q1 = (0,1)^2, Q2 = (-1,0)x(0,1), Q3 = (-1,0)^2, Q4 = (0,1)x(-1,0)) so that
one-sided limits on the interface are exact.

By default the interface data (normal-stress jump ``f_stress`` and
normal-flux source ``f_n``) are derived from the exact solution through the
balance relations

    f_stress = p2 - p1,
    f_n      = u1 . n - u2 . n - beta * p2      on the interface,

with n the region-1 outer normal, so the manufactured fields solve the
coupled problem exactly.  The literal interface formulas quoted for the
second and third case are retained as ``paper_literal`` variants (their
sign convention does not match the derived data on every sub-edge), and
the fourth case has a ``constant_projection`` variant that replaces the
flux source by the constant -1/sqrt(2) (deliberately inconsistent data).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import CoefficientSet
from .mesh import REGION_OF_QUADRANT, quadrants_of

__all__ = [
    "ManufacturedCase",
    "example1",
    "example2",
    "example3",
    "example4",
    "derive_interface_data",
]


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact fields and data of one verification problem.

    ``p``, ``grad_p`` and ``lap_p`` take (x, y, quadrant) with scalar or
    array quadrants; ``f_stress`` and ``f_n`` take interface points; ``g``
    is an optional vector forcing (x, y, quadrant) -> (..., 2).
    """

    name: str
    a1: float
    a2: float
    beta: float
    interface_mode: str
    p: Callable
    grad_p: Callable
    lap_p: Callable
    f_stress: Callable = None
    f_n: Callable = None
    g: Callable | None = None
    # scalar whose quadrant-wise gradient equals the region-2 velocity;
    # None stands for -p/a2, which is the correct potential whenever g = 0
    potential: Callable | None = None

    # -- coefficient access -------------------------------------------------

    def a_of_quadrant(self, q):
        return np.where(REGION_OF_QUADRANT[np.asarray(q)] == 1, self.a1, self.a2)

    def coefficient_set(self) -> CoefficientSet:
        return CoefficientSet(self.a1, self.a2, self.beta)

    # -- derived fields -----------------------------------------------------

    def u(self, x, y, q):
        """Seepage velocity -(grad(p) + g)/a with one-sided quadrant forms."""
        a = self.a_of_quadrant(q)
        flux = -self.grad_p(x, y, q)
        if self.g is not None:
            flux = flux - self.g(x, y, q)
        return flux / a[..., None]

    def F(self, x, y, q):
        """Mass source div(u) = -lap(p)/a.

        Valid because the resistance is region-constant and any gravity
        forcing used here is divergence-free per quadrant.
        """
        return -self.lap_p(x, y, q) / self.a_of_quadrant(q)

    def p_at(self, x, y):
        """Pressure at strictly interior points, quadrant taken from the signs."""
        return self.p(x, y, quadrants_of(x, y))


def _classify_interface(x, y, tol=1e-12):
    """Sub-edge data for interface points: region-1/-2 quadrants and normal.

    The normal n points from region 1 into region 2, so the region-1 and
    region-2 quadrants are those of x - n and x + n.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    on_h = np.abs(y) <= tol
    on_v = np.abs(x) <= tol
    if not np.all(on_h | on_v):
        raise ValueError("point is not on the interface cross")
    nx = np.where(on_h, 0.0, np.where(y > 0, -1.0, 1.0))
    ny = np.where(on_h, np.where(x > 0, -1.0, 1.0), 0.0)
    n = np.stack([nx, ny], axis=-1)
    return quadrants_of(x - nx, y - ny), quadrants_of(x + nx, y + ny), n


def derive_interface_data(case: ManufacturedCase, beta: float | None = None):
    """Interface fields induced by the exact solution via the balance relations.

    Returns ``(f_stress, f_n)`` callables that satisfy the normal-stress and
    normal-flux balances exactly at every interface point, using one-sided
    limits and the region-1 outer normal.
    """
    b = case.beta if beta is None else beta

    def f_stress(x, y):
        q1, q2, _ = _classify_interface(x, y)
        return case.p(x, y, q2) - case.p(x, y, q1)

    def f_n(x, y):
        q1, q2, n = _classify_interface(x, y)
        u1n = np.einsum("...d,...d->...", case.u(x, y, q1), n)
        u2n = np.einsum("...d,...d->...", case.u(x, y, q2), n)
        return u1n - u2n - b * case.p(x, y, q2)

    return f_stress, f_n


def _with_derived_interface(case: ManufacturedCase) -> ManufacturedCase:
    f_stress, f_n = derive_interface_data(case)
    return dataclasses.replace(case, f_stress=f_stress, f_n=f_n)


def _check_mode(mode, allowed, name):
    if mode not in allowed:
        raise ValueError(f"{name} supports interface modes {allowed}, got {mode!r}")


# -- case 1: smooth polynomial, coefficients equal to one --------------------

def _quintic(t):
    return t * (t * t - 1.0) ** 2


def _quintic_d1(t):
    return 5.0 * t**4 - 6.0 * t**2 + 1.0


def _quintic_d2(t):
    return 20.0 * t**3 - 12.0 * t


def _polynomial_forms():
    def p(x, y, q):
        return _quintic(x) * _quintic(y)

    def grad_p(x, y, q):
        return np.stack(
            [_quintic_d1(x) * _quintic(y), _quintic(x) * _quintic_d1(y)], axis=-1
        )

    def lap_p(x, y, q):
        return _quintic_d2(x) * _quintic(y) + _quintic(x) * _quintic_d2(y)

    return p, grad_p, lap_p


def example1(beta: float = 1.0) -> ManufacturedCase:
    """Continuous separable polynomial pressure; unit resistance everywhere."""
    p, grad_p, lap_p = _polynomial_forms()
    case = ManufacturedCase(
        name="example1", a1=1.0, a2=1.0, beta=beta, interface_mode="derived",
        p=p, grad_p=grad_p, lap_p=lap_p,
    )
    return _with_derived_interface(case)


# -- case 2: harmonic perturbation on Q4 ->  interface jumps ------------------

def example2(interface_mode: str = "derived", beta: float = 1.0) -> ManufacturedCase:
    """Pressure of case 1 plus a harmonic perturbation on quadrant Q4."""
    _check_mode(interface_mode, ("derived", "paper_literal"), "example2")
    p0, grad0, lap0 = _polynomial_forms()

    def p(x, y, q):
        pert = ((np.asarray(x) - 1.0) ** 2 - (np.asarray(y) + 1.0) ** 2) / 20.0
        return p0(x, y, q) + np.where(np.asarray(q) == 4, pert, 0.0)

    def grad_p(x, y, q):
        g = grad0(x, y, q)
        in4 = np.asarray(q) == 4
        gx = g[..., 0] + np.where(in4, (np.asarray(x) - 1.0) / 10.0, 0.0)
        gy = g[..., 1] + np.where(in4, -(np.asarray(y) + 1.0) / 10.0, 0.0)
        return np.stack([gx, gy], axis=-1)

    case = ManufacturedCase(
        name="example2", a1=1.0, a2=1.0, beta=beta, interface_mode=interface_mode,
        p=p, grad_p=grad_p, lap_p=lap0,  # the perturbation is harmonic
    )
    if interface_mode == "derived":
        return _with_derived_interface(case)

    def f_stress(x, y):
        q1, q2, _ = _classify_interface(x, y)
        on_q4_h = (q2 == 4) & (np.abs(np.asarray(y)) <= 1e-12)
        on_q4_v = (q2 == 4) & ~on_q4_h
        return (
            np.where(on_q4_h, ((np.asarray(x) - 1.0) ** 2 - 1.0) / 20.0, 0.0)
            + np.where(on_q4_v, (1.0 - (np.asarray(y) + 1.0) ** 2) / 20.0, 0.0)
        )

    def f_n(x, y):
        q1, q2, _ = _classify_interface(x, y)
        on_q4_h = (q2 == 4) & (np.abs(np.asarray(y)) <= 1e-12)
        on_q4_v = (q2 == 4) & ~on_q4_h
        return np.where(on_q4_h, (np.asarray(x) - 4.0) / 20.0, 0.0) + np.where(
            on_q4_v, (4.0 - np.asarray(y)) / 20.0, 0.0
        )

    return dataclasses.replace(case, f_stress=f_stress, f_n=f_n)


# -- case 3: resistance jump 1 vs 5 ------------------------------------------

def example3(interface_mode: str = "derived", beta: float = 1.0) -> ManufacturedCase:
    """Pressure of case 1 with resistance 1 on region 1 and 5 on region 2."""
    _check_mode(interface_mode, ("derived", "paper_literal"), "example3")
    p, grad_p, lap_p = _polynomial_forms()
    case = ManufacturedCase(
        name="example3", a1=1.0, a2=5.0, beta=beta, interface_mode=interface_mode,
        p=p, grad_p=grad_p, lap_p=lap_p,
    )
    if interface_mode == "derived":
        return _with_derived_interface(case)

    def f_stress(x, y):
        _classify_interface(x, y)
        return np.zeros_like(np.asarray(x, dtype=float))

    def f_n(x, y):
        _, _, n = _classify_interface(x, y)
        horizontal = np.abs(n[..., 1]) > 0.5
        return np.where(
            horizontal, 0.8 * np.asarray(x) * (np.asarray(x) ** 2 - 1.0) ** 2,
            0.8 * np.asarray(y) * (np.asarray(y) ** 2 - 1.0) ** 2,
        )

    return dataclasses.replace(case, f_stress=f_stress, f_n=f_n)


# -- case 4: trigonometric pressure, resistance jump, stored interface -------

def example4(interface_mode: str = "derived", beta: float = 1.0) -> ManufacturedCase:
    """Squared-sine pressure with resistance jump; optional constant flux data.

    In ``constant_projection`` mode the flux source is replaced by the
    constant -1/sqrt(2); the discrete solution then converges to the wrong
    limit and only relative-accuracy trends are meaningful.
    """
    _check_mode(interface_mode, ("derived", "constant_projection"), "example4")

    def s(t):
        return np.sin(0.5 * np.pi * (np.asarray(t) - 1.0)) ** 2

    def s1(t):
        return 0.5 * np.pi * np.sin(np.pi * (np.asarray(t) - 1.0))

    def s2(t):
        return 0.5 * np.pi**2 * np.cos(np.pi * (np.asarray(t) - 1.0))

    def p(x, y, q):
        return s(x) * s(y)

    def grad_p(x, y, q):
        return np.stack([s1(x) * s(y), s(x) * s1(y)], axis=-1)

    def lap_p(x, y, q):
        return s2(x) * s(y) + s(x) * s2(y)

    case = ManufacturedCase(
        name="example4", a1=1.0, a2=5.0, beta=beta, interface_mode=interface_mode,
        p=p, grad_p=grad_p, lap_p=lap_p,
    )
    if interface_mode == "derived":
        return _with_derived_interface(case)

    derived_stress, _ = derive_interface_data(case)

    def f_n(x, y):
        _classify_interface(x, y)
        return np.full_like(np.asarray(x, dtype=float), -1.0 / np.sqrt(2.0))

    return dataclasses.replace(case, f_stress=derived_stress, f_n=f_n)
