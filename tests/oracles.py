"""Formulas written out for the tests: the flow's textbook right-hand side,
the integrator's own stage forcing evaluated at one state, and the
three-point identity of Bregman divergences."""

import numpy as np

import agflow as ag
from agflow import dynamics, schedules


def flow_rhs(family, grad_f, grad_h, hessian_solve):
    """xdot = e^alpha (z - x),
    hess_h(z) zdot = -K (grad h(z) - grad h(x)) - e^(alpha - eta) grad f(t, x),
    with K = delta_dot + eta_dot - alpha_dot - e^alpha."""

    def rhs(t, x, z):
        s = family.sample(t)
        ea = np.exp(s.alpha)
        K = s.delta_dot + s.eta_dot - s.alpha_dot - ea
        group = -K * (grad_h(z) - grad_h(x)) - np.exp(s.alpha - s.eta) * grad_f(t, x)
        return ea * (z - x), hessian_solve(z, group)

    return rhs


def stage_rhs(h, f, s, x, z):
    """(xdot, zdot) at one state from the integrator's stage forcing
    (`dynamics._stage_forcing`) at the sample s: xdot = e^alpha d and
    zdot = -kappa d + F, with d = z - x."""
    ea, K, ema = schedules.flow_coefficients(s)
    kappa, scale, raw = dynamics._stage_forcing(h, lambda x, j: f.gradient(x), np.array([K]), np.array([ema]), 0)
    d = z - x
    return ea * d, -scale[0] * raw(0, x, d) - kappa[0] * d


def three_point_residual(h, x1, x2, x3) -> float:
    """|[grad h(x2) - grad h(x3)]^T (x1 - x2) - (-D_h(x1,x2) + D_h(x1,x3) - D_h(x2,x3))|,
    zero in exact arithmetic for any h, with D_h from `bregman_div`."""
    rhs = -ag.bregman_div(h, x1, x2) + ag.bregman_div(h, x1, x3) - ag.bregman_div(h, x2, x3)
    return abs(float((h.gradient(x2) - h.gradient(x3)) @ (x1 - x2)) - rhs)
