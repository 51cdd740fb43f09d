"""Exact solutions: barriers, quadratics, and the separating self-similar
profile.

Self-similar solutions of u_t = (det D^2 u)^p take the form

    u(x, t) = f(t) v(x / f(t)),      f(t) = ((1 + np)(T - t))^(1/(1+np)),

where the profile solves  y . grad v - v = (det D^2 v)^p.  For n >= 3 and
p > 1/(n-2) there is a profile with a persistent edge: writing y = (y', y_n)
and r = |y'|,

    v = phi(r) g(y_n / phi(r)),      phi(r) = C r^beta,
    beta = 2(n-1) / (n - 2 - 1/p),

with g convex, even, g(s) = |s| for |s| >= s_flat, so that v = |y_n| on a
region pinching down to the edge r = 0.  The profile function solves

    g'' (g - s g')^(n-1-1/p) = 1,

whose Legendre conjugate g* satisfies the autonomous ODE (g*)'' = |g*|^q
with q = n - 1 - 1/p on [-1, 1], g*(+-1) = 0.  That conjugate is obtained
by integrating w'' = |w|^q from w(0) = -1, w'(0) = 0 to its first zero
t_star and rescaling: with  a = t_star^(2/(q-1)),

    g*(xi) = a w(xi t_star),   so   g(0) = a,   s_flat = (g*)'(1).

The integration conserves  E = w'^2/2 + |w|^(q+1)/(q+1)  (for w <= 0),
which pins  (g*)'(1) exactly and serves as an accuracy check.

The constant C is fixed by the profile equation itself (the two sides
scale differently in C); it is found here by bisection and admits the
closed form  C = ((beta-1)^((1-p)/p) beta^(-(n-1)))^(1/(n-2-1/p)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# simple exact solutions and data factories: each returns the space-time
# function itself, called as ``fn(points, t)`` on points of shape (..., n)
# ---------------------------------------------------------------------------

def quadratic_solution(M, p: float, b0: float = 1.0,
                       const: float = 0.0) -> Callable:
    """u = x^T M x / 2 + const + (det M)^p b0 t, exact for b == b0."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    detM = float(np.linalg.det(M))
    if detM < 0:
        raise ValueError("quadratic_solution needs a positive semidefinite M")
    rate = b0 * detM ** p

    def fn(pts, t):
        quad = 0.5 * np.einsum("...i,ij,...j->...", pts, M, pts)
        return quad + const + rate * t

    return fn


def subsolution_barrier(n: int, p: float, Lam: float = 1.0) -> Callable:
    """w = m(t + c) + 2|x|^2 - 3/2 with m = Lam 4^(np), c = 1/(4m).

    Solves w_t = Lam (det D^2 w)^p exactly (det D^2 w = 4^n), hence is a
    subsolution whenever b <= Lam.  At the origin w(0, 0) = m c - 3/2 = -5/4.
    """
    m = Lam * 4.0 ** (n * p)
    c = 1.0 / (4.0 * m)

    def fn(pts, t):
        return m * (t + c) + 2.0 * np.einsum("...i,...i->...", pts, pts) - 1.5

    return fn


def supersolution_barrier(n: int, p: float, lam: float = 1.0) -> Callable:
    """w = (|x|^2 - 1)/2 + lam(t - C) with C = 1/lam.

    Solves w_t = lam (det D^2 w)^p exactly (det D^2 w = 1), hence is a
    supersolution whenever b >= lam.
    """
    C = 1.0 / lam

    def fn(pts, t):
        return 0.5 * (np.einsum("...i,...i->...", pts, pts) - 1.0) + lam * (t - C)

    return fn


def cone_data(slope: float = 1.0) -> Callable:
    """u0 = slope |x|: the vertex saturates the 1/(np+1) time rate."""
    def fn(pts, t):
        return slope * np.linalg.norm(pts, axis=-1)

    return fn


def crease_data(axis: int = -1, quad_coeff: float = 0.5) -> Callable:
    """u0 = |x_axis| + quad_coeff |x_rest|^2: an edge along a hyperplane."""
    def fn(pts, t):
        rest = np.delete(pts, axis % pts.shape[-1], axis=-1)
        return np.abs(pts[..., axis]) + quad_coeff * np.einsum(
            "...i,...i->...", rest, rest)

    return fn


def flat_disk_data(radius: float, slope: float = 1.0) -> Callable:
    """u0 = slope max(0, |x| - radius): flat on a disk, cone outside."""
    def fn(pts, t):
        return slope * np.maximum(np.linalg.norm(pts, axis=-1) - radius, 0.0)

    return fn


# ---------------------------------------------------------------------------
# the conjugate profile ODE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugateTable:
    """g* and (g*)' tabulated on a uniform xi grid over [0, 1].

    Built by integrating w'' = |w|^q from w(0) = -1, w'(0) = 0 with a
    fixed-step RK4 scheme to the first zero t_star, then rescaling
    g*(xi) = a w(xi t_star) with a = t_star^(2/(q-1)).
    """

    q: float
    xi: np.ndarray
    gstar: np.ndarray
    gstar_prime: np.ndarray
    a: float                 # profile depth g(0) = -min g*
    t_star: float
    energy_drift: float      # max |E(t) - E(0)| along the trajectory
    rk_step: float

    @property
    def s_flat(self) -> float:
        return float(self.gstar_prime[-1])


def solve_conjugate(q: float, rk_step: float = 4e-4,
                    n_tab: int = 2501) -> ConjugateTable:
    """Integrate the conjugate ODE and return rescaled uniform tables."""
    if q <= 1.0:
        raise ValueError("subcritical exponent, construction invalid (beta <= 1): "
                         f"needs q = n - 1 - 1/p > 1, got q = {q}")
    f = lambda w: abs(w) ** q
    w, wp, t = -1.0, 0.0, 0.0
    ts, ws, wps = [t], [w], [wp]
    dt = float(rk_step)
    while w < 0.0:
        k1w, k1p = wp, f(w)
        k2w, k2p = wp + 0.5 * dt * k1p, f(w + 0.5 * dt * k1w)
        k3w, k3p = wp + 0.5 * dt * k2p, f(w + 0.5 * dt * k2w)
        k4w, k4p = wp + dt * k3p, f(w + dt * k3w)
        w += dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        wp += dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        t += dt
        ts.append(t)
        ws.append(w)
        wps.append(wp)
        if t > 1e3:
            raise RuntimeError("conjugate ODE failed to reach zero")
    ts = np.asarray(ts)
    ws = np.asarray(ws)
    wps = np.asarray(wps)
    # energy E = w'^2/2 + |w|^(q+1)/(q+1) is conserved while w <= 0
    neg = ws <= 0.0
    E = 0.5 * wps[neg] ** 2 + np.abs(ws[neg]) ** (q + 1.0) / (q + 1.0)
    drift = float(np.max(np.abs(E - E[0])))
    # locate the first zero by linear interpolation of the last bracket
    t_star = ts[-2] + (0.0 - ws[-2]) / (ws[-1] - ws[-2]) * (ts[-1] - ts[-2])
    a = t_star ** (2.0 / (q - 1.0))
    xi = np.linspace(0.0, 1.0, n_tab)
    gstar = a * np.interp(xi * t_star, ts, ws)
    gstar_prime = a * t_star * np.interp(xi * t_star, ts, wps)
    gstar[-1] = 0.0  # pin the endpoint: g*(1) = 0 by construction
    return ConjugateTable(q=q, xi=xi, gstar=gstar, gstar_prime=gstar_prime,
                          a=float(a), t_star=float(t_star),
                          energy_drift=drift, rk_step=dt)


# ---------------------------------------------------------------------------
# the self-similar profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfSimilarProfile:
    n: int
    p: float
    q: float
    beta: float
    C: float
    table: ConjugateTable

    @property
    def s_flat(self) -> float:
        return self.table.s_flat

    @property
    def depth(self) -> float:
        """g(0): the centerline of v sits at v(r, 0) = depth * phi(r)."""
        return self.table.a

    def phi(self, r):
        return self.C * np.power(r, self.beta)

    def f_scale(self, t, T: float) -> np.ndarray:
        """The similarity scale f(t) = ((1+np)(T-t))^(1/(1+np))."""
        rem = T - np.asarray(t, dtype=float)
        if np.any(rem <= 0.0):
            raise ValueError("time at or beyond the extinction horizon T")
        k = 1.0 + self.n * self.p
        return np.power(k * rem, 1.0 / k)

    # -- profile function g and its pieces ---------------------------------

    def g_eval(self, s, derivatives: bool = False):
        """g(s) (and optionally g', g'') from the conjugate tables.

        For |s| < s_flat:  g(s) = s xi* - g*(xi*) with (g*)'(xi*) = |s|,
        g'' = 1/(g*)''(xi*); (g*)'' comes from table differencing, not from
        the ODE right-hand side, so residual checks stay independent.
        For |s| >= s_flat:  g(s) = |s| exactly.
        """
        tab = self.table
        sa = np.abs(np.asarray(s, dtype=float))
        sgn = np.sign(np.asarray(s, dtype=float))
        core = sa < tab.s_flat
        g = sa.copy()
        gp = sgn.copy()
        gpp = np.zeros_like(sa)
        if np.any(core):
            xistar = np.interp(sa[core], tab.gstar_prime, tab.xi)
            gstar = np.interp(xistar, tab.xi, tab.gstar)
            g[core] = sa[core] * xistar - gstar
            gp[core] = xistar * sgn[core]
            if derivatives:
                gspp = np.gradient(tab.gstar_prime, tab.xi[1] - tab.xi[0])
                gpp[core] = 1.0 / np.interp(xistar, tab.xi, gspp)
        if derivatives:
            return g, gp, gpp
        return g

    # -- profile v ----------------------------------------------------------

    def v(self, r, yn) -> np.ndarray:
        """v(y) for r = |y'| and y_n; v = |y_n| wherever the graph is flat."""
        r = np.asarray(r, dtype=float)
        yn = np.asarray(yn, dtype=float)
        ph = self.phi(np.abs(r))
        out = np.abs(yn).astype(float)
        inside = ph > 0.0
        if np.any(inside):
            s = np.zeros_like(out)
            np.divide(yn, ph, out=s, where=inside)
            core = inside & (np.abs(s) < self.s_flat)
            if np.any(core):
                out[core] = ph[core] * self.g_eval(s[core])
        return out

    def eval(self, points: np.ndarray, t, T: float) -> np.ndarray:
        """u(x, t) = f(t) v(x / f(t)) for points of shape (..., n), or (..., 2)
        in reduced (r, x_n) coordinates: n >= 3 tells the two apart."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] not in (2, self.n):
            raise ValueError(f"points must have {self.n} or 2 components")
        f = self.f_scale(t, T)
        y = pts / f
        r = np.linalg.norm(y[..., :-1], axis=-1)
        return f * self.v(r, y[..., -1])


def coefficient_closed_form(n: int, p: float) -> float:
    beta = 2.0 * (n - 1.0) / (n - 2.0 - 1.0 / p)
    return ((beta - 1.0) ** ((1.0 - p) / p) * beta ** (-(n - 1.0))) \
        ** (1.0 / (n - 2.0 - 1.0 / p))


def _scalar_equation_mismatch(n: int, p: float, beta: float, C: float) -> float:
    """lhs - rhs of the coefficient equation.

    Substituting v = phi g(y_n/phi), phi = C r^beta, into the profile
    equation gives lhs = phi (beta-1)(g - s g') while the determinant side
    factorizes as ((phi'/r)^(n-2) phi''/phi)^p (g''(g - s g')^(n-1))^p; the
    profile ODE g''(g - s g')^(n-1-1/p) = 1 turns the g-part into exactly
    (g - s g'), so every s-dependent factor cancels and what remains is

        C (beta - 1) = (C^(n-2) beta^(n-1) (beta - 1))^p.
    """
    return C * (beta - 1.0) - (C ** (n - 2) * beta ** (n - 1.0)
                               * (beta - 1.0)) ** p


def build_profile(n: int, p: float, rk_step: float = 4e-4,
                  n_tab: int = 2501) -> SelfSimilarProfile:
    """Construct the separating profile for n >= 3, p > 1/(n-2).

    The coefficient C is found by bisection on the scalar coefficient
    equation (its left side scales like C, its right side like C^((n-2)p)
    with (n-2)p > 1, so there is exactly one positive crossing).
    """
    if n < 3:
        raise ValueError("the separating profile needs n >= 3")
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"the separating profile needs a positive, finite "
                         f"p, got p={p}")
    denom = n - 2.0 - 1.0 / p
    if denom <= 0.0:
        raise ValueError(
            "subcritical exponent, construction invalid (beta <= 1): "
            f"needs p > 1/(n-2), got n={n}, p={p}")
    q = n - 1.0 - 1.0 / p
    beta = 2.0 * (n - 1.0) / denom
    table = solve_conjugate(q, rk_step=rk_step, n_tab=n_tab)
    # lhs ~ C dominates as C -> 0 and rhs ~ C^((n-2)p) dominates as C -> inf,
    # so a wide enough bracket always straddles the crossing; near-critical
    # exponents push C far from 1, hence the expanding search
    lo, hi = 1e-4, 1e4
    while _scalar_equation_mismatch(n, p, beta, lo) <= 0.0 and lo > 1e-280:
        lo *= lo
    while _scalar_equation_mismatch(n, p, beta, hi) >= 0.0 and hi < 1e280:
        hi *= hi
    flo = _scalar_equation_mismatch(n, p, beta, lo)
    fhi = _scalar_equation_mismatch(n, p, beta, hi)
    if flo == 0.0 or fhi == 0.0 or (flo < 0) == (fhi < 0):
        raise RuntimeError("coefficient bisection failed to bracket")
    for _ in range(400):
        mid = math.sqrt(lo * hi)
        fm = _scalar_equation_mismatch(n, p, beta, mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-15:
            break
    C = math.sqrt(lo * hi)
    return SelfSimilarProfile(n=n, p=p, q=q, beta=beta, C=C, table=table)


# ---------------------------------------------------------------------------
# profile residual (independent check of the tabulated construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    where: tuple[float, float]        # (r, y_n) of the worst point


def profile_residual(profile: SelfSimilarProfile) -> ResidualReport:
    """Max-norm residual of y.grad v - v = ((v_r/r)^(n-2) det2 D^2 v)^p on a
    fixed 400 x 400 (r, s) product grid, r in [0.05, 1.5] and
    |s| <= 1.2 s_flat, following the core region |y_n| < s_flat phi
    (y_n = s phi).

    All derivatives of v come from the tabulated g and its table-differenced
    second derivative; the flat region solves the equation exactly (both
    sides vanish) and contributes zeros.
    """
    n, p = profile.n, profile.p
    r = np.linspace(0.05, 1.5, 400)
    s = np.linspace(-1.2, 1.2, 400) * profile.s_flat
    R, S = np.meshgrid(r, s, indexing="ij")
    ph = profile.phi(R)
    php = profile.C * profile.beta * R ** (profile.beta - 1.0)
    phpp = profile.C * profile.beta * (profile.beta - 1.0) * R ** (profile.beta - 2.0)
    out = np.zeros_like(R)
    core = np.abs(S) < profile.s_flat
    g, gp, gpp = profile.g_eval(S[core], derivatives=True)
    gmsgp = g - S[core] * gp                  # g - s g' = -g*(xi*)
    phc, phpc, phppc = ph[core], php[core], phpp[core]
    vr = phpc * gmsgp
    vn = gp
    vrr = phppc * gmsgp + (phpc ** 2 / phc) * S[core] ** 2 * gpp
    vrn = -(phpc / phc) * S[core] * gpp
    vnn = gpp / phc
    lhs = R[core] * vr + (S[core] * phc) * vn - phc * g
    block = np.maximum(vrr * vnn - vrn ** 2, 0.0)
    rhs = (np.maximum(vr / R[core], 0.0) ** (n - 2) * block) ** p
    out[core] = np.abs(lhs - rhs)
    k = int(np.argmax(out))
    ij = np.unravel_index(k, out.shape)
    return ResidualReport(max_residual=float(out.max()),
                          where=(float(R[ij]), float(S[ij] * ph[ij])))
