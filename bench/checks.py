"""Correctness checks computed apart from pma_lab.

Each check takes plain arrays (values, positions, matrices) and returns a
``(passed, detail)`` pair.  None of them calls the program or compares with
a stored copy of its output: they rest on closed forms worked out here
(quadratics, the Legendre dual of a quadratic, a ball inside a hull) or on
properties the method must have (F >= 0, monotone steps, symmetry).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull


def nondecreasing(frames, mask) -> tuple[bool, str]:
    """Values on ``mask`` never fall between consecutive frames nor below
    the first one.  Exact: u + dt F with F >= 0 cannot decrease in floating
    point."""
    first = frames[0][mask]
    worst_step = worst_start = math.inf
    for prev, cur in zip(frames, frames[1:]):
        worst_step = min(worst_step, float(np.min(cur[mask] - prev[mask])))
        worst_start = min(worst_start, float(np.min(cur[mask] - first)))
    ok = worst_step >= 0.0 and worst_start >= 0.0
    return ok, (f"min step change {worst_step:.3e}, "
                f"min change from start {worst_start:.3e}")


def square_maps():
    """The 8 symmetries of the square acting on a square 2-D lattice array."""
    out = []
    for transpose in (False, True):
        for flip0 in (False, True):
            for flip1 in (False, True):
                def m(a, t=transpose, f0=flip0, f1=flip1):
                    a = a.T if t else a
                    a = a[::-1] if f0 else a
                    return a[:, ::-1] if f1 else a
                out.append(m)
    return out


def crease_maps():
    """Reflections of each axis and the swap x_1 <-> x_2 on a 3-D array."""
    return [lambda a: a[::-1], lambda a: a[:, ::-1], lambda a: a[:, :, ::-1],
            lambda a: np.swapaxes(a, 0, 1)]


def symmetric(values: np.ndarray, maps, tol: float) -> tuple[bool, str]:
    """``values`` equals its image under every map to ``tol`` (NaN = NaN)."""
    worst = 0.0
    for m in maps:
        img = m(values)
        if not np.array_equal(np.isnan(values), np.isnan(img)):
            return False, "exterior pattern breaks the symmetry"
        worst = max(worst, float(np.nanmax(np.abs(values - img))))
    return worst <= tol, f"max asymmetry {worst:.3e} (tol {tol:.0e})"


def risen(u0: np.ndarray, u1: np.ndarray, mask, threshold: float
          ) -> tuple[bool, str]:
    """Every node of ``mask`` rose above its start by more than threshold."""
    rise = float(np.min(u1[mask] - u0[mask]))
    return rise > threshold, f"min rise {rise:.3e} (> {threshold:.3e})"


def ordered(lower: np.ndarray, upper: np.ndarray, mask, tol: float = 1e-10
            ) -> tuple[bool, str]:
    gap = float(np.max(lower[mask] - upper[mask]))
    return gap <= tol, f"max(lower - upper) {gap:.3e} (tol {tol:.0e})"


def quadratic_flow(pts: np.ndarray, M: np.ndarray, p: float, t: float):
    """1/2 x'Mx + t (det M)^p at each row of pts: the exact flow of a
    quadratic under u_t = (det D^2 u)^p."""
    rate = float(np.linalg.det(M)) ** p
    return 0.5 * np.einsum("ij,jk,ik->i", pts, M, pts) + rate * t


def matches(got: np.ndarray, want: np.ndarray, tol: float
            ) -> tuple[bool, str]:
    err = float(np.max(np.abs(got - want)))
    return err <= tol, f"max error {err:.3e} (tol {tol:.0e})"


def centre_kept(rise: float, eps: float) -> tuple[bool, str]:
    return rise <= eps, f"centre rise {rise:.3e} (<= {eps:.3e})"


def ellipsoid_in_hull(points: np.ndarray, center: np.ndarray,
                      shape: np.ndarray, tol: float = 1e-9) -> dict:
    """Three checks of an inscribed ellipsoid {c + M^(1/2) z : |z| <= 1}
    against the convex hull of ``points``, recomputed here.

    The support of the ellipsoid in a facet normal a is a.c + sqrt(a'Ma);
    it must not pass the facet (inside), one facet must be within ``tol``
    (touches), and the volume must be at least that of the largest ball
    about c inside the hull (that ball is itself an admissible ellipsoid).
    """
    hull = ConvexHull(points)
    a, b = hull.equations[:, :-1], -hull.equations[:, -1]
    reach = a @ center + np.sqrt(np.einsum("ij,jk,ik->i", a, shape, a)) - b
    n = len(center)
    radius = float(np.min(b - a @ center))
    unit = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    vol = unit * math.sqrt(max(float(np.linalg.det(shape)), 0.0))
    ball = unit * radius ** n
    over, gap = float(np.max(reach)), float(-np.max(reach))
    return {
        "inside": (over <= tol, f"max overshoot {over:.3e} (tol {tol:.0e})"),
        "touches": (gap <= tol, f"closest facet gap {gap:.3e} (tol {tol:.0e})"),
        "volume": (vol >= ball * (1 - 1e-12),
                   f"volume / inscribed-ball volume - 1 = {vol / ball - 1:.3e}"),
    }


def fenchel_young(pts: np.ndarray, vals: np.ndarray, xi: np.ndarray,
                  star: np.ndarray, argmax: np.ndarray) -> tuple[bool, str]:
    """For each dual node, a plain loop over all primal nodes finds no node
    with xi.x - u(x) above the returned value, and the returned maximiser
    attains it."""
    rows = [(list(map(float, x)), float(v)) for x, v in zip(pts, vals)]
    at = {tuple(map(float, x)): v for x, v in rows}
    worst = 0.0
    for q, s, arg in zip(xi, star, argmax):
        q = list(map(float, q))
        best = -math.inf
        for x, v in rows:
            best = max(best, sum(qi * xi_ for qi, xi_ in zip(q, x)) - v)
        attained = sum(qi * ai for qi, ai in zip(q, map(float, arg))) \
            - at[tuple(map(float, arg))]
        worst = max(worst, best - float(s), abs(attained - float(s)))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    return worst <= tol, f"worst excess over the returned value {worst:.3e}"


def quadratic_dual(xi: np.ndarray, star: np.ndarray, M: np.ndarray,
                   box: float, h: float) -> tuple[bool, str]:
    """Sampled dual of 1/2 x'Mx against 1/2 xi'M^-1 xi.

    Where the maximiser x* = M^-1 xi lies in [-box, box]^n, a lattice node
    sits within h/2 of it in each coordinate, so the sampled maximum falls
    short of the exact one by at most lambda_max(M) n h^2 / 8, and never
    exceeds it.
    """
    n = M.shape[0]
    xs = np.linalg.solve(M, xi.T).T
    inside = np.all(np.abs(xs) <= box, axis=1)
    exact = 0.5 * np.einsum("ij,ij->i", xi[inside], xs[inside])
    short = exact - star[inside]
    bound = float(np.max(np.linalg.eigvalsh(M))) * n * h * h / 8.0
    lo, hi = float(np.min(short)), float(np.max(short))
    ok = bool(inside.sum()) and lo >= -1e-12 and hi <= bound + 1e-12
    return ok, (f"exact - sampled in [{lo:.3e}, {hi:.3e}] over "
                f"{int(inside.sum())} nodes (bound {bound:.3e})")


def csv_values(path, want: np.ndarray) -> tuple[bool, str]:
    """The value column of a written snapshot equals the snapshot."""
    with open(path) as f:
        lines = f.read().splitlines()[3:]
    got = np.array([float(ln.rsplit(",", 1)[1]) for ln in lines])
    if got.shape != want.shape:
        return False, f"{len(got)} rows for {len(want)} nodes"
    bad = int(np.sum(got != want))
    return bad == 0, f"{bad} of {len(got)} rows differ"


def same_members(got: np.ndarray, want: np.ndarray, what: str
                 ) -> tuple[bool, str]:
    """Two sets of lattice indices, given as (k, n) arrays, are equal."""
    a = {tuple(r) for r in np.asarray(got).tolist()}
    b = {tuple(r) for r in np.asarray(want).tolist()}
    return a == b, f"{len(a)} {what}, {len(a ^ b)} differ"


def first_crossings(frames, times, mask, eps: float) -> np.ndarray:
    """First time each node of ``mask`` rose more than eps (NaN if never)."""
    base = frames[0][mask]
    first = np.full(base.shape, np.nan)
    for vals, t in zip(frames[1:], times[1:]):
        first[np.isnan(first) & (vals[mask] - base > eps)] = t
    return first


def first_failure(results) -> tuple[bool, str]:
    """Fold several (passed, detail) results: the first failure, else the
    last result."""
    last = (False, "nothing to check")
    for last in results:
        if not last[0]:
            return last
    return last
