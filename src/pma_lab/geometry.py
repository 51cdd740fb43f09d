"""Convex geometry of sampled functions: sections, ellipsoids, conjugates.

A *section* of a convex sample ``u`` at base node ``x0``, height ``h`` and
slope ``p`` is the lattice sub-level set

    S = { y active : u(y) <= u(x0) + p.(y - x0) + h }.

``centered_section`` tilts the slope until the section's center of mass
coincides with the base node, by a damped fixed point: a slope increment
``dp`` shifts the sub-level set roughly by ``dp * rbar^2 / (2 h)`` (the
section has curvature scale ``2 h / rbar^2``), so the update

    p <- p - kappa * (2 h / rbar^2) * (x* - x0)

with the safety factor ``kappa = 0.5`` contracts toward the centered slope.

``john_ellipsoid`` computes the maximum-volume ellipsoid with a *given*
center inscribed in the convex hull of a node set.  With hull facets
``a_i . x <= b_i`` and center ``c`` (slack ``d_i = b_i - a_i . c > 0``), an
ellipsoid ``E = { c + M^{1/2} z : |z| <= 1 }`` fits iff
``a_i' M a_i <= d_i^2``; maximising ``log det M`` under these constraints is,
after scaling ``z_i = a_i / d_i``, exactly the centered minimum-volume-
enclosing-ellipsoid problem for the points ``z_i``.  Its Lagrangian dual is a
determinant maximisation over facet weights, solved here by the
Wolfe-Atwood / Todd-Yildirim iteration (Todd & Yildirim, Discrete Appl. Math.
155, 2007): toward steps move weight onto the most violated facet, away
steps take it off the least loaded facet in the support, and a weight whose
away step reaches zero is dropped exactly.  The iteration stops only when
both sides of the optimality condition hold to ``tol = 1e-10`` (no facet
loaded above ``n (1 + tol)``, none in the support below ``n (1 - tol)``); a
final exact rescale restores feasibility, so the returned ellipsoid is
always inscribed and its ``log det`` is within ``n log(1 + tol)`` of the
optimum.  ``tol`` stays at 1e-10 because rounding in the facet loads puts a
floor near 1e-11 under the two-sided test on some hulls.  The ellipsoid
records the iteration count and that gap; a solve that reaches the
iteration cap raises ``RuntimeError`` instead of returning a shape.

``balancedness`` normalises a node set by the inscribed ellipsoid centered at
a base point: the witnessing map ``A = M^{-1/2}`` sends the set between the
unit ball and the ball of radius ``d = max |A (y - x0)|``.

``legendre`` evaluates the convex conjugate ``u*(xi) = max_x (xi.x - u(x))``
over the sampled nodes onto a dual lattice.  Both lattices are boxes of
axis-aligned nodes, so the maximum separates by axis,

    max_x (xi.x - u) = max_{x_1} (xi_1 x_1 + max_{x_2} (xi_2 x_2 - u))

in 2-D (Lucet, Numer. Algorithms 16, 1997), and it is taken as one 1-D
maximum per axis over the whole lattice.  With ``m`` primal and ``K``
dual nodes per axis, pass ``d`` evaluates ``K^(d+1) m^(n-d)`` candidates,
against ``K^n m^n`` for the dense search over every (dual, primal) pair.
They are held in blocks of whole dual rows along axis ``d``, at most
``LEGENDRE_BLOCK`` candidates per block (or one row, where a row alone is
larger), so a pass never holds the (dual x lattice) candidate array.
Inactive primal nodes count as ``u = +inf``, and ties go to the first
maximiser along each axis.  ``flat_set`` extracts the contact set of a
supporting affine function together with its extremal points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from math import gamma, nan, pi

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .grid import Domain, GridFunction, build_domain, gradient_field, \
    write_table

__all__ = [
    "BalancednessCertificate",
    "Ellipsoid",
    "FlatSet",
    "LegendreTransform",
    "Section",
    "balancedness",
    "centered_section",
    "flat_set",
    "john_ellipsoid",
    "legendre",
    "save_ellipsoid",
    "save_section",
    "section_at",
    "unit_ball_volume",
]


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Section:
    """Sub-level set of a convex sample below a tilted plane."""

    domain: Domain
    base_point: np.ndarray
    height: float
    slope: np.ndarray
    indices: np.ndarray           # (k, n) lattice indices of member nodes
    t: float
    touches_boundary: bool        # any member lies in the boundary band

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def positions(self) -> np.ndarray:
        return self.domain.coordinates(self.indices)

    @property
    def center_of_mass(self) -> np.ndarray:
        return self.positions.mean(axis=0)


def _base_node(u: GridFunction, base_point) -> tuple[tuple[int, ...], np.ndarray]:
    dom = u.domain
    x0 = np.asarray(base_point, dtype=float).reshape(dom.n)
    bad = f"base point {tuple(map(float, x0))} is not an active lattice node"
    try:
        idx = dom.index_of(x0)
    except ValueError:
        raise ValueError(bad)
    snapped = dom.coordinates(idx)
    if (dom.classes[idx] == 0
            or np.max(np.abs(snapped - x0)) > 0.5 * dom.h_grid):
        raise ValueError(bad)
    return idx, snapped


def section_at(u: GridFunction, base_point, height: float,
               slope=None) -> Section:
    """Member nodes of the sub-level set at a given height and slope.

    Membership uses ``<=`` with the relative tolerance 1e-9 so nodes landing
    exactly on the cutting plane are kept.  Raises if the section is empty
    (height below what the grid can resolve) and flags, without raising,
    sections that reach the boundary band.
    """
    if height <= 0:
        raise ValueError("section height must be positive")
    dom = u.domain
    idx0, x0 = _base_node(u, base_point)
    p = (np.zeros(dom.n) if slope is None
         else np.asarray(slope, dtype=float).reshape(dom.n))
    u0 = float(u.values[idx0])
    plane = u0 + height
    for d, g in enumerate(dom.grids()):
        plane = plane + p[d] * (g - x0[d])
    tol = 1e-9 * max(1.0, abs(u0) + abs(height))
    with np.errstate(invalid="ignore"):
        member = dom.active_mask() & (u.values <= plane + tol)
    indices = np.argwhere(member)
    if len(indices) == 0:
        raise ValueError(
            f"empty section: height {height:g} is below the grid resolution "
            f"at base point {tuple(map(float, x0))}")
    touches = bool(np.any(member & dom.band_mask()))
    return Section(domain=dom, base_point=x0, height=float(height), slope=p,
                   indices=indices, t=u.t, touches_boundary=touches)


def _node_gradient(u: GridFunction, idx: tuple[int, ...]) -> np.ndarray:
    """Central-difference gradient at one node, one-sided near missing data."""
    dom = u.domain
    g = np.zeros(dom.n)
    for ax in range(dom.n):
        lo = list(idx)
        hi = list(idx)
        lo[ax] -= 1
        hi[ax] += 1
        has_lo = lo[ax] >= 0 and dom.classes[tuple(lo)] != 0
        has_hi = hi[ax] < dom.shape[ax] and dom.classes[tuple(hi)] != 0
        if has_lo and has_hi:
            g[ax] = (u.values[tuple(hi)] - u.values[tuple(lo)]) / (2 * dom.h_grid)
        elif has_hi:
            g[ax] = (u.values[tuple(hi)] - u.values[idx]) / dom.h_grid
        elif has_lo:
            g[ax] = (u.values[idx] - u.values[tuple(lo)]) / dom.h_grid
    return g


def centered_section(u: GridFunction, base_point, height: float,
                     max_iter: int = 200) -> Section:
    """Section whose center of mass lies within ``2 h_grid`` of the base node.

    The slope starts at the discrete gradient and is adjusted by the damped
    fixed point described in the module docstring.  Sections reaching the
    boundary band are not centered (the sub-level set is then truncated by
    the domain and its center of mass is meaningless).
    """
    dom = u.domain
    idx0, x0 = _base_node(u, base_point)
    p = _node_gradient(u, idx0)
    goal = 2.0 * dom.h_grid
    best = np.inf
    sec = None
    for _ in range(max_iter):
        sec = section_at(u, x0, height, p)
        if sec.touches_boundary:
            raise ValueError(
                "section touches the boundary band; centering not attempted")
        res = sec.center_of_mass - x0
        r = float(np.linalg.norm(res))
        best = min(best, r)
        if r <= goal:
            return sec
        rbar2 = float(np.mean(np.sum((sec.positions - x0) ** 2, axis=1)))
        stiffness = 2.0 * height / max(rbar2, 1e-30)
        p = p - 0.5 * stiffness * res
    raise ValueError(
        f"centering failed: best center-of-mass residual {best:.3g} exceeds "
        f"{goal:.3g} after {max_iter} iterations")


# ---------------------------------------------------------------------------
# inscribed ellipsoids
# ---------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class Ellipsoid:
    """``{ x : (x - center)' M^{-1} (x - center) <= 1 }`` with SPD ``M``.

    ``iterations`` and ``gap`` record the solver run that produced the shape
    (see ``_max_volume_shape``); ``gap`` is NaN for an ellipsoid built by
    hand.
    """

    center: np.ndarray
    shape_matrix: np.ndarray
    volume: float
    iterations: int = 0
    gap: float = nan

    @staticmethod
    def from_shape(center, shape_matrix) -> "Ellipsoid":
        c = np.asarray(center, dtype=float).reshape(-1)
        m = np.asarray(shape_matrix, dtype=float).reshape(len(c), len(c))
        m = 0.5 * (m + m.T)
        ev = np.linalg.eigvalsh(m)
        if ev[0] <= 0:
            raise ValueError("shape matrix must be symmetric positive definite")
        vol = unit_ball_volume(len(c)) * float(np.sqrt(np.prod(ev)))
        return Ellipsoid(center=c, shape_matrix=m, volume=vol)

    def validate(self) -> None:
        vol = unit_ball_volume(len(self.center)) * float(
            np.sqrt(np.linalg.det(self.shape_matrix)))
        if not np.isclose(vol, self.volume, rtol=1e-10, atol=0.0):
            raise ValueError("stored volume does not match the shape matrix")

    def inverse_sqrt(self) -> np.ndarray:
        """The linear map sending the ellipsoid (about its center) to B_1."""
        w, v = np.linalg.eigh(self.shape_matrix)
        return (v / np.sqrt(w)) @ v.T


def _point_array(set_like) -> np.ndarray:
    if isinstance(set_like, Section):
        return set_like.positions
    pts = np.asarray(set_like, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _hull_facets(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facet inequalities ``a_i . x <= b_i`` of the convex hull."""
    n = pts.shape[1]
    if n == 1:
        x = pts[:, 0]
        return np.array([[1.0], [-1.0]]), np.array([x.max(), -x.min()])
    hull = ConvexHull(pts)
    return hull.equations[:, :-1], -hull.equations[:, -1]


def _max_volume_shape(normals: np.ndarray, slack: np.ndarray, n: int,
                      tol: float = 1e-10, max_iter: int = 100000
                      ) -> tuple[np.ndarray, int, float]:
    """Maximise ``log det M`` subject to ``a_i' M a_i <= d_i^2``.

    Returns ``(M, iterations, gap)``.  With ``z_i = a_i / d_i`` the optimal
    ``M`` is ``(n X)^{-1}`` where ``X = sum w_i z_i z_i'`` and the weights
    solve ``max log det X`` over the simplex; at the optimum
    ``g_i = z_i' X^{-1} z_i`` equals ``n`` on the support of ``w`` and is at
    most ``n`` elsewhere (``sum w_i g_i = n`` always).  Each iteration of the
    Wolfe-Atwood / Todd-Yildirim scheme takes the larger of two violations:

    * toward step onto ``j = argmax g``: ``w <- (1 - a) w + a e_j`` with the
      exact line-search step ``a = (g_j - n) / (n (g_j - 1))``;
    * away step off ``k = argmin g`` over the support:
      ``w <- (1 + a) w - a e_k`` with
      ``a = min((n - g_k) / (n (g_k - 1)), w_k / (1 - w_k))``.  When
      ``g_k <= 1`` the objective rises all the way to the cap, and at the cap
      ``w_k`` is set to exactly 0 (a drop step).  Without exact drops
      rounding leaves ``w_k`` a tiny positive weight that keeps the
      support-side gap open and the iteration stalls.

    Toward-only iterations (Khachiyan) take weight off facets that the
    optimum does not touch only through the common factor ``1 - a``, which
    tends to 1 as the steps shrink; the away and drop steps let the support
    shrink to the contact facets, after which convergence is fast.

    The loop stops only when both sides are met: ``max g <= n (1 + tol)`` and
    ``min over w > 0 of g >= n (1 - tol)``.  The closing exact rescale then
    makes the largest ``z_i' M z_i`` equal to 1, so ``M`` is feasible, and
    weak duality (``tr(M X) <= 1``) bounds its shortfall from the optimal
    ``log det`` by ``gap = n log(max g / n) <= n log(1 + tol)``.  ``tol``
    is not tighter because rounding in ``g`` leaves a floor near 1e-11 under
    one side or the other on some hulls: at 1e-12 about 1 % of random 2-D
    and 3-D hulls never meet the test.  Raises ``RuntimeError`` naming the
    iteration count and both gaps after ``max_iter`` iterations without
    convergence.
    """
    z = normals / slack[:, None]
    w = np.full(len(z), 1.0 / len(z))
    gap = down = np.inf
    for it in range(max_iter):
        xinv = np.linalg.inv((z * w[:, None]).T @ z)
        g = np.einsum("ij,jk,ik->i", z, xinv, z)
        j = int(np.argmax(g))
        support = np.flatnonzero(w > 0.0)
        k = int(support[np.argmin(g[support])])
        up, down = g[j] / n - 1.0, 1.0 - g[k] / n
        gap = n * float(np.log1p(up))
        if up <= tol and down <= tol:
            m = xinv / n
            scale = float(np.max(np.einsum("ij,jk,ik->i", z, m, z)))
            return m / scale, it, gap
        if up >= down:
            a = (g[j] - n) / (n * (g[j] - 1.0))
            w *= 1.0 - a
            w[j] += a
        else:
            cap = w[k] / (1.0 - w[k])
            a = cap if g[k] <= 1.0 else min((n - g[k]) / (n * (g[k] - 1.0)),
                                             cap)
            w *= 1.0 + a
            w[k] = 0.0 if a == cap else w[k] - a
    raise RuntimeError(
        f"John ellipsoid solver did not converge in {max_iter} iterations: "
        f"log-det gap {gap:.3e}, support gap {down:.3e} (tol {tol:.0e})")


def john_ellipsoid(node_set, center) -> Ellipsoid:
    """Maximum-volume ellipsoid with the given center inside the node hull.

    Accepts a Section or an ``(N, n)`` array of points.  Raises
    ``ValueError("flat set, no interior ellipsoid")`` when the points span a
    lower-dimensional affine subspace, and ``"base point not interior"`` when
    the center is outside (or on the boundary of) the hull.  Raises
    ``RuntimeError`` when the solver stops at its iteration cap without
    converging; it never returns an unconverged shape.
    """
    pts = _point_array(node_set)
    k, n = pts.shape
    c = np.asarray(center, dtype=float).reshape(n)
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False) if k > 1 else np.zeros(n)
    if k <= n or sv[-1] <= 1e-9 * max(sv[0], 1.0):
        raise ValueError("flat set, no interior ellipsoid")
    try:
        normals, offsets = _hull_facets(pts)
    except QhullError:
        raise ValueError("flat set, no interior ellipsoid")
    slack = offsets - normals @ c
    if np.min(slack) <= 1e-12 * max(1.0, float(np.max(np.abs(offsets)))):
        raise ValueError("base point not interior")
    m, iterations, gap = _max_volume_shape(normals, slack, n)
    return replace(Ellipsoid.from_shape(c, m), iterations=iterations, gap=gap)


@dataclass(frozen=True)
class BalancednessCertificate:
    """Witness that ``A (S - x0)`` lies between B_1 and B_d."""

    points: np.ndarray
    base_point: np.ndarray
    d: float
    map: np.ndarray               # A = M^{-1/2} of the inscribed ellipsoid
    ellipsoid: Ellipsoid

    def __str__(self):
        return (f"balancedness d = {self.d:.6g} about "
                f"{tuple(map(float, np.round(self.base_point, 12)))}")


def balancedness(node_set, base_point) -> BalancednessCertificate:
    """Normalise a node set by its inscribed ellipsoid centered at a point.

    ``d`` is the circumradius of the normalised set; the inscribed ellipsoid
    maps to the unit ball, so the node hull contains B_1 up to grid
    resolution and sits inside B_d.
    """
    pts = _point_array(node_set)
    x0 = np.asarray(base_point, dtype=float).reshape(pts.shape[1])
    ell = john_ellipsoid(pts, x0)
    a = ell.inverse_sqrt()
    radii = np.linalg.norm((pts - x0) @ a.T, axis=1)
    d = max(1.0, float(radii.max()))
    return BalancednessCertificate(points=pts, base_point=x0, d=d, map=a,
                                   ellipsoid=ell)


# ---------------------------------------------------------------------------
# Legendre conjugate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LegendreTransform:
    """Conjugate samples on a dual lattice plus the maximising primal nodes."""

    dual: GridFunction
    argmax: np.ndarray            # (N_active_dual, n) primal positions

    @property
    def domain(self) -> Domain:
        return self.dual.domain


# Candidates one block of a Legendre axis pass holds (module docstring).
LEGENDRE_BLOCK = 2 ** 16


def _gradient_box(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    g = gradient_field(u)
    inner = u.domain.interior_mask()
    lo = np.array([np.nanmin(g[..., d][inner]) for d in range(u.domain.n)])
    hi = np.array([np.nanmax(g[..., d][inner]) for d in range(u.domain.n)])
    return lo, hi


def legendre(u: GridFunction,
             dual_domain: Domain | None = None) -> LegendreTransform:
    """Convex conjugate ``u*(xi) = max over nodes x of (xi . x - u(x))``.

    The maximum runs over all active primal nodes, so boundary-band data
    participates (the conjugate of the sampled function on the closed
    domain); inactive nodes count as ``u = +inf``.  When no dual lattice is
    supplied, a box covering the sampled gradient range is built (stencil
    radius 2) with step 1/32 of its widest side; a supplied lattice that
    fails to cover that range only triggers a warning, since the conjugate
    is still well defined (it just reflects the primal boundary).  A
    non-finite sample at an active node raises ``ValueError`` naming the
    node.

    The maximum is taken one lattice axis at a time (module docstring):
    starting from ``g = -u`` on the primal box, the pass over axis ``d``
    sets ``g <- max over x_d of (xi_d x_d + g)``, trading the primal
    coordinate ``x_d`` for the dual coordinate ``xi_d``, one block of dual
    rows at a time; each block sees whole lines along ``x_d`` and writes
    its argmax (the first maximiser) and the value there in place.  After
    the last pass ``g`` is ``u*`` on the dual box, read at its active
    nodes.  The maximising primal node is read back from the last axis to
    the first; ``argmax`` holds its exact lattice coordinates.
    """
    dom = u.domain
    active = dom.active_mask()
    bad = active & ~np.isfinite(u.values)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise ValueError(f"non-finite sample {u.values[at]} at active node "
                         f"{tuple(map(float, dom.coordinates(at)))}")
    glo, ghi = _gradient_box(u)
    if dual_domain is None:
        width = ghi - glo
        floor = max(1e-3, dom.h_grid)
        glo = np.where(width < floor, glo - 0.5 * floor, glo)
        ghi = np.where(width < floor, ghi + 0.5 * floor, ghi)
        dual_domain = build_domain(
            {"kind": "box", "lower": glo, "upper": ghi},
            float(np.max(ghi - glo) / 32.0), stencil_radius=2)
    else:
        xi = dual_domain.positions()
        dlo, dhi = xi.min(axis=0), xi.max(axis=0)
        if np.any(dlo > glo + 1e-12) or np.any(dhi < ghi - 1e-12):
            warnings.warn(
                "dual grid range is smaller than the sampled gradient range; "
                "conjugate values near the dual boundary feel the truncation",
                stacklevel=2)
    xs, xis = dom.axes(), dual_domain.axes()
    g = np.where(active, -u.values, -np.inf)
    picks = []
    for d in range(dom.n):
        # axes < d of g are dual, axes >= d primal; axis d + 1 of cand is x_d
        shape = [1] * (dom.n + 1)
        shape[d:d + 2] = -1, len(xs[d])
        kept = g.shape[:d] + (len(xis[d]), 1) + g.shape[d + 1:]
        pick, nxt = np.empty(kept, dtype=np.intp), np.empty(kept)
        step = max(1, LEGENDRE_BLOCK // g.size)
        for j in range(0, len(xis[d]), step):
            rows = (slice(None),) * d + (slice(j, j + step),)
            cand = np.multiply.outer(xis[d][j:j + step], xs[d]) \
                .reshape(shape) + np.expand_dims(g, d)
            np.argmax(cand, axis=d + 1, out=pick[rows], keepdims=True)
            nxt[rows] = np.take_along_axis(cand, pick[rows], axis=d + 1)
        picks.append(pick.squeeze(d + 1))
        g = nxt.squeeze(d + 1)
    mask = dual_domain.active_mask()
    dual_vals = np.full(dual_domain.shape, np.nan)
    dual_vals[mask] = g[mask]
    at = np.nonzero(mask)
    arg = np.empty((len(at[0]), dom.n))
    for d in reversed(range(dom.n)):
        i = picks[d][at]
        arg[:, d] = xs[d][i]
        at = at[:d] + (i,) + at[d + 1:]
    return LegendreTransform(dual=GridFunction(dual_domain, dual_vals, t=u.t),
                             argmax=arg)


# ---------------------------------------------------------------------------
# flat sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatSet:
    """Contact set of a supporting affine function, with extremal points."""

    domain: Domain
    indices: np.ndarray           # (k, n) lattice indices, possibly empty
    slope: np.ndarray
    offset: float
    tol: float
    extremal_points: np.ndarray   # (m, n) hull vertices of the contact set
    contains_segment: bool
    t: float

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def positions(self) -> np.ndarray:
        return self.domain.coordinates(self.indices)


def _prune_collinear(pts: np.ndarray, angle_tol: float = 1e-6) -> np.ndarray:
    """Drop hull vertices whose turn angle is numerically zero (2-D rings)."""
    k = len(pts)
    if k < 3:
        return pts
    keep = []
    for i in range(k):
        a, b, c = pts[i - 1], pts[i], pts[(i + 1) % k]
        v1 = b - a
        v2 = c - b
        cross = v1[0] * v2[1] - v1[1] * v2[0]
        if abs(cross) > angle_tol * max(np.linalg.norm(v1) * np.linalg.norm(v2),
                                        1e-30):
            keep.append(i)
    return pts[keep] if keep else pts[:1]


def _extreme_points(pts: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of a finite point set, any rank."""
    if len(pts) <= 2:
        return np.unique(pts, axis=0)
    center = pts.mean(axis=0)
    centered = pts - center
    u_, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * max(s[0], 1.0)))
    if rank == 0:
        return pts[:1]
    proj = centered @ vt[:rank].T
    if rank == 1:
        ids = [int(np.argmin(proj[:, 0])), int(np.argmax(proj[:, 0]))]
        return pts[ids]
    try:
        hull = ConvexHull(proj)
    except QhullError:
        ids = [int(np.argmin(proj[:, 0])), int(np.argmax(proj[:, 0]))]
        return pts[ids]
    verts = hull.vertices
    if rank == 2:
        ring = _prune_collinear(proj[verts])
        # map pruned ring back to original rows by nearest projection match
        keep = []
        for q in ring:
            keep.append(int(verts[np.argmin(
                np.linalg.norm(proj[verts] - q, axis=1))]))
        return pts[keep]
    return pts[verts]


def flat_set(u: GridFunction, slope=None, offset: float = 0.0,
             tol: float | None = None) -> FlatSet:
    """Contact set ``D = { u <= l + tol }`` of a supporting affine ``l``.

    The affine function ``l(x) = slope . x + offset`` must support the sample
    (``u >= l - tol`` at every active node), otherwise
    ``ValueError("not a tangent plane")``.  ``contains_segment`` is set when
    the extremal points span at least ``3 h_grid``; an empty contact set
    (a strictly supporting plane) is allowed and carries no extremal points.
    """
    dom = u.domain
    p = (np.zeros(dom.n) if slope is None
         else np.asarray(slope, dtype=float).reshape(dom.n))
    mask = dom.active_mask()
    pos = dom.positions(mask)
    diff = u.values[mask] - (pos @ p + offset)
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(u.values[mask]))))
    worst = float(diff.min())
    if worst < -tol:
        at = tuple(map(float, pos[int(np.argmin(diff))]))
        raise ValueError(
            f"not a tangent plane: u - l = {worst:.3g} < -tol at node {at}")
    member = np.zeros(dom.shape, dtype=bool)
    member[mask] = diff <= tol
    indices = np.argwhere(member)
    if len(indices):
        ext = _extreme_points(dom.positions(member))
        diam = 0.0
        if len(ext) > 1:
            gaps = ext[:, None, :] - ext[None, :, :]
            diam = float(np.sqrt((gaps ** 2).sum(axis=2).max()))
        segment = diam >= 3.0 * dom.h_grid
    else:
        ext = np.empty((0, dom.n))
        segment = False
    return FlatSet(domain=dom, indices=indices, slope=p, offset=float(offset),
                   tol=float(tol), extremal_points=ext,
                   contains_segment=segment, t=u.t)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_section(path, sec: Section) -> None:
    """Write a section as CSV: scalar header, base/slope rows, index rows."""
    n = sec.domain.n
    write_table(path, "n,h_grid,t,height,touches_boundary", [
        (n, float(sec.domain.h_grid), float(sec.t), float(sec.height),
         int(sec.touches_boundary)),
        ("base", *map(float, sec.base_point)),
        ("slope", *map(float, sec.slope)),
        [f"i_{d + 1}" for d in range(n)],
        *(map(int, row) for row in sec.indices)])


def save_ellipsoid(path, ell: Ellipsoid) -> None:
    """Write an ellipsoid as CSV: center, shape matrix rows, volume."""
    write_table(path, None, [
        ("center", *map(float, ell.center)),
        *(("shape_row", *map(float, row))
          for row in np.atleast_2d(ell.shape_matrix)),
        ("volume", float(ell.volume))])
