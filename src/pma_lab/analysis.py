"""Quantitative diagnostics for evolved convex samples.

The probes here turn raw snapshots into the measured quantities the rest of
the package reasons about:

* ``angle_opening`` — the widest two-slope angle that fits under a 1-D convex
  sample when the vertex is dropped a height ``h`` below the base value.  The
  extremal slopes are one-sided infima/suprema of difference quotients, so
  the certificate plane is a genuine minorant of the samples.
* ``c1alpha_exponent`` — a log-log fit of the angle opening against the drop
  height.  For ``u - q.x ~ a |x|^{1+alpha}`` the opening scales like
  ``h^{alpha/(alpha+1)}``, so the fitted slope ``m`` inverts to
  ``alpha = m/(1-m)``.  A corner (one-sided slope gap that does not vanish)
  is detected by comparing the measured opening at the smallest height with
  the zero-height slope gap of the samples themselves.
* ``holder_time_fit`` — log-log fit of ``u(x, t) - u(x, 0)`` against ``t``.
* ``separation_probe`` — per-node first time the value rises more than
  ``eps`` above its initial value; the default ``eps = 10 h^2 Lambda`` is one
  honest explicit step of motion at unit curvature, which separates genuine
  motion from numerical creep.
* ``flat_dichotomy_probe`` — classifies the contact set of a supporting
  plane at the final time: extremal points on the boundary, or the set did
  not move, or a flagged violation candidate.
* ``interface_exponent`` — growth exponent of ``u`` off a flat set, fitted
  on geometrically spaced distance bins (factor 1.3 starting at ``3 h``, so
  the under-resolved first cells never enter the fit).

Every fit is ordinary least squares in log-log coordinates with the RMS
residual reported; nothing is reweighted or refitted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import FlatSet, LegendreTransform, _gradient_box, flat_set, legendre
from .grid import Domain, GridFunction, build_domain, write_table
from .monge_ampere import OperatorConfig, ma_field

__all__ = [
    "AngleCertificate",
    "C1AlphaReport",
    "DichotomyReport",
    "ExponentFit",
    "InterfaceReport",
    "SeparationReport",
    "angle_opening",
    "beta_time",
    "c1alpha_exponent",
    "c1alpha_from_line",
    "dual_flow_residual",
    "fit_exponent",
    "flat_dichotomy_probe",
    "gamma_p",
    "holder_time_fit",
    "interface_exponent",
    "line_restriction",
    "separation_probe",
    "write_plot_script",
]


def gamma_p(n: int, p: float) -> float:
    """Interface gradient-Holder exponent ``p/(np - 1)``."""
    return p / (n * p - 1.0)


def beta_time(n: int, p: float) -> float:
    """Holder-in-time exponent ``1/(np + 1)``."""
    return 1.0 / (n * p + 1.0)


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    """Ordinary least-squares power-law fit ``y ~ exp(b) * x^m`` in log-log."""

    abscissae: np.ndarray
    ordinates: np.ndarray
    slope: float
    intercept: float
    residual: float               # RMS of log-log residuals

    @property
    def decades(self) -> float:
        return float(np.log10(self.abscissae.max() / self.abscissae.min()))


def fit_exponent(x, y, min_points: int = 5,
                 min_decades: float = 1.5) -> ExponentFit:
    """Log-log OLS fit with explicit coverage requirements.

    Exponent estimates from narrow ranges are noise; callers state how many
    points and how many decades of the abscissa they need (diagnostics on
    bounded grids relax ``min_decades``, never ``min_points``).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if len(xa) < min_points:
        raise ValueError(
            f"exponent fit needs at least {min_points} points, got {len(xa)}")
    if np.any(xa <= 0) or np.any(ya <= 0):
        raise ValueError("exponent fit needs positive abscissae and ordinates")
    span = np.log10(xa.max() / xa.min())
    if span < min_decades - 1e-12:
        raise ValueError(
            f"exponent fit needs {min_decades} decades of coverage, got "
            f"{span:.2f}")
    lx, ly = np.log(xa), np.log(ya)
    slope, intercept = np.polyfit(lx, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return ExponentFit(abscissae=xa, ordinates=ya, slope=float(slope),
                       intercept=float(intercept), residual=rms)


# ---------------------------------------------------------------------------
# angle openings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleCertificate:
    """Two-slope minorant ``base - h + max(q_right s, q_left s)`` of a line."""

    height: float
    alpha: float                  # max(0, q_right - q_left)
    q_right: float
    q_left: float
    base_value: float


def _check_line_samples(offsets, values):
    s = np.asarray(offsets, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.ndim != 1 or s.shape != v.shape:
        raise ValueError("line samples must be two equal-length 1-D arrays")
    order = np.argsort(s)
    s, v = s[order], v[order]
    scale = max(1.0, float(np.max(np.abs(v))))
    slopes = np.diff(v) / np.diff(s)
    if np.any(np.diff(slopes) < -1e-9 * scale):
        raise ValueError("samples are not convex along the line")
    i0 = int(np.argmin(np.abs(s)))
    if abs(s[i0]) > 1e-9 * max(1.0, np.max(np.abs(s))):
        raise ValueError("line samples must include the base point s = 0")
    if i0 == 0 or i0 == len(s) - 1:
        raise ValueError("need samples on both sides of the base point")
    return s, v, i0


def angle_opening(offsets, values, height: float,
                  base_value: float | None = None) -> AngleCertificate:
    """Widest two-slope angle fitting under the samples, dropped by ``height``.

    ``q_right`` is the infimum of difference quotients on the right branch,
    ``q_left`` the supremum on the left, both measured from the base value
    lowered by ``height``; the opening is their (clamped) difference.  A
    ``base_value`` other than the sample at ``s = 0`` anchors the angle to a
    reference time while the samples come from a later one.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    s, v, i0 = _check_line_samples(offsets, values)
    v0 = float(v[i0]) if base_value is None else float(base_value)
    lifted = v + height - v0
    q_right = float(np.min(lifted[i0 + 1:] / s[i0 + 1:]))
    q_left = float(np.max(lifted[:i0] / s[:i0]))
    alpha = max(0.0, q_right - q_left)
    return AngleCertificate(height=float(height), alpha=alpha,
                            q_right=q_right, q_left=q_left, base_value=v0)


def line_restriction(u: GridFunction, base_point, direction
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Samples of ``u`` along a lattice line through a node.

    ``direction`` is an integer lattice vector; offsets are signed physical
    distances along it.  The walk stops at the first non-active node on each
    side.
    """
    dom = u.domain
    e = np.asarray(direction, dtype=int)
    if e.shape != (dom.n,) or not e.any():
        raise ValueError("direction must be a nonzero integer lattice vector")
    idx0 = np.array(dom.index_of(base_point), dtype=int)
    if dom.classes[tuple(idx0)] == 0:
        raise ValueError("base point is not an active lattice node")
    step = float(np.linalg.norm(e)) * dom.h_grid
    shape = np.array(dom.shape)

    def walk(sign):
        out = []
        k = 1
        while True:
            idx = idx0 + sign * k * e
            if np.any(idx < 0) or np.any(idx >= shape):
                break
            if dom.classes[tuple(idx)] == 0:
                break
            out.append((sign * k * step, float(u.values[tuple(idx)])))
            k += 1
        return out

    pts = walk(-1)[::-1] + [(0.0, float(u.values[tuple(idx0)]))] + walk(+1)
    arr = np.array(pts)
    return arr[:, 0], arr[:, 1]


@dataclass(frozen=True)
class C1AlphaReport:
    """Angle decay across heights and the implied gradient-Holder exponent."""

    heights: np.ndarray
    alphas: np.ndarray
    fit: ExponentFit | None
    alpha_hat: float              # NaN when a corner is detected
    corner: bool
    c1_along: bool
    slope_gap0: float             # zero-height one-sided slope gap


def c1alpha_from_line(offsets, values, h_list) -> C1AlphaReport:
    """Estimate the gradient-Holder exponent from 1-D samples.

    Fits ``log alpha_max`` against ``log h`` and inverts
    ``slope = alpha/(alpha+1)``.  Corner rule: the opening at the smallest
    height is already explained by the zero-height slope gap (within 25%),
    and that gap is larger than the grid can fake — then ``alpha_max`` does
    not tend to zero and the point is not C^1 along the line.
    """
    hs = np.sort(np.asarray(h_list, dtype=float))
    if len(hs) < 5:
        raise ValueError("need at least 5 heights for the angle decay fit")
    s, v, i0 = _check_line_samples(offsets, values)
    h_grid = float(np.min(np.diff(s)))
    lip = float(np.max(np.abs(np.diff(v) / np.diff(s))))
    if hs[0] < 10.0 * lip * h_grid - 1e-15:
        raise ValueError(
            f"smallest height {hs[0]:g} is below the resolvable scale "
            f"10*Lip*h = {10 * lip * h_grid:g}")
    alphas = np.array([angle_opening(s, v, h).alpha for h in hs])
    gap0 = angle_opening(s, v, 0.0).alpha
    corner = bool(gap0 >= 10.0 * h_grid * max(lip, 1e-12)
                  and alphas[0] <= 1.25 * gap0)
    if corner or np.any(alphas <= 0):
        return C1AlphaReport(heights=hs, alphas=alphas, fit=None,
                             alpha_hat=float("nan"), corner=corner,
                             c1_along=not corner, slope_gap0=gap0)
    fit = fit_exponent(hs, alphas, min_points=5, min_decades=1.0)
    m = min(fit.slope, 0.999)
    return C1AlphaReport(heights=hs, alphas=alphas, fit=fit,
                         alpha_hat=float(m / (1.0 - m)), corner=False,
                         c1_along=True, slope_gap0=gap0)


def c1alpha_exponent(u: GridFunction, base_point, direction,
                     h_list=None) -> C1AlphaReport:
    """Gradient-Holder exponent of a grid sample along a lattice line; the
    default ``h_list`` is six heights over 1.5 decades from ``10 Lip h``."""
    s, v = line_restriction(u, base_point, direction)
    if h_list is None:
        lip = max(float(np.max(np.abs(np.diff(v) / np.diff(s)))), 1e-12)
        lo = 10.0 * lip * float(np.min(np.diff(s)))
        h_list = np.geomspace(lo, 32.0 * lo, 6)
    return c1alpha_from_line(s, v, h_list)


# ---------------------------------------------------------------------------
# time regularity and separation
# ---------------------------------------------------------------------------

def holder_time_fit(snapshots, point) -> ExponentFit:
    """Log-log fit of ``u(x, t) - u(x, t0)`` against ``t - t0`` at one node."""
    if len(snapshots) < 6:
        raise ValueError("need at least 6 snapshots for the time fit")
    dom = snapshots[0].domain
    idx = dom.index_of(point)
    t0 = snapshots[0].t
    v0 = float(snapshots[0].values[idx])
    times = np.array([s.t - t0 for s in snapshots[1:]])
    incs = np.array([float(s.values[idx]) - v0 for s in snapshots[1:]])
    if np.any(incs <= 1e-12):
        raise ValueError(
            f"no motion at node {tuple(map(float, dom.coordinates(idx)))}: "
            f"increment {incs.min():.3g}")
    return fit_exponent(times, incs, min_points=5, min_decades=1.5)


@dataclass(frozen=True)
class SeparationReport:
    """First time each probed node rose ``eps`` above its initial value."""

    indices: np.ndarray           # (k, n) lattice indices
    positions: np.ndarray         # (k, n)
    first_time: np.ndarray        # (k,), NaN for nodes that never crossed
    status: np.ndarray            # (k,) of {"instant", "delayed", "persistent"}
    eps: float
    t_first: float                # first positive snapshot time
    t_final: float

    def counts(self) -> dict:
        return {k: int(np.sum(self.status == k))
                for k in ("instant", "delayed", "persistent")}

    def to_csv(self, path) -> None:
        n = self.positions.shape[1]
        head = ",".join([f"x_{d + 1}" for d in range(n)]
                        + ["first_time", "status"])
        write_table(path, head, (
            [*map(float, pos), float(ft) if np.isfinite(ft) else "never", st]
            for pos, ft, st in zip(self.positions, self.first_time,
                                   self.status)))


def separation_probe(snapshots, eps: float | None = None,
                     lam_upper: float = 1.0) -> SeparationReport:
    """Per-node crossing times of ``u(x, t) > u(x, 0) + eps``.

    Every interior node is probed: ``instant`` when it crosses by the first
    positive snapshot, ``delayed`` when later, ``persistent`` when never.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least 2 snapshots to detect separation")
    dom = snapshots[0].domain
    if eps is None:
        eps = 10.0 * dom.h_grid ** 2 * lam_upper
    mask = dom.interior_mask()
    idx = np.argwhere(mask)
    base = snapshots[0].values[mask]
    first = np.full(len(idx), np.nan)
    for snap in snapshots[1:]:
        crossed = np.isnan(first) & (snap.values[mask] - base > eps)
        first[crossed] = snap.t
    status = np.where(np.isnan(first), "persistent",
                      np.where(first <= snapshots[1].t + 1e-15,
                               "instant", "delayed")).astype(object)
    return SeparationReport(indices=idx, positions=dom.positions(mask),
                            first_time=first, status=status, eps=float(eps),
                            t_first=snapshots[1].t, t_final=snapshots[-1].t)


# ---------------------------------------------------------------------------
# flat-set dichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyReport:
    """Classification of a final-time contact set.

    ``classification`` is one of ``"vacuous"`` (no segment, nothing to
    check), ``"boundary"`` (every extremal point within ``2 h`` of a band
    node, that is of the domain boundary), ``"stationary"`` (the set did not
    move since the first snapshot), or ``"violation"`` (neither — flagged
    for inspection, never auto-resolved).
    """

    classification: str
    flat: FlatSet
    max_motion: float
    eps_flat: float
    offenders: np.ndarray         # (m, n) extremal points away from the boundary

    def __str__(self):
        if self.classification == "vacuous":
            return "no segment -- dichotomy holds vacuously"
        return (f"flat-set dichotomy: {self.classification} "
                f"(max motion {self.max_motion:.3g}, eps {self.eps_flat:.3g})")


def flat_dichotomy_probe(snapshots, eps_flat: float | None = None
                         ) -> DichotomyReport:
    """Test the persist-or-attach dichotomy for the supporting plane l = 0.

    The contact set is extracted at the final snapshot; motion is measured
    against the first snapshot.  An extremal point is attached when it lies
    within ``2 h`` of the nearest band node of the lattice, so the test reads
    only the node classes and works on a lattice read back from a snapshot
    file; extremal points in the band count as attached.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least 2 snapshots for the dichotomy probe")
    first, last = snapshots[0], snapshots[-1]
    dom = last.domain
    if eps_flat is None:
        eps_flat = 10.0 * dom.h_grid ** 2
    fs = flat_set(last)
    if len(fs) == 0 or not fs.contains_segment:
        return DichotomyReport(classification="vacuous", flat=fs,
                               max_motion=0.0, eps_flat=float(eps_flat),
                               offenders=np.empty((0, dom.n)))
    nodes = tuple(fs.indices.T)
    motion = float(np.max(np.abs(last.values[nodes] - first.values[nodes])))
    dist, _ = cKDTree(dom.positions(dom.band_mask())).query(fs.extremal_points)
    attached = bool(np.all(dist <= 2.0 * dom.h_grid))
    if attached:
        cls = "boundary"
        off = np.empty((0, dom.n))
    elif motion <= eps_flat:
        cls = "stationary"
        off = np.empty((0, dom.n))
    else:
        cls = "violation"
        off = fs.extremal_points[dist > 2.0 * dom.h_grid]
    return DichotomyReport(classification=cls, flat=fs, max_motion=motion,
                           eps_flat=float(eps_flat), offenders=off)


# ---------------------------------------------------------------------------
# interface exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterfaceReport:
    """Binned growth of ``u`` off a flat set and the fitted exponent."""

    fit: ExponentFit
    gamma_hat: float
    bin_centers: np.ndarray
    bin_values: np.ndarray
    bin_counts: np.ndarray

    def to_csv(self, path) -> None:
        write_table(path, "distance,value,count",
                    ((float(c), float(v), int(k)) for c, v, k in
                     zip(self.bin_centers, self.bin_values, self.bin_counts)))


def interface_exponent(u: GridFunction, flat: FlatSet,
                       r_max: float | None = None) -> InterfaceReport:
    """Fit ``u - l ~ c * dist(x, D)^{1+gamma}`` outside the contact set.

    Distances are to the nearest contact-set node, minus ``h/3``: the true
    interface lies beyond the outermost member nodes by a fraction of a cell
    (a third of a cell on average for a smooth interface cutting the lattice
    generically), and without the offset the fit inherits an upward bias of
    several percent from the smallest bins.  Bins grow geometrically (factor
    1.3) from ``3 h`` so the first under-resolved cells are skipped, and each
    bin with at least 3 nodes contributes the geometric means of its
    distances and of its values (pairing the mean value with the bin's
    log-midpoint instead would skew the fit wherever the in-bin distance
    distribution is lopsided).  Raises ``ValueError("under-resolved
    interface")`` when fewer than 5 populated bins (or less than one decade
    of distance) survive.
    """
    dom = u.domain
    if len(flat) == 0:
        raise ValueError("under-resolved interface: empty contact set")
    dpos = flat.positions
    mask = dom.interior_mask().copy()
    member = np.zeros(dom.shape, dtype=bool)
    member[tuple(flat.indices.T)] = True
    mask &= ~member
    pos = dom.positions(mask)
    excess = u.values[mask] - (pos @ flat.slope + flat.offset)
    keep = excess > flat.tol
    pos, excess = pos[keep], excess[keep]
    if len(pos) == 0:
        raise ValueError("under-resolved interface: no positive excess nodes")
    dist, _ = cKDTree(dpos).query(pos)
    dist = dist - dom.h_grid / 3.0
    lo = 3.0 * dom.h_grid
    hi = float(dist.max()) if r_max is None else float(r_max)
    if hi <= lo * 1.3:
        raise ValueError("under-resolved interface: distance range too small")
    edges = [lo]
    while edges[-1] < hi:
        edges.append(edges[-1] * 1.3)
    edges = np.array(edges)
    centers, vals, counts = [], [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (dist >= a) & (dist < b)
        if np.sum(sel) < 3:
            continue
        centers.append(float(np.exp(np.mean(np.log(dist[sel])))))
        vals.append(float(np.exp(np.mean(np.log(excess[sel])))))
        counts.append(int(np.sum(sel)))
    if len(centers) < 5:
        raise ValueError(
            f"under-resolved interface: only {len(centers)} populated bins")
    centers = np.array(centers)
    vals = np.array(vals)
    if centers.max() / centers.min() < 10.0:
        raise ValueError(
            "under-resolved interface: bins span less than one decade")
    fit = fit_exponent(centers, vals, min_points=5, min_decades=1.0)
    return InterfaceReport(fit=fit, gamma_hat=float(fit.slope - 1.0),
                           bin_centers=centers, bin_values=vals,
                           bin_counts=np.array(counts))


# ---------------------------------------------------------------------------
# dual-flow residual
# ---------------------------------------------------------------------------

def dual_flow_residual(u1: GridFunction, u2: GridFunction, p: float,
                       dual_domain: Domain | None = None,
                       dual_h: float | None = None
                       ) -> tuple[float, GridFunction, LegendreTransform]:
    """Residual of the conjugated flow ``u*_t = -(det D^2 u*)^{-p}``.

    Conjugating two time levels of a solution of the positive-power flow
    (with unit coefficient) must produce a solution of the negative-power
    equation; the residual pairs a centered time difference of the
    conjugates with the monotone determinant of their average.

    The default dual box is the intersection of the two attained-slope
    ranges trimmed by 2 dual cells per side, the width of the determinant's
    stencil: a dual node whose slope is never attained strictly inside the
    primal interior picks its argmax on the boundary band, the conjugate
    flattens there, and the wide-stencil determinant within reach of such
    nodes is garbage.  Trimming keeps every active dual node honest.
    """
    if u2.t <= u1.t:
        raise ValueError("need two increasing time levels")
    if dual_domain is None:
        glo1, ghi1 = _gradient_box(u1)
        glo2, ghi2 = _gradient_box(u2)
        glo = np.maximum(glo1, glo2)
        ghi = np.minimum(ghi1, ghi2)
        extent = float(np.max(ghi - glo))
        step = float(dual_h) if dual_h is not None else extent / 32.0
        lo = glo + 2.0 * step
        hi = ghi - 2.0 * step
        if np.any(hi - lo <= 2.0 * step):
            raise ValueError("dual grid degenerate after trimming the "
                             "unattained slope margin")
        dual_domain = build_domain(
            {"kind": "box", "lower": lo.tolist(), "upper": hi.tolist()},
            step, stencil_radius=2)
    with warnings.catch_warnings():
        # the trimmed dual box is narrower than the attained-slope range on
        # purpose; the coverage warning does not apply here
        warnings.simplefilter("ignore")
        lt1 = legendre(u1, dual_domain=dual_domain)
        lt2 = legendre(u2, dual_domain=lt1.domain)
    dstar = (lt2.dual.values - lt1.dual.values) / (u2.t - u1.t)
    mid = lt1.dual.copy(values=0.5 * (lt1.dual.values + lt2.dual.values),
                        t=0.5 * (u1.t + u2.t))
    det = ma_field(mid, OperatorConfig(p=1.0)).values
    inner = lt1.domain.interior_mask()
    res = np.full(lt1.domain.shape, np.nan)
    ok = inner & (det > 0)
    res[ok] = dstar[ok] + det[ok] ** (-p)
    if not ok.any():
        raise ValueError("dual grid has no strictly convex interior nodes")
    worst = float(np.nanmax(np.abs(res[ok])))
    field = GridFunction(lt1.domain, res, t=mid.t)
    return worst, field, lt1


# ---------------------------------------------------------------------------
# plot scripts
# ---------------------------------------------------------------------------

def write_plot_script(path, csv_name: str, title: str, xlabel: str,
                      ylabel: str, logxy: bool = False,
                      using: tuple[int, int] = (1, 2)) -> None:
    """Emit a small gnuplot script referencing a sibling CSV by name."""
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
    ]
    if logxy:
        lines.append("set logscale xy")
    lines.append(f"plot '{csv_name}' using {using[0]}:{using[1]} "
                 "with linespoints notitle")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
