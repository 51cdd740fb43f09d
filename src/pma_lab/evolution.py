"""Explicit monotone time stepping for the degenerate Monge-Ampere flow.

Forward Euler on the wide-stencil operator:

    u^{k+1}(x) = u^k(x) + dt F[u^k](x)      at interior nodes,
    u^{k+1}    = boundary data at t^{k+1}   on the band.

The update H[u] = u + dt F[u] is monotone (u <= v gives H[u] <= H[v]) when
it is nondecreasing in every neighbour value and in the centre value.  F
is nondecreasing in every neighbour.  For the centre, raise u(x) by
delta = t h^2 / 2 with the neighbours fixed: every second difference at x
falls by t / |e|^2, and H changes by delta + dt (F(t) - F(0)).  That is
>= 0 for every t > 0 exactly when the one-sided chord condition

    dt (F(0) - F(t)) / t <= h^2 / 2        for every t > 0

holds, a bound on the chord slopes of F along upward raises only.  Every
operator call returns, with F, a slope field sigma (in curvature units),
and :func:`stable_dt` reads the automatic step off that field:

    dt = h^2 / max_x sigma(x).

Where 2 (F(0) - F(t)) / t <= sigma(x) for every t > 0 at every node, this
dt meets the chord condition.  ``monge_ampere``'s tangent bound
sigma = 2 max(p, 1) h^2 F max_F sum_{e in F} 1/D'_e is such a bound at
every p, in every dimension and for both variants: along the raise each
clamped difference stays above its own tangent line cut at 0, so each
frame product does too (Weierstrass's product inequality), and so does
its power, by Bernoulli's inequality for p >= 1 and by the concavity of
x^p for p < 1 (where every difference is clamped at its floor |e|^2 h^4,
so sigma stays finite).  So the step is the whole of Oberman's nonlinear
CFL condition (SIAM J. Numer. Anal. 44, 2006), and the monotone, stable
and consistent scheme converges to the viscosity solution (Barles and
Souganidis, Asymptotic Anal. 4, 1991).  dt is truncated to land exactly on
requested snapshot times (the landing assigns t = t_snap, so a restarted
run reproduces the original step sequence bit for bit).

Monotone steps propagate ordering.  For u <= v stepped with one shared dt,
raise u's centre to v(x) first (allowed by u's own chord condition) and
then its neighbours (F is nondecreasing in them): H[u](x) <= H[v](x).  The
shared dt is the stable step of the whole stack, at most every member's
own step, so it covers the lower member of a pair, which is what
:func:`evolve_pair` provides.  Since F >= 0, interior values never
decrease along the flow.

One shared-dt loop serves both: :func:`evolve` runs it on one state and
:func:`evolve_pair` on two.  Each step evaluates the operator once, on
the stack of all states, so a paired step is one operator pass; it takes
its dt from the slope maximum of the whole stack and adds the operator's
span, which holds -0.0 off the interior nodes, to the flat values of the
whole stack in one call.  The loop owns every check of a run, so a pair
gets each check a single run gets, the nondecreasing check at every stop
included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Domain, GridFunction, GridStack
from .monge_ampere import OperatorConfig, OperatorField, ma_field

DT_FLOOR = 1e-14


@dataclass
class EvolutionState:
    """A grid function advancing in time under a fixed operator config.

    ``boundary`` is a callable (points, t) -> values refreshing the band at
    every accepted step, or None to freeze the band at its current values.
    """

    u: GridFunction
    cfg: OperatorConfig
    boundary: Callable | None = None
    steps: int = 0

    @property
    def t(self) -> float:
        return self.u.t


@dataclass
class EvolutionResult:
    snapshots: list[GridFunction]
    state: EvolutionState


def stable_dt(fld: OperatorField) -> float:
    """h^2 / max slope, the largest monotonicity-preserving step for the
    operator field ``fld`` (h from its lattice), at every p.

    The maximum runs over the span, which holds slope 0 off the interior,
    and for the field of a stack over every member, which gives the step
    that a shared-dt loop takes.  With no moving node (max slope 0) the
    step is ``math.inf``.  A non-finite slope raises a ValueError naming
    its node.
    """
    slope = fld.span_slope
    sig = float(slope.max())
    if not math.isfinite(sig):
        where = fld.node_at(np.flatnonzero(~np.isfinite(slope))[0])
        raise ValueError(f"non-finite slope bound at node {where}")
    if sig <= 0.0:
        return math.inf
    dt = fld.domain.h_grid ** 2 / sig
    if not math.isfinite(dt) or dt < DT_FLOOR:
        raise ValueError(f"stiff state: stable step {dt:.3e} underflows "
                         f"(slope bound {sig:.3e})")
    return dt


def _check_nondecreasing(prev: np.ndarray, cur: np.ndarray, t: float,
                         dom: Domain) -> None:
    """Raise if an interior value fell, naming the node of the largest drop
    (``prev`` and ``cur``: one row per member, in the order of
    ``dom.interior_positions``)."""
    scale = max(1.0, float(np.max(np.abs(cur))))
    change = cur - prev
    k = int(np.argmin(change))
    drop = float(change.flat[k])
    if drop < -1e-12 * scale:
        where = tuple(map(float, dom.interior_positions[k % cur.shape[-1]]))
        raise RuntimeError(
            f"interior values decreased by {-drop:.3e} at node {where} by "
            f"t = {t}; the flow must be nondecreasing in time")


def _shared_steps(states: list[EvolutionState], stops: list[float]):
    """Step N states on one lattice, under one config, with one shared dt.

    Refuses states on different lattices, at different times or under
    different configs, and stops that are not finite or not ahead of them.
    A step is one operator pass over the stack of all N members; dt is the
    stack's one stable step, :func:`stable_dt` over the slope maximum of
    every member, so every member's update stays monotone.  The values on
    the operator's span are scaled by dt in place and added to the stack in
    one call; the band is then refreshed member by member.  Each state
    re-binds to a private copy of its values (a view into the stack).  On
    landing at each stop it checks that no member's interior value fell
    since the last stop, then yields.
    """
    first = states[0]
    dom, cfg, t0 = first.u.domain, first.cfg, first.t
    if any(not dom.same_lattice(s.u.domain) or abs(s.t - t0) > 1e-15
           for s in states):
        raise ValueError("shared stepping needs matching lattices and times")
    if any(s.cfg != cfg for s in states):
        raise ValueError("shared stepping needs one operator config")
    if not stops[0] > t0:
        raise ValueError(f"stop {stops[0]} is not ahead of t = {t0}")
    if not np.isfinite(stops).all():
        raise ValueError(f"stops {stops} are not all finite")
    stack = GridStack(dom, np.stack([s.u.values for s in states]), t0)
    for s, v in zip(states, stack.values):
        s.u = GridFunction(dom, v, t0)
    band = dom.band_mask()
    pts = dom.positions(band) \
        if any(s.boundary is not None for s in states) else None
    flat = stack.values.reshape(len(states), -1)
    # the flat values from the first span column on
    span = stack.values.reshape(-1)[dom.core.start:]
    prev = flat.take(dom.interior_index, axis=1)
    for stop in stops:
        while stack.t < stop:
            fld = ma_field(stack, cfg)
            dt = stable_dt(fld)
            rem = stop - stack.t
            if dt >= rem * (1.0 - 1e-12):
                dt, t_new = rem, stop
            else:
                t_new = stack.t + dt
            rate = fld.span_values
            if not np.isfinite(rate).all():
                where = fld.node_at(np.flatnonzero(~np.isfinite(rate))[0])
                raise ValueError(f"non-finite operator value at node {where}")
            rate *= dt
            np.add(span, rate[:span.size], out=span)
            # free the span arrays before the next call allocates its own
            del fld, rate
            for s in states:
                if s.boundary is not None:
                    bvals = np.asarray(s.boundary(pts, t_new), dtype=float)
                    if not np.all(np.isfinite(bvals)):
                        raise ValueError(
                            "non-finite boundary data at t = %r" % t_new)
                    s.u.values[band] = bvals
                s.u.t = t_new
                s.steps += 1
            stack.t = t_new
        cur = flat.take(dom.interior_index, axis=1)
        _check_nondecreasing(prev, cur, stop, dom)
        prev = cur
        yield stop


def evolve(state: EvolutionState, t_end: float,
           snapshot_times=()) -> EvolutionResult:
    """Advance to t_end, recording copies at the requested times.

    Snapshot times must lie in (t, t_end], a time up to 1e-12 above t_end
    counting as t_end; t_end itself is always the final snapshot.  The
    state re-binds to a private working copy, so the grid function passed
    in survives as the clean pre-flow sample.
    """
    t_end = float(t_end)
    if any(float(s) > t_end + 1e-12 for s in snapshot_times):
        raise ValueError("snapshot times must lie in (t, t_end]")
    stops = sorted({min(float(s), t_end) for s in snapshot_times} | {t_end})
    snaps = [state.u.copy() for _ in _shared_steps([state], stops)]
    return EvolutionResult(snapshots=snaps, state=state)


def evolve_pair(state_a: EvolutionState, state_b: EvolutionState,
                t_end: float) -> tuple[GridFunction, GridFunction]:
    """Advance two states to t_end with a shared step size.

    The shared dt is the pair's one stable step, over the slope maximum of
    both members, so both updates stay monotone and discrete comparison
    applies to the pair.  Both states must share one lattice, one time and
    one operator config: each step evaluates the pair in one operator pass.
    """
    for _ in _shared_steps([state_a, state_b], [t_end]):
        pass
    return state_a.u, state_b.u


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    ordered: bool
    max_violation: float          # max over nodes of (lower - upper)
    where: tuple[float, ...] | None
    tol: float

    def __str__(self):
        if self.ordered:
            return f"ordered (max violation {self.max_violation:.3e} <= {self.tol:.1e})"
        return (f"NOT ordered: lower exceeds upper by {self.max_violation:.3e} "
                f"at {self.where}")


def comparison_check(lower: GridFunction, upper: GridFunction,
                     tol: float = 1e-10) -> ComparisonReport:
    """Check lower <= upper + tol on all non-exterior nodes."""
    if not lower.domain.same_lattice(upper.domain):
        raise ValueError("comparison needs a common lattice")
    mask = lower.domain.active_mask()
    diff = lower.values[mask] - upper.values[mask]
    k = int(np.argmax(diff))
    worst = float(diff[k])
    where = tuple(map(float, lower.domain.positions(mask)[k]))
    return ComparisonReport(ordered=bool(worst <= tol), max_violation=worst,
                            where=where if worst > tol else None, tol=tol)


# ---------------------------------------------------------------------------
# the scaling symmetry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingMap:
    """v(x, t) = u(A x, m t) / h with m = (det A)^(2p) / h^(np-1).

    If u solves u_t = (det D^2 u)^p then so does v: each second derivative
    gains A twice and the value loses h once, so det D^2 v picks up
    (det A)^2 / h^n per power and v_t picks up m / h; the stated m balances
    the two sides.
    """

    A: np.ndarray
    h: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, float)))
        if self.h <= 0:
            raise ValueError("scaling needs h > 0")
        if abs(np.linalg.det(self.A)) < 1e-300:
            raise ValueError("scaling needs an invertible A")

    def m(self, n: int) -> float:
        return abs(np.linalg.det(self.A)) ** (2.0 * self.p) \
            / self.h ** (n * self.p - 1.0)


def rescale(u: GridFunction, mapping: ScalingMap,
            target: Domain) -> GridFunction:
    """Pull a snapshot back through the scaling map onto a target lattice.

    Values are multilinearly interpolated at A x; the timestamp becomes
    u.t / m.  Raises if any target node needs data outside the source.
    """
    n = u.domain.n
    if mapping.A.shape != (n, n):
        raise ValueError(f"A must be {n}x{n}")
    mask = target.active_mask()
    pts = target.positions(mask)
    src = pts @ mapping.A.T
    vals = u.interpolate(src) / mapping.h
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(
            f"rescaling map leaves the source domain at node "
            f"{tuple(map(float, pts[bad][0]))}")
    out = np.full(target.shape, np.nan)
    out[mask] = vals
    return GridFunction(target, out, t=u.t / mapping.m(n))
