"""The slope field that sets the explicit step.

The step u + dt F[u] must be nondecreasing in the centre value at every
node (the neighbours are covered by the operator's own monotonicity).  At
p >= 1 the slope of every variant in every dimension is the tangent bound
2p h^2 F(x) max_F sum_{e in F} 1/D'_e, not the maximum over every frame;
these tests check it against the update itself (a ladder of raises at the
automatic dt), against the necessary condition dt F(x) <= min_e D'_e / 2,
against the all-frame and active-frame slopes recomputed here frame by
frame, and on pinned data.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pma_lab import config
from pma_lab.evolution import (KAPPA_CFL, EvolutionState, comparison_check,
                               evolve_pair, stable_dt)
from pma_lab.experiments import REGISTRY
from pma_lab.grid import (BAND, INTERIOR, CoefficientField, Domain,
                          GridFunction, GridStack, build_domain, sample)
from pma_lab.monge_ampere import (VARIANTS, OperatorConfig, ma_field,
                                  orthogonal_frames)

_VARYING_B = CoefficientField(
    lambda pts, t: 1.0 + 0.3 * np.sin(2.0 * pts[:, 0] + t), lam=0.7, Lam=1.3)

_LATTICES: dict = {}


def _lattice(n: int, width: int, axisymmetric: bool = False):
    """Built once per shape: a ball in n dimensions, or the (r, x_n) box of
    the reduced operator, symmetric about the axis r = 0."""
    key = (n, width, axisymmetric)
    if key not in _LATTICES:
        desc = ({"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
                if axisymmetric else
                {"kind": "ball", "center": [0.03] * n, "radius": 1.0})
        _LATTICES[key] = build_domain(desc, h_grid=0.1 if n == 2 else 0.25,
                                      stencil_radius=width)
    return _LATTICES[key]


def _creased(dom, seed: int, axis_crease: bool):
    """A random convex quadratic plus c |a.x - gamma|: near the crease
    some frames are steep but inactive, which is where the tangent bound
    and the all-frame slope part."""
    rng = np.random.default_rng(seed)
    n = dom.n
    A = rng.standard_normal((n, n))
    M = A @ A.T + 0.3 * np.eye(n)
    a = (np.eye(n)[rng.integers(n)] if axis_crease
         else rng.standard_normal(n))
    a /= np.linalg.norm(a)
    gamma, c = rng.uniform(-0.3, 0.3), rng.uniform(0.0, 3.0)
    return sample(dom, lambda pts, t: 0.5 * np.einsum(
        "...i,ij,...j->...", pts, M, pts) + c * np.abs(pts @ a - gamma))


def _creased_profile(dom, seed: int, axis_crease: bool):
    """The reduced variant's analogue, even in r: a random quadratic
    (a r^2 + d x_n^2) / 2 plus a crease c |x_n - gamma| across the axis, or
    the convex radial crease c max(0, |r| - r0)."""
    rng = np.random.default_rng(seed)
    a, d = rng.uniform(0.3, 3.0, size=2)
    c, gamma, r0 = rng.uniform(0.0, 3.0), rng.uniform(-0.3, 0.3), \
        rng.uniform(0.1, 0.6)

    def crease(r, z):
        return (c * np.abs(z - gamma) if axis_crease
                else c * np.maximum(0.0, np.abs(r) - r0))

    return sample(dom, lambda pts, t: 0.5 * (a * pts[:, 0] ** 2
                                             + d * pts[:, 1] ** 2)
                  + crease(pts[:, 0], pts[:, 1]))


def _case(n, width, p, variant, n_full, varying_b, axis_crease, seed):
    """Creased data and its operator config: the plain variant on the
    n-ball, the reduced one in dimension n_full on the (r, x_n) box."""
    reduced = variant == "reduced"
    b = _VARYING_B if varying_b else CoefficientField.constant(1.0)
    cfg = OperatorConfig(p=p, width=width, variant=variant, b=b,
                         n_full=n_full if reduced else None)
    if reduced:
        return _creased_profile(_lattice(2, width, True), seed,
                                axis_crease), cfg
    return _creased(_lattice(n, width), seed, axis_crease), cfg


def _differences(u, width):
    """Per frame, the raw clamped second differences max(0, Delta^2_e u)
    of its directions at every interior node, and their |e|^2."""
    dom = u.domain
    V = u.values.reshape(-1)
    strides = [math.prod(dom.shape[d + 1:]) for d in range(dom.n)]
    idx = dom.interior_index
    out = []
    for frame in orthogonal_frames(dom.n, width):
        ks = [sum(c * s for c, s in zip(e, strides)) for e in frame]
        out.append(([np.maximum(V[idx + k] + V[idx - k] - 2.0 * V[idx], 0.0)
                     for k in ks], [sum(c * c for c in e) for e in frame]))
    return out


def _radial(u, n_full):
    """The reduced variant's radial factor R = max(0, u_r/r)^(n_full-2) at
    every interior node, and its centre weight (n_full-2) (u_r/r)^(n_full-3)
    on the axis (through u_rr) and 0 off it, in curvature units."""
    dom = u.domain
    h, k = dom.h_grid, dom.shape[1]
    V = u.values.reshape(-1)
    idx = dom.interior_index
    r = dom.interior_positions[:, 0]
    axis = np.abs(r) < 0.5 * h
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(axis, (V[idx + k] + V[idx - k] - 2.0 * V[idx]) / h ** 2,
                         (V[idx + k] - V[idx - k]) / (2.0 * h * r))
    ratio = np.maximum(ratio, 0.0)
    return ratio ** (n_full - 2), np.where(
        axis, (n_full - 2) * ratio ** (n_full - 3), 0.0)


def _frame_slopes(u, cfg):
    """Per frame and interior node, b times 2 |d(P_F^p)/dt| at t = 0, with
    the degenerate-product convention of the kernel (0 where P_F = 0 for
    p != 1), and the products P_F (the reduced radial factor is one more
    factor of each): the all-frame slope is the maximum over frames, the
    active-frame slope the entry of the first minimising frame."""
    h = u.domain.h_grid
    radial = [_radial(u, cfg.n_full)] if cfg.variant == "reduced" else []
    prods, slopes = [], []
    for raw, e2 in _differences(u, cfg.width):
        Ds = [D / (k * h * h) for D, k in zip(raw, e2)]
        ws = [1.0 / k for k in e2]
        for R, w in radial:
            Ds.append(R)
            ws.append(w)
        P = np.prod(Ds, axis=0)
        rate = sum(w * np.prod(Ds[:i] + Ds[i + 1:], axis=0)
                   for i, w in enumerate(ws))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = 2.0 * cfg.p * P ** (cfg.p - 1.0) * rate
        if cfg.p != 1.0:
            g[P == 0.0] = 0.0
        prods.append(P)
        slopes.append(g)
    b = cfg.b(u.domain.interior_positions, u.t)
    return np.array(prods), np.array(slopes) * b


def _all_and_active(u, cfg):
    P, g = _frame_slopes(u, cfg)
    nodes = np.arange(P.shape[1])
    active = g[P.argmin(axis=0), nodes]
    active[P.min(axis=0) <= 0.0] = 0.0       # a node that does not move
    return g.max(axis=0), active


def _necessary_ratio(u, cfg, dt):
    """The largest dt F(x) / (min_e D'_e(x) / 2) over the interior nodes
    where F(x) > 0, the minimum over every direction of every frame; 0 if
    no node moves."""
    fld = ma_field(u, cfg)
    F = np.take(fld.span_values, fld.columns)
    D = np.min([D for raw, _ in _differences(u, cfg.width) for D in raw],
               axis=0)
    moving = F > 0.0
    return float(np.max(dt * F[moving] / (0.5 * D[moving]), initial=0.0))


def _near_flat():
    """p = 0.4, h = 0.05, u = c x1^2 / 2 + x2^2 / 2 with c = 0.02 h^2 on a
    box: the flat direction clamps to 0 within a raise of c h^2 / 2."""
    h = 0.05
    dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                        "upper": [1.0, 1.0]}, h_grid=h, stencil_radius=2)
    c = 0.02 * h * h
    u = sample(dom, lambda pts, t: 0.5 * (c * pts[:, 0] ** 2 + pts[:, 1] ** 2))
    return u, OperatorConfig(p=0.4)


# raises delta = t h^2 / 2: each second difference D_e falls by t / |e|^2
_RUNGS = np.geomspace(1e-6, 1e2, 13)


def _ladder_worst(u, cfg, dt):
    """The smallest (H[u + delta e_x](x) - H[u](x)) / delta over every
    interior node x and every rung delta of :data:`_RUNGS`, with
    H[u] = u + dt F[u].

    Nodes are raised together in classes that are width + 1 apart in each
    coordinate, so no raised node lies in another's stencil; all classes
    of one rung are one stack.
    """
    dom = u.domain
    w = cfg.width
    fld = ma_field(u, cfg)
    base = np.take(fld.span_values, fld.columns)
    pos = np.argwhere(dom.interior_mask())
    classes = [np.all(pos % (w + 1) == off, axis=1)
               for off in np.ndindex(*(w + 1,) * dom.n)]
    flat = dom.interior_index
    worst = math.inf
    for delta in 0.5 * dom.h_grid ** 2 * _RUNGS:
        vals = np.repeat(u.values[None], len(classes), axis=0)
        for k, sel in enumerate(classes):
            vals[k].reshape(-1)[flat[sel]] += delta
        fld = ma_field(GridStack(dom, vals, u.t), cfg)
        raised = np.take(fld.span_values, fld.columns)
        for k, sel in enumerate(classes):
            change = delta + dt * (raised[k][sel] - base[sel])
            worst = min(worst, float(change.min()) / delta)
    return worst


_STEP_CASES = dict(
    n=st.sampled_from([2, 3]), width=st.integers(1, 3), p=st.floats(1.0, 3.0),
    variant=st.sampled_from(VARIANTS), n_full=st.integers(3, 5),
    varying_b=st.booleans(), axis_crease=st.booleans(),
    seed=st.integers(0, 2 ** 16))


@given(**_STEP_CASES)
def test_update_never_falls_when_the_centre_rises(n, width, p, variant,
                                                  n_full, varying_b,
                                                  axis_crease, seed):
    # the monotone-step condition itself: at the automatic dt, raising the
    # centre by any amount never lowers the updated value there.  With
    # kappa = 0.4 the tangent bound leaves a margin of 0.6 delta
    u, cfg = _case(n, width, p, variant, n_full, varying_b, axis_crease,
                   seed)
    dt = stable_dt(ma_field(u, cfg))
    assert _ladder_worst(u, cfg, dt) >= 0.0


@given(**_STEP_CASES)
def test_step_meets_the_necessary_condition(n, width, p, variant, n_full,
                                            varying_b, axis_crease, seed):
    # raising u(x) by min_e D'_e(x) / 2 takes that difference, so F(x), to
    # 0, and the update at x then gains only the raise: a monotone step
    # needs dt F(x) <= min_e D'_e(x) / 2.  Every direction lies in some
    # frame, whose term in the tangent bound is at least 2p h^2 F(x) /
    # min_e D'_e(x), so the ratio is at most kappa / p
    u, cfg = _case(n, width, p, variant, n_full, varying_b, axis_crease,
                   seed)
    dt = stable_dt(ma_field(u, cfg))
    assert _necessary_ratio(u, cfg, dt) <= KAPPA_CFL / p * (1.0 + 1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "for p < 1 the slope's second differences are floored at h^2, so the "
    "step is not bounded by min_e D'_e / 2 where 0 < D < h^2 (it reads "
    "10.4); a provably monotone p < 1 step is ROADMAP item 3"))
def test_step_meets_the_necessary_condition_at_p_below_one():
    u, cfg = _near_flat()
    dt = stable_dt(ma_field(u, cfg))
    assert _necessary_ratio(u, cfg, dt) <= 1.0


@given(**_STEP_CASES)
def test_slope_between_active_and_all_frame_slopes(n, width, p, variant,
                                                   n_full, varying_b,
                                                   axis_crease, seed):
    # the tangent bound of the active frame is its own slope, and every
    # frame's tangent bound is at most its slope at t = 0
    u, cfg = _case(n, width, p, variant, n_full, varying_b, axis_crease,
                   seed)
    fld = ma_field(u, cfg)
    got = np.take(fld.span_slope, fld.columns)
    all_frame, active = _all_and_active(u, cfg)
    assert np.all(got <= all_frame * (1.0 + 1e-12))
    assert np.all(got >= active * (1.0 - 1e-12))
    assert got.max() > 0.0


@given(p=st.floats(1.0, 3.0), axis_crease=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_pair_stays_ordered_in_3d(p, axis_crease, seed):
    dom = _lattice(3, 2)
    cfg = OperatorConfig(p=p)
    lo = _creased(dom, seed, axis_crease)
    hi = lo.copy()
    rng = np.random.default_rng(seed + 1)
    active = dom.active_mask()
    hi.values[active] += 1e-3 * rng.random(int(active.sum()))
    sa, sb = EvolutionState(u=lo, cfg=cfg), EvolutionState(u=hi, cfg=cfg)
    dt = min(stable_dt(ma_field(s.u, s.cfg)) for s in (sa, sb))
    ua, ub = evolve_pair(sa, sb, t_end=8.0 * dt)
    assert sa.steps >= 2
    rep = comparison_check(ua, ub, tol=0.0)
    assert rep.ordered, str(rep)


@pytest.mark.xfail(strict=True, reason=(
    "for p < 1 the slope's second differences are floored at h^2, so where "
    "0 < D < h^2 it is not an upper bound on |dF/du(x)|"))
def test_update_never_falls_at_p_below_one():
    # the data of _near_flat: F(0) falls by more than the raise over dt
    u, cfg = _near_flat()
    dt = stable_dt(ma_field(u, cfg))
    assert _ladder_worst(u, cfg, dt) >= 0.0


def test_slope_pinned_on_the_crease_data():
    # edge-moves-n3p1 at t = 0: the crease plane carries both maxima.  The
    # active axis frame has differences (1, 1, 40) and slope
    # 2 (40 + 40 + 1) = 162, which is also its tangent bound
    # 2 * 40 * (1 + 1 + 1/40); the frame rotated in the (x1, x3) plane,
    # (20.5, 20.5, 1), has the all-frame slope 2 (20.5 + 20.5^2) = 881.5
    state = config.make_state(REGISTRY["edge-moves-n3p1"].config)
    fld = ma_field(state.u, state.cfg)
    got = np.take(fld.span_slope, fld.columns)
    assert abs(got.max() - 162.0) <= 1e-9
    all_frame, active = _all_and_active(state.u, state.cfg)
    assert abs(all_frame.max() - 881.5) <= 1e-9
    assert abs(active.max() - 162.0) <= 1e-9


def test_slope_equals_all_frame_slope_when_frames_tie():
    # u = |x|^2 / 2 in 3-D: every frame has product 1, the axis frame the
    # largest slope 2 (1 + 1 + 1) = 6, so no bound is below it
    dom = build_domain({"kind": "box", "lower": [-1.0] * 3,
                        "upper": [1.0] * 3}, h_grid=0.25, stencil_radius=2)
    u = sample(dom, lambda pts, t: 0.5 * np.einsum("...i,...i->...", pts, pts))
    cfg = OperatorConfig(p=1.0)
    fld = ma_field(u, cfg)
    got = np.take(fld.span_slope, fld.columns)
    all_frame, _ = _all_and_active(u, cfg)
    np.testing.assert_allclose(all_frame, 6.0, rtol=1e-12)
    np.testing.assert_allclose(got, 6.0, rtol=1e-12)


def test_slope_is_zero_where_no_node_moves():
    # every interior node is flat along the third axis, so none moves,
    # though other frames give a positive all-frame slope; the band node at
    # the first span column is strictly convex, and its frames must not
    # leak into the field
    shape, r = (10, 10, 10), 1
    classes = np.full(shape, BAND, dtype=np.uint8)
    classes[4:9, 4:9, 4:9] = INTERIOR
    dom = Domain(h_grid=0.1, classes=classes, stencil_radius=r,
                 axis_coords=tuple(0.1 * np.arange(s) for s in shape))
    i, j, k = np.indices(shape, dtype=float)
    u = GridFunction(dom, (i - 6) ** 2 + (j - 6) ** 2
                     + np.maximum(0.0, 2.5 - k) ** 2)
    assert dom.core.start == np.ravel_multi_index((r,) * 3, shape)
    fld = ma_field(u, OperatorConfig(p=1.0, width=1))
    assert (np.take(fld.span_values, fld.columns) == 0.0).all()
    assert (fld.span_slope == 0.0).all()
    assert stable_dt(fld) == math.inf
