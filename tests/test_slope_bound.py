"""The slope field that sets the explicit step.

The step u + dt F[u] must be nondecreasing in the centre value at every
node (the neighbours are covered by the operator's own monotonicity).  In
3-D at p >= 1 the plain operator's slope is the chord bound, not the
maximum over every frame; these tests check it against the update itself
(a ladder of raises at the automatic dt), against the all-frame and
active-frame slopes recomputed here frame by frame, and on pinned data.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pma_lab import config
from pma_lab.evolution import (EvolutionState, comparison_check, evolve_pair,
                               stable_dt)
from pma_lab.experiments import REGISTRY
from pma_lab.grid import (BAND, INTERIOR, CoefficientField, Domain,
                          GridFunction, GridStack, build_domain, sample)
from pma_lab.monge_ampere import OperatorConfig, ma_field, orthogonal_frames

_VARYING_B = CoefficientField(
    lambda pts, t: 1.0 + 0.3 * np.sin(2.0 * pts[:, 0] + t), lam=0.7, Lam=1.3)

_LATTICES: dict = {}


def _lattice(n: int, width: int):
    key = (n, width)
    if key not in _LATTICES:
        _LATTICES[key] = build_domain(
            {"kind": "ball", "center": [0.03] * n, "radius": 1.0},
            h_grid=0.1 if n == 2 else 0.25, stencil_radius=width)
    return _LATTICES[key]


def _creased(dom, seed: int, axis_crease: bool):
    """A random convex quadratic plus c |a.x - gamma|: near the crease
    some frames are steep but inactive, which is where the chord bound
    and the active frame's slope part."""
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


def _frame_slopes(u, cfg):
    """Per frame and interior node, b times 2 |d(P_F^p)/dt| at t = 0, with
    the degenerate-product convention of the kernel (0 where P_F = 0 for
    p != 1), and the products P_F: the all-frame slope is the maximum over
    frames, the active-frame slope the entry of the first minimising
    frame."""
    dom = u.domain
    h = dom.h_grid
    V = u.values.reshape(-1)
    strides = [math.prod(dom.shape[d + 1:]) for d in range(dom.n)]
    idx = dom.interior_index
    prods, slopes = [], []
    for frame in orthogonal_frames(dom.n, cfg.width):
        Ds, ws = [], []
        for e in frame:
            k = sum(c * s for c, s in zip(e, strides))
            e2 = sum(c * c for c in e)
            Ds.append(np.maximum(
                (V[idx + k] + V[idx - k] - 2.0 * V[idx]) / (e2 * h * h), 0.0))
            ws.append(1.0 / e2)
        P = np.prod(Ds, axis=0)
        rate = sum(w * np.prod(Ds[:i] + Ds[i + 1:], axis=0)
                   for i, w in enumerate(ws))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = 2.0 * cfg.p * P ** (cfg.p - 1.0) * rate
        if cfg.p != 1.0:
            g[P == 0.0] = 0.0
        prods.append(P)
        slopes.append(g)
    b = cfg.b(dom.interior_positions, u.t)
    return np.array(prods), np.array(slopes) * b


def _all_and_active(u, cfg):
    P, g = _frame_slopes(u, cfg)
    nodes = np.arange(P.shape[1])
    active = g[P.argmin(axis=0), nodes]
    active[P.min(axis=0) <= 0.0] = 0.0       # a node that does not move
    return g.max(axis=0), active


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


@given(n=st.sampled_from([2, 3]), width=st.integers(1, 3),
       p=st.floats(1.0, 3.0), varying_b=st.booleans(),
       axis_crease=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_update_never_falls_when_the_centre_rises(n, width, p, varying_b,
                                                  axis_crease, seed):
    # the monotone-step condition itself: at the automatic dt, raising the
    # centre by any amount never lowers the updated value there.  With
    # kappa = 0.4 the chord bound leaves a margin of 0.6 delta
    dom = _lattice(n, width)
    b = _VARYING_B if varying_b else CoefficientField.constant(1.0)
    cfg = OperatorConfig(p=p, width=width, b=b)
    u = _creased(dom, seed, axis_crease)
    dt = stable_dt(ma_field(u, cfg))
    assert _ladder_worst(u, cfg, dt) >= 0.0


@given(width=st.integers(1, 3), p=st.floats(1.0, 3.0),
       varying_b=st.booleans(), axis_crease=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_chord_slope_between_active_and_all_frame_slopes(width, p, varying_b,
                                                         axis_crease, seed):
    dom = _lattice(3, width)
    b = _VARYING_B if varying_b else CoefficientField.constant(1.0)
    cfg = OperatorConfig(p=p, width=width, b=b)
    u = _creased(dom, seed, axis_crease)
    fld = ma_field(u, cfg)
    got = np.take(fld.span_slope, fld.columns)
    all_frame, active = _all_and_active(u, cfg)
    assert np.all(got <= all_frame * (1.0 + 1e-12))
    assert got.max() >= active.max() * (1.0 - 1e-12)


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
    # p = 0.4, h = 0.05, u = c x1^2 / 2 + x2^2 / 2 with c = 0.02 h^2: the
    # flat direction clamps to 0 within a raise of c h^2 / 2, and F(0)
    # falls by more than the raise over dt
    h = 0.05
    dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                        "upper": [1.0, 1.0]}, h_grid=h, stencil_radius=2)
    c = 0.02 * h * h
    u = sample(dom, lambda pts, t: 0.5 * (c * pts[:, 0] ** 2 + pts[:, 1] ** 2))
    cfg = OperatorConfig(p=0.4)
    dt = stable_dt(ma_field(u, cfg))
    assert _ladder_worst(u, cfg, dt) >= 0.0


def test_chord_slope_pinned_on_the_crease_data():
    # edge-moves-n3p1 at t = 0: the crease plane carries both maxima.  The
    # active axis frame has differences (1, 1, 40) and slope
    # 2 (40 + 40 + 1) = 162; the frame rotated in the (x1, x3) plane,
    # (20.5, 20.5, 1), has the all-frame slope 2 (20.5 + 20.5^2) = 881.5
    state = config.make_state(REGISTRY["edge-moves-n3p1"].config)
    fld = ma_field(state.u, state.cfg)
    got = np.take(fld.span_slope, fld.columns)
    assert abs(got.max() - 162.0) <= 1e-9
    all_frame, active = _all_and_active(state.u, state.cfg)
    assert abs(all_frame.max() - 881.5) <= 1e-9
    assert abs(active.max() - 162.0) <= 1e-9


def test_chord_slope_equals_all_frame_slope_when_frames_tie():
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


def test_chord_bound_with_no_moving_node_is_read_at_an_interior_node():
    # every interior node is flat along the third axis, so none moves and
    # each one's chord bound is 0, though other frames give a positive
    # all-frame slope; the band node at the first span column is strictly
    # convex, and a bound read there would keep those slopes
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
    assert (np.take(fld.span_slope, fld.columns) == 0.0).all()
    assert stable_dt(fld) == math.inf
