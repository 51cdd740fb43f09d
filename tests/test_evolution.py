import math
import re

import numpy as np
import pytest

from pma_lab import evolution
from pma_lab.evolution import (EvolutionState, ScalingMap, comparison_check,
                               evolve, evolve_pair, rescale, stable_dt)
from pma_lab.config import make_state as state_from_config
from pma_lab.exact import quadratic_solution, cone_data
from pma_lab.grid import (CoefficientField, GridStack, build_domain, load_csv,
                          sample, save_csv)
from pma_lab.monge_ampere import _BLOCK, OperatorConfig, ma_field


def ball(r=1.0, h=0.1, n=2):
    return build_domain({"kind": "ball", "center": [0.0] * n, "radius": r},
                        h_grid=h, stencil_radius=2)


def make_state(dom, solution, cfg, t0=0.0, frozen=False):
    u = sample(dom, solution, t=t0)
    boundary = None if frozen else (lambda pts, t: solution(pts, t))
    return EvolutionState(u=u, cfg=cfg, boundary=boundary)


def test_exact_on_quadratic_in_time():
    # u = |x|^2/2 + t solves the flow for b = 1 and every p; the scheme is
    # exact on it (frame differences reproduce the Hessian exactly and the
    # rate is constant), so errors stay at roundoff
    dom = ball(r=1.0, h=0.1)
    sol = quadratic_solution(np.eye(2), p=1.7)
    state = make_state(dom, sol, OperatorConfig(p=1.7))
    res = evolve(state, t_end=0.1)
    want = sample(dom, sol, t=0.1)
    err = np.nanmax(np.abs(res.snapshots[-1].values - want.values))
    assert err <= 1e-3
    assert err <= 1e-10  # in fact exact up to accumulated roundoff


@pytest.mark.parametrize("p", [0.4, 1.0, 2.0])
def test_stable_dt_value(p):
    # identity Hessian: slope bound 4 max(p, 1) (axis frame, F = 1), and
    # dt = h^2 / (4 max(p, 1)), the whole chord condition at every p
    dom = ball(r=1.0, h=0.1)
    sol = quadratic_solution(np.eye(2), p=p)
    state = make_state(dom, sol, OperatorConfig(p=p))
    assert stable_dt(ma_field(state.u, state.cfg)) == pytest.approx(
        0.1 ** 2 / (4.0 * max(p, 1.0)), rel=1e-12)


def test_stable_dt_rejects_a_non_finite_slope_and_names_its_node():
    dom = ball(r=1.0, h=0.1)
    sol = quadratic_solution(np.eye(2), p=1.0)
    state = make_state(dom, sol, OperatorConfig(p=1.0))
    fld = ma_field(state.u, state.cfg)
    k = len(fld.columns) // 3
    where = tuple(map(float, dom.interior_positions[k]))
    fld.span_slope[fld.columns[k]] = np.nan
    with pytest.raises(ValueError, match=re.escape(f"node {where}")):
        stable_dt(fld)
    # every slope NaN: no step at all, rather than an infinite step
    fld.span_slope[fld.columns] = np.nan
    with pytest.raises(ValueError, match="non-finite slope bound"):
        stable_dt(fld)


def test_stable_dt_is_infinite_when_no_node_moves():
    # a constant sample has no curvature, so no node's value can change
    dom = ball(r=1.0, h=0.1)
    state = make_state(dom, lambda pts, t: np.ones(len(pts)),
                       OperatorConfig(p=1.0))
    assert stable_dt(ma_field(state.u, state.cfg)) == math.inf


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "stable_dt has no consistency cap: with no curvature the step is "
    "infinite, so evolve lands on t_end in one step while the band moves"))
def test_moving_band_data_reaches_a_flat_interior():
    # u0 = 0 with band data 5 t |x|^2: one step of 0.1 leaves all 307
    # interior nodes at 0 while the band reaches 0.82; steps capped at h^2
    # move every interior node, to a maximum of 0.391
    dom = ball(r=1.0, h=0.1)
    state = make_state(dom, lambda pts, t: 5.0 * t * np.sum(pts ** 2, axis=1),
                       OperatorConfig(p=1.0))
    res = evolve(state, t_end=0.1)
    assert np.max(res.snapshots[-1].values[dom.interior_mask()]) > 0.1


def test_snapshots_land_exactly():
    # a snapshot time within the 1e-12 tolerance above t_end is t_end: the
    # flow never steps past t_end, its final snapshot
    dom = ball(r=0.8, h=0.1)
    sol = quadratic_solution(np.eye(2), p=1.0)
    for t_end, times, want in [
            (0.031, [0.0123, 0.02, 0.031], [0.0123, 0.02, 0.031]),
            (0.01, [0.005, 0.01 + 5e-13], [0.005, 0.01])]:
        state = make_state(dom, sol, OperatorConfig(p=1.0))
        res = evolve(state, t_end=t_end, snapshot_times=times)
        assert [s.t for s in res.snapshots] == want
        assert res.state.t == t_end


def test_restart_is_bit_exact(tmp_path):
    dom = ball(r=0.8, h=0.1)
    sol = quadratic_solution(np.array([[1.4, 0.3], [0.3, 0.9]]), p=1.2)
    cfg = OperatorConfig(p=1.2)

    one = make_state(dom, sol, cfg)
    full = evolve(one, t_end=0.02, snapshot_times=[0.011, 0.02])

    two = make_state(dom, sol, cfg)
    evolve(two, t_end=0.011)
    path = tmp_path / "mid.csv"
    save_csv(two.u, path)
    mid = load_csv(path)
    resumed = EvolutionState(u=mid, cfg=cfg,
                             boundary=lambda pts, t: sol(pts, t))
    res2 = evolve(resumed, t_end=0.02)

    a = full.snapshots[-1]
    b = res2.snapshots[-1]
    assert a.t == b.t
    # same lattice content node-for-node, bit for bit
    mask = dom.active_mask()
    pts = dom.positions(mask)
    idx = np.rint((pts - b.domain.origin) / b.domain.h_grid).astype(int)
    assert np.array_equal(a.values[mask], b.values[tuple(idx.T)])


def test_interior_values_nondecrease():
    dom = ball(r=0.8, h=0.1)
    state = make_state(dom, cone_data(1.0), OperatorConfig(p=1.0), frozen=True)
    res = evolve(state, t_end=0.01, snapshot_times=[0.002, 0.01])
    v0 = sample(dom, cone_data(1.0)).values
    inner = dom.interior_mask()
    assert np.all(res.snapshots[0].values[inner] >= v0[inner] - 1e-15)
    assert np.all(res.snapshots[1].values[inner]
                  >= res.snapshots[0].values[inner] - 1e-15)


def test_a_planted_drop_names_its_node(monkeypatch):
    # the nondecreasing check names the interior node of the largest drop
    dom = ball(r=1.0, h=0.1)
    sol = quadratic_solution(np.eye(2), p=1.0)
    state = make_state(dom, sol, OperatorConfig(p=1.0))
    k = len(dom.interior_positions) // 3
    where = tuple(map(float, dom.interior_positions[k]))

    def dropping(u, cfg, **kw):
        fld = ma_field(u, cfg, **kw)
        fld.span_values[fld.columns[..., k]] = -1.0
        fld.span_values[fld.columns[..., k + 1]] = -0.5
        return fld

    monkeypatch.setattr(evolution, "ma_field", dropping)
    with pytest.raises(RuntimeError,
                       match=r"decreased by .* at node "
                       + re.escape(f"{where} by t = ")):
        evolve(state, t_end=0.01)



def test_evolve_pair_refuses_a_drop_as_evolve_does(monkeypatch):
    # one loop checks every member: a fall in the upper member of a pair is
    # named as it is for a single run
    dom = ball(r=1.0, h=0.1)
    sol = quadratic_solution(np.eye(2), p=1.0)
    cfg = OperatorConfig(p=1.0)
    k = len(dom.interior_positions) // 3
    where = tuple(map(float, dom.interior_positions[k]))

    def dropping(u, cfg, **kw):
        fld = ma_field(u, cfg, **kw)
        fld.span_values[fld.columns[-1, k]] = -1.0
        return fld

    monkeypatch.setattr(evolution, "ma_field", dropping)
    with pytest.raises(RuntimeError,
                       match=r"decreased by .* at node "
                       + re.escape(f"{where} by t = 0.01;")):
        evolve_pair(make_state(dom, sol, cfg), make_state(dom, sol, cfg),
                    t_end=0.01)


def test_loop_refuses_a_non_finite_operator_value_and_names_its_node(
        monkeypatch):
    dom = ball(r=1.0, h=0.1)
    sol = quadratic_solution(np.eye(2), p=1.0)
    k = len(dom.interior_positions) // 2
    where = tuple(map(float, dom.interior_positions[k]))

    def poisoned(u, cfg, **kw):
        fld = ma_field(u, cfg, **kw)
        fld.span_values[fld.columns[..., k]] = np.nan
        return fld

    monkeypatch.setattr(evolution, "ma_field", poisoned)
    with pytest.raises(ValueError, match=re.escape(
            f"non-finite operator value at node {where}")):
        evolve(make_state(dom, sol, OperatorConfig(p=1.0)), t_end=0.01)


def test_loop_refuses_non_finite_boundary_data():
    dom = ball(r=1.0, h=0.1)
    u = sample(dom, quadratic_solution(np.eye(2), p=1.0))
    state = EvolutionState(u=u, cfg=OperatorConfig(p=1.0),
                           boundary=lambda pts, t: np.full(len(pts), np.nan))
    with pytest.raises(ValueError, match="non-finite boundary data at t = "):
        evolve(state, t_end=0.01)


def _interior_steps(states, stops):
    """Snapshots of the stack at each stop, stepped as the operator's
    interior arrays are added through ``interior_index`` member by member:
    the reference for the loop's one add of the whole span per step."""
    dom, cfg = states[0].u.domain, states[0].cfg
    stack = GridStack(dom, np.stack([s.u.values for s in states]),
                      states[0].t)
    band = dom.band_mask()
    pts = dom.positions(band)
    snaps = []
    for stop in stops:
        while stack.t < stop:
            fld = ma_field(stack, cfg)
            sig = float(np.take(fld.span_slope, fld.columns).max())
            dt = math.inf if sig <= 0.0 else dom.h_grid ** 2 / sig
            rem = stop - stack.t
            if dt >= rem * (1.0 - 1e-12):
                dt, t_new = rem, stop
            else:
                t_new = stack.t + dt
            rate = np.take(fld.span_values, fld.columns) * dt
            for s, v, r in zip(states, stack.values, rate):
                v.reshape(-1)[dom.interior_index] += r
                if s.boundary is not None:
                    v[band] = np.asarray(s.boundary(pts, t_new), dtype=float)
            stack.t = t_new
        snaps.append(stack.values.copy())
    return snaps


_BALL = {"domain.center": [0.03, 0.0], "domain.radius": 1.0, "grid.h": 0.1}
_BOX = {"domain.kind": "box", "domain.lower": [-1.0, -1.0],
        "domain.upper": [1.0, 1.0], "grid.h": 0.1}


@pytest.mark.parametrize("configs,t_end", [
    # a pair on a ball (exterior NaN nodes), frozen band with one -0.0
    ([{**_BALL, "op.p": 1.0, "data.kind": "cone"},
      {**_BALL, "op.p": 1.0, "data.kind": "crease"}], 0.01),
    ([{**_BOX, "op.p": 0.4, "data.kind": "quadratic",
       "data.matrix": [[1.2, 0.1], [0.1, 0.8]]}], 0.05),
    # 3-D crease, a span of two blocks
    ([{"domain.kind": "box", "domain.lower": [-1.0] * 3,
       "domain.upper": [1.0] * 3, "grid.h": 0.0625, "op.p": 1.0,
       "data.kind": "crease"}], 8e-4),
    ([{**_BOX, "op.p": 1.0, "op.n_full": 4, "data.kind": "crease"}], 0.002),
    ([{**_BALL, "op.p": 1.0, "data.kind": "quadratic",
       "data.matrix": [[1.0, 0.2], [0.2, 1.5]],
       "op.b_expression": "1 + 0.3 * sin(2 * x1 + 300 * t)",
       "op.lambda": 0.7, "op.Lambda": 1.3}], 0.035),
    ([{**_BALL, "op.p": 2.0, "data.kind": kind} for kind in
      ("cone", "crease", "flat_disk")], 0.002),
], ids=["ball-pair", "box-p04", "crease-3d", "reduced-n4", "b-of-t",
        "stack-of-3"])
def test_span_step_matches_the_interior_step_bit_for_bit(configs, t_end):
    # the loop adds the operator's whole span, -0.0 off the interior, in
    # one call per step; every snapshot equals the member-by-member add of
    # the interior values, and no band or exterior bit moves that the
    # boundary data does not set
    configs = [{"data.radius": 0.3, **c} if c["data.kind"] == "flat_disk"
               else c for c in configs]
    states = [state_from_config(c) for c in configs]
    dom = states[0].u.domain
    frozen = states[0].boundary is None
    if dom.n == 3:
        assert dom.core.stop - dom.core.start > _BLOCK
    if frozen:
        # a band node between interior rows, inside the span
        band = np.flatnonzero(dom.band_mask())
        states[0].u.values.reshape(-1)[band[len(band) // 2]] = -0.0
    before = np.stack([s.u.values for s in states])
    reference = [EvolutionState(s.u.copy(), s.cfg, s.boundary)
                 for s in states]
    stops = [t_end / 3, 2 * t_end / 3, t_end]
    got = [np.stack([s.u.values for s in states])
           for _ in evolution._shared_steps(states, stops)]
    want = _interior_steps(reference, stops)
    assert states[0].steps >= 20
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    outside = ~dom.interior_mask() if frozen else ~dom.active_mask()
    assert np.array_equal(got[-1][:, outside].view(np.int64),
                          before[:, outside].view(np.int64))
    if frozen:
        assert (got[-1][0].view(np.int64) == np.int64(-2 ** 63)).any()


def test_loop_refuses_a_pair_at_two_times_or_a_stop_behind_it():
    dom = ball(r=1.0, h=0.1)
    sol = quadratic_solution(np.eye(2), p=1.0)
    cfg = OperatorConfig(p=1.0)
    with pytest.raises(ValueError, match="matching lattices and times"):
        evolve_pair(make_state(dom, sol, cfg),
                    make_state(dom, sol, cfg, t0=0.001), t_end=0.01)
    with pytest.raises(ValueError, match="not ahead"):
        evolve_pair(make_state(dom, sol, cfg), make_state(dom, sol, cfg),
                    t_end=0.0)
    with pytest.raises(ValueError, match="not ahead"):
        evolve(make_state(dom, sol, cfg), t_end=0.01, snapshot_times=[0.0])


@pytest.mark.parametrize("t_end,message", [(math.nan, "not ahead"),
                                           (math.inf, "not all finite")],
                         ids=["nan", "inf"])
def test_loop_refuses_an_end_time_that_is_not_finite(t_end, message):
    # a NaN end compares false with every time, so it stepped nothing and
    # returned the t = 0 sample; an infinite one never returned
    dom = ball(r=0.8, h=0.2)
    sol = quadratic_solution(np.eye(2), p=1.0)
    cfg = OperatorConfig(p=1.0)
    state = make_state(dom, sol, cfg)
    with pytest.raises(ValueError, match=message):
        evolve(state, t_end)
    with pytest.raises(ValueError, match="not ahead|not all finite"):
        evolve(state, t_end, snapshot_times=[0.01])
    with pytest.raises(ValueError, match=message):
        evolve_pair(state, make_state(dom, sol, cfg), t_end)
    assert state.steps == 0 and state.t == 0.0


def test_comparison_needs_one_lattice_not_one_shape():
    sol = quadratic_solution(np.eye(2), p=1.0)
    disk = sample(ball(r=1.0, h=0.1), sol)
    square = sample(build_domain({"kind": "box", "lower": [-1.0, -1.0],
                                  "upper": [1.0, 1.0]}, h_grid=0.1,
                                 stencil_radius=2), sol)
    assert disk.domain.shape == square.domain.shape
    with pytest.raises(ValueError, match="common lattice"):
        comparison_check(disk, square)

def test_evolve_validates_window():
    dom = ball(r=0.8, h=0.2)
    state = make_state(dom, quadratic_solution(np.eye(2), p=1.0),
                       OperatorConfig(p=1.0))
    with pytest.raises(ValueError, match="not ahead"):
        evolve(state, t_end=-1.0)
    with pytest.raises(ValueError, match="snapshot times"):
        evolve(state, t_end=0.1, snapshot_times=[0.2])


def test_stiff_state_detected():
    dom = ball(r=0.8, h=0.1)
    state = make_state(dom, cone_data(1e12), OperatorConfig(p=1.0),
                       frozen=True)
    with pytest.raises(ValueError, match="stiff state"):
        evolve(state, t_end=0.01)


def test_pair_stays_ordered():
    dom = ball(r=1.0, h=0.1)
    low = quadratic_solution(np.eye(2), p=1.0)
    up = quadratic_solution(np.array([[1.3, 0.2], [0.2, 1.1]]), p=1.0,
                            const=0.25)
    cfg = OperatorConfig(p=1.0)
    sa = make_state(dom, low, cfg)
    sb = make_state(dom, up, cfg)
    assert comparison_check(sa.u, sb.u).ordered
    ua, ub = evolve_pair(sa, sb, t_end=0.05)
    rep = comparison_check(ua, ub, tol=1e-10)
    assert rep.ordered, str(rep)


def test_pair_requires_matching_lattice():
    cfg = OperatorConfig(p=1.0)
    sol = quadratic_solution(np.eye(2), p=1.0)
    sa = make_state(ball(r=1.0, h=0.1), sol, cfg)
    sb = make_state(ball(r=1.0, h=0.2), sol, cfg)
    with pytest.raises(ValueError, match="matching lattices"):
        evolve_pair(sa, sb, t_end=0.01)
    # same shape, different node classes: the disk and its bounding square
    square = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                           "upper": [1.0, 1.0]}, h_grid=0.1, stencil_radius=2)
    sc = make_state(square, sol, cfg)
    assert sc.u.domain.shape == sa.u.domain.shape
    with pytest.raises(ValueError, match="matching lattices"):
        evolve_pair(sa, sc, t_end=0.01)
    # one lattice, two operators
    sd = make_state(ball(r=1.0, h=0.1), sol, OperatorConfig(p=2.0))
    with pytest.raises(ValueError, match="one operator config"):
        evolve_pair(sa, sd, t_end=0.01)


def test_coefficient_leaving_its_bounds_mid_run_names_the_time():
    # b = 1 + 100 t leaves [1, 2] just after t = 0.01
    b = CoefficientField(lambda pts, t: np.full(len(pts), 1.0 + 100.0 * t),
                         lam=1.0, Lam=2.0)
    cfg = OperatorConfig(p=1.0, b=b)
    dom = ball(r=1.0, h=0.1)
    sol = quadratic_solution(np.eye(2), p=1.0)
    leaves = r"coefficient leaves \[lam, Lam\] at t=0\.01"
    with pytest.raises(ValueError, match=leaves):
        evolve(make_state(dom, sol, cfg, frozen=True), t_end=0.05)
    with pytest.raises(ValueError, match=leaves):
        evolve_pair(make_state(dom, sol, cfg, frozen=True),
                    make_state(dom, sol, cfg, frozen=True), t_end=0.05)


def test_constant_coefficient_steps_like_an_evaluated_one():
    # CoefficientField.constant is applied as a scalar, an evaluator as an
    # array over the interior; both must give the same bytes
    dom = ball(r=1.0, h=0.1)
    M = np.array([[1.4, 0.3], [0.3, 0.9]])
    lo = quadratic_solution(M, p=0.7, b0=1.7)
    hi = quadratic_solution(M, p=0.7, b0=1.7, const=0.1)
    runs = []
    for b in (CoefficientField.constant(1.7),
              CoefficientField(lambda pts, t: np.full(len(pts), 1.7),
                               lam=1.7, Lam=1.7)):
        cfg = OperatorConfig(p=0.7, b=b)
        res = evolve(make_state(dom, lo, cfg), t_end=0.02,
                     snapshot_times=[0.01])
        pair = evolve_pair(make_state(dom, lo, cfg), make_state(dom, hi, cfg),
                           t_end=0.02)
        runs.append([u.values.tobytes() for u in res.snapshots + list(pair)])
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def test_scaling_factor_example():
    # A = 2 Id, h = 4, n = 2, p = 1: m = (det A)^2 / h = 16/4 = 4
    sm = ScalingMap(A=2.0 * np.eye(2), h=4.0, p=1.0)
    assert sm.m(2) == pytest.approx(4.0, rel=1e-14)


def test_rescaled_exact_solution_moves_at_the_rescaled_rate():
    # u = x^T M x / 2 + (det M)^p t sampled at t = 0 and t1 and pulled back
    # through v(x, s) = u(A x, m s) / h: v is the exact solution with
    # Hessian A^T M A / h, so its increment between the rescaled timestamps
    # is (det(A^T M A / h))^p times their difference.  Multilinear
    # interpolation carries the constant shift exactly, so only rounding
    # separates the two sides; a wrong exponent in m moves the timestamps
    p, h, t1 = 2.0, 1.7, 0.6
    A = np.array([[1.3, 0.4], [-0.2, 0.9]])
    M = np.array([[1.2, 0.3], [0.3, 0.8]])
    sm = ScalingMap(A=A, h=h, p=p)
    sol = quadratic_solution(M, p=p)
    dom, target = ball(r=1.3, h=0.05), ball(r=0.6, h=0.05)
    v0, v1 = (rescale(sample(dom, sol, t=t), sm, target) for t in (0.0, t1))
    assert v0.t == 0.0 and v1.t == t1 / sm.m(2)
    rate = np.linalg.det(A.T @ M @ A / h) ** p
    mask = target.active_mask()
    increment = v1.values[mask] - v0.values[mask]
    scale = np.abs(v1.values[mask]).max()
    np.testing.assert_allclose(increment, rate * (v1.t - v0.t), rtol=0.0,
                               atol=8 * np.finfo(float).eps * scale)



@pytest.mark.parametrize("A,h,message", [
    (np.eye(2), 0.0, "h > 0"), (np.eye(2), -1.0, "h > 0"),
    ([[1.0, 2.0], [2.0, 4.0]], 1.0, "invertible A"),
])
def test_scaling_map_refuses_a_degenerate_map(A, h, message):
    with pytest.raises(ValueError, match=message):
        ScalingMap(A=A, h=h, p=1.0)

def test_rescale_affine_exact_and_quadratic_close():
    dom = ball(r=1.3, h=0.05)
    target = ball(r=0.3, h=0.05)
    sm = ScalingMap(A=2.0 * np.eye(2), h=4.0, p=1.0)
    aff = sample(dom, lambda pts, t: 0.2 * pts[:, 0] - pts[:, 1] + 0.3, t=0.0)
    got = rescale(aff, sm, target)
    want = sample(target, lambda pts, t: (0.4 * pts[:, 0] - 2 * pts[:, 1] + 0.3) / 4.0)
    mask = target.active_mask()
    assert np.allclose(got.values[mask], want.values[mask], atol=1e-13)

    quad = sample(dom, lambda pts, t: 0.5 * (pts ** 2).sum(axis=1), t=0.08)
    got_q = rescale(quad, sm, target)
    assert got_q.t == pytest.approx(0.02, rel=1e-14)  # t/m with m = 4
    want_q = sample(target, lambda pts, t: 0.5 * (pts ** 2).sum(axis=1))
    err = np.abs(got_q.values[mask] - want_q.values[mask]).max()
    assert err <= 4.0 * dom.h_grid ** 2  # multilinear interpolation error


def test_rescale_preserves_ordering():
    dom = ball(r=1.3, h=0.05)
    target = ball(r=0.3, h=0.05)
    sm = ScalingMap(A=2.0 * np.eye(2), h=1.5, p=2.0)
    rng = np.random.default_rng(9)
    base = sample(dom, lambda pts, t: 0.5 * (pts ** 2).sum(axis=1))
    upper = base.copy()
    upper.values = upper.values + rng.uniform(0.0, 0.1, size=base.values.shape)
    ra = rescale(base, sm, target)
    rb = rescale(upper, sm, target)
    assert comparison_check(ra, rb, tol=1e-12).ordered


def test_rescale_rejects_escaping_map():
    dom = ball(r=1.0, h=0.1)
    target = ball(r=0.9, h=0.1)
    sm = ScalingMap(A=2.0 * np.eye(2), h=1.0, p=1.0)
    u = sample(dom, lambda pts, t: (pts ** 2).sum(axis=1))
    with pytest.raises(ValueError, match="leaves the source domain"):
        rescale(u, sm, target)

def test_initial_sample_survives_evolve():
    # the state advances a private copy: callers keep the pre-flow sample
    # for separation and dichotomy probes against the initial data
    dom = ball(r=1.0, h=0.1)
    sol = quadratic_solution(np.eye(2), p=1.0)
    u0 = sample(dom, sol, t=0.0)
    before = u0.values.copy()
    state = EvolutionState(u=u0, cfg=OperatorConfig(p=1.0),
                           boundary=lambda pts, t: sol(pts, t))
    res = evolve(state, t_end=0.05)
    assert u0.t == 0.0
    assert np.array_equal(u0.values, before, equal_nan=True)
    assert res.state.u is not u0
    assert res.state.u.t == 0.05


def test_initial_samples_survive_evolve_pair():
    dom = ball(r=1.0, h=0.1)
    lo = sample(dom, quadratic_solution(np.eye(2), p=1.0), t=0.0)
    hi = lo.copy(values=lo.values + 0.1)
    before = lo.values.copy()
    evolve_pair(EvolutionState(u=lo, cfg=OperatorConfig(p=1.0), boundary=None),
                EvolutionState(u=hi, cfg=OperatorConfig(p=1.0), boundary=None),
                t_end=0.02)
    assert lo.t == 0.0 and hi.t == 0.0
    assert np.array_equal(lo.values, before, equal_nan=True)


def test_degenerate_fringe_step_stays_bounded_for_p_below_one():
    # flat-disk data, p < 1: at the erosion fringe one curvature is tiny
    # but positive and the raw sensitivity det^(p-1) diverges; the
    # curvature floor h^2 must keep dt workable instead of underflowing
    from pma_lab.exact import flat_disk_data

    h = 0.05
    dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                        "upper": [1.0, 1.0]}, h_grid=h, stencil_radius=2)
    u0 = sample(dom, flat_disk_data(radius=0.4, slope=1.0), t=0.0)
    state = EvolutionState(u=u0, cfg=OperatorConfig(p=0.4), boundary=None)
    res = evolve(state, t_end=0.01)
    # bounded step count certifies the dt floor held well above underflow
    assert res.state.steps < 50_000
    # the floor alone lifts every node by t (h^4)^p; the centre rises more
    ctr = dom.index_of([0.0, 0.0])
    assert res.snapshots[-1].values[ctr] > 0.01 * (h ** 4) ** 0.4

