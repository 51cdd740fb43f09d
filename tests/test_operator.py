import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pma_lab import monge_ampere
from pma_lab.grid import (BAND, INTERIOR, CoefficientField, Domain,
                          GridFunction, GridStack, build_domain, sample)
from pma_lab.monge_ampere import (_BLOCK, VARIANTS, OperatorConfig, _Plan,
                                  _clamped_second_differences, _stencil,
                                  ma_field, orthogonal_frames,
                                  reduced_ma_field)


def box(n=2, half=1.5, h=0.25, w=2):
    return build_domain({"kind": "box", "lower": [-half] * n,
                         "upper": [half] * n}, h_grid=h, stencil_radius=w)


def quad(M):
    M = np.asarray(M, dtype=float)
    return lambda pts, t: 0.5 * np.einsum("...i,ij,...j->...", pts, M, pts)


def ma_at(u, point, cfg):
    """The operator field at the interior node nearest to ``point``."""
    idx = u.domain.index_of(point)
    assert u.domain.classes[idx] == INTERIOR
    return float(ma_field(u, cfg).values[idx])


def _second_difference(u, idx, e):
    """Delta^2_e u / (|e|^2 h^2) at lattice index ``idx``."""
    h, V = u.domain.h_grid, u.values
    e2 = sum(c * c for c in e)
    ip = tuple(i + c for i, c in zip(idx, e))
    im = tuple(i - c for i, c in zip(idx, e))
    return (V[ip] + V[im] - 2.0 * V[idx]) / (e2 * h * h)


def _radial_ratio(u, idx):
    """The reduced variant's u_r/r: the central difference, and on the
    axis its limit the second difference u_rr; and whether idx is on the
    axis."""
    dom, V = u.domain, u.values
    h, r = dom.h_grid, dom.coordinates(idx)[0]
    ip, im = (idx[0] + 1, idx[1]), (idx[0] - 1, idx[1])
    on_axis = abs(r) < 0.5 * h
    return (_second_difference(u, idx, (1, 0)) if on_axis
            else (V[ip] - V[im]) / (2.0 * h * r)), on_axis


def _floor(u, cfg):
    """The clamp of every curvature and of u_r/r: h^2 for p < 1, else 0."""
    return u.domain.h_grid ** 2 if cfg.p < 1.0 else 0.0


def pointwise_value(u, idx, cfg):
    """The operator at one node and its first minimising frame, frame by
    frame in scalar arithmetic: the reference the array kernel is checked
    against.  Every curvature is clamped at the floor f of :func:`_floor`.
    For the reduced variant every frame product carries the radial factor
    max(f, u_r/r)^(n_full-2), with u_r/r the central difference and, on the
    axis, its limit the second difference u_rr."""
    dom, f = u.domain, _floor(u, cfg)
    radial = 1.0
    if cfg.variant == "reduced":
        radial = max(_radial_ratio(u, idx)[0], f) ** (cfg.n_full - 2)
    best, arg = math.inf, None
    for k, frame in enumerate(orthogonal_frames(dom.n, cfg.width)):
        prod = 1.0
        for e in frame:
            prod *= max(_second_difference(u, idx, e), f)
        prod *= radial
        if prod < best:
            best, arg = prod, k
    x = dom.coordinates(idx)[None, :]
    return float(cfg.b(x, u.t)[0]) * best ** cfg.p, arg


def pointwise_slope(u, idx, cfg):
    """The slope at one node in curvature units, frame by frame in scalar
    arithmetic, with the factors F_i of each frame, clamped at the floor f
    of :func:`_floor`, and their centre weights w_i: 1/|e_i|^2 for a second
    difference and, for the reduced radial factor R = max(f,
    u_r/r)^(n_full-2), (n_full-2) max(f, u_r/r)^(n_full-3) on the axis
    (through u_rr) and 0 off it.  The tangent bound 2 max(p, 1) F(x)
    max_F sum_i w_i / F_i, and 0 where F(x) = 0."""
    dom, f = u.domain, _floor(u, cfg)
    radial = []
    if cfg.variant == "reduced":
        ratio, on_axis = _radial_ratio(u, idx)
        ratio, nf = max(ratio, f), cfg.n_full
        radial = [(ratio ** (nf - 2),
                   (nf - 2) * ratio ** (nf - 3) if on_axis else 0.0)]
    value = pointwise_value(u, idx, cfg)[0]
    if not value > 0.0:
        return 0.0
    best = 0.0
    for frame in orthogonal_frames(dom.n, cfg.width):
        factors = [(max(_second_difference(u, idx, e), f),
                    1.0 / sum(c * c for c in e)) for e in frame] + radial
        best = max(best, sum(w / F for F, w in factors))
    return 2.0 * max(cfg.p, 1.0) * value * best


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,width,count", [
    (2, 1, 2), (2, 2, 4), (2, 3, 8),
    (3, 1, 4), (3, 2, 10),
    (4, 1, 7), (4, 2, 19),
])
def test_frame_counts(n, width, count):
    assert len(orthogonal_frames(n, width)) == count


def test_frames_are_orthogonal_primitive_and_within_width():
    for n, width in [(2, 3), (3, 2), (4, 2)]:
        frames = orthogonal_frames(n, width)
        seen = set()
        for frame in frames:
            assert len(frame) == n
            key = frozenset(frozenset((e, tuple(-c for c in e))) for e in frame)
            assert key not in seen  # no duplicate frames up to sign
            seen.add(key)
            for i, e in enumerate(frame):
                assert max(abs(c) for c in e) <= width
                assert math.gcd(*[abs(c) for c in e]) == 1
                for f in frame[i + 1:]:
                    assert sum(a * b for a, b in zip(e, f)) == 0


# ---------------------------------------------------------------------------
# determinant values
# ---------------------------------------------------------------------------

def test_exact_on_axis_aligned_quadratic():
    dom = box(h=0.25)
    u = sample(dom, quad([[2, 0], [0, 3]]))
    cfg = OperatorConfig(p=1.0)
    assert ma_at(u, [0, 0], cfg) == pytest.approx(6.0, abs=1e-12)


def test_exact_on_diagonal_aligned_quadratic():
    # Hessian with eigenvectors along (1,1), (1,-1): the width-1 frames
    # already contain the eigenframe, so the min is exact
    R = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    M = R.T @ np.diag([2.0, 3.0]) @ R
    dom = box(h=0.25)
    u = sample(dom, quad(M))
    cfg = OperatorConfig(p=1.0, width=2)
    assert ma_at(u, [0, 0], cfg) == pytest.approx(6.0, abs=1e-12)


def test_hadamard_sandwich_on_random_quadratics():
    # every frame product of a convex quadratic dominates det (Hadamard),
    # and the axis frame gives exactly prod M_ii
    rng = np.random.default_rng(3)
    dom = box(h=0.25)
    cfg = OperatorConfig(p=1.0, width=2)
    for _ in range(20):
        A = rng.standard_normal((2, 2))
        M = A @ A.T + 0.2 * np.eye(2)
        u = sample(dom, quad(M))
        val = ma_at(u, [0, 0], cfg)
        det = float(np.linalg.det(M))
        assert val >= det - 1e-10 * max(1.0, det)
        assert val <= M[0, 0] * M[1, 1] + 1e-10


def test_misaligned_quadratic_overestimates():
    # eigenframe at 22.5 degrees is in no width-2 frame: strict overestimate
    th = math.radians(22.5)
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    M = R @ np.diag([0.2, 5.0]) @ R.T
    dom = box(h=0.25)
    u = sample(dom, quad(M))
    val = ma_at(u, [0, 0], OperatorConfig(p=1.0, width=2))
    assert val > np.linalg.det(M) + 1e-3


def test_zero_on_concave_and_power_p():
    dom = box(h=0.25)
    u = sample(dom, lambda pts, t: -0.5 * (pts ** 2).sum(axis=1))
    assert ma_at(u, [0, 0], OperatorConfig(p=1.0)) == 0.0
    v = sample(dom, quad([[2, 0], [0, 3]]))
    got = ma_at(v, [0, 0], OperatorConfig(p=0.4))
    assert got == pytest.approx(6.0 ** 0.4, rel=1e-12)


def test_coefficient_enters_linearly():
    dom = box(h=0.25)
    u = sample(dom, quad([[1, 0], [0, 1]]))
    b = CoefficientField(lambda pts, t: 2.0 + 0.0 * pts[:, 0], lam=2.0, Lam=2.0)
    cfg = OperatorConfig(p=3.0, b=b)
    assert ma_at(u, [0.25, 0.0], cfg) == pytest.approx(2.0, rel=1e-12)


def test_field_matches_pointwise_and_nan_pattern():
    dom = build_domain({"kind": "ball", "center": [0, 0], "radius": 1.2},
                       h_grid=0.15, stencil_radius=2)
    rng = np.random.default_rng(11)
    base = sample(dom, quad([[1.5, 0.4], [0.4, 1.0]]))
    base.values += 0.01 * rng.standard_normal(base.values.shape)
    cfg = OperatorConfig(p=1.3)
    fld = ma_field(base, cfg)
    inner = dom.interior_mask()
    assert np.all(np.isfinite(fld.values[inner]))
    assert np.all(np.isnan(fld.values[~inner]))
    for point in ([0, 0], [0.45, -0.3], [-0.6, 0.6]):
        idx = dom.index_of(point)
        assert fld.values[idx] == pytest.approx(
            pointwise_value(base, idx, cfg)[0], rel=1e-12)


@pytest.mark.parametrize("desc,h,p,variant", [
    ({"kind": "ball", "center": [0.1, -0.05], "radius": 1.0}, 0.1, 0.4,
     "plain"),
    ({"kind": "box", "lower": [-1.0] * 3, "upper": [1.0] * 3}, 0.25, 1.0,
     "plain"),
    ({"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, 0.1, 0.7,
     "reduced"),
], ids=["ball2d-p0.4", "box3d-p1", "rz-reduced-n4-p0.7"])
def test_field_matches_pointwise_value_at_every_interior_node(desc, h, p,
                                                              variant):
    # the field is computed on shifted slices of the lattice; an off-by-one
    # in a slice moves a stencil to the wrong node, which the node-by-node
    # scalar evaluation exposes
    dom = build_domain(desc, h_grid=h, stencil_radius=2)
    n = dom.n
    rng = np.random.default_rng(17)
    A = rng.standard_normal((n, n))
    M = A @ A.T + 0.3 * np.eye(n)
    if variant == "reduced":
        M[0, 1] = M[1, 0] = 0.0     # even in r, as the reduced data must be
    u = sample(dom, quad(M))
    u.values += 0.01 * rng.standard_normal(u.values.shape)
    cfg = OperatorConfig(p=p, variant=variant,
                         n_full=4 if variant == "reduced" else None)
    fld = ma_field(u, cfg, with_frames=True)
    inner = dom.interior_mask()
    assert np.isnan(fld.values[~inner]).all()
    assert np.isnan(fld.slope[~inner]).all()
    assert (fld.argmin_frame[~inner] == 255).all()
    assert np.isfinite(fld.values[inner]).all()
    assert np.isfinite(fld.slope[inner]).all()
    values, frames = zip(*(pointwise_value(u, tuple(i), cfg)
                           for i in np.argwhere(inner)))
    assert (fld.values[inner] > 0).mean() > 0.5
    np.testing.assert_allclose(fld.values[inner], values, rtol=1e-13,
                               atol=0.0)
    assert fld.argmin_frame[inner].tolist() == list(frames)


@pytest.mark.parametrize("case", [
    *[("plain", p, width, None) for p in (0.4, 1.0, 2.0)
      for width in (1, 2, 3)],
    ("plain", 80.0, 1, None), ("reduced", 0.7, 2, None),
    ("reduced", 1.0, 2, None), ("reduced", 1.0, 2, 0.2)],
    ids=lambda c: f"{c[0]}-p{c[1]}-w{c[2]}" + (f"-urr{c[3]}h2" if c[3]
                                               else ""))
def test_slope_matches_pointwise_slope_at_every_interior_node(case):
    # the frame loop scales each frame's raw product once and divides its
    # leave-one-out sum by the raw product; node by node, the slope must
    # equal the tangent bound summed in curvature units with its 1/|e|^2
    # weights (at p = 80 the constant c_F^(p-1) alone, 1e4^79, would
    # overflow a slope built from the power).  The last case is a radial
    # curvature u_rr in (0, h^2), which only p < 1 floors: at p >= 1 the
    # axis rate weight must come from the raw ratio
    variant, p, width, urr = case
    reduced = variant == "reduced"
    dom = _lattice(2, width, reduced)
    rng = np.random.default_rng(int(10 * p) + width)
    A = rng.standard_normal((2, 2))
    M = A @ A.T + 0.3 * np.eye(2)
    if reduced:
        M[0, 1] = M[1, 0] = 0.0
    if urr:
        M[0, 0] = urr * dom.h_grid ** 2
    u = sample(dom, quad(M), t=0.25)
    if not urr:
        u.values += 0.01 * rng.standard_normal(u.values.shape)
    if reduced:
        u.values = 0.5 * (u.values + u.values[::-1])
    cfg = OperatorConfig(p=p, width=width, variant=variant, b=_VARYING_B,
                         n_full=4 if reduced else None)
    fld = ma_field(u, cfg)
    inner = np.argwhere(dom.interior_mask())
    want = [pointwise_slope(u, tuple(i), cfg) for i in inner]
    got = fld.slope[tuple(inner.T)]
    assert (got > 0).mean() > 0.5
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


_LATTICES: dict = {}


def _lattice(n: int, width: int, axisymmetric: bool,
             twin: bool = False) -> Domain:
    """Built once per shape: a ball in n dimensions, or the (r, x_n) box
    of the reduced operator; a ``twin`` is a second build of the same
    lattice, with caches of its own."""
    key = (n, width, axisymmetric, twin)
    if key not in _LATTICES:
        desc = ({"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
                if axisymmetric else
                {"kind": "ball", "center": [0.03] * n, "radius": 1.0})
        _LATTICES[key] = build_domain(desc, h_grid=0.1 if n == 2 else 0.25,
                                      stencil_radius=width)
    return _LATTICES[key]


_VARYING_B = CoefficientField(
    lambda pts, t: 1.0 + 0.3 * np.sin(2.0 * pts[:, 0] + t), lam=0.7, Lam=1.3)


@given(n=st.sampled_from([2, 3]), width=st.integers(1, 3),
       p=st.sampled_from([0.4, 1.0, 2.0]), variant=st.sampled_from(VARIANTS),
       varying_b=st.booleans(), members=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_stack_matches_member_calls_byte_for_byte(n, width, p, variant,
                                                  varying_b, members, seed):
    reduced = variant == "reduced"
    if reduced:
        n = 2
    b = _VARYING_B if varying_b else CoefficientField.constant(1.0)
    cfg = OperatorConfig(p=p, width=width, variant=variant, b=b,
                         n_full=4 if reduced else None)
    dom = _lattice(n, width, reduced)
    rng = np.random.default_rng(seed)
    us = []
    for _ in range(members):
        A = rng.standard_normal((n, n))
        u = sample(dom, quad(A @ A.T + 0.3 * np.eye(n)), t=0.25)
        u.values += 1e-3 * rng.standard_normal(u.values.shape)
        us.append(u)
    stack = GridStack(dom, np.stack([u.values for u in us]), t=0.25)
    got = ma_field(stack, cfg, with_frames=True)
    inner = dom.interior_mask()
    for k, u in enumerate(us):
        want = ma_field(u, cfg, with_frames=True)
        for name in ("values", "slope", "argmin_frame"):
            assert getattr(got, name)[k].tobytes() == \
                getattr(want, name).tobytes(), name
        assert np.isnan(want.values[~inner]).all()
        assert np.isfinite(want.values[inner]).all()
        assert np.isnan(want.slope[~inner]).all()
        assert (want.argmin_frame[~inner] == 255).all()


def _span_length(u) -> int:
    # the span covers every member's core and the rims between
    dom = u.domain
    return dom.core.stop - dom.core.start + u.values.size - dom.classes.size


@pytest.mark.parametrize("varying_b", [False, True])
@pytest.mark.parametrize("p", [0.4, 1.0, 2.0])
@pytest.mark.parametrize("variant", VARIANTS)
def test_multi_block_stack_matches_member_calls_byte_for_byte(variant, p,
                                                              varying_b):
    # a stack whose span is longer than one block runs the frame loop block
    # by block, with members cut across block bounds; the span is odd, so
    # the second of its two equal blocks overlaps the first by a column.
    # Each member's output is still bit for bit its own one-block call, and
    # so it is on a second call, after the stack changed in place, through
    # the views the first call left
    reduced = variant == "reduced"
    n = 2 if reduced else 3
    dom = _lattice(n, 2, reduced)
    b = _VARYING_B if varying_b else CoefficientField.constant(1.0)
    cfg = OperatorConfig(p=p, variant=variant, b=b,
                         n_full=4 if reduced else None)
    rng = np.random.default_rng(int(10 * p))
    us = []
    for _ in range(_BLOCK // dom.classes.size + 5):
        A = rng.standard_normal((n, n))
        M = A @ A.T + 0.3 * np.eye(n)
        if reduced:
            M[0, 1] = M[1, 0] = 0.0
        u = sample(dom, quad(M), t=0.25)
        u.values += 1e-3 * rng.standard_normal(u.values.shape)
        us.append(u)
    stack = GridStack(dom, np.stack([u.values for u in us]), t=0.25)
    span = _span_length(stack)
    assert _BLOCK < span < 2 * _BLOCK and span % 2 == 1
    assert _span_length(us[0]) <= _BLOCK
    for _ in range(2):
        got = ma_field(stack, cfg, with_frames=True)
        for k, u in enumerate(us):
            want = ma_field(u, cfg, with_frames=True)
            for name in ("values", "slope", "argmin_frame"):
                assert getattr(got, name)[k].tobytes() == \
                    getattr(want, name).tobytes(), (k, name)
        stack.values += 1e-3 * rng.standard_normal(stack.values.shape)
        stack.t += 0.05
        us = [GridFunction(dom, v.copy(), stack.t) for v in stack.values]


def _same_fields(got, want) -> None:
    """Values, slopes and argmin frames byte for byte, on the span and on
    the lattice (NaN and frame 255 off the interior)."""
    for name in ("values", "slope", "argmin_frame", "span_values",
                 "span_slope", "span_frames", "columns"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        assert a is None or a.tobytes() == b.tobytes(), name


def _random_values(dom, rng, members, reduced):
    """Perturbed random convex quadratics (with no r x_n term on a reduced
    lattice): one member's values, or a stack of them."""
    n, out = dom.n, []
    for _ in range(members or 1):
        A = rng.standard_normal((n, n))
        M = A @ A.T + 0.3 * np.eye(n)
        if reduced:
            M[0, 1] = M[1, 0] = 0.0
        v = sample(dom, quad(M), t=0.25).values
        out.append(v + 1e-3 * rng.standard_normal(v.shape))
    return out[0] if members is None else np.stack(out)


def _on(dom, values, t):
    return (GridFunction if values.ndim == dom.n else GridStack)(
        dom, values, t)


@given(n=st.sampled_from([2, 3]), width=st.integers(1, 3),
       p=st.sampled_from([0.4, 1.0, 2.0]), variant=st.sampled_from(VARIANTS),
       varying_b=st.booleans(), members=st.sampled_from([None, 1, 2, 3]),
       with_frames=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_cached_views_follow_in_place_changes(n, width, p, variant,
                                              varying_b, members,
                                              with_frames, seed):
    # a call on the array the call before read reuses that call's views:
    # after the values change in place (interior and band) and t advances,
    # each call still equals, byte for byte, the call on a fresh copy of
    # the array on a second build of the lattice
    reduced = variant == "reduced"
    if reduced:
        n = 2
    b = _VARYING_B if varying_b else CoefficientField.constant(1.0)
    cfg = OperatorConfig(p=p, width=width, variant=variant, b=b,
                         n_full=4 if reduced else None)
    dom, twin = (_lattice(n, width, reduced, twin) for twin in (False, True))
    rng = np.random.default_rng(seed)
    u = _on(dom, _random_values(dom, rng, members, reduced), 0.25)
    plan = views = None
    for _ in range(3):
        got = ma_field(u, cfg, with_frames=with_frames)
        if plan is None:
            key = (("plan", width, p, variant, cfg.n_full), members)
            plan = dom.span_cache[key]
            views = plan.read
        assert plan.read is views
        _same_fields(got, ma_field(_on(twin, u.values.copy(), u.t), cfg,
                                   with_frames=with_frames))
        u.values += 1e-3 * rng.standard_normal(u.values.shape)
        u.t += 0.05


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("members", [None, 2])
def test_views_are_rebuilt_for_a_new_or_copied_input(members, variant):
    # replacing u.values with a new array, and changing a non-contiguous
    # input (which the operator copies) between two calls: each call
    # equals the call on a fresh copy, so views built on a copy are never
    # reused, even for the same input object
    reduced = variant == "reduced"
    n = 2 if reduced else 3
    cfg = OperatorConfig(p=1.0, variant=variant, n_full=4 if reduced else None)
    dom, twin = (_lattice(n, 2, reduced, twin) for twin in (False, True))
    rng = np.random.default_rng(7)
    u = _on(dom, _random_values(dom, rng, members, reduced), 0.25)
    ma_field(u, cfg)
    u.values = 1.01 * u.values
    _same_fields(ma_field(u, cfg),
                 ma_field(_on(twin, u.values.copy(), u.t), cfg))
    wide = np.repeat(u.values, 2, axis=-1)
    u.values = wide[..., ::2]
    assert not u.values.flags.c_contiguous
    for _ in range(2):
        _same_fields(ma_field(u, cfg),
                     ma_field(_on(twin, u.values.copy(), u.t), cfg))
        wide += 1e-3 * rng.standard_normal(wide.shape)


def _differences_at(u, offsets, cols):
    """The raw clamped second differences max(0, Delta^2_e u) of the
    directions at flattened ``offsets``, at the span columns ``cols``, one
    row per direction, in the kernel's order of operations."""
    flat = u.values.reshape(-1)
    at = u.domain.core.start + cols
    k = np.array(offsets)[:, None]
    return np.maximum(flat[at + k] + flat[at - k] - 2.0 * flat[at], 0.0)


@pytest.mark.parametrize("members", [None, 3])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_differences_at_columns_equal_the_span_rows(n, width, members,
                                                    monkeypatch):
    # the differences recomputed from the values at a few columns are bit
    # for bit the entries of the block rows each frame of the loop fills
    # and reads, in every block of a span planned in three blocks
    dom = _lattice(n, width, False)
    rng = np.random.default_rng(10 * n + width)
    us = []
    for _ in range(members or 1):
        A = rng.standard_normal((n, n))
        u = sample(dom, quad(A @ A.T + 0.3 * np.eye(n)), t=0.25)
        u.values += 1e-3 * rng.standard_normal(u.values.shape)
        us.append(u)
    u = us[0] if members is None else GridStack(
        dom, np.stack([v.values for v in us]), t=0.25)
    monkeypatch.setattr(monge_ampere, "_BLOCK", _span_length(u) // 3 + 1)
    plan = _Plan(dom, OperatorConfig(p=1.0, width=width), members)
    sten = _stencil(dom.shape, width, dom.stencil_radius)
    inner = plan.inner.reshape(-1)
    blocks = 0
    for lo, hi, centre, fills, _ in plan.views(u):
        here = inner[(inner >= lo) & (inner < hi)]
        cols = rng.choice(here, size=min(15, here.size), replace=False)
        blocks += cols.size > 0
        got = _differences_at(u, sten.offsets, cols)
        for k, frame in enumerate(sten.frames):
            _clamped_second_differences(fills[k], 2.0 * centre)
            for d, row in zip(frame, plan.frames[k][1]):
                assert got[d].tobytes() == row[cols - lo].tobytes(), (k, d)
    assert len(plan.blocks) == 3 and blocks >= 2


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fill_plan_fills_each_row_before_its_frames_read_it(n, width):
    # every direction is differenced once, at or before each frame that
    # reads it, and its row is not refilled until the last of those frames
    # has read it; the directions several frames read keep the first rows,
    # the others share at most n scratch rows after them.  A frame fills
    # pairs of consecutive rows of one work array as one block: every frame
    # in 2-D and every planar frame in 3-D and up fills one pair
    sten = _stencil((9,) * n, width, width)
    readers = [sum(d in f for f in sten.frames)
               for d in range(len(sten.offsets))]
    assert sten.shared == tuple(d for d, k in enumerate(readers) if k > 1)
    assert sten.scratch == max(sum(readers[d] == 1 for d in f)
                               for f in sten.frames) <= n
    held = {}
    last = {d: max(k for k, f in enumerate(sten.frames) if d in f)
            for d in range(len(sten.offsets))}
    filled = []
    for k, (frame, rows) in enumerate(zip(sten.frames, sten.rows)):
        if n == 2 or k > 0:
            assert [len(ds) for _, ds in sten.fills[k]] == [2]
        for r0, ds in sten.fills[k]:
            ns = len(sten.shared)
            assert len(ds) <= 2 and (r0 < ns) == (r0 + len(ds) - 1 < ns)
            for r, d in enumerate(ds, r0):
                assert r < ns + sten.scratch
                if r in held:
                    assert last[held[r]] < k, (k, r)
                held[r] = d
                filled.append(d)
        for r, d in zip(rows, frame):
            assert held[r] == d, (k, r, d)
            assert (r < len(sten.shared)) == (d in sten.shared)
    assert sorted(filled) == list(range(len(sten.offsets)))


def _plan_rows(dom, p, members) -> tuple:
    """The plain width-2 plan of ``dom`` and its work rows by name, the
    difference rows as the whole arrays its fill groups are cut from."""
    plan = dom.span_cache[(("plan", 2, p, "plain", None), members)]
    rows = {name: getattr(plan, name) for name in ("twice", "prod", "rate")}
    for k, (groups, *_) in enumerate(plan.frames):
        for g, (out, *_) in enumerate(groups):
            rows[f"diff {k}.{g}"] = out.base
    return plan, rows


@pytest.mark.parametrize("n,p", [(3, 0.4), (3, 1.0), (3, 2.0), (2, 0.4),
                                 (2, 1.0)])
def test_work_arrays_hold_a_few_rows(n, p):
    # only the directions several frames read (the axes in 3-D, none in
    # 2-D) keep a block row; the others share at most n scratch rows, and
    # each frame's rate is divided in place.  A p < 1 plan holds the same
    # rows as a p >= 1 plan: its floors are one column per fill group.
    # On a span of several blocks no work array is longer than one block
    dom = build_domain({"kind": "ball", "center": [0.03] * n,
                        "radius": 1.0}, h_grid=0.1 if n == 2 else 0.25,
                       stencil_radius=2)
    A = np.random.default_rng(n).standard_normal((n, n))
    u = sample(dom, quad(A @ A.T + 0.3 * np.eye(n)))
    ma_field(u, OperatorConfig(p=p))
    sten = _stencil(dom.shape, 2, dom.stencil_radius)
    assert len(sten.shared) == (3 if n == 3 else 0)
    assert len(sten.offsets) == (21 if n == 3 else 8)
    rows = max(len(sten.shared), n)
    plan, work = _plan_rows(dom, p, None)
    for name, a in work.items():
        assert (1 if a.ndim == 1 else a.shape[0]) <= rows, name
    ma_field(u, OperatorConfig(p=1.0))
    plan1, work1 = _plan_rows(dom, 1.0, None)
    assert vars(plan).keys() == vars(plan1).keys()
    assert {name: a.shape for name, a in work.items()} == \
        {name: a.shape for name, a in work1.items()}
    members = _BLOCK // dom.classes.size + 2
    stack = GridStack(dom, np.stack([u.values] * members))
    assert _span_length(stack) > _BLOCK
    ma_field(stack, OperatorConfig(p=p))
    for name, a in _plan_rows(dom, p, members)[1].items():
        assert (1 if a.ndim == 1 else a.shape[0]) <= rows, name
        assert a.shape[-1] <= _BLOCK, name


def test_work_arrays_carry_nothing_between_calls():
    # each plan owns its work rows, aliased only within itself (each frame
    # divides its rate in place): each
    # call in a mixed sequence on one lattice equals the same call on a
    # lattice that has never run the operator
    desc = {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    shared = build_domain(desc, h_grid=0.1, stencil_radius=2)
    values = sample(shared, quad([[1.3, 0.0], [0.0, 0.7]])).values
    values += 1e-3 * np.random.default_rng(3).standard_normal(values.shape)
    calls = [OperatorConfig(p=p, variant=variant,
                            n_full=4 if variant == "reduced" else None)
             for variant in VARIANTS for p in (0.4, 1.0, 2.0)]
    for cfg in calls + calls[::-1]:
        fresh = build_domain(desc, h_grid=0.1, stencil_radius=2)
        got = ma_field(GridFunction(shared, values.copy()), cfg,
                       with_frames=True)
        want = ma_field(GridFunction(fresh, values.copy()), cfg,
                        with_frames=True)
        for name in ("values", "slope", "argmin_frame"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), (cfg, name)


@given(n=st.sampled_from([2, 3]), width=st.integers(1, 3),
       p=st.floats(0.2, 3.0), varying_b=st.booleans(),
       bump=st.floats(1e-6, 0.1), seed=st.integers(0, 2 ** 16))
def test_monotone_in_neighbor_values(n, width, p, varying_b, bump, seed):
    # raising any stencil neighbour of a node never lowers the operator
    # there: the clamped second differences, the frame products, their
    # minimum, the power and b are each nondecreasing in it
    dom = _lattice(n, width, False)
    b = _VARYING_B if varying_b else CoefficientField.constant(1.0)
    cfg = OperatorConfig(p=p, width=width, b=b)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    u = sample(dom, quad(A @ A.T + 0.3 * np.eye(n)), t=0.25)
    u.values += 1e-3 * rng.standard_normal(u.values.shape)
    inner = np.argwhere(dom.interior_mask())
    node = tuple(inner[rng.integers(len(inner))])
    before = ma_field(u, cfg).values[node]
    bumped = u.copy()
    for frame in orthogonal_frames(n, width):
        for e in frame:
            for sign in (1, -1):
                nb = tuple(i + sign * c for i, c in zip(node, e))
                bumped.values[nb] += bump
                assert ma_field(bumped, cfg).values[node] >= before, nb
                bumped.values[nb] = u.values[nb]


def test_field_rejects_interior_on_the_lattice_edge():
    # the slices assume every interior node lies stencil_radius nodes
    # inside the lattice; a lattice that breaks that must fail loudly
    classes = np.full((6, 6), BAND, dtype=np.uint8)
    classes[1:5, 1:5] = INTERIOR
    dom = Domain(h_grid=0.1, classes=classes, stencil_radius=2,
                 axis_coords=(0.1 * np.arange(6),) * 2)
    u = GridFunction(dom, np.zeros((6, 6)))
    with pytest.raises(ValueError, match="lattice edge"):
        ma_field(u, OperatorConfig(p=1.0, width=1))



@pytest.mark.parametrize("kw,message", [
    ({"p": 0.0}, "exponent p must be positive"),
    ({"p": -0.5}, "exponent p must be positive"),
    ({"p": 1.0, "width": 4}, "stencil width must be 1, 2 or 3"),
    ({"p": math.inf}, "exponent p must be positive and finite"),
    ({"p": math.nan}, "exponent p must be positive and finite"),
])
def test_operator_config_refuses_bad_values(kw, message):
    with pytest.raises(ValueError, match=message):
        OperatorConfig(**kw)


def test_operator_wider_than_the_lattice_radius_is_refused():
    u = sample(box(w=2), quad(np.eye(2)))
    with pytest.raises(ValueError, match="operator width exceeds"):
        ma_field(u, OperatorConfig(p=1.0, width=3))

def test_slope_field_on_identity_quadratic():
    # for u = |x|^2/2, p=1: the axis frame dominates the slope bound with
    # sum_i 2/|e_i|^2 * prod_{j!=i} D_j = 4
    dom = box(h=0.25)
    u = sample(dom, quad([[1, 0], [0, 1]]))
    fld = ma_field(u, OperatorConfig(p=1.0))
    inner = dom.interior_mask()
    assert np.allclose(fld.slope[inner], 4.0, atol=1e-12)
    # p = 2 doubles it through the outer power (prod = 1)
    fld2 = ma_field(u, OperatorConfig(p=2.0))
    assert np.allclose(fld2.slope[inner], 8.0, atol=1e-12)


# ---------------------------------------------------------------------------
# reduced (axisymmetric) operator
# ---------------------------------------------------------------------------

def rz_domain(R=1.0, Y=1.0, h=0.1):
    return build_domain({"kind": "box", "lower": [-R, -Y], "upper": [R, Y]},
                        h_grid=h, stencil_radius=2)


def test_reduced_on_paraboloid():
    # u = (r^2 + x_n^2)/2 represents |x|^2/2 in any dimension: u_r/r = 1,
    # planar determinant 1, so the reduced value is 1 everywhere, axis included
    dom = rz_domain()
    u = sample(dom, quad([[1, 0], [0, 1]]))
    for nf in (3, 4, 5):
        cfg = OperatorConfig(p=1.0, variant="reduced", n_full=nf)
        fld = reduced_ma_field(u, cfg)
        inner = dom.interior_mask()
        assert np.allclose(fld.values[inner], 1.0, atol=1e-12)
        assert ma_at(u, [0.0, 0.0], cfg) == pytest.approx(1.0, abs=1e-12)


def test_reduced_anisotropic_scaling():
    # u = (a r^2 + c x_n^2)/2: value = (a^(nf-2) * a c)^p away from sign issues
    a, c = 2.0, 0.5
    dom = rz_domain(h=0.125)
    u = sample(dom, quad([[a, 0], [0, c]]))
    cfg = OperatorConfig(p=1.0, variant="reduced", n_full=4)
    want = a ** 2 * (a * c)
    assert ma_at(u, [0.25, 0.25], cfg) == pytest.approx(want, rel=1e-10)


def test_reduced_axis_uses_second_derivative_limit():
    # at r = 0 the ratio u_r/r must become the second difference; for
    # u = (a r^2 + c x_n^2)/2 that is a, not a 0/0
    a, c = 3.0, 1.0
    dom = rz_domain(h=0.125)
    u = sample(dom, quad([[a, 0], [0, c]]))
    cfg = OperatorConfig(p=1.0, variant="reduced", n_full=3)
    assert ma_at(u, [0.0, 0.25], cfg) == pytest.approx(a * a * c, rel=1e-10)


def test_reduced_requires_embedding_dimension():
    with pytest.raises(ValueError, match="n_full"):
        OperatorConfig(p=1.0, variant="reduced")


def test_reduced_flat_sliver_value_is_zero():
    # data equal to |x_n| near the axis: every frame has a vanishing factor
    # in the flat directions once the radial factor clamps
    dom = rz_domain(h=0.1)
    u = sample(dom, lambda pts, t: np.abs(pts[:, 1]))
    cfg = OperatorConfig(p=1.0, variant="reduced", n_full=4)
    fld = reduced_ma_field(u, cfg)
    # off the ridge x_n = 0 the function is locally affine: value 0
    idx = dom.index_of([0.3, 0.4])
    assert fld.values[idx] == 0.0


@pytest.mark.xfail(strict=True, reason=(
    "the radial ratio is the central difference (u(r+h) - u(r-h))/(2hr) "
    "(monge_ampere._radial_factors), so the radial factor falls when "
    "u(r-h) rises"))
def test_reduced_monotone_in_neighbor_values():
    # u = r^8 + z^2: raising u(0.4, 0.2) by 1e-3 lowers F(0.5, 0.2) from
    # 0.050224 to 0.048779
    dom = rz_domain(h=0.1)
    u = sample(dom, lambda pts, t: pts[:, 0] ** 8 + pts[:, 1] ** 2)
    cfg = OperatorConfig(p=1.0, variant="reduced", n_full=4)
    before = ma_at(u, [0.5, 0.2], cfg)
    bumped = u.copy()
    bumped.values[dom.index_of([0.4, 0.2])] += 1e-3
    assert ma_at(bumped, [0.5, 0.2], cfg) >= before
