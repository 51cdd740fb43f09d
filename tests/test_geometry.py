"""Sections, inscribed ellipsoids, balancedness, conjugates, flat sets."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

from pma_lab import build_domain, gradient_field, sample
from pma_lab import geometry
from pma_lab.config import make_state
from pma_lab.experiments import REGISTRY
from pma_lab.geometry import (
    BalancednessCertificate,
    Ellipsoid,
    _hull_facets,
    _max_volume_shape,
    balancedness,
    centered_section,
    flat_set,
    john_ellipsoid,
    legendre,
    save_ellipsoid,
    save_section,
    section_at,
    unit_ball_volume,
)


def box_domain(half, h, n=2):
    return build_domain({"kind": "box", "lower": [-half] * n,
                         "upper": [half] * n}, h)


def paraboloid(x, t):
    return 0.5 * np.sum(x ** 2, axis=1)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def test_section_of_paraboloid_is_lattice_ball():
    dom = box_domain(1.5, 0.25)
    u = sample(dom, paraboloid)
    sec = section_at(u, [0.0, 0.0], 0.5)
    # {y : half |y|^2 <= half} = closed unit ball; count its 0.25-lattice nodes
    assert len(sec) == 49
    pos = sec.positions
    assert np.all(np.sum(pos ** 2, axis=1) <= 1.0 + 1e-8)
    assert np.allclose(sec.center_of_mass, 0.0)
    assert not sec.touches_boundary


def test_section_membership_and_mean_invariants():
    dom = box_domain(1.5, 0.1)
    u = sample(dom, lambda x, t: 0.5 * (2 * x[:, 0] ** 2 + x[:, 1] ** 2))
    slope = np.array([0.3, -0.2])
    sec = section_at(u, [0.0, 0.0], 0.2, slope=slope)
    pos = sec.positions
    vals = u.values[tuple(sec.indices.T)]
    u0 = u.values[dom.index_of([0, 0])]
    assert np.all(vals <= u0 + pos @ slope + 0.2 + 1e-8)
    assert np.allclose(sec.center_of_mass, pos.mean(axis=0))


def test_section_one_dimensional_cone():
    dom = build_domain({"kind": "box", "lower": [-1.0], "upper": [1.0]}, 0.1)
    u = sample(dom, lambda x, t: np.abs(x[:, 0]))
    sec = section_at(u, [0.0], 0.3)
    assert len(sec) == 7
    assert np.all(np.abs(sec.positions[:, 0]) <= 0.3 + 1e-9)


def test_section_nesting_in_height():
    dom = box_domain(1.5, 0.1)
    u = sample(dom, lambda x, t: 0.5 * np.sum(x ** 2, axis=1) + 0.2 * x[:, 0])
    slope = np.array([0.1, 0.05])
    small = section_at(u, [0.0, 0.0], 0.02, slope=slope)
    big = section_at(u, [0.0, 0.0], 0.08, slope=slope)
    small_set = {tuple(i) for i in small.indices}
    big_set = {tuple(i) for i in big.indices}
    assert small_set <= big_set


def test_section_boundary_flag_and_bad_base():
    dom = box_domain(1.0, 0.25)
    u = sample(dom, paraboloid)
    wide = section_at(u, [0.0, 0.0], 5.0)
    assert wide.touches_boundary
    with pytest.raises(ValueError, match="not an active lattice node"):
        section_at(u, [7.0, 0.0], 0.1)
    with pytest.raises(ValueError, match="height must be positive"):
        section_at(u, [0.0, 0.0], -0.1)


def test_centered_section_tilted_paraboloid():
    # u = half|x|^2 + x1: the sub-level set of u - p.y is a disk centered at
    # p - e1, so the centered slope is exactly e1 and the mean returns to 0
    dom = box_domain(1.5, 0.25)
    u = sample(dom, lambda x, t: 0.5 * np.sum(x ** 2, axis=1) + x[:, 0])
    sec = centered_section(u, [0.0, 0.0], 0.3)
    assert np.linalg.norm(sec.center_of_mass) <= 2 * dom.h_grid
    assert np.allclose(sec.slope, [1.0, 0.0], atol=0.05)


def test_centered_section_symmetric_flat_cone():
    dom = box_domain(1.5, 0.1)
    u = sample(dom, lambda x, t: np.maximum(0.0, np.linalg.norm(x, axis=1) - 0.5))
    sec = centered_section(u, [0.0, 0.0], 0.2)
    assert np.linalg.norm(sec.slope) <= 0.1
    assert np.linalg.norm(sec.center_of_mass) <= 2 * dom.h_grid


def test_centered_section_asymmetric_needs_iterations():
    # one branch 160x stiffer than the other: the gradient start (slope 0)
    # leaves the center of mass far off, so the tilt must be found iteratively
    dom = box_domain(2.0, 0.05)
    u = sample(dom, lambda x, t: np.where(x[:, 0] < 0, 0.05 * x[:, 0] ** 2,
                                          8.0 * x[:, 0] ** 2)
               + 0.5 * x[:, 1] ** 2)
    start = section_at(u, [0.0, 0.0], 0.2)
    assert np.linalg.norm(start.center_of_mass) > 2 * dom.h_grid
    sec = centered_section(u, [0.0, 0.0], 0.2)
    assert np.linalg.norm(sec.center_of_mass) <= 2 * dom.h_grid
    assert sec.slope[0] > 0.1  # tilts toward the stiff branch
    with pytest.raises(ValueError, match="centering failed"):
        centered_section(u, [0.0, 0.0], 0.2, max_iter=1)


def test_centered_section_boundary_refusal():
    dom = box_domain(1.0, 0.25)
    u = sample(dom, paraboloid)
    with pytest.raises(ValueError, match="touches the boundary band"):
        centered_section(u, [0.0, 0.0], 5.0)


def test_centered_section_refuses_a_band_base_node_up_front():
    # the gradient there is NaN, and a NaN slope would read as an empty
    # section; the base node is a member of its own section, so any height
    # touches the band
    dom = box_domain(1.0, 0.25)
    u = sample(dom, paraboloid)
    edge = [1.0, 0.0]
    assert dom.band_mask()[dom.index_of(edge)]
    assert np.isnan(gradient_field(u)[dom.index_of(edge)]).all()
    with pytest.raises(ValueError, match="empty section"):
        section_at(u, edge, 0.01, slope=[np.nan, np.nan])
    assert section_at(u, edge, 0.01).touches_boundary
    for height in (0.01, 5.0):
        with pytest.raises(ValueError, match="^section touches the boundary "
                           "band; centering not attempted$"):
            centered_section(u, edge, height)


# ---------------------------------------------------------------------------
# inscribed ellipsoids
# ---------------------------------------------------------------------------

def test_john_square_gives_unit_disk():
    g = np.linspace(-1, 1, 9)
    pts = np.array([[a, b] for a in g for b in g])
    ell = john_ellipsoid(pts, [0.0, 0.0])
    assert np.allclose(ell.shape_matrix, np.eye(2), atol=1e-7)
    assert abs(ell.volume - np.pi) <= 1e-6
    ell.validate()


def test_john_lattice_ball_stays_near_unit_ball():
    dom = build_domain({"kind": "ball", "center": [0, 0], "radius": 1.0}, 0.1)
    pts = dom.positions(dom.interior_mask())
    ell = john_ellipsoid(pts, [0.0, 0.0])
    ev = np.linalg.eigvalsh(ell.shape_matrix)
    # hull of interior lattice nodes is the ball shaved by at most ~2h
    assert ev[0] >= (1 - 2 * dom.h_grid) ** 2
    assert ev[1] <= 1.0 + 1e-9


def test_john_triangle_matches_analytic_and_brute_force():
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    center = np.array([1.0, 1.0])  # centroid
    ell = john_ellipsoid(tri, center)
    # constraints q11 <= 1, q22 <= 1, q11 + q22 + 2 q12 <= 1 maximize det at
    # M = [[1, -1/2], [-1/2, 1]]
    assert np.allclose(ell.shape_matrix, [[1, -0.5], [-0.5, 1]], atol=1e-6)
    # brute-force grid search over 2x2 SPD matrices under the same facets
    hull = ConvexHull(tri)
    a = hull.equations[:, :-1]
    b = -hull.equations[:, -1]
    z = a / (b - a @ center)[:, None]
    best = 0.0
    for q11 in np.linspace(0.5, 1.0, 21):
        for q22 in np.linspace(0.5, 1.0, 21):
            for q12 in np.linspace(-0.8, 0.0, 33):
                m = np.array([[q11, q12], [q12, q22]])
                if np.linalg.eigvalsh(m)[0] <= 0:
                    continue
                if np.max(np.einsum("ij,jk,ik->i", z, m, z)) > 1.0:
                    continue
                best = max(best, np.pi * np.sqrt(np.linalg.det(m)))
    assert ell.volume >= best - 0.05 * best
    assert abs(ell.volume - np.pi * np.sqrt(0.75)) <= 1e-6


def test_john_perturbation_oracle():
    # no feasible candidate from 1000 random SPD perturbations beats the
    # returned ellipsoid by more than 1% in volume
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    center = np.array([1.0, 1.0])
    ell = john_ellipsoid(tri, center)
    hull = ConvexHull(tri)
    a = hull.equations[:, :-1]
    b = -hull.equations[:, -1]
    z = a / (b - a @ center)[:, None]
    rng = np.random.default_rng(2470)
    best = 0.0
    for _ in range(1000):
        w = 0.15 * rng.normal(size=(2, 2))
        m = ell.shape_matrix + 0.5 * (w + w.T)
        if np.linalg.eigvalsh(m)[0] <= 0:
            continue
        m = m / np.max(np.einsum("ij,jk,ik->i", z, m, z))
        best = max(best, np.pi * np.sqrt(np.linalg.det(m)))
    assert best <= 1.01 * ell.volume


def test_john_affine_equivariance():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 2))
    lin = np.array([[2.0, 0.7], [-0.3, 1.1]])
    c = pts.mean(axis=0)
    base = john_ellipsoid(pts, c)
    mapped = john_ellipsoid(pts @ lin.T, lin @ c)
    assert np.allclose(mapped.shape_matrix, lin @ base.shape_matrix @ lin.T,
                       atol=1e-9 * base.volume + 1e-9)
    assert np.isclose(mapped.volume, abs(np.linalg.det(lin)) * base.volume,
                      rtol=1e-9)


def test_john_square_symmetric_lattice_gives_inscribed_disk():
    # lattice nodes of the disk |x| <= 1 (h = 0.1): the hull has the
    # symmetries of the square, so the John ellipsoid about the origin is the
    # largest disk inside the hull, whose radius is the nearest facet distance
    ax = np.arange(-10, 11) * 0.1
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    pts = grid[np.sum(grid ** 2, axis=1) <= 1.0 + 1e-12]
    hull = ConvexHull(pts)
    disk = np.pi * float(np.min(-hull.equations[:, -1])) ** 2
    ell = john_ellipsoid(pts, [0.0, 0.0])
    assert ell.volume >= disk * (1 - 1e-12)
    assert ell.volume <= disk * (1 + 1e-12)
    assert 0 < ell.iterations < 1000
    assert -1e-15 <= ell.gap <= 2 * np.log1p(1e-10)


def test_john_satisfies_kkt_on_seeded_hulls():
    # optimality checked apart from the solver: on the facets recomputed by
    # ConvexHull, M^{-1} must be a nonnegative combination of z z' over the
    # constraints z' M z <= 1 that are active at the returned M
    rng = np.random.default_rng(2024)
    for n, count in ((2, 12), (3, 6)):
        for _ in range(count):
            pts = rng.normal(size=(int(rng.integers(n + 3, 40)), n))
            pts = pts @ (rng.normal(size=(n, n)) + 1.5 * np.eye(n)).T
            hull = ConvexHull(pts)
            c = pts[hull.vertices].mean(axis=0)
            ell = john_ellipsoid(pts, c)
            a, b = hull.equations[:, :-1], -hull.equations[:, -1]
            z = a / (b - a @ c)[:, None]
            load = np.einsum("ij,jk,ik->i", z, ell.shape_matrix, z)
            assert load.max() <= 1.0 + 1e-12
            active = z[load >= 1.0 - 1e-8]
            target = np.linalg.inv(ell.shape_matrix)
            cols = np.stack([np.outer(v, v).ravel() for v in active], axis=1)
            _, resid = nnls(cols, target.ravel())
            assert resid <= 1e-8 * np.linalg.norm(target)
            assert ell.gap <= n * np.log1p(1e-10)


def test_john_solver_reports_when_it_stops_short(monkeypatch):
    pts = np.random.default_rng(3).normal(size=(30, 2))
    normals, offsets = _hull_facets(pts)
    slack = offsets - normals @ pts.mean(axis=0)
    assert _max_volume_shape(normals, slack, 2)[1] > 3
    monkeypatch.setattr(geometry, "JOHN_MAX_ITER", 3)
    with pytest.raises(RuntimeError, match=r"3 iterations: log-det gap \d"):
        _max_volume_shape(normals, slack, 2)


def test_john_degenerate_and_exterior_center():
    line = np.array([[t, 2 * t] for t in np.linspace(0, 1, 17)])
    with pytest.raises(ValueError, match="flat set, no interior ellipsoid"):
        john_ellipsoid(line, [0.5, 1.0])
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    with pytest.raises(ValueError, match="base point not interior"):
        john_ellipsoid(tri, [3.0, 3.0])
    with pytest.raises(ValueError, match="base point not interior"):
        john_ellipsoid(tri, [0.0, 0.0])  # a vertex is not interior


def test_ellipsoid_volume_invariant():
    ell = Ellipsoid.from_shape([0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
    assert np.isclose(ell.volume, 2 * np.pi, rtol=1e-12)
    with pytest.raises(ValueError, match="positive definite"):
        Ellipsoid.from_shape([0.0], [[-1.0]])
    bad = Ellipsoid(center=ell.center, shape_matrix=ell.shape_matrix,
                    volume=ell.volume * 1.001)
    with pytest.raises(ValueError, match="volume"):
        bad.validate()
    assert np.isclose(unit_ball_volume(3), 4 * np.pi / 3, rtol=1e-14)


# ---------------------------------------------------------------------------
# balancedness
# ---------------------------------------------------------------------------

def test_balancedness_of_interval():
    pts = np.arange(-1.0, 3.0 + 1e-12, 0.5)
    cert = balancedness(pts, [0.0])
    # the largest centered interval inside [-1, 3] is [-1, 1]; mapping it to
    # B_1 leaves the far endpoint at distance 3
    assert np.isclose(cert.d, 3.0, rtol=1e-9)
    assert np.isclose(cert.map[0, 0], 1.0, rtol=1e-9)


def test_balancedness_of_lattice_ball_is_near_one():
    dom = build_domain({"kind": "ball", "center": [0, 0], "radius": 1.0}, 0.1)
    pts = dom.positions(dom.interior_mask())
    cert = balancedness(pts, [0.0, 0.0])
    assert 1.0 <= cert.d <= 1.0 + 2 * dom.h_grid


def test_balancedness_certificate_sandwich():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(60, 2)) @ np.array([[1.5, 0.4], [0.0, 0.7]])
    x0 = pts.mean(axis=0)
    cert = balancedness(pts, x0)
    norm = np.linalg.norm((pts - x0) @ cert.map.T, axis=1)
    assert norm.max() <= cert.d + 1e-9           # inside B_d
    assert cert.d >= 1.0
    # the inscribed ellipsoid maps onto B_1, so the hull reaches unit radius
    assert norm.max() >= 1.0 - 1e-9


def test_balancedness_base_point_not_interior():
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    with pytest.raises(ValueError, match="base point not interior"):
        balancedness(tri, [1.5, 0.0])  # midpoint of an edge


def test_balancedness_john_style_bound():
    # about the barycenter, d stays below n*n for convex node sets
    rng = np.random.default_rng(99)
    for _ in range(10):
        raw = rng.normal(size=(50, 2))
        lin = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
        pts = raw @ lin.T
        hull_pts = pts[ConvexHull(pts).vertices]
        cert = balancedness(pts, hull_pts.mean(axis=0))
        assert cert.d <= 4.0


def test_section_height_bound_via_balancedness():
    # nonnegative convex u with u(x0) = 0: over a centered section of height
    # h the function stays below d*h up to grid resolution
    dom = box_domain(2.0, 0.05)

    def asym(x, t):
        x1, x2 = x[:, 0], x[:, 1]
        return np.where(x1 < 0, 0.5 * x1 ** 2, 2.0 * x1 ** 2) + 0.5 * x2 ** 2

    u = sample(dom, asym)
    sec = centered_section(u, [0.0, 0.0], 0.3)
    cert = balancedness(sec, [0.0, 0.0])
    max_u = float(np.max(u.values[tuple(sec.indices.T)]))
    assert max_u <= cert.d * 0.3 + 2 * dom.h_grid


def test_centered_section_balancedness_regression():
    # frozen empirical constant: centered sections of smooth convex samples
    # in the plane stay well inside d <= 1.5 about their center of mass
    dom = box_domain(2.0, 0.05)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(6):
        a = rng.normal(size=(2, 2))
        m = a @ a.T + 0.3 * np.eye(2)
        b = rng.uniform(-0.3, 0.3, 2)
        u = sample(dom, lambda x, t: 0.5 * np.einsum("ni,ij,nj->n", x, m, x)
                   + x @ b)
        sec = centered_section(u, [0.0, 0.0], 0.25)
        cert = balancedness(sec, sec.center_of_mass)
        worst = max(worst, cert.d)
    assert worst <= 1.5


# ---------------------------------------------------------------------------
# Legendre conjugate
# ---------------------------------------------------------------------------

def test_legendre_paraboloid_self_dual():
    dom = box_domain(1.3, 0.1)
    u = sample(dom, paraboloid)
    lt = legendre(u)
    dd = lt.dual.domain
    mask = dd.interior_mask()
    xi = dd.positions(mask)
    err = np.max(np.abs(lt.dual.values[mask] - 0.5 * np.sum(xi ** 2, axis=1)))
    assert err <= dom.h_grid ** 2  # nearest-node quantization only
    # maximizers sit at the gradient: x = xi up to one lattice step (argmax
    # rows follow the active dual nodes; select the interior ones)
    sel = dd.classes[dd.active_mask()] == 2
    assert np.max(np.abs(lt.argmax[sel] - xi)) <= dom.h_grid / 2 + 1e-12


def test_legendre_cone_is_flat_on_unit_interval():
    dom = build_domain({"kind": "box", "lower": [-1.0], "upper": [1.0]}, 0.05)
    u = sample(dom, lambda x, t: np.abs(x[:, 0]))
    lt = legendre(u)
    dd = lt.dual.domain
    mask = dd.active_mask()
    xi = dd.positions(mask)[:, 0]
    core = np.abs(xi) <= 1.0
    assert np.max(np.abs(lt.dual.values[mask][core])) <= 1e-12


def test_legendre_double_transform_recovers_convex_sample():
    dom = build_domain({"kind": "box", "lower": [-1.0], "upper": [1.0]}, 0.02)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        a = rng.uniform(0.3, 2.0)
        b = rng.uniform(-0.5, 0.5)
        k1, k2 = rng.uniform(-0.6, 0.6, 2)
        u = sample(dom, lambda x, t: 0.5 * a * x[:, 0] ** 2 + b * x[:, 0]
                   + 0.4 * np.abs(x[:, 0] - k1) + 0.3 * np.abs(x[:, 0] - k2))
        back = legendre(legendre(u).dual)
        pts = dom.positions(dom.interior_mask())
        vals = back.dual.interpolate(pts)
        ok = np.isfinite(vals)
        assert ok.sum() > 0.8 * len(pts)
        worst = max(worst, float(np.max(np.abs(
            vals[ok] - u.values[dom.interior_mask()][ok]))))
    assert worst <= 0.1  # a few dual lattice steps at default resolution


def test_legendre_order_reversing_and_convex():
    dom = build_domain({"kind": "box", "lower": [-1.0], "upper": [1.0]}, 0.05)
    lo = sample(dom, lambda x, t: 0.5 * x[:, 0] ** 2)
    hi = sample(dom, lambda x, t: 0.5 * x[:, 0] ** 2 + 0.3)
    dual_dom = legendre(lo).dual.domain
    a = legendre(lo, dual_domain=dual_dom)
    b = legendre(hi, dual_domain=dual_dom)
    mask = dual_dom.active_mask()
    assert np.min(a.dual.values[mask] - b.dual.values[mask]) >= 0.3 - 1e-12
    # convex dual: second differences at the interior nodes are nonnegative
    # up to roundoff on the scale of the values
    v = a.dual.values
    inner = np.flatnonzero(dual_dom.interior_mask())
    d2 = (v[inner + 1] + v[inner - 1] - 2.0 * v[inner]) / dual_dom.h_grid ** 2
    assert d2.min() >= -1e-10 * max(1.0, np.nanmax(np.abs(v)))


def test_legendre_warns_when_dual_grid_truncates():
    dom = build_domain({"kind": "box", "lower": [-1.0], "upper": [1.0]}, 0.05)
    u = sample(dom, lambda x, t: x[:, 0] ** 2)  # gradients span ~[-2, 2]
    tight = build_domain({"kind": "box", "lower": [-0.5], "upper": [0.5]}, 0.05)
    with pytest.warns(UserWarning, match="smaller than the sampled gradient"):
        legendre(u, dual_domain=tight)


def _dense_conjugate(u, xi):
    """Reference: ``max (xi . x - u(x))`` over every active primal node."""
    dom = u.domain
    pts = dom.positions(dom.active_mask())
    vals = u.values[dom.active_mask()]
    return np.concatenate([np.max(block @ pts.T - vals, axis=1)
                           for block in np.array_split(xi, -(-len(xi) // 256))])


@pytest.mark.filterwarnings("ignore:dual grid range is smaller")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_legendre_matches_the_dense_search(n):
    h = {1: 0.05, 2: 0.1, 3: 0.25}[n]
    rng = np.random.default_rng(40 + n)
    a = rng.normal(size=(n, n))
    m = a @ a.T + 0.3 * np.eye(n)
    kinks = rng.normal(size=(2, n))
    gamma = rng.uniform(-0.3, 0.3, 2)
    slope = np.array([0.0, 0.5, -0.25])[:n]
    data = {
        "convex": lambda x, t: 0.5 * np.einsum("ki,ij,kj->k", x, m, x)
        + 0.4 * np.sum(np.abs(x @ kinks.T - gamma), axis=1),
        "affine": lambda x, t: 0.3 + x @ slope,
        "nonconvex": lambda x, t: np.sin(3.0 * x[:, 0])
        * np.cos(2.0 * np.sum(x, axis=1)),
    }
    primal = [box_domain(1.0, h, n),
              build_domain({"kind": "ball", "center": [0.1] * n,
                            "radius": 1.0}, h)]
    duals = [None, box_domain(1.5, 2 * h, n),
             build_domain({"kind": "ball", "center": [-0.2] * n,
                           "radius": 1.6}, 2 * h)]
    for dom in primal:
        for f in data.values():
            u = sample(dom, f)
            scale = 1e-12 * max(1.0, float(np.nanmax(np.abs(u.values))))
            for dual in duals:
                lt = legendre(u, dual_domain=dual)
                dd = lt.domain
                mask = dd.active_mask()
                xi = dd.positions(mask)
                star = lt.dual.values[mask]
                assert np.all(np.isnan(lt.dual.values[~mask]))
                # every dual node up to 2-D, every 17th in 3-D (the default
                # dual there has about 50k nodes)
                ref = slice(None, None, 1 if n < 3 else 17)
                assert np.max(np.abs(
                    star[ref] - _dense_conjugate(u, xi[ref]))) <= scale
                # each maximiser is an active primal node, given exactly,
                # and attains the returned value
                idx = np.rint((lt.argmax - dom.origin) / dom.h_grid).astype(int)
                ax = dom.axes()
                for d in range(n):
                    assert np.array_equal(ax[d][idx[:, d]], lt.argmax[:, d])
                node = tuple(idx.T)
                assert np.all(dom.active_mask()[node])
                attained = np.sum(xi * lt.argmax, axis=1) - u.values[node]
                assert np.max(np.abs(attained - star)) <= scale


def test_legendre_memory_stays_within_a_few_candidate_arrays():
    # box [-1, 1]^2 at h = 0.02 and its default dual; the dense search over
    # every (dual, primal) pair peaked at 87 MB of temporaries here
    dom = box_domain(1.0, 0.02)
    u = sample(dom, lambda x, t: 0.5 * x[:, 0] ** 2 + 0.3 * x[:, 1] ** 2
               + 0.2 * np.abs(x[:, 0] - 0.3 * x[:, 1] - 0.1))
    tracemalloc.start()
    try:
        legendre(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def _default_dual(u):
    # the default dual box, from the n-component gradient array
    g = gradient_field(u)[u.domain.interior_mask()]
    glo, ghi = np.nanmin(g, axis=0), np.nanmax(g, axis=0)
    width = ghi - glo
    floor = max(1e-3, u.domain.h_grid)
    glo = np.where(width < floor, glo - 0.5 * floor, glo)
    ghi = np.where(width < floor, ghi + 0.5 * floor, ghi)
    return build_domain({"kind": "box", "lower": glo, "upper": ghi},
                        float(np.max(ghi - glo) / 32.0), stencil_radius=2)


def _unblocked_legendre(u, dual):
    # each axis pass over all dual rows at once, the (dual x lattice)
    # candidate array held whole
    dom = u.domain
    xs, xis = dom.axes(), dual.axes()
    g = np.where(dom.active_mask(), -u.values, -np.inf)
    picks = []
    for d in range(dom.n):
        shape = [1] * (dom.n + 1)
        shape[d:d + 2] = len(xis[d]), len(xs[d])
        cand = np.multiply.outer(xis[d], xs[d]).reshape(shape) \
            + np.expand_dims(g, d)
        picks.append(np.argmax(cand, axis=d + 1))
        g = cand.max(axis=d + 1)
    mask = dual.active_mask()
    at = np.nonzero(mask)
    arg = np.empty((len(at[0]), dom.n))
    for d in reversed(range(dom.n)):
        i = picks[d][at]
        arg[:, d] = xs[d][i]
        at = at[:d] + (i,) + at[d + 1:]
    return np.where(mask, g, np.nan), arg


@pytest.mark.filterwarnings("ignore:dual grid range is smaller")
@pytest.mark.parametrize("block", [1, 1000, None])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_legendre_blocks_equal_the_unblocked_passes(n, block, monkeypatch):
    # block = 1 puts one dual row in each block; None keeps the constant
    if block is not None:
        monkeypatch.setattr(geometry, "LEGENDRE_BLOCK", block)
    h = {1: 0.05, 2: 0.1, 3: 0.25}[n]
    rng = np.random.default_rng(60 + n)
    a = rng.normal(size=(n, n))
    m = a @ a.T + 0.3 * np.eye(n)
    data = [lambda x, t: 0.5 * np.einsum("ki,ij,kj->k", x, m, x)
            + 0.4 * np.abs(x[:, 0] - 0.2),
            lambda x, t: np.sin(3.0 * x[:, 0]) * np.cos(2.0 * np.sum(x, 1)),
            lambda x, t: np.full(len(x), 0.3)]
    primal = [box_domain(1.0, h, n),
              build_domain({"kind": "ball", "center": [0.1] * n,
                            "radius": 1.0}, h)]
    duals = [None, box_domain(1.5, 2 * h, n),
             build_domain({"kind": "ball", "center": [-0.2] * n,
                           "radius": 1.6}, 2 * h)]
    for dom in primal:
        for f in data:
            u = sample(dom, f)
            for dual in duals:
                lt = legendre(u, dual_domain=dual)
                ref = _default_dual(u) if dual is None else dual
                vals, arg = _unblocked_legendre(u, ref)
                assert np.array_equal(lt.domain.positions(), ref.positions())
                assert np.array_equal(lt.dual.values, vals, equal_nan=True)
                assert np.array_equal(lt.argmax, arg)


def test_legendre_memory_in_3d_stays_within_a_few_lattices():
    # the edge-moves-n3p1 initial sample on 45^3 and its default dual; one
    # candidate array over all dual rows per pass peaked at about 53 MB
    u = make_state(REGISTRY["edge-moves-n3p1"].config).u
    assert u.values.shape == (45, 45, 45)
    tracemalloc.start()
    try:
        legendre(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_legendre_rejects_a_non_finite_sample_and_names_its_node(bad):
    dom = box_domain(1.0, 0.1)
    u = sample(dom, paraboloid)
    node = dom.index_of([0.3, -0.2])
    u.values[node] = bad
    with pytest.raises(ValueError, match=r"non-finite sample .* at active "
                       r"node \(0\.(3|29{5})\d*, -0\.(2|19{5})\d*\)"):
        legendre(u)


# ---------------------------------------------------------------------------
# flat sets
# ---------------------------------------------------------------------------

def test_flat_set_of_truncated_cone():
    dom = build_domain({"kind": "ball", "center": [0, 0], "radius": 1.3}, 0.1)
    u = sample(dom, lambda x, t: np.maximum(0.0,
                                            np.linalg.norm(x, axis=1) - 0.5))
    fs = flat_set(u)
    pos = fs.positions
    assert np.all(np.linalg.norm(pos, axis=1) <= 0.5 + 1e-9)
    radii = np.linalg.norm(fs.extremal_points, axis=1)
    assert np.all(radii >= 0.5 - dom.h_grid)
    assert fs.contains_segment


def test_flat_set_of_paraboloid_is_single_node():
    dom = build_domain({"kind": "ball", "center": [0, 0], "radius": 1.3}, 0.1)
    u = sample(dom, paraboloid)
    fs = flat_set(u)
    assert len(fs) == 1
    assert not fs.contains_segment
    assert np.allclose(fs.positions[0], 0.0, atol=1e-12)


def test_flat_set_of_crease_is_a_slab():
    dom = build_domain({"kind": "ball", "center": [0, 0], "radius": 1.3}, 0.1)
    u = sample(dom, lambda x, t: np.abs(x[:, 1]))
    fs = flat_set(u)
    assert np.all(np.abs(fs.positions[:, 1]) <= 1e-9)
    assert fs.contains_segment
    # extremal points are the two ends of the diameter segment
    assert len(fs.extremal_points) == 2
    assert np.max(np.abs(fs.extremal_points[:, 0])) >= 1.3 - dom.h_grid


@pytest.mark.parametrize("rotated", [False, True])
def test_flat_set_of_a_lattice_rectangle_reports_its_four_corners(rotated):
    # zero exactly on a lattice rectangle, whose edges carry collinear
    # lattice nodes: only the four corners are hull vertices, axis-aligned
    # or turned by 45 degrees
    dom = box_domain(1.0, 0.1)
    a, b = (1.0, 1.0) if rotated else (1.0, 0.0)
    u = sample(dom, lambda x, t: (
        np.maximum(0.0, np.abs(a * x[:, 0] + b * x[:, 1]) - 0.4)
        + np.maximum(0.0, np.abs(b * x[:, 0] - a * x[:, 1]) - 0.2)))
    fs = flat_set(u)
    assert len(fs) == (23 if rotated else 45)
    corners = ([(0.3, 0.1), (0.1, 0.3), (-0.3, -0.1), (-0.1, -0.3)]
               if rotated else
               [(-0.4, -0.2), (-0.4, 0.2), (0.4, -0.2), (0.4, 0.2)])
    assert sorted(map(tuple, np.round(fs.extremal_points, 9).tolist())) \
        == sorted(corners)


def test_flat_set_rejects_cutting_plane():
    dom = build_domain({"kind": "ball", "center": [0, 0], "radius": 1.3}, 0.1)
    u = sample(dom, paraboloid)
    with pytest.raises(ValueError, match="not a tangent plane"):
        flat_set(u, offset=0.1)
    with pytest.raises(ValueError, match="not a tangent plane"):
        flat_set(sample(dom, lambda x, t: np.abs(x[:, 1])), slope=[1.0, 0.0])


def test_flat_set_strictly_below_plane_is_empty():
    dom = build_domain({"kind": "ball", "center": [0, 0], "radius": 1.3}, 0.1)
    u = sample(dom, paraboloid)
    fs = flat_set(u, offset=-0.5)
    assert len(fs) == 0
    assert not fs.contains_segment


def test_error_messages_print_positions_as_plain_floats():
    u = sample(box_domain(1.0, 0.25), paraboloid)
    with pytest.raises(ValueError, match="not an active lattice node") as exc:
        section_at(u, [7.0, 0.0], 0.1)
    assert "(7.0, 0.0)" in str(exc.value)
    assert "np.float64" not in str(exc.value)
    with pytest.raises(ValueError, match="not a tangent plane") as exc:
        flat_set(u, slope=[1.0, 0.0])
    assert "(1.0, 0.0)" in str(exc.value)
    assert "np.float64" not in str(exc.value)
    cert = balancedness(u.domain.positions(u.domain.active_mask()),
                        [0.0, 0.0])
    assert str(cert).endswith("about (0.0, 0.0)")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_section_and_ellipsoid_roundtrip_text(tmp_path):
    dom = box_domain(1.5, 0.25)
    u = sample(dom, paraboloid)
    sec = section_at(u, [0.0, 0.0], 0.5)
    p1 = tmp_path / "section.csv"
    save_section(p1, sec)
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "n,h_grid,t,height,touches_boundary"
    assert lines[1].split(",")[0] == "2"
    assert len(lines) == 5 + len(sec)

    ell = john_ellipsoid(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]),
                         [1.0, 1.0])
    p2 = tmp_path / "ellipsoid.csv"
    save_ellipsoid(p2, ell)
    rows = [r.split(",") for r in p2.read_text().strip().splitlines()]
    assert rows[0][0] == "center"
    got = np.array([[float(v) for v in rows[1][1:]],
                    [float(v) for v in rows[2][1:]]])
    assert np.allclose(got, ell.shape_matrix, rtol=0, atol=0)
    assert float(rows[3][1]) == pytest.approx(ell.volume, rel=1e-15)
