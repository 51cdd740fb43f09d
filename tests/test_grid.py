import math
import re
from dataclasses import fields

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

from pma_lab.grid import (BAND, EXTERIOR, INTERIOR, CoefficientField, Domain,
                          build_domain, fmt17, load_csv, sample, save_csv,
                          write_table, _chebyshev_dilate)
from pma_lab.monge_ampere import OperatorConfig, ma_field


def box2(h=0.5, w=2):
    return build_domain({"kind": "box", "lower": [-1, -1], "upper": [1, 1]},
                        h_grid=h, stencil_radius=w)


def ball2(r=1.0, h=0.1, w=2):
    return build_domain({"kind": "ball", "center": [0, 0], "radius": r},
                        h_grid=h, stencil_radius=w)


def test_box_classification_counts():
    dom = box2(h=0.5, w=2)
    # interior = the 3x3 block of nodes strictly inside [-1,1]^2;
    # band = Chebyshev-2 collar around it (7x7 minus the interior)
    assert np.count_nonzero(dom.interior_mask()) == 9
    assert int(np.count_nonzero(dom.classes == BAND)) == 49 - 9
    assert dom.shape == (9, 9)


def test_ball_interior_count_matches_area():
    dom = ball2(r=1.0, h=0.1)
    area = np.count_nonzero(dom.interior_mask()) * dom.h_grid ** 2
    assert abs(area - math.pi) / math.pi < 0.05


def test_stencil_reads_stay_on_lattice():
    dom = ball2(r=0.7, h=0.1, w=3)
    inner = np.argwhere(dom.interior_mask())
    for off in ([3, 0], [0, -3], [3, 3], [-3, 3]):
        idx = inner + np.array(off)
        assert np.all(idx >= 0) and np.all(idx < np.array(dom.shape))
        assert np.all(dom.classes[tuple(idx.T)] != EXTERIOR)


def test_degenerate_domain_rejected():
    with pytest.raises(ValueError, match="degenerate domain"):
        build_domain({"kind": "ball", "center": [0.0, 0.0], "radius": 0.04},
                     h_grid=0.1)



@pytest.mark.parametrize("desc,w,message", [
    ({"kind": "ball", "center": [0, 0], "radius": 1.0}, 0,
     "stencil_radius must be at least 1"),
    ({"kind": "ball", "center": [0, 0], "radius": 0.0}, 2,
     "degenerate domain: empty bounding box"),
    ({"kind": "box", "lower": [0, 0], "upper": [1, 0]}, 2,
     "degenerate domain: empty bounding box"),
    ({"kind": "box", "lower": [0, 0], "upper": [1, 0.15]}, 2,
     "interior is a single lattice layer along axis 1"),
    ({"kind": "ball", "center": [0, 0], "radius": None}, 2,
     "radius None is not finite"),
    ({"kind": "box", "lower": [0, float("nan")], "upper": [1, 1]}, 2,
     "lower [0, nan] is not finite"),
], ids=["radius-0", "ball-radius-0", "empty-box", "single-layer",
        "radius-None", "lower-nan"])
def test_build_domain_refuses_a_degenerate_region(desc, w, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_domain(desc, h_grid=0.1, stencil_radius=w)


def test_index_of_refuses_a_point_off_the_lattice_or_below_the_class_asked():
    dom = box2(h=0.5, w=2)
    assert dom.classes[dom.index_of([0.4, -0.1], INTERIOR)] == INTERIOR
    assert dom.classes[dom.index_of([1.0, 0.0])] == BAND
    with pytest.raises(ValueError, match=re.escape(
            "point (1.0, 0.0) is not an interior lattice node: it is in "
            "the band")):
        dom.index_of([1.0, 0.0], INTERIOR)
    with pytest.raises(ValueError, match=re.escape(
            "point (7.0, 0.0) is not an active lattice node: it is outside "
            "the lattice")):
        dom.index_of([7.0, 0.0])
    disk = ball2()
    with pytest.raises(ValueError, match="it is in the exterior"):
        disk.index_of(disk.origin)
    with pytest.raises(ValueError, match="point .* is not finite"):
        dom.index_of([np.nan, 0.0])

@pytest.mark.parametrize("desc", [
    {"kind": "union", "parts": [
        {"kind": "ball", "center": [-0.65, 0.0], "radius": 0.5},
        {"kind": "ball", "center": [0.65, 0.0], "radius": 0.5}]},
    {"kind": "ellipsoid", "center": [0, 0],
     "shape": [[0.5, 0.1], [0.1, 0.3]]},
    {"kind": "halfspaces", "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
     "offsets": [1, 1, 1, 1], "bbox": ([-1, -1], [1, 1])},
], ids=["union", "ellipsoid", "halfspaces"])
def test_only_balls_and_boxes_are_regions(desc):
    with pytest.raises(ValueError, match="unknown region kind"):
        build_domain(desc, h_grid=0.1)


@pytest.mark.parametrize("desc,message", [
    ({"kind": "ball", "center": [0, 0], "radius": 1.0, "lower": [-1, -1]},
     "a ball region takes ['center', 'radius'], "
     "got ['center', 'lower', 'radius']"),
    ({"kind": "box", "lower": [-1, -1], "upper": [1, 1], "radius": 7.0},
     "a box region takes ['lower', 'upper'], "
     "got ['lower', 'radius', 'upper']"),
    ({"kind": "ball", "center": [0, 0]},
     "a ball region takes ['center', 'radius'], got ['center']"),
    ({"kind": "box", "upper": [1, 1]},
     "a box region takes ['lower', 'upper'], got ['upper']"),
    ({"kind": "ball", "center": [0, 0], "radius": [1.0, 2.0]},
     "expected a length-1 radius, got [1.0, 2.0]"),
    ({"kind": "box", "lower": [-1, "a"], "upper": [1, 1]},
     "lower [-1, 'a'] is not a list of numbers"),
], ids=["ball+lower", "box+radius", "ball-radius", "box-lower",
        "ball-radius-vector", "box-lower-text"])
def test_region_refuses_keys_its_kind_does_not_take(desc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_domain(desc, h_grid=0.1)


def test_domain_stores_each_fact_once():
    assert [f.name for f in fields(Domain)] == [
        "h_grid", "classes", "stencil_radius", "axis_coords"]
    dom = ball2(r=0.7, h=0.1, w=3)
    assert dom.n == 2 and dom.shape == dom.classes.shape
    assert np.array_equal(dom.origin, [a[0] for a in dom.axes()])
    with pytest.raises(AttributeError):
        dom.shape = (3, 3)
    # axes and classes of different shapes are not a lattice
    with pytest.raises(ValueError, match="do not match the lattice shape"):
        Domain(h_grid=0.1, classes=dom.classes, stencil_radius=3,
               axis_coords=(dom.axes()[0][:-1], dom.axes()[1]))


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("n,kind", [(2, "ball"), (2, "box"), (3, "ball"),
                                    (3, "box")])
def test_restored_lattice_matches_the_built_one(tmp_path, n, kind, radius):
    # a restored lattice is the built one cut to its non-exterior nodes;
    # its radius, axes and index_of agree with the built one bit for bit
    desc = {"kind": "ball", "center": [0.05] * n, "radius": 0.7} \
        if kind == "ball" else \
        {"kind": "box", "lower": [-0.6] + [-0.4] * (n - 1),
         "upper": [0.5] * n}
    built = build_domain(desc, h_grid=0.1 if n == 2 else 0.15,
                         stencil_radius=radius)
    save_csv(sample(built, lambda pts, t: pts[:, 0]), tmp_path / "u.csv")
    restored = load_csv(tmp_path / "u.csv").domain
    assert restored.stencil_radius == built.stencil_radius == radius
    active = np.argwhere(built.active_mask())
    lo, hi = active.min(axis=0), active.max(axis=0) + 1
    cut = tuple(slice(a, b) for a, b in zip(lo, hi))
    assert restored.shape == built.classes[cut].shape
    assert np.array_equal(restored.classes, built.classes[cut])
    for got, want, c in zip(restored.axes(), built.axes(), cut):
        assert got.tobytes() == want[c].tobytes()
    assert restored.positions().tobytes() == built.positions().tobytes()
    assert [restored.index_of(x) for x in built.positions()] == \
        [tuple(int(i) for i in np.subtract(built.index_of(x), lo))
         for x in built.positions()]


def test_classification_refinement_consistent():
    # radius 0.95 so no lattice node of either grid sits exactly on the
    # boundary (0.05a)^2+(0.05b)^2 = 0.95^2 would need a^2+b^2 = 361 with
    # a, b odd, impossible mod 8); membership is then a property of the
    # point, not the lattice
    coarse = ball2(r=0.95, h=0.2)
    fine = ball2(r=0.95, h=0.1)
    pts = coarse.positions(coarse.interior_mask())
    idx = np.rint((pts - fine.origin) / fine.h_grid).astype(int)
    assert np.all(fine.classes[tuple(idx.T)] == INTERIOR)


def test_sample_and_interpolation():
    dom = ball2(r=1.0, h=0.1)
    aff = lambda pts, t: 0.3 * pts[:, 0] - 0.7 * pts[:, 1] + 0.1 + t
    u = sample(dom, aff, t=2.0)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 0.5, size=(50, 2))
    got = u.interpolate(pts)
    want = aff(pts, 2.0)
    assert np.allclose(got, want, atol=1e-13)


def test_interpolation_past_the_last_node_is_nan():
    # the top row x = 1.25 of this box is active band: a point on it reads
    # its value, a point past it leaves the lattice, as one before the
    # first node does, so rescale can refuse a map that leaves the source
    dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                        "upper": [0.9, 0.9]}, h_grid=0.25, stencil_radius=2)
    u = sample(dom, lambda pts, t: pts[:, 0] + 10.0 * pts[:, 1])
    first, last = dom.axes()[0][[0, -1]]
    assert last == 1.25 and dom.classes[-1, 6] == BAND
    got = u.interpolate(np.array([[last, 0.0], [1.1, 0.0], [1.35, 0.0],
                                  [6.25, 0.0], [0.0, 1.35],
                                  [first - 0.1, 0.0]]))
    assert got[:2] == pytest.approx([1.25, 1.1], abs=1e-12)
    assert np.isnan(got[2:]).all()


def test_coordinates_read_the_axes(tmp_path):
    # every node-position query goes through Domain.coordinates; it reads
    # the axis arrays, so a restored lattice keeps its stored coordinates
    u = sample(ball2(r=0.7, h=0.1), lambda pts, t: pts[:, 0])
    save_csv(u, tmp_path / "u.csv")
    for dom in (u.domain, load_csv(tmp_path / "u.csv").domain):
        idx = np.argwhere(dom.active_mask())
        ax = dom.axes()
        want = np.column_stack([ax[d][idx[:, d]] for d in range(dom.n)])
        assert np.array_equal(dom.positions(), want)
        assert np.array_equal(dom.coordinates(idx[3]), want[3])
        assert dom.coordinates(idx[:0]).shape == (0, dom.n)


def rowwise_csv(u) -> str:
    """The node table formatted row by row, every coordinate through fmt17:
    the reference for save_csv, which formats each axis coordinate once."""
    dom = u.domain
    mask = dom.active_mask()
    names = {EXTERIOR: "exterior", BAND: "band", INTERIOR: "interior"}
    lines = ["n,h_grid,t", f"{dom.n},{fmt17(dom.h_grid)},{fmt17(u.t)}",
             ",".join([f"x_{i+1}" for i in range(dom.n)] + ["class", "value"])]
    for p, c, v in zip(dom.positions(mask), dom.classes[mask], u.values[mask]):
        lines.append(",".join(fmt17(x) for x in p)
                     + f",{names[int(c)]},{fmt17(v)}")
    return "\n".join(lines) + "\n"


def test_csv_roundtrip_bitexact(tmp_path):
    dom = ball2(r=0.6, h=0.07)
    assert (dom.classes == EXTERIOR).any()
    rng = np.random.default_rng(42)
    u = sample(dom, lambda pts, t: rng.standard_normal(len(pts)), t=0.1 + 1e-16)
    p1 = tmp_path / "u.csv"
    p2 = tmp_path / "u2.csv"
    save_csv(u, p1)
    assert p1.read_text() == rowwise_csv(u)
    v = load_csv(p1)
    assert v.t == u.t
    assert v.domain.h_grid == dom.h_grid
    assert v.domain.stencil_radius == dom.stencil_radius
    # every stored node carries the identical bit pattern
    save_csv(v, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # and positions/values agree node-for-node with the source
    mask = dom.active_mask()
    pts = dom.positions(mask)
    idx = np.rint((pts - v.domain.origin) / v.domain.h_grid).astype(int)
    assert np.array_equal(v.values[tuple(idx.T)], u.values[mask])
    assert np.array_equal(v.domain.classes[tuple(idx.T)], dom.classes[mask])


def test_coefficient_field_bounds():
    with pytest.raises(ValueError, match="coefficient bounds"):
        CoefficientField(lambda p, t: np.ones(len(p)), lam=2.0, Lam=1.0)
    b = CoefficientField(lambda p, t: 1.0 + 0.5 * np.sin(p[:, 0]),
                         lam=0.5, Lam=1.5)
    pts = np.linspace(-3, 3, 100).reshape(-1, 1) * np.ones((1, 2))
    vals = b(pts, 0.0)
    b.check_bounds(vals)
    with pytest.raises(ValueError, match="coefficient leaves"):
        b.check_bounds(np.array([1.6]))


def test_a_nan_coefficient_fails_the_bounds_check():
    # NaN compares false with both bounds, so a check for values outside
    # them would let it pass; only values inside do
    b = CoefficientField(
        lambda p, t: np.where(p[:, 0] < -0.5, np.nan, 1.0), lam=0.1, Lam=2.0)
    dom = ball2(h=0.1)
    with pytest.raises(ValueError, match="coefficient is not finite"):
        b.check_bounds(b(dom.interior_positions, 0.0))
    u = sample(dom, lambda pts, t: 0.5 * (pts ** 2).sum(axis=1))
    with pytest.raises(ValueError, match=r"coefficient is not finite at t=0"):
        ma_field(u, OperatorConfig(p=1.0, b=b))


@pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -0.1])
def test_build_domain_refuses_a_spacing_not_positive_and_finite(h):
    with pytest.raises(ValueError, match=re.escape(
            f"h_grid must be positive and finite: {h}")):
        build_domain({"kind": "ball", "center": [0, 0], "radius": 1.0},
                     h_grid=h)


def test_gridfunction_validate_rejects_nan():
    dom = box2(h=0.5)
    u = sample(dom, lambda pts, t: np.zeros(len(pts)))
    u.values[dom.index_of([0.0, 0.0])] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        u.validate()


def test_write_table_formats_floats_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, "a,b,c", [(0.1, 3, "x"),
                                (np.float64(1 / 3), np.int64(2), True)])
    assert path.read_text() == ("a,b,c\n0.10000000000000001,3,x\n"
                                "0.33333333333333331,2,True\n")
    write_table(path, None, [("volume", 2.0)])
    assert path.read_text() == "volume,2\n"


@pytest.mark.parametrize("n,radius", [(2, 1), (2, 3), (3, 2)])
def test_chebyshev_dilation_matches_box_structuring_element(n, radius):
    mask = np.random.default_rng(11).random((9,) * n) < 0.08
    want = binary_dilation(mask, structure=np.ones((2 * radius + 1,) * n,
                                                   dtype=bool))
    got = _chebyshev_dilate(mask, radius)
    assert got.dtype == bool and np.array_equal(got, want)
