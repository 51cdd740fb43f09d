import math

import numpy as np
import pytest

from pma_lab.exact import (build_profile, coefficient_closed_form, cone_data,
                           crease_data, flat_disk_data, profile_residual,
                           quadratic_solution, solve_conjugate,
                           subsolution_barrier, supersolution_barrier)


@pytest.fixture(scope="module")
def profile41():
    return build_profile(4, 1.0)


# ---------------------------------------------------------------------------
# barriers and quadratics
# ---------------------------------------------------------------------------

def test_subsolution_barrier_values():
    w = subsolution_barrier(n=2, p=1.0, Lam=1.0)
    origin, e1 = np.zeros((1, 2)), np.array([[1.0, 0.0]])
    # the rate m = Lam 4^(np) = 16
    rate = (w(origin, 1.0) - w(origin, 0.0))[0]
    assert rate == 16.0
    # c = 1/(4m) = 1/64: w(0, -c) = -3/2
    assert w(origin, -1.0 / 64.0)[0] == -1.5
    # at the origin at t = 0 the barrier starts at -5/4
    assert w(origin, 0.0)[0] == pytest.approx(-1.25, abs=1e-15)
    # exactness: w_t = m and Lam (det D^2 w)^p = Lam 4^np = m, with the
    # Hessian 4 I read off an exact second difference of 2|x|^2
    hess = (w(e1, 0.0) + w(-e1, 0.0) - 2.0 * w(origin, 0.0))[0]
    assert hess == 4.0
    assert rate == 1.0 * hess ** (2 * 1.0)


def test_supersolution_barrier_values():
    w = supersolution_barrier(n=3, p=2.0, lam=0.5)
    origin = np.zeros((1, 3))
    # C = 1/lam = 2: w(0, 0) = -1/2 - lam C = -3/2
    assert w(origin, 0.0)[0] == -1.5
    pts = np.array([[1.0, 0.0, 0.0]])
    # on the unit sphere at t = C the barrier vanishes
    assert w(pts, 2.0)[0] == pytest.approx(0.0, abs=1e-15)


def test_quadratic_solution_rate():
    sol = quadratic_solution([[2.0, 0.0], [0.0, 3.0]], p=2.0, b0=0.5)
    origin = np.zeros((1, 2))
    rate = (sol(origin, 1.0) - sol(origin, 0.0))[0]
    assert rate == pytest.approx(0.5 * 36.0, rel=1e-14)
    pts = np.array([[1.0, 1.0]])
    got = sol(pts, 1.0)
    assert got[0] == pytest.approx(0.5 * (2 + 3) + 18.0, rel=1e-14)


def test_data_factories_basic_shapes():
    pts = np.array([[0.5, 0.0], [0.0, -0.25], [0.3, 0.4]])
    assert np.allclose(cone_data(2.0)(pts, 0.0),
                       2.0 * np.linalg.norm(pts, axis=1))
    cr = crease_data(axis=-1, quad_coeff=0.5)(pts, 0.0)
    assert cr[0] == pytest.approx(0.0 + 0.125)
    disk = flat_disk_data(radius=0.25, slope=2.0)(pts, 0.0)
    assert disk[0] == pytest.approx(0.5)
    assert disk[1] == 0.0


# ---------------------------------------------------------------------------
# conjugate ODE and profile construction
# ---------------------------------------------------------------------------

def test_conjugate_regression_values():
    tab = solve_conjugate(2.0)
    assert tab.t_star == pytest.approx(1.7173153422542349, abs=1e-10)
    assert tab.a == pytest.approx(2.94917198474178, abs=1e-9)
    assert tab.s_flat == pytest.approx(4.135276182531706, abs=1e-8)


def test_conjugate_energy_conservation():
    tab = solve_conjugate(2.0)
    assert tab.energy_drift <= 1e-6
    # energy pins the endpoint slope: w'(t*) = sqrt(2/(q+1)),
    # i.e. (g*)'(1) = a t* sqrt(2/3) for q = 2
    want = tab.a * tab.t_star * math.sqrt(2.0 / 3.0)
    assert tab.s_flat == pytest.approx(want, rel=1e-7)


def test_conjugate_rejects_subcritical():
    with pytest.raises(ValueError, match="subcritical"):
        solve_conjugate(1.0)


def test_profile_exponent_and_coefficient(profile41):
    assert profile41.beta == 6.0
    assert profile41.q == 2.0
    # bisected coefficient against the closed form and the known value
    assert coefficient_closed_form(4, 1.0) == pytest.approx(1.0 / 216.0,
                                                            rel=1e-14)
    assert profile41.C == pytest.approx(1.0 / 216.0, rel=1e-8)


def test_similarity_scale(profile41):
    # f(t) = ((1+np)(T-t))^(1/(1+np)); n=4, p=1, T=1: f(0) = 5^(1/5)
    assert profile41.f_scale(0.0, 1.0) == pytest.approx(5.0 ** 0.2, rel=1e-14)
    with pytest.raises(ValueError, match="horizon"):
        profile41.f_scale(1.0, 1.0)


def test_profile_dominates_cone(profile41):
    # v >= |y_n| everywhere, equality off the core |y_n| >= s_flat phi(r)
    rng = np.random.default_rng(0)
    r = rng.uniform(0.0, 1.5, size=1000)
    yn = rng.uniform(-2.0, 2.0, size=1000)
    v = profile41.v(r, yn)
    assert np.all(v >= np.abs(yn) - 1e-12)
    outside = np.abs(yn) >= profile41.s_flat * profile41.phi(r)
    assert np.array_equal(v[outside], np.abs(yn)[outside])
    # on the axis the edge value is exactly |y_n|
    assert profile41.v(np.zeros(3), np.array([-1.0, 0.0, 2.0])).tolist() == \
        [1.0, 0.0, 2.0]


def test_profile_centerline_depth(profile41):
    # v(r, 0) = depth * phi(r) with depth = g(0)
    r = np.array([0.3, 0.7, 1.1])
    got = profile41.v(r, np.zeros(3))
    want = profile41.depth * profile41.phi(r)
    assert np.allclose(got, want, rtol=1e-12)
    assert profile41.g_eval(np.array([0.0]))[0] == pytest.approx(
        profile41.depth, abs=1e-12)


def test_profile_residual_small(profile41):
    rep = profile_residual(profile41)
    assert rep.max_residual <= 5e-3
    # far below the acceptance bar, in fact
    assert rep.max_residual <= 1e-4


def test_eval_selfsimilar_scaling_identity(profile41):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 0.5, size=(200, 4))
    T, t = 1.0, 0.4
    f = profile41.f_scale(t, T)
    u = profile41.eval(pts, t, T)
    y = pts / f
    v = profile41.v(np.linalg.norm(y[:, :3], axis=1), y[:, 3])
    assert np.allclose(u, f * v, rtol=1e-13)
    # reduced (r, x_n) coordinates agree with the full evaluation
    rz = np.stack([np.linalg.norm(pts[:, :3], axis=1), pts[:, 3]], axis=1)
    assert np.allclose(profile41.eval(rz, t, T), u, rtol=1e-13)


def test_eval_takes_n_or_two_columns_only(profile41):
    # n >= 3, so the column count tells full points from (r, x_n) points
    with pytest.raises(ValueError, match="4 or 2 components"):
        profile41.eval(np.zeros((5, 3)), 0.0, 1.0)


def test_build_profile_rejects_subcritical():
    with pytest.raises(ValueError, match="subcritical"):
        build_profile(3, 1.0)         # needs p > 1/(n-2) = 1
    with pytest.raises(ValueError, match="subcritical"):
        build_profile(4, 0.5)         # 1/(n-2) = 1/2
    build_profile(3, 1.2)             # just supercritical: fine
