import numpy as np
import pytest

from pma_lab.analysis import (angle_opening, beta_time, c1alpha_from_line,
                              dual_flow_residual, fit_exponent,
                              flat_dichotomy_probe, gamma_p, holder_time_fit,
                              interface_exponent, separation_probe)
from pma_lab.exact import quadratic_solution
from pma_lab.experiments import RunContext
from pma_lab.geometry import flat_set
from pma_lab.grid import build_domain, load_csv, sample, save_csv


def box(lo, hi, h, n=2):
    return build_domain({"kind": "box", "lower": [lo] * n, "upper": [hi] * n},
                        h_grid=h, stencil_radius=2)


def line(step=0.01, half=1.0):
    k = int(round(half / step))
    return np.arange(-k, k + 1) * step


def brute_force_opening(s, v, h):
    # explicit-loop reference: widest two-slope angle with vertex dropped by
    # h below the base sample, plane kept under every sample
    i0 = int(np.argmin(np.abs(s)))
    v0 = v[i0]
    q_right = min((v[i] + h - v0) / s[i] for i in range(len(s)) if s[i] > 0)
    q_left = max((v[i] + h - v0) / s[i] for i in range(len(s)) if s[i] < 0)
    return max(0.0, q_right - q_left), q_right, q_left


def random_convex_line(rng, m=81):
    s = np.linspace(-1.0, 1.0, m)
    slopes = np.sort(rng.normal(0.0, 1.0, m - 1))
    v = np.concatenate([[0.0], np.cumsum(slopes * np.diff(s))])
    v -= v[int(np.argmin(np.abs(s)))]
    return s, v


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

def test_fit_exponent_recovers_power_law():
    x = np.geomspace(1e-3, 1e-1, 9)
    fit = fit_exponent(x, 3.7 * x ** 1.25)
    assert fit.slope == pytest.approx(1.25, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)
    assert fit.residual <= 1e-13
    assert np.log10(fit.abscissae.max() / fit.abscissae.min()) == \
        pytest.approx(2.0, abs=1e-12)


def test_fit_exponent_coverage_requirements():
    x = np.geomspace(1e-2, 1e-1, 4)
    with pytest.raises(ValueError, match="at least 5 points"):
        fit_exponent(x, x)
    x = np.geomspace(1e-2, 5e-2, 6)
    with pytest.raises(ValueError, match="decades of coverage"):
        fit_exponent(x, x)
    fit_exponent(x, x, min_decades=0.5)  # relaxation is explicit
    with pytest.raises(ValueError, match="positive"):
        fit_exponent(np.array([1, 2, 3, 4, 5.0]), np.array([1, 1, -1, 1, 1.0]))


def test_exponent_constants():
    assert beta_time(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert beta_time(4, 1.0) == pytest.approx(0.2, rel=1e-15)
    assert gamma_p(2, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma_p(3, 2.0) == pytest.approx(0.4, rel=1e-15)


# ---------------------------------------------------------------------------
# angle openings
# ---------------------------------------------------------------------------

def test_angle_matches_brute_force_on_corpus():
    s = line(0.01)
    corpus = [0.5 * s ** 2, np.abs(s), np.abs(s) ** 1.5,
              np.maximum(0.0, np.abs(s) - 0.3), np.exp(s) - s,
              0.3 * s ** 2 + 0.1 * np.abs(s)]
    rng = np.random.default_rng(7)
    for _ in range(4):
        corpus.append(random_convex_line(rng, 201)[1])
    for v in corpus:
        for h in (0.0, 0.01, 0.1, 0.5):
            cert = angle_opening(s, v, h)
            alpha, qr, ql = brute_force_opening(s, v, h)
            assert cert.alpha == alpha
            assert cert.q_right == qr
            assert cert.q_left == ql


def test_parabola_opening_law_exact():
    # for v = s^2/2 the minimizing offset is s* = sqrt(2h); when s* is a
    # sample the opening equals 2*sqrt(2h) exactly
    s = line(0.01)
    v = 0.5 * s ** 2
    for h in (0.02, 0.08, 0.18):
        cert = angle_opening(s, v, h)
        assert cert.alpha == pytest.approx(2.0 * np.sqrt(2.0 * h), rel=1e-12)


def test_certificate_plane_is_a_minorant():
    rng = np.random.default_rng(21)
    s, v = random_convex_line(rng)
    cert = angle_opening(s, v, 0.07)
    plane = v[int(np.argmin(np.abs(s)))] - cert.height + np.where(
        s >= 0, cert.q_right * s, cert.q_left * s)
    assert np.all(plane <= v + 1e-12)


def test_angle_preconditions():
    s = line(0.1)
    with pytest.raises(ValueError, match="not convex"):
        angle_opening(s, -np.abs(s), 0.1)
    with pytest.raises(ValueError, match="both sides"):
        angle_opening(s[s >= 0], s[s >= 0] ** 2, 0.1)
    with pytest.raises(ValueError, match="base point"):
        angle_opening(s[np.abs(s) > 0.04] + 0.05,
                      (s[np.abs(s) > 0.04] + 0.05) ** 2, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        angle_opening(s, s ** 2, -0.1)


def test_angle_property_suite_on_random_samples():
    # monotone in the drop height, invariant under adding affine functions,
    # contravariant under dilations of the abscissa, and widening in time
    # for anchored certificates when values only grow
    rng = np.random.default_rng(1234)
    for _ in range(100):
        s, v = random_convex_line(rng)
        h1, h2 = np.sort(rng.uniform(0.01, 0.5, 2))
        a1 = angle_opening(s, v, h1).alpha
        a2 = angle_opening(s, v, h2).alpha
        assert a1 <= a2 + 1e-12
        a, b = rng.normal(size=2)
        tilt = angle_opening(s, v + a * s + b, h1)
        assert tilt.alpha == pytest.approx(a1, abs=1e-10)
        lam = rng.uniform(0.5, 2.0)
        dil = angle_opening(lam * s, v, h1)
        assert dil.alpha == pytest.approx(a1 / lam, rel=1e-10)
        grown = v + rng.uniform(0.0, 1.0) * s ** 2
        # anchored at the earlier base value v0: the drop below the later
        # base value is h1 + (grown[i0] - v0)
        i0 = int(np.argmin(np.abs(s)))
        later = angle_opening(s, grown, h1 + (grown[i0] - v[i0]))
        assert later.alpha >= a1 - 1e-12


# ---------------------------------------------------------------------------
# gradient-Holder exponent
# ---------------------------------------------------------------------------

def test_planted_exponents_recovered():
    s = line(2e-4)
    hs = np.geomspace(0.005, 0.16, 6)
    for gamma in (0.25, 0.5, 0.75, 1.0):
        rep = c1alpha_from_line(s, np.abs(s) ** (1.0 + gamma), hs)
        assert not rep.corner
        assert rep.alpha_hat == pytest.approx(gamma, abs=0.05)


def test_corner_detected_on_cones():
    s = line(2.5e-3)
    hs = np.geomspace(0.05, 0.5, 6)
    for v in (np.abs(s), np.abs(s) + 0.3 * s, 1.5 * np.abs(s) - 0.2 * s):
        rep = c1alpha_from_line(s, v, hs)
        assert rep.corner
        assert np.isnan(rep.alpha_hat)
    rep = c1alpha_from_line(s, np.abs(s), hs)
    assert rep.slope_gap0 == pytest.approx(2.0, rel=1e-9)


def test_smooth_samples_are_not_corners():
    s = line(2.5e-3)
    hs = np.geomspace(0.05, 0.5, 6)
    for v in (0.5 * s ** 2, np.abs(s) ** 1.75, np.exp(s) - s):
        rep = c1alpha_from_line(s, v, hs)
        assert not rep.corner


def test_resolvability_precondition():
    s = line(0.01)
    with pytest.raises(ValueError, match="below the resolvable scale"):
        c1alpha_from_line(s, np.abs(s), np.geomspace(0.01, 0.3, 6))
    with pytest.raises(ValueError, match="at least 5 heights"):
        c1alpha_from_line(s, s ** 2, [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# time regularity
# ---------------------------------------------------------------------------

def test_holder_time_fit_exact_power():
    dom = box(-1.0, 1.0, 0.2)
    times = [0.0] + list(np.geomspace(1e-4, 1e-1, 7))
    snaps = [sample(dom, lambda pts, t: 0.5 * np.sum(pts ** 2, axis=1)
                    + t ** 0.4, t=t) for t in times]
    fit = holder_time_fit(snaps, [0.0, 0.0])
    assert fit.slope == pytest.approx(0.4, abs=1e-9)


def test_holder_time_fit_requires_motion():
    dom = box(-1.0, 1.0, 0.2)
    times = [0.0] + list(np.geomspace(1e-4, 1e-1, 7))
    snaps = [sample(dom, lambda pts, t: 0.5 * np.sum(pts ** 2, axis=1), t=t)
             for t in times]
    with pytest.raises(ValueError, match="no motion at node"):
        holder_time_fit(snaps, [0.0, 0.0])
    with pytest.raises(ValueError, match="at least 6 snapshots"):
        holder_time_fit(snaps[:4], [0.0, 0.0])


def test_separation_probe_statuses(tmp_path):
    dom = box(-1.0, 1.0, 0.1)
    base = sample(dom, lambda pts, t: 0.5 * np.sum(pts ** 2, axis=1), t=0.0)
    X1, _ = dom.grids()

    def bumped(t):
        u = base.copy(t=t)
        vals = u.values.copy()
        if t >= 0.01:
            vals = vals + 0.2 * (X1 > 0.05)
        if t >= 0.02:
            vals = vals + 0.2 * ((X1 > -0.35) & (X1 <= 0.05))
        return u.copy(values=vals)

    snaps = [base, bumped(0.01), bumped(0.02), bumped(0.03)]
    rep = separation_probe(snaps)  # default eps = 10 h^2 = 0.1
    assert rep.eps == pytest.approx(0.1)
    pos = rep.positions
    counts = {k: int(np.sum(rep.status == k))
              for k in ("instant", "delayed", "persistent")}
    assert counts["instant"] == int(np.sum(pos[:, 0] > 0.05))
    assert counts["delayed"] == int(np.sum((pos[:, 0] > -0.35)
                                           & (pos[:, 0] <= 0.05)))
    assert counts["persistent"] == int(np.sum(pos[:, 0] <= -0.35))
    never = np.isnan(rep.first_time)
    assert np.all(rep.status[never] == "persistent")
    assert np.all(rep.first_time[rep.status == "instant"] == 0.01)
    assert np.all(rep.first_time[rep.status == "delayed"] == 0.02)
    out = tmp_path / "sep.csv"
    rep.to_csv(out)
    text = out.read_text().splitlines()
    assert text[0] == "x_1,x_2,first_time,status"
    assert len(text) == 1 + len(pos)
    assert any("never" in row for row in text[1:])


def test_separation_probe_needs_two_snapshots():
    dom = box(-1.0, 1.0, 0.2)
    u = sample(dom, lambda pts, t: np.sum(pts ** 2, axis=1), t=0.0)
    with pytest.raises(ValueError, match="at least 2 snapshots"):
        separation_probe([u])


# ---------------------------------------------------------------------------
# flat-set dichotomy
# ---------------------------------------------------------------------------

def cone_snapshots(h=0.1, radius=0.5, lo=-1.2, hi=1.2):
    dom = box(lo, hi, h)
    f = lambda pts, t: np.maximum(
        0.0, np.linalg.norm(pts, axis=1) - radius)
    return [sample(dom, f, t=0.0), sample(dom, f, t=0.05)]


def test_dichotomy_vacuous_on_strictly_convex():
    dom = box(-1.0, 1.0, 0.1)
    snaps = [sample(dom, lambda pts, t: 0.5 * np.sum(pts ** 2, axis=1), t=t)
             for t in (0.0, 0.05)]
    rep = flat_dichotomy_probe(snaps)
    assert rep.classification == "vacuous"
    assert "holds vacuously" in str(rep)


def test_dichotomy_boundary_attached():
    dom = box(-1.0, 1.0, 0.1)
    snaps = [sample(dom, lambda pts, t: np.abs(pts[:, 0]), t=t)
             for t in (0.0, 0.05)]
    rep = flat_dichotomy_probe(snaps)
    assert rep.classification == "boundary"
    assert len(rep.offenders) == 0


def test_dichotomy_boundary_attached_on_restored_lattice(tmp_path):
    # a lattice read back from snapshot files keeps only its node classes;
    # attachment is measured against its band nodes all the same
    dom = box(-1.0, 1.0, 0.1)
    for k, t in enumerate((0.0, 0.05)):
        save_csv(sample(dom, lambda pts, t: np.abs(pts[:, 0]), t=t),
                 tmp_path / f"s{k}.csv")
    rep = flat_dichotomy_probe([load_csv(tmp_path / f"s{k}.csv")
                                for k in range(2)])
    assert rep.classification == "boundary"
    assert len(rep.offenders) == 0


def test_dichotomy_stationary_interior_disk():
    rep = flat_dichotomy_probe(cone_snapshots())
    assert rep.classification == "stationary"
    assert rep.max_motion == 0.0


def test_dichotomy_violation_flagged():
    first, last = cone_snapshots()
    moved = first.copy(values=first.values - 0.05 * np.exp(
        -np.sum(first.domain.positions(np.ones(first.domain.shape,
                                               dtype=bool)) ** 2,
                axis=1).reshape(first.domain.shape)))
    rep = flat_dichotomy_probe([moved, last], eps_flat=1e-3)
    assert rep.classification == "violation"
    assert len(rep.offenders) > 0
    assert rep.max_motion > 1e-3


# ---------------------------------------------------------------------------
# interface exponent
# ---------------------------------------------------------------------------

def planted_interface(gamma, h=0.02, radius=0.25):
    dom = box(-1.0, 1.0, h)
    f = lambda pts, t: np.maximum(
        0.0, np.linalg.norm(pts, axis=1) - radius) ** (1.0 + gamma)
    u = sample(dom, f, t=0.0)
    return u, flat_set(u)


def test_interface_exponent_planted():
    for gamma in (0.5, 1.0):
        u, fs = planted_interface(gamma)
        rep = interface_exponent(u, fs)
        assert rep.gamma_hat == pytest.approx(gamma, abs=0.02)
        assert rep.fit.residual <= 0.05
        assert np.all(np.diff(rep.bin_centers) > 0)


def test_interface_report_csv(tmp_path):
    u, fs = planted_interface(1.0)
    rep = interface_exponent(u, fs)
    out = tmp_path / "interface.csv"
    rep.to_csv(out)
    rows = out.read_text().splitlines()
    assert rows[0] == "distance,value,count"
    assert len(rows) == 1 + len(rep.bin_centers)


def test_interface_under_resolved():
    u, fs = planted_interface(1.0, h=0.15)
    with pytest.raises(ValueError, match="under-resolved interface"):
        interface_exponent(u, fs)


# ---------------------------------------------------------------------------
# dual-flow residual
# ---------------------------------------------------------------------------

def dual_pair(M, h, t1=0.1, t2=0.11, p=1.0):
    ex = quadratic_solution(M, p=p)
    dom = box(-1.0, 1.0, h)
    return sample(dom, ex, t=t1), sample(dom, ex, t=t2)


def test_dual_residual_small_on_isotropic_quadratic():
    u1, u2 = dual_pair(np.eye(2), h=0.05)
    worst, field, lt = dual_flow_residual(u1, u2, p=1.0)
    assert worst <= 1e-2
    inner = lt.domain.interior_mask()
    assert np.isfinite(field.values[inner]).all()


def test_dual_residual_decreases_under_refinement():
    worsts = []
    for h in (0.05, 0.025):
        u1, u2 = dual_pair(np.diag([1.2, 0.8]), h=h)
        worst, _, _ = dual_flow_residual(u1, u2, p=1.0)
        worsts.append(worst)
    assert worsts[0] <= 5e-2
    assert worsts[1] < worsts[0]


@pytest.mark.parametrize("p_true", [1.0, 2.0])
def test_dual_residual_is_lower_at_the_true_power(p_true):
    # the dual step scales with the lattice (0.65 sqrt(h)); at h = 0.025 the
    # residual separates the data's power from the wrong one
    u1, u2 = dual_pair(np.diag([1.2, 0.8]), h=0.025, p=p_true)
    p_wrong = 3.0 - p_true
    assert dual_flow_residual(u1, u2, p_true)[0] < \
        dual_flow_residual(u1, u2, p_wrong)[0]


def test_dual_residual_needs_increasing_times():
    u1, u2 = dual_pair(np.eye(2), h=0.1)
    with pytest.raises(ValueError, match="increasing time levels"):
        dual_flow_residual(u2, u1, p=1.0)


# ---------------------------------------------------------------------------
# plot scripts
# ---------------------------------------------------------------------------

def test_write_plot_script(tmp_path):
    ctx = RunContext.create(tmp_path)
    ctx.write_plot("fit", "angle decay", "h", "alpha", logxy=True)
    text = (tmp_path / "plots" / "fit.gp").read_text()
    assert "set datafile separator ','" in text
    assert "set logscale xy" in text
    assert "plot '../probes/fit.csv' using 1:2" in text
    ctx.write_plot("lin", "motion", "t", "u", using=(1, 3))
    text = (tmp_path / "plots" / "lin.gp").read_text()
    assert "set logscale" not in text
    assert "using 1:3" in text
