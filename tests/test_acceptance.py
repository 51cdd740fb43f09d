"""End-to-end acceptance: one test per contracted capability.

Each test pins the advertised tolerance and runtime budget for its scenario:
the separating profile construction, the persistence-versus-motion
thresholds, the regularity exponent fits, the structural properties of the
monotone scheme (comparison, scaling, duality), and the determinism
contract.  Heavy solves reuse the corresponding registry recipes so the
numbers asserted here come from the same deterministic configurations the
command line exposes.
"""

import os
from time import perf_counter

import numpy as np
import pytest

from pma_lab.analysis import (angle_opening, c1alpha_from_line, flat_set,
                              interface_exponent)
from pma_lab.evolution import EvolutionState, comparison_check, evolve, \
    evolve_pair
from pma_lab.exact import build_profile, profile_residual, quadratic_solution
from pma_lab.experiments import REGISTRY, run_experiment
from pma_lab.config import make_domain
from pma_lab.grid import build_domain, load_csv, sample, save_csv
from pma_lab.monge_ampere import OperatorConfig

EPS_129 = 10.0 * (2.0 / 128) ** 2      # separation scale at h = 2/128
EPS_RED = 10.0 * 0.025 ** 2            # separation scale at h = 0.025


def test_criterion_01_selfsimilar_profile_exact_constants_and_residual():
    t0 = perf_counter()
    coarse = build_profile(n=4, p=1.0, rk_step=4e-4, n_tab=2501)
    assert coarse.beta == 6.0
    assert abs(coarse.C - 1.0 / 216.0) <= 1e-8 / 216.0
    assert float(coarse.table.energy_drift) <= 1e-6
    res_coarse = profile_residual(coarse)          # 400x400, r >= 0.05
    assert float(res_coarse.max_residual) <= 5e-3
    fine = build_profile(n=4, p=1.0, rk_step=2e-4, n_tab=5001)
    res_fine = profile_residual(fine)
    assert float(res_fine.max_residual) <= 0.75 * float(res_coarse.max_residual)
    assert perf_counter() - t0 <= 30.0


def _timed_run(spec, out_dir):
    t0 = perf_counter()
    rep = run_experiment(spec, out_dir)
    return rep, perf_counter() - t0


def _assert_budget(spec, elapsed, budget):
    # asserted after the outcomes, so a slow run still reports what it found
    assert elapsed <= budget, \
        f"{spec.name} took {elapsed:.1f} s, over its {budget:.0f} s budget"


def test_criterion_02_edge_persists_reduced_n4_but_moves_full_n3(tmp_path):
    n4_spec = REGISTRY["edge-persist-n4p1"]
    rep, elapsed = _timed_run(n4_spec, tmp_path / "n4")
    assert rep.measured["center_crossed"] == 0.0
    assert rep.measured["center_rise"] <= EPS_RED
    _assert_budget(n4_spec, elapsed, 600.0)

    spec = REGISTRY["edge-moves-n3p1"]
    assert max(make_domain(spec.config).shape) <= 61
    rep3, elapsed = _timed_run(spec, tmp_path / "n3")
    assert rep3.measured["center_crossed"] == 1.0
    # above the separation scale already at the first snapshot past 0.02
    assert rep3.measured["center_first_time"] <= 0.021
    _assert_budget(spec, elapsed, 600.0)


def test_criterion_03_flat_side_persists_at_p1_clears_below_1_over_n(
        tmp_path):
    keep_spec = REGISTRY["flat-side-persist-p1"]
    assert keep_spec.config["grid.h"] == 2.0 / 128   # 129 nodes per side
    keep, elapsed = _timed_run(keep_spec, tmp_path / "keep")
    assert keep.measured["center_crossed"] == 0.0
    assert keep.measured["region_max_value"] <= EPS_129
    _assert_budget(keep_spec, elapsed, 120.0)

    clear_spec = REGISTRY["flat-side-clears-p04"]
    clear, elapsed = _timed_run(clear_spec, tmp_path / "go")
    assert clear.measured["min_final_value"] > EPS_129
    # the curvature floor h^2 alone lifts every node by b t (h^(2n))^p;
    # the flat side must clear by far more than that
    cfg = clear_spec.config
    floor_rise = cfg["run.t_end"] * (cfg["grid.h"] ** 4) ** cfg["op.p"]
    assert clear.measured["min_final_value"] >= 50.0 * floor_rise
    _assert_budget(clear_spec, elapsed, 120.0)


def test_criterion_04_holder_in_time_slope_meets_1_over_np_plus_1(tmp_path):
    t0 = perf_counter()
    for name, bound in (("holder-time-n2p1", 1.0 / 3.0),
                        ("holder-time-n2p2", 1.0 / 5.0)):
        rep = run_experiment(REGISTRY[name], tmp_path / name)
        assert rep.measured["time_slope"] >= bound - 0.1
    assert perf_counter() - t0 <= 120.0


def test_criterion_05_interface_exponent_evolved_and_planted(tmp_path):
    rep = run_experiment(REGISTRY["interface-exponent-p1"], tmp_path)
    assert 0.8 <= rep.measured["gamma_hat"] <= 1.2
    dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                        "upper": [1.0, 1.0]}, h_grid=0.02, stencil_radius=2)
    for gamma in (0.5, 1.0):
        u = sample(dom, lambda pts, t, g=gamma: np.maximum(
            0.0, np.linalg.norm(pts, axis=1) - 0.25) ** (1.0 + g), t=0.0)
        planted = interface_exponent(u, flat_set(u))
        assert abs(float(planted.gamma_hat) - gamma) <= 0.05


def test_criterion_06_comparison_on_barriers_and_50_random_pairs(tmp_path):
    t0 = perf_counter()
    rep = run_experiment(REGISTRY["comparison-barriers"], tmp_path)
    assert rep.measured["barrier_sub_violation"] <= 1e-10
    assert rep.measured["barrier_super_violation"] <= 1e-10

    dom = build_domain({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                       h_grid=0.1, stencil_radius=2)
    cfg = OperatorConfig(p=1.0)
    pos = dom.positions(dom.active_mask())
    rng = np.random.default_rng(0)
    worst_all = -np.inf
    for _ in range(50):
        R_a, R_b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        Ma, Mb = R_a @ R_a.T + 0.3 * np.eye(2), R_b @ R_b.T + 0.3 * np.eye(2)
        qa, qb = quadratic_solution(Ma, p=1.0), quadratic_solution(Mb, p=1.0)
        lo = sample(dom, qa, t=0.0)
        gap = float(np.max(qa(pos, 0.0) - qb(pos, 0.0))) + 0.05
        hi = sample(dom, lambda pts, t, _f=qb, _g=gap: _f(pts, t) + _g,
                    t=0.0)
        ua, ub = evolve_pair(EvolutionState(u=lo, cfg=cfg, boundary=None),
                             EvolutionState(u=hi, cfg=cfg, boundary=None),
                             0.02)
        worst_all = max(worst_all, comparison_check(ua, ub).max_violation)
    assert worst_all <= 1e-10
    assert perf_counter() - t0 <= 180.0


def test_criterion_07_scaling_residual_within_10x_interpolation(tmp_path):
    rep = run_experiment(REGISTRY["scaling-law"], tmp_path)
    assert rep.measured["scaling_ratio_max"] <= 10.0


def _brute_opening(s, v, h):
    i0 = int(np.argmin(np.abs(s)))
    v0 = v[i0]
    q_right = min((v[i] + h - v0) / s[i] for i in range(len(s)) if s[i] > 0)
    q_left = max((v[i] + h - v0) / s[i] for i in range(len(s)) if s[i] < 0)
    return max(0.0, q_right - q_left)


def _random_convex_line(rng, m=81):
    s = np.linspace(-1.0, 1.0, m)
    slopes = np.sort(rng.normal(0.0, 1.0, m - 1))
    v = np.concatenate([[0.0], np.cumsum(slopes * np.diff(s))])
    return s, v - v[int(np.argmin(np.abs(s)))]


def test_criterion_08_angle_machinery_oracle_planted_and_properties():
    s = np.linspace(-1.0, 1.0, 81)
    corpus = [np.abs(s), 0.5 * s ** 2, np.maximum(np.abs(s) - 0.3, 0.0),
              np.maximum(s, 0.0), np.abs(s) ** 1.5]
    rng = np.random.default_rng(42)
    corpus += [_random_convex_line(rng)[1] for _ in range(100)]
    for v in corpus:
        for h in (0.0, 0.05, 0.2, 0.7):
            assert angle_opening(s, v, h).alpha == _brute_opening(s, v, h)

    fine = np.arange(-1.0, 1.0 + 1e-4, 2e-4)
    hs = np.geomspace(0.005, 0.16, 6)
    for gamma in (0.25, 0.5, 0.75, 1.0):
        rep = c1alpha_from_line(fine, np.abs(fine) ** (1.0 + gamma), hs)
        assert abs(float(rep.alpha_hat) - gamma) <= 0.05

    for _ in range(100):
        sr, vr = _random_convex_line(rng)
        h1, h2 = np.sort(rng.uniform(0.01, 0.5, 2))
        a1 = angle_opening(sr, vr, h1).alpha
        a2 = angle_opening(sr, vr, h2).alpha
        assert a1 <= a2 + 1e-12                       # monotone in height
        a, b = rng.normal(size=2)
        tilt = angle_opening(sr, vr + a * sr + b, h1).alpha
        assert tilt == pytest.approx(a1, abs=1e-10)   # affine invariance


def test_criterion_09_legendre_dual_residual_small_and_refining(tmp_path):
    rep = run_experiment(REGISTRY["legendre-duality"], tmp_path)
    assert rep.measured["dual_residual"] <= 5e-2
    assert rep.measured["dual_residual_fine"] <= 5e-2
    assert rep.measured["dual_ratio"] < 1.0


def test_criterion_10_restart_and_csv_round_trip_bit_exact(tmp_path):
    dom = build_domain({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                       h_grid=0.1, stencil_radius=2)
    sol = quadratic_solution(np.array([[1.2, 0.0], [0.0, 0.8]]), p=1.3)
    u0 = sample(dom, sol, t=0.0)
    cfg = OperatorConfig(p=1.3)

    direct = evolve(EvolutionState(u=u0, cfg=cfg, boundary=sol),
                    0.004, [0.002, 0.004])

    mid_path = str(tmp_path / "mid.csv")
    save_csv(direct.snapshots[0], mid_path)
    resumed = evolve(EvolutionState(u=load_csv(mid_path), cfg=cfg,
                                    boundary=sol), 0.004, [0.004])
    u_dir, u_res = direct.state.u, resumed.state.u
    assert np.array_equal(
        u_res.values[u_res.domain.active_mask()],
        u_dir.values[u_dir.domain.active_mask()])

    again = str(tmp_path / "again.csv")
    save_csv(load_csv(mid_path), again)
    with open(mid_path, "rb") as f_a, open(again, "rb") as f_b:
        assert f_a.read() == f_b.read()
