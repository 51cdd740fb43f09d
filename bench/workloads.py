"""The four benchmark workloads.

A workload has a ``setup`` (build lattices, sample the initial data, draw
the seeded members), a ``run`` that makes one round of program calls and
returns their outputs, and a ``check`` that tests those outputs with the
independent checks of ``checks.py``.  Every round of one run makes the same
calls on the same inputs.  Program functions are looked up on their module
at call time, so the tracer's wrappers see every call.

``tiny=True`` shrinks every lattice and horizon for the self-test; it keeps
the same code path and the same checks.
"""
from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

from pma_lab import analysis, config, evolution, geometry, grid, monge_ampere
from pma_lab.experiments import REGISTRY

import checks


class Round:
    """The operations of one round; one that raises is counted as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:    # counted and reported, the round goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None


def node_positions(dom, mask) -> np.ndarray:
    """Coordinates of the masked nodes, from the lattice axes."""
    idx = np.argwhere(mask)
    ax = dom.axes()
    return np.stack([ax[d][idx[:, d]] for d in range(dom.n)], axis=1)


def _random_spd(rng, n: int) -> np.ndarray:
    """R R' + 0.3 I scaled to trace n, as the comparison-random probe draws
    it; the fixed trace keeps the step count of a member nearly constant."""
    R = rng.normal(size=(n, n))
    M = R @ R.T + 0.3 * np.eye(n)
    return M * (n / np.trace(M))


def _quadratic(M, shift: float = 0.0):
    return lambda pts, t: 0.5 * np.einsum("...i,ij,...j->...", pts, M,
                                          pts) + shift


def _flow_frames(rnd: Round, state, t_end: float, times):
    res = rnd.op(evolution.evolve, replace(state), t_end, times)
    return None if res is None else [state.u] + list(res.snapshots)


# ---------------------------------------------------------------------------

class FlatP04:
    """flat-side-clears-p04 (flat disk, p = 0.4, 133^2) to a fixed horizon,
    snapshots written as the registry runner writes them."""

    name = "flat-p04"

    def __init__(self, tiny: bool = False):
        self.cfg = dict(REGISTRY["flat-side-clears-p04"].config)
        if tiny:
            self.cfg["grid.h"] = 2.0 / 32
        self.t_end = 2e-3 if tiny else 6e-4
        self.times = [self.t_end * k / 4 for k in (1, 2, 3, 4)]

    def setup(self, rng):
        # the configuration is pinned; the seed draws nothing here
        return {"state": config.make_state(self.cfg)}

    def run(self, inp, rnd: Round, out_dir):
        frames = _flow_frames(rnd, inp["state"], self.t_end, self.times)
        paths = []
        for k, snap in enumerate(frames or []):
            paths.append(os.path.join(out_dir, f"snap_{k}.csv"))
            rnd.op(grid.save_csv, snap, paths[-1])
        return None if frames is None else {"frames": frames, "paths": paths}

    def check(self, inp, out) -> dict:
        frames = [f.values for f in out["frames"]]
        dom = out["frames"][0].domain
        inner = dom.interior_mask()
        # claim 12 at p = 0.4 < 1/n: the flat side clears at once; the
        # registry's eps = 10 h^2 applies at its own t_end
        eps = 10.0 * dom.h_grid ** 2 \
            if self.t_end == self.cfg["run.t_end"] else 0.0
        return {
            "monotone_in_time": checks.nondecreasing(frames, inner),
            "square_symmetry": checks.first_failure(
                checks.symmetric(v, checks.square_maps(), 1e-12)
                for v in frames),
            "flat_side_cleared": checks.risen(frames[0], frames[-1], inner,
                                              eps),
            "snapshot_csv": checks.csv_values(
                out["paths"][-1], frames[-1][dom.active_mask()]),
        }


class CreaseN3:
    """edge-moves-n3p1 (crease data, 45^3, 30 frames) to a fixed horizon."""

    name = "crease-n3"

    def __init__(self, tiny: bool = False):
        self.cfg = dict(REGISTRY["edge-moves-n3p1"].config)
        if tiny:
            self.cfg["grid.h"] = 0.25
        self.t_end = 2e-5 if tiny else 1e-4
        self.times = [self.t_end * k / 4 for k in (1, 2, 3, 4)]

    def setup(self, rng):
        # the configuration is pinned; the seed draws nothing here
        return {"state": config.make_state(self.cfg)}

    def run(self, inp, rnd: Round, out_dir):
        frames = _flow_frames(rnd, inp["state"], self.t_end, self.times)
        return None if frames is None else {"frames": frames}

    def check(self, inp, out) -> dict:
        frames = [f.values for f in out["frames"]]
        inner = out["frames"][0].domain.interior_mask()
        return {
            "monotone_in_time": checks.nondecreasing(frames, inner),
            "axis_and_swap_symmetry": checks.first_failure(
                checks.symmetric(v, checks.crease_maps(), 1e-12)
                for v in frames),
        }


_FRAME_DIRS = [(1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, -1.0)]
_QUAD_P = [0.5, 1.0, 1.5, 2.0]


class SmallEnsemble:
    """Many short flows on the 25^2 ball lattice of criterion 06, plus one
    reduced-variant run of edge-persist-n4p1."""

    name = "small-ensemble"
    t_pair = 0.02                 # the criterion-06 horizon

    def __init__(self, tiny: bool = False):
        self.n_pairs = 3 if tiny else 50
        self.n_quad = 2 if tiny else 8
        self.h = 0.25 if tiny else 0.1
        self.red_cfg = dict(REGISTRY["edge-persist-n4p1"].config)
        if tiny:
            self.red_cfg["grid.h"] = 0.1
            self.red_cfg["run.t_end"] = 0.02
        self.red_t = float(self.red_cfg["run.t_end"])
        self.red_times = [self.red_t * k / 4 for k in (1, 2, 3, 4)]

    def setup(self, rng):
        dom = grid.build_domain({"kind": "ball", "center": [0.0, 0.0],
                                 "radius": 1.0}, h_grid=self.h,
                                stencil_radius=2)
        pos = node_positions(dom, dom.active_mask())
        pairs = []
        for _ in range(self.n_pairs):
            Ma, Mb = _random_spd(rng, 2), _random_spd(rng, 2)
            gap = float(np.max(_quadratic(Ma)(pos, 0) -
                               _quadratic(Mb)(pos, 0))) + 0.05
            pairs.append((grid.sample(dom, _quadratic(Ma)),
                          grid.sample(dom, _quadratic(Mb, gap)), None, None))
        # the comparison-barriers recipe (n = 2, p = 1, margin 0.1): each
        # barrier solves the flow exactly and is its own boundary data
        m = 4.0 ** 2

        def sub(pts, t):
            return m * (t + 1.0 / (4.0 * m)) + 2.0 * np.sum(pts * pts, -1) - 1.5

        def sup(pts, t):
            return 0.5 * (np.sum(pts * pts, -1) - 1.0) + (t - 1.0)

        barriers = []
        for fn in (sub, sup):
            hi = (lambda pts, t, f=fn: f(pts, t) + 0.1)
            barriers.append((grid.sample(dom, fn), grid.sample(dom, hi),
                             fn, hi))
        quads = []
        for k in range(self.n_quad):
            d = np.array(_FRAME_DIRS[k % len(_FRAME_DIRS)])
            d /= np.linalg.norm(d)
            R = np.array([d, [-d[1], d[0]]]).T
            # det M = 1.44 for every draw, so the rate (det M)^p tells the
            # exponents apart and the step count hardly depends on the seed
            s = rng.uniform(-0.5, 0.5)
            M = R @ np.diag([1.2 * math.exp(s), 1.2 * math.exp(-s)]) @ R.T
            p = _QUAD_P[k % len(_QUAD_P)]

            def exact(pts, t, M=M, p=p):
                return checks.quadratic_flow(pts, M, p, t)

            quads.append((M, p, grid.sample(dom, exact), exact))
        return {"dom": dom, "pos": pos, "pairs": pairs, "barriers": barriers,
                "quads": quads, "reduced": config.make_state(self.red_cfg)}

    def run(self, inp, rnd: Round, out_dir):
        plain = monge_ampere.OperatorConfig(p=1.0)
        out = {"pairs": [], "barriers": [], "quads": []}
        for key in ("pairs", "barriers"):
            for lo, hi, b_lo, b_hi in inp[key]:
                out[key].append(rnd.op(
                    evolution.evolve_pair,
                    evolution.EvolutionState(u=lo, cfg=plain, boundary=b_lo),
                    evolution.EvolutionState(u=hi, cfg=plain, boundary=b_hi),
                    self.t_pair))
        for M, p, u0, exact in inp["quads"]:
            st = evolution.EvolutionState(
                u=u0, cfg=monge_ampere.OperatorConfig(p=p), boundary=exact)
            res = rnd.op(evolution.evolve, st, self.t_pair,
                         [self.t_pair / 2, self.t_pair])
            out["quads"].append(None if res is None else res.snapshots[-1])
        out["reduced"] = _flow_frames(rnd, inp["reduced"], self.red_t,
                                      self.red_times)
        return out

    def check(self, inp, out) -> dict:
        active = inp["dom"].active_mask()

        def all_ordered(results):
            return checks.first_failure(
                checks.ordered(a.values, b.values, active)
                for a, b in (r for r in results if r is not None))

        res = {"pairs_ordered": all_ordered(out["pairs"]),
               "barriers_ordered": all_ordered(out["barriers"]),
               "quadratics_exact": checks.first_failure(
                   checks.matches(u.values[active],
                                  checks.quadratic_flow(inp["pos"], M, p, u.t),
                                  1e-10)
                   for (M, p, _, _), u in zip(inp["quads"], out["quads"])
                   if u is not None)}
        frames = out["reduced"]
        if frames is not None:
            dom = frames[0].domain
            centre = tuple(int(np.argmin(np.abs(a))) for a in dom.axes())
            rise = float(frames[-1].values[centre] - frames[0].values[centre])
            # claim 4: the edge of the reduced n = 4 profile persists
            res["reduced_centre_kept"] = checks.centre_kept(
                rise, 10.0 * dom.h_grid ** 2)
            res["reduced_monotone_in_time"] = checks.nondecreasing(
                [f.values for f in frames], dom.interior_mask())
        return res


class Geometry:
    """A short p = 1 flat-disk flow (interface-exponent-p1) and the geometry
    that reads its final snapshot."""

    name = "geometry"
    # (label, base node, height), pinned so that every round and every seed
    # makes the same calls.  At the origin the section has the symmetries of
    # the square, so its John ellipsoid is the largest inscribed disk.
    sections = (("origin", (0.0, 0.0), 0.03), ("offset", (0.12, 0.2), 0.02))
    # checks that fail on every run because of a fault in the program; each
    # failure counts as one failed operation instead of a wrong answer
    known_faults = {
        "john_volume_origin": "john_ellipsoid stops after its 100,000 "
                              "iterations short of the optimum, the disk",
    }

    def __init__(self, tiny: bool = False):
        self.cfg = dict(REGISTRY["interface-exponent-p1"].config)
        # the registry lattice even when tiny: coarser ones leave the
        # interface fit too few distance bins
        self.q_h = 0.1 if tiny else 0.05
        self.t_end = 0.005
        self.times = [self.t_end / 2, self.t_end]
        self.n_dual = 4 if tiny else 12

    def setup(self, rng):
        state = config.make_state(self.cfg)
        qdom = grid.build_domain({"kind": "box", "lower": [-1.0, -1.0],
                                  "upper": [1.0, 1.0]}, h_grid=self.q_h,
                                 stencil_radius=2)
        M = np.diag(rng.uniform(0.5, 2.0, 2))
        th = rng.uniform(0, math.pi)
        R = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        M = R @ M @ R.T
        return {"state": state, "M": M,
                "quad": grid.sample(qdom, _quadratic(M)),
                "dual_seed": int(rng.integers(2 ** 31))}

    def run(self, inp, rnd: Round, out_dir):
        frames = _flow_frames(rnd, inp["state"], self.t_end, self.times)
        u = frames[-1] if frames else None
        out = {"frames": frames, "sections": {}}
        for label, base, height in self.sections:
            sec = rnd.op(geometry.centered_section, u, base, height)
            bal = rnd.op(geometry.balancedness, sec,
                         None if sec is None else sec.base_point)
            out["sections"][label] = (sec, bal)
        out["flat"] = rnd.op(geometry.flat_set, u)
        out["interface"] = rnd.op(analysis.interface_exponent, u, out["flat"])
        out["separation"] = rnd.op(analysis.separation_probe, frames)
        out["dual"] = rnd.op(geometry.legendre, u)
        out["quad_dual"] = rnd.op(geometry.legendre, inp["quad"])
        return out

    def _dual_sample(self, inp, leg):
        dom = leg.dual.domain
        mask = dom.active_mask()
        xi = node_positions(dom, mask)
        star = leg.dual.values[mask]
        pick = np.random.default_rng(inp["dual_seed"]).choice(
            len(xi), size=min(self.n_dual, len(xi)), replace=False)
        return xi, star, pick

    def check(self, inp, out) -> dict:
        res = {}
        frames = out["frames"]
        if frames is None:
            return res
        u = frames[-1]
        dom = u.domain
        res["monotone_in_time"] = checks.nondecreasing(
            [f.values for f in frames], dom.interior_mask())
        for label, (sec, bal) in out["sections"].items():
            if sec is None or bal is None:
                continue
            pts = np.stack([dom.axes()[d][sec.indices[:, d]]
                            for d in range(dom.n)], axis=1)
            ell = bal.ellipsoid
            for name, r in checks.ellipsoid_in_hull(
                    pts, ell.center, ell.shape_matrix).items():
                res[f"john_{name}_{label}"] = r
        for key, src in (("dual", u), ("quad_dual", inp["quad"])):
            leg = out[key]
            if leg is None:
                continue
            act = src.domain.active_mask()
            xi, star, pick = self._dual_sample(inp, leg)
            res[f"fenchel_young_{key}"] = checks.fenchel_young(
                node_positions(src.domain, act), src.values[act], xi[pick],
                star[pick], leg.argmax[pick])
            if key == "quad_dual":
                res["quadratic_dual"] = checks.quadratic_dual(
                    xi, star, inp["M"], 1.0, self.q_h)
        active = dom.active_mask()
        if out["flat"] is not None:
            tol = 1e-9 * max(1.0, float(np.max(np.abs(u.values[active]))))
            res["flat_set_members"] = checks.same_members(
                out["flat"].indices, np.argwhere(active & (u.values <= tol)),
                "contact nodes")
        if out["separation"] is not None:
            inner = dom.interior_mask()
            want = checks.first_crossings([f.values for f in frames],
                                          [f.t for f in frames], inner,
                                          10.0 * dom.h_grid ** 2)
            got = out["separation"].first_time
            bad = int(np.sum(~((got == want) | (np.isnan(got) &
                                                np.isnan(want)))))
            res["separation_times"] = (
                bad == 0, f"{bad} of {len(want)} crossing times differ")
        return res


WORKLOADS = {w.name: w for w in (FlatP04, CreaseN3, SmallEnsemble, Geometry)}
