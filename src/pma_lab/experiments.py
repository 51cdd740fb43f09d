"""Registry of named experiments tying runs to quoted claims.

Each entry pins a complete run configuration, the probes to execute, and the
expected outcomes with explicit one-sidedness and tolerances.  The anchor is
a claim id plus the verbatim quote from the bundled claims document
(``data/claims.txt``); every quote cited here appears verbatim in that
document, and every expected outcome carries a basis tag:

* ``quoted`` — the target restates the quoted claim itself;
* ``derived`` — a closed-form or measured consequence of the construction;
* ``direct`` — a definitional identity of the scheme.

``run_experiment`` executes stage by stage (configure, solve, one stage per
probe, outcomes, summary) and aborts with the failing stage's name, keeping
whatever artifacts were already written.  Summaries and CSVs are rendered
deterministically (sorted keys, 17-digit floats, no wall times), so repeated
runs of the same entry produce bit-identical files.

A probe reads only its :class:`RunContext`; ``pma-lab analyze`` runs the
probes that need nothing but the frames on snapshot files read back.  Each
probe declares the ``params`` keys it reads, and an entry's ``params`` (or
an ``analyze`` flag) may set only a key one of its probes reads.  Any other
probe setting is the entry's ``config`` or a constant.  Properties of the
measuring machinery itself, such as the angle opening's invariances and its
brute-force oracle, are asserted once in the test suite, not re-run here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from math import inf, isfinite

import numpy as np

from .analysis import (c1alpha_from_line, dual_flow_residual, dual_flow_terms,
                       dual_residual_from_terms, flat_dichotomy_probe,
                       holder_time_fit, interface_exponent, separation_probe)
from .config import (format_config, make_domain, make_initial, make_profile,
                     make_state, run_settings)
from .evolution import (EvolutionState, ScalingMap, comparison_check, evolve,
                        evolve_pair, rescale)
from .exact import (build_profile, coefficient_closed_form, profile_residual,
                    quadratic_solution, subsolution_barrier,
                    supersolution_barrier)
from .geometry import flat_set
from .grid import INTERIOR, build_domain, fmt17, sample, save_csv, write_table
from .monge_ampere import ma_field

__all__ = [
    "REGISTRY",
    "ExperimentError",
    "ExperimentReport",
    "ExperimentSpec",
    "Outcome",
    "RunContext",
    "claim_quote",
    "claims_text",
    "list_experiments",
    "measured_lines",
    "run_experiment",
    "solve_to_snapshots",
]


class ExperimentError(RuntimeError):
    """A stage of an experiment failed; partial artifacts are retained."""


# ---------------------------------------------------------------------------
# outcome and spec types
# ---------------------------------------------------------------------------

_KINDS = {"le", "ge", "abs"}
_BASES = {"quoted", "derived", "direct"}


@dataclass(frozen=True)
class Outcome:
    """An expected measured value with tolerance and one-sidedness.

    ``kind`` is ``"le"`` (measured <= target + tol), ``"ge"`` (measured >=
    target - tol) or ``"abs"`` (|measured - target| <= tol).
    """

    name: str
    kind: str
    target: float
    tol: float
    basis: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"outcome kind must be one of {sorted(_KINDS)}")
        if self.basis not in _BASES:
            raise ValueError(f"outcome basis must be one of {sorted(_BASES)}")
        if self.tol < 0:
            raise ValueError("outcome tolerance must be nonnegative")

    def check(self, measured: float) -> bool:
        if not isfinite(measured):
            return False
        if self.kind == "le":
            return measured <= self.target + self.tol
        if self.kind == "ge":
            return measured >= self.target - self.tol
        return abs(measured - self.target) <= self.tol

    def describe(self, measured: float) -> str:
        ok = "PASS" if self.check(measured) else "FAIL"
        op = {"le": "<=", "ge": ">=", "abs": "~"}[self.kind]
        return (f"{ok} {self.name} = {fmt17(measured)} {op} "
                f"{fmt17(self.target)} (tol {fmt17(self.tol)}) [{self.basis}]")


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, fully pinned run: config, probes, and expected outcomes."""

    name: str
    topic: str
    claim_id: int
    claim: str
    config: dict
    probes: tuple = ()
    outcomes: tuple = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for probe in self.probes:
            if probe not in _PROBES:
                raise ValueError(f"unknown probe {probe!r} in {self.name!r}")
        reads = set().union(*(_PROBE_PARAMS[p] for p in self.probes))
        for key in self.params:
            if key not in reads:
                raise ValueError(f"unknown params key {key!r} in {self.name!r}"
                                 f": its probes read {sorted(reads)}")
        for out in self.outcomes:
            if not isinstance(out, Outcome):
                raise ValueError("outcomes must be Outcome instances")


@dataclass
class ExperimentReport:
    name: str
    passed: bool
    measured: dict
    lines: list
    out_dir: str

    def __str__(self):
        return "\n".join(self.lines)


# ---------------------------------------------------------------------------
# claims document
# ---------------------------------------------------------------------------

def claims_text() -> str:
    """The bundled claims document (id | verbatim quote per line)."""
    return resources.files("pma_lab.data").joinpath("claims.txt").read_text()


def claim_quote(claim_id: int) -> str:
    for line in claims_text().splitlines():
        head, sep, quote = line.partition(" | ")
        if sep and head.strip().isdigit() and int(head) == claim_id:
            return quote
    raise KeyError(f"no claim with id {claim_id}")


# ---------------------------------------------------------------------------
# probe context and dispatch
# ---------------------------------------------------------------------------

def _made(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


@dataclass
class RunContext:
    """What a probe reads, and where it writes its tables and plots.

    ``frames`` are the snapshots, the t = 0 sample first (empty without a
    solve stage); ``state`` is None when they were read back from files.
    """

    cfg: dict
    params: dict
    state: EvolutionState | None
    frames: list
    rng: np.random.Generator
    out_dir: str

    @classmethod
    def create(cls, out_dir, cfg=None, params=None, frames=(),
               seed: int = 0) -> "RunContext":
        """A context writing to ``<out_dir>/{probes,plots}``, each directory
        made on its first write, so a probe that refuses its input leaves
        nothing behind."""
        return cls(cfg or {}, params or {}, None, list(frames),
                   np.random.default_rng(seed), str(out_dir))

    @property
    def probes_dir(self) -> str:
        return _made(os.path.join(self.out_dir, "probes"))

    @property
    def plots_dir(self) -> str:
        return _made(os.path.join(self.out_dir, "plots"))

    def param(self, key, default=None):
        if key not in _PARAM_KEYS:
            raise ValueError(f"unknown params key {key!r}")
        return self.params.get(key, default)

    def snapshots(self):
        if not self.frames:
            raise ValueError("this probe needs a solve stage (set run.t_end)")
        return self.frames

    def write_table(self, name: str, header: str, rows) -> None:
        write_table(os.path.join(self.probes_dir, name + ".csv"), header, rows)

    def write_plot(self, name: str, title: str, xlabel: str, ylabel: str,
                   logxy: bool = False, using=(1, 2)) -> None:
        """A small gnuplot script plotting the probe table ``name``."""
        lines = [
            "set datafile separator ','",
            f"set title '{title}'",
            f"set xlabel '{xlabel}'",
            f"set ylabel '{ylabel}'",
        ]
        if logxy:
            lines.append("set logscale xy")
        lines.append(f"plot '../probes/{name}.csv' using "
                     f"{using[0]}:{using[1]} with linespoints notitle")
        with open(os.path.join(self.plots_dir, name + ".gp"), "w") as f:
            f.write("\n".join(lines) + "\n")


_PROBES: dict = {}
_PROBE_PARAMS: dict = {}          # the params keys each probe reads


def _probe(name, params=()):
    def deco(fn):
        _PROBES[name] = fn
        _PROBE_PARAMS[name] = frozenset(params)
        return fn
    return deco


@_probe("exactness")
def _probe_exactness(ctx: RunContext) -> dict:
    """Max-norm error of every snapshot against the closed-form data."""
    frames = ctx.snapshots()
    sol = make_initial(ctx.cfg, frames[0].domain.n)
    rows, worst = [], 0.0
    for snap in frames:
        want = sample(snap.domain, sol, t=snap.t)
        err = float(np.nanmax(np.abs(snap.values - want.values)))
        worst = max(worst, err)
        rows.append((float(snap.t), err))
    ctx.write_table("exactness", "t,error", rows)
    ctx.write_plot("exactness", "max-norm error vs closed form", "t", "error")
    return {"exact_error": worst}


@_probe("comparison_barriers")
def _probe_comparison_barriers(ctx: RunContext) -> dict:
    """Discrete ordering against the two closed-form barriers.

    Each barrier solves the flow exactly for b == 1; a margin-shifted copy
    shares its Hessian, hence its rate, and paired evolution with a common
    step must keep the pair ordered to roundoff.
    """
    state = ctx.state
    dom = state.u.domain
    p = float(ctx.cfg["op.p"])
    margin, t_end = 0.1, 0.02
    rows, worsts = [], {}
    for label, barrier in (("sub", subsolution_barrier(dom.n, p)),
                           ("super", supersolution_barrier(dom.n, p))):
        lo = sample(dom, barrier, t=0.0)
        hi = lo.copy(values=lo.values + margin)
        a = EvolutionState(u=lo, cfg=state.cfg,
                           boundary=barrier)
        b = EvolutionState(u=hi, cfg=state.cfg,
                           boundary=lambda pts, t, _f=barrier:
                           _f(pts, t) + margin)
        ua, ub = evolve_pair(a, b, t_end)
        rep = comparison_check(ua, ub)
        worsts[f"barrier_{label}_violation"] = max(rep.max_violation, 0.0)
        rows.append((label, float(rep.max_violation)))
    ctx.write_table("barriers", "barrier,worst_gap", rows)
    ctx.write_plot("barriers", "barrier ordering (lower - upper)", "case",
                   "worst gap", using=(0, 2))
    return worsts


@_probe("comparison_random")
def _probe_comparison_random(ctx: RunContext) -> dict:
    """Random touching quadratic pairs stay ordered under a shared step.

    The lower member is q_a, the upper max(q_a, q_b + l.x - 0.1) with a
    random slope l: convex, and equal to q_a on a region, so a step too
    large to stay monotone there makes the pair cross (at p = 1 and seed 0,
    5 times the proven step does).  The band is frozen.
    """
    state = ctx.state
    dom = state.u.domain
    p = float(ctx.cfg["op.p"])
    pairs, t_end = 10, 0.02
    active = dom.active_mask()
    rows = []
    worst_all = -inf
    for k in range(pairs):
        Ma = _random_spd(ctx.rng, dom.n)
        Mb = _random_spd(ctx.rng, dom.n)
        slope = ctx.rng.normal(size=dom.n)
        qa = quadratic_solution(Ma, p=p)
        qb = quadratic_solution(Mb, p=p)
        lo = sample(dom, qa, t=0.0)
        hi = sample(dom, lambda pts, t, _a=qa, _b=qb, _l=slope: np.maximum(
            _a(pts, t), _b(pts, t) + pts @ _l - 0.1), t=0.0)
        touching = int(np.sum(lo.values[active] == hi.values[active]))
        ua, ub = evolve_pair(
            EvolutionState(u=lo, cfg=state.cfg, boundary=None),
            EvolutionState(u=hi, cfg=state.cfg, boundary=None), t_end)
        rep = comparison_check(ua, ub)
        worst = float(rep.max_violation)
        worst_all = max(worst_all, worst)
        rows.append((k, worst, touching, float(np.linalg.det(Ma)),
                     float(np.linalg.det(Mb))))
    ctx.write_table("comparison_pairs",
                    "pair,worst_gap,touching,det_lower,det_upper", rows)
    ctx.write_plot("comparison_pairs", "ordering of random pairs", "pair",
                   "worst gap")
    return {"pair_worst_gap": max(worst_all, 0.0)}


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    R = rng.normal(size=(n, n))
    M = R @ R.T + 0.3 * np.eye(n)
    return M * (n / np.trace(M))


@_probe("scaling")
def _probe_scaling(ctx: RunContext) -> dict:
    """Invariance of the flow under the exact scaling map on quadratics.

    Rescaling u(x) = x^T M x / 2 by v(x) = u(A x) / h turns the Hessian into
    M_v = A^T M A / h, so the operator value at every interior node of the
    pulled-back sample must equal (det M_v)^p up to interpolation error
    amplified once through the determinant.  The first-order amplification
    of a value error e through each clamped second difference is 4 e / h²,
    and through the determinant p (det M_v)^p sum_i 1/lambda_i(M_v); the
    measured residual is compared against that bound.
    """
    state = ctx.state
    dom = state.u.domain
    p = float(ctx.cfg["op.p"])
    draws = 10
    r_src = float(ctx.cfg["domain.radius"])
    rows = []
    ratio_max = 0.0
    for k in range(draws):
        M = _random_spd(ctx.rng, dom.n)
        A = _random_map(ctx.rng, dom.n)
        h_val = float(ctx.rng.uniform(0.5, 3.0))
        u = sample(dom, quadratic_solution(M, p=p), t=0.0)
        mapping = ScalingMap(A=A, h=h_val, p=p)
        r_tgt = r_src / (np.linalg.norm(A, 2) * 1.3)
        target = build_domain({"kind": "ball", "center": [0.0] * dom.n,
                               "radius": r_tgt}, dom.h_grid,
                              stencil_radius=dom.stencil_radius)
        v = rescale(u, mapping, target)
        Mv = A.T @ M @ A / h_val
        rate = float(np.linalg.det(Mv)) ** p
        exact = sample(target, quadratic_solution(Mv, p=p), t=0.0)
        interp = float(np.nanmax(np.abs(v.values - exact.values)))
        fld = ma_field(v, state.cfg)
        res = float(np.nanmax(np.abs(fld.values - rate)))
        lam = np.linalg.eigvalsh(Mv)
        comparator = p * rate * (4.0 * interp / target.h_grid ** 2) \
            * float(np.sum(1.0 / lam))
        ratio = res / comparator if comparator > 0 else 0.0
        ratio_max = max(ratio_max, ratio)
        rows.append((k, float(np.linalg.det(A)), h_val, res, comparator,
                     ratio))
    ctx.write_table("scaling",
                    "draw,det_A,h,residual,comparator,ratio", rows)
    ctx.write_plot("scaling", "scaling residual vs amplified interpolation",
                   "draw", "ratio", using=(1, 6))
    return {"scaling_ratio_max": ratio_max}


def _random_map(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random linear map with |det| in [0.5, 3] and condition <= 4."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    cond = rng.uniform(1.0, 4.0)
    diag = np.geomspace(1.0, cond, n)
    det_want = rng.uniform(0.5, 3.0)
    diag *= (det_want / np.prod(diag)) ** (1.0 / n)
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(diag) @ q2


@_probe("holder_time", params=("point",))
def _probe_holder_time(ctx: RunContext) -> dict:
    """Log-log slope of the value increment in time at one node."""
    snaps = ctx.snapshots()
    point = ctx.param("point", [0.0] * snaps[0].domain.n)
    fit = holder_time_fit(snaps, point)
    rows = list(zip([float(x) for x in fit.abscissae],
                    [float(y) for y in fit.ordinates]))
    ctx.write_table("time_increments", "t,increment", rows)
    ctx.write_plot("time_increments", "u(x,t) - u(x,0) at the probe node",
                   "t", "increment", logxy=True)
    return {"time_slope": float(fit.slope)}


@_probe("separation", params=("eps", "point", "region_radius"))
def _probe_separation(ctx: RunContext) -> dict:
    """First-crossing table plus center trace and region statistics.

    ``eps`` follows the documented default 10 h² Lambda unless pinned in the
    params; the probed region for the moved/persistent fractions is the ball
    ``|x| <= region_radius`` when given, else the whole interior.
    """
    snaps = ctx.snapshots()
    dom = snaps[0].domain
    idx = dom.index_of(ctx.param("point", [0.0] * dom.n), INTERIOR)
    eps = ctx.param("eps")
    lam_upper = float(ctx.cfg.get("op.Lambda", 1.0))
    rep = separation_probe(snaps, eps=eps, lam_upper=lam_upper)
    rep.to_csv(os.path.join(ctx.probes_dir, "separation.csv"))
    ctx.write_plot("separation", "first crossing times", "x_1", "first_time",
                   using=(1, dom.n + 1))

    trace = [(float(s.t), float(s.values[idx] - snaps[0].values[idx]))
             for s in snaps]
    ctx.write_table("center_trace", "t,rise", trace)
    ctx.write_plot("center_trace", "rise above initial data at the center",
                   "t", "rise")

    row = np.where((rep.indices == np.array(idx)).all(axis=1))[0]
    crossed = bool(row.size and np.isfinite(rep.first_time[row[0]]))
    first = float(rep.first_time[row[0]]) if crossed else inf
    radius = ctx.param("region_radius")
    r = np.linalg.norm(rep.positions, axis=1)
    region = r <= float(radius) if radius is not None \
        else np.ones(len(r), bool)
    moved = np.isfinite(rep.first_time)
    final_vals = snaps[-1].values[dom.interior_mask()]
    region_final = snaps[-1].values[tuple(rep.indices[region].T)]
    return {
        "center_crossed": float(crossed),
        "center_first_time": first,
        "center_rise": trace[-1][1],
        "moved_fraction": float(np.mean(moved[region])),
        "region_max_value": float(np.max(region_final)),
        "min_final_value": float(np.min(final_vals)),
        "eps_used": float(rep.eps),
    }


@_probe("interface", params=("r_max",))
def _probe_interface(ctx: RunContext) -> dict:
    """Distance-binned growth exponent off the final contact set."""
    snaps = ctx.snapshots()
    fs = flat_set(snaps[-1])
    rep = interface_exponent(snaps[-1], fs, r_max=ctx.param("r_max"))
    rep.to_csv(os.path.join(ctx.probes_dir, "interface_bins.csv"))
    ctx.write_plot("interface_bins", "binned growth off the contact set",
                   "distance", "value", logxy=True)
    return {"gamma_hat": float(rep.gamma_hat),
            "interface_residual": float(rep.fit.residual),
            "flat_nodes": float(len(fs))}


@_probe("profile")
def _probe_profile(ctx: RunContext) -> dict:
    """Self-similar profile checks: exponents, coefficient, energy, equation
    residual, and the cross-section g on [0, s_flat].  The fine profile
    takes half the step and 2 n_tab - 1 table nodes."""
    coarse = make_profile(ctx.cfg)
    fine = build_profile(coarse.n, coarse.p,
                         rk_step=coarse.table.rk_step / 2.0,
                         n_tab=2 * len(coarse.table.xi) - 1)
    C_exact = coefficient_closed_form(coarse.n, coarse.p)
    res_c = profile_residual(coarse)
    res_f = profile_residual(fine)
    s = np.linspace(0.0, coarse.s_flat, 401)
    ctx.write_table("profile_curve", "s,g",
                    zip(map(float, s), map(float, coarse.g_eval(s))))
    ctx.write_plot("profile_curve", "cross-section profile g", "s", "g")
    measured = {
        "C": float(coarse.C),
        "beta_value": float(coarse.beta),
        "coeff_rel_err": abs(coarse.C - C_exact) / C_exact,
        "depth": float(coarse.depth),
        "energy_drift": float(coarse.table.energy_drift),
        "residual_coarse": float(res_c.max_residual),
        "residual_fine": float(res_f.max_residual),
        "residual_ratio": float(res_f.max_residual / res_c.max_residual),
        "s_flat": float(coarse.s_flat),
    }
    ctx.write_table("profile_checks", "name,value",
                    sorted(measured.items()))
    return measured


@_probe("dual_refinement")
def _probe_dual_refinement(ctx: RunContext) -> dict:
    """Conjugated-flow residual of the config's exact quadratic at two
    resolutions: the config's lattice and the one with half its step."""
    p = float(ctx.cfg["op.p"])
    h0 = float(ctx.cfg["grid.h"])
    hs = (h0, h0 / 2.0)
    doms = [make_domain(dict(ctx.cfg, **{"grid.h": h})) for h in hs]
    sol = make_initial(ctx.cfg, doms[0].n)
    rows, worsts = [], []
    for h, dom in zip(hs, doms):
        u1 = sample(dom, sol, t=0.1)
        u2 = sample(dom, sol, t=0.11)
        worst, fld, _lt = dual_flow_residual(u1, u2, p)
        worsts.append(worst)
        rows.append((h, fld.domain.h_grid, worst))
    ctx.write_table("dual_residual", "h,dual_h,residual", rows)
    ctx.write_plot("dual_residual", "conjugated-flow residual vs h", "h",
                   "residual", logxy=True)
    return {"dual_residual": worsts[0],
            "dual_residual_fine": worsts[-1],
            "dual_ratio": worsts[-1] / worsts[0]}


@_probe("angle_suite")
def _probe_angle_suite(ctx: RunContext) -> dict:
    """Opening-angle machinery: planted exponents recovered from the decay.

    Samples |s|^(1+gamma) on a fine line and fits the angle decay across
    heights.  The machinery's properties and its brute-force oracle are
    tier-1 tests (``tests/test_analysis.py``), not probes.
    """
    gammas, step = (0.25, 0.5, 0.75, 1.0), 2e-4
    s = np.arange(-1.0, 1.0 + step / 2, step)
    hs = np.geomspace(0.005, 0.16, 6)
    rows, err_max = [], 0.0
    for g in gammas:
        rep = c1alpha_from_line(s, np.abs(s) ** (1.0 + g), hs)
        err = abs(rep.alpha_hat - g)
        err_max = max(err_max, err)
        rows.append((g, float(rep.alpha_hat), float(err)))
    ctx.write_table("angle_planted", "gamma,alpha_hat,abs_error", rows)
    ctx.write_plot("angle_planted", "planted exponent recovery", "gamma",
                   "alpha_hat")
    return {"planted_err_max": err_max}


@_probe("dichotomy")
def _probe_dichotomy(ctx: RunContext) -> dict:
    """Contact-set dichotomy on the final snapshot."""
    snaps = ctx.snapshots()
    rep = flat_dichotomy_probe(snaps)
    ctx.write_table("dichotomy",
                    "classification,max_motion,eps_flat,offenders",
                    [(rep.classification, float(rep.max_motion),
                      float(rep.eps_flat), len(rep.offenders))])
    ctx.write_plot("dichotomy", "contact-set dichotomy", "case", "motion",
                   using=(0, 2))
    return {"dichotomy_violations":
            float(len(rep.offenders)
                  if rep.classification == "violation" else 0)}


@_probe("dual_residual")
def _probe_dual_residual(ctx: RunContext) -> dict:
    """Conjugated-flow residual between the first and the last snapshot,
    at the power ``op.p`` (default 1); at any other power also at p = 1,
    from the same conjugates, so a reading that cannot tell the two powers
    apart shows as such."""
    snaps = ctx.snapshots()
    terms = dual_flow_terms(snaps[0], snaps[-1])
    p = float(ctx.cfg.get("op.p", 1.0))
    out = {"dual_residual": dual_residual_from_terms(terms, p)[0]}
    if p != 1.0:
        out["dual_residual_p1"] = dual_residual_from_terms(terms, 1.0)[0]
    return out


# every params key some probe reads
_PARAM_KEYS = frozenset().union(*_PROBE_PARAMS.values())


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def solve_to_snapshots(state: EvolutionState, cfg: dict, snap_dir):
    """Evolve ``state`` to ``run.t_end``, write ``snap_<k>.csv`` per frame,
    and return the frames, the t = 0 sample first."""
    settings = run_settings(cfg)
    frames = [state.u]                  # evolve re-binds state.u
    frames += evolve(state, settings["t_end"],
                     settings["snapshot_times"]).snapshots
    for k, snap in enumerate(frames):
        save_csv(snap, os.path.join(str(snap_dir), f"snap_{k}.csv"))
    return frames


def measured_lines(measured: dict) -> list:
    """``key = value`` lines, sorted by key, with 17-digit floats."""
    return [f"{k} = {fmt17(v)}" for k, v in sorted(measured.items())]


def run_experiment(spec: ExperimentSpec, out_root, seed: int = 0
                   ) -> ExperimentReport:
    """Execute one registry entry end to end and write its artifact tree.

    Layout under ``<out_root>/<name>/``: ``snapshots/*.csv``,
    ``probes/*.csv``, ``plots/*.gp`` and ``summary.txt``.  The seed feeds
    only the randomized property probes, never the solver.
    """
    out_dir = os.path.join(str(out_root), spec.name)
    snap_dir = os.path.join(out_dir, "snapshots")
    for sub in ("snapshots", "probes", "plots"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    ctx = RunContext.create(out_dir, cfg=spec.config, params=spec.params,
                            seed=seed)

    stage = "configure"
    try:
        ctx.state = make_state(spec.config)
        if "run.t_end" in spec.config:
            stage = "solve"
            ctx.frames = solve_to_snapshots(ctx.state, spec.config, snap_dir)
        measured: dict = {}
        for probe in spec.probes:
            stage = f"probe {probe}"
            measured.update(_PROBES[probe](ctx))
        stage = "outcomes"
        lines = [f"experiment: {spec.name}",
                 f"topic: {spec.topic}",
                 f"claim {spec.claim_id}: {spec.claim}",
                 "config:"]
        lines += ["  " + ln for ln in
                  format_config(spec.config).strip().splitlines()]
        lines.append("measured:")
        lines += ["  " + ln for ln in measured_lines(measured)]
        lines.append("outcomes:")
        passed = True
        for out in spec.outcomes:
            if out.name not in measured:
                raise ValueError(f"outcome {out.name!r} was not measured by "
                                 f"the probes {list(spec.probes)}")
            ok = out.check(measured[out.name])
            passed = passed and ok
            lines.append("  " + out.describe(measured[out.name]))
        lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
        stage = "summary"
        with open(os.path.join(out_dir, "summary.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
    except Exception as exc:
        raise ExperimentError(f"stage {stage!r} failed: {exc}") from exc
    return ExperimentReport(name=spec.name, passed=passed, measured=measured,
                            lines=lines, out_dir=out_dir)


def list_experiments(filter: str | None = None) -> list:
    """Registry entries sorted by name, optionally substring-filtered.

    The filter matches case-insensitively against the entry name and topic;
    an unknown filter yields an empty list (not an error).
    """
    entries = sorted(REGISTRY.values(), key=lambda s: s.name)
    if filter is None:
        return entries
    needle = filter.lower()
    return [s for s in entries
            if needle in s.name.lower() or needle in s.topic.lower()]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _entry(name, topic, claim_id, config, probes=(), outcomes=(),
           params=None) -> ExperimentSpec:
    return ExperimentSpec(name=name, topic=topic, claim_id=claim_id,
                          claim=claim_quote(claim_id), config=config,
                          probes=tuple(probes), outcomes=tuple(outcomes),
                          params=params or {})


_GEOM7 = [0.0001, 0.00031622776601683794, 0.001, 0.0031622776601683794,
          0.01, 0.03162277660168379, 0.1]
_EPS_129 = 10.0 * (2.0 / 128) ** 2          # the documented 10 h^2 default
_EPS_RED = 10.0 * 0.025 ** 2
_PAIRS = {"domain.kind": "ball", "domain.center": [0.0, 0.0],
          "domain.radius": 1.0, "grid.h": 0.1, "op.p": 1.0,
          "data.kind": "quadratic", "data.matrix": [[1.0, 0.0], [0.0, 1.0]]}

REGISTRY = {spec.name: spec for spec in [
    _entry(
        "noop", "plumbing", 1,
        config={"domain.kind": "ball", "domain.center": [0.0, 0.0],
                "domain.radius": 0.6, "grid.h": 0.2, "op.p": 1.0,
                "data.kind": "quadratic",
                "data.matrix": [[1.0, 0.0], [0.0, 1.0]]}),
    _entry(
        "quadratic-exact", "scheme-exactness", 1,
        config={"domain.kind": "ball", "domain.center": [0.0, 0.0],
                "domain.radius": 1.0, "grid.h": 0.1, "op.p": 1.2,
                "data.kind": "quadratic",
                "data.matrix": [[1.1, 0.3], [0.3, 1.1]],
                "run.t_end": 0.05, "run.snapshots": 5},
        probes=("exactness",),
        outcomes=(Outcome("exact_error", "le", 0.0, 1e-10, "derived"),)),
    _entry(
        "comparison-barriers", "comparison", 5,
        config={"domain.kind": "ball", "domain.center": [0.0, 0.0],
                "domain.radius": 1.0, "grid.h": 0.1, "op.p": 1.0,
                "data.kind": "quadratic",
                "data.matrix": [[1.0, 0.0], [0.0, 1.0]]},
        probes=("comparison_barriers",),
        outcomes=(
            Outcome("barrier_sub_violation", "le", 0.0, 1e-10, "quoted"),
            Outcome("barrier_super_violation", "le", 0.0, 1e-10, "quoted"))),
    _entry(
        "comparison-random", "comparison", 5, config=_PAIRS,
        probes=("comparison_random",),
        outcomes=(Outcome("pair_worst_gap", "le", 0.0, 1e-10, "quoted"),)),
    _entry(
        "comparison-random-p04", "comparison", 5,
        config={**_PAIRS, "op.p": 0.4},
        probes=("comparison_random",),
        outcomes=(Outcome("pair_worst_gap", "le", 0.0, 1e-10, "quoted"),)),
    _entry(
        "scaling-law", "scaling", 8,
        config={"domain.kind": "ball", "domain.center": [0.0, 0.0],
                "domain.radius": 2.0, "grid.h": 0.05, "op.p": 1.0,
                "data.kind": "quadratic",
                "data.matrix": [[1.0, 0.0], [0.0, 1.0]]},
        probes=("scaling",),
        outcomes=(Outcome("scaling_ratio_max", "le", 10.0, 0.0, "derived"),)),
    _entry(
        "holder-time-n2p1", "time-regularity", 2,
        config={"domain.kind": "ball", "domain.center": [0.0, 0.0],
                "domain.radius": 1.0, "grid.h": 0.1, "op.p": 1.0,
                "data.kind": "quadratic",
                "data.matrix": [[1.0, 0.0], [0.0, 1.0]],
                "run.t_end": 0.1, "run.snapshots": _GEOM7},
        probes=("holder_time",),
        outcomes=(Outcome("time_slope", "ge", 1.0 / 3.0, 0.1, "quoted"),)),
    _entry(
        "holder-time-n2p2", "time-regularity", 2,
        config={"domain.kind": "ball", "domain.center": [0.0, 0.0],
                "domain.radius": 1.0, "grid.h": 0.1, "op.p": 2.0,
                "data.kind": "quadratic",
                "data.matrix": [[1.0, 0.0], [0.0, 1.0]],
                "run.t_end": 0.1, "run.snapshots": _GEOM7},
        probes=("holder_time",),
        outcomes=(Outcome("time_slope", "ge", 0.2, 0.1, "quoted"),)),
    _entry(
        "holder-time-cone", "time-regularity", 2,
        config={"domain.kind": "ball", "domain.center": [0.0, 0.0],
                "domain.radius": 0.8, "grid.h": 0.05, "op.p": 1.0,
                "data.kind": "cone", "data.slope": 1.0,
                "run.t_end": 0.05,
                "run.snapshots": [0.001, 0.0019193831036664845,
                                  0.0036840314986403863, 0.0070710678118654745,
                                  0.013572088082974531, 0.026050036547934564,
                                  0.05]},
        probes=("holder_time",),
        outcomes=(Outcome("time_slope", "abs", 1.0 / 3.0, 0.1, "quoted"),)),
    _entry(
        "flat-side-persist-p1", "separation", 11,
        config={"domain.kind": "box", "domain.lower": [-1.0, -1.0],
                "domain.upper": [1.0, 1.0], "grid.h": 0.015625,
                "op.p": 1.0, "data.kind": "flat_disk", "data.radius": 0.45,
                "data.slope": 0.5, "run.t_end": 0.05,
                "run.snapshots": [0.0125, 0.025, 0.0375, 0.05]},
        probes=("separation",),
        outcomes=(
            Outcome("center_crossed", "le", 0.0, 0.0, "quoted"),
            Outcome("region_max_value", "le", 0.0, _EPS_129, "quoted")),
        params={"region_radius": 0.1}),
    _entry(
        "flat-side-clears-p04", "separation", 12,
        config={"domain.kind": "box", "domain.lower": [-1.0, -1.0],
                "domain.upper": [1.0, 1.0], "grid.h": 0.015625,
                "op.p": 0.4, "data.kind": "flat_disk", "data.radius": 0.45,
                "data.slope": 0.5, "run.t_end": 0.05,
                "run.snapshots": [0.0125, 0.025, 0.0375, 0.05]},
        probes=("separation",),
        outcomes=(
            Outcome("min_final_value", "ge", _EPS_129, 0.0, "quoted"),
            Outcome("center_crossed", "ge", 1.0, 0.0, "quoted"))),
    _entry(
        "edge-persist-n4p1", "separation", 4,
        config={"domain.kind": "box", "domain.lower": [-1.0, -1.0],
                "domain.upper": [1.0, 1.0], "grid.h": 0.025,
                "op.p": 1.0, "op.variant": "reduced", "op.n_full": 4,
                "data.kind": "selfsimilar", "data.T": 1.0, "run.t_end": 0.3,
                "run.snapshots": [0.075, 0.15, 0.225, 0.3]},
        probes=("separation",),
        outcomes=(
            Outcome("center_crossed", "le", 0.0, 0.0, "quoted"),
            Outcome("center_rise", "le", 0.0, _EPS_RED, "quoted"))),
    _entry(
        "edge-moves-n3p1", "separation", 15,
        config={"domain.kind": "box", "domain.lower": [-1.0, -1.0, -1.0],
                "domain.upper": [1.0, 1.0, 1.0], "grid.h": 0.05,
                "op.p": 1.0, "data.kind": "crease", "data.axis": -1,
                "data.quad_coeff": 0.5, "run.t_end": 0.021,
                "run.snapshots": [0.021]},
        probes=("separation",),
        outcomes=(
            Outcome("center_crossed", "ge", 1.0, 0.0, "quoted"),
            Outcome("center_first_time", "le", 0.021, 1e-12, "quoted"))),
    _entry(
        "interface-exponent-p1", "interface-regularity", 3,
        config={"domain.kind": "box", "domain.lower": [-1.0, -1.0],
                "domain.upper": [1.0, 1.0], "grid.h": 0.02,
                "op.p": 1.0, "data.kind": "flat_disk", "data.radius": 0.45,
                "data.slope": 0.5, "run.t_end": 0.02,
                "run.snapshots": [0.01, 0.02]},
        probes=("interface",),
        outcomes=(Outcome("gamma_hat", "abs", 1.0, 0.2, "quoted"),)),
    _entry(
        "selfsimilar-profile-n4p1", "self-similar", 10,
        config={"domain.kind": "box", "domain.lower": [-1.0, -1.0],
                "domain.upper": [1.0, 1.0], "grid.h": 0.05, "op.p": 1.0,
                "op.variant": "reduced", "op.n_full": 4,
                "data.kind": "selfsimilar", "data.T": 1.0},
        probes=("profile",),
        outcomes=(
            Outcome("beta_value", "abs", 6.0, 0.0, "quoted"),
            Outcome("coeff_rel_err", "le", 0.0, 1e-8, "derived"),
            Outcome("energy_drift", "le", 0.0, 1e-6, "derived"),
            Outcome("residual_coarse", "le", 0.0, 5e-3, "derived"),
            Outcome("residual_ratio", "le", 0.75, 0.0, "derived"))),
    _entry(
        "legendre-duality", "duality", 13,
        config={"domain.kind": "box", "domain.lower": [-1.0, -1.0],
                "domain.upper": [1.0, 1.0], "grid.h": 0.05, "op.p": 1.0,
                "data.kind": "quadratic",
                "data.matrix": [[1.2, 0.0], [0.0, 0.8]]},
        probes=("dual_refinement",),
        outcomes=(
            Outcome("dual_residual", "le", 0.0, 5e-2, "quoted"),
            Outcome("dual_ratio", "le", 1.0, 0.0, "derived"))),
    _entry(
        "angle-c1alpha", "interface-regularity", 3,
        config={"domain.kind": "ball", "domain.center": [0.0, 0.0],
                "domain.radius": 1.0, "grid.h": 0.1, "op.p": 1.0,
                "data.kind": "cone", "data.slope": 1.0},
        probes=("angle_suite",),
        outcomes=(
            Outcome("planted_err_max", "le", 0.0, 0.05, "quoted"),)),
    _entry(
        "flat-dichotomy", "interface-regularity", 14,
        config={"domain.kind": "box", "domain.lower": [-1.2, -1.2],
                "domain.upper": [1.2, 1.2], "grid.h": 0.03,
                "op.p": 1.0, "data.kind": "flat_disk", "data.radius": 0.5,
                "data.slope": 1.0, "run.t_end": 0.01,
                "run.snapshots": [0.005, 0.01]},
        probes=("dichotomy",),
        outcomes=(Outcome("dichotomy_violations", "le", 0.0, 0.0,
                          "quoted"),)),
]}
