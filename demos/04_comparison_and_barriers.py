"""
Discrete comparison and the two closed-form barriers
====================================================

Monotone explicit steps preserve ordering: if two lattice functions start
ordered and evolve with a shared stable step, they stay ordered to
roundoff.  The two barriers m (t + c) + 2|x|^2 - 3/2 and
(|x|^2 - 1)/2 + lam (t - C) solve the flow exactly for constant b, so each
paired with a lifted copy of itself makes a strict test of the property.
"""

import numpy as np

from pma_lab import (EvolutionState, OperatorConfig, build_domain,
                     comparison_check, evolve_pair, quadratic_solution,
                     sample)
from pma_lab.exact import subsolution_barrier, supersolution_barrier

dom = build_domain({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                   h_grid=0.1, stencil_radius=2)
cfg = OperatorConfig(p=1.0)

# 1. each barrier against its own copy shifted up by a margin
for label, barrier in (("sub ", subsolution_barrier(2, 1.0)),
                       ("super", supersolution_barrier(2, 1.0))):
    lo = sample(dom, barrier, t=0.0)
    hi = lo.copy(values=lo.values + 0.1)
    ua, ub = evolve_pair(
        EvolutionState(u=lo, cfg=cfg, boundary=barrier),
        EvolutionState(u=hi, cfg=cfg,
                       boundary=lambda pts, t, f=barrier: f(pts, t) + 0.1),
        0.02)
    rep = comparison_check(ua, ub)
    print(f"{label} barrier pair ordered: {rep.ordered}   "
          f"worst gap = {rep.max_violation:+.3e}")

# 2. a few random ordered quadratic pairs with frozen boundaries
rng = np.random.default_rng(3)
pos = dom.positions(dom.active_mask())
for k in range(5):
    Ra, Rb = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    qa = quadratic_solution(Ra @ Ra.T + 0.3 * np.eye(2), p=1.0)
    qb = quadratic_solution(Rb @ Rb.T + 0.3 * np.eye(2), p=1.0)
    gap = float(np.max(qa(pos, 0.0) - qb(pos, 0.0))) + 0.05
    lo = sample(dom, qa, t=0.0)
    hi = sample(dom, lambda pts, t, f=qb, g=gap: f(pts, t) + g, t=0.0)
    ua, ub = evolve_pair(EvolutionState(u=lo, cfg=cfg, boundary=None),
                         EvolutionState(u=hi, cfg=cfg, boundary=None), 0.02)
    rep = comparison_check(ua, ub)
    print(f"random pair {k}: ordered = {rep.ordered}   "
          f"worst gap = {rep.max_violation:+.3e}")
