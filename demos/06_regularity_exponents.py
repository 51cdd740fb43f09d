"""
Reading off the regularity exponents
====================================

Three exponents characterize how solutions regularize, and each one is
measurable with a log-log fit:

* beta = 1/(np+1), the growth of u(x, t) - u(x, 0) in time at a conical
  point;
* gamma_p = p/(np-1), the spatial growth of u off its flat side;
* the angle exponent alpha, read from how fast the widest two-slope angle
  under a line restriction closes as the drop height shrinks.
"""

import numpy as np

from pma_lab import (EvolutionState, OperatorConfig, build_domain, evolve,
                     sample)
from pma_lab.analysis import (c1alpha_from_line, flat_set, holder_time_fit,
                              interface_exponent)
from pma_lab.exact import cone_data

# 1. time exponent at the vertex of a cone, n = 2, p = 1: expect 1/3
dom = build_domain({"kind": "ball", "center": [0.0, 0.0], "radius": 0.8},
                   h_grid=0.05, stencil_radius=2)
u0 = sample(dom, cone_data(slope=1.0), t=0.0)
state = EvolutionState(u=u0, cfg=OperatorConfig(p=1.0), boundary=None)
times = list(np.geomspace(1e-3, 0.05, 7))
result = evolve(state, 0.05, snapshot_times=times)
fit = holder_time_fit([u0] + result.snapshots, [0.0, 0.0])
print(f"cone vertex time slope = {float(fit.slope):.4f}   "
      f"(1/(np+1) = {1 / 3:.4f})")

# 2. spatial exponent off a planted flat side: u = dist^(1+gamma)
box = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                    "upper": [1.0, 1.0]}, h_grid=0.02, stencil_radius=2)
for gamma in (0.5, 1.0):
    u = sample(box, lambda pts, t, g=gamma: np.maximum(
        0.0, np.linalg.norm(pts, axis=1) - 0.25) ** (1.0 + g), t=0.0)
    rep = interface_exponent(u, flat_set(u))
    print(f"planted gamma = {gamma}: fitted gamma_hat = "
          f"{float(rep.gamma_hat):.4f}")

# 3. angle exponent along a line sample of |s|^(1+gamma)
s = np.arange(-1.0, 1.0 + 1e-4, 2e-4)
hs = np.geomspace(0.005, 0.16, 6)
for gamma in (0.25, 0.75):
    rep = c1alpha_from_line(s, np.abs(s) ** (1.0 + gamma), hs)
    print(f"planted angle exponent {gamma}: recovered = "
          f"{float(rep.alpha_hat):.4f}")
