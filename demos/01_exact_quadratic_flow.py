"""
Evolving an exact quadratic solution
====================================

The flow u_t = b (det D^2 u)^p moves a quadratic-in-space profile
u = x.M x / 2 + (det M)^p t upward at a constant rate, and the wide-stencil
operator reproduces the Hessian of such a profile exactly whenever one of
its search frames diagonalizes M.  Evolving the sampled profile therefore
tracks the closed form to roundoff -- the cleanest smoke test the scheme
has.
"""

import numpy as np

from pma_lab import (EvolutionState, OperatorConfig, build_domain, evolve,
                     quadratic_solution, sample)

# a disk domain, stepped at h = 0.1, with the standard two-wide stencil
dom = build_domain({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                   h_grid=0.1, stencil_radius=2)

# this Hessian is diagonalized by the (1,1)/(1,-1) frame, one of the
# directions the operator searches, so the discrete determinant is exact
M = np.array([[1.1, 0.3], [0.3, 1.1]])
sol = quadratic_solution(M, p=1.2)
state = EvolutionState(u=sample(dom, sol, t=0.0),
                       cfg=OperatorConfig(p=1.2), boundary=sol)

# run to t = 0.05 and compare against the closed form on the way
result = evolve(state, 0.05, snapshot_times=[0.0125, 0.025, 0.0375, 0.05])
mask = dom.interior_mask()
pos = dom.positions(mask)
for snap in result.snapshots:
    err = float(np.max(np.abs(snap.values[mask] - sol(pos, snap.t))))
    print(f"t = {snap.t:6.4f}   max |error| = {err:.3e}")

print(f"\n{result.state.steps} explicit steps, rate (det M)^p = "
      f"{float(np.linalg.det(M)) ** 1.2:.6f}")
