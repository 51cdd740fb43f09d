"""
The flat-side dichotomy in the exponent p
=========================================

Initial data with a genuinely flat disk (zero on r <= R, conical outside)
behaves in two sharply different ways under u_t = (det D^2 u)^p in the
plane: for p >= 1/n = 1/2 the flat side persists for a definite time, while
for p < 1/2 it disappears.  This demo runs both regimes on a coarse grid --
the heart of the p = 1 disk stays far below the separation scale (the rim
erodes inward, so the certified region shrinks with time) while every
initially flat node at p = 0.4 has cleared that scale by t = 0.1.  The
acceptance runs repeat the experiment at 129^2.
"""

import numpy as np

from pma_lab import (EvolutionState, OperatorConfig, build_domain, evolve,
                     sample)
from pma_lab.exact import flat_disk_data

dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                    "upper": [1.0, 1.0]}, h_grid=0.05, stencil_radius=2)
data = flat_disk_data(radius=0.45, slope=0.5)
eps = 10.0 * dom.h_grid ** 2           # the resolvable separation scale
pos = dom.positions(np.ones(dom.shape, dtype=bool)).reshape(dom.shape + (2,))
inner = dom.interior_mask() & (np.linalg.norm(pos, axis=-1) <= 0.15)

for p, t_end in ((1.0, 0.05), (0.4, 0.1)):
    u0 = sample(dom, data, t=0.0)
    flat0 = dom.interior_mask() & (u0.values == 0.0)
    state = EvolutionState(u=u0, cfg=OperatorConfig(p=p), boundary=None)
    result = evolve(state, t_end,
                    snapshot_times=list(np.linspace(0.0, t_end, 5)[1:]))
    final = result.state.u.values
    print(f"p = {p}: {result.state.steps} steps to t = {t_end}, "
          f"{int(flat0.sum())} initially flat nodes")
    print(f"  max rise on the inner disk r <= 0.15: "
          f"{float(np.max(final[inner])):.3e}")
    print(f"  min rise over the whole flat disk:    "
          f"{float(np.min(final[flat0])):.3e}   (eps = {eps:.3e})")

# at p = 1 the disk's heart stays orders of magnitude below eps; at p = 0.4
# even the slowest flat node has cleared it
