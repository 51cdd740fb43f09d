"""
Sections, John ellipsoids and balancedness
==========================================

A convex lattice function is probed geometrically through its sections:
the nodes lying below a tilted plane at height h over a base point.  The
maximum-volume inscribed ellipsoid of a section certifies how balanced the
section is -- a d-balanced set sits between an ellipsoid and its d-fold
dilate, which is the quantitative convexity the regularity machinery runs
on.
"""

import numpy as np

from pma_lab import build_domain, sample
from pma_lab.exact import flat_disk_data
from pma_lab.geometry import balancedness, john_ellipsoid, section_at

dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                    "upper": [1.0, 1.0]}, h_grid=0.05, stencil_radius=2)
u = sample(dom, flat_disk_data(radius=0.4, slope=1.0), t=0.0)

# sections at the origin for a ladder of heights: each is the flat disk
# fattened by the cone's sublevel ring of width h/slope
for h in (0.05, 0.1, 0.2, 0.4):
    sec = section_at(u, [0.0, 0.0], h)
    print(f"height {h:4.2f}: {len(sec):4d} nodes, "
          f"touches boundary = {sec.touches_boundary}")

# the inscribed ellipsoid of the widest section, and its certificate
sec = section_at(u, [0.0, 0.0], 0.4)
ell = john_ellipsoid(sec.positions, [0.0, 0.0])
cert = balancedness(sec.positions, [0.0, 0.0])
print(f"\nellipsoid volume  = {ell.volume:.4f}")
print(f"semi-axes         = "
      f"{np.sqrt(np.linalg.eigvalsh(ell.shape_matrix))}")
print(cert)

# an off-center base point skews the section and worsens the balance
sec = section_at(u, [0.25, 0.0], 0.2)
cert = balancedness(sec.positions, [0.25, 0.0])
print(f"\noff-center d      = {cert.d:.3f}")
