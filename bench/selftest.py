"""Self-test of the benchmark's checks and tracer, at tiny sizes.

    python3 bench/selftest.py

Each workload runs one round on small lattices and short horizons; every
check must pass.  Then, for every check, one error is planted in a copy of
the outputs (a node nudged by 1e-6, a pair swapped, an ellipsoid grown) and
that check must fail, so a check that stops checking shows here.  Last, the
tracer must wrap a function in every module that imported it and restore
the originals.  Exits 1 on the first problem, 0 when all hold.
"""
from __future__ import annotations

import copy
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Round  # noqa: E402

NUDGE = 1e-6


def _inner_node(gf):
    """An interior node off the lattice centre."""
    idx = np.argwhere(gf.domain.interior_mask())
    return tuple(idx[len(idx) // 3])


def _nudge(gf, delta):
    gf.values[_inner_node(gf)] += delta


def _monotone(key="frames"):
    """Drop one node of a middle frame just below its previous value."""
    def plant(inp, out):
        prev, cur = out[key][1], out[key][2]
        node = _inner_node(cur)
        cur.values[node] = prev.values[node] - NUDGE
    return plant


def _plant_csv(inp, out):
    path = out["paths"][-1]
    with open(path) as f:
        lines = f.read().splitlines()
    head, value = lines[-1].rsplit(",", 1)
    lines[-1] = f"{head},{float(value) + NUDGE!r}"
    bad = path + ".planted"
    with open(bad, "w") as f:
        f.write("\n".join(lines) + "\n")
    out["paths"][-1] = bad


def _plant_unrisen(inp, out):
    first, last = out["frames"][0], out["frames"][-1]
    node = _inner_node(last)
    last.values[node] = first.values[node]


def _swap_first(key):
    def plant(inp, out):
        a, b = out[key][0]
        out[key][0] = (b, a)
    return plant


def _plant_centre(inp, out):
    last = out["reduced"][-1]
    centre = tuple(int(np.argmin(np.abs(a))) for a in last.domain.axes())
    last.values[centre] += 10.0 * last.domain.h_grid ** 2 + NUDGE


def _scale_shape(label, factor):
    def plant(inp, out):
        out["sections"][label][1].ellipsoid.shape_matrix[...] *= factor
    return plant


def _plant_small_ellipsoid(inp, out):
    m = out["sections"]["offset"][1].ellipsoid.shape_matrix
    m[...] = np.diag([1.0, 1e-4]) * float(np.min(np.linalg.eigvalsh(m)))


def _shift_dual(key, delta):
    def plant(inp, out):
        out[key].dual.values[...] += delta
    return plant


def _plant_flat(inp, out):
    object.__setattr__(out["flat"], "indices", out["flat"].indices[1:])


def _plant_separation(inp, out):
    ft = out["separation"].first_time
    ft[np.flatnonzero(np.isfinite(ft))[0]] += NUDGE


PLANTERS = {
    "flat-p04": {
        "monotone_in_time": _monotone(),
        "square_symmetry":
            lambda inp, out: _nudge(out["frames"][-1], NUDGE),
        "flat_side_cleared": _plant_unrisen,
        "snapshot_csv": _plant_csv,
    },
    "crease-n3": {
        "monotone_in_time": _monotone(),
        "axis_and_swap_symmetry":
            lambda inp, out: _nudge(out["frames"][-1], NUDGE),
    },
    "small-ensemble": {
        "reduced_monotone_in_time": _monotone("reduced"),
        "pairs_ordered": _swap_first("pairs"),
        "barriers_ordered": _swap_first("barriers"),
        "quadratics_exact": lambda inp, out: _nudge(out["quads"][0], NUDGE),
        "reduced_centre_kept": _plant_centre,
    },
    "geometry": {
        "monotone_in_time": _monotone(),
        "john_inside_origin": _scale_shape("origin", 1.01),
        "john_touches_origin": _scale_shape("origin", 0.99),
        "john_inside_offset": _scale_shape("offset", 1.01),
        "john_touches_offset": _scale_shape("offset", 0.99),
        "john_volume_offset": _plant_small_ellipsoid,
        "fenchel_young_dual": _shift_dual("dual", -NUDGE),
        "fenchel_young_quad_dual": _shift_dual("quad_dual", -NUDGE),
        "quadratic_dual": _shift_dual("quad_dual", NUDGE),
        "flat_set_members": _plant_flat,
        "separation_times": _plant_separation,
    },
}


def check_workload(name: str, out_dir: str) -> list[str]:
    problems = []
    wl = workloads.WORKLOADS[name](tiny=True)
    inp = wl.setup(np.random.default_rng(0))
    rnd = Round()
    out = wl.run(inp, rnd, out_dir)
    if rnd.failed or rnd.attempted == 0:
        return [f"{name}: {rnd.failed} of {rnd.attempted} operations failed "
                f"{rnd.errors}"]
    clean = wl.check(inp, out)
    known = getattr(wl, "known_faults", {})
    for check, (ok, detail) in sorted(clean.items()):
        print(f"{name} {check}: clean {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok and check in known:
            # the fault stays on record until the program is mended
            print(f"{name} {check}: known fault, {known[check]}")
            clean.pop(check)
        elif not ok:
            problems.append(f"{name} {check} fails on clean output")
    planters = PLANTERS[name]
    for check in sorted(set(clean) - set(planters)):
        problems.append(f"{name} {check} has no planted error")
    for check in sorted(set(clean) & set(planters)):
        bad = copy.deepcopy(out)
        planters[check](inp, bad)
        ok, detail = wl.check(inp, bad)[check]
        print(f"{name} {check}: planted {'PASS' if ok else 'FAIL'} "
              f"({detail})")
        if ok:
            problems.append(f"{name} {check} passes a planted error")
    return problems


def check_tracer(out_dir: str) -> list[str]:
    import pma_lab.evolution as evolution
    import pma_lab.monge_ampere as monge_ampere

    orig = monge_ampere.ma_field
    tr = tracing.Tracer()
    tr.begin("round")
    tr.patch()
    try:
        patched = (monge_ampere.ma_field is not orig
                   and evolution.ma_field is monge_ampere.ma_field)
        wl = workloads.WORKLOADS["crease-n3"](tiny=True)
        wl.run(wl.setup(np.random.default_rng(0)), Round(), out_dir)
    finally:
        tr.unpatch()
    problems = []
    if not patched:
        problems.append("tracer did not patch ma_field in both modules")
    if monge_ampere.ma_field is not orig or evolution.ma_field is not orig:
        problems.append("tracer did not restore ma_field")
    m = tr.metrics(0.0)
    calls = m["monge_ampere.ma_field.calls"]["value"]
    steps = m["evolution.steps"]["value"]
    evolve_s = m["evolution.evolve.s"]["value"]
    self_s = m["evolution.evolve.self_s"]["value"]
    field_s = m["monge_ampere.ma_field.s"]["value"]
    print(f"tracer: {calls:.0f} ma_field calls, {steps:.0f} steps, evolve "
          f"{evolve_s:.4f} s of which self {self_s:.4f} s")
    if calls == 0 or calls != steps:
        problems.append(f"tracer counted {calls} ma_field calls for "
                        f"{steps} steps")
    if not 0.0 < self_s < evolve_s - field_s + 1e-9:
        problems.append("evolve self time does not exclude its children")
    return problems


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in workloads.WORKLOADS:
            problems += check_workload(name, tmp)
        problems += check_tracer(tmp)
    for p in problems:
        print(f"PROBLEM: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
