"""Command-line front end.

Subcommands
-----------

* ``solve`` — run the configured flow and write snapshot CSVs.
* ``selfsimilar`` — build the separating profile and write its tables.
* ``geometry`` — section / ellipsoid / balancedness report for a snapshot.
* ``analyze`` — run one analysis probe over snapshot CSVs.
* ``experiment run NAME... | --all`` and ``experiment list [FILTER]``.

Global flags (shared by every subcommand): ``--config PATH``, ``--out DIR``,
``--workers N``, ``--seed N``.  The seed feeds only randomized property
probes, never the solver, so solver outputs are bit-identical across seeds
and worker counts.

Exit codes: 0 when everything passed, 1 when any expected outcome failed,
2 for configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analysis import (c1alpha_from_line, dual_flow_residual,
                       flat_dichotomy_probe, holder_time_fit,
                       interface_exponent, line_restriction,
                       separation_probe, write_plot_script)
from .config import ConfigError, format_config, make_state, read_config, \
    run_settings
from .evolution import evolve
from .exact import build_profile, coefficient_closed_form, profile_residual
from .experiments import (REGISTRY, ExperimentError, list_experiments,
                          run_experiment)
from .geometry import balancedness, flat_set, save_ellipsoid, save_section, \
    section_at
from .grid import fmt17, load_csv, save_csv

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key = value configuration file")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")
    common.add_argument("--workers", type=int, default=1, metavar="N",
                        help="parallel experiment workers (default: 1)")
    common.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed for randomized property probes only")

    ap = argparse.ArgumentParser(
        prog="pma-lab",
        description="monotone lab for the degenerate parabolic "
                    "Monge-Ampere flow u_t = b (det D^2 u)^p")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", parents=[common],
                   help="run the configured flow and write snapshots")

    ss = sub.add_parser("selfsimilar", parents=[common],
                        help="build the separating self-similar profile")
    ss.add_argument("--n", type=int, default=4, help="ambient dimension")
    ss.add_argument("--p", type=float, default=1.0, help="power p")
    ss.add_argument("--rk-step", type=float, default=4e-4)
    ss.add_argument("--n-tab", type=int, default=2501)

    geo = sub.add_parser("geometry", parents=[common],
                         help="section, ellipsoid and balancedness report")
    geo.add_argument("snapshot", help="snapshot CSV")
    geo.add_argument("--height", type=float, required=True,
                     help="section height above the base value")
    geo.add_argument("--point", default=None,
                     help="base point, comma-separated (default: origin)")

    an = sub.add_parser("analyze", parents=[common],
                        help="run one analysis probe over snapshot CSVs")
    an.add_argument("probe", choices=["separation", "holder-time",
                                      "interface", "dichotomy",
                                      "dual-residual", "angle"])
    an.add_argument("snapshots", nargs="+", help="snapshot CSVs (time order)")
    an.add_argument("--point", default=None,
                    help="probe node, comma-separated (default: origin)")
    an.add_argument("--direction", default=None,
                    help="lattice direction for the angle probe")
    an.add_argument("--eps", type=float, default=None)
    an.add_argument("--r-max", type=float, default=None)
    an.add_argument("--p", type=float, default=1.0,
                    help="power p for the dual-residual probe")

    ex = sub.add_parser("experiment", parents=[common],
                        help="run or list registry experiments")
    exsub = ex.add_subparsers(dest="action", required=True)
    run = exsub.add_parser("run", parents=[common])
    run.add_argument("names", nargs="*", help="experiment names")
    run.add_argument("--all", action="store_true",
                     help="run every registry entry")
    lst = exsub.add_parser("list", parents=[common])
    lst.add_argument("filter", nargs="?", default=None,
                     help="substring filter on name or topic")
    return ap


def _parse_point(text, n):
    if text is None:
        return [0.0] * n
    return [float(c) for c in str(text).split(",")]


def _load_snapshots(paths):
    snaps = [load_csv(p) for p in paths]
    times = [s.t for s in snaps]
    if sorted(times) != times:
        raise ValueError("snapshots must be given in increasing time order")
    return snaps


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    if not args.config:
        raise ConfigError("solve needs --config PATH")
    cfg = read_config(args.config)
    state = make_state(cfg)
    initial = state.u
    settings = run_settings(cfg)
    out_dir = os.path.join(args.out, "solve")
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    result = evolve(state, settings["t_end"], settings["snapshot_times"])
    save_csv(initial, os.path.join(snap_dir, "snap_0.csv"))
    for k, snap in enumerate(result.snapshots, start=1):
        save_csv(snap, os.path.join(snap_dir, f"snap_{k}.csv"))
    inner = initial.domain.interior_mask()
    lines = ["solve:"]
    lines += ["  " + ln for ln in format_config(cfg).strip().splitlines()]
    lines.append(f"t_final = {fmt17(result.t_final)}")
    lines.append(f"snapshots = {len(result.snapshots) + 1}")
    lines.append(
        f"final_range = [{fmt17(float(np.min(result.state.u.values[inner])))}"
        f", {fmt17(float(np.max(result.state.u.values[inner])))}]")
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _cmd_selfsimilar(args) -> int:
    profile = build_profile(args.n, args.p, rk_step=args.rk_step,
                            n_tab=args.n_tab)
    out_dir = os.path.join(args.out, "selfsimilar")
    probes = os.path.join(out_dir, "probes")
    plots = os.path.join(out_dir, "plots")
    os.makedirs(probes, exist_ok=True)
    os.makedirs(plots, exist_ok=True)
    s = np.linspace(0.0, profile.s_flat, 401)
    g = profile.g_eval(s)
    with open(os.path.join(probes, "profile_curve.csv"), "w") as f:
        f.write("s,g\n")
        f.write("\n".join(f"{fmt17(float(a))},{fmt17(float(b))}"
                          for a, b in zip(s, g)) + "\n")
    write_plot_script(os.path.join(plots, "profile_curve.gp"),
                      "../probes/profile_curve.csv",
                      "cross-section profile g", "s", "g")
    res = profile_residual(profile)
    lines = [
        f"n = {profile.n}", f"p = {fmt17(profile.p)}",
        f"beta = {fmt17(profile.beta)}",
        f"C = {fmt17(profile.C)}",
        f"C_closed_form = {fmt17(coefficient_closed_form(args.n, args.p))}",
        f"s_flat = {fmt17(profile.s_flat)}",
        f"depth = {fmt17(profile.depth)}",
        f"energy_drift = {fmt17(float(profile.table.energy_drift))}",
        f"pde_residual = {fmt17(float(res.max_residual))}",
    ]
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _cmd_geometry(args) -> int:
    u = load_csv(args.snapshot)
    point = _parse_point(args.point, u.domain.n)
    out_dir = os.path.join(args.out, "geometry")
    os.makedirs(out_dir, exist_ok=True)
    sec = section_at(u, point, args.height)
    save_section(os.path.join(out_dir, "section.csv"), sec)
    cert = balancedness(sec.positions, point)
    ell = cert.ellipsoid
    save_ellipsoid(os.path.join(out_dir, "ellipsoid.csv"), ell)
    lines = [
        f"section nodes = {len(sec)}",
        f"touches_boundary = {sec.touches_boundary}",
        f"ellipsoid volume = {fmt17(ell.volume)}",
        f"john iterations = {ell.iterations}",
        f"john gap = {fmt17(ell.gap)}",
        str(cert),
    ]
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _cmd_analyze(args) -> int:
    snaps = _load_snapshots(args.snapshots)
    n = snaps[0].domain.n
    out_dir = os.path.join(args.out, "analyze")
    os.makedirs(out_dir, exist_ok=True)
    lines: list[str] = []
    if args.probe == "separation":
        rep = separation_probe(snaps, eps=args.eps)
        rep.to_csv(os.path.join(out_dir, "separation.csv"))
        counts = rep.counts()
        lines.append(f"eps = {fmt17(rep.eps)}")
        lines += [f"{k} = {counts[k]}"
                  for k in ("instant", "delayed", "persistent")]
    elif args.probe == "holder-time":
        fit = holder_time_fit(snaps, _parse_point(args.point, n))
        lines.append(f"time_slope = {fmt17(float(fit.slope))}")
        lines.append(f"fit_residual = {fmt17(float(fit.residual))}")
    elif args.probe == "interface":
        fs = flat_set(snaps[-1])
        rep = interface_exponent(snaps[-1], fs, r_max=args.r_max)
        rep.to_csv(os.path.join(out_dir, "interface_bins.csv"))
        write_plot_script(os.path.join(out_dir, "interface_bins.gp"),
                          "interface_bins.csv",
                          "binned growth off the contact set",
                          "distance", "value", logxy=True)
        lines.append(f"gamma_hat = {fmt17(float(rep.gamma_hat))}")
        lines.append(f"flat_nodes = {len(fs)}")
    elif args.probe == "dichotomy":
        rep = flat_dichotomy_probe(snaps)
        lines.append(f"classification = {rep.classification}")
        lines.append(f"max_motion = {fmt17(float(rep.max_motion))}")
    elif args.probe == "dual-residual":
        if len(snaps) != 2:
            raise ValueError("dual-residual needs exactly two snapshots")
        worst, _field, _lt = dual_flow_residual(snaps[0], snaps[1], args.p)
        lines.append(f"dual_residual = {fmt17(float(worst))}")
    elif args.probe == "angle":
        direction = [int(c) for c in (args.direction or "1" + ",0" * (n - 1)
                                      ).split(",")]
        s, v = line_restriction(snaps[-1], _parse_point(args.point, n),
                                direction)
        # height ladder above the resolvable scale 10*Lip*h, 1.5 decades up
        lip = max(float(np.max(np.abs(np.diff(v) / np.diff(s)))), 1e-12)
        lo = 10.0 * lip * float(np.min(np.diff(s)))
        rep = c1alpha_from_line(s, v, np.geomspace(lo, 32.0 * lo, 6))
        lines.append(f"corner = {rep.corner}")
        lines.append(f"alpha_hat = {fmt17(float(rep.alpha_hat))}")
    print("\n".join(lines))
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def _run_one(name: str, out: str, seed: int):
    report = run_experiment(REGISTRY[name], out, seed=seed)
    return report.passed, report.lines


def _cmd_experiment(args) -> int:
    if args.action == "list":
        for spec in list_experiments(args.filter):
            print(f"{spec.name:26s} [{spec.topic}] claim {spec.claim_id}: "
                  f"{spec.claim}")
        return 0
    names = sorted(REGISTRY) if args.all else sorted(set(args.names))
    if not names:
        raise ConfigError("experiment run needs names or --all")
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ConfigError(f"unknown experiments: {unknown} "
                          f"(try: experiment list)")
    os.makedirs(args.out, exist_ok=True)
    results: dict = {}
    if args.workers > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = {name: pool.submit(_run_one, name, args.out, args.seed)
                       for name in names}
            for name in names:
                results[name] = futures[name].result()
    else:
        for name in names:
            results[name] = _run_one(name, args.out, args.seed)
    all_passed = True
    for name in names:
        passed, lines = results[name]
        all_passed = all_passed and passed
        print("\n".join(lines))
        print()
    print(f"{len(names)} experiment(s), "
          + ("all passed" if all_passed else "FAILURES above"))
    return 0 if all_passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "selfsimilar":
            return _cmd_selfsimilar(args)
        if args.command == "geometry":
            return _cmd_geometry(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ExperimentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
