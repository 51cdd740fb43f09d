"""Command-line front end.

Subcommands
-----------

* ``solve`` — run the configured flow and write snapshot CSVs.
* ``selfsimilar`` — the registry's ``profile`` probe at ``op.n_full = --n``
  and ``op.p = --p``, printed and written as ``analyze`` does.
* ``geometry`` — section / ellipsoid / balancedness report for a snapshot.
* ``analyze PROBE SNAPSHOTS...`` — run the registry probe ``PROBE`` (``-``
  read as ``_``) on snapshot CSVs in time order; print its ``measured:``
  lines and write ``<out>/analyze/{probes,plots,summary.txt}``.
* ``experiment run NAME... | --all`` and ``experiment list [FILTER]``.

Each subcommand takes only the flags it reads: ``--out DIR`` on every
command that writes (all but ``experiment list``), ``--config PATH`` on
``solve``, and ``--workers N`` (at least 1) and ``--seed N`` on ``experiment
run``; ``analyze`` takes ``--point``, ``--eps`` and ``--r-max`` only for a
probe that reads that params key, and ``--p`` only for ``dual-residual``.
The seed feeds only randomized property probes, never the solver, so solver
outputs are bit-identical across seeds and worker counts.

Exit codes: 0 when everything passed, 1 when any expected outcome failed,
2 for configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import ConfigError, format_config, make_state, read_config
from .experiments import (_PROBE_PARAMS, _PROBES, REGISTRY, ExperimentError,
                          RunContext, list_experiments, measured_lines,
                          run_experiment, solve_to_snapshots)
from .geometry import balancedness, save_ellipsoid, save_section, section_at
from .grid import fmt17, load_csv

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")

    ap = argparse.ArgumentParser(
        prog="pma-lab",
        description="monotone lab for the degenerate parabolic "
                    "Monge-Ampere flow u_t = b (det D^2 u)^p")
    sub = ap.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", parents=[writes],
                           help="run the configured flow and write snapshots")
    solve.add_argument("--config", metavar="PATH",
                       help="flat key = value configuration file")

    ss = sub.add_parser("selfsimilar", parents=[writes],
                        help="build the separating self-similar profile")
    ss.add_argument("--n", type=int, default=4, help="ambient dimension")
    ss.add_argument("--p", type=float, default=1.0, help="power p")

    geo = sub.add_parser("geometry", parents=[writes],
                         help="section, ellipsoid and balancedness report")
    geo.add_argument("snapshot", help="snapshot CSV")
    geo.add_argument("--height", type=float, required=True,
                     help="section height above the base value")
    geo.add_argument("--point", default=None,
                     help="base point, comma-separated (default: origin)")

    an = sub.add_parser("analyze", parents=[writes],
                        help="run one analysis probe over snapshot CSVs")
    an.add_argument("probe", choices=["separation", "holder-time",
                                      "interface", "dichotomy",
                                      "dual-residual"])
    an.add_argument("snapshots", nargs="+", help="snapshot CSVs (time order)")
    an.add_argument("--point", default=None,
                    help="probe node, comma-separated (default: origin)")
    an.add_argument("--eps", type=float, default=None)
    an.add_argument("--r-max", type=float, default=None)
    an.add_argument("--p", type=float, default=None,
                    help="power p for the dual-residual probe (default: 1)")

    ex = sub.add_parser("experiment", help="run or list registry experiments")
    exsub = ex.add_subparsers(dest="action", required=True)
    run = exsub.add_parser("run", parents=[writes])
    run.add_argument("names", nargs="*", help="experiment names")
    run.add_argument("--all", action="store_true",
                     help="run every registry entry")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="parallel experiment workers (default: 1)")
    run.add_argument("--seed", type=int, default=0, metavar="N",
                     help="seed for randomized property probes only")
    lst = exsub.add_parser("list")
    lst.add_argument("filter", nargs="?", default=None,
                     help="substring filter on name or topic")
    return ap


def _vector(text):
    return None if text is None else [float(c) for c in text.split(",")]


def _load_snapshots(paths):
    snaps = [load_csv(p) for p in paths]
    for path, snap in zip(paths, snaps):
        if not snaps[0].domain.same_lattice(snap.domain):
            raise ValueError(f"{path} is not on the lattice of {paths[0]}")
    times = [s.t for s in snaps]
    if sorted(times) != times:
        raise ValueError("snapshots must be given in increasing time order")
    return snaps


def _report(out_dir, lines) -> int:
    """Print the summary lines and write them to ``<out_dir>/summary.txt``."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    if not args.config:
        raise ConfigError("solve needs --config PATH")
    cfg = read_config(args.config)
    state = make_state(cfg)
    out_dir = os.path.join(args.out, "solve")
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    frames = solve_to_snapshots(state, cfg, snap_dir)
    inner = frames[0].domain.interior_mask()
    lines = ["solve:"]
    lines += ["  " + ln for ln in format_config(cfg).strip().splitlines()]
    lines.append(f"t_final = {fmt17(state.t)}")
    lines.append(f"snapshots = {len(frames)}")
    lines.append(
        f"final_range = [{fmt17(float(np.min(state.u.values[inner])))}"
        f", {fmt17(float(np.max(state.u.values[inner])))}]")
    return _report(out_dir, lines)


def _cmd_selfsimilar(args) -> int:
    out_dir = os.path.join(args.out, "selfsimilar")
    ctx = RunContext.create(out_dir, cfg={"op.n_full": args.n, "op.p": args.p})
    return _report(out_dir, measured_lines(_PROBES["profile"](ctx)))


def _cmd_geometry(args) -> int:
    u = load_csv(args.snapshot)
    point = _vector(args.point) or [0.0] * u.domain.n
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
    return _report(out_dir, lines)


def _cmd_analyze(args) -> int:
    probe = args.probe.replace("-", "_")
    params = {"point": _vector(args.point), "eps": args.eps,
              "r_max": args.r_max}
    params = {k: v for k, v in params.items() if v is not None}
    unread = [k for k in params if k not in _PROBE_PARAMS[probe]]
    if args.p is not None and probe != "dual_residual":
        unread.append("p")
    if unread:
        raise ConfigError(f"analyze {args.probe} does not read " + ", ".join(
            "--" + k.replace("_", "-") for k in unread))
    frames = _load_snapshots(args.snapshots)
    out_dir = os.path.join(args.out, "analyze")
    cfg = {} if args.p is None else {"op.p": args.p}
    ctx = RunContext.create(out_dir, cfg=cfg, params=params, frames=frames)
    return _report(out_dir, measured_lines(_PROBES[probe](ctx)))


def _run_one(name: str, out: str, seed: int):
    report = run_experiment(REGISTRY[name], out, seed=seed)
    return report.passed, report.lines


def _cmd_experiment(args) -> int:
    if args.action == "list":
        for spec in list_experiments(args.filter):
            print(f"{spec.name:26s} [{spec.topic}] claim {spec.claim_id}: "
                  f"{spec.claim}")
        return 0
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    if args.all and args.names:
        raise ConfigError("experiment run takes names or --all, not both")
    names = sorted(REGISTRY) if args.all else sorted(set(args.names))
    if not names:
        raise ConfigError("experiment run needs names or --all")
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ConfigError(f"unknown experiments: {unknown} "
                          f"(try: experiment list)")
    os.makedirs(args.out, exist_ok=True)
    workers = min(args.workers, len(names))
    if workers > 1:
        # a fork pool starts all of its workers on the first submit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {name: pool.submit(_run_one, name, args.out, args.seed)
                       for name in names}
            results = {name: fut.result() for name, fut in futures.items()}
    else:
        results = {name: _run_one(name, args.out, args.seed)
                   for name in names}
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
