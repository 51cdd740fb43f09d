"""Flat dotted-key configuration for solves and experiments.

A configuration is plain text: one ``key = value`` pair per line, keys in
dotted namespaces, values Python literals (numbers, strings, lists).  Blank
lines and ``#`` comments are ignored.  The format is deliberately flat and
diff-friendly; one file pins down a run completely, and the experiment
registry embeds the same mappings.

Recognized keys:

* ``domain.kind`` — ``ball`` | ``box`` (default ``ball``), with
  ``domain.center``/``domain.radius`` or ``domain.lower``/``domain.upper``.
* ``grid.h`` — lattice spacing (required); the stencil radius of the
  lattice is the operator width.
* ``op.p`` — exponent (required); ``op.width`` 1|2|3 (default 2);
  ``op.variant`` ``plain`` | ``reduced`` (default ``plain``);
  ``op.n_full`` for the reduced variant only; ``op.b_expression`` in
  ``x1..xn, r, t`` (default ``"1"``) with pinch bounds ``op.lambda`` and
  ``op.Lambda`` (defaults 1, 1).
* ``data.kind`` — ``quadratic`` | ``cone`` | ``crease`` | ``flat_disk`` |
  ``power`` | ``selfsimilar`` | ``expression`` plus kind parameters
  (``data.matrix``, ``data.radius``, ``data.gamma``, ``data.expression``,
  ...).
* ``run.t_end``; ``run.snapshots`` (count or explicit time list);
  ``run.boundary`` ``exact`` | ``frozen`` (default: exact for data kinds
  that are closed-form solutions, frozen otherwise).

Unknown keys are configuration errors: a typo that silently changed nothing
would be worse than a refusal to run.
"""

from __future__ import annotations

import ast

import numpy as np

from .evolution import EvolutionState
from .exact import (build_profile, cone_data, crease_data, flat_disk_data,
                    planted_power_data, quadratic_solution)
from .grid import CoefficientField, Domain, build_domain, sample
from .monge_ampere import OperatorConfig

__all__ = [
    "ConfigError",
    "expression_field",
    "format_config",
    "make_domain",
    "make_initial",
    "make_operator",
    "make_profile",
    "make_state",
    "parse_config",
    "read_config",
    "run_settings",
]


class ConfigError(ValueError):
    """A configuration that cannot be turned into a run."""


_KNOWN_KEYS = {
    "domain": {"kind", "center", "radius", "lower", "upper"},
    "grid": {"h"},
    "op": {"p", "width", "variant", "n_full", "b_expression", "lambda",
           "Lambda"},
    "data": {"kind", "matrix", "b0", "linear", "slope", "center", "axis",
             "quad_coeff", "radius", "gamma", "coeff", "direction", "n", "p",
             "T", "reduced", "rk_step", "n_tab", "expression"},
    "run": {"t_end", "snapshots", "boundary"},
}

# data kinds whose evaluator solves the flow in closed form, so the exact
# values can keep refreshing the boundary band during evolution
_EXACT_KINDS = {"quadratic", "selfsimilar", "expression"}


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines into a flat dict of literals."""
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        ns, _, leaf = key.partition(".")
        if ns not in _KNOWN_KEYS or not leaf:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if leaf not in _KNOWN_KEYS[ns]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} "
                              f"(namespace '{ns}' takes "
                              f"{sorted(_KNOWN_KEYS[ns])})")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            cfg[key] = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            cfg[key] = val            # bare string, e.g. data.kind = cone
    return cfg


def read_config(path) -> dict:
    with open(path) as f:
        return parse_config(f.read())


def format_config(cfg: dict) -> str:
    """Deterministic one-key-per-line rendering (sorted, literal values)."""
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        lines.append(f"{key} = {val!r}" if isinstance(val, str)
                     else f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _get(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required key {key!r}")
    return default


# ---------------------------------------------------------------------------
# coefficient expressions
# ---------------------------------------------------------------------------

_EXPR_FUNCS = {
    "abs": np.abs, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "minimum": np.minimum,
    "maximum": np.maximum, "where": np.where, "pi": np.pi, "e": np.e,
}


def _compile_expression(expr: str):
    """Restricted vectorized evaluator in ``x1..xn``, ``r`` and ``t``."""
    try:
        code = compile(expr, "<config expression>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {expr!r}: {exc.msg}") from exc
    allowed = set(_EXPR_FUNCS) | {"t", "r"} | {f"x{i}" for i in range(1, 10)}
    bad = set(code.co_names) - allowed
    if bad:
        raise ConfigError(f"expression {expr!r} uses unknown names "
                          f"{sorted(bad)}")

    def evaluator(points: np.ndarray, t) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        env = {f"x{i + 1}": pts[:, i] for i in range(pts.shape[1])}
        env["r"] = np.linalg.norm(pts, axis=1)
        env["t"] = t
        env.update(_EXPR_FUNCS)
        out = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               (pts.shape[0],)).copy()

    return evaluator


def expression_field(expr: str, lam: float = 1.0,
                     Lam: float = 1.0) -> CoefficientField:
    """Coefficient ``b(x, t)`` from a restricted expression string."""
    if expr.strip() == "1":
        return CoefficientField.constant(1.0)
    return CoefficientField(evaluator=_compile_expression(expr),
                            lam=float(lam), Lam=float(Lam))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def make_domain(cfg: dict) -> Domain:
    kind = _get(cfg, "domain.kind", "ball")
    if kind == "ball":
        center = _get(cfg, "domain.center", required=True)
        desc = {"kind": "ball", "center": list(map(float, center)),
                "radius": float(_get(cfg, "domain.radius", required=True))}
    elif kind == "box":
        lower = _get(cfg, "domain.lower", required=True)
        upper = _get(cfg, "domain.upper", required=True)
        desc = {"kind": "box", "lower": list(map(float, lower)),
                "upper": list(map(float, upper))}
    else:
        raise ConfigError(f"domain.kind must be 'ball' or 'box', got {kind!r}")
    h = float(_get(cfg, "grid.h", required=True))
    try:
        return build_domain(desc, h_grid=h,
                            stencil_radius=int(_get(cfg, "op.width", 2)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_operator(cfg: dict) -> OperatorConfig:
    lam = float(_get(cfg, "op.lambda", 1.0))
    Lam = float(_get(cfg, "op.Lambda", 1.0))
    try:
        b = expression_field(str(_get(cfg, "op.b_expression", "1")), lam, Lam)
        return OperatorConfig(
            p=float(_get(cfg, "op.p", required=True)),
            width=int(_get(cfg, "op.width", 2)),
            variant=str(_get(cfg, "op.variant", "plain")),
            b=b,
            n_full=(int(cfg["op.n_full"]) if "op.n_full" in cfg else None))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_profile(cfg: dict):
    """The self-similar profile named by the ``data.*`` keys."""
    return build_profile(n=int(_get(cfg, "data.n", required=True)),
                         p=float(_get(cfg, "data.p", required=True)),
                         rk_step=float(_get(cfg, "data.rk_step", 4e-4)),
                         n_tab=int(_get(cfg, "data.n_tab", 2501)))


def make_initial(cfg: dict):
    """The initial data named by ``data.kind``, as ``(points, t) -> values``."""
    kind = _get(cfg, "data.kind", required=True)
    try:
        if kind == "quadratic":
            M = np.array(_get(cfg, "data.matrix", required=True), dtype=float)
            return quadratic_solution(
                M, p=float(_get(cfg, "op.p", required=True)),
                b0=float(_get(cfg, "data.b0", 1.0)),
                linear=_get(cfg, "data.linear"))
        if kind == "cone":
            return cone_data(slope=float(_get(cfg, "data.slope", 1.0)),
                             center=_get(cfg, "data.center"))
        if kind == "crease":
            return crease_data(
                axis=int(_get(cfg, "data.axis", -1)),
                quad_coeff=float(_get(cfg, "data.quad_coeff", 0.5)))
        if kind == "flat_disk":
            return flat_disk_data(
                radius=float(_get(cfg, "data.radius", required=True)),
                slope=float(_get(cfg, "data.slope", 1.0)))
        if kind == "power":
            return planted_power_data(
                gamma=float(_get(cfg, "data.gamma", required=True)),
                coeff=float(_get(cfg, "data.coeff", 1.0)),
                direction=_get(cfg, "data.direction"))
        if kind == "selfsimilar":
            return make_profile(cfg).as_initial_data(
                T=float(_get(cfg, "data.T", 1.0)),
                reduced=bool(_get(cfg, "data.reduced", False)))
        if kind == "expression":
            return _compile_expression(
                str(_get(cfg, "data.expression", required=True)))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown data.kind {kind!r}")


def make_state(cfg: dict) -> EvolutionState:
    """Assemble domain, operator and initial data into an evolution state."""
    dom = make_domain(cfg)
    op = make_operator(cfg)
    sol = make_initial(cfg)
    u = sample(dom, sol, t=0.0)
    mode = _get(cfg, "run.boundary",
                "exact" if _get(cfg, "data.kind") in _EXACT_KINDS
                else "frozen")
    if mode == "exact":
        boundary = sol
    elif mode == "frozen":
        boundary = None
    else:
        raise ConfigError(
            f"run.boundary must be 'exact' or 'frozen', got {mode!r}")
    return EvolutionState(u=u, cfg=op, boundary=boundary)


def run_settings(cfg: dict) -> dict:
    """Final time and snapshot schedule for a solve."""
    t_end = float(_get(cfg, "run.t_end", required=True))
    if t_end <= 0:
        raise ConfigError(f"run.t_end must be positive, got {t_end}")
    snaps = _get(cfg, "run.snapshots", 4)
    if isinstance(snaps, int):
        if snaps < 1:
            raise ConfigError("run.snapshots must name at least one time")
        times = list(np.linspace(0.0, t_end, snaps + 1)[1:])
    else:
        times = [float(s) for s in snaps]
        if not times or any(s <= 0 or s > t_end + 1e-15 for s in times):
            raise ConfigError("run.snapshots times must lie in (0, t_end]")
        times = sorted(times)
    return {"t_end": t_end, "snapshot_times": times}
