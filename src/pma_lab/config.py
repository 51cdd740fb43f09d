"""Flat dotted-key configuration for solves and experiments.

A configuration is plain text: one ``key = value`` pair per line, keys in
dotted namespaces, values Python literals (numbers, strings, lists).  Blank
lines and ``#`` comments are ignored.  The format is deliberately flat and
diff-friendly; one file pins down a run completely, and the experiment
registry embeds the same mappings.

Recognized keys:

* ``domain.kind`` — ``ball`` (the default) with ``domain.center`` and
  ``domain.radius``, or ``box`` with ``domain.lower`` and ``domain.upper``.
* ``grid.h`` — lattice spacing (required); the stencil radius of the
  lattice is the operator width.
* ``op.p`` — exponent (required); ``op.width`` 1|2|3 (default 2);
  ``op.variant`` ``plain`` | ``reduced`` (default ``plain``);
  ``op.n_full`` for the reduced variant only; ``op.b_expression`` in
  ``x1..xn, r, t`` (default ``"1"``) with pinch bounds ``op.lambda`` and
  ``op.Lambda`` (defaults 1, 1).
* ``data.kind`` and the ``data.*`` keys of that kind:

  - ``quadratic``: ``matrix`` (required);
  - ``cone``: ``slope``;
  - ``crease``: ``axis``, ``quad_coeff``;
  - ``flat_disk``: ``radius`` (required), ``slope``;
  - ``selfsimilar``: ``T``, at the flow's own n and p (``make_profile``);
  - ``expression``: ``expression`` (required), for any other data.
* ``run.t_end``; ``run.snapshots`` (count or explicit time list);
  ``run.boundary`` ``exact`` | ``frozen`` (default: exact for data kinds
  that are closed-form solutions, frozen otherwise).

Unknown keys, in a file or a dict, are configuration errors, and so are the
keys of a region or data kind other than the one named, a value of the wrong
type (an integer key takes only a whole number), and one that does not fit
the lattice (a non-finite region value, a ``data.matrix`` or ``data.axis`` of
another dimension, an expression in an axis the lattice lacks): a typo that
silently changed nothing would be worse than a refusal to run.
"""

from __future__ import annotations

import ast
import numbers

import numpy as np

from .evolution import EvolutionState
from .exact import (build_profile, cone_data, crease_data, flat_disk_data,
                    quadratic_solution)
from .grid import _REGION_KEYS, CoefficientField, Domain, build_domain, sample
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


# the data.* keys each data kind reads besides data.kind; a key of another
# kind is refused, as an unknown key is
_DATA_KEYS = {
    "quadratic": {"matrix"},
    "cone": {"slope"},
    "crease": {"axis", "quad_coeff"},
    "flat_disk": {"radius", "slope"},
    "selfsimilar": {"T"},
    "expression": {"expression"},
}

_KNOWN_KEYS = {
    "domain": {"kind"}.union(*_REGION_KEYS.values()),
    "grid": {"h"},
    "op": {"p", "width", "variant", "n_full", "b_expression", "lambda",
           "Lambda"},
    "data": {"kind"}.union(*_DATA_KEYS.values()),
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
        _check_key(key, f"line {lineno}: ")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            cfg[key] = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            cfg[key] = val            # bare string, e.g. data.kind = cone
    return cfg


def _check_key(key, where: str = "") -> None:
    """Refuse a key no run reads; ``where`` prefixes the message."""
    ns, _, leaf = str(key).partition(".")
    if ns not in _KNOWN_KEYS or not leaf:
        raise ConfigError(f"{where}unknown key {key!r}")
    if leaf not in _KNOWN_KEYS[ns]:
        raise ConfigError(f"{where}unknown key {key!r} (namespace '{ns}' "
                          f"takes {sorted(_KNOWN_KEYS[ns])})")


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


def _get(cfg: dict, key: str, default=None, required: bool = False,
         cast=None):
    """``cfg[key]``, passed through ``cast`` when given, else ``default``;
    a value ``cast`` cannot take is a ConfigError that names the key."""
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    if cast is None:
        return cfg[key]
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {cfg[key]!r} for {key!r}: {exc}") \
            from exc


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _int(value) -> int:
    # int() reads 2.7 as 2 and True as 1: a count takes only a whole number
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or value % 1 != 0:
        raise TypeError("expected a whole number")
    return int(value)


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
    """The ``grid.h`` lattice over the ``domain.*`` region (kind ``ball``
    unless given); :func:`build_domain` alone reads the region keys."""
    desc = {"kind": "ball"}
    desc.update((key[len("domain."):], val) for key, val in cfg.items()
                if key.startswith("domain."))
    h = _get(cfg, "grid.h", required=True, cast=float)
    try:
        return build_domain(desc, h_grid=h,
                            stencil_radius=_get(cfg, "op.width", 2, cast=_int))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_operator(cfg: dict) -> OperatorConfig:
    try:
        b = expression_field(_get(cfg, "op.b_expression", "1", cast=str),
                             _get(cfg, "op.lambda", 1.0, cast=float),
                             _get(cfg, "op.Lambda", 1.0, cast=float))
        return OperatorConfig(
            p=_get(cfg, "op.p", required=True, cast=float),
            width=_get(cfg, "op.width", 2, cast=_int),
            variant=_get(cfg, "op.variant", "plain", cast=str),
            b=b, n_full=_get(cfg, "op.n_full", cast=_int))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_profile(cfg: dict):
    """The self-similar profile of the run's flow: power ``op.p``; dimension
    ``op.n_full`` (only the reduced variant takes it), else the lattice's."""
    n = _get(cfg, "op.n_full", cast=_int)
    return build_profile(n=make_domain(cfg).n if n is None else n,
                         p=_get(cfg, "op.p", required=True, cast=float))


def make_initial(cfg: dict):
    """The initial data named by ``data.kind``, as ``(points, t) -> values``."""
    kind = _get(cfg, "data.kind", required=True, cast=str)
    if kind not in _DATA_KEYS:
        raise ConfigError(f"unknown data.kind {kind!r}")
    extra = sorted(key for key in cfg if key.startswith("data.")
                   and key[len("data."):] not in _DATA_KEYS[kind] | {"kind"})
    if extra:
        raise ConfigError(f"data.kind {kind!r} does not read {extra} (it "
                          f"takes {sorted(_DATA_KEYS[kind])})")
    try:
        if kind == "quadratic":
            return quadratic_solution(
                _get(cfg, "data.matrix", required=True, cast=_floats),
                p=_get(cfg, "op.p", required=True, cast=float))
        if kind == "cone":
            return cone_data(slope=_get(cfg, "data.slope", 1.0, cast=float))
        if kind == "crease":
            return crease_data(
                axis=_get(cfg, "data.axis", -1, cast=_int),
                quad_coeff=_get(cfg, "data.quad_coeff", 0.5, cast=float))
        if kind == "flat_disk":
            return flat_disk_data(
                radius=_get(cfg, "data.radius", required=True, cast=float),
                slope=_get(cfg, "data.slope", 1.0, cast=float))
        if kind == "selfsimilar":
            # read before the profile build, which takes a while
            T = _get(cfg, "data.T", 1.0, cast=float)
            profile = make_profile(cfg)
            return lambda pts, t: profile.eval(pts, t, T)
        return _compile_expression(
            _get(cfg, "data.expression", required=True, cast=str))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_state(cfg: dict) -> EvolutionState:
    """Assemble domain, operator and initial data into an evolution state."""
    for key in cfg:
        _check_key(key)
    dom = make_domain(cfg)
    op = make_operator(cfg)
    sol = make_initial(cfg)
    want = (dom.n, dom.n)
    if "data.matrix" in cfg and np.shape(cfg["data.matrix"]) != want:
        raise ConfigError(f"data.matrix = {cfg['data.matrix']!r} does not "
                          f"fit the {dom.n}-D lattice: it needs shape {want}")
    if not -dom.n <= _get(cfg, "data.axis", 0, cast=_int) < dom.n:
        raise ConfigError(f"data.axis = {cfg['data.axis']!r} does not fit the "
                          f"{dom.n}-D lattice: it is not one of its axes")
    for key in ("data.expression", "op.b_expression"):
        expr = _get(cfg, key, "1", cast=str)
        lacks = sorted({f"x{i}" for i in range(dom.n + 1, 10)}.intersection(
            compile(expr, "<config expression>", "eval").co_names))
        if lacks:
            raise ConfigError(f"{key} = {expr!r} does not fit the {dom.n}-D "
                              f"lattice: it reads {lacks}")
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
    t_end = _get(cfg, "run.t_end", required=True, cast=float)
    if not (t_end > 0 and np.isfinite(t_end)):
        raise ConfigError(f"run.t_end must be positive and finite: {t_end}")
    snaps = _get(cfg, "run.snapshots", 4)
    if isinstance(snaps, numbers.Real):
        snaps = _get(cfg, "run.snapshots", 4, cast=_int)
        if snaps < 1:
            raise ConfigError("run.snapshots must name at least one time")
        times = list(np.linspace(0.0, t_end, snaps + 1)[1:])
    else:
        times = _get(cfg, "run.snapshots",
                     cast=lambda v: sorted(float(s) for s in v))
        if not times or any(s <= 0 or s > t_end + 1e-15 for s in times):
            raise ConfigError("run.snapshots times must lie in (0, t_end]")
    return {"t_end": t_end, "snapshot_times": times}
