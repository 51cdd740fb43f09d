import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pma_lab import config
from pma_lab.config import (_KNOWN_KEYS, ConfigError, expression_field,
                            format_config, make_domain, make_initial,
                            make_operator, make_state, parse_config,
                            read_config, run_settings)
from pma_lab.exact import build_profile
from pma_lab.experiments import REGISTRY
from pma_lab.grid import _REGION_KEYS, build_domain, sample

BALL = {"domain.kind": "ball", "domain.center": [0.0, 0.0],
        "domain.radius": 1.0, "grid.h": 0.1}
QUAD = dict(BALL, **{"op.p": 1.0, "data.kind": "quadratic",
                     "data.matrix": [[1.0, 0.0], [0.0, 1.0]]})


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def test_parse_literals_comments_and_bare_strings():
    cfg = parse_config(
        "# a full run pin\n"
        "\n"
        "domain.kind = ball          # trailing comment\n"
        "domain.center = [0.0, 0.0]\n"
        "domain.radius = 1.5\n"
        "grid.h = 0.1\n"
        "op.p = 2\n"
        "data.kind = cone\n")
    assert cfg["domain.kind"] == "ball"          # bare string
    assert cfg["domain.center"] == [0.0, 0.0]    # literal list
    assert cfg["domain.radius"] == 1.5
    assert cfg["op.p"] == 2 and isinstance(cfg["op.p"], int)
    assert cfg["data.kind"] == "cone"


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown key 'domain.radiuss'"):
        parse_config("domain.radiuss = 1.0")
    with pytest.raises(ConfigError, match="unknown key 'mesh.h'"):
        parse_config("mesh.h = 0.1")
    # settings that no run varied: the stencil radius is op.width, the
    # step is h^2 / max slope
    for key in ("run.kappa", "run.dt_max", "grid.stencil_radius"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"{key} = 1")
    with pytest.raises(ConfigError, match="duplicate key 'grid.h'"):
        parse_config("grid.h = 0.1\ngrid.h = 0.2")
    with pytest.raises(ConfigError, match="line 2: expected"):
        parse_config("grid.h = 0.1\ngrid.h: 0.2")


@pytest.mark.parametrize("key", ["data.b0", "data.linear", "data.center",
                                 "data.gamma", "data.coeff", "data.direction",
                                 "data.rk_step", "data.n_tab", "data.n",
                                 "data.p", "data.reduced"])
def test_parse_refuses_the_data_keys_no_run_set(key):
    # each such data is one data.expression line; the self-similar
    # profile's n, p and coordinates are the flow's own
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = 1")


def _unread_keys(source: str, known: dict) -> list[str]:
    """The keys of ``known`` (namespace -> leaves) that no call
    ``_get(cfg, "<key>", ...)`` in ``source`` names as a string literal."""
    read = {call.args[1].value for call in ast.walk(ast.parse(source))
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "_get"
            and len(call.args) > 1 and isinstance(call.args[1], ast.Constant)}
    return sorted(key for ns, leaves in known.items()
                  for key in (f"{ns}.{leaf}" for leaf in leaves)
                  if key not in read)


def test_every_accepted_key_is_read():
    # a key that parse_config accepts and no builder reads would be
    # ignored without a word; make_domain hands the domain.* keys to
    # build_domain, which reads those that its region kind takes
    assert _KNOWN_KEYS["domain"] == {"kind"}.union(*_REGION_KEYS.values())
    others = {ns: leaves for ns, leaves in _KNOWN_KEYS.items()
              if ns != "domain"}
    assert _unread_keys(Path(config.__file__).read_text(), others) == []


def test_unread_key_check_counts_only_literal_get_calls():
    src = ("def f(cfg, key):\n"
           "    _get(cfg, 'a.read', 1, cast=int)\n"
           "    _get(cfg, key)\n"
           "    cfg.get('a.by_dict')\n"
           "    x = 'a.in_string'\n")
    known = {"a": {"read", "by_dict", "in_string", "absent"}}
    assert _unread_keys(src, known) == ["a.absent", "a.by_dict",
                                        "a.in_string"]


def test_format_parse_round_trip(tmp_path):
    text = format_config(QUAD)
    assert parse_config(text) == QUAD
    # sorted, one key per line, stable under a second round
    assert text == format_config(parse_config(text))
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert read_config(path) == QUAD


# ---------------------------------------------------------------------------
# coefficient expressions
# ---------------------------------------------------------------------------

def test_expression_field_evaluates_vectorized():
    field = expression_field("1 + 0.5*sin(x1)*cos(x2) + 0*t",
                             lam=0.5, Lam=1.5)
    pts = np.array([[0.0, 0.0], [np.pi / 2, 0.0]])
    out = field.evaluator(pts, 0.3)
    assert out == pytest.approx([1.0, 1.5])
    assert field.lam == 0.5 and field.Lam == 1.5


def test_expression_field_constant_shortcut():
    field = expression_field("1")
    assert field.evaluator is None or field.evaluator(
        np.zeros((1, 2)), 0.0) == pytest.approx([1.0])
    assert field.lam == field.Lam == 1.0


def test_expression_rejects_names_outside_whitelist():
    with pytest.raises(ConfigError, match="unknown names"):
        expression_field("__import__('os').getcwd()")
    with pytest.raises(ConfigError, match="unknown names"):
        expression_field("open('x')")
    with pytest.raises(ConfigError, match="bad expression"):
        expression_field("1 +")


def test_expression_radius_shorthand():
    field = expression_field("r")
    out = field.evaluator(np.array([[3.0, 4.0]]), 0.0)
    assert out == pytest.approx([5.0])


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_make_domain_ball_and_box():
    dom = make_domain(BALL)
    assert dom.h_grid == pytest.approx(0.1)
    assert dom.interior_mask().sum() > 0
    box = make_domain({"domain.kind": "box", "domain.lower": [-1.0, -1.0],
                       "domain.upper": [1.0, 1.0], "grid.h": 0.25})
    # 9 nodes span each side plus a stencil collar of 2 on both ends
    assert box.shape == (13, 13)


def test_make_domain_errors():
    with pytest.raises(ConfigError, match="missing required key 'grid.h'"):
        make_domain({"domain.kind": "ball", "domain.center": [0.0, 0.0],
                     "domain.radius": 1.0})
    with pytest.raises(ConfigError, match="ball' or 'box"):
        make_domain({"domain.kind": "annulus", "grid.h": 0.1})
    with pytest.raises(ConfigError):
        make_domain(dict(BALL, **{"grid.h": -0.1}))


BOX = {"domain.kind": "box", "domain.lower": [-1.0, -1.0],
       "domain.upper": [1.0, 1.0], "grid.h": 0.25}


@pytest.mark.parametrize("cfg,message", [
    (dict(BOX, **{"domain.radius": 7.0}),
     r"got \['lower', 'radius', 'upper'\]"),
    (dict(BALL, **{"domain.upper": [1.0, 1.0]}),
     r"got \['center', 'radius', 'upper'\]"),
    ({k: v for k, v in BOX.items() if k != "domain.upper"},
     r"a box region takes \['lower', 'upper'\], got \['lower'\]"),
    ({k: v for k, v in BALL.items() if k != "domain.center"},
     r"a ball region takes \['center', 'radius'\], got \['radius'\]"),
    ({k: v for k, v in BALL.items() if k != "domain.kind"} | {
        "domain.lower": [-1.0, -1.0]}, "a ball region takes"),
], ids=["box+radius", "ball+upper", "box-upper", "ball-center",
        "default-ball+lower"])
def test_make_domain_refuses_keys_of_the_other_kind(cfg, message):
    with pytest.raises(ConfigError, match=message):
        make_domain(cfg)


def test_make_operator_defaults_and_required():
    op = make_operator({"op.p": 1.5})
    assert (op.p, op.width, op.variant) == (1.5, 2, "plain")
    assert op.b.lam == op.b.Lam == 1.0
    with pytest.raises(ConfigError, match="missing required key 'op.p'"):
        make_operator({})
    with pytest.raises(ConfigError):
        make_operator({"op.p": 1.0, "op.variant": "mystery"})
    with pytest.raises(ConfigError):
        make_operator({"op.p": 1.0, "op.variant": "gcf"})
    with pytest.raises(ConfigError, match="n_full"):
        make_operator({"op.p": 1.0, "op.n_full": 4})


def test_make_initial_kinds():
    quad = make_initial(QUAD)
    assert quad(np.array([[1.0, 0.0]]), 0.0) == pytest.approx([0.5])
    cone = make_initial({"data.kind": "cone", "data.slope": 2.0})
    assert cone(np.array([[0.3, 0.4]]), 0.0) == pytest.approx([1.0])
    disk = make_initial({"data.kind": "flat_disk", "data.radius": 0.5,
                         "data.slope": 1.0})
    assert disk(np.array([[0.2, 0.0], [1.5, 0.0]]), 0.0) == pytest.approx(
        [0.0, 1.0])
    for kind in ("wavelet", "power"):
        with pytest.raises(ConfigError, match=f"unknown data.kind '{kind}'"):
            make_initial({"data.kind": kind})
    with pytest.raises(ConfigError, match="data.matrix"):
        make_initial({"data.kind": "quadratic", "op.p": 1.0})


@pytest.mark.parametrize("kind,cfg,foreign", [
    ("quadratic", {"op.p": 1.0, "data.matrix": [[1.0, 0.0], [0.0, 1.0]]},
     {"data.radius": 0.5}),
    ("cone", {}, {"data.radius": 0.5, "data.matrix": [[1.0]], "data.T": 2.0}),
    ("crease", {}, {"data.slope": 2.0}),
    ("flat_disk", {"data.radius": 0.4}, {"data.center": [0.1, 0.0]}),
    ("quadratic", {"op.p": 1.0, "data.matrix": [[1.0, 0.0], [0.0, 1.0]]},
     {"data.b0": 2.0, "data.linear": [1.0, 0.0]}),
    ("selfsimilar", {"data.T": 1.0}, {"data.expression": "r", "data.n": 4}),
    ("expression", {"data.expression": "x1"}, {"data.T": 2.0}),
])
def test_data_kinds_refuse_keys_they_do_not_read(kind, cfg, foreign):
    cfg = dict(cfg, **{"data.kind": kind})
    if kind != "selfsimilar":           # a profile build takes a while
        make_initial(cfg)
    message = f"data.kind '{kind}' does not read {sorted(foreign)}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        make_initial(dict(cfg, **foreign))


@pytest.mark.parametrize("cfg,key", [
    (dict(QUAD, **{"op.p": (1, 0)}), "op.p"),
    (dict(BALL, **{"op.p": 1.0, "data.kind": "crease", "data.axis": [1]}),
     "data.axis"),
    (dict(QUAD, **{"data.matrix": [[1.0, 0.0], [0.0]]}), "data.matrix"),
    (dict(QUAD, **{"grid.h": [0.1]}), "grid.h"),
    (dict(QUAD, **{"op.width": "wide"}), "op.width"),
])
def test_a_value_of_the_wrong_type_names_its_key(cfg, key):
    with pytest.raises(ConfigError, match=f"for '{key}'"):
        make_state(cfg)


@pytest.mark.parametrize("build,cfg,key,value", [
    (make_domain, BALL, "op.width", 2.7),
    (make_operator, {"op.p": 1.0}, "op.width", True),
    (make_operator, {"op.p": 1.0, "op.variant": "reduced"}, "op.n_full", 4.5),
    (make_initial, {"data.kind": "crease"}, "data.axis", 0.5),
    (make_state, dict(BALL, **{"op.p": 1.0, "data.kind": "crease"}),
     "data.axis", math.nan),
    (run_settings, {"run.t_end": 0.1}, "run.snapshots", True),
    (run_settings, {"run.t_end": 0.1}, "run.snapshots", 2.5),
], ids=["width-2.7", "width-True", "n_full-4.5", "axis-0.5",
        "axis-nan", "snapshots-True", "snapshots-2.5"])
def test_an_integer_key_takes_only_a_whole_number(build, cfg, key, value):
    # int() read 2.7 as 2 and True as 1, and ran without a word
    with pytest.raises(ConfigError, match=re.escape(
            f"bad value {value!r} for '{key}': expected a whole number")):
        build(dict(cfg, **{key: value}))


def test_an_integer_key_takes_a_whole_float():
    op = make_operator({"op.p": 1.0, "op.width": 3.0})
    assert op.width == 3 and type(op.width) is int
    assert len(run_settings({"run.t_end": 0.1, "run.snapshots": 2.0})[
        "snapshot_times"]) == 2


def test_make_initial_expression():
    sol = make_initial({"data.kind": "expression",
                        "data.expression": "0.5*r**2 + t"})
    out = sol(np.array([[1.0, 0.0]]), 0.25)
    assert out == pytest.approx([0.75])


def test_make_state_boundary_defaults():
    state = make_state(QUAD)                       # closed form: exact
    assert state.boundary is not None
    cone_cfg = dict(BALL, **{"op.p": 1.0, "data.kind": "cone"})
    assert make_state(cone_cfg).boundary is None   # no closed form: frozen
    forced = make_state(dict(cone_cfg, **{"run.boundary": "exact"}))
    assert forced.boundary is not None
    with pytest.raises(ConfigError, match="run.boundary"):
        make_state(dict(QUAD, **{"run.boundary": "periodic"}))


def test_make_state_samples_initial_data():
    state = make_state(QUAD)
    dom = state.u.domain
    center = tuple(idx // 2 for idx in dom.shape)
    assert state.u.values[center] == pytest.approx(0.0, abs=1e-12)
    assert state.u.t == 0.0


@pytest.mark.parametrize("key,message", [
    ("op.widht", r"unknown key 'op.widht' \(namespace 'op' takes"),
    ("widht", "unknown key 'widht'"),
])
def test_make_state_refuses_an_unknown_dict_key(key, message):
    # the registry, the bench and the Python API pass dicts, not files
    cfg = dict(REGISTRY["quadratic-exact"].config, **{key: 3})
    with pytest.raises(ConfigError, match=message):
        make_state(cfg)
    with pytest.raises(ConfigError, match="line 2: " + message):
        parse_config(f"grid.h = 0.1\n{key} = 3\n")


@pytest.mark.parametrize("cfg,n,p", [
    ({"domain.kind": "box", "domain.lower": [-1.0, -1.0],
      "domain.upper": [1.0, 1.0], "op.variant": "reduced", "op.n_full": 5,
      "op.p": 0.5}, 5, 0.5),
    ({"domain.kind": "box", "domain.lower": [-1.0, -1.0, -1.0],
      "domain.upper": [1.0, 1.0, 1.0], "op.p": 1.5}, 3, 1.5),
], ids=["reduced-n5-p0.5", "plain-3d-p1.5"])
def test_selfsimilar_data_follows_the_operator(cfg, n, p):
    # the profile's power is op.p; its dimension is op.n_full under the
    # reduced variant, whose lattice holds (r, x_n) points, else the lattice's
    cfg = dict(cfg, **{"grid.h": 0.25, "data.kind": "selfsimilar",
                       "data.T": 2.0})
    state = make_state(cfg)
    profile = build_profile(n, p)
    want = sample(state.u.domain, lambda pts, t: profile.eval(pts, t, 2.0))
    active = state.u.domain.active_mask()
    assert np.array_equal(state.u.values[active], want.values[active])


def test_selfsimilar_state_builds_its_lattice_once(monkeypatch):
    # the profile takes its dimension from the lattice make_state built
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return build_domain(*args, **kwargs)

    monkeypatch.setattr(config, "build_domain", counting)
    state = make_state({"domain.kind": "box", "domain.lower": [-1.0] * 3,
                        "domain.upper": [1.0] * 3, "grid.h": 0.25,
                        "op.p": 1.5, "data.kind": "selfsimilar"})
    assert len(built) == 1 and state.u.domain.n == 3


# ---------------------------------------------------------------------------
# run settings
# ---------------------------------------------------------------------------

def test_run_settings_count_and_explicit_times():
    out = run_settings({"run.t_end": 0.1, "run.snapshots": 4})
    assert out["t_end"] == pytest.approx(0.1)
    assert out["snapshot_times"] == pytest.approx([0.025, 0.05, 0.075, 0.1])
    explicit = run_settings({"run.t_end": 0.1,
                             "run.snapshots": [0.1, 0.02]})
    assert explicit["snapshot_times"] == [0.02, 0.1]  # sorted


def test_run_settings_validation():
    with pytest.raises(ConfigError, match="missing required key 'run.t_end'"):
        run_settings({})
    with pytest.raises(ConfigError, match="positive"):
        run_settings({"run.t_end": 0.0})
    for t_end in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="run.t_end must be positive "
                                              "and finite"):
            run_settings({"run.t_end": t_end, "run.snapshots": [0.1]})
    with pytest.raises(ConfigError, match="at least one"):
        run_settings({"run.t_end": 0.1, "run.snapshots": 0})
    with pytest.raises(ConfigError, match=r"\(0, t_end\]"):
        run_settings({"run.t_end": 0.1, "run.snapshots": [0.2]})
    with pytest.raises(ConfigError, match=r"\(0, t_end\]"):
        run_settings({"run.t_end": 0.1, "run.snapshots": []})


@pytest.mark.parametrize("key,value", [("run.t_end", [0.1]),
                                       ("run.snapshots", 0.05),
                                       ("run.snapshots", ["soon"])])
def test_run_settings_name_a_value_of_the_wrong_type(key, value):
    with pytest.raises(ConfigError, match=f"for '{key}'"):
        run_settings(dict({"run.t_end": 0.1}, **{key: value}))
