import os
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from pma_lab import cli
from pma_lab.analysis import dual_flow_residual
from pma_lab.cli import main
from pma_lab.exact import flat_disk_data, quadratic_solution
from pma_lab.experiments import (REGISTRY, ExperimentSpec, Outcome,
                                 run_experiment)
from pma_lab.geometry import john_ellipsoid, save_ellipsoid, section_at
from pma_lab.grid import build_domain, fmt17, load_csv, sample, save_csv

SOLVE_CFG = """\
# harmless little disk run
domain.kind = ball
domain.center = [0.0, 0.0]
domain.radius = 1.0
grid.h = 0.1
op.p = 1.0
data.kind = quadratic
data.matrix = [[1.0, 0.0], [0.0, 1.0]]
run.t_end = 0.01
run.snapshots = 2
"""


def write_cfg(tmp_path, text=SOLVE_CFG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def tree_bytes(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_snapshots_and_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    snaps = sorted(os.listdir(os.path.join(out, "solve", "snapshots")))
    assert snaps == ["snap_0.csv", "snap_1.csv", "snap_2.csv"]
    with open(os.path.join(out, "solve", "summary.txt")) as f:
        body = f.read()
    assert "t_final = 0.01" in body and "final_range" in body
    assert capsys.readouterr().out.strip() == body.strip()


def test_solve_requires_config(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_typo_in_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SOLVE_CFG.replace("grid.h =", "grid.hh ="))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,key", [
    ("op.p = 1.0", "op.p = 1,0", "op.p"),
    ("data.kind = quadratic\ndata.matrix = [[1.0, 0.0], [0.0, 1.0]]",
     "data.kind = crease\ndata.axis = [1]", "data.axis"),
    ("run.t_end = 0.01", "run.t_end = [0.01]", "run.t_end"),
])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, old, new,
                                                key):
    # a value the builder cannot take is a configuration error, not a crash
    assert old in SOLVE_CFG
    cfg = write_cfg(tmp_path, SOLVE_CFG.replace(old, new))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"for '{key}'" in err



_QUAD = "data.kind = quadratic\ndata.matrix = [[1.0, 0.0], [0.0, 1.0]]"


@pytest.mark.parametrize("new,key", [
    ("data.kind = quadratic\ndata.matrix = "
     "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]", "data.matrix"),
    (_QUAD + "\ndata.linear = [1.0]", "data.linear"),
    ("data.kind = cone\ndata.center = [0.1, 0.2, 0.3]", "data.center"),
    ("data.kind = power\ndata.gamma = 0.5\ndata.direction = [1.0, 0.0, 0.0]",
     "data.direction"),
    ("data.kind = crease\ndata.axis = 5", "data.axis"),
    ('data.kind = expression\ndata.expression = "x3**2"', "data.expression"),
    (_QUAD + '\nop.b_expression = "1 + x3"\nop.Lambda = 3.0',
     "op.b_expression"),
])
def test_data_value_that_does_not_fit_the_lattice_exits_2(tmp_path, capsys,
                                                          new, key):
    # refused by key before the initial data is sampled or the operator
    # runs, not as a NumPy broadcast error or a NameError from inside
    cfg = write_cfg(tmp_path, SOLVE_CFG.replace(_QUAD, new))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} = ")
    assert "does not fit the 2-D lattice" in err


@pytest.mark.parametrize("line,new,message", [
    ("domain.radius = 1.0", "domain.radius = None",
     "radius None is not finite"),
    # the literal 1e999 reads as inf
    ("run.t_end = 0.01\nrun.snapshots = 2",
     "run.t_end = 1e999\nrun.snapshots = [0.1]",
     "run.t_end must be positive and finite: inf"),
    ("op.p = 1.0", "op.p = 1e999",
     "exponent p must be positive and finite: inf"),
    ("grid.h = 0.1", "grid.h = nan", "h_grid must be positive and finite: nan"),
    ("grid.h = 0.1", "grid.h = 1e999",
     "h_grid must be positive and finite: inf"),
], ids=["radius", "t_end", "p", "h-nan", "h-inf"])
def test_non_finite_region_value_exits_2_without_a_warning(tmp_path, capsys,
                                                           line, new, message):
    # a value that is not finite is refused where it is read, with exit 2
    # and the key's name, before anything steps
    cfg = write_cfg(tmp_path, SOLVE_CFG.replace(line, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err

def test_solve_reruns_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["solve", "--config", cfg, "--out", out_a]) == 0
    assert main(["solve", "--config", cfg, "--out", out_b]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


# ---------------------------------------------------------------------------
# selfsimilar
# ---------------------------------------------------------------------------

def test_selfsimilar_summary_and_tables(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["selfsimilar", "--out", out,
                 "--rk-step", "2e-3", "--n-tab", "501"]) == 0
    base = os.path.join(out, "selfsimilar")
    assert os.path.exists(os.path.join(base, "probes", "profile_curve.csv"))
    assert os.path.exists(os.path.join(base, "plots", "profile_curve.gp"))
    with open(os.path.join(base, "summary.txt")) as f:
        body = f.read()
    assert "beta = 6" in body
    assert "C_closed_form = 0.0046296296296296294" in body
    stdout = capsys.readouterr().out
    assert "pde_residual" in stdout


# ---------------------------------------------------------------------------
# geometry and analyze
# ---------------------------------------------------------------------------

def make_snapshot(tmp_path, name="snap.csv", t=0.0, half=1.0, h=0.1):
    dom = build_domain({"kind": "box", "lower": [-half, -half],
                        "upper": [half, half]}, h_grid=h, stencil_radius=2)
    u = sample(dom, flat_disk_data(radius=0.4, slope=1.0), t=t)
    u.t = t
    path = str(tmp_path / name)
    save_csv(u, path)
    return path


def test_geometry_reports_section_and_ellipsoid(tmp_path, capsys):
    snap = make_snapshot(tmp_path)
    out = str(tmp_path / "out")
    assert main(["geometry", snap, "--height", "0.2", "--out", out]) == 0
    base = os.path.join(out, "geometry")
    for name in ("section.csv", "ellipsoid.csv", "summary.txt"):
        assert os.path.exists(os.path.join(base, name))
    stdout = capsys.readouterr().out
    assert "section nodes" in stdout and "ellipsoid volume" in stdout
    assert "john iterations = " in stdout and "john gap = " in stdout
    # the report solves the John problem once; its ellipsoid is the one a
    # direct solve on the same section and centre gives
    sec = section_at(load_csv(snap), [0.0, 0.0], 0.2)
    save_ellipsoid(str(tmp_path / "direct.csv"),
                   john_ellipsoid(sec.positions, [0.0, 0.0]))
    with open(os.path.join(base, "ellipsoid.csv"), "rb") as f:
        assert f.read() == (tmp_path / "direct.csv").read_bytes()


def test_analyze_separation_over_solve_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    snap_dir = os.path.join(out, "solve", "snapshots")
    snaps = [os.path.join(snap_dir, f"snap_{k}.csv") for k in range(3)]
    capsys.readouterr()
    assert main(["analyze", "separation", *snaps, "--out", out]) == 0
    assert "eps_used = " in capsys.readouterr().out
    with open(os.path.join(out, "analyze", "probes", "separation.csv")) as f:
        rows = [ln.split(",") for ln in f.read().splitlines()]
    assert rows[0][-1] == "status"
    # the rise by t = 0.01 stays below eps = 10 h^2 = 0.1 at every node
    statuses = {row[-1] for row in rows[1:]}
    assert statuses == {"persistent"}
    inner = load_csv(snaps[0]).domain.interior_mask()
    assert len(rows) - 1 == np.count_nonzero(inner)


@pytest.mark.parametrize("eps", ["-1", "0", "nan"])
def test_analyze_separation_refuses_eps_that_is_not_positive(tmp_path,
                                                              capsys, eps):
    # a negative eps marks every node crossed, a NaN eps none
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    snap_dir = os.path.join(out, "solve", "snapshots")
    snaps = [os.path.join(snap_dir, f"snap_{k}.csv") for k in (0, 2)]
    capsys.readouterr()
    assert main(["analyze", "separation", *snaps, "--eps", eps,
                 "--out", out]) == 2
    captured = capsys.readouterr()
    assert "eps must be a positive finite number" in captured.err
    assert captured.out == ""


def test_analyze_rejects_unordered_snapshots(tmp_path, capsys):
    a = make_snapshot(tmp_path, "a.csv", t=0.1)
    b = make_snapshot(tmp_path, "b.csv", t=0.0)
    out = str(tmp_path / "out")
    assert main(["analyze", "dichotomy", a, b, "--out", out]) == 2
    assert "increasing time order" in capsys.readouterr().err


@pytest.mark.parametrize("half,h,same_shape", [(1.2, 0.03, False),
                                               (2.0, 0.2, True)])
def test_analyze_rejects_snapshots_on_another_lattice(tmp_path, capsys,
                                                      half, h, same_shape):
    a = make_snapshot(tmp_path, "a.csv", t=0.0)
    b = make_snapshot(tmp_path, "b.csv", t=0.1, half=half, h=h)
    shapes = load_csv(a).domain.shape, load_csv(b).domain.shape
    assert (shapes[0] == shapes[1]) == same_shape
    out = str(tmp_path / "out")
    for probe in ("separation", "dichotomy"):
        assert main(["analyze", probe, a, b, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "b.csv" in err and "lattice" in err


def test_analyze_dichotomy_on_snapshot_files(tmp_path, capsys):
    # a lattice read back from a file has no region description; the
    # attachment test measures against its band nodes instead
    a = make_snapshot(tmp_path, "a.csv", t=0.0)
    b = make_snapshot(tmp_path, "b.csv", t=0.1)
    out = str(tmp_path / "out")
    assert main(["analyze", "dichotomy", a, b, "--out", out]) == 0
    assert "dichotomy_violations = 0" in capsys.readouterr().out.splitlines()
    with open(os.path.join(out, "analyze", "probes", "dichotomy.csv")) as f:
        assert f.read().splitlines()[1].startswith("stationary,")


# the analyze flags, a value for each, and the flags each probe reads
_FLAGS = {"--point": "0,0", "--eps": "0.1", "--r-max": "0.3", "--p": "2"}
_READS = {"separation": {"--point", "--eps"}, "holder-time": {"--point"},
          "interface": {"--r-max"}, "dichotomy": set(),
          "dual-residual": {"--p"}}


@pytest.mark.parametrize("argv", [["angle"]] + [
    [probe, "--direction", "1,0"] for probe in _READS],
    ids=lambda argv: "-".join(argv[:2]))
def test_analyze_has_no_angle_probe_and_no_direction_flag(tmp_path, capsys,
                                                          argv):
    snap = make_snapshot(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", argv[0], snap, *argv[1:], "--out", str(out)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("probe,flag", [
    (probe, flag) for probe, reads in _READS.items()
    for flag in _FLAGS if flag not in reads])
def test_analyze_refuses_a_flag_its_probe_does_not_read(tmp_path, capsys,
                                                        probe, flag):
    snap = make_snapshot(tmp_path)
    out = tmp_path / "out"
    assert main(["analyze", probe, snap, flag, _FLAGS[flag],
                 "--out", str(out)]) == 2
    assert f"analyze {probe} does not read {flag}" in capsys.readouterr().err
    assert not out.exists()


def quadratic_snapshots(tmp_path, times, p, h=0.1):
    dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                        "upper": [1.0, 1.0]}, h_grid=h, stencil_radius=2)
    sol = quadratic_solution(np.array([[1.2, 0.0], [0.0, 0.8]]), p=p)
    paths = []
    for k, t in enumerate(times):
        u = sample(dom, sol, t=t)
        u.t = t
        paths.append(str(tmp_path / f"q_{k}.csv"))
        save_csv(u, paths[-1])
    return paths


def test_analyze_holder_time_on_exact_quadratic(tmp_path, capsys):
    # u = x.Mx/2 + t (det M)^p rises by exactly 0.96 t at every node
    times = [0.0] + list(np.geomspace(1e-4, 0.1, 7))
    snaps = quadratic_snapshots(tmp_path, times, p=1.0)
    out = str(tmp_path / "out")
    assert main(["analyze", "holder-time", *snaps, "--point", "0.3,-0.2",
                 "--out", out]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    key, value = line.split(" = ")
    assert key == "time_slope" and abs(float(value) - 1.0) < 1e-9
    with open(os.path.join(out, "analyze", "probes",
                           "time_increments.csv")) as f:
        rows = [list(map(float, ln.split(",")))
                for ln in f.read().splitlines()[1:]]
    assert np.allclose(rows, [(t, 0.96 * t) for t in times[1:]],
                       rtol=1e-9, atol=0.0)
    assert os.path.exists(os.path.join(out, "analyze", "plots",
                                       "time_increments.gp"))
    # the probe node comes from --point
    assert main(["analyze", "holder-time", *snaps, "--point", "5,5",
                 "--out", out]) == 2
    assert "outside the lattice" in capsys.readouterr().err



@pytest.mark.parametrize("probe,point", [("separation", "1.0,0"),
                                         ("holder-time", "1.1,0")])
def test_analyze_at_a_band_node_exits_2(tmp_path, capsys, probe, point):
    # a band node carries the boundary data, not the flow: the probes read
    # an unknown or nothing
    times = [0.0] + list(np.geomspace(1e-4, 0.1, 7))
    snaps = quadratic_snapshots(tmp_path, times, p=1.0)
    out = str(tmp_path / "out")
    assert main(["analyze", probe, *snaps, "--point", point,
                 "--out", out]) == 2
    x = float(point.split(",")[0])
    assert (f"point ({x}, 0.0) is not an interior lattice node: it is in the "
            "band") in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--eps", "-1"], ["--point", "1.0,0"]],
                         ids=["eps", "band-point"])
def test_refused_analyze_leaves_no_output_tree(tmp_path, capsys, flag):
    # the probe refuses before it writes anything, so nothing is created
    times = [0.0] + list(np.geomspace(1e-4, 0.1, 7))
    snaps = quadratic_snapshots(tmp_path, times, p=1.0)
    out = tmp_path / "out"
    assert main(["analyze", "separation", snaps[0], snaps[-1], *flag,
                 "--out", str(out)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not (out / "analyze").exists()


def test_analyze_dual_residual_between_first_and_last(tmp_path, capsys):
    snaps = quadratic_snapshots(tmp_path, [0.1, 0.105, 0.11], p=2.0, h=0.05)
    u1, u2 = load_csv(snaps[0]), load_csv(snaps[-1])
    out = str(tmp_path / "out")
    at_1 = f"dual_residual = {fmt17(dual_flow_residual(u1, u2, 1.0)[0])}\n"
    assert main(["analyze", "dual-residual", *snaps, "--p", "2.0",
                 "--out", out]) == 0
    worst = dual_flow_residual(u1, u2, 2.0)[0]
    assert capsys.readouterr().out == \
        f"dual_residual = {fmt17(worst)}\n" + at_1.replace(" =", "_p1 =")
    assert main(["analyze", "dual-residual", *snaps, "--p", "1.0",
                 "--out", out]) == 0
    assert capsys.readouterr().out == at_1
    assert main(["analyze", "dual-residual", snaps[0], "--out", out]) == 2
    assert "increasing time levels" in capsys.readouterr().err


@pytest.mark.parametrize("h,apart", [(0.05, False), (0.025, True)])
def test_analyze_dual_residual_shows_when_it_cannot_tell_p(tmp_path, capsys,
                                                           h, apart):
    # true p = 2: at h = 0.05 the readings at p = 2 and p = 1 tie (0.0790
    # against 0.0787), at h = 0.025 they separate (0.0411 against 0.0542)
    snaps = quadratic_snapshots(tmp_path, [0.1, 0.11], p=2.0, h=h)
    assert main(["analyze", "dual-residual", *snaps, "--p", "2",
                 "--out", str(tmp_path / "out")]) == 0
    read = dict(line.split(" = ")
                for line in capsys.readouterr().out.splitlines())
    at_p, at_1 = float(read["dual_residual"]), float(read["dual_residual_p1"])
    if apart:
        assert at_1 > 1.2 * at_p
    else:
        assert abs(at_p - at_1) < 0.01 * at_1


@pytest.mark.parametrize("name,probe", [
    ("holder-time-n2p1", "holder-time"),
    ("interface-exponent-p1", "interface"),
    ("flat-dichotomy", "dichotomy")])
def test_analyze_reproduces_the_registry_probe(tmp_path, capsys, name,
                                               probe):
    rep = run_experiment(REGISTRY[name], tmp_path / "registry")
    snap_dir = os.path.join(rep.out_dir, "snapshots")
    snaps = [os.path.join(snap_dir, f"snap_{k}.csv")
             for k in range(len(os.listdir(snap_dir)))]
    out = str(tmp_path / "cli")
    assert main(["analyze", probe, *snaps, "--out", out]) == 0
    stdout = capsys.readouterr().out
    lines = rep.lines
    measured = lines[lines.index("measured:") + 1:lines.index("outcomes:")]
    assert measured and stdout.splitlines() == [ln.strip() for ln in measured]
    base = os.path.join(out, "analyze")
    with open(os.path.join(base, "summary.txt")) as f:
        assert f.read() == stdout
    for sub in ("probes", "plots"):
        assert tree_bytes(os.path.join(base, sub)) == \
            tree_bytes(os.path.join(rep.out_dir, sub))


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_list_and_filter(capsys):
    assert main(["experiment", "list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(REGISTRY)
    assert any(ln.startswith("quadratic-exact") for ln in lines)
    assert main(["experiment", "list", "separation"]) == 0
    filtered = capsys.readouterr().out.strip().splitlines()
    assert len(filtered) == 4
    assert main(["experiment", "list", "no-such-topic"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_experiment_run_validates_names(tmp_path, capsys):
    assert main(["experiment", "run", "--out", str(tmp_path)]) == 2
    assert "names or --all" in capsys.readouterr().err
    assert main(["experiment", "run", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown experiments" in capsys.readouterr().err


def test_experiment_run_refuses_names_with_all(tmp_path, capsys):
    # --all would run every entry and drop the names unchecked
    for names in (["nosuch"], ["noop"]):
        assert main(["experiment", "run", *names, "--all",
                     "--out", str(tmp_path / "out")]) == 2
        assert "names or --all, not both" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_experiment_run_passes_and_writes_tree(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["experiment", "run", "noop", "quadratic-exact",
                 "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "2 experiment(s), all passed" in stdout
    assert os.path.exists(os.path.join(out, "quadratic-exact", "summary.txt"))
    assert os.path.exists(os.path.join(out, "noop", "summary.txt"))


def test_experiment_run_failure_exits_1(tmp_path, capsys, monkeypatch):
    spec = REGISTRY["quadratic-exact"]
    doomed = ExperimentSpec(
        name="doomed", topic=spec.topic, claim_id=spec.claim_id,
        claim=spec.claim, config=spec.config, probes=spec.probes,
        outcomes=(Outcome("exact_error", "le", -1.0, 0.0, "derived"),),
        params=spec.params)
    monkeypatch.setitem(REGISTRY, "doomed", doomed)
    assert main(["experiment", "run", "doomed", "--out",
                 str(tmp_path / "out")]) == 1
    assert "FAILURES above" in capsys.readouterr().out


def test_experiment_workers_capped_and_validated(tmp_path, capsys,
                                                 monkeypatch):
    made = []

    class RecordingPool:
        # stands in for the process pool: records its size, starts nothing
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    out = str(tmp_path / "out")
    assert main(["experiment", "run", "noop", "quadratic-exact",
                 "--out", out, "--workers", "500"]) == 0
    assert made == [2]
    assert main(["experiment", "run", "noop", "--out", out,
                 "--workers", "500"]) == 0
    assert made == [2]                     # one entry runs in this process
    capsys.readouterr()
    for bad in ("0", "-3"):
        assert main(["experiment", "run", "noop", "--out", out,
                     "--workers", bad]) == 2
        assert "--workers" in capsys.readouterr().err
    assert made == [2]


def test_flags_are_taken_only_where_they_are_read(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["experiment", "run", "noop", "--out", str(out),
                 "--workers", "1", "--seed", "3"]) == 0
    assert (out / "noop" / "summary.txt").exists()
    snap = make_snapshot(tmp_path)
    cfg = write_cfg(tmp_path)
    for argv in (["selfsimilar", "--workers", "3"],
                 ["geometry", snap, "--height", "0.2", "--config", cfg],
                 ["analyze", "separation", snap, "--seed", "3"],
                 ["experiment", "--out", str(out), "run", "noop"],
                 ["experiment", "list", "--out", str(out)]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg", "snap.csv", "x"]


def test_experiment_workers_agree_bitwise(tmp_path):
    names = ["angle-c1alpha", "comparison-random", "noop",
             "quadratic-exact"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["experiment", "run", *names, "--out", out_a,
                 "--workers", "1"]) == 0
    assert main(["experiment", "run", *names, "--out", out_b,
                 "--workers", "2"]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)
