import os

import numpy as np
import pytest

from pma_lab.cli import main
from pma_lab.exact import flat_disk_data
from pma_lab.experiments import REGISTRY, ExperimentSpec, Outcome
from pma_lab.geometry import john_ellipsoid, save_ellipsoid, section_at
from pma_lab.grid import build_domain, load_csv, sample, save_csv

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


def test_solve_reruns_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["solve", "--config", cfg, "--out", out_a, "--seed", "1"]) == 0
    assert main(["solve", "--config", cfg, "--out", out_b, "--seed", "2"]) == 0
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

def make_snapshot(tmp_path, name="snap.csv", t=0.0):
    dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                        "upper": [1.0, 1.0]}, h_grid=0.1, stencil_radius=2)
    u = sample(dom, flat_disk_data(radius=0.4, slope=1.0).fn, t=t)
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
    stdout = capsys.readouterr().out
    assert "instant = " in stdout and "persistent = " in stdout
    assert os.path.exists(os.path.join(out, "analyze", "separation.csv"))


def test_analyze_rejects_unordered_snapshots(tmp_path, capsys):
    a = make_snapshot(tmp_path, "a.csv", t=0.1)
    b = make_snapshot(tmp_path, "b.csv", t=0.0)
    out = str(tmp_path / "out")
    assert main(["analyze", "dichotomy", a, b, "--out", out]) == 2
    assert "increasing time order" in capsys.readouterr().err


def test_analyze_angle_on_snapshot(tmp_path, capsys):
    snap = make_snapshot(tmp_path)
    out = str(tmp_path / "out")
    assert main(["analyze", "angle", snap, "--direction", "1,0",
                 "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "alpha_hat = " in stdout


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


def test_experiment_workers_agree_bitwise(tmp_path):
    names = ["angle-c1alpha", "noop", "quadratic-exact"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["experiment", "run", *names, "--out", out_a,
                 "--workers", "1"]) == 0
    assert main(["experiment", "run", *names, "--out", out_b,
                 "--workers", "2"]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)
