import math
import os

import numpy as np
import pytest

from pma_lab.analysis import dual_flow_residual
from pma_lab.exact import quadratic_solution
from pma_lab.experiments import (REGISTRY, ExperimentError, ExperimentSpec,
                                 Outcome, RunContext, claim_quote,
                                 claims_text, list_experiments,
                                 run_experiment)
from pma_lab.experiments import _PROBES
from pma_lab.grid import build_domain, sample


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

def test_outcome_check_semantics():
    le = Outcome("x", "le", 1.0, 0.1, "quoted")
    assert le.check(1.1) and not le.check(1.1000001)
    ge = Outcome("x", "ge", 1.0, 0.1, "derived")
    assert ge.check(0.9) and not ge.check(0.8999999)
    ab = Outcome("x", "abs", 2.0, 0.5, "direct")
    assert ab.check(2.5) and ab.check(1.5) and not ab.check(2.6)
    assert not ab.check(math.nan) and not ab.check(math.inf)


def test_outcome_validation():
    with pytest.raises(ValueError):
        Outcome("x", "between", 0.0, 1.0, "quoted")
    with pytest.raises(ValueError):
        Outcome("x", "le", 0.0, 1.0, "guessed")
    with pytest.raises(ValueError):
        Outcome("x", "le", 0.0, -1.0, "quoted")


def test_spec_rejects_unknown_probe():
    with pytest.raises(ValueError, match="unknown probe"):
        ExperimentSpec(name="bad", topic="t", claim_id=1, claim="q",
                       config={}, probes=("warp_drive",), outcomes=())


def test_spec_and_context_refuse_unknown_params_keys(tmp_path):
    # a misspelt key would otherwise run over the whole interior
    with pytest.raises(ValueError, match="unknown params key 'region_raduis'"):
        ExperimentSpec(name="bad", topic="t", claim_id=1, claim="q",
                       config={}, probes=("separation",),
                       params={"region_raduis": 0.1})
    ctx = RunContext.create(tmp_path, params={"region_radius": 0.1})
    assert ctx.param("region_radius") == 0.1
    assert ctx.param("point", [0.0, 0.0]) == [0.0, 0.0]
    with pytest.raises(ValueError, match="unknown params key 'margin'"):
        ctx.param("margin", 0.1)


# ---------------------------------------------------------------------------
# registry invariants
# ---------------------------------------------------------------------------

def test_registry_size_and_claims_are_verbatim():
    assert len(REGISTRY) >= 10
    text = claims_text()
    for spec in REGISTRY.values():
        assert spec.claim == claim_quote(spec.claim_id)
        assert spec.claim in text
        for probe in spec.probes:
            assert probe in _PROBES
        for out in spec.outcomes:
            assert out.kind in ("le", "ge", "abs")
            assert out.basis in ("quoted", "derived", "direct")


def test_registry_configs_are_flat_literal_mappings():
    for spec in REGISTRY.values():
        for key, val in spec.config.items():
            assert isinstance(key, str) and "." in key
            assert isinstance(val, (int, float, str, list))


def test_list_experiments_order_and_filter():
    names = [s.name for s in list_experiments()]
    assert names == sorted(names)
    assert len(names) == len(REGISTRY)
    separation = [s.name for s in list_experiments("separation")]
    assert separation == ["edge-moves-n3p1", "edge-persist-n4p1",
                          "flat-side-clears-p04", "flat-side-persist-p1"]
    assert list_experiments("SEPARATION") == list_experiments("separation")
    assert list_experiments("no-such-topic") == []


def test_claim_quote_unknown_id():
    with pytest.raises(KeyError):
        claim_quote(999)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def test_noop_run_writes_empty_passing_summary(tmp_path):
    rep = run_experiment(REGISTRY["noop"], tmp_path)
    assert rep.passed and rep.measured == {}
    summary = os.path.join(rep.out_dir, "summary.txt")
    with open(summary) as f:
        body = f.read()
    assert "experiment: noop" in body
    assert body.rstrip().endswith("overall: PASS")
    for sub in ("snapshots", "probes", "plots"):
        assert os.path.isdir(os.path.join(rep.out_dir, sub))


def test_quadratic_exact_run_layout_and_report(tmp_path):
    rep = run_experiment(REGISTRY["quadratic-exact"], tmp_path)
    assert rep.passed
    assert rep.measured["exact_error"] <= 1e-10
    snaps = sorted(os.listdir(os.path.join(rep.out_dir, "snapshots")))
    assert snaps[0] == "snap_0.csv" and len(snaps) == 6
    assert os.path.exists(os.path.join(rep.out_dir, "probes",
                                       "exactness.csv"))
    assert os.path.exists(os.path.join(rep.out_dir, "plots", "exactness.gp"))
    body = "\n".join(rep.lines)
    assert "claim 1: " in body
    assert "PASS exact_error" in body and "[derived]" in body


def test_failing_outcome_reported_not_raised(tmp_path):
    spec = REGISTRY["quadratic-exact"]
    harsh = ExperimentSpec(
        name="quadratic-doomed", topic=spec.topic, claim_id=spec.claim_id,
        claim=spec.claim, config=spec.config, probes=spec.probes,
        outcomes=(Outcome("exact_error", "le", -1.0, 0.0, "derived"),),
        params=spec.params)
    rep = run_experiment(harsh, tmp_path)
    assert not rep.passed
    assert any("FAIL exact_error" in ln for ln in rep.lines)
    assert any(ln == "overall: FAIL" for ln in rep.lines)


def test_bad_config_raises_staged_error(tmp_path):
    spec = REGISTRY["noop"]
    broken = ExperimentSpec(
        name="noop-broken", topic=spec.topic, claim_id=spec.claim_id,
        claim=spec.claim, config=dict(spec.config, **{"domain.kind": "tube"}),
        probes=(), outcomes=())
    with pytest.raises(ExperimentError, match="stage 'configure'"):
        run_experiment(broken, tmp_path)


def test_an_unknown_config_key_fails_at_configure(tmp_path):
    # a dict config is checked for unknown keys as a parsed file is
    spec = REGISTRY["quadratic-exact"]
    typo = ExperimentSpec(
        name="quadratic-typo", topic=spec.topic, claim_id=spec.claim_id,
        claim=spec.claim, config=dict(spec.config, **{"op.widht": 3}),
        probes=spec.probes, outcomes=spec.outcomes, params=spec.params)
    with pytest.raises(ExperimentError, match="stage 'configure' failed: "
                       "unknown key 'op.widht'"):
        run_experiment(typo, tmp_path)
    assert os.listdir(tmp_path / "quadratic-typo" / "snapshots") == []


def test_missing_measured_value_raises_outcome_stage(tmp_path):
    spec = REGISTRY["noop"]
    wanting = ExperimentSpec(
        name="noop-wanting", topic=spec.topic, claim_id=spec.claim_id,
        claim=spec.claim, config=spec.config, probes=(),
        outcomes=(Outcome("ghost_value", "le", 0.0, 1.0, "direct"),))
    with pytest.raises(ExperimentError, match="stage 'outcomes'"):
        run_experiment(wanting, tmp_path)


def _tree_bytes(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_rerun_is_bit_identical(tmp_path):
    spec = REGISTRY["comparison-random"]
    rep_a = run_experiment(spec, tmp_path / "a", seed=7)
    rep_b = run_experiment(spec, tmp_path / "b", seed=7)
    assert rep_a.passed and rep_b.passed
    assert _tree_bytes(rep_a.out_dir) == _tree_bytes(rep_b.out_dir)


def test_seed_feeds_probes_not_solver(tmp_path):
    # randomized draws differ with the seed ...
    spec = REGISTRY["comparison-random"]
    rep_a = run_experiment(spec, tmp_path / "a", seed=1)
    rep_b = run_experiment(spec, tmp_path / "b", seed=2)
    assert rep_a.passed and rep_b.passed
    table = os.path.join("probes", "comparison_pairs.csv")
    bytes_a, bytes_b = _tree_bytes(rep_a.out_dir), _tree_bytes(rep_b.out_dir)
    assert bytes_a[table] != bytes_b[table]
    # ... while solver artifacts are seed-independent
    solver = REGISTRY["quadratic-exact"]
    rep_c = run_experiment(solver, tmp_path / "c", seed=1)
    rep_d = run_experiment(solver, tmp_path / "d", seed=2)
    assert _tree_bytes(rep_c.out_dir) == _tree_bytes(rep_d.out_dir)


def test_dual_refinement_reads_its_quadratic_and_lattices_from_the_config(
        tmp_path):
    M = [[2.0, 0.0], [0.0, 0.5]]
    cfg = dict(REGISTRY["legendre-duality"].config, **{"data.matrix": M})
    got = _PROBES["dual_refinement"](RunContext.create(tmp_path, cfg=cfg))
    sol = quadratic_solution(np.array(M), p=1.0)
    want = []
    for h in (0.05, 0.025):               # grid.h and grid.h / 2
        dom = build_domain({"kind": "box", "lower": [-1.0, -1.0],
                            "upper": [1.0, 1.0]}, h, stencil_radius=2)
        worst, _field, _lt = dual_flow_residual(
            sample(dom, sol, t=0.1), sample(dom, sol, t=0.11), 1.0)
        want.append(worst)
    assert got["dual_residual"] == want[0]
    assert got["dual_residual_fine"] == want[1]
