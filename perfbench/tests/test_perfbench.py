"""Tests of the benchmark's own arithmetic, tracer and oracles."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from affinewalk import cli, exactdist, fourier, indexing, modmath, montecarlo, spectral  # noqa: E402

PACKAGE = (cli, exactdist, fourier, indexing, modmath, montecarlo, spectral)


def test_self_times_of_nested_spans():
    S = spans.Span
    trace = [
        S("root", 0.0, 10.0, None, "j"),
        S("a", 1.0, 4.0, 0, "j"),
        S("a.inner", 2.0, 3.0, 1, "j"),
        S("b", 5.0, 9.0, 0, "j"),
        S("b.x", 5.5, 7.0, 3, "j"),
        S("b.y", 6.5, 8.0, 3, "j"),  # overlaps b.x: covered once
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 2.0, 1.0, 4.0 - 2.5, 1.5, 1.5])


def test_tail_value_leaves_ten_samples_above():
    assert spans.tail_value(list(range(10))) == (0.0, 0.0)
    pct, value = spans.tail_value([float(x) for x in range(20)])
    assert value == 9.0 and pct == 50.0
    assert sum(x > value for x in range(20)) == 10


def _bindings():
    """Every (namespace, name, object) binding of a traced target."""
    originals = []
    for mod_name, attr, _, _ in spans.TARGETS:
        module = sys.modules[f"affinewalk.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            originals.append((cls, meth, cls.__dict__[meth]))
            continue
        obj = getattr(module, attr)
        for mod in PACKAGE:
            for key, value in vars(mod).items():
                if value is obj:
                    originals.append((mod, key, obj))
    return originals


def test_traced_run_restores_every_wrapped_attribute(tmp_path, monkeypatch):
    before = _bindings()
    assert (montecarlo, "mat_pow_mod", modmath.mat_pow_mod) in before
    assert (exactdist, "is_admissible", modmath.is_admissible) in before
    monkeypatch.chdir(tmp_path)
    original = modmath.mat_pow_mod
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert montecarlo.mat_pow_mod is not original
        assert montecarlo.mat_pow_mod.__wrapped__ is original
        assert exactdist.is_admissible is modmath.is_admissible  # one wrapper, both names
        tracer.job = "bounds"
        assert cli.main(["bounds", "--matrix", "[[2,1],[1,1]]", "--p", "5",
                         "--n-max", "3", "--exact", "-o", "b.csv"]) == 0
        tracer.job = "project"
        assert cli.main(["project", "--matrix", "[[1,1],[0,2]]", "--p", "11",
                         "--blocks", "4", "-o", "p.json"]) == 0
        tracer.job = "search"
        assert cli.main(["mixtime", "--matrix", "[[0,-1],[1,0]]", "--p", "11", "--epsilon",
                         "0.25", "--method", "projected", "-o", "m.json"]) == 0
        tracer.job = "dump"
        assert cli.main(["simulate", "--matrix", "[[2,1],[1,1]]", "--p", "7", "--n", "3",
                         "--samples", "5", "--dump-states", "-o", "s.csv"]) == 0
    finally:
        tracer.restore()
    after = _bindings()
    assert len(after) == len(before)
    for (owner, key, original), (owner2, key2, now) in zip(before, after):
        assert (owner, key) == (owner2, key2) and now is original

    names = {s.name for s in tracer.spans}
    assert {"cli.main", "exactdist.step_exact", "fourier.bound_series", "fourier.to_csv",
            "montecarlo.projection_functional", "modmath.mat_pow_mod",
            "montecarlo.states_csv", "montecarlo.simulate"} <= names
    assert all(s.parent is None for s in tracer.spans if s.name == "cli.main")
    assert {s.job for s in tracer.spans} == {"bounds", "project", "search", "dump"}
    m = spans.layer_metrics(tracer.spans, 1.0)
    assert m["exactdist.step_exact.calls"] == 3
    assert m["montecarlo.simulate.sample_steps"] == 15
    n_mix = json.loads((tmp_path / "m.json").read_text())["n_mix"]
    assert m["montecarlo.projected_search.blocks"] == n_mix // 4  # rotation: m = 4
    assert sum(m[f"{mod}.share"] for mod in spans.MODULES) <= 1.0


def test_n_mix_oracle_rejects_off_by_one(tmp_path):
    out = tmp_path / "mix.json"
    out.write_text(json.dumps({"n_mix": workloads.DENSE_MIX_D2}))
    assert workloads.check_n_mix(out, workloads.DENSE_MIX_D2) == []
    out.write_text(json.dumps({"n_mix": workloads.DENSE_MIX_D2 + 1}))
    assert workloads.check_n_mix(out, workloads.DENSE_MIX_D2)


def test_states_oracle_rejects_rows_shifted_by_e1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seed = 3
    job = next(j for j in workloads.jobs("beyond_dense", seed) if j["id"] == "simulate_dump")
    assert cli.main(job["argv"]) == 0
    assert workloads.check(job, seed, str(tmp_path)) == []

    X = workloads.read_states(job["out"])
    X[:, 0] = (X[:, 0] + 1) % workloads.MINSTD
    lines = ["x0,x1"] + [f"{a},{b}" for a, b in X]
    (tmp_path / job["out"]).write_text("\n".join(lines) + "\n")
    assert workloads.check(job, seed, str(tmp_path))


def test_sandwich_oracle_rejects_ub_below_tv(tmp_path):
    out = tmp_path / "b.csv"
    out.write_text("n,ub,lb,tv_exact\n0,1.0,0.5,0.9\n1,0.4,0.2,0.5\n")
    errs = workloads.check_sandwich(out, 1, exact=True)
    assert errs and "n=1" in errs[0]


def test_beyond_inputs_follow_the_seed():
    a, b = workloads.beyond_inputs(7), workloads.beyond_inputs(8)
    assert a == workloads.beyond_inputs(7)
    assert a != b
    assert all(max(map(abs, c)) <= 1 for c in a["checked"][:3])
    assert workloads.jobs("dense_exact", 7) == workloads.jobs("dense_exact", 8)


def test_replay_matches_simulate():
    cfg = exactdist.WalkConfig(modmath.IntMatrix([[2, 1], [1, 1]]), workloads.MINSTD)
    batch = montecarlo.simulate(cfg, 23, 40, seed=11)
    ref = workloads.replay_rows([[2, 1], [1, 1]], workloads.MINSTD, 23, 11, 40, 40)
    assert np.array_equal(batch.final_states, ref)
