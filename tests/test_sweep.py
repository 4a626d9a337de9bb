"""Parallel sweep runner: determinism, merge equality, CLI surface.

The load-bearing test is sequential-vs-parallel canonical-JSON
equality: per-seed simulations are pure functions of their parameters,
so fanning cells across processes must reproduce the exact sequential
results. (Wall-clock speedup is intentionally *not* asserted — it
requires multiple physical cores; see docs/PERFORMANCE.md.)
"""

import json

import pytest

from repro.cli import main
from repro.evaluation.reports import format_table
from repro.sweep import canonical_json, expand_cells, run_cell, sweep

# Small, fast cells: fixed-config baseline (no profiling stage), tiny
# query count. Big enough to exercise the full serve/score pipeline.
BASE = dict(dataset="finsec", policy="vllm", config="stuff/4", queries=3)


def test_expand_cells_grid_order():
    cells = expand_cells(BASE, seeds=[0, 1], rates=[1.0, 2.0])
    assert len(cells) == 4
    assert [(c["seed"], c["rate_qps"]) for c in cells] == [
        (0, 1.0), (0, 2.0), (1, 1.0), (1, 2.0)
    ]
    # An omitted axis leaves the base as given.
    assert expand_cells(BASE) == [BASE]
    assert expand_cells(BASE, seeds=[7]) == [{**BASE, "seed": 7}]


def test_unknown_cell_parameter_rejected():
    with pytest.raises(ValueError, match="unknown sweep cell parameter"):
        run_cell({**BASE, "polciy": "metis"})
    with pytest.raises(ValueError, match="unknown sweep cell parameter"):
        sweep([{"no_such_knob": 1}])
    # Knobs go by their runner keyword; the old sweep-only names fail.
    with pytest.raises(ValueError, match=r"\['rate', 'replicas'\]"):
        sweep([{**BASE, "rate": 1.0, "replicas": 2}])
    with pytest.raises(ValueError, match="missing"):
        sweep([{"policy": "vllm"}])


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_rejected(jobs, capsys):
    with pytest.raises(ValueError, match="jobs"):
        sweep([BASE], jobs=jobs)
    assert main(["sweep", "--dataset", "finsec", "--policy", "vllm",
                 "--config", "stuff/4", "--queries", "3",
                 "--jobs", str(jobs)]) == 2
    assert "jobs" in capsys.readouterr().err


def test_run_cell_returns_params_and_summary():
    cell = {**BASE, "seed": 3}
    out = run_cell(cell)
    assert set(out) == {"params", "summary"}
    # The params echo the cell as given; the runner owns the defaults.
    assert out["params"] == cell
    assert out["summary"]["throughput_qps"] > 0


def test_cell_matches_run_command(capsys):
    """A cell and ``python -m repro run`` with the same flags serve
    the same run — a quality SLO steers the METIS cell too."""
    flags = ["--dataset", "finsec", "--policy", "metis", "--queries", "8",
             "--replicas", "2", "--shard-concurrency", "2",
             "--quality-slo", "context_recall>=0.7"]
    assert main(["run", *flags]) == 0
    out = capsys.readouterr().out
    cell = dict(dataset="finsec", policy="metis", queries=8, n_replicas=2,
                shard_concurrency="2", quality_slo="context_recall>=0.7")
    summary = run_cell(cell)["summary"]
    table = format_table([dict(metric=k, value=v)
                          for k, v in summary.items()])
    assert table in out


def test_cells_are_independent_of_sweep_company():
    """A cell's result does not depend on which cells ran before it."""
    alone = sweep([{**BASE, "seed": 1}])["cells"][0]
    second = sweep([{**BASE, "seed": 0}, {**BASE, "seed": 1}])["cells"][1]
    assert canonical_json(alone) == canonical_json(second)


@pytest.mark.slow
def test_parallel_sweep_matches_sequential_exactly():
    """jobs=N reproduces the per-seed sequential results byte for byte."""
    cells = expand_cells(BASE, seeds=[0, 1, 2])
    seq = sweep(cells, jobs=1)
    par = sweep(cells, jobs=2)
    assert canonical_json(seq) == canonical_json(par)
    assert seq["n_cells"] == 3


@pytest.mark.tier2
def test_composed_cells_match_across_jobs():
    """Every subsystem a run can switch on sweeps deterministically:
    sharded rerank, both cache tiers, hedging and a quality SLO."""
    base = dict(dataset="finsec", policy="metis", queries=8,
                n_replicas=2, retrieval_shards=4, reranker="exact",
                result_cache="exact", retrieval_cache=True,
                speculation="hedge-after-delay", slo_seconds=6.0,
                quality_slo="context_recall>=0.7")
    cells = expand_cells(base, seeds=[0, 1])
    seq = sweep(cells, jobs=1)
    assert canonical_json(seq) == canonical_json(sweep(cells, jobs=2))
    assert all(c["summary"]["throughput_qps"] > 0 for c in seq["cells"])


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1.5, {"y": 2, "x": 3}]})
    b = canonical_json({"a": [1.5, {"x": 3, "y": 2}], "b": 1})
    assert a == b
    assert " " not in a


def test_sweep_cli_writes_merged_json(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main([
        "sweep", "--dataset", "finsec", "--policy", "vllm",
        "--config", "stuff/4", "--seeds", "0,1", "--queries", "3",
        "--result-cache", "exact", "--jobs", "1", "--output", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["n_cells"] == 2
    assert [c["params"]["seed"] for c in payload["cells"]] == [0, 1]
    # Forwarded knob flags reach every cell under their runner keyword.
    assert all(c["params"]["result_cache"] == "exact"
               for c in payload["cells"])
    # The file is the canonical serialization (stable for diffing).
    assert out.read_text().strip() == canonical_json(payload)


def test_sweep_cli_rejects_bad_axis():
    assert main(["sweep", "--dataset", "finsec", "--policy", "vllm",
                 "--seeds", "zero"]) == 2
