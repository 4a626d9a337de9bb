"""Pinned report digests and run counts of every experiment driver.

Each driver named in ``repro.cli._EXPERIMENTS`` runs at ``--fast``,
seed 0, and its report is hashed as
``sha256(repr((report.name, report.rows, report.notes)))``. That is
every number and note that ``python -m repro experiment NAME --fast``
prints. A refactor of the drivers must leave all of them unchanged; a
change that moves one must say why and update it here.

The test also counts the driver's ``ExperimentRunner.run`` calls. The
count is one-sided, like the e2e work counts: a count above its pin
fails, so a driver cannot start serving the same run twice unnoticed;
a count below its pin passes and is printed, and the change that
lowers it updates the pin.

All 23 drivers take about half a minute together, hence ``tier2``.
"""

from __future__ import annotations

import hashlib
import importlib

import pytest

from repro.cli import _EXPERIMENTS
from repro.evaluation.runner import ExperimentRunner

#: ``--fast`` seed-0 report digest of each driver.
DIGESTS = {
    "table1": "ae6b622a9c8adf5c2aa0bc4d150c055e3efaacca9d8d5692d55168ffc754aed5",
    "fig4_knobs": "0d5d89d15a40904e341e73ceb9ac2b98390bf6ba2ec4cd488bbdb1d7f5481b3b",
    "fig5_per_query": "ef8ffa477849acb95ecbd719dbf353ae08515cb293b4e9713a8af49d000f9555",
    "fig9_confidence": "ea22f3b940882970d650608361602fc4b97c62eaf068fec78ee31f6ac1976193",
    "fig10_delay": "2f25bbcecef345917d7dc5e0284a9935f1091e9d751ddba7088d8d2a4934e77a",
    "fig11_throughput": "b8c7e63be5aa3d72baeb4a1c7e247caf8c5daf2f47e00005832e3a246dc88912",
    "fig11_replicas": "e2528350bf0c4b0c05f26c200d3ffd79c5de562515d406e0be677cc372fd4e7b",
    "fig11_hetero": "ad63e5fde754189e2686035bfcee72399c68a50bf530c506cc2f5a980c39ed4c",
    "fig12_breakdown": "9fccb35a2046ab1a61b6acdd418f3d342961c0b145665431b3de080a615d1d8c",
    "fig13_cost": "f3e3a76e8df639565aee2dd87b13fa39ad1fe4a7706312f577632fbf0516c41a",
    "fig14_feedback": "5b205f5562f3d60b5b00d8435cca63f66568b40be43fa045e3c93ff49146d69d",
    "fig15_larger_llm": "0147d40e7c15ec8ce70ea2912d9c4b3ebcf1caf927a443c095db6f57724b12dc",
    "fig16_incremental": "46cc0fe9848026a25261d8462dee3996bc7275258804499a749b12f485aec6a0",
    "fig17_profiler_llm": "4be54c6b22405fad74ab40c30e4fba8640edd80338a0187f66f0fc383866a2d9",
    "fig18_overhead": "f9361ba1af20dee1eb83744b26aa06092a43511fa0e658da03bcef434c3b09f3",
    "fig18_saturation": "26a18acfad565b0be5ce008cc578e3293bdcec6e3d4d34f0404cf18741c24c13",
    "fig19_lowload": "1d4c5305e8e6943f309697fdbcb55f2647c17bce8c7cb023fe953ab1cfb80a8c",
    "fig_retrieval_scaling": "9df07b96f1d1fb85c8471467c82d60e721f14aca9e8f5a00f8fd3cc25f80696b",
    "fig_speculation": "c3daecb312b30089f09180248362625b42314ae07e9fbd74bfe2c930e5aea34c",
    "fig_autoscale": "56adc68b8b875324dbdb9d6ef83b3b16da187813c0a4367781c7825aca0842b0",
    "fig_cache": "e1c69cc7f7ba35a6715aeb960668b8da7665b6d5daba5569ab31de9dd0bd4f12",
    "fig_quality": "2fa64293f1d3e73b0590fd8f4f1e3101d4b9e051c2da815e3143c8b2e58a9abf",
    "ablation_refinements": "ec87bace5f1f08d4a13cb3862373bfa07f68be8ec50e05408c9afa860f2c8faa",
}

#: ``--fast`` seed-0 ``ExperimentRunner.run`` calls of each driver
#: (upper bounds).
RUNS = {
    "table1": 0,
    "fig4_knobs": 0,
    "fig5_per_query": 0,
    "fig9_confidence": 0,
    "fig10_delay": 88,
    "fig11_throughput": 84,
    "fig11_replicas": 6,
    "fig11_hetero": 6,
    "fig12_breakdown": 26,
    "fig13_cost": 24,
    "fig14_feedback": 4,
    "fig15_larger_llm": 24,
    "fig16_incremental": 5,
    "fig17_profiler_llm": 24,
    "fig18_overhead": 4,
    "fig18_saturation": 4,
    "fig19_lowload": 24,
    "fig_retrieval_scaling": 5,
    "fig_speculation": 5,
    "fig_autoscale": 4,
    "fig_cache": 7,
    "fig_quality": 8,
    "ablation_refinements": 6,
}


def test_every_driver_is_pinned():
    assert list(DIGESTS) == list(_EXPERIMENTS)
    assert list(RUNS) == list(_EXPERIMENTS)


@pytest.mark.tier2
@pytest.mark.parametrize("name", _EXPERIMENTS)
def test_fast_report_digest(name, monkeypatch):
    runs = 0
    run = ExperimentRunner.run

    def counted(self, *args, **kwargs):
        nonlocal runs
        runs += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ExperimentRunner, "run", counted)
    report = importlib.import_module(f"repro.experiments.{name}").run(
        fast=True, seed=0)
    text = repr((report.name, report.rows, report.notes))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
    assert runs <= RUNS[name], f"{name}: {runs} runs > pin {RUNS[name]}"
    if runs < RUNS[name]:
        print(f"{name}: {runs} runs is below its pin {RUNS[name]}; "
              f"lower the pin")
