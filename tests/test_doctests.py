"""Run the library's doctests (executable documentation)."""

import doctest

import pytest

import repro.cli
import repro.config.space
import repro.evaluation.f1
import repro.evaluation.pareto
import repro.evaluation.reports
import repro.llm.tokenizer
import repro.util.rng


@pytest.mark.parametrize("module", [
    repro.cli,
    repro.config.space,
    repro.evaluation.f1,
    repro.evaluation.pareto,
    repro.evaluation.reports,
    repro.llm.tokenizer,
    repro.util.rng,
])
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0, f"{module.__name__}: {result.failed} failures"
