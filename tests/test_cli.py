"""Unit tests for the command-line interface."""

import argparse
import inspect

import pytest

from repro.cli import (
    build_policy,
    main,
    make_parser,
    parse_config_label,
    parse_replica_speeds,
    parse_shard_concurrency,
)
from repro.config.knobs import RAGConfig, SynthesisMethod


class TestParseReplicaSpeeds:
    def test_parses_multipliers(self):
        assert parse_replica_speeds("1.0,0.5") == [1.0, 0.5]
        assert parse_replica_speeds("2") == [2.0]

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="comma-separated numbers"):
            parse_replica_speeds("1.0,fast")


class TestParseShardConcurrency:
    def test_parses_lists_and_singletons(self):
        assert parse_shard_concurrency("2,2") == [2, 2]
        assert parse_shard_concurrency("4") == [4]

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="comma-separated integers"):
            parse_shard_concurrency("2,many")


class TestParseConfigLabel:
    def test_two_part(self):
        assert parse_config_label("stuff/8") == RAGConfig(
            SynthesisMethod.STUFF, 8
        )

    def test_three_part(self):
        assert parse_config_label("map_reduce/8/100") == RAGConfig(
            SynthesisMethod.MAP_REDUCE, 8, 100
        )

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="stuff"):
            parse_config_label("refine/8")

    def test_malformed(self):
        with pytest.raises(ValueError, match="method/num_chunks"):
            parse_config_label("stuff")


class TestBuildPolicy:
    def test_named_policies(self, finsec_bundle):
        for name in ("metis", "adaptive-rag", "median"):
            policy = build_policy(name, finsec_bundle, None, seed=0)
            assert policy is not None

    def test_fixed_requires_config(self, finsec_bundle):
        with pytest.raises(ValueError, match="--config"):
            build_policy("vllm", finsec_bundle, None, seed=0)

    def test_parrot_uses_app_aware(self, finsec_bundle):
        policy = build_policy("parrot", finsec_bundle, "stuff/8", seed=0)
        assert policy.engine_policy == "app-aware"

    def test_unknown_policy(self, finsec_bundle):
        with pytest.raises(ValueError, match="unknown policy"):
            build_policy("magic", finsec_bundle, None, seed=0)


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("squad", "musique", "finsec", "qmsum"):
            assert name in out

    def test_run_command(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "10", "--rate", "1.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_delay_s" in out

    def test_run_command_with_replicas(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "12", "--rate", "8.0",
            "--replicas", "2", "--router", "round-robin",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 replicas, round-robin router" in out
        assert "Per-replica serving stats" in out

    def test_run_command_with_replica_speeds(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "12", "--rate", "8.0",
            "--replicas", "2", "--router", "least-outstanding",
            "--replica-speeds", "1.0,0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[speeds 1,0.5]" in out
        assert "Per-replica serving stats" in out
        assert "wakeups" in out

    def test_replica_speeds_length_mismatch_fails_fast(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "4",
            "--replicas", "2", "--replica-speeds", "1.0,0.5,0.25",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "3 entries" in err and "n_replicas is 2" in err

    def test_replica_speeds_parse_error_reported(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "4",
            "--replicas", "2", "--replica-speeds", "1.0;0.5",
        ])
        assert code == 2
        assert "comma-separated numbers" in capsys.readouterr().err

    def test_run_command_with_retrieval_shards(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "10", "--rate", "2.0",
            "--retrieval-shards", "4", "--shard-concurrency", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[4-shard retrieval]" in out
        assert "retrieval/shard0" in out and "retrieval/shard3" in out

    def test_run_command_with_reranker_and_ivf(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "8", "--rate", "2.0",
            "--retrieval-shards", "2", "--reranker", "exact",
            "--index", "ivf",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[+exact reranker]" in out
        # The reranker resource renders its own contention-table row.
        assert any(line.startswith("reranker")
                   for line in out.splitlines())

    def test_shard_concurrency_length_mismatch_fails_fast(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "4",
            "--retrieval-shards", "2", "--shard-concurrency", "1,2,3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "3 entries" in err and "retrieval_shards is 2" in err

    def test_retrieval_concurrency_conflict_fails_fast(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "4",
            "--retrieval-shards", "2", "--retrieval-concurrency", "4",
        ])
        assert code == 2
        assert "shard_concurrency" in capsys.readouterr().err

    def test_run_command_with_speculation(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "12", "--rate", "8.0",
            "--replicas", "2", "--replica-speeds", "1.0,0.5",
            "--router", "round-robin",
            "--speculation", "hedge-after-delay", "--slo-seconds", "4.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[hedge-after-delay speculation]" in out
        assert "Speculative scheduling" in out
        assert "hedge_rate" in out and "wasted_work_fraction" in out

    def test_slo_without_speculation_reports_attainment(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "8", "--rate", "2.0",
            "--slo-seconds", "5.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Speculative scheduling" in out
        assert "slo_attainment" in out

    def test_speculation_misuse_fails_fast(self, capsys):
        # deadline-risk without an SLO has no signal to act on.
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "4",
            "--speculation", "deadline-risk",
        ])
        assert code == 2
        assert "slo-seconds" in capsys.readouterr().err
        # hedge-after-delay needs a timer (explicit or derived).
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "4",
            "--speculation", "hedge-after-delay",
        ])
        assert code == 2
        assert "hedge-delay" in capsys.readouterr().err
        # A single replica has nowhere to hedge to.
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "4",
            "--speculation", "hedge-after-delay", "--hedge-delay", "1.0",
        ])
        assert code == 2
        assert "second replica" in capsys.readouterr().err
        # A timer the selected policy would ignore is rejected too.
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "4", "--replicas", "2",
            "--speculation", "deadline-risk", "--slo-seconds", "5.0",
            "--hedge-delay", "1.0",
        ])
        assert code == 2
        assert "only applies" in capsys.readouterr().err

    def test_parser_rejects_unknown_speculation(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([
                "run", "--dataset", "squad", "--policy", "metis",
                "--speculation", "telepathy",
            ])

    def test_parser_rejects_unknown_index_and_reranker(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([
                "run", "--dataset", "squad", "--policy", "metis",
                "--index", "hnsw",
            ])
        with pytest.raises(SystemExit):
            make_parser().parse_args([
                "run", "--dataset", "squad", "--policy", "metis",
                "--reranker", "cross-encoder",
            ])

    def test_parser_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([
                "run", "--dataset", "squad", "--policy", "metis",
                "--replicas", "2", "--router", "coin-flip",
            ])

    def test_run_command_metis_sequential(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "metis",
            "--queries", "5", "--sequential",
        ])
        assert code == 0
        assert "mean_f1" in capsys.readouterr().out

    def test_run_command_with_quality_metrics(self, capsys):
        code = main([
            "run", "--dataset", "finsec", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "8", "--rate", "2.0",
            "--quality-metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[quality metrics]" in out
        assert "Quality metrics" in out
        assert "faithfulness" in out and "context_recall" in out

    def test_run_command_with_quality_slo(self, capsys):
        code = main([
            "run", "--dataset", "finsec", "--policy", "metis",
            "--queries", "6", "--sequential",
            "--quality-slo", "context_recall>=0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[SLO context_recall>=0.5]" in out
        assert "Quality SLO" in out
        assert "attainment" in out and "shortfall" in out

    def test_bad_quality_slo_fails_fast(self, capsys):
        code = main([
            "run", "--dataset", "finsec", "--policy", "vllm",
            "--config", "stuff/5", "--queries", "4",
            "--quality-slo", "f1>=0.5",
        ])
        assert code == 2
        assert "unknown quality metric" in capsys.readouterr().err

    def test_experiment_command(self, capsys):
        code = main(["experiment", "fig9_confidence", "--fast"])
        assert code == 0
        assert "confidence" in capsys.readouterr().out

    def test_bad_config_returns_error_code(self, capsys):
        code = main([
            "run", "--dataset", "squad", "--policy", "vllm",
            "--config", "bogus/3",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_parser_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(
                ["run", "--dataset", "hotpot", "--policy", "metis"]
            )


class TestRunKnobs:
    """Run knobs are declared once, in ``ExperimentRunner.__init__``
    (or ``run_policy`` for arrival shaping); the CLI only forwards."""

    @staticmethod
    def knob_actions():
        sub = next(a for a in make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        group = next(g for g in sub.choices["run"]._action_groups
                     if g.title == "run knobs")
        return group._group_actions

    def test_every_knob_flag_is_a_runner_keyword(self):
        from repro.evaluation.runner import ExperimentRunner
        from repro.experiments.common import run_policy

        keywords = (set(inspect.signature(run_policy).parameters)
                    | set(inspect.signature(ExperimentRunner.__init__)
                          .parameters))
        keywords -= {"self", "bundle", "policy", "engine_config", "seed",
                     "runner_kwargs"}
        dests = [action.dest for action in self.knob_actions()]
        assert len(dests) == len(set(dests)) > 20
        assert not set(dests) - keywords

    def test_unset_knobs_are_not_forwarded(self):
        args = make_parser().parse_args(
            ["run", "--dataset", "squad", "--policy", "metis"])
        dests = {action.dest for action in self.knob_actions()}
        assert not dests & set(vars(args))
        args = make_parser().parse_args(
            ["run", "--dataset", "squad", "--policy", "metis",
             "--replicas", "2", "--retrieval-cache"])
        assert dests & set(vars(args)) == {"n_replicas", "retrieval_cache"}
