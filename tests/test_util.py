"""Unit tests for util: RNG streams, validation."""

import numpy as np
import pytest

from repro.util import (
    RngStreams,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    derive_seed,
    stream,
)
from repro.util.validation import (
    check_count,
    check_replica_speeds,
    check_shard_concurrency,
    check_speed,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_different_names_differ(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_different_roots_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_name_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_int_parts_accepted(self):
        assert derive_seed(1, 5, "x") == derive_seed(1, 5, "x")


class TestRngStreams:
    def test_cached_stream_is_same_object(self):
        rngs = RngStreams(3)
        assert rngs.get("x") is rngs.get("x")

    def test_fresh_streams_restart(self):
        rngs = RngStreams(3)
        a = rngs.fresh("x").random(5)
        b = rngs.fresh("x").random(5)
        assert np.allclose(a, b)

    def test_named_streams_are_independent(self):
        rngs = RngStreams(3)
        a = rngs.fresh("x").random(100)
        b = rngs.fresh("y").random(100)
        assert not np.allclose(a, b)

    def test_child_derives_new_root(self):
        rngs = RngStreams(3)
        child = rngs.child("sub")
        assert child.root_seed != rngs.root_seed
        assert child.root_seed == RngStreams(3).child("sub").root_seed

    def test_module_level_stream_matches(self):
        assert np.allclose(stream(5, "q").random(3),
                           RngStreams(5).fresh("q").random(3))


class TestValidation:
    def test_check_positive_passes_and_returns(self):
        assert check_positive("x", 2.5) == 2.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_probability(self):
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.2)

    def test_check_in_range(self):
        assert check_in_range("v", 5, 0, 10) == 5
        with pytest.raises(ValueError):
            check_in_range("v", 11, 0, 10)

    def test_check_speed(self):
        assert check_speed("s", 2) == 2.0
        assert isinstance(check_speed("s", 2), float)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="s must be finite and > 0"):
                check_speed("s", bad)

    def test_check_replica_speeds(self):
        """One check for the runner and the cluster: ``None`` is a
        homogeneous fleet, a wrong length names both counts, and every
        entry is a valid speed."""
        assert check_replica_speeds(None, 2) == (1.0, 1.0)
        assert check_replica_speeds([1, 0.5], 2) == (1.0, 0.5)
        with pytest.raises(ValueError,
                           match="3 entries but n_replicas is 2"):
            check_replica_speeds([1.0, 0.5, 0.25], 2)
        with pytest.raises(ValueError, match=r"replica_speeds\[1\]"):
            check_replica_speeds([1.0, 0.0], 2)


class TestShardValidation:
    def test_shard_count_accepts_integral(self):
        assert check_count("k", 4, 1) == 4
        assert check_count("k", 4.0, 1) == 4

    def test_shard_count_rejects_bad_values(self):
        for bad in (0, -1, 1.5, "four", None):
            with pytest.raises(ValueError, match="k must be an integer >= 1"):
                check_count("k", bad, 1)

    def test_shard_concurrency_none_passthrough(self):
        assert check_shard_concurrency("sc", None, 4) is None

    def test_shard_concurrency_broadcasts_int(self):
        assert check_shard_concurrency("sc", 2, 3) == [2, 2, 2]

    def test_shard_concurrency_list_with_unbounded_entries(self):
        assert check_shard_concurrency("sc", [1, None, 3], 3) == [1, None, 3]

    def test_shard_concurrency_length_mismatch_names_counts(self):
        with pytest.raises(ValueError,
                           match="2 entries but retrieval_shards is 4"):
            check_shard_concurrency("sc", [1, 2], 4)

    def test_shard_concurrency_bad_entry_names_index(self):
        with pytest.raises(ValueError, match=r"sc\[1\] must be > 0"):
            check_shard_concurrency("sc", [1, -2], 2)

    def test_shard_concurrency_rejects_nonpositive_scalar(self):
        with pytest.raises(ValueError, match="sc must be > 0"):
            check_shard_concurrency("sc", 0, 2)
