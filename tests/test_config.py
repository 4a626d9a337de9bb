"""Unit + property tests for RAG configuration knobs and spaces."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    ConfigurationSpace,
    PrunedSpace,
    RAGConfig,
    SynthesisMethod,
    full_grid,
)


class TestRAGConfig:
    def test_canonicalises_ilen_for_non_map_reduce(self):
        c = RAGConfig(SynthesisMethod.STUFF, 5, intermediate_length=100)
        assert c.intermediate_length == 0

    def test_map_reduce_requires_ilen(self):
        with pytest.raises(ValueError, match="intermediate_length"):
            RAGConfig(SynthesisMethod.MAP_REDUCE, 5)

    def test_rejects_bad_chunks(self):
        with pytest.raises(ValueError):
            RAGConfig(SynthesisMethod.STUFF, 0)

    def test_rejects_non_enum_method(self):
        with pytest.raises(TypeError):
            RAGConfig("stuff", 5)

    def test_equality_and_hash(self):
        a = RAGConfig(SynthesisMethod.STUFF, 5, 99)  # ilen canonicalised
        b = RAGConfig(SynthesisMethod.STUFF, 5)
        assert a == b
        assert hash(a) == hash(b)
        # Configs have no order: nothing ranks them by field values.
        with pytest.raises(TypeError):
            b < RAGConfig(SynthesisMethod.STUFF, 6)
        with pytest.raises(TypeError):
            b < RAGConfig(SynthesisMethod.MAP_REDUCE, 5, 100)

    def test_labels(self):
        assert RAGConfig(SynthesisMethod.STUFF, 5).label() == "stuff/k=5"
        assert (RAGConfig(SynthesisMethod.MAP_REDUCE, 8, 100).label()
                == "map_reduce/k=8/l=100")

    def test_method_properties(self):
        assert SynthesisMethod.MAP_REDUCE.uses_intermediate_length
        assert not SynthesisMethod.STUFF.uses_intermediate_length


class TestConfigurationSpace:
    def test_full_grid_size(self):
        # 11 rerank + 11 stuff + 11*6 map_reduce = 88
        assert len(full_grid()) == 88

    def test_contains(self):
        grid = full_grid()
        assert RAGConfig(SynthesisMethod.STUFF, 5) in grid
        assert RAGConfig(SynthesisMethod.STUFF, 7) not in grid

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(())


class TestPrunedSpace:
    def space(self, methods=(SynthesisMethod.STUFF, SynthesisMethod.MAP_REDUCE),
              chunks=(3, 9), ilen=(50, 150), steps=4):
        return PrunedSpace(methods=methods, num_chunks_range=chunks,
                           intermediate_length_range=ilen, ilen_steps=steps)

    def test_enumerate_counts(self):
        space = self.space()
        # stuff: 7 k-values; map_reduce: 7 * 4 ilen values.
        assert len(space.enumerate()) == 7 + 7 * 4

    def test_contains_uses_ranges(self):
        space = self.space()
        assert space.contains(RAGConfig(SynthesisMethod.MAP_REDUCE, 5, 77))
        assert not space.contains(RAGConfig(SynthesisMethod.MAP_REDUCE, 5, 200))
        assert not space.contains(RAGConfig(SynthesisMethod.MAP_RERANK, 5))
        assert not space.contains(RAGConfig(SynthesisMethod.STUFF, 10))

    def test_median_config(self):
        space = self.space()
        median = space.median_config()
        assert median.num_chunks == 6
        assert median.synthesis_method is SynthesisMethod.MAP_REDUCE
        assert median.intermediate_length == 100

    def test_most_expensive_config(self):
        config = self.space().most_expensive_config()
        assert config == RAGConfig(SynthesisMethod.MAP_REDUCE, 9, 150)

    def test_merge_unions_ranges(self):
        a = self.space(chunks=(3, 9), ilen=(50, 150))
        b = self.space(methods=(SynthesisMethod.MAP_RERANK,),
                       chunks=(1, 4), ilen=(100, 200))
        merged = a.merge(b)
        assert merged.num_chunks_range == (1, 9)
        assert merged.intermediate_length_range == (50, 200)
        assert SynthesisMethod.MAP_RERANK in merged.methods
        assert SynthesisMethod.STUFF in merged.methods

    def test_reduction_factor_positive(self):
        assert self.space().reduction_factor() > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self.space(chunks=(5, 3))
        with pytest.raises(ValueError):
            self.space(ilen=(0, 10))
        with pytest.raises(ValueError):
            PrunedSpace(methods=(), num_chunks_range=(1, 2))

    @given(st.integers(1, 30), st.integers(0, 20),
           st.integers(20, 100), st.integers(0, 150))
    def test_enumerated_configs_all_contained(self, lo, span, ilo, ispan):
        space = PrunedSpace(
            methods=(SynthesisMethod.MAP_REDUCE,),
            num_chunks_range=(lo, lo + span),
            intermediate_length_range=(ilo, ilo + ispan),
        )
        for config in space.enumerate():
            assert space.contains(config)
