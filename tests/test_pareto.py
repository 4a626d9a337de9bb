"""Unit + property tests for Pareto-frontier utilities."""

from hypothesis import given
from hypothesis import strategies as st

from repro.evaluation.pareto import ParetoPoint, pareto_frontier


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """Brute-force reference for :func:`pareto_frontier`: True when
    ``a`` is at least as good as ``b`` on both axes and strictly better
    on at least one."""
    return (
        a.delay <= b.delay
        and a.quality >= b.quality
        and (a.delay < b.delay or a.quality > b.quality)
    )


points = st.lists(
    st.builds(
        ParetoPoint,
        delay=st.floats(min_value=0, max_value=100, allow_nan=False),
        quality=st.floats(min_value=0, max_value=1, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


class TestDominates:
    def test_strictly_better_dominates(self):
        assert dominates(ParetoPoint(1, 0.9), ParetoPoint(2, 0.5))

    def test_equal_does_not_dominate(self):
        p = ParetoPoint(1, 0.5)
        assert not dominates(p, ParetoPoint(1, 0.5))

    def test_tradeoff_does_not_dominate(self):
        assert not dominates(ParetoPoint(1, 0.4), ParetoPoint(2, 0.6))
        assert not dominates(ParetoPoint(2, 0.6), ParetoPoint(1, 0.4))


class TestFrontier:
    def test_single_point(self):
        pts = [ParetoPoint(1, 0.5)]
        assert pareto_frontier(pts) == pts

    def test_dominated_point_removed(self):
        good = ParetoPoint(1, 0.9)
        bad = ParetoPoint(2, 0.5)
        assert pareto_frontier([bad, good]) == [good]

    def test_sorted_by_delay(self):
        frontier = pareto_frontier(
            [ParetoPoint(3, 0.9), ParetoPoint(1, 0.3), ParetoPoint(2, 0.6)]
        )
        delays = [p.delay for p in frontier]
        assert delays == sorted(delays)

    @given(points)
    def test_no_frontier_point_dominated(self, pts):
        frontier = pareto_frontier(pts)
        for a in frontier:
            assert not any(dominates(b, a) for b in pts)

    @given(points)
    def test_every_point_dominated_or_on_frontier(self, pts):
        frontier = pareto_frontier(pts)
        frontier_set = {(p.delay, p.quality) for p in frontier}
        for p in pts:
            on_frontier = (p.delay, p.quality) in frontier_set
            dominated = any(dominates(f, p) for f in frontier)
            assert on_frontier or dominated

    @given(points)
    def test_quality_increases_along_frontier(self, pts):
        frontier = pareto_frontier(pts)
        qualities = [p.quality for p in frontier]
        assert qualities == sorted(qualities)
