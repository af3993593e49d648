"""The index source: ``IndexSource.draws`` against the per-call source it
replaced (``oracle.IndexSourceOneByOne``), on fixed seeds."""

from itertools import islice

import pytest

from sedan.rand import IndexSource

from oracle import IndexSourceOneByOne

SEEDS = [0, 1, 7, 24, 2**64 - 1]
DISTS = [("geometric", 1 << 24), ("uniform", 1 << 24), ("uniform", 12)]


@pytest.mark.parametrize("dist, bound", DISTS, ids=["geometric", "uniform", "uniform-12"])
@pytest.mark.parametrize("n", [0, 1, 29, 30, 31, 5000])
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_yield_the_per_call_sources_indices(seed, n, dist, bound):
    one_by_one = IndexSourceOneByOne(seed, dist, bound)
    assert list(IndexSource(seed, dist, bound).draws(n)) == [one_by_one.draw() for _ in range(n)]


@pytest.mark.parametrize("dist, bound", DISTS, ids=["geometric", "uniform", "uniform-12"])
@pytest.mark.parametrize("seed", SEEDS)
def test_the_first_k_of_a_longer_run_are_a_k_draw_run(seed, dist, bound):
    longer = list(IndexSource(seed, dist, bound).draws(5000))
    for k in (0, 1, 29, 30, 31, 4999):
        assert list(IndexSource(seed, dist, bound).draws(k)) == longer[:k]
    # and taking fewer than asked leaves the rest as they were
    assert list(islice(IndexSource(seed, dist, bound).draws(5000), 31)) == longer[:31]


def test_successive_runs_continue_the_sequence():
    source, one_by_one = IndexSource(24), IndexSourceOneByOne(24)
    got = [*source.draws(30), *source.draws(0), *source.draws(31)]
    assert got == [one_by_one.draw() for _ in range(61)]
