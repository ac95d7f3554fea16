"""Shared fixtures: deterministic random codes over small fields.

The random suite is seeded so every run works on the same 25 codes; tests
that freeze counts or compare engines rely on that stability.
"""

import random
from contextlib import contextmanager

import pytest

from coverdepth import LinearCode, coverage, field_from_order, linear_code, matrix
from coverdepth.matrix import rank

SUITE_SEED = 0x5EED
SUITE_SIZE = 25


def random_full_rank(rng: random.Random, F, k: int, n: int) -> LinearCode:
    """Random k x n generator of full row rank, found by rejection."""
    while True:
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        M = matrix(F, rows)
        if rank(M) == k:
            return linear_code(M)


def random_invertible(rng: random.Random, F, k: int):
    while True:
        M = matrix(F, [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)])
        if rank(M) == k:
            return M


def build_suite(seed: int = SUITE_SEED, size: int = SUITE_SIZE):
    rng = random.Random(seed)
    suite = []
    for i in range(size):
        F = field_from_order((2, 3, 4)[i % 3])
        n = rng.randint(4, 8)
        k = rng.randint(1, n - 1)
        suite.append(random_full_rank(rng, F, k, n))
    return suite


@pytest.fixture(scope="session")
def code_suite():
    return build_suite()


@contextmanager
def lowered_keep_limit(members: int):
    """coverage._KEPT_MEMBERS set to members inside the block, then restored.

    _lattice_kept caches its decisions, so its cache is cleared on entry and
    again on exit, after the limit is restored: no decision taken under the
    lowered limit outlives the block.
    """
    saved = coverage._KEPT_MEMBERS
    coverage._KEPT_MEMBERS = members
    coverage._lattice_kept.cache_clear()
    try:
        yield
    finally:
        coverage._KEPT_MEMBERS = saved
        coverage._lattice_kept.cache_clear()


@pytest.fixture
def gf1021_line_unkept():
    """The keep limit lowered to 1,000 member vectors for one test, so the
    lattice of GF(1021)^1 (1,022 member vectors) is not kept."""
    with lowered_keep_limit(1000):
        yield
