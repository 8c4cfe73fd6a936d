"""Session-scoped exhaustive enumerations shared across test modules.

The heavy streams (brute-force word scans up to order 8, all partitions up to
[-7, 7], run distributions up to order 11) are computed once per session
so the acceptance criteria can share them.
"""

import os

import pytest

from flatstir.bijection import image_run_distributions
from flatstir.typeb import generate_typeb
from flatstir.words import generate_flattened_filter

from brute_force import scan_stirling_stats

WORKERS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def filter_stats():
    """Brute-force scan results for doubled words, order 1..8."""
    return {n: scan_stirling_stats(n, 2, workers=WORKERS if n >= 8 else 1) for n in range(1, 9)}


@pytest.fixture(scope="session")
def flat_words():
    """All flattened doubled words (as objects) for orders 1..8, via the pruned walk."""
    return {n: list(generate_flattened_filter(n, 2)) for n in range(1, 9)}


@pytest.fixture(scope="session")
def partitions():
    """All canonical type B partitions of [-n, n] for n = 0..7."""
    return {n: list(generate_typeb(n)) for n in range(0, 8)}


@pytest.fixture(scope="session")
def bijection_runs():
    """Run-count distribution of flattened doubled words, order 1..11, via images, from one call."""
    return image_run_distributions(11)
