"""Seeded generators for test and benchmark inputs.

Everything returns dense 1-based integer arrays: symbols are remapped so
that exactly the values 1..sigma' occur, which is what the index builders
require.
"""

from __future__ import annotations

import numpy as np


def densify(values) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary integers onto 1..sigma preserving order of values.

    Returns (dense array, sorted original values); original[i] is the
    source symbol for dense value i + 1.
    """
    arr = np.asarray(values, dtype=np.int64)
    originals, dense0 = np.unique(arr, return_inverse=True)
    return dense0.astype(np.int64) + 1, originals


def zipf_string(n: int, sigma: int, skew: float = 1.1, seed: int = 0) -> np.ndarray:
    """Zipf-distributed string over a dense alphabet of at most sigma symbols."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, sigma + 1, dtype=np.float64) ** skew
    weights /= weights.sum()
    raw = rng.choice(sigma, size=n, p=weights)
    dense, _ = densify(raw)
    return dense


def uniform_string(n: int, sigma: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, sigma, size=n)
    dense, _ = densify(raw)
    return dense

