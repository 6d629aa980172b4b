"""Summary statistics for benchmark timings.

A tail percentile is reported only when at least ten samples lie beyond
it, so that it rests on more than one or two slow outliers.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of a sample that cannot support it."""


def percentile(samples, pct: float) -> float:
    """The ``pct``-th percentile (nearest rank) of ``samples``.

    Raises TooFewSamples unless at least ten samples lie strictly beyond the
    chosen rank, e.g. at least 100 samples for the 90th percentile.
    """
    if not 0 < pct < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    n = len(samples)
    rank = math.ceil(pct / 100 * n)  # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples leaves {n - max(rank, 0)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]
