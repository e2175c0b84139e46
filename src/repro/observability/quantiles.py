"""The one percentile convention shared by every latency report."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ascending values.

    The value at rank ``ceil(q * n)``, clamped to ``[1, n]``: the
    smallest sample with at least ``q`` of the samples at or below it.
    An empty sample gives ``0.0``.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    return sorted_values[min(n, max(1, math.ceil(q * n))) - 1]
