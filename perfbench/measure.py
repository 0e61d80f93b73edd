"""The benchmark's own arithmetic: percentiles, freshness, SLO rate, self time.

Pure functions over plain lists, so ``selftest.py`` can pin each one on
hand-made inputs.
"""

from __future__ import annotations

import math
import statistics

# Candidate percentiles for a tail, highest first.  The reported tail is
# the highest one that still has at least TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(percentile, value, n)`` of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it.

    With too few samples for any candidate percentile, the maximum is
    returned as percentile 100, so a reader sees the tail is unresolved.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n
    return 100.0, ordered[-1], n


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def batch_generations(first_generation: int, num_batches: int) -> list[int]:
    """Graph generation each streamed batch produces, in send order.

    ``DynamicTemporalGraph.append`` bumps the generation once per
    non-empty batch, and the controller applies batches in queue order,
    so batch ``i`` lands as generation ``first_generation + i + 1``.  The
    stream workload checks the final generation against the last entry.
    """
    return [first_generation + i + 1 for i in range(num_batches)]


def freshness(due: list[float], generations: list[int],
              installs: list[tuple[float, int]]) -> list[float | None]:
    """Seconds from each batch's due time until a covering install.

    ``installs`` holds ``(time, generation)`` in the order they were
    observed; a batch is covered by the first install whose generation
    is at least the batch's.  ``None`` marks a batch never covered.
    """
    out: list[float | None] = []
    for when, generation in zip(due, generations):
        hit = next((t for t, g in installs if g >= generation), None)
        out.append(None if hit is None else hit - when)
    return out


def slo_rate(rungs: list[tuple[float, list[float]]], limit: float) -> float:
    """Highest rate of an ascending ladder whose tail meets ``limit``.

    Each rung is ``(rate, latencies)`` where a failed or timed-out
    request is ``math.inf``, so it counts as a miss.  The ladder is read
    from the bottom and stops at the first rung that misses: a higher
    rung that happens to pass above a failing one is noise, not
    capacity.  Returns 0.0 when even the lowest rung misses.
    """
    best = 0.0
    for rate, latencies in rungs:
        if not latencies or tail(latencies)[1] > limit:
            break
        best = rate
    return best


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` are ``(start, end, parent_index)`` with ``-1`` for a root.
    Children may overlap each other (work in other threads), so the
    covered part is the union of their intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
