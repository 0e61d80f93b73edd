"""Self-tests for the benchmark's own arithmetic.

``run.py`` runs them before every measurement and refuses to measure if
one fails; ``python3 perfbench/selftest.py`` runs them alone.
"""

from __future__ import annotations

import math
import sys

import measure


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def test_tail_needs_ten_beyond() -> None:
    values = [float(v) for v in range(1, 1001)]  # 1..1000
    pct, value, n = measure.tail(values)
    _check((pct, value, n) == (99.0, 990.0, 1000),
           f"1000 samples: got p{pct}={value}")
    # 99.0 leaves exactly 10 above it; 99.5 would leave 5.
    _check(sum(v > value for v in values) == 10, "p99 must leave 10 beyond")
    pct, value, _ = measure.tail(values[:100])
    _check((pct, value) == (90.0, 90.0), f"100 samples: got p{pct}={value}")
    pct, value, _ = measure.tail(values[:19])
    _check((pct, value) == (100.0, 19.0),
           "fewer than 20 samples must fall back to the maximum")
    pct, value, _ = measure.tail(list(reversed(values[:20])))
    _check((pct, value) == (50.0, 10.0), "order of samples must not matter")


def test_batch_generation_mapping() -> None:
    gens = measure.batch_generations(first_generation=1, num_batches=3)
    _check(gens == [2, 3, 4], f"generations {gens}")
    installs = [(10.3, 2), (10.9, 4), (11.5, 5)]
    fresh = measure.freshness([10.0, 10.2, 10.4], gens, installs)
    _check([round(f, 6) for f in fresh] == [0.3, 0.7, 0.5],
           f"an install covers every earlier batch: {fresh}")
    fresh = measure.freshness([10.0, 10.2], [2, 6], installs)
    _check(fresh[1] is None, "an uncovered batch must read as None")


def test_self_time_of_nested_spans() -> None:
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),    # child
        (2.0, 3.0, 1),    # grandchild
        (3.5, 6.0, 0),    # child overlapping the first (another thread)
        (9.0, 12.0, 0),   # child running past its parent's end
    ]
    got = measure.self_times(spans)
    want = [10.0 - (6.0 - 1.0) - (10.0 - 9.0), 2.0, 1.0, 2.5, 3.0]
    _check(all(math.isclose(g, w) for g, w in zip(got, want)),
           f"self times {got} != {want}")


def test_slo_rate_counts_failures_as_misses() -> None:
    ok = [0.010] * 100  # a hundred samples: the tail is p90
    rungs = [(10.0, ok), (20.0, ok), (40.0, [0.010] * 89 + [math.inf] * 11),
             (80.0, ok)]
    _check(measure.slo_rate(rungs, 0.050) == 20.0,
           "eleven failures in a hundred put the p90 beyond the limit")
    rungs[2] = (40.0, [0.010] * 90 + [math.inf] * 10)
    _check(measure.slo_rate(rungs, 0.050) == 80.0,
           "ten failures in a hundred leave the p90 finite")
    _check(measure.slo_rate([(10.0, [math.inf] * 100)], 0.050) == 0.0,
           "a ladder failing at the bottom has no rate")
    _check(measure.slo_rate([(10.0, [0.060] * 100), (20.0, ok)], 0.050)
           == 0.0, "a pass above a miss is not capacity")


TESTS = [test_tail_needs_ten_beyond, test_batch_generation_mapping,
         test_self_time_of_nested_spans,
         test_slo_rate_counts_failures_as_misses]


def run() -> list[str]:
    """Names and messages of the failing tests (empty when all pass)."""
    failures = []
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            failures.append(f"{test.__name__}: {exc}")
    return failures


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print(line, file=sys.stderr)
    print(f"{len(TESTS) - len(problems)}/{len(TESTS)} self-tests passed")
    sys.exit(1 if problems else 0)
