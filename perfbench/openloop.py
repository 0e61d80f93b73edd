"""Open-loop load: a fixed arrival schedule driven by at most two threads.

Requests are sent when they are due whatever the system is doing, and
every latency is measured from the due time, so a stall also charges
the requests queued behind it.  How late the sender itself ran is
reported separately (``late``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

_clock = time.perf_counter
POLL_S = 0.0005  # collector wake-up period while a batch is in flight
START_DELAY_S = 0.05


def ladder_arrivals(steps: list[tuple[float, float]]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Due offsets (s) and step index of evenly spaced arrivals: step
    ``j`` sends ``rate`` requests per second for ``seconds``, back to
    back, for each ``(rate, seconds)`` in ``steps``.

    Even spacing, rather than Poisson, keeps arrival bursts out of the
    measured tail, so the tail moves with the system, not the draw.
    """
    due, step, start = [], [], 0.0
    for j, (rate, seconds) in enumerate(steps):
        count = int(round(rate * seconds))
        due.append(start + np.arange(count) / rate)
        step.append(np.full(count, j, dtype=np.int64))
        start += seconds
    return np.concatenate(due), np.concatenate(step)


def wait_until(target: float) -> float:
    """Sleep until ``target`` on the benchmark clock; returns lateness."""
    delay = target - _clock()
    if delay > 0:
        time.sleep(delay)
    return max(0.0, _clock() - target)


@dataclass
class Outcome:
    """Per-request results; a NaN latency is a failed or timed-out request."""

    latency: np.ndarray
    late: np.ndarray
    errors: list[str] = field(default_factory=list)
    kept: dict[int, Any] = field(default_factory=dict)

    @property
    def failed(self) -> np.ndarray:
        return np.isnan(self.latency)


def drive_async(submit: Callable[[int], Any], due: np.ndarray,
                kinds: np.ndarray, timeout_s: float,
                keep: set[int] = frozenset()) -> Outcome:
    """Send request ``i`` at ``due[i]`` via ``submit(i)``, which returns a
    future with ``done()`` and ``result(timeout)``.

    One sender thread submits; one collector thread stamps completions.
    Futures of one kind resolve in submission order (each kind has its
    own FIFO micro-batcher), so the collector only ever watches the head
    of each kind's queue.  Results of the indices in ``keep`` are kept
    for output checks.
    """
    n = len(due)
    out = Outcome(np.full(n, np.nan), np.zeros(n))
    base = _clock() + START_DELAY_S
    kinds = kinds.tolist()
    queues: dict[Any, deque] = {kind: deque() for kind in set(kinds)}
    # A future wakes only waiters on its own kind's batcher, so with two
    # kinds in flight the collector must poll; with one it can block.
    wait_s = POLL_S if len(queues) > 1 else timeout_s
    arrived = threading.Condition()
    sent = False

    def settle(i: int, future, now: float) -> None:
        try:
            result = future.result(0)
        except Exception as exc:  # counted as a failed request
            out.errors.append(f"{type(exc).__name__}: {exc}")
            return
        out.latency[i] = now - (base + due[i])
        if i in keep:
            out.kept[i] = result

    def sender() -> None:
        nonlocal sent
        try:
            for i in range(n):
                out.late[i] = wait_until(base + due[i])
                try:
                    future = submit(i)
                except Exception as exc:
                    out.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                if future.done():
                    settle(i, future, _clock())
                    continue
                with arrived:
                    queues[kinds[i]].append((i, future))
                    arrived.notify()
        finally:
            with arrived:
                sent = True
                arrived.notify()

    def collector() -> None:
        while True:
            now = _clock()
            for queue in queues.values():
                while queue and queue[0][1].done():
                    i, future = queue.popleft()
                    settle(i, future, now)
                while queue and now - (base + due[queue[0][0]]) > timeout_s:
                    i, _future = queue.popleft()
                    out.errors.append(f"request {i} timed out")
            with arrived:
                heads = [q[0] for q in queues.values() if q]
                if not heads:
                    if sent:
                        return
                    arrived.wait()
                    continue
            i, future = min(heads, key=lambda item: due[item[0]])
            remaining = base + due[i] + timeout_s - _clock()
            try:
                future.result(max(0.0, min(wait_s, remaining)))
            except Exception:
                pass  # settled or timed out on the next pass

    threads = [threading.Thread(target=sender, name="openloop-send"),
               threading.Thread(target=collector, name="openloop-collect")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out


def drive_sync(call: Callable[[int], Any], due: np.ndarray,
               base: float) -> Outcome:
    """Send request ``i`` at ``base + due[i]`` by a blocking ``call(i)``.

    Runs in the calling thread; a slow call delays the requests behind
    it, which their latency (measured from their due time) shows.
    """
    n = len(due)
    out = Outcome(np.full(n, np.nan), np.zeros(n))
    for i in range(n):
        out.late[i] = wait_until(base + due[i])
        try:
            call(i)
        except Exception as exc:
            out.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        out.latency[i] = _clock() - (base + due[i])
    return out


def finite(values: np.ndarray) -> list[float]:
    return [float(v) for v in values if not math.isnan(v)]
