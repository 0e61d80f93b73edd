"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With ``--trace 0`` the last
line of output is a JSON object carrying every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` the workload runs once untraced
and once with spans at each layer boundary, and the JSON carries every
per-layer metric.  The lines before it are a human-readable report;
the full result and the span trace are written under ``.perfbench/``.
Exits non-zero, without a result line, when the program or the
benchmark's own self-tests are missing or broken, and non-zero with
``"correct": false`` when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUPS = 5  # setups per untraced run; setup_s is their median
SLO_PATTERN = re.compile(r"top-k tail <= (\d+(?:\.\d+)?) ms")

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
    "p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "quality": "ratio",
}


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _slo_ms(spec: dict, workload: str) -> float | None:
    """The latency limit a serving workload states in its ``why``."""
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            match = SLO_PATTERN.search(entry["why"])
            return float(match.group(1)) if match else None
    return None


def _run_workload(name: str, seed: int, seconds: float, setups: int,
                  workdir: Path, slo_ms: float | None, tracer=None):
    import workloads

    if name == "linkpred-wiki":
        return workloads.linkpred(seed, seconds, setups)
    if name == "stream-serve":
        return workloads.stream_serve(seed, seconds, setups, workdir)
    mode = {"serve-exact": "exact", "serve-ivf": "ivf"}[name]
    return workloads.serve(mode, seed, seconds, setups, slo_ms, tracer)


def _shard_times(recorder) -> dict[str, float]:
    """Worker and RPC time of the sharded tier, from the router's recorder
    (each reply carries the worker's own handling time)."""
    hists = recorder.histograms
    worker = sum(h.total for key, h in hists.items()
                 if re.fullmatch(r"serving\.shard\.\d+\.seconds", key))
    overhead = hists.get("serving.shard.router_overhead_s")
    return {"shard.worker_s": worker,
            "shard.rpc_overhead_ms": overhead.mean * 1e3 if overhead else 0.0}


def _print_report(name: str, args, env: dict, result, lines: list[str]) -> None:
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env))
    print(f"  {'setup_s':<28} {result.setup_s:12.4f} s")
    for key, (value, unit, note) in result.named.items():
        print(f"  {key:<28} {value:12.4f} {unit:<6} {note}")
    for key, ok in result.checks.items():
        print(f"  check {key:<22} {'ok' if ok else 'FAILED'}")
    for line in lines:
        print(line)
    for error in result.errors[:5]:
        print(f"  error: {error}")


def _child_pids() -> list[int]:
    """Process ids whose parent is this process, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if int(fields[1]) == me:
            pids.append(int(entry.parent.name))
    return pids


def _kill_and_wait(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass  # already ended and reaped


def _stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Shard workers are joined by their frontend's ``close()``; this also
    catches any a failure path left behind, then stops multiprocessing's
    shared-memory resource tracker, which would otherwise outlive the
    run for a moment after it exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    for pid in _child_pids():  # anything else, before the tracker waits
        if pid != tracker_pid:
            _kill_and_wait(pid)
    # Closing its pipe ends the tracker once no child holds the pipe;
    # _stop() then waits for it.
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        _kill_and_wait(pid)


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; options: {names}",
                     2)
    if args.seconds <= 0:
        return _fail("--seconds must be positive", 2)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {SRC}", 2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return _fail(f"imported repro from {repro.__file__}, not {SRC}", 2)

    import envinfo
    import layers
    import selftest
    from spans import Tracer

    problems = selftest.run()
    if problems:
        return _fail("self-tests failed: " + "; ".join(problems), 3)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    env = envinfo.record(ROOT, args.seed)
    slo_ms = _slo_ms(spec, args.workload)
    if args.workload.startswith("serve-") and slo_ms is None:
        return _fail(f"{args.workload} states no 'top-k tail <= N ms' limit",
                     2)
    lines: list[str] = []
    try:
        if args.trace == 0:
            result = _run_workload(args.workload, args.seed, args.seconds,
                                   SETUPS, workdir, slo_ms)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {"setup_s": result.setup_s, "peak_rss_mb": rss_mb,
                      **result.summary}
            units = E2E_UNITS
        else:
            from repro.observability import Recorder, use_recorder

            memcpy = layers.memcpy_gbps()
            untraced = _run_workload(args.workload, args.seed, args.seconds,
                                     1, workdir, slo_ms)
            tracer = Tracer()
            recorder = Recorder()
            layers.install(tracer)
            try:
                with use_recorder(recorder):
                    result = _run_workload(args.workload, args.seed,
                                           args.seconds, 1, workdir, slo_ms,
                                           tracer)
            finally:
                tracer.restore()
            extra = dict(result.layer_extra)
            extra.update(_shard_times(recorder))
            extra["serving.memcpy_gbps"] = memcpy
            extra["trace.overhead_frac"] = result.cpu_s / untraced.cpu_s - 1.0
            values = layers.metrics(tracer, extra)
            units = layers.METRICS
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path)
            lines.append(f"  {'layer span':<28} {'calls':>9} {'total_s':>10} "
                         f"{'self_s':>10}")
            for span, row in sorted(tracer.layer_table().items(),
                                    key=lambda kv: -kv[1]["self_s"]):
                lines.append(f"  {span:<28} {row['calls']:9d} "
                             f"{row['total_s']:10.4f} {row['self_s']:10.4f}")
            for key in units:
                lines.append(f"  {key:<28} {values[key]:14.6g} {units[key]}")
            lines.append(f"  spans written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bool(result.summary) and all(result.checks.values())
    _print_report(args.workload, args, env, result, lines)
    doc = {
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": ({key: {"value": values[key], "unit": unit}
                     for key, unit in units.items()} if result.summary
                    else {}),
    }
    record = dict(doc, workload=args.workload, environment=env,
                  named={k: list(v) for k, v in result.named.items()},
                  checks=result.checks, finished=time.time())
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps(doc))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
