"""Run one workload of the yfpaths benchmark and print its metrics.

    python3 perfbench/run.py --workload down-deep --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``provenance.json``): ``down-deep``,
``spaths-wide`` and ``cli-verify``, each a closed loop with one client.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:
median and tail latency, throughput, peak RSS (for the library workloads,
after a fixed number of requests per segment; see ``worker.py``), the share
of requests answered correctly, and set-up time (the median of several fresh
set-ups).  Times are
in reference milliseconds and seconds: each raw time is scaled by the host
speed a fixed probe measured around it (see ``hostspeed.py``); the raw
figures are in the ``detail`` line.
``--trace 1`` runs the same requests twice, untraced and then traced, and
prints the per-layer split from the spans plus the tracing overhead.

Answers are checked after the timed window (see ``workloads.check_all``).
The last line of output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  ``failed`` counts requests that went wrong in a way
the program as written does not explain: a wrong answer, an unexpected error,
or a traced answer that differs from the untraced one.  Requests of the two
known crash classes in cli-verify that exit non-zero are not counted there;
they lower ``answered_ratio`` and show in the ``detail`` line as
``known_crash`` and ``failed_ratio``.  The run builds nothing; it imports the
package from ``src/`` next to this directory and exits non-zero, printing no
result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("down-deep", "spaths-wide", "cli-verify")
# The highest percentile with at least ten requests beyond it at a 20 s run of
# the code this benchmark was written against; fixed, so that a faster or
# slower program is compared at the same percentile.
TAIL_PERCENTILE = {"down-deep": 90, "spaths-wide": 95, "cli-verify": 85}
# The window runs as this many back-to-back segments, each in a fresh workload
# process: every segment is a set-up sample, and the process-lifetime f memo
# of down-deep grows for a quarter of the window rather than all of it.
SEGMENTS = 4
RUN_BUDGET_S = 170.0

PER_LAYER = [
    # (metric, unit, layer, field)
    ("words.validate.calls", "calls/req", "words.validate", "calls"),
    ("words.validate.self_ms", "ms/req", "words.validate", "self_ms"),
    ("words.neighbours.calls", "calls/req", "words.neighbours", "calls"),
    ("words.neighbours.self_ms", "ms/req", "words.neighbours", "self_ms"),
    ("functions.f_rec.calls", "calls/req", "functions.f_rec", "calls"),
    ("functions.f_rec.self_ms", "ms/req", "functions.f_rec", "self_ms"),
    ("functions.f_base.calls", "calls/req", "functions.f_base", "calls"),
    ("functions.f_base.self_ms", "ms/req", "functions.f_base", "self_ms"),
    ("functions.g_product.calls", "calls/req", "functions.g_product", "calls"),
    ("functions.g_product.self_ms", "ms/req", "functions.g_product", "self_ms"),
    ("functions.weight.calls", "calls/req", "functions.weight", "calls"),
    ("functions.weight.self_ms", "ms/req", "functions.weight", "self_ms"),
    ("counts.xi.calls", "calls/req", "counts.xi", "calls"),
    ("counts.xi.self_ms", "ms/req", "counts.xi", "self_ms"),
    ("counts.odd_double_factorial.calls", "calls/req", "counts.odd_double_factorial", "calls"),
    ("counts.odd_double_factorial.self_ms", "ms/req", "counts.odd_double_factorial", "self_ms"),
    ("counts.query.calls", "calls/req", "counts.query", "calls"),
    ("counts.query.self_ms", "ms/req", "counts.query", "self_ms"),
    ("trajectories.enumerate.calls", "calls/req", "trajectories.enumerate", "calls"),
    ("trajectories.enumerate.self_ms", "ms/req", "trajectories.enumerate", "self_ms"),
    ("oracle.brute.calls", "calls/req", "oracle.brute", "calls"),
    ("oracle.brute.self_ms", "ms/req", "oracle.brute", "self_ms"),
    ("invariants.suites.self_ms", "ms/req", "invariants.suites", "self_ms"),
    ("cli.main.self_ms", "ms/req", "cli.main", "self_ms"),
]


# Bytecode caching on, as for an installed package: every yf child then loads
# cached bytecode instead of compiling the sources, whatever the caller's
# environment says.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, segment: int, seconds: float, *, trace: int,
               check: int, deadline: float) -> dict:
    """Run one segment in a fresh workload process; return its result with
    ``setup_s``, the time from spawning it until it was ready to send, and
    its host-speed scale from probes just before the spawn and just after."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--segment", str(segment), "--seconds", repr(seconds),
           "--trace", str(trace), "--check", str(check)]
    before = hostspeed.probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, cwd=ROOT, env=WORKER_ENV)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"{workload} worker failed during set-up")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return {**result, "setup_s": setup_s,
            "setup_scale": hostspeed.scale(before, result["first_probe_ns"])}


def run_segments(args, deadline: float, *, trace: int, check: int) -> list[dict]:
    return [run_worker(args.workload, args.seed, k, args.seconds / SEGMENTS,
                       trace=trace, check=check, deadline=deadline)
            for k in range(SEGMENTS)]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def statuses(result: dict) -> list[str]:
    """ok, known-crash (a crash-class request that exited non-zero) or failed."""
    out = []
    for cls, verdict in zip(result["classes"], result["verdicts"]):
        if verdict is None:
            out.append("ok")
        elif cls == "crash" and verdict.startswith("exit "):
            out.append("known-crash")
        else:
            out.append("failed")
    return out


def reference_ms(seg: dict, field: str = "durations_ms") -> list[float]:
    """A segment's per-request times in reference milliseconds (hostspeed)."""
    return [t * s for t, s in zip(seg[field], seg["scales"])]


def latencies(status: list[str], times: list[float]) -> list[float]:
    """Sorted latencies; a request that was not answered counts as +inf."""
    return sorted(t if s == "ok" else math.inf for t, s in zip(times, status))


def end_to_end(workload: str, segments: list[dict]) -> tuple[dict, dict]:
    status = [s for seg in segments for s in statuses(seg)]
    n = len(status)
    answered = status.count("ok")
    p_tail = TAIL_PERCENTILE[workload]
    lat = latencies(status, [t for seg in segments for t in reference_ms(seg)])
    raw = latencies(status, [t for seg in segments for t in seg["durations_ms"]])
    busy_s = sum(t for seg in segments for t in reference_ms(seg, "busy_ms")) / 1000.0
    window_s = sum(seg["window_s"] for seg in segments)
    # an infinite percentile (more failures than requests beyond it) is
    # reported as the whole window
    metrics = {
        "latency_p50_ms": (min(percentile(lat, 50), busy_s * 1000.0), "ms"),
        "latency_tail_ms": (min(percentile(lat, p_tail), busy_s * 1000.0), "ms"),
        "throughput_qps": (answered / busy_s, "1/s"),
        "peak_rss_mb": (max(seg["peak_rss_mb"] for seg in segments), "MB"),
        "answered_ratio": (answered / n, "ratio"),
        "setup_s": (statistics.median(seg["setup_s"] * seg["setup_scale"]
                                      for seg in segments), "s"),
    }
    detail = {
        "raw_latency_p50_ms": min(percentile(raw, 50), window_s * 1000.0),
        "raw_latency_tail_ms": min(percentile(raw, p_tail), window_s * 1000.0),
        "raw_throughput_qps": answered / window_s,
        "raw_setup_s": statistics.median(seg["setup_s"] for seg in segments),
        "host_speed_scale": statistics.median(s for seg in segments for s in seg["scales"]),
        "requests": n,
        "answered": answered,
        "known_crash": status.count("known-crash"),
        "failed_unexpectedly": status.count("failed"),
        "failed_ratio": (n - answered) / n,
        "tail_percentile": p_tail,
        "beyond_tail": n - math.ceil(p_tail / 100.0 * n),
        "window_s": window_s,
        "setup_samples_s": [seg["setup_s"] for seg in segments],
        "rss_read_at_requests": [seg["rss_read_at"] for seg in segments],
        "checked": sum(seg["check_info"]["checked"] for seg in segments),
        "check": segments[0]["check_info"]["check"],
        "failures": [v for seg in segments for v, s in zip(seg["verdicts"], statuses(seg))
                     if s == "failed"][:5],
    }
    return metrics, detail


def _add_totals(layers: dict, counters: dict, totals: dict, scale: float = 1.0) -> None:
    for layer, tot in totals["layers"].items():
        acc = layers.setdefault(layer, {"calls": 0, "self_ns": 0})
        acc["calls"] += tot["calls"]
        acc["self_ns"] += tot["self_ns"] * scale
    for counter, value in totals["counters"].items():
        if counter in counters and counters[counter] is None:
            continue
        counters[counter] = None if value is None else counters.get(counter, 0) + value


def merge_trace(workload: str, segments: list[dict]) -> dict:
    """Sum the per-layer totals of every traced process: the workload
    processes themselves, or for the CLI every yf child, one per request.
    Times are in reference ms, like the end-to-end ones; library workers
    scale their spans per request themselves."""
    layers: dict[str, dict] = {}
    counters: dict[str, int | None] = {}
    installed: dict[str, bool] = {"cli.main": True}
    memos = []  # (f memo hits, misses, entries, oracle memo entries) per process
    interp, imports, reported = [], [], []
    for seg in segments:
        if workload != "cli-verify":
            _add_totals(layers, counters, seg["trace"])
            installed.update({k: v or installed.get(k, False)
                              for k, v in seg["trace"]["installed"].items()})
            f = seg["f_memo"]
            memos.append(f and (f["hits"], f["misses"], f["entries"], seg["oracle_entries"]))
            continue
        reported += [m * k for m, k in zip(seg["reported_ms"], seg["scales"]) if m is not None]
        for dump, scale in zip(seg["cli_trace"], seg["scales"]):
            if dump is None:
                continue
            interp.append(dump["interpreter_ns"] / 1e6 * scale)
            imports.append(dump["import_ns"] / 1e6 * scale)
            _add_totals(layers, counters, dump, scale)
            installed.update({k: v or installed.get(k, False)
                              for k, v in dump["installed"].items()})
            f, o = dump["memo"]["functions.f_memo"], dump["memo"]["oracle.memo"]
            memos.append(f and (f["hits"], f["misses"], f["entries"], o and o["entries"]))
    f_memo = oracle_entries = None
    if memos and all(memos):
        hits, lookups = sum(m[0] for m in memos), sum(m[0] + m[1] for m in memos)
        f_memo = {"hit_ratio": hits / lookups if lookups else 0.0,
                  "entries": max(m[2] for m in memos)}
        if all(m[3] is not None for m in memos):
            oracle_entries = max(m[3] for m in memos)

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    return {"layers": layers, "counters": counters, "installed": installed,
            "f_memo": f_memo, "oracle_entries": oracle_entries,
            "cli": {"cli.interpreter_ms": mean(interp), "cli.import_ms": mean(imports),
                    "cli.reported_ms": mean(reported)}}


def per_layer(workload: str, ref: list[dict], traced: list[dict]) -> dict:
    """Per-request layer metrics; None marks a layer whose hook is gone."""
    n = sum(len(seg["durations_ms"]) for seg in traced)
    t = merge_trace(workload, traced)
    metrics: dict[str, tuple] = {}
    for name, unit, layer, field in PER_LAYER:
        if not t["installed"].get(layer):
            metrics[name] = (None, unit)
            continue
        tot = t["layers"].get(layer, {"calls": 0, "self_ns": 0})
        value = tot["calls"] / n if field == "calls" else tot["self_ns"] / 1e6 / n
        metrics[name] = (value, unit)
    f_memo, counters = t["f_memo"], t["counters"]
    metrics["functions.f_memo.entries"] = (f_memo and f_memo["entries"], "count")
    metrics["functions.f_memo.hit_ratio"] = (f_memo and f_memo["hit_ratio"], "ratio")
    metrics["oracle.memo.entries"] = (t["oracle_entries"], "count")
    summands, bits, queries = (counters.get(k) for k in
                               ("counts.summands", "counts.answer_bits", "counts.queries"))
    metrics["counts.summands"] = (None if summands is None else summands / n, "terms/req")
    metrics["counts.answer_bits"] = (
        None if bits is None or queries is None else (bits / queries if queries else 0.0), "bits")
    checks = counters.get("invariants.checks")
    metrics["invariants.checks"] = (None if checks is None else checks / n, "checks/req")
    for name, value in t["cli"].items():
        metrics[name] = (value, "ms")
    # the same requests, untraced then traced, compared over what both ran
    untraced = traced_ms = 0.0
    for r, s in zip(ref, traced):
        k = min(len(r["durations_ms"]), len(s["durations_ms"]))
        untraced += sum(reference_ms(r)[:k])
        traced_ms += sum(reference_ms(s)[:k])
    metrics["trace.overhead_ratio"] = (traced_ms / untraced, "ratio")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "yfpaths", "__init__.py")):
        print("perfbench: no yfpaths package under src/ next to the benchmark", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        if args.trace:
            ref = run_segments(args, deadline, trace=0, check=0)
            segments = run_segments(args, deadline, trace=1, check=1)
        else:
            segments = run_segments(args, deadline, trace=0, check=1)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(seg["durations_ms"]) for seg in segments)
    failed = sum(statuses(seg).count("failed") for seg in segments)
    if args.trace:
        metrics = per_layer(args.workload, ref, segments)
        compared = mismatched = 0
        for r, s in zip(ref, segments):
            k = min(len(r["digests"]), len(s["digests"]))
            compared += k
            mismatched += sum(a != b for a, b in zip(r["digests"][:k], s["digests"][:k]))
        detail = {"requests": attempted, "compared": compared,
                  "traced_vs_untraced_mismatches": mismatched,
                  "checked": sum(seg["check_info"]["checked"] for seg in segments)}
        failed += mismatched
    else:
        metrics, detail = end_to_end(args.workload, segments)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {unit}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
