"""One workload process: set up, run the closed loop for the window, check.

Started by ``run.py`` for one segment of a run; prints ``READY`` once set up
and one JSON line of raw results when it is done.  With
``--trace 1`` the library workloads install the span hooks in this process;
the CLI workload has each ``yf`` child install them in itself.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from collections import deque
from itertools import islice
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CliVerify, Outcome, check_all, digest  # noqa: E402

PREFETCH = 256  # requests generated during set-up; the stream continues lazily


def answer_digest(workload, out: Outcome) -> str:
    """What must match between a traced and an untraced run of one request."""
    if isinstance(workload, CliVerify):
        lines = (out.output or "").strip().splitlines()
        try:
            value = json.loads(lines[-1]).get("value")
        except (ValueError, IndexError, AttributeError):
            value = None
        return digest((out.exit_code, value))
    return digest(out.value if out.error is None else out.error)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--segment", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", type=int, choices=(0, 1), default=1)
    args = p.parse_args(argv)

    # The host's speed drifts per vCPU: keep this process, its yf children and
    # the host-speed probe on one, so that the probe sees what the work sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cls = WORKLOADS[args.workload]
    is_cli = cls is CliVerify
    overhead = spans.calibrate() if args.trace else None
    workload = cls(overhead) if is_cli else cls()
    rec = None
    installed: dict[str, bool] = {}
    if args.trace and not is_cli:
        rec = spans.Recorder(overhead)
        installed = spans.install(rec)

    stream = workload.requests(f"{args.seed}:{args.segment}")
    pending = deque(islice(stream, PREFETCH))
    workload.warmup()
    print("READY", flush=True)

    memo_before = spans.memo_stats()
    reqs, outcomes, durations, busy, scales = [], [], [], [], []
    start = perf_counter()
    deadline = start + args.seconds
    probe = first_probe = hostspeed.probe()
    rss_at = getattr(workload, "rss_requests", None)
    peak_kb = None
    while perf_counter() < deadline:
        i0 = perf_counter()
        req = pending.popleft() if pending else next(stream)
        call_args = workload.prepare(req)
        span = rec.begin_request(len(reqs) + 1) if rec else None
        t0 = perf_counter()
        try:
            out = workload.call(call_args)
        except Exception as exc:  # a failed request is data, not the end of the run
            out = Outcome(error=f"{type(exc).__name__}: {exc}"[:300])
        t1 = perf_counter()
        after = hostspeed.probe()
        scales.append(hostspeed.scale(probe, after))
        probe = after
        if rec:
            rec.weight[len(reqs) + 1] = scales[-1]
            rec.end_request(span)
        reqs.append(req)
        outcomes.append(out)
        durations.append((t1 - t0) * 1000.0)
        busy.append((t1 - i0) * 1000.0)  # the loop's time for this request, probe excluded
        if len(reqs) == rss_at:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    window_s = perf_counter() - start
    # Peak RSS is read before any check runs: for the CLI, the largest yf
    # child; for a library workload, this process after its first
    # ``rss_requests`` requests, or when the window closes if it ran fewer.
    # A fixed count, because the memo grows with every query: read at window
    # close, it would follow how many queries the host's speed let in.
    if is_cli:
        peak_kb = max(o.rss_kb for o in outcomes)
    elif peak_kb is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_read_at = len(reqs) if is_cli else min(len(reqs), rss_at or len(reqs))
    memo_after = spans.memo_stats()
    f_before, f_after = memo_before["functions.f_memo"], memo_after["functions.f_memo"]
    oracle_after = memo_after["oracle.memo"]

    result = {
        "durations_ms": durations,
        "busy_ms": busy,
        "scales": scales,
        "first_probe_ns": first_probe,
        "classes": [r[0] for r in reqs],
        "digests": [answer_digest(workload, o) for o in outcomes],
        "window_s": window_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "rss_read_at": rss_read_at,
        "f_memo": f_after and {"hits": f_after["hits"] - f_before["hits"],
                               "misses": f_after["misses"] - f_before["misses"],
                               "entries": f_after["entries"]},
        "oracle_entries": oracle_after and oracle_after["entries"],
    }
    if rec:
        result["trace"] = {"installed": installed, **rec.totals()}
    if is_cli and args.trace:
        result["cli_trace"] = [
            None if o.spans is None else {**o.spans, "interpreter_ns": o.spans["t0_ns"] - o.spawn_ns}
            for o in outcomes
        ]
        result["reported_ms"] = [reported_millis(o) for o in outcomes]
    if args.check:
        verdicts, info = check_all(workload, reqs, outcomes, f"{args.seed}:{args.segment}")
        result["verdicts"] = verdicts
        result["check_info"] = info
    print(json.dumps(result), flush=True)
    return 0


def reported_millis(out: Outcome):
    try:
        return float(json.loads(out.output.strip().splitlines()[-1])["millis"])
    except (ValueError, IndexError, KeyError, TypeError, AttributeError):
        return None


if __name__ == "__main__":
    sys.exit(main())
