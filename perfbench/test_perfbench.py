"""Self-tests for the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CliVerify, DownDeep, Outcome, SpathsWide  # noqa: E402


def first(workload, seed: int, n: int = 60) -> list:
    return list(itertools.islice(workload.requests(seed), n))


def test_same_seed_same_requests():
    for workload in (DownDeep(), SpathsWide(), CliVerify()):
        assert first(workload, 7) == first(workload, 7)
        assert first(workload, 7) != first(workload, 8)


def test_requests_respect_the_workload_ranges():
    reqs = first(DownDeep(), 3, 100)
    assert len({r[1:] for r in reqs}) == len(reqs)  # no query repeats
    for _, x, y in reqs:
        assert y.endswith(x)
        assert workloads.rank_of(x) >= 60
    for req in first(SpathsWide(), 3, 90):
        x, y = req[1], req[2]
        assert 30 <= workloads.rank_of(x) < workloads.rank_of(y) <= 2 * workloads.rank_of(x)
        assert workloads.common_suffix(x, y) <= 2
        if req[0] == "traj":
            values = req[3]
            assert values[0] == workloads.rank_of(y) and values[-1] == workloads.rank_of(x)
            assert all(v >= 0 and abs(b - a) == 1 for v, a, b in zip(values, values, values[1:]))
    classes = [r[0] for r in first(CliVerify(), 3, 200)]
    assert classes.count("crash") == 10 and classes.count("verify") == 40


def test_off_by_one_answer_is_caught_and_counted():
    workload = DownDeep()
    reqs = first(workload, 5, 3)
    outcomes = [workload.call(workload.prepare(r)) for r in reqs]
    outcomes[1].value += 1
    verdicts, info = workloads.check_all(workload, reqs, outcomes, 5)
    assert info["checked"] == 3
    assert [v is None for v in verdicts] == [True, False, True]

    segment = {"classes": [r[0] for r in reqs], "verdicts": verdicts, "setup_s": 0.1,
               "setup_scale": 1.0, "durations_ms": [1.0, 2.0, 3.0], "busy_ms": [1.0, 2.0, 3.0],
               "scales": [1.0, 1.0, 1.0], "window_s": 1.0, "peak_rss_mb": 1.0, "rss_read_at": 3,
               "check_info": {"checked": 3, "check": "test"}}
    metrics, detail = run.end_to_end("down-deep", [segment])
    assert detail["failed_ratio"] == 1 / 3
    assert detail["failed_unexpectedly"] == 1
    assert metrics["answered_ratio"][0] == 2 / 3
    # the unanswered request counts as +inf, which reads as the whole busy time
    assert metrics["latency_tail_ms"][0] == 6.0


def test_timings_are_scaled_to_the_reference_host_speed():
    fast, slow = hostspeed.REFERENCE_NS, 2 * hostspeed.REFERENCE_NS
    assert hostspeed.scale(fast, fast) == 1.0
    assert hostspeed.scale(slow, slow) == 0.5
    segment = {"durations_ms": [10.0, 10.0], "scales": [1.0, 0.5]}
    assert run.reference_ms(segment) == [10.0, 5.0]


def test_cli_value_is_compared_as_a_number():
    req = ("point", "down", "e", "22", "--verify", "--json")
    reply = {"command": "down", "value": "3", "oracle": "3", "agree": True, "millis": 0.1}
    assert workloads.cli_verdict(req, Outcome(output=json.dumps(reply))) is None
    reply["value"] = "4"
    assert workloads.cli_verdict(req, Outcome(output=json.dumps(reply))) is not None
    big = "9" * 5000
    assert workloads.parse_exact(big) == 10 ** 5000 - 1
    assert workloads.parse_exact("-3/6") == workloads.Fraction(-1, 2)


def test_known_crash_is_not_an_unexpected_failure():
    result = {"classes": ["point", "crash", "crash"],
              "verdicts": [None, "exit 1: RecursionError", "value 1 != in-process 2"]}
    assert run.statuses(result) == ["ok", "known-crash", "failed"]


def test_missing_hook_is_reported_absent():
    rec = spans.Recorder()
    installed = spans.install(rec, [("words.gone", "yfpaths.words", "no_such_function"),
                                    ("nowhere.gone", "yfpaths.no_such_module", "f")])
    assert installed == {"words.gone": False, "nowhere.gone": False}
    saved = spans.MEMOS
    spans.MEMOS = {"functions.f_memo": ("yfpaths.functions", "_no_such_cache")}
    try:
        assert spans.memo_stats() == {"functions.f_memo": None}
    finally:
        spans.MEMOS = saved
    traced = {"durations_ms": [1.0], "scales": [1.0], "f_memo": None, "oracle_entries": None,
              "trace": {"installed": {"words.validate": False}, "layers": {}, "counters": {}}}
    metrics = run.per_layer("down-deep", [{"durations_ms": [1.0], "scales": [1.0]}], [traced])
    assert metrics["words.validate.self_ms"][0] is None
    assert metrics["functions.f_memo.hit_ratio"][0] is None
    assert metrics["counts.summands"][0] is None


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    outer, inner = rec.name_id("outer"), rec.name_id("inner")
    rec.request = 1
    rec.buf.extend((outer, -1, 1, 0, 100))
    rec.buf.extend((inner, 0, 1, 10, 40))
    rec.buf.extend((inner, 0, 1, 50, 60))
    totals = rec.totals()["layers"]
    assert totals["outer"] == {"calls": 1, "self_ns": 60}
    assert totals["inner"] == {"calls": 2, "self_ns": 40}


def test_traced_and_untraced_runs_agree():
    for name in ("spaths-wide", "cli-verify"):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        detail = json.loads(lines[-2].removeprefix("detail "))
        final = json.loads(lines[-1])
        assert detail["compared"] >= 1
        assert detail["traced_vs_untraced_mismatches"] == 0
        assert final["correct"] and final["failed"] == 0
        assert set(final) == {"correct", "attempted", "failed", "metrics"}


def test_library_peak_rss_is_read_after_a_fixed_request_count():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "spaths-wide",
         "--seed", "3", "--seconds", "2", "--check", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    n = len(result["durations_ms"])
    assert result["rss_read_at"] == min(n, SpathsWide.rss_requests)
    assert result["peak_rss_mb"] > 0
