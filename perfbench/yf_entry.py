"""Entry script for one benchmark ``yf`` request.

Does what the ``yf`` console script does: ``sys.exit(yfpaths.cli.main())``.
With ``PERFBENCH_TRACE=<ns>,<ns>`` in the environment (the tracing overhead
per span that ``spans.calibrate`` measured) it also times ``import
yfpaths.cli``, installs the span hooks, runs ``main`` inside a ``cli.main``
span, and prints one line of per-layer totals after a marker when the command
ends, whether or not it succeeded.

    python3 perfbench/yf_entry.py down e 22 --json
"""

import sys
import time

T0_NS = time.perf_counter_ns()

import os  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

if "PERFBENCH_TRACE" not in os.environ:
    from yfpaths.cli import main

    sys.exit(main())

sys.path.insert(0, HERE)
import spans  # noqa: E402  (stdlib-only, so the timed import below stays whole)

t = time.perf_counter_ns()
import yfpaths.cli  # noqa: E402

import_ns = time.perf_counter_ns() - t
import json  # noqa: E402

rec = spans.Recorder(tuple(float(v) for v in os.environ["PERFBENCH_TRACE"].split(",")))
installed = spans.install(rec)
span = rec.begin_request(1, "cli.main")
try:
    code = yfpaths.cli.main(sys.argv[1:])
finally:
    rec.end_request(span)
    dump = {"t0_ns": T0_NS, "import_ns": import_ns, "installed": installed,
            "memo": spans.memo_stats(), **rec.totals()}
    sys.stdout.write("\n" + spans.SPANS_MARK + json.dumps(dump) + "\n")
    sys.stdout.flush()
sys.exit(code)
