"""The three workloads: seeded request streams, timed calls and answer checks.

Requests are plain data (words as digit strings), so the same seed gives the
same request list whatever the library does.  The timed call goes through the
public surface only: ``parse_word``, ``Trajectory``, the three ``count_*``
functions and the ``yf`` command.  Checks run after the timed window closes
and never share state with the timed calls that could change their timing:
they use the closed-form ``f_explicit``, the first-step split identities and
the CLI's own oracle verdicts.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import random
import selectors
import subprocess
import sys
import time
from fractions import Fraction

import yfpaths  # noqa: F401  (the package under test, from src/)
from spans import SPANS_MARK


class _Library:
    """yfpaths functions by name, looked up on every use: first in the package,
    then in its modules.  A name the package stops re-exporting is still
    found, and a traced wrapper installed after import is still the one
    called."""

    MODULES = ("yfpaths", "yfpaths.words", "yfpaths.trajectories",
               "yfpaths.functions", "yfpaths.counts")

    def __getattr__(self, name: str):
        for module in self.MODULES:
            try:
                value = getattr(importlib.import_module(module), name, None)
            except ImportError:
                continue
            if value is not None:
                return value
        raise AttributeError(f"yfpaths has no {name}")


api = _Library()

HERE = os.path.dirname(os.path.abspath(__file__))
ENTRY = os.path.join(HERE, "yf_entry.py")
CLI_TIMEOUT_S = 60.0


def random_word(rng: random.Random, rank: int) -> str:
    """A random composition of ``rank`` into 1s and 2s (each digit a coin flip), as text."""
    digits = []
    while rank > 0:
        d = 2 if rank > 1 and rng.random() < 0.5 else 1
        digits.append("12"[d - 1])
        rank -= d
    return "".join(digits) or "e"


def rank_of(text: str) -> int:
    return 0 if text == "e" else sum(int(c) for c in text)


def common_suffix(x: str, y: str) -> int:
    n = 0
    for a, b in zip(reversed(x), reversed(y)):
        if a != b or a == "e":
            break
        n += 1
    return n


def random_trajectory(rng: random.Random, X: int, Y: int, S: int) -> tuple[int, ...]:
    """Values of a random trajectory from Y down to X with S up-steps.

    Draws the up-values e_1..e_S one at a time inside the bounds that keep a
    completion possible (e_1 <= Y + 1, e_{k+1} <= e_k + 1, e_S >= X, e_k >= 1),
    then inserts the descents between them.
    """
    values = [Y]
    cur = Y
    prev = Y  # e_1 <= Y + 1
    for k in range(S):
        e = rng.randint(max(1, X - (S - 1 - k)), prev + 1)
        while cur >= e:
            cur -= 1
            values.append(cur)
        cur += 1
        values.append(cur)
        prev = e
    while cur > X:
        cur -= 1
        values.append(cur)
    return tuple(values)


def even_sizes(rng: random.Random, lo: int, hi: int, alpha: float):
    """Endless sizes in [lo, hi] along a randomly shifted Kronecker sequence.

    Any run of consecutive values covers the range about evenly, so a short
    timed window draws the same mix of small and large requests whatever the
    seed; the seed only picks the shift.  Each size parameter uses its own
    irrational step ``alpha`` so that parameters do not move in lockstep.
    """
    u = rng.random()
    while True:
        yield lo + int(u * (hi - lo + 1))
        u = (u + alpha) % 1.0


GOLDEN = (5 ** 0.5 - 1) / 2
SQRT2 = 2 ** 0.5 - 1
SQRT3 = 3 ** 0.5 - 1


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def parse_int(text: str) -> int:
    """Decimal text to int in chunks, so answers past 4300 digits still parse."""
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("-")
    if not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_exact(text: str):
    num, _, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den)) if den else parse_int(num)


class Outcome:
    """What one timed request returned: a library value or a yf process's output."""

    __slots__ = ("value", "error", "exit_code", "output", "rss_kb", "spawn_ns", "spans")

    def __init__(self, value=None, error=None, exit_code=0, output="", rss_kb=0,
                 spawn_ns=0, spans=None):
        self.value = value
        self.error = error
        self.exit_code = exit_code
        self.output = output
        self.rss_kb = rss_kb
        self.spawn_ns = spawn_ns
        self.spans = spans


class LibraryWorkload:
    """A workload whose requests are library calls in the workload process.

    ``prepare`` (untimed) builds the arguments and looks the function up;
    ``call`` (timed) is the call alone.  The process's peak RSS is read after
    its first ``rss_requests`` requests: whole blocks of the request stream,
    few enough that each segment gets through them on the slow host state.
    """

    rss_requests: int

    def call(self, prepared) -> Outcome:
        fn, args = prepared
        return Outcome(value=fn(*args))


# --------------------------------------------------------------------------
# down-deep


class DownDeep(LibraryWorkload):
    """Distinct count_down queries with a long common suffix.

    Nine in ten are suffix pairs: y is a random prefix of the same rank plus
    x, rank(x) in 60..140, so h = digits(x) and the f recursion runs deep.
    One in ten is an all-ones pair (1^a, 1^b), a in 60..150, b in a..2a.
    No query repeats, so each one misses the process-lifetime f memo, which
    keeps growing as it would for a library caller.
    """

    name = "down-deep"
    rss_requests = 20  # two blocks of ten
    sample = 1.0  # share of answers re-derived after the window
    check_name = "sum_i f_explicit * g_product"

    def requests(self, seed):
        rng = random.Random(seed)
        ranks = even_sizes(rng, 60, 140, GOLDEN)
        seen = set()
        ones: list[int] = []
        while True:
            block = []
            for r in itertools.islice(ranks, 9):
                while True:
                    x = random_word(rng, r)
                    y = random_word(rng, r) + x
                    if (x, y) not in seen:
                        break
                block.append(("down", x, y))
            while True:
                if not ones:
                    ones = list(range(60, 151))
                    rng.shuffle(ones)
                a = ones.pop()
                x, y = "1" * a, "1" * rng.randint(a, 2 * a)
                if (x, y) not in seen:
                    break
            block.append(("down", x, y))
            for req in block:
                seen.add(req[1:])
                yield req

    def warmup(self) -> None:
        rng = random.Random(-1)
        for r in (8, 12, 16):
            x = random_word(rng, r)
            api.count_down(api.parse_word(x), api.parse_word(random_word(rng, r) + "2" + x))

    def prepare(self, req):
        return api.count_down, (api.parse_word(req[1]), api.parse_word(req[2]))

    def verdict(self, req, out: Outcome, full: bool) -> str | None:
        if out.error is not None or not full:
            return out.error
        want = down_reference(req[1], req[2])
        return None if out.value == want else f"{out.value} != reference {want}"


def down_reference(x_text: str, y_text: str) -> int:
    """sum_i f_explicit(x, i, h) * prod_j (g(y, j) - i): no f memo involved."""
    x = api.parse_word(x_text)
    h = common_suffix(x_text, y_text)
    gs, ones, twos = [], 0, 0
    for ch in reversed(y_text if y_text != "e" else ""):
        if ch == "1":
            ones += 1
        else:
            twos += 1
            gs.append(ones + 2 * twos - 1)
    total = Fraction(0)
    for i in range(x.rank + 1):
        product = 1
        for g in gs:
            product *= g - i
        total += api.f_explicit(x, i, h) * product
    if total.denominator != 1:
        raise ValueError(f"reference for ({x_text}, {y_text}) is not an integer")
    return total.numerator


# --------------------------------------------------------------------------
# spaths-wide


class SpathsWide(LibraryWorkload):
    """Batches of nine queries sharing one x against fresh random y.

    rank(x) in 30..80, rank(x) <= rank(y) <= 2 rank(x), common suffix of at
    most two digits.  Six of nine are count_s_paths with S in 200..600, three
    are count_trajectory on a random trajectory with as many up-steps.  The
    cost moves to xi / odd double factorials and big Fraction sums; f is
    shallow and mostly served from the memo shared within the batch.  The
    trajectory third sits below p50 and the tail percentile sits inside the
    S-path share.
    """

    name = "spaths-wide"
    rss_requests = 54  # six batches of nine
    sample = 1 / 6  # every answer must be a nonnegative int; this share is re-derived
    check_name = "first-step split identities"
    BATCH = ("spaths", "spaths", "traj") * 3  # spread evenly, as the cli-verify block

    def requests(self, seed):
        rng = random.Random(seed)
        x_ranks = even_sizes(rng, 30, 80, GOLDEN)
        up_steps = even_sizes(rng, 200, 600, SQRT2)
        y_excess = even_sizes(rng, 1, 1000, SQRT3)  # rank(y) - rank(x), per mille of rank(x)
        while True:
            rx = next(x_ranks)
            x = random_word(rng, rx)
            batch = []
            for kind in self.BATCH:
                S = next(up_steps)
                ry = rx + max(1, next(y_excess) * rx // 1000)
                while True:
                    y = random_word(rng, ry)
                    if common_suffix(x, y) <= 2:
                        break
                if kind == "spaths":
                    batch.append(("spaths", x, y, S))
                else:
                    batch.append(("traj", x, y, random_trajectory(rng, rx, ry, S)))
            yield from batch

    def warmup(self) -> None:
        rng = random.Random(-1)
        x = random_word(rng, 6)
        y = random_word(rng, 9)
        api.count_s_paths(api.parse_word(x), api.parse_word(y), 20)
        api.count_trajectory(api.parse_word(x), api.parse_word(y),
                             api.Trajectory(random_trajectory(rng, 6, 9, 20)))

    def prepare(self, req):
        x, y = api.parse_word(req[1]), api.parse_word(req[2])
        if req[0] == "spaths":
            return api.count_s_paths, (x, y, req[3])
        return api.count_trajectory, (x, y, api.Trajectory(req[3]))

    def verdict(self, req, out: Outcome, full: bool) -> str | None:
        if out.error is not None:
            return out.error
        if not isinstance(out.value, int) or out.value < 0:
            return f"not a count: {out.value!r}"
        if not full:
            return None
        want = split_reference(req)
        return None if out.value == want else f"{out.value} != split {want}"


def split_reference(req) -> int:
    """Re-count a query as the sum over the first step of every path.

    S-paths: a path from y either steps down to a predecessor p (S up-steps
    left) or up to a successor s (S - 1 left).  Trajectories: the first step
    of t says which, and the rest of t is the profile from there on.
    """
    kind, x_text, y_text, arg = req
    x, y = api.parse_word(x_text), api.parse_word(y_text)
    total = 0
    # rank(y) > rank(x) in this workload, so every first step lands at or
    # above rank(x), where the count functions apply
    if kind == "spaths":
        for p in api.predecessors(y):
            total += api.count_s_paths(x, p, arg)
        if arg > 0:
            for s in api.successors(y):
                total += api.count_s_paths(x, s, arg - 1)
        return total
    values = arg
    rest = api.Trajectory(values[1:])
    step = values[1] - values[0]
    for w in (api.successors(y) if step == 1 else api.predecessors(y)):
        total += api.count_trajectory(x, w, rest)
    return total


# --------------------------------------------------------------------------
# cli-verify

# verify sweeps (--max-rank R, --max-S K), R in 4..8 and K in 0..3, cheapest
# first by their cost when the benchmark was written (0.03 to 1.0 s).  The three
# mid-cost sweeps (about 0.45 s) appear three times each, so that the middle
# of the sweeps' cost distribution, where the tail percentile falls, has no
# cliff.  Sweeps are drawn along a Kronecker sequence over this list, so the
# few sweeps of one segment already span the whole cost range.
SWEEPS = [(4, 0), (4, 1), (5, 0), (4, 2), (5, 1), (5, 2), (6, 0), (7, 0),
          (6, 1), (6, 1), (6, 1), (7, 1), (7, 1), (7, 1), (4, 3), (4, 3), (4, 3),
          (7, 2), (6, 2), (8, 0), (8, 1), (5, 3), (8, 2), (6, 3), (7, 3), (8, 3)]
POINT_KINDS = ("down", "traj", "spaths", "f", "xi")


class CliVerify:
    """Each request is a fresh ``yf ... --json`` process, one at a time.

    A block of 20 requests holds 15 point queries (three each of down, traj,
    spaths, f and xi, all with --verify inside the rank-12 oracle cap), four
    ``yf verify`` sweeps and one request from a known crash class: ``yf f
    2^n n n`` with n >= 400 (RecursionError) or ``yf spaths e y S`` whose
    answer has more than 4300 digits (int-to-str limit).  Start-up sets p50,
    the oracle and identity sweeps set the tail.
    """

    name = "cli-verify"
    sample = 1.0
    check_name = "exit 0, agree, value == in-process"
    # point query, sweep, crash class: spread evenly, so that any stretch of
    # requests holds about the block's shares, whatever the seed
    BLOCK = "ppppsppppspcppspppps"

    def __init__(self, overhead: tuple[float, float] | None = None):
        self.overhead = overhead  # set when each yf child is to trace itself

    def requests(self, seed):
        rng = random.Random(seed)
        sweeps = even_sizes(rng, 0, len(SWEEPS) - 1, GOLDEN)
        crash = rng.randrange(2)
        while True:
            kinds = [kind for kind in POINT_KINDS for _ in range(3)]
            rng.shuffle(kinds)
            for slot in self.BLOCK:
                if slot == "p":
                    yield self._point(rng, kinds.pop())
                elif slot == "s":
                    R, K = SWEEPS[next(sweeps)]
                    yield ("verify", "verify", "--max-rank", str(R), "--max-S", str(K), "--json")
                else:
                    yield self._crash(rng, crash)
                    crash ^= 1

    @staticmethod
    def _point(rng: random.Random, kind: str) -> tuple:
        if kind == "xi":
            Y = rng.randint(0, 8)
            X = rng.randint(0, Y)
            args = ("xi", str(X), str(Y), str(rng.randint(0, 5)), str(rng.randint(0, X)))
        elif kind == "f":
            x = random_word(rng, rng.randint(4, 40))
            args = ("f", x, str(rng.randint(0, rank_of(x))), str(rng.randint(0, len(x))))
        else:
            ry = rng.randint(4, 12)
            rx = rng.randint(0, ry - 1)
            x, y = random_word(rng, rx), random_word(rng, ry)
            if kind == "down":
                args = ("down", x, y)
            elif kind == "spaths":
                args = ("spaths", x, y, str(rng.randint(0, 4)))
            else:
                t = random_trajectory(rng, rx, ry, rng.randint(0, 3))
                args = ("traj", x, y, ",".join(map(str, t)))
        return ("point",) + args + ("--verify", "--json")

    @staticmethod
    def _crash(rng: random.Random, which: int) -> tuple:
        if which == 0:
            n = rng.randint(400, 600)
            return ("crash", "f", "2" * n, str(n), str(n), "--json")
        # (2S - 1)!! alone has more than 4900 digits once S >= 1600
        y = random_word(rng, rng.randint(4, 12))
        return ("crash", "spaths", "e", y, str(rng.randint(1600, 2200)), "--json")

    def warmup(self) -> None:
        for _ in range(2):
            self.call(("down", "e", "22", "--json"))

    def prepare(self, req):
        return req[1:]

    def call(self, args) -> Outcome:
        """Spawn one ``yf`` process; the latency runs from spawn to exit."""
        env = dict(os.environ)
        if self.overhead is not None:
            env["PERFBENCH_TRACE"] = "%r,%r" % self.overhead
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, ENTRY, *args], stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL, env=env)
        try:
            output = _read_all(proc, CLI_TIMEOUT_S)
        except TimeoutError:
            proc.kill()
            output = None
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        if output is None:
            return Outcome(error="timed out", exit_code=-1, rss_kb=usage.ru_maxrss)
        trace = None
        if SPANS_MARK in output:
            output, _, rest = output.partition(SPANS_MARK)
            dump, _, after = rest.partition("\n")
            trace = json.loads(dump)
            output += after
        return Outcome(exit_code=proc.returncode, output=output, rss_kb=usage.ru_maxrss,
                       spawn_ns=spawn_ns, spans=trace)

    def verdict(self, req, out: Outcome, full: bool) -> str | None:
        return cli_verdict(req, out, full)


def _read_all(proc, timeout: float) -> str:
    """The child's merged stdout and stderr; TimeoutError past ``timeout``."""
    chunks = []
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("yf child timed out")
            if not sel.select(left):
                continue
            data = os.read(proc.stdout.fileno(), 1 << 16)
            if not data:
                return b"".join(chunks).decode(errors="replace")
            chunks.append(data)


def cli_verdict(req, out: Outcome, full: bool = True) -> str | None:
    """Exit 0, ``agree: true`` where an oracle ran, and, when ``full``, a value
    equal to the in-process answer, compared as int or Fraction."""
    if out.error is not None:
        return out.error
    if out.exit_code != 0:
        tail = out.output.strip().splitlines()[-1:] or [""]
        return f"exit {out.exit_code}: {tail[0][:120]}"
    try:
        reply = json.loads(out.output.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"unparseable output {out.output[:120]!r}"
    args = req[1:]
    if args[0] == "verify":
        return None if reply.get("agree") is True else f"verify reported {reply.get('value')}"
    if "--verify" in args and reply.get("agree") is not True:
        return f"oracle disagreed: {reply.get('value')} vs {reply.get('oracle')}"
    if not full:
        return None
    try:
        got = parse_exact(reply["value"])
    except (KeyError, ValueError) as exc:
        return f"bad value: {exc}"
    want = cli_reference(args)
    return None if got == want else f"value {reply['value'][:60]} != in-process {want}"


def cli_reference(args) -> int | Fraction:
    cmd = args[0]
    if cmd == "xi":
        return api.xi(*(int(a) for a in args[1:5]))
    x = api.parse_word(args[1])
    if cmd == "f":
        return api.f_explicit(x, int(args[2]), int(args[3]))
    y = api.parse_word(args[2])
    if cmd == "down":
        return api.count_down(x, y)
    if cmd == "spaths" and x.rank == 0:  # the closed form, as for the crash class
        return api.count_s_paths_from_top(y, int(args[3]))
    if cmd == "spaths":
        return api.count_s_paths(x, y, int(args[3]))
    t = api.Trajectory(tuple(int(v) for v in args[3].split(",")))
    return api.count_trajectory(x, y, t)


WORKLOADS = {w.name: w for w in (DownDeep, SpathsWide, CliVerify)}
CHECK_BUDGET_S = 15.0


def check_all(workload, reqs, outcomes, seed, budget_s: float = CHECK_BUDGET_S):
    """A verdict per request: None when its answer passed, else what failed.

    Cheap checks (errors, exit codes, oracle verdicts, sign) run on every
    request.  The independent re-derivation runs on a seeded share
    ``workload.sample`` of them, in seeded order, until ``budget_s`` is spent,
    so that a much faster program cannot push the checks past the run's time
    limit.  Today the budget is not reached; the count re-derived is reported.
    """
    rng = random.Random(f"check:{seed}")
    order = list(range(len(reqs)))
    rng.shuffle(order)
    chosen = {i for i in order if rng.random() < workload.sample}
    deadline = time.perf_counter() + budget_s
    verdicts: list[str | None] = [None] * len(reqs)
    checked = 0
    for i in order:
        full = i in chosen and time.perf_counter() < deadline
        verdicts[i] = workload.verdict(reqs[i], outcomes[i], full)
        checked += full
    return verdicts, {"checked": checked, "check": workload.check_name}
