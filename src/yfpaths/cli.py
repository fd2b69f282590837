"""Command-line surface: point queries, verification sweeps, DOT export.

Grammar::

    yf down X Y [--verify] [--json]            (rank X <= 1000, rank Y <= 3000)
    yf traj X Y DELTA [--verify] [--json]      (the same; <= 5000 steps, 1000 up, values <= 4000)
    yf spaths X Y S [--verify] [--json]        (rank X <= 1000, rank Y <= 3000, S <= 20000)
    yf f X Y Z [--verify] [--json]             (rank X, Y, Z <= 10000)
    yf xi X Y S I [--verify] [--json]          (I <= X <= Y <= 10000, S <= 20000)
    yf level N [--json]                        (N <= 24)
    yf dot N [--json]                          (N <= 20)
    yf verify [--max-rank N] [--max-S K] [--json]   (N <= 10, K <= 5)

Words are written as '1'/'2' strings with "e" for the empty word;
trajectories as comma-separated integers.  ``--verify`` recomputes the value
independently: by the brute-force oracle, or for ``f`` by the closed form.
The oracle stops any walk past a fixed work bound (``oracle.WORK_CAP``),
1-1.5 s of walking, and the query then fails.  ``verify`` runs sections of
checks, each one entry of the table in :func:`run_verification`: every
count formula against the oracle on all small cases (``down-from-top``
compares the closed form prod_j g(x, j) with the oracle's descent count),
the identity suites of :mod:`yfpaths.invariants`, and out-degree =
in-degree + 1.
Exit codes: 0 success, 1 usage error, oracle past its work bound or out of
memory, 2 computation disagreement, 130 interrupted.

The library rejects out-of-range arguments with ``ValueError``, which
:func:`main` reports as a usage error; this module checks only what the
library cannot: integer syntax and the caps on inputs whose cost grows
without bound.  Every cap is one :func:`_at_most` check, whose error reads
``yf: error: <name> must be at most <cap>, got <n>``, where an n past 2**64
is quoted by its bit length, and a number typed with more than 4,300 digits
is rejected unparsed, by its digit count (as not nonnegative after a ``-``
sign); every error line, argparse's too, is cut at ``ERROR_LINE_CAP``
characters.

A well-formed query (a command's name, exactly its positionals and only its
own flags, each at most once, in any order) is read by :func:`_read_query`
and its ``--json`` line written by :func:`_json`, so that a query imports
neither ``argparse`` nor ``json``: argparse runs only for the argv the
reader leaves, help and usage errors among them, and writes all their text.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable, Iterator
from functools import partial
from math import comb
from operator import attrgetter
from types import SimpleNamespace

from . import counts, oracle
from .functions import InconsistencyError, f_explicit, f_rec
from .trajectories import EnumerationCapExceeded, Trajectory, enumerate_trajectories
from .words import EPSILON, Word, level, parse_word, predecessors, successors

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_INTERRUPTED = 130

Thunk = Callable[[], object]

# Longest error line: messages quote the user's values, which may run to
# thousands of digits
ERROR_LINE_CAP = 200


def _clipped(line: str) -> str:
    return line if len(line) <= ERROR_LINE_CAP else line[: ERROR_LINE_CAP - 1] + "…"


# The escapes json.dumps writes inside a string in place of \uXXXX
_JSON_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"
}


def _json_char(c: str) -> str:
    """``c`` as ``json.dumps`` writes it inside a string: printable ASCII as
    itself, every other character escaped, past U+FFFF as a surrogate pair."""
    if c in _JSON_ESCAPES:
        return _JSON_ESCAPES[c]
    if " " <= c <= "~":
        return c
    n = ord(c)
    if n > 0xFFFF:
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return f"\\u{n:04x}"


def _json(value) -> str:
    """``value`` as ``json.dumps`` writes it, for the types of a ``--json``
    payload: str, None, bool, int, float, and lists and str-keyed dicts of
    them."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable():  # nothing to write as \uXXXX
            return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return '"' + "".join(map(_json_char, value)) + '"'
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int, which bool subclasses
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json(k)}: {_json(v)}" for k, v in value.items()) + "}"
    return "[" + ", ".join(map(_json, value)) + "]"


def _result(command, args, value, oracle_value=None, agree=None, millis=0.0) -> dict:
    """The ``--json`` payload; numbers are rendered in full as strings."""
    return {
        "command": command,
        "args": args,
        "value": str(value),
        "oracle": None if oracle_value is None else str(oracle_value),
        "agree": agree,
        "millis": millis,
    }


def _millis(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _word_pairs(max_rank: int):
    levels = [level(n) for n in range(max_rank + 1)]
    for ry in range(max_rank + 1):
        for y in levels[ry]:
            for rx in range(ry + 1):
                for x in levels[rx]:
                    yield x, y


def _agreements(formula: Callable, label: str, cases) -> Iterator[bool | str]:
    """For each case, a tuple of arguments and the oracle's value on them:
    True when ``formula`` agrees, else its failure label, formatted with the
    arguments.  An inconsistency inside the formula is a failure too."""
    for case, want in cases:
        try:
            got = formula(*case)
        except InconsistencyError as exc:
            yield f"{label.format(*case)}: {exc}"
            continue
        yield got == want or f"{label.format(*case)}: {got} != {want}"


def _against(reference: Callable, cases):
    """Each case with ``reference``'s value on it, taken as the case comes."""
    return ((case, reference(*case)) for case in cases)


TRAJ_LENGTH_CAP = 8


def _too_long(max_rank: int, max_s: int) -> int:
    """The walks between words of rank at most ``max_rank`` with at most
    ``max_s`` up-steps that are longer than ``TRAJ_LENGTH_CAP``, counted by
    the ballot number without building them."""
    skipped = 0
    for x, y in _word_pairs(max_rank):
        for s in range(max_s + 1):
            length = y.rank - x.rank + 2 * s
            if length > TRAJ_LENGTH_CAP:
                # C(length, s) orders of the steps, less by reflection the
                # C(length, s - rank x - 1) that go below 0
                below = s - x.rank - 1
                skipped += comb(length, s) - (comb(length, below) if below >= 0 else 0)
    return skipped


def _trajectory_cases(max_rank: int, max_s: int):
    """((x, y, ts), their oracle counts) for every word pair y, x of rank
    at most ``max_rank``, with ts every trajectory from rank y to rank x of
    at most ``max_s`` up-steps and ``TRAJ_LENGTH_CAP`` steps, by y, then x,
    then t.  The trajectories of each (rank x, rank y, S) are enumerated
    once, and those of each upper rank walked from each of its words as one,
    sorted by their values."""
    levels = [level(n) for n in range(max_rank + 1)]
    for ry, ys in enumerate(levels):
        ts = sorted(
            (t for rx in range(ry + 1) for s in range(max_s + 1)
             if ry - rx + 2 * s <= TRAJ_LENGTH_CAP
             for t in enumerate_trajectories(rx, ry, s)),
            key=attrgetter("values"),
        )
        for y in ys:
            by_end: list[list[tuple[Trajectory, dict]]] = [[] for _ in range(ry + 1)]
            for t, front in oracle.trajectory_distributions(y, ts):
                by_end[t.end].append((t, front))
            for walked, xs in zip(by_end, levels):
                ends = [t for t, _ in walked]
                for x in xs:
                    yield (x, y, ends), [front.get(x.digits, 0) for _, front in walked]


def _trajectory_agreements(cases) -> Iterator[bool | str]:
    """For each case of :func:`_trajectory_cases`, one outcome per
    trajectory, as :func:`_agreements` gives them, from one call of
    ``counts._trajectory_counts``.  An inconsistency inside it fails every
    trajectory of the case, none of whose counts it returned."""
    label = "({}, {}, {})"
    for (x, y, ts), wants in cases:
        try:
            gots = counts._trajectory_counts(x, y, ts)
        except InconsistencyError as exc:
            yield from (f"{label.format(x, y, t)}: {exc}" for t in ts)
            continue
        for t, got, want in zip(ts, gots, wants):
            yield got == want or f"{label.format(x, y, t)}: {got} != {want}"


def _s_path_cases(max_rank: int, max_s: int):
    """((x, y, S), oracle count) for every word pair up to ``max_rank`` and
    S <= ``max_s``, in the order of :func:`_word_pairs`; each upper word's
    counts are read off one walk."""
    levels = [level(n) for n in range(max_rank + 1)]
    for ys in levels:
        for y in ys:
            walked = oracle.s_path_distributions(y, max_s)
            for rx in range(y.rank + 1):
                for x in levels[rx]:
                    for s in range(max_s + 1):
                        yield (x, y, s), walked.get((rx, s), {}).get(x.digits, 0)


def run_verification(max_rank: int, max_s: int) -> list[dict]:
    """Formula-versus-oracle sweeps plus the identity suites.

    Down-path checks cover every word pair up to ``max_rank``; trajectory
    and S-path checks run on smaller rank caps (their oracles walk every
    path) with up-step counts bounded by ``max_s``; trajectories longer
    than ``TRAJ_LENGTH_CAP`` are counted as skipped, without being built.
    Every section is one dict, which ``--json`` prints with ``failures``
    counted: its name, the caps it ran under, its checks, the walks it
    skipped, its failure labels and its wall-clock time.
    """
    from . import invariants  # only verify runs the identity suites

    traj_rank, spath_rank, xi_rank = min(max_rank, 4), min(max_rank, 5), min(max_rank, 6)
    digits, degree_rank = min(max_rank, 6), min(max_rank, 8)

    def sweep(formula, label, cases):
        return partial(invariants.tally, _agreements(formula, label, cases))

    def suite(entry):
        # run_invariant_suites gives [(name, checks, failures)]
        return lambda: invariants.run_invariant_suites(digits, [entry])[0][1:]

    def words(rank):
        return ((w,) for n in range(rank + 1) for w in level(n))

    # name, caps, skipped, and a thunk that returns (checks, failure labels);
    # the cases are generators, so no check runs before its thunk is called
    table = [
        ("down-paths", {"rank": max_rank}, 0, sweep(
            counts.count_down, "({}, {})",
            _against(oracle.brute_count_down, _word_pairs(max_rank)))),
        ("down-from-top", {"rank": max_rank}, 0, sweep(
            counts.count_down_from_top, "({})",
            _against(partial(oracle.brute_count_down, EPSILON), words(max_rank)))),
        ("trajectory-paths", {"rank": traj_rank, "S": max_s, "length": TRAJ_LENGTH_CAP},
         _too_long(traj_rank, max_s), partial(
            invariants.tally, _trajectory_agreements(_trajectory_cases(traj_rank, max_s)))),
        ("s-paths", {"rank": spath_rank, "S": max_s}, 0, sweep(
            counts.count_s_paths, "({}, {}, S={})", _s_path_cases(spath_rank, max_s))),
        ("up-value sums", {"rank": xi_rank, "S": max_s}, 0, sweep(
            counts.xi, "(X={}, Y={}, S={}, i={})",
            _against(oracle.brute_xi, ((X, Y, s, i) for Y in range(xi_rank + 1)
                                       for X in range(Y + 1) for s in range(max_s + 1)
                                       for i in range(X + 1))))),
        *((f"identity: {entry[0]}", {"digits": digits}, 0, suite(entry))
          for entry in invariants.INVARIANT_SUITES),
        ("out-degree = in-degree + 1", {"rank": degree_rank}, 0, sweep(
            lambda w: len(successors(w)), "degree at {}",
            _against(lambda w: len(predecessors(w)) + 1, words(degree_rank)))),
    ]
    sections = []
    for name, caps, skipped, run in table:
        start = time.perf_counter()
        checks, failures = run()
        millis = _millis(time.perf_counter() - start)
        sections.append({"name": name, "caps": caps, "checks": checks, "skipped": skipped,
                         "failures": failures, "millis": millis})
    return sections


def hasse_dot(max_rank: int) -> str:
    """DOT digraph of the graph up to ``max_rank``, edges directed upward."""
    lines = ["digraph yf {"]
    for n in range(max_rank + 1):
        for w in level(n):
            lines.append(f'  "{w}";')
    for n in range(max_rank):
        for w in level(n):
            for v in successors(w):
                lines.append(f'  "{w}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines)


def _quoted(value: int) -> str:
    """``value`` for an error line; past 2**64 only its bit length, since
    formatting a number of many thousands of digits takes longer than the
    rest of the query."""
    if abs(value) <= 2**64:
        return str(value)
    return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit number"


def _int_arg(text: str, name: str, cap: int) -> int:
    """``text`` as an integer in 0..``cap``.  Past 4,300 characters (the
    default int-to-str limit, far above every cap), not counting white space,
    a sign or leading zeros, the length alone rejects it, unparsed: ``int()``
    takes time quadratic in the length, whatever the text, ~0.04 s at 100,000
    digits and 7 s at 1,000,000."""
    body = text.strip()
    digits = len(body.lstrip("+-").lstrip("0_"))
    if digits > 4300:
        if body.startswith("-"):
            raise ValueError(f"{name} must be nonnegative, got a negative {digits}-digit number")
        raise ValueError(f"{name} must be at most {cap}, got a {digits}-digit number")
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {_quoted(value)}")
    return _at_most(name, value, cap)


# Largest inputs taken where the cost grows without bound in them, timed on a
# 2-vCPU host.  A level holds F(N + 1) words, about 1.6 times as many per
# rank: ``level 24`` takes 0.5-0.8 s and ~45 MB, and ``dot 20`` 0.6-1 s and
# ~30 MB.  ``xi`` sums min(X / 2, S) terms through one fraction of
# small-integer products, which grows with each term, and
# its value has ~2S log Y digits: X = Y = 10000 at S = 20000 takes ~0.8 s,
# X = Y = 40000 ~4 s, and X = 0 with Y = 10^9 ~2 s.  The weight row of a
# count grows as about rank(x)^3: at rank(x) 1000 it takes 0.2-0.4 s
# (1.2-2.3 s at 2000), and each up-step of a trajectory multiplies every
# summand once more: 1000 up-steps at rank(x) 1000 take ~0.9 s, 10000 take
# ~26 s.  Each entry of the row multiplies one factor per g value of y, so
# the cost grows with rank(y) too: with x = 1^1000 and y = 2^k 1^1000,
# ``down`` takes 0.5-0.7 s at rank(y) 3000, ~0.9 s at 4000 and 1.3-1.7 s at
# 5000, and ``traj`` with 1000 up-steps ~0.8, 1.0 and 1.9 s.  ``spaths``
# adds to the row the xi of every shift, from one pass of a three-term
# recurrence: rank(x) exact divides by a small integer of a number the size
# of C(Y + 2S, Y) times K <= rank(x) / 2 odd factors below 2S, and one such
# xi sum, at shift 0, to check it.  At rank(x) 1000 and S = 20000 it takes
# 0.46 s of wall time with y = 1^3000 and 0.84-0.92 s with y = 2^1000 1^1000
# (0.5-0.85 s at S = 0), printing included: str() of a count of ~90,000
# digits takes ~0.13 s of that.  ``f`` walks the digits of x: ``f_rec``
# takes up to ~0.11 s at rank(x) 10000 and ~0.4 s at 20000.  The closed form
# that ``--verify`` adds is one pass over the g values of x: 1 ms at rank(x)
# 1000, 3 ms at 2000 and ~0.08 s at 10000, so ``yf f 1^N N-1 N --verify``
# takes ~66 ms of wall time at N = 1000 and 2000 and ~0.28 s at 10000, and
# ``yf f 2^5000 10000 5000 --verify`` ~0.2 s.  The oracle bounds its own work
# (``oracle.WORK_CAP``), so ``--verify`` adds no cap.
# Each ``verify`` rank costs up to ~2.2 times the one below, and each S past 3
# up to ~1.2 times: (10, 5) takes 0.7-0.9 s in-process.
LEVEL_RANK_CAP = 24
DOT_RANK_CAP = 20
S_CAP = 20_000
RANK_CAP = 1000
RANK_Y_CAP = 3000
UP_STEP_CAP = 1000
STEP_CAP = RANK_Y_CAP + 2 * UP_STEP_CAP  # descend from rank(y), and down again after each up-step
F_RANK_CAP = 10_000
XI_Y_CAP = 10_000
VERIFY_RANK_CAP = 10
VERIFY_S_CAP = 5


def _at_most(name: str, value: int, cap: int) -> int:
    """``value``, once it is within ``cap``; past it, a usage error."""
    if value > cap:
        raise ValueError(f"{name} must be at most {cap}, got {_quoted(value)}")
    return value


def _words(a) -> tuple[Word, Word]:
    """The query's words x and y, of rank within ``RANK_CAP`` and
    ``RANK_Y_CAP``."""
    x, y = parse_word(a.x), parse_word(a.y)
    _at_most("rank(x)", x.rank, RANK_CAP)
    _at_most("rank(y)", y.rank, RANK_Y_CAP)
    return x, y


def _down(a) -> tuple[object, Thunk]:
    x, y = _words(a)
    return counts.count_down(x, y), lambda: oracle.brute_count_down(x, y)


def _traj(a) -> tuple[object, Thunk]:
    x, y = _words(a)
    _at_most("trajectory steps", a.delta.count(","), STEP_CAP)
    # a trajectory that can be answered starts at rank(y) and climbs at most
    # its up-steps higher
    cap = RANK_Y_CAP + UP_STEP_CAP
    t = Trajectory(tuple(_int_arg(v, "trajectory value", cap) for v in a.delta.split(",")))
    _at_most("up-steps", t.up_count, UP_STEP_CAP)
    return counts.count_trajectory(x, y, t), lambda: oracle.brute_count_trajectory(x, y, t)


def _spaths(a) -> tuple[object, Thunk]:
    x, y = _words(a)
    s = _int_arg(a.s, "S", S_CAP)
    return counts.count_s_paths(x, y, s), lambda: oracle.brute_count_s(x, y, s)


def _f(a) -> tuple[object, Thunk]:
    x = parse_word(a.x)
    _at_most("rank(x)", x.rank, F_RANK_CAP)
    # the library takes Y <= rank(x) and Z <= digits(x), within the same cap
    y = _int_arg(a.y, "Y", F_RANK_CAP)
    z = _int_arg(a.z, "Z", F_RANK_CAP)
    return f_rec(x, y, z), lambda: f_explicit(x, y, z)


def _xi(a) -> tuple[object, Thunk]:
    # the library takes I <= X <= Y, within the cap on Y
    X = _int_arg(a.x, "X", XI_Y_CAP)
    Y = _int_arg(a.y, "Y", XI_Y_CAP)
    s = _int_arg(a.s, "S", S_CAP)
    i = _int_arg(a.i, "I", XI_Y_CAP)
    return counts.xi(X, Y, s, i), lambda: oracle.brute_xi(X, Y, s, i)


def _level(a) -> tuple[object, None]:
    n = _int_arg(a.n, "N", LEVEL_RANK_CAP)
    return ",".join(str(w) for w in level(n)), None


def _dot(a) -> tuple[object, None]:
    return hasse_dot(_int_arg(a.n, "N", DOT_RANK_CAP)), None


class Command:
    """A point-query subcommand.

    ``run`` maps the parsed arguments (the fields argparse would set) to
    ``(value, oracle)``: ``oracle`` is a thunk that recomputes the value
    independently, called only under ``--verify``, or None.  ``verify`` is
    the help of ``--verify`` (None: no such flag); ``text`` renders the
    value for plain output.
    """

    def __init__(
        self,
        help: str,
        run: Callable[[SimpleNamespace], tuple[object, Thunk | None]],
        positionals: tuple[tuple[str, str], ...],
        verify: str | None = None,
        text: Callable[[object], str] = str,
    ) -> None:
        self.help = help
        self.run = run
        self.positionals = positionals
        self.verify = verify
        self.text = text


_ORACLE = "cross-check against the brute-force oracle, which fails past its work bound"
_X = ("x", f"lower word, of rank at most {RANK_CAP}")
_Y = ("y", f"upper word, of rank at most {RANK_Y_CAP}")
_S = ("s", f"number of up-steps (at most {S_CAP})")
_DELTA = (
    "delta", f"trajectory, e.g. 3,2,1,2, of at most {STEP_CAP} steps and {UP_STEP_CAP} up-steps"
)
_XI_Y = ("y", f"upper endpoint (at most {XI_Y_CAP})")

COMMANDS = {
    "down": Command("count descending paths from Y to X", _down, (_X, _Y), _ORACLE),
    "traj": Command("count paths with a given rank profile", _traj, (_X, _Y, _DELTA), _ORACLE),
    "spaths": Command("count paths with exactly S up-steps", _spaths, (_X, _Y, _S), _ORACLE),
    "f": Command(
        "evaluate the lower weight function",
        _f,
        (
            ("x", f"word, of rank at most {F_RANK_CAP}"),
            ("y", "second argument, 0..rank"),
            ("z", "third argument, 0..digits"),
        ),
        "cross-check against the closed form",
    ),
    "xi": Command(
        "alternating up-value sum over trajectories",
        _xi,
        (("x", "lower endpoint"), _XI_Y, _S, ("i", "shift")),
        _ORACLE,
    ),
    "level": Command(
        f"list all words of a given rank (at most {LEVEL_RANK_CAP})",
        _level,
        (("n", "rank"),),
        text=lambda v: v.replace(",", "\n"),
    ),
    "dot": Command(
        f"emit the Hasse diagram up to a rank (at most {DOT_RANK_CAP}) as DOT text",
        _dot,
        (("n", "rank cutoff"),),
    ),
}


# verify's bound options: the option, its field, its default and its help
_VERIFY_BOUNDS = (
    ("--max-rank", "max_rank", "6", f"rank cap of the sweeps (at most {VERIFY_RANK_CAP})"),
    ("--max-S", "max_s", "2", f"up-step cap of the sweeps (at most {VERIFY_S_CAP})"),
)


def _read_query(argv: list[str]) -> SimpleNamespace | None:
    """The fields argparse sets for ``argv`` when it is a well-formed query,
    read without argparse: a command's name, then exactly its positionals,
    with no other token starting with "-" than each of its flags at most
    once and, for ``verify``, each bound option at most once, followed by a
    value that does not start with "-".  None for every other ``argv`` (help,
    "--", abbreviations, "=" forms, values starting with "-", repeated
    options and every usage error), which is left to argparse."""
    if not argv:
        return None
    name, *tokens = argv
    if name in COMMANDS:
        command = COMMANDS[name]
        positionals = [pos for pos, _ in command.positionals]
        flags = ("--json", "--verify") if command.verify else ("--json",)
        bounds = {}
    elif name == "verify":
        positionals, flags = [], ("--json",)
        bounds = {option: (field, default) for option, field, default, _ in _VERIFY_BOUNDS}
    else:
        return None
    fields = {"command": name, **{flag[2:]: False for flag in flags}, **dict(bounds.values())}
    values, seen = [], set()
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            values.append(token)
            continue
        if token in seen or (token not in flags and token not in bounds):
            return None
        seen.add(token)
        if token in flags:
            fields[token[2:]] = True
            continue
        value = next(tokens, "-")  # "-" for a missing value: argparse reports it
        if value.startswith("-"):
            return None
        fields[bounds[token][0]] = value
    if len(values) != len(positionals):
        return None
    return SimpleNamespace(**fields, **dict(zip(positionals, values)))


def _build_parser():
    """The parser of ``yf``, for the argv that :func:`_read_query` leaves."""
    import argparse  # a well-formed query does not need it

    class Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # computation disagreement, so remap to 1.
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, _clipped(f"{self.prog}: error: {message}") + "\n")

    parser = Parser(prog="yf", description="Exact path counts in the Young-Fibonacci graph")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for pos_name, pos_help in command.positionals:
            p.add_argument(pos_name, help=pos_help)
        p.add_argument("--json", action="store_true", help="emit a single-line JSON result")
        if command.verify:
            p.add_argument("--verify", action="store_true", help=command.verify)

    p = sub.add_parser("verify", help="formula-versus-oracle sweeps and identity suites")
    for option, field, default, text in _VERIFY_BOUNDS:
        p.add_argument(option, dest=field, default=default, help=text)
    p.add_argument("--json", action="store_true")

    return parser


def _run_query(args: SimpleNamespace) -> int:
    command = COMMANDS[args.command]
    start = time.perf_counter()
    value, check = command.run(args)
    expected = check() if check is not None and args.verify else None
    millis = _millis(time.perf_counter() - start)
    agree = None if expected is None else expected == value

    if args.json:
        raw = [getattr(args, name) for name, _ in command.positionals]
        print(_json(_result(args.command, raw, value, expected, agree, millis)))
    else:
        print(command.text(value))
        if expected is not None:
            print(f"oracle: {expected} ({'agree' if agree else 'DISAGREE'})")
    return EXIT_DISAGREE if agree is False else EXIT_OK


def _run_verify(args: SimpleNamespace) -> int:
    # parsed here, not by argparse, so that a value past the interpreter's
    # int-to-str digit limit meets the cap rather than a parse error
    max_rank = _int_arg(args.max_rank, "--max-rank", VERIFY_RANK_CAP)
    max_s = _int_arg(args.max_s, "--max-S", VERIFY_S_CAP)
    start = time.perf_counter()
    sections = run_verification(max_rank, max_s)
    millis = _millis(time.perf_counter() - start)
    checks = sum(s["checks"] for s in sections)
    failures = sum(len(s["failures"]) for s in sections)
    summary = (
        f"{failures} of {checks} checks failed" if failures else f"all {checks} checks passed"
    )
    if args.json:
        verify_args = [str(max_rank), str(max_s)]
        payload = _result("verify", verify_args, summary, agree=not failures, millis=millis)
        payload["sections"] = [{**s, "failures": len(s["failures"])} for s in sections]
        print(_json(payload))
    else:
        for s in sections:
            status = f"{len(s['failures'])} FAILED" if s["failures"] else "ok"
            caps = ", ".join(f"{name} <= {cap}" for name, cap in s["caps"].items())
            skipped = f", {s['skipped']} skipped" if s["skipped"] else ""
            print(
                f"{s['name']} ({caps}): {s['millis']} ms, "
                f"{s['checks']} checks{skipped}, {status}"
            )
            for failure in s["failures"][:10]:
                print(f"  FAIL {failure}")
        print(summary)
    return EXIT_DISAGREE if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_query(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # Counts outgrow the int-to-str digit limit (Python >= 3.11); print them
    # in full and put the interpreter's limit back afterwards.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run_verify(args) if args.command == "verify" else _run_query(args)
    except (ValueError, EnumerationCapExceeded) as exc:
        line, code = f"yf: error: {exc}", EXIT_USAGE
    except MemoryError:
        line, code = "yf: error: out of memory", EXIT_USAGE
    except InconsistencyError as exc:
        line, code = f"yf: internal inconsistency: {exc}", EXIT_DISAGREE
    except KeyboardInterrupt:
        line, code = "yf: interrupted", EXIT_INTERRUPTED
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    print(_clipped(line), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
