import contextlib
import io
import json
import shlex
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import yfpaths.cli as cli
import yfpaths.functions as functions
import yfpaths.oracle as oracle
from yfpaths.cli import hasse_dot, main, run_verification
from yfpaths.counts import count_s_paths
from yfpaths.functions import f_explicit
from yfpaths.functions import InconsistencyError
from yfpaths.trajectories import EnumerationCapExceeded, Trajectory, enumerate_trajectories
from yfpaths.words import level, parse_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_down(capsys):
    code, out, _ = run(capsys, "down", "e", "22")
    assert code == 0
    assert out.strip() == "3"


def test_down_known_values(capsys):
    assert run(capsys, "down", "1", "1")[1].strip() == "1"
    assert run(capsys, "down", "21", "12")[1].strip() == "0"


def test_down_verify(capsys):
    code, out, _ = run(capsys, "down", "e", "22", "--verify")
    assert code == 0
    assert out.splitlines() == ["3", "oracle: 3 (agree)"]


def test_down_json(capsys):
    code, out, _ = run(capsys, "down", "e", "22", "--json", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "command": "down",
        "args": ["e", "22"],
        "value": "3",
        "oracle": "3",
        "agree": True,
        "millis": payload["millis"],
    }
    assert isinstance(payload["millis"], float)


def test_traj(capsys):
    assert run(capsys, "traj", "e", "e", "0,1,0")[1].strip() == "1"
    assert run(capsys, "traj", "e", "22", "4,3,2,1,0")[1].strip() == "3"
    assert run(capsys, "traj", "1", "1", "1,0,1")[1].strip() == "1"


def test_spaths(capsys):
    assert run(capsys, "spaths", "e", "e", "1")[1].strip() == "1"
    assert run(capsys, "spaths", "e", "1", "1")[1].strip() == "3"
    assert run(capsys, "spaths", "e", "22", "0")[1].strip() == "3"


def test_f_values(capsys):
    assert run(capsys, "f", "21221", "0", "0")[1].strip() == "1/720"
    assert run(capsys, "f", "1111", "4", "4")[1].strip() == "3/8"
    assert run(capsys, "f", "12", "1", "0")[1].strip() == "0"
    # at Z = 0, f is the base value f_base
    assert run(capsys, "f", "21221", "5", "0")[1].strip() == "-1/120"
    code, out, _ = run(capsys, "f", "1111", "4", "4", "--verify")
    assert code == 0
    assert out.splitlines() == ["3/8", "oracle: 3/8 (agree)"]


def test_f_has_no_mode_option(capsys):
    code, _, err = run(capsys, "f", "12", "1", "1", "--mode", "base")
    assert code == 1
    assert err.startswith("usage: yf ")
    assert "unrecognized arguments: --mode base" in err


def test_xi_command(capsys):
    assert run(capsys, "xi", "2", "3", "2", "0")[1].strip() == "95"
    code, out, _ = run(capsys, "xi", "2", "3", "2", "0", "--verify")
    assert code == 0 and "agree" in out


def _work_bound_line():
    return f"yf: error: the oracle's walk needs more than {oracle.WORK_CAP} units of work"


def test_xi_verify_cap_limits_y(capsys, monkeypatch):
    # only the oracle's work bound limits Y under --verify: Y = 9 answers, and
    # far past it the walk stops (at a smaller bound, to stay quick)
    code, out, _ = run(capsys, "xi", "2", "9", "1", "0", "--verify")
    assert code == 0
    assert out.splitlines()[1].endswith(" (agree)")
    monkeypatch.setattr(oracle, "WORK_CAP", 10**5)
    code, out, err = run(capsys, "xi", "0", "1000", "1000", "0", "--verify")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [_work_bound_line()]


@pytest.mark.parametrize("command", ["down", "traj", "spaths", "xi"])
def test_no_verify_cap_option(capsys, command):
    args = {"down": ("e", "1"), "traj": ("e", "1", "1,0"), "spaths": ("e", "1", "0")}
    argv = (command, *args.get(command, ("0", "1", "0", "0")), "--verify")
    code, out, err = run(capsys, *argv, "--verify-cap", "12")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --verify-cap 12" in err


def test_level(capsys):
    code, out, _ = run(capsys, "level", "3")
    assert code == 0
    assert out.splitlines() == ["111", "12", "21"]
    code, out, _ = run(capsys, "level", "3", "--json")
    assert json.loads(out)["value"] == "111,12,21"


def _dot_stats(text):
    nodes = [line for line in text.splitlines() if '";' in line and "->" not in line]
    edges = [line for line in text.splitlines() if "->" in line]
    return len(nodes), len(edges)


def test_dot_rank_one(capsys):
    code, out, _ = run(capsys, "dot", "1")
    assert code == 0
    assert _dot_stats(out) == (2, 1)
    assert '"e" -> "1";' in out


def test_dot_rank_three():
    text = hasse_dot(3)
    nodes, edges = _dot_stats(text)
    assert nodes == 1 + 1 + 2 + 3
    # edge count = sum of out-degrees of all words below the cutoff
    from yfpaths.words import level, successors

    expected = sum(len(successors(w)) for n in range(3) for w in level(n))
    assert edges == expected == 7


def test_dot_edges_match_successor_lists():
    from yfpaths.words import level, successors

    text = hasse_dot(4)
    edges = {line.strip() for line in text.splitlines() if "->" in line}
    expected = {
        f'"{w}" -> "{v}";'
        for n in range(4)
        for w in level(n)
        for v in successors(w)
    }
    assert edges == expected


def test_traj_counts_steps_before_parsing(capsys):
    # 100,000 steps meet the step cap before any value is parsed, so the
    # trailing value that is no integer is never read
    code, out, err = run(capsys, "traj", "1", "1", ",".join(["1", "0"] * 50_000) + ",x")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"yf: error: trajectory steps must be at most {cli.STEP_CAP}, got 100000"]


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "down", "120", "22")[0] == 1
    assert run(capsys, "down", "22", "e")[0] == 1
    assert run(capsys, "traj", "e", "22", "4,3")[0] == 1
    assert run(capsys, "traj", "e", "22", "nope")[0] == 1
    assert run(capsys, "f", "12", "9", "0")[0] == 1
    assert run(capsys, "xi", "3", "2", "1", "0")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("traj", "e", "22", "3,2,1,0"),
        ("spaths", "22", "e", "1"),
        ("f", "12", "1", "9"),
        ("f", "12", "9", "0", "--verify"),
        ("xi", "2", "3", "1", "3"),
        ("level", "-1"),
        ("dot", "-1"),
        # the oracle walks this trajectory upward from y and would count 3
        # paths; the library's rank-order check comes first, so nothing
        # disagrees
        ("traj", "22", "1", "1,2,3,4", "--verify"),
    ],
)
def test_library_range_errors_exit_one(capsys, argv):
    # the library raises ValueError for these; main reports it in one line
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("yf: error: ")
    assert len(err.splitlines()) == 1


_DIGITS = "7" * 3001


@pytest.mark.parametrize(
    "argv, want",
    [
        (("xi", "0", "0", "5", _DIGITS), "I must be at most 10000, got a 9969-bit number"),
        (("xi", _DIGITS, "1", "1", "0"), "X must be at most 10000, got a 9969-bit number"),
        (("f", "1", _DIGITS, "0"), "Y must be at most 10000, got a 9969-bit number"),
        (("spaths", "e", "1", _DIGITS), "S must be at most 20000, got a 9969-bit number"),
        (
            ("traj", "e", "1", _DIGITS),
            "trajectory value must be at most 4000, got a 9969-bit number",
        ),
        (
            ("spaths", "e", "1", "7" * 131_000),
            "S must be at most 20000, got a 131000-digit number",
        ),
        (
            ("traj", "e", "1", "1,0," + "7" * 131_000),
            "trajectory value must be at most 4000, got a 131000-digit number",
        ),
        (("verify", "--max-rank", "x" * 3001), None),
        (("down", "1", "2", _DIGITS), None),
        (("verify", "--max-S", "7" * 5000), "--max-S must be at most 5, got a 5000-digit number"),
    ],
    ids=[
        "xi-I",
        "xi-X",
        "f-Y",
        "spaths-S",
        "traj",
        "spaths-S-131000",
        "traj-131000",
        "verify-max-rank-text",
        "unrecognized-argument",
        "verify-max-S-5000",
    ],
)
def test_error_lines_are_short(capsys, argv, want):
    # each value runs to thousands of digits: a cap quotes its bit length,
    # or past 4,300 digits its digit count, and any other message that
    # quotes it is clipped; argparse's errors
    # follow their usage line, and verify parses its bounds past argparse
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert all(len(line) <= cli.ERROR_LINE_CAP for line in lines)
    if want is not None:
        assert lines == [f"yf: error: {want}"]
    elif argv[0] == "verify":
        [line] = lines
        assert line.startswith("yf: error: ")
        assert len(line) == cli.ERROR_LINE_CAP and line.endswith("…")
    else:
        usage, line = lines
        assert usage.startswith("usage: yf")
        assert line.startswith(("yf: error: ", "yf verify: error: "))
        assert len(line) == cli.ERROR_LINE_CAP and line.endswith("…")


def test_int_arg_counts_digits_past_the_parse_limit(capsys):
    # a number of more than 4,300 digits meets its cap unparsed; leading
    # zeros do not count, and a shorter number is quoted by its bits
    with pytest.raises(ValueError, match="^S must be at most 5, got a 4301-digit number$"):
        cli._int_arg("9" * 4301, "S", 5)
    assert run(capsys, "level", "0" * 5000 + "3") == (0, "111\n12\n21\n", "")
    with pytest.raises(ValueError, match="^S must be at most 5, got a 14285-bit number$"):
        cli._int_arg("9" * 4300, "S", 5)


@pytest.mark.parametrize(
    "text, want",
    [
        ("-" + "7" * 999_999, "S must be nonnegative, got a negative 999999-digit number"),
        ("+" + "7" * 999_999, "S must be at most 20000, got a 999999-digit number"),
        (" " + "7" * 999_999, "S must be at most 20000, got a 999999-digit number"),
        ("_" + "7" * 999_999, "S must be at most 20000, got a 999999-digit number"),
    ],
    ids=["minus", "plus", "space", "underscore"],
)
def test_int_arg_rejects_a_long_signed_number_unparsed(capsys, text, want):
    # int() takes time quadratic in the length of such text (7 s for a
    # negative of 10^6 digits); its length alone rejects it
    assert len(text) == 1_000_000
    start = time.perf_counter()
    code, out, err = run(capsys, "spaths", "e", "1", text)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"yf: error: {want}"]
    assert len(err.splitlines()[0]) <= cli.ERROR_LINE_CAP


def _parse_int_in_chunks(text):
    # int(text) itself is subject to the interpreter's digit limit
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_huge_count_printed_in_full(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, _ = run(capsys, "spaths", "2121", "1212121", "4000", "--json")
    assert code == 0
    assert get_limit() == limit
    value = json.loads(out)["value"]
    assert len(value) == 13_908
    want = count_s_paths(parse_word("2121"), parse_word("1212121"), 4000)
    assert _parse_int_in_chunks(value) == want


def test_deep_f_answers_exactly(capsys):
    # the walk is iterative: seven hundred 2s get an exact value, equal to
    # the closed form's
    x = parse_word("2" * 700)
    code, out, err = run(capsys, "f", str(x), "700", "700")
    assert code == 0
    assert err == ""
    assert out.strip() == str(f_explicit(x, 700, 700))


def test_deep_down_verify(capsys):
    # a thin upper word: one word per level, far within the oracle's bound
    code, out, err = run(capsys, "down", "e", "1" * 600, "--verify")
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["1", "oracle: 1 (agree)"]


@pytest.mark.parametrize(
    "command, cap", [("level", cli.LEVEL_RANK_CAP), ("dot", cli.DOT_RANK_CAP)]
)
def test_level_and_dot_rank_caps(capsys, monkeypatch, command, cap):
    asked = []

    def fake_level(n):
        asked.append(n)
        return []

    monkeypatch.setattr(cli, "level", fake_level)
    # past the cap: one error line, and no level is built
    for n in (cap + 1, 1000):
        code, out, err = run(capsys, command, str(n))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"yf: error: N must be at most {cap}, got {n}"]
    assert asked == []
    # the cap itself is accepted
    assert run(capsys, command, str(cap))[0] == 0
    assert max(asked) == cap


@pytest.mark.parametrize(
    "flag, cap", [("--max-rank", cli.VERIFY_RANK_CAP), ("--max-S", cli.VERIFY_S_CAP)]
)
def test_verify_caps(capsys, monkeypatch, flag, cap):
    asked = []

    def fake_verification(max_rank, max_s):
        asked.append((max_rank, max_s))
        return []

    monkeypatch.setattr(cli, "run_verification", fake_verification)
    # past the cap: one error line, and no sweep runs
    for n in (cap + 1, 1000):
        code, out, err = run(capsys, "verify", flag, str(n))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"yf: error: {flag} must be at most {cap}, got {n}"]
    assert asked == []
    # the cap itself is accepted, and so is the largest benchmark sweep
    assert run(capsys, "verify", flag, str(cap))[0] == 0
    assert run(capsys, "verify", "--max-rank", "8", "--max-S", "3")[0] == 0
    assert asked == [(cap, 2) if flag == "--max-rank" else (6, cap), (8, 3)]


@pytest.mark.parametrize(
    "command, name, args",
    [
        ("spaths", "count_s_paths", ("e", "1", "{}")),
        ("xi", "xi", ("0", "0", "{}", "0")),
    ],
)
def test_up_step_cap(capsys, monkeypatch, command, name, args):
    asked = []

    def fake_count(*a):
        asked.append(a)
        return 0

    monkeypatch.setattr(cli.counts, name, fake_count)
    # a value past 2**64 is quoted by its bit length
    for s, quoted in ((cli.S_CAP + 1, str(cli.S_CAP + 1)), (10**20, "a 67-bit number")):
        code, out, err = run(capsys, command, *(a.format(s) for a in args))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"yf: error: S must be at most {cli.S_CAP}, got {quoted}"]
    assert asked == []
    assert run(capsys, command, *(a.format(cli.S_CAP) for a in args))[0] == 0
    assert cli.S_CAP in asked[0]


def test_xi_upper_endpoint_cap(capsys, monkeypatch):
    asked = []

    def fake_xi(*a):
        asked.append(a)
        return 0

    monkeypatch.setattr(cli.counts, "xi", fake_xi)
    # past the cap: one error line, and nothing is summed
    for y, quoted in ((cli.XI_Y_CAP + 1, str(cli.XI_Y_CAP + 1)), (10**30, "a 100-bit number")):
        code, out, err = run(capsys, "xi", "0", str(y), "20000", "0")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"yf: error: Y must be at most {cli.XI_Y_CAP}, got {quoted}"]
    assert asked == []
    cap = str(cli.XI_Y_CAP)
    assert run(capsys, "xi", cap, cap, "20000", "0")[0] == 0
    assert asked == [(cli.XI_Y_CAP, cli.XI_Y_CAP, 20000, 0)]


@pytest.mark.parametrize(
    "command, args",
    [
        ("down", ("e", "22")),
        ("traj", ("e", "22", "4,3,2,1,0")),
        ("spaths", ("e", "22", "1")),
        ("xi", ("2", "3", "2", "0")),
    ],
    ids=["down", "traj", "spaths", "xi"],
)
def test_verify_cap_bounds(capsys, monkeypatch, command, args):
    # every oracle walk stops at the one work bound
    monkeypatch.setattr(oracle, "WORK_CAP", 10)
    oracle.clear_caches()
    assert run(capsys, command, *args)[0] == 0
    code, out, err = run(capsys, command, *args, "--verify")
    oracle.clear_caches()
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("yf: error: ")


def _up_steps(n):
    return ",".join(["0", "1"] * n + ["0"])


def _down_to(n):
    return ",".join(map(str, range(n, -1, -1)))


def _steps(n):
    # n steps from rank(y) = RANK_Y_CAP: down to 0, then up and down again;
    # at STEP_CAP, RANK_Y_CAP steps down and UP_STEP_CAP up-steps
    rest = n - cli.RANK_Y_CAP
    values = [*range(cli.RANK_Y_CAP, 0, -1), *[0, 1] * (rest // 2), 0, *[1] * (rest % 2)]
    return ",".join(map(str, values))


def _no_suffix_sum_one(n):
    # rank n, and no suffix has digit sum 1, so f(x, 1, 0) = 0
    return "1" * (n - 2) + "2"


# (command, count, args of a given size, what is capped, cap) of each cap on
# the words, trajectories and f keys of a point query
_CAP_CASES = [
    ("down", "count_down", lambda n: ("1" * n, "e"), "rank(x)", cli.RANK_CAP),
    ("down", "count_down", lambda n: ("e", "1" * n), "rank(y)", cli.RANK_Y_CAP),
    (
        "traj",
        "count_trajectory",
        lambda n: ("1" * n, "e", "0"),
        "rank(x)",
        cli.RANK_CAP,
    ),
    (
        "traj",
        "count_trajectory",
        lambda n: ("e", "1" * n, _down_to(n)),
        "rank(y)",
        cli.RANK_Y_CAP,
    ),
    (
        "traj",
        "count_trajectory",
        lambda n: ("e", "e", _up_steps(n)),
        "up-steps",
        cli.UP_STEP_CAP,
    ),
    (
        "traj",
        "count_trajectory",
        lambda n: ("e", "1" * cli.RANK_Y_CAP, _steps(n)),
        "trajectory steps",
        cli.STEP_CAP,
    ),
    (
        "spaths",
        "count_s_paths",
        lambda n: ("1" * n, "e", "1"),
        "rank(x)",
        cli.RANK_CAP,
    ),
    (
        "spaths",
        "count_s_paths",
        lambda n: ("e", "1" * n, "1"),
        "rank(y)",
        cli.RANK_Y_CAP,
    ),
    ("f", "f_rec", lambda n: ("1" * n, "0", "0"), "rank(x)", cli.F_RANK_CAP),
]


def _far(what, cap):
    # 10 * UP_STEP_CAP up-steps would take more than STEP_CAP steps, so the
    # far case of the up-step cap is the most up-steps that STEP_CAP steps hold
    return cli.STEP_CAP // 2 if what == "up-steps" else 10 * cap


@pytest.mark.parametrize(
    "command, name, args, what, cap",
    [
        *_CAP_CASES,
        # the closed form that --verify adds checks f(x, 1, 0) = 0 at the cap
        pytest.param(
            "f",
            "f_rec",
            lambda n: (_no_suffix_sum_one(n), "1", "0", "--verify"),
            "rank(x)",
            cli.F_RANK_CAP,
            id="f-f_rec-<lambda>-rank(x)-10000-verify",
        ),
    ],
)
def test_query_size_caps(capsys, monkeypatch, command, name, args, what, cap):
    asked = []

    def fake_count(*a):
        asked.append(a)
        return 0

    # the counts are called through the module, f_rec by its name in cli
    monkeypatch.setattr(cli if command == "f" else cli.counts, name, fake_count)
    # past the cap: one error line, and nothing is counted
    for n in (cap + 1, _far(what, cap)):
        code, out, err = run(capsys, command, *args(n))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"yf: error: {what} must be at most {cap}, got {n}"]
    assert asked == []
    code, out, _ = run(capsys, command, *args(cap))
    assert code == 0
    assert len(asked) == 1
    if "--verify" in args(cap):
        assert out.splitlines() == ["0", "oracle: 0 (agree)"]


# The oracle of each command that takes --verify, by its name in its module
_ORACLES = {
    "down": (oracle, "brute_count_down"),
    "traj": (oracle, "brute_count_trajectory"),
    "spaths": (oracle, "brute_count_s"),
    "f": (cli, "f_explicit"),
    "xi": (oracle, "brute_xi"),
}

# The caps on S and on the endpoints of xi, which their own tests cover above
_MORE_CAP_CASES = [
    ("spaths", "count_s_paths", lambda n: ("e", "1", str(n)), "S", cli.S_CAP),
    ("xi", "xi", lambda n: ("0", "0", str(n), "0"), "S", cli.S_CAP),
    ("xi", "xi", lambda n: (str(n), str(cli.XI_Y_CAP), "0", "0"), "X", cli.XI_Y_CAP),
    ("xi", "xi", lambda n: ("0", str(n), "0", "0"), "Y", cli.XI_Y_CAP),
    ("xi", "xi", lambda n: (str(cli.XI_Y_CAP), str(cli.XI_Y_CAP), "0", str(n)), "I", cli.XI_Y_CAP),
]


@pytest.mark.parametrize("command, name, args, what, cap", [*_CAP_CASES, *_MORE_CAP_CASES])
def test_verify_never_narrows_a_command(capsys, monkeypatch, command, name, args, what, cap):
    # --verify adds the oracle's work, never a cap of its own: with the count
    # and the oracle faked alike, every size answers or fails the same way
    # with and without it
    assert set(_ORACLES) == {cmd for cmd, c in cli.COMMANDS.items() if c.verify}
    monkeypatch.setattr(cli if command == "f" else cli.counts, name, lambda *a: 0)
    monkeypatch.setattr(*_ORACLES[command], lambda *a: 0)
    for n in (cap, cap + 1, _far(what, cap)):
        code, _, err = run(capsys, command, *args(n))
        assert run(capsys, command, *args(n), "--verify")[::2] == (code, err)
        assert (code, err.splitlines()) == (
            (0, []) if n == cap else (1, [f"yf: error: {what} must be at most {cap}, got {n}"])
        )


@pytest.mark.parametrize(
    "argv",
    [("spaths", "e", "1", "{}", "--verify"), ("xi", "0", "0", "{}", "0", "--verify")],
)
def test_oracle_up_step_cap(capsys, monkeypatch, argv):
    # only the oracle's work bound limits S under --verify: past the cap of
    # verify's sweeps both oracles answer, and at S_CAP their walks stop (at
    # a smaller bound, to stay quick)
    code, out, _ = run(capsys, *(a.format(cli.VERIFY_S_CAP + 1) for a in argv))
    assert code == 0
    assert out.splitlines()[1].endswith(" (agree)")
    monkeypatch.setattr(oracle, "WORK_CAP", 10**5)
    oracle.clear_caches()
    code, out, err = run(capsys, *(a.format(cli.S_CAP) for a in argv))
    oracle.clear_caches()
    assert code == 1
    assert out == ""
    assert err.splitlines() == [_work_bound_line()]


def _readme_commands():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        # drop the comment, then the output redirection
        line = line.split("#", 1)[0].split(">", 1)[0]
        if line.strip():
            yield shlex.split(line)


@pytest.mark.parametrize("argv", list(_readme_commands()), ids=" ".join)
def test_readme_cli_examples_run(capsys, argv):
    assert argv[0] == "yf"
    code, out, err = run(capsys, *argv[1:])
    assert code == 0, err
    assert out


def _squeezed(text):
    # argparse wraps help text at spaces and hyphens
    return "".join(text.split())


def test_top_level_help_lists_every_command(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    for name, command in cli.COMMANDS.items():
        assert name in out and _squeezed(command.help) in _squeezed(out)
    assert "verify" in out


@pytest.mark.parametrize("name", [*cli.COMMANDS, "verify"])
def test_command_help_lists_every_argument(capsys, name):
    code, out, err = run(capsys, name, "--help")
    assert code == 0 and err == ""
    command = cli.COMMANDS.get(name)
    for positional, text in command.positionals if command else ():
        assert positional in out and _squeezed(text) in _squeezed(out)
    verify = command.verify if command else None
    assert ("--verify" in out) == (verify is not None)
    assert verify is None or _squeezed(verify) in _squeezed(out)
    assert "--json" in out


def _parser_argvs():
    # --help of each command, and its usage errors: missing, unknown and
    # surplus arguments (verify has no positional to miss)
    for name in [*cli.COMMANDS, "verify"]:
        yield name, "--help"
        if name != "verify":
            yield (name,)
        yield name, "--bogus"
        yield name, "1", "2", "3", "4", "5"
    yield from [(), ("--help",), ("bogus",), ("--json", "down", "1", "2")]


@pytest.mark.parametrize("argv", list(_parser_argvs()), ids=" ".join)
def test_parser_output_does_not_depend_on_the_commands_built(capsys, argv):
    # help and every usage error pass the query reader by and read as the
    # parser itself writes them, the usage line naming every command
    full = cli._build_parser()
    with pytest.raises(SystemExit) as exit_info:
        full.parse_args(list(argv))
    code, full_out = exit_info.value.code, capsys.readouterr()
    assert code in (0, 1)
    assert run(capsys, *argv) == (code, full_out.out, full_out.err)


# The query reader against argparse: argv built from a command's positional
# values, its flags and verify's bound options with their values, in any
# order.  Now and then a value starts with "-" or is empty, the positionals
# are one too few or too many, a flag or option is repeated or foreign to
# the command or its value is left out, a stray token (abbreviated, "=" form,
# "--", help) is added, or the name is no command's.
_VALUES = st.sampled_from(
    ["e", "22", "3", "1,0", "7"] * 3 + ["", " ", "a b", "down", "-1", "-", "-e", "--json"]
)
_STRAY_TOKENS = st.sampled_from(
    ["--", "-h", "--help", "--js", "--ver", "--max-r", "--max", "--json=", "--verify=1",
     "--max-rank=3", "--max-S=", "--bogus", "-j", "--JSON", "--max-s"]
)


@st.composite
def _front_end_argv(draw):
    def now_and_then():
        return draw(st.integers(0, 5)) == 0

    name = draw(st.sampled_from([*cli.COMMANDS, "verify"]))
    command = cli.COMMANDS.get(name)
    arity = len(command.positionals) if command else 0
    if now_and_then():
        arity = max(0, arity + draw(st.sampled_from((-1, 1))))
    units = [[draw(_VALUES)] for _ in range(arity)]
    own = ["--json", "--verify"] if command and command.verify else ["--json"]
    flags = st.sampled_from(["--json", "--verify"] if now_and_then() else own)
    units += [[flag] for flag in draw(st.lists(flags, max_size=3, unique=not now_and_then()))]
    if name == "verify" or now_and_then():
        options = st.sampled_from(("--max-rank", "--max-S"))
        for option in draw(st.lists(options, max_size=3, unique=not now_and_then())):
            units.append([option] if now_and_then() else [option, draw(_VALUES)])
    if now_and_then():
        units.append([draw(_STRAY_TOKENS)])
    if now_and_then():
        name = draw(st.sampled_from(("-h", "--json", "bogus", "e")))
    return [name, *(token for unit in draw(st.permutations(units)) for token in unit)]


@settings(max_examples=400, deadline=None)
@given(_front_end_argv())
@example(["verify", "--max-rank", "-e"])
@example(["verify", "--json", "--max-S"])
@example(["level", "-1"])
@example(["spaths", "e", "--", "-", "0"])
@example(["down", "e", "22", "--verify", "--json", "--verify"])
def test_query_reader_agrees_with_argparse(argv):
    # whatever the reader takes, argparse takes too, into the same fields;
    # the rest is left to argparse
    read = cli._read_query(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    if read is not None:
        assert vars(read) == parsed


def test_query_reader_takes_every_well_formed_query():
    # each command with its positionals, and with all of its flags first or
    # after its first positional, is read without argparse, as argparse reads it
    for name, command in cli.COMMANDS.items():
        values = [str(k) for k in range(len(command.positionals))]
        flags = ["--json", "--verify"] if command.verify else ["--json"]
        for argv in (
            [name, *values],
            [name, *flags, *values],
            [name, values[0], *flags[::-1], *values[1:]],
        ):
            read = vars(cli._read_query(argv))
            assert read == vars(cli._build_parser().parse_args(argv)), argv
    for argv in (["verify"], ["verify", "--max-S", "1", "--json", "--max-rank", "7"]):
        assert vars(cli._read_query(argv)) == vars(cli._build_parser().parse_args(argv))


# Text for --json payloads: ASCII with its controls and DEL, quotes and
# backslashes, non-ASCII, astral characters and lone surrogates
_JSON_TEXT = st.text(
    st.one_of(
        st.characters(max_codepoint=0x7F),
        st.sampled_from('"\\\x7f\x00\x1f\u2028\ud800\udfff\U0001f600é'),
        st.characters(exclude_categories=()),
    )
)
_MILLIS = st.floats(allow_nan=False, allow_infinity=False)
_SECTION = st.fixed_dictionaries(
    {
        "name": _JSON_TEXT,
        "caps": st.dictionaries(_JSON_TEXT, st.integers(), max_size=3),
        "checks": st.integers(),
        "skipped": st.integers(),
        "failures": st.integers(),
        "millis": _MILLIS,
    }
)


@st.composite
def _payload(draw):
    value = draw(st.one_of(_JSON_TEXT, st.just("7" * 90_000)))
    oracle_value = draw(st.none() | _JSON_TEXT | st.just(value))
    agree = draw(st.none() | st.booleans())
    payload = cli._result(
        draw(_JSON_TEXT), draw(st.lists(_JSON_TEXT, max_size=4)), value, oracle_value, agree,
        draw(_MILLIS),
    )
    if draw(st.booleans()):
        payload["sections"] = draw(st.lists(_SECTION, max_size=3))
    return payload


@settings(max_examples=300, deadline=None)
@given(_payload())
def test_json_lines_match_json_dumps(payload):
    assert cli._json(payload) == json.dumps(payload)


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "4", "--max-S", "1")
    assert code == 0
    assert "checks passed" in out.splitlines()[-1]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "3", "--max-S", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert "checks passed" in payload["value"]
    sections = {s["name"]: s for s in payload["sections"]}
    assert sum(s["checks"] for s in sections.values()) == int(payload["value"].split()[1])
    assert all(s["failures"] == 0 and s["skipped"] == 0 for s in sections.values())
    assert sections["down-paths"]["caps"] == {"rank": 3}
    assert sections["trajectory-paths"]["caps"] == {"rank": 3, "S": 1, "length": 8}
    assert sections["identity: hook factorial"]["caps"] == {"digits": 3}
    assert all(isinstance(s["millis"], float) and s["millis"] >= 0 for s in sections.values())
    keys = ["name", "caps", "checks", "skipped", "failures", "millis"]
    assert all(list(s) == keys for s in payload["sections"])


def _verify_lines(capsys, max_rank, max_s):
    code, out, _ = run(capsys, "verify", "--max-rank", str(max_rank), "--max-S", str(max_s))
    assert code == 0
    return {line.split(" (")[0]: line for line in out.splitlines() if " (" in line}


def _too_long(max_rank, max_s):
    """Trajectories longer than 8 between words of rank at most ``max_rank``
    with at most ``max_s`` up-steps, counted by enumerating them."""
    return sum(
        t.length > 8
        for ry in range(max_rank + 1)
        for rx in range(ry + 1)
        for _pair in range(len(level(ry)) * len(level(rx)))
        for s in range(max_s + 1)
        for t in enumerate_trajectories(rx, ry, s)
    )


def test_verify_reports_caps_and_skipped(capsys):
    lines = _verify_lines(capsys, 5, 3)
    # rank 4 with S = 3 reaches trajectories of length 4 + 2*3 > 8
    too_long = _too_long(4, 3)
    assert too_long > 0
    traj = lines["trajectory-paths"]
    assert traj.startswith("trajectory-paths (rank <= 4, S <= 3, length <= 8): ")
    assert traj.endswith(f" checks, {too_long} skipped, ok")
    assert lines["s-paths"].startswith("s-paths (rank <= 5, S <= 3): ")
    assert lines["up-value sums"].startswith("up-value sums (rank <= 5, S <= 3): ")
    assert lines["identity: hook factorial"].startswith("identity: hook factorial (digits <= 5): ")
    assert "skipped" not in lines["s-paths"]
    assert all(" ms, " in line.split("): ", 1)[1] for line in lines.values())
    # at S = 5 nearly every walk is too long
    traj = _verify_lines(capsys, 4, 5)["trajectory-paths"]
    assert traj.startswith("trajectory-paths (rank <= 4, S <= 5, length <= 8): ")
    assert traj.endswith(f" checks, {_too_long(4, 5)} skipped, ok")


def test_verify_trivial_rank_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "0", "--max-S", "0")
    assert code == 0


def test_verify_detects_injected_fault(capsys):
    # flipping the sign of the walk behind f_rec and the counts' weight row
    # must be caught, the offending instance named, and the down-path sweep
    # must catch it in the counts' own path
    original = functions._walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functions, "_walk", lambda digits, a: -original(digits, a))
        functions.clear_caches()
        oracle.clear_caches()
        sections = run_verification(max_rank=3, max_s=1)
        failures = [failure for s in sections for failure in s["failures"]]
        assert failures
        assert any("(" in failure for failure in failures)
        [down] = [s for s in sections if s["name"] == "down-paths"]
        assert down["failures"]
        code, out, _ = run(capsys, "verify", "--max-rank", "3", "--max-S", "1")
        assert code == 2
        assert "FAIL" in out
    functions.clear_caches()
    oracle.clear_caches()


# (name, checks, skipped) of every verify section, as counted when each
# section ran its own loop, and each trajectory and S-path target its own walk
_VERIFY_SECTIONS = {
    (5, 3): [
        ("down-paths", 252, 0),
        ("down-from-top", 20, 0),
        ("trajectory-paths", 3606, 894),
        ("s-paths", 1008, 0),
        ("up-value sums", 224, 0),
        ("identity: base-shift identities", 1926, 0),
        ("identity: low-order values", 610, 0),
        ("identity: trailing 2 vs 11", 576, 0),
        ("identity: base row sum", 62, 0),
        ("identity: prefix extension", 4854, 0),
        ("identity: top value vanishes", 384, 0),
        ("identity: equal-rank symmetry", 4486, 0),
        ("identity: hook factorial", 63, 0),
        ("out-degree = in-degree + 1", 20, 0),
    ],
    (8, 3): [
        ("down-paths", 4807, 0),
        ("down-from-top", 88, 0),
        ("trajectory-paths", 3606, 894),
        ("s-paths", 1008, 0),
        ("up-value sums", 336, 0),
        ("identity: base-shift identities", 4614, 0),
        ("identity: low-order values", 1474, 0),
        ("identity: trailing 2 vs 11", 1344, 0),
        ("identity: base row sum", 126, 0),
        ("identity: prefix extension", 13814, 0),
        ("identity: top value vanishes", 896, 0),
        ("identity: equal-rank symmetry", 20538, 0),
        ("identity: hook factorial", 127, 0),
        ("out-degree = in-degree + 1", 88, 0),
    ],
    (6, 5): [
        ("down-paths", 681, 0),
        ("down-from-top", 33, 0),
        ("trajectory-paths", 6281, 50297),
        ("s-paths", 1512, 0),
        ("up-value sums", 504, 0),
        ("identity: base-shift identities", 4614, 0),
        ("identity: low-order values", 1474, 0),
        ("identity: trailing 2 vs 11", 1344, 0),
        ("identity: base row sum", 126, 0),
        ("identity: prefix extension", 13814, 0),
        ("identity: top value vanishes", 896, 0),
        ("identity: equal-rank symmetry", 20538, 0),
        ("identity: hook factorial", 127, 0),
        ("out-degree = in-degree + 1", 33, 0),
    ],
}


@pytest.mark.parametrize(
    "caps, total",
    [((5, 3), 18_091), ((8, 3), 52_866), ((6, 5), 51_977)],
    ids=["rank5-S3", "rank8-S3", "rank6-S5"],
)
def test_verify_section_counts(caps, total):
    functions.clear_caches()
    sections = run_verification(*caps)
    assert [(s["name"], s["checks"], s["skipped"]) for s in sections] == _VERIFY_SECTIONS[caps]
    assert sum(s["checks"] for s in sections) == total
    assert all(s["failures"] == [] for s in sections)
    # the identity suites read f as integer pairs, never through the f memo
    assert functions._f_rec.cache_info().currsize == 0


_WORDS_TO_3 = [w for n in range(4) for w in level(n)]


@pytest.mark.parametrize(
    "name, section, cases",
    [
        ("count_down_from_top", "down-from-top", [(w,) for w in _WORDS_TO_3]),
        ("count_down", "down-paths", [(x, y) for y in _WORDS_TO_3 for x in _WORDS_TO_3
                                      if x.rank <= y.rank]),
    ],
    ids=["count_down_from_top", "count_down"],
)
def test_verify_catches_off_by_one_counts(monkeypatch, name, section, cases):
    # each count, one too large, fails its own section at every case, and
    # each failure label starts with its case
    original = getattr(cli.counts, name)
    monkeypatch.setattr(cli.counts, name, lambda *a: original(*a) + 1)
    sections = run_verification(max_rank=3, max_s=1)
    failed = {s["name"]: s["failures"] for s in sections if s["failures"]}
    assert list(failed) == [section]
    labels = [f"({', '.join(map(str, case))}): " for case in cases]
    assert len(failed[section]) == len(labels)
    assert all(f.startswith(label) for f, label in zip(failed[section], labels))


def test_trajectory_section_builds_one_row_per_word_pair(monkeypatch):
    # every trajectory of a word pair is counted from one weight row: the
    # 1,282 checks at (4, 2) fall on the 92 pairs of rank <= 4
    rows, inside = [], []
    row, batch = cli.counts.weight_row, cli.counts._trajectory_counts

    def spy_row(*args):
        rows.append(bool(inside))
        return row(*args)

    def spy_batch(*args):
        inside.append(True)
        try:
            return batch(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(cli.counts, "weight_row", spy_row)
    monkeypatch.setattr(cli.counts, "_trajectory_counts", spy_batch)
    sections = {s["name"]: s for s in run_verification(max_rank=4, max_s=2)}
    assert sections["trajectory-paths"]["checks"] == 1282
    assert sum(rows) == 92


def test_verify_names_the_one_wrong_trajectory(monkeypatch):
    # a count wrong for one trajectory fails that trajectory alone, by its
    # (x, y, t); an inconsistency fails every trajectory counted with it
    x, y = parse_word("1"), parse_word("21")
    t = Trajectory((3, 2, 1, 2, 1))
    checks = {s["name"]: s["checks"] for s in run_verification(max_rank=3, max_s=1)}
    original = cli.counts._as_count

    def wrong(total, what, *args, scale=1):
        value = original(total, what, *args, scale=scale)
        return value + (args == (x, y, t))

    monkeypatch.setattr(cli.counts, "_as_count", wrong)
    sections = run_verification(max_rank=3, max_s=1)
    assert {s["name"]: s["checks"] for s in sections} == checks
    failed = {s["name"]: s["failures"] for s in sections if s["failures"]}
    assert failed == {"trajectory-paths": ["(1, 21, 3,2,1,2,1): 5 != 4"]}

    def inconsistent(total, what, *args, scale=1):
        if args == (x, y, t):
            raise InconsistencyError("injected")
        return original(total, what, *args, scale=scale)

    monkeypatch.setattr(cli.counts, "_as_count", inconsistent)
    sections = run_verification(max_rank=3, max_s=1)
    assert {s["name"]: s["checks"] for s in sections} == checks
    [traj] = [s for s in sections if s["failures"]]
    ts = [u for S in range(2) for u in enumerate_trajectories(1, 3, S)]
    assert traj["failures"] == [f"(1, 21, {u}): injected" for u in sorted(ts, key=lambda u: u.values)]


def test_verify_cap_blocks_expensive_oracle(capsys):
    # rank 32 only, but the descent from 2^16 is ~20,000 words wide
    code, out, err = run(capsys, "down", "e", "2" * 16, "--verify")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [_work_bound_line()]


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (EnumerationCapExceeded("too many walks"), 1, "yf: error: too many walks"),
        (MemoryError(), 1, "yf: error: out of memory"),
        (KeyboardInterrupt(), 130, "yf: interrupted"),
    ],
)
def test_exceptions_map_to_exit_codes(capsys, monkeypatch, exc, code, line):
    def raising_run(a):
        raise exc

    down = cli.COMMANDS["down"]
    raising = cli.Command(down.help, raising_run, down.positionals, down.verify, down.text)
    monkeypatch.setitem(cli.COMMANDS, "down", raising)
    got, out, err = run(capsys, "down", "e", "1")
    assert got == code
    assert out == ""
    assert err.splitlines() == [line]


# For each positional of each command, an admitted value and one that no cap
# admits: an integer, a word or a trajectory.
_INT = str(10**30)
_WORD = "2" * 100_000
_TRAJECTORY = _up_steps(100_000)
_POSITIONALS = {
    "down": (("e", _WORD), ("1", _WORD)),
    "traj": (("e", _WORD), ("1", _WORD), ("1,0", _TRAJECTORY)),
    "spaths": (("e", _WORD), ("1", _WORD), ("1", _INT)),
    "f": (("1", _WORD), ("1", _INT), ("1", _INT)),
    "xi": (("1", _INT), ("1", _INT), ("1", _INT), ("0", _INT)),
    "level": (("1", _INT),),
    "dot": (("1", _INT),),
}
# Where each command's work starts, past the checks of the CLI and the
# library, and what a fake returns there.
_WORK = {
    "yfpaths.counts.count_down": 0,
    "yfpaths.counts.count_trajectory": 0,
    "yfpaths.counts.count_s_paths": 0,
    "yfpaths.counts._xi_head": 0,
    "yfpaths.functions._f_rec": 0,
    "yfpaths.cli.level": [],
}


def test_every_positional_is_bounded(capsys, monkeypatch):
    asked = []

    def fake(result):
        def record(*a):
            asked.append(a)
            return result

        return record

    for target, result in _WORK.items():
        monkeypatch.setattr(target, fake(result))
    assert set(_POSITIONALS) == set(cli.COMMANDS)
    for command, entry in cli.COMMANDS.items():
        assert len(_POSITIONALS[command]) == len(entry.positionals)
        admitted = [value for value, _ in _POSITIONALS[command]]
        # the admitted values reach the work, so the fakes stand where it runs
        asked.clear()
        assert run(capsys, command, *admitted)[0] == 0, command
        assert asked, command
        for k, (_, oversize) in enumerate(_POSITIONALS[command]):
            argv = (command, *admitted[:k], oversize, *admitted[k + 1:])
            asked.clear()
            code, out, err = run(capsys, *argv)
            label = f"{command} positional {k}"
            assert (code, out, len(err.splitlines())) == (1, "", 1), label
            assert err.startswith("yf: error: "), label
            assert asked == [], label


def test_verify_rejects_negative_bounds(capsys):
    code, _, err = run(capsys, "verify", "--max-rank", "-1")
    assert code == 1
    assert "nonnegative" in err


def test_spaths_verify_agrees(capsys):
    code, out, _ = run(capsys, "spaths", "e", "22", "1", "--verify")
    assert code == 0
    assert out.splitlines() == ["45", "oracle: 45 (agree)"]


# The CLI contract as one property over argv drawn from the COMMANDS table: a
# new command, positional or cap is drawn without a new test.  Every cap of
# the module is drawn, at itself and one past it.
_CAPS = sorted({v for k, v in vars(cli).items() if k.endswith("_CAP") and type(v) is int})
_SIZES = st.one_of(
    st.integers(0, 12), st.sampled_from(_CAPS), st.sampled_from(_CAPS).map(lambda c: c + 1)
)
# Characters that no word takes: digits and signs an integer may take, one
# that Python's int() reads as a digit (a non-ASCII digit) and one that
# str.isdigit() passes but int() does not (a superscript)
_STRAY = "03a,.- \té٣²"
# A number of 10^k digits; past 10^5 it would not fit one argument of a
# command line, which Linux caps at 131,072 bytes
_LONG_NUMBERS = st.integers(0, 5).map(lambda k: "9" * 10**k)
# Each call returns within this bound: the slowest calls measured, a formula
# at its cap and then an oracle walk stopped by its work bound or by the
# memory cap below (``traj`` with 1000 climbing up-steps at the word caps),
# take up to ~3.7 s on a 2-vCPU host
_CALL_SECONDS = 10.0
# The oracle's work bound does not bound the memory of a walk whose fronts
# widen as they are stepped (``down e 2^1500 --verify`` passes 1.5 GB), so
# each call may map at most this much more; past it the CLI reports "out of
# memory", one of the contract's exit-1 errors
_HEADROOM = 512 << 20


@contextlib.contextmanager
def _memory_bounded():
    """This process's address space capped at its present size plus
    ``_HEADROOM``, where Linux reports that size, and restored after."""
    try:
        import resource

        pages = int(Path("/proc/self/statm").read_text().split()[0])
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = pages * resource.getpagesize() + _HEADROOM
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@st.composite
def _decorated(draw, text):
    """``text`` as typed: as is, in spaces, with a stray character, or
    replaced by the empty word or string."""
    how = draw(st.sampled_from(("plain",) * 6 + ("spaces", "stray", "empty")))
    if how == "spaces":
        return draw(st.sampled_from((" ", "  "))) + text + draw(st.sampled_from(("", " ")))
    if how == "stray":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(_STRAY)) + text[at:]
    if how == "empty":
        return draw(st.sampled_from(("", "e", " e ")))
    return text


def _word_of_rank(pattern, rank):
    # the digits of ``pattern``, cycled until their sum is ``rank``; a 2 that
    # would pass it is a 1
    digits, total = [], 0
    while total < rank:
        d = min(int(pattern[len(digits) % len(pattern)]), rank - total)
        digits.append(str(d))
        total += d
    return "".join(digits) or "e"


@st.composite
def _word(draw):
    rank = draw(_SIZES)
    word = _word_of_rank(draw(st.text("12", min_size=1, max_size=4)), rank)
    return rank, draw(_decorated(word))


# sizes three times as often as each other kind
_SIZED = _SIZES.map(str)
_INTEGER = st.one_of(
    _SIZED,
    _SIZED,
    _SIZED,
    _LONG_NUMBERS,
    st.integers(-(10**4), -1).map(str),
    _LONG_NUMBERS.map(lambda n: "-" + n),
).flatmap(_decorated)


@st.composite
def _trajectory(draw, ranks):
    """A walk from the first drawn rank down to the second, climbing by a
    drawn number of up-steps first, or values drawn as integers."""
    if len(ranks) == 2 and draw(st.booleans()):
        top, bottom = ranks
        ups = draw(_SIZES)
        values = [*range(top, top + ups + 1), *range(top + ups - 1, bottom - 1, -1)]
        return draw(_decorated(",".join(map(str, values))))
    return ",".join(draw(st.lists(_INTEGER, max_size=5)))


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    values, ranks = [], []
    for _, help in command.positionals:
        kind = "word" if "word" in help else "trajectory" if "trajectory" in help else "integer"
        if draw(st.integers(0, 9)) == 0:  # now and then, a value of another kind
            kind = draw(st.sampled_from(("word", "trajectory", "integer")))
        if kind == "word":
            rank, value = draw(_word())
            ranks.append(rank)
        elif kind == "trajectory":
            value = draw(_trajectory(ranks[::-1]))
        else:
            value = draw(_INTEGER)
        values.append(value)
    flags = [flag for flag in ("--verify", "--json") if flag != "--verify" or command.verify]
    # the flags first; "--" before the values only when one starts with "-",
    # so that argparse reads it as a value, not as an option, while every
    # other query reaches the reader
    dashes = ["--"] if any(value.startswith("-") for value in values) else []
    return [name, *draw(st.lists(st.sampled_from(flags), unique=True)), *dashes, *values]


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_every_query_answers_or_fails_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with _memory_bounded(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    head = argv[: argv.index("--")] if "--" in argv else argv  # "--" ends the flags
    flags = [token for token in head if token.startswith("-")]
    assert seconds < _CALL_SECONDS
    assert code in ((0, 1, 2) if "--verify" in flags else (0, 1))
    assert "Traceback" not in out + err
    if code == 1:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("yf: error: ")
        assert len(lines[0]) <= cli.ERROR_LINE_CAP
    elif code == 0:
        assert err == ""
        if "--json" in flags:
            assert len(out.splitlines()) == 1
            assert json.loads(out)["command"] == argv[0]
        else:
            assert out.strip()
