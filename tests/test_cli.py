import contextlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import blockdet
from blockdet.cli import _shared_parser, int_flag, main
from blockdet.conditions import (
    _FAMILIES,
    _NAMED_SIZE2,
    _PARAMETER_FAMILIES,
    complete_condition,
    family_condition,
    format_condition,
)
from blockdet.matrix import format_block_matrix, block_view
from blockdet.ring import ZZ
from blockdet.verify import BUILTIN_NAMES, pick_generator
from cli_pins import run_in_process
from oracles import main_by_full_parser, scalar


@contextlib.contextmanager
def int_digit_limit(digits):
    """Set the interpreter's limit on the digits of an int converted to or
    from text, where it has one, for the body of the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_an_exact_answer_past_the_digit_limit_is_printed(tmp_path):
    nines = 10**3000 - 1
    with int_digit_limit(0):
        det = str(nines * nines - 1)
    assert len(det) > 4300
    path = tmp_path / "m.txt"
    with int_digit_limit(4300):
        path.write_text(f"2 2 int\n{nines} 1\n1 {nines}\n")
        assert run_in_process(["det", str(path)]) == (0, f"det={det}\n", "")
        path.write_text(f"1 2 int\n{nines} 1\n1 {nines}\n")
        assert run_in_process(["check", str(path)]) == (0, f"lhs={det} rhs={det} EQUAL\n", "")
        assert run_in_process(["ncdet", str(path)]) == (0, f"1 1 int\n{det}\n", "")
        # main restores the caller's limit.
        if hasattr(sys, "get_int_max_str_digits"):
            assert sys.get_int_max_str_digits() == 4300


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(blockdet.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import blockdet.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# An integer is an optional sign and ASCII digits; cli_pins.py pins the
# inputs outside that rule.
CAMPAIGN = ("campaign", "--family", "f", "--n", "2", "--m", "4", "--trials", "2")
ROWSWAP = ("symbolic", "--check", "rowswap", "--n", "3", "--i", "2", "--j", "3", "--missing")


# Two of those inputs, run also through the full parser, which must agree.
BAD_INTEGERS = {
    "file-entry-underscore": ("1 1 int\n1_0\n", ("det",)),
    "seed": (None, CAMPAIGN + ("--seed", "1_0")),
}


@pytest.mark.parametrize("text, argv", BAD_INTEGERS.values(), ids=BAD_INTEGERS)
def test_an_integer_outside_sign_and_ascii_digits_is_an_input_error(tmp_path, text, argv):
    if text is not None:
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="utf-8")
        argv += (str(path),)
    code, out, err = run_in_process(argv)
    assert (code, out) == (2, "")
    assert err and "Traceback" not in err
    assert run_in_process(argv, entry=main_by_full_parser) == (code, out, err)


def test_signed_and_zero_padded_integers_read_as_before(tmp_path):
    path = tmp_path / "m.txt"
    for text, det in (("1 1 int\n-3\n", "-3"), ("1 1 int\n+3\n", "3"), ("001 +1 mod:0007\n+10\n", "3")):
        path.write_text(text)
        assert run_in_process(["det", str(path)]) == (0, f"det={det}\n", "")
    for seed in ("007", "+7"):
        assert run_in_process([*CAMPAIGN, "--seed", seed]) == run_in_process([*CAMPAIGN, "--seed", "7"])
    code, out, _ = run_in_process([*CAMPAIGN, "--seed", "-3"])
    assert code == 0 and " seed=-3 " in out
    side = ["family", "--name", "side:+2", "--n", "003"]
    assert run_in_process(side) == run_in_process(["family", "--name", "side:2", "--n", "3"])
    assert run_in_process([*ROWSWAP, "+2,01,3,002"]) == run_in_process([*ROWSWAP, "2,1,3,2"])


def test_a_malformed_integer_flag_reads_as_an_invalid_int():
    # argparse names a flag's reader in its message; every integer flag of
    # the CLI and of scripts/run_verification.py reads by int_flag, which
    # keeps the wording the flags had when they read by int (the CLI's
    # wording is pinned in cli_pins.py).  The script's campaigns need a
    # trial, so fewer than one is a usage error too.
    assert {action.type for parser in _shared_parser()[1].values() for action in parser._actions} == {None, int_flag}
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "run_verification.py")
    src = os.path.dirname(os.path.dirname(os.path.abspath(blockdet.__file__)))
    for trials, message in (("x", "argument --trials: invalid int value: 'x'"),
                            ("0", "--trials must be at least 1, got 0"), ("-3", "--trials must be at least 1, got -3")):
        proc = subprocess.run([sys.executable, script, "--trials", trials],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, ""), trials
        assert proc.stderr.endswith(f"run_verification.py: error: {message}\n"), trials


def test_family_prints_exactly_the_condition_text():
    # Every id that family_condition accepts: the plain families, each
    # parameter family at every k, and the size-2 names at n = 2.
    for n in (2, 3, 4):
        ids = [*_FAMILIES, *(f"{head}:{k}" for head in _PARAMETER_FAMILIES for k in range(1, n + 1))]
        ids += list(_NAMED_SIZE2) if n == 2 else []
        for fid in ids:
            assert run_in_process(["family", "--name", fid, "--n", str(n)]) == (
                0, format_condition(family_condition(fid, n)), ""), (fid, n)


def test_campaign_byte_identical():
    args = ["campaign", "--family", "side:2", "--n", "2", "--m", "4",
            "--ring", "mod:10007", "--trials", "10", "--seed", "5"]
    assert run_in_process(args)[1] == run_in_process(args)[1]


def test_classify2():
    code, out, err = run_in_process(["classify2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 64
    assert "edges={CD} SCC witness=G1" in lines
    assert "edges={AC,BD} NOT-SCC falsifier=M2 lhs=128 rhs=0" in lines
    assert run_in_process(["classify2"], entry=main_by_full_parser) == (code, out, err)


# Each symbolic check below, through main and through the full parser.
@pytest.mark.parametrize("argv", [("symbolic", "--check", "colswap", "--n", "4", "--k", "2")])
def test_symbolic_passes(argv):
    code, out, err = run_in_process(argv)
    assert code == 0
    assert "PASS" in out
    assert run_in_process(argv, entry=main_by_full_parser) == (code, out, err)


def test_symbolic_honest_failure():
    argv = ["symbolic", "--check", "rowswap", "--n", "3", "--i", "2", "--j", "3", "--missing", "2,1,3,2"]
    code, out, err = run_in_process(argv)
    assert code == 1
    assert "FAIL" in out
    assert run_in_process(argv, entry=main_by_full_parser) == (code, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("symbolic", "--check", "rowswap", "--n", "3", "--i", "2", "--j", "3", "--missing", ""),
                     id="argv9"),
        pytest.param(("optimality", "--n", "9"), id="argv13"),
        # a flag of another symbolic check
        pytest.param(("symbolic", "--check", "colswap", "--n", "3", "--k", "1", "--missing", "2,1,3,2", "--i", "9"),
                     id="argv14"),
    ],
)
def test_bad_size_or_trials_is_usage_error(argv):
    code, out, err = run_in_process(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert run_in_process(argv, entry=main_by_full_parser) == (code, out, err)


@pytest.mark.parametrize("command", ["check", "ncdet"])
@pytest.mark.parametrize("flags", [("--builtin", "m1"), ("--n", "3"), ("--builtin", "same_row", "--n", "3")])
def test_a_file_takes_neither_builtin_nor_n(tmp_path, command, flags):
    path = tmp_path / "ident.txt"
    path.write_text(format_block_matrix(block_view(scalar(ZZ, 4), 2)))
    for argv in ((command, str(path), *flags), (command, *flags, str(path)), (command, "-", *flags)):
        assert run_in_process(argv) == (2, "", "error: a block matrix file takes neither --builtin nor --n\n")
    assert run_in_process([command, str(path)])[0] == 0


def test_generator_failure_is_usage_error(monkeypatch):
    import blockdet.verify

    def fully_commuting(g, m):
        # Every block is a polynomial in one matrix, so the witness pair
        # always commutes and every redraw is vacuous.
        return "x", pick_generator(complete_condition(g.n), m)[1], [((1, 1), (2, 1))]

    monkeypatch.setattr(blockdet.verify, "pick_generator", fully_commuting)
    assert run_in_process(["campaign", "--family", "f", "--n", "2", "--m", "4"]) == (
        2, "", "error: generator 'x' failed to produce a non-vacuous sample\n")


def _failing_command(monkeypatch, exc):
    # classify2 raises exc; the parsers are rebuilt so that they bind the
    # replaced command.
    import blockdet.cli

    def failing(args):
        raise exc

    monkeypatch.setattr(blockdet.cli, "_cmd_classify2", failing)
    monkeypatch.setattr(blockdet.cli, "_shared_parser", blockdet.cli._parser_and_commands)


@pytest.mark.parametrize("exc", [ZeroDivisionError("modular inverse of 0"), KeyError((2, 1))])
def test_unexpected_exception_is_an_internal_error(monkeypatch, exc):
    _failing_command(monkeypatch, exc)
    assert run_in_process(["classify2"]) == (2, "", f"internal error: {type(exc).__name__}: {exc}\n")


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    _failing_command(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        main(["classify2"])


def test_the_parsers_are_built_once_per_process(monkeypatch):
    # build_parser() and then main() share one build of the nine command
    # parsers, and _failing_command's rebinding still reaches main.
    import blockdet.cli

    builds = []
    real = blockdet.cli._parser_and_commands
    monkeypatch.setattr(blockdet.cli, "_parser_and_commands", lambda: builds.append(1) or real())
    blockdet.cli._shared_parser.cache_clear()
    try:
        parser = blockdet.cli.build_parser()
        for k in ("1", "2"):
            assert run_in_process(["symbolic", "--check", "colswap", "--n", "3", "--k", k])[0] == 0
        assert len(builds) == 1
        assert blockdet.cli._shared_parser()[0] is parser
    finally:
        blockdet.cli._shared_parser.cache_clear()
    _failing_command(monkeypatch, KeyError(1))
    assert blockdet.cli._shared_parser()[1]["classify2"].get_default("fn") is blockdet.cli._cmd_classify2
    assert run_in_process(["classify2"]) == (2, "", "internal error: KeyError: 1\n")


# Argv vocabulary for the fuzz property: each command's own flags, each
# value good or bad (small negative and junk integers, bad --missing
# strings, bad ring descriptors), plus missing files and foreign flags.
# Sizes stay at n <= 3, m <= 4 and trials <= 2, so every call is quick.
_BAD_INTS = ("-1", "0", "x", "", "1.5")
_VALUES = {  # flag: (good values, bad values)
    "--n": (("1", "2", "2", "3", "3"), _BAD_INTS),
    "--m": (("2", "3", "4"), ("-1", "1", "x")),
    "--k": (("1", "2"), _BAD_INTS + ("3",)),
    "--c": (("1", "2", "3"), _BAD_INTS),
    "--i": (("2",), _BAD_INTS + ("3",)),
    "--j": (("3",), _BAD_INTS + ("2",)),
    "--seed": (("0", "7", "-5", "123456789012345678901"), ("x", "")),
    "--ring": (("int", "mod:2", "mod:10007", "poly:x"),
               ("mod:8", "mod:", "mod:x", "poly:", "poly:1x", "float", "")),
    "--family": (("f", "kappa", "complete", "empty", "side:1", "down:2", "tcol:1", "trow:2", "g5",
                  "h1", "h4"), ("side:x", "tcol:9", "zzz", "")),
    "--check": (("colswap", "transpose", "rowswap", "rowswap"), ("bogus",)),
    "--missing": (("2,1,3,2", "3,2,2,1", "2,1,2,2", "3,1,2,3"),
                  ("1,1,2,2", "3,1,3,1", "9,9,9,9", "2,1,3", "a,b,c,d", "", "2,1,3,2,1")),
    "--builtin": (BUILTIN_NAMES, ("bogus",)),
    "--name": (BUILTIN_NAMES + ("f", "kappa", "side:2", "g1"), ("zzz",)),
    "--bogus": ((), ("1",)),
}
_COMMANDS = {
    "det": (),
    "ncdet": ("--builtin", "--n"),
    "check": ("--builtin", "--n"),
    "family": ("--name", "--n"),
    "campaign": ("--family", "--n", "--m", "--ring", "--seed"),
    "classify2": (),
    "counterexample": ("--name", "--n"),
    "symbolic": ("--check", "--n"),
    "optimality": ("--n", "--seed"),
    "frobnicate": (),
}
_FILES = ("no-such-dir/no-such-file.txt", ".")
# symbolic's per-check flags, by the check they belong to
_CHECK_FLAGS = {"colswap": ("--k",), "transpose": ("--c",), "rowswap": ("--i", "--j", "--missing")}


@st.composite
def cli_argv(draw):
    # A seeded Random gives every choice a fixed rate; Hypothesis's own
    # draws would favour the first option of each.
    rng = random.Random(draw(st.integers(0, 2**32)))
    command = rng.choice(sorted(_COMMANDS))
    argv = [command]
    if rng.random() < 0.1:
        argv.append(rng.choice(_FILES))
    flags = [f for f in _COMMANDS[command] if rng.random() < 0.9]
    # symbolic takes mostly the flags of the check that --check names, and
    # now and then another check's, which is a usage error
    check = rng.choice(_VALUES["--check"][0])
    if command == "symbolic":
        flags += [f for c, own in _CHECK_FLAGS.items() for f in own if rng.random() < (0.9 if c == check else 0.05)]
    if rng.random() < 0.05:
        flags.append(rng.choice(sorted(_VALUES)))
    rng.shuffle(flags)
    for flag in flags:
        argv.append(flag)
        good, bad = _VALUES[flag]
        if flag == "--check":
            good = (check,)
        if rng.random() < 0.97:
            argv.append(rng.choice(good if good and rng.random() < 0.85 else bad))
    if command in ("campaign", "optimality"):
        # the last --trials wins, and the defaults are 200 and 60
        argv += ["--trials", rng.choice(("-2", "0", "1", "2", "2"))]
    return argv


def _keeps_the_contract_and_matches_the_full_parser(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert run_in_process(argv)[:2] == (code, out)
    assert run_in_process(argv, entry=main_by_full_parser) == (code, out, err)
    return code


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    _keeps_the_contract_and_matches_the_full_parser(argv)


_CAMPAIGN = ["campaign", "--family", "f", "--n", "2", "--m", "2", "--trials", "1"]


# Argv on each side of the dispatch to a command's own parser, with the exit
# code each must give: help, no or an unknown command, options before the
# command, leftover arguments, abbreviated and --flag=value options,
# negative values and "--".
_EDGE_ARGV = [
    ([], 2),
    (["-h"], 0),
    (["det", "-h"], 0),
    (["symbolic", "--help"], 0),
    (["frobnicate"], 2),
    (["--n", "3", "det", "x"], 2),
    (_CAMPAIGN + ["extra"], 2),
    (_CAMPAIGN[:-2] + ["--tri", "1"], 0),
    (["family", "--name", "f", "--n=2"], 0),
    (_CAMPAIGN + ["--seed", "-5"], 0),
    (["det", "--", "no-such-dir/no-such-file.txt"], 2),
    (["symbolic", "--check", "colswap", "--n", "3", "--k", "1", "--", "extra"], 2),
    (["classify2", "--"], 2),
]


@pytest.mark.parametrize("argv, code", _EDGE_ARGV, ids=[" ".join(argv) or "no-arguments" for argv, _ in _EDGE_ARGV])
def test_edge_argv_keep_the_contract_and_match_the_full_parser(argv, code):
    assert _keeps_the_contract_and_matches_the_full_parser(argv) == code


# File-content vocabulary for the fuzz property below: headers of 0-4
# tokens whose sizes may be negative, huge or not integers, good and bad
# ring descriptors, ragged entry rows, junk entries (some shaped like a
# RingValue repr) and blank lines.  Well-formed files stay at most 6 x 6,
# so every call is quick.
_BAD_SIZES = ("0", "-1", "-7", "99999999999999999999", "1.5", "x", "")
_GOOD_RINGS = ("int", "mod:2", "mod:7", "mod:10007", "poly:x")
_BAD_RINGS = ("mod:8", "mod:1", "mod:0", "mod:-5", "mod:", "mod:x", "poly:", "float", "<int: 3>")
_JUNK = ("<int: 3>", "<mod:7: 2>", "x", "1.5", "3/4", "1,2", "1,,2", ",", "--1", "0x1f", "½", "9" * 30)


@st.composite
def cli_file_case(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    command = rng.choice(("det", "check", "ncdet"))
    if command == "det":
        rows = rng.randint(1, 3)
        cols = rows if rng.random() < 0.7 else rng.randint(1, 3)
        header = [str(rows), str(cols)]
    else:
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        rows = cols = m * n
        header = [str(m), str(n)]
    header.append(rng.choice(_GOOD_RINGS))
    header = [
        tok if rng.random() < 0.9 else rng.choice(_BAD_RINGS if i == 2 else _BAD_SIZES)
        for i, tok in enumerate(header)
    ]
    if rng.random() < 0.1:
        header = header[: rng.randint(0, 2)] if rng.random() < 0.6 else header + ["3"]
    lines = [" ".join(header)]
    if rng.random() < 0.1:
        rows += rng.choice((-1, 1))
    # most files are clean, so well-formed inputs get through too
    junk_rate = 0.0 if rng.random() < 0.6 else 0.1
    poly = any(tok.startswith("poly:") for tok in header)
    for _ in range(rows):
        width = cols + (rng.choice((-1, 1)) if rng.random() < 0.05 else 0)
        tokens = []
        for _ in range(width):
            if rng.random() < junk_rate:
                tokens.append(rng.choice(_JUNK))
            elif poly and rng.random() < 0.5:
                tokens.append(",".join(str(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))))
            else:
                tokens.append(str(rng.randint(-9, 9)))
        lines.append(" ".join(tokens))
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "   ", "\t")))
    return command, "\n".join(lines) + "\n"


# Each example overwrites the one input file, so sharing tmp_path is safe.
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_file_case())
def test_fuzzed_file_contents_keep_the_exit_code_contract(tmp_path, case):
    command, text = case
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)]
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert run_in_process(argv)[:2] == (code, out)
