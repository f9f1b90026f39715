import contextlib
import io
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
    cond_f,
    family_condition,
    format_condition,
)
from blockdet.matrix import format_block_matrix, block_view, parse_block_matrix
from blockdet.ring import ZZ
from blockdet.traces import IDENTITY_CHECK_CAP
from blockdet.verify import BUILTIN_NAMES, pick_generator
from oracles import main_by_full_parser, scalar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_builtin_m3(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "m3")
    assert code == 1
    assert "lhs=1152 rhs=1872 UNEQUAL" in out


def test_check_equal_matrix(tmp_path, capsys):
    path = tmp_path / "ident.txt"
    path.write_text(format_block_matrix(block_view(scalar(ZZ, 4), 2)))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out.endswith("EQUAL\n")


def test_check_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n3 4\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 1" in err


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


def test_an_exact_answer_past_the_digit_limit_is_printed(tmp_path, capsys):
    nines = 10**3000 - 1
    with int_digit_limit(0):
        det = str(nines * nines - 1)
    assert len(det) > 4300
    path = tmp_path / "m.txt"
    with int_digit_limit(4300):
        path.write_text(f"2 2 int\n{nines} 1\n1 {nines}\n")
        assert run(capsys, "det", str(path)) == (0, f"det={det}\n", "")
        path.write_text(f"1 2 int\n{nines} 1\n1 {nines}\n")
        assert run(capsys, "check", str(path)) == (0, f"lhs={det} rhs={det} EQUAL\n", "")
        assert run(capsys, "ncdet", str(path)) == (0, f"1 1 int\n{det}\n", "")
        # main restores the caller's limit.
        if hasattr(sys, "get_int_max_str_digits"):
            assert sys.get_int_max_str_digits() == 4300


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(blockdet.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import blockdet.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# Integers are an optional sign and ASCII digits.  int() alone would read
# these as 10, 3, mod:10007, seed 10, side:2, column 20 (out of range, so
# an error either way) and column 2.
CAMPAIGN = ("campaign", "--family", "f", "--n", "2", "--m", "4", "--trials", "2")
ROWSWAP = ("symbolic", "--check", "rowswap", "--n", "3", "--i", "2", "--j", "3", "--missing")
BAD_INTEGERS = {
    "file-entry-underscore": ("1 1 int\n1_0\n", ("det",)),
    "file-entry-arabic-indic": ("1 1 int\n\u0663\n", ("det",)),
    "header-modulus": ("1 1 mod:1_0007\n1\n", ("ncdet",)),
    "seed": (None, CAMPAIGN + ("--seed", "1_0")),
    "family-parameter": (None, ("family", "--name", "side:\u0662", "--n", "3")),
    "missing": (None, ROWSWAP + ("2,1,3,2_0",)),
    "missing-in-range": (None, ROWSWAP + ("2,1,3,0_2",)),
}


@pytest.mark.parametrize("text, argv", BAD_INTEGERS.values(), ids=BAD_INTEGERS)
def test_an_integer_outside_sign_and_ascii_digits_is_an_input_error(tmp_path, capsys, text, argv):
    if text is not None:
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="utf-8")
        argv += (str(path),)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err and "Traceback" not in err


def test_signed_and_zero_padded_integers_read_as_before(tmp_path, capsys):
    path = tmp_path / "m.txt"
    for text, det in (("1 1 int\n-3\n", "-3"), ("1 1 int\n+3\n", "3"), ("001 +1 mod:0007\n+10\n", "3")):
        path.write_text(text)
        assert run(capsys, "det", str(path)) == (0, f"det={det}\n", "")
    for seed in ("007", "+7"):
        assert run(capsys, *CAMPAIGN, "--seed", seed) == run(capsys, *CAMPAIGN, "--seed", "7")
    code, out, _ = run(capsys, *CAMPAIGN, "--seed", "-3")
    assert code == 0 and " seed=-3 " in out
    assert run(capsys, "family", "--name", "side:+2", "--n", "003") == run(capsys, "family", "--name", "side:2", "--n", "3")
    assert run(capsys, *ROWSWAP, "+2,01,3,002") == run(capsys, *ROWSWAP, "2,1,3,2")


def test_a_malformed_integer_flag_reads_as_an_invalid_int(capsys):
    # argparse names a flag's reader in its message; every integer flag of
    # the CLI and of scripts/run_verification.py reads by int_flag, which
    # keeps the wording the flags had when they read by int.
    code, out, err = run(capsys, "family", "--name", "f", "--n", "x")
    assert (code, out) == (2, "")
    assert err.endswith("blockdet family: error: argument --n: invalid int value: 'x'\n")
    assert {action.type for parser in _shared_parser()[1].values() for action in parser._actions} == {None, int_flag}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(blockdet.__file__)))
    proc = subprocess.run([sys.executable, os.path.join(root, "scripts", "run_verification.py"), "--trials", "x"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("run_verification.py: error: argument --trials: invalid int value: 'x'\n")


def test_det_rejects_uncertified_modulus(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2 mod:318665857834031151167461\n1 2\n3 4\n")
    code, out, err = run(capsys, "det", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_ncdet_builtin(capsys):
    code, out, _ = run(capsys, "ncdet", "--builtin", "m1")
    assert code == 0
    assert "2 2 int" in out
    assert "-60 -68" in out


def test_family_prints_exactly_the_condition_text(capsys):
    # Every id that family_condition accepts: the plain families, each
    # parameter family at every k, and the size-2 names at n = 2.
    for n in (2, 3, 4):
        ids = [*_FAMILIES, *(f"{head}:{k}" for head in _PARAMETER_FAMILIES for k in range(1, n + 1))]
        ids += list(_NAMED_SIZE2) if n == 2 else []
        for fid in ids:
            assert run(capsys, "family", "--name", fid, "--n", str(n)) == (
                0, format_condition(family_condition(fid, n)), ""), (fid, n)


def test_family_bad_args(capsys):
    code, _, err = run(capsys, "family", "--name", "side:9", "--n", "3")
    assert code == 2
    assert "error" in err


def test_campaign_passing_family(capsys):
    code, out, _ = run(
        capsys, "campaign", "--family", "f", "--n", "2", "--m", "4",
        "--ring", "mod:10007", "--trials", "20", "--seed", "42",
    )
    assert code == 0
    assert "condition=f trials=20 failures=0 seed=42" in out


def test_campaign_falsifying_family(capsys):
    code, out, _ = run(
        capsys, "campaign", "--family", "h4", "--n", "2", "--m", "3",
        "--ring", "mod:10007", "--trials", "20", "--seed", "42",
    )
    assert code == 1
    assert "failure trial=" in out


def test_campaign_byte_identical(capsys):
    args = ("campaign", "--family", "side:2", "--n", "2", "--m", "4",
            "--ring", "mod:10007", "--trials", "10", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_classify2(capsys):
    code, out, _ = run(capsys, "classify2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 64
    assert "edges={CD} SCC witness=G1" in lines
    assert "edges={AC,BD} NOT-SCC falsifier=M2 lhs=128 rhs=0" in lines


def test_counterexample_roundtrip(capsys):
    code, out, _ = run(capsys, "counterexample", "--name", "m3")
    assert code == 0
    body, last = out.rsplit("\n", 2)[0:2]
    assert "lhs=1152 rhs=1872 UNEQUAL" in last
    parse_block_matrix(body)


@pytest.mark.parametrize(
    "argv",
    [
        ("symbolic", "--check", "colswap", "--n", "4", "--k", "2"),
        ("symbolic", "--check", "transpose", "--n", "3", "--c", "2"),
        ("symbolic", "--check", "rowswap", "--n", "3", "--i", "2", "--j", "3",
         "--missing", "2,1,2,2"),
    ],
)
def test_symbolic_passes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "PASS" in out


def test_symbolic_honest_failure(capsys):
    code, out, _ = run(
        capsys, "symbolic", "--check", "rowswap", "--n", "3", "--i", "2", "--j", "3",
        "--missing", "2,1,3,2",
    )
    assert code == 1
    assert "FAIL" in out


def test_symbolic_cap_exceeded(capsys):
    n = str(IDENTITY_CHECK_CAP + 1)
    code, _, err = run(capsys, "symbolic", "--check", "colswap", "--n", n, "--k", "1")
    assert code == 2


def test_symbolic_missing_required_flag(capsys):
    code, _, err = run(capsys, "symbolic", "--check", "colswap", "--n", "3")
    assert code == 2
    assert "--k" in err


def test_optimality(capsys):
    code, out, _ = run(capsys, "optimality", "--n", "2", "--trials", "10")
    assert code == 0
    assert "optimality n=2 OK" in out
    assert "case=same_row" in out


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_optimality_up_to_the_cap(capsys, n):
    code, out, err = run(capsys, "optimality", "--n", str(n), "--trials", "1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == f"optimality n={n} OK"
    assert sum(line.startswith("edge=") and line.endswith(" OK") for line in lines) == len(cond_f(n).edges)


@pytest.mark.parametrize("command", ["check", "ncdet"])
@pytest.mark.parametrize("flags", [("--builtin", "m1"), ("--n", "3"), ("--builtin", "same_row", "--n", "3")])
def test_a_file_takes_neither_builtin_nor_n(tmp_path, capsys, command, flags):
    path = tmp_path / "ident.txt"
    path.write_text(format_block_matrix(block_view(scalar(ZZ, 4), 2)))
    for argv in ((command, str(path), *flags), (command, *flags, str(path)), (command, "-", *flags)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: a block matrix file takes neither --builtin nor --n\n"
    assert run(capsys, command, str(path))[0] == 0


def test_usage_error_exit_code(capsys):
    assert run(capsys, "not-a-command")[0] == 2
    assert run(capsys, "check")[0] == 2  # neither file nor builtin


@pytest.mark.parametrize(
    "argv",
    [
        ("campaign", "--family", "f", "--n", "0", "--m", "2"),
        ("campaign", "--family", "f", "--n", "2", "--m", "4", "--trials", "-3"),
        ("campaign", "--family", "f", "--n", "2", "--m", "1", "--trials", "0"),
        ("family", "--name", "f", "--n", "0"),
        ("ncdet", "--builtin", "m1", "--n", "5"),
        ("check", "--builtin", "h2", "--n", "3"),
        ("counterexample", "--name", "m3", "--n", "2"),
        ("family", "--name", "f", "--n", "9"),
        ("campaign", "--family", "f", "--n", "300", "--m", "2", "--trials", "0"),
        ("symbolic", "--check", "rowswap", "--n", "3", "--i", "2", "--j", "3", "--missing", ""),
        ("counterexample", "--name", "diff_row", "--n", "9"),
        ("campaign", "--family", "f", "--n", "2", "--m", "65", "--trials", "1"),
        ("optimality", "--n", "1"),
        ("optimality", "--n", "9"),
        # a flag of another symbolic check
        ("symbolic", "--check", "colswap", "--n", "3", "--k", "1", "--missing", "2,1,3,2", "--i", "9"),
        ("symbolic", "--check", "colswap", "--n", "3", "--k", "1", "--c", "1"),
        ("symbolic", "--check", "transpose", "--n", "3", "--c", "1", "--k", "1"),
        ("symbolic", "--check", "transpose", "--n", "3", "--c", "1", "--j", "3"),
        ("symbolic", "--check", "rowswap", "--n", "3", "--i", "2", "--j", "3", "--c", "2"),
        ("symbolic", "--check", "rowswap", "--n", "3", "--i", "2", "--j", "3", "--k", "1"),
    ],
)
def test_bad_size_or_trials_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_generator_failure_is_usage_error(capsys, monkeypatch):
    import blockdet.verify

    def fully_commuting(g, m):
        # Every block is a polynomial in one matrix, so the witness pair
        # always commutes and every redraw is vacuous.
        _, commutative = pick_generator(complete_condition(g.n), m)

        def fn(ring, rng):
            return commutative(ring, rng)[0], [((1, 1), (2, 1))]

        return "x", fn

    monkeypatch.setattr(blockdet.verify, "pick_generator", fully_commuting)
    code, out, err = run(capsys, "campaign", "--family", "f", "--n", "2", "--m", "4")
    assert code == 2
    assert out == ""
    assert err == "error: generator 'x' failed to produce a non-vacuous sample\n"


def _failing_command(monkeypatch, exc):
    # classify2 raises exc; the parsers are rebuilt so that they bind the
    # replaced command.
    import blockdet.cli

    def failing(args):
        raise exc

    monkeypatch.setattr(blockdet.cli, "_cmd_classify2", failing)
    monkeypatch.setattr(blockdet.cli, "_shared_parser", blockdet.cli._parser_and_commands)


@pytest.mark.parametrize("exc", [ZeroDivisionError("modular inverse of 0"), KeyError((2, 1))])
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, exc):
    _failing_command(monkeypatch, exc)
    code, out, err = run(capsys, "classify2")
    assert code == 2
    assert out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    _failing_command(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        main(["classify2"])


def test_the_parsers_are_built_once_per_process(capsys, monkeypatch):
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
            assert run(capsys, "symbolic", "--check", "colswap", "--n", "3", "--k", k)[0] == 0
        assert len(builds) == 1
        assert blockdet.cli._shared_parser()[0] is parser
    finally:
        blockdet.cli._shared_parser.cache_clear()
    _failing_command(monkeypatch, KeyError(1))
    assert blockdet.cli._shared_parser()[1]["classify2"].get_default("fn") is blockdet.cli._cmd_classify2
    assert run(capsys, "classify2") == (2, "", "internal error: KeyError: 1\n")


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


def _quiet_main(argv, entry=main):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(list(argv))
    return code, out.getvalue(), err.getvalue()


def _keeps_the_contract_and_matches_the_full_parser(argv):
    code, out, err = _quiet_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert _quiet_main(argv)[:2] == (code, out)
    assert _quiet_main(argv, main_by_full_parser) == (code, out, err)


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    _keeps_the_contract_and_matches_the_full_parser(argv)


_CAMPAIGN = ["campaign", "--family", "f", "--n", "2", "--m", "2", "--trials", "1"]


# Argv on each side of the dispatch to a command's own parser: help, no or
# an unknown command, options before the command, leftover arguments,
# abbreviated and --flag=value options, negative values and "--".
@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["det", "-h"],
        ["symbolic", "--help"],
        ["frobnicate"],
        ["--n", "3", "det", "x"],
        _CAMPAIGN + ["extra"],
        _CAMPAIGN[:-2] + ["--tri", "1"],
        ["family", "--name", "f", "--n=2"],
        _CAMPAIGN + ["--seed", "-5"],
        ["det", "--", "no-such-dir/no-such-file.txt"],
        ["symbolic", "--check", "colswap", "--n", "3", "--k", "1", "--", "extra"],
        ["classify2", "--"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_edge_argv_keep_the_contract_and_match_the_full_parser(argv):
    _keeps_the_contract_and_matches_the_full_parser(argv)


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
    code, out, err = _quiet_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert _quiet_main(argv)[:2] == (code, out)
