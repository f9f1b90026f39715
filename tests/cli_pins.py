"""The exact CLI pins: ``blockdet`` calls, each with its exit code and its
exact output, the paper's results as a user of the command line sees them.

Every pin is run two ways.  ``tests/test_cli_pins.py`` runs each one in
process through ``run_in_process``, the one helper the tests call
``blockdet.cli.main`` through.  Run as a script, this module runs each one
through the ``blockdet`` console script on ``PATH``, one process per pin,
so the entry point and a fresh interpreter's digit limit are covered too;
it prints one line per pin and exits 1 if any fails:

    python tests/cli_pins.py

A pin's ``cmd`` is split as a shell splits it.  An ``input`` names a text of
``INPUTS``, fed on stdin where ``cmd`` reads ``-`` and written to a file
whose path replaces ``FILE`` otherwise.  Stdout is compared by ``rule``:
``exact``, ``prefix`` (the help text) or ``sha256`` (a whole stdout too
long to write out).  ``err`` is the last stderr line: an argparse message,
which begins with the program name, follows the usage text, and any other
message is the whole stderr.  An empty ``err`` means an empty stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple

# The argument that stands for a file holding the pin's input.
FILE = "FILE"


class Pin(NamedTuple):
    cmd: str
    code: int
    out: str = ""
    err: str = ""
    input: str | None = None
    rule: str = "exact"

    @property
    def name(self) -> str:
        return self.cmd if self.input is None else f"{self.cmd} < {self.input}"


def _text(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


def _decimal(x: int) -> str:
    """x in decimal, past the interpreter's limit on the digits of an int
    converted to text (4300 by default), where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


T = str(2**70)
Q = str(2**61 - 2)
NINES = 10**3000 - 1
INPUTS = {
    "2x2": _text("2 2 int", "1 2", "3 4"),
    "identity": _text("2 2 int", "1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1"),
    "no-ring": _text("2 2", "1 2", "3 4"),
    "big-modulus": _text("2 2 mod:318665857834031151167461", "1 2", "3 4"),
    # a bad entry, a file that ends early and one with a row too many
    "bad-entry": _text("2 2 int", "", "1 2", "3 x"),
    "short": _text("2 2 int", "", "1 2"),
    "long": _text("1 1 int", "1", "2"),
    # an integer is an optional sign and ASCII digits: int() alone reads 1_0 as 10 and
    # the Arabic-Indic digit three as 3
    "underscore": _text("1 1 int", "1_0"),
    "arabic-indic": _text("1 1 int", "\u0663"),
    "modulus-underscore": _text("1 1 mod:1_0007", "1"),
    # mod:7 entries of 2^62, negative or at least 7: the one checked constructor brings
    # each to [0, 7) before the row determinant sizes its slots from p - 1
    "mod7": _text("2 2 mod:7", "4611686018427387904 0 5 3", "0 1 6 6", "5 3 5 3", "-1 6 13 -8"),
    # slots sized from the entries: int entries of 2^70, mod:2^61 - 1 entries of p - 1, poly:x
    "int70": _text("2 3 int", f"{T} -{T} 0 1 {T} {T}", f"-{T} 5 {T} -3 2 -{T}", f"7 {T} -{T} {T} 0 -1",
                   f"{T} {T} -{T} 4 -{T} 9", f"-2 0 {T} -{T} {T} {T}", f"{T} -{T} 3 {T} -{T} 1"),
    "mod61": _text("2 3 mod:2305843009213693951", f"{Q} 1 0 {Q} 1 {Q}", f"{Q} {Q} 1 0 {Q} 2",
                   f"1 {Q} {Q} {Q} 0 1", f"0 {Q} 1 1 {Q} {Q}", f"{Q} 0 {Q} 1 {Q} 3", f"2 {Q} 0 {Q} 1 {Q}"),
    "polyx": _text("2 3 poly:x", "1,2 0 -3,0,1 5 0,0,2 1", "0,1 -1,1 2 0 1,1,1 -4", "3 0,0,0,1 1,-1 2,2 0 -1",
                   "1 -2,3 0 1,0,1 4,0,-2 0,1", "-1,1 2 0 3,3 1 0,2", "1,0,0,-7 0 1 -1 2,1 5"),
    # m = 3 blocks, where the row determinant's flat gathers pick three columns of each block
    "int3": _text("3 3 int", "1099511627776 9 8 -5 2 6 9 -7 -9", "6 -1 8 -2 -3 6 8 8 6", "3 -5 -2 -5 7 3 -9 -7 -4",
                  "9 -8 0 -9 -1 6 3 4 3", "9 5 -5 2 -6 -8 -5 -34359738368 -3", "-1 4 0 4 7 3 9 2 8",
                  "9 4 9 -2 1 -9 -1 -4 1", "8 9 9 -6 -3 9 -1 0 -6", "-7 6 6 -7 2 -7 4 -5 123456789"),
    "poly3": _text("3 3 poly:x", "0,3 3,-3,-3 0 2,1,-1 1,-2 0 -3,-3 0 0", "0 1,-1 2 0 -1,-1 3 0,0,3 2,3,1 0",
                   "0,2 -1 -1,1,-1 -3,3 1,-1,-3 1,1,2 -3 0,-1 1,2", "2,0 0 0 0 -1,2 -1,1,1 -2,-1 -1 3,1",
                   "-1,3 -3,3,3 0 -1 2 -2,-1 2 2,2,-3 0", "-1,2 0 -3 2,2 1 -1,-2,3 0 0 -1",
                   "3 -1,3 0 1,-2 -1,1,3 0,-1 -1,0,1 -3,0,-2 -3", "3,1,1 1,2,-2 0 3,3,2 1,-1 3 0 -3,3 -3",
                   "0 0 0 0 2,-3,-2 -2,2 0 -3,1,-3 -2,-1"),
    # a determinant of 6000 digits, past the interpreter's default limit of 4300
    "big": _text("2 2 int", f"{NINES} 1", f"1 {NINES}"),
}
# The same entries as one 6 x 6 matrix: the integer elimination, and over
# poly:x its Kronecker-packed form.
INPUTS["int70-flat"] = "6 6 int\n" + INPUTS["int70"].split("\n", 1)[1]
INPUTS["polyx-flat"] = "6 6 poly:x\n" + INPUTS["polyx"].split("\n", 1)[1]

TERMS_24 = "620448401733239439360000"
ROWSWAP_3 = "symbolic --check rowswap --n 3 --i 2 --j 3 --missing"
MISSING_FORMAT = "error: --missing expects four integers r1,c1,r2,c2"
H_CAMPAIGN = "campaign --family h{} --n 2 --m 3 --trials 5"
# the size-2 falsifiers over mod:10007 at three seeds: (seed, h) -> lhs and rhs of trial 0
H_MOD_P = {
    (0, 1): (7064, 6705), (0, 2): (4895, 2347), (0, 3): (303, 5285), (0, 4): (717, 9201),
    (1, 1): (2865, 3824), (1, 2): (7388, 5718), (1, 3): (6403, 6422), (1, 4): (457, 6041),
    (7, 1): (703, 1627), (7, 2): (1851, 2775), (7, 3): (7365, 9183), (7, 4): (4068, 2654),
}
# the minimality scan: its edge relabelling onto the two withheld edges and its campaigns
OPTIMALITY_5_TRIALS = {
    2: "26ecf95f9f66b463d34d924c68b730fb0a45141e3bd3d382ce9d5544ba6f9398",
    3: "b21ec7fe030ca7891e40a6f5a4b2a353c4d0517667c3ad6223ef9ead49c48dd3",
    4: "4b830cf4ea3d8342b04ccb7fdde2c5fff4fc77c599b173e5a8eb8633394da3a7",
    5: "28a412b35d563d4ebe54bb28cc6553342883ab6d5878148680c421ee020c5df0",
}
OPTIMALITY_1_TRIAL = {
    5: "fc512de65c5e9b46db8089a109d48dd67f3feb9730d2d0bcc74f2bf677b26299",
    6: "ae71223d81df677d12af6c3314d6e80a632d2d7d014f835e76da661671c22039",
    7: "0ad2a896d415a9f7a73bf549ae82002337a15c8b881ceb53313480dfb7ab0766",
    8: "b1152ca277ac756cda981292c5e610dac65d08f81b34abc270baa987df201635",
}

PINS = (
    # the usage text, on stdout with exit 0
    Pin("--help", 0, "usage: blockdet", rule="prefix"),
    Pin("symbolic --help", 0, "usage: blockdet", rule="prefix"),
    # arguments a command leaves over are reported by the full parser
    Pin("symbolic --check colswap --n 3 --k 1 extra", 2, err="blockdet: error: unrecognized arguments: extra"),
    Pin("classify2 extra", 2, err="blockdet: error: unrecognized arguments: extra"),
    Pin("family --name f --n x", 2, err="blockdet family: error: argument --n: invalid int value: 'x'"),
    Pin("check", 2, err="input error: either a file or --builtin is required"),
    # sizes, trial counts and built-in sizes out of range
    Pin("campaign --family f --n 0 --m 2", 2, err="error: size must be at least 1, got n=0"),
    Pin("campaign --family f --n 2 --m 4 --trials -3", 2, err="error: trials must be at least 1, got -3"),
    # a campaign that runs no trial reports nothing: the block size and n are checked first
    Pin("campaign --family h1 --n 2 --m 3 --trials 0", 2, err="error: trials must be at least 1, got 0"),
    Pin("optimality --n 2 --trials 0", 2, err="error: trials must be at least 1, got 0"),
    Pin("campaign --family f --n 2 --m 1 --trials 0", 2, err="error: block size must be at least 2"),
    Pin("campaign --family f --n 300 --m 2 --trials 0", 2, err="error: size n=300 exceeds the row-determinant cap 8"),
    Pin("campaign --family f --n 2 --m 65 --trials 1", 2, err="error: block size m=65 exceeds the cap 64"),
    Pin("family --name f --n 0", 2, err="error: size must be at least 1, got n=0"),
    Pin("family --name f --n 9", 2, err="error: size n=9 exceeds the row-determinant cap 8"),
    Pin("family --name side:9 --n 3", 2, err="error: column 9 out of range for size 3"),
    Pin("ncdet --builtin m1 --n 5", 2, err="error: built-in matrix 'm1' takes no size, got n=5"),
    Pin("check --builtin h2 --n 3", 2, err="error: built-in matrix 'h2' takes no size, got n=3"),
    Pin("counterexample --name m3 --n 2", 2, err="error: built-in matrix 'm3' takes no size, got n=2"),
    Pin("counterexample --name diff_row --n 9", 2, err="error: size n=9 exceeds the row-determinant cap 8"),
    Pin("optimality --n 1", 2, err="error: the optimality scan needs n >= 2, got n=1"),
    Pin("symbolic --check colswap --n 25 --k 1", 2, err="error: need 1 <= k < n <= 24, got k=1, n=25"),
    Pin("symbolic --check colswap --n 3", 2, err="error: --k is required for colswap"),
    # a flag of another symbolic check is a usage error, not ignored
    Pin("symbolic --check colswap --n 3 --k 1 --missing 2,1,3,2 --i 9", 2,
        err="error: --i applies only to --check rowswap"),
    Pin("symbolic --check colswap --n 3 --k 1 --c 1", 2, err="error: --c applies only to --check transpose"),
    Pin("symbolic --check transpose --n 3 --c 1 --k 1", 2, err="error: --k applies only to --check colswap"),
    Pin("symbolic --check transpose --n 3 --c 1 --j 3", 2, err="error: --j applies only to --check rowswap"),
    Pin("symbolic --check rowswap --n 3 --i 2 --j 3 --c 2", 2, err="error: --c applies only to --check transpose"),
    Pin("symbolic --check rowswap --n 3 --i 2 --j 3 --k 1", 2, err="error: --k applies only to --check colswap"),
    *(Pin(f"{ROWSWAP_3} {shlex.quote(missing)}", 2, err=MISSING_FORMAT)
      for missing in ("a,b", "a,b,c,d", "2,1,3,x", "2,1,3,2.0", "", "2,1,3", "2,1,3,2,1", "2,1,3,2_0", "2,1,3,0_2")),
    # an integer is an optional sign and ASCII digits: int() alone would read these as side:2,
    # 3 and mod:10007 (and 1_0 below as 10)
    Pin("family --name side:\u0662 --n 3", 2, err="error: bad family parameter in 'side:\u0662'"),
    Pin(f"det {FILE}", 2, err="input error: line 2, column 1: bad entry '\u0663'", input="arabic-indic"),
    Pin(f"ncdet {FILE}", 2, err="input error: line 1: bad prime-field descriptor 'mod:1_0007'",
        input="modulus-underscore"),
    Pin("family --name f --n 3", 0, _text(
        "3", "2 1 2 2", "2 1 2 3", "2 1 3 2", "2 1 3 3", "2 2 2 3", "2 2 3 1", "2 2 3 3", "2 3 3 1",
        "2 3 3 2", "3 1 3 2", "3 1 3 3", "3 2 3 3")),
    Pin("symbolic --check colswap --n 4 --k 2", 0, "check=colswap n=4 terms=24 PASS\n"),
    Pin("symbolic --check transpose --n 1 --c 1", 0, "check=transpose n=1 terms=1 PASS\n"),
    Pin("symbolic --check transpose --n 3 --c 2", 0, "check=transpose n=3 terms=6 PASS\n"),
    # a withheld pair in one row: a PASS
    Pin(f"{ROWSWAP_3} 2,1,2,2", 0, "check=rowswap n=3 terms=6 PASS\n"),
    # the withheld pair's two rows are swapped: a verified FAIL, exit 1
    Pin(f"{ROWSWAP_3} 2,1,3,2", 1, "check=rowswap n=3 terms=6 FAIL\n"),
    # every symbolic check at the cap n = 24; rows 2, 3 keep the order of the withheld
    # pair's rows 23, 24, and swapping 23, 24 reverses it
    Pin("symbolic --n 24 --check colswap --k 23", 0, f"check=colswap n=24 terms={TERMS_24} PASS\n"),
    Pin("symbolic --n 24 --check transpose --c 24", 0, f"check=transpose n=24 terms={TERMS_24} PASS\n"),
    Pin("symbolic --n 24 --check rowswap --i 2 --j 3 --missing 23,23,24,24", 0,
        f"check=rowswap n=24 terms={TERMS_24} PASS\n"),
    Pin("symbolic --n 24 --check rowswap --i 23 --j 24 --missing 23,23,24,24", 1,
        f"check=rowswap n=24 terms={TERMS_24} FAIL\n"),
    Pin("check --builtin m1", 1, "lhs=-128 rhs=0 UNEQUAL\n"),
    Pin("check --builtin m3", 1, "lhs=1152 rhs=1872 UNEQUAL\n"),
    Pin("ncdet --builtin m1", 0, _text("2 2 int", "-60 -68", "-76 -84")),
    Pin("counterexample --name m1", 0, _text(
        "2 2 int", "1 2 5 6", "3 4 7 8", "5 6 1 2", "7 8 3 4", "lhs=-128 rhs=0 UNEQUAL")),
    Pin("counterexample --name m3", 0, _text(
        "3 2 int", "1 0 0 1 2 0", "0 1 0 3 4 0", "0 0 2 0 0 5", "6 7 0 1 1 0", "8 9 0 0 1 0", "0 0 10 0 0 1",
        "lhs=1152 rhs=1872 UNEQUAL")),
    # all 64 size-2 conditions, each built from its letter pairs
    Pin("classify2", 0, "1a906fc7f9bd76312989f9e0d65faaead8ab7ab107e6b7f5dc5ccbc729594e2d", rule="sha256"),
    # the optimality witnesses over Z[a] at ROW_DET_CAP: a verified UNEQUAL, exit 1, and the
    # block determinant itself, whose sign a slip at the DP's deepest level would flip
    Pin("check --builtin same_row --n 8", 1, "lhs=0,1 rhs=0 UNEQUAL\n"),
    Pin("check --builtin diff_row --n 8", 1, "lhs=0,-1 rhs=0 UNEQUAL\n"),
    Pin("ncdet --builtin same_row --n 8", 0, _text("2 2 poly:a", "0 1", "0,-1 0")),
    Pin("ncdet --builtin diff_row --n 8", 0, _text("2 2 poly:a", "0 -1", "0,-1 0")),
    # the minimality scan up to ROW_DET_CAP, where it checks 1372 edges and runs 4 campaigns
    # before "optimality n=8 OK"; one past the cap is a usage error
    Pin("optimality --n 2 --trials 10", 0, _text(
        "edge=(2,1)-(2,2) case=same_row OK", "condition=f trials=10 failures=0 seed=8077058029860855594",
        "condition=kappa trials=10 failures=0 seed=9987942564553441917", "optimality n=2 OK")),
    *(Pin(f"optimality --n {n} --trials 5", 0, digest, rule="sha256") for n, digest in OPTIMALITY_5_TRIALS.items()),
    *(Pin(f"optimality --n {n} --trials 1", 0, digest, rule="sha256") for n, digest in OPTIMALITY_1_TRIAL.items()),
    Pin("optimality --n 8 --trials 3", 0, "30abc8aaad69481ab39e6698b1f0ab85643f7940b1a6848561618464cf28ca1d",
        rule="sha256"),
    Pin("optimality --n 9", 2, err="error: size n=9 exceeds the row-determinant cap 8"),
    Pin(f"det {FILE}", 2, err="input error: line 2, column 1: bad entry '1_0'", input="underscore"),
    Pin("campaign --family f --n 2 --m 4 --trials 1 --seed 1_0", 2,
        err="blockdet campaign: error: argument --seed: invalid int value: '1_0'"),
    Pin("campaign --family f --n 2 --m 4 --ring mod:10007 --trials 20 --seed 42", 0,
        "condition=f trials=20 failures=0 seed=42 generator=f-slots\n"),
    # centralizer-certified samples: kappa over Z (Krylov rank mod a fixed prime) and the complete graph
    Pin("campaign --family kappa --n 4 --m 8 --ring int --trials 5", 0,
        "condition=kappa trials=5 failures=0 seed=0 generator=kappa-poly\n"),
    Pin("campaign --family complete --n 3 --m 4 --ring mod:10007 --trials 5", 0,
        "condition=complete trials=5 failures=0 seed=0 generator=commutative\n"),
    # every other generator
    Pin("campaign --family side:2 --n 3 --m 6 --trials 5", 0,
        "condition=side:2 trials=5 failures=0 seed=0 generator=side-slots:2\n"),
    Pin("campaign --family down:1 --n 2 --m 4 --trials 5", 0,
        "condition=down:1 trials=5 failures=0 seed=0 generator=down-slots:1\n"),
    Pin("campaign --family g5 --n 2 --m 4 --trials 5", 0,
        "condition=g5 trials=5 failures=0 seed=0 generator=g5-overlap\n"),
    Pin("campaign --family tcol:1 --n 3 --m 2 --ring int --trials 5", 0,
        "condition=tcol:1 trials=5 failures=0 seed=0 generator=generic-scalar\n"),
    # the size-2 falsifiers over mod:p and int: exit 1.  h2 and h3 hold an interned
    # scalar block; h1 and h4's C and D are polynomials in the drawn A and B
    Pin(H_CAMPAIGN.format(2), 1, _text(
        "failure trial=0 lhs=4895 rhs=2347", "condition=h2 trials=5 failures=5 seed=0 generator=h2-falsify")),
    Pin(H_CAMPAIGN.format(2) + " --ring int", 1, _text(
        "failure trial=0 lhs=-16 rhs=80", "condition=h2 trials=5 failures=4 seed=0 generator=h2-falsify")),
    Pin(H_CAMPAIGN.format(3) + " --ring int", 1, _text(
        "failure trial=0 lhs=12 rhs=-148", "condition=h3 trials=5 failures=4 seed=0 generator=h3-falsify")),
    Pin(H_CAMPAIGN.format(1), 1, _text(
        "failure trial=0 lhs=7064 rhs=6705", "condition=h1 trials=5 failures=5 seed=0 generator=h1-falsify")),
    Pin(H_CAMPAIGN.format(1) + " --ring int", 1, _text(
        "failure trial=0 lhs=365 rhs=-496", "condition=h1 trials=5 failures=5 seed=0 generator=h1-falsify")),
    Pin(H_CAMPAIGN.format(4), 1, _text(
        "failure trial=0 lhs=717 rhs=9201", "condition=h4 trials=5 failures=5 seed=0 generator=h4-falsify")),
    Pin(H_CAMPAIGN.format(4) + " --ring int", 1, _text(
        "failure trial=0 lhs=6092 rhs=24", "condition=h4 trials=5 failures=5 seed=0 generator=h4-falsify")),
    Pin("campaign --family h4 --n 2 --m 3 --ring mod:10007 --trials 20 --seed 42", 1, _text(
        "failure trial=0 lhs=6017 rhs=6925", "condition=h4 trials=20 failures=20 seed=42 generator=h4-falsify")),
    # every trial fails; the lhs and rhs come from Gaussian elimination mod p
    *(Pin(f"campaign --family h{h} --n 2 --m 3 --ring mod:10007 --trials 12 --seed {seed}", 1, _text(
        f"failure trial=0 lhs={lhs} rhs={rhs}",
        f"condition=h{h} trials=12 failures=12 seed={seed} generator=h{h}-falsify"))
      for (seed, h), (lhs, rhs) in H_MOD_P.items()),
    # f at m < 2n, nearly only interned scalar blocks
    Pin("campaign --family f --n 7 --m 2 --ring int --trials 20 --seed 3", 0,
        "condition=f trials=20 failures=0 seed=3 generator=generic-scalar\n"),
    Pin("campaign --family f --n 5 --m 2 --ring poly:x --trials 20 --seed 3", 0,
        "condition=f trials=20 failures=0 seed=3 generator=generic-scalar\n"),
    # slot samples over the two rings the benchmark does not run: the support certificate
    # settles every edge of f, since each joins blocks in two different slots
    *(Pin(f"campaign --family f --n 4 --m 8 --trials 3 --seed 5 --ring {ring}", 0,
          "condition=f trials=3 failures=0 seed=5 generator=f-slots\n") for ring in ("int", "poly:x")),
    # at n m = 128, 379625047 is the largest prime p with n m (p - 1) p < 2^64 and
    # 379625083 the next: the row determinant's slots, sized from p, hold both
    *(Pin(f"campaign --family f --n 8 --m 16 --ring mod:{p} --trials 3", 0,
          "condition=f trials=3 failures=0 seed=0 generator=f-slots\n") for p in (379625047, 379625083)),
    # block files: each block determinant checked against the permutation sum and each
    # determinant pair against sympy's
    Pin("ncdet -", 0, _text("2 2 mod:7", "5 0", "3 1"), input="mod7"),
    Pin("check -", 0, "lhs=5 rhs=5 EQUAL\n", input="mod7"),
    Pin("ncdet -", 0, _text(
        "2 2 int",
        "-3291009114642412084297394195940527534448309485482345609486663680 "
        "4936513671963618126474664123696408662572612945362333204446445568",
        "3291009114642412084300181789090343862341002630858047372086214521 "
        "1645504557321206042132668437358819881841165910203930696914829332"), input="int70"),
    Pin("ncdet -", 0, _text("2 2 mod:2305843009213693951", "0 2", "3 2305843009213693948"), input="mod61"),
    Pin("ncdet -", 0, _text(
        "2 2 poly:x", "10,25,0,-22,-30,42,27 104,-37,16,27,0,-7", "1,-9,3,-3,29,1,14 -6,19,8,3,5,-1"),
        input="polyx"),
    Pin("ncdet -", 0, _text(
        "3 3 int", "91053306678013 8349416424257 814453062255905837170",
        "1030792152879 1030792151416 625018501721", "-893353197989 -1649267442641 -3700111002396"),
        input="int3"),
    Pin("check -", 1, "lhs=-634614293008212721380667714486152796637349170 "
        "rhs=-9562980724218029570223111612514139468 UNEQUAL\n", input="int3"),
    Pin("ncdet -", 0, _text(
        "3 3 poly:x",
        "-39,-2,40,59,23,-27,-18 14,56,-121,31,8,-21 -15,111,-21,-66,-33",
        "-51,-54,25,31,66,24,6 -39,-13,-91,65,11,12 -56,3,8,-3,6",
        "15,27,-61,-50,-8,3,9 -45,71,-65,-85,56,21,-9 -19,82,-32,-81,-28,3"), input="poly3"),
    Pin("check -", 1,
        "lhs=855,199485,378575,-140169,-864188,-1265871,-259811,1693587,1459585,6900,-615454,-358821,"
        "-227077,-43077,28740,12582,540 "
        "rhs=16788,-41368,120050,-168792,26763,286607,196771,-107148,-353530,-125664,-16245,-36862,"
        "-16497,-4740,10428,17135,6033,369 UNEQUAL\n", input="poly3"),
    Pin(f"check {FILE}", 0, "lhs=1 rhs=1 EQUAL\n", input="identity"),
    Pin(f"check {FILE}", 2, err="input error: line 1: header must be 'm n ring-descriptor'", input="no-ring"),
    # matrix files
    Pin(f"det {FILE}", 0, "det=-2\n", input="2x2"),
    Pin(f"det {FILE}", 2, err="input error: line 1: modulus 318665857834031151167461 is too large to certify as prime",
        input="big-modulus"),
    Pin(f"det {FILE}", 2, err="input error: line 4, column 2: bad entry 'x'", input="bad-entry"),
    Pin(f"det {FILE}", 2, err="input error: line 4: expected 2 entry rows, file ended early", input="short"),
    Pin(f"det {FILE}", 2, err="input error: line 3: expected 1 entry rows, found more", input="long"),
    Pin("det -", 0, "det=10830740992659433045202951922033029929920639888915854581567767645494999515187380990"
        "461703244608960050235000645952973541912608768\n", input="int70-flat"),
    Pin("det -", 0, "det=1140,-2340,-716,4993,976,-1432,-882,-2343,188,1077,-110,-56,7,-14\n", input="polyx-flat"),
    # checked against Python's own product
    Pin("det -", 0, f"det={_decimal(NINES * NINES - 1)}\n", input="big"),
)


def _shown(text: str) -> str:
    return repr(text) if len(text) <= 300 else f"{text[:150]!r}...{text[-150:]!r}"


def check(pin: Pin, invoke) -> list[str]:
    """How the call ``invoke(argv, stdin)`` differs from the pin: one line per
    difference, none when it matches.  ``invoke`` returns the exit code,
    stdout and stderr; ``stdin`` is the text on stdin, or None."""
    argv = shlex.split(pin.cmd)
    text = None if pin.input is None else INPUTS[pin.input]
    if FILE in argv:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code, out, err = invoke([path if arg == FILE else arg for arg in argv], None)
    else:
        code, out, err = invoke(argv, text)
    problems = []
    if code != pin.code:
        problems.append(f"exit code {code}, want {pin.code}")
    if pin.rule == "prefix":
        out_ok = out.startswith(pin.out)
    elif pin.rule == "sha256":
        out_ok = hashlib.sha256(out.encode()).hexdigest() == pin.out
    else:
        out_ok = out == pin.out
    if not out_ok:
        problems.append(f"stdout {_shown(out)}, want {pin.rule} {_shown(pin.out)}")
    if pin.err.startswith("blockdet"):
        err_ok = err.endswith(f"\n{pin.err}\n")
    else:
        err_ok = err == (f"{pin.err}\n" if pin.err else "")
    if not err_ok:
        problems.append(f"stderr {_shown(err)}, want {_shown(pin.err)}")
    return problems


def run_in_process(argv: list[str], stdin: str | None = None, entry=None) -> tuple[int, str, str]:
    """``entry(argv)`` in this process, ``blockdet.cli.main`` by default, with
    ``stdin`` (or nothing) on stdin: its exit code, stdout and stderr.  The
    default is imported here, so the console run needs no importable package."""
    if entry is None:
        from blockdet.cli import main as entry
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entry(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _console_script(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    proc = subprocess.run(["blockdet", *argv], input=stdin or "", capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    failed = 0
    for pin in PINS:
        problems = check(pin, _console_script)
        print(("FAIL " if problems else "ok   ") + pin.name)
        for problem in problems:
            print("     " + problem)
        failed += bool(problems)
    print(f"{len(PINS)} pins, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
