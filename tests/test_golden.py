"""Golden pins: seeded samples, reports and the symbolic-identity table
that must not drift.

These values were recorded from the generators and trial loops as they
stand, so a refactor that reorders a random draw or a trial's seeding
fails here even when every identity still holds.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

from blockdet.conditions import (
    complete_condition,
    cond_f,
    cond_f_down,
    cond_f_side,
    cond_kappa,
    cond_named,
    cond_t_col,
    matrix_satisfies,
)
from blockdet.matrix import det_commutative, format_block_matrix, format_matrix
from blockdet.ncdet import bourbaki_trace
from blockdet.ring import ZZ, PolynomialRing, PrimeField
from blockdet.verify import check_identity, gen_satisfying, pick_generator, silvester_check, trial_seed
from cli_pins import run_in_process
from oracles import main_by_full_parser, shifted_by_z, trace_inputs

F10007 = PrimeField(10007)
ROOT = Path(__file__).resolve().parent.parent


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_g5_overlap_sample():
    bm = gen_satisfying(cond_named("g5"), 4, F10007, seed=3)
    assert format_block_matrix(bm) == (
        "4 2 mod:10007\n"
        "3927 0 0 0 9191 0 0 0\n"
        "0 3927 0 0 0 3817 0 0\n"
        "0 0 5125 0 0 0 3817 0\n"
        "0 0 0 7249 0 0 0 2223\n"
        "6709 2765 0 0 2487 0 0 0\n"
        "3408 2673 0 0 0 857 4287 0\n"
        "0 0 2527 0 0 558 3967 0\n"
        "0 0 0 2527 0 0 0 2487\n"
    )


def test_side_slots_sample():
    g = cond_f_side(2, 2)
    assert pick_generator(g, 4)[0] == "side-slots:2"
    assert format_block_matrix(gen_satisfying(g, 4, F10007, seed=5)) == (
        "4 2 mod:10007\n"
        "1014 3720 0 0 5889 3322 0 0\n"
        "2067 8820 0 0 3951 1481 0 0\n"
        "0 0 8451 0 0 0 26 0\n"
        "0 0 0 8451 0 0 0 26\n"
        "8366 0 0 0 8460 5177 4272 4392\n"
        "0 8366 0 0 5051 3825 5810 7978\n"
        "0 0 4842 7999 7113 4863 9472 9093\n"
        "0 0 6292 5313 1261 3943 9691 7727\n"
    )


def test_f_and_down_slots_samples():
    cases = [
        (cond_f(3), "f-slots", "ca99161e266c9db8a75816ac53ac700cfa33628d1ccbbc31224c2a01698a56f2"),
        (cond_f_down(2, 3), "down-slots:2",
         "d2d750a4059db444bb34bf1919ec4da2e675548ab8e0151461daf95a3c048b39"),
    ]
    for g, name, digest in cases:
        assert pick_generator(g, 6)[0] == name
        assert _sha(format_block_matrix(gen_satisfying(g, 6, F10007, seed=7))) == digest


def test_witness_retries_and_other_rings():
    # Over mod:2 the first draws of these three commute on every witness
    # pair, so the sample pinned is the one after 1, 3 and 2 retries.
    f2 = PrimeField(2)
    cases = [
        (cond_named("g5"), 4, f2, 0, "286fa13773dcae2aa035272db1d6bcf9d6ae9ec7958ef6af27c23d42f43c4dea"),
        (cond_t_col(1, 3), 3, f2, 2, "95fdc71475686059bd8cfb6ce7672ac44c719bf7e3f20f561222594a15885ac8"),
        (cond_kappa(2), 2, f2, 0, "e86aa13fc11cde600be4498b9266ecad1846ebf3d2e39d76527592203f300b14"),
        (cond_f_side(2, 3), 6, ZZ, 4, "697e4b2d78a94b71da60ad80db7610c550795955c27a07c79eff6233921f2489"),
        (cond_kappa(3), 4, PolynomialRing("x"), 4,
         "47f57d7c730fddf11c65ef4803f94db82588725ead7c7838d5be281b359d30dd"),
    ]
    for g, m, ring, seed, digest in cases:
        assert _sha(format_block_matrix(gen_satisfying(g, m, ring, seed))) == digest, (g, m, ring.label, seed)


def test_samples_with_repeated_scalar_blocks():
    # generic-scalar samples, almost every block c I, and h2, h3 with one
    # scalar block: the samples in which one interned scalar block serves
    # several positions.  A slip in slicing a sample's values, such as a
    # slot's c, a, b, d, e rotated or a block's count one short, fails here.
    cases = [
        (cond_f(5), 2, ZZ, "generic-scalar", "7c904fe34d61e58891ed79af6eb548611ecab20bb092139dd80a277421733e62"),
        (cond_f(5), 2, PolynomialRing("x"), "generic-scalar",
         "3162e7dc9fee4ac3af053761cd754a194644069ab9e4ea7388e544697c7ab7ab"),
        (cond_f(5), 2, PrimeField(3), "generic-scalar",
         "ae652a9d257fb6495f49e31a166b9fa4ff02a30258cb1d24595f665542cedc7d"),
        (cond_f(6), 3, ZZ, "generic-scalar", "d49d2001baf77d36a35afa015fca187a00c632ce7270b24257a723e785196275"),
        (cond_named("h2"), 3, ZZ, "h2-falsify", "1077f4e17b1b8c418e1ed6ade9f2e006fee24204dd21f40b392460cac8e7dea6"),
        (cond_named("h3"), 3, ZZ, "h3-falsify", "3bc58d051971c3af8e00af76bf6c34222691b1380d5c3773cc0b4c17a1566f60"),
    ]
    for g, m, ring, name, digest in cases:
        assert pick_generator(g, m)[0] == name
        text = "".join(format_block_matrix(gen_satisfying(g, m, ring, seed)) for seed in range(5))
        assert _sha(text) == digest, (g, m, ring.label)


def test_commutative_samples():
    # Every block a polynomial in one drawn block, on each ring.
    g = complete_condition(2)
    assert pick_generator(g, 3)[0] == "commutative"
    digests = {
        "mod:10007": "510aba73d29bfb8461816c0153bd21605b73407d94b31503c9d4e8c0e3c3d390",
        "int": "494331607289a3e64f6f069bac4b5e42a4800407523760b2cf9a272810139505",
        "mod:2": "b1293d4b5bfcbd88ef0a30fd49f650492c6771e96af28e8a4935f854018873e6",
        "poly:x": "183314c154466a94e0ada040c7e51cb0dd439cbdb4eda3f86f6a2132678e2648",
    }
    for ring in (F10007, ZZ, PrimeField(2), PolynomialRing("x")):
        text = "".join(format_block_matrix(gen_satisfying(g, 3, ring, seed)) for seed in range(5))
        assert _sha(text) == digests[ring.label], ring.label


def test_silvester_hypothesis_samples(monkeypatch):
    # Each trial's sample, recorded as the hypothesis check receives it.
    import blockdet.verify

    seen = []

    def recording(bm, g):
        seen.append(bm)
        return matrix_satisfies(bm, g)

    monkeypatch.setattr(blockdet.verify, "matrix_satisfies", recording)
    digests = {
        "a": "61d61ac4d8e0d42adabe949415d2e29fbe26d73a572d6f5ee68fc57d35bb2f6c",
        "b": "c43e02fcbcae6fb9eaff3cc6218b45256379a62ce79214858e9c008406177cd4",
        "c": "355cc789882d41f55df3daf8a38ae27c4efcfd930f6d201771ef5a96c591e8dc",
    }
    for variant, digest in digests.items():
        seen.clear()
        rep = silvester_check(variant, 3, F10007, 6, seed=5)
        assert (rep.failures, len(seen)) == (0, 6)
        assert _sha("".join(map(format_block_matrix, seen))) == digest, variant


def test_silvester_control_report():
    rep = silvester_check("c", 3, F10007, 50, seed=13, enforce_hypothesis=False)
    assert rep.summary_line() == "condition=silvester:c:control trials=50 failures=50 seed=13"
    assert rep.generator == "silvester-control"
    f = rep.first_failure
    assert (f.trial, str(f.lhs), str(f.rhs)) == (0, "6677", "428")
    assert format_block_matrix(f.matrix) == (
        "3 2 mod:10007\n"
        "2402 6692 8173 8142 6275 6542\n"
        "4111 2052 5473 4588 3827 4896\n"
        "6792 7848 225 5422 4454 8690\n"
        "6135 8139 9428 8699 9986 3253\n"
        "2539 3322 6388 7561 2171 4030\n"
        "1697 5988 8662 5512 2446 8732\n"
    )


def test_silvester_hypothesis_report():
    rep = silvester_check("a", 3, ZZ, 20, seed=11)
    assert rep.summary_line() == "condition=silvester:a trials=20 failures=0 seed=11"
    assert rep.generator == "silvester"
    assert rep.first_failure is None


def test_symbolic_identities_table():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "symbolic_identities.py")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stderr == ""
    assert _sha(proc.stdout) == "ec01ff5c52c3acb7048c597f3f3f307fd3900e7f2fec8497d9510a1700dfd54f"


def test_verification_report():
    # The whole report at --trials 20, less the elapsed time on its last line.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verification.py"), "--trials", "20"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stderr == ""
    report = re.sub(r" in [0-9.]+s\n\Z", "\n", proc.stdout)
    assert report.endswith("\n\nALL CHECKS PASSED\n")
    assert _sha(report) == "12ee5af50c7888638ad48c9cf0acc264f8fb3e3773e1cb6ac077ab290a1682e0"


def test_side_and_down_families():
    # Every column- and row-relabelled variant of the row-one-free family.
    calls = [
        run_in_process(["family", "--name", f"{head}:{k}", "--n", str(n)])
        for n in range(2, 9)
        for head in ("side", "down")
        for k in range(1, n + 1)
    ]
    assert {(code, err) for code, _, err in calls} == {(0, "")}
    text = "".join(out for _, out, _ in calls)
    assert _sha(text) == "cc443c0752fd2a92e00fe96cb72f261b6e9350b4e83ec5be225ffd223356f503"


def test_induction_trace_objects():
    # The checks, the shifted matrix and its tail, the block determinant
    # and its determinant, on the 40 samples of run_verification.py and on
    # 24 inputs that fail some check.  The trace returns only the checks;
    # the objects are built from their definition.
    text = ""
    for bm in trace_inputs():
        shifted, tail, shifted_det = shifted_by_z(bm)
        text += (
            f"{bourbaki_trace(bm)}\n{format_block_matrix(shifted)}{format_block_matrix(tail)}"
            f"{format_matrix(shifted_det)}{det_commutative(shifted_det)}\n"
        )
    assert _sha(text) == "1d2d2f3165053d53b01a453cecd95887ef054bd9eee63433fe238af063bc90b6"


def test_classify2_output():
    # All 64 lines, each condition built from its letter pairs; the full
    # parser prints the same bytes.
    code, out, err = run_in_process(["classify2"])
    assert (code, err) == (0, "")
    assert _sha(out) == "1a906fc7f9bd76312989f9e0d65faaead8ab7ab107e6b7f5dc5ccbc729594e2d"
    assert run_in_process(["classify2"], entry=main_by_full_parser) == (code, out, err)


def test_every_trial_value_of_the_falsifying_campaigns():
    text = "".join(
        f"{name} {i} {r.lhs} {r.rhs}\n"
        for name in ("h1", "h2", "h3", "h4")
        for i in range(12)
        for r in [check_identity(gen_satisfying(cond_named(name), 3, F10007, trial_seed(0, i)))]
    )
    assert _sha(text) == "be725b9ed34717024b334825852a0d962c785960e74d77d377861b3802144459"


def test_flattened_determinants_over_mod_p(tmp_path):
    path = tmp_path / "f4.txt"
    path.write_text(format_matrix(gen_satisfying(cond_f(4), 8, F10007, 0).flatten()))
    assert run_in_process(["det", str(path)]) == (0, "det=8198\n", "")
    cases = ((cond_f(4), 8), (cond_f_side(2, 3), 6), (cond_f_down(3, 3), 6), (cond_kappa(3), 6))
    text = "".join(
        f"{det_commutative(gen_satisfying(g, m, F10007, trial_seed(3, i)).flatten())}\n"
        for g, m in cases
        for i in range(10)
    )
    assert _sha(text) == "1a8d961763fa67419cbd77b529c42e2abd3781b5a6d74de439236a9023180b98"


def _transcript(argvs):
    # argv, exit code, stdout and stderr of each call, in order.
    text = ""
    for argv in argvs:
        code, out, err = run_in_process(argv)
        text += f"{argv}\n{code}\n{out}\n{err}\n"
    return text


def test_witness_commands_at_every_size():
    # Sizes below a witness's least n, and n = 9 past the cap, are usage errors: exit 2.
    argvs = [
        [cmd, flag, case, "--n", str(n)]
        for cmd, flag in (("counterexample", "--name"), ("check", "--builtin"), ("ncdet", "--builtin"))
        for case in ("same_row", "diff_row")
        for n in range(10)
    ]
    assert _sha(_transcript(argvs)) == "eb6753e6424b9d40af8cc81c6d3797cc6fabeb68985e4bebea347a8a58f428ed"


def test_family_ids_good_and_bad():
    ids = ("f", "kappa", "complete", "empty", "side:2", "down:1", "tcol:1", "trow:2", "g5", "h1",
           "F", " kappa ", "SIDE:2", "side: 2", "side:0", "side:-1", "side:10", "side:x", "side:",
           "side", "f:2", ":2", "foo", "foo:x", "foo:2", "g6", "")
    argvs = [["family", "--name", fid, "--n", str(n)] for fid in ids for n in (0, 1, 2, 3, 9)]
    assert _sha(_transcript(argvs)) == "3a264e84aeab74f6e86f518fb71752c4c8edefffb796333e526cdb2a2f278fd3"
