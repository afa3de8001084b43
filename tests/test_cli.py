import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import schubcalc
from schubcalc import cli, shimura
from schubcalc.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_pinned_coeff_example(capsys):
    rc, out, err = run(capsys, "lr", "coeff", "--outer", "2,2", "--inner", "1", "--nu", "2,1")
    assert rc == 0
    assert out == '{"coefficient":1}\n'


def test_pinned_inject_example(capsys):
    rc, out, _ = run(
        capsys,
        "shimura", "inject", "--type", "unitary",
        "--p", "2", "--q", "2",
        "--lambda", "1,1", "--mu", "2,2", "--factors", "2x1",
    )
    assert rc == 0
    assert out == '{"injective":true,"witness":{"nu":"1,1"}}\n'


def test_pinned_complement_example(capsys):
    rc, out, _ = run(capsys, "partition", "comp", "--partition", "5,3,3,2", "--box", "5x5")
    assert rc == 0
    assert out == '{"partition":"5,3,2,2"}\n'


def test_partition_round_trip(capsys):
    rc, out, _ = run(capsys, "partition", "conj", "--partition", "5,3,3,2")
    assert rc == 0
    first = json.loads(out)["partition"]
    rc, out, _ = run(capsys, "partition", "conj", "--partition", first)
    assert json.loads(out)["partition"] == "5,3,3,2"


def test_domain_error_exit_code(capsys):
    rc, out, err = run(capsys, "partition", "plus", "--partition", "2,1,1")
    assert rc == 1
    assert out == '{"error":"NotSymmetric"}\n'
    assert err == ""


def test_deep_shapes_report_input_too_large(capsys):
    # a pair window of more than shimura.MAX_PAIRS pairs is refused:
    # 1100 x 1 holds 1101 * 1102 / 2 = 606,651
    for p, q in (("1100", "1"), ("1", "1100")):
        rc, out, err = run(capsys, "shimura", "pairs", "--p", p, "--q", q)
        assert (rc, out, err) == (1, '{"error":"InputTooLarge"}\n', ""), (p, q)
    # products and restrictions build shapes without recursion, so a
    # thousand-row shape is answered
    ones = ",".join(["1"] * 1100)
    rc, out, err = run(capsys, "cohom", "restrict", "--ambient", "1100x1", "--class", ones, "--levi", "1100x1")
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"factors": ["1100x1"], "terms": [{"partitions": [ones], "coeff": 1}]}
    rc, out, err = run(capsys, "cohom", "product", "--ambient", "1200x1", "--lhs", ones, "--rhs", "1")
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"ambient": "1200x1", "terms": [{"partition": ones + ",1", "coeff": 1}]}
    rc, out, err = run(capsys, "lr", "multi", "--target", ones + ",1", "--factors", ones + "*1")
    assert (rc, out, err) == (0, '{"coefficient":1}\n', "")


def test_pair_windows_over_the_pair_budget_are_refused(capsys):
    # refused before a shape is listed: the square window would double
    # its list of symmetric shapes 1,100 times
    for argv in (
        ("shimura", "arthur", "--p", "1100", "--q", "1", "--max-degree", "5"),
        ("shimura", "pairs", "--p", "1100", "--type", "symplectic"),
    ):
        assert run(capsys, *argv) == (1, '{"error":"InputTooLarge"}\n', ""), argv


def test_square_flavor_pair_windows_over_side_15_are_refused(capsys):
    # refused before a pair is printed
    for flavor in ("symplectic", "orthogonal"):
        argv = ("shimura", "pairs", "--p", "16", "--q", "16", "--type", flavor)
        assert run(capsys, *argv) == (1, '{"error":"InputTooLarge"}\n', ""), argv


def test_restrictions_to_hundreds_of_blocks_are_answered(capsys):
    # the restriction takes the Levi blocks off in a loop, so 400 blocks
    # need no deeper stack than one
    levi = "*".join(["1x1"] * 400)
    argv = ("cohom", "restrict", "--ambient", "400x400", "--class", "", "--levi", levi)
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"factors": ["1x1"] * 400, "terms": [{"partitions": [""] * 400, "coeff": 1}]}


def test_malformed_input_exit_code(capsys):
    rc, out, err = run(capsys, "partition", "conj", "--partition", "abc")
    assert rc == 2
    assert out == ""
    assert "error" in err
    # a compound option names the form it expects
    pair = ("--p", "3", "--q", "4", "--lambda", "2,2", "--mu", "4,4")
    for argv, form in [
        (("shimura", "pairs", "--p", "2", "--q", "2", "--bidegree", "1"), "expected I,J, got '1'"),
        (("shimura", "kunneth-vanish", *pair, "--factor-pairs", "1x1:1"), "expected BOX:LAMBDA:MU[;...], got '1x1:1'"),
    ]:
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert form in err


def test_unknown_flag_is_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["partition", "conj", "--partition", "1", "--bogus"])


def test_deterministic_output(capsys):
    argv = ("shimura", "arthur", "--p", "2", "--q", "3", "--max-degree", "3")
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_pretty_keeps_stdout_clean(capsys):
    plain = run(capsys, "skew", "decompose", "--skew", "8,8,8,4,4,2/4,4,4,2,2")
    pretty = run(capsys, "skew", "decompose", "--skew", "8,8,8,4,4,2/4,4,4,2,2", "--pretty")
    assert plain[0] == pretty[0] == 0
    assert plain[1] == pretty[1] == '{"chain":["3x4","2x2","1x2"]}\n'
    assert plain[2] == ""
    assert "[ ]" in pretty[2]


def test_pretty_draws_a_skew_with_no_cells_as_empty(capsys):
    plain = run(capsys, "skew", "decompose", "--skew", "2,1/2,1")
    pretty = run(capsys, "skew", "decompose", "--skew", "2,1/2,1", "--pretty")
    assert plain == (0, '{"chain":[]}\n', "")
    assert pretty == (0, '{"chain":[]}\n', "skew:\n(empty)\n")


def test_skew_decompose_rejects_overlap(capsys):
    rc, out, _ = run(capsys, "skew", "decompose", "--skew", "2,1")
    assert rc == 1
    assert out == '{"error":"IncompatiblePair"}\n'


def test_lr_multi(capsys):
    rc, out, _ = run(capsys, "lr", "multi", "--target", "3,1", "--factors", "2*2")
    assert rc == 0 and out == '{"coefficient":1}\n'
    rc, out, _ = run(capsys, "lr", "multi", "--target", "3,1", "--factors", "1x2*1x2")
    assert rc == 0 and out == '{"coefficient":1}\n'


def test_lr_inscribes_modes(capsys):
    rc, out, _ = run(capsys, "lr", "inscribes", "--nu", "1", "--skew", "2,1")
    assert rc == 0
    assert out == '{"inscribes":true,"witness":{"mu_prime":"1"}}\n'
    rc, out, _ = run(capsys, "lr", "inscribes", "--nu", "3", "--skew", "2,1")
    assert rc == 0 and out == '{"inscribes":false,"witness":null}\n'
    rc, out, _ = run(capsys, "lr", "inscribes", "--nu", "2,2", "--skew", "1", "--symmetric")
    assert rc == 0 and out == '{"inscribes":false,"witness":null}\n'
    rc, out, _ = run(capsys, "lr", "inscribes", "--nu", "1", "--skew", "1", "--symmetric")
    assert rc == 0
    doc = json.loads(out)
    assert doc["inscribes"] and doc["witness"]["center"] == "1"
    rc, out, _ = run(capsys, "lr", "inscribes", "--nu", "2", "--skew", "1", "--antisymmetric")
    assert rc == 1
    assert out == '{"error":"ShapeNotSymmetric"}\n'
    with pytest.raises(SystemExit):
        main(["lr", "inscribes", "--nu", "1", "--skew", "1", "--symmetric", "--antisymmetric"])


def test_cohom_product_and_pair(capsys):
    rc, out, _ = run(capsys, "cohom", "product", "--ambient", "2x2", "--lhs", "1", "--rhs", "1")
    assert rc == 0
    assert out == (
        '{"ambient":"2x2","terms":'
        '[{"partition":"2","coeff":1},{"partition":"1,1","coeff":1}]}\n'
    )
    rc, out, _ = run(capsys, "cohom", "pair", "--ambient", "2x2", "--lhs", "2,1", "--rhs", "1")
    assert rc == 0 and out == '{"pairing":1}\n'
    rc, out, _ = run(capsys, "cohom", "pair", "--ambient", "2x2", "--lhs", "2", "--rhs", "1")
    assert rc == 0 and out == '{"pairing":0}\n'


def test_cohom_restrict(capsys):
    rc, out, _ = run(
        capsys, "cohom", "restrict", "--ambient", "2x2", "--class", "1", "--levi", "1x1*1x1"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["factors"] == ["1x1", "1x1"]
    assert doc["terms"] == [
        {"partitions": ["", "1"], "coeff": 1},
        {"partitions": ["1", ""], "coeff": 1},
    ]


def test_cohom_dual_classes(capsys):
    rc, out, _ = run(
        capsys, "cohom", "dual-class", "--ambient", "2x2", "--levi", "1x1*1x1"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["terms"] == [
        {"partition": "2", "coeff": 1},
        {"partition": "1,1", "coeff": 1},
    ]
    rc, out, _ = run(capsys, "cohom", "dual-class", "--ambient", "3x3", "--type", "gsp")
    assert json.loads(out)["terms"] == [{"partition": "2,1", "coeff": 1}]
    rc, out, _ = run(capsys, "cohom", "dual-class", "--ambient", "2x2", "--type", "ostar")
    assert json.loads(out)["terms"] == [{"partition": "2,1", "coeff": 1}]
    rc, out, _ = run(capsys, "cohom", "dual-class", "--ambient", "2x3", "--type", "gsp")
    assert rc == 1 and out == '{"error":"AmbientNotSquare"}\n'
    # a Levi shapes the unitary class only; the others refuse one
    for kind in ("gsp", "ostar"):
        argv = ("cohom", "dual-class", "--ambient", "2x2", "--type", kind, "--levi", "5x5")
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "") and "--levi" in err


def test_shimura_pairs(capsys):
    rc, out, _ = run(capsys, "shimura", "pairs", "--p", "1", "--q", "1")
    assert rc == 0
    assert json.loads(out) == {
        "pairs": [
            {"lambda": "", "mu": ""},
            {"lambda": "", "mu": "1"},
            {"lambda": "1", "mu": "1"},
        ]
    }
    rc, out, _ = run(capsys, "shimura", "pairs", "--p", "2", "--q", "2", "--bidegree", "0,0")
    assert json.loads(out) == {"pairs": [{"lambda": "", "mu": "2,2"}]}


@pytest.mark.parametrize(
    "argv",
    [
        ("shimura", "pairs", "--p", "-1", "--q", "2"),
        ("shimura", "arthur", "--p", "-1", "--q", "2", "--max-degree", "0"),
        ("shimura", "arthur", "--p", "-1", "--q", "2", "--max-degree", "-3"),
        ("shimura", "partha", "--p", "-2", "--degree", "1"),
        ("shimura", "partha", "--p", "2", "--q", "-1", "--degree", "1"),
        ("shimura", "bidegree", "--p", "-1", "--q", "2", "--lambda=", "--mu="),
        ("shimura", "chern-action", "--p", "-1", "--q", "2", "--lambda=", "--mu=", "--nu", "1"),
        ("shimura", "inject", "--p", "-1", "--q", "2", "--lambda=", "--mu=", "--factors", "1x1"),
        ("shimura", "kunneth-vanish", "--p", "-1", "--q", "2", "--lambda=", "--mu=", "--factor-pairs", "1x1:1:1"),
        ("shimura", "vanish", "--p", "-1", "--q", "2", "--lambda=", "--mu=", "--side", "Q", "--bound", "1"),
        ("shimura", "structure", "--p", "-1", "--q", "2", "--lambda=", "--mu="),
    ],
)
def test_shimura_negative_window_is_malformed(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "nonnegative" in err


def test_shimura_zero_side_windows(capsys):
    for argv in (("--p", "0", "--q", "2"), ("--p", "2", "--q", "0"), ("--p", "0")):
        rc, out, _ = run(capsys, "shimura", "pairs", *argv)
        assert rc == 0 and out == '{"pairs":[{"lambda":"","mu":""}]}\n'


def test_shimura_bidegree_and_chern(capsys):
    rc, out, _ = run(
        capsys, "shimura", "bidegree", "--p", "1", "--q", "1", "--lambda", "1", "--mu", "1"
    )
    assert rc == 0 and json.loads(out) == {"bidegree": [1, 0]}
    rc, out, _ = run(
        capsys,
        "shimura", "chern-action", "--p", "2", "--q", "2",
        "--lambda", "1,1", "--mu", "2,2", "--nu", "1",
    )
    doc = json.loads(out)
    assert rc == 0 and doc["nonzero"] and "mu_prime" in doc["witness"]
    rc, out, _ = run(
        capsys,
        "shimura", "chern-action", "--p", "2", "--q", "2", "--type", "symplectic",
        "--lambda", "", "--mu", "2,2", "--nu", "1",
    )
    doc = json.loads(out)
    assert rc == 0 and doc["nonzero"] and "center" in doc["witness"]
    rc, out, _ = run(
        capsys,
        "shimura", "chern-action", "--p", "2", "--q", "2",
        "--lambda", "1,1", "--mu", "2,2", "--nu", "2",
    )
    assert rc == 0 and out == '{"nonzero":false,"witness":null}\n'


def test_inject_factors_parse_like_a_levi(capsys):
    # a blank --factors is the empty Levi, as a blank --levi is
    base = ["shimura", "inject", "--type", "unitary", "--p", "2", "--q", "2", "--lambda", "1,1", "--mu", "2,2"]
    outs = set()
    for factors in ("", " "):
        rc, out, _ = run(capsys, *base, "--factors", factors)
        assert rc == 0
        outs.add(out)
    assert outs == {'{"injective":false,"witness":null}\n'}


def test_shimura_inject_gsp(capsys):
    rc, out, _ = run(
        capsys,
        "shimura", "inject", "--type", "gsp", "--p", "2",
        "--lambda", "2,1", "--mu", "2,2",
    )
    assert rc == 0 and out == '{"injective":true}\n'


def test_shimura_kunneth(capsys):
    rc, out, _ = run(
        capsys,
        "shimura", "kunneth-vanish", "--p", "3", "--q", "4",
        "--lambda", "2,2", "--mu", "4,4",
        "--factor-pairs", "1x2:2:2;2x1:1,1:1,1",
    )
    assert rc == 0 and out == '{"vanishes":true}\n'


def test_shimura_vanish(capsys):
    rc, out, _ = run(
        capsys,
        "shimura", "vanish", "--p", "3", "--q", "3",
        "--lambda", "1,1", "--mu", "3,3,1", "--side", "Q", "--bound", "1",
    )
    assert rc == 0 and out == '{"vanishes":true}\n'
    rc, out, _ = run(
        capsys,
        "shimura", "vanish", "--p", "3", "--q", "3",
        "--lambda", "", "--mu", "3,3,3", "--side", "Q", "--bound", "1",
    )
    assert rc == 1 and out == '{"error":"TrivialPairExcluded"}\n'


def test_shimura_structure(capsys):
    rc, out, _ = run(
        capsys,
        "shimura", "structure", "--p", "3", "--q", "3",
        "--lambda", "3,1,1", "--mu", "3,3,3",
    )
    assert rc == 0 and out == '{"structure":"SquareStaircase"}\n'


def test_shimura_arthur(capsys):
    rc, out, _ = run(capsys, "shimura", "arthur", "--p", "2", "--q", "3", "--max-degree", "4")
    assert rc == 1 and out == '{"error":"BoundExceeded"}\n'
    rc, out, _ = run(capsys, "shimura", "arthur", "--p", "2", "--q", "3", "--max-degree", "3")
    assert rc == 0
    entries = json.loads(out)["entries"]
    assert entries
    for e in entries:
        assert set(e) == {"lambda", "mu", "structure", "suggestion"}
        assert e["suggestion"].startswith(("U(", "GSp_"))
    # a zero-side window suggests a block with a zero side and checks it
    # against the empty Levi
    for p, q, structure, suggestion in (("0", "2", "FullP", "U(0,1)"), ("2", "0", "FullQ", "U(1,0)")):
        rc, out, _ = run(capsys, "shimura", "arthur", "--p", p, "--q", q, "--max-degree", "0")
        assert rc == 0
        assert json.loads(out) == {
            "entries": [{"lambda": "", "mu": "", "structure": structure, "suggestion": suggestion}]
        }


def test_shimura_partha(capsys):
    rc, out, _ = run(capsys, "shimura", "partha", "--p", "2", "--q", "3", "--degree", "1")
    assert rc == 0 and json.loads(out) == {"windows": []}
    rc, out, _ = run(capsys, "shimura", "partha", "--p", "2", "--q", "3", "--degree", "6")
    assert json.loads(out) == {"windows": [[0, 0]]}


def test_shimura_ostar(capsys):
    rc, out, _ = run(capsys, "shimura", "ostar-holo", "--p", "2")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["components"]) == 5
    assert doc["identifications"] == [
        {"label": "", "members": [["R", 0], ["S", 0]]},
        {"label": "1", "members": [["R", 1], ["R", 2], ["S", 1]]},
    ]


def _process(cache_dir, *args):
    # one real schubcalc process with its own coefficient cache, wrapping
    # help at 80 columns
    src = str(Path(schubcalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, SCHUBERT_CACHE_DIR=str(cache_dir), COLUMNS="80")
    argv = [sys.executable, "-m", "schubcalc.cli", *args]
    return subprocess.run(argv, env=env, capture_output=True, timeout=60)


def _process_run(cache_dir, *args):
    done = _process(cache_dir, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_real_process_parses_its_own_argv(tmp_path, capsys):
    for args in (("--help",), ("shimura", "--help")):
        done = _process(tmp_path, *args)
        assert done.returncode == 0
        assert done.stdout.startswith(b"usage: schubcalc")
    done = _process(tmp_path, "bogus")
    assert (done.returncode, done.stdout) == (2, b"")
    assert b"invalid choice: 'bogus'" in done.stderr
    # a command's own parser answers its help; extra words go to the top
    done = _process(tmp_path, "lr", "coeff", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith(b"usage: schubcalc lr coeff [-h]")
    done = _process(tmp_path, "lr", "coeff", "--outer", "1", "--nu", "1", "extra")
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"usage: schubcalc [-h]")
    assert b"unrecognized arguments: extra" in done.stderr
    argv = ("lr", "coeff", "--outer", "3,2,1", "--inner", "2,1", "--nu", "2,1")
    assert _process_run(tmp_path, *argv) == run(capsys, *argv)[1].encode()


def test_cli_import_leaves_dataclasses_out():
    # dataclasses pulls in inspect and builds its methods with exec on
    # every start; -S keeps site packages from importing it first
    src = str(Path(schubcalc.__file__).resolve().parents[1])
    script = "import schubcalc.cli, sys; print('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def _cohom_product_run(cache_dir, lhs, rhs):
    return _process_run(cache_dir, "cohom", "product", "--ambient", "4x4", "--lhs", lhs, "--rhs", rhs)


def test_second_run_reads_every_coefficient_from_the_cache(tmp_path):
    # only single coefficients are persisted; products are memoized in
    # the process alone
    runs, files = [], []
    for _ in range(2):
        runs.append(_process_run(tmp_path, "lr", "coeff", "--outer", "4,3,2,1", "--inner", "2,1", "--nu", "3,2,1,1"))
        files.append((tmp_path / "lr-cache.txt").read_bytes())
    assert runs[0] == runs[1] == b'{"coefficient":2}\n'
    assert files[0] and files[0] == files[1]
    products = tmp_path / "products"
    products.mkdir()
    assert _cohom_product_run(products, "2,1", "2,1")
    assert not (products / "lr-cache.txt").exists()


def test_product_above_the_window_degree_computes_nothing(tmp_path):
    # degree 14 + 11 > 16: no shape of the product fits the 4x4 window
    out = _cohom_product_run(tmp_path, "4,4,4,2", "4,3,2,2")
    assert out == b'{"ambient":"4x4","terms":[]}\n'
    assert not (tmp_path / "lr-cache.txt").exists()


def _full_parser():
    # the parser tree written out one by one, leaf by leaf; the reference
    # for build_parser
    top = argparse.ArgumentParser(prog="schubcalc")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="sketch shapes on stderr")
    sub = top.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition").add_subparsers(dest="op", required=True)
    for op in ("conj", "comp", "plus", "bar", "minus", "check"):
        sp = p_part.add_parser(op, parents=[common])
        sp.add_argument("--partition", required=True)
        if op == "comp":
            sp.add_argument("--box", required=True)
        sp.set_defaults(fn=cli._cmd_partition)

    p_skew = sub.add_parser("skew").add_subparsers(dest="op", required=True)
    sp = p_skew.add_parser("decompose", parents=[common])
    sp.add_argument("--skew", required=True)
    sp.set_defaults(fn=cli._cmd_skew_decompose)

    p_lr = sub.add_parser("lr").add_subparsers(dest="op", required=True)
    sp = p_lr.add_parser("coeff", parents=[common])
    sp.add_argument("--outer", required=True)
    sp.add_argument("--inner", default="")
    sp.add_argument("--nu", required=True)
    sp.set_defaults(fn=cli._cmd_lr_coeff)
    sp = p_lr.add_parser("multi", parents=[common])
    sp.add_argument("--target", required=True)
    sp.add_argument("--factors", required=True)
    sp.set_defaults(fn=cli._cmd_lr_multi)
    sp = p_lr.add_parser("inscribes", parents=[common])
    sp.add_argument("--nu", required=True)
    sp.add_argument("--skew", required=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--symmetric", action="store_true")
    mode.add_argument("--antisymmetric", action="store_true")
    sp.set_defaults(fn=cli._cmd_lr_inscribes)

    p_coh = sub.add_parser("cohom").add_subparsers(dest="op", required=True)
    sp = p_coh.add_parser("product", parents=[common])
    sp.add_argument("--ambient", required=True)
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.set_defaults(fn=cli._cmd_cohom_product)
    sp = p_coh.add_parser("pair", parents=[common])
    sp.add_argument("--ambient", required=True)
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.set_defaults(fn=cli._cmd_cohom_pair)
    sp = p_coh.add_parser("restrict", parents=[common])
    sp.add_argument("--ambient", required=True)
    sp.add_argument("--class", dest="cls", required=True)
    sp.add_argument("--levi", required=True)
    sp.set_defaults(fn=cli._cmd_cohom_restrict)
    sp = p_coh.add_parser("dual-class", parents=[common])
    sp.add_argument("--ambient", required=True)
    sp.add_argument("--type", choices=("unitary", "gsp", "ostar"), default="unitary")
    sp.add_argument("--levi", default="")
    sp.set_defaults(fn=cli._cmd_cohom_dual_class)

    p_sh = sub.add_parser("shimura").add_subparsers(dest="op", required=True)

    def sh(name, fn, pair_args=True, flavors=shimura.FLAVORS):
        sp = p_sh.add_parser(name, parents=[common])
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int)
        if flavors:
            sp.add_argument("--type", choices=flavors, default=flavors[0])
        if pair_args:
            sp.add_argument("--lambda", dest="lam", required=True)
            sp.add_argument("--mu", required=True)
        sp.set_defaults(fn=fn)
        return sp

    sp = sh("pairs", cli._cmd_sh_pairs, pair_args=False)
    sp.add_argument("--bidegree")
    sh("bidegree", cli._cmd_sh_bidegree)
    sp = sh("chern-action", cli._cmd_sh_chern_action)
    sp.add_argument("--nu", required=True)
    sp = sh("inject", cli._cmd_sh_inject, flavors=("unitary", "gsp"))
    sp.add_argument("--factors", default="")
    sp = sh("kunneth-vanish", cli._cmd_sh_kunneth, flavors=("unitary",))
    sp.add_argument("--factor-pairs", dest="factor_pairs", required=True)
    sp = sh("vanish", cli._cmd_sh_vanish, flavors=("unitary",))
    sp.add_argument("--side", choices=("P", "Q"), required=True)
    sp.add_argument("--bound", type=int, required=True)
    sh("structure", cli._cmd_sh_structure, flavors=("unitary",))
    sp = sh("arthur", cli._cmd_sh_arthur, pair_args=False, flavors=None)
    sp.add_argument("--max-degree", dest="max_degree", type=int, required=True)
    sp = sh("partha", cli._cmd_sh_partha, pair_args=False, flavors=None)
    sp.add_argument("--degree", type=int, required=True)
    sp = p_sh.add_parser("ostar-holo", parents=[common])
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(fn=cli._cmd_sh_ostar)

    return top


_PAIR = ("--p", "3", "--q", "3", "--lambda", "1,1", "--mu", "3,3,1")
_LEAF_ARGVS = [
    ("partition", "conj", "--partition", "3,1"),
    ("partition", "comp", "--partition", "3,1", "--box", "3x3", "--pretty"),
    ("partition", "plus", "--partition", "2,1"),
    ("partition", "bar", "--partition", "3,1"),
    ("partition", "minus", "--partition", "2,1"),
    ("partition", "check", "--partition", "2,1"),
    ("skew", "decompose", "--skew", "2,2/1"),
    ("lr", "coeff", "--outer", "2,1", "--nu", "1"),
    ("lr", "multi", "--target", "2,1", "--factors", "1*1*1"),
    ("lr", "inscribes", "--nu", "1", "--skew", "2,1", "--antisymmetric"),
    ("cohom", "product", "--ambient", "2x2", "--lhs", "1", "--rhs", "1"),
    ("cohom", "pair", "--ambient", "2x2", "--lhs", "1", "--rhs", "2,1"),
    ("cohom", "restrict", "--ambient", "2x2", "--class", "1", "--levi", "1x1*1x1"),
    ("cohom", "dual-class", "--ambient", "2x2", "--type", "ostar"),
    ("shimura", "pairs", "--p", "2", "--bidegree", "1,1"),
    ("shimura", "bidegree", *_PAIR, "--type", "orthogonal"),
    ("shimura", "chern-action", *_PAIR, "--nu", "1"),
    ("shimura", "inject", *_PAIR, "--factors", "2x1"),
    ("shimura", "kunneth-vanish", *_PAIR, "--factor-pairs", "1x1:1:1"),
    ("shimura", "vanish", *_PAIR, "--side", "Q", "--bound", "1"),
    ("shimura", "structure", *_PAIR),
    ("shimura", "arthur", "--p", "2", "--q", "3", "--max-degree", "3"),
    ("shimura", "partha", "--p", "2", "--degree", "1", "--pretty"),
    ("shimura", "ostar-holo", "--p", "2"),
]
_HELP_ARGVS = (
    [("--help",), ("-h", "lr")]
    + [(group, "--help") for group in ("partition", "skew", "lr", "cohom", "shimura")]
    + [argv[:2] + ("-h",) for argv in _LEAF_ARGVS]
)
_MALFORMED_ARGVS = [
    (),
    ("bogus",),
    ("bogus", "coeff"),
    ("lr",),
    ("lr", "bogus"),
    ("lr", "coe", "--outer", "1", "--nu", "1"),
    ("--pretty", "lr", "coeff", "--outer", "1", "--nu", "1"),
    ("lr", "--pretty", "coeff", "--outer", "1", "--nu", "1"),
    ("partition", "conj", "--partition", "1", "--bogus"),
    ("partition", "conj", "--partition", "1", "lr"),
    ("lr", "inscribes", "--nu", "1", "--skew", "1", "--symmetric", "--antisymmetric"),
    ("cohom", "dual-class", "--ambient", "2x2", "--type", "bogus"),
    ("shimura", "vanish", *_PAIR, "--side", "R", "--bound", "1"),
    ("shimura", "arthur", "--p", "x", "--max-degree", "1"),
    ("lr", "coeff", "--outer", "1"),
    ("cohom", "restrict", "--ambient", "2x2", "--levi", "1x1"),
    ("--", "lr", "coeff", "--outer", "1", "--nu", "1"),
    ("lr", "--", "coeff", "--outer", "1", "--nu", "1"),
    # a command's own parser sees these first: "--" after the op
    ("lr", "coeff", "--", "--outer", "1", "--nu", "1"),
    ("lr", "coeff", "--outer", "1", "--", "--nu", "1"),
    ("lr", "coeff", "--outer", "1", "--nu", "1", "--"),
    ("partition", "conj", "--", "--partition", "1"),
    # abbreviated options
    ("lr", "coeff", "--out", "1", "--nu", "1", "extra"),
    ("lr", "inscribes", "--nu", "1", "--skew", "1", "--s"),
    ("lr", "coeff", "--o", "1", "--n", "1", "--in", "2", "-h"),
    ("shimura", "vanish", *_PAIR, "--si", "Q", "--b", "1", "--bo", "x"),
    ("lr", "coeff", "--outer=1", "--nu=1", "--inner=", "x"),
    ("cohom", "dual-class", "--ambient", "2x2", "--ty", "gsp", "--ty", "bogus"),
    # repeated options
    ("lr", "coeff", "--outer", "1", "--outer", "2", "--nu", "1", "x"),
    ("lr", "inscribes", "--nu", "1", "--skew", "1", "--symmetric", "--symmetric", "--antisymmetric"),
    ("partition", "conj", "--partition", "1", "--partition"),
    ("shimura", "pairs", "--p", "2", "--p"),
    # extra words, which the top parser refuses
    ("lr", "coeff", "extra", "--outer", "1", "--nu", "1"),
    ("lr", "coeff", "--outer", "1", "--nu", "1", "extra", "words"),
    ("skew", "decompose", "--skew", "2,1", "-x"),
    ("skew", "decompose", "--skew", "2,1", "--bogus=1"),
    ("shimura", "ostar-holo", "--p", "2", "-1"),
    ("cohom", "product", "--ambient", "2x2", "--lhs", "1", "--rhs", "1", "--pretty", "x"),
    ("lr", "coeff", "--help=1"),
    # a second command after the first
    ("lr", "coeff", "--outer", "1", "--nu", "1", "lr", "coeff"),
    ("partition", "conj", "--partition", "1", "partition", "conj", "--partition", "1"),
    ("lr", "coeff", "lr", "coeff", "--outer", "1", "--nu", "1"),
    ("shimura", "pairs", "--p", "1", "shimura", "pairs", "--p", "1"),
    # -h next to a bogus option
    ("lr", "coeff", "--bogus", "-h"),
    ("lr", "coeff", "-h", "--bogus"),
    ("partition", "conj", "--partition", "1", "--bogus", "--help"),
    ("lr", "--bogus", "-h"),
    ("--bogus", "-h"),
    ("shimura", "vanish", "--side", "R", "-h"),
    ("lr", "coeff", "-h", "extra"),
]
# valid calls spelled with abbreviated, repeated and "=" options
_SPELLED_ARGVS = [
    ("lr", "coeff", "--out", "2,1", "--nu", "1", "--nu", "1"),
    ("lr", "coeff", "--outer=2,1", "--in=1", "--n=1", "--pr"),
    ("lr", "inscribes", "--nu", "1", "--sk", "2,1", "--sy", "--sy"),
    ("shimura", "vanish", *_PAIR, "--si", "P", "--side", "Q", "--b", "1"),
]


def _outcome(parse, argv, capsys):
    try:
        result = ("parsed", vars(parse(argv)))
    except SystemExit as done:
        result = ("exit", done.code)
    return result + capsys.readouterr()


_ARGVS = _LEAF_ARGVS + _SPELLED_ARGVS + _HELP_ARGVS + _MALFORMED_ARGVS


@pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
def test_parser_matches_the_full_parser(monkeypatch, capsys, argv):
    # help, usage and error text, exit codes and parsed values read as the
    # reference tree's, whether main parses argv with the command's own
    # parser or with the tree
    monkeypatch.setenv("COLUMNS", "80")
    want = _outcome(_full_parser().parse_args, list(argv), capsys)
    assert _outcome(build_parser().parse_args, list(argv), capsys) == want
    assert _outcome(cli._parse, list(argv), capsys) == want
    assert want[0] == ("parsed" if argv in _LEAF_ARGVS + _SPELLED_ARGVS else "exit")


def _parsers_built(monkeypatch, argv, clear=True):
    # the parsers main builds for argv, from an empty table unless told
    # to reuse what earlier calls built
    if clear:
        cli._parser.cache_clear()
        cli._command_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        try:
            main(argv)
        except SystemExit:
            pass
    return len(built)


def test_a_call_builds_only_the_parsers_its_argv_names(monkeypatch, capsys):
    # a command builds its own parser alone; help and errors build the
    # whole tree: the top, five groups and 24 leaves, 30 parsers
    for argv in _LEAF_ARGVS + _SPELLED_ARGVS:
        assert _parsers_built(monkeypatch, list(argv)) == 1, argv
    argv = ["lr", "coeff", "--outer", "2,1", "--nu", "1"]
    assert _parsers_built(monkeypatch, argv) == 1
    # a second identical call reuses the parser of its command
    assert _parsers_built(monkeypatch, argv, clear=False) == 0
    assert _parsers_built(monkeypatch, ["bogus"]) == 30
    assert _parsers_built(monkeypatch, ["lr", "--help"]) == 30
    # a command with extra words is refused by the tree's top parser
    assert _parsers_built(monkeypatch, argv + ["extra"]) == 1 + 30
    capsys.readouterr()


def _parse_in_main(monkeypatch, argv, capsys):
    # the outcome of the parse inside main(argv), in _outcome's form; the
    # handler's output, read after the parse, is returned apart
    seen = []
    parse = cli._parse

    def recording(argv):
        try:
            ns = parse(argv)
        except SystemExit as done:
            seen.append(("exit", done.code) + capsys.readouterr())
            raise
        seen.append(("parsed", dict(vars(ns))) + capsys.readouterr())
        return ns

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", recording)
        try:
            rc = main(list(argv))
        except SystemExit:
            rc = None
    (parsed,) = seen
    return parsed, (rc,) + capsys.readouterr()


def test_reused_parsers_change_no_outcome(monkeypatch, capsys):
    # every argv three times, shuffled so that malformed calls, help and
    # valid ones interleave, with the parsers built at 80 columns and
    # reused at 30 and 200; help is wrapped when printed
    order = _ARGVS * 3
    random.Random(22).shuffle(order)
    cli._parser.cache_clear()
    cli._command_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "80")
    calls = {id(build_parser()) for _ in order}
    assert len(calls) == 1
    for columns in ("80", "30", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        want = {argv: _outcome(_full_parser().parse_args, list(argv), capsys) for argv in _ARGVS}
        ran = {}
        for argv in order:
            parsed, after = _parse_in_main(monkeypatch, argv, capsys)
            assert parsed == want[argv], (columns, argv)
            # the handler, too, answers alike on every repeat
            assert ran.setdefault(argv, after) == after, (columns, argv)
    assert cli._parser.cache_info().currsize == 1
    assert cli._command_parser.cache_info().currsize == len(cli._COMMANDS) == 24


def test_shimura_type_choices_are_the_flavors():
    # cli writes the flavors out so that parsing does not load shimura
    assert cli._FLAVOR == ("--type", {"choices": shimura.FLAVORS, "default": shimura.FLAVORS[0]})


# the schubcalc modules each group's commands load beyond the package's
_GROUP_LOADS = {
    "partition": ["cli"],
    "skew": ["cli"],
    "lr": ["cli", "lr"],
    "cohom": ["cli", "cohomology", "lr"],
    "shimura": ["cli", "cohomology", "lr", "shimura"],
}
_LOADED_SCRIPT = """
import sys
def loaded():
    return sorted(m[len("schubcalc."):] for m in sys.modules if m.startswith("schubcalc."))
import schubcalc
if loaded() != ["errors", "partition", "skew", "tableau"]:
    sys.exit("import schubcalc loaded %%s" %% loaded())
from schubcalc import cli
try:
    ran = cli.main(%r) in (0, 1)
except SystemExit as done:
    # help prints and exits 0
    ran = done.code == 0
if not ran:
    sys.exit("the call did not run")
if loaded() != %r:
    sys.exit("the call loaded %%s" %% loaded())
"""


# help builds the whole tree, which loads no layer
_TREE_ARGVS = [("--help",), ("lr", "--help"), ("shimura", "--help")]


@pytest.mark.parametrize("argv", _LEAF_ARGVS + _TREE_ARGVS, ids=" ".join)
def test_a_call_loads_only_the_layers_its_command_calls(argv):
    # sys.exit, not assert, so the checks hold under python -O too; -S
    # keeps site packages from importing anything first
    src = str(Path(schubcalc.__file__).resolve().parents[1])
    loads = ["cli"] if argv in _TREE_ARGVS else _GROUP_LOADS[argv[0]]
    want = sorted(["errors", "partition", "skew", "tableau", *loads])
    done = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_SCRIPT % (list(argv), want)],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


_AT_LIMIT_SCRIPT = """
import contextlib, io, json, sys
from schubcalc import cli
limit, argvs = json.load(sys.stdin)
if limit:
    sys.setrecursionlimit(limit)
outs = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    outs.append([rc, out.getvalue()])
json.dump(outs, sys.stdout)
"""


def _outputs_at_recursion_limit(limit, argvs):
    src = str(Path(schubcalc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", _AT_LIMIT_SCRIPT],
        input=json.dumps([limit, argvs]),
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_outputs_do_not_depend_on_the_recursion_limit():
    # no command path recurses, so a limit of 100 frames changes no byte
    argvs = [list(argv) for argv in _LEAF_ARGVS]
    levi = "*".join(["1x1"] * 400)
    blocks = ["cohom", "restrict", "--ambient", "400x400", "--class", "1", "--levi", levi]
    *shallow, (rc, out) = _outputs_at_recursion_limit(100, argvs + [blocks])
    assert shallow == _outputs_at_recursion_limit(None, argvs)
    # the box goes to one block, the last one first in graded order
    terms = [{"partitions": [""] * (399 - i) + ["1"] + [""] * i, "coeff": 1} for i in range(400)]
    doc = {"factors": ["1x1"] * 400, "terms": terms}
    assert (rc, out) == (0, json.dumps(doc, separators=(",", ":")) + "\n")
    assert len(out.encode()) == 493624
