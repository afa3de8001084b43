import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schubcalc
from schubcalc.cli import main


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
    # a window of about a thousand rows outruns the per-row recursion of
    # the pair enumeration
    rc, out, err = run(capsys, "shimura", "pairs", "--p", "1100", "--q", "1")
    assert (rc, out, err) == (1, '{"error":"InputTooLarge"}\n', "")
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


def _process_run(cache_dir, *args):
    # one real schubcalc process with its own coefficient cache
    src = str(Path(schubcalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, SCHUBERT_CACHE_DIR=str(cache_dir))
    argv = [sys.executable, "-m", "schubcalc.cli", *args]
    done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


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
