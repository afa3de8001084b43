import json

import pytest

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


def test_malformed_input_exit_code(capsys):
    rc, out, err = run(capsys, "partition", "conj", "--partition", "abc")
    assert rc == 2
    assert out == ""
    assert "error" in err


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
