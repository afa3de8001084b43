"""The command line's output contract as one table.

tests/golden_cli.json maps each argv, written as one shell line, to the
exit code and the sha256 of the stdout and stderr that cli.main gives
it.  Its rows are every leaf command of test_cli._LEAF_ARGVS, the argvs
of CI's hash-seed loop, the README examples, more `cohom pair`,
`shimura kunneth-vanish` and `shimura partha` calls, pair windows
refused for holding more than shimura.MAX_PAIRS pairs, the four
34-40 cell `lr coeff` calls of the benchmark's lr-expand workload, and
`cohom product`, `lr multi` and `skew decompose` calls whose products
hold many terms of one weight or whose skews have an empty row.  A change that
alters an output on purpose re-pins the rows it changes and names each
one in CHANGES.md.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from schubcalc.cli import main
from test_cli import _LEAF_ARGVS

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def golden_row(capsys, argv):
    """[exit code, sha256 of stdout, sha256 of stderr] of one call."""
    try:
        code = main(shlex.split(argv))
    except SystemExit as done:
        code = done.code
    out, err = capsys.readouterr()
    return [code, _sha256(out), _sha256(err)]


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_cli_row(capsys, monkeypatch, argv):
    # a cache file would be written to, and could answer `lr coeff`
    monkeypatch.delenv("SCHUBERT_CACHE_DIR", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    assert golden_row(capsys, argv) == GOLDEN[argv]


def test_golden_table_holds_every_leaf_command():
    assert {shlex.join(argv) for argv in _LEAF_ARGVS} <= set(GOLDEN)
