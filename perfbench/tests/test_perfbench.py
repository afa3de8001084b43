"""Fast tests of the benchmark itself, at smoke sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "1", "--scale", "smoke", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_runs_and_passes_its_checks(workload):
    detail, result = bench("--workload", workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_repeat_call_counts_and_report_every_layer_metric():
    runs = [bench("--workload", "cli-calls", "--trace", "1") for _ in range(2)]
    for detail, result in runs:
        assert result["correct"], detail["errors"]
        # the digest check inside the traced run compares stdout with tracing on and off
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [
        {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls") or k.endswith(".lines")}
        for _, result in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] > 0 and counts[0]["lr.cache_file.lines"] > 0


def _bindings():
    return {
        (name, attr): obj
        for name, mod in sys.modules.items()
        if name == "schubcalc" or name.startswith("schubcalc.")
        for attr, obj in vars(mod).items()
        if callable(obj)
    }


def test_tracer_wraps_every_binding_and_restores_them():
    ex = workloads.Executor()
    before = _bindings()
    t = tracing.make_tracer().install()
    try:
        shimura, lr = ex.m["shimura"], ex.m["lr"]
        # the copy `from .lr import inscribes` left in shimura is wrapped too
        assert shimura.inscribes is not before[("schubcalc.shimura", "inscribes")]
        assert shimura.inscribes is lr.inscribes
        lr.lr_coefficient((2, 1), (1,), (1, 1))
        lr.lr_coefficient((2, 1), (1,), (1, 1))
    finally:
        t.uninstall()
    assert _bindings() == before
    metrics = tracing.layer_metrics(t)
    assert metrics["lr.lr_coefficient.calls"] == 2
    assert metrics["lr.lr_coefficient.repeat_ratio"] == 0.5
    assert metrics["lr.lr_coefficient.nonzero_ratio"] == 1.0


def test_cli_stdout_is_the_same_with_tracing_on_and_off():
    queries = workloads.generate("cli-calls", 3, "smoke")
    plain = worker.run_pass(workloads.Executor(), queries, 10.0).outputs
    t = tracing.make_tracer().install()
    try:
        traced = worker.run_pass(workloads.Executor(), queries, 10.0, tracer=t).outputs
    finally:
        t.uninstall()
    assert None not in plain and plain == traced


def test_hung_query_fails_instead_of_stalling():
    class Hangs:
        def run(self, q):
            time.sleep(30)

    import signal

    signal.signal(signal.SIGALRM, worker._alarm)
    start = time.monotonic()
    result = worker.run_pass(Hangs(), [("cup",)], 0.2)
    assert time.monotonic() - start < 5
    assert result.outputs == [None] and "timeout" in result.errors[0]


def test_oversized_inputs_are_refused_before_running(monkeypatch, capsys):
    with pytest.raises(workloads.InputTooLarge):
        workloads.check_bounds([("enumerate_pairs", (6, 7), "unitary", None)])
    with pytest.raises(workloads.InputTooLarge):
        workloads.check_bounds([("lr_coefficient", (11,) * 5, (), (11,) * 5)])

    def oversized(name, seed, scale="full"):
        queries = [("enumerate_pairs", (7, 7), "unitary", None)]
        workloads.check_bounds(queries)
        return queries

    def never(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(run.workloads, "generate", oversized)
    monkeypatch.setattr(run, "run_worker", never)
    code = run.main(["--workload", "pairs-window", "--seed", "1"])
    assert code == 2 and capsys.readouterr().out == ""


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "lr-expand", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_chain_pairs_match_brute_force_and_the_6x6_anchor():
    for rows, cols in [(1, 3), (2, 2), (2, 3), (3, 3), (3, 4)]:
        shapes = oracle.partitions_in_box(rows, cols)
        brute = {
            (lam, mu)
            for lam in shapes
            for mu in shapes
            if lam != mu and oracle.contained(lam, mu) and oracle.chain_blocks(mu, lam) is not None
        }
        assert set(oracle.chain_pairs(rows, cols)) == brute
    # plus the 924 pairs with lam == mu, whose chain is empty
    assert len(oracle.chain_pairs(6, 6)) + 924 == workloads.PAIR_ANCHORS[((6, 6), "unitary")]


def test_hook_content_formula():
    assert oracle.hook_content_dim((1,), 5) == 5
    assert oracle.hook_content_dim((2, 1), 3) == 8
    assert oracle.hook_content_dim((1, 1, 1, 1), 3) == 0
    # s_1 * s_1 = s_2 + s_11
    assert oracle.expansion_identity_holds((1,), (1,), {(2,): 1, (1, 1): 1}, 4)
    assert not oracle.expansion_identity_holds((1,), (1,), {(2,): 1}, 4)


def test_same_seed_same_inputs():
    for name in workloads.NAMES:
        assert workloads.generate(name, 5, "smoke") == workloads.generate(name, 5, "smoke")


def test_speed_scaling():
    import speed

    # a stretch measured while the probe loop ran at twice its reference time
    assert speed.at_reference(4.0, [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]) == 2.0
    assert speed.at_reference(3.0, [0.1, 0.2, 0.3], reference=0.1) == 1.5
    assert speed.probe() > 0


def test_tail_is_the_nearest_rank_with_ten_samples_beyond():
    assert run.tail(list(range(40))) == (75, 29, 10)
    assert run.tail(list(range(100))) == (90, 89, 10)
    assert run.tail(list(range(5))) == (50, 2, 2)
