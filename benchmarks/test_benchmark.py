"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_program()
import workloads  # noqa: E402
from stratdiff import exact  # noqa: E402
from stratdiff.network import SolveResult  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_workload_reports_every_metric(name, trace):
    attempted, failed, metrics, report, counts_ok = run.run_one(
        name, 1, 0.01, trace, small=True)
    assert attempted >= 1 and failed == 0 and counts_ok
    assert report["error_rate"] == 0.0
    want = _units(SPEC["per_layer"] if trace else SPEC["end_to_end"])
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_traced_run_finds_the_dominant_layer():
    *_, report, _ = run.run_one("tiny_exact", 1, 0.01, 1, small=True)
    assert report["dominant_layer"] == "exact"


def test_corrupted_answer_counts_as_failed(monkeypatch):
    real = exact.dp_optimal

    def corrupted(inst, **kw):
        res = real(inst, **kw)
        if inst.z < 3:
            return res
        steps = res.step_times[:-1] + (res.step_times[-1] + 1.0,)
        return SolveResult(res.sequence, sum(steps), steps, res.solver)

    monkeypatch.setattr(exact, "dp_optimal", corrupted)
    attempted, failed, _, report, _ = run.run_one(
        "tiny_exact", 1, 0.01, 0, small=True)
    assert 0 < failed < attempted
    assert any("replay" in m for m in report["failures"])


def test_counts_that_change_on_a_repeat_are_flagged():
    counts = {"bench.instances": 3}
    assert run._check_repeat("dp_mid", 7, True, counts) == "first"
    assert run._check_repeat("dp_mid", 7, True, counts) == "match"
    assert run._check_repeat("dp_mid", 7, True, {"bench.instances": 4}) == "differ"


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("sparse_struct", 5, tmp_path, small=True)
    b = workloads.build("sparse_struct", 5, tmp_path, small=True)
    assert [op.inst for op in a.ops] == [op.inst for op in b.ops]
    assert workloads.counts(a.ops) == workloads.counts(b.ops)


def test_without_the_program_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run._import_program()
    assert exc.value.code not in (0, None)
