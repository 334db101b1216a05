"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import self_times  # noqa: E402
from workloads import WORKLOADS, Clock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1", "--tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_and_prints_the_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # at tiny trial counts the MC agreement checks cannot resolve SER tails,
    # so `correct` is only required to be present here
    assert isinstance(result["correct"], bool)
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for name in ("setup_s", "wall_s", "mtrials_per_s", "cf_evals_per_s", "peak_rss_mb",
                     "s_to_1pct_p50", "fail_ratio"):
            assert f"# {name} " in proc.stdout


def test_spans_nest_and_self_time_is_not_negative():
    assert bench("--workload", "mc_grid", "--seed", "3", "--trace", "1").returncode == 0
    spans = json.loads((ROOT / ".perfbench_run" / "spans-mc_grid-seed3.json").read_text())["spans"]
    assert spans
    for name, start, end, parent, run_id in spans:
        assert start <= end
        if parent >= 0:
            p_start, p_end, p_run = spans[parent][1], spans[parent][2], spans[parent][4]
            assert p_start <= start and end <= p_end and p_run == run_id
    assert min(self_times(spans)) >= -1e-9
    names = {s[0] for s in spans}
    assert {"cli.run_sweep", "montecarlo.mc_weighted_sum_rate",
            "channel.draw_trial_batch", "analytic.avg_weighted_sum_ser"} <= names


def test_checker_counts_a_wrong_value_as_a_failure(tmp_path):
    import fdlink

    workload = WORKLOADS["closed_form"](3, True, tmp_path)
    api = type("Api", (), {name: staticmethod(getattr(fdlink, name)) for name in (
        "avg_weighted_sum_rate", "avg_weighted_sum_ser", "rate_ceiling", "ser_floor",
        "asymptotic_ser_perfect_cancellation")})
    out = workload.run(api, Clock())
    assert all(c.ok for c in workload.checks(out, 3) if not c.known_defect)

    key = next(k for k in out if k[0] == "wser" and k[1].eta > 0)
    out[key] = fdlink.AnalyticValue(value=0.75, max_term_magnitude=0.75, cancellation_flag=False)
    failed = [c for c in workload.checks(out, 3) if not c.ok and not c.known_defect]
    assert any("alpha/2" in c.name for c in failed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "closed_form", "--seed", "3", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
