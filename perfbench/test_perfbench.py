"""Self-tests of the lifecycle benchmark (slow: several benchmark runs).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as runner  # noqa: E402
from run import NOMINAL_PROBE_S, SpeedProbe, drive  # noqa: E402
from workloads import Step, fresh, interleave  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: Work counts that must repeat exactly across traced runs at one seed.
EXACT = (
    "store.read_calls",
    "store.rows_examined",
    "changelog.match_evaluations",
    "configgen.records_scanned",
    "configgen.configs_generated",
    "deploy.devices_pushed",
    "deploy.changed_lines",
    "durability.commits",
    "durability.wal_bytes",
    "replication.records_applied",
    "rpc.cache_invalidations",
    "flight.events",
)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result(completed: subprocess.CompletedProcess) -> dict:
    output = completed.stdout[-3000:] + completed.stderr[-3000:]
    assert completed.returncode == 0, output
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_work_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = (result(run(ROOT, *args)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "2", "--trace", "0")
    report = result(run(ROOT, *args))
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    metrics = report["metrics"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: metric["unit"] for name, metric in metrics.items()
    }
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    args = ("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    completed = run(tmp_path, *args)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_interleave_keeps_the_mix_in_every_prefix():
    ops = list("aaaaaaaaaaaabbbbbcccccc")
    out = list(interleave(ops, lambda op: op, {"a": 12.0, "b": 5.0, "c": 6.0}))
    assert Counter(out) == Counter(ops)
    for length in range(1, len(out) + 1):
        counts = Counter(out[:length])
        for kind, weight in (("a", 12), ("b", 5), ("c", 6)):
            assert abs(counts[kind] - length * weight / 23) < 1.0


class _Scripted:
    """A stand-in workload whose operations do nothing and whose outcomes
    follow a script."""

    name, seed, epoch_ops = "scripted", 0, None

    def __init__(self, oks):
        self.oks = list(oks)

    def wal_bytes(self):
        return 0

    def step(self, segments):
        if not self.oks:
            return None
        segments.run(lambda: None)
        return Step(ok=self.oks.pop(0), units=3, sample=True, kind="op")


def test_not_ok_operations_count_only_as_failures():
    run = drive(_Scripted([True, False, True]), ops=3)
    assert (run["attempted"], run["failed"]) == (3, 1)
    assert run["units"] == 6 and len(run["samples"]) == 2


def test_timed_run_ends_on_a_whole_epoch():
    run = drive(fresh("turnup", 1), seconds=1e-9)
    try:
        assert run["attempted"] == run["workload"].epoch_ops == 5
        assert run["failed"] == 0 and not run["workload"].check()
    finally:
        run["workload"].teardown()


def test_speed_probe_scales_each_time_by_the_probes_near_it(monkeypatch):
    # The machine runs at half the reference speed for 5 op seconds, then
    # at the reference speed for 5 more; one reading per 0.05 op seconds,
    # each the second of two probe runs.
    probe_times = iter([2 * NOMINAL_PROBE_S] * 200 + [NOMINAL_PROBE_S] * 200)
    monkeypatch.setattr(runner, "_probe", lambda: next(probe_times))
    probe = SpeedProbe()
    midpoints = [probe.after_op(0.05) for _ in range(200)]
    assert probe.scaled(0.05, midpoints[10]) == pytest.approx(0.025)
    assert probe.scaled(0.05, midpoints[190]) == pytest.approx(0.05)
    assert probe.factor() == pytest.approx(2 / 3)
