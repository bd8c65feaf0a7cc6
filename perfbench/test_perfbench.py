"""Self-tests of the benchmark: `python3 -m pytest perfbench -q` from the repo root.

The smoke tests take every workload through its full path (fresh processes,
exact gates, the traced run) at the tiny truncations, in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import probe
import run
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from currentfock import cli  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _names(section):
    return {m["name"] for m in SPEC[section]}


def _outputs(workload, seed=0):
    """(call, exit code, stdout) of every tiny-size call, run in this process."""
    results = []
    for call in workloads.calls(workload, seed, "tiny"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(call.argv))
        results.append((call, rc, out.getvalue()))
    return results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_full_path(workload, trace):
    result, lines, record = run.run(workload, 0, 1, trace, size="tiny")
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _names(section)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert record["context"]["seed"] == 0 and record["context"]["samples"] >= 1
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        for sample in record["samples"]:
            assert sample["probe"]["setup_samples"] and sample["probe"]["solve_samples"]
            assert 0 < sample["solve_ref_s"] and 0 < sample["setup_ref_s"]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_keep_the_pinned_work(workload, seed):
    for call, rc, out in _outputs(workload, seed):
        assert call.gate(rc, out) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_only_the_rational_parameters(workload):
    base = workloads.calls(workload, 0)
    other = workloads.calls(workload, 7)
    assert [c.argv for c in workloads.calls(workload, 7)] == [c.argv for c in other]
    assert len(base) == len(other)
    for a, b in zip(base, other):
        assert len(a.argv) == len(b.argv)
        for x, y in zip(a.argv, b.argv):
            if x != y:
                assert x.split("=")[0] == y.split("=")[0] in ("--l", "--lambda", "--c")


def test_default_seed_gives_the_acceptance_values():
    assert workloads.parameters(workloads.DEFAULT_SEED) == workloads.ACCEPTANCE
    for seed in range(50):
        p = workloads.parameters(seed)
        assert len(set(p["levels"])) == 3 and "0" not in p["levels"]
        assert p["lam"] != "0" and p["c"] not in ("0", "1", "-1")


def test_reference_seconds_rescale_by_the_probe():
    ref = probe.PROBE_REF_S
    assert probe.reference_seconds(2.0, [ref, ref], 0.5) == pytest.approx(1.5)
    # Half the time at half speed: 4 wall seconds hold 3 reference seconds.
    assert probe.reference_seconds(4.0, [ref, 2 * ref], 0.0) == pytest.approx(3.0)


def test_probe_samples_until_stopped():
    speed = probe.Probe()
    speed.start()
    try:
        deadline = time.monotonic() + 5 * probe.INTERVAL_S
        while time.monotonic() < deadline:
            pass
        samples, overhead_s = speed.take()
    finally:
        speed.stop()
    assert len(samples) >= 3 and overhead_s >= sum(samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _doctor_report(out, **changes):
    report = json.loads(out)
    report.update(changes)
    return json.dumps(report)


@pytest.mark.parametrize("workload", ["virasoro-adjoint", "field-eval0"])
def test_report_gate_rejects_doctored_outputs(workload):
    call, rc, out = _outputs(workload)[0]
    assert call.gate(rc, out) is None
    states = json.loads(out)["states_checked"]
    assert call.gate(1, out)
    assert call.gate(rc, _doctor_report(out, defect_zero=False))
    assert call.gate(rc, _doctor_report(out, max_defect="1/3"))
    assert call.gate(rc, _doctor_report(out, states_checked=states - 1))
    assert call.gate(rc, _doctor_report(out, states_checked=states + 1))
    assert call.gate(rc, _doctor_report(out, counterexample=[]))
    assert call.gate(rc, "not json")
    assert call.gate(rc, "{}")


def test_dims_gate_rejects_doctored_outputs():
    (call, rc, out), = _outputs("dims-d2")
    assert call.gate(rc, out) is None
    table = json.loads(out)
    for field in ("enum", "dp", "gf_product"):
        doctored = json.loads(out)
        doctored["rows"][5][field] += 1
        assert call.gate(rc, json.dumps(doctored))
    doctored = json.loads(out)
    for row in doctored["rows"][5:7]:
        for field in ("enum", "dp", "gf_product"):
            row[field] += 1
    assert "sum of enum" in call.gate(rc, json.dumps(doctored))
    doctored = dict(table, rows=table["rows"][:-1])
    assert call.gate(rc, json.dumps(doctored))
    assert call.gate(1, out)


def test_vacuum_gate_rejects_doctored_outputs():
    (call, rc, out), = _outputs("vacuum-jordan")
    assert call.gate(rc, out) is None
    payload = json.loads(out)
    assert call.gate(rc, json.dumps(dict(payload, dimension=1, basis=payload["basis"][:1])))
    assert call.gate(rc, json.dumps(dict(payload, dimension=3)))
    moved = json.loads(out)
    moved["basis"][1][0]["mono"] = [[1, 0, 1]]
    assert "bigrade" in call.gate(rc, json.dumps(moved))
    assert call.gate(2, out)


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dims-d2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
