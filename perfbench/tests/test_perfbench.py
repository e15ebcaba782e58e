"""Tests of the benchmark itself: smoke runs, output checks and the tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    result = last_json(smoke(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    else:
        assert result["metrics"]["cli.main.calls"]["value"] == 1.0
        assert 0.95 < result["metrics"]["trace.accounted_frac"]["value"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_lapack_counts_repeat_across_seeds(workload):
    a = last_json(smoke(workload, 1, seed=1))["metrics"]
    b = last_json(smoke(workload, 1, seed=2))["metrics"]
    for name in ("lapack.matrices", "lapack.matrices_per_op"):
        assert a[name]["value"] == b[name]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_report_check_catches_wrong_distance():
    rho = checks.bell_state()
    sigma = np.diag([0, 1, 1, 0]).astype(complex) / 3 + (rho - np.diag(np.diag(rho))) / 3
    report = {
        "dims": [2, 2],
        "rho_s": json.loads(checks.state_json(sigma, (2, 2))),
        "distance_exact": float(np.linalg.norm(rho - sigma)),
        "d_min": -0.5,
        "e_squared": [0.5, 0.5, 0.0, 0.0],
    }
    assert checks.check_report(report, rho, (2, 2), None) == []
    assert checks.check_report(report, rho, (2, 2), checks.BELL_DISTANCE)
    bad = dict(report, distance_exact=report["distance_exact"] + 1e-9)
    assert checks.check_report(bad, rho, (2, 2), None)
    bad = dict(report, e_squared=[0.6, 0.5, -0.1, 0.0])
    assert checks.check_report(bad, rho, (2, 2), None)


def test_stats_check_uses_the_hs_oracle():
    good = "NPT fraction:             0.7576  (7576/10000)\npositive rho_s fraction:  0.9999  (of NPT)\n"
    assert checks.check_stats(good, 10_000) == []
    far = good.replace("0.7576  (7576/10000)", "0.7300  (7300/10000)")
    assert checks.check_stats(far, 10_000)
    assert checks.check_stats(good.replace("0.9999", "0.9700"), 10_000)
    assert checks.check_stats("garbage", 10_000)


def test_scan_check_rebuilds_cells_from_the_frame():
    assert not np.any(np.imag(checks.plane_frame(*checks.plane_anchors("ff3"))))
    a1, a2 = checks.plane_frame(*checks.plane_anchors("random:3"))
    assert np.any(a1.imag) or np.any(a2.imag)
    rows = ["a,b,min_eig,min_eig_pt,negativity,is_state,is_ppt"]
    values = np.linspace(-0.9, 0.9, 3)
    for b in values:
        for a in values:
            m = np.eye(4) / 4 + a * a1 + b * a2
            e = np.linalg.eigvalsh(m)[0]
            e_pt = np.linalg.eigvalsh(checks.partial_transpose(m, 2, 2))[0]
            rows.append("%.17g,%.17g,%.17g,%.17g,0,0,0" % (a, b, e, e_pt))
    contours = json.dumps([{"field": "x", "level": 0, "polylines": []}] * 3)
    rng = np.random.default_rng(0)
    csv = "\n".join(rows) + "\n"
    assert checks.check_scan("random:3", 3, 1, csv, contours, rng) == []
    fields = rows[5].split(",")
    fields[2] = repr(float(fields[2]) + 1e-9)
    rows[5] = ",".join(fields)
    assert checks.check_scan("random:3", 3, 1, "\n".join(rows) + "\n", contours, rng, n_cells=9)
    assert checks.check_scan("random:3", 4, 1, csv, contours, rng)


def test_tail_is_the_median_window_p99():
    import worker

    times = np.tile(np.linspace(1.0, 2.0, 1000), 3)
    times[1000:2000] *= 5  # one slow spell
    assert worker.tail_seconds(times) == pytest.approx(np.percentile(times[:1000], 99))
    assert worker.tail_seconds(np.arange(10.0)) == pytest.approx(4.5)
    assert worker.tail_seconds(np.arange(200.0)) == pytest.approx(np.percentile(np.arange(200.0), 90))


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer._wrap("linalg.hs_norm", lambda x: sum(range(x)))

    def outer_fn(x):
        return inner(x) + inner(x)

    outer = tracer._wrap("projection.closest_pt_state", outer_fn)
    tracer.start_op(0)
    outer(20_000)
    tracer.stop_op()
    outer(10)  # not recorded
    table = tracer.table()
    agg = tracer.aggregate(table)
    assert agg["linalg.hs_norm"]["calls"] == 2
    assert agg["projection.closest_pt_state"]["calls"] == 1
    total = agg["projection.closest_pt_state"]["total_s"]
    self_sum = agg["projection.closest_pt_state"]["self_s"] + agg["linalg.hs_norm"]["self_s"]
    assert self_sum == pytest.approx(total, rel=1e-9)
    assert agg["linalg.hs_norm"]["total_s"] < total
    assert [s[0] for s in tracer.spans_of_op(table, 0, 10)] == [
        "projection.closest_pt_state", "linalg.hs_norm", "linalg.hs_norm"]
